"""Flow control: equal forward progress during analysis.

Section III-B of the paper: "we make sure that all threads in the application
make the same amount of forward progress during analysis ... to stabilize the
collected profile for any thread imbalance that is caused by external events
on the host processor".  We implement the same window rule over *filtered*
(application-image) instructions: a runnable thread may only be scheduled if
it is within ``window`` filtered instructions of the slowest runnable thread.
"""

from __future__ import annotations

from typing import List, Sequence

#: The flow-control window recording uses unless a caller overrides it.
DEFAULT_FLOW_WINDOW = 1_500


class FlowControl:
    """Window-based equal-progress policy over filtered instruction counts."""

    def __init__(self, window: int = DEFAULT_FLOW_WINDOW) -> None:
        if window <= 0:
            raise ValueError("flow-control window must be positive")
        self.window = window

    def eligible(
        self, filtered_per_thread: Sequence[int], runnable: Sequence[int]
    ) -> List[int]:
        """Runnable thread ids allowed to make progress right now, in
        ``runnable`` order.

        The slowest runnable thread is always eligible, so this never
        introduces a livelock on its own.  When every runnable thread is
        inside the window, ``runnable`` itself is returned; callers only
        read it.
        """
        if not runnable:
            return []
        floor = ceiling = filtered_per_thread[runnable[0]]
        for tid in runnable:
            count = filtered_per_thread[tid]
            if count < floor:
                floor = count
            elif count > ceiling:
                ceiling = count
        limit = floor + self.window
        if ceiling <= limit:
            return runnable
        return [tid for tid in runnable if filtered_per_thread[tid] <= limit]

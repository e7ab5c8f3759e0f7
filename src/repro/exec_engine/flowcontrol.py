"""Flow control: equal forward progress during analysis.

Section III-B of the paper: "we make sure that all threads in the application
make the same amount of forward progress during analysis ... to stabilize the
collected profile for any thread imbalance that is caused by external events
on the host processor".  We implement the same window rule over *filtered*
(application-image) instructions: a runnable thread may only be scheduled if
it is within ``window`` filtered instructions of the slowest runnable thread.

Selection runs every scheduling round, so it has a columnar form: when the
engine hands over its cached run-queue as a numpy array (rebuilt only on
``_sched_dirty`` rounds, see
:meth:`~repro.exec_engine.engine.ExecutionEngine._rebuild_runnable`) and the
queue is wide enough to amortize numpy fixed costs, the floor/mask reduce
vectorially; narrow queues keep the scalar path, which is faster below the
crossover.  Both produce the identical eligible list (ascending tid order).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

#: Run-queue width at which the columnar eligible-selection path beats the
#: scalar scan: numpy's fixed per-call cost (array indexing, reduction
#: setup) needs this many lanes to amortize.
COLUMNAR_MIN_THREADS = 32

#: The flow-control window recording uses unless a caller overrides it.
DEFAULT_FLOW_WINDOW = 1_500


class FlowControl:
    """Window-based equal-progress policy over filtered instruction counts."""

    def __init__(self, window: int = DEFAULT_FLOW_WINDOW) -> None:
        if window <= 0:
            raise ValueError("flow-control window must be positive")
        self.window = window

    def eligible(
        self,
        filtered_per_thread: Sequence[int],
        runnable: Sequence[int],
        runnable_arr: Optional[np.ndarray] = None,
    ) -> List[int]:
        """Runnable thread ids allowed to make progress right now.

        The slowest runnable thread is always eligible, so this never
        introduces a livelock on its own.  ``runnable_arr`` is an optional
        numpy mirror of ``runnable`` (the engine's cached run-queue);
        with a wide queue it enables the columnar path.
        """
        if not runnable:
            return []
        if (
            runnable_arr is not None
            and len(runnable) >= COLUMNAR_MIN_THREADS
        ):
            return self.eligible_columnar(filtered_per_thread, runnable_arr)
        floor = min(filtered_per_thread[tid] for tid in runnable)
        limit = floor + self.window
        return [tid for tid in runnable if filtered_per_thread[tid] <= limit]

    def eligible_columnar(
        self,
        filtered_per_thread: Sequence[int],
        runnable_arr: np.ndarray,
    ) -> List[int]:
        """The same window rule as one gather + reduce + mask.

        Returns plain Python ints in the same ascending order as the
        scalar path — callers index the result with an rng draw, so the
        two paths must agree element for element.
        """
        vals = np.asarray(filtered_per_thread, dtype=np.int64)[runnable_arr]
        limit = vals.min() + self.window
        return runnable_arr[vals <= limit].tolist()

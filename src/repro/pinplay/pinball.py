"""Pinball containers and serialization.

A real pinball holds memory/register snapshots, syscall injection files, and
shared-memory dependency files (``.text``/``.reg``/``.sel``/``.race``).  Our
execution state is the per-thread block-execution counters (which determine
every address stream and branch outcome) plus the event logs, so a pinball
here is exactly: logs + initial counters + the recorded global sync order
(embedded in the logs as ``gseq`` numbers).  Like real pinballs, they are
self-contained — replay does not need the :class:`ThreadProgram`, only the
static :class:`~repro.isa.image.Program` for block metadata (the "binary
image" a real pinball also embeds as its ``.text`` file).
"""

from __future__ import annotations

import gzip
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple, Union

from ..errors import ReplayError
from ..exec_engine.schedcore import OP_GSEQ, log_tape
from ..isa.image import Program

#: Log entry forms:
#:   ``("b", bid, repeat)``                     block execution
#:   ``("s", kind, obj_id, response, gseq)``    synchronization action
LogEntry = Tuple
ThreadLog = List[LogEntry]

_MAGIC = "repro-pinball-v1"


def _gseq_op(entry: LogEntry) -> tuple:
    """The ``OP_GSEQ`` op of one recorded sync entry."""
    _s, kind, obj_id, _response, gseq = entry
    return (OP_GSEQ, gseq, (kind, obj_id))


@dataclass
class Pinball:
    """A whole-program execution recording."""

    program_name: str
    nthreads: int
    wait_policy: str
    seed: int
    logs: List[ThreadLog]
    total_instructions: int
    filtered_instructions: int
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.logs) != self.nthreads:
            raise ReplayError(
                f"pinball has {len(self.logs)} logs for {self.nthreads} threads"
            )

    @property
    def num_entries(self) -> int:
        return sum(len(log) for log in self.logs)

    def tapes(self, program: Program) -> List[List[tuple]]:
        """Per-thread tapes the timing simulator replays the logs from.

        Block entries become rows of one-pass ``OP_RUN`` ops, one row per
        entry; each sync entry becomes an ``OP_GSEQ`` op carrying its
        ``gseq`` and its ``(kind, obj_id)`` object key, which the
        simulator runs in recorded order.
        """
        return [
            log_tape(log, program.blocks, _gseq_op) for log in self.logs
        ]

    def save(self, path: Union[str, Path]) -> None:
        """Write the pinball to ``path`` (gzip-compressed pickle)."""
        payload = (_MAGIC, self)
        with gzip.open(Path(path), "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Pinball":
        """Load a pinball written by :meth:`save`.

        Uses pickle: only load pinballs you produced yourself.
        """
        with gzip.open(Path(path), "rb") as fh:
            payload = pickle.load(fh)
        if not (isinstance(payload, tuple) and payload[0] == _MAGIC):
            raise ReplayError(f"{path} is not a repro pinball")
        pinball = payload[1]
        if not isinstance(pinball, cls):
            raise ReplayError(f"{path} does not contain a {cls.__name__}")
        return pinball


@dataclass
class RegionPinball(Pinball):
    """A region checkpoint cut out of a whole-program pinball.

    ``start_exec_counts`` snapshots each thread's per-block execution
    counters at the start of the *warmup* prefix — the register/memory-state
    analog that makes address streams and branch outcomes resume exactly
    where the full run left them.  ``detail_positions`` marks, per thread,
    the log index where warmup ends and the region of interest begins.
    """

    start_exec_counts: List[List[int]] = field(default_factory=list)
    detail_positions: List[int] = field(default_factory=list)
    region_id: int = -1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.start_exec_counts and len(self.start_exec_counts) != self.nthreads:
            raise ReplayError("start_exec_counts/thread-count mismatch")
        if self.detail_positions and len(self.detail_positions) != self.nthreads:
            raise ReplayError("detail_positions/thread-count mismatch")


def append_block(
    log: ThreadLog, bid: int, repeat: int, mergeable: bool = True
) -> None:
    """Append a block entry, merging with a same-block tail entry.

    Spin loops and barrier paths produce long runs of identical entries; the
    merge keeps recorded pinballs compact without losing information (block
    executions between two sync actions are order-free within a thread).
    Marker-eligible blocks (main-image loop headers) are recorded unmerged so
    that region cut points always fall on entry boundaries.
    """
    if mergeable and log:
        tail = log[-1]
        if tail[0] == "b" and tail[1] == bid:
            log[-1] = ("b", bid, tail[2] + repeat)
            return
    log.append(("b", bid, repeat))

"""Thread programs: the construct list every thread executes.

:class:`ThreadProgram` is the dynamic half of a workload — the static half is
the :class:`~repro.isa.image.Program`.  Assigning construct uids here (by
position) makes sync-object ids stable across runs and across processes,
which the pinball recorder/replayer relies on.  Drivers do not walk the
constructs themselves: :func:`~repro.exec_engine.schedcore.compile_streams`
compiles a thread program into the per-thread tapes they run.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import ProgramStructureError
from .constructs import Construct


class ThreadProgram:
    """An ordered list of constructs executed by all threads."""

    def __init__(self, constructs: Sequence[Construct]) -> None:
        if not constructs:
            raise ProgramStructureError("thread program has no constructs")
        self.constructs: List[Construct] = list(constructs)
        for uid, construct in enumerate(self.constructs):
            construct.uid = uid

    def total_instructions(self, nthreads: int) -> int:
        """Approximate application (main-image) instructions, all threads."""
        return sum(c.total_instructions(nthreads) for c in self.constructs)

    def __len__(self) -> int:
        return len(self.constructs)

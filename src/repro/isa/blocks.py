"""Basic blocks: single-entry/single-exit instruction sequences.

A block's terminating control transfer is summarized by :class:`BranchSpec`.
Loop back-edges are the interesting case — their dynamic outcome stream
(taken ``trip-1`` times, then not-taken) is synthesized by the runtime layer
from loop trip counts, so the branch predictor model sees a faithful stream
without per-iteration bookkeeping here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, TYPE_CHECKING

from ..errors import ProgramStructureError
from .instructions import AddressGen, Instruction, InstrKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .image import Image, Routine


#: Branch terminator kinds.
BRANCH_NONE = "none"        # falls through (or block has no branch)
BRANCH_LOOP = "loop"        # conditional back-edge of a loop
BRANCH_COND = "cond"        # data-dependent conditional branch
BRANCH_CALL = "call"        # calls another routine
BRANCH_RET = "ret"          # returns to caller


@dataclass(frozen=True)
class BranchSpec:
    """Terminating control transfer of a basic block."""

    kind: str = BRANCH_NONE
    #: For ``cond`` branches: probability the branch is taken.
    taken_prob: float = 0.5
    #: For ``call`` branches: name of the callee routine.
    callee: Optional[str] = None

    def __post_init__(self) -> None:
        valid = (BRANCH_NONE, BRANCH_LOOP, BRANCH_COND, BRANCH_CALL, BRANCH_RET)
        if self.kind not in valid:
            raise ProgramStructureError(f"invalid branch kind {self.kind!r}")
        if not 0.0 <= self.taken_prob <= 1.0:
            raise ProgramStructureError(
                f"taken_prob must be in [0,1], got {self.taken_prob}"
            )


class BasicBlock:
    """A static basic block.

    Blocks are created through :class:`~repro.isa.builder.ProgramBuilder`,
    which assigns ids and PCs during layout.  After layout a block knows its
    image, routine, id, and start PC.
    """

    __slots__ = (
        "name", "instructions", "branch", "is_loop_header",
        "bid", "pc", "image", "routine",
        "n_instr", "n_fp", "n_branches", "n_atomics", "mem_ops", "cond_prob",
    )

    def __init__(
        self,
        name: str,
        instructions: List[Instruction],
        branch: BranchSpec = BranchSpec(),
        is_loop_header: bool = False,
    ) -> None:
        if not instructions:
            raise ProgramStructureError(f"block {name!r} has no instructions")
        self.name = name
        self.instructions = list(instructions)
        self.branch = branch
        self.is_loop_header = is_loop_header
        # Filled in by layout:
        self.bid: int = -1
        self.pc: int = 0
        self.image: Optional["Image"] = None
        self.routine: Optional["Routine"] = None
        self._summarize()

    def _summarize(self) -> None:
        self.n_instr = len(self.instructions)
        self.n_fp = sum(1 for i in self.instructions if i.kind is InstrKind.FP)
        self.n_branches = sum(
            1 for i in self.instructions if i.kind is InstrKind.BRANCH
        )
        self.n_atomics = sum(
            1 for i in self.instructions if i.kind is InstrKind.ATOMIC
        )
        #: ``(slot, AddressGen, is_write, dependent)`` per memory instruction.
        self.mem_ops: List[Tuple[int, AddressGen, bool, bool]] = []
        for slot, instr in enumerate(self.instructions):
            if instr.mem is not None:
                is_write = instr.kind in (InstrKind.STORE, InstrKind.ATOMIC)
                dependent = bool(getattr(instr.mem, "dependent", False))
                self.mem_ops.append((slot, instr.mem, is_write, dependent))
        self.cond_prob = (
            self.branch.taken_prob if self.branch.kind == BRANCH_COND else None
        )

    # -- dynamic helpers -------------------------------------------------

    @property
    def is_library(self) -> bool:
        """True if this block lives in a (synchronization) library image."""
        if self.image is None:
            raise ProgramStructureError(f"block {self.name!r} not laid out yet")
        return self.image.is_library

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.image.name if self.image is not None else "?"
        return (
            f"BasicBlock({self.name!r}, bid={self.bid}, pc={self.pc:#x}, "
            f"image={where}, n={self.n_instr})"
        )

"""Images, routines, and the whole static program.

An :class:`Image` mirrors a loaded binary image: the main executable or a
shared library.  LoopPoint's spin-filtering heuristic is *image-based* — any
code in a synchronization library (``libiomp5.so`` in the paper) is executed
but never counted, and loop entries in library images are never used as
region boundaries.  We preserve that structure exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ProgramStructureError
from .blocks import BasicBlock

#: Load addresses, mimicking a Linux x86-64 layout.
MAIN_IMAGE_BASE = 0x0040_0000
LIBRARY_IMAGE_BASE = 0x7F00_0000_0000
IMAGE_SPACING = 0x0100_0000
INSTRUCTION_BYTES = 4


@dataclass
class Routine:
    """A named routine: an entry block plus the blocks it owns."""

    name: str
    image_name: str
    blocks: List[BasicBlock] = field(default_factory=list)

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ProgramStructureError(f"routine {self.name!r} has no blocks")
        return self.blocks[0]


class Image:
    """One loaded binary image (main executable or shared library)."""

    def __init__(self, name: str, base: int, is_library: bool) -> None:
        self.name = name
        self.base = base
        self.is_library = is_library
        self.routines: Dict[str, Routine] = {}
        self._next_pc = base

    def add_routine(self, routine: Routine) -> None:
        if routine.name in self.routines:
            raise ProgramStructureError(
                f"duplicate routine {routine.name!r} in image {self.name!r}"
            )
        self.routines[routine.name] = routine

    def layout(self, next_bid: int, block_index: List[BasicBlock]) -> int:
        """Assign PCs and block ids to every block in this image."""
        for routine in self.routines.values():
            for block in routine.blocks:
                block.image = self
                block.routine = routine
                block.pc = self._next_pc
                self._next_pc += block.n_instr * INSTRUCTION_BYTES
                block.bid = next_bid
                block_index.append(block)
                next_bid += 1
        return next_bid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "lib" if self.is_library else "main"
        return f"Image({self.name!r}, {kind}, base={self.base:#x})"


class Program:
    """The complete static program: main image plus libraries.

    After :meth:`finalize`, ``blocks[bid]`` resolves any block id and
    ``block_at(pc)`` any PC, and the program is immutable.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.images: Dict[str, Image] = {}
        self.blocks: List[BasicBlock] = []
        self._pc_index: Dict[int, BasicBlock] = {}
        self._finalized = False

    def add_image(self, image: Image) -> None:
        if self._finalized:
            raise ProgramStructureError("program already finalized")
        if image.name in self.images:
            raise ProgramStructureError(f"duplicate image {image.name!r}")
        self.images[image.name] = image

    def finalize(self) -> None:
        """Lay out all images: assign PCs and dense block ids."""
        if self._finalized:
            raise ProgramStructureError("program already finalized")
        next_bid = 0
        for image in self.images.values():
            next_bid = image.layout(next_bid, self.blocks)
        for block in self.blocks:
            self._pc_index[block.pc] = block
        self._finalized = True

    # -- lookups ----------------------------------------------------------

    def block_at(self, pc: int) -> BasicBlock:
        try:
            return self._pc_index[pc]
        except KeyError:
            raise ProgramStructureError(f"no block at pc {pc:#x}") from None

    def routine(self, name: str, image: Optional[str] = None) -> Routine:
        candidates = (
            [self.images[image]] if image is not None else self.images.values()
        )
        for img in candidates:
            if name in img.routines:
                return img.routines[name]
        raise ProgramStructureError(f"no routine named {name!r}")

    def loop_headers(self, main_only: bool = False) -> List[BasicBlock]:
        """All static loop-header blocks, optionally main-image only."""
        return [
            b for b in self.blocks
            if b.is_loop_header and not (main_only and b.is_library)
        ]

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Program({self.name!r}, images={list(self.images)}, "
            f"blocks={len(self.blocks)})"
        )

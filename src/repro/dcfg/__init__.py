"""Dynamic Control-Flow Graph analysis (the SDE DCFG library's role).

Built from a replayed execution: nodes are basic blocks, each edge carries a
trip count (Sec. III-D).  Immediate dominators over the dynamic graph yield
natural loops; loop headers in the *main image* become the marker-eligible
"software phase markers" LoopPoint slices at.
"""

from .graph import DCFG, DCFGBuilder, build_dcfg_from_pinball
from .dominators import immediate_dominators
from .loops import Loop, find_natural_loops, loop_header_blocks

__all__ = [
    "DCFG",
    "DCFGBuilder",
    "build_dcfg_from_pinball",
    "immediate_dominators",
    "Loop",
    "find_natural_loops",
    "loop_header_blocks",
]

"""Marker-dominance certification over the DCFG (rule MARK006).

A selected region is delimited by its start and end ``(PC, count)``
markers.  The pass certifies, on the dynamic graph of the analysis
replay (merged and per thread), that the start marker's block dominates
the end marker's block, or that the two share an enclosing cycle.  The
graph analyses are the DCFG's own: immediate dominators and natural
loops from :mod:`repro.dcfg`, plus :func:`path_avoiding`, a breadth-first
search that builds witnesses.  A refuted claim carries its witness: the
concrete counterexample path.

The graph's own bookkeeping (flow conservation, reachability from the
virtual entry, single-entry cycles, the dominator tree) is not linted
here: ``tests/test_pipeline_invariants.py`` checks it on genuine
pipeline graphs.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..dcfg.dominators import dominates, immediate_dominators
from ..dcfg.graph import DCFG, ENTRY
from ..dcfg.loops import find_natural_loops
from .findings import Finding, make_finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..clustering.simpoint import SimPointSelection
    from ..isa.image import Program
    from ..profiling.profile_result import ProfileData


def _node_name(dcfg: DCFG, node: int) -> str:
    if node == ENTRY:
        return "ENTRY"
    try:
        return dcfg.block(node).name
    except (IndexError, AttributeError):
        return f"node {node}"


def path_avoiding(
    dcfg: DCFG,
    src: int,
    dst: int,
    avoid: Iterable[int],
) -> Optional[Tuple[int, ...]]:
    """A shortest ``src → dst`` path that avoids ``avoid``, or ``None``.

    This is the counterexample generator for dominance claims: "``a``
    dominates ``b``" is refuted exactly by a path from the entry to ``b``
    that never passes ``a``.  ``src`` and ``dst`` themselves are exempt
    from the avoid set.
    """
    banned = set(avoid) - {src, dst}
    if src == dst:
        return (src,)
    succ = dcfg.successors()
    parent: Dict[int, int] = {}
    seen = {src}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for child in succ.get(node, ()):
            if child in banned or child in seen:
                continue
            parent[child] = node
            if child == dst:
                chain = [dst]
                while chain[-1] != src:
                    chain.append(parent[chain[-1]])
                return tuple(reversed(chain))
            seen.add(child)
            queue.append(child)
    return None


def _certify_region_on_graph(
    graph: DCFG,
    start_bid: int,
    end_bid: int,
    region_id: int,
    scope: str,
) -> Optional[Finding]:
    """Certify one region's marker pair on one graph, or explain why not.

    The certification ladder, strongest first:

    1. **Static dominance** — every path from the graph's entry to the
       end-marker block passes through the start-marker block; the region
       cannot be entered at its end without crossing its start.
    2. **Dynamic (wrap) certification** — the start marker does not
       dominate the end, but the two lie on a common cycle (the region
       spans an outer-iteration boundary, e.g. starts in one phase of a
       repeating outer loop and ends in the next sweep).  Here the
       ``(PC, count)`` pair ordering is what delimits the region, and
       marker counts strictly increase along the run (a property
       ``tests/test_pipeline_invariants.py`` checks) — no finding.
    3. **Refuted** — the end marker is unreachable from the start marker
       (the region cannot be traversed at all; a backwards path, when one
       exists, is the witness), or a bypass path reaches the end around a
       start that no enclosing cycle could legitimize (witness: the
       concrete counterexample path).

    Blocks the graph never executed are skipped — a thread that never
    touched either marker says nothing about the claim.
    """
    nodes = graph.nodes
    if start_bid not in nodes or end_bid not in nodes:
        return None
    if start_bid == end_bid:
        return None  # a node trivially dominates itself
    backward = path_avoiding(graph, end_bid, start_bid, ())
    if end_bid not in graph.reachable_from(start_bid):
        witness = tuple(
            _node_name(graph, n) for n in (backward or ())
        )
        return make_finding(
            "MARK006",
            f"region {region_id} ({scope})",
            f"end marker {_node_name(graph, end_bid)} is unreachable from "
            f"start marker {_node_name(graph, start_bid)}: the region "
            f"cannot be traversed"
            + (
                f"; the boundaries are ordered backwards — the end "
                f"reaches the start via {' -> '.join(witness)}"
                if witness else ""
            ),
            witness=witness or None,
        )
    idom = immediate_dominators(graph, ENTRY)
    if end_bid not in idom:
        return None  # end never reached from entry on this graph
    if dominates(idom, start_bid, end_bid):
        return None  # statically certified
    if backward is not None:
        # Start and end share a cycle: the region legitimately wraps an
        # enclosing iteration, and the (PC, count) ordering certifies it
        # dynamically.
        return None
    counterexample = path_avoiding(graph, ENTRY, end_bid, {start_bid})
    witness = tuple(
        _node_name(graph, n) for n in (counterexample or ())
    )
    # A block's loop depth is the number of natural-loop bodies holding
    # it; where every cycle has a single entry (as on pipeline graphs)
    # that is its depth in the loop-nesting forest.
    bodies = [loop.body for loop in find_natural_loops(graph)]
    depth_s = sum(start_bid in body for body in bodies)
    depth_e = sum(end_bid in body for body in bodies)
    return make_finding(
        "MARK006",
        f"region {region_id} ({scope})",
        f"start marker {_node_name(graph, start_bid)} (loop depth "
        f"{depth_s}) does not dominate end marker "
        f"{_node_name(graph, end_bid)} (loop depth {depth_e}), and no "
        f"enclosing cycle legitimizes the bypass: a path reaches the end "
        f"boundary without ever crossing the start boundary"
        + (
            f"; counterexample: {' -> '.join(witness)}"
            if witness else ""
        ),
        witness=witness or None,
    )


def check_marker_dominance(
    program: "Program",
    profile: "ProfileData",
    selection: "SimPointSelection",
    dcfg: DCFG,
    thread_graphs: Optional[Sequence[DCFG]] = None,
) -> List[Finding]:
    """Rule MARK006: certify each selected region's boundary pair.

    For every cluster representative, the region's start marker block
    must dominate its end marker block — on the merged graph and, when
    per-thread graphs are available, on each thread's own subgraph
    (Sec. III-C: a boundary pair delimits the region on every thread).
    Program-start/-end boundaries (``None`` markers) are trivially valid.

    Regions whose start and end markers sit at the *same* loop-header PC
    (the common case: consecutive iterations of one worker loop) are
    certified by identity.  When the run's phase structure makes the end
    header reachable around the start header inside an *enclosing* cycle
    — start and end markers in sibling loops of a repeating outer phase —
    the dominance claim genuinely fails and the counterexample path shows
    the bypass.
    """
    findings: List[Finding] = []
    for cluster in selection.clusters:
        rep = cluster.representative
        s = profile.slices[rep]
        if s.start is None or s.end is None:
            continue
        start_bid = program.block_at(s.start.pc).bid
        end_bid = program.block_at(s.end.pc).bid
        finding = _certify_region_on_graph(
            dcfg, start_bid, end_bid, rep, "merged graph"
        )
        if finding is not None:
            findings.append(finding)
            continue  # per-thread refinements would repeat the diagnosis
        for tid, graph in enumerate(thread_graphs or ()):
            finding = _certify_region_on_graph(
                graph, start_bid, end_bid, rep, f"thread {tid}"
            )
            if finding is not None:
                findings.append(finding)
    return findings

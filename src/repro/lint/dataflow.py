"""A generic dataflow framework over the DCFG, for MARK006.

One **worklist solver** over pluggable lattices: an analysis is three
declarative pieces — a lattice, a transfer function, and an entry value —
and every analysis gets convergence accounting for free.

The solver computes, for every node reachable from the entry, the fixpoint
of::

    out(n) = transfer(n, join over predecessors p of out(p))

where ``join`` and the starting value come from the lattice.  The only
contract is the textbook one: ``bottom()`` must be the identity of
``join`` and the transfer must be monotone, which makes the ascending (or,
for meet-flavoured lattices like dominance, descending) iteration reach a
unique fixpoint.

What the marker-dominance certification (:mod:`repro.lint.dcfg_passes`)
uses:

* :func:`reachable_nodes` — reachability from the entry;
* :func:`dominance_sets` / :func:`dominates` — full dominance as a
  meet-over-paths dataflow;
* :func:`path_avoiding` — a counterexample path that avoids a pinned node
  set, used to *refute* dominance claims (MARK006 witnesses);
* :func:`loop_nesting_forest` / :func:`nesting_depth` — the loop-nesting
  tree over the natural loops, giving every header a parent header and a
  nesting depth.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Generic,
    Iterable,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from ..dcfg.graph import DCFG, ENTRY
from ..dcfg.loops import find_natural_loops

V = TypeVar("V")


class Lattice(Generic[V]):
    """A bounded join-semilattice.

    ``bottom()`` must be the identity of ``join`` — the solver initializes
    every node to it, so an unvisited predecessor contributes nothing to a
    join.  Meet-flavoured analyses (dominance) fit by flipping the order:
    their "everything" value is the join identity of intersection.
    """

    def bottom(self) -> V:
        raise NotImplementedError

    def join(self, a: V, b: V) -> V:
        raise NotImplementedError

    def eq(self, a: V, b: V) -> bool:
        return a == b


class UnionLattice(Lattice[FrozenSet[int]]):
    """Powerset with union; bottom is the empty set."""

    def bottom(self) -> FrozenSet[int]:
        return frozenset()

    def join(self, a: FrozenSet[int], b: FrozenSet[int]) -> FrozenSet[int]:
        return a | b


class IntersectionLattice(Lattice[FrozenSet[int]]):
    """Powerset over a finite universe with intersection.

    The join identity is the full universe, so this models must-analyses
    (dominance: "on *every* path") in the same solver as may-analyses.
    """

    def __init__(self, universe: Iterable[int]) -> None:
        self.universe = frozenset(universe)

    def bottom(self) -> FrozenSet[int]:
        return self.universe

    def join(self, a: FrozenSet[int], b: FrozenSet[int]) -> FrozenSet[int]:
        return a & b


@dataclass(frozen=True)
class DataflowProblem(Generic[V]):
    """One forward dataflow analysis: lattice + transfer + entry value."""

    lattice: Lattice[V]
    #: ``transfer(node, joined_in_value) -> out_value``; must be monotone.
    transfer: Callable[[int, V], V]
    #: The out-value pinned at the entry node (never recomputed).
    entry_value: V


@dataclass
class DataflowSolution(Generic[V]):
    """Fixpoint values plus convergence accounting."""

    values: Dict[int, V]
    #: Total node evaluations until the fixpoint (worklist pops).
    visits: int
    #: Sweep count in round-robin terms: ``visits / max(1, len(values))``.
    @property
    def sweeps(self) -> float:
        return self.visits / max(1, len(self.values))


def _postorder(succ: Dict[int, List[int]], entry: int) -> List[int]:
    """Iterative DFS postorder from ``entry`` (graphs can chain deep)."""
    order: List[int] = []
    seen = {entry}
    stack: List[Tuple[int, Iterable[int]]] = [(entry, iter(succ.get(entry, ())))]
    while stack:
        node, it = stack[-1]
        advanced = False
        for child in it:
            if child not in seen:
                seen.add(child)
                stack.append((child, iter(succ.get(child, ()))))
                advanced = True
                break
        if not advanced:
            stack.pop()
            order.append(node)
    return order


def solve(
    dcfg: DCFG, problem: DataflowProblem[V], entry: int = ENTRY
) -> DataflowSolution[V]:
    """Run the worklist to fixpoint over the subgraph reachable from entry.

    Nodes are seeded in reverse postorder — for reducible graphs forward
    analyses then converge in very few sweeps — and re-queued only when a
    predecessor's out-value actually changed.
    """
    succ = dcfg.successors()
    preds = dcfg.predecessors()
    rpo = list(reversed(_postorder(succ, entry)))
    reachable = set(rpo)
    lattice = problem.lattice

    out: Dict[int, V] = {node: lattice.bottom() for node in rpo}
    out[entry] = problem.entry_value
    position = {node: i for i, node in enumerate(rpo)}
    queued = set(n for n in rpo if n != entry)
    work = deque(n for n in rpo if n != entry)
    visits = 0
    while work:
        node = work.popleft()
        queued.discard(node)
        visits += 1
        in_value = lattice.bottom()
        for p in preds.get(node, ()):
            if p in reachable:
                in_value = lattice.join(in_value, out[p])
        new = problem.transfer(node, in_value)
        if lattice.eq(new, out[node]):
            continue
        out[node] = new
        for child in succ.get(node, ()):
            if child in reachable and child != entry and child not in queued:
                queued.add(child)
                work.append(child)
    # Deterministic ordering of the result by RPO position keeps reports
    # stable across runs.
    values = {node: out[node] for node in sorted(out, key=position.__getitem__)}
    return DataflowSolution(values=values, visits=visits)


# -- reachability and counterexample paths --------------------------------


def reachable_nodes(dcfg: DCFG, entry: int = ENTRY) -> FrozenSet[int]:
    """Nodes reachable from ``entry`` (entry included), via the solver."""
    problem: DataflowProblem[FrozenSet[int]] = DataflowProblem(
        lattice=UnionLattice(),
        transfer=lambda node, in_value: frozenset({node}),
        entry_value=frozenset({entry}),
    )
    return frozenset(solve(dcfg, problem, entry).values)


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


# -- dominance as a dataflow problem --------------------------------------


def dominance_sets(
    dcfg: DCFG, entry: int = ENTRY
) -> Dict[int, FrozenSet[int]]:
    """Full dominance: ``dom(n)`` = nodes on *every* entry-to-n path.

    The classic meet-over-paths formulation, run through the generic
    solver with the intersection lattice: ``dom(n) = {n} ∪ ⋂ dom(p)``.
    Only nodes reachable from ``entry`` appear in the result.
    """
    universe = reachable_nodes(dcfg, entry)
    problem: DataflowProblem[FrozenSet[int]] = DataflowProblem(
        lattice=IntersectionLattice(universe),
        transfer=lambda node, in_value: in_value | {node},
        entry_value=frozenset({entry}),
    )
    return solve(dcfg, problem, entry).values


def dominates(
    dom: Dict[int, FrozenSet[int]], a: int, b: int
) -> bool:
    """Does ``a`` dominate ``b`` under precomputed dominance sets?"""
    return a in dom.get(b, frozenset())


# -- the loop-nesting forest ----------------------------------------------


@dataclass(frozen=True)
class LoopNest:
    """One natural loop placed in the nesting forest."""

    header: int
    #: Header of the innermost enclosing loop, or ``None`` for a top-level
    #: loop.
    parent: Optional[int]
    #: 1 for a top-level loop, parent depth + 1 below it.
    depth: int
    body: FrozenSet[int]
    trip_count: int


def loop_nesting_forest(dcfg: DCFG) -> Dict[int, LoopNest]:
    """The loop-nesting tree over the DCFG's natural loops, by header.

    Loop ``A`` encloses loop ``B`` when ``B``'s header lies in ``A``'s
    body (and they differ); the parent is the *smallest* such enclosing
    loop.  Dynamic merged graphs can in principle produce partially
    overlapping bodies — the innermost-by-size rule still yields a
    deterministic forest there.  (Genuine pipeline graphs have
    single-entry cycles; ``tests/test_pipeline_invariants.py`` checks
    that.)
    """
    loops = {loop.header: loop for loop in find_natural_loops(dcfg)}
    # Total order by (body size, header): a parent must come strictly
    # later, which makes the parent relation acyclic even on pathological
    # merged graphs where two loops mutually contain each other's header.
    rank = {
        header: (len(loop.body), header)
        for header, loop in loops.items()
    }
    forest: Dict[int, LoopNest] = {}
    # Outermost (largest) loops are placed first, so when a loop looks for
    # its innermost enclosing candidate, that candidate — which always
    # ranks above it — is already in the forest.
    for header in sorted(loops, key=rank.__getitem__, reverse=True):
        loop = loops[header]
        enclosing = [
            cand for cand in loops.values()
            if cand.header != header
            and header in cand.body
            and rank[cand.header] > rank[header]
        ]
        parent: Optional[int] = None
        depth = 1
        if enclosing:
            innermost = min(enclosing, key=lambda c: rank[c.header])
            parent_nest = forest[innermost.header]
            parent = parent_nest.header
            depth = parent_nest.depth + 1
        forest[header] = LoopNest(
            header=header,
            parent=parent,
            depth=depth,
            body=frozenset(loop.body),
            trip_count=loop.trip_count,
        )
    return forest


def nesting_depth(forest: Dict[int, LoopNest], node: int) -> int:
    """Depth of the innermost loop whose body contains ``node`` (0 = none)."""
    best = 0
    for nest in forest.values():
        if node in nest.body and nest.depth > best:
            best = nest.depth
    return best

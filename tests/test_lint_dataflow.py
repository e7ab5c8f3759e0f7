"""The generic dataflow framework and the marker-dominance certification
ladder built on it."""

from repro.dcfg import DCFG
from repro.dcfg.graph import ENTRY
from repro.isa import ProgramBuilder
from repro.lint.dataflow import (
    DataflowProblem,
    UnionLattice,
    dominance_sets,
    dominates,
    loop_nesting_forest,
    nesting_depth,
    path_avoiding,
    reachable_nodes,
    solve,
)
from repro.lint.dcfg_passes import _certify_region_on_graph


def _graph(edges, nblocks=10):
    pb = ProgramBuilder("g")
    rt = pb.routine("r")
    for i in range(nblocks):
        rt.block(f"b{i}", ialu=1)
    program = pb.finalize()
    g = DCFG(program)
    for src, dst in edges:
        g.add_edge(src, dst)
    return g


DIAMOND = [(ENTRY, 0), (0, 1), (0, 2), (1, 3), (2, 3)]


class TestSolver:
    def test_reachability_matches_dfs(self):
        g = _graph(DIAMOND + [(5, 6)])  # 5,6 form an unreachable island
        assert reachable_nodes(g) == frozenset({ENTRY, 0, 1, 2, 3})
        assert g.reachable_from() == set(reachable_nodes(g))

    def test_convergence_accounting(self):
        g = _graph(DIAMOND)
        problem = DataflowProblem(
            lattice=UnionLattice(),
            transfer=lambda node, in_value: in_value | {node},
            entry_value=frozenset({ENTRY}),
        )
        solution = solve(g, problem)
        # Reducible graph + RPO seeding: one sweep reaches the fixpoint.
        assert solution.visits == 4
        assert solution.sweeps <= 1.0
        assert solution.values[3] == frozenset({ENTRY, 0, 1, 2, 3})

    def test_loop_requires_second_visit(self):
        g = _graph([(ENTRY, 0), (0, 1), (1, 0)])
        problem = DataflowProblem(
            lattice=UnionLattice(),
            transfer=lambda node, in_value: in_value | {node},
            entry_value=frozenset({ENTRY}),
        )
        solution = solve(g, problem)
        assert solution.values[0] == frozenset({ENTRY, 0, 1})
        assert solution.visits > 2  # the back edge forces re-evaluation


class TestWitnesses:
    def test_path_avoiding_dominator_is_impossible(self):
        g = _graph(DIAMOND)
        # 0 dominates 3, so no ENTRY->3 path avoids it.
        assert path_avoiding(g, ENTRY, 3, {0}) is None

    def test_path_avoiding_finds_the_bypass(self):
        g = _graph(DIAMOND)
        # 1 does not dominate 3: the bypass goes through 2.
        assert path_avoiding(g, ENTRY, 3, {1}) == (ENTRY, 0, 2, 3)

    def test_endpoints_exempt_from_avoid_set(self):
        g = _graph(DIAMOND)
        assert path_avoiding(g, 0, 3, {0, 3}) is not None
        assert path_avoiding(g, 2, 2, {2}) == (2,)


class TestDominance:
    def test_dominance_sets(self):
        dom = dominance_sets(_graph(DIAMOND))
        assert dom[3] == frozenset({ENTRY, 0, 3})
        assert dominates(dom, 0, 3)
        assert not dominates(dom, 1, 3)


class TestLoopNestingForest:
    def test_nested_loops_get_parents_and_depths(self):
        # Outer loop headed at 0 (back edge 2->0), inner at 1 (2->1... use
        # a distinct inner body): ENTRY->0->1->2->1 (inner), 2->0 (outer).
        g = _graph([(ENTRY, 0), (0, 1), (1, 2), (2, 1), (2, 0), (0, 3)])
        forest = loop_nesting_forest(g)
        assert forest[0].parent is None and forest[0].depth == 1
        assert forest[1].parent == 0 and forest[1].depth == 2
        assert nesting_depth(forest, 2) == 2  # inside the inner loop
        assert nesting_depth(forest, 0) == 1
        assert nesting_depth(forest, 3) == 0  # outside every loop

    def test_disjoint_loops_are_siblings(self):
        g = _graph([(ENTRY, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
        forest = loop_nesting_forest(g)
        assert forest[1].depth == 1 and forest[2].depth == 1


class TestCertificationLadder:
    def test_dominating_pair_is_certified_statically(self):
        g = _graph(DIAMOND)
        assert _certify_region_on_graph(g, 0, 3, 0, "merged") is None

    def test_same_block_pair_is_trivially_certified(self):
        g = _graph(DIAMOND)
        assert _certify_region_on_graph(g, 3, 3, 0, "merged") is None

    def test_absent_block_says_nothing(self):
        g = _graph(DIAMOND)
        assert _certify_region_on_graph(g, 7, 3, 0, "merged") is None

    def test_wrap_around_region_is_certified_dynamically(self):
        # 3 -> 1 -> 2 inside the cycle 1->2->3->1: the start (3) does not
        # dominate the end (2), but they share the enclosing cycle — the
        # (PC, count) ordering delimits the region, so no finding.
        g = _graph([(ENTRY, 1), (1, 2), (2, 3), (3, 1)])
        assert _certify_region_on_graph(g, 3, 2, 0, "merged") is None

    def test_bypass_fires_with_counterexample_witness(self):
        # The end (2) is reachable from ENTRY without crossing the start
        # (1), and no cycle connects them back: a genuine bad boundary.
        g = _graph([(ENTRY, 1), (ENTRY, 2), (1, 2)])
        finding = _certify_region_on_graph(g, 1, 2, 4, "merged")
        assert finding is not None
        assert finding.rule_id == "MARK006"
        assert finding.witness is not None
        assert finding.witness[0] == "ENTRY"
        assert "b1" not in finding.witness  # the path truly avoids start
        assert "counterexample" in finding.message

    def test_untraversable_region_fires(self):
        # End before start with no way forward: boundaries are backwards.
        g = _graph([(ENTRY, 1), (1, 2)])
        finding = _certify_region_on_graph(g, 2, 1, 0, "merged")
        assert finding is not None
        assert finding.rule_id == "MARK006"
        assert "unreachable" in finding.message
        assert finding.witness is not None  # the backwards path

    def test_finding_reports_loop_depths(self):
        g = _graph([(ENTRY, 1), (ENTRY, 2), (1, 2)])
        finding = _certify_region_on_graph(g, 1, 2, 4, "merged")
        assert "loop depth" in finding.message

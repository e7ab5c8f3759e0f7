"""The marker-dominance certification ladder (MARK006), its witnesses, and
the DCFG analyses it runs on: reachability, dominators, natural loops."""

from hypothesis import given, settings, strategies as st

from repro.dcfg import DCFG, find_natural_loops
from repro.dcfg.dominators import dominates, immediate_dominators
from repro.dcfg.graph import ENTRY
from repro.isa import ProgramBuilder
from repro.lint.dcfg_passes import _certify_region_on_graph, path_avoiding


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
#: Outer loop headed at 0 (back edge 2->0), inner loop headed at 1 (back
#: edge 2->1), and 3 outside both.
NESTED = [(ENTRY, 0), (0, 1), (1, 2), (2, 1), (2, 0), (0, 3)]


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


class TestReachability:
    def test_reachability_matches_dfs(self):
        g = _graph(DIAMOND + [(5, 6)])  # 5,6 form an unreachable island
        assert g.reachable_from() == {ENTRY, 0, 1, 2, 3}
        assert g.reachable_from() == {
            n for n in {ENTRY, *g.nodes} if _reaches(g.successors(), ENTRY, n)
        }
        assert g.reachable_from(5) == {5, 6}


def _dominators(idom, node):
    """Every dominator of ``node``: its chain of immediate dominators."""
    return {a for a in idom if dominates(idom, a, node)}


class TestDominance:
    def test_dominance_sets(self):
        idom = immediate_dominators(_graph(DIAMOND))
        assert _dominators(idom, 3) == {ENTRY, 0, 3}
        assert dominates(idom, 0, 3)
        assert not dominates(idom, 1, 3)

    def test_unreachable_blocks_have_no_dominator(self):
        # MARK006 reads a block missing from the map as unreachable.
        idom = immediate_dominators(_graph(DIAMOND + [(5, 6)]))
        assert set(idom) == {ENTRY, 0, 1, 2, 3}


def _loop_depths(g):
    """Loop depth as MARK006 counts it: natural-loop bodies holding a block."""
    bodies = [loop.body for loop in find_natural_loops(g)]
    return {n: sum(n in body for body in bodies) for n in g.nodes}


class TestLoopNestingForest:
    def test_nested_loops_get_parents_and_depths(self):
        loops = {loop.header: loop.body for loop in find_natural_loops(
            _graph(NESTED)
        )}
        assert loops == {0: {0, 1, 2}, 1: {1, 2}}
        assert loops[1] < loops[0]  # the inner loop nests in the outer
        depth = _loop_depths(_graph(NESTED))
        assert depth[0] == 1
        assert depth[1] == depth[2] == 2  # inside the inner loop
        assert depth[3] == 0  # outside every loop

    def test_disjoint_loops_are_siblings(self):
        g = _graph([(ENTRY, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
        loops = {loop.header: loop.body for loop in find_natural_loops(g)}
        assert loops == {1: {1}, 2: {2}}
        depth = _loop_depths(g)
        assert depth[1] == depth[2] == 1 and depth[0] == 0


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

    def test_unreachable_end_says_nothing(self):
        # 5 reaches 6, but neither is reachable from ENTRY: no entry path
        # can bypass the start, so the graph says nothing about the claim.
        g = _graph(DIAMOND + [(5, 6)])
        assert _certify_region_on_graph(g, 5, 6, 0, "merged") is None

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
        # 2 sits in both loops, 3 in neither; ENTRY->0->3 bypasses 2.
        g = _graph(NESTED)
        finding = _certify_region_on_graph(g, 2, 3, 4, "merged")
        assert finding is not None
        assert "start marker r.b2 (loop depth 2)" in finding.message
        assert "end marker r.b3 (loop depth 0)" in finding.message


def _reaches(succ, src, dst, banned=()):
    """Plain DFS reachability, the property test's oracle."""
    seen = {src}
    stack = [src]
    while stack:
        node = stack.pop()
        if node == dst:
            return True
        for child in succ.get(node, ()):
            if child not in seen and child not in banned:
                seen.add(child)
                stack.append(child)
    return False


def _bid(name):
    return ENTRY if name == "ENTRY" else int(name[len("r.b"):])


@st.composite
def _digraphs(draw):
    nblocks = draw(st.integers(1, 8))
    node = st.integers(0, nblocks - 1)
    edges = draw(st.lists(
        st.tuples(st.one_of(st.just(ENTRY), node), node), max_size=20,
    ))
    return _graph(edges, nblocks=nblocks)


class TestCertificationProperty:
    @settings(max_examples=200, deadline=None)
    @given(_digraphs())
    def test_ladder_matches_reachability_oracle(self, g):
        succ = g.successors()
        for start in g.nodes:
            for end in g.nodes:
                finding = _certify_region_on_graph(g, start, end, 0, "merged")
                forward = _reaches(succ, start, end)
                certified = start == end or forward and (
                    not _reaches(succ, ENTRY, end, banned={start})
                    or _reaches(succ, end, start)
                )
                assert (finding is None) == certified, (start, end)
                if finding is None:
                    continue
                # A bypass always carries its counterexample; an
                # untraversable pair carries one when the end reaches
                # the start.
                assert (finding.witness is not None) == (
                    forward or _reaches(succ, end, start)
                )
                if finding.witness is None:
                    continue
                path = [_bid(name) for name in finding.witness]
                assert all(
                    (a, b) in g.edge_counts for a, b in zip(path, path[1:])
                )
                if forward:  # a bypass: ENTRY to the end around the start
                    assert path[0] == ENTRY and path[-1] == end
                    assert start not in path
                else:  # the boundaries are ordered backwards
                    assert path[0] == end and path[-1] == start

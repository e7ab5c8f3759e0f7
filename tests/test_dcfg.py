"""Tests for dynamic CFG construction, dominators, and loop detection."""

import pytest

from repro.dcfg import (
    DCFG,
    build_dcfg_from_pinball,
    find_natural_loops,
    immediate_dominators,
    loop_header_blocks,
)
from repro.dcfg.dominators import dominates
from repro.dcfg.graph import ENTRY
from repro.errors import ProgramStructureError
from repro.isa import ProgramBuilder
from repro.pinplay import record_execution
from repro.policy import WaitPolicy

from conftest import build_toy


def _graph(edges):
    """Build a DCFG from explicit (src, dst, count) edges; node ids are ints."""
    pb = ProgramBuilder("g")
    rt = pb.routine("r")
    for i in range(10):
        rt.block(f"b{i}", ialu=1)
    program = pb.finalize()
    g = DCFG(program)
    for src, dst, count in edges:
        g.add_edge(src, dst, count)
    return g


class TestDominators:
    def test_diamond(self):
        #   E -> 0 -> 1 -> 3
        #         \-> 2 -/
        g = _graph([(ENTRY, 0, 1), (0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
        idom = immediate_dominators(g)
        assert idom[3] == 0
        assert idom[1] == 0 and idom[2] == 0
        assert dominates(idom, 0, 3)
        assert not dominates(idom, 1, 3)

    def test_chain(self):
        g = _graph([(ENTRY, 0, 1), (0, 1, 1), (1, 2, 1)])
        idom = immediate_dominators(g)
        assert idom[2] == 1 and idom[1] == 0

    def test_self_dominance(self):
        g = _graph([(ENTRY, 0, 1), (0, 1, 1)])
        idom = immediate_dominators(g)
        assert dominates(idom, 1, 1)

    def test_unreachable_nodes_absent(self):
        g = _graph([(ENTRY, 0, 1), (5, 6, 1)])
        idom = immediate_dominators(g)
        assert 6 not in idom

    def test_irreducible_region(self):
        # E -> 0, 0 -> {1, 2}, 1 <-> 2: the cycle {1, 2} has two entries,
        # so neither member dominates the other; both idoms collapse to 0.
        g = _graph([(ENTRY, 0, 1), (0, 1, 1), (0, 2, 1),
                    (1, 2, 3), (2, 1, 3)])
        idom = immediate_dominators(g)
        assert idom[1] == 0 and idom[2] == 0
        assert not dominates(idom, 1, 2)
        assert not dominates(idom, 2, 1)

    def test_self_loop_edge_does_not_change_idom(self):
        g = _graph([(ENTRY, 0, 1), (0, 1, 1), (1, 1, 7), (1, 2, 1)])
        idom = immediate_dominators(g)
        assert idom[1] == 0 and idom[2] == 1


class TestNaturalLoops:
    def test_self_loop(self):
        g = _graph([(ENTRY, 0, 1), (0, 0, 9)])
        loops = find_natural_loops(g)
        assert len(loops) == 1
        assert loops[0].header == 0
        assert loops[0].trip_count == 9

    def test_two_block_loop(self):
        g = _graph([(ENTRY, 0, 1), (0, 1, 5), (1, 0, 4), (0, 2, 1)])
        loops = find_natural_loops(g)
        headers = {l.header for l in loops}
        assert headers == {0}
        loop = loops[0]
        assert loop.body == {0, 1}

    def test_nested_loops(self):
        # outer: 0 -> 1 -> 0 ; inner: 1 -> 1
        g = _graph([(ENTRY, 0, 1), (0, 1, 3), (1, 1, 10), (1, 0, 2)])
        headers = {l.header for l in find_natural_loops(g)}
        assert headers == {0, 1}

    def test_invalid_edge_count(self):
        g = _graph([])
        with pytest.raises(ProgramStructureError):
            g.add_edge(0, 1, 0)

    def test_irreducible_cycle_has_no_natural_loop(self):
        # The {1, 2} cycle is entered at both 1 and 2; neither back edge
        # targets a dominating header, so no natural loop may be reported.
        g = _graph([(ENTRY, 0, 1), (0, 1, 1), (0, 2, 1),
                    (1, 2, 3), (2, 1, 3)])
        assert find_natural_loops(g) == []

    def test_self_loop_inside_irreducible_cycle(self):
        # A self edge is always a back edge (every node dominates itself),
        # so 1's self-loop is found even though the outer cycle is not.
        g = _graph([(ENTRY, 0, 1), (0, 1, 1), (0, 2, 1),
                    (1, 2, 3), (2, 1, 3), (1, 1, 8)])
        loops = find_natural_loops(g)
        assert [(l.header, l.trip_count) for l in loops] == [(1, 8)]
        assert loops[0].body == {1}


class TestDCFGFromExecution:
    @pytest.fixture(scope="class")
    def toy_dcfg(self):
        program, tp, omp = build_toy()
        pinball, _ = record_execution(program, tp, omp, 4,
                                      wait_policy=WaitPolicy.ACTIVE)
        return program, build_dcfg_from_pinball(program, pinball)

    def test_detected_headers_match_ground_truth(self, toy_dcfg):
        """The DCFG pass rediscovers the builder's loop headers (main image)."""
        program, dcfg = toy_dcfg
        detected = {b.bid for b in loop_header_blocks(dcfg, program, True)}
        truth = {
            b.bid for b in program.loop_headers(main_only=True)
            # Only loops that actually iterate appear dynamically.
            if dcfg.node_counts.get(b.bid, 0) > 1
        }
        assert truth <= detected

    def test_library_spin_loop_found_but_excluded(self, toy_dcfg):
        program, dcfg = toy_dcfg
        all_headers = {b.bid for b in loop_header_blocks(dcfg, program, False)}
        main_headers = {b.bid for b in loop_header_blocks(dcfg, program, True)}
        lib_headers = all_headers - main_headers
        assert lib_headers, "active-wait run must show a spinning lib loop"
        for bid in lib_headers:
            assert program.blocks[bid].image.is_library

    def test_node_counts_positive(self, toy_dcfg):
        _program, dcfg = toy_dcfg
        assert all(c > 0 for c in dcfg.node_counts.values())

    def test_edge_trip_counts(self, toy_dcfg):
        _program, dcfg = toy_dcfg
        # Batched self-loops produce self edges with large counts.
        self_edges = [c for (s, d), c in dcfg.edge_counts.items() if s == d]
        assert self_edges and max(self_edges) > 10

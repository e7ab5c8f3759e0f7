"""Marker fast-forward: bit-identity against full re-execution.

``fast_forward_to`` is the repo's analogue of gem5's checkpoint restore:
it advances replay state to the exact cut before the ``count``-th global
execution of a marker PC without delivering events.  The contract is
*bit-identity* — a fast-forwarded replay must land in exactly the state a
full replay reaches at the same cut, and a subsequent ``run(until=end)``
must hand observers exactly the region's events.  These tests enforce the
contract on every demo and NPB workload, on a wrap-around marker pair
(certified by MARK006's dynamic rung — the oracle for legitimacy), check
that the replayer's stop modes agree with each other along a chain of
cuts, and pin the error surface: unreachable markers, batched-entry
interior cuts, untracked PCs and already-passed markers.
"""

import numpy as np
import pytest

from repro.dcfg.dominators import dominates, immediate_dominators
from repro.dcfg.graph import ENTRY, build_dcfg_from_pinball
from repro.errors import ReplayError
from repro.exec_engine.observers import Observer
from repro.lint.dcfg_passes import _certify_region_on_graph
from repro.pinplay.recorder import record_execution
from repro.pinplay.replayer import ConstrainedReplayer
from repro.policy import WaitPolicy
from repro.profiling import profile_pinball
from repro.profiling.markers import Marker
from repro.workloads import NPB_APPS, get_workload

from conftest import TEST_SCALE, build_toy
from reference_observers import InstructionCounter, TraceCollector

ALL_WORKLOADS = ["demo-matrix-1", "demo-matrix-2", "demo-matrix-3"] + NPB_APPS


class Gate(Observer):
    """Forward events to inner observers only between two marker cuts.

    Runs on a capacity-1 ring, so it sees every event on its own, in
    execution order, and reproduces the marker semantics exactly:
    triggers *just before* the ``count``-th global execution of the
    marker block, counting repeats.
    """

    def __init__(self, inner, start_bid, start_count, end_bid, end_count):
        self.inner = inner
        self.on = False
        self.sb, self.sc = start_bid, start_count
        self.eb, self.ec = end_bid, end_count
        self.scnt = 0
        self.ecnt = 0

    def on_block(self, tid, block, repeat):
        if block.bid == self.eb:
            if self.ecnt <= self.ec < self.ecnt + repeat:
                self.on = False
            self.ecnt += repeat
        if block.bid == self.sb:
            if self.scnt <= self.sc < self.scnt + repeat:
                self.on = True
            self.scnt += repeat
        if self.on:
            for ob in self.inner:
                ob.on_block(tid, block, repeat)

    def on_sync(self, tid, kind, obj_id, response, gseq):
        if self.on:
            for ob in self.inner:
                ob.on_sync(tid, kind, obj_id, response, gseq)

    def on_finish(self):
        for ob in self.inner:
            ob.on_finish()


def _record(name):
    wl = get_workload(name, nthreads=4, scale=TEST_SCALE)
    pinball, _ = record_execution(
        wl.program, wl.thread_program, wl.omp, wl.nthreads,
        wait_policy=WaitPolicy.PASSIVE, seed=7,
    )
    return wl, pinball


def _mid_slice_markers(program, pinball):
    profile = profile_pinball(program, pinball, slice_size=6000)
    marked = [
        s for s in profile.slices if s.start is not None and s.end is not None
    ]
    assert marked, "workload produced no marker-delimited slices"
    sl = marked[len(marked) // 2]
    return sl.start, sl.end


def _observer_pair(nthreads):
    return InstructionCounter(nthreads), TraceCollector(limit=None)


class TestFastForwardEquivalence:
    """ff + run(until) vs full re-execution, every demo/NPB workload."""

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_region_bit_identical(self, name):
        wl, pinball = _record(name)
        program, nthreads = wl.program, wl.nthreads
        start, end = _mid_slice_markers(program, pinball)
        start_bid = program.block_at(start.pc).bid
        end_bid = program.block_at(end.pc).bid

        # Fast-forward path: skip to the start cut, replay to the end cut.
        ic_ff, tc_ff = _observer_pair(nthreads)
        ff = ConstrainedReplayer(program, pinball, observers=(ic_ff, tc_ff))
        skipped = ff.fast_forward_to(start, track_pcs=[end.pc])
        bbv_at_start = np.asarray(ff.exec_counts, dtype=np.int64)
        result_ff = ff.run(until=end)
        bbv_region_ff = np.asarray(ff.exec_counts, dtype=np.int64) - \
            bbv_at_start

        # Reference 1 — EngineResult: a scratch replay run to the same
        # end cut must produce the identical result (totals, per-thread
        # counters, exec counts, event count).
        scratch = ConstrainedReplayer(program, pinball)
        result_full = scratch.run(until=end)
        assert result_ff == result_full

        # Reference 2 — region BBV: exec-count delta between the two cuts
        # of scratch replays equals the fast-forwarded path's delta.
        at_start = ConstrainedReplayer(program, pinball)
        at_start.run(until=start)
        bbv_region_full = (
            np.asarray(scratch.exec_counts, dtype=np.int64)
            - np.asarray(at_start.exec_counts, dtype=np.int64)
        )
        assert np.array_equal(bbv_at_start,
                              np.asarray(at_start.exec_counts))
        assert np.array_equal(bbv_region_ff, bbv_region_full)

        # Reference 3 — observer state: a gated per-event full replay
        # delivers exactly the region's events to its inner observers.
        ic_ref, tc_ref = _observer_pair(nthreads)
        gate = Gate(
            (ic_ref, tc_ref), start_bid, start.count, end_bid, end.count
        )
        ConstrainedReplayer(
            program, pinball, observers=(gate,), batch_capacity=1
        ).run()
        assert ic_ff.total == ic_ref.total
        assert ic_ff.filtered == ic_ref.filtered
        assert ic_ff.per_thread_total == ic_ref.per_thread_total
        assert ic_ff.per_thread_filtered == ic_ref.per_thread_filtered
        assert tc_ff.blocks == tc_ref.blocks
        assert tc_ff.syncs == tc_ref.syncs
        assert skipped > 0

    def test_dcfg_validated_skip_matches_unvalidated(self):
        wl, pinball = _record("demo-matrix-1")
        start, end = _mid_slice_markers(wl.program, pinball)
        dcfg = build_dcfg_from_pinball(wl.program, pinball)

        plain = ConstrainedReplayer(wl.program, pinball)
        checked = ConstrainedReplayer(wl.program, pinball)
        assert (
            plain.fast_forward_to(start, track_pcs=[end.pc])
            == checked.fast_forward_to(start, dcfg=dcfg,
                                       track_pcs=[end.pc])
        )
        assert plain.run(until=end) == checked.run(until=end)


class TestWrapAroundMarkers:
    """A region whose end PC already executed before the start cut.

    The MARK006 certification ladder is the oracle: the pair must be
    certified by the *dynamic* rung (shared cycle, not static dominance),
    which is exactly the wrap case the (PC, count) ordering delimits.
    """

    def _wrap_setup(self):
        program, tp, omp = build_toy()
        pinball, _ = record_execution(program, tp, omp, 4, seed=3)
        hdr, body = program.blocks[0], program.blocks[1]
        # body entries are batched repeat=40 runs; counts on multiples of
        # 40 land on entry boundaries.  hdr entries are repeat=1.
        start = Marker(body.pc, 200)
        end = Marker(hdr.pc, 12)
        return program, pinball, hdr, body, start, end

    def test_pair_certified_by_dynamic_rung(self):
        program, pinball, hdr, body, start, end = self._wrap_setup()
        g = build_dcfg_from_pinball(program, pinball)
        assert _certify_region_on_graph(
            g, body.bid, hdr.bid, 0, "merged"
        ) is None
        # ...and NOT by static dominance: this is the wrap rung.
        assert not dominates(immediate_dominators(g), body.bid, hdr.bid)

    def test_wrap_region_bit_identical(self):
        program, pinball, hdr, body, start, end = self._wrap_setup()

        ic_ff, tc_ff = _observer_pair(4)
        ff = ConstrainedReplayer(program, pinball, observers=(ic_ff, tc_ff))
        ff.fast_forward_to(start, track_pcs=[end.pc])
        # The wrap property itself: the end PC already has a nonzero
        # global count at the start cut.
        assert ff._marker_counts[end.pc] > 0
        result_ff = ff.run(until=end)

        scratch = ConstrainedReplayer(program, pinball)
        assert result_ff == scratch.run(until=end)

        ic_ref, tc_ref = _observer_pair(4)
        gate = Gate((ic_ref, tc_ref), body.bid, start.count,
                    hdr.bid, end.count)
        ConstrainedReplayer(
            program, pinball, observers=(gate,), batch_capacity=1
        ).run()
        assert ic_ff.per_thread_total == ic_ref.per_thread_total
        assert ic_ff.per_thread_filtered == ic_ref.per_thread_filtered
        assert tc_ff.blocks == tc_ref.blocks
        assert tc_ff.syncs == tc_ref.syncs


class TestFastForwardErrors:
    @pytest.fixture
    def toy_pinball(self):
        program, tp, omp = build_toy()
        pinball, _ = record_execution(program, tp, omp, 4, seed=3)
        return program, pinball

    def test_dcfg_unreachable_marker_rejected(self, toy_pinball):
        program, pinball = toy_pinball
        dcfg = build_dcfg_from_pinball(program, pinball)
        crit = program.blocks[2]  # never executed without criticals
        assert crit.bid not in dcfg.reachable_from(ENTRY)
        with pytest.raises(ReplayError, match="unreachable"):
            ConstrainedReplayer(program, pinball).fast_forward_to(
                Marker(crit.pc, 0), dcfg=dcfg
            )

    def test_marker_inside_batched_entry_rejected(self, toy_pinball):
        program, pinball = toy_pinball
        body = program.blocks[1]  # repeat-40 entries; 210 is mid-entry
        with pytest.raises(ReplayError, match="inside a batched entry"):
            ConstrainedReplayer(program, pinball).fast_forward_to(
                Marker(body.pc, 210)
            )

    def test_marker_never_reached_rejected(self, toy_pinball):
        program, pinball = toy_pinball
        with pytest.raises(ReplayError, match="never reached"):
            ConstrainedReplayer(program, pinball).fast_forward_to(
                Marker(program.blocks[1].pc, 10**9)
            )

    def test_until_pc_untracked_across_skip_rejected(self, toy_pinball):
        program, pinball = toy_pinball
        hdr, body = program.blocks[0], program.blocks[1]
        replayer = ConstrainedReplayer(program, pinball)
        replayer.fast_forward_to(Marker(body.pc, 200))  # no track_pcs
        with pytest.raises(ReplayError, match="not tracked"):
            replayer.run(until=Marker(hdr.pc, 12))

    def test_until_already_passed_rejected(self, toy_pinball):
        program, pinball = toy_pinball
        hdr, body = program.blocks[0], program.blocks[1]
        replayer = ConstrainedReplayer(program, pinball)
        replayer.fast_forward_to(
            Marker(body.pc, 200), track_pcs=[hdr.pc]
        )
        passed = replayer._marker_counts[hdr.pc]
        assert passed > 0
        with pytest.raises(ReplayError, match="already passed"):
            replayer.run(until=Marker(hdr.pc, passed - 1))

    def test_fast_forward_to_untracked_pc_rejected(self, toy_pinball):
        program, pinball = toy_pinball
        hdr, body = program.blocks[0], program.blocks[1]
        replayer = ConstrainedReplayer(program, pinball)
        replayer.fast_forward_to(Marker(body.pc, 200))  # no track_pcs
        with pytest.raises(ReplayError, match="not tracked"):
            replayer.fast_forward_to(Marker(hdr.pc, 12))

    def test_until_pc_untracked_across_run_rejected(self, toy_pinball):
        program, pinball = toy_pinball
        hdr, body = program.blocks[0], program.blocks[1]
        replayer = ConstrainedReplayer(program, pinball)
        replayer.run(until=Marker(body.pc, 200), finish=False)
        with pytest.raises(ReplayError, match="not tracked"):
            replayer.run(until=Marker(hdr.pc, 12))

    def test_tracked_count_survives_run_segment(self, toy_pinball):
        """A ``run(until=)`` segment counts every tracked PC, not only
        its own ``until`` PC, so a later stop on another tracked PC
        lands where a direct run does."""
        program, pinball = toy_pinball
        hdr, body = program.blocks[0], program.blocks[1]
        replayer = ConstrainedReplayer(program, pinball)
        replayer.fast_forward_to(Marker(body.pc, 200), track_pcs=[hdr.pc])
        replayer.run(until=Marker(body.pc, 400), finish=False)
        chained = replayer.run(until=Marker(hdr.pc, 14))
        direct = ConstrainedReplayer(program, pinball).run(
            until=Marker(hdr.pc, 14)
        )
        assert chained == direct

    def test_fast_forward_to_passed_marker_rejected_in_place(
        self, toy_pinball
    ):
        program, pinball = toy_pinball
        hdr, body = program.blocks[0], program.blocks[1]
        replayer = ConstrainedReplayer(program, pinball)
        replayer.fast_forward_to(Marker(body.pc, 200), track_pcs=[hdr.pc])
        passed = replayer._marker_counts[hdr.pc]
        positions = list(replayer.positions)
        with pytest.raises(ReplayError, match="already passed"):
            replayer.fast_forward_to(Marker(hdr.pc, passed - 1))
        assert replayer.positions == positions

    def test_until_never_reached_completes_fully(self, toy_pinball):
        """An ``until`` marker the replay never hits is not an error: the
        replay simply runs to the end of the logs, identically to a plain
        full run."""
        program, pinball = toy_pinball
        body = program.blocks[1]
        bounded = ConstrainedReplayer(program, pinball).run(
            until=Marker(body.pc, 10**9)
        )
        plain = ConstrainedReplayer(program, pinball).run()
        assert bounded == plain


#: The benchmark's four replay settings: (app, input class, threads, wait).
STOP_MODE_SETTINGS = {
    "lbm-train": ("619.lbm_s.1", "train", 8, WaitPolicy.PASSIVE),
    "ep-train": ("npb-ep", "C", 8, WaitPolicy.PASSIVE),
    "xz-active": ("657.xz_s.2", "train", 4, WaitPolicy.ACTIVE),
    "is-live": ("npb-is", "C", 8, WaitPolicy.PASSIVE),
}


def _replay_state(replayer):
    return (
        replayer.positions, replayer.per_thread_total,
        replayer.per_thread_filtered, replayer.total_instructions,
        replayer.filtered_instructions, replayer.num_events,
        replayer.exec_counts, replayer._next_gseq,
        replayer._quantum_resume, replayer._marker_counts,
    )


class TestStopModesAgree:
    """Every stop mode of the replay walk lands on the same cuts.

    Three replayers advance region by region along the same chain of
    boundary cuts, each by a different mode: ``fast_forward_to``,
    ``run(until=)`` with ring delivery, and a filtered ``skip`` to the
    middle of the region followed by ``fast_forward_to``.  At every cut
    the scouts' lookahead must match what the moving replays reach.
    """

    @pytest.mark.parametrize("setting", sorted(STOP_MODE_SETTINGS))
    def test_chain_of_cuts(self, setting):
        app, input_class, nthreads, wait = STOP_MODE_SETTINGS[setting]
        wl = get_workload(app, input_class, nthreads, scale=TEST_SCALE)
        program = wl.program
        pinball, _ = record_execution(
            program, wl.thread_program, wl.omp, wl.nthreads,
            wait_policy=wait, seed=0,
        )
        slice_size = TEST_SCALE.slice_size(wl.nthreads)
        marker_pcs = profile_pinball(program, pinball, slice_size).marker_pcs
        ff, ran, mixed = (
            ConstrainedReplayer(program, pinball) for _ in range(3)
        )
        for replayer in (ff, ran, mixed):
            replayer.sync_marker_counts({pc: 0 for pc in marker_pcs})

        cuts = 0
        while True:
            cursor = ff.cursor()
            scout = ff.scout_region(
                marker_pcs,
                slice_target=slice_size,
                probe_target=slice_size // 4,
            )
            if scout.end is None:
                break
            target = sum(cursor.per_thread_filtered) + scout.filtered // 2
            warm = ff.scout_filtered_cut(
                cursor=cursor, target_filtered=target
            )
            assert mixed.skip({}, filtered=target) == (True, None)
            assert mixed.cut_point() == warm

            ff.fast_forward_to(scout.end, track_pcs=marker_pcs)
            assert ff.positions == scout.end_positions
            assert ff.per_thread_total == scout.per_thread_total
            assert ff.per_thread_filtered == scout.per_thread_filtered
            assert ff._marker_counts == scout.counts_at_end
            assert ff.filtered_instructions == (
                sum(cursor.per_thread_filtered) + scout.filtered
            )
            assert ff.total_instructions == (
                sum(cursor.per_thread_total) + scout.total
            )

            ran.run(until=scout.end, finish=False)
            mixed.fast_forward_to(scout.end)
            assert _replay_state(ran) == _replay_state(ff)
            assert _replay_state(mixed) == _replay_state(ff)
            cuts += 1
        assert cuts >= 3

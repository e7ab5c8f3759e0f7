"""Tests for pinballs: recording, replay equivalence, region extraction."""

import pytest

from repro.errors import RegionError, ReplayError
from repro.exec_engine import TraceCollector
from repro.exec_engine.engine import QUANTUM_INSTRUCTIONS
from repro.exec_engine.observers import Observer
from repro.pinplay import (
    ConstrainedReplayer,
    Pinball,
    RegionCut,
    RegionPinball,
    extract_region_pinballs,
    record_execution,
)
from repro.pinplay.pinball import append_block
from repro.policy import WaitPolicy
from repro.profiling import Marker, profile_pinball

from conftest import build_toy


@pytest.fixture(scope="module")
def recorded():
    program, tp, omp = build_toy()
    pinball, result = record_execution(
        program, tp, omp, 4, wait_policy=WaitPolicy.ACTIVE, seed=11
    )
    return program, tp, omp, pinball, result


class TestAppendBlock:
    def test_merges_consecutive(self):
        log = []
        append_block(log, 5, 3)
        append_block(log, 5, 2)
        assert log == [("b", 5, 5)]

    def test_no_merge_across_blocks(self):
        log = []
        append_block(log, 5, 1)
        append_block(log, 6, 1)
        assert len(log) == 2

    def test_unmergeable(self):
        log = []
        append_block(log, 5, 1, mergeable=False)
        append_block(log, 5, 1, mergeable=False)
        assert log == [("b", 5, 1), ("b", 5, 1)]

    def test_no_merge_after_sync(self):
        log = [("b", 5, 1), ("s", "barrier", 0, None, 0)]
        append_block(log, 5, 1)
        assert len(log) == 3


class TestPinballContainer:
    def test_log_count_must_match_threads(self):
        with pytest.raises(ReplayError):
            Pinball("p", 4, "passive", 0, [[], []], 0, 0)

    def test_save_load_roundtrip(self, recorded, tmp_path):
        *_x, pinball, _result = recorded
        path = tmp_path / "toy.pinball.gz"
        pinball.save(path)
        loaded = Pinball.load(path)
        assert loaded.program_name == pinball.program_name
        assert loaded.logs == pinball.logs
        assert loaded.total_instructions == pinball.total_instructions

    def test_load_rejects_garbage(self, tmp_path):
        import gzip, pickle

        path = tmp_path / "bad.gz"
        with gzip.open(path, "wb") as fh:
            pickle.dump(("not-a-pinball", 42), fh)
        with pytest.raises(ReplayError):
            Pinball.load(path)

    def test_num_entries(self, recorded):
        *_x, pinball, _result = recorded
        assert pinball.num_entries == sum(len(l) for l in pinball.logs)


class TestConstrainedReplay:
    def test_replay_reproduces_totals(self, recorded):
        program, _tp, _omp, pinball, result = recorded
        rep = ConstrainedReplayer(program, pinball).run()
        assert rep.total_instructions == result.total_instructions
        assert rep.filtered_instructions == result.filtered_instructions
        assert rep.exec_counts == result.exec_counts

    def test_replay_deterministic(self, recorded):
        program, _tp, _omp, pinball, _result = recorded
        t1, t2 = TraceCollector(), TraceCollector()
        ConstrainedReplayer(program, pinball, observers=(t1,)).run()
        ConstrainedReplayer(program, pinball, observers=(t2,)).run()
        assert t1.blocks == t2.blocks
        assert t1.syncs == t2.syncs

    def test_wrong_program_rejected(self, recorded):
        from repro.isa import ProgramBuilder

        *_x, pinball, _result = recorded
        pb = ProgramBuilder("other")
        pb.routine("r").block("b", ialu=1)
        other = pb.finalize()
        with pytest.raises(ReplayError):
            ConstrainedReplayer(other, pinball)

    def test_corrupt_gseq_detected(self, recorded):
        program, _tp, _omp, pinball, _result = recorded
        import copy

        broken = copy.deepcopy(pinball)
        # Remove one sync entry: the order can never be satisfied.
        for log in broken.logs:
            for i, entry in enumerate(log):
                if entry[0] == "s":
                    del log[i]
                    break
            else:
                continue
            break
        with pytest.raises(ReplayError):
            ConstrainedReplayer(program, broken).run()

    @staticmethod
    def _shift_gseq(pinball, first, delta):
        """A copy of ``pinball`` with ``delta`` added to every sync
        entry's gseq from ``first`` up."""
        import copy

        broken = copy.deepcopy(pinball)
        broken.logs = [
            [
                entry[:4] + (entry[4] + delta,)
                if entry[0] == "s" and entry[4] >= first else entry
                for entry in log
            ]
            for log in broken.logs
        ]
        return broken

    @staticmethod
    def _gseqs(pinball):
        return sorted(e[4] for log in pinball.logs for e in log if e[0] == "s")

    def test_duplicated_gseq_gets_stuck(self, recorded):
        """The order gate admits a sync only at ``gseq == next_gseq``, so a
        value recorded twice leaves its second holder waiting forever."""
        program, _tp, _omp, pinball, _result = recorded
        broken = self._shift_gseq(pinball, 6, -1)
        gseqs = self._gseqs(broken)
        assert gseqs.count(5) == 2 and set(gseqs) == set(range(gseqs[-1] + 1))
        with pytest.raises(ReplayError, match="replay stuck"):
            ConstrainedReplayer(program, broken).run()

    def test_missing_gseq_gets_stuck(self, recorded):
        program, _tp, _omp, pinball, _result = recorded
        broken = self._shift_gseq(pinball, 5, 1)
        gseqs = self._gseqs(broken)
        assert 5 not in gseqs and len(set(gseqs)) == len(gseqs)
        with pytest.raises(ReplayError, match="replay stuck: next_gseq=5"):
            ConstrainedReplayer(program, broken).run()

    def test_sync_order_enforced(self, recorded):
        program, _tp, _omp, pinball, _result = recorded
        trace = TraceCollector()
        ConstrainedReplayer(program, pinball, observers=(trace,)).run()
        gseqs = [g for *_r, g in trace.syncs]
        assert gseqs == sorted(gseqs)
        assert gseqs == list(range(len(gseqs)))


def _lambda_key_schedule(program, pinball):
    """The walk's schedule as it was with ``live`` a set and the sort
    keyed by ``lambda t: (ptf[t], t)``: each consumed log entry's
    ``(tid, entry)`` in order (no stops, no marker counting)."""
    logs = pinball.logs
    n_instr = [b.n_instr for b in program.blocks]
    n_filtered = [
        0 if b.image.is_library else b.n_instr for b in program.blocks
    ]
    pos = [0] * len(logs)
    ptt = [0] * len(logs)
    ptf = [0] * len(logs)
    ends = [len(log) for log in logs]
    next_gseq = 0
    live = set(t for t in range(len(logs)) if pos[t] < ends[t])
    order = []
    while live:
        progressed = False
        for tid in sorted(live, key=lambda t: (ptf[t], t)):
            log = logs[tid]
            p, tt, tf = pos[tid], ptt[tid], ptf[tid]
            stop_at = tt + QUANTUM_INSTRUCTIONS
            while tt < stop_at and p < ends[tid]:
                entry = log[p]
                if entry[0] == "b":
                    tt += n_instr[entry[1]] * entry[2]
                    tf += n_filtered[entry[1]] * entry[2]
                else:
                    if entry[4] != next_gseq:
                        break
                    next_gseq += 1
                order.append((tid, entry))
                p += 1
                progressed = True
            pos[tid], ptt[tid], ptf[tid] = p, tt, tf
            if p >= ends[tid]:
                live.discard(tid)
            if progressed:
                break
        assert progressed, "reference schedule stuck"
    return order


class TestWalkPickOrder:
    """Least filtered progress first, ties to the lower tid."""

    def _pinball(self):
        program, _tp, _omp = build_toy()
        body = next(b for b in program.blocks if b.name == "compute.body")
        spin = next(
            b for b in program.blocks
            if b.image.is_library and b.is_loop_header
        )
        # One entry of each kind overruns the 600-instruction quantum.
        work = ("b", body.bid, 700 // body.n_instr)
        idle = ("b", spin.bid, 700 // spin.n_instr)  # no filtered work
        logs = [
            # Thread 0 ties with everyone at 0 but waits for gseq 2.
            [("s", "lock", 0, None, 2), work, idle, work],
            [idle, idle, ("s", "lock", 0, None, 0), work, idle, work],
            [idle, work, ("s", "lock", 0, None, 1), work, work],
            [work, idle, ("s", "lock", 0, None, 3), idle, work],
        ]
        weight = {b.bid: b.n_instr for b in program.blocks}
        total = sum(weight[e[1]] * e[2] for log in logs for e in log
                    if e[0] == "b")
        filtered = sum(weight[e[1]] * e[2] for log in logs for e in log
                       if e[0] == "b" and e[1] == body.bid)
        pinball = Pinball(
            program_name=program.name, nthreads=4, wait_policy="passive",
            seed=0, logs=logs, total_instructions=total,
            filtered_instructions=filtered,
        )
        return program, pinball

    def test_visits_threads_in_progress_then_tid_order(self):
        class Order(Observer):
            def __init__(self):
                self.seen = []

            def on_block(self, tid, block, repeat):
                self.seen.append((tid, ("b", block.bid, repeat)))

            def on_sync(self, tid, kind, obj_id, response, gseq):
                self.seen.append((tid, ("s", kind, obj_id, response, gseq)))

        program, pinball = self._pinball()
        order = Order()
        ConstrainedReplayer(
            program, pinball, observers=(order,), batch_capacity=1
        ).run()
        expected = _lambda_key_schedule(program, pinball)
        assert order.seen == expected
        # The fixture exercises the rule: thread 0 is least-progress and
        # lowest tid but held at the gate, so thread 1 (next in the tie)
        # moves first, and thread 0's sync comes only after gseq 0 and 1.
        assert expected[0][0] == 1
        syncs = [(tid, e[4]) for tid, e in expected if e[0] == "s"]
        assert syncs == [(1, 0), (2, 1), (0, 2), (3, 3)]


class TestRegionExtraction:
    @pytest.fixture(scope="class")
    def profile_and_regions(self, recorded):
        program, _tp, _omp, pinball, _result = recorded
        profile = profile_pinball(program, pinball, slice_size=6000)
        cuts = []
        for s in profile.slices[:4]:
            cuts.append(
                RegionCut(
                    region_id=s.index, start=s.start, end=s.end,
                    warmup_filtered=max(0, s.start_filtered - 3000),
                )
            )
        regions = extract_region_pinballs(program, pinball, cuts)
        return program, pinball, profile, regions

    def test_one_pinball_per_cut(self, profile_and_regions):
        *_x, regions = profile_and_regions
        assert len(regions) == 4
        assert all(isinstance(r, RegionPinball) for r in regions)

    def test_detail_instructions_close_to_slice(self, profile_and_regions):
        program, pinball, profile, regions = profile_and_regions
        for region in regions:
            s = profile.slices[region.region_id]
            detail = region.metadata["detail_filtered"]
            assert abs(detail - s.filtered_instructions) <= 2000

    def test_region_replayable(self, profile_and_regions):
        program, _pinball, _profile, regions = profile_and_regions
        for region in regions[:2]:
            rep = ConstrainedReplayer(
                program, region,
                initial_exec_counts=region.start_exec_counts,
            ).run()
            assert rep.total_instructions == region.total_instructions

    def test_gseq_renumbered_dense(self, profile_and_regions):
        *_x, regions = profile_and_regions
        for region in regions:
            gseqs = sorted(
                e[4] for log in region.logs for e in log if e[0] == "s"
            )
            assert gseqs == list(range(len(gseqs)))

    def test_start_exec_counts_present(self, profile_and_regions):
        *_x, regions = profile_and_regions
        later = regions[-1]
        assert any(any(row) for row in later.start_exec_counts)

    def test_unreachable_marker_rejected(self, recorded):
        program, _tp, _omp, pinball, _result = recorded
        marker_pc = program.routine("compute").entry.pc
        cuts = [RegionCut(0, Marker(marker_pc, 10**9), None, 0)]
        with pytest.raises(RegionError):
            extract_region_pinballs(program, pinball, cuts)

    def test_end_before_start_rejected(self, recorded):
        program, _tp, _omp, pinball, _result = recorded
        marker_pc = program.routine("compute").entry.pc
        cuts = [RegionCut(
            7, Marker(marker_pc, 10), Marker(marker_pc, 5), 0
        )]
        with pytest.raises(
            RegionError,
            match=r"region 7: marker .* passed before it became pending",
        ):
            extract_region_pinballs(program, pinball, cuts)

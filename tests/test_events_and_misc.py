"""Smaller units: event reprs, error hierarchy, report formatting,
speedup report rows, and the bar-chart/table helpers used by benchmarks."""

import pytest

from repro import errors as err
from repro.core.report import format_result_table
from repro.core.speedup import SpeedupReport
from repro.exec_engine.events import (
    BarrierWait,
    ChunkRequest,
    LockAcquire,
    LockRelease,
    Reduce,
    SingleRequest,
)
from repro.isa import ProgramBuilder
from repro.isa.blocks import BRANCH_LOOP, BranchSpec

from reference_engine import BlockExec


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(err):
            obj = getattr(err, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, err.ReproError) or obj is err.ReproError

    def test_specific_parents(self):
        assert issubclass(err.DeadlockError, err.ExecutionError)

    def test_catchable_as_base(self):
        with pytest.raises(err.ReproError):
            raise err.RegionError("x")


class TestEvents:
    def _block(self):
        pb = ProgramBuilder("e")
        blk = pb.routine("r").block("b", ialu=2,
                                    branch=BranchSpec(BRANCH_LOOP),
                                    loop_header=True)
        pb.finalize()
        return blk

    def test_block_exec_fields(self):
        blk = self._block()
        e = BlockExec(blk, 7)
        assert e.block is blk and e.repeat == 7
        assert "x7" in repr(e)

    def test_sync_event_reprs(self):
        assert "3" in repr(BarrierWait(3))
        assert "4" in repr(LockAcquire(4))
        assert "5" in repr(LockRelease(5))
        assert "loop=6" in repr(ChunkRequest(6, 2, 100))
        assert "7" in repr(SingleRequest(7))
        assert repr(Reduce()) == "Reduce()"

    def test_events_are_slotted(self):
        e = BarrierWait(1)
        with pytest.raises(AttributeError):
            e.extra = 1


class TestSpeedupReport:
    def test_row_with_actuals(self):
        report = SpeedupReport(10.0, 100.0, 8.0, 80.0)
        row = report.row()
        assert "10.0x" in row and "80.0x" in row

    def test_row_without_actuals(self):
        report = SpeedupReport(10.0, 100.0)
        assert "--" in report.row()


class TestReportHelpers:
    def test_format_result_table_empty_actual(self, demo_workload):
        from repro.core import LoopPointOptions, LoopPointPipeline
        from conftest import TEST_SCALE

        pipeline = LoopPointPipeline(
            demo_workload, options=LoopPointOptions(scale=TEST_SCALE)
        )
        result = pipeline.run(simulate_full=False)
        table = format_result_table([result])
        assert "--" in table  # no reference error available

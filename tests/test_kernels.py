"""Scheduler-kernel tiers: template rendering, tier validation, parity.

The ``compiled`` tier folds a run's configuration (wait policy, flow
control, event bound) out of the hot loop's bytecode; the ``reference``
tier keeps every test as a runtime branch.  The contract is that both
tiers are *bit-identical* — same EngineResult, same observer state, same
rng consumption — for every configuration, so these tests sweep the flag
cube and also pin the ``#%if`` line-preprocessor's semantics.
"""

import pytest

from repro.exec_engine.engine import ExecutionEngine
from repro.exec_engine.flowcontrol import FlowControl
from repro.exec_engine.observers import (
    InstructionCounter,
    SyncEventLog,
    TraceCollector,
)
from repro.perf import kernels
from repro.perf.kernels import get_kernel, render_kernel_source
from repro.policy import WaitPolicy

from conftest import build_toy


def _observers(nthreads):
    return (
        InstructionCounter(nthreads),
        SyncEventLog(nthreads),
        TraceCollector(limit=None),
    )


def _run_tier(tier, *, policy=WaitPolicy.PASSIVE, seed=0, nthreads=4,
              flow=None, max_events=None):
    program, tp, omp = build_toy(nthreads_hint=nthreads)
    obs = _observers(nthreads)
    engine = ExecutionEngine(
        program, tp, omp, nthreads, wait_policy=policy, seed=seed,
        observers=obs, flow_control=flow, max_events=max_events,
        kernel_tier=tier,
    )
    try:
        result = engine.run()
    except Exception as exc:  # bounded runs may stop via ExecutionError
        result = ("raised", type(exc).__name__, str(exc))
    return result, obs


def _assert_equal_state(a, b):
    result_a, obs_a = a
    result_b, obs_b = b
    assert result_a == result_b
    assert obs_a[0].per_thread_total == obs_b[0].per_thread_total
    assert obs_a[0].per_thread_filtered == obs_b[0].per_thread_filtered
    assert obs_a[1].per_thread == obs_b[1].per_thread
    assert obs_a[1].gseq_order == obs_b[1].gseq_order
    assert obs_a[2].blocks == obs_b[2].blocks
    assert obs_a[2].syncs == obs_b[2].syncs


class TestTierParity:
    """reference vs compiled over the full configuration-flag cube."""

    @pytest.mark.parametrize("policy", [WaitPolicy.PASSIVE, WaitPolicy.ACTIVE])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_plain_runs_identical(self, policy, seed):
        _assert_equal_state(
            _run_tier("reference", policy=policy, seed=seed),
            _run_tier("compiled", policy=policy, seed=seed),
        )

    def test_flow_control_identical(self):
        _assert_equal_state(
            _run_tier("reference", flow=FlowControl(window=100)),
            _run_tier("compiled", flow=FlowControl(window=100)),
        )

    def test_bounded_identical(self):
        _assert_equal_state(
            _run_tier("reference", max_events=25),
            _run_tier("compiled", max_events=25),
        )

    def test_all_flags_identical(self):
        _assert_equal_state(
            _run_tier("reference", policy=WaitPolicy.ACTIVE,
                      flow=FlowControl(window=200), max_events=500),
            _run_tier("compiled", policy=WaitPolicy.ACTIVE,
                      flow=FlowControl(window=200), max_events=500),
        )


class TestTierSelection:
    def test_engine_rejects_unknown_tier(self):
        program, tp, omp = build_toy()
        with pytest.raises(ValueError, match="kernel_tier"):
            ExecutionEngine(program, tp, omp, 2, kernel_tier="turbo")


class TestTemplateRendering:
    def test_reference_rendering_keeps_every_branch(self):
        src = render_kernel_source(
            {"active": True, "flow": True, "bounded": True}
        )
        assert "#%" not in src
        compile(src, "<test>", "exec")  # must be syntactically valid

    def test_folded_rendering_drops_disabled_blocks(self):
        all_on = render_kernel_source(
            {"active": True, "flow": True, "bounded": True}
        )
        folded = render_kernel_source(
            {"active": False, "flow": False, "bounded": False}
        )
        assert "#%" not in folded
        assert len(folded.splitlines()) < len(all_on.splitlines())
        compile(folded, "<test>", "exec")

    def test_every_flag_combination_compiles(self):
        for active in (False, True):
            for flow in (False, True):
                for bounded in (False, True):
                    src = render_kernel_source(
                        {"active": active, "flow": flow, "bounded": bounded}
                    )
                    compile(src, "<test>", "exec")

    def test_nested_if_rejected(self):
        broken = "#%if a\n#%if b\nx\n#%endif\n#%endif\n"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_KERNEL_TEMPLATE", broken)
            with pytest.raises(ValueError, match="nested"):
                render_kernel_source({"a": True, "b": True})

    def test_unterminated_if_rejected(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_KERNEL_TEMPLATE", "#%if a\nx\n")
            with pytest.raises(ValueError, match="unterminated"):
                render_kernel_source({"a": True})

    @pytest.mark.parametrize("stray", ["#%else", "#%endif"])
    def test_stray_directive_rejected(self, stray):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_KERNEL_TEMPLATE", f"x\n{stray}\n")
            with pytest.raises(ValueError, match="outside"):
                render_kernel_source({})

    def test_else_branch_selected(self):
        template = "#%if a\nyes\n#%else\nno\n#%endif\n"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_KERNEL_TEMPLATE", template)
            assert render_kernel_source({"a": True}).strip() == "yes"
            assert render_kernel_source({"a": False}).strip() == "no"


class TestKernelCache:
    def test_reference_ignores_flags(self):
        ns = {}
        a = get_kernel("reference", active=True, flow=False, bounded=True,
                       namespace=ns)
        b = get_kernel("reference", active=False, flow=True, bounded=False,
                       namespace=ns)
        assert a is b

    def test_compiled_keyed_by_flags(self):
        ns = {}
        a = get_kernel("compiled", active=True, flow=False, bounded=False,
                       namespace=ns)
        b = get_kernel("compiled", active=False, flow=False, bounded=False,
                       namespace=ns)
        c = get_kernel("compiled", active=True, flow=False, bounded=False,
                       namespace=ns)
        assert a is not b
        assert a is c

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="tier"):
            get_kernel("turbo", active=True, flow=True, bounded=True,
                       namespace={})


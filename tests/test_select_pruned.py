"""The bounded k-sweep selects what the exhaustive sweep selects.

``select_simpoints`` stops fitting k once the BIC upper bound proves no
k it has not fitted can raise the smoothed curve's maximum.  The
exhaustive sweep it replaced — every k in 1..maxK, smoothed by list
position — is inlined below as the oracle.  The tests check that:

* both sweeps choose the same k, labels, centroids and clusters, on the
  golden profiled cases and on generated phase+noise populations;
* every k the bounded sweep fits has the exhaustive sweep's score, bit
  for bit;
* every fitted score lies under ``UB(k)``, the premise of the stop rule.
"""

from __future__ import annotations

import contextlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import LoopPointOptions, LoopPointPipeline, WaitPolicy
from repro.clustering import simpoint
from repro.clustering.bic import bic_upper_bound
from repro.clustering.simpoint import SimPointOptions, select_simpoints
from repro.config import get_scale
from repro.workloads.registry import get_workload

#: (workload, input class, threads, wait policy) and the number of k the
#: bounded sweep fits at tiny scale, record seed 0 (maxK = 50).
PROFILED = {
    "619.lbm_s.1": (("619.lbm_s.1", "train", 8, "passive"), 19),
    "npb-ep": (("npb-ep", "C", 8, "passive"), 21),
    "657.xz_s.2-active": (("657.xz_s.2", "train", 4, "active"), 50),
    "npb-is": (("npb-is", "C", 8, "passive"), 49),
}


def exhaustive_sweep(points, weights, opts, max_k):
    """Every k in 1..maxK, from the same lockstep seeds."""
    n_init = simpoint._restarts_for(points.shape[0], opts)
    seeds = simpoint._seeds(points, range(1, max_k + 1), opts.seed, n_init)
    score = simpoint._scorer(points)
    results, scores = {}, {}
    for k in range(1, max_k + 1):
        rows = seeds[(k - 1) * n_init:k * n_init]
        results[k] = simpoint._best_fit(points, weights, k, rows)
        scores[k] = score(results[k])
    return results, scores


def positional_choose_k(scores, threshold):
    """The min-max rule over the finite scores, smoothed by list position."""
    finite = {k: s for k, s in scores.items() if np.isfinite(s)}
    if not finite:
        return 1
    ks = sorted(finite)
    raw = np.array([finite[k] for k in ks], dtype=np.float64)
    if len(ks) > 2:
        window = min(5, len(ks))
        kernel = np.ones(window) / window
        pad = window // 2
        padded = np.concatenate([np.repeat(raw[0], pad), raw,
                                 np.repeat(raw[-1], pad)])
        smooth = np.convolve(padded, kernel, mode="valid")[: len(ks)]
    else:
        smooth = raw
    lo, hi = float(smooth.min()), float(smooth.max())
    if hi == lo:
        return ks[0]
    for k, s in zip(ks, smooth):
        if (s - lo) / (hi - lo) >= threshold:
            return k
    return ks[-1]


@contextlib.contextmanager
def exhaustive():
    """``select_simpoints`` with the exhaustive sweep and positional rule."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simpoint, "_sweep", exhaustive_sweep)
        mp.setattr(
            simpoint, "_choose_k",
            lambda scores, max_k, threshold: positional_choose_k(
                scores, threshold
            ),
        )
        yield


@contextlib.contextmanager
def chosen_fits():
    """Collect the fit each selection builds its clusters from."""
    seen = []
    build = simpoint._build_clusters

    def spy(points, counts, result, *args, **kwargs):
        seen.append(result)
        return build(points, counts, result, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simpoint, "_build_clusters", spy)
        yield seen


def both_selections(bbvs, counts, opts, ineligible=None):
    """(bounded, exhaustive) selections, each with its chosen fit."""
    out = []
    for mode in (contextlib.nullcontext, exhaustive):
        with mode(), chosen_fits() as seen:
            selection = select_simpoints(bbvs, counts, opts, ineligible)
        out.append((selection, seen[-1]))
    return out


def assert_same_selection(bounded, reference):
    (sel, fit), (ref, ref_fit) = bounded, reference
    assert sel.k == ref.k
    assert np.array_equal(sel.labels, ref.labels)
    assert fit.centroids.tobytes() == ref_fit.centroids.tobytes()
    assert [
        (c.cluster_id, c.representative, c.members, c.instruction_mass,
         c.multiplier) for c in sel.clusters
    ] == [
        (c.cluster_id, c.representative, c.members, c.instruction_mass,
         c.multiplier) for c in ref.clusters
    ]
    # Every fitted k keeps the exhaustive sweep's score bit for bit.
    assert sel.bic_by_k == {k: ref.bic_by_k[k] for k in sel.bic_by_k}
    max_k = max(ref.bic_by_k)
    assert set(range(max(1, max_k - 2), max_k + 1)) <= set(sel.bic_by_k)


def assert_scores_under_bound(bbvs, selection, opts):
    """Each score is at most ``UB(k)``, up to the stop rule's margin."""
    points = simpoint.project(bbvs, opts.projection_dim, opts.seed)
    bound = bic_upper_bound(points)
    for k, s in selection.bic_by_k.items():
        if np.isfinite(s):
            ub = bound(k)
            assert s - ub <= simpoint._SLACK * max(abs(ub), 1.0), (k, s, ub)


def _profiled_inputs(case):
    (name, input_class, nthreads, wait), _ = PROFILED[case]
    scale = get_scale("tiny")
    workload = get_workload(name, input_class, nthreads, scale=scale)
    pipeline = LoopPointPipeline(workload, options=LoopPointOptions(
        wait_policy=WaitPolicy(wait), scale=scale, record_seed=0, jobs=1,
    ))
    profile = pipeline.profile()
    startup = pipeline.options.startup_fraction * profile.filtered_instructions
    ineligible = [
        s.index for s in profile.slices if s.start_filtered < startup
    ]
    return (
        profile.bbv_matrix(), np.asarray(profile.slice_filtered_counts()),
        pipeline.options.simpoint, ineligible,
    )


@pytest.mark.parametrize("case", sorted(PROFILED))
def test_profiled_bounded_sweep_equals_exhaustive(case):
    bbvs, counts, opts, ineligible = _profiled_inputs(case)
    bounded, reference = both_selections(bbvs, counts, opts, ineligible)
    assert_same_selection(bounded, reference)
    assert len(bounded[0].bic_by_k) == PROFILED[case][1]
    assert len(reference[0].bic_by_k) == 50
    # The premise, over every k the exhaustive sweep scores.
    assert_scores_under_bound(bbvs, reference[0], opts)


@st.composite
def phase_populations(draw):
    """BBVs drawn from a few phases plus noise; n covers both restart
    regimes (3 restarts up to 800 slices, 1 above)."""
    many = draw(st.booleans())
    n = draw(st.integers(801, 900) if many else st.integers(20, 800))
    dims = draw(st.integers(4, 48))
    phases = draw(st.integers(1, 12))
    noise = draw(st.sampled_from([0.0005, 0.002, 0.01, 0.05]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    centers = rng.random((phases, dims)) ** 2
    bbvs = centers[rng.integers(0, phases, size=n)]
    bbvs = np.abs(bbvs + rng.normal(scale=noise, size=bbvs.shape))
    counts = rng.integers(200, 2000, size=n).astype(np.float64)
    opts = SimPointOptions(
        max_k=draw(st.sampled_from([12, 30, 50])),
        bic_threshold=draw(st.sampled_from([0.0, 0.5, 0.8, 0.9, 0.97, 1.0])),
        projection_dim=draw(st.sampled_from([15, 100])),
        seed=draw(st.integers(0, 1000)),
    )
    ineligible = range(draw(st.integers(0, n // 10)))
    return bbvs, counts, opts, ineligible


@settings(max_examples=30, deadline=None)
@given(phase_populations())
def test_bounded_sweep_equals_exhaustive_on_phase_populations(population):
    bbvs, counts, opts, ineligible = population
    bounded, reference = both_selections(bbvs, counts, opts, ineligible)
    assert_same_selection(bounded, reference)
    assert_scores_under_bound(bbvs, reference[0], opts)


@st.composite
def bounded_curves(draw):
    """A BIC curve under a linear ``UB``: any shape, second peaks too."""
    max_k = draw(st.integers(1, 50))
    step = draw(st.floats(1.0, 300.0))
    top = draw(st.floats(-1e5, 1e5))
    gaps = draw(st.lists(
        st.floats(0.0, 3000.0), min_size=max_k, max_size=max_k,
    ))
    bound = {k: top - step * k for k in range(1, max_k + 1)}
    curve = {k: bound[k] - gaps[k - 1] for k in bound}
    return max_k, curve, bound


def synthetic_sweep(max_k, curve, bound):
    """``_sweep`` over a given curve and bound, with stub fits."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simpoint, "_seeds", lambda points, ks, seed, n_init:
                   np.zeros((len(ks) * n_init, 1), dtype=np.int64))
        mp.setattr(simpoint, "_best_fit", lambda points, weights, k, rows:
                   SimpleNamespace(k=k))
        mp.setattr(simpoint, "_scorer", lambda points:
                   lambda fit: curve[fit.k])
        mp.setattr(simpoint, "bic_upper_bound", lambda points: bound.get)
        points = np.zeros((2 * max_k + 2, 1))
        _, scores = simpoint._sweep(points, None, SimPointOptions(), max_k)
    return scores


@settings(max_examples=300, deadline=None)
@given(bounded_curves(), st.sampled_from([0.0, 0.5, 0.9, 1.0]))
def test_bounded_sweep_keeps_the_curve_maximum(case, threshold):
    """The stop rule's claim, on curves no k-means fit would produce: the
    fully fitted windows hold the whole smoothed curve's maximum."""
    max_k, curve, bound = case
    scores = synthetic_sweep(max_k, curve, bound)
    assert scores == {k: curve[k] for k in scores}
    full = simpoint._smooth(curve, max_k)
    read = simpoint._smooth(scores, max_k)
    readable = ~np.isnan(read)
    assert read[readable].tobytes() == full[readable].tobytes()
    assert read[readable].max() == full.max()
    assert readable[-1]
    if read[readable].min() == full.min():
        assert simpoint._choose_k(scores, max_k, threshold) == (
            positional_choose_k(curve, threshold)
        )


def test_sweep_stops_past_the_peak():
    """A clear phase structure at the noise floor stops the sweep early."""
    rng = np.random.default_rng(11)
    centers = rng.random((5, 40))
    bbvs = np.abs(centers[rng.integers(0, 5, size=300)]
                  + rng.normal(scale=0.01, size=(300, 40)))
    counts = rng.integers(500, 1500, size=300).astype(np.float64)
    selection = select_simpoints(bbvs, counts, SimPointOptions())
    fitted = sorted(selection.bic_by_k)
    assert len(fitted) < 20
    # 1..m, then maxK-2..maxK.
    m = fitted[-4]
    assert fitted == list(range(1, m + 1)) + [48, 49, 50]


@pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
def test_small_inputs_fit_every_k(n):
    """With maxK < 5 no window is 5 wide; every k is fitted."""
    rng = np.random.default_rng(n)
    bbvs = rng.random((n, 6))
    counts = rng.integers(1, 10, size=n).astype(np.float64)
    bounded, reference = both_selections(bbvs, counts, SimPointOptions())
    assert_same_selection(bounded, reference)
    assert sorted(bounded[0].bic_by_k) == list(range(1, max(1, n // 2) + 1))

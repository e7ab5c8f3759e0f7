"""The batched slicer against its per-event reference.

``LoopAlignedSlicer.on_block_batch`` finds every slice close of a batch
with one ``searchsorted`` and reduces the runs between closes in one
pass each.  It must leave exactly the state that feeding the same
events one at a time through ``on_block`` leaves: the same slices, bit
for bit, and the same marker counts.  The streams here are generated
over the toy program's block table — main-image loop headers (the
marker candidates), a plain main-image block and library blocks, one of
them a library loop header — with marker density anywhere from none to
every event, slice sizes down to one instruction (every marker after
any work closes a slice) and arbitrary batch cuts, size-1 batches and
per-event (small-flush) deliveries among them.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.perf.ring import FLAG_LIBRARY, EventBatch
from repro.profiling.filters import FilterPolicy
from repro.profiling.slicer import LoopAlignedSlicer

from conftest import build_toy

NTHREADS = 4
PROGRAM = build_toy(nthreads_hint=NTHREADS)[0]
BLOCKS = PROGRAM.blocks
ELIGIBLE = [b.bid for b in BLOCKS if FilterPolicy().marker_eligible(b)]


def _slicer(marker_bids, slice_size):
    return LoopAlignedSlicer(
        NTHREADS, PROGRAM.num_blocks, [BLOCKS[b] for b in marker_bids],
        slice_size=slice_size,
    )


def _batch(events):
    """The ring's column form of ``events``."""
    tid, bid, repeat = (
        np.array(col, dtype=np.int64) for col in zip(*events)
    )
    n_instr = np.array([BLOCKS[b].n_instr for b in bid], dtype=np.int64)
    flags = np.array(
        [FLAG_LIBRARY if BLOCKS[b].image.is_library else 0 for b in bid],
        dtype=np.int64,
    )
    return EventBatch(
        size=len(events), tid=tid, bid=bid, repeat=repeat,
        n_instr=n_instr, flags=flags, blocks=BLOCKS,
    )


def _per_event(slicer, events):
    for tid, bid, repeat in events:
        slicer.on_block(tid, BLOCKS[bid], repeat)


def _state(slicer):
    slices = [
        (
            s.index, s.start, s.end, s.bbv.tobytes(),
            s.filtered_instructions, s.total_instructions,
            tuple(s.per_thread_filtered), s.start_filtered, s.extrapolated,
        )
        for s in slicer.slices
    ]
    return slices, slicer.tracker.snapshot()


def run_both(events, marker_bids, slice_size, cuts, per_event_batches):
    """Feed ``events`` per event and in batches; return both states.

    ``cuts`` splits the stream into batches; batches whose ordinal is in
    ``per_event_batches`` go through ``on_block``, as the ring delivers
    batches below its small-flush threshold.
    """
    reference = _slicer(marker_bids, slice_size)
    _per_event(reference, events)
    batched = _slicer(marker_bids, slice_size)
    bounds = [0, *sorted(set(cuts)), len(events)]
    for ordinal, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if hi <= lo:
            continue
        if ordinal in per_event_batches:
            _per_event(batched, events[lo:hi])
        else:
            batched.on_block_batch(_batch(events[lo:hi]))
    mid = (_state(reference), _state(batched))
    reference.on_finish()
    batched.on_finish()
    return mid, (_state(reference), _state(batched))


@st.composite
def scenarios(draw):
    marker_bids = draw(
        st.lists(st.sampled_from(ELIGIBLE), min_size=1, unique=True)
    )
    others = [b.bid for b in BLOCKS if b.bid not in marker_bids]
    # Percent of events that execute a marker block.
    density = draw(st.sampled_from([0, 10, 50, 90, 100]))
    raw = draw(st.lists(
        st.tuples(
            st.integers(0, NTHREADS - 1), st.integers(0, 99),
            st.integers(0, 63), st.integers(1, 6),
        ),
        min_size=1, max_size=120,
    ))
    events = []
    for tid, coin, pick, repeat in raw:
        pool = marker_bids if coin < density else others
        events.append((tid, pool[pick % len(pool)], repeat))
    n = len(events)
    slice_size = draw(st.one_of(st.integers(1, 12), st.integers(13, 400)))
    cuts = draw(st.lists(st.integers(0, n), max_size=12))
    per_event_batches = draw(st.sets(st.integers(0, 12), max_size=4))
    return events, marker_bids, slice_size, cuts, per_event_batches


@given(scenarios())
@settings(max_examples=300, deadline=None)
def test_batched_slicer_matches_per_event(scenario):
    mid, final = run_both(*scenario)
    assert mid[1] == mid[0]
    assert final[1] == final[0]


def test_close_at_batch_position_zero():
    """The open slice is already full when a batch starts with a marker:
    the close lands before the batch's first event."""
    hdr, plain = ELIGIBLE[0], 2
    events = [(0, plain, 4), (1, hdr, 1), (2, hdr, 2), (3, plain, 1)]
    size = BLOCKS[hdr].n_instr
    mid, final = run_both(
        events, [hdr], size, cuts=[1, 2], per_event_batches=()
    )
    assert mid[1] == mid[0]
    assert final[1] == final[0]
    slices = final[0][0]
    # Both markers close: each finds >= size filtered instructions open.
    assert [s[2].count for s in slices[:2]] == [0, 1]
    assert slices[0][4] == 4 * BLOCKS[plain].n_instr


def test_every_marker_closes_at_slice_size_one():
    hdr = ELIGIBLE[0]
    events = [(t % NTHREADS, hdr, 1) for t in range(40)]
    mid, final = run_both(
        events, [hdr], 1, cuts=[1, 2, 3, 10, 11, 25], per_event_batches=()
    )
    assert final[1] == final[0]
    # The first marker event opens the run; each later one closes a slice.
    assert len(final[0][0]) == len(events)


def test_close_exactly_at_slice_size():
    """A marker whose pre-event count equals ``slice_size`` closes (>=)."""
    hdr, plain = ELIGIBLE[0], 2
    n = BLOCKS[plain].n_instr
    events = [(0, plain, 3), (0, hdr, 1), (1, plain, 1)]
    mid, final = run_both(events, [hdr], 3 * n, cuts=[], per_event_batches=())
    assert final[1] == final[0]
    slices = final[0][0]
    assert len(slices) == 2
    assert slices[0][4] == 3 * n  # the marker event is not in it
    assert slices[1][4] == BLOCKS[hdr].n_instr + n

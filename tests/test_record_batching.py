"""The batch-native recorder and DCFG builder against per-event delivery.

``Recorder.on_block_batch`` groups a batch by thread and merges library
runs (into the log tail too); ``Recorder.on_sync`` takes no flush and
queues each sync at the ring's ``events_appended``, to be placed after
exactly its thread's events with a lower ring index.
``DCFGBuilder.on_block_batch`` reduces a batch's edges and node counts
with one stable sort per key space.  Fed through an :class:`EventRing`
at any capacity, with any extra flush points and with syncs delivered
the way the drivers deliver them (no flush first, because neither
observer asks for one), both must leave exactly the state that
feeding the same stream one event at a time leaves: the same logs, the
same edge and node counts in the same dict key order, and the same
per-thread graphs.

The streams are generated over the toy program's block table (library
and main-image blocks, repeated runs, syncs anywhere) and taken from
the engine and the replayer themselves, captured per event.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import get_scale
from repro.core.looppoint import LoopPointOptions, LoopPointPipeline
from repro.dcfg.graph import DCFGBuilder
from repro.exec_engine.engine import ExecutionEngine
from repro.exec_engine.observers import Observer
from repro.obs.tracer import Tracer, obs_scope
from repro.perf.ring import EventRing
from repro.pinplay.recorder import Recorder, record_execution
from repro.pinplay.replayer import ConstrainedReplayer
from repro.policy import WaitPolicy
from repro.workloads import get_workload

from conftest import build_toy

NTHREADS = 4
PROGRAM, THREAD_PROGRAM, OMP = build_toy(
    nthreads_hint=NTHREADS, with_critical=True
)
BLOCKS = PROGRAM.blocks
LIBRARY = [b.bid for b in BLOCKS if b.image.is_library]
MAIN = [b.bid for b in BLOCKS if not b.image.is_library]


class _Capture(Observer):
    """Keeps the default strict flag: with a capacity-1 ring every block
    and sync arrives one at a time, in execution order."""

    def __init__(self):
        self.stream = []

    def on_block(self, tid, block, repeat):
        self.stream.append(("b", tid, block.bid, repeat))

    def on_sync(self, tid, kind, obj_id, response, gseq):
        self.stream.append(("s", tid, kind, obj_id, response, gseq))


@lru_cache(maxsize=None)
def _driver_stream(driver, policy):
    """The engine's or the replayer's event stream for the toy program."""
    capture = _Capture()
    if driver == "engine":
        ExecutionEngine(
            PROGRAM, THREAD_PROGRAM, OMP, NTHREADS, wait_policy=policy,
            seed=5, observers=(capture,), batch_capacity=1,
        ).run()
    else:
        pinball, _ = record_execution(
            PROGRAM, THREAD_PROGRAM, OMP, NTHREADS, wait_policy=policy,
            seed=5,
        )
        ConstrainedReplayer(
            PROGRAM, pinball, observers=(capture,), batch_capacity=1,
        ).run()
    return tuple(capture.stream)


def _observers(track_threads):
    return (
        Recorder(NTHREADS),
        DCFGBuilder(PROGRAM, NTHREADS, track_threads=track_threads),
    )


def _state(recorder, builder, track_threads):
    graph = builder.result()
    state = [
        recorder.logs,
        list(graph.edge_counts.items()),
        list(graph.node_counts.items()),
    ]
    if track_threads:
        state.append([
            (list(g.edge_counts.items()), list(g.node_counts.items()))
            for g in builder.thread_graphs()
        ])
    return state


def _per_event(stream, track_threads):
    recorder, builder = _observers(track_threads)
    for event in stream:
        if event[0] == "b":
            _, tid, bid, repeat = event
            recorder.on_block(tid, BLOCKS[bid], repeat)
            builder.on_block(tid, BLOCKS[bid], repeat)
        else:
            recorder.on_sync(*event[1:])
    return _state(recorder, builder, track_threads)


def _through_ring(stream, track_threads, capacity, flush_at):
    recorder, builder = _observers(track_threads)
    ring = EventRing(
        BLOCKS, NTHREADS, (recorder, builder), capacity=capacity
    )
    assert not ring.flush_on_sync
    for i, event in enumerate(stream):
        if i in flush_at:
            ring.flush()
        if event[0] == "b":
            ring.append(*event[1:])
        else:
            recorder.on_sync(*event[1:])
    ring.flush()
    return _state(recorder, builder, track_threads)


@st.composite
def generated_streams(draw):
    """Block runs over a few blocks (so library runs repeat and merge),
    single syncs of any thread, and barriers: every thread syncs, in a
    drawn order, with no block event between.  Block events come from
    the first ``active`` threads only, so the others' syncs all fall
    past every event of a batch."""
    bids = draw(st.lists(
        st.sampled_from(LIBRARY + MAIN), min_size=1, max_size=4,
        unique=True,
    ))
    active = draw(st.integers(1, NTHREADS))
    # Items of up to 4 events each: the batched path needs batches of
    # at least SMALL_BATCH_THRESHOLD events.
    raw = draw(st.lists(
        st.tuples(
            st.integers(0, 19), st.integers(0, NTHREADS - 1),
            st.sampled_from(bids), st.integers(1, 5), st.integers(1, 4),
            st.permutations(range(NTHREADS)),
        ),
        min_size=15, max_size=120,
    ))
    stream = []
    gseq = 0
    for coin, tid, bid, repeat, count, order in raw:
        if coin < 3:
            for t in (order if coin == 0 else [tid]):
                stream.append(("s", t, "barrier", coin, None, gseq))
                gseq += 1
        else:
            stream.extend([("b", tid % active, bid, repeat)] * count)
    return stream


def ring_plans(n):
    """A capacity (some under the small-flush threshold, where flushes go
    through ``on_block``) and extra flush points."""
    return st.tuples(
        st.one_of(st.integers(1, 8), st.integers(40, 60),
                  st.integers(61, 400)),
        st.sets(st.integers(0, max(n - 1, 0)), max_size=10),
    )


@given(st.data(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_generated_streams_match_per_event(data, track_threads):
    stream = data.draw(generated_streams())
    capacity, flush_at = data.draw(ring_plans(len(stream)))
    assert _through_ring(
        stream, track_threads, capacity, flush_at
    ) == _per_event(stream, track_threads)


@pytest.mark.parametrize("policy", [WaitPolicy.PASSIVE, WaitPolicy.ACTIVE])
@pytest.mark.parametrize("driver", ["engine", "replayer"])
@given(data=st.data(), track_threads=st.booleans())
@settings(max_examples=15, deadline=None)
def test_driver_streams_match_per_event(driver, policy, data, track_threads):
    stream = _driver_stream(driver, policy)
    capacity, flush_at = data.draw(ring_plans(len(stream)))
    assert _through_ring(
        stream, track_threads, capacity, flush_at
    ) == _per_event(stream, track_threads)


def test_sync_splits_a_library_run():
    """A sync between two executions of one library block keeps them in
    two entries, also when the ring holds both across the sync."""
    lib = LIBRARY[0]
    stream = [
        ("b", 0, lib, 2), ("s", 0, "barrier", 1, None, 0),
        ("b", 0, lib, 3), ("b", 1, lib, 1), ("b", 0, lib, 1),
    ]
    logs = _through_ring(stream, False, 64, set())[0]
    assert logs[0] == [
        ("b", lib, 2), ("s", "barrier", 1, None, 0), ("b", lib, 4),
    ]
    assert logs == _per_event(stream, False)[0]


def test_barrier_of_idle_threads_past_a_batch():
    """Threads 2 and 3 run nothing in the batch, and their barrier syncs
    arrive in the order 3, 2: both land past every run of the batch, and
    each still goes to its own thread's log."""
    main = MAIN[0]
    stream = [("b", i % 2, main, 1) for i in range(60)] + [
        ("s", 3, "barrier", 7, None, 0), ("s", 2, "barrier", 7, None, 1),
        ("s", 1, "barrier", 7, None, 2), ("s", 0, "barrier", 7, None, 3),
    ]
    logs = _through_ring(stream, False, 100, set())[0]
    assert logs[2] == [("s", "barrier", 7, None, 1)]
    assert logs[3] == [("s", "barrier", 7, None, 0)]
    assert logs == _per_event(stream, False)[0]


def test_recording_flushes_per_batch_not_per_sync(tmp_path):
    """An ordinary recording (recorder plus DCFG builder) attaches no
    observer that asks for a flush before each sync."""
    scale = get_scale("tiny")
    workload = get_workload("npb-is", "C", 8, scale=scale)
    pipeline = LoopPointPipeline(
        workload, options=LoopPointOptions(scale=scale, jobs=1)
    )
    tracer = Tracer(str(tmp_path / "t.jsonl"))
    with obs_scope(tracer):
        pinball = pipeline.record()
    tracer.finish()
    counters = tracer.metrics.counters
    syncs = sum(
        1 for log in pinball.logs for entry in log if entry[0] == "s"
    )
    flushes = (
        counters["engine.ring.flushes"]
        + counters["engine.ring.small_flushes"]
    )
    assert syncs > 100
    assert flushes <= 4

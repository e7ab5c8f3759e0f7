"""Compiled thread streams: the tapes both drivers run.

Every :class:`~repro.runtime.thread.ThreadProgram` compiles into per-thread
**tapes**, flat op lists whose block runs are columnar (``bids``,
``repeats``, cumulative instruction prefix sums).  This compiler is the one
place that says what a construct executes.  The functional
:class:`~repro.exec_engine.engine.ExecutionEngine` consumes a whole
scheduling quantum with one ``bisect`` over a prefix-sum list and C-speed
slice ``extend``s into the :class:`~repro.perf.ring.EventRing` buffers.  The
timing :class:`~repro.timing.mcsim.MultiCoreSimulator` walks the same
tapes one event per turn, in simulated-time order.

A block run (``OP_RUN``) is a row pattern with its prefix sums, repeated
for some number of passes.  A constant-trip worker loop (the common case)
is one iteration's pattern repeated once per iteration, so compile cost
is ``O(events per iteration)``, independent of the iteration count, which
matters because engines are constructed per run.  Where the pattern
varies (iteration-dependent trip counts, atomic interleavings,
critical-section fragments, recorded logs) the run is an explicit event
table of one pass.

Synchronization stays event-at-a-time: ``OP_SYNC`` carries the *interned*
sync event (one instance per construct) and dispatches through the
driver's handlers, so barrier/lock semantics, gseq numbering and observer
callbacks are those of the event stream.  Chunk and single requests have
their own ops (``OP_CHUNK``, ``OP_SINGLE``): the driver's grant, decided
when the request runs, picks what the thread runs next.  Every grant runs
a sub-tape that ends in ``OP_RET``, which returns to the stream: a
dynamic-schedule loop compiles each chunk once into its own sub-tape
(grants start at multiples of the chunk size, so chunk ``k``'s ops are
fixed under any grant order, and lock syncs sit inside them), and a
``single`` carries the sub-tape of its work.

Recorded checkpoints tape too, for the timing simulator only:
:func:`log_tape` turns a log of block entries and sync entries into
one-pass ``OP_RUN`` ops, one row per block entry, and one op per sync
entry.  An ELFie's syncs become ``OP_SYNC`` ops; a pinball's become
``OP_GSEQ`` ops, which run in recorded ``gseq`` order.

Contract: a tape holds exactly the event sequence the construct's
OpenMP semantics prescribe for its thread.  The test suite keeps
generator-driven references, a functional engine and a timed simulator
that resume one generator per construct event, and checks that running
the tapes gives the same :class:`~repro.exec_engine.engine.EngineResult`,
observer callbacks and :class:`~repro.timing.mcsim.SimulationResult`.
Only the built-in construct types compile: any other
:class:`~repro.runtime.constructs.Construct` subclass makes
:func:`compile_streams` raise :class:`~repro.errors.ExecutionError`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..errors import ExecutionError

#: Tape op codes.  Block runs are consumed by the drivers' run loops; the
#: rest dispatch one event through the drivers' sync handlers, except
#: ``OP_RET`` and ``OP_DONE``, which are not events.
OP_RUN = 0     # (0, bids, reps, pre_t, pre_f, passes)  pre_* have one
#                more entry than bids; the pattern runs ``passes`` times
OP_SYNC = 1    # (1, event)
OP_CHUNK = 2   # (2, event, chunk_tapes)  chunk_tapes[k]: chunk k's ops
OP_SINGLE = 3  # (3, event, tape_or_None)  the winner's ops
OP_DONE = 4    # (4,)  end-of-tape sentinel appended to every stream, so the
#                hot loop never compares the op index against a length
OP_RET = 5     # (5,)  ends every sub-tape: back to the stream
OP_GSEQ = 6    # (6, gseq, (kind, obj_id))  a recorded sync action, due at
#                its gseq turn: pinball tapes only, for the timing simulator

#: The shared end-of-tape sentinel instance (``streams[tid][-1]`` always).
DONE_OP = (OP_DONE,)
RET_OP = (OP_RET,)


def _pattern_key(work) -> Optional[Tuple]:
    """A structural identity for a constant-trip pattern, or ``None``.

    Two :class:`LoopWork` instances over the same header and body blocks
    with equal constant trip counts compile to identical pattern columns —
    workload builders routinely construct hundreds of such clones (one per
    phase repetition), and compilation happens per engine construction, so
    recognizing them matters.  Keys hold ``id()``s of blocks that are alive
    for the duration of the memo (one :func:`compile_streams` call), never
    longer.
    """
    body_key = []
    for block, trip in work.body:
        if callable(trip):
            return None
        body_key.append((id(block), trip))
    return (id(work.header), tuple(body_key))


def _pattern_cols(
    work, batch_limit: int, memo: Optional[dict] = None
) -> Optional[Tuple]:
    """One iteration's event pattern as columns, or ``None`` (callable
    trips).

    Returns ``(bids, reps, pre_t, pre_f)`` where ``pre_t[i]``/``pre_f[i]``
    are total/filtered instructions of pattern events ``[0, i)``.  Cached
    on the :class:`LoopWork` — the pattern is range-independent — and,
    when ``memo`` is given, shared across structurally identical works
    within one compilation.
    """
    cached = getattr(work, "_sched_pattern", None)
    if cached is not None:
        return cached or None
    key = _pattern_key(work) if memo is not None else None
    if key is not None:
        hit = memo.get(key)
        if hit is not None:
            object.__setattr__(work, "_sched_pattern", hit)
            return hit
    if any(callable(trip) for _block, trip in work.body):
        # Iteration-dependent trip counts: no constant pattern.  Cache the
        # negative result too (an empty tuple, distinguished from None).
        object.__setattr__(work, "_sched_pattern", ())
        return None
    rows = TableRows()
    _emit_iteration(rows, work, 0, batch_limit)
    cols = (rows.bids, rows.reps, rows.pre_t, rows.pre_f)
    object.__setattr__(work, "_sched_pattern", cols)
    if key is not None:
        memo[key] = cols
    return cols


class TableRows:
    """An event-table builder tracking prefix sums."""

    __slots__ = ("bids", "reps", "pre_t", "pre_f")

    def __init__(self) -> None:
        self.bids: List[int] = []
        self.reps: List[int] = []
        self.pre_t: List[int] = [0]
        self.pre_f: List[int] = [0]

    def append(self, block, rep: int) -> None:
        n = block.n_instr * rep
        self.bids.append(block.bid)
        self.reps.append(rep)
        self.pre_t.append(self.pre_t[-1] + n)
        self.pre_f.append(
            self.pre_f[-1] + (0 if block.image.is_library else n)
        )

    def expand(self, block, n: int, batch_limit: int) -> None:
        """``n`` back-to-back runs of ``block``, batched: rows of
        ``batch_limit`` repeats, then the remainder."""
        while n > batch_limit:
            self.append(block, batch_limit)
            n -= batch_limit
        if n > 0:
            self.append(block, n)

    def ops(self) -> List[Tuple]:
        """The table as a one-pass run op, or no op when it is empty."""
        if not self.bids:
            return []
        return [(OP_RUN, self.bids, self.reps, self.pre_t, self.pre_f, 1)]


def log_tape(log, blocks, sync_op: Callable[[tuple], Tuple]) -> List[Tuple]:
    """One thread's tape from a recorded log or ELFie code.

    Each ``("b", bid, repeat)`` entry becomes one row (one event) of a
    one-pass ``OP_RUN``; any other entry becomes the op ``sync_op(entry)``
    returns.
    """
    tape: List[Tuple] = []
    rows = TableRows()
    for entry in log:
        if entry[0] == "b":
            rows.append(blocks[entry[1]], entry[2])
            continue
        tape += rows.ops()
        rows = TableRows()
        tape.append(sync_op(entry))
    tape += rows.ops()
    tape.append(DONE_OP)
    return tape


def _emit_iteration(rows: TableRows, work, i: int, batch_limit: int) -> None:
    """Append iteration ``i``'s events: the header once, then each body
    block for its trip count, batched."""
    rows.append(work.header, 1)
    for block, trip in work.body:
        rows.expand(block, trip(i) if callable(trip) else trip, batch_limit)


def _work_ops(
    work, lo: int, hi: int, batch_limit: int,
    memo: Optional[dict] = None,
) -> List[Tuple]:
    """Ops for plain iterations ``[lo, hi)`` of ``work``: the constant
    pattern repeated ``hi - lo`` times, or an explicit table."""
    if hi <= lo:
        return []
    pat = _pattern_cols(work, batch_limit, memo)
    if pat is not None:
        return [(OP_RUN, *pat, hi - lo)]
    rows = TableRows()
    for i in range(lo, hi):
        _emit_iteration(rows, work, i, batch_limit)
    return rows.ops()


def _loop_ops(
    pf, lo: int, hi: int, batch_limit: int, memo: Optional[dict] = None,
) -> List[Tuple]:
    """Ops for iterations ``[lo, hi)`` of a loop, a static thread's share
    or a dynamic chunk alike: each iteration's work, then the critical
    section when due, then the atomic update when due.  The pending table
    is flushed at each lock boundary."""
    work = pf.work
    crit = pf.critical
    atom = pf.atomic
    if crit is None and atom is None:
        return _work_ops(work, lo, hi, batch_limit, memo)
    if crit is not None:
        crit_rows = TableRows()
        crit_rows.append(crit.block, 1)
        crit_ops = [(OP_SYNC, pf._lock_acq_event()), *crit_rows.ops(),
                    (OP_SYNC, pf._lock_rel_event())]
    ops: List[Tuple] = []
    rows = TableRows()
    for i in range(lo, hi):
        _emit_iteration(rows, work, i, batch_limit)
        if crit is not None and i % crit.every == 0:
            ops += rows.ops()
            rows = TableRows()
            ops += crit_ops
        if atom is not None and i % atom.every == 0:
            rows.append(atom.block, 1)
    ops += rows.ops()
    return ops


# Lazily-bound references into runtime.constructs (imported at first use;
# a module-level import would be circular).  _compile_parallel_for runs
# hundreds of times per compilation, so the per-call import machinery —
# cheap but not free — is hoisted out of it.
_SCHEDULE_STATIC = None
_static_chunk = None


def _compile_parallel_for(pf, nthreads: int, batch_limit: int, memo=None):
    global _SCHEDULE_STATIC, _static_chunk
    if _static_chunk is None:
        from ..runtime.constructs import SCHEDULE_STATIC, static_chunk
        _SCHEDULE_STATIC = SCHEDULE_STATIC
        _static_chunk = static_chunk

    total = pf.total_iters
    tail: List[Tuple] = []
    if pf.reduction:
        tail.append((OP_SYNC, pf._reduce_event()))
    if not pf.nowait:
        tail.append((OP_SYNC, pf._barrier_event()))

    # Constant-pattern iterations with no lock traffic compile to the same
    # op list whenever their counts match (the run op repeats the pattern,
    # so only ``hi - lo`` matters): build each distinct count once and
    # share the list across threads and chunks.  Compilation happens per
    # engine construction, so this is hot.
    by_count = (
        {}
        if pf.critical is None and pf.atomic is None
        and _pattern_cols(pf.work, batch_limit, memo) is not None
        else None
    )

    def span(lo: int, hi: int, end: List[Tuple]) -> List[Tuple]:
        if by_count is None:
            return _loop_ops(pf, lo, hi, batch_limit, memo) + end
        ops = by_count.get(hi - lo)
        if ops is None:
            ops = by_count[hi - lo] = (
                _loop_ops(pf, lo, hi, batch_limit, memo) + end
            )
        return ops

    if pf.schedule == _SCHEDULE_STATIC:
        # Chunk boundaries depend only on (total_iters, nthreads): share
        # them across the hundreds of same-shape constructs one compile
        # sees (phase repetitions all split the same iteration space).
        chunks = None
        if memo is not None:
            chunk_key = ("chunks", total, nthreads)
            chunks = memo.get(chunk_key)
        if chunks is None:
            chunks = [_static_chunk(total, nthreads, t)
                      for t in range(nthreads)]
            if memo is not None:
                memo[chunk_key] = chunks
        return [span(start, stop, tail) for start, stop in chunks]

    # Dynamic schedule: grants start at multiples of the chunk size, so
    # each chunk compiles once into a sub-tape.
    chunk_tapes = [
        span(start, min(start + pf.chunk, total), [RET_OP])
        for start in range(0, total, pf.chunk)
    ]
    ops = [(OP_CHUNK, pf._chunk_event(), chunk_tapes)] + tail
    return [ops] * nthreads


def _compile_serial(c, nthreads: int, batch_limit: int, memo=None):
    barrier = (OP_SYNC, c._barrier_event())
    master_ops = _work_ops(c.work, 0, c.iters, batch_limit, memo) + [barrier]
    waiter_ops = [barrier]
    return [master_ops] + [waiter_ops] * (nthreads - 1)


def _compile_barrier(c, nthreads: int):
    ops = [(OP_SYNC, c._barrier_event())]
    return [ops] * nthreads


def _compile_single(c, nthreads: int, batch_limit: int, memo=None):
    work = _work_ops(c.work, 0, c.iters, batch_limit, memo)
    ops = [(OP_SINGLE, c._single_event(), work + [RET_OP] if work else None),
           (OP_SYNC, c._barrier_event())]
    return [ops] * nthreads


def _compile_master(c, nthreads: int, batch_limit: int, memo=None):
    master_ops = _work_ops(c.work, 0, c.iters, batch_limit, memo)
    return [master_ops if tid == 0 else [] for tid in range(nthreads)]


def compile_streams(thread_program, nthreads: int) -> List[List]:
    """Compile every construct for every thread into per-thread tapes.

    Returns ``streams[tid] -> [op, ...]``.  Raises
    :class:`~repro.errors.ExecutionError` naming the class of any
    construct that is not one of the built-in types.  Per-construct
    results are cached on the construct instance keyed by ``nthreads``, so
    repeated engine construction over the same workload pays compilation
    once.
    """
    from ..runtime.constructs import (
        BATCH_LIMIT,
        Barrier,
        Master,
        ParallelFor,
        Serial,
        Single,
    )

    # Pattern memo shared across this compilation: workloads that repeat a
    # phase build hundreds of structurally identical LoopWork clones, and
    # all of them compile to the same columns (see :func:`_pattern_key`).
    memo: dict = {}
    compilers = {
        ParallelFor: lambda c: _compile_parallel_for(
            c, nthreads, BATCH_LIMIT, memo
        ),
        Serial: lambda c: _compile_serial(c, nthreads, BATCH_LIMIT, memo),
        Barrier: lambda c: _compile_barrier(c, nthreads),
        Single: lambda c: _compile_single(c, nthreads, BATCH_LIMIT, memo),
        Master: lambda c: _compile_master(c, nthreads, BATCH_LIMIT, memo),
    }
    streams: List[List] = [[] for _ in range(nthreads)]
    for construct in thread_program.constructs:
        compiler = compilers.get(type(construct))
        if compiler is None:
            # Exact type match only: a subclass may carry semantics the
            # tape cannot represent.
            raise ExecutionError(
                f"cannot tape construct {type(construct).__name__}: only "
                f"ParallelFor, Serial, Barrier, Single and Master compile"
            )
        cache = getattr(construct, "_sched_tape_cache", None)
        if cache is None:
            cache = construct._sched_tape_cache = {}
        per_tid = cache.get(nthreads)
        if per_tid is None:
            per_tid = cache[nthreads] = compiler(construct)
        for tid in range(nthreads):
            streams[tid].extend(per_tid[tid])
    for tape in streams:
        tape.append(DONE_OP)
    return streams

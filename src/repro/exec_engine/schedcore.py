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

Two block-run encodings exist:

* ``OP_TILED`` — a constant-trip worker loop (the common case): one
  iteration's event pattern plus per-iteration instruction totals.  The
  drivers replay ``n_iters`` copies — compile cost is
  ``O(events per iteration)``, independent of the iteration count, which
  matters because engines are constructed per run.
* ``OP_TABLE`` — an explicit event table with prefix sums, used where the
  per-iteration pattern varies (iteration-dependent trip counts, atomic
  interleavings, critical-section fragments, dynamic-schedule chunks
  sliced via ``iter_off``).

Synchronization stays event-at-a-time: ``OP_SYNC`` carries the *interned*
sync event (one instance per construct) and dispatches through the
driver's handlers, so barrier/lock semantics, gseq numbering and observer
callbacks are those of the event stream.  Chunk and single requests have
their own ops (``OP_CHUNK``, ``OP_CHUNK_TAPE``, ``OP_SINGLE``): the
driver's grant, decided when the request runs, picks what the thread runs
next.  A dynamic-schedule loop with a critical section compiles each chunk
into its own sub-tape (``OP_CHUNK_TAPE``): grants start at multiples of
the chunk size, so chunk ``k``'s ops are fixed under any grant order, and
lock syncs sit inside them.

Recorded checkpoints tape too, for the timing simulator only:
:func:`log_tape` turns a log of block entries and sync entries into one
``OP_TABLE`` row per block entry and one op per sync entry.  An ELFie's
syncs become ``OP_SYNC`` ops; a pinball's become ``OP_GSEQ`` ops, which
run in recorded ``gseq`` order.

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

#: Tape op codes.  Block runs (`OP_TILED`/`OP_TABLE`) are consumed by the
#: engine's bisect loop; the rest dispatch one event through the engine's
#: sync handlers.
OP_TILED = 0   # (0, bids, reps, pre_t, pre_f, m, iter_t, iter_f, n_iters)
OP_TABLE = 1   # (1, bids, reps, pre_t, pre_f, i0, i1)
OP_SYNC = 2    # (2, event)
OP_CHUNK = 3   # (3, event, bids, reps, pre_t, pre_f, iter_off)
OP_SINGLE = 4  # (4, event, run_or_None)  run = (bids, reps, pre_t, pre_f)
OP_DONE = 5    # (5,)  end-of-tape sentinel appended to every stream, so the
#                hot loop never compares the op index against a length
OP_CHUNK_TAPE = 6  # (6, event, chunk_tapes)  chunk_tapes[k]: chunk k's ops
OP_RET = 7     # (7,)  ends every chunk tape: back to its OP_CHUNK_TAPE op
OP_GSEQ = 8    # (8, gseq, (kind, obj_id))  a recorded sync action, due at
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

    Returns ``(bids, reps, pre_t, pre_f, m, iter_t, iter_f)`` where
    ``pre_t[i]``/``pre_f[i]`` are total/filtered instructions of pattern
    events ``[0, i)`` (length ``m + 1``) and ``iter_t``/``iter_f`` the full
    iteration's totals.  Cached on the :class:`LoopWork` — the pattern is
    range-independent — and, when ``memo`` is given, shared across
    structurally identical works within one compilation.
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
    cols = (rows.bids, rows.reps, rows.pre_t, rows.pre_f, len(rows),
            rows.pre_t[-1], rows.pre_f[-1])
    object.__setattr__(work, "_sched_pattern", cols)
    if key is not None:
        memo[key] = cols
    return cols


class TableRows:
    """An event-table builder tracking prefix sums and iteration offsets."""

    __slots__ = ("bids", "reps", "pre_t", "pre_f", "iter_off")

    def __init__(self) -> None:
        self.bids: List[int] = []
        self.reps: List[int] = []
        self.pre_t: List[int] = [0]
        self.pre_f: List[int] = [0]
        self.iter_off: List[int] = []

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

    def __len__(self) -> int:
        return len(self.bids)

    def table_op(self) -> Optional[Tuple]:
        if not self.bids:
            return None
        return (
            OP_TABLE, self.bids, self.reps, self.pre_t, self.pre_f,
            0, len(self.bids),
        )


def log_tape(log, blocks, sync_op: Callable[[tuple], Tuple]) -> List[Tuple]:
    """One thread's tape from a recorded log or ELFie code.

    Each ``("b", bid, repeat)`` entry becomes one ``OP_TABLE`` row (one
    event); any other entry becomes the op ``sync_op(entry)`` returns.
    """
    tape: List[Tuple] = []
    rows = TableRows()
    for entry in log:
        if entry[0] == "b":
            rows.append(blocks[entry[1]], entry[2])
            continue
        op = rows.table_op()
        if op is not None:
            tape.append(op)
            rows = TableRows()
        tape.append(sync_op(entry))
    op = rows.table_op()
    if op is not None:
        tape.append(op)
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
    """Ops for plain iterations ``[lo, hi)`` of ``work`` (no crit/atomic)."""
    if hi <= lo:
        return []
    pat = _pattern_cols(work, batch_limit, memo)
    if pat is not None:
        bids, reps, pre_t, pre_f, m, iter_t, iter_f = pat
        if m == 0:
            return []
        return [(OP_TILED, bids, reps, pre_t, pre_f, m, iter_t, iter_f,
                 hi - lo)]
    rows = TableRows()
    for i in range(lo, hi):
        _emit_iteration(rows, work, i, batch_limit)
    op = rows.table_op()
    return [op] if op is not None else []


def _crit_ops(pf, start: int, stop: int, batch_limit: int) -> List[Tuple]:
    """Ops for iterations ``[start, stop)`` of a loop with a critical
    section: each iteration's work, then the critical section when due,
    then the atomic update when due.  The pending table is flushed at each
    lock boundary."""
    work = pf.work
    crit = pf.critical
    atom = pf.atomic
    acq = (OP_SYNC, pf._lock_acq_event())
    rel = (OP_SYNC, pf._lock_rel_event())
    crit_rows = TableRows()
    crit_rows.append(crit.block, 1)
    crit_op = crit_rows.table_op()
    ops: list = []
    rows = TableRows()
    for i in range(start, stop):
        _emit_iteration(rows, work, i, batch_limit)
        if i % crit.every == 0:
            op = rows.table_op()
            if op is not None:
                ops.append(op)
            rows = TableRows()
            ops += (acq, crit_op, rel)
        if atom is not None and i % atom.every == 0:
            rows.append(atom.block, 1)
    op = rows.table_op()
    if op is not None:
        ops.append(op)
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

    work = pf.work
    crit = pf.critical
    atom = pf.atomic
    tail: List[Tuple] = []
    if pf.reduction:
        tail.append((OP_SYNC, pf._reduce_event()))
    if not pf.nowait:
        tail.append((OP_SYNC, pf._barrier_event()))

    if pf.schedule == _SCHEDULE_STATIC:
        # Constant-pattern chunks with no lock traffic compile to the same
        # op list whenever their chunk *sizes* match (the tiled op rolls
        # iterations arithmetically, so only ``hi - lo`` matters) — build
        # each distinct size once and share the list across threads.
        # Compilation happens per engine construction, so this is hot.
        shared = (
            {}
            if crit is None and atom is None
            and _pattern_cols(work, batch_limit, memo) is not None
            else None
        )
        # Chunk boundaries depend only on (total_iters, nthreads): share
        # them across the hundreds of same-shape constructs one compile
        # sees (phase repetitions all split the same iteration space).
        chunks = None
        if memo is not None:
            chunk_key = ("chunks", pf.total_iters, nthreads)
            chunks = memo.get(chunk_key)
        if chunks is None:
            chunks = [
                _static_chunk(pf.total_iters, nthreads, t)
                for t in range(nthreads)
            ]
            if memo is not None:
                memo[chunk_key] = chunks
        per_tid = []
        for tid in range(nthreads):
            start, stop = chunks[tid]
            if shared is not None:
                ops = shared.get(stop - start)
                if ops is None:
                    ops = (
                        _work_ops(work, start, stop, batch_limit, memo)
                        + tail
                    )
                    shared[stop - start] = ops
                per_tid.append(ops)
                continue
            if crit is None and atom is None:
                ops = _work_ops(work, start, stop, batch_limit, memo)
            elif crit is None:
                # Atomic updates are plain block events: fold them into
                # the iteration table, each after its iteration's work.
                rows = TableRows()
                for i in range(start, stop):
                    _emit_iteration(rows, work, i, batch_limit)
                    if i % atom.every == 0:
                        rows.append(atom.block, 1)
                op = rows.table_op()
                ops = [op] if op is not None else []
            else:
                ops = _crit_ops(pf, start, stop, batch_limit)
            per_tid.append(ops + tail)
        return per_tid

    # Dynamic schedule.  Grants start at multiples of the chunk size, so
    # with a critical section each chunk compiles once into a sub-tape
    # (lock syncs sit inside it); without one, one shared table over the
    # whole iteration space is sliced per granted chunk via iter_off.
    if crit is not None:
        chunk_tapes = [
            _crit_ops(pf, start, min(start + pf.chunk, pf.total_iters),
                      batch_limit) + [RET_OP]
            for start in range(0, pf.total_iters, pf.chunk)
        ]
        ops = [(OP_CHUNK_TAPE, pf._chunk_event(), chunk_tapes)] + tail
        return [ops] * nthreads
    rows = TableRows()
    for i in range(pf.total_iters):
        rows.iter_off.append(len(rows))
        _emit_iteration(rows, work, i, batch_limit)
        if atom is not None and i % atom.every == 0:
            rows.append(atom.block, 1)
    rows.iter_off.append(len(rows))
    op = (OP_CHUNK, pf._chunk_event(), rows.bids, rows.reps,
          rows.pre_t, rows.pre_f, rows.iter_off)
    ops = [op] + tail
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
    rows = TableRows()
    for i in range(c.iters):
        _emit_iteration(rows, c.work, i, batch_limit)
    run = (rows.bids, rows.reps, rows.pre_t, rows.pre_f) if rows.bids else None
    ops = [(OP_SINGLE, c._single_event(), run),
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

"""Performance kernels: clustering reductions and the scheduler-core tiers.

Two families live here:

**Clustering kernels.**  The K-means assignment step used to broadcast
``points[:, None, :] - centroids[None, :, :]``, allocating an
``O(n * k * d)`` temporary per Lloyd iteration.  :func:`assign_labels`
computes the same squared distances in the GEMM form
``|x|^2 + |c|^2 - 2 x . c^T`` with row chunking, so peak memory is bounded
by ``chunk_rows * k`` at any population size and the inner product runs
through BLAS.  :func:`weighted_means` replaces the per-cluster
boolean-mask update loop with a single ``np.bincount`` pass over flattened
``(cluster, dimension)`` cells instead of ``k`` mask scans (or one
``bincount`` per dimension).

**Scheduler-kernel tiers.**  The tape-driven scheduler loop (see
:mod:`repro.exec_engine.schedcore`) is the wall-clock core of every
functional execution.  Its round prologue pays for configuration tests —
wait policy, flow control, event bounding — that are invariant for the
whole run.  The loop is kept as a single **source template**
(:data:`_KERNEL_TEMPLATE`) and rendered in two tiers:

* ``reference`` — every configuration test left in as a runtime branch.
  Pure Python, always available, the authoritative semantics.
* ``compiled`` — the run's actual configuration folded into the source
  before ``compile()``: the ACTIVE-spin scan, the flow-control
  eligibility branch and the ``max_events`` bound disappear from the
  bytecode when the run does not use them.  Still pure Python —
  "compiled" means source-specialized, not natively compiled.

Both tiers render from the same template, so there is exactly one
statement of the loop's semantics and the tiers are bit-identical by
construction (enforced by the tier-parity tests): identical event order,
rng-stream consumption, observer state and
:class:`~repro.exec_engine.engine.EngineResult`.

The engine takes the tier as its ``kernel_tier=`` argument and defaults
to ``compiled``; the ``reference`` tier is what the tier-parity tests
compare against.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

#: Row-chunk size for the GEMM assignment: bounds the distance temporary at
#: ``DEFAULT_CHUNK_ROWS * k`` doubles regardless of the population size.
DEFAULT_CHUNK_ROWS = 16384


def squared_distances(
    points: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """Full ``(n, k)`` squared-distance matrix in the GEMM form.

    Clamped at zero: cancellation in ``|x|^2 + |c|^2 - 2 x . c^T`` can
    produce tiny negative values for near-coincident pairs.
    """
    x2 = np.einsum("ij,ij->i", points, points)
    c2 = np.einsum("ij,ij->i", centroids, centroids)
    d2 = x2[:, None] + c2[None, :] - 2.0 * (points @ centroids.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def assign_labels(
    points: np.ndarray,
    centroids: np.ndarray,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid assignment; returns ``(labels, min_sq_dist)``.

    Processes ``chunk_rows`` points at a time so the ``chunk x k`` distance
    temporary stays bounded at any ``n * k``.
    """
    n = points.shape[0]
    labels = np.empty(n, dtype=np.int64)
    min_d2 = np.empty(n, dtype=np.float64)
    c2 = np.einsum("ij,ij->i", centroids, centroids)
    for lo in range(0, n, chunk_rows):
        hi = min(lo + chunk_rows, n)
        chunk = points[lo:hi]
        x2 = np.einsum("ij,ij->i", chunk, chunk)
        d2 = x2[:, None] + c2[None, :] - 2.0 * (chunk @ centroids.T)
        np.maximum(d2, 0.0, out=d2)
        labels[lo:hi] = d2.argmin(axis=1)
        min_d2[lo:hi] = d2[np.arange(hi - lo), labels[lo:hi]]
    return labels, min_d2


def weighted_means(
    points: np.ndarray,
    labels: np.ndarray,
    k: int,
    weights: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-cluster weighted means via one ``np.bincount`` accumulation.

    Every ``(cluster, dimension)`` pair is one flattened cell
    ``label * d + j``; a single ``bincount`` over all ``n * d`` cells sums
    each cell's points in index order — the same additions, in the same
    order, as a per-dimension ``bincount`` loop, so the result is
    bit-identical to it.

    Returns ``(means, weight_sums)``; a cluster with zero total weight gets
    a zero row in ``means`` (callers re-seed empty clusters themselves).
    """
    n, d = points.shape
    if weights is None:
        weights = np.ones(n, dtype=np.float64)
    wsum = np.bincount(labels, weights=weights, minlength=k)
    cells = (labels[:, None] * d + np.arange(d)).ravel()
    acc = np.bincount(
        cells, weights=(weights[:, None] * points).ravel(), minlength=k * d
    ).reshape(k, d)
    nonzero = wsum > 0
    means = np.zeros((k, d), dtype=np.float64)
    means[nonzero] = acc[nonzero] / wsum[nonzero, None]
    return means, wsum


# -- scheduler-kernel tiers ---------------------------------------------------

#: Recognized values for the engine's ``kernel_tier=`` argument.
VALID_TIERS = ("reference", "compiled")


_KERNEL_TEMPLATE = '''\
def scheduler_kernel(self):
    threads = self._threads
    omp = self.omp
    spin_block = omp.spin_block
    spin_iters = omp.spin.iterations_per_visit
    active = self.wait_policy is WaitPolicy.ACTIVE
    passive = self.wait_policy is WaitPolicy.PASSIVE
    rng = self._rng
    ring = self._ring
    streams = self._streams
    nthreads = self.nthreads

    per_thread_total = self.per_thread_total
    per_thread_filtered = self.per_thread_filtered
    runnable_state = ThreadState.RUNNABLE
    blocked_state = ThreadState.BLOCKED
    done_state = ThreadState.DONE
    getrandbits = rng.getrandbits
    rng_random = rng.random
    quantum = self.quantum_instructions
    flow = self.flow_control
    max_events = self.max_events
    dispatch = self._dispatch
    bisect = bisect_left
    num_events = 0

    ring_rows = ring.buffers()
    append_row = ring_rows.append
    extend_rows = ring_rows.extend
    ring_capacity = ring.capacity
    ring_flush = ring.flush
    encode = ring.encode

    # Interned row-code lists, one cache per tid keyed by ``id()`` of an
    # op's bid column (alive in the tapes for the whole run).
    # Structurally identical constructs share pattern columns, so a
    # workload's few distinct patterns encode once per tid; every
    # consume window then costs a single slice + ``extend`` (or one
    # ``append`` of a small int) and flush decodes through the ring's
    # per-code tables.
    row_caches = [{} for _ in range(nthreads)]

    # Inline barrier handling requires the sync buffer, which exists
    # exactly when no attached observer demands per-sync flushes; with
    # an order-strict observer, barrier ops dispatch through the
    # shared handlers (identical per-event semantics).
    sync_buf = self._sync_buf
    inline_barriers = sync_buf is not None
    sb_append = sync_buf.append if inline_barriers else None
    barriers = self._barriers

    # (bid, total, filtered) columns of the synchronization-library
    # blocks the inline barrier path executes on threads' behalf.
    def _cols(block):
        n = block.n_instr
        return block.bid, n, 0 if block.image.is_library else n

    be_bid, be_t, be_f = _cols(omp.barrier_enter)
    bx_bid, bx_t, bx_f = _cols(omp.barrier_exit)
    fw_bid, fw_t, fw_f = _cols(omp.futex_wait)
    fk_bid, fk_t, fk_f = _cols(omp.futex_wake)

    # Constant per-tid row codes for the synchronization-library blocks
    # the inline barrier path emits — a full release is assembled from
    # these pre-encoded ints, only their order follows the arrival
    # order.  ``wake_t``/``wake_f`` is what each woken thread's
    # counters advance by.
    be_rows = [encode(t, be_bid, 1) for t in range(nthreads)]
    bx_rows = [encode(t, bx_bid, 1) for t in range(nthreads)]
    fw_rows = [encode(t, fw_bid, 1) for t in range(nthreads)]
    fk_rows = [encode(t, fk_bid, 1) for t in range(nthreads)]
    if passive:
        wake_t = fk_t + bx_t
        wake_f = fk_f + bx_f
        rel_n = 2 * nthreads - 1
    else:
        wake_t = bx_t
        wake_f = bx_f
        rel_n = nthreads
    # All threads are live at a full release (a finished thread could
    # never have arrived), so the post-release run-queue is every tid.
    all_tids = list(range(nthreads))

    # The run-queue: ascending tids, maintained incrementally — the same
    # order `_rebuild_runnable` produces.  Out-of-line handlers signal
    # their state changes via ``_sched_dirty``; the queue is resynced
    # right after dispatch.  The numpy mirror for columnar flow control
    # rebuilds lazily.
    runnable = [t.tid for t in threads if t.state is runnable_state]
    self._runnable = runnable
    self._sched_dirty = False
    n_done = sum(1 for t in threads if t.state is done_state)
    arr_stale = True
    # ``n_run`` mirrors ``len(runnable)`` and ``nbuf`` mirrors
    # ``len(ring_rows)``; both are maintained at every mutation site so
    # the hot loop never calls ``len``.  ``nbuf`` is resynced after any
    # out-of-line call that may append to (or flush) the ring.
    n_run = len(runnable)
    nbuf = len(ring_rows)

    # ``i.bit_length()`` memoized for every eligible-set size the inlined
    # ``randrange`` can see (identical values, one index instead of a
    # method call per round).
    bl = tuple(i.bit_length() for i in range(nthreads + 1))

    # Per-thread tape cursors.  Layout (list, not attributes — indexed
    # access is the fastest Python offers here):
    #   [0] op index            [1] run kind (0 none, 1 tiled, 2 table)
    #   [2] run row codes (interned via ring.encode)  [3] unused
    #   [4] run pre_t  [5] run pre_f
    #   [6] event index in run  [7] run end (table) / pattern len
    #   [8] off_t  [9] off_f  (ptt/ptf = off + pre[idx])
    #   [10] tiled iterations left  [11] iter total  [12] iter filtered
    cursors = [
        [0, 0, None, None, None, None, 0, 0, 0, 0, 0, 0, 0]
        for _ in range(nthreads)
    ]

    # ``total_instructions == sum(per_thread_total)`` (likewise
    # filtered) is an engine-wide invariant: every counter mutation —
    # handlers, the inline barrier path, quantum consumption — advances
    # a per-thread counter.  The globals are therefore recomputed as
    # sums at every loop exit instead of being carried round by round.
#%if bounded
    maxev = max_events if max_events is not None else (1 << 62)
#%endif

    while True:
        if not runnable:
            self.total_instructions = sum(per_thread_total)
            self.filtered_instructions = sum(per_thread_filtered)
            if n_done == nthreads:
                break
            blocked = [
                t.tid for t in threads if t.state is blocked_state
            ]
            raise DeadlockError(
                f"all live threads blocked: {blocked} "
                f"(barriers={dict(barriers)!r})"
            )

#%if active
        if active:
            for t in threads:
                if t.state is blocked_state:
                    self._exec_block(t.tid, spin_block, spin_iters)
            nbuf = len(ring_rows)
#%endif

#%if flow
        if flow is not None:
            if arr_stale:
                self._runnable_arr = np.array(runnable, dtype=np.int64)
                arr_stale = False
            eligible = flow.eligible(
                per_thread_filtered, runnable, self._runnable_arr
            )
        else:
            eligible = runnable
        n_el = len(eligible)
#%else
        eligible = runnable
        n_el = n_run
#%endif
        # Inlined ``rng.randrange(len(eligible))`` — the exact
        # ``Random._randbelow_with_getrandbits`` algorithm, consuming
        # the identical generator stream (interleavings depend on it).
        k = bl[n_el]
        r = getrandbits(k)
        while r >= n_el:
            r = getrandbits(k)
        tid = eligible[r]

        ptt = per_thread_total[tid]
        ptf = per_thread_filtered[tid]
        stop_at = ptt + int(quantum * (1.0 + rng_random() * 0.5))
        cur = cursors[tid]
        kind = cur[1]

        while ptt < stop_at:
            if kind == 1:
                # Tiled run: consume within the current iteration's
                # pattern, then roll the per-iteration offsets.
                pre_t = cur[4]
                e = cur[6]
                m = cur[7]
                off_t = cur[8]
                if e == 0:
                    # At an iteration boundary: every iteration whose
                    # last event still starts inside the quantum is
                    # consumed whole — emit all of them as one
                    # ``pattern * q`` extend instead of a bisect and
                    # three extends per iteration.  Identical event
                    # stream, counters and rng use; only the ring's
                    # flush boundaries may shift (observer state is
                    # boundary-independent by the batching contract).
                    budget = stop_at - off_t - pre_t[m - 1]
                    if budget > 0:
                        iter_t = cur[11]
                        q = (budget - 1) // iter_t + 1
                        left = cur[10]
                        if q > left:
                            q = left
                        n = m * q
                        num_events += n
                        if n == 1:
                            append_row(cur[2][0])
                        else:
                            extend_rows(cur[2] * q)
                        nbuf += n
                        if nbuf >= ring_capacity:
                            ring_flush()
                            nbuf = 0
                        off_t += iter_t * q
                        cur[8] = off_t
                        cur[9] += cur[12] * q
                        ptt = off_t
                        ptf = cur[9]
                        left -= q
                        if left:
                            cur[10] = left
                            continue
                        kind = 0
                        cur[1] = 0
                        continue
                j = bisect(pre_t, stop_at - off_t, e, m)
                if j > e:
                    n = j - e
                    num_events += n
                    if n == 1:
                        append_row(cur[2][e])
                    else:
                        extend_rows(cur[2][e:j])
                    nbuf += n
                    if nbuf >= ring_capacity:
                        ring_flush()
                        nbuf = 0
                    ptt = off_t + pre_t[j]
                    ptf = cur[9] + cur[5][j]
                if j < m:
                    cur[6] = j
                    break
                left = cur[10] - 1
                if left:
                    cur[10] = left
                    cur[6] = 0
                    cur[8] = off_t + cur[11]
                    cur[9] += cur[12]
                    continue
                kind = 0
                cur[1] = 0
                continue
            if kind == 2:
                # Table run: one bisect over the explicit prefix sums.
                pre_t = cur[4]
                i = cur[6]
                end = cur[7]
                off_t = cur[8]
                j = bisect(pre_t, stop_at - off_t, i, end)
                if j > i:
                    n = j - i
                    num_events += n
                    if n == 1:
                        append_row(cur[2][i])
                    else:
                        extend_rows(cur[2][i:j])
                    nbuf += n
                    if nbuf >= ring_capacity:
                        ring_flush()
                        nbuf = 0
                    ptt = off_t + pre_t[j]
                    ptf = cur[9] + cur[5][j]
                if j < end:
                    cur[6] = j
                    break
                kind = 0
                cur[1] = 0
                continue

            # No active run: start the next op.  The op index lives in
            # the cursor and is loaded only here — most rounds extend an
            # in-progress run and never touch it.  Every op consumption
            # writes it back immediately, because any of these branches
            # may leave the quantum loop.
            op_idx = cur[0]
            op = streams[tid][op_idx]
            code = op[0]
            if code == OP_TILED:
                bids = op[1]
                cache = row_caches[tid]
                rows_l = cache.get(id(bids))
                if rows_l is None:
                    rows_l = cache[id(bids)] = [
                        encode(tid, b, r) for b, r in zip(bids, op[2])
                    ]
                cur[0] = op_idx + 1
                cur[2] = rows_l
                cur[4] = op[3]
                cur[5] = op[4]
                cur[6] = 0
                cur[7] = op[5]
                cur[8] = ptt
                cur[9] = ptf
                cur[10] = op[8]
                cur[11] = op[6]
                cur[12] = op[7]
                kind = 1
                cur[1] = 1
                continue
            if code == OP_TABLE:
                bids = op[1]
                cache = row_caches[tid]
                rows_l = cache.get(id(bids))
                if rows_l is None:
                    rows_l = cache[id(bids)] = [
                        encode(tid, b, r) for b, r in zip(bids, op[2])
                    ]
                i0 = op[5]
                cur[0] = op_idx + 1
                cur[2] = rows_l
                cur[4] = op[3]
                cur[5] = op[4]
                cur[6] = i0
                cur[7] = op[6]
                cur[8] = ptt - op[3][i0]
                cur[9] = ptf - op[4][i0]
                kind = 2
                cur[1] = 2
                continue

            if code == OP_BARRIER and inline_barriers:
                # Barrier, fully inline — the exact event sequence of
                # `_handle_barrier`: enter block, arrival sync, and on
                # the last arrival a release sync + futex wake +
                # barrier exit per participant in arrival order.  No
                # out-of-line calls, so engine-state locals stay live.
                ev = op[1]
                cur[0] = op_idx + 1
                num_events += 1
                b_id = ev.barrier_id
                arrived = barriers.get(b_id)
                if arrived is None:
                    arrived = barriers[b_id] = []
                append_row(be_rows[tid])
                nbuf += 1
                ptt += be_t
                ptf += be_f
                g = self._gseq
                sb_append((tid, SYNC_BARRIER, b_id, None, g))
                g += 1
                arrived.append(tid)
                if len(arrived) == nthreads:
                    # Full release.  The last arrival is this thread
                    # (appended just above), so the release rows are
                    # the per-tid constants assembled in arrival
                    # order, last arrival's exit row at the end.
                    others = arrived[:-1]
                    for tid2 in others:
                        sb_append(
                            (tid2, SYNC_BARRIER_REL, b_id, None, g)
                        )
                        g += 1
                        threads[tid2].state = runnable_state
                        per_thread_total[tid2] += wake_t
                        per_thread_filtered[tid2] += wake_f
                    sb_append((tid, SYNC_BARRIER_REL, b_id, None, g))
                    g += 1
                    if passive:
                        rel_rows = [
                            row for t2 in others
                            for row in (fk_rows[t2], bx_rows[t2])
                        ]
                    else:
                        rel_rows = [bx_rows[t2] for t2 in others]
                    rel_rows.append(bx_rows[tid])
                    extend_rows(rel_rows)
                    ptt += bx_t
                    ptf += bx_f
                    del barriers[b_id]
                    self._gseq = g
                    runnable[:] = all_tids
                    n_run = nthreads
                    arr_stale = True
                    nbuf += rel_n
                    if nbuf >= ring_capacity:
                        ring_flush()
                        nbuf = 0
                    if len(sync_buf) >= SYNC_BUFFER_LIMIT:
                        self._flush_syncs()
                    continue
                self._gseq = g
                threads[tid].state = blocked_state
                runnable.remove(tid)
                n_run -= 1
                arr_stale = True
                if passive:
                    append_row(fw_rows[tid])
                    nbuf += 1
                    ptt += fw_t
                    ptf += fw_f
                if nbuf >= ring_capacity:
                    ring_flush()
                    nbuf = 0
                break

            if code == OP_DONE:
                # End-of-tape sentinel: the cursor stays parked on it.
                threads[tid].state = done_state
                runnable.remove(tid)
                n_run -= 1
                n_done += 1
                arr_stale = True
                break

            # Other sync op: sync engine state, dispatch through the
            # shared handlers (which may execute blocks for this and
            # other threads, and block/wake threads), reload.
            thread = threads[tid]
            per_thread_total[tid] = ptt
            per_thread_filtered[tid] = ptf
            ev = op[1]
            num_events += 1
            if code == OP_SYNC or code == OP_BARRIER:
                dispatch(thread, ev)
                cur[0] = op_idx + 1
                nbuf = len(ring_rows)
                ptt = per_thread_total[tid]
                ptf = per_thread_filtered[tid]
                if self._sched_dirty:
                    runnable[:] = [
                        t.tid for t in threads
                        if t.state is runnable_state
                    ]
                    n_run = len(runnable)
                    self._sched_dirty = False
                    arr_stale = True
                if thread.state is not runnable_state:
                    break
            elif code == OP_CHUNK:
                self._handle_chunk(thread, ev)
                nbuf = len(ring_rows)
                start = thread.response
                thread.response = None
                ptt = per_thread_total[tid]
                ptf = per_thread_filtered[tid]
                if start < 0:
                    cur[0] = op_idx + 1
                else:
                    # Grant: run the chunk's table slice, then come
                    # back to this op for the next request — exactly
                    # the generator's request/consume loop.
                    iter_off = op[6]
                    i0 = iter_off[start]
                    stop_iter = start + ev.chunk_size
                    total = ev.total_iters
                    if stop_iter > total:
                        stop_iter = total
                    i1 = iter_off[stop_iter]
                    if i1 > i0:
                        bids = op[2]
                        cache = row_caches[tid]
                        rows_l = cache.get(id(bids))
                        if rows_l is None:
                            rows_l = cache[id(bids)] = [
                                encode(tid, b, r)
                                for b, r in zip(bids, op[3])
                            ]
                        cur[2] = rows_l
                        cur[4] = op[4]
                        cur[5] = op[5]
                        cur[6] = i0
                        cur[7] = i1
                        cur[8] = ptt - op[4][i0]
                        cur[9] = ptf - op[5][i0]
                        kind = 2
                        cur[1] = 2
            else:  # OP_SINGLE
                self._handle_single(thread, ev)
                nbuf = len(ring_rows)
                granted = thread.response
                thread.response = None
                ptt = per_thread_total[tid]
                ptf = per_thread_filtered[tid]
                cur[0] = op_idx + 1
                run = op[2]
                if granted and run is not None:
                    bids = run[0]
                    cache = row_caches[tid]
                    rows_l = cache.get(id(bids))
                    if rows_l is None:
                        rows_l = cache[id(bids)] = [
                            encode(tid, b, r)
                            for b, r in zip(bids, run[1])
                        ]
                    cur[2] = rows_l
                    cur[4] = run[2]
                    cur[5] = run[3]
                    cur[6] = 0
                    cur[7] = len(run[0])
                    cur[8] = ptt
                    cur[9] = ptf
                    kind = 2
                    cur[1] = 2

        per_thread_total[tid] = ptt
        per_thread_filtered[tid] = ptf

#%if bounded
        if num_events > maxev:
            self.total_instructions = sum(per_thread_total)
            self.filtered_instructions = sum(per_thread_filtered)
            self.num_events = num_events
            raise ExecutionError(
                f"exceeded max_events={max_events}; likely runaway "
                f"program"
            )
#%endif

    return self._finish_run(num_events)
'''


def render_kernel_source(flags: Dict[str, bool]) -> str:
    """Render :data:`_KERNEL_TEMPLATE` under ``flags``.

    ``#%if NAME`` keeps its block when ``flags[NAME]`` is true, otherwise
    the ``#%else`` block (if any).  Directives must not nest.
    """
    out = []
    in_block = False
    emitting = True
    for line in _KERNEL_TEMPLATE.splitlines():
        stripped = line.strip()
        if stripped.startswith("#%if "):
            if in_block:
                raise ValueError("nested #%if in kernel template")
            in_block = True
            emitting = bool(flags[stripped[5:].strip()])
        elif stripped == "#%else":
            if not in_block:
                raise ValueError("#%else outside #%if in kernel template")
            emitting = not emitting
        elif stripped == "#%endif":
            if not in_block:
                raise ValueError("#%endif outside #%if in kernel template")
            in_block = False
            emitting = True
        elif emitting:
            out.append(line)
    if in_block:
        raise ValueError("unterminated #%if in kernel template")
    return "\n".join(out) + "\n"


#: Rendered-and-exec'd kernels, keyed by (tier, flag values).  Kernels are
#: pure functions of their key, so the cache is process-global.
_kernel_cache: Dict[Tuple, Callable] = {}


def get_kernel(
    tier: str,
    *,
    active: bool,
    flow: bool,
    bounded: bool,
    namespace: Dict[str, object],
) -> Callable:
    """The scheduler kernel for ``tier`` under this run configuration.

    ``namespace`` supplies the rendered source's globals (numpy, bisect,
    tape op codes, engine enums and errors) — passed in by the engine so
    this module never imports the engine (no cycle).  The ``reference``
    tier ignores the configuration flags: it is the single all-runtime-
    branches rendering.
    """
    if tier == "reference":
        key: Tuple = ("reference",)
        flags = {"active": True, "flow": True, "bounded": True}
    elif tier == "compiled":
        key = ("compiled", active, flow, bounded)
        flags = {"active": active, "flow": flow, "bounded": bounded}
    else:
        raise ValueError(f"unknown kernel tier {tier!r}")
    kernel = _kernel_cache.get(key)
    if kernel is None:
        source = render_kernel_source(flags)
        exec_ns = dict(namespace)
        code = compile(source, f"<repro-kernel {'-'.join(map(str, key))}>",
                       "exec")
        exec(code, exec_ns)
        kernel = exec_ns["scheduler_kernel"]
        _kernel_cache[key] = kernel
    return kernel

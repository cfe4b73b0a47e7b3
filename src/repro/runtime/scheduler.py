"""Discrete-event simulation of the node-level runtime system.

MUSA re-simulates the OmpSs/OpenMP runtime for an arbitrary core count
by replaying the runtime events recorded in the burst trace: task
creations, dependencies, barriers and critical sections.  This module
implements that replay as greedy list scheduling:

* the master thread runs the phase's serial section, then creates tasks
  one by one paying a per-task creation overhead (wall-clock ns — these
  timings come from the native trace and do not scale with simulated
  frequency, see Sec. V-B5 of the paper);
* a task becomes ready once created and with all dependencies finished;
* idle cores greedily pick the ready task with the earliest ready time
  (FIFO, like Nanos++);
* ``omp critical`` time is serialized across the whole phase;
* if the phase ends in a barrier, every core waits for the makespan.

The returned :class:`PhaseResult` carries the makespan, per-core busy
times and (optionally) the full task timeline used for the Fig. 3
occupancy analysis.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import get_metrics
from ..trace.events import ComputePhase
from ..util import LruDict

__all__ = ["PhaseResult", "simulate_phase", "simulate_phase_batch"]


@dataclass(frozen=True)
class TaskSpan:
    """Execution record of one task: which core ran it and when."""

    task_index: int
    core: int
    start_ns: float
    end_ns: float

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class PhaseResult:
    """Outcome of simulating one compute phase on ``n_cores`` cores."""

    makespan_ns: float
    busy_ns: np.ndarray          # per-core busy time (len == n_cores)
    n_tasks: int
    serial_ns: float
    creation_ns_total: float
    spans: Optional[Tuple[TaskSpan, ...]] = None

    @property
    def n_cores(self) -> int:
        return len(self.busy_ns)

    @property
    def occupancy(self) -> float:
        """Fraction of core-time spent executing tasks (Fig. 3 metric)."""
        if self.makespan_ns <= 0:
            return 1.0
        return float(self.busy_ns.sum() / (self.n_cores * self.makespan_ns))

    @property
    def idle_ns(self) -> float:
        """Aggregate idle core-time inside the phase (leakage waste)."""
        return float(self.n_cores * self.makespan_ns - self.busy_ns.sum())


#: id(phase) -> (structure tag or None, phase) — the phase reference is
#: kept so a garbage-collected phase cannot alias a recycled id().
#: LRU-bounded (one entry per distinct phase object; applications hold a
#: few dozen phases) so synthetic tests churning phases neither leak nor
#: — as the old wipe-at-capacity dict did — drop the hot working set and
#: pin 4096 stale phases alive until the next wipe.  Evictions are
#: counted under ``sched.structure.evictions``.
_STRUCTURE_CACHE: LruDict = LruDict(
    1024, eviction_counter="sched.structure.evictions")


def _structure_of(phase: ComputePhase) -> Optional[str]:
    """Classify the dependency structure of a phase, if specializable.

    Two shapes cover every trace the application models emit and admit
    an exact shortcut of the general list scheduler (see
    :func:`_simulate_fast`):

    * ``"nodeps"`` — every task is immediately ready once created;
    * ``"fanout0"`` — task 0 has no dependencies and every other task
      depends exactly on task 0 (producer/consumer fan-out).

    Anything else returns ``None`` and takes the general path.
    """
    key = id(phase)
    hit = _STRUCTURE_CACHE.get(key)
    if hit is not None and hit[1] is phase:
        return hit[0]
    tasks = phase.tasks
    structure: Optional[str] = None
    if all(not t.deps for t in tasks):
        structure = "nodeps"
    elif tasks and not tasks[0].deps and all(
            t.deps == (0,) for t in tasks[1:]):
        structure = "fanout0"
    _STRUCTURE_CACHE[key] = (structure, phase)
    return structure


def _simulate_fast(structure: str, n: int, n_cores: int, durations,
                   create_time, master_done: float, serial: float,
                   creation: float, critical_total: float,
                   busy: np.ndarray) -> PhaseResult:
    """Specialized greedy scheduler for the two common dependency shapes.

    Bitwise-identical to the general algorithm: for both shapes the
    ready heap provably pops tasks in index order (ready times are
    nondecreasing in the task index and ties break on the index), so
    the ready heap is elided and only the core heap is kept.  The same
    heap operations run in the same order, producing the same floats.
    """
    cores: List[Tuple[float, int]] = [(0.0, c) for c in range(n_cores)]
    cores[0] = (master_done, 0)
    heapq.heapify(cores)
    busy[0] += master_done

    makespan = master_done
    start_index = 0
    if structure == "fanout0":
        # Task 0 runs alone; its finish gates every other task.
        free_time, core = heapq.heappop(cores)
        rt = create_time[0]
        start = rt if rt > free_time else free_time
        end0 = start + durations[0]
        busy[core] += durations[0]
        heapq.heappush(cores, (end0, core))
        if end0 > makespan:
            makespan = end0
        start_index = 1
    else:
        end0 = 0.0

    for i in range(start_index, n):
        rt = create_time[i]
        if structure == "fanout0" and end0 > rt:
            rt = end0
        free_time, core = heapq.heappop(cores)
        start = rt if rt > free_time else free_time
        end = start + durations[i]
        busy[core] += durations[i]
        heapq.heappush(cores, (end, core))
        if end > makespan:
            makespan = end

    makespan = max(makespan, serial + critical_total)
    return PhaseResult(
        makespan_ns=makespan,
        busy_ns=busy,
        n_tasks=n,
        serial_ns=serial,
        creation_ns_total=n * creation,
        spans=None,
    )


def simulate_phase(
    phase: ComputePhase,
    n_cores: int,
    duration_scale: float = 1.0,
    overhead_scale: float = 1.0,
    task_durations_ns: Optional[Sequence[float]] = None,
    collect_spans: bool = False,
    _force_general: bool = False,
) -> PhaseResult:
    """Simulate one compute phase on ``n_cores`` cores.

    Parameters
    ----------
    duration_scale:
        Multiplier applied to every task duration (used by the detailed
        integration to re-time tasks for a target architecture, and by
        rank-level imbalance).
    overhead_scale:
        Multiplier for runtime overheads (serial, creation, critical).
        Kept separate because runtime timings are wall-clock and do not
        follow core frequency.
    task_durations_ns:
        Optional explicit per-task durations overriding the trace
        reference values (after which ``duration_scale`` still applies).
    collect_spans:
        If True, record per-task (core, start, end) for timeline
        analysis; costs memory, off by default for the sweep.
    _force_general:
        Skip the structure-specialized fast path (testing hook; the two
        paths are asserted bitwise-equal by the property suite).
    """
    if n_cores <= 0:
        raise ValueError("n_cores must be positive")
    if duration_scale <= 0 or overhead_scale <= 0:
        raise ValueError("scales must be positive")

    tasks = phase.tasks
    n = len(tasks)
    serial = phase.serial_ns * overhead_scale
    creation = phase.creation_ns * overhead_scale
    critical_total = phase.critical_ns * overhead_scale

    if task_durations_ns is not None:
        if len(task_durations_ns) != n:
            raise ValueError(
                f"expected {n} durations, got {len(task_durations_ns)}"
            )
        durations = [d * duration_scale for d in task_durations_ns]
    else:
        durations = [t.duration_ns * duration_scale for t in tasks]

    busy = np.zeros(n_cores, dtype=np.float64)
    if n == 0:
        makespan = serial + critical_total
        return PhaseResult(makespan, busy, 0, serial, 0.0,
                           spans=() if collect_spans else None)

    # Task i is created at serial + (i+1)*creation by the master thread.
    create_time = [serial + (i + 1) * creation for i in range(n)]
    master_done = create_time[-1]

    if not collect_spans and not _force_general:
        structure = _structure_of(phase)
        if structure is not None:
            return _simulate_fast(structure, n, n_cores, durations,
                                  create_time, master_done, serial,
                                  creation, critical_total, busy)

    # Dependency bookkeeping: children lists and remaining-dep counters.
    n_deps = [len(t.deps) for t in tasks]
    children: List[List[int]] = [[] for _ in range(n)]
    for i, t in enumerate(tasks):
        for d in t.deps:
            children[d].append(i)

    dep_finish = [0.0] * n         # latest finish among resolved deps
    finish_time = [0.0] * n

    # Ready heap: (ready_time, task index).  Cores heap: (free_time, core).
    ready: List[Tuple[float, int]] = []
    for i in range(n):
        if n_deps[i] == 0:
            heapq.heappush(ready, (create_time[i], i))

    cores: List[Tuple[float, int]] = [(0.0, c) for c in range(n_cores)]
    # The master (core 0) is busy until it finishes creating tasks.
    cores[0] = (master_done, 0)
    heapq.heapify(cores)
    busy[0] += master_done  # serial + creation work occupies the master

    spans: List[TaskSpan] = []
    n_done = 0
    makespan = master_done
    while n_done < n:
        if not ready:
            raise RuntimeError(
                "scheduler deadlock: no ready tasks but work remains "
                "(dependency cycle in trace?)"
            )
        ready_time, i = heapq.heappop(ready)
        free_time, core = heapq.heappop(cores)
        start = max(ready_time, free_time)
        end = start + durations[i]
        finish_time[i] = end
        busy[core] += durations[i]
        heapq.heappush(cores, (end, core))
        if collect_spans:
            spans.append(TaskSpan(i, core, start, end))
        makespan = max(makespan, end)
        n_done += 1
        for child in children[i]:
            n_deps[child] -= 1
            dep_finish[child] = max(dep_finish[child], end)
            if n_deps[child] == 0:
                heapq.heappush(
                    ready, (max(create_time[child], dep_finish[child]), child)
                )

    # Critical sections serialize: the phase cannot finish before the
    # sum of all critical time has elapsed after the serial section.
    makespan = max(makespan, serial + critical_total)

    return PhaseResult(
        makespan_ns=makespan,
        busy_ns=busy,
        n_tasks=n,
        serial_ns=serial,
        creation_ns_total=n * creation,
        spans=tuple(spans) if collect_spans else None,
    )


def _run_rounds(free: np.ndarray, busy: np.ndarray, makespan: np.ndarray,
                ready: np.ndarray, dur: np.ndarray, p: np.ndarray,
                nc: np.ndarray) -> None:
    """Run every column's greedy schedule to its last task, in rounds.

    ``free``/``busy`` are the ``(K, C)`` core free and busy times
    (``+inf`` free time on the padded cores past a column's ``nc``),
    ``makespan`` the running max of each column's task ends,
    ``ready``/``dur`` the ``(K, n)`` per-task ready times and durations
    and ``p`` each column's next task.  Leaves each column's final busy
    times and makespan in ``busy`` and ``makespan``.

    One round per column: stable-argsort the core free times (the heap's
    ``(free, core)`` order), run the next tasks onto the sorted cores in
    turn, and commit the longest prefix in which every earlier end is
    strictly greater than the next slot's free time — exactly the tasks
    the heap would also have sent to those cores.  See
    :func:`simulate_phase_batch` for the argument.
    """
    n = ready.shape[1]
    slots = np.arange(free.shape[1])
    live = np.arange(len(p))
    base = live * n
    rowoff = (live * free.shape[1])[:, None]
    f, b, mk = free, busy, makespan
    rounds = 0
    while True:
        left = n - p
        if not left.all():
            # Write finished columns out, then drop them and the padded
            # cores no live column has.
            done = left == 0
            busy[live[done], :b.shape[1]] = b[done]
            makespan[live[done]] = mk[done]
            keep = ~done
            live, p, left = live[keep], p[keep], left[keep]
            if not len(live):
                break
            c = int(nc[live].max())
            f = np.ascontiguousarray(f[keep, :c])
            b = np.ascontiguousarray(b[keep, :c])
            mk = mk[keep]
            base = live * n
            rowoff = (np.arange(len(live)) * c)[:, None]
        rounds += 1
        w = min(f.shape[1], int(left.max()))
        # The sorted cores' flat indices into f and b.  The round works
        # in place where it can: these (columns, cores) temporaries set
        # the scheduler's peak memory.
        at = f.argsort(axis=1, kind="stable")[:, :w]
        at += rowoff
        s = f.take(at)
        flat = (base + p)[:, None] + slots[:w]
        short = int(left.min()) < w
        if short:
            # Some windows run past their column's last task: clamp the
            # reads; those slots are never committed.
            np.minimum(flat, (base + n - 1)[:, None], out=flat)
        d = dur.take(flat)
        # end = (rt if rt > s else s) + d, built in the ready-time copy.
        end = ready.take(flat)
        del flat
        np.copyto(end, s, where=~(end > s))
        end += d
        # Slot j is valid iff every earlier end in the window exceeds
        # s_j.  The running min falls and s rises along the row, so the
        # valid slots already form a prefix.
        ok = np.empty(end.shape, dtype=bool)
        ok[:, 0] = True
        np.greater(np.minimum.accumulate(end[:, :-1], axis=1), s[:, 1:],
                   out=ok[:, 1:])
        if short:
            ok &= slots[:w] < left[:, None]
        np.copyto(s, end, where=ok)
        np.put(f, at, s)
        bt = b.take(at)
        np.put(b, at, np.add(bt, d, out=bt, where=ok))
        np.maximum(mk, end.max(axis=1, where=ok, initial=-np.inf), out=mk)
        p = p + ok.sum(axis=1)
    get_metrics().inc("sched.batch.rounds", rounds)


def simulate_phase_batch(
    phase: ComputePhase,
    n_cores: Sequence[int],
    duration_scale: Union[float, Sequence[float]] = 1.0,
    overhead_scale: Union[float, Sequence[float]] = 1.0,
    task_durations_ns: Optional[np.ndarray] = None,
) -> List[PhaseResult]:
    """:func:`simulate_phase` over a configuration axis, vectorized.

    ``n_cores`` / ``duration_scale`` / ``overhead_scale`` give one value
    (or a broadcastable scalar) per config column; ``task_durations_ns``
    is an optional ``(n_tasks, n_configs)`` matrix of explicit per-task,
    per-config durations (or a 1-D shared base, like the scalar call).

    Bitwise-identity argument.  A per-config *result broadcast* — run
    the schedule once on base durations and multiply the output times by
    each config's scale — can never be bitwise: float multiplication
    does not distribute over addition, so ``fl(s*a) + fl(s*b)`` differs
    from ``s*(a+b)`` in the last ulp for general ``s``.  What *is*
    exactly config-invariant for the ``nodeps``/``fanout0`` structures
    is the scheduler's **task visit order**: ready times are
    nondecreasing in the task index for any non-negative durations and
    overheads (``nodeps``: ready = creation times, an increasing
    sequence; ``fanout0``: task 0 first, then
    ``max(create_time[i], end0)``, nondecreasing in ``i``), and ties
    break on the index — so every config visits tasks 0..n-1 in index
    order, exactly as :func:`_simulate_fast` does.  Each column then
    replays the heap schedule in **rounds** (:func:`_run_rounds`), each
    column with its own task pointer:

    * stable-argsort the column's core free times: cores in the heap's
      ``(free, core)`` order, ``s_0 <= s_1 <= ...``;
    * run the next ``r <= c`` tasks onto the sorted cores in order with
      the scalar expressions (``start = rt if rt > s_j else s_j``,
      ``end = start + d``);
    * slot ``j`` is what the heap pops for task ``p + j`` iff every end
      pushed earlier in the window is strictly greater than ``s_j``
      (``minimum.accumulate(end)[j-1] > s_j``; slot 0 always is), so
      the longest such prefix is committed and the column's pointer
      advances by its length.

    A tie ends the prefix (the strict ``>`` fails) and the next round's
    stable sort breaks it on the core index, as the heap's tuple order
    does.  Cores are distinct within a window, so each core's ``busy``
    sum still adds its tasks in task order, and the makespan is a
    running max over the committed ends — a max is exact in any order.
    Columns of every core count run in one call: padded ``+inf`` cores
    never pass the ``>`` test.  ``sched.batch.rounds`` counts round
    iterations; a round commits up to ``c`` tasks per column, so it
    stays far below the task count (a silent return to per-task
    stepping would not).

    Speculating one shared core-assignment sequence per core count (and
    forking the columns that diverge) was rejected: the batched sweep
    passes per-config duration matrices whose task-duration ratios
    differ between configs, so nearly every column picks cores in its
    own order — on the 5-app × 576-config campaign a prototype forked
    1,368 times over 408 core-count groups, and the sweep took 5.3–6.0 s
    against 1.4 s with the per-task loop it meant to replace.

    Phases with any other dependency structure — and columns whose
    ``overhead_scale`` differs from ``duration_scale``, which the
    scale-invariance contract of the batched sweep does not cover — fall
    back to per-config :func:`simulate_phase` calls.  Vectorized columns
    are counted under ``sched.batch.fast``; fallback columns under
    ``sched.batch.fallbacks``.
    """
    nc = np.asarray(n_cores, dtype=np.int64)
    if nc.ndim != 1:
        raise ValueError("n_cores must be 1-D")
    n_cfg = len(nc)
    if np.any(nc <= 0):
        raise ValueError("n_cores must be positive")
    ds = np.broadcast_to(np.asarray(duration_scale, dtype=np.float64),
                         (n_cfg,)).copy()
    os_ = np.broadcast_to(np.asarray(overhead_scale, dtype=np.float64),
                          (n_cfg,)).copy()
    if np.any(ds <= 0) or np.any(os_ <= 0):
        raise ValueError("scales must be positive")

    tasks = phase.tasks
    n = len(tasks)
    if task_durations_ns is not None:
        base = np.asarray(task_durations_ns, dtype=np.float64)
        if base.ndim == 1:
            base = base[:, None]
        if base.shape[0] != n or base.shape[1] not in (1, n_cfg):
            raise ValueError(
                f"expected ({n}, {n_cfg}) durations, got {base.shape}")
    else:
        base = np.array([t.duration_ns for t in tasks],
                        dtype=np.float64)[:, None]

    results: List[Optional[PhaseResult]] = [None] * n_cfg
    structure = _structure_of(phase) if n else None
    if n == 0:
        # The scalar path returns before looking at structure or scales.
        fast = np.ones(n_cfg, dtype=bool)
    elif structure is None:
        fast = np.zeros(n_cfg, dtype=bool)
    else:
        fast = ds == os_

    slow = np.flatnonzero(~fast)
    if len(slow):
        get_metrics().inc("sched.batch.fallbacks", len(slow))
        for k in slow:
            col = base[:, 0] if base.shape[1] == 1 else base[:, k]
            results[k] = simulate_phase(
                phase, int(nc[k]), duration_scale=float(ds[k]),
                overhead_scale=float(os_[k]),
                task_durations_ns=col.tolist())

    cols = np.flatnonzero(fast)
    if len(cols) == 0:
        return results  # type: ignore[return-value]
    get_metrics().inc("sched.batch.fast", len(cols))

    serial = phase.serial_ns * os_[cols]
    creation = phase.creation_ns * os_[cols]
    critical_total = phase.critical_ns * os_[cols]

    if n == 0:
        makespan = serial + critical_total
        for j, k in enumerate(cols):
            results[k] = PhaseResult(
                float(makespan[j]), np.zeros(int(nc[k]), dtype=np.float64),
                0, float(serial[j]), 0.0, spans=None)
        return results  # type: ignore[return-value]

    nc_f = nc[cols]
    kc = len(cols)
    c_max = int(nc_f.max())
    # create_time[i] = serial + (i+1)*creation, per column — the same
    # float64 ops as the scalar list comprehension, elementwise.
    ready = np.empty((kc, n), dtype=np.float64)
    np.multiply(np.arange(1, n + 1, dtype=np.float64), creation[:, None],
                out=ready)
    ready += serial[:, None]
    master_done = ready[:, -1].copy()
    dur = np.empty((kc, n), dtype=np.float64)
    # The gather copies the whole matrix; skip it when every column is
    # vectorized (the sweep's case).
    every = base.shape[1] == 1 or len(cols) == n_cfg
    np.multiply(base.T if every else base.T[cols], ds[cols][:, None],
                out=dur)

    free = np.where(np.arange(c_max) < nc_f[:, None], 0.0, np.inf)
    free[:, 0] = master_done
    busy = np.zeros((kc, c_max), dtype=np.float64)
    busy[:, 0] += master_done
    makespans = master_done.copy()
    first = 0
    if structure == "fanout0":
        # Task 0 runs alone (the heap pops the first argmin); its end
        # gates every other task.
        rows = np.arange(kc)
        idx = np.argmin(free, axis=1)
        ft = free[rows, idx]
        rt = ready[:, 0]
        end0 = np.where(rt > ft, rt, ft) + dur[:, 0]
        busy[rows, idx] += dur[:, 0]
        free[rows, idx] = end0
        np.maximum(makespans, end0, out=makespans)
        np.copyto(ready[:, 1:], end0[:, None],
                  where=end0[:, None] > ready[:, 1:])
        first = 1
    _run_rounds(free, busy, makespans, ready, dur,
                np.full(kc, first, dtype=np.int64), nc_f)
    np.maximum(makespans, serial + critical_total, out=makespans)

    total_creation = n * creation
    for j, k, c, mk, se, tc in zip(range(kc), cols.tolist(), nc_f.tolist(),
                                   makespans.tolist(), serial.tolist(),
                                   total_creation.tolist()):
        results[k] = PhaseResult(makespan_ns=mk, busy_ns=busy[j, :c].copy(),
                                 n_tasks=n, serial_ns=se,
                                 creation_ns_total=tc, spans=None)
    return results  # type: ignore[return-value]

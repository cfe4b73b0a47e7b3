"""Burst (coarse-grain) trace containers.

A :class:`BurstTrace` is the whole-application, per-rank event stream
MUSA obtains with Extrae: compute phases carrying runtime-system events,
interleaved with MPI calls.  It is the input to both burst-mode
(hardware-agnostic) simulation and the communication replay.

A trace is stored as integer event columns in rank-major order — one
row per event, ``offsets[r]:offsets[r + 1]`` holding rank ``r``'s
events — so generators emit it and the replay's structural pre-pass
resolves it with array operations.  Compute rows point into a table of
the *original* :class:`~repro.trace.events.ComputePhase` objects
(downstream caches key on phase identity).  ``trace.ranks`` is the
object view (:class:`RankTrace` of :class:`ComputePhase` /
:class:`~repro.trace.events.MpiCall` events), built from the columns on
first access and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .events import ComputePhase, MpiCall, RankEvent

__all__ = [
    "RankTrace",
    "BurstTrace",
    "EVENT_KINDS",
    "KIND_CODE",
    "EV_COMPUTE",
    "EV_SEND",
    "EV_RECV",
    "EV_ISEND",
    "EV_IRECV",
    "EV_WAIT",
    "EV_COLLECTIVE",
]

#: Names of the ``kind`` column's codes: 0 is a compute phase, 1-5 the
#: point-to-point calls, and every code from :data:`EV_COLLECTIVE` up a
#: collective.
EVENT_KINDS: Tuple[str, ...] = (
    "compute", "send", "recv", "isend", "irecv", "wait",
    "barrier", "allreduce", "reduce", "bcast", "alltoall", "allgather",
)
KIND_CODE: Dict[str, int] = {k: i for i, k in enumerate(EVENT_KINDS)}
EV_COMPUTE, EV_SEND, EV_RECV, EV_ISEND, EV_IRECV, EV_WAIT, EV_COLLECTIVE = (
    range(7))

_NEEDS_PEER = (EV_SEND, EV_RECV, EV_ISEND, EV_IRECV)
_NEEDS_REQUEST = (EV_ISEND, EV_IRECV, EV_WAIT)


def _encode(events: Sequence[RankEvent], phases: List[ComputePhase],
            index: Dict[int, int], cols: Tuple[List[int], ...]) -> None:
    """Append ``events`` to the column lists ``cols`` (kind, peer, size,
    tag, request, phase), deduplicating phases by identity into
    ``phases`` / ``index``."""
    kind, peer, size, tag, req, phase = cols
    for ev in events:
        if isinstance(ev, MpiCall):
            kind.append(KIND_CODE[ev.kind])
            peer.append(-1 if ev.peer is None else ev.peer)
            size.append(ev.size_bytes)
            tag.append(ev.tag)
            req.append(-1 if ev.request is None else ev.request)
            phase.append(-1)
        elif isinstance(ev, ComputePhase):
            i = index.get(id(ev))
            if i is None:
                i = index[id(ev)] = len(phases)
                phases.append(ev)
            kind.append(EV_COMPUTE)
            peer.append(-1)
            size.append(0)
            tag.append(0)
            req.append(-1)
            phase.append(i)
        else:
            raise TypeError(f"unexpected event type {type(ev).__name__}")


def _check_requests(ranks: np.ndarray, kind: np.ndarray,
                    request: np.ndarray) -> None:
    """Every ``(rank, request)`` must alternate isend/irecv and wait,
    starting with the open and ending with the wait.

    Raises the error the rank-by-rank, event-by-event check would:
    the lowest offending rank's first bad event, else its unwaited
    requests.
    """
    sel = np.flatnonzero((kind == EV_ISEND) | (kind == EV_IRECV)
                         | (kind == EV_WAIT))
    if not sel.size:
        return
    order = sel[np.lexsort((sel, request[sel], ranks[sel]))]
    r, q = ranks[order], request[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (r[1:] != r[:-1]) | (q[1:] != q[:-1])
    starts = np.flatnonzero(new)
    pos = np.arange(order.size) - starts[np.cumsum(new) - 1]
    is_wait = kind[order] == EV_WAIT
    bad = order[is_wait != (pos % 2 == 1)]
    ends = np.append(starts[1:], order.size) - 1
    open_end = ends[~is_wait[ends]]
    bad_rank = int(ranks[bad].min()) if bad.size else None
    open_rank = int(r[open_end].min()) if open_end.size else None
    if bad_rank is not None and (open_rank is None or bad_rank <= open_rank):
        first = int(bad[ranks[bad] == bad_rank].min())
        req = int(request[first])
        if kind[first] == EV_WAIT:
            raise ValueError(
                f"rank {bad_rank}: wait on unknown request {req}")
        raise ValueError(
            f"rank {bad_rank}: request {req} reused before being waited on")
    if open_rank is not None:
        pending = sorted(int(x) for x in q[open_end[r[open_end] == open_rank]])
        raise ValueError(f"rank {open_rank}: unwaited requests {pending}")


@dataclass(frozen=True)
class RankTrace:
    """Event stream of one MPI rank."""

    rank: int
    events: Tuple[RankEvent, ...]

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        cols: Tuple[List[int], ...] = ([], [], [], [], [], [])
        _encode(self.events, [], {}, cols)
        n = len(cols[0])
        _check_requests(np.full(n, self.rank, dtype=np.int64),
                        np.asarray(cols[0], dtype=np.int8),
                        np.asarray(cols[4], dtype=np.int64))

    def compute_phases(self) -> List[ComputePhase]:
        return [e for e in self.events if isinstance(e, ComputePhase)]

    def mpi_calls(self) -> List[MpiCall]:
        return [e for e in self.events if isinstance(e, MpiCall)]

    @property
    def total_compute_ns(self) -> float:
        """Reference (native-trace) compute time, perfectly parallel."""
        return sum(p.total_task_ns + p.serial_ns for p in self.compute_phases())

    @property
    def total_mpi_bytes(self) -> int:
        return sum(c.size_bytes for c in self.mpi_calls()
                   if c.kind in {"send", "isend"})


def _event_ranks(offsets: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(offsets.size - 1, dtype=np.int64),
                     np.diff(offsets))


def _rank_view(rank: int, events: Tuple[RankEvent, ...]) -> RankTrace:
    """A :class:`RankTrace` over events a validated trace already holds
    (skips re-validation)."""
    rt = object.__new__(RankTrace)
    object.__setattr__(rt, "rank", rank)
    object.__setattr__(rt, "events", events)
    return rt


class BurstTrace:
    """Whole-application coarse trace, stored as rank-major event columns.

    ``BurstTrace(app, ranks, n_iterations)`` builds one from
    :class:`RankTrace` objects; :meth:`from_columns` from the columns
    directly.  Both run the same validation.  Columns (read-only
    arrays, one row per event): ``kind`` (a code of
    :data:`EVENT_KINDS`), ``peer`` (-1 for none), ``size_bytes``,
    ``tag``, ``request`` (-1 for none) and ``phase`` (index into
    ``phases`` for compute rows, -1 otherwise).
    """

    def __init__(self, app: str, ranks: Sequence[RankTrace],
                 n_iterations: int = 1) -> None:
        ranks = tuple(ranks)
        if not ranks:
            raise ValueError("trace needs at least one rank")
        got = [r.rank for r in ranks]
        if got != list(range(len(ranks))):
            raise ValueError(f"ranks must be dense 0..N-1, got {got[:8]}...")
        phases: List[ComputePhase] = []
        index: Dict[int, int] = {}
        cols: Tuple[List[int], ...] = ([], [], [], [], [], [])
        offsets = [0]
        for rt in ranks:
            _encode(rt.events, phases, index, cols)
            offsets.append(len(cols[0]))
        self._set_columns(app, offsets, *cols, phases, n_iterations)
        self._ranks: Optional[Tuple[RankTrace, ...]] = ranks

    @classmethod
    def from_columns(cls, app: str, offsets, kind, peer, size_bytes, tag,
                     request, phase, phases: Sequence[ComputePhase],
                     n_iterations: int = 1) -> "BurstTrace":
        """A trace from rank-major event columns (see the class doc);
        ``offsets`` has ``n_ranks + 1`` entries, from 0 to the event
        count."""
        self = cls.__new__(cls)
        self._set_columns(app, offsets, kind, peer, size_bytes, tag,
                          request, phase, phases, n_iterations)
        self._ranks = None
        return self

    def _set_columns(self, app, offsets, kind, peer, size_bytes, tag,
                     request, phase, phases, n_iterations) -> None:
        def column(values) -> np.ndarray:
            arr = np.asarray(values)
            if arr.ndim != 1:
                raise ValueError("trace columns must be 1-d")
            if arr.size and arr.dtype.kind not in "iub":
                raise TypeError("trace columns must hold integers, got "
                                f"{arr.dtype}")
            arr = arr.astype(np.int64)
            arr.setflags(write=False)
            return arr

        offsets = column(offsets)
        kind = column(kind)
        cols = [column(c) for c in (peer, size_bytes, tag, request, phase)]
        n_events = kind.size
        if any(c.size != n_events for c in cols):
            raise ValueError("trace columns must be of equal length")
        if offsets.size < 2:
            raise ValueError("trace needs at least one rank")
        if (offsets[0] != 0 or offsets[-1] != n_events
                or (np.diff(offsets) < 0).any()):
            raise ValueError("ranks must be dense 0..N-1: offsets must run "
                             f"from 0 to {n_events} without decreasing")
        if n_iterations <= 0:
            raise ValueError("n_iterations must be positive")
        peer, size_bytes, tag, request, phase = cols
        phases = tuple(phases)
        n = offsets.size - 1

        bad = (kind < 0) | (kind >= len(EVENT_KINDS))
        if bad.any():
            raise ValueError(f"unknown MPI call kind code "
                             f"{int(kind[bad][0])}")
        if (size_bytes < 0).any():
            raise ValueError("size_bytes must be non-negative")
        needs = np.isin(kind, _NEEDS_PEER) & (peer == -1)
        if needs.any():
            raise ValueError(f"{EVENT_KINDS[int(kind[needs][0])]} requires "
                             "a peer rank")
        needs = np.isin(kind, _NEEDS_REQUEST) & (request == -1)
        if needs.any():
            raise ValueError(f"{EVENT_KINDS[int(kind[needs][0])]} requires "
                             "a request id")
        if (request < -1).any():
            raise ValueError("request ids must be non-negative")
        is_compute = kind == EV_COMPUTE
        ph = phase[is_compute]
        if ((ph < 0) | (ph >= len(phases))).any():
            raise ValueError("compute events must index the phase table")
        if (phase[~is_compute] != -1).any():
            raise ValueError("MPI events carry no phase index (-1)")
        for p in phases:
            if not isinstance(p, ComputePhase):
                raise TypeError(f"unexpected event type {type(p).__name__}")
        ranks = _event_ranks(offsets)
        _check_requests(ranks, kind, request)
        out = (peer < -1) | (peer >= n)
        if out.any():
            i = int(np.flatnonzero(out)[0])
            raise ValueError(f"rank {int(ranks[i])}: peer {int(peer[i])} "
                             f"out of range 0..{n-1}")

        kind = kind.astype(np.int8)
        kind.setflags(write=False)
        self.app = app
        self.n_iterations = n_iterations
        self.offsets = offsets
        self.kind = kind
        self.peer = peer
        self.size_bytes = size_bytes
        self.tag = tag
        self.request = request
        self.phase = phase
        self.phases: Tuple[ComputePhase, ...] = phases

    # -- views ------------------------------------------------------------------

    @property
    def n_ranks(self) -> int:
        return self.offsets.size - 1

    @property
    def n_events(self) -> int:
        return self.kind.size

    def event_ranks(self) -> np.ndarray:
        """The rank of every event row."""
        return _event_ranks(self.offsets)

    @property
    def ranks(self) -> Tuple[RankTrace, ...]:
        """The object view: one :class:`RankTrace` per rank (built on
        first access, then cached)."""
        if self._ranks is None:
            phases = self.phases
            events: List[RankEvent] = []
            for k, p, s, t, q, ph in zip(
                    self.kind.tolist(), self.peer.tolist(),
                    self.size_bytes.tolist(), self.tag.tolist(),
                    self.request.tolist(), self.phase.tolist()):
                if k == EV_COMPUTE:
                    events.append(phases[ph])
                else:
                    events.append(MpiCall(
                        EVENT_KINDS[k], None if p < 0 else p, s, t,
                        None if q < 0 else q))
            o = self.offsets.tolist()
            self._ranks = tuple(_rank_view(r, tuple(events[o[r]:o[r + 1]]))
                                for r in range(self.n_ranks))
        return self._ranks

    def __iter__(self) -> Iterator[RankTrace]:
        return iter(self.ranks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BurstTrace):
            return NotImplemented
        return (self.app == other.app
                and self.n_iterations == other.n_iterations
                and self.ranks == other.ranks)

    def __hash__(self) -> int:
        return hash((self.app, self.n_iterations, self.n_ranks,
                     self.n_events))

    def __repr__(self) -> str:
        return (f"BurstTrace(app={self.app!r}, n_ranks={self.n_ranks}, "
                f"n_events={self.n_events}, "
                f"n_iterations={self.n_iterations})")

    def kernel_names(self) -> List[str]:
        """All kernel names referenced by any task, sorted."""
        used = np.unique(self.phase[self.kind == EV_COMPUTE])
        return sorted({t.kernel for i in used.tolist()
                       for t in self.phases[i].tasks})

    def phase_counts(self) -> Tuple[int, int]:
        """(total compute phases, total MPI calls) across ranks."""
        n_phase = int((self.kind == EV_COMPUTE).sum())
        return n_phase, self.n_events - n_phase

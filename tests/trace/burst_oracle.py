"""Retained oracle for burst-trace generation.

:func:`burst_trace_loop` is the object-by-object generator
``AppModel.burst_trace`` used to be: it walks ranks, iterations, phases
and neighbours, appending one :class:`MpiCall` per call and the shared
canonical phase objects, then builds the trace from :class:`RankTrace`
objects.  The production generator emits the trace's event columns
directly; the tests require the two traces to be equal event for event,
with phase objects identical.
"""

from __future__ import annotations

from typing import List, Optional

from repro.apps.base import AppModel, grid_neighbors, rank_grid_dims
from repro.trace.burst import BurstTrace, RankTrace
from repro.trace.events import MpiCall

__all__ = ["burst_trace_loop"]


def burst_trace_loop(app: AppModel, n_ranks: int = 256,
                     n_iterations: Optional[int] = None) -> BurstTrace:
    n_iter = n_iterations or app.default_iterations
    if n_iter <= 0:
        raise ValueError("n_iterations must be positive")
    dims = rank_grid_dims(n_ranks)
    phases = app.canonical_phases()
    ranks = []
    for r in range(n_ranks):
        neighbours = grid_neighbors(r, dims)
        events: List = []
        req = 0
        for _ in range(n_iter):
            for phase in phases:
                # Boundary exchange feeding this phase.
                reqs: List[int] = []
                for nb in neighbours:
                    events.append(MpiCall(kind="irecv", peer=nb,
                                          size_bytes=app.halo_bytes,
                                          tag=0, request=req))
                    reqs.append(req)
                    req += 1
                for nb in neighbours:
                    events.append(MpiCall(kind="isend", peer=nb,
                                          size_bytes=app.halo_bytes,
                                          tag=0, request=req))
                    reqs.append(req)
                    req += 1
                for rq in reqs:
                    events.append(MpiCall(kind="wait", request=rq))
                events.append(phase)
            for _ in range(app.allreduce_per_iter):
                events.append(MpiCall(kind="allreduce", size_bytes=8))
        ranks.append(RankTrace(rank=r, events=tuple(events)))
    return BurstTrace(app=app.name, ranks=tuple(ranks),
                      n_iterations=n_iter)

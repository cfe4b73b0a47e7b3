"""Tests for burst trace containers.

Every ``test_rejects_*`` case runs through both constructors: from
:class:`RankTrace` objects and from event columns
(:meth:`BurstTrace.from_columns`), which must raise the same exception.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import APP_NAMES, get_app
from repro.trace import (
    COLLECTIVE_KINDS,
    P2P_KINDS,
    BurstTrace,
    ComputePhase,
    MpiCall,
    RankTrace,
    TaskRecord,
    burst_from_dict,
    burst_to_dict,
)
from repro.trace.burst import EV_COLLECTIVE, EVENT_KINDS, KIND_CODE, _encode

from .burst_oracle import burst_trace_loop

COLUMNS = ("offsets", "kind", "peer", "size_bytes", "tag", "request",
           "phase")


def _phase(n_tasks=2, phase_id=0):
    return ComputePhase(
        phase_id=phase_id,
        tasks=tuple(TaskRecord(kernel="k", duration_ns=10.0)
                    for _ in range(n_tasks)),
    )


def columnar(rank_events, app="x", n_iterations=1, offsets=None):
    """The trace of per-rank event lists built by the columnar
    constructor alone (no :class:`RankTrace` validation on the way)."""
    phases, index = [], {}
    cols = ([], [], [], [], [], [])
    offs = [0]
    for events in rank_events:
        _encode(events, phases, index, cols)
        offs.append(len(cols[0]))
    return BurstTrace.from_columns(app, offs if offsets is None else offsets,
                                   *cols, phases, n_iterations)


def assert_same_trace(a, b):
    for name in COLUMNS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert len(a.phases) == len(b.phases)
    assert all(x is y for x, y in zip(a.phases, b.phases))
    assert (a.app, a.n_iterations) == (b.app, b.n_iterations)
    assert a.ranks == b.ranks
    for ra, rb in zip(a.ranks, b.ranks):
        assert all(x is y for x, y in zip(ra.events, rb.events)
                   if isinstance(x, ComputePhase))


class TestRankTrace:
    def test_partitions_events(self):
        rt = RankTrace(rank=0, events=(
            _phase(), MpiCall(kind="barrier"), _phase(phase_id=1),
        ))
        assert len(rt.compute_phases()) == 2
        assert len(rt.mpi_calls()) == 1

    def test_total_compute(self):
        rt = RankTrace(rank=0, events=(_phase(3),))
        assert rt.total_compute_ns == pytest.approx(30.0)

    def test_bytes_counts_sends_only(self):
        rt = RankTrace(rank=0, events=(
            MpiCall(kind="isend", peer=1, size_bytes=100, request=0),
            MpiCall(kind="irecv", peer=1, size_bytes=999, request=1),
            MpiCall(kind="wait", request=0),
            MpiCall(kind="wait", request=1),
        ))
        assert rt.total_mpi_bytes == 100

    def test_rejects_unwaited_request(self):
        events = (MpiCall(kind="isend", peer=1, size_bytes=1, request=0),)
        with pytest.raises(ValueError, match="unwaited"):
            RankTrace(rank=0, events=events)
        with pytest.raises(ValueError, match="rank 0: unwaited"):
            columnar([events, ()])

    def test_rejects_wait_on_unknown_request(self):
        events = (MpiCall(kind="wait", request=5),)
        with pytest.raises(ValueError, match="unknown request"):
            RankTrace(rank=0, events=events)
        with pytest.raises(ValueError, match="unknown request 5"):
            columnar([events])

    def test_rejects_request_reuse_before_wait(self):
        events = (MpiCall(kind="isend", peer=1, size_bytes=1, request=0),
                  MpiCall(kind="irecv", peer=1, size_bytes=1, request=0))
        with pytest.raises(ValueError, match="reused"):
            RankTrace(rank=0, events=events)
        with pytest.raises(ValueError, match="request 0 reused"):
            columnar([events, ()])

    def test_rejects_negative_rank(self):
        with pytest.raises(ValueError):
            RankTrace(rank=-1, events=())
        # Columns number ranks implicitly; the analogue is offsets that
        # do not start at row 0.
        with pytest.raises(ValueError, match="dense"):
            columnar([()], offsets=[-1, 0])

    def test_rejects_non_event(self):
        with pytest.raises(TypeError, match="unexpected event type"):
            RankTrace(rank=0, events=("compute",))
        with pytest.raises(TypeError, match="unexpected event type"):
            BurstTrace.from_columns("x", [0, 1], [0], [-1], [0], [0], [-1],
                                    [0], ["compute"])

    def test_first_offending_rank_is_reported(self):
        # Rank 1 reuses a request, rank 2 never waits: the event-by-
        # event check stops at rank 1, and so must the array check.
        ok = (MpiCall(kind="isend", peer=0, size_bytes=1, request=0),
              MpiCall(kind="wait", request=0))
        with pytest.raises(ValueError, match="rank 1: request 3 reused"):
            columnar([ok, (MpiCall(kind="isend", peer=0, size_bytes=1,
                                   request=3),
                           MpiCall(kind="isend", peer=0, size_bytes=1,
                                   request=3)),
                      (MpiCall(kind="irecv", peer=0, size_bytes=1,
                               request=7),)])


class TestBurstTrace:
    def _trace(self, n_ranks=2):
        ranks = tuple(
            RankTrace(rank=r, events=(_phase(), MpiCall(kind="barrier")))
            for r in range(n_ranks)
        )
        return BurstTrace(app="test", ranks=ranks)

    def test_basic(self):
        t = self._trace(4)
        assert t.n_ranks == 4
        assert t.kernel_names() == ["k"]
        assert t.phase_counts() == (4, 4)

    def test_rejects_sparse_ranks(self):
        ranks = (RankTrace(rank=0, events=()), RankTrace(rank=2, events=()))
        with pytest.raises(ValueError, match="dense"):
            BurstTrace(app="x", ranks=ranks)
        with pytest.raises(ValueError, match="dense"):
            columnar([(), (_phase(),)], offsets=[0, 1, 0])

    def test_rejects_out_of_range_peer(self):
        ranks = (
            RankTrace(rank=0, events=(
                MpiCall(kind="isend", peer=5, size_bytes=1, request=0),
                MpiCall(kind="wait", request=0),
            )),
        )
        with pytest.raises(ValueError, match="peer"):
            BurstTrace(app="x", ranks=ranks)
        with pytest.raises(ValueError, match="peer"):
            columnar([ranks[0].events])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BurstTrace(app="x", ranks=())
        with pytest.raises(ValueError):
            columnar([])

    @pytest.mark.parametrize("column, value, match", [
        ("kind", 99, "unknown MPI call kind"),
        ("size_bytes", -1, "size_bytes"),
        ("peer", -1, "requires a peer"),
        ("request", -1, "requires a request"),
        ("request", -2, "non-negative"),
        ("phase", 0, "no phase index"),
    ])
    def test_rejects_bad_column_values(self, column, value, match):
        events = (MpiCall(kind="isend", peer=0, size_bytes=8, request=0),
                  MpiCall(kind="wait", request=0))
        cols = {"offsets": [0, 2], "kind": [3, 5], "peer": [0, -1],
                "size_bytes": [8, 0], "tag": [0, 0], "request": [0, 0],
                "phase": [-1, -1], "phases": [_phase()]}
        assert columnar([events]).ranks == BurstTrace.from_columns(
            "x", **cols).ranks
        cols[column] = list(cols[column])
        cols[column][0] = value
        with pytest.raises(ValueError, match=match):
            BurstTrace.from_columns("x", **cols)

    def test_rejects_non_integer_values(self):
        # A float size would be truncated in the columns the array
        # replay reads while the object view kept the float.
        events = (MpiCall(kind="send", peer=0, size_bytes=2.5),)
        with pytest.raises(TypeError, match="integers"):
            BurstTrace(app="x", ranks=(RankTrace(rank=0, events=events),))
        with pytest.raises(TypeError, match="integers"):
            columnar([events])

    def test_rejects_phase_index_outside_table(self):
        with pytest.raises(ValueError, match="phase table"):
            BurstTrace.from_columns("x", [0, 1], [0], [-1], [0], [0], [-1],
                                    [1], [_phase()])

    def test_rejects_nonpositive_iterations(self):
        with pytest.raises(ValueError, match="n_iterations"):
            BurstTrace(app="x", ranks=(RankTrace(rank=0, events=()),),
                       n_iterations=0)
        with pytest.raises(ValueError, match="n_iterations"):
            columnar([()], n_iterations=0)

    def test_iteration(self):
        t = self._trace(3)
        assert [rt.rank for rt in t] == [0, 1, 2]


class TestColumns:
    def test_kind_codes_cover_every_mpi_kind(self):
        assert EVENT_KINDS[0] == "compute"
        assert set(EVENT_KINDS[1:EV_COLLECTIVE]) == P2P_KINDS
        assert set(EVENT_KINDS[EV_COLLECTIVE:]) == COLLECTIVE_KINDS
        assert all(KIND_CODE[k] == i for i, k in enumerate(EVENT_KINDS))

    def test_object_view_is_lazy_cached_and_shares_phases(self):
        app = get_app("hydro")
        t = app.burst_trace(8, 1)
        assert t._ranks is None
        view = t.ranks
        assert t.ranks is view
        assert all(p is q for p, q in zip(
            view[3].compute_phases(), app.canonical_phases()))
        assert t.n_events == sum(len(rt.events) for rt in view)

    def test_columns_are_read_only(self):
        t = get_app("hydro").burst_trace(8, 1)
        for name in COLUMNS:
            with pytest.raises(ValueError):
                getattr(t, name)[0] = 1

    def test_object_trace_keeps_its_rank_objects(self):
        ranks = (RankTrace(rank=0, events=(_phase(),)),)
        t = BurstTrace(app="x", ranks=ranks)
        assert t.ranks[0] is ranks[0]


@pytest.mark.parametrize("n_ranks", [8, 16, 64, 256])
@pytest.mark.parametrize("app_name", APP_NAMES)
def test_generator_equals_object_loop_oracle(app_name, n_ranks):
    app = get_app(app_name)
    assert_same_trace(app.burst_trace(n_ranks),
                      burst_trace_loop(app, n_ranks))


@pytest.mark.parametrize("n_ranks, n_iterations", [(1, 2), (2, 1), (12, 3)])
def test_generator_small_grids_equal_oracle(n_ranks, n_iterations):
    # 1 rank has no neighbours; 2 and 12 ranks have axes of length 1-3,
    # where neighbours coincide.
    app = get_app("lulesh")
    assert_same_trace(app.burst_trace(n_ranks, n_iterations),
                      burst_trace_loop(app, n_ranks, n_iterations))


@pytest.mark.parametrize("app_name", APP_NAMES)
def test_serialize_round_trip_keeps_columns(app_name):
    t = get_app(app_name).burst_trace(8, 2)
    again = burst_from_dict(burst_to_dict(t))
    assert again == t
    # Deserialized phases are fresh objects, one per compute event, so
    # the phase table (and its indices) differs; the phases it points
    # at compare equal row by row.
    for name in COLUMNS:
        if name != "phase":
            assert np.array_equal(getattr(again, name),
                                  getattr(t, name)), name
    rows = np.flatnonzero(t.kind == 0)
    assert [again.phases[i] for i in again.phase[rows]] == \
        [t.phases[i] for i in t.phase[rows]]


# -- property: both constructors accept and reject the same inputs ----------

_POOL = (_phase(1, 0), _phase(2, 1), _phase(3, 2))


@st.composite
def event_specs(draw):
    """Per-rank raw event specs, valid or not: ``("phase", i)`` or
    ``(kind, peer, size, tag, request)`` (``None`` = absent)."""
    n_ranks = draw(st.integers(0, 3))
    mpi = st.tuples(
        st.sampled_from(EVENT_KINDS[1:] + ("bogus",)),
        st.one_of(st.none(), st.integers(-2, n_ranks).filter(
            lambda p: p != -1)),
        st.sampled_from((0, 8, -1)),
        st.sampled_from((0, 3)),
        st.one_of(st.none(), st.integers(-2, 2).filter(lambda q: q != -1)))
    spec = st.one_of(st.tuples(st.just("phase"), st.integers(0, 2)), mpi)
    ranks = draw(st.lists(st.lists(spec, max_size=6), min_size=n_ranks,
                          max_size=n_ranks))
    return ranks, draw(st.sampled_from((1, 2, 0)))


def _from_objects(specs, n_iterations):
    ranks = []
    for r, rank_specs in enumerate(specs):
        events = tuple(_POOL[sp[1]] if sp[0] == "phase" else MpiCall(*sp)
                       for sp in rank_specs)
        ranks.append(RankTrace(rank=r, events=events))
    return BurstTrace(app="p", ranks=ranks, n_iterations=n_iterations)


def _from_columns(specs, n_iterations):
    cols = {k: [] for k in ("kind", "peer", "size_bytes", "tag", "request",
                            "phase")}
    phases, offsets = [], [0]
    for rank_specs in specs:
        for sp in rank_specs:
            if sp[0] == "phase":
                p = _POOL[sp[1]]
                if not any(p is q for q in phases):
                    phases.append(p)
                row = (0, -1, 0, 0, -1,
                       next(i for i, q in enumerate(phases) if q is p))
            else:
                kind, peer, size, tag, req = sp
                row = (KIND_CODE.get(kind, 99),
                       -1 if peer is None else peer, size, tag,
                       -1 if req is None else req, -1)
            for k, v in zip(cols, row):
                cols[k].append(v)
        offsets.append(len(cols["kind"]))
    return BurstTrace.from_columns("p", offsets, phases=phases,
                                   n_iterations=n_iterations, **cols)


def _outcome(build, specs, n_iterations):
    try:
        return build(specs, n_iterations), None
    except (ValueError, TypeError) as exc:
        return None, type(exc)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=event_specs())
def test_constructors_agree(data):
    specs, n_iterations = data
    obj, obj_err = _outcome(_from_objects, specs, n_iterations)
    col, col_err = _outcome(_from_columns, specs, n_iterations)
    assert obj_err is col_err
    if obj is not None:
        assert_same_trace(obj, col)
        assert obj == col

"""The columnar tape build equals the event-by-event walk it replaced.

``_build_tape`` resolves message matching, waits and collectives with
array passes over a trace's event columns; :func:`walk_tape` (the
retained oracle) walks the object view event by event.  Their tapes
must be identical field by field — group kinds, rank and buffer
indices (slice or array alike), transfer times bit for bit, payloads by
identity, buffer sizes and message accounting — and both must return
``None`` on exactly the same traces.  ``_order_free`` is pinned against
its per-event scan the same way.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import APP_NAMES, get_app
from repro.core.musa import Musa
from repro.network import NetworkConfig
from repro.network.replay_batch import _build_tape, _order_free
from repro.trace import MpiCall

from .tape_oracle import order_free_loop, walk_tape
from .test_replay_engines import phase, round_traces, trace, zero_net

#: Networks the families are resolved under: the default eager
#: threshold, everything rendezvous, everything eager.
NETS = (zero_net(), zero_net(eager_threshold_bytes=0),
        zero_net(eager_threshold_bytes=10**9))


def _same_index(a, b):
    if isinstance(a, slice) or isinstance(b, slice):
        return a == b
    if a is None or b is None:
        return a is b
    return (type(a) is type(b) and a.dtype == b.dtype
            and np.array_equal(a, b))


def assert_same_tape(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got.n_msgs == want.n_msgs
    assert (got.n_events, got.n_messages, got.bytes_sent) == \
        (want.n_events, want.n_messages, want.bytes_sent)
    assert len(got.groups) == len(want.groups)
    for g, w in zip(got.groups, want.groups):
        kind, rr, widx, rsl, rsl2, tt2, pl = g
        assert kind == w[0]
        assert _same_index(rr, w[1])
        if isinstance(w[2], tuple):
            assert isinstance(widx, tuple) and len(widx) == len(w[2])
            for (t1, s1), (t2, s2) in zip(widx, w[2]):
                assert _same_index(t1, t2) and _same_index(s1, s2)
        else:
            assert _same_index(widx, w[2])
        assert rsl == w[3] and rsl2 == w[4]
        if w[5] is None:
            assert tt2 is None
        else:  # transfer times, bit for bit
            assert tt2.shape == w[5].shape
            assert np.array_equal(tt2.view(np.int64), w[5].view(np.int64))
        if isinstance(w[6], list):  # compute members: (rank, phase)
            assert [r for r, _ in pl] == [r for r, _ in w[6]]
            assert all(p is q for (_, p), (_, q) in zip(pl, w[6]))
        else:
            assert pl == w[6]


def assert_matches_oracle(t, net):
    assert_same_tape(_build_tape(t, net), walk_tape(t, net))
    assert _order_free(t, net) == order_free_loop(t, net)


@pytest.mark.parametrize("n_ranks", [16, 64, 256])
@pytest.mark.parametrize("app_name", APP_NAMES)
def test_app_tapes_equal_walk(app_name, n_ranks):
    app = get_app(app_name)
    t = app.burst_trace(n_ranks)
    net = Musa(app).network
    tape = _build_tape(t, net)
    assert tape is not None
    assert_same_tape(tape, walk_tape(t, net))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=round_traces(), net=st.sampled_from(NETS))
def test_round_trace_tapes_equal_walk(data, net):
    t, _, _ = data
    assert_matches_oracle(t, net)


@st.composite
def tangled_traces(draw):
    """Valid traces with no deadlock-freedom guarantee: self-sends,
    mixed protocols and tags on one key, waits long after their
    request and request ids reused — most bail out, the rest stress
    the matching."""
    n = draw(st.integers(1, 4))
    rank_events = []
    for _ in range(n):
        events, pending = [], []
        for _ in range(draw(st.integers(0, 8))):
            op = draw(st.sampled_from(("phase", "send", "recv", "isend",
                                       "irecv", "wait", "coll")))
            p2p = dict(peer=draw(st.integers(0, n - 1)),
                       size_bytes=draw(st.sampled_from((8, 4096, 10**6))),
                       tag=draw(st.integers(0, 1)))
            if op == "phase":
                events.append(phase(phase_id=draw(st.integers(0, 1))))
            elif op in ("send", "recv"):
                events.append(MpiCall(kind=op, **p2p))
            elif op in ("isend", "irecv"):
                free = [q for q in range(3) if q not in pending]
                if free:
                    q = draw(st.sampled_from(free))
                    pending.append(q)
                    events.append(MpiCall(kind=op, request=q, **p2p))
            elif op == "wait":
                if pending:
                    q = draw(st.sampled_from(pending))
                    pending.remove(q)
                    events.append(MpiCall(kind="wait", request=q))
            else:
                events.append(MpiCall(
                    kind=draw(st.sampled_from(("barrier", "allreduce"))),
                    size_bytes=draw(st.sampled_from((0, 8)))))
        events += [MpiCall(kind="wait", request=q) for q in pending]
        rank_events.append(events)
    return trace(rank_events)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(t=tangled_traces(), net=st.sampled_from(NETS))
def test_tangled_trace_tapes_equal_walk(t, net):
    assert_matches_oracle(t, net)


def test_collective_heavy_and_mixed_key_traces():
    evs = [[phase(phase_id=0), MpiCall(kind="allreduce", size_bytes=64),
            MpiCall(kind="barrier"), MpiCall(kind="bcast", size_bytes=4096),
            phase(phase_id=1)] for _ in range(4)]
    mixed = trace([
        [MpiCall(kind="send", peer=1, size_bytes=10**6),
         MpiCall(kind="isend", peer=1, size_bytes=8, request=0),
         MpiCall(kind="wait", request=0)],
        [MpiCall(kind="recv", peer=0, size_bytes=10**6),
         MpiCall(kind="recv", peer=0, size_bytes=8)],
    ])
    for net in NETS:
        assert_matches_oracle(trace(evs), net)
        assert_matches_oracle(mixed, net)


# -- one crafted trace per bail-out: both builders return None -------------

_BIG = 10**6  # rendezvous under the default eager threshold

BAIL_OUTS = {
    "ragged_collective_payload": [
        [MpiCall(kind="allreduce", size_bytes=8)],
        [MpiCall(kind="allreduce", size_bytes=16)]],
    "receive_with_no_sender": [
        [MpiCall(kind="recv", peer=1, size_bytes=8)], []],
    "unmatched_wait": [
        [MpiCall(kind="irecv", peer=1, size_bytes=8, request=0),
         MpiCall(kind="wait", request=0)], []],
    "partial_collective": [[MpiCall(kind="barrier")], []],
    "consumer_with_no_producer": [
        [MpiCall(kind="recv", peer=1, size_bytes=8),
         MpiCall(kind="recv", peer=1, size_bytes=8)],
        [MpiCall(kind="send", peer=0, size_bytes=8)]],
    "rendezvous_send_with_no_post": [
        [MpiCall(kind="send", peer=1, size_bytes=_BIG)], []],
    "dependency_cycle": [
        [MpiCall(kind="send", peer=1, size_bytes=_BIG),
         MpiCall(kind="recv", peer=1, size_bytes=_BIG)],
        [MpiCall(kind="send", peer=0, size_bytes=_BIG),
         MpiCall(kind="recv", peer=0, size_bytes=_BIG)]],
    # A rendezvous send and an isend on one key: the receiver's irecv
    # takes the key's (last, eager) protocol, so its wait reads the
    # post the rendezvous send reads too.
    "post_read_twice": [
        [MpiCall(kind="send", peer=1, size_bytes=_BIG),
         MpiCall(kind="isend", peer=1, size_bytes=8, request=0),
         MpiCall(kind="wait", request=0)],
        [MpiCall(kind="irecv", peer=0, size_bytes=_BIG, request=0),
         MpiCall(kind="wait", request=0),
         MpiCall(kind="recv", peer=0, size_bytes=8)]],
}


@pytest.mark.parametrize("case", sorted(BAIL_OUTS))
def test_bail_outs_return_none_in_both(case):
    t = trace(BAIL_OUTS[case])
    net = zero_net()
    assert walk_tape(t, net) is None
    assert _build_tape(t, net) is None

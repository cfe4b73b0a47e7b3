"""Retained oracle for the replay tape's structural pass.

:func:`walk_tape` is the event-by-event walk ``_build_tape`` used to
run: it resolves message matching, wait requests and collective
membership by walking the trace's object view in rank-major order,
numbering nodes and messages as it meets them.  The production builder
resolves the same structure with array passes over the trace's event
columns; the tests require the two tapes to be identical field by
field, and both to return ``None`` on the same traces.  Levelling,
grouping and buffer layout are shared (``_assemble_tape``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.network.model import NetworkConfig
from repro.network.replay_batch import (
    _K_COLL,
    _K_COMPUTE,
    _K_EAGER_SEND,
    _K_IRECV_POST,
    _K_RDV_COMPLETE,
    _K_RDV_POST,
    _K_RDV_SEND,
    _K_RECV_EAGER,
    _K_WAIT_ARR,
    _K_WAIT_EAGER,
    _assemble_tape,
    _Tape,
)
from repro.trace.burst import BurstTrace
from repro.trace.events import ComputePhase, MpiCall

__all__ = ["order_free_loop", "walk_tape"]


def walk_tape(trace: BurstTrace, net: NetworkConfig) -> Optional[_Tape]:
    """The tape of ``trace`` by one event-by-event walk over its object
    view (rank-major), or ``None`` where the walk bails out."""
    n = trace.n_ranks
    events = [trace.ranks[r].events for r in range(n)]
    n_events = sum(len(e) for e in events)

    # Pass 1: per-key protocol (guaranteed pure by _order_free).
    key_eager: Dict[Tuple[int, int, int], bool] = {}
    for r in range(n):
        for ev in events[r]:
            if isinstance(ev, MpiCall) and ev.kind in ("send", "isend"):
                key = (r, ev.peer, ev.tag)
                key_eager[key] = (ev.kind == "isend"
                                  or net.is_eager(ev.size_bytes))

    # Message registry: FIFO slot i of a key pairs send i with recv i.
    msg_transfer: List[Optional[float]] = []
    msg_arrival: List[Optional[int]] = []   # producer node (send)
    msg_post: List[Optional[int]] = []      # receive-post node
    key_slots: Dict[Tuple[int, int, int], List[int]] = defaultdict(list)

    def msg_slot(key, i: int) -> int:
        slots = key_slots[key]
        while len(slots) <= i:
            slots.append(len(msg_transfer))
            msg_transfer.append(None)
            msg_arrival.append(None)
            msg_post.append(None)
        return slots[i]

    # Nodes as parallel lists; dependencies as one flat edge list.  The
    # walk below runs once per trace event — the structural hot loop —
    # hence the inlined node construction via bound ``append``s.
    kinds: List[int] = []
    ranks: List[int] = []
    nmsg: List[int] = []
    payloads: List[object] = []
    e_src: List[int] = []
    e_dst: List[int] = []
    k_ap, r_ap, m_ap, p_ap = (kinds.append, ranks.append, nmsg.append,
                              payloads.append)
    es_ap, ed_ap = e_src.append, e_dst.append

    send_i: Dict[Tuple, int] = defaultdict(int)
    recv_i: Dict[Tuple, int] = defaultdict(int)
    colls: Dict[Tuple[str, int], int] = {}
    coll_members: Dict[int, int] = {}
    n_messages = 0
    bytes_sent = 0

    for r in range(n):
        coll_seq: Dict[str, int] = defaultdict(int)
        requests: Dict[int, Tuple[str, int]] = {}
        prev = -1
        for ev in events[r]:
            if isinstance(ev, ComputePhase):
                nid = len(kinds)
                k_ap(_K_COMPUTE), r_ap(r), m_ap(-1), p_ap(ev)
                if prev >= 0:
                    es_ap(prev), ed_ap(nid)
                prev = nid
                continue
            call: MpiCall = ev
            if call.is_collective:
                ckey = (call.kind, coll_seq[call.kind])
                coll_seq[call.kind] += 1
                nid = colls.get(ckey, -1)
                if nid < 0:
                    nid = len(kinds)
                    k_ap(_K_COLL), r_ap(-1), m_ap(-1)
                    p_ap((call.kind, call.size_bytes))
                    colls[ckey] = nid
                    coll_members[nid] = 0
                elif payloads[nid] != (call.kind, call.size_bytes):
                    return None  # ragged payload: completion order decides
                coll_members[nid] += 1
                if prev >= 0:
                    es_ap(prev), ed_ap(nid)
                prev = nid
            elif call.kind in ("send", "isend"):
                key = (r, call.peer, call.tag)
                mid = msg_slot(key, send_i[key])
                send_i[key] += 1
                msg_transfer[mid] = net.transfer_ns(call.size_bytes)
                eager = call.kind == "isend" or net.is_eager(call.size_bytes)
                nid = len(kinds)
                k_ap(_K_EAGER_SEND if eager else _K_RDV_SEND)
                r_ap(r), m_ap(mid), p_ap(None)
                if prev >= 0:
                    es_ap(prev), ed_ap(nid)
                prev = nid
                msg_arrival[mid] = nid
                if call.kind == "isend":
                    requests[call.request] = ("s", mid)
                n_messages += 1
                bytes_sent += call.size_bytes
            elif call.kind == "recv":
                key = (call.peer, r, call.tag)
                mid = msg_slot(key, recv_i[key])
                recv_i[key] += 1
                eager = key_eager.get(key)
                if eager is None:
                    return None  # no sender ever: structural deadlock
                nid = len(kinds)
                if eager:
                    k_ap(_K_RECV_EAGER), r_ap(r), m_ap(mid), p_ap(None)
                    if prev >= 0:
                        es_ap(prev), ed_ap(nid)
                    prev = nid
                else:
                    k_ap(_K_RDV_POST), r_ap(r), m_ap(mid), p_ap(None)
                    if prev >= 0:
                        es_ap(prev), ed_ap(nid)
                    msg_post[mid] = nid
                    k_ap(_K_RDV_COMPLETE), r_ap(r), m_ap(mid), p_ap(None)
                    es_ap(nid), ed_ap(nid + 1)
                    prev = nid + 1
            elif call.kind == "irecv":
                key = (call.peer, r, call.tag)
                mid = msg_slot(key, recv_i[key])
                recv_i[key] += 1
                eager = key_eager.get(key)
                nid = len(kinds)
                k_ap(_K_IRECV_POST), r_ap(r), m_ap(mid), p_ap(None)
                if prev >= 0:
                    es_ap(prev), ed_ap(nid)
                prev = nid
                msg_post[mid] = nid
                requests[call.request] = (
                    "x" if eager is None else ("e" if eager else "r"), mid)
            elif call.kind == "wait":
                entry = requests.pop(call.request, None)
                if entry is None or entry[0] == "x":
                    return None  # unknown request / unmatched irecv
                tag, mid = entry
                nid = len(kinds)
                k_ap(_K_WAIT_EAGER if tag == "e" else _K_WAIT_ARR)
                r_ap(r), m_ap(mid), p_ap(None)
                if prev >= 0:
                    es_ap(prev), ed_ap(nid)
                prev = nid
            else:
                return None  # unhandled kind: scalar engine raises

    for nid, count in coll_members.items():
        if count != n:
            return None  # some rank never joins: structural deadlock

    # Cross-rank value edges, resolved now that every producer exists.
    for nid, kind in enumerate(kinds):
        if kind in (_K_RECV_EAGER, _K_RDV_COMPLETE, _K_WAIT_ARR,
                    _K_WAIT_EAGER):
            mid = nmsg[nid]
            arr = msg_arrival[mid]
            if arr is None:
                return None  # consumes a message nobody sends
            es_ap(arr), ed_ap(nid)
            if kind == _K_WAIT_EAGER:
                es_ap(msg_post[mid]), ed_ap(nid)
        elif kind == _K_RDV_SEND:
            post = msg_post[nmsg[nid]]
            if post is None:
                return None  # rendezvous sender blocks forever
            es_ap(post), ed_ap(nid)

    return _assemble_tape(
        n, np.asarray(kinds, dtype=np.int64),
        np.asarray(ranks, dtype=np.int64), np.asarray(nmsg, dtype=np.int64),
        payloads, np.asarray(e_src, dtype=np.int64),
        np.asarray(e_dst, dtype=np.int64),
        np.asarray([np.nan if t is None else t for t in msg_transfer],
                   dtype=np.float64),
        n_events, n_messages, bytes_sent)


def order_free_loop(trace: BurstTrace, net: NetworkConfig) -> bool:
    """``_order_free`` as the per-event scan it used to be."""
    if net.n_buses > 0:
        return False
    classes: Dict[Tuple[int, int, int], bool] = {}
    for rt in trace.ranks:
        for ev in rt.events:
            if isinstance(ev, MpiCall) and ev.kind in ("send", "isend"):
                key = (rt.rank, ev.peer, ev.tag)
                eager = ev.kind == "isend" or net.is_eager(ev.size_bytes)
                if classes.setdefault(key, eager) != eager:
                    return False
    return True

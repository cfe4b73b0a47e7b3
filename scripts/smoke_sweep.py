#!/usr/bin/env python
"""CI smoke sweep: 2 apps x 8 configs exercising fault injection,
journal resume, and the batched evaluation engine.

Asserts that a campaign killed mid-run by an injected fatal fault and
resumed from its journal is bit-identical to an uninterrupted run, that
retried faults leave no failure stubs, that the batched (config-major)
engine produces bit-identical results to scalar per-config evaluation
— in fast mode and in replay mode, where the config-vectorized replay
engine must match per-config scalar replay byte-for-byte — that a
campaign split into two K/N shards and merged back with merge_journal
resumes bit-identically with zero re-evaluation, and that the
execution metrics report throughput and memoization.
Exits non-zero on any violation.

Run from the repo root:  PYTHONPATH=src python scripts/smoke_sweep.py
"""

import json
import sys
import tempfile
from pathlib import Path

from repro.config import smoke_design_space
from repro.core import (FailNTimes, SweepAbort, merge_journal,
                        replay_journal, run_sweep)
from repro.obs import MetricsRegistry, summarize

APPS = ["spmz", "hydro"]
SPACE = smoke_design_space()  # 8 configurations


def main() -> int:
    assert len(SPACE) == 8, f"smoke space drifted: {len(SPACE)} configs"
    print(f"smoke sweep: {len(APPS)} apps x {len(SPACE)} configs")

    # 0. Batched (default) vs scalar evaluation: bit-identical results.
    reg_b = MetricsRegistry()
    cold = run_sweep(APPS, SPACE, processes=1, metrics=reg_b)
    reference = json.dumps(list(cold), sort_keys=True)
    assert reg_b.counter("sweep.batch.configs") == len(APPS) * len(SPACE)
    assert reg_b.counter("sweep.batch.fallback") == 0
    assert reg_b.counter("miss.batch.geometries") > 0, \
        "batched sweep never used the vectorized miss model"
    assert reg_b.counter("sched.batch.fast") > 0, \
        "batched sweep never used the vectorized phase scheduler"

    reg_s = MetricsRegistry()
    scalar = run_sweep(APPS, SPACE, processes=1, batch=False,
                       metrics=reg_s)
    assert reg_s.counter("sweep.batch.configs") == 0
    assert json.dumps(list(scalar), sort_keys=True) == reference, \
        "batched sweep differs from scalar sweep"
    print(f"  batched == scalar: {len(cold)} records bit-identical")

    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "smoke.jsonl"

        # 1. Kill the campaign partway through via an injected fatal
        #    fault, then resume from the journal.
        victim = list(SPACE)[5].label
        try:
            run_sweep(APPS, SPACE, processes=1, resume=journal,
                      fault_hook=FailNTimes(times=1, fatal=True,
                                            label=victim, app="spmz"))
            raise AssertionError("injected abort did not fire")
        except SweepAbort:
            pass
        # The columnar journal packs a whole shard into one block line,
        # so count replayed records, not lines.
        n_journaled = len(replay_journal(journal).results)
        assert 0 < n_journaled < len(APPS) * len(SPACE), n_journaled
        print(f"  killed mid-run after {n_journaled} journaled records")

        reg = MetricsRegistry()
        resumed = run_sweep(APPS, SPACE, processes=1, resume=journal,
                            metrics=reg)
        assert reg.counter("sweep.tasks.skipped") == n_journaled
        assert json.dumps(list(resumed), sort_keys=True) == reference, \
            "resumed sweep differs from uninterrupted run"
        print(f"  resume OK: skipped {n_journaled}, "
              f"simulated {int(reg.counter('sweep.tasks.completed'))}, "
              "results bit-identical")

    # 2. Transient faults on every task are retried to completion.
    reg = MetricsRegistry()
    faulty = run_sweep(APPS, SPACE, processes=1,
                       fault_hook=FailNTimes(times=1),
                       retry_backoff_s=0.0, metrics=reg)
    assert json.dumps(list(faulty), sort_keys=True) == reference
    assert len(faulty.failures()) == 0
    assert reg.counter("sweep.retries") == len(APPS) * len(SPACE)
    print(f"  fault injection OK: {int(reg.counter('sweep.retries'))} "
          "retries, zero stubs")

    # 3. Metrics report throughput and memoization.  The memoization
    #    check reads the *scalar* run's registry: the batched engine
    #    resolves kernel timings column-wise and barely touches the
    #    scalar kernel memo.
    d = summarize(reg.snapshot())["derived"]
    assert d["tasks_per_second"] and d["tasks_per_second"] > 0
    ds = summarize(reg_s.snapshot())["derived"]
    assert ds["memo_hit_rate"] is not None and ds["memo_hit_rate"] > 0
    print(f"  metrics OK: {d['tasks_per_second']:.1f} tasks/s, "
          f"scalar memo hit rate {ds['memo_hit_rate']:.2f}")

    # 4. Replay mode: event-driven MPI trace replay per point must give
    #    identical ResultSets across worker counts, differ from the
    #    analytic fast mode, and report replay activity.
    reg_r = MetricsRegistry()
    replay_1 = run_sweep(APPS, SPACE, n_ranks=16, processes=1,
                         mode="replay", metrics=reg_r)
    replay_ref = json.dumps(list(replay_1), sort_keys=True)
    replay_2 = run_sweep(APPS, SPACE, n_ranks=16, processes=2,
                         mode="replay")
    assert json.dumps(list(replay_2), sort_keys=True) == replay_ref, \
        "replay-mode sweep differs across worker counts"
    fast_16 = run_sweep(APPS, SPACE, n_ranks=16, processes=1)
    assert json.dumps(list(fast_16), sort_keys=True) != replay_ref, \
        "replay mode produced fast-mode results"
    dr = summarize(reg_r.snapshot())["derived"]
    assert dr["replay_events"] > 0 and dr["replay_messages"] > 0
    assert dr["replay_array_events"] > 0, \
        "batched replay sweep never priced an event on the array tape"
    snap_r = reg_r.snapshot()
    assert snap_r["counters"].get("replay.batch.array_fallbacks", 0) == 0, \
        "a replay tape bailed out to the worklist driver"
    n_tapes = snap_r["counters"].get("replay.tape.builds", 0)
    assert n_tapes > 0 and dr["replay_tapes_built"] == n_tapes
    assert snap_r["timers"]["replay.tape.build"]["count"] == n_tapes, \
        "replay.tape.build spans do not match replay.tape.builds"
    print(f"  replay mode OK: {len(replay_1)} records identical across "
          f"1 and 2 workers, {int(dr['replay_events'])} events, "
          f"{int(dr['replay_messages'])} messages")

    # 5. Config-vectorized replay (the batched default above) vs the
    #    per-config scalar replay path: byte-for-byte identical
    #    ResultSets.
    reg_rs = MetricsRegistry()
    replay_scalar = run_sweep(APPS, SPACE, n_ranks=16, processes=1,
                              mode="replay", batch=False, metrics=reg_rs)
    drs = summarize(reg_rs.snapshot())["derived"]
    assert drs["replay_lockstep_events"] == 0
    assert drs["replay_array_events"] == 0
    assert json.dumps(list(replay_scalar), sort_keys=True) == replay_ref, \
        "config-vectorized replay differs from per-config replay"
    print(f"  replay batching OK: batched == per-config byte-for-byte, "
          f"{int(dr['replay_array_events'])} array events, "
          f"{int(dr['replay_peeled_configs'])} peeled")

    # 6. Sharded campaign: two disjoint K/N shards journaled separately,
    #    merged with merge_journal, must resume into the canonical
    #    ResultSet byte-for-byte with zero re-evaluation — and the
    #    merged journal must be byte-stable regardless of input order.
    with tempfile.TemporaryDirectory() as tmp:
        s0 = Path(tmp) / "s0.jsonl"
        s1 = Path(tmp) / "s1.jsonl"
        part0 = run_sweep(APPS, SPACE, processes=1, resume=s0, shard="0/2")
        part1 = run_sweep(APPS, SPACE, processes=1, resume=s1, shard="1/2")
        assert len(part0) + len(part1) == len(APPS) * len(SPACE)
        m_ab = Path(tmp) / "m_ab.jsonl"
        m_ba = Path(tmp) / "m_ba.jsonl"
        merge_journal([s0, s1], m_ab)
        merge_journal([s1, s0], m_ba)
        assert m_ab.read_bytes() == m_ba.read_bytes(), \
            "merged journal depends on shard input order"
        reg_m = MetricsRegistry()
        merged_run = run_sweep(APPS, SPACE, processes=1, resume=m_ab,
                               metrics=reg_m)
        assert reg_m.counter("sweep.tasks.completed") == 0, \
            "resume from merged shards re-evaluated tasks"
        assert json.dumps(list(merged_run), sort_keys=True) == reference, \
            "merged 2-shard journals differ from the single-process sweep"
        print(f"  shard merge OK: {len(part0)}+{len(part1)} tasks from 2 "
              "shards, merged resume bit-identical, zero re-evaluations")
    print("smoke sweep passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

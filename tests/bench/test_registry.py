"""Registry contract: ids, selection, and smoke-tier identity oracles.

Runs the cheap benchmarks end-to-end at smoke tier with a single
repeat — the point is the oracle (bit-identity against the scalar
path), not the timing.
"""

import pytest

from repro.bench import REGISTRY, REQUIRED_COUNTERS, get_benchmarks, run_case
from repro.config import smoke_design_space
from repro.bench.registry import SMOKE_SPACE


def test_registry_ids_unique_and_kind_prefixed():
    ids = list(REGISTRY)
    assert len(ids) == len(set(ids))
    for bid, bench in REGISTRY.items():
        assert bid == bench.id
        assert bid.startswith(f"{bench.kind}.")


def test_registry_covers_the_issue_workloads():
    have = set(REGISTRY)
    assert {"micro.miss_model", "micro.phase_sched", "micro.tape_replay",
            "micro.bus_arbitration", "micro.event_engine",
            "macro.fast_sweep", "macro.replay_sweep",
            "macro.campaign", "macro.serve_query"} <= have


def test_get_benchmarks_selection():
    assert [b.id for b in get_benchmarks(None)] == list(REGISTRY)
    assert [b.id for b in get_benchmarks(["micro"])] == [
        bid for bid in REGISTRY if bid.startswith("micro.")]
    assert [b.id for b in get_benchmarks(["macro."])] == [
        bid for bid in REGISTRY if bid.startswith("macro.")]
    assert [b.id for b in get_benchmarks(["macro.campaign"])] \
        == ["macro.campaign"]
    with pytest.raises(KeyError):
        get_benchmarks(["micro.not_a_benchmark"])


def test_smoke_space_is_the_shared_preset():
    assert SMOKE_SPACE == smoke_design_space()
    assert len(SMOKE_SPACE) == 8


def test_required_counters_cover_the_pinned_families():
    assert "miss.batch.geometries" in REQUIRED_COUNTERS
    assert "sched.batch.fast" in REQUIRED_COUNTERS
    assert any(c.startswith("replay.batch.") for c in REQUIRED_COUNTERS)


@pytest.mark.parametrize("bid", ["micro.miss_model", "micro.phase_sched",
                                 "micro.tape_replay", "micro.trace_tape",
                                 "micro.bus_arbitration",
                                 "micro.event_engine"])
def test_micro_smoke_oracles_green(bid):
    bench = get_benchmarks([bid])[0]
    res = run_case(bench, tier="smoke", repeats=1, warmup=0)
    assert res.oracle_ok, f"{bid}: {res.oracle_detail}"
    assert res.min_s > 0
    assert res.calib_min_s and res.calib_min_s > 0


def test_macro_fast_sweep_smoke_oracle_green():
    bench = get_benchmarks(["macro.fast_sweep"])[0]
    res = run_case(bench, tier="smoke", repeats=1, warmup=0)
    assert res.oracle_ok, res.oracle_detail
    assert res.meta["n_configs"] == len(SMOKE_SPACE)


def test_macro_serve_query_smoke_oracle_green():
    bench = get_benchmarks(["macro.serve_query"])[0]
    res = run_case(bench, tier="smoke", repeats=1, warmup=0)
    assert res.oracle_ok, res.oracle_detail
    assert res.meta["n_configs"] == len(SMOKE_SPACE)
    # The timed path is pure store assembly; the builder's cold
    # evaluation time is recorded for the warm-vs-cold comparison.
    assert res.meta["cold_s"] > 0
    assert res.min_s < res.meta["cold_s"]

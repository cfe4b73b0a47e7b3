"""Property tests for the trend ledger (satellite: hypothesis suite).

Pins the algebra the ledger's durability story rests on:

* append + merge are idempotent, commutative, associative and
  order-insensitive (content-digest dedup in canonical order);
* save/load round-trips through JSONL, tolerating torn tails;
* normalization is scale-invariant — a uniformly k-times-slower
  machine reports the same normalized cost;
* the regression gate is a deterministic pure function of
  (results, ledger, threshold), with verdict math checked against
  hand-crafted entries.
"""

import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import (
    BenchResult,
    Ledger,
    check,
    make_entry,
    normalized,
)

_SETTINGS = settings(max_examples=50, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

_BENCH_IDS = ("micro.a", "micro.b", "macro.c")


def _entries():
    finite = st.floats(min_value=1e-6, max_value=1e3,
                       allow_nan=False, allow_infinity=False)
    return st.fixed_dictionaries({
        "bench": st.sampled_from(_BENCH_IDS),
        "kind": st.sampled_from(("micro", "macro")),
        "tier": st.sampled_from(("full", "smoke")),
        "raw_min_s": finite,
        "calib_s": finite,
        "norm": finite,
        "oracle_ok": st.booleans(),
        "inject_slowdown": st.sampled_from((1.0, 1.2, 2.0)),
        "host": st.fixed_dictionaries(
            {"id": st.sampled_from(("hostA", "hostB"))}),
        "ts": st.integers(min_value=0, max_value=10**6).map(
            lambda n: f"2026-01-01T00:00:{n:06d}"),
        "seed": st.booleans(),
    })


def _ledgers():
    return st.lists(_entries(), max_size=12).map(Ledger)


@given(_ledgers())
@_SETTINGS
def test_merge_idempotent(led):
    assert led.merge(led) == led


@given(_ledgers(), _ledgers())
@_SETTINGS
def test_merge_commutative(a, b):
    assert a.merge(b) == b.merge(a)


@given(_ledgers(), _ledgers(), _ledgers())
@_SETTINGS
def test_merge_associative(a, b, c):
    assert a.merge(b).merge(c) == a.merge(b.merge(c))


@given(st.lists(_entries(), max_size=12), st.randoms())
@_SETTINGS
def test_entry_order_is_irrelevant(entries, rng):
    shuffled = list(entries)
    rng.shuffle(shuffled)
    assert Ledger(entries) == Ledger(shuffled)


@given(st.lists(_entries(), max_size=12))
@_SETTINGS
def test_save_load_roundtrip(entries):
    import tempfile
    from pathlib import Path
    led = Ledger(entries)
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "ledger.jsonl"
        led.save(p)
        assert Ledger.load(p) == led
        # Append-only write path agrees with save/load too.
        p2 = Path(d) / "appended.jsonl"
        Ledger.append_to(p2, entries)
        assert Ledger.load(p2) == led
        # A torn tail (crashed append) is ignored, not fatal.
        with p2.open("a", encoding="utf-8") as fh:
            fh.write('{"bench": "micro.a", "tr')
        assert Ledger.load(p2) == led


@given(st.floats(min_value=1e-6, max_value=1e3),
       st.floats(min_value=1e-6, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
@_SETTINGS
def test_normalization_scale_invariant(raw, calib, k):
    # A machine uniformly k times slower: same normalized cost.
    assert math.isclose(normalized(raw * k, calib * k),
                        normalized(raw, calib), rel_tol=1e-9)


def _result(bench="micro.a", tier="full", min_s=2.0, oracle_ok=True,
            calib=1.0, inject=1.0):
    return BenchResult(
        bench=bench, kind="micro", tier=tier, samples_s=[min_s],
        min_s=min_s, median_s=min_s, oracle_ok=oracle_ok,
        oracle_detail=None if oracle_ok else "mismatch", meta={},
        inject_slowdown=inject, calib_samples_s=[calib], calib_min_s=calib)


def _clean_entry(bench="micro.a", tier="full", norm=1.0, host="hostA",
                 **over):
    e = {"bench": bench, "kind": "micro", "tier": tier, "raw_min_s": norm,
         "calib_s": 1.0, "norm": norm, "oracle_ok": True,
         "inject_slowdown": 1.0, "host": {"id": host},
         "ts": "2026-01-01T00:00:00", "seed": False}
    e.update(over)
    return e


@given(st.lists(_entries(), max_size=12),
       st.floats(min_value=0.0, max_value=1.0))
@_SETTINGS
def test_check_is_deterministic(entries, threshold):
    led = Ledger(entries)
    results = [_result(b, t) for b in _BENCH_IDS for t in ("full", "smoke")]
    v1 = check(results, led, threshold, calib_s=1.0, host_id="hostA")
    v2 = check(results, led, threshold, calib_s=1.0, host_id="hostA")
    assert v1 == v2


def test_baseline_is_median_of_clean_entries():
    led = Ledger([_clean_entry(norm=n) for n in (1.0, 2.0, 9.0)])
    assert led.baseline("micro.a", "full") == 2.0


def test_baseline_ignores_injected_oracle_failed_and_bad_norms():
    led = Ledger([
        _clean_entry(norm=1.0),
        _clean_entry(norm=0.1, inject_slowdown=1.2),   # gate self-test
        _clean_entry(norm=0.1, oracle_ok=False),       # broken identity
        _clean_entry(norm=float("nan")),
        _clean_entry(norm=-1.0),
    ])
    assert led.baseline("micro.a", "full") == 1.0


def test_baseline_prefers_same_host():
    led = Ledger([_clean_entry(norm=1.0, host="hostA"),
                  _clean_entry(norm=5.0, host="hostB")])
    assert led.baseline("micro.a", "full", host_id="hostA") == 1.0
    assert led.baseline("micro.a", "full", host_id="hostB") == 5.0
    # Unknown host: falls back to the whole pool.
    assert led.baseline("micro.a", "full", host_id="hostZ") == 3.0


def test_verdict_math_regression_and_ok():
    led = Ledger([_clean_entry(norm=1.0)])
    # Paired calib 1.0 -> current norm == min_s.
    ok = check([_result(min_s=1.05)], led, threshold=0.10, calib_s=1.0)[0]
    assert ok.status == "ok" and not ok.failed
    assert math.isclose(ok.ratio, 0.05)
    bad = check([_result(min_s=1.25)], led, threshold=0.10, calib_s=1.0)[0]
    assert bad.status == "regression" and bad.failed
    assert math.isclose(bad.ratio, 0.25)
    assert bad.baseline_norm == 1.0


def test_verdict_no_baseline_passes():
    # Only the smoke tier lets an unbaselined benchmark through.
    v = check([_result(tier="smoke")], Ledger(), threshold=0.0,
              calib_s=1.0)[0]
    assert v.status == "no-baseline" and not v.failed


def test_verdict_no_baseline_fails_full_tier():
    v = check([_result(tier="full")], Ledger(), threshold=0.0,
              calib_s=1.0)[0]
    assert v.status == "no-baseline" and v.failed


def test_verdict_oracle_failure_fails_regardless_of_speed():
    led = Ledger([_clean_entry(norm=100.0)])
    v = check([_result(min_s=0.001, oracle_ok=False)], led,
              threshold=0.10, calib_s=1.0)[0]
    assert v.status == "oracle-failed" and v.failed


def test_check_uses_paired_calibration():
    led = Ledger([_clean_entry(norm=1.0)])
    # min_s 4.0 with paired calib 4.0 -> norm 1.0, not 4.0.
    v = check([_result(min_s=4.0, calib=4.0)], led,
              threshold=0.10, calib_s=1.0)[0]
    assert v.status == "ok"
    assert math.isclose(v.current_norm, 1.0)


def test_make_entry_roundtrips_through_gate():
    r = _result(min_s=3.0, calib=1.5)
    e = make_entry(r, calib_s=99.0, host={"id": "hostA"},
                   code_version="abc1234")
    assert e["calib_s"] == 1.5  # paired calib wins over the fallback
    assert math.isclose(e["norm"], 2.0)
    assert e["bench"] == "micro.a" and e["code_version"] == "abc1234"
    json.dumps(e)  # JSONL-serializable
    led = Ledger([e])
    v = check([r], led, threshold=0.10, calib_s=99.0, host_id="hostA")[0]
    assert v.status == "ok" and math.isclose(v.ratio, 0.0)

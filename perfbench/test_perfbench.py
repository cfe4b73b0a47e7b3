"""Self-tests of the benchmark (not part of the tier-1 suite).

    python3 -m pytest perfbench -q

Each end-to-end test runs ``run.py`` on the seconds-long ``tiny``
inputs in child processes, exactly as the full benchmark runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seconds",
         "1", *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--size", "tiny",
                 "--trace", trace)
    out = result(proc)
    kind = "per_layer" if trace == "1" else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    for name, metric in out["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert f"  {name} " in proc.stdout  # printed by name
    if trace == "0":
        assert all(out["metrics"][m["name"]]["value"] > 0
                   for m in SPEC["end_to_end"])
    else:
        assert out["metrics"]["guard.flags"]["value"] == 0, proc.stdout


@pytest.mark.parametrize("workload", ["campaign", "serve"])
def test_corrupted_record_fails_the_run(workload):
    out = result(bench("--workload", workload, "--seed", "3", "--size",
                       "tiny", "--inject-corruption"))
    assert out["failed"] > 0 and out["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = bench("--workload", "campaign", "--size", "tiny", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def shape(space):
    return tuple(len(space.axis_values(a)) for a in inputs.AXES)


def query_kinds(queries):
    return sorted((q["kind"], q.get("mode", "fast"), len(q.get("apps", [])),
                   len(q.get("subset", {}))) for q in queries)


@pytest.mark.parametrize("size", inputs.SIZES)
def test_same_seed_same_inputs(size):
    for seed in (0, 5):
        assert inputs.campaign_space(seed, size) == \
            inputs.campaign_space(seed, size)
        assert inputs.replay_space(seed, size) == \
            inputs.replay_space(seed, size)
        assert inputs.serve_queries(seed, size) == \
            inputs.serve_queries(seed, size)


@pytest.mark.parametrize("size", inputs.SIZES)
def test_other_seeds_other_inputs_same_shape(size):
    seeds = (0, 1, 2, inputs.HELD_OUT_SEED)
    for make in (inputs.campaign_space, inputs.replay_space):
        spaces = [make(s, size) for s in seeds]
        assert len({shape(s) for s in spaces}) == 1
        assert len(set(spaces)) == len(seeds)
    mixes = [inputs.serve_queries(s, size) for s in seeds]
    assert len({len(q) for q in mixes}) == 1
    kinds = [[q["kind"] + q.get("mode", "") for q in m] for m in mixes]
    assert all(k == kinds[0] for k in kinds)  # same order, too
    assert len({json.dumps(m, sort_keys=True) for m in mixes}) == len(seeds)


def test_seed_zero_is_the_paper_input():
    assert len(inputs.campaign_space(0)) == 576
    assert inputs.campaign_space(0).core_counts == (16, 32, 48, 64)
    table = inputs.full_design_space()
    assert inputs.replay_space(0) == table.restrict(cores=64)
    queries = inputs.serve_queries(0)
    assert len(queries) == 400
    counts = {}
    for q in queries:
        key = "replay" if q.get("mode") == "replay" else q["kind"]
        counts[key] = counts.get(key, 0) + 1
    assert counts == {"sweep": 260, "best": 60, "delta": 60, "replay": 20}


def test_missing_shim_target_is_an_error():
    tracer = tracing.Tracer({"ghost": (("repro.core.sweep", "no_such"),)})
    with pytest.raises(LookupError, match="no_such"):
        tracer.install()


def test_self_times_add_up(monkeypatch):
    import types

    mod = types.ModuleType("perfbench_fake_layers")
    mod.inner = lambda: sum(range(20000))
    mod.outer = lambda: [mod.inner() for _ in range(3)]
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    tracer = tracing.Tracer({"a": ((mod.__name__, "outer"),),
                             "b": ((mod.__name__, "inner"),)})
    tracer.install()
    try:
        mod.outer()
        mod.inner()
    finally:
        report = tracer.report()
        tracer.uninstall()
    assert report["calls"] == {"a": 1, "b": 4}
    assert min(report["self_s"].values()) > 0
    assert sum(report["self_s"].values()) == pytest.approx(
        report["root_s"], rel=1e-9)
    assert report["negative_spans"] == 0

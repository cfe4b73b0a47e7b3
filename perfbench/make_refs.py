"""Regenerate the pinned reference digests in ``perfbench/refs/``.

    PYTHONPATH=src python3 perfbench/make_refs.py [--only campaign|replay|serve]

Run once, at the commit that defines the benchmark; later commits are
checked against these files, so regenerating them is a change to the
benchmark, not to the engine.  Pinned seeds: 0 (paper-derived) and the
held-out seed.  Sources:

* ``campaign`` — the scalar oracle ``run_sweep(..., batch=False)``;
  SHA-256 per chunk of 576 canonical record lines, in task order;
* ``replay`` — LULESH's slice from the scalar oracle
  ``run_sweep(..., batch=False)``, in the golden-digest form
  ``json.dumps({"records": ...}, sort_keys=True)``; at seed 0 also the
  ``lulesh_replay_864_r256`` digest of
  ``tests/integration/golden_digests.json`` (LULESH over all of Table I),
  which the run's first repetition checks;
* ``serve`` — each query's result SHA-256 from the in-process
  reference pass (``child.py reference``).
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

import child
import inputs
from repro.apps import APP_NAMES
from repro.core.sweep import run_sweep

SEEDS = (0, inputs.HELD_OUT_SEED)
GOLDEN = (Path(__file__).resolve().parent.parent / "tests" / "integration"
          / "golden_digests.json")
#: Records per pinned campaign digest chunk.
CHUNK = 576


def campaign(seed: int) -> dict:
    space = inputs.campaign_space(seed)
    lines = [child.record_line(r) for r in run_sweep(
        list(APP_NAMES), space, processes=1, batch=False).lazy()]
    return {"oracle": "run_sweep(batch=False)", "chunk": CHUNK,
            "chunk_sha256": [child.sha256("\n".join(lines[i:i + CHUNK]))
                             for i in range(0, len(lines), CHUNK)]}


def replay(seed: int) -> dict:
    rs = run_sweep(["lulesh"], inputs.replay_space(seed), processes=1,
                   batch=False, mode="replay",
                   n_ranks=inputs.REPLAY_RANKS["full"])
    refs = {"oracle": "run_sweep(batch=False)",
            "app_sha256": {"lulesh": child.sha256(child.golden_text(rs))}}
    if seed == 0:
        golden = json.loads(GOLDEN.read_text())
        refs["table1_lulesh_sha256"] = golden["lulesh_replay_864_r256"]
    return refs


def serve(seed: int) -> dict:
    with tempfile.TemporaryDirectory() as d:
        ref = child.run_reference(argparse.Namespace(seed=seed,
                                                     size="full"), Path(d))
    if ref["failed"]:
        raise SystemExit(f"serve seed {seed}: {ref['problems']}")
    return {"oracle": "in-process ServeState reference pass",
            "result_sha256": ref["digests"]}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", choices=("campaign", "replay", "serve"))
    args = ap.parse_args()
    makers = {"campaign": campaign, "replay": replay, "serve": serve}
    for name, make in makers.items():
        if args.only not in (None, name):
            continue
        for seed in SEEDS:
            path = child.REFS / f"{name}-{seed}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(make(seed), indent=1) + "\n")
            print(f"wrote {path}", flush=True)


if __name__ == "__main__":
    main()

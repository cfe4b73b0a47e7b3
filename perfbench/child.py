"""One repetition of one workload, in a fresh process.

The runner (``run.py``) starts this script once per repetition so every
repetition pays the same interpreter start, imports and set-up a user
pays.  Roles:

* ``campaign`` / ``replay`` — set up, run the workload, stop the clock,
  then check the outputs and write timestamps, counters and checks as
  JSON to ``--out``;
* ``server`` — serve queries over a fresh store until SIGTERM, then
  write peak RSS and the trace to ``--out``;
* ``reference`` — answer the serve workload's queries in-process, one
  at a time, and write each result's SHA-256 (the served workload's
  reference list) plus a scalar spot check.

Timestamps are ``time.monotonic()``, comparable across processes on
one host.  With ``--trace`` the timing shims go in right after the
imports, before any work.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import random
import resource
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import inputs
import tracing
from repro.apps import APP_NAMES, get_app
from repro.config.space import AXES, DesignSpace
from repro.core import checkpoint, sweep
from repro.core.canon import canonical_dumps
from repro.core.frame import FrameRow
from repro.core.musa import Musa
from repro.core.store import ResultStore
from repro.obs import get_metrics
from repro.serve import ReproServer, ServeState

T_IMPORTED = time.monotonic()

REFS = Path(__file__).resolve().parent / "refs"

#: Scalar ``Musa.simulate_node`` spot checks per run (``replay``: per app).
SAMPLES = {"campaign": 25, "replay": 2, "serve_fast": 6, "serve_replay": 2}

#: Problems listed per repetition; the counts cover all of them.
MAX_PROBLEMS = 10


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def record_line(record) -> str:
    """Canonical JSON of one record (cached for frame rows)."""
    if isinstance(record, FrameRow):
        return record.frame.canonical_lines()[record.index]
    return canonical_dumps(record)


def golden_text(records) -> str:
    """The golden-digest form: bare ``json.dumps`` of plain dicts."""
    return json.dumps({"records": [
        r.to_dict() if isinstance(r, FrameRow) else r for r in records]},
        sort_keys=True)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_refs(workload: str, seed: int, size: str) -> Optional[Dict]:
    path = REFS / f"{workload}-{seed}.json"
    if size != "full" or not path.exists():
        return None
    return json.loads(path.read_text())


class Checks:
    """Failed-output bookkeeping: indices of failing outputs plus a
    short list of what went wrong."""

    def __init__(self, attempted: int) -> None:
        self.attempted = attempted
        self.failed = set()
        self.problems: List[str] = []

    def fail(self, index, why: str) -> None:
        self.failed.add(index)
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(why)

    def result(self) -> Dict:
        return {"attempted": self.attempted,
                "failed": min(len(self.failed), self.attempted),
                "problems": self.problems}


class ScalarOracle:
    """``Musa.simulate_node``: the per-point reference the batched
    engine must match bit for bit."""

    def __init__(self) -> None:
        self._musa: Dict[str, Musa] = {}

    def line(self, app: str, node, n_ranks: int, mode: str) -> str:
        if app not in self._musa:
            self._musa[app] = Musa(get_app(app))
        return canonical_dumps(self._musa[app].simulate_node(
            node, n_ranks=n_ranks, mode=mode).record())


def node_of(record) -> object:
    """The NodeConfig a record was evaluated at."""
    return DesignSpace().restrict(
        core=record["core"], cache=record["cache"], memory=record["memory"],
        frequency=record["frequency"], vector=record["vector"],
        cores=record["cores"]).config_at(0)


def check_order(checks: Checks, records, apps, space, offset=0) -> None:
    """Records must come back in canonical (app, config) task order."""
    n = len(space)
    if len(records) != len(apps) * n:
        checks.fail(("len", offset), f"{len(records)} records, expected "
                    f"{len(apps) * n}")
    axes = [space.axis_values(axis) for axis in AXES]
    for p, rec in enumerate(records[:len(apps) * n]):
        app, i = divmod(p, n)
        want = (apps[app],) + tuple(
            values[c] for values, c in zip(axes, space.coords_at(i)))
        got = tuple(rec.get(k) for k in ("app",) + AXES)
        if got != want:
            checks.fail(offset + p, f"record {p} is {got}, expected {want}")
        elif rec.get("failed"):
            checks.fail(offset + p, f"record {p} is a failure stub: "
                        f"{rec.get('error')}")


def check_sample(checks: Checks, records, apps, space, positions, n_ranks,
                 mode) -> None:
    """Re-run the records at ``positions`` through the scalar path."""
    oracle = ScalarOracle()
    n = len(space)
    for p in positions:
        app, i = divmod(p, n)
        want = oracle.line(apps[app], space.config_at(i), n_ranks, mode)
        if record_line(records[p]) != want:
            checks.fail(p, f"record {p} ({apps[app]}, config {i}) differs "
                        f"from scalar Musa.simulate_node(mode={mode!r})")


def corrupt_journal(path: Path, record) -> None:
    """Prepend a copy of ``record`` with a perturbed time: the first
    occurrence wins on replay, so the journal now lies about it."""
    bad = dict(record)
    bad["time_ns"] = bad["time_ns"] * 1.5
    path.write_text(canonical_dumps(bad) + "\n" + path.read_text())


# -- campaign / replay ------------------------------------------------------

def run_campaign(args, run_dir: Path) -> Dict:
    apps = list(APP_NAMES)
    space = inputs.campaign_space(args.seed, args.size)
    for app in apps:
        sweep.run_sweep([app], inputs.warmup_space(space), processes=1)
    out: Dict = {"t_ready": time.monotonic()}
    if args.setup_only:
        return out

    journals = [run_dir / f"shard{k}.jsonl" for k in range(2)]
    shards, calls = [], []
    for k, journal in enumerate(journals):
        t0 = time.monotonic()
        shards.append(sweep.run_sweep(apps, space, processes=1,
                                      resume=journal, shard=f"{k}/2"))
        calls.append(time.monotonic() - t0)
    if args.inject_corruption:
        corrupt_journal(journals[0], next(shards[0].lazy()))
    merged = run_dir / "merged.jsonl"
    checkpoint.merge_journal(journals, merged)
    done0 = get_metrics().counter("sweep.tasks.completed")
    final = sweep.run_sweep(apps, space, processes=1, resume=merged)
    reevaluated = get_metrics().counter("sweep.tasks.completed") - done0
    out.update(t_solution=time.monotonic(), rss_mb=peak_rss_mb(),
               calls_s=calls, points=sum(len(s) for s in shards))
    out["journal_bytes"] = sum(p.stat().st_size
                               for p in journals + [merged])
    out["counters"] = get_metrics().snapshot()["counters"]
    finish_tracing(args, out)

    records = list(final.lazy())
    checks = Checks(len(apps) * len(space))
    check_order(checks, records, apps, space)
    if reevaluated:
        checks.fail("resume", f"resume from the merged journal "
                    f"re-evaluated {reevaluated:g} tasks")
    lines = [record_line(r) for r in records]
    # Journal round trip: shard k evaluated tasks k, k+2, ...
    shard_rows = [list(s.lazy()) for s in shards]
    for p, line in enumerate(lines):
        row = shard_rows[p % 2][p // 2] if p // 2 < len(shard_rows[p % 2]) \
            else None
        if row is None or record_line(row) != line:
            checks.fail(p, f"record {p} read back from the merged journal "
                        f"differs from the one evaluated")
    refs = load_refs("campaign", args.seed, args.size)
    if refs is not None:
        for c, want in enumerate(refs["chunk_sha256"]):
            chunk = lines[c * refs["chunk"]:(c + 1) * refs["chunk"]]
            if sha256("\n".join(chunk)) != want:
                for p in range(c * refs["chunk"],
                               c * refs["chunk"] + len(chunk)):
                    checks.fail(p, f"chunk {c} differs from the pinned "
                                f"scalar-oracle digest")
    if args.spot_check:
        rng = random.Random(f"check:campaign:{args.seed}")
        check_sample(checks, records, apps, space, sorted(rng.sample(
            range(len(records)), min(SAMPLES["campaign"], len(records)))),
            256, "fast")
    out.update(checks.result())
    return out


def run_replay(args, run_dir: Path) -> Dict:
    apps = list(APP_NAMES)
    space = inputs.replay_space(args.seed, args.size)
    ranks = inputs.REPLAY_RANKS[args.size]
    for app in apps:
        sweep.run_sweep([app], inputs.warmup_space(space), processes=1,
                        mode="replay", n_ranks=ranks)
    out: Dict = {"t_ready": time.monotonic()}
    if args.setup_only:
        return out

    journal = run_dir / "replay.jsonl"
    results, calls = [], []
    for resume in (None, journal):
        t0 = time.monotonic()
        results.append(sweep.run_sweep(apps, space, processes=1,
                                       mode="replay", n_ranks=ranks,
                                       resume=resume))
        calls.append(time.monotonic() - t0)
    out.update(t_solution=time.monotonic(), rss_mb=peak_rss_mb(),
               calls_s=calls, points=sum(len(r) for r in results),
               journal_bytes=journal.stat().st_size)
    out["counters"] = get_metrics().snapshot()["counters"]
    finish_tracing(args, out)

    inline, journaled = (list(r.lazy()) for r in results)
    reread = list(checkpoint.replay_journal(journal).results.lazy())
    checks = Checks(len(inline) + len(journaled))
    check_order(checks, inline, apps, space)
    check_order(checks, journaled, apps, space, offset=len(inline))
    lines = [record_line(r) for r in inline]
    for p, line in enumerate(lines):
        if p >= len(journaled) or record_line(journaled[p]) != line:
            checks.fail(len(inline) + p, f"journaled record {p} differs "
                        f"from the inline sweep")
        elif p >= len(reread) or record_line(reread[p]) != line:
            checks.fail(len(inline) + p, f"record {p} read back from the "
                        f"journal differs from the one evaluated")
    refs = load_refs("replay", args.seed, args.size)
    if refs is not None:
        n = len(space)
        for app, want in refs["app_sha256"].items():
            a = apps.index(app)
            if sha256(golden_text(inline[a * n:(a + 1) * n])) != want:
                for p in range(a * n, (a + 1) * n):
                    checks.fail(p, f"{app} slice differs from the pinned "
                                f"digest")
    if args.spot_check:
        rng = random.Random(f"check:replay:{args.seed}")
        n = len(space)
        check_sample(checks, inline, apps, space, [
            a * n + i for a in range(len(apps))
            for i in sorted(rng.sample(range(n), min(SAMPLES["replay"], n)))],
            ranks, "replay")
    if args.spot_check and refs is not None and "table1_lulesh_sha256" in refs:
        # The paper's LULESH replay sweep (864 Table I configs, 256
        # ranks) against the repository's golden digest.
        table = list(sweep.run_sweep(
            ["lulesh"], inputs.full_design_space(), processes=1,
            mode="replay", n_ranks=ranks).lazy())
        checks.attempted += len(table)
        if sha256(golden_text(table)) != refs["table1_lulesh_sha256"]:
            for p in range(len(table)):
                checks.fail(("table1", p), "LULESH Table I replay sweep "
                            "differs from lulesh_replay_864_r256")
    out.update(checks.result())
    return out


# -- serve -----------------------------------------------------------------

def run_server(args, run_dir: Path) -> Dict:
    store = ResultStore(run_dir / "store.jsonl")
    server = ReproServer(ServeState(store, code_version="perfbench"))

    async def main() -> None:
        stop = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM,
                                                      stop.set)
        await server.start()
        port_file = Path(args.port_file)
        tmp = port_file.with_suffix(".tmp")
        tmp.write_text(str(server.port))
        tmp.replace(port_file)
        await stop.wait()
        await server.close()

    asyncio.run(main())
    out = {"rss_mb": peak_rss_mb()}
    finish_tracing(args, out)
    store.close()
    out["store_bytes"] = (run_dir / "store.jsonl").stat().st_size
    return out


def run_reference(args, run_dir: Path) -> Dict:
    """Answer each distinct query once, sequentially, in-process."""
    state = ServeState(ResultStore(run_dir / "reference.jsonl"),
                       code_version="perfbench")
    queries = inputs.serve_queries(args.seed, args.size)
    answers: Dict[str, Dict] = {}
    digests = []
    for query in queries:
        key = canonical_dumps(query)
        if key not in answers:
            answers[key] = state.handle(query)
        digests.append(sha256(canonical_dumps(answers[key]["result"])))

    # Spot-check served records against the scalar path.
    rng = random.Random(f"check:serve:{args.seed}")
    oracle = ScalarOracle()
    checks = Checks(0)
    for mode, k in (("fast", SAMPLES["serve_fast"]),
                    ("replay", SAMPLES["serve_replay"])):
        pool = [q for q in queries if q["kind"] == "sweep"
                and q.get("mode", "fast") == mode]
        for query in rng.sample(pool, min(k, len(pool))):
            records = answers[canonical_dumps(query)]["result"]["records"]
            record = records[rng.randrange(len(records))]
            checks.attempted += 1
            want = oracle.line(record["app"], node_of(record),
                               query.get("ranks", 256), mode)
            if record_line(record) != want:
                checks.fail(checks.attempted, f"served {record['app']} "
                            f"record differs from scalar Musa.simulate_node")
    return {"digests": digests, **checks.result()}


def finish_tracing(args, out: Dict) -> None:
    if args.tracer is not None:
        out["trace"] = args.tracer.report()
        args.tracer.uninstall()


ROLES = {"campaign": run_campaign, "replay": run_replay,
         "server": run_server, "reference": run_reference}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("role", choices=sorted(ROLES))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--size", choices=inputs.SIZES, default="full")
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--port-file")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--inject-corruption", action="store_true")
    ap.add_argument("--spot-check", action="store_true",
                    help="also re-run a seeded sample through the scalar path")
    ap.add_argument("--cpu", type=int, help="pin this process to one CPU")
    args = ap.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    args.tracer = None
    if args.trace:
        args.tracer = tracing.Tracer()
        args.tracer.install()
    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    out = ROLES[args.role](args, run_dir)
    out["t_imported"] = T_IMPORTED
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

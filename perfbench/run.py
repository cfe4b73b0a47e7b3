"""End-to-end benchmark of the DSE engine: one workload, one seed.

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 30 --trace 0

Run from the repository root.  Each repetition runs in a fresh child
process (``perfbench/child.py``).  One slot per CPU runs repetitions
back to back, pinned to its CPU, for ``--seconds``; set-up-only
children make up the ``setup_s`` samples if there are too few.  Each
timing is the median over the run's repetitions, each scaled to the
reference host speed (``perfbench/calibrate.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced
run pairs untraced and traced repetitions so it can report the tracing
overhead.  See ``perfbench/README.md`` for the workloads and metric
definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"  # scratch, and the reference cache
SPEC_PATH = ROOT / "BENCHMARK.json"
SPEC = json.loads(SPEC_PATH.read_text()) if SPEC_PATH.exists() else {}

WORKLOADS = ("campaign", "replay", "serve")

#: Closed-loop serve clients (the benchmark host has 2 CPUs).
CLIENTS = 2

#: Minimum setup_s samples per run: repetitions, then set-up-only
#: children until there are this many.
SETUP_SAMPLES = 5

#: Slots of back-to-back repetitions, one per CPU: the host's CPUs slow
#: down independently, so two slots double the chances of a quiet spell.
REPLICAS = 2

#: Wall time of the host speed probe (``calibrate.py``) at the
#: reference host speed: about its time on the unloaded 2-vCPU
#: Intel Xeon benchmark host.
PROBE_REFERENCE_S = 0.45

#: Per-child wall-clock limit.
CHILD_TIMEOUT_S = 150.0

#: Counters read per repetition (a counter the engine no longer
#: registers reads as 0).
COUNTERS = (
    "sched.batch.fast", "sched.batch.fallbacks", "miss.batch.geometries",
    "batch.memo.evictions", "musa.memo.evictions",
    "replay.batch.array_events", "replay.batch.driver.array",
    "replay.batch.driver.worklist", "replay.batch.array_fallbacks",
    "replay.tape.builds", "sweep.tasks.completed", "sweep.tasks.skipped",
    "sweep.batch.fallback", "store.hit", "store.miss", "store.block.put",
    "serve.singleflight.coalesced", "serve.errors",
)

#: Counters that mean a slow path ran; any movement flags the run.
SLOW_PATH_COUNTERS = ("replay.batch.driver.worklist",
                      "replay.batch.array_fallbacks",
                      "sched.batch.fallbacks", "sweep.batch.fallback")

#: Timed layer -> (self-time metric, calls metric).
LAYER_METRICS = {
    "config.enum": "config.enum_s", "trace.gen": "trace.gen_s",
    "uarch.model": "uarch.model_s", "runtime.sched": "runtime.sched_s",
    "network.replay": "network.replay_s", "core.batch": "core.batch.self_s",
    "core.sweep": "core.sweep.self_s",
    "core.checkpoint.append": "core.checkpoint.append_s",
    "core.checkpoint.merge": "core.checkpoint.merge_s",
    "core.checkpoint.load": "core.checkpoint.load_s",
    "core.canon.encode": "core.canon.encode_s",
    "core.store.get": "core.store.get_s", "core.store.put": "core.store.put_s",
    "serve.handle": "serve.handle_s", "serve.http": "serve.http_s",
    "analysis.optimize": "analysis.optimize_s",
}

#: Layers that must record calls on each workload (0 calls flags it).
ACTIVE = {
    "campaign": ("config.enum", "trace.gen", "uarch.model", "runtime.sched",
                 "core.batch", "core.sweep", "core.checkpoint.append",
                 "core.checkpoint.merge", "core.checkpoint.load",
                 "core.canon.encode"),
    "replay": ("config.enum", "trace.gen", "uarch.model", "runtime.sched",
               "network.replay", "core.batch", "core.sweep",
               "core.checkpoint.append", "core.checkpoint.load",
               "core.canon.encode"),
    "serve": ("config.enum", "trace.gen", "uarch.model", "runtime.sched",
              "network.replay", "core.batch", "core.canon.encode",
              "core.store.get", "core.store.put", "serve.handle",
              "serve.http", "analysis.optimize"),
}


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer)."""


def median(values: List[float]) -> float:
    return statistics.median(values)


def speed(before: float, after: float) -> float:
    """Factor that takes a time measured between two runs of the host
    speed probe, lasting ``before`` and ``after`` seconds, to the
    reference host speed."""
    return PROBE_REFERENCE_S * 2 / (before + after)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Run:
    """One benchmark invocation: child processes, samples, checks."""

    def __init__(self, args) -> None:
        self.args = args
        self.run_dir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        TMPDIR=str(self.run_dir))
        self.ids = itertools.count(1)
        self.live: set = set()  # child processes not yet reaped
        self.stopping = threading.Event()
        self.setup: List[float] = []
        self.reps: List[Dict] = []  # untraced repetitions
        self.traced: List[Dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.flags: List[str] = []

    # -- child processes -------------------------------------------------

    def _new_dir(self) -> Path:
        d = self.run_dir / f"c{next(self.ids)}"
        d.mkdir(parents=True)
        return d

    def spawn(self, role: str, cpu: int, *extra: str):
        """Start ``child.py role`` pinned to ``cpu``; (process, output
        path, spawn time)."""
        out = self._new_dir() / "out.json"
        cmd = [sys.executable, str(HERE / "child.py"), role,
               "--seed", str(self.args.seed), "--size", self.args.size,
               "--run-dir", str(out.parent), "--out", str(out),
               "--cpu", str(cpu), *extra]
        if self.stopping.is_set():
            raise BenchError("stopping")
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT)
        self.live.add(proc)
        return proc, out, t_spawn

    def child(self, role: str, cpu: int, *extra: str) -> Dict:
        """Run one child to its end; its JSON output plus ``t_spawn``."""
        proc, out, t_spawn = self.spawn(role, cpu, *extra)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            self.live.discard(proc)
        if proc.returncode != 0:
            raise BenchError(f"{role} child exited {proc.returncode}")
        result = {**json.loads(out.read_text()), "t_spawn": t_spawn}
        shutil.rmtree(out.parent)
        return result

    @contextmanager
    def server(self, cpu: int, *extra: str):
        """A server child pinned to ``cpu`` over a fresh store.  Yields
        ``client``, ``out``, ``t_spawn`` and ``t_ready`` once ``/health``
        answers; stops the server on exit."""
        from repro.serve import ServeClient

        port_file = self.run_dir / f"port{next(self.ids)}"
        proc, out, t_spawn = self.spawn("server", cpu, "--port-file",
                                        str(port_file), *extra)
        try:
            deadline = time.monotonic() + 60.0
            while True:
                if time.monotonic() > deadline:
                    raise BenchError("server not healthy within 60 s")
                if proc.poll() is not None:
                    raise BenchError(f"server exited {proc.returncode} "
                                     f"during set-up")
                if port_file.exists():
                    client = ServeClient(port=int(port_file.read_text()),
                                         timeout_s=CHILD_TIMEOUT_S)
                    try:
                        client.health()
                        break
                    except (OSError, RuntimeError):
                        pass
                time.sleep(0.005)
            yield {"client": client, "out": out, "t_spawn": t_spawn,
                   "t_ready": time.monotonic()}
        finally:
            stop(proc)
            self.live.discard(proc)
        if proc.returncode != 0:
            raise BenchError(f"server exited {proc.returncode}")

    # -- repetitions -----------------------------------------------------

    def batch_rep(self, cpu: int, trace: bool, spot_check: bool) -> Dict:
        """One ``campaign``/``replay`` repetition in a fresh child."""
        extra = ["--trace"] if trace else []
        if self.args.inject_corruption:
            extra.append("--inject-corruption")
        if spot_check:
            extra.append("--spot-check")
        r = self.child(self.args.workload, cpu, *extra)
        return {
            "setup_s": r["t_ready"] - r["t_spawn"],
            "solution_s": r["t_solution"] - r["t_spawn"],
            "points_per_s": r["points"] / sum(r["calls_s"]),
            "peak_rss_mb": r["rss_mb"],
            "latencies_s": r["calls_s"],
            "loop_s": r["t_solution"] - r["t_ready"],
            "wall_s": r["t_solution"] - r["t_imported"],
            "counters": r["counters"],
            "bytes": {"core.checkpoint.bytes": r["journal_bytes"]},
            "trace": r.get("trace"),
            "checks": (r["attempted"], r["failed"], r["problems"]),
        }

    def serve_rep(self, cpu: int, trace: bool, spot_check: bool) -> Dict:
        """One server session: a server pinned to ``cpu`` answers the
        seed's queries from :data:`CLIENTS` closed-loop clients.  (The
        served records' spot check is part of :meth:`reference`.)"""
        import inputs

        queries = inputs.serve_queries(self.args.seed, self.args.size)
        with self.server(cpu, *(["--trace"] if trace else [])) as s:
            t0 = time.monotonic()
            samples = closed_loop(s["client"], queries, CLIENTS,
                                  corrupt_first=self.args.inject_corruption)
            t_done = time.monotonic()
            counters = s["client"].metrics()["counters"]
        r = json.loads(s["out"].read_text())
        shutil.rmtree(s["out"].parent)
        latencies = [x["latency_s"] for x in samples]
        loop_s = t_done - t0
        return {
            "setup_s": s["t_ready"] - s["t_spawn"],
            "solution_s": t_done - s["t_spawn"],
            "points_per_s": sum(x["points"] for x in samples) / loop_s,
            "peak_rss_mb": r["rss_mb"],
            "latencies_s": latencies,
            "loop_s": loop_s,
            "wall_s": sum(latencies),
            "counters": counters,
            "bytes": {"core.store.bytes": r["store_bytes"],
                      "serve.response_bytes": sum(x["bytes"]
                                                  for x in samples)},
            "samples": samples,
            "trace": r.get("trace"),
        }

    def setup_probe(self, cpu: int) -> float:
        """One set-up-only child (or server start); its set-up time at
        the reference host speed."""
        before = self.calibrate(cpu)
        if self.args.workload != "serve":
            r = self.child(self.args.workload, cpu, "--setup-only")
            setup = r["t_ready"] - r["t_spawn"]
        else:
            with self.server(cpu) as s:
                pass
            shutil.rmtree(s["out"].parent)
            setup = s["t_ready"] - s["t_spawn"]
        return setup * speed(before, self.calibrate(cpu))

    def calibrate(self, cpu: int) -> float:
        """Wall time of the host speed probe, pinned to ``cpu``."""
        t0 = time.monotonic()
        subprocess.run([sys.executable, str(HERE / "calibrate.py"),
                        str(cpu)], check=True, timeout=CHILD_TIMEOUT_S)
        return time.monotonic() - t0

    # -- checks ----------------------------------------------------------

    def count(self, attempted: int, failed: int, problems: List[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems += problems[:max(0, 10 - len(self.problems))]

    def guard_counters(self, counters: Dict) -> None:
        for name in SLOW_PATH_COUNTERS:
            if counters.get(name, 0):
                self.flag(f"slow path: counter {name} moved by "
                          f"{counters[name]:g}")

    def flag(self, why: str) -> None:
        if why not in self.flags:
            self.flags.append(why)

    def reference(self) -> Dict:
        """The serve reference pass (``child.py reference``).  It is a
        pure function of the sources and the inputs, so it is computed
        once per source tree, seed and size and kept in the run cache."""
        sources = hashlib.sha256()
        for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
            sources.update(path.read_bytes())
        cache = RUNS / "cache" / (f"serve-{self.args.seed}-{self.args.size}-"
                                  f"{sources.hexdigest()[:16]}.json")
        if cache.exists():
            return json.loads(cache.read_text())
        ref = self.child("reference", sorted(os.sched_getaffinity(0))[0])
        cache.parent.mkdir(parents=True, exist_ok=True)
        cache.write_text(json.dumps(ref))
        return ref

    def check_serve(self) -> None:
        """Each served result against the seed's reference list."""
        ref = self.reference()
        self.count(ref["attempted"], ref["failed"], ref["problems"])
        digests = ref["digests"]
        pinned = HERE / "refs" / f"serve-{self.args.seed}.json"
        if self.args.size == "full" and pinned.exists():
            want = json.loads(pinned.read_text())["result_sha256"]
            bad = sum(a != b for a, b in zip(digests, want))
            if bad or len(want) != len(digests):
                self.count(len(digests), max(bad, 1),
                           [f"{bad} reference results differ from the "
                            f"pinned list"])
        for rep in self.reps + self.traced:
            bad = [s for s in rep.pop("samples")
                   if s["status"] != 200 or s["digest"] != digests[s["i"]]]
            self.count(len(digests), len(bad),
                       [f"query {s['i']}: status {s['status']}, result "
                        f"differs from the reference" for s in bad[:3]])

    # -- the run ---------------------------------------------------------

    def slot(self, cpu: int, traces, deadline: float, spot_check: bool,
             out: List[Tuple[bool, Dict]], errors: List[BaseException]):
        """Repetitions back to back on ``cpu`` (``traces`` says which
        are traced) while the next is expected to end by ``deadline``
        (half a repetition of overrun is allowed; at least one runs)."""
        rep = self.serve_rep if self.args.workload == "serve" \
            else self.batch_rep
        durations: List[float] = []
        try:
            cal_before = self.calibrate(cpu)
            for trace in traces:
                start = time.monotonic()
                r = rep(cpu, trace, spot_check and not out)
                cal_after = self.calibrate(cpu)
                r["speed"] = speed(cal_before, cal_after)
                cal_before = cal_after
                out.append((trace, r))
                durations.append(time.monotonic() - start)
                if time.monotonic() + median(durations) / 2 > deadline:
                    return
        except BaseException as exc:  # re-raised by execute()
            errors.append(exc)

    def execute(self) -> None:
        """One slot per CPU (up to :data:`REPLICAS`) runs repetitions
        until ``--seconds`` are up; then set-up probes and checks.  With
        ``--trace 1`` one slot runs untraced and the other traced
        repetitions side by side, so the overhead compares like with
        like."""
        cpus = sorted(os.sched_getaffinity(0))[:REPLICAS]
        if not self.args.trace:
            plans = [itertools.repeat(False)] * len(cpus)
        elif len(cpus) > 1:
            plans = [itertools.repeat(False), itertools.repeat(True)]
        else:
            plans = [itertools.cycle((False, True))]
        deadline = time.monotonic() + self.args.seconds
        results: List[List[Tuple[bool, Dict]]] = [[] for _ in cpus]
        errors: List[BaseException] = []
        threads = [threading.Thread(target=self.slot, args=(
                       cpu, plan, deadline, k == 0, results[k], errors))
                   for k, (cpu, plan) in enumerate(zip(cpus, plans))]
        for t in threads:
            t.start()
        try:
            for t in threads:
                t.join()
        except BaseException:  # e.g. SIGTERM: end the slots' children
            self.stopping.set()
            for proc in list(self.live):
                proc.kill()
            for t in threads:
                t.join()
            raise
        if errors:
            raise errors[0]
        for trace, rep in (x for slot in results for x in slot):
            (self.traced if trace else self.reps).append(rep)
            self.setup.append(rep["setup_s"] * rep["speed"])
            self.guard_counters(rep["counters"])
            if "checks" in rep:
                self.count(*rep.pop("checks"))
        while len(self.setup) < SETUP_SAMPLES:
            self.setup.append(self.setup_probe(cpus[0]))
        if self.args.workload == "serve":
            self.check_serve()

    # -- metrics ---------------------------------------------------------

    def end_to_end(self) -> Tuple[Dict[str, float], int]:
        """Medians over the run's repetitions, each at the reference host
        speed; query percentiles over each query's median latency."""
        reps = self.reps
        latencies = [median(column) for column in zip(
            *([x * r["speed"] for x in r["latencies_s"]] for r in reps))]
        return {
            "setup_s": median(self.setup),
            "solution_s": median([r["solution_s"] * r["speed"]
                                  for r in reps]),
            "points_per_s": median([r["points_per_s"] / r["speed"]
                                    for r in reps]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
            "query_qps": median([len(r["latencies_s"]) / r["loop_s"]
                                 / r["speed"] for r in reps]),
            "query_p50_ms": 1e3 * median(latencies),
            "query_p95_ms": 1e3 * percentile(latencies, 95),
        }, len(latencies)

    def per_layer(self) -> Dict[str, float]:
        rows = [self.layer_row(u, t) for u, t in zip(self.reps, self.traced)]
        return {name: median([row[name] for row in rows])
                for name in rows[0]}

    def layer_row(self, untraced: Dict, traced: Dict) -> Dict[str, float]:
        tr = traced["trace"]
        self_s = dict(tr["self_s"])
        calls = dict(tr["calls"])
        wall = traced["wall_s"]
        if self.args.workload == "serve":
            # Client-observed time no server span covers: connection,
            # parsing, queueing, response rendering outside the shims.
            self_s["serve.http"] = wall - tr["root_s"]
            calls["serve.http"] = len(traced["latencies_s"])
        else:
            self_s["serve.http"], calls["serve.http"] = 0.0, 0
        unattributed = wall - sum(self_s.values())
        self.check_layer_sum(self_s, calls, unattributed, wall, tr)

        row: Dict[str, float] = {}
        for layer, metric in LAYER_METRICS.items():
            row[metric] = self_s[layer]
        row["unattributed_s"] = unattributed
        row["unattributed_frac"] = unattributed / wall
        row["trace_overhead_frac"] = wall / untraced["wall_s"] - 1.0
        row["traced.wall_s"] = wall
        for layer in LAYER_METRICS:
            row[f"{layer}.calls"] = calls[layer]
        counters = traced["counters"]
        for name in COUNTERS:
            row[name] = counters.get(name, 0)
        lookups = counters.get("store.hit", 0) + counters.get("store.miss", 0)
        row["store.hit_ratio"] = (counters.get("store.hit", 0) / lookups
                                  if lookups else 0.0)
        for name in ("core.checkpoint.bytes", "core.store.bytes",
                     "serve.response_bytes"):
            row[name] = traced["bytes"].get(name, 0)
        row["guard.flags"] = 0  # filled in once every check has run
        return row

    def check_layer_sum(self, self_s, calls, unattributed, wall, tr) -> None:
        for layer, value in self_s.items():
            if value < 0:
                self.flag(f"layer sum: {layer} self time {value:.6f} s < 0")
        if unattributed < -1e-6 * wall:
            self.flag(f"layer sum: spans cover {wall - unattributed:.4f} s "
                      f"of a {wall:.4f} s wall")
        if tr["negative_spans"]:
            self.flag(f"layer sum: {tr['negative_spans']} spans with "
                      f"negative self time")
        # The shims' self times must add up to their outermost spans.
        spans = sum(tr["self_s"].values())
        if abs(spans - tr["root_s"]) > 1e-6 * max(wall, 1e-9):
            self.flag(f"layer sum: self times {spans:.6f} s != outermost "
                      f"spans {tr['root_s']:.6f} s")
        for layer in ACTIVE[self.args.workload]:
            if not calls.get(layer):
                self.flag(f"inactive layer: {layer} recorded 0 calls")


def closed_loop(client, queries: List[Dict], n_clients: int,
                corrupt_first: bool = False) -> List[Dict]:
    """``n_clients`` threads, each sending its next query as soon as its
    previous reply arrives, until every query has been answered.
    ``corrupt_first`` alters one digit of the first response's result
    (a self-test of the correctness check)."""
    samples: List[Optional[Dict]] = [None] * len(queries)
    lock = threading.Lock()
    cursor = iter(range(len(queries)))
    errors: List[BaseException] = []

    def worker() -> None:
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                t0 = time.monotonic()
                status, body = client.raw_query(queries[i])
                latency = time.monotonic() - t0
                if corrupt_first and i == 0:
                    body = corrupt_digit(body)
                samples[i] = {"i": i, "latency_s": latency,
                              "status": status, "bytes": len(body),
                              **parse_response(body)}
        except BaseException as exc:  # surfaced by the joining thread
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise BenchError(f"query client failed: {errors[0]!r}")
    return samples


def corrupt_digit(body: bytes) -> bytes:
    """``body`` with the first digit of its result changed."""
    start = body.find(b',"result":')
    for j in range(max(start, 0), len(body)):
        if body[j:j + 1].isdigit():
            digit = b"1" if body[j:j + 1] != b"1" else b"2"
            return body[:j] + digit + body[j + 1:]
    return body


def parse_response(body: bytes) -> Dict:
    """SHA-256 of the canonical ``result`` bytes and the point count
    from ``served``, read straight from the canonical JSON body (keys
    are sorted: kind, ok, result, served)."""
    start = body.find(b',"result":')
    end = body.rfind(b',"served":')
    if start < 0 or end < start:
        return {"digest": None, "points": 0}
    served = json.loads(body[end + len(b',"served":'):].rstrip()[:-1])
    return {"digest": hashlib.sha256(
                body[start + len(b',"result":'):end]).hexdigest(),
            "points": served.get("points", 0)}


def stop(proc: subprocess.Popen) -> None:
    """SIGTERM, then SIGKILL after 30 s; always reaps the child."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def spec_names(kind: str) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC.get(kind, [])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-long inputs for the self-tests")
    ap.add_argument("--inject-corruption", action="store_true",
                    help="self-test: corrupt one journaled record or "
                         "served response")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").exists() or not SPEC:
        print(f"error: run from the repository root (no {SRC}/repro or "
              f"BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC),
                    str(HERE)], check=True, stdout=subprocess.DEVNULL)

    # SIGTERM unwinds like Ctrl-C, so every child is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    run = Run(args)
    try:
        run.execute()
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.run_dir, ignore_errors=True)

    if args.trace:
        metrics = run.per_layer()
        metrics["guard.flags"] = len(run.flags)
        units = spec_names("per_layer")
        n_lat = None
    else:
        metrics, n_lat = run.end_to_end()
        units = spec_names("end_to_end")
    correct = run.failed == 0 and run.attempted > 0
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"repetitions {len(run.reps)}  traced {len(run.traced)}  "
          f"host slowdown {1 / median([r['speed'] for r in run.reps]):.3f}x "
          f"the reference (median)")
    for name, unit in units.items():
        note = (f"  (n={n_lat}, each the median of {len(run.reps)})"
                if name.startswith("query_p") else "")
        print(f"  {name:32s} {metrics[name]:.6g} {unit}{note}")
    print(f"  {'failed_frac':32s} {run.failed / max(run.attempted, 1):.6g} "
          f"ratio  ({run.failed} of {run.attempted})")
    for why in run.problems:
        print(f"  FAIL: {why}")
    for why in run.flags:
        print(f"  FLAG: {why}")
    print(f"correct: {str(correct).lower()}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

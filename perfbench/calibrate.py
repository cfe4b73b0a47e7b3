"""Host speed probe: a fixed piece of work that does not use the engine.

    python3 perfbench/calibrate.py CPU

The runner times this script, from start to exit, on a repetition's CPU
right before and right after each repetition.  The benchmark host's
CPUs run the same code up to 2x slower in episodes of seconds to
minutes, so a time measured in a slow episode says more about the host
than about the engine.  The probe does what a repetition's child does,
with other code: it starts an interpreter, imports modules, allocates
and touches fresh memory, and runs interpreted loops, dict and
small-array work and whole-array numpy operations.  It uses no engine
code, so an engine change moves the scaled times in full.
"""

import os
import sys

os.sched_setaffinity(0, {int(sys.argv[1])})

import asyncio  # noqa: E402,F401  (imported for its cost)
import decimal  # noqa: E402
import email.parser  # noqa: E402,F401
import http.server  # noqa: E402,F401
import json  # noqa: E402

import numpy as np  # noqa: E402


def main() -> None:
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    rng = np.random.default_rng(0)
    big = rng.random(2_000_000)  # 16 MB of fresh pages
    picks = rng.integers(0, big.size, 200_000)
    for _ in range(3):
        ordered = np.sort(np.sqrt(big * 1.5 + 2.0))
        acc += big[picks].sum() + ordered[::7].cumsum()[-1]
    small = [np.arange(8 + i % 16, dtype=float) for i in range(64)]
    table = {}
    for r in range(150):
        for j, a in enumerate(small):
            table[r % 50, j] = float((a * 1.1 + r).max())
    text = json.dumps({str(k): v for k, v in table.items()}, sort_keys=True)
    acc += len(json.loads(text)) + int(decimal.Decimal(len(text)).sqrt())
    assert acc > 0


if __name__ == "__main__":
    main()

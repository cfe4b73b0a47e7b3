"""Content-addressed result store: keys, persistence, invalidation.

The store is the serve layer's memory: a hit must never touch the
engine, so its contracts — key stability, crash-tolerant load,
first-wins duplicates, counted hits/misses, selective invalidation —
are pinned here at the unit level.
"""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import APP_NAMES
from repro.config.space import full_design_space, range_design_space
from repro.core.canon import canonical_loads
from repro.core.frame import FrameRow, ResultFrame
from repro.core.store import (
    ResultStore,
    config_fragments,
    store_key,
    store_keys,
)
from repro.obs import MetricsRegistry, get_metrics, set_metrics


CONFIG = {"core": "medium", "cache": "64M:512K", "memory": "4chDDR4",
          "frequency": 2.0, "vector": 128, "cores": 64}


@pytest.fixture
def fresh_metrics():
    reg = MetricsRegistry()
    prev = set_metrics(reg)
    try:
        yield reg
    finally:
        set_metrics(prev)


def _record(i=0):
    rec = dict(CONFIG)
    rec.update({"app": "lulesh", "time_ns": 1.0e9 + i, "energy_j": 40.0})
    return rec


def _entry_args(i=0, code_version="abc1234", app="lulesh"):
    config = dict(CONFIG)
    key = store_key(app, config, "fast", 256, code_version)
    inputs = {"app": app, "config": config, "mode": "fast", "ranks": 256,
              "code_version": code_version}
    prov = {"engine": "batch", "created_s": 0.0, "obs": {}}
    return key, _record(i), inputs, prov


class TestStoreKey:
    def test_key_order_invariant(self):
        shuffled = dict(reversed(list(CONFIG.items())))
        assert store_key("lulesh", CONFIG, "fast", 256, "v1") == \
            store_key("lulesh", shuffled, "fast", 256, "v1")

    def test_every_input_is_keyed(self):
        base = store_key("lulesh", CONFIG, "fast", 256, "v1")
        assert store_key("spmz", CONFIG, "fast", 256, "v1") != base
        assert store_key("lulesh", CONFIG, "replay", 256, "v1") != base
        assert store_key("lulesh", CONFIG, "fast", 128, "v1") != base
        assert store_key("lulesh", CONFIG, "fast", 256, "v2") != base
        other = dict(CONFIG, vector=512)
        assert store_key("lulesh", other, "fast", 256, "v1") != base


def _rendered_keys(apps, configs, mode, ranks, code_version):
    """``store_keys`` over every (app, config), app-major."""
    frags = config_fragments(
        {k: [c[k] for c in configs] for k in CONFIG})
    return store_keys([a for a in apps for _ in frags],
                      frags * len(apps), mode, ranks, code_version)


_AXIS_VALUE = {
    "core": st.sampled_from(["lowend", "medium", "high", "aggressive"])
    | st.text(max_size=6),
    "cache": st.sampled_from(["32M:256K", "64M:512K", "96M:1M"])
    | st.text(max_size=6),
    "memory": st.sampled_from(["4chDDR4", "8chDDR4", "16chHBM"]),
    "frequency": st.sampled_from([1.1, 2.0, 3.9000000000000004, 1.5])
    | st.floats(0.1, 10.0) | st.integers(1, 8),
    "vector": st.sampled_from([64, 128, 256, 512, 1024, 2048]),
    "cores": st.integers(1, 512),
}


class TestKeyRenderer:
    """``config_fragments`` + ``store_keys`` are pinned bit-identical
    to :func:`store_key`, the dict-based content address."""

    @pytest.mark.parametrize("mode,ranks,code_version", [
        ("fast", 256, "v1"), ("replay", 16, "e4fe0fd"),
        ("replay", 256, "bench")])
    def test_full_space_every_app(self, mode, ranks, code_version):
        configs = [n.axis_values() for n in full_design_space()]
        got = _rendered_keys(APP_NAMES, configs, mode, ranks, code_version)
        want = [store_key(a, c, mode, ranks, code_version)
                for a in APP_NAMES for c in configs]
        assert got == want

    def test_range_space_floats(self):
        space = range_design_space().restrict(
            core="high", cache="64M:512K", memory="8chDDR4", vector=256)
        configs = [n.axis_values() for n in space]
        assert {1.1, 2.0, 3.9000000000000004} <= \
            {c["frequency"] for c in configs}
        got = _rendered_keys(["lulesh", "spmz"], configs, "fast", 64, "r")
        assert got == [store_key(a, c, "fast", 64, "r")
                       for a in ("lulesh", "spmz") for c in configs]

    @settings(max_examples=150, deadline=None)
    @given(configs=st.lists(st.fixed_dictionaries(_AXIS_VALUE),
                            min_size=1, max_size=12),
           apps=st.lists(st.sampled_from(APP_NAMES) | st.text(max_size=5),
                         min_size=1, max_size=3),
           mode=st.sampled_from(["fast", "replay"]),
           ranks=st.integers(1, 4096),
           code_version=st.text(min_size=1, max_size=10))
    def test_matches_store_key(self, configs, apps, mode, ranks,
                               code_version):
        got = _rendered_keys(apps, configs, mode, ranks, code_version)
        assert got == [store_key(a, c, mode, ranks, code_version)
                       for a in apps for c in configs]

    def test_int_and_float_values_key_apart(self):
        # 2 == 2.0 hash alike; the fragment memo must not conflate them.
        configs = [dict(CONFIG, frequency=2), dict(CONFIG, frequency=2.0)]
        got = _rendered_keys(["lulesh"], configs, "fast", 256, "v")
        assert got[0] != got[1]
        assert got == [store_key("lulesh", c, "fast", 256, "v")
                       for c in configs]


class TestBatchedGet:
    """The batched lookup over block and scalar-line slots."""

    @staticmethod
    def _fill(store):
        scalar_keys = []
        for i in range(3):
            key, rec, inputs, prov = _entry_args(i, app=APP_NAMES[i])
            store.put(key, dict(rec, app=APP_NAMES[i]), inputs, prov)
            scalar_keys.append(key)
        records = [dict(CONFIG, app="spmz", vector=v, time_ns=float(v))
                   for v in (256, 512)]
        block_keys = store.put_frame(ResultFrame.from_records(records),
                                     "fast", 256, "abc1234",
                                     {"engine": "batch"})
        return scalar_keys, block_keys, records

    def _check(self, store, scalar_keys, block_keys, records, reg):
        missing = store_key("hydro", CONFIG, "fast", 256, "nope")
        keys = [block_keys[1], missing, scalar_keys[0], block_keys[0],
                missing, scalar_keys[2]]
        hits, misses = reg.counter("store.hit"), reg.counter("store.miss")
        got = store.get(keys)
        assert reg.counter("store.hit") - hits == 4
        assert reg.counter("store.miss") - misses == 2
        assert got[1] is None and got[4] is None
        assert isinstance(got[0], FrameRow) and got[0] == records[1]
        assert isinstance(got[3], FrameRow) and got[3] == records[0]
        for j, key in ((2, scalar_keys[0]), (5, scalar_keys[2])):
            assert type(got[j]) is dict
            assert got[j] == store.entries()[
                [e["key"] for e in store.entries()].index(key)]["record"]
        assert store.get([]) == []

    def test_mixed_slots_and_misses(self, tmp_path, fresh_metrics):
        with ResultStore(tmp_path / "s.jsonl") as store:
            filled = self._fill(store)
            self._check(store, *filled, fresh_metrics)

    def test_reloaded_from_disk(self, tmp_path, fresh_metrics):
        with ResultStore(tmp_path / "s.jsonl") as store:
            filled = self._fill(store)
        with ResultStore(tmp_path / "s.jsonl") as store:
            self._check(store, *filled, fresh_metrics)

    def test_bare_key_is_refused(self, tmp_path, fresh_metrics):
        with ResultStore(tmp_path / "s.jsonl") as store:
            with pytest.raises(TypeError, match="entry"):
                store.get("0" * 64)

    def test_one_counter_increment_per_call(self, tmp_path):
        reg = MetricsRegistry()
        prev = set_metrics(reg)
        calls = []
        inc = reg.inc
        reg.inc = lambda name, n=1: (calls.append(name), inc(name, n))
        try:
            with ResultStore(tmp_path / "s.jsonl") as store:
                scalar_keys, block_keys, _ = self._fill(store)
                calls.clear()
                store.get(scalar_keys + block_keys + ["0" * 64] * 3)
        finally:
            set_metrics(prev)
        assert sorted(calls) == ["store.hit", "store.miss"]
        assert reg.counter("store.hit") == 5
        assert reg.counter("store.miss") == 3


class TestPersistence:
    def test_round_trip(self, tmp_path, fresh_metrics):
        path = tmp_path / "store.jsonl"
        key, rec, inputs, prov = _entry_args()
        with ResultStore(path) as store:
            store.put(key, rec, inputs, prov)
        with ResultStore(path) as store:
            assert len(store) == 1
            entry = store.entry(key)
        assert entry["record"] == rec
        assert entry["inputs"] == inputs
        assert entry["provenance"]["engine"] == "batch"

    def test_file_is_strict_json(self, tmp_path, fresh_metrics):
        path = tmp_path / "store.jsonl"
        key, rec, inputs, prov = _entry_args()
        rec["time_ns"] = float("inf")
        with ResultStore(path) as store:
            store.put(key, rec, inputs, prov)
        for line in path.read_text().splitlines():
            json.loads(line, parse_constant=lambda tok: pytest.fail(
                f"non-JSON token {tok!r} in store file"))

    def test_torn_tail_tolerated_and_counted(self, tmp_path, fresh_metrics):
        path = tmp_path / "store.jsonl"
        key, rec, inputs, prov = _entry_args()
        with ResultStore(path) as store:
            store.put(key, rec, inputs, prov)
        with path.open("a") as fh:
            fh.write('{"key": "torn')  # crashed writer mid-line
        with ResultStore(path) as store:
            assert len(store) == 1
            assert store.entry(key) is not None
        assert fresh_metrics.counter("store.corrupt_lines") == 1

    def test_duplicate_keys_first_wins(self, tmp_path, fresh_metrics):
        path = tmp_path / "store.jsonl"
        key, rec, inputs, prov = _entry_args(0)
        with ResultStore(path) as store:
            first = store.put(key, rec, inputs, prov)
            again = store.put(key, _record(1), inputs, prov)
            assert again == first
        # A duplicate line on disk (e.g. two appenders) also keeps the
        # first occurrence.
        line = path.read_text().splitlines()[0]
        altered = canonical_loads(line)
        altered["record"]["time_ns"] = 9.9e9
        from repro.core.canon import canonical_dumps
        with path.open("a") as fh:
            fh.write(canonical_dumps(altered) + "\n")
        with ResultStore(path) as store:
            assert store.entry(key)["record"] == rec
        assert fresh_metrics.counter("store.duplicates_dropped") == 1


class TestCounters:
    def test_hit_and_miss_counted(self, tmp_path, fresh_metrics):
        key, rec, inputs, prov = _entry_args()
        with ResultStore(tmp_path / "s.jsonl") as store:
            assert store.entry(key) is None
            store.put(key, rec, inputs, prov)
            assert store.entry(key) is not None
            assert store.entry(key) is not None
        assert fresh_metrics.counter("store.miss") == 1
        assert fresh_metrics.counter("store.hit") == 2
        assert fresh_metrics.counter("store.put") == 1


class TestInvalidation:
    def test_invalidate_by_input_field(self, tmp_path, fresh_metrics):
        path = tmp_path / "s.jsonl"
        with ResultStore(path) as store:
            for app in ("lulesh", "spmz"):
                key, rec, inputs, prov = _entry_args(app=app)
                store.put(key, rec, inputs, prov)
            assert store.invalidate(app="lulesh") == 1
            assert len(store) == 1
        # Compaction persisted: the removed entry stays gone on reload.
        with ResultStore(path) as store:
            assert len(store) == 1
            assert store.entries()[0]["inputs"]["app"] == "spmz"
        assert fresh_metrics.counter("store.invalidated") == 1

    def test_invalidate_stale_code_versions(self, tmp_path, fresh_metrics):
        with ResultStore(tmp_path / "s.jsonl") as store:
            for ver in ("old1", "old2", "cur"):
                key, rec, inputs, prov = _entry_args(code_version=ver)
                store.put(key, rec, inputs, prov)
            assert store.invalidate_stale("cur") == 2
            assert len(store) == 1
            assert store.entries()[0]["inputs"]["code_version"] == "cur"

    def test_invalidate_nothing_matches(self, tmp_path, fresh_metrics):
        key, rec, inputs, prov = _entry_args()
        with ResultStore(tmp_path / "s.jsonl") as store:
            store.put(key, rec, inputs, prov)
            assert store.invalidate(app="nonesuch") == 0
            assert len(store) == 1
        assert fresh_metrics.counter("store.invalidated") == 0

    def test_invalidate_all(self, tmp_path, fresh_metrics):
        path = tmp_path / "s.jsonl"
        with ResultStore(path) as store:
            key, rec, inputs, prov = _entry_args()
            store.put(key, rec, inputs, prov)
            assert store.invalidate() == 1
        with ResultStore(path) as store:
            assert len(store) == 0


class TestThreadSafety:
    def test_concurrent_puts_unique_keys(self, tmp_path, fresh_metrics):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path, fsync_every=64)
        errors = []

        def work(tid):
            try:
                for i in range(20):
                    config = dict(CONFIG, frequency=2.0 + tid, vector=128 + i)
                    key = store_key("lulesh", config, "fast", 256, "v1")
                    inputs = {"app": "lulesh", "config": config,
                              "mode": "fast", "ranks": 256,
                              "code_version": "v1"}
                    store.put(key, _record(i), inputs,
                              {"engine": "batch", "created_s": 0.0,
                               "obs": {}})
                    assert store.entry(key) is not None
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        store.close()
        with ResultStore(path) as again:
            assert len(again) == 80

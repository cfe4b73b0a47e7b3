"""The column-wise optimizer against the retained per-record loop.

:func:`repro.analysis.optimize.optimize_node` gathers fields per
backing frame and scores a ``(configs, apps)`` matrix; the loop in
:mod:`.optimize_oracle` walks records one at a time.  They must agree
on the chosen config, the score (bitwise), the per-app values and the
feasible count, over any backing — plain dicts, rows of several
interleaved frames — and any objective/constraint combination,
including incomplete configurations, ``None`` energies, failed-task
stubs and exact score ties.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.optimize import Constraints, optimize_node
from repro.apps import APP_NAMES
from repro.core.frame import ResultFrame
from repro.core.results import CONFIG_KEYS, ResultSet

from .optimize_oracle import optimize_node_loop

OBJECTIVES = ("time_ns", "energy_j", "edp", "power_total_w")

#: Axis values whose node specs parse (the area cap prices them).
_AXES = {
    "core": ("medium", "high"),
    "cache": ("64M:512K", "96M:1M"),
    "memory": ("4chDDR4", "8chDDR4"),
    "frequency": (1.5, 2.0, 3),
    "vector": (128, 512),
    "cores": (32, 64),
}

#: Few distinct values, so equal scores (ties) are common.
_VALUES = st.sampled_from([0.5, 1.0, 2.0, 4.0]) | st.floats(1e-3, 1e6)


def _stub(app, cfg):
    return dict(app=app, **cfg, failed=True, error="boom", attempts=3)


@st.composite
def result_sets(draw):
    """A random ResultSet: configs missing apps, None fields, stubs and
    non-positive objectives, backed by dicts and several frames whose
    rows interleave in insertion order."""
    configs = draw(st.lists(
        st.fixed_dictionaries({k: st.sampled_from(v)
                               for k, v in _AXES.items()}),
        min_size=1, max_size=8,
        unique_by=lambda c: tuple(c[k] for k in _AXES)))
    apps = draw(st.lists(st.sampled_from(APP_NAMES), min_size=1,
                         max_size=5, unique=True))
    records = []
    for cfg in configs:
        for app in apps:
            kind = draw(st.sampled_from(
                ["ok"] * 6 + ["absent", "stub", "flagged", "none", "nonpos",
                              "int"]))
            if kind == "absent":
                continue
            if kind == "stub":
                records.append(_stub(app, cfg))
                continue
            rec = dict(app=app, **cfg, time_ns=draw(_VALUES),
                       energy_j=draw(_VALUES), power_total_w=draw(_VALUES))
            if kind == "none":
                rec[draw(st.sampled_from(
                    ["energy_j", "power_total_w"]))] = None
            elif kind == "nonpos":
                rec[draw(st.sampled_from(
                    ["time_ns", "energy_j"]))] = draw(
                    st.sampled_from([0.0, -1.0]))
            elif kind == "int":
                rec["time_ns"] = draw(st.integers(1, 10 ** 6))
            elif kind == "flagged":  # marked failed, yet carrying metrics
                rec["failed"] = True
            records.append(rec)
    order = draw(st.permutations(range(len(records))))
    # Backing: group 0 stays dicts; groups 1-3 become frames (one per
    # group and schema), whose rows are then added in shuffled order.
    groups = [draw(st.integers(0, 3)) for _ in records]
    frames = {}
    for gid, rec in zip(groups, records):
        if gid:
            frames.setdefault((gid, tuple(rec)), []).append(rec)
    rows = {}
    for members in frames.values():
        frame = ResultFrame.from_records(members)
        for i, rec in enumerate(members):
            rows[id(rec)] = frame.row(i)
    rs = ResultSet()
    for j in order:
        rs.add(rows.get(id(records[j]), records[j]))
    return rs, apps


def _outcome(fn, rs, **kw):
    try:
        c = fn(rs, **kw)
    except ValueError as exc:
        return ("error", str(exc))
    return (c.config, c.score.hex(), list(c.per_app.items()), c.n_feasible,
            c.objective, c.label)


def _assert_agree(rs, **kw):
    got = _outcome(optimize_node, rs, **kw)
    want = _outcome(optimize_node_loop, rs, **kw)
    assert got == want


class TestAgainstLoopOracle:
    @settings(max_examples=200, deadline=None)
    @given(data=result_sets(),
           objective=st.sampled_from(OBJECTIVES),
           power=st.sampled_from([None, 1.0, 3.0, 1e5]),
           area=st.sampled_from([None, 300.0, 420.0, 1e4]),
           min_freq=st.sampled_from([None, 2.0, 2.5]),
           energy=st.sampled_from([None, 1.0, 3.0, 1e5]),
           pick_apps=st.booleans())
    def test_agrees(self, data, objective, power, area, min_freq, energy,
                    pick_apps):
        rs, apps = data
        cons = Constraints(power_cap_w=power, area_cap_mm2=area,
                           min_frequency_ghz=min_freq, energy_cap_j=energy)
        _assert_agree(rs, objective=objective, constraints=cons,
                      apps=apps[:2] if pick_apps else None)

    def test_exact_tie_goes_to_first_config(self):
        base = {k: v[0] for k, v in _AXES.items()}
        recs = [dict(base, vector=vec, app=app, time_ns=2.0, energy_j=1.0,
                     power_total_w=1.0)
                for vec in (512, 128) for app in ("spmz", "hydro")]
        for rs in (ResultSet(recs),
                   _frame_backed(recs)):
            choice = optimize_node(rs)
            assert choice.config["vector"] == 512
            assert choice.n_feasible == 2
            _assert_agree(rs)

    def test_min_frequency_with_no_requested_app_records(self):
        # No record holds a requested app, so there are no configs to
        # filter: a clean "no feasible" error, not a dtype TypeError.
        rec = dict({k: v[0] for k, v in _AXES.items()}, app="lulesh",
                   time_ns=1.0, energy_j=1.0, power_total_w=1.0)
        for rs in (ResultSet([rec]), _frame_backed([rec])):
            for fn in (optimize_node, optimize_node_loop):
                with pytest.raises(ValueError, match="no feasible"):
                    fn(rs, apps=["hydro"],
                       constraints=Constraints(min_frequency_ghz=2.0))

    def test_app_order_within_config_follows_appearance(self):
        # Per-config app order differs between configs; the score of
        # each is the geomean in its own appearance order.
        rng = random.Random(3)
        base = {k: v[0] for k, v in _AXES.items()}
        recs = []
        for vec in (128, 512):
            apps = list(APP_NAMES)
            rng.shuffle(apps)
            recs += [dict(base, vector=vec, app=app,
                          time_ns=rng.uniform(1, 1e9),
                          energy_j=1.0, power_total_w=1.0) for app in apps]
        rng.shuffle(recs)
        for rs in (ResultSet(recs), _frame_backed(recs)):
            _assert_agree(rs)
            _assert_agree(rs, objective="edp")


def _frame_backed(recs):
    frame = ResultFrame.from_records(recs)
    rs = ResultSet()
    rs.add_frame(frame)
    return rs


class TestFailedStubs:
    """A config holding a failed-task stub is infeasible for every
    objective and constraint (the loop used to raise ``KeyError`` on a
    stub's missing ``energy_j`` / ``power_total_w``)."""

    @staticmethod
    def _plane():
        recs = []
        for vec in (128, 512):
            for cores in (32, 64):
                cfg = dict({k: v[0] for k, v in _AXES.items()},
                           vector=vec, cores=cores)
                for app in ("spmz", "lulesh"):
                    recs.append(dict(app=app, **cfg,
                                     time_ns=1e9 / vec / cores,
                                     energy_j=float(cores),
                                     power_total_w=50.0))
        # The otherwise best config (512b, 64c) fails for lulesh.
        stub_at = [i for i, r in enumerate(recs)
                   if (r["vector"], r["cores"], r["app"])
                   == (512, 64, "lulesh")][0]
        recs[stub_at] = _stub("lulesh", {k: recs[stub_at][k]
                                         for k in CONFIG_KEYS[1:]})
        return recs

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("cons", [
        Constraints(), Constraints(power_cap_w=100.0),
        Constraints(area_cap_mm2=1e4), Constraints(min_frequency_ghz=1.0)],
        ids=["no-cap", "power-cap", "area-cap", "min-frequency"])
    @pytest.mark.parametrize("backing", ["dicts", "frames"])
    def test_stub_config_is_infeasible(self, objective, cons, backing):
        recs = self._plane()
        rs = ResultSet()
        if backing == "dicts":
            rs.extend(recs)
        else:  # a stub frame and a record frame, rows interleaved
            rows = {}
            for part in ([r for r in recs if r.get("failed")],
                         [r for r in recs if not r.get("failed")]):
                frame = ResultFrame.from_records(part)
                rows.update(zip(map(id, part), frame.rows()))
            rs.extend([rows[id(r)] for r in recs])
        for fn in (optimize_node, optimize_node_loop):
            choice = fn(rs, objective=objective, constraints=cons)
            assert (choice.config["vector"], choice.config["cores"]) != \
                (512, 64)
            assert choice.n_feasible == 3
        _assert_agree(rs, objective=objective, constraints=cons)

    def test_flagged_record_with_metrics_is_infeasible(self):
        cfg = {k: v[0] for k, v in _AXES.items()}
        rec = dict(app="spmz", **cfg, time_ns=1.0, energy_j=1.0,
                   power_total_w=1.0, failed=True)
        for rs in (ResultSet([rec]), _frame_backed([rec])):
            for fn in (optimize_node, optimize_node_loop):
                with pytest.raises(ValueError, match="no feasible"):
                    fn(rs)

    def test_all_configs_failed_is_infeasible(self):
        cfg = {k: v[0] for k, v in _AXES.items()}
        rs = ResultSet([_stub("spmz", cfg)])
        for objective in OBJECTIVES:
            with pytest.raises(ValueError, match="no feasible"):
                optimize_node(rs, objective=objective)

"""The per-record ``optimize_node`` loop, retained as the test oracle.

This is the optimizer as it was written before it moved to columns:
group records by configuration into per-app dicts, walk the
configurations in first-appearance order, and score each feasible one
with ``np.exp(np.mean(np.log(values)))``.  The column-wise
:func:`repro.analysis.optimize.optimize_node` must match it bitwise.

Two rules are stated here as the production optimizer states them:
a configuration holding a failed-task stub is never a candidate (the
loop used to raise ``KeyError`` on a stub's missing ``energy_j`` or
``power_total_w``), and a NaN objective rules a configuration out like
``None`` does.
"""

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.optimize import Constraints, OptimalChoice
from repro.config.parse import parse_node
from repro.core.results import CONFIG_KEYS, ResultSet
from repro.power.area import AreaModel


def optimize_node_loop(
    results: ResultSet,
    objective: str = "time_ns",
    constraints: Optional[Constraints] = None,
    apps: Optional[Sequence[str]] = None,
    area_model: Optional[AreaModel] = None,
) -> OptimalChoice:
    cons = constraints or Constraints()
    am = area_model or AreaModel()
    app_list = list(apps) if apps is not None else \
        sorted(results.unique("app"))
    if not app_list:
        raise ValueError("no applications in the result set")

    hw_keys = [k for k in CONFIG_KEYS if k != "app"]
    by_config: Dict[Tuple, Dict[str, dict]] = {}
    for rec in results:
        if rec["app"] not in app_list:
            continue
        key = tuple(rec[k] for k in hw_keys)
        by_config.setdefault(key, {})[rec["app"]] = rec

    def metric(rec: dict) -> Optional[float]:
        if objective == "edp":
            if rec.get("energy_j") is None or rec.get("time_ns") is None:
                return None
            return rec["energy_j"] * rec["time_ns"]
        value = rec.get(objective)
        return None if value is None else float(value)

    best: Optional[OptimalChoice] = None
    n_feasible = 0
    for key, app_recs in by_config.items():
        if set(app_recs) != set(app_list):
            continue  # incomplete configuration
        if any(r.get("failed") for r in app_recs.values()):
            continue
        config = dict(zip(hw_keys, key))
        if cons.min_frequency_ghz is not None and \
                config["frequency"] < cons.min_frequency_ghz:
            continue
        if cons.power_cap_w is not None and any(
                r.get("power_total_w") is not None
                and r["power_total_w"] > cons.power_cap_w
                for r in app_recs.values()):
            continue
        if cons.energy_cap_j is not None and any(
                r.get("energy_j") is None
                or not r["energy_j"] <= cons.energy_cap_j
                for r in app_recs.values()):
            continue
        if cons.area_cap_mm2 is not None and am.node_area(parse_node(
                f"{config['core']}/{config['cache']}/{config['memory']}/"
                f"{config['frequency']}GHz/{config['vector']}b/"
                f"{config['cores']}c")).total_mm2 > cons.area_cap_mm2:
            continue
        values = {app: metric(r) for app, r in app_recs.items()}
        if any(v is None or not v > 0 for v in values.values()):
            continue
        n_feasible += 1
        score = float(np.exp(np.mean(np.log(list(values.values())))))
        if best is None or score < best.score:
            best = OptimalChoice(config=config, objective=objective,
                                 score=score, per_app=values,
                                 n_feasible=0)
    if best is None:
        raise ValueError("no feasible configuration under the constraints")
    return OptimalChoice(config=best.config, objective=best.objective,
                         score=best.score, per_app=best.per_app,
                         n_feasible=n_feasible)

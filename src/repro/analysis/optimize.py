"""Constrained design-point selection (the procurement optimizer).

Real system selection is constrained: a node power envelope, a die-area
budget, sometimes a minimum performance floor.  Given a sweep, this
module picks the best configuration per application — and for the whole
workload mix (geometric-mean objective across apps sharing one design,
since a machine is bought once) — subject to such constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..config.parse import parse_node
from ..core.results import CONFIG_KEYS, ResultSet
from ..power.area import AreaModel

__all__ = ["Constraints", "OptimalChoice", "optimize_node"]


@dataclass(frozen=True)
class Constraints:
    """Selection constraints; ``None`` disables a bound."""

    power_cap_w: Optional[float] = None
    area_cap_mm2: Optional[float] = None
    min_frequency_ghz: Optional[float] = None
    energy_cap_j: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("power_cap_w", "area_cap_mm2", "energy_cap_j"):
            cap = getattr(self, name)
            if cap is not None and cap <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class OptimalChoice:
    """The selected design point and its per-app outcomes."""

    config: Dict[str, object]
    objective: str
    score: float
    #: per-app objective values at the chosen configuration
    per_app: Dict[str, float]
    #: how many candidate configurations survived the constraints
    n_feasible: int

    @property
    def label(self) -> str:
        return _label(self.config[k] for k in _HW_KEYS)


#: Hardware configuration keys: the config key minus the app.
_HW_KEYS = CONFIG_KEYS[1:]
_FREQ = _HW_KEYS.index("frequency")


def _label(hw_values) -> str:
    """Node spec of the six hardware values (:data:`_HW_KEYS` order)."""
    return "{}/{}/{}/{}GHz/{}b/{}c".format(*hw_values)


def optimize_node(
    results: ResultSet,
    objective: str = "time_ns",
    constraints: Optional[Constraints] = None,
    apps: Optional[Sequence[str]] = None,
    area_model: Optional[AreaModel] = None,
) -> OptimalChoice:
    """Choose the single configuration minimizing the geometric mean of
    ``objective`` across ``apps`` (default: every app in the sweep),
    subject to the constraints holding for *every* application.

    ``objective`` may be any positive record metric (``time_ns``,
    ``energy_j``, ``power_total_w``) or ``"edp"``.  A configuration
    needs a record for every app, no failed-task stub among them, and
    a positive objective for each (``None``/NaN rule it out); a
    ``None`` power passes the power cap, a ``None`` energy fails the
    energy cap.  Computed on columns, bitwise equal to the per-record
    loop kept as the oracle in ``tests/analysis``; ties go to the
    configuration that appears first.
    """
    cons = constraints or Constraints()
    keys = list(results.config_keys())
    app_list = (list(apps) if apps is not None else
                sorted(dict.fromkeys(k[0] for k in keys)))
    if not app_list:
        raise ValueError("no applications in the result set")
    wanted = set(app_list)

    fields = ["energy_j", "time_ns"] if objective == "edp" else [objective]
    fields.append("failed")
    if cons.power_cap_w is not None:
        fields.append("power_total_w")
    if cons.energy_cap_j is not None:
        fields.append("energy_j")
    cols = results.columns(fields)
    keep = np.fromiter((k[0] in wanted for k in keys), bool, len(keys))
    if not keep.all():
        keys = [k for k, kept in zip(keys, keep.tolist()) if kept]
        cols = {f: col[keep] for f, col in cols.items()}
    value = (cols["energy_j"] * cols["time_ns"] if objective == "edp"
             else cols[objective])

    # Configuration ids, in first-appearance order.
    cfg_ids: Dict[Tuple, int] = {}
    cfg = np.fromiter((cfg_ids.setdefault(k[1:], len(cfg_ids))
                       for k in keys), np.intp, len(keys))
    feasible = np.bincount(cfg, minlength=len(cfg_ids)) == len(wanted)
    feasible[cfg[~(value > 0)]] = False
    feasible[cfg[cols["failed"] > 0]] = False
    if cons.power_cap_w is not None:
        feasible[cfg[cols["power_total_w"] > cons.power_cap_w]] = False
    if cons.energy_cap_j is not None:
        feasible[cfg[~(cols["energy_j"] <= cons.energy_cap_j)]] = False
    configs = list(cfg_ids)
    if cons.min_frequency_ghz is not None:
        feasible &= np.fromiter(
            (c[_FREQ] >= cons.min_frequency_ghz for c in configs), bool,
            len(configs))
    if cons.area_cap_mm2 is not None:
        am = area_model or AreaModel()
        for c in np.flatnonzero(feasible).tolist():
            spec = parse_node(_label(configs[c]))
            if am.node_area(spec).total_mm2 > cons.area_cap_mm2:
                feasible[c] = False
    cand = np.flatnonzero(feasible)
    if not len(cand):
        raise ValueError("no feasible configuration under the constraints")

    # One row per candidate, its apps in the order they appeared: the
    # row sums then match the loop's per-config sums bit for bit.
    order = np.argsort(cfg, kind="stable")
    slots = order[feasible[cfg[order]]].reshape(len(cand), len(wanted))
    scores = np.exp(np.mean(np.log(value[slots]), axis=1))
    best = int(np.argmin(scores))
    return OptimalChoice(config=dict(zip(_HW_KEYS, configs[cand[best]])),
                         objective=objective,
                         score=float(scores[best]),
                         per_app={keys[s][0]: float(value[s])
                                  for s in slots[best].tolist()},
                         n_feasible=len(cand))

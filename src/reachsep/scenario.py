"""Scenario files: two aircraft, their sets, and the encounter parameters.

A scenario is a single JSON document.  All physical quantities carry
unit-bearing field names (..._m, ..._mps, ..._s).  Two scenarios ship with
the package: ``quadrotor_pair`` and ``fixedwing_pair``; their vehicle
parameters and set sizes are plausible small-UAV defaults chosen for this
library, not published values.

Parsing, overrides, validation and ``Scenario.to_dict`` all read the one
table of top-level fields, ``_FIELDS``.
"""

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import (
    FixedWingParams,
    LTISystem,
    NominalTrajectory,
    QuadrotorParams,
    fixedwing_linearized,
    propagate_nominal,
    quadrotor_linearized,
)
from .ellipsoid import Ellipsoid
from .reachability import ReachSpec


class ScenarioError(ValueError):
    """Malformed scenario document; the message names the offending field."""


class _Dims(NamedTuple):
    state: int
    position: int
    input: int


_DIMS = {"quadrotor": _Dims(10, 3, 3), "fixedwing": _Dims(6, 2, 2)}
_REQUIRED = object()
_RULES = {float: "must be a number", int: "must be an integer", str: "must be a string",
          list: "must be a list", dict: "must be an object"}


def _as(kind: type, v):
    """v as kind, or None if the JSON value has another type; tuple: two integer axes."""
    if kind is tuple:
        ok = isinstance(v, list) and len(v) == 2 and all(_as(int, a) is not None for a in v)
        return tuple(v) if ok else None
    if isinstance(v, bool) or not isinstance(v, (int, float) if kind is float else kind):
        return None
    return float(v) if kind is float else v


def _need(d: dict, key: str, kind: type, where: str, default=_REQUIRED, rule: str = ""):
    """d[key] as kind; the default when key is absent, or null with a null default."""
    if key not in d or d[key] is None and default is None:
        if default is _REQUIRED:
            raise ScenarioError(f"missing field '{where}.{key}'")
        return default
    v = _as(kind, d[key])
    if v is None:
        raise ScenarioError(f"field '{where}.{key}' {rule or _RULES[kind]}")
    return v


def _vec(d: dict, key: str, n: int, where: str) -> np.ndarray:
    v = _need(d, key, list, where)
    if len(v) != n or any(_as(float, x) is None for x in v):
        raise ScenarioError(f"field '{where}.{key}' must be a list of {n} numbers")
    return np.asarray(v, dtype=float)


class _Field(NamedTuple):
    """A top-level field (path at most one block deep) and the Scenario
    attribute it fills; check sees the attributes parsed before it."""

    path: str
    attr: str
    kind: type
    default: object = _REQUIRED
    check: Callable = lambda v, got: True
    rule: str = ""


def _positive(v, got) -> bool:
    return v > 0.0


def _distinct_axes(dim: str):
    return lambda v, got: (v[0] != v[1]
                           and all(0 <= a < getattr(_DIMS[got["vehicle"]], dim) for a in v))


_FIELDS = (
    _Field("name", "name", str),
    _Field("vehicle", "vehicle", str, _REQUIRED, lambda v, got: v in _DIMS,
           "must be 'quadrotor' or 'fixedwing'"),
    _Field("required_separation_m", "d", float, _REQUIRED, _positive, "must be a positive number"),
    _Field("horizon_s", "horizon", float, _REQUIRED, _positive, "must be a positive number"),
    _Field("grid_step_s", "grid_step", float, _REQUIRED, lambda v, got: 0.0 < v <= got["horizon"],
           "must be a positive number of at most horizon_s"),
    _Field("quad_steps", "quad_steps", int, 200, lambda v, got: v >= 16,
           "must be an integer of at least 16"),
    _Field("directions", "directions", int, 32, lambda v, got: v >= 0,
           "must be a non-negative integer"),
    _Field("plane", "plane", tuple, (0, 1), _distinct_axes("position"),
           "must be two distinct integer axes of the position space"),
    _Field("control_plane", "control_plane", tuple, (0, 1), _distinct_axes("input"),
           "must be two distinct integer axes of the input space"),
    _Field("part1_method", "method", str, "norm", lambda v, got: v in ("norm", "scaled"),
           "must be 'norm' or 'scaled'"),
    _Field("scalarization.k0", "k0", float, 1.0, _positive, "must be a positive number"),
    _Field("scalarization.shrink", "shrink", float, 0.8, lambda v, got: 0.0 < v < 1.0,
           "must be a number strictly between 0 and 1"),
    _Field("scalarization.max_iters", "max_iters", int, 20, lambda v, got: v >= 1,
           "must be an integer of at least 1"),
    _Field("margins.part1_m", "margin1", float, None, rule="must be a number or null"),
    _Field("margins.part2_m", "margin2", float, 0.0),
)


@dataclass(frozen=True)
class AircraftConfig:
    ident: str
    position: np.ndarray
    velocity: np.ndarray
    params: dict
    initial_set: dict
    control_set: dict
    disturbance_radii: np.ndarray | None


@dataclass(frozen=True)
class Scenario:
    """Parsed and validated scenario configuration."""

    name: str
    vehicle: str  # quadrotor | fixedwing
    d: float
    horizon: float
    grid_step: float
    quad_steps: int
    directions: int
    plane: tuple[int, int]
    control_plane: tuple[int, int]
    method: str
    k0: float
    shrink: float
    max_iters: int
    margin1: float | None
    margin2: float
    aircraft: tuple[AircraftConfig, AircraftConfig]

    def to_dict(self) -> dict:
        out = {}
        for f in _FIELDS:
            *blocks, key = f.path.split(".")
            node = out.setdefault(blocks[0], {}) if blocks else out
            value = getattr(self, f.attr)
            node[key] = list(value) if isinstance(value, tuple) else value
        out["aircraft"] = []
        for ac in self.aircraft:
            entry = {
                "id": ac.ident,
                "initial_position_m": list(ac.position),
                "initial_velocity_mps": list(ac.velocity),
                "params": dict(ac.params),
                "initial_set": dict(ac.initial_set),
                "control_set": dict(ac.control_set),
            }
            if ac.disturbance_radii is not None:
                entry["disturbance_set"] = {"state_rate_radii": list(ac.disturbance_radii)}
            out["aircraft"].append(entry)
        return out


def scenario_from_dict(doc: dict, overrides: dict | None = None) -> Scenario:
    """The validated scenario of a document.  overrides maps Scenario
    attributes (k0, method, grid_step, ...) to values that replace the
    document's; None means not given, and other keys are ignored."""
    got, overrides = {}, overrides or {}
    for f in _FIELDS:
        *blocks, key = f.path.split(".")
        node = _need(doc, blocks[0], dict, "scenario", {}) if blocks else doc
        if overrides.get(f.attr) is not None:
            node = {**node, key: overrides[f.attr]}
        where = ".".join(["scenario", *blocks])
        got[f.attr] = value = _need(node, key, f.kind, where, f.default, f.rule)
        if value is not None and not f.check(value, got):
            raise ScenarioError(f"field '{where}.{key}' {f.rule}")
    dims = _DIMS[got["vehicle"]]
    planes = _need(doc, "aircraft", list, "scenario")
    if len(planes) != 2:
        raise ScenarioError("field 'scenario.aircraft' must list exactly two aircraft")
    crafts = []
    for i, entry in enumerate(planes):
        where = f"aircraft[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"field '{where}' must be an object")
        ident = _need(entry, "id", str, where)
        position = _vec(entry, "initial_position_m", dims.position, where)
        velocity = _vec(entry, "initial_velocity_mps", dims.position, where)
        params = _need(entry, "params", dict, where)
        iset = _need(entry, "initial_set", dict, where)
        cset = _need(entry, "control_set", dict, where)
        dist = _need(entry, "disturbance_set", dict, where, None)
        if dist is not None:
            dist = _vec(dist, "state_rate_radii", dims.state, f"{where}.disturbance_set")
        crafts.append(AircraftConfig(ident, position, velocity, params, iset, cset, dist))
    scenario = Scenario(**got, aircraft=(crafts[0], crafts[1]))
    # the vehicle-specific blocks are validated by building each spec once
    for i in range(2):
        build_spec(scenario, i)
    return scenario


def load_document(path) -> dict:
    """The scenario file's JSON object, not yet validated."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    return doc


def load_scenario(path) -> Scenario:
    return scenario_from_dict(load_document(path))


def builtin_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (quadrotor_pair, fixedwing_pair)."""
    ref = resources.files("reachsep") / "scenarios" / f"{name}.json"
    return Path(str(ref))


def position_projection(scenario: Scenario) -> np.ndarray:
    dims = _DIMS[scenario.vehicle]
    return np.eye(dims.state)[:dims.position]


def build_system(scenario: Scenario, i: int) -> LTISystem:
    """World-frame LTI model for aircraft i.

    A fixed-wing craft cruising in -x is conjugated by the axis flip
    S = diag(-1, 1, -1, 1, 1, 1), which leaves the vertical dynamics intact
    while aligning the model's position coordinates with the world frame.
    """
    ac = scenario.aircraft[i]
    where = f"aircraft[{i}].params"
    if scenario.vehicle == "quadrotor":
        m = _need(ac.params, "mass_kg", float, where)
        Jd = _vec(ac.params, "inertia_diag_kgm2", 3, where)
        g = _need(ac.params, "gravity_mps2", float, where)
        try:
            return quadrotor_linearized(QuadrotorParams(m=m, J=np.diag(Jd), g=g))
        except ValueError as exc:
            raise ScenarioError(f"field '{where}': {exc}") from exc
    keys = ["X_u", "X_w", "X_q", "Z_u", "Z_w", "Z_q", "M_u", "M_w", "M_q",
            "X_de", "X_dt", "Z_de", "M_de"]
    vals = {k: _need(ac.params, k, float, where) for k in keys}
    try:
        p = FixedWingParams(
            u_star=_need(ac.params, "airspeed_trim_mps", float, where),
            theta_star=_need(ac.params, "pitch_trim_rad", float, where, 0.0),
            w_star=_need(ac.params, "heave_trim_mps", float, where, 0.0),
            g=_need(ac.params, "gravity_mps2", float, where),
            **vals)
    except ValueError as exc:
        raise ScenarioError(f"field '{where}': {exc}") from exc
    sys = fixedwing_linearized(p)
    if ac.velocity[0] < 0.0:
        sys = sys.similarity(np.diag([-1.0, 1.0, -1.0, 1.0, 1.0, 1.0]))
    return sys


def _initial_ellipsoid(scenario: Scenario, i: int) -> Ellipsoid:
    ac = scenario.aircraft[i]
    where = f"aircraft[{i}].initial_set"
    pr = _need(ac.initial_set, "position_radius_m", float, where)
    vr = _need(ac.initial_set, "velocity_radius_mps", float, where)
    center = np.zeros(_DIMS[scenario.vehicle].state)
    if scenario.vehicle == "quadrotor":
        ar = _need(ac.initial_set, "attitude_radius_rad", float, where, 0.0)
        rr = _need(ac.initial_set, "rate_radius_radps", float, where, 0.0)
        center[0:3] = ac.position
        center[3:6] = ac.velocity
        radii = [pr] * 3 + [vr] * 3 + [ar] * 2 + [rr] * 2
        return Ellipsoid(center, np.diag(np.square(radii)))
    ar = _need(ac.initial_set, "attitude_radius_rad", float, where, 0.01)
    radii = [pr, pr, vr, vr, ar, ar]
    # fixed-wing states are deviations from trim; the cruise line lives in
    # the center offset, so the deviation set is centered at zero
    return Ellipsoid(center, np.diag(np.square(radii)))


def _control_ellipsoid(scenario: Scenario, i: int) -> Ellipsoid:
    ac = scenario.aircraft[i]
    where = f"aircraft[{i}].control_set"
    center = np.zeros(_DIMS[scenario.vehicle].input)
    if scenario.vehicle == "quadrotor":
        tr = _need(ac.control_set, "thrust_radius_n", float, where)
        qr = _need(ac.control_set, "torque_radius_nm", float, where)
        return Ellipsoid(center, np.diag([tr**2, qr**2, qr**2]))
    er = _need(ac.control_set, "elevator_radius_rad", float, where)
    tr = _need(ac.control_set, "throttle_radius", float, where)
    return Ellipsoid(center, np.diag([er**2, tr**2]))


def build_nominal(scenario: Scenario, i: int) -> NominalTrajectory:
    """Nominal center trajectory on the output grid.

    The quadrotor nominal is the free flow of the hover-linearized model from
    the initial center (a constant-velocity drift); the fixed-wing nominal is
    the leveled cruise line, carried as a center offset for the deviation
    dynamics.
    """
    ac = scenario.aircraft[i]
    if scenario.vehicle == "quadrotor":
        sys = build_system(scenario, i)
        x0 = _initial_ellipsoid(scenario, i).center
        return propagate_nominal(lambda t, x, u: sys.A @ x, x0, [],
                                 scenario.horizon, scenario.grid_step)
    x0 = np.zeros(_DIMS[scenario.vehicle].state)
    rate = np.zeros_like(x0)
    rate[0] = ac.velocity[0]
    rate[1] = ac.velocity[1]
    x0[0:2] = ac.position
    x0[2] = abs(ac.velocity[0])
    if ac.velocity[0] < 0.0:
        x0[2] = -x0[2]
    return propagate_nominal(lambda t, x, u: rate, x0, [],
                             scenario.horizon, scenario.grid_step)


def build_spec(scenario: Scenario, i: int, with_disturbance: bool = True) -> ReachSpec:
    """ReachSpec for aircraft i; quadrotor nominal motion lives in the
    initial-set center, fixed-wing in the center offset."""
    sys = build_system(scenario, i)
    X0 = _initial_ellipsoid(scenario, i)
    U = _control_ellipsoid(scenario, i)
    V = None
    ac = scenario.aircraft[i]
    if with_disturbance and ac.disturbance_radii is not None:
        V = Ellipsoid(np.zeros(sys.state_dim), np.diag(np.square(ac.disturbance_radii)))
    offset = None if scenario.vehicle == "quadrotor" else build_nominal(scenario, i)
    return ReachSpec(sys, X0, U, scenario.horizon, V=V,
                     quad_steps=scenario.quad_steps, center_offset=offset)

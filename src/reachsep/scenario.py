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
from dataclasses import dataclass, replace
from functools import cached_property
from importlib import resources
from pathlib import Path
from sys import float_info
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import (
    FixedWingParams,
    LTISystem,
    NominalTrajectory,
    QuadrotorParams,
    expm,
    fixedwing_linearized,
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
# bound on every nominal position coordinate over the horizon: squares and
# sums of squares of center gaps then stay far inside the float range
_REACH_M = 1e150
# bound on every set radius and params number, and floor on the quadrotor's
# mass, inertia entries and gravity and on the fixed-wing trim airspeed: a
# set's spread (a radius, times a gain of at most 1 / _MASS_MIN, times the
# linearized model's growth over the horizon, at most _GROWTH_MAX) stays near
# 1e72 or below, so the polytope's plane normals, whose squares are fourth
# powers of the spread, stay inside the float range
_RADIUS_MAX = 1e30
_MASS_MIN = 1e-30
_GROWTH_MAX = 1e12  # on max |e^(A horizon)|
_CONTROL_MIN = 1e-30  # floor on every control radius: its square must stay positive
_RULES = {float: "must be a finite number", int: "must be an integer", str: "must be a string",
          list: "must be a list", dict: "must be an object"}


def _as(kind: type, v):
    """v as kind, or None if the JSON value has another type or is no finite
    float (json reads NaN and Infinity); tuple: two integer axes."""
    if kind is tuple:
        ok = isinstance(v, list) and len(v) == 2 and all(_as(int, a) is not None for a in v)
        return tuple(v) if ok else None
    if isinstance(v, bool) or not isinstance(v, (int, float) if kind is float else kind):
        return None
    if kind is float:
        # false for NaN, the infinities and integers beyond the float range
        return float(v) if abs(v) <= float_info.max else None
    return v


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
        raise ScenarioError(f"field '{where}.{key}' must be a list of {n} finite numbers")
    return np.asarray(v, dtype=float)


def _check_magnitude(largest: float, key: str, where: str) -> None:
    """A ScenarioError naming the field when the largest magnitude of its
    set radii or params numbers exceeds _RADIUS_MAX."""
    if not largest <= _RADIUS_MAX:
        raise ScenarioError(f"field '{where}.{key}' must be at most {_RADIUS_MAX:g} "
                            "in magnitude")


def _radius(d: dict, key: str, where: str, default=_REQUIRED, least: float = 0.0) -> float:
    r = _need(d, key, float, where, default)
    _check_magnitude(abs(r), key, where)
    if not abs(r) >= least:
        raise ScenarioError(f"field '{where}.{key}' must be at least {least:g} in magnitude")
    return r


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

    @cached_property
    def specs(self) -> tuple[ReachSpec, ReachSpec]:
        """Each aircraft's ReachSpec, built once by _spec; aircraft with equal
        A and B share one LTISystem, and with it its quadrature grids."""
        a, b = (_linearize(self, i) for i in range(2))
        if np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B):
            b = a
        return _spec(self, 0, a), _spec(self, 1, b)

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
        # python floats: an overflow reads inf, with no warning
        reach_p = float(np.abs(position).max())
        reach_v = max(1.0, got["horizon"]) * float(np.abs(velocity).max())
        if not reach_p + reach_v <= _REACH_M:
            key = "initial_position_m" if reach_p > _REACH_M else "initial_velocity_mps"
            raise ScenarioError(f"field '{where}.{key}' puts the nominal more than "
                                f"{_REACH_M:g} m from the origin within the horizon")
        params = _need(entry, "params", dict, where)
        iset = _need(entry, "initial_set", dict, where)
        cset = _need(entry, "control_set", dict, where)
        dist = _need(entry, "disturbance_set", dict, where, None)
        if dist is not None:
            dist = _vec(dist, "state_rate_radii", dims.state, f"{where}.disturbance_set")
            _check_magnitude(float(np.abs(dist).max()), "state_rate_radii",
                             f"{where}.disturbance_set")
        crafts.append(AircraftConfig(ident, position, velocity, params, iset, cset, dist))
    scenario = Scenario(**got, aircraft=(crafts[0], crafts[1]))
    scenario.specs  # the vehicle-specific blocks are validated by building the specs
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


def _linearize(scenario: Scenario, i: int) -> LTISystem:
    """World-frame LTI model for aircraft i (read it from Scenario.specs).

    Every params number is range-checked by _param, and the model may grow
    by at most _GROWTH_MAX over the horizon.  Past that, the error names
    horizon_s when the model with the params of the bundled scenario of the
    same vehicle grows past the bound too, and else the params field that,
    set to zero, brings the growth within the bound (the largest in
    magnitude if several do).  A fixed-wing craft cruising in -x is
    conjugated by the axis flip S = diag(-1, 1, -1, 1, 1, 1), which leaves
    the vertical dynamics intact while aligning the model's position
    coordinates with the world frame.
    """
    ac = scenario.aircraft[i]
    where = f"aircraft[{i}].params"
    vals, fields, params, model = _model_params(scenario.vehicle, ac.params, where)
    sys = model(params(**vals))
    growth = _growth(sys, scenario.horizon)
    if not growth <= _GROWTH_MAX:
        def zeroed(key):
            left = _growth(model(SimpleNamespace(**{**vals, fields[key]: 0.0})), scenario.horizon)
            return not left <= _GROWTH_MAX, -abs(vals[fields[key]])
        bundled = load_document(builtin_scenario_path(f"{scenario.vehicle}_pair"))
        reference = _model_params(scenario.vehicle, bundled["aircraft"][0]["params"], where)[0]
        if not _growth(model(SimpleNamespace(**reference)), scenario.horizon) <= _GROWTH_MAX:
            field = "scenario.horizon_s"
        else:
            field = f"{where}.{min(fields, key=zeroed)}"
        raise ScenarioError(
            f"field '{field}' makes the linearized model grow by more than {_GROWTH_MAX:g} "
            f"over horizon_s (max |e^(A horizon_s)| is {growth:.3g})")
    if scenario.vehicle == "fixedwing" and ac.velocity[0] < 0.0:
        sys = sys.similarity(np.diag([-1.0, 1.0, -1.0, 1.0, 1.0, 1.0]))
    return sys


def _model_params(vehicle: str, params: dict, where: str):
    """(values, fields, params class, model) of a params block: the
    range-checked numbers by attribute, the document keys that enter A with
    their attributes, and the linearization.  The growth rule's trials hand
    the model a plain namespace: the params classes refuse a zero gravity or
    trim airspeed."""
    if vehicle == "quadrotor":
        vals = {"m": _param(params, "mass_kg", where, least=_MASS_MIN),
                "J": np.diag(_param(params, "inertia_diag_kgm2", where, least=_MASS_MIN, n=3)),
                "g": _param(params, "gravity_mps2", where, least=_MASS_MIN)}
        # gravity is the one params entry of A
        return vals, {"gravity_mps2": "g"}, QuadrotorParams, quadrotor_linearized
    vals = {attr: _param(params, key, where, default, least)
            for key, (attr, default, least) in _FIXEDWING_PARAMS.items()}
    return (vals, {key: attr for key, (attr, *_) in _FIXEDWING_PARAMS.items()}, FixedWingParams,
            fixedwing_linearized)


# fixed-wing params: document key -> FixedWingParams field, default and floor
_FIXEDWING_PARAMS = {
    "airspeed_trim_mps": ("u_star", _REQUIRED, _MASS_MIN),
    "pitch_trim_rad": ("theta_star", 0.0, None), "heave_trim_mps": ("w_star", 0.0, None),
    "gravity_mps2": ("g", _REQUIRED, None),
    **{key: (key, _REQUIRED, None) for key in ("X_u", "X_w", "X_q", "Z_u", "Z_w", "Z_q", "M_u",
                                               "M_w", "M_q", "X_de", "X_dt", "Z_de", "M_de")}}


def _param(params: dict, key: str, where: str, default=_REQUIRED, least: float | None = None,
           n: int = 0):
    """params[key], a number or with n a list of n, with a ScenarioError
    naming the field unless every entry is at most _RADIUS_MAX in magnitude
    and, given least, at least least."""
    v = _vec(params, key, n, where) if n else _need(params, key, float, where, default)
    _check_magnitude(float(np.abs(v).max()), key, where)
    if least is not None and not np.min(v) >= least:
        raise ScenarioError(f"field '{where}.{key}' must be at least {least:g}")
    return v


def _growth(system: LTISystem, horizon: float) -> float:
    """max |e^(A horizon)|, the model's largest gain from a state over the
    horizon; inf when it leaves the float range."""
    with np.errstate(all="ignore"):
        M = system.A * horizon
        if not np.isfinite(np.abs(M).sum()):
            return np.inf
        E = expm(M)
    return float(np.abs(E).max()) if np.isfinite(E).all() else np.inf


def _spec(scenario: Scenario, i: int, system: LTISystem) -> ReachSpec:
    """Aircraft i's ReachSpec on system, the one place its sets are built.

    The initial set, then the control set, are read in that order, so a
    ScenarioError names the first bad field.  Quadrotor nominal motion lives
    in the initial-set center; fixed-wing states are deviations from trim, so
    its initial set is centered at zero and the cruise line is the center
    offset.
    """
    ac = scenario.aircraft[i]
    dims = _DIMS[scenario.vehicle]
    where, cwhere = f"aircraft[{i}].initial_set", f"aircraft[{i}].control_set"
    pr = _radius(ac.initial_set, "position_radius_m", where)
    vr = _radius(ac.initial_set, "velocity_radius_mps", where)
    center = np.zeros(dims.state)
    offset = None
    if scenario.vehicle == "quadrotor":
        ar = _radius(ac.initial_set, "attitude_radius_rad", where, 0.0)
        rr = _radius(ac.initial_set, "rate_radius_radps", where, 0.0)
        center[0:3] = ac.position
        center[3:6] = ac.velocity
        radii = [pr] * 3 + [vr] * 3 + [ar] * 2 + [rr] * 2
        tr = _radius(ac.control_set, "thrust_radius_n", cwhere, least=_CONTROL_MIN)
        qr = _radius(ac.control_set, "torque_radius_nm", cwhere, least=_CONTROL_MIN)
        control_radii = [tr, qr, qr]
    else:
        ar = _radius(ac.initial_set, "attitude_radius_rad", where, 0.01)
        radii = [pr, pr, vr, vr, ar, ar]
        control_radii = [_radius(ac.control_set, key, cwhere, least=_CONTROL_MIN)
                         for key in ("elevator_radius_rad", "throttle_radius")]
        x0 = np.zeros(dims.state)
        x0[0:2] = ac.position
        x0[2] = -abs(ac.velocity[0]) if ac.velocity[0] < 0.0 else abs(ac.velocity[0])
        rate = np.zeros_like(x0)
        rate[0:2] = ac.velocity
        offset = _line(scenario, x0, rate)
    V = None
    if ac.disturbance_radii is not None:
        V = Ellipsoid(np.zeros(dims.state), np.diag(np.square(ac.disturbance_radii)))
    return ReachSpec(system, Ellipsoid(center, np.diag(np.square(radii))),
                     Ellipsoid(np.zeros(dims.input), np.diag(np.square(control_radii))),
                     scenario.horizon, V=V, quad_steps=scenario.quad_steps,
                     center_offset=offset)


def _line(scenario: Scenario, x0: np.ndarray, rate: np.ndarray) -> NominalTrajectory:
    """x0 plus whole steps of horizon / ceil(horizon / grid_step) at a
    constant rate, on the output grid."""
    n_steps = int(np.ceil(scenario.horizon / scenario.grid_step - 1e-12))
    h = scenario.horizon / n_steps
    # RK4's step, whose four stages are equal at a constant rate, kept in its
    # form and summed in its order: the states are bit for bit those of
    # fixed-step RK4, which keeps artifacts byte-identical
    step = (h / 6.0) * (rate + 2.0 * rate + 2.0 * rate + rate)
    states = np.add.accumulate(np.vstack([x0, np.broadcast_to(step, (n_steps, x0.size))]))
    return NominalTrajectory(np.linspace(0.0, scenario.horizon, n_steps + 1), states)


def build_nominal(scenario: Scenario, i: int) -> NominalTrajectory:
    """Nominal center trajectory on the output grid, a straight line.

    The quadrotor nominal is the free flow of the hover-linearized model from
    the initial center, a constant-velocity drift at rate A x0: the center
    sets only position and velocity, and the position rows read only
    velocity, so A (A x0) = 0.  The fixed-wing nominal is the leveled cruise
    line, the spec's center offset for the deviation dynamics.
    """
    spec = scenario.specs[i]
    if scenario.vehicle == "fixedwing":
        return spec.center_offset
    return _line(scenario, spec.X0.center, spec.system.A @ spec.X0.center)


def build_spec(scenario: Scenario, i: int, with_disturbance: bool = True) -> ReachSpec:
    """Aircraft i's ReachSpec, Scenario.specs[i]; with_disturbance=False drops
    its disturbance set, on a copy that keeps the system and its grids."""
    spec = scenario.specs[i]
    if with_disturbance or spec.V is None:
        return spec
    return replace(spec, V=None)

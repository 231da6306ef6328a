"""Scenario files: two aircraft, their sets, and the encounter parameters.

A scenario is a single JSON document.  All physical quantities carry
unit-bearing field names (..._m, ..._mps, ..._s).  Two scenarios ship with
the package: ``quadrotor_pair`` and ``fixedwing_pair``; their vehicle
parameters and set sizes are plausible small-UAV defaults chosen for this
library, not published values.

Parsing, overrides, validation and ``Scenario.to_dict`` all read the one
table of top-level fields, ``_FIELDS``; each aircraft's sets and params are
read through its vehicle's one layout table in ``_VEHICLES``.
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
# bounds on the counts that size arrays and loops, checked before any is
# built.  Quadrature nodes per grid request, grid times x (quad_steps + 1):
# the (T, N+1, n, n) transition stack is 52 MB at n = 10
_NODES_MAX = 2**16
# reads: a tube's directions x nodes (its per-time view of directions x
# (quad_steps + 1) factor nodes per input column, at most 17 MB each), and
# the Monte Carlo check's samples x (grid times + directions) (the samplers'
# steps, and the check's (directions, samples) buffer, at most 34 MB)
_READS_MAX = 2**22
_SAMPLES_MAX = 2**17  # Monte Carlo samples per aircraft: about 560 B each for two quadrotors
_ITERS_MAX = 100  # scalarization rounds, about 10 ms each
_RULES = {float: "must be a finite number", int: "must be an integer", str: "must be a string",
          list: "must be a list", dict: "must be an object"}


# Each vehicle's layout: its dimensions; each initial-set radius key with its
# default and the state indices it fills; each control radius key with the
# inputs it fills; each params key with its attribute, default, floor and list
# length n (the diagonal of an n x n attribute); the params keys the growth
# rule may name (None: all); the params class and the linearization; and the
# state signs that turn the model of a craft cruising in -x to the world frame
_VEHICLES = {
    "quadrotor": SimpleNamespace(
        state=10, position=3, input=3,
        initial={"position_radius_m": (_REQUIRED, [0, 1, 2]),
                 "velocity_radius_mps": (_REQUIRED, [3, 4, 5]),
                 "attitude_radius_rad": (0.0, [6, 7]), "rate_radius_radps": (0.0, [8, 9])},
        control={"thrust_radius_n": [0], "torque_radius_nm": [1, 2]},
        params={"mass_kg": ("m", _REQUIRED, _MASS_MIN, 0),
                "inertia_diag_kgm2": ("J", _REQUIRED, _MASS_MIN, 3),
                "gravity_mps2": ("g", _REQUIRED, _MASS_MIN, 0)},
        growth=("gravity_mps2",),  # gravity is the one params entry of A
        params_class=QuadrotorParams, model=quadrotor_linearized, flip=None),
    "fixedwing": SimpleNamespace(
        state=6, position=2, input=2,
        initial={"position_radius_m": (_REQUIRED, [0, 1]),
                 "velocity_radius_mps": (_REQUIRED, [2, 3]), "attitude_radius_rad": (0.01, [4, 5])},
        control={"elevator_radius_rad": [0], "throttle_radius": [1]},
        params={"airspeed_trim_mps": ("u_star", _REQUIRED, _MASS_MIN, 0),
                "pitch_trim_rad": ("theta_star", 0.0, None, 0),
                "heave_trim_mps": ("w_star", 0.0, None, 0),
                "gravity_mps2": ("g", _REQUIRED, None, 0),
                **{key: (key, _REQUIRED, None, 0)
                   for key in "X_u X_w X_q Z_u Z_w Z_q M_u M_w M_q X_de X_dt Z_de M_de".split()}},
        growth=None, params_class=FixedWingParams, model=fixedwing_linearized,
        flip=(-1.0, 1.0, -1.0, 1.0, 1.0, 1.0)),
}


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


def _leaf(block: dict, key: str, where: str, default=_REQUIRED, least: float | None = None,
          n: int = 0, radius: bool = False):
    """block[key], a number or with n a list of n numbers.  A ScenarioError
    names the field unless every entry is at most _RADIUS_MAX in magnitude
    and at least the floor least, if given; a radius's floor holds in
    magnitude, for its sign drops out of its square."""
    v = _vec(block, key, n, where) if n else _need(block, key, float, where, default)
    size = np.abs(v)
    if not np.max(size) <= _RADIUS_MAX:
        raise ScenarioError(f"field '{where}.{key}' must be at most {_RADIUS_MAX:g} in magnitude")
    if least is not None and not np.min(size if radius else v) >= least:
        raise ScenarioError(f"field '{where}.{key}' must be at least {least:g}"
                            + (" in magnitude" if radius else ""))
    return v


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
                           and all(0 <= a < getattr(_VEHICLES[got["vehicle"]], dim) for a in v))


_FIELDS = (
    _Field("name", "name", str),
    _Field("vehicle", "vehicle", str, _REQUIRED, lambda v, got: v in _VEHICLES,
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
    _Field("scalarization.max_iters", "max_iters", int, 20,
           lambda v, got: 1 <= v <= _ITERS_MAX, f"must be an integer from 1 to {_ITERS_MAX}"),
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
        """Each aircraft's ReachSpec, built once by _spec after the models'
        growth and the sizes are checked; aircraft with equal A and B share
        one LTISystem, and with it its quadrature grids."""
        a, b = (_linearize(self, i) for i in range(2))
        _check_sizes(self)
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
    vehicle = _VEHICLES[got["vehicle"]]
    planes = _need(doc, "aircraft", list, "scenario")
    if len(planes) != 2:
        raise ScenarioError("field 'scenario.aircraft' must list exactly two aircraft")
    crafts = []
    for i, entry in enumerate(planes):
        where = f"aircraft[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"field '{where}' must be an object")
        ident = _need(entry, "id", str, where)
        position = _vec(entry, "initial_position_m", vehicle.position, where)
        velocity = _vec(entry, "initial_velocity_mps", vehicle.position, where)
        # python floats: an overflow reads inf, with no warning
        reach_p = float(np.abs(position).max())
        reach_v = max(1.0, got["horizon"]) * float(np.abs(velocity).max())
        if not reach_p + reach_v <= _REACH_M:
            # the horizon is named when it alone, at 1 m/s, reaches that far
            field = (f"{where}.initial_position_m" if reach_p > _REACH_M else
                     "scenario.horizon_s" if got["horizon"] > _REACH_M else
                     f"{where}.initial_velocity_mps")
            raise ScenarioError(f"field '{field}' puts the nominal more than "
                                f"{_REACH_M:g} m from the origin within the horizon")
        params = _need(entry, "params", dict, where)
        iset = _need(entry, "initial_set", dict, where)
        cset = _need(entry, "control_set", dict, where)
        dist = _need(entry, "disturbance_set", dict, where, None)
        if dist is not None:
            dist = _leaf(dist, "state_rate_radii", f"{where}.disturbance_set", n=vehicle.state)
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
    vehicle = _VEHICLES[scenario.vehicle]
    return np.eye(vehicle.state)[:vehicle.position]


def _linearize(scenario: Scenario, i: int) -> LTISystem:
    """World-frame LTI model for aircraft i (read it from Scenario.specs).

    Every params number is range-checked by _leaf, and the model may grow
    by at most _GROWTH_MAX over the horizon.  Past that, the error names
    horizon_s when the model with the params of the bundled scenario of the
    same vehicle grows past the bound too, and else the params field that,
    set to zero, brings the growth within the bound (the largest in
    magnitude if several do).  A craft whose vehicle has a flip and that
    cruises in -x is conjugated by it (the fixed-wing's S = diag(-1, 1, -1,
    1, 1, 1)), which leaves the vertical dynamics intact while aligning the
    model's position coordinates with the world frame.
    """
    ac, vehicle = scenario.aircraft[i], _VEHICLES[scenario.vehicle]
    where = f"aircraft[{i}].params"

    def read(params: dict) -> dict:  # the range-checked numbers of a params block, by attribute
        return {attr: (np.diag if n else float)(_leaf(params, key, where, default, least, n))
                for key, (attr, default, least, n) in vehicle.params.items()}
    vals = read(ac.params)
    sys = vehicle.model(vehicle.params_class(**vals))
    growth = _growth(sys, scenario.horizon)
    if not growth <= _GROWTH_MAX:
        def grows(trial: dict) -> bool:
            # a plain namespace: the params classes refuse a zero gravity or trim airspeed
            return _growth(vehicle.model(SimpleNamespace(**trial)), scenario.horizon) > _GROWTH_MAX
        bundled = load_document(builtin_scenario_path(f"{scenario.vehicle}_pair"))
        field = "scenario.horizon_s"
        if not grows(read(bundled["aircraft"][0]["params"])):
            attr = {key: vehicle.params[key][0] for key in vehicle.growth or vehicle.params}
            key = min(attr, key=lambda k: (grows({**vals, attr[k]: 0.0}), -abs(vals[attr[k]])))
            field = f"{where}.{key}"
        raise ScenarioError(
            f"field '{field}' makes the linearized model grow by more than {_GROWTH_MAX:g} "
            f"over horizon_s (max |e^(A horizon_s)| is {growth:.3g})")
    if vehicle.flip and ac.velocity[0] < 0.0:
        sys = sys.similarity(np.diag(vehicle.flip))
    return sys


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
    ac, vehicle = scenario.aircraft[i], _VEHICLES[scenario.vehicle]
    radii, control_radii = np.zeros(vehicle.state), np.zeros(vehicle.input)
    for key, (default, states) in vehicle.initial.items():
        radii[states] = _leaf(ac.initial_set, key, f"aircraft[{i}].initial_set", default)
    for key, inputs in vehicle.control.items():
        control_radii[inputs] = _leaf(ac.control_set, key, f"aircraft[{i}].control_set",
                                      least=_CONTROL_MIN, radius=True)
    center, offset = np.zeros(vehicle.state), None
    if scenario.vehicle == "quadrotor":
        center[0:6] = np.concatenate([ac.position, ac.velocity])
    else:
        x0, rate = np.zeros(vehicle.state), np.zeros(vehicle.state)
        x0[0:2], rate[0:2] = ac.position, ac.velocity
        x0[2] = -abs(ac.velocity[0]) if ac.velocity[0] < 0.0 else abs(ac.velocity[0])
        offset = _line(scenario, x0, rate)
    V = None if ac.disturbance_radii is None else Ellipsoid(
        np.zeros(vehicle.state), np.diag(np.square(ac.disturbance_radii)))
    return ReachSpec(system, Ellipsoid(center, np.diag(np.square(radii))),
                     Ellipsoid(np.zeros(vehicle.input), np.diag(np.square(control_radii))),
                     scenario.horizon, V=V, quad_steps=scenario.quad_steps, center_offset=offset)


def _grid_times(horizon: float, grid_step: float) -> float:
    """The output grid's time count, 1 + ceil(horizon / grid_step), as a
    float: a tiny step gives a huge count or inf, not a huge integer."""
    return np.ceil(horizon / grid_step - 1e-12) + 1.0


def _grid_nodes(horizon_s: float, grid_step_s: float, quad_steps: int) -> float:
    """Quadrature nodes per grid request, grid times x (quad_steps + 1) with
    quad_steps rounded up to even, as a float: quad_steps past 1e300 (a JSON
    integer can pass the float range) counts as 1e300."""
    q = min(quad_steps, 1e300)
    return _grid_times(horizon_s, grid_step_s) * (q + q % 2 + 1)


def _check_sizes(scenario: Scenario) -> None:
    """A ScenarioError past the quadrature nodes per grid request or the
    tube reads.  Past the nodes, the error names the first of quad_steps,
    grid_step_s and horizon_s that, set to its value in the bundled scenario
    of the same vehicle, brings the count within the bound, and else
    grid_step_s."""
    got = {"horizon_s": scenario.horizon, "grid_step_s": scenario.grid_step,
           "quad_steps": scenario.quad_steps}
    nodes = _grid_nodes(**got)
    if nodes > _NODES_MAX:
        bundled = load_document(builtin_scenario_path(f"{scenario.vehicle}_pair"))
        key = next((key for key in ("quad_steps", "grid_step_s", "horizon_s")
                    if _grid_nodes(**{**got, key: bundled[key]}) <= _NODES_MAX), "grid_step_s")
        raise ScenarioError(f"field 'scenario.{key}' makes {nodes:.6g} quadrature nodes per grid "
                            f"request (grid times x (quad_steps + 1)), more than {_NODES_MAX}")
    reads = min(scenario.directions, 1e300) * nodes
    if reads > _READS_MAX:
        raise ScenarioError(f"field 'scenario.directions' makes {reads:.6g} tube reads "
                            f"(directions x quadrature nodes), more than {_READS_MAX}")


def check_samples(scenario: Scenario, n: int) -> None:
    """A ScenarioError naming option 'verify_mc' when n Monte Carlo samples
    per aircraft pass _SAMPLES_MAX, or n x (grid times + directions) passes
    _READS_MAX."""
    per = _grid_times(scenario.horizon, scenario.grid_step) + scenario.directions
    if n > _SAMPLES_MAX or n * per > _READS_MAX:
        raise ScenarioError(f"option 'verify_mc' must be at most {_SAMPLES_MAX}, and samples x "
                            f"(grid times + directions) at most {_READS_MAX}: got {n} x {per:.6g}")


def _line(scenario: Scenario, x0: np.ndarray, rate: np.ndarray) -> NominalTrajectory:
    """x0 plus whole steps of horizon / ceil(horizon / grid_step) at a
    constant rate, on the output grid."""
    n_steps = int(_grid_times(scenario.horizon, scenario.grid_step)) - 1
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

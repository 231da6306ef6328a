"""Scenario files: two aircraft, their sets, and the encounter parameters.

A scenario is a single JSON document.  All physical quantities carry
unit-bearing field names (..._m, ..._mps, ..._s).  Two scenarios ship with
the package: ``quadrotor_pair`` and ``fixedwing_pair``; their vehicle
parameters and set sizes are plausible small-UAV defaults chosen for this
library, not published values.
"""

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

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


def _need(d: dict, key: str, kind, where: str):
    if key not in d:
        raise ScenarioError(f"missing field '{where}.{key}'")
    v = d[key]
    if kind is float:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ScenarioError(f"field '{where}.{key}' must be a number")
        return float(v)
    if kind is int:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ScenarioError(f"field '{where}.{key}' must be an integer")
        return v
    if kind is str:
        if not isinstance(v, str):
            raise ScenarioError(f"field '{where}.{key}' must be a string")
        return v
    if kind is list:
        if not isinstance(v, list):
            raise ScenarioError(f"field '{where}.{key}' must be a list")
        return v
    if kind is dict:
        if not isinstance(v, dict):
            raise ScenarioError(f"field '{where}.{key}' must be an object")
        return v
    raise AssertionError(kind)


def _vec(d: dict, key: str, n: int, where: str) -> np.ndarray:
    v = _need(d, key, list, where)
    if len(v) != n or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v):
        raise ScenarioError(f"field '{where}.{key}' must be a list of {n} numbers")
    return np.asarray(v, dtype=float)


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
        out = {
            "name": self.name,
            "vehicle": self.vehicle,
            "required_separation_m": self.d,
            "horizon_s": self.horizon,
            "grid_step_s": self.grid_step,
            "quad_steps": self.quad_steps,
            "directions": self.directions,
            "plane": list(self.plane),
            "control_plane": list(self.control_plane),
            "part1_method": self.method,
            "scalarization": {"k0": self.k0, "shrink": self.shrink,
                              "max_iters": self.max_iters},
            "margins": {"part1_m": self.margin1, "part2_m": self.margin2},
            "aircraft": [],
        }
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


def scenario_from_dict(doc: dict) -> Scenario:
    name = _need(doc, "name", str, "scenario")
    vehicle = _need(doc, "vehicle", str, "scenario")
    if vehicle not in ("quadrotor", "fixedwing"):
        raise ScenarioError("field 'scenario.vehicle' must be 'quadrotor' or 'fixedwing'")
    d = _need(doc, "required_separation_m", float, "scenario")
    if d <= 0.0:
        raise ScenarioError("field 'scenario.required_separation_m' must be positive")
    horizon = _need(doc, "horizon_s", float, "scenario")
    grid_step = _need(doc, "grid_step_s", float, "scenario")
    if grid_step <= 0.0:
        raise ScenarioError("field 'scenario.grid_step_s' must be positive")
    quad_steps = doc.get("quad_steps", 200)
    if not isinstance(quad_steps, int) or isinstance(quad_steps, bool) or quad_steps < 16:
        raise ScenarioError("field 'scenario.quad_steps' must be an integer of at least 16")
    directions = doc.get("directions", 32)
    pos_dim = 3 if vehicle == "quadrotor" else 2
    plane = tuple(doc.get("plane", [0, 1]))
    control_plane = tuple(doc.get("control_plane", [0, 1]))
    method = doc.get("part1_method", "norm")
    if method not in ("norm", "scaled"):
        raise ScenarioError("field 'scenario.part1_method' must be 'norm' or 'scaled'")
    scal = doc.get("scalarization", {})
    k0 = float(scal.get("k0", 1.0))
    shrink = float(scal.get("shrink", 0.8))
    max_iters = int(scal.get("max_iters", 20))
    margins = doc.get("margins", {})
    margin1 = margins.get("part1_m", None)
    margin1 = None if margin1 is None else float(margin1)
    margin2 = float(margins.get("part2_m", 0.0))
    planes = _need(doc, "aircraft", list, "scenario")
    if len(planes) != 2:
        raise ScenarioError("field 'scenario.aircraft' must list exactly two aircraft")
    state_dim = 10 if vehicle == "quadrotor" else 6
    crafts = []
    for i, entry in enumerate(planes):
        where = f"aircraft[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"field '{where}' must be an object")
        ident = _need(entry, "id", str, where)
        position = _vec(entry, "initial_position_m", pos_dim, where)
        velocity = _vec(entry, "initial_velocity_mps", pos_dim, where)
        params = _need(entry, "params", dict, where)
        iset = _need(entry, "initial_set", dict, where)
        cset = _need(entry, "control_set", dict, where)
        dist = None
        if "disturbance_set" in entry:
            dist = _vec(entry["disturbance_set"], "state_rate_radii", state_dim,
                        f"{where}.disturbance_set")
        crafts.append(AircraftConfig(ident, position, velocity, params, iset, cset, dist))
    # validate vehicle-specific blocks by building them once
    scenario = Scenario(name, vehicle, d, horizon, grid_step, quad_steps, directions,
                        plane, control_plane, method, k0, shrink, max_iters,
                        margin1, margin2, (crafts[0], crafts[1]))
    for i in range(2):
        build_system(scenario, i)
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
    n = 10 if scenario.vehicle == "quadrotor" else 6
    k = 3 if scenario.vehicle == "quadrotor" else 2
    return np.eye(n)[:k]


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
            theta_star=float(ac.params.get("pitch_trim_rad", 0.0)),
            w_star=float(ac.params.get("heave_trim_mps", 0.0)),
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
    if scenario.vehicle == "quadrotor":
        pr = _need(ac.initial_set, "position_radius_m", float, where)
        vr = _need(ac.initial_set, "velocity_radius_mps", float, where)
        ar = float(ac.initial_set.get("attitude_radius_rad", 0.0))
        rr = float(ac.initial_set.get("rate_radius_radps", 0.0))
        center = np.zeros(10)
        center[0:3] = ac.position
        center[3:6] = ac.velocity
        radii = [pr] * 3 + [vr] * 3 + [ar] * 2 + [rr] * 2
        return Ellipsoid(center, np.diag(np.square(radii)))
    pr = _need(ac.initial_set, "position_radius_m", float, where)
    vr = _need(ac.initial_set, "velocity_radius_mps", float, where)
    ar = float(ac.initial_set.get("attitude_radius_rad", 0.01))
    radii = [pr, pr, vr, vr, ar, ar]
    # fixed-wing states are deviations from trim; the cruise line lives in
    # the center offset, so the deviation set is centered at zero
    return Ellipsoid(np.zeros(6), np.diag(np.square(radii)))


def _control_ellipsoid(scenario: Scenario, i: int) -> Ellipsoid:
    ac = scenario.aircraft[i]
    where = f"aircraft[{i}].control_set"
    if scenario.vehicle == "quadrotor":
        tr = _need(ac.control_set, "thrust_radius_n", float, where)
        qr = _need(ac.control_set, "torque_radius_nm", float, where)
        return Ellipsoid(np.zeros(3), np.diag([tr**2, qr**2, qr**2]))
    er = _need(ac.control_set, "elevator_radius_rad", float, where)
    tr = _need(ac.control_set, "throttle_radius", float, where)
    return Ellipsoid(np.zeros(2), np.diag([er**2, tr**2]))


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
    rate = np.zeros(6)
    rate[0] = ac.velocity[0]
    rate[1] = ac.velocity[1]
    x0 = np.zeros(6)
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

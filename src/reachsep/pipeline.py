"""End-to-end scenario runner: load, synthesize, verify, serialize.

The run is the full two-phase pipeline: estimate the encounter from the
nominal trajectories, report the initial (unshrunk) overlap, shrink B's
control set, build B's inflated safe set, fit A's control set, then verify
separation over the whole output grid.  Every artifact is written even when
the verification fails; the exit code carries the verdict:

    0  pipeline complete and grid-wide separation holds
    1  structural infeasibility (no control-set pair can work)
    2  pipeline complete but the verification found a violation
    3  malformed scenario or inconsistent configuration
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .montecarlo import sample_trajectories
from .reachability import ReachSpec, disturbance_contribution, reach_tube, separation
from .scenario import (
    Scenario,
    ScenarioError,
    build_nominal,
    build_spec,
    load_document,
    position_projection,
    scenario_from_dict,
)
from .synthesis import (
    EncounterGeometry,
    JointInfeasibilityError,
    estimate_encounter,
    safe_set,
    scalarization_loop,
)

# not called here, but importable as pipeline.<name> for the perfbench trace
from .reachability import reach_support  # noqa: F401
from .scenario import load_scenario  # noqa: F401

SEP_TOL = 1e-6


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def plane_directions(scenario: Scenario, pos_dim: int) -> np.ndarray:
    """Evenly spaced unit directions in the scenario's rendering plane."""
    n = scenario.directions
    if n <= 0:
        return np.zeros((0, pos_dim))
    angles = 2.0 * np.pi * np.arange(n) / n
    dirs = np.zeros((n, pos_dim))
    dirs[:, scenario.plane[0]] = np.cos(angles)
    dirs[:, scenario.plane[1]] = np.sin(angles)
    return dirs


def _write_tubes_csv(path: Path, dirs, tubes: dict) -> None:
    """One row per (aircraft, time, direction); dirs are the plane directions."""
    d3 = np.zeros((dirs.shape[0], 3))
    d3[:, :dirs.shape[1]] = dirs
    lines = ["aircraft,t_s,dir_index,dir_x,dir_y,dir_z,support_value"]
    for aircraft, tube in tubes.items():
        for t, vals in zip(tube.times, tube.support_values):
            lines += [f"{aircraft},{_fmt(t)},{j},{_fmt(d[0])},{_fmt(d[1])},{_fmt(d[2])},{_fmt(v)}"
                      for j, (d, v) in enumerate(zip(d3, vals))]
    path.write_text("\n".join(lines) + "\n")


def _apply_overrides(doc: dict, overrides: dict) -> dict:
    """The scenario document with the run's overrides merged in."""
    doc = dict(doc)
    if overrides.get("k0") is not None:
        doc["scalarization"] = {**doc.get("scalarization", {}), "k0": float(overrides["k0"])}
    for key, field, kind in [("method", "part1_method", str), ("directions", "directions", int),
                             ("quad_steps", "quad_steps", int), ("grid_step", "grid_step_s", float)]:
        if overrides.get(key) is not None:
            doc[field] = kind(overrides[key])
    return doc


def verify_monte_carlo(specA: ReachSpec, specB: ReachSpec, P, t_grid, dirs,
                       tube_vals_A, tube_vals_B, d: float, n_samples: int,
                       seed: int = 0) -> dict:
    """Sampled-trajectory falsification of the reported tubes.

    Draws n_samples extremal trajectories per aircraft, then reports the
    worst tube-halfspace violation and the minimum pairwise distance over
    the grid.  Disturbance sets are ignored during sampling (the samples
    remain admissible trajectories).
    """
    base_A = dataclasses.replace(specA, V=None) if specA.V is not None else specA
    base_B = dataclasses.replace(specB, V=None) if specB.V is not None else specB
    trA = sample_trajectories(base_A, t_grid, n_samples, seed=seed)
    trB = sample_trajectories(base_B, t_grid, n_samples, seed=seed + 1)
    worst_violation = -np.inf
    min_pairwise = np.inf
    k = P.shape[0]
    for i in range(len(t_grid)):
        posA = trA[:, i, :] @ P.T
        posB = trB[:, i, :] @ P.T
        if dirs.shape[0]:
            worst_violation = max(worst_violation,
                                  float((posA @ dirs.T - tube_vals_A[i]).max()),
                                  float((posB @ dirs.T - tube_vals_B[i]).max()))
        tree = cKDTree(posB)
        min_pairwise = min(min_pairwise, float(tree.query(posA, k=1)[0].min()))
    return {
        "samples_per_aircraft": n_samples,
        "seed": seed,
        "worst_halfspace_violation": worst_violation if np.isfinite(worst_violation) else None,
        "min_pairwise_distance_m": min_pairwise,
        "tube_ok": (not np.isfinite(worst_violation)) or worst_violation <= 1e-6,
        "pairwise_ok": min_pairwise >= d - 1e-3,
    }


def run(scenario_path, out_dir, overrides: dict | None = None) -> int:
    """Full two-phase pipeline; returns the process exit code."""
    overrides = dict(overrides or {})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        scenario = scenario_from_dict(_apply_overrides(load_document(scenario_path), overrides))
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 3
    seed = int(overrides.get("seed", 0))
    _write_json(out / "scenario.json", _jsonable(scenario.to_dict()))

    P = position_projection(scenario)
    pos_dim = P.shape[0]
    nomA = build_nominal(scenario, 0)
    nomB = build_nominal(scenario, 1)
    geom = estimate_encounter(nomA, nomB, P, scenario.d)
    center_gap = float(np.linalg.norm(P @ geom.c_A_tau - P @ nomB.state_at(geom.tau)))
    _write_json(out / "encounter.json", _jsonable({
        "tau_s": geom.tau,
        "l_star": P @ geom.l_star,
        "center_distance_m": center_gap,
        "required_separation_m": scenario.d,
    }))
    if scenario.horizon < geom.tau - 1e-12:
        print(f"scenario error: field 'scenario.horizon_s' ({scenario.horizon}) is "
              f"shorter than the encounter time {geom.tau}", file=sys.stderr)
        return 3

    specA = build_spec(scenario, 0)
    specB = build_spec(scenario, 1)
    t_grid = np.arange(0.0, scenario.horizon + 1e-9, scenario.grid_step)
    dirs = plane_directions(scenario, pos_dim)
    state_dirs = dirs @ P
    if dirs.shape[0] == 0:
        print("warning: empty direction set, tube files will have no rows", file=sys.stderr)

    # phase zero: initial tubes and the overlap report
    _write_tubes_csv(out / "tubes_initial.csv", dirs,
                     {"A": reach_tube(specA, t_grid, state_dirs),
                      "B": reach_tube(specB, t_grid, state_dirs)})
    overlap = separation(specA, specB, geom.tau, P)
    sep0 = overlap.value
    _write_json(out / "overlap.json", _jsonable({
        "separation_at_tau_m": sep0,
        "direction": overlap.direction,
        "certified": overlap.certified,
        "duality_gap_m": overlap.gap,
        "required_separation_m": scenario.d,
        "overlaps": bool(sep0 < scenario.d),
    }))
    print(f"encounter: tau = {geom.tau:.3f} s, center gap {center_gap:.3f} m; "
          f"initial separation {sep0:.3f} m (required {scenario.d:.3f} m)")

    # disturbances are handled as extra required separation, not in synthesis;
    # the copies keep their system, and with it its grids
    synA = dataclasses.replace(specA, V=None)
    synB = dataclasses.replace(specB, V=None)
    d_eff = scenario.d
    if specA.V is not None:
        d_eff += disturbance_contribution(specA, geom.tau, -geom.l_star)
    if specB.V is not None:
        d_eff += disturbance_contribution(specB, geom.tau, geom.l_star)
    geom_eff = EncounterGeometry(geom.tau, geom.l_star, d_eff, geom.c_A_tau)

    try:
        solB, solA, k_used, diags = scalarization_loop(
            synA, synB, geom_eff, P, method=scenario.method, k0=scenario.k0,
            shrink=scenario.shrink, margin1=scenario.margin1,
            margin2=scenario.margin2, max_iters=scenario.max_iters)
    except JointInfeasibilityError as exc:
        _write_json(out / "diagnostics.json", _jsonable({
            "status": "infeasible",
            "iterations": exc.diagnostics,
        }))
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    print(f"synthesis done at k = {k_used:.6g} "
          f"(phase-one distance {solB.distance:.3f} m)")

    shrunkA = dataclasses.replace(specA, U=solA.control_set())
    shrunkB = dataclasses.replace(specB, U=solB.control_set())
    safeB = safe_set(synB.with_control(solB.control_set()), geom.tau, d_eff,
                     geom.l_star, P)

    sol_doc = {"method": scenario.method, "k_used": k_used,
               "margins": {"part1_m": scenario.margin1 if scenario.margin1 is not None
                           else 0.5 * d_eff, "part2_m": scenario.margin2},
               "d_effective_m": d_eff,
               "safe_set": {"center": safeB.center, "shape": safeB.shape},
               "iterations": diags, "aircraft": {}}
    for name, sol, spec in [("A", solA, specA), ("B", solB, specB)]:
        sol_doc["aircraft"][name] = {
            "q": sol.q, "Q": sol.Q, "lambda": sol.lam, "r": sol.r,
            "objective": sol.objective, "distance_m": sol.distance,
            "kkt_residual": sol.kkt_residual, "status": sol.status,
            "newton_steps": sol.newton_steps, "barrier_mu_final": sol.barrier_mu_final,
            "stage_objectives": sol.stage_objectives,
            "original_control_center": spec.U.center,
            "original_control_shape": spec.U.shape,
        }
    _write_json(out / "solution.json", _jsonable(sol_doc))

    tubes = {"A": reach_tube(shrunkA, t_grid, state_dirs),
             "B": reach_tube(shrunkB, t_grid, state_dirs)}
    _write_tubes_csv(out / "tubes.csv", dirs, tubes)

    sep_lines = ["t_s,separation_m," + ",".join(f"l_{c}" for c in "xyz"[:pos_dim])]
    seps = [separation(shrunkA, shrunkB, t, P) for t in t_grid]
    sep_lines += [f"{_fmt(t)},{_fmt(sep.value)}," + ",".join(_fmt(v) for v in sep.direction)
                  for t, sep in zip(t_grid, seps)]
    (out / "separation.csv").write_text("\n".join(sep_lines) + "\n")
    min_sep = min(sep.value for sep in seps)
    max_gap = max(sep.gap for sep in seps)
    _write_json(out / "verification.json", _jsonable({
        "min_separation_m": min_sep,
        "grid_times": len(t_grid),
        "max_duality_gap_m": max_gap,
        "uncertified_times": [t for t, sep in zip(t_grid, seps) if not sep.certified],
    }))
    safe = min_sep >= scenario.d - SEP_TOL
    print(f"verification: min separation {min_sep:.4f} m over {len(t_grid)} grid times, "
          f"max duality gap {max_gap:.1e} m ({'ok' if safe else 'VIOLATION'})")

    if overrides.get("verify_mc"):
        n_mc = int(overrides["verify_mc"])
        mc = verify_monte_carlo(shrunkA, shrunkB, P, t_grid, dirs, tubes["A"].support_values,
                                tubes["B"].support_values, scenario.d, n_mc, seed=seed)
        _write_json(out / "mc.json", _jsonable(mc))
        print(f"monte carlo: min pairwise {mc['min_pairwise_distance_m']:.4f} m, "
              f"tube ok {mc['tube_ok']}, pairwise ok {mc['pairwise_ok']}")
        safe = safe and mc["tube_ok"] and mc["pairwise_ok"]

    if overrides.get("plots"):
        from .plots import emit_plots
        emit_plots(out)

    return 0 if safe else 2

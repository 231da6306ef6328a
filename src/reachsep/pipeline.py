"""End-to-end scenario runner: load, synthesize, verify, serialize.

The run is the full two-phase pipeline: estimate the encounter from the
nominal trajectories, report the initial (unshrunk) overlap, shrink B's
control set, build B's inflated safe set, fit A's control set, then verify
separation over the whole output grid.  Every artifact is written even when
the verification fails; the exit code carries the verdict:

    0  pipeline complete and grid-wide separation holds
    1  structural infeasibility (no control-set pair can work)
    2  pipeline complete but the verification found a violation
    3  malformed scenario, inconsistent configuration, or no encounter to
       resolve (aircraft closest at the start, or with coincident centers)
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .montecarlo import sample_trajectories
from .distance import separation, separations
from .reachability import ReachSpec, disturbance_contribution, reach_tube
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
    DegenerateGeometryError,
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


def _write_json(path: Path, obj) -> None:
    # numpy arrays become lists and numpy scalars Python values
    text = json.dumps(obj, indent=2, sort_keys=True, default=lambda v: v.tolist())
    path.write_text(text + "\n")


def plane_directions(scenario: Scenario, pos_dim: int) -> np.ndarray:
    """Evenly spaced unit directions in the scenario's rendering plane."""
    n = scenario.directions
    angles = 2.0 * np.pi * np.arange(n) / n
    dirs = np.zeros((n, pos_dim))
    dirs[:, scenario.plane[0]] = np.cos(angles)
    dirs[:, scenario.plane[1]] = np.sin(angles)
    return dirs


def _write_tubes_csv(path: Path, dirs, tubes: dict) -> None:
    """One row per (aircraft, time, direction); dirs are the plane directions.
    Numbers are written as %.9g.  The columns fixed per direction and per
    time are formatted once, and each aircraft's support values by one
    %-operation on a template of its rows."""
    d3 = np.zeros((dirs.shape[0], 3))
    d3[:, :dirs.shape[1]] = dirs
    cells = ["%d,%.9g,%.9g,%.9g,%%.9g\n" % (j, *d) for j, d in enumerate(d3)]
    text = "aircraft,t_s,dir_index,dir_x,dir_y,dir_z,support_value\n"
    for aircraft, tube in tubes.items():
        heads = ["%s,%.9g," % (aircraft, t) for t in tube.times]
        rows = "".join([head + cell for head in heads for cell in cells])
        text += rows % tuple(tube.support_values.ravel().tolist())
    path.write_text(text)


def _slab_gap(l, pA, pB) -> float:
    """min_a <l, a> - max_b <l, b> over the columns of pA and pB (k, n): for
    a unit l, a lower bound on min ||a - b||, since <l, a - b> <= ||a - b||."""
    return float((l @ pA).min() - (l @ pB).max())


def verify_monte_carlo(specA: ReachSpec, specB: ReachSpec, P, t_grid, dirs,
                       tube_vals_A, tube_vals_B, seps, d: float, n_samples: int,
                       seed: int = 0) -> dict:
    """Sampled-trajectory falsification of the reported tubes and of the
    separation certificate.

    Draws n_samples extremal trajectories per aircraft and checks, at each
    grid time t_j, the tube halfspaces and the separation seps[j] (value_j
    at the unit direction l_j).  Every pair of samples obeys
    ||a - b|| >= <l_j, a> - <l_j, b>, so the samples' slab gap
    slab_j = min_a <l_j, a> - max_b <l_j, b> bounds their pairwise minimum
    from below, and pairwise_ok reads min_j slab_j.  The samples are
    reachable states, so slab_j >= g(l_j) = value_j up to quadrature error;
    certificate_ok is false when some time falls short by more than the
    1e-3 m tolerance pairwise_ok uses, and the time of the smallest
    slab_j - value_j is reported with it.  Disturbance sets are dropped
    while sampling; they are centered at the origin, so dropping one only
    shrinks every support value, and the samples stay inside the disturbed
    sets that value_j describes.  Positions stay in the sampler's
    coordinate-major (T, k, n_samples) buffers, 8 T k n_samples bytes per
    aircraft, and every time's check reads its contiguous (k, n_samples)
    slices: one product dirs @ p per aircraft for the tubes, written into
    one (D, n_samples) buffer for the whole check, and one l_j @ p per
    aircraft for the slab.
    """
    base_A = dataclasses.replace(specA, V=None) if specA.V is not None else specA
    base_B = dataclasses.replace(specB, V=None) if specB.V is not None else specB
    # allocated before the samples: peak RSS follows glibc's heap layout, and
    # in this order quad_pair's peak read ~0.5 MB lower (2-core Linux host)
    heights = np.empty((dirs.shape[0], n_samples))
    posA, posB = (sample_trajectories(base, t_grid, n_samples, seed=seed + j, P=P)
                  .transpose(1, 2, 0) for j, base in enumerate((base_A, base_B)))
    worst_violation, min_slab, min_excess, excess_time = -np.inf, np.inf, np.inf, None
    for t, pA, pB, vals_A, vals_B, sep in zip(t_grid, posA, posB, tube_vals_A, tube_vals_B, seps):
        if dirs.shape[0]:
            for p, vals in ((pA, vals_A), (pB, vals_B)):
                # max_j fl(a_j - c) = fl(max_j a_j - c): rounding is monotone
                violation = float((np.matmul(dirs, p, out=heights).max(axis=1) - vals).max())
                worst_violation = max(worst_violation, violation)
        slab = _slab_gap(sep.direction, pA, pB)
        min_slab = min(min_slab, slab)
        if slab - sep.value < min_excess:
            min_excess, excess_time = slab - sep.value, float(t)
    return {
        "samples_per_aircraft": n_samples,
        "seed": seed,
        "worst_halfspace_violation": worst_violation if np.isfinite(worst_violation) else None,
        "min_slab_gap_m": min_slab,
        "min_certificate_excess_m": min_excess,
        "certificate_excess_time_s": excess_time,
        "tube_ok": (not np.isfinite(worst_violation)) or worst_violation <= 1e-6,
        "pairwise_ok": min_slab >= d - 1e-3,
        "certificate_ok": min_excess >= -1e-3,
    }


def _count_option(overrides: dict, key: str) -> int:
    """overrides[key] as a non-negative integer; 0 when not given."""
    v = overrides.get(key)
    if v is None:
        return 0
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 0:
        raise ScenarioError(f"option '{key}' must be a non-negative integer, got {v!r}")
    return int(v)


def run(scenario_path, out_dir, overrides: dict | None = None) -> int:
    """Full two-phase pipeline; returns the process exit code."""
    overrides = dict(overrides or {})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        seed = _count_option(overrides, "seed")
        n_mc = _count_option(overrides, "verify_mc")
        scenario = scenario_from_dict(load_document(scenario_path), overrides)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 3
    _write_json(out / "scenario.json", scenario.to_dict())

    P = position_projection(scenario)
    pos_dim = P.shape[0]
    nomA = build_nominal(scenario, 0)
    nomB = build_nominal(scenario, 1)
    try:
        geom = estimate_encounter(nomA, nomB, P, scenario.d)
    except DegenerateGeometryError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 3
    center_gap = float(np.linalg.norm(P @ geom.c_A_tau - P @ nomB.state_at(geom.tau)))
    _write_json(out / "encounter.json", {
        "tau_s": geom.tau,
        "l_star": P @ geom.l_star,
        "center_distance_m": center_gap,
        "required_separation_m": scenario.d,
    })
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
    _write_json(out / "overlap.json", {
        "separation_at_tau_m": sep0,
        "direction": overlap.direction,
        "certified": overlap.certified,
        "duality_gap_m": overlap.gap,
        "required_separation_m": scenario.d,
        "overlaps": bool(sep0 < scenario.d),
    })
    print(f"encounter: tau = {geom.tau:.3f} s, center gap {center_gap:.3f} m; "
          f"initial separation {sep0:.3f} m (required {scenario.d:.3f} m)")

    # disturbances are handled as extra required separation, not in synthesis
    synA = build_spec(scenario, 0, with_disturbance=False)
    synB = build_spec(scenario, 1, with_disturbance=False)
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
        _write_json(out / "diagnostics.json", {
            "status": "infeasible",
            "iterations": exc.diagnostics,
        })
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    print(f"synthesis done at k = {k_used:.6g} "
          f"(phase-one distance {solB.distance:.3f} m)")

    shrunkA = dataclasses.replace(specA, U=solA.control_set())
    shrunkB = dataclasses.replace(specB, U=solB.control_set())
    safeB = safe_set(dataclasses.replace(synB, U=solB.control_set()), geom.tau, d_eff,
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
    _write_json(out / "solution.json", sol_doc)

    tubes = {"A": reach_tube(shrunkA, t_grid, state_dirs),
             "B": reach_tube(shrunkB, t_grid, state_dirs)}
    _write_tubes_csv(out / "tubes.csv", dirs, tubes)

    sep_lines = ["t_s,separation_m," + ",".join(f"l_{c}" for c in "xyz"[:pos_dim])]
    seps = separations(shrunkA, shrunkB, t_grid, P)
    sep_row = ",".join(["%.9g"] * (2 + pos_dim))
    sep_lines += [sep_row % (t, sep.value, *sep.direction) for t, sep in zip(t_grid, seps)]
    (out / "separation.csv").write_text("\n".join(sep_lines) + "\n")
    min_sep = min(sep.value for sep in seps)
    max_gap = max(sep.gap for sep in seps)
    _write_json(out / "verification.json", {
        "min_separation_m": min_sep,
        "grid_times": len(t_grid),
        "max_duality_gap_m": max_gap,
        "uncertified_times": [t for t, sep in zip(t_grid, seps) if not sep.certified],
    })
    safe = min_sep >= scenario.d - SEP_TOL
    print(f"verification: min separation {min_sep:.4f} m over {len(t_grid)} grid times, "
          f"max duality gap {max_gap:.1e} m ({'ok' if safe else 'VIOLATION'})")

    if n_mc:
        mc = verify_monte_carlo(shrunkA, shrunkB, P, t_grid, dirs, tubes["A"].support_values,
                                tubes["B"].support_values, seps, scenario.d, n_mc, seed=seed)
        _write_json(out / "mc.json", mc)
        print(f"monte carlo: min slab gap {mc['min_slab_gap_m']:.4f} m, "
              f"tube ok {mc['tube_ok']}, pairwise ok {mc['pairwise_ok']}, "
              f"certificate ok {mc['certificate_ok']}")
        safe = safe and mc["tube_ok"] and mc["pairwise_ok"] and mc["certificate_ok"]

    if overrides.get("plots"):
        from .plots import emit_plots
        emit_plots(out)

    return 0 if safe else 2

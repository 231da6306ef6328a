import dataclasses
import importlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reachsep
from reachsep import distance, pipeline, reachability
from reachsep.cli import main
from reachsep.convex import GAP_TOL
from reachsep.ellipsoid import Ellipsoid
from reachsep.montecarlo import sample_trajectories
from reachsep.pipeline import SEP_TOL, plane_directions, run, verify_monte_carlo
from reachsep.plots import MissingArtifactError, _read_tubes, emit_plots
from reachsep.distance import GAP_REL, separation, separations
from reachsep.reachability import disturbance_contribution, reach_support, reach_tube
from reachsep.scenario import (
    _FIELDS,
    _VEHICLES,
    ScenarioError,
    build_nominal,
    build_spec,
    builtin_scenario_path,
    load_scenario,
    position_projection,
    scenario_from_dict,
)
from reachsep.synthesis import (JointInfeasibilityError, estimate_encounter, safe_set,
                                 scalarization_loop)

FAST = {"grid_step": 0.5, "quad_steps": 64, "directions": 8}


@pytest.fixture(scope="module")
def quad_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("quad_run")
    code = run(builtin_scenario_path("quadrotor_pair"), out,
               {**FAST, "plots": True, "verify_mc": 500})
    return code, out


def test_quadrotor_run_exits_zero(quad_run):
    code, out = quad_run
    assert code == 0
    for name in ["scenario.json", "encounter.json", "overlap.json", "solution.json",
                 "tubes_initial.csv", "tubes.csv", "separation.csv", "mc.json"]:
        assert (out / name).exists(), name


def test_encounter_artifact(quad_run):
    _, out = quad_run
    enc = json.loads((out / "encounter.json").read_text())
    assert enc["tau_s"] == pytest.approx(4.0, abs=0.5)
    assert enc["center_distance_m"] == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(enc["l_star"], [0.0, 1.0, 0.0], atol=1e-9)


def test_overlap_artifact(quad_run):
    _, out = quad_run
    overlap = json.loads((out / "overlap.json").read_text())
    assert overlap["overlaps"] is True
    assert overlap["separation_at_tau_m"] < 1.0


# the multistart ascent's overlap values at FAST fidelity, before the inner hull
ASCENT_OVERLAP_M = {"quadrotor_pair": -4.862961377093215, "fixedwing_pair": -89.03549860410496}


@pytest.mark.parametrize("name", sorted(ASCENT_OVERLAP_M))
def test_overlap_certified_matches_ascent(tmp_path, name):
    assert run(builtin_scenario_path(name), tmp_path, FAST) == 0
    overlap = json.loads((tmp_path / "overlap.json").read_text())
    ascent = ASCENT_OVERLAP_M[name]
    assert overlap["certified"] is True
    assert -1e-12 <= overlap["duality_gap_m"] <= GAP_REL * abs(ascent)
    assert overlap["separation_at_tau_m"] == pytest.approx(ascent, abs=GAP_REL * abs(ascent))


def test_solution_artifact(quad_run):
    _, out = quad_run
    sol = json.loads((out / "solution.json").read_text())
    assert sol["method"] == "norm"
    assert sol["k_used"] == pytest.approx(1.0)
    for name in ("A", "B"):
        ac = sol["aircraft"][name]
        # the solver's keys are the fields of convex.SolveResult but its values
        assert set(ac) == {"q", "Q", "lambda", "r", "distance_m", "original_control_center",
                           "original_control_shape", "objective", "dual_bound",
                           "optimality_gap", "kkt_residual", "status", "newton_steps",
                           "barrier_mu_final", "stage_objectives", "stage_steps"}
        # each solve is certified by its dual bound, whose stationarity
        # residual is at rounding level
        assert ac["status"] == "optimal"
        assert ac["dual_bound"] - ac["objective"] == ac["optimality_gap"]
        assert 0.0 < ac["optimality_gap"] <= GAP_TOL * max(1.0, abs(ac["objective"]))
        assert ac["kkt_residual"] <= 1e-12
        assert 0.0 < ac["lambda"] <= 1.0
        assert ac["newton_steps"] > 0
        assert ac["barrier_mu_final"] >= 1.0
        assert len(ac["stage_objectives"]) >= 1
        assert len(ac["stage_steps"]) == len(ac["stage_objectives"])
        assert sum(ac["stage_steps"]) == ac["newton_steps"]
        Q = np.array(ac["Q"])
        assert np.allclose(Q, Q.T)


def test_csv_formats(quad_run):
    _, out = quad_run
    tubes = (out / "tubes.csv").read_text().splitlines()
    assert tubes[0] == "aircraft,t_s,dir_index,dir_x,dir_y,dir_z,support_value"
    assert len(tubes) == 1 + 2 * 9 * 8  # two aircraft, nine times, eight directions
    sep = (out / "separation.csv").read_text().splitlines()
    assert sep[0] == "t_s,separation_m,l_x,l_y,l_z"
    vals = np.array([[float(v) for v in r.split(",")] for r in sep[1:]])
    assert (vals[:, 1] >= 1.0 - 1e-6).all()


def test_tubes_csv_matches_reach_support(quad_run):
    _, out = quad_run
    scen = scenario_from_dict(json.loads((out / "scenario.json").read_text()))
    sol = json.loads((out / "solution.json").read_text())["aircraft"]
    P = position_projection(scen)
    rows = (out / "tubes.csv").read_text().splitlines()[1:]
    for row in rows[::23]:
        name, t, _, dx, dy, dz, value = row.split(",")
        i = "AB".index(name)
        Q = np.array(sol[name]["Q"])
        spec = dataclasses.replace(build_spec(scen, i), U=Ellipsoid(np.array(sol[name]["q"]), Q @ Q))
        l = np.array([float(dx), float(dy), float(dz)])
        assert float(value) == pytest.approx(reach_support(spec, float(t), P.T @ l), rel=1e-8)


def disturbed_quad_doc() -> dict:
    # the bundled quadrotors with a velocity-rate disturbance on both
    doc = json.loads(builtin_scenario_path("quadrotor_pair").read_text())
    for entry in doc["aircraft"]:
        entry["disturbance_set"] = {"state_rate_radii": [0, 0, 0, 1e-3, 1e-3, 1e-3, 0, 0, 0, 0]}
    return doc


def test_disturbed_quadrotor_run(tmp_path):
    # the synthesis asks for d plus each aircraft's disturbance term at
    # (tau, -+l*), the tubes are the disturbed shrunk sets, and a second run
    # writes the same bytes
    path = tmp_path / "disturbed.json"
    path.write_text(json.dumps(disturbed_quad_doc()))
    out, again = tmp_path / "out", tmp_path / "again"
    assert run(path, out) == 0
    assert run(path, again) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (again / name).read_bytes(), name

    scen = scenario_from_dict(json.loads((out / "scenario.json").read_text()))
    P = position_projection(scen)
    geom = estimate_encounter(build_nominal(scen, 0), build_nominal(scen, 1), P, scen.d)
    specs = [build_spec(scen, i) for i in (0, 1)]
    assert all(spec.V is not None for spec in specs)
    sol = json.loads((out / "solution.json").read_text())
    d_eff = (scen.d + disturbance_contribution(specs[0], geom.tau, -geom.l_star)
             + disturbance_contribution(specs[1], geom.tau, geom.l_star))
    assert d_eff > scen.d
    assert sol["d_effective_m"] == d_eff
    assert json.loads((out / "verification.json").read_text())["uncertified_times"] == []
    # the reported safe set is B's disturbance-free shrunk set inflated by d_eff
    Q = np.array(sol["aircraft"]["B"]["Q"])
    safeB = safe_set(dataclasses.replace(
        build_spec(scen, 1, with_disturbance=False),
        U=Ellipsoid(np.array(sol["aircraft"]["B"]["q"]), Q @ Q)), geom.tau, d_eff, geom.l_star, P)
    assert np.array_equal(sol["safe_set"]["center"], safeB.center)
    assert np.array_equal(sol["safe_set"]["shape"], safeB.shape)

    shrunk = {}
    for name, spec in zip("AB", specs):
        Q = np.array(sol["aircraft"][name]["Q"])
        shrunk[name] = dataclasses.replace(
            spec, U=Ellipsoid(np.array(sol["aircraft"][name]["q"]), Q @ Q))
    # the exact directions: some support values are near 0, where the
    # 9-digit direction cells alone move them by more than 1e-8 relative
    dirs = plane_directions(scen, P.shape[0]) @ P
    rows = (out / "tubes.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 * 41 * 32
    for row in rows:
        name, t, j, _, _, _, value = row.split(",")
        rho = reach_support(shrunk[name], float(t), dirs[int(j)])
        assert float(value) == pytest.approx(rho, rel=1e-8)


def test_verification_artifact(quad_run):
    _, out = quad_run
    ver = json.loads((out / "verification.json").read_text())
    seps = [float(row.split(",")[1])
            for row in (out / "separation.csv").read_text().splitlines()[1:]]
    assert ver["grid_times"] == len(seps)
    assert ver["min_separation_m"] == pytest.approx(min(seps), rel=1e-8)
    assert ver["uncertified_times"] == []
    assert -1e-12 <= ver["max_duality_gap_m"] <= SEP_TOL


def test_grid_ends_at_the_horizon(tmp_path):
    # 0.3 s does not divide the 10 s horizon: the grid takes 34 whole steps
    # of 10/34 s, so tau = 10 s, the instant synthesis constrains, is verified
    assert run(builtin_scenario_path("fixedwing_pair"), tmp_path, {**FAST, "grid_step": 0.3}) == 0
    ver = json.loads((tmp_path / "verification.json").read_text())
    rows = (tmp_path / "separation.csv").read_text().splitlines()[1:]
    assert ver["grid_times"] == len(rows) == 35
    assert float(rows[-1].split(",")[0]) == 10.0


def test_iteration_cap_recorded_as_uncertified(quad_run, tmp_path, monkeypatch, capsys):
    # with no steps allowed every grid time returns its first lower bound,
    # uncertified; a lower bound alone cannot verify the run
    monkeypatch.setattr(distance, "MNP_MAX_ITERS", 0)
    code = run(builtin_scenario_path("quadrotor_pair"), tmp_path, {**FAST, "grid_step": 2.0})
    assert code == 2
    ver = json.loads((tmp_path / "verification.json").read_text())
    assert ver["uncertified_times"] == [0.0, 2.0, 4.0]
    assert "max duality gap" in capsys.readouterr().out
    assert json.loads((tmp_path / "overlap.json").read_text())["certified"] is False
    # same synthesis, so each capped value sits below the certified one
    certified = {row.split(",")[0]: float(row.split(",")[1])
                 for row in (quad_run[1] / "separation.csv").read_text().splitlines()[1:]}
    for row in (tmp_path / "separation.csv").read_text().splitlines()[1:]:
        t, value = row.split(",")[:2]
        assert float(value) <= certified[t] + 1e-9, t


def test_monte_carlo_artifact(quad_run):
    _, out = quad_run
    mc = json.loads((out / "mc.json").read_text())
    assert mc["tube_ok"] and mc["pairwise_ok"] and mc["certificate_ok"]
    assert mc["min_slab_gap_m"] >= 1.0 - 1e-3


@pytest.fixture(scope="module")
def mc_check(quad_run):
    """verify_monte_carlo's arguments on the bundled quadrotor grid, for the
    control sets quad_run synthesized, with their grid separations."""
    scenario = load_scenario(builtin_scenario_path("quadrotor_pair"))
    sol = json.loads((quad_run[1] / "solution.json").read_text())["aircraft"]
    specs = []
    for i, name in enumerate("AB"):
        q, Q = np.array(sol[name]["q"]), np.array(sol[name]["Q"])
        specs.append(dataclasses.replace(build_spec(scenario, i), U=Ellipsoid(q, Q @ Q)))
    P = position_projection(scenario)
    t_grid = np.arange(0.0, scenario.horizon + 1e-9, scenario.grid_step)
    dirs = plane_directions(scenario, P.shape[0])
    vals = [reach_tube(spec, t_grid, dirs @ P).support_values for spec in specs]
    return (*specs, P, t_grid, dirs, *vals, separations(*specs, t_grid, P), scenario.d)


def full_state_slabs(specA, specB, P, t_grid, seps, n_samples, seed=0) -> tuple:
    """(positions of A, of B, slab gap per grid time) from whole sampled state
    arrays, projected afterwards: positions (T, n_samples, k)."""
    pos = [np.ascontiguousarray(np.swapaxes(
        sample_trajectories(spec, t_grid, n_samples, seed=seed + j) @ P.T, 0, 1))
        for j, spec in enumerate((specA, specB))]
    slabs = [float((a @ sep.direction).min() - (b @ sep.direction).max())
             for a, b, sep in zip(*pos, seps)]
    return (*pos, slabs)


def full_state_monte_carlo(specA, specB, P, t_grid, dirs, vals_A, vals_B, seps, d,
                           n_samples, seed=0) -> dict:
    """The check from whole sampled state arrays, projected afterwards."""
    posA, posB, slabs = full_state_slabs(specA, specB, P, t_grid, seps, n_samples, seed)
    worst = max(float((p[i] @ dirs.T - vals[i]).max())
                for p, vals in ((posA, vals_A), (posB, vals_B)) for i in range(len(t_grid)))
    excess = [slab - sep.value for slab, sep in zip(slabs, seps)]
    j = int(np.argmin(excess))
    return {"samples_per_aircraft": n_samples, "seed": seed,
            "worst_halfspace_violation": worst, "min_slab_gap_m": min(slabs),
            "min_certificate_excess_m": excess[j], "certificate_excess_time_s": float(t_grid[j]),
            "tube_ok": worst <= 1e-6, "pairwise_ok": min(slabs) >= d - 1e-3,
            "certificate_ok": excess[j] >= -1e-3}


@pytest.mark.parametrize("n_samples, seed", [
    pytest.param(500, 0, id="0"), pytest.param(500, 1, id="1"),
    # the benchmark's sample count
    pytest.param(10_000, 0, id="10000-0"), pytest.param(10_000, 1, id="10000-1")])
def test_monte_carlo_equals_full_state_check(mc_check, n_samples, seed):
    assert (verify_monte_carlo(*mc_check, n_samples, seed=seed)
            == full_state_monte_carlo(*mc_check, n_samples, seed=seed))


def test_monte_carlo_falsifies_a_raised_certificate(mc_check):
    # raising one grid time's certified value 2 mm above its samples' slab
    # falsifies the certificate at that time, and only there
    specA, specB, P, t_grid = mc_check[:4]
    seps = mc_check[7]
    j = 17
    slab = full_state_slabs(specA, specB, P, t_grid, seps, 500)[2][j]
    raised = list(seps)
    raised[j] = dataclasses.replace(seps[j], value=slab + 2e-3)
    mc = verify_monte_carlo(*mc_check[:7], raised, *mc_check[8:], 500)
    assert not mc["certificate_ok"]
    assert mc["certificate_excess_time_s"] == t_grid[j]
    assert mc["min_certificate_excess_m"] == pytest.approx(-2e-3, abs=1e-12)
    assert mc["tube_ok"] and mc["pairwise_ok"]
    assert verify_monte_carlo(*mc_check, 500)["certificate_ok"]


def monte_carlo_peak(mc_check, n_samples) -> int:
    """verify_monte_carlo's tracemalloc allocation peak, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        verify_monte_carlo(*mc_check, n_samples)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_monte_carlo_keeps_no_full_state_array(mc_check):
    # projected positions only: the check's allocation peak stays below one
    # aircraft's (n_samples, T, n) state array
    n_samples, t_grid = 500, mc_check[3]
    assert (monte_carlo_peak(mc_check, n_samples)
            < n_samples * t_grid.shape[0] * mc_check[0].system.state_dim * 8)


def test_monte_carlo_peak_stays_below_a_position_buffer(mc_check):
    # both aircraft are sampled in lockstep and no (T, k, N) position array
    # is kept: at the benchmark's sample count the peak read 8.8-9.5 MB,
    # where the two 9.84 MB position arrays kept before put it at 25.1-25.8 MB
    assert monte_carlo_peak(mc_check, 10_000) < 12e6


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_monte_carlo_fails_on_a_non_finite_tube_value(mc_check, value):
    # one support value at one time makes that time's violation NaN or +inf
    vals_A = mc_check[5].copy()
    vals_A[9, 4] = value
    mc = verify_monte_carlo(*mc_check[:5], vals_A, *mc_check[6:], 500)
    assert not mc["tube_ok"] and mc["worst_halfspace_violation"] is None
    assert mc["pairwise_ok"] and mc["certificate_ok"]
    json.dumps(mc, allow_nan=False)


def test_monte_carlo_fails_on_nan_directions(mc_check):
    # every slab and excess is NaN: no flag passes on them, and the first
    # grid time is reported with a null excess
    seps = [dataclasses.replace(sep, direction=np.full_like(sep.direction, np.nan))
            for sep in mc_check[7]]
    mc = verify_monte_carlo(*mc_check[:7], seps, *mc_check[8:], 500)
    assert mc["tube_ok"]
    assert not mc["pairwise_ok"] and not mc["certificate_ok"]
    assert mc["min_slab_gap_m"] is None and mc["min_certificate_excess_m"] is None
    assert mc["certificate_excess_time_s"] == 0.0
    json.dumps(mc, allow_nan=False)


@pytest.mark.parametrize("j", [0, 1, 20])
def test_monte_carlo_check_failure_is_raised_and_joins_the_samplers(mc_check, j):
    # a direction of the wrong length at grid time j fails its slab product;
    # the kept traceback holds the check's frame, so its samplers are not
    # collected, and they must hold no thread
    seps = list(mc_check[7])
    seps[j] = dataclasses.replace(seps[j], direction=seps[j].direction[:2])
    before = threading.active_count()
    with pytest.raises(ValueError) as raised:
        verify_monte_carlo(*mc_check[:7], seps, *mc_check[8:], 500)
    assert threading.active_count() == before
    assert raised.traceback


def test_plots_written(quad_run):
    _, out = quad_run
    for name in ["initial_tubes.svg", "final_tubes.svg", "control_sets.svg", "separation.svg"]:
        body = (out / name).read_text()
        assert body.startswith("<svg") and body.rstrip().endswith("</svg>")


@pytest.mark.parametrize("scenario", ["quadrotor_pair", "fixedwing_pair"])
def test_determinism(scenario, tmp_path):
    # fixed-wing is the only bundled path with a center offset and a 2-D hull
    out, out2 = tmp_path / "first", tmp_path / "again"
    for path in (out, out2):
        code = run(builtin_scenario_path(scenario), path,
                   {**FAST, "plots": True, "verify_mc": 500})
        assert code == 0
    for name in ["tubes.csv", "tubes_initial.csv", "separation.csv", "solution.json",
                 "encounter.json", "overlap.json", "mc.json", "verification.json",
                 "initial_tubes.svg", "final_tubes.svg", "control_sets.svg", "separation.svg"]:
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name


def test_exit_two_on_verified_unsafe(tmp_path):
    # dropping the phase-two clearance margin leaves a mid-horizon dip below
    # the requirement: the pipeline completes but verification fails
    doc = json.loads(builtin_scenario_path("quadrotor_pair").read_text())
    doc["margins"]["part2_m"] = 0.0
    path = tmp_path / "unsafe.json"
    path.write_text(json.dumps(doc))
    code = run(path, tmp_path / "out", FAST)
    assert code == 2
    assert (tmp_path / "out" / "separation.csv").exists()
    assert (tmp_path / "out" / "solution.json").exists()


def test_exit_one_on_structural_infeasibility(tmp_path):
    doc = json.loads(builtin_scenario_path("quadrotor_pair").read_text())
    for ac in doc["aircraft"]:
        ac["initial_set"]["position_radius_m"] = 0.6  # fatter than the clearance
        ac["control_set"]["torque_radius_nm"] = 1e-7
        ac["control_set"]["thrust_radius_n"] = 1e-7
    path = tmp_path / "impossible.json"
    path.write_text(json.dumps(doc))
    code = run(path, tmp_path / "out", FAST)
    assert code == 1
    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert diag["status"] == "infeasible"


def test_exit_three_on_schema_error(tmp_path, capsys):
    doc = json.loads(builtin_scenario_path("quadrotor_pair").read_text())
    del doc["aircraft"][1]["initial_position_m"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code = run(path, tmp_path / "out", {})
    assert code == 3
    assert "aircraft[1].initial_position_m" in capsys.readouterr().err


@pytest.mark.parametrize("case, message", [
    ("swapped_velocities", "closest at the first shared time (t = 0 s, center gap 1.67631 m)"),
    ("coincident_starts", "nominal centers coincide at closest approach (t = 0 s)"),
], ids=["swapped_velocities", "coincident_starts"])
def test_degenerate_encounter_exits_three(tmp_path, capsys, case, message):
    # aircraft that fly apart are closest at t = 0, and aircraft on one path
    # have no avoidance direction: neither has an encounter to resolve
    doc = json.loads(builtin_scenario_path("quadrotor_pair").read_text())
    a, b = doc["aircraft"]
    if case == "swapped_velocities":
        a["initial_velocity_mps"], b["initial_velocity_mps"] = (b["initial_velocity_mps"],
                                                                a["initial_velocity_mps"])
    else:
        b["initial_position_m"], b["initial_velocity_mps"] = (a["initial_position_m"],
                                                              a["initial_velocity_mps"])
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    assert run(path, tmp_path / "out", FAST) == 3
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and message in err, err
    assert not (tmp_path / "out" / "encounter.json").exists()


@pytest.mark.parametrize("flags, field", [
    (["--grid-step", "0"], "grid_step_s"),
    (["--grid-step", "-0.5"], "grid_step_s"),
    (["--quad-steps", "4"], "quad_steps"),
    (["--k", "0"], "scalarization.k0"),
    (["--k", "-1"], "scalarization.k0"),
    (["--grid-step", "9"], "grid_step_s"),  # longer than the 4 s horizon
    (["--verify-mc", "-3"], "'verify_mc'"),
    (["--seed", "-1"], "'seed'"),
    (["--directions", "-1"], "directions"),
    # past the bounds on the counts that size arrays: the quadrature nodes
    # per grid request, the tube reads and the Monte Carlo samples, alone and
    # times (grid times + directions)
    (["--grid-step", "4e-5"], "'scenario.grid_step_s'"),
    (["--quad-steps", "10000000"], "'scenario.quad_steps'"),
    (["--directions", "1000000000"], "'scenario.directions'"),
    (["--verify-mc", "1000000000"], "'verify_mc'"),
    (["--verify-mc", "100000"], "'verify_mc'"),
])
def test_cli_invalid_overrides_exit_three(tmp_path, capsys, flags, field):
    code = main(["run", str(builtin_scenario_path("quadrotor_pair")),
                 "--out", str(tmp_path / "out"), *flags])
    assert code == 3
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [
    ("verify_mc", 2.7), ("verify_mc", -1), ("verify_mc", "10"), ("verify_mc", True),
    ("seed", 0.5), ("seed", -2),
])
def test_run_count_options_must_be_non_negative_integers(tmp_path, capsys, option, value):
    # checked before any work: nothing is written and the error names the option
    assert run(builtin_scenario_path("quadrotor_pair"), tmp_path, {option: value}) == 3
    assert f"option '{option}' must be a non-negative integer" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("path, value", [
    ("directions", "many"),
    ("plane", [0, 7]),
    ("control_plane", [0, 9]),
    ("scalarization.k0", "big"),
    ("scalarization.k0", -1),
    ("scalarization.shrink", 1.5),
    ("scalarization", [1]),
    ("scalarization.max_iters", 0),
    ("margins.part2_m", "x"),
    ("horizon_s", -1),
    ("directions", -5),
])
def test_malformed_top_level_field_exits_three(tmp_path, capsys, path, value):
    # every top-level field is checked before any work: none raises, none
    # reads as infeasible, and the message names the field
    doc = json.loads(builtin_scenario_path("quadrotor_pair").read_text())
    *blocks, key = path.split(".")
    (doc[blocks[0]] if blocks else doc)[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(bad, tmp_path / "out", {"plots": True}) == 3
    assert f"'scenario.{path}'" in capsys.readouterr().err


@pytest.mark.parametrize("path, value, field", [
    (("aircraft", 0, "initial_position_m", 0), float("nan"), "aircraft[0].initial_position_m"),
    (("aircraft", 1, "initial_velocity_mps", 0), float("inf"), "aircraft[1].initial_velocity_mps"),
    (("required_separation_m",), float("inf"), "scenario.required_separation_m"),
    (("horizon_s",), 10**400, "scenario.horizon_s"),  # beyond the float range
    (("aircraft", 0, "params", "mass_kg"), float("-inf"), "aircraft[0].params.mass_kg"),
])
def test_non_finite_number_exits_three(tmp_path, capsys, path, value, field):
    # json reads NaN and Infinity; a non-finite number is malformed input,
    # named by its field, not a divergence or an infeasible encounter
    doc = json.loads(builtin_scenario_path("quadrotor_pair").read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(bad, tmp_path / "out", {}) == 3
    assert f"'{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("name, key, value", [
    ("quadrotor_pair", "initial_velocity_mps", 1e307),  # squared gaps overflow
    ("quadrotor_pair", "initial_velocity_mps", 1e308),  # the nominal's step overflows
    ("fixedwing_pair", "initial_position_m", 1e200),  # squared gaps overflow
])
def test_overflowing_nominal_exits_three(tmp_path, capsys, name, key, value):
    # a finite number whose nominal leaves the float range is malformed input:
    # it is named by its field before any overflow (RuntimeWarnings are errors)
    doc = json.loads(builtin_scenario_path(name).read_text())
    doc["aircraft"][0][key][0] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(bad, tmp_path / "out", {}) == 3
    assert f"'aircraft[0].{key}' puts the nominal more than" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scenario.json").exists()


@pytest.mark.parametrize("name, path, value, rule", [
    ("quadrotor_pair", ("initial_set", "position_radius_m"), 1e200, "at most 1e+30"),
    ("quadrotor_pair", ("control_set", "thrust_radius_n"), 1e200, "at most 1e+30"),
    ("quadrotor_pair", ("disturbance_set", "state_rate_radii"), [0.0] * 9 + [-1e200],
     "at most 1e+30"),
    ("quadrotor_pair", ("params", "mass_kg"), 1e-310, "at least 1e-30"),
    ("quadrotor_pair", ("params", "inertia_diag_kgm2"), [0.005, 1e-310, 0.01], "at least 1e-30"),
    ("fixedwing_pair", ("control_set", "elevator_radius_rad"), 1e200, "at most 1e+30"),
    # a control radius below 1e-30: its square leaves synthesis no set to whiten
    ("quadrotor_pair", ("control_set", "thrust_radius_n"), 0, "at least 1e-30"),
    ("quadrotor_pair", ("control_set", "thrust_radius_n"), 1e-200, "at least 1e-30"),
    ("quadrotor_pair", ("control_set", "torque_radius_nm"), 1e-300, "at least 1e-30"),
    ("fixedwing_pair", ("control_set", "elevator_radius_rad"), 0, "at least 1e-30"),
])
def test_overflowing_set_exits_three(tmp_path, capsys, name, path, value, rule):
    # a finite radius whose square or spread, or a mass or inertia whose
    # inverse, leaves the float range is malformed input, and so is a control
    # radius too small to synthesize; each is named by its field before any
    # overflow or traceback (RuntimeWarnings are errors)
    doc = json.loads(builtin_scenario_path(name).read_text())
    block, key = path
    doc["aircraft"][0].setdefault(block, {})[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(bad, tmp_path / "out", {}) == 3
    assert f"'aircraft[0].{block}.{key}' must be {rule}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scenario.json").exists()


def test_sets_at_their_bounds_are_accepted():
    doc = json.loads(builtin_scenario_path("quadrotor_pair").read_text())
    ac = doc["aircraft"][0]
    ac["initial_set"]["position_radius_m"] = -1e30
    ac["control_set"]["thrust_radius_n"] = 1e30
    ac["control_set"]["torque_radius_nm"] = -1e-30
    ac["params"]["mass_kg"] = 1e-30
    ac["params"]["inertia_diag_kgm2"] = [1e-30] * 3
    ac["params"]["gravity_mps2"] = 1e-30
    spec = scenario_from_dict(doc).specs[0]
    assert spec.X0.shape[0, 0] == spec.U.shape[0, 0] == np.square(1e30)
    assert spec.U.shape[1, 1] == np.square(1e-30)


@pytest.mark.parametrize("name, key, value, rule", [
    ("quadrotor_pair", "gravity_mps2", 1e300, "must be at most 1e+30 in magnitude"),
    ("fixedwing_pair", "M_de", 1e300, "must be at most 1e+30 in magnitude"),
    ("fixedwing_pair", "airspeed_trim_mps", 1e300, "must be at most 1e+30 in magnitude"),
    # finite gains whose model grows past the float range over the horizon:
    # gravity couples the pitch angle into the speeds, and M_w = 1e6 with the
    # bundled Z_q makes a mode that grows by about e^(3.7e3 t)
    ("fixedwing_pair", "gravity_mps2", 1e30, "makes the linearized model grow by more than 1e+12"),
    ("fixedwing_pair", "M_w", 1e6, "makes the linearized model grow by more than 1e+12"),
    ("quadrotor_pair", "gravity_mps2", 1e30, "makes the linearized model grow by more than 1e+12"),
    ("quadrotor_pair", "gravity_mps2", 0, "must be at least 1e-30"),
    ("fixedwing_pair", "airspeed_trim_mps", -1, "must be at least 1e-30"),
])
def test_overflowing_params_exit_three(tmp_path, capsys, name, key, value, rule):
    # a params number whose gain, or whose model's growth over the horizon,
    # leaves the float range is malformed input, named by its field before
    # any overflow or traceback (RuntimeWarnings are errors)
    doc = json.loads(builtin_scenario_path(name).read_text())
    doc["aircraft"][0]["params"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(bad, tmp_path / "out", {}) == 3
    assert f"'aircraft[0].params.{key}' {rule}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scenario.json").exists()


def test_growth_over_a_long_horizon_names_the_horizon(tmp_path, capsys):
    # the quadrotor's growth is about g t^3 / 6, so over 1e5 s the bundled
    # gravity grows it by 1.6e15 too: the horizon is what to change, and it is
    # named instead of gravity (zeroing gravity would also pass the bound)
    doc = json.loads(builtin_scenario_path("quadrotor_pair").read_text())
    doc["horizon_s"] = 1e5
    for entry in doc["aircraft"]:
        entry["initial_velocity_mps"] = [0.0, 0.0, 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(bad, tmp_path / "out", {}) == 3
    err = capsys.readouterr().err
    assert "'scenario.horizon_s' makes the linearized model grow by more than 1e+12" in err
    assert "params" not in err
    assert not (tmp_path / "out" / "scenario.json").exists()


def test_params_at_their_bounds_are_accepted():
    doc = json.loads(builtin_scenario_path("fixedwing_pair").read_text())
    params = doc["aircraft"][0]["params"]
    params.update(M_de=1e30, Z_w=-1e30, airspeed_trim_mps=1e-30)
    scenario_from_dict(doc)


def _aircraft_leaves():
    # every leaf of each vehicle's layout table, so that a leaf added there is
    # swept here too; the ids of the params leaves name no block
    for vehicle, layout in _VEHICLES.items():
        name = f"{vehicle}_pair"
        leaves = [("initial_set", key, None) for key in layout.initial]
        leaves += [("control_set", key, None) for key in layout.control]
        for key, (_, _, _, n) in layout.params.items():
            leaves += [("params", key, i) for i in range(n)] if n else [("params", key, None)]
        leaves.append(("disturbance_set", "state_rate_radii", None))
        for block, key, index in leaves:
            leaf = key if block == "params" else f"{block}.{key}"
            yield pytest.param(name, block, key, index, id=f"{name}-{leaf}-{index}")


SWEEP = (0, -1, 1e-300, 1e30, 1e300, -1e300)
REDUCED = {"quad_steps": 16, "grid_step": 1.0}


def _through(doc: dict, overrides: dict):
    """The ScenarioError's message if doc is refused; else None, once doc has
    gone through the encounter, the overlap report and synthesis, to an
    answer or to a named infeasibility (RuntimeWarnings are errors)."""
    try:
        scenario = scenario_from_dict(doc, overrides)
    except ScenarioError as exc:
        return str(exc)
    P = position_projection(scenario)
    geom = estimate_encounter(build_nominal(scenario, 0), build_nominal(scenario, 1), P,
                              scenario.d)
    assert np.isfinite(separation(*scenario.specs, geom.tau, P).value)
    try:
        scalarization_loop(*scenario.specs, geom, P, method=scenario.method, k0=scenario.k0,
                           shrink=scenario.shrink, margin1=scenario.margin1,
                           margin2=scenario.margin2, max_iters=scenario.max_iters)
    except JointInfeasibilityError:
        pass
    return None


@pytest.mark.parametrize("name, block, key, index", list(_aircraft_leaves()))
def test_every_params_leaf_ends_named(name, block, key, index):
    # each numeric set radius, params number and disturbance radius of
    # aircraft A (the disturbance radii all at once) at each extreme value
    # either names its field or goes through the overlap report and synthesis
    # at reduced fidelity
    base = json.loads(builtin_scenario_path(name).read_text())
    for value in SWEEP:
        doc = json.loads(json.dumps(base))
        node = doc["aircraft"][0].setdefault(block, {})
        if block == "disturbance_set":
            node[key] = [value] * _VEHICLES[doc["vehicle"]].state
        elif index is None:
            node[key] = value
        else:
            node[key][index] = value
        error = _through(doc, REDUCED)
        assert error is None or f"'aircraft[0].{block}.{key}'" in error, (value, error)


@pytest.mark.parametrize("name", ["quadrotor_pair", "fixedwing_pair"])
@pytest.mark.parametrize("field", [f for f in _FIELDS if f.kind in (float, int)],
                         ids=lambda f: f.path)
def test_every_top_level_field_ends_named(name, field):
    # each numeric top-level field at each extreme value, and an integer
    # field at 10**9 too, either names its field or goes through the overlap
    # report and synthesis at reduced fidelity in every other field.  A
    # horizon below the reduced grid step is refused by the grid step's rule,
    # which names the horizon
    base = json.loads(builtin_scenario_path(name).read_text())
    *blocks, key = field.path.split(".")
    reduced = {attr: v for attr, v in REDUCED.items() if attr != field.attr}
    for value in SWEEP + ((10**9,) if field.kind is int else ()):
        doc = json.loads(json.dumps(base))
        (doc[blocks[0]] if blocks else doc)[key] = value
        error = _through(doc, reduced)
        assert error is None or f"'scenario.{field.path}'" in error or (
            key == "horizon_s" and "at most horizon_s" in error), (value, error)


def test_scenario_quad_steps_validated(tmp_path, capsys):
    doc = json.loads(builtin_scenario_path("quadrotor_pair").read_text())
    doc["quad_steps"] = 4
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(doc))
    assert run(path, tmp_path / "out", {}) == 3
    assert "scenario.quad_steps" in capsys.readouterr().err
    with pytest.raises(ScenarioError, match="scenario.quad_steps"):
        scenario_from_dict({**doc, "quad_steps": 64.5})


def test_schema_errors_name_fields():
    with pytest.raises(ScenarioError, match="scenario.required_separation_m"):
        scenario_from_dict({"name": "x", "vehicle": "quadrotor"})
    doc = json.loads(builtin_scenario_path("quadrotor_pair").read_text())
    doc["aircraft"][0]["params"]["mass_kg"] = "heavy"
    with pytest.raises(ScenarioError, match="aircraft\\[0\\].params.mass_kg"):
        scenario_from_dict(doc)


def test_scenario_roundtrip():
    s1 = load_scenario(builtin_scenario_path("fixedwing_pair"))
    s2 = scenario_from_dict(s1.to_dict())
    assert s1.name == s2.name and s1.d == s2.d and s1.method == s2.method
    assert s1.margin2 == s2.margin2 and s1.k0 == s2.k0
    for a1, a2 in zip(s1.aircraft, s2.aircraft):
        assert np.allclose(a1.position, a2.position)
        assert np.allclose(a1.velocity, a2.velocity)
        assert a1.params == a2.params
        assert a1.initial_set == a2.initial_set
        assert a1.control_set == a2.control_set
    # a document that leaves out every defaulted field reads the defaults,
    # and writes them out so that they read back the same
    doc = json.loads(builtin_scenario_path("fixedwing_pair").read_text())
    for key in ["quad_steps", "directions", "plane", "control_plane", "part1_method",
                "scalarization", "margins"]:
        del doc[key]
    s3 = scenario_from_dict(doc)
    assert (s3.quad_steps, s3.directions, s3.plane, s3.control_plane, s3.method,
            s3.k0, s3.shrink, s3.max_iters, s3.margin1, s3.margin2) == (
        200, 32, (0, 1), (0, 1), "norm", 1.0, 0.8, 20, None, 0.0)
    assert scenario_from_dict(s3.to_dict()).to_dict() == s3.to_dict()


def test_empty_direction_set_warns(tmp_path, capsys):
    code = run(builtin_scenario_path("quadrotor_pair"), tmp_path / "out",
               {**FAST, "directions": 0})
    assert code == 0
    assert "empty direction set" in capsys.readouterr().err
    tubes = (tmp_path / "out" / "tubes.csv").read_text().splitlines()
    assert len(tubes) == 1  # header only
    emit_plots(tmp_path / "out")
    assert not (tmp_path / "out" / "initial_tubes.svg").exists()
    assert (tmp_path / "out" / "separation.svg").exists()


def test_two_directions_skip_tube_figures(tmp_path, capsys):
    # two directions leave tube rows but no silhouette: the warning names the
    # direction count, not an empty set
    code = run(builtin_scenario_path("quadrotor_pair"), tmp_path / "out",
               {**FAST, "directions": 2, "plots": True})
    assert code == 0
    err = capsys.readouterr().err
    assert "no tube silhouettes for initial_tubes.svg (fewer than three directions)" in err
    assert "empty direction set" not in err
    assert len((tmp_path / "out" / "tubes.csv").read_text().splitlines()) > 1
    assert not (tmp_path / "out" / "initial_tubes.svg").exists()


def test_tube_csv_with_unequal_direction_sets_is_rejected(tmp_path):
    # an aircraft's silhouettes are taken for all its times at once, on the
    # directions of its first time
    head = "aircraft,t_s,dir_index,dir_x,dir_y,dir_z,support_value\n"
    rows = ["A,0,0,1,0,0,1", "A,0,1,0,1,0,1", "A,1,0,1,0,0,1", "A,1,1,-1,0,0,1"]
    path = tmp_path / "tubes.csv"
    for body in (rows, rows[:3]):
        path.write_text(head + "\n".join(body) + "\n")
        with pytest.raises(ValueError, match="unequal direction sets"):
            _read_tubes(path, (0, 1))


def test_emit_plots_missing_artifacts(tmp_path):
    with pytest.raises(MissingArtifactError, match="scenario.json"):
        emit_plots(tmp_path)


def test_cli_main_wires_overrides(tmp_path):
    code = main(["run", str(builtin_scenario_path("quadrotor_pair")),
                 "--out", str(tmp_path / "out"), "--grid-step", "0.5",
                 "--quad-steps", "64", "--directions", "4", "--method", "norm"])
    assert code == 0
    scen = json.loads((tmp_path / "out" / "scenario.json").read_text())
    assert scen["directions"] == 4
    assert scen["quad_steps"] == 64


def test_python_dash_m_runs_without_install(tmp_path):
    src = Path(reachsep.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "reachsep", "run", str(builtin_scenario_path("quadrotor_pair")),
         "--out", "out", "--grid-step", "2.0", "--quad-steps", "64", "--directions", "4"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "verification:" in proc.stdout
    assert (tmp_path / "out" / "overlap.json").exists()


@pytest.mark.parametrize("name", ["quadrotor_pair", "fixedwing_pair"])
def test_grids_shared_per_system(name, tmp_path, monkeypatch):
    # every spec of one aircraft shares its system's grid batches, and the
    # quad pair's equal dynamics share one system: each distinct request, the
    # output grid and tau alone, is built once per distinct system
    built = []
    build = reachability._build_grids

    def counting_build(system, times, n_steps):
        built.append(len(times))
        return build(system, times, n_steps)

    monkeypatch.setattr(reachability, "_build_grids", counting_build)
    assert run(builtin_scenario_path(name), tmp_path, FAST) == 0
    n_times = len((tmp_path / "separation.csv").read_text().splitlines()) - 1
    assert n_times > 1
    n_systems = 1 if name == "quadrotor_pair" else 2
    assert sorted(built) == [1] * n_systems + [n_times] * n_systems


@pytest.mark.parametrize("name", ["quadrotor_pair", "fixedwing_pair"])
def test_one_system_per_scenario(name):
    # every spec of an aircraft is built on the scenario's one system; the
    # quad pair's equal dynamics share it, the fixed-wing pair's flipped
    # cruise does not
    sc = load_scenario(builtin_scenario_path(name))
    specs = [build_spec(sc, i, with_disturbance=w) for i in (0, 1) for w in (True, False)]
    assert specs[0].system is specs[1].system is sc.specs[0].system
    assert specs[2].system is specs[3].system is sc.specs[1].system
    assert (build_spec(sc, 0).system is build_spec(sc, 1).system) == (name == "quadrotor_pair")


@pytest.mark.parametrize("name", ["quadrotor_pair", "fixedwing_pair", "disturbed"])
def test_specs_built_once(name, monkeypatch):
    # scenario_from_dict builds each aircraft's sets once, in Scenario.specs;
    # build_spec and build_nominal read them and make no ellipsoid of their own
    doc = (disturbed_quad_doc() if name == "disturbed"
           else json.loads(builtin_scenario_path(name).read_text()))
    made = []
    init = Ellipsoid.__post_init__

    def counting_init(self):
        made.append(self)
        init(self)

    monkeypatch.setattr(Ellipsoid, "__post_init__", counting_init)
    sc = scenario_from_dict(doc)
    n_made = len(made)
    assert n_made == (6 if name == "disturbed" else 4)
    for i in (0, 1):
        for w in (True, False):
            build_spec(sc, i, with_disturbance=w)
        build_nominal(sc, i)
    assert len(made) == n_made
    for i in (0, 1):
        assert build_spec(sc, i) is sc.specs[i]
        assert build_spec(sc, i, with_disturbance=False).V is None


def test_benchmark_trace_wraps_resolve():
    # the traced benchmark run replaces each of these module attributes, and
    # a renamed or removed one would make it fail instead of measuring
    from perfbench.layers import WRAPS
    for mod, attr in WRAPS:
        assert hasattr(importlib.import_module(f"reachsep.{mod}"), attr), f"{mod}.{attr}"


def test_run_imports_no_scipy(tmp_path):
    # the whole run path, Monte Carlo check and plots included, is numpy-only
    src = Path(reachsep.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from reachsep.pipeline import run\n"
        "from reachsep.scenario import builtin_scenario_path\n"
        f"code = run(builtin_scenario_path('quadrotor_pair'), 'out', {{**{FAST!r}, "
        "'plots': True, 'verify_mc': 200})\n"
        "assert code == 0, code\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "mc.json").exists()
    assert (tmp_path / "out" / "separation.svg").exists()


def test_pipeline_import_loads_no_thread_pool(tmp_path):
    # the sampler draws on the calling thread: neither importing the pipeline
    # nor a run with the Monte Carlo check loads a thread pool, or logging
    src = Path(reachsep.__file__).resolve().parents[1]
    code = ("import sys\n"
            "import reachsep.pipeline\n"
            "modules = ('concurrent.futures', 'logging')\n"
            "loaded = [m for m in modules if m in sys.modules]\n"
            "assert not loaded, loaded\n"
            "from reachsep.scenario import builtin_scenario_path\n"
            "code = reachsep.pipeline.run(builtin_scenario_path('quadrotor_pair'), 'out', "
            f"{{**{FAST!r}, 'verify_mc': 200}})\n"
            "assert code == 0, code\n"
            "loaded = [m for m in modules if m in sys.modules]\n"
            "assert not loaded, loaded\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "mc.json").exists()


def cloud(rng, n, k, center, radius):
    x = rng.standard_normal((n, k))
    x /= np.linalg.norm(x, axis=1)[:, None]
    return center + radius * x * rng.random((n, 1)) ** (1.0 / k)


def two_clouds(kind, rng, nA, nB, k):
    """A pair of point clouds: apart, touching, overlapping or identical
    balls, tiny balls far apart, or coplanar points in two parallel planes."""
    e = np.eye(k)[0]
    if kind == "identical":
        A = cloud(rng, nA, k, np.zeros(k), 1.0)
        return A, A.copy()
    if kind == "sheets":  # coplanar points in two parallel planes (lines in 2-D)
        A, B = rng.random((nA, k)), rng.random((nB, k))
        A[:, -1], B[:, -1] = 0.0, 10.0 ** rng.uniform(-3.0, 0.5)
        return A, B
    if kind == "tiny_far":
        return cloud(rng, nA, k, np.zeros(k), 1e-3), cloud(rng, nB, k, 1e2 * e, 1e-3)
    gap = {"apart": 3.0, "touching": 2.0, "overlapping": 0.5}[kind]
    return cloud(rng, nA, k, np.zeros(k), 1.0), cloud(rng, nB, k, gap * e, 1.0)


def brute_closest_pair(A, B):
    return float(np.linalg.norm(A[:, None, :] - B[None, :, :], axis=-1).min())


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3),
       kind=st.sampled_from(["apart", "touching", "overlapping", "identical", "tiny_far",
                             "sheets"]),
       nA=st.integers(1, 300), nB=st.integers(1, 300),
       along=st.sampled_from(["random", "last_axis", "means"]))
def test_slab_gap_bounds_closest_pair(seed, k, kind, nA, nB, along):
    # l points from B towards A, as the separation's direction does; along
    # the last axis, the sheets' normal, the slab is their exact gap
    rng = np.random.default_rng(seed)
    A, B = two_clouds(kind, rng, nA, nB, k)
    l = {"random": rng.standard_normal(k), "last_axis": -np.eye(k)[-1],
         "means": A.mean(axis=0) - B.mean(axis=0)}[along]
    if not l.any():
        l = np.eye(k)[0]
    l = l / np.linalg.norm(l)
    truth = brute_closest_pair(A, B)
    slab = pipeline._slab_gap(l, np.ascontiguousarray(A.T), np.ascontiguousarray(B.T))
    assert slab <= truth + 1e-12 * max(1.0, truth)
    if kind == "identical":
        assert slab <= 0.0
    if kind == "sheets" and along == "last_axis":
        assert slab == B[0, -1]

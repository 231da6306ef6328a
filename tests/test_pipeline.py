import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reachsep
from reachsep import reachability
from reachsep.cli import main
from reachsep.ellipsoid import Ellipsoid
from reachsep.pipeline import SEP_TOL, run
from reachsep.plots import MissingArtifactError, emit_plots
from reachsep.reachability import GAP_REL, reach_support
from reachsep.scenario import (
    ScenarioError,
    build_spec,
    builtin_scenario_path,
    load_scenario,
    position_projection,
    scenario_from_dict,
)

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
        assert ac["kkt_residual"] <= 1e-6
        assert 0.0 < ac["lambda"] <= 1.0
        assert ac["newton_steps"] > 0
        assert ac["barrier_mu_final"] >= 1.0
        assert len(ac["stage_objectives"]) >= 1
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
        spec = build_spec(scen, i).with_control(Ellipsoid(np.array(sol[name]["q"]), Q @ Q))
        l = np.array([float(dx), float(dy), float(dz)])
        assert float(value) == pytest.approx(reach_support(spec, float(t), P.T @ l), rel=1e-8)


def test_verification_artifact(quad_run):
    _, out = quad_run
    ver = json.loads((out / "verification.json").read_text())
    seps = [float(row.split(",")[1])
            for row in (out / "separation.csv").read_text().splitlines()[1:]]
    assert ver["grid_times"] == len(seps)
    assert ver["min_separation_m"] == pytest.approx(min(seps), rel=1e-8)
    assert ver["uncertified_times"] == []
    assert -1e-12 <= ver["max_duality_gap_m"] <= SEP_TOL


def test_iteration_cap_recorded_as_uncertified(quad_run, tmp_path, monkeypatch, capsys):
    # with no steps allowed every grid time returns its first lower bound,
    # uncertified; a lower bound alone cannot verify the run
    monkeypatch.setattr(reachability, "MNP_MAX_ITERS", 0)
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
    assert mc["tube_ok"] and mc["pairwise_ok"]
    assert mc["min_pairwise_distance_m"] >= 1.0 - 1e-3


def test_plots_written(quad_run):
    _, out = quad_run
    for name in ["initial_tubes.svg", "final_tubes.svg", "control_sets.svg", "separation.svg"]:
        body = (out / name).read_text()
        assert body.startswith("<svg") and body.rstrip().endswith("</svg>")


def test_determinism(quad_run, tmp_path):
    _, out = quad_run
    out2 = tmp_path / "again"
    code = run(builtin_scenario_path("quadrotor_pair"), out2,
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


@pytest.mark.parametrize("flags, field", [
    (["--grid-step", "0"], "grid_step_s"),
    (["--grid-step", "-0.5"], "grid_step_s"),
    (["--quad-steps", "4"], "quad_steps"),
])
def test_cli_invalid_overrides_exit_three(tmp_path, capsys, flags, field):
    code = main(["run", str(builtin_scenario_path("quadrotor_pair")),
                 "--out", str(tmp_path / "out"), *flags])
    assert code == 3
    assert field in capsys.readouterr().err


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
    # every spec of one aircraft shares its system's grids: at most one
    # per output time for each aircraft
    builds = []
    init = reachability._Grid.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(reachability._Grid, "__init__", counting_init)
    assert run(builtin_scenario_path(name), tmp_path, FAST) == 0
    n_times = len((tmp_path / "separation.csv").read_text().splitlines()) - 1
    assert len(builds) <= 2 * n_times

"""Invariants of the whole pipeline: the answer transforms as the physics says.

Each test runs a transformed bundled document end to end at reduced fidelity
and compares its artifacts with the bundled run's.  Rigid motions and mirrors
leave every answer in place; scaling every length by c scales every
separation by c and shifts each log det Q by m log c; swapping the aircraft
relabels them.  Solver statuses are not compared: the barrier's stopping
tolerances are absolute in the objective's units, and a last-digit move of
the input can turn `optimal` into `stalled` and back (quadrotor A under the
(100, -37, 5) m shift, fixed-wing B at c = 1/2).
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from reachsep.pipeline import run
from reachsep.reachability import reach_support
from reachsep.scenario import builtin_scenario_path, position_projection, scenario_from_dict

FIDELITY = {"quad_steps": 32, "grid_step": 0.5}
VEHICLES = ["quadrotor_pair", "fixedwing_pair"]


def bundled(name: str) -> dict:
    return json.loads(builtin_scenario_path(name).read_text())


@pytest.fixture(scope="module")
def answer(tmp_path_factory):
    """The artifacts of a document's run at reduced fidelity, each document run once."""
    done = {}

    def answer(doc: dict) -> dict:
        key = json.dumps(doc, sort_keys=True)
        if key not in done:
            out = tmp_path_factory.mktemp("run")
            (out / "doc.json").write_text(key)
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(out / "doc.json", out, FIDELITY) == 0
            got = {name: json.loads((out / f"{name}.json").read_text())
                   for name in ("encounter", "overlap", "solution", "verification")}
            got["separation"] = np.loadtxt(out / "separation.csv", delimiter=",", skiprows=1)[:, 1]
            got["tubes_initial"] = (out / "tubes_initial.csv").read_text().splitlines()
            got["log_det"] = {ac: np.linalg.slogdet(np.array(sol["Q"]))[1]
                              for ac, sol in got["solution"]["aircraft"].items()}
            done[key] = got
        return done[key]
    return answer


def relative(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def shifted(name: str, shift) -> dict:
    doc = bundled(name)
    for entry in doc["aircraft"]:
        entry["initial_position_m"] = [p + s for p, s in zip(entry["initial_position_m"], shift)]
    return doc


@pytest.mark.parametrize("name, shift", [("quadrotor_pair", (100.0, -37.0, 5.0)),
                                         ("fixedwing_pair", (100.0, -37.0))], ids=VEHICLES)
def test_translation_leaves_the_answer(answer, name, shift):
    # measured: the minimum moved by 4.9e-14 relative on quad and not at all
    # on fixed-wing, log det Q not at all
    base, moved = answer(bundled(name)), answer(shifted(name, shift))
    assert moved["overlap"]["separation_at_tau_m"] == base["overlap"]["separation_at_tau_m"]
    assert np.array_equal(moved["separation"], base["separation"])
    assert relative(moved["verification"]["min_separation_m"],
                    base["verification"]["min_separation_m"]) <= 1e-13
    for ac, log_det in base["log_det"].items():
        assert abs(moved["log_det"][ac] - log_det) <= 1e-13


@pytest.mark.parametrize("name", VEHICLES)
def test_far_translation_moves_the_answer_by_rounding(answer, name):
    # at 1e5 m a coordinate rounds 1e5 times coarser than at 1 m: measured,
    # the minimum moved by 5.0e-11 (quad) and 1.0e-12 (fixed-wing) relative,
    # and log det Q by 3.9e-12 and 1.1e-14
    shift = (1e5, 1e5, 0.0) if name == "quadrotor_pair" else (1e5, 1e5)
    base, moved = answer(bundled(name)), answer(shifted(name, shift))
    assert relative(moved["verification"]["min_separation_m"],
                    base["verification"]["min_separation_m"]) <= 1e-10
    for ac, log_det in base["log_det"].items():
        assert abs(moved["log_det"][ac] - log_det) <= 1e-11


def test_quadrotor_y_mirror_is_bit_equal(answer):
    doc = bundled("quadrotor_pair")
    for entry in doc["aircraft"]:
        entry["initial_position_m"][1] *= -1.0
        entry["initial_velocity_mps"][1] *= -1.0
    base, mirrored = answer(bundled("quadrotor_pair")), answer(doc)
    assert mirrored["overlap"]["separation_at_tau_m"] == base["overlap"]["separation_at_tau_m"]
    assert np.array_equal(mirrored["separation"], base["separation"])
    assert (mirrored["verification"]["min_separation_m"]
            == base["verification"]["min_separation_m"])
    assert mirrored["log_det"] == base["log_det"]


def scaled(name: str, c: float) -> dict:
    """Every length times c: positions, velocities, every initial-set and
    control radius (the fixed-wing's default attitude radius written out),
    d and the margins; and k0 times c, which the scalarization multiplies
    into metres before adding them to nats."""
    doc = bundled(name)
    doc["required_separation_m"] *= c
    doc["scalarization"]["k0"] *= c
    doc["margins"] = {key: None if v is None else c * v for key, v in doc["margins"].items()}
    for entry in doc["aircraft"]:
        if doc["vehicle"] == "fixedwing":
            entry["initial_set"].setdefault("attitude_radius_rad", 0.01)
        for key in ("initial_position_m", "initial_velocity_mps"):
            entry[key] = [c * v for v in entry[key]]
        for block in ("initial_set", "control_set"):
            entry[block] = {key: c * v for key, v in entry[block].items()}
    return doc


@pytest.mark.parametrize("c", [2.0, 0.5])
@pytest.mark.parametrize("name", VEHICLES)
def test_scaling_scales_the_answer(answer, name, c):
    # measured: the minimum within 7.2e-11 relative of c times the bundled
    # one, log det Q within 1.8e-11 of its shift; separation.csv holds 9
    # digits, so each of its values is within 5e-9 relative of the exact one
    base, big = answer(bundled(name)), answer(scaled(name, c))
    assert relative(big["verification"]["min_separation_m"],
                    c * base["verification"]["min_separation_m"]) <= 1e-10
    m = len(base["solution"]["aircraft"]["A"]["Q"])
    for ac, log_det in base["log_det"].items():
        assert abs(big["log_det"][ac] - (log_det + m * math.log(c))) <= 1e-6
    assert np.all(np.abs(big["separation"] - c * base["separation"])
                  <= 1e-8 * np.abs(c * base["separation"]))


@pytest.mark.parametrize("name", VEHICLES)
def test_swapping_the_aircraft_relabels_the_answer(answer, name):
    doc = bundled(name)
    doc["aircraft"] = doc["aircraft"][::-1]
    base, swapped = answer(bundled(name)), answer(doc)
    value = swapped["overlap"]["separation_at_tau_m"]
    assert value == base["overlap"]["separation_at_tau_m"]
    relabel = {"A": "B", "B": "A"}
    rows = sorted(relabel[row[0]] + row[1:] for row in swapped["tubes_initial"][1:])
    assert rows == sorted(base["tubes_initial"][1:])
    # the overlap direction is negated only up to the pair's mirror tie, so
    # the swapped pair's g is read at the negated bundled direction:
    # g'(-l) = -rho_B(P'l) - rho_A(-P'l) = g(l)
    scenario = scenario_from_dict(doc, FIDELITY)
    P, tau = position_projection(scenario), swapped["encounter"]["tau_s"]
    lP = np.array(base["overlap"]["direction"]) @ P
    specB, specA = scenario.specs
    g = -reach_support(specB, tau, lP) - reach_support(specA, tau, -lP)
    assert abs(g - value) <= 1e-12 * max(1.0, abs(value))

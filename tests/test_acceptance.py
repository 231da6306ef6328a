"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline).  The
two bundled scenarios are exercised through the library API at full fidelity
(quad_steps 200, verification grid step 0.1 s).
"""

import dataclasses
import time

import numpy as np
import pytest
from scipy.spatial import cKDTree

from reachsep.dynamics import LTISystem
from reachsep.ellipsoid import Ellipsoid, containment_block, psd_sqrt
from reachsep.montecarlo import sample_trajectories
from reachsep.pipeline import plane_directions
from reachsep.distance import separation
from reachsep.reachability import ReachSpec, reach_support
from reachsep.scenario import (
    build_nominal,
    build_spec,
    builtin_scenario_path,
    load_scenario,
    position_projection,
)
from reachsep.synthesis import (
    estimate_encounter,
    part1_constants,
    scalarization_loop,
    solve_scaled,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def run_scenario(name: str, k0=None):
    scen = load_scenario(builtin_scenario_path(name))
    if k0 is not None:
        scen = dataclasses.replace(scen, k0=k0)
    P = position_projection(scen)
    nomA, nomB = build_nominal(scen, 0), build_nominal(scen, 1)
    geom = estimate_encounter(nomA, nomB, P, scen.d)
    specA, specB = build_spec(scen, 0), build_spec(scen, 1)
    t0 = time.time()
    solB, solA, k_used, _ = scalarization_loop(
        specA, specB, geom, P, method=scen.method, k0=scen.k0,
        shrink=scen.shrink, margin1=scen.margin1, margin2=scen.margin2,
        max_iters=scen.max_iters)
    loop_s = time.time() - t0
    shrunkA = dataclasses.replace(specA, U=solA.control_set())
    shrunkB = dataclasses.replace(specB, U=solB.control_set())
    t_grid = np.arange(0.0, scen.horizon + 1e-9, scen.grid_step)
    t0 = time.time()
    seps = np.array([separation(shrunkA, shrunkB, t, P).value for t in t_grid])
    verify_s = time.time() - t0
    return dict(scen=scen, P=P, geom=geom, specA=specA, specB=specB,
                solA=solA, solB=solB, k_used=k_used, shrunkA=shrunkA,
                shrunkB=shrunkB, t_grid=t_grid, seps=seps,
                loop_s=loop_s, verify_s=verify_s)


@pytest.fixture(scope="module")
def quad():
    return run_scenario("quadrotor_pair")


@pytest.fixture(scope="module")
def quad_k09():
    return run_scenario("quadrotor_pair", k0=0.9)


@pytest.fixture(scope="module")
def fixedwing():
    return run_scenario("fixedwing_pair")


def test_criterion_1_encounter_geometry():
    t0 = time.time()
    results = {}
    for name in ["quadrotor_pair", "fixedwing_pair"]:
        scen = load_scenario(builtin_scenario_path(name))
        P = position_projection(scen)
        geom = estimate_encounter(build_nominal(scen, 0), build_nominal(scen, 1),
                                  P, scen.d)
        results[name] = (geom, scen.grid_step, P)
    elapsed = time.time() - t0
    gq, step_q, _ = results["quadrotor_pair"]
    gf, step_f, Pf = results["fixedwing_pair"]
    ok = (abs(gq.tau - 4.0) <= step_q + 1e-12
          and abs(gf.tau - 10.0) <= step_f + 1e-12
          and abs((Pf @ gf.l_star)[1]) >= 1.0 - 1e-9
          and elapsed < 1.0)
    report("criterion 1 (encounter geometry)", ok,
           f"tau_quad={gq.tau:.2f} s, tau_fw={gf.tau:.2f} s, "
           f"fw l*_z={abs((Pf @ gf.l_star)[1]):.6f}, runtime={elapsed:.2f} s")


def test_criterion_2_initial_overlap():
    t0 = time.time()
    outcomes = []
    for name in ["quadrotor_pair", "fixedwing_pair"]:
        scen = load_scenario(builtin_scenario_path(name))
        assert scen.directions == 32 and scen.quad_steps == 200
        P = position_projection(scen)
        geom = estimate_encounter(build_nominal(scen, 0), build_nominal(scen, 1),
                                  P, scen.d)
        sep0 = separation(build_spec(scen, 0), build_spec(scen, 1), geom.tau, P).value
        outcomes.append((name, sep0, scen.d))
    elapsed = time.time() - t0
    ok = all(s < d for _, s, d in outcomes) and elapsed < 30.0
    report("criterion 2 (initial overlap)", ok,
           ", ".join(f"{n}: sep(tau)={s:.2f} < d={d:g}" for n, s, d in outcomes)
           + f", runtime={elapsed:.1f} s")


def test_criterion_3_end_to_end_safety(quad, quad_k09, fixedwing):
    ok = True
    details = []
    for label, r in [("quad k0=1", quad), ("quad k0=0.9", quad_k09),
                     ("fixedwing k0=1", fixedwing)]:
        min_margin = float((r["seps"] - r["scen"].d).min())
        runtime = r["loop_s"] + r["verify_s"]
        ok = ok and min_margin >= -1e-6 and runtime < 120.0
        details.append(f"{label}: min(sep - d)={min_margin:.4f} m, runtime={runtime:.0f} s")
    report("criterion 3 (end-to-end safety)", ok, "; ".join(details))


def test_criterion_4_monte_carlo_soundness(quad, fixedwing):
    ok = True
    details = []
    for label, r in [("quad", quad), ("fixedwing", fixedwing)]:
        t0 = time.time()
        scen, P = r["scen"], r["P"]
        dirs = plane_directions(scen, P.shape[0])
        trA = sample_trajectories(r["shrunkA"], r["t_grid"], 10_000, seed=42)
        trB = sample_trajectories(r["shrunkB"], r["t_grid"], 10_000, seed=43)
        worst_violation = -np.inf
        min_pairwise = np.inf
        for i, t in enumerate(r["t_grid"]):
            vals_A = np.array([reach_support(r["shrunkA"], t, P.T @ l) for l in dirs])
            vals_B = np.array([reach_support(r["shrunkB"], t, P.T @ l) for l in dirs])
            posA, posB = trA[:, i, :] @ P.T, trB[:, i, :] @ P.T
            worst_violation = max(worst_violation,
                                  float((posA @ dirs.T - vals_A).max()),
                                  float((posB @ dirs.T - vals_B).max()))
            min_pairwise = min(min_pairwise,
                               float(cKDTree(posB).query(posA, k=1)[0].min()))
        elapsed = time.time() - t0
        ok = (ok and worst_violation <= 1e-6
              and min_pairwise >= scen.d - 1e-3 and elapsed < 120.0)
        details.append(f"{label}: worst tube violation={worst_violation:.2e}, "
                       f"min pairwise={min_pairwise:.3f} m, runtime={elapsed:.0f} s")
    report("criterion 4 (Monte Carlo soundness)", ok, "; ".join(details))


def test_criterion_5_support_exactness():
    sys1 = LTISystem(np.zeros((2, 2)), np.eye(2))
    spec1 = ReachSpec(sys1, Ellipsoid.ball([0.0, 0.0], 1.0),
                      Ellipsoid.ball([0.0, 0.0], 1.0), 3.0)
    errs = [abs(reach_support(spec1, t, [1.0, 0.0]) - (1.0 + t)) for t in [0.5, 1.0, 2.0, 3.0]]
    sys2 = LTISystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
    spec2 = ReachSpec(sys2, Ellipsoid.point([0.0, 0.0]), Ellipsoid.ball([0.0], 1.0), 2.0)
    errs.append(abs(reach_support(spec2, 2.0, [1.0, 0.0]) - 2.0))
    ok = max(errs) <= 1e-9
    report("criterion 5 (support-function exactness)", ok,
           f"max closed-form error={max(errs):.2e}")


def _reduced_norm_objective(consts, geom, U, k, q, Q):
    """Phase-one norm objective with the epigraph scalar eliminated."""
    s = float(np.linalg.eigvalsh(Q).max())
    const = (float(geom.l_star @ geom.c_A_tau) - consts.a0 - consts.offset
             - consts.x0_term)
    dist = const - float(consts.b @ q) - s * consts.gamma_I
    sign, logdet = np.linalg.slogdet(Q)
    if sign <= 0:
        return -np.inf, dist
    return dist + k * logdet, dist


def _is_feasible_norm(consts, geom, U, q, Q, lam, margin):
    block = containment_block(U, q, Q, lam)
    if np.linalg.eigvalsh(block).min() < 0.0:
        return False
    if np.linalg.eigvalsh(Q).min() < 0.0:
        return False
    _, dist = _reduced_norm_objective(consts, geom, U, 0.0, q, Q)
    return dist >= margin


def test_criterion_6_solver_correctness(quad, fixedwing):
    # toy instances
    from test_convex import SCALED_START, logdet_under_identity, scaled_toy, toy_grid_optimum
    from reachsep.convex import solve

    p, _ = logdet_under_identity()
    res = solve(p, {"Q": 0.5 * np.eye(2)})
    cap_ok = np.allclose(res.values["Q"], np.eye(2), atol=1e-6)

    const, b, gamma, k, margin = 0.3, 0.8, 0.5, 0.2, 0.05
    pt = scaled_toy(const, b, gamma, k, margin)
    grid_best, _, _ = toy_grid_optimum(const, b, gamma, k, margin)
    toy = solve(pt, SCALED_START)
    toy_ok = abs(toy.objective - grid_best) <= 1e-3

    # perturbation certificate on both scenario phase-one solutions
    cert_ok = True
    rng = np.random.default_rng(7)
    for r in [quad, fixedwing]:
        consts = part1_constants(r["specB"], r["geom"])
        sol = r["solB"]
        U = r["specB"].U
        margin1 = 0.5 * r["scen"].d if r["scen"].margin1 is None else r["scen"].margin1
        obj_star, _ = _reduced_norm_objective(consts, r["geom"], U, sol.k, sol.q, sol.Q)
        W = psd_sqrt(U.shape)
        wmin = np.linalg.eigvalsh(W).min()
        accepted = 0
        tries = 0
        while accepted < 100 and tries < 20000:
            tries += 1
            dq = 1e-3 * (W @ rng.standard_normal(U.dim))
            dQ = 1e-3 * wmin * rng.standard_normal((U.dim, U.dim))
            dQ = 0.5 * (dQ + dQ.T)
            dlam = 1e-3 * rng.standard_normal()
            q2, Q2, lam2 = sol.q + dq, sol.Q + dQ, sol.lam + dlam
            if not (0.0 < lam2 <= 1.0):
                continue
            if not _is_feasible_norm(consts, r["geom"], U, q2, Q2, lam2, margin1):
                continue
            accepted += 1
            obj2, _ = _reduced_norm_objective(consts, r["geom"], U, sol.k, q2, Q2)
            if obj2 > obj_star + 1e-6:
                cert_ok = False
        cert_ok = cert_ok and accepted >= 100
    ok = cap_ok and toy_ok and cert_ok
    report("criterion 6 (solver correctness)", ok,
           f"logdet-cap ok={cap_ok}, grid gap={abs(toy.objective - grid_best):.2e}, "
           f"perturbation certificate ok={cert_ok}")


def test_criterion_7_containment(quad, quad_k09, fixedwing):
    ok = True
    details = []
    rng = np.random.default_rng(11)
    for label, r in [("quad", quad), ("quad k0.9", quad_k09), ("fw", fixedwing)]:
        for name in ("solA", "solB"):
            sol = r[name]
            spec = r["specA"] if name == "solA" else r["specB"]
            block = containment_block(spec.U, sol.q, sol.Q, sol.lam)
            min_eig = float(np.linalg.eigvalsh(block).min())
            pts = Ellipsoid(sol.q, sol.Q @ sol.Q).boundary_points(100_000, rng)
            Minv = np.linalg.inv(spec.U.shape)
            d = pts - spec.U.center
            worst = float(np.einsum("ij,jk,ik->i", d, Minv, d).max())
            ok = ok and min_eig >= -1e-8 and worst <= 1.0 + 1e-9
            details.append(f"{label}/{sol.aircraft}: eig={min_eig:.1e}, norm={worst:.6f}")
    report("criterion 7 (containment)", ok, "; ".join(details))


def test_criterion_8_pareto_monotonicity(quad):
    consts = part1_constants(quad["specB"], quad["geom"])
    margin1 = 0.5 * quad["scen"].d
    sols = [solve_scaled(consts, quad["geom"], quad["specB"].U, k, margin=margin1)
            for k in [0.25, 0.5, 0.75, 1.0]]
    rs = np.array([s.r for s in sols])
    ds = np.array([s.distance for s in sols])
    ok = (np.diff(rs) >= -1e-6).all() and (np.diff(ds) <= 1e-6).all()
    report("criterion 8 (Pareto monotonicity)", ok,
           f"r={np.round(rs, 4).tolist()}, distance={np.round(ds, 3).tolist()}")

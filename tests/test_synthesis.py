import dataclasses
import functools
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reachsep import synthesis
from reachsep.convex import (INIT_MARGIN, KKT_TOL, MAX_NEWTON, BarrierProblem,
                              InfeasibleProblemError, solve)
from reachsep.dynamics import LTISystem, NominalTrajectory, QuadrotorParams, quadrotor_linearized
from reachsep.ellipsoid import Ellipsoid, containment_block, contains, psd_sqrt, support
from reachsep.montecarlo import sample_trajectories
from reachsep.reachability import ReachSpec, reach_support
from reachsep.scenario import (
    build_nominal,
    build_spec,
    builtin_scenario_path,
    position_projection,
    scenario_from_dict,
)
from reachsep.synthesis import (
    DegenerateGeometryError,
    DistanceRow,
    EncounterGeometry,
    JointInfeasibilityError,
    PartIConstants,
    estimate_encounter,
    feasibility_restore,
    distance_row,
    part1_constants,
    safe_set,
    scalarization_loop,
    solve_matrix_norm,
    solve_part2,
    solve_scaled,
)

P3 = np.eye(10)[:3]


def quad_system(J=0.005):
    return quadrotor_linearized(QuadrotorParams(m=1.0, J=np.diag([J, J, 2 * J]), g=9.81))


def quad_pair(torque_r=0.0005, horizon=4.0):
    sys = quad_system()
    def spec(pos, vel):
        c0 = np.zeros(10)
        c0[0:3] = pos
        c0[3:6] = vel
        M0 = np.diag([0.025**2] * 3 + [0.005**2] * 3 + [0.0] * 4)
        U = Ellipsoid(np.zeros(3), np.diag([0.3**2, torque_r**2, torque_r**2]))
        return ReachSpec(sys, Ellipsoid(c0, M0), U, horizon, quad_steps=200)
    specA = spec([1.6, 0.5, 0.0], [-0.2, 0.0, 0.0])
    specB = spec([0.0, 0.0, 0.0], [0.2, 0.0, 0.0])
    geom = estimate_encounter(*bundled_quad_nominals(horizon), P3, d=1.0)
    return specA, specB, geom


def bundled_quad_nominals(horizon):
    """The bundled quad pair's nominals on its 0.1 s grid: the centers of
    quad_pair's specs, drifting at their velocities."""
    doc = json.loads(builtin_scenario_path("quadrotor_pair").read_text())
    sc = scenario_from_dict(doc, {"horizon": horizon})
    return build_nominal(sc, 0), build_nominal(sc, 1)


# ---------------------------------------------------------------- encounter


def test_encounter_quadrotor_scenario():
    _, _, geom = quad_pair()
    assert geom.tau == pytest.approx(4.0, abs=1e-12)
    assert np.allclose(geom.l_star[:3], [0.0, 1.0, 0.0], atol=1e-12)
    assert not geom.l_star[3:].any()
    # closed-form check: |(1.6 - 0.4 t, 0.5)| is minimized at t = 4 with gap 0.5
    assert np.linalg.norm(P3 @ geom.c_A_tau - [0.8, 0.0, 0.0]) == pytest.approx(0.5)


def test_encounter_degenerate_geometry():
    traj = NominalTrajectory(np.linspace(0.0, 2.0, 21), np.zeros((21, 10)))
    with pytest.raises(DegenerateGeometryError):
        estimate_encounter(traj, traj, P3, d=1.0)


# ---------------------------------------------------------------- constants


def static_geom(tau, l_pos, c_A, d=1.0):
    n = len(c_A)
    l = np.zeros(n)
    l[:len(l_pos)] = l_pos
    return EncounterGeometry(tau, l / np.linalg.norm(l), d, np.asarray(c_A, dtype=float))


def test_constants_static_system():
    # A = 0, B = I: b = tau * l and gamma_I = tau
    sys = LTISystem(np.zeros((2, 2)), np.eye(2))
    spec = ReachSpec(sys, Ellipsoid.ball([0.0, 0.0], 1.0), Ellipsoid.ball([0.0, 0.0], 1.0), 3.0)
    geom = static_geom(3.0, [1.0, 0.0], [10.0, 0.0])
    c = part1_constants(spec, geom)
    assert np.allclose(c.b, [3.0, 0.0], atol=1e-9)
    assert c.gamma_I == pytest.approx(3.0, abs=1e-9)
    assert c.gamma_U == pytest.approx(3.0, abs=1e-9)
    assert c.x0_term == pytest.approx(1.0, abs=1e-12)


def test_constants_double_integrator():
    sys = LTISystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
    spec = ReachSpec(sys, Ellipsoid.point([0.0, 0.0]), Ellipsoid.ball([0.0], 1.0), 2.0)
    geom = static_geom(2.0, [1.0, 0.0], [10.0, 0.0])
    c = part1_constants(spec, geom)
    assert c.gamma_I == pytest.approx(2.0, abs=1e-9)  # tau^2 / 2


def test_constants_reproduce_reach_support():
    _, specB, geom = quad_pair()
    c = part1_constants(specB, geom)
    assembled = c.a0 + c.offset + float(c.b @ specB.U.center) + c.x0_term + c.gamma_U
    assert assembled == pytest.approx(reach_support(specB, geom.tau, geom.l_star), abs=1e-8)


# ---------------------------------------------------------------- phase one


def test_scaled_far_away_keeps_full_authority():
    # weak coupling and a distant opponent: the log r term dominates and the
    # optimizer keeps the whole set (r -> 1 forces q -> center via the LMI)
    sys = LTISystem(np.zeros((2, 2)), np.eye(2))
    spec = ReachSpec(sys, Ellipsoid.ball([0.0, 0.0], 0.1), Ellipsoid([0.5, 0.0], np.eye(2)), 0.1)
    geom = static_geom(0.1, [1.0, 0.0], [100.0, 0.0])
    c = part1_constants(spec, geom)
    sol = solve_scaled(c, geom, spec.U, k=1.0)
    assert sol.r > 0.99
    assert np.linalg.norm(sol.q - spec.U.center) < 0.02


def test_scaled_k_zero_hits_floor():
    _, specB, geom = quad_pair()
    c = part1_constants(specB, geom)
    sol = solve_scaled(c, geom, specB.U, k=0.0, margin=0.5)
    assert sol.r < 1e-4
    assert sol.distance > 9.0  # essentially the maximal clearance


def test_scaled_double_integrator_matches_grid():
    # independent oracle: brute-force over (q, r) with interval containment
    sys = LTISystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
    spec = ReachSpec(sys, Ellipsoid.point([0.0, 0.0]), Ellipsoid.ball([0.0], 1.0), 2.0)
    geom = static_geom(2.0, [1.0, 0.0], [4.0, 0.0])
    c = part1_constants(spec, geom)
    k, margin = 0.3, 0.1
    sol = solve_scaled(c, geom, spec.U, k=k, margin=margin)
    const = float(geom.l_star @ geom.c_A_tau) - c.a0 - c.offset - c.x0_term
    qs = np.linspace(-1.0, 1.0, 2001)
    rs = np.linspace(1e-3, 1.0, 1000)
    Q, R = np.meshgrid(qs, rs, indexing="ij")
    obj = const - c.b[0] * Q - c.gamma_U * R + k * 1 * np.log(R)
    feas = (np.abs(Q) + R <= 1.0) & (const - c.b[0] * Q - c.gamma_U * R >= margin)
    best = np.where(feas, obj, -np.inf).max()
    assert abs(sol.objective - best) <= 1e-3


def test_norm_isotropic_matches_scaled():
    sys = LTISystem(np.zeros((2, 2)), np.eye(2))
    spec = ReachSpec(sys, Ellipsoid.ball([0.0, 0.0], 0.2), Ellipsoid(np.zeros(2), np.eye(2)), 1.5)
    geom = static_geom(1.5, [1.0, 0.0], [3.0, 0.0])
    c = part1_constants(spec, geom)
    scaled = solve_scaled(c, geom, spec.U, k=0.5, margin=0.1)
    norm = solve_matrix_norm(c, geom, spec.U, k=0.5, margin=0.1)
    # unit-radius control set: sigma and r parameterize the same family
    sigma = np.linalg.eigvalsh(norm.Q)
    assert sigma.max() - sigma.min() <= 1e-4  # isotropic optimum
    assert abs(sigma.mean() - scaled.r) <= 1e-3


def test_norm_uncontrollable_direction_keeps_everything():
    # the input cannot move the avoidance direction: gamma_I = 0 decouples the
    # distance constraint from Q, so Q grows to the containment optimum
    sys = LTISystem(np.zeros((2, 2)), np.array([[1.0], [0.0]]))
    spec = ReachSpec(sys, Ellipsoid.ball([0.0, 0.0], 0.1), Ellipsoid([0.2], np.array([[0.25]])), 2.0)
    geom = static_geom(2.0, [0.0, 1.0], [0.0, 5.0])
    c = part1_constants(spec, geom)
    assert c.gamma_I == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(c.b, 0.0, atol=1e-12)
    sol = solve_matrix_norm(c, geom, spec.U, k=1.0)
    assert sol.Q[0, 0] == pytest.approx(0.5, abs=1e-3)
    assert abs(sol.q[0] - 0.2) <= 1e-3


def test_phase_one_solutions_contained_with_witness():
    _, specB, geom = quad_pair()
    c = part1_constants(specB, geom)
    for sol in [solve_scaled(c, geom, specB.U, 1.0, margin=0.5),
                solve_matrix_norm(c, geom, specB.U, 1.0, margin=0.5)]:
        ok, lam = contains(specB.U, sol.control_set())
        assert ok
        block = containment_block(specB.U, sol.q, sol.Q, sol.lam)
        assert np.linalg.eigvalsh(block).min() >= -1e-8


# ---------------------------------------------------------------- closed forms


def reference_solve_scaled(consts, geom, U_B, k, margin=0.0):
    """The scaled phase one as a log-det barrier program, solved numerically.

    Whitened as in solve_scaled: maximize const - <W b, qt> - gamma_U r
    + k m log r subject to [[1 - lam, 0, qt'], [0, lam I, r I], [qt, r I, I]]
    PSD (containment of E(q, (r W)^2) in U) and the distance term >= margin.
    """
    m = U_B.dim
    W = psd_sqrt(U_B.shape)
    bW = W @ consts.b
    const_term = (float(geom.l_star @ geom.c_A_tau) - consts.a0 - consts.offset
                  - consts.x0_term - float(consts.b @ U_B.center))
    prob = BarrierProblem()
    qt = prob.add_vector_var("q", m)
    r = prob.add_scalar_var("r")
    lam = prob.add_scalar_var("lam")
    prob.add_constant_objective(const_term)
    prob.add_linear_objective(qt, -bW)
    prob.add_linear_objective(r, -consts.gamma_U)
    prob.add_logdet_objective(r, k * m)
    lmi = prob.new_psd_constraint(1 + 2 * m, "containment")
    lmi.F0[0, 0] = 1.0
    lmi.F0[1 + m:, 1 + m:] = np.eye(m)
    lmi.F[lam.offset, 0, 0] = -1.0
    lmi.F[lam.offset, 1:1 + m, 1:1 + m] = np.eye(m)
    lmi.add_vector(qt, 0, 1 + m)
    C = np.zeros((1 + 2 * m, 1 + 2 * m))
    C[1:1 + m, 1 + m:] = np.eye(m)
    C[1 + m:, 1:1 + m] = np.eye(m)
    lmi.add_scalar(r, C)
    prob.add_scalar_constraint("distance", {qt: -bW, r: -consts.gamma_U},
                               const_term - margin)
    prob.add_scalar_constraint("r_floor", {r: [1.0]}, 0.0)
    # the spectral-norm start charges gamma_I for s = 2 eps; charging half of
    # gamma_U there covers r = eps here, and the containment blocks agree
    start = feasibility_restore(bW, 0.5 * consts.gamma_U, const_term - margin)
    return solve(prob, {"q": start["q"], "r": start["Q"][0, 0], "lam": start["lam"]})


def scaled_inputs(b, widths, gamma_U, sup, margin=0.3):
    """Phase-one inputs whose distance slack at r = 0 is about sup."""
    b = np.asarray(b, dtype=float)
    widths = np.asarray(widths, dtype=float)
    m = len(b)
    U = Ellipsoid(np.linspace(-0.5, 0.5, m), np.diag(widths**2))
    consts = PartIConstants(a0=0.0, b=b, x0_term=0.0, gamma_U=gamma_U, gamma_I=gamma_U,
                            offset=0.0)
    const_term = sup + margin - float(np.linalg.norm(widths * b))
    c_A = np.zeros(2)
    c_A[0] = const_term + float(b @ U.center)
    return consts, EncounterGeometry(1.0, np.array([1.0, 0.0]), 1.0, c_A), U


@st.composite
def scaled_cases(draw):
    m = draw(st.integers(1, 3))
    b = draw(st.one_of(st.just([0.0] * m),
                       st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m)))
    widths = draw(st.lists(st.floats(0.3, 3.0), min_size=m, max_size=m))
    gamma_U = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    # the barrier reference needs room for a strictly feasible start
    sup = draw(st.one_of(st.floats(-1.0, -1e-3), st.floats(0.01, 5.0)))
    return b, widths, gamma_U, draw(st.floats(0.02, 3.0)), sup


@settings(max_examples=60, deadline=None)
@given(case=scaled_cases())
@example(case=([1.0], [1.0], 1.0, 1.0, 0.5))  # distance row binds: r* = r_max = 1/4
@example(case=([0.1, 0.2], [1.0, 0.5], 0.1, 3.0, 5.0))  # r* = 1
@example(case=([0.0, 0.0], [2.0, 0.5], 1.0, 0.3, 2.0))  # b~ = 0
@example(case=([0.5, -1.0, 0.2], [0.7, 1.3, 2.0], 0.0, 0.2, 1.0))  # gamma_U = 0
@example(case=([0.0], [1.0], 0.0, 1.0, 1.0))  # b~ = 0 and gamma_U = 0: r* = 1
@example(case=([0.0], [1.0], 1.0, 1.0, 1.0))  # r* = 1 = k m / slope
def test_scaled_closed_form_matches_barrier(case):
    b, widths, gamma_U, k, sup = case
    consts, geom, U = scaled_inputs(b, widths, gamma_U, sup)
    if sup <= 0.0:
        with pytest.raises(InfeasibleProblemError) as exc:
            solve_scaled(consts, geom, U, k, margin=0.3)
        assert exc.value.constraint == "distance"
        return
    sol = solve_scaled(consts, geom, U, k, margin=0.3)
    # at r* = 1 the containment LMI is singular at the optimum and the
    # barrier may stop with status max_iter; its value is still accurate
    ref = reference_solve_scaled(consts, geom, U, k, margin=0.3)
    assert abs(sol.objective - ref.objective) <= 1e-6 * (1.0 + abs(ref.objective))
    # the barrier stops at a duality gap of nu / mu (objective units scaled by
    # the largest coefficient), and the objective is concave in r with
    # curvature >= k m; where r* = 1 = k m / slope, at the kink of the two
    # branches, that leaves the reference's r off by up to sqrt(2 gap / (k m))
    m = len(b)
    scale = max(1.0, float(np.abs(np.asarray(widths) * b).max()), gamma_U, k * m)
    gap = (2 * m + 3) / ref.barrier_mu_final * scale
    assert abs(sol.r - ref.values["r"]) <= max(1e-5, np.sqrt(2.0 * gap / (k * m)))
    assert sol.distance >= 0.3 - 1e-12 * (1.0 + abs(sol.distance))
    # lam = r is an exact S-lemma witness of the containment
    assert sol.lam == sol.r
    block = containment_block(U, sol.q, sol.Q, sol.lam)
    assert np.linalg.eigvalsh(block).min() >= -1e-12 * np.abs(block).max()
    assert (sol.status, sol.kkt_residual, sol.newton_steps, sol.barrier_mu_final,
            sol.stage_objectives) == ("optimal", 0.0, 0, None, ())


class _Captured(Exception):
    pass


def norm_start(consts, const_term, U, margin):
    """(problem, start) that _norm_program hands to the barrier solver."""
    seen = {}

    def capture(prob, init):
        seen.update(prob=prob, init=init)
        raise _Captured

    row = DistanceRow("distance", const_term, margin, (("B", consts.b, consts.gamma_I),))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthesis, "solve", capture)
        with pytest.raises(_Captured):
            synthesis._norm_program(row, U, 1.0, 1.0)
    return seen["prob"], seen["init"]


@st.composite
def norm_cases(draw):
    m = draw(st.integers(1, 3))
    b = draw(st.one_of(st.just([0.0] * m),
                       st.lists(st.floats(-100.0, 100.0), min_size=m, max_size=m)))
    widths = draw(st.lists(st.floats(0.01, 100.0), min_size=m, max_size=m))
    gamma_I = draw(st.one_of(st.just(0.0), st.floats(0.0, 100.0)))
    const_term = draw(st.floats(-1000.0, 1000.0))
    return b, widths, gamma_I, const_term, draw(st.floats(0.0, 5.0))


@settings(max_examples=300, deadline=None)
@given(case=norm_cases())
@example(case=([0.8], [1.0], 0.5, 0.3, 0.05))  # the centered start is feasible
@example(case=([0.8], [1.0], 0.5, -2.0, 0.05))  # no admissible center clears the margin
@example(case=([0.8], [1.0], 0.5, 0.3, 0.5))  # only a shifted center clears it
@example(case=([0.0, 0.0], [1.0, 3.0], 2.0, 1e-3, 0.0))  # b~ = 0: eps alone must shrink
# the centered start's distance slack is exactly INIT_MARGIN, which the start
# check accepts: the start must stay centered
@example(case=([1.0], [1.0], 0.0, 1e-08, 0.0))
def test_norm_start_strictly_feasible(case):
    b, widths, gamma_I, const_term, margin = case
    U = Ellipsoid(np.zeros(len(b)), np.diag(np.asarray(widths) ** 2))
    consts = PartIConstants(a0=0.0, b=np.asarray(b, dtype=float), x0_term=0.0,
                            gamma_U=gamma_I, gamma_I=gamma_I, offset=0.0)
    W = psd_sqrt(U.shape)
    bW = W @ consts.b
    beta = float(np.linalg.norm(bW))
    # the distance slack at the best admissible center, as the set collapses
    sup = (const_term - margin) + beta
    if sup <= 0.0:
        with pytest.raises(InfeasibleProblemError) as exc:
            norm_start(consts, const_term, U, margin)
        assert exc.value.constraint == "distance"
        return
    prob, init = norm_start(consts, const_term, U, margin)
    g = gamma_I * float(np.linalg.eigvalsh(W).min())
    centered = {"q": np.zeros(len(b)), "Q": 1e-3 * np.eye(len(b)), "lam": 0.5, "s": 2e-3}
    sb = prob.stacked()
    if sb.worst_violation(prob.pack(centered))[1] >= INIT_MARGIN:
        # every solve that started there before keeps its start
        for name, v in centered.items():
            assert np.array_equal(init[name], v), name
    # no point at all is strictly feasible at INIT_MARGIN once the slack is
    # about INIT_MARGIN times the coefficients; the start needs a factor ~30 more
    if sup > 1e-6 * (1.0 + beta + g):
        assert sb.worst_violation(prob.pack(init))[1] >= INIT_MARGIN
        if beta > 0.0 and not np.array_equal(init["q"], centered["q"]):
            # the center slides against b~, which raises the distance slack
            assert float(bW @ init["q"]) < 0.0


@functools.cache
def bundled_synthesis_inputs(name):
    """(specs without disturbance, geometry, P, output grid) of a bundled scenario."""
    sc = scenario_from_dict(json.loads(builtin_scenario_path(name).read_text()))
    P = position_projection(sc)
    geom = estimate_encounter(build_nominal(sc, 0), build_nominal(sc, 1), P, sc.d)
    specs = tuple(build_spec(sc, i, with_disturbance=False) for i in (0, 1))
    return specs, geom, P, np.arange(0.0, sc.horizon + 1e-9, sc.grid_step)


def unit_floats(n):
    return st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).map(np.array)


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(["quadrotor_pair", "fixedwing_pair"]), i=st.integers(0, 1),
       at_encounter=st.booleans(), center=st.floats(0.0, 0.99), size=st.floats(1e-3, 1.0),
       data=st.data())
def test_distance_row_bounds_reach_support(name, i, at_encounter, center, size, data):
    # for any sub-ellipsoid E(q, Q^2) of U and s = ||Q||_2, the support bound
    # the row charges (target minus its distance term) is at least the
    # kernel's support of the reach set with that control set
    specs, geom, P, t_grid = bundled_synthesis_inputs(name)
    spec, m = specs[i], specs[i].U.dim
    if at_encounter:
        t, l = geom.tau, (1.0 if i else -1.0) * geom.l_star
    else:
        t = float(t_grid[data.draw(st.integers(1, len(t_grid) - 1))])
        l_pos = data.draw(unit_floats(P.shape[0]))
        assume(np.linalg.norm(l_pos) > 1e-3)
        l = P.T @ (l_pos / np.linalg.norm(l_pos))
    # E(qt, A^2) inside the unit ball, mapped into U = E(c_U, W^2) by W
    v = data.draw(unit_floats(m))
    qt = center * v / max(1.0, float(np.linalg.norm(v)))
    G = data.draw(unit_floats(m * m)).reshape(m, m)
    A = G @ G.T + 1e-6 * np.eye(m)
    A *= size * (1.0 - float(np.linalg.norm(qt))) / np.linalg.norm(A, 2)
    W = spec.U.sqrt_shape()
    q, Q = spec.U.center + W @ qt, psd_sqrt(W @ A @ A @ W)
    consts = part1_constants(spec, EncounterGeometry(t, l, geom.d, geom.c_A_tau))
    row = distance_row(consts, 0.0, spec.U, 0.0, "AB"[i])
    (_, b, gamma_I), = row.terms
    bound = -(row.const - float(b @ (q - spec.U.center)) - gamma_I * np.linalg.norm(Q, 2))
    rho = reach_support(dataclasses.replace(spec, U=Ellipsoid(q, Q @ Q)), t, l)
    assert bound >= rho - 1e-9 * max(1.0, abs(rho))


def test_both_phases_build_one_block_and_one_row():
    # the variables and the stacked block order the barrier solver sees: the
    # log-det objective, the aircraft block's PSD blocks, then the rows
    specA, specB, geom = quad_pair()
    layouts = []

    def recording_solve(prob, init):
        layouts.append((tuple(prob.blocks), prob.stacked().names))
        return solve(prob, init)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthesis, "solve", recording_solve)
        scalarization_loop(specA, specB, geom, P3, method="norm")
    assert layouts == [(("q", "Q", "lam", "s"), ("logdet(Q)", "containment", "spectral_epigraph",
                                                 "Q_psd", "distance", "s_cap"))] * 2


# ---------------------------------------------------------------- safe set


def test_safe_set_point_reach_plus_ball():
    sys = LTISystem(np.zeros((2, 2)), np.zeros((2, 1)))
    spec = ReachSpec(sys, Ellipsoid.point([3.0, 4.0]), Ellipsoid.point([0.0]), 1.0)
    ball = safe_set(spec, 1.0, 0.7, np.array([0.0, 1.0]), np.eye(2))
    assert np.allclose(ball.center, [3.0, 4.0])
    assert np.allclose(ball.shape, 0.49 * np.eye(2), atol=1e-12)


def test_safe_set_support_matches_reach_support():
    _, specB, geom = quad_pair()
    c = part1_constants(specB, geom)
    sol = solve_matrix_norm(c, geom, specB.U, 1.0, margin=0.5)
    shrunk = dataclasses.replace(specB, U=sol.control_set())
    l_pos = P3 @ geom.l_star
    for d in [0.0, 1.0]:
        s = safe_set(shrunk, geom.tau, d, geom.l_star, P3)
        rho = support(s, l_pos)[0]
        assert rho == pytest.approx(reach_support(shrunk, geom.tau, geom.l_star) + d, abs=1e-6)


def test_safe_set_contains_inflated_samples():
    _, specB, geom = quad_pair()
    c = part1_constants(specB, geom)
    sol = solve_matrix_norm(c, geom, specB.U, 1.0, margin=0.5)
    shrunk = dataclasses.replace(specB, U=sol.control_set())
    d = 1.0
    s = safe_set(shrunk, geom.tau, d, geom.l_star, P3)
    t_grid = np.linspace(0.0, geom.tau, 41)
    pts = sample_trajectories(shrunk, t_grid, 2000, seed=3)[:, -1, :3]
    rng = np.random.default_rng(8)
    for _ in range(64):
        m = rng.standard_normal(3)
        m /= np.linalg.norm(m)
        assert (pts @ m + d).max() <= support(s, m)[0] + 1e-6


@functools.cache
def bundled_fixedwing_phase_one():
    """(B's spec shrunk by phase one, geometry, P) of bundled fixed-wing at
    tau: a center offset and a 2-D projection."""
    sc = scenario_from_dict(json.loads(builtin_scenario_path("fixedwing_pair").read_text()))
    P = position_projection(sc)
    geom = estimate_encounter(build_nominal(sc, 0), build_nominal(sc, 1), P, sc.d)
    specB = build_spec(sc, 1, with_disturbance=False)
    sol = solve_matrix_norm(part1_constants(specB, geom), geom, specB.U, sc.k0,
                            margin=0.5 * geom.d)
    return dataclasses.replace(specB, U=sol.control_set()), geom, P


def test_safe_set_support_matches_reach_support_fixedwing():
    shrunk, geom, P = bundled_fixedwing_phase_one()
    assert shrunk.center_offset is not None and P.shape[0] == 2
    for d in [0.0, geom.d]:
        s = safe_set(shrunk, geom.tau, d, geom.l_star, P)
        rho = support(s, P @ geom.l_star)[0]
        # the safe set weighs the control nodes by plain Simpson, the kernel
        # takes the midpoint on a vanishing panel: 5.4e-6 m apart here
        assert rho == pytest.approx(reach_support(shrunk, geom.tau, geom.l_star) + d, abs=1e-5)


def test_safe_set_contains_inflated_samples_fixedwing():
    shrunk, geom, P = bundled_fixedwing_phase_one()
    s = safe_set(shrunk, geom.tau, geom.d, geom.l_star, P)
    t_grid = np.linspace(0.0, geom.tau, 101)
    pts = sample_trajectories(shrunk, t_grid, 2000, seed=3)[:, -1] @ P.T
    angles = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    for m in np.stack([np.cos(angles), np.sin(angles)], axis=1):
        assert (pts @ m + geom.d).max() <= support(s, m)[0] + 1e-6


# ---------------------------------------------------------------- phase two


def test_part2_far_safe_set_keeps_full_authority():
    # "far" must beat the norm bound s_cap * gamma_I (~12.6 km here), since
    # the spectral bound charges the full torque sensitivity to every axis
    specA, specB, geom = quad_pair()
    far = Ellipsoid.ball([0.0, -20000.0, 0.0], 1.0)
    sol = solve_part2(specA, far, geom, P3)
    W = specA.U.sqrt_shape()
    assert np.allclose(sol.Q, W, atol=1e-3 * np.abs(W).max())
    assert np.linalg.norm(sol.q - specA.U.center) <= 1e-4


def test_part2_certifies_tau_separation():
    specA, specB, geom = quad_pair()
    c = part1_constants(specB, geom)
    solB = solve_matrix_norm(c, geom, specB.U, 1.0, margin=0.5)
    shrunkB = dataclasses.replace(specB, U=solB.control_set())
    sB = safe_set(shrunkB, geom.tau, geom.d, geom.l_star, P3)
    solA = solve_part2(specA, sB, geom, P3)
    shrunkA = dataclasses.replace(specA, U=solA.control_set())
    lo_A = -reach_support(shrunkA, geom.tau, -geom.l_star)
    hi_B = reach_support(shrunkB, geom.tau, geom.l_star)
    assert lo_A - hi_B >= geom.d - 1e-6


# ---------------------------------------------------------------- loop


def test_loop_single_iteration_when_feasible():
    specA, specB, geom = quad_pair()
    solB, solA, k_used, diags = scalarization_loop(specA, specB, geom, P3,
                                                   method="norm", k0=1.0, shrink=0.8)
    assert k_used == 1.0
    assert len(diags) == 1 and diags[0]["outcome"] == "feasible"
    # phase two carries the safe set it was solved against
    safeB = safe_set(dataclasses.replace(specB, U=solB.control_set()), geom.tau, geom.d,
                     geom.l_star, P3)
    assert np.array_equal(solA.safe_set.center, safeB.center)
    assert np.array_equal(solA.safe_set.shape, safeB.shape)
    assert solB.safe_set is None


def test_loop_shrinks_k_until_feasible():
    # margin2 = 15 exceeds what A can clear while B keeps a large set, so the
    # first iterations are phase-two infeasible until k comes down
    specA, specB, geom = quad_pair()
    solB, solA, k_used, diags = scalarization_loop(
        specA, specB, geom, P3, method="norm", k0=40.0, shrink=0.25, margin2=15.0)
    assert k_used < 40.0
    assert len(diags) >= 2
    assert all(d["outcome"].startswith("phase two infeasible") for d in diags[:-1])
    assert diags[-1]["outcome"] == "feasible"


def test_loop_reports_joint_infeasibility():
    # almost no control authority and a fat initial set: phase one cannot hold
    # the nominal clearance no matter what k is
    sys = quad_system()
    def spec(pos, vel):
        c0 = np.zeros(10)
        c0[0:3] = pos
        c0[3:6] = vel
        M0 = np.diag([0.4**2] * 3 + [0.01**2] * 3 + [0.0] * 4)
        U = Ellipsoid(np.zeros(3), 1e-12 * np.eye(3))
        return ReachSpec(sys, Ellipsoid(c0, M0), U, 4.0, quad_steps=200)
    specA = spec([1.6, 0.5, 0.0], [-0.2, 0.0, 0.0])
    specB = spec([0.0, 0.0, 0.0], [0.2, 0.0, 0.0])
    geom = estimate_encounter(*bundled_quad_nominals(4.0), P3, d=1.0)
    with pytest.raises(JointInfeasibilityError) as exc:
        scalarization_loop(specA, specB, geom, P3, method="norm", k0=1.0, shrink=0.8)
    assert "distance" in str(exc.value)


def test_pareto_monotone_in_k():
    _, specB, geom = quad_pair()
    c = part1_constants(specB, geom)
    sols = [solve_scaled(c, geom, specB.U, k, margin=0.5) for k in [0.25, 0.5, 0.75, 1.0]]
    rs = [s.r for s in sols]
    ds = [s.distance for s in sols]
    assert all(np.diff(rs) >= -1e-6)
    assert all(np.diff(ds) <= 1e-6)


@functools.cache
def bundled_fixedwing_coarse_grid():
    """(solB, solA) of bundled fixed-wing at the 0.5 s grid, where B's phase
    one reaches its rounding floor with the gradient norm above the stage
    target (l* is exactly (0, 1) there)."""
    doc = json.loads(builtin_scenario_path("fixedwing_pair").read_text())
    doc["grid_step_s"] = 0.5
    sc = scenario_from_dict(doc)
    P = position_projection(sc)
    geom = estimate_encounter(build_nominal(sc, 0), build_nominal(sc, 1), P, sc.d)
    specA, specB = (build_spec(sc, i, with_disturbance=False) for i in (0, 1))
    solB, solA, _, _ = scalarization_loop(
        specA, specB, geom, P, method=sc.method, k0=sc.k0, shrink=sc.shrink,
        margin1=sc.margin1, margin2=sc.margin2, max_iters=sc.max_iters)
    return solB, solA


def test_bundled_fixedwing_stages_end_below_step_cap():
    # the stage must stop at the rounding floor instead of taking
    # null-progress steps until MAX_NEWTON (264 steps in all)
    solB, solA = bundled_fixedwing_coarse_grid()
    assert solB.newton_steps < MAX_NEWTON
    assert solA.newton_steps < MAX_NEWTON


def test_bundled_fixedwing_phase_one_reads_stalled():
    # that stop is above KKT_TOL but far below the step cap: stalled, not max_iter
    solB, solA = bundled_fixedwing_coarse_grid()
    assert solB.status == "stalled"
    assert solB.kkt_residual > KKT_TOL
    assert solA.status == "optimal"

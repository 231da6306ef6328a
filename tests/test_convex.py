import numpy as np
import pytest

from reachsep.convex import (
    BarrierProblem,
    InfeasibleProblemError,
    InfeasibleStartError,
    feasibility_restore,
    solve,
    sym_to_vec,
    vec_to_sym,
)


def logdet_under_identity():
    # maximize log det Q subject to Q <= I, Q symmetric 2x2
    p = BarrierProblem()
    Q = p.add_symmetric_var("Q", 2)
    p.add_logdet_objective(Q, 1.0)
    lmi = p.new_psd_constraint(2, "cap")
    lmi.set_const(0, 0, np.eye(2))
    lmi.add_symmetric(Q, 0, 0, coeff=-1.0)
    return p, Q


def scaled_toy(const=0.3, b=0.8, gamma=0.5, k=0.2, margin=0.05):
    # 1-d control set U = [-1, 1]: maximize const - b q - gamma r + k log r
    # s.t. E(q, r^2) inside U (the 3x3 containment LMI), distance >= margin
    p = BarrierProblem()
    q = p.add_vector_var("q", 1)
    r = p.add_scalar_var("r")
    lam = p.add_scalar_var("lam")
    p.add_constant_objective(const)
    p.add_linear_objective(q, [-b])
    p.add_linear_objective(r, -gamma)
    p.add_logdet_objective(r, k)
    lmi = p.new_psd_constraint(3, "containment")
    lmi.F0[0, 0] = 1.0
    lmi.F0[2, 2] = 1.0
    lmi.F[lam.offset, 0, 0] = -1.0
    lmi.F[lam.offset, 1, 1] = 1.0
    lmi.add_vector(q, 0, 2)
    lmi.F[r.offset, 1, 2] = 1.0
    lmi.F[r.offset, 2, 1] = 1.0
    p.add_scalar_constraint("distance", {q: [-b], r: [-gamma]}, const - margin)
    p.add_scalar_constraint("r_floor", {r: [1.0]}, 0.0)
    p.restore_hint = {"q": q, "shape": r, "lam": lam}
    return p


def toy_objective(const, b, gamma, k, q, r):
    return const - b * q - gamma * r + k * np.log(r)


def toy_grid_optimum(const, b, gamma, k, margin):
    # independent oracle: brute-force grid over (q, r) using the closed-form
    # containment condition |q| + r <= 1
    q = np.linspace(-1.0, 1.0, 2001)
    r = np.linspace(1e-3, 1.0, 1000)
    Q, R = np.meshgrid(q, r, indexing="ij")
    obj = toy_objective(const, b, gamma, k, Q, R)
    feas = (np.abs(Q) + R <= 1.0) & (const - b * Q - gamma * R >= margin)
    obj = np.where(feas, obj, -np.inf)
    i, j = np.unravel_index(np.argmax(obj), obj.shape)
    return obj[i, j], q[i], r[j]


def test_logdet_under_identity_cap():
    p, Q = logdet_under_identity()
    res = solve(p, {"Q": 0.5 * np.eye(2)})
    assert res.status == "optimal"
    assert np.allclose(res.values["Q"], np.eye(2), atol=1e-6)
    assert res.objective == pytest.approx(0.0, abs=1e-6)
    assert res.kkt_residual <= 1e-6


def test_linear_over_unit_ball():
    # maximize <c, q> s.t. [[1, q'], [q, I]] >= 0, i.e. ||q|| <= 1
    c = np.array([3.0, -4.0])
    p = BarrierProblem()
    q = p.add_vector_var("q", 2)
    p.add_linear_objective(q, c)
    ball = p.new_psd_constraint(3, "ball")
    ball.F0[0, 0] = 1.0
    ball.F0[1:, 1:] = np.eye(2)
    ball.add_vector(q, 0, 1)
    res = solve(p, {"q": np.zeros(2)})
    assert res.status == "optimal"
    assert np.allclose(res.values["q"], c / np.linalg.norm(c), atol=1e-6)


def test_toy_matches_grid_oracle():
    const, b, gamma, k, margin = 0.3, 0.8, 0.5, 0.2, 0.05
    p = scaled_toy(const, b, gamma, k, margin)
    init = feasibility_restore(p)
    res = solve(p, init)
    assert res.status == "optimal"
    grid_best, _, _ = toy_grid_optimum(const, b, gamma, k, margin)
    assert abs(res.objective - grid_best) <= 1e-3


def test_infeasible_start_rejected():
    p, Q = logdet_under_identity()
    with pytest.raises(InfeasibleStartError):
        solve(p, {"Q": 2.0 * np.eye(2)})


def test_monotone_central_path():
    p = scaled_toy()
    res = solve(p, feasibility_restore(p))
    diffs = np.diff(res.stage_objectives)
    assert (diffs >= -1e-9).all()


def test_scaling_robustness():
    base = scaled_toy(const=0.3, b=0.8, gamma=0.5, k=0.2)
    scaled = scaled_toy(const=3.0, b=8.0, gamma=5.0, k=2.0)
    r1 = solve(base, feasibility_restore(base))
    r2 = solve(scaled, feasibility_restore(scaled))
    assert abs(r1.values["q"][0] - r2.values["q"][0]) <= 1e-5
    assert abs(r1.values["r"] - r2.values["r"]) <= 1e-5


def test_perturbation_certificate():
    p = scaled_toy()
    res = solve(p, feasibility_restore(p))
    x_star = p.pack(res.values)
    rng = np.random.default_rng(2)
    tried = 0
    for _ in range(500):
        dx = 1e-3 * rng.standard_normal(p.total_dim)
        x = x_star + dx
        if not p.strictly_feasible(x):
            continue
        tried += 1
        assert p.objective(x) <= res.objective + 1e-6
        if tried >= 100:
            break
    assert tried >= 100


def test_restore_is_strictly_feasible():
    p = scaled_toy()
    init = feasibility_restore(p)
    assert p.strictly_feasible(p.pack(init), margin=1e-8)


def test_restore_reports_structural_infeasibility():
    # distance constant so low that no admissible control center helps
    p = scaled_toy(const=-2.0)
    with pytest.raises(InfeasibleProblemError) as exc:
        feasibility_restore(p)
    assert exc.value.constraint == "distance"


def test_restore_slides_center_when_needed():
    # centered start violates the distance margin but a shifted center works
    p = scaled_toy(const=0.3, b=0.8, margin=0.5)
    init = feasibility_restore(p)
    assert p.strictly_feasible(p.pack(init), margin=1e-8)
    assert init["q"][0] < 0.0  # slid against the b coefficient


def test_sym_vec_roundtrip():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((4, 4))
    M = M + M.T
    assert np.allclose(vec_to_sym(sym_to_vec(M), 4), M)

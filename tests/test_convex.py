import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachsep import convex
from reachsep.convex import (
    INIT_MARGIN,
    BarrierProblem,
    InfeasibleProblemError,
    InfeasibleStartError,
    solve,
    sym_to_vec,
    vec_to_sym,
)
from reachsep.synthesis import feasibility_restore


def logdet_under_identity():
    # maximize log det Q subject to Q <= I, Q symmetric 2x2
    p = BarrierProblem()
    Q = p.add_symmetric_var("Q", 2)
    p.add_logdet_objective(Q, 1.0)
    lmi = p.new_psd_constraint(2, "cap")
    lmi.F0[:] = np.eye(2)
    lmi.add_symmetric(Q, 0, 0, coeff=-1.0)
    p.radius = np.sqrt(2.0)  # 0 < Q <= I: |x| <= ||Q||_F <= sqrt(2)
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
    p.radius = np.sqrt(2.0)  # containment: q^2 + r^2 <= 1 and lam in [0, 1]
    return p


# strictly feasible for every scaled_toy below: the distance slack at a
# centered, nearly collapsed set is const - 1e-3 gamma - margin > 0
SCALED_START = {"q": [0.0], "r": 1e-3, "lam": 0.5}


def norm_toy(b=(0.6, -0.3), gamma=0.4, margin=0.05, const=0.5):
    # the spectral-norm program's shape on the unit-ball control set: maximize
    # const - <b, q> - gamma s + log det Q s.t. E(q, Q^2) inside the ball,
    # s I >= Q > 0 (the log-det block) and distance const - <b, q> - gamma s >= margin
    m = len(b)
    p = BarrierProblem()
    q = p.add_vector_var("q", m)
    Q = p.add_symmetric_var("Q", m)
    lam = p.add_scalar_var("lam")
    s = p.add_scalar_var("s")
    p.add_constant_objective(const)
    p.add_linear_objective(q, -np.asarray(b))
    p.add_linear_objective(s, -gamma)
    p.add_logdet_objective(Q, 1.0)
    lmi = p.new_psd_constraint(1 + 2 * m, "containment")
    lmi.F0[0, 0] = 1.0
    lmi.F0[1 + m:, 1 + m:] = np.eye(m)
    lmi.F[lam.offset, 0, 0] = -1.0
    lmi.F[lam.offset, 1:1 + m, 1:1 + m] = np.eye(m)
    lmi.add_vector(q, 0, 1 + m)
    lmi.add_symmetric_rmul(Q, 1, 1 + m, np.eye(m))
    epi = p.new_psd_constraint(m, "spectral_epigraph")
    epi.add_scalar(s, np.eye(m))
    epi.add_symmetric(Q, 0, 0, coeff=-1.0)
    p.add_scalar_constraint("distance", {q: -np.asarray(b), s: [-gamma]}, const - margin)
    p.add_scalar_constraint("s_cap", {s: [-1.0]}, 2.0)
    p.radius = np.sqrt(2.0 + (m + 4))  # the AircraftBlock bound with W = I
    return p


NORM_START = {"q": np.zeros(2), "Q": 1e-3 * np.eye(2), "lam": 0.5, "s": 2e-3}


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


def assert_certified(res):
    # optimal means certified: the dual bound is at most GAP_TOL relative
    # above the objective, and its stationarity residual is at rounding level
    assert res.status == "optimal"
    assert res.dual_bound - res.objective == res.optimality_gap
    assert 0.0 <= res.optimality_gap <= convex.GAP_TOL * max(1.0, abs(res.objective))
    assert res.kkt_residual <= 1e-12


def test_logdet_under_identity_cap():
    # the optimum is Q = I, log det 0
    p, Q = logdet_under_identity()
    res = solve(p, {"Q": 0.5 * np.eye(2)})
    assert_certified(res)
    assert np.allclose(res.values["Q"], np.eye(2), atol=1e-6)
    assert res.objective <= 0.0 <= res.dual_bound


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
    p.radius = 1.0
    res = solve(p, {"q": np.zeros(2)})
    assert_certified(res)
    assert res.objective <= 5.0 <= res.dual_bound
    assert np.allclose(res.values["q"], c / np.linalg.norm(c), atol=1e-6)


def test_toy_matches_grid_oracle():
    const, b, gamma, k, margin = 0.3, 0.8, 0.5, 0.2, 0.05
    p = scaled_toy(const, b, gamma, k, margin)
    res = solve(p, SCALED_START)
    assert_certified(res)
    grid_best, _, _ = toy_grid_optimum(const, b, gamma, k, margin)
    assert grid_best <= res.dual_bound
    assert abs(res.objective - grid_best) <= 1e-3


def test_infeasible_start_rejected():
    p, Q = logdet_under_identity()
    with pytest.raises(InfeasibleStartError):
        solve(p, {"Q": 2.0 * np.eye(2)})


def test_infeasible_start_names_violated_logdet_block():
    # Q = diag(0.5, -0.1) satisfies the cap I - Q >= 0 (margin 0.5) but not
    # the log-det domain Q > 0, so the error names logdet(Q) and its -0.1
    p, _ = logdet_under_identity()
    x = p.pack({"Q": np.diag([0.5, -0.1])})
    assert p.stacked().worst_violation(x) == ("logdet(Q)", pytest.approx(-0.1))
    with pytest.raises(InfeasibleStartError, match=r"'logdet\(Q\)', margin -1.000e-01"):
        solve(p, {"Q": np.diag([0.5, -0.1])})


@pytest.mark.parametrize("coeffs", [None, [1.0, 0.0]])
def test_variable_in_no_block_is_named(coeffs):
    # F_mu's Hessian has a zero row at a coordinate that enters no block, so
    # no Newton step is defined there: unused, or one coordinate of a vector
    # read by a scalar row alone
    p = BarrierProblem()
    Q = p.add_symmetric_var("Q", 2)
    v = p.add_vector_var("v", 2)
    p.add_logdet_objective(Q, 1.0)
    lmi = p.new_psd_constraint(2, "cap")
    lmi.F0[:] = np.eye(2)
    lmi.add_symmetric(Q, 0, 0, coeff=-1.0)
    if coeffs is not None:
        p.add_scalar_constraint("row", {v: coeffs}, 1.0)
    with pytest.raises(ValueError, match="variable 'v' enters no block"):
        solve(p, {"Q": 0.5 * np.eye(2), "v": np.zeros(2)})


def test_start_within_init_margin_rejected():
    # Q = diag(0.5, INIT_MARGIN / 2) is positive definite, so G has a Cholesky
    # factor, but its smallest eigenvalue is below INIT_MARGIN: the start is
    # refused and the error names logdet(Q); at 2 INIT_MARGIN it is accepted
    p, _ = logdet_under_identity()
    with pytest.raises(InfeasibleStartError, match=r"'logdet\(Q\)', margin 5.000e-09"):
        solve(p, {"Q": np.diag([0.5, 0.5 * INIT_MARGIN])})
    assert_certified(solve(p, {"Q": np.diag([0.5, 2.0 * INIT_MARGIN])}))


def test_monotone_central_path():
    p = scaled_toy()
    res = solve(p, SCALED_START)
    diffs = np.diff(res.stage_objectives)
    assert (diffs >= -1e-9).all()


def test_scaling_robustness():
    base = scaled_toy(const=0.3, b=0.8, gamma=0.5, k=0.2)
    scaled = scaled_toy(const=3.0, b=8.0, gamma=5.0, k=2.0)
    r1 = solve(base, SCALED_START)
    r2 = solve(scaled, SCALED_START)
    assert abs(r1.values["q"][0] - r2.values["q"][0]) <= 1e-5
    assert abs(r1.values["r"] - r2.values["r"]) <= 1e-5


def test_perturbation_certificate():
    p = scaled_toy()
    res = solve(p, SCALED_START)
    x_star = p.pack(res.values)
    sb = p.stacked()
    rng = np.random.default_rng(2)
    tried = 0
    for _ in range(500):
        dx = 1e-3 * rng.standard_normal(p.total_dim)
        x = x_star + dx
        if not sb.worst_violation(x)[1] > 0.0:
            continue
        tried += 1
        assert sb.objective(x) <= res.objective + 1e-6
        if tried >= 100:
            break
    assert tried >= 100


def norm_toy_start(b=(0.6, -0.3), gamma=0.4, margin=0.05, const=0.5):
    # the closed-form start of the spectral-norm program: norm_toy is that
    # program already whitened, so bW = b and the distance row's s charge is gamma
    return feasibility_restore(np.asarray(b, dtype=float), gamma, const - margin)


def test_restore_is_strictly_feasible():
    p = norm_toy()
    init = norm_toy_start()
    assert p.stacked().worst_violation(p.pack(init))[1] >= 1e-8


def test_restore_reports_structural_infeasibility():
    # distance constant so low that no admissible control center helps
    with pytest.raises(InfeasibleProblemError) as exc:
        norm_toy_start(const=-2.0)
    assert exc.value.constraint == "distance"


def test_restore_slides_center_when_needed():
    # centered start violates the distance margin but a shifted center works
    b = np.array([0.6, -0.3])
    p = norm_toy(b=b, margin=0.6)
    init = norm_toy_start(b=b, margin=0.6)
    assert p.stacked().worst_violation(p.pack(init))[1] >= 1e-8
    assert not p.stacked().worst_violation(p.pack(NORM_START))[1] >= 1e-8
    assert float(b @ init["q"]) < 0.0  # slid against the b coefficient


def test_sym_vec_roundtrip():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((4, 4))
    M = M + M.T
    assert np.allclose(vec_to_sym(sym_to_vec(M), 4), M)


def test_logdet_objective_refuses_a_vector_block():
    # a 1x1 log-det block would read only the vector's first entry
    p = BarrierProblem()
    q = p.add_vector_var("q", 2)
    for k in (1.0, 0.0):
        with pytest.raises(ValueError, match="vector block 'q'"):
            p.add_logdet_objective(q, k)
    assert p.logdets == []


def test_scalar_rows_are_one_by_one_blocks():
    # a scalar row is a 1x1 block: const at F0[0, 0], each block's
    # coefficients on F[:, 0, 0]; stacked places it after the log-det and
    # PSD blocks, in insertion order, by the same loop
    p = BarrierProblem()
    q, r = p.add_vector_var("q", 2), p.add_scalar_var("r")
    p.add_scalar_constraint("first", {q: [2.0, -3.0], r: [0.5]}, 1.5)
    p.add_logdet_objective(r, 2.0)
    p.new_psd_constraint(2, "psd").add_scalar(r, np.eye(2))
    p.add_scalar_constraint("second", {r: [-1.0]}, 4.0)
    row = p.scalars[0]
    assert (row.name, row.dim, row.F0.tolist()) == ("first", 1, [[1.5]])
    assert row.F[:, 0, 0].tolist() == [2.0, -3.0, 0.5]
    sb = p.stacked()
    assert sb.names == ("logdet(r)", "psd", "first", "second")
    assert sb.starts == (0, 1, 3, 4, 5)
    x = np.array([0.1, 0.2, 0.7])
    np.testing.assert_allclose(np.diag(sb.value(x))[3:], [1.5 + 0.2 - 0.6 + 0.35, 4.0 - 0.7],
                               rtol=1e-15)


def _loop_placement(F, block, kind, row0, col0, coeff, R):
    """Reference: the entry-by-entry loops the placement methods replaced."""
    m = block.size
    if kind == "vector":
        for k in range(m):
            F[block.offset + k, row0, col0 + k] += coeff
            F[block.offset + k, col0 + k, row0] += coeff
        return
    for k, (a, b) in enumerate([(a, b) for a in range(m) for b in range(a, m)]):
        i = block.offset + k
        if kind == "symmetric":
            F[i, row0 + a, col0 + b] += coeff
            if a != b:
                F[i, row0 + b, col0 + a] += coeff
            if row0 != col0:
                F[i, col0 + b, row0 + a] += coeff
                if a != b:
                    F[i, col0 + a, row0 + b] += coeff
        else:
            C = np.zeros((m, R.shape[1]))
            C[a] += coeff * R[b]
            if a != b:
                C[b] += coeff * R[a]
            F[i, row0:row0 + m, col0:col0 + R.shape[1]] += C
            F[i, col0:col0 + R.shape[1], row0:row0 + m] += C.T


@pytest.mark.parametrize("seed", range(20))
def test_placement_matches_entry_loops(seed):
    # the basis writes give the loops' F tensors bit for bit, so every
    # solver iterate stays the same
    rng = np.random.default_rng(seed)
    m, dim = int(rng.integers(1, 4)), 9
    p = BarrierProblem()
    q, Q = p.add_vector_var("q", m), p.add_symmetric_var("Q", m)
    expr = p.new_psd_constraint(dim, "G")
    F = np.zeros_like(expr.F)
    for kind in rng.choice(["vector", "symmetric", "rmul"], size=6):
        coeff = float(rng.choice([1.0, -1.0, rng.standard_normal()]))
        row0 = int(rng.integers(0, dim - m + 1))
        col0 = row0 if rng.random() < 0.3 else int(rng.integers(0, dim - m + 1))
        R = rng.standard_normal((m, int(rng.integers(1, dim - col0 + 1))))
        if kind == "vector":
            expr.add_vector(q, row0, col0, coeff)
        elif kind == "symmetric":
            expr.add_symmetric(Q, row0, col0, coeff)
        else:
            expr.add_symmetric_rmul(Q, row0, col0, R, coeff)
        _loop_placement(F, q if kind == "vector" else Q, kind, row0, col0, coeff, R)
    assert np.array_equal(expr.F, F)


def full_merit(sb, x, mu, fscale):
    """(F_mu, grad, hess), None outside the domain: G(x) factored and
    inverted afresh, the value of _merit_value and the derivatives of
    _merit_derivs at the same point."""
    stage, point = convex._stage(sb, mu, fscale), convex._factor(sb, x)
    if point is None:
        return None
    G, L = point
    return (convex._merit_value(sb, x, L, stage),
            *convex._merit_derivs(sb, np.linalg.inv(G), stage))


@settings(max_examples=200, deadline=None)
@given(which=st.sampled_from(["scaled_toy", "norm_toy"]),
       unit=st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7),
       radius=st.sampled_from([1e-5, 1e-3, 0.1, 2.0]),
       mu=st.sampled_from([1.0, 10.0, 1e4, 1e8]),
       fscale=st.sampled_from([1.0, 0.125]))
def test_value_only_merit_is_bit_identical(which, unit, radius, mu, fscale):
    # the line search decides on the value-only merit, and a stage starts on
    # the value read from the factor the previous stage (mu / 10) carried, so
    # every accept/reject matches the full evaluation only if all three agree
    # to the last bit
    p, init = with_start(which)
    sb = p.stacked()
    x = p.pack(init) + radius * np.array(unit[:p.total_dim])
    full = full_merit(sb, x, mu, fscale)
    point = convex._factor(sb, x)
    if full is None:
        assert point is None
    else:
        value = convex._merit_value(sb, x, point[1], convex._stage(sb, mu, fscale))
        # a stage allowed no step ends where it starts, carrying its factor
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(convex, "MAX_NEWTON", 0)
            _, _, (L, _), _ = convex._newton_stage(sb, x, mu / 10.0, fscale)
        carried = convex._merit_value(sb, x, L, convex._stage(sb, mu, fscale))
        assert value == carried == full[0]
    assert np.array_equal(sb.value(x), sb.F0 + np.tensordot(x, sb.F, axes=1))


@settings(max_examples=200, deadline=None)
@given(which=st.sampled_from(["logdet_under_identity", "scaled_toy", "norm_toy",
                              "norm_toy_3"]),
       unit=st.lists(st.floats(-1.0, 1.0), min_size=11, max_size=11),
       radius=st.sampled_from([1e-5, 1e-3, 0.1]))
def test_objective_from_full_factor_is_bit_identical(which, unit, radius):
    # solve reads each stage objective from the leading log-det block of the
    # factor of the whole G, which must be the factor of that block alone
    p, init = with_start(which)
    sb = p.stacked()
    x = p.pack(init) + radius * np.array(unit[:p.total_dim])
    point = convex._factor(sb, x)
    if point is not None:
        assert sb.objective_at(x, point[1]) == sb.objective(x)


def reference_merit(p, x, mu, fscale):
    """The per-block evaluation the stacked barrier replaced: each log-det and
    PSD block factored and inverted on its own, each scalar row by hand."""
    D = p.total_dim
    val = fscale * (p.obj_const + float(p.linear @ x))
    grad = fscale * p.linear.copy()
    hess = np.zeros((D, D))
    weighted = [(e, fscale * k) for e, k in p.logdets] + [(e, 1.0 / mu) for e in p.psd]
    for expr, w in weighted:
        G = expr.F0 + np.tensordot(x, expr.F, axes=1)
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            return None
        Ginv = np.linalg.inv(G)
        M = np.einsum("ab,ibc->iac", Ginv, expr.F)
        val += w * 2.0 * float(np.log(L.diagonal()).sum())
        grad += w * np.einsum("ijk,kj->i", expr.F, Ginv)
        hess -= w * np.einsum("iab,jba->ij", M, M)
    for row in p.scalars:
        a = row.F[:, 0, 0]
        sv = float(a @ x + row.F0[0, 0])
        if sv <= 0.0:
            return None
        val += np.log(sv) / mu
        grad += a / (mu * sv)
        hess -= np.outer(a, a) / (mu * sv**2)
    return val, grad, hess


def assert_close(actual, desired):
    # rtol 1e-10, with entries that cancel to ~0 measured against the largest
    desired = np.asarray(desired)
    np.testing.assert_allclose(actual, desired, rtol=1e-10,
                               atol=1e-10 * max(1.0, np.abs(desired).max()))


@settings(max_examples=300, deadline=None)
@given(which=st.sampled_from(["logdet_under_identity", "scaled_toy", "norm_toy",
                              "norm_toy_3"]),
       unit=st.lists(st.floats(-1.0, 1.0), min_size=11, max_size=11),
       radius=st.sampled_from([1e-5, 1e-3, 0.1, 2.0]),
       mu=st.sampled_from([1.0, 10.0, 1e4, 1e8]),
       fscale=st.sampled_from([1.0, 0.125]))
def test_stacked_merit_matches_per_block_reference(which, unit, radius, mu, fscale):
    # covers no scalar rows (logdet_under_identity), a log-det on a scalar
    # block (scaled_toy) and the spectral-norm program's shape for m = 2, 3
    p, init = with_start(which)
    x = p.pack(init) + radius * np.array(unit[:p.total_dim])
    out = full_merit(p.stacked(), x, mu, fscale)
    ref = reference_merit(p, x, mu, fscale)
    assert (out is None) == (ref is None)
    if ref is not None:
        for a, b in zip(out, ref):
            assert_close(a, b)


def with_start(name):
    if name == "logdet_under_identity":
        return logdet_under_identity()[0], {"Q": 0.5 * np.eye(2)}
    if name == "scaled_toy":
        return scaled_toy(), SCALED_START
    if name == "norm_toy_3":
        return norm_toy(b=(0.6, -0.3, 0.2)), {**NORM_START, "q": np.zeros(3),
                                              "Q": 1e-3 * np.eye(3)}
    return norm_toy(), NORM_START


@pytest.mark.parametrize("name", ["logdet_under_identity", "scaled_toy", "norm_toy"])
def test_derivatives_once_per_accepted_step(name, monkeypatch):
    # backtracking trials evaluate values only; gradients and Hessians are
    # evaluated at each stage start and at each accepted point
    p, init = with_start(name)
    calls = []
    derivs = convex._merit_derivs
    monkeypatch.setattr(convex, "_merit_derivs",
                        lambda *args: calls.append(1) or derivs(*args))
    res = solve(p, init)
    assert res.status == "optimal"
    assert len(calls) == res.newton_steps + len(res.stage_objectives)


@pytest.mark.parametrize("name", ["logdet_under_identity", "scaled_toy", "norm_toy"])
def test_one_factorization_per_point(name, monkeypatch):
    # an accepted trial's factorization is carried into its derivatives and
    # the point a stage ends on into the next stage, so no point is factored
    # twice in a solve
    p, init = with_start(name)
    points = []
    factor = convex._factor

    def recorded(sb, x):
        points.append(x.tobytes())
        return factor(sb, x)

    monkeypatch.setattr(convex, "_factor", recorded)
    assert solve(p, init).status == "optimal"
    assert len(set(points)) == len(points)


@pytest.mark.parametrize("name", ["logdet_under_identity", "scaled_toy", "norm_toy",
                                  "norm_toy_3"])
def test_factorizations_per_solve(name, monkeypatch):
    # Cholesky runs at the line-search trials and at the first stage's start,
    # the inverse at the accepted points and at the first start, and the
    # objective of every stage is read from the carried factor
    p, init = with_start(name)
    calls = {"cholesky": 0, "outside": 0, "inv": 0, "objective": 0, "values": 0,
             "certificate": 0}

    def counted(key, f):
        def call(*args):
            calls[key] += 1
            try:
                return f(*args)
            except np.linalg.LinAlgError:
                calls["outside"] += 1
                raise
        return call

    for owner, attr in ((np.linalg, "cholesky"), (np.linalg, "inv"),
                        (convex.StackedBarrier, "objective")):
        monkeypatch.setattr(owner, attr, counted(attr, getattr(owner, attr)))
    monkeypatch.setattr(convex, "_merit_value", counted("values", convex._merit_value))
    monkeypatch.setattr(convex, "_certificate", counted("certificate", convex._certificate))
    res = solve(p, init)
    assert res.status == "optimal" and len(res.stage_objectives) > 1
    # a trial inside the domain evaluates F_mu once, one outside none; every
    # stage start evaluates F_mu from the carried factor, and each certificate
    # factors its dual point once
    trials = calls["values"] - len(res.stage_objectives) + calls["outside"]
    assert calls["cholesky"] == trials + 1 + calls["certificate"]
    assert calls["inv"] == res.newton_steps + 1
    assert calls["objective"] == 0


def reference_newton_stage(sb, x, mu, fscale=1.0, carry=None):
    # the stage with full-merit trials: every evaluation, trials included,
    # computes value, gradient and Hessian, and nothing is carried over; the
    # carry is taken and returned, recomputed at the point the stage ends on
    x, steps, newton = _reference_stage(sb, x, mu, fscale)
    G = sb.value(x)
    return x, steps, (np.linalg.cholesky(G), np.linalg.inv(G)), newton


def _reference_stage(sb, x, mu, fscale):
    steps = 0
    val, grad, hess = full_merit(sb, x, mu, fscale)
    while True:
        gnorm = float(np.linalg.norm(grad))
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            return x, steps, None
        decrement = float(grad @ step)
        # the step solved at the point the stage ends on feeds the certificate
        newton = grad, hess, step
        # every stage ends near the central path: a small Newton decrement of
        # mu * F_mu
        if (steps == convex.MAX_NEWTON or not decrement > 0.0
                or 0.5 * mu * decrement <= convex.CENTER_DECREMENT):
            return x, steps, newton
        alpha = 1.0
        accepted = False
        while alpha > 1e-16:
            cand = x + alpha * step
            cout = full_merit(sb, cand, mu, fscale)
            if cout is not None and cout[0] >= val + convex.ARMIJO * alpha * decrement:
                accepted = True
                break
            alpha *= convex.BACKTRACK
        if not accepted:
            return x, steps, newton
        steps += 1
        # progress means a rise of F_mu above its rounding level or a smaller gradient
        if (cout[0] - val <= 4.0 * np.finfo(float).eps * (1.0 + abs(val))
                and np.linalg.norm(cout[1]) >= gnorm):
            return x, steps, newton
        x, (val, grad, hess) = cand, cout


def solve_matches_reference(p, init, monkeypatch):
    res = solve(p, init)
    with monkeypatch.context() as m:
        m.setattr(convex, "_newton_stage", reference_newton_stage)
        ref = solve(p, init)
    for name in res.values:
        assert np.array_equal(res.values[name], ref.values[name]), name
    assert (res.objective, res.dual_bound, res.kkt_residual, res.barrier_mu_final, res.status,
            res.stage_objectives, res.stage_steps) == (
        ref.objective, ref.dual_bound, ref.kkt_residual, ref.barrier_mu_final, ref.status,
        ref.stage_objectives, ref.stage_steps)
    assert p.stacked().worst_violation(p.pack(res.values))[1] > 0.0
    return res, ref


@pytest.mark.parametrize("name", ["logdet_under_identity", "scaled_toy", "norm_toy"])
def test_iterates_match_full_merit_line_search(name, monkeypatch):
    solve_matches_reference(*with_start(name), monkeypatch)


@pytest.mark.parametrize("name", ["logdet_under_identity", "norm_toy"])
def test_newton_step_cap(name, monkeypatch):
    # three steps a stage still certify the log-det toy; the norm toy's last
    # stage spends its three without certifying
    status = {"logdet_under_identity": "optimal", "norm_toy": "max_iter"}[name]
    monkeypatch.setattr(convex, "MAX_NEWTON", 3)
    res, _ = solve_matches_reference(*with_start(name), monkeypatch)
    assert res.status == status
    tol = convex.GAP_TOL * max(1.0, abs(res.objective))
    assert (res.optimality_gap <= tol) == (status == "optimal")
    assert res.newton_steps <= 3 * len(res.stage_objectives)


@pytest.mark.parametrize("name", ["logdet_under_identity", "scaled_toy", "norm_toy"])
def test_a_solve_that_never_certifies_reads_stalled(name, monkeypatch):
    # with no certificate the x10 ladder runs to its last mu, the first whose
    # estimate nu / (mu fscale) is within GAP_TOL, and the solve reads stalled
    # there, its gap infinite (each toy's largest coefficient is at most 1,
    # so fscale = 1)
    p, init = with_start(name)
    monkeypatch.setattr(convex, "_certificate", lambda *args: (np.inf, 0.0))
    res = solve(p, init)
    sb = p.stacked()
    nu = sb.k.shape[0] - sb.n_obj
    assert max(np.abs(sb.linear).max(), sb.k.max()) <= 1.0
    assert res.status == "stalled"
    assert res.dual_bound == res.optimality_gap == np.inf
    assert nu / res.barrier_mu_final <= convex.GAP_TOL < 10.0 * nu / res.barrier_mu_final
    assert len(res.stage_objectives) == round(np.log10(res.barrier_mu_final)) + 1

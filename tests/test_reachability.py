import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reachsep import reachability
from reachsep.dynamics import LTISystem, NominalTrajectory, QuadrotorParams, quadrotor_linearized
from reachsep.ellipsoid import Ellipsoid, support
from reachsep.montecarlo import discretize, sample_trajectories
from reachsep.reachability import (
    GAP_REL,
    VANISH_REL,
    ReachSpec,
    _min_norm_point,
    _oracle,
    disturbance_contribution,
    reach_point,
    reach_polytope_outer,
    reach_support,
    reach_tube,
    separation,
    support_gradient,
)
from reachsep.scenario import (
    build_nominal,
    build_spec,
    builtin_scenario_path,
    load_document,
    load_scenario,
    position_projection,
    scenario_from_dict,
)
from reachsep.synthesis import estimate_encounter, scalarization_loop


def static_ball_spec(center, radius, horizon=4.0):
    # A = 0 and a point control set: the reach set is the initial ball, frozen
    sys = LTISystem(np.zeros((3, 3)), np.zeros((3, 1)))
    return ReachSpec(sys, Ellipsoid.ball(center, radius), Ellipsoid.point([0.0]), horizon)


def static_point_spec(center, horizon=4.0):
    sys = LTISystem(np.zeros((3, 3)), np.zeros((3, 1)))
    return ReachSpec(sys, Ellipsoid.point(center), Ellipsoid.point([0.0]), horizon)


def integrator_spec(horizon=2.0, quad_steps=200):
    sys = LTISystem(np.zeros((2, 2)), np.eye(2))
    return ReachSpec(sys, Ellipsoid.ball([0.0, 0.0], 1.0), Ellipsoid.ball([0.0, 0.0], 1.0),
                     horizon, quad_steps=quad_steps)


def double_integrator_spec(horizon=2.0):
    sys = LTISystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
    return ReachSpec(sys, Ellipsoid.point([0.0, 0.0]), Ellipsoid.ball([0.0], 1.0), horizon)


def quadrotor_spec(horizon=4.0, quad_steps=200):
    sys = quadrotor_linearized(QuadrotorParams())
    c0 = np.zeros(10)
    c0[3] = 0.2  # drifting along +x
    M0 = np.diag([0.05**2] * 3 + [0.01**2] * 3 + [0.0] * 4)
    U = Ellipsoid(np.zeros(3), np.diag([0.3**2, 0.002**2, 0.002**2]))
    return ReachSpec(sys, Ellipsoid(c0, M0), U, horizon, quad_steps=quad_steps)


# ---------------------------------------------------------------- reach_support


def test_support_static_growth():
    # A = 0, B = I: the set is X0 + t*U, so radius 1 + 2*1 at t = 2
    spec = integrator_spec()
    for l in [np.array([1.0, 0.0]), np.array([0.6, 0.8]), np.array([-1.0, 0.0])]:
        assert reach_support(spec, 2.0, l) == pytest.approx(3.0, abs=1e-9)


def test_support_double_integrator_closed_form():
    # position support along +x is int_0^t (t - s) ds = t^2 / 2
    spec = double_integrator_spec()
    assert reach_support(spec, 2.0, [1.0, 0.0]) == pytest.approx(2.0, abs=1e-9)


def test_support_time_bounds():
    spec = integrator_spec()
    with pytest.raises(ValueError):
        reach_support(spec, -0.5, [1.0, 0.0])
    with pytest.raises(ValueError):
        reach_support(spec, 2.5, [1.0, 0.0])


def test_support_dominates_monte_carlo():
    # oracle: simulated trajectories with piecewise-constant boundary controls
    # never exceed the support value
    spec = quadrotor_spec()
    t_grid = np.linspace(0.0, 4.0, 41)
    traj = sample_trajectories(spec, t_grid, 2000, seed=2)
    rng = np.random.default_rng(5)
    for _ in range(10):
        l = rng.standard_normal(10)
        l /= np.linalg.norm(l)
        val = reach_support(spec, 4.0, l)
        assert ((traj[:, -1, :] @ l) <= val + 1e-7).all()


def test_support_sublinear_in_direction():
    spec = quadrotor_spec(quad_steps=64)
    rng = np.random.default_rng(9)
    for _ in range(25):
        l1, l2 = rng.standard_normal(10), rng.standard_normal(10)
        s = reach_support(spec, 3.0, l1 + l2) if np.any(l1 + l2) else 0.0
        assert s <= reach_support(spec, 3.0, l1) + reach_support(spec, 3.0, l2) + 1e-9
        a = float(rng.uniform(0.1, 5.0))
        assert reach_support(spec, 3.0, a * l1) == pytest.approx(
            a * reach_support(spec, 3.0, l1), abs=1e-9)


def test_support_monotone_in_control_scaling():
    spec = quadrotor_spec(quad_steps=64)
    rng = np.random.default_rng(12)
    for r in [0.9, 0.5, 0.1, 0.0]:
        shrunk = spec.with_control(Ellipsoid(spec.U.center, r**2 * spec.U.shape))
        for _ in range(5):
            l = rng.standard_normal(10)
            assert reach_support(shrunk, 4.0, l) <= reach_support(spec, 4.0, l) + 1e-12


def test_support_quadrature_refinement():
    spec = quadrotor_spec()
    rng = np.random.default_rng(21)
    for _ in range(5):
        l = rng.standard_normal(10)
        l /= np.linalg.norm(l)
        coarse = reach_support(spec, 4.0, l)
        fine = reach_support(spec, 4.0, l, n_steps=800)
        assert abs(coarse - fine) <= 1e-6


def test_support_disturbance_additivity():
    base = quadrotor_spec(quad_steps=64)
    Mv = np.zeros((10, 10))
    Mv[3:6, 3:6] = 0.01**2 * np.eye(3)
    cv = np.zeros(10)
    cv[5] = 0.002
    with_v = ReachSpec(base.system, base.X0, base.U, base.horizon,
                       V=Ellipsoid(cv, Mv), quad_steps=64)
    rng = np.random.default_rng(33)
    for _ in range(10):
        l = rng.standard_normal(10)
        added = reach_support(with_v, 3.0, l) - reach_support(base, 3.0, l)
        assert added == pytest.approx(disturbance_contribution(with_v, 3.0, l), abs=1e-10)
    # independent cross-check of the disturbance terms on a dense grid
    l = np.eye(10)[4]
    from reachsep.dynamics import expm
    s = np.linspace(0.0, 3.0, 20001)
    Phi_l = np.array([expm(base.system.A.T, 3.0 - si) @ l for si in s[::400]])
    dense_s = s[::400]
    vals = Phi_l @ cv + np.sqrt(np.einsum("ij,jk,ik->i", Phi_l, Mv, Phi_l))
    ref = np.trapezoid(vals, dense_s)
    assert disturbance_contribution(with_v, 3.0, l) == pytest.approx(ref, abs=1e-4)


# ---------------------------------------------------------------- reach_point


def test_point_static_ball_case():
    spec = integrator_spec()
    l = np.array([0.0, 1.0])
    state, x0, _ = reach_point(spec, 2.0, l)
    assert np.allclose(state, [0.0, 3.0], atol=1e-9)
    assert np.allclose(x0, [0.0, 1.0], atol=1e-12)


def test_point_double_integrator_bang_control():
    spec = double_integrator_spec()
    state, x0, (s, u) = reach_point(spec, 2.0, [1.0, 0.0])
    assert np.allclose(x0, [0.0, 0.0])
    # the quadratic form vanishes at s = t, where the center convention applies
    assert np.allclose(u[:-1], 1.0)
    assert np.allclose(state, [2.0, 2.0], atol=1e-9)


def test_point_resimulation_matches_support():
    # oracle: integrate the recovered extremal control forward and compare
    rng = np.random.default_rng(8)
    for _ in range(5):
        n, m = 4, 2
        A = 0.3 * rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        spec = ReachSpec(LTISystem(A, B), Ellipsoid(rng.standard_normal(n), np.eye(n) * 0.1),
                         Ellipsoid(0.1 * rng.standard_normal(m), 0.5 * np.eye(m)), 2.0)
        l = rng.standard_normal(n)
        l /= np.linalg.norm(l)
        val = reach_support(spec, 2.0, l)
        state, x0, (s, u) = reach_point(spec, 2.0, l)
        assert l @ state == pytest.approx(val, abs=1e-9)
        # independent oracle: adaptive integration of the analytic extremal
        # control, with transition matrices from scipy
        from scipy.integrate import solve_ivp
        from scipy.linalg import expm as sexpm

        def u_star(sig):
            w = B.T @ sexpm(A.T * (2.0 - sig)) @ l
            q = w @ spec.U.shape @ w
            return spec.U.center + (spec.U.shape @ w) / np.sqrt(q)

        sol = solve_ivp(lambda tt, x: A @ x + B @ u_star(tt), (0.0, 2.0), x0,
                        rtol=1e-11, atol=1e-12, max_step=0.05)
        assert l @ sol.y[:, -1] == pytest.approx(val, abs=1e-6)
        # the sampled profile agrees with the analytic maximizer at the nodes
        mid = len(s) // 2
        assert np.allclose(u[mid], u_star(s[mid]), atol=1e-9)
        assert l @ state >= traj_upper_bound(spec, l) - 1e-6


def traj_upper_bound(spec, l):
    # crude lower bound on the support from a handful of sampled trajectories
    t_grid = np.linspace(0.0, spec.horizon, 21)
    traj = sample_trajectories(spec, t_grid, 200, seed=4)
    return float((traj[:, -1, :] @ l).max())


def test_point_rejects_disturbance():
    base = quadrotor_spec(quad_steps=64)
    spec = ReachSpec(base.system, base.X0, base.U, base.horizon,
                     V=Ellipsoid.ball(np.zeros(10), 0.01), quad_steps=64)
    with pytest.raises(ValueError):
        reach_point(spec, 1.0, np.eye(10)[0])


# ---------------------------------------------------------------- polytopes, tubes


def test_polytope_octagon_circumscribes_ball():
    spec = integrator_spec()
    angles = np.arange(8) * np.pi / 4.0
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    hs = reach_polytope_outer(spec, 2.0, dirs)
    assert np.allclose(hs.offsets, 3.0, atol=1e-9)


def test_polytope_contains_touching_points_and_samples():
    spec = quadrotor_spec()
    rng = np.random.default_rng(14)
    dirs = rng.standard_normal((16, 10))
    hs = reach_polytope_outer(spec, 4.0, dirs)
    for l in hs.directions:
        state, _, _ = reach_point(spec, 4.0, l)
        assert hs.violation(state) <= 1e-8
    traj = sample_trajectories(spec, np.linspace(0.0, 4.0, 41), 1000, seed=6)
    worst = max(hs.violation(x) for x in traj[:, -1, :])
    assert worst <= 1e-6


def test_polytope_empty_directions_rejected():
    with pytest.raises(ValueError):
        reach_polytope_outer(integrator_spec(), 1.0, np.zeros((0, 2)))


def test_zero_direction_rows_rejected():
    dirs = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="directions must be nonzero"):
        reach_tube(integrator_spec(), [0.0, 1.0], dirs)
    with pytest.raises(ValueError, match="directions must be nonzero"):
        reach_polytope_outer(integrator_spec(), 1.0, dirs)
    # an empty family is a valid tube with no columns
    tube = reach_tube(integrator_spec(), [0.0, 1.0], np.zeros((0, 2)))
    assert tube.support_values.shape == (2, 0)


def test_tube_matches_pointwise_calls():
    spec = quadrotor_spec(quad_steps=64)
    times = np.linspace(0.0, 4.0, 5)
    angles = np.linspace(0.0, 2 * np.pi, 6, endpoint=False)
    dirs = np.zeros((6, 10))
    dirs[:, 0] = np.cos(angles)
    dirs[:, 1] = np.sin(angles)
    tube = reach_tube(spec, times, dirs, with_points=True)
    for i, t in enumerate(times):
        for j in range(6):
            assert tube.support_values[i, j] == pytest.approx(
                reach_support(spec, t, tube.directions[j]), abs=1e-12)
            assert tube.directions[j] @ tube.touching_points[i, j] <= tube.support_values[i, j] + 1e-9


def reference_reach_support(spec, t, l):
    """reach_support one direction at a time, as it was before the batched
    kernel: einsum quadratic forms and the per-direction panel rule, plus
    the initial-set vanish rule.  Kept as the kernel's reference."""
    t = min(float(t), spec.horizon)
    l = np.asarray(l, dtype=float)
    offset = float(l @ spec.offset_at(t))
    if t == 0.0:
        return support(spec.X0, l)[0] + offset
    g = reachability._grid_for(spec, t)
    lT = g.Phi[0].T @ l
    q0 = float(lT @ spec.X0.shape @ lT)
    alive = q0 > VANISH_REL * np.trace(spec.X0.shape) * float(lT @ lT)
    value = float(lT @ spec.X0.center) + (np.sqrt(q0) if alive else 0.0)
    for stack, E in [(g.PhiB, spec.U), (g.Phi, spec.V)]:
        if E is None:
            continue
        w = stack.transpose(0, 2, 1) @ l
        q = np.einsum("ij,jk,ik->i", w, E.shape, w)
        thresh = VANISH_REL * max(q.max(), 0.0)
        vanish = (q[:-1:2] <= thresh) | (q[1::2] <= thresh) | (q[2::2] <= thresh)
        r = np.sqrt(np.clip(q, 0.0, None))
        simpson = (g.h / 3.0) * (r[:-1:2] + 4.0 * r[1::2] + r[2::2])
        value = value + float(g.simpson_w @ (w @ E.center))
        value = value + float(np.where(vanish, 2.0 * g.h * r[1::2], simpson).sum())
    return value + offset


def random_spec(rng, n, m, with_V, with_offset, flat_U, horizon=2.0):
    """A random system with full-rank X0; a flat U (a point when m = 1) when
    asked, so that whole panels of its integrand vanish."""
    A = 0.5 * rng.standard_normal((n, n))
    B = rng.standard_normal((n, m))
    R0 = rng.standard_normal((n, n))
    X0 = Ellipsoid(rng.standard_normal(n), R0 @ R0.T + 0.1 * np.eye(n))
    RU = rng.standard_normal((m, m))
    MU = RU @ RU.T + 0.1 * np.eye(m)
    if flat_U:
        u = rng.standard_normal(m) if m > 1 else np.zeros(1)
        MU = np.outer(u, u)
    V = None
    if with_V:
        RV = rng.standard_normal((n, n))
        V = Ellipsoid(0.1 * rng.standard_normal(n), 0.01 * RV @ RV.T)
    offset = None
    if with_offset:
        times = np.linspace(0.0, horizon, 5)
        offset = NominalTrajectory(times, rng.standard_normal((5, n)))
    return ReachSpec(LTISystem(A, B), X0, Ellipsoid(rng.standard_normal(m), MU), horizon,
                     V=V, quad_steps=32, center_offset=offset)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), m=st.integers(1, 3),
       with_V=st.booleans(), with_offset=st.booleans(), flat_U=st.booleans(),
       unactuated=st.booleans(), when=st.sampled_from(["start", "inside", "horizon"]),
       n_dirs=st.integers(0, 6))
def test_batched_support_matches_reference(seed, n, m, with_V, with_offset, flat_U, unactuated,
                                           when, n_dirs):
    rng = np.random.default_rng(seed)
    m = min(m, n - 1)
    spec = random_spec(rng, n, m, with_V, with_offset, flat_U)
    t = {"start": 0.0, "inside": rng.uniform(0.1, spec.horizon), "horizon": spec.horizon}[when]
    dirs = rng.standard_normal((n_dirs, n))
    if unactuated:
        # directions B cannot push along, like the quadrotor's positions:
        # q vanishes at s = t, and the last panel takes the midpoint rule
        B = spec.system.B
        dirs = dirs - dirs @ B @ np.linalg.pinv(B)
    tube = reach_tube(spec, [t], dirs)
    assert tube.support_values.shape == (1, n_dirs)
    for l, value in zip(tube.directions, tube.support_values[0]):
        ref = reference_reach_support(spec, t, l)
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))
        assert abs(reach_support(spec, t, l) - ref) <= 1e-12 * max(1.0, abs(ref))
    if n_dirs:
        polytope = reach_polytope_outer(spec, t, dirs)
        assert np.array_equal(polytope.offsets, tube.support_values[0])


def test_vanishing_panels_judged_per_direction():
    # decoupled channels, the second 1e-7 as strong: along e2 the input term
    # is ~1e-14 of e1's, so a threshold shared across the batch would send
    # it to the midpoint rule (2.6e-10 off), and its own keeps Simpson
    sys = LTISystem(np.diag([-1.0, -4.0]), np.diag([1.0, 1e-7]))
    spec = ReachSpec(sys, Ellipsoid.ball([0.0, 0.0], 1.0), Ellipsoid.ball([0.0, 0.0], 1.0),
                     2.0, quad_steps=32)
    tube = reach_tube(spec, [2.0], np.eye(2))
    for l, value in zip(np.eye(2), tube.support_values[0]):
        assert value == pytest.approx(reference_reach_support(spec, 2.0, l), abs=1e-13)


# ---------------------------------------------------------------- support_gradient


def disturbed_quadrotor_spec():
    base = quadrotor_spec(quad_steps=64)
    # full-rank disturbance with a nonzero center, so no quadrature panel vanishes
    cv = np.zeros(10)
    cv[3:6] = [0.002, -0.001, 0.003]
    return ReachSpec(base.system, base.X0, base.U, base.horizon,
                     V=Ellipsoid(cv, 1e-4 * np.eye(10)), quad_steps=64)


def fixedwing_offset_spec():
    return build_spec(load_scenario(builtin_scenario_path("fixedwing_pair")), 0)


@pytest.mark.parametrize("make_spec", [lambda: quadrotor_spec(quad_steps=64),
                                       disturbed_quadrotor_spec, fixedwing_offset_spec],
                         ids=["no_V", "with_V", "fixedwing_offset"])
def test_support_gradient_is_the_touching_point(make_spec):
    spec = make_spec()
    rng = np.random.default_rng(17)
    for t in [0.0, 1.3, spec.horizon]:
        for _ in range(4):
            l = rng.standard_normal(spec.system.state_dim)
            value, point = support_gradient(spec, t, l)
            assert l @ point == pytest.approx(value, rel=1e-14, abs=1e-12)
            assert value == pytest.approx(reach_support(spec, t, l), abs=1e-9)
            # the touching point lies in the set: no direction sees past it
            for _ in range(4):
                other = rng.standard_normal(spec.system.state_dim)
                assert other @ point <= reach_support(spec, t, other) + 1e-9


# ---------------------------------------------------------------- separation


def test_separation_static_balls():
    specA = static_ball_spec([0.0, 0.0, 0.0], 1.0)
    specB = static_ball_spec([5.0, 0.0, 0.0], 1.0)
    dist, l_star = separation(specA, specB, 2.0, np.eye(3))
    assert dist == pytest.approx(3.0, abs=1e-6)
    assert np.allclose(np.abs(l_star), [1.0, 0.0, 0.0], atol=1e-6)


def test_separation_identical_specs_overlap():
    spec = quadrotor_spec(quad_steps=64)
    P = np.eye(10)[:3]
    dist, _ = separation(spec, spec, 2.0, P)
    assert dist <= 0.0


def test_separation_shifted_quadrotors():
    a = quadrotor_spec(quad_steps=64)
    c = a.X0.center.copy()
    c[1] += 100.0  # far away in y
    b = ReachSpec(a.system, Ellipsoid(c, a.X0.shape), a.U, a.horizon, quad_steps=64)
    P = np.eye(10)[:3]
    dist, l_star = separation(a, b, 4.0, P)
    # sets are far apart; the gap direction is y
    assert dist > 1.0
    assert abs(l_star[1]) > 0.99


coords = st.floats(-50.0, 50.0)


@settings(max_examples=60, deadline=None)
# a Barzilai-Borwein step of ~1e157 overflowed the direction's norm
@example(center=(0.0, 0.0, 0.0), axis=(1.0, 7.164786475848339e-158, 0.0), radii=(1.0, 1.0),
         clearance=1.0)
@given(center=st.tuples(coords, coords, coords),
       axis=st.tuples(coords, coords, coords).filter(lambda v: np.linalg.norm(v) > 1e-3),
       radii=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
       clearance=st.floats(1e-3, 100.0))
def test_separation_static_balls_property(center, axis, radii, clearance):
    axis = np.array(axis) / np.linalg.norm(axis)
    cA = np.array(center)
    cB = cA + (radii[0] + radii[1] + clearance) * axis
    specA, specB = static_ball_spec(cA, radii[0]), static_ball_spec(cB, radii[1])
    dist = np.linalg.norm(cA - cB) - radii[0] - radii[1]
    sep = separation(specA, specB, 2.0, np.eye(3))
    assert sep.certified
    assert sep.value == pytest.approx(dist, abs=1e-9 * max(1.0, dist))
    # l points from B to A along the centre line
    assert np.allclose(sep.direction, (cA - cB) / np.linalg.norm(cA - cB), atol=1e-6)
    lower, z, _, _, closed = _min_norm_point(specA, specB, 2.0, np.eye(3))
    upper = np.linalg.norm(z)
    assert closed and upper - lower <= GAP_REL * max(1.0, upper)
    slack = 1e-12 * max(1.0, dist)
    assert lower <= dist + slack and dist <= upper + slack


# two unit balls whose centre line is off every axis the ascent starts from
OFF_AXIS = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])


@pytest.mark.parametrize("clearance", [1e-7, -1e-7])
def test_separation_near_touching_balls(clearance):
    specA = static_ball_spec([0.0, 0.0, 0.0], 1.0)
    specB = static_ball_spec((2.0 + clearance) * OFF_AXIS, 1.0)
    sep = separation(specA, specB, 2.0, np.eye(3))
    assert np.isfinite(sep.value) and np.all(np.isfinite(sep.direction))
    # apart: the minimum-norm point; overlapping: the inner hull
    assert sep.certified
    assert sep.value == pytest.approx(clearance, abs=1e-12)


SEGMENT = np.array([0.6, 0.8, 0.0])


@pytest.mark.parametrize("c", [0.0, 0.3, -0.7, 0.5])
def test_separation_point_on_flat_initial_set(c):
    # X0 is the segment E(0, u u'), and B the point c u on it.  Along the
    # segment's normal <Phi' l, M0 Phi' l> is rounding noise; taken as a
    # width, it put touching points ~1e-9 off the set, and the upper bound
    # below the lower one.
    segment = ReachSpec(LTISystem(np.zeros((3, 3)), np.zeros((3, 1))),
                        Ellipsoid(np.zeros(3), np.outer(SEGMENT, SEGMENT)),
                        Ellipsoid.point([0.0]), 4.0)
    sep = separation(segment, static_point_spec(c * SEGMENT), 1.0, np.eye(3)[:2])
    assert sep.certified
    assert abs(sep.value) <= 1e-12
    assert sep.value + sep.gap >= -1e-15


def reference_sphere_ascent(specA, specB, t, P):
    """The multistart ascent that gave the signed value before the inner hull.

    Projected supergradient ascent of g from deterministic sphere starts (the
    axes first, then a seeded fill, 8 in all), up to 200 backtracking steps
    each; it certifies nothing.  Kept as the reference the certified value
    must not fall below.
    """
    k = P.shape[0]
    starts = [sign * e for e in np.eye(k) for sign in (1.0, -1.0)]
    rng = np.random.default_rng(0)
    while len(starts) < 8:
        v = rng.standard_normal(k)
        starts.append(v / np.linalg.norm(v))
    best_val, best_l, best_s = -np.inf, None, None
    for l in starts[:8]:
        val, grad = _oracle(specA, specB, t, P, l)
        for _ in range(200):
            tangent = grad - (grad @ l) * l
            tnorm = np.linalg.norm(tangent)
            if tnorm < 1e-12:
                break
            step = 1.0
            improved = False
            while step > 1e-14:
                cand = l + step * tangent / max(tnorm, 1.0)
                cand /= np.linalg.norm(cand)
                cval, cgrad = _oracle(specA, specB, t, P, cand)
                if cval > val + 1e-14:
                    l, val, grad = cand, cval, cgrad
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
        if val > best_val:
            best_val, best_l, best_s = val, l, grad
    return float(best_val), best_l, best_s


def assert_brackets(sep, truth):
    # certified, accurate, and [value, value + gap] holds the true signed distance
    assert sep.certified
    assert sep.value == pytest.approx(truth, abs=1e-9 * max(1.0, abs(truth)))
    slack = 1e-12 * max(1.0, abs(truth))
    assert sep.value <= truth + slack and truth <= sep.value + sep.gap + slack
    assert sep.gap <= GAP_REL * max(1.0, abs(sep.value)) + 1e-15


@settings(max_examples=60, deadline=None)
# the multistart ascent returned -8.05e-4 and -2.41e-3 m for these two
@example(k=3, center=(0.0, 0.0, 0.0), axis=(0.3, -0.5, 0.8), radius=1.0, ratio=1.0,
         swap=False, overlap=1e-7)
@example(k=3, center=(0.0, 0.0, 0.0), axis=(0.3, -0.5, 0.8), radius=1.25, ratio=2.2,
         swap=False, overlap=1e-3)
@given(k=st.sampled_from([2, 3]),
       center=st.tuples(coords, coords, coords),
       axis=st.tuples(coords, coords, coords).filter(lambda v: np.linalg.norm(v[:2]) > 1e-3),
       radius=st.floats(0.6, 5.0),
       ratio=st.floats(1.0, 5.0),
       swap=st.booleans(),
       overlap=st.floats(-7.0, 0.0).map(lambda e: 10.0 ** e))
def test_separation_overlapping_balls_property(k, center, axis, radius, ratio, swap, overlap):
    # P = eye(3) sees 3-D balls, P = eye(3)[:2] their discs in the plane;
    # the centre line points anywhere, so in general off the axes
    P = np.eye(3)[:k]
    radii = (radius, radius * ratio)[::-1 if swap else 1]
    axis = np.array(axis)
    unit = axis[:k] / np.linalg.norm(axis[:k])
    cA = np.array(center)
    cB = cA.copy()
    cB[:k] += (radii[0] + radii[1] - overlap) * unit
    if k == 2:
        cB[2] += axis[2]  # out of the plane, which P projects away
    truth = np.linalg.norm(P @ (cA - cB)) - radii[0] - radii[1]
    sep = separation(static_ball_spec(cA, radii[0]), static_ball_spec(cB, radii[1]), 2.0, P)
    assert_brackets(sep, truth)


@pytest.mark.parametrize("make_pair, P", [
    # C = {0}: every oracle point is 0, and Qhull cannot build a hull
    (lambda: (static_point_spec([3.0, -2.0, 7.0]), static_point_spec([3.0, -2.0, 7.0])),
     np.eye(3)),
    # exactly touching balls, in 3-D and in the plane
    (lambda: (static_ball_spec([0.0, 0.0, 0.0], 1.0), static_ball_spec(2.0 * OFF_AXIS, 1.0)),
     np.eye(3)),
    (lambda: (static_ball_spec([0.0, 0.0, 0.0], 1.25),
              static_ball_spec([2.4, 3.2, 3.0], 2.75)), np.eye(3)[:2]),
    # a flat disc around the other aircraft's point: C is flat, 0 inside it
    (lambda: (ReachSpec(LTISystem(np.zeros((3, 3)), np.zeros((3, 1))),
                        Ellipsoid(np.zeros(3), np.diag([1.0, 1.0, 0.0])),
                        Ellipsoid.point([0.0]), 4.0),
              static_point_spec([0.2, 0.1, 0.0])), np.eye(3)),
], ids=["coincident_points", "touching", "touching_2d", "flat_disc"])
def test_separation_zero_value_cases(make_pair, P):
    specA, specB = make_pair()
    assert_brackets(separation(specA, specB, 2.0, P), 0.0)


def test_separation_iteration_cap_falls_back_uncertified(monkeypatch):
    specA = static_ball_spec([0.0, 0.0, 0.0], 1.0)
    specB = static_ball_spec(3.0 * OFF_AXIS, 1.0)
    monkeypatch.setattr(reachability, "MNP_MAX_ITERS", 1)
    lower, _, _, _, closed = _min_norm_point(specA, specB, 2.0, np.eye(3))
    assert not closed
    sep = separation(specA, specB, 2.0, np.eye(3))
    # the capped run returns its best lower bound on the distance, 1 m
    assert not sep.certified
    assert lower <= sep.value <= 1.0


def shrunk_fast_pair(name):
    """Both shrunk specs of a bundled scenario at quad_steps 64 and a 0.5 s grid."""
    scen = scenario_from_dict({**load_document(builtin_scenario_path(name)),
                               "quad_steps": 64, "grid_step_s": 0.5})
    P = position_projection(scen)
    geom = estimate_encounter(build_nominal(scen, 0), build_nominal(scen, 1), P, scen.d)
    specA, specB = build_spec(scen, 0), build_spec(scen, 1)
    solB, solA, _, _ = scalarization_loop(
        specA, specB, geom, P, method=scen.method, k0=scen.k0, shrink=scen.shrink,
        margin1=scen.margin1, margin2=scen.margin2, max_iters=scen.max_iters)
    t_grid = np.arange(0.0, scen.horizon + 1e-9, scen.grid_step)
    return specA.with_control(solA.control_set()), specB.with_control(solB.control_set()), P, t_grid


@pytest.mark.parametrize("name", ["quadrotor_pair", "fixedwing_pair"])
def test_certified_separation_dominates_ascent(name):
    A, B, P, t_grid = shrunk_fast_pair(name)
    for t in t_grid:
        sep = separation(A, B, t, P)
        assert sep.certified, t
        assert sep.value >= reference_sphere_ascent(A, B, t, P)[0] - 1e-9, t


# ---------------------------------------------------------------- discretize


def test_discretize_matches_series():
    sys = LTISystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
    Ad, Bd = discretize(sys, 0.1)
    assert np.allclose(Ad, [[1.0, 0.1], [0.0, 1.0]], atol=1e-14)
    # int_0^dt e^(A(dt-s)) B ds = [dt^2/2, dt]
    assert np.allclose(Bd.ravel(), [0.005, 0.1], atol=1e-14)

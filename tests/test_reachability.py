import dataclasses
import sys
import threading
import tracemalloc
from contextlib import closing

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from reachsep import distance, reachability
from reachsep.dynamics import (
    LTISystem,
    NominalTrajectory,
    QuadrotorParams,
    expm,
    quadrotor_linearized,
)
from reachsep.ellipsoid import Ellipsoid, support
from reachsep.montecarlo import discretize, positions, sample_trajectories
from reachsep.pipeline import plane_directions
from reachsep.distance import (
    GAP_REL,
    HULL_WIDTH,
    MNP_MAX_ITERS,
    _min_norm_point,
    _oracle,
    _Polytope,
    separation,
    separations,
)
from reachsep.reachability import (
    VANISH_REL,
    ReachSpec,
    _project,
    disturbance_contribution,
    reach_point,
    reach_support,
    reach_tube,
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


@pytest.mark.parametrize("name", ["quadrotor_pair", "fixedwing_pair"])
def test_projected_samples_equal_projected_states(name):
    # fixed-wing adds a nominal center offset before the projection
    scenario = load_scenario(builtin_scenario_path(name))
    P = position_projection(scenario)
    spec = dataclasses.replace(build_spec(scenario, 1), V=None)
    t_grid = np.arange(0.0, scenario.horizon + 1e-9, scenario.grid_step)
    full = sample_trajectories(spec, t_grid, 300, seed=7)
    pos = sample_trajectories(spec, t_grid, 300, seed=7, P=P)
    assert full.shape == (300, t_grid.shape[0], spec.system.state_dim)
    assert pos.shape == (300, t_grid.shape[0], P.shape[0])
    assert np.array_equal(pos, full @ P.T)
    assert pos.transpose(1, 2, 0).flags.c_contiguous


def reference_samples(spec, t_grid, n_samples, seed=0, P=None):
    """sample_trajectories as a coordinate-major loop that allocates every
    step's arrays."""
    def unit_columns(dim):
        v = np.ascontiguousarray(rng.standard_normal((n_samples, dim)).T)
        return v / np.sqrt((v * v).sum(axis=0))

    rng = np.random.default_rng(seed)
    X0, U = spec.X0, spec.U
    X = X0.sqrt_shape().T @ unit_columns(X0.dim) + X0.center[:, None]
    if len(t_grid) > 1:
        Ad, Bd = discretize(spec.system, float(np.diff(t_grid)[0]))
        BWc = Bd @ np.column_stack([U.sqrt_shape().T, U.center])
    steps = []
    for k, t in enumerate(t_grid):
        if k:
            X = Ad @ X + BWc @ np.vstack([unit_columns(U.dim), np.ones(n_samples)])
        offset = spec.offset_at(t)
        Y = X + offset[:, None] if np.any(offset) else X
        steps.append(Y if P is None else P @ Y)
    return np.stack(steps).transpose(2, 0, 1)


def row_major_reference(spec, t_grid, n_samples, seed=0, P=None):
    """The sampler's earlier, row-major loop: states as (n_samples, n) rows,
    a step X' = X Ad' + U Bd'."""
    def boundary(e):
        v = rng.standard_normal((n_samples, e.dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return e.center + v @ e.sqrt_shape()

    rng = np.random.default_rng(seed)
    X = boundary(spec.X0)
    if len(t_grid) > 1:
        Ad, Bd = discretize(spec.system, float(np.diff(t_grid)[0]))
    steps = []
    for k, t in enumerate(t_grid):
        if k:
            X = X @ Ad.T + boundary(spec.U) @ Bd.T
        steps.append(X + spec.offset_at(t) if P is None else (X + spec.offset_at(t)) @ P.T)
    return np.stack(steps, axis=1)


def same_array_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def stacked_positions(spec, t_grid, n_samples, seed=0, P=None):
    """positions' yields, each copied before the next step, as (N, T, k)."""
    steps = [Y.copy() for Y in positions(spec, t_grid, n_samples, seed, P)]
    return np.stack(steps).transpose(2, 0, 1)


def random_sampling_spec(m):
    # random dynamics, a singular initial set and an offset control set
    rng = np.random.default_rng(m)
    n = 5
    L0, Lu = rng.standard_normal((n, n - 1)), rng.standard_normal((m, m))
    system = LTISystem(0.3 * rng.standard_normal((n, n)), rng.standard_normal((n, m)))
    spec = ReachSpec(system, Ellipsoid(rng.standard_normal(n), L0 @ L0.T),
                     Ellipsoid(rng.standard_normal(m), Lu @ Lu.T), 2.0)
    return spec, rng.standard_normal((3, n))


def bundled_sampling_spec(name):
    scenario = load_scenario(builtin_scenario_path(name))
    t_grid = np.arange(0.0, scenario.horizon + 1e-9, scenario.grid_step)
    return (dataclasses.replace(build_spec(scenario, 0), V=None), t_grid,
            position_projection(scenario))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("projected", [False, True])
def test_sampler_equals_allocating_reference(m, projected):
    spec, P = random_sampling_spec(m)
    P = P if projected else None
    for t_grid in (np.linspace(0.0, 2.0, 21), np.zeros(1)):
        samples = sample_trajectories(spec, t_grid, 700, seed=m, P=P)
        assert same_array_bits(samples, reference_samples(spec, t_grid, 700, seed=m, P=P))
        assert same_array_bits(samples, stacked_positions(spec, t_grid, 700, seed=m, P=P))


@pytest.mark.parametrize("case", ["m1", "m2", "m3", "m4", "quadrotor_pair", "fixedwing_pair"])
def test_sampler_keeps_random_stream(case):
    # every sample gets the normals of the row-major draws, so the layouts
    # differ only by rounding
    if case.startswith("m"):
        spec, P = random_sampling_spec(int(case[1:]))
        t_grid = np.linspace(0.0, 2.0, 21)
    else:
        spec, t_grid, P = bundled_sampling_spec(case)
    for proj in (None, P):
        samples = sample_trajectories(spec, t_grid, 700, seed=11, P=proj)
        ref = row_major_reference(spec, t_grid, 700, seed=11, P=proj)
        assert samples.shape == ref.shape
        assert np.all(np.abs(samples - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("name", ["quadrotor_pair", "fixedwing_pair"])
def test_bundled_samples_equal_allocating_reference(name):
    # fixed-wing adds a nominal center offset
    spec, t_grid, P = bundled_sampling_spec(name)
    for proj in (None, P):
        samples = sample_trajectories(spec, t_grid, 1000, seed=3, P=proj)
        assert same_array_bits(samples, reference_samples(spec, t_grid, 1000, seed=3, P=proj))
        assert same_array_bits(samples, stacked_positions(spec, t_grid, 1000, seed=3, P=proj))


class DrawFailed(Exception):
    pass


def fail_on_call(fn, k):
    """fn, raising DrawFailed on its k-th call (1-based)."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) == k:
            raise DrawFailed(k)
        return fn(*args, **kwargs)
    return wrapped


class FailingGenerator:
    """A seeded Generator whose standard_normal raises on its k-th call."""

    def __init__(self, seed, k):
        self.standard_normal = fail_on_call(np.random.Generator(np.random.PCG64(seed))
                                            .standard_normal, k)


@pytest.mark.parametrize("step", [1, 2, 20])
@pytest.mark.parametrize("where", ["draw", "offset"])
def test_sampler_failure_at_a_step_is_raised_and_joins_the_helper(step, where, monkeypatch):
    # call 1 is the initial draw or the t = 0 offset; call step + 1 is step's
    spec, t_grid, P = bundled_sampling_spec("fixedwing_pair")
    t_grid = t_grid[:21]
    if where == "draw":
        monkeypatch.setattr(np.random, "default_rng", lambda seed: FailingGenerator(seed, step + 1))
    else:
        monkeypatch.setattr(ReachSpec, "offset_at", fail_on_call(ReachSpec.offset_at, step + 1))
    before = threading.active_count()
    with pytest.raises(DrawFailed, match=str(step + 1)):
        sample_trajectories(spec, t_grid, 300, seed=1, P=P)
    assert threading.active_count() == before


@pytest.mark.parametrize("n_samples, n_times", [(0, 21), (0, 1), (50, 1)])
@pytest.mark.parametrize("projected", [False, True])
def test_sampler_shapes_without_samples_or_steps(n_samples, n_times, projected):
    spec, P = random_sampling_spec(2)
    P = P if projected else None
    t_grid = np.linspace(0.0, 2.0, 21)[:n_times]
    before = threading.active_count()
    samples = sample_trajectories(spec, t_grid, n_samples, seed=2, P=P)
    assert samples.shape == (n_samples, n_times, 5 if P is None else 3)
    assert same_array_bits(samples, reference_samples(spec, t_grid, n_samples, seed=2, P=P))
    assert threading.active_count() == before


@pytest.mark.parametrize("t_grid", [[], [0.5, 1.0], [0.0, 1.0, 3.0]])
def test_sampler_rejects_a_grid_that_is_not_uniform_from_zero(t_grid):
    spec, _ = random_sampling_spec(1)
    with pytest.raises(ValueError, match="uniform time grid starting at 0"):
        sample_trajectories(spec, t_grid, 10)
    # at the call, before the generator is started
    with pytest.raises(ValueError, match="uniform time grid starting at 0"):
        positions(spec, t_grid, 10)


@pytest.mark.parametrize("taken", [0, 1, 2, 7])
def test_positions_closed_early_joins_the_helper(taken):
    spec, P = random_sampling_spec(2)
    t_grid = np.linspace(0.0, 2.0, 21)
    ref = reference_samples(spec, t_grid, 300, seed=4, P=P)
    before = threading.active_count()
    steps = positions(spec, t_grid, 300, seed=4, P=P)
    for k, Y in zip(range(taken), steps):
        assert same_array_bits(Y, ref[:, k].T)
    steps.close()
    assert threading.active_count() == before


def test_concurrent_samplers_keep_their_streams():
    # more callers than cores, each with its own helper, and a short switch
    # interval: a slot handed over before it is filled or read, or a block
    # drawn out of order, changes the samples' bits.  Each caller also steps
    # two samplers in lockstep, as the Monte Carlo check does.
    spec, P = random_sampling_spec(3)
    t_grid = np.linspace(0.0, 2.0, 41)
    refs = [reference_samples(spec, t_grid, 200, seed=s, P=P) for s in range(7)]
    results, lockstep = {}, {}

    def caller(s):
        for _ in range(5):
            results.setdefault(s, []).append(sample_trajectories(spec, t_grid, 200, seed=s, P=P))
        with closing(positions(spec, t_grid, 200, s, P)) as a, \
                closing(positions(spec, t_grid, 200, s + 1, P)) as b:
            steps = [(A.copy(), B.copy()) for A, B in zip(a, b)]
        lockstep[s] = [np.stack(c).transpose(2, 0, 1) for c in zip(*steps)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(s,)) for s in range(6)]
        for c in callers:
            c.start()
        for c in callers:
            c.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(c.is_alive() for c in callers)
    for s, ref in enumerate(refs[:6]):
        assert len(results[s]) == 5
        assert all(same_array_bits(r, ref) for r in results[s])
        assert same_array_bits(lockstep[s][0], ref)
        assert same_array_bits(lockstep[s][1], refs[s + 1])


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
        shrunk = dataclasses.replace(spec, U=Ellipsoid(spec.U.center, r**2 * spec.U.shape))
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
        fine = reach_support(dataclasses.replace(spec, quad_steps=800), 4.0, l)
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
    tube = reach_tube(spec, [2.0], dirs)
    assert np.allclose(tube.support_values[0], 3.0, atol=1e-9)


def test_polytope_contains_touching_points_and_samples():
    spec = quadrotor_spec()
    rng = np.random.default_rng(14)
    dirs = rng.standard_normal((16, 10))
    tube = reach_tube(spec, [4.0], dirs)
    values = tube.support_values[0]

    def violation(x):
        return (tube.directions @ x - values).max()

    for l in tube.directions:
        state, _, _ = reach_point(spec, 4.0, l)
        assert violation(state) <= 1e-8
    traj = sample_trajectories(spec, np.linspace(0.0, 4.0, 41), 1000, seed=6)
    worst = max(violation(x) for x in traj[:, -1, :])
    assert worst <= 1e-6


def test_zero_direction_rows_rejected():
    dirs = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="directions must be nonzero"):
        reach_tube(integrator_spec(), [0.0, 1.0], dirs)
    # an empty family is a valid tube with no columns
    tube = reach_tube(integrator_spec(), [0.0, 1.0], np.zeros((0, 2)))
    assert tube.support_values.shape == (2, 0)


@pytest.mark.parametrize("fn", [reach_support, reach_point, support_gradient,
                                disturbance_contribution])
def test_zero_direction_rejected(fn):
    # a disturbance-free spec, so disturbance_contribution checks before its 0.0
    with pytest.raises(ValueError, match="direction must be nonzero"):
        fn(integrator_spec(), 1.0, [0.0, 0.0])


def test_tube_matches_pointwise_calls():
    spec = quadrotor_spec(quad_steps=64)
    times = np.linspace(0.0, 4.0, 5)
    angles = np.linspace(0.0, 2 * np.pi, 6, endpoint=False)
    dirs = np.zeros((6, 10))
    dirs[:, 0] = np.cos(angles)
    dirs[:, 1] = np.sin(angles)
    tube = reach_tube(spec, times, dirs)
    for i, t in enumerate(times):
        for j, l in enumerate(tube.directions):
            assert tube.support_values[i, j] == pytest.approx(reach_support(spec, t, l), abs=1e-12)
            assert l @ support_gradient(spec, t, l)[1] <= tube.support_values[i, j] + 1e-9


def bundled_tube_case(name, disturbed=False):
    """Aircraft A's spec of a bundled scenario, its output grid and its plane
    directions in state coordinates; disturbed adds the velocity-rate
    disturbance set of the disturbed CI document to both quadrotors."""
    doc = load_document(builtin_scenario_path(name))
    if disturbed:
        for entry in doc["aircraft"]:
            entry["disturbance_set"] = {"state_rate_radii": [0, 0, 0, 1e-3, 1e-3, 1e-3, 0, 0, 0, 0]}
    scen = scenario_from_dict(doc)
    P = position_projection(scen)
    return scen.specs[0], build_nominal(scen, 0).times, plane_directions(scen, P.shape[0]) @ P


def test_reach_tube_projects_once(monkeypatch):
    calls = []
    project = reachability._project
    monkeypatch.setattr(reachability, "_project",
                        lambda *args: calls.append(1) or project(*args))
    spec, times, dirs = bundled_tube_case("quadrotor_pair")
    reach_tube(spec, times, dirs)
    assert len(calls) == 1


@pytest.mark.parametrize("name, disturbed", [("quadrotor_pair", False),
                                             ("quadrotor_pair", True),
                                             ("fixedwing_pair", False)],
                         ids=["quad", "disturbed", "fixedwing_offset"])
def test_plane_direction_tubes_match_reach_support(name, disturbed):
    # the tube reads each row through the span of the plane directions; it
    # agrees with the view projected along each direction alone, at t = 0,
    # with a disturbance set, and with the fixed-wing's center offset
    spec, times, dirs = bundled_tube_case(name, disturbed)
    assert (spec.V is not None) == disturbed
    assert (spec.center_offset is not None) == (name == "fixedwing_pair")
    rows = [0, len(times) // 3, len(times) - 1]
    tube = reach_tube(spec, times, dirs)
    for i in rows:
        for j, l in enumerate(tube.directions):
            want = reach_support(spec, times[i], l)
            assert abs(tube.support_values[i, j] - want) <= 1e-12 * max(1.0, abs(want)), (i, j)


def test_reach_tube_holds_no_stack_of_every_time():
    # fixed-wing at its bundled 0.1 s grid: 101 times, 32 directions.  Its
    # grid is built first, so the peak is the tube's own working memory,
    # which stays below one (T, D, m, N+1) stack of factor nodes (10.4 MB)
    spec, times, dirs = bundled_tube_case("fixedwing_pair")
    reachability._grids_for(spec, times)
    stack = times.shape[0] * dirs.shape[0] * spec.U.dim * (spec.quad_steps + 1) * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reach_tube(spec, times, dirs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (times.shape[0], dirs.shape[0]) == (101, 32)
    assert peak < stack


def reference_reach_support(spec, t, l):
    """reach_support one direction at a time, as it was before the batched
    kernel: einsum quadratic forms and the per-direction panel rule, plus
    the initial-set vanish rule.  Kept as the kernel's reference."""
    t = min(float(t), spec.horizon)
    l = np.asarray(l, dtype=float)
    offset = float(l @ spec.offset_at(t))
    if t == 0.0:
        return support(spec.X0, l)[0] + offset
    g = reachability._grids_for(spec, [t])
    h, Phi = g.h[0], g.Phi[0]
    lT = Phi[0].T @ l
    q0 = float(lT @ spec.X0.shape @ lT)
    alive = q0 > VANISH_REL * np.trace(spec.X0.shape) * float(lT @ lT)
    value = float(lT @ spec.X0.center) + (np.sqrt(q0) if alive else 0.0)
    for stack, E in [(g.PhiB[0], spec.U), (Phi, spec.V)]:
        if E is None:
            continue
        w = stack.transpose(0, 2, 1) @ l
        q = np.einsum("ij,jk,ik->i", w, E.shape, w)
        thresh = VANISH_REL * max(q.max(), 0.0)
        vanish = (q[:-1:2] <= thresh) | (q[1::2] <= thresh) | (q[2::2] <= thresh)
        r = np.sqrt(np.clip(q, 0.0, None))
        simpson = (h / 3.0) * (r[:-1:2] + 4.0 * r[1::2] + r[2::2])
        value = value + float(g.simpson_w[0] @ (w @ E.center))
        value = value + float(np.where(vanish, 2.0 * h * r[1::2], simpson).sum())
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


def reference_touching_point(spec, t, l):
    """support_gradient's point one direction at a time, as it was before the
    batched kernel: einsum quadratic forms of the input sets and the
    per-direction panel rule.  Kept as the kernel's reference.  The input
    center's response is integrated by Simpson on every panel, as in the
    support value, and the rest of the response by the panel rule.  The
    initial set's form is read from its factor u = M0^(1/2) Phi' l, at t = 0
    too: read from M0, it put the point of a flat X0 seen 0.02 deg off
    edge-on 1.4e-10 off (the seed-543715411 example of
    test_gram_oracle_matches_support_gradient)."""
    t = min(float(t), spec.horizon)
    l = np.asarray(l, dtype=float)
    offset = spec.offset_at(t)
    g = reachability._grids_for(spec, [t])
    h, Phi = g.h[0], g.Phi[0]
    lT = Phi[0].T @ l
    u0 = spec.X0.sqrt_shape() @ lT
    q0 = float(u0 @ u0)
    alive0 = q0 > VANISH_REL * np.trace(spec.X0.shape) * float(lT @ lT)
    x0 = spec.X0.center + (spec.X0.sqrt_shape() @ u0 / np.sqrt(q0) if alive0 else 0.0)
    state = Phi[0] @ x0
    for stack, E in [(g.PhiB[0], spec.U), (Phi, spec.V)]:
        if E is None:
            continue
        w = l @ stack
        q = np.einsum("ij,jk,ik->i", w, E.shape, w)
        alive = q > VANISH_REL * max(q.max(), 0.0)
        du = np.zeros((q.shape[0], E.dim))
        du[alive] = (w[alive] @ E.shape) / np.sqrt(q[alive])[:, None]
        y = np.einsum("inm,im->in", stack, du)
        vanish = ~alive[:-1:2] | ~alive[1::2] | ~alive[2::2]
        simpson = (h / 3.0) * (y[:-1:2] + 4.0 * y[1::2] + y[2::2])
        state = state + np.where(vanish[:, None], 2.0 * h * y[1::2], simpson).sum(axis=0)
        state = state + g.simpson_w[0] @ np.einsum("inm,m->in", stack, E.center)
    return state + offset


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), m=st.integers(1, 3),
       with_V=st.booleans(), with_offset=st.booleans(), flat_U=st.booleans(),
       unactuated=st.booleans(), when=st.sampled_from(["start", "inside", "horizon"]),
       n_dirs=st.integers(1, 6))
def test_batched_touching_points_match_reference(seed, n, m, with_V, with_offset, flat_U,
                                                 unactuated, when, n_dirs):
    rng = np.random.default_rng(seed)
    m = min(m, n - 1)
    spec = random_spec(rng, n, m, with_V, with_offset, flat_U)
    t = {"start": 0.0, "inside": rng.uniform(0.1, spec.horizon), "horizon": spec.horizon}[when]
    dirs = rng.standard_normal((n_dirs, n))
    if unactuated:
        B = spec.system.B
        dirs = dirs - dirs @ B @ np.linalg.pinv(B)
    tube = reach_tube(spec, [t], dirs)
    # a flat U's maximizer flips sign where w turns orthogonal to it, so next
    # to such a node the two sums of q give maximizers up to
    # eps / sqrt(VANISH_REL) ~ 7e-10 apart; the value <l, x> stays well-conditioned
    point_tol = 1e-9 if flat_U else 1e-12
    for l, value in zip(tube.directions, tube.support_values[0]):
        point = support_gradient(spec, t, l)[1]
        if spec.V is None:
            # reach_point reads the same touching point, with its witnesses
            state, x0, (s, u) = reach_point(spec, t, l)
            assert np.array_equal(state, point)
            assert x0.shape == (n,) and u.shape == (s.shape[0], m)
        ref = reference_touching_point(spec, t, l)
        assert np.linalg.norm(point - ref) <= point_tol * max(1.0, np.linalg.norm(ref))
        assert abs(l @ point - value) <= 1e-12 * max(1.0, abs(value))
        assert abs(value - reach_support(spec, t, l)) <= 1e-12 * max(1.0, abs(value))


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


@pytest.mark.parametrize("aircraft", [0, 1])
def test_support_gradient_reaches_support_on_bundled_quadrotor(aircraft):
    # along the plane directions q vanishes at nodes next to s = t without
    # being 0 there: the touching point samples M w / sqrt(q) at every node
    # with q > 0, as the support value samples sqrt(q), so <l, x*> is the
    # support value (it fell 5.2e-8 m short when such nodes counted as 0)
    scen = load_scenario(builtin_scenario_path("quadrotor_pair"))
    spec, P = build_spec(scen, aircraft), position_projection(scen)
    for t in [0.5, 2.0, 4.0]:
        for l in plane_directions(scen, P.shape[0]) @ P:
            rho = reach_support(spec, t, l)
            assert abs(support_gradient(spec, t, l)[0] - rho) <= 1e-12 * max(1.0, abs(rho))


# ---------------------------------------------------------------- separation


def test_separation_static_balls():
    specA = static_ball_spec([0.0, 0.0, 0.0], 1.0)
    specB = static_ball_spec([5.0, 0.0, 0.0], 1.0)
    sep = separation(specA, specB, 2.0, np.eye(3))
    assert sep.value == pytest.approx(3.0, abs=1e-6)
    assert np.allclose(np.abs(sep.direction), [1.0, 0.0, 0.0], atol=1e-6)


def test_separation_identical_specs_overlap():
    spec = quadrotor_spec(quad_steps=64)
    P = np.eye(10)[:3]
    assert separation(spec, spec, 2.0, P).value <= 0.0


def test_separation_shifted_quadrotors():
    a = quadrotor_spec(quad_steps=64)
    c = a.X0.center.copy()
    c[1] += 100.0  # far away in y
    b = ReachSpec(a.system, Ellipsoid(c, a.X0.shape), a.U, a.horizon, quad_steps=64)
    P = np.eye(10)[:3]
    sep = separation(a, b, 4.0, P)
    # sets are far apart; the gap direction is y
    assert sep.value > 1.0
    assert abs(sep.direction[1]) > 0.99


def projected(specA, specB, times, P):
    """Both specs' sets at the given times, seen through P: the oracle's input."""
    return tuple(_project(spec, reachability._grids_for(spec, times), P) for spec in (specA, specB))


def full_state_oracle(specA, specB, t, P, l):
    """g(l) and s at one time and direction from reference_touching_point,
    the full-state kernel the projected view replaced: kept as the oracle's
    reference."""
    lA, lB = -(P.T @ l), P.T @ l
    xA, xB = reference_touching_point(specA, t, lA), reference_touching_point(specB, t, lB)
    return -(lA @ xA) - (lB @ xB), P @ xA - P @ xB


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
    (lower,), (z,), _, _, (closed,) = _min_norm_point(*projected(specA, specB, [2.0], np.eye(3)))
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


FLAT_OFFSETS = [0.0, 0.3, -0.7, 0.5]


# t = 1 keeps the plain offset as its id; t = 0, the zero-length grid, adds "-t0"
@pytest.mark.parametrize("c, t", [(c, t) for t in (1.0, 0.0) for c in FLAT_OFFSETS],
                         ids=[str(c) for c in FLAT_OFFSETS] + [f"{c}-t0" for c in FLAT_OFFSETS])
def test_separation_point_on_flat_initial_set(c, t):
    # X0 is the segment E(0, u u'), and B the point c u on it.  Along the
    # segment's normal <Phi' l, M0 Phi' l> is rounding noise; taken as a
    # width, it put touching points ~1e-9 off the set, and the upper bound
    # below the lower one (-7.45e-9 m at t = 0, when that time had its own
    # branch without the vanish rule).
    segment = ReachSpec(LTISystem(np.zeros((3, 3)), np.zeros((3, 1))),
                        Ellipsoid(np.zeros(3), np.outer(SEGMENT, SEGMENT)),
                        Ellipsoid.point([0.0]), 4.0)
    sep = separation(segment, static_point_spec(c * SEGMENT), t, np.eye(3)[:2])
    assert sep.certified
    assert abs(sep.value) <= 1e-12
    assert sep.value + sep.gap >= -1e-15


@pytest.mark.parametrize("side", [1.0, -1.0], ids=["plus", "minus"])
@pytest.mark.parametrize("t", [0.0, 1.0], ids=["t0", "t1"])
def test_segment_nearly_edge_on_touches_its_end(t, side):
    # X0 is the segment E(c, v v'), seen 1e-3 rad off its normal: <l, M0 l>
    # is 1e-6 of trace(M0) |l|^2 and kept ~1e-10 of its digits read from M0,
    # which put the touching point 1.4e-11 m off the segment's end in the
    # kernel and 1.8e-11 m in the projected view.  Read from M0^(1/2), both
    # are within 1e-12 m of it.
    v, c = np.array([0.6, -1.3, 0.9]), np.array([1.0, 2.0, -0.5])
    segment = ReachSpec(LTISystem(np.zeros((3, 3)), np.zeros((3, 1))),
                        Ellipsoid(c, np.outer(v, v)), Ellipsoid.point([0.0]), 4.0)
    normal = np.cross(v, [0.0, 0.0, 1.0]) / np.linalg.norm(np.cross(v, [0.0, 0.0, 1.0]))
    l = np.cos(1e-3) * normal + side * np.sin(1e-3) * v / np.linalg.norm(v)
    end = c + side * v
    _, x = support_gradient(segment, t, l)
    assert np.linalg.norm(x - end) <= 1e-12
    view = _project(segment, reachability._grids_for(segment, [t]), np.eye(3))
    assert np.linalg.norm(view.center[0] + view.response(l[None])[0] - end) <= 1e-12


# the backtracking step sizes: halved from 1 while above 1e-14
ASCENT_STEPS = 0.5 ** np.arange(47)


def reference_sphere_ascent(specA, specB, t, P):
    """The multistart ascent that gave the signed value before the inner hull.

    Projected supergradient ascent of g from deterministic sphere starts (the
    axes first, then a seeded fill, 8 in all), up to 200 backtracking steps
    each; it certifies nothing.  Each backtracking search asks the oracle for
    all its step sizes as one block of directions, on copies of the view's
    one time, and takes the first that improves g.  Kept as the reference the
    certified value must not fall below.
    """
    k = P.shape[0]
    A, B = projected(specA, specB, [t], P)

    def oracle(L):
        # g(l) = -rho_A(-P'l) - rho_B(P'l) and s = P x_A - P x_B per row of L
        rows = [0] * L.shape[0]
        return _oracle(A.take(rows), B.take(rows), L)

    starts = [sign * e for e in np.eye(k) for sign in (1.0, -1.0)]
    rng = np.random.default_rng(0)
    while len(starts) < 8:
        v = rng.standard_normal(k)
        starts.append(v / np.linalg.norm(v))
    best_val, best_l, best_s = -np.inf, None, None
    for l in starts[:8]:
        (val,), (grad,) = oracle(l[None])
        for _ in range(200):
            tangent = grad - (grad @ l) * l
            tnorm = np.linalg.norm(tangent)
            if tnorm < 1e-12:
                break
            cand = l + ASCENT_STEPS[:, None] * tangent / max(tnorm, 1.0)
            cand /= np.linalg.norm(cand, axis=1)[:, None]
            cval, cgrad = oracle(cand)
            improved = np.flatnonzero(cval > val + 1e-14)
            if not improved.size:
                break
            l, val, grad = cand[improved[0]], cval[improved[0]], cgrad[improved[0]]
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
# an oracle point 1.06e-14 above one hull face, within rounding of its
# neighbour's plane, folded a new face over the neighbour; the hull then
# stopped with a gap of 1.8e-12
@example(k=3, center=(0.0, 0.0, 0.0), axis=(0.0, 3.0, 0.25), radius=1.0, ratio=1.0,
         swap=False, overlap=1.0)
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
    # C = {0}: every oracle point is 0, and they span no polytope
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


def growing_ball_spec(center, radius, rate, horizon=4.0):
    # A = 0, B = I and a ball control set: a ball whose radius grows at rate
    sys = LTISystem(np.zeros((3, 3)), np.eye(3))
    return ReachSpec(sys, Ellipsoid.ball(center, radius), Ellipsoid.ball(np.zeros(3), rate),
                     horizon, quad_steps=16)


@pytest.mark.parametrize("offset", [3.0, 1.5], ids=["apart", "overlapping"])
def test_every_oracle_value_is_a_support_value(offset, monkeypatch):
    # the projected oracle feeds the minimum-norm point and the inner hull; every
    # g(l) and s it gives them, at every time of a batch, is the support
    # pair of the full-state reference, and each value is the best g at its time
    calls = []
    oracle = distance._oracle

    def recording(A, B, l):
        g, s = oracle(A, B, l)
        calls.append((A.times, l, g, s))
        return g, s

    monkeypatch.setattr(distance, "_oracle", recording)
    specA = growing_ball_spec([0.0, 0.0, 0.0], 1.0, 0.5)
    specB = static_ball_spec(offset * OFF_AXIS, 1.0)
    times = [0.0, 0.5, 1.0]
    seps = separations(specA, specB, times, np.eye(3))
    assert all(sep.certified for sep in seps)
    seen = {t: [] for t in times}
    for rows in calls:
        for t, l, g, s in zip(*rows):
            g_ref, s_ref = full_state_oracle(specA, specB, t, np.eye(3), l)
            assert abs(g - g_ref) <= 1e-12 * max(1.0, abs(g_ref))
            assert np.linalg.norm(s - s_ref) <= 1e-12 * max(1.0, np.linalg.norm(s_ref))
            seen[t].append(g)
    for t, sep in zip(times, seps):
        assert sep.value == max(seen[t])
        assert sep.value == pytest.approx(offset - 2.0 - 0.5 * t, abs=1e-12)


def test_separation_iteration_cap_falls_back_uncertified(monkeypatch):
    specA = static_ball_spec([0.0, 0.0, 0.0], 1.0)
    specB = static_ball_spec(3.0 * OFF_AXIS, 1.0)
    monkeypatch.setattr(distance, "MNP_MAX_ITERS", 1)
    (lower,), _, _, _, (closed,) = _min_norm_point(*projected(specA, specB, [2.0], np.eye(3)))
    assert not closed
    sep = separation(specA, specB, 2.0, np.eye(3))
    # the capped run returns its best lower bound on the distance, 1 m
    assert not sep.certified
    assert lower <= sep.value <= 1.0


def test_one_capped_time_leaves_the_others_certified(monkeypatch):
    # B's point passes A's growing ball along x at t = 1 and 3, where the
    # first direction is already the answer, and off every axis at t = 2,
    # which needs more steps than the cap allows
    A = growing_ball_spec([0.0, 0.0, 0.0], 0.5, 0.5)
    path = np.array([[4.0, 0.0, 0.0], [4.0, 0.0, 0.0], 4.0 * OFF_AXIS, [4.0, 0.0, 0.0],
                     [4.0, 0.0, 0.0]])
    B = ReachSpec(LTISystem(np.zeros((3, 3)), np.zeros((3, 1))), Ellipsoid.point(np.zeros(3)),
                  Ellipsoid.point([0.0]), 4.0,
                  center_offset=NominalTrajectory(np.linspace(0.0, 4.0, 5), path))
    times = [1.0, 2.0, 3.0]
    monkeypatch.setattr(distance, "MNP_MAX_ITERS", 3)
    seps = separations(A, B, times, np.eye(3))
    assert [sep.certified for sep in seps] == [True, False, True]
    assert seps[0].value == pytest.approx(3.0, abs=1e-12)
    assert seps[2].value == pytest.approx(2.0, abs=1e-12)
    # the capped time returns a lower bound on its distance, 2.5 m
    assert 2.0 < seps[1].value <= 2.5
    for t, sep in zip(times, seps):
        assert_same_bits(separation(A, B, t, np.eye(3)), sep)


def assert_same_bits(sep, other):
    assert (sep.value, sep.certified, sep.gap) == (other.value, other.certified, other.gap)
    assert np.array_equal(sep.direction, other.direction)


def unit_rows(X):
    return X / np.linalg.norm(X, axis=1)[:, None]


def flat_across(spec, P, l0, rng):
    """spec with X0 flattened across P'l0, so that at t = 0 the oracle's
    direction l0 sees it edge-on."""
    n = spec.system.state_dim
    nu = P.T @ l0 / np.linalg.norm(P.T @ l0)
    Q = np.eye(n) - np.outer(nu, nu)
    R0 = rng.standard_normal((n, n))
    return dataclasses.replace(spec, X0=Ellipsoid(spec.X0.center, Q @ R0 @ R0.T @ Q))


def random_pair(seed, n, m, k, with_V, with_offset, flat_X0):
    """Two random specs, a k-axis position projection and a direction l0
    that sees A's X0 edge-on at t = 0 when flat_X0."""
    rng = np.random.default_rng(seed)
    m = min(m, n - 1)
    specA = random_spec(rng, n, m, with_V, with_offset, flat_U=False)
    specB = random_spec(rng, n, m, with_V, with_offset, flat_U=False)
    P = np.eye(n)[rng.permutation(n)[:k]]
    l0 = unit_rows(rng.standard_normal((1, k)))[0]
    if flat_X0:
        specA = flat_across(specA, P, l0, rng)
    return specA, specB, P, l0, rng


pair_cases = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 5), m=st.integers(2, 3),
                  k=st.sampled_from([2, 3]), with_V=st.booleans(), with_offset=st.booleans(),
                  flat_X0=st.booleans())


@settings(max_examples=60, deadline=None)
# m = 1 too: a single input channel crosses zero along the grid, and at a
# node next to the crossing q = <l, G l> read from the Gram stack was off by
# eps |G| / q, which moved a touching point by 5e-8 (seed 8055, n = 3, k = 2)
@given(**{**pair_cases, "m": st.integers(1, 3)})
@example(seed=8055, n=3, m=1, k=2, with_V=False, with_offset=False, flat_X0=False)
# a direction 0.02 deg off the edge-on l0 at t = 0, where q0 is 1e-7 of its
# scale: read from G0 and from M0, A's touching point was 1.2e-10 and
# 8.6e-11 off the exact one, and the two 3e-11 apart
@example(seed=543715411, n=3, m=2, k=2, with_V=False, with_offset=True, flat_X0=True)
# a control node where q is 2.9e-6 of trace(G) |l|^2: the Gram q was 2.8e-11
# off, the full-state one 3.5e-14, and B's touching points 6e-11 apart
@example(seed=517266151, n=5, m=3, k=3, with_V=True, with_offset=False, flat_X0=False)
def test_gram_oracle_matches_support_gradient(seed, n, m, k, with_V, with_offset, flat_X0):
    specA, specB, P, l0, rng = random_pair(seed, n, m, k, with_V, with_offset, flat_X0)
    times = [0.0, rng.uniform(0.1, specA.horizon), specA.horizon]
    rows = [(t, l) for t in times for l in [l0, *unit_rows(rng.standard_normal((3, k)))]]
    g, s = _oracle(*projected(specA, specB, [t for t, _ in rows], P),
                   np.array([l for _, l in rows]))
    for (t, l), g_t, s_t in zip(rows, g, s):
        lA, lB = -(P.T @ l), P.T @ l
        xA, xB = reference_touching_point(specA, t, lA), reference_touching_point(specB, t, lB)
        vA, vB = lA @ xA, lB @ xB
        assert abs(g_t - (-vA - vB)) <= 1e-12 * max(1.0, abs(vA), abs(vB))
        scale = max(1.0, np.linalg.norm(P @ xA), np.linalg.norm(P @ xB))
        assert np.linalg.norm(s_t - (P @ xA - P @ xB)) <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(**pair_cases)
def test_kernel_rows_alone_equal_batched(seed, n, m, k, with_V, with_offset, flat_X0):
    # each time of a grid batch comes out of the kernel bit for bit as it
    # does alone, on a system of its own so that its grid is built alone too:
    # the support values along full-state directions L and the rows of P,
    # the touching points' responses and the view's fields.  The lockstep
    # verification relies on it
    spec, _, P, _, rng = random_pair(seed, n, m, k, with_V, with_offset, flat_X0)
    times = [0.0, *np.sort(rng.uniform(0.0, spec.horizon, 3)), spec.horizon]
    L = unit_rows(rng.standard_normal((rng.integers(1, 5), n)))
    batch = reachability._grids_for(spec, times)
    grids = []
    for t in times:
        alone = dataclasses.replace(spec, system=LTISystem(spec.system.A, spec.system.B))
        grids.append((alone, reachability._grids_for(alone, [t])))
    for rows in (L, P, np.eye(n)):
        view = _project(spec, batch, rows)
        values = view.values()
        l = unit_rows(rng.standard_normal((len(times), rows.shape[0])))
        response = view.response(l)
        for j, (alone, grid) in enumerate(grids):
            one = _project(alone, grid, rows)
            assert np.array_equal(one.values()[0], values[j])
            assert np.array_equal(one.response(l[j:j + 1])[0], response[j])
            for got, want in [(one.center, view.center), (one.PPhi0, view.PPhi0),
                              (one.F0, view.F0), (one.h, view.h), *zip(one.inputs, view.inputs)]:
                assert np.array_equal(got[0], want[j])


@settings(max_examples=30, deadline=None)
@given(**pair_cases)
# an oracle point repeating a hull vertex would span faces with no normal
@example(seed=585, n=3, m=2, k=3, with_V=True, with_offset=True, flat_X0=True)
def test_separation_alone_equals_batched(seed, n, m, k, with_V, with_offset, flat_X0):
    # no coupling between the times of a batch: each comes out bit for bit
    # as it does verified alone
    specA, specB, P, _, rng = random_pair(seed, n, m, k, with_V, with_offset, flat_X0)
    times = [0.0, *np.sort(rng.uniform(0.0, specA.horizon, 3)), specA.horizon]
    for t, sep in zip(times, separations(specA, specB, times, P)):
        assert_same_bits(separation(specA, specB, t, P), sep)


def test_inner_hull_stops_when_its_bounds_cross(monkeypatch):
    # the sliver @example above at t = 0.363: the minimum-norm point stops
    # open, with the sets apart, so the hull's upper bound is the distance
    # from 0 to its nearest point.  A's flat X0 is seen nearly edge-on there,
    # where the vanish rule of its root term drops ~2e-7 between nearby
    # directions, so an oracle point lies 2e-7 outside the halfspace of
    # another: after 10 rounds the upper bound falls 5.7e-8 below the lower
    # one.  The bounds can only move toward each other, so the hull stops
    # there, uncertified.  One expanding step at a time, the hull stalled
    # after 19 steps with the bounds [0.35906653629247054, 0.40071805887400325]
    rounds = []
    facets = _Polytope.facets
    monkeypatch.setattr(_Polytope, "facets", lambda hull: rounds.append(1) or facets(hull))
    specA, specB, P, _, rng = random_pair(585, 3, 2, 3, True, True, True)
    t = np.sort(rng.uniform(0.0, specA.horizon, 3))[0]
    sep = separation(specA, specB, t, P)
    assert len(rounds) == 10
    assert not sep.certified
    assert sep.value == pytest.approx(0.35906656545767346, abs=1e-12)
    assert sep.value + sep.gap == pytest.approx(0.3590665085419143, abs=1e-12)


def test_flat_hull_stops_when_a_round_adds_nothing(monkeypatch):
    # aircraft A of the bundled quadrotors with a thrust radius of 1e30 N, at
    # reduced fidelity: C is 1e30 m long in z, so at the rounding level of its
    # coordinates (3.5e15 m) every oracle point lies on one line, and the hull
    # stays flat.  Its third round widens the line by no point and moves no
    # bound, so it stops there, with the bounds that the flat branch reached
    # when it ran on for 1,000 rounds (about 50 s)
    rounds = []
    add = _Polytope.add
    monkeypatch.setattr(_Polytope, "add", lambda hull, X: rounds.append(1) or add(hull, X))
    doc = load_document(builtin_scenario_path("quadrotor_pair"))
    doc["aircraft"][0]["control_set"]["thrust_radius_n"] = 1e30
    scen = scenario_from_dict(doc, {"quad_steps": 16, "grid_step": 1.0})
    P = position_projection(scen)
    geom = estimate_encounter(build_nominal(scen, 0), build_nominal(scen, 1), P, scen.d)
    sep = separation(*scen.specs, geom.tau, P)
    assert len(rounds) == 3
    assert not sep.certified
    assert sep.value == pytest.approx(-20.48947655487433, abs=1e-12)
    assert sep.value + sep.gap == pytest.approx(2.0701047986904086e-08, abs=1e-20)


def test_overlap_hull_spends_at_most_its_budget(monkeypatch):
    # aircraft A of the bundled quadrotors with a position radius of 1e4 m, at
    # reduced fidelity: C is nearly round, so every facet of the hull stays
    # open, and each round asks along the HULL_WIDTH nearest.  The hull ends
    # uncertified once it has spent MNP_MAX_ITERS oracle points, the last
    # round cut to the budget left.  Asked along every open facet, it spent
    # 19,088 points and 33 s
    rows = []
    add = _Polytope.add
    monkeypatch.setattr(_Polytope, "add", lambda hull, X: rows.append(len(X)) or add(hull, X))
    doc = load_document(builtin_scenario_path("quadrotor_pair"))
    doc["aircraft"][0]["initial_set"]["position_radius_m"] = 1e4
    scen = scenario_from_dict(doc, {"quad_steps": 16, "grid_step": 1.0})
    P = position_projection(scen)
    geom = estimate_encounter(build_nominal(scen, 0), build_nominal(scen, 1), P, scen.d)
    sep = separation(*scen.specs, geom.tau, P)
    assert sum(rows) <= MNP_MAX_ITERS
    assert max(rows) <= HULL_WIDTH + 1  # and GJK's query
    assert not sep.certified
    assert -10006.0 < sep.value < sep.value + sep.gap < -9990.0


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
    return (dataclasses.replace(specA, U=solA.control_set()),
            dataclasses.replace(specB, U=solB.control_set()), P, t_grid)


@pytest.mark.parametrize("name", ["quadrotor_pair", "fixedwing_pair"])
def test_certified_separation_dominates_ascent(name):
    A, B, P, t_grid = shrunk_fast_pair(name)
    for t in t_grid:
        sep = separation(A, B, t, P)
        assert sep.certified, t
        assert sep.value >= reference_sphere_ascent(A, B, t, P)[0] - 1e-9, t


# ---------------------------------------------------------------- quadrature grids


def reference_grid(system, t, n_steps):
    """(h, Phi, PhiB, simpson_w) of one time built alone, by the per-time
    recursion the batched build replaced.  Kept as its reference.  At t = 0
    the step is 0, so every node sits at s = 0 with weight 0."""
    n_steps = n_steps + n_steps % 2
    h = t / n_steps
    E = expm(system.A, h)
    n = system.state_dim
    Phi = np.empty((n_steps + 1, n, n))
    Phi[n_steps] = np.eye(n)
    for i in range(n_steps - 1, -1, -1):
        Phi[i] = E @ Phi[i + 1]
    w = np.ones(n_steps + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return h, Phi, Phi @ system.B, w * (h / 3.0)


@pytest.mark.parametrize("quad_steps", [64, 33], ids=["even", "odd"])
@pytest.mark.parametrize("name", ["quadrotor_pair", "fixedwing_pair"])
def test_batched_grids_match_per_time_build(name, quad_steps, monkeypatch):
    spec = dataclasses.replace(build_spec(load_scenario(builtin_scenario_path(name)), 0),
                               quad_steps=quad_steps)
    built = []
    build = reachability._build_grids

    def counting_build(system, times, n_steps):
        built.append(tuple(times))
        return build(system, times, n_steps)

    monkeypatch.setattr(reachability, "_build_grids", counting_build)
    H = spec.horizon
    times = [0.0, 0.2 * H, 0.45 * H, 0.7 * H, H]
    g = reachability._grids_for(spec, times)
    assert np.array_equal(g.times, times)
    for j, t in enumerate(times):
        h, Phi, PhiB, w = reference_grid(spec.system, t, quad_steps)
        # a time's batch row and its own single-time batch both equal the
        # reference; Phi is rebuilt on first use, from the step the batch used
        for grid, row in [(g, j), (reachability._grids_for(spec, [t]), 0)]:
            assert grid.times[row] == t and grid.h[row] == h
            for got, want in [(grid.Phi0[row], Phi[0]), (grid.PhiB[row], PhiB),
                              (grid.simpson_w[row], w), (grid.Phi[row], Phi)]:
                assert got.shape == want.shape and np.array_equal(got, want)
    # each request is built once and cached whole on the system: a repeated
    # request returns the same batch, a disturbance set's stack included
    assert reachability._grids_for(spec, times) is g
    assert reachability._grids_for(spec, [H]) is reachability._grids_for(spec, [H])
    disturbed = dataclasses.replace(spec, V=Ellipsoid.ball(np.zeros(spec.system.state_dim), 0.1))
    assert reachability._grids_for(disturbed, times).Phi is g.Phi
    assert built == [tuple(times), *((t,) for t in times)]


# ---------------------------------------------------------------- inner-hull polytope


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([2, 3]), n=st.integers(4, 60),
       kind=st.sampled_from(["random", "near_flat", "sphere", "duplicates", "lattice"]),
       size=st.floats(-3.0, 3.0), shift=st.floats(0.0, 2.0))
# point 4 makes a sliver face, whose rounded normal puts its own vertex 2.5e-14
# outside it: a fold test that reads that vertex left the point out
@example(seed=776520, k=3, n=34, kind="random", size=0.0, shift=0.0)
def test_polytope_matches_qhull(seed, k, n, kind, size, shift):
    # Qhull is the oracle: the facet nearest the origin is what _inner_hull
    # reads, and the facets at other points check the rest of the surface
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, k)) * 10.0 ** size
    if kind == "near_flat":
        X[:, -1] *= 10.0 ** rng.uniform(-9.0, -3.0)
    elif kind == "sphere":
        X /= np.linalg.norm(X, axis=1)[:, None] / 10.0 ** size
    elif kind == "duplicates":
        X = np.vstack([X, X[: n // 2]])
    elif kind == "lattice":
        X = rng.integers(-2, 3, (n, k)) * 10.0 ** size
    X = X + shift * np.abs(X).max() * rng.standard_normal(k)
    hull = _Polytope(k)
    for x in X:
        hull.add(x)
    facets = hull.facets()
    try:
        equations = ConvexHull(X).equations
    except QhullError:  # flat, as a few lattice draws are
        assert facets is None
        return
    scale = max(1.0, float(np.abs(X).max()))
    assert abs(facets[:, -1].max() - equations[:, -1].max()) <= 1e-12 * scale
    queries = np.vstack([np.zeros(k), 2.0 * np.abs(X).max() * rng.standard_normal((20, k))])
    ours = (queries @ facets[:, :-1].T + facets[:, -1]).max(axis=1)
    qhull = (queries @ equations[:, :-1].T + equations[:, -1]).max(axis=1)
    assert np.abs(ours - qhull).max() <= 1e-12 * scale
    # every point inside every facet, and every ridge shared by two faces
    assert (X @ facets[:, :-1].T + facets[:, -1]).max() <= 64 * np.finfo(float).eps * scale
    ridges = [tuple(sorted(np.delete(f, j))) for f in hull.faces for j in range(k)]
    assert all(ridges.count(r) == 2 for r in ridges)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([2, 3]), n=st.integers(4, 40),
       size=st.floats(-2.0, 2.0), shift=st.floats(1.5, 10.0))
def test_polytope_nearest_point_is_the_minimum_norm_point(seed, k, n, size, shift):
    # w is the minimum-norm point of the hull exactly when it lies in it and
    # <w, x> >= |w|^2 at every point x
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, k)) * 10.0 ** size
    X += shift * np.abs(X).max() * unit_rows(rng.standard_normal((1, k)))[0]
    hull = _Polytope(k)
    hull.add(X)
    facets = hull.facets()
    assume(facets is not None and facets[:, -1].max() > 0.0)
    w = hull.nearest()
    scale = float(np.abs(X).max())
    assert (facets[:, :-1] @ w + facets[:, -1]).max() <= 64 * np.finfo(float).eps * scale
    assert (X @ w).min() >= w @ w - 64 * np.finfo(float).eps * scale * np.linalg.norm(w)


@pytest.mark.parametrize("X", [np.zeros((5, 3)), np.outer(np.arange(6.0), [0.6, 0.8]),
                               np.column_stack([np.eye(3)[:, :2], np.zeros(3)])],
                         ids=["coincident", "segment_2d", "triangle_3d"])
def test_polytope_waits_for_full_dimension(X):
    hull = _Polytope(X.shape[1])
    for x in X:
        hull.add(x)
    assert hull.facets() is None
    # the unit points span every axis, so the polytope starts from a simplex
    for e in np.eye(X.shape[1]):
        hull.add(e)
    facets = hull.facets()
    assert facets is not None
    assert (hull.points @ facets[:, :-1].T + facets[:, -1]).max() <= 1e-15


# ---------------------------------------------------------------- discretize


def test_discretize_matches_series():
    sys = LTISystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
    Ad, Bd = discretize(sys, 0.1)
    assert np.allclose(Ad, [[1.0, 0.1], [0.0, 1.0]], atol=1e-14)
    # int_0^dt e^(A(dt-s)) B ds = [dt^2/2, dt]
    assert np.allclose(Bd.ravel(), [0.005, 0.1], atol=1e-14)

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachsep.dynamics import (
    FixedWingParams,
    LTISystem,
    NominalTrajectory,
    QuadrotorParams,
    expm,
    fixedwing_linearized,
    quadrotor_linearized,
)
from reachsep.scenario import build_nominal, build_spec, builtin_scenario_path, scenario_from_dict


# ---------------------------------------------------------------- expm


def test_expm_zero_matrix():
    assert np.array_equal(expm(np.zeros((3, 3)), 1.7), np.eye(3))


def test_expm_nilpotent_closed_form():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(expm(A, 3.0), [[1.0, 3.0], [0.0, 1.0]], atol=1e-14)


def test_expm_nonsquare_rejected():
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)))


def test_expm_matches_spectral_oracle():
    # oracle: for symmetric A, e^(At) = V diag(exp(w t)) V'
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        S = rng.standard_normal((n, n))
        A = 0.5 * (S + S.T)
        t = float(rng.uniform(-2.0, 2.0))
        w, V = np.linalg.eigh(A)
        oracle = (V * np.exp(w * t)) @ V.T
        assert np.allclose(expm(A, t), oracle, atol=1e-10 * np.abs(oracle).max())


def test_expm_semigroup_and_inverse():
    rng = np.random.default_rng(17)
    for _ in range(10):
        A = rng.standard_normal((5, 5))
        t1, t2 = rng.uniform(0.1, 1.5, size=2)
        lhs = expm(A, t1 + t2)
        rhs = expm(A, t1) @ expm(A, t2)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)
        assert np.allclose(expm(A, t1) @ expm(A, -t1), np.eye(5), atol=1e-9)


# ---------------------------------------------------------------- quadrotor


def test_quadrotor_printed_entries():
    sys = quadrotor_linearized(QuadrotorParams(m=1.0, J=np.eye(3), g=9.81))
    assert sys.A[3, 7] == pytest.approx(9.81)
    assert sys.A[4, 6] == pytest.approx(-9.81)
    assert sys.B[5, 0] == pytest.approx(1.0)
    assert sys.state_dim == 10 and sys.input_dim == 3


def test_quadrotor_position_rows_structure():
    sys = quadrotor_linearized(QuadrotorParams())
    A = sys.A
    assert np.array_equal(A[0:3, 3:6], np.eye(3))
    mask = np.ones_like(A, dtype=bool)
    mask[0:3, 3:6] = False
    assert not A[0:3][mask[0:3]].any()


def test_quadrotor_chain_nilpotent():
    A = quadrotor_linearized(QuadrotorParams()).A
    A5 = np.linalg.matrix_power(A, 5)
    for i in range(3):
        assert not (A5 @ np.eye(10)[i]).any()
    # the whole chain terminates at depth 4
    assert not np.linalg.matrix_power(A, 4).any()


def test_quadrotor_thrust_impulse_is_double_integrator():
    # oracle: closed-form integration of the printed chain gives
    # z(t) = t^2 / (2 m) for a unit thrust deviation step
    m = 1.7
    sys = quadrotor_linearized(QuadrotorParams(m=m))
    for t in [0.01, 0.05, 0.1]:
        n = sys.state_dim
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = sys.A
        aug[:n, n] = sys.B @ np.array([1.0, 0.0, 0.0])
        z = expm(aug, t)[2, n]
        assert z == pytest.approx(t**2 / (2 * m), rel=1e-9)


def test_quadrotor_params_validation():
    with pytest.raises(ValueError):
        QuadrotorParams(m=-1.0)
    with pytest.raises(ValueError):
        QuadrotorParams(J=np.diag([1.0, 1.0, -1.0]))


# ---------------------------------------------------------------- fixed wing


def test_fixedwing_level_trim_row():
    p = FixedWingParams(u_star=16.0, theta_star=0.0, w_star=0.0)
    A = fixedwing_linearized(p).A
    assert np.allclose(A[1], [0.0, 0.0, 0.0, -1.0, 0.0, 16.0])


def test_fixedwing_kinematic_entries_and_zero_columns():
    p = FixedWingParams(u_star=20.0, theta_star=0.05, w_star=0.3, X_u=-0.4, Z_w=-3.0, M_q=-2.0)
    sys = fixedwing_linearized(p)
    A = sys.A
    assert A[0, 2] == 1.0
    assert A[1, 2] == pytest.approx(np.sin(0.05))
    assert A[1, 3] == pytest.approx(-np.cos(0.05))
    assert A[1, 5] == pytest.approx(20.0 * np.cos(0.05) + 0.3 * np.sin(0.05))
    assert A[5, 4] == 1.0
    assert not A[:, 0].any() and not A[:, 1].any()


def test_fixedwing_thrust_column():
    p = FixedWingParams(u_star=16.0, X_dt=4.5, X_de=0.1, Z_de=-5.0, M_de=-20.0)
    B = fixedwing_linearized(p).B
    assert np.allclose(B[:, 1], [0.0, 0.0, 4.5, 0.0, 0.0, 0.0])
    assert np.allclose(B[:, 0], [0.0, 0.0, 0.1, -5.0, -20.0, 0.0])


def test_fixedwing_pure_kinematics_flow():
    # with all derivatives zero the matrix is nilpotent, so the Taylor
    # series terminates and serves as an exact oracle
    p = FixedWingParams(u_star=16.0)
    A = fixedwing_linearized(p).A
    assert not np.linalg.matrix_power(A, 5).any()
    t = 2.0
    oracle = sum(np.linalg.matrix_power(A * t, k) / math.factorial(k) for k in range(5))
    assert np.allclose(expm(A, t), oracle, atol=1e-10)
    # pitch offset drifts altitude through the u* theta coupling
    x0 = np.zeros(6)
    x0[5] = 0.01
    x = expm(A, t) @ x0
    assert x[1] == pytest.approx(16.0 * 0.01 * t, rel=1e-9)
    assert x[0] == pytest.approx(-9.81 * 0.01 * t**2 / 2.0, rel=1e-9)


def test_fixedwing_requires_forward_speed():
    with pytest.raises(ValueError):
        FixedWingParams(u_star=0.0)


# ---------------------------------------------------------------- nominal


def rk4_nominal(f, x0, horizon, dt):
    """Fixed-step RK4 of x' = f(x) at the step horizon / ceil(horizon / dt),
    stopping at the horizon: the reference build_nominal's closed form
    matches bit for bit."""
    n_steps = int(np.ceil(horizon / dt - 1e-12))
    h = horizon / n_steps
    x = np.asarray(x0, dtype=float).copy()
    states = [x]
    for _ in range(n_steps):
        k1 = np.asarray(f(x), dtype=float)
        k2 = np.asarray(f(x + 0.5 * h * k1), dtype=float)
        k3 = np.asarray(f(x + 0.5 * h * k2), dtype=float)
        k4 = np.asarray(f(x + h * k3), dtype=float)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
    return np.linspace(0.0, horizon, n_steps + 1), np.array(states)


# signed zeros too: RK4 turns a -0.0 velocity into +0.0 after one step
coordinate = st.one_of(st.sampled_from([0.0, -0.0]),
                       st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@settings(max_examples=150, deadline=None)
@given(vehicle=st.sampled_from(["quadrotor", "fixedwing"]), data=st.data(),
       horizon=st.floats(0.25, 30.0), steps=st.integers(1, 120),
       divides=st.booleans(), stretch=st.floats(0.0, 1.0))
def test_nominal_is_rk4_bit_for_bit(vehicle, data, horizon, steps, divides, stretch):
    # grid steps that divide the horizon and grid steps that do not, where
    # the nominal's step is horizon / ceil(horizon / grid_step)
    name = "quadrotor_pair" if vehicle == "quadrotor" else "fixedwing_pair"
    doc = json.loads(builtin_scenario_path(name).read_text())
    dim = 3 if vehicle == "quadrotor" else 2
    for entry in doc["aircraft"]:
        entry["initial_position_m"] = data.draw(st.lists(coordinate, min_size=dim, max_size=dim))
        entry["initial_velocity_mps"] = data.draw(st.lists(coordinate, min_size=dim, max_size=dim))
    grid_step = horizon / steps if divides else horizon / (steps + stretch)
    sc = scenario_from_dict({**doc, "horizon_s": horizon, "grid_step_s": min(grid_step, horizon)})
    for i, ac in enumerate(sc.aircraft):
        if vehicle == "quadrotor":
            A, x0 = sc.specs[i].system.A, build_spec(sc, i).X0.center
            # the center sets only position and velocity, and the position
            # rows read only velocity, so the rate A x0 is constant
            assert not (A @ (A @ x0)).any()
            f = lambda x: A @ x
        else:
            x0 = np.zeros(6)
            x0[0:2] = ac.position
            x0[2] = abs(ac.velocity[0])
            if ac.velocity[0] < 0.0:
                x0[2] = -x0[2]
            rate = np.zeros(6)
            rate[0:2] = ac.velocity
            f = lambda x: rate
        times, states = rk4_nominal(f, x0, sc.horizon, sc.grid_step)
        nominal = build_nominal(sc, i)
        assert np.array_equal(nominal.times, times)
        assert np.array_equal(nominal.states, states)
        assert np.array_equal(np.signbit(nominal.states), np.signbit(states))


def test_nominal_trajectory_interpolation_and_validation():
    traj = NominalTrajectory(np.array([0.0, 1.0, 2.0]), np.array([[0.0], [2.0], [6.0]]))
    assert traj.state_at(0.5)[0] == pytest.approx(1.0)
    assert traj.state_at(2.0)[0] == pytest.approx(6.0)
    with pytest.raises(ValueError):
        NominalTrajectory(np.array([0.0, 1.0, 1.5]), np.zeros((3, 1)))



def scalar_interpolation(traj, t):
    """Reference: one time at a time, as state_at did before the batched form."""
    t = float(np.clip(t, traj.times[0], traj.times[-1]))
    i = int(np.searchsorted(traj.times, t, side="right") - 1)
    if i >= traj.times.shape[0] - 1:
        return traj.states[-1].copy()
    w = (t - traj.times[i]) / (traj.times[i + 1] - traj.times[i])
    return (1.0 - w) * traj.states[i] + w * traj.states[i + 1]


@pytest.mark.parametrize("n", [1, 2, 7])
def test_states_at_equals_scalar_interpolation(n):
    # the batched interpolation rounds as the scalar one, clamping included,
    # so the closest-approach search finds the same tau and l*
    rng = np.random.default_rng(n)
    traj = NominalTrajectory(0.3 + 0.1 * np.arange(n), rng.standard_normal((n, 4)))
    times = np.concatenate([traj.times, [0.0, traj.t1 + 1.0, traj.t1],
                            rng.uniform(0.2, traj.t1 + 0.1, 20)])
    batch = traj.states_at(times)
    assert batch.shape == (times.shape[0], 4)
    for t, row in zip(times, batch):
        assert np.array_equal(row, scalar_interpolation(traj, t))
        assert np.array_equal(traj.state_at(t), row)


def test_lti_similarity_preserves_flow():
    rng = np.random.default_rng(3)
    sys = LTISystem(rng.standard_normal((4, 4)), rng.standard_normal((4, 2)))
    S = np.diag([-1.0, 1.0, -1.0, 1.0])
    conj = sys.similarity(S)
    t = 0.7
    assert np.allclose(expm(conj.A, t), S @ expm(sys.A, t) @ np.linalg.inv(S), atol=1e-10)
    assert np.allclose(conj.B, S @ sys.B)

"""Linear flight models: LTI systems, matrix exponentials, vehicle linearizations.

Two vehicle models are provided.  The quadrotor is linearized about hover with
the yaw channel removed (10 states, 3 inputs); the fixed-wing model is the
longitudinal plane linearized about leveled cruise (6 states, 2 inputs).
Numeric stability/control derivatives for the fixed-wing model are scenario
inputs, not constants of this module.  A nominal trajectory is a uniformly
sampled state sequence; both vehicles' nominals are straight lines built in
closed form by reachsep.scenario.build_nominal, with no integrator.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LTISystem:
    """x' = A x + B u with fixed A, B."""

    A: np.ndarray
    B: np.ndarray
    # reachability's quadrature grid batches, keyed by (times, steps); A and B
    # are read-only, so every spec built on this system can share them
    grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise ValueError("B rows must match state dimension")
        A.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def input_dim(self) -> int:
        return self.B.shape[1]

    def similarity(self, S: np.ndarray) -> "LTISystem":
        """Coordinate change x_new = S x: returns (S A S^-1, S B)."""
        S = np.asarray(S, dtype=float)
        return LTISystem(S @ self.A @ np.linalg.inv(S), S @ self.B)


@dataclass(frozen=True)
class QuadrotorParams:
    """Mass, inertia and gravity for the hover linearization."""

    m: float = 1.0
    J: np.ndarray = field(default_factory=lambda: np.diag([0.01, 0.01, 0.02]))
    g: float = 9.81

    def __post_init__(self):
        J = np.asarray(self.J, dtype=float)
        if self.m <= 0.0 or self.g <= 0.0:
            raise ValueError("mass and gravity must be positive")
        if J.shape != (3, 3) or np.abs(J - J.T).max() > 1e-12 or np.linalg.eigvalsh(J).min() <= 0.0:
            raise ValueError("inertia must be symmetric positive definite 3x3")
        J.setflags(write=False)
        object.__setattr__(self, "J", J)


@dataclass(frozen=True)
class FixedWingParams:
    """Trim state and dimensional derivatives of the longitudinal model.

    All values are per-unit linearization coefficients around leveled cruise
    (u_star forward speed, w_star vertical body speed, theta_star pitch trim).
    """

    u_star: float
    theta_star: float = 0.0
    w_star: float = 0.0
    X_u: float = 0.0
    X_w: float = 0.0
    X_q: float = 0.0
    Z_u: float = 0.0
    Z_w: float = 0.0
    Z_q: float = 0.0
    M_u: float = 0.0
    M_w: float = 0.0
    M_q: float = 0.0
    X_de: float = 0.0
    X_dt: float = 0.0
    Z_de: float = 0.0
    M_de: float = 0.0
    g: float = 9.81

    def __post_init__(self):
        if self.u_star <= 0.0:
            raise ValueError("forward trim speed must be positive")
        vals = [getattr(self, f) for f in self.__dataclass_fields__]
        if not np.all(np.isfinite(vals)):
            raise ValueError("all derivatives must be finite")


@dataclass(frozen=True)
class NominalTrajectory:
    """Uniformly sampled state trajectory with linear interpolation."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.atleast_2d(np.asarray(self.states, dtype=float))
        if t.ndim != 1 or x.shape[0] != t.shape[0]:
            raise ValueError("times and states must align")
        dt = np.diff(t)
        if t.shape[0] > 1:
            if dt.min() <= 0.0:
                raise ValueError("times must be strictly increasing")
            if np.abs(dt - dt[0]).max() > 1e-12 * max(1.0, abs(t[-1])):
                raise ValueError("time grid must be uniform")
        t.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", x)

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t1(self) -> float:
        return float(self.times[-1])

    def state_at(self, t: float) -> np.ndarray:
        """Linear interpolation; t is clamped to the sampled range."""
        return self.states_at([t])[0]

    def states_at(self, times) -> np.ndarray:
        """state_at at each of times, one row each."""
        t = np.clip(np.asarray(times, dtype=float), self.times[0], self.times[-1])
        n = self.times.shape[0]
        if n == 1:
            return np.repeat(self.states, t.shape[0], axis=0)
        i = np.searchsorted(self.times, t, side="right") - 1
        last = i >= n - 1
        i = np.minimum(i, n - 2)
        w = ((t - self.times[i]) / (self.times[i + 1] - self.times[i]))[:, None]
        out = (1.0 - w) * self.states[i] + w * self.states[i + 1]
        out[last] = self.states[-1]
        return out


def expm(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^(A t) by scaling and squaring with a diagonal Pade(6) approximant.

    The matrix is scaled so the 1-norm of A*t/2^s is at most 0.5, the order-6
    diagonal Pade approximant is evaluated, and the result squared s times.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expm needs a square matrix")
    if not np.isfinite(t):
        raise ValueError("expm needs finite t")
    M = A * t
    n = M.shape[0]
    norm = np.abs(M).sum(axis=0).max() if n else 0.0
    s = max(0, int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0)
    M = M / (2.0**s)
    # diagonal Pade(6): p(x)/p(-x) with p the degree-6 numerator
    c = np.array([1.0, 1 / 2, 5 / 44, 1 / 66, 1 / 792, 1 / 15840, 1 / 665280])
    M2 = M @ M
    U = M @ (c[1] * np.eye(n) + c[3] * M2 + c[5] * M2 @ M2)
    V = c[0] * np.eye(n) + c[2] * M2 + c[4] * M2 @ M2 + c[6] * M2 @ M2 @ M2
    F = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        F = F @ F
    return F


def quadrotor_linearized(p: QuadrotorParams) -> LTISystem:
    """Hover linearization with zero-yaw constraint.

    State order (x, y, z, vx, vy, vz, phi, theta, p, q); inputs are thrust
    deviation from hover trim (F - m g) and the roll/pitch torques (u1, u2).
    Torques act through the first two columns of J^-1.
    """
    A = np.zeros((10, 10))
    A[0:3, 3:6] = np.eye(3)
    A[3, 7] = p.g
    A[4, 6] = -p.g
    A[6, 8] = 1.0
    A[7, 9] = 1.0
    B = np.zeros((10, 3))
    B[5, 0] = 1.0 / p.m
    B[8:10, 1:3] = np.linalg.inv(p.J)[0:2, 0:2]
    return LTISystem(A, B)


def fixedwing_linearized(p: FixedWingParams) -> LTISystem:
    """Longitudinal cruise linearization, states (x, z, u, w, q, theta)."""
    st, ct = np.sin(p.theta_star), np.cos(p.theta_star)
    A = np.array([
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, st, -ct, 0.0, p.u_star * ct + p.w_star * st],
        [0.0, 0.0, p.X_u, p.X_w, p.X_q, -p.g * ct],
        [0.0, 0.0, p.Z_u, p.Z_w, p.Z_q, -p.g * st],
        [0.0, 0.0, p.M_u, p.M_w, p.M_q, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
    ])
    B = np.array([
        [0.0, 0.0],
        [0.0, 0.0],
        [p.X_de, p.X_dt],
        [p.Z_de, 0.0],
        [p.M_de, 0.0],
        [0.0, 0.0],
    ])
    return LTISystem(A, B)

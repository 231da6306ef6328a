"""Reachable sets and tubes of LTI systems with ellipsoidal input/initial sets.

The reachable set at time t is characterized exactly by its support function,

    rho(l) = <l, Phi c0> + <l, int Phi B cu ds> + <l, Phi M0 Phi' l>^(1/2)
             + <l, int Phi cv ds> + int <l, Phi B Mu B' Phi' l>^(1/2) ds
             + int <l, Phi Mv Phi' l>^(1/2) ds,

with Phi = e^(A (t - s)).  Integrals use composite Simpson quadrature on a
fixed grid; panels where a square-root integrand vanishes fall back to the
midpoint rule.  Transition matrices along the quadrature grid are formed once
per (t, step-count) pair and cached on the spec, so sweeping directions is
cheap.  Every input set enters through one kernel: with S_i = Phi_i B for U
and Phi_i for V, w_i = S_i' l and q_i = <w_i, M w_i>; support values integrate
<w_i, c> and sqrt(q_i), touching points the response to c + M w_i / sqrt(q_i).

Separation of two projected sets is the distance from 0 to P(A_t) - P(B_t),
found as a minimum-norm point from touching points alone: Gilbert's
iteration gives an upper bound, the support values a lower bound, and the
search stops on their duality gap.  Touching or overlapping sets, where the
signed value is a nonconvex problem, go to a multistart sphere ascent.
"""

from dataclasses import dataclass, field

import numpy as np

from .dynamics import LTISystem, NominalTrajectory, expm
from .ellipsoid import Ellipsoid, HalfspaceSet, support

VANISH_REL = 1e-13
GAP_REL = 1e-12  # duality-gap stop of the minimum-norm point, relative to max(1, distance)
MNP_MAX_ITERS = 1000  # then the multistart ascent decides, uncertified


@dataclass(frozen=True)
class ReachSpec:
    """Everything needed to evaluate one aircraft's reachable sets."""

    system: LTISystem
    X0: Ellipsoid
    U: Ellipsoid
    horizon: float
    V: Ellipsoid | None = None
    quad_steps: int = 200
    center_offset: NominalTrajectory | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.quad_steps < 16:
            raise ValueError("quad_steps must be at least 16")
        if self.X0.dim != self.system.state_dim:
            raise ValueError("initial set dimension must match state dimension")
        if self.U.dim != self.system.input_dim:
            raise ValueError("control set dimension must match input dimension")
        if self.V is not None and self.V.dim != self.system.state_dim:
            raise ValueError("disturbance set dimension must match state dimension")

    def with_control(self, U: Ellipsoid) -> "ReachSpec":
        return ReachSpec(self.system, self.X0, U, self.horizon, self.V,
                         self.quad_steps, self.center_offset)

    def offset_at(self, t: float) -> np.ndarray:
        if self.center_offset is None:
            return np.zeros(self.system.state_dim)
        return self.center_offset.state_at(t)


@dataclass(frozen=True)
class ReachTube:
    """Support values (and optional touching points) on a time x direction grid."""

    times: np.ndarray  # (T,)
    directions: np.ndarray  # (D, n) unit rows
    support_values: np.ndarray  # (T, D)
    touching_points: np.ndarray | None = None  # (T, D, n)

    def __post_init__(self):
        if not np.all(np.isfinite(self.support_values)):
            raise ValueError("tube support values must be finite")


class _Grid:
    """Simpson grid for one (t, n_steps): transition matrices and weights."""

    def __init__(self, system: LTISystem, t: float, n_steps: int):
        n_steps += n_steps % 2  # Simpson needs an even subinterval count
        self.t = t
        self.h = t / n_steps
        self.s = np.linspace(0.0, t, n_steps + 1)
        E = expm(system.A, self.h)
        n = system.state_dim
        Phi = np.empty((n_steps + 1, n, n))
        Phi[n_steps] = np.eye(n)
        for i in range(n_steps - 1, -1, -1):
            Phi[i] = E @ Phi[i + 1]
        self.Phi = Phi  # Phi[i] = e^(A (t - s_i))
        self.PhiB = Phi @ system.B
        w = np.ones(n_steps + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        self.simpson_w = w * (self.h / 3.0)

    def _panels(self, q: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """Per-panel integrals of samples: Simpson, midpoint where q vanishes."""
        thresh = VANISH_REL * max(q.max(initial=0.0), 0.0)
        vanish = (q[:-1:2] <= thresh) | (q[1::2] <= thresh) | (q[2::2] <= thresh)
        simp = (self.h / 3.0) * (samples[:-1:2] + 4.0 * samples[1::2] + samples[2::2])
        mid = 2.0 * self.h * samples[1::2]
        return np.where(vanish.reshape(vanish.shape + (1,) * (samples.ndim - 1)), mid, simp)

    def integrate_sqrt(self, q: np.ndarray) -> float:
        """Integral of sqrt(q(s)); midpoint fallback on panels where q vanishes."""
        return float(self._panels(q, np.sqrt(np.clip(q, 0.0, None))).sum())

    def integrate_matched(self, q: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """Integrate vector-valued samples with the same panel rule as integrate_sqrt."""
        return self._panels(q, samples).sum(axis=0)


def _grid_for(spec: ReachSpec, t: float, n_steps: int | None = None) -> _Grid:
    n = spec.quad_steps if n_steps is None else n_steps
    key = (round(float(t), 12), n)
    g = spec._cache.get(key)
    if g is None:
        g = _Grid(spec.system, t, n)
        spec._cache[key] = g
    return g


def _check_time(spec: ReachSpec, t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= spec.horizon + 1e-12:
        raise ValueError(f"time {t} outside [0, {spec.horizon}]")
    return min(t, spec.horizon)


def _initial_term(g: _Grid, X0: Ellipsoid, l: np.ndarray):
    """Initial-set image along l: (<l, Phi c0>, <l, Phi M0 Phi' l>, Phi' l)."""
    lT = g.Phi[0].T @ l
    return float(lT @ X0.center), float(lT @ X0.shape @ lT), lT


def _input_terms(stack: np.ndarray, E: Ellipsoid, l: np.ndarray):
    """(w_i, q_i) = (stack_i' l, <w_i, M_E w_i>) for an input set E entering
    through stack: Phi_i B for the control set, Phi_i for the disturbance."""
    w = stack.transpose(0, 2, 1) @ l
    return w, np.einsum("ij,jk,ik->i", w, E.shape, w)


def _input_value(g: _Grid, stack: np.ndarray, E: Ellipsoid, l: np.ndarray):
    """(center, square-root) support terms of one input set along l."""
    w, q = _input_terms(stack, E, l)
    return float(g.simpson_w @ (w @ E.center)), g.integrate_sqrt(q)


def _input_image(g: _Grid, stack: np.ndarray, E: Ellipsoid, l: np.ndarray):
    """State response to the input maximizing <l, x>, and that input profile."""
    w, q = _input_terms(stack, E, l)
    u = np.tile(E.center, (w.shape[0], 1))
    alive = q > VANISH_REL * max(q.max(initial=0.0), 0.0)
    u[alive] += (w[alive] @ E.shape) / np.sqrt(q[alive])[:, None]
    return g.integrate_matched(q, np.einsum("inm,im->in", stack, u)), u


def _touching_point(spec: ReachSpec, g: _Grid, l: np.ndarray):
    """(state without center offset, x0, control profile) maximizing <l, x>."""
    _, q0, lT = _initial_term(g, spec.X0, l)
    x0 = spec.X0.center + spec.X0.shape @ lT / np.sqrt(q0) if q0 > 0.0 else spec.X0.center.copy()
    image, u = _input_image(g, g.PhiB, spec.U, l)
    state = g.Phi[0] @ x0 + image
    if spec.V is not None:
        state = state + _input_image(g, g.Phi, spec.V, l)[0]
    return state, x0, u


def _unit_rows(directions) -> np.ndarray:
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    norms = np.linalg.norm(directions, axis=1)
    if norms.shape[0] and norms.min() <= 0.0:
        raise ValueError("directions must be nonzero")
    return directions / norms[:, None]


def reach_support(spec: ReachSpec, t: float, l, n_steps: int | None = None) -> float:
    """Support value of the reachable set at time t along direction l."""
    t = _check_time(spec, t)
    l = np.asarray(l, dtype=float)
    if not np.any(l):
        raise ValueError("direction must be nonzero")
    offset = float(l @ spec.offset_at(t))
    if t == 0.0:
        return support(spec.X0, l)[0] + offset
    g = _grid_for(spec, t, n_steps)
    a0, q0, _ = _initial_term(g, spec.X0, l)
    value = a0 + np.sqrt(max(q0, 0.0))
    for stack, E in [(g.PhiB, spec.U), (g.Phi, spec.V)]:
        if E is not None:
            center_term, sqrt_term = _input_value(g, stack, E, l)
            value = value + center_term + sqrt_term
    return value + offset


def disturbance_contribution(spec: ReachSpec, t: float, l) -> float:
    """The two disturbance terms of the support formula, on their own."""
    if spec.V is None:
        return 0.0
    t = _check_time(spec, t)
    if t == 0.0:
        return 0.0
    g = _grid_for(spec, t)
    center_term, sqrt_term = _input_value(g, g.Phi, spec.V, np.asarray(l, dtype=float))
    return center_term + sqrt_term


def reach_point(spec: ReachSpec, t: float, l):
    """Exactly reachable state maximizing <l, x>, with its witnesses.

    Returns (state, x0, (s_grid, u_profile)).  The initial state and control
    profile are the support-function maximizers; re-integrating them through
    the dynamics reproduces the support value up to quadrature tolerance.
    """
    if spec.V is not None:
        raise ValueError("extremal recovery is defined for the disturbance-free case")
    t = _check_time(spec, t)
    l = np.asarray(l, dtype=float)
    if not np.any(l):
        raise ValueError("direction must be nonzero")
    if t == 0.0:
        x0 = support(spec.X0, l)[1]
        return x0 + spec.offset_at(t), x0, (np.array([0.0]), spec.U.center[None, :].copy())
    g = _grid_for(spec, t)
    state, x0, u = _touching_point(spec, g, l)
    return state + spec.offset_at(t), x0, (g.s.copy(), u)


def reach_polytope_outer(spec: ReachSpec, t: float, directions) -> HalfspaceSet:
    """Outer polytope from support values along the given directions."""
    unit = _unit_rows(directions)
    if unit.shape[0] == 0:
        raise ValueError("need at least one direction")
    offsets = np.array([reach_support(spec, t, l) for l in unit])
    return HalfspaceSet(unit, offsets)


def reach_tube(spec: ReachSpec, time_grid, directions, with_points: bool = False) -> ReachTube:
    """Support values over a time grid for a family of directions (possibly none)."""
    times = np.atleast_1d(np.asarray(time_grid, dtype=float))
    unit = _unit_rows(directions)
    vals = np.empty((times.shape[0], unit.shape[0]))
    pts = np.empty((times.shape[0], unit.shape[0], spec.system.state_dim)) if with_points else None
    for i, t in enumerate(times):
        for j, l in enumerate(unit):
            vals[i, j] = reach_support(spec, t, l)
            if with_points:
                pts[i, j] = reach_point(spec, t, l)[0]
    return ReachTube(times, unit, vals, pts)


def support_gradient(spec: ReachSpec, t: float, l) -> tuple[float, np.ndarray]:
    """Support value and its gradient in l (the touching point's state).

    Unlike reach_point this also covers disturbance-bearing specs: the
    gradient then includes the worst-case disturbance contribution.
    """
    t = _check_time(spec, t)
    l = np.asarray(l, dtype=float)
    offset = spec.offset_at(t)
    if t == 0.0:
        val, pt = support(spec.X0, l)
        return val + float(l @ offset), pt + offset
    point = _touching_point(spec, _grid_for(spec, t), l)[0] + offset
    return float(l @ point), point


def _sphere_starts(k: int, count: int = 8) -> np.ndarray:
    """Deterministic unit starting directions: axes first, then seeded fill."""
    starts = [sign * e for e in np.eye(k) for sign in (1.0, -1.0)]
    rng = np.random.default_rng(0)
    while len(starts) < count:
        v = rng.standard_normal(k)
        starts.append(v / np.linalg.norm(v))
    return np.array(starts[:count])


def _oracle(specA: ReachSpec, specB: ReachSpec, t: float, P: np.ndarray, l: np.ndarray):
    """g(l) = -rho_A(-P'l) - rho_B(P'l) and the point s = P x_A - P x_B of
    C = P(A_t) - P(B_t) minimizing <l, s>, so that g(l) = <l, s>."""
    vA, xA = support_gradient(specA, t, -(P.T @ l))
    vB, xB = support_gradient(specB, t, P.T @ l)
    return -vA - vB, P @ xA - P @ xB


def _min_norm_point(specA: ReachSpec, specB: ReachSpec, t: float, P: np.ndarray):
    """Minimum-norm point of C = P(A_t) - P(B_t), with a duality-gap certificate.

    Primal: Gilbert's iteration keeps z in C, moving it to the nearest point
    of the segment [z, s] after each oracle call, so ||z|| bounds the distance
    from 0 to C from above.  Dual: every oracle value g(l) bounds it from
    below.  The next direction is a Barzilai-Borwein step on the unit sphere
    along the tangential part of s (the gradient of g there) when the last
    two directions give a positive curvature estimate, else Gilbert's own
    z / ||z||, which alone zigzags for thousands of steps when the sets
    nearly touch.  Returns (lower, upper, l, s) one step after upper - lower
    <= GAP_REL * max(1, upper), with l the direction attaining lower and s its
    oracle point: the closed gap pins the value, but the direction only to
    about sqrt(2 GAP_REL), and the extra step brings it to the superlinear
    end of the iteration.  None when ||z|| vanishes (the sets touch or
    overlap) or the gap is still open after MNP_MAX_ITERS steps.
    """
    l = np.eye(P.shape[0])[0]
    g, s = _oracle(specA, specB, t, P, l)
    lower, best_l, best_s, z = g, l, s, s
    l_prev = tangent_prev = None
    closed = False
    for _ in range(MNP_MAX_ITERS):
        upper = float(np.linalg.norm(z))
        tol = GAP_REL * max(1.0, upper)
        if upper <= tol:
            return None
        if upper - lower <= tol:
            if closed:
                return lower, upper, best_l, best_s
            closed = True
        tangent = s - g * l
        curvature = 0.0
        if l_prev is not None and np.any(l != l_prev):
            dl = l - l_prev
            curvature = -float(dl @ (tangent - tangent_prev)) / float(dl @ dl)
        l_prev, tangent_prev = l, tangent
        l = l + tangent / curvature if curvature > 0.0 else z / upper
        l = l / np.linalg.norm(l)
        g, s = _oracle(specA, specB, t, P, l)
        if g > lower:
            lower, best_l, best_s = g, l, s
        step = z - s
        length_sq = float(step @ step)
        if length_sq > 0.0:
            z = z - min(max(float(z @ step) / length_sq, 0.0), 1.0) * step
    return (lower, upper, best_l, best_s) if closed else None


def _sphere_ascent(specA: ReachSpec, specB: ReachSpec, t: float, P: np.ndarray):
    """Projected supergradient ascent of g from deterministic sphere starts.

    Returns (g, l, s) at the best direction found, s the oracle point along
    l.  Unlike the minimum-norm point it gives a signed value for touching or
    overlapping sets, a nonconvex problem, but it stops wherever backtracking
    gives up and certifies nothing.
    """
    best_val, best_l, best_s = -np.inf, None, None
    for l in _sphere_starts(P.shape[0]):
        val, grad = _oracle(specA, specB, t, P, l)
        for _ in range(200):
            # project out the radial component and renormalize after stepping
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


@dataclass(frozen=True)
class Separation:
    """Result of one separation check; unpacks as the pair (value, direction).

    certified: the minimum-norm-point duality gap closed, so value is the
    distance to within GAP_REL.  False when the sets touch or overlap or the
    iteration cap was hit; value then comes from the multistart ascent.
    gap: ||P x_A(l) - P x_B(l)|| - value at the returned direction l, an upper
    bound on how far value can sit below the distance when value >= 0.
    """

    value: float
    direction: np.ndarray
    certified: bool
    gap: float

    def __iter__(self):
        return iter((self.value, self.direction))

    def __getitem__(self, i):
        return (self.value, self.direction)[i]


def separation(specA: ReachSpec, specB: ReachSpec, t: float, P) -> Separation:
    """Signed separation of the two projected reachable sets at time t.

    The value is max g(l) = -rho_A(-P'l) - rho_B(P'l) over unit directions l
    in the projected subspace; when positive it is the distance between the
    sets, and any g(l) bounds that distance from below.  When the sets are
    apart the maximum is found as the minimum-norm point of P(A_t) - P(B_t)
    (Gilbert's algorithm), stopped on a duality gap of GAP_REL; otherwise, or
    if the gap does not close within MNP_MAX_ITERS steps, the multistart
    ascent gives the signed value and the result is marked uncertified.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    mnp = _min_norm_point(specA, specB, t, P)
    if mnp is not None:
        lower, _, l, s = mnp
        return Separation(float(lower), l, True, float(np.linalg.norm(s)) - lower)
    val, l, s = _sphere_ascent(specA, specB, t, P)
    return Separation(val, l, False, float(np.linalg.norm(s)) - val)

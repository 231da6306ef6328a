"""Reachable sets and tubes of LTI systems with ellipsoidal input/initial sets.

The reachable set at time t is characterized exactly by its support function,

    rho(l) = <l, Phi c0> + <l, int Phi B cu ds> + <l, Phi M0 Phi' l>^(1/2)
             + <l, int Phi cv ds> + int <l, Phi B Mu B' Phi' l>^(1/2) ds
             + int <l, Phi Mv Phi' l>^(1/2) ds,

with Phi = e^(A (t - s)).  Integrals use composite Simpson quadrature on a
fixed grid; panels where a square-root integrand vanishes fall back to the
midpoint rule, and the initial-set root counts only above the rounding level
of M0.  Transition matrices along the quadrature grid are formed once per
(t, step-count) pair and cached on the system, so every spec built on it
shares them.  Every input set enters through one kernel: with S_i = Phi_i B
for U and Phi_i for V, w_i = S_i' l and q_i = <w_i, M w_i>; support values
integrate <w_i, c> and sqrt(q_i), touching points the response to
c + M w_i / sqrt(q_i).  Support values are batched: a (D, n) block of
directions gives w as one (N+1, D, m) product, and the panel rule runs per
direction.

Separation of two projected sets is the distance from 0 to P(A_t) - P(B_t),
found as a minimum-norm point from touching points alone: Gilbert's
iteration gives an upper bound, the support values a lower bound, and the
search stops on their duality gap.  Touching or overlapping sets, where the
signed value is a nonconvex problem, go to an expanding inner hull of the
touching points: the depth of its nearest facet bounds the penetration
depth from below, so the signed value gets a duality gap too.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .dynamics import LTISystem, NominalTrajectory, expm
from .ellipsoid import Ellipsoid, HalfspaceSet, support

VANISH_REL = 1e-13
GAP_REL = 1e-12  # duality-gap stop of both separation loops, relative to max(1, |value|)
MNP_MAX_ITERS = 1000  # per loop; a capped run returns its lower bound, uncertified


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
        """Per-panel integrals of samples: Simpson, midpoint where q vanishes.

        q is (N+1,) or (N+1, D), one column per direction, and each column
        vanishes relative to its own maximum; samples may carry trailing axes.
        """
        thresh = VANISH_REL * np.maximum(q.max(axis=0, initial=0.0), 0.0)
        vanish = (q[:-1:2] <= thresh) | (q[1::2] <= thresh) | (q[2::2] <= thresh)
        simp = (self.h / 3.0) * (samples[:-1:2] + 4.0 * samples[1::2] + samples[2::2])
        mid = 2.0 * self.h * samples[1::2]
        return np.where(vanish.reshape(vanish.shape + (1,) * (samples.ndim - q.ndim)), mid, simp)

    def integrate_sqrt(self, q: np.ndarray):
        """Integral of sqrt(q(s)) per column; midpoint fallback on panels where q vanishes."""
        return self.integrate_matched(q, np.sqrt(np.clip(q, 0.0, None)))

    def integrate_matched(self, q: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """Integrate vector-valued samples with the same panel rule as integrate_sqrt."""
        return self._panels(q, samples).sum(axis=0)


def _grid_for(spec: ReachSpec, t: float, n_steps: int | None = None) -> _Grid:
    """The grid for (t, n_steps), built once per system: it depends on A, B,
    t and n_steps only, so every spec of one system shares it."""
    n = spec.quad_steps if n_steps is None else n_steps
    key = (round(float(t), 12), n)
    grids = spec.system.grids
    g = grids.get(key)
    if g is None:
        g = grids[key] = _Grid(spec.system, t, n)
    return g


def _check_time(spec: ReachSpec, t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= spec.horizon + 1e-12:
        raise ValueError(f"time {t} outside [0, {spec.horizon}]")
    return min(t, spec.horizon)


def _initial_root(X0: Ellipsoid, lT: np.ndarray, q0):
    """sqrt(q0) per direction, 0 where q0 = <Phi' l, M0 Phi' l> is at the
    rounding level of M0: a flat X0 seen edge-on has no extent, not ~1e-9."""
    alive = q0 > VANISH_REL * np.trace(X0.shape) * (lT * lT).sum(axis=-1)
    return np.sqrt(np.where(alive, q0, 0.0))


def _initial_term(g: _Grid, X0: Ellipsoid, l: np.ndarray):
    """Initial-set image along one direction l, for touching points and the
    synthesis constants: (<l, Phi c0>, <l, Phi M0 Phi' l>^(1/2), Phi' l)."""
    lT = g.Phi[0].T @ l
    return float(lT @ X0.center), float(_initial_root(X0, lT, lT @ X0.shape @ lT)), lT


def _input_terms(stack: np.ndarray, E: Ellipsoid, L: np.ndarray):
    """(w_i, q_i) = (stack_i' l, <w_i, M_E w_i>) for an input set E entering
    through stack: Phi_i B for the control set, Phi_i for the disturbance.
    For a (D, n) batch of rows, w is (N+1, D, m) and q is (N+1, D)."""
    w = L @ stack
    return w, ((w @ E.shape) * w).sum(axis=-1)


def _input_values(g: _Grid, stack: np.ndarray, E: Ellipsoid, L: np.ndarray):
    """(center, square-root) support terms of one input set, one per row of L."""
    w, q = _input_terms(stack, E, L)
    return g.simpson_w @ (w @ E.center), g.integrate_sqrt(q)


def _input_image(g: _Grid, stack: np.ndarray, E: Ellipsoid, l: np.ndarray):
    """State response to the input maximizing <l, x>, and that input profile.

    q is summed by einsum, not by _input_terms' matmul: separation reports
    touching-point values unrounded, and the two sums differ in the last bit.
    """
    w = l @ stack
    q = np.einsum("ij,jk,ik->i", w, E.shape, w)
    u = np.tile(E.center, (w.shape[0], 1))
    alive = q > VANISH_REL * max(q.max(initial=0.0), 0.0)
    u[alive] += (w[alive] @ E.shape) / np.sqrt(q[alive])[:, None]
    return g.integrate_matched(q, np.einsum("inm,im->in", stack, u)), u


def _touching_point(spec: ReachSpec, g: _Grid, l: np.ndarray):
    """(state without center offset, x0, control profile) maximizing <l, x>."""
    _, root0, lT = _initial_term(g, spec.X0, l)
    x0 = spec.X0.center + spec.X0.shape @ lT / root0 if root0 > 0.0 else spec.X0.center.copy()
    image, u = _input_image(g, g.PhiB, spec.U, l)
    state = g.Phi[0] @ x0 + image
    if spec.V is not None:
        state = state + _input_image(g, g.Phi, spec.V, l)[0]
    return state, x0, u


def _support_values(spec: ReachSpec, t: float, L: np.ndarray, n_steps: int | None = None):
    """Support values of the reachable set at time t along each row of L (D, n).

    The batched kernel behind reach_support, reach_tube and the outer
    polytope: the initial-set and offset terms are one product each, and
    every input set one _input_values call.
    """
    t = _check_time(spec, t)
    offset = L @ spec.offset_at(t)
    if t == 0.0:
        q0 = ((L @ spec.X0.shape) * L).sum(axis=1)
        return L @ spec.X0.center + np.sqrt(np.maximum(q0, 0.0)) + offset
    g = _grid_for(spec, t, n_steps)
    LT = L @ g.Phi[0]
    values = LT @ spec.X0.center + _initial_root(spec.X0, LT, ((LT @ spec.X0.shape) * LT).sum(axis=1))
    for stack, E in [(g.PhiB, spec.U), (g.Phi, spec.V)]:
        if E is not None:
            center_terms, sqrt_terms = _input_values(g, stack, E, L)
            values = values + center_terms + sqrt_terms
    return values + offset


def _unit_rows(directions) -> np.ndarray:
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    norms = np.linalg.norm(directions, axis=1)
    if norms.shape[0] and norms.min() <= 0.0:
        raise ValueError("directions must be nonzero")
    return directions / norms[:, None]


def reach_support(spec: ReachSpec, t: float, l, n_steps: int | None = None) -> float:
    """Support value of the reachable set at time t along direction l."""
    l = np.asarray(l, dtype=float)
    if not np.any(l):
        raise ValueError("direction must be nonzero")
    return float(_support_values(spec, t, l[None, :], n_steps)[0])


def disturbance_contribution(spec: ReachSpec, t: float, l) -> float:
    """The two disturbance terms of the support formula, on their own."""
    if spec.V is None:
        return 0.0
    t = _check_time(spec, t)
    if t == 0.0:
        return 0.0
    g = _grid_for(spec, t)
    center_term, sqrt_term = _input_values(g, g.Phi, spec.V, np.asarray(l, dtype=float)[None, :])
    return float(center_term[0] + sqrt_term[0])


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
    return HalfspaceSet(unit, _support_values(spec, t, unit))


def reach_tube(spec: ReachSpec, time_grid, directions, with_points: bool = False) -> ReachTube:
    """Support values over a time grid for a family of directions (possibly none)."""
    times = np.atleast_1d(np.asarray(time_grid, dtype=float))
    unit = _unit_rows(directions)
    vals = np.empty((times.shape[0], unit.shape[0]))
    pts = np.empty((times.shape[0], unit.shape[0], spec.system.state_dim)) if with_points else None
    for i, t in enumerate(times):
        vals[i] = _support_values(spec, t, unit)
        if with_points:
            pts[i] = [reach_point(spec, t, l)[0] for l in unit]
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


def _oracle(specA: ReachSpec, specB: ReachSpec, t: float, P: np.ndarray, l: np.ndarray):
    """g(l) = -rho_A(-P'l) - rho_B(P'l) and the point s = P x_A - P x_B of
    C = P(A_t) - P(B_t) minimizing <l, s>, so that g(l) = <l, s>."""
    vA, xA = support_gradient(specA, t, -(P.T @ l))
    vB, xB = support_gradient(specB, t, P.T @ l)
    return -vA - vB, P @ xA - P @ xB


def _toward(z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Nearest point to 0 on the segment [z, s]: Gilbert's primal step."""
    step = z - s
    length_sq = float(step @ step)
    if length_sq == 0.0:
        return z
    return z - min(max(float(z @ step) / length_sq, 0.0), 1.0) * step


def _min_norm_point(specA: ReachSpec, specB: ReachSpec, t: float, P: np.ndarray):
    """Minimum-norm point of C = P(A_t) - P(B_t), with a duality-gap certificate.

    Primal: Gilbert's iteration keeps z in C, moving it to the nearest point
    of the segment [z, s] after each oracle call, so ||z|| bounds the distance
    from 0 to C from above.  Dual: every oracle value g(l) bounds it from
    below.  The next direction is a Barzilai-Borwein step on the unit sphere
    along the tangential part of s (the gradient of g there) when the last
    two directions give a positive curvature estimate and a step shorter
    than 1 / GAP_REL, else Gilbert's own z / ||z||, which alone zigzags for thousands of steps when the sets
    nearly touch.  Returns (lower, z, l, s, closed), with l the direction
    attaining lower and s its oracle point.  closed: the run stopped one step
    after ||z|| - lower <= GAP_REL * max(1, ||z||); the closed gap pins the
    value, but the direction only to about sqrt(2 GAP_REL), and the extra
    step brings it to the superlinear end of the iteration.  The run stops
    open when ||z|| vanishes, or when a step leaves z in place at a direction
    where g < 0 has settled (its tangential part below sqrt(GAP_REL)): the
    sets touch or overlap, and z cannot certify a signed value.  It also
    stops open after MNP_MAX_ITERS steps.
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
            return lower, z, best_l, best_s, False
        if upper - lower <= tol:
            if closed:
                return lower, z, best_l, best_s, True
            closed = True
        tangent = s - g * l
        curvature = 0.0
        if l_prev is not None and np.any(l != l_prev):
            dl = l - l_prev
            curvature = -float(dl @ (tangent - tangent_prev)) / float(dl @ dl)
        l_prev, tangent_prev = l, tangent
        # a step longer than 1 / GAP_REL turns l by a right angle to within
        # GAP_REL, and overflows the norm below when curvature is tiny
        bb_step = curvature > 0.0 and float(np.linalg.norm(tangent)) < curvature / GAP_REL
        l = l + tangent / curvature if bb_step else z / upper
        l = l / np.linalg.norm(l)
        g, s = _oracle(specA, specB, t, P, l)
        if g > lower:
            lower, best_l, best_s = g, l, s
        z_next = _toward(z, s)
        if (lower < 0.0 and np.array_equal(z_next, z)
                and np.linalg.norm(s - g * l) <= np.sqrt(GAP_REL) * max(1.0, -g)):
            return lower, z, best_l, best_s, False
        z = z_next
    return lower, z, best_l, best_s, closed


def _inner_hull(specA: ReachSpec, specB: ReachSpec, t: float, P: np.ndarray,
                lower: float, z: np.ndarray, l: np.ndarray, s: np.ndarray):
    """Signed separation from an inner hull, for sets that touch or overlap.

    Every oracle point lies in C = P(A_t) - P(B_t), so their convex hull H is
    inside C.  Once 0 is inside H, the distance from 0 to H's nearest facet
    is at most the penetration depth of C, so minus that distance bounds the
    signed value from above.  Gilbert's z keeps moving toward each new point,
    so ||z|| stays an upper bound too: it certifies touching and flat sets,
    and sets that turn out to be apart.  Every g(l) bounds the value from
    below.  Seeded with the 2k axis directions, each step asks the oracle
    along the outward normal of the facet nearest 0 (the expanding polytope
    of collision detection).  When the points are flat and Qhull cannot build
    H, it asks along both normals of their affine hull and along z / ||z||,
    Gilbert's own direction.  Starts from the bounds of _min_norm_point and
    returns (lower, upper, l, s, closed), closed when upper - lower <=
    GAP_REL * max(1, |lower|), open after MNP_MAX_ITERS hull steps.
    """
    pts = []
    queries = [sign * e for e in np.eye(P.shape[0]) for sign in (1.0, -1.0)]
    upper = float(np.linalg.norm(z))
    for _ in range(MNP_MAX_ITERS):
        for q in queries:
            g, p = _oracle(specA, specB, t, P, q)
            pts.append(p)
            z = _toward(z, p)
            if g > lower:
                lower, l, s = g, q, p
        z_norm = float(np.linalg.norm(z))
        upper = min(upper, z_norm)
        try:
            facets = ConvexHull(pts).equations  # rows (n, offset): <n, x> + offset <= 0 on H
        except QhullError:
            normal = np.linalg.svd(np.array(pts) - pts[0])[2][-1]
            queries = [normal, -normal] + ([z / z_norm] if z_norm > 0.0 else [])
        else:
            nearest = facets[np.argmax(facets[:, -1])]
            if nearest[-1] <= 0.0:
                upper = min(upper, float(nearest[-1]))
            queries = [-nearest[:-1]]
        if upper - lower <= GAP_REL * max(1.0, abs(lower)):
            return lower, upper, l, s, True
    return lower, upper, l, s, False


@dataclass(frozen=True)
class Separation:
    """Result of one separation check; unpacks as the pair (value, direction).

    certified: the duality gap closed, so value is the signed separation to
    within GAP_REL.  False only when the iteration cap was hit; value is then
    the best lower bound found.
    gap: when the minimum-norm point certifies (the sets are apart),
    ||P x_A(l) - P x_B(l)|| - value at the returned direction l; otherwise
    the inner hull's upper bound minus value.  Either way value + gap bounds
    the signed separation from above.
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
    in the projected subspace: the distance between the sets when positive,
    minus their penetration depth when negative, and any g(l) bounds it from
    below.  The minimum-norm point of P(A_t) - P(B_t) (Gilbert's algorithm)
    finds it when the sets are apart; when that stops without a certificate
    (the sets touch or overlap, or its cap was hit), the inner hull of the
    oracle points takes over and bounds the signed value from above.  Both
    stop on a duality gap of GAP_REL; a run that hits MNP_MAX_ITERS returns
    its best lower bound, marked uncertified.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    lower, z, l, s, closed = _min_norm_point(specA, specB, t, P)
    if closed:
        return Separation(float(lower), l, True, float(np.linalg.norm(s)) - lower)
    lower, upper, l, s, closed = _inner_hull(specA, specB, t, P, lower, z, l, s)
    return Separation(float(lower), l, closed, upper - lower)

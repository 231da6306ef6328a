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
shares them.  At t = 0 the grid has zero length: one node of weight 0, so
that time takes the same path as every other.  Every input set enters
through one kernel: with S_i = Phi_i B for U and Phi_i for V, w_i = S_i' l
and q_i = <w_i, M w_i>; support values integrate <w_i, c> and sqrt(q_i),
touching points the responses S_i c and S_i M w_i / sqrt(q_i), each center
term by Simpson and each root term by the panel rule, so that <l, x*> is
the support value.  Both are batched: a (D, n) block of directions gives w
as one (N+1, D, m) product, the panel rule runs per direction, and a single
direction is a one-row block.

Separation of two projected sets is the distance from 0 to P(A_t) - P(B_t),
found as a minimum-norm point from touching points alone: Gilbert's
iteration gives an upper bound, the support values a lower bound, and the
search stops on their duality gap.  Touching or overlapping sets, where the
signed value is a nonconvex problem, go to an expanding inner hull of the
touching points, a polytope grown one point at a time: the depth of its
nearest facet bounds the penetration depth from below, so the signed value
gets a duality gap too.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import LTISystem, NominalTrajectory, expm
from .ellipsoid import Ellipsoid, HalfspaceSet

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
    """Simpson grid for one (t, n_steps): transition matrices and weights.

    At t = 0 the grid has zero length: one node, s = 0 and h = 0, so its
    weight and every panel integral are 0 and only the initial set is left.
    """

    def __init__(self, system: LTISystem, t: float, n_steps: int):
        # Simpson needs an even subinterval count; a zero-length grid needs none
        n_steps = n_steps + n_steps % 2 if t > 0.0 else 0
        self.t = t
        self.h = t / max(n_steps, 1)
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
        dead = ~_alive(q)
        vanish = dead[:-1:2] | dead[1::2] | dead[2::2]
        simp = (self.h / 3.0) * (samples[:-1:2] + 4.0 * samples[1::2] + samples[2::2])
        mid = 2.0 * self.h * samples[1::2]
        return np.where(vanish.reshape(vanish.shape + (1,) * (samples.ndim - q.ndim)), mid, simp)

    def integrate(self, samples: np.ndarray) -> np.ndarray:
        """Simpson integral of samples over the grid (axis 0), trailing axes kept."""
        return (self.simpson_w @ samples.reshape(samples.shape[0], -1)).reshape(samples.shape[1:])

    def integrate_sqrt(self, q: np.ndarray):
        """Integral of sqrt(q(s)) per column; midpoint fallback on panels where q vanishes."""
        return self.integrate_matched(q, np.sqrt(np.clip(q, 0.0, None)))

    def integrate_matched(self, q: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """Integrate vector-valued samples with the same panel rule as integrate_sqrt."""
        return self._panels(q, samples).sum(axis=0)


def _grid_for(spec: ReachSpec, t: float) -> _Grid:
    """The grid at time t, built once per system: it depends on A, B, t and
    the step count only, so every spec of one system shares it."""
    key = (round(float(t), 12), spec.quad_steps)
    grids = spec.system.grids
    g = grids.get(key)
    if g is None:
        g = grids[key] = _Grid(spec.system, t, spec.quad_steps)
    return g


def _check_time(spec: ReachSpec, t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= spec.horizon + 1e-12:
        raise ValueError(f"time {t} outside [0, {spec.horizon}]")
    return min(t, spec.horizon)


def _alive(q: np.ndarray) -> np.ndarray:
    """Where q is above VANISH_REL of its column's maximum."""
    return q > VANISH_REL * np.maximum(q.max(axis=0, initial=0.0), 0.0)


def _initial_terms(g: _Grid, X0: Ellipsoid, L: np.ndarray):
    """(<l, Phi c0>, <l, Phi M0 Phi' l>^(1/2), M0 Phi' l) per row of L.

    The root is 0 where its square is at the rounding level of M0: a flat X0
    seen edge-on has no extent, not ~1e-9.
    """
    LT = L @ g.Phi[0]
    MLT = LT @ X0.shape
    q0 = (MLT * LT).sum(axis=-1)
    alive = q0 > VANISH_REL * np.trace(X0.shape) * (LT * LT).sum(axis=-1)
    return LT @ X0.center, np.sqrt(np.where(alive, q0, 0.0)), MLT


def _input_terms(stack: np.ndarray, E: Ellipsoid, L: np.ndarray):
    """(w_i, M_E w_i, q_i = <w_i, M_E w_i>) with w_i = stack_i' l, for an
    input set E entering through stack: Phi_i B for the control set, Phi_i
    for the disturbance.  For a (D, n) batch of rows, w is (N+1, D, m) and q
    is (N+1, D)."""
    w = L @ stack
    Mw = w @ E.shape
    return w, Mw, (Mw * w).sum(axis=-1)


def _inputs(spec: ReachSpec, g: _Grid):
    """(stack, set) of each input set: the control set first, then V if any."""
    return [(g.PhiB, spec.U)] + ([(g.Phi, spec.V)] if spec.V is not None else [])


def _support_values(spec: ReachSpec, t: float, L: np.ndarray):
    """Support values of the reachable set at time t along each row of L (D, n)."""
    t = _check_time(spec, t)
    g = _grid_for(spec, t)
    values, root0, _ = _initial_terms(g, spec.X0, L)
    values = values + root0
    for stack, E in _inputs(spec, g):
        w, _, q = _input_terms(stack, E, L)
        values = values + g.simpson_w @ (w @ E.center) + g.integrate_sqrt(q)
    return values + L @ spec.offset_at(t)


def _touching_points(spec: ReachSpec, t: float, L: np.ndarray):
    """Touching points of the reachable set at time t, one per row of L (D, n).

    Returns (points, x0, u): the states maximizing <l, x> (D, n), center
    offset included; the initial states (D, n) and control profiles
    (N+1, D, m) that reach them, each the maximizer of <l, x> over its set.
    Where a quadratic form vanishes the maximizer is the set's center:
    dividing M w by an infinite root there leaves the center alone.  The
    centers' response is integrated by Simpson on every panel, as in the
    support value.
    """
    t = _check_time(spec, t)
    g = _grid_for(spec, t)
    _, root0, MLT = _initial_terms(g, spec.X0, L)
    x0 = spec.X0.center + MLT / np.where(root0 > 0.0, root0, np.inf)[:, None]
    points = x0 @ g.Phi[0].T
    profiles = []
    for stack, E in _inputs(spec, g):
        _, Mw, q = _input_terms(stack, E, L)
        du = Mw / np.sqrt(np.where(_alive(q), q, np.inf))[..., None]
        points = (points + g.integrate(stack) @ E.center
                  + g.integrate_matched(q, du @ stack.transpose(0, 2, 1)))
        profiles.append(E.center + du)
    return points + spec.offset_at(t), x0, profiles[0]


def _unit_rows(directions) -> np.ndarray:
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    norms = np.linalg.norm(directions, axis=1)
    if norms.shape[0] and norms.min() <= 0.0:
        raise ValueError("directions must be nonzero")
    return directions / norms[:, None]


def _direction(l) -> np.ndarray:
    l = np.asarray(l, dtype=float)
    if not np.any(l):
        raise ValueError("direction must be nonzero")
    return l


def reach_support(spec: ReachSpec, t: float, l) -> float:
    """Support value of the reachable set at time t along direction l."""
    return float(_support_values(spec, t, _direction(l)[None, :])[0])


def disturbance_contribution(spec: ReachSpec, t: float, l) -> float:
    """The two disturbance terms of the support formula, on their own."""
    if spec.V is None:
        return 0.0
    g = _grid_for(spec, _check_time(spec, t))
    w, _, q = _input_terms(g.Phi, spec.V, np.asarray(l, dtype=float)[None, :])
    return float((g.simpson_w @ (w @ spec.V.center) + g.integrate_sqrt(q))[0])


def reach_point(spec: ReachSpec, t: float, l):
    """Exactly reachable state maximizing <l, x>, with its witnesses.

    Returns (state, x0, (s_grid, u_profile)).  The initial state and control
    profile are the support-function maximizers; re-integrating them through
    the dynamics reproduces the support value up to quadrature tolerance.
    """
    if spec.V is not None:
        raise ValueError("extremal recovery is defined for the disturbance-free case")
    t = _check_time(spec, t)
    points, x0, u = _touching_points(spec, t, _direction(l)[None, :])
    return points[0], x0[0], (_grid_for(spec, t).s.copy(), u[:, 0])


def reach_polytope_outer(spec: ReachSpec, t: float, directions) -> HalfspaceSet:
    """Outer polytope from support values along the given directions."""
    unit = _unit_rows(directions)
    if unit.shape[0] == 0:
        raise ValueError("need at least one direction")
    return HalfspaceSet(unit, _support_values(spec, t, unit))


def reach_tube(spec: ReachSpec, time_grid, directions, with_points: bool = False) -> ReachTube:
    """Support values over a time grid for a family of directions (possibly none),
    and with with_points their touching points, disturbance included."""
    times = np.atleast_1d(np.asarray(time_grid, dtype=float))
    unit = _unit_rows(directions)
    vals = np.empty((times.shape[0], unit.shape[0]))
    pts = np.empty((times.shape[0], unit.shape[0], spec.system.state_dim)) if with_points else None
    for i, t in enumerate(times):
        vals[i] = _support_values(spec, t, unit)
        if with_points:
            pts[i] = _touching_points(spec, t, unit)[0]
    return ReachTube(times, unit, vals, pts)


def support_gradient(spec: ReachSpec, t: float, l) -> tuple[float, np.ndarray]:
    """Support value and its gradient in l (the touching point's state).

    Unlike reach_point this also covers disturbance-bearing specs: the
    gradient then includes the worst-case disturbance contribution.
    """
    l = np.asarray(l, dtype=float)
    point = _touching_points(spec, t, l[None, :])[0][0]
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


class _Polytope:
    """Convex hull of points in 2 or 3 dimensions, grown one point at a time.

    Faces are k-tuples of point indices, oriented outward: an edge (i, j)
    runs counterclockwise in 2-D, a triangle (i, j, l) is counterclockwise
    seen from outside in 3-D.  A new point deletes the faces it sees and
    joins itself to each horizon ridge (a ridge of a deleted face whose other
    face stays) by putting itself in the place of the deleted face's
    remaining vertex, which keeps the orientation.  A point that sees no face
    beyond the rounding level, or whose horizon is not one cycle, is left
    out, so the polytope stays a closed hull of some of the points and lies
    inside their convex hull.  Until the points span k dimensions it has no
    faces, and each call to facets tries again to start from a simplex.
    """

    def __init__(self, dim: int):
        self.points = np.empty((0, dim))
        self.faces = np.empty((0, dim), dtype=int)
        self.planes = np.empty((0, dim + 1))  # rows (n, offset): <n, x> + offset <= 0 inside

    def _tol(self) -> float:
        return 16.0 * np.finfo(float).eps * float(np.abs(self.points).max(initial=0.0))

    def _planes(self, faces) -> np.ndarray:
        V = self.points[faces]
        d = V[:, 1:] - V[:, :1]
        planes = np.empty((faces.shape[0], faces.shape[1] + 1))
        n = planes[:, :-1]
        if faces.shape[1] == 2:
            n[:, 0], n[:, 1] = d[:, 0, 1], -d[:, 0, 0]
        else:
            n[:] = np.cross(d[:, 0], d[:, 1])
        n /= np.sqrt((n * n).sum(axis=1))[:, None]
        planes[:, -1] = -(n * V[:, 0]).sum(axis=1)
        return planes

    def add(self, p) -> None:
        self.points = np.vstack([self.points, p])
        if self.faces.shape[0]:
            self._insert(self.points.shape[0] - 1)

    def _insert(self, i: int) -> None:
        seen = self.planes[:, :-1] @ self.points[i] + self.planes[:, -1] > self._tol()
        if not seen.any():
            return
        k = self.faces.shape[1]
        ridges = {}
        for f in self.faces[seen].tolist():
            for j in range(k):
                key = tuple(sorted(f[:j] + f[j + 1:]))
                # a ridge of two deleted faces is not on the horizon
                ridges[key] = None if key in ridges else (f, j)
        horizon = [fj for fj in ridges.values() if fj is not None]
        if k == 2:
            closed = len(horizon) == 2
        else:  # the directed horizon edges must form a single cycle
            succ = {f[(j + 1) % 3]: f[(j + 2) % 3] for f, j in horizon}
            start = v = horizon[0][0][(horizon[0][1] + 1) % 3]
            cycle = set()
            while v in succ and v not in cycle:
                cycle.add(v)
                v = succ[v]
            closed = v == start and len(succ) == len(horizon) == len(cycle)
        if not closed:
            return
        new = np.array([f for f, _ in horizon])
        new[np.arange(len(horizon)), [j for _, j in horizon]] = i
        self.faces = np.vstack([self.faces[~seen], new])
        self.planes = np.vstack([self.planes[~seen], self._planes(new)])

    def _start(self) -> bool:
        """Faces of a simplex of the points, then every other point inserted;
        False while the points are flat."""
        X, k = self.points, self.points.shape[1]
        if X.shape[0] <= k:
            return False
        simplex = [int(np.argmax(np.linalg.norm(X - X.mean(axis=0), axis=1)))]
        basis = np.empty((0, k))
        for _ in range(k):
            r = X - X[simplex[0]]
            r = r - (r @ basis.T) @ basis
            far = int(np.argmax(np.linalg.norm(r, axis=1)))
            height = float(np.linalg.norm(r[far]))
            if height <= self._tol():
                return False
            simplex.append(far)
            basis = np.vstack([basis, r[far] / height])
        faces = np.array([[v for v in simplex if v != w] for w in simplex])
        planes = self._planes(faces)
        inward = (planes[:, :-1] * X[simplex]).sum(axis=1) + planes[:, -1] > 0.0
        faces[inward, :2] = faces[inward, 1::-1]
        self.faces, self.planes = faces, self._planes(faces)
        for i in range(X.shape[0]):
            if i not in simplex:
                self._insert(i)
        return True

    def facets(self) -> np.ndarray | None:
        """The face planes (n, offset), or None while the points are flat."""
        if not self.faces.shape[0] and not self._start():
            return None
        return self.planes


def _inner_hull(specA: ReachSpec, specB: ReachSpec, t: float, P: np.ndarray,
                lower: float, z: np.ndarray, l: np.ndarray, s: np.ndarray):
    """Signed separation from an inner hull, for sets that touch or overlap.

    Every oracle point lies in C = P(A_t) - P(B_t), so their convex hull H is
    inside C.  Once 0 is inside H, the distance from 0 to H's nearest facet
    is at most the penetration depth of C, so minus that distance bounds the
    signed value from above.  Gilbert's z keeps moving toward each new point,
    so ||z|| stays an upper bound too: it certifies touching and flat sets,
    and sets that turn out to be apart.  Every g(l) bounds the value from
    below.  Seeded with the 2k axis directions, each step adds its oracle
    point to H (_Polytope) and asks the oracle along the outward normal of
    the facet nearest 0: the expanding polytope of collision detection (van
    den Bergen 2001).  While the points are flat and span no polytope, it
    asks along both normals of their affine hull and along z / ||z||,
    Gilbert's own direction.  Starts from the bounds of _min_norm_point and
    returns (lower, upper, l, s, closed), closed when upper - lower <=
    GAP_REL * max(1, |lower|), open after MNP_MAX_ITERS hull steps.
    """
    hull = _Polytope(P.shape[0])
    queries = [sign * e for e in np.eye(P.shape[0]) for sign in (1.0, -1.0)]
    upper = float(np.linalg.norm(z))
    for _ in range(MNP_MAX_ITERS):
        for q in queries:
            g, p = _oracle(specA, specB, t, P, q)
            hull.add(p)
            z = _toward(z, p)
            if g > lower:
                lower, l, s = g, q, p
        z_norm = float(np.linalg.norm(z))
        upper = min(upper, z_norm)
        facets = hull.facets()  # rows (n, offset): <n, x> + offset <= 0 on H
        if facets is None:
            normal = np.linalg.svd(hull.points - hull.points[0])[2][-1]
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
    """Result of one separation check: the signed value and its direction.

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

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
shares them; the times a call needs that are not cached yet are built
together, in one recursion over a (T, N+1, n, n) stack.  At t = 0 the grid
has zero length: one node of weight 0, so that time takes the same path as
every other.  Every input set enters through one kernel: with S_i = Phi_i B
for U and Phi_i for V, w_i = S_i' l and q_i = <w_i, M w_i>; support values
integrate <w_i, c> and sqrt(q_i), touching points the responses S_i c and
S_i M w_i / sqrt(q_i), each center term by Simpson and each root term by the
panel rule, so that <l, x*> is the support value.  Both are batched: a
(D, n) block of directions gives w as one (N+1, D, m) product, the panel
rule runs per direction, and a single direction is a one-row block.

Seen through a (k, n) projection P, with the rows of P as the directions,
the same terms give the projected view (_project): per node the k x k Gram
G_i = Mw_i w_i', whose diagonal is q, and the center terms summed once per
time.  reachsep.distance searches the separation of two sets on that view,
and reachsep.synthesis reads its safe set from it.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import LTISystem, NominalTrajectory, expm
from .ellipsoid import Ellipsoid, HalfspaceSet

VANISH_REL = 1e-13


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
    """Support values on a time x direction grid."""

    times: np.ndarray  # (T,)
    directions: np.ndarray  # (D, n) unit rows
    support_values: np.ndarray  # (T, D)

    def __post_init__(self):
        if not np.all(np.isfinite(self.support_values)):
            raise ValueError("tube support values must be finite")


class _Grid:
    """Simpson grid for one (t, n_steps): transition matrices and weights.

    Built by _build_grids: E, Phi0 and PhiB are views into its stacks.  At
    t = 0 the grid has zero length: one node, s = 0 and h = 0, so its weight
    and every panel integral are 0 and only the initial set is left.
    """

    def __init__(self, t: float, E: np.ndarray, Phi0: np.ndarray, PhiB: np.ndarray):
        n_steps = PhiB.shape[0] - 1
        self.t = t
        self.h = t / max(n_steps, 1)
        self.s = np.linspace(0.0, t, n_steps + 1)
        self.E = E  # e^(A h)
        self.Phi0 = Phi0  # e^(A t)
        self.PhiB = PhiB  # PhiB[i] = e^(A (t - s_i)) B
        w = np.ones(n_steps + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        self.simpson_w = w * (self.h / 3.0)

    @cached_property
    def Phi(self) -> np.ndarray:
        """Phi[i] = e^(A (t - s_i)), which only a disturbance set reads:
        rebuilt from E on first use, by the recursion _build_grids ran."""
        return _transitions(self.E[None], self.s.shape[0] - 1)[0]

    def integrate(self, samples: np.ndarray) -> np.ndarray:
        """Simpson integral of samples over the grid (axis 0), trailing axes kept."""
        return (self.simpson_w @ samples.reshape(samples.shape[0], -1)).reshape(samples.shape[1:])

    def integrate_sqrt(self, q: np.ndarray):
        """Integral of sqrt(q(s)) per column; midpoint fallback on panels where q vanishes."""
        return self.integrate_matched(q, np.sqrt(np.clip(q, 0.0, None)))

    def integrate_matched(self, q: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """Integrate samples (N+1, ...) by _panel_sum, each column of q
        (N+1,) or (N+1, D) vanishing relative to its own maximum; samples
        may carry trailing axes.  Transposing puts the nodes last, with the
        axes of q aligned to those of samples."""
        return _panel_sum(self.h, _alive(q).T, samples.T).T


def _panel_sum(h, alive: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Sum over the panels of samples, nodes on the last axis: Simpson, with
    the midpoint rule on panels where a node is not alive.  The one panel
    rule of every root term, in support values, touching points and the
    projected response; alive and h broadcast against samples."""
    dead = ~alive
    vanish = dead[..., :-1:2] | dead[..., 1::2] | dead[..., 2::2]
    simp = (h / 3.0) * (samples[..., :-1:2] + 4.0 * samples[..., 1::2] + samples[..., 2::2])
    mid = 2.0 * h * samples[..., 1::2]
    return np.where(vanish, mid, simp).sum(axis=-1)


def _transitions(E: np.ndarray, n_steps: int) -> np.ndarray:
    """Phi[:, i] = E^(N - i) for a (T, n, n) stack of steps E, by the
    recursion Phi[:, i] = E Phi[:, i+1] from Phi[:, N] = I."""
    T, n, _ = E.shape
    Phi = np.empty((T, n_steps + 1, n, n))
    Phi[:, n_steps] = np.eye(n)
    for i in range(n_steps - 1, -1, -1):
        np.matmul(E, Phi[:, i + 1], out=Phi[:, i])
    return Phi


def _build_grids(system: LTISystem, times, n_steps: int) -> list:
    """The grids of a list of times, built together.

    Every t > 0 has the same node count (Simpson needs an even subinterval
    count, a zero-length grid needs none), so their transition matrices
    come from one recursion over a (T, N+1, n, n) stack, with one expm per
    time for its step E_t.  The grids keep views into the stacks of E_t,
    Phi_0 and PhiB; the full stack is dropped, and a disturbance set
    rebuilds its own time's (_Grid.Phi).
    """
    batches = {}
    for t in times:
        batches.setdefault(n_steps + n_steps % 2 if t > 0.0 else 0, []).append(t)
    built = {}
    for steps, batch in batches.items():
        E = np.stack([expm(system.A, t / max(steps, 1)) for t in batch])
        Phi = _transitions(E, steps)
        PhiB = Phi @ system.B
        for t, E_t, Phi0_t, PhiB_t in zip(batch, E, Phi[:, 0].copy(), PhiB):
            built[t] = _Grid(t, E_t, Phi0_t, PhiB_t)
    return [built[t] for t in times]


def _grids_for(spec: ReachSpec, times) -> list:
    """The grids at a list of times, each built once per system: a grid
    depends on A, B, t and the step count only, so every spec of one system
    shares it.  The times not cached yet are built in one batch."""
    grids = spec.system.grids
    keys = [(round(float(t), 12), spec.quad_steps) for t in times]
    missing = {}
    for key, t in zip(keys, times):
        if key not in grids:
            missing.setdefault(key, float(t))
    if missing:
        grids.update(zip(missing, _build_grids(spec.system, list(missing.values()),
                                               spec.quad_steps)))
    return [grids[key] for key in keys]


def _grid_for(spec: ReachSpec, t: float) -> _Grid:
    """The grid at time t: _grids_for of one time."""
    return _grids_for(spec, [t])[0]


def _check_time(spec: ReachSpec, t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= spec.horizon + 1e-12:
        raise ValueError(f"time {t} outside [0, {spec.horizon}]")
    return min(t, spec.horizon)


def _alive(q: np.ndarray, axis: int = 0) -> np.ndarray:
    """Where q is above VANISH_REL of its column's maximum along the node axis."""
    return q > VANISH_REL * np.maximum(q.max(axis=axis, initial=0.0, keepdims=True), 0.0)


def _initial_terms(g: _Grid, X0: Ellipsoid, L: np.ndarray):
    """(<l, Phi c0>, <l, Phi M0 Phi' l>^(1/2), M0 Phi' l) per row of L.

    The root is 0 where its square is at the rounding level of M0: a flat X0
    seen edge-on has no extent, not ~1e-9.
    """
    LT = L @ g.Phi0
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
    points = x0 @ g.Phi0.T
    profiles = []
    for stack, E in _inputs(spec, g):
        _, Mw, q = _input_terms(stack, E, L)
        du = Mw / np.sqrt(np.where(_alive(q), q, np.inf))[..., None]
        points = (points + g.integrate(stack) @ E.center
                  + g.integrate_matched(q, du @ stack.transpose(0, 2, 1)))
        profiles.append(E.center + du)
    return points + spec.offset_at(t), x0, profiles[0]


def _apply(G: np.ndarray, l: np.ndarray) -> np.ndarray:
    """G_t l_t for each row l_t of l (T, k), with G a (T, k, k) stack or a
    node stack (T, k, k, N+1).  The sum over columns runs in order, so a
    row's result does not depend on the rows beside it."""
    shape = (l.shape[0],) + (1,) * (G.ndim - 2)
    out = G[:, :, 0] * l[:, 0].reshape(shape)
    for b in range(1, l.shape[1]):
        out = out + G[:, :, b] * l[:, b].reshape(shape)
    return out


def _dot(l: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<l_t, v_t> for each row l_t of l (T, k), with v (T, k) or (T, k, N+1)."""
    return _apply(v[:, None], l)[:, 0]


@dataclass(frozen=True)
class _Projected:
    """One spec's reachable sets at a batch of times, seen through P (k, n).

    Directions l lie in the k-dim image of P, so each term of the support
    value at P'l is a quadratic form in l.  An input set E enters through its
    Gram node stack G_i = Mw_i w_i' (k x k), from the kernel's terms with the
    rows of P as the directions: q_i = <l, G_i l>, and the projected
    touching-point response is G_i l / sqrt(q_i), under the kernel's panel
    and vanish rules.  The initial set enters through G0 = P Phi_0 M0 Phi_0' P',
    with H0 = P Phi_0 Phi_0' P' for its vanish rule, and the center terms,
    offset included, are one point per time.  Node stacks are
    (T, k, k, N+1), nodes last; a zero-length grid's one node repeats along
    them under h = 0, which zeroes every panel.
    """

    times: np.ndarray  # (T,)
    center: np.ndarray  # (T, k)
    G0: np.ndarray  # (T, k, k)
    H0: np.ndarray  # (T, k, k)
    tol0: float  # VANISH_REL trace(M0)
    h: np.ndarray  # (T,)
    inputs: tuple  # one Gram node stack per input set, the control set first

    def take(self, rows) -> "_Projected":
        return _Projected(self.times[rows], self.center[rows], self.G0[rows], self.H0[rows],
                          self.tol0, self.h[rows], tuple(G[rows] for G in self.inputs))

    def response(self, l: np.ndarray) -> np.ndarray:
        """P x - center for the touching point x at P'l, one row per row of l (T, k)."""
        G0l = _apply(self.G0, l)
        q0 = _dot(l, G0l)
        alive0 = q0 > self.tol0 * _dot(l, _apply(self.H0, l))
        out = G0l / np.sqrt(np.where(alive0, q0, np.inf))[:, None]
        h = self.h[:, None, None]
        for G in self.inputs:
            Gl = _apply(G, l)  # (T, k, N+1)
            q = _dot(l, Gl)[:, None]  # (T, 1, N+1)
            alive = _alive(q, axis=-1)
            out = out + _panel_sum(h, alive, Gl / np.sqrt(np.where(alive, q, np.inf)))
        return out


def _project(spec: ReachSpec, times, P: np.ndarray) -> _Projected:
    """spec's reachable sets at the given times, seen through P (k, n)."""
    times = [_check_time(spec, t) for t in times]
    grids = _grids_for(spec, times)
    k, T = P.shape[0], len(times)
    nodes = max((g.s.shape[0] for g in grids), default=1)
    center, G0, H0 = np.empty((T, k)), np.empty((T, k, k)), np.empty((T, k, k))
    inputs = tuple(np.empty((T, k, k, nodes)) for _ in range(1 + (spec.V is not None)))
    for j, (t, g) in enumerate(zip(times, grids)):
        _, _, MLT = _initial_terms(g, spec.X0, P)
        PPhi0 = P @ g.Phi0
        G0[j], H0[j] = MLT @ PPhi0.T, PPhi0 @ PPhi0.T
        x = g.Phi0 @ spec.X0.center
        for (stack, E), G in zip(_inputs(spec, g), inputs):
            w, Mw, _ = _input_terms(stack, E, P)
            G[j] = np.einsum("iae,ibe->abi", Mw, w)  # G_i = Mw_i w_i'
            x = x + g.simpson_w @ (stack @ E.center)
        center[j] = P @ (x + spec.offset_at(t))
    return _Projected(np.array(times), center, G0, H0,
                      VANISH_REL * float(np.trace(spec.X0.shape)), np.array([g.h for g in grids]),
                      inputs)


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
    l = _direction(l)
    if spec.V is None:
        return 0.0
    g = _grid_for(spec, _check_time(spec, t))
    w, _, q = _input_terms(g.Phi, spec.V, l[None, :])
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


def reach_tube(spec: ReachSpec, time_grid, directions) -> ReachTube:
    """Support values over a time grid for a family of directions (possibly none)."""
    times = np.atleast_1d(np.asarray(time_grid, dtype=float))
    unit = _unit_rows(directions)
    vals = np.empty((times.shape[0], unit.shape[0]))
    _grids_for(spec, [_check_time(spec, t) for t in times])  # the missing grids, in one batch
    for i, t in enumerate(times):
        vals[i] = _support_values(spec, t, unit)
    return ReachTube(times, unit, vals)


def support_gradient(spec: ReachSpec, t: float, l) -> tuple[float, np.ndarray]:
    """Support value and its gradient in l (the touching point's state).

    Unlike reach_point this also covers disturbance-bearing specs: the
    gradient then includes the worst-case disturbance contribution.
    """
    l = _direction(l)
    point = _touching_points(spec, t, l[None, :])[0][0]
    return float(l @ point), point

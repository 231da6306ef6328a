"""Reachable sets and tubes of LTI systems with ellipsoidal input/initial sets.

The reachable set at time t is characterized exactly by its support function,

    rho(l) = <l, Phi c0> + <l, int Phi B cu ds> + <l, Phi M0 Phi' l>^(1/2)
             + <l, int Phi cv ds> + int <l, Phi B Mu B' Phi' l>^(1/2) ds
             + int <l, Phi Mv Phi' l>^(1/2) ds,

with Phi = e^(A (t - s)).  Integrals use composite Simpson quadrature on a
fixed grid; panels where a square-root integrand vanishes fall back to the
midpoint rule, and the initial-set root counts only above the rounding level
of M0.  The quadrature has one shape: a grid batch (_Grid) of T times, N + 1
nodes each, holding (T, ...) stacks of weights and transition matrices.  t = 0
is a grid like the others: its N + 1 nodes all sit at s = 0, with h = 0 and
step E = I, so its weights and every panel are 0.  The batch of each
request, its times and step count, is built once, in one recursion over a
(T, N+1, n, n) stack, and cached whole on the system, so every spec built on
it shares it.

Every support value and touching point comes from one kernel, the
projected view (_project): a spec's reachable sets at the times of a grid
batch, seen through a (k, n) projection P.  With S_i = Phi_i B for U and
Phi_i for V, an input set enters through its factor node stack
F_i = (P S_i) M^(1/2), the initial set through F0 = P Phi_0 M0^(1/2), and
the center terms, each input center by Simpson, are one point per time.
Along a direction l of the k-dim image of P every quadratic form is read
from its factor, q_i = |F_i' l|^2: |u|^2 keeps its digits where q is small
against its scale, which <l, G l> read from a Gram matrix G = F F' does
not.  Support values along the rows of P (_Projected.values) add to the
center the root terms (_Projected.roots): the initial-set root and each
input set's integral of sqrt(q_i) by the panel rule.  The touching point's
response at l (_Projected.response)
integrates F_i u_i / sqrt(q_i), u_i = F_i' l, by the same rule.  A root
term is sampled at every node where q_i > 0; a node below VANISH_REL of its
column's maximum only sends its panels to the midpoint rule.  So <l, x*> is
the support value.  reach_support reads the view with P = l, tubes with
the unit directions as P, and touching points with P = I.
reachsep.distance searches the separation of two sets on the view, and
reachsep.synthesis reads its safe set and phase-one constants from it.
"""

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .dynamics import LTISystem, NominalTrajectory, expm
from .ellipsoid import Ellipsoid

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


@dataclass(frozen=True)
class _Grid:
    """Simpson grids of a batch of T times, N + 1 nodes each, as (T, ...) stacks.

    Built by _build_grids.  At t = 0 the grid has zero length: its N + 1
    nodes all sit at s = 0, with h = 0 and E = I, so its weights and every
    panel integral are 0 and only the initial set is left.
    """

    times: np.ndarray  # (T,)
    h: np.ndarray  # (T,)
    simpson_w: np.ndarray  # (T, N+1)
    E: np.ndarray  # (T, n, n): e^(A h)
    Phi0: np.ndarray  # (T, n, n): e^(A t)
    PhiB: np.ndarray  # (T, N+1, n, m): PhiB[:, i] = e^(A (t - s_i)) B

    def take(self, rows) -> "_Grid":
        """The given rows; a disturbance stack already built comes along."""
        out = _Grid(*(getattr(self, f.name)[rows] for f in fields(self)))
        if "Phi" in vars(self):
            vars(out)["Phi"] = self.Phi[rows]
        return out

    @cached_property
    def Phi(self) -> np.ndarray:
        """Phi[:, i] = e^(A (t - s_i)), which only a disturbance set reads:
        rebuilt from E on first use, by the recursion _build_grids ran."""
        return _transitions(self.E, self.PhiB.shape[1] - 1)


def _panel_sum(h, alive: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Sum over the panels of samples, nodes on the last axis: Simpson, with
    the midpoint rule on panels where a node is not alive.  The one panel
    rule of every root term, in the view's support values and response;
    alive and h broadcast against samples."""
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


def _build_grids(system: LTISystem, times, n_steps: int) -> _Grid:
    """The grids of a list of times, built together.

    Every time has N + 1 nodes, N being n_steps rounded up to even (Simpson
    needs an even subinterval count), so the transition matrices come from
    one recursion over a (T, N+1, n, n) stack, with one expm per time for
    its step E_t = e^(A t / N).  The grid keeps the stacks of E, Phi_0 and
    PhiB; the full stack is dropped, and a disturbance set rebuilds it
    (_Grid.Phi).
    """
    N = n_steps + n_steps % 2
    times = np.array(times, dtype=float)
    h = times / N
    E = np.array([expm(system.A, step) for step in h]).reshape((-1,) + system.A.shape)
    Phi = _transitions(E, N)
    w = np.ones(N + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return _Grid(times, h, w * (h[:, None] / 3.0), E, Phi[:, 0].copy(), Phi @ system.B)


def _grids_for(spec: ReachSpec, times) -> _Grid:
    """The grid batch of a list of times, checked against the horizon.

    A batch depends on A, B, its times and the step count only, so each
    request is built once per system and cached on it whole, shared by every
    spec of the system.  A disturbance set's stack (_Grid.Phi) is built once
    per batch and kept with it.
    """
    key = (tuple(_check_time(spec, t) for t in times), spec.quad_steps)
    cache = spec.system.grids
    if key not in cache:
        cache[key] = _build_grids(spec.system, key[0], spec.quad_steps)
    return cache[key]


def _check_time(spec: ReachSpec, t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= spec.horizon + 1e-12:
        raise ValueError(f"time {t} outside [0, {spec.horizon}]")
    return min(t, spec.horizon)


def _alive(q: np.ndarray) -> np.ndarray:
    """Where q is above VANISH_REL of its column's maximum along the nodes, its last axis."""
    return q > VANISH_REL * np.maximum(q.max(axis=-1, initial=0.0, keepdims=True), 0.0)


def _offsets(spec: ReachSpec, g: _Grid) -> np.ndarray:
    """The center offset at each time of g, (T, n)."""
    if spec.center_offset is None:
        return np.zeros((g.times.shape[0], spec.system.state_dim))
    return spec.center_offset.states_at(g.times)


def _simpson(g: _Grid, samples: np.ndarray) -> np.ndarray:
    """Simpson integral over each grid of g of samples (T, N+1, D), as
    simpson_w @ samples per time: (T, D)."""
    return (g.simpson_w[:, None] @ samples)[:, 0]


def _inputs(spec: ReachSpec, g: _Grid):
    """(stack, set) of each input set: the control set first, then V if any."""
    return [(g.PhiB, spec.U)] + ([(g.Phi, spec.V)] if spec.V is not None else [])


def _apply(F: np.ndarray, v: np.ndarray) -> np.ndarray:
    """F_t v_t per time t, with F a (T, k, c) stack or a node stack
    (T, k, c, N+1) and v (T, c) or, one per node, (T, c, N+1).  The sum over
    the c columns runs in order, so a row's result does not depend on the
    rows beside it."""
    v = v.reshape(v.shape[:1] + (1,) + v.shape[1:] + (1,) * (F.ndim - v.ndim - 1))
    out = F[:, :, 0] * v[:, :, 0]
    for c in range(1, F.shape[2]):
        out += F[:, :, c] * v[:, :, c]
    return out


def _dot(l: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<l_t, v_t> per time t, with l and v (T, k), or v (T, k, N+1) and l
    (T, k) or (T, k, N+1)."""
    return _apply(v[:, None], l)[:, 0]


@dataclass(frozen=True)
class _Projected:
    """One spec's reachable sets at a batch of times, seen through P (k, n).

    Directions l lie in the k-dim image of P, so each term of the support
    value at P'l is a quadratic form in l, read from its factor.  An input
    set E enters through its factor node stack F_i = (P S_i) M^(1/2): with
    u_i = F_i' l, q_i = |u_i|^2, and the touching point's response is
    F_i u_i / sqrt(q_i), each under the panel and vanish rules.  The initial
    set enters through F0 = P Phi_0 M0^(1/2) the same way, with the vanish
    rule reading |u0|^2 against tol0 |PPhi0' l|^2, and the center terms,
    offset included, are one point per time.  Node stacks are
    (T, k, m, N+1), nodes last, as the grid batch's; at t = 0 the N + 1
    nodes are equal and h = 0 zeroes every panel.
    """

    times: np.ndarray  # (T,)
    center: np.ndarray  # (T, k)
    PPhi0: np.ndarray  # P Phi_0, (T, k, n)
    F0: np.ndarray  # P Phi_0 M0^(1/2), (T, k, n)
    tol0: float  # VANISH_REL trace(M0)
    h: np.ndarray  # (T,)
    inputs: tuple  # one factor node stack per input set, the control set first

    def take(self, rows) -> "_Projected":
        return _Projected(self.times[rows], self.center[rows], self.PPhi0[rows], self.F0[rows],
                          self.tol0, self.h[rows], tuple(F[rows] for F in self.inputs))

    def _q0(self, u0: np.ndarray, LT: np.ndarray) -> np.ndarray:
        """|u0|^2 of the initial set's factor image u0 = F0' l, along the last
        axis, or 0 where it is at the rounding level of M0, tol0 |LT|^2 with
        LT = PPhi0' l: a flat X0 seen edge-on has no extent, not ~1e-9."""
        q0 = (u0 * u0).sum(axis=-1)
        return np.where(q0 > self.tol0 * (LT * LT).sum(axis=-1), q0, 0.0)

    def roots(self) -> list:
        """The root terms of the support values along the rows of P, (T, k)
        each: the initial set's, then each input set's integral of sqrt(q)
        by the panel rule, each q read from its factor row."""
        roots = [np.sqrt(self._q0(self.F0, self.PPhi0))]
        h = self.h[:, None, None]
        for F in self.inputs:
            q = (F * F).sum(axis=2)  # (T, k, N+1)
            roots.append(_panel_sum(h, _alive(q), np.sqrt(q)))
        return roots

    def values(self) -> np.ndarray:
        """Support values along the rows of P, (T, k): the center plus the
        root terms."""
        values = self.center
        for root in self.roots():
            values = values + root
        return values

    def images(self, l: np.ndarray):
        """The factor images of P'l, one row of l (T, k) per time, each with
        its root: (u0, r0) of the initial set, u0 = F0' l (T, n) and
        r0 = |u0| (T, 1); then (u, q, r) per input set, u = F' l (T, m, N+1),
        q = |u|^2 and r = |u| (T, 1, N+1).  A root is inf where its square is
        0, so dividing by it leaves the set's center alone."""
        LT, u0 = (l[:, None] @ self.PPhi0)[:, 0], (l[:, None] @ self.F0)[:, 0]  # (T, n)
        q0 = self._q0(u0, LT)
        images = []
        for F in self.inputs:
            u = _apply(F.swapaxes(1, 2), l)  # (T, m, N+1)
            q = _dot(u, u)[:, None]  # (T, 1, N+1)
            images.append((u, q, np.sqrt(np.where(q > 0.0, q, np.inf))))
        return (u0, np.sqrt(np.where(q0 > 0.0, q0, np.inf))[:, None]), images

    def response(self, l: np.ndarray) -> np.ndarray:
        """P x - center for the touching point x at P'l, one row per row of l (T, k)."""
        (u0, r0), images = self.images(l)
        out = (self.F0 @ u0[..., None])[..., 0] / r0
        h = self.h[:, None, None]
        for F, (u, q, r) in zip(self.inputs, images):
            out = out + _panel_sum(h, _alive(q), _apply(F, u) / r)
        return out


def _project(spec: ReachSpec, g: _Grid, P: np.ndarray) -> _Projected:
    """spec's reachable sets at the times of the grid batch g, seen through P (k, n)."""
    x = g.Phi0 @ spec.X0.center
    inputs = []
    for stack, E in _inputs(spec, g):
        W = P @ stack  # (T, N+1, k, m)
        # the products with M^(1/2) and c over the last axis run as one 2-D
        # matmul each, not one per node; F keeps the nodes last
        F = np.empty((g.times.shape[0], P.shape[0], E.dim, stack.shape[1]))
        F.transpose(0, 3, 1, 2)[...] = (W.reshape(-1, E.dim) @ E.sqrt_shape()).reshape(W.shape)
        inputs.append(F)
        x = x + _simpson(g, (stack.reshape(-1, E.dim) @ E.center).reshape(stack.shape[:-1]))
    PPhi0 = P @ g.Phi0
    return _Projected(g.times, (P @ (x + _offsets(spec, g))[..., None])[..., 0], PPhi0,
                      PPhi0 @ spec.X0.sqrt_shape(), VANISH_REL * float(np.trace(spec.X0.shape)),
                      g.h, tuple(inputs))


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
    l = _direction(l)
    return float(_project(spec, _grids_for(spec, [t]), l[None, :]).values()[0, 0])


def disturbance_contribution(spec: ReachSpec, t: float, l) -> float:
    """The two disturbance terms of the support formula, on their own: the
    support value of the spec with X0 and U at the origin and no offset."""
    l = _direction(l)
    if spec.V is None:
        return 0.0
    n, m = spec.system.state_dim, spec.system.input_dim
    return reach_support(replace(spec, X0=Ellipsoid.point(np.zeros(n)),
                                 U=Ellipsoid.point(np.zeros(m)), center_offset=None), t, l)


def reach_point(spec: ReachSpec, t: float, l):
    """Exactly reachable state maximizing <l, x>, with its witnesses.

    Returns (state, x0, (s_grid, u_profile)).  The initial state and control
    profile are the support-function maximizers, recovered from the factor
    images F0' l and F' l of the view; re-integrating them through the
    dynamics reproduces the support value up to quadrature tolerance.
    """
    if spec.V is not None:
        raise ValueError("extremal recovery is defined for the disturbance-free case")
    l = _direction(l)[None, :]
    view = _project(spec, _grids_for(spec, [t]), np.eye(spec.system.state_dim))
    (u0, r0), ((u, _, r),) = view.images(l)
    x0 = spec.X0.center + spec.X0.sqrt_shape() @ (u0 / r0)[0]
    profile = spec.U.center + (u / r)[0].T @ spec.U.sqrt_shape()
    return (view.center[0] + view.response(l)[0], x0,
            (np.linspace(0.0, view.times[0], profile.shape[0]), profile))


def reach_tube(spec: ReachSpec, time_grid, directions) -> ReachTube:
    """Support values over a time grid for a family of directions (possibly none).

    The grid batch is projected one time row at a time: all rows at once
    would hold every time's (D, m, N+1) factor nodes together.
    """
    times = np.atleast_1d(np.asarray(time_grid, dtype=float))
    unit = _unit_rows(directions)
    g = _grids_for(spec, times)
    if spec.V is not None:
        g.Phi  # a disturbance set's stack: built once per batch, carried by its rows
    vals = np.empty((times.shape[0], unit.shape[0]))
    for i in range(times.shape[0]):
        vals[i] = _project(spec, g.take(slice(i, i + 1)), unit).values()[0]
    return ReachTube(times, unit, vals)


def support_gradient(spec: ReachSpec, t: float, l) -> tuple[float, np.ndarray]:
    """Support value and its gradient in l (the touching point's state).

    Unlike reach_point this also covers disturbance-bearing specs: the
    gradient then includes the worst-case disturbance contribution.
    """
    l = _direction(l)
    view = _project(spec, _grids_for(spec, [t]), np.eye(spec.system.state_dim))
    point = view.center[0] + view.response(l[None, :])[0]
    return float(l @ point), point

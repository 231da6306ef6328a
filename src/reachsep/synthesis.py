"""Control-constraint synthesis keeping two reachable tubes separated.

Phase one shrinks aircraft B's control set so B's reachable set stays clear
of A's nominal point at the closest-approach time, trading retained control
authority (a log-det term weighted by the scalarization factor k) against the
achieved clearance.  Phase two then maximizes A's control set subject to A's
reachable set staying d clear of B's shrunk one along l*, B's side read as
B's kernel support value.  Both phases reduce to log-det programs over a
containment LMI plus one scalar distance inequality, built from the same
parts, an AircraftBlock and a DistanceRow, whose every term comes from the
support kernel (reachability._project).  The spectral-norm programs are
solved by the barrier method from a closed-form strictly feasible start; the
scaled phase one (the control set restricted to r times the original) is
solved in closed form.  Infeasibility of phase two sends the scalarization
loop back to phase one with a smaller k.  B's safe set, an outer ellipsoid
of its shrunk reachable set inflated by d and tight along l*, is a report
that no program reads: safe_set builds it from the loop's answer.
"""

from dataclasses import dataclass, replace

import numpy as np

from .convex import INIT_MARGIN, BarrierProblem, InfeasibleProblemError, SolveResult, solve
from .ellipsoid import Ellipsoid, minkowski_sum_external
from .reachability import (
    ReachSpec,
    _cut,
    _floor,
    _grids_for,
    _panel_sum,
    _project,
    reach_support,
)


class DegenerateGeometryError(ValueError):
    """The nominals give no encounter to resolve: closest at the first shared
    time, or with coincident centers."""


class JointInfeasibilityError(RuntimeError):
    """Scalarization loop exhausted without a jointly feasible pair."""

    def __init__(self, diagnostics):
        self.diagnostics = diagnostics
        lines = "; ".join(
            f"k={d['k']:.4g}: {d['outcome']}" for d in diagnostics) or "no iterations"
        super().__init__(f"no jointly feasible control-set pair found ({lines})")


@dataclass(frozen=True)
class EncounterGeometry:
    """Closest-approach time, avoidance direction and separation requirement."""

    tau: float
    l_star: np.ndarray  # unit, state-dimensional, supported on position coords
    d: float
    c_A_tau: np.ndarray  # aircraft A nominal state at tau

    def __post_init__(self):
        l = np.asarray(self.l_star, dtype=float)
        if abs(np.linalg.norm(l) - 1.0) > 1e-9:
            raise ValueError("l_star must be a unit vector")
        if self.tau <= 0.0 or self.d < 0.0:
            raise ValueError("need tau > 0 and d >= 0")
        object.__setattr__(self, "l_star", l)
        object.__setattr__(self, "c_A_tau", np.asarray(self.c_A_tau, dtype=float))


@dataclass(frozen=True)
class PartIConstants:
    """Direction-resolved constants of the phase-one support expression."""

    a0: float  # <l, Phi c_X0>
    b: np.ndarray  # control-center sensitivity: <l, int Phi B ds q> = <b, q>
    x0_term: float  # <l, Phi M_X0 Phi' l>^(1/2)
    gamma_U: float  # int <l, Phi B M_U B' Phi' l>^(1/2) ds
    gamma_I: float  # int <l, Phi B B' Phi' l>^(1/2) ds
    offset: float  # nominal-trajectory contribution along l


@dataclass(frozen=True)
class DistanceRow:
    """const - sum of (<b, q - c_U> + gamma_I s) over terms >= bound, with one
    (block, b, gamma_I) term per aircraft; block names the aircraft whose
    center q, control-set center c_U and epigraph s >= ||Q||_2 it reads."""

    name: str
    const: float
    bound: float
    terms: tuple


def distance_row(consts: PartIConstants, target: float, U: Ellipsoid, bound: float,
                 block: str) -> DistanceRow:
    """The row target - (support bound at (tau, l)) >= bound, as data."""
    const = target - consts.a0 - consts.offset - consts.x0_term - float(consts.b @ U.center)
    return DistanceRow("distance", const, bound, ((block, consts.b, consts.gamma_I),))


@dataclass(frozen=True)
class SynthesisSolution:
    """One aircraft's shrunk control set and the solve that produced it."""

    aircraft: str
    q: np.ndarray
    Q: np.ndarray  # symmetric PSD shape factor; control set is E(q, Q @ Q)
    lam: float
    k: float
    distance: float  # the objective's distance term at the solution
    solve: SolveResult  # the barrier solve's record, or the closed form's
    r: float | None = None  # scaled method only

    @property
    def status(self) -> str:
        return self.solve.status

    def control_set(self) -> Ellipsoid:
        return Ellipsoid(self.q, self.Q @ self.Q)


def estimate_encounter(nomA, nomB, P, d: float) -> EncounterGeometry:
    """Closest approach of the two nominal center trajectories.

    tau minimizes the projected center distance over the shared time domain
    (ties resolved to the earliest time); l* points from B's center toward
    A's, embedded into state space through P'.  Raises
    DegenerateGeometryError when the centers coincide there, or when tau is
    the first shared time: aircraft that only fly apart have no encounter.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    t_lo = max(nomA.t0, nomB.t0)
    t_hi = min(nomA.t1, nomB.t1)
    if t_hi <= t_lo:
        raise ValueError("nominal trajectories do not overlap in time")
    times = nomA.times[(nomA.times >= t_lo - 1e-12) & (nomA.times <= t_hi + 1e-12)]
    XA = nomA.states_at(times)
    rels = XA @ P.T - nomB.states_at(times) @ P.T
    i = int(np.argmin(np.linalg.norm(rels, axis=1)))
    tau, rel = float(times[i]), rels[i]
    norm = np.linalg.norm(rel)
    if norm < 1e-9:
        raise DegenerateGeometryError(
            f"nominal centers coincide at closest approach (t = {tau:.6g} s), "
            "so no avoidance direction is defined")
    if i == 0:
        raise DegenerateGeometryError(
            f"the aircraft are closest at the first shared time (t = {tau:.6g} s, "
            f"center gap {norm:.6g} m): their nominals do not approach each other")
    return EncounterGeometry(tau, P.T @ (rel / norm), d, XA[i])


def part1_constants(spec: ReachSpec, geom: EncounterGeometry, l=None) -> PartIConstants:
    """Support-expression constants at (tau, l); defaults to l = l*.

    The root terms are the support kernel's: x0_term and gamma_U are the
    roots of the spec's projected view with P = l, and gamma_I the control
    root of the unit ball, whose factor nodes are the control nodes
    u_i = B' Phi_i' l themselves, under the kernel's panel rule.
    All are read on the reach-support quadrature grid, so assembling the
    phase-one support value reproduces reach_support for any fixed control
    set.
    """
    if spec.horizon < geom.tau - 1e-12:
        raise ValueError("spec horizon is shorter than the encounter time")
    l = geom.l_star if l is None else np.asarray(l, dtype=float)
    g = _grids_for(spec, [geom.tau])
    x0_term, gamma_U = (float(r[0, 0]) for r in _project(spec, g, l[None, :]).roots()[:2])
    u = l @ g.PhiB[0]  # (N+1, m)
    # nodes last, as in the view's factor node stacks, so that q sums the
    # controls in the kernel's order and gamma_I is its root to the bit
    uT = np.ascontiguousarray(u.T)
    q, alive = _cut((uT * uT).sum(axis=0), _floor(g.PhiB, np.eye(uT.shape[0]), l[None, :])[0, 0])
    return PartIConstants(
        a0=float(l @ g.Phi0[0] @ spec.X0.center),
        b=g.simpson_w[0] @ u,
        x0_term=x0_term,
        gamma_U=gamma_U,
        gamma_I=float(_panel_sum(g.h[0], alive, np.sqrt(q))),
        offset=float(l @ spec.offset_at(geom.tau)),
    )


def _control_whitening(U: Ellipsoid):
    """(W, wmin, wmax) for the control set, W the root U caches; synthesis
    needs U nondegenerate."""
    W = U.sqrt_shape()
    w = np.linalg.eigvalsh(W)
    wmin = float(w.min())
    if wmin <= 0.0:
        raise ValueError("control-set shape must be positive definite for synthesis")
    return W, wmin, float(w.max())


class AircraftBlock:
    """One aircraft's variables in a spectral-norm program, whitened by the
    root W of its control set U: center q = c_U + W qt, shape factor
    Q = wmin Qb, S-lemma multiplier lam and epigraph s = wmin sb.  Built in
    two steps, since a BarrierProblem takes no variable after its first
    constraint: the constructor declares, constrain() adds the blocks."""

    def __init__(self, prob: BarrierProblem, U: Ellipsoid):
        m = U.dim
        self.W, self.wmin, self.wmax = _control_whitening(U)
        self.qt, self.Qb = prob.add_vector_var("q", m), prob.add_symmetric_var("Q", m)
        self.lam, self.sb = prob.add_scalar_var("lam"), prob.add_scalar_var("s")

    def constrain(self, prob: BarrierProblem) -> None:
        """Adds the containment LMI, scaled by diag(1, I, W^-1) so that U is the
        unit ball and every block order one ([[1 - lam, 0, qt'],
        [0, lam I, wmin Qb W^-1], [qt, ., I]]), s I - Q PSD and s_cap.  Q is
        kept positive definite by the program's log-det block, which the
        barrier's domain includes."""
        m = self.qt.size
        lmi = prob.new_psd_constraint(1 + 2 * m, "containment")
        lmi.F0[0, 0] = 1.0
        lmi.F0[1 + m:, 1 + m:] = np.eye(m)
        lmi.add_scalar(self.lam, np.diag([-1.0] + [1.0] * m + [0.0] * m))
        lmi.add_vector(self.qt, 0, 1 + m)
        lmi.add_symmetric_rmul(self.Qb, 1, 1 + m, np.linalg.inv(self.W), coeff=self.wmin)
        epi = prob.new_psd_constraint(m, "spectral_epigraph")
        epi.add_scalar(self.sb, np.eye(m))
        epi.add_symmetric(self.Qb, 0, 0, coeff=-1.0)
        # containment caps ||Q|| at wmax, so this never binds; it bounds the
        # domain when gamma_I = 0 leaves s otherwise free
        prob.add_scalar_constraint("s_cap", {self.sb: [-1.0]}, 2.0 * self.wmax / self.wmin)
        # the feasible set the caps imply: |qt|^2 <= 1 - lam, lam in [0, 1],
        # ||Qb||_2 <= cap (so its m(m+1)/2 upper-triangle entries have norm at
        # most ||Qb||_F <= sqrt(m) cap) and s in [0, 2 cap], cap = wmax / wmin
        prob.radius = float(np.sqrt(2.0 + (m + 4) * (self.wmax / self.wmin)**2))


def solve_scaled(consts: PartIConstants, geom: EncounterGeometry, U_B: Ellipsoid,
                 k: float, margin: float = 0.0) -> SynthesisSolution:
    """Phase one with the control set restricted to r * (original), r in [0, 1].

    Solved in closed form.  With q = c_U + W qt and b~ = W b, the control set
    is E(q, (r W)^2) and containment in U reads ||qt|| + r <= 1; lam = r is an
    exact S-lemma witness for it.  For a fixed r the best center is
    qt = -(1 - r) b~ / ||b~||, which leaves
    const + ||b~|| - r (||b~|| + gamma_U) + k m log r, concave in r, with
    the distance term >= margin exactly when r <= r_max.  So
    r* = min(1, r_max, k m / (||b~|| + gamma_U)); k = 0 gives r* = 0.
    """
    if k < 0.0:
        raise ValueError("scalarization factor must be nonnegative")
    m = U_B.dim
    W = _control_whitening(U_B)[0]
    bW = W @ consts.b
    row = distance_row(consts, float(geom.l_star @ geom.c_A_tau), U_B, margin, "B")
    beta = float(np.linalg.norm(bW))
    slack = row.const - row.bound + beta  # distance slack at r = 0
    if slack <= 0.0:
        raise InfeasibleProblemError("distance", f"best slack {slack:.3e}")
    slope = beta + consts.gamma_U
    r = min(1.0, slack / slope, k * m / slope) if slope > 0.0 else float(k > 0.0)
    qt = -(1.0 - r) / beta * bW if beta > 0.0 else np.zeros(m)
    distance = row.const - float(bW @ qt) - r * consts.gamma_U
    objective = distance + (k * m * np.log(r) if k > 0.0 else 0.0)
    return SynthesisSolution("B", U_B.center + W @ qt, r * W, r, k, distance,
                             SolveResult({"q": qt, "r": r}, objective, objective, 0.0, 0.0, None,
                                         "optimal"), r=r)


def feasibility_restore(bW: np.ndarray, g: float, slack0: float) -> dict:
    """Strictly feasible start of the spectral-norm program, in closed form.

    In an AircraftBlock's whitened variables, named q, Q, lam, s, with the
    distance row slack0 - <bW, q> - g s >= 0.  Starts at q = 0, Q = eps I,
    lam = 1/2, s = 2 eps with eps = 1e-3.  When the distance row's slack
    there is below INIT_MARGIN (convex.solve's start check takes equality),
    the center slides to q = -theta bW / ||bW|| with lam = (1 - theta^2) / 2,
    theta the midpoint of the interval on which the distance row and the
    containment LMI both hold (lam >= eps + eps^2 keeps the LMI PSD for any
    theta <= 1); eps shrinks so that the eps terms take at most half of the
    slack.  Raises InfeasibleProblemError("distance") when no admissible
    center has a positive distance slack.
    """
    m = len(bW)
    beta = float(np.linalg.norm(bW))
    sup = slack0 + beta  # the distance slack at the unit ball's edge as eps -> 0
    if sup <= 0.0:
        raise InfeasibleProblemError("distance", f"supremum slack {sup:.3e}")
    eps, theta = 1e-3, 0.0
    if slack0 - 2.0 * eps * g < INIT_MARGIN < sup:
        eps = min(eps, (sup - INIT_MARGIN) / (4.0 * (g + beta)))
        lo = (INIT_MARGIN + 2.0 * eps * g - slack0) / beta if beta > 0.0 else -np.inf
        theta = max(0.5 * (lo + np.sqrt(1.0 - 2.0 * eps * (1.0 + eps))), 0.0)
    qt = -theta / beta * bW if beta > 0.0 else np.zeros(m)
    return {"q": qt, "Q": eps * np.eye(m), "lam": 0.5 * (1.0 - theta**2), "s": 2.0 * eps}


def _norm_program(row: DistanceRow, U: Ellipsoid, k: float, w_dist: float) -> SynthesisSolution:
    """The spectral-norm program of both phases: one aircraft block, one row.

    Maximizes w_dist * (the row's distance term) + k log det Q over
    sub-ellipsoids E(q, Q^2) of U subject to the row; ||Q||_2 enters by the
    epigraph s, so the program is affine in (q, Q, lam, s).  Phase one uses
    w_dist = 1, phase two w_dist = 0, k = 1.  Raises ValueError for k <= 0:
    the log-det block is what keeps Q positive definite.
    """
    if not k > 0.0:
        raise ValueError("the log det weight k must be positive")
    (aircraft, b, gamma_I), = row.terms
    prob = BarrierProblem()
    blk = AircraftBlock(prob, U)
    m, wmin, bW = U.dim, blk.wmin, blk.W @ b
    prob.add_constant_objective(w_dist * row.const + k * m * np.log(wmin))
    prob.add_linear_objective(blk.qt, -w_dist * bW)
    prob.add_linear_objective(blk.sb, -w_dist * gamma_I * wmin)
    prob.add_logdet_objective(blk.Qb, k)
    prob.add_scalar_constraint(row.name, {blk.qt: -bW, blk.sb: -gamma_I * wmin},
                               row.const - row.bound)
    blk.constrain(prob)
    res = solve(prob, feasibility_restore(bW, gamma_I * wmin, row.const - row.bound))
    qt, Qb, s_val = res.values["q"], res.values["Q"], float(res.values["s"])
    return SynthesisSolution(
        aircraft, U.center + blk.W @ qt, wmin * 0.5 * (Qb + Qb.T), float(res.values["lam"]),
        k, row.const - float(bW @ qt) - s_val * wmin * gamma_I, res)


def solve_matrix_norm(consts: PartIConstants, geom: EncounterGeometry, U_B: Ellipsoid,
                      k: float, margin: float = 0.0) -> SynthesisSolution:
    """Phase one with the control-authority term bounded through ||Q||_2."""
    row = distance_row(consts, float(geom.l_star @ geom.c_A_tau), U_B, margin, "B")
    return _norm_program(row, U_B, k, 1.0)


def safe_set(spec_shrunk: ReachSpec, t: float, d: float, l_star, P) -> Ellipsoid:
    """Position-space outer ellipsoid of the reach set inflated by d, tight
    along l*: the safe set the answer reports, which no program reads.

    The initial-set image E(center, F0 F0') and the control integral, read
    from the kernel's projected view at t, are each covered tightly along
    l*, summed tightly and added to a radius-d ball.  The control integral
    sums the node shapes F F' by the kernel's panel rule with
    weights |F' l*| from the view's factor images (Kurzhanski & Valyi 1997);
    a node with F' l* = 0 has an infinite root and drops out, and when no
    node moves the set along l* the weights are |F|_F.  So the support
    along P l* is reach_support + d to rounding.
    """
    if d < 0.0:
        raise ValueError("separation radius must be nonnegative")
    P = np.atleast_2d(np.asarray(P, dtype=float))
    l_pos = P @ np.asarray(l_star, dtype=float)
    g = _grids_for(spec_shrunk, [t])
    view = _project(spec_shrunk, g, P)
    F0, F = view.F0[0], view.inputs[0][0]  # F: (k, m, N+1)
    M_s = np.einsum("amj,bmj->abj", F, F)
    _, ((_, q, _, alive), *_) = view.images(l_pos[None, :])  # q = |F' l*|^2: (1, 1, N+1)
    q, alive = (q[0, 0], alive[0, 0]) if q.any() else (np.trace(M_s), np.trace(M_s) > 0.0)
    r = np.sqrt(np.where(q > 0.0, q, np.inf))
    M_ctrl = _panel_sum(g.h[0], alive, np.sqrt(q)) * _panel_sum(g.h[0], alive, M_s / r)
    reach_ell = minkowski_sum_external(Ellipsoid(view.center[0], F0 @ F0.T),
                                       Ellipsoid(np.zeros_like(l_pos), M_ctrl), l_pos)
    return minkowski_sum_external(reach_ell, Ellipsoid.ball(np.zeros_like(l_pos), d), l_pos)


def solve_part2(specA: ReachSpec, shrunkB: ReachSpec, geom: EncounterGeometry,
                margin: float = 0.0) -> SynthesisSolution:
    """Phase two: the largest control set for A whose reachable set stays d
    clear of B's shrunk one along l* at tau.

    Maximizes log det Q subject to the containment LMI in A's original
    control set and the avoidance row along -l*, in the spectral-norm form,
    with target -(reach_support(shrunkB, tau, l*) + d): B's kernel support,
    which the reported safe set's support along l* equals to rounding.
    """
    consts = part1_constants(specA, geom, l=-geom.l_star)
    target = -(reach_support(shrunkB, geom.tau, geom.l_star) + geom.d)
    return _norm_program(distance_row(consts, target, specA.U, margin, "A"), specA.U, 1.0, 0.0)


def part1_margin(geom: EncounterGeometry, margin1: float | None) -> float:
    """Phase one's distance margin: margin1, or half of d when it is None."""
    return 0.5 * geom.d if margin1 is None else margin1


def scalarization_loop(specA: ReachSpec, specB: ReachSpec, geom: EncounterGeometry,
                       P, method: str = "norm", k0: float = 1.0, shrink: float = 0.8,
                       margin1: float | None = None, margin2: float = 0.0,
                       max_iters: int = 20):
    """B-then-A synthesis, retrying with smaller k until phase two is feasible.

    Returns (solB, solA, k_used, diagnostics).  Phase-one infeasibility does
    not depend on k and aborts immediately; phase-two infeasibility shrinks
    k.  P is not read: the loop builds no safe set (pipeline.run reports
    B's), and the parameter stays for callers that pass it positionally.
    """
    if k0 <= 0.0 or not 0.0 < shrink < 1.0:
        raise ValueError("need k0 > 0 and shrink in (0, 1)")
    if method not in ("norm", "scaled"):
        raise ValueError(f"unknown phase-one method {method!r}")
    margin1 = part1_margin(geom, margin1)
    consts_B = part1_constants(specB, geom)
    part1 = solve_matrix_norm if method == "norm" else solve_scaled
    diagnostics = []
    k = float(k0)
    for _ in range(max_iters):
        try:
            solB = part1(consts_B, geom, specB.U, k, margin=margin1)
        except InfeasibleProblemError as exc:
            diagnostics.append({"k": k, "outcome": f"phase one infeasible: {exc.constraint}"})
            raise JointInfeasibilityError(diagnostics) from exc
        shrunkB = replace(specB, U=solB.control_set())
        try:
            solA = solve_part2(specA, shrunkB, geom, margin=margin2)
        except InfeasibleProblemError as exc:
            diagnostics.append({
                "k": k, "outcome": f"phase two infeasible: {exc.constraint}",
                "part1_distance": solB.distance, "part1_objective": solB.solve.objective})
            k *= shrink
            continue
        diagnostics.append({
            "k": k, "outcome": "feasible",
            "part1_distance": solB.distance, "part2_distance": solA.distance})
        return solB, solA, k, diagnostics
    raise JointInfeasibilityError(diagnostics)

"""Control-constraint synthesis keeping two reachable tubes separated.

Phase one shrinks aircraft B's control set so B's reachable set stays clear
of A's nominal point at the closest-approach time, trading retained control
authority (a log-det term weighted by the scalarization factor k) against the
achieved clearance.  Phase two then maximizes A's control set subject to A's
reachable set avoiding B's separation-inflated safe set.  Both phases reduce
to log-det barrier problems over a containment LMI plus one scalar distance
inequality; infeasibility of phase two sends the scalarization loop back to
phase one with a smaller k.
"""

from dataclasses import dataclass

import numpy as np

from .convex import (
    BarrierProblem,
    InfeasibleProblemError,
    feasibility_restore,
    solve,
)
from .ellipsoid import Ellipsoid, minkowski_sum_external, psd_sqrt
from .reachability import ReachSpec, _grid_for, _initial_term, _input_terms

PI_FLOOR_REL = 1e-12


class DegenerateGeometryError(ValueError):
    """Center trajectories coincide at closest approach; supply l* manually."""


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

    def support_scaled(self, q, r: float) -> float:
        return self.a0 + self.offset + float(self.b @ q) + self.x0_term + r * self.gamma_U

    def support_norm_bound(self, q, s: float) -> float:
        return self.a0 + self.offset + float(self.b @ q) + self.x0_term + s * self.gamma_I


@dataclass(frozen=True)
class SynthesisSolution:
    """One aircraft's shrunk control set and the optimizer's certificates."""

    aircraft: str
    q: np.ndarray
    Q: np.ndarray  # symmetric PSD shape factor; control set is E(q, Q @ Q)
    lam: float
    k: float
    objective: float
    distance: float  # the objective's distance term at the solution
    kkt_residual: float
    status: str
    newton_steps: int
    barrier_mu_final: float
    stage_objectives: tuple  # F's objective after each barrier stage
    r: float | None = None  # scaled method only

    def control_set(self) -> Ellipsoid:
        return Ellipsoid(self.q, self.Q @ self.Q)


def estimate_encounter(nomA, nomB, P, d: float) -> EncounterGeometry:
    """Closest approach of the two nominal center trajectories.

    tau minimizes the projected center distance over the shared time domain
    (ties resolved to the earliest time); l* points from B's center toward
    A's, embedded into state space through P'.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    t_lo = max(nomA.t0, nomB.t0)
    t_hi = min(nomA.t1, nomB.t1)
    if t_hi <= t_lo:
        raise ValueError("nominal trajectories do not overlap in time")
    times = nomA.times[(nomA.times >= t_lo - 1e-12) & (nomA.times <= t_hi + 1e-12)]
    gaps = np.array([
        np.linalg.norm(P @ nomA.state_at(t) - P @ nomB.state_at(t)) for t in times])
    tau = float(times[int(np.argmin(gaps))])
    rel = P @ nomA.state_at(tau) - P @ nomB.state_at(tau)
    norm = np.linalg.norm(rel)
    if norm < 1e-9:
        raise DegenerateGeometryError(
            f"nominal centers coincide at closest approach (t = {tau:.6g} s); "
            "provide the avoidance direction explicitly")
    return EncounterGeometry(tau, P.T @ (rel / norm), d, nomA.state_at(tau))


def part1_constants(spec: ReachSpec, geom: EncounterGeometry, l=None) -> PartIConstants:
    """Support-expression constants at (tau, l); defaults to l = l*.

    Shares the reach-support quadrature grid, so assembling the phase-one
    support value reproduces reach_support exactly for any fixed control set.
    """
    if spec.horizon < geom.tau - 1e-12:
        raise ValueError("spec horizon is shorter than the encounter time")
    l = geom.l_star if l is None else np.asarray(l, dtype=float)
    g = _grid_for(spec, geom.tau)
    a0, x0_term, _ = _initial_term(g, spec.X0, l)
    W, qU = _input_terms(g.PhiB, spec.U, l)
    return PartIConstants(
        a0=a0,
        b=g.simpson_w @ W,
        x0_term=x0_term,
        gamma_U=float(g.integrate_sqrt(qU)),
        gamma_I=float(g.integrate_sqrt(np.einsum("ij,ij->i", W, W))),
        offset=float(l @ spec.offset_at(geom.tau)),
    )


def _control_whitening(U: Ellipsoid):
    """(W, Winv, wmin) for the control set; synthesis needs U nondegenerate."""
    W = psd_sqrt(U.shape)
    wmin = float(np.linalg.eigvalsh(W).min())
    if wmin <= 0.0:
        raise ValueError("control-set shape must be positive definite for synthesis")
    return W, np.linalg.inv(W), wmin


def _whitened_lmi(prob: BarrierProblem, qt_blk, lam_blk, shape_blk,
                  Winv=None, wmin: float = 1.0):
    """Containment LMI in whitened control coordinates.

    With q = c_U + W qt and the congruence scaling diag(1, I, W^-1), the
    outer set becomes the unit ball and every block is order one:
    [[1 - lam, 0, qt'], [0, lam I, B], [qt, B', I]] with B = r I for the
    scaled method and B = wmin * Qb W^-1 for the norm method.
    """
    m = qt_blk.size
    lmi = prob.new_psd_constraint(1 + 2 * m, "containment")
    lmi.F0[0, 0] = 1.0
    lmi.F0[1 + m:, 1 + m:] = np.eye(m)
    lmi.F[lam_blk.offset, 0, 0] = -1.0
    lmi.F[lam_blk.offset, 1:1 + m, 1:1 + m] = np.eye(m)
    lmi.add_vector(qt_blk, 0, 1 + m)
    if shape_blk.kind == "symmetric":
        lmi.add_symmetric_rmul(shape_blk, 1, 1 + m, Winv, coeff=wmin)
    else:
        C = np.zeros((1 + 2 * m, 1 + 2 * m))
        C[1:1 + m, 1 + m:] = np.eye(m)
        C[1 + m:, 1:1 + m] = np.eye(m)
        lmi.add_scalar(shape_blk, C)
    return lmi


def solve_scaled(consts: PartIConstants, geom: EncounterGeometry, U_B: Ellipsoid,
                 k: float, margin: float = 0.0, aircraft: str = "B") -> SynthesisSolution:
    """Phase one with the control set restricted to r * (original), r in (0, 1]."""
    if k < 0.0:
        raise ValueError("scalarization factor must be nonnegative")
    m = U_B.dim
    W, Winv, wmin = _control_whitening(U_B)
    bW = W @ consts.b
    const_term = (float(geom.l_star @ geom.c_A_tau) - consts.a0 - consts.offset
                  - consts.x0_term - float(consts.b @ U_B.center))
    prob = BarrierProblem()
    qt = prob.add_vector_var("q", m)
    r = prob.add_scalar_var("r")
    lam = prob.add_scalar_var("lam")
    prob.add_constant_objective(const_term)
    prob.add_linear_objective(qt, -bW)
    prob.add_linear_objective(r, -consts.gamma_U)
    prob.add_logdet_objective(r, k * m)
    _whitened_lmi(prob, qt, lam, shape_blk=r)
    prob.add_scalar_constraint("distance", {qt: -bW, r: -consts.gamma_U},
                               const_term - margin)
    prob.add_scalar_constraint("r_floor", {r: [1.0]}, 0.0)
    prob.restore_hint = {"q": qt, "shape": r, "lam": lam}
    init = feasibility_restore(prob)
    res = solve(prob, init)
    r_val = float(res.values["r"])
    q_val = U_B.center + W @ res.values["q"]
    return SynthesisSolution(
        aircraft, q_val, r_val * W, float(res.values["lam"]), k, res.objective,
        const_term - float(bW @ res.values["q"]) - r_val * consts.gamma_U,
        res.kkt_residual, res.status, res.newton_steps, res.barrier_mu_final,
        tuple(res.stage_objectives), r=r_val)


def _norm_program(consts: PartIConstants, const_term: float, U: Ellipsoid, k: float,
                  w_dist: float, margin: float, aircraft: str) -> SynthesisSolution:
    """The spectral-norm program shared by both phases.

    Maximizes w_dist * (distance term) + k log det Q over centers q and shape
    factors Q of sub-ellipsoids of U, subject to the distance inequality
    (distance term >= margin).  The distance term is const_term - <b, q - c_U>
    - ||Q||_2 gamma_I; the spectral norm enters by the epigraph pair
    {s I - Q PSD, s in the distance term}, so the problem is affine in
    (q, Q, s, lam).  Phase one uses w_dist = 1, phase two w_dist = 0, k = 1.
    """
    m = U.dim
    W, Winv, wmin = _control_whitening(U)
    wmax = float(np.linalg.eigvalsh(W).max())
    bW = W @ consts.b
    prob = BarrierProblem()
    qt = prob.add_vector_var("q", m)
    Qb = prob.add_symmetric_var("Q", m)  # Q = wmin * Qb
    lam = prob.add_scalar_var("lam")
    sb = prob.add_scalar_var("s")  # s = wmin * sb
    prob.add_constant_objective(w_dist * const_term + k * m * np.log(wmin))
    prob.add_linear_objective(qt, -w_dist * bW)
    prob.add_linear_objective(sb, -w_dist * consts.gamma_I * wmin)
    prob.add_logdet_objective(Qb, k)
    _whitened_lmi(prob, qt, lam, shape_blk=Qb, Winv=Winv, wmin=wmin)
    epi = prob.new_psd_constraint(m, "spectral_epigraph")
    epi.add_scalar(sb, np.eye(m))
    epi.add_symmetric(Qb, 0, 0, coeff=-1.0)
    qpsd = prob.new_psd_constraint(m, "Q_psd")
    qpsd.add_symmetric(Qb, 0, 0)
    prob.add_scalar_constraint("distance", {qt: -bW, sb: -consts.gamma_I * wmin},
                               const_term - margin)
    # containment caps ||Q|| at wmax, so this never binds; it bounds the
    # domain when gamma_I = 0 leaves s otherwise free
    prob.add_scalar_constraint("s_cap", {sb: [-1.0]}, 2.0 * wmax / wmin)
    prob.restore_hint = {"q": qt, "shape": Qb, "lam": lam, "s": sb}
    init = feasibility_restore(prob)
    res = solve(prob, init)
    q_val = U.center + W @ res.values["q"]
    s_val = float(res.values["s"])
    Q_val = wmin * 0.5 * (res.values["Q"] + res.values["Q"].T)
    return SynthesisSolution(
        aircraft, q_val, Q_val, float(res.values["lam"]), k, res.objective,
        const_term - float(bW @ res.values["q"]) - s_val * wmin * consts.gamma_I,
        res.kkt_residual, res.status, res.newton_steps, res.barrier_mu_final,
        tuple(res.stage_objectives))


def solve_matrix_norm(consts: PartIConstants, geom: EncounterGeometry, U_B: Ellipsoid,
                      k: float, margin: float = 0.0, aircraft: str = "B") -> SynthesisSolution:
    """Phase one with the control-authority term bounded through ||Q||_2."""
    if k < 0.0:
        raise ValueError("scalarization factor must be nonnegative")
    const_term = (float(geom.l_star @ geom.c_A_tau) - consts.a0 - consts.offset
                  - consts.x0_term - float(consts.b @ U_B.center))
    return _norm_program(consts, const_term, U_B, k, 1.0, margin, aircraft)


def safe_set(spec_shrunk: ReachSpec, t: float, d: float, l_star, P) -> Ellipsoid:
    """Position-space external ellipsoid of the reach set, inflated by d.

    The reach set's initial-set image and control-integral parts are each
    covered by an ellipsoid tight along l*, summed tightly, and finally
    Minkowski-added to a radius-d ball.  Support along l* reproduces
    reach_support + d up to quadrature tolerance.
    """
    if d < 0.0:
        raise ValueError("separation radius must be nonnegative")
    P = np.atleast_2d(np.asarray(P, dtype=float))
    l_star = np.asarray(l_star, dtype=float)
    l_pos = P @ l_star
    g = _grid_for(spec_shrunk, t)
    Phi0 = g.Phi[0]
    center = P @ (Phi0 @ spec_shrunk.X0.center
                  + g.simpson_w @ (g.PhiB @ spec_shrunk.U.center)
                  + spec_shrunk.offset_at(t))
    PPhi0 = P @ Phi0
    M_x0 = PPhi0 @ spec_shrunk.X0.shape @ PPhi0.T
    # control integral: weights pi proportional to the integrand along l*
    PB = np.einsum("kn,inm->ikm", P, g.PhiB)  # (N+1, pos, m)
    M_s = np.einsum("ikm,ml,ijl->ikj", PB, spec_shrunk.U.shape, PB)  # (N+1, k, k)
    pi = np.sqrt(np.clip(np.einsum("k,ikj,j->i", l_pos, M_s, l_pos), 0.0, None))
    if pi.max() <= 0.0:
        traces = np.sqrt(np.clip(np.einsum("ikk->i", M_s), 0.0, None))
        pi = traces
    if pi.max() > 0.0:
        pi = np.maximum(pi, PI_FLOOR_REL * pi.max())
        total_pi = float(g.simpson_w @ pi)
        M_ctrl = total_pi * np.einsum("i,ikj->kj", g.simpson_w / pi, M_s)
        M_ctrl = 0.5 * (M_ctrl + M_ctrl.T)
    else:
        M_ctrl = np.zeros((P.shape[0], P.shape[0]))
    reach_ell = minkowski_sum_external(Ellipsoid(center, M_x0),
                                       Ellipsoid(np.zeros(P.shape[0]), M_ctrl), l_pos)
    if d == 0.0:
        return reach_ell
    return minkowski_sum_external(reach_ell, Ellipsoid.ball(np.zeros(P.shape[0]), d), l_pos)


def solve_part2(specA: ReachSpec, safeB: Ellipsoid, geom: EncounterGeometry,
                U_A: Ellipsoid, P, margin: float = 0.0) -> SynthesisSolution:
    """Phase two: the largest control set for A that avoids B's safe set.

    Maximizes log det Q subject to the containment LMI in A's original
    control set and the expanded avoidance inequality along -l*, in the
    spectral-norm form.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    consts = part1_constants(specA, geom, l=-geom.l_star)
    l_pos = P @ geom.l_star
    rho_safe = float(l_pos @ safeB.center) + float(
        np.sqrt(max(l_pos @ safeB.shape @ l_pos, 0.0)))
    const_term = (-consts.a0 - consts.offset - consts.x0_term - rho_safe
                  - float(consts.b @ U_A.center))
    return _norm_program(consts, const_term, U_A, 1.0, 0.0, margin, "A")


def scalarization_loop(specA: ReachSpec, specB: ReachSpec, geom: EncounterGeometry,
                       P, method: str = "norm", k0: float = 1.0, shrink: float = 0.8,
                       margin1: float | None = None, margin2: float = 0.0,
                       max_iters: int = 20):
    """B-then-A synthesis, retrying with smaller k until phase two is feasible.

    Returns (solB, solA, k_used, diagnostics).  Phase-one infeasibility does
    not depend on k and aborts immediately; phase-two infeasibility shrinks k.
    """
    if k0 <= 0.0 or not 0.0 < shrink < 1.0:
        raise ValueError("need k0 > 0 and shrink in (0, 1)")
    if method not in ("norm", "scaled"):
        raise ValueError(f"unknown phase-one method {method!r}")
    margin1 = 0.5 * geom.d if margin1 is None else margin1
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
        safeB = safe_set(specB.with_control(solB.control_set()), geom.tau, geom.d,
                         geom.l_star, P)
        try:
            solA = solve_part2(specA, safeB, geom, specA.U, P, margin=margin2)
        except InfeasibleProblemError as exc:
            diagnostics.append({
                "k": k, "outcome": f"phase two infeasible: {exc.constraint}",
                "part1_distance": solB.distance, "part1_objective": solB.objective})
            k *= shrink
            continue
        diagnostics.append({
            "k": k, "outcome": "feasible",
            "part1_distance": solB.distance, "part2_distance": solA.distance})
        return solB, solA, k, diagnostics
    raise JointInfeasibilityError(diagnostics)

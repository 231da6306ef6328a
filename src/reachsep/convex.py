"""A small path-following barrier maximizer for log-det / LMI problems.

Handles exactly the problem class the control-set synthesis needs: maximize a
concave objective (linear terms plus coefficient * log det of a variable
block) subject to affine symmetric-matrix expressions required PSD and affine
scalar inequalities.  Decision variables are named blocks: vectors, symmetric
matrices (parameterized by their upper triangle) and scalars.

The solver follows the central path of

    F_mu(x) = f(x) + (1/mu) * [sum log det G_c(x) + sum log s_c(x)]

by damped Newton steps with a backtracking line search that preserves strict
feasibility, multiplying mu by 10 per stage until the barrier duality-gap
estimate (total barrier dimension / mu) drops below 1e-7.  Problem sizes here
are tiny (around fifteen scalars), so all Hessians are dense.
"""

from dataclasses import dataclass, field

import numpy as np

GAP_TOL = 1e-7
KKT_TOL = 1e-6
INIT_MARGIN = 1e-8
MAX_NEWTON = 200
ARMIJO = 1e-4
BACKTRACK = 0.5


class InfeasibleStartError(ValueError):
    """The supplied initial point is not strictly feasible."""


class InfeasibleProblemError(RuntimeError):
    """No strictly feasible point exists; names the violated constraint."""

    def __init__(self, constraint: str, detail: str = ""):
        self.constraint = constraint
        super().__init__(f"infeasible: constraint '{constraint}' cannot be satisfied"
                         + (f" ({detail})" if detail else ""))


@dataclass(frozen=True)
class VarBlock:
    name: str
    kind: str  # scalar | vector | symmetric
    size: int
    offset: int

    @property
    def dim(self) -> int:
        if self.kind == "symmetric":
            return self.size * (self.size + 1) // 2
        return self.size if self.kind == "vector" else 1

    def coords(self):
        return range(self.offset, self.offset + self.dim)


def _sym_pairs(n: int):
    return [(a, b) for a in range(n) for b in range(a, n)]


def sym_to_vec(M: np.ndarray) -> np.ndarray:
    n = M.shape[0]
    return np.array([M[a, b] for a, b in _sym_pairs(n)])


def vec_to_sym(v: np.ndarray, n: int) -> np.ndarray:
    M = np.zeros((n, n))
    for k, (a, b) in enumerate(_sym_pairs(n)):
        M[a, b] = M[b, a] = v[k]
    return M


class AffineMatrixExpr:
    """G(x) = F0 + sum_i x_i F_i over a problem's flattened variables."""

    def __init__(self, problem: "BarrierProblem", dim: int, name: str):
        self.name = name
        self.dim = dim
        self.F0 = np.zeros((dim, dim))
        self.F = np.zeros((problem.total_dim, dim, dim))

    def set_const(self, rows: int, cols: int, mat) -> "AffineMatrixExpr":
        mat = np.atleast_2d(np.asarray(mat, dtype=float))
        self.F0[rows:rows + mat.shape[0], cols:cols + mat.shape[1]] += mat
        if rows != cols:
            self.F0[cols:cols + mat.shape[1], rows:rows + mat.shape[0]] += mat.T
        return self

    def add_scalar(self, block: VarBlock, mat) -> "AffineMatrixExpr":
        """G += x_scalar * mat (mat must be symmetric)."""
        self.F[block.offset] += np.asarray(mat, dtype=float)
        return self

    def add_vector(self, block: VarBlock, row: int, col0: int, coeff: float = 1.0) -> "AffineMatrixExpr":
        """Places the vector variable at G[row, col0:] and its mirror."""
        for k in range(block.size):
            i = block.offset + k
            self.F[i, row, col0 + k] += coeff
            self.F[i, col0 + k, row] += coeff
        return self

    def add_symmetric(self, block: VarBlock, row0: int, col0: int, coeff: float = 1.0) -> "AffineMatrixExpr":
        """Places the matrix variable at G[row0:, col0:] plus its mirror block."""
        for k, (a, b) in enumerate(_sym_pairs(block.size)):
            i = block.offset + k
            self.F[i, row0 + a, col0 + b] += coeff
            if a != b:
                self.F[i, row0 + b, col0 + a] += coeff
            if row0 != col0:
                self.F[i, col0 + b, row0 + a] += coeff
                if a != b:
                    self.F[i, col0 + a, row0 + b] += coeff
        return self

    def add_symmetric_rmul(self, block: VarBlock, row0: int, col0: int, R,
                           coeff: float = 1.0) -> "AffineMatrixExpr":
        """Places coeff * (M(x) @ R) at G[row0:, col0:] plus its transpose mirror."""
        R = np.asarray(R, dtype=float)
        m = block.size
        for k, (a, b) in enumerate(_sym_pairs(m)):
            i = block.offset + k
            C = np.zeros((m, R.shape[1]))
            C[a] += coeff * R[b]
            if a != b:
                C[b] += coeff * R[a]
            self.F[i, row0:row0 + m, col0:col0 + R.shape[1]] += C
            self.F[i, col0:col0 + R.shape[1], row0:row0 + m] += C.T
        return self

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.F0 + np.tensordot(x, self.F, axes=1)


@dataclass
class ScalarAffineExpr:
    name: str
    a: np.ndarray
    b: float

    def value(self, x: np.ndarray) -> float:
        return float(self.a @ x + self.b)


class BarrierProblem:
    """Concave maximization over named blocks with PSD and scalar constraints."""

    def __init__(self):
        self.blocks: dict[str, VarBlock] = {}
        self.total_dim = 0
        self.linear = np.zeros(0)
        self.obj_const = 0.0
        self.logdets: list[tuple[AffineMatrixExpr, float]] = []
        self.psd: list[AffineMatrixExpr] = []
        self.scalars: list[ScalarAffineExpr] = []
        self.restore_hint: dict = {}

    # ------------------------------------------------------------ variables

    def _add_block(self, name: str, kind: str, size: int) -> VarBlock:
        if name in self.blocks:
            raise ValueError(f"duplicate block name {name!r}")
        if self.logdets or self.psd or self.scalars or self.linear.any():
            raise ValueError("declare all variables before objective/constraints")
        blk = VarBlock(name, kind, size, self.total_dim)
        self.blocks[name] = blk
        self.total_dim += blk.dim
        self.linear = np.zeros(self.total_dim)
        return blk

    def add_scalar_var(self, name: str) -> VarBlock:
        return self._add_block(name, "scalar", 1)

    def add_vector_var(self, name: str, n: int) -> VarBlock:
        return self._add_block(name, "vector", n)

    def add_symmetric_var(self, name: str, n: int) -> VarBlock:
        return self._add_block(name, "symmetric", n)

    # ------------------------------------------------------------ objective

    def add_linear_objective(self, block: VarBlock, coeff):
        c = np.atleast_1d(np.asarray(coeff, dtype=float))
        if block.kind == "symmetric":
            raise ValueError("linear objective on matrix blocks is not supported")
        self.linear[block.offset:block.offset + block.dim] += c

    def add_constant_objective(self, c: float):
        self.obj_const += float(c)

    def add_logdet_objective(self, block: VarBlock, k: float):
        """Adds k * log det(block); for a scalar block this is k * log(value)."""
        if k < 0.0:
            raise ValueError("log det coefficient must be nonnegative")
        if k == 0.0:
            return
        d = block.size if block.kind == "symmetric" else 1
        expr = AffineMatrixExpr(self, d, f"logdet({block.name})")
        if block.kind == "symmetric":
            expr.add_symmetric(block, 0, 0)
        else:
            expr.add_scalar(block, np.ones((1, 1)))
        self.logdets.append((expr, float(k)))

    # ------------------------------------------------------------ constraints

    def new_psd_constraint(self, dim: int, name: str) -> AffineMatrixExpr:
        expr = AffineMatrixExpr(self, dim, name)
        self.psd.append(expr)
        return expr

    def add_scalar_constraint(self, name: str, coeffs: dict, const: float):
        """coeffs maps VarBlock -> coefficient array; expression must be >= 0."""
        a = np.zeros(self.total_dim)
        for blk, c in coeffs.items():
            a[blk.offset:blk.offset + blk.dim] = np.atleast_1d(np.asarray(c, dtype=float))
        self.scalars.append(ScalarAffineExpr(name, a, float(const)))

    # ------------------------------------------------------------ packing

    def pack(self, values: dict) -> np.ndarray:
        x = np.zeros(self.total_dim)
        for name, blk in self.blocks.items():
            v = values[name]
            if blk.kind == "symmetric":
                x[blk.offset:blk.offset + blk.dim] = sym_to_vec(np.asarray(v, dtype=float))
            elif blk.kind == "vector":
                x[blk.offset:blk.offset + blk.dim] = np.asarray(v, dtype=float)
            else:
                x[blk.offset] = float(v)
        return x

    def unpack(self, x: np.ndarray) -> dict:
        out = {}
        for name, blk in self.blocks.items():
            if blk.kind == "symmetric":
                out[name] = vec_to_sym(x[blk.offset:blk.offset + blk.dim], blk.size)
            elif blk.kind == "vector":
                out[name] = x[blk.offset:blk.offset + blk.dim].copy()
            else:
                out[name] = float(x[blk.offset])
        return out

    # ------------------------------------------------------------ evaluation

    def objective(self, x: np.ndarray) -> float:
        val = self.obj_const + float(self.linear @ x)
        for expr, k in self.logdets:
            sign, logdet = np.linalg.slogdet(expr.value(x))
            if sign <= 0:
                return -np.inf
            val += k * logdet
        return val

    def barrier_dimension(self) -> int:
        return sum(e.dim for e in self.psd) + len(self.scalars)

    def strictly_feasible(self, x: np.ndarray, margin: float = 0.0) -> bool:
        for expr in self.psd + [e for e, _ in self.logdets]:
            G = expr.value(x)
            if margin > 0.0:
                if np.linalg.eigvalsh(G).min() < margin:
                    return False
            else:
                try:
                    np.linalg.cholesky(G)
                except np.linalg.LinAlgError:
                    return False
        return all(s.value(x) > margin for s in self.scalars)

    def worst_violation(self, x: np.ndarray) -> tuple[str, float]:
        """Most violated constraint at x (most negative slack / eigenvalue)."""
        worst, name = np.inf, ""
        for expr in self.psd:
            m = float(np.linalg.eigvalsh(expr.value(x)).min())
            if m < worst:
                worst, name = m, expr.name
        for s in self.scalars:
            v = s.value(x)
            if v < worst:
                worst, name = v, s.name
        return name, worst


@dataclass
class SolveResult:
    values: dict
    objective: float
    kkt_residual: float
    barrier_mu_final: float
    status: str  # optimal | infeasible | max_iter
    stage_objectives: list = field(default_factory=list)
    newton_steps: int = 0


def _logdet_derivs(expr: AffineMatrixExpr, x: np.ndarray):
    """(value, gradient, Hessian) of log det G(x); None if G is not PD."""
    G = expr.value(x)
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return None
    val = 2.0 * float(np.log(np.diag(L)).sum())
    Ginv = np.linalg.inv(G)
    grad = np.einsum("ijk,kj->i", expr.F, Ginv)
    M = np.einsum("ab,ibc->iac", Ginv, expr.F)
    hess = -np.einsum("iab,jba->ij", M, M)
    return val, grad, hess


def _merit(prob: BarrierProblem, x: np.ndarray, mu: float, fscale: float = 1.0):
    """(F_mu, grad, hess) with the objective scaled by fscale; None outside the domain."""
    D = prob.total_dim
    val = fscale * (prob.obj_const + float(prob.linear @ x))
    grad = fscale * prob.linear.copy()
    hess = np.zeros((D, D))
    for expr, k in prob.logdets:
        out = _logdet_derivs(expr, x)
        if out is None:
            return None
        v, g, h = out
        val += fscale * k * v
        grad += fscale * k * g
        hess += fscale * k * h
    inv_mu = 1.0 / mu
    for expr in prob.psd:
        out = _logdet_derivs(expr, x)
        if out is None:
            return None
        v, g, h = out
        val += inv_mu * v
        grad += inv_mu * g
        hess += inv_mu * h
    for s in prob.scalars:
        sv = s.value(x)
        if sv <= 0.0:
            return None
        val += inv_mu * np.log(sv)
        grad += inv_mu * s.a / sv
        hess -= inv_mu * np.outer(s.a, s.a) / sv**2
    return val, grad, hess


def _newton_stage(prob: BarrierProblem, x: np.ndarray, mu: float, gtol: float,
                  fscale: float = 1.0):
    """Centers F_mu by damped Newton; returns (x, grad_norm, steps, converged)."""
    steps = 0
    for _ in range(MAX_NEWTON):
        out = _merit(prob, x, mu, fscale)
        if out is None:
            raise RuntimeError("iterate left the barrier domain")
        val, grad, hess = out
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= gtol:
            return x, gnorm, steps, True
        reg = 0.0
        while True:
            try:
                step = np.linalg.solve(hess - reg * np.eye(prob.total_dim), -grad)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and grad @ step > 0.0:
                break
            reg = max(2.0 * reg, 1e-10 * max(1.0, np.abs(hess).max()))
            if reg > 1e12:
                return x, gnorm, steps, gnorm <= KKT_TOL
        decrement = float(grad @ step)
        alpha = 1.0
        accepted = False
        while alpha > 1e-16:
            cand = x + alpha * step
            cout = _merit(prob, cand, mu, fscale)
            if cout is not None and cout[0] >= val + ARMIJO * alpha * decrement:
                x = cand
                accepted = True
                break
            alpha *= BACKTRACK
        steps += 1
        if not accepted:
            # merit improvements are below float noise; polish on the
            # gradient norm instead, which Newton still contracts locally
            alpha = 1.0
            while alpha > 1e-16:
                cand = x + alpha * step
                cout = _merit(prob, cand, mu, fscale)
                if (cout is not None
                        and cout[0] >= val - 1e-12 * (1.0 + abs(val))
                        and np.linalg.norm(cout[1]) < 0.9 * gnorm):
                    x = cand
                    accepted = True
                    break
                alpha *= BACKTRACK
            if not accepted:
                return x, gnorm, steps, gnorm <= KKT_TOL
    out = _merit(prob, x, mu, fscale)
    gnorm = float(np.linalg.norm(out[1]))
    return x, gnorm, steps, gnorm <= KKT_TOL


def solve(prob: BarrierProblem, init: dict) -> SolveResult:
    """Path-following solve from a strictly feasible initial point.

    Reports the KKT residual as the gradient norm of the Lagrangian with the
    barrier-implied multipliers, which at the analytic center equals the
    gradient norm of F_mu at the final mu.  The residual is normalized by the
    objective's coefficient scale, so badly scaled inputs do not inflate it.
    """
    x = prob.pack(init)
    if not prob.strictly_feasible(x, margin=INIT_MARGIN):
        name, worst = prob.worst_violation(x)
        raise InfeasibleStartError(
            f"initial point is not strictly feasible (constraint {name!r}, margin {worst:.3e})")
    scale = max(1.0, float(np.abs(prob.linear).max(initial=0.0)),
                max((k for _, k in prob.logdets), default=0.0))
    fscale = 1.0 / scale
    nu = prob.barrier_dimension()
    mu = 1.0
    stage_objectives = []
    total_steps = 0
    converged = True
    while True:
        x, gnorm, steps, ok = _newton_stage(prob, x, mu, gtol=0.5 * KKT_TOL, fscale=fscale)
        total_steps += steps
        stage_objectives.append(prob.objective(x))
        converged = ok
        if nu / mu <= GAP_TOL:
            break
        mu *= 10.0
    kkt = gnorm
    status = "optimal" if (kkt <= KKT_TOL and converged) else "max_iter"
    return SolveResult(prob.unpack(x), prob.objective(x), kkt, mu, status,
                       stage_objectives, total_steps)


def feasibility_restore(prob: BarrierProblem) -> dict:
    """Strictly feasible initial point for a synthesis-shaped problem.

    Works in whitened control coordinates, where the control center is the
    origin and the admissible set the unit ball.  Starts from the
    analytic-center recipe (origin, epsilon-scaled shape) and, when the
    distance constraint bites, slides the center toward the admissible
    control that maximizes the distance slack.  Raises InfeasibleProblemError
    naming the violated constraint when no combination works even in the
    epsilon -> 0 limit.
    """
    hint = prob.restore_hint
    if not hint:
        raise ValueError("problem carries no restore hint")
    q_blk = hint["q"]
    shape_blk = hint["shape"]  # symmetric Q block or scalar r block
    lam_blk = hint["lam"]
    s_blk = hint.get("s")
    # slack-ascent direction for the center, from the distance constraint row
    slide = np.zeros(q_blk.dim)
    dist = next((s for s in prob.scalars if s.name == "distance"), None)
    if dist is not None:
        a_q = dist.a[q_blk.offset:q_blk.offset + q_blk.dim]
        denom = float(a_q @ a_q)
        if denom > 0.0:
            slide = a_q / np.sqrt(denom)

    def candidate(eps, theta, lam):
        vals = {q_blk.name: theta * slide}
        if shape_blk.kind == "symmetric":
            vals[shape_blk.name] = eps * np.eye(q_blk.dim)
        else:
            vals[shape_blk.name] = eps
        vals[lam_blk.name] = lam
        if s_blk is not None:
            vals[s_blk.name] = 2.0 * eps
        return vals

    for eps in [1e-3, 1e-4, 1e-5, 1e-6, 1e-8]:
        for theta in [0.0, 0.3, 0.6, 0.8, 0.9, 0.95, 0.99]:
            for lam in [0.5, 0.3, 0.6 * (1.0 - theta**2) + 1e-4, 0.15, 0.05, 0.01]:
                vals = candidate(eps, theta, lam)
                if prob.strictly_feasible(prob.pack(vals), margin=INIT_MARGIN):
                    return vals
    # diagnose: which constraint blocks the best limit candidate
    best_name, best_worst = "", -np.inf
    for theta in [0.0, 0.5, 0.9, 0.99, 0.999]:
        x = prob.pack(candidate(1e-9, theta, 0.5 * (1.0 - theta**2) + 1e-6))
        name, worst = prob.worst_violation(x)
        if worst > best_worst:
            best_name, best_worst = name, worst
    raise InfeasibleProblemError(best_name, f"best strict margin {best_worst:.3e}")

"""A small path-following barrier maximizer for log-det / LMI problems.

Handles exactly the problem class the control-set synthesis needs: maximize a
concave objective (linear terms plus coefficient * log det of a variable
block) subject to affine symmetric-matrix expressions required PSD and affine
scalar inequalities, each a 1x1 such expression.  Decision variables are named
blocks: vectors, symmetric matrices (parameterized by their upper triangle)
and scalars.

The solver follows the central path of

    F_mu(x) = f(x) + (1/mu) * [sum log det G_c(x) + sum log s_c(x)]

by damped Newton steps with a backtracking line search that preserves strict
feasibility, multiplying mu by 10 per stage, and stops at the first stage
whose certified duality gap is within GAP_TOL * max(1, |f|).  Problem sizes
here are tiny (around fifteen scalars), so all Hessians are dense.  Each
step is one solve with the Hessian -tr(M_i M_j), minus a Gram matrix, so
negative definite when the F_i are independent; stacked() refuses an F_i of
zero.

A problem is built on a BarrierProblem (variables, objective terms,
constraints) and evaluated only on the StackedBarrier that its stacked()
returns, once per solve: every log-det objective block, PSD constraint block
and scalar row on the diagonal of one affine block-diagonal matrix
G(x) = F0 + sum_i x_i F_i, each row weighted by fscale * k on log-det blocks
and 1/mu on barrier blocks.  One rule, worst_violation (each block's
smallest eigenvalue), checks the start against INIT_MARGIN.  F_mu at a trial
point is one Cholesky factor of G, and its gradient and Hessian at an
accepted point are one inverse of G and two BLAS products.  The Armijo test
reads only F_mu, so backtracking trials evaluate the value alone.  Only the
weights change with mu, so a stage starts from the factor and inverse that
the previous stage ended on (Boyd & Vandenberghe, Convex Optimization,
11.3): its value is read from the carried factor's diagonal with the new
weights, its gradient and Hessian from the carried inverse, and only the
first stage factors and inverts at its start.  Each stage's objective f is
read from the leading log-det block of the same factor.  One rule ends a
stage early: an Armijo step counts only if F_mu rose by more than its
rounding level or the gradient norm fell, since once neither holds Newton
can make no measurable progress at this mu (the centering stop of
Boyd & Vandenberghe, 9.5, 11.3).

Every stage stops once the Newton decrement of mu * F_mu is small:
0.5 * mu * (grad . step) <= CENTER_DECREMENT (Boyd & Vandenberghe, 11.3.3
and 11.5; Nesterov & Nemirovski, 1994).  mu * F_mu = mu f + barrier is
self-concordant, so its decrement bounds the distance to the stage's central
point whatever mu is; the decrement of F_mu alone shrinks with 1/mu and
would stop the later stages far from it.

The stop and the status read one certificate (Vandenberghe, Boyd & Wu,
SIMAX 1998).  The Newton step that a stage's decrement test solved at its
last point implies a dual point in closed form, and with it an upper bound
on the optimum: dual_bound, at most optimality_gap above the objective (see
_certificate).  It costs one Cholesky factor, so it is formed only at the
end of a stage whose path estimate nu / (mu * fscale) is within 2x of the
tolerance, nu the barrier's dimension.  A solve is optimal at the first
stage it certifies.  The x10 ladder ends at the first mu whose estimate is
within GAP_TOL; a solve that has not certified there reads max_iter when
its last stage took all MAX_NEWTON steps, and stalled otherwise.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

GAP_TOL = 1e-7  # certified gap, relative to max(1, |f|), that ends a solve
INIT_MARGIN = 1e-8
MAX_NEWTON = 200
CENTER_DECREMENT = 0.1  # half the squared Newton decrement ending a stage
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


def _sym_basis(n: int) -> np.ndarray:
    """(n(n+1)/2, n, n): entry k is 1 at the k-th upper-triangle pair (a, b)
    of np.triu_indices and at its mirror (b, a), 0 elsewhere."""
    a, b = np.triu_indices(n)
    k = np.arange(a.shape[0])
    E = np.zeros((k.shape[0], n, n))
    E[k, a, b] = E[k, b, a] = 1.0
    return E


def sym_to_vec(M: np.ndarray) -> np.ndarray:
    return M[np.triu_indices(M.shape[0])]


def vec_to_sym(v: np.ndarray, n: int) -> np.ndarray:
    a, b = np.triu_indices(n)
    M = np.zeros((n, n))
    M[a, b] = M[b, a] = v
    return M


def _affine(F0: np.ndarray, F: np.ndarray, x: np.ndarray) -> np.ndarray:
    """F0 + sum_i x_i F_i: the one BLAS call tensordot(x, F, axes=1) makes,
    without its reshaping."""
    D = F.shape[0]
    return F0 + np.dot(x.reshape(1, D), F.reshape(D, -1)).reshape(F0.shape)


class AffineMatrixExpr:
    """G(x) = F0 + sum_i x_i F_i over a problem's flattened variables."""

    def __init__(self, problem: "BarrierProblem", dim: int, name: str):
        self.name = name
        self.dim = dim
        self.F0 = np.zeros((dim, dim))
        self.F = np.zeros((problem.total_dim, dim, dim))

    def add_scalar(self, block: VarBlock, mat) -> "AffineMatrixExpr":
        """G += x_scalar * mat (mat must be symmetric)."""
        self.F[block.offset] += np.asarray(mat, dtype=float)
        return self

    def _add_stack(self, block: VarBlock, row0: int, col0: int, C: np.ndarray,
                   mirror: bool = True) -> "AffineMatrixExpr":
        """Adds the (block.dim, p, q) stack C to G[row0:, col0:], one matrix
        per coordinate of the block, and if mirror its transpose to G[col0:, row0:]."""
        F = self.F[block.offset:block.offset + block.dim]
        p, q = C.shape[1:]
        F[:, row0:row0 + p, col0:col0 + q] += C
        if mirror:
            F[:, col0:col0 + q, row0:row0 + p] += C.transpose(0, 2, 1)
        return self

    def add_vector(self, block: VarBlock, row: int, col0: int, coeff: float = 1.0) -> "AffineMatrixExpr":
        """Places the vector variable at G[row, col0:] and its mirror."""
        return self._add_stack(block, row, col0, coeff * np.eye(block.size)[:, None, :])

    def add_symmetric(self, block: VarBlock, row0: int, col0: int, coeff: float = 1.0) -> "AffineMatrixExpr":
        """Places the matrix variable at G[row0:, col0:] plus its mirror block."""
        return self._add_stack(block, row0, col0, coeff * _sym_basis(block.size), row0 != col0)

    def add_symmetric_rmul(self, block: VarBlock, row0: int, col0: int, R,
                           coeff: float = 1.0) -> "AffineMatrixExpr":
        """Places coeff * (M(x) @ R) at G[row0:, col0:] plus its transpose mirror."""
        C = coeff * (_sym_basis(block.size) @ np.asarray(R, dtype=float))
        return self._add_stack(block, row0, col0, C)


class BarrierProblem:
    """Concave maximization over named blocks with PSD and scalar constraints."""

    def __init__(self):
        self.blocks: dict[str, VarBlock] = {}
        self.total_dim = 0
        self.linear = np.zeros(0)
        self.obj_const = 0.0
        self.logdets: list[tuple[AffineMatrixExpr, float]] = []
        self.psd: list[AffineMatrixExpr] = []
        self.scalars: list[AffineMatrixExpr] = []  # 1x1 blocks
        # a bound on |x| over the feasible set, declared by the builder: the
        # dual bound charges its stationarity residual over this distance, so
        # a problem that declares none certifies only with a zero residual
        self.radius = np.inf

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
        if block.kind == "vector":
            raise ValueError(f"log det of vector block {block.name!r} is not defined")
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
        """const + sum <coeffs[block], block> >= 0, as a 1x1 block; coeffs maps
        VarBlock -> coefficient array."""
        row = AffineMatrixExpr(self, 1, name)
        row.F0[0, 0] = const
        for blk, c in coeffs.items():
            row.F[blk.offset:blk.offset + blk.dim, 0, 0] = np.atleast_1d(c)
        self.scalars.append(row)

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

    # ------------------------------------------------------------ stacking

    def stacked(self) -> "StackedBarrier":
        """Every log-det block, PSD block and scalar row on one block diagonal.

        Built from the problem as it stands, so a constraint added later needs
        a new one; solve builds it once per call.  Raises ValueError naming a
        variable that enters no block, where no Newton step is defined.
        """
        exprs = [e for e, _ in self.logdets] + self.psd + self.scalars
        starts = np.cumsum([0] + [e.dim for e in exprs])
        n, D = int(starts[-1]), self.total_dim
        F0, F = np.zeros((n, n)), np.zeros((D, n, n))
        for expr, a, b in zip(exprs, starts, starts[1:]):
            F0[a:b, a:b] = expr.F0
            F[:, a:b, a:b] = expr.F
        for name, blk in self.blocks.items():
            if not F[blk.offset:blk.offset + blk.dim].any(axis=(1, 2)).all():
                raise ValueError(f"variable {name!r} enters no block")
        n_obj = int(starts[len(self.logdets)])
        k = np.zeros(n)
        for (_, kc), a, b in zip(self.logdets, starts, starts[1:]):
            k[a:b] = kc
        return StackedBarrier(F0, F, k, n_obj, tuple(e.name for e in exprs), tuple(starts),
                              self.linear.copy(), self.obj_const, D)


@dataclass(frozen=True)
class StackedBarrier:
    """G(x) = F0 + sum_i x_i F_i, block diagonal: the log-det objective blocks
    (the first n_obj rows, weighted by k), then the PSD constraint blocks and
    the scalar rows as 1x1 blocks (the barrier, k = 0)."""

    F0: np.ndarray  # (n, n)
    F: np.ndarray  # (total_dim, n, n)
    k: np.ndarray  # (n,) log-det coefficient of each diagonal entry
    n_obj: int
    names: tuple
    starts: tuple  # block b spans rows starts[b]:starts[b + 1]
    linear: np.ndarray
    obj_const: float
    total_dim: int

    def value(self, x: np.ndarray) -> np.ndarray:
        return _affine(self.F0, self.F, x)

    def objective(self, x: np.ndarray) -> float:
        """f(x), -inf where a log-det block is not positive definite."""
        L = None
        if self.n_obj:
            try:
                L = np.linalg.cholesky(self.value(x)[:self.n_obj, :self.n_obj])
            except np.linalg.LinAlgError:
                return -np.inf
        return self.objective_at(x, L)

    def objective_at(self, x: np.ndarray, L: np.ndarray | None) -> float:
        """f(x) from L, the Cholesky factor of G(x) or of its leading n_obj
        block: the leading block of the factor of a block-diagonal G is the
        factor of that block."""
        val = self.obj_const + float(self.linear @ x)
        if self.n_obj == 0:
            return val
        return val + 2.0 * float(self.k[:self.n_obj] @ np.log(L.diagonal()[:self.n_obj]))

    def worst_violation(self, x: np.ndarray) -> tuple[str, float]:
        """The block with the smallest eigenvalue at x, log-det blocks
        included, and that eigenvalue; ("", inf) with no blocks."""
        G = self.value(x)
        minima = np.array([np.linalg.eigvalsh(G[a:b, a:b])[0]
                           for a, b in zip(self.starts, self.starts[1:])])
        if minima.size == 0:
            return "", np.inf
        b = int(np.argmin(minima))
        return self.names[b], float(minima[b])


@dataclass
class SolveResult:
    values: dict
    objective: float
    dual_bound: float  # no feasible point has a larger objective; inf when uncertified
    optimality_gap: float  # dual_bound - objective
    kkt_residual: float  # the dual bound's stationarity residual, over fscale
    barrier_mu_final: float | None  # None when solved in closed form
    status: str  # optimal | stalled | max_iter
    stage_objectives: tuple = ()  # the objective after each barrier stage
    newton_steps: int = 0
    stage_steps: tuple = ()  # Newton steps of each stage


class _Stage(NamedTuple):
    """The constants of one barrier stage: the weights w (fscale * k on
    log-det rows, 1/mu on barrier rows), sqrt(w), fscale * linear and F as
    a (D, n^2) matrix."""

    fscale: float
    w: np.ndarray
    rw: np.ndarray
    lin: np.ndarray
    FD: np.ndarray


def _stage(sb: StackedBarrier, mu: float, fscale: float) -> _Stage:
    w = fscale * sb.k
    w[sb.n_obj:] = 1.0 / mu
    return _Stage(fscale, w, np.sqrt(w), fscale * sb.linear, sb.F.reshape(sb.total_dim, -1))


def _factor(sb: StackedBarrier, x: np.ndarray):
    """(G, L): G(x) and its Cholesky factor; None outside the domain."""
    G = sb.value(x)
    try:
        return G, np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return None


def _merit_value(sb: StackedBarrier, x: np.ndarray, L: np.ndarray, st: _Stage) -> float:
    """F_mu at x, with the objective scaled by fscale, from the Cholesky
    factor L of G(x)."""
    return (st.fscale * (sb.obj_const + float(sb.linear @ x))
            + 2.0 * float(st.w @ np.log(L.diagonal())))


def _merit_derivs(sb: StackedBarrier, Ginv: np.ndarray, st: _Stage):
    """(grad, hess) of F_mu at the point where G(x)^-1 = Ginv.

    Since w is constant on each block, it commutes with every block-diagonal
    matrix, so with A = sqrt(w) G^-1 and M_i = A F_i the gradient is
    F_i . (A sqrt(w))' and the Hessian -tr(M_i M_j): two BLAS products.
    """
    D = sb.total_dim
    A = st.rw[:, None] * Ginv
    grad = st.lin + st.FD @ (A * st.rw).T.ravel()
    M = A @ sb.F
    hess = -(M.reshape(D, -1) @ M.transpose(0, 2, 1).reshape(D, -1).T)
    return grad, hess


def _newton_stage(sb: StackedBarrier, x: np.ndarray, mu: float, fscale: float = 1.0,
                  carry=None):
    """Centers F_mu by damped Newton; returns (x, steps, carry, newton).

    The stage ends once 0.5 * mu * (grad . step) <= CENTER_DECREMENT, the
    point being near enough the central path to start the next stage or to
    be certified.  newton is (grad, hess, step) at the point the stage ends
    on, step the Newton step solved there, from which _certificate forms the
    dual point; None when numpy cannot solve there.

    carry is (L, G^-1) at x: the Cholesky factor and inverse of G(x) that
    the previous stage ended on, None at the first stage, which computes
    them.  The stage's start value is read from L with this stage's weights
    and its derivatives from G^-1, so a stage factors and inverts nothing at
    its start.  Backtracking trials factor G and evaluate F_mu alone; an
    accepted trial's G is inverted once for its derivatives, and its factor
    and inverse are carried into the next step and returned with the point
    the stage ends on.  A Newton system that numpy cannot solve, a step that
    does not ascend F_mu, or MAX_NEWTON steps end the stage.  A trial that
    passes the Armijo test is taken only if it makes measurable progress:
    F_mu rose by more than its rounding level, or the gradient norm fell.
    Otherwise, and when no trial passes, Newton can no longer improve the
    point at this mu and the stage ends there.
    """
    st = _stage(sb, mu, fscale)
    if carry is None:
        start = _factor(sb, x)
        if start is None:
            raise RuntimeError("iterate left the barrier domain")
        carry = start[1], np.linalg.inv(start[0])
    val = _merit_value(sb, x, carry[0], st)
    grad, hess = _merit_derivs(sb, carry[1], st)
    steps = 0
    while True:
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            return x, steps, carry, None
        decrement = float(grad @ step)
        if (steps == MAX_NEWTON or not decrement > 0.0
                or 0.5 * mu * decrement <= CENTER_DECREMENT):
            return x, steps, carry, (grad, hess, step)
        alpha = 1.0
        while alpha > 1e-16:
            cand = x + alpha * step
            trial = _factor(sb, cand)
            if trial is not None:
                cval = _merit_value(sb, cand, trial[1], st)
                if cval >= val + ARMIJO * alpha * decrement:
                    break
            alpha *= BACKTRACK
        else:
            return x, steps, carry, (grad, hess, step)
        steps += 1
        ccarry = trial[1], np.linalg.inv(trial[0])
        cgrad, chess = _merit_derivs(sb, ccarry[1], st)
        if (cval - val <= 4.0 * np.finfo(float).eps * (1.0 + abs(val))
                and np.linalg.norm(cgrad) >= np.linalg.norm(grad)):
            return x, steps, carry, (grad, hess, step)
        x, val, grad, hess, carry = cand, cval, cgrad, chess, ccarry


def _certificate(sb: StackedBarrier, x: np.ndarray, carry, newton, st: _Stage,
                 radius: float):
    """(gap, |r|): a bound on fscale * (p* - f(x)) from the dual point that
    the Newton step at x implies, and that point's stationarity residual.

    With dG = sum_i step_i F_i, Y = w (G^-1 - G^-1 dG G^-1) is Z_c on each
    barrier block and W_o on each log-det block (Vandenberghe, Boyd & Wu,
    SIMAX 1998).  For Z_c PSD and W_o PD, every feasible x' has
    fscale f(x') <= L(x') = fscale (c0 + lin'x') + sum_c tr(Z_c G_c(x'))
    + sum_o [tr(W_o G_o(x')) - k log det W_o - k n_o + k n_o log k], k the
    block's weight fscale * k_o (Fenchel's bound on log det).  L is affine
    with gradient r = grad + hess @ step, the Newton system's residual, so
    p* <= f(x) + (L(x) - fscale f(x) + (radius + |x|) |r|) / fscale.  One
    Cholesky factor of Y checks that it is PD and gives log det W_o; the
    factor L carried with x gives log det G_o.  A Y that is not PD, or no
    step, certifies nothing: the gap is inf.
    """
    if newton is None:
        return np.inf, np.inf
    grad, hess, step = newton
    residual = float(np.linalg.norm(grad + hess @ step))
    Ginv = carry[1]
    GdG = Ginv @ _affine(np.zeros_like(Ginv), sb.F, step)
    try:
        LY = np.linalg.cholesky(st.w[:, None] * (Ginv - GdG @ Ginv))
    except np.linalg.LinAlgError:
        return np.inf, residual
    n, k = sb.n_obj, st.w[:sb.n_obj]
    logdet = 2.0 * np.log(LY.diagonal()[:n] * carry[0].diagonal()[:n])
    gap = (float(st.w @ (1.0 - GdG.diagonal())) - float(k @ (logdet + 1.0 - np.log(k)))
           + (residual and (radius + float(np.linalg.norm(x))) * residual))
    return gap, residual


def solve(prob: BarrierProblem, init: dict) -> SolveResult:
    """Path-following solve from a strictly feasible initial point.

    Ends at the first stage whose certificate puts dual_bound within
    GAP_TOL * max(1, |f|) of the objective, f read at that stage's point,
    with status optimal.  dual_bound bounds the optimum from above,
    optimality_gap = dual_bound - objective, and kkt_residual is the dual
    point's stationarity residual over fscale, fscale the inverse of the
    objective's largest coefficient.  A solve that reaches the ladder's last
    mu uncertified reports that stage's certificate (inf when it has none),
    with status max_iter when that stage took all MAX_NEWTON steps, and
    stalled when it ended earlier.
    """
    x = prob.pack(init)
    sb = prob.stacked()
    name, worst = sb.worst_violation(x)
    if not worst >= INIT_MARGIN:  # a NaN minimum is rejected too
        raise InfeasibleStartError(
            f"initial point is not strictly feasible (constraint {name!r}, margin {worst:.3e})")
    scale = max(1.0, float(np.abs(sb.linear).max(initial=0.0)), float(sb.k.max(initial=0.0)))
    fscale = 1.0 / scale
    nu = sb.k.shape[0] - sb.n_obj
    mu = 1.0
    stage_objectives, stage_steps = [], []
    carry = None
    while True:
        x, steps, carry, newton = _newton_stage(sb, x, mu, fscale, carry)
        stage_steps.append(steps)
        f = sb.objective_at(x, carry[0])
        stage_objectives.append(f)
        # nu / mu is the central path's gap in fscale units; a stage whose
        # estimate is not within 2x of the tolerance is not worth a certificate
        estimate, tol = nu / (mu * fscale), GAP_TOL * max(1.0, abs(f))
        if estimate <= 2.0 * tol:
            gap, residual = _certificate(sb, x, carry, newton, _stage(sb, mu, fscale),
                                         prob.radius)
            bound = f + gap / fscale
            if bound - f <= tol:
                status = "optimal"
                break
        if estimate <= GAP_TOL:
            status = "max_iter" if steps == MAX_NEWTON else "stalled"
            break
        mu *= 10.0
    return SolveResult(prob.unpack(x), f, bound, bound - f, residual / fscale, mu, status,
                       tuple(stage_objectives), sum(stage_steps), tuple(stage_steps))

"""Ellipsoid calculus: support functions, affine images, Minkowski sums, containment.

Ellipsoids are represented by a center c and a symmetric positive-semidefinite
shape matrix M, so that E(c, M) = {c + M^(1/2) v : ||v|| <= 1}.  All formulas
work with the quadratic form <l, M l> directly and never invert M, so
degenerate ellipsoids (points, flat sets) are first-class citizens.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

SYM_TOL = 1e-10
EIG_TOL = 1e-10


class DegenerateDirectionError(ValueError):
    """Raised when an operation has no tight answer along the given direction."""


@dataclass(frozen=True)
class Ellipsoid:
    """E(center, shape) with symmetric PSD shape matrix.

    The shape matrix is symmetrized on construction; an asymmetry or a
    negative eigenvalue beyond tolerance raises ValueError.  Singular shape
    matrices (including the zero matrix, i.e. a point) are allowed.
    """

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        M = np.asarray(self.shape, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] != c.shape[0]:
            raise ValueError(f"shape matrix {M.shape} incompatible with center of dim {c.shape[0]}")
        scale = max(1.0, float(np.abs(M).max()) if M.size else 1.0)
        if np.abs(M - M.T).max() > SYM_TOL * scale:
            raise ValueError("shape matrix is not symmetric within tolerance")
        M = 0.5 * (M + M.T)
        w = np.linalg.eigvalsh(M)
        if w.min() < -EIG_TOL * scale:
            raise ValueError(f"shape matrix has negative eigenvalue {w.min():.3e}")
        c.setflags(write=False)
        M.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "shape", M)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def sqrt_shape(self) -> np.ndarray:
        """Symmetric PSD square root of the shape matrix (read-only)."""
        return self._sqrt

    @cached_property
    def _sqrt(self) -> np.ndarray:
        # once per ellipsoid: the set is immutable, and samplers ask per draw
        W = psd_sqrt(self.shape)
        W.setflags(write=False)
        return W

    def boundary_points(self, n: int, rng=None) -> np.ndarray:
        """n boundary points c + M^(1/2) v with v uniform on the unit sphere:
        the rows of one (n, dim) standard normal draw, scaled to unit length.
        montecarlo.sample_trajectories takes its draws in the same shape and
        order, so its samples get the same normals."""
        rng = np.random.default_rng(rng)
        v = rng.standard_normal((n, self.dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return self.center + v @ self.sqrt_shape()

    @staticmethod
    def ball(center, radius: float) -> "Ellipsoid":
        c = np.atleast_1d(np.asarray(center, dtype=float))
        return Ellipsoid(c, radius**2 * np.eye(c.shape[0]))

    @staticmethod
    def point(center) -> "Ellipsoid":
        c = np.atleast_1d(np.asarray(center, dtype=float))
        return Ellipsoid(c, np.zeros((c.shape[0], c.shape[0])))


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition, clipping tiny negatives."""
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def support(e: Ellipsoid, l) -> tuple[float, np.ndarray]:
    """Support value and a maximizer of <l, x> over x in e.

    Returns (<l,c> + <l,Ml>^(1/2), c + Ml / <l,Ml>^(1/2)); the maximizer
    degenerates to the center when the quadratic form vanishes.
    """
    l = np.asarray(l, dtype=float)
    if l.shape != (e.dim,):
        raise ValueError(f"direction of dim {l.shape} vs ellipsoid of dim {e.dim}")
    if not np.any(l):
        raise ValueError("support direction must be nonzero")
    Ml = e.shape @ l
    q = float(l @ Ml)
    if q <= 0.0:
        return float(l @ e.center), e.center.copy()
    root = np.sqrt(q)
    return float(l @ e.center) + root, e.center + Ml / root


def affine_map(e: Ellipsoid, T, b=None) -> Ellipsoid:
    """Image ellipsoid E(Tc + b, T M T') of e under x -> Tx + b."""
    T = np.atleast_2d(np.asarray(T, dtype=float))
    if T.shape[1] != e.dim:
        raise ValueError(f"map with {T.shape[1]} columns applied to dim-{e.dim} ellipsoid")
    b = np.zeros(T.shape[0]) if b is None else np.asarray(b, dtype=float)
    return Ellipsoid(T @ e.center + b, T @ e.shape @ T.T)


def minkowski_sum_external(e1: Ellipsoid, e2: Ellipsoid, l) -> Ellipsoid:
    """External ellipsoid of e1 + e2, tight along direction l.

    Uses the shape (1 + 1/p) M1 + (1 + p) M2 with p = (<l,M1 l>/<l,M2 l>)^(1/2),
    which contains the true sum for every p > 0 and touches it along l.  A point
    summand (zero shape matrix) is absorbed as a pure translation.  If l kills
    one quadratic form only (no tight p exists) the trace-ratio p is used, which
    still yields a valid external approximation.
    """
    if e1.dim != e2.dim:
        raise ValueError("dimension mismatch in Minkowski sum")
    l = np.asarray(l, dtype=float)
    c = e1.center + e2.center
    scale1 = float(np.abs(e1.shape).max()) if e1.shape.size else 0.0
    scale2 = float(np.abs(e2.shape).max()) if e2.shape.size else 0.0
    if scale2 == 0.0:
        return Ellipsoid(c, e1.shape)
    if scale1 == 0.0:
        return Ellipsoid(c, e2.shape)
    q1 = max(float(l @ e1.shape @ l), 0.0)
    q2 = max(float(l @ e2.shape @ l), 0.0)
    if q1 <= 0.0 and q2 <= 0.0:
        raise DegenerateDirectionError("both quadratic forms vanish along l")
    if q1 <= 0.0 or q2 <= 0.0:
        # no direction-tight p exists; fall back to the minimum-trace choice
        p = np.sqrt(np.trace(e1.shape) / np.trace(e2.shape))
    else:
        p = np.sqrt(q1 / q2)
    return Ellipsoid(c, (1.0 + 1.0 / p) * e1.shape + (1.0 + p) * e2.shape)


def containment_block(outer: Ellipsoid, q: np.ndarray, Q: np.ndarray, lam: float) -> np.ndarray:
    """S-procedure block matrix certifying E(q, Q'Q) inside outer, for witness lam.

    Block layout [[1-lam, 0, (q-c)'], [0, lam*I, Q], [q-c, Q, M]]; the inner
    set is contained in E(c, M) iff this matrix is PSD for some lam in (0, 1].
    """
    n = outer.dim
    v = np.asarray(q, dtype=float) - outer.center
    G = np.zeros((2 * n + 1, 2 * n + 1))
    G[0, 0] = 1.0 - lam
    G[0, n + 1:] = v
    G[n + 1:, 0] = v
    G[1:n + 1, 1:n + 1] = lam * np.eye(n)
    G[1:n + 1, n + 1:] = Q
    G[n + 1:, 1:n + 1] = np.asarray(Q, dtype=float).T
    G[n + 1:, n + 1:] = outer.shape
    return G


def contains(outer: Ellipsoid, inner: Ellipsoid, tol: float = 1e-9) -> tuple[bool, float]:
    """Containment test inner <= outer with an S-procedure witness.

    The witness search maximizes the minimum eigenvalue of the block matrix
    over lam in (0, 1] by golden-section search (the minimum eigenvalue of an
    affine matrix pencil is concave in lam).  Returns (ok, lam) where lam is
    the best witness found; ok means the certified minimum eigenvalue is
    >= -tol.
    """
    if outer.dim != inner.dim:
        raise ValueError("dimension mismatch in containment test")
    if np.linalg.eigvalsh(outer.shape).min() <= 0.0:
        raise ValueError("containment test requires a positive-definite outer shape")
    Q = psd_sqrt(inner.shape)

    def min_eig(lam: float) -> float:
        return float(np.linalg.eigvalsh(containment_block(outer, inner.center, Q, lam)).min())

    lo, hi = 1e-9, 1.0
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = min_eig(x1), min_eig(x2)
    while b - a > 1e-9:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = min_eig(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = min_eig(x1)
    lam = 0.5 * (a + b)
    best = min_eig(lam)
    # the optimum may sit on the boundary lam = 1 (equal ellipsoids)
    if min_eig(1.0) > best:
        lam, best = 1.0, min_eig(1.0)
    return best >= -tol, float(lam)

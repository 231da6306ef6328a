"""Trajectory sampling for falsification-style checks of reported tubes.

Samples follow the exact discrete-time flow of the linear dynamics under
piecewise-constant controls drawn from the boundary of the admissible set,
so every sample is a genuinely reachable state: if one ever leaves a reported
tube (beyond tolerance), the tube is wrong.
"""

import numpy as np

from .dynamics import LTISystem, expm
from .reachability import ReachSpec


def discretize(system: LTISystem, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization via the augmented-matrix exponential."""
    n, m = system.state_dim, system.input_dim
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = system.A
    aug[:n, n:] = system.B
    E = expm(aug, dt)
    return E[:n, :n], E[:n, n:]


def _unit_columns(rng, draws: np.ndarray, out: np.ndarray, sq: np.ndarray,
                  norm: np.ndarray) -> np.ndarray:
    """Fills out (dim, N) with the rows of one (N, dim) standard normal draw,
    transposed and scaled to unit length; the row sums of squares accumulate
    one coordinate row at a time."""
    rng.standard_normal(draws.shape, out=draws)
    np.copyto(out, draws.T)
    np.add.reduce(np.multiply(out, out, out=sq), axis=0, out=norm)
    return np.divide(out, np.sqrt(norm, out=norm), out=out)


def sample_trajectories(spec: ReachSpec, t_grid, n_samples: int, seed: int = 0,
                        P=None) -> np.ndarray:
    """States, or their images under P, of n_samples extremal trajectories at
    the (uniform) grid times.

    Initial states are drawn on the boundary of the initial set; the control
    is re-drawn on the boundary of the control set at every grid step.
    Returns an array of shape (n_samples, len(t_grid), k) including any
    nominal center offset, with k = state_dim when P is None and P's row
    count otherwise.  It is a view of a coordinate-major (len(t_grid), k,
    n_samples) buffer: each time's positions are one contiguous (k,
    n_samples) slice, and the view's transpose(1, 2, 0) is that buffer.
    With P, only the projected values are kept, and one step's full states
    at a time.

    Every array is coordinate-major, so each operation runs over whole rows
    of length n_samples.  The draws are those of Ellipsoid.boundary_points,
    an (n_samples, dim) standard normal block per set and step in the same
    generator order, so each sample gets the same normals for any layout.
    A step is X' = Ad X + Bd [W' c] [V; 1] for the control set's root W and
    center c; a nonzero nominal offset is added before the projection.
    Steps compute in buffers allocated once per call.
    """
    if spec.V is not None:
        raise ValueError("sampling is defined for the disturbance-free case")
    t_grid = np.asarray(t_grid, dtype=float)
    dts = np.diff(t_grid)
    if t_grid[0] != 0.0 or (len(dts) and np.abs(dts - dts[0]).max() > 1e-9):
        raise ValueError("need a uniform time grid starting at 0")
    rng = np.random.default_rng(seed)
    (n, m), N = (spec.system.state_dim, spec.system.input_dim), n_samples
    P = None if P is None else np.asarray(P, dtype=float)
    buf = np.empty((t_grid.shape[0], n if P is None else P.shape[0], N))
    norm, XA = np.empty(N), np.empty((n, N))  # XA: W0' V, Ad X, then X + offset
    X = _unit_columns(rng, np.empty((N, n)), np.empty((n, N)), XA, norm)
    X = np.add(np.matmul(spec.X0.sqrt_shape().T, X, out=XA), spec.X0.center[:, None], out=X)
    if len(dts):
        Ad, Bd = discretize(spec.system, float(dts[0]))
        BWc = Bd @ np.column_stack([spec.U.sqrt_shape().T, spec.U.center])
        draws, sq, UB = np.empty((N, m)), np.empty((m, N)), np.empty((n, N))
        U = np.ones((m + 1, N))  # the unit columns V over a row of ones
    for k, t in enumerate(t_grid):
        if k:
            _unit_columns(rng, draws, U[:m], sq, norm)
            np.add(np.matmul(Ad, X, out=XA), np.matmul(BWc, U, out=UB), out=X)
        offset = spec.offset_at(t)
        Y = np.add(X, offset[:, None], out=XA) if np.any(offset) else X
        if P is None:
            np.copyto(buf[k], Y)
        else:
            np.matmul(P, Y, out=buf[k])
    return buf.transpose(2, 0, 1)

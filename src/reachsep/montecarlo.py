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


def sample_trajectories(spec: ReachSpec, t_grid, n_samples: int, seed: int = 0,
                        P=None) -> np.ndarray:
    """States, or their images under P, of n_samples extremal trajectories at
    the (uniform) grid times.

    Initial states are drawn on the boundary of the initial set; the control
    is re-drawn on the boundary of the control set at every grid step.
    Returns an array of shape (n_samples, len(t_grid), k) including any
    nominal center offset, with k = state_dim when P is None and P's row
    count otherwise.  It is the transposed view of a time-major buffer, so
    each time's (n_samples, k) slice is contiguous.  With P, only the
    projected values are kept, and one step's full states at a time.

    Each step draws into, and computes in, buffers allocated once per call,
    with the operations of X' = X Ad' + U Bd' in the same order as fresh
    arrays would take them: the random stream and every value are those of
    a loop that allocates per step.
    """
    if spec.V is not None:
        raise ValueError("sampling is defined for the disturbance-free case")
    t_grid = np.asarray(t_grid, dtype=float)
    dts = np.diff(t_grid)
    if t_grid[0] != 0.0 or (len(dts) and np.abs(dts - dts[0]).max() > 1e-9):
        raise ValueError("need a uniform time grid starting at 0")
    rng = np.random.default_rng(seed)
    n = spec.system.state_dim
    PT = None if P is None else np.asarray(P, dtype=float).T
    buf = np.empty((t_grid.shape[0], n_samples, n if PT is None else PT.shape[1]))
    X = spec.X0.boundary_points(n_samples, rng)
    XA, UB = np.empty_like(X), np.empty_like(X)  # X Ad' (then X + offset) and U Bd'
    U = np.empty((n_samples, spec.system.input_dim))
    if len(dts):
        Ad, Bd = discretize(spec.system, float(dts[0]))
    for k, t in enumerate(t_grid):
        if k:
            spec.U.boundary_points(n_samples, rng, out=U)
            np.add(np.matmul(X, Ad.T, out=XA), np.matmul(U, Bd.T, out=UB), out=X)
        if PT is None:
            np.add(X, spec.offset_at(t), out=buf[k])
        else:
            np.matmul(np.add(X, spec.offset_at(t), out=XA), PT, out=buf[k])
    return np.swapaxes(buf, 0, 1)

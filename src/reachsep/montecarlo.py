"""Trajectory sampling for falsification-style checks of reported tubes.

Samples follow the exact discrete-time flow of the linear dynamics under
piecewise-constant controls drawn from the boundary of the admissible set,
so every sample is a genuinely reachable state: if one ever leaves a reported
tube (beyond tolerance), the tube is wrong.
"""

from contextlib import closing

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


def _unit_columns(draws: np.ndarray, out: np.ndarray, sq: np.ndarray,
                  norm: np.ndarray) -> np.ndarray:
    """Fills out (dim, N) with the rows of one (N, dim) standard normal draw,
    transposed and scaled to unit length; the row sums of squares accumulate
    one coordinate row at a time."""
    np.copyto(out, draws.T)
    np.add.reduce(np.multiply(out, out, out=sq), axis=0, out=norm)
    return np.divide(out, np.sqrt(norm, out=norm), out=out)


def positions(spec: ReachSpec, t_grid, n_samples: int, seed: int = 0, P=None):
    """Yields, at each (uniform) grid time in order, the (k, n_samples) states
    of n_samples extremal trajectories, or their images under P, including
    any nominal center offset; k = state_dim when P is None and P's row count
    otherwise.

    Initial states are drawn on the boundary of the initial set; the control
    is re-drawn on the boundary of the control set at every grid step.  The
    yielded array is one of the generator's own buffers, overwritten by the
    next step: read it, or copy it, before resuming, and never write into
    it.  A bad spec or grid is rejected here, at the call, before any thread
    starts.  Close the generator (contextlib.closing) when leaving it early:
    closing joins the worker thread that draws the controls.

    Every array is coordinate-major, so each operation runs over whole rows
    of length n_samples.  The draws are those of Ellipsoid.boundary_points,
    an (n_samples, dim) standard normal block per set and step in the same
    generator order, so each sample gets the same normals for any layout.
    The initial block is drawn on the calling thread.  The control blocks
    are drawn, in order and up to two ahead, by a one-worker thread pool, the
    seeded generator's only user from then on, while this thread steps
    (standard_normal releases the GIL); a failed draw is raised here.  A
    step is X' = Ad X + Bd [W' c] [V; 1] for the control set's root W and
    center c; a nonzero nominal offset is added before the projection.  Steps
    compute in buffers allocated once per call, the size of a few (n,
    n_samples) arrays whatever the grid's length.
    """
    if spec.V is not None:
        raise ValueError("sampling is defined for the disturbance-free case")
    t_grid = np.asarray(t_grid, dtype=float)
    dts = np.diff(t_grid)
    if not t_grid.size or t_grid[0] != 0.0 or (len(dts) and np.abs(dts - dts[0]).max() > 1e-9):
        raise ValueError("need a uniform time grid starting at 0")
    return _steps(spec, t_grid, float(dts[0]) if len(dts) else None, n_samples, seed,
                  None if P is None else np.asarray(P, dtype=float))


def _steps(spec: ReachSpec, t_grid: np.ndarray, dt, N: int, seed: int, P):
    """positions' generator, for a grid it has checked; dt is its step."""
    rng = np.random.default_rng(seed)
    n, m = spec.system.state_dim, spec.system.input_dim
    norm, XA = np.empty(N), np.empty((n, N))  # XA: W0' V, Ad X, then X + offset
    # ring and sq hold the control draws; allocated on the first step instead,
    # the bundled quadrotor check's peak RSS swung by 2.4 MB with the name of
    # the checkout's directory (heap layout)
    ring, sq = np.empty((2, N, m)), np.empty((m, N))
    pos = None if P is None else np.empty((P.shape[0], N))
    X = _unit_columns(rng.standard_normal((N, n)), np.empty((n, N)), XA, norm)
    X = np.add(np.matmul(spec.X0.sqrt_shape().T, X, out=XA), spec.X0.center[:, None], out=X)

    def at(k):
        offset = spec.offset_at(t_grid[k])
        Y = np.add(X, offset[:, None], out=XA) if np.any(offset) else X
        return Y if P is None else np.matmul(P, Y, out=pos)

    yield at(0)
    if dt is None:
        return
    Ad, Bd = discretize(spec.system, dt)
    BWc = Bd @ np.column_stack([spec.U.sqrt_shape().T, spec.U.center])
    U = np.ones((m + 1, N))  # the unit columns V over a row of ones
    # imported here, on the first step: concurrent.futures imports logging,
    # which every import of the pipeline would otherwise pay for; imported
    # before the buffers above, it read about 1 MB more peak RSS on that check
    from concurrent.futures import ThreadPoolExecutor

    count = len(t_grid) - 1
    with ThreadPoolExecutor(1, thread_name_prefix="montecarlo-normals") as pool:
        def draw(b):
            return pool.submit(rng.standard_normal, (N, m), out=ring[b % 2])

        draws = [draw(b) for b in range(min(2, count))]
        for b in range(count):
            _unit_columns(draws[b % 2].result(), U[:m], sq, norm)
            if b + 2 < count:
                draws[b % 2] = draw(b + 2)
            np.matmul(Ad, X, out=XA)
            # XA + BWc U with BWc U written over X: the sum of the
            # allocating step, in its order
            np.add(XA, np.matmul(BWc, U, out=X), out=X)
            yield at(b + 1)


def sample_trajectories(spec: ReachSpec, t_grid, n_samples: int, seed: int = 0,
                        P=None) -> np.ndarray:
    """positions(spec, t_grid, n_samples, seed, P) collected: an array of
    shape (n_samples, len(t_grid), k), bit for bit the yielded states.

    It is a view of a coordinate-major (len(t_grid), k, n_samples) buffer,
    8 len(t_grid) k n_samples bytes: each time's positions are one contiguous
    (k, n_samples) slice, and the view's transpose(1, 2, 0) is that buffer.
    A check that reads one time at a time should iterate positions instead
    and keep no such buffer.
    """
    steps = positions(spec, t_grid, n_samples, seed, P)
    k = spec.system.state_dim if P is None else np.shape(P)[0]
    buf = np.empty((np.shape(t_grid)[0], k, n_samples))
    with closing(steps):
        for row, Y in zip(buf, steps):
            np.copyto(row, Y)
    return buf.transpose(2, 0, 1)

"""Signed separation of two projected reachable sets.

The separation of A_t and B_t seen through P is the distance from 0 to
C = P(A_t) - P(B_t), found as a minimum-norm point from touching points
alone: Gilbert's iteration gives an upper bound, the support values a lower
bound, and the search stops on their duality gap.  Its directions l lie in
the k-dim position space, so its oracle reads each set through the support
kernel's projected view (reachsep.reachability._project): a center per
time and factor node stacks, whose response at l is the projected touching
point.  The searches of all grid times run in lockstep on that view, one
oracle call per step for the times still open.  Touching or overlapping
sets, where the signed value is a nonconvex problem, go to an expanding
inner hull of the touching points, a polytope grown one point at a time:
the depth of its nearest facet bounds the penetration depth from below, so
the signed value gets a duality gap too.
"""

from dataclasses import dataclass

import numpy as np

from .reachability import ReachSpec, _dot, _grids_for, _project, _Projected

GAP_REL = 1e-12  # duality-gap stop of both separation loops, relative to max(1, |value|)
MNP_MAX_ITERS = 1000  # per loop; a capped run returns its lower bound, uncertified


def _oracle(A: _Projected, B: _Projected, l: np.ndarray):
    """g(l) = -rho_A(-P'l) - rho_B(P'l) and the point s = P x_A - P x_B of
    C = P(A_t) - P(B_t) minimizing <l, s>, so that g(l) = <l, s>: one row
    of l (T, k) per time of the batch."""
    s = A.center - B.center - A.response(l) - B.response(l)
    return _dot(l, s), s


def _toward(z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Nearest point to 0 on each segment [z, s] (rows): Gilbert's primal step."""
    step = z - s
    length_sq = (step * step).sum(axis=1)
    frac = np.clip((z * step).sum(axis=1) / np.where(length_sq > 0.0, length_sq, 1.0), 0.0, 1.0)
    return z - frac[:, None] * step


def _min_norm_point(A: _Projected, B: _Projected):
    """Minimum-norm point of C = P(A_t) - P(B_t) at each time of a batch,
    with a duality-gap certificate.

    Primal: Gilbert's iteration keeps z in C, moving it to the nearest point
    of the segment [z, s] after each oracle call, so ||z|| bounds the distance
    from 0 to C from above.  Dual: every oracle value g(l) bounds it from
    below.  The next direction is a Barzilai-Borwein step on the unit sphere
    along the tangential part of s (the gradient of g there) when the last
    two directions give a positive curvature estimate and a step shorter
    than 1 / GAP_REL, else Gilbert's own z / ||z||, which alone zigzags for
    thousands of steps when the sets nearly touch.  closed: the run stopped
    one step after ||z|| - lower <= GAP_REL * max(1, ||z||); the closed gap
    pins the value, but the direction only to about sqrt(2 GAP_REL), and
    the extra step brings it to the superlinear end of the iteration.  The
    run stops open when ||z|| vanishes, or when a step leaves z in place at
    a direction where g < 0 has settled (its tangential part below
    sqrt(GAP_REL)): the sets touch or overlap, and z cannot certify a signed
    value.  It also stops open after MNP_MAX_ITERS steps.

    The times step in lockstep, one batched oracle call per step over the
    times still running; each keeps its own stopping rules and leaves the
    batch when it stops.  Returns arrays (lower, z, l, s, closed) over the
    batch, with l the direction attaining lower and s its oracle point.
    """
    T, k = A.center.shape
    l = np.zeros((T, k))
    l[:, 0] = 1.0
    g, s = _oracle(A, B, l)
    lower, best_l, best_s, z = g, l, s, s
    l_prev, tangent_prev = l, np.zeros((T, k))  # no curvature estimate before a step
    closed = stuck = np.zeros(T, dtype=bool)
    out = (np.empty(T), np.empty((T, k)), np.empty((T, k)), np.empty((T, k)),
           np.zeros(T, dtype=bool))
    rows = np.arange(T)  # the batch position of each running time
    for _ in range(MNP_MAX_ITERS):
        upper = np.linalg.norm(z, axis=1)
        tol = GAP_REL * np.maximum(1.0, upper)
        vanished = upper <= tol
        closing = upper - lower <= tol
        done = stuck | vanished | (closing & closed)
        closed = closed | closing
        if done.any():
            for o, v in zip(out, (lower, z, best_l, best_s, ~(stuck | vanished))):
                o[rows[done]] = v[done]
            keep = ~done
            rows, l, g, s, lower, best_l, best_s, z, l_prev, tangent_prev, closed, upper = (
                v[keep] for v in (rows, l, g, s, lower, best_l, best_s, z, l_prev, tangent_prev,
                                  closed, upper))
            A, B = A.take(keep), B.take(keep)
            if not rows.size:
                return out
        tangent = s - g[:, None] * l
        dl = l - l_prev
        dl_sq = (dl * dl).sum(axis=1)
        moved = dl_sq > 0.0
        curvature = np.where(moved, -(dl * (tangent - tangent_prev)).sum(axis=1)
                             / np.where(moved, dl_sq, 1.0), 0.0)
        l_prev, tangent_prev = l, tangent
        # a step longer than 1 / GAP_REL turns l by a right angle to within
        # GAP_REL, and overflows the norm below when curvature is tiny
        bb_step = (curvature > 0.0) & (np.linalg.norm(tangent, axis=1) < curvature / GAP_REL)
        l = np.where(bb_step[:, None], l + tangent / np.where(bb_step, curvature, 1.0)[:, None],
                     z / upper[:, None])
        l = l / np.linalg.norm(l, axis=1)[:, None]
        g, s = _oracle(A, B, l)
        better = g > lower
        lower = np.where(better, g, lower)
        best_l = np.where(better[:, None], l, best_l)
        best_s = np.where(better[:, None], s, best_s)
        z_next = _toward(z, s)
        stuck = ((lower < 0.0) & (z_next == z).all(axis=1)
                 & (np.linalg.norm(s - g[:, None] * l, axis=1)
                    <= np.sqrt(GAP_REL) * np.maximum(1.0, -g)))
        z = z_next
    for o, v in zip(out, (lower, z, best_l, best_s, closed & ~stuck)):
        o[rows] = v
    return out


class _Polytope:
    """Convex hull of points in 2 or 3 dimensions, grown one point at a time.

    Faces are k-tuples of point indices, oriented outward: an edge (i, j)
    runs counterclockwise in 2-D, a triangle (i, j, l) is counterclockwise
    seen from outside in 3-D.  A new point deletes the faces it sees and
    joins itself to each horizon ridge (a ridge of a deleted face whose other
    face stays) by putting itself in the place of the deleted face's
    remaining vertex, which keeps the orientation.  A point that sees no face
    beyond the rounding level, repeats an earlier point (its faces would have
    no normal), or whose horizon is not one cycle, is left out, so the
    polytope stays a closed hull of some of the points and lies inside their
    convex hull.  Until the points span k dimensions it has no faces, and
    each call to facets tries again to start from a simplex.
    """

    def __init__(self, dim: int):
        self.points = np.empty((0, dim))
        self.faces = np.empty((0, dim), dtype=int)
        self.planes = np.empty((0, dim + 1))  # rows (n, offset): <n, x> + offset <= 0 inside

    def _tol(self) -> float:
        return 16.0 * np.finfo(float).eps * float(np.abs(self.points).max(initial=0.0))

    def _planes(self, faces) -> np.ndarray:
        V = self.points[faces]
        d = V[:, 1:] - V[:, :1]
        planes = np.empty((faces.shape[0], faces.shape[1] + 1))
        n = planes[:, :-1]
        if faces.shape[1] == 2:
            n[:, 0], n[:, 1] = d[:, 0, 1], -d[:, 0, 0]
        else:
            n[:] = np.cross(d[:, 0], d[:, 1])
        n /= np.sqrt((n * n).sum(axis=1))[:, None]
        planes[:, -1] = -(n * V[:, 0]).sum(axis=1)
        return planes

    def add(self, p) -> None:
        self.points = np.vstack([self.points, p])
        if self.faces.shape[0]:
            self._insert(self.points.shape[0] - 1)

    def _insert(self, i: int) -> None:
        seen = self.planes[:, :-1] @ self.points[i] + self.planes[:, -1] > self._tol()
        if not seen.any() or (self.points[:i] == self.points[i]).all(axis=1).any():
            return
        k = self.faces.shape[1]
        ridges = {}
        for f in self.faces[seen].tolist():
            for j in range(k):
                key = tuple(sorted(f[:j] + f[j + 1:]))
                # a ridge of two deleted faces is not on the horizon
                ridges[key] = None if key in ridges else (f, j)
        horizon = [fj for fj in ridges.values() if fj is not None]
        if k == 2:
            closed = len(horizon) == 2
        else:  # the directed horizon edges must form a single cycle
            succ = {f[(j + 1) % 3]: f[(j + 2) % 3] for f, j in horizon}
            start = v = horizon[0][0][(horizon[0][1] + 1) % 3]
            cycle = set()
            while v in succ and v not in cycle:
                cycle.add(v)
                v = succ[v]
            closed = v == start and len(succ) == len(horizon) == len(cycle)
        if not closed:
            return
        new = np.array([f for f, _ in horizon])
        new[np.arange(len(horizon)), [j for _, j in horizon]] = i
        self.faces = np.vstack([self.faces[~seen], new])
        self.planes = np.vstack([self.planes[~seen], self._planes(new)])

    def _start(self) -> bool:
        """Faces of a simplex of the points, then every other point inserted;
        False while the points are flat."""
        X, k = self.points, self.points.shape[1]
        if X.shape[0] <= k:
            return False
        simplex = [int(np.argmax(np.linalg.norm(X - X.mean(axis=0), axis=1)))]
        basis = np.empty((0, k))
        for _ in range(k):
            r = X - X[simplex[0]]
            r = r - (r @ basis.T) @ basis
            far = int(np.argmax(np.linalg.norm(r, axis=1)))
            height = float(np.linalg.norm(r[far]))
            if height <= self._tol():
                return False
            simplex.append(far)
            basis = np.vstack([basis, r[far] / height])
        faces = np.array([[v for v in simplex if v != w] for w in simplex])
        planes = self._planes(faces)
        inward = (planes[:, :-1] * X[simplex]).sum(axis=1) + planes[:, -1] > 0.0
        faces[inward, :2] = faces[inward, 1::-1]
        self.faces, self.planes = faces, self._planes(faces)
        for i in range(X.shape[0]):
            if i not in simplex:
                self._insert(i)
        return True

    def facets(self) -> np.ndarray | None:
        """The face planes (n, offset), or None while the points are flat."""
        if not self.faces.shape[0] and not self._start():
            return None
        return self.planes


def _inner_hull(A: _Projected, B: _Projected, lower: float, z: np.ndarray, l: np.ndarray):
    """Signed separation from an inner hull, for sets that touch or overlap.

    Every oracle point lies in C = P(A_t) - P(B_t), so their convex hull H is
    inside C.  Once 0 is inside H, the distance from 0 to H's nearest facet
    is at most the penetration depth of C, so minus that distance bounds the
    signed value from above.  Gilbert's z keeps moving toward each new point,
    so ||z|| stays an upper bound too: it certifies touching and flat sets,
    and sets that turn out to be apart.  Every g(l) bounds the value from
    below.  Seeded with the 2k axis directions, each step adds its oracle
    point to H (_Polytope) and asks the oracle along the outward normal of
    the facet nearest 0: the expanding polytope of collision detection (van
    den Bergen 2001).  While the points are flat and span no polytope, it
    asks along both normals of their affine hull and along z / ||z||,
    Gilbert's own direction.  A and B hold one time; starts from the bounds
    of _min_norm_point at it and returns (lower, upper, l, closed), closed
    when upper - lower <= GAP_REL * max(1, |lower|), open after
    MNP_MAX_ITERS hull steps.
    """
    k = A.center.shape[1]
    hull = _Polytope(k)
    queries = [sign * e for e in np.eye(k) for sign in (1.0, -1.0)]
    upper = float(np.linalg.norm(z))
    for _ in range(MNP_MAX_ITERS):
        for q in queries:
            g, p = _oracle(A, B, q[None])
            hull.add(p[0])
            z = _toward(z[None], p)[0]
            if g[0] > lower:
                lower, l = float(g[0]), q
        z_norm = float(np.linalg.norm(z))
        upper = min(upper, z_norm)
        facets = hull.facets()  # rows (n, offset): <n, x> + offset <= 0 on H
        if facets is None:
            normal = np.linalg.svd(hull.points - hull.points[0])[2][-1]
            queries = [normal, -normal] + ([z / z_norm] if z_norm > 0.0 else [])
        else:
            nearest = facets[np.argmax(facets[:, -1])]
            if nearest[-1] <= 0.0:
                upper = min(upper, float(nearest[-1]))
            queries = [-nearest[:-1]]
        if upper - lower <= GAP_REL * max(1.0, abs(lower)):
            return lower, upper, l, True
    return lower, upper, l, False


@dataclass(frozen=True)
class Separation:
    """Result of one separation check: the signed value and its direction.

    certified: the duality gap closed, so value is the signed separation to
    within GAP_REL.  False only when the iteration cap was hit; value is then
    the best lower bound found.
    gap: when the minimum-norm point certifies (the sets are apart),
    ||P x_A(l) - P x_B(l)|| - value at the returned direction l; otherwise
    the inner hull's upper bound minus value.  Either way value + gap bounds
    the signed separation from above.
    """

    value: float
    direction: np.ndarray
    certified: bool
    gap: float


def separations(specA: ReachSpec, specB: ReachSpec, times, P) -> list:
    """separation at each of a list of times, computed together.

    The minimum-norm points of all times run in lockstep on the projected
    view (_Projected), one batched oracle call per step; each time
    keeps its own stopping rules and leaves the batch when it stops, so its
    result does not depend on the other times.  A time whose run stops
    without a certificate goes on to its inner hull alone.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    A, B = (_project(spec, _grids_for(spec, times), P) for spec in (specA, specB))
    lower, z, l, s, closed = _min_norm_point(A, B)
    seps = []
    for j in range(lower.shape[0]):
        if closed[j]:
            seps.append(Separation(float(lower[j]), l[j], True,
                                   float(np.linalg.norm(s[j]) - lower[j])))
        else:
            low, upper, lj, certified = _inner_hull(A.take([j]), B.take([j]), lower[j], z[j], l[j])
            seps.append(Separation(float(low), lj, certified, float(upper - low)))
    return seps


def separation(specA: ReachSpec, specB: ReachSpec, t: float, P) -> Separation:
    """Signed separation of the two projected reachable sets at time t.

    The value is max g(l) = -rho_A(-P'l) - rho_B(P'l) over unit directions l
    in the projected subspace: the distance between the sets when positive,
    minus their penetration depth when negative, and any g(l) bounds it from
    below.  The minimum-norm point of P(A_t) - P(B_t) (Gilbert's algorithm)
    finds it when the sets are apart; when that stops without a certificate
    (the sets touch or overlap, or its cap was hit), the inner hull of the
    oracle points takes over and bounds the signed value from above.  Both
    stop on a duality gap of GAP_REL; a run that hits MNP_MAX_ITERS returns
    its best lower bound, marked uncertified.  separations of one time.
    """
    return separations(specA, specB, [t], P)[0]

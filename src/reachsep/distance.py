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
inner hull of the touching points, a polytope grown in rounds, each one
oracle call along many directions: the depth of its nearest facet bounds
the penetration depth from below, so the signed value gets a duality gap
too.
"""

import math
from dataclasses import dataclass

import numpy as np

from .reachability import ReachSpec, _dot, _grids_for, _project, _Projected

GAP_REL = 1e-12  # duality-gap stop of both separation loops, relative to max(1, |value|)
# oracle points per time in each loop; a run that spends them returns its
# lower bound, uncertified
MNP_MAX_ITERS = 3000
HULL_WIDTH = 64  # open facets asked per inner-hull round: the nearest, in facet order


def _oracle(A: _Projected, B: _Projected, l: np.ndarray):
    """g(l) = -rho_A(-P'l) - rho_B(P'l) and the point s = P x_A - P x_B of
    C = P(A_t) - P(B_t) minimizing <l, s>, so that g(l) = <l, s>: one row
    of l (T, k) per time of the views, or any number of rows against views
    of one time, which numpy broadcasts bit for bit as copies of them."""
    s = A.center - B.center - A.response(A.images(l)) - B.response(B.images(l))
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
    value.  It also stops open once it has spent MNP_MAX_ITERS oracle points,
    its first one included.

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
    for _ in range(MNP_MAX_ITERS - 1):
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
    """Convex hull of points in 2 or 3 dimensions, grown a batch of points at a time.

    Faces are k-tuples of point indices, oriented outward: an edge (i, j)
    runs counterclockwise in 2-D, a triangle (i, j, l) is counterclockwise
    seen from outside in 3-D.  A new point deletes the faces it sees and
    joins itself to each horizon ridge (a ridge of a deleted face whose other
    face stays) by putting itself in the place of the deleted face's
    remaining vertex, which keeps the orientation.  A point that sees no face
    beyond the rounding level, repeats a vertex of a face it sees (its faces
    would have no normal), whose horizon is not one cycle, or whose new faces
    would leave a vertex next to the horizon outside (a fold, from a point
    within rounding of the surface) even once the faces holding that vertex
    that it sees within rounding are deleted too, is left out, so the
    polytope stays a closed hull of some of the points and lies inside their
    convex hull.
    Until the points span k dimensions it has no faces: basis holds an
    orthonormal basis of their affine hull, widened only by the points that
    leave it, and once it spans k dimensions each call to facets tries to
    start from a simplex.
    """

    def __init__(self, dim: int):
        self.points = np.empty((0, dim))
        self.faces = np.empty((0, dim), dtype=int)
        self.planes = np.empty((0, dim + 1))  # rows (n, offset): <n, x> + offset <= 0 inside
        self.basis = np.empty((0, dim))  # orthonormal rows spanning the points' affine hull
        self.tol = 0.0  # the rounding level of the points' coordinates

    def _planes(self, faces) -> np.ndarray:
        """The planes (n, offset) of faces, in Python floats: a new point
        makes a few faces, too few for numpy's per-call cost to pay."""
        planes = []
        for V in self.points[faces].tolist():
            if len(V) == 2:
                (x0, y0), (x1, y1) = V
                n = (y1 - y0, x0 - x1)
            else:  # the cross product of the two edges
                (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = V
                ax, ay, az, bx, by, bz = x1 - x0, y1 - y0, z1 - z0, x2 - x0, y2 - y0, z2 - z0
                n = (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)
            r = math.sqrt(sum(c * c for c in n))
            n = [c / r for c in n]
            planes.append(n + [-sum(c * v for c, v in zip(n, V[0]))])
        return np.array(planes).reshape(-1, faces.shape[1] + 1)

    def add(self, points) -> bool:
        """Add a batch of points (rows), inserted one at a time once the
        polytope has faces.  True when the batch widened the affine hull."""
        first = self.points.shape[0]
        self.points = np.vstack([self.points, points])
        self.tol = 16.0 * np.finfo(float).eps * float(np.abs(self.points).max())
        if self.faces.shape[0]:
            for i in range(first, self.points.shape[0]):
                self._insert(i)
            return False
        rank = self.basis.shape[0]
        for i in range(max(first, 1), self.points.shape[0]):
            self._widen(i)
        return self.basis.shape[0] > rank

    def _widen(self, i: int) -> None:
        """Add points[i]'s direction from points[0] to the basis if it leaves the affine hull."""
        r = self.points[i] - self.points[0]
        for _ in range(2):  # Gram-Schmidt twice keeps the rows orthonormal
            r = r - (r @ self.basis.T) @ self.basis
        height = float(np.sqrt(r @ r))
        if height > self.tol and self.basis.shape[0] < self.basis.shape[1]:
            self.basis = np.vstack([self.basis, r / height])

    def _insert(self, i: int) -> None:
        """Join points[i] to the faces it sees, or leave it out.

        A point within rounding of the surface can see a face but not its
        neighbour, and fold a new face over that neighbour: every vertex of a
        kept face at the horizon must stay inside the new faces.  On a fold,
        the kept faces that hold an offending vertex and that the point sees
        within rounding join the seen faces once, and the point is left out
        only if that fold stands too."""
        p = self.points[i]
        height = self.planes[:, :-1] @ p + self.planes[:, -1]
        seen = height > self.tol
        if not seen.any():
            return
        for _ in range(2):
            new = self._cone(i, seen)
            if new is None:
                return
            # a face's own vertices are on its plane and are not tested: a
            # sliver face's normal, rounded, can put them a little outside
            kept, planes = self.faces[~seen], self._planes(new)
            at_horizon = np.zeros(self.points.shape[0], dtype=bool)
            at_horizon[new] = True
            ring = kept[at_horizon[kept].any(axis=1)].ravel()
            above = self.points[ring] @ planes[:, :-1].T + planes[:, -1] > self.tol
            above &= ~(ring[:, None, None] == new[None]).any(axis=2)
            if not above.any():
                self.faces = np.concatenate([kept, new])
                self.planes = np.concatenate([self.planes[~seen], planes])
                return
            folded = np.isin(self.faces, ring[above.any(axis=1)]).any(axis=1)
            seen = seen | (folded & (height > -self.tol))

    def _cone(self, i: int, seen: np.ndarray) -> np.ndarray | None:
        """The faces joining points[i] to the horizon of the seen faces, or
        None when it repeats a vertex of a seen face (its faces would have no
        normal) or the horizon is not one cycle."""
        gone = self.faces[seen]
        if (self.points[gone.ravel()] == self.points[i]).all(axis=1).any():
            return None
        gone = gone.tolist()
        if len(gone[0]) == 2:
            # the deleted edges must form one chain: i joins its first start
            # and its last end
            starts, ends = {a for a, _ in gone}, {b for _, b in gone}
            first, last = starts - ends, ends - starts
            if len(first) != 1 or len(last) != 1:
                return None
            return np.array([[first.pop(), i], [i, last.pop()]])
        # a directed edge of the deleted faces whose reverse is not among
        # them is on the horizon; each joins i as (a, b, i), which keeps the
        # orientation.  They must form a single cycle
        edges = [(f[j], f[j - 2]) for f in gone for j in range(3)]
        both = set(edges)
        horizon = [e for e in edges if e[::-1] not in both]
        succ = dict(horizon)
        if len(succ) != len(horizon):
            return None
        v = start = next(iter(succ))
        for _ in range(len(succ) - 1):
            v = succ.get(v, start)
            if v == start:
                return None
        if succ.get(v) != start:
            return None
        return np.array([[a, b, i] for a, b in succ.items()])

    def _start(self) -> bool:
        """Faces of a simplex of the points, then every other point inserted;
        False while the points are flat."""
        X, k = self.points, self.points.shape[1]
        if self.basis.shape[0] < k:
            return False
        simplex = [int(np.argmax(np.linalg.norm(X - X.mean(axis=0), axis=1)))]
        basis = np.empty((0, k))
        for _ in range(k):
            r = X - X[simplex[0]]
            r = r - (r @ basis.T) @ basis
            far = int(np.argmax(np.linalg.norm(r, axis=1)))
            height = float(np.linalg.norm(r[far]))
            if height <= self.tol:
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

    def nearest(self) -> np.ndarray:
        """The point of the polytope nearest 0, for 0 outside it.  It lies on
        a face that 0 sees: at the foot of 0 on the face's plane when the foot
        is inside the face, else on one of the face's edges."""
        seen = self.planes[:, -1] > 0.0
        planes, V = self.planes[seen], self.points[self.faces[seen]]  # V: (faces, k, k)
        E = np.roll(V, -1, axis=1) - V  # the edges; in 2-D each face twice, as (a, b), (b, a)
        frac = np.clip(-(V * E).sum(axis=2) / np.maximum((E * E).sum(axis=2), np.finfo(float).tiny),
                       0.0, 1.0)
        X = [(V + frac[..., None] * E).reshape(-1, V.shape[2])]
        if V.shape[2] == 3:
            foot = -planes[:, -1:] * planes[:, :-1]
            inside = ((planes[:, None, :-1] * np.cross(E, foot[:, None] - V)).sum(axis=2) >= 0.0)
            X.append(foot[inside.all(axis=1)])
        X = np.vstack(X)
        return X[np.argmin((X * X).sum(axis=1))]

    def normals(self) -> np.ndarray:
        """Orthonormal rows spanning the complement of the affine hull's basis."""
        U = np.linalg.svd(np.eye(self.basis.shape[1]) - self.basis.T @ self.basis)[0]
        return U[:, :self.basis.shape[1] - self.basis.shape[0]].T


def _inner_hull(A: _Projected, B: _Projected, lower: float, z: np.ndarray, l: np.ndarray):
    """Signed separation from an inner hull, for sets that touch or overlap.

    Every oracle point lies in C = P(A_t) - P(B_t), so their convex hull H is
    inside C.  Once 0 is inside H, the distance from 0 to H's nearest facet
    is at most the penetration depth of C, so minus that distance bounds the
    signed value from above; while 0 is outside H, the norm of H's point
    nearest 0 does.  Gilbert's z keeps moving toward each new point, so
    ||z|| stays an upper bound too: it certifies touching and flat sets.
    Every g(l) bounds the value from below.

    It runs in rounds, each one batched oracle call (every query against
    the view of the one time) whose points join H (_Polytope) together.
    Seeded with the 2k axis directions, each round asks along the outward
    normal of the facets that could still raise the lower bound, offset >
    lower + GAP_REL max(1, |lower|): the expanding polytope of collision
    detection (van den Bergen 2001), at most HULL_WIDTH open facets at once,
    the nearest ones (they set the bound), kept in facet order.  While 0 is
    outside H it also asks toward H's nearest point, as GJK does.  While the
    points are flat and span no polytope, it asks along both signs of each
    normal of their affine hull and along z / ||z||, Gilbert's own direction.

    A and B hold one time; starts from the bounds of _min_norm_point at it
    and returns (lower, upper, l, closed).  It stops closed when upper -
    lower <= GAP_REL * max(1, |lower|); open when the bounds cross by more
    than that (the oracle's points and values disagree, and the bounds can
    only move toward each other), once it has spent
    MNP_MAX_ITERS oracle points (the last round is cut to the budget left),
    or as soon as a round leaves the facet planes unchanged or, while flat,
    widens the affine hull by no point and moves neither bound: the next
    round would ask the same, or only Gilbert's direction again, so later
    rounds could move the bounds by rounding at most.
    """
    k = A.center.shape[1]
    hull = _Polytope(k)
    queries = np.vstack([np.eye(k), -np.eye(k)])
    upper = float(np.linalg.norm(z))
    facets, spent = None, 0
    while spent < MNP_MAX_ITERS:
        queries = queries[:MNP_MAX_ITERS - spent]
        spent += queries.shape[0]
        g, points = _oracle(A, B, queries)
        bounds = (lower, upper)
        for p in points:
            z = _toward(z[None], p[None])[0]
        best = int(np.argmax(g))
        if g[best] > lower:
            lower, l = float(g[best]), queries[best]
        widened = hull.add(points)
        z_norm = float(np.linalg.norm(z))
        upper = min(upper, z_norm)
        previous, facets = facets, hull.facets()  # rows (n, offset): <n, x> + offset <= 0 on H
        tol = GAP_REL * max(1.0, abs(lower))
        if facets is None:
            normals = hull.normals()
            queries = np.vstack([normals, -normals] + ([z / z_norm] if z_norm > 0.0 else []))
        else:
            nearest = float(facets[:, -1].max())
            ask = np.flatnonzero(facets[:, -1] > lower + tol)
            if ask.size > HULL_WIDTH:
                ask = np.sort(ask[np.argsort(-facets[ask, -1], kind="stable")[:HULL_WIDTH]])
            queries = -facets[ask, :-1]
            if nearest <= 0.0:
                upper = min(upper, nearest)
            else:  # 0 is outside H: its nearest point is in C, and GJK asks toward it
                w = hull.nearest()
                w_norm = float(np.linalg.norm(w))
                upper = min(upper, w_norm)
                queries = np.vstack([queries, w / w_norm])
        if upper - lower <= tol:  # closed, unless the bounds cross
            return lower, upper, l, bool(upper - lower >= -tol)
        if not queries.shape[0] or (np.array_equal(facets, previous) if facets is not None
                                    else not widened and (lower, upper) == bounds):
            break
    return lower, upper, l, False


@dataclass(frozen=True)
class Separation:
    """Result of one separation check: the signed value and its direction.

    certified: the duality gap closed, so value is the signed separation to
    within GAP_REL.  False only when a loop spent its MNP_MAX_ITERS oracle
    points, the inner hull stopped changing or its bounds crossed; value is
    then the best lower bound found.
    gap: when the minimum-norm point certifies (the sets are apart),
    ||P x_A(l) - P x_B(l)|| - value at the returned direction l; otherwise
    the inner hull's upper bound minus value.  Either way value + gap bounds
    the signed separation from above, to the accuracy of the oracle: a
    negative gap is bounds that crossed, uncertified.
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
    (the sets touch or overlap, or it spent its budget), the inner hull of
    the oracle points takes over and bounds the signed value from above.
    Both stop on a duality gap of GAP_REL; a run that spends its
    MNP_MAX_ITERS oracle points, or an inner hull that stops changing or
    whose bounds cross, returns its best lower bound, marked uncertified.
    separations of one time.
    """
    return separations(specA, specB, [t], P)[0]

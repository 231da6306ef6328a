"""End-to-end scenario runner: load, synthesize, verify, serialize.

The run is the full two-phase pipeline: estimate the encounter from the
nominal trajectories, report the initial (unshrunk) overlap, shrink B's
control set, build B's inflated safe set, fit A's control set, then verify
separation over the whole output grid.  Every artifact is written even when
the verification fails; the exit code carries the verdict:

    0  pipeline complete and grid-wide separation holds
    1  structural infeasibility (no control-set pair can work)
    2  pipeline complete but the verification found a violation
    3  malformed scenario or inconsistent configuration
"""

import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from .montecarlo import sample_trajectories
from .distance import separation, separations
from .reachability import ReachSpec, disturbance_contribution, reach_tube
from .scenario import (
    Scenario,
    ScenarioError,
    build_nominal,
    build_spec,
    load_document,
    position_projection,
    scenario_from_dict,
)
from .synthesis import (
    EncounterGeometry,
    JointInfeasibilityError,
    estimate_encounter,
    safe_set,
    scalarization_loop,
)

# not called here, but importable as pipeline.<name> for the perfbench trace
from .reachability import reach_support  # noqa: F401
from .scenario import load_scenario  # noqa: F401

SEP_TOL = 1e-6
PAIR_CHUNK = 1 << 16  # candidate pairs _closest_pair_distance evaluates at once


def _write_json(path: Path, obj) -> None:
    # numpy arrays become lists and numpy scalars Python values
    text = json.dumps(obj, indent=2, sort_keys=True, default=lambda v: v.tolist())
    path.write_text(text + "\n")


def plane_directions(scenario: Scenario, pos_dim: int) -> np.ndarray:
    """Evenly spaced unit directions in the scenario's rendering plane."""
    n = scenario.directions
    angles = 2.0 * np.pi * np.arange(n) / n
    dirs = np.zeros((n, pos_dim))
    dirs[:, scenario.plane[0]] = np.cos(angles)
    dirs[:, scenario.plane[1]] = np.sin(angles)
    return dirs


def _write_tubes_csv(path: Path, dirs, tubes: dict) -> None:
    """One row per (aircraft, time, direction); dirs are the plane directions.
    Numbers are written as %.9g.  The columns fixed per direction and per
    time are formatted once, and each aircraft's support values by one
    %-operation on a template of its rows."""
    d3 = np.zeros((dirs.shape[0], 3))
    d3[:, :dirs.shape[1]] = dirs
    cells = ["%d,%.9g,%.9g,%.9g,%%.9g\n" % (j, *d) for j, d in enumerate(d3)]
    text = "aircraft,t_s,dir_index,dir_x,dir_y,dir_z,support_value\n"
    for aircraft, tube in tubes.items():
        heads = ["%s,%.9g," % (aircraft, t) for t in tube.times]
        rows = "".join([head + cell for head in heads for cell in cells])
        text += rows % tuple(tube.support_values.ravel().tolist())
    path.write_text(text)


def _pair_min_sq(A, B, ia, ib) -> float:
    """Smallest squared distance over the pairs (A[:, ia], B[:, ib]) of the
    columns of A and B, coordinates summed in order, as a k-d tree sums them."""
    sq = np.zeros(ia.shape[0])
    for a, b in zip(A, B):
        d = a[ia] - b[ib]
        sq += d * d
    return float(sq.min())


def _rows_min_sq(A, B, ia, lo, cnt, best: float = np.inf) -> float:
    """Smallest squared distance over the pairs (A[:, ia[r]], B[:, lo[r] + j]),
    j < cnt[r], at most PAIR_CHUNK pairs at a time."""
    ends = np.cumsum(cnt)
    total = int(ends[-1]) if ends.shape[0] else 0
    for p0 in range(0, total, PAIR_CHUNK):
        p = np.arange(p0, min(p0 + PAIR_CHUNK, total))
        r = np.searchsorted(ends, p, side="right")
        best = min(best, _pair_min_sq(A, B, ia[r], lo[r] + p - (ends[r] - cnt[r])))
    return best


def _cell_rows(a, b, sides):
    """(order of b, rows) pairing each row of a with the rows of b in the 3^k
    cells around its own, on a grid with the given side per axis or coarser."""
    origin = np.minimum(a.min(axis=0), b.min(axis=0))
    spans = np.maximum(a.max(axis=0), b.max(axis=0)) - origin
    # at most 2^20 - 4 cells per axis, so that keys fit in 60 bits and the
    # rounding of cell coordinates stays far below one cell
    sides = np.maximum(sides, spans / ((1 << 20) - 4))
    weights = (1 << 20) ** np.arange(a.shape[1], dtype=np.int64)
    key_a, key_b = ((np.floor((x - origin) / sides).astype(np.int64) + 1) @ weights
                    for x in (a, b))
    order = np.argsort(key_b)
    key_b = key_b[order]
    around = np.array(list(itertools.product((-1, 0, 1), repeat=a.shape[1]))) @ weights
    keys = (key_a[:, None] + around).ravel()
    lo = np.searchsorted(key_b, keys, side="left")
    cnt = np.searchsorted(key_b, keys, side="right") - lo
    return order, np.repeat(np.arange(a.shape[0]), around.shape[0]), lo, cnt


def _mean_frames(posA, posB):
    """(frames, gaps, slacks) of the clouds in coordinate-major stacks (T, k,
    nA) and (T, k, nB), per time t: an orthonormal frame (k, k) whose first
    row is +-u, u the unit direction between the means of the columns of
    posA[t] and posB[t]; the gap between the clouds along u less slack,
    floored at 0, which bounds every pair's distance from below
    (|<u, a - b>| <= ||a - b||); and slack, which covers the rounding of the
    frame coordinates and of a pair's distance.  Each is taken for every
    time at once, and no temporary is larger than one stack's (T, n)
    coordinates along u."""
    T, k = posA.shape[:2]
    u = posB.mean(axis=2) - posA.mean(axis=2)
    u[~u.any(axis=1)] = np.eye(k)[0]
    # first row of each frame +-u / ||u||
    frames = np.linalg.qr(np.concatenate([u[:, :, None], np.broadcast_to(np.eye(k), (T, k, k))],
                                         axis=2))[0].transpose(0, 2, 1)
    scale = np.maximum.reduce([posA.max(axis=(1, 2)), -posA.min(axis=(1, 2)),
                               posB.max(axis=(1, 2)), -posB.min(axis=(1, 2))])
    slacks = 16 * k * np.finfo(float).eps * scale

    def extent(pos):  # per time, the least and greatest coordinate along u
        along = np.matmul(frames[:, :1], pos)[:, 0]
        return along.min(axis=1), along.max(axis=1)

    (loA, hiA), (loB, hiB) = extent(posA), extent(posB)
    gaps = np.maximum.reduce([np.zeros(T), loB - hiA - slacks, loA - hiB - slacks])
    return frames, gaps, slacks


def _closest_pair_distance(A, B, mean_frame=None) -> float:
    """min ||a - b|| over the rows of A and B, exactly: the value a search
    over every pair gives, from a pruned set of candidate pairs.

    Coordinates are taken in the frame of _mean_frames, whose first axis u
    is the direction between the means.  An upper bound delta comes from
    pairing each a with its two neighbours in B's order along u.  Every pair
    closer than delta then lies in a window of width 2 delta along u (since
    |<u, a - b>| <= ||a - b||), and in neighbouring cells of a grid of side
    delta along u (Rabin 1976); across u the side shrinks to
    sqrt(delta^2 - gap^2) when the clouds are a gap apart along u.  The
    window suits small clouds far apart, the cells overlapping or wide
    ones; of the two, the pruning with fewer candidate pairs is evaluated,
    PAIR_CHUNK pairs at a time, on coordinate-major copies of A and B (no
    copy when A and B are transposed views of coordinate-major arrays).
    mean_frame is the (frame, gap, slack) of _mean_frames when the caller
    has it already.  _min_closest_pair_distance takes the minimum over many
    pairs of clouds with few of these searches.
    """
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    (nA, k), nB = A.shape, B.shape[0]
    if nA * nB <= PAIR_CHUNK:
        ia, ib = np.divmod(np.arange(nA * nB), nB)
        return float(np.sqrt(_pair_min_sq(A.T, B.T, ia, ib)))
    if mean_frame is None:
        mean_frame = [x[0] for x in _mean_frames(A.T[None], B.T[None])]
    frame, gap, slack = mean_frame
    a, b = A @ frame.T, B @ frame.T
    order = np.argsort(b[:, 0])
    b, B = np.take(b, order, axis=0), np.take(B, order, axis=0)
    pa, pb = a[:, 0], b[:, 0]
    At, Bt = np.ascontiguousarray(A.T), np.ascontiguousarray(B.T)
    rows = np.arange(nA)
    right = np.minimum(np.searchsorted(pb, pa), nB - 1)
    best = min(_pair_min_sq(At, Bt, rows, right),
               _pair_min_sq(At, Bt, rows, np.maximum(right - 1, 0)))
    if best == 0.0:
        return 0.0
    # widened past the rounding of the frame coordinates and cell indices
    reach = np.sqrt(best) * (1.0 + 1e-6) + slack
    lo = np.searchsorted(pb, pa - reach, side="left")
    cnt = np.searchsorted(pb, pa + reach, side="right") - lo
    if cnt.sum() > nA + nB and k <= 3:
        perp = np.sqrt((reach - gap) * (reach + gap)) + slack
        cell_order, cell_rows, cell_lo, cell_cnt = _cell_rows(a, b, np.r_[reach, [perp] * (k - 1)])
        if cell_cnt.sum() < cnt.sum():
            Bt, rows, lo, cnt = Bt[:, cell_order], cell_rows, cell_lo, cell_cnt
    keep = cnt > 0
    return float(np.sqrt(_rows_min_sq(At, Bt, rows[keep], lo[keep], cnt[keep], best)))


def _min_closest_pair_distance(posA, posB) -> float:
    """min over t of _closest_pair_distance(posA[t].T, posB[t].T), exactly,
    for coordinate-major stacks (T, k, nA) and (T, k, nB), from as few of
    its searches as the clouds' gaps along their means allow.

    _mean_frames takes every time's frame, gap and slack in one pass over
    the stacks.  Times are visited in ascending order of gap, and a time is
    searched, on its (n, k) views, unless its gap less its slack exceeds
    the best distance so far.  The true distance at a skipped time is then
    above best + slack, and the slack exceeds the rounding of a distance,
    so its computed distance is above best too: the minimum is the one over
    every time.
    """
    frames, gaps, slacks = _mean_frames(posA, posB)
    best = np.inf
    for t in np.argsort(gaps, kind="stable"):
        if gaps[t] - slacks[t] <= best:
            best = min(best, _closest_pair_distance(posA[t].T, posB[t].T,
                                                    (frames[t], gaps[t], slacks[t])))
    return best


def verify_monte_carlo(specA: ReachSpec, specB: ReachSpec, P, t_grid, dirs,
                       tube_vals_A, tube_vals_B, d: float, n_samples: int,
                       seed: int = 0) -> dict:
    """Sampled-trajectory falsification of the reported tubes.

    Draws n_samples extremal trajectories per aircraft, then reports the
    worst tube-halfspace violation and the minimum pairwise distance over
    the grid.  Disturbance sets are ignored during sampling (the samples
    remain admissible trajectories).  Positions stay in the sampler's
    coordinate-major (T, k, n_samples) buffers, 8 T k n_samples bytes per
    aircraft, and every time's check reads its contiguous (k, n_samples)
    slice: the tube check is one product dirs @ p per time and aircraft.
    The minimum is exact, from the exact closest-pair search run only at
    the grid times whose clouds' gap along their means does not rule them
    out (on the bundled quadrotor, one or two of 41 times).
    """
    base_A = dataclasses.replace(specA, V=None) if specA.V is not None else specA
    base_B = dataclasses.replace(specB, V=None) if specB.V is not None else specB
    posA, posB = (sample_trajectories(base, t_grid, n_samples, seed=seed + j, P=P)
                  .transpose(1, 2, 0) for j, base in enumerate((base_A, base_B)))
    worst_violation = -np.inf
    if dirs.shape[0]:
        for pos, tube_vals in ((posA, tube_vals_A), (posB, tube_vals_B)):
            for p, vals in zip(pos, tube_vals):
                # max_j fl(a_j - c) = fl(max_j a_j - c): rounding is monotone
                excess = float(((dirs @ p).max(axis=1) - vals).max())
                worst_violation = max(worst_violation, excess)
    min_pairwise = _min_closest_pair_distance(posA, posB)
    return {
        "samples_per_aircraft": n_samples,
        "seed": seed,
        "worst_halfspace_violation": worst_violation if np.isfinite(worst_violation) else None,
        "min_pairwise_distance_m": min_pairwise,
        "tube_ok": (not np.isfinite(worst_violation)) or worst_violation <= 1e-6,
        "pairwise_ok": min_pairwise >= d - 1e-3,
    }


def _count_option(overrides: dict, key: str) -> int:
    """overrides[key] as a non-negative integer; 0 when not given."""
    v = overrides.get(key)
    if v is None:
        return 0
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 0:
        raise ScenarioError(f"option '{key}' must be a non-negative integer, got {v!r}")
    return int(v)


def run(scenario_path, out_dir, overrides: dict | None = None) -> int:
    """Full two-phase pipeline; returns the process exit code."""
    overrides = dict(overrides or {})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        seed = _count_option(overrides, "seed")
        n_mc = _count_option(overrides, "verify_mc")
        scenario = scenario_from_dict(load_document(scenario_path), overrides)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 3
    _write_json(out / "scenario.json", scenario.to_dict())

    P = position_projection(scenario)
    pos_dim = P.shape[0]
    nomA = build_nominal(scenario, 0)
    nomB = build_nominal(scenario, 1)
    geom = estimate_encounter(nomA, nomB, P, scenario.d)
    center_gap = float(np.linalg.norm(P @ geom.c_A_tau - P @ nomB.state_at(geom.tau)))
    _write_json(out / "encounter.json", {
        "tau_s": geom.tau,
        "l_star": P @ geom.l_star,
        "center_distance_m": center_gap,
        "required_separation_m": scenario.d,
    })
    specA = build_spec(scenario, 0)
    specB = build_spec(scenario, 1)
    sysA, sysB = specA.system, specB.system
    if np.array_equal(sysA.A, sysB.A) and np.array_equal(sysA.B, sysB.B):
        # equal dynamics: B's sets use A's system, and with it its grids
        specB = dataclasses.replace(specB, system=sysA)
    t_grid = np.arange(0.0, scenario.horizon + 1e-9, scenario.grid_step)
    dirs = plane_directions(scenario, pos_dim)
    state_dirs = dirs @ P
    if dirs.shape[0] == 0:
        print("warning: empty direction set, tube files will have no rows", file=sys.stderr)

    # phase zero: initial tubes and the overlap report
    _write_tubes_csv(out / "tubes_initial.csv", dirs,
                     {"A": reach_tube(specA, t_grid, state_dirs),
                      "B": reach_tube(specB, t_grid, state_dirs)})
    overlap = separation(specA, specB, geom.tau, P)
    sep0 = overlap.value
    _write_json(out / "overlap.json", {
        "separation_at_tau_m": sep0,
        "direction": overlap.direction,
        "certified": overlap.certified,
        "duality_gap_m": overlap.gap,
        "required_separation_m": scenario.d,
        "overlaps": bool(sep0 < scenario.d),
    })
    print(f"encounter: tau = {geom.tau:.3f} s, center gap {center_gap:.3f} m; "
          f"initial separation {sep0:.3f} m (required {scenario.d:.3f} m)")

    # disturbances are handled as extra required separation, not in synthesis;
    # the copies keep their system, and with it its grids
    synA = dataclasses.replace(specA, V=None)
    synB = dataclasses.replace(specB, V=None)
    d_eff = scenario.d
    if specA.V is not None:
        d_eff += disturbance_contribution(specA, geom.tau, -geom.l_star)
    if specB.V is not None:
        d_eff += disturbance_contribution(specB, geom.tau, geom.l_star)
    geom_eff = EncounterGeometry(geom.tau, geom.l_star, d_eff, geom.c_A_tau)

    try:
        solB, solA, k_used, diags = scalarization_loop(
            synA, synB, geom_eff, P, method=scenario.method, k0=scenario.k0,
            shrink=scenario.shrink, margin1=scenario.margin1,
            margin2=scenario.margin2, max_iters=scenario.max_iters)
    except JointInfeasibilityError as exc:
        _write_json(out / "diagnostics.json", {
            "status": "infeasible",
            "iterations": exc.diagnostics,
        })
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    print(f"synthesis done at k = {k_used:.6g} "
          f"(phase-one distance {solB.distance:.3f} m)")

    shrunkA = dataclasses.replace(specA, U=solA.control_set())
    shrunkB = dataclasses.replace(specB, U=solB.control_set())
    safeB = safe_set(dataclasses.replace(synB, U=solB.control_set()), geom.tau, d_eff,
                     geom.l_star, P)

    sol_doc = {"method": scenario.method, "k_used": k_used,
               "margins": {"part1_m": scenario.margin1 if scenario.margin1 is not None
                           else 0.5 * d_eff, "part2_m": scenario.margin2},
               "d_effective_m": d_eff,
               "safe_set": {"center": safeB.center, "shape": safeB.shape},
               "iterations": diags, "aircraft": {}}
    for name, sol, spec in [("A", solA, specA), ("B", solB, specB)]:
        sol_doc["aircraft"][name] = {
            "q": sol.q, "Q": sol.Q, "lambda": sol.lam, "r": sol.r,
            "objective": sol.objective, "distance_m": sol.distance,
            "kkt_residual": sol.kkt_residual, "status": sol.status,
            "newton_steps": sol.newton_steps, "barrier_mu_final": sol.barrier_mu_final,
            "stage_objectives": sol.stage_objectives,
            "original_control_center": spec.U.center,
            "original_control_shape": spec.U.shape,
        }
    _write_json(out / "solution.json", sol_doc)

    tubes = {"A": reach_tube(shrunkA, t_grid, state_dirs),
             "B": reach_tube(shrunkB, t_grid, state_dirs)}
    _write_tubes_csv(out / "tubes.csv", dirs, tubes)

    sep_lines = ["t_s,separation_m," + ",".join(f"l_{c}" for c in "xyz"[:pos_dim])]
    seps = separations(shrunkA, shrunkB, t_grid, P)
    sep_row = ",".join(["%.9g"] * (2 + pos_dim))
    sep_lines += [sep_row % (t, sep.value, *sep.direction) for t, sep in zip(t_grid, seps)]
    (out / "separation.csv").write_text("\n".join(sep_lines) + "\n")
    min_sep = min(sep.value for sep in seps)
    max_gap = max(sep.gap for sep in seps)
    _write_json(out / "verification.json", {
        "min_separation_m": min_sep,
        "grid_times": len(t_grid),
        "max_duality_gap_m": max_gap,
        "uncertified_times": [t for t, sep in zip(t_grid, seps) if not sep.certified],
    })
    safe = min_sep >= scenario.d - SEP_TOL
    print(f"verification: min separation {min_sep:.4f} m over {len(t_grid)} grid times, "
          f"max duality gap {max_gap:.1e} m ({'ok' if safe else 'VIOLATION'})")

    if n_mc:
        mc = verify_monte_carlo(shrunkA, shrunkB, P, t_grid, dirs, tubes["A"].support_values,
                                tubes["B"].support_values, scenario.d, n_mc, seed=seed)
        _write_json(out / "mc.json", mc)
        print(f"monte carlo: min pairwise {mc['min_pairwise_distance_m']:.4f} m, "
              f"tube ok {mc['tube_ok']}, pairwise ok {mc['pairwise_ok']}")
        safe = safe and mc["tube_ok"] and mc["pairwise_ok"]

    if overrides.get("plots"):
        from .plots import emit_plots
        emit_plots(out)

    return 0 if safe else 2

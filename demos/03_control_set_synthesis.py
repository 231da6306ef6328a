"""Control-set synthesis: shrink two control sets until the tubes separate.

Walks the bundled quadrotor encounter through both phase-one methods, the
safe set, phase two and the scalarization sweep.

Run with:  python demos/03_control_set_synthesis.py
"""

import dataclasses

import numpy as np

from reachsep import (
    estimate_encounter,
    part1_constants,
    safe_set,
    scalarization_loop,
    separation,
    solve_matrix_norm,
    solve_scaled,
)
from reachsep.scenario import (
    build_nominal,
    build_spec,
    builtin_scenario_path,
    load_scenario,
    position_projection,
)

scen = load_scenario(builtin_scenario_path("quadrotor_pair"))
P = position_projection(scen)
nomA, nomB = build_nominal(scen, 0), build_nominal(scen, 1)
geom = estimate_encounter(nomA, nomB, P, scen.d)
print(f"encounter: tau = {geom.tau} s, avoidance direction {np.round(P @ geom.l_star, 3)}")

specA, specB = build_spec(scen, 0), build_spec(scen, 1)
consts = part1_constants(specB, geom)
print(f"phase-one constants: x0 term {consts.x0_term:.4f}, control gramian "
      f"{consts.gamma_U:.3f}, |b| = {np.linalg.norm(consts.b):.1f}")

# --- phase one, both formulations ---------------------------------------------
scaled = solve_scaled(consts, geom, specB.U, k=1.0, margin=0.5 * scen.d)
print(f"\nscaled method at k=1: r = {scaled.r:.4f}, clearance = {scaled.distance:.3f} m")
norm = solve_matrix_norm(consts, geom, specB.U, k=1.0, margin=0.5 * scen.d)
print(f"norm method at k=1: Q diag = {np.round(np.diag(norm.Q), 6)}, "
      f"clearance >= {norm.distance:.3f} m")

# --- scalarization sweep: the authority / clearance trade-off -------------------
print("\nPareto sweep (scaled method):")
for k in [0.25, 0.5, 0.75, 1.0]:
    s = solve_scaled(consts, geom, specB.U, k, margin=0.5 * scen.d)
    print(f"  k = {k:4.2f}: retained fraction r = {s.r:.4f}, clearance = {s.distance:.3f} m")

# --- safe set and phase two -----------------------------------------------------
shrunkB = dataclasses.replace(specB, U=norm.control_set())
sB = safe_set(shrunkB, geom.tau, scen.d, geom.l_star, P)
print(f"\nsafe set of B at tau: center {np.round(sB.center, 3)}, "
      f"semi-axes {np.round(np.sqrt(np.linalg.eigvalsh(sB.shape)), 3)}")

solB, solA, k_used, diags = scalarization_loop(
    specA, specB, geom, P, method=scen.method, k0=scen.k0, shrink=scen.shrink,
    margin1=scen.margin1, margin2=scen.margin2)
print(f"\nfull loop converged at k = {k_used}")
shrunkA = dataclasses.replace(specA, U=solA.control_set())
shrunkB = dataclasses.replace(specB, U=solB.control_set())
print("grid check (every 0.5 s):")
for t in np.arange(0.0, scen.horizon + 1e-9, 0.5):
    s = separation(shrunkA, shrunkB, t, P).value
    print(f"  t = {t:3.1f} s: separation = {s:6.3f} m ({'ok' if s >= scen.d else 'violation'})")

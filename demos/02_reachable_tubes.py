"""Reachable sets and tubes of linear systems, with inner/outer certificates.

Run with:  python demos/02_reachable_tubes.py
"""

import numpy as np

from reachsep import (
    Ellipsoid,
    LTISystem,
    QuadrotorParams,
    ReachSpec,
    quadrotor_linearized,
    reach_point,
    reach_support,
    reach_tube,
    separation,
)
from reachsep.montecarlo import sample_trajectories

# --- a double integrator, where everything is closed form ----------------------
sys = LTISystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
spec = ReachSpec(sys, Ellipsoid.point([0.0, 0.0]), Ellipsoid.ball([0.0], 1.0), 2.0)
val = reach_support(spec, 2.0, [1.0, 0.0])
print(f"double integrator, |u| <= 1, t = 2: max position = {val:.6f} (exact t^2/2 = 2)")
state, x0, (s_grid, u) = reach_point(spec, 2.0, [1.0, 0.0])
print(f"extremal trajectory: u(s) = {u[0, 0]:+.0f} throughout, endpoint = {np.round(state, 6)}")

# --- a quadrotor about hover ----------------------------------------------------
quad = quadrotor_linearized(QuadrotorParams(m=1.0, J=np.diag([0.005, 0.005, 0.01])))
c0 = np.zeros(10)
c0[3] = 0.2  # drifting along +x at 0.2 m/s
X0 = Ellipsoid(c0, np.diag([0.025**2] * 3 + [0.005**2] * 3 + [0.0] * 4))
U = Ellipsoid(np.zeros(3), np.diag([0.3**2, 0.0005**2, 0.0005**2]))
qspec = ReachSpec(quad, X0, U, 4.0, quad_steps=200)

print("\nquadrotor position reach along +y over time (torque-mediated growth):")
for t in [1.0, 2.0, 3.0, 4.0]:
    print(f"  t = {t:.0f} s: rho = {reach_support(qspec, t, np.eye(10)[1]):8.4f} m")

# outer polytope vs sampled trajectories: the certificate sandwich
dirs = np.zeros((16, 10))
angles = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
dirs[:, 0] = np.cos(angles)
dirs[:, 1] = np.sin(angles)
# the support values along unit directions at one time bound an outer polytope
outer = reach_tube(qspec, [4.0], dirs)


def violation(x):
    return (outer.directions @ x - outer.support_values[0]).max()


samples = sample_trajectories(qspec, np.linspace(0.0, 4.0, 41), 2000, seed=1)
worst = max(violation(x) for x in samples[:, -1, :])
print(f"\n16-face outer polytope at t = 4: worst sampled violation = {worst:.2e}")
inner = [reach_point(qspec, 4.0, l)[0] for l in dirs]
print(f"touching points (inner certificates) all satisfy the polytope: "
      f"{max(violation(x) for x in inner) <= 1e-8}")

# tube over a grid
tube = reach_tube(qspec, np.linspace(0.0, 4.0, 9), dirs[:4])
print("\ntube support values (rows = t, cols = first four directions):")
print(np.round(tube.support_values, 3))

# --- separation between two craft ----------------------------------------------
c0b = np.zeros(10)
c0b[0] = 6.0
c0b[3] = -0.2
other = ReachSpec(quad, Ellipsoid(c0b, X0.shape), U, 4.0, quad_steps=200)
P = np.eye(10)[:3]
sep = separation(qspec, other, 4.0, P)
print(f"\nsigned separation of two such craft 6 m apart, at t = 4: {sep.value:.3f} m "
      f"along {np.round(sep.direction, 3)}")

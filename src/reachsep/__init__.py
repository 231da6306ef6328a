"""Ellipsoidal reachability and control-set synthesis for aircraft separation."""

from .convex import (
    BarrierProblem,
    InfeasibleProblemError,
    InfeasibleStartError,
    SolveResult,
    solve,
)
from .distance import Separation, separation, separations
from .dynamics import (
    FixedWingParams,
    LTISystem,
    NominalTrajectory,
    QuadrotorParams,
    expm,
    fixedwing_linearized,
    quadrotor_linearized,
)
from .ellipsoid import (
    Ellipsoid,
    affine_map,
    contains,
    minkowski_sum_external,
    support,
)
from .reachability import (
    ReachSpec,
    ReachTube,
    reach_point,
    reach_support,
    reach_tube,
)
from .scenario import Scenario, ScenarioError, builtin_scenario_path, load_scenario
from .synthesis import (
    EncounterGeometry,
    JointInfeasibilityError,
    PartIConstants,
    SynthesisSolution,
    estimate_encounter,
    part1_constants,
    safe_set,
    scalarization_loop,
    solve_matrix_norm,
    solve_part2,
    solve_scaled,
)

__version__ = "0.1.0"

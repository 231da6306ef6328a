"""What the measured process runs, with numpy and reachsep imported.

Imported by ``perfbench.worker`` after its reference clock has started, so
that the import counts in the set-up time.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np

from reachsep import pipeline, plots, reachability, scenario, synthesis
from reachsep.ellipsoid import Ellipsoid

MODULES = {"pipeline": pipeline, "scenario": scenario, "synthesis": synthesis,
           "reachability": reachability, "plots": plots}


def setup(paths):
    """What a user pays before the first verdict: load, validate, build."""
    for path in paths:
        sc = pipeline.load_scenario(path)
        for i in (0, 1):
            pipeline.build_nominal(sc, i)
            pipeline.build_spec(sc, i)


def synthesize(doc):
    """One synth_sweep operation: a scenario document to a control-set pair."""
    sc = scenario.scenario_from_dict(doc)
    P = pipeline.position_projection(sc)
    nomA = pipeline.build_nominal(sc, 0)
    nomB = pipeline.build_nominal(sc, 1)
    # generated documents carry no disturbance sets, so d_eff = d
    geom = pipeline.estimate_encounter(nomA, nomB, P, sc.d)
    synA = pipeline.build_spec(sc, 0, with_disturbance=False)
    synB = pipeline.build_spec(sc, 1, with_disturbance=False)
    solB, solA, k_used, diags = pipeline.scalarization_loop(
        synA, synB, geom, P, method=sc.method, k0=sc.k0, shrink=sc.shrink,
        margin1=sc.margin1, margin2=sc.margin2, max_iters=sc.max_iters)
    return {"A": (synA, solA), "B": (synB, solB)}, k_used, len(diags)


def synth_record(out) -> dict:
    pair, k_used, rounds = out
    return {"k_used": k_used, "rounds": rounds, "aircraft": {
        name: {"U_center": spec.U.center.tolist(), "U_shape": spec.U.shape.tolist(),
               "q": sol.q.tolist(), "Q": sol.Q.tolist(), "lambda": sol.lam,
               "status": sol.status}
        for name, (spec, sol) in pair.items()}}


def sep_gap(out_dir) -> float:
    """Max over the grid of ||P x_A - P x_B|| - separation at the reported l.

    The touching points at the direction separation.csv reports bound the
    distance from above, so this is the verification's duality gap.  Call it
    with the tracing wrappers removed.
    """
    out = Path(out_dir)
    sc = scenario.scenario_from_dict(json.loads((out / "scenario.json").read_text()))
    sol = json.loads((out / "solution.json").read_text())["aircraft"]
    P = scenario.position_projection(sc)
    shrunk = []
    for i, name in enumerate("AB"):
        Q = np.array(sol[name]["Q"])
        shrunk.append(dataclasses.replace(scenario.build_spec(sc, i),
                                          U=Ellipsoid(np.array(sol[name]["q"]), Q @ Q)))
    gap = -np.inf
    for row in (out / "separation.csv").read_text().strip().splitlines()[1:]:
        vals = [float(v) for v in row.split(",")]
        t, s, l = vals[0], vals[1], np.array(vals[2:])
        _, xA = reachability.support_gradient(shrunk[0], t, -(P.T @ l))
        _, xB = reachability.support_gradient(shrunk[1], t, P.T @ l)
        gap = max(gap, float(np.linalg.norm(P @ xA - P @ xB)) - s)
    return gap

"""Correctness checks of one operation's outputs, run outside the timed region.

Each check returns a list of problems; an empty list means the operation
passed.  The tolerances are the repository's own: ``pipeline.SEP_TOL`` for
the verified separation and 1e-8 for the containment witness, as in the
acceptance tests.
"""

import json
from pathlib import Path

import numpy as np

from reachsep.ellipsoid import Ellipsoid, containment_block
from reachsep.pipeline import SEP_TOL

WITNESS_TOL = 1e-8

# the artifacts README lists for a run, by the flag that adds them
BASE_ARTIFACTS = ("encounter.json", "overlap.json", "tubes_initial.csv", "tubes.csv",
                  "separation.csv", "solution.json")
MC_ARTIFACTS = ("mc.json",)
PLOT_ARTIFACTS = ("initial_tubes.svg", "final_tubes.svg", "control_sets.svg", "separation.svg")


def witness_problems(name: str, center, shape, q, Q, lam) -> list[str]:
    """The S-procedure block of E(q, QQ') inside E(center, shape) must be PSD."""
    block = containment_block(Ellipsoid(np.asarray(center, dtype=float),
                                        np.asarray(shape, dtype=float)),
                              np.asarray(q, dtype=float), np.asarray(Q, dtype=float), lam)
    min_eig = float(np.linalg.eigvalsh(block).min())
    if min_eig < -WITNESS_TOL:
        return [f"aircraft {name}: containment witness min eigenvalue {min_eig:.3e}"]
    return []


def check_pipeline_op(out_dir, code: int, scenario_doc: dict, overrides: dict) -> list[str]:
    """Checks of one ``pipeline.run`` from its exit code and artifacts."""
    out = Path(out_dir)
    problems = [] if code == 0 else [f"exit code {code}"]
    expected = (BASE_ARTIFACTS + (MC_ARTIFACTS if overrides.get("verify_mc") else ())
                + (PLOT_ARTIFACTS if overrides.get("plots") else ()))
    missing = [name for name in expected if not (out / name).is_file()]
    if missing:
        problems.append("missing artifacts: " + ", ".join(missing))
    if (out / "separation.csv").is_file():
        rows = (out / "separation.csv").read_text().strip().splitlines()[1:]
        seps = [float(row.split(",")[1]) for row in rows]
        d = float(scenario_doc["required_separation_m"])
        if not seps or min(seps) < d - SEP_TOL:
            problems.append(f"separation.csv minimum {min(seps, default=float('nan')):.9g} m "
                            f"below d - SEP_TOL = {d - SEP_TOL:.9g} m")
    if "mc.json" in expected and (out / "mc.json").is_file():
        mc = json.loads((out / "mc.json").read_text())
        for flag in ("tube_ok", "pairwise_ok"):
            if mc.get(flag) is not True:
                problems.append(f"mc.json {flag} is {mc.get(flag)!r}")
    if (out / "solution.json").is_file():
        sol = json.loads((out / "solution.json").read_text())
        for name in ("A", "B"):
            ac = sol["aircraft"][name]
            problems += witness_problems(name, ac["original_control_center"],
                                         ac["original_control_shape"],
                                         ac["q"], ac["Q"], ac["lambda"])
    return problems


def check_synthesis_op(record: dict) -> list[str]:
    """Checks of one synthesized pair, as the measured process reported it."""
    if record.get("error"):
        return [record["error"]]
    problems = []
    for name in ("A", "B"):
        ac = record["aircraft"][name]
        problems += witness_problems(name, ac["U_center"], ac["U_shape"],
                                     ac["q"], ac["Q"], ac["lambda"])
    return problems

"""Which module attributes the traced run wraps, and the per-layer metrics.

Layers are named after the reachsep modules.  The traced process wraps the
attributes the layers call through (a function looks up its callees in its
own module's namespace, so replacing ``reachsep.pipeline.separation`` catches
every call ``pipeline.run`` makes to it).  Counts come from the values the
wrapped calls return.
"""

from collections import defaultdict

from .spans import self_times

# (module, attribute); the span name is "<module>.<attribute>"
WRAPS = (
    ("pipeline", "run"),
    ("pipeline", "load_scenario"),
    ("scenario", "scenario_from_dict"),
    ("pipeline", "build_nominal"),
    ("pipeline", "build_spec"),
    ("pipeline", "estimate_encounter"),
    ("pipeline", "separation"),
    ("pipeline", "reach_support"),
    ("pipeline", "scalarization_loop"),
    ("pipeline", "safe_set"),
    ("pipeline", "verify_monte_carlo"),
    ("pipeline", "sample_trajectories"),
    ("synthesis", "part1_constants"),
    ("synthesis", "solve_matrix_norm"),
    ("synthesis", "solve_scaled"),
    ("synthesis", "solve_part2"),
    ("synthesis", "safe_set"),
    ("synthesis", "solve"),
    ("synthesis", "feasibility_restore"),
    ("reachability", "support_gradient"),
    ("reachability", "expm"),
    ("plots", "emit_plots"),
)

# hot leaves, summed per parent span instead of recorded one by one
AGGREGATED = ("reachability.support_gradient", "reachability.expm")


def _count_solve(counters, res):
    counters["newton_steps"] += res.newton_steps
    counters["barrier_stages"] += len(res.stage_objectives)
    counters["optimal"] += res.status == "optimal"


def _count_loop(counters, out):
    diagnostics = out[3]
    counters["rounds"] += len(diagnostics)
    counters["phase2_infeasible"] += sum(
        d["outcome"].startswith("phase two infeasible") for d in diagnostics)


def _count_samples(counters, trajectories):
    counters["samples"] += trajectories.shape[0]


ON_RETURN = {
    "synthesis.solve": _count_solve,
    "pipeline.scalarization_loop": _count_loop,
    "pipeline.sample_trajectories": _count_samples,
}


def install(recorder, modules: dict) -> None:
    """Wrap every WRAPS entry; modules maps a short name to the module object."""
    for mod, attr in WRAPS:
        name = f"{mod}.{attr}"
        recorder.wrap(modules[mod], attr, name, ON_RETURN.get(name))


# name -> unit, in report order
PER_LAYER = {
    "scenario.load_s": "s",
    "scenario.build_s": "s",
    "dynamics.expm_calls": "count",
    "dynamics.expm_s": "s",
    "reachability.support_calls": "count",
    "reachability.tube_s": "s",
    "reachability.overlap_s": "s",
    "reachability.verify_s": "s",
    "reachability.verify_times": "count",
    "reachability.gradient_calls": "count",
    "reachability.gradient_s": "s",
    "reachability.gradients_per_time": "1",
    "reachability.separation_self_s": "s",
    "reachability.sep_gap_m": "m",
    "synthesis.encounter_s": "s",
    "synthesis.constants_s": "s",
    "synthesis.safe_set_s": "s",
    "synthesis.loop_s": "s",
    "synthesis.rounds": "count",
    "synthesis.phase2_infeasible_ratio": "1",
    "synthesis.part1_s": "s",
    "synthesis.part2_s": "s",
    "convex.solve_calls": "count",
    "convex.solve_s": "s",
    "convex.restore_s": "s",
    "convex.newton_steps": "count",
    "convex.steps_per_solve": "1",
    "convex.barrier_stages": "count",
    "convex.optimal_ratio": "1",
    "montecarlo.sample_s": "s",
    "montecarlo.samples": "count",
    "pipeline.mc_check_s": "s",
    "plots.emit_s": "s",
    "pipeline.self_s": "s",
    "pipeline.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, sep_gap_m: float, artifact_bytes: int,
                  overhead_s: float) -> dict:
    """Per-layer metrics of one traced pass, from its exported trace."""
    spans, aggregates, counters = trace["spans"], trace["aggregates"], trace["counters"]
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans, aggregates)

    def outermost(names):
        out = []
        for s in spans:
            if s["name"] not in names:
                continue
            p = s["parent"]
            while p is not None and by_id[p]["name"] not in names:
                p = by_id[p]["parent"]
            if p is None:
                out.append(s)
        return out

    def inclusive(*names):
        return sum(s["end"] - s["start"] for s in outermost(set(names)))

    def count(name):
        return sum(s["name"] == name for s in spans)

    def self_of(name):
        return sum(selfs[s["id"]] for s in spans if s["name"] == name)

    agg_count, agg_time = defaultdict(int), defaultdict(float)
    for a in aggregates:
        agg_count[a["name"]] += a["count"]
        agg_time[a["name"]] += a["inclusive_s"]

    # the first separation of a run, before synthesis, is the overlap report;
    # the ones after it verify the grid
    loop_start = {s["op"]: s["start"] for s in spans if s["name"] == "pipeline.scalarization_loop"}
    overlap, verify = [], []
    for s in spans:
        if s["name"] == "pipeline.separation":
            before = s["start"] < loop_start.get(s["op"], float("inf"))
            (overlap if before else verify).append(s["end"] - s["start"])

    solves = count("synthesis.solve")
    rounds = counters.get("rounds", 0)
    gradient_calls = agg_count["reachability.support_gradient"]
    m = {
        "scenario.load_s": inclusive("pipeline.load_scenario", "scenario.scenario_from_dict"),
        "scenario.build_s": inclusive("pipeline.build_nominal", "pipeline.build_spec"),
        "dynamics.expm_calls": agg_count["reachability.expm"],
        "dynamics.expm_s": agg_time["reachability.expm"],
        "reachability.support_calls": count("pipeline.reach_support"),
        "reachability.tube_s": inclusive("pipeline.reach_support"),
        "reachability.overlap_s": sum(overlap),
        "reachability.verify_s": sum(verify),
        "reachability.verify_times": len(verify),
        "reachability.gradient_calls": gradient_calls,
        "reachability.gradient_s": agg_time["reachability.support_gradient"],
        "reachability.gradients_per_time": _ratio(gradient_calls, len(overlap) + len(verify)),
        "reachability.separation_self_s": self_of("pipeline.separation"),
        "reachability.sep_gap_m": sep_gap_m,
        "synthesis.encounter_s": inclusive("pipeline.estimate_encounter"),
        "synthesis.constants_s": inclusive("synthesis.part1_constants"),
        "synthesis.safe_set_s": inclusive("pipeline.safe_set", "synthesis.safe_set"),
        "synthesis.loop_s": inclusive("pipeline.scalarization_loop"),
        "synthesis.rounds": rounds,
        "synthesis.phase2_infeasible_ratio": _ratio(counters.get("phase2_infeasible", 0), rounds),
        "synthesis.part1_s": inclusive("synthesis.solve_matrix_norm", "synthesis.solve_scaled"),
        "synthesis.part2_s": inclusive("synthesis.solve_part2"),
        "convex.solve_calls": solves,
        "convex.solve_s": inclusive("synthesis.solve"),
        "convex.restore_s": inclusive("synthesis.feasibility_restore"),
        "convex.newton_steps": counters.get("newton_steps", 0),
        "convex.steps_per_solve": _ratio(counters.get("newton_steps", 0), solves),
        "convex.barrier_stages": counters.get("barrier_stages", 0),
        "convex.optimal_ratio": _ratio(counters.get("optimal", 0), solves),
        "montecarlo.sample_s": inclusive("pipeline.sample_trajectories"),
        "montecarlo.samples": counters.get("samples", 0),
        "pipeline.mc_check_s": self_of("pipeline.verify_monte_carlo"),
        "plots.emit_s": inclusive("plots.emit_plots"),
        "pipeline.self_s": self_of("pipeline.run"),
        "pipeline.artifact_bytes": artifact_bytes,
        "trace.overhead_s": overhead_s,
    }
    assert list(m) == list(PER_LAYER)
    return m

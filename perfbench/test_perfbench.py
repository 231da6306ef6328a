"""Tests of the benchmark's own code: generator, span arithmetic, checker."""

import json

import pytest

from perfbench import checks, refclock, spans, workloads
from reachsep.pipeline import run
from reachsep.scenario import builtin_scenario_path, scenario_from_dict

FAST = {"grid_step": 0.5, "quad_steps": 64, "directions": 8}


def _bases():
    return tuple(json.loads(builtin_scenario_path(n).read_text())
                 for n in ("quadrotor_pair", "fixedwing_pair"))


def test_generator_is_deterministic_and_valid():
    quad, fixedwing = _bases()
    one = workloads.encode_documents(workloads.synth_documents(quad, fixedwing, 5))
    again = workloads.encode_documents(workloads.synth_documents(quad, fixedwing, 5))
    other = workloads.encode_documents(workloads.synth_documents(quad, fixedwing, 6))
    assert one == again
    docs, docs_other = json.loads(one), json.loads(other)
    # the seed orders one fixed set of documents, so every seed does the same work
    assert docs != docs_other
    assert sorted(map(json.dumps, docs)) == sorted(map(json.dumps, docs_other))
    perturbed = workloads.synth_documents(quad, fixedwing, 5, perturb_seed=workloads.HELDOUT_SEED)
    assert perturbed == workloads.synth_documents(quad, fixedwing, 5,
                                                  perturb_seed=workloads.HELDOUT_SEED)
    moved = sum(a != b for a, b in zip(docs, perturbed))
    assert 0 < moved <= 2 * workloads.SEEDED_PER_VEHICLE
    assert len(docs) == workloads.SYNTH_DOCS
    assert [d["vehicle"] for d in docs[:4]] == ["quadrotor", "fixedwing"] * 2
    for vehicle in ("quadrotor", "fixedwing"):
        methods = [d["part1_method"] for d in docs if d["vehicle"] == vehicle]
        assert methods.count("norm") == methods.count("scaled")
    for doc in docs + perturbed:
        sc = scenario_from_dict(doc)
        lo, hi = workloads.K0_RANGE
        assert lo <= sc.k0 <= hi
        pos = sc.aircraft[0].position
        if sc.vehicle == "quadrotor":
            assert workloads.QUAD_Y_M[0] <= pos[1] <= workloads.QUAD_Y_M[1]
            assert workloads.QUAD_Z_M[0] <= pos[2] <= workloads.QUAD_Z_M[1]
        else:
            assert workloads.FIXEDWING_ALT_M[0] <= pos[1] <= workloads.FIXEDWING_ALT_M[1]


def test_generator_leaves_base_documents_alone():
    quad, fixedwing = _bases()
    before = json.dumps([quad, fixedwing], sort_keys=True)
    workloads.synth_documents(quad, fixedwing, 1)
    assert json.dumps([quad, fixedwing], sort_keys=True) == before


def test_self_times_on_a_synthetic_tree():
    tree = [
        {"id": 0, "name": "op", "start": 0.0, "end": 10.0, "parent": None, "op": "a"},
        {"id": 1, "name": "x", "start": 1.0, "end": 4.0, "parent": 0, "op": "a"},
        {"id": 2, "name": "y", "start": 3.0, "end": 6.0, "parent": 0, "op": "a"},  # overlaps x
        {"id": 3, "name": "z", "start": 2.0, "end": 3.0, "parent": 1, "op": "a"},
        {"id": 4, "name": "w", "start": 9.0, "end": 11.0, "parent": 0, "op": "a"},  # runs past op
    ]
    aggs = [{"parent": 0, "name": "leaf", "count": 3, "inclusive_s": 1.5,
             "self_s": 1.5, "direct_s": 1.5},
            {"parent": 1, "name": "leaf", "count": 1, "inclusive_s": 0.5,
             "self_s": 0.5, "direct_s": 0.5}]
    selfs = spans.self_times(tree, aggs)
    # op: 10 - |[1,6] u [9,10]| - 1.5 = 10 - 6 - 1.5
    assert selfs[0] == pytest.approx(2.5)
    assert selfs[1] == pytest.approx(3.0 - 1.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(2.0)


def test_reference_clock_scales_each_stretch_by_the_kernel_runs_around_it():
    nominal = refclock.NOMINAL_S
    runs = [(0.0, 1.0), (3.0, 5.0), (10.0, 11.0)]  # kernel durations 1, 2, 1
    raw, norm = refclock.span_times(runs, 0.5, 12.0, window=1)
    # [1, 3] and [5, 10] sit between runs of mean 1.5; [11, 12] follows the last run
    assert raw == pytest.approx(2.0 + 5.0 + 1.0)
    assert norm == pytest.approx(nominal * (7.0 / 1.5 + 1.0 / 1.0))
    # a stretch before the first run takes that run's speed
    assert refclock.span_times(runs, -1.0, 0.5, window=1) == pytest.approx((1.0, nominal))
    # an interval inside one kernel run has no time of its own
    assert refclock.span_times(runs, 3.5, 4.5, window=1) == (0.0, 0.0)
    # a wider window averages more runs; a cold first run is left out of the speed
    assert refclock.span_times(runs, 0.5, 12.0)[1] == pytest.approx(nominal * 8.0 / (4.0 / 3.0))
    assert refclock.span_times(runs, 0.5, 12.0, cold=1)[1] == pytest.approx(nominal * 8.0 / 1.5)


def test_reference_clock_alarm_leaves_kernel_time_out():
    ref = refclock.RefClock(interval=0.02)
    ref.start()
    a = refclock.clock()
    while refclock.clock() - a < 0.15:
        sum(range(1000))
    b = refclock.clock()
    ref.stop()
    inside = [r for r in ref.runs if a < r[0] and r[1] < b]
    assert inside, "the alarm ran no kernel during the interval"
    raw, norm = ref.span(a, b)
    assert raw == pytest.approx(b - a - sum(e - s for s, e in inside))
    assert norm > 0.0


def test_recorder_self_times_sum_to_operation_time():
    rec = spans.Recorder(aggregate=("leaf",))

    def leaf(n):
        return sum(range(n))

    def inner(n):
        return rec.span("leaf", leaf, n) + rec.span("leaf", leaf, n)

    def outer(n):
        return rec.span("inner", inner, n) + rec.span("leaf", leaf, 2 * n)

    for op in ("first", "second"):
        rec.op = op
        rec.span("op", outer, 20000)
    trace = rec.export()
    assert [s["name"] for s in trace["spans"]] == ["op", "inner"] * 2
    assert sum(a["count"] for a in trace["aggregates"]) == 6
    sums = spans.op_self_sums(trace["spans"], trace["aggregates"],
                              spans.self_times(trace["spans"], trace["aggregates"]))
    assert set(sums) == {"first", "second"}
    for total, root in sums.values():
        assert total == pytest.approx(root, abs=1e-9)


def test_recorder_wrap_counts_and_uninstalls():
    class Mod:
        @staticmethod
        def f(x):
            return x + 1

    def add_output(counters, out):
        counters["sum"] += out

    rec = spans.Recorder()
    original = Mod.f
    rec.wrap(Mod, "f", "mod.f", on_return=add_output)
    assert Mod.f(1) == 2 and Mod.f(2) == 3
    assert rec.counters["sum"] == 5
    assert len(rec.spans) == 2
    rec.uninstall()
    assert Mod.f is original


def test_checker_counts_verified_unsafe_run_as_failed(tmp_path):
    quad = json.loads(builtin_scenario_path("quadrotor_pair").read_text())
    good = tmp_path / "good"
    assert run(builtin_scenario_path("quadrotor_pair"), good, FAST) == 0
    assert checks.check_pipeline_op(good, 0, quad, FAST) == []

    unsafe = dict(quad, margins={"part1_m": None, "part2_m": 0.0})
    path = tmp_path / "unsafe.json"
    path.write_text(json.dumps(unsafe))
    bad = tmp_path / "bad"
    code = run(path, bad, FAST)
    assert code == 2
    problems = checks.check_pipeline_op(bad, code, unsafe, FAST)
    assert "exit code 2" in problems
    assert any(p.startswith("separation.csv minimum") for p in problems)


def test_checker_flags_missing_artifacts_and_bad_witness(tmp_path):
    quad = json.loads(builtin_scenario_path("quadrotor_pair").read_text())
    assert checks.check_pipeline_op(tmp_path, 0, quad, {"plots": True})[0].startswith(
        "missing artifacts: encounter.json")
    # a control set twice the original's size cannot be contained in it
    record = {"aircraft": {name: {"U_center": [0.0, 0.0], "U_shape": [[1.0, 0.0], [0.0, 1.0]],
                                  "q": [0.0, 0.0], "Q": [[2.0, 0.0], [0.0, 2.0]],
                                  "lambda": 0.5, "status": "optimal"} for name in "AB"}}
    problems = checks.check_synthesis_op(record)
    assert len(problems) == 2 and "containment witness" in problems[0]
    assert checks.check_synthesis_op({"error": "JointInfeasibilityError: x"}) == [
        "JointInfeasibilityError: x"]

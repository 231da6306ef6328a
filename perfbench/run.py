"""Time-to-verdict benchmark of reachsep: measured runs and the traced run.

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Run from the repository root.  Each workload runs in fresh Python processes
started by this script, with BLAS pinned to one thread.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics; the last
line of standard output is one JSON object per the BENCHMARK.json contract.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import collections
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)  # import the benchmark as the perfbench package

from perfbench import workloads  # noqa: E402
from perfbench.layers import PER_LAYER, layer_metrics  # noqa: E402
from perfbench.refclock import COLD_RUNS, NOMINAL_S, span_times  # noqa: E402
from perfbench.spans import op_self_sums, self_times  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 5  # setups per measured run, in fresh processes; median reported
RUN_LIMIT_S = 175.0  # every worker of one workload's run ends within this
SELF_SUM_TOL_S = 1e-6

# gated metrics of the JSON line; op_p50_s, op_tail_s and fail_ratio are printed
# above it (see README.md for why they are not gated)
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes on Linux


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _commit() -> str:
    """HEAD of the checkout, read from .git without leaving the repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    import numpy
    import scipy

    return {"workload": args.workload, "seed": args.seed, "perturb_seed": args.perturb_seed,
            "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS}, "commit": _commit()}


class Workload:
    """Inputs of one workload and the worker processes that run them."""

    def __init__(self, name: str, seed: int, seconds: float, run_dir: Path,
                 perturb_seed: int | None = None):
        self.name, self.seed, self.run_dir = name, seed, run_dir
        quad, fixedwing = workloads.base_documents(ROOT)
        scen = ROOT / workloads.SCENARIO_DIR
        self.task = {"root": str(ROOT), "workload": name, "seconds": seconds,
                     "docs_file": None, "scenario": None, "overrides": None}
        if name == "synth_sweep":
            docs_file = run_dir / "docs.json"
            docs_file.write_bytes(workloads.encode_documents(
                workloads.synth_documents(quad, fixedwing, seed, perturb_seed=perturb_seed)))
            self.task.update(docs_file=str(docs_file),
                             setup_paths=[str(scen / "quadrotor_pair.json"),
                                          str(scen / "fixedwing_pair.json")])
        else:
            path, overrides = workloads.pipeline_inputs(name, ROOT, seed)
            self.doc = quad if name == "quad_pair" else fixedwing
            self.task.update(scenario=path, overrides=overrides, setup_paths=[path])
        self._n = 0
        self.deadline = clock() + RUN_LIMIT_S

    def spawn(self, setup_only=False, single_pass=False, trace=False, refclock=True) -> dict:
        """Run one worker process to its end; returns its result and setup time.

        With ``refclock`` the times are at reference speed (perfbench/refclock.py)
        and ``raw_setup_s`` holds the setup time as the wall clock read it.
        """
        self._n += 1
        tag = f"w{self._n}"
        task = dict(self.task, setup_only=setup_only, single_pass=single_pass, trace=trace,
                    refclock=refclock and not trace, ops_dir=str(self.run_dir / tag),
                    result_file=str(self.run_dir / f"{tag}.json"))
        task_file = self.run_dir / f"{tag}-task.json"
        task_file.write_text(json.dumps(task))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        start = clock()
        proc = subprocess.run([sys.executable, "-m", "perfbench.worker", str(task_file)],
                              cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, self.deadline - clock()))
        if proc.returncode != 0:
            _die(f"worker for {self.name} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(Path(task["result_file"]).read_text())
        if task["refclock"]:
            result["raw_setup_s"], result["setup_s"] = span_times(
                result["ref_runs"], start, result["ready"], cold=COLD_RUNS)
        else:
            result["raw_setup_s"] = result["setup_s"] = result["ready"] - start
        return result

    def check(self, record: dict) -> list[str]:
        from perfbench import checks

        if self.name == "synth_sweep":
            return checks.check_synthesis_op(record)
        if record.get("error"):
            return [record["error"]]
        return checks.check_pipeline_op(record["out"], record["code"], self.doc,
                                        self.task["overrides"])


def _pass_walls(ops: list[dict], key: str) -> list[float]:
    """Per pass, the sum of its operations' times under ``key``."""
    walls = collections.defaultdict(float)
    for r in ops:
        walls[r["op"].split("-")[0]] += r[key]
    return list(walls.values())


def _op_times(ops: list[dict]) -> list[float]:
    """Per item of the operation list, the median time over the passes."""
    by_item = {}
    for r in ops:
        by_item.setdefault(r["item"], []).append(r["seconds"])
    return [statistics.median(v) for _, v in sorted(by_item.items())]


def tail(times: list[float]):
    """(percentile, value): the highest percentile with ten operations above it."""
    n = len(times)
    if n < 11:
        return None
    q = 1.0 - 10.0 / n
    xs = sorted(times)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return 100.0 * q, xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measured(w: Workload) -> tuple[dict, list[dict], list[str], list[str]]:
    runs = [w.spawn(setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
    res = w.spawn()
    runs.append(res)
    times = _op_times(res["ops"])
    metrics = {"setup_s": statistics.median(r["setup_s"] for r in runs),
               "wall_s": statistics.median(res["pass_walls"]),
               "peak_rss_mb": res["peak_rss_mb"]}
    raw_wall = statistics.median(_pass_walls(res["ops"], "raw_seconds"))
    notes = [f"passes {len(res['pass_walls'])}, operations {len(res['ops'])} "
             f"({len(times)} per pass)",
             f"wall clock: setup {statistics.median(r['raw_setup_s'] for r in runs):.6g} s, "
             f"pass {raw_wall:.6g} s; reference kernel "
             f"{1e3 * statistics.median(e - s for s, e in res['ref_runs']):.4g} ms "
             f"(nominal {1e3 * NOMINAL_S:.4g} ms)",
             f"op_p50_s = {statistics.median(times):.6g} s "
             f"(median of {len(times)} per-item medians)"]
    t = tail(times)
    if t is not None:
        notes.append(f"op_tail_s = {t[1]:.6g} s (p{t[0]:.1f} of {len(times)} per-item medians)")
    if w.name == "synth_sweep":
        statuses = collections.Counter(ac["status"] for r in res["ops"]
                                       for ac in r.get("aircraft", {}).values())
        notes.append("solve statuses: "
                     + ", ".join(f"{k} {v}" for k, v in sorted(statuses.items())))
    return metrics, res["ops"], notes, []


def traced(w: Workload, meta: dict) -> tuple[dict, list[dict], list[str], list[str]]:
    plain = w.spawn(single_pass=True, refclock=False)
    res = w.spawn(single_pass=True, trace=True)
    trace = res["trace"]
    overhead = sum(res["pass_walls"]) - sum(plain["pass_walls"])
    metrics = layer_metrics(trace, res["sep_gap_m"], res["artifact_bytes"], overhead)
    sums = op_self_sums(trace["spans"], trace["aggregates"],
                        self_times(trace["spans"], trace["aggregates"]))
    worst = max(abs(s - root) for s, root in sums.values())
    problems = [] if worst <= SELF_SUM_TOL_S else [
        f"span self times miss their operation's wall time by up to {worst:.3e} s"]
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{w.name}-seed{w.seed}.json"
    trace_file.write_text(json.dumps({"meta": meta, "metrics": metrics, **trace}))
    notes = [f"operations {len(res['ops'])}, spans {len(trace['spans'])}, "
             f"self-time sum error {worst:.2e} s", f"trace written to {trace_file}"]
    return metrics, plain["ops"] + res["ops"], notes, problems


def run_one(name: str, args, meta: dict) -> None:
    run_dir = OUT_DIR / f"run-{os.getpid()}-{name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        w = Workload(name, args.seed, args.seconds, run_dir, args.perturb_seed)
        if args.trace:
            metrics, ops, notes, problems = traced(w, meta)
            units = PER_LAYER
        else:
            metrics, ops, notes, problems = measured(w)
            units = END_TO_END
        failures = [(r["op"], p) for r in ops for p in w.check(r)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failed = len({op for op, _ in failures})
    print("meta " + json.dumps(dict(meta, workload=name), sort_keys=True))
    for note in notes:
        print(f"{name}: {note}")
    for problem in problems:
        print(f"{name}: FAILED trace: {problem}")
    for op, problem in failures:
        print(f"{name}: FAILED {op}: {problem}")
    for key, unit in units.items():
        print(f"{name} {key} = {metrics[key]:.6g} {unit}")
    print(f"{name} fail_ratio = {failed / len(ops):.6g} 1 ({failed}/{len(ops)})")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of a run; passes repeat while another fits in it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb-seed", type=int, default=None,
                        help="synth_sweep: move some documents within their design cells "
                             f"(held-out inputs: {workloads.HELDOUT_SEED})")
    args = parser.parse_args(argv)
    # before numpy is imported here (metadata, checks) and in every worker
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    if not (ROOT / "src" / "reachsep" / "__init__.py").is_file():
        _die(f"no reachsep sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    meta = metadata(args)
    for name in workloads.WORKLOADS if args.workload == "all" else (args.workload,):
        run_one(name, args, meta)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The measured process: set up, then run one workload's operations.

Run as ``python -m perfbench.worker <task.json>`` from the repository root,
with ``src`` and the root on ``PYTHONPATH``; ``run.py`` writes the task and
reads back the result file the task names.  One closed-loop client: the next
operation starts when the previous one returns.  Passes over the workload's
fixed operation list repeat while another pass still fits in ``seconds``; at
least one runs.  A setup-only task stops after setup, a single-pass task
after one pass.

Untraced tasks time everything with the reference clock of
``perfbench.refclock``, started before numpy and reachsep are imported;
traced tasks use raw times only, so that no kernel run lands inside a span.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

from .refclock import WINDOW, RefClock

clock = time.perf_counter


def main(task_path: str) -> int:
    task = json.loads(Path(task_path).read_text())
    ref = RefClock() if task["refclock"] else None
    if ref is not None:
        ref.start()
    from . import ops  # here, so that importing reachsep counts in the set-up time

    src = Path(task["root"]).resolve() / "src"
    if src not in Path(ops.pipeline.__file__).resolve().parents:
        print(f"reachsep imported from {ops.pipeline.__file__}, not from {src}", file=sys.stderr)
        return 2

    recorder = None
    if task["trace"]:
        from .layers import AGGREGATED, install
        from .spans import Recorder

        recorder = Recorder(aggregate=AGGREGATED)
        install(recorder, ops.MODULES)
        recorder.op = "setup"

    ops.setup(task["setup_paths"])
    if task["workload"] == "synth_sweep":
        items = json.loads(Path(task["docs_file"]).read_text())
    else:
        items = [None]
    result = {"ready": clock()}
    if ref is not None:  # a set-up-only process has no operations to sample the speed in
        for _ in range(WINDOW if task["setup_only"] else 1):
            ref.sample()

    records, pass_walls = [], []
    if not task["setup_only"]:
        t0 = clock()
        n_pass = 0
        while True:
            wall = 0.0
            for i, doc in enumerate(items):
                op_id = f"{n_pass}-{i}"
                if task["workload"] == "synth_sweep":
                    fn, args = ops.synthesize, (doc,)
                else:
                    out_dir = str(Path(task["ops_dir"]) / op_id)
                    fn, args = ops.pipeline.run, (task["scenario"], out_dir, task["overrides"])
                if recorder is not None:
                    recorder.op = op_id
                    fn, args = recorder.span, ("op", fn) + args
                record = {"op": op_id, "item": i}
                if ref is not None:
                    ref.sample()
                start = clock()
                try:
                    out = fn(*args)
                except Exception as exc:  # a failed operation is counted, not fatal
                    end = clock()
                    record["error"] = f"{type(exc).__name__}: {exc}"
                    traceback.print_exc()
                else:
                    end = clock()
                    if task["workload"] == "synth_sweep":
                        record.update(ops.synth_record(out))
                    else:
                        record.update(code=out, out=out_dir)
                if ref is not None:
                    ref.sample()
                    record["raw_seconds"], record["seconds"] = ref.span(start, end)
                else:
                    record["raw_seconds"] = record["seconds"] = end - start
                wall += record["seconds"]
                records.append(record)
            pass_walls.append(wall)
            n_pass += 1
            elapsed = clock() - t0
            if task["single_pass"] or elapsed * (n_pass + 1) / n_pass > task["seconds"]:
                break
    if ref is not None:
        ref.stop()
        result["ref_runs"] = ref.runs
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(ops=records, pass_walls=pass_walls)

    if recorder is not None:
        recorder.uninstall()
        result["trace"] = recorder.export()
        dirs = [Path(r["out"]) for r in records if "out" in r]
        result["sep_gap_m"] = max((ops.sep_gap(d) for d in dirs
                                   if (d / "separation.csv").is_file()
                                   and (d / "solution.json").is_file()), default=0.0)
        result["artifact_bytes"] = sum(f.stat().st_size for d in dirs if d.is_dir()
                                       for f in d.iterdir() if f.is_file())
    Path(task["result_file"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

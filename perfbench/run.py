"""bundleflow benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; bundleflow is imported from ./src.
The workload's job is repeated until S seconds have passed (and at least
three times), every repetition is checked by the workload's correctness
gate and its outputs must be byte-identical to the first repetition's.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics.  Every metric is
printed by name with its unit, and the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  A run record
(machine, versions, seed, inputs, every metric) and, for traced runs, the
spans of the last traced repetition are written to perfbench/out/.
"""

from __future__ import annotations

import os

# Before numpy is imported: one BLAS thread, and bundleflow's own thread
# setting left at its default.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("BUNDLEFLOW_THREADS", None)

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SPEC = HERE.parent / "BENCHMARK.json"
IMPORT_SAMPLES = 7
MIN_STEPS = 40  # step samples a run collects at least, so that p90 has 4 beyond it
IMPORT_PROBE = ("import time\n"
                "import numpy\n"
                "t = time.process_time()\n"
                "import bundleflow.cli\n"
                "print(time.process_time() - t)\n")

UNITS = {"solve_cpu_s.p50": "s", "step_cpu_ms.p50": "ms", "node_steps_per_s": "1/s"}


def unit_of(name: str) -> str:
    """Units of the metrics BENCHMARK.json does not list."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("bytes", "bytes_computed")):
        return "bytes"
    if name.endswith(("per_rhs", "ratio")):
        return "ratio"
    return "count"


def import_seconds() -> float:
    """CPU time of `import bundleflow.cli` (numpy already loaded) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def percentile(values, pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def machine_record(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # the layout of show_config differs across numpy versions
        pass
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "BUNDLEFLOW_THREADS")}}


def run(spec: dict, workload: str, seed: int, seconds: float, traced_mode: bool) -> int:
    import workloads
    from tracer import Patcher, StepClock, Tracer

    workdir = OUT / f"{workload}-s{seed}"
    rep_dir = workdir / "rep"
    rep_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[workload](seed, str(workdir))

    imports = []
    clock = StepClock()
    base = Patcher()
    clock.install(base)
    min_reps = 4 if traced_mode else 3
    plain, traced, summaries = [], [], []
    last_tracer = None
    ref_outputs = ref_counts = None
    attempted = failed = 0
    started = perf_counter()
    try:
        while (attempted < min_reps or perf_counter() - started < seconds
               or (not traced_mode and sum(len(r.step_s) for r in plain) < MIN_STEPS
                   and perf_counter() - started < 3 * seconds)):
            # import probes spread evenly over the run, as the repetitions are
            if (not traced_mode and len(imports) < IMPORT_SAMPLES
                    and perf_counter() - started >= len(imports) * seconds / IMPORT_SAMPLES):
                imports.append(import_seconds())
            is_traced = traced_mode and attempted % 2 == 1
            attempted += 1
            fails = []
            try:
                tracer = Tracer() if is_traced else None
                patch = Patcher()
                try:
                    if tracer:
                        tracer.install(patch)
                    with contextlib.redirect_stdout(io.StringIO()):  # the CLI's progress lines
                        rep = wl.job(str(rep_dir), clock)
                finally:
                    patch.restore()
                (traced if is_traced else plain).append(rep)
                fails += wl.gate(rep, str(rep_dir))
                rep.data.clear()  # keep peak RSS independent of the repetition count
                outputs = workloads.read_outputs(str(rep_dir), wl.outputs)
                if ref_outputs is None:
                    ref_outputs = outputs
                elif outputs != ref_outputs:
                    changed = [k for k in outputs if outputs[k] != ref_outputs[k]]
                    fails.append(f"outputs differ from the first repetition: {changed}")
                if tracer:
                    summary = tracer.summary()
                    counts = {k: v for k, v in summary.items() if not k.endswith("_s")}
                    if ref_counts is None:
                        ref_counts = counts
                    elif counts != ref_counts:
                        diff = sorted(k for k in counts if counts[k] != ref_counts[k])
                        fails.append(f"exact counters differ between repetitions: {diff}")
                    summaries.append(summary)
                    last_tracer = tracer
            except Exception:
                traceback.print_exc()
                fails.append("raised")
            if fails:
                failed += 1
                print(f"repetition {attempted} FAILED: {'; '.join(fails)}", file=sys.stderr)
    finally:
        base.restore()

    if not plain or (traced_mode and not traced):
        print("no repetition completed", file=sys.stderr)
        return 1

    record = {"workload": workload, "inputs": wl.inputs(), "machine": machine_record(seed),
              "seconds": seconds, "attempted": attempted, "failed": failed,
              "fail_rate": failed / attempted}
    if traced_mode:
        # times at the 90th percentile over repetitions, as the end-to-end ones
        table = {}
        for key in summaries[0]:
            values = [s[key] for s in summaries]
            table[key] = percentile(values, 90) if key.endswith("_s") else values[0]
        plain_solve = percentile([r.solve_s for r in plain], 90)
        traced_solve = percentile([r.solve_s for r in traced], 90)
        table["trace_overhead_pct"] = 100.0 * (traced_solve / plain_solve - 1.0)
        report = {m["name"]: table[m["name"]] for m in spec["per_layer"]}
        record["per_layer"] = table
        record["untraced_solve_s"] = plain_solve
        record["traced_solve_s"] = traced_solve
        with open(workdir / "spans.json", "w", encoding="utf-8") as handle:
            json.dump(last_tracer.spans(), handle)
    else:
        steps = [s for r in plain for s in r.step_s]
        solves = [r.solve_s for r in plain]
        report = {
            "setup_s": percentile(imports, 90) + percentile([r.prep_s for r in plain], 90),
            "solve_cpu_s.max": max(solves),
            "step_cpu_ms.tail": 1e3 * percentile(steps, wl.tail_pct),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["end_to_end"] = dict(report)
        record["import_s"] = imports
        record["prep_s"] = [r.prep_s for r in plain]
        record["solve_s"] = solves
        record["step_s"] = steps
        record["step_tail_pct"] = wl.tail_pct
        extra = {"solve_cpu_s.p50": statistics.median(solves),
                 "step_cpu_ms.p50": 1e3 * percentile(steps, 50)}
        if plain[0].nodes:
            extra["node_steps_per_s"] = plain[0].nodes * len(plain[0].step_s) / extra["solve_cpu_s.p50"]
        record["unbounded"] = extra
        beyond = len(steps) * (100 - wl.tail_pct) / 100.0
        print(f"step_cpu_ms.tail is p{wl.tail_pct} of {len(steps)} steps ({beyond:.0f} beyond it); "
              f"solve_cpu_s.max is over {len(solves)} repetitions")
    with open(workdir / ("record_trace.json" if traced_mode else "record.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    m = record["machine"]
    print(f"{workload} seed={seed} attempted={attempted} failed={failed} "
          f"fail_rate={failed / attempted:g}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} blas={m['blas']!r}")
    shown = record["per_layer"] if traced_mode else {**report, **record["unbounded"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer" if traced_mode else "end_to_end"]}
    if set(report) != set(units):
        raise RuntimeError(f"metrics {sorted(report)} do not match BENCHMARK.json")
    for key, value in shown.items():
        print(f"  {key:48s} {value:>16.6g} {units.get(key) or unit_of(key)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in report.items()}}))
    return 0


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bundleflow" / "__init__.py").is_file():
        print(f"bundleflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(spec, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

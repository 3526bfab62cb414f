"""blockfuse benchmark runner.

    python3 bench/run.py --workload {compile,infer,train} --seed N --seconds S --trace {0,1}

Runs one workload in this single process as a closed loop with one client:
each operation starts when the previous one has finished. Inputs come from
the seed; set-up is repeated and timed on its own; then whole passes over
the workload's operation list run as long as they fit in S seconds (at
least one). Outputs are checked after the timed region and every
failed operation or check counts in `failed`.

With --trace 1 every other pass runs with spans recorded around calls into
blockfuse (see probes.py), the per-layer metrics come from those passes, and
the untraced passes between them give the tracing overhead.

A table, the run environment and a details file under .bench_out/ come
first; the last line of standard output is the result as one JSON object.
Metric names and units are read from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
SETUP_BUDGET_S = 5.0  # stop repeating set-up once it has taken this long in total


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("compile", "infer", "train"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def high_percentile(samples):
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0):
        if len(samples) * (1 - p / 100) >= 10:
            ordered = sorted(samples)
            return p, ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]
    return None


def environment(args, nproc, counts):
    import numpy as np

    commit = None  # a checkout without .git is identified by src_sha256 alone
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "blockfuse").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {"commit": commit, "src_sha256": src.hexdigest(), "nproc": nproc,
            "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
            "numpy": np.__version__, "blas": blas, "python": platform.python_version(),
            "machine": platform.machine(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "samples": counts}


def run(args, nproc, spec):
    from probes import layer_metrics, targets
    from tracer import Tracer, installed
    from workloads import WORKLOADS

    clock = time.perf_counter
    tracer = Tracer(clock) if args.trace else None
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, workdir)
    probes = targets(wl.roles)

    def tracing(on):
        return installed(tracer, probes) if on else nullcontext()

    try:
        setup_s = []
        while len(setup_s) < SETUP_REPEATS and sum(setup_s) < SETUP_BUDGET_S:
            wl.roles.clear()
            with tracing(tracer is not None):
                span = tracer.open("bench.setup") if tracer else None
                t0 = clock()
                wl.setup()
                setup_s.append(clock() - t0)
                if span is not None:
                    tracer.close(span)

        op_s, pass_s, traced_pass_s = {}, [], []
        failures, attempted, timed, wall, i = [], 0, 0.0, 0.0, 0
        # whole passes while the next one (estimated by the last) still ends
        # within the budget; at least one, and in a traced run one of each kind
        while i == 0 or timed + wall <= args.seconds or (tracer is not None and i < 2):
            traced = tracer is not None and i % 2 == 0
            results = {}
            with tracing(traced):
                pass_span = tracer.open("bench.pass") if traced else None
                t_pass = clock()
                for label, call in wl.ops(i):
                    attempted += 1
                    span = tracer.open("bench.op", {"label": label}) if traced else None
                    t0 = clock()
                    try:
                        results[label] = call()
                    except Exception as exc:  # a failed operation is counted, not fatal
                        failures.append((i, label, f"{type(exc).__name__}: {exc}"))
                    dt = clock() - t0
                    if traced:
                        tracer.close(span)
                    else:
                        op_s.setdefault(label, []).append(dt)
                wall = clock() - t_pass
                if traced:
                    tracer.close(pass_span)
            (traced_pass_s if traced else pass_s).append(wall)
            timed += wall
            try:
                failures += wl.record(i, results)
            except Exception as exc:
                failures.append((i, "record", f"{type(exc).__name__}: {exc}"))
            i += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        try:
            failures += wl.check()
        except Exception as exc:
            failures.append((0, "check", f"{type(exc).__name__}: {exc}"))
        mmac = wl.mmac()
        op_median = {label: statistics.median(v) for label, v in op_s.items()}
        summary = wl.summary(op_median)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = min(attempted, len({(p, label) for p, label, _ in failures}))
    # a pass's time as the sum of each operation's median, steadier than the
    # median of whole passes when a run holds only a few passes
    end_to_end = {"setup_s": statistics.median(setup_s), "pass_s": sum(op_median.values()),
                  "peak_rss_mb": peak_rss_mb, "mmac": mmac}
    per_layer = layer_metrics(tracer, pass_s) if tracer else {}
    wanted = spec["per_layer"] if tracer else spec["end_to_end"]
    values = per_layer if tracer else end_to_end
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}

    counts = {"setups": len(setup_s), "passes": len(pass_s),
              "traced_passes": len(traced_pass_s), "ops": attempted,
              "per_op": {label: len(v) for label, v in op_s.items()}}
    env = environment(args, nproc, counts)
    summary["error_rate"] = (failed / attempted, "")

    print(f"blockfuse bench: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {len(pass_s)} timed passes, {attempted} ops")
    rows = [(m["name"], end_to_end[m["name"]], m["unit"]) for m in spec["end_to_end"]]
    for name, value, unit in rows + [(k, v, u) for k, (v, u) in summary.items()]:
        print(f"  {name:<18} {value:14.6g} {unit}")
    for label, samples in op_s.items():
        tail = high_percentile(samples)
        extra = f"  p{tail[0]:g} {tail[1]:.6g} s" if tail else ""
        print(f"  op {label:<15} median {op_median[label]:.6g} s of {len(samples)}{extra}")
    if tracer:
        for m in spec["per_layer"]:
            print(f"  {m['name']:<48} {per_layer.get(m['name'], 0.0):12.6g} {m['unit']}")
    for p, label, message in failures:
        print(f"  FAILED pass {p} {label}: {message}")
    print("env " + json.dumps(env))

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "end_to_end": end_to_end, "per_layer": per_layer,
                   "summary": {k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
                   "op_s": op_s, "setup_s": setup_s, "pass_s": pass_s,
                   "traced_pass_s": traced_pass_s,
                   "failures": [list(f) for f in failures]}, fh, indent=1)
    if tracer:
        tracer.dump(stem.with_suffix(".spans.jsonl"))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = str(nproc)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "blockfuse" / "__init__.py").is_file() or not spec_path.is_file():
        print(json.dumps({"error": "run from a blockfuse checkout: src/blockfuse and "
                                   "BENCHMARK.json are required"}), file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args, nproc, spec)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

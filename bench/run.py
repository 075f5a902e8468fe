"""bitquant benchmark.

    python3 bench/run.py --workload fit-long [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (fit-long, gemm-pipeline or matrix-io) as a closed loop,
one pass after the next, for ``--seconds`` seconds, and checks every pass's
outputs against plain-numpy references.  It prints an environment record,
one ``metric`` line per metric with its unit, and as the last line a JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs every case untraced and
then traced, and reports the per-layer metrics derived from spans plus the
tracing overhead.  Results and spans are also written under ``bench/out/``.

The library is imported from ``src/`` beside this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Seed used while writing the benchmark, and a second seed held out from it,
# for re-checking a claim on inputs it was not tuned on.
DEFAULT_SEED = 0
HELD_OUT_SEED = 104729

# BLAS (and any OpenMP pool) runs single-threaded: the packed kernels are
# single-threaded numpy, so the float baseline runs on one core as well, and
# one thread keeps the timings steady on a shared machine.
THREAD_CAP = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Set-up runs this many times per run, once before the first pass and the
# rest spread evenly over the run; setup_s is the median.  The machine's
# speed drifts in stretches of seconds to minutes, and set-ups made back to
# back would all land in one stretch.
SETUP_REPS = 5

# Percentile of the pass times reported as pass_p10_s.  Contention on a
# shared core only ever adds time, and a run's fastest passes are the ones
# least touched by it, so a low percentile varies less from run to run than
# the median (README, "Steadiness").
FAST_PERCENTILE = 10

# (name, unit, better) of the end-to-end metrics reported on every workload.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("pass_p10_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit-long", "gemm-pipeline", "matrix-io"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
                             "for re-checking a claim)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shapes for the smoke test")
    return parser.parse_args(argv)


def environment(np) -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": THREAD_CAP,
        "process_threads": threads,
        "cpu": cpu,
    }


def measure(workload, lib, tracer, seconds, case, gates, set_up, setup_times):
    """Closed loop of timed passes, tallying gates into ``gates``.  Traced,
    each case runs untraced and then traced.  Between passes, ``set_up``
    runs until ``setup_times`` holds SETUP_REPS times, spread evenly over
    the run.  Returns the untraced and (untraced, traced) pass times of
    each traced case, and the dot latencies."""
    untraced, pairs, latency_ns = [], [], []
    begin = time.perf_counter()
    deadline = begin + seconds
    case_id = 0
    while True:
        try:
            start = time.perf_counter()
            out = workload.run(lib["plain"], case)
            untraced.append(time.perf_counter() - start)
            gates.add(workload.check(case, out))
            latency_ns.extend(out.get("latency_ns", ()))
            if tracer is not None:
                tracer.pass_id = case_id
                root = tracer.begin("bench.pass")
                out = workload.run(lib["traced"], case)
                tracer.end(root)
                span = tracer.spans[root]
                pairs.append((untraced[-1], (span[2] - span[1]) * 1e-9))
                gates.add(workload.check(case, out))
        except Exception:  # noqa: BLE001 - a pass that raises is a failed operation
            traceback.print_exc()
            gates.gate(False, f"pass {case_id} raised")
        case_id += 1
        out = None
        now = time.perf_counter()
        if len(setup_times) < SETUP_REPS and now >= begin + seconds * len(setup_times) / SETUP_REPS:
            setup_times.append(set_up()[1])
        if now >= deadline:
            break
        if workload.fresh_inputs:
            case = None  # free the last case before building the next
            case = workload.prepare(lib["plain"], case_id)
    while len(setup_times) < SETUP_REPS:
        setup_times.append(set_up()[1])
    return untraced, pairs, latency_ns


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in _THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    if not (SRC / "bitquant" / "__init__.py").is_file():
        print(f"bench: no bitquant sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy as np
    import bitquant as bq
    import_s = time.perf_counter() - start
    if Path(bq.__file__).resolve().parent != SRC / "bitquant":
        print(f"bench: imported bitquant from {bq.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import spans
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        kind = workloads.WORKLOADS[args.workload]
        workload = kind(bq, args.seed, args.size, workdir)
        warm = kind(bq, args.seed, "tiny", workdir)
        tracer = spans.Tracer(args.workload) if args.trace else None
        lib = {"plain": spans.library(bq)}
        if tracer is not None:
            lib["traced"] = spans.library(bq, tracer)
        setup_lib = lib["traced"] if tracer is not None else lib["plain"]

        def set_up():
            """Synthesize the first case and its references, then run a
            warm-up pass at tiny sizes.  Returns the case and the time taken."""
            if tracer is not None:
                tracer.pass_id = "setup"
            start = time.perf_counter()
            case = workload.prepare(setup_lib, 0)
            warm.run(lib["plain"], warm.prepare(lib["plain"], 0))
            return case, time.perf_counter() - start

        case, first = set_up()
        setup_times = [first]
        gates = workloads.Gates()
        untraced, pairs, latency_ns = measure(
            workload, lib, tracer, args.seconds, case, gates, set_up, setup_times)
        setup_s = import_s + statistics.median(setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not untraced or (tracer is not None and not pairs):
        print("bench: no pass completed", file=sys.stderr)
        return 1

    pass_s = statistics.median(untraced)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = environment(np)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "pass_s": {"value": pass_s, "unit": "s", "samples": len(untraced)},
        "pass_p10_s": {"value": float(np.percentile(untraced, FAST_PERCENTILE)), "unit": "s",
                       "samples": len(untraced)},
        "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
    }
    work = workload.work()
    if "fit_elems" in work:
        metrics["fit_elems_per_s"] = {"value": work["fit_elems"] / pass_s, "unit": "elem/s"}
    if "macs" in work:
        metrics["gemm_macs_per_s"] = {"value": work["macs"] / pass_s, "unit": "MAC/s"}
    if latency_ns:
        lat_us = np.asarray(latency_ns) * 1e-3
        metrics["dot_us_p50"] = {"value": float(np.percentile(lat_us, 50)), "unit": "us",
                                 "samples": int(lat_us.size)}
        metrics["dot_us_p99"] = {"value": float(np.percentile(lat_us, 99)), "unit": "us",
                                 "samples": int(lat_us.size)}
    metrics["failed_frac"] = {"value": gates.failed / max(gates.attempted, 1), "unit": "ratio"}

    print("env " + " ".join(f"{k}={json.dumps(v)}" for k, v in env.items()))
    print(f"workload {args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"setup_reps={SETUP_REPS} passes={len(untraced)}")
    for note in sorted(set(gates.notes)):
        print(f"gate failed: {note}")
    layer = {}
    if tracer is not None:
        layer = spans.layer_metrics(tracer, SETUP_REPS, pairs)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
        print(f"trace traced_pass_s={statistics.median(t for _, t in pairs)!r} "
              f"untraced_pass_s={statistics.median(u for u, _ in pairs)!r} "
              f"spans={len(tracer.spans)}")
    for name, m in {**metrics, **layer}.items():
        samples = f" (samples={m['samples']})" if "samples" in m else ""
        print(f"metric {name} {m['value']!r} {m['unit']}{samples}")

    reported = layer if tracer is not None else {n: metrics[n] for n, _, _ in END_TO_END}
    result = {
        "correct": gates.wrong == 0,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in reported.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "env": env, "setup_times_s": setup_times,
              "pass_times_s": untraced, "traced_pairs_s": pairs,
              "metrics": {**metrics, **layer}, "gate_notes": sorted(set(gates.notes)),
              "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

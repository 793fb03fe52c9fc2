"""Benchmark of the ect-shape CLI: one workload, or all three, end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload traces-256 --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 1

Each workload runs in a fresh child process (perfbench/workload.py), one at
a time, with BLAS/OpenMP pinned to one thread.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import REFERENCE_S  # noqa: E402
from tracer import LAYER_METRICS, summarize  # noqa: E402
from workload import DEFAULT_SEEDS, WORKLOADS  # noqa: E402

# Call timings: metric -> (unit, workload step, reported per record).  The
# value is the median over the run's batches of the time per call, scaled to
# the reference speed of calibrate.py: on a shared machine the same call
# slowed by up to a third for minutes at a time, and the reference kernel
# timed next to it slowed with it.
CALL_METRICS = {
    "synth_records_per_s": ("records/s", "synth", True),
    "extract_records_per_s": ("records/s", "extract", True),
    "classify_records_per_s": ("records/s", "classify", True),
    "evaluate_nb_s": ("s", "evaluate_nb", False),
    "evaluate_tree_s": ("s", "evaluate_tree", False),
    "evaluate_mlp_s": ("s", "evaluate_mlp", False),
    "train_mlp_s": ("s", "train_mlp", False),
}
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_SAMPLES = 9
TIME_LIMIT_S = 175.0
# Times the import, then the reference kernel in the same fresh process;
# argv[1] is the perfbench directory.
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import ectshape.cli; "
    "d = time.perf_counter() - t; import sys; sys.path.insert(0, sys.argv[1]); "
    "import calibrate; print(d, calibrate.kernel_seconds())"
)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.path.abspath("src"), **THREAD_PINS)


def measure_setup(deadline: float) -> tuple[list[float], list[float]]:
    """Seconds for a fresh interpreter to import ectshape.cli: (raw, scaled).

    One untimed import first writes the bytecode cache, as the first use of
    a checkout does.  Each import time is also scaled to the reference speed
    by the kernel timed in the same process.
    """
    raw, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER, HERE], env=child_env(),
            capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()), check=True,
        )
        if i:
            seconds, kernel = map(float, done.stdout.split())
            raw.append(seconds)
            scaled.append(seconds * REFERENCE_S / kernel)
    return raw, scaled


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def run_workload(workload: str, args, deadline: float) -> dict:
    seed = DEFAULT_SEEDS[workload] if args.seed is None else args.seed
    argv = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    setup = ([], []) if args.trace else measure_setup(deadline)
    done = subprocess.run(argv, env=child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: workload process exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["setup"] = setup
    return result


def end_to_end(result: dict) -> dict[str, tuple[str, float, dict]]:
    """metric -> (unit, value, summary of its uncalibrated samples)."""
    raw_setup, scaled_setup = result["setup"]
    rss = result["peak_rss_mb"]
    metrics = {
        "setup_s": ("s", statistics.median(scaled_setup), summarize(raw_setup)),
        "peak_rss_mb": ("MB", rss, summarize([rss])),
    }
    for name, (unit, step, per_record) in CALL_METRICS.items():
        summary = summarize(result["times"][step])
        value = statistics.median(result["scaled"][step])
        if per_record:  # rate = records / time, so the slow tail stays the tail
            value = result["records"] / value
            summary["median"] = result["records"] / summary["median"]
            if summary["pct"] is not None:
                summary["pct_value"] = result["records"] / summary["pct_value"]
        metrics[name] = (unit, value, summary)
    return metrics


def per_layer(result: dict) -> dict[str, tuple[str, float, dict]]:
    """metric -> (unit, median, summary) for every layer that was seen."""
    out = {}
    for name, unit in LAYER_METRICS.items():
        if name in result["samples"]:
            summary = summarize(result["samples"][name])
            out[name] = (unit, summary["median"], summary)
    return out


def report(result: dict, metrics: dict) -> None:
    """Human-readable lines for one workload; the JSON line comes after."""
    failed = len(result["failures"])
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}:"
          f" {result['rounds']} rounds, {result['records']} records per round,"
          f" {result['attempted']} calls, {failed} failed")
    print(f"   {'metric':<40} {'value':>12} {'raw med':>12} {'pct':>6} {'raw pct':>12}"
          f" {'n':>5}  unit")
    for name, (unit, value, s) in metrics.items():
        pct = f"p{s['pct']:g}" if s["pct"] is not None else "-"
        at = f"{s['pct_value']:.6g}" if s["pct"] is not None else "-"
        print(f"   {name:<40} {value:>12.6g} {s['median']:>12.6g} {pct:>6} {at:>12}"
              f" {s['n']:>5}  {unit}")
    print(f"   {'error_rate':<40} {failed / result['attempted']:>12.6g} {'-':>12} {'-':>6}"
          f" {'-':>12} {result['attempted']:>5}  ratio")
    for failure in result["failures"][:10]:
        print(f"   FAILED {failure}")
    for name, digest in sorted(result["digests"].items()):
        print(f"   sha256 {digest}  {name}")
    if result["trace"]:
        print(f"   absent layer metrics: {', '.join(result['absent']) or 'none'}")
        print(f"   skipped records by error class: {result['skipped_by_class'] or 'none'}")
        shares = ", ".join(f"{k} {v:.1%}" for k, v in
                           list(result["extract_self_shares"].items())[:6])
        print(f"   extract self time by layer: {shares}")
        mlp = result["evaluate_mlp"]
        print(f"   evaluate mlp: {mlp['evaluate_ms']:.1f} ms per call, mlp fits"
              f" {mlp['fits_share']:.1%} of it")
        print(f"   geometry spans inside evaluate/train calls:"
              f" {result['geometry_spans_in_classifier_calls']}")
        print(f"   spans written to {result['spans_file']}")
    print(f"   environment {json.dumps(result['environment'], sort_keys=True)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: 7 for the traces workloads, 42 for crossval)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(workloads)
    if not os.path.isfile(os.path.join("src", "ectshape", "cli.py")):
        print("error: run from the root of an ectshape checkout (no src/ectshape)",
              file=sys.stderr)
        return 2
    commit = git_commit()
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            result = run_workload(workload, args, deadline)
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        result["environment"]["git_commit"] = commit
        metrics = per_layer(result) if args.trace else end_to_end(result)
        report(result, metrics)
        failed = len(result["failures"])
        out["correct"] = out["correct"] and failed == 0
        out["attempted"] += result["attempted"]
        out["failed"] += failed
        prefix = f"{workload}:" if len(workloads) > 1 else ""
        for name, (unit, value, _) in metrics.items():
            out["metrics"][prefix + name] = {"value": value, "unit": unit}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload in this process and print its result as JSON.

Started by run.py in a fresh interpreter, with ``src`` on PYTHONPATH and the
BLAS/OpenMP thread pools pinned to one thread.  Every ``ect-shape`` call goes
through ``ectshape.cli.main(argv)`` in a closed loop: the next call starts
when the previous one has returned.  One round is the whole pipeline,

    synth -> extract -> evaluate nb -> evaluate tree -> evaluate mlp
          -> train mlp -> classify

on the workload's committed spec, and rounds repeat until the time is up,
after one warm-up round whose timings are dropped.  Each step is a batch of
calls at least BATCH_S long, with the reference kernel of calibrate.py timed
between batches.  With ``--trace 1`` rounds
alternate between untraced and traced; per-layer numbers come from the
traced ones and their ratio is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time

import calibrate
import tracer as tracing

SPEC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "specs")
WORK_ROOT = ".perfbench-work"
# The lowest epoch count at which the 12-class crossval grid clears the mlp
# floor with margin (macro accuracy ~0.99 at 30, ~0.94 at 20).  The cost of
# one SGD step does not depend on it.
MLP_EPOCHS = 30
K_FOLDS = 10
BATCH_S = 0.25
# Macro-accuracy floors of test_criterion_4; classify is held to the mlp one.
FLOORS = {"nb": 0.90, "tree": 0.95, "mlp": 0.95}
KINDS = ("nb", "tree", "mlp")
WORKLOADS = ("traces-256", "traces-short", "crossval")
# the seeds of the ROADMAP baseline and of test_criterion_4
DEFAULT_SEEDS = {"traces-256": 7, "traces-short": 7, "crossval": 42}


class Run:
    """Samples, checks and artifact digests of one workload run."""

    def __init__(self, workload: str, seed: int, work: str) -> None:
        self.spec = os.path.relpath(os.path.join(SPEC_DIR, f"{workload}.json"))
        self.seed = seed
        self.work = work
        self.raw = os.path.join(work, "raw")
        self.n_records = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.times: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self.digests: dict[str, str] = {}

    def steps(self) -> list[tuple[str, list[str]]]:
        """(step name, argv) for one round, in pipeline order."""
        features = os.path.join(self.work, "features.csv")
        eval_dir = os.path.join(self.work, "eval")
        model = os.path.join(self.work, "model.txt")
        manifest = os.path.join(self.raw, "manifest.csv")
        mlp = ["--mlp-epochs", str(MLP_EPOCHS)]
        steps = [
            ("synth", ["synth", "--spec", self.spec, "--out-dir", self.raw,
                       "--seed", str(self.seed)]),
            ("extract", ["extract", "--manifest", manifest, "--out", features]),
        ]
        for kind in KINDS:
            steps.append((f"evaluate_{kind}", [
                "evaluate", "--features-csv", features, "--classifier", kind,
                "--k", str(K_FOLDS), "--out-dir", eval_dir] + mlp))
        steps.append(("train_mlp", ["train", "--features-csv", features,
                                    "--classifier", "mlp", "--model-out", model] + mlp))
        steps.append(("classify", ["classify", "--model", model, "--manifest",
                                   manifest, "--out", os.path.join(self.work, "predictions.csv")]))
        return steps

    def call(self, step: str, argv: list[str], tracer=None) -> float:
        """One ``ect-shape`` call, timed, then checked outside the timing."""
        from ectshape import cli

        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        if tracer is not None:
            tracer.op += 1
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # counted as a failed call, not a crash
                code = repr(exc)
            elapsed = time.perf_counter() - start
        problem = None
        if code != 0:
            problem = f"exit {code}: {err.getvalue().strip()[:300]}"
        else:
            try:
                problem = self.check(step, err.getvalue())
            except (OSError, ValueError, IndexError, StopIteration) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem:
            self.failures.append(f"{step}: {problem}")
        return elapsed

    def check(self, step: str, stderr: str) -> str | None:
        if "warning: skipping" in stderr:
            return f"records skipped: {stderr.count('warning: skipping')}"
        if step == "synth":
            manifest = os.path.join(self.raw, "manifest.csv")
            entries = _data_lines(manifest)
            self.n_records = len(entries)
            paths = [manifest] + [os.path.join(self.raw, e.split(",")[0]) for e in entries]
            return self.same_digest("records", paths)
        if step == "extract":
            path = os.path.join(self.work, "features.csv")
            rows = len(_data_lines(path)) - 1  # minus the column header
            if rows != self.n_records:
                return f"{rows} feature rows for {self.n_records} records"
            return self.same_digest("features.csv", [path])
        if step.startswith("evaluate_"):
            kind = step[len("evaluate_"):]
            metrics = os.path.join(self.work, "eval", f"metrics_{kind}.csv")
            report = os.path.join(self.work, "eval", f"report_{kind}.txt")
            macro = next(l for l in _data_lines(metrics) if l.startswith(f"{kind},-1,-1,"))
            accuracy = float(macro.split(",")[3])
            if accuracy < FLOORS[kind]:
                return f"macro accuracy {accuracy:.4f} below floor {FLOORS[kind]}"
            return self.same_digest(f"metrics_{kind}.csv", [metrics]) or self.same_digest(
                f"report_{kind}.txt", [report])
        if step == "train_mlp":
            return self.same_digest("model.txt", [os.path.join(self.work, "model.txt")])
        if step == "classify":
            path = os.path.join(self.work, "predictions.csv")
            truth = {}
            for entry in _data_lines(os.path.join(self.raw, "manifest.csv")):
                rel, label = entry.split(",")
                truth[os.path.splitext(os.path.basename(rel))[0]] = label
            predicted = [l.split(",")[:2] for l in _data_lines(path)[1:]]
            if len(predicted) != len(truth):
                return f"{len(predicted)} predictions for {len(truth)} records"
            wrong = sum(truth.get(rid) != label for rid, label in predicted)
            # macro one-vs-rest accuracy, as the floors are defined: each
            # wrong label is one false negative and one false positive
            accuracy = 1.0 - 2.0 * wrong / (len(truth) * len(set(truth.values())))
            if accuracy < FLOORS["mlp"]:
                return f"classify macro accuracy {accuracy:.4f} ({wrong} wrong)"
            return self.same_digest("predictions.csv", [path])
        return None

    def same_digest(self, name: str, paths: list[str]) -> str | None:
        """sha256 of comparable_artifact over ``paths``; must repeat within a run."""
        from ectshape.artifacts import comparable_artifact

        digest = hashlib.sha256()
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                digest.update(comparable_artifact(handle.read()).encode())
        value = digest.hexdigest()
        first = self.digests.setdefault(name, value)
        return None if value == first else f"{name} digest changed within the run"

    def round(self, tracer=None) -> float:
        """Every step once, as a batch of calls; returns the time spent in calls.

        A batch repeats its call until BATCH_S have passed, so cheap
        subcommands get as many samples as expensive ones.  The reference
        kernel is timed between batches, and each batch's time per call is
        also kept scaled by the mean of the kernel times either side of it.
        """
        total = 0.0
        before = calibrate.kernel_seconds()
        for step, argv in self.steps():
            spent, calls = 0.0, 0
            while spent < BATCH_S:
                spent += self.call(step, argv, tracer)
                calls += 1
            after = calibrate.kernel_seconds()
            per_call = spent / calls
            self.times.setdefault(step, []).append(per_call)
            self.scaled.setdefault(step, []).append(
                per_call * 2.0 * calibrate.REFERENCE_S / (before + after))
            before = after
            total += spent
        return total


def _data_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        return [l for l in handle.read().splitlines() if l.strip() and not l.startswith("#")]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:  # the SIMD features np.show_runtime() prints
        from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

        simd = {
            "baseline": list(__cpu_baseline__),
            "found": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)],
            "not_found": [f for f in __cpu_dispatch__ if not __cpu_features__.get(f)],
        }
    except ImportError:
        simd = "unavailable"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "simd_extensions": simd,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    import ectshape

    src = os.path.abspath("src")
    if not os.path.abspath(ectshape.__file__).startswith(src + os.sep):
        print(f"ectshape imported from {ectshape.__file__}, not {src}", file=sys.stderr)
        return 2
    work = os.path.join(WORK_ROOT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = Run(args.workload, args.seed, work)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    round_s: dict[bool, list[float]] = {False: [], True: []}
    tracer = tracing.Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    run.round()  # warm-up: checked like any round, but its timings are dropped
    run.times.clear()
    run.scaled.clear()
    while True:
        if tracer is not None and len(round_s[True]) < len(round_s[False]):
            tracer.install()
            try:
                round_s[True].append(run.round(tracer))
            finally:
                tracer.restore()
        else:
            round_s[False].append(run.round())
        if time.perf_counter() >= deadline and (tracer is None or round_s[True]):
            break

    result["rounds"] = len(round_s[False]) + len(round_s[True])
    result["records"] = run.n_records
    result["attempted"] = run.attempted
    result["failures"] = run.failures
    result["digests"] = run.digests
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment()
    if tracer is None:
        result["times"] = run.times
        result["scaled"] = run.scaled
    else:
        samples = tracing.layer_samples(tracer)
        skipped = tracing.skipped_by_class(tracer)
        samples["cli.records_skipped"] = [sum(skipped.values()) / len(round_s[True])]
        # fastest against fastest: other tenants only ever add time
        samples["trace_overhead"] = [min(round_s[True]) / min(round_s[False])]
        result["samples"] = dict(samples)
        result["skipped_by_class"] = skipped
        result["absent"] = tracer.absent + [m for m in tracing.LAYER_METRICS if m not in samples]
        result["extract_self_shares"] = tracing.self_time_shares(tracer, "extract")
        result["evaluate_mlp"] = tracing.evaluate_mlp_breakdown(tracer)
        result["geometry_spans_in_classifier_calls"] = tracing.geometry_under_classifiers(tracer)
        spans_path = os.path.join(work, "spans.tsv")
        tracer.write(spans_path)
        result["spans_file"] = spans_path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around calls into ectshape's layers, taken from outside the package.

The tracer swaps a timing wrapper in for a function at the module attribute
its caller looks it up through (``ectshape.cli.shape_descriptors``,
``ectshape.geometry.convex_hull``, ...) and puts every original back in
``restore``.  Nothing in the package is edited.  Functions that run once per
SGD step or per RNG draw are never wrapped: a wrapper costs about a
microsecond, which would swamp them.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time
from collections import defaultdict

# Record-level calls whose exception makes the CLI skip the record.
RECORD_STAGES = (
    "ingest.parse_record",
    "preprocess.to_point_cloud",
    "preprocess.trim_noise",
    "geometry.shape_descriptors",
)


def _kind_of_predict(args, kwargs, result):
    return {"kind": args[0].kind}


def _kind_of_cross_validate(args, kwargs, result):
    return {"kind": args[1]}


def _fit(args, kwargs, result):
    kind = args[0]
    attrs = {"kind": kind}
    if kind == "mlp":
        params = args[2] if len(args) > 2 else kwargs["params"]
        # epochs x training rows: the number of per-example SGD steps
        attrs["sgd_steps"] = params["epochs"] * args[1].features.shape[0]
    elif kind == "tree":
        attrs["model"] = result.model  # leaves are counted after the run
    return attrs


# (module, attribute, span name, attributes taken from args/result)
LAYERS = (
    ("ectshape.cli", "main", "cli.main", lambda a, k, r: {"sub": a[0][0]}),
    ("ectshape.cli", "generate_synthetic", "synthetic.generate_synthetic", None),
    ("ectshape.cli", "record_to_text", "ingest.record_to_text", None),
    ("ectshape.cli", "write_artifact", "artifacts.write_artifact", None),
    ("ectshape.cli", "parse_record", "ingest.parse_record", None),
    ("ectshape.cli", "to_point_cloud", "preprocess.to_point_cloud", None),
    (
        "ectshape.cli",
        "trim_noise",
        "preprocess.trim_noise",
        lambda a, k, r: {"trimmed": a[0].n - r.n},
    ),
    ("ectshape.cli", "shape_descriptors", "geometry.shape_descriptors", None),
    ("ectshape.geometry", "central_moments", "geometry.central_moments", None),
    ("ectshape.geometry", "principal_axes", "geometry.principal_axes", None),
    (
        "ectshape.geometry",
        "convex_hull",
        "geometry.convex_hull",
        lambda a, k, r: {"vertices": r.n_vertices},
    ),
    (
        "ectshape.geometry",
        "polygon_area_perimeter",
        "geometry.polygon_area_perimeter",
        None,
    ),
    ("ectshape.geometry", "contour_perimeter", "geometry.contour_perimeter", None),
    (
        "ectshape.cli",
        "parse_feature_csv",
        "dataset.parse_feature_csv",
        lambda a, k, r: {"rows": len(r.record_ids)},
    ),
    ("ectshape.evaluation", "stratified_k_fold", "evaluation.stratified_k_fold", None),
    ("ectshape.cli", "cross_validate", "evaluation.cross_validate", _kind_of_cross_validate),
    ("ectshape.cli", "train_model", "classifiers.train_model", _fit),
    ("ectshape.evaluation", "train_model", "classifiers.train_model", _fit),
    ("ectshape.cli", "predict", "classifiers.predict", _kind_of_predict),
    ("ectshape.evaluation", "predict", "classifiers.predict", _kind_of_predict),
    ("ectshape.cli", "save_model", "classifiers.serialize.save_model", None),
    ("ectshape.cli", "load_model", "classifiers.serialize.load_model", None),
)

# Per-layer metrics: name -> unit. The unit of a per-call time is its suffix.
LAYER_METRICS = {
    "ingest.parse_record_us": "us",
    "ingest.record_to_text_us": "us",
    "synthetic.generate_synthetic_us": "us",
    "artifacts.write_artifact_us": "us",
    "artifacts.files_written": "count",
    "preprocess.trim_noise_us": "us",
    "preprocess.points_trimmed": "count",
    "geometry.convex_hull_us": "us",
    "geometry.shape_descriptors_us": "us",
    "geometry.shape_descriptors_self_us": "us",
    "geometry.central_moments_us": "us",
    "geometry.principal_axes_us": "us",
    "geometry.polygon_area_perimeter_us": "us",
    "geometry.contour_perimeter_us": "us",
    "geometry.hull_vertices": "count",
    "dataset.parse_feature_csv_us": "us",
    "evaluation.stratified_k_fold_ms": "ms",
    "evaluation.cross_validate_self_ms.nb": "ms",
    "evaluation.cross_validate_self_ms.tree": "ms",
    "evaluation.cross_validate_self_ms.mlp": "ms",
    "classifiers.train_model_ms.nb": "ms",
    "classifiers.train_model_ms.tree": "ms",
    "classifiers.train_model_ms.mlp": "ms",
    "classifiers.mlp.sgd_steps": "count",
    "classifiers.mlp.us_per_sgd_step": "us",
    "classifiers.tree.leaves": "count",
    "classifiers.predict_us.nb": "us",
    "classifiers.predict_us.tree": "us",
    "classifiers.predict_us.mlp": "us",
    "classifiers.serialize.save_model_ms": "ms",
    "classifiers.serialize.load_model_ms": "ms",
    "cli.self_ms.synth": "ms",
    "cli.self_ms.extract": "ms",
    "cli.self_ms.evaluate": "ms",
    "cli.self_ms.train": "ms",
    "cli.self_ms.classify": "ms",
    "cli.records_skipped": "count",
    "trace_overhead": "ratio",
}

# Span -> the metric its duration feeds, for spans timed per call as they are.
_PER_CALL = {
    "ingest.parse_record": "ingest.parse_record_us",
    "ingest.record_to_text": "ingest.record_to_text_us",
    "synthetic.generate_synthetic": "synthetic.generate_synthetic_us",
    "artifacts.write_artifact": "artifacts.write_artifact_us",
    "geometry.convex_hull": "geometry.convex_hull_us",
    "geometry.shape_descriptors": "geometry.shape_descriptors_us",
    "geometry.central_moments": "geometry.central_moments_us",
    "geometry.principal_axes": "geometry.principal_axes_us",
    "geometry.polygon_area_perimeter": "geometry.polygon_area_perimeter_us",
    "geometry.contour_perimeter": "geometry.contour_perimeter_us",
    "evaluation.stratified_k_fold": "evaluation.stratified_k_fold_ms",
    "classifiers.serialize.save_model": "classifiers.serialize.save_model_ms",
    "classifiers.serialize.load_model": "classifiers.serialize.load_model_ms",
}

_SCALE = {"us": 1e-3, "ms": 1e-6}  # from nanoseconds


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0
        self.attrs = None

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    """In-memory spans: name, start, end, parent span index, operation id.

    One operation is one ``ect-shape`` invocation; the caller advances
    ``op`` before each.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name, describe in LAYERS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                # renamed or deleted since the benchmark was written
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, describe))
            self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, original, name, describe):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter_ns()
                span.attrs = {"error": type(exc).__name__}
                raise
            else:
                span.end = time.perf_counter_ns()
                if describe is not None:
                    span.attrs = describe(args, kwargs, result)
                return result
            finally:
                stack.pop()

        return traced

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its child spans cover.

        Calls nest and never overlap (one thread), so the children's
        durations add up to the time they cover.
        """
        own = [s.ns for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.ns
        return own

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: index, parent, op, name, start, end, attrs."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tparent\top\tname\tstart_ns\tend_ns\tattrs\n")
            for i, s in enumerate(self.spans):
                attrs = {k: v for k, v in (s.attrs or {}).items() if k != "model"}
                out.write(
                    f"{i}\t{s.parent}\t{s.op}\t{s.name}\t{s.start}\t{s.end}\t{attrs}\n"
                )


def ops_of(tracer: Tracer, *subcommands: str) -> set[int]:
    """Operation ids of the invocations of these subcommands that returned."""
    return {
        s.op
        for s in tracer.spans
        if s.name == "cli.main" and (s.attrs or {}).get("sub") in subcommands
    }


def _count_leaves(node) -> int:
    if hasattr(node, "left"):
        return _count_leaves(node.left) + _count_leaves(node.right)
    return 1


def layer_samples(tracer: Tracer) -> dict[str, list[float]]:
    """Per-layer samples, one per call (per row for parse and predict)."""
    samples: dict[str, list[float]] = defaultdict(list)
    own = tracer.self_ns()
    spans = tracer.spans
    writes = defaultdict(int)
    cloud_ns = 0
    for i, s in enumerate(spans):
        attrs = s.attrs or {}
        if "error" in attrs:
            continue
        if s.name in _PER_CALL:
            metric = _PER_CALL[s.name]
            samples[metric].append(s.ns * _SCALE[LAYER_METRICS[metric]])
        if s.name == "artifacts.write_artifact":
            writes[s.op] += 1
        elif s.name == "preprocess.to_point_cloud":
            cloud_ns = s.ns
        elif s.name == "preprocess.trim_noise":
            # to_point_cloud runs just before, on the same record
            samples["preprocess.trim_noise_us"].append((cloud_ns + s.ns) * 1e-3)
            samples["preprocess.points_trimmed"].append(attrs["trimmed"])
        elif s.name == "geometry.convex_hull":
            samples["geometry.hull_vertices"].append(attrs["vertices"])
        elif s.name == "geometry.shape_descriptors":
            samples["geometry.shape_descriptors_self_us"].append(own[i] * 1e-3)
        elif s.name == "dataset.parse_feature_csv":
            samples["dataset.parse_feature_csv_us"].append(
                s.ns * 1e-3 / max(1, attrs["rows"])
            )
        elif s.name == "evaluation.cross_validate":
            samples[f"evaluation.cross_validate_self_ms.{attrs['kind']}"].append(
                own[i] * 1e-6
            )
        elif s.name == "classifiers.train_model":
            kind = attrs["kind"]
            samples[f"classifiers.train_model_ms.{kind}"].append(s.ns * 1e-6)
            if kind == "mlp":
                steps = attrs["sgd_steps"]
                samples["classifiers.mlp.sgd_steps"].append(steps)
                samples["classifiers.mlp.us_per_sgd_step"].append(s.ns * 1e-3 / steps)
            elif kind == "tree":
                samples["classifiers.tree.leaves"].append(_count_leaves(attrs["model"].root))
        elif s.name == "classifiers.predict":
            samples[f"classifiers.predict_us.{attrs['kind']}"].append(s.ns * 1e-3)
        elif s.name == "cli.main":
            samples[f"cli.self_ms.{attrs['sub']}"].append(own[i] * 1e-6)
    for op in ops_of(tracer, "synth"):
        samples["artifacts.files_written"].append(writes[op])
    return samples


def skipped_by_class(tracer: Tracer) -> dict[str, int]:
    """Records the CLI skipped, by the error class that made it skip them."""
    main_spans = {i for i, s in enumerate(tracer.spans) if s.name == "cli.main"}
    out: dict[str, int] = defaultdict(int)
    for s in tracer.spans:
        error = (s.attrs or {}).get("error")
        if error and s.name in RECORD_STAGES and s.parent in main_spans:
            out[error] += 1
    return dict(out)


def self_time_shares(tracer: Tracer, sub: str) -> dict[str, float]:
    """Share of all ``sub`` invocations' time spent in each layer's own code."""
    own = tracer.self_ns()
    ops = ops_of(tracer, sub)
    by_name: dict[str, int] = defaultdict(int)
    for i, s in enumerate(tracer.spans):
        if s.op in ops:
            by_name[s.name] += own[i]
    total = sum(by_name.values()) or 1
    return {name: ns / total for name, ns in sorted(by_name.items(), key=lambda kv: -kv[1])}


def evaluate_mlp_breakdown(tracer: Tracer) -> dict:
    """Time of ``evaluate --classifier mlp`` calls and of the mlp fits in them."""
    spans = tracer.spans
    mlp_ops = {s.op for s in spans if s.name == "evaluation.cross_validate"
               and (s.attrs or {}).get("kind") == "mlp"}
    total = sum(s.ns for s in spans if s.op in mlp_ops and s.name == "cli.main")
    fits = sum(s.ns for s in spans if s.op in mlp_ops and s.name == "classifiers.train_model")
    return {"calls": len(mlp_ops), "evaluate_ms": total * 1e-6 / max(1, len(mlp_ops)),
            "fits_share": fits / total if total else 0.0}


def geometry_under_classifiers(tracer: Tracer) -> int:
    """Geometry spans inside evaluate or train calls (expected: none)."""
    ops = ops_of(tracer, "evaluate", "train")
    return sum(1 for s in tracer.spans if s.op in ops and s.name.startswith("geometry."))


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, count."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "pct": None, "pct_value": None}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            rank = max(1, math.ceil(p * n / 100.0))  # nearest rank
            out["pct"], out["pct_value"] = p, ordered[rank - 1]
            break
    return out

"""Shape-based classification of eddy-current impedance records.

A probe sweep traces a closed figure in the impedance plane; its geometry
(oriented extents, orientation angle, and derived descriptors) separates
defect classes well enough for standard classifiers. This package covers
the whole pipeline: record ingestion, noise trimming, shape features,
three from-scratch classifiers, cross-validated evaluation, synthetic
data generation, and SVG plots, plus the `ect-shape` command.
"""

from .artifacts import TOOL_VERSION as __version__
from .classifiers import (
    CLASSIFIER_KINDS,
    TrainedModel,
    predict,
    train_model,
)
from .classifiers.serialize import load_model, save_model
from .dataset import (
    FEATURE_CSV_HEADER,
    FeatureTable,
    LabeledDataset,
    feature_names_for_mode,
    parse_feature_csv,
)
from .errors import EctShapeError
from .evaluation import (
    ConfusionMatrix,
    EvalReport,
    FoldAssignment,
    MetricSet,
    confusion_matrix,
    cross_validate,
    macro_metrics,
    one_vs_rest_metrics,
    per_class_metrics,
    stratified_k_fold,
)
from .geometry import (
    FEATURE_NAMES_BASIC,
    FEATURE_NAMES_EXTENDED,
    CentralMoments2,
    ConvexPolygon,
    PrincipalAxes,
    ShapeFeatures,
    central_moments,
    centroid,
    convex_hull,
    oriented_extents,
    principal_axes,
    shape_descriptors,
)
from .ingest import (
    ClassLabel,
    DatasetManifest,
    ImpedanceRecord,
    load_manifest,
    manifest_to_text,
    parse_record,
    record_to_text,
)
from .preprocess import (
    TRIM_MODES,
    PointCloud2D,
    TrimPolicy,
    to_point_cloud,
    trim_noise,
)
from .rng import SplitMix64, derive_seed
from .synthetic import SynthClassSpec, SynthSpec, generate_synthetic, parse_synth_spec

__all__ = [
    "CLASSIFIER_KINDS",
    "CentralMoments2",
    "ClassLabel",
    "ConfusionMatrix",
    "ConvexPolygon",
    "DatasetManifest",
    "EctShapeError",
    "EvalReport",
    "FEATURE_CSV_HEADER",
    "FEATURE_NAMES_BASIC",
    "FEATURE_NAMES_EXTENDED",
    "FeatureTable",
    "FoldAssignment",
    "ImpedanceRecord",
    "LabeledDataset",
    "MetricSet",
    "PointCloud2D",
    "PrincipalAxes",
    "ShapeFeatures",
    "SplitMix64",
    "SynthClassSpec",
    "SynthSpec",
    "TRIM_MODES",
    "TrainedModel",
    "TrimPolicy",
    "__version__",
    "central_moments",
    "centroid",
    "confusion_matrix",
    "convex_hull",
    "cross_validate",
    "derive_seed",
    "feature_names_for_mode",
    "generate_synthetic",
    "load_manifest",
    "load_model",
    "macro_metrics",
    "manifest_to_text",
    "one_vs_rest_metrics",
    "oriented_extents",
    "parse_feature_csv",
    "parse_record",
    "parse_synth_spec",
    "per_class_metrics",
    "predict",
    "principal_axes",
    "record_to_text",
    "save_model",
    "shape_descriptors",
    "stratified_k_fold",
    "to_point_cloud",
    "train_model",
    "trim_noise",
]

"""Cross-validate the three classifiers on a synthetic defect grid.

Generates four defect shapes from a JSON spec, extracts the basic
feature triple from every record, runs stratified 10-fold evaluation
per classifier and prints the full text report for the tree.
"""

from ectshape.dataset import labeled_dataset
from ectshape.evaluation import cross_validate, report_text
from ectshape.geometry import shape_descriptors
from ectshape.synthetic import generate_synthetic, parse_synth_spec

SPEC = """
# four shape families: two aspect ratios at two tilts.
# the 8-degree tilt is deliberately small relative to the noise,
# so flat vs tilted is the hard distinction.
{"classes": [
  {"name": "short_flat",  "n_points": 32, "axis_lengths": [2.4, 1.1],
   "rotation_deg": 0, "noise_sigma": 0.7, "n_records": 15},
  {"name": "short_tilted","n_points": 32, "axis_lengths": [2.4, 1.1],
   "rotation_deg": 8, "noise_sigma": 0.7, "n_records": 15},
  {"name": "long_flat",   "n_points": 32, "axis_lengths": [4.8, 0.9],
   "rotation_deg": 0, "noise_sigma": 0.7, "n_records": 15},
  {"name": "long_tilted", "n_points": 32, "axis_lengths": [4.8, 0.9],
   "rotation_deg": 8, "noise_sigma": 0.7, "n_records": 15}
]}
"""


def main() -> None:
    classes = parse_synth_spec(SPEC)
    clouds = generate_synthetic(classes, seed=21)

    # one list of clouds per class: a record's label is its class's position
    rows = [shape_descriptors(cloud)[:3] for records in clouds for cloud in records]
    data = labeled_dataset(
        features=rows,
        labels=[i for i, records in enumerate(clouds) for _ in records],
        num_classes=len(classes),
        feature_names=("L", "W", "alpha_deg"),
    )
    names = tuple(cls.name for cls in classes)
    print(f"dataset: {data.features.shape[0]} records x "
          f"{data.features.shape[1]} features, {data.num_classes} classes")
    print()

    # fewer epochs than the training default; plenty for 60 easy rows
    params = {"nb": None, "tree": None, "mlp": {"epochs": 300}}
    reports = {
        kind: cross_validate(data, kind, params[kind], k=10, seed=0,
                             class_names=names)
        for kind in ("nb", "tree", "mlp")
    }

    print(f"{'kind':<6} {'accuracy':>9} {'sensitivity':>12} {'mcc':>7}")
    for kind, rep in reports.items():
        m = rep.macro
        print(f"{kind:<6} {m.accuracy:>9.4f} {m.sensitivity:>12.4f} {m.mcc:>7.4f}")

    print()
    print(report_text(reports["tree"]))


if __name__ == "__main__":
    main()

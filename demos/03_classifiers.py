"""Train the three classifier kinds on a small labelled set.

Same data, same queries, three models: a Gaussian naive Bayes, a binary
decision tree and a one-hidden-layer perceptron. Finishes with a text
save/load round trip to show the models survive serialization intact.
"""

import numpy as np

from ectshape.classifiers import predict, train_model
from ectshape.classifiers.serialize import load_model, save_model
from ectshape.dataset import LabeledDataset, labeled_dataset
from ectshape.rng import SplitMix64

CLASS_NAMES = ("crack", "pit", "loss")


def blob_dataset(rng: SplitMix64, n_per: int = 12) -> LabeledDataset:
    # three well-separated blobs in (length, elongation) space
    centers = [(2.0, 1.2), (5.0, 4.0), (3.5, 2.2)]
    rows, labels = [], []
    for label, (cx, cy) in enumerate(centers):
        for _ in range(n_per):
            rows.append([cx + 0.2 * rng.normal(), cy + 0.2 * rng.normal()])
            labels.append(label)
    return labeled_dataset(rows, labels, num_classes=3, feature_names=("L", "E"))


def main() -> None:
    data = blob_dataset(SplitMix64(3))
    queries = np.array([[2.1, 1.3], [4.8, 3.9], [3.4, 2.3], [4.2, 3.0]])

    models = {
        kind: train_model(kind, data, seed=0, class_names=CLASS_NAMES)
        for kind in ("nb", "tree", "mlp")
    }

    for kind, model in models.items():
        print(f"--- {kind} ---")
        labels, posteriors = predict(model, queries)
        for q, label, post in zip(queries, labels, posteriors):
            dist = "  ".join(
                f"{name}={p:.3f}" for name, p in zip(CLASS_NAMES, post)
            )
            print(f"  ({q[0]:.1f}, {q[1]:.1f}) -> {model.label_name(label):<6} {dist}")

    # round trip: the reloaded model must answer exactly like the original
    text = save_model(models["mlp"])
    reloaded = load_model(text)
    (l0, p0), (l1, p1) = predict(models["mlp"], queries), predict(reloaded, queries)
    agree = np.array_equal(l0, l1) and np.array_equal(p0, p1)
    print()
    print(f"mlp model text: {len(text.splitlines())} lines")
    print(f"save -> load round trip bit-exact on all queries: {agree}")


if __name__ == "__main__":
    main()

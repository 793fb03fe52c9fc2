"""The benchmark tracer's hooks still resolve and still see every record.

``perfbench/tracer.py`` times each layer by swapping a wrapper in for a
function at the module attribute its caller looks it up through. A
function that is renamed, inlined, batched or no longer called once per
record drops its per-layer metric without failing any call, so this
checks the hooks on one small in-process ``extract``.
"""

import importlib.util
import json
import math
from pathlib import Path

from ectshape.cli import main

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves_and_sees_each_record_once(tmp_path):
    tracing = load_tracer()
    spec = tmp_path / "spec.json"
    classes = [
        {"name": name, "n_points": 40, "axis_lengths": axes, "rotation_deg": rot,
         "noise_sigma": 0.1, "n_records": 3}
        for name, axes, rot in (("slim", [5.0, 1.0], 30.0), ("round", [3.0, 2.5], 60.0))
    ]  # fmt: skip
    spec.write_text(json.dumps({"classes": classes}))
    records = tmp_path / "records"
    assert main(["synth", "--spec", str(spec), "--out-dir", str(records), "--seed", "7"]) == 0
    out = tmp_path / "features.csv"

    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
        code = main(["extract", "--manifest", str(records / "manifest.csv"),
                     "--out", str(out)])  # fmt: skip
    finally:
        tracer.restore()
    assert code == 0
    n_records = 6
    assert len([s for s in out.read_text().splitlines() if s and s[0] != "#"]) == 1 + n_records

    spans = tracer.spans
    assert not [s.name for s in spans if "error" in (s.attrs or {})]
    per_record = list(tracing.RECORD_STAGES) + sorted(
        {name for _, _, name, _ in tracing.LAYERS if name.startswith("geometry.")}
    )
    for name in per_record:
        assert sum(s.name == name for s in spans) == n_records, name
    samples = tracing.layer_samples(tracer)
    per_record_metrics = [
        m for m in tracing.LAYER_METRICS if m.startswith(("preprocess.", "geometry."))
    ]
    assert per_record_metrics
    for metric in per_record_metrics:
        assert len(samples[metric]) == n_records, metric
        assert all(math.isfinite(v) for v in samples[metric]), metric

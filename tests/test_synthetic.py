import hashlib
import json
import math

import numpy as np
import pytest

from ectshape.errors import BadSpecError
from ectshape.geometry import shape_descriptors
from ectshape.ingest import record_to_text
from ectshape.rng import SplitMix64
from ectshape.synthetic import SynthClassSpec, generate_synthetic, parse_synth_spec


def one_class_spec(**overrides):
    fields = dict(
        name="cls", n_points=48, center=(0.0, 0.0), a=4.0, b=2.0,
        rotation_deg=0.0, noise_sigma=0.0, n_records=1,
    )
    fields.update(overrides)
    return (SynthClassSpec(**fields),)


def one_class_doc(**overrides):
    """The JSON spec text of one_class_spec(**overrides)."""
    (cls,) = one_class_spec(**overrides)
    return json.dumps({"classes": [{
        "name": cls.name, "n_points": cls.n_points, "center": list(cls.center),
        "axis_lengths": [cls.a, cls.b], "rotation_deg": cls.rotation_deg,
        "noise_sigma": cls.noise_sigma, "n_records": cls.n_records,
    }]})


# --- parsing -----------------------------------------------------------------

def test_parse_minimal_spec_defaults():
    spec = parse_synth_spec(json.dumps({
        "classes": [{"n_points": 20, "axis_lengths": [3, 1], "n_records": 2}]
    }))
    cls = spec[0]
    assert cls.name == "class00"
    assert cls.center == (0.0, 0.0)
    assert cls.rotation_deg == 0.0
    assert cls.noise_sigma == 0.0
    assert (cls.a, cls.b) == (3.0, 1.0)


def test_parse_skips_comment_lines():
    text = (
        "# synthesis recipe\n"
        '{"classes": [\n'
        "# the only class\n"
        '{"name": "only", "n_points": 16, "axis_lengths": [2, 1], "n_records": 1}\n'
        "]}\n"
    )
    spec = parse_synth_spec(text)
    assert spec[0].name == "only"


def test_spec_json_error_names_the_file_line():
    text = (
        "# synthesis recipe\n"
        "# one class\n"
        '{"classes": [\n'
        '{"name": "only", "n_points": 16, "axis_lengths": [2, 1], "n_records": 1},\n'
        "  x\n"
        "]}\n"
    )
    with pytest.raises(BadSpecError, match=r": line 5 column 3 "):
        parse_synth_spec(text)


ONLY_CLASS = '{"name": "only", "n_points": 16, "axis_lengths": [2, 1], "n_records": 1'


def test_spec_string_may_hold_a_line_separator():
    doc = json.loads(ONLY_CLASS + ', "note": "a\u2028b"}')
    text = json.dumps({"classes": [doc]}, ensure_ascii=False)
    assert "\u2028" in text  # the character itself, not its escape
    assert parse_synth_spec(text)[0].name == "only"


# str.splitlines() also ends a line at each of these; JSON does not, and a
# JSON error names the line that "\n" alone counts
@pytest.mark.parametrize(
    "sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_spec_lines_end_only_at_newline(sep):
    # JSON refuses a control character in a string, so those go in a comment
    in_comment = sep < " "
    text = "\n".join([
        "# recipe" + (sep + "more" if in_comment else ""),
        '{"classes": [',
        ONLY_CLASS + ', "note": "a' + ("" if in_comment else sep) + 'b"},',
        "  x",
        "]}",
    ])  # fmt: skip
    with pytest.raises(BadSpecError, match=r": line 4 column 3 "):
        parse_synth_spec(text)


def test_spec_control_character_in_a_string_names_its_line():
    text = '# recipe\n{"classes": [\n' + ONLY_CLASS + ', "note": "a\x0cb"},\n  x\n]}'
    with pytest.raises(BadSpecError, match=r"Invalid control character at: line 3 "):
        parse_synth_spec(text)


def test_spec_with_crlf_line_ends_parses():
    lines = ["# synthesis recipe", '{"classes": [', "# the only class", ONLY_CLASS + "}"]
    spec = parse_synth_spec("\r\n".join(lines + ["]}", ""]))
    assert spec[0].name == "only"
    with pytest.raises(BadSpecError, match=r": line 5 column 3 "):
        parse_synth_spec("\r\n".join(lines[:-1] + [ONLY_CLASS + "},", "  x", "]}"]))


@pytest.mark.parametrize("doc", [
    "not json at all {",
    '["just", "a", "list"]',
    '{"no_classes": []}',
    '{"classes": [{"axis_lengths": [2, 1], "n_records": 1}]}',  # n_points missing
    '{"classes": [{"n_points": 16, "axis_lengths": [2], "n_records": 1}]}',
    '{"classes": [{"n_points": 16, "axis_lengths": [2, 1], "n_records": 1, "center": [0]}]}',
    '{"classes": [42]}',
    # past Python's digit limit json.loads raises a plain ValueError
    pytest.param('{"classes": [{"n_points": 16, "axis_lengths": [%s, 1], "n_records": 1}]}'
                 % ("1" * 5000), id="integer-of-5000-digits"),
])
def test_parse_rejects_malformed(doc):
    with pytest.raises(BadSpecError):
        parse_synth_spec(doc)


@pytest.mark.parametrize("overrides", [
    {"n_points": 15},
    {"a": 1.0, "b": 2.0},  # a < b
    {"b": 0.0},
    {"noise_sigma": -0.1},
    {"n_records": 0},
    {"name": "has space"},
    {"name": "has,comma"},
    {"name": "#leading"},
    {"name": ""},
    {"name": "../escaped"},
    {"name": "a\\b"},
    # Python's JSON reader takes NaN and Infinity
    {"center": (math.nan, 0.0)},
    {"a": math.inf},
    {"rotation_deg": -math.inf},
    {"noise_sigma": math.nan},
    # values are checked, not converted: a bool is no number
    {"name": None},
    {"name": ["a"]},
    {"n_records": 2.9},
    {"n_points": "16"},
    {"n_points": 16.0},
    {"a": "2", "b": "1"},
    {"a": True, "b": True},
    {"center": ("0", 0.0)},
    {"rotation_deg": False},
    {"noise_sigma": "0.1"},
])
def test_class_spec_preconditions(overrides):
    assert parse_synth_spec(one_class_doc()) == one_class_spec()
    with pytest.raises(BadSpecError):
        parse_synth_spec(one_class_doc(**overrides))


@pytest.mark.parametrize("overrides,message", [
    ({"n_records": 2.5}, "class 1: n_records must be a JSON integer"),
    ({"name": None}, "class 1: name must be a JSON string"),
    ({"b": True}, r"class 1: axis_lengths\[1\] must be a JSON number"),
], ids=["n_records", "name", "axis_lengths"])
def test_spec_value_of_a_wrong_type_names_class_and_field(overrides, message):
    good = json.loads(one_class_doc(name="first"))["classes"]
    bad = json.loads(one_class_doc(**overrides))["classes"]
    with pytest.raises(BadSpecError, match=f"^{message}$"):
        parse_synth_spec(json.dumps({"classes": good + bad}))


def test_spec_rejects_duplicate_names():
    cls = {"name": "twin", "n_points": 16, "axis_lengths": [2, 1], "n_records": 1}
    with pytest.raises(BadSpecError, match="^duplicate class names in spec$"):
        parse_synth_spec(json.dumps({"classes": [cls, cls]}))


def test_spec_rejects_no_classes():
    with pytest.raises(BadSpecError, match="^spec needs at least one class$"):
        parse_synth_spec('{"classes": []}')


# --- generation --------------------------------------------------------------

def two_class_spec(sigma=0.02):
    return (
        SynthClassSpec(name="narrow", n_points=32, center=(1.0, 0.0),
                       a=4.0, b=1.0, rotation_deg=15.0,
                       noise_sigma=sigma, n_records=3),
        SynthClassSpec(name="round", n_points=24, center=(0.0, 2.0),
                       a=2.0, b=1.8, rotation_deg=0.0,
                       noise_sigma=sigma, n_records=2),
    )


def test_generation_counts_and_labels():
    clouds = generate_synthetic(two_class_spec(), seed=0)
    # a record's label is the position of its class in the spec
    assert [i for i, cls in enumerate(clouds) for _ in cls] == [0, 0, 0, 1, 1]
    assert clouds[0][0].points.shape == (32, 2)
    assert clouds[1][1].points.shape == (24, 2)


def test_generation_deterministic_and_seed_sensitive():
    a = generate_synthetic(two_class_spec(), seed=5)
    b = generate_synthetic(two_class_spec(), seed=5)
    c = generate_synthetic(two_class_spec(), seed=6)
    for ca, cb in zip(a, b, strict=True):
        for x, y in zip(ca, cb, strict=True):
            assert np.array_equal(x.points, y.points)
    assert not np.array_equal(a[0][0].points, c[0][0].points)
    # class structure unchanged by the seed
    assert [len(cls) for cls in a] == [len(cls) for cls in c]


def test_noiseless_records_are_identical_within_class():
    clouds = generate_synthetic(two_class_spec(sigma=0.0), seed=9)
    assert np.array_equal(clouds[0][0].points, clouds[0][1].points)
    assert np.array_equal(clouds[1][0].points, clouds[1][1].points)


def test_noiseless_rotated_ellipse_recovers_angle_and_elongation():
    baseline = shape_descriptors(
        generate_synthetic(one_class_spec(rotation_deg=0.0), seed=1)[0][0]
    )
    rotated = shape_descriptors(
        generate_synthetic(one_class_spec(rotation_deg=30.0), seed=1)[0][0]
    )
    assert abs(rotated.alpha_deg - 30.0) < 0.5
    assert abs(rotated.elongation - baseline.elongation) <= 0.02 * baseline.elongation


def test_isotropic_class_ties_to_zero_angle():
    feats = shape_descriptors(
        generate_synthetic(one_class_spec(a=2.0, b=2.0), seed=3)[0][0]
    )
    assert feats.alpha_deg == 0.0


def test_center_translation_applied():
    clouds = generate_synthetic(one_class_spec(center=(10.0, -4.0)), seed=2)
    mean = clouds[0][0].points.mean(axis=0)
    assert mean[0] == pytest.approx(10.0, abs=1e-9)
    assert mean[1] == pytest.approx(-4.0, abs=1e-9)



# --- bits against the per-point generator -------------------------------------

def oracle_generate_synthetic(spec, seed):
    """generate_synthetic with noise drawn one normal() at a time, point by
    point, x before y: the reference the block draws must reproduce."""
    rng = SplitMix64(seed)
    out = []
    for cls in spec:
        records = []
        out.append(records)
        theta = 2.0 * np.pi * np.arange(cls.n_points) / cls.n_points
        unit = np.column_stack((cls.a * np.cos(theta), cls.b * np.sin(theta)))
        phi = np.deg2rad(cls.rotation_deg)
        rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        base = unit @ rot.T + np.array(cls.center)
        for _ in range(cls.n_records):
            points = base
            if cls.noise_sigma > 0:
                noise = np.array(
                    [[rng.normal(), rng.normal()] for _ in range(cls.n_points)]
                )
                points = base + cls.noise_sigma * noise
            records.append(points)
    return out


ORACLE_SPECS = [
    two_class_spec(),
    two_class_spec(sigma=0.0),
    (
        SynthClassSpec(name="short", n_points=16, center=(-3.0, 7.5),
                       a=2.0, b=0.5, rotation_deg=-40.0,
                       noise_sigma=0.3, n_records=4),
        SynthClassSpec(name="quiet", n_points=20, center=(0.0, 0.0),
                       a=1.0, b=1.0, rotation_deg=0.0,
                       noise_sigma=0.0, n_records=2),
        SynthClassSpec(name="long", n_points=256, center=(1e3, -1e-3),
                       a=5.0, b=1.0, rotation_deg=30.0,
                       noise_sigma=0.1, n_records=3),
    ),
]


@pytest.mark.parametrize("spec", ORACLE_SPECS)
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 5, 123456789])
def test_generation_bits_match_per_point_oracle(spec, seed):
    got = generate_synthetic(spec, seed)
    want = oracle_generate_synthetic(spec, seed)
    assert [len(c) for c in got] == [len(r) for r in want]
    for clouds, records in zip(got, want):
        for cloud, points in zip(clouds, records):
            assert cloud.points.tobytes() == points.tobytes()


# sha256 of the record bodies (no artifact header) of two_class_spec() at
# seed 42, as written by the per-point generator and the per-line formatter;
# pinned on x86-64 Linux (glibc libm), see README "Determinism"
PINNED_BODIES_SHA256 = "1e743ed08096c626e0b95bef98c6fce89db9c6242a59ebfdb145ac0c940047c6"


def test_record_bodies_digest_pinned():
    clouds = generate_synthetic(two_class_spec(), seed=42)
    bodies = "".join(
        record_to_text(cloud.points) for cls in clouds for cloud in cls
    )
    assert hashlib.sha256(bodies.encode()).hexdigest() == PINNED_BODIES_SHA256


# --- overflow ------------------------------------------------------------------

@pytest.mark.parametrize("overrides", [
    # the noiseless base already overflows
    {"center": (1.7e308, 0.0), "a": 1.7e308, "b": 1e308, "noise_sigma": 0.0},
    {"center": (1.7e308, 0.0), "a": 1.7e308, "b": 1e308, "noise_sigma": 0.1},
    # a finite base, but the noise pushes it past the largest double
    {"center": (1e308, 0.0), "a": 1.0, "b": 1.0, "noise_sigma": 1e308},
])
def test_generation_rejects_overflow_naming_the_class(overrides):
    with pytest.raises(BadSpecError, match="class 'cls'"):
        generate_synthetic(one_class_spec(**overrides), seed=0)

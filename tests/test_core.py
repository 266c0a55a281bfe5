"""Document parsing, serialization round trips, and process validation."""

import json
import math
import re
from pathlib import Path

import pytest

from conftest import bundled_text
from flexokit.core import (ADHESIVE_BASELINE_N_PER_CM, DEFAULT_MATERIALS,
                           ExtensionalLimitEntry, FlexionalLimitEntry,
                           GaitEntry, JointEntry, LaminateStack, Material,
                           PrintProcessConfig, parse_design,
                           parse_materials, serialize_design, to_document,
                           validate_process)
from flexokit.errors import DanglingReferenceError, DesignError, GeometryError

BUNDLED = ("sample_flexure.json", "hind_leg.json", "quadruped.json")


# ---------------------------------------------------------------- parsing

@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_documents_round_trip_identically(name):
    doc = parse_design(bundled_text(name))
    text = serialize_design(doc)
    again = parse_design(text)
    assert again == doc
    # serialization is a fixed point, so emitted files are byte-stable
    assert serialize_design(again) == text


def test_parse_keeps_document_units(hind_leg_doc):
    flex = hind_leg_doc.flexures["extension_flexure"]
    assert flex.length_mm == 22.0 and flex.width_mm == 20.0
    assert flex.length == pytest.approx(0.022, rel=1e-15)
    assert [t for _, t in flex.base.layers] == [0.2, 0.3]
    ext = hind_leg_doc.extensional_limits["extension_20deg"]
    assert ext.incline_deg == 45.0
    assert ext.spec.incline == pytest.approx(math.pi / 4, rel=1e-15)
    joints = hind_leg_doc.limbs["hind_leg"].joints
    assert [j.sense for j in joints] == [-1, -1]
    assert [j.routing_offset_mm for j in joints] == [2.5, 6.0]


def test_declared_materials_shadow_defaults():
    text = json.dumps({
        "schema_version": 1,
        "materials": {"PLA": {"youngs_modulus_gpa": 7.0, "kind": "filament",
                              "nozzle_temp_c": 200.0}},
        "flexures": {"f": {"length_mm": 10, "width_mm": 10,
                           "base_layers": [["PLA", 0.2]]}},
    })
    doc = parse_design(text)
    assert doc.flexures["f"].base.layers[0][0].youngs_modulus_gpa == 7.0
    # defaults still reachable for names the document does not redefine
    assert doc.materials["ABS"] == DEFAULT_MATERIALS["ABS"]


def test_override_materials_shadow_document_and_defaults():
    text = json.dumps({
        "schema_version": 1,
        "materials": {"PLA": {"youngs_modulus_gpa": 7.0, "kind": "filament",
                              "nozzle_temp_c": 200.0}},
        "flexures": {"f": {"length_mm": 10, "width_mm": 10,
                           "base_layers": [["PLA", 0.2]]}},
    })
    override = {"PLA": Material("PLA", 9.0, "filament", 210.0)}
    doc = parse_design(text, materials_override=override)
    assert doc.flexures["f"].base.layers[0][0].youngs_modulus_gpa == 9.0
    assert doc.materials["PLA"].youngs_modulus_gpa == 9.0


def test_syntax_error_reports_line_and_column():
    with pytest.raises(DesignError, match=r"line 2 column"):
        parse_design('{\n  "schema_version": oops\n}')


def test_unknown_keys_fail_with_dotted_path():
    text = json.dumps({
        "schema_version": 1,
        "flexures": {"f": {"length_mm": 10, "width_mm": 10,
                           "base_layers": [["PLA", 0.2]], "bogus": 1}},
    })
    with pytest.raises(DesignError, match=r"flexures\.f.*bogus"):
        parse_design(text)
    with pytest.raises(DesignError, match=r"\$"):
        parse_design('{"schema_version": 1, "extra_top": {}}')


def test_wrong_schema_version_rejected():
    with pytest.raises(DesignError, match="schema_version"):
        parse_design('{"schema_version": 2}')


def test_dangling_references_are_named():
    base = {
        "schema_version": 1,
        "flexures": {"f": {"length_mm": 10, "width_mm": 10,
                           "base_layers": [["PLA", 0.2]]}},
    }
    bad_material = dict(base)
    bad_material["flexures"] = {"f": {"length_mm": 10, "width_mm": 10,
                                      "base_layers": [["mystery", 0.2]]}}
    with pytest.raises(DanglingReferenceError, match="mystery"):
        parse_design(json.dumps(bad_material))

    bad_limb = dict(base)
    bad_limb["limbs"] = {"leg": {"segments": [
        {"joint": {"flexure": "ghost", "joint_length_mm": 5,
                   "routing_offset_mm": 2, "jam_angle_deg": 30}}]}}
    with pytest.raises(DanglingReferenceError, match="ghost"):
        parse_design(json.dumps(bad_limb))

    bad_export = dict(base)
    bad_export["export"] = {"parts": [
        {"kind": "flexure", "ref": "nope", "file": "x.stl"}]}
    with pytest.raises(DanglingReferenceError, match="nope"):
        parse_design(json.dumps(bad_export))


def test_name_comes_from_the_section_key_not_the_body():
    material = {"name": "X", "youngs_modulus_gpa": 1.0, "kind": "base_film"}
    with pytest.raises(DesignError, match=r"materials\.X.*'name'"):
        parse_design(json.dumps({"schema_version": 1,
                                 "materials": {"X": material}}))
    with pytest.raises(DesignError, match=r"^FLEXOKIT_MATERIALS\.X.*'name'"):
        parse_materials(json.dumps({"X": material}))
    flexure = {"name": "f", "length_mm": 10, "width_mm": 10,
               "base_layers": [["PLA", 0.2]]}
    with pytest.raises(DesignError, match=r"flexures\.f.*'name'"):
        parse_design(json.dumps({"schema_version": 1,
                                 "flexures": {"f": flexure}}))


def test_scalar_diagnostics_name_the_field_and_type():
    def error(flexure):
        with pytest.raises(DesignError) as info:
            parse_design(json.dumps({"schema_version": 1,
                                     "flexures": {"f": flexure}}))
        return str(info.value)

    layers = [["PLA", 0.2]]
    assert error({"width_mm": 10, "base_layers": layers}) == \
        "flexures.f.length_mm: missing required number"
    assert error({"length_mm": True, "width_mm": 10,
                  "base_layers": layers}) == \
        "flexures.f.length_mm: expected a number"
    assert error({"length_mm": 10, "width_mm": 10, "base_layers": layers,
                  "rib_material": 3}) == \
        "flexures.f.rib_material: expected a string"
    with pytest.raises(DesignError, match=r"^\$\.schema_version: expected "
                                          r"an integer$"):
        parse_design('{"schema_version": 1.0}')


def test_readme_joint_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        "utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    examples = [json.loads(b) for b in blocks if b.startswith('{"joint"')]
    assert len(examples) == 1
    doc = json.loads(bundled_text("hind_leg.json"))
    segments = doc["limbs"]["hind_leg"]["segments"]
    segments[3] = examples[0]
    joint = parse_design(json.dumps(doc)).limbs["hind_leg"].joints[1]
    assert joint == JointEntry(**examples[0]["joint"])


def test_limb_segments_must_be_links_or_joints():
    text = json.dumps({
        "schema_version": 1,
        "flexures": {"f": {"length_mm": 10, "width_mm": 10,
                           "base_layers": [["PLA", 0.2]]}},
        "limbs": {"leg": {"segments": [{"what": 1}]}},
    })
    with pytest.raises(DesignError, match=r"limbs\.leg\.segments\[0\]"):
        parse_design(text)


# ------------------------------------------------------- domain invariants

def test_laminate_film_must_be_single_and_first():
    pla = DEFAULT_MATERIALS["PLA"]
    pc = DEFAULT_MATERIALS["PC"]
    with pytest.raises(DesignError):
        LaminateStack(((pla, 0.2), (pc, 0.1)))
    with pytest.raises(DesignError):
        LaminateStack(((pc, 0.1), (pc, 0.1)))
    stack = LaminateStack(((pc, 0.1), (pla, 0.2)))
    assert sum(t for _, t in stack.layers) == pytest.approx(0.3)
    assert stack.printed_thickness_mm == pytest.approx(0.2)


def test_material_nozzle_temp_tied_to_kind():
    with pytest.raises(DesignError):
        Material("X", 1.0, "filament")  # filament needs a nozzle temp
    with pytest.raises(DesignError):
        Material("Y", 1.0, "base_film", 200.0)  # films never have one


def test_joint_entry_needs_exactly_one_jam_source():
    with pytest.raises(DesignError):
        JointEntry("f", 5.0, 2.0, flexional_limit="a", extensional_limit="b")
    with pytest.raises(DesignError):
        JointEntry("f", 5.0, 2.0)  # no limit and no explicit angle
    entry = JointEntry("f", 5.0, 2.0, jam_angle_deg=30.0)
    assert entry.sense == 1


def test_gait_entry_needs_four_distinct_limbs():
    with pytest.raises(DesignError):
        GaitEntry(("a", "b"), ("a", "c"), (1.0,))
    with pytest.raises(DesignError):
        GaitEntry(("a", "b"), ("c", "d"), (-1.0,))


# (document, keys to the changed item, new value, dotted path, message)
SAMPLE, HIND, QUAD = BUNDLED
_JOINT = ("limbs", "hind_leg", "segments", 1, "joint")
_RIBS = ("flexures", "sample", "ribs")


@pytest.mark.parametrize("document, keys, value, path, message", [
    pytest.param(HIND, ("materials", "PLA", "kind"), "resin", "materials.PLA",
                 "material kind must be one of ('filament', 'base_film')",
                 id="material_kind"),
    pytest.param(HIND, ("materials", "PLA", "youngs_modulus_gpa"), 0,
                 "materials.PLA", "youngs_modulus_gpa must be positive",
                 id="material_modulus"),
    pytest.param(SAMPLE, ("flexures", "sample", "base_layers"), [],
                 "flexures.sample.base_layers",
                 "expected a non-empty list of [material, thickness_mm]",
                 id="empty_laminate"),
    pytest.param(SAMPLE, ("flexures", "sample", "base_layers", 1, 1), 0,
                 "flexures.sample.base_layers",
                 "layer thicknesses must be positive", id="zero_layer"),
    pytest.param(SAMPLE, (*_RIBS, "period_mm"), 0, "flexures.sample.ribs",
                 "period_mm must be positive", id="rib_period"),
    pytest.param(SAMPLE, (*_RIBS, "width_ratio"), 1.5, "flexures.sample.ribs",
                 "width_ratio must lie in [0, 1]", id="rib_width_ratio"),
    pytest.param(SAMPLE, (*_RIBS, "feature_height_mm"), -1,
                 "flexures.sample.ribs",
                 "feature_height_mm must be nonnegative", id="rib_height"),
    pytest.param(SAMPLE, ("flexures", "sample", "width_mm"), 0,
                 "flexures.sample",
                 "flexure length and width must be positive",
                 id="flexure_size"),
    pytest.param(SAMPLE, (*_RIBS, "period_mm"), 40, "flexures.sample",
                 "rib period cannot exceed the flexure length",
                 id="period_past_length"),
    pytest.param(SAMPLE, ("flexures", "sample", "base_layers"), [["PC", 0.1]],
                 "flexures.sample",
                 "a ribbed flexure needs a rib_material or a printed base "
                 "layer", id="ribs_without_material"),
    pytest.param(SAMPLE, ("process", "z_offset_mm"), 0, "process",
                 "process parameters must be finite and positive",
                 id="process"),
    pytest.param(HIND, ("limbs", "hind_leg", "segments", 0, "link_mm"), -1,
                 "limbs.hind_leg.segments[0]",
                 "link length must be nonnegative", id="negative_link"),
    pytest.param(HIND, (*_JOINT, "sense"), 0, "limbs.hind_leg.segments[1].joint",
                 "joint sense must be +1 or -1", id="joint_sense"),
    pytest.param(HIND, (*_JOINT, "routing_offset_mm"), 0,
                 "limbs.hind_leg.segments[1].joint",
                 "joint length and routing offset must be positive",
                 id="joint_lengths"),
    pytest.param(HIND, ("limbs", "hind_leg", "segments"), [{"link_mm": 10}],
                 "limbs.hind_leg", "a limb needs at least one joint",
                 id="limb_without_joints"),
    pytest.param(SAMPLE, ("export", "parts", 0, "kind"), "gear",
                 "export.parts[0]",
                 "export kind must be one of ('flexure', 'flexional', "
                 "'extensional')", id="export_kind"),
    pytest.param(SAMPLE, ("export", "parts", 2, "count"), 0, "export.parts[2]",
                 "export needs count >= 2 and facets >= 8", id="export_count"),
    # one feature has no neighbour to jam against
    pytest.param(SAMPLE, ("export", "parts", 2, "count"), 1, "export.parts[2]",
                 "export needs count >= 2 and facets >= 8",
                 id="export_count_one"),
    pytest.param(SAMPLE, ("export", "parts", 2, "facets"), 4,
                 "export.parts[2]", "export needs count >= 2 and facets >= 8",
                 id="export_facets"),
    pytest.param(SAMPLE, ("flexures",), [], "flexures",
                 "expected a JSON object", id="section_not_object"),
    pytest.param(SAMPLE, ("flexures", "sample"), 5, "flexures.sample",
                 "expected a JSON object", id="entry_not_object"),
    pytest.param(SAMPLE, ("flexures", "sample", "base_layers"), "PLA",
                 "flexures.sample.base_layers",
                 "expected a non-empty list of [material, thickness_mm]",
                 id="layers_not_list"),
    pytest.param(SAMPLE, ("flexures", "sample", "base_layers", 1), ["PLA"],
                 "flexures.sample.base_layers[1]",
                 "expected [material, thickness_mm]", id="layer_not_pair"),
    pytest.param(HIND, ("limbs", "hind_leg", "segments"), [],
                 "limbs.hind_leg.segments", "expected a non-empty segment list",
                 id="empty_segments"),
    pytest.param(QUAD, ("gait", "pair_a"), ["front_left"], "gait.pair_a",
                 "expected a pair of limb names", id="gait_pair"),
    pytest.param(QUAD, ("gait", "pair_b", 1), "tail", "gait.pair_b",
                 "reference to undefined name 'tail'", id="gait_limb"),
    pytest.param(QUAD, ("gait", "frequencies_hz", 2), "fast",
                 "gait.frequencies_hz", "expected a list of numbers",
                 id="gait_frequency"),
    pytest.param(SAMPLE, ("export", "parts"), {}, "export.parts",
                 "expected a list of parts", id="export_parts_not_list"),
])
def test_document_rejections_name_the_rule_and_the_field(document, keys,
                                                         value, path, message):
    doc = json.loads(bundled_text(document))
    *parents, last = keys
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    with pytest.raises(DesignError) as info:
        parse_design(json.dumps(doc))
    assert info.value.path == path
    assert str(info.value) == f"{path}: {message}"


def test_limit_entries_check_their_geometry_when_built():
    with pytest.raises(GeometryError, match="spacing and head_radius"):
        FlexionalLimitEntry(0.0, 2.0, 4.0)
    with pytest.raises(GeometryError, match="diagonal must be positive"):
        ExtensionalLimitEntry(0.0, 5.4, 1.8, 2.0, 45.0)
    entry = ExtensionalLimitEntry(7.0, 5.4, 1.8, 2.0, 45.0)
    assert entry.spec.incline == pytest.approx(math.pi / 4, rel=1e-15)
    # the spec is derived, so it is neither a document key nor compared
    assert to_document(entry) == {"diagonal_mm": 7.0, "base_width_mm": 5.4,
                                  "tip_radius_mm": 1.8, "mount_height_mm": 2.0,
                                  "incline_deg": 45.0}
    assert entry == ExtensionalLimitEntry(7.0, 5.4, 1.8, 2.0, 45.0)


# ------------------------------------------------------ process validation

def _config(bed=95.0, z=0.02, nozzle=215.0, material="PLA"):
    return PrintProcessConfig(bed_temp_c=bed, z_offset_mm=z,
                              material=DEFAULT_MATERIALS[material],
                              pc_thickness_mm=0.1, nozzle_temp_c=nozzle)


def codes(report):
    return [e.code for e in report.entries]


CODES = {"bed_temp_peak_band", "bed_temp_ok", "bed_temp_low_adhesion",
         "bed_temp_high", "z_offset_ok", "z_offset_out_of_range",
         "nozzle_temp_ok", "nozzle_temp_mismatch", "adhesion_reference"}


def test_recommended_settings_validate_clean_with_peak_band():
    report = validate_process(_config())
    assert codes(report) == ["bed_temp_peak_band", "z_offset_ok",
                             "nozzle_temp_ok", "adhesion_reference"]
    assert not report.has_warnings
    assert all(e.level == "ok" for e in report.entries)


def test_cold_bed_warns_about_weak_adhesion():
    report = validate_process(_config(bed=50.0))
    assert "bed_temp_low_adhesion" in codes(report)
    entry = next(e for e in report.entries if e.code == "bed_temp_low_adhesion")
    assert entry.level == "warning"
    assert "weak film bonding" in entry.message
    assert report.has_warnings


def test_hot_bed_warns_about_film_deformation():
    report = validate_process(_config(bed=105.0))
    entry = next(e for e in report.entries if e.code == "bed_temp_high")
    assert entry.level == "warning"
    assert "deform" in entry.message


def test_bed_inside_range_but_below_peak_is_plain_ok():
    report = validate_process(_config(bed=85.0))
    assert "bed_temp_ok" in codes(report)
    assert not validate_process(_config(bed=85.0)).has_warnings


def test_z_offset_out_of_range_warns_about_contact_pressure():
    report = validate_process(_config(z=0.05))
    entry = next(e for e in report.entries
                 if e.code == "z_offset_out_of_range")
    assert entry.level == "warning"
    assert "first-layer contact pressure" in entry.message
    # both window edges are acceptable
    assert "z_offset_ok" in codes(validate_process(_config(z=0.01)))
    assert "z_offset_ok" in codes(validate_process(_config(z=0.03)))


def test_nozzle_temperature_checked_against_material():
    mismatch = validate_process(_config(nozzle=230.0))
    entry = next(e for e in mismatch.entries
                 if e.code == "nozzle_temp_mismatch")
    assert "PLA" in entry.message and "215" in entry.message
    silent = validate_process(_config(nozzle=None))
    assert not any(c.startswith("nozzle") for c in codes(silent))


def test_every_report_carries_the_adhesion_baseline():
    for cfg in (_config(), _config(bed=50.0), _config(z=0.05)):
        report = validate_process(cfg)
        entry = report.entries[-1]
        assert entry.code == "adhesion_reference"
        assert entry.value == ADHESIVE_BASELINE_N_PER_CM == 11.2
        assert set(codes(report)) <= CODES
        assert {e.level for e in report.entries} <= {"ok", "warning"}


def test_report_renderings():
    report = validate_process(_config(bed=50.0))
    text = report.to_text()
    assert text.endswith("\n")
    assert "[WARNING] bed_temp_low_adhesion:" in text
    payload = report.to_json()
    assert payload[0]["code"] == "bed_temp_low_adhesion"
    assert payload[-1]["value"] == 11.2


# Whole reports pinned literally on both sides of each window end, and for
# a nozzle temperature that is unset, equal, different or not comparable.

def _entry(level, code, message, value):
    return {"level": level, "code": code, "message": message, "value": value}


BED_95 = _entry("ok", "bed_temp_peak_band", "bed temperature 95 C sits in "
                "the peak peel-strength band 90-100 C", 95.0)
Z_002 = _entry("ok", "z_offset_ok", "Z-offset 0.02 mm is inside the "
               "recommended range 0.01-0.03 mm", 0.02)
NOZZLE_215 = _entry("ok", "nozzle_temp_ok",
                    "nozzle temperature 215 C matches PLA", 215.0)
REFERENCE = _entry("ok", "adhesion_reference", "reference: a well-bonded "
                   "seam compares to a commercial-adhesive baseline of "
                   "11.2 N/cm peel strength", 11.2)
Z_OUT = ("mm is outside 0.01-0.03 mm; first-layer contact pressure will be "
         "off (too low bonds poorly, too high loses it entirely)")

BOUNDARY_CASES = [
    ({"bed": 79.9}, [_entry(
        "warning", "bed_temp_low_adhesion", "bed temperature 79.9 C is "
        "outside recommended adhesion range 80-100 C; expect weak film "
        "bonding", 79.9), Z_002, NOZZLE_215, REFERENCE]),
    ({"bed": 80.0}, [_entry(
        "ok", "bed_temp_ok", "bed temperature 80 C is inside the "
        "recommended range 80-100 C", 80.0), Z_002, NOZZLE_215, REFERENCE]),
    ({"bed": 89.9}, [_entry(
        "ok", "bed_temp_ok", "bed temperature 89.9 C is inside the "
        "recommended range 80-100 C", 89.9), Z_002, NOZZLE_215, REFERENCE]),
    ({"bed": 90.0}, [_entry(
        "ok", "bed_temp_peak_band", "bed temperature 90 C sits in the peak "
        "peel-strength band 90-100 C", 90.0), Z_002, NOZZLE_215, REFERENCE]),
    ({"bed": 100.0}, [_entry(
        "ok", "bed_temp_peak_band", "bed temperature 100 C sits in the peak "
        "peel-strength band 90-100 C", 100.0), Z_002, NOZZLE_215,
        REFERENCE]),
    ({"bed": 100.1}, [_entry(
        "warning", "bed_temp_high", "bed temperature 100.1 C is outside "
        "recommended adhesion range 80-100 C; the base film may deform",
        100.1), Z_002, NOZZLE_215, REFERENCE]),
    ({"z": 0.0099}, [BED_95, _entry(
        "warning", "z_offset_out_of_range", "Z-offset 0.0099 " + Z_OUT,
        0.0099), NOZZLE_215, REFERENCE]),
    ({"z": 0.01}, [BED_95, _entry(
        "ok", "z_offset_ok", "Z-offset 0.01 mm is inside the recommended "
        "range 0.01-0.03 mm", 0.01), NOZZLE_215, REFERENCE]),
    ({"z": 0.03}, [BED_95, _entry(
        "ok", "z_offset_ok", "Z-offset 0.03 mm is inside the recommended "
        "range 0.01-0.03 mm", 0.03), NOZZLE_215, REFERENCE]),
    ({"z": 0.031}, [BED_95, _entry(
        "warning", "z_offset_out_of_range", "Z-offset 0.031 " + Z_OUT,
        0.031), NOZZLE_215, REFERENCE]),
    ({"nozzle": None}, [BED_95, Z_002, REFERENCE]),
    ({}, [BED_95, Z_002, NOZZLE_215, REFERENCE]),
    ({"nozzle": 230.0}, [BED_95, Z_002, _entry(
        "warning", "nozzle_temp_mismatch",
        "nozzle temperature 230 C differs from PLA's declared 215 C", 230.0),
        REFERENCE]),
    # PC declares no nozzle temperature, so the set one is not compared
    ({"material": "PC"}, [BED_95, Z_002, REFERENCE]),
]

BOUNDARY_TEXT = """\
[WARNING] bed_temp_low_adhesion: bed temperature 79.9 C is outside recommended adhesion range 80-100 C; expect weak film bonding
[OK     ] z_offset_ok: Z-offset 0.02 mm is inside the recommended range 0.01-0.03 mm
[OK     ] nozzle_temp_ok: nozzle temperature 215 C matches PLA
[OK     ] adhesion_reference: reference: a well-bonded seam compares to a commercial-adhesive baseline of 11.2 N/cm peel strength

[OK] bed_temp_ok: bed temperature 80 C is inside the recommended range 80-100 C
[OK] z_offset_ok: Z-offset 0.02 mm is inside the recommended range 0.01-0.03 mm
[OK] nozzle_temp_ok: nozzle temperature 215 C matches PLA
[OK] adhesion_reference: reference: a well-bonded seam compares to a commercial-adhesive baseline of 11.2 N/cm peel strength

[OK] bed_temp_ok: bed temperature 89.9 C is inside the recommended range 80-100 C
[OK] z_offset_ok: Z-offset 0.02 mm is inside the recommended range 0.01-0.03 mm
[OK] nozzle_temp_ok: nozzle temperature 215 C matches PLA
[OK] adhesion_reference: reference: a well-bonded seam compares to a commercial-adhesive baseline of 11.2 N/cm peel strength

[OK] bed_temp_peak_band: bed temperature 90 C sits in the peak peel-strength band 90-100 C
[OK] z_offset_ok: Z-offset 0.02 mm is inside the recommended range 0.01-0.03 mm
[OK] nozzle_temp_ok: nozzle temperature 215 C matches PLA
[OK] adhesion_reference: reference: a well-bonded seam compares to a commercial-adhesive baseline of 11.2 N/cm peel strength

[OK] bed_temp_peak_band: bed temperature 100 C sits in the peak peel-strength band 90-100 C
[OK] z_offset_ok: Z-offset 0.02 mm is inside the recommended range 0.01-0.03 mm
[OK] nozzle_temp_ok: nozzle temperature 215 C matches PLA
[OK] adhesion_reference: reference: a well-bonded seam compares to a commercial-adhesive baseline of 11.2 N/cm peel strength

[WARNING] bed_temp_high: bed temperature 100.1 C is outside recommended adhesion range 80-100 C; the base film may deform
[OK     ] z_offset_ok: Z-offset 0.02 mm is inside the recommended range 0.01-0.03 mm
[OK     ] nozzle_temp_ok: nozzle temperature 215 C matches PLA
[OK     ] adhesion_reference: reference: a well-bonded seam compares to a commercial-adhesive baseline of 11.2 N/cm peel strength

[OK     ] bed_temp_peak_band: bed temperature 95 C sits in the peak peel-strength band 90-100 C
[WARNING] z_offset_out_of_range: Z-offset 0.0099 mm is outside 0.01-0.03 mm; first-layer contact pressure will be off (too low bonds poorly, too high loses it entirely)
[OK     ] nozzle_temp_ok: nozzle temperature 215 C matches PLA
[OK     ] adhesion_reference: reference: a well-bonded seam compares to a commercial-adhesive baseline of 11.2 N/cm peel strength

[OK] bed_temp_peak_band: bed temperature 95 C sits in the peak peel-strength band 90-100 C
[OK] z_offset_ok: Z-offset 0.01 mm is inside the recommended range 0.01-0.03 mm
[OK] nozzle_temp_ok: nozzle temperature 215 C matches PLA
[OK] adhesion_reference: reference: a well-bonded seam compares to a commercial-adhesive baseline of 11.2 N/cm peel strength

[OK] bed_temp_peak_band: bed temperature 95 C sits in the peak peel-strength band 90-100 C
[OK] z_offset_ok: Z-offset 0.03 mm is inside the recommended range 0.01-0.03 mm
[OK] nozzle_temp_ok: nozzle temperature 215 C matches PLA
[OK] adhesion_reference: reference: a well-bonded seam compares to a commercial-adhesive baseline of 11.2 N/cm peel strength

[OK     ] bed_temp_peak_band: bed temperature 95 C sits in the peak peel-strength band 90-100 C
[WARNING] z_offset_out_of_range: Z-offset 0.031 mm is outside 0.01-0.03 mm; first-layer contact pressure will be off (too low bonds poorly, too high loses it entirely)
[OK     ] nozzle_temp_ok: nozzle temperature 215 C matches PLA
[OK     ] adhesion_reference: reference: a well-bonded seam compares to a commercial-adhesive baseline of 11.2 N/cm peel strength

[OK] bed_temp_peak_band: bed temperature 95 C sits in the peak peel-strength band 90-100 C
[OK] z_offset_ok: Z-offset 0.02 mm is inside the recommended range 0.01-0.03 mm
[OK] adhesion_reference: reference: a well-bonded seam compares to a commercial-adhesive baseline of 11.2 N/cm peel strength

[OK] bed_temp_peak_band: bed temperature 95 C sits in the peak peel-strength band 90-100 C
[OK] z_offset_ok: Z-offset 0.02 mm is inside the recommended range 0.01-0.03 mm
[OK] nozzle_temp_ok: nozzle temperature 215 C matches PLA
[OK] adhesion_reference: reference: a well-bonded seam compares to a commercial-adhesive baseline of 11.2 N/cm peel strength

[OK     ] bed_temp_peak_band: bed temperature 95 C sits in the peak peel-strength band 90-100 C
[OK     ] z_offset_ok: Z-offset 0.02 mm is inside the recommended range 0.01-0.03 mm
[WARNING] nozzle_temp_mismatch: nozzle temperature 230 C differs from PLA's declared 215 C
[OK     ] adhesion_reference: reference: a well-bonded seam compares to a commercial-adhesive baseline of 11.2 N/cm peel strength

[OK] bed_temp_peak_band: bed temperature 95 C sits in the peak peel-strength band 90-100 C
[OK] z_offset_ok: Z-offset 0.02 mm is inside the recommended range 0.01-0.03 mm
[OK] adhesion_reference: reference: a well-bonded seam compares to a commercial-adhesive baseline of 11.2 N/cm peel strength
"""


@pytest.mark.parametrize("kwargs,expected", BOUNDARY_CASES, ids=[
    "-".join(f"{k}={v}" for k, v in kwargs.items()) or "defaults"
    for kwargs, _ in BOUNDARY_CASES])
def test_report_json_at_window_edges(kwargs, expected):
    assert validate_process(_config(**kwargs)).to_json() == expected


def test_report_text_at_window_edges():
    text = "\n".join(validate_process(_config(**kwargs)).to_text()
                     for kwargs, _ in BOUNDARY_CASES)
    assert text == BOUNDARY_TEXT

"""Document parsing, serialization round trips, and process validation."""

import json
import math
import re
from pathlib import Path

import pytest

from conftest import bundled_text
from flexokit.core import (ADHESIVE_BASELINE_N_PER_CM, DEFAULT_MATERIALS,
                           GaitEntry, JointEntry, LaminateStack, Material,
                           PrintProcessConfig, VALIDATION_CODES,
                           parse_design, parse_materials, serialize_design,
                           validate_process)
from flexokit.errors import DanglingReferenceError, DesignError

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
    assert stack.total_thickness_mm == pytest.approx(0.3)
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


# ------------------------------------------------------ process validation

def _config(bed=95.0, z=0.02, nozzle=215.0):
    return PrintProcessConfig(bed_temp_c=bed, z_offset_mm=z,
                              material=DEFAULT_MATERIALS["PLA"],
                              pc_thickness_mm=0.1, nozzle_temp_c=nozzle)


def codes(report):
    return [e.code for e in report.entries]


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
        assert set(codes(report)) <= set(VALIDATION_CODES)
        assert {e.level for e in report.entries} <= {"ok", "warning"}


def test_report_renderings():
    report = validate_process(_config(bed=50.0))
    text = report.to_text()
    assert text.endswith("\n")
    assert "[WARNING] bed_temp_low_adhesion:" in text
    payload = report.to_json()
    assert payload[0]["code"] == "bed_temp_low_adhesion"
    assert payload[-1]["value"] == 11.2

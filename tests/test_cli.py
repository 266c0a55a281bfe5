"""End-to-end CLI behavior: files, formats, exit codes, stability."""

import json
import math
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from helpers import read_stl
from flexokit.cli import main

def bundled_path(name: str) -> str:
    return str(resources.files("flexokit") / "data" / name)


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [row.split(",") for row in rows]


def mutated_sample(tmp_path, mutate):
    """Path of a copy of the bundled sample document changed by mutate."""
    with open(bundled_path("sample_flexure.json")) as f:
        doc = json.load(f)
    mutate(doc)
    path = tmp_path / "sample_flexure.json"
    path.write_text(json.dumps(doc))
    return path


def one_json_line(capsys):
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    return json.loads(err)


# ------------------------------------------------------------------ validate

def test_validate_clean_document(tmp_path, capsys):
    assert run(["validate", "-i", bundled_path("sample_flexure.json"),
                "-o", tmp_path]) == 0
    report = json.loads((tmp_path / "validation_report.json").read_text())
    assert report["document"] == "sample_flexure.json"
    assert [e["code"] for e in report["entries"]] == [
        "bed_temp_peak_band", "z_offset_ok", "nozzle_temp_ok",
        "adhesion_reference"]
    out = capsys.readouterr().out
    assert "bed_temp_peak_band" in out
    assert "wrote" in out


def test_validate_document_without_process_section(tmp_path):
    assert run(["validate", "-i", bundled_path("hind_leg.json"),
                "-o", tmp_path]) == 0
    report = json.loads((tmp_path / "validation_report.json").read_text())
    assert report["entries"] == []


def test_validate_strict_turns_warnings_into_exit_1(tmp_path):
    doc = {"schema_version": 1,
           "process": {"bed_temp_c": 50.0, "z_offset_mm": 0.02,
                       "material": "PLA", "pc_thickness_mm": 0.1}}
    path = tmp_path / "cold.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", "-i", path, "-o", tmp_path / "a"]) == 0
    assert run(["validate", "-i", path, "-o", tmp_path / "b",
                "--strict"]) == 1


def test_errors_exit_2_with_json_diagnostic(tmp_path, capsys):
    assert run(["validate", "-i", tmp_path / "missing.json",
                "-o", tmp_path]) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "DesignError"
    assert "cannot read" in diagnostic["message"]


# ---------------------------------------------------------- predict-stiffness

def test_predict_stiffness_single_row(tmp_path):
    assert run(["predict-stiffness", "-i", bundled_path("sample_flexure.json"),
                "-o", tmp_path]) == 0
    header, rows = read_csv(tmp_path / "stiffness.csv")
    assert header == ["width_ratio", "feature_height_mm", "EI_eff_Nmm2",
                      "k_tip_N_per_m", "k_exact_N_per_m"]
    assert len(rows) == 1
    assert float(rows[0][0]) == 0.5
    assert float(rows[0][3]) == pytest.approx(63.397084612061406, rel=1e-12)


def test_predict_stiffness_sweep_is_monotone(tmp_path):
    assert run(["predict-stiffness", "-i", bundled_path("sample_flexure.json"),
                "-o", tmp_path, "--sweep", "width_ratio=0:0.8:0.1"]) == 0
    _, rows = read_csv(tmp_path / "stiffness.csv")
    assert len(rows) == 9
    k = [float(r[3]) for r in rows]
    assert all(b > a for a, b in zip(k, k[1:]))
    assert k[0] == pytest.approx(32.044759653270305, rel=1e-12)


def test_predict_stiffness_json_format(tmp_path):
    assert run(["predict-stiffness", "-i", bundled_path("sample_flexure.json"),
                "-o", tmp_path, "--format", "json", "--flexure",
                "plain_plate"]) == 0
    payload = json.loads((tmp_path / "stiffness.json").read_text())
    assert payload[0]["width_ratio"] == 0.0
    assert run(["predict-stiffness", "-i", bundled_path("sample_flexure.json"),
                "-o", tmp_path, "--flexure", "plain_plate",
                "--sweep", "width_ratio=0:1:0.5"]) == 2  # no ribs to sweep


@pytest.mark.parametrize("mutate, flags, error", [
    (lambda doc: doc["flexures"]["sample"].update(length_mm=1e300), [],
     "OverflowError"),
    (lambda doc: doc["flexures"]["sample"]["base_layers"][1].__setitem__(
        1, 1e300), [], "OverflowError"),
    (lambda doc: None, ["--sweep", "feature_height_mm=0:1e300:1e297"],
     "OverflowError"),
    # L**3 underflows to 0
    (lambda doc: doc["flexures"]["plain_plate"].update(length_mm=1e-300),
     ["--flexure", "plain_plate"], "ZeroDivisionError"),
], ids=["huge_length", "huge_layer", "huge_rib_sweep", "tiny_length"])
def test_stiffness_arithmetic_errors_exit_2_unwritten(tmp_path, capsys,
                                                      mutate, flags, error):
    out = tmp_path / "out"
    assert run(["predict-stiffness", "-i", mutated_sample(tmp_path, mutate),
                "-o", out, *flags]) == 2
    assert one_json_line(capsys)["error"] == error
    assert not out.exists()


# ----------------------------------------------------------------- solve-limit

def test_solve_limit_flexional_defaults(tmp_path):
    assert run(["solve-limit", "--flexional", "-o", tmp_path]) == 0
    payload = json.loads((tmp_path / "solve_limit.json").read_text())
    assert payload["angle_rad"] == pytest.approx(0.4899282978480517, rel=1e-9)
    assert abs(payload["residual"]) < 1e-10
    assert payload["inputs"]["kind"] == "flexional"
    assert payload["inputs"]["stem_height_mm"] == 4.0


def test_solve_limit_extensional_sweep_rows(tmp_path):
    assert run(["solve-limit", "--extensional", "-o", tmp_path,
                "--sweep", "L=6.5:7.5:0.25"]) == 0
    header, rows = read_csv(tmp_path / "solve_limit.csv")
    assert header == ["L", "angle_rad", "angle_deg", "residual"]
    expected = [0.029166539546670835, 0.08060592084554838,
                0.1294284347328867, 0.1758288189921077, 0.21998295686265767]
    assert len(rows) == 5
    for row, want in zip(rows, expected):
        assert float(row[1]) == pytest.approx(want, rel=1e-9)
        assert abs(float(row[3])) < 1e-15


def test_solve_limit_infeasible_geometry_exits_2(tmp_path, capsys):
    assert run(["solve-limit", "--extensional", "--diagonal-mm", "6.0",
                "-o", tmp_path]) == 2
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["error"] == "ContactAtRestError"


@pytest.mark.parametrize("argv", [
    ["solve-limit", "--flexional", "--stem-height-mm", "1e10"],
    ["design", "--target", "stem_height", "--angle-deg", "1e-300"],
    ["design", "--target", "stem_height", "--angle-deg", "1e-320"],
    # a subnormal lever arm: the extensional angle overflows to inf
    ["solve-limit", "--extensional", "--mount-height-mm", "1e-320",
     "--incline-deg", "1e-320"],
    # a finite angle of ~1e308 rad that overflows in degrees
    ["solve-limit", "--extensional", "--diagonal-mm", "1e308",
     "--incline-deg", "1e-320"],
], ids=["tall_stem", "tiny_angle", "subnormal_angle", "subnormal_lever",
        "huge_angle"])
def test_jam_angle_below_the_solver_floor_exits_2(tmp_path, capsys, argv):
    assert run([*argv, "-o", tmp_path / "out"]) == 2
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["error"] == "GeometryError"
    assert not (tmp_path / "out").exists()


def test_solve_limit_rejects_unknown_sweep_parameter(tmp_path, capsys):
    assert run(["solve-limit", "--flexional", "-o", tmp_path,
                "--sweep", "L=6:7:0.5"]) == 2
    assert "sweep" in json.loads(capsys.readouterr().err)["message"]


# ---------------------------------------------------------------------- design

def test_design_width_ratio_for_stiffness(tmp_path):
    assert run(["design", "--target", "width_ratio",
                "--stiffness-n-per-m", "50",
                "-i", bundled_path("sample_flexure.json"),
                "-o", tmp_path]) == 0
    payload = json.loads((tmp_path / "design.json").read_text())
    assert payload["template_flexure"] == "sample"
    assert payload["width_ratio"] == pytest.approx(0.36307032827316443,
                                                   rel=1e-6)
    assert payload["achieved_n_per_m"] == pytest.approx(50.0, rel=1e-9)


def test_design_feature_height_for_stiffness(tmp_path):
    assert run(["design", "--target", "feature_height",
                "--stiffness-n-per-m", "60",
                "-i", bundled_path("sample_flexure.json"),
                "-o", tmp_path]) == 0
    payload = json.loads((tmp_path / "design.json").read_text())
    assert payload["feature_height_mm"] == pytest.approx(
        0.4162731043249434, rel=1e-6)


def test_design_stem_height_for_angle(tmp_path):
    assert run(["design", "--target", "stem_height", "--angle-deg", "90",
                "-o", tmp_path]) == 0
    payload = json.loads((tmp_path / "design.json").read_text())
    assert payload["stem_height_mm"] == pytest.approx(0.9912915094592977,
                                                      rel=1e-9)
    assert abs(payload["residual"]) < 1e-10
    assert payload["angle_deg"] == 90.0
    # the solved stem height jams at the target angle going forward
    assert run(["solve-limit", "--flexional", "--stem-height-mm",
                repr(payload["stem_height_mm"]), "-o", tmp_path]) == 0
    forward = json.loads((tmp_path / "solve_limit.json").read_text())
    assert forward["angle_deg"] == pytest.approx(90.0, rel=1e-9)


def test_design_diagonal_for_angle(tmp_path):
    assert run(["design", "--target", "diagonal", "--angle-deg", "12.604094993038734",
                "-o", tmp_path]) == 0
    payload = json.loads((tmp_path / "design.json").read_text())
    assert payload["diagonal_mm"] == pytest.approx(7.5, rel=1e-9)


def test_design_flag_requirements(tmp_path, capsys):
    assert run(["design", "--target", "width_ratio", "-o", tmp_path]) == 2
    assert "stiffness" in json.loads(capsys.readouterr().err)["message"]
    assert run(["design", "--target", "diagonal", "-o", tmp_path]) == 2
    assert "angle" in json.loads(capsys.readouterr().err)["message"]
    assert run(["design", "--target", "width_ratio",
                "--stiffness-n-per-m", "5000",
                "-i", bundled_path("sample_flexure.json"),
                "-o", tmp_path]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "TargetRangeError"


# ------------------------------------------------------------- simulate-limb

def test_simulate_limb_outputs(tmp_path):
    assert run(["simulate-limb", "-i", bundled_path("hind_leg.json"),
                "-o", tmp_path, "--steps", "41"]) == 0
    header, rows = read_csv(tmp_path / "hind_leg_trajectory.csv")
    assert header == ["pull_mm", "foot_x_mm", "foot_y_mm", "theta_0_rad",
                      "theta_1_rad", "tension_N"]
    assert len(rows) == 81  # 41 up, mirrored back down
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][3]) == 0.0
    # mirrored cycle: last row equals the first
    assert rows[0] == rows[-1]

    metrics = json.loads((tmp_path / "hind_leg_metrics.json").read_text())
    # stroke extremes sit at the cycle endpoints, so the step count is moot
    assert metrics["stroke_distance_mm"] == pytest.approx(
        26.271777161190293, rel=1e-12)
    assert metrics["stroke_ratio"] == pytest.approx(2.5512998900887642,
                                                    rel=1e-12)

    header, rows = read_csv(tmp_path / "hind_leg_curvature.csv")
    assert header[0] == "pull_mm"
    assert len(header) == 65 and len(rows) == 81


def test_simulate_limb_respects_max_pull(tmp_path):
    assert run(["simulate-limb", "-i", bundled_path("hind_leg.json"),
                "-o", tmp_path, "--steps", "11", "--max-pull-mm", "2.0"]) == 0
    _, rows = read_csv(tmp_path / "hind_leg_trajectory.csv")
    pulls = [float(r[0]) for r in rows]
    assert max(pulls) == pytest.approx(2.0, rel=1e-12)
    assert run(["simulate-limb", "-i", bundled_path("hind_leg.json"),
                "-o", tmp_path, "--max-pull-mm", "1000"]) == 2  # beyond caps


@pytest.mark.parametrize("flags", [["--arc-bins", "0"], ["--arc-bins", "-3"],
                                   ["--max-pull-mm", "nan"]],
                         ids=["zero_bins", "negative_bins", "nan_pull"])
def test_simulate_limb_rejects_bad_cycle_flags(tmp_path, capsys, flags):
    assert run(["simulate-limb", "-i", bundled_path("hind_leg.json"),
                "-o", tmp_path / "out", *flags]) == 2
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err)["error"] == "DesignError"
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------- simulate-gait

def test_simulate_gait_speed_curve(tmp_path):
    assert run(["simulate-gait", "-i", bundled_path("quadruped.json"),
                "-o", tmp_path, "--steps", "51"]) == 0
    header, rows = read_csv(tmp_path / "gait_speed.csv")
    assert header == ["frequency_hz", "speed_mm_s"]
    assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0, 1.5, 2.0]
    speeds = [float(r[1]) for r in rows]
    assert speeds[0] == 0.0
    # linear through the origin: v(f) = f * v(1)
    for f, v in zip([0.5, 1.0, 1.5, 2.0], speeds[1:]):
        assert v == pytest.approx(f * speeds[2], rel=1e-12)


def test_simulate_gait_requires_a_gait_section(tmp_path, capsys):
    assert run(["simulate-gait", "-i", bundled_path("hind_leg.json"),
                "-o", tmp_path]) == 2
    assert "gait" in json.loads(capsys.readouterr().err)["message"]


# ------------------------------------------------ out-of-range documents

def _first_joint(doc):
    limb = next(iter(doc["limbs"].values()))
    return next(s["joint"] for s in limb["segments"] if "joint" in s)


def _set_jam_angle(value):
    def mutate(doc):
        joint = _first_joint(doc)
        joint.pop("flexional_limit", None)
        joint.pop("extensional_limit", None)
        joint["jam_angle_deg"] = value
    return mutate


@pytest.mark.parametrize("document, subcommand, mutate, message", [
    ("hind_leg.json", "simulate-limb", _set_jam_angle(math.inf),
     "jam_angle_deg: expected a finite number"),
    ("hind_leg.json", "simulate-limb", _set_jam_angle(400),
     "jam_angle_deg must lie in (0, 180]"),
    ("quadruped.json", "simulate-gait",
     lambda doc: doc["gait"].update(frequencies_hz=[1.0, math.nan]),
     "gait.frequencies_hz[1]: expected a finite number"),
    ("quadruped.json", "simulate-gait",
     lambda doc: doc["gait"].update(frequencies_hz=[0.0, 1e308]),
     "the body speed at 1e+308 Hz overflows"),
    ("hind_leg.json", "simulate-limb",
     lambda doc: _first_joint(doc).update(routing_offset_mm=1e308),
     "compliance, jam tension or full-jam pull out of float range"),
    ("sample_flexure.json", "validate",
     lambda doc: doc["flexures"]["sample"]["base_layers"][1].__setitem__(
         1, math.inf),
     "flexures.sample.base_layers[1]: expected a finite number"),
    ("sample_flexure.json", "validate",
     lambda doc: doc["flexures"]["sample"].update(width_mm=10 ** 400),
     "flexures.sample.width_mm: expected a finite number"),
    ("sample_flexure.json", "validate",
     lambda doc: doc["flexional_limits"]["sample_flexional"].update(
         spacing_mm=0),
     "flexional_limits.sample_flexional: spacing and head_radius must be "
     "positive"),
    ("sample_flexure.json", "validate",
     lambda doc: doc["extensional_limits"]["sample_extensional"].update(
         diagonal_mm=0),
     "extensional_limits.sample_extensional: diagonal must be positive"),
], ids=["infinite_jam_angle", "jam_angle_past_half_turn", "nan_frequency",
        "overflowing_speed", "overflowing_routing_offset", "infinite_layer",
        "overflowing_integer", "zero_spacing", "zero_diagonal"])
def test_out_of_range_documents_exit_2_with_a_located_diagnostic(
        tmp_path, capsys, document, subcommand, mutate, message):
    with open(bundled_path(document)) as f:
        doc = json.load(f)
    mutate(doc)
    path = tmp_path / document
    path.write_text(json.dumps(doc))
    assert run([subcommand, "-i", path, "-o", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "DesignError"
    assert diagnostic["message"].endswith(message)
    assert not (tmp_path / "out").exists()


# ----------------------------------------------------------- export-geometry

def test_export_geometry_writes_stls_and_manifests(tmp_path):
    assert run(["export-geometry", "-i", bundled_path("sample_flexure.json"),
                "-o", tmp_path]) == 0
    for stem, tri_count in (("sample_flexure", 84), ("plain_plate", 12)):
        stl = tmp_path / f"{stem}.stl"
        manifest = json.loads(
            (tmp_path / f"{stem}.manifest.json").read_text())
        header, _, tris, _ = read_stl(stl)
        assert len(tris) == tri_count == manifest["triangle_count"]
        assert manifest["stl_bytes"] == 84 + 50 * tri_count
        assert stl.stat().st_size == manifest["stl_bytes"]
        assert manifest["process_config"]["material"] == "PLA"
        assert "generated_at" in manifest

    sample = json.loads((tmp_path / "sample_flexure.manifest.json").read_text())
    assert sample["volume_mm3"] == pytest.approx(924.0, rel=1e-9)
    assert sample["pc_film_thickness_mm"] == 0.1
    assert sample["bbox_mm"]["max"][2] == pytest.approx(1.2, rel=1e-12)

    ext = json.loads((tmp_path / "extensional_limit.manifest.json").read_text())
    assert ext["part_name"] == "sample_extensional"
    shear = 7.0 * math.cos(math.radians(45.0))
    assert ext["bbox_mm"]["max"][0] == pytest.approx(4 * shear - 3.6 + 5.4,
                                                     rel=1e-12)


def test_export_geometry_without_parts_is_a_no_op(tmp_path, capsys):
    doc = {"schema_version": 1}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert run(["export-geometry", "-i", path, "-o", tmp_path / "out"]) == 0
    assert "nothing to do" in capsys.readouterr().out


def _oversized_ribs(doc):
    doc["flexures"]["sample"]["length_mm"] = 1e9
    doc["flexures"]["sample"]["ribs"]["period_mm"] = 1.0
    doc["export"]["parts"] = [{"kind": "flexure", "ref": "sample",
                               "file": "ribs.stl"}]


def _oversized_part(kind, ref, **size):
    def mutate(doc):
        doc["export"]["parts"] = [{"kind": kind, "ref": ref,
                                   "file": "part.stl", **size}]
    return mutate


@pytest.mark.parametrize("mutate", [
    _oversized_ribs,
    _oversized_part("flexional", "sample_flexional", count=10 ** 12),
    _oversized_part("flexional", "sample_flexional", facets=10 ** 12),
    _oversized_part("extensional", "sample_extensional", count=10 ** 12),
], ids=["billion_rib_periods", "mushroom_count", "mushroom_facets",
        "standoff_count"])
def test_export_parts_past_the_triangle_bound_exit_2_unbuilt(
        tmp_path, capsys, mutate):
    with open(bundled_path("sample_flexure.json")) as f:
        doc = json.load(f)
    mutate(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert run(["export-geometry", "-i", path, "-o", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "GeometryError"
    assert diagnostic["message"].endswith("triangles, more than 1048576")
    assert not list(tmp_path.rglob("*.stl"))


def test_export_with_a_rejected_late_part_writes_nothing(tmp_path, capsys):
    with open(bundled_path("sample_flexure.json")) as f:
        doc = json.load(f)
    assert len(doc["export"]["parts"]) == 4
    doc["export"]["parts"].append({"kind": "flexional",
                                   "ref": "sample_flexional",
                                   "file": "huge.stl", "count": 10 ** 12})
    path = tmp_path / "late.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(["export-geometry", "-i", path, "-o", out]) == 2
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "GeometryError"
    assert diagnostic["message"].startswith("export.parts[4]: ")
    assert not out.exists()


@pytest.mark.parametrize("mutate, index", [
    (lambda doc: doc["flexures"]["sample"]["ribs"].update(
        feature_height_mm=1e300), 0),
    (lambda doc: doc["flexional_limits"]["sample_flexional"].update(
        spacing_mm=1e300), 2),
], ids=["huge_rib", "huge_spacing"])
def test_export_beyond_float32_exits_2_unwritten(tmp_path, capsys, mutate,
                                                 index):
    out = tmp_path / "out"
    assert run(["export-geometry", "-i", mutated_sample(tmp_path, mutate),
                "-o", out]) == 2
    diagnostic = one_json_line(capsys)
    assert diagnostic["error"] == "GeometryError"
    assert diagnostic["message"].startswith(f"export.parts[{index}]: ")
    assert "float32 range" in diagnostic["message"]
    assert not out.exists()


def test_export_part_refused_at_writing_names_its_path(tmp_path, capsys):
    # the recipe is built, but its triangles are too thin for export_stl
    path = mutated_sample(tmp_path, lambda doc: doc["export"]["parts"][3]
                          .update(width_mm=1e-300))
    out = tmp_path / "out"
    assert run(["export-geometry", "-i", path, "-o", out]) == 2
    assert one_json_line(capsys) == {
        "error": "GeometryError",
        "message": "export.parts[3]: 16 degenerate triangle(s) below "
                   "1e-12 mm^2"}
    # parts 0-2 were written, but none of their files is left behind
    assert list(out.iterdir()) == []


def test_export_part_collapsed_in_float32_exits_2_unwritten(tmp_path,
                                                            capsys):
    # Valid in float64, but at x = 1e9 mm float32 steps are 64 mm: the
    # far head's vertices are written onto each other.
    path = mutated_sample(tmp_path, lambda doc: doc["flexional_limits"][
        "sample_flexional"].update(spacing_mm=1e9, stem_height_mm=0))
    out = tmp_path / "out"
    assert run(["export-geometry", "-i", path, "-o", out]) == 2
    assert one_json_line(capsys) == {
        "error": "GeometryError",
        "message": "export.parts[2]: mesh is not watertight: an edge is not "
                   "shared by exactly two consistently wound triangles"}
    assert not (out / "flexional_limit.stl").exists()
    assert list(out.iterdir()) == []


# ------------------------------------------------------- environment override

def test_materials_override_changes_predictions(tmp_path, monkeypatch):
    override = tmp_path / "materials.json"
    override.write_text(json.dumps(
        {"PLA": {"youngs_modulus_gpa": 7.0, "kind": "filament",
                 "nozzle_temp_c": 215.0}}))
    run(["predict-stiffness", "-i", bundled_path("sample_flexure.json"),
         "-o", tmp_path / "base"])
    monkeypatch.setenv("FLEXOKIT_MATERIALS", str(override))
    run(["predict-stiffness", "-i", bundled_path("sample_flexure.json"),
         "-o", tmp_path / "stiff"])
    _, base_rows = read_csv(tmp_path / "base" / "stiffness.csv")
    _, stiff_rows = read_csv(tmp_path / "stiff" / "stiffness.csv")
    assert float(base_rows[0][3]) == pytest.approx(63.397084612061406,
                                                   rel=1e-12)
    assert float(stiff_rows[0][3]) == pytest.approx(91.87173815296232,
                                                    rel=1e-12)

    monkeypatch.setenv("FLEXOKIT_MATERIALS", str(tmp_path / "absent.json"))
    assert run(["predict-stiffness", "-i", bundled_path("sample_flexure.json"),
                "-o", tmp_path / "broken"]) == 2
    override.write_text('{"PLA": {')
    assert run(["predict-stiffness", "-i", bundled_path("sample_flexure.json"),
                "-o", tmp_path / "broken"]) == 2


@pytest.mark.parametrize("body", [
    {"kind": "filament"},
    {"youngs_modulus_gpa": 3.5, "kind": "filament", "nozzle_temp_c": "hot"},
    {"youngs_modulus_gpa": True, "kind": "filament", "nozzle_temp_c": 215.0},
    {"youngs_modulus_gpa": 3.5, "nozzle_temp_c": 215.0},
    {"name": "PLA", "youngs_modulus_gpa": 3.5, "kind": "filament",
     "nozzle_temp_c": 215.0},
], ids=["no_modulus", "string_nozzle", "bool_modulus", "no_kind", "name_key"])
def test_malformed_materials_override_exits_2(tmp_path, monkeypatch, capsys,
                                              body):
    override = tmp_path / "materials.json"
    override.write_text(json.dumps({"PLA": body}))
    monkeypatch.setenv("FLEXOKIT_MATERIALS", str(override))
    assert run(["validate", "-i", bundled_path("sample_flexure.json"),
                "-o", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "DesignError"
    assert diagnostic["message"].startswith("FLEXOKIT_MATERIALS.PLA")
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------- whole program

def test_cli_entry_point_runs_as_a_process(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "flexokit.cli", "--version"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip().startswith("flexokit ")

    result = subprocess.run(
        [sys.executable, "-m", "flexokit.cli", "solve-limit", "--flexional",
         "-o", str(tmp_path)], capture_output=True, text=True)
    assert result.returncode == 0
    assert (tmp_path / "solve_limit.json").exists()


def test_every_subcommand_documents_itself():
    from flexokit.cli import build_parser
    parser = build_parser()
    subparsers = parser._subparsers._group_actions[0]
    assert set(subparsers.choices) == {
        "validate", "predict-stiffness", "solve-limit", "design",
        "simulate-limb", "simulate-gait", "export-geometry"}
    for name, sub in subparsers.choices.items():
        text = sub.format_help()
        assert "--out-dir" in text
        assert len(sub.description or "") > 20, name


def test_bad_sweep_syntax_exits_2(tmp_path, capsys):
    assert run(["solve-limit", "--flexional", "-o", tmp_path,
                "--sweep", "h=4:12"]) == 2
    assert "start:stop:step" in json.loads(capsys.readouterr().err)["message"]


def test_repeat_runs_are_byte_identical(tmp_path):
    for sub in ("one", "two"):
        base = tmp_path / sub
        run(["validate", "-i", bundled_path("sample_flexure.json"),
             "-o", base / "validate"])
        run(["predict-stiffness", "-i", bundled_path("sample_flexure.json"),
             "-o", base / "stiffness", "--sweep", "width_ratio=0:0.8:0.1"])
        run(["solve-limit", "--extensional", "-o", base / "limits",
             "--sweep", "L=6.5:7.5:0.25"])
        run(["simulate-limb", "-i", bundled_path("hind_leg.json"),
             "-o", base / "limb", "--steps", "21"])
    one, two = tmp_path / "one", tmp_path / "two"
    compared = 0
    for path in sorted(one.rglob("*")):
        if path.is_file():
            twin = two / path.relative_to(one)
            assert twin.read_bytes() == path.read_bytes(), path.name
            compared += 1
    assert compared >= 6


# ------------------------------------------------------------ rejected argv

def _diagnostic_message(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("\n") and captured.err.count("\n") == 1
    diagnostic = json.loads(captured.err)
    assert diagnostic["error"] == "DesignError"
    return diagnostic["message"]


@pytest.mark.parametrize("argv, message", [
    (["validate", "-i", bundled_path("sample_flexure.json"), "--bogus"],
     "unrecognized arguments: --bogus"),
    (["simulate-limb", "-i", bundled_path("hind_leg.json"), "--strict"],
     "unrecognized arguments: --strict"),
    (["validate"], "the following arguments are required: --input/-i"),
    (["solve-limit", "--flexional", "--target-angle-deg", "30"],
     "unrecognized arguments: --target-angle-deg 30"),
], ids=["unknown_flag", "undeclared_flag", "missing_input", "removed_mode"])
def test_rejected_command_lines_exit_2_with_one_json_line(tmp_path, capsys,
                                                          argv, message):
    assert run([*argv, "-o", tmp_path / "out"]) == 2
    assert _diagnostic_message(capsys).endswith(message)
    assert not (tmp_path / "out").exists()


def test_out_dir_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run(["solve-limit", "--flexional", "-o", taken]) == 2
    assert one_json_line(capsys)["error"] == "OSError"


def test_help_and_version_still_exit_0(capsys):
    for argv in (["--help"], ["--version"], ["solve-limit", "--help"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
    assert "flexokit" in capsys.readouterr().out


def test_each_subcommand_declares_only_the_flags_it_reads():
    from flexokit.cli import build_parser
    subparsers = build_parser()._subparsers._group_actions[0].choices
    limits = {"--spacing-mm", "--head-radius-mm", "--stem-height-mm",
              "--diagonal-mm", "--base-width-mm", "--tip-radius-mm",
              "--mount-height-mm", "--incline-deg"}
    expected = {
        "validate": {"--input", "--strict"},
        "predict-stiffness": {"--input", "--format", "--flexure", "--sweep"},
        "solve-limit": {"--format", "--flexional", "--extensional",
                        "--sweep", *limits},
        "design": {"--input", "--target", "--stiffness-n-per-m",
                   "--angle-deg", "--flexure",
                   *limits - {"--stem-height-mm", "--diagonal-mm"}},
        "simulate-limb": {"--input", "--limb", "--steps", "--arc-bins",
                          "--max-pull-mm"},
        "simulate-gait": {"--input", "--format", "--steps"},
        "export-geometry": {"--input"},
    }
    declared = {name: {max(a.option_strings, key=len) for a in sub._actions
                       if a.option_strings and a.dest != "help"}
                for name, sub in subparsers.items()}
    assert declared == {name: flags | {"--out-dir"}
                        for name, flags in expected.items()}
    assert sum(map(len, declared.values())) == 45


@pytest.mark.parametrize("argv", [
    ["solve-limit", "--flexional", "--stem-height-mm", "nan"],
    ["solve-limit", "--extensional", "--incline-deg", "inf"],
    ["design", "--target", "diagonal", "--angle-deg=-inf"],
    ["design", "--target", "width_ratio", "--stiffness-n-per-m", "NaN",
     "-i", bundled_path("sample_flexure.json")],
    ["simulate-limb", "-i", bundled_path("hind_leg.json"),
     "--max-pull-mm", "Infinity"],
], ids=["nan_dimension", "infinite_incline", "infinite_angle",
        "nan_stiffness", "infinite_pull"])
def test_non_finite_float_flags_exit_2(tmp_path, capsys, argv):
    assert run([*argv, "-o", tmp_path / "out"]) == 2
    assert "expected a finite number" in _diagnostic_message(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["solve-limit", "--flexional", "--sweep", "h=nan:1:0.1"], "finite"),
    (["solve-limit", "--flexional", "--sweep", "h=0:inf:1"], "finite"),
    (["solve-limit", "--flexional", "--sweep", "h=1:2:1e-300"],
     "more than 10000 values"),
    (["solve-limit", "--flexional", "--sweep", "h=-1e308:1e308:1"],
     "more than 10000 values"),
    (["predict-stiffness", "-i", bundled_path("sample_flexure.json"),
      "--sweep", "width_ratio=0:1:0.00001"], "more than 10000 values"),
    (["simulate-limb", "-i", bundled_path("hind_leg.json"),
      "--steps", "100000000000"], "more than 4194304"),
    (["simulate-limb", "-i", bundled_path("hind_leg.json"),
      "--arc-bins", "1000000000"], "more than 4194304"),
    (["simulate-gait", "-i", bundled_path("quadruped.json"),
      "--steps", "100000000000"], "more than 4194304"),
], ids=["nan_start", "infinite_stop", "tiny_step", "overflowing_span",
        "stiffness_tiny_step", "huge_steps", "huge_arc_bins",
        "huge_gait_steps"])
def test_unbounded_sweeps_and_cycles_exit_2(tmp_path, capsys, argv,
                                            message):
    assert run([*argv, "-o", tmp_path / "out"]) == 2
    assert message in _diagnostic_message(capsys)
    assert not (tmp_path / "out").exists()


# ------------------------------------------------- one-subcommand parser

SAMPLE = bundled_path("sample_flexure.json")
HIND_LEG = bundled_path("hind_leg.json")

# Accepted and rejected command lines whose rc, stdout, stderr and files
# must not depend on which subparsers were built.
EQUIVALENCE_CORPUS = [
    *([name, "--help"] for name in (
        "validate", "predict-stiffness", "solve-limit", "design",
        "simulate-limb", "simulate-gait", "export-geometry")),
    ["validate", "-i", SAMPLE, "--bogus"],
    ["validate"],
    ["design", "--angle-deg", "30"],
    ["design", "--target", "bogus"],
    ["predict-stiffness", "-i", SAMPLE, "--format", "xml"],
    ["solve-limit", "--flexional", "--spacing-mm", "nan"],
    ["solve-limit", "--flexional", "--extensional"],
    ["solve-limit", "--flex", "--stem-h", "5"],
    ["solve-limit", "--flexional", "--s", "1"],
    ["simulate-limb", "-i", HIND_LEG, "--strict"],
    ["export-geometry", "--version"],
    ["valid"],
    ["--vers"],
    [],
    ["-h"],
    ["--version"],
    ["validate", "-i", SAMPLE, "-o", "out"],
    ["predict-stiffness", "-i", SAMPLE, "-o", "out", "--format", "json",
     "--sweep", "width_ratio=0:0.8:0.4"],
    ["solve-limit", "--extensional", "-o", "out", "--sweep", "L=6.5:7:0.5"],
    ["design", "--target", "stem_height", "--angle-deg", "30", "-o", "out"],
    ["simulate-limb", "-i", HIND_LEG, "-o", "out", "--steps", "3",
     "--arc-bins", "3"],
    ["simulate-gait", "-i", bundled_path("quadruped.json"), "-o", "out",
     "--steps", "3"],
    ["export-geometry", "-i", SAMPLE, "-o", "out"],
]


def _outcome(argv, capsys):
    """(rc, stdout, stderr, files) of one call of ``main`` in the current
    directory; manifests lose their timestamp."""
    try:
        rc = main(list(argv))
    except SystemExit as exit_info:
        rc = ("exit", exit_info.code)
    captured = capsys.readouterr()
    files = {}
    for path in sorted(Path("out").rglob("*")):
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(data)
            manifest.pop("generated_at")
            data = json.dumps(manifest).encode()
        files[str(path)] = data
    return rc, captured.out, captured.err, files


@pytest.mark.parametrize("argv", EQUIVALENCE_CORPUS)
def test_one_subcommand_parser_matches_the_full_tree(tmp_path, monkeypatch,
                                                     capsys, argv):
    from flexokit import cli
    full_tree = cli.build_parser
    outcomes = []
    for directory in ("one", "full"):
        (tmp_path / directory).mkdir()
        monkeypatch.chdir(tmp_path / directory)
        outcomes.append(_outcome(argv, capsys))
        monkeypatch.setattr(cli, "build_parser", lambda only=None: full_tree())
    assert outcomes[0] == outcomes[1]


def test_build_parser_declares_only_the_named_subcommand():
    from flexokit.cli import _SUBCOMMANDS, build_parser
    for name in _SUBCOMMANDS:
        parser = build_parser(name)
        assert set(parser._subparsers._group_actions[0].choices) == {name}


def test_main_builds_the_parser_of_the_named_subcommand(tmp_path,
                                                        monkeypatch):
    from flexokit import cli
    built = []
    original = cli.build_parser

    def spy(only=None):
        built.append(only)
        return original(only)

    monkeypatch.setattr(cli, "build_parser", spy)
    for name in cli._SUBCOMMANDS:
        main([name, "-o", str(tmp_path), "--bogus"])
    main(["validate", "-i", SAMPLE, "-o", str(tmp_path)])
    main(["valid"])
    main([])
    assert built == [*cli._SUBCOMMANDS, "validate", None, None]

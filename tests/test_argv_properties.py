"""Property: any command line built from the declared subcommands and flags
ends in a result, exit 1 under --strict, or exit 2 with one JSON line.

It never raises, a rejection writes no file and leaves no out-dir it made
behind, and no file written with exit 0 holds a NaN, nor an infinity in a
table. A jam-angle solution written with exit 0 solves its defining
relation to within the feature's own length scale. The same holds for the
commands that read materials under any FLEXOKIT_MATERIALS file, whose
rejections never report a NaN. On generated limb documents, ``validate``
accepts exactly the documents every one of whose limbs ``simulate-limb``
accepts and whose flexures' section rigidities are in float range.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from helpers import read_stl
from flexokit.cli import _SUBCOMMANDS, build_parser, main
from flexokit.core import parse_design
from flexokit.errors import DesignError
from flexokit.stiffness import _section_pair

DOCUMENTS = [str(resources.files("flexokit") / "data" / name)
             for name in ("sample_flexure.json", "hind_leg.json",
                          "quadruped.json")] + ["missing.json"]
# Decimal orders of magnitude from subnormal to near overflow, and tokens
# that are not finite numbers or not numbers at all.
NUMBERS = ["1e-320", "1e-9", "0.5", "3", "4.5", "30", "1e10", "1e308"]
EDGE_TOKENS = ["nan", "inf", "-inf", "-0", "", "abc", "100000000000"]
SWEEPS = ["width_ratio=0:0.8:0.4", "feature_height_mm=0.5:1:0.25",
          "h=1:4:1", "L=6.5:7.5:0.5", "r=1:1e308:1e307", "D=nan:1:1",
          "h=4:1:1", "bogus", "=1:2:1"]
NAMES = ["sample", "plain_plate", "hind_leg", "front_left", "bogus"]
# Generated sweeps run from 1 row to MAX_SWEEP_ROWS, geometrically, so
# their tables fall on both sides of the CSV writer's orjson gate. Each
# predict-stiffness row sums every rib period of the flexure, and no flag
# sets the period, so the documents above are capped at RIB_PERIODS periods
# per flexure (test_documents_keep_few_rib_periods): a 10,000-row sweep of
# them takes under a second.
SWEEP_COMMANDS = {
    ("predict-stiffness", "-i", DOCUMENTS[0]): ["width_ratio",
                                                "feature_height_mm"],
    ("solve-limit", "--flexional"): ["D", "r", "h"],
    ("solve-limit", "--extensional"): ["L", "b", "r", "h", "gamma"],
}
RIB_PERIODS = 16
# Moduli in GPa: ordinary ones; from the least subnormal to near overflow,
# evenly in their exponent; and the ends of that range, with either side of
# 1.8e299 GPa, from where pascals overflow.
MODULI = st.one_of(st.floats(0.5, 50.0),
                   st.integers(-323, 308).map(lambda e: float(f"1e{e}")),
                   st.sampled_from([5e-324, 1.7e299, 1.8e299, 1e308]))
NOZZLE_TEMPS = st.one_of(st.floats(-1.0, 1000.0),
                         st.sampled_from([0, 215.0, 1e308]))
# The commands that compute from a material. Every bundled flexure is PC
# film under PLA: the sample and the quadruped take the built-in ones, and
# the hind leg declares its own, which an override shadows too. 50 N/m lies
# inside the sample's attainable range for some moduli and outside it for
# others.
MATERIAL_COMMANDS = [
    ["validate", "-i", DOCUMENTS[0]],
    ["predict-stiffness", "-i", DOCUMENTS[0]],
    ["design", "--target", "width_ratio", "--stiffness-n-per-m", "50",
     "-i", DOCUMENTS[0]],
    ["design", "--target", "feature_height", "--stiffness-n-per-m", "50",
     "-i", DOCUMENTS[0]],
    ["simulate-limb", "-i", DOCUMENTS[1], "--steps", "5"],
    ["simulate-gait", "-i", DOCUMENTS[2], "--steps", "5"],
]


@st.composite
def generated_sweeps(draw, names):
    name = draw(st.sampled_from(names))
    rows = round(10 ** (draw(st.integers(0, 40)) / 10))
    start = draw(st.sampled_from([0.0, 0.1, 1.0, 4.0]))
    step = draw(st.sampled_from([1e-4, 1e-3, 0.01, 0.5]))
    return f"{name}={start!r}:{start + step * (rows - 1)!r}:{step!r}"


def _values(flag, action):
    """Strategy for the value tokens of one flag; None for a switch."""
    if action.nargs == 0:
        return None
    if action.choices:
        return st.sampled_from([*action.choices, "bogus"])
    if flag == "--input":
        return st.sampled_from(DOCUMENTS)
    if flag == "--sweep":
        names = sorted({n for ns in SWEEP_COMMANDS.values() for n in ns})
        return st.one_of(st.sampled_from(SWEEPS), generated_sweeps(names))
    if action.type is int:
        return st.sampled_from(["-1", "0", "1", "3", "40", *EDGE_TOKENS])
    if action.type is None:
        return st.sampled_from(NAMES)
    return st.sampled_from([*NUMBERS, *EDGE_TOKENS])


def _declared(name):
    """The flags of one subcommand as (flag, value strategy) pairs, and the
    ones a call needs: every required flag and one flag of each required
    group. --out-dir is left out; every call sets it to a fresh directory."""
    parser = build_parser()._subparsers._group_actions[0].choices[name]
    flags, required = {}, []
    for action in parser._actions:
        flag = max(action.option_strings, default=None, key=len)
        if flag not in (None, "--help", "--out-dir"):
            flags[action] = (flag, _values(flag, action))
            if action.required:
                required.append(st.just(flags[action]))
    for group in parser._mutually_exclusive_groups:
        if group.required:
            required.append(st.sampled_from(
                [flags[action] for action in group._group_actions]))
    return list(flags.values()), required


FLAGS = {name: _declared(name) for name in _SUBCOMMANDS}


@st.composite
def command_lines(draw, name):
    """``name`` with the flags it needs, and each flag it declares one
    time in four; values are drawn per flag."""
    flags, required = FLAGS[name]
    chosen = [draw(flag) for flag in required]
    chosen += [flag for flag in flags if not draw(st.integers(0, 3))]
    argv = [name]
    for flag, values in chosen:
        argv.append(flag)
        if values is not None:
            argv.append(draw(values))
    return argv


@st.composite
def material_files(draw):
    """A FLEXOKIT_MATERIALS table of PC as a base film and filaments. One
    entry in ten has one mistake: a key missing, a modulus that is not a
    positive number, another kind, or a nozzle temperature where none
    belongs."""
    table = {}
    for name in draw(st.lists(st.sampled_from(["PLA", "PC", "ABS", "TPU"]),
                              max_size=3, unique=True)):
        if name == "PC":
            body = {"youngs_modulus_gpa": draw(MODULI), "kind": "base_film"}
        else:
            body = {"youngs_modulus_gpa": draw(MODULI), "kind": "filament",
                    "nozzle_temp_c": draw(NOZZLE_TEMPS)}
        if draw(st.integers(0, 9)) == 0:
            key, value = draw(st.sampled_from([
                ("youngs_modulus_gpa", None), ("kind", None),
                ("nozzle_temp_c", None), ("youngs_modulus_gpa", 0),
                ("youngs_modulus_gpa", -1), ("youngs_modulus_gpa", True),
                ("youngs_modulus_gpa", "3"), ("kind", "resin"),
                ("kind", "filament"), ("kind", "base_film"),
                ("nozzle_temp_c", 215.0)]))
            body[key] = value
            if value is None:
                del body[key]
        table[name] = body
    return table


def _no_constant(token):
    raise AssertionError(f"non-finite JSON value {token}")


def _check_file(path):
    if path.suffix == ".stl":
        _, normals, triangles, _ = read_stl(path)
        assert not np.isnan(normals).any() and not np.isnan(triangles).any()
        return
    text = path.read_text("utf-8")
    if path.suffix == ".csv":
        _, *rows = text.splitlines()
        assert all(math.isfinite(float(cell))
                   for row in rows for cell in row.split(","))
        return
    payload = json.loads(text, parse_constant=_no_constant)
    # one jam-angle solution, not the rows of a --sweep
    if isinstance(payload, dict) and "inputs" in payload:
        inputs = payload["inputs"]
        scale_mm = (inputs["spacing_mm"] if inputs["kind"] == "flexional"
                    else inputs["diagonal_mm"])
        relative = abs(payload["residual"]) / (scale_mm * 1e-3)
        # steer the search toward the worst-solved geometry
        target(math.log10(relative + 1e-300), label="log residual")
        assert relative < 1, payload


def check_command_line(argv) -> str:
    """Run ``argv``, check how it ended, and return its stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            rc = main([*argv, "-o", str(out_dir)])
        assert rc in (0, 1, 2)
        err = stderr.getvalue()
        if rc == 2:
            assert err.endswith("\n") and err.count("\n") == 1, err
            assert set(json.loads(err)) == {"error", "message"}
            assert "wrote" not in stdout.getvalue()
            assert not out_dir.exists()
        else:
            assert err == "", err
        if rc == 0:
            for path in sorted(out_dir.rglob("*")):
                _check_file(path)
        return err


@pytest.mark.parametrize("name", sorted(_SUBCOMMANDS))
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_any_command_line_ends_in_a_result_or_one_json_line(name, data):
    check_command_line(data.draw(command_lines(name), label="argv"))


@pytest.mark.parametrize("command", SWEEP_COMMANDS,
                         ids=["predict-stiffness", "flexional", "extensional"])
@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_generated_sweeps_end_in_a_result_or_one_json_line(command, data):
    # few of the command lines above reach the table writer: these do, and
    # write tables on both sides of its orjson gate
    sweep = data.draw(generated_sweeps(SWEEP_COMMANDS[command]),
                      label="sweep")
    fmt = data.draw(st.sampled_from([[], ["--format", "json"]]),
                    label="format")
    check_command_line([*command, "--sweep", sweep, *fmt])


@settings(max_examples=300, deadline=None, database=None)
@given(table=material_files())
def test_materials_overrides_end_in_a_result_or_one_json_line(table):
    with tempfile.TemporaryDirectory() as tmp:
        override = Path(tmp) / "materials.json"
        override.write_text(json.dumps(table))
        with mock.patch.dict(os.environ, FLEXOKIT_MATERIALS=str(override)):
            for argv in MATERIAL_COMMANDS:
                assert "nan" not in check_command_line(argv)


def test_documents_keep_few_rib_periods():
    for path in DOCUMENTS[:-1]:
        doc = parse_design(Path(path).read_text("utf-8"))
        for flex in doc.flexures.values():
            if flex.ribs is not None:
                assert flex.length_mm / flex.ribs.period_mm <= RIB_PERIODS


# Positive magnitudes: log-uniform within four decades of 1, or anywhere
# from 1e-300 to 1e300.
DECADES = st.one_of(st.floats(-4.0, 4.0),
                    st.floats(-300.0, 300.0)).map(lambda e: 10.0 ** e)


@st.composite
def limb_documents(draw):
    """Flexures, limits and limbs whose lengths, offsets, stiffnesses and
    limit dimensions span many decades. Every flexure spans at most 100,000
    rib periods, under the exact stiffness model's bound."""
    flexures = {}
    for name in ("f0", "f1")[:draw(st.integers(1, 2))]:
        length = draw(DECADES)
        flexures[name] = {"length_mm": length, "width_mm": draw(DECADES),
                          "base_layers": [["PC", draw(DECADES)],
                                          ["PLA", draw(DECADES)]]}
        if draw(st.booleans()):
            flexures[name]["ribs"] = {
                "period_mm": length / draw(st.floats(1.0, 1e5)),
                "width_ratio": draw(st.floats(0.0, 1.0)),
                "feature_height_mm": draw(st.one_of(st.just(0), DECADES))}
    flexional = {"mushrooms": {"spacing_mm": draw(DECADES),
                               "head_radius_mm": draw(DECADES),
                               "stem_height_mm": draw(
                                   st.one_of(st.just(0), DECADES))}}
    extensional = {"standoffs": {"diagonal_mm": draw(DECADES),
                                 "base_width_mm": draw(DECADES),
                                 "tip_radius_mm": draw(DECADES),
                                 "mount_height_mm": draw(DECADES),
                                 "incline_deg": draw(st.floats(0.5, 89.5))}}
    limbs = {}
    for name in ("a", "b", "c")[:draw(st.integers(1, 3))]:
        segments = []
        for _ in range(draw(st.integers(1, 3))):
            flexure = draw(st.sampled_from(sorted(flexures)))
            # within its flexure half the time, where its stiffness resolves
            joint = {"flexure": flexure,
                     "joint_length_mm": draw(st.one_of(
                         st.floats(1e-3, 1.0).map(
                             lambda f: f * flexures[flexure]["length_mm"]),
                         DECADES)),
                     "routing_offset_mm": draw(DECADES),
                     "sense": draw(st.sampled_from([1, -1]))}
            cap = draw(st.sampled_from(["jam_angle_deg", "flexional_limit",
                                        "extensional_limit"]))
            joint[cap] = {"jam_angle_deg": draw(st.floats(1e-3, 180.0)),
                          "flexional_limit": "mushrooms",
                          "extensional_limit": "standoffs"}[cap]
            if draw(st.booleans()):
                joint["torsional_stiffness_nm_per_rad"] = draw(DECADES)
            segments.append({"joint": joint})
        segments += [{"link_mm": draw(st.one_of(st.just(0), DECADES))}
                     for _ in range(draw(st.integers(0, 3)))]
        limbs[name] = {"segments": draw(st.permutations(segments))}
    return {"schema_version": 1, "flexures": flexures,
            "flexional_limits": flexional, "extensional_limits": extensional,
            "limbs": limbs}


@settings(max_examples=100, deadline=None, database=None)
@given(document=limb_documents())
def test_validate_accepts_exactly_the_limbs_simulate_limb_accepts(document):
    # validate also rejects a section rigidity out of float range, which
    # simulate-limb meets only on a flexure whose stiffness a joint derives
    sections_ok = True
    for flex in parse_design(json.dumps(document)).flexures.values():
        try:
            _section_pair(flex)
        except DesignError:
            sections_ok = False
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "limbs.json"
        path.write_text(json.dumps(document))
        # a command exits 2 exactly when it writes a diagnostic
        valid = check_command_line(["validate", "-i", str(path)]) == ""
        simulated = [check_command_line(["simulate-limb", "-i", str(path),
                                         "--limb", name]) == ""
                     for name in document["limbs"]]
    assert valid == (all(simulated) and sections_ok)

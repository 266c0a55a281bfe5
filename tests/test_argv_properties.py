"""Property: any command line built from the declared subcommands and flags
ends in a result, exit 1 under --strict, or exit 2 with one JSON line.

It never raises, and no file written with exit 0 holds a NaN. A jam-angle
solution written with exit 0 solves its defining relation to within the
feature's own length scale.
"""

import contextlib
import io
import json
import math
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from helpers import read_stl
from flexokit.cli import _SUBCOMMANDS, build_parser, main

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


def _values(flag, action):
    """Strategy for the value tokens of one flag; None for a switch."""
    if action.nargs == 0:
        return None
    if action.choices:
        return st.sampled_from([*action.choices, "bogus"])
    if flag in ("--input", "--sweep"):
        return st.sampled_from(DOCUMENTS if flag == "--input" else SWEEPS)
    if action.type is int:
        return st.sampled_from(["-1", "0", "1", "3", "40", *EDGE_TOKENS])
    if action.type is None:
        return st.sampled_from(NAMES)
    return st.sampled_from([*NUMBERS, *EDGE_TOKENS])


def _declared(name):
    """The flags of one subcommand as (flag, value strategy) pairs, and the
    ones a call needs: every required flag and one flag of each required
    group. --out-dir is left out; every call sets it to a fresh directory."""
    parser = build_parser(name)._subparsers._group_actions[0].choices[name]
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
        assert not any(math.isnan(float(cell))
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


@pytest.mark.parametrize("name", sorted(_SUBCOMMANDS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_command_line_ends_in_a_result_or_one_json_line(name, data):
    argv = data.draw(command_lines(name), label="argv")
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
        else:
            assert err == "", err
        if rc == 0:
            for path in sorted(out_dir.rglob("*")):
                _check_file(path)

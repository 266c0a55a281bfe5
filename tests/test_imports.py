"""The import graph: the package namespace resolves every public name, no
subcommand loads ``dataclasses``, the scalar subcommands run without loading
numpy or ``inspect`` (``validate`` resolving each limb and bounding each
flexure's rib periods), and only a CSV table of
``cli._ORJSON_CELLS`` cells or more loads orjson, on both of the writer's
paths: a sweep is written row by row, and a cycle's curvature map, handed
over as one column per segment that holds a bin with the number of bins
each fills, column by column by ``cli._write_runs``."""

import importlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import flexokit
from flexokit import cli

SRC = str(Path(flexokit.__file__).resolve().parent.parent)
SAMPLE = str(resources.files("flexokit") / "data" / "sample_flexure.json")
HIND = str(resources.files("flexokit") / "data" / "hind_leg.json")
QUADRUPED = str(resources.files("flexokit") / "data" / "quadruped.json")

# Runs cli.main on argv in a fresh interpreter, then reports its exit code
# and whether numpy, orjson, dataclasses and inspect were imported.
CHILD = """
import json, sys
from flexokit.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exit_:  # --version
    rc = exit_.code
print(json.dumps({name: name in sys.modules for name in (
    "numpy", "orjson", "dataclasses", "inspect")} | {"rc": rc}))
"""


def run_child(tmp_path, argv):
    if argv != ["--version"]:
        argv = [*argv, "-o", str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    # no command builds its records with dataclasses, and only numpy,
    # which imports it, loads inspect
    assert not report.pop("dataclasses")
    assert report.pop("inspect") <= report["numpy"]
    return report


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["validate", "-i", SAMPLE],
    ["validate", "-i", HIND],
    ["validate", "-i", QUADRUPED],
    ["solve-limit", "--flexional"],
    ["design", "--target", "stem_height", "--angle-deg", "90"],
    ["design", "--target", "width_ratio", "--stiffness-n-per-m", "50",
     "-i", SAMPLE],
], ids=["version", "validate", "validate_hind_leg", "validate_quadruped",
        "solve_limit", "design_stem_height", "design_width_ratio"])
def test_scalar_subcommands_never_import_numpy(tmp_path, argv):
    # nor orjson
    assert run_child(tmp_path, argv) == {"rc": 0, "numpy": False,
                                         "orjson": False}


# The rib-period bound is checked before the exact stiffness imports numpy.
@pytest.mark.parametrize("command", ["validate", "predict-stiffness"])
def test_too_many_rib_periods_are_rejected_without_numpy(tmp_path, command):
    doc = json.loads(Path(SAMPLE).read_text("utf-8"))
    doc["flexures"]["sample"]["ribs"]["period_mm"] = 30 / 200_000
    path = tmp_path / "periods.json"
    path.write_text(json.dumps(doc))
    assert run_child(tmp_path, [command, "-i", str(path)]) == {
        "rc": 2, "numpy": False, "orjson": False}


def written_cells(path):
    """The cells below the header of a CSV file."""
    head, *lines = path.read_text("utf-8").splitlines()
    return len(lines) * (head.count(",") + 1)


# 4 columns: 499 rows stay below the 2,000-cell gate, 500 reach it.
@pytest.mark.parametrize("sweep, orjson", [
    ("h=1:5.98:0.01", False), ("h=1:5.99:0.01", True)])
def test_only_sweeps_from_the_gate_on_import_orjson(tmp_path, sweep, orjson):
    assert run_child(tmp_path, ["solve-limit", "--flexional",
                                "--sweep", sweep]) == {
        "rc": 0, "numpy": True, "orjson": orjson}
    cells = written_cells(tmp_path / "solve_limit.csv")
    assert (cells >= cli._ORJSON_CELLS) == orjson


# The hind leg's curvature map is 65 columns: 3 steps write 5 lines, below
# the gate, and 101 steps write 201, above it. Its trajectory stays below
# the gate at both.
@pytest.mark.parametrize("steps, orjson", [(3, False), (101, True)])
def test_only_cycle_tables_from_the_gate_on_import_orjson(tmp_path, steps,
                                                          orjson):
    assert run_child(tmp_path, ["simulate-limb", "-i", HIND,
                                "--steps", str(steps)]) == {
        "rc": 0, "numpy": True, "orjson": orjson}
    curvature = written_cells(tmp_path / "hind_leg_curvature.csv")
    assert (curvature >= cli._ORJSON_CELLS) == orjson
    assert written_cells(tmp_path / "hind_leg_trajectory.csv") \
        < cli._ORJSON_CELLS


def test_every_public_name_resolves_to_its_module_object():
    assert flexokit.__all__[0] == "__version__"
    names = flexokit.__all__[1:]
    assert len(set(names)) == len(names) == 62
    for name in names:
        module = importlib.import_module(f"flexokit.{flexokit._HOME[name]}")
        obj = getattr(flexokit, name)
        assert obj is getattr(module, name)
        # the table names the defining module, not one that re-exports it
        if callable(obj):
            assert obj.__module__ == module.__name__, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from flexokit import *", namespace)
    for name in flexokit.__all__:
        assert namespace[name] is getattr(flexokit, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        flexokit.no_such_name

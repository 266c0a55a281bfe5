"""The import graph: the package namespace resolves every public name, and
the scalar subcommands run without loading numpy."""

import importlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import flexokit

SRC = str(Path(flexokit.__file__).resolve().parent.parent)
SAMPLE = str(resources.files("flexokit") / "data" / "sample_flexure.json")

# Runs cli.main on argv in a fresh interpreter, then reports its exit code
# and whether numpy was imported.
CHILD = """
import json, sys
from flexokit.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exit_:  # --version
    rc = exit_.code
print(json.dumps({"rc": rc, "numpy": "numpy" in sys.modules}))
"""


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["validate", "-i", SAMPLE],
    ["solve-limit", "--flexional"],
    ["design", "--target", "stem_height", "--angle-deg", "90"],
    ["design", "--target", "width_ratio", "--stiffness-n-per-m", "50",
     "-i", SAMPLE],
], ids=["version", "validate", "solve_limit", "design_stem_height",
        "design_width_ratio"])
def test_scalar_subcommands_never_import_numpy(tmp_path, argv):
    if argv != ["--version"]:
        argv = [*argv, "-o", str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report == {"rc": 0, "numpy": False}


def test_every_public_name_resolves_to_its_module_object():
    assert flexokit.__all__[0] == "__version__"
    names = flexokit.__all__[1:]
    assert len(set(names)) == len(names) == 66
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

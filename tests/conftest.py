"""Shared fixtures: bundled documents and a reference ribbed flexure."""

import os
from importlib import resources
from pathlib import Path

import pytest

from flexokit.core import (DEFAULT_MATERIALS, FlexureSpec, LaminateStack,
                           RibPattern, parse_design)

# Processes the tests start (``python -m flexokit.cli``) import the package
# from this checkout, as the tests do, with or without PYTHONPATH set, and
# fail on a numpy overflow warning, as pyproject.toml makes the tests do.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    str(Path(__file__).resolve().parents[1] / "src"),
    os.environ.get("PYTHONPATH"))))
os.environ["PYTHONWARNINGS"] = "error::RuntimeWarning"


def bundled_text(name: str) -> str:
    return (resources.files("flexokit") / "data" / name).read_text("utf-8")


@pytest.fixture(scope="session")
def sample_doc():
    return parse_design(bundled_text("sample_flexure.json"))


@pytest.fixture(scope="session")
def hind_leg_doc():
    return parse_design(bundled_text("hind_leg.json"))


@pytest.fixture(scope="session")
def quadruped_doc():
    return parse_design(bundled_text("quadruped.json"))


@pytest.fixture()
def ribbed_template():
    """30 x 44 mm PC-film flexure with a 50% rib pattern, 1 mm tall ribs.

    Same shape as the bundled "sample" flexure; constructed directly so
    stiffness tests do not depend on document parsing.
    """
    pc = DEFAULT_MATERIALS["PC"]
    pla = DEFAULT_MATERIALS["PLA"]
    return FlexureSpec("sample", 30.0, 44.0,
                       LaminateStack(((pc, 0.1), (pla, 0.2))),
                       RibPattern(5.0, 0.5, 1.0))

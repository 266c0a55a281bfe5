"""The CLI table writer against the per-row writer it replaced.

``_write_table`` formats each distinct float of a chunk once, and each run
of adjacent columns holding the same bits once. The oracle here is the
plain writer, one ``repr`` per cell; a second check reads every written
cell back with ``float`` and compares bits with the input.
The JSON tests pin ``--format json`` to ``json.dumps(..., indent=2)`` of
the rows the CSV of the same command line holds.
"""

import contextlib
import io
import json
import math
import tempfile
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexokit import cli

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
           2.2250738585072014e-308, 1e-310, 1e16, 1e22, -1e22, 0.1,
           1 / 3, 11.666666666666666]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))
# Quiet NaNs of both signs and two payloads.
NANS = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                 0xFFF800000000BEEF], dtype=np.uint64).view(np.float64)
# Neighbouring columns that a float compare finds equal, or a NaN compare
# unordered, but whose bits differ: the writer must keep them apart.
TWINS = [(0.0, -0.0), (-0.0, 0.0), (NANS[0], NANS[1]), (NANS[2], NANS[3]),
         (NANS[1], NANS[2])]


def bundled_path(name: str) -> str:
    return str(resources.files("flexokit") / "data" / name)


def reference_csv(header, rows) -> str:
    """The writer before chunking: one repr per cell, row by row."""
    rows = np.asarray(rows, dtype=float).tolist()
    return "".join([",".join(header) + "\n"]
                   + [",".join(map(repr, row)) + "\n" for row in rows])


def write_csv(header, rows, chunk_cells=None) -> str:
    patch = (mock.patch.object(cli, "_CHUNK_CELLS", chunk_cells)
             if chunk_cells else contextlib.nullcontext())
    with tempfile.TemporaryDirectory() as directory, patch, \
            contextlib.redirect_stdout(io.StringIO()):
        cli._write_table(Path(directory), "t", header, rows)
        return (Path(directory) / "t.csv").read_bytes().decode("utf-8")


def check_table(table, chunk_cells=None, as_list=False):
    header = [f"c{i}" for i in range(table.shape[1])]
    text = write_csv(header, table.tolist() if as_list else table,
                     chunk_cells)
    assert text == reference_csv(header, table)
    head, *lines = text.split("\n")
    assert head == ",".join(header) and lines.pop() == ""
    read = np.array([[float(cell) for cell in line.split(",")]
                     for line in lines], dtype=np.float64)
    read = read.reshape(table.shape)
    # repr writes every NaN as "nan", so a NaN's sign and payload are lost
    nan = np.isnan(table)
    assert (np.isnan(read) == nan).all()
    assert (read.view(np.int64)[~nan] == table.view(np.int64)[~nan]).all()


@st.composite
def tables(draw):
    rows = draw(st.integers(0, 40))
    cols = draw(st.integers(1, 7))
    if draw(st.booleans()):
        # a few values repeated many times, as in cycle tables
        pool = draw(st.lists(FLOATS, min_size=1, max_size=4))
        cells = draw(st.lists(st.sampled_from(pool), min_size=rows * cols,
                              max_size=rows * cols))
    else:
        cells = draw(st.lists(FLOATS, min_size=rows * cols,
                              max_size=rows * cols))
    table = np.array(cells, dtype=np.float64).reshape(rows, cols)
    if draw(st.booleans()):
        # runs of repeated columns, as in a cycle's curvature map
        repeats = draw(st.lists(st.integers(1, 4), min_size=cols,
                                max_size=cols))
        table = np.repeat(table, repeats, axis=1)
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(TWINS))
        at = draw(st.integers(0, table.shape[1]))
        twins = np.repeat([[a, b]], rows, axis=0)
        table = np.concatenate([table[:, :at], twins, table[:, at:]], axis=1)
    return table


@settings(max_examples=300, deadline=None, database=None)
@given(table=tables(), chunk_cells=st.integers(1, 30), as_list=st.booleans())
def test_csv_matches_the_per_row_writer(table, chunk_cells, as_list):
    # small chunks put boundaries inside the table, on and off its end,
    # whether counted in full cells or in one column per run
    check_table(table, chunk_cells, as_list)


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (7, 1), (1, 9)])
def test_degenerate_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    check_table(rng.choice(SPECIAL, size=shape))


def test_empty_row_list_writes_the_header_only():
    assert write_csv(["a", "b"], []) == "a,b\n"


@pytest.mark.parametrize("cols", [3, 4])
@pytest.mark.parametrize("extra_rows", [0, 1])
def test_default_chunk_boundaries(cols, extra_rows):
    # 2^16 cells end mid-row for 3 columns and on a row for 4; the table
    # holds exactly two chunks of rows, or one row more
    chunk_rows = cli._CHUNK_CELLS // cols
    rng = np.random.default_rng(cols)
    table = rng.choice(SPECIAL + list(rng.standard_normal(200)),
                       size=(2 * chunk_rows + extra_rows, cols))
    check_table(table)


@pytest.mark.parametrize("document, limb", [
    ("hind_leg.json", "hind_leg"), ("quadruped.json", "hind_right")])
@pytest.mark.parametrize("steps", [2, 101, 1465])
@pytest.mark.parametrize("arc_bins", [1, 64])
def test_cycle_tables_match_the_per_row_writer(tmp_path, document, limb,
                                               steps, arc_bins):
    # cycle tables repeat whole columns (the map's bins within one segment)
    # and whole rows (release mirrors pull)
    from flexokit.core import MM, parse_design
    from flexokit.limb_sim import limb_from_document, sweep_cycle
    doc = parse_design(Path(bundled_path(document)).read_text("utf-8"))
    spec = limb_from_document(doc, limb)
    cycle = sweep_cycle(spec, steps=steps, arc_bins=arc_bins)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate-limb", "-i", bundled_path(document),
                         "--limb", limb, "--steps", str(steps),
                         "--arc-bins", str(arc_bins),
                         "-o", str(tmp_path)]) == 0
    joints = [f"theta_{i}_rad" for i in range(len(spec.joints))]
    trajectory = reference_csv(
        ["pull_mm", "foot_x_mm", "foot_y_mm", *joints, "tension_N"],
        np.column_stack([cycle.pulls / MM, cycle.foot_path / MM,
                         cycle.theta, cycle.tension]))
    curvature = reference_csv(
        ["pull_mm"] + [repr(s / MM) for s in cycle.arc_bins],
        np.column_stack([cycle.pulls / MM, cycle.curvature_map]))
    assert (tmp_path / f"{limb}_trajectory.csv").read_text("utf-8") \
        == trajectory
    assert (tmp_path / f"{limb}_curvature.csv").read_text("utf-8") \
        == curvature


def test_negative_zero_and_nan_keep_their_text():
    text = write_csv(["a", "b"], [[-0.0, 0.0], [math.nan, -math.nan],
                                  [0.0, -0.0]])
    assert text == "a,b\n-0.0,0.0\nnan,nan\n0.0,-0.0\n"


def read_rows(path: Path):
    head, *lines = path.read_text("utf-8").splitlines()
    return [dict(zip(head.split(","), map(float, line.split(","))))
            for line in lines]


@pytest.mark.parametrize("argv, stem", [
    (["simulate-gait", "-i", bundled_path("quadruped.json"), "--steps", "21"],
     "gait_speed"),
    (["predict-stiffness", "-i", bundled_path("sample_flexure.json"),
      "--sweep", "width_ratio=0:0.8:0.1"], "stiffness"),
    (["solve-limit", "--extensional", "--sweep", "L=6.5:7.5:0.25"],
     "solve_limit"),
], ids=["simulate-gait", "predict-stiffness", "solve-limit"])
def test_json_format_is_json_dumps_of_the_rows(tmp_path, argv, stem):
    assert cli.main([*argv, "-o", str(tmp_path / "csv")]) == 0
    assert cli.main([*argv, "-o", str(tmp_path / "json"),
                     "--format", "json"]) == 0
    rows = read_rows(tmp_path / "csv" / f"{stem}.csv")
    assert len(rows) > 1
    written = (tmp_path / "json" / f"{stem}.json").read_text("utf-8")
    assert written == json.dumps(rows, indent=2) + "\n"

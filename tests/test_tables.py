"""The CLI table writer against the per-row writer it replaced.

``_write_table`` writes its rows in an optional order that may repeat
them, by one of two paths. A table without column counts is written row by
row; one with them (a compact block whose column j fills ``counts[j]``
written columns, as a curvature map's segments fill their bins) goes to
``_write_runs``, which takes each column of a chunk on its own, formats
each of its distinct floats once and builds the text of its run of columns
once per value. The oracle here is the plain writer, one ``repr`` per
cell, on the expanded rows in that order; a second check reads every
written cell back with ``float`` and compares bits with the input, and a
third that the table took the path it should. Both paths format their
floats by ``_texts``, which takes its texts from orjson in a table of
``_ORJSON_CELLS`` written cells or more and must equal ``repr`` on every
float64.
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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flexokit import cli
from flexokit.limb_sim import cycle_index

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
           2.2250738585072014e-308, 1e-310, 1e16, 1e22, -1e22, 0.1,
           1 / 3, 11.666666666666666]
# Quiet NaNs of both signs and two payloads.
NANS = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                 0xFFF800000000BEEF], dtype=np.uint64).view(np.float64)
# Floats that a float compare finds equal, or a NaN compare unordered, but
# whose bits differ: the writer must keep them apart, in neighbouring
# columns and within one column.
TWINS = [(0.0, -0.0), (-0.0, 0.0), (NANS[0], NANS[1]), (NANS[2], NANS[3]),
         (NANS[1], NANS[2])]
# The ends of the range _texts takes from orjson, with the floats
# next to them, of both signs.
EDGES = [sign * x for v in (1e-4, 1e16) for sign in (1, -1)
         for x in (np.nextafter(v, 0).item(), v,
                   np.nextafter(v, 2 * v).item())]
FLOATS = st.one_of(st.sampled_from(SPECIAL + EDGES + list(NANS)),
                   st.floats(width=64))


def bundled_path(name: str) -> str:
    return str(resources.files("flexokit") / "data" / name)


def reference_csv(header, rows) -> str:
    """The writer before chunking: one repr per cell, row by row."""
    rows = np.asarray(rows, dtype=float).tolist()
    return "".join([",".join(header) + "\n"]
                   + [",".join(map(repr, row)) + "\n" for row in rows])


def repr_rows(block) -> list[str]:
    return [",".join(map(repr, row)) for row in block.tolist()]


# The writer of tables with column counts, and the float-text kernel.
KERNELS = ("_write_runs", "_texts")


def write_csv(header, rows, chunk_cells=None, order=None,
              orjson_cells=None, called=None, counts=None) -> str:
    """The CSV ``_write_table`` writes; ``called``, a dict, gets the
    ``fast`` argument of each call to each of ``KERNELS``."""
    patches = contextlib.ExitStack()
    for name, value in (("_CHUNK_CELLS", chunk_cells),
                        ("_ORJSON_CELLS", orjson_cells)):
        if value is not None:
            patches.enter_context(mock.patch.object(cli, name, value))
    spies = {name: patches.enter_context(mock.patch.object(
                 cli, name, wraps=getattr(cli, name))) for name in KERNELS}
    with tempfile.TemporaryDirectory() as directory, patches, \
            contextlib.redirect_stdout(io.StringIO()):
        with cli._staging(Path(directory)) as stage:
            cli._write_table(stage, "t", header, rows, order=order,
                             counts=counts)
        if called is not None:
            called.update({name: [call.args[-1] for call in
                                  spy.call_args_list]
                           for name, spy in spies.items()})
        return (Path(directory) / "t.csv").read_bytes().decode("utf-8")


def check_table(table, chunk_cells=None, as_list=False, order=None,
                orjson_cells=None, counts=None) -> dict:
    """Check the CSV of ``table``, its column j repeated ``counts[j]``
    times, against the oracle, and that it took its path; return the
    ``fast`` of each call to each of ``KERNELS``."""
    rows = table.tolist() if as_list else table
    if counts is not None:
        table = np.repeat(table, counts, axis=1)
    header = [f"c{i}" for i in range(table.shape[1])]
    called = {}
    text = write_csv(header, rows, chunk_cells, order, orjson_cells, called,
                     counts)
    if order is not None:
        table = table[order]
    gate = cli._ORJSON_CELLS if orjson_cells is None else orjson_cells
    fast = table.size >= gate
    assert called["_write_runs"] == ([] if counts is None else [fast])
    # _texts formats every chunk, or every column of it, on both sides of
    # the gate, and a table of no lines formats nothing
    assert set(called["_texts"]) == ({fast} if table.size else set())
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
    return called


@st.composite
def tables(draw):
    """A table and its column counts, or None for a table without them."""
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
        # twins side by side in every row, and down one column
        a, b = draw(st.sampled_from(TWINS))
        at = draw(st.integers(0, cols))
        twins = np.column_stack([np.repeat([[a, b]], rows, axis=0),
                                 np.resize([a, b], rows)])
        table = np.concatenate([table[:, :at], twins, table[:, at:]], axis=1)
    counts = None
    if draw(st.booleans()):
        # the columns a cycle's curvature map repeats, one per bin
        counts = draw(st.lists(st.integers(1, 4), min_size=table.shape[1],
                               max_size=table.shape[1]))
    return table, counts


def orders(rows):
    """Row orders: none, a cycle's mirror, reversed, any with repeats, and
    the empty order."""
    repeats = st.lists(st.integers(0, rows - 1), max_size=60) if rows \
        else st.just([])
    return st.one_of(
        st.none(), st.just(cycle_index(rows)),
        st.just(np.arange(rows)[::-1]),
        repeats.map(lambda index: np.array(index, dtype=np.intp)),
        st.just(np.array([], dtype=np.intp)))


@settings(max_examples=400, deadline=None, database=None)
@given(drawn=tables(), chunk_cells=st.integers(1, 30), as_list=st.booleans(),
       data=st.data())
def test_csv_matches_the_per_row_writer(drawn, chunk_cells, as_list, data):
    # tables with and without column counts take the two paths; small
    # chunks put boundaries inside the table, on and off its end, and split
    # a mirrored row from the row it repeats. A gate of 0 cells puts every
    # table above it, one at the table's written cells or one more puts the
    # table just on either side, and None keeps the real gate
    table, counts = drawn
    order = data.draw(orders(len(table)), label="order")
    width = table.shape[1] if counts is None else sum(counts)
    cells = (len(table) if order is None else len(order)) * width
    orjson_cells = data.draw(st.sampled_from([0, cells, cells + 1, None]),
                             label="orjson_cells")
    check_table(table, chunk_cells, as_list, order, orjson_cells, counts)


@settings(max_examples=500, deadline=None, database=None)
@given(st.lists(FLOATS, min_size=8, max_size=40))
# values below 1e-4 that orjson writes without an exponent (0.00005), in
# a dump that holds no exponent at all
@example([5e-05, 1.5e-05, 9.999999999999999e-05, 0.5, 1.0, 2.0, 3.0, 4.0])
def test_texts_is_repr(floats):
    values = np.array(floats, dtype=np.float64)
    block = values[:len(values) // 8 * 8].reshape(-1, 8)
    for fast in (True, False):
        assert cli._texts(values, fast) == list(map(repr, values.tolist()))
        assert cli._texts(block, fast) == repr_rows(block)


def test_texts_is_repr_on_a_million_bit_patterns():
    # half drawn from every bit pattern, most of them outside the range
    # orjson's text is taken from; half with an exponent from just below
    # 1e-4 to just above 1e16
    rng = np.random.default_rng(1911_06897)
    bits = rng.integers(0, 2 ** 64, size=(2, 10 ** 6 // 2), dtype=np.uint64)
    exponents = rng.integers(1023 - 14, 1023 + 54, size=bits.shape[1],
                             dtype=np.uint64)
    inside = bits[1] & ~np.uint64(0x7FF << 52) | exponents << np.uint64(52)
    for values in (bits[0].view(np.float64), inside.view(np.float64)):
        assert cli._texts(values, True) == list(map(repr, values.tolist()))
        block = values.reshape(-1, 8)
        assert cli._texts(block, True) == repr_rows(block)


@pytest.mark.parametrize("ndim", [1, 2], ids=["1-D", "2-D"])
def test_texts_keeps_repr_when_orjson_writes_an_exponent(ndim):
    # an orjson that writes 1e5 for 100000.0 must not change a byte of the
    # kernel's texts, nor of a whole table: one with column counts formats
    # the distinct values of each column (1-D), one without its rows (2-D)
    import orjson
    dumps = orjson.dumps

    def exponent(values, option):
        return dumps(values, option=option).replace(b"100000.0", b"1e5")

    table = np.random.default_rng(5).standard_normal((600, 5))
    table[[3, 590], 2] = 1e5
    values = table.ravel() if ndim == 1 else table
    expected = (list(map(repr, values.tolist())) if ndim == 1
                else repr_rows(table))
    with mock.patch.object(orjson, "dumps", exponent):
        assert cli._texts(values, True) == expected
        counts = [1, 1, 2, 1, 1] if ndim == 1 else None
        assert set(check_table(table, counts=counts)["_texts"]) == {True}


@pytest.mark.parametrize("rows", [cli._ORJSON_CELLS // 5 - 1,
                                  cli._ORJSON_CELLS // 5])
def test_tables_from_the_gate_on_take_float_texts(rows):
    # from the gate on, _texts takes orjson's texts, for the rows of a
    # table without column counts and for the distinct values of each
    # column of a table of four columns that writes the same five
    table = np.random.default_rng(rows).standard_normal((rows, 5))
    above = table.size >= cli._ORJSON_CELLS
    assert check_table(table) == {"_write_runs": [], "_texts": [above]}
    assert check_table(table[:, :4], counts=[1, 1, 1, 2]) == {
        "_write_runs": [above], "_texts": [above] * 4}


@pytest.mark.parametrize("ordered", [False, True])
def test_table_above_the_gate_matches_the_per_row_writer(ordered):
    # values on both sides of 1e-4 and 1e16, and every kind orjson writes
    # as null or in its own notation, among ordinary ones, on both paths
    rng = np.random.default_rng(7)
    pool = SPECIAL + EDGES + list(NANS) + list(
        rng.choice([-1, 1], 200) * 10 ** rng.uniform(-8, 20, 200))
    table = rng.choice(pool, size=(600, 5))
    order = cycle_index(len(table)) if ordered else None
    assert check_table(table, order=order)["_texts"] == [True]
    assert set(check_table(table, order=order, counts=[3, 1, 1, 2, 1])[
        "_texts"]) == {True}


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (7, 1), (1, 9)])
def test_degenerate_shapes(shape):
    # below the gate and above it, without column counts and with them
    rng = np.random.default_rng(sum(shape))
    table = rng.choice(SPECIAL, size=shape)
    for orjson_cells in (None, 0):
        for counts in (None, [1] * shape[1], [3] * shape[1]):
            check_table(table, orjson_cells=orjson_cells, counts=counts)


def test_empty_row_list_writes_the_header_only():
    assert write_csv(["a", "b"], []) == "a,b\n"


@pytest.mark.parametrize("cols", [3, 4])
@pytest.mark.parametrize("extra_rows", [0, 1])
def test_default_chunk_boundaries(cols, extra_rows):
    # 2^16 cells end mid-row for 3 columns and on a row for 4; the table
    # holds exactly two chunks of rows, or one row more. With column counts
    # a chunk holds 2^16 cells of the columns given, and its lines are
    # written 2^16 written cells at a time: the last column written twice
    # puts those ends on a row for 3 columns and mid-row for 4
    chunk_rows = cli._CHUNK_CELLS // cols
    rng = np.random.default_rng(cols)
    table = rng.choice(SPECIAL + list(rng.standard_normal(200)),
                       size=(2 * chunk_rows + extra_rows, cols))
    check_table(table)
    check_table(table, counts=[1] * (cols - 1) + [2])


@pytest.mark.parametrize("document, limb", [
    ("hind_leg.json", "hind_leg"), ("quadruped.json", "hind_right")])
@pytest.mark.parametrize("steps", [2, 101, 1465])
@pytest.mark.parametrize("arc_bins", [1, 64])
def test_cycle_tables_match_the_per_row_writer(tmp_path, document, limb,
                                               steps, arc_bins):
    # cycle tables repeat whole columns (the map's bins within one segment)
    # and whole rows (release mirrors pull); the second run's small chunks
    # put a release row in another chunk than the pull row it mirrors
    from flexokit.core import MM, parse_design
    from flexokit.limb_sim import (curvature_columns, limb_from_document,
                                   sweep_cycle)
    doc = parse_design(Path(bundled_path(document)).read_text("utf-8"))
    spec = limb_from_document(doc, limb)
    cycle = sweep_cycle(spec, steps=steps)
    bins, kappa, counts = curvature_columns(spec, cycle.theta, arc_bins)
    joints = [f"theta_{i}_rad" for i in range(len(spec.stiffness))]

    def up_and_down(table):
        # the pull rows, then the release rows: the pull rows but the top
        # one, in reverse
        return np.concatenate([table, table[-2::-1]])

    trajectory = reference_csv(
        ["pull_mm", "foot_x_mm", "foot_y_mm", *joints, "tension_N"],
        up_and_down(np.column_stack([cycle.pulls / MM, cycle.foot_path / MM,
                                     cycle.theta, cycle.tension])))
    curvature = reference_csv(
        ["pull_mm"] + [repr(s / MM) for s in bins],
        up_and_down(np.column_stack([cycle.pulls / MM,
                                     np.repeat(kappa, counts, axis=1)])))
    for chunk_cells in (cli._CHUNK_CELLS, 2 ** 9):
        out = tmp_path / str(chunk_cells)
        with mock.patch.object(cli, "_CHUNK_CELLS", chunk_cells), \
                contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["simulate-limb", "-i", bundled_path(document),
                             "--limb", limb, "--steps", str(steps),
                             "--arc-bins", str(arc_bins),
                             "-o", str(out)]) == 0
        assert (out / f"{limb}_trajectory.csv").read_text("utf-8") \
            == trajectory
        assert (out / f"{limb}_curvature.csv").read_text("utf-8") \
            == curvature


def hind_leg_with_links(tmp_path, links) -> str:
    """The bundled hind leg's document with the links before, between and
    after its two joints set to the lengths (mm) of the three lists of
    ``links``; returns the new document's path."""
    document = json.loads(Path(bundled_path("hind_leg.json")).read_text(
        "utf-8"))
    segments = document["limbs"]["hind_leg"]["segments"]
    first, second = (s for s in segments if "joint" in s)
    before, between, after = ([{"link_mm": mm} for mm in group]
                              for group in links)
    segments[:] = before + [first] + between + [second] + after
    path = tmp_path / "leg.json"
    path.write_text(json.dumps(document), "utf-8")
    return str(path)


@pytest.mark.parametrize("links, binless, zero", [
    # a 0.1 mm link between the joints, which no bin center falls in
    ([[10.0], [0.1], [14.0]], [2], []),
    # two links in a row at the foot, each holding bins of zero curvature
    ([[10.0], [14.0], [8.0, 6.0]], [], [4, 5]),
], ids=["binless-link", "adjacent-zero-links"])
@pytest.mark.parametrize("steps", [2, 101])
@pytest.mark.parametrize("arc_bins", [16, 64])
def test_cycle_tables_with_binless_and_zero_links_match_the_per_row_writer(
        tmp_path, links, binless, zero, steps, arc_bins):
    # the writer takes one column per segment that holds a bin, with the
    # number of bins it holds: a segment holding none writes no column,
    # and two adjacent segments of the same curvature write two runs
    from flexokit.core import MM, parse_design
    from flexokit.limb_sim import (curvature_columns, limb_from_document,
                                   sweep_cycle)
    document = hind_leg_with_links(tmp_path, links)
    spec = limb_from_document(
        parse_design(Path(document).read_text("utf-8")), "hind_leg")
    cycle = sweep_cycle(spec, steps=steps)
    bins, kappa, counts = curvature_columns(spec, cycle.theta, arc_bins)
    # each bin reads the segment whose span holds its center, and kappa
    # keeps one column per segment that holds a bin, base to foot, with
    # the number of bins it holds
    ends = np.cumsum(spec.lengths).tolist()
    held = [next(i for i, end in enumerate(ends) if s < end)
            for s in bins.tolist()]
    used = sorted(set(held))
    assert counts == [held.count(i) for i in used]
    assert kappa.shape == (steps, len(used))
    assert not set(binless) & set(used)
    assert set(zero) <= set(used)
    assert (kappa[:, [used.index(i) for i in zero]] == 0).all()
    bent = [i for i in used if spec.is_joint[i]]
    assert all((kappa[:, used.index(i)] != 0).any() for i in bent)
    curvature = reference_csv(
        ["pull_mm"] + [repr(s / MM) for s in bins],
        np.column_stack([cycle.pulls / MM,
                         kappa[:, [used.index(i) for i in held]]])[
            cycle_index(steps)])
    for chunk_cells in (cli._CHUNK_CELLS, 2 ** 9):
        out = tmp_path / str(chunk_cells)
        with mock.patch.object(cli, "_CHUNK_CELLS", chunk_cells), \
                contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["simulate-limb", "-i", document,
                             "--steps", str(steps),
                             "--arc-bins", str(arc_bins),
                             "-o", str(out)]) == 0
        assert (out / "hind_leg_curvature.csv").read_text("utf-8") \
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


def test_json_format_writes_the_rows_in_order(tmp_path):
    rows = [[0.5, -0.0], [1.5, 1e300], [2.5, 0.1]]
    with contextlib.redirect_stdout(io.StringIO()), \
            cli._staging(tmp_path) as stage:
        cli._write_table(stage, "t", ["a", "b"], rows, "json")
    written = (tmp_path / "t.json").read_text("utf-8")
    expected = [dict(zip(["a", "b"], row)) for row in rows]
    assert written == json.dumps(expected, indent=2) + "\n"

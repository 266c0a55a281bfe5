"""Command-line pipeline: design documents in, plot-ready data files out.

Every subcommand except ``solve-limit`` reads a JSON design document
(``design`` only for its stiffness targets), dispatches to the
corresponding module, and writes its outputs into --out-dir, every file or
none. Each flag is declared only on the subcommands that read it. Curves
and sweeps go to CSV (or a JSON list of objects with --format json),
scalars and reports to JSON, geometry to binary STL with a JSON sidecar
manifest. Outputs are byte-stable across runs; the only timestamp lives in
the manifest's ``generated_at`` field. One parser is built per process, on
the first call of ``main``, and parses every later command line.

Exit status: 0 on success, 1 when ``validate --strict`` finds warnings, 2
on any rejection, a malformed or unknown flag and an input whose arithmetic
overflows included (a single-line JSON diagnostic goes to stderr).
``--help`` and ``--version`` exit 0.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from itertools import takewhile
from pathlib import Path
from typing import Callable, Optional

from . import __version__
from ._record import Record
from .core import (MM, DesignDoc, ExtensionalLimitEntry, FlexionalLimitEntry,
                   Material, check_part_triangles, parse_design,
                   parse_materials, to_document, validate_process)
from .errors import DesignError, FlexokitError, located
from .joint_limits import (extensional_inverse, extensional_jam_angle,
                           flexional_inverse, flexional_jam_angle)

# Subcommands import numpy and the stiffness, limb_sim, gait_sim and
# geometry modules where they call them, so that validate, design and
# solve-limit start without numpy.

# Jamming-feature dimensions: (dest, kind, sweep name, default, help). The
# flag is --dest with dashes; a dimension no flag sets takes the default,
# the value the bundled sample documents use.
_LIMIT_DIMENSIONS = (
    ("spacing_mm", "flexional", "D", 6.0,
     "flexional feature spacing D (mm)"),
    ("head_radius_mm", "flexional", "r", 2.0,
     "flexional head radius r (mm)"),
    ("stem_height_mm", "flexional", "h", 4.0,
     "flexional stem height h (mm)"),
    ("diagonal_mm", "extensional", "L", 7.0,
     "extensional standoff diagonal L (mm)"),
    ("base_width_mm", "extensional", "b", 5.4,
     "extensional base width b (mm)"),
    ("tip_radius_mm", "extensional", "r", 1.8,
     "extensional tip radius r (mm)"),
    ("mount_height_mm", "extensional", "h", 2.0,
     "extensional mount standoff height h (mm)"),
    ("incline_deg", "extensional", "gamma", 45.0,
     "extensional feature incline gamma (degrees)"),
)

# The most values one --sweep may expand to; each is a solver call and a row.
MAX_SWEEP_ROWS = 10_000

# About how many cells of a CSV table are formatted and written at a time.
_CHUNK_CELLS = 1 << 16

# A CSV table of fewer cells than this takes repr alone: importing orjson
# costs more than its faster digits save there. orjson 3.8.3 also imports
# uuid, zoneinfo and sysconfig; its import took 3.4-9.5 ms and under 1 MB
# (2-vCPU Xeon, Python 3.11).
_ORJSON_CELLS = 2_000


# --------------------------------------------------------------------------
# Small plumbing helpers

@contextmanager
def _staging(directory: Path):
    """Yield ``stage(name)``, which makes ``directory`` on first use and
    names the temporary sibling of ``directory / name`` to write; it
    refuses a name that is another staged file's temporary, or whose
    temporary is another staged name. When the block ends, each staged
    file moves into place, in the order first staged, and ``wrote <path>``
    is reported; when it raises, or a destination is a directory, every
    temporary and every directory ``stage`` made is removed and nothing
    moves. A move that still fails removes the temporaries left."""
    staged: dict[Path, Path] = {}
    made: list[Path] = []   # deepest first

    def stage(name: str) -> Path:
        if not staged:
            made.extend(takewhile(lambda d: not d.exists(),
                                  (directory, *directory.parents)))
            directory.mkdir(parents=True, exist_ok=True)
        path = directory / name
        tmp = path.with_name(path.name + ".tmp")
        if tmp in staged or path in staged.values():
            temporary, owner = (tmp, path) if tmp in staged else next(
                (v, k) for k, v in staged.items() if v == path)
            raise DesignError(
                f"{temporary.name} is the temporary file of {owner.name}")
        staged[path] = tmp
        return tmp

    try:
        yield stage
        for path in filter(Path.is_dir, staged):
            raise IsADirectoryError(
                errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for path, tmp in staged.items():
            os.replace(tmp, path)
            print(f"wrote {path}")
    except BaseException:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)
        for made_dir in made:
            with suppress(OSError):
                made_dir.rmdir()
        raise


def _write_json(path: Path, payload) -> None:
    path.write_bytes((json.dumps(payload, indent=2) + "\n").encode())


def _texts(values, fast: bool) -> list[str]:
    """``repr`` of each float64 of the non-empty 1-D array ``values``, or
    ``",".join(map(repr, row))`` of each row of a 2-D one; when ``fast``,
    cut from one orjson text of the whole array.

    orjson writes the shortest digits that read back to the same float,
    which are the digits ``repr`` writes; only the notation can differ. It
    writes as ``repr`` does 0.0, -0.0 and 1e-4 <= |x| < 1e16, a value that
    is not finite as ``null``, and others in its own way (``0.00005``,
    ``1e16``). So every value outside that range is set to 0.0 before the
    dump, and the value or row that held it takes ``repr``. So does every
    entry when orjson's text holds an ``e`` anywhere, so that no orjson
    version can change a written byte by choosing another notation.
    """
    entry = repr if values.ndim == 1 else (
        lambda row: ",".join(map(repr, row)))
    if not fast:
        return list(map(entry, values.tolist()))
    import numpy as np
    import orjson
    magnitude = np.abs(values)
    plain = ((magnitude >= 1e-4) & (magnitude < 1e16)) | (values == 0)
    mixed = np.flatnonzero(
        ~plain.reshape(len(values), -1).all(axis=1)).tolist()
    clean = np.ascontiguousarray(
        np.where(plain, values, 0.0) if mixed else values)
    text = orjson.dumps(clean, option=orjson.OPT_SERIALIZE_NUMPY)
    if b"e" in text:
        return list(map(entry, values.tolist()))
    # [a,b] for values, [[a,b],[c,d]] for rows
    texts = text[values.ndim:-values.ndim].decode().split(
        "," if values.ndim == 1 else "],[")
    for i, value in zip(mixed, values[mixed].tolist()):
        texts[i] = entry(value)
    return texts


def _write_table(stage, stem: str, header: list[str], rows,
                 fmt: str = "csv", order=None, counts=None) -> None:
    """Float rows, staged by ``stage`` (see ``_staging``) as ``<stem>.csv``
    or as ``<stem>.json``, a list of objects keyed by the header, one per
    row. ``order`` and ``counts`` are for CSV only: ``order``, an index
    array into the rows, gives the rows to write, in
    the order to write them (a row may repeat); by default every row is
    written once, as given. ``counts`` holds for each column of the rows
    the number of adjacent written columns that repeat it (a curvature
    map's bins within one segment); by default each column is written
    once.

    Each CSV cell is Python's ``repr`` of the cell as a float64: the
    shortest text that reads back to the same float, with ``-0.0``,
    ``inf``, ``-inf`` and ``nan`` written as Python writes them, by
    ``_texts``; it takes orjson's digits in a table of ``_ORJSON_CELLS``
    written cells or more, and ``repr`` alone in a smaller one. The lines
    are written a chunk at a time: row by row for a table without
    ``counts``, column by column by ``_write_runs`` for one with them.
    """
    import numpy as np
    table = np.asarray(rows, dtype=np.float64)
    if fmt == "json":
        _write_json(stage(f"{stem}.json"),
                    [dict(zip(header, row)) for row in table.tolist()])
        return
    width = len(header)
    table = table.reshape(len(table), width if counts is None
                          else len(counts))
    lines = len(table) if order is None else len(order)
    fast = lines * width >= _ORJSON_CELLS
    with open(stage(f"{stem}.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if counts is not None:
            _write_runs(fh, table, counts, order, fast)
            return
        chunk_rows = max(1, _CHUNK_CELLS // width)
        for start in range(0, lines, chunk_rows):
            if order is None:
                picked, back = slice(start, start + chunk_rows), None
            else:
                # a row this chunk's lines repeat is formatted once
                picked, back = np.unique(order[start:start + chunk_rows],
                                         return_inverse=True)
            texts = _texts(table[picked], fast)
            if back is not None:
                texts = [texts[i] for i in back.tolist()]
            fh.write("\n".join(texts) + "\n")


def _write_runs(fh, table, counts, order, fast: bool) -> None:
    """The CSV lines of ``_write_table`` to ``fh``, for the rows ``table``
    whose column j is written ``counts[j]`` times in a row.

    Curvature maps repeat most of their values, so each column of a chunk
    of lines is taken on its own: each distinct float64 of it (by its
    bits, so -0.0 stays apart from 0.0) is formatted once, by ``_texts``,
    and the text of its run of columns is built once per distinct value,
    so a row that ``order`` repeats within the chunk costs no second
    format. Each line is then one piece per column, and the pieces are
    joined in C. Chunks bound the memory held: a chunk holds about
    ``_CHUNK_CELLS`` cells of ``table``, and is written about
    ``_CHUNK_CELLS`` written cells at a time.
    """
    import numpy as np
    bits = table.view(np.int64)
    lines = len(bits) if order is None else len(order)
    chunk_rows = max(1, _CHUNK_CELLS // len(counts))
    line_rows = max(1, _CHUNK_CELLS // sum(counts))
    ends = [","] * (len(counts) - 1) + ["\n"]
    for start in range(0, lines, chunk_rows):
        span = slice(start, start + chunk_rows)
        block = bits[span if order is None else order[span]]
        cells = np.empty(block.shape, dtype=object)
        for j, (n, end) in enumerate(zip(counts, ends)):
            values, inverse = np.unique(block[:, j], return_inverse=True)
            texts = _texts(values.view(np.float64), fast)
            cells[:, j] = np.array([(t + ",") * (n - 1) + t + end
                                    for t in texts], dtype=object)[inverse]
        for at in range(0, len(cells), line_rows):
            fh.write("".join(cells[at:at + line_rows].ravel().tolist()))


def _load_overrides() -> Optional[dict[str, Material]]:
    """Materials from the file named by FLEXOKIT_MATERIALS, if set."""
    location = os.environ.get("FLEXOKIT_MATERIALS")
    if not location:
        return None
    try:
        text = Path(location).read_text("utf-8")
    except OSError as exc:
        raise DesignError(f"cannot read materials override {location}: {exc}")
    return parse_materials(text)


def _load_document(path: str) -> DesignDoc:
    try:
        text = Path(path).read_text("utf-8")
    except OSError as exc:
        raise DesignError(f"cannot read input document: {exc}")
    return parse_design(text, materials_override=_load_overrides())


def _pick(table: dict, requested: Optional[str], what: str):
    if not table:
        raise DesignError(f"document declares no {what}")
    if requested is None:
        return next(iter(table.items()))
    if requested not in table:
        raise DesignError(
            f"unknown {what} {requested!r}; document declares "
            f"{sorted(table)}")
    return requested, table[requested]


def _parse_sweep(text: str) -> tuple[str, list[float]]:
    """``name=start:stop:step`` with inclusive endpoints."""
    try:
        name, _, rng = text.partition("=")
        start, stop, step = map(float, rng.split(":"))
    except ValueError:
        raise DesignError(
            f"bad --sweep {text!r}: expected name=start:stop:step")
    if not name:
        raise DesignError(f"bad --sweep {text!r}: missing parameter name")
    if not all(map(math.isfinite, (start, stop, step))):
        raise DesignError(
            f"bad --sweep {text!r}: start, stop and step must be finite")
    if step <= 0 or stop < start:
        raise DesignError(
            f"bad --sweep {text!r}: need step > 0 and stop >= start")
    span = (stop - start) / step + 1e-9
    if not span < MAX_SWEEP_ROWS:
        raise DesignError(
            f"bad --sweep {text!r}: more than {MAX_SWEEP_ROWS} values")
    return name, [start + i * step for i in range(int(span) + 1)]


# --------------------------------------------------------------------------
# Subcommands

def _cmd_validate(args, stage) -> int:
    from .limb_sim import limb_from_document
    from .stiffness import check_rib_periods
    doc = _load_document(args.input)
    for name in doc.limbs:
        limb_from_document(doc, name)
    for name, flex in doc.flexures.items():
        with located(f"flexures.{name}"):
            check_rib_periods(flex)
    for i, part in enumerate(doc.export.parts):
        with located(f"export.parts[{i}]"):
            check_part_triangles(part.kind, _part_source(doc, part),
                                 part.count, part.facets)
    if doc.process is not None:
        report = validate_process(doc.process)
        entries, text = report.to_json(), report.to_text()
        has_warnings = report.has_warnings
    else:
        entries, text = [], "no process section; schema checks only\n"
        has_warnings = False
    sys.stdout.write(text)
    _write_json(stage("validation_report.json"), {
        "document": os.path.basename(args.input),
        "schema_version": doc.schema_version,
        "entries": entries,
    })
    if has_warnings and args.strict:
        return 1
    return 0


def _stiffness_row(flex) -> list[float]:
    from .stiffness import homogenized_EI, tip_stiffness_exact
    result = homogenized_EI(flex)
    ribs = flex.ribs
    return [
        ribs.width_ratio if ribs else 0.0,
        ribs.feature_height_mm if ribs else 0.0,
        result.EI_eff * 1e6,          # N*m^2 -> N*mm^2
        result.k_tip,
        tip_stiffness_exact(flex),
    ]


def _cmd_predict_stiffness(args, stage) -> int:
    doc = _load_document(args.input)
    name, flex = _pick(doc.flexures, args.flexure, "flexures")
    flexures = [flex]
    if args.sweep:
        param, values = _parse_sweep(args.sweep)
        if param not in ("width_ratio", "feature_height_mm"):
            raise DesignError(
                "predict-stiffness sweeps width_ratio or feature_height_mm")
        if flex.ribs is None:
            raise DesignError(
                f"flexure {name!r} has no rib pattern to sweep")
        from .stiffness import MAX_SWEEP_PERIODS, rib_periods
        periods = math.ceil(rib_periods(flex))
        if len(values) * periods > MAX_SWEEP_PERIODS:
            raise DesignError(
                f"bad --sweep {args.sweep!r}: {len(values)} rows of "
                f"{periods} rib periods, more than {MAX_SWEEP_PERIODS} "
                "periods in all")
        flexures = [flex.replace(ribs=flex.ribs.replace(**{param: value}))
                    for value in values]
    header = ["width_ratio", "feature_height_mm", "EI_eff_Nmm2",
              "k_tip_N_per_m", "k_exact_N_per_m"]
    with located(f"flexures.{name}"):
        rows = [_stiffness_row(f) for f in flexures]
    _write_table(stage, "stiffness", header, rows, args.format)
    return 0


def _limit_params(args, kind: str) -> dict[str, float]:
    return {dest: getattr(args, dest, default)
            for dest, dim_kind, _, default, _ in _LIMIT_DIMENSIONS
            if dim_kind == kind}


# Each limit kind: the document entry that turns its dimensions into a
# spec, and the forward solver for that spec's jam angle.
_LIMIT_KINDS = {
    "flexional": (FlexionalLimitEntry, flexional_jam_angle),
    "extensional": (ExtensionalLimitEntry, extensional_jam_angle),
}


def _limit_solution(kind: str, params: dict[str, float]) -> dict:
    """Forward jam angle plus the residual of the defining relation."""
    entry, jam_angle = _LIMIT_KINDS[kind]
    spec = entry(**params).spec
    angle = jam_angle(spec)
    return {"angle_deg": math.degrees(angle), "angle_rad": angle,
            "residual": spec.residual(angle),
            "inputs": {"kind": kind, **params}}


def _cmd_solve_limit(args, stage) -> int:
    kind = "extensional" if args.extensional else "flexional"
    params = _limit_params(args, kind)
    if not args.sweep:
        solution = _limit_solution(kind, params)
        _write_json(stage("solve_limit.json"), solution)
        return 0
    raw_name, values = _parse_sweep(args.sweep)
    fields = {sweep_name: dest
              for dest, dim_kind, sweep_name, _, _ in _LIMIT_DIMENSIONS
              if dim_kind == kind}
    if raw_name not in fields:
        raise DesignError(
            f"unknown {kind} sweep parameter {raw_name!r}; "
            f"choose from {sorted(fields)}")
    rows = []
    for value in values:
        solution = _limit_solution(kind, {**params, fields[raw_name]: value})
        rows.append([value, solution["angle_rad"], solution["angle_deg"],
                     solution["residual"]])
    _write_table(stage, "solve_limit",
                 [raw_name, "angle_rad", "angle_deg", "residual"], rows,
                 args.format)
    return 0


def _cmd_design(args, stage) -> int:
    if args.target in ("width_ratio", "feature_height"):
        from .stiffness import (_section_pair, homogenized_EI,
                                solve_feature_height, solve_width_ratio)
        if args.stiffness_n_per_m is None:
            raise DesignError(
                f"--target {args.target} needs --stiffness-n-per-m")
        if args.input is None:
            raise DesignError(
                f"--target {args.target} needs an input document (-i) "
                "with the template flexure")
        doc = _load_document(args.input)
        name, flex = _pick(doc.flexures, args.flexure, "flexures")
        # located as validate and predict-stiffness locate it; a target
        # out of range keeps its own message
        with located(f"flexures.{name}"):
            _section_pair(flex)
        target_k = args.stiffness_n_per_m
        if args.target == "width_ratio":
            field, solved = "width_ratio", solve_width_ratio(target_k, flex)
        else:
            field = "feature_height_mm"
            solved = solve_feature_height(target_k, flex) / MM
        ribs = flex.ribs.replace(**{field: solved})
        achieved = homogenized_EI(flex.replace(ribs=ribs)).k_tip
        payload = {"target": args.target, "template_flexure": name,
                   "stiffness_n_per_m": target_k, field: solved,
                   "achieved_n_per_m": achieved}
    else:
        if args.angle_deg is None:
            raise DesignError(f"--target {args.target} needs --angle-deg")
        angle = math.radians(args.angle_deg)
        kind = "flexional" if args.target == "stem_height" else "extensional"
        params = _limit_params(args, kind)
        if kind == "flexional":
            key = "stem_height_mm"
            solved_m = flexional_inverse(angle, params["head_radius_mm"] * MM,
                                         params["spacing_mm"] * MM)
        else:
            key = "diagonal_mm"
            solved_m = extensional_inverse(
                angle, params["base_width_mm"] * MM,
                params["tip_radius_mm"] * MM, params["mount_height_mm"] * MM,
                math.radians(params["incline_deg"]))
        params[key] = solved_m / MM
        check = _limit_solution(kind, params)
        payload = {"target": args.target, "angle_deg": args.angle_deg,
                   key: params[key], "residual": check["residual"],
                   "inputs": check["inputs"]}
    _write_json(stage("design.json"), payload)
    return 0


def _cmd_simulate_limb(args, stage) -> int:
    import numpy as np
    from .limb_sim import cycle_index, limb_from_document, sweep_cycle
    doc = _load_document(args.input)
    name, _ = _pick(doc.limbs, args.limb, "limbs")
    limb = limb_from_document(doc, name)
    max_pull = args.max_pull_mm * MM if args.max_pull_mm is not None else None
    cycle = sweep_cycle(limb, max_pull=max_pull, steps=args.steps,
                        arc_bins=args.arc_bins)
    # The release rows mirror the pull rows the cycle holds: each table
    # writes those rows in cycle order.
    order = cycle_index(args.steps)
    pulls_mm = cycle.pulls / MM
    header = ["pull_mm", "foot_x_mm", "foot_y_mm",
              *(f"theta_{i}_rad" for i in range(len(limb.stiffness))),
              "tension_N"]
    _write_table(stage, f"{name}_trajectory", header,
                 np.column_stack([pulls_mm, cycle.foot_path / MM,
                                  cycle.theta, cycle.tension]),
                 order=order)
    # The bins within one segment share its curvature: the writer takes
    # each segment's column once, with the number of bins it fills.
    _write_table(stage, f"{name}_curvature",
                 ["pull_mm"] + [repr(s / MM) for s in cycle.arc_bins],
                 np.column_stack([pulls_mm, cycle.kappa]),
                 order=order,
                 counts=[1, *np.bincount(cycle.segment).tolist()])
    _write_json(stage(f"{name}_metrics.json"), {
        "stroke_distance_mm": cycle.metrics.stroke_distance / MM,
        "stroke_ratio": cycle.metrics.stroke_ratio,
    })
    return 0


def _cmd_simulate_gait(args, stage) -> int:
    from .gait_sim import gait_from_document, speed_curve
    doc = _load_document(args.input)
    strokes = gait_from_document(doc, steps=args.steps)
    points = speed_curve(doc.gait, strokes)
    _write_table(stage, "gait_speed", ["frequency_hz", "speed_mm_s"],
                 [[f, v / MM] for f, v in points], args.format)
    return 0


def _part_source(doc: DesignDoc, part):
    """The FlexureSpec or limit spec an export part is built from."""
    if part.kind == "flexure":
        return doc.flexures[part.ref]
    limits = (doc.flexional_limits if part.kind == "flexional"
              else doc.extensional_limits)
    return limits[part.ref].spec


def _recipe_for_part(doc: DesignDoc, part):
    """(recipe, base film thickness in mm or None) of one export part: a
    flexure's own film layer, else the process setting."""
    from .geometry import extensional_recipe, flexional_recipe, flexure_recipe
    film_mm = doc.process.pc_thickness_mm if doc.process is not None else None
    source = _part_source(doc, part)
    if part.kind == "flexure":
        return flexure_recipe(source), next(
            (thickness_mm for material, thickness_mm in source.base.layers
             if material.kind == "base_film"), film_mm)
    # a part holds only the options its kind reads; the recipe defaults
    # those it leaves out
    width = part.width_mm * MM if part.width_mm is not None else None
    options = {key: value for key, value in (
        ("count", part.count), ("facets", part.facets), ("width", width))
        if value is not None}
    if part.kind == "flexional":
        return flexional_recipe(source, **options), film_mm
    return extensional_recipe(source, **options), film_mm


def _cmd_export_geometry(args, stage) -> int:
    from datetime import datetime, timezone
    from .geometry import export_stl
    doc = _load_document(args.input)
    parts = doc.export.parts
    if not parts:
        print("no export parts declared; nothing to do")
        return 0
    process = to_document(doc.process) if doc.process is not None else None
    for i, part in enumerate(parts):
        with located(f"export.parts[{i}]"):
            recipe, film_mm = _recipe_for_part(doc, part)
            mesh = recipe.mesh()
            # validates the mesh first, and measures its volume
            byte_count = export_stl(mesh, stage(part.file))
            manifest = stage(part.manifest)
        lo, hi = mesh.bounding_box()
        _write_json(manifest, {
            "part_name": part.ref,
            "volume_mm3": mesh.volume(),
            "bbox_mm": {"min": [float(v) for v in lo],
                        "max": [float(v) for v in hi]},
            "pc_film_thickness_mm": film_mm,
            "process_config": process,
            "triangle_count": len(mesh),
            "stl_bytes": byte_count,
            "generated_at": datetime.now(timezone.utc).isoformat(),
        })
    return 0


# --------------------------------------------------------------------------
# Argument wiring

class _Parser(argparse.ArgumentParser):
    """Rejects a command line like any other input: with a DesignError,
    which ``main`` reports as exit 2 and one JSON line, not usage text."""

    def error(self, message):
        raise DesignError(f"{self.prog}: {message}")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


def _add_limit_flags(parser, skip=()):
    for dest, _, _, default, text in _LIMIT_DIMENSIONS:
        if dest not in skip:
            parser.add_argument("--" + dest.replace("_", "-"),
                                type=_finite_float, default=default,
                                help=text)


def _validate_flags(p):
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when the validation report has warnings")


def _predict_stiffness_flags(p):
    p.add_argument("--flexure", help="flexure name (default: first declared)")
    p.add_argument("--sweep", help="name=start:stop:step, e.g. "
                                   "width_ratio=0:0.8:0.1")


def _solve_limit_flags(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--flexional", action="store_true",
                       help="mushroom-pillar limit (flexion cap)")
    group.add_argument("--extensional", action="store_true",
                       help="angled-standoff limit (extension cap)")
    _add_limit_flags(p)
    p.add_argument("--sweep", help="name=start:stop:step over a feature "
                                   "dimension, e.g. L=6.5:7.5:0.25")


def _design_flags(p):
    p.add_argument("--target", required=True,
                   choices=("width_ratio", "feature_height", "stem_height",
                            "diagonal"),
                   help="quantity to solve for")
    p.add_argument("--stiffness-n-per-m", type=_finite_float,
                   help="target tip stiffness in N/m")
    p.add_argument("--angle-deg", type=_finite_float,
                   help="target jam angle in degrees")
    p.add_argument("--flexure", help="template flexure name")
    # the kind follows from --target; skip the dimension it solves for
    _add_limit_flags(p, skip=("stem_height_mm", "diagonal_mm"))


def _simulate_limb_flags(p):
    p.add_argument("--limb", help="limb name (default: first declared)")
    p.add_argument("--steps", type=int, default=101,
                   help="pull steps up (mirrored back down); default 101")
    p.add_argument("--arc-bins", type=int, default=64,
                   help="arc-length bins for the curvature map; default 64")
    p.add_argument("--max-pull-mm", type=_finite_float,
                   help="tendon pull amplitude in mm (default: the pull "
                        "that jams every joint)")


def _simulate_gait_flags(p):
    p.add_argument("--steps", type=int, default=101,
                   help="pull steps per limb cycle; default 101")


class _Subcommand(Record):
    """One subcommand: its handler, help texts, whether it reads --input
    ("required", "optional" or None), whether it takes --format, and the
    function that adds its own flags. The handler takes the parsed
    arguments and the ``stage`` of ``_staging``, which names each file it
    writes, and returns the exit status."""

    func: Callable[[argparse.Namespace, Callable[[str], Path]], int]
    summary: str
    description: str
    document: Optional[str] = "required"
    formats: bool = False
    flags: Optional[Callable[[argparse.ArgumentParser], None]] = None


# Every subcommand, in the order --help lists them.
_SUBCOMMANDS = {
    "validate": _Subcommand(
        _cmd_validate,
        "check a design document and its print process settings",
        "Reads a JSON design document (mm/GPa/degC units), resolves its "
        "limbs, bounds its flexures' rib periods, checks the print process "
        "settings, and writes validation_report.json to --out-dir.",
        flags=_validate_flags),
    "predict-stiffness": _Subcommand(
        _cmd_predict_stiffness,
        "rib-patterned flexure stiffness table",
        "Writes stiffness.csv (width_ratio, feature_height_mm, "
        "EI_eff_Nmm2, k_tip_N_per_m, k_exact_N_per_m) for a flexure from "
        "the document; --sweep varies width_ratio or feature_height_mm "
        "inclusively.", formats=True, flags=_predict_stiffness_flags),
    "solve-limit": _Subcommand(
        _cmd_solve_limit,
        "jam angle of a flexional or extensional limit",
        "Computes the jam angle (degrees and radians) for feature "
        "dimensions given in mm; writes solve_limit.json, or "
        "solve_limit.csv in --sweep mode. `design --target stem_height` "
        "or `--target diagonal` inverts for a dimension.",
        document=None, formats=True, flags=_solve_limit_flags),
    "design": _Subcommand(
        _cmd_design,
        "inverse design: hit a stiffness or jam-angle target",
        "Dispatches to one of four inverse solvers and writes design.json. "
        "Stiffness targets (N/m) need an input document with the template "
        "flexure; angle targets (degrees) take feature dimensions in mm.",
        document="optional", flags=_design_flags),
    "simulate-limb": _Subcommand(
        _cmd_simulate_limb,
        "tendon pull-release cycle of one limb",
        "Writes <limb>_trajectory.csv (pull_mm, foot_x_mm, foot_y_mm, "
        "theta_i_rad..., tension_N), <limb>_curvature.csv (rows: pull "
        "steps; columns: arc-length bin centers in mm; values: curvature "
        "1/m), and <limb>_metrics.json (stroke_distance_mm, stroke_ratio).",
        flags=_simulate_limb_flags),
    "simulate-gait": _Subcommand(
        _cmd_simulate_gait,
        "trot speed curve for the document's gait",
        "Simulates all four limbs, then writes gait_speed.csv "
        "(frequency_hz, speed_mm_s) over the document's frequency list.",
        formats=True, flags=_simulate_gait_flags),
    "export-geometry": _Subcommand(
        _cmd_export_geometry,
        "binary STL files plus sidecar manifests",
        "Builds every part in the document's export section and writes "
        "<file>.stl (millimeters) plus <file-stem>.manifest.json with "
        "part_name, volume_mm3, bbox_mm, pc_film_thickness_mm, "
        "process_config."),
}


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, with every subcommand. Each subparser gets
    --out-dir, plus --input unless its ``document`` is None (optional when
    it is "optional") and --format when it ``formats``.

    The parser is built once per process and shared by every later call,
    so callers must not change it; parsing keeps no state in it, and each
    ``parse_args`` returns a new namespace."""
    return _parser()


# The cache sits behind build_parser, so that bench/tracing.py, which
# times plain functions only, still times build_parser.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flexokit",
        description="Design toolchain for printed flexure joints: stiffness "
                    "prediction, joint-limit solving, limb and gait "
                    "simulation, printable geometry export.")
    parser.add_argument("--version", action="version",
                        version=f"flexokit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.summary,
                           description=command.description)
        if command.document:
            p.add_argument("--input", "-i",
                           required=command.document == "required",
                           help="JSON design document path")
        p.add_argument("--out-dir", "-o", default=".",
                       help="directory for emitted files (created if absent)")
        if command.formats:
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="curve/sweep output format (default csv)")
        if command.flags:
            command.flags(p)
        p.set_defaults(func=command.func)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with _staging(Path(args.out_dir)) as stage:
            return args.func(args, stage)
    except (FlexokitError, OSError, ArithmeticError) as exc:
        # every OSError subclass reports as the one family name
        name = "OSError" if isinstance(exc, OSError) else type(exc).__name__
        line = json.dumps({"error": name, "message": str(exc)})
        print(line, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

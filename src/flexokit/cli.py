"""Command-line pipeline: design documents in, plot-ready data files out.

Every subcommand except ``solve-limit`` reads a JSON design document
(``design`` only for its stiffness targets), dispatches to the
corresponding module, and writes its outputs atomically into --out-dir.
Each flag is declared only on the subcommands that read it. Curves and
sweeps go to CSV (or a JSON list of objects with --format json), scalars
and reports to JSON, geometry to binary STL with a JSON sidecar manifest.
Outputs are byte-stable across runs; the only timestamp lives in the
manifest's ``generated_at`` field. ``main`` builds only the named
subcommand's parser, and the full tree only for help, version and
unrecognised first words.

Exit status: 0 on success, 1 when ``validate --strict`` finds warnings, 2
on any rejection, a malformed or unknown flag and an input whose arithmetic
overflows included (a single-line JSON diagnostic goes to stderr).
``--help`` and ``--version`` exit 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Optional

from . import __version__
from .core import (MM, DesignDoc, ExtensionalLimitEntry, FlexionalLimitEntry,
                   Material, parse_design, parse_materials, to_document,
                   validate_process)
from .errors import DesignError, FlexokitError
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


# --------------------------------------------------------------------------
# Small plumbing helpers

@contextmanager
def _staging():
    """Yield ``stage(path)``, which names a temporary sibling of ``path``
    to write. When the block ends, each staged file moves into place, in
    the order first staged, and ``wrote <path>`` is reported; when it
    raises, every temporary is removed and nothing moves."""
    staged: dict[Path, Path] = {}

    def stage(path: Path) -> Path:
        staged[path] = path.with_name(path.name + ".tmp")
        return staged[path]

    try:
        yield stage
    except BaseException:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)
        raise
    for path, tmp in staged.items():
        os.replace(tmp, path)
        print(f"wrote {path}")


@contextmanager
def _located(path: str):
    """Prefix ``<path>: `` to the message of a FlexokitError raised inside."""
    try:
        yield
    except FlexokitError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode()


def _write_json(path: Path, payload) -> None:
    with _staging() as stage:
        stage(path).write_bytes(_json_bytes(payload))


def _write_table(directory: Path, stem: str, header: list[str], rows,
                 fmt: str = "csv") -> None:
    """Float rows as ``<stem>.csv`` or as ``<stem>.json``, a list of
    objects keyed by the header.

    Each CSV cell is Python's ``repr`` of the cell as a float64: the
    shortest text that reads back to the same float, with ``-0.0``,
    ``inf``, ``-inf`` and ``nan`` written as Python writes them.
    """
    import numpy as np
    table = np.asarray(rows, dtype=np.float64)
    if fmt == "json":
        _write_json(directory / f"{stem}.json",
                    [dict(zip(header, row)) for row in table.tolist()])
        return
    # Cycle tables repeat most of their values, so each chunk takes repr
    # once per distinct bit pattern (-0.0 stays apart from 0.0) and joins
    # the cells' pieces in C. Chunks bound the text held in memory.
    chunk_rows = max(1, _CHUNK_CELLS // max(1, table.shape[-1]))
    with _staging() as stage, open(stage(directory / f"{stem}.csv"), "w",
                                   encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), chunk_rows):
            block = table[start:start + chunk_rows]
            bits, inverse = np.unique(block.view(np.int64),
                                      return_inverse=True)
            texts = list(map(repr, bits.view(np.float64).tolist()))
            pieces = np.array([t + "," for t in texts]
                              + [t + "\n" for t in texts], dtype=object)
            # numpy 1.x returns the inverse flat, 2.x in the block's shape
            inverse = inverse.reshape(block.shape)
            inverse[:, -1] += len(texts)
            fh.write("".join(pieces[inverse].ravel().tolist()))


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


def _out_dir(args) -> Path:
    directory = Path(args.out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


# --------------------------------------------------------------------------
# Subcommands

def _cmd_validate(args) -> int:
    doc = _load_document(args.input)
    if doc.process is not None:
        report = validate_process(doc.process)
        entries, text = report.to_json(), report.to_text()
        has_warnings = report.has_warnings
    else:
        entries, text = [], "no process section; schema checks only\n"
        has_warnings = False
    sys.stdout.write(text)
    _write_json(_out_dir(args) / "validation_report.json", {
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


def _cmd_predict_stiffness(args) -> int:
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
        flexures = [dataclasses.replace(
                        flex, ribs=dataclasses.replace(flex.ribs,
                                                       **{param: value}))
                    for value in values]
    header = ["width_ratio", "feature_height_mm", "EI_eff_Nmm2",
              "k_tip_N_per_m", "k_exact_N_per_m"]
    rows = [_stiffness_row(f) for f in flexures]
    _write_table(_out_dir(args), "stiffness", header, rows, args.format)
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


def _cmd_solve_limit(args) -> int:
    kind = "extensional" if args.extensional else "flexional"
    params = _limit_params(args, kind)
    if not args.sweep:
        solution = _limit_solution(kind, params)
        _write_json(_out_dir(args) / "solve_limit.json", solution)
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
    _write_table(_out_dir(args), "solve_limit",
                 [raw_name, "angle_rad", "angle_deg", "residual"], rows,
                 args.format)
    return 0


def _cmd_design(args) -> int:
    if args.target in ("width_ratio", "feature_height"):
        from .stiffness import (homogenized_EI, solve_feature_height,
                                solve_width_ratio)
        if args.stiffness_n_per_m is None:
            raise DesignError(
                f"--target {args.target} needs --stiffness-n-per-m")
        if args.input is None:
            raise DesignError(
                f"--target {args.target} needs an input document (-i) "
                "with the template flexure")
        doc = _load_document(args.input)
        name, flex = _pick(doc.flexures, args.flexure, "flexures")
        target_k = args.stiffness_n_per_m
        if args.target == "width_ratio":
            field, solved = "width_ratio", solve_width_ratio(target_k, flex)
        else:
            field = "feature_height_mm"
            solved = solve_feature_height(target_k, flex) / MM
        ribs = dataclasses.replace(flex.ribs, **{field: solved})
        achieved = homogenized_EI(dataclasses.replace(flex, ribs=ribs)).k_tip
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
    _write_json(_out_dir(args) / "design.json", payload)
    return 0


def _cmd_simulate_limb(args) -> int:
    import numpy as np
    from .limb_sim import limb_from_document, sweep_cycle
    doc = _load_document(args.input)
    name, _ = _pick(doc.limbs, args.limb, "limbs")
    limb = limb_from_document(doc, name)
    max_pull = args.max_pull_mm * MM if args.max_pull_mm is not None else None
    cycle = sweep_cycle(limb, max_pull=max_pull, steps=args.steps,
                        arc_bins=args.arc_bins)
    directory = _out_dir(args)
    header = ["pull_mm", "foot_x_mm", "foot_y_mm",
              *(f"theta_{i}_rad" for i in range(len(limb.joints))),
              "tension_N"]
    _write_table(directory, f"{name}_trajectory", header,
                 np.column_stack([cycle.pulls / MM, cycle.foot_path / MM,
                                  cycle.theta, cycle.tension]))
    _write_table(directory, f"{name}_curvature",
                 ["pull_mm"] + [repr(s / MM) for s in cycle.arc_bins],
                 np.column_stack([cycle.pulls / MM, cycle.curvature_map]))
    _write_json(directory / f"{name}_metrics.json", {
        "stroke_distance_mm": cycle.metrics.stroke_distance / MM,
        "stroke_ratio": cycle.metrics.stroke_ratio,
    })
    return 0


def _cmd_simulate_gait(args) -> int:
    from .gait_sim import gait_from_document, speed_curve
    doc = _load_document(args.input)
    strokes = gait_from_document(doc, steps=args.steps)
    points = speed_curve(doc.gait, strokes)
    _write_table(_out_dir(args), "gait_speed", ["frequency_hz", "speed_mm_s"],
                 [[f, v / MM] for f, v in points], args.format)
    return 0


def _recipe_for_part(doc: DesignDoc, part):
    """(recipe, base film thickness in mm or None) of one export part: a
    flexure's own film layer, else the process setting."""
    from .geometry import extensional_recipe, flexional_recipe, flexure_recipe
    film_mm = doc.process.pc_thickness_mm if doc.process is not None else None
    if part.kind == "flexure":
        flex = doc.flexures[part.ref]
        return flexure_recipe(flex), next(
            (thickness_mm for material, thickness_mm in flex.base.layers
             if material.kind == "base_film"), film_mm)
    if part.kind == "flexional":
        return flexional_recipe(doc.flexional_limits[part.ref].spec,
                                count=part.count, facets=part.facets), film_mm
    width = part.width_mm * MM if part.width_mm is not None else None
    return extensional_recipe(doc.extensional_limits[part.ref].spec,
                              count=part.count, width=width), film_mm


def _cmd_export_geometry(args) -> int:
    from .geometry import export_stl
    doc = _load_document(args.input)
    parts = doc.export.parts
    if not parts:
        print("no export parts declared; nothing to do")
        return 0
    # Every recipe counts and bounds its triangles, so a rejected part
    # stops the export before any directory or file is made.
    recipes = []
    for i, part in enumerate(parts):
        with _located(f"export.parts[{i}]"):
            recipes.append(_recipe_for_part(doc, part))
    directory = _out_dir(args)
    process = to_document(doc.process) if doc.process is not None else None
    # A part that export_stl refuses leaves no file of any part behind.
    with _staging() as stage:
        for i, (part, (recipe, film_mm)) in enumerate(zip(parts, recipes)):
            mesh = recipe.mesh()
            with _located(f"export.parts[{i}]"):
                # validates the mesh first, and measures its volume
                byte_count = export_stl(mesh, stage(directory / part.file))
            lo, hi = mesh.bounding_box()
            manifest = directory / (Path(part.file).stem + ".manifest.json")
            stage(manifest).write_bytes(_json_bytes({
                "part_name": part.ref,
                "volume_mm3": mesh.volume(),
                "bbox_mm": {"min": [float(v) for v in lo],
                            "max": [float(v) for v in hi]},
                "pc_film_thickness_mm": film_mm,
                "process_config": process,
                "triangle_count": len(mesh),
                "stl_bytes": byte_count,
                "generated_at": datetime.now(timezone.utc).isoformat(),
            }))
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


@dataclasses.dataclass(frozen=True)
class _Subcommand:
    """One subcommand: its handler, help texts, whether it reads --input
    ("required", "optional" or None), whether it takes --format, and the
    function that adds its own flags."""

    func: Callable[[argparse.Namespace], int]
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
        "Reads a JSON design document (mm/GPa/degC units), checks the "
        "print process settings, and writes validation_report.json to "
        "--out-dir.", flags=_validate_flags),
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


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The command-line parser: every subcommand, or only the one named
    ``only``. Each subparser gets --out-dir, plus --input unless its
    ``document`` is None (optional when it is "optional") and --format when
    it ``formats``."""
    parser = _Parser(
        prog="flexokit",
        description="Design toolchain for printed flexure joints: stiffness "
                    "prediction, joint-limit solving, limb and gait "
                    "simulation, printable geometry export.")
    parser.add_argument("--version", action="version",
                        version=f"flexokit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _SUBCOMMANDS.items():
        if only is not None and name != only:
            continue
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
    argv = sys.argv[1:] if argv is None else argv
    # Only the named subcommand's parser is built. Anything else (no
    # argument, help, --version, an unknown word) gets the whole tree, so
    # that argparse lists the choices as it always has.
    only = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    parser = build_parser(only)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (FlexokitError, OSError, ArithmeticError) as exc:
        # every OSError subclass reports as the one family name
        name = "OSError" if isinstance(exc, OSError) else type(exc).__name__
        line = json.dumps({"error": name, "message": str(exc)})
        print(line, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

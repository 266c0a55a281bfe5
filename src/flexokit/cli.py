"""Command-line pipeline: design documents in, plot-ready data files out.

Every subcommand reads a JSON design document (except the pure parameter
modes of ``solve-limit`` and ``design``), dispatches to the corresponding
module, and writes its outputs atomically into --out-dir. Curves and sweeps
go to CSV, scalars and reports to JSON, geometry to binary STL with a JSON
sidecar manifest. Outputs are byte-stable across runs; the only timestamp
lives in the manifest's ``generated_at`` field.

Exit status: 0 on success, 1 when --strict and the validation report has
warnings, 2 on any error (a single-line JSON diagnostic goes to stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .core import (MM, DesignDoc, ExtensionalLimitEntry, FlexionalLimitEntry,
                   Material, parse_design, parse_materials, to_document,
                   validate_process)
from .errors import DesignError, FlexokitError
from .gait_sim import gait_from_document, speed_curve
from .geometry import (SolidRecipe, export_stl, extensional_recipe,
                       flexional_recipe, flexure_recipe)
from .joint_limits import (_flexional_residual, extensional_inverse,
                           extensional_jam_angle, flexional_inverse,
                           flexional_jam_angle)
from .limb_sim import limb_from_document, sweep_cycle
from .stiffness import (homogenized_EI, solve_feature_height,
                        solve_width_ratio, tip_stiffness_exact)

# Reference jamming-feature dimensions used when no document supplies them
# (the same values the bundled sample documents use).
_FLEXIONAL_DEFAULTS = {"spacing_mm": 6.0, "head_radius_mm": 2.0,
                       "stem_height_mm": 4.0}
_EXTENSIONAL_DEFAULTS = {"diagonal_mm": 7.0, "base_width_mm": 5.4,
                         "tip_radius_mm": 1.8, "mount_height_mm": 2.0,
                         "incline_deg": 45.0}

_SWEEP_ALIASES = {
    "flexional": {"h": "stem_height_mm", "r": "head_radius_mm",
                  "D": "spacing_mm"},
    "extensional": {"L": "diagonal_mm", "b": "base_width_mm",
                    "r": "tip_radius_mm", "h": "mount_height_mm",
                    "gamma": "incline_deg"},
}

# Limit dimension flags, (dest, help); the flag is --dest with dashes.
_LIMIT_FLAGS = (
    ("spacing_mm", "flexional feature spacing D (mm)"),
    ("head_radius_mm", "flexional head radius r (mm)"),
    ("stem_height_mm", "flexional stem height h (mm)"),
    ("diagonal_mm", "extensional standoff diagonal L (mm)"),
    ("base_width_mm", "extensional base width b (mm)"),
    ("tip_radius_mm", "extensional tip radius r (mm)"),
    ("mount_height_mm", "extensional mount standoff height h (mm)"),
    ("incline_deg", "extensional feature incline gamma (degrees)"),
)


# --------------------------------------------------------------------------
# Small plumbing helpers

def _atomic_write_bytes(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


def _write_json(path: Path, payload) -> None:
    _atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


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
        start_s, stop_s, step_s = rng.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError:
        raise DesignError(
            f"bad --sweep {text!r}: expected name=start:stop:step")
    if not name:
        raise DesignError(f"bad --sweep {text!r}: missing parameter name")
    if step <= 0 or stop < start:
        raise DesignError(
            f"bad --sweep {text!r}: need step > 0 and stop >= start")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return name, [start + i * step for i in range(count)]


def _out_dir(args) -> Path:
    directory = Path(args.out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _note(path: Path) -> None:
    print(f"wrote {path}")


# --------------------------------------------------------------------------
# Subcommands

def _cmd_validate(args) -> int:
    doc = _load_document(args.input)
    if doc.process is not None:
        report = validate_process(doc.process)
        entries = [dataclasses.asdict(e) for e in report.entries]
        text = report.to_text()
        has_warnings = report.has_warnings
    else:
        entries, text = [], "no process section; schema checks only\n"
        has_warnings = False
    payload = {
        "document": os.path.basename(args.input),
        "schema_version": doc.schema_version,
        "entries": entries,
    }
    out = _out_dir(args) / "validation_report.json"
    _write_json(out, payload)
    sys.stdout.write(text)
    _note(out)
    if has_warnings and args.strict:
        return 1
    return 0


def _stiffness_row(flex) -> list[float]:
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
    rows = []
    if args.sweep:
        param, values = _parse_sweep(args.sweep)
        if param not in ("width_ratio", "feature_height_mm"):
            raise DesignError(
                "predict-stiffness sweeps width_ratio or feature_height_mm")
        if flex.ribs is None:
            raise DesignError(
                f"flexure {name!r} has no rib pattern to sweep")
        for value in values:
            ribs = dataclasses.replace(flex.ribs, **{param: value})
            rows.append(_stiffness_row(dataclasses.replace(flex, ribs=ribs)))
    else:
        rows.append(_stiffness_row(flex))
    header = ["width_ratio", "feature_height_mm", "EI_eff_Nmm2",
              "k_tip_N_per_m", "k_exact_N_per_m"]
    directory = _out_dir(args)
    if args.format == "json":
        out = directory / "stiffness.json"
        _write_json(out, [dict(zip(header, row)) for row in rows])
    else:
        out = directory / "stiffness.csv"
        _write_csv(out, header, rows)
    _note(out)
    return 0


def _limit_params(args, kind: str) -> dict[str, float]:
    params = dict(_FLEXIONAL_DEFAULTS if kind == "flexional"
                  else _EXTENSIONAL_DEFAULTS)
    for field in params:
        flag = getattr(args, field, None)
        if flag is not None:
            params[field] = flag
    return params


def _limit_solution(kind: str, params: dict[str, float]) -> dict:
    """Forward jam angle plus the residual of the defining relation."""
    if kind == "flexional":
        spec = FlexionalLimitEntry(**params).spec
        angle = flexional_jam_angle(spec)
        residual = _flexional_residual(angle, spec)
    else:
        spec = ExtensionalLimitEntry(**params).spec
        angle = extensional_jam_angle(spec)
        residual = (angle * (spec.tip_height + spec.mount_height)
                    - spec.rest_gap)
    return {"angle_deg": math.degrees(angle), "angle_rad": angle,
            "residual": residual,
            "inputs": {"kind": kind, **params}}


def _invert_limit(kind: str, params: dict[str, float],
                  angle: float) -> tuple[str, dict]:
    """Solve the free dimension for a jam angle (radians) into ``params``;
    returns its key and the forward solution at the solved geometry."""
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
    return key, _limit_solution(kind, params)


def _cmd_solve_limit(args) -> int:
    kind = "extensional" if args.extensional else "flexional"
    params = _limit_params(args, kind)
    directory = _out_dir(args)

    if args.target_angle_deg is not None:
        solved_key, payload = _invert_limit(
            kind, params, math.radians(args.target_angle_deg))
        payload["solved"] = {solved_key: params[solved_key]}
        out = directory / "solve_limit.json"
        _write_json(out, payload)
        _note(out)
        return 0

    if args.sweep:
        raw_name, values = _parse_sweep(args.sweep)
        aliases = _SWEEP_ALIASES[kind]
        if raw_name not in aliases:
            raise DesignError(
                f"unknown {kind} sweep parameter {raw_name!r}; "
                f"choose from {sorted(aliases)}")
        field = aliases[raw_name]
        rows = []
        for value in values:
            solution = _limit_solution(kind, {**params, field: value})
            rows.append([value, solution["angle_rad"],
                         solution["angle_deg"], solution["residual"]])
        header = [raw_name, "angle_rad", "angle_deg", "residual"]
        if args.format == "json":
            out = directory / "solve_limit.json"
            _write_json(out, [dict(zip(header, row)) for row in rows])
        else:
            out = directory / "solve_limit.csv"
            _write_csv(out, header, rows)
        _note(out)
        return 0

    out = directory / "solve_limit.json"
    _write_json(out, _limit_solution(kind, params))
    _note(out)
    return 0


def _cmd_design(args) -> int:
    directory = _out_dir(args)
    out = directory / "design.json"

    if args.target in ("width_ratio", "feature_height"):
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
            solved = solve_width_ratio(target_k, flex)
            ribs = dataclasses.replace(flex.ribs, width_ratio=solved)
            payload = {"target": "width_ratio",
                       "template_flexure": name,
                       "stiffness_n_per_m": target_k,
                       "width_ratio": solved}
        else:
            solved_m = solve_feature_height(target_k, flex)
            ribs = dataclasses.replace(flex.ribs,
                                       feature_height_mm=solved_m / MM)
            payload = {"target": "feature_height",
                       "template_flexure": name,
                       "stiffness_n_per_m": target_k,
                       "feature_height_mm": solved_m / MM}
        achieved = homogenized_EI(dataclasses.replace(flex, ribs=ribs)).k_tip
        payload["achieved_n_per_m"] = achieved
        _write_json(out, payload)
        _note(out)
        return 0

    if args.angle_deg is None:
        raise DesignError(f"--target {args.target} needs --angle-deg")
    kind = "flexional" if args.target == "stem_height" else "extensional"
    params = _limit_params(args, kind)
    solved_key, check = _invert_limit(kind, params,
                                      math.radians(args.angle_deg))
    payload = {"target": args.target, "angle_deg": args.angle_deg,
               solved_key: params[solved_key],
               "residual": check["residual"], "inputs": check["inputs"]}
    _write_json(out, payload)
    _note(out)
    return 0


def _cmd_simulate_limb(args) -> int:
    doc = _load_document(args.input)
    name, _ = _pick(doc.limbs, args.limb, "limbs")
    limb = limb_from_document(doc, name)
    max_pull = args.max_pull_mm * MM if args.max_pull_mm is not None else None
    cycle = sweep_cycle(limb, max_pull=max_pull, steps=args.steps,
                        arc_bins=args.arc_bins)
    directory = _out_dir(args)

    joint_count = len(limb.joints)
    header = ["pull_mm", "foot_x_mm", "foot_y_mm"]
    header += [f"theta_{i}_rad" for i in range(joint_count)]
    header += ["tension_N"]
    rows = []
    for pull, state, (fx, fy) in zip(cycle.pulls, cycle.states,
                                     cycle.foot_path):
        row = [pull / MM, fx / MM, fy / MM]
        row += [float(t) for t in state.theta]
        row += [state.tension]
        rows.append(row)
    trajectory = directory / f"{name}_trajectory.csv"
    _write_csv(trajectory, header, rows)

    curvature = directory / f"{name}_curvature.csv"
    bin_header = ["pull_mm"] + [repr(s / MM) for s in cycle.arc_bins]
    bin_rows = [[pull / MM] + [float(k) for k in kappa_row]
                for pull, kappa_row in zip(cycle.pulls, cycle.curvature_map)]
    _write_csv(curvature, bin_header, bin_rows)

    metrics = directory / f"{name}_metrics.json"
    _write_json(metrics, {
        "stroke_distance_mm": cycle.metrics.stroke_distance / MM,
        "stroke_ratio": cycle.metrics.stroke_ratio,
    })
    for path in (trajectory, curvature, metrics):
        _note(path)
    return 0


def _cmd_simulate_gait(args) -> int:
    doc = _load_document(args.input)
    gait = gait_from_document(doc, steps=args.steps)
    points = speed_curve(gait).points
    directory = _out_dir(args)
    header = ["frequency_hz", "speed_mm_s"]
    rows = [[f, v / MM] for f, v in points]
    if args.format == "json":
        out = directory / "gait_speed.json"
        _write_json(out, [dict(zip(header, row)) for row in rows])
    else:
        out = directory / "gait_speed.csv"
        _write_csv(out, header, rows)
    _note(out)
    return 0


def _recipe_for_part(doc: DesignDoc, part) -> tuple[SolidRecipe, object]:
    if part.kind == "flexure":
        flex = doc.flexures[part.ref]
        return flexure_recipe(flex), flex
    if part.kind == "flexional":
        entry = doc.flexional_limits[part.ref]
        return flexional_recipe(entry.spec, count=part.count,
                                facets=part.facets), entry
    entry = doc.extensional_limits[part.ref]
    width = part.width_mm * MM if part.width_mm is not None else None
    return extensional_recipe(entry.spec, count=part.count,
                              width=width), entry


def _film_thickness_mm(doc: DesignDoc, part, source) -> Optional[float]:
    if part.kind == "flexure":
        for material, thickness_mm in source.base.layers:
            if material.kind == "base_film":
                return thickness_mm
    if doc.process is not None:
        return doc.process.pc_thickness_mm
    return None


def _cmd_export_geometry(args) -> int:
    doc = _load_document(args.input)
    parts = doc.export.parts
    if not parts:
        print("no export parts declared; nothing to do")
        return 0
    directory = _out_dir(args)
    process = to_document(doc.process) if doc.process is not None else None
    for part in parts:
        recipe, source = _recipe_for_part(doc, part)
        mesh = recipe.mesh()
        mesh.validate()
        stl_path = directory / part.file
        tmp = stl_path.with_name(stl_path.name + ".tmp")
        byte_count = export_stl(mesh, tmp)
        os.replace(tmp, stl_path)
        lo, hi = mesh.bounding_box()
        manifest = {
            "part_name": part.ref,
            "volume_mm3": mesh.volume(),
            "bbox_mm": {"min": [float(v) for v in lo],
                        "max": [float(v) for v in hi]},
            "pc_film_thickness_mm": _film_thickness_mm(doc, part, source),
            "process_config": process,
            "triangle_count": len(mesh),
            "stl_bytes": byte_count,
            "generated_at": datetime.now(timezone.utc).isoformat(),
        }
        manifest_path = directory / (Path(part.file).stem + ".manifest.json")
        _write_json(manifest_path, manifest)
        _note(stl_path)
        _note(manifest_path)
    return 0


# --------------------------------------------------------------------------
# Argument wiring

def _add_common(parser, input_required=True):
    parser.add_argument("--input", "-i", required=input_required,
                        help="JSON design document path")
    parser.add_argument("--out-dir", "-o", default=".",
                        help="directory for emitted files (created if absent)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when the validation report has warnings")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="curve/sweep output format (default csv)")


def _add_limit_flags(parser, skip=()):
    for dest, text in _LIMIT_FLAGS:
        if dest not in skip:
            parser.add_argument("--" + dest.replace("_", "-"), type=float,
                                dest=dest, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexokit",
        description="Design toolchain for printed flexure joints: stiffness "
                    "prediction, joint-limit solving, limb and gait "
                    "simulation, printable geometry export.")
    parser.add_argument("--version", action="version",
                        version=f"flexokit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "validate",
        help="check a design document and its print process settings",
        description="Reads a JSON design document (mm/GPa/degC units), "
                    "checks the print process settings, and writes "
                    "validation_report.json to --out-dir.")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "predict-stiffness",
        help="rib-patterned flexure stiffness table",
        description="Writes stiffness.csv (width_ratio, feature_height_mm, "
                    "EI_eff_Nmm2, k_tip_N_per_m, k_exact_N_per_m) for a "
                    "flexure from the document; --sweep varies width_ratio "
                    "or feature_height_mm inclusively.")
    _add_common(p)
    p.add_argument("--flexure", help="flexure name (default: first declared)")
    p.add_argument("--sweep", help="name=start:stop:step, e.g. "
                                   "width_ratio=0:0.8:0.1")
    p.set_defaults(func=_cmd_predict_stiffness)

    p = sub.add_parser(
        "solve-limit",
        help="jam angle of a flexional or extensional limit",
        description="Computes the jam angle (degrees and radians) for "
                    "feature dimensions given in mm; writes "
                    "solve_limit.json, or solve_limit.csv in --sweep mode. "
                    "--target-angle-deg inverts for the free dimension.")
    _add_common(p, input_required=False)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--flexional", action="store_true",
                       help="mushroom-pillar limit (flexion cap)")
    group.add_argument("--extensional", action="store_true",
                       help="angled-standoff limit (extension cap)")
    _add_limit_flags(p)
    p.add_argument("--sweep", help="name=start:stop:step over a feature "
                                   "dimension, e.g. L=6.5:7.5:0.25")
    p.add_argument("--target-angle-deg", type=float,
                   help="solve for the dimension reaching this jam angle")
    p.set_defaults(func=_cmd_solve_limit)

    p = sub.add_parser(
        "design",
        help="inverse design: hit a stiffness or jam-angle target",
        description="Dispatches to one of four inverse solvers and writes "
                    "design.json. Stiffness targets (N/m) need an input "
                    "document with the template flexure; angle targets "
                    "(degrees) take feature dimensions in mm.")
    _add_common(p, input_required=False)
    p.add_argument("--target", required=True,
                   choices=("width_ratio", "feature_height", "stem_height",
                            "diagonal"),
                   help="quantity to solve for")
    p.add_argument("--stiffness-n-per-m", type=float,
                   help="target tip stiffness in N/m")
    p.add_argument("--angle-deg", type=float,
                   help="target jam angle in degrees")
    p.add_argument("--flexure", help="template flexure name")
    # the kind follows from --target; skip the dimension it solves for
    _add_limit_flags(p, skip=("stem_height_mm", "diagonal_mm"))
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser(
        "simulate-limb",
        help="tendon pull-release cycle of one limb",
        description="Writes <limb>_trajectory.csv (pull_mm, foot_x_mm, "
                    "foot_y_mm, theta_i_rad..., tension_N), "
                    "<limb>_curvature.csv (rows: pull steps; columns: "
                    "arc-length bin centers in mm; values: curvature 1/m), "
                    "and <limb>_metrics.json (stroke_distance_mm, "
                    "stroke_ratio).")
    _add_common(p)
    p.add_argument("--limb", help="limb name (default: first declared)")
    p.add_argument("--steps", type=int, default=101,
                   help="pull steps up (mirrored back down); default 101")
    p.add_argument("--arc-bins", type=int, default=64,
                   help="arc-length bins for the curvature map; default 64")
    p.add_argument("--max-pull-mm", type=float,
                   help="tendon pull amplitude in mm (default: the pull "
                        "that jams every joint)")
    p.set_defaults(func=_cmd_simulate_limb)

    p = sub.add_parser(
        "simulate-gait",
        help="trot speed curve for the document's gait",
        description="Simulates all four limbs, then writes gait_speed.csv "
                    "(frequency_hz, speed_mm_s) over the document's "
                    "frequency list.")
    _add_common(p)
    p.add_argument("--steps", type=int, default=101,
                   help="pull steps per limb cycle; default 101")
    p.set_defaults(func=_cmd_simulate_gait)

    p = sub.add_parser(
        "export-geometry",
        help="binary STL files plus sidecar manifests",
        description="Builds every part in the document's export section and "
                    "writes <file>.stl (millimeters) plus "
                    "<file-stem>.manifest.json with part_name, volume_mm3, "
                    "bbox_mm, pc_film_thickness_mm, process_config.")
    _add_common(p)
    p.set_defaults(func=_cmd_export_geometry)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FlexokitError as exc:
        line = json.dumps({"error": type(exc).__name__, "message": str(exc)})
        print(line, file=sys.stderr)
        return 2
    except OSError as exc:
        line = json.dumps({"error": "OSError", "message": str(exc)})
        print(line, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

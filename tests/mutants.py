"""Mutation check: each row of ``MUTANTS`` breaks the program in one known
way, and the tests it names must catch it.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

First the named tests of every row run once on an unchanged copy of the
checkout, where they must pass. Then, for each row, the checkout is copied
to a fresh temporary directory, the row's edits are applied there (each
edit's old text must occur exactly once in the row's file), and only the
row's tests run, with ``-x``. The script exits 1 if a row's tests all pass
(the mutant survives), if a row's old text no longer matches, or if its
tests do not run as named. A refactor that moves a row's text updates the
row; a surviving mutant asks for a stronger test, not a dropped row.

pytest does not collect this file: its name does not start with ``test_``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str                            # relative to the checkout
    edits: tuple[tuple[str, str], ...]   # (exact old text, new text)
    tests: tuple[str, ...]               # pytest ids, one of which must fail


MUTANTS = {
    "parser cache dropped": Mutant(
        "src/flexokit/cli.py",
        (("    return _parser()\n", "    return _parser.__wrapped__()\n"),),
        ("tests/test_cli.py::test_build_parser_returns_one_parser_per_name",)),
    "limb location narrowed to the LimbSpec call": Mutant(
        "src/flexokit/limb_sim.py",
        (('    with located(f"limbs.{name}"):\n'
          "        lengths, is_joint, joints = [], [], []\n",
          "    if True:\n"
          "        lengths, is_joint, joints = [], [], []\n"),
         ("        return LimbSpec(",
          '        with located(f"limbs.{name}"):\n'
          "            return LimbSpec(")),
        ("tests/test_cli.py::test_out_of_range_documents_exit_2_with_a_"
         "located_diagnostic[joint_past_its_flexure]",
         "tests/test_cli.py::test_out_of_range_documents_exit_2_with_a_"
         "located_diagnostic[jammed_at_rest_in_a_gait]")),
    "every segment kept, a binless one with zero count": Mutant(
        "src/flexokit/limb_sim.py",
        (("    used, segment = np.unique(segment, return_inverse=True)\n"
          "    return bins, kappa[:, used], np.bincount(segment).tolist()\n",
          "    counts = np.bincount(segment, minlength=len(lengths))\n"
          "    return bins, kappa, counts.tolist()\n"),),
        ("tests/test_tables.py::test_cycle_tables_with_binless_and_zero_"
         "links_match_the_per_row_writer[16-2-binless-link]",)),
    "no e guard in _texts": Mutant(
        "src/flexokit/cli.py",
        (('    if b"e" in text:\n'
          "        return list(map(entry, values.tolist()))\n", ""),),
        ("tests/test_tables.py::test_texts_keeps_repr_when_orjson_writes_"
         "an_exponent",)),
    "> for the orjson gate": Mutant(
        "src/flexokit/cli.py",
        (("fast = lines * width >= _ORJSON_CELLS",
          "fast = lines * width > _ORJSON_CELLS"),),
        ("tests/test_tables.py::test_tables_from_the_gate_on_take_float_"
         "texts",)),
    "isfinite for the range mask": Mutant(
        "src/flexokit/cli.py",
        (("    plain = ((magnitude >= 1e-4) & (magnitude < 1e16)) "
          "| (values == 0)\n",
          "    plain = np.isfinite(values)\n"),),
        ("tests/test_tables.py::test_texts_is_repr",)),
    "column counts ignored": Mutant(
        "src/flexokit/cli.py",
        (("enumerate(zip(counts, ends))",
          "enumerate(zip([1] * len(counts), ends))"),),
        ("tests/test_tables.py::test_cycle_tables_match_the_per_row_writer"
         "[64-2-hind_leg.json-hind_leg]",)),
    "corner check always skipped": Mutant(
        "src/flexokit/geometry.py",
        (("if not self._closed or ids.max() < len(ids):",
          "if not self._closed:"),),
        ("tests/test_geometry_reference.py::test_prisms_that_weld_fall_"
         "back_to_the_corner_check",)),
    "corner check never skipped": Mutant(
        "src/flexokit/geometry.py",
        (("if not self._closed or ids.max() < len(ids):", "if True:"),),
        ("tests/test_geometry.py::test_export_parts_validate_on_one_weld_"
         "of_their_prism_points",)),
    "volume terms summed per block": Mutant(
        "src/flexokit/geometry.py",
        (("            terms[start:start + len(tri)] = _volume_terms(v0, v1, "
          "v2)\n",
          "            terms[start:start + len(tri)] = 0.0\n"
          "            terms[start] = _volume_terms(v0, v1, v2).sum()\n"),),
        ("tests/test_geometry_reference.py::test_parts_of_several_blocks_"
         "match_the_references",)),
    "degenerate count keeps only the first block's": Mutant(
        "src/flexokit/geometry.py",
        (("            degenerate += int(np.count_nonzero(",
          "            degenerate = degenerate if start else int("
          "np.count_nonzero("),),
        ("tests/test_geometry_reference.py::test_degenerate_triangles_of_"
         "the_last_block_refuse_the_part",)),
    "one block's records not written": Mutant(
        "src/flexokit/geometry.py",
        (("            if stl is not None and not degenerate:",
          "            if stl is not None and not degenerate and start:"),),
        ("tests/test_geometry_reference.py::test_parts_of_several_blocks_"
         "match_the_references",)),
    "validate counts no export triangles": Mutant(
        "src/flexokit/cli.py",
        (("            check_part(part.kind, _part_source(doc, part), "
          "part.count,\n                       part.facets)\n",
          "            pass\n"),),
        ("tests/test_cli.py::test_validate_refuses_parts_past_the_triangle_"
         "bound_as_export_does",)),
    ">= for the sweep period bound": Mutant(
        "src/flexokit/cli.py",
        (("if len(values) * periods > MAX_SWEEP_PERIODS:",
          "if len(values) * periods >= MAX_SWEEP_PERIODS:"),),
        ("tests/test_cli.py::test_sweep_period_bound_counts_rows_times_"
         "periods",)),
    "no temporary-name check in _staging": Mutant(
        "src/flexokit/cli.py",
        (("        if tmp in staged or path in staged.values():",
          "        if False:"),),
        ("tests/test_cli.py::test_export_part_on_another_part_temporary_"
         "exits_2_unwritten",)),
    "no directory check before the first move": Mutant(
        "src/flexokit/cli.py",
        (("        for path in filter(Path.is_dir, staged):",
          "        for path in ():"),),
        ("tests/test_cli.py::test_export_onto_a_directory_exits_2_"
         "unwritten",)),
    "made directories kept on failure": Mutant(
        "src/flexokit/cli.py",
        (("                made_dir.rmdir()", "                pass"),),
        ("tests/test_cli.py::test_export_part_on_another_part_temporary_"
         "exits_2_unwritten",)),
    "jam-angle bracket floor reverted": Mutant(
        "src/flexokit/joint_limits.py",
        (("    if not spec.residual(lo) < 0:\n", "    if False:\n"),),
        ("tests/test_joint_limits.py::test_root_below_the_bracket_floor_is_"
         "rejected",)),
    "arc sign flipped in _foot": Mutant(
        "src/flexokit/limb_sim.py",
        (("x + radius * (np.sin(heading + th) - np.sin(heading))",
          "x + radius * (np.sin(heading) - np.sin(heading + th))"),),
        ("tests/test_limb_sim.py::test_quarter_turn_arc_endpoint_closed_"
         "form",)),
    "no straight-joint branch in _foot": Mutant(
        "src/flexokit/limb_sim.py",
        (("        straight = np.abs(th) < _STRAIGHT\n",
          "        straight = False\n"),),
        ("tests/test_limb_sim.py::test_straight_chain_lands_on_the_x_axis",)),
    "export width_mm not checked": Mutant(
        "src/flexokit/core.py",
        (("        if self.width_mm is not None and not self.width_mm > 0:\n",
          "        if False:\n"),),
        ("tests/test_core.py::test_document_rejections_name_the_rule_and_"
         "the_field[export_width_zero]",
         "tests/test_core.py::test_document_rejections_name_the_rule_and_"
         "the_field[export_width_negative]")),
    "no repr of mixed entries in _texts": Mutant(
        "src/flexokit/cli.py",
        (("        texts[i] = entry(value)\n", "        pass\n"),),
        ("tests/test_tables.py::test_texts_is_repr_on_a_million_bit_"
         "patterns",)),
    "range mask from 1e-5": Mutant(
        "src/flexokit/cli.py",
        (("(magnitude >= 1e-4)", "(magnitude >= 1e-5)"),),
        ("tests/test_tables.py::test_texts_is_repr",)),
    "limb names not checked as file names": Mutant(
        "src/flexokit/core.py",
        (('    _plain_file_name(f"{name}_trajectory.csv", path)\n', ""),),
        ("tests/test_cli.py::test_limb_named_off_the_out_dir_exits_2_"
         "unwritten",)),
    "validate resolves no limb": Mutant(
        "src/flexokit/cli.py",
        (("    for name in doc.limbs:\n"
          "        limb_from_document(doc, name)\n", ""),),
        ("tests/test_cli.py::test_out_of_range_documents_exit_2_with_a_"
         "located_diagnostic[validate_joint_past_its_flexure]",)),
    "validate bounds no rib periods": Mutant(
        "src/flexokit/cli.py",
        (("    for name, flex in doc.flexures.items():\n"
          '        with located(f"flexures.{name}"):\n'
          "            check_rib_periods(flex)\n", ""),),
        ("tests/test_cli.py::test_out_of_range_documents_exit_2_with_a_"
         "located_diagnostic[validate_too_many_rib_periods]",)),
    "rib periods bounded after the numpy import": Mutant(
        "src/flexokit/stiffness.py",
        (("    ei_low, ei_high = check_rib_periods(flex)\n",
          "    ei_low, ei_high = _section_pair(flex)\n"),
         ("    import numpy as np\n",
          "    import numpy as np\n    check_rib_periods(flex)\n")),
        ("tests/test_imports.py::test_too_many_rib_periods_are_rejected_"
         "without_numpy[predict-stiffness]",)),
    "export part keys its kind never reads accepted": Mutant(
        "src/flexokit/core.py",
        (("        if unread:\n", "        if False:\n"),),
        ("tests/test_core.py::test_document_rejections_name_the_rule_and_"
         "the_field[export_flexure_width]",)),
    "stroke ratio not bounded": Mutant(
        "src/flexokit/limb_sim.py",
        (("                and math.isfinite(self.total_length * "
          "sum(1 / ri for ri in r))\n", ""),),
        ("tests/test_cli.py::test_out_of_range_documents_exit_2_with_a_"
         "located_diagnostic[overflowing_stroke_ratio]",)),
    "held joints' angles formed too": Mutant(
        "src/flexokit/limb_sim.py",
        (("t[:, None] * np.where(held, 0.0, r) / k", "t[:, None] * r / k"),),
        ("tests/test_limb_sim.py::test_a_stiff_joint_jams_beside_a_limp_one_"
         "without_overflow",)),
    "peak band open at its low end": Mutant(
        "src/flexokit/core.py",
        (("lambda bed, m: _PEAK_LO <= bed <= _PEAK_HI",
          "lambda bed, m: _PEAK_LO < bed <= _PEAK_HI"),),
        ("tests/test_core.py::test_report_json_at_window_edges[bed=90.0]",)),
    "Z-offset window open at its high end": Mutant(
        "src/flexokit/core.py",
        (("lambda z, m: _Z_LO <= z <= _Z_HI",
          "lambda z, m: _Z_LO <= z < _Z_HI"),),
        ("tests/test_core.py::test_report_json_at_window_edges[z=0.03]",)),
    "nozzle mismatch reported without a declared temperature": Mutant(
        "src/flexokit/core.py",
        (("lambda t, m: m.nozzle_temp_c is not None",
          "lambda t, m: True"),),
        ("tests/test_core.py::test_report_json_at_window_edges"
         "[material=PC]",)),
    "section rigidity out of float range accepted": Mutant(
        "src/flexokit/stiffness.py",
        (("    if not 0 < ei < math.inf:\n", "    if False:\n"),),
        ("tests/test_cli.py::test_out_of_range_documents_exit_2_with_a_"
         "located_diagnostic[validate_overflowing_section]",)),
    "records assignable": Mutant(
        "src/flexokit/_record.py",
        (('        raise AttributeError(f"cannot assign to field {name!r}")',
          "        object.__setattr__(self, name, value)"),),
        ("tests/test_records.py::test_fields_cannot_be_assigned_or_deleted"
         "[core]",)),
    "record equality and hash skip the last field": Mutant(
        "src/flexokit/_record.py",
        (("cls._key = attrgetter(*names)",
          "cls._key = attrgetter(*names[:-1] or names)"),),
        ("tests/test_records.py::test_records_differing_in_one_field_differ"
         "[last]",)),
    "bin centres at i": Mutant(
        "src/flexokit/limb_sim.py",
        (("(np.arange(arc_bins) + 0.5)", "np.arange(arc_bins)"),),
        ("tests/test_limb_sim.py::test_curvature_map_rows_match_states",)),
    "simulate-limb bounds its tables after solving": Mutant(
        "src/flexokit/cli.py",
        (("    # both tables are bounded before anything is solved\n"
          "    check_cycle(limb, args.steps, args.arc_bins)\n", ""),
         ("    cycle = sweep_cycle(limb, max_pull=max_pull, "
          "steps=args.steps)\n",
          "    cycle = sweep_cycle(limb, max_pull=max_pull, "
          "steps=args.steps)\n"
          "    check_cycle(limb, args.steps, args.arc_bins)\n")),
        ("tests/test_cli.py::test_cycle_bounds_are_checked_before_the_solve"
         "[simulate-limb]",)),
    "sweep_cycle counts arc bins again": Mutant(
        "src/flexokit/limb_sim.py",
        (("    check_cycle(limb, steps)\n",
          "    check_cycle(limb, steps, 64)\n"),),
        ("tests/test_limb_sim.py::test_cycle_bound_counts_one_column_per_"
         "segment",
         "tests/test_cli.py::test_cycle_bounds_are_checked_before_the_solve"
         "[simulate-gait]")),
    "flexure part needs no printed layer": Mutant(
        "src/flexokit/core.py",
        (('    if kind == "flexure" and source.base.printed_thickness_mm '
          "<= 0:\n", "    if False:\n"),),
        ("tests/test_cli.py::test_validate_refuses_parts_export_cannot_"
         "build[film_only_laminate]",)),
    "mushroom heads may touch at rest": Mutant(
        "src/flexokit/core.py",
        (('    if kind == "flexional" and source.spacing <= 2 * '
          "source.head_radius:\n", "    if False:\n"),),
        ("tests/test_cli.py::test_validate_refuses_parts_export_cannot_"
         "build[heads_touching]",)),
    "standoff tips may touch at rest": Mutant(
        "src/flexokit/core.py",
        (("        extensional_jam_angle(source)  # ContactAtRestError when "
          "infeasible\n", "        pass\n"),),
        ("tests/test_cli.py::test_validate_refuses_parts_export_cannot_"
         "build[tips_touching]",)),
    "edge keys sorted into a copy": Mutant(
        "src/flexokit/geometry.py",
        (("    keys.sort()\n", "    keys = np.sort(keys)\n"),),
        ("tests/test_geometry.py::test_corner_check_holds_two_arrays_of_the_"
         "corner_ids_size",)),
    "reversed keys in a new array": Mutant(
        "src/flexokit/geometry.py",
        (("    nxt *= m\n    nxt += ids\n", "    nxt = nxt * m + ids\n"),),
        ("tests/test_geometry.py::test_corner_check_holds_two_arrays_of_the_"
         "corner_ids_size",)),
    "core imports dataclasses again": Mutant(
        "src/flexokit/core.py",
        (("import functools\n", "import dataclasses\nimport functools\n"),),
        ("tests/test_imports.py::test_scalar_subcommands_never_import_numpy"
         "[version]",)),
}


def _copy(destination: Path) -> None:
    shutil.copytree(ROOT, destination, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache"))


def _pytest(checkout: Path, tests) -> int:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=checkout, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def _apply(checkout: Path, mutant: Mutant) -> bool:
    """Apply the edits; False if an old text is not found exactly once."""
    path = checkout / mutant.file
    text = path.read_text("utf-8")
    for old, new in mutant.edits:
        if text.count(old) != 1:
            return False
        text = text.replace(old, new)
    path.write_text(text, "utf-8")
    return True


def main() -> int:
    started = time.perf_counter()
    faults = []
    with tempfile.TemporaryDirectory() as scratch:
        unchanged = Path(scratch) / "unchanged"
        _copy(unchanged)
        every_test = sorted({t for m in MUTANTS.values() for t in m.tests})
        if _pytest(unchanged, every_test) != 0:
            faults.append("the named tests do not all pass unchanged")
        for i, (name, mutant) in enumerate(MUTANTS.items()):
            checkout = Path(scratch) / str(i)
            _copy(checkout)
            if not _apply(checkout, mutant):
                verdict = "old text not found once"
            else:
                # pytest exits 1 when a test failed; 0 means the mutant
                # survived, anything else that the tests did not run
                rc = _pytest(checkout, mutant.tests)
                verdict = {1: "killed", 0: "SURVIVED"}.get(
                    rc, f"tests did not run (pytest exit {rc})")
            print(f"{verdict:<8} {name}")
            if verdict != "killed":
                faults.append(f"{name}: {verdict}")
            shutil.rmtree(checkout)
    print(f"{len(MUTANTS)} mutants, {len(faults)} faults, "
          f"{time.perf_counter() - started:.1f} s")
    for fault in faults:
        print(f"FAULT {fault}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())

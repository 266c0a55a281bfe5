"""The README's examples run: the Python API tour with its quoted values,
and the console examples with their shown output."""

import ast
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from importlib import resources
from pathlib import Path

import pytest

from flexokit.cli import main
from flexokit.core import (DEFAULT_MATERIALS, PrintProcessConfig,
                           validate_process)

README = Path(__file__).resolve().parent.parent / "README.md"
# A trailing comment that quotes a value: a number, then at most a unit
# and a few words ("# 63.397 N/m tip stiffness", "# 0.3631").
QUOTE = re.compile(r"#\s*([-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?)(?:\s+[A-Za-z/ ]*)?$")


def _tour() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"),
                        re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_python_tour_runs_and_matches_its_quoted_values(tmp_path,
                                                        monkeypatch):
    # The tour opens the bundled documents by their source-tree paths.
    data = tmp_path / "src" / "flexokit" / "data"
    data.parent.mkdir(parents=True)
    data.symlink_to(Path(str(resources.files("flexokit") / "data")))
    monkeypatch.chdir(tmp_path)

    source = _tour()
    lines = source.splitlines()
    namespace = {}
    checked = {}
    for stmt in ast.parse(source).body:
        quote = QUOTE.search(lines[stmt.end_lineno - 1])
        if isinstance(stmt, ast.Expr) and quote:
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"),
                         namespace)
            text = quote.group(1)
            half_digit = Decimal(10) ** Decimal(text).as_tuple().exponent / 2
            assert abs(Decimal(value) - Decimal(text)) <= half_digit, \
                (ast.unparse(stmt), value, text)
            checked[text] = value
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert set(checked) == {"63.397", "0.3631", "4.163e-4", "0.4899",
                            "0.02627"}
    assert (tmp_path / "sample.stl").is_file()


def _console_blocks() -> list[list[tuple[str, list[str]]]]:
    """Each ``console`` block as (command, shown output lines) pairs, with
    backslash-continued command lines joined."""
    blocks = []
    for body in re.findall(r"```console\n(.*?)```", README.read_text("utf-8"),
                           re.DOTALL):
        steps, pending = [], None
        for line in body.splitlines():
            if pending is not None:
                pending += " " + line.strip()
            elif line.startswith("$ "):
                pending = line[2:]
            else:
                steps[-1][1].append(line)
                continue
            if pending.endswith("\\"):
                pending = pending[:-1].rstrip()
            else:
                steps.append((pending, []))
                pending = None
        blocks.append(steps)
    return blocks


def _shown(lines: list[str], actual: str) -> bool:
    """The output lines match ``actual``; a ``...`` line stands for any run
    of lines."""
    pattern = "".join(r"(?:.*\n)*" if line.strip() == "..."
                      else re.escape(line) + "\n" for line in lines)
    return re.fullmatch(pattern, actual) is not None


def test_console_examples_run_and_print_what_they_show(tmp_path, monkeypatch,
                                                       capsys):
    data = tmp_path / "src" / "flexokit" / "data"
    data.parent.mkdir(parents=True)
    data.symlink_to(Path(str(resources.files("flexokit") / "data")))
    monkeypatch.chdir(tmp_path)

    checked = Counter()
    for steps in _console_blocks():
        for command, shown in steps:
            program, *args = shlex.split(command)
            if program == "flexokit":
                capsys.readouterr()
                try:
                    rc = main(args)
                except SystemExit as exit_:  # --version
                    rc = exit_.code
                assert rc == 0, (command, capsys.readouterr().err)
                actual = capsys.readouterr().out
                if not shown:
                    continue
            elif program == "cat":
                actual = Path(args[0]).read_text("utf-8")
            elif program == "head":
                count = int(args[0].lstrip("-"))
                lines = Path(args[1]).read_text("utf-8").splitlines()
                actual = "".join(f"{line}\n" for line in lines[:count])
            elif program == "ls":
                assert sorted(" ".join(shown).split()) == sorted(
                    path.name for path in Path(args[0]).iterdir()), command
                checked[program] += 1
                continue
            else:  # installing and testing are not examples to run here
                assert program in ("pip", "pytest"), command
                continue
            assert _shown(shown, actual), (command, actual)
            checked[program] += 1
    assert checked == {"flexokit": 2, "cat": 4, "head": 1, "ls": 1}


def test_validation_code_table_matches_the_emitted_codes():
    listed = dict(re.findall(r"^\| `(\w+)` \| (ok|warning) \|",
                             README.read_text("utf-8"), re.MULTILINE))
    emitted = {}
    for bed, z, nozzle, material in itertools.product(
            (50.0, 80.0, 85.0, 90.0, 95.0, 100.0, 105.0),
            (0.005, 0.01, 0.02, 0.03, 0.05), (None, 215.0, 240.0),
            ("PLA", "ABS", "PC")):
        report = validate_process(PrintProcessConfig(
            bed, z, DEFAULT_MATERIALS[material], 0.1, nozzle))
        emitted.update((e.code, e.level) for e in report.entries)
    assert listed == emitted


_REPORT_PEAK = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_mb(command: list[str]) -> float:
    """Peak resident memory of ``command``, started by a fresh, small
    Python process that reports it; the command must exit 0."""
    # A child's ru_maxrss also counts the memory of the process that
    # started it (on Linux it carries that process's peak across exec),
    # and this test process can itself peak above the bound.
    report = subprocess.run([sys.executable, "-c", _REPORT_PEAK, *command],
                            stdout=subprocess.PIPE, text=True, check=True)
    returncode, maxrss = map(int, report.stdout.split())
    assert returncode == 0
    # ru_maxrss counts KiB on Linux and bytes on macOS
    return maxrss / (1 << (20 if sys.platform == "darwin" else 10))


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_cycle_at_the_cell_bound_peaks_near_the_quoted_memory(tmp_path):
    # The bounds paragraph quotes the peak resident memory of a 1-bin
    # hind-leg cycle at the cell bound. A child process runs that case and
    # reports its own peak; the quote leaves room for other hosts and numpy
    # builds, not for a writer or solver that holds the table again.
    found = re.search(r"1-bin `simulate-limb` of the hind leg \(([\d,]+) "
                      r"steps\) peaks at\s+(\d+) MB",
                      README.read_text("utf-8"))
    steps, quoted_mb = found.group(1).replace(",", ""), int(found.group(2))
    document = resources.files("flexokit") / "data" / "hind_leg.json"
    peak_mb = _peak_mb([sys.executable, "-m", "flexokit.cli",
                        "simulate-limb", "-i", str(document), "--steps",
                        steps, "--arc-bins", "1", "-o", str(tmp_path)])
    assert peak_mb <= 1.5 * quoted_mb, (peak_mb, quoted_mb)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_export_at_the_part_bound_peaks_near_the_quoted_memory(tmp_path):
    # The bounds paragraph quotes the peak resident memory of one ribbed
    # flexure export at the triangle bound; the quote leaves room for
    # other hosts and numpy builds, not for an array of the part's
    # triangles.
    quoted_mb = int(re.search(
        r"one export of a ribbed flexure peaks at\s+(\d+) MB",
        README.read_text("utf-8")).group(1))
    sample = resources.files("flexokit") / "data" / "sample_flexure.json"
    doc = json.loads(sample.read_text("utf-8"))
    # 87,380 rib periods of 1 mm: 12 x 87,381 = 1,048,572 triangles
    doc["flexures"]["sample"]["length_mm"] = 87380.0
    doc["flexures"]["sample"]["ribs"]["period_mm"] = 1.0
    doc["export"]["parts"] = [{"kind": "flexure", "ref": "sample",
                               "file": "ribs.stl"}]
    document = tmp_path / "bound.json"
    document.write_text(json.dumps(doc), "utf-8")
    out = tmp_path / "out"
    peak_mb = _peak_mb([sys.executable, "-m", "flexokit.cli",
                        "export-geometry", "-i", str(document),
                        "-o", str(out)])
    assert (out / "ribs.stl").stat().st_size == 84 + 50 * 1_048_572
    assert peak_mb <= 1.5 * quoted_mb, (peak_mb, quoted_mb)

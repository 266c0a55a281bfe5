"""Self-test of the benchmark's correctness gate.

    python3 bench/selftest.py

Runs one round of every workload at its smallest size and requires a
failed ratio of 0, then corrupts one kind of output at a time and requires
the gate to notice: a flipped STL byte, a joint angle off by a part in a
million, a gait speed off by a part in a billion, a changed byte in a
bundled output, and an invalid document that the program accepts. Exits 1
on any miss.
"""

import json
import shutil
import sys

import gate
import run

SMALLEST = {"gait-sweep": 2, "mesh-export": 2, "design-sweep": 2}


def _flip_stl_byte(item, out_dir) -> bool:
    if item.subcommand != "export-geometry":
        return False
    path = next(out_dir.glob("*.stl"))
    data = bytearray(path.read_bytes())
    data[84 + 12 + 1] ^= 0x01  # a mantissa bit of the first vertex
    path.write_bytes(bytes(data))
    return True


def _perturb_csv_cell(pattern: str, column: int, rel: float):
    def corrupt(item, out_dir) -> bool:
        paths = list(out_dir.glob(pattern))
        if not paths:
            return False
        lines = paths[0].read_text().splitlines()
        row = lines[len(lines) // 2].split(",")
        row[column] = repr(float(row[column]) * (1 + rel))
        lines[len(lines) // 2] = ",".join(row)
        paths[0].write_text("\n".join(lines) + "\n")
        return True
    return corrupt


def _append_to_bundled_output(item, out_dir) -> bool:
    if not item.bundled or item.subcommand != "validate":
        return False
    path = out_dir / "validation_report.json"
    path.write_text(path.read_text() + " ")
    return True


def _accept_invalid_documents(pool) -> int:
    """Give every invalid invocation a valid document, as if the program
    stopped rejecting what it rejects today."""
    valid = next(text for key, text in pool.docs.items()
                 if key.startswith("design"))
    swapped = 0
    for item in pool.items:
        if item.expect_rc == 2:
            pool.docs[item.doc] = valid
            swapped += 1
    return swapped


class CorruptingGate(gate.Gate):
    def __init__(self, *args, corrupt):
        super().__init__(*args)
        self.corrupt, self.applied = corrupt, 0

    def check(self, item, out_dir, rc, stdout, stderr):
        if self.corrupt and out_dir.exists():
            self.applied += bool(self.corrupt(item, out_dir))
        super().check(item, out_dir, rc, stdout, stderr)


def main() -> int:
    flexokit, cli = run._import_program()
    import workloads

    digests = json.loads(gate.DIGESTS.read_text("utf-8"))
    work = run.ROOT / ".bench_work" / "selftest"
    rounds = run.Round(cli, None, 0, digests, flexokit.__version__, work)
    cases = [(name, None, None) for name in workloads.WORKLOADS] + [
        ("mesh-export", "flipped STL byte", _flip_stl_byte),
        ("gait-sweep", "perturbed trajectory cell",
         _perturb_csv_cell("*_trajectory.csv", 3, 1e-6)),
        ("gait-sweep", "perturbed gait speed",
         _perturb_csv_cell("gait_speed.csv", 1, 1e-9)),
        ("design-sweep", "changed bundled output",
         _append_to_bundled_output),
        ("design-sweep", "invalid document accepted", "accept"),
    ]
    misses = 0
    for workload, label, corrupt in cases:
        pool = workloads.WORKLOADS[workload](0, 0, SMALLEST[workload])
        if corrupt == "accept":
            applied, corrupt = _accept_invalid_documents(pool), None
        shutil.rmtree(work, ignore_errors=True)
        try:
            paths = run.write_docs(pool, work / "docs")
            calls, _, _ = run.run_items(cli, pool, paths, work / "out")
            checker = rounds.gate(pool, paths, CorruptingGate,
                                  corrupt=corrupt)
            check = run.check_items(checker, pool, calls, work / "out")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if corrupt is not None:
            applied = checker.applied
        ratio = check.failed / (check.ok + check.failed)
        if label is None:
            ok = ratio == 0
            what = f"{workload}: failed_ratio {ratio:.3g} at minimum size"
        else:
            ok = applied > 0 and ratio > 0
            what = (f"{workload}, {label} ({applied} corrupted): "
                    f"failed_ratio {ratio:.3g}")
        print(("ok   " if ok else "MISS ") + what)
        if not ok:
            misses += 1
            for failure in check.failures[:3]:
                print("     " + failure)
    with_parent = run.ROOT / ".bench_work"
    if with_parent.exists() and not any(with_parent.iterdir()):
        with_parent.rmdir()
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())

"""The committed benchmark records: every ``BENCH_*.json`` at the
repository root parses, and each of its untraced runs of every workload
that ``BENCHMARK.json`` declares reports every end-to-end metric there,
with that metric's unit and a finite value."""

import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_bench_record_holds_every_end_to_end_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        workloads = json.loads(path.read_text("utf-8"))["workloads"]
        for workload in (w["name"] for w in declared["workloads"]):
            untraced = [run for run in workloads[workload]
                        if run["trace"] == 0]
            assert untraced, (path.name, workload)
            for run in untraced:
                assert run["result"]["correct"], (path.name, workload)
                metrics = run["result"]["metrics"]
                for name, unit in units.items():
                    assert metrics[name]["unit"] == unit, (path.name, name)
                    assert math.isfinite(metrics[name]["value"]), \
                        (path.name, workload, run["seed"], name)

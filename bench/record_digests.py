"""Record output digests of the bundled documents' invocations.

    python3 bench/record_digests.py

Writes ``digests.json``, which the correctness gate compares bundled
outputs against. Run it only at a commit whose outputs are known good: a
later change that alters any bundled output byte must fail the gate.
"""

import json
import shutil
import sys

import gate
import run


def main() -> int:
    flexokit, cli = run._import_program()
    import workloads

    digests = {}
    work = run.ROOT / ".bench_work" / "digests"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for make in workloads.WORKLOADS.values():
            pool = make(0)
            paths = run.write_docs(pool, work / "docs")
            for item in pool.items:
                if not item.bundled:
                    continue
                out_dir = work / "out"
                rc, _, _, stderr = run.invoke(cli, item, paths, out_dir)
                if rc != 0:
                    sys.exit(f"{item.key}: exit {rc}: {stderr}")
                digests[item.key] = gate.output_digests(out_dir)
                shutil.rmtree(out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    gate.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True)
                            + "\n", "utf-8")
    print(f"recorded {len(digests)} invocations in {gate.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""flexokit benchmark: seeded documents through ``flexokit.cli.main``.

    python3 bench/run.py --workload gait-sweep --seed 1 --seconds 30 --trace 0

One client drives seeded documents through ``cli.main(argv)`` in a closed
loop: each invocation starts when the previous one has finished. A run is
made of rounds; each round is a fresh pool of documents built from the
seed and the round number, with the same strata (slots) as every other
round, so no generated invocation repeats. Rounds are made until
``--seconds`` have passed, and at least ``workloads.MIN_ROUNDS``.

This process never calls the program itself. Each round's pool is built,
its invocations are run and timed, and their outputs are checked by
``gate.py``, each in a child forked from this process, so that nothing one
round's program calls leave in memory (a cache, say) reaches another
round, and the check's memory does not count as the program's. Only
``cli.main`` is timed.

Every time is scaled to a nominal host speed. The machine this runs on may
be shared, and all code on it runs up to ~40% faster or slower for phases
of seconds to minutes, with CPU time following wall time. So the process
that runs a round also times a fixed piece of Python and numpy work, the
reference, before an invocation whenever CALIBRATION_EVERY_S or more has
passed since the last reference, and once at the end. One reference at a
time, never a burst: each then runs with the caches the program left, as
the program's own calls do. Each time the round reports is multiplied by
REFERENCE_S over the median of the round's references. The reference is
benchmark code: a change to the program moves the scaled times as much as
the raw ones, while a change in host speed moves both the program and the
reference, though not always by the same share. The run prints the
reference times it saw and the unscaled times.

With ``--trace 0`` the run reports the end-to-end metrics. A slot's time
is its median across the rounds:

  setup_s      median wall time of a fresh ``python -m flexokit.cli
               --version`` process (interpreter, numpy and package import),
               over SETUP_REPEATS processes started between rounds, each
               scaled by the reference times taken just before and after
  docs_per_s   successful invocations per second over the slots' times
  doc_ms_p50   median of the slots' times
  doc_ms_tail  ``cli.main`` time at the workload's tail percentile over
               every invocation of the run: the highest of 99/95/90/75/50
               with ten invocations of MIN_ROUNDS rounds beyond it, fixed
               by the pool so a faster program keeps the same percentile
  peak_rss_mb  peak resident memory of the process that ran a round's
               invocations, highest over the rounds

``failed_ratio`` (failed / attempted invocations) is printed with them; it
is also the result's ``failed`` and ``attempted`` and is 0 when correct.

With ``--trace 1`` each round's pool is run twice, untraced and traced,
and the run reports per-layer metrics from the spans of ``tracing.py``,
the fixed-size probes, the process start-up baselines, and
``trace.overhead_ratio``.

The benchmark reads and writes only inside the checkout that holds it, in
``.bench_work/``, and removes what it wrote before it exits.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy

import gate
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
SLOT_PERCENTILE = 50.0
BASELINE_REPEATS = 5
# Between invocations, one reference takes about REFERENCE_S on a 2-vCPU
# x86-64 host with Python 3.11 and numpy 2.4 under its usual load; times
# are scaled to that speed.
REFERENCE_S = 0.003
CALIBRATION_EVERY_S = 0.05
SPAWN_CALIBRATIONS = 5


def _reference_work() -> float:
    """Fixed work in the program's own idiom: a Python loop over float
    tuples, then a numpy reduction over them."""
    points = []
    total = 0.0
    for i in range(3000):
        x = i * 0.25
        point = (x, math.sin(x), math.cos(x))
        points.append(point)
        total += point[0] * point[1] - point[2]
    array = numpy.asarray(points)
    return total + float(numpy.cross(array[:-1], array[1:]).sum())


def reference_s() -> float:
    """Wall time of one reference, with the garbage collector off so that
    the heap the program left behind does not add to it."""
    gc.disable()
    try:
        start = perf_counter()
        _reference_work()
        return perf_counter() - start
    finally:
        gc.enable()


def host_scale(references: list[float]) -> float:
    """Factor that takes a time measured among ``references`` to the
    nominal host speed."""
    return REFERENCE_S / statistics.median(references)


def _import_program():
    """Import flexokit from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "flexokit" / "__init__.py").is_file():
        sys.exit(f"no flexokit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import flexokit
    from flexokit import cli
    if Path(flexokit.__file__).resolve().parent != SRC / "flexokit":
        sys.exit(f"imported flexokit from {flexokit.__file__}, not {SRC}")
    return flexokit, cli


SETUP_ARGV = [sys.executable, "-m", "flexokit.cli", "--version"]


def _spawn_s(argv: list[str], check_stdout: str = "") -> float:
    """Wall time of one fresh process running ``argv``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=60)
    elapsed = perf_counter() - start
    if done.returncode != 0 or not done.stdout.startswith(check_stdout):
        sys.exit(f"{argv} failed: {done.stderr.strip()[-500:]}")
    return elapsed


def _scaled_spawn_s(argv: list[str], check_stdout: str = "") -> float:
    """``_spawn_s`` scaled by the references taken around it."""
    before = [reference_s() for _ in range(SPAWN_CALIBRATIONS)]
    elapsed = _spawn_s(argv, check_stdout)
    after = [reference_s() for _ in range(SPAWN_CALIBRATIONS)]
    return elapsed * host_scale(before + after)


def _spawn_median_s(argv: list[str]) -> float:
    return statistics.median([_scaled_spawn_s(argv)
                              for _ in range(BASELINE_REPEATS)])


def forked(fn, *args):
    """``fn(*args)`` in a forked child: (its result, the child's rusage).
    The child's memory, and whatever ``fn`` leaves in it, ends with it."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, fn(*args)))
            except BaseException:
                payload = pickle.dumps((False, traceback.format_exc()))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if not data:
        raise RuntimeError(f"child {pid} ended with status {status}")
    ok, value = pickle.loads(data)
    if not ok:
        raise RuntimeError(f"child {pid} failed:\n{value}")
    return value, usage


def _percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    position = (len(sorted_values) - 1) * p / 100.0
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) \
        * (position - low)


@dataclass
class Call:
    """One timed invocation; ``seconds`` is scaled, ``raw`` is not."""

    slot: int
    rc: object
    seconds: float
    raw: float
    stdout: str
    stderr: str


@dataclass
class Check:
    """The gate's verdict on one round's outputs."""

    ok: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    bytes_written: int = 0
    files_written: int = 0
    stl_files: int = 0


def invoke(cli, item, paths: dict[str, Path], out_dir: Path):
    """Run one invocation: (exit code, seconds in ``cli.main``, stdout,
    stderr)."""
    argv = [item.subcommand]
    if item.doc is not None:
        argv += ["-i", str(paths[item.doc])]
    argv += [*item.args, "-o", str(out_dir)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = "traceback"
            traceback.print_exc()
        elapsed = perf_counter() - start
    return rc, elapsed, stdout.getvalue(), stderr.getvalue()


def write_docs(pool, doc_dir: Path) -> dict[str, Path]:
    """Paths of the pool's documents; generated ones are written out."""
    doc_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, text in pool.docs.items():
        bundled = SRC / "flexokit" / "data" / key
        if bundled.is_file():
            paths[key] = bundled
        else:
            paths[key] = doc_dir / key
            paths[key].write_text(text, "utf-8")
    return paths


def run_items(cli, pool, paths, out_root: Path, traced: bool = False):
    """Every invocation of a round, in order, each into its own output
    directory, with references between them: the Calls, the reference
    times, and with ``traced`` the span summary."""
    tracer = tracing.Tracer() if traced else None
    reference_s()  # the first one in a fresh process runs cold
    references, timed = [], []
    last = float("-inf")
    with tracing.installed(tracer) if traced else contextlib.nullcontext():
        for index, item in enumerate(pool.items):
            if perf_counter() - last >= CALIBRATION_EVERY_S:
                references.append(reference_s())
                last = perf_counter()
            timed.append((item, *invoke(cli, item, paths,
                                        out_root / str(index))))
        references.append(reference_s())
    scale = host_scale(references)
    calls = [Call(item.slot, rc, seconds * scale, seconds, stdout, stderr)
             for item, rc, seconds, stdout, stderr in timed]
    return calls, references, \
        tracing.summarize(tracer.spans) if traced else None


def check_items(checker, pool, calls: list[Call], out_root: Path) -> Check:
    """The gate over a round's outputs; any error while checking an
    invocation counts as its failure."""
    check = Check()
    for index, (item, call) in enumerate(zip(pool.items, calls)):
        out_dir = out_root / str(index)
        try:
            checker.check(item, out_dir, call.rc, call.stdout, call.stderr)
        except Exception as exc:
            check.failed += 1
            check.failures.append(f"{item.key}: {type(exc).__name__}: {exc}")
        else:
            check.ok += 1
        if out_dir.exists():
            for path in out_dir.iterdir():
                check.files_written += 1
                check.bytes_written += path.stat().st_size
                check.stl_files += path.suffix == ".stl"
    return check


class Phase:
    """Samples of one measured phase: untraced, or traced."""

    def __init__(self):
        self.by_slot: dict[int, list[float]] = {}
        self.times: list[float] = []
        self.check = Check()
        self.peak_rss_kb = 0
        self.summaries: list[dict] = []
        self.references: list[float] = []
        self.raw_times: list[float] = []

    def add(self, calls: list[Call], references: list[float], check: Check,
            usage, summary) -> None:
        self.references += references
        self.raw_times += [call.raw for call in calls]
        for call in calls:
            self.by_slot.setdefault(call.slot, []).append(call.seconds)
            self.times.append(call.seconds)
        for name in ("ok", "failed", "bytes_written", "files_written",
                     "stl_files"):
            setattr(self.check, name,
                    getattr(self.check, name) + getattr(check, name))
        self.check.failures += check.failures
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if summary is not None:
            self.summaries.append(summary)

    @property
    def attempted(self) -> int:
        return self.check.ok + self.check.failed

    def slot_times(self) -> list[float]:
        """Each slot's median scaled time across the rounds, sorted."""
        return sorted(_percentile(sorted(t), SLOT_PERCENTILE)
                      for t in self.by_slot.values())

    def docs_per_s(self) -> float:
        """Successful invocations per second over one round of slot
        times."""
        times = self.slot_times()
        return self.check.ok / self.attempted * len(times) / sum(times)


class Round:
    """Builds, runs and checks rounds of one workload's pools."""

    def __init__(self, cli, make_pool, seed: int, digests, version: str,
                 work: Path):
        self.cli, self.make_pool, self.seed = cli, make_pool, seed
        self.digests, self.version, self.work = digests, version, work

    def pool(self, number: int):
        # Built in a child: design-sweep's generator calls the program.
        return forked(self.make_pool, self.seed, number)[0]

    def gate(self, pool, paths, cls=gate.Gate, **extra) -> gate.Gate:
        def simulate(item, out_dir):
            rc, _, stdout, stderr = invoke(self.cli, item, paths, out_dir)
            return rc, stdout, stderr
        return cls(pool, self.digests, self.version, simulate,
                   self.work / "reference", **extra)

    def run(self, pool, paths, phase: Phase, traced: bool = False) -> None:
        out_root = self.work / "out"
        (calls, references, summary), usage = forked(
            run_items, self.cli, pool, paths, out_root, traced)
        check, _ = forked(lambda: check_items(self.gate(pool, paths), pool,
                                              calls, out_root))
        shutil.rmtree(out_root, ignore_errors=True)
        shutil.rmtree(self.work / "reference", ignore_errors=True)
        phase.add(calls, references, check, usage, summary)


def measure(rounds: Round, seconds: float, min_rounds: int,
            trace: bool) -> tuple[list[Phase], object, list[float]]:
    """Rounds, at least ``min_rounds``, until the time is nearer spent than
    not. With ``trace`` each round's pool runs untraced, then traced.
    Without it, SETUP_REPEATS start-up times are taken between rounds,
    spread over the run, so that their median sees the same machine as the
    rounds do."""
    phases = [Phase(), Phase()] if trace else [Phase()]
    setups = []
    start = perf_counter()
    number = 0
    while True:
        due = len(setups) * seconds / SETUP_REPEATS
        if not trace and len(setups) < SETUP_REPEATS and \
                perf_counter() - start >= due:
            setups.append(_scaled_spawn_s(SETUP_ARGV, "flexokit "))
        pool = rounds.pool(number)
        paths = write_docs(pool, rounds.work / "docs")
        for traced, phase in enumerate(phases):
            rounds.run(pool, paths, phase, bool(traced))
        shutil.rmtree(rounds.work / "docs")
        number += 1
        elapsed = perf_counter() - start
        if number >= min_rounds and \
                elapsed + 0.5 * elapsed / number >= seconds:
            while not trace and len(setups) < SETUP_REPEATS:
                setups.append(_scaled_spawn_s(SETUP_ARGV, "flexokit "))
            return phases, pool, setups


def end_to_end(phase: Phase, pool, setup_s: float) -> dict:
    slots = phase.slot_times()
    every = sorted(phase.times)
    p = pool.tail_percentile
    print(f"doc_ms_p50 over {len(slots)} slots, each the "
          f"p{SLOT_PERCENTILE:g} of "
          f"{len(every) // len(slots)} rounds; doc_ms_tail is p{p:g} of "
          f"{len(every)} invocations")
    refs = statistics.quantiles(phase.references, n=4)
    raw = sorted(phase.raw_times)
    print(f"reference ms over {len(phase.references)} times: quartiles "
          + ", ".join(f"{1e3 * q:.3f}" for q in refs)
          + f" (nominal {1e3 * REFERENCE_S:g}); unscaled ms of every "
          f"invocation: p50 {1e3 * _percentile(raw, 50.0):.4g}, p{p:g} "
          f"{1e3 * _percentile(raw, p):.4g}")
    return {
        "setup_s": (setup_s, "s"),
        "docs_per_s": (phase.docs_per_s(), "1/s"),
        "doc_ms_p50": (1e3 * _percentile(slots, 50.0), "ms"),
        "doc_ms_tail": (1e3 * _percentile(every, p), "ms"),
        "peak_rss_mb": (phase.peak_rss_kb / 1024.0, "MB"),
    }


def per_layer(untraced: Phase, traced: Phase, work: Path,
              data: Path) -> dict:
    summary = tracing.merge(traced.summaries)
    docs = traced.attempted
    shares = tracing.layer_self_ms(summary, docs)
    whole = sum(shares.values())
    print("layer self-time shares: " + ", ".join(
        f"{layer} {ms / whole:.1%}" for layer, ms in
        sorted(shares.items(), key=lambda kv: -kv[1])))
    check = traced.check
    metrics = tracing.layer_metrics(summary, docs, check.stl_files,
                                    check.bytes_written, check.files_written)
    metrics["trace.overhead_ratio"] = (
        traced.docs_per_s() / untraced.docs_per_s(), "ratio")
    metrics["proc.python_spawn_s"] = (
        _spawn_median_s([sys.executable, "-c", "pass"]), "s")
    metrics["proc.numpy_import_s"] = (
        _spawn_median_s([sys.executable, "-c", "import numpy"]), "s")
    work.mkdir(parents=True, exist_ok=True)
    metrics.update(forked(tracing.probes, data, work)[0])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    flexokit, cli = _import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from "
                 f"{sorted(workloads.WORKLOADS)}")
    os.environ.pop("FLEXOKIT_MATERIALS", None)  # outputs use stock tables
    digests = json.loads(gate.DIGESTS.read_text("utf-8"))

    work = ROOT / ".bench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    rounds = Round(cli, workloads.WORKLOADS[args.workload], args.seed,
                   digests, flexokit.__version__, work)
    try:
        if args.trace:
            phases, pool, _ = measure(rounds, args.seconds, 1, trace=True)
            metrics = per_layer(*phases, work, SRC / "flexokit" / "data")
        else:
            phases, pool, setups = measure(rounds, args.seconds,
                                           workloads.MIN_ROUNDS, trace=False)
            metrics = end_to_end(phases[0], pool, statistics.median(setups))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(pool.items)} invocations per round; last round's pool:")
    for name, value in pool.properties.items():
        print(f"  {name}: {json.dumps(value)}")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.check.failed for p in phases)
    for phase in phases:
        for failure in phase.check.failures[:5]:
            print(f"FAILED {failure}", file=sys.stderr)
    print(f"failed_ratio: {failed / attempted:.6g} ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

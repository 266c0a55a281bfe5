"""Traced run: spans around the public functions of each flexokit module.

The package has no instrumentation of its own, so the tracer wraps from
outside: every public function a layer module defines (plus the two mesh
methods) is replaced, in every flexokit module namespace that holds a
reference to it, by a wrapper that records a span. ``from .x import f``
call sites are therefore covered too. The originals go back when the
``installed`` block ends, so untraced rounds run the unmodified program.

A span is (name, start, end, parent, facts). Spans stay in memory until the
run ends; a span's self time is its duration minus its children's. Facts
are counts taken at the boundary where the work happens: cycle steps and
limb identity for ``sweep_cycle``, triangles for ``mesh``, bytes for
``export_stl`` and rejections for ``parse_design``.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("core", "stiffness", "joint_limits", "limb_sim", "gait_sim",
          "geometry", "cli")
_METHODS = (("geometry", "SolidRecipe", "mesh"),
            ("geometry", "TriangleMesh", "validate"))
_REJECTED = "rejected"
_FACTS = {
    "limb_sim.sweep_cycle": lambda args, result: (args[0], len(result.pulls)),
    "geometry.mesh": lambda args, result: len(result),
    "geometry.export_stl": lambda args, result: result,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def call(self, name, fn, facts, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.spans[index] = (name, start, perf_counter(), parent,
                                 _REJECTED)
            raise
        finally:
            self._stack.pop()
        end = perf_counter()
        self.spans[index] = (name, start, end, parent,
                             facts(args, result) if facts else None)
        return result


def _wrap(tracer: Tracer, name: str, fn):
    facts = _FACTS.get(name)

    def traced(*args, **kwargs):
        return tracer.call(name, fn, facts, args, kwargs)
    return traced


def _targets():
    """(layer.name, owner, attribute, original) for every traced callable."""
    modules = {layer: importlib.import_module(f"flexokit.{layer}")
               for layer in LAYERS}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                yield f"{layer}.{attr}", module, attr, obj
    for layer, cls, method in _METHODS:
        owner = getattr(modules[layer], cls)
        yield f"{layer}.{method}", owner, method, vars(owner)[method]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced callable through ``tracer`` inside the block."""
    package = importlib.import_module("flexokit")
    namespaces = [package] + [importlib.import_module(f"flexokit.{layer}")
                              for layer in LAYERS]
    patched = []
    try:
        for name, owner, attr, original in _targets():
            wrapper = _wrap(tracer, name, original)
            holders = [owner] if inspect.isclass(owner) else \
                [m for m in namespaces if vars(m).get(attr) is original]
            for holder in holders:
                setattr(holder, attr, wrapper)
                patched.append((holder, attr, original))
        yield tracer
    finally:
        for holder, attr, original in reversed(patched):
            setattr(holder, attr, original)


# --------------------------------------------------------------------------
# Per-layer metrics

def summarize(spans: list[tuple]) -> dict:
    """Per-name calls, total and self seconds, plus the run's facts."""
    child = [0.0] * len(spans)
    root = [0] * len(spans)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            root[i] = root[parent]
        else:
            root[i] = i
    calls, total, self_time = defaultdict(int), defaultdict(float), \
        defaultdict(float)
    rejects = steps = triangles = stl_bytes = 0
    limbs_per_root = defaultdict(set)
    for i, (name, start, end, _, facts) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child[i]
        if facts == _REJECTED:
            rejects += name == "core.parse_design"
        elif name == "limb_sim.sweep_cycle":
            limbs_per_root[root[i]].add(facts[0])
            steps += facts[1]
        elif name == "geometry.mesh":
            triangles += facts
        elif name == "geometry.export_stl":
            stl_bytes += facts
    return {"calls": calls, "total": total, "self": self_time,
            "parse_rejects": rejects, "cycle_steps": steps,
            "distinct_limbs": sum(len(s) for s in limbs_per_root.values()),
            "triangles": triangles, "stl_bytes": stl_bytes}


def merge(summaries: list[dict]) -> dict:
    """One summary of several rounds: every count and time adds up."""
    merged = {}
    for summary in summaries:
        for key, value in summary.items():
            if isinstance(value, dict):
                into = merged.setdefault(key, defaultdict(float))
                for name, amount in value.items():
                    into[name] += amount
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


def layer_self_ms(summary: dict, docs: int) -> dict[str, float]:
    """Self time per document of each layer, in ms."""
    per_layer = {layer: 0.0 for layer in LAYERS}
    for name, seconds in summary["self"].items():
        per_layer[name.split(".")[0]] += seconds
    return {layer: 1e3 * s / docs for layer, s in per_layer.items()}


def layer_metrics(summary: dict, docs: int, parts: int, cli_bytes: int,
                  cli_files: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced phase, normalised per document."""
    calls, total, self_s = summary["calls"], summary["total"], summary["self"]

    def per_doc_ms(name):
        return 1e3 * self_s.get(name, 0.0) / docs, "ms/doc"

    def per_doc(count, unit="1/doc"):
        return count / docs, unit

    sweeps = calls.get("limb_sim.sweep_cycle", 0)
    steps = summary["cycle_steps"]
    geometry_self = sum(s for n, s in self_s.items()
                        if n.startswith("geometry."))
    out = {f"{layer}.self_ms": (ms, "ms/doc")
           for layer, ms in layer_self_ms(summary, docs).items()}
    out.update({
        "limb_sim.sweep_cycle.calls": per_doc(sweeps),
        "limb_sim.sweep_cycle.self_ms": per_doc_ms("limb_sim.sweep_cycle"),
        "limb_sim.cycle_steps": per_doc(steps),
        "limb_sim.us_per_step": (
            1e6 * total.get("limb_sim.sweep_cycle", 0.0) / steps
            if steps else 0.0, "us"),
        "limb_sim.equilibrium_solve.calls": per_doc(
            calls.get("limb_sim.equilibrium_solve", 0)),
        "limb_sim.limb_from_document.self_ms": per_doc_ms(
            "limb_sim.limb_from_document"),
        "limb_sim.distinct_limb_ratio": (
            summary["distinct_limbs"] / sweeps if sweeps else 0.0, "ratio"),
        "gait_sim.gait_from_document.self_ms": per_doc_ms(
            "gait_sim.gait_from_document"),
        "gait_sim.speed_curve.self_ms": per_doc_ms("gait_sim.speed_curve"),
        "geometry.mesh.self_ms": per_doc_ms("geometry.mesh"),
        "geometry.triangles": per_doc(summary["triangles"]),
        "geometry.validate.calls": per_doc(calls.get("geometry.validate", 0)),
        "geometry.validate.self_ms": per_doc_ms("geometry.validate"),
        "geometry.validate_per_part": (
            calls.get("geometry.validate", 0) / parts if parts else 0.0,
            "ratio"),
        "geometry.export_stl.self_ms": per_doc_ms("geometry.export_stl"),
        "geometry.ns_per_triangle": (
            1e9 * geometry_self / summary["triangles"]
            if summary["triangles"] else 0.0, "ns"),
        "geometry.stl_bytes": per_doc(summary["stl_bytes"], "B/doc"),
        "core.parse_design.calls": per_doc(calls.get("core.parse_design", 0)),
        "core.parse_design.self_ms": per_doc_ms("core.parse_design"),
        "core.parse_design.rejects": per_doc(summary["parse_rejects"]),
        "core.validate_process.self_ms": per_doc_ms("core.validate_process"),
        "stiffness.homogenized_EI.self_ms": per_doc_ms(
            "stiffness.homogenized_EI"),
        "stiffness.tip_stiffness_exact.self_ms": per_doc_ms(
            "stiffness.tip_stiffness_exact"),
        "stiffness.solve_width_ratio.self_ms": per_doc_ms(
            "stiffness.solve_width_ratio"),
        "stiffness.solve_feature_height.self_ms": per_doc_ms(
            "stiffness.solve_feature_height"),
        "stiffness.section_EI.calls": per_doc(
            calls.get("stiffness.section_EI", 0)),
        "joint_limits.flexional_jam_angle.calls": per_doc(
            calls.get("joint_limits.flexional_jam_angle", 0)),
        "joint_limits.flexional_jam_angle.self_ms": per_doc_ms(
            "joint_limits.flexional_jam_angle"),
        "joint_limits.extensional_jam_angle.calls": per_doc(
            calls.get("joint_limits.extensional_jam_angle", 0)),
        "joint_limits.extensional_jam_angle.self_ms": per_doc_ms(
            "joint_limits.extensional_jam_angle"),
        "joint_limits.inverse.self_ms": (
            1e3 * (self_s.get("joint_limits.flexional_inverse", 0.0)
                   + self_s.get("joint_limits.extensional_inverse", 0.0))
            / docs, "ms/doc"),
        "cli.main.self_ms": per_doc_ms("cli.main"),
        "cli.build_parser.self_ms": per_doc_ms("cli.build_parser"),
        "cli.bytes_written": per_doc(cli_bytes, "B/doc"),
        "cli.files_written": per_doc(cli_files),
    })
    return out


# --------------------------------------------------------------------------
# Fixed-size probes

def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def probes(data: Path, scratch: Path) -> dict[str, tuple[float, str]]:
    """Medians of fixed calls, identical on every workload, so that a change
    to one hot spot can quote a before and after at a known size."""
    from flexokit.core import parse_design, serialize_design
    from flexokit.gait_sim import gait_from_document
    from flexokit.geometry import export_stl, flexional_recipe
    from flexokit.limb_sim import (equilibrium_solve, limb_from_document,
                                   sweep_cycle)

    quadruped_text = (data / "quadruped.json").read_text("utf-8")
    quadruped = parse_design(quadruped_text)
    hind_leg = parse_design((data / "hind_leg.json").read_text("utf-8"))
    sample = parse_design((data / "sample_flexure.json").read_text("utf-8"))
    limb = limb_from_document(hind_leg, "hind_leg")
    # 50 mushrooms of 64 facets: 50 * (8 * 64 - 8) = 25,200 triangles.
    recipe = flexional_recipe(
        sample.flexional_limits["sample_flexional"].spec, count=50,
        facets=64)
    mesh = recipe.mesh()
    if len(mesh) != 25_200:
        raise RuntimeError(f"probe mesh has {len(mesh)} triangles")
    stl = scratch / "probe.stl"
    out = {
        "probe.sweep_cycle_101_ms": (1e3 * _median_s(
            lambda: sweep_cycle(limb, steps=101), 9), "ms"),
        "probe.sweep_cycle_1001_ms": (1e3 * _median_s(
            lambda: sweep_cycle(limb, steps=1001), 3), "ms"),
        "probe.gait_from_document_ms": (1e3 * _median_s(
            lambda: gait_from_document(quadruped), 3), "ms"),
        "probe.equilibrium_solve_us": (1e6 * _median_s(
            lambda: equilibrium_solve(limb, 0.5 * limb.pull_capacity), 301),
            "us"),
        "probe.parse_design_ms": (1e3 * _median_s(
            lambda: parse_design(quadruped_text), 31), "ms"),
        # The CLI never serializes, so this probe is the layer's only span.
        "core.serialize_design.self_ms": (1e3 * _median_s(
            lambda: serialize_design(quadruped), 31), "ms"),
        "probe.mesh_25200_build_ms": (1e3 * _median_s(recipe.mesh, 3), "ms"),
        "probe.mesh_25200_validate_ms": (1e3 * _median_s(mesh.validate, 3),
                                         "ms"),
        "probe.export_stl_25200_ms": (1e3 * _median_s(
            lambda: export_stl(mesh, stl), 3), "ms"),
    }
    stl.unlink()
    return out


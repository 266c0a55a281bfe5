"""Seeded workload generators for the flexokit benchmark.

Each generator turns a seed and a round number into a Pool: the design
documents and the ``flexokit`` command lines of one round of its workload,
in the order they run, plus the measured share of every input property the
workload depends on. A run makes several rounds, each from its own
documents, so no generated invocation repeats within a run; only the
bundled sample documents, which are part of every round, do. Sizes are
stratified rather than drawn freely: an invocation's slot (its stratum)
has nearly the same cost in every round and under every seed, which moves
only the values inside each stratum.
"""

from __future__ import annotations

import copy
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from flexokit.joint_limits import (ExtensionalLimitSpec, FlexionalLimitSpec,
                                   flexional_jam_angle)
from flexokit.core import parse_design
from flexokit.errors import UnreachableLimitError
from flexokit.stiffness import homogenized_EI, plateau_stiffness

DATA = Path(__file__).resolve().parent.parent / "src" / "flexokit" / "data"

# Percentiles a tail may be reported at, highest first, and the rounds
# every end-to-end run makes at the least.
_TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_ROUNDS = 4


@dataclass
class Item:
    """One ``flexokit`` invocation: one document (or none) and one argv."""

    subcommand: str
    args: list[str]
    doc: Optional[str] = None          # key into Pool.docs
    expect_rc: int = 0
    facts: dict = field(default_factory=dict)
    bundled: bool = False              # output digests are recorded
    slot: int = -1                     # stratum, the same in every round

    @property
    def key(self) -> str:
        """Stable name of the invocation, independent of paths."""
        return " ".join([self.doc or "-", self.subcommand, *self.args])


@dataclass
class Pool:
    docs: dict[str, str]               # document key -> JSON text
    items: list[Item]
    properties: dict[str, object]

    @property
    def tail_percentile(self) -> float:
        """Highest ladder percentile with at least ten of the invocations
        of MIN_ROUNDS rounds beyond it. It depends on the pool alone, so a
        faster program keeps the same percentile."""
        n = len(self.items) * MIN_ROUNDS
        for p in _TAIL_LADDER:
            if n * (100.0 - p) / 100.0 >= 10:
                return p
        raise ValueError(f"{n} invocations are too few for a tail")


def _bundled(name: str) -> str:
    return (DATA / name).read_text("utf-8")


def _round_rng(seed: int, round_: int) -> random.Random:
    return random.Random(f"{seed}/{round_}")


def _number(items: list[Item]) -> None:
    """Give each invocation its slot: its place before any shuffle."""
    for slot, item in enumerate(items):
        item.slot = slot


def _r(rng: random.Random, lo: float, hi: float, digits: int = 4) -> float:
    return round(rng.uniform(lo, hi), digits)


def _strata(rng: random.Random, n: int, jitter: float) -> list[float]:
    """One u in [0, 1] per equal-width stratum, in stratum order. u sits at
    the stratum's centre, moved by the seed by up to jitter / 2 of the
    stratum width, so that pools from different seeds hold nearly the same
    total work."""
    return [(i + 0.5 + jitter * (rng.random() - 0.5)) / n for i in range(n)]


def _shares(counter: Counter) -> dict[str, float]:
    total = sum(counter.values())
    return {str(k): round(v / total, 4) for k, v in sorted(counter.items())}


def _flexure(rng: random.Random, length_mm: float, ribbed: bool) -> dict:
    layers = [["PC", _r(rng, 0.1, 0.25, 3)],
              [rng.choice(("PLA", "ABS")), _r(rng, 0.1, 0.4, 3)]]
    flex = {"length_mm": length_mm, "width_mm": _r(rng, 10.0, 40.0, 2),
            "base_layers": layers}
    if ribbed:
        flex["ribs"] = {"period_mm": _r(rng, 1.0, 4.0, 3),
                        "width_ratio": _r(rng, 0.2, 0.8, 3),
                        "feature_height_mm": _r(rng, 0.3, 1.5, 3)}
    return flex


def _flexional_limit(rng: random.Random) -> dict:
    r = _r(rng, 1.5, 2.2, 3)
    return {"spacing_mm": round(2 * r + rng.uniform(1.0, 2.5), 3),
            "head_radius_mm": r, "stem_height_mm": _r(rng, 0.5, 4.0, 3)}


def _extensional_limit(rng: random.Random) -> dict:
    b, tip, incline = _r(rng, 3.0, 6.0, 3), _r(rng, 0.8, 2.0, 3), \
        _r(rng, 35.0, 55.0, 2)
    min_diagonal = (b + 2 * tip) / (2 * math.cos(math.radians(incline)))
    return {"diagonal_mm": round(min_diagonal * rng.uniform(1.08, 1.4), 4),
            "base_width_mm": b, "tip_radius_mm": tip,
            "mount_height_mm": _r(rng, 1.0, 3.0, 3), "incline_deg": incline}


def _limb(rng: random.Random, doc: dict, prefix: str, joints: int,
          cap_kinds: list[str]) -> dict:
    """A limb of ``joints`` joints whose flexures and limits go into doc."""
    segments = [{"link_mm": _r(rng, 5.0, 15.0, 2)}]
    for j in range(joints):
        fname = f"{prefix}_flexure{j}"
        length = _r(rng, 8.0, 25.0, 2)
        doc["flexures"][fname] = _flexure(rng, length,
                                          ribbed=rng.random() < 0.3)
        joint = {"flexure": fname,
                 "joint_length_mm": round(length * rng.uniform(0.5, 1.0), 2),
                 "routing_offset_mm": _r(rng, 1.5, 7.0, 3),
                 "sense": rng.choice((1, -1))}
        kind = cap_kinds[j % len(cap_kinds)]
        if kind == "flexional":
            name = f"{prefix}_flexional{j}"
            doc["flexional_limits"][name] = _flexional_limit(rng)
            joint["flexional_limit"] = name
        elif kind == "extensional":
            name = f"{prefix}_extensional{j}"
            doc["extensional_limits"][name] = _extensional_limit(rng)
            joint["extensional_limit"] = name
        else:
            joint["jam_angle_deg"] = _r(rng, 10.0, 120.0, 2)
        if rng.random() < 0.2:
            joint["torsional_stiffness_nm_per_rad"] = _r(rng, 0.003, 0.03, 5)
        segments.append({"joint": joint})
        segments.append({"link_mm": _r(rng, 5.0, 15.0, 2)})
    return {"segments": segments}


def _empty_doc() -> dict:
    return {"schema_version": 1, "flexures": {}, "flexional_limits": {},
            "extensional_limits": {}}


# --------------------------------------------------------------------------
# gait-sweep

_LIMBS = ("front_left", "front_right", "hind_left", "hind_right")
_CAP_KINDS = ("flexional", "extensional", "explicit")
# Joints per leg, in _LIMBS order, of the documents in stratum order. Legs
# of one document differ so that invocation times spread out rather than
# cluster.
_JOINT_SETS = ((5, 4, 3, 5), (4, 4, 3, 3), (3, 2, 4, 3), (2, 2, 2, 2))
_TWINS = {"front_right": "front_left", "hind_right": "hind_left"}
DEFAULT_STEPS = 101
MAX_STEPS = 2000


def gait_sweep(seed: int, round_: int = 0, n_docs: int = 4) -> Pool:
    """The bundled hind leg through simulate-limb and the bundled quadruped
    through simulate-gait, both at their defaults; then generated quadruped
    documents, each through simulate-limb on one leg and simulate-gait. All
    generated documents but every fourth mirror left and right legs."""
    rng = _round_rng(seed, round_)
    # One step count per document, log-spaced over 101-2000 in strata. A
    # document's gait runs at another document's step count, so its limb
    # and gait calls never compute the same cycle.
    steps = [int(round(DEFAULT_STEPS * (MAX_STEPS / DEFAULT_STEPS) ** u))
             for u in _strata(rng, n_docs, 0.2)]
    mirrored = {d for d in range(n_docs) if d % 4}

    docs = {name: _bundled(name)
            for name in ("hind_leg.json", "quadruped.json")}
    items = [Item("simulate-limb", [], doc="hind_leg.json", bundled=True,
                  facts={"limb": "hind_leg", "steps": DEFAULT_STEPS}),
             Item("simulate-gait", [], doc="quadruped.json", bundled=True,
                  facts={"steps": DEFAULT_STEPS})]
    for d in range(n_docs):
        doc = _empty_doc()
        kinds = list(_CAP_KINDS)
        rng.shuffle(kinds)
        joints = dict(zip(_LIMBS, _JOINT_SETS[d % len(_JOINT_SETS)]))
        limbs = {}
        for limb in _LIMBS:
            if d in mirrored and limb in _TWINS:
                limbs[limb] = copy.deepcopy(limbs[_TWINS[limb]])
            else:
                limbs[limb] = _limb(rng, doc, limb, joints[limb], kinds)
        doc["limbs"] = limbs
        count = rng.randint(5, 9)
        doc["gait"] = {"pair_a": ["front_left", "hind_right"],
                       "pair_b": ["front_right", "hind_left"],
                       "frequencies_hz": [round(i * _r(rng, 0.2, 0.6, 2), 4)
                                          for i in range(count)]}
        key = f"gait{d:03d}.json"
        docs[key] = json.dumps(doc, indent=1)
        limb = _LIMBS[d % len(_LIMBS)]
        items.append(Item("simulate-limb",
                          ["--limb", limb, "--steps", str(steps[d])],
                          doc=key, facts={"limb": limb, "steps": steps[d]}))
        gait_steps = steps[(d + n_docs // 2) % n_docs]
        items.append(Item("simulate-gait", ["--steps", str(gait_steps)],
                          doc=key, facts={"steps": gait_steps}))
    _number(items)

    buckets = Counter()
    for item in items:
        s = item.facts["steps"]
        buckets["101" if s == DEFAULT_STEPS else "102-500" if s <= 500
                else "501-1000" if s <= 1000 else "1001-2000"] += 1
    props = {
        "mirrored_doc_share": round(len(mirrored) / n_docs, 4),
        "step_count_mix": _shares(buckets),
        "mean_steps": round(sum(i.facts["steps"] for i in items)
                            / len(items), 1),
        "subcommand_mix": _shares(Counter(i.subcommand for i in items)),
        "joints_per_limb_mix": _shares(Counter(
            sum(1 for seg in limb["segments"] if "joint" in seg)
            for key in docs if key.startswith("gait")
            for limb in json.loads(docs[key])["limbs"].values())),
    }
    return Pool(docs, items, props)


# --------------------------------------------------------------------------
# mesh-export

# Most documents are log-spaced over 10^2-10^4 triangles, one per stratum;
# one large one per round reaches 5 * 10^4. A round is kept to a few seconds
# so that a run holds many rounds, and each slot's median many samples.
DENSE_TRIANGLES = (100, 10_000)
LARGE_TRIANGLES = (50_000,)


def _mesh_part(rng: random.Random, doc: dict, j: int, target: int,
               turn: int) -> dict:
    """One export part of roughly ``target`` triangles. ``turn`` picks the
    kind among those that suit the size, so the seed does not move the
    kind mix."""
    kinds = ["flexure", "extensional"] if target < 240 else \
        ["flexure", "flexional"] if target > 2000 else \
        ["flexure", "flexional", "extensional"]
    if target > 5000:
        kinds = ["flexional"]
    kind = kinds[turn % len(kinds)]
    part = {"kind": kind, "file": f"part{j}.stl"}
    if kind == "flexure":
        # A plate plus one 12-triangle prism per complete rib period.
        ribs = max(1, round(target / 12) - 1)
        period = _r(rng, 0.3, 2.0, 3)
        flex = _flexure(rng, round(ribs * period + period / 2, 4), False)
        flex["ribs"] = {"period_mm": period,
                        "width_ratio": _r(rng, 0.25, 0.75, 3),
                        "feature_height_mm": _r(rng, 0.3, 1.5, 3)}
        doc["flexures"][f"flexure{j}"] = flex
        part["ref"] = f"flexure{j}"
    elif kind == "flexional":
        # A stem and a head per feature, 8 * facets - 8 triangles.
        low = max(2, math.ceil(target / (8 * 255)))
        high = max(low, min(60, target // (8 * 15)))
        count = int(round(math.exp(rng.uniform(math.log(low),
                                               math.log(high)))))
        part["count"] = count
        part["facets"] = min(256, max(16, round(target / (8 * count)) + 1))
        doc["flexional_limits"][f"flexional{j}"] = _flexional_limit(rng)
        part["ref"] = f"flexional{j}"
    else:
        part["count"] = max(2, round(target / 12))
        if rng.random() < 0.5:
            part["width_mm"] = _r(rng, 2.0, 8.0, 3)
        doc["extensional_limits"][f"extensional{j}"] = _extensional_limit(rng)
        part["ref"] = f"extensional{j}"
    return part


def _expected_triangles(doc: dict, part: dict) -> int:
    if part["kind"] == "flexure":
        flex = doc["flexures"][part["ref"]]
        return 12 * (1 + int(math.floor(flex["length_mm"]
                                        / flex["ribs"]["period_mm"] + 1e-9)))
    if part["kind"] == "flexional":
        return part["count"] * (8 * part["facets"] - 8)
    return 12 * part["count"]


def mesh_export(seed: int, round_: int = 0, n_docs: int = 32) -> Pool:
    """Documents of 2-8 export parts: fine-period ribbed flexures, mushroom
    rows of 16-256 facets and 2-60 features, and standoff rows, from about
    10^2 to 5 * 10^4 triangles per document."""
    rng = _round_rng(seed, round_)
    lo, hi = DENSE_TRIANGLES
    targets = [lo * (hi / lo) ** u
               for u in _strata(rng, n_docs - len(LARGE_TRIANGLES), 0.1)]
    targets += [t * (1 - 0.02 * rng.random()) for t in LARGE_TRIANGLES]
    docs = {"sample_flexure.json": _bundled("sample_flexure.json")}
    items = [Item("export-geometry", [], doc="sample_flexure.json",
                  bundled=True)]
    triangles, parts_per_doc = [], []
    for d, target in enumerate(targets):
        doc = _empty_doc()
        # Part counts cycle with the stratum, so the per-part overhead of a
        # pool does not depend on the seed. Parts share the document's
        # triangles evenly: the largest part sets the peak memory, so the
        # seed must not move its size.
        n_parts = 2 + (3 * d) % 7 if target >= 400 else 2 + d % 3
        parts = [_mesh_part(rng, doc, j, max(24, round(target / n_parts)),
                            d + j)
                 for j in range(n_parts)]
        doc["export"] = {"parts": parts}
        if rng.random() < 0.5:
            doc["process"] = {"bed_temp_c": _r(rng, 85.0, 100.0, 1),
                              "z_offset_mm": _r(rng, 0.01, 0.03, 3),
                              "material": "PLA", "pc_thickness_mm": 0.1}
        key = f"mesh{d:03d}.json"
        docs[key] = json.dumps(doc, indent=1)
        triangles.append(sum(_expected_triangles(doc, p) for p in parts))
        parts_per_doc.append(n_parts)
        items.append(Item("export-geometry", [], doc=key,
                          facts={"triangles": triangles[-1]}))
    _number(items)
    rng.shuffle(items)

    ordered = sorted(triangles)
    props = {
        "triangles_per_doc": {
            "min": ordered[0], "p25": ordered[len(ordered) // 4],
            "median": ordered[len(ordered) // 2],
            "p75": ordered[3 * len(ordered) // 4], "max": ordered[-1],
            "total": sum(ordered)},
        "triangle_decade_shares": _shares(Counter(
            f"1e{int(math.log10(t))}" for t in triangles)),
        "parts_per_doc": {"mean": round(sum(parts_per_doc) / n_docs, 2),
                          "min": min(parts_per_doc),
                          "max": max(parts_per_doc)},
        "part_kind_shares": _shares(Counter(
            p["kind"] for key in docs if key.startswith("mesh")
            for p in json.loads(docs[key])["export"]["parts"])),
    }
    return Pool(docs, items, props)


# --------------------------------------------------------------------------
# design-sweep

INVALID_SHARE = 0.2

# Each mutation breaks one rule the parser enforces; every one must end in
# exit 2 with a one-line JSON diagnostic.
_MUTATIONS = (
    "unknown_top_key", "missing_number", "wrong_type", "dangling_flexure",
    "schema_version", "syntax_error", "width_ratio_range",
    "negative_thickness", "film_not_first", "nonpositive_jam_angle",
    "zero_spacing", "gait_duplicate_limb",
)


def _mutate(doc: dict, kind: str) -> str:
    doc = copy.deepcopy(doc)
    flexure = doc["flexures"]["template"]
    joint = doc["limbs"]["leg"]["segments"][1]["joint"]
    if kind == "unknown_top_key":
        doc["colour"] = "red"
    elif kind == "missing_number":
        del flexure["length_mm"]
    elif kind == "wrong_type":
        flexure["width_mm"] = str(flexure["width_mm"])
    elif kind == "dangling_flexure":
        joint["flexure"] = "missing"
    elif kind == "schema_version":
        doc["schema_version"] = 2
    elif kind == "syntax_error":
        return json.dumps(doc, indent=1)[:-2]
    elif kind == "width_ratio_range":
        flexure["ribs"]["width_ratio"] = 1.5
    elif kind == "negative_thickness":
        flexure["base_layers"][1][1] = -0.2
    elif kind == "film_not_first":
        flexure["base_layers"].reverse()
    elif kind == "nonpositive_jam_angle":
        joint.pop("flexional_limit", None)
        joint.pop("extensional_limit", None)
        joint["jam_angle_deg"] = 0
    elif kind == "zero_spacing":
        next(iter(doc["flexional_limits"].values()))["spacing_mm"] = 0
    elif kind == "gait_duplicate_limb":
        doc["gait"] = {"pair_a": ["leg", "leg"], "pair_b": ["leg", "leg"],
                       "frequencies_hz": [1.0]}
    return json.dumps(doc, indent=1)


def _sweep(start: float, stop_hint: float, count: int) -> tuple[str, int]:
    """``start:stop:step`` text plus the row count the CLI will produce."""
    step = round((stop_hint - start) / (count - 1), 4)
    stop = round(start + step * (count - 1), 4)
    rows = int(math.floor((stop - start) / step + 1e-9)) + 1
    return f"{start}:{stop}:{step}", rows


def _k_tip(flex_json: dict, **ribs) -> float:
    doc = parse_design(json.dumps({"schema_version": 1, "flexures": {
        "f": {**flex_json, "ribs": {**flex_json["ribs"], **ribs}}}}))
    return homogenized_EI(doc.flexures["f"]).k_tip


def _design_doc(rng: random.Random, d: int,
                key: str) -> tuple[dict, list[Item]]:
    """A small valid document, stored as ``key``, and the invocations made
    with it. Table sizes, cycle lengths and joint counts cycle with ``d``,
    so the seed moves only the design values and the pool's total work
    stays put."""
    doc = _empty_doc()
    template = _flexure(rng, _r(rng, 15.0, 40.0, 2), ribbed=True)
    # The exact-stiffness quadrature costs one step per rib period.
    template["ribs"]["period_mm"] = round(
        template["length_mm"] / (4.5 + 3 * d % 16), 3)
    doc["flexures"]["template"] = template
    joints = 2 + d % 2
    kinds = list(_CAP_KINDS)
    rng.shuffle(kinds)
    doc["limbs"] = {"leg": _limb(rng, doc, "leg", joints, kinds)}
    if not doc["flexional_limits"]:
        doc["flexional_limits"]["spare"] = _flexional_limit(rng)
    doc["process"] = {"bed_temp_c": _r(rng, 75.0, 105.0, 1),
                      "z_offset_mm": _r(rng, 0.005, 0.035, 3),
                      "material": rng.choice(("PLA", "ABS")),
                      "pc_thickness_mm": _r(rng, 0.05, 0.25, 3),
                      "nozzle_temp_c": rng.choice((215.0, 240.0, 230.0))}
    items = []

    param = ("width_ratio", "feature_height_mm")[d % 2]
    hi = 0.9 if param == "width_ratio" else 2.0
    sweep, rows = _sweep(0.0, hi * rng.uniform(0.6, 1.0), 3 + 7 * d % 18)
    items.append(Item("validate", [], doc=key))
    items.append(Item("predict-stiffness",
                      ["--flexure", "template", "--sweep", f"{param}={sweep}"],
                      doc=key, facts={"rows": rows, "param": param}))

    # Stiffness targets strictly inside the attainable ranges.
    k0, k1 = _k_tip(template, width_ratio=0.0), _k_tip(template,
                                                       width_ratio=1.0)
    target = round(k0 + (k1 - k0) * rng.uniform(0.05, 0.95), 6)
    items.append(Item("design", ["--target", "width_ratio",
                                 "--stiffness-n-per-m", repr(target),
                                 "--flexure", "template"],
                      doc=key, facts={"stiffness": target}))
    parsed = parse_design(json.dumps(doc))
    supremum = plateau_stiffness(parsed.flexures["template"])
    base = _k_tip(template, feature_height_mm=0.0)
    target = round(base + (supremum - base) * rng.uniform(0.1, 0.8), 6)
    items.append(Item("design", ["--target", "feature_height",
                                 "--stiffness-n-per-m", repr(target),
                                 "--flexure", "template"],
                      doc=key, facts={"stiffness": target}))

    # Jam-angle targets: below the zero-stem angle, below 2 / tan(incline).
    limit = _flexional_limit(rng)
    try:
        zero_stem = flexional_jam_angle(FlexionalLimitSpec(
            limit["spacing_mm"], limit["head_radius_mm"], 0.0))
    except UnreachableLimitError:  # heads alone never jam below a half-turn
        zero_stem = math.pi
    angle = round(math.degrees(zero_stem) * rng.uniform(0.3, 0.9), 4)
    flex_flags = ["--spacing-mm", repr(limit["spacing_mm"]),
                  "--head-radius-mm", repr(limit["head_radius_mm"])]
    items.append(Item("design", ["--target", "stem_height",
                                 "--angle-deg", repr(angle), *flex_flags]))
    ext = _extensional_limit(rng)
    reach = 2 / math.tan(math.radians(ext["incline_deg"]))
    angle = round(math.degrees(min(reach, 1.0)) * rng.uniform(0.1, 0.7), 4)
    ext_flags = ["--base-width-mm", repr(ext["base_width_mm"]),
                 "--tip-radius-mm", repr(ext["tip_radius_mm"]),
                 "--mount-height-mm", repr(ext["mount_height_mm"]),
                 "--incline-deg", repr(ext["incline_deg"])]
    items.append(Item("design", ["--target", "diagonal",
                                 "--angle-deg", repr(angle), *ext_flags]))

    # Forward sweeps over ranges where every row has a jam angle.
    low = max(0.0, limit["spacing_mm"] / math.pi - limit["head_radius_mm"])
    sweep, rows = _sweep(round(low + 0.05, 3), low + rng.uniform(2.0, 8.0),
                         10 + 11 * d % 31)
    items.append(Item("solve-limit", ["--flexional", *flex_flags,
                                      "--sweep", f"h={sweep}"],
                      facts={"rows": rows}))
    min_diagonal = ExtensionalLimitSpec(
        1.0, ext["base_width_mm"], ext["tip_radius_mm"],
        ext["mount_height_mm"], math.radians(ext["incline_deg"])).min_diagonal
    sweep, rows = _sweep(round(min_diagonal * 1.02, 4),
                         min_diagonal * rng.uniform(1.2, 1.6),
                         10 + 17 * d % 31)
    items.append(Item("solve-limit", ["--extensional", *ext_flags,
                                      "--sweep", f"L={sweep}"],
                      facts={"rows": rows}))

    steps = 3 + 5 * d % 9
    items.append(Item("simulate-limb", ["--steps", str(steps)], doc=key,
                      facts={"limb": "leg", "steps": steps}))
    return doc, items


def design_sweep(seed: int, round_: int = 0, n_docs: int = 20) -> Pool:
    """Small documents through validate, predict-stiffness --sweep, all
    four design targets, both solve-limit sweeps and simulate-limb with 3-11
    steps; a fixed share of the invocations read an invalid document and
    must exit 2."""
    rng = _round_rng(seed, round_)
    docs = {name: _bundled(name)
            for name in ("sample_flexure.json", "hind_leg.json")}
    items = [
        Item("validate", [], doc="sample_flexure.json", bundled=True),
        Item("predict-stiffness", ["--sweep", "width_ratio=0:0.8:0.2"],
             doc="sample_flexure.json", facts={"rows": 5,
                                               "param": "width_ratio"},
             bundled=True),
        Item("design", ["--target", "width_ratio", "--stiffness-n-per-m",
                        "50"], doc="sample_flexure.json",
             facts={"stiffness": 50.0}, bundled=True),
        Item("design", ["--target", "stem_height", "--angle-deg", "90"],
             bundled=True),
        Item("solve-limit", ["--flexional", "--stem-height-mm", "4"],
             bundled=True),
        Item("solve-limit", ["--extensional", "--sweep", "L=6.5:7.5:0.25"],
             facts={"rows": 5}, bundled=True),
        Item("simulate-limb", ["--steps", "5"], doc="hind_leg.json",
             facts={"limb": "hind_leg", "steps": 5}, bundled=True),
    ]
    valid_docs = []
    for d in range(n_docs):
        key = f"design{d:03d}.json"
        doc, doc_items = _design_doc(rng, d, key)
        docs[key] = json.dumps(doc, indent=1)
        valid_docs.append((key, doc))
        items += doc_items

    # Invalid documents: a fixed share of all invocations, cycling through
    # the mutations and the subcommands that read a document.
    n_invalid = round(INVALID_SHARE * len(items) / (1 - INVALID_SHARE))
    readers = (("validate", []), ("predict-stiffness", []),
               ("simulate-limb", []),
               ("design", ["--target", "width_ratio",
                           "--stiffness-n-per-m", "40"]))
    for i in range(n_invalid):
        key, doc = valid_docs[i % n_docs]
        mutation = _MUTATIONS[i % len(_MUTATIONS)]
        bad_key = f"invalid{i:03d}.json"
        docs[bad_key] = _mutate(doc, mutation)
        subcommand, args = readers[i % len(readers)]
        items.append(Item(subcommand, list(args), doc=bad_key, expect_rc=2,
                          facts={"mutation": mutation}))
    _number(items)
    rng.shuffle(items)

    props = {
        "invalid_share": round(n_invalid / len(items), 4),
        "subcommand_mix": _shares(Counter(i.subcommand for i in items)),
        "design_target_mix": _shares(Counter(
            i.args[1] for i in items if i.subcommand == "design")),
    }
    return Pool(docs, items, props)


WORKLOADS = {"gait-sweep": gait_sweep, "mesh-export": mesh_export,
             "design-sweep": design_sweep}

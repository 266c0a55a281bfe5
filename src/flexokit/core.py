"""Domain types, design-document parsing, and print-process validation.

Design documents are JSON (schema_version 1) with lengths in millimeters,
temperatures in degrees Celsius, moduli in GPa, and angles in degrees.
Parsed objects keep the document's units in their ``*_mm`` / ``*_gpa`` /
``*_deg`` fields so that parse -> serialize -> parse is an exact identity;
SI values (meters, pascals, radians) are exposed through properties and are
what every downstream module consumes.
"""

import functools
import json
import math
import operator
from collections import ChainMap
from pathlib import PurePath
from typing import Any, Mapping, NamedTuple, Optional, Union, get_args

from ._record import MISSING, Record, field
from .errors import (AlwaysJammedError, DanglingReferenceError, DesignError,
                     GeometryError)
from .joint_limits import (ExtensionalLimitSpec, FlexionalLimitSpec,
                           extensional_jam_angle)

MM = 1e-3
GPA = 1e9

SCHEMA_VERSION = 1

MATERIAL_KINDS = ("filament", "base_film")

# Recommended process windows. Bed temperature in Celsius, first-layer
# Z-offset in millimeters.
BED_TEMP_RANGE_C = (80.0, 100.0)
BED_TEMP_PEAK_BAND_C = (90.0, 100.0)
Z_OFFSET_RANGE_MM = (0.01, 0.03)

# Peel strength of a commercial adhesive bond, N/cm, reported for reference
# alongside every process validation.
ADHESIVE_BASELINE_N_PER_CM = 11.2


class Material(Record):
    """One printable filament or the flexible base film."""

    name: str
    youngs_modulus_gpa: float
    kind: str
    nozzle_temp_c: Optional[float] = None

    def __post_init__(self):
        if self.kind not in MATERIAL_KINDS:
            raise DesignError(f"material kind must be one of {MATERIAL_KINDS}")
        if not self.youngs_modulus_gpa > 0:
            raise DesignError("youngs_modulus_gpa must be positive")
        if not math.isfinite(self.youngs_modulus):
            raise DesignError("youngs_modulus_gpa overflows in pascals")
        if (self.nozzle_temp_c is not None) != (self.kind == "filament"):
            raise DesignError(
                "nozzle_temp_c is required for filament materials and "
                "forbidden for base films")

    @property
    def youngs_modulus(self) -> float:
        """Young's modulus in pascals."""
        return self.youngs_modulus_gpa * GPA


# Typical datasheet moduli. These are deliberate defaults, not measured
# values; any document or the FLEXOKIT_MATERIALS environment override may
# redefine them, and every stiffness output is traceable to whatever values
# were configured.
DEFAULT_MATERIALS: dict[str, Material] = {
    "PLA": Material("PLA", 3.5, "filament", 215.0),
    "ABS": Material("ABS", 2.2, "filament", 240.0),
    "PC": Material("PC", 2.4, "base_film"),
}


class LaminateStack(Record):
    """Ordered laminate layers, bottom-first: (material, thickness_mm)."""

    layers: tuple[tuple[Material, float], ...]

    def __post_init__(self):
        if not self.layers:
            raise DesignError("a laminate needs at least one layer")
        films = [i for i, (m, _) in enumerate(self.layers) if m.kind == "base_film"]
        if len(films) > 1 or (films and films[0] != 0):
            raise DesignError(
                "at most one base_film layer is allowed and it must be first")
        for _, t in self.layers:
            if not t > 0:
                raise DesignError("layer thicknesses must be positive")

    @property
    def printed_thickness_mm(self) -> float:
        """Total thickness of extruded layers (the base film is stock)."""
        return sum(t for m, t in self.layers if m.kind == "filament")


class RibPattern(Record):
    """Periodic raised-rib pattern on the printed face of a flexure."""

    period_mm: float
    width_ratio: float
    feature_height_mm: float

    def __post_init__(self):
        if not self.period_mm > 0:
            raise DesignError("period_mm must be positive")
        if not 0 <= self.width_ratio <= 1:
            raise DesignError("width_ratio must lie in [0, 1]")
        if self.feature_height_mm < 0:
            raise DesignError("feature_height_mm must be nonnegative")

    @property
    def period(self) -> float:
        return self.period_mm * MM


class FlexureSpec(Record):
    """A rectangular laminate flexure, optionally ribbed."""

    name: str
    length_mm: float
    width_mm: float
    base: LaminateStack = field(key="base_layers")
    ribs: Optional[RibPattern] = None
    rib_material: Optional[Material] = None

    def __post_init__(self):
        if not (self.length_mm > 0 and self.width_mm > 0):
            raise DesignError("flexure length and width must be positive")
        if self.ribs is not None and self.ribs.period_mm > self.length_mm:
            raise DesignError("rib period cannot exceed the flexure length")
        if self.ribs is not None and self.resolved_rib_material is None:
            raise DesignError(
                "a ribbed flexure needs a rib_material or a printed base layer")

    @property
    def length(self) -> float:
        return self.length_mm * MM

    @property
    def width(self) -> float:
        return self.width_mm * MM

    @property
    def rib_count(self) -> int:
        """Complete rib periods along a ribbed flexure's length, one rib
        each; a period short of it by rounding alone counts."""
        return math.floor(self.length_mm / self.ribs.period_mm + 1e-9)

    @property
    def resolved_rib_material(self) -> Optional[Material]:
        """Explicit rib material, else the topmost printed base layer's."""
        if self.rib_material is not None:
            return self.rib_material
        for m, _ in reversed(self.base.layers):
            if m.kind == "filament":
                return m
        return None


class PrintProcessConfig(Record):
    """Printer setup checked by validate_process."""

    bed_temp_c: float
    z_offset_mm: float
    material: Material
    pc_thickness_mm: float
    nozzle_temp_c: Optional[float] = None

    def __post_init__(self):
        values = [self.bed_temp_c, self.z_offset_mm, self.pc_thickness_mm]
        if self.nozzle_temp_c is not None:
            values.append(self.nozzle_temp_c)
        if not all(math.isfinite(v) and v > 0 for v in values):
            raise DesignError("process parameters must be finite and positive")


class FlexionalLimitEntry(Record):
    """Document form of a flexional limit; ``spec`` is its SI geometry,
    checked on construction."""

    spacing_mm: float
    head_radius_mm: float
    stem_height_mm: float
    comment: str = ""
    spec: FlexionalLimitSpec = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "spec", FlexionalLimitSpec(
            spacing=self.spacing_mm * MM,
            head_radius=self.head_radius_mm * MM,
            stem_height=self.stem_height_mm * MM))


class ExtensionalLimitEntry(Record):
    """Document form of an extensional limit."""

    diagonal_mm: float
    base_width_mm: float
    tip_radius_mm: float
    mount_height_mm: float
    incline_deg: float
    comment: str = ""
    spec: ExtensionalLimitSpec = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "spec", ExtensionalLimitSpec(
            diagonal=self.diagonal_mm * MM,
            base_width=self.base_width_mm * MM,
            tip_radius=self.tip_radius_mm * MM,
            mount_height=self.mount_height_mm * MM,
            incline=math.radians(self.incline_deg)))


class LinkEntry(Record):
    """Rigid link between joints of a limb."""

    length_mm: float = field(key="link_mm")
    is_joint = False  # a class constant, not a document key

    def __post_init__(self):
        if self.length_mm < 0:
            raise DesignError("link length must be nonnegative")


class JointEntry(Record):
    """Document form of one flexure joint inside a limb.

    The torsional stiffness is derived from the referenced flexure unless
    given explicitly; the jam cap comes from the referenced limit entry
    unless jam_angle_deg is given. ``sense`` is +1 when positive joint
    rotation shortens the tendon.
    """

    flexure: str
    joint_length_mm: float
    routing_offset_mm: float
    sense: int = 1
    flexional_limit: Optional[str] = None
    extensional_limit: Optional[str] = None
    jam_angle_deg: Optional[float] = None
    torsional_stiffness_nm_per_rad: Optional[float] = None
    comment: str = ""
    is_joint = True  # a class constant, not a document key

    def __post_init__(self):
        if self.sense not in (1, -1):
            raise DesignError("joint sense must be +1 or -1")
        if not (self.joint_length_mm > 0 and self.routing_offset_mm > 0):
            raise DesignError("joint length and routing offset must be positive")
        if not (self.torsional_stiffness_nm_per_rad is None
                or self.torsional_stiffness_nm_per_rad > 0):
            raise DesignError("torsional_stiffness_nm_per_rad must be positive")
        limit_refs = (self.flexional_limit is not None) + \
            (self.extensional_limit is not None)
        if limit_refs > 1:
            raise DesignError("a joint may reference at most one limit kind")
        if limit_refs == 0 and self.jam_angle_deg is None:
            raise DesignError(
                "a joint needs a jam angle: reference a limit or set jam_angle_deg")
        if self.jam_angle_deg is not None and not 0 < self.jam_angle_deg <= 180:
            raise DesignError("jam_angle_deg must lie in (0, 180]")


class LimbEntry(Record):
    """Document form of a tendon-driven limb: alternating links and joints."""

    segments: tuple[Union[LinkEntry, JointEntry], ...]
    comment: str = ""

    def __post_init__(self):
        if not any(s.is_joint for s in self.segments):
            raise DesignError("a limb needs at least one joint")


class GaitEntry(Record):
    """Trot assignment: two diagonal limb pairs, half a cycle apart."""

    pair_a: tuple[str, str]
    pair_b: tuple[str, str]
    frequencies_hz: tuple[float, ...]

    def __post_init__(self):
        names = (*self.pair_a, *self.pair_b)
        if len(set(names)) != 4:
            raise DesignError("gait needs four distinct limbs, two per pair")
        if any(f < 0 for f in self.frequencies_hz):
            raise DesignError("gait frequencies must be nonnegative")


EXPORT_KINDS = ("flexure", "flexional", "extensional")
# Fewest features a jamming limit part has, and fewest facets per round one.
MIN_FEATURES = 2
MIN_FACETS = 8
# Features and facets of a jamming limit part that leaves them unset.
DEFAULT_FEATURES = 2
DEFAULT_FACETS = 16
# The most triangles one part may have, counted before anything is built:
# 83x the benchmark's largest part; README quotes the peak memory.
MAX_PART_TRIANGLES = 2 ** 20


def check_part(kind: str, source, count: Optional[int] = None,
               facets: Optional[int] = None) -> None:
    """Raise GeometryError (AlwaysJammedError, ContactAtRestError) unless
    an export part of ``kind`` can be built from ``source`` (its FlexureSpec
    or limit spec), ``count`` and ``facets`` (None: the default). Checked
    in order, without building it: the feature and facet minimums; at most
    MAX_PART_TRIANGLES triangles, 4n - 4 per n-gon prism (a flexure's plate
    and a box per complete rib period, uncounted if its ribs are absent,
    flat or fused; a prism per mushroom, two with a stem; a box per
    standoff); a flexure's printed layer, or heads or tips apart at rest."""
    count = DEFAULT_FEATURES if count is None else count
    facets = DEFAULT_FACETS if facets is None else facets
    if kind != "flexure" and count < MIN_FEATURES:
        raise GeometryError(
            f"a jamming limit needs at least {MIN_FEATURES} features")
    if kind == "flexional" and facets < MIN_FACETS:
        raise GeometryError(f"facets must be at least {MIN_FACETS}")
    triangles = 0
    if kind == "flexional":
        triangles = count * (4 * facets - 4) * (
            2 if source.stem_height > 0 else 1)
    elif kind == "extensional":
        triangles = 12 * count
    elif (source.ribs is not None and source.ribs.feature_height_mm > 0
          and 0 < source.ribs.width_ratio < 1):
        triangles = 12 * (1 + source.rib_count)
    if triangles > MAX_PART_TRIANGLES:
        raise GeometryError(f"the part would have {triangles} triangles, "
                            f"more than {MAX_PART_TRIANGLES}")
    if kind == "flexure" and source.base.printed_thickness_mm <= 0:
        raise GeometryError(
            "nothing to print: the laminate has no extruded layers")
    if kind == "flexional" and source.spacing <= 2 * source.head_radius:
        raise AlwaysJammedError(
            "adjacent heads intersect at rest: spacing must exceed the "
            "head diameter")
    if kind == "extensional":
        extensional_jam_angle(source)  # ContactAtRestError when infeasible


class ExportPart(Record):
    """One geometry export request. A flexional part may set ``count`` and
    ``facets``, an extensional one ``count`` and ``width_mm``, and a
    flexure part none of them; the recipe defaults those left unset."""

    kind: str
    ref: str
    file: str
    count: Optional[int] = None
    facets: Optional[int] = None
    width_mm: Optional[float] = None

    def __post_init__(self):
        if self.kind not in EXPORT_KINDS:
            raise DesignError(f"export kind must be one of {EXPORT_KINDS}")
        unread = [key for key, read in (
                      ("count", self.kind != "flexure"),
                      ("facets", self.kind == "flexional"),
                      ("width_mm", self.kind == "extensional"))
                  if getattr(self, key) is not None and not read]
        if unread:
            raise DesignError(
                f"{self.kind} parts read no {' or '.join(unread)}")
        if (self.count is not None and self.count < MIN_FEATURES
                or self.facets is not None and self.facets < MIN_FACETS):
            raise DesignError(f"export needs count >= {MIN_FEATURES} and "
                              f"facets >= {MIN_FACETS}")
        if self.width_mm is not None and not self.width_mm > 0:
            raise DesignError("export width_mm must be positive")

    @property
    def manifest(self) -> str:
        """Name of the part's manifest file in the output directory."""
        return PurePath(self.file).stem + ".manifest.json"


class ExportOptions(Record):
    parts: tuple[ExportPart, ...] = ()


class DesignDoc(Record):
    """A fully cross-linked, validated design document."""

    schema_version: int
    materials: dict[str, Material]
    flexures: dict[str, FlexureSpec] = field(factory=dict)
    flexional_limits: dict[str, FlexionalLimitEntry] = field(factory=dict)
    extensional_limits: dict[str, ExtensionalLimitEntry] = field(factory=dict)
    limbs: dict[str, LimbEntry] = field(factory=dict)
    gait: Optional[GaitEntry] = None
    process: Optional[PrintProcessConfig] = None
    export: ExportOptions = ExportOptions()
    comment: str = ""


# --------------------------------------------------------------------------
# The document schema
#
# The records above are the schema. A field is a document key (its own
# name, or the ``key`` it declares); float, int, str and Material fields,
# optionally Optional, are scalars read and written generically, and a field
# without a default is required. A field called ``name`` holds the key its
# entry is filed under, and an ``init=False`` one is derived, so neither is
# a document key. Other fields are structural: the code below builds them
# by hand. This module does not postpone annotations, so a field's type is
# the annotated object itself.

# annotation -> (accepted JSON value types, diagnostic noun and article)
_SCALAR_TYPES = {float: (frozenset((int, float)), "number", "a"),
                 int: (frozenset((int,)), "integer", "an"),
                 str: (frozenset((str,)), "string", "a"),
                 Material: (frozenset((str,)), "string", "a")}


class _Schema(NamedTuple):
    keys: frozenset   # document keys
    scalars: tuple    # (field, key, type, accepted types, missing message,
                      #  wrong-type message, default or MISSING)
    order: tuple      # (field, key, writer or None) of every field in
                      # declaration order


@functools.cache
def _schema(cls) -> _Schema:
    scalars, order = [], []
    for f in cls._fields:
        if f.name == "name" or not f.init:
            continue
        key, tp = f.key, f.type
        args = get_args(tp)
        if type(None) in args:
            tp = args[0]
        if tp is Material:
            write = operator.attrgetter("name")
        else:
            write = (to_document if isinstance(tp, type)
                     and issubclass(tp, Record) else None)
        order.append((f.name, key, write))
        if tp in _SCALAR_TYPES:
            accepts, noun, article = _SCALAR_TYPES[tp]
            scalars.append((f.name, key, tp, accepts,
                            f"missing required {noun}",
                            f"expected {article} {noun}", f.default))
    return _Schema(frozenset(k for _, k, _ in order), tuple(scalars),
                   tuple(order))


def _material(table: Mapping[str, Material], name: str, path: str) -> Material:
    try:
        return table[name]
    except KeyError:
        raise DanglingReferenceError(name, path) from None


def _obj(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise DesignError("expected a JSON object", path)
    return value


def _plain_file_name(name: str, path: str) -> PurePath:
    """``name`` as a path, if it is one plain file name, so that a file
    written under it lands in the output directory itself."""
    file = PurePath(name)
    if file.parts != (file.name,) or file.name == ".." or "\0" in name:
        raise DesignError(f"{name!r} is not a plain file name", path)
    return file


def _finite(value, path: str) -> float:
    """A JSON number as a float; NaN, Infinity and overflowing integers are
    rejected."""
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DesignError("expected a finite number", path)
    return value


def _scalars(cls, raw: Any, path: str,
             table: Optional[Mapping[str, Material]] = None) -> dict:
    """Check ``raw``'s keys against ``cls`` and read its scalar fields."""
    keys, scalars, _ = _schema(cls)
    if not isinstance(raw, dict):
        raise DesignError("expected a JSON object", path)
    if not keys.issuperset(raw):
        raise DesignError(f"unknown key(s) {sorted(raw.keys() - keys)}", path)
    values = {}
    for name, key, tp, accepts, missing, expected, default in scalars:
        if key not in raw:
            if default is MISSING:
                raise DesignError(missing, f"{path}.{key}")
            values[name] = default
            continue
        v = raw[key]
        if type(v) not in accepts:  # JSON values only: bool is no number
            raise DesignError(expected, f"{path}.{key}")
        if tp is float:
            v = _finite(v, f"{path}.{key}")
        elif tp is Material:
            v = _material(table, v, f"{path}.{key}")
        values[name] = v
    return values


def _build(cls, path: str, values: dict):
    # Re-anchor invariant violations from record constructors, the
    # geometry a limit entry builds included, at the document field that
    # caused them.
    try:
        return cls(**values)
    except (DesignError, GeometryError) as exc:
        if getattr(exc, "path", ""):
            raise
        raise DesignError(str(exc), path) from None


def _read(cls, raw: Any, path: str,
          table: Optional[Mapping[str, Material]] = None):
    """Build ``cls``, all of whose fields are scalars, from ``raw``."""
    return _build(cls, path, _scalars(cls, raw, path, table))


def to_document(entry, **given) -> dict:
    """Document object of a schema record, the inverse of reading it.

    Fields come out in declaration order, ``None`` and ``""`` are left out,
    materials are written by name and nested entries recursively; ``given``
    supplies the document form of other structural fields.
    """
    out = {}
    for name, key, write in _schema(type(entry)).order:
        if name in given:
            v = given[name]
        else:
            v = getattr(entry, name)
            if write is not None and v is not None:
                v = write(v)
        if v is None or v == "":
            continue
        out[key] = v
    return out


# --------------------------------------------------------------------------
# Parsing

def _json(text: str, path: str = "") -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DesignError(
            f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}",
            path) from None


def _section(raw: Any, path: str, read) -> dict:
    """A name -> entry section; ``read(name, raw, path)`` builds each entry."""
    return {name: read(name, body, f"{path}.{name}")
            for name, body in _obj(raw, path).items()}


def _materials(raw: Any, path: str) -> dict[str, Material]:
    return _section(raw, path, lambda name, body, p: _build(
        Material, p, dict(_scalars(Material, body, p), name=name)))


def parse_materials(text: str) -> dict[str, Material]:
    """Parse a FLEXOKIT_MATERIALS override file.

    The file is a JSON object of the same form as a document's materials
    section; diagnostics are anchored at ``FLEXOKIT_MATERIALS.<name>``.
    """
    path = "FLEXOKIT_MATERIALS"
    return _materials(_json(text, path), path)


def _flexure(name: str, raw: Any, path: str,
             table: Mapping[str, Material]) -> FlexureSpec:
    scalars = _scalars(FlexureSpec, raw, path, table)
    raw_layers = raw.get("base_layers")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise DesignError("expected a non-empty list of [material, thickness_mm]",
                          f"{path}.base_layers")
    layers = []
    for i, pair in enumerate(raw_layers):
        lp = f"{path}.base_layers[{i}]"
        if (not isinstance(pair, list) or len(pair) != 2
                or not isinstance(pair[0], str)
                or isinstance(pair[1], bool)
                or not isinstance(pair[1], (int, float))):
            raise DesignError("expected [material, thickness_mm]", lp)
        layers.append((_material(table, pair[0], lp), _finite(pair[1], lp)))
    base = _build(LaminateStack, f"{path}.base_layers",
                  {"layers": tuple(layers)})
    ribs = (_read(RibPattern, raw["ribs"], f"{path}.ribs")
            if "ribs" in raw else None)
    return _build(FlexureSpec, path,
                  dict(scalars, name=name, base=base, ribs=ribs))


def _joint(raw: Any, path: str, flexures: dict, flexional: dict,
           extensional: dict) -> JointEntry:
    joint = _read(JointEntry, raw, path)
    for key, ref, pool in (("flexure", joint.flexure, flexures),
                           ("flexional_limit", joint.flexional_limit, flexional),
                           ("extensional_limit", joint.extensional_limit,
                            extensional)):
        if ref is not None and ref not in pool:
            raise DanglingReferenceError(ref, f"{path}.{key}")
    return joint


def _limb(name: str, raw: Any, path: str, *pools: dict) -> LimbEntry:
    # simulate-limb writes <name>_trajectory.csv and two siblings
    _plain_file_name(f"{name}_trajectory.csv", path)
    scalars = _scalars(LimbEntry, raw, path)
    raw_segments = raw.get("segments")
    if not isinstance(raw_segments, list) or not raw_segments:
        raise DesignError("expected a non-empty segment list", f"{path}.segments")
    link_keys = _schema(LinkEntry).keys
    segments = []
    for i, seg in enumerate(raw_segments):
        sp = f"{path}.segments[{i}]"
        sobj = _obj(seg, sp)
        if sobj.keys() == link_keys:
            segments.append(_read(LinkEntry, sobj, sp))
        elif set(sobj) == {"joint"}:
            segments.append(_joint(sobj["joint"], f"{sp}.joint", *pools))
        else:
            raise DesignError('expected {"link_mm": ...} or {"joint": {...}}', sp)
    return _build(LimbEntry, path, dict(scalars, segments=tuple(segments)))


def _gait(raw: Any, limbs: dict) -> GaitEntry:
    values = _scalars(GaitEntry, raw, "gait")
    for key in ("pair_a", "pair_b"):
        v = raw.get(key)
        if (not isinstance(v, list) or len(v) != 2
                or not all(isinstance(s, str) for s in v)):
            raise DesignError("expected a pair of limb names", f"gait.{key}")
        for s in v:
            if s not in limbs:
                raise DanglingReferenceError(s, f"gait.{key}")
        values[key] = tuple(v)
    freqs = raw.get("frequencies_hz", [])
    if (not isinstance(freqs, list)
            or not all(isinstance(f, (int, float)) and not isinstance(f, bool)
                       for f in freqs)):
        raise DesignError("expected a list of numbers", "gait.frequencies_hz")
    values["frequencies_hz"] = tuple(
        _finite(f, f"gait.frequencies_hz[{i}]") for i, f in enumerate(freqs))
    return _build(GaitEntry, "gait", values)


def _export(raw: Any, pools: dict[str, dict]) -> ExportOptions:
    values = _scalars(ExportOptions, raw, "export")
    raw_parts = raw.get("parts", [])
    if not isinstance(raw_parts, list):
        raise DesignError("expected a list of parts", "export.parts")
    parts = []
    writer: dict[PurePath, int] = {}  # each file path, and the part writing it
    for i, rp in enumerate(raw_parts):
        pp = f"export.parts[{i}]"
        part = _read(ExportPart, rp, pp)
        if part.ref not in pools[part.kind]:
            raise DanglingReferenceError(part.ref, f"{pp}.ref")
        for path in (_plain_file_name(part.file, f"{pp}.file"),
                     PurePath(part.manifest)):
            if path in writer:
                raise DesignError(f"writes {path}, as export.parts"
                                  f"[{writer[path]}] does", f"{pp}.file")
            writer[path] = i
        parts.append(part)
    return _build(ExportOptions, "export", dict(values, parts=tuple(parts)))


def parse_design(document_text: str,
                 materials_override: Optional[Mapping[str, Material]] = None
                 ) -> DesignDoc:
    """Parse and cross-link a JSON design document.

    Raises DesignError for syntax errors (with position), schema violations
    (with a dotted field path), and DanglingReferenceError for references to
    undefined names. ``materials_override`` shadows both the document's
    materials and the built-in defaults (the FLEXOKIT_MATERIALS hook).
    """
    root = _json(document_text)
    scalars = _scalars(DesignDoc, root, "$")
    version = scalars["schema_version"]
    if version != SCHEMA_VERSION:
        raise DesignError(f"unknown schema_version {version}; "
                          f"this build reads version {SCHEMA_VERSION}",
                          "$.schema_version")
    # overrides shadow the document's materials, which shadow the defaults
    table = ChainMap(materials_override or {},
                     _materials(root.get("materials", {}), "materials"),
                     DEFAULT_MATERIALS)
    flexures = _section(root.get("flexures", {}), "flexures",
                        lambda name, raw, path: _flexure(name, raw, path, table))
    flexional = _section(root.get("flexional_limits", {}), "flexional_limits",
                         lambda name, raw, path:
                         _read(FlexionalLimitEntry, raw, path))
    extensional = _section(root.get("extensional_limits", {}),
                           "extensional_limits", lambda name, raw, path:
                           _read(ExtensionalLimitEntry, raw, path))
    limbs = _section(root.get("limbs", {}), "limbs", lambda name, raw, path:
                     _limb(name, raw, path, flexures, flexional,
                           extensional))
    return DesignDoc(
        materials=dict(table), flexures=flexures,
        flexional_limits=flexional, extensional_limits=extensional,
        limbs=limbs,
        gait=_gait(root["gait"], limbs) if "gait" in root else None,
        process=(_read(PrintProcessConfig, root["process"], "process", table)
                 if "process" in root else None),
        export=_export(root.get("export", {}),
                       {"flexure": flexures, "flexional": flexional,
                        "extensional": extensional}),
        **scalars)


# --------------------------------------------------------------------------
# Serialization (inverse of parse_design, document units preserved)

def serialize_design(doc: DesignDoc) -> str:
    """Emit a document that parses back to an identical DesignDoc."""
    sections = {
        "materials": {name: to_document(m)
                      for name, m in sorted(doc.materials.items())},
        "flexures": {name: to_document(f, base=[[m.name, t]
                                                for m, t in f.base.layers])
                     for name, f in doc.flexures.items()},
        "flexional_limits": {name: to_document(e)
                             for name, e in doc.flexional_limits.items()},
        "extensional_limits": {name: to_document(e)
                               for name, e in doc.extensional_limits.items()},
        "limbs": {name: to_document(limb, segments=[
                      {"joint": to_document(s)} if s.is_joint
                      else to_document(s) for s in limb.segments])
                  for name, limb in doc.limbs.items()},
        "export": doc.export.parts and to_document(
            doc.export, parts=[to_document(p) for p in doc.export.parts]),
    }
    # empty sections are left out
    root = to_document(doc, **{k: v or None for k, v in sections.items()})
    return json.dumps(root, indent=2) + "\n"


# --------------------------------------------------------------------------
# Process validation

class ValidationEntry(Record):
    level: str  # "ok" | "warning"
    code: str
    message: str
    value: Optional[float] = None


class ValidationReport(Record):
    entries: tuple[ValidationEntry, ...]

    @property
    def has_warnings(self) -> bool:
        return any(e.level == "warning" for e in self.entries)

    def to_json(self) -> list:
        return [{"level": e.level, "code": e.code, "message": e.message,
                 **({"value": e.value} if e.value is not None else {})}
                for e in self.entries]

    def to_text(self) -> str:
        if not self.entries:
            return ""
        width = max(len(e.level) for e in self.entries)
        return "\n".join(f"[{e.level.upper():<{width}}] {e.code}: {e.message}"
                         for e in self.entries) + "\n"


_BED_LO, _BED_HI = BED_TEMP_RANGE_C
_PEAK_LO, _PEAK_HI = BED_TEMP_PEAK_BAND_C
_Z_LO, _Z_HI = Z_OFFSET_RANGE_MM

# (check, code, level, predicate, message). A check is the config field it
# reads and is skipped while that field is unset; it reports the first of
# its rules whose predicate holds for (value, process material). Neither
# nozzle rule holds when the material declares no nozzle temperature.
_PROCESS_RULES = (
    ("bed_temp_c", "bed_temp_low_adhesion", "warning",
     lambda bed, m: bed < _BED_LO, lambda bed, m:
     f"bed temperature {bed:g} C is outside recommended adhesion range "
     f"{_BED_LO:g}-{_BED_HI:g} C; expect weak film bonding"),
    ("bed_temp_c", "bed_temp_high", "warning",
     lambda bed, m: bed > _BED_HI, lambda bed, m:
     f"bed temperature {bed:g} C is outside recommended adhesion range "
     f"{_BED_LO:g}-{_BED_HI:g} C; the base film may deform"),
    ("bed_temp_c", "bed_temp_peak_band", "ok",
     lambda bed, m: _PEAK_LO <= bed <= _PEAK_HI, lambda bed, m:
     f"bed temperature {bed:g} C sits in the peak peel-strength band "
     f"{_PEAK_LO:g}-{_PEAK_HI:g} C"),
    ("bed_temp_c", "bed_temp_ok", "ok",
     lambda bed, m: True, lambda bed, m:
     f"bed temperature {bed:g} C is inside the recommended range "
     f"{_BED_LO:g}-{_BED_HI:g} C"),
    ("z_offset_mm", "z_offset_ok", "ok",
     lambda z, m: _Z_LO <= z <= _Z_HI, lambda z, m:
     f"Z-offset {z:g} mm is inside the recommended range "
     f"{_Z_LO:g}-{_Z_HI:g} mm"),
    ("z_offset_mm", "z_offset_out_of_range", "warning",
     lambda z, m: True, lambda z, m:
     f"Z-offset {z:g} mm is outside {_Z_LO:g}-{_Z_HI:g} mm; first-layer "
     "contact pressure will be off (too low bonds poorly, too high "
     "loses it entirely)"),
    ("nozzle_temp_c", "nozzle_temp_ok", "ok",
     lambda t, m: t == m.nozzle_temp_c, lambda t, m:
     f"nozzle temperature {t:g} C matches {m.name}"),
    ("nozzle_temp_c", "nozzle_temp_mismatch", "warning",
     lambda t, m: m.nozzle_temp_c is not None, lambda t, m:
     f"nozzle temperature {t:g} C differs from {m.name}'s declared "
     f"{m.nozzle_temp_c:g} C"),
)


def validate_process(config: PrintProcessConfig) -> ValidationReport:
    """Check printer parameters against the recommended process windows.

    Validation reports, never aborts: process windows are recommendations,
    not hard limits. The report ends with the adhesive peel-strength
    baseline for reference.
    """
    entries, reported = [], set()
    for check, code, level, holds, message in _PROCESS_RULES:
        value = getattr(config, check)
        if (check not in reported and value is not None
                and holds(value, config.material)):
            reported.add(check)
            entries.append(ValidationEntry(
                level, code, message(value, config.material), value))
    entries.append(ValidationEntry(
        "ok", "adhesion_reference",
        "reference: a well-bonded seam compares to a commercial-adhesive "
        f"baseline of {ADHESIVE_BASELINE_N_PER_CM} N/cm peel strength",
        ADHESIVE_BASELINE_N_PER_CM))
    return ValidationReport(tuple(entries))

"""Parametric 2.5D fabrication geometry and binary STL export.

Every part is a union of disjoint extruded primitives (boxes, sheared
prisms, faceted cylinders), each meshed as an independently closed triangle
shell. Primitives may abut but never share vertices, so the concatenated
mesh keeps the watertight invariant (every undirected edge bounds exactly
two triangles) and its signed volume is exactly the sum of the primitive
volumes.

Meshes are in millimeters with z as the build direction (the printed face
grows along +z), matching consumer-printing STL conventions. The flexible
base film is never meshed; it is stock material, so exports record only its
required thickness in the sidecar manifest.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import groupby
from typing import Optional

import numpy as np

from . import __version__
from .core import MIN_FACETS, MIN_FEATURES, FlexureSpec
from .errors import AlwaysJammedError, GeometryError
from .joint_limits import (ExtensionalLimitSpec, FlexionalLimitSpec,
                           extensional_jam_angle)

_MIN_TRIANGLE_AREA_MM2 = 1e-12
M_TO_MM = 1000.0
# The most triangles one part may have, counted before anything is built:
# 83x the benchmark's largest part. An export at the bound peaks near 350 MB.
MAX_PART_TRIANGLES = 2 ** 20
# STL stores float32 vertices: a larger coordinate would be written as inf.
_FLOAT32_MAX = float(np.finfo(np.float32).max)
_STL_RECORD = np.dtype([("normal", "<f4", (3,)), ("vertices", "<f4", (3, 3)),
                        ("attribute", "<u2")])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a x b of (n, 3) arrays, bit for bit ``np.cross(a, b)``: each
    component is the difference of two separately rounded products."""
    out, tmp = np.empty(a.shape), np.empty(len(a))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[:, j], b[:, k], out=out[:, i])
        np.multiply(a[:, k], b[:, j], out=tmp)
        out[:, i] -= tmp
    return out


def _vertex_ids(pts: np.ndarray) -> np.ndarray:
    """One id per row of ``pts``: equal points (-0.0 == 0.0) share one, and
    NaN matches none."""
    order = np.lexsort(pts.T[::-1])
    ranked = np.take(pts, order, axis=0)
    new = np.empty(len(order), dtype=bool)
    new[0] = True
    np.not_equal(ranked[1:, 0], ranked[:-1, 0], out=new[1:])
    for c in (1, 2):
        np.logical_or(new[1:], ranked[1:, c] != ranked[:-1, c], out=new[1:])
    ids = np.empty_like(order)
    ids[order] = np.cumsum(new)
    return ids


class TriangleMesh:
    """Immutable triangle soup: vertices shaped (n_triangles, 3, 3), mm."""

    def __init__(self, triangles: np.ndarray):
        tri = np.asarray(triangles, dtype=np.float64)
        if tri.ndim != 3 or tri.shape[1:] != (3, 3):
            raise GeometryError("triangles must be shaped (n, 3, 3)")
        self._tri = tri
        self._tri.setflags(write=False)

    @property
    def triangles(self) -> np.ndarray:
        return self._tri

    def __len__(self) -> int:
        return len(self._tri)

    def volume(self) -> float:
        """Signed enclosed volume (divergence theorem), mm^3."""
        v0, v1, v2 = self._tri[:, 0], self._tri[:, 1], self._tri[:, 2]
        return float(np.einsum("ij,ij->i", v0, _cross(v1, v2)).sum() / 6.0)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        pts = self._tri.reshape(-1, 3)
        return pts.min(axis=0), pts.max(axis=0)

    def validate(self) -> np.ndarray:
        """Raise GeometryError unless the mesh is a closed, outward shell.

        Returns the edge cross product of each triangle, twice its area
        along its normal, which ``export_stl`` turns into the normals.
        """
        v0 = self._tri[:, 0]
        cross = _cross(self._tri[:, 1] - v0, self._tri[:, 2] - v0)
        if len(self._tri) == 0:
            return cross
        small = 0.5 * np.linalg.norm(cross, axis=1) <= _MIN_TRIANGLE_AREA_MM2
        if small.any():
            raise GeometryError(
                f"{int(small.sum())} degenerate triangle(s) below "
                f"{_MIN_TRIANGLE_AREA_MM2} mm^2")
        tri = _vertex_ids(self._tri.reshape(-1, 3)).reshape(-1, 3)
        nxt = np.roll(tri, -1, axis=1)
        if (tri == nxt).any():
            raise GeometryError("triangle with repeated vertices")
        # Watertight: each directed edge occurs once, and so does its reverse.
        m = tri.size + 1
        keys = np.sort((tri * m + nxt).ravel())
        if ((keys[1:] == keys[:-1]).any()
                or not np.array_equal(keys, np.sort((nxt * m + tri).ravel()))):
            raise GeometryError(
                "mesh is not watertight: an edge is not shared by "
                "exactly two consistently wound triangles")
        if not self.volume() > 0:
            raise GeometryError("mesh volume is not positive (inside out?)")
        return cross


def _polygon_area(poly: tuple) -> float:
    # Shoelace; positive for counterclockwise winding.
    total = 0.0
    for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1]):
        total += x0 * y1 - x1 * y0
    return total / 2.0


@dataclass(frozen=True)
class Primitive:
    """One polygon extruded along a coordinate axis.

    ``polygon`` is counterclockwise in the plane normal to ``axis`` ("z":
    coordinates are (x, y); "y": coordinates are (x, z)). Caps fan from its
    first vertex, which must see all others: true for a convex section (box,
    rib, standoff, faceted cylinder) and the stepped slab's reflex corner.
    """

    polygon: tuple[tuple[float, float], ...]
    axis: str
    lo: float
    hi: float

    def __post_init__(self):
        if self.axis not in ("y", "z"):
            raise GeometryError("extrusion axis must be 'y' or 'z'")
        if not self.hi > self.lo:
            raise GeometryError("extrusion extent must be positive")
        if not (abs(self.lo) <= _FLOAT32_MAX and abs(self.hi) <= _FLOAT32_MAX
                and all(abs(u) <= _FLOAT32_MAX and abs(v) <= _FLOAT32_MAX
                        for u, v in self.polygon)):
            raise GeometryError(
                f"coordinates must lie within +/-{_FLOAT32_MAX:g} mm, the "
                "float32 range of STL")
        if _polygon_area(self.polygon) <= 0:
            raise GeometryError("polygon must be counterclockwise")

    @property
    def volume_mm3(self) -> float:
        return _polygon_area(self.polygon) * (self.hi - self.lo)


def _mesh_run(run: list[Primitive], n: int, axis: str) -> np.ndarray:
    """Triangles of primitives sharing a vertex count and an axis, in order.

    Polygon vertex i of primitive p is point (p, i) at lo and (p, n + i) at
    hi. Each fan step gives a hi then a lo cap triangle; each side, two
    triangles.
    """
    polygons = np.array([p.polygon for p in run])
    pts = np.empty((len(run), 2 * n, 3))
    pts[:, :n, :2] = pts[:, n:, :2] = polygons
    extents = np.array([(p.lo, p.hi) for p in run])
    pts[:, :n, 2] = extents[:, :1]
    pts[:, n:, 2] = extents[:, 1:]
    j = np.arange(n)
    k, i = (j + 1) % n, j[1:-1]
    caps = np.array((0 * i + n, n + i, n + i + 1, 0 * i, i + 1, i)).T
    sides = np.array((j, k, n + k, j, n + k, n + j)).T
    faces = np.concatenate((caps, sides)).reshape(-1, 3)
    if axis == "y":
        pts, faces = pts[:, :, [0, 2, 1]], faces[:, ::-1]  # mirror: rewind
    return pts[:, faces].reshape(-1, 3, 3)


@dataclass(frozen=True)
class SolidRecipe:
    """Disjoint primitives forming one printable part."""

    primitives: tuple[Primitive, ...]

    @property
    def analytic_volume_mm3(self) -> float:
        """Closed-form part volume (faceted, not circular, for cylinders)."""
        return sum(p.volume_mm3 for p in self.primitives)

    def mesh(self) -> TriangleMesh:
        """One array pass per run of consecutive primitives that share a
        vertex count and an axis; triangles keep the primitives' order."""
        blocks = [_mesh_run(list(run), n, axis) for (n, axis), run in
                  groupby(self.primitives, lambda p: (len(p.polygon), p.axis))]
        if not blocks:
            return TriangleMesh(np.empty((0, 3, 3)))
        return TriangleMesh(blocks[0] if len(blocks) == 1
                            else np.concatenate(blocks))


def _check_size(triangles: int) -> None:
    if triangles > MAX_PART_TRIANGLES:
        raise GeometryError(f"the part would have {triangles} triangles, "
                            f"more than {MAX_PART_TRIANGLES}")


def _rect(x0, x1, y0, y1) -> tuple:
    return ((x0, y0), (x1, y0), (x1, y1), (x0, y1))


def _ngon(cx: float, cy: float, radius: float, facets: int) -> tuple:
    return tuple((cx + radius * math.cos(2 * math.pi * i / facets),
                  cy + radius * math.sin(2 * math.pi * i / facets))
                 for i in range(facets))


# --------------------------------------------------------------------------
# Part recipes

def flexure_recipe(flex: FlexureSpec) -> SolidRecipe:
    """Base plate plus one centered rib prism per complete period.

    The plate is the printed base only (film excluded). Ribs sit centered
    within each period; at width_ratio 1 the ribs fuse into a single slab.
    """
    length, width = flex.length_mm, flex.width_mm
    t_base = flex.base.printed_thickness_mm
    if t_base <= 0:
        raise GeometryError(
            "nothing to print: the laminate has no extruded layers")
    ribs = flex.ribs
    prims = [Primitive(_rect(0.0, length, 0.0, width), "z", 0.0, t_base)]
    if ribs is not None and ribs.feature_height_mm > 0 and ribs.width_ratio > 0:
        period = ribs.period_mm
        n = int(math.floor(length / period + 1e-9))
        z1 = t_base + ribs.feature_height_mm
        if ribs.width_ratio >= 1.0:
            # Ribs fuse into a slab flush with the plate edges. Touching
            # boxes would duplicate their shared boundary edges, so mesh
            # the fused part as one prism instead.
            x1 = n * period
            if x1 >= length - 1e-9 * period:
                prims = [Primitive(_rect(0.0, length, 0.0, width), "z",
                                   0.0, z1)]
            else:
                # listed from its reflex corner, the cap fan's origin
                step = ((x1, t_base), (x1, z1), (0.0, z1), (0.0, 0.0),
                        (length, 0.0), (length, t_base))
                prims = [Primitive(step, "y", 0.0, width)]
        else:
            _check_size(12 * (1 + n))
            rib_w = ribs.width_ratio * period
            for i in range(n):
                x0 = i * period + (period - rib_w) / 2
                prims.append(Primitive(_rect(x0, x0 + rib_w, 0.0, width),
                                       "z", t_base, z1))
    return SolidRecipe(tuple(prims))


def flexional_recipe(spec: FlexionalLimitSpec, count: int = 2,
                     facets: int = 16) -> SolidRecipe:
    """Mushroom pillars: faceted stem plus wider faceted disk head.

    Feature axes sit ``spacing`` apart along x. Head thickness and stem
    radius are printable realization choices, not jamming inputs; both are
    fixed at half the head radius. All spec lengths are meters (SI); the
    recipe is meshed in mm.
    """
    if count < MIN_FEATURES:
        raise GeometryError(
            f"a jamming limit needs at least {MIN_FEATURES} features")
    if facets < MIN_FACETS:
        raise GeometryError(f"facets must be at least {MIN_FACETS}")
    if spec.spacing <= 2 * spec.head_radius:
        raise AlwaysJammedError(
            "adjacent heads intersect at rest: spacing must exceed the "
            "head diameter")
    r = spec.head_radius * M_TO_MM
    h = spec.stem_height * M_TO_MM
    spacing = spec.spacing * M_TO_MM
    t_head = r_stem = r / 2
    _check_size(count * (4 * facets - 4) * (2 if h > 0 else 1))
    prims = []
    for i in range(count):
        cx = i * spacing
        if h > 0:
            prims.append(Primitive(_ngon(cx, 0.0, r_stem, facets),
                                   "z", 0.0, h))
        prims.append(Primitive(_ngon(cx, 0.0, r, facets), "z", h, h + t_head))
    return SolidRecipe(tuple(prims))


def extensional_recipe(spec: ExtensionalLimitSpec, count: int = 2,
                       width: Optional[float] = None) -> SolidRecipe:
    """Inclined standoffs, alternating orientation, facing in pairs.

    Each standoff is a sheared prism: parallelogram cross-section of base
    width b whose slant sides have length equal to the feature diagonal at
    the feature incline, so the prism height is the tip height. A facing
    pair leans toward each other, placed so the gap between the facing tip
    edges equals the rest gap of the jamming model (the prism tip stands in
    for the rounded tip surface, hence the tip-radius retraction on both
    sides). ``width`` is the extrusion depth across the flexure, defaulting
    to the base width.
    """
    if count < MIN_FEATURES:
        raise GeometryError(
            f"a jamming limit needs at least {MIN_FEATURES} features")
    _check_size(12 * count)
    extensional_jam_angle(spec)  # raises ContactAtRestError when infeasible
    L = spec.diagonal * M_TO_MM
    b = spec.base_width * M_TO_MM
    r = spec.tip_radius * M_TO_MM
    h1 = L * math.sin(spec.incline)
    shear = L * math.cos(spec.incline)
    depth = b if width is None else width * M_TO_MM
    if depth <= 0:
        raise GeometryError("extrusion width must be positive")
    # Facing tip edges of a pair end up (2*L*cos(incline) - b - 2r) apart.
    pair_offset = 4 * shear - 2 * r
    pitch = pair_offset + 2 * b

    def standoff(x0: float, lean: float) -> Primitive:
        poly = ((x0, 0.0), (x0 + b, 0.0),
                (x0 + b + lean, h1), (x0 + lean, h1))
        return Primitive(poly, "y", 0.0, depth)

    prims = []
    for i in range(count):
        pair, side = divmod(i, 2)
        x0 = pair * pitch + side * pair_offset
        prims.append(standoff(x0, shear if side == 0 else -shear))
    return SolidRecipe(tuple(prims))


# --------------------------------------------------------------------------
# Binary STL

def export_stl(mesh: TriangleMesh, destination) -> int:
    """Write the canonical binary STL layout; returns bytes written.

    80-byte header, little-endian uint32 triangle count, then per triangle
    12 float32 values (normal, 3 vertices) and a zero attribute word:
    exactly 84 + 50 * count bytes. Refuses invariant-violating meshes.
    """
    cross = mesh.validate()
    header = f"flexokit {__version__} binary STL".encode("ascii")[:80]
    records = np.zeros(len(mesh), dtype=_STL_RECORD)
    records["normal"] = cross / np.linalg.norm(cross, axis=1, keepdims=True)
    records["vertices"] = mesh.triangles
    with open(destination, "wb") as fh:
        fh.write(header.ljust(80, b" ") + struct.pack("<I", len(mesh)))
        fh.write(records.tobytes())
    return 84 + records.nbytes

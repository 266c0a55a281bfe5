"""Parametric 2.5D fabrication geometry and binary STL export.

Every part is a union of disjoint extruded prisms (boxes, sheared prisms,
faceted cylinders), each meshed as an independently closed triangle shell.
Prisms come in batches: a ``Primitive`` holds P polygons of one vertex
count, extruded along one axis, and is checked and meshed in one array
pass. An n-gon prism is 2n points, gathered into triangles by one face
template per (n, axis) that is closed for every n >= 3. Prisms may abut
but never share points, so the concatenated mesh keeps the watertight
invariant (every undirected edge bounds exactly two triangles) and its
signed volume is exactly the sum of the prism volumes. Validation rests
on that: it welds a recipe mesh's prism points as STL writes them, and
when no two weld, the mesh is closed. Otherwise, and for a mesh built
from bare triangles, it checks every triangle corner.

Meshes are in millimeters with z as the build direction (the printed face
grows along +z), matching consumer-printing STL conventions. The flexible
base film is never meshed; it is stock material, so exports record only its
required thickness in the sidecar manifest.
"""

from __future__ import annotations

import math
import struct
from typing import Optional

import numpy as np

from . import __version__
from ._record import Record
from .core import MIN_FACETS, MIN_FEATURES, FlexureSpec
from .errors import AlwaysJammedError, GeometryError
from .joint_limits import (ExtensionalLimitSpec, FlexionalLimitSpec,
                           extensional_jam_angle)

_MIN_TRIANGLE_AREA_MM2 = 1e-12
M_TO_MM = 1000.0
# The most triangles one part may have, counted before anything is built:
# 83x the benchmark's largest part. An export at the bound peaks near 265 MB,
# and near 360 MB if validation falls back to checking every corner.
MAX_PART_TRIANGLES = 2 ** 20
# STL stores float32 vertices: a larger coordinate would be written as inf.
_FLOAT32_MAX = float(np.finfo(np.float32).max)
_STL_RECORD = np.dtype([("normal", "<f4", (3,)), ("vertices", "<f4", (3, 3)),
                        ("attribute", "<u2")])


def _require_float32(*arrays: np.ndarray) -> None:
    """Raise unless every value is finite and within the float32 range of
    STL, so that casting to float32 neither warns nor overflows."""
    for a in arrays:
        if a.size and not (-_FLOAT32_MAX <= a.min() and a.max() <= _FLOAT32_MAX):
            raise GeometryError(
                f"coordinates must lie within +/-{_FLOAT32_MAX:g} mm, the "
                "float32 range of STL")


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a x b of (n, 3) arrays, bit for bit ``np.cross(a, b)``: each
    component is the difference of two separately rounded products."""
    out, tmp = np.empty(a.shape), np.empty(len(a))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[:, j], b[:, k], out=out[:, i])
        np.multiply(a[:, k], b[:, j], out=tmp)
        out[:, i] -= tmp
    return out


def _signed_volume(tri: np.ndarray) -> float:
    """Signed enclosed volume of (n, 3, 3) triangles (divergence theorem)."""
    v0, v1, v2 = tri[:, 0], tri[:, 1], tri[:, 2]
    return float(np.einsum("ij,ij->i", v0, _cross(v1, v2)).sum() / 6.0)


def _vertex_ids(points: np.ndarray) -> np.ndarray:
    """One id, from 1 up, per 3-D point of ``points`` as STL writes it:
    points equal in float32 (-0.0 == 0.0) share one. Every coordinate must
    be finite and within float32 range."""
    pts = points.reshape(-1, 3).astype(np.float32)
    pts += np.float32(0.0)  # -0.0 + 0.0 is 0.0
    bits = pts.view(np.uint32)
    xy = bits[:, 0].astype(np.uint64)
    xy <<= np.uint64(32)
    xy |= bits[:, 1]
    z = bits[:, 2].copy()  # lexsort reads a contiguous key faster
    order = np.lexsort((z, xy))
    xy, z = xy[order], z[order]
    new = np.empty(len(order), dtype=bool)
    new[0] = True
    np.not_equal(xy[1:], xy[:-1], out=new[1:])
    new[1:] |= z[1:] != z[:-1]
    ids = np.empty_like(order)
    ids[order] = np.cumsum(new)
    return ids


def _shell_error(ids: np.ndarray) -> Optional[str]:
    """Why triangles of vertex ids ``ids``, shaped (n, 3), are not a closed
    shell, or None: no triangle repeats a vertex, and each directed edge
    occurs once, and so does its reverse."""
    nxt = np.roll(ids, -1, axis=1)
    if (ids == nxt).any():
        return "triangle with repeated vertices"
    m = ids.size + 1
    keys = np.sort((ids * m + nxt).ravel())
    if ((keys[1:] == keys[:-1]).any()
            or not np.array_equal(keys, np.sort((nxt * m + ids).ravel()))):
        return ("mesh is not watertight: an edge is not shared by exactly "
                "two consistently wound triangles")
    return None


class TriangleMesh:
    """Immutable triangle soup: vertices shaped (n_triangles, 3, 3), mm.

    A float64 array is held without a copy, through a read-only view; the
    caller's array stays writable, and must not be written while the mesh
    is in use.

    ``prism_points``, shaped (N, 3), are the points of the prisms that
    ``SolidRecipe.mesh`` gathered the triangles from, each prism by its
    closed face template; validation welds them instead of the corners.
    """

    def __init__(self, triangles: np.ndarray, *,
                 prism_points: Optional[np.ndarray] = None):
        tri = np.asarray(triangles, dtype=np.float64)
        if tri.ndim != 3 or tri.shape[1:] != (3, 3):
            raise GeometryError("triangles must be shaped (n, 3, 3)")
        self._tri = tri.view()
        self._tri.setflags(write=False)
        self._volume: Optional[float] = None
        self._prism_points = prism_points

    @property
    def triangles(self) -> np.ndarray:
        return self._tri

    def __len__(self) -> int:
        return len(self._tri)

    def volume(self) -> float:
        """Signed enclosed volume (divergence theorem), mm^3. ``validate``
        measures it; other callers measure it on first use."""
        if self._volume is None:
            self._volume = _signed_volume(self._tri)
        return self._volume

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        pts = self._tri.reshape(-1, 3)
        columns = [pts[:, c] for c in range(3)]
        return (np.array([c.min() for c in columns]),
                np.array([c.max() for c in columns]))

    def validate(self) -> tuple[np.ndarray, np.ndarray]:
        """Raise GeometryError unless the mesh is a closed, outward shell.

        In order: every coordinate lies within float32 range; no triangle's
        float64 area is at or below 1e-12 mm^2; with vertices welded as STL
        writes them (equal in float32), no triangle repeats a vertex and
        each directed edge occurs once, and so does its reverse; the
        float64 signed volume is positive. Only the weld reads float32.

        Returns the float64 edge cross product of each triangle, twice its
        area along its normal, and its norm, which ``export_stl`` turns
        into the normals.
        """
        tri = self._tri
        if len(tri) == 0:
            return np.empty((0, 3)), np.empty(0)
        points = self._prism_points
        # A recipe mesh's corners are copies of its prisms' points.
        _require_float32(tri if points is None else points)
        v0 = tri[:, 0]
        cross = _cross(tri[:, 1] - v0, tri[:, 2] - v0)
        norm = np.linalg.norm(cross, axis=1)
        small = 0.5 * norm <= _MIN_TRIANGLE_AREA_MM2
        if small.any():
            raise GeometryError(
                f"{int(small.sum())} degenerate triangle(s) below "
                f"{_MIN_TRIANGLE_AREA_MM2} mm^2")
        # When no two prism points weld, prisms share no point and each is
        # closed, so the corner check cannot fail.
        if points is None or _vertex_ids(points).max() < len(points):
            error = _shell_error(_vertex_ids(tri).reshape(-1, 3))
            if error is not None:
                raise GeometryError(error)
        self._volume = _signed_volume(tri)
        if not self._volume > 0:
            raise GeometryError("mesh volume is not positive (inside out?)")
        return cross, norm


def _shoelace(polygons: np.ndarray) -> np.ndarray:
    """Signed area of each (n, 2) polygon of a (P, n, 2) array; positive
    for counterclockwise winding."""
    nxt = np.roll(polygons, -1, axis=1)
    return (polygons[..., 0] * nxt[..., 1]
            - nxt[..., 0] * polygons[..., 1]).sum(axis=1) / 2.0


class Primitive(Record):
    """A batch of P polygons of n vertices, each extruded along one axis.

    ``polygons`` is shaped (P, n, 2), each polygon counterclockwise in the
    plane normal to ``axis`` ("z": coordinates are (x, y); "y": coordinates
    are (x, z)). Polygon p spans ``lo[p]`` to ``hi[p]`` along the axis; a
    scalar extent applies to every polygon. Caps fan from each polygon's
    first vertex, which must see all others: true for a convex section
    (box, rib, standoff, faceted cylinder) and the stepped slab's reflex
    corner.
    """

    polygons: np.ndarray
    axis: str
    lo: np.ndarray
    hi: np.ndarray

    # arrays have no single truth value: compare and hash by identity
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __post_init__(self):
        polygons = np.array(self.polygons, dtype=np.float64)
        if polygons.ndim != 3 or polygons.shape[2] != 2:
            raise GeometryError("polygons must be shaped (P, n, 2)")
        lo, hi = (np.array(np.broadcast_to(e, len(polygons)),
                           dtype=np.float64) for e in (self.lo, self.hi))
        for name, value in (("polygons", polygons), ("lo", lo), ("hi", hi)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        if self.axis not in ("y", "z"):
            raise GeometryError("extrusion axis must be 'y' or 'z'")
        if not (self.hi > self.lo).all():
            raise GeometryError("extrusion extent must be positive")
        _require_float32(self.polygons, self.lo, self.hi)
        if not (_shoelace(self.polygons) > 0).all():
            raise GeometryError("polygon must be counterclockwise")

    @property
    def volume_mm3(self) -> float:
        return float((_shoelace(self.polygons) * (self.hi - self.lo)).sum())


def _prism_faces(n: int, axis: str) -> np.ndarray:
    """Point indices of the triangles of one n-gon prism extruded along
    ``axis``, shaped (4n - 4, 3).

    Polygon vertex i is point i at lo and point n + i at hi. Each fan step
    gives a hi then a lo cap triangle; each side, two triangles.
    """
    j = np.arange(n)
    k, i = (j + 1) % n, j[1:-1]
    caps = np.array((0 * i + n, n + i, n + i + 1, 0 * i, i + 1, i)).T
    sides = np.array((j, k, n + k, j, n + k, n + j)).T
    faces = np.concatenate((caps, sides)).reshape(-1, 3)
    if axis == "y":
        faces = faces[:, ::-1]  # (x, z) -> (x, y, z) mirrors: rewind
    return faces


def _extrude(batch: Primitive) -> np.ndarray:
    """Points of a batch, shaped (P, 2n, 3): prism p's polygon vertex i is
    point (p, i) at lo and (p, n + i) at hi."""
    count, n = batch.polygons.shape[:2]
    # The extent fills coordinate e; the polygon's second coordinate, v.
    v, e = (1, 2) if batch.axis == "z" else (2, 1)
    pts = np.empty((count, 2, n, 3))
    pts[..., 0] = batch.polygons[:, None, :, 0]
    pts[..., v] = batch.polygons[:, None, :, 1]
    pts[:, 0, :, e] = batch.lo[:, None]
    pts[:, 1, :, e] = batch.hi[:, None]
    return pts.reshape(count, 2 * n, 3)


class SolidRecipe(Record):
    """Disjoint batches of prisms forming one printable part."""

    primitives: tuple[Primitive, ...]

    @property
    def analytic_volume_mm3(self) -> float:
        """Closed-form part volume (faceted, not circular, for cylinders)."""
        return sum(p.volume_mm3 for p in self.primitives)

    def mesh(self) -> TriangleMesh:
        """One array pass per batch; triangles keep the prisms' order."""
        if not self.primitives:
            return TriangleMesh(np.empty((0, 3, 3)))
        points = [_extrude(p) for p in self.primitives]
        blocks = [np.take(pts, _prism_faces(pts.shape[1] // 2, p.axis),
                          axis=1).reshape(-1, 3, 3)
                  for pts, p in zip(points, self.primitives)]
        return TriangleMesh(
            blocks[0] if len(blocks) == 1 else np.concatenate(blocks),
            prism_points=np.concatenate([pts.reshape(-1, 3)
                                         for pts in points]))


def _check_size(triangles: int) -> None:
    if triangles > MAX_PART_TRIANGLES:
        raise GeometryError(f"the part would have {triangles} triangles, "
                            f"more than {MAX_PART_TRIANGLES}")


def _rects(x0, x1, y0: float, y1: float) -> np.ndarray:
    """Counterclockwise rectangles [x0, x1] x [y0, y1], one per entry of
    the (P,) arrays ``x0`` and ``x1``: shaped (P, 4, 2)."""
    out = np.empty((len(x0), 4, 2))
    out[:, 0, 0] = out[:, 3, 0] = x0
    out[:, 1, 0] = out[:, 2, 0] = x1
    out[:, :2, 1], out[:, 2:, 1] = y0, y1
    return out


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
    plate = _rects([0.0], [length], 0.0, width)
    prims = [Primitive(plate, "z", 0.0, t_base)]
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
                prims = [Primitive(plate, "z", 0.0, z1)]
            else:
                # listed from its reflex corner, the cap fan's origin
                step = ((x1, t_base), (x1, z1), (0.0, z1), (0.0, 0.0),
                        (length, 0.0), (length, t_base))
                prims = [Primitive([step], "y", 0.0, width)]
        else:
            _check_size(12 * (1 + n))
            rib_w = ribs.width_ratio * period
            x0 = np.arange(n) * period + (period - rib_w) / 2
            prims.append(Primitive(_rects(x0, x0 + rib_w, 0.0, width), "z",
                                   t_base, z1))
    return SolidRecipe(tuple(prims))


def flexional_recipe(spec: FlexionalLimitSpec, count: int = 2,
                     facets: int = 16) -> SolidRecipe:
    """Mushroom pillars: faceted stem plus wider faceted disk head.

    Feature axes sit ``spacing`` apart along x. Head thickness and stem
    radius are printable realization choices, not jamming inputs; both are
    fixed at half the head radius. All spec lengths are meters (SI); the
    recipe is meshed in mm. One batch holds the features in order, each
    stem before its head.
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
    # (radius, lo, hi) of each feature's prisms, bottom up
    layers = np.array([(r_stem, 0.0, h), (r, h, h + t_head)] if h > 0
                      else [(r, h, h + t_head)])
    radius, lo, hi = (np.tile(c, count) for c in layers.T)
    cx = np.repeat(np.arange(count) * spacing, len(layers))
    # cosines and sines of the vertex angles 2 pi i / facets
    circle = np.array([(math.cos(2 * math.pi * i / facets),
                        math.sin(2 * math.pi * i / facets))
                       for i in range(facets)])
    polygons = np.empty((len(radius), facets, 2))
    polygons[..., 0] = cx[:, None] + radius[:, None] * circle[:, 0]
    polygons[..., 1] = 0.0 + radius[:, None] * circle[:, 1]
    return SolidRecipe((Primitive(polygons, "z", lo, hi),))


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
    pair, side = np.divmod(np.arange(count), 2)
    x0 = pair * pitch + side * pair_offset
    lean = np.where(side == 0, shear, -shear)
    polygons = np.empty((count, 4, 2))
    polygons[:, 0, 0] = x0
    polygons[:, 1, 0] = x0 + b
    polygons[:, 2, 0] = x0 + b + lean
    polygons[:, 3, 0] = x0 + lean
    polygons[:, :2, 1], polygons[:, 2:, 1] = 0.0, h1
    return SolidRecipe((Primitive(polygons, "y", 0.0, depth),))


# --------------------------------------------------------------------------
# Binary STL

def export_stl(mesh: TriangleMesh, destination) -> int:
    """Write the canonical binary STL layout; returns bytes written.

    80-byte header, little-endian uint32 triangle count, then per triangle
    12 float32 values (normal, 3 vertices) and a zero attribute word:
    exactly 84 + 50 * count bytes. Refuses invariant-violating meshes.
    """
    cross, norm = mesh.validate()
    header = f"flexokit {__version__} binary STL".encode("ascii")[:80]
    records = np.zeros(len(mesh), dtype=_STL_RECORD)
    records["normal"] = cross / norm[:, None]
    records["vertices"] = mesh.triangles
    with open(destination, "wb") as fh:
        fh.write(header.ljust(80, b" ") + struct.pack("<I", len(mesh)))
        fh.write(records)
    return 84 + records.nbytes

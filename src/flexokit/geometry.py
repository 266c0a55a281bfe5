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
import os
import struct
from typing import Optional

import numpy as np

from . import __version__
from ._record import Record
from .core import DEFAULT_FACETS, DEFAULT_FEATURES, FlexureSpec, check_part
from .errors import GeometryError
from .joint_limits import ExtensionalLimitSpec, FlexionalLimitSpec

_MIN_TRIANGLE_AREA_MM2 = 1e-12
M_TO_MM = 1000.0
# STL stores float32 vertices: a larger coordinate would be written as inf.
_FLOAT32_MAX = float(np.finfo(np.float32).max)
_STL_RECORD = np.dtype([("normal", "<f4", (3,)), ("vertices", "<f4", (3, 3)),
                        ("attribute", "<u2")])
# Most triangles validation and STL encoding gather at a time, as whole
# prisms; a prism with more spans several blocks. Of 1024-8192, 2048 kept a
# mesh-export round's peak memory lowest but for 1024, which was slower on
# parts of 10^4 triangles (2-vCPU Xeon, numpy 2.4).
_BLOCK_TRIANGLES = 2048
# The template of a bare triangle: not closed, so a mesh of bare triangles
# is always checked corner by corner.
_CORNERS = np.array([[0, 1, 2]])


def _require_float32(*arrays: np.ndarray) -> None:
    """Raise unless every value is finite and within the float32 range of
    STL, so that casting to float32 neither warns nor overflows."""
    for a in arrays:
        if a.size and not (-_FLOAT32_MAX <= a.min() and a.max() <= _FLOAT32_MAX):
            raise GeometryError(
                f"coordinates must lie within +/-{_FLOAT32_MAX:g} mm, the "
                "float32 range of STL")


def _cross(a, b) -> tuple:
    """Components of a x b from the components (x, y, z) of a and of b,
    bit for bit ``np.cross``: each is the difference of two separately
    rounded products."""
    (ax, ay, az), (bx, by, bz) = a, b
    return ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx


def _volume_terms(v0, v1, v2) -> np.ndarray:
    """Each triangle's term v0 . (v1 x v2) of six times the signed volume
    (divergence theorem), from the components of its corners. The products
    are added x, z, then y, as ``np.einsum("ij,ij->i")`` adds them on
    numpy 2, so that every ``volume_mm3`` keeps its recorded bits."""
    cx, cy, cz = _cross(v1, v2)
    x0, y0, z0 = v0
    return (x0 * cx + z0 * cz) + y0 * cy


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
    occurs once, and so does its reverse. Besides ``ids`` it holds the edge
    keys and their reverse, each sorted in place."""
    nxt = np.roll(ids, -1, axis=1)
    if (ids == nxt).any():
        return "triangle with repeated vertices"
    m = ids.size + 1
    keys = ids * m
    keys += nxt
    nxt *= m
    nxt += ids
    keys, reverse = keys.ravel(), nxt.ravel()
    keys.sort()
    reverse.sort()
    if (keys[1:] == keys[:-1]).any() or not np.array_equal(keys, reverse):
        return ("mesh is not watertight: an edge is not shared by exactly "
                "two consistently wound triangles")
    return None


class TriangleMesh:
    """Immutable triangle mesh in mm, held as batches of prisms: each batch
    is points shaped (P, m, 3) float64 and a face template shaped (F, 3)
    whose rows index a prism's points, one row per triangle. Triangles are
    ordered prism by prism, each prism's in template order.

    ``TriangleMesh(triangles)``, shaped (n, 3, 3), is one batch of n
    3-point prisms with the template [[0, 1, 2]]. A float64 array is held
    without a copy, through a read-only view; the caller's array stays
    writable, and must not be written while the mesh is in use.
    ``SolidRecipe.mesh`` hands over its batches' points and closed
    templates instead (``_of_prisms``). Validation, measuring and STL
    encoding gather triangles block by block (``_blocks``), so no array
    holds the whole part's triangles.
    """

    def __init__(self, triangles: np.ndarray):
        tri = np.asarray(triangles, dtype=np.float64)
        if tri.ndim != 3 or tri.shape[1:] != (3, 3):
            raise GeometryError("triangles must be shaped (n, 3, 3)")
        view = tri.view()
        view.setflags(write=False)
        self._hold([(view, _CORNERS)], closed=False)

    @classmethod
    def _of_prisms(cls, batches: list) -> "TriangleMesh":
        """A mesh of (points, template) batches whose every template is a
        closed shell in which every point is a corner."""
        mesh = cls.__new__(cls)
        mesh._hold(batches, closed=True)
        return mesh

    def _hold(self, batches: list, closed: bool) -> None:
        self._batches = batches
        self._closed = closed
        self._count = sum(len(pts) * len(faces) for pts, faces in batches)
        self._volume: Optional[float] = None

    @property
    def triangles(self) -> np.ndarray:
        """Every triangle, shaped (n, 3, 3): a bare mesh's own view, or an
        array gathered anew on each call."""
        if not self._closed:
            return self._batches[0][0]
        tri = np.concatenate([np.take(pts, faces, axis=1).reshape(-1, 3, 3)
                              for pts, faces in self._batches])
        tri.setflags(write=False)
        return tri

    def __len__(self) -> int:
        return self._count

    def _blocks(self):
        """(index of its first triangle, triangles shaped (B, 3, 3)) of each
        block, in mesh order, each gathered into an array of its own: whole
        prisms, across batches, of at most ``_BLOCK_TRIANGLES`` triangles,
        or runs of the template rows of one prism that has more."""
        start = size = 0
        block = np.empty((min(self._count, _BLOCK_TRIANGLES), 3, 3))
        for pts, faces in self._batches:
            rows, p = len(faces), 0
            while p < len(pts):
                k = min(len(pts) - p, (len(block) - size) // rows)
                if k:
                    # mode "raise" would buffer ``out``; no index is out of
                    # range to clip
                    np.take(pts[p:p + k], faces, axis=1, mode="clip",
                            out=block[size:size + k * rows].reshape(
                                k, rows, 3, 3))
                    size, p = size + k * rows, p + k
                elif size:
                    yield start, block[:size]
                    start, size = start + size, 0
                    block = np.empty((min(self._count - start,
                                          _BLOCK_TRIANGLES), 3, 3))
                else:
                    for f in range(0, rows, _BLOCK_TRIANGLES):
                        tri = np.take(pts[p], faces[f:f + _BLOCK_TRIANGLES],
                                      axis=0)
                        yield start, tri
                        start += len(tri)
                    p += 1
        if size:
            yield start, block[:size]

    def volume(self) -> float:
        """Signed enclosed volume (divergence theorem), mm^3. ``validate``
        measures it; other callers measure it on first use."""
        if self._volume is None:
            terms = np.empty(self._count)
            for start, tri in self._blocks():
                terms[start:start + len(tri)] = _volume_terms(
                    *(tri[:, i].T for i in range(3)))
            self._volume = float(terms.sum() / 6.0)
        return self._volume

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """(lowest, highest) coordinates. Every point is a corner of its
        template, so the points span the triangles' box."""
        columns = [[pts[..., c] for pts, _ in self._batches] for c in range(3)]
        return (np.array([min(col.min() for col in cols) for cols in columns]),
                np.array([max(col.max() for col in cols) for cols in columns]))

    def validate(self, stl=None) -> None:
        """Raise GeometryError unless the mesh is a closed, outward shell;
        with ``stl``, a binary file, also append each triangle's STL record.

        In order: every coordinate lies within float32 range; no triangle's
        float64 area is at or below 1e-12 mm^2; with vertices welded as STL
        writes them (equal in float32), no triangle repeats a vertex and
        each directed edge occurs once, and so does its reverse; the
        float64 signed volume is positive. Only the weld reads float32.

        One pass over ``_blocks`` takes each triangle's edge cross product
        (its normal and twice its area), counts the degenerate ones, keeps
        its volume term, and writes its record, until a block holds a
        degenerate triangle: a refused mesh's file is not to be kept. Then
        the points are welded once. When no two weld, the prisms share no
        point and each template is closed, so the edge check cannot fail
        and is skipped; otherwise it runs on every corner's weld id.
        """
        if not self._count:
            return
        batches = self._batches
        _require_float32(*(pts for pts, _ in batches))
        terms = np.empty(self._count)
        degenerate = 0
        if stl is not None:
            records = np.zeros(min(self._count, _BLOCK_TRIANGLES),
                               dtype=_STL_RECORD)
        for start, tri in self._blocks():
            # each corner's x, y and z over the block, as strided views
            v0, v1, v2 = (tri[:, i].T for i in range(3))
            cross = _cross([c - c0 for c, c0 in zip(v1, v0)],
                           [c - c0 for c, c0 in zip(v2, v0)])
            # np.linalg.norm(axis=1) of the rows: (x^2 + y^2) + z^2
            norm = np.sqrt(cross[0] * cross[0] + cross[1] * cross[1]
                           + cross[2] * cross[2])
            degenerate += int(np.count_nonzero(
                0.5 * norm <= _MIN_TRIANGLE_AREA_MM2))
            terms[start:start + len(tri)] = _volume_terms(v0, v1, v2)
            if stl is not None and not degenerate:
                block = records[:len(tri)]
                for axis, c in enumerate(cross):
                    block["normal"][:, axis] = c / norm
                block["vertices"] = tri
                stl.write(block)
        if degenerate:
            raise GeometryError(
                f"{degenerate} degenerate triangle(s) below "
                f"{_MIN_TRIANGLE_AREA_MM2} mm^2")
        ids = _vertex_ids(np.concatenate(
            [pts.reshape(-1, 3) for pts, _ in batches], dtype=np.float32))
        if not self._closed or ids.max() < len(ids):
            corners, at = [], 0
            for pts, faces in batches:
                size = pts.shape[0] * pts.shape[1]
                corners.append(ids[at:at + size].reshape(pts.shape[:2])
                               [:, faces].reshape(-1, 3))
                at += size
            error = _shell_error(np.concatenate(corners))
            if error is not None:
                raise GeometryError(error)
        self._volume = float(terms.sum() / 6.0)
        if not self._volume > 0:
            raise GeometryError("mesh volume is not positive (inside out?)")


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
        """Each batch's prism points with its face template, in order."""
        if not self.primitives:
            return TriangleMesh(np.empty((0, 3, 3)))
        return TriangleMesh._of_prisms([
            (_extrude(p), _prism_faces(p.polygons.shape[1], p.axis))
            for p in self.primitives])


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
    check_part("flexure", flex)
    length, width = flex.length_mm, flex.width_mm
    t_base = flex.base.printed_thickness_mm
    ribs = flex.ribs
    plate = _rects([0.0], [length], 0.0, width)
    prims = [Primitive(plate, "z", 0.0, t_base)]
    if ribs is not None and ribs.feature_height_mm > 0 and ribs.width_ratio > 0:
        period = ribs.period_mm
        n = flex.rib_count
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
            rib_w = ribs.width_ratio * period
            x0 = np.arange(n) * period + (period - rib_w) / 2
            prims.append(Primitive(_rects(x0, x0 + rib_w, 0.0, width), "z",
                                   t_base, z1))
    return SolidRecipe(tuple(prims))


def flexional_recipe(spec: FlexionalLimitSpec, count: int = DEFAULT_FEATURES,
                     facets: int = DEFAULT_FACETS) -> SolidRecipe:
    """Mushroom pillars: faceted stem plus wider faceted disk head.

    Feature axes sit ``spacing`` apart along x. Head thickness and stem
    radius are printable realization choices, not jamming inputs; both are
    fixed at half the head radius. All spec lengths are meters (SI); the
    recipe is meshed in mm. One batch holds the features in order, each
    stem before its head.
    """
    check_part("flexional", spec, count, facets)
    r = spec.head_radius * M_TO_MM
    h = spec.stem_height * M_TO_MM
    spacing = spec.spacing * M_TO_MM
    t_head = r_stem = r / 2
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


def extensional_recipe(spec: ExtensionalLimitSpec,
                       count: int = DEFAULT_FEATURES,
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
    check_part("extensional", spec, count)
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
    exactly 84 + 50 * count bytes. The records are written as the mesh is
    validated, in one pass; an invariant-violating mesh is refused and
    leaves no file at ``destination``.
    """
    header = f"flexokit {__version__} binary STL".encode("ascii")[:80]
    try:
        with open(destination, "wb") as fh:
            fh.write(header.ljust(80, b" ") + struct.pack("<I", len(mesh)))
            mesh.validate(fh)
    except GeometryError:
        os.remove(destination)
        raise
    return 84 + 50 * len(mesh)

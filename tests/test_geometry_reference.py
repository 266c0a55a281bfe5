"""The array geometry path against loop-based reference copies.

``loop_mesh``, ``dict_validate`` and ``struct_stl`` keep the element-by-
element meshing, validation and STL encoding that the array code replaced.
The array code must give the same triangles, the same pass/fail and
message, and the same bytes.
"""

import math
import re
import struct

import numpy as np
import pytest

from helpers import triangle_areas, unit_normals
from flexokit import __version__
from flexokit.core import DEFAULT_MATERIALS, FlexureSpec, LaminateStack, RibPattern
from flexokit.errors import GeometryError
from flexokit import geometry
from flexokit.geometry import (Primitive, SolidRecipe, TriangleMesh,
                               export_stl, extensional_recipe,
                               flexional_recipe, flexure_recipe)
from flexokit.joint_limits import ExtensionalLimitSpec, FlexionalLimitSpec

MM = 1e-3
PLA = DEFAULT_MATERIALS["PLA"]
PC = DEFAULT_MATERIALS["PC"]


# ------------------------------------------------------- reference copies

def loop_mesh(polygon, axis, lo, hi, fan_index=0):
    """Triangles of an extruded polygon, built one lifted vertex at a time;
    the cap fan starts at ``polygon[fan_index]``."""
    if axis == "z":
        lift = lambda px, py, e: (px, py, e)
    else:
        lift = lambda px, py, e: (px, e, py)
    poly = polygon[fan_index:] + polygon[:fan_index]
    n = len(poly)
    tris = []
    for i in range(1, n - 1):
        tris.append([lift(*poly[0], hi), lift(*poly[i], hi),
                     lift(*poly[i + 1], hi)])
        tris.append([lift(*poly[0], lo), lift(*poly[i + 1], lo),
                     lift(*poly[i], lo)])
    for i in range(n):
        (ax, ay), (bx, by) = poly[i], poly[(i + 1) % n]
        a0, b0 = lift(ax, ay, lo), lift(bx, by, lo)
        a1, b1 = lift(ax, ay, hi), lift(bx, by, hi)
        tris.append([a0, b0, b1])
        tris.append([a0, b1, a1])
    mesh = TriangleMesh(np.array(tris))
    if mesh.volume() < 0:
        mesh = TriangleMesh(mesh.triangles[:, ::-1, :])
    return mesh.triangles


def dict_validate(tri):
    """None if ``tri`` is a closed outward shell, else the message."""
    mesh = TriangleMesh(tri)
    if len(tri) == 0:
        return None
    small = triangle_areas(mesh.triangles) <= 1e-12
    if small.any():
        return f"{int(small.sum())} degenerate triangle(s) below 1e-12 mm^2"
    index = {}
    tri_ids = []
    for v in mesh.triangles.reshape(-1, 3):
        tri_ids.append(index.setdefault((v[0], v[1], v[2]), len(index)))
    directed = {}
    for t in range(len(tri)):
        a, b, c = tri_ids[3 * t: 3 * t + 3]
        if len({a, b, c}) != 3:
            return "triangle with repeated vertices"
        for e in ((a, b), (b, c), (c, a)):
            directed[e] = directed.get(e, 0) + 1
    for (a, b), n in directed.items():
        if n != 1 or directed.get((b, a), 0) != 1:
            return ("mesh is not watertight: an edge is not shared by "
                    "exactly two consistently wound triangles")
    if not mesh.volume() > 0:
        return "mesh volume is not positive (inside out?)"
    return None


def struct_stl(tri):
    """Binary STL bytes packed one struct record per triangle."""
    mesh = TriangleMesh(tri)
    header = f"flexokit {__version__} binary STL".encode("ascii")[:80]
    blob = bytearray(header.ljust(80, b" "))
    blob += struct.pack("<I", len(mesh))
    normals = unit_normals(mesh.triangles) if len(mesh) else np.empty((0, 3))
    for i in range(len(tri)):
        blob += struct.pack("<12f", *normals[i].astype(np.float32),
                            *mesh.triangles[i].reshape(9).astype(np.float32))
        blob += struct.pack("<H", 0)
    return bytes(blob)


def array_validate(tri):
    try:
        TriangleMesh(tri).validate()
    except GeometryError as exc:
        return str(exc)
    return None


def assert_same_export(tri, tmp_path):
    """Same verdict from both validators and, for a valid mesh, same bytes."""
    verdict = dict_validate(tri)
    assert array_validate(tri) == verdict
    out = tmp_path / "mesh.stl"
    if verdict is None:
        assert export_stl(TriangleMesh(tri), out) == len(struct_stl(tri))
        assert out.read_bytes() == struct_stl(tri)
    else:
        with pytest.raises(GeometryError, match=re.escape(verdict)):
            export_stl(TriangleMesh(tri), out)
        assert not out.exists()


# ------------------------------------------------------------ primitives

def random_convex_polygon(rng):
    """Counterclockwise points on a random ellipse at sorted random angles."""
    n = int(rng.integers(3, 40))
    angles = np.sort(rng.uniform(0.0, 2 * math.pi, n))
    if np.diff(np.r_[angles, angles[0] + 2 * math.pi]).min() < 1e-3:
        angles = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    cx, cy = rng.uniform(-50.0, 50.0, 2)
    rx, ry = rng.uniform(0.5, 20.0, 2)
    return tuple((float(cx + rx * math.cos(a)), float(cy + ry * math.sin(a)))
                 for a in angles)


@pytest.mark.parametrize("axis", ["z", "y"])
def test_random_convex_prisms_match_the_loop_mesh(axis, tmp_path):
    rng = np.random.default_rng(20191 if axis == "z" else 20192)
    for _ in range(60):
        polygon = random_convex_polygon(rng)
        lo = float(rng.uniform(-5.0, 5.0))
        hi = lo + float(rng.uniform(0.1, 10.0))
        tri = SolidRecipe((Primitive(polygon, axis, lo, hi),)).mesh().triangles
        assert np.array_equal(tri, loop_mesh(polygon, axis, lo, hi))
        assert_same_export(tri, tmp_path)


def recipes():
    """One recipe of every kind, the stepped slab included."""
    ribbed = lambda ratio, height, length=30.0, period=5.0: FlexureSpec(
        "f", length, 44.0, LaminateStack(((PC, 0.1), (PLA, 0.2))),
        RibPattern(period, ratio, height))
    flexional = FlexionalLimitSpec(6 * MM, 2 * MM, 4 * MM)
    extensional = ExtensionalLimitSpec(7 * MM, 5.4 * MM, 1.8 * MM, 2 * MM,
                                       math.radians(45.0))
    return {
        "plate": flexure_recipe(FlexureSpec(
            "plate", 12.0, 44.0, LaminateStack(((PLA, 0.3),)))),
        "ribs": flexure_recipe(ribbed(0.5, 1.0)),
        "flat ribs": flexure_recipe(ribbed(0.5, 0.0)),
        "flush slab": flexure_recipe(ribbed(1.0, 1.0, 12.0, 4.0)),
        "stepped slab": flexure_recipe(ribbed(1.0, 1.0, 13.0, 4.0)),
        "mushrooms": flexional_recipe(flexional),
        "tall mushrooms": flexional_recipe(flexional, count=3, facets=24),
        "stemless mushrooms": flexional_recipe(
            FlexionalLimitSpec(6 * MM, 2 * MM, 0.0), facets=9),
        "standoffs": extensional_recipe(extensional),
        "standoff row": extensional_recipe(extensional, count=5,
                                           width=20 * MM),
    }


@pytest.mark.parametrize("kind", sorted(recipes()))
def test_every_recipe_kind_matches_the_loop_mesh(kind, tmp_path):
    recipe = recipes()[kind]
    expected = np.concatenate([loop_mesh(p.polygon, p.axis, p.lo, p.hi)
                               for p in recipe.primitives])
    tri = recipe.mesh().triangles
    assert np.array_equal(tri, expected)
    assert_same_export(tri, tmp_path)


def test_stepped_slab_matches_the_rotated_fan_of_its_old_outline():
    # 13 mm part, 4 mm period: the slab stops 1 mm short of the plate end.
    flex = FlexureSpec("fused", 13.0, 44.0, LaminateStack(((PLA, 0.3),)),
                       RibPattern(4.0, 1.0, 1.0))
    (slab,) = flexure_recipe(flex).primitives
    outline = ((0.0, 0.0), (13.0, 0.0), (13.0, 0.3), (12.0, 0.3),
               (12.0, 1.3), (0.0, 1.3))
    assert np.array_equal(SolidRecipe((slab,)).mesh().triangles,
                          loop_mesh(outline, "y", 0.0, 44.0, fan_index=3))


def test_interleaved_runs_mesh_to_the_loop_mesh_of_each_primitive(tmp_path):
    # Vertex counts and axes change between neighbours, so the recipe is
    # meshed as five runs; the triangles must keep the primitives' order.
    box = lambda x0, z0: Primitive(
        ((x0, 0.0), (x0 + 2.0, 0.0), (x0 + 2.0, 3.0), (x0, 3.0)),
        "z", z0, z0 + 1.5)
    hexagon = tuple((20.0 + 2.0 * math.cos(a), 5.0 + 2.0 * math.sin(a))
                    for a in np.linspace(0.0, 2 * math.pi, 6, endpoint=False))
    slanted = ((30.0, 0.0), (33.0, 0.0), (34.0, 2.5), (31.0, 2.5))
    nonagon = tuple((50.0 + math.cos(a), 9.0 + 1.5 * math.sin(a))
                    for a in np.linspace(0.0, 2 * math.pi, 9, endpoint=False))
    recipe = SolidRecipe((
        box(0.0, 0.0), Primitive(hexagon, "y", 10.0, 14.0),
        box(4.0, -2.0), box(8.0, 0.5), Primitive(slanted, "y", -3.0, 1.0),
        Primitive(nonagon, "z", 2.0, 6.0)))
    expected = np.concatenate([loop_mesh(p.polygon, p.axis, p.lo, p.hi)
                               for p in recipe.primitives])
    tri = recipe.mesh().triangles
    assert np.array_equal(tri, expected)
    assert_same_export(tri, tmp_path)


# Infinite and NaN products make numpy warn in both implementations.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cross_is_bytewise_np_cross():
    rng = np.random.default_rng(1911)
    a, b = (rng.standard_normal((4000, 3)) * 10.0 ** rng.integers(
        -300, 300, (4000, 3)) for _ in range(2))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300])
    for arr in (a, b):
        hit = rng.random(arr.shape) < 0.2
        arr[hit] = rng.choice(special, int(hit.sum()))
    assert geometry._cross(a, b).tobytes() == np.cross(a, b).tobytes()
    assert geometry._cross(b, a).tobytes() == np.cross(b, a).tobytes()


# ------------------------------------------------------- corrupted meshes

def corruptions():
    box = SolidRecipe((Primitive(
        ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)), "z", 0.0, 1.0),
    )).mesh().triangles
    shell = flexional_recipe(FlexionalLimitSpec(6 * MM, 2 * MM, 4 * MM),
                             facets=12).mesh().triangles
    cases = {"intact box": box, "intact mushrooms": shell,
             "empty": np.empty((0, 3, 3))}
    for name, tri in (("box", box), ("mushrooms", shell)):
        cases[f"{name}: dropped triangle"] = np.delete(tri, 3, axis=0)
        flipped = tri.copy()
        flipped[5] = flipped[5, ::-1]
        cases[f"{name}: one flipped triangle"] = flipped
        cases[f"{name}: duplicated triangle"] = np.concatenate(
            (tri, tri[2:3]))
        moved = tri.copy()
        moved[4, 1, 0] = np.nextafter(moved[4, 1, 0], np.inf)
        cases[f"{name}: vertex moved by 1 ulp"] = moved
        repeated = tri.copy()
        repeated[6, 2] = repeated[6, 0]
        cases[f"{name}: repeated vertex"] = repeated
        cases[f"{name}: inside out"] = tri[:, ::-1].copy()
        nan = tri.copy()
        nan[7, 0, 1] = np.nan
        cases[f"{name}: NaN coordinate"] = nan
    # -0.0 against 0.0: the first triangle's zeros turn negative, the
    # other triangles keep positive zeros at the same corners.
    signed = box.copy()
    signed[0][signed[0] == 0.0] = -0.0
    cases["box: -0.0 against 0.0"] = signed
    # Two equal vertices at infinity have a NaN area, so only the
    # repeated-vertex check can reject the triangle.
    infinite = box.copy()
    infinite[0, 0] = infinite[0, 1] = (np.inf, 0.0, 0.0)
    cases["box: repeated vertex at infinity"] = infinite
    return cases


# Infinite and NaN coordinates make numpy warn while computing areas.
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("case", sorted(corruptions()))
def test_validation_and_bytes_match_the_dict_reference(case, tmp_path):
    tri = corruptions()[case]
    assert_same_export(tri, tmp_path)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_corruption_set_reaches_every_verdict():
    verdicts = {dict_validate(tri) for tri in corruptions().values()}
    assert None in verdicts
    assert "triangle with repeated vertices" in verdicts
    assert "mesh volume is not positive (inside out?)" in verdicts
    assert any(v and v.startswith("mesh is not watertight") for v in verdicts)
    assert any(v and "degenerate" in v for v in verdicts)

"""The array geometry path against loop-based reference copies.

``loop_flexure``, ``loop_flexional`` and ``loop_extensional`` build each
recipe's prisms one at a time; ``loop_mesh``, ``dict_validate`` and
``struct_stl`` keep the element-by-element meshing, validation and STL
encoding that the array code replaced. The array code must give the same
polygons and extents bit for bit, the same triangles, the same pass/fail
and message, and the same bytes.
"""

import math
import re
import struct

import numpy as np
import pytest

from helpers import triangle_areas, unit_normals
from flexokit import __version__
from flexokit.core import DEFAULT_MATERIALS, FlexureSpec, LaminateStack, RibPattern
from flexokit.errors import ContactAtRestError, GeometryError
from flexokit import geometry
from flexokit.geometry import (Primitive, SolidRecipe, TriangleMesh,
                               export_stl, extensional_recipe,
                               flexional_recipe, flexure_recipe)
from flexokit.joint_limits import ExtensionalLimitSpec, FlexionalLimitSpec

MM = 1e-3
PLA = DEFAULT_MATERIALS["PLA"]
PC = DEFAULT_MATERIALS["PC"]


# ------------------------------------------------------- reference copies

FLOAT32_MAX = float(np.finfo(np.float32).max)
FLOAT32_MESSAGE = (f"coordinates must lie within +/-{FLOAT32_MAX:g} mm, the "
                   "float32 range of STL")


def loop_rect(x0, x1, y0, y1):
    return ((x0, y0), (x1, y0), (x1, y1), (x0, y1))


def loop_ngon(cx, cy, radius, facets):
    return tuple((cx + radius * math.cos(2 * math.pi * i / facets),
                  cy + radius * math.sin(2 * math.pi * i / facets))
                 for i in range(facets))


def loop_flexure(flex):
    """(polygon, axis, lo, hi) of each prism of a flexure, rib by rib."""
    length, width = flex.length_mm, flex.width_mm
    t_base = flex.base.printed_thickness_mm
    plate = loop_rect(0.0, length, 0.0, width)
    ribs = flex.ribs
    if ribs is None or ribs.feature_height_mm <= 0 or ribs.width_ratio <= 0:
        return [(plate, "z", 0.0, t_base)]
    period = ribs.period_mm
    n = int(math.floor(length / period + 1e-9))
    z1 = t_base + ribs.feature_height_mm
    if ribs.width_ratio >= 1.0:
        x1 = n * period
        if x1 >= length - 1e-9 * period:
            return [(plate, "z", 0.0, z1)]
        return [(((x1, t_base), (x1, z1), (0.0, z1), (0.0, 0.0),
                  (length, 0.0), (length, t_base)), "y", 0.0, width)]
    prisms = [(plate, "z", 0.0, t_base)]
    rib_w = ribs.width_ratio * period
    for i in range(n):
        x0 = i * period + (period - rib_w) / 2
        prisms.append((loop_rect(x0, x0 + rib_w, 0.0, width), "z", t_base, z1))
    return prisms


def loop_flexional(spec, count=2, facets=16):
    """Each feature's stem (when it has one), then its head."""
    r, h = spec.head_radius * 1e3, spec.stem_height * 1e3
    spacing = spec.spacing * 1e3
    prisms = []
    for i in range(count):
        cx = i * spacing
        if h > 0:
            prisms.append((loop_ngon(cx, 0.0, r / 2, facets), "z", 0.0, h))
        prisms.append((loop_ngon(cx, 0.0, r, facets), "z", h, h + r / 2))
    return prisms


def loop_extensional(spec, count=2, width=None):
    """Standoffs in facing pairs, one sheared prism at a time."""
    L, b = spec.diagonal * 1e3, spec.base_width * 1e3
    r = spec.tip_radius * 1e3
    h1 = L * math.sin(spec.incline)
    shear = L * math.cos(spec.incline)
    depth = b if width is None else width * 1e3
    pair_offset = 4 * shear - 2 * r
    pitch = pair_offset + 2 * b
    prisms = []
    for i in range(count):
        pair, side = divmod(i, 2)
        x0 = pair * pitch + side * pair_offset
        lean = shear if side == 0 else -shear
        prisms.append((((x0, 0.0), (x0 + b, 0.0), (x0 + b + lean, h1),
                        (x0 + lean, h1)), "y", 0.0, depth))
    return prisms


def prisms(recipe):
    """(polygon, axis, lo, hi) of each row of a recipe's batches, in order,
    as Python tuples and floats."""
    return [(tuple(map(tuple, polygon)), batch.axis, lo, hi)
            for batch in recipe.primitives
            for polygon, lo, hi in zip(batch.polygons.tolist(),
                                       batch.lo.tolist(), batch.hi.tolist())]


def assert_same_prisms(recipe, expected):
    """The recipe's rows are ``expected``: the same axes, and polygons and
    extents equal bit for bit (-0.0 apart from 0.0)."""
    got = prisms(recipe)
    assert [p[1] for p in got] == [p[1] for p in expected]
    bits = lambda rows: [np.array(poly).tobytes() + np.array(lohi).tobytes()
                         for poly, _, *lohi in rows]
    assert bits(got) == bits(expected)


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
    """None if ``tri``, as STL writes it, is a closed outward shell, else
    the message."""
    mesh = TriangleMesh(tri)
    if len(tri) == 0:
        return None
    if not all(abs(c) <= FLOAT32_MAX for c in mesh.triangles.ravel()):
        return FLOAT32_MESSAGE
    small = triangle_areas(mesh.triangles) <= 1e-12
    if small.any():
        return f"{int(small.sum())} degenerate triangle(s) below 1e-12 mm^2"
    # Vertices are keyed on their float32 values, as written; a dict key
    # takes -0.0 == 0.0.
    index = {}
    tri_ids = []
    for v in mesh.triangles.reshape(-1, 3).astype(np.float32).tolist():
        tri_ids.append(index.setdefault(tuple(v), len(index)))
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
        tri = SolidRecipe((Primitive([polygon], axis, lo, hi),)).mesh(
        ).triangles
        assert np.array_equal(tri, loop_mesh(polygon, axis, lo, hi))
        assert_same_export(tri, tmp_path)


RECIPES = {flexure_recipe: loop_flexure, flexional_recipe: loop_flexional,
           extensional_recipe: loop_extensional}


def recipe_calls():
    """(recipe function, args, keyword args) of one recipe of every kind,
    the stepped slab included."""
    ribbed = lambda ratio, height, length=30.0, period=5.0: FlexureSpec(
        "f", length, 44.0, LaminateStack(((PC, 0.1), (PLA, 0.2))),
        RibPattern(period, ratio, height))
    flexional = FlexionalLimitSpec(6 * MM, 2 * MM, 4 * MM)
    extensional = ExtensionalLimitSpec(7 * MM, 5.4 * MM, 1.8 * MM, 2 * MM,
                                       math.radians(45.0))
    return {
        "plate": (flexure_recipe, (FlexureSpec(
            "plate", 12.0, 44.0, LaminateStack(((PLA, 0.3),))),), {}),
        "ribs": (flexure_recipe, (ribbed(0.5, 1.0),), {}),
        "flat ribs": (flexure_recipe, (ribbed(0.5, 0.0),), {}),
        "flush slab": (flexure_recipe, (ribbed(1.0, 1.0, 12.0, 4.0),), {}),
        "stepped slab": (flexure_recipe, (ribbed(1.0, 1.0, 13.0, 4.0),), {}),
        "mushrooms": (flexional_recipe, (flexional,), {}),
        "tall mushrooms": (flexional_recipe, (flexional,),
                           dict(count=3, facets=24)),
        "stemless mushrooms": (flexional_recipe, (
            FlexionalLimitSpec(6 * MM, 2 * MM, 0.0),), dict(facets=9)),
        "standoffs": (extensional_recipe, (extensional,), {}),
        "standoff row": (extensional_recipe, (extensional,),
                         dict(count=5, width=20 * MM)),
    }


def recipes():
    return {name: build(*args, **kwargs)
            for name, (build, args, kwargs) in recipe_calls().items()}


@pytest.mark.parametrize("kind", sorted(recipes()))
def test_every_recipe_kind_matches_the_loop_mesh(kind, tmp_path):
    build, args, kwargs = recipe_calls()[kind]
    recipe = build(*args, **kwargs)
    assert_same_prisms(recipe, RECIPES[build](*args, **kwargs))
    expected = np.concatenate([loop_mesh(*prism) for prism in prisms(recipe)])
    tri = recipe.mesh().triangles
    assert np.array_equal(tri, expected)
    assert_same_export(tri, tmp_path)


def random_recipe_calls(rng, n):
    """``n`` seeded calls of each recipe kind, over ribbed, fused,
    stemless and standoff-row shapes and awkward float lengths."""
    u = lambda lo, hi: float(rng.uniform(lo, hi))
    calls = []
    for _ in range(n):
        ratio = float(rng.choice([u(0.05, 0.95), 1.0, u(0.05, 0.95)]))
        period = u(0.3, 7.0)
        flex = FlexureSpec("f", period * u(1.0, 12.0), u(1.0, 50.0),
                           LaminateStack(((PC, 0.1), (PLA, u(0.05, 1.0)))),
                           RibPattern(period, ratio, u(0.0, 3.0)))
        calls.append((flexure_recipe, (flex,), {}))
        radius = u(0.2, 3.0) * MM
        stem = float(rng.choice([0.0, u(0.1, 8.0)])) * MM
        calls.append((flexional_recipe, (FlexionalLimitSpec(
            2 * radius * u(1.01, 4.0), radius, stem),), dict(
                count=int(rng.integers(2, 9)),
                facets=int(rng.integers(8, 70)))))
        spec = ExtensionalLimitSpec(u(4.0, 10.0) * MM, u(3.0, 7.0) * MM,
                                    u(0.5, 2.5) * MM, u(1.0, 3.0) * MM,
                                    math.radians(u(20.0, 70.0)))
        width = float(rng.choice([0.0, u(1.0, 30.0)])) * MM or None
        calls.append((extensional_recipe, (spec,), dict(
            count=int(rng.integers(2, 12)), width=width)))
    return calls


def test_random_recipes_match_the_loop_recipes():
    rng = np.random.default_rng(20261018)
    built = 0
    for build, args, kwargs in random_recipe_calls(rng, 40):
        try:
            recipe = build(*args, **kwargs)
        except ContactAtRestError:
            continue
        assert_same_prisms(recipe, RECIPES[build](*args, **kwargs))
        built += 1
    assert built >= 100


def test_stepped_slab_matches_the_rotated_fan_of_its_old_outline():
    # 13 mm part, 4 mm period: the slab stops 1 mm short of the plate end.
    flex = FlexureSpec("fused", 13.0, 44.0, LaminateStack(((PLA, 0.3),)),
                       RibPattern(4.0, 1.0, 1.0))
    (slab,) = flexure_recipe(flex).primitives
    assert len(slab.polygons) == 1
    outline = ((0.0, 0.0), (13.0, 0.0), (13.0, 0.3), (12.0, 0.3),
               (12.0, 1.3), (0.0, 1.3))
    assert np.array_equal(SolidRecipe((slab,)).mesh().triangles,
                          loop_mesh(outline, "y", 0.0, 44.0, fan_index=3))


def test_interleaved_runs_mesh_to_the_loop_mesh_of_each_primitive(tmp_path):
    # Vertex counts and axes change between neighbours, and one batch holds
    # two boxes; the triangles must keep the prisms' order.
    box = lambda x0, z0: (
        ((x0, 0.0), (x0 + 2.0, 0.0), (x0 + 2.0, 3.0), (x0, 3.0)),
        "z", z0, z0 + 1.5)
    hexagon = tuple((20.0 + 2.0 * math.cos(a), 5.0 + 2.0 * math.sin(a))
                    for a in np.linspace(0.0, 2 * math.pi, 6, endpoint=False))
    slanted = ((30.0, 0.0), (33.0, 0.0), (34.0, 2.5), (31.0, 2.5))
    nonagon = tuple((50.0 + math.cos(a), 9.0 + 1.5 * math.sin(a))
                    for a in np.linspace(0.0, 2 * math.pi, 9, endpoint=False))
    rows = [box(0.0, 0.0), (hexagon, "y", 10.0, 14.0), box(4.0, -2.0),
            box(8.0, 0.5), (slanted, "y", -3.0, 1.0),
            (nonagon, "z", 2.0, 6.0)]
    single = lambda poly, axis, lo, hi: Primitive([poly], axis, lo, hi)
    pair = Primitive([rows[2][0], rows[3][0]], "z", [-2.0, 0.5], [-0.5, 2.0])
    recipe = SolidRecipe((single(*rows[0]), single(*rows[1]), pair,
                          single(*rows[4]), single(*rows[5])))
    assert_same_prisms(recipe, rows)
    expected = np.concatenate([loop_mesh(*row) for row in rows])
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
        [((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))], "z", 0.0, 1.0),
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
        # One float64 ulp keeps the written float32 vertex: still closed.
        moved = tri.copy()
        moved[4, 1, 0] = np.nextafter(moved[4, 1, 0], np.inf)
        cases[f"{name}: vertex moved by 1 ulp"] = moved
        moved = tri.copy()
        moved[4, 1, 0] = np.nextafter(np.float32(moved[4, 1, 0]),
                                      np.float32(np.inf))
        cases[f"{name}: vertex moved by 1 float32 ulp"] = moved
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
    # Two equal vertices at infinity would have a NaN area; the float32
    # bound refuses them first.
    infinite = box.copy()
    infinite[0, 0] = infinite[0, 1] = (np.inf, 0.0, 0.0)
    cases["box: repeated vertex at infinity"] = infinite
    beyond = box.copy()
    beyond[3, 2, 1] = 1e39
    cases["box: vertex beyond float32"] = beyond
    # At x = 1e8 float32 steps are 8 mm: the box's two x values, 1 mm
    # apart in float64, are written as one, so its caps collapse.
    collapsed = box + (1e8, 0.0, 0.0)
    cases["box: two float64 vertices written as one float32"] = collapsed
    return cases


@pytest.mark.parametrize("case", sorted(corruptions()))
def test_validation_and_bytes_match_the_dict_reference(case, tmp_path):
    tri = corruptions()[case]
    assert_same_export(tri, tmp_path)


def test_corruption_set_reaches_every_verdict():
    cases = corruptions()
    verdicts = {dict_validate(tri) for tri in cases.values()}
    assert None in verdicts
    assert FLOAT32_MESSAGE in verdicts
    assert dict_validate(cases["box: vertex moved by 1 ulp"]) is None
    assert dict_validate(
        cases["box: two float64 vertices written as one float32"]) == \
        "triangle with repeated vertices"
    assert "triangle with repeated vertices" in verdicts
    assert "mesh volume is not positive (inside out?)" in verdicts
    assert any(v and v.startswith("mesh is not watertight") for v in verdicts)
    assert any(v and "degenerate" in v for v in verdicts)

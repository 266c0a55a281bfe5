"""Solid recipes, mesh invariants, and the binary STL encoder."""

import math
import struct

import numpy as np
import pytest

from helpers import read_stl, regular_polygon_area, unit_normals
from flexokit.core import DEFAULT_MATERIALS, FlexureSpec, LaminateStack, RibPattern
from flexokit.errors import AlwaysJammedError, GeometryError
from flexokit.geometry import (Primitive, SolidRecipe, TriangleMesh,
                               export_stl, extensional_recipe,
                               flexional_recipe, flexure_recipe)
from flexokit.joint_limits import ExtensionalLimitSpec, FlexionalLimitSpec

MM = 1e-3
PLA = DEFAULT_MATERIALS["PLA"]
PC = DEFAULT_MATERIALS["PC"]


def plate_flexure():
    return FlexureSpec("plate", 12.0, 44.0, LaminateStack(((PLA, 0.3),)))


def ribbed_flexure(width_ratio=0.5, height=1.0):
    return FlexureSpec("ribbed", 30.0, 44.0,
                       LaminateStack(((PC, 0.1), (PLA, 0.2))),
                       RibPattern(5.0, width_ratio, height))


def prisms(recipe):
    """(axis, lo, hi) of every prism of a recipe, batch by batch."""
    return [(p.axis, lo, hi) for p in recipe.primitives
            for lo, hi in zip(p.lo.tolist(), p.hi.tolist())]


# ----------------------------------------------------------------- flexures

def test_plain_plate_is_a_single_box():
    recipe = flexure_recipe(plate_flexure())
    mesh = recipe.mesh()
    mesh.validate()
    assert len(mesh) == 12
    assert recipe.analytic_volume_mm3 == pytest.approx(12 * 44 * 0.3, rel=1e-12)
    assert mesh.volume() == pytest.approx(recipe.analytic_volume_mm3, rel=1e-12)
    lo, hi = mesh.bounding_box()
    np.testing.assert_allclose(lo, [0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(hi, [12.0, 44.0, 0.3], atol=1e-15)


def test_film_layer_is_never_meshed():
    with_film = FlexureSpec("f", 12.0, 44.0,
                            LaminateStack(((PC, 0.5), (PLA, 0.3))))
    mesh = flexure_recipe(with_film).mesh()
    mesh.validate()
    lo, hi = mesh.bounding_box()
    # printed plate only: 0.3 mm tall regardless of the film underneath
    assert hi[2] == pytest.approx(0.3, rel=1e-12)
    assert mesh.volume() == pytest.approx(12 * 44 * 0.3, rel=1e-12)
    film_only = FlexureSpec("film", 12.0, 44.0, LaminateStack(((PC, 0.5),)))
    with pytest.raises(GeometryError, match="nothing to print"):
        flexure_recipe(film_only)


def test_ribbed_flexure_centers_one_rib_per_period():
    recipe = flexure_recipe(ribbed_flexure())
    mesh = recipe.mesh()
    mesh.validate()
    plate, ribs = recipe.primitives
    assert plate.lo.tolist() == [0.0] and (ribs.lo > 0).all()  # above it
    assert len(ribs.polygons) == 6
    assert len(mesh) == 12 * 7
    hand = 30 * 44 * 0.2 + 6 * (2.5 * 44 * 1.0)
    assert recipe.analytic_volume_mm3 == pytest.approx(hand, rel=1e-12)
    assert mesh.volume() == pytest.approx(hand, rel=1e-12)
    # first rib centered in [0, 5): spans [1.25, 3.75] in x
    xs = set(ribs.polygons[0, :, 0].tolist())
    assert xs == {1.25, 3.75}
    assert ribs.lo[0] == pytest.approx(0.2) and ribs.hi[0] == pytest.approx(1.2)


def test_zero_size_rib_patterns_degenerate_to_the_plate():
    for plate in (flexure_recipe(ribbed_flexure(height=0.0)),
                  flexure_recipe(ribbed_flexure(width_ratio=0.0))):
        assert prisms(plate) == [("z", 0.0, 0.2)]


def test_fused_ribs_mesh_as_one_stepped_prism():
    # 13 mm part with 4 mm period: three full periods and a 1 mm remainder
    flex = FlexureSpec("fused", 13.0, 44.0, LaminateStack(((PLA, 0.3),)),
                       RibPattern(4.0, 1.0, 1.0))
    recipe = flexure_recipe(flex)
    # one prism extruded across the width
    assert prisms(recipe) == [("y", 0.0, 44.0)]
    mesh = recipe.mesh()
    mesh.validate()
    assert len(mesh) == 20  # hexagonal cross-section prism
    hand = 13 * 44 * 0.3 + 12 * 44 * 1.0
    assert mesh.volume() == pytest.approx(hand, rel=1e-12)
    assert recipe.analytic_volume_mm3 == pytest.approx(hand, rel=1e-12)

    # periods dividing the length exactly produce a plain box
    flush = FlexureSpec("flush", 12.0, 44.0, LaminateStack(((PLA, 0.3),)),
                        RibPattern(4.0, 1.0, 1.0))
    recipe = flexure_recipe(flush)
    mesh = recipe.mesh()
    mesh.validate()
    assert len(mesh) == 12
    assert mesh.volume() == pytest.approx(12 * 44 * 1.3, rel=1e-12)


# ----------------------------------------------------- jamming feature parts

def test_mushroom_pair_matches_faceted_volume():
    spec = FlexionalLimitSpec(6 * MM, 2 * MM, 4 * MM)
    recipe = flexional_recipe(spec)
    mesh = recipe.mesh()
    mesh.validate()
    hand = 2 * (regular_polygon_area(1.0, 16) * 4.0
                + regular_polygon_area(2.0, 16) * 1.0)
    assert recipe.analytic_volume_mm3 == pytest.approx(hand, rel=1e-12)
    assert mesh.volume() == pytest.approx(hand, rel=1e-9)
    lo, hi = mesh.bounding_box()
    assert lo[2] == 0.0
    assert hi[2] == pytest.approx(5.0, rel=1e-12)  # stem 4 + head 2/2
    # head centers sit one spacing apart
    assert hi[0] - lo[0] == pytest.approx(6.0 + 4.0, rel=1e-12)


def test_mushroom_realization_options():
    spec = FlexionalLimitSpec(6 * MM, 2 * MM, 4 * MM)
    tall = flexional_recipe(spec, count=3, facets=24)
    mesh = tall.mesh()
    mesh.validate()
    assert len(prisms(tall)) == 6
    hand = 3 * (regular_polygon_area(1.0, 24) * 4.0
                + regular_polygon_area(2.0, 24) * 1.0)
    assert tall.analytic_volume_mm3 == pytest.approx(hand, rel=1e-12)
    flat = flexional_recipe(FlexionalLimitSpec(6 * MM, 2 * MM, 0.0))
    # no stems: two heads, each r / 2 thick from the base
    assert prisms(flat) == [("z", 0.0, 1.0), ("z", 0.0, 1.0)]
    flat.mesh().validate()


def test_mushroom_recipe_rejects_bad_requests():
    spec = FlexionalLimitSpec(6 * MM, 2 * MM, 4 * MM)
    with pytest.raises(GeometryError):
        flexional_recipe(spec, count=1)
    with pytest.raises(GeometryError):
        flexional_recipe(spec, facets=6)
    with pytest.raises(AlwaysJammedError):
        flexional_recipe(FlexionalLimitSpec(3.9 * MM, 2 * MM, 4 * MM))


def test_standoff_pair_reproduces_the_rest_gap():
    spec = ExtensionalLimitSpec(7 * MM, 5.4 * MM, 1.8 * MM, 2 * MM,
                                math.radians(45.0))
    recipe = extensional_recipe(spec)
    mesh = recipe.mesh()
    mesh.validate()
    shear = 7.0 * math.cos(math.radians(45.0))
    h1 = 7.0 * math.sin(math.radians(45.0))
    # facing top edges: right edge of the left prism, left edge of the right
    tips = sorted(x for p in recipe.primitives
                  for (x, z) in p.polygons.reshape(-1, 2).tolist() if z > 0)
    gap = tips[2] - tips[1]
    assert gap == pytest.approx(spec.rest_gap / MM, abs=1e-9)
    lo, hi = mesh.bounding_box()
    assert hi[2] == pytest.approx(h1, rel=1e-12)
    assert hi[1] == pytest.approx(5.4, rel=1e-12)  # default depth = base width
    volume = 2 * (5.4 * h1) * 5.4  # parallelogram area x depth
    assert mesh.volume() == pytest.approx(volume, rel=1e-9)


def test_standoff_row_counts_and_width_override():
    spec = ExtensionalLimitSpec(7 * MM, 5.4 * MM, 1.8 * MM, 2 * MM,
                                math.radians(45.0))
    recipe = extensional_recipe(spec, count=5, width=20 * MM)
    mesh = recipe.mesh()
    mesh.validate()
    assert len(prisms(recipe)) == 5
    _, hi = mesh.bounding_box()
    assert hi[1] == pytest.approx(20.0, rel=1e-12)
    with pytest.raises(GeometryError):
        extensional_recipe(spec, count=1)
    from flexokit.errors import ContactAtRestError
    with pytest.raises(ContactAtRestError):
        extensional_recipe(ExtensionalLimitSpec(6 * MM, 5.4 * MM, 1.8 * MM,
                                                2 * MM, math.radians(45.0)))


# ------------------------------------------------------------ mesh plumbing

def test_mesh_validation_catches_open_and_inverted_shells():
    box = SolidRecipe((Primitive(
        [((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))], "z", 0.0, 1.0),
    )).mesh()
    box.validate()
    open_shell = TriangleMesh(box.triangles[:-1])
    with pytest.raises(GeometryError, match="watertight"):
        open_shell.validate()
    inverted = TriangleMesh(box.triangles[:, ::-1, :])
    with pytest.raises(GeometryError):
        inverted.validate()
    degenerate = np.zeros((1, 3, 3))
    with pytest.raises(GeometryError, match="degenerate"):
        TriangleMesh(degenerate).validate()


def test_mesh_normals_are_unit_and_outward():
    mesh = flexure_recipe(plate_flexure()).mesh()
    mesh.validate()
    norms = np.linalg.norm(unit_normals(mesh.triangles), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    # divergence-theorem volume is positive for outward orientation
    assert mesh.volume() > 0


def test_primitives_reject_bad_polygons():
    ccw, cw = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)), \
        ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0))
    Primitive([ccw, ccw], "z", [0.0, 1.0], [1.0, 2.0])
    # one bad row refuses the whole batch
    with pytest.raises(GeometryError, match="counterclockwise"):
        Primitive([ccw, cw], "z", 0.0, 1.0)
    with pytest.raises(GeometryError, match="extent must be positive"):
        Primitive([ccw, ccw], "z", [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(GeometryError, match="axis"):
        Primitive([ccw], "x", 0.0, 1.0)
    with pytest.raises(GeometryError, match=r"\(P, n, 2\)"):
        Primitive(ccw, "z", 0.0, 1.0)
    # a batch's arrays are its own, and read-only
    polygons = np.array([ccw])
    batch = Primitive(polygons, "z", 0.0, 1.0)
    polygons[0, 0, 0] = 0.5
    assert batch.polygons[0, 0, 0] == 0.0
    assert not batch.polygons.flags.writeable
    assert batch.lo.tolist() == [0.0] and not batch.hi.flags.writeable


def test_recipes_reject_coordinates_beyond_float32(tmp_path):
    with pytest.raises(GeometryError, match="float32 range"):
        flexure_recipe(ribbed_flexure(height=1e300))
    # its far heads collapse to zero area: the bound comes before winding
    with pytest.raises(GeometryError, match="float32 range"):
        flexional_recipe(FlexionalLimitSpec(1e297, 2 * MM, 4 * MM))
    clockwise = ((0.0, 0.0), (0.0, 1.0), (1e39, 0.0))
    with pytest.raises(GeometryError, match="float32 range"):
        Primitive([clockwise], "z", 0.0, 1.0)
    with pytest.raises(GeometryError, match="float32 range"):
        Primitive([((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))], "z", 0.0,
                  [math.inf])
    # the largest float32 still makes a finite STL
    top = float(np.finfo(np.float32).max)
    box = Primitive([((0.0, 0.0), (top, 0.0), (top, 1.0), (0.0, 1.0))],
                    "z", 0.0, 1.0)
    export_stl(SolidRecipe((box,)).mesh(), tmp_path / "box.stl")
    _, normals, tris, _ = read_stl(tmp_path / "box.stl")
    assert np.isfinite(normals).all() and np.isfinite(tris).all()


def test_concatenate_and_empty_mesh():
    nothing = SolidRecipe(())
    empty = nothing.mesh()
    assert len(empty) == 0
    empty.validate()  # vacuously closed
    plate = flexure_recipe(plate_flexure())
    a = plate.mesh()
    combined = SolidRecipe(plate.primitives + nothing.primitives).mesh()
    assert len(combined) == len(a)


# -------------------------------------------------------------- STL encoder

def test_stl_byte_layout(tmp_path):
    mesh = flexure_recipe(plate_flexure()).mesh()
    out = tmp_path / "plate.stl"
    written = export_stl(mesh, out)
    assert written == 84 + 50 * len(mesh)
    assert out.stat().st_size == written
    header, normals, tris, attrs = read_stl(out)
    assert header.startswith(b"flexokit ")
    assert header.endswith(b" ")  # space padded to 80 bytes
    assert len(tris) == len(mesh)
    assert all(a == 0 for a in attrs)


def test_stl_round_trips_bit_exactly(tmp_path):
    mesh = extensional_recipe(ExtensionalLimitSpec(
        7 * MM, 5.4 * MM, 1.8 * MM, 2 * MM, math.radians(45.0))).mesh()
    out = tmp_path / "standoffs.stl"
    export_stl(mesh, out)
    _, normals, tris, _ = read_stl(out)
    assert np.array_equal(tris, mesh.triangles.astype(np.float32))
    assert np.array_equal(normals,
                          unit_normals(mesh.triangles).astype(np.float32))
    # identical input produces identical bytes
    again = tmp_path / "standoffs2.stl"
    export_stl(mesh, again)
    assert again.read_bytes() == out.read_bytes()


def test_stl_of_empty_mesh_is_header_only(tmp_path):
    out = tmp_path / "empty.stl"
    written = export_stl(SolidRecipe(()).mesh(), out)
    assert written == 84
    blob = out.read_bytes()
    assert struct.unpack_from("<I", blob, 80) == (0,)


def test_stl_export_refuses_broken_meshes(tmp_path):
    mesh = flexional_recipe(FlexionalLimitSpec(6 * MM, 2 * MM, 4 * MM)).mesh()
    broken = TriangleMesh(mesh.triangles[:-1])
    with pytest.raises(GeometryError):
        export_stl(broken, tmp_path / "broken.stl")
    assert not (tmp_path / "broken.stl").exists()

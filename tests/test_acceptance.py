"""Whole-system checks, one per advertised capability.

Each test here locks an end-to-end guarantee at its stated tolerance:
jam-angle prediction against independently recomputed references, inverse
solvers that round-trip randomized designs, the homogenized stiffness model
against the exact profile integral, tendon equilibrium against brute-force
energy minimization, stroke behavior of the bundled hind leg, the trot
speed law, watertight byte-exact geometry export, and process validation
with byte-stable command-line outputs.
"""

import json
import math
from importlib import resources

import numpy as np
import pytest

from helpers import (elastic_energy, grid_search_two_joint, jam_event_pulls,
                     random_limb, read_stl, si_limb, tendon_work,
                     unit_normals)
from flexokit.cli import main
from flexokit.core import (DEFAULT_MATERIALS, FlexureSpec, GaitEntry,
                           LaminateStack, PrintProcessConfig, RibPattern,
                           validate_process)
from flexokit.gait_sim import body_speed
from flexokit.geometry import (export_stl, extensional_recipe,
                               flexional_recipe, flexure_recipe)
from flexokit.joint_limits import (ExtensionalLimitSpec, FlexionalLimitSpec,
                                   extensional_inverse, extensional_jam_angle,
                                   flexional_inverse, flexional_jam_angle)
from flexokit.limb_sim import (equilibrium_solve, limb_from_document,
                               sweep_cycle)
from flexokit.stiffness import (homogenized_EI, plateau_stiffness,
                                solve_feature_height, solve_width_ratio,
                                tip_stiffness_exact)

MM = 1e-3

# Jam angles recomputed outside the package with 300-iteration bisection
# (flexional) and the closed-form gap ratio (extensional), both on the
# reference feature dimensions D = 6 mm, r = 2 mm and b = 5.4 mm,
# r = 1.8 mm, h = 2 mm, gamma = 45 deg.
FLEXIONAL_REFERENCE = {
    4.0: 0.4899282978480517,
    6.0: 0.33029328390713764,
    8.0: 0.2487090011132443,
    10.0: 0.1993369778344442,
    12.0: 0.16628233155107552,
}
EXTENSIONAL_REFERENCE = {
    6.50: 0.029166539546670835,
    6.75: 0.08060592084554838,
    7.00: 0.1294284347328867,
    7.25: 0.1758288189921077,
    7.50: 0.21998295686265767,
}


def doc_path(name: str) -> str:
    return str(resources.files("flexokit") / "data" / name)


def with_ribs(template, **changes):
    return template.replace(ribs=template.ribs.replace(**changes))


def random_template(rng) -> FlexureSpec:
    """A composite flexure with a meaningful rib contrast."""
    stack = LaminateStack(((DEFAULT_MATERIALS["PC"],
                            float(rng.uniform(0.05, 0.2))),
                           (DEFAULT_MATERIALS["PLA"],
                            float(rng.uniform(0.15, 0.5)))))
    ribs = RibPattern(float(rng.uniform(0.8, 6.0)),
                      float(rng.uniform(0.1, 0.9)),
                      float(rng.uniform(0.2, 3.0)))
    return FlexureSpec("probe", float(rng.uniform(8.0, 40.0)),
                       float(rng.uniform(20.0, 80.0)), stack, ribs)


def test_jam_angle_predictions_match_independent_references():
    flexional = []
    for h_mm, expected in sorted(FLEXIONAL_REFERENCE.items()):
        spec = FlexionalLimitSpec(6.0 * MM, 2.0 * MM, h_mm * MM)
        angle = flexional_jam_angle(spec)
        assert angle == pytest.approx(expected, rel=1e-9)
        residual = angle * (spec.stem_height
                            + spec.head_radius / math.sin(angle / 2))
        assert abs(residual - spec.spacing) < 1e-10
        flexional.append(angle)
    # taller stems jam earlier
    assert all(b < a for a, b in zip(flexional, flexional[1:]))

    extensional = []
    for d_mm, expected in sorted(EXTENSIONAL_REFERENCE.items()):
        spec = ExtensionalLimitSpec(d_mm * MM, 5.4 * MM, 1.8 * MM, 2.0 * MM,
                                    math.radians(45.0))
        angle = extensional_jam_angle(spec)
        assert angle == pytest.approx(expected, rel=1e-9)
        extensional.append(angle)
    # longer standoff diagonals open the gap and raise the jam angle
    assert all(b > a for a, b in zip(extensional, extensional[1:]))


def test_inverse_solvers_round_trip_randomized_designs_to_1e6():
    rng = np.random.default_rng(20260815)

    for _ in range(1000):
        r = float(rng.uniform(0.5, 8.0)) * MM
        h = float(rng.uniform(0.5, 20.0)) * MM
        lo, hi = 2.0 * r, 0.95 * math.pi * (h + r)
        d = lo + float(rng.uniform(0.02, 0.98)) * (hi - lo)
        angle = flexional_jam_angle(FlexionalLimitSpec(d, r, h))
        assert flexional_inverse(angle, r, d) == pytest.approx(h, rel=1e-6)

    for _ in range(1000):
        b = float(rng.uniform(2.0, 10.0)) * MM
        r = float(rng.uniform(0.3, 3.0)) * MM
        h = float(rng.uniform(0.5, 5.0)) * MM
        gamma = math.radians(float(rng.uniform(15.0, 75.0)))
        d = (b + 2 * r) / (2 * math.cos(gamma)) * float(rng.uniform(1.02, 3.0))
        spec = ExtensionalLimitSpec(d, b, r, h, gamma)
        angle = extensional_jam_angle(spec)
        assert extensional_inverse(angle, b, r, h, gamma) == \
            pytest.approx(d, rel=1e-6)

    for _ in range(1000):
        template = random_template(rng)
        w_true = float(rng.uniform(0.02, 0.98))
        target = homogenized_EI(with_ribs(template,
                                          width_ratio=w_true)).k_tip
        assert solve_width_ratio(target, template) == \
            pytest.approx(w_true, rel=1e-6)

    for _ in range(1000):
        template = random_template(rng)
        plateau = plateau_stiffness(template)
        while True:
            t_true = float(rng.uniform(0.05, 5.0))
            target = homogenized_EI(
                with_ribs(template, feature_height_mm=t_true)).k_tip
            # heights this close to the rib-dominated plateau are not
            # recoverable from a stiffness measurement at any precision
            if (plateau - target) / plateau >= 1e-3:
                break
        solved = solve_feature_height(target, template)
        assert solved / MM == pytest.approx(t_true, rel=1e-6)


def test_homogenized_stiffness_tracks_exact_profile_and_plateau(
        ribbed_template):
    for period_mm in (1.5, 1.0, 0.5):        # 20 to 60 periods over 30 mm
        flex = with_ribs(ribbed_template, period_mm=period_mm)
        hom = homogenized_EI(flex).k_tip
        exact = tip_stiffness_exact(flex)
        assert abs(hom - exact) / exact <= 0.005

    widths = [homogenized_EI(with_ribs(ribbed_template,
                                       width_ratio=i / 10)).k_tip
              for i in range(11)]
    assert all(b > a for a, b in zip(widths, widths[1:]))
    heights = [homogenized_EI(with_ribs(ribbed_template,
                                        feature_height_mm=3 * i / 10)).k_tip
               for i in range(11)]
    assert all(b > a for a, b in zip(heights, heights[1:]))

    plateau = plateau_stiffness(ribbed_template)
    for t_mm in (0.5, 1.0, 2.0, 5.0, 20.0):
        k = homogenized_EI(with_ribs(ribbed_template,
                                     feature_height_mm=t_mm)).k_tip
        assert k < plateau
    k2 = homogenized_EI(with_ribs(ribbed_template,
                                  feature_height_mm=2.0)).k_tip
    assert (plateau - k2) / plateau < 0.02


def test_tendon_equilibrium_matches_brute_force_energy_minimization():
    # hand-checked pair: 60 and 30 Nmm/rad on equal 2 mm moment arms
    limb = si_limb((0.03, 0.03, 0.03), stiffness=(0.06, 0.03),
                   joint_length=(0.01, 0.01), jam_angle=(10.0, 10.0),
                   routing_offset=(0.002, 0.002))
    state = equilibrium_solve(limb, 0.002)
    assert state.tension == 10.0
    assert state.theta[0] == pytest.approx(1 / 3, abs=1e-15)
    assert state.theta[1] == pytest.approx(2 / 3, abs=1e-15)

    capped = limb.replace(jam_angle=(10.0, 0.5))
    state = equilibrium_solve(capped, 0.002)
    assert state.tension == 15.0
    assert state.theta == (0.5, 0.5)
    assert state.jammed == (False, True)

    rng = np.random.default_rng(424242)
    for _ in range(20):
        limb = random_limb(rng, n_joints=2)
        pull = float(rng.uniform(0.05, 0.95)) * limb.pull_capacity
        state = equilibrium_solve(limb, pull)
        phi1, phi2, grid_energy = grid_search_two_joint(limb, pull)
        energy = elastic_energy(limb, state.theta)
        assert energy <= grid_energy * (1 + 1e-9) + 1e-18
        (cap_a, cap_b), (r_a, r_b) = limb.jam_angle, limb.routing_offset
        span_lo = max(0.0, (pull - r_b * cap_b) / r_a)
        span_hi = min(cap_a, pull / r_a)
        spacing = (span_hi - span_lo) / 200000
        assert abs(abs(state.theta[0]) - phi1) <= spacing + 1e-12

    for _ in range(100):
        limb = random_limb(rng)
        pull = float(rng.uniform(0.0, 1.0)) * limb.pull_capacity
        state = equilibrium_solve(limb, pull)
        routed = sum(r * s * t for r, s, t in zip(
            limb.routing_offset, limb.sense, state.theta))
        assert abs(routed - pull) < 1e-9

    for _ in range(25):
        limb = random_limb(rng)
        max_pull = float(rng.uniform(0.3, 0.999)) * limb.pull_capacity
        state = equilibrium_solve(limb, max_pull)
        stored = elastic_energy(limb, state.theta)
        assert tendon_work(limb, max_pull) == \
            pytest.approx(stored, rel=1e-6, abs=1e-15)


def test_soft_joints_lead_and_stroke_grows_with_the_extension_cap(
        hind_leg_doc):
    rng = np.random.default_rng(99)
    for _ in range(10):
        limb = random_limb(rng, n_joints=int(rng.integers(2, 5)),
                           equal_offsets=True)
        first_jam = jam_event_pulls(limb)[0]
        for frac in (0.2, 0.5, 0.9):
            state = equilibrium_solve(limb, frac * first_jam)
            by_stiffness = sorted(range(len(limb.stiffness)),
                                  key=limb.stiffness.__getitem__)
            mags = [abs(state.theta[i]) for i in by_stiffness]
            assert all(a > b for a, b in zip(mags, mags[1:]))

    for _ in range(10):
        limb = random_limb(rng)
        pull = float(rng.uniform(0.1, 1.0)) * limb.pull_capacity
        state = equilibrium_solve(limb, pull)
        # the top row's curvature over every segment, each holding a bin
        cycle = sweep_cycle(limb, max_pull=pull, steps=2)
        assert cycle.kappa.shape == (2, len(limb.lengths))
        bent = sum(length * kappa for length, kappa in zip(
            limb.lengths, cycle.kappa[-1].tolist()))
        assert bent == pytest.approx(sum(state.theta), rel=1e-12, abs=1e-15)

    # widening the extension cap (the hind leg's first joint) stretches the
    # stroke monotonically while the stroke-to-pull ratio moves by a
    # smaller relative factor
    limb = limb_from_document(hind_leg_doc, "hind_leg")
    betas = sorted(EXTENSIONAL_REFERENCE.values())
    expected_strokes = [18.239359499513448, 19.363452291669443,
                        20.493980130468255, 21.623383073856935,
                        22.745631862874003]
    expected_ratios = [1.9204087912529852, 2.0115275402520063,
                       2.1023134570975386, 2.1920849125548214,
                       2.2803357911702906]
    strokes, ratios = [], []
    for beta in betas:
        variant = limb.replace(jam_angle=(beta, *limb.jam_angle[1:]))
        metrics = sweep_cycle(variant, steps=201).metrics
        strokes.append(metrics.stroke_distance / MM)
        ratios.append(metrics.stroke_ratio)
    assert strokes == pytest.approx(expected_strokes, rel=1e-9)
    assert ratios == pytest.approx(expected_ratios, rel=1e-9)
    assert all(b > a for a, b in zip(strokes, strokes[1:]))
    for i in range(len(betas)):
        for j in range(i + 1, len(betas)):
            ratio_change = abs(ratios[j] / ratios[i] - 1)
            stroke_change = abs(strokes[j] / strokes[i] - 1)
            assert ratio_change < stroke_change


def test_trot_speed_is_linear_with_textbook_worked_numbers():
    trot = GaitEntry(("front_left", "hind_right"),
                     ("front_right", "hind_left"), (1.0,))

    even = {"front_left": 20.0, "hind_right": 20.0,
            "front_right": 20.0, "hind_left": 20.0}
    assert body_speed(trot, even, 1.0) == 40.0

    mixed = {"front_left": 20.0, "hind_right": 24.0,
             "front_right": 18.0, "hind_left": 22.0}
    assert body_speed(trot, mixed, 2.0) == 84.0

    v1 = body_speed(trot, mixed, 1.0)
    for f in (0.25, 0.5, 2.0, 7.5):
        assert body_speed(trot, mixed, f) == pytest.approx(f * v1, rel=1e-15)
    assert body_speed(trot, mixed, 0.0) == 0.0


def test_exported_meshes_are_watertight_and_stl_bytes_exact(sample_doc,
                                                            tmp_path):
    recipes = {}
    for part in sample_doc.export.parts:
        if part.kind == "flexure":
            recipes[part.file] = flexure_recipe(sample_doc.flexures[part.ref])
        elif part.kind == "flexional":
            recipes[part.file] = flexional_recipe(
                sample_doc.flexional_limits[part.ref].spec,
                count=part.count, facets=part.facets)
        else:
            width = part.width_mm * MM if part.width_mm is not None else None
            recipes[part.file] = extensional_recipe(
                sample_doc.extensional_limits[part.ref].spec,
                count=part.count, width=width)
    assert len(recipes) == 4

    # the two shell degeneracies: fully fused ribs (flush and stepped) and
    # flattened mushrooms with no stems
    template = sample_doc.flexures["sample"]
    recipes["fused_flush.stl"] = flexure_recipe(
        with_ribs(template, width_ratio=1.0))       # 6 whole periods
    recipes["fused_stepped.stl"] = flexure_recipe(
        with_ribs(template, width_ratio=1.0, period_mm=4.0))
    recipes["flat_heads.stl"] = flexional_recipe(
        FlexionalLimitSpec(6.0 * MM, 2.0 * MM, 0.0))

    for name, recipe in recipes.items():
        mesh = recipe.mesh()
        mesh.validate()
        assert mesh.volume() == pytest.approx(recipe.analytic_volume_mm3,
                                              rel=1e-6)
        path = tmp_path / name
        written = export_stl(mesh, path)
        assert written == 84 + 50 * len(mesh) == path.stat().st_size
        _, normals, tris, attrs = read_stl(path)
        assert np.array_equal(tris, mesh.triangles.astype(np.float32))
        assert np.array_equal(
            normals, unit_normals(mesh.triangles).astype(np.float32))
        assert set(attrs) <= {0}
        again = tmp_path / ("again_" + name)
        export_stl(mesh, again)
        assert again.read_bytes() == path.read_bytes()

    # facing standoff tips sit exactly one rest gap apart
    spec = sample_doc.extensional_limits["sample_extensional"].spec
    pair = extensional_recipe(spec, count=2)
    tips = sorted(x for p in pair.primitives
                  for (x, z) in p.polygons.reshape(-1, 2).tolist() if z > 0)
    assert tips[2] - tips[1] == pytest.approx(spec.rest_gap / MM, abs=1e-9)


def test_process_checks_fire_and_cli_outputs_are_byte_stable(tmp_path):
    def process(bed=95.0, z=0.02, nozzle=215.0):
        return PrintProcessConfig(bed_temp_c=bed, z_offset_mm=z,
                                  material=DEFAULT_MATERIALS["PLA"],
                                  pc_thickness_mm=0.1, nozzle_temp_c=nozzle)

    ok = validate_process(process())
    assert [e.code for e in ok.entries] == [
        "bed_temp_peak_band", "z_offset_ok", "nozzle_temp_ok",
        "adhesion_reference"]
    assert not ok.has_warnings

    cold = validate_process(process(bed=50.0))
    assert cold.has_warnings
    message = next(e.message for e in cold.entries
                   if e.code == "bed_temp_low_adhesion")
    assert "weak film bonding" in message

    hot = validate_process(process(bed=105.0))
    assert hot.has_warnings
    assert any(e.code == "bed_temp_high" for e in hot.entries)

    off = validate_process(process(z=0.05))
    assert off.has_warnings
    assert any(e.code == "z_offset_out_of_range" for e in off.entries)

    for report in (ok, cold, hot, off):
        last = report.entries[-1]
        assert last.code == "adhesion_reference"
        assert last.value == 11.2

    doc = doc_path("sample_flexure.json")
    for run in ("one", "two"):
        base = tmp_path / run
        assert main(["validate", "-i", doc, "-o", str(base / "v")]) == 0
        assert main(["predict-stiffness", "-i", doc, "-o", str(base / "k"),
                     "--sweep", "width_ratio=0:1:0.25"]) == 0
        assert main(["export-geometry", "-i", doc, "-o", str(base / "g")]) == 0
    one, two = tmp_path / "one", tmp_path / "two"
    compared = 0
    for path in sorted(one.rglob("*")):
        if not path.is_file():
            continue
        twin = two / path.relative_to(one)
        if path.name.endswith(".manifest.json"):
            first = json.loads(path.read_text())
            second = json.loads(twin.read_text())
            first.pop("generated_at")
            second.pop("generated_at")
            assert first == second, path.name
        else:
            assert path.read_bytes() == twin.read_bytes(), path.name
        compared += 1
    assert compared >= 10

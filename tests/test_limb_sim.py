"""Limb equilibrium, kinematics, and cycle sweeps."""

import math

import numpy as np
import pytest

from helpers import (curvature_at, elastic_energy, foot_point,
                     grid_search_two_joint, jam_event_pulls, random_limb,
                     si_limb, tendon_work)
from flexokit.errors import DesignError, EmptyLimbError, OverPullError
from flexokit.limb_sim import (equilibrium_solve, limb_from_document,
                               sweep_cycle)

MM = 1e-3


def two_joint_limb(cap2=10.0):
    """The hand-checked pair: 60 and 30 Nmm/rad, equal 2 mm moment arms."""
    return si_limb((0.03, 0.03, 0.03), stiffness=(0.06, 0.03),
                   joint_length=(0.01, 0.01), jam_angle=(10.0, cap2),
                   routing_offset=(0.002, 0.002))


# ------------------------------------------------------------- equilibrium

def test_unjammed_equilibrium_hand_case():
    state = equilibrium_solve(two_joint_limb(), 0.002)
    assert state.tension == 10.0
    assert state.theta[0] == pytest.approx(1 / 3, abs=1e-15)
    assert state.theta[1] == pytest.approx(2 / 3, abs=1e-15)
    assert state.jammed == (False, False)
    # tendon constraint holds to machine precision
    assert 0.002 * (state.theta[0] + state.theta[1]) == \
        pytest.approx(0.002, abs=1e-17)


def test_one_jam_equilibrium_hand_case():
    state = equilibrium_solve(two_joint_limb(cap2=0.5), 0.002)
    assert state.tension == 15.0
    assert state.theta == (0.5, 0.5)
    assert state.jammed == (False, True)
    # the stop must push back at least as hard as the spring alone would
    assert state.tension * 0.002 >= 0.03 * 0.5


def test_zero_pull_is_identity():
    state = equilibrium_solve(two_joint_limb(), 0.0)
    assert state.theta == (0.0, 0.0)
    assert state.tension == 0.0


def test_negative_sense_flips_sign_only():
    limb = two_joint_limb()
    flipped = limb.replace(sense=(-1, -1))
    state = equilibrium_solve(flipped, 0.002)
    assert state.tension == 10.0
    assert state.theta[0] == pytest.approx(-1 / 3, abs=1e-15)
    assert state.theta[1] == pytest.approx(-2 / 3, abs=1e-15)


def test_overpull_and_empty_limb_rejected():
    limb = two_joint_limb(cap2=0.5)
    with pytest.raises(OverPullError):
        equilibrium_solve(limb, limb.pull_capacity * 1.001)
    with pytest.raises(DesignError):
        equilibrium_solve(limb, -1e-6)
    with pytest.raises(EmptyLimbError):
        si_limb((0.03, 0.02), (), (), (), ())


@pytest.mark.parametrize("columns", [
    {"stiffness": (0.06, 0.0)}, {"jam_angle": (10.0, -0.5)},
    {"routing_offset": (math.nan, 0.002)}, {"sense": (1, 0)},
    {"lengths": (0.03, 0.01, -0.03, 0.01, 0.03)},
    {"lengths": (math.nan, 0.01, 0.03, 0.01, 0.03)},
    {"lengths": (0.03, 0.0, 0.03, 0.01, 0.03)}, {"stiffness": (0.06,)},
], ids=["zero_stiffness", "negative_cap", "nan_offset", "zero_sense",
        "negative_link", "nan_link", "zero_joint_length", "missing_stiffness"])
def test_limb_columns_are_checked(columns):
    with pytest.raises(DesignError, match="needs one positive stiffness"):
        two_joint_limb().replace(**columns)


def test_full_capacity_puts_every_joint_on_its_stop():
    limb = two_joint_limb(cap2=0.5)
    state = equilibrium_solve(limb, limb.pull_capacity)
    # magnitudes sit on the caps (flags may round a final ulp either way)
    assert state.theta[0] == pytest.approx(10.0, rel=1e-12)
    assert state.theta[1] == pytest.approx(0.5, rel=1e-12)
    assert state.tension == pytest.approx(
        max(0.06 * 10.0, 0.03 * 0.5) / 0.002, rel=1e-12)


def test_a_stiff_joint_jams_beside_a_limp_one_without_overflow():
    # Once the limp joint is held, the tension that bends the stiff one
    # (about 3e245 N) would turn the limp joint past float range; a held
    # joint's elastic angle is not formed, so no overflow warning is raised.
    cap = math.radians(1.0)
    limb = si_limb((0.0, 0.0), stiffness=(2e240, 2e-67),
                   joint_length=(1e-243, 1e-3), jam_angle=(cap, cap),
                   routing_offset=(1e-7, 1e-3))
    cycle = sweep_cycle(limb)
    assert cycle.jammed[-1].tolist() == [False, True]
    assert cycle.theta[-1] == pytest.approx([cap, cap], rel=1e-12)
    assert np.isfinite(cycle.tension).all()


def test_grid_oracle_agrees_on_two_joint_instances():
    rng = np.random.default_rng(20260815)
    for _ in range(25):
        limb = random_limb(rng, n_joints=2)
        pull = float(rng.uniform(0.0, 1.0)) * limb.pull_capacity
        state = equilibrium_solve(limb, pull)
        phi = [abs(t) for t in state.theta]
        g1, g2, e_grid = grid_search_two_joint(limb, pull)
        (cap1, cap2), (r1, r2) = limb.jam_angle, limb.routing_offset
        span = min(cap1, pull / r1) - max(0.0, (pull - r2 * cap2) / r1)
        resolution = span / 200000 + 1e-15
        assert abs(phi[0] - g1) <= resolution
        assert abs(phi[1] - g2) <= resolution
        assert elastic_energy(limb, state.theta) <= e_grid * (1 + 1e-9) + 1e-18


def test_constraint_residual_on_random_limbs():
    rng = np.random.default_rng(7)
    for _ in range(100):
        limb = random_limb(rng)
        pull = float(rng.uniform(0.0, 1.0)) * limb.pull_capacity
        state = equilibrium_solve(limb, pull)
        recovered = sum(s * r * t for s, r, t in zip(
            limb.sense, limb.routing_offset, state.theta))
        assert abs(recovered - pull) < 1e-9


def test_work_energy_balance_on_random_limbs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        limb = random_limb(rng)
        max_pull = float(rng.uniform(0.3, 1.0)) * limb.pull_capacity
        work = tendon_work(limb, max_pull)
        stored = elastic_energy(limb,
                                equilibrium_solve(limb, max_pull).theta)
        assert work == pytest.approx(stored, rel=1e-6)


def test_tension_is_convex_piecewise_linear_in_pull():
    rng = np.random.default_rng(3)
    limb = random_limb(rng, n_joints=3)
    pulls = np.linspace(0.0, limb.pull_capacity, 400)
    tension = np.array([equilibrium_solve(limb, float(p)).tension
                        for p in pulls])
    assert np.all(np.diff(tension) > -1e-12)  # monotone loading
    slopes = np.diff(tension) / np.diff(pulls)
    # slope never drops; it jumps up exactly at jam events
    assert np.all(np.diff(slopes) > -1e-6 * slopes[0])
    events = [p for p in jam_event_pulls(limb) if p < limb.pull_capacity]
    assert slopes[-1] > slopes[0] * (1 + 1e-9) or not events


def test_joint_magnitudes_grow_monotonically_with_pull():
    rng = np.random.default_rng(5)
    limb = random_limb(rng, n_joints=4)
    prev = np.zeros(4)
    for pull in np.linspace(0.0, limb.pull_capacity, 200):
        phi = np.abs(equilibrium_solve(limb, float(pull)).theta)
        assert np.all(phi >= prev - 1e-15)
        prev = phi


def test_softer_joint_leads_at_equal_offsets():
    rng = np.random.default_rng(13)
    for _ in range(10):
        limb = random_limb(rng, n_joints=3, equal_offsets=True,
                           wide_caps=True)
        order = np.argsort(limb.stiffness)  # softest first
        first_jam = jam_event_pulls(limb)[0]
        for frac in (0.2, 0.5, 0.9):
            state = equilibrium_solve(limb, frac * first_jam)
            phi = np.abs(state.theta)
            assert all(phi[order[i]] > phi[order[i + 1]] - 1e-15
                       for i in range(2))


def test_softer_joint_reaches_target_angle_at_smaller_pull():
    limb = si_limb((0.02, 0.02), stiffness=(0.02, 0.05),
                   joint_length=(0.01, 0.01), jam_angle=(2.0, 2.0),
                   routing_offset=(0.003, 0.003))
    target = 0.4
    pulls = np.linspace(0.0, limb.pull_capacity, 4001)
    first_soft = first_stiff = None
    for pull in pulls:
        phi = np.abs(equilibrium_solve(limb, float(pull)).theta)
        if first_soft is None and phi[0] >= target:
            first_soft = pull
        if first_stiff is None and phi[1] >= target:
            first_stiff = pull
    assert first_soft is not None and first_stiff is not None
    assert first_soft < first_stiff


# ---------------------------------------------------------------- kinematics

def test_straight_chain_lands_on_the_x_axis():
    limb = two_joint_limb()
    cycle = sweep_cycle(limb, max_pull=0.0, steps=3)
    assert not cycle.theta.any()
    for x, y in cycle.foot_path:
        assert x == pytest.approx(limb.total_length, abs=1e-15)
        assert y == pytest.approx(0.0, abs=1e-15)


def test_quarter_turn_arc_endpoint_closed_form():
    # the top row of a one-joint limb capped at a quarter turn
    limb = si_limb((0.03, 0.03), stiffness=(0.05,), joint_length=(0.01,),
                   jam_angle=(math.pi / 2,), routing_offset=(0.002,))
    cycle = sweep_cycle(limb, steps=2)
    assert cycle.theta[-1, 0] == pytest.approx(math.pi / 2, rel=1e-15)
    foot = cycle.foot_path[-1]
    radius = 0.01 / (math.pi / 2)
    assert foot[0] == pytest.approx(0.03 + radius, rel=1e-12)
    assert foot[1] == pytest.approx(radius + 0.03, rel=1e-12)


def test_arc_endpoint_matches_numeric_heading_integral():
    rng = np.random.default_rng(17)
    limb = random_limb(rng, n_joints=3)
    cycle = sweep_cycle(limb, steps=5)
    for theta, foot in zip(cycle.theta.tolist(), cycle.foot_path):
        # midpoint-rule integration of (cos h, sin h) along the arc length
        x = y = heading = 0.0
        it = iter(theta)
        for length, bent in zip(limb.lengths, limb.is_joint):
            if not bent:
                x += length * math.cos(heading)
                y += length * math.sin(heading)
                continue
            th = next(it)
            n = 20000
            ds = length / n
            s = (np.arange(n) + 0.5) * ds
            h = heading + th * s / length
            x += float(np.cos(h).sum()) * ds
            y += float(np.sin(h).sum()) * ds
            heading += th
        assert abs(foot[0] - x) < 1e-9
        assert abs(foot[1] - y) < 1e-9


def test_curvature_profile_integrates_back_to_joint_angles():
    # the top row of a one-joint limb capped at 0.5 rad over 10 mm
    limb = si_limb((0.01, 0.005), stiffness=(0.05,), joint_length=(0.01,),
                   jam_angle=(0.5,), routing_offset=(0.002,))
    cycle = sweep_cycle(limb, steps=2)
    assert cycle.kappa[-1].tolist() == pytest.approx([0.0, 50.0, 0.0],
                                                     rel=1e-15)
    rng = np.random.default_rng(19)
    for _ in range(20):
        rl = random_limb(rng)
        cycle = sweep_cycle(rl, steps=7)
        # 64 bins of at most 4 mm: every segment holds one, base to foot
        assert cycle.kappa.shape == (7, len(rl.lengths))
        bent = np.array(rl.is_joint)
        assert not cycle.kappa[:, ~bent].any()
        spans = cycle.kappa[:, bent] * np.array(rl.lengths)[bent]
        np.testing.assert_allclose(spans, cycle.theta, rtol=1e-12,
                                   atol=1e-15)


# -------------------------------------------------------------- cycle sweeps

def test_cycle_shapes_and_mirrored_pulls():
    limb = two_joint_limb(cap2=0.5)
    # the cycle holds its pull rows; the release rows mirror them
    cycle = sweep_cycle(limb, steps=51, arc_bins=32)
    assert cycle.pulls.shape == (51,)
    assert cycle.foot_path.shape == (51, 2)
    assert cycle.curvature_map.shape == (51, 32)
    assert cycle.arc_bins.shape == (32,)
    np.testing.assert_array_equal(
        cycle.pulls, np.linspace(0.0, limb.pull_capacity, 51))
    assert cycle.pulls[50] == pytest.approx(limb.pull_capacity)
    peak = cycle.theta[50]
    assert abs(peak[0]) == pytest.approx(10.0, rel=1e-12)
    assert abs(peak[1]) == pytest.approx(0.5, rel=1e-12)


def test_cycle_defaults_to_jam_capacity():
    limb = two_joint_limb(cap2=0.5)
    cycle = sweep_cycle(limb, steps=11)
    assert cycle.pulls.max() == pytest.approx(limb.pull_capacity, rel=1e-15)
    assert cycle.metrics.stroke_ratio == pytest.approx(
        cycle.metrics.stroke_distance / limb.pull_capacity, rel=1e-12)


def test_degenerate_zero_pull_cycle():
    cycle = sweep_cycle(two_joint_limb(), max_pull=0.0, steps=5)
    assert cycle.metrics.stroke_distance == 0.0
    assert cycle.metrics.stroke_ratio == 0.0
    assert np.all(cycle.curvature_map == 0.0)
    with pytest.raises(DesignError):
        sweep_cycle(two_joint_limb(), steps=1)


def test_curvature_map_rows_match_states():
    limb = two_joint_limb(cap2=0.5)  # joints span [30,40] and [70,80] mm
    cycle = sweep_cycle(limb, steps=21, arc_bins=16)
    mid = 10
    theta = cycle.theta[mid]
    hits = 0
    for s, kappa in zip(cycle.arc_bins, cycle.curvature_map[mid]):
        if 0.03 < s < 0.04:
            assert kappa == pytest.approx(theta[0] / 0.01, rel=1e-12)
            hits += 1
        elif 0.07 < s < 0.08:
            assert kappa == pytest.approx(theta[1] / 0.01, rel=1e-12)
            hits += 1
        elif s < 0.03:
            assert kappa == 0.0
    assert hits >= 3  # the 16-bin grid lands in both joint spans


def _scalar_equilibrium(limb, pull):
    """Reference: the active-set loop for one pull, with the same sums."""
    k = np.array(limb.stiffness)
    r = np.array(limb.routing_offset)
    cap = np.array(limb.jam_angle)
    pull = min(pull, float(r @ cap))
    jammed = np.zeros(len(k), dtype=bool)
    while True:
        free = ~jammed
        if not free.any():
            tension = float(np.max(k * cap / r))
            break
        tension = ((pull - float(r[jammed] @ cap[jammed]))
                   / float(r[free] ** 2 @ (1.0 / k[free])))
        phi = np.where(jammed, cap, tension * r / k)
        newly = free & (phi > cap * (1 + 1e-12))
        if not newly.any():
            break
        jammed |= newly
    phi = np.minimum(phi, cap)
    sense = np.array(limb.sense)
    return tuple((sense * phi).tolist()), tension, tuple((phi >= cap).tolist())


def test_cycle_rows_equal_single_pull_solves_exactly():
    rng = np.random.default_rng(20261018)
    most_jams, senses = 0, set()
    for _ in range(30):
        limb = random_limb(rng, n_joints=int(rng.integers(2, 6)))
        fraction = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.2, 1.0))
        cycle = sweep_cycle(limb, max_pull=fraction * limb.pull_capacity,
                            steps=int(rng.integers(3, 40)), arc_bins=9)
        most_jams = max(most_jams, int(cycle.jammed.sum(axis=1).max()))
        senses.update(limb.sense)
        for i, pull in enumerate(cycle.pulls):
            state = equilibrium_solve(limb, float(pull))
            assert tuple(cycle.theta[i]) == state.theta
            assert cycle.tension[i] == state.tension
            assert tuple(cycle.jammed[i]) == state.jammed
            assert _scalar_equilibrium(limb, float(pull)) == (
                state.theta, state.tension, state.jammed)
            # math.sin and np.sin may differ in the last place
            assert tuple(cycle.foot_path[i]) == pytest.approx(
                foot_point(limb, state.theta), rel=1e-12, abs=1e-15)
            assert cycle.curvature_map[i].tolist() == [
                curvature_at(limb, state.theta, s) for s in cycle.arc_bins]
    assert most_jams >= 3 and senses == {-1, 1}


# ---------------------------------------------------------- document limbs

def test_document_limb_resolution(hind_leg_doc):
    limb = limb_from_document(hind_leg_doc, "hind_leg")
    assert limb.is_joint == (False, True, False, True, False)
    # stiffness from the referenced flexures via EI_eff / joint_length
    assert limb.stiffness == pytest.approx(
        (0.02733021390374332, 0.012891767068273094), rel=1e-12)
    # caps from the referenced jamming geometry
    assert [math.degrees(c) for c in limb.jam_angle] == pytest.approx(
        [20.0003661255078, 89.9995218941837], rel=1e-9)
    assert limb.sense == (-1, -1)
    with pytest.raises(DesignError):
        limb_from_document(hind_leg_doc, "missing_leg")


def test_document_limb_explicit_overrides(hind_leg_doc):
    import json
    from flexokit.core import parse_design, serialize_design
    raw = json.loads(serialize_design(hind_leg_doc))
    joint = raw["limbs"]["hind_leg"]["segments"][1]["joint"]
    joint["jam_angle_deg"] = 45.0
    joint["torsional_stiffness_nm_per_rad"] = 0.5
    doc = parse_design(json.dumps(raw))
    limb = limb_from_document(doc, "hind_leg")
    assert limb.jam_angle[0] == pytest.approx(math.radians(45.0), rel=1e-15)
    assert limb.stiffness[0] == 0.5


def test_hind_leg_flexion_jams_before_extension(hind_leg_doc):
    limb = limb_from_document(hind_leg_doc, "hind_leg")
    t_ext, t_flx = (k * cap / r for k, cap, r in zip(
        limb.stiffness, limb.jam_angle, limb.routing_offset))
    assert t_flx < t_ext
    cycle = sweep_cycle(limb, steps=201)
    theta, jammed = cycle.theta, cycle.jammed
    first_flx = next(i for i, row in enumerate(jammed) if row[1])
    # flexion hits its stop while extension still has angle in reserve;
    # extension only reaches its cap at the very top of the pull
    assert abs(theta[first_flx][0]) < 0.999 * limb.jam_angle[0]
    assert abs(theta[-1][0]) == pytest.approx(limb.jam_angle[0], rel=1e-12)

"""Composite flexure stiffness: frozen values, bounds, inverse solvers.

Reference rigidities for the 30 x 44 mm template were recomputed by hand
from the transformed-section formulas (PC film 2.4 GPa x 0.1 mm under
PLA 3.5 GPa x 0.2 mm, 1 mm ribs at half coverage) and frozen below in
N*m^2 and N/m.
"""

import dataclasses
import math

import numpy as np
import pytest

from flexokit.core import DEFAULT_MATERIALS, LaminateStack
from flexokit.errors import DesignError, TargetRangeError
from flexokit.stiffness import (PlateauUnreachableError, homogenized_EI,
                                plateau_stiffness, section_EI,
                                solve_feature_height, solve_width_ratio,
                                tip_stiffness_exact,
                                torsional_stiffness)

MM = 1e-3

EI_LOW = 0.0002884028368794327      # bare section, N*m^2
EI_HIGH = 0.026405232432432434      # ribbed section, N*m^2
EI_EFF_HALF = 0.0005705737615085525
K_BARE = 32.044759653270305         # N/m at width_ratio 0
K_HALF = 63.397084612061406         # N/m at width_ratio 0.5
K_FULL = 2933.914714714715          # N/m at width_ratio 1
K_PLATEAU_HALF = 64.08951930654061  # 3 EI_low / ((1-w) L^3) at w = 0.5
K_EXACT_HALF = 63.07566428580689    # closed-form profile integral


def with_ribs(template, **changes):
    return dataclasses.replace(template,
                               ribs=dataclasses.replace(template.ribs,
                                                        **changes))


def test_single_layer_section_matches_hand_formula():
    pla = DEFAULT_MATERIALS["PLA"]
    ei = section_EI(LaminateStack(((pla, 0.2),)), 44 * MM)
    # E w t^3 / 12 for one homogeneous layer
    assert ei == pytest.approx(102.66666666666669e-6, rel=1e-12)


def test_composite_section_rigidities(ribbed_template):
    result = homogenized_EI(ribbed_template)
    assert result.EI_low == pytest.approx(EI_LOW, rel=1e-12)
    assert result.EI_high == pytest.approx(EI_HIGH, rel=1e-12)
    assert result.EI_eff == pytest.approx(EI_EFF_HALF, rel=1e-12)
    assert result.k_tip == pytest.approx(K_HALF, rel=1e-12)
    # the whole flexure as one joint
    assert torsional_stiffness(ribbed_template, ribbed_template.length) \
        == pytest.approx(EI_EFF_HALF / (30 * MM), rel=1e-12)


def test_tip_stiffness_across_width_ratios(ribbed_template):
    assert homogenized_EI(with_ribs(ribbed_template, width_ratio=0.0)) \
        .k_tip == pytest.approx(K_BARE, rel=1e-12)
    assert homogenized_EI(with_ribs(ribbed_template, width_ratio=1.0)) \
        .k_tip == pytest.approx(K_FULL, rel=1e-12)
    bare = dataclasses.replace(ribbed_template, ribs=None)
    assert homogenized_EI(bare).k_tip == pytest.approx(K_BARE, rel=1e-12)


def test_torsional_stiffness_for_joint_segments(ribbed_template):
    assert torsional_stiffness(ribbed_template, 10 * MM) == pytest.approx(
        0.05705737615085525, rel=1e-12)
    with pytest.raises(DesignError):
        torsional_stiffness(ribbed_template, 40 * MM)  # longer than the part
    with pytest.raises(DesignError):
        torsional_stiffness(ribbed_template, 0.0)


def test_quadrature_oracle_frozen_value(ribbed_template):
    assert tip_stiffness_exact(ribbed_template) == pytest.approx(
        K_EXACT_HALF, rel=1e-6)


def test_quadrature_matches_a_fine_midpoint_sum(ribbed_template):
    # Midpoint rule at 4096 samples per 5 mm period over the frozen section
    # rigidities. The rib edges, 1.25 and 3.75 mm into each period, fall on
    # sample boundaries, so no sample straddles a jump in EI(x).
    length, period, n = 30 * MM, 5 * MM, 6 * 4096
    x = (np.arange(n) + 0.5) * (length / n)
    phase = np.mod(x, period) / period
    ei = np.where((phase > 0.25) & (phase < 0.75), EI_HIGH, EI_LOW)
    fine = 1.0 / (float(np.sum((length - x) ** 2 / ei)) * (length / n))
    assert abs(tip_stiffness_exact(ribbed_template) - fine) / fine < 1e-6


def test_homogenized_matches_quadrature_for_short_periods(ribbed_template):
    # agreement tightens as length/period grows; 0.5% is the contract at 20
    for period_mm, tol in ((1.5, 0.005), (1.0, 0.002), (0.5, 5e-4)):
        flex = with_ribs(ribbed_template, period_mm=period_mm)
        hom = homogenized_EI(flex).k_tip
        exact = tip_stiffness_exact(flex)
        assert abs(hom - exact) / exact < tol


def test_stiffness_monotone_in_width_ratio_and_height(ribbed_template):
    ks = [homogenized_EI(with_ribs(ribbed_template, width_ratio=w / 10))
          .k_tip for w in range(11)]
    assert all(b > a for a, b in zip(ks, ks[1:]))
    ks = [homogenized_EI(with_ribs(ribbed_template, feature_height_mm=t))
          .k_tip for t in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0)]
    assert all(b > a for a, b in zip(ks, ks[1:]))


def test_plateau_bounds_rib_height_gains(ribbed_template):
    plateau = plateau_stiffness(ribbed_template)
    assert plateau == pytest.approx(K_PLATEAU_HALF, rel=1e-12)
    for t in (0.5, 1.0, 2.0, 5.0, 20.0):
        assert homogenized_EI(with_ribs(
            ribbed_template, feature_height_mm=t)).k_tip < plateau
    # 2 mm ribs already sit within 2% of the supremum
    k2 = homogenized_EI(with_ribs(ribbed_template,
                                  feature_height_mm=2.0)).k_tip
    assert k2 == pytest.approx(63.966696534819484, rel=1e-12)
    assert (plateau - k2) / plateau < 0.02
    assert plateau_stiffness(with_ribs(ribbed_template, width_ratio=1.0)) \
        == math.inf
    with pytest.raises(DesignError):
        plateau_stiffness(dataclasses.replace(ribbed_template, ribs=None))


# ------------------------------------------------------------------ inverses

def test_width_ratio_solver_hits_target(ribbed_template):
    solved = solve_width_ratio(50.0, ribbed_template)
    assert solved == pytest.approx(0.36307032827316443, rel=1e-6)
    achieved = homogenized_EI(with_ribs(ribbed_template,
                                        width_ratio=solved)).k_tip
    assert achieved == pytest.approx(50.0, rel=1e-9)
    # endpoints resolve without bisection
    assert solve_width_ratio(K_BARE, ribbed_template) == 0.0
    assert solve_width_ratio(K_FULL, ribbed_template) == 1.0


# Exact floats of both inverse solvers on the sample flexure at 50 and
# 60 N/m, and 1e-12 relative inside each end of the attainable range: a
# change to the bisection's arithmetic or to where it stops moves them.
K_FULL_INSIDE = K_FULL * (1 - 1e-12)
K_BARE_INSIDE = K_BARE * (1 + 1e-12)
SOLVER_PINS = [
    pytest.param(solve_width_ratio, 50.0, "0.3630703277885914", id="w_50"),
    pytest.param(solve_width_ratio, 60.0, "0.47106573916971684", id="w_60"),
    pytest.param(solve_width_ratio, K_BARE_INSIDE, "9.313225746154785e-10",
                 id="w_bare_end"),
    pytest.param(solve_width_ratio, K_FULL_INSIDE, "0.999999999992724",
                 id="w_full_end"),
    pytest.param(solve_feature_height, 50.0, "0.00015250496193766594",
                 id="h_50"),
    pytest.param(solve_feature_height, 60.0, "0.0004162731021642685",
                 id="h_60"),
    pytest.param(solve_feature_height, K_BARE_INSIDE, "1.1641532182693482e-13",
                 id="h_bare_end"),
]


@pytest.mark.parametrize("solve,target,expected", SOLVER_PINS)
def test_inverse_solver_floats_are_pinned(ribbed_template, solve, target,
                                          expected):
    assert repr(solve(target, ribbed_template)) == expected


def test_width_ratio_solver_range_errors(ribbed_template):
    with pytest.raises(TargetRangeError) as info:
        solve_width_ratio(5000.0, ribbed_template)
    lo, hi = info.value.bounds
    assert lo == pytest.approx(K_BARE, rel=1e-12)
    assert hi == pytest.approx(K_FULL, rel=1e-12)
    with pytest.raises(TargetRangeError):
        solve_width_ratio(1.0, ribbed_template)
    with pytest.raises(DesignError):
        solve_width_ratio(50.0,
                          dataclasses.replace(ribbed_template, ribs=None))


def test_feature_height_solver_hits_target(ribbed_template):
    solved = solve_feature_height(60.0, ribbed_template)
    assert solved == pytest.approx(0.4162731043249434 * MM, rel=1e-6)
    achieved = homogenized_EI(with_ribs(
        ribbed_template, feature_height_mm=solved / MM)).k_tip
    assert achieved == pytest.approx(60.0, rel=1e-9)
    # 200 N/m sits between the half-coverage plateau and full coverage,
    # so it is reachable by width ratio but not by height at w = 0.5
    assert solve_width_ratio(200.0, ribbed_template) < 1.0


def test_feature_height_solver_plateau_guard(ribbed_template):
    with pytest.raises(PlateauUnreachableError) as info:
        solve_feature_height(200.0, ribbed_template)
    assert info.value.bounds[1] == pytest.approx(K_PLATEAU_HALF, rel=1e-12)
    with pytest.raises(PlateauUnreachableError):
        solve_feature_height(K_PLATEAU_HALF, ribbed_template)
    # Just below the supremum, yet above what the tallest rib the height
    # search tries (0.512 m) reaches.
    for gap in (1e-12, 1e-11):
        with pytest.raises(PlateauUnreachableError,
                           match="not reachable by rib height"):
            solve_feature_height(K_PLATEAU_HALF * (1 - gap), ribbed_template)
    with pytest.raises(TargetRangeError):
        solve_feature_height(10.0, ribbed_template)  # below the bare part


def test_stiffness_result_rejects_inconsistent_values():
    from flexokit.stiffness import FlexureStiffnessResult
    with pytest.raises(DesignError):
        FlexureStiffnessResult(EI_low=2.0, EI_high=1.0, EI_eff=3.0,
                               k_tip=1.0)

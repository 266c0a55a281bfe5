"""Property: each solver inverts its forward model on generated geometry.

The jam angle of a stem height from ``flexional_inverse`` is the angle the
height was designed for, and a width ratio or rib height from the stiffness
solvers gives the target tip stiffness. Every pull row of a limb cycle is
the single-pull equilibrium of its pull, bit for bit.
"""

import math
import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flexokit.core import (MM, DEFAULT_MATERIALS, FlexureSpec, LaminateStack,
                           RibPattern)
from flexokit.joint_limits import (FlexionalLimitSpec, flexional_inverse,
                                   flexional_jam_angle)
from flexokit.limb_sim import (curvature_columns, equilibrium_solve,
                               sweep_cycle)
from flexokit.stiffness import (_REL_TOL, homogenized_EI, plateau_stiffness,
                                solve_feature_height, solve_width_ratio,
                                tip_stiffness_exact)
from helpers import curvature_at, si_limb, tip_stiffness_per_period

EPS = sys.float_info.epsilon


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@given(angle=_log_uniform(1e-3, 3.1), head_radius=_log_uniform(1e-4, 1e-2),
       stem_share=_log_uniform(1e-9, 10.0))
@settings(max_examples=300, deadline=None, database=None)
def test_jam_angle_inverts_flexional_inverse(angle, head_radius, stem_share):
    # A spacing at which the angle needs a stem of stem_share times the
    # heads' own lever r / sin(a / 2).
    s = math.sin(angle / 2)
    spacing = angle * head_radius / s * (1 + stem_share)
    stem = flexional_inverse(angle, head_radius, spacing)
    got = flexional_jam_angle(FlexionalLimitSpec(spacing, head_radius, stem))
    # The relation spacing = a (h + r / sin(a / 2)) is rounded at a few eps
    # relative, once in the inverse and again in each residual. Such an
    # error moves the root by kappa times as much, relative, where kappa
    # divides the relation's value over a by its slope in a; without a
    # stem kappa grows as 12 / a^2 at small angles. The bisection adds an
    # ulp. Random cases reach 2 eps kappa, so 8 leaves a margin of four.
    lever = stem + head_radius / s
    slope = lever - angle * head_radius * math.cos(angle / 2) / (2 * s * s)
    kappa = lever / slope
    assert abs(got - angle) <= 8 * EPS * kappa * angle


@st.composite
def templates(draw):
    film = draw(st.floats(0.05, 0.3))
    filament = DEFAULT_MATERIALS[draw(st.sampled_from(("PLA", "ABS")))]
    printed = draw(st.floats(0.1, 0.6))
    length = draw(st.floats(10.0, 60.0))
    return FlexureSpec(
        "t", length, draw(st.floats(5.0, 50.0)),
        LaminateStack(((DEFAULT_MATERIALS["PC"], film), (filament, printed))),
        RibPattern(draw(st.floats(0.5, length)), draw(st.floats(0.05, 0.95)),
                   draw(st.floats(0.1, 3.0))))


def _with_ribs(flex, **changes):
    return flex.replace(ribs=flex.ribs.replace(**changes))


# Away from the range ends: the bisection meets _REL_TOL long before its
# bracket collapses, so the returned value must meet it too.
SHARE = st.floats(0.01, 0.99)


@given(flex=templates(), share=SHARE)
@settings(max_examples=200, deadline=None, database=None)
def test_width_ratio_round_trips_through_tip_stiffness(flex, share):
    k0 = homogenized_EI(_with_ribs(flex, width_ratio=0.0)).k_tip
    k1 = homogenized_EI(_with_ribs(flex, width_ratio=1.0)).k_tip
    target = k0 + share * (k1 - k0)
    w = solve_width_ratio(target, flex)
    k = homogenized_EI(_with_ribs(flex, width_ratio=w)).k_tip
    assert abs(k - target) / target < _REL_TOL


@given(flex=templates(), share=SHARE)
@settings(max_examples=200, deadline=None, database=None)
def test_feature_height_round_trips_through_tip_stiffness(flex, share):
    k0 = homogenized_EI(_with_ribs(flex, feature_height_mm=0.0)).k_tip
    target = k0 + share * (plateau_stiffness(flex) - k0)
    height_mm = solve_feature_height(target, flex) / MM
    k = homogenized_EI(_with_ribs(flex, feature_height_mm=height_mm)).k_tip
    assert abs(k - target) / target < _REL_TOL


def _ribbed(length, period, width_ratio, height=0.8):
    return FlexureSpec(
        "r", length, 20.0,
        LaminateStack(((DEFAULT_MATERIALS["PC"], 0.125),
                       (DEFAULT_MATERIALS["PLA"], 0.3))),
        RibPattern(period, width_ratio, height))


@st.composite
def ribbed_flexures(draw):
    """Flexures of 1 to 100 rib periods whose last period is cut anywhere,
    down to a sliver that gets fewer than 8 samples, or a single one."""
    film = draw(st.floats(0.05, 0.3))
    filament = DEFAULT_MATERIALS[draw(st.sampled_from(("PLA", "ABS")))]
    period = draw(_log_uniform(0.05, 20.0))
    whole = draw(st.integers(1, 99))
    cut = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0),
                         _log_uniform(1e-7, 0.05)))
    width_ratio = draw(st.one_of(st.sampled_from((0.0, 1.0)),
                                 st.floats(0.0, 1.0)))
    return FlexureSpec(
        "r", period * (whole + cut), draw(st.floats(5.0, 50.0)),
        LaminateStack(((DEFAULT_MATERIALS["PC"], film), (filament, 0.3))),
        RibPattern(period, width_ratio, draw(st.floats(0.0, 3.0))))


# The last period's first segment is cut to 1e-3 and 2e-2 of a period:
# 1 and 5 samples.
@example(flex=_ribbed(2.0 * (3 + 1e-3), 2.0, 0.5))
@example(flex=_ribbed(2.0 * (3 + 2e-2), 2.0, 0.5))
@given(flex=ribbed_flexures())
@settings(max_examples=300, deadline=None, database=None)
def test_exact_stiffness_equals_its_per_period_loop(flex):
    assert (tip_stiffness_exact(flex).hex()
            == tip_stiffness_per_period(flex).hex())


@st.composite
def limbs(draw):
    """mm-scale links and Nmm/rad joints of either sense; a shared routing
    offset makes joints of equal k / r jam at one pull."""
    shared = draw(st.one_of(st.none(), st.floats(0.001, 0.008)))
    links, joints = [draw(st.floats(0.0, 0.03))], []
    for _ in range(draw(st.integers(1, 5))):
        joints.append((draw(st.floats(0.005, 0.1)),
                       draw(st.floats(0.005, 0.025)),
                       math.radians(draw(st.floats(5.0, 170.0))),
                       shared or draw(st.floats(0.001, 0.008)),
                       draw(st.sampled_from((-1, 1)))))
        links.append(draw(st.floats(0.0, 0.03)))
    return si_limb(links, *zip(*joints))


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@given(limb=limbs(), steps=st.one_of(st.sampled_from((2, 3)),
                                     st.integers(50, 300)),
       share=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
       arc_bins=st.integers(1, 9))
@settings(max_examples=100, deadline=None, database=None)
def test_cycle_rows_are_single_pull_solves_mirrored(limb, steps, share,
                                                    arc_bins):
    cycle = sweep_cycle(limb, max_pull=share * limb.pull_capacity,
                        steps=steps)
    bins, kappa, counts = curvature_columns(limb, cycle.theta, arc_bins)
    curvature = np.repeat(kappa, counts, axis=1)
    # the cycle holds its pull rows; the release rows mirror them
    assert len(cycle.pulls) == steps
    for r in range(steps):
        state = equilibrium_solve(limb, float(cycle.pulls[r]))
        assert (_bits(cycle.theta[r]) == _bits(state.theta)).all()
        assert _bits(cycle.tension[r]) == _bits(state.tension)
        assert (_bits(curvature[r]) == _bits(
            [curvature_at(limb, state.theta, s) for s in bins])).all()

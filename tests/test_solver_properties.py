"""Property: each solver inverts its forward model on generated geometry.

The jam angle of a stem height from ``flexional_inverse`` is the angle the
height was designed for, and a width ratio or rib height from the stiffness
solvers gives the target tip stiffness.
"""

import dataclasses
import math
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from flexokit.core import (MM, DEFAULT_MATERIALS, FlexureSpec, LaminateStack,
                           RibPattern)
from flexokit.joint_limits import (FlexionalLimitSpec, flexional_inverse,
                                   flexional_jam_angle)
from flexokit.stiffness import (_REL_TOL, homogenized_EI, plateau_stiffness,
                                solve_feature_height, solve_width_ratio)

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
    return dataclasses.replace(flex,
                               ribs=dataclasses.replace(flex.ribs, **changes))


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

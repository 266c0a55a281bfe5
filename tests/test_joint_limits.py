"""Jam-angle solvers: frozen reference values, inverses, failure modes.

Reference angles were computed independently from the defining relations
(300-iteration bisection for the flexional root, closed form for the
extensional one) and are frozen here.
"""

import math

import pytest

from flexokit.errors import (AlwaysJammedError, ContactAtRestError,
                             GeometryError, UnreachableLimitError)
from flexokit.joint_limits import (ExtensionalLimitSpec, FlexionalLimitSpec,
                                   extensional_inverse, extensional_jam_angle,
                                   flexional_inverse, flexional_jam_angle)

MM = 1e-3

# alpha * (h + r / sin(alpha/2)) = D with r = 2 mm, D = 6 mm
FLEXIONAL_REFERENCE = {
    4.0: 0.4899282978480517,
    6.0: 0.33029328390713764,
    8.0: 0.2487090011132443,
    10.0: 0.1993369778344442,
    12.0: 0.16628233155107552,
}

# (2 L cos g - b - 2 r) / (L sin g + h) with b = 5.4, r = 1.8, h = 2 mm,
# g = 45 degrees
EXTENSIONAL_REFERENCE = {
    6.50: 0.029166539546670835,
    6.75: 0.08060592084554838,
    7.00: 0.1294284347328867,
    7.25: 0.1758288189921077,
    7.50: 0.21998295686265767,
}


def flexional(h_mm, r_mm=2.0, d_mm=6.0):
    return FlexionalLimitSpec(spacing=d_mm * MM, head_radius=r_mm * MM,
                              stem_height=h_mm * MM)


def extensional(l_mm, b_mm=5.4, r_mm=1.8, h_mm=2.0, gamma_deg=45.0):
    return ExtensionalLimitSpec(diagonal=l_mm * MM, base_width=b_mm * MM,
                                tip_radius=r_mm * MM, mount_height=h_mm * MM,
                                incline=math.radians(gamma_deg))


@pytest.mark.parametrize("h_mm,expected", sorted(FLEXIONAL_REFERENCE.items()))
def test_flexional_jam_angles_match_reference(h_mm, expected):
    angle = flexional_jam_angle(flexional(h_mm))
    assert angle == pytest.approx(expected, rel=1e-12)


def test_flexional_angles_decrease_with_stem_height():
    angles = [flexional_jam_angle(flexional(h)) for h in (4, 6, 8, 10, 12)]
    assert all(b < a for a, b in zip(angles, angles[1:]))


def test_flexional_root_satisfies_defining_relation():
    for h_mm in FLEXIONAL_REFERENCE:
        spec = flexional(h_mm)
        a = flexional_jam_angle(spec)
        residual = a * (spec.stem_height
                        + spec.head_radius / math.sin(a / 2)) - spec.spacing
        assert abs(residual) < 1e-10


# Exact floats of the bisection: a change to its arithmetic or to where it
# stops moves at least one of these.
FLEXIONAL_PINS = [
    pytest.param(FlexionalLimitSpec(6e-3, 2e-3, 4e-3), "0.4899282978480516",
                 id="readme"),
    pytest.param(FlexionalLimitSpec(6e-3, 2e-3, 0.0), "2.9915631364441992",
                 id="zero_stem"),
    # root ~2e-9 rad: (spacing - 2 r) / stem_height, just above the floor
    pytest.param(FlexionalLimitSpec(4.000002e-3, 2e-3, 1.0),
                 "1.99999999942704e-09", id="near_floor"),
    # root ~pi - 1e-6 rad: spacing just under pi * head_radius
    pytest.param(FlexionalLimitSpec(1e-3 * (math.pi - 1e-6), 1e-3, 0.0),
                 "3.1415916535893995", id="near_pi"),
]


@pytest.mark.parametrize("spec,expected", FLEXIONAL_PINS)
def test_flexional_jam_angle_floats_are_pinned(spec, expected):
    assert repr(flexional_jam_angle(spec)) == expected


@pytest.mark.parametrize("l_mm,expected", sorted(EXTENSIONAL_REFERENCE.items()))
def test_extensional_jam_angles_match_reference(l_mm, expected):
    angle = extensional_jam_angle(extensional(l_mm))
    assert angle == pytest.approx(expected, rel=1e-12)


def test_extensional_angles_increase_with_diagonal():
    angles = [extensional_jam_angle(extensional(l))
              for l in (6.5, 6.75, 7.0, 7.25, 7.5)]
    assert all(b > a for a, b in zip(angles, angles[1:]))


def test_extensional_geometry_properties():
    spec = extensional(7.0)
    assert spec.tip_height == pytest.approx(7.0 * MM * math.sin(math.pi / 4),
                                            rel=1e-15)
    gap = 2 * 7.0 * MM * math.cos(math.pi / 4) - 5.4 * MM - 3.6 * MM
    assert spec.rest_gap == pytest.approx(gap, rel=1e-12)
    assert spec.min_diagonal == pytest.approx(6.363961030678928 * MM,
                                              rel=1e-12)


# ------------------------------------------------------------------ inverses

def test_flexional_inverse_recovers_stem_height():
    for h_mm in (4.0, 6.0, 12.0):
        spec = flexional(h_mm)
        angle = flexional_jam_angle(spec)
        h = flexional_inverse(angle, spec.head_radius, spec.spacing)
        assert h == pytest.approx(h_mm * MM, rel=1e-9)


def test_flexional_inverse_right_angle_case():
    h = flexional_inverse(math.pi / 2, 2.0 * MM, 6.0 * MM)
    assert h == pytest.approx(0.9912915094592977 * MM, rel=1e-12)


def test_flexional_inverse_rejects_unbuildable_targets():
    with pytest.raises(GeometryError):
        flexional_inverse(0.0, 2.0 * MM, 6.0 * MM)
    # heads alone jam later than this angle; stem height would be negative
    with pytest.raises(GeometryError, match="negative stem height"):
        flexional_inverse(3.0, 2.0 * MM, 6.0 * MM)


def test_extensional_inverse_recovers_diagonal():
    for l_mm, beta in EXTENSIONAL_REFERENCE.items():
        l = extensional_inverse(beta, 5.4 * MM, 1.8 * MM, 2.0 * MM,
                                math.radians(45.0))
        assert l == pytest.approx(l_mm * MM, rel=1e-12)
    l = extensional_inverse(0.22, 5.4 * MM, 1.8 * MM, 2.0 * MM,
                            math.radians(45.0))
    assert l == pytest.approx(7.500098892585402 * MM, rel=1e-12)


def test_extensional_inverse_rejects_angles_past_the_pole():
    # denominator 2 cos g - beta sin g hits zero at beta = 2 / tan(g)
    with pytest.raises(UnreachableLimitError):
        extensional_inverse(2.1, 5.4 * MM, 1.8 * MM, 2.0 * MM,
                            math.radians(45.0))


# -------------------------------------------------------------- error modes

def test_touching_heads_are_always_jammed():
    with pytest.raises(AlwaysJammedError):
        flexional_jam_angle(flexional(4.0, r_mm=2.0, d_mm=3.9))
    with pytest.raises(AlwaysJammedError):
        flexional_jam_angle(flexional(4.0, r_mm=2.0, d_mm=4.0))


def test_far_heads_never_jam():
    # spacing beyond pi * (h + r) has no root below a half turn
    with pytest.raises(UnreachableLimitError):
        flexional_jam_angle(FlexionalLimitSpec(spacing=40.0 * MM,
                                               head_radius=2.0 * MM,
                                               stem_height=4.0 * MM))


def test_root_below_the_bracket_floor_is_rejected():
    # alpha * h alone passes spacing - 2 r = 2 mm at alpha ~ 2e-10 rad, so
    # the root lies below the 1e-9 rad floor of the bisection bracket
    with pytest.raises(GeometryError, match="1e-09 rad"):
        flexional_jam_angle(flexional(1e10))
    # just above the floor the root is still found
    alpha = flexional_jam_angle(flexional(1e6))
    assert 1e-9 < alpha < 3e-6


def test_flexional_inverse_rejects_overflowing_stem_height():
    with pytest.raises(GeometryError, match="too small"):
        flexional_inverse(1e-322, 2.0 * MM, 6.0 * MM)


def test_short_standoffs_touch_at_rest():
    with pytest.raises(ContactAtRestError) as info:
        extensional_jam_angle(extensional(6.0))
    assert info.value.min_diagonal == pytest.approx(
        6.363961030678928 * MM, rel=1e-12)
    with pytest.raises(ContactAtRestError):
        extensional_jam_angle(extensional(6.3639))


def test_spec_constructors_reject_bad_dimensions():
    with pytest.raises(GeometryError):
        FlexionalLimitSpec(spacing=-1.0, head_radius=1.0, stem_height=0.0)
    with pytest.raises(GeometryError):
        FlexionalLimitSpec(spacing=6.0 * MM, head_radius=2.0 * MM,
                           stem_height=-1.0 * MM)
    with pytest.raises(GeometryError):
        extensional(7.0, gamma_deg=90.0)
    with pytest.raises(GeometryError):
        extensional(7.0, gamma_deg=0.0)

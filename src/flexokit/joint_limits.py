"""Forward and inverse solvers for printed joint-limit (jamming) geometry.

Two feature families are covered, both living on the printed face of a
flexure:

* flexional limits: mushroom-shaped pillars whose heads touch when the
  flexure bends toward the printed side;
* extensional limits: inclined standoffs whose tips close a designed gap
  when the flexure bends away from the printed side.

All quantities are SI (meters, radians). Degree conversion belongs to I/O
code, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    AlwaysJammedError,
    ContactAtRestError,
    GeometryError,
    UnreachableLimitError,
)

# Bisection bracket inset. The jam-angle residual is monotone on (0, pi), so
# any positive inset that excludes the singular endpoints works.
_BRACKET_EPS = 1e-9


def _bisect(side, lo: float, hi: float) -> float:
    """Root of an increasing ``side`` on (lo, hi) by bisection.

    ``side(x)`` is negative left of the root, 0 when x is close enough, and
    positive otherwise. Stops when the midpoint is no longer strictly
    inside the bracket, so lo and hi are adjacent floats.
    """
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        s = side(mid)
        if s == 0:
            return mid
        if s < 0:
            lo = mid
        else:
            hi = mid
    return mid


@dataclass(frozen=True)
class FlexionalLimitSpec:
    """Geometry of one mushroom-pillar pair limiting flexion.

    spacing: arc distance between adjacent feature stems along the flexure.
    head_radius: radius of the round head on each pillar.
    stem_height: height of the pillar stem (base to head center).
    """

    spacing: float
    head_radius: float
    stem_height: float

    def __post_init__(self):
        if self.spacing <= 0 or self.head_radius <= 0:
            raise GeometryError("spacing and head_radius must be positive")
        if self.stem_height < 0:
            raise GeometryError("stem_height must be nonnegative")

    def residual(self, alpha: float) -> float:
        """Jam relation at bend angle alpha (radians), zero at the jam angle:
        the inextensible film keeps ``spacing`` of arc between the stems,
        bent about a center stem_height + head_radius/sin(alpha/2) deep."""
        return alpha * (self.stem_height
                        + self.head_radius / math.sin(alpha / 2)) - self.spacing


@dataclass(frozen=True)
class ExtensionalLimitSpec:
    """Geometry of one inclined-standoff pair limiting extension.

    diagonal: slant length of the standoff member.
    base_width: footprint width of the standoff on the flexure.
    tip_radius: radius of the rounded standoff tip.
    mount_height: offset from the bending surface to the feature base.
    incline: standoff inclination from the flexure plane, radians.
    """

    diagonal: float
    base_width: float
    tip_radius: float
    mount_height: float
    incline: float

    def __post_init__(self):
        for name in ("diagonal", "base_width", "tip_radius", "mount_height"):
            if getattr(self, name) <= 0:
                raise GeometryError(f"{name} must be positive")
        if not 0 < self.incline < math.pi / 2:
            raise GeometryError("incline must lie in (0, pi/2) radians")

    @property
    def tip_height(self) -> float:
        """Height of the standoff tip center above the feature base."""
        return self.diagonal * math.sin(self.incline)

    @property
    def rest_gap(self) -> float:
        """Clearance between the two rounded tips before any bending."""
        return (2 * self.diagonal * math.cos(self.incline)
                - self.base_width - 2 * self.tip_radius)

    @property
    def min_diagonal(self) -> float:
        """Smallest diagonal for which the tips clear each other at rest."""
        return (self.base_width + 2 * self.tip_radius) / (2 * math.cos(self.incline))

    def residual(self, beta: float) -> float:
        """Jam relation at bend angle beta (radians), zero at the jam angle:
        the lever arm to the tips, turned by beta, closes the rest gap."""
        return beta * (self.tip_height + self.mount_height) - self.rest_gap


def flexional_jam_angle(spec: FlexionalLimitSpec) -> float:
    """Bend angle (radians) at which the mushroom heads first touch.

    The angle is the unique root of ``spec.residual`` on (0, pi), found by
    bisection. Raises AlwaysJammedError when the heads already touch
    straight (spacing <= 2 * head_radius), UnreachableLimitError when no
    root exists below a half-turn, and GeometryError when the root lies
    below the bracket's 1e-9 rad floor.
    """
    if spec.spacing <= 2 * spec.head_radius:
        raise AlwaysJammedError(
            f"heads touch at zero bend: spacing {spec.spacing:g} m "
            f"<= head diameter {2 * spec.head_radius:g} m")
    lo = _BRACKET_EPS
    hi = math.pi - _BRACKET_EPS
    if spec.residual(hi) <= 0:
        raise UnreachableLimitError(
            "features never touch below a half-turn bend "
            f"(spacing {spec.spacing:g} m >= pi * (stem_height + head_radius))")
    # residual(lo) ~ 2*head_radius - spacing + lo*stem_height, which a stem
    # tall against the head gap makes nonnegative: the root then lies below
    # the bracket. With residual(lo) < 0 < residual(hi), strict monotonicity
    # makes the root unique, so plain bisection converges unconditionally.
    if not spec.residual(lo) < 0:
        raise GeometryError(
            f"jam angle lies below the {_BRACKET_EPS:g} rad solver floor: "
            f"stem_height {spec.stem_height:g} m is too tall for the "
            f"{spec.spacing - 2 * spec.head_radius:g} m gap between heads")
    # A sign, not the residual: many angles next to the root give exactly 0.
    return _bisect(lambda a: -1 if spec.residual(a) < 0 else 1, lo, hi)


def flexional_inverse(target_alpha: float, head_radius: float,
                      spacing: float) -> float:
    """Stem height that makes the flexional jam angle equal target_alpha."""
    if not 0 < target_alpha < math.pi:
        raise GeometryError("target angle must lie in (0, pi) radians")
    h = spacing / target_alpha - head_radius / math.sin(target_alpha / 2)
    if not math.isfinite(h):
        raise GeometryError(
            f"target angle {target_alpha:g} rad is too small: the stem "
            "height it needs overflows")
    if h < 0:
        raise GeometryError(
            f"target angle {target_alpha:g} rad needs negative stem height "
            f"{h:g} m; the heads alone already jam later than that")
    return h


def extensional_jam_angle(spec: ExtensionalLimitSpec) -> float:
    """Bend angle (radians) at which the standoff tips first touch.

    Closed form: the rest gap between the rounded tips divided by the lever
    arm from the bending surface to the tips. Raises GeometryError when a
    lever arm short against the gap makes the angle, in degrees, overflow.
    """
    gap = spec.rest_gap
    if gap <= 0:
        raise ContactAtRestError(
            f"standoff tips touch at rest (gap {gap:g} m); smallest feasible "
            f"diagonal is {spec.min_diagonal:g} m")
    angle = gap / (spec.tip_height + spec.mount_height)
    if not math.isfinite(math.degrees(angle)):
        raise GeometryError(
            "the jam angle overflows: the lever arm to the tips is too "
            f"short for the {gap:g} m rest gap")
    return angle


def extensional_inverse(target_beta: float, base_width: float,
                        tip_radius: float, mount_height: float,
                        incline: float) -> float:
    """Diagonal length that makes the extensional jam angle equal target_beta."""
    if target_beta < 0:
        raise GeometryError("target angle must be nonnegative")
    denom = 2 * math.cos(incline) - target_beta * math.sin(incline)
    if denom <= 0:
        raise UnreachableLimitError(
            f"target angle {target_beta:g} rad is unreachable for incline "
            f"{incline:g} rad (needs angle < 2/tan(incline))")
    return (base_width + 2 * tip_radius + target_beta * mount_height) / denom

"""Bending stiffness of ribbed composite flexures, forward and inverse.

The model is classical Euler-Bernoulli composite beam theory:

* transformed-section rigidity for each cross-section (every layer's area
  weighted by its modulus to locate the shared neutral axis),
* serial-compliance homogenization across one rib period (the ribbed and
  bare segments are springs in series, so effective EI is the
  length-weighted harmonic mean),
* cantilever tip stiffness 3*EI/L^3 in the small-angle regime.

``tip_stiffness_exact`` skips homogenization and integrates the periodic
EI(x) profile directly; it is the in-package oracle for the homogenized
model and their agreement degrades as the period grows relative to the
flexure length.

All inputs and outputs are SI (meters, pascals, newtons).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import MM, FlexureSpec, LaminateStack
from .errors import DesignError, TargetRangeError

_REL_TOL = 1e-9
_MAX_BISECT = 200
_POINTS_PER_PERIOD = 256  # midpoint samples per rib period, exact model


class PlateauUnreachableError(TargetRangeError):
    """Target stiffness lies above the rib-height plateau supremum.

    Raising the ribs cannot reach it: past a few times the base thickness
    the bare segments dominate the compliance, so k(height) saturates at
    ``supremum`` (this is exactly the regime where rib height stops being a
    useful control knob).
    """

    def __init__(self, message: str, bounds: tuple):
        super().__init__(message, bounds)
        self.supremum = bounds[1]


@dataclass(frozen=True)
class SectionStiffness:
    """Bending rigidity of one cross-section about its neutral axis."""

    EI: float                  # N*m^2
    neutral_axis_height: float  # m, from the laminate bottom


@dataclass(frozen=True)
class FlexureStiffnessResult:
    EI_low: float       # bare-section rigidity, N*m^2
    EI_high: float      # ribbed-section rigidity, N*m^2
    EI_eff: float       # homogenized rigidity, N*m^2
    k_tip: float        # cantilever tip stiffness, N/m
    k_torsional: float  # whole-flexure torsional stiffness, N*m/rad

    def __post_init__(self):
        slack = 1 + 1e-9
        if not (self.EI_low <= self.EI_eff * slack
                and self.EI_eff <= self.EI_high * slack and self.k_tip > 0):
            raise DesignError("inconsistent stiffness result")


def section_EI(stack: LaminateStack, width: float) -> SectionStiffness:
    """Transformed-section rigidity of a laminate cross-section.

    ybar = sum(E_i A_i y_i) / sum(E_i A_i);
    EI   = sum(E_i (I_i + A_i (y_i - ybar)^2)).
    """
    if not width > 0:
        raise DesignError("section width must be positive")
    y0 = 0.0
    ea = eay = 0.0
    rows = []  # (E, A, y_center, I_own)
    for material, t in stack.layers_si:
        e = material.youngs_modulus
        a = width * t
        yc = y0 + t / 2
        rows.append((e, a, yc, width * t ** 3 / 12))
        ea += e * a
        eay += e * a * yc
        y0 += t
    ybar = eay / ea
    ei = sum(e * (i_own + a * (yc - ybar) ** 2) for e, a, yc, i_own in rows)
    return SectionStiffness(EI=ei, neutral_axis_height=ybar)


def _ribbed_EI(flex: FlexureSpec, height_mm: float) -> float:
    """Rigidity of the flexure's section under a rib height_mm tall."""
    rib_layer = (flex.resolved_rib_material, height_mm)
    return section_EI(LaminateStack(flex.base.layers + (rib_layer,)),
                      flex.width).EI


def _section_pair(flex: FlexureSpec) -> tuple[float, float]:
    """(EI_low, EI_high) for the bare and ribbed sections of a flexure."""
    ei_low = section_EI(flex.base, flex.width).EI
    if flex.ribs is None or flex.ribs.feature_height_mm == 0:
        return ei_low, ei_low
    return ei_low, _ribbed_EI(flex, flex.ribs.feature_height_mm)


def _ei_eff(ei_low: float, ei_high: float, width_ratio: float) -> float:
    # Springs in series over one period: length-weighted harmonic mean.
    return 1.0 / (width_ratio / ei_high + (1 - width_ratio) / ei_low)


def homogenized_EI(flex: FlexureSpec) -> FlexureStiffnessResult:
    """Homogenized stiffness of a ribbed flexure.

    Without ribs (or with zero feature height) the effective rigidity is
    the bare section's.
    """
    ei_low, ei_high = _section_pair(flex)
    w = flex.ribs.width_ratio if flex.ribs is not None else 0.0
    ei_eff = _ei_eff(ei_low, ei_high, w) if ei_high > ei_low else ei_low
    length = flex.length
    return FlexureStiffnessResult(
        EI_low=ei_low, EI_high=ei_high, EI_eff=ei_eff,
        k_tip=3 * ei_eff / length ** 3,
        k_torsional=ei_eff / length)


def tip_stiffness_exact(flex: FlexureSpec) -> float:
    """Tip stiffness from quadrature over the periodic EI(x) profile.

    k = 1 / integral_0^L (L - x)^2 / EI(x) dx for a tip-loaded cantilever.
    Composite midpoint rule at a fixed 256 samples per rib period, sampled
    segment-aligned (the integrand jumps at rib edges, so sample points
    never straddle a jump). Ribs sit centered within each period.
    """
    import numpy as np
    ei_low, ei_high = _section_pair(flex)
    length = flex.length
    if flex.ribs is None or ei_high == ei_low:
        return 3 * ei_low / length ** 3
    period = flex.ribs.period
    w = flex.ribs.width_ratio
    total = 0.0
    n_periods = int(math.ceil(length / period - 1e-12))
    for i in range(n_periods):
        p0 = i * period
        a = p0 + (1 - w) * period / 2
        b = p0 + (1 + w) * period / 2
        for s0, s1, ei in ((p0, a, ei_low), (a, b, ei_high),
                           (b, p0 + period, ei_low)):
            s0, s1 = max(s0, 0.0), min(s1, length)
            if s1 <= s0:
                continue
            m = max(1, round(_POINTS_PER_PERIOD * (s1 - s0) / period))
            xs = s0 + (np.arange(m) + 0.5) * (s1 - s0) / m
            total += float(np.sum((length - xs) ** 2)) * (s1 - s0) / m / ei
    return 1.0 / total


def torsional_stiffness(flex: FlexureSpec, joint_length: float) -> float:
    """Pseudo-rigid-body spring constant of a joint cut from this flexure.

    Uniform-moment assumption: k_theta = EI_eff / joint_length, N*m/rad.
    """
    if not 0 < joint_length <= flex.length * (1 + 1e-12):
        raise DesignError("joint_length must lie in (0, flexure length]")
    return homogenized_EI(flex).EI_eff / joint_length


def plateau_stiffness(flex: FlexureSpec) -> float:
    """Supremum of k over rib height at fixed width_ratio < 1.

    As the ribbed section rigidity grows without bound, only the bare
    fraction (1 - w) of each period still bends: k -> 3*EI_low/((1-w)*L^3).
    """
    if flex.ribs is None:
        raise DesignError("plateau is defined for ribbed flexures only")
    w = flex.ribs.width_ratio
    if w >= 1:
        return math.inf
    ei_low = section_EI(flex.base, flex.width).EI
    return 3 * ei_low / ((1 - w) * flex.length ** 3)


def _bisect_for_target(k_of, lo: float, hi: float, target: float) -> float:
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        k = k_of(mid)
        if abs(k - target) / target < _REL_TOL:
            return mid
        if k < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_width_ratio(target_k: float, template: FlexureSpec) -> float:
    """Width ratio at which the template reaches target_k (N/m).

    The template's own width_ratio is ignored. Bisection on the strictly
    monotone map w -> k(w); raises TargetRangeError outside [k(0), k(1)].
    """
    if template.ribs is None:
        raise DesignError("template needs a rib pattern to vary")
    ei_low, ei_high = _section_pair(template)
    cube = template.length ** 3
    k_of = lambda w: 3 * _ei_eff(ei_low, ei_high, w) / cube
    k0, k1 = k_of(0.0), k_of(1.0)
    if not k0 <= target_k <= k1:
        raise TargetRangeError(
            f"target {target_k:g} N/m is outside the attainable range "
            f"[{k0:g}, {k1:g}] N/m for this template", (k0, k1))
    if target_k == k0:
        return 0.0
    if target_k == k1:
        return 1.0
    return _bisect_for_target(k_of, 0.0, 1.0, target_k)


def solve_feature_height(target_k: float, template: FlexureSpec) -> float:
    """Rib height (meters) at which the template reaches target_k (N/m).

    The template's own feature height is ignored; its width_ratio must be
    positive. Raises PlateauUnreachableError when the target lies at or
    above the plateau supremum.
    """
    if template.ribs is None or template.ribs.width_ratio <= 0:
        raise DesignError("template needs ribs with width_ratio > 0")
    w = template.ribs.width_ratio
    ei_low = section_EI(template.base, template.width).EI
    cube = template.length ** 3
    k0 = 3 * ei_low / cube

    def k_of(height_m: float) -> float:
        ei_high = _ribbed_EI(template, height_m / MM)
        return 3 * _ei_eff(ei_low, ei_high, w) / cube

    supremum = plateau_stiffness(template)
    if target_k >= supremum:
        raise PlateauUnreachableError(
            f"target {target_k:g} N/m is at or above the plateau supremum "
            f"{supremum:g} N/m for width_ratio {w:g}; rib height cannot "
            "reach it", (k0, supremum))
    if target_k < k0:
        raise TargetRangeError(
            f"target {target_k:g} N/m is below the bare-flexure stiffness "
            f"{k0:g} N/m; ribs only stiffen", (k0, supremum))
    if target_k == k0:
        return 0.0
    hi = 1e-3
    while k_of(hi) < target_k:
        hi *= 2
        if hi > 1.0:  # 1 m of rib; the plateau guard makes this unreachable
            raise PlateauUnreachableError(
                f"target {target_k:g} N/m is not reachable by rib height",
                (k0, supremum))
    return _bisect_for_target(k_of, 0.0, hi, target_k)

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

from ._record import Record
from .core import MM, FlexureSpec, LaminateStack
from .errors import DesignError, TargetRangeError
from .joint_limits import _bisect

_REL_TOL = 1e-9
_POINTS_PER_PERIOD = 256  # midpoint samples per rib period, exact model
_PASS_SAMPLES = 1 << 13   # midpoint samples summed per numpy pass
# Most rib periods the exact model integrates, above the ~87,000 of the
# largest ribbed flexure export-geometry meshes (MAX_PART_TRIANGLES).
MAX_RIB_PERIODS = 1 << 17
# Most rib periods one predict-stiffness --sweep integrates over all its
# rows: 64 rows at MAX_RIB_PERIODS.
MAX_SWEEP_PERIODS = 1 << 23


class PlateauUnreachableError(TargetRangeError):
    """Target stiffness lies above the rib-height plateau supremum.

    Raising the ribs cannot reach it: past a few times the base thickness
    the bare segments dominate the compliance, so k(height) saturates at
    ``plateau_stiffness`` (this is exactly the regime where rib height
    stops being a useful control knob).
    """


class FlexureStiffnessResult(Record):
    EI_low: float       # bare-section rigidity, N*m^2
    EI_high: float      # ribbed-section rigidity, N*m^2
    EI_eff: float       # homogenized rigidity, N*m^2
    k_tip: float        # cantilever tip stiffness, N/m

    def __post_init__(self):
        slack = 1 + 1e-9
        if not (self.EI_low <= self.EI_eff * slack
                and self.EI_eff <= self.EI_high * slack and self.k_tip > 0):
            raise DesignError("inconsistent stiffness result")


def section_EI(stack: LaminateStack, width: float) -> float:
    """Transformed-section rigidity (N*m^2) of a laminate cross-section.

    ybar = sum(E_i A_i y_i) / sum(E_i A_i);
    EI   = sum(E_i (I_i + A_i (y_i - ybar)^2)).

    Raises DesignError when the rigidity is not a positive finite float.
    """
    if not width > 0:
        raise DesignError("section width must be positive")
    y0 = 0.0
    ea = eay = 0.0
    rows = []  # (E, A, y_center, I_own)
    try:
        for material, t_mm in stack.layers:
            e, t = material.youngs_modulus, t_mm * MM
            a = width * t
            yc = y0 + t / 2
            rows.append((e, a, yc, width * t ** 3 / 12))
            ea += e * a
            eay += e * a * yc
            y0 += t
        ybar = eay / ea
        ei = sum(e * (i_own + a * (yc - ybar) ** 2)
                 for e, a, yc, i_own in rows)
    except (OverflowError, ZeroDivisionError):
        ei = math.nan
    if not 0 < ei < math.inf:
        raise DesignError("the section rigidity is out of float range")
    return ei


def _ribbed_EI(flex: FlexureSpec, height_mm: float) -> float:
    """Rigidity of the flexure's section under a rib height_mm tall."""
    rib_layer = (flex.resolved_rib_material, height_mm)
    return section_EI(LaminateStack(flex.base.layers + (rib_layer,)),
                      flex.width)


def _section_pair(flex: FlexureSpec) -> tuple[float, float]:
    """(EI_low, EI_high) for the bare and ribbed sections of a flexure."""
    ei_low = section_EI(flex.base, flex.width)
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
    return FlexureStiffnessResult(
        EI_low=ei_low, EI_high=ei_high, EI_eff=ei_eff,
        k_tip=3 * ei_eff / flex.length ** 3)


def rib_periods(flex: FlexureSpec) -> float:
    """The rib periods the exact model spans: the flexure length over the
    rib period, of which it integrates the next integer up."""
    return flex.length / flex.ribs.period - 1e-12


def check_rib_periods(flex: FlexureSpec) -> tuple[float, float]:
    """(EI_low, EI_high) of ``_section_pair``, which raises DesignError for
    a rigidity out of float range. Also raise DesignError if the exact
    model would integrate more than ``MAX_RIB_PERIODS`` rib periods: if the
    flexure spans more, and its ribs change its rigidity (the model
    integrates only then). It imports no numpy."""
    ei_low, ei_high = _section_pair(flex)
    if ei_high != ei_low and (periods := rib_periods(flex)) > MAX_RIB_PERIODS:
        raise DesignError(
            f"exact stiffness spans {periods:.6g} rib periods, more than "
            f"{MAX_RIB_PERIODS}")
    return ei_low, ei_high


def tip_stiffness_exact(flex: FlexureSpec) -> float:
    """Tip stiffness from quadrature over the periodic EI(x) profile.

    k = 1 / integral_0^L (L - x)^2 / EI(x) dx for a tip-loaded cantilever.
    Composite midpoint rule at a fixed 256 samples per rib period, sampled
    segment-aligned (the integrand jumps at rib edges, so sample points
    never straddle a jump). Ribs sit centered within each period. Raises
    DesignError past ``MAX_RIB_PERIODS`` periods (``check_rib_periods``).

    Each segment's samples are summed as one row of a C-contiguous block
    of segments with the same sample count, which rounds as ``np.sum`` of
    that segment alone, and the segments' terms are added left to right.
    """
    ei_low, ei_high = check_rib_periods(flex)
    length = flex.length
    if ei_high == ei_low:
        return 3 * ei_low / length ** 3
    import numpy as np
    period = flex.ribs.period
    w = flex.ribs.width_ratio
    # Each period's bare, ribbed and bare segment, in x order, clipped to
    # the flexure.
    p0 = np.arange(math.ceil(rib_periods(flex))) * period
    a = p0 + (1 - w) * period / 2
    b = p0 + (1 + w) * period / 2
    s0 = np.maximum(np.stack((p0, a, b), axis=1).ravel(), 0.0)
    s1 = np.minimum(np.stack((a, b, p0 + period), axis=1).ravel(), length)
    ei = np.tile((ei_low, ei_high, ei_low), len(p0))
    kept = s1 > s0
    s0, span, ei = s0[kept], (s1 - s0)[kept], ei[kept]
    m = np.maximum(np.rint(_POINTS_PER_PERIOD * span / period), 1).astype(int)
    sums = np.empty(len(span))
    for n in set(m.tolist()):
        rows = np.flatnonzero(m == n)
        at = np.arange(n) + 0.5
        step = _PASS_SAMPLES // n
        for lo in range(0, len(rows), step):
            r = rows[lo:lo + step]
            xs = s0[r, None] + at * span[r, None] / n
            sums[r] = ((length - xs) ** 2).sum(axis=1)
    return 1.0 / float(np.cumsum(sums * span / m / ei)[-1])


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
    ei_low = section_EI(flex.base, flex.width)
    return 3 * ei_low / ((1 - w) * flex.length ** 3)


def _bisect_for_target(k_of, lo: float, hi: float, target: float) -> float:
    def side(x: float) -> float:
        k = k_of(x)
        return 0 if abs(k - target) / target < _REL_TOL else k - target
    return _bisect(side, lo, hi)


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
            f"[{k0:g}, {k1:g}] N/m for this template")
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
    ei_low = section_EI(template.base, template.width)
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
            "reach it")
    if target_k < k0:
        raise TargetRangeError(
            f"target {target_k:g} N/m is below the bare-flexure stiffness "
            f"{k0:g} N/m; ribs only stiffen")
    if target_k == k0:
        return 0.0
    # The search stops at 1 m of rib. The plateau check above lets through
    # targets just below the supremum, and those past k(0.512 m), within
    # ~1.7e-10 relative of it on the sample flexure, end here.
    hi = 1e-3
    while k_of(hi) < target_k:
        hi *= 2
        if hi > 1.0:
            raise PlateauUnreachableError(
                f"target {target_k:g} N/m is not reachable by rib height")
    return _bisect_for_target(k_of, 0.0, hi, target_k)

"""Kinematic quadruped gait model: speed-frequency curves from limb strokes.

Trot abstraction: the four limbs form two diagonal pairs driven half a
cycle apart. Per half-cycle the body advances by the mean stroke of the
stance pair, so one full cycle covers d_A + d_B and

    v(f) = f * (d_A + d_B),

with no slip, no duty-factor model, and no body dynamics. The curve is
exactly linear through the origin by construction.
"""

from __future__ import annotations

import math
from typing import Mapping

from .core import MM, DesignDoc, GaitEntry
from .errors import DesignError
from .limb_sim import limb_from_document, sweep_cycle


def body_speed(gait: GaitEntry, strokes: Mapping[str, float],
               frequency_hz: float) -> float:
    """Body speed (m/s) at the given gait frequency (full cycles per second)
    from each limb's stroke distance (m)."""
    if not frequency_hz >= 0:
        raise DesignError("frequency must be nonnegative")
    missing = [n for n in (*gait.pair_a, *gait.pair_b) if n not in strokes]
    if missing:
        raise DesignError(f"missing stroke metrics for limb(s) {missing}")
    (a0, a1), (b0, b1) = gait.pair_a, gait.pair_b
    speed = frequency_hz * ((strokes[a0] + strokes[a1]) / 2
                            + (strokes[b0] + strokes[b1]) / 2)
    # finite in mm/s too, the unit the speed curve is written in
    if not math.isfinite(speed / MM):
        raise DesignError(f"the body speed at {frequency_hz:g} Hz overflows")
    return speed


def speed_curve(gait: GaitEntry, strokes: Mapping[str, float]
                ) -> tuple[tuple[float, float], ...]:
    """(frequency Hz, body speed m/s) over the gait's frequency list, order
    preserved."""
    return tuple((f, body_speed(gait, strokes, f))
                 for f in gait.frequencies_hz)


def gait_from_document(doc: DesignDoc, steps: int = 101) -> dict[str, float]:
    """Stroke distance (m) of each of the document gait's four limbs; each
    distinct resolved limb is simulated once."""
    if doc.gait is None:
        raise DesignError("document defines no gait")
    strokes, by_limb = {}, {}
    for name in (*doc.gait.pair_a, *doc.gait.pair_b):
        limb = limb_from_document(doc, name)
        if limb not in by_limb:
            by_limb[limb] = sweep_cycle(limb, steps=steps).metrics
        strokes[name] = by_limb[limb].stroke_distance
    return strokes

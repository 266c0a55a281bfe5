"""Trot speed curves: linearity, worked numbers, document resolution."""

import math

import pytest

from flexokit.core import GaitEntry
from flexokit import gait_sim
from flexokit.errors import DesignError
from flexokit.gait_sim import body_speed, gait_from_document, speed_curve
from flexokit.limb_sim import limb_from_document, sweep_cycle

MM = 1e-3


def trot(frequencies=(1.0,)):
    return GaitEntry(("front_left", "hind_right"),
                     ("front_right", "hind_left"), tuple(frequencies))


def test_matched_strokes_give_the_textbook_speed():
    # all four feet sweep 20 mm: one cycle advances 40 mm
    strokes = {"front_left": 20.0, "hind_right": 20.0,
               "front_right": 20.0, "hind_left": 20.0}
    assert body_speed(trot(), strokes, 1.0) == 40.0
    assert body_speed(trot(), strokes, 0.0) == 0.0


def test_mixed_strokes_give_the_textbook_speed():
    # pair means 22 mm and 20 mm; at 2 Hz the body covers 84 mm/s
    strokes = {"front_left": 20.0, "hind_right": 24.0,
               "front_right": 18.0, "hind_left": 22.0}
    assert body_speed(trot(), strokes, 2.0) == 84.0
    # the same numbers in meters agree after unit conversion
    si = {k: v * MM for k, v in strokes.items()}
    assert body_speed(trot(), si, 2.0) == pytest.approx(84.0 * MM, rel=1e-12)


def test_speed_is_exactly_linear_through_the_origin():
    strokes = {"front_left": 17.0, "hind_right": 23.0,
               "front_right": 11.0, "hind_left": 29.0}
    v1 = body_speed(trot(), strokes, 1.0)
    for f in (0.25, 0.5, 2.0, 7.5):
        assert body_speed(trot(), strokes, f) == pytest.approx(f * v1,
                                                               rel=1e-15)
    assert body_speed(trot(), strokes, 0.0) == 0.0


def test_speed_curve_preserves_frequency_order():
    freqs = (2.0, 0.5, 1.0, 0.0)
    strokes = {"front_left": 10.0, "hind_right": 10.0,
               "front_right": 10.0, "hind_left": 10.0}
    points = speed_curve(trot(freqs), strokes)
    assert tuple(f for f, _ in points) == freqs
    assert points[-1] == (0.0, 0.0)


def test_gait_spec_rejects_bad_assignments():
    even = {n: 1.0 for n in ("front_left", "hind_right",
                             "front_right", "hind_left")}
    with pytest.raises(DesignError):
        body_speed(trot(), {"front_left": 10.0, "hind_right": 10.0,
                            "front_right": 10.0}, 1.0)  # hind_left has no stroke
    with pytest.raises(DesignError):
        GaitEntry(("a", "b"), ("b", "c"), (1.0,))
    with pytest.raises(DesignError):
        body_speed(trot(), even, -1.0)
    with pytest.raises(DesignError):
        body_speed(trot(), even, math.nan)
    with pytest.raises(DesignError):
        trot((1.0, -2.0))


def test_document_gait_matches_direct_limb_sweeps(quadruped_doc):
    strokes = gait_from_document(quadruped_doc, steps=101)
    assert set(strokes) == {"front_left", "front_right",
                            "hind_left", "hind_right"}
    for name, stroke in strokes.items():
        cycle = sweep_cycle(limb_from_document(quadruped_doc, name),
                            steps=101)
        assert stroke == cycle.metrics.stroke_distance
    # document frequency list drives the curve
    points = speed_curve(quadruped_doc.gait, strokes)
    assert [f for f, _ in points] == [0.0, 0.5, 1.0, 1.5, 2.0]
    per_cycle = sum(strokes.values()) / 2
    for f, v in points:
        assert v == pytest.approx(f * per_cycle, rel=1e-12, abs=1e-18)


def test_each_distinct_limb_is_simulated_once(quadruped_doc, monkeypatch):
    # the four legs resolve to two equal pairs of LimbSpec values
    swept = []

    def counting_sweep(limb, **kwargs):
        swept.append(limb)
        return sweep_cycle(limb, **kwargs)

    monkeypatch.setattr(gait_sim, "sweep_cycle", counting_sweep)
    strokes = gait_from_document(quadruped_doc, steps=11)
    assert len(strokes) == 4 and len(swept) == 2
    assert swept[0] != swept[1]
    assert limb_from_document(quadruped_doc, "front_left") in swept


def test_document_without_gait_is_rejected(hind_leg_doc):
    with pytest.raises(DesignError):
        gait_from_document(hind_leg_doc)

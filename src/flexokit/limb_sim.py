"""Quasi-static simulation of a tendon-driven multi-joint limb.

Each flexure joint is reduced to a pseudo-rigid body: one torsional spring
with a hard jam cap, between rigid links. One inextensible, frictionless
tendon with a constant moment arm at every joint drives the limb; positive
rotation at a joint with sense +1 shortens the tendon. Pull and release are
elastic mirror images here (tendon friction, which makes the real release
phase lag, is out of scope).

Equilibrium under a given tendon pull is the unique minimizer of the stored
elastic energy sum(k_i theta_i^2 / 2) subject to the tendon constraint
sum(sense_i * r_i * theta_i) = pull and the jam caps. It is found exactly by
an active-set sweep: unjammed joints satisfy k_i theta_i = T r_i, jammed
joints sit at their cap carrying reaction moment at least the elastic one.

A limb (``LimbSpec``) is a set of columns: per segment, base to foot, its
length and whether it is a joint; per joint, the stiffness, jam angle,
routing offset and sense of its pseudo-rigid body. A joint bends as a
constant-curvature arc and a link stays straight, so a cycle computes, per
pull step, only the foot (closed form, arc by arc) and the curvature of
each segment (theta_i / joint_length_i over joint i, zero on links).

Only the functions that compute arrays import numpy, so a document's limbs
resolve (``limb_from_document``) and are checked without it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from ._record import Record
from .core import MM, DesignDoc
from .errors import DesignError, EmptyLimbError, OverPullError, located
from .joint_limits import extensional_jam_angle, flexional_jam_angle
from .stiffness import torsional_stiffness

if TYPE_CHECKING:
    import numpy as np

_CAP_SLACK = 1e-12  # relative; absorbs roundoff at exact jam events
_STRAIGHT = 1e-12   # rad; a joint bent less is taken as straight
# The most cells one cycle may hold, counted as the rows its tables write
# (2 * steps - 1, pull and release) times the arc bins of its curvature map
# plus the segments whose curvature that map repeats. That is 16x the
# 3999 x 64 curvature cells of the benchmark's largest cycle. At the bound
# a hind-leg call peaks at 48 MB resident with 64 bins and 88 MB with 1
# bin (2-vCPU Xeon, numpy 2.4).
MAX_CYCLE_CELLS = 2 ** 22


class LimbSpec(Record):
    """A limb as columns, base to foot, in SI units (caps in radians); the
    base sits at the origin, heading along +x. Per segment: ``lengths`` and
    ``is_joint`` (False for a rigid link). Per joint: ``stiffness``
    (N*m/rad), ``jam_angle`` (the hard cap's magnitude), ``routing_offset``
    (the tendon moment arm) and ``sense`` (+1 if positive rotation shortens
    the tendon)."""

    lengths: tuple[float, ...]
    is_joint: tuple[bool, ...]
    stiffness: tuple[float, ...]
    jam_angle: tuple[float, ...]
    routing_offset: tuple[float, ...]
    sense: tuple[int, ...]

    def __post_init__(self):
        n = sum(self.is_joint)
        if not n:
            raise EmptyLimbError("a limb needs at least one joint")
        k, cap, r = self.stiffness, self.jam_angle, self.routing_offset
        joint_lengths = [s for s, joint in zip(self.lengths, self.is_joint)
                         if joint]
        if not (len(self.lengths) == len(self.is_joint)
                and len(k) == len(cap) == len(r) == len(self.sense) == n
                and all(v > 0 for v in (*k, *cap, *r, *joint_lengths))
                and set(self.sense) <= {1, -1}
                and all(s >= 0 for s in self.lengths)):
            raise DesignError("a limb needs one positive stiffness, jam "
                              "angle, routing offset and length per joint, "
                              "senses of +1 or -1 and nonnegative links")
        # The tendon solve divides pulls by sums of r^2 * (1 / k) and holds
        # a limb at its caps with the largest k * cap / r, both formed here
        # in the solver's order of operations. The foot path and stroke (in
        # mm) stay within twice the limb's length, a joint's arc radius
        # within its length / _STRAIGHT, its curvature within cap / length.
        # Joint i turns at most pull / r_i, so the stroke ratio stays within
        # the length times sum(1 / r).
        compliance = [ri * ri * (1.0 / ki) for ki, ri in zip(k, r)]
        tension = max(ki * ci / ri for ki, ci, ri in zip(k, cap, r))
        if not (min(compliance) > 0 and math.isfinite(sum(compliance))
                and math.isfinite(tension)
                and math.isfinite(self.pull_capacity)
                and math.isfinite(2 * self.total_length / MM)
                and math.isfinite(self.total_length * sum(1 / ri for ri in r))
                and all(math.isfinite(si / _STRAIGHT)
                        and math.isfinite(ci / si)
                        for ci, si in zip(cap, joint_lengths))):
            raise DesignError(
                "lengths, routing offsets and stiffnesses put the limb's "
                "length in mm, arc radius, curvature, tendon compliance, jam "
                "tension, full-jam pull or stroke ratio out of float range")

    @property
    def total_length(self) -> float:
        return sum(self.lengths)

    @property
    def pull_capacity(self) -> float:
        """Largest admissible tendon pull: every joint at its cap."""
        return sum(r * c for r, c in zip(self.routing_offset, self.jam_angle))


class LimbState(Record):
    """Solved equilibrium at one tendon pull."""

    theta: tuple[float, ...]    # signed joint angles, radians
    tension: float              # N
    pull: float                 # m
    jammed: tuple[bool, ...]


class StrokeMetrics(Record):
    stroke_distance: float  # m, horizontal extent of the foot path
    stroke_ratio: float     # stroke_distance / max pull


class CycleResult(Record):
    """One pull-and-release cycle of a limb, one row per pull step."""

    pulls: np.ndarray           # (n_steps,)
    theta: np.ndarray           # (n_steps, n_joints) signed joint angles, rad
    tension: np.ndarray         # (n_steps,) N
    jammed: np.ndarray          # (n_steps, n_joints) bool
    foot_path: np.ndarray       # (n_steps, 2)
    metrics: StrokeMetrics
    kappa: np.ndarray           # (n_steps, n_held) curvature, 1/m, of
                                # each segment that holds a bin
    segment: np.ndarray         # (n_bins,) the kappa column of each bin
    arc_bins: np.ndarray        # (n_bins,) bin-center arc lengths, m

    @property
    def curvature_map(self) -> np.ndarray:
        """(n_steps, n_bins) curvature at each arc bin, 1/m: that of the
        segment holding the bin."""
        return self.kappa[:, self.segment]


def _solve(limb: LimbSpec, pulls):
    """Equilibria at many pulls at once: (theta, tension, jammed, pulls).

    Solved in magnitude space (phi_i = sense_i * theta_i >= 0): starting
    all-elastic, compute each pull's common tension, cap any joint pushed
    past its jam angle, redistribute, repeat; each pull takes at most n + 1
    passes, and pulls sharing a jammed set share its two sums. Pulls come
    back clamped to the jam capacity.
    """
    import numpy as np
    k = np.array(limb.stiffness)
    r = np.array(limb.routing_offset)
    cap = np.array(limb.jam_angle)
    capacity = float(r @ cap)
    pulls = np.asarray(pulls, dtype=float)
    if (pulls < 0).any():
        raise DesignError("tendon pull must be nonnegative")
    over = pulls[pulls > capacity * (1 + 1e-12)]
    if over.size:
        raise OverPullError(f"pull {over[0]:g} m exceeds the limb's jam "
                            f"capacity {capacity:g} m")
    pulls = np.minimum(pulls, capacity)

    jammed = np.zeros((len(pulls), len(k)), dtype=bool)
    phi = np.zeros(jammed.shape)
    tension = np.zeros(len(pulls))
    moving = np.ones(len(pulls), dtype=bool)
    while moving.any():
        # One pass for every unsettled pull with the same jammed set.
        held = jammed[moving.argmax()].copy()
        at = np.flatnonzero(moving & (jammed == held).all(axis=1))
        free = ~held
        if not free.any():
            # Whole limb at its caps; report the smallest tension that
            # still holds every jammed joint against its stop.
            tension[at] = np.max(k * cap / r)
            moving[at] = False
            continue
        t = ((pulls[at] - float(r[held] @ cap[held]))
             / float(r[free] ** 2 @ (1.0 / k[free])))
        tension[at] = t
        # a held joint's elastic angle is not formed: where its stiffness
        # is small it can overflow
        phi[at] = np.where(held, cap, t[:, None] * np.where(held, 0.0, r) / k)
        newly = free & (phi[at] > cap * (1 + _CAP_SLACK))
        jammed[at] |= newly
        moving[at] = newly.any(axis=1)
    phi = np.minimum(phi, cap)
    return np.array(limb.sense) * phi, tension, phi >= cap, pulls


def equilibrium_solve(limb: LimbSpec, pull: float) -> LimbState:
    """Equilibrium joint angles and tendon tension at the given pull.

    One row of the batched active-set solver. Tension is continuous in
    pull; its slope jumps up at every jam event.
    """
    theta, tension, jammed, pulls = _solve(limb, [pull])
    return LimbState(theta=tuple(theta[0].tolist()),
                     tension=float(tension[0]), pull=float(pulls[0]),
                     jammed=tuple(jammed[0].tolist()))


def _foot(limb: LimbSpec, theta: np.ndarray) -> np.ndarray:
    """The foot of each row of joint angles, (rows, 2): links advance along
    the heading, a joint along its constant-curvature arc (straight when
    bent less than _STRAIGHT)."""
    import numpy as np
    x = y = heading = np.zeros(len(theta))
    angles = iter(theta.T)
    for length, bent in zip(limb.lengths, limb.is_joint):
        if not bent:
            x = x + length * np.cos(heading)
            y = y + length * np.sin(heading)
            continue
        th = next(angles)
        straight = np.abs(th) < _STRAIGHT
        radius = length / np.where(straight, 1.0, th)
        x = np.where(straight, x + length * np.cos(heading),
                     x + radius * (np.sin(heading + th) - np.sin(heading)))
        y = np.where(straight, y + length * np.sin(heading),
                     y + radius * (np.cos(heading) - np.cos(heading + th)))
        heading = np.where(straight, heading, heading + th)
    return np.column_stack((x, y))


def cycle_index(steps: int) -> np.ndarray:
    """The pull-grid row of each step of a cycle on a grid of ``steps``
    pulls: up the grid, then back down it, the top step once."""
    import numpy as np
    return np.r_[:steps, steps - 2:-1:-1]


def sweep_cycle(limb: LimbSpec, max_pull: Optional[float] = None,
                steps: int = 101, arc_bins: int = 64) -> CycleResult:
    """Simulate one tendon pull-and-release cycle on a uniform pull grid.

    Each row's solve, foot and curvature read only its own pull, so the
    release is the pull in reverse and the result holds only the ``steps``
    pull rows: ``np.concatenate([a, a[-2::-1]])`` of a per-step array
    ``a`` gives the whole cycle. max_pull defaults to the limb's jam
    capacity (the tendon throw that brings every joint to its stop).
    stroke_distance is the horizontal extent of the foot path over the
    whole cycle; stroke_ratio divides it by max_pull. ``kappa`` holds one
    curvature per pull step and segment that holds an arc-length bin, base
    to foot, and ``segment`` the column of each bin, so the curvature map
    is never built unless ``curvature_map`` is read. A cycle whose
    2 * steps - 1 rows hold more than MAX_CYCLE_CELLS cells is rejected.
    """
    import numpy as np
    if steps < 2:
        raise DesignError("a sweep needs at least 2 steps")
    if arc_bins < 1:
        raise DesignError("a curvature map needs at least 1 arc bin")
    cells = (2 * steps - 1) * (arc_bins + len(limb.lengths))
    if cells > MAX_CYCLE_CELLS:
        raise DesignError(f"a cycle of {steps} steps and {arc_bins} arc bins "
                          f"holds {cells} cells, more than {MAX_CYCLE_CELLS}")
    if max_pull is None:
        max_pull = limb.pull_capacity
    if not max_pull >= 0:
        raise DesignError("max_pull must be nonnegative")
    up = np.linspace(0.0, max_pull, steps)
    theta, tension, jammed, _ = _solve(limb, up)
    foot_path = _foot(limb, theta)
    distance = float(foot_path[:, 0].max() - foot_path[:, 0].min())
    ratio = distance / max_pull if max_pull > 0 else 0.0
    bins = (np.arange(arc_bins) + 0.5) * (limb.total_length / arc_bins)
    lengths, bent = np.array(limb.lengths), np.array(limb.is_joint)
    kappa = np.zeros((steps, len(lengths)))
    kappa[:, bent] = theta / lengths[bent]
    ends = np.cumsum(lengths)
    segment = np.minimum(np.searchsorted(ends, bins, side="right"),
                         len(ends) - 1)
    # only the segments that hold a bin keep their column
    used, segment = np.unique(segment, return_inverse=True)
    kappa = kappa[:, used]
    return CycleResult(pulls=up, theta=theta, tension=tension, jammed=jammed,
                       foot_path=foot_path, kappa=kappa, segment=segment,
                       metrics=StrokeMetrics(distance, ratio), arc_bins=bins)


def limb_from_document(doc: DesignDoc, name: str) -> LimbSpec:
    """Resolve a document limb into a simulation-ready LimbSpec.

    Joint stiffness comes from the referenced flexure via the pseudo-rigid
    -body conversion unless the document gives it explicitly; the jam cap
    comes from the referenced limit geometry unless jam_angle_deg is given.
    """
    if name not in doc.limbs:
        raise DesignError(f"document defines no limb named {name!r}")
    with located(f"limbs.{name}"):
        lengths, is_joint, joints = [], [], []
        for seg in doc.limbs[name].segments:
            is_joint.append(seg.is_joint)
            if not seg.is_joint:
                lengths.append(seg.length_mm * MM)
                continue
            lengths.append(seg.joint_length_mm * MM)
            if seg.torsional_stiffness_nm_per_rad is not None:
                k_theta = seg.torsional_stiffness_nm_per_rad
            else:
                k_theta = torsional_stiffness(doc.flexures[seg.flexure],
                                              lengths[-1])
            if seg.jam_angle_deg is not None:
                cap = math.radians(seg.jam_angle_deg)
            elif seg.flexional_limit is not None:
                cap = flexional_jam_angle(
                    doc.flexional_limits[seg.flexional_limit].spec)
            else:
                cap = extensional_jam_angle(
                    doc.extensional_limits[seg.extensional_limit].spec)
            joints.append((k_theta, cap, seg.routing_offset_mm * MM,
                           seg.sense))
        return LimbSpec(tuple(lengths), tuple(is_joint), *zip(*joints))

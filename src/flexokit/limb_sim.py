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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import MM, DesignDoc, JointEntry, LinkEntry
from .errors import DesignError, EmptyLimbError, OverPullError
from .joint_limits import extensional_jam_angle, flexional_jam_angle
from .stiffness import torsional_stiffness

_CAP_SLACK = 1e-12  # relative; absorbs roundoff at exact jam events
# The most cells one cycle may hold: rows (2 * steps - 1) times the arc bins
# of its curvature map plus the segments of the profile that map is read
# from. That is 16x the 3999 x 64 curvature cells of the benchmark's largest
# cycle. At the bound a hind-leg call peaks at 70 MB resident with 64 bins
# and 142 MB with 1 bin (2-vCPU Xeon, numpy 2.4).
MAX_CYCLE_CELLS = 2 ** 22


@dataclass(frozen=True)
class JointDef:
    """One pseudo-rigid-body joint. SI units, cap in radians."""

    torsional_stiffness: float   # N*m/rad
    joint_length: float          # m
    jam_angle: float             # rad, magnitude of the hard cap
    routing_offset: float        # m, tendon moment arm
    sense: int = 1               # +1 if positive rotation shortens the tendon

    def __post_init__(self):
        if not (self.torsional_stiffness > 0 and self.joint_length > 0
                and self.jam_angle > 0 and self.routing_offset > 0):
            raise DesignError("joint parameters must be positive")
        if self.sense not in (1, -1):
            raise DesignError("joint sense must be +1 or -1")


@dataclass(frozen=True)
class Link:
    """Rigid link of a limb."""

    length: float  # m

    def __post_init__(self):
        if self.length < 0:
            raise DesignError("link length must be nonnegative")


@dataclass(frozen=True)
class LimbSpec:
    """Alternating rigid links and joints, base to foot; the base sits at
    the origin, heading along +x."""

    segments: tuple[Union[Link, JointDef], ...]

    def __post_init__(self):
        joints = self.joints
        if not joints:
            raise EmptyLimbError("a limb needs at least one joint")
        # The tendon solve divides pulls by sums of r^2 * (1 / k) and holds
        # a limb at its caps with the largest k * cap / r, both formed here
        # in the solver's order of operations.
        compliance = [j.routing_offset * j.routing_offset
                      * (1.0 / j.torsional_stiffness) for j in joints]
        tension = max(j.torsional_stiffness * j.jam_angle / j.routing_offset
                      for j in joints)
        if not (min(compliance) > 0 and math.isfinite(sum(compliance))
                and math.isfinite(tension)
                and math.isfinite(self.pull_capacity)):
            raise DesignError(
                "routing offsets and stiffnesses put the limb's tendon "
                "compliance, jam tension or full-jam pull out of float range")

    @property
    def joints(self) -> tuple[JointDef, ...]:
        return tuple(s for s in self.segments if isinstance(s, JointDef))

    @property
    def total_length(self) -> float:
        return sum(s.length if isinstance(s, Link) else s.joint_length
                   for s in self.segments)

    @property
    def pull_capacity(self) -> float:
        """Largest admissible tendon pull: every joint at its cap."""
        return sum(j.routing_offset * j.jam_angle for j in self.joints)


@dataclass(frozen=True)
class LimbState:
    """Solved equilibrium at one tendon pull."""

    theta: tuple[float, ...]    # signed joint angles, radians
    tension: float              # N
    pull: float                 # m
    jammed: tuple[bool, ...]


@dataclass(frozen=True)
class StrokeMetrics:
    stroke_distance: float  # m, horizontal extent of the foot path
    stroke_ratio: float     # stroke_distance / max pull


@dataclass(frozen=True)
class CycleResult:
    """One pull-and-release cycle of a limb, one row per step."""

    pulls: np.ndarray           # (n_steps,)
    theta: np.ndarray           # (n_steps, n_joints) signed joint angles, rad
    tension: np.ndarray         # (n_steps,) N
    jammed: np.ndarray          # (n_steps, n_joints) bool
    foot_path: np.ndarray       # (n_steps, 2)
    metrics: StrokeMetrics
    curvature_map: np.ndarray   # (n_steps, n_bins), 1/m
    arc_bins: np.ndarray        # (n_bins,) bin-center arc lengths, m


def _solve(limb: LimbSpec, pulls):
    """Equilibria at many pulls at once: (theta, tension, jammed, pulls).

    Solved in magnitude space (phi_i = sense_i * theta_i >= 0): starting
    all-elastic, compute each pull's common tension, cap any joint pushed
    past its jam angle, redistribute, repeat; each pull takes at most n + 1
    passes, and pulls sharing a jammed set share its two sums. Pulls come
    back clamped to the jam capacity.
    """
    joints = limb.joints
    k = np.array([j.torsional_stiffness for j in joints])
    r = np.array([j.routing_offset for j in joints])
    cap = np.array([j.jam_angle for j in joints])
    capacity = float(r @ cap)
    pulls = np.asarray(pulls, dtype=float)
    if (pulls < 0).any():
        raise DesignError("tendon pull must be nonnegative")
    over = pulls[pulls > capacity * (1 + 1e-12)]
    if over.size:
        raise OverPullError(f"pull {over[0]:g} m exceeds the limb's jam "
                            f"capacity {capacity:g} m")
    pulls = np.minimum(pulls, capacity)

    jammed = np.zeros((len(pulls), len(joints)), dtype=bool)
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
        phi[at] = np.where(held, cap, t[:, None] * r / k)
        newly = free & (phi[at] > cap * (1 + _CAP_SLACK))
        jammed[at] |= newly
        moving[at] = newly.any(axis=1)
    phi = np.minimum(phi, cap)
    sense = np.array([j.sense for j in joints])
    return sense * phi, tension, phi >= cap, pulls


def equilibrium_solve(limb: LimbSpec, pull: float) -> LimbState:
    """Equilibrium joint angles and tendon tension at the given pull.

    One row of the batched active-set solver. Tension is continuous in
    pull; its slope jumps up at every jam event.
    """
    theta, tension, jammed, pulls = _solve(limb, [pull])
    return LimbState(theta=tuple(theta[0].tolist()),
                     tension=float(tension[0]), pull=float(pulls[0]),
                     jammed=tuple(jammed[0].tolist()))


def _angle_row(limb: LimbSpec, theta) -> np.ndarray:
    theta = np.array([theta], dtype=float)
    if theta.shape[1] != len(limb.joints):
        raise DesignError(f"expected {len(limb.joints)} joint angles, "
                          f"got {theta.shape[1]}")
    return theta


def _chain(limb: LimbSpec, theta: np.ndarray, arc_points: int) -> list:
    """Chain points, base to foot: (x, y) arrays with one value per row.

    Joint rotations spread uniformly along each joint (constant-curvature
    arcs sampled every ``joint_length / arc_points``); links stay straight.
    The last point, the foot, is closed-form and independent of arc_points.
    """
    x = y = heading = np.zeros(len(theta))
    points = [(x, y)]
    angles = iter(theta.T)
    for seg in limb.segments:
        if isinstance(seg, Link):
            x = x + seg.length * np.cos(heading)
            y = y + seg.length * np.sin(heading)
            if seg.length > 0:
                points.append((x, y))
            continue
        th = next(angles)
        straight = np.abs(th) < 1e-12
        radius = seg.joint_length / np.where(straight, 1.0, th)
        x0, y0, h0 = x, y, heading
        for i in range(1, arc_points + 1):
            t = i / arc_points
            x = np.where(straight, x0 + t * seg.joint_length * np.cos(h0),
                         x0 + radius * (np.sin(h0 + t * th) - np.sin(h0)))
            y = np.where(straight, y0 + t * seg.joint_length * np.sin(h0),
                         y0 + radius * (np.cos(h0) - np.cos(h0 + t * th)))
            points.append((x, y))
        heading = np.where(straight, h0, h0 + th)
    return points


def forward_kinematics(limb: LimbSpec,
                       theta) -> tuple[np.ndarray, tuple[float, float]]:
    """Planar chain pose: the polyline (see ``_chain``, 16 points per
    joint) and its endpoint, the foot."""
    points = _chain(limb, _angle_row(limb, theta), 16)
    polyline = np.array([(x[0], y[0]) for x, y in points])
    return polyline, tuple(polyline[-1].tolist())


def _profile(limb: LimbSpec, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arc length at each segment's far end, and curvature (rows, segments):
    theta_i / joint_length_i over joint i, zero on links."""
    lengths = [s.length if isinstance(s, Link) else s.joint_length
               for s in limb.segments]
    bent = [isinstance(s, JointDef) for s in limb.segments]
    kappa = np.zeros((len(theta), len(lengths)))
    kappa[:, bent] = theta / np.array(lengths)[bent]
    return np.cumsum(lengths), kappa


def curvature_profile(limb: LimbSpec, theta) -> list[tuple[float, float, float]]:
    """Piecewise-constant curvature along the limb.

    Returns (arc_start, arc_end, curvature) per segment, base to foot.
    Curvature over joint i is theta_i / joint_length_i, zero on links, so
    integrating each joint's span recovers theta_i exactly.
    """
    ends, kappa = _profile(limb, _angle_row(limb, theta))
    ends = ends.tolist()
    return list(zip([0.0] + ends[:-1], ends, kappa[0].tolist()))


def sweep_cycle(limb: LimbSpec, max_pull: Optional[float] = None,
                steps: int = 101, arc_bins: int = 64) -> CycleResult:
    """Simulate one tendon pull-and-release cycle on a uniform pull grid.

    max_pull defaults to the limb's jam capacity (the tendon throw that
    brings every joint to its stop). stroke_distance is the horizontal
    extent of the foot path over the whole cycle; stroke_ratio divides it
    by max_pull. The curvature map has one row per cycle step and one
    column per arc-length bin, read from the segment holding the bin. A
    cycle of more than MAX_CYCLE_CELLS cells is rejected.
    """
    if steps < 2:
        raise DesignError("a sweep needs at least 2 steps")
    if arc_bins < 1:
        raise DesignError("a curvature map needs at least 1 arc bin")
    cells = (2 * steps - 1) * (arc_bins + len(limb.segments))
    if cells > MAX_CYCLE_CELLS:
        raise DesignError(f"a cycle of {steps} steps and {arc_bins} arc bins "
                          f"holds {cells} cells, more than {MAX_CYCLE_CELLS}")
    if max_pull is None:
        max_pull = limb.pull_capacity
    if not max_pull >= 0:
        raise DesignError("max_pull must be nonnegative")
    # Each row's solve, chain and profile read only its own pull, so the
    # release rows are the pull rows in reverse: solve the pull grid and
    # mirror every per-step array once.
    up = np.linspace(0.0, max_pull, steps)
    theta, tension, jammed, _ = _solve(limb, up)
    foot_path = np.column_stack(_chain(limb, theta, 1)[-1])
    distance = float(foot_path[:, 0].max() - foot_path[:, 0].min())
    ratio = distance / max_pull if max_pull > 0 else 0.0
    bins = (np.arange(arc_bins) + 0.5) * (limb.total_length / arc_bins)
    ends, kappa = _profile(limb, theta)
    segment = np.minimum(np.searchsorted(ends, bins, side="right"),
                         len(ends) - 1)
    cycle = np.r_[:steps, steps - 2:-1:-1]
    return CycleResult(pulls=up[cycle], theta=theta[cycle],
                       tension=tension[cycle], jammed=jammed[cycle],
                       foot_path=foot_path[cycle],
                       metrics=StrokeMetrics(distance, ratio),
                       curvature_map=kappa[cycle][:, segment], arc_bins=bins)


def limb_from_document(doc: DesignDoc, name: str) -> LimbSpec:
    """Resolve a document limb into a simulation-ready LimbSpec.

    Joint stiffness comes from the referenced flexure via the pseudo-rigid
    -body conversion unless the document gives it explicitly; the jam cap
    comes from the referenced limit geometry unless jam_angle_deg is given.
    """
    if name not in doc.limbs:
        raise DesignError(f"document defines no limb named {name!r}")
    segments = []
    for seg in doc.limbs[name].segments:
        if isinstance(seg, LinkEntry):
            segments.append(Link(seg.length_mm * MM))
            continue
        assert isinstance(seg, JointEntry)
        joint_length = seg.joint_length_mm * MM
        if seg.torsional_stiffness_nm_per_rad is not None:
            k_theta = seg.torsional_stiffness_nm_per_rad
        else:
            k_theta = torsional_stiffness(doc.flexures[seg.flexure],
                                          joint_length)
        if seg.jam_angle_deg is not None:
            cap = math.radians(seg.jam_angle_deg)
        elif seg.flexional_limit is not None:
            cap = flexional_jam_angle(
                doc.flexional_limits[seg.flexional_limit].spec)
        else:
            cap = extensional_jam_angle(
                doc.extensional_limits[seg.extensional_limit].spec)
        segments.append(JointDef(torsional_stiffness=k_theta,
                                 joint_length=joint_length,
                                 jam_angle=cap,
                                 routing_offset=seg.routing_offset_mm * MM,
                                 sense=seg.sense))
    return LimbSpec(tuple(segments))

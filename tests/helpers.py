"""Test-local oracles: STL decoding, polygon and triangle measures, random
limbs, the foot and curvature of a limb at given joint angles, energy
bookkeeping, the per-period exact stiffness quadrature; and a stand-in
for the limb solve that checks a call's bounds without running it.

Everything here is independent of the package internals on purpose; the
STL reader, the measures, the limb shape and the energy helpers only use
math/struct/numpy so they can catch mistakes in the production encoders,
meshers and solvers.
"""

import math
import struct

import numpy as np

from flexokit.limb_sim import LimbSpec, equilibrium_solve
from flexokit.stiffness import homogenized_EI


def read_stl(path):
    """Decode a binary STL into (header, normals, triangles, attributes).

    normals and triangles come back as float32 arrays exactly as stored,
    shaped (n, 3) and (n, 3, 3).
    """
    blob = path.read_bytes()
    header = blob[:80]
    (count,) = struct.unpack_from("<I", blob, 80)
    assert len(blob) == 84 + 50 * count, "byte length disagrees with count"
    normals = np.empty((count, 3), dtype=np.float32)
    tris = np.empty((count, 3, 3), dtype=np.float32)
    attrs = []
    offset = 84
    for i in range(count):
        values = struct.unpack_from("<12fH", blob, offset)
        normals[i] = values[0:3]
        tris[i] = np.reshape(values[3:12], (3, 3))
        attrs.append(values[12])
        offset += 50
    return header, normals, tris, attrs


def regular_polygon_area(radius, facets):
    """Area of the regular polygon inscribed in a circle of ``radius``."""
    return 0.5 * facets * radius ** 2 * math.sin(2 * math.pi / facets)


def _edge_cross(tri):
    tri = np.asarray(tri, dtype=np.float64)
    return np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])


def triangle_areas(tri):
    """Area of each triangle of an (n, 3, 3) array."""
    return 0.5 * np.linalg.norm(_edge_cross(tri), axis=1)


def unit_normals(tri):
    """Unit normal of each triangle of an (n, 3, 3) array, along
    (v1 - v0) x (v2 - v0)."""
    cross = _edge_cross(tri)
    return cross / np.linalg.norm(cross, axis=1, keepdims=True)


def si_limb(links, stiffness, joint_length, jam_angle, routing_offset,
            sense=None) -> LimbSpec:
    """A LimbSpec from SI values, joint by joint: link ``links[i]`` (m)
    comes before joint i, and ``links`` holds one more length when a link
    follows the last joint. Senses default to +1."""
    lengths, is_joint = [], []
    for i, link in enumerate(links):
        lengths.append(link)
        is_joint.append(False)
        if i < len(joint_length):
            lengths.append(joint_length[i])
            is_joint.append(True)
    return LimbSpec(tuple(lengths), tuple(is_joint), tuple(stiffness),
                    tuple(jam_angle), tuple(routing_offset),
                    tuple(sense or [1] * len(stiffness)))


def random_limb(rng, n_joints=None, equal_offsets=False,
                wide_caps=False) -> LimbSpec:
    """A physically sensible random limb: mm-scale links, Nmm/rad joints."""
    if n_joints is None:
        n_joints = int(rng.integers(1, 5))
    links = [float(rng.uniform(0.005, 0.03))]
    shared_offset = float(rng.uniform(0.001, 0.008))
    joints = []
    for _ in range(n_joints):
        cap_deg = rng.uniform(60.0, 170.0) if wide_caps else rng.uniform(5.0, 120.0)
        joints.append((float(rng.uniform(0.005, 0.1)),
                       float(rng.uniform(0.005, 0.025)),
                       float(np.radians(cap_deg)),
                       shared_offset if equal_offsets
                       else float(rng.uniform(0.001, 0.008)),
                       int(rng.choice((-1, 1)))))
        links.append(float(rng.uniform(0.005, 0.03)))
    return si_limb(links, *zip(*joints))


def foot_point(limb: LimbSpec, theta) -> tuple[float, float]:
    """The foot at joint angles ``theta``, base at the origin heading along
    +x: each link straight, each joint a constant-curvature arc, straight
    when bent less than 1e-12 rad."""
    x = y = heading = 0.0
    angles = iter(theta)
    for length, bent in zip(limb.lengths, limb.is_joint):
        th = next(angles) if bent else 0.0
        if abs(th) < 1e-12:
            x += length * math.cos(heading)
            y += length * math.sin(heading)
        else:
            radius = length / th
            x += radius * (math.sin(heading + th) - math.sin(heading))
            y += radius * (math.cos(heading) - math.cos(heading + th))
            heading += th
    return x, y


def curvature_at(limb: LimbSpec, theta, s) -> float:
    """Curvature at arc length ``s`` from the base: theta_i / length_i over
    joint i, zero on links; a segment holds [start, end), and past the foot
    the last segment's curvature holds."""
    angles = iter(theta)
    end = 0.0
    for length, bent in zip(limb.lengths, limb.is_joint):
        kappa = next(angles) / length if bent else 0.0
        end += length
        if s < end:
            break
    return kappa


def elastic_energy(limb: LimbSpec, theta) -> float:
    return sum(0.5 * k * t ** 2 for k, t in zip(limb.stiffness, theta))


def jam_event_pulls(limb: LimbSpec):
    """Tendon pulls at which each joint reaches its cap during loading.

    During monotone loading every unjammed joint carries the common tension
    T, so its magnitude is min(cap, T*r/k) and the pull consumed at tension
    T follows in closed form. Joint j jams at T = k_j*cap_j/r_j.
    """
    k = np.array(limb.stiffness)
    r = np.array(limb.routing_offset)
    cap = np.array(limb.jam_angle)
    pulls = []
    for t_star in k * cap / r:
        pulls.append(float(np.sum(r * np.minimum(cap, t_star * r / k))))
    return sorted(pulls)


def tendon_work(limb: LimbSpec, max_pull: float, base_steps: int = 1001) -> float:
    """Trapezoid integral of tension over pull on a jam-aligned grid.

    Tension is piecewise linear in pull with kinks only at jam events, so
    inserting those pulls makes the trapezoid rule exact up to roundoff.
    """
    grid = np.linspace(0.0, max_pull, base_steps)
    events = [p for p in jam_event_pulls(limb) if 0.0 < p < max_pull]
    grid = np.union1d(grid, np.array(events))
    tensions = [equilibrium_solve(limb, float(p)).tension for p in grid]
    return float(np.trapezoid(tensions, grid))


def grid_search_two_joint(limb: LimbSpec, pull: float, points: int = 200001):
    """Brute-force energy minimizer for a 2-joint limb at one pull.

    Scans the feasible segment of the tendon constraint line in magnitude
    space and returns (phi_1, phi_2, energy) at the grid minimum.
    """
    k1, k2 = limb.stiffness
    cap1, cap2 = limb.jam_angle
    r1, r2 = limb.routing_offset
    lo = max(0.0, (pull - r2 * cap2) / r1)
    hi = min(cap1, pull / r1)
    assert hi >= lo, "pull infeasible for this limb"
    phi1 = np.linspace(lo, hi, points)
    phi2 = (pull - r1 * phi1) / r2
    energy = 0.5 * k1 * phi1 ** 2 + 0.5 * k2 * phi2 ** 2
    i = int(np.argmin(energy))
    return float(phi1[i]), float(phi2[i]), float(energy[i])


class Solved(Exception):
    """Raised in place of a limb solve: the call passed its bounds."""


def solve_raises(monkeypatch):
    """Make every limb solve raise Solved, so a call at a bound is checked
    without running its cycle."""
    from flexokit import limb_sim

    def solve(limb, pulls):
        raise Solved

    monkeypatch.setattr(limb_sim, "_solve", solve)


def tip_stiffness_per_period(flex) -> float:
    """``stiffness.tip_stiffness_exact`` as one loop step per rib period.

    The same midpoint rule, 256 samples per period, each segment summed by
    its own ``np.sum`` and the segments added left to right; the array
    version must equal it bit for bit.
    """
    result = homogenized_EI(flex)
    ei_low, ei_high = result.EI_low, result.EI_high
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
            m = max(1, round(256 * (s1 - s0) / period))
            xs = s0 + (np.arange(m) + 0.5) * (s1 - s0) / m
            total += float(np.sum((length - xs) ** 2)) * (s1 - s0) / m / ei
    return 1.0 / total

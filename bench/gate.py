"""Correctness gate: checks every invocation's outputs outside the timed
region.

The checks recompute what they compare against from the document and the
command line, not from the package: jam caps by their own bisection or
closed form, STL by decoding the bytes, process codes from the documented
windows. A gait's speeds are checked against its legs' strokes, which the
gate gets by running ``simulate-limb`` on each leg itself and checking
those outputs too. Bundled documents are also compared with output digests
recorded at the commit that defined the benchmark (``digests.json``); the
manifest's ``generated_at`` line is the one part left out.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # workloads imports the program, which run.py locates
    from workloads import Item, Pool

DIGESTS = Path(__file__).resolve().parent / "digests.json"

MM = 1e-3
# Reference feature dimensions the CLI uses when no flag overrides them.
_LIMIT_DEFAULTS = {
    "flexional": {"spacing_mm": 6.0, "head_radius_mm": 2.0,
                  "stem_height_mm": 4.0},
    "extensional": {"diagonal_mm": 7.0, "base_width_mm": 5.4,
                    "tip_radius_mm": 1.8, "mount_height_mm": 2.0,
                    "incline_deg": 45.0},
}
_SWEEP_FIELDS = {"h": "stem_height_mm", "L": "diagonal_mm"}
_NOZZLE_C = {"PLA": 215.0, "ABS": 240.0}


class GateError(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= max(rel * abs(b), abs_tol)


def flexional_cap(spacing: float, head_radius: float, stem: float) -> float:
    """Root of a * (stem + head_radius / sin(a / 2)) = spacing on (0, pi)."""
    lo, hi = 1e-12, math.pi - 1e-12
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if mid * (stem + head_radius / math.sin(mid / 2)) < spacing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def extensional_cap(diagonal: float, base_width: float, tip_radius: float,
                    mount_height: float, incline_deg: float) -> float:
    incline = math.radians(incline_deg)
    gap = 2 * diagonal * math.cos(incline) - base_width - 2 * tip_radius
    return gap / (diagonal * math.sin(incline) + mount_height)


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text("utf-8").splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows, dtype=np.float64)


def output_digests(out_dir: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            data = b"\n".join(line for line in data.split(b"\n")
                              if b'"generated_at"' not in line)
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def decode_stl(data: bytes) -> tuple[bytes, np.ndarray, np.ndarray,
                                     np.ndarray]:
    """(header, normals, triangles, attributes) of a binary STL."""
    _require(len(data) >= 84, "STL shorter than its header")
    count = int(np.frombuffer(data, "<u4", 1, 80)[0])
    _require(len(data) == 84 + 50 * count,
             f"STL is {len(data)} bytes, header says {count} triangles")
    record = np.dtype([("normal", "<f4", 3), ("vertices", "<f4", (3, 3)),
                       ("attribute", "<u2")])
    rows = np.frombuffer(data, record, count, 84)
    return data[:80], rows["normal"], rows["vertices"], rows["attribute"]


def check_mesh(triangles: np.ndarray, normals: np.ndarray) -> float:
    """Raise unless the mesh is a closed, consistently wound shell whose
    stored normals match its winding; returns its volume."""
    n = len(triangles)
    _require(n > 0, "empty mesh")
    vertices = np.ascontiguousarray(triangles.reshape(-1, 3))
    _, ids = np.unique(vertices.view(np.dtype((np.void, 12))).ravel(),
                       return_inverse=True)
    ids = ids.reshape(n, 3).astype(np.int64)
    _require(bool(np.all((ids[:, 0] != ids[:, 1]) & (ids[:, 1] != ids[:, 2])
                         & (ids[:, 0] != ids[:, 2]))),
             "triangle with repeated vertices")
    a, b = ids, np.roll(ids, -1, axis=1)
    span = int(ids.max()) + 1
    directed = (a * span + b).ravel()
    reverse = (b * span + a).ravel()
    _require(len(np.unique(directed)) == len(directed),
             "directed edge used twice: inconsistent winding")
    _require(np.array_equal(np.sort(directed), np.sort(reverse)),
             "open edge: mesh is not watertight")
    tri = triangles.astype(np.float64)
    tri = tri - tri.reshape(-1, 3).mean(axis=0)
    cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    unit = cross / np.linalg.norm(cross, axis=1, keepdims=True)
    _require(bool(np.all(np.einsum("ij,ij->i", unit, normals) > 0.9999)),
             "stored normal disagrees with the triangle winding")
    return float(np.einsum("ij,ij->i", tri[:, 0],
                           np.cross(tri[:, 1], tri[:, 2])).sum() / 6.0)


class Gate:
    """Checks one pool's invocations. ``simulate(item, out_dir)`` runs an
    invocation of the program and returns (exit code, stdout, stderr); the
    gate uses it for the reference legs of a gait."""

    def __init__(self, pool: Pool, digests: dict[str, dict[str, str]],
                 version: str, simulate: Callable, work: Path):
        self.docs = {}
        for key, text in pool.docs.items():
            try:
                self.docs[key] = json.loads(text)
            except json.JSONDecodeError:
                self.docs[key] = None
        self.digests = digests
        self.header = f"flexokit {version} binary STL".encode().ljust(80)
        self.simulate, self.work = simulate, work
        self.strokes: dict[tuple[str, str, int], float] = {}

    def check(self, item: Item, out_dir: Path, rc, stdout: str,
              stderr: str) -> None:
        """Raise GateError (or any error reading the outputs) on failure."""
        _require(rc == item.expect_rc,
                 f"exit {rc}, expected {item.expect_rc}: "
                 f"{stderr.strip()[-300:]}")
        if item.expect_rc == 2:
            self._check_rejected(out_dir, stdout, stderr)
            return
        _require(not stderr, f"unexpected stderr: {stderr[:300]}")
        getattr(self, "_check_" + item.subcommand.replace("-", "_"))(
            item, out_dir, stdout)
        if item.bundled:
            expected = self.digests.get(item.key)
            _require(expected is not None, "no recorded digest")
            _require(output_digests(out_dir) == expected,
                     "output bytes differ from the recorded digests")

    @staticmethod
    def _check_rejected(out_dir: Path, stdout: str, stderr: str) -> None:
        _require(stderr.endswith("\n") and stderr.count("\n") == 1,
                 f"diagnostic is not one line: {stderr[:300]!r}")
        diagnostic = json.loads(stderr)
        _require(isinstance(diagnostic, dict)
                 and set(diagnostic) == {"error", "message"},
                 f"diagnostic lacks error and message: {stderr[:300]}")
        _require("wrote" not in stdout and (not out_dir.exists()
                                            or not any(out_dir.iterdir())),
                 "a rejected document produced output files")

    # -- limbs and gaits ---------------------------------------------------

    def _joints(self, doc: dict, limb: str) -> list[tuple[float, int, float]]:
        """(routing offset mm, sense, cap rad) per joint, base to foot."""
        joints = []
        for segment in doc["limbs"][limb]["segments"]:
            if "joint" not in segment:
                continue
            joint = segment["joint"]
            if "jam_angle_deg" in joint:
                cap = math.radians(joint["jam_angle_deg"])
            elif "flexional_limit" in joint:
                f = doc["flexional_limits"][joint["flexional_limit"]]
                cap = flexional_cap(f["spacing_mm"], f["head_radius_mm"],
                                    f["stem_height_mm"])
            else:
                e = doc["extensional_limits"][joint["extensional_limit"]]
                cap = extensional_cap(e["diagonal_mm"], e["base_width_mm"],
                                      e["tip_radius_mm"],
                                      e["mount_height_mm"], e["incline_deg"])
            joints.append((joint["routing_offset_mm"],
                           joint.get("sense", 1), cap))
        return joints

    def _check_simulate_limb(self, item: Item, out_dir: Path, _) -> float:
        """Check one limb cycle's outputs; returns its stroke in mm."""
        limb, steps = item.facts["limb"], item.facts["steps"]
        joints = self._joints(self.docs[item.doc], limb)
        r = np.array([j[0] for j in joints])
        sense = np.array([j[1] for j in joints])
        cap = np.array([j[2] for j in joints])
        capacity = float(r @ cap)
        n = len(joints)

        header, rows = _read_csv(out_dir / f"{limb}_trajectory.csv")
        _require(header == ["pull_mm", "foot_x_mm", "foot_y_mm",
                            *(f"theta_{i}_rad" for i in range(n)),
                            "tension_N"], f"trajectory header {header}")
        _require(rows.shape == (2 * steps - 1, n + 4),
                 f"trajectory shape {rows.shape}")
        pull, foot_x, theta, tension = rows[:, 0], rows[:, 1], \
            rows[:, 3:3 + n], rows[:, -1]
        _require(bool(np.all(np.isfinite(rows))), "non-finite trajectory")
        _require(_close(float(pull.max()), capacity, 1e-9),
                 f"peak pull {pull.max()} mm, jam capacity {capacity} mm")
        _require(bool(np.all(np.abs(theta @ (sense * r) - pull)
                             <= 1e-9 * capacity)),
                 "a row breaks the tendon constraint")
        _require(bool(np.all(np.abs(theta) <= cap * (1 + 1e-9))),
                 "a joint passes its jam cap")
        _require(bool(np.all(theta * sense >= -1e-12)),
                 "a joint turns against the tendon")
        _require(bool(np.all(tension >= 0)), "negative tension")

        bins = item.facts.get("arc_bins", 64)
        header, kappa = _read_csv(out_dir / f"{limb}_curvature.csv")
        _require(kappa.shape == (2 * steps - 1, 1 + bins)
                 and len(header) == 1 + bins
                 and np.array_equal(kappa[:, 0], pull),
                 f"curvature shape {kappa.shape}")

        metrics = json.loads((out_dir / f"{limb}_metrics.json").read_text())
        stroke = metrics["stroke_distance_mm"]
        _require(_close(stroke, float(np.ptp(foot_x)), 1e-9, 1e-12),
                 f"stroke {stroke} mm, foot x range {np.ptp(foot_x)} mm")
        _require(_close(metrics["stroke_ratio"], stroke / capacity, 1e-9,
                        1e-12), "stroke ratio is not stroke / max pull")
        return stroke

    def _stroke(self, doc: str, limb: str, steps: int) -> float:
        """A leg's stroke from a checked ``simulate-limb`` run of the gate's
        own, made once per distinct leg definition (mirrored twins share
        one). One curvature bin keeps the reference cheap; the stroke does
        not depend on it."""
        from workloads import Item
        key = (doc, json.dumps(self.docs[doc]["limbs"][limb],
                               sort_keys=True), steps)
        if key not in self.strokes:
            item = Item("simulate-limb", ["--limb", limb, "--steps",
                                          str(steps), "--arc-bins", "1"],
                        doc=doc, facts={"limb": limb, "steps": steps,
                                        "arc_bins": 1})
            out_dir = self.work / f"reference{len(self.strokes)}"
            rc, stdout, stderr = self.simulate(item, out_dir)
            _require(rc == 0 and not stderr,
                     f"reference leg {limb}: exit {rc}: {stderr[-300:]}")
            self.strokes[key] = self._check_simulate_limb(item, out_dir,
                                                          stdout)
        return self.strokes[key]

    def _check_simulate_gait(self, item: Item, out_dir: Path, _) -> None:
        gait = self.docs[item.doc]["gait"]
        (a0, a1), (b0, b1) = gait["pair_a"], gait["pair_b"]
        s = {limb: self._stroke(item.doc, limb, item.facts["steps"])
             for limb in (a0, a1, b0, b1)}
        header, rows = _read_csv(out_dir / "gait_speed.csv")
        _require(header == ["frequency_hz", "speed_mm_s"]
                 and rows.shape == (len(gait["frequencies_hz"]), 2)
                 and list(rows[:, 0]) == gait["frequencies_hz"],
                 "gait curve does not list the document's frequencies")
        for f, speed in rows:
            expected = f * ((s[a0] + s[a1]) / 2 + (s[b0] + s[b1]) / 2)
            _require(_close(speed, expected, 1e-12, 1e-12),
                     f"speed {speed} at {f} Hz, expected f*(dA+dB) "
                     f"= {expected}")

    # -- geometry ----------------------------------------------------------

    def _check_export_geometry(self, item: Item, out_dir: Path, _) -> None:
        parts = self.docs[item.doc]["export"]["parts"]
        expected_files = set()
        triangles = 0
        for part in parts:
            stl_path = out_dir / part["file"]
            manifest_path = out_dir / (Path(part["file"]).stem
                                       + ".manifest.json")
            expected_files |= {stl_path.name, manifest_path.name}
            data = stl_path.read_bytes()
            manifest = json.loads(manifest_path.read_text())
            header, normals, tris, attributes = decode_stl(data)
            _require(header == self.header, f"STL header {header[:40]!r}")
            _require(len(tris) == manifest["triangle_count"]
                     and len(data) == manifest["stl_bytes"],
                     f"{part['file']}: manifest counts disagree with STL")
            _require(not attributes.any(), "non-zero STL attribute word")
            _require(manifest["part_name"] == part["ref"], "part name")
            volume = check_mesh(tris, normals)
            _require(_close(volume, manifest["volume_mm3"], 1e-4),
                     f"{part['file']}: decoded volume {volume}, manifest "
                     f"{manifest['volume_mm3']}")
            points = tris.reshape(-1, 3)
            _require(np.allclose(points.min(axis=0),
                                 manifest["bbox_mm"]["min"], atol=1e-3)
                     and np.allclose(points.max(axis=0),
                                     manifest["bbox_mm"]["max"], atol=1e-3),
                     f"{part['file']}: bounding box")
            triangles += len(tris)
        _require({p.name for p in out_dir.iterdir()} == expected_files,
                 "unexpected set of output files")
        if "triangles" in item.facts:
            _require(triangles == item.facts["triangles"],
                     f"{triangles} triangles, documents imply "
                     f"{item.facts['triangles']}")

    # -- design-time subcommands -------------------------------------------

    def _check_validate(self, item: Item, out_dir: Path, stdout: str) -> None:
        report = json.loads((out_dir / "validation_report.json").read_text())
        _require(report["document"] == item.doc
                 and report["schema_version"] == 1, "report header")
        process = self.docs[item.doc]["process"]
        bed, z = process["bed_temp_c"], process["z_offset_mm"]
        expected = ["bed_temp_low_adhesion" if bed < 80 else
                    "bed_temp_high" if bed > 100 else
                    "bed_temp_peak_band" if bed >= 90 else "bed_temp_ok",
                    "z_offset_ok" if 0.01 <= z <= 0.03
                    else "z_offset_out_of_range"]
        declared = _NOZZLE_C.get(process["material"])
        if "nozzle_temp_c" in process and declared is not None:
            expected.append("nozzle_temp_ok"
                            if process["nozzle_temp_c"] == declared
                            else "nozzle_temp_mismatch")
        expected.append("adhesion_reference")
        codes = [e["code"] for e in report["entries"]]
        _require(codes == expected, f"codes {codes}, expected {expected}")
        _require(len(stdout.splitlines()) == len(codes) + 1,
                 "report text does not list every entry")

    def _check_predict_stiffness(self, item: Item, out_dir: Path, _) -> None:
        doc = self.docs[item.doc]
        name = item.args[item.args.index("--flexure") + 1] \
            if "--flexure" in item.args else next(iter(doc["flexures"]))
        length_m = doc["flexures"][name]["length_mm"] * MM
        header, rows = _read_csv(out_dir / "stiffness.csv")
        _require(header == ["width_ratio", "feature_height_mm",
                            "EI_eff_Nmm2", "k_tip_N_per_m",
                            "k_exact_N_per_m"], f"header {header}")
        _require(len(rows) == item.facts["rows"], f"{len(rows)} rows")
        swept = rows[:, header.index(item.facts["param"])]
        _require(bool(np.all(np.diff(swept) > 0)), "sweep is not increasing")
        ei, k, k_exact = rows[:, 2], rows[:, 3], rows[:, 4]
        _require(bool(np.all(np.abs(k - 3 * ei * 1e-6 / length_m ** 3)
                             <= 1e-9 * k)), "k_tip is not 3 EI / L^3")
        for column in (k, k_exact):
            _require(bool(np.all(column > 0))
                     and bool(np.all(np.diff(column) >= -1e-12 * column[1:])),
                     "stiffness does not grow with the swept rib parameter")

    def _check_design(self, item: Item, out_dir: Path, _) -> None:
        payload = json.loads((out_dir / "design.json").read_text())
        target = item.args[item.args.index("--target") + 1]
        if target in ("width_ratio", "feature_height"):
            wanted = item.facts["stiffness"]
            _require(payload["stiffness_n_per_m"] == wanted,
                     "target echoed wrongly")
            _require(_close(payload["achieved_n_per_m"], wanted, 1e-8),
                     f"achieved {payload['achieved_n_per_m']} N/m for a "
                     f"{wanted} N/m target")
            return
        self._check_jam_angle(payload["inputs"],
                              math.radians(payload["angle_deg"]),
                              payload["residual"])

    def _check_jam_angle(self, inputs: dict, angle: float,
                         residual: float) -> None:
        """The angle solves the defining relation, recomputed here."""
        if inputs["kind"] == "flexional":
            mine = flexional_cap(inputs["spacing_mm"],
                                 inputs["head_radius_mm"],
                                 inputs["stem_height_mm"])
            scale = inputs["spacing_mm"] * MM
        else:
            mine = extensional_cap(inputs["diagonal_mm"],
                                   inputs["base_width_mm"],
                                   inputs["tip_radius_mm"],
                                   inputs["mount_height_mm"],
                                   inputs["incline_deg"])
            scale = inputs["diagonal_mm"] * MM
        _require(_close(angle, mine, 1e-9, 1e-12),
                 f"jam angle {angle} rad, recomputed {mine} rad")
        _require(abs(residual) <= 1e-9 * scale, f"residual {residual} m")

    def _check_solve_limit(self, item: Item, out_dir: Path, _) -> None:
        kind = "flexional" if "--flexional" in item.args else "extensional"
        inputs = {"kind": kind, **_LIMIT_DEFAULTS[kind]}
        for flag, value in zip(item.args, item.args[1:]):
            field = flag[2:].replace("-", "_")
            if field in inputs:
                inputs[field] = float(value)
        if "--sweep" not in item.args:
            payload = json.loads((out_dir / "solve_limit.json").read_text())
            _require(payload["inputs"] == inputs, "inputs echoed wrongly")
            self._check_jam_angle(inputs, payload["angle_rad"],
                                  payload["residual"])
            return
        name = item.args[item.args.index("--sweep") + 1].split("=")[0]
        header, rows = _read_csv(out_dir / "solve_limit.csv")
        _require(header == [name, "angle_rad", "angle_deg", "residual"]
                 and len(rows) == item.facts["rows"],
                 f"sweep table {header} x {len(rows)}")
        for value, angle, degrees, residual in rows:
            _require(_close(degrees, math.degrees(angle), 1e-12),
                     "degrees disagree with radians")
            self._check_jam_angle({**inputs, _SWEEP_FIELDS[name]: value},
                                  angle, residual)

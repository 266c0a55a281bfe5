"""Property: random valid documents survive parse -> serialize -> parse."""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flexokit.core import parse_design, serialize_design

NAMES = st.text(alphabet="abcdefgh_", min_size=1, max_size=5)
COMMENTS = st.text(max_size=8)
POSITIVE = st.one_of(st.integers(1, 500),
                     st.floats(1e-3, 1e3, allow_nan=False,
                               allow_infinity=False))
NONNEGATIVE = st.one_of(st.just(0), POSITIVE)
FRACTION = st.floats(0.0, 1.0)
JAM_ANGLE = st.one_of(st.integers(1, 180), st.floats(1e-3, 180.0))


def _optional(draw, obj, key, strategy):
    if draw(st.booleans()):
        obj[key] = draw(strategy)


@st.composite
def materials(draw):
    table = {}
    for name in draw(st.lists(NAMES, max_size=3, unique=True)):
        body = {"youngs_modulus_gpa": draw(POSITIVE)}
        if draw(st.booleans()):
            body.update(kind="filament", nozzle_temp_c=draw(POSITIVE))
        else:
            body["kind"] = "base_film"
        table[name] = body
    return table


@st.composite
def flexure(draw, films, filaments):
    length = draw(POSITIVE)
    layers = []
    if films and (not filaments or draw(st.booleans())):
        layers.append([draw(st.sampled_from(films)), draw(POSITIVE)])
    if filaments:
        layers += [[draw(st.sampled_from(filaments)), draw(POSITIVE)]
                   for _ in range(draw(st.integers(0 if layers else 1, 2)))]
    body = {"length_mm": length, "width_mm": draw(POSITIVE),
            "base_layers": layers}
    if filaments and draw(st.booleans()):
        # period * length never rounds above length for a factor <= 1
        body["ribs"] = {"period_mm": length * draw(st.floats(0.01, 1.0)),
                        "width_ratio": draw(FRACTION),
                        "feature_height_mm": draw(NONNEGATIVE)}
        printed = len(layers) > 1 or layers[0][0] in filaments
        if not printed or draw(st.booleans()):
            body["rib_material"] = draw(st.sampled_from(filaments))
    return body


@st.composite
def joint(draw, flexures, flexional, extensional):
    body = {"flexure": draw(st.sampled_from(flexures)),
            "joint_length_mm": draw(POSITIVE),
            "routing_offset_mm": draw(POSITIVE)}
    _optional(draw, body, "sense", st.sampled_from([1, -1]))
    caps = ["jam_angle_deg"]
    caps += ["flexional_limit"] if flexional else []
    caps += ["extensional_limit"] if extensional else []
    cap = draw(st.sampled_from(caps))
    if cap == "flexional_limit":
        body[cap] = draw(st.sampled_from(flexional))
    elif cap == "extensional_limit":
        body[cap] = draw(st.sampled_from(extensional))
    if cap == "jam_angle_deg" or draw(st.booleans()):
        body["jam_angle_deg"] = draw(JAM_ANGLE)
    _optional(draw, body, "torsional_stiffness_nm_per_rad", POSITIVE)
    _optional(draw, body, "comment", COMMENTS)
    return {"joint": body}


@st.composite
def documents(draw):
    doc = {"schema_version": 1}
    _optional(draw, doc, "comment", COMMENTS)
    declared = draw(materials())
    if declared:
        doc["materials"] = declared
    kinds = {"PLA": "filament", "ABS": "filament", "PC": "base_film",
             **{name: body["kind"] for name, body in declared.items()}}
    films = sorted(n for n, k in kinds.items() if k == "base_film")
    filaments = sorted(n for n, k in kinds.items() if k == "filament")

    names = draw(st.lists(NAMES, max_size=3, unique=True))
    flexures = {n: draw(flexure(films, filaments)) for n in names}
    flexional = {n: {"spacing_mm": draw(POSITIVE),
                     "head_radius_mm": draw(POSITIVE),
                     "stem_height_mm": draw(NONNEGATIVE)}
                 for n in draw(st.lists(NAMES, max_size=2, unique=True))}
    extensional = {n: {"diagonal_mm": draw(POSITIVE),
                       "base_width_mm": draw(POSITIVE),
                       "tip_radius_mm": draw(POSITIVE),
                       "mount_height_mm": draw(POSITIVE),
                       "incline_deg": draw(st.floats(0.5, 89.5))}
                   for n in draw(st.lists(NAMES, max_size=2, unique=True))}
    for entry in (*flexional.values(), *extensional.values()):
        _optional(draw, entry, "comment", COMMENTS)
    limbs = {}
    if flexures:
        for n in draw(st.lists(NAMES, max_size=5, unique=True)):
            joints = st.lists(joint(sorted(flexures), sorted(flexional),
                                    sorted(extensional)),
                              min_size=1, max_size=3)
            links = st.lists(st.builds(lambda v: {"link_mm": v},
                                       NONNEGATIVE), max_size=3)
            segments = draw(st.permutations(draw(joints) + draw(links)))
            limbs[n] = {"segments": segments}
            _optional(draw, limbs[n], "comment", COMMENTS)
    for key, section in (("flexures", flexures),
                         ("flexional_limits", flexional),
                         ("extensional_limits", extensional),
                         ("limbs", limbs)):
        if section:
            doc[key] = section

    if len(limbs) >= 4 and draw(st.booleans()):
        order = draw(st.permutations(sorted(limbs)))
        doc["gait"] = {"pair_a": order[:2], "pair_b": order[2:4],
                       "frequencies_hz": draw(st.lists(NONNEGATIVE,
                                                       max_size=4))}
    if draw(st.booleans()):
        doc["process"] = {"bed_temp_c": draw(POSITIVE),
                          "z_offset_mm": draw(POSITIVE),
                          "material": draw(st.sampled_from(sorted(kinds))),
                          "pc_thickness_mm": draw(POSITIVE)}
        _optional(draw, doc["process"], "nozzle_temp_c", POSITIVE)
    pools = {"flexure": flexures, "flexional": flexional,
             "extensional": extensional}
    kinds_available = sorted(k for k, pool in pools.items() if pool)
    if kinds_available:
        parts = []
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(kinds_available))
            part = {"kind": kind,
                    "ref": draw(st.sampled_from(sorted(pools[kind]))),
                    "file": draw(NAMES) + ".stl"}
            _optional(draw, part, "count", st.integers(2, 9))
            _optional(draw, part, "facets", st.integers(8, 64))
            _optional(draw, part, "width_mm", POSITIVE)
            parts.append(part)
        if parts:
            doc["export"] = {"parts": parts}
    return doc


@given(documents())
@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_documents_round_trip(document):
    doc = parse_design(json.dumps(document))
    text = serialize_design(doc)
    again = parse_design(text)
    assert again == doc
    # serialization reaches a fixed point after one pass
    assert serialize_design(again) == text

"""The frozen records every module's value types derive from: construction
in declaration order with defaults, checks on construction and on
``replace``, value equality and hashing, and refusal of assignment."""

import numpy as np
import pytest

from flexokit import cli
from flexokit.core import (DEFAULT_MATERIALS, DesignDoc, ExportOptions,
                           FlexionalLimitEntry, LaminateStack, LinkEntry,
                           Material, RibPattern)
from flexokit.errors import DesignError
from flexokit.geometry import Primitive, SolidRecipe
from flexokit.joint_limits import FlexionalLimitSpec
from flexokit.limb_sim import LimbSpec
from flexokit.stiffness import FlexureStiffnessResult

PLA = DEFAULT_MATERIALS["PLA"]


def limb(**changes):
    columns = dict(lengths=(0.01, 0.02), is_joint=(False, True),
                   stiffness=(0.5,), jam_angle=(1.0,), routing_offset=(0.003,),
                   sense=(1,))
    return LimbSpec(**{**columns, **changes})


def square():
    return Primitive(np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                [0.0, 1.0]]]), "z", 0.0, 1.0)


# one record of each module that declares records
RECORDS = {
    "core": lambda: Material("PLA", 3.5, "filament", 215.0),
    "joint_limits": lambda: FlexionalLimitSpec(6e-3, 2e-3, 4e-3),
    "stiffness": lambda: FlexureStiffnessResult(1.0, 2.0, 1.5, 3.0),
    "limb_sim": limb,
    "geometry": lambda: SolidRecipe((square(),)),
    "cli": lambda: cli._Subcommand(cli._cmd_validate, "summary", "text"),
}


@pytest.mark.parametrize("module", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(module):
    record = RECORDS[module]()
    name = record._names[0]
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert getattr(record, name) is value


def test_arguments_follow_declaration_order_and_defaults():
    film = Material("PC", 2.4, "base_film")
    assert (film.name, film.youngs_modulus_gpa, film.kind,
            film.nozzle_temp_c) == ("PC", 2.4, "base_film", None)
    assert film == Material(kind="base_film", youngs_modulus_gpa=2.4,
                            name="PC")
    doc, other = DesignDoc(1, {}), DesignDoc(1, {})
    assert doc.flexures == {} and doc.export == ExportOptions()
    # each record gets its own default dict
    assert doc.flexures is not other.flexures


@pytest.mark.parametrize("call", [
    lambda: Material("PLA", 3.5),                       # missing
    lambda: Material("PLA", 3.5, "filament", name="PLA"),  # duplicate
    lambda: Material("PLA", 3.5, "filament", colour="red"),  # unknown
    lambda: FlexionalLimitEntry(6.0, 2.0, 4.0, spec=None),  # not an argument
], ids=["missing", "duplicate", "unknown", "derived"])
def test_bad_arguments_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_replace_runs_the_checks_again():
    rib = RibPattern(5.0, 0.5, 1.0)
    assert rib.replace(width_ratio=0.25) == RibPattern(5.0, 0.25, 1.0)
    assert rib.width_ratio == 0.5
    with pytest.raises(DesignError, match="width_ratio"):
        rib.replace(width_ratio=2)
    with pytest.raises(TypeError):
        rib.replace(colour="red")


def test_equal_records_hash_equal_and_key_one_dict_entry():
    a, b = limb(), limb()
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "leg"}[b] == "leg"
    assert LaminateStack(((PLA, 0.2),)) == LaminateStack(((PLA, 0.2),))


@pytest.mark.parametrize("changes", [
    {"lengths": (0.01, 0.03)}, {"stiffness": (0.25,)}, {"sense": (-1,)}],
    ids=["first", "middle", "last"])
def test_records_differing_in_one_field_differ(changes):
    a, b = limb(), limb(**changes)
    assert a != b and hash(a) != hash(b)
    assert len({a: 1, b: 2}) == 2


def test_records_of_other_classes_never_compare_equal():
    assert Material("PLA", 3.5, "filament", 215.0) != (
        "PLA", 3.5, "filament", 215.0)
    assert LinkEntry(1.0) != RibPattern(1.0, 0.5, 1.0)


def test_limit_entries_leave_their_spec_out_of_equality_hash_and_repr():
    entry = FlexionalLimitEntry(6.0, 2.0, 4.0)
    same = FlexionalLimitEntry(6.0, 2.0, 4.0)
    assert entry.spec == FlexionalLimitSpec(6e-3, 2e-3, 4e-3)
    assert entry.spec is not same.spec
    assert entry == same and hash(entry) == hash(same)
    assert repr(entry) == ("FlexionalLimitEntry(spacing_mm=6.0, "
                           "head_radius_mm=2.0, stem_height_mm=4.0, "
                           "comment='')")
    assert [(f.name, f.init) for f in FlexionalLimitEntry._fields][-1] == (
        "spec", False)


def test_primitives_compare_by_identity():
    a, b = square(), square()
    assert a == a and a != b
    assert len({a, b}) == 2


def test_repr_names_every_field_in_order():
    assert repr(Material("PC", 2.4, "base_film")) == (
        "Material(name='PC', youngs_modulus_gpa=2.4, kind='base_film', "
        "nozzle_temp_c=None)")

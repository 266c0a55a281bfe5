"""flexokit: design toolchain for printed flexure-jointed mechanisms.

Turns declarative JSON design documents describing laminate flexures, rib
stiffening patterns, printable joint limits, tendon-driven limbs, and trot
gaits into stiffness predictions, jam angles, foot trajectories, speed
curves, inverse-design solutions, printable STL geometry, and print-process
validation reports.
"""

import importlib

__version__ = "0.1.0"

# Each public name under the module that defines it. A module is imported
# on the first access to one of its names (PEP 562), so importing the
# package loads neither numpy nor a module it does not need.
_PUBLIC = {
    "errors": """FlexokitError DesignError DanglingReferenceError
        GeometryError AlwaysJammedError UnreachableLimitError
        ContactAtRestError TargetRangeError OverPullError EmptyLimbError""",
    "core": """Material DEFAULT_MATERIALS LaminateStack RibPattern FlexureSpec
        PrintProcessConfig FlexionalLimitEntry ExtensionalLimitEntry LinkEntry
        JointEntry LimbEntry GaitEntry ExportPart ExportOptions DesignDoc
        parse_design serialize_design validate_process ValidationEntry
        ValidationReport""",
    "joint_limits": """FlexionalLimitSpec ExtensionalLimitSpec
        flexional_jam_angle flexional_inverse extensional_jam_angle
        extensional_inverse""",
    "stiffness": """PlateauUnreachableError SectionStiffness
        FlexureStiffnessResult section_EI homogenized_EI
        tip_stiffness_exact torsional_stiffness plateau_stiffness
        solve_width_ratio solve_feature_height""",
    "limb_sim": """JointDef Link LimbSpec LimbState StrokeMetrics CycleResult
        equilibrium_solve forward_kinematics curvature_profile sweep_cycle
        limb_from_document""",
    "gait_sim": "body_speed speed_curve gait_from_document",
    "geometry": """TriangleMesh Primitive SolidRecipe flexure_recipe
        flexional_recipe extensional_recipe export_stl""",
}
_HOME = {name: module for module, names in _PUBLIC.items()
         for name in names.split()}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)

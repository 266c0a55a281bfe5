"""flexokit: design toolchain for printed flexure-jointed mechanisms.

Turns declarative JSON design documents describing laminate flexures, rib
stiffening patterns, printable joint limits, tendon-driven limbs, and trot
gaits into stiffness predictions, jam angles, foot trajectories, speed
curves, inverse-design solutions, printable STL geometry, and print-process
validation reports.
"""

__version__ = "0.1.0"

from .errors import (AlwaysJammedError, ContactAtRestError,
                     DanglingReferenceError, DesignError, EmptyLimbError,
                     FlexokitError, GeometryError, OverPullError,
                     TargetRangeError, UnreachableLimitError)
from .core import (DesignDoc, ExportOptions, ExportPart, ExtensionalLimitEntry,
                   FlexionalLimitEntry, FlexureSpec, GaitEntry, JointEntry,
                   LaminateStack, LimbEntry, LinkEntry, Material,
                   PrintProcessConfig, RibPattern, ValidationEntry,
                   ValidationReport, DEFAULT_MATERIALS, parse_design,
                   serialize_design, validate_process)
from .joint_limits import (ExtensionalLimitSpec, FlexionalLimitSpec,
                           extensional_inverse, extensional_jam_angle,
                           flexional_inverse, flexional_jam_angle)
from .stiffness import (FlexureStiffnessResult, PlateauUnreachableError,
                        SectionStiffness, homogenized_EI, plateau_stiffness,
                        section_EI, solve_feature_height, solve_width_ratio,
                        tip_stiffness, tip_stiffness_exact,
                        torsional_stiffness)
from .limb_sim import (CycleResult, JointDef, LimbSpec, LimbState, Link,
                       StrokeMetrics, curvature_profile, equilibrium_solve,
                       forward_kinematics, limb_from_document, sweep_cycle)
from .gait_sim import SpeedCurve, body_speed, gait_from_document, speed_curve
from .geometry import (Primitive, SolidRecipe, TriangleMesh, export_stl,
                       extensional_recipe, flexional_recipe, flexure_recipe,
                       regular_polygon_area)

__all__ = [
    "__version__",
    # errors
    "FlexokitError", "DesignError", "DanglingReferenceError", "GeometryError",
    "AlwaysJammedError", "UnreachableLimitError", "ContactAtRestError",
    "TargetRangeError", "PlateauUnreachableError", "OverPullError",
    "EmptyLimbError",
    # documents and materials
    "Material", "DEFAULT_MATERIALS", "LaminateStack", "RibPattern",
    "FlexureSpec", "PrintProcessConfig", "FlexionalLimitEntry",
    "ExtensionalLimitEntry", "LinkEntry", "JointEntry", "LimbEntry",
    "GaitEntry", "ExportPart", "ExportOptions", "DesignDoc", "parse_design",
    "serialize_design", "validate_process", "ValidationEntry",
    "ValidationReport",
    # joint limits
    "FlexionalLimitSpec", "ExtensionalLimitSpec", "flexional_jam_angle",
    "flexional_inverse", "extensional_jam_angle", "extensional_inverse",
    # stiffness
    "SectionStiffness", "FlexureStiffnessResult", "section_EI",
    "homogenized_EI", "tip_stiffness", "tip_stiffness_exact",
    "torsional_stiffness", "plateau_stiffness", "solve_width_ratio",
    "solve_feature_height",
    # limbs
    "JointDef", "Link", "LimbSpec", "LimbState", "StrokeMetrics",
    "CycleResult", "equilibrium_solve", "forward_kinematics",
    "curvature_profile", "sweep_cycle", "limb_from_document",
    # gait
    "SpeedCurve", "body_speed", "speed_curve", "gait_from_document",
    # geometry
    "TriangleMesh", "Primitive", "SolidRecipe", "flexure_recipe",
    "flexional_recipe", "extensional_recipe", "export_stl",
    "regular_polygon_area",
]

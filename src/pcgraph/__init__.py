"""Verifier and generator toolkit for properly colored cycles in
edge-colored complete graphs without monochromatic triangles."""

from .core import (
    ColoredCompleteGraph,
    ColorStats,
    build,
    dumps_instance,
    loads_instance,
    stats,
)
from .cycles import (
    AttachmentClass,
    AttachmentKind,
    classify_attachment,
    enumerate_pc_cycles,
    has_pc_cycle,
    is_pc_cycle,
    is_pc_path,
    pc_hamilton_path,
)
from .detect import (
    DegeneracyCertificate,
    DegeneracyStatus,
    DegeneracyTag,
    closure_from_seed,
    degeneracy_status,
    find_monochromatic_triangle,
    find_pc_triangle,
    verify_gallai_partition,
)
from .tournaments import (
    MultipartiteTournament,
    cycles_through,
    is_strongly_connected,
    lift_cycle,
    mpt_cycles_through,
    reduce_degenerate,
)
from .trichotomy import (
    SideConditionReport,
    TrichotomyResult,
    TrichotomyTag,
    classify,
    is_double_pentagon_k5,
    side_conditions,
)

__version__ = "0.1.0"

__all__ = [
    "AttachmentClass",
    "AttachmentKind",
    "ColorStats",
    "ColoredCompleteGraph",
    "DegeneracyCertificate",
    "DegeneracyStatus",
    "DegeneracyTag",
    "MultipartiteTournament",
    "SideConditionReport",
    "TrichotomyResult",
    "TrichotomyTag",
    "build",
    "classify",
    "classify_attachment",
    "closure_from_seed",
    "cycles_through",
    "degeneracy_status",
    "dumps_instance",
    "enumerate_pc_cycles",
    "find_monochromatic_triangle",
    "find_pc_triangle",
    "has_pc_cycle",
    "is_double_pentagon_k5",
    "is_pc_cycle",
    "is_pc_path",
    "is_strongly_connected",
    "lift_cycle",
    "loads_instance",
    "mpt_cycles_through",
    "pc_hamilton_path",
    "reduce_degenerate",
    "side_conditions",
    "stats",
    "verify_gallai_partition",
]

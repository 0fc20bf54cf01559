"""Exact cohomology of homogeneous bundles on Grassmannians, Koszul
hypercohomology bookkeeping, and a verification harness for the
deformation counts of cubic hypersurfaces and their schemes of lines.

All arithmetic is exact integer arithmetic. Every record (``Grassmannian``,
``Bundle``, ``KoszulPage``, ``CheckResult``, ...) is a ``typing.NamedTuple``:
immutable and hashable, with any invariant (1 <= k < n for a Grassmannian,
0 <= lower <= upper for a ``DimValue``) checked when it is built.
"""

from ._version import __version__
from .bbw import (
    Bundle,
    CohomologyProfile,
    Grassmannian,
    bbw_cohomology,
    bundle_rank,
    canonical_bundle,
    rho,
)
from .checks import CheckResult, Report, UsageError, list_checks, run_checks
from .classes import (
    EquivariantClass,
    det_shift,
    named_class,
    serre_check,
    wedge_class,
)
from .gl2 import (
    NotDecomposableError,
    character_product,
    decompose_gl2_character,
    gl2_character,
    gl2_tensor,
    sym_power_gl2,
    wedge_power_gl2,
)
from .koszul import (
    AXIOMS,
    IDEAL_SHEAF,
    RESTRICTION,
    Axiom,
    DecompositionComparison,
    DeformationNumbers,
    DegreeVerdict,
    DimValue,
    KoszulAnalysis,
    KoszulPage,
    UnderdeterminedError,
    analyze,
    build_page,
    deformation_numbers,
    euler_consistency,
    ideal_sheaf_cohomology,
    koszul_analysis,
    restricted_cohomology,
    verify_claimed_decompositions,
)
from .weights import (
    count_ssyt,
    dominant_sort,
    is_dominant,
    littlewood_richardson,
    partitions_of,
    weyl_dimension,
)

__all__ = [
    "__version__",
    "AXIOMS",
    "Axiom",
    "Bundle",
    "CheckResult",
    "CohomologyProfile",
    "DecompositionComparison",
    "DeformationNumbers",
    "DegreeVerdict",
    "DimValue",
    "EquivariantClass",
    "Grassmannian",
    "IDEAL_SHEAF",
    "KoszulAnalysis",
    "KoszulPage",
    "NotDecomposableError",
    "RESTRICTION",
    "Report",
    "UnderdeterminedError",
    "UsageError",
    "analyze",
    "bbw_cohomology",
    "build_page",
    "bundle_rank",
    "canonical_bundle",
    "character_product",
    "count_ssyt",
    "decompose_gl2_character",
    "deformation_numbers",
    "det_shift",
    "dominant_sort",
    "euler_consistency",
    "gl2_character",
    "gl2_tensor",
    "ideal_sheaf_cohomology",
    "is_dominant",
    "koszul_analysis",
    "list_checks",
    "littlewood_richardson",
    "named_class",
    "partitions_of",
    "restricted_cohomology",
    "rho",
    "run_checks",
    "serre_check",
    "sym_power_gl2",
    "verify_claimed_decompositions",
    "wedge_class",
    "wedge_power_gl2",
    "weyl_dimension",
]

"""Admissible sets, twisted supports and basic strata for extended affine
Weyl groups, with closed-form cross-checks for symplectic similitude
groups."""

from ekor_atlas.admissible import (
    AdmissibleSet,
    StraightClass,
    admissible_set,
    bruhat_hasse_edges,
    kw_elements,
    parahoric_label,
    straight_classes,
)
from ekor_atlas.affine import (
    ExtAffineElement,
    ExtendedAffineWeylGroup,
    GroupError,
    OmegaElement,
    ReducedDecomposition,
    element_label,
)
from ekor_atlas.coxeter import (
    INFINITE_BOND,
    CoxeterError,
    CoxeterMatrix,
    format_finite_type,
)
from ekor_atlas.ekor import (
    DLDatum,
    SigmaSupport,
    StratumRecord,
    dl_datum,
    is_basic,
    is_basic_element,
    is_sigma_coxeter,
    sigma_support,
    stable_level_subset,
    stratum_report,
)
from ekor_atlas.rootdata import RootDatum, RootDatumError
from ekor_atlas.siegel import (
    ComparisonReport,
    EOStratum,
    SiegelContext,
    siegel_context,
    siegel_datum,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleSet",
    "ComparisonReport",
    "CoxeterError",
    "CoxeterMatrix",
    "DLDatum",
    "EOStratum",
    "ExtAffineElement",
    "ExtendedAffineWeylGroup",
    "GroupError",
    "INFINITE_BOND",
    "OmegaElement",
    "ReducedDecomposition",
    "RootDatum",
    "RootDatumError",
    "SiegelContext",
    "SigmaSupport",
    "StraightClass",
    "StratumRecord",
    "admissible_set",
    "bruhat_hasse_edges",
    "dl_datum",
    "element_label",
    "format_finite_type",
    "is_basic",
    "is_basic_element",
    "is_sigma_coxeter",
    "kw_elements",
    "parahoric_label",
    "siegel_context",
    "siegel_datum",
    "sigma_support",
    "stable_level_subset",
    "straight_classes",
    "stratum_report",
]

"""Exact limit-linear-series engine on chains of elliptic curves.

The package models divisor classes, vector bundles and vanishing tables on a
nodal chain of elliptic curves with purely symbolic, integer-exact data, and
turns linear-independence arguments for products of sections into
machine-checkable elimination certificates, cross-checked by a randomized
rank oracle over a prime field.
"""

from ellchain.elliptic import (
    AlgebraError,
    BundleOnComponent,
    Degree0Class,
    IndecomposableSlot,
    LineBundleClass,
    SectionSymbol,
    VanishingTable,
    end_decomposition,
    section_space,
)
from ellchain.chain import (
    ChainCurve,
    GluingData,
    LimitLinearSeries,
    NodeGluing,
    Rank1Report,
    Redistribution,
    ValidationReport,
    canonical_series,
    check_stability,
    elliptic_chain,
    redistribute,
    validate_lls,
    validate_rank1,
)
from ellchain.tableaux import Tableau, count_tableaux, enumerate_tableaux
from ellchain.independence import (
    Certificate,
    CertificateFailure,
    OracleConfig,
    ProductSection,
    certify_independence,
    oracle_rank,
    product_bundle,
    product_sections,
)
from ellchain.pipelines import (
    ParamsError,
    PetriParams,
    PoinParams,
    Run,
    Verdict,
    endo_build,
    endo_h0,
    onto_certificate,
    petri_build,
    petri_certificate,
    petri_params,
    poin_params,
)

__version__ = "0.1.0"

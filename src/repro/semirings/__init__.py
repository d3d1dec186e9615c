"""Commutative semirings, the annotation domains of the paper (Section 2).

Public API
----------
* :class:`~repro.semirings.base.Semiring` — the abstract annotation domain.
* Concrete semirings: :data:`BOOLEAN`, :data:`NATURAL`, :data:`PROVENANCE`
  (the universal ``N[X]``), :data:`POSBOOL`, :data:`CLEARANCE`, :data:`WHY`,
  :data:`LINEAGE`, :data:`TROPICAL`, :data:`VITERBI`, :data:`FUZZY`, lattices
  and products.
* :class:`~repro.semirings.homomorphism.SemiringHomomorphism` and the standard
  specializations of ``N[X]`` (valuations, PosBool / why / lineage views,
  duplicate elimination).
"""

from repro.semirings.base import Semiring, check_semiring_axioms
from repro.semirings.boolean import BOOLEAN, BooleanSemiring
from repro.semirings.diff import DiffPair
from repro.semirings.homomorphism import (
    SemiringHomomorphism,
    check_homomorphism,
    duplicate_elimination,
    natural_embedding,
    polynomial_to_lineage,
    polynomial_to_posbool,
    polynomial_to_why,
    polynomial_valuation,
    posbool_valuation,
    why_to_posbool,
)
from repro.semirings.lattice import (
    DivisorLatticeSemiring,
    LatticeSemiring,
    SubsetLatticeSemiring,
)
from repro.semirings.natural import NATURAL, NaturalSemiring
from repro.semirings.polynomial import (
    PROVENANCE,
    Monomial,
    Polynomial,
    ProvenancePolynomialSemiring,
    variable,
    variables,
)
from repro.semirings.posbool import POSBOOL, BoolExpr, PosBoolSemiring
from repro.semirings.product import ProductSemiring
from repro.semirings.registry import (
    available_semirings,
    get_semiring,
    register_semiring,
    standard_semirings,
)
from repro.semirings.security import (
    ABSENT,
    CLEARANCE,
    CONFIDENTIAL,
    PUBLIC,
    SECRET,
    TOP_SECRET,
    ClearanceSemiring,
)
from repro.semirings.tropical import (
    FUZZY,
    TROPICAL,
    VITERBI,
    FuzzySemiring,
    TropicalSemiring,
    ViterbiSemiring,
)
from repro.semirings.whyprov import (
    LINEAGE,
    WHY,
    Lineage,
    LineageSemiring,
    WhyProvenance,
    WhySemiring,
)

__all__ = [
    "Semiring",
    "check_semiring_axioms",
    "BooleanSemiring",
    "BOOLEAN",
    "DiffPair",
    "NaturalSemiring",
    "NATURAL",
    "Monomial",
    "Polynomial",
    "ProvenancePolynomialSemiring",
    "PROVENANCE",
    "variable",
    "variables",
    "BoolExpr",
    "PosBoolSemiring",
    "POSBOOL",
    "WhyProvenance",
    "WhySemiring",
    "WHY",
    "Lineage",
    "LineageSemiring",
    "LINEAGE",
    "ClearanceSemiring",
    "CLEARANCE",
    "PUBLIC",
    "CONFIDENTIAL",
    "SECRET",
    "TOP_SECRET",
    "ABSENT",
    "LatticeSemiring",
    "SubsetLatticeSemiring",
    "DivisorLatticeSemiring",
    "ProductSemiring",
    "TropicalSemiring",
    "ViterbiSemiring",
    "FuzzySemiring",
    "TROPICAL",
    "VITERBI",
    "FUZZY",
    "SemiringHomomorphism",
    "check_homomorphism",
    "polynomial_valuation",
    "posbool_valuation",
    "polynomial_to_posbool",
    "polynomial_to_why",
    "polynomial_to_lineage",
    "why_to_posbool",
    "duplicate_elimination",
    "natural_embedding",
    "register_semiring",
    "get_semiring",
    "available_semirings",
    "standard_semirings",
]

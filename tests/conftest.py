"""Shared fixtures for the test-suite."""

from __future__ import annotations

import pytest

from repro.semirings import (
    BOOLEAN,
    CLEARANCE,
    FUZZY,
    LINEAGE,
    NATURAL,
    POSBOOL,
    PROVENANCE,
    TROPICAL,
    VITERBI,
    WHY,
    DivisorLatticeSemiring,
    ProductSemiring,
    SubsetLatticeSemiring,
)
from repro.uxml import TreeBuilder

#: Every shipped semiring, used by parametrized axiom / lifting tests.
#: ``N x N[X]`` is the cancellative product: view maintenance subtracts
#: componentwise in it, so it is held to the same laws as its factors.
ALL_SEMIRINGS = [
    BOOLEAN,
    NATURAL,
    PROVENANCE,
    POSBOOL,
    CLEARANCE,
    TROPICAL,
    VITERBI,
    FUZZY,
    WHY,
    LINEAGE,
    SubsetLatticeSemiring({"r1", "r2", "r3"}),
    DivisorLatticeSemiring(30),
    ProductSemiring(BOOLEAN, NATURAL),
    ProductSemiring(NATURAL, PROVENANCE),
]

#: Semirings whose elements are convenient for exact query-result comparisons.
EXACT_SEMIRINGS = [BOOLEAN, NATURAL, PROVENANCE, POSBOOL, CLEARANCE]


@pytest.fixture(params=ALL_SEMIRINGS, ids=lambda s: s.name)
def any_semiring(request):
    """Parametrize a test over every shipped semiring."""
    return request.param


@pytest.fixture
def nat_builder():
    """A tree builder over the natural-number (bag) semiring."""
    return TreeBuilder(NATURAL)


@pytest.fixture
def prov_builder():
    """A tree builder over the provenance-polynomial semiring."""
    return TreeBuilder(PROVENANCE)


@pytest.fixture
def bool_builder():
    """A tree builder over the Boolean semiring."""
    return TreeBuilder(BOOLEAN)


@pytest.fixture
def figure1_environment(prov_builder):
    """The Figure 1 source bound to ``$S``."""
    from repro.paperdata import figure1_source

    return {"S": figure1_source()}

"""Exact (cancellative) subtraction: ``Semiring.subtract`` and ``supports_subtraction``."""

from __future__ import annotations

import pytest

from repro.errors import SemiringError
from repro.semirings import BOOLEAN, NATURAL, PROVENANCE, ProductSemiring, variables

from tests.conftest import ALL_SEMIRINGS


class TestExactSubtraction:
    def test_natural_subtract(self):
        assert NATURAL.supports_subtraction
        assert NATURAL.subtract(5, 3) == 2
        assert NATURAL.subtract(5, 0) == 5
        with pytest.raises(SemiringError):
            NATURAL.subtract(3, 5)

    def test_polynomial_subtract(self):
        assert PROVENANCE.supports_subtraction
        x, y = variables("x", "y")
        total = x + x + y
        assert PROVENANCE.subtract(total, x) == x + y
        assert PROVENANCE.subtract(total, total) == PROVENANCE.zero
        with pytest.raises(SemiringError):
            PROVENANCE.subtract(x, y)
        with pytest.raises(SemiringError):
            PROVENANCE.subtract(x, x + x)

    def test_boolean_has_no_subtraction(self):
        assert not BOOLEAN.supports_subtraction
        assert BOOLEAN.subtract(True, False) is True  # subtracting zero always works
        with pytest.raises(SemiringError):
            BOOLEAN.subtract(True, True)

    def test_product_subtracts_componentwise(self):
        product = ProductSemiring(NATURAL, PROVENANCE)
        assert product.supports_subtraction
        x = variables("x")[0]
        assert product.subtract((5, x + x), (2, x)) == (3, x)
        mixed = ProductSemiring(BOOLEAN, NATURAL)
        assert not mixed.supports_subtraction


#: The semirings whose ``+`` is cancellative, where view maintenance subtracts.
SUBTRACTIVE = [semiring for semiring in ALL_SEMIRINGS if semiring.supports_subtraction]


def _nonzero_samples(semiring):
    return [value for value in semiring.sample_elements() if not semiring.is_zero(value)]


def _assert_exact_or_raises(semiring, a, b):
    """Without cancellation ``a - b`` may still exist (a zero ``B`` component
    of a product, say), but it is exact or it raises — never approximate."""
    try:
        difference = semiring.subtract(a, b)
    except SemiringError:
        return
    assert semiring.eq(semiring.add(b, difference), a)


class TestSubtractionLaws:
    """The contract of ``Semiring.subtract`` on every shipped semiring."""

    def test_subtractive_semirings_are_the_cancellative_ones(self):
        names = {semiring.name for semiring in SUBTRACTIVE}
        assert names == {
            NATURAL.name,
            PROVENANCE.name,
            ProductSemiring(NATURAL, PROVENANCE).name,
        }

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
    def test_subtracting_zero_is_the_identity(self, semiring):
        for value in semiring.sample_elements():
            assert semiring.eq(semiring.subtract(value, semiring.zero), value)

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
    def test_subtraction_undoes_addition_exactly_when_supported(self, semiring):
        for a in semiring.sample_elements():
            for b in _nonzero_samples(semiring):
                total = semiring.add(a, b)
                if semiring.supports_subtraction:
                    assert semiring.eq(semiring.subtract(total, b), a)
                else:
                    _assert_exact_or_raises(semiring, total, b)

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
    def test_subtracting_an_element_from_itself(self, semiring):
        for value in _nonzero_samples(semiring):
            if semiring.supports_subtraction:
                assert semiring.is_zero(semiring.subtract(value, value))
            else:
                _assert_exact_or_raises(semiring, value, value)

    @pytest.mark.parametrize("semiring", SUBTRACTIVE, ids=lambda s: s.name)
    def test_over_subtraction_raises(self, semiring):
        # Removing more than is present has no exact answer; maintenance
        # relies on this raising (never clamping) to fall back to recompute.
        for a in semiring.sample_elements():
            for b in _nonzero_samples(semiring):
                with pytest.raises(SemiringError):
                    semiring.subtract(a, semiring.add(a, b))

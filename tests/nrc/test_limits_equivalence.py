"""Limit semantics across the evaluators.

One query + one :class:`EvalLimits` must behave identically under
``nrc-interp`` and ``nrc-codegen``: the same typed error when a limit fires,
the same (unlimited-equal) result when it does not — the evaluator
equivalence contract extended to guardrails.
"""

from __future__ import annotations

import pytest

from repro.errors import BudgetExceededError, QueryTimeoutError
from repro.resilience import EvalLimits
from repro.semirings import NATURAL, PROVENANCE, TROPICAL
from repro.semirings.boolean import BOOLEAN
from repro.semirings.registry import standard_semirings
from repro.uxquery import prepare_query
from repro.workloads import random_forest

METHODS = ("nrc-interp", "nrc-codegen")

#: A straight-line query (fused loops) and an srt query (a generated
#: recursive function with a per-node check) — both fan out enough rows
#: that tiny budgets fire in every evaluator's loop.
FLAT_QUERY = "($S)/*/*"
SRT_QUERY = "($S)//c"


def _prepared(query, semiring, num_trees=4):
    forest = random_forest(semiring, num_trees=num_trees, depth=3, fanout=3, seed=17)
    prepared = prepare_query(query, semiring, env={"S": forest})
    return prepared, {"S": forest}


def test_srt_query_runs_generated_recursion():
    prepared, _env = _prepared(SRT_QUERY, NATURAL)
    assert "def _srt" in prepared.generated.source
    assert "_TICK()" in prepared.generated.source


class TestTimeoutEquivalence:
    @pytest.mark.parametrize("query", [FLAT_QUERY, SRT_QUERY])
    @pytest.mark.parametrize("method", METHODS)
    def test_expired_deadline_raises_the_same_typed_error(self, query, method):
        prepared, env = _prepared(query, NATURAL)
        with pytest.raises(QueryTimeoutError):
            prepared.evaluate(env, method=method, limits=EvalLimits(timeout_s=0))

    @pytest.mark.parametrize("query", [FLAT_QUERY, SRT_QUERY])
    @pytest.mark.parametrize("method", METHODS)
    def test_timeout_fires_on_every_registry_semiring(self, query, method):
        for semiring in standard_semirings():
            prepared, env = _prepared(query, semiring, num_trees=2)
            with pytest.raises(QueryTimeoutError):
                prepared.evaluate(env, method=method, limits=EvalLimits(timeout_s=0))


class TestRowBudgetEquivalence:
    @pytest.mark.parametrize("query", [FLAT_QUERY, SRT_QUERY])
    @pytest.mark.parametrize("method", METHODS)
    def test_small_row_budget_raises_the_same_typed_error(self, query, method):
        prepared, env = _prepared(query, NATURAL)
        reference = prepared.evaluate(env, method=method)
        assert len(reference) > 1  # the budget below is genuinely exceeded
        with pytest.raises(BudgetExceededError):
            prepared.evaluate(env, method=method, limits=EvalLimits(max_rows=1))

    @pytest.mark.parametrize("query", [FLAT_QUERY, SRT_QUERY])
    @pytest.mark.parametrize("semiring", [BOOLEAN, NATURAL, PROVENANCE, TROPICAL])
    @pytest.mark.parametrize("method", METHODS)
    def test_budget_errors_agree_across_semirings(self, query, semiring, method):
        prepared, env = _prepared(query, semiring)
        with pytest.raises(BudgetExceededError):
            prepared.evaluate(env, method=method, limits=EvalLimits(max_rows=1))


class TestByteBudgetEquivalence:
    @pytest.mark.parametrize("method", METHODS)
    def test_tiny_byte_budget_raises_identically(self, method):
        prepared, env = _prepared(FLAT_QUERY, NATURAL)
        with pytest.raises(BudgetExceededError):
            prepared.evaluate(
                env, method=method, limits=EvalLimits(max_result_bytes=4)
            )


class TestGenerousLimitsAreInvisible:
    @pytest.mark.parametrize("query", [FLAT_QUERY, SRT_QUERY])
    def test_results_equal_the_unlimited_run_under_every_method(self, query):
        generous = EvalLimits(timeout_s=300, max_rows=10**9, max_result_bytes=10**12)
        for semiring in (BOOLEAN, NATURAL, PROVENANCE, TROPICAL):
            prepared, env = _prepared(query, semiring)
            unlimited = prepared.evaluate(env)
            for method in METHODS:
                limited = prepared.evaluate(env, method=method, limits=generous)
                assert limited == unlimited, (semiring.name, method)

    def test_unbounded_limits_object_is_a_no_op(self):
        prepared, env = _prepared(FLAT_QUERY, NATURAL)
        assert prepared.evaluate(env, limits=EvalLimits()) == prepared.evaluate(env)

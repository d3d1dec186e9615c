"""Instrumentation invariance: arming tracing/profiling must not change results.

Every registry semiring, both NRC evaluators: the K-annotated result with
tracing armed and with profiling armed is byte-identical (same value, same
paper notation) to the uninstrumented run, and the evaluator equivalence
holds while instrumented.
"""

from __future__ import annotations

from repro.obs.profile import profile_evaluate
from repro.obs.trace import tracing
from repro.uxml import to_paper_notation
from repro.uxquery import prepare_query
from repro.workloads import random_forest

METHODS = ("nrc-codegen", "nrc-interp")
QUERY = "($S)/*/*"


def _notation(result) -> str:
    return to_paper_notation(result)


class TestInstrumentationInvariance:
    def test_tracing_preserves_results_and_equivalence(self, any_semiring):
        forest = random_forest(any_semiring, num_trees=2, depth=3, fanout=2, seed=11)
        prepared = prepare_query(QUERY, any_semiring, {"S": forest})
        baseline = {
            method: prepared.evaluate({"S": forest}, method=method)
            for method in METHODS
        }
        with tracing() as tracer:
            armed = {
                method: prepared.evaluate({"S": forest}, method=method)
                for method in METHODS
            }
        assert tracer.spans  # the instrumentation really was live
        for method in METHODS:
            assert armed[method] == baseline[method]
            assert _notation(armed[method]) == _notation(baseline[method])
        # Three-evaluator equivalence survives arming.
        notations = {_notation(armed[method]) for method in METHODS}
        assert len(notations) == 1

    def test_profiling_preserves_results_and_equivalence(self, any_semiring):
        forest = random_forest(any_semiring, num_trees=2, depth=3, fanout=2, seed=12)
        prepared = prepare_query(QUERY, any_semiring, {"S": forest})
        profiled = {}
        for method in METHODS:
            baseline = prepared.evaluate({"S": forest}, method=method)
            result, report = profile_evaluate(prepared, {"S": forest}, method=method)
            assert result == baseline
            assert _notation(result) == _notation(baseline)
            assert report.method == method
            profiled[method] = result
        notations = {_notation(profiled[method]) for method in METHODS}
        assert len(notations) == 1

    def test_tracing_and_profiling_stack(self, any_semiring):
        forest = random_forest(any_semiring, num_trees=2, depth=2, fanout=2, seed=13)
        prepared = prepare_query(QUERY, any_semiring, {"S": forest})
        baseline = prepared.evaluate({"S": forest})
        with tracing():
            result, _report = profile_evaluate(prepared, {"S": forest})
        assert result == baseline
        assert _notation(result) == _notation(baseline)

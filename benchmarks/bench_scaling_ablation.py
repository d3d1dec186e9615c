"""E13 — scaling and ablation: the cost of annotation tracking.

The paper reports no wall-clock numbers; this experiment documents the cost
profile of the implementation so that downstream users know what to expect:

* per-semiring cost of the same query on the same document
  (B ≲ N < clearance < N[X] — provenance polynomials are the expensive ones);
* compiled NRC_K + srt evaluation vs the direct interpreter;
* document-size scaling for the descendant query.
"""

from __future__ import annotations

import pytest

from repro.semirings import BOOLEAN, CLEARANCE, NATURAL, PROVENANCE, get_semiring
from repro.uxquery import prepare_query
from repro.workloads import descendant_query, random_forest, standard_query_suite

SEMIRING_NAMES = ["boolean", "natural", "clearance", "provenance-polynomials"]


def _forest_for(semiring, size_seed: int = 17, num_trees: int = 4, depth: int = 4, fanout: int = 3):
    return random_forest(semiring, num_trees=num_trees, depth=depth, fanout=fanout, seed=size_seed)


@pytest.mark.parametrize("semiring_name", SEMIRING_NAMES)
def test_ablation_annotation_domain(benchmark, semiring_name):
    """Same document shape and query, different annotation semirings."""
    semiring = get_semiring(semiring_name)
    forest = _forest_for(semiring)
    prepared = prepare_query(descendant_query("a"), semiring, {"S": forest})
    answer = benchmark(lambda: prepared.evaluate({"S": forest}))
    assert answer is not None


@pytest.mark.parametrize("method", ["nrc-codegen", "nrc-interp", "direct"])
def test_ablation_evaluation_strategy(benchmark, method):
    """Generated NRC_K + srt vs the Figure 8 interpreter vs the direct
    structural interpreter."""
    forest = _forest_for(NATURAL)
    prepared = prepare_query(descendant_query("a"), NATURAL, {"S": forest})
    answer = benchmark(lambda: prepared.evaluate({"S": forest}, method=method))
    assert answer is not None


@pytest.mark.parametrize("fanout", [2, 3, 4])
def test_scaling_with_document_size(benchmark, fanout, table_printer):
    """Document-size scaling of the descendant query over N."""
    forest = random_forest(NATURAL, num_trees=3, depth=4, fanout=fanout, seed=23)
    prepared = prepare_query(descendant_query("a"), NATURAL, {"S": forest})
    answer = benchmark(lambda: prepared.evaluate({"S": forest}))
    from repro.workloads import forest_statistics

    stats = forest_statistics(forest)
    table_printer(
        f"Scaling: fanout {fanout}",
        ["nodes", "answer members"],
        [(stats["nodes"], len(answer.children))],
    )


@pytest.mark.parametrize("query_name", sorted(standard_query_suite()))
def test_query_suite_over_provenance(benchmark, query_name):
    """The standard query workload with full provenance tracking."""
    forest = random_forest(PROVENANCE, num_trees=3, depth=3, fanout=3, seed=29)
    text = standard_query_suite()[query_name]
    prepared = prepare_query(text, PROVENANCE, {"S": forest})
    answer = benchmark(lambda: prepared.evaluate({"S": forest}))
    assert answer is not None


def test_compilation_cost(benchmark):
    """Cost of parse + normalize + typecheck + compile (no evaluation)."""
    forest = _forest_for(BOOLEAN)
    from repro.paperdata import figure5_uxquery

    result = benchmark(lambda: prepare_query(figure5_uxquery(), BOOLEAN, {"d": forest}))
    assert result.nrc_size > 0

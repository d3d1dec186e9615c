"""Codegen vs interpreter on the paper figures and deep chains.

The source-codegen evaluator (``method="nrc-codegen"``) is the production
default; this benchmark pins its three workload families against the Figure 8
reference interpreter (``nrc-interp``):

* the Figure 1 iteration (grandchildren) query over N[X],
* the Figure 4 child-chain prefix of the descendant workload, and
* the deep child-chain workload (``suite_child-chain-3``) over N — the shape
  where per-node dispatch overhead dominates and codegen wins most.

Answers are asserted equal across both methods before timing; the CI
quick-mode regression bar (codegen >= 4x the interpreter on child-chain-3)
lives in ``run_all.py``'s ``codegen`` section.
"""

from __future__ import annotations

import pytest

from repro.paperdata import figure1_query, figure1_source
from repro.semirings import NATURAL, PROVENANCE
from repro.uxquery import prepare_query
from repro.workloads import random_forest, standard_query_suite


def _chain_case():
    forest = random_forest(NATURAL, num_trees=4, depth=4, fanout=3, seed=17)
    query = standard_query_suite()["child-chain-3"]
    return prepare_query(query, NATURAL, {"S": forest}), {"S": forest}


def _figure1_case():
    source = figure1_source()
    return prepare_query(figure1_query(), PROVENANCE, {"S": source}), {"S": source}


def _figure4_chain_case():
    # The straight-line prefix of the figure-4 shape (// itself is srt —
    # covered in bench_figure4_descendant).
    forest = random_forest(PROVENANCE, num_trees=3, depth=4, fanout=2, seed=23)
    return (
        prepare_query("element out { $S/*/*/* }", PROVENANCE, {"S": forest}),
        {"S": forest},
    )


CASES = {
    "child_chain3_natural": _chain_case,
    "figure1_provenance": _figure1_case,
    "figure4_chain_provenance": _figure4_chain_case,
}


def _check_equivalence(prepared, env):
    codegen = prepared.evaluate(env, method="nrc-codegen")
    assert codegen == prepared.evaluate(env, method="nrc-interp")
    return codegen


@pytest.mark.parametrize("case", sorted(CASES))
def test_codegen_generated_program(benchmark, case):
    prepared, env = CASES[case]()
    expected = _check_equivalence(prepared, env)
    answer = benchmark(lambda: prepared.evaluate(env, method="nrc-codegen"))
    assert answer == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_codegen_interpreter_baseline(benchmark, case):
    prepared, env = CASES[case]()
    expected = _check_equivalence(prepared, env)
    answer = benchmark(lambda: prepared.evaluate(env, method="nrc-interp"))
    assert answer == expected


def test_codegen_batch_reuses_one_program(benchmark):
    """One generated function across a whole batch of documents."""
    from repro.exec import BatchEvaluator

    documents = [
        random_forest(NATURAL, num_trees=3, depth=3, fanout=3, seed=800 + index)
        for index in range(16)
    ]
    prepared = prepare_query("($S)/*/*", NATURAL, {"S": documents[0]})
    evaluator = BatchEvaluator(prepared)
    expected = [prepared.evaluate({"S": document}) for document in documents]
    answer = benchmark(lambda: evaluator.evaluate_many(documents))
    assert answer == expected
    assert prepared.generated.calls > 0

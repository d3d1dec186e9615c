"""Batched evaluation equals single-shot evaluation, for every registry semiring."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ExecError
from repro.exec import BatchEvaluator, infer_document_var
from repro.kcollections import KSet
from repro.semirings import NATURAL, PROVENANCE, standard_semirings
from repro.uxquery import prepare_query
from repro.workloads import random_forest

REGISTRY_SEMIRINGS = list(standard_semirings())

QUERIES = [
    "($S)/*",
    "($S)/*/*",
    "($S)//c",
    "element out { for $x in $S return element hit { ($x)/* } }",
]


def _documents(semiring, count=6, seed=11):
    return [
        random_forest(semiring, num_trees=3, depth=3, fanout=2, seed=seed + index)
        for index in range(count)
    ]


@pytest.mark.parametrize("semiring", REGISTRY_SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("query", QUERIES)
def test_batch_equals_single_shot_every_registry_semiring(semiring, query):
    documents = _documents(semiring)
    prepared = prepare_query(query, semiring, {"S": documents[0]})
    single = [prepared.evaluate({"S": document}) for document in documents]
    batched = BatchEvaluator(prepared).evaluate_many(documents)
    assert batched == single


@pytest.mark.parametrize("semiring", [NATURAL, PROVENANCE], ids=lambda s: s.name)
def test_batch_with_thread_pool_matches_inline(semiring):
    documents = _documents(semiring, count=10)
    prepared = prepare_query("($S)/*/*", semiring, {"S": documents[0]})
    evaluator = BatchEvaluator(prepared)
    inline = evaluator.evaluate_many(documents)
    with ThreadPoolExecutor(max_workers=4) as executor:
        threaded = evaluator.evaluate_many(documents, executor=executor)
    assert threaded == inline


@pytest.mark.parametrize("semiring", REGISTRY_SEMIRINGS, ids=lambda s: s.name)
def test_batch_merged_is_pointwise_union(semiring):
    documents = _documents(semiring, count=4)
    prepared = prepare_query("($S)/*", semiring, {"S": documents[0]})
    merged = BatchEvaluator(prepared).evaluate_merged(documents)
    expected = KSet.empty(semiring)
    for document in documents:
        expected = expected.union(prepared.evaluate({"S": document}))
    assert merged == expected


def test_batch_interpreter_methods_agree():
    documents = _documents(NATURAL, count=3)
    prepared = prepare_query("($S)/*/*", NATURAL, {"S": documents[0]})
    evaluator = BatchEvaluator(prepared)
    compiled = evaluator.evaluate_many(documents)
    assert evaluator.evaluate_many(documents, method="nrc-codegen") == compiled
    assert evaluator.evaluate_many(documents, method="nrc-interp") == compiled
    assert evaluator.evaluate_many(documents, method="direct") == compiled


def test_batch_executes_the_generated_program():
    """The default batch path runs codegen bytecode, observably (calls)."""
    documents = _documents(NATURAL, count=5)
    prepared = prepare_query("($S)/*/*", NATURAL, {"S": documents[0]})
    assert prepared.generated is not None
    before = prepared.generated.calls
    BatchEvaluator(prepared).evaluate_many(documents)
    assert prepared.generated.calls == before + len(documents)
    # Forcing the interpreter leaves the generated counter untouched.
    BatchEvaluator(prepared).evaluate_many(documents, method="nrc-interp")
    assert prepared.generated.calls == before + len(documents)


def test_batch_env_constants_are_shared():
    documents = _documents(NATURAL, count=3)
    prepared = prepare_query(
        "for $x in $S where name($x) = $l return ($x)/*",
        NATURAL,
        env_types={"S": "forest", "l": "label"},
    )
    evaluator = BatchEvaluator(prepared, var="S")
    batched = evaluator.evaluate_many(documents, env={"l": "a"})
    single = [prepared.evaluate({"S": document, "l": "a"}) for document in documents]
    assert batched == single


def test_empty_batch_returns_empty_list():
    documents = _documents(NATURAL, count=1)
    prepared = prepare_query("($S)/*", NATURAL, {"S": documents[0]})
    assert BatchEvaluator(prepared).evaluate_many([]) == []


def test_infer_document_var():
    forest = _documents(NATURAL, count=1)[0]
    prepared = prepare_query("($D)/*", NATURAL, {"D": forest})
    assert infer_document_var(prepared) == "D"
    two_forests = prepare_query(
        "($A)/*, ($B)/*", NATURAL, env_types={"A": "forest", "B": "forest"}
    )
    with pytest.raises(ExecError, match="pass var="):
        BatchEvaluator(two_forests)


def test_explicit_var_must_be_free_in_the_query():
    forest = _documents(NATURAL, count=1)[0]
    prepared = prepare_query("($S)/*", NATURAL, {"S": forest})
    with pytest.raises(ExecError, match="not a free variable"):
        BatchEvaluator(prepared, var="T")


def test_merged_rejects_non_forest_results():
    forest = _documents(NATURAL, count=1)[0]
    prepared = prepare_query("element out { ($S)/* }", NATURAL, {"S": forest})
    with pytest.raises(ExecError, match="K-set results"):
        BatchEvaluator(prepared).evaluate_merged([forest])


class TestProcessPool:
    def test_process_pool_matches_inline(self):
        from concurrent.futures import ProcessPoolExecutor

        documents = _documents(NATURAL, count=4)
        prepared = prepare_query("($S)/*/*", NATURAL, {"S": documents[0]})
        evaluator = BatchEvaluator(prepared)
        inline = evaluator.evaluate_many(documents)
        with ProcessPoolExecutor(max_workers=2) as executor:
            assert evaluator.evaluate_many(documents, executor=executor) == inline

    def test_process_pool_rejects_unregistered_semiring(self):
        from concurrent.futures import ProcessPoolExecutor

        from repro.semirings import BOOLEAN, ProductSemiring

        semiring = ProductSemiring(BOOLEAN, NATURAL)  # not in the registry
        documents = _documents(semiring, count=2)
        prepared = prepare_query("($S)/*", semiring, {"S": documents[0]})
        with ProcessPoolExecutor(max_workers=1) as executor:
            with pytest.raises(ExecError, match="registry"):
                BatchEvaluator(prepared).evaluate_many(documents, executor=executor)

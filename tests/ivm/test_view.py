"""Materialized views: apply == full recomputation, exactly, for every semiring."""

from __future__ import annotations

import random

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import IVMError
from repro.exec import PlanCache
from repro.ivm import (
    BILINEAR,
    LINEAR,
    NON_INCREMENTAL,
    Delta,
    MaterializedView,
    materialize,
)
from repro.semirings import BOOLEAN, NATURAL, PROVENANCE, standard_semirings
from repro.semirings.polynomial import Polynomial
from repro.uxquery import prepare_query
from repro.workloads import random_forest, random_tree

REGISTRY_SEMIRINGS = list(standard_semirings())

#: Queries covering every maintenance classification.
LINEAR_QUERY = "($S)//c"
BILINEAR_QUERY = "for $x in $S, $y in $S where $x = $y return ($x)/*"
NON_INCREMENTAL_QUERY = "element out { ($S)/* }"


def _annotations(semiring, rng):
    """Non-zero sample annotations; fresh tokens for N[X] so nothing collapses."""
    if semiring == PROVENANCE:
        return [Polynomial.variable(f"u{rng.randrange(1 << 20)}") for _ in range(4)]
    return [value for value in semiring.sample_elements() if not semiring.is_zero(value)]


def _random_delta(semiring, document, rng):
    """A random applicable update against the current document."""
    choices = ["insert"]
    if len(document):
        choices += ["delete", "reannotate"]
    op = rng.choice(choices)
    samples = _annotations(semiring, rng)
    if op == "insert":
        tree = random_tree(semiring, depth=2, fanout=2, seed=rng.randrange(1 << 30))
        return Delta.insertion(semiring, tree, rng.choice(samples))
    tree = rng.choice(sorted(document.values(), key=repr))
    current = document.annotation(tree)
    if op == "delete":
        if semiring == NATURAL and current >= 2 and rng.random() < 0.5:
            # Exercise *partial* deletion where the semiring can cancel.
            return Delta.deletion(semiring, tree, current - 1)
        return Delta.deletion(semiring, tree, current)
    return Delta.reannotation(semiring, tree, current, rng.choice(samples))


class TestExactEquivalence:
    """The acceptance gate: apply(delta) == re-evaluating on the new document."""

    @pytest.mark.parametrize("semiring", REGISTRY_SEMIRINGS, ids=lambda s: s.name)
    @pytest.mark.parametrize(
        "query", [LINEAR_QUERY, BILINEAR_QUERY, NON_INCREMENTAL_QUERY]
    )
    def test_randomized_update_stream(self, semiring, query):
        rng = random.Random(hash((semiring.name, query)) & 0xFFFF)
        document = random_forest(semiring, num_trees=5, depth=3, fanout=2, seed=13)
        prepared = prepare_query(query, semiring, {"S": document})
        view = prepared.materialize(document)
        for _ in range(12):
            delta = _random_delta(semiring, view.document, rng)
            maintained = view.apply(delta)
            assert maintained == prepared.evaluate({"S": view.document})
        assert view.stats().applies == 12

    @pytest.mark.parametrize("semiring", [NATURAL, PROVENANCE], ids=lambda s: s.name)
    def test_deletions_round_trip_through_diff(self, semiring):
        """Cancellative semirings maintain deleting updates *incrementally*."""
        rng = random.Random(7)
        document = random_forest(semiring, num_trees=6, depth=3, fanout=2, seed=29)
        prepared = prepare_query(LINEAR_QUERY, semiring, {"S": document})
        view = prepared.materialize(document)
        for _ in range(10):
            delta = _random_delta(semiring, view.document, rng)
            assert view.apply(delta) == prepared.evaluate({"S": view.document})
        stats = view.stats()
        assert stats.recomputes == 0, "N / N[X] must never fall back on this stream"
        assert stats.incremental == 10

    def test_partial_deletion_is_exact_over_n(self):
        document = random_forest(NATURAL, num_trees=4, depth=2, fanout=2, seed=3)
        prepared = prepare_query("($S)/*", NATURAL, {"S": document})
        view = prepared.materialize(document)
        tree = next(iter(document))
        multiplicity = document.annotation(tree)
        view.apply(Delta.insertion(NATURAL, tree, 3))
        view.apply(Delta.deletion(NATURAL, tree, multiplicity + 1))
        assert view.document.annotation(tree) == 2
        assert view.result == prepared.evaluate({"S": view.document})
        assert view.stats().recomputes == 0

    def test_non_subtractive_semirings_fall_back_but_stay_exact(self):
        document = random_forest(BOOLEAN, num_trees=5, depth=2, fanout=2, seed=5)
        prepared = prepare_query(LINEAR_QUERY, BOOLEAN, {"S": document})
        view = prepared.materialize(document)
        tree = next(iter(view.document))
        view.apply(Delta.deletion(BOOLEAN, tree, view.document.annotation(tree)))
        assert view.result == prepared.evaluate({"S": view.document})
        stats = view.stats()
        assert stats.recomputes == 1  # deleting over B cannot cancel


class TestViewBehavior:
    def test_classifications_are_exposed(self):
        document = random_forest(NATURAL, num_trees=4, depth=2, fanout=2, seed=1)
        for query, expected in (
            (LINEAR_QUERY, LINEAR),
            (BILINEAR_QUERY, BILINEAR),
            (NON_INCREMENTAL_QUERY, NON_INCREMENTAL),
        ):
            prepared = prepare_query(query, NATURAL, {"S": document})
            assert prepared.materialize(document).classification == expected

    def test_insert_only_is_incremental_even_bilinear(self):
        document = random_forest(NATURAL, num_trees=4, depth=2, fanout=2, seed=2)
        prepared = prepare_query(BILINEAR_QUERY, NATURAL, {"S": document})
        view = prepared.materialize(document)
        tree = random_tree(NATURAL, depth=2, fanout=2, seed=55)
        view.apply(Delta.insertion(NATURAL, tree, 2))
        assert view.result == prepared.evaluate({"S": view.document})
        assert view.stats().incremental == 1

    def test_refresh_recomputes_and_counts(self):
        document = random_forest(NATURAL, num_trees=3, depth=2, fanout=2, seed=4)
        view = materialize(LINEAR_QUERY, NATURAL, document, cache=PlanCache(maxsize=4))
        before = view.result
        assert view.refresh() == before
        assert view.stats().refreshes == 1

    def test_empty_delta_is_a_noop(self):
        document = random_forest(NATURAL, num_trees=3, depth=2, fanout=2, seed=6)
        view = prepare_query(LINEAR_QUERY, NATURAL, {"S": document}).materialize(document)
        result = view.result
        assert view.apply(Delta(NATURAL)) is result
        assert view.stats().incremental == 1

    def test_failed_apply_leaves_stats_and_state_untouched(self):
        document = random_forest(NATURAL, num_trees=3, depth=2, fanout=2, seed=26)
        prepared = prepare_query(LINEAR_QUERY, NATURAL, {"S": document})
        view = prepared.materialize(document)
        ghost = random_tree(NATURAL, depth=2, fanout=2, seed=999)
        with pytest.raises(IVMError, match="removes more"):
            view.apply(Delta.deletion(NATURAL, ghost, 5))
        stats = view.stats()
        assert stats.applies == 0
        assert stats.applies == stats.incremental + stats.recomputes
        assert view.document == document

    def test_rejects_mismatched_deltas_and_documents(self):
        document = random_forest(NATURAL, num_trees=3, depth=2, fanout=2, seed=8)
        prepared = prepare_query(LINEAR_QUERY, NATURAL, {"S": document})
        view = prepared.materialize(document)
        with pytest.raises(IVMError):
            view.apply(Delta.insertion(BOOLEAN, random_tree(BOOLEAN, 2, 2, seed=1)))
        with pytest.raises(IVMError):
            view.apply("not a delta")
        with pytest.raises(IVMError):
            MaterializedView(prepared, "not a document")
        with pytest.raises(IVMError):
            MaterializedView(prepared, random_forest(BOOLEAN, 2, 2, 2, seed=1))

    def test_env_variables_flow_through_maintenance(self):
        document = random_forest(NATURAL, num_trees=4, depth=2, fanout=2, seed=9)
        constant = random_forest(NATURAL, num_trees=2, depth=2, fanout=2, seed=10)
        prepared = prepare_query(
            "( ($S)/*, ($T)/* )", NATURAL, {"S": document, "T": constant}
        )
        view = prepared.materialize(document, env={"T": constant})
        assert view.classification == LINEAR
        tree = random_tree(NATURAL, depth=2, fanout=2, seed=77)
        view.apply(Delta.insertion(NATURAL, tree, 2))
        deleted = next(iter(view.document))
        view.apply(Delta.deletion(NATURAL, deleted, view.document.annotation(deleted)))
        assert view.result == prepared.evaluate({"S": view.document, "T": constant})
        assert view.stats().recomputes == 0

    def test_env_forest_inside_the_delta_plan_is_lifted(self):
        # `for $x in $T return $S` is linear in $S but its *delta plan*
        # still iterates the constant $T — the Diff(K) path must evaluate
        # with the environment lifted, multiplying every delta pair by the
        # lifted annotations of $T.
        document = random_forest(NATURAL, num_trees=3, depth=2, fanout=2, seed=30)
        constant = random_forest(NATURAL, num_trees=3, depth=2, fanout=2, seed=31)
        prepared = prepare_query(
            "for $x in $T return $S", NATURAL, {"S": document, "T": constant}
        )
        view = prepared.materialize(document, env={"T": constant})
        assert view.classification == LINEAR
        victim = next(iter(view.document))
        view.apply(Delta.deletion(NATURAL, victim, view.document.annotation(victim)))
        assert view.result == prepared.evaluate({"S": view.document, "T": constant})
        assert view.stats().recomputes == 0

    def test_plan_cache_materialize_shares_compiles(self):
        cache = PlanCache(maxsize=8)
        document = random_forest(NATURAL, num_trees=3, depth=2, fanout=2, seed=12)
        view_a = materialize(LINEAR_QUERY, NATURAL, document, cache=cache)
        view_b = materialize(LINEAR_QUERY, NATURAL, document, cache=cache)
        assert view_a.prepared is view_b.prepared
        assert cache.stats().compiles == 1
        assert cache.stats().hits == 1


class TestBatchedApplication:
    def test_apply_many_batches_insert_only_streams(self):
        document = random_forest(NATURAL, num_trees=5, depth=3, fanout=2, seed=20)
        prepared = prepare_query(LINEAR_QUERY, NATURAL, {"S": document})
        view = prepared.materialize(document)
        deltas = [
            Delta.insertion(NATURAL, random_tree(NATURAL, 3, 2, seed=300 + i), 1 + i % 2)
            for i in range(6)
        ]
        view.apply_many(deltas)
        assert view.result == prepared.evaluate({"S": view.document})
        stats = view.stats()
        assert stats.batched == 6
        assert stats.applies == 6

    def test_apply_many_with_executor(self):
        document = random_forest(PROVENANCE, num_trees=4, depth=2, fanout=2, seed=21)
        prepared = prepare_query("($S)/*", PROVENANCE, {"S": document})
        view = prepared.materialize(document)
        deltas = [
            Delta.insertion(PROVENANCE, random_tree(PROVENANCE, 2, 2, seed=400 + i))
            for i in range(5)
        ]
        with ThreadPoolExecutor(max_workers=3) as executor:
            view.apply_many(deltas, executor=executor)
        assert view.result == prepared.evaluate({"S": view.document})
        assert view.stats().batched == 5

    def test_apply_many_rejects_process_pools(self):
        from concurrent.futures import ProcessPoolExecutor

        document = random_forest(NATURAL, num_trees=3, depth=2, fanout=2, seed=23)
        view = prepare_query(LINEAR_QUERY, NATURAL, {"S": document}).materialize(document)
        deltas = [Delta.insertion(NATURAL, random_tree(NATURAL, 2, 2, seed=i)) for i in range(2)]
        with ProcessPoolExecutor(max_workers=1) as executor:
            with pytest.raises(IVMError, match="process pools"):
                view.apply_many(deltas, executor=executor)

    def test_apply_many_recomputes_once_for_non_incremental_plans(self):
        document = random_forest(NATURAL, num_trees=4, depth=2, fanout=2, seed=24)
        prepared = prepare_query(NON_INCREMENTAL_QUERY, NATURAL, {"S": document})
        view = prepared.materialize(document)
        deltas = [
            Delta.insertion(NATURAL, random_tree(NATURAL, 2, 2, seed=600 + i))
            for i in range(5)
        ]
        view.apply_many(deltas)
        assert view.result == prepared.evaluate({"S": view.document})
        stats = view.stats()
        assert stats.applies == 5
        assert stats.recomputes == 1  # the stream folds into one recomputation

    def test_empty_delta_is_free_even_for_non_incremental_plans(self):
        document = random_forest(NATURAL, num_trees=3, depth=2, fanout=2, seed=25)
        view = prepare_query(NON_INCREMENTAL_QUERY, NATURAL, {"S": document}).materialize(document)
        result = view.result
        assert view.apply(Delta(NATURAL)) is result
        assert view.stats().recomputes == 0

    def test_apply_many_degrades_for_mixed_streams(self):
        document = random_forest(NATURAL, num_trees=5, depth=2, fanout=2, seed=22)
        prepared = prepare_query(LINEAR_QUERY, NATURAL, {"S": document})
        view = prepared.materialize(document)
        victim = next(iter(document))
        deltas = [
            Delta.insertion(NATURAL, random_tree(NATURAL, 2, 2, seed=500)),
            Delta.deletion(NATURAL, victim, document.annotation(victim)),
        ]
        view.apply_many(deltas)
        assert view.result == prepared.evaluate({"S": view.document})
        assert view.stats().batched == 0
        assert view.stats().applies == 2


class TestCodegenDeltaPlans:
    """Delta plans compile through the source-codegen pipeline, and
    maintenance runs the generated program — observably via its execution
    counter."""

    def test_straight_line_delta_plan_executes_generated_code(self):
        document = random_forest(NATURAL, num_trees=4, depth=3, fanout=2, seed=31)
        prepared = prepare_query("($S)/*/*", NATURAL, {"S": document})
        view = prepared.materialize(document)
        plan = view.plan
        assert plan.classification == LINEAR
        before = plan.generated.calls
        view.apply(Delta.insertion(NATURAL, random_tree(NATURAL, 2, 2, seed=32)))
        assert plan.generated.calls == before + 1
        assert view.result == prepared.evaluate({"S": view.document})
        assert view.stats().incremental == 1

    def test_diff_compilation_also_goes_through_codegen(self):
        from repro.nrc.codegen import CodegenProgram

        document = random_forest(NATURAL, num_trees=4, depth=3, fanout=2, seed=33)
        prepared = prepare_query("($S)/*/*", NATURAL, {"S": document})
        view = prepared.materialize(document)
        victim = next(iter(view.document))
        view.apply(Delta.deletion(NATURAL, victim, view.document.annotation(victim)))
        assert view.result == prepared.evaluate({"S": view.document})
        assert view.stats().recomputes == 0
        assert isinstance(view.plan.compiled_diff, CodegenProgram)

    def test_srt_delta_plans_execute_generated_code(self):
        document = random_forest(NATURAL, num_trees=4, depth=3, fanout=2, seed=34)
        prepared = prepare_query(LINEAR_QUERY, NATURAL, {"S": document})
        view = prepared.materialize(document)
        plan = view.plan
        assert plan.classification == LINEAR
        assert "def _srt" in plan.generated.source  # //c keeps srt inside the delta
        before = plan.generated.calls
        view.apply(Delta.insertion(NATURAL, random_tree(NATURAL, 2, 2, seed=35)))
        assert plan.generated.calls == before + 1
        assert view.result == prepared.evaluate({"S": view.document})
        assert view.stats().incremental == 1

    def test_apply_many_batches_through_the_generated_program(self):
        document = random_forest(NATURAL, num_trees=4, depth=3, fanout=2, seed=36)
        prepared = prepare_query("($S)/*/*", NATURAL, {"S": document})
        view = prepared.materialize(document)
        plan = view.plan
        before = plan.generated.calls
        deltas = [
            Delta.insertion(NATURAL, random_tree(NATURAL, 2, 2, seed=40 + i))
            for i in range(4)
        ]
        view.apply_many(deltas)
        assert plan.generated.calls == before + len(deltas)
        assert view.result == prepared.evaluate({"S": view.document})
        assert view.stats().batched == len(deltas)

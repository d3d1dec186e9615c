"""Theorem 1 / Corollary 1: query evaluation commutes with semiring homomorphisms.

For every K1-UXML value v, every homomorphism h : K1 -> K2 and every query p:
``H(p(v)) = H(p)(H(v))`` where H is the lifting of h to values and queries.
We check this on the paper's figures and on randomized workloads, for the
homomorphisms that matter in the applications (valuations out of N[X],
duplicate elimination N -> B, and the provenance hierarchy).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nrc import evaluate as evaluate_nrc, map_scalars
from repro.nrc.values import map_value_annotations
from repro.paperdata import (
    figure1_query,
    figure1_source,
    figure4_query,
    figure4_source,
    figure5_source_uxml,
    figure5_uxquery,
)
from repro.semirings import (
    BOOLEAN,
    CLEARANCE,
    NATURAL,
    PROVENANCE,
    TROPICAL,
    duplicate_elimination,
    polynomial_to_lineage,
    polynomial_to_posbool,
    polynomial_to_why,
    polynomial_valuation,
)
from repro.uxquery import evaluate_query, prepare_query
from repro.workloads import random_forest, random_query, standard_query_suite

FIGURES = [
    (figure1_query(), "S", figure1_source),
    (figure4_query(), "T", figure4_source),
    (figure5_uxquery(), "d", figure5_source_uxml),
]


def _check_commutation(query, variable, source, hom):
    """H(p(v)) == p(H(v)) — scalars in these queries are absent or trivial."""
    annotated = evaluate_query(query, hom.source, {variable: source})
    specialized_after = map_value_annotations(annotated, hom)
    specialized_before = evaluate_query(
        query, hom.target, {variable: map_value_annotations(source, hom)}
    )
    assert specialized_after == specialized_before


@pytest.mark.parametrize("query,variable,source_fn", FIGURES, ids=["fig1", "fig4", "fig5"])
@pytest.mark.parametrize(
    "target,values",
    [
        (BOOLEAN, [True, False]),
        (NATURAL, [0, 1, 2, 3]),
        (TROPICAL, [0.0, 1.0, 2.5, float("inf")]),
        (CLEARANCE, ["P", "C", "S", "T"]),
    ],
    ids=lambda item: getattr(item, "name", ""),
)
def test_corollary1_valuations_on_paper_figures(query, variable, source_fn, target, values):
    source = source_fn()
    from repro.provenance import tokens_used

    tokens = sorted(tokens_used(source))
    valuation = {token: values[index % len(values)] for index, token in enumerate(tokens)}
    hom = polynomial_valuation(valuation, target)
    _check_commutation(query, variable, source, hom)


@pytest.mark.parametrize("query,variable,source_fn", FIGURES, ids=["fig1", "fig4", "fig5"])
@pytest.mark.parametrize(
    "hom_factory",
    [polynomial_to_posbool, polynomial_to_why, polynomial_to_lineage],
    ids=["posbool", "why", "lineage"],
)
def test_corollary1_provenance_hierarchy(query, variable, source_fn, hom_factory):
    _check_commutation(query, variable, source_fn(), hom_factory())


def test_corollary1_duplicate_elimination_on_workloads():
    """Section 6.4: Boolean evaluation factors through bag evaluation plus dedup."""
    dagger = duplicate_elimination()
    for seed in range(3):
        forest = random_forest(NATURAL, num_trees=2, depth=3, fanout=2, seed=seed)
        for name, query in standard_query_suite().items():
            _check_commutation(query, "S", forest, dagger)


def test_corollary1_on_random_queries_and_forests():
    for seed in range(4):
        forest = random_forest(PROVENANCE, num_trees=2, depth=3, fanout=2, seed=seed)
        query = random_query(seed)
        from repro.provenance import tokens_used

        valuation = {token: (index % 3) for index, token in enumerate(sorted(tokens_used(forest)))}
        hom = polynomial_valuation(valuation, NATURAL)
        _check_commutation(query, "S", forest, hom)


def test_theorem1_on_nrc_expressions_with_scalars():
    """The full Theorem 1 statement, including H applied to the query's scalars."""
    from repro.nrc import BigUnion, Scale, Singleton, Union, Var

    expr = Union(
        Scale(NATURAL.from_int(2), BigUnion("x", Var("R"), Singleton(Var("x")))),
        Scale(NATURAL.from_int(3), Var("R")),
    )
    dagger = duplicate_elimination()
    from repro.kcollections import KSet

    for table in [{"a": 1, "b": 0}, {"a": 2}, {}]:
        value = KSet(NATURAL, table)
        lhs = map_value_annotations(evaluate_nrc(expr, NATURAL, {"R": value}), dagger)
        transformed = map_scalars(expr, dagger)
        rhs = evaluate_nrc(transformed, BOOLEAN, {"R": map_value_annotations(value, dagger)})
        assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10),
    st.dictionaries(st.sampled_from(["t1", "t2", "t3", "t4"]), st.integers(0, 3), max_size=4),
)
def test_corollary1_property_based(seed, partial_valuation):
    from repro.provenance import tokens_used
    from repro.workloads import token_annotated_forest

    forest = token_annotated_forest(num_trees=1, depth=2, fanout=2, seed=seed)
    valuation = {token: partial_valuation.get(token, 1) for token in tokens_used(forest)}
    # tokens are named v1, v2, ... so extend the partial valuation over them
    valuation = {token: partial_valuation.get(f"t{index % 4 + 1}", index % 3) for index, token in enumerate(sorted(valuation))}
    hom = polynomial_valuation(valuation, NATURAL)
    _check_commutation("element out { $S//a }", "S", forest, hom)


def test_prepared_query_commutation_both_methods():
    """Commutation holds for the compiled and the direct interpreter alike."""
    source = figure4_source()
    from repro.provenance import tokens_used

    valuation = {token: True for token in tokens_used(source)}
    hom = polynomial_valuation(valuation, BOOLEAN)
    prepared_nx = prepare_query(figure4_query(), PROVENANCE, {"T": source})
    boolean_source = map_value_annotations(source, hom)
    prepared_b = prepare_query(figure4_query(), BOOLEAN, {"T": boolean_source})
    for method in ("nrc-codegen", "direct"):
        after = map_value_annotations(prepared_nx.evaluate({"T": source}, method=method), hom)
        before = prepared_b.evaluate({"T": boolean_source}, method=method)
        assert after == before

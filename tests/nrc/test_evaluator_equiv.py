"""Equivalence of the production evaluator with the reference semantics.

The source-codegen evaluator (:mod:`repro.nrc.codegen`) must agree with the
Figure 8 interpreter (:mod:`repro.nrc.eval`) — and, through the engine, with
the independent direct interpreter (:mod:`repro.uxquery.direct`) — on every
well-typed program.  This suite checks that property across:

* the standard query workload and randomized queries from
  :mod:`repro.workloads`,
* every semiring in the registry (so the trusted fast-path constructors are
  exercised for idempotent, annihilating and canonical-form semirings alike),
* hand-built NRC expressions covering every AST node, including the binder
  forms whose local allocation the generator must get right (shadowing,
  reuse of a variable name in sibling scopes, srt over shared subtrees),
* repeated evaluation of one generated program (persistent srt memo tables
  and frame reuse must not leak state between calls).
"""

from __future__ import annotations

import pytest

from repro.errors import NRCEvalError
from repro.kcollections.kset import KSet
from repro.nrc.ast import (
    BigUnion,
    EmptySet,
    IfEq,
    Kids,
    LabelLit,
    Let,
    PairExpr,
    Proj,
    Scale,
    Singleton,
    Srt,
    Tag,
    TreeExpr,
    Union,
    Var,
)
from repro.nrc.codegen import compile_codegen
from repro.nrc.eval import evaluate as evaluate_interp
from repro.semirings import NATURAL, PROVENANCE
from repro.semirings.registry import available_semirings, get_semiring
from repro.uxml.tree import UTree, forest, leaf
from repro.uxquery import prepare_query
from repro.workloads import random_forest, random_query, standard_query_suite

ALL_METHODS = ("nrc-codegen", "nrc-interp", "direct")


def _evaluate_generated(expr, semiring, env):
    return compile_codegen(expr, semiring).evaluate(env)


def _assert_all_methods_agree(query, semiring, env):
    prepared = prepare_query(query, semiring, env)
    results = {method: prepared.evaluate(env, method=method) for method in ALL_METHODS}
    assert results["nrc-codegen"] == results["nrc-interp"], "codegen != interpreter"
    assert results["nrc-codegen"] == results["direct"], "codegen != direct"
    # Re-evaluating the same prepared query must be stable (memo tables and
    # frame slots must not leak state between calls).
    assert prepared.evaluate(env) == results["nrc-codegen"]
    return results["nrc-codegen"]


# ---------------------------------------------------------------------------
# Corpus x registry semirings
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("semiring_name", available_semirings())
@pytest.mark.parametrize("query_name", sorted(standard_query_suite()))
def test_query_corpus_across_registry(semiring_name, query_name):
    semiring = get_semiring(semiring_name)
    query = standard_query_suite()[query_name]
    env = {"S": random_forest(semiring, num_trees=3, depth=3, fanout=2, seed=11)}
    _assert_all_methods_agree(query, semiring, env)


@pytest.mark.parametrize("seed", range(12))
def test_random_queries_provenance(seed):
    query = random_query(seed=seed)
    env = {"S": random_forest(PROVENANCE, num_trees=3, depth=3, fanout=2, seed=seed)}
    _assert_all_methods_agree(query, PROVENANCE, env)


@pytest.mark.parametrize("seed", range(6))
def test_random_queries_natural(seed):
    query = random_query(seed=seed + 100)
    env = {"S": random_forest(NATURAL, num_trees=2, depth=4, fanout=2, seed=seed)}
    _assert_all_methods_agree(query, NATURAL, env)


# ---------------------------------------------------------------------------
# Direct NRC expressions: every node kind, tricky scoping
# ---------------------------------------------------------------------------
def _sample_tree(semiring) -> UTree:
    a = leaf(semiring, "a")
    b = leaf(semiring, "b")
    inner = UTree("n", forest(semiring, a, b))
    return UTree("root", forest(semiring, inner, a))


@pytest.mark.parametrize("semiring_name", available_semirings())
def test_node_coverage_expression(semiring_name):
    semiring = get_semiring(semiring_name)
    tree = _sample_tree(semiring)
    expr = Let(
        "t",
        Var("input"),
        BigUnion(
            "x",
            Kids(Var("t")),
            IfEq(
                Tag(Var("x")),
                LabelLit("n"),
                Singleton(PairExpr(Tag(Var("x")), Proj(1, PairExpr(Var("x"), Var("x"))))),
                Union(
                    Singleton(PairExpr(LabelLit("other"), Var("x"))),
                    Scale(semiring.one, EmptySet()),
                ),
            ),
        ),
    )
    env = {"input": tree}
    interpreted = evaluate_interp(expr, semiring, env)
    program = compile_codegen(expr, semiring)
    assert program.evaluate(env) == interpreted
    assert program.evaluate(env) == interpreted  # second call: no state leak


@pytest.mark.parametrize("semiring_name", available_semirings())
def test_srt_expression(semiring_name):
    """Structural recursion: count/collect labels via Tree rebuilding."""
    semiring = get_semiring(semiring_name)
    tree = _sample_tree(semiring)
    # (srt(l, acc). Tree(l, acc)) t — the identity on trees, hitting TreeExpr,
    # the accumulator path and the srt memo over the shared leaf `a`.
    expr = Srt("l", "acc", TreeExpr(Var("l"), Var("acc")), Var("input"))
    env = {"input": tree}
    interpreted = evaluate_interp(expr, semiring, env)
    program = compile_codegen(expr, semiring)
    assert program.evaluate(env) == interpreted == tree
    assert program.evaluate(env) == tree


def test_srt_open_body_uses_outer_binding():
    """An srt body with a free variable still sees the current environment."""
    semiring = NATURAL
    tree = _sample_tree(semiring)
    expr = Srt(
        "l",
        "acc",
        Union(Singleton(Var("extra")), Var("acc")),
        Var("input"),
    )
    for extra_label in ("p", "q"):
        extra = leaf(semiring, extra_label)
        env = {"input": tree, "extra": extra}
        interpreted = evaluate_interp(expr, semiring, env)
        generated = _evaluate_generated(expr, semiring, env)
        assert generated == interpreted
        assert extra in generated


def test_variable_shadowing_and_sibling_scopes():
    semiring = NATURAL
    source = KSet.from_values(semiring, ["x", "y"])
    # The same variable name bound by nested and by sibling binders: each
    # binder must get its own local.
    expr = Union(
        BigUnion("v", Var("S"), Let("v", LabelLit("shadowed"), Singleton(Var("v")))),
        BigUnion("v", Var("S"), Singleton(Var("v"))),
    )
    env = {"S": source}
    interpreted = evaluate_interp(expr, semiring, env)
    assert _evaluate_generated(expr, semiring, env) == interpreted
    assert interpreted.annotation("shadowed") == 2
    assert interpreted.annotation("x") == 1


def test_unbound_variable_raises_on_access_only():
    semiring = NATURAL
    # The unbound branch is never taken, so no error (as in the interpreter).
    guarded = IfEq(LabelLit("a"), LabelLit("a"), Singleton(LabelLit("ok")), Singleton(Var("missing")))
    assert _evaluate_generated(guarded, semiring, {}) == evaluate_interp(guarded, semiring, {})
    with pytest.raises(NRCEvalError):
        _evaluate_generated(Var("missing"), semiring, {})


def test_generated_program_reports_free_variables():
    expr = BigUnion("x", Var("S"), Singleton(PairExpr(Var("x"), Var("T"))))
    program = compile_codegen(expr, NATURAL)
    assert program.free_variables == {"S", "T"}


@pytest.mark.parametrize("semiring_name", ["natural", "provenance-polynomials", "subset-lattice"])
def test_scale_annihilation_and_units(semiring_name):
    """Scalar multiplication: zero annihilates, one is the identity, and
    lattice meets that collapse to zero drop members (trusted-path zero check)."""
    semiring = get_semiring(semiring_name)
    samples = [value for value in semiring.sample_elements()]
    source = KSet.from_values(semiring, ["a", "b"])
    for scalar in samples:
        expr = Scale(scalar, Var("S"))
        env = {"S": source}
        assert _evaluate_generated(expr, semiring, env) == evaluate_interp(expr, semiring, env)

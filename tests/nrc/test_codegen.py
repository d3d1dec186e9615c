"""Unit coverage for the source-codegen evaluator (:mod:`repro.nrc.codegen`).

The exhaustive equivalence checks live in ``test_evaluator_equiv.py``
(corpus x registry semirings) and ``test_codegen_fuzz.py`` (randomized
expressions); this file covers the mechanics: coverage of the edge cases
codegen emits conservatively (``srt``, non-canonical and trivial semirings,
foreign scalars), the generated ``srt`` memo semantics, scoping/shadowing
in the generated locals, frame semantics (unbound-at-access), inline-op
template validation, and the engine-level wiring (default method,
execution counters).
"""

from __future__ import annotations

import pytest

from repro.errors import NRCEvalError, SemiringError
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
from repro.nrc import codegen
from repro.nrc.codegen import CodegenProgram, compile_codegen, codegen_stats
from repro.nrc.eval import evaluate as evaluate_interp
from repro.semirings import BOOLEAN, NATURAL, PROVENANCE
from repro.semirings.base import Semiring
from repro.semirings.registry import available_semirings, get_semiring
from repro.uxml.tree import UTree, forest, leaf
from repro.uxquery import prepare_query
from repro.workloads import random_forest


def _sample_tree(semiring) -> UTree:
    a = leaf(semiring, "a")
    b = leaf(semiring, "b")
    inner = UTree("n", forest(semiring, a, b))
    return UTree("root", forest(semiring, inner, a))


# ---------------------------------------------------------------------------
# Node coverage and scoping
# ---------------------------------------------------------------------------
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


def test_variable_shadowing_and_sibling_scopes():
    semiring = NATURAL
    source = KSet.from_values(semiring, ["x", "y"])
    expr = Union(
        BigUnion("v", Var("S"), Let("v", LabelLit("shadowed"), Singleton(Var("v")))),
        BigUnion("v", Var("S"), Singleton(Var("v"))),
    )
    env = {"S": source}
    interpreted = evaluate_interp(expr, semiring, env)
    assert compile_codegen(expr, semiring).evaluate(env) == interpreted
    assert interpreted.annotation("shadowed") == 2


def test_unbound_variable_raises_on_access_only():
    semiring = NATURAL
    guarded = IfEq(
        LabelLit("a"), LabelLit("a"), Singleton(LabelLit("ok")), Singleton(Var("missing"))
    )
    program = compile_codegen(guarded, semiring)
    assert program.evaluate({}) == evaluate_interp(guarded, semiring, {})
    with pytest.raises(NRCEvalError, match="unbound variable"):
        compile_codegen(Singleton(Var("missing")), semiring).evaluate({})


def test_free_variables_reported():
    expr = BigUnion("x", Var("S"), Singleton(PairExpr(Var("x"), Var("T"))))
    program = compile_codegen(expr, NATURAL)
    assert program.free_variables == {"S", "T"}


@pytest.mark.parametrize("semiring_name", ["natural", "provenance-polynomials", "subset-lattice"])
def test_scale_annihilation_and_units(semiring_name):
    semiring = get_semiring(semiring_name)
    source = KSet.from_values(semiring, ["a", "b"])
    for scalar in semiring.sample_elements():
        expr = Scale(scalar, Var("S"))
        env = {"S": source}
        assert compile_codegen(expr, semiring).evaluate(env) == evaluate_interp(
            expr, semiring, env
        )


def test_foreign_collection_raises_semiring_error():
    # The interpreter rerun raises, exactly like KSet's own algebra would.
    expr = BigUnion("x", Var("S"), Singleton(Var("x")))
    program = compile_codegen(expr, NATURAL)
    foreign = KSet.from_values(BOOLEAN, ["a"])
    with pytest.raises(SemiringError, match="different semirings"):
        program.evaluate({"S": foreign})


def test_foreign_collection_engine_parity_via_interpreter():
    """On runtime foreign-semiring collections the generated program bails
    out and reruns the Figure 8 interpreter on its (simplified) plan, whose
    behaviour (big unions bind in the collection's semiring) defines the
    result — on the single-call path and on the batch template path alike.

    ``method="nrc-interp"`` runs the *unsimplified* plan, whose singleton
    wrappers mix the two semirings, so there it raises instead."""
    document = random_forest(NATURAL, num_trees=2, depth=3, fanout=2, seed=41)
    prepared = prepare_query("($S)/*", NATURAL, {"S": document})
    foreign = random_forest(BOOLEAN, num_trees=2, depth=3, fanout=2, seed=41)

    def interp(doc):
        return evaluate_interp(prepared.nrc_simplified, NATURAL, {"S": doc})

    via_interp = interp(foreign)
    assert via_interp.semiring == BOOLEAN
    before = prepared.generated.calls
    assert prepared.evaluate({"S": foreign}, method="nrc-codegen") == via_interp
    assert prepared.evaluate({"S": foreign}) == via_interp
    assert prepared.generated.calls == before  # the interpreter served both
    with pytest.raises(SemiringError):
        prepared.evaluate({"S": foreign}, method="nrc-interp")
    from repro.exec import BatchEvaluator

    mixed = [document, foreign, document]
    batched = BatchEvaluator(prepared).evaluate_many(mixed)
    assert batched == [interp(doc) for doc in mixed]
    assert batched[0] == prepared.evaluate({"S": document}, method="nrc-interp")


# ---------------------------------------------------------------------------
# Former decline gates: every case is generated and equals the interpreter
# ---------------------------------------------------------------------------
def _srt_rebuild(target):
    """(srt(l, acc). {Tree(l, U(z in acc) z)}) target — rebuilds the tree."""
    return Srt("l", "acc", Singleton(TreeExpr(Var("l"), BigUnion("z", Var("acc"), Var("z")))), target)


def test_generates_srt():
    tree = _sample_tree(NATURAL)
    expr = _srt_rebuild(Var("t"))
    program = compile_codegen(expr, NATURAL)
    assert "def _srt" in program.source
    env = {"t": tree}
    assert program.evaluate(env) == evaluate_interp(expr, NATURAL, env)
    assert program.evaluate(env) == KSet.singleton(NATURAL, tree)


class _Sloppy(Semiring):
    """N whose operations do not promise canonical form."""

    name = "sloppy-test"
    ops_preserve_normal_form = False

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def is_valid(self, a):
        return isinstance(a, int) and a >= 0


def test_generates_for_non_canonical_semiring():
    semiring = _Sloppy()
    tree = _sample_tree(semiring)
    source = KSet(semiring, [(tree, 2), (leaf(semiring, "c"), 3)])
    expr = Union(
        Singleton(LabelLit("a")),
        BigUnion("x", Var("S"), Scale(2, Kids(Var("x")))),
    )
    program = compile_codegen(expr, semiring)
    assert "_KSet(_SR, " in program.source and "_from_normalized(_SR, {_v" not in program.source
    env = {"S": source}
    assert program.evaluate(env) == evaluate_interp(expr, semiring, env)
    rebuilt = compile_codegen(_srt_rebuild(Var("t")), semiring)
    assert rebuilt.evaluate({"t": tree}) == evaluate_interp(_srt_rebuild(Var("t")), semiring, {"t": tree})


class _Trivial(Semiring):
    """The one-element semiring, where 1 == 0."""

    name = "trivial-test"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 0

    def add(self, a, b):
        return 0

    def mul(self, a, b):
        return 0

    def is_valid(self, a):
        return a == 0


def test_generates_for_trivial_semiring():
    """1 == 0: a singleton evaluates its member, then is empty."""
    trivial = _Trivial()
    expr = Union(
        Singleton(Tag(Var("t"))),
        BigUnion("x", Kids(Var("t")), Singleton(Var("x"))),
    )
    tree = _sample_tree(trivial)
    env = {"t": tree}
    program = compile_codegen(expr, trivial)
    assert program.evaluate(env) == evaluate_interp(expr, trivial, env) == KSet.empty(trivial)
    # The member is still evaluated: a bad member raises as in the interpreter.
    with pytest.raises(NRCEvalError, match="tag"):
        compile_codegen(Singleton(Tag(LabelLit("a"))), trivial).evaluate({})
    rebuilt = _srt_rebuild(Var("t"))
    assert compile_codegen(rebuilt, trivial).evaluate(env) == evaluate_interp(rebuilt, trivial, env)


def test_generates_foreign_scalar_as_bound_scale_call():
    expr = Scale(object(), Var("S"))
    program = compile_codegen(expr, NATURAL)
    assert ".scale(" in program.source
    source = KSet.from_values(NATURAL, ["a"])
    with pytest.raises(Exception) as generated_error:
        program.evaluate({"S": source})
    with pytest.raises(Exception) as interp_error:
        evaluate_interp(expr, NATURAL, {"S": source})
    assert type(generated_error.value) is type(interp_error.value)
    # A scalar foreign to the compile-time semiring but valid in the
    # collection's own semiring scales that collection, as in the interpreter.
    why = get_semiring("why-provenance")
    scaled = Scale(list(why.sample_elements())[2], Var("S"))
    env = {"S": KSet.from_values(why, ["a"])}
    assert compile_codegen(scaled, NATURAL).evaluate(env) == evaluate_interp(scaled, NATURAL, env)


def test_counters_track_generation():
    before = codegen_stats()
    compile_codegen(Singleton(LabelLit("a")), NATURAL)
    compile_codegen(Srt("l", "a", Var("a"), Var("t")), NATURAL)
    after = codegen_stats()
    assert after == {"generated": before["generated"] + 2}


# ---------------------------------------------------------------------------
# Generated srt semantics
# ---------------------------------------------------------------------------
def _counting_ticks(monkeypatch):
    """Count the per-node limit checks of generated srt recursions."""
    visits = [0]

    def tick(rows=None):
        if rows is None:
            visits[0] += 1

    monkeypatch.setattr(codegen, "check_tick", tick)
    return visits


def test_closed_srt_memo_survives_evaluations_and_resets_past_limit(monkeypatch):
    visits = _counting_ticks(monkeypatch)
    tree = _sample_tree(NATURAL)  # 4 distinct subtrees: root, n, a, b
    expr = _srt_rebuild(Var("t"))
    program = compile_codegen(expr, NATURAL)
    env = {"t": tree}
    expected = evaluate_interp(expr, NATURAL, env)
    assert program.evaluate(env) == expected
    assert visits[0] == 4  # the shared leaf `a` is computed once
    assert program.evaluate(env) == expected
    assert visits[0] == 4  # second evaluation: every subtree memoized
    # Past the limit, the memo is cleared at the next application.
    monkeypatch.setattr(codegen, "_SRT_MEMO_LIMIT", 2)
    limited = compile_codegen(expr, NATURAL)
    visits[0] = 0
    assert limited.evaluate(env) == expected
    assert limited.evaluate(env) == expected
    assert visits[0] == 8


def test_open_srt_body_sees_the_outer_binding():
    """Per-application memo: a subtree shared by two applications is
    recomputed under each one's binding of the outer variable."""
    semiring = NATURAL
    shared = UTree("n", forest(semiring, leaf(semiring, "a")))
    first = UTree("p", forest(semiring, shared))
    second = UTree("q", forest(semiring, shared))
    expr = BigUnion(
        "x",
        Var("S"),
        Srt(
            "l",
            "acc",
            Union(
                Singleton(PairExpr(Tag(Var("x")), Var("l"))),
                BigUnion("z", Var("acc"), Var("z")),
            ),
            Var("x"),
        ),
    )
    env = {"S": forest(semiring, first, second)}
    program = compile_codegen(expr, semiring)
    result = program.evaluate(env)
    assert result == evaluate_interp(expr, semiring, env)
    assert ("q", "a") in {(pair.first, pair.second) for pair in result}
    for extra_label in ("p", "q"):
        extra = leaf(semiring, extra_label)
        rooted = Srt("l", "acc", Union(Singleton(Var("extra")), Var("acc")), Var("t"))
        bindings = {"t": _sample_tree(semiring), "extra": extra}
        generated = compile_codegen(rooted, semiring).evaluate(bindings)
        assert generated == evaluate_interp(rooted, semiring, bindings)
        assert extra in generated


# ---------------------------------------------------------------------------
# Inline-op template validation
# ---------------------------------------------------------------------------
def test_bad_inline_template_falls_back_to_bound_ops():
    class WrongTemplate(type(NATURAL)):
        name = "natural"  # same identity so KSets interoperate
        codegen_add = "({a} - {b})"  # disagrees with add on samples
        codegen_mul = "not even python ("  # does not compile

    semiring = WrongTemplate()
    expr = Union(Var("S"), Var("S"))
    program = compile_codegen(expr, semiring)
    source_forest = KSet(semiring, [("a", 2), ("b", 3)])
    result = program.evaluate({"S": source_forest})
    assert result.annotation("a") == 4  # the real add, not the bad template
    assert "_ADD(" in program.source and " - " not in program.source


def test_bound_call_weights_multiply_only_for_contributing_members():
    """Without an inline mul template, a loop level's weight is multiplied
    out on first use: members a label test filters out cost nothing."""

    class CountingNatural(type(NATURAL)):
        name = "natural"  # same identity so KSets interoperate
        codegen_mul = None
        calls = 0

        def mul(self, a, b):
            CountingNatural.calls += 1
            return a * b

    semiring = CountingNatural()

    def node(label, *kids):
        return UTree(label, KSet(semiring, [(kid, 2) for kid in kids]))

    source = KSet(semiring, [(node("p", node("a"), node("c")), 2), (node("q", node("a"), node("b")), 2)])
    expr = BigUnion(
        "x",
        Var("S"),
        BigUnion("y", Kids(Var("x")), IfEq(Tag(Var("y")), LabelLit("c"), Singleton(Var("y")), EmptySet())),
    )
    program = compile_codegen(expr, semiring)
    CountingNatural.calls = 0
    result = program.evaluate({"S": source})
    assert CountingNatural.calls == 1  # only (p, c) contributes; 4 products if eager
    assert result == evaluate_interp(expr, semiring, {"S": source})
    assert result.annotation(node("c")) == 4


# ---------------------------------------------------------------------------
# Engine wiring
# ---------------------------------------------------------------------------
def test_prepared_query_defaults_to_generated_program():
    document = random_forest(NATURAL, num_trees=2, depth=3, fanout=2, seed=3)
    prepared = prepare_query("element out { $S/*/* }", NATURAL, {"S": document})
    assert isinstance(prepared.generated, CodegenProgram)
    before = prepared.generated.calls
    env = {"S": document}
    assert prepared.evaluate(env) == prepared.evaluate(env, method="nrc-interp")
    assert prepared.generated.calls == before + 1


def test_prepared_query_generates_srt_plans():
    document = random_forest(NATURAL, num_trees=2, depth=3, fanout=2, seed=3)
    prepared = prepare_query("element out { $S//c }", NATURAL, {"S": document})
    assert "def _srt" in prepared.generated.source
    env = {"S": document}
    before = prepared.generated.calls
    assert prepared.evaluate(env, method="nrc-codegen") == prepared.evaluate(
        env, method="nrc-interp"
    )
    assert prepared.generated.calls == before + 1


@pytest.mark.parametrize("semiring_name", available_semirings())
def test_engine_codegen_equals_all_methods(semiring_name):
    semiring = get_semiring(semiring_name)
    document = random_forest(semiring, num_trees=3, depth=3, fanout=2, seed=21)
    env = {"S": document}
    prepared = prepare_query("element out { $S/*/* }", semiring, env)
    results = {
        method: prepared.evaluate(env, method=method)
        for method in ("nrc-codegen", "nrc-interp", "direct")
    }
    assert results["nrc-codegen"] == results["nrc-interp"]
    assert results["nrc-codegen"] == results["direct"]


def test_generated_program_is_picklable_free():
    """The program exposes the frame protocol the batch template path drives."""
    document = random_forest(NATURAL, num_trees=2, depth=2, fanout=2, seed=5)
    prepared = prepare_query("($S)/*", NATURAL, {"S": document})
    generated = prepared.generated
    assert isinstance(generated, CodegenProgram)
    assert generated._num_slots == len(generated._free_slots) == 1
    assert set(generated._free_slots) == set(generated.free_variables) == {"S"}

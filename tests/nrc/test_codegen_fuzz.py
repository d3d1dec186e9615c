"""Differential fuzzing: the codegen equivalence gate.

Randomized well-typed NRC expressions (:mod:`nrc_exprgen`) are evaluated by
the reference Figure 8 interpreter and by the source-codegen evaluator, and
the results asserted *exactly* equal, for every semiring in the registry.
Codegen is total, so every generated expression — ``srt`` structural
recursion included — goes through it; an srt-heavy corpus exercises the
generated recursion and its memo tables.
"""

from __future__ import annotations

import pytest

from nrc_exprgen import random_expr
from repro.nrc.ast import Srt, iter_subexpressions
from repro.nrc.codegen import compile_codegen
from repro.nrc.eval import evaluate as evaluate_interp
from repro.semirings.registry import available_semirings, get_semiring
from repro.workloads import random_forest

SEEDS = range(24)


def _contains_srt(expr) -> bool:
    return any(isinstance(node, Srt) for node in iter_subexpressions(expr))


def _assert_codegen_matches(semiring, expr, env, seed) -> None:
    reference = evaluate_interp(expr, semiring, env)
    program = compile_codegen(expr, semiring)
    assert program.evaluate(env) == reference, (
        f"codegen != interp (seed {seed})\n{program.source}"
    )
    # Repeated evaluation of one generated program must be stable (no state
    # may leak through the accumulators, the frame or the srt memo tables).
    assert program.evaluate(env) == reference, f"codegen state leak (seed {seed})"


@pytest.mark.parametrize("semiring_name", available_semirings())
def test_fuzz_differential_equivalence(semiring_name):
    semiring = get_semiring(semiring_name)
    for seed in SEEDS:
        expr = random_expr(semiring, seed=seed, max_depth=4)
        env = {"S": random_forest(semiring, num_trees=2, depth=3, fanout=2, seed=seed)}
        _assert_codegen_matches(semiring, expr, env, seed)


@pytest.mark.parametrize("semiring_name", available_semirings())
def test_fuzz_srt_heavy_equivalence(semiring_name):
    """An srt-heavy corpus: generated recursion equals the interpreter."""
    semiring = get_semiring(semiring_name)
    with_srt = 0
    for seed in SEEDS:
        expr = random_expr(semiring, seed=seed, max_depth=3, srt_probability=0.5)
        with_srt += _contains_srt(expr)
        env = {"S": random_forest(semiring, num_trees=2, depth=2, fanout=2, seed=seed)}
        _assert_codegen_matches(semiring, expr, env, seed)
    assert with_srt >= len(SEEDS) // 4, "srt_probability=0.5 barely generated srt"


def test_fuzz_is_deterministic():
    semiring = get_semiring("natural")
    assert random_expr(semiring, seed=7) == random_expr(semiring, seed=7)
    assert str(random_expr(semiring, seed=7)) == str(random_expr(semiring, seed=7))

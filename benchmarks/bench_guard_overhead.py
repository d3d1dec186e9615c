"""Limit-checking overhead on the codegen hot path (must stay <= 5%).

The guardrail contract (:mod:`repro.resilience.limits`) is that the checks
compiled into the evaluators are cheap enough to leave on in production:
``check_tick`` is a single global read when no guard is active, and the
codegen evaluator amortizes the active case behind a stride counter (one
real check per 256 loop iterations).  This benchmark times the deep
child-chain workload (``suite_child-chain-3``, the shape where loop
overhead matters most) with and without an armed ``EvalLimits``, and the
regression bar — enforced here and by the CI quick-mode step via
``run_all.py``'s ``resilience`` section — is that enabling generous limits
costs at most 5%.

The forest is larger than the codegen bench's so the per-call guard
activation (one allocation + two thread-local ops) is amortized the way a
real guarded query would amortize it.
"""

from __future__ import annotations

import time

from repro.resilience import EvalLimits
from repro.semirings import NATURAL
from repro.uxquery import prepare_query
from repro.workloads import random_forest, standard_query_suite

#: Generous enough that nothing fires: the cost measured is pure checking.
GENEROUS = EvalLimits(timeout_s=300.0, max_rows=10**9)

#: The acceptance bar: limits on vs off on the codegen hot path.
MAX_OVERHEAD_RATIO = 1.05


def _case():
    forest = random_forest(NATURAL, num_trees=8, depth=4, fanout=3, seed=17)
    query = standard_query_suite()["child-chain-3"]
    prepared = prepare_query(query, NATURAL, {"S": forest})
    assert prepared.generated.limit_checks > 0, "no guard sites in the generated loops"
    return prepared, {"S": forest}


def _best_interleaved_pair(
    baseline_fn, candidate_fn, repetitions: int = 40, batches: int = 7
) -> tuple[float, float]:
    # Interleave the two sides batch by batch: clock-frequency or load drift
    # between two back-to-back measurement windows would otherwise read as
    # overhead of whichever side ran later.
    best_baseline = best_candidate = float("inf")
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(repetitions):
            baseline_fn()
        best_baseline = min(best_baseline, (time.perf_counter() - start) / repetitions)
        start = time.perf_counter()
        for _ in range(repetitions):
            candidate_fn()
        best_candidate = min(best_candidate, (time.perf_counter() - start) / repetitions)
    return best_baseline, best_candidate


def test_guarded_codegen_unlimited(benchmark):
    prepared, env = _case()
    expected = prepared.evaluate(env)
    answer = benchmark(lambda: prepared.evaluate(env, method="nrc-codegen"))
    assert answer == expected


def test_guarded_codegen_with_limits(benchmark):
    prepared, env = _case()
    expected = prepared.evaluate(env)
    answer = benchmark(
        lambda: prepared.evaluate(env, method="nrc-codegen", limits=GENEROUS)
    )
    assert answer == expected


def test_guard_overhead_within_bound():
    """Armed-but-quiet limits must cost <= 5% on the codegen hot path."""
    prepared, env = _case()
    assert prepared.evaluate(env, limits=GENEROUS) == prepared.evaluate(env)
    without, with_limits = _best_interleaved_pair(
        lambda: prepared.evaluate(env, method="nrc-codegen"),
        lambda: prepared.evaluate(env, method="nrc-codegen", limits=GENEROUS),
    )
    ratio = with_limits / without
    assert ratio <= MAX_OVERHEAD_RATIO, (
        f"limit checking costs {(ratio - 1) * 100:.1f}% on suite_child-chain-3 "
        f"(bar: {(MAX_OVERHEAD_RATIO - 1) * 100:.0f}%); "
        f"without={without * 1e6:.1f}us with={with_limits * 1e6:.1f}us"
    )


def test_unarmed_check_tick_is_near_free():
    """With no guard active anywhere, evaluating with limits=None must not
    regress: check_tick is one module-global read."""
    prepared, env = _case()
    plain, unbounded = _best_interleaved_pair(
        lambda: prepared.evaluate(env, method="nrc-codegen"),
        lambda: prepared.evaluate(env, method="nrc-codegen", limits=EvalLimits()),
    )
    assert unbounded / plain <= MAX_OVERHEAD_RATIO

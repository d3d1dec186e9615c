"""High-level K-UXQuery engine: parse, normalize, typecheck, compile, evaluate.

This is the main entry point of the library::

    from repro.semirings import PROVENANCE
    from repro.uxquery import evaluate_query

    answer = evaluate_query("element p { $S/*/* }", PROVENANCE, {"S": source})

Three evaluation methods are available and agree on every query (the
test-suite checks this):

* ``method="nrc-codegen"`` (default) — the paper's semantics at full speed:
  compile into NRC_K + srt (Section 6.3), simplify with the Appendix A
  axioms, and run the *source-generated* program (:mod:`repro.nrc.codegen`):
  the plan is printed as specialized Python source — bind chains fused into
  nested loops, semiring operations inlined, ``srt`` as a memoized recursive
  function — and byte-compiled at prepare time.  Codegen is total, so every
  plan runs this way;
* ``method="nrc-interp"`` — the *unsimplified* NRC_K + srt compilation output
  run by the reference Figure 8 interpreter (:mod:`repro.nrc.eval`).  Kept as
  the executable specification and as the baseline of the performance suite;
  because it evaluates the pre-simplification program, agreement between the
  methods also validates the Appendix A simplifier;
* ``method="direct"`` — an independent structural interpreter over K-UXML.

The evaluator equivalence contract — ``nrc-interp == nrc-codegen`` on every
expression, every registry semiring — is checked by the equivalence corpus
and the differential fuzz suite in ``tests/nrc/``.
"""

from __future__ import annotations

import hashlib
from time import perf_counter as _perf
from typing import Any, Iterable, Mapping

from repro.errors import UXQueryEvalError, UXQueryTypeError
from repro.kcollections.kset import KSet
from repro.nrc.ast import Expr, expression_size
from repro.nrc.codegen import CodegenProgram, compile_codegen
from repro.nrc.eval import evaluate as evaluate_nrc
from repro.nrc.rewrite import simplify
from repro.obs import profile as _obs_profile
from repro.obs import qlog as _qlog
from repro.obs import trace as _trace
from repro.obs.trace import span
from repro.resilience.limits import EvalLimits, activate
from repro.semirings.base import Semiring
from repro.uxml.tree import UTree
from repro.uxquery.ast import Query, query_size
from repro.uxquery.compile import compile_to_nrc
from repro.uxquery.direct import evaluate_direct
from repro.uxquery.normalize import normalize
from repro.uxquery.parser import parse_query
from repro.uxquery.typecheck import FOREST, LABEL, TREE, infer_type

__all__ = [
    "PreparedQuery",
    "prepare_query",
    "evaluate_query",
    "env_types_of",
    "plan_signature",
    "VALID_METHODS",
    "DEFAULT_METHOD",
    "validate_method",
]

#: The evaluation methods understood by :meth:`PreparedQuery.evaluate`.
VALID_METHODS = ("nrc-codegen", "nrc-interp", "direct")

#: The production default: the generated program.
DEFAULT_METHOD = "nrc-codegen"


def validate_method(method: str) -> str:
    """Check an evaluation-method name, raising a listing error if unknown."""
    if method not in VALID_METHODS:
        valid = ", ".join(repr(name) for name in VALID_METHODS)
        raise UXQueryEvalError(
            f"unknown evaluation method {method!r}; valid methods: {valid}"
        )
    return method


def _alpha_normalized(expr: Expr, env: Mapping[str, str], level: int) -> str:
    """Render ``expr`` with bound variables replaced by binder-depth names.

    Capture-avoiding substitution gensyms fresh names (``x#17``) from a
    process-global counter, so ``str(plan)`` depends on compilation history.
    This rendering replaces every bound name by ``%<depth>`` (free variables
    keep their names), making alpha-equivalent plans render identically.
    """
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

    if isinstance(expr, Var):
        return env.get(expr.name, expr.name)
    if isinstance(expr, LabelLit):
        return repr(expr.label)
    if isinstance(expr, EmptySet):
        return "{}"
    if isinstance(expr, Singleton):
        return f"{{{_alpha_normalized(expr.expr, env, level)}}}"
    if isinstance(expr, Union):
        return (
            f"({_alpha_normalized(expr.left, env, level)} U "
            f"{_alpha_normalized(expr.right, env, level)})"
        )
    if isinstance(expr, Scale):
        return f"({expr.scalar} * {_alpha_normalized(expr.expr, env, level)})"
    if isinstance(expr, BigUnion):
        source = _alpha_normalized(expr.source, env, level)
        name = f"%{level}"
        inner = dict(env)
        inner[expr.var] = name
        return f"U({name} in {source}) {_alpha_normalized(expr.body, inner, level + 1)}"
    if isinstance(expr, IfEq):
        return (
            f"if {_alpha_normalized(expr.left, env, level)} = "
            f"{_alpha_normalized(expr.right, env, level)} then "
            f"{_alpha_normalized(expr.then, env, level)} else "
            f"{_alpha_normalized(expr.orelse, env, level)}"
        )
    if isinstance(expr, PairExpr):
        return (
            f"({_alpha_normalized(expr.first, env, level)}, "
            f"{_alpha_normalized(expr.second, env, level)})"
        )
    if isinstance(expr, Proj):
        return f"pi_{expr.index}({_alpha_normalized(expr.expr, env, level)})"
    if isinstance(expr, TreeExpr):
        return (
            f"Tree({_alpha_normalized(expr.label, env, level)}, "
            f"{_alpha_normalized(expr.kids, env, level)})"
        )
    if isinstance(expr, Tag):
        return f"tag({_alpha_normalized(expr.expr, env, level)})"
    if isinstance(expr, Kids):
        return f"kids({_alpha_normalized(expr.expr, env, level)})"
    if isinstance(expr, Srt):
        target = _alpha_normalized(expr.target, env, level)
        label_name, acc_name = f"%{level}", f"%{level + 1}"
        inner = dict(env)
        inner[expr.label_var] = label_name
        inner[expr.acc_var] = acc_name
        body = _alpha_normalized(expr.body, inner, level + 2)
        return f"(srt({label_name}, {acc_name}). {body}) {target}"
    if isinstance(expr, Let):
        value = _alpha_normalized(expr.value, env, level)
        name = f"%{level}"
        inner = dict(env)
        inner[expr.var] = name
        return f"let {name} := {value} in {_alpha_normalized(expr.body, inner, level + 1)}"
    raise TypeError(f"unknown expression node {expr!r}")


def plan_signature(
    simplified: Expr, semiring: Semiring, env_types: Mapping[str, str]
) -> str:
    """A stable fingerprint of a prepared plan.

    Hashes the *simplified* NRC form's alpha-normalized rendering (bound
    variables are renamed by binder depth, so the gensym counter's history
    cannot leak in), the semiring's registry name and the sorted env types.
    Equal plans therefore hash equally across threads, processes and runs,
    which is what lets the query log's per-signature aggregations line up
    between a capture run, its replay, and a scraped production process.
    Textually distinct spellings of one query (``$S/*`` vs ``$S/child::*``)
    normalize to the same simplified form and share a signature —
    deliberately coarser than the plan-cache key, which must never merge
    distinct texts.
    """
    payload = "\x1f".join(
        (
            f"v{1}",
            _alpha_normalized(simplified, {}, 0),
            semiring.name,
            ",".join(f"{name}={kind}" for name, kind in sorted(env_types.items())),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def env_types_of(env: Mapping[str, Any] | None) -> dict[str, str]:
    """Infer the K-UXQuery types of environment values.

    Strings are labels, :class:`UTree` values are trees and :class:`KSet`
    values are sets of trees.
    """
    types: dict[str, str] = {}
    if not env:
        return types
    for name, value in env.items():
        if isinstance(value, str):
            types[name] = LABEL
        elif isinstance(value, UTree):
            types[name] = TREE
        elif isinstance(value, KSet):
            types[name] = FOREST
        else:
            raise UXQueryEvalError(
                f"environment value for ${name} must be a label, a tree or a K-set, "
                f"got {value!r}"
            )
    return types


class PreparedQuery:
    """A parsed, normalized, typechecked and compiled K-UXQuery.

    Preparation runs the whole front half of the pipeline once — parse,
    normalize, typecheck, compile to NRC_K + srt, simplify, and generate the
    specialized program — so that :meth:`evaluate` only pays for evaluation.
    The compile-once-evaluate-many contract: a prepared query is immutable
    and safe to evaluate repeatedly (and concurrently) against different
    environments, and repeated evaluations reuse the generated program and
    its persistent ``srt`` memo tables.
    """

    def __init__(self, query: Query, semiring: Semiring, env_types: Mapping[str, str]):
        self.semiring = semiring
        self.env_types = dict(env_types)
        self.surface = query
        #: Wall time per prepare stage in seconds (parse is stamped by
        #: :func:`prepare_query` when it did the parsing).  Always recorded:
        #: a handful of clock reads against whole compilation passes, and
        #: the slow-query log wants them after the fact.
        self.stage_timings: dict[str, float] = {}
        timings = self.stage_timings
        started = _perf()
        with span("prepare.typecheck"):
            self.result_type = infer_type(query, self.env_types)
        timings["typecheck"] = _perf() - started
        started = _perf()
        with span("prepare.normalize"):
            self.core = normalize(query, self.env_types)
        timings["normalize"] = _perf() - started
        started = _perf()
        with span("prepare.compile-nrc"):
            self.nrc = compile_to_nrc(self.core, semiring, self.env_types)
        timings["compile-nrc"] = _perf() - started
        started = _perf()
        with span("prepare.simplify"):
            self.nrc_simplified = simplify(self.nrc, semiring)
        timings["simplify"] = _perf() - started
        #: The stable plan fingerprint the query log keys on (see
        #: :func:`plan_signature`); computed once here, reused by every
        #: evaluation record.  ``_plan_cache_hit`` flips to True the first
        #: time a plan cache serves this plan without compiling.
        self.signature = plan_signature(self.nrc_simplified, semiring, self.env_types)
        self._plan_cache_hit = False
        started = _perf()
        with span("prepare.codegen"):
            #: The source-generated program every ``nrc-codegen`` evaluation
            #: runs (codegen is total, so it is always set).
            self.generated: CodegenProgram = compile_codegen(self.nrc_simplified, semiring)
        timings["codegen"] = _perf() - started

    # ------------------------------------------------------------ evaluation
    def evaluate(
        self,
        env: Mapping[str, Any] | None = None,
        method: str = DEFAULT_METHOD,
        *,
        documents: Iterable[Any] | None = None,
        document_var: str | None = None,
        executor: Any | None = None,
        limits: EvalLimits | None = None,
    ) -> Any:
        """Evaluate the prepared query in the given environment.

        With ``documents=`` the query is run once per document in a single
        batched call (see :class:`repro.exec.batch.BatchEvaluator`): each
        document is bound to the document variable (``document_var``, inferred
        when omitted), ``env`` supplies the remaining bindings, and a list of
        per-document results is returned, optionally fanned out over a
        ``concurrent.futures`` ``executor``.

        ``limits=`` attaches an :class:`~repro.resilience.limits.EvalLimits`
        guardrail: the deadline clock starts at this call, the evaluators
        check it cooperatively in their hot loops, and violations raise the
        typed ``QueryTimeoutError``/``BudgetExceededError`` — identically
        under every method (the evaluator equivalence contract).
        """
        validate_method(method)
        if documents is not None:
            from repro.exec.batch import BatchEvaluator

            return BatchEvaluator(self, var=document_var).evaluate_many(
                documents, env=env, method=method, executor=executor, limits=limits
            )
        # Slow-query log: one module-global read plus a refresh-probe bump
        # when REPRO_SLOW_QUERY_MS is unset (the fail_point discipline,
        # with a periodic env re-check so a long-lived process can arm the
        # log without restarting), a clock pair when armed.  The query log
        # shares the same clock pair — one extra module-global read when
        # both are disarmed.
        slow_ms = _obs_profile.slow_query_threshold()
        qlogging = _qlog._RECORDING
        started = _perf() if slow_ms is not None or qlogging else 0.0
        if limits is None or not limits.is_bounded:
            result = self._evaluate_traced(env, method)
        else:
            guard = limits.start()
            with activate(guard):
                result = self._evaluate_traced(env, method)
                guard.check_result(result)
        elapsed_s = _perf() - started if qlogging or slow_ms is not None else 0.0
        if qlogging:
            _qlog.record(self, "evaluate", method, elapsed_s, result=result)
        if slow_ms is not None:
            elapsed_ms = elapsed_s * 1000.0
            if elapsed_ms >= slow_ms:
                _obs_profile.record_slow_query({
                    "query": str(self.surface),
                    "method": method,
                    "semiring": self.semiring.name,
                    "duration_ms": elapsed_ms,
                    "stage_timings_ms": {
                        stage: seconds * 1000.0
                        for stage, seconds in self.stage_timings.items()
                    },
                })
        return result

    def _evaluate_traced(self, env: Mapping[str, Any] | None, method: str) -> Any:
        if not _trace._ACTIVE:  # one global read on the disarmed path
            return self._dispatch(env, method)
        with span("evaluate", method=method, semiring=self.semiring.name):
            return self._dispatch(env, method)

    def _dispatch(self, env: Mapping[str, Any] | None, method: str) -> Any:
        if method == "nrc-codegen":
            return self.generated.evaluate(env)
        if method == "nrc-interp":
            return evaluate_nrc(self.nrc, self.semiring, dict(env) if env else {})
        return evaluate_direct(self.core, self.semiring, dict(env) if env else {})

    # ---------------------------------------------------------- materialization
    def materialize(
        self,
        document: Any,
        env: Mapping[str, Any] | None = None,
        document_var: str | None = None,
    ) -> Any:
        """Materialize this query over ``document`` as an incrementally
        maintained view (see :class:`repro.ivm.view.MaterializedView`).

        The returned view caches the evaluated result and keeps it exactly
        equal to re-evaluation as deltas are applied — through the compiled
        delta plan when the query admits one, by recomputation otherwise.
        """
        from repro.ivm.view import MaterializedView

        return MaterializedView(self, document, env=env, var=document_var)

    # --------------------------------------------------------------- metrics
    @property
    def surface_size(self) -> int:
        """Number of surface AST nodes (the ``|p|`` of Proposition 2)."""
        return query_size(self.surface)

    @property
    def nrc_size(self) -> int:
        """Number of NRC AST nodes after compilation."""
        return expression_size(self.nrc)

    @property
    def nrc_expression(self) -> Expr:
        """The compiled NRC_K + srt expression."""
        return self.nrc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PreparedQuery {str(self.surface)[:60]!r} over {self.semiring.name}>"


def prepare_query(
    query: str | Query,
    semiring: Semiring,
    env: Mapping[str, Any] | None = None,
    env_types: Mapping[str, str] | None = None,
) -> PreparedQuery:
    """Parse (if necessary) and compile a query against a semiring and environment.

    Either the environment values (``env``) or explicit variable types
    (``env_types``) may be supplied; explicit types win.
    """
    if isinstance(query, str):
        started = _perf()
        with span("prepare.parse"):
            ast = parse_query(query)
        parse_s = _perf() - started
    else:
        ast, parse_s = query, None
    types = dict(env_types) if env_types is not None else env_types_of(env)
    prepared = PreparedQuery(ast, semiring, types)
    if parse_s is not None:
        prepared.stage_timings["parse"] = parse_s
    return prepared


def evaluate_query(
    query: str | Query,
    semiring: Semiring,
    env: Mapping[str, Any] | None = None,
    method: str = DEFAULT_METHOD,
    *,
    documents: Iterable[Any] | None = None,
    document_var: str | None = None,
    executor: Any | None = None,
    limits: EvalLimits | None = None,
) -> Any:
    """Parse, compile and evaluate a K-UXQuery in one call.

    ``documents=``/``document_var=``/``executor=``/``limits=`` are forwarded
    to :meth:`PreparedQuery.evaluate` for batched / guarded execution.
    """
    if documents is not None:
        # The document variable is typed from the first document, so callers
        # need not repeat a (representative) document in ``env``.  The
        # variable defaults to the conventional ``S``; the batch evaluator
        # rejects a document variable that is not free in the query, so a
        # differently-named variable fails loudly instead of being ignored.
        documents = list(documents)
        var = document_var or "S"
        types = env_types_of(env)
        if not documents:
            # Still fail loudly on a bad method or query; the document
            # variable cannot be typed without a document, so typechecking
            # is deferred unless env covers it.
            validate_method(method)
            ast = parse_query(query) if isinstance(query, str) else query
            if var in types:
                prepare_query(ast, semiring, env_types=types)
            return []
        if var not in types:
            types.update(env_types_of({var: documents[0]}))
        try:
            prepared = prepare_query(query, semiring, env_types=types)
        except UXQueryTypeError as error:
            # The usual cause: the query names its document variable
            # something other than the default ``S``.
            raise UXQueryTypeError(
                f"{error} (documents are bound to ${var}; a query using a "
                "different variable needs document_var=)"
            ) from error
        return prepared.evaluate(
            env,
            method=method,
            documents=documents,
            document_var=var,
            executor=executor,
            limits=limits,
        )
    prepared = prepare_query(query, semiring, env)
    return prepared.evaluate(env, method=method, limits=limits)

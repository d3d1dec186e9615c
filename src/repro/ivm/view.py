"""Materialized K-annotated views with exact incremental maintenance.

A :class:`MaterializedView` pairs a :class:`~repro.uxquery.engine.PreparedQuery`
with a document, caches the evaluated K-set result, and keeps it **exactly**
equal to re-evaluation as the document changes:

* :meth:`MaterializedView.apply` takes a :class:`~repro.ivm.delta.Delta`,
  updates the document, and maintains the result through the compiled delta
  plan (:mod:`repro.ivm.derive`) when one applies — insert-only deltas in
  plain ``K``, deleting deltas through ``Diff(K)`` with exact subtraction —
  and **recomputes** otherwise.  Either way the post-state equals evaluating
  the query on the updated document, for every semiring, including the
  non-idempotent ones where a sloppy merge would corrupt multiplicities.
* :meth:`MaterializedView.apply_many` pushes a stream of insert-only deltas
  through one :class:`~repro.exec.batch.BatchEvaluator` call (one frame
  template, shared ``srt`` memo, optional executor) and merges once.
* Freshness is observable: :meth:`MaterializedView.stats` counts applies,
  incremental vs recomputed maintenance, refreshes and batched deltas, the
  way the plan cache exposes hits and misses.

Recompute fallback triggers (the *delta-plan contract*):

1. the plan is :data:`~repro.ivm.derive.NON_INCREMENTAL` (non-forest result,
   or the document flows into a value constructor);
2. the delta deletes or re-annotates and the plan is
   :data:`~repro.ivm.derive.BILINEAR` (the delta computation would need the
   whole document lifted into ``Diff(K)``);
3. the delta deletes or re-annotates and the semiring has no exact
   subtraction (``supports_subtraction`` is ``False``), so removal weights
   cannot be cancelled out of the cached result;
4. lowering a ``Diff(K)`` result back to ``K`` fails (defensive; derived
   plans do not produce such results).
"""

from __future__ import annotations

from time import perf_counter as _perf
from typing import Any, Iterable, Mapping, NamedTuple

from repro.errors import IVMError
from repro.kcollections.kset import KSet
from repro.obs import qlog as _qlog
from repro.obs.events import emit
from repro.obs.metrics import default_registry
from repro.obs.trace import span
from repro.ivm.delta import (
    Delta,
    apply_sequence,
    combine_change,
    lift_forest,
    lift_tree,
    lower_value,
)
from repro.ivm.derive import BILINEAR, LINEAR, NON_INCREMENTAL, DeltaPlan
from repro.semirings.diff import diff_of
from repro.uxml.tree import UTree
from repro.uxquery.engine import PreparedQuery
from repro.uxquery.typecheck import FOREST

__all__ = ["ViewStats", "MaterializedView"]

#: Process-wide maintenance counters aggregated across every view, published
#: into ``repro metrics``.  Per-view counts stay on the instance
#: (:meth:`MaterializedView.stats` is the thin per-view read).
_VIEW_EVENTS = default_registry().counter(
    "repro_view_maintenance_total",
    "Materialized-view maintenance events by kind "
    "(applies / incremental / recomputes / refreshes / batched)",
)


class ViewStats(NamedTuple):
    """A snapshot of a view's maintenance counters.

    ``applies`` counts deltas applied, ``incremental`` those maintained by
    the delta plan, and ``recomputes`` the full recomputations actually
    performed — which can be fewer than ``applies - incremental`` when
    :meth:`MaterializedView.apply_many` folds a whole non-incremental
    stream into a single recomputation.
    """

    applies: int
    incremental: int
    recomputes: int
    refreshes: int
    batched: int
    classification: str

    @property
    def incremental_rate(self) -> float:
        """Fraction of applies served by the delta plan (0.0 when unused)."""
        return self.incremental / self.applies if self.applies else 0.0


class _PreparedDeltaAdapter:
    """Duck-types the ``PreparedQuery`` surface ``BatchEvaluator`` consumes,
    backed by a compiled delta plan (delta K-sets play the documents).
    ``generated`` is the plan's generated program, so batched maintenance
    runs the same code the single-delta path runs."""

    def __init__(self, plan: DeltaPlan):
        self.generated = plan.generated
        self.semiring = plan.semiring
        self.env_types = {plan.delta_var: FOREST}

    def evaluate(self, env: Mapping[str, Any] | None = None) -> Any:
        return self.generated.evaluate(env)


class MaterializedView:
    """A cached query result kept exactly consistent under document deltas."""

    def __init__(
        self,
        prepared: PreparedQuery,
        document: KSet,
        env: Mapping[str, Any] | None = None,
        var: str | None = None,
    ):
        if not isinstance(document, KSet):
            raise IVMError(f"materialized views need a K-set document, got {document!r}")
        if document.semiring != prepared.semiring:
            raise IVMError(
                f"document over {document.semiring.name} does not match the "
                f"prepared semiring {prepared.semiring.name}"
            )
        if var is None:
            from repro.exec.batch import infer_document_var

            var = infer_document_var(prepared)
        self.prepared = prepared
        self.var = var
        self.semiring = prepared.semiring
        self.plan = DeltaPlan(prepared, var)
        self._env = {name: value for name, value in (env or {}).items() if name != var}
        self._diff_env: dict[str, Any] | None = None
        self._document = document
        self._result = prepared.evaluate(self._bindings(document))
        self._applies = 0
        self._incremental = 0
        self._recomputes = 0
        self._refreshes = 0
        self._batched = 0

    # --------------------------------------------------------------- accessors
    @property
    def document(self) -> KSet:
        """The current document (as of the last applied delta)."""
        return self._document

    @property
    def result(self) -> Any:
        """The materialized result; always equals evaluating on :attr:`document`."""
        return self._result

    @property
    def classification(self) -> str:
        """How updates are maintained: linear / bilinear / non-incremental."""
        return self.plan.classification

    def stats(self) -> ViewStats:
        return ViewStats(
            applies=self._applies,
            incremental=self._incremental,
            recomputes=self._recomputes,
            refreshes=self._refreshes,
            batched=self._batched,
            classification=self.plan.classification,
        )

    # ------------------------------------------------------------- maintenance
    def apply(self, delta: Delta) -> Any:
        """Apply one delta; returns the (exactly maintained) new result."""
        self._check_delta(delta)
        new_document = delta.apply_to(self._document)
        # Counted only once the delta is known to be applicable: a failed
        # apply leaves the stats (and the view) untouched.
        self._applies += 1
        _VIEW_EVENTS.inc(kind="applies")
        # Query log: one record per apply, tagged with how the result was
        # maintained; the recompute's engine-level record is suppressed.
        qlogging = _qlog._RECORDING
        started = _perf() if qlogging else 0.0
        with span("ivm.apply", classification=self.plan.classification) as current:
            maintained, fallback_reason = self._try_incremental(delta, new_document)
            if maintained is None:
                self._recomputes += 1
                _VIEW_EVENTS.inc(kind="recomputes")
                current.annotate(maintenance="recompute", reason=fallback_reason)
                emit("ivm.recompute", reason=fallback_reason,
                     classification=self.plan.classification)
                if qlogging:
                    with _qlog.suppress():
                        maintained = self.prepared.evaluate(
                            self._bindings(new_document)
                        )
                else:
                    maintained = self.prepared.evaluate(self._bindings(new_document))
                maintenance = "ivm-recompute"
            else:
                self._incremental += 1
                _VIEW_EVENTS.inc(kind="incremental")
                current.annotate(maintenance="incremental")
                maintenance = "ivm-incremental"
        if qlogging:
            _qlog.record(
                self.prepared,
                "ivm.apply",
                maintenance,
                _perf() - started,
                result=maintained,
            )
        self._document = new_document
        self._result = maintained
        return maintained

    def apply_many(self, deltas: Iterable[Delta], executor: Any | None = None) -> Any:
        """Apply a stream of deltas, batching the insert-only linear case.

        When every delta is insert-only and the plan is linear, the per-delta
        result changes are independent of application order and of each
        other, so they are computed in **one**
        :meth:`~repro.exec.batch.BatchEvaluator.evaluate_merged` call (the
        delta K-sets play the role of the documents, optionally fanned out
        over ``executor``) and merged into the view once.  Anything else
        degrades gracefully to sequential :meth:`apply`.
        """
        from concurrent.futures import ProcessPoolExecutor

        if isinstance(executor, ProcessPoolExecutor):
            # Delta plans are derived, not parsed: process-pool workers could
            # only re-prepare from query *text*, which would evaluate the
            # original query instead of its delta plan.
            raise IVMError(
                "apply_many does not support process pools (delta plans are "
                "session-local); use a thread pool or no executor"
            )
        deltas = list(deltas)
        for delta in deltas:
            self._check_delta(delta)
        if not deltas:
            return self._result
        plan = self.plan
        if plan.classification == NON_INCREMENTAL:
            # Intermediate results are never observed, so fold the whole
            # stream into the document and pay for one recomputation.
            document = apply_sequence(self._document, deltas)
            self._applies += len(deltas)
            self._recomputes += 1
            _VIEW_EVENTS.inc(len(deltas), kind="applies")
            _VIEW_EVENTS.inc(kind="recomputes")
            emit("ivm.recompute", reason="non-incremental plan",
                 classification=NON_INCREMENTAL, deltas=len(deltas))
            self._document = document
            with span("ivm.apply", maintenance="recompute", deltas=len(deltas)):
                self._result = self.prepared.evaluate(self._bindings(document))
            return self._result
        batchable = (
            len(deltas) > 1
            and plan.classification == LINEAR
            and plan.delta_var in plan.generated.free_variables
            and all(delta.is_insert_only() for delta in deltas)
        )
        if not batchable:
            for delta in deltas:
                self.apply(delta)
            return self._result
        from repro.exec.batch import BatchEvaluator

        evaluator = BatchEvaluator(_PreparedDeltaAdapter(plan), var=plan.delta_var)
        with span("ivm.apply", maintenance="incremental-batch", deltas=len(deltas)):
            change = evaluator.evaluate_merged(
                [delta.insertions() for delta in deltas], env=self._env, executor=executor
            )
        document = apply_sequence(self._document, deltas)
        self._applies += len(deltas)
        self._incremental += len(deltas)
        self._batched += len(deltas)
        _VIEW_EVENTS.inc(len(deltas), kind="applies")
        _VIEW_EVENTS.inc(len(deltas), kind="incremental")
        _VIEW_EVENTS.inc(len(deltas), kind="batched")
        self._document = document
        self._result = self._result.union(change)
        return self._result

    def refresh(self) -> Any:
        """Force a full recomputation from the current document."""
        self._refreshes += 1
        _VIEW_EVENTS.inc(kind="refreshes")
        self._result = self.prepared.evaluate(self._bindings(self._document))
        return self._result

    # ---------------------------------------------------------------- internals
    def _bindings(self, document: KSet) -> dict[str, Any]:
        bindings = dict(self._env)
        bindings[self.var] = document
        return bindings

    def _check_delta(self, delta: Delta) -> None:
        if not isinstance(delta, Delta):
            raise IVMError(f"apply expects a Delta, got {delta!r}")
        if delta.semiring != self.semiring:
            raise IVMError(
                f"delta over {delta.semiring.name} cannot maintain a view "
                f"over {self.semiring.name}"
            )

    def _try_incremental(
        self, delta: Delta, new_document: KSet
    ) -> tuple[Any | None, str | None]:
        """``(maintained result, None)``, or ``(None, reason)`` to trigger
        the recompute fallback (the reason feeds the flight recorder)."""
        plan = self.plan
        if delta.is_empty():
            return self._result, None
        if plan.classification == NON_INCREMENTAL:
            return None, "non-incremental plan"
        try:
            if delta.is_insert_only():
                change = plan.evaluate_insertions(
                    delta.insertions(), self._document, new_document, self._env
                )
                return self._result.union(change), None
            if plan.classification != LINEAR:
                return None, f"{plan.classification} plan with deletions"
            if not self.semiring.supports_subtraction:
                return None, f"{self.semiring.name} has no subtraction"
            diff_change = plan.evaluate_diff(delta.as_diff_forest(), self._lifted_env())
            return self._merge_diff(diff_change), None
        except IVMError as error:
            return None, str(error)

    def _lifted_env(self) -> dict[str, Any]:
        """The constant environment lifted into ``Diff(K)`` (computed once)."""
        if self._diff_env is None:
            diff = diff_of(self.semiring)
            lifted: dict[str, Any] = {}
            for name, value in self._env.items():
                if isinstance(value, KSet):
                    lifted[name] = lift_forest(value, diff)
                elif isinstance(value, UTree):
                    lifted[name] = lift_tree(value, diff)
                else:
                    lifted[name] = value
            self._diff_env = lifted
        return self._diff_env

    def _merge_diff(self, diff_change: KSet) -> KSet:
        """Fold a ``Diff(K)`` result change into the cached ``K`` result.

        Replacement readings are *not* allowed here: a result annotation
        aggregates many members' contributions, so a removal weight that
        happens to equal the cached annotation proves nothing — only exact
        subtraction cancels it, anything else raises (and the caller
        recomputes).
        """
        semiring = self.semiring
        diff = diff_of(semiring)
        zero = semiring.normalize(semiring.zero)
        merged = {value: annotation for value, annotation in self._result.items()}
        for value, pair in diff_change.items():
            lowered = lower_value(value, diff)
            updated = combine_change(
                semiring,
                merged.get(lowered, zero),
                pair.pos,
                pair.neg,
                lowered,
                allow_replacement=False,
            )
            if semiring.is_zero(updated):
                merged.pop(lowered, None)
            else:
                merged[lowered] = semiring.normalize(updated)
        if not semiring.ops_preserve_normal_form:
            return KSet(semiring, merged)
        return KSet._from_normalized(semiring, merged)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MaterializedView {self.plan.classification} in ${self.var} "
            f"of {self.prepared!r}: {self._applies} applies, "
            f"{self._recomputes} recomputes>"
        )

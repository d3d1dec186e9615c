"""Outside-in layer spans over the public functions of ``repro`` modules.

The benchmark does not edit the program to trace it.  :func:`install`
replaces public functions and methods of each ``src/repro`` module with
thin wrappers that, while a :class:`Recorder` is active, record a span
(name, duration, the span that caused it) and a few counts at the layer
boundary.  With no recorder active a wrapper costs one global read and a
call; untimed runs never install them at all.

A layer's *self time* is its span's duration minus the part its child spans
cover.  Spans are kept in memory as per-layer aggregates and read out when
the run ends.

Every wrapped name is listed in :data:`LAYERS` together with the end-to-end
metric it should move and on which workload, so the traced report can say
what each number is for.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

_now = time.perf_counter_ns

#: Layer name -> (what it wraps, the end-to-end metric it should move).
LAYERS: Dict[str, tuple] = {
    "store.open": ("DocumentStore.__init__ (self time)", "op_p50_ms on cold-open"),
    "store.query": ("DocumentStore.query (self time)", "op_p50_ms on read-mix; query_p50_ms (reported) on update-stream"),
    "store.query_many": ("DocumentStore.query_many (self time)", "op_tail_ms on read-mix"),
    "store.update": ("DocumentStore.update (self time)", "op_p50_ms on update-stream"),
    "store.compact": ("DocumentStore.compact (self time)", "op_tail_ms on update-stream"),
    "exec.plan_cache.get": ("PlanCache.get", "op_p50_ms, ops_per_s on read-mix"),
    "uxquery.prepare": ("prepare_query via PlanCache", "op_p50_ms, ops_per_s on read-mix; ~0 on update-stream"),
    "uxquery.evaluate": ("PreparedQuery.evaluate", "op_tail_ms, ops_per_s on read-mix; op_p50_ms on update-stream"),
    "exec.batch": ("BatchEvaluator.evaluate_many/evaluate_merged", "op_tail_ms, ops_per_s on read-mix"),
    "store.pushdown.split": ("PushdownExecutor.split_for", "op_p50_ms on read-mix"),
    "store.index.navigate": ("StructuralIndex.navigate", "op_tail_ms on read-mix; query_p50_ms (reported) on update-stream"),
    "store.index.build": ("StructuralIndex.__init__", "op_p50_ms on update-stream and cold-open"),
    "store.columns.shred": ("ShreddedColumns.from_forest", "op_p50_ms on update-stream and cold-open"),
    "store.columns.decode": ("ShreddedColumns.from_payload", "op_p50_ms on cold-open"),
    "store.wal.open": ("WriteAheadLog.__init__ (load + verify)", "op_p50_ms on cold-open"),
    "store.wal.append": ("WriteAheadLog.append", "op_tail_ms on update-stream; write bytes per update"),
    "store.snapshot.load": ("load_snapshot", "op_p50_ms on cold-open"),
    "store.snapshot.write": ("write_snapshot", "op_tail_ms on update-stream; write bytes per update"),
    "ivm.view.materialize": ("MaterializedView.__init__", "op_p50_ms on cold-open"),
    "ivm.view.apply": ("MaterializedView.apply", "op_p50_ms on update-stream"),
    "ivm.delta.apply": ("Delta.apply_to", "op_p50_ms on update-stream"),
    "cli.import": ("import repro.cli in the CLI process", "op_p50_ms on cold-open"),
}

#: Prepare stages reported by ``PreparedQuery.stage_timings``.
PREPARE_STAGES = (
    "parse",
    "typecheck",
    "normalize",
    "compile-nrc",
    "simplify",
    "compile-closures",
    "codegen",
)

#: Parent-span split of ``uxquery.evaluate``.
EVALUATE_KINDS = ("residual", "fallback", "view_recompute", "view_materialize", "other")


class Recorder:
    """Per-layer span aggregates and counts of one traced pass."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        #: Open spans, innermost last: ``[name, child_ns]``.
        self.stack: List[list] = []
        #: Time covered by outermost spans (for the unattributed share).
        self.covered_ns = 0
        #: The same, per outermost span name.
        self.outermost_ns: Dict[str, int] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def close(self, name: str, self_time: int) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + self_time

    def parent(self) -> Optional[str]:
        return self.stack[-1][0] if self.stack else None

    def self_ms(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e6


_ACTIVE: List[Optional[Recorder]] = [None]


def activate(recorder: Optional[Recorder]) -> None:
    """Make ``recorder`` receive spans (``None`` disarms every wrapper)."""
    _ACTIVE[0] = recorder


def active() -> Optional[Recorder]:
    return _ACTIVE[0]


@contextlib.contextmanager
def paused() -> Iterator[None]:
    """Record nothing inside the block (the benchmark's own output checks)."""
    recorder = _ACTIVE[0]
    _ACTIVE[0] = None
    try:
        yield
    finally:
        _ACTIVE[0] = recorder


def dump(recorder: Recorder) -> dict:
    """A recorder's aggregates as JSON-ready data (for a child process)."""
    return {
        "calls": recorder.calls,
        "self_ns": recorder.self_ns,
        "counts": recorder.counts,
        "covered_ns": recorder.covered_ns,
        "outermost_ns": recorder.outermost_ns,
    }


def merge(recorder: Recorder, data: dict) -> None:
    """Add the aggregates :func:`dump` wrote in another process."""
    for field in ("calls", "self_ns", "counts", "outermost_ns"):
        target = getattr(recorder, field)
        for key, value in data[field].items():
            target[key] = target.get(key, 0) + value
    recorder.covered_ns += data["covered_ns"]


def _spanned(
    name: str,
    original: Callable,
    after: Optional[Callable] = None,
    rename: Optional[Callable] = None,
) -> Callable:
    """Wrap ``original`` in a span named ``name``.

    ``after(recorder, args, kwargs, result)`` records counts outside the
    span's own clock.  ``rename(recorder, args, kwargs)`` may return a
    more specific span name (the parent-span split of an evaluation).
    A call nested directly in a span of the same name is not a new span.
    """

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        recorder = _ACTIVE[0]
        if recorder is None:
            return original(*args, **kwargs)
        stack = recorder.stack
        label = rename(recorder, args, kwargs) if rename is not None else name
        if stack and stack[-1][0] == label:
            return original(*args, **kwargs)
        frame = [label, 0]
        stack.append(frame)
        started = _now()
        try:
            result = original(*args, **kwargs)
        finally:
            elapsed = _now() - started
            stack.pop()
            recorder.close(label, elapsed - frame[1])
            if stack:
                stack[-1][1] += elapsed
            else:
                recorder.covered_ns += elapsed
                recorder.outermost_ns[label] = recorder.outermost_ns.get(label, 0) + elapsed
        if after is not None:
            after(recorder, args, kwargs, result)
        return result

    return wrapper


def _counted(key: str, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        recorder = _ACTIVE[0]
        if recorder is not None:
            recorder.counts[key] = recorder.counts.get(key, 0) + 1
        return original(*args, **kwargs)

    return wrapper


def _wrap_method(owner: type, attribute: str, make: Callable[[Callable], Callable]) -> None:
    raw = owner.__dict__[attribute]
    if isinstance(raw, classmethod):
        setattr(owner, attribute, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attribute, make(raw))


def _file_size(path: Any) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install() -> None:
    """Wrap every traced layer, once per process, before any store or plan
    exists (so that pre-bound semiring operations capture the counters).

    Counts the store keeps itself (pushdown outcomes, plan-cache and
    navigation-memo hits, view maintenance, bytes written) are read from
    the store and the files, not counted again here."""
    import repro.store.snapshot as snapshot_module
    import repro.store.store as store_module
    import repro.uxquery.engine as engine_module
    from repro.exec.batch import BatchEvaluator
    from repro.exec.plan_cache import PlanCache
    from repro.ivm.delta import Delta
    from repro.ivm.view import MaterializedView
    from repro.semirings.natural import NaturalSemiring
    from repro.semirings.polynomial import ProvenancePolynomialSemiring
    from repro.store.columns import ShreddedColumns
    from repro.store.index import StructuralIndex
    from repro.store.pushdown import NAV_VAR, PushdownExecutor
    from repro.store.store import DocumentStore
    from repro.store.wal import WriteAheadLog

    # --- semiring operations: plain counters on the public add/mul.
    for semiring_type in (ProvenancePolynomialSemiring, NaturalSemiring):
        _wrap_method(semiring_type, "add", lambda f: _counted("semirings.add_calls", f))
        _wrap_method(semiring_type, "mul", lambda f: _counted("semirings.mul_calls", f))

    # --- store facade.
    _wrap_method(DocumentStore, "__init__", lambda f: _spanned("store.open", f))
    _wrap_method(DocumentStore, "query", lambda f: _spanned("store.query", f))
    _wrap_method(DocumentStore, "query_many", lambda f: _spanned("store.query_many", f))
    _wrap_method(DocumentStore, "update", lambda f: _spanned("store.update", f))
    _wrap_method(DocumentStore, "compact", lambda f: _spanned("store.compact", f))

    # --- plan cache and preparation.
    _wrap_method(PlanCache, "get", lambda f: _spanned("exec.plan_cache.get", f))

    def prepare_after(recorder, args, kwargs, result):
        for stage, seconds in result.stage_timings.items():
            recorder.count(f"uxquery.prepare.{stage}_ms", seconds * 1000.0)

    traced_prepare = _spanned(
        "uxquery.prepare", engine_module.prepare_query, after=prepare_after
    )
    # PlanCache binds prepare_query as a constructor default at import time:
    # hand every cache created from now on the traced function instead.
    original_cache_init = PlanCache.__init__

    def cache_init(self, *args, **kwargs):
        if len(args) < 2 and "prepare" not in kwargs:
            kwargs["prepare"] = traced_prepare
        original_cache_init(self, *args, **kwargs)

    PlanCache.__init__ = cache_init
    engine_module.prepare_query = traced_prepare

    # --- evaluation, split by the span that caused it.
    def evaluate_kind(recorder, args, kwargs):
        parent = recorder.parent()
        if parent == "store.query":
            env = args[1] if len(args) > 1 else kwargs.get("env")
            kind = "residual" if env and NAV_VAR in env else "fallback"
        elif parent == "ivm.view.apply":
            kind = "view_recompute"
        elif parent == "ivm.view.materialize":
            kind = "view_materialize"
        else:
            kind = "other"
        return f"uxquery.evaluate.{kind}"

    def evaluate_after(recorder, args, kwargs, result):
        recorder.count("nrc.evaluations")
        if args[0].generated is not None:
            recorder.count("nrc.codegen_evaluations")

    _wrap_method(
        engine_module.PreparedQuery,
        "evaluate",
        lambda f: _spanned("uxquery.evaluate", f, after=evaluate_after, rename=evaluate_kind),
    )

    def batch_after(recorder, args, kwargs, result):
        documents = len(args[1])
        recorder.count("nrc.evaluations", documents)
        if getattr(args[0].prepared, "generated", None) is not None:
            recorder.count("nrc.codegen_evaluations", documents)

    for method in ("evaluate_many", "evaluate_merged"):
        _wrap_method(
            BatchEvaluator, method, lambda f: _spanned("exec.batch", f, after=batch_after)
        )

    # --- pushdown and indexes.
    _wrap_method(PushdownExecutor, "split_for", lambda f: _spanned("store.pushdown.split", f))
    _wrap_method(StructuralIndex, "navigate", lambda f: _spanned("store.index.navigate", f))

    def build_after(recorder, args, kwargs, result):
        recorder.count("store.index.build.nodes", len(args[1]))

    _wrap_method(
        StructuralIndex, "__init__", lambda f: _spanned("store.index.build", f, after=build_after)
    )

    def rows_after(key):
        def after(recorder, args, kwargs, result):
            recorder.count(key, len(result))

        return after

    _wrap_method(
        ShreddedColumns,
        "from_forest",
        lambda f: _spanned("store.columns.shred", f, after=rows_after("store.columns.shred.rows")),
    )
    _wrap_method(
        ShreddedColumns,
        "from_payload",
        lambda f: _spanned(
            "store.columns.decode", f, after=rows_after("store.columns.decode.rows")
        ),
    )

    # --- write-ahead log and snapshots.
    def wal_open_after(recorder, args, kwargs, result):
        recorder.count("store.wal.open.records", len(args[0]))

    _wrap_method(
        WriteAheadLog, "__init__", lambda f: _spanned("store.wal.open", f, after=wal_open_after)
    )

    _wrap_method(WriteAheadLog, "append", lambda f: _spanned("store.wal.append", f))
    traced_write = _spanned("store.snapshot.write", snapshot_module.write_snapshot)
    traced_load = _spanned("store.snapshot.load", snapshot_module.load_snapshot)
    # The store module imported both functions by name.
    for module in (snapshot_module, store_module):
        module.write_snapshot = traced_write
        module.load_snapshot = traced_load

    # --- incremental view maintenance.
    _wrap_method(MaterializedView, "__init__", lambda f: _spanned("ivm.view.materialize", f))
    _wrap_method(MaterializedView, "apply", lambda f: _spanned("ivm.view.apply", f))
    _wrap_method(Delta, "apply_to", lambda f: _spanned("ivm.delta.apply", f))


def install_byte_meter() -> Callable[[], int]:
    """Count WAL bytes discarded by truncation (compaction), untraced.

    Wraps only ``WriteAheadLog.truncate``, which runs once per compaction,
    so every other step of an update runs unwrapped.  Returns a function
    giving the WAL bytes truncated so far.
    """
    from repro.store.wal import WriteAheadLog

    truncated = [0]
    original = WriteAheadLog.truncate

    def truncate(self):
        truncated[0] += _file_size(self.path)
        return original(self)

    WriteAheadLog.truncate = truncate
    return lambda: truncated[0]

"""Per-operator profiling for the two NRC evaluators + the slow-query log.

``repro explain --analyze`` needs to answer "where does this query spend
its time" under any evaluation method, without taxing production paths.
Profiling therefore never instruments the programs a
:class:`~repro.uxquery.engine.PreparedQuery` caches — it compiles a
*separate*, instrumented program on demand:

* ``nrc-interp`` — the Figure 8 interpreter exposes a module-level profile
  hook (one global read per node when disarmed, the same price as its
  per-node limit check); the hook times each node by object identity
  against a pre-registered operator tree;
* ``nrc-codegen`` — source generation accepts a profiler and emits timing
  around every value-position operator plus iteration counters inside the
  fused loops; operators that codegen fuses into an enclosing loop carry
  iteration counts and are marked ``fused``.  Operators inside a generated
  ``srt`` recursion are timed once per visited subtree.

Times are *inclusive* (each operator's total includes its children, as in
``EXPLAIN ANALYZE``); the renderer derives self-time by subtracting direct
children.

The **slow-query log** arms from ``REPRO_SLOW_QUERY_MS``: when set, every
:meth:`PreparedQuery.evaluate` that exceeds the threshold records query
text, method, stage timings and duration into a
bounded in-process buffer (:func:`slow_queries`) and, when
``REPRO_SLOW_QUERY_LOG`` names a file, appends the entry as JSONL.
Disarmed cost inside ``evaluate``: one module-global read.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Mapping

from repro.errors import UXQueryEvalError
from repro.nrc.ast import Expr
from repro.obs.events import emit
from repro.obs.metrics import default_registry

__all__ = [
    "Profiler",
    "ProfileReport",
    "profile_evaluate",
    "slow_queries",
    "clear_slow_queries",
    "record_slow_query",
    "refresh_slow_query_config",
    "slow_query_ms",
    "slow_query_threshold",
]

_PROFILE_METHODS = ("nrc-codegen", "nrc-interp")

_perf = time.perf_counter


class _Op:
    """One operator node in the profile tree."""

    __slots__ = ("index", "kind", "detail", "fused", "children")

    def __init__(self, index: int, kind: str, detail: str, fused: bool):
        self.index = index
        self.kind = kind
        self.detail = detail
        self.fused = fused
        self.children: list["_Op"] = []


class Profiler:
    """Collects per-operator calls / rows / inclusive wall time.

    Operators are registered during (instrumented) compilation or by a
    pre-walk of the AST; runtime hooks address them by integer index, so
    recording is two list writes and an add.
    """

    def __init__(self):
        self.ops: list[_Op] = []
        self.calls: list[int] = []
        self.rows: list[int] = []
        self.times: list[float] = []
        self.roots: list[_Op] = []
        self._stack: list[_Op] = []
        self._by_id: dict[int, int] = {}

    # ---------------------------------------------------------- registration
    def open_op(self, expr: Expr, fused: bool = False) -> _Op:
        detail = str(expr)
        if len(detail) > 48:
            detail = detail[:45] + "..."
        op = _Op(len(self.ops), type(expr).__name__, detail, fused)
        self.ops.append(op)
        self.calls.append(0)
        self.rows.append(0)
        self.times.append(0.0)
        self._by_id.setdefault(id(expr), op.index)
        if self._stack:
            self._stack[-1].children.append(op)
        else:
            self.roots.append(op)
        self._stack.append(op)
        return op

    def close_op(self) -> None:
        self._stack.pop()

    def register_tree(self, expr: Expr) -> None:
        """Pre-register the whole AST (used by the interpreter hook)."""
        self.open_op(expr)
        for child in expr.children():
            self.register_tree(child)
        self.close_op()

    def index_of(self, expr: Expr) -> int | None:
        return self._by_id.get(id(expr))

    # --------------------------------------------------------------- runtime
    def record(self, index: int, elapsed: float, rows: int) -> None:
        self.calls[index] += 1
        self.times[index] += elapsed
        self.rows[index] += rows

    def count(self, index: int) -> None:
        self.calls[index] += 1


class ProfileReport:
    """The analyzed operator tree for one profiled evaluation."""

    def __init__(self, method: str, profiler: Profiler, total_s: float):
        self.method = method
        self.profiler = profiler
        self.total_s = total_s

    # ---------------------------------------------------------------- export
    def to_dict(self) -> dict[str, Any]:
        profiler = self.profiler

        def node(op: _Op) -> dict[str, Any]:
            return {
                "op": op.kind,
                "detail": op.detail,
                "calls": profiler.calls[op.index],
                "rows": profiler.rows[op.index],
                "time_ms": profiler.times[op.index] * 1000.0,
                "fused": op.fused,
                "children": [node(child) for child in op.children],
            }

        return {
            "method": self.method,
            "total_ms": self.total_s * 1000.0,
            "operators": [node(root) for root in profiler.roots],
        }

    def render(self) -> str:
        profiler = self.profiler
        lines = [
            f"operator profile (method={self.method}, "
            f"total {self.total_s * 1000.0:.3f} ms)"
        ]
        if self.method == "nrc-codegen":
            lines.append("codegen: generated (fused operators carry "
                         "iteration counts, no own timer)")

        def walk(op: _Op, depth: int) -> None:
            indent = "  " * depth
            label = f"{indent}{op.kind}  {op.detail}"
            calls = profiler.calls[op.index]
            if op.fused:
                stats = f"iters={calls}  [fused]"
            else:
                time_ms = profiler.times[op.index] * 1000.0
                child_ms = sum(
                    profiler.times[c.index] * 1000.0
                    for c in op.children if not c.fused
                )
                self_ms = max(0.0, time_ms - child_ms)
                stats = (
                    f"time={time_ms:.3f}ms  self={self_ms:.3f}ms  "
                    f"calls={calls}  rows={profiler.rows[op.index]}"
                )
            lines.append(f"{label:<56} {stats}")
            for child in op.children:
                walk(child, depth + 1)

        for root in profiler.roots:
            walk(root, 1)
        return "\n".join(lines)


def profile_evaluate(prepared: Any, env: Mapping[str, Any] | None = None,
                     method: str = "nrc-codegen") -> tuple[Any, ProfileReport]:
    """Evaluate ``prepared`` under ``method`` with per-operator profiling.

    Compiles a separate instrumented program (the prepared query's cached
    programs are untouched); returns ``(result, report)``.
    """
    if method not in _PROFILE_METHODS:
        valid = ", ".join(repr(name) for name in _PROFILE_METHODS)
        raise UXQueryEvalError(
            f"cannot profile method {method!r}; profiling methods: {valid}"
        )
    semiring = prepared.semiring

    if method == "nrc-interp":
        from repro.nrc import eval as interp

        profiler = Profiler()
        profiler.register_tree(prepared.nrc)
        started = _perf()
        with interp.profiling(profiler):
            result = interp.evaluate(
                prepared.nrc, semiring, dict(env) if env else {}
            )
        return result, ProfileReport(method, profiler, _perf() - started)

    # nrc-codegen: instrumented source generation
    from repro.nrc.codegen import compile_codegen

    profiler = Profiler()
    program = compile_codegen(prepared.nrc_simplified, semiring, profile=profiler)
    started = _perf()
    result = program.evaluate(env)
    return result, ProfileReport(method, profiler, _perf() - started)


# ---------------------------------------------------------------------------
# Slow-query log
# ---------------------------------------------------------------------------
ENV_SLOW_MS = "REPRO_SLOW_QUERY_MS"
ENV_SLOW_LOG = "REPRO_SLOW_QUERY_LOG"

#: The armed threshold in milliseconds; ``None`` disarms (one global read
#: on the evaluate path).
_SLOW_MS: float | None = None
_SLOW_LOG_PATH: str | None = None
_SLOW_BUFFER: deque = deque(maxlen=256)
_SLOW_LOCK = threading.Lock()

_SLOW_COUNTER = default_registry().counter(
    "repro_slow_queries_total",
    "Evaluations that exceeded the REPRO_SLOW_QUERY_MS threshold",
)


def refresh_slow_query_config(environ: Mapping[str, str] | None = None) -> None:
    """(Re-)read the slow-query env vars; call after mutating os.environ."""
    global _SLOW_MS, _SLOW_LOG_PATH
    environ = environ if environ is not None else os.environ
    raw = environ.get(ENV_SLOW_MS)
    if raw is None or raw.strip() == "":
        _SLOW_MS = None
    else:
        try:
            _SLOW_MS = float(raw)
        except ValueError:
            _SLOW_MS = None
    _SLOW_LOG_PATH = environ.get(ENV_SLOW_LOG) or None


def slow_query_ms() -> float | None:
    """The armed threshold (ms), or ``None`` when the log is disarmed."""
    return _SLOW_MS


#: Re-read the env vars about every this-many evaluate calls, so a
#: long-lived process that sets ``REPRO_SLOW_QUERY_MS`` after import picks
#: it up without restarting (the telemetry server also refreshes
#: explicitly on start).  The probe is a plain integer bump — no clock,
#: no syscall — and the env read itself is a cached-dict lookup.
_SLOW_REFRESH_EVERY = 1024
_slow_probe = 0


def slow_query_threshold() -> float | None:
    """The armed threshold (ms) with a cheap periodic env re-check.

    This is what the serving path calls once per evaluate: normally one
    module-global read plus a counter bump; every
    :data:`_SLOW_REFRESH_EVERY` calls it re-reads the environment so the
    slow log can be armed/disarmed in a running process.  (The benign race
    on the probe counter only changes *when* a refresh happens.)
    """
    global _slow_probe
    _slow_probe += 1
    if _slow_probe >= _SLOW_REFRESH_EVERY:
        _slow_probe = 0
        refresh_slow_query_config()
    return _SLOW_MS


def record_slow_query(entry: dict[str, Any]) -> None:
    """Record one slow evaluation (bounded buffer + optional JSONL file)."""
    entry = dict(entry, timestamp=time.time())
    with _SLOW_LOCK:
        _SLOW_BUFFER.append(entry)
    _SLOW_COUNTER.inc()
    emit(
        "query.slow",
        duration_ms=entry.get("duration_ms"),
        method=entry.get("method"),
        semiring=entry.get("semiring"),
    )
    path = _SLOW_LOG_PATH
    if path:
        try:
            with open(path, "a", encoding="utf-8") as log:
                log.write(json.dumps(entry) + "\n")
        except OSError:  # pragma: no cover - log dir vanished
            pass


def slow_queries() -> list[dict[str, Any]]:
    """The buffered slow-query entries, oldest first."""
    with _SLOW_LOCK:
        return list(_SLOW_BUFFER)


def clear_slow_queries() -> None:
    with _SLOW_LOCK:
        _SLOW_BUFFER.clear()


refresh_slow_query_config()

"""Unified observability: metrics, tracing, events, query log, profiling, HTTP export.

Six cooperating modules, all built on the same cost discipline as the
fault-injection layer (:mod:`repro.resilience.faults`): when nothing is
armed, an instrumentation site costs one module-global read.

* :mod:`repro.obs.metrics` — a thread-safe registry of labeled counters,
  gauges and histograms (histograms carry per-bucket trace exemplars).
  Every pre-existing stats surface (plan cache, views, store, worker
  recovery, codegen) publishes into it and the registry renders as JSON or
  Prometheus/OpenMetrics text (``repro metrics``, ``/metrics``).
* :mod:`repro.obs.trace` — span-based tracing across the whole pipeline
  with head sampling (``tracing(sample_rate=...)``) and tail promotion of
  slow traces.  Exportable as JSONL or Chrome ``trace_event`` JSON.
* :mod:`repro.obs.events` — the flight recorder: a bounded ring of
  structured events emitted at operational decision points (worker
  retries, IVM recompute fallbacks, limit trips, fault
  injections, ...), dumpable via ``repro events`` or ``/debug/events``.
* :mod:`repro.obs.qlog` — the structured query log: one typed record per
  user-facing evaluation (engine, batch/shard exec, store queries, IVM
  applies), keyed by a stable **plan signature**, kept in a bounded ring
  and optionally captured to a size-rotated JSONL file
  (``REPRO_QUERY_LOG``) for ``repro replay`` / ``repro report``.
  Disarmed by default — an instrumentation site costs one global read.
* :mod:`repro.obs.profile` — per-operator wall time and row counts under
  both NRC evaluators (``repro explain --analyze``) plus the
  slow-query log (``REPRO_SLOW_QUERY_MS``).
* :mod:`repro.obs.http` — the telemetry HTTP surface: a mountable WSGI
  app plus a threaded stdlib server (``repro metrics --serve``) exposing
  ``/metrics``, ``/varz``, ``/healthz``, ``/readyz``, ``/debug/slow``,
  ``/debug/events`` and ``/debug/queries``.

Import structure: only the dependency-light modules (metrics, trace,
events) load eagerly, so hot modules anywhere in the tree — including
:mod:`repro.resilience.limits` and :mod:`repro.nrc.codegen`, which sit
*below* the profiler in the import graph — can do
``from repro.obs.events import emit`` at module scope.  ``profile`` and
``http`` (which pull in the NRC evaluators and the store-facing readiness
checks) resolve lazily via module ``__getattr__``.
"""

from repro.obs.events import (
    EVENT_CATALOG,
    clear_events,
    declare_event,
    emit,
    is_recording,
    recent_events,
    recording,
    refresh_event_config,
)
from repro.obs.metrics import (
    MetricsRegistry,
    default_registry,
    parse_prometheus,
    registry_json,
    render_prometheus,
)
from repro.obs.trace import (
    Span,
    Tracer,
    current_trace_id,
    export_chrome,
    export_jsonl,
    span,
    tracing,
)

#: Names served lazily from the heavier modules (PEP 562).
_LAZY = {
    "ProfileReport": "repro.obs.profile",
    "profile_evaluate": "repro.obs.profile",
    "slow_queries": "repro.obs.profile",
    "clear_slow_queries": "repro.obs.profile",
    "refresh_slow_query_config": "repro.obs.profile",
    "slow_query_threshold": "repro.obs.profile",
    "profile": "repro.obs.profile",
    "TelemetryApp": "repro.obs.http",
    "TelemetryServer": "repro.obs.http",
    "start_telemetry_server": "repro.obs.http",
    "parse_serve_address": "repro.obs.http",
    "store_ready_check": "repro.obs.http",
    "plan_cache_ready_check": "repro.obs.http",
    "http": "repro.obs.http",
    "refresh_qlog_config": "repro.obs.qlog",
    "qlog": "repro.obs.qlog",
}

__all__ = [
    "MetricsRegistry",
    "default_registry",
    "registry_json",
    "render_prometheus",
    "parse_prometheus",
    "Span",
    "Tracer",
    "span",
    "tracing",
    "current_trace_id",
    "export_jsonl",
    "export_chrome",
    "EVENT_CATALOG",
    "emit",
    "declare_event",
    "recent_events",
    "clear_events",
    "recording",
    "is_recording",
    "refresh_event_config",
    *sorted(
        name
        for name in _LAZY
        if "." not in name and name not in ("profile", "http", "qlog")
    ),
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = module if name in ("profile", "http", "qlog") else getattr(module, name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

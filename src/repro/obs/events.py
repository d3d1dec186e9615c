"""Flight recorder: a bounded ring of structured "something notable happened" events.

PR 7's counters say *how often* the interesting things happened — worker
retries, recompute fallbacks, fault trips — but not
*when*, *why*, or *inside which trace*.  This module is the always-on
complement: every such site calls :func:`emit` with a typed kind and
structured attributes, and the event lands in a bounded, thread-safe ring
buffer that a live process can dump (``repro events``, the telemetry
server's ``/debug/events``) and optionally mirrors to a JSONL file
(``REPRO_EVENT_LOG``).

Cost discipline (the :func:`repro.resilience.faults.fail_point` contract):
:func:`emit` is one module-global read when recording is disabled, and the
ring is only ever touched on *cold* paths — event sites are exceptional by
definition (a retry, a fallback, a trip), never the per-evaluate hot loop —
so the recorder stays armed by default (``REPRO_EVENTS=off`` disables).

Every event carries the active trace id when tracing is armed (sampled
*or* head-sampled-out scopes both expose their id — see
:mod:`repro.obs.trace`), which is what links a ``worker.retry`` event to
the exact batch evaluation that suffered it.

Import-weight note: this module depends only on :mod:`repro.obs.metrics`
and :mod:`repro.obs.trace` (both repro-import-free), so even the earliest
importers (``repro.resilience.faults``, armed at interpreter start) can
wire :func:`emit` at module level without cycles.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Iterable, Mapping

from repro.obs import trace as _trace
from repro.obs.metrics import default_registry

__all__ = [
    "EVENT_CATALOG",
    "declare_event",
    "emit",
    "recent_events",
    "clear_events",
    "export_jsonl",
    "is_recording",
    "set_recording",
    "recording",
    "ring_capacity",
    "set_ring_capacity",
    "refresh_event_config",
    "ENV_EVENTS",
    "ENV_EVENT_LOG",
]

ENV_EVENTS = "REPRO_EVENTS"
ENV_EVENT_LOG = "REPRO_EVENT_LOG"

DEFAULT_RING_CAPACITY = 512

#: The typed event kinds and where they are emitted.  ``emit`` rejects
#: undeclared kinds so the catalog stays the single source of truth
#: (tests and ad-hoc tooling extend it through :func:`declare_event`).
EVENT_CATALOG: dict[str, str] = {
    "worker.pool_broken": "a process pool broke mid-batch (exec.batch)",
    "worker.retry": "a failed batch partition was retried on a rebuilt pool",
    "worker.degraded": "retry budget spent; a failed partition ran inline",
    "ivm.recompute": "view maintenance fell back to full recomputation",
    "store.pushdown_fallback": "navigation pushdown declined; single-shot fallback",
    "store.wal_compact": "a store snapshotted its columns and truncated the WAL",
    "limits.timeout": "an evaluation exceeded its time budget (QueryTimeoutError)",
    "limits.budget": "an evaluation exceeded a row/byte budget (BudgetExceededError)",
    "fault.injected": "an armed failpoint fired (repro.resilience.faults)",
    "query.slow": "an evaluation crossed the REPRO_SLOW_QUERY_MS threshold",
    "integrity.checksum-mismatch": "a WAL record or snapshot failed checksum/digest verification",
    "integrity.quarantine": "fsck moved a corrupt artifact or WAL suffix to a .quarantine sidecar",
    "integrity.salvage": "fsck salvaged the longest valid WAL prefix of a damaged log",
}

#: One global read decides the disarmed path; writers hold _RING_LOCK.
_RECORDING = True
_RING: deque = deque(maxlen=DEFAULT_RING_CAPACITY)
_RING_LOCK = threading.Lock()
_SEQ = 0
_LOG_PATH: str | None = None

_EVENT_COUNTER = default_registry().counter(
    "repro_events_total", "Flight-recorder events by kind"
)


def declare_event(kind: str, description: str) -> None:
    """Register an extra event kind (tests may declare ad-hoc kinds)."""
    EVENT_CATALOG.setdefault(kind, description)


def emit(kind: str, **attrs: Any) -> dict[str, Any] | None:
    """Record one structured event; returns it (or ``None`` when disabled).

    Cost when recording is disabled: one module-global read.  ``kind`` must
    be declared in :data:`EVENT_CATALOG`; ``attrs`` are free-form but should
    stay JSON-friendly (non-JSON values are stringified in the file mirror).
    """
    if not _RECORDING:
        return None
    if kind not in EVENT_CATALOG:
        raise ValueError(
            f"undeclared event kind {kind!r}; add it with declare_event()"
        )
    global _SEQ
    event: dict[str, Any] = {
        "kind": kind,
        "ts": time.time(),
        "pid": os.getpid(),
        "tid": threading.get_ident(),
        "trace_id": _trace.current_trace_id(),
        "attrs": attrs,
    }
    with _RING_LOCK:
        _SEQ += 1
        event["seq"] = _SEQ
        _RING.append(event)
    _EVENT_COUNTER.inc(kind=kind)
    path = _LOG_PATH
    if path:
        try:
            with open(path, "a", encoding="utf-8") as log:
                log.write(json.dumps(event, default=str) + "\n")
        except OSError:  # pragma: no cover - log dir vanished
            pass
    return event


def recent_events(kind: str | None = None,
                  limit: int | None = None) -> list[dict[str, Any]]:
    """A snapshot of the ring, oldest first (optionally filtered/tailed)."""
    with _RING_LOCK:
        snapshot = list(_RING)
    if kind is not None:
        snapshot = [event for event in snapshot if event["kind"] == kind]
    if limit is not None and limit >= 0:
        snapshot = snapshot[-limit:] if limit else []
    return snapshot


def clear_events() -> None:
    with _RING_LOCK:
        _RING.clear()


def export_jsonl(events: Iterable[Mapping[str, Any]]) -> str:
    """One JSON object per line, in emit order."""
    return "".join(json.dumps(dict(event), default=str) + "\n" for event in events)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------
def is_recording() -> bool:
    return _RECORDING


def set_recording(enabled: bool) -> bool:
    """Enable/disable the recorder; returns the previous state."""
    global _RECORDING
    previous = _RECORDING
    _RECORDING = bool(enabled)
    return previous


class recording:
    """Scoped recorder toggle (benchmarks disarm, tests force-arm)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._previous: bool | None = None

    def __enter__(self) -> "recording":
        self._previous = set_recording(self.enabled)
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._previous is not None:
            set_recording(self._previous)


def ring_capacity() -> int:
    return _RING.maxlen or 0


def set_ring_capacity(capacity: int) -> None:
    """Resize the ring, preserving the newest events that still fit."""
    global _RING
    if capacity < 1:
        raise ValueError(f"ring capacity must be >= 1, got {capacity}")
    with _RING_LOCK:
        _RING = deque(_RING, maxlen=capacity)


def refresh_event_config(environ: Mapping[str, str] | None = None) -> None:
    """(Re-)read ``REPRO_EVENTS``/``REPRO_EVENT_LOG``; call after mutating
    ``os.environ`` (the telemetry server calls this on start)."""
    global _RECORDING, _LOG_PATH
    environ = environ if environ is not None else os.environ
    raw = (environ.get(ENV_EVENTS) or "").strip().lower()
    _RECORDING = raw not in ("off", "0", "false", "no")
    _LOG_PATH = environ.get(ENV_EVENT_LOG) or None


refresh_event_config()

"""Execution guardrails: cooperative deadlines and result budgets.

:class:`EvalLimits` is the declarative limit set a caller attaches to one
evaluation (``PreparedQuery.evaluate(..., limits=...)``).  Starting it
yields a :class:`LimitGuard` — an armed guard with an absolute
``time.monotonic()`` deadline — which is pushed onto a thread-local
stack for the dynamic extent of the evaluation.

The evaluators never receive the guard explicitly; their hot loops
call :func:`check_tick`, which is a single global read when no guard is
active anywhere in the process:

- the Figure 8 reference interpreter checks per AST node and charges
  ``len(result)`` rows at each BigUnion;
- the codegen evaluator *emits* stride-counted checks (``_lc += 1`` /
  ``if not _lc & 255: _TICK(len(acc))``) into every generated fold loop,
  and one check per newly visited node into every generated srt recursion.

Violations raise the typed errors from :mod:`repro.errors`:
``QueryTimeoutError`` for the deadline, ``BudgetExceededError`` for the
row/byte budgets.  ``max_rows`` is guaranteed to fire whenever the final
result — or any accumulated collection along the way — exceeds it;
``max_result_bytes`` is charged on materialized results (a structural
size estimate, shared subtrees counted once).
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.errors import BudgetExceededError, QueryTimeoutError, ResilienceError
from repro.obs.events import emit

_TLS = threading.local()
_ACTIVE = 0  # process-wide count of armed guards; hot-path gate
_MISSING = object()


class EvalLimits:
    """Declarative limits for one evaluation.  Immutable and reusable."""

    __slots__ = ("timeout_s", "max_rows", "max_result_bytes")

    def __init__(
        self,
        timeout_s: Optional[float] = None,
        max_rows: Optional[int] = None,
        max_result_bytes: Optional[int] = None,
    ):
        if timeout_s is not None and timeout_s < 0:
            raise ResilienceError(f"timeout_s must be >= 0, got {timeout_s}")
        if max_rows is not None and max_rows < 0:
            raise ResilienceError(f"max_rows must be >= 0, got {max_rows}")
        if max_result_bytes is not None and max_result_bytes < 0:
            raise ResilienceError(f"max_result_bytes must be >= 0, got {max_result_bytes}")
        self.timeout_s = timeout_s
        self.max_rows = max_rows
        self.max_result_bytes = max_result_bytes

    @property
    def is_bounded(self) -> bool:
        return (
            self.timeout_s is not None
            or self.max_rows is not None
            or self.max_result_bytes is not None
        )

    def start(self) -> "LimitGuard":
        """Arm a guard now: the deadline clock starts at this call."""
        return LimitGuard(self)

    def remaining(self, guard: "LimitGuard") -> Optional[float]:
        if guard.deadline is None:
            return None
        return max(0.0, guard.deadline - time.monotonic())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        if self.timeout_s is not None:
            parts.append(f"timeout_s={self.timeout_s}")
        if self.max_rows is not None:
            parts.append(f"max_rows={self.max_rows}")
        if self.max_result_bytes is not None:
            parts.append(f"max_result_bytes={self.max_result_bytes}")
        return f"EvalLimits({', '.join(parts)})"


class LimitGuard:
    """An armed limit set with an absolute deadline.

    Stateless after construction, so one guard can be shared by every
    worker thread of a batch — each thread activates it on its own
    thread-local stack (``with activate(guard): ...``).
    """

    __slots__ = ("limits", "deadline", "max_rows", "max_bytes")

    def __init__(self, limits: EvalLimits):
        self.limits = limits
        self.deadline = (
            time.monotonic() + limits.timeout_s if limits.timeout_s is not None else None
        )
        self.max_rows = limits.max_rows
        self.max_bytes = limits.max_result_bytes

    def tick(self, rows: int = 0) -> None:
        """Cooperative check: deadline always, row budget when ``rows`` given."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            emit("limits.timeout", timeout_s=self.limits.timeout_s)
            raise QueryTimeoutError(
                f"evaluation exceeded its {self.limits.timeout_s:g}s time budget"
            )
        if self.max_rows is not None and rows > self.max_rows:
            emit("limits.budget", budget="rows", rows=rows, max_rows=self.max_rows)
            raise BudgetExceededError(
                f"evaluation accumulated {rows} rows; max_rows is {self.max_rows}"
            )

    def check_result(self, value: object) -> None:
        """Final check on a materialized result (rows + byte estimate)."""
        self.tick(_row_count(value))
        if self.max_bytes is not None:
            estimate = estimate_bytes(value)
            if estimate > self.max_bytes:
                emit("limits.budget", budget="bytes", estimate=estimate,
                     max_result_bytes=self.max_bytes)
                raise BudgetExceededError(
                    f"result is ~{estimate} bytes; max_result_bytes is {self.max_bytes}"
                )


def activate(guard: LimitGuard) -> "_Activation":
    """Push ``guard`` on this thread's guard stack for a ``with`` block."""
    return _Activation(guard)


class _Activation:
    __slots__ = ("_guard",)

    def __init__(self, guard: LimitGuard):
        self._guard = guard

    def __enter__(self) -> LimitGuard:
        global _ACTIVE
        stack = getattr(_TLS, "stack", None)
        if stack is None:
            stack = _TLS.stack = []
        stack.append(self._guard)
        _ACTIVE += 1
        return self._guard

    def __exit__(self, *exc) -> bool:
        global _ACTIVE
        _TLS.stack.pop()
        _ACTIVE -= 1
        return False


def current_guard() -> Optional[LimitGuard]:
    stack = getattr(_TLS, "stack", None)
    return stack[-1] if stack else None


def check_tick(rows: int = 0) -> None:
    """Hot-loop hook: one global read when no guard is active anywhere."""
    if not _ACTIVE:
        return
    stack = getattr(_TLS, "stack", None)
    if stack:
        stack[-1].tick(rows)


def _row_count(value: object) -> int:
    items = getattr(value, "_items", None)
    return len(items) if items is not None else 0


def estimate_bytes(value: object, _seen: Optional[set] = None) -> int:
    """Structural size estimate of a result value, shared subtrees counted once."""
    if _seen is None:
        _seen = set()
    marker = id(value)
    if marker in _seen:
        return 0
    if isinstance(value, str):
        return len(value)
    if isinstance(value, (int, float, bool, type(None))):
        return 8
    _seen.add(marker)
    items = getattr(value, "_items", None)  # KSet
    if items is not None:
        total = 2 * len(items)
        for member, annotation in items.items():
            total += estimate_bytes(member, _seen) + estimate_bytes(annotation, _seen)
        return total
    label = getattr(value, "_label", _MISSING)  # UTree
    if label is not _MISSING:
        return len(label) + estimate_bytes(getattr(value, "_children", None), _seen)
    first = getattr(value, "_first", _MISSING)  # Pair
    if first is not _MISSING:
        return estimate_bytes(first, _seen) + estimate_bytes(getattr(value, "_second"), _seen)
    if isinstance(value, (list, tuple)):
        return sum(estimate_bytes(item, _seen) for item in value)
    return len(repr(value))

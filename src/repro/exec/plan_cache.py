"""A bounded, thread-safe LRU plan cache in front of :func:`prepare_query`.

Preparation is by far the most expensive step of the pipeline (parse,
normalize, typecheck, compile to NRC_K + srt, simplify, generate code), and
:class:`~repro.uxquery.engine.PreparedQuery` instances are immutable and safe
to share between threads.  A stateless service that receives query *text* on
every request therefore wants exactly one data structure: a map from query
text to the prepared plan, bounded, thread-safe, and guaranteeing that a plan
is compiled **once** no matter how many requests race on a cold key.

:class:`PlanCache` is that map.  Keys are ``(query, semiring, env-types
signature)`` — query *text* for textual queries, so lookups never parse
(textually distinct spellings of one query, ``$S/*`` vs ``$S/child::*``,
are distinct keys); a :class:`~repro.uxquery.ast.Query` AST keys by its
structural value (``Query.__eq__``/``__hash__``), **not** by its rendering —
renderings are not injective (a :class:`~repro.uxquery.ast.LabelExpr` can
spell out any expression), so a string key could hand one query another
query's plan.  Text and AST forms of the same query therefore occupy two
cache entries; callers that want sharing should pick one form.
The evaluation ``method`` is validated but deliberately **not** part of the
key: a :class:`PreparedQuery` carries every evaluation method — including
the source-generated ``nrc-codegen`` program, produced once at prepare time —
so one compile serves ``nrc-codegen``, ``nrc``, ``nrc-interp`` and
``direct`` callers alike.
Concurrent misses on the same key are coalesced so only the first caller
compiles while the others block on the in-flight compilation and share its
result.  Hit / miss / eviction / compile counts are tracked for
observability (:meth:`PlanCache.stats`).

The module also hosts a process-wide default cache (:func:`default_plan_cache`)
and the convenience wrapper :func:`cached_prepare`, used by the CLI ``batch``
subcommand and by process-pool shard workers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Mapping, NamedTuple

from repro.errors import ExecError
from repro.obs.metrics import default_registry
from repro.semirings.base import Semiring
from repro.uxquery.ast import Query
from repro.uxquery.engine import (
    DEFAULT_METHOD,
    PreparedQuery,
    env_types_of,
    prepare_query,
    validate_method,
)

__all__ = ["CacheStats", "PlanCache", "default_plan_cache", "cached_prepare"]

# Pre-declared metric families: named caches publish per-cache samples into
# these at export time (a pull collector reading PlanCache.stats(), so the
# per-instance counters stay the single source of truth and the hot lookup
# path pays nothing for the registry).
_REGISTRY = default_registry()
_REGISTRY.counter("repro_plan_cache_hits_total", "Plan-cache lookups served without compiling")
_REGISTRY.counter("repro_plan_cache_misses_total", "Plan-cache lookups that compiled")
_REGISTRY.counter("repro_plan_cache_evictions_total", "Plans evicted by the LRU bound")
_REGISTRY.counter("repro_plan_cache_compiles_total", "Plan compilations performed")
_REGISTRY.gauge("repro_plan_cache_size", "Plans currently cached")
_REGISTRY.gauge("repro_plan_cache_maxsize", "Plan-cache capacity")


class CacheStats(NamedTuple):
    """A consistent snapshot of a :class:`PlanCache`'s counters."""

    hits: int
    misses: int
    evictions: int
    compiles: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _InFlight:
    """A compilation in progress; waiters block on :attr:`done`."""

    __slots__ = ("done", "plan", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.plan: PreparedQuery | None = None
        self.error: BaseException | None = None


class PlanCache:
    """A bounded LRU cache of :class:`PreparedQuery` plans.

    ``maxsize`` bounds the number of *completed* plans kept; the least
    recently used plan is evicted when the bound is exceeded.  ``prepare``
    may be overridden (e.g. with a counting wrapper in tests); it must have
    the :func:`repro.uxquery.engine.prepare_query` signature.

    Thread-safety contract: lookups and bookkeeping run under an internal
    lock, compilation runs outside it, and concurrent misses on one key are
    coalesced into a single compilation whose result (or exception) is shared
    by every waiter.  Waiters served by an in-flight compilation count as
    hits: they did not compile.
    """

    def __init__(
        self,
        maxsize: int = 128,
        prepare: Callable[..., PreparedQuery] = prepare_query,
        name: str | None = None,
    ):
        if maxsize < 1:
            raise ExecError("plan cache maxsize must be at least 1")
        self._maxsize = maxsize
        self._prepare = prepare
        self._lock = threading.Lock()
        self._plans: OrderedDict[tuple, PreparedQuery] = OrderedDict()
        self._inflight: dict[tuple, _InFlight] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._compiles = 0
        #: Named caches publish into ``repro metrics`` labeled ``cache=name``
        #: (anonymous caches — e.g. ephemeral test caches — stay private).
        #: The collector holds only a weak reference to this cache.
        self.name = name
        if name is not None:
            _REGISTRY.register_object_collector(
                f"plan-cache:{name}", self, PlanCache._collect_metrics
            )

    def _collect_metrics(self, sink: Any) -> None:
        stats = self.stats()
        sink.counter("repro_plan_cache_hits_total", stats.hits, cache=self.name)
        sink.counter("repro_plan_cache_misses_total", stats.misses, cache=self.name)
        sink.counter("repro_plan_cache_evictions_total", stats.evictions, cache=self.name)
        sink.counter("repro_plan_cache_compiles_total", stats.compiles, cache=self.name)
        sink.gauge("repro_plan_cache_size", stats.size, cache=self.name)
        sink.gauge("repro_plan_cache_maxsize", stats.maxsize, cache=self.name)

    # ---------------------------------------------------------------- lookup
    def _key(
        self,
        query: str | Query,
        semiring: Semiring,
        env_types: Mapping[str, str],
    ) -> tuple:
        # Text keys textually, an AST keys structurally: Query renderings are
        # not injective, so collapsing an AST to str(query) could serve one
        # query another (render-identical) query's plan.
        return (query, semiring, tuple(sorted(env_types.items())))

    def get(
        self,
        query: str | Query,
        semiring: Semiring,
        env: Mapping[str, Any] | None = None,
        env_types: Mapping[str, str] | None = None,
        method: str = DEFAULT_METHOD,
    ) -> PreparedQuery:
        """The prepared plan for ``query``, compiling (once) on a cold key.

        ``method`` is validated for early failure but does not affect the
        key — the returned plan supports every evaluation method.
        """
        validate_method(method)
        types = dict(env_types) if env_types is not None else env_types_of(env)
        key = self._key(query, semiring, types)
        owner = False
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self._hits += 1
                # Query-log flag: this plan has been served without
                # compiling at least once (a racy bool write is benign).
                plan._plan_cache_hit = True
                return plan
            pending = self._inflight.get(key)
            if pending is not None:
                # Another thread is compiling this key: share its outcome.
                self._hits += 1
            else:
                pending = self._inflight[key] = _InFlight()
                self._misses += 1
                owner = True
        if not owner:
            pending.done.wait()
            if pending.error is not None:
                raise pending.error
            assert pending.plan is not None
            pending.plan._plan_cache_hit = True
            return pending.plan
        # Owner path.  The try/finally guarantees that — success, compile
        # error, or even an asynchronous exception — the in-flight marker is
        # removed, the outcome is recorded, and every waiter is woken.  A
        # failed compile must poison nothing: no cached entry remains and the
        # next caller on the key retries cleanly.
        try:
            plan = self._prepare(query, semiring, env=env, env_types=types)
            with self._lock:
                self._compiles += 1
                self._plans[key] = plan
                self._plans.move_to_end(key)
                while len(self._plans) > self._maxsize:
                    self._plans.popitem(last=False)
                    self._evictions += 1
            pending.plan = plan
            return plan
        except BaseException as error:
            pending.error = error
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            if pending.plan is None and pending.error is None:
                # Belt and braces: never strand waiters on the event.
                pending.error = ExecError(
                    f"plan compilation for {key[0]!r} was interrupted before completing"
                )
            pending.done.set()

    # ------------------------------------------------------------ maintenance
    def clear(self) -> None:
        """Drop every cached plan (in-flight compilations are unaffected)."""
        with self._lock:
            self._plans.clear()

    def stats(self) -> CacheStats:
        """A consistent snapshot of the hit/miss/eviction/compile counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                compiles=self._compiles,
                size=len(self._plans),
                maxsize=self._maxsize,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._plans

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (
            f"<PlanCache size={stats.size}/{stats.maxsize} "
            f"hits={stats.hits} misses={stats.misses} evictions={stats.evictions}>"
        )


_DEFAULT_CACHE = PlanCache(maxsize=256, name="default")


def default_plan_cache() -> PlanCache:
    """The process-wide plan cache used by the CLI and shard workers."""
    return _DEFAULT_CACHE


def cached_prepare(
    query: str | Query,
    semiring: Semiring,
    env: Mapping[str, Any] | None = None,
    env_types: Mapping[str, str] | None = None,
    method: str = DEFAULT_METHOD,
) -> PreparedQuery:
    """:func:`prepare_query` through the process-wide :class:`PlanCache`."""
    return _DEFAULT_CACHE.get(query, semiring, env=env, env_types=env_types, method=method)

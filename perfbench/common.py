"""Shared measurement helpers: percentiles, the tail rule, memory, reports."""

from __future__ import annotations

import math
import os
import platform
import resource
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> tuple:
    """``(percentile, value)``: the highest candidate percentile with at
    least ten samples beyond it (the median when no candidate has)."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n - max(1, math.ceil(p / 100.0 * n)) >= 10:
            return p, percentile(values, p)
    return 50.0, percentile(values, 50.0)


def median(values: Sequence[float]) -> float:
    """The nearest-rank median, so that a tail is never below it."""
    return percentile(values, 50.0)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MiB of this process (or of its largest
    waited-for child process)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(durability: str, sizes: Dict[str, object]) -> Dict[str, object]:
    """The facts a reader needs to compare two runs."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "durability": durability,
        "sizes": sizes,
    }


def latency_block(name: str, values_ms: List[float]) -> Dict[str, object]:
    """Median and tail of one latency population, with its sample count."""
    p, value = tail(values_ms)
    return {
        f"{name}_p50_ms": median(values_ms),
        f"{name}_tail_ms": value,
        f"{name}_tail_percentile": p,
        f"{name}_samples": len(values_ms),
    }


def store_counts(store: Any, nav: Optional[Tuple[int, int]] = None) -> Dict[str, int]:
    """The store's own counters that every share is computed from.

    ``nav`` overrides the navigation-memo ``(hits, misses)`` for a caller
    that sums them over indexes an update has since replaced.
    """
    stats = store.stats()
    cache = store.plan_cache.stats()
    if nav is None:
        indexes = [store.document(doc_id).index for doc_id in store.document_ids()]
        nav = (sum(index.nav_hits for index in indexes), sum(index.nav_misses for index in indexes))
    views = [store.view(name).stats() for name in store.view_names()]
    return {
        "pushdown.full": stats.full_pushdowns,
        "pushdown.residual": stats.pushdowns - stats.full_pushdowns,
        "pushdown.fallback": stats.fallbacks,
        "plan_cache.hits": cache.hits,
        "plan_cache.misses": cache.misses,
        "plan_cache.evictions": cache.evictions,
        "nav_memo.hits": nav[0],
        "nav_memo.misses": nav[1],
        "view.applies": sum(view.applies for view in views),
        "view.incremental": sum(view.incremental for view in views),
        "snapshots": stats.snapshots,
    }


def write_bytes(workload: Any) -> Tuple[int, int]:
    """``(WAL bytes, snapshot bytes)`` a workload's updates wrote."""
    return workload.write_bytes() if hasattr(workload, "write_bytes") else (0, 0)


def add_counts(total: Dict[str, int], counts: Dict[str, int]) -> None:
    for key, value in counts.items():
        total[key] = total.get(key, 0) + value


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def shares(counts: Dict[str, int]) -> Dict[str, float]:
    """Workload shares from :func:`store_counts` (0 where nothing ran)."""
    if not counts:
        return {}
    splits = counts["pushdown.full"] + counts["pushdown.residual"] + counts["pushdown.fallback"]
    lookups = counts["plan_cache.hits"] + counts["plan_cache.misses"]
    navigations = counts["nav_memo.hits"] + counts["nav_memo.misses"]
    return {
        "full_pushdown": _ratio(counts["pushdown.full"], splits),
        "pushdown_with_residual": _ratio(counts["pushdown.residual"], splits),
        "fallback": _ratio(counts["pushdown.fallback"], splits),
        "plan_cache_hit_rate": _ratio(counts["plan_cache.hits"], lookups),
        "nav_memo_hit_rate": _ratio(counts["nav_memo.hits"], navigations),
        "view_incremental_share": _ratio(counts["view.incremental"], counts["view.applies"]),
    }


def say(text: str) -> None:
    """A human-readable report line (never the last line of output)."""
    print(text, flush=True)


def fail(text: str) -> "None":
    print(f"perfbench: {text}", file=sys.stderr, flush=True)
    sys.exit(2)

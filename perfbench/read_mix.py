"""``read-mix``: a seeded, Zipf-skewed query stream over an N[X] store.

Why: it loads prepare, the plan cache, the pushdown split, index navigation
and evaluation over symbolic annotations, with both cache hits and misses.
The pool of distinct query texts is larger than the store's plan cache and
holds more distinct navigation chains than the navigation memo, so neither
cache can hold the whole working set.  It makes no writes.

The stream is built in blocks of :data:`BLOCK` operations holding a fixed
number of operations per query family, shuffled within the block.  Texts
follow a Zipf skew within each family.  Where the family's pool is no
larger than its count per block, every text gets a fixed count per block
in proportion to its Zipf weight; chains and joins, whose pools are
larger, draw from them.  Fixed counts keep the share of each expensive
text the same under every seed, so runs with different seeds measure the
same mix, and a run always ends on a whole block.

The mix is synthetic: the repository holds no capture of real use to take
it from.  The counts in :data:`BLOCK` were picked by hand to place the
percentiles, not to match any real traffic:

* child chains, the path the caches serve, are 3/4 of operations, so the
  median is a chain lookup (a plan-cache and navigation-memo hit or miss);
* merged multi-document calls are 2.4% of operations, more than the 1%
  above p99, so the p99 tail falls inside the merge family's dearest text
  rather than on the edge between two families;
* one label join per block keeps the Figure 5 fallback shape in every
  block without letting its ~0.5 s dominate busy time;
* navigation, descendant-plus-residual and reconstruction take 10%, 6% and
  4%, so each keeps a share of busy time a change to its layer would move.

Each run prints every family's measured share of operations and of time.
"""

from __future__ import annotations

import bisect
import random
import time
from typing import Any, Dict, List, Tuple

from common import peak_rss_mb, store_counts
from repro.kcollections.kset import KSet
from repro.obs.qlog import result_digest
from repro.semirings.polynomial import PROVENANCE
from repro.store import DocumentStore
from repro.store.index import StructuralIndex
from repro.uxquery import prepare_query
from repro.uxquery.typecheck import FOREST
from repro.workloads import random_forest
from repro.workloads.generator import DEFAULT_LABELS
from repro.workloads.queries import (
    label_join_query,
    nested_iteration_query,
    reconstruction_query,
)

_perf = time.perf_counter

FOREST_TREES = 96
DEPTH = 4
FANOUT = 3
SMALL_DOCUMENTS = 3
SMALL_TREES = 6

#: Operations per block, by family.  ``merge`` is a ``query_many(merge=True)``
#: call over every stored document; every other family is one
#: ``store.query`` over the large document.
BLOCK = {
    "chain": 1240,
    "nav": 160,
    "residual": 96,
    "reconstruct": 64,
    "merge": 39,
    "join": 1,
}

#: Distinct texts of the families whose pool the seed draws (navigation
#: has one text per label; reconstruction and merge texts are fixed).
CHAIN_TEXTS = 280
RESIDUAL_TEXTS = 16
JOIN_TEXTS = 8

#: Merged multi-document queries: wildcard chains, whose result sizes are
#: fixed by the forest shape rather than by the seed's labels.
MERGE_TEXTS = ("$S/*/*/*", "$S/*/*", "for $x in $S/* return ($x)/*", "$S/*")

#: Zipf exponent of the texts within each family.
ZIPF_S = 1.3

#: ``(length, wildcard positions)`` of a chain, cycled by popularity rank;
#: every 24th rank is a single step instead.
_SHAPES = ((3, ()), (2, ()), (3, (0,)), (3, ()), (3, (2,)), (3, (1,)))


def build_pool(rng: random.Random) -> Dict[str, List[str]]:
    """Distinct query texts per family, hottest first.

    The shape of the text at each popularity rank (chain length, wildcard
    positions, bare or element-wrapped navigation) is fixed; the seed picks
    the labels.
    Result sizes, and with them costs, then follow the same distribution
    by rank under every seed.
    """
    labels = list(DEFAULT_LABELS)

    def wrapped(path: str, rank: int) -> str:
        return path if rank % 2 == 0 else f"element out {{ {path} }}"

    chains: List[str] = []
    seen = set()
    rank = 0
    while len(chains) < CHAIN_TEXTS:
        if rank % 24 == 23:
            length, wildcards = 1, ()
        else:
            length, wildcards = _SHAPES[rank % len(_SHAPES)]
        for _attempt in range(64):
            steps = ["*" if i in wildcards else rng.choice(labels) for i in range(length)]
            text = "$S/" + "/".join(steps)
            if text not in seen:
                seen.add(text)
                chains.append(text)
                break
        rank += 1
    order = rng.sample(labels, len(labels))
    pool: Dict[str, List[str]] = {
        "chain": chains,
        "nav": [wrapped(f"$S//{label}", rank) for rank, label in enumerate(order)],
        "residual": [
            f"for $x in $S//{order[rank % len(order)]} return element hit "
            f"{{ ($x)/{'*' if rank % 3 == 0 else rng.choice(labels)} }}"
            for rank in range(RESIDUAL_TEXTS)
        ],
        "reconstruct": [reconstruction_query()]
        + [nested_iteration_query(depth) for depth in (1, 2, 3)],
        "merge": list(MERGE_TEXTS),
    }
    pairs = [(a, b) for a in labels for b in labels if a != b]
    pool["join"] = [label_join_query(a, b) for a, b in rng.sample(pairs, JOIN_TEXTS)]
    return pool


def _zipf_weights(size: int) -> List[float]:
    weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, size + 1)]
    total = sum(weights)
    return [weight / total for weight in weights]


def _fixed_counts(size: int, count: int) -> List[int]:
    """``count`` split over ``size`` ranks by Zipf weight (largest
    remainder)."""
    shares = [weight * count for weight in _zipf_weights(size)]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(size), key=lambda rank: counts[rank] - shares[rank])
    for rank in by_remainder[: count - sum(counts)]:
        counts[rank] += 1
    return counts


class _Zipf:
    def __init__(self, size: int):
        running = 0.0
        self.cumulative = []
        for weight in _zipf_weights(size):
            running += weight
            self.cumulative.append(running)

    def draw(self, rng: random.Random) -> int:
        return min(bisect.bisect_left(self.cumulative, rng.random()), len(self.cumulative) - 1)


class ReadMix:
    name = "read-mix"
    setup_repeats = 15
    semiring = PROVENANCE
    durability = "in-memory store (no directory)"
    op_kind = "query"

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.forest = random_forest(
            PROVENANCE, FOREST_TREES, DEPTH, FANOUT, seed=rng.randrange(1 << 30)
        )
        self.small = [
            random_forest(PROVENANCE, SMALL_TREES, 3, FANOUT, seed=rng.randrange(1 << 30))
            for _ in range(SMALL_DOCUMENTS)
        ]
        self.pool = build_pool(rng)
        #: Per family: the texts every block holds, or a sampler to draw
        #: them from.
        self.fixed: Dict[str, List[str]] = {}
        self.samplers: Dict[str, _Zipf] = {}
        for family, texts in self.pool.items():
            if len(texts) <= BLOCK[family]:
                counts = _fixed_counts(len(texts), BLOCK[family])
                self.fixed[family] = [text for text, n in zip(texts, counts) for _ in range(n)]
            else:
                self.samplers[family] = _Zipf(len(texts))
        self.rng = random.Random(rng.randrange(1 << 30))
        self.block: List[Tuple[str, str]] = []
        self.store: DocumentStore | None = None
        #: (family, text) -> digest of the first result served.
        self.seen: Dict[Tuple[str, str], str] = {}
        self.mismatches: List[str] = []

    # ----------------------------------------------------------------- set-up
    def setup(self) -> None:
        self.store = None  # so that only one store is alive at the peak
        store = DocumentStore(PROVENANCE)
        store.ingest("forest", self.forest)
        for number, document in enumerate(self.small):
            store.ingest(f"small{number}", document)
        self.store = store

    def sizes(self) -> Dict[str, Any]:
        return {
            "forest_trees": FOREST_TREES,
            "forest_nodes": len(self.store.columns("forest")),
            "small_documents": SMALL_DOCUMENTS,
            "query_pool": sum(len(texts) for texts in self.pool.values()),
            "query_pool_by_family": {family: len(texts) for family, texts in self.pool.items()},
            "plan_cache_size": self.store.plan_cache.stats().maxsize,
            "nav_cache_size": StructuralIndex.NAV_CACHE_SIZE,
            "block": BLOCK,
            "zipf_s": ZIPF_S,
            "distinct_texts_seen": len(self.seen),
        }

    # ------------------------------------------------------------------ steps
    def _next(self) -> Tuple[str, str]:
        if not self.block:
            block = [(family, text) for family, texts in self.fixed.items() for text in texts]
            for family, sampler in self.samplers.items():
                texts = self.pool[family]
                block += [(family, texts[sampler.draw(self.rng)]) for _ in range(BLOCK[family])]
            self.rng.shuffle(block)
            self.block = block
        return self.block.pop()

    def may_stop(self) -> bool:
        """True between blocks: a run ends only on a whole block."""
        return not self.block

    def step(self, records: List[tuple]) -> None:
        family, text = self._next()
        store = self.store
        if family == "merge":
            started = _perf()
            result = store.query_many(text, merge=True)
            elapsed = _perf() - started
        else:
            started = _perf()
            result = store.query(text, "forest")
            elapsed = _perf() - started
        records.append(("query", elapsed * 1000.0, family))
        # Every result is checked against the first result of its text, and
        # that one against direct evaluation in verify(); only digests are
        # kept, so the check holds no result alive.
        digest = result_digest(result)
        first = self.seen.setdefault((family, text), digest)
        if digest != first:
            self.mismatches.append(f"{family}: {text} (result differs from its first)")

    def counts(self) -> Dict[str, int]:
        return store_counts(self.store)

    def peak_rss(self) -> float:
        return peak_rss_mb()

    # ------------------------------------------------------------------ check
    def verify(self) -> Tuple[int, List[str]]:
        """Check the first result of every distinct text against
        single-shot ``direct`` evaluation on the same documents."""
        documents = [self.forest] + self.small
        mismatches = list(self.mismatches)
        for (family, text), digest in self.seen.items():
            prepared = prepare_query(text, PROVENANCE, env_types={"S": FOREST})
            if family == "merge":
                expected = KSet.empty(PROVENANCE)
                for document in documents:
                    expected = expected.union(prepared.evaluate({"S": document}, method="direct"))
            else:
                expected = prepared.evaluate({"S": self.forest}, method="direct")
            if digest != result_digest(expected):
                mismatches.append(f"{family}: {text} (first result)")
        return len(self.seen), mismatches

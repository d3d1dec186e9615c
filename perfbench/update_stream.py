"""``update-stream``: single-tree deltas over a durable N store, each
followed by a read step of three queries.

Why: it loads delta application, re-shredding, index build, WAL append,
view maintenance and snapshot writes.  The store keeps two views: ``$S//c``
(linear, maintained incrementally) and the element-wrapped reconstruction
query (non-incremental, recomputed on every update).  Every third update
compacts (``snapshot_every=3``): compacting updates are the slowest, and at
a third of all updates they fill the quarter above the p75 tail, so the
tail moves with snapshot writes and WAL truncation.  The read step after
each update runs a small fixed set of queries that fits every cache, yet
always meets a cold navigation memo because every update rebuilds the
document's index.
Annotations are scalar (N), so polynomial arithmetic does not hide
structural cost.

The delta stream is built in blocks of one insertion, one deletion and one
re-annotation (shuffled within the block), so the document keeps its size
and every seed measures the same mix.  The mix is synthetic: there is no
capture of real use to take it from; equal thirds give each delta kind the
same weight.

The output checks run outside the timing, at every compaction and at the
end: the stored forest against an ``apply_sequence`` reference, each view
and the queries just served against direct evaluation.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from typing import Any, Dict, List, Tuple

from common import peak_rss_mb, store_counts
from layers import install_byte_meter, paused
from repro.ivm import Delta
from repro.ivm.delta import apply_sequence
from repro.semirings.natural import NATURAL
from repro.store import DocumentStore
from repro.uxquery import prepare_query
from repro.uxquery.typecheck import FOREST
from repro.workloads import random_forest, random_tree
from repro.workloads.queries import reconstruction_query

_perf = time.perf_counter

TREES = 384
DEPTH = 4
FANOUT = 3
SNAPSHOT_EVERY = 3
DURABILITY = "none"

VIEWS = {
    "descendants": "$S//c",
    "reconstruction": reconstruction_query(),
}

#: The read step after each update runs each of these once, each meeting
#: a cold navigation memo; the step is one ``query`` sample.  Every sample
#: then holds the same texts, so the percentiles never fall on the edge
#: between a cheap text and a dear one.
QUERIES = (
    "$S/a/*",
    "$S//c",
    "for $x in $S//b return element hit { ($x)/* }",
)

KINDS = ("insert", "delete", "reannotate")


def _annotation(rng: random.Random) -> int:
    return rng.randint(1, 3)


class UpdateStream:
    name = "update-stream"
    setup_repeats = 5
    semiring = NATURAL
    durability = DURABILITY
    op_kind = "update"

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.forest = random_forest(
            NATURAL, TREES, DEPTH, FANOUT, seed=rng.randrange(1 << 30), annotation_fn=_annotation
        )
        self.rng = random.Random(rng.randrange(1 << 30))
        self.workdir = workdir
        self.setups = 0
        self.block: List[str] = []
        self.store: DocumentStore | None = None
        self.directory = ""
        self.reference = self.forest
        self.truncated = install_byte_meter()
        self.updates = 0
        self.wal_bytes = 0
        self.snapshot_bytes = 0
        self.nav_hits = 0
        self.nav_misses = 0
        self.mismatches: List[str] = []
        self.checked = 0

    # ----------------------------------------------------------------- set-up
    def setup(self) -> None:
        self.store = None  # so that only one store is alive at the peak
        if self.directory:
            shutil.rmtree(self.directory, ignore_errors=True)
        self.directory = os.path.join(self.workdir, f"store-{self.setups}")
        self.setups += 1
        store = DocumentStore(
            NATURAL, self.directory, snapshot_every=SNAPSHOT_EVERY, durability=DURABILITY
        )
        store.ingest("doc", self.forest)
        for name, text in VIEWS.items():
            store.register_view(name, text, "doc")
        self.store = store
        self.reference = self.forest

    def sizes(self) -> Dict[str, Any]:
        return {
            "trees": TREES,
            "nodes": len(self.store.columns("doc")),
            "snapshot_every": SNAPSHOT_EVERY,
            "views": {name: self.store.view(name).classification for name in VIEWS},
            "queries_per_read_step": len(QUERIES),
            "plan_cache_size": self.store.plan_cache.stats().maxsize,
        }

    # ------------------------------------------------------------------ steps
    def _delta(self) -> Tuple[str, Delta]:
        if not self.block:
            self.block = list(KINDS)
            self.rng.shuffle(self.block)
        kind = self.block.pop()
        rng = self.rng
        if kind == "insert":
            tree = random_tree(
                NATURAL, DEPTH, FANOUT, seed=rng.randrange(1 << 30), annotation_fn=_annotation
            )
            return kind, Delta.insertion(NATURAL, tree, _annotation(rng))
        members = list(self.reference.items())
        tree, annotation = members[rng.randrange(len(members))]
        if kind == "delete":
            return kind, Delta.deletion(NATURAL, tree, annotation)
        return kind, Delta.reannotation(NATURAL, tree, annotation, annotation % 3 + 1)

    def _wal_written(self) -> int:
        """WAL bytes appended so far: the live log plus what compaction
        truncated."""
        wal = os.path.join(self.directory, "wal.jsonl")
        size = os.path.getsize(wal) if os.path.exists(wal) else 0
        return self.truncated() + size

    def may_stop(self) -> bool:
        """True between blocks of the three delta kinds; with
        ``SNAPSHOT_EVERY`` equal to the block length, a run that ends on a
        boundary holds the same share of compacting updates under every
        seed."""
        return not self.block

    def step(self, records: List[tuple]) -> None:
        store = self.store
        with paused():
            kind, delta = self._delta()
            snapshots = store.stats().snapshots
            wal_before = self._wal_written()
        started = _perf()
        store.update("doc", delta)
        elapsed = _perf() - started
        with paused():
            self.updates += 1
            self.reference = apply_sequence(self.reference, [delta])
            self.wal_bytes += self._wal_written() - wal_before
            compacted = store.stats().snapshots != snapshots
            if compacted:
                self.snapshot_bytes += os.path.getsize(os.path.join(self.directory, "snapshot.json"))
        records.append(("update", elapsed * 1000.0, f"{kind}+compact" if compacted else kind))

        results = []
        started = _perf()
        for text in QUERIES:
            results.append(store.query(text, "doc"))
        elapsed = _perf() - started
        records.append(("query", elapsed * 1000.0, "read step"))
        with paused():
            index = store.document("doc").index
            self.nav_hits += index.nav_hits
            self.nav_misses += index.nav_misses
            if compacted:
                self._check_store()
                for text, result in zip(QUERIES, results):
                    self._check(text, result)

    # ------------------------------------------------------------------ check
    def _direct(self, text: str) -> Any:
        prepared = prepare_query(text, NATURAL, env_types={"S": FOREST})
        return prepared.evaluate({"S": self.reference}, method="direct")

    def _check(self, text: str, result: Any) -> None:
        self.checked += 1
        if result != self._direct(text):
            self.mismatches.append(f"query {text} differs from direct evaluation")

    def _check_store(self) -> None:
        """The stored forest against the reference, and each view against
        direct evaluation over it."""
        self.checked += 1
        if self.store.forest("doc") != self.reference:
            self.mismatches.append(f"stored forest differs from the reference after {self.updates} updates")
        for name, text in VIEWS.items():
            self._check(text, self.store.view(name).result)

    def verify(self) -> Tuple[int, List[str]]:
        self._check_store()
        return self.checked, self.mismatches

    # ------------------------------------------------------------- reporting
    def peak_rss(self) -> float:
        return peak_rss_mb()

    def write_bytes(self) -> Tuple[int, int]:
        """``(WAL bytes, snapshot bytes)`` written by the updates so far."""
        return self.wal_bytes, self.snapshot_bytes

    def counts(self) -> Dict[str, int]:
        return store_counts(self.store, nav=(self.nav_hits, self.nav_misses))

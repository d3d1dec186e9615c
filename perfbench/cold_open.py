"""``cold-open``: one fresh ``python -m repro store query`` process per
operation over a store directory.

Why: it measures what a CLI user or a restarted process pays, with no warm
cache anywhere: interpreter start and ``import repro.cli``, snapshot load
and decode, WAL scan and checksum verification, replay of the WAL tail
(re-shred and index build per record), re-materialization of both views,
then one query.  Each operation is timed from spawn to exit.

Set-up builds the directory through the library: an N[X] document, the two
views of ``update-stream``, ``compact()``, then a WAL tail of single-tree
updates.  The CLI output of each operation is compared with the rendering
of the same query on the in-process store that built the directory.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import layers
from common import add_counts, peak_rss_mb
from repro.ivm import Delta
from repro.semirings.polynomial import PROVENANCE, Polynomial
from repro.store import DocumentStore
from repro.uxml import to_paper_notation
from repro.workloads import random_forest, random_tree
from update_stream import KINDS, VIEWS

_perf = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Sized so that one process takes 0.45-0.6 s on a 2-vCPU x86 VM, ~0.33 s
#: of it ``import repro.cli``: a 30 s run then holds ~50 processes, enough
#: for a p75 tail with ten samples beyond it.  Every cost above still shows.
TREES = 32
DEPTH = 4
FANOUT = 3
WAL_TAIL = 4
DURABILITY = "none"

QUERIES = (
    "element out { $S/*/d }",
    "$S//c",
    "for $x in $S/a return element hit { ($x)/* }",
)

MIN_PROCESSES = 45

#: Per-process limit; a hung CLI process is killed and counts as failed.
CLI_TIMEOUT_S = 120


class ColdOpen:
    name = "cold-open"
    setup_repeats = 9
    semiring = PROVENANCE
    durability = DURABILITY
    op_kind = "cli"

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.forest = random_forest(PROVENANCE, TREES, DEPTH, FANOUT, seed=rng.randrange(1 << 30))
        self.deltas = self._deltas(rng)
        self.workdir = workdir
        self.setups = 0
        self.directory = ""
        self.store: DocumentStore | None = None
        self.references: Dict[str, str] = {}
        self.steps = 0
        self.checked = 0
        self.mismatches: List[str] = []
        self.cli_counts: Dict[str, int] = {}
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")

    def _deltas(self, rng: random.Random) -> List[Delta]:
        current = self.forest
        deltas = []
        block: List[str] = []
        for number in range(WAL_TAIL):
            if not block:
                block = list(KINDS)
                rng.shuffle(block)
            kind = block.pop()
            token = Polynomial.variable(f"u{number}")
            if kind == "insert":
                tree = random_tree(PROVENANCE, DEPTH, FANOUT, seed=rng.randrange(1 << 30))
                delta = Delta.insertion(PROVENANCE, tree, token)
            else:
                members = sorted(current.items(), key=lambda item: repr(item[0]))
                tree, annotation = members[rng.randrange(len(members))]
                if kind == "delete":
                    delta = Delta.deletion(PROVENANCE, tree, annotation)
                else:
                    delta = Delta.reannotation(PROVENANCE, tree, annotation, annotation + token)
            current = delta.apply_to(current)
            deltas.append(delta)
        return deltas

    # ----------------------------------------------------------------- set-up
    def setup(self) -> None:
        self.store = None  # so that only one store is alive at the peak
        if self.directory:
            shutil.rmtree(self.directory, ignore_errors=True)
        self.directory = os.path.join(self.workdir, f"store-{self.setups}")
        self.setups += 1
        store = DocumentStore(PROVENANCE, self.directory, durability=DURABILITY)
        store.ingest("doc", self.forest)
        for name, text in VIEWS.items():
            store.register_view(name, text, "doc")
        store.compact()
        for delta in self.deltas:
            store.update("doc", delta)
        self.store = store
        self.references = {}

    def sizes(self) -> Dict[str, Any]:
        return {
            "trees": TREES,
            "nodes": len(self.store.columns("doc")),
            "wal_tail_records": WAL_TAIL,
            "views": {name: self.store.view(name).classification for name in VIEWS},
            "queries": len(QUERIES),
        }

    def _reference(self, text: str) -> str:
        if text not in self.references:
            self.references[text] = to_paper_notation(self.store.query(text, "doc")) + "\n"
        return self.references[text]

    # ------------------------------------------------------------------ steps
    def step(self, records: List[tuple]) -> None:
        text = QUERIES[self.steps % len(QUERIES)]
        self.steps += 1
        recorder = layers.active()
        arguments = ["store", "query", "--dir", self.directory, "-q", text]
        spans_file = os.path.join(self.workdir, "spans.json")
        if recorder is None:
            command = [sys.executable, "-m", "repro"] + arguments
        else:
            command = [sys.executable, os.path.join(HERE, "cli_shim.py"), spans_file] + arguments
        started = _perf()
        completed = subprocess.run(
            command, capture_output=True, text=True, cwd=ROOT, env=self.env, timeout=CLI_TIMEOUT_S
        )
        elapsed = _perf() - started
        if completed.returncode != 0:
            raise RuntimeError(f"CLI exited {completed.returncode}: {completed.stderr[-1000:]}")
        records.append(("cli", elapsed * 1000.0, text))
        if recorder is not None:
            with open(spans_file, encoding="utf-8") as handle:
                data = json.load(handle)
            layers.merge(recorder, data["spans"])
            for counts in data["stores"]:
                add_counts(self.cli_counts, counts)
        self.checked += 1
        with layers.paused():
            if completed.stdout != self._reference(text):
                self.mismatches.append(
                    f"CLI output for {text} differs from the in-process reference"
                )

    def verify(self) -> Tuple[int, List[str]]:
        return self.checked, self.mismatches

    # ------------------------------------------------------------- reporting
    def peak_rss(self) -> float:
        return peak_rss_mb(children=True)

    def may_stop(self) -> bool:
        """A run holds at least :data:`MIN_PROCESSES` processes, so that
        its tail is always the p75 (with ten processes beyond it), and a
        whole number of cycles over :data:`QUERIES`."""
        return self.steps >= MIN_PROCESSES and self.steps % len(QUERIES) == 0

    def counts(self) -> Dict[str, int]:
        """The counters of the stores the traced CLI processes opened
        (nothing is observable from an untraced process)."""
        return self.cli_counts

"""Per-member blocks: composing blocks equals a full re-shred, and a one-tree
edit shreds and indexes only the members it touches.

A stored document is one block (columns with local node ids plus a
:class:`StructuralIndex`) per top-level member, in canonical member order.
These tests hold the block path to the flat one it replaced: after every
delta of randomized streams on every registry semiring, the document's
columns equal ``ShreddedColumns.from_forest`` of its forest, block
navigation equals a freshly built flat index and direct evaluation, and a
reopened store equals the live one.  The row-count tests put "a one-tree
edit must not cost O(document)" and "reopen must not cost O(WAL records x
document)" under test without timing anything.
"""

from __future__ import annotations

import random

import pytest

from repro.ivm import Delta
from repro.ivm.delta import apply_sequence
from repro.kcollections import KSet
from repro.obs.trace import tracing
from repro.semirings import NATURAL, PROVENANCE
from repro.semirings.registry import standard_semirings
from repro.shredding.shred import canonical_member_key
from repro.store import DocumentStore, ShreddedColumns, StructuralIndex
from repro.uxml.navigation import apply_axis
from repro.uxml.tree import UTree
from repro.uxquery.ast import Step
from repro.workloads import random_forest, random_tree

#: Child (``/``), descendant (``//``), wildcard and descendant-or-self chains.
CHAINS = [
    (),
    (Step("child", "*"),),
    (Step("child", "a"), Step("child", "*")),
    (Step("child", "*"), Step("child", "*"), Step("child", "*")),
    (Step("descendant", "c"),),
    (Step("descendant", "*"),),
    (Step("descendant-or-self", "*"), Step("child", "c")),
    (Step("descendant-or-self", "b"),),
    (Step("descendant-or-self", "*"), Step("child", "*")),
    (Step("child", "*"), Step("descendant-or-self", "c")),
    (Step("descendant", "b"), Step("descendant", "*")),
    (Step("child", "r"), Step("child", "c")),
]


def _direct(forest: KSet, steps) -> KSet:
    current = forest
    for step in steps:
        current = apply_axis(current, step.axis, step.nodetest)
    return current


def _nonzero_samples(semiring):
    samples = []
    for value in semiring.sample_elements():
        value = semiring.normalize(value)
        if not semiring.is_zero(value) and value not in samples:
            samples.append(value)
    return samples


def _shared_subtree_forest(semiring, seed: int) -> KSet:
    """A random forest plus members that share subtrees: ``x`` and ``y``
    wrap the same subtree value, and an ``r(c^k)`` family differs only in
    one nested annotation (so re-annotating it moves a member)."""
    one = semiring.normalize(semiring.one)
    shared = random_tree(semiring, depth=2, fanout=2, seed=seed + 100)
    leaf = UTree("c", KSet.empty(semiring))
    members = list(random_forest(semiring, num_trees=4, depth=3, fanout=2, seed=seed).items())
    members.append((UTree("x", KSet.singleton(semiring, shared, one)), one))
    members.append((UTree("y", KSet.singleton(semiring, shared, one)), one))
    for value in _nonzero_samples(semiring)[:3]:
        members.append((UTree("r", KSet.singleton(semiring, leaf, value)), one))
    return KSet(semiring, members)


def _canonical(forest: KSet):
    semiring = forest.semiring
    return sorted(
        forest.items(), key=lambda item: canonical_member_key(item[0], item[1], semiring)
    )


def _renest(tree: UTree, annotation) -> UTree:
    """``tree`` with the annotation of its first (canonical) child replaced."""
    semiring = tree.children.semiring
    child, _ = _canonical(tree.children)[0]
    items = dict(tree.children.items())
    items[child] = annotation
    return UTree(tree.label, KSet(semiring, items))


def _random_delta(semiring, document: KSet, rng: random.Random, counter: list) -> Delta:
    """One delta of the stream, drawn from every shape the block path must
    handle; all deltas apply under every semiring."""
    samples = _nonzero_samples(semiring)
    members = _canonical(document)
    kinds = ["insert"]
    if members:
        kinds += ["reinsert", "delete", "delete-first", "delete-last", "reannotate"]
        if any(len(tree.children) for tree, _ in members):
            kinds.append("renest")
        if semiring == NATURAL and any(annotation > 1 for _, annotation in members):
            kinds.append("partial-delete")
    kind = rng.choice(kinds)
    if kind == "insert":
        counter[0] += 1
        tree = random_tree(semiring, depth=2, fanout=2, seed=5000 + counter[0])
        return Delta.insertion(semiring, tree, rng.choice(samples))
    if kind == "reinsert":  # an existing member: the annotations add
        tree, _ = rng.choice(members)
        return Delta.insertion(semiring, tree, rng.choice(samples))
    if kind == "partial-delete":
        tree, annotation = rng.choice([m for m in members if m[1] > 1])
        return Delta.deletion(semiring, tree, rng.randrange(1, annotation))
    if kind.startswith("delete"):
        tree, annotation = {
            "delete": rng.choice(members),
            "delete-first": members[0],
            "delete-last": members[-1],
        }[kind]
        return Delta.deletion(semiring, tree, annotation)
    if kind == "reannotate":
        tree, annotation = rng.choice(members)
        return Delta.reannotation(semiring, tree, annotation, rng.choice(samples))
    # A nested re-annotation changes the member's canonical key: the old
    # tree leaves and the re-annotated one lands elsewhere in the order.
    tree, annotation = rng.choice([m for m in members if len(m[0].children)])
    moved = _renest(tree, rng.choice(samples))
    return Delta.deletion(semiring, tree, annotation) | Delta.insertion(semiring, moved, annotation)


def _assert_composition(store: DocumentStore, directory, reference: KSet) -> None:
    forest = store.forest("doc")
    assert forest == reference
    flat_columns = ShreddedColumns.from_forest(forest)
    assert store.columns("doc") == flat_columns
    stored = store.document("doc")
    keys = [block.key for block in stored.index.blocks]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    flat = StructuralIndex(flat_columns)
    for chain in CHAINS:
        blocked = stored.index.navigate(chain, use_cache=False)
        assert blocked == flat.navigate(chain, use_cache=False), chain
        assert blocked == _direct(forest, chain), chain
    reopened = DocumentStore.open(directory)
    assert reopened.columns("doc") == store.columns("doc")
    assert reopened.forest("doc") == forest
    assert reopened.view("hits").result == store.view("hits").result


class TestBlockComposition:
    @pytest.mark.parametrize("seed", range(2))
    def test_random_streams_match_full_reshred(self, tmp_path, seed):
        for position, semiring in enumerate(standard_semirings()):
            rng = random.Random(seed * 7919 + position)
            directory = tmp_path / f"{position}-{seed}"
            store = DocumentStore(semiring, directory=directory)
            reference = _shared_subtree_forest(semiring, seed)
            store.ingest("doc", reference)
            store.register_view("hits", "$S//c", "doc")
            counter = [0]
            compact_at = rng.randrange(10)
            for step in range(10):
                if step == compact_at:
                    store.compact()
                delta = _random_delta(semiring, reference, rng, counter)
                store.update("doc", delta)
                reference = apply_sequence(reference, [delta])
                _assert_composition(store, directory, reference)

    @pytest.mark.parametrize("semiring", [NATURAL, PROVENANCE], ids=lambda s: s.name)
    def test_nested_reannotation_moves_the_block(self, tmp_path, semiring):
        store = DocumentStore(semiring, directory=tmp_path / "s")
        forest = _shared_subtree_forest(semiring, seed=3)
        store.ingest("doc", forest)
        store.register_view("hits", "$S//c", "doc")
        first = next(tree for tree, _ in _canonical(forest) if tree.label == "r")
        samples = _nonzero_samples(semiring)
        moved = _renest(first, samples[-1])
        before = [block.tree for block in store.document("doc").index.blocks]
        delta = Delta.deletion(semiring, first, forest.annotation(first)) | Delta.insertion(
            semiring, moved, forest.annotation(first)
        )
        store.update("doc", delta)
        after = [block.tree for block in store.document("doc").index.blocks]
        assert after.index(moved) != before.index(first)
        _assert_composition(store, tmp_path / "s", apply_sequence(forest, [delta]))

    @pytest.mark.parametrize("layout", ["reversed", "duplicate-root"])
    def test_non_canonical_columns_are_reshredded_on_first_update(self, tmp_path, layout):
        """Columns the store never writes itself — members out of canonical
        order, or one member value split over two roots — still load as
        written, and the first update puts the document in canonical form."""
        from repro.store.snapshot import write_snapshot

        forest = random_forest(NATURAL, num_trees=5, depth=3, fanout=2, seed=8)
        parts = ShreddedColumns.from_forest(forest).split_members()
        parts = parts[::-1] if layout == "reversed" else parts + parts[:1]
        columns = ShreddedColumns.concat(NATURAL, parts)
        directory = tmp_path / "s"
        DocumentStore(NATURAL, directory=directory)
        write_snapshot(
            directory / "snapshot.json", semiring_name="natural", wal_lsn=0,
            documents={"doc": columns}, views=[],
        )
        store = DocumentStore.open(directory)
        assert store.columns("doc") == columns
        reference = columns.forest()
        assert store.forest("doc") == reference
        store.register_view("hits", "$S//c", "doc")
        tree, annotation = _canonical(reference)[0]
        delta = Delta.deletion(NATURAL, tree, annotation)
        store.update("doc", delta)
        _assert_composition(store, directory, apply_sequence(reference, [delta]))

    def test_empty_document_gains_and_loses_its_only_member(self, tmp_path):
        store = DocumentStore(NATURAL, directory=tmp_path / "s")
        store.ingest("doc", KSet.empty(NATURAL))
        store.register_view("hits", "$S//c", "doc")
        assert store.document("doc").index.blocks == ()
        tree = random_tree(NATURAL, depth=2, fanout=2, seed=6)
        reference = KSet.empty(NATURAL)
        for delta in (Delta.insertion(NATURAL, tree, 2), Delta.deletion(NATURAL, tree, 2)):
            store.update("doc", delta)
            reference = apply_sequence(reference, [delta])
            _assert_composition(store, tmp_path / "s", reference)
        assert len(store.columns("doc")) == 0

    def test_partial_delete_on_natural(self, tmp_path):
        store = DocumentStore(NATURAL, directory=tmp_path / "s")
        tree = random_tree(NATURAL, depth=2, fanout=2, seed=4)
        forest = KSet(NATURAL, [(tree, 5), (random_tree(NATURAL, depth=2, fanout=2, seed=5), 1)])
        store.ingest("doc", forest)
        store.register_view("hits", "$S//c", "doc")
        delta = Delta.deletion(NATURAL, tree, 3)
        store.update("doc", delta)
        assert store.forest("doc").annotation(tree) == 2
        _assert_composition(store, tmp_path / "s", apply_sequence(forest, [delta]))


# ---------------------------------------------------------------------------
# O(change): rows reaching shredding and index construction
# ---------------------------------------------------------------------------
class _RowMeter:
    """Counts the rows of every ``ShreddedColumns`` and ``StructuralIndex``
    constructed while installed."""

    def __init__(self, monkeypatch):
        self.columns = 0
        self.index = 0
        self.indexes = 0
        columns_init = ShreddedColumns.__init__
        index_init = StructuralIndex.__init__
        meter = self

        def count_columns(self, semiring, pid, *rest):
            meter.columns += len(pid)
            columns_init(self, semiring, pid, *rest)

        def count_index(self, columns, *rest):
            meter.index += len(columns)
            meter.indexes += 1
            index_init(self, columns, *rest)

        monkeypatch.setattr(ShreddedColumns, "__init__", count_columns)
        monkeypatch.setattr(StructuralIndex, "__init__", count_index)

    def reset(self) -> None:
        self.columns = self.index = self.indexes = 0


def _size(tree: UTree) -> int:
    return 1 + sum(_size(child) for child in tree.children)


class TestChangeProportionalCost:
    TREES = 384

    def test_single_tree_edits_build_only_touched_rows(self, monkeypatch):
        forest = random_forest(NATURAL, num_trees=self.TREES, depth=3, fanout=2, seed=21)
        store = DocumentStore(NATURAL)
        store.ingest("doc", forest)
        assert len(store.document("doc").index.blocks) == self.TREES
        meter = _RowMeter(monkeypatch)
        members = _canonical(forest)
        new_tree = random_tree(NATURAL, depth=3, fanout=2, seed=22)
        victim, victim_annotation = members[len(members) // 2]
        target, target_annotation = members[7]
        edits = [
            (Delta.insertion(NATURAL, new_tree, 2), _size(new_tree)),
            (Delta.deletion(NATURAL, victim, victim_annotation), 0),
            (Delta.reannotation(NATURAL, target, target_annotation, target_annotation + 1),
             _size(target)),
        ]
        for delta, touched_rows in edits:
            old_blocks = store.document("doc").index.blocks
            meter.reset()
            store.update("doc", delta)
            assert meter.columns == touched_rows
            assert meter.index == touched_rows
            new_blocks = store.document("doc").index.blocks
            kept = {id(block) for block in old_blocks} & {id(block) for block in new_blocks}
            # Every untouched block object is reused as is.
            assert len(kept) == len(new_blocks) - (1 if touched_rows else 0)
        assert store.columns("doc") == ShreddedColumns.from_forest(store.forest("doc"))

    def test_reopen_builds_snapshot_blocks_once_plus_the_tail(self, tmp_path, monkeypatch):
        forest = random_forest(NATURAL, num_trees=self.TREES, depth=3, fanout=2, seed=23)
        store = DocumentStore(NATURAL, directory=tmp_path / "s")
        store.ingest("doc", forest)
        store.compact()
        snapshot_rows = len(store.columns("doc"))
        members = _canonical(forest)
        inserted = random_tree(NATURAL, depth=3, fanout=2, seed=24)
        target, annotation = members[-1]
        tail = [
            Delta.insertion(NATURAL, inserted, 1),
            Delta.reannotation(NATURAL, target, annotation, annotation + 2),
            Delta.deletion(NATURAL, members[0][0], members[0][1]),
            Delta.insertion(NATURAL, members[5][0], 1),
        ]
        for delta in tail:
            store.update("doc", delta)
        meter = _RowMeter(monkeypatch)
        reopened = DocumentStore.open(tmp_path / "s")
        assert reopened.stats().recovered_records == len(tail)
        member_blocks = meter.indexes - self.TREES
        assert member_blocks <= len(tail)
        assert meter.index == snapshot_rows + _size(inserted) + _size(target) + _size(
            members[5][0]
        )
        assert reopened.columns("doc") == store.columns("doc")


# ---------------------------------------------------------------------------
# Spans of the write path and recovery
# ---------------------------------------------------------------------------
class TestWriteSpans:
    def test_update_and_reopen_spans(self, tmp_path):
        store = DocumentStore(NATURAL, directory=tmp_path / "s")
        forest = random_forest(NATURAL, num_trees=3, depth=2, fanout=2, seed=30)
        store.ingest("doc", forest)
        store.register_view("hits", "$S//c", "doc")
        store.compact()
        tree = random_tree(NATURAL, depth=2, fanout=2, seed=31)
        with tracing() as tracer:
            store.update("doc", Delta.insertion(NATURAL, tree, 1))
        spans = {span.name: span for span in tracer.spans}
        update = spans["store.update"]
        for child in ("delta", "wal", "blocks", "views"):
            assert spans[f"store.update.{child}"].parent_id == update.span_id, child

        with tracing() as tracer:
            DocumentStore.open(tmp_path / "s")
        names = [span.name for span in tracer.spans]
        assert "store.open.snapshot" in names
        assert "store.open.replay" in names
        # The replayed update runs through the same block path.
        assert "store.update.blocks" in names

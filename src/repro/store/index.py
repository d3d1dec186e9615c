"""Structural indexes over shredded columns: navigation as lookups.

Three indexes turn the XPath step semantics of Section 7 into dictionary
and interval operations instead of tree walks or Datalog fixpoints:

* the **label index** ``label -> sorted nids`` (and the sorted list of all
  nids for the wildcard test);
* the **child index** ``(pid, label) -> child nids`` (plus ``pid -> child
  nids`` for wildcard child steps);
* the **interval index**: node identifiers are allocated in depth-first
  pre-order by the deterministic shredder, so the descendants of a node
  ``a`` are exactly the nids in the interval ``(a, subtree_end[a]]`` — a
  descendant (``//``) step is two :func:`bisect.bisect_right` calls on a
  label-index list instead of the transitive closure ``Reach`` the Datalog
  translation computes.

Annotation bookkeeping — the part that makes this *exact* for every
commutative semiring — rides on one precomputed column: ``prefix[n]``, the
product of the membership annotations along the path from the top-level root
down to ``n`` (inclusive).  Navigation per the paper's semantics annotates a
step result with the sum, over all witnessing paths, of the path products;
since data is a tree, every contribution via a frontier node ``a`` to a node
``d`` below it equals ``prefix[d]``, so a navigation frontier never needs
semiring arithmetic at all: it is a map ``nid -> natural-number multiplicity``
(how many witnessing frontier ancestors contribute), and the final
annotation of ``d`` is ``from_int(count) * prefix[d]``.  Equality with the
direct, NRC and Datalog semantics is asserted by ``tests/store`` for every
registry semiring.

The index also materializes every node's subtree as a shared
:class:`~repro.uxml.tree.UTree` (built bottom-up in one pass), so producing
a navigation result costs only the matched nodes, not a document walk.

A stored document is indexed **per member**: its top-level (tree,
annotation) members are disjoint trees, so each is kept as a
:class:`MemberBlock` — its own columns with local node ids and a
:class:`StructuralIndex` over them — and a :class:`DocumentIndex` over the
blocks, in :func:`~repro.shredding.shred.canonical_member_key` order,
answers for the document.  Navigation runs the frontier code once per block
(skipping blocks that lack a label the chain tests) and sums the blocks'
results, which is exactly the flat index's answer: every witnessing path
stays inside one member.  An update replaces only the blocks of the members
it touches, so a one-tree edit costs one member's shredding and indexing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import StoreError
from repro.kcollections.kset import KSet
from repro.semirings.base import Semiring
from repro.shredding.shred import ROOT_PID, canonical_member_key
from repro.store.columns import ShreddedColumns
from repro.uxml.tree import UTree
from repro.uxquery.ast import Step

__all__ = ["StructuralIndex", "MemberBlock", "DocumentIndex"]

#: Axes servable from the structural indexes (the downward fragment).
SUPPORTED_AXES = ("self", "child", "descendant", "descendant-or-self")

WILDCARD = "*"


class StructuralIndex:
    """Label, child and pre/post-order interval indexes over one set of columns."""

    __slots__ = (
        "semiring",
        "columns",
        "label_of",
        "annot_of",
        "parent_of",
        "children_of",
        "child_index",
        "label_to_nids",
        "all_nids",
        "subtree_end",
        "prefix",
        "trees",
        "roots",
        "_forest",
        "_nav_cache",
        "nav_hits",
        "nav_misses",
    )

    #: Bound on memoized navigation results per index (small: a serving
    #: workload repeats a handful of hot chains).
    NAV_CACHE_SIZE = 64

    def __init__(self, columns: ShreddedColumns, intern: Dict[UTree, UTree] | None = None):
        """Index ``columns``; ``intern`` is a subtree-value table to share
        with other indexes (the blocks of one document), so equal subtrees
        of different blocks are one object too."""
        self.semiring = columns.semiring
        self.columns = columns
        semiring = self.semiring
        normalize_products = not semiring.ops_preserve_normal_form

        label_of: Dict[Any, str] = {}
        annot_of: Dict[Any, Any] = {}
        parent_of: Dict[Any, Any] = {}
        children_of: Dict[Any, List[Any]] = {}
        child_index: Dict[Tuple[Any, str], List[Any]] = {}
        label_to_nids: Dict[str, List[Any]] = {}
        all_nids: List[Any] = []
        prefix: Dict[Any, Any] = {}
        roots: List[Any] = []

        order: List[Any] = []  # nids in storage (pre-)order
        for pid, nid, label, annotation in columns.rows():
            if nid in label_of:
                raise StoreError(f"duplicate node id {nid!r} in shredded columns")
            label_of[nid] = label
            annot_of[nid] = annotation
            parent_of[nid] = pid
            order.append(nid)
            all_nids.append(nid)
            label_to_nids.setdefault(label, []).append(nid)
            if pid == ROOT_PID:
                roots.append(nid)
                prefix[nid] = annotation
            else:
                parent_prefix = prefix.get(pid)
                if parent_prefix is None:
                    raise StoreError(
                        f"row for node {nid!r} precedes its parent {pid!r} "
                        "(columns are not in shredding order)"
                    )
                product = semiring.mul(parent_prefix, annotation)
                prefix[nid] = semiring.normalize(product) if normalize_products else product
                children_of.setdefault(pid, []).append(nid)
                child_index.setdefault((pid, label), []).append(nid)

        # Pre-order allocation makes every nid list above ascending; the
        # interval index and the bisect lookups below rely on it.
        for nids in label_to_nids.values():
            if any(nids[i] >= nids[i + 1] for i in range(len(nids) - 1)):
                raise StoreError("node ids are not ascending in storage order")

        # Reverse pre-order visits children before parents: one pass computes
        # subtree intervals and builds every node's (shared) subtree value.
        # Equal subtree values are *interned* to one object, so merging equal
        # members during result materialization hits the dict identity fast
        # path instead of deep structural comparison.
        subtree_end: Dict[Any, Any] = {}
        subtree_size: Dict[Any, int] = {}
        trees: Dict[Any, UTree] = {}
        if intern is None:
            intern = {}
        for nid in reversed(order):
            end = subtree_end.setdefault(nid, nid)
            size = 1 + sum(subtree_size[child] for child in children_of.get(nid, ()))
            subtree_size[nid] = size
            # The interval index is sound only for dense DFS pre-order ids:
            # a subtree must occupy exactly the interval [nid, nid + size).
            # This rejects e.g. BFS-ordered caller-supplied columns, whose
            # intervals would silently cover unrelated siblings.
            try:
                expected_end = nid + size - 1
            except TypeError:
                raise StoreError(f"node ids must be integers, got {nid!r}") from None
            if end != expected_end:
                raise StoreError(
                    f"node ids are not a depth-first pre-order: subtree of "
                    f"{nid!r} spans ids up to {end!r} but has {size} node(s)"
                )
            members = [(trees[child], annot_of[child]) for child in children_of.get(nid, ())]
            if semiring.ops_preserve_normal_form:
                children = KSet._accumulate_normalized(semiring, members)
            else:
                children = KSet(semiring, members)
            tree = UTree(label_of[nid], children)
            trees[nid] = intern.setdefault(tree, tree)
            pid = parent_of[nid]
            if pid != ROOT_PID:
                parent_end = subtree_end.setdefault(pid, pid)
                if end > parent_end:
                    subtree_end[pid] = end

        self.label_of = label_of
        self.annot_of = annot_of
        self.parent_of = parent_of
        self.children_of = children_of
        self.child_index = child_index
        self.label_to_nids = label_to_nids
        self.all_nids = all_nids
        self.subtree_end = subtree_end
        self.prefix = prefix
        self.trees = trees
        self.roots = roots
        self._forest: KSet | None = None
        self._nav_cache: Dict[Tuple[Step, ...], KSet] = {}
        self.nav_hits = 0
        self.nav_misses = 0

    # ----------------------------------------------------------------- access
    def forest(self) -> KSet:
        """The stored document as a K-set of trees (cached; equals unshred)."""
        cached = self._forest
        if cached is None:
            members = [(self.trees[nid], self.annot_of[nid]) for nid in self.roots]
            cached = KSet._accumulate_normalized(self.semiring, members)
            self._forest = cached
        return cached

    def node_count(self) -> int:
        return len(self.all_nids)

    def labels(self) -> frozenset:
        """The distinct node labels."""
        return frozenset(self.label_to_nids)

    # ------------------------------------------------------------- navigation
    def navigate(self, steps: Sequence[Step], use_cache: bool = True) -> KSet:
        """Evaluate a downward step chain against the indexes.

        The result is exactly the paper's navigation semantics (direct, NRC
        and Datalog agree on it): a K-set of the matched nodes' subtrees,
        each annotated with the sum over witnessing paths of the path
        products.  An empty chain returns the whole document.

        Results are memoized per chain: an index never changes (an update
        gives the document a new index object with a fresh memo), so cached
        navigation never goes stale.  ``use_cache=False`` bypasses the memo
        (benchmarks measuring the raw index path).
        """
        key = tuple(steps)
        if use_cache:
            cached = self._nav_cache.get(key)
            if cached is not None:
                self.nav_hits += 1
                return cached
            self.nav_misses += 1
        pairs = self._navigation_pairs(_fuse_steps(key))
        result = KSet._accumulate_normalized(self.semiring, pairs)
        if use_cache and len(self._nav_cache) < self.NAV_CACHE_SIZE:
            self._nav_cache[key] = result
        return result

    def _navigation_pairs(self, steps: Sequence[Step]) -> List[Tuple[UTree, Any]]:
        """The ``(subtree, annotation)`` pairs a fused step chain yields."""
        frontier: Dict[Any, int] = dict.fromkeys(self.roots, 1)
        for step in steps:
            if not frontier:
                return []
            frontier = self._apply_step(frontier, step)
        return self._materialize(frontier)

    def _apply_step(self, frontier: Dict[Any, int], step: Step) -> Dict[Any, int]:
        axis, nodetest = step.axis, step.nodetest
        result: Dict[Any, int] = {}
        if axis == "self":
            label_of = self.label_of
            for nid, count in frontier.items():
                if nodetest == WILDCARD or label_of[nid] == nodetest:
                    result[nid] = result.get(nid, 0) + count
            return result
        if axis == "child":
            if nodetest == WILDCARD:
                children_of = self.children_of
                for nid, count in frontier.items():
                    for child in children_of.get(nid, ()):
                        result[child] = result.get(child, 0) + count
            else:
                child_index = self.child_index
                for nid, count in frontier.items():
                    for child in child_index.get((nid, nodetest), ()):
                        result[child] = result.get(child, 0) + count
            return result
        if axis in ("descendant", "descendant-or-self"):
            include_self = axis == "descendant-or-self"
            label_of = self.label_of
            candidates = (
                self.all_nids if nodetest == WILDCARD else self.label_to_nids.get(nodetest, ())
            )
            subtree_end = self.subtree_end
            for nid, count in frontier.items():
                if include_self and (nodetest == WILDCARD or label_of[nid] == nodetest):
                    result[nid] = result.get(nid, 0) + count
                # Interval containment: descendants of nid are (nid, end].
                start = bisect_right(candidates, nid)
                stop = bisect_right(candidates, subtree_end[nid], lo=start)
                for matched in candidates[start:stop]:
                    result[matched] = result.get(matched, 0) + count
            return result
        raise StoreError(
            f"axis {axis!r} is not servable from the structural indexes; "
            f"supported: {SUPPORTED_AXES}"
        )

    def _materialize(self, frontier: Dict[Any, int]) -> List[Tuple[UTree, Any]]:
        """The frontier's ``(subtree, annotation)`` pairs, zero products dropped."""
        semiring = self.semiring
        trees = self.trees
        prefix = self.prefix
        pairs = []
        for nid, count in frontier.items():
            annotation = prefix[nid]
            if count != 1:
                annotation = semiring.mul(
                    semiring.normalize(semiring.from_int(count)), annotation
                )
                annotation = semiring.normalize(annotation)
            if semiring.is_zero(annotation):
                continue  # annihilated path products drop out, as in unshred
            pairs.append((trees[nid], annotation))
        return pairs

    # ------------------------------------------------------------- statistics
    def count_label(self, label: str) -> int:
        """How many nodes carry ``label`` (an O(1) index probe)."""
        return len(self.label_to_nids.get(label, ()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<StructuralIndex {len(self.all_nids)} nodes, "
            f"{len(self.label_to_nids)} labels over {self.semiring.name}>"
        )


class MemberBlock:
    """One top-level ``(tree, annotation)`` member, shredded and indexed alone.

    The columns carry *local* node ids ``1..n`` (the member's root is ``1``,
    its row the only ``ROOT_PID`` row), so a block never depends on the
    members before it: the document's flat columns are the blocks'
    concatenation with nid offsets (:meth:`ShreddedColumns.concat`).  The
    member's :func:`~repro.shredding.shred.canonical_member_key` orders
    blocks within a document; it is computed on first use for blocks split
    from stored columns.
    """

    __slots__ = ("columns", "index", "tree", "annotation", "size", "_key")

    def __init__(self, columns: ShreddedColumns, intern: Dict[UTree, UTree], key: Any = None):
        index = StructuralIndex(columns, intern)
        if len(index.roots) != 1:
            raise StoreError(
                f"a member block holds exactly one top-level tree, got {len(index.roots)}"
            )
        root = index.roots[0]
        self.columns = columns
        self.index = index
        self.tree: UTree = index.trees[root]
        self.annotation: Any = index.annot_of[root]
        self.size = len(columns)
        self._key = key

    @classmethod
    def from_member(
        cls, tree: UTree, annotation: Any, semiring: Semiring, intern: Dict[UTree, UTree]
    ) -> "MemberBlock":
        """Shred and index one member."""
        columns = ShreddedColumns.from_forest(KSet.singleton(semiring, tree, annotation))
        return cls(columns, intern, canonical_member_key(tree, annotation, semiring))

    @property
    def key(self) -> Any:
        """The member's canonical ordering key."""
        if self._key is None:
            self._key = canonical_member_key(self.tree, self.annotation, self.index.semiring)
        return self._key

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MemberBlock {self.size} rows, root {self.tree.label!r}>"


class DocumentIndex(StructuralIndex):
    """A document's index: one :class:`StructuralIndex` per member block.

    It offers the public surface of a :class:`StructuralIndex` over the
    document's flat columns — :meth:`navigate` with its memo and counters,
    :meth:`forest`, :meth:`node_count`, :meth:`count_label`,
    :meth:`labels` — but holds no flat maps of its own: navigation sums the
    per-block answers.  Immutable, like the blocks it shares with the
    document's earlier and later versions.  ``intern`` is the subtree-value
    table the blocks were built with; blocks added by an update intern into
    it too, so the identity fast path of result merging works across
    blocks.
    """

    __slots__ = ("blocks", "intern")

    def __init__(
        self, semiring: Semiring, blocks: Sequence[MemberBlock], intern: Dict[UTree, UTree]
    ):
        # Deliberately not StructuralIndex.__init__: the blocks are the index.
        self.semiring = semiring
        self.blocks = tuple(blocks)
        self.intern = intern
        self._forest: KSet | None = None
        self._nav_cache: Dict[Tuple[Step, ...], KSet] = {}
        self.nav_hits = 0
        self.nav_misses = 0

    # ----------------------------------------------------------------- access
    def forest(self) -> KSet:
        """The document as a K-set of trees (cached; equals unshred)."""
        cached = self._forest
        if cached is None:
            members = [(block.tree, block.annotation) for block in self.blocks]
            cached = KSet._accumulate_normalized(self.semiring, members)
            self._forest = cached
        return cached

    def node_count(self) -> int:
        return sum(block.size for block in self.blocks)

    def count_label(self, label: str) -> int:
        """How many nodes carry ``label`` (one probe per block)."""
        return sum(block.index.count_label(label) for block in self.blocks)

    def labels(self) -> frozenset:
        """The distinct node labels."""
        return frozenset().union(*(block.index.label_to_nids for block in self.blocks))

    # ------------------------------------------------------------- navigation
    def _navigation_pairs(self, steps: Sequence[Step]) -> List[Tuple[UTree, Any]]:
        # A block without some label the chain tests matches nothing.  Only
        # steps before the first unservable axis count, so a block whose
        # frontier would reach that step still raises the flat index's error.
        required = []
        for step in steps:
            if step.axis not in SUPPORTED_AXES:
                break
            if step.nodetest != WILDCARD:
                required.append(step.nodetest)
        pairs: List[Tuple[UTree, Any]] = []
        for block in self.blocks:
            index = block.index
            present = index.label_to_nids
            for label in required:
                if label not in present:
                    break
            else:
                pairs.extend(index._navigation_pairs(steps))
        return pairs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<DocumentIndex {len(self.blocks)} blocks, {self.node_count()} nodes "
            f"over {self.semiring.name}>"
        )


def _fuse_steps(steps: Sequence[Step]) -> list[Step]:
    """Peephole: ``descendant-or-self::*/child::nt`` is ``descendant::nt``.

    The parser expands the ``//nt`` shorthand into that two-step form; fusing
    it back turns the full-frontier expansion of ``descendant-or-self::*``
    into a single interval probe per frontier node.  Exact because the two
    chains witness the same paths: a child of a self-or-descendant of ``a``
    is precisely a strict descendant of ``a`` (each with its unique parent).
    """
    fused: list[Step] = []
    index = 0
    steps = list(steps)
    while index < len(steps):
        step = steps[index]
        if (
            step.axis == "descendant-or-self"
            and step.nodetest == WILDCARD
            and index + 1 < len(steps)
            and steps[index + 1].axis == "child"
        ):
            fused.append(Step("descendant", steps[index + 1].nodetest))
            index += 2
            continue
        fused.append(step)
        index += 1
    return fused

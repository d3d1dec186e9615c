"""Random well-typed NRC_K expression generator for the differential fuzz gate.

:func:`random_expr` builds a forest-valued NRC_K + srt expression over a free
forest variable ``$S``, type-directed so every generated program is well
typed: label positions get labels, tree positions trees, collection positions
K-sets of trees (plus an occasional K-set of labels for variety).  The
generator covers every node kind — singleton, union, scaling by semiring
sample elements, big unions with shadowing-prone variable reuse,
conditionals, pairs with projections, tree construction/destructuring, lets —
and ``srt`` structural recursion (rare by default, frequent with
``srt_probability=0.5``), whose generated recursive function and memo tables
the codegen evaluator must get exactly right.

The generated expressions are the input of ``tests/nrc/test_codegen_fuzz.py``:
every expression is evaluated by the reference interpreter and by the
source-codegen evaluator, and the two results are asserted exactly equal for
every registry semiring.
"""

from __future__ import annotations

import random

from repro.nrc.ast import (
    BigUnion,
    EmptySet,
    Expr,
    IfEq,
    Kids,
    LabelLit,
    Let,
    PairExpr,
    Proj,
    Scale,
    Singleton,
    Srt,
    Tag,
    TreeExpr,
    Union,
    Var,
)
from repro.semirings.base import Semiring

__all__ = ["random_expr"]

LABELS = ("a", "b", "c", "d")

#: Variable kinds tracked by the scope (the generator's little type system).
LABEL, TREE, FOREST = "label", "tree", "forest"


class _Gen:
    def __init__(self, semiring: Semiring, rng: random.Random, srt_probability: float):
        self.semiring = semiring
        self.rng = rng
        self.srt_probability = srt_probability
        self._counter = 0
        #: (name, kind) pairs; later entries shadow earlier ones on purpose —
        #: names are drawn from a small pool so shadowing actually happens.
        self.scope: list[tuple[str, str]] = []

    # --------------------------------------------------------------- helpers
    def fresh_name(self) -> str:
        # A tiny name pool maximizes shadowing and sibling-scope reuse, the
        # binder shapes whose slot/local allocation must be exactly right.
        self._counter += 1
        return f"v{self._counter % 3}"

    def vars_of(self, kind: str) -> list[str]:
        names = []
        seen = set()
        for name, var_kind in reversed(self.scope):
            if name in seen:
                continue  # shadowed
            seen.add(name)
            if var_kind == kind:
                names.append(name)
        return names

    def scalar(self):
        return self.rng.choice(list(self.semiring.sample_elements()))

    # -------------------------------------------------------------- by kind
    def label(self, depth: int) -> Expr:
        candidates = self.vars_of(LABEL)
        roll = self.rng.random()
        if candidates and roll < 0.3:
            return Var(self.rng.choice(candidates))
        if depth > 0 and roll < 0.45:
            return Tag(self.tree(depth - 1))
        if depth > 0 and roll < 0.55:
            return IfEq(
                self.label(depth - 1),
                self.label(depth - 1),
                self.label(depth - 1),
                self.label(depth - 1),
            )
        if depth > 0 and roll < 0.62:
            return Proj(1, PairExpr(self.label(depth - 1), self.label(depth - 1)))
        return LabelLit(self.rng.choice(LABELS))

    def tree(self, depth: int) -> Expr:
        candidates = self.vars_of(TREE)
        roll = self.rng.random()
        if candidates and roll < 0.55:
            return Var(self.rng.choice(candidates))
        if depth > 0 and roll < 0.62:
            return Proj(2, PairExpr(self.label(depth - 1), self.tree(depth - 1)))
        if depth > 0:
            return TreeExpr(self.label(depth - 1), self.forest(depth - 1))
        if candidates:
            return Var(self.rng.choice(candidates))
        return TreeExpr(LabelLit(self.rng.choice(LABELS)), EmptySet())

    def forest(self, depth: int) -> Expr:
        roll = self.rng.random()
        if depth <= 0:
            candidates = self.vars_of(FOREST)
            if candidates and roll < 0.5:
                return Var(self.rng.choice(candidates))
            if roll < 0.75:
                return Singleton(self.tree(0))
            return EmptySet()
        if roll < 0.08:
            return EmptySet()
        if roll < 0.2:
            candidates = self.vars_of(FOREST)
            if candidates:
                return Var(self.rng.choice(candidates))
            return Singleton(self.tree(depth - 1))
        if roll < 0.34:
            return Singleton(self.tree(depth - 1))
        if roll < 0.46:
            return Union(self.forest(depth - 1), self.forest(depth - 1))
        if roll < 0.54:
            return Scale(self.scalar(), self.forest(depth - 1))
        if roll < 0.62:
            return Kids(self.tree(depth - 1))
        if roll < 0.7:
            return IfEq(
                self.label(depth - 1),
                self.label(depth - 1),
                self.forest(depth - 1),
                self.forest(depth - 1),
            )
        if roll < 0.78:
            kind = self.rng.choice((LABEL, TREE, FOREST))
            value = {LABEL: self.label, TREE: self.tree, FOREST: self.forest}[kind](depth - 1)
            name = self.fresh_name()
            self.scope.append((name, kind))
            try:
                body = self.forest(depth - 1)
            finally:
                self.scope.pop()
            return Let(name, value, body)
        if roll < 0.78 + self.srt_probability:
            return self.srt(depth)
        # Big union: U(x in forest) forest-body, the fused-loop workhorse.
        source = self.forest(depth - 1)
        name = self.fresh_name()
        self.scope.append((name, TREE))
        try:
            body = self.forest(depth - 1)
        finally:
            self.scope.pop()
        return BigUnion(name, source, body)

    def srt(self, depth: int) -> Expr:
        """A forest-valued structural recursion (rebuilds/relabels subtrees).

        The body is forest-valued, so the accumulator is a K-set *of
        forests* (one per child's recursive result); it is flattened with a
        big union before becoming the children of the rebuilt node.  The
        accumulator variable is deliberately kept out of the random scope —
        its kind ({forest}) has no place in the generator's type system.
        """
        target = self.tree(depth - 1)
        label_var = self.fresh_name()
        acc_var = f"acc{self._counter % 2}"
        self.scope.append((label_var, LABEL))
        try:
            extra = self.forest(min(depth - 1, 1))
        finally:
            self.scope.pop()
        flattened = BigUnion("z", Var(acc_var), Var("z"))
        body = Union(Singleton(TreeExpr(Var(label_var), flattened)), extra)
        return Srt(label_var, acc_var, body, target)


def random_expr(
    semiring: Semiring,
    seed: int,
    max_depth: int = 4,
    srt_probability: float = 0.08,
) -> Expr:
    """A random, well-typed, forest-valued expression over the free ``$S``."""
    # String seeds hash stably across processes (unlike str.__hash__ under
    # PYTHONHASHSEED), so failures reproduce from the reported seed.
    rng = random.Random(f"{seed}:{semiring.name}")
    generator = _Gen(semiring, rng, srt_probability)
    generator.scope.append(("S", FOREST))
    return generator.forest(max_depth)

"""Difference pairs: the ``(pos, neg)`` change record of an annotation.

A document update that deletes or re-annotates a member is the formal
difference of what is added and what is taken away.  :class:`DiffPair`
records the two parts side by side, both elements of the document's semiring
``K``: :class:`~repro.ivm.delta.Delta` keeps one pair per changed member, and
the write-ahead log (:mod:`repro.store.wal`) stores ``pos`` and ``neg``
separately.  Pairs are never multiplied — a linear delta plan runs over
``K`` on each part alone (:mod:`repro.ivm.view`) — so no semiring is
defined on them.

Equality is **pairwise**, not difference-equivalence: ``(a + c, c)`` and
``(a, 0)`` are distinct pairs.
"""

from __future__ import annotations

from typing import Any

__all__ = ["DiffPair"]


class DiffPair:
    """A change ``pos - neg`` over a base semiring, kept as two parts."""

    __slots__ = ("pos", "neg")

    def __init__(self, pos: Any, neg: Any):
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffPair):
            return NotImplemented
        return self.pos == other.pos and self.neg == other.neg

    def __hash__(self) -> int:
        return hash((DiffPair, self.pos, self.neg))

    def __repr__(self) -> str:
        return f"DiffPair({self.pos!r}, {self.neg!r})"

    def __setattr__(self, name: str, value: Any) -> None:  # pragma: no cover - safety
        raise AttributeError("DiffPair instances are immutable")

    def __reduce__(self):
        # The immutability guard breaks pickle's default slot-state restore,
        # so pairs (and the deltas holding them) pickle through __init__.
        return (DiffPair, (self.pos, self.neg))

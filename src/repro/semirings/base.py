"""Commutative semirings: the annotation domain of the paper (Section 2).

A commutative semiring ``(K, +, ., 0, 1)`` is a set ``K`` with two commutative
monoid structures ``(K, +, 0)`` and ``(K, ., 1)`` such that multiplication
distributes over addition and ``0`` is absorbing (``0 . k = 0``).

Annotations from a semiring decorate the members of K-sets (and therefore the
children of every K-UXML node).  Intuitively ``+`` models *alternative* uses
of data, ``.`` models *joint* use, ``0`` means "absent" and ``1`` means
"present once, without restrictions".

Design
------
Semiring *elements* are plain immutable Python values (``bool``, ``int``,
:class:`~repro.semirings.polynomial.Polynomial`, frozensets, tuples, ...).
A :class:`Semiring` instance bundles the constants and operations and is passed
explicitly to every structure that carries annotations.  This mirrors how the
paper treats ``K`` as a parameter of the whole development.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable, Sequence

from repro.errors import AnnotationError, SemiringError

__all__ = ["Semiring", "check_semiring_axioms"]


class Semiring(ABC):
    """Abstract base class for commutative semirings.

    Concrete subclasses provide :attr:`zero`, :attr:`one`, :meth:`add` and
    :meth:`mul`; the base class derives n-ary sums and products, integer
    embeddings, powers and canonical comparisons from those.

    Subclasses may override :meth:`normalize` when elements have several
    syntactic representations (e.g. positive Boolean expressions are kept in a
    canonical monotone-DNF form).  All values stored in K-sets are normalized
    on entry so that Python equality and hashing agree with semiring equality.
    """

    #: Human readable name used in reprs, benchmark output and the registry.
    name: str = "abstract"

    #: True if ``a + a == a`` for all elements (set-like semirings).
    idempotent_add: bool = False

    #: True if ``a * a == a`` for all elements (lattice-like semirings).
    idempotent_mul: bool = False

    #: True if :meth:`add` and :meth:`mul` return *normalized* elements when
    #: given normalized elements.  Every semiring shipped with the library
    #: keeps its elements in canonical form (the default :meth:`normalize` is
    #: the identity, and the semirings with non-trivial canonical forms —
    #: PosBool, Why, N[X] — re-canonicalize inside their operations), which
    #: lets :class:`~repro.kcollections.kset.KSet` and
    #: :class:`~repro.relational.krelation.KRelation` skip re-coercion and
    #: re-normalization of annotations that flow from one collection into
    #: another.  A user-defined semiring whose operations can produce
    #: non-canonical representatives must set this to ``False`` to keep the
    #: defensive construction path.
    ops_preserve_normal_form: bool = True

    #: True if addition is cancellative and :meth:`subtract` implements exact
    #: subtraction.  Semirings have no additive inverses in general, but in
    #: some (``N``, ``N[X]``) ``b + c = a`` has at most one solution ``c``.
    #: The incremental view-maintenance layer (:mod:`repro.ivm`) uses this to
    #: subtract what a deletion removes from a cached result exactly;
    #: semirings that leave it ``False`` fall back to recomputation on
    #: deleting updates.
    supports_subtraction: bool = False

    #: Optional Python *expression templates* for :meth:`add` / :meth:`mul`,
    #: used by the source-codegen evaluator (:mod:`repro.nrc.codegen`) to
    #: inline the semiring operations into generated bytecode instead of
    #: emitting a pre-bound method call per operation (``"({a} + {b})"`` for
    #: ``N``, ``"({a} or {b})"`` for ``B``, ...).  A template must be a pure
    #: expression over the placeholders ``{a}`` and ``{b}``; each placeholder
    #: is substituted with a side-effect-free atom and may appear more than
    #: once.  Templates must compute exactly what :meth:`add` / :meth:`mul`
    #: compute on normalized elements — that is the author's obligation; the
    #: codegen layer only *cross-checks* them against the methods on a few
    #: :meth:`sample_elements` pairs, silently dropping templates that fail
    #: to compile or that disagree there.  The check catches typos, not every
    #: wrong template: one that agrees on the samples but diverges elsewhere
    #: produces wrong answers.  ``None`` (the default) always uses the
    #: pre-bound calls and is the safe choice.
    codegen_add: str | None = None
    codegen_mul: str | None = None

    # ------------------------------------------------------------------ core
    @property
    @abstractmethod
    def zero(self) -> Any:
        """The additive identity (absent / unavailable)."""

    @property
    @abstractmethod
    def one(self) -> Any:
        """The multiplicative identity (present once, unrestricted)."""

    @abstractmethod
    def add(self, a: Any, b: Any) -> Any:
        """Semiring addition (alternative use of data)."""

    @abstractmethod
    def mul(self, a: Any, b: Any) -> Any:
        """Semiring multiplication (joint use of data)."""

    @abstractmethod
    def is_valid(self, a: Any) -> bool:
        """Return True if ``a`` is an element of this semiring's carrier."""

    # ----------------------------------------------------------- derived ops
    def normalize(self, a: Any) -> Any:
        """Return the canonical representative of ``a``.

        The default is the identity; subclasses with non-trivial equality
        (e.g. :class:`~repro.semirings.posbool.PosBoolSemiring`) override it.
        """
        return a

    def eq(self, a: Any, b: Any) -> bool:
        """Semantic equality of two elements."""
        return self.normalize(a) == self.normalize(b)

    def is_zero(self, a: Any) -> bool:
        """True if ``a`` is (equal to) the additive identity."""
        return self.eq(a, self.zero)

    def is_one(self, a: Any) -> bool:
        """True if ``a`` is (equal to) the multiplicative identity."""
        return self.eq(a, self.one)

    def coerce(self, a: Any) -> Any:
        """Validate and normalize ``a``, raising :class:`AnnotationError` if invalid."""
        if not self.is_valid(a):
            raise AnnotationError(
                f"{a!r} is not a valid element of the semiring {self.name}"
            )
        return self.normalize(a)

    def sum(self, items: Iterable[Any]) -> Any:
        """Fold :meth:`add` over ``items`` starting from :attr:`zero`."""
        acc = self.zero
        for item in items:
            acc = self.add(acc, item)
        return acc

    def product(self, items: Iterable[Any]) -> Any:
        """Fold :meth:`mul` over ``items`` starting from :attr:`one`."""
        acc = self.one
        for item in items:
            acc = self.mul(acc, item)
        return acc

    def from_int(self, n: int) -> Any:
        """The n-fold sum ``1 + 1 + ... + 1`` (the canonical image of ``n``)."""
        if n < 0:
            raise SemiringError("semirings have no additive inverses; n must be >= 0")
        acc = self.zero
        for _ in range(n):
            acc = self.add(acc, self.one)
        return acc

    def subtract(self, a: Any, b: Any) -> Any:
        """Exact partial subtraction: the unique ``c`` with ``b + c = a``.

        Only meaningful when :attr:`supports_subtraction` is ``True`` (``+`` is
        cancellative); the default implementation supports the one case every
        semiring has — subtracting zero — and raises :class:`SemiringError`
        otherwise.  Overrides must raise :class:`SemiringError` whenever no
        exact ``c`` exists (e.g. ``2 - 3`` in ``N``), never approximate.
        """
        if self.is_zero(b):
            return self.normalize(a)
        raise SemiringError(
            f"semiring {self.name} does not support exact subtraction"
        )

    def power(self, a: Any, n: int) -> Any:
        """The n-fold product ``a . a . ... . a`` (``a ** 0 == 1``)."""
        if n < 0:
            raise SemiringError("semirings have no multiplicative inverses; n must be >= 0")
        acc = self.one
        for _ in range(n):
            acc = self.mul(acc, a)
        return acc

    # -------------------------------------------------------------- metadata
    def repr_element(self, a: Any) -> str:
        """Short human-readable rendering of an element (used as superscripts)."""
        return str(a)

    def parse_element(self, text: str) -> Any:
        """Parse an element from its textual form.

        Used by the UXML document reader to interpret ``annot="..."``
        attributes.  Subclasses should override; the default raises.
        """
        raise SemiringError(f"semiring {self.name} does not support parsing elements")

    def sample_elements(self) -> Sequence[Any]:
        """A small list of representative elements, used by tests and the
        homomorphism checker.  Should include zero and one."""
        return [self.zero, self.one]

    # ------------------------------------------------------------------ misc
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Semiring {self.name}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Semiring) and type(self) is type(other) and self.name == other.name

    def __hash__(self) -> int:
        return hash((type(self), self.name))


def check_semiring_axioms(semiring: Semiring, elements: Sequence[Any]) -> list[str]:
    """Check the commutative-semiring axioms on a finite sample of elements.

    Returns a list of human-readable axiom violations (empty if all axioms hold
    on the sample).  Used by the test-suite and by users defining custom
    semirings.
    """
    failures: list[str] = []
    zero, one = semiring.zero, semiring.one
    eq, add, mul = semiring.eq, semiring.add, semiring.mul

    def note(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    for a in elements:
        note(eq(add(a, zero), a), f"a + 0 != a for a={a!r}")
        note(eq(add(zero, a), a), f"0 + a != a for a={a!r}")
        note(eq(mul(a, one), a), f"a * 1 != a for a={a!r}")
        note(eq(mul(one, a), a), f"1 * a != a for a={a!r}")
        note(eq(mul(a, zero), zero), f"a * 0 != 0 for a={a!r}")
        note(eq(mul(zero, a), zero), f"0 * a != 0 for a={a!r}")
        if semiring.idempotent_add:
            note(eq(add(a, a), a), f"a + a != a for a={a!r} (declared +-idempotent)")
        if semiring.idempotent_mul:
            note(eq(mul(a, a), a), f"a * a != a for a={a!r} (declared *-idempotent)")

    for a in elements:
        for b in elements:
            note(eq(add(a, b), add(b, a)), f"+ not commutative on {a!r}, {b!r}")
            note(eq(mul(a, b), mul(b, a)), f"* not commutative on {a!r}, {b!r}")

    for a in elements:
        for b in elements:
            for c in elements:
                note(
                    eq(add(add(a, b), c), add(a, add(b, c))),
                    f"+ not associative on {a!r}, {b!r}, {c!r}",
                )
                note(
                    eq(mul(mul(a, b), c), mul(a, mul(b, c))),
                    f"* not associative on {a!r}, {b!r}, {c!r}",
                )
                note(
                    eq(mul(a, add(b, c)), add(mul(a, b), mul(a, c))),
                    f"* does not distribute over + on {a!r}, {b!r}, {c!r}",
                )
    return failures

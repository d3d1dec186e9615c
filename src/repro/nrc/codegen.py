"""Source-codegen evaluator for NRC_K + srt (compile to real bytecode).

The production evaluator.  :mod:`repro.nrc.eval` transcribes the Figure 8
equations literally and pays an ``isinstance`` dispatch chain and an
environment copy per node; here the expression is walked **once** and
*printed as specialized Python source*, then compiled to real bytecode with
:func:`compile`/``exec``:

* **bind chains fuse into nested ``for`` loops** over the normalized
  ``KSet._items`` dicts, accumulating contributions straight into one dict
  that the trusted :meth:`~repro.kcollections.kset.KSet._from_normalized`
  constructor wraps at the end — no intermediate collections for the inner
  levels of ``U(x in ...) U(y in ...) ...`` chains;
* **semiring operations inline** for registry semirings that declare scalar
  op templates (:attr:`~repro.semirings.base.Semiring.codegen_add` /
  ``codegen_mul``: ``+``/``*`` for ``N``, ``or``/``and`` for ``B``, tropical
  ``min``/``+``, set union for ``Why(X)``); semirings without templates get
  pre-bound ``add``/``mul`` calls;
* **annotation weights thread through the loops**: the product of the
  enclosing binder annotations is maintained incrementally (at most one
  multiplication per outer member instead of one per contribution, and with
  an out-of-line ``mul`` none for members that contribute nothing), with a
  ``one``-skip so all-unit documents never multiply;
* **variables become Python locals**: binders name generated locals, and
  only the free variables are read from a flat per-call frame;
* **type guards compile to class-identity checks** (``x.__class__ is not
  KSet``) that fall back to ``isinstance``-based helpers — free when values
  are well-typed, the interpreter's errors when they are not;
* **structural recursion is a generated recursive function**, memoized per
  (hashable, immutable) :class:`~repro.uxml.tree.UTree` subtree, so
  recursion over shared or repeated subtrees is linear in the number of
  *distinct* subtrees.  When the ``srt`` body is closed (no free variables
  besides its label and accumulator binders) the result is a function of
  the subtree alone, and the memo persists across evaluations (cleared past
  :data:`_SRT_MEMO_LIMIT` entries); an open body gets a fresh memo per
  application.  Every newly visited node makes one cooperative limit check.

Coverage is total: every expression over every semiring compiles.  The
generated program computes the same sums of products as the interpreter,
re-associated by the semiring axioms that every shipped semiring satisfies
exactly on its canonical representatives (the premise the Appendix A
simplifier and the IVM delta plans also stand on).  The edge cases are
emitted conservatively: a semiring whose operations do not preserve
canonical form (``ops_preserve_normal_form = False``) gets results built by
the defensive ``KSet(...)`` constructor, the trivial semiring (``1 == 0``)
turns every singleton into the empty collection, and a ``Scale`` scalar
foreign to the compile-time semiring becomes a bound ``collection.scale``
call.  A collection over a *different* semiring reaching a generated loop
at run time is the one shape the program does not reproduce inline: it
reruns the Figure 8 interpreter on the same plan, which defines that
behaviour (big unions bind in the collection's own semiring, unions raise).

The equivalence corpus (``tests/nrc/test_evaluator_equiv.py``) and the
differential fuzz suite (``tests/nrc/test_codegen_fuzz.py``) assert
``nrc-codegen == nrc-interp`` for every registry semiring.

Usage::

    from repro.nrc.codegen import compile_codegen

    program = compile_codegen(expr, semiring)      # once
    value = program.evaluate({"S": source})        # many times
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.errors import AnnotationError, NRCEvalError
from repro.kcollections.kset import KSet
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
    free_variables,
)
from repro.nrc.eval import _expect_kset, _expect_tree
from repro.nrc.eval import evaluate as _evaluate_reference
from repro.nrc.values import Pair
from repro.obs.metrics import default_registry
from repro.resilience.limits import check_tick
from repro.semirings.base import Semiring
from repro.uxml.tree import UTree

__all__ = [
    "CodegenProgram",
    "compile_codegen",
    "generate_source",
    "codegen_stats",
]

#: Sentinel stored in frame slots that have not been bound yet.
_UNBOUND = object()

#: Cap on a persistent (cross-evaluation) srt memo table before it is reset.
_SRT_MEMO_LIMIT = 65536


class _ForeignCollection(Exception):
    """Internal: a runtime K-set over a different semiring reached a loop.

    The generated program bails out and :meth:`CodegenProgram.evaluate`
    reruns the Figure 8 interpreter on the same plan — exact parity at zero
    cost on the same-semiring path.
    """


#: Module-wide generation counter, published in the process metrics
#: registry (compilation is cold, so a lock per bump is immaterial).
_GENERATED_COUNTER = default_registry().counter(
    "repro_codegen_generated_total", "NRC programs compiled to specialized bytecode"
)

#: Total evaluations served by generated code across every program.  The
#: per-program ``CodegenProgram.calls`` bumps are deliberately lock-free
#: (hot path, racy-OK), so the aggregate follows the same discipline: a
#: plain cell, published by a pull-time registry collector.
_TOTAL_CALLS = [0]


def note_calls(count: int) -> None:
    """Bulk call accounting (the batch template path bypasses evaluate())."""
    _TOTAL_CALLS[0] += count


def _collect_codegen(sink: Any) -> None:
    sink.counter(
        "repro_codegen_calls_total", _TOTAL_CALLS[0],
        "Evaluations served by generated code (all programs)",
    )


default_registry().register_collector("codegen", _collect_codegen)


def codegen_stats() -> dict[str, int]:
    """A snapshot of how many programs were generated.

    A thin read of the metrics-registry counter (the canonical surface
    since the observability layer landed).
    """
    return {"generated": int(_GENERATED_COUNTER.value())}


class CodegenProgram:
    """An NRC_K + srt expression compiled to specialized Python bytecode.

    Immutable apart from its counters, reusable and safe to evaluate
    concurrently: every :meth:`evaluate` call allocates a fresh frame for
    the free-variable slots (``_run``/``_free_slots``/``_num_slots`` — the
    frame protocol the batch evaluator's template fast path drives
    directly).  ``calls`` counts evaluations (bumped in bulk by the batch
    path) so every serving layer can observe that generated code did the
    work.
    """

    __slots__ = ("expr", "semiring", "source", "_run", "_free_slots", "_num_slots",
                 "calls", "limit_checks")

    def __init__(self, expr: Expr, semiring: Semiring, source: str,
                 run: Callable[[list], Any], free_slots: dict[str, int], num_slots: int):
        self.expr = expr
        self.semiring = semiring
        self.source = source
        self._run = run
        self._free_slots = free_slots
        self._num_slots = num_slots
        #: Evaluations served by the generated code (foreign-collection
        #: evaluations rerun by the interpreter are excluded).  A plain int
        #: updated without a lock: approximate under heavy concurrency,
        #: which is fine for an observability counter.
        self.calls = 0
        #: Number of generated fold loops carrying a stride-counted
        #: EvalLimits check, plus one per generated srt recursion (``repro
        #: explain`` reports it).
        self.limit_checks = source.count("_TICK(")

    @property
    def free_variables(self) -> frozenset[str]:
        """The free variables the frame is seeded from at evaluation time."""
        return frozenset(self._free_slots)

    def evaluate(self, env: Mapping[str, Any] | None = None) -> Any:
        """Evaluate the generated program in the given environment.

        Unused environment entries are ignored; referencing a free variable
        that ``env`` does not bind raises :class:`NRCEvalError` exactly when
        the reference is reached (as in the interpreter).
        """
        frame = [_UNBOUND] * self._num_slots
        if env:
            for name, slot in self._free_slots.items():
                value = env.get(name, _UNBOUND)
                if value is not _UNBOUND:
                    frame[slot] = value
        self.calls += 1
        _TOTAL_CALLS[0] += 1
        try:
            return self._run(frame)
        except _ForeignCollection:
            return self.serve_foreign(env)

    __call__ = evaluate

    def serve_foreign(self, env: Mapping[str, Any] | None) -> Any:
        """Serve an evaluation that hit a foreign-semiring collection.

        Reruns the Figure 8 interpreter on the plan, and takes the call back
        out of :attr:`calls` — generated code did not serve it.  Shared by
        :meth:`evaluate` and the batch template path.
        """
        self.calls -= 1
        _TOTAL_CALLS[0] -= 1
        return _evaluate_reference(self.expr, self.semiring, env)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CodegenProgram over {self.semiring.name}: {str(self.expr)[:60]}>"


# ---------------------------------------------------------------------------
# Source emission
# ---------------------------------------------------------------------------
class _LazyWeight:
    """A binder-annotation product, multiplied out on first use.

    A big-union body often contributes nothing for most members (a label
    test filters them out), so when multiplication is an out-of-line call
    (N[X], for instance) the weight ``outer * annotation`` of a loop level
    is only computed where a contribution needs it: unguarded when that use
    is in the loop body's own straight-line block, otherwise behind an
    ``is None`` check against a ``None`` reset emitted at the loop head (at
    most one multiplication per member, and none for members that
    contribute nothing).
    """

    __slots__ = ("name", "outer", "factor", "region", "reset", "indent", "visible_in")

    def __init__(self, name: str, outer: "str | _LazyWeight", factor: str,
                 region: int, reset: int, indent: int):
        self.name = name
        self.outer = outer
        self.factor = factor
        #: The block the weight is defined in, and the index and indent of
        #: its reserved ``name = None`` line.
        self.region = region
        self.reset = reset
        self.indent = indent
        #: The block whose code last computed the weight (``None``: nowhere).
        self.visible_in: int | None = None


class _Emitter:
    """Walks the expression once, printing specialized Python statements.

    With ``profile`` set (an ``repro.obs.profile.Profiler``), the emitted
    source additionally times every value-position operator and counts
    iterations of the fused big-union loops — profiled programs are always
    compiled separately, so production programs carry zero profiling code.
    """

    def __init__(self, semiring: Semiring, profile: Any | None = None):
        self.semiring = semiring
        self.profile = profile
        #: Emitted lines; ``None`` marks a reserved line that stayed unused.
        self.lines: list[str | None] = []
        self.indent = 1
        #: Stack of open straight-line blocks (loop bodies, branches); a
        #: value computed in a block is visible in it and its nested blocks.
        self._regions: list[int] = [0]
        self._region_count = 0
        self._temp = 0
        self.num_slots = 0
        self.free_slots: dict[str, int] = {}
        #: name -> stack of atoms; the top entry is the innermost binder.
        self._scope: dict[str, list[str]] = {}
        #: atom -> statically-known kind ("label" | "tree" | "kset"), used to
        #: skip type guards the data-model invariants make dead (labels from
        #: literals and tag(), trees from Tree(), K-sets from kids() — UTree
        #: children are a KSet of UTrees by construction).
        self._known: dict[str, str] = {}
        #: K-set atoms whose members are known to be trees (kids() results).
        self._tree_elements: set[str] = set()
        #: accumulator atom -> hoisted bound ``dict.get`` atom.
        self._acc_get: dict[str, str] = {}
        #: Number of fold loops instrumented with a stride-counted limit
        #: check; each generated function that has any starts its own
        #: ``_lc`` counter.
        self.loop_checks = 0
        self.consts: list[Any] = []
        self._add_tmpl = _validated_template(semiring, "add", semiring.codegen_add, semiring.add)
        self._mul_tmpl = _validated_template(semiring, "mul", semiring.codegen_mul, semiring.mul)
        #: The trivial semiring (``1 == 0``): every singleton is empty.
        self._trivial = semiring.is_zero(semiring.normalize(semiring.one))
        #: Whether results may go through the trusted constructor; other
        #: semirings get the defensive ``KSet(...)`` (re-coerce, re-normalize).
        self._canonical = semiring.ops_preserve_normal_form

    # ------------------------------------------------------------- plumbing
    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def fresh(self, prefix: str = "t") -> str:
        self._temp += 1
        return f"_{prefix}{self._temp}"

    def reserve(self) -> int:
        """Reserve a line at the current position, to be filled in later."""
        self.lines.append(None)
        return len(self.lines) - 1

    def fill(self, index: int, line: str, indent: int) -> None:
        self.lines[index] = "    " * indent + line

    def _open_block(self) -> None:
        """Enter an indented block (loop body or branch)."""
        self.indent += 1
        self._region_count += 1
        self._regions.append(self._region_count)

    def _close_block(self) -> None:
        self._regions.pop()
        self.indent -= 1

    def scaled_weight(self, outer: "str | _LazyWeight", factor: str) -> "str | _LazyWeight":
        """The weight ``outer * factor`` for a nested accumulation.

        An inlined multiplication (a ``codegen_mul`` template) is cheaper
        than the guard a deferred one needs, so it is emitted right here;
        a bound ``_MUL`` call is deferred to its first use.
        """
        if self._mul_tmpl is None:
            return _LazyWeight(
                self.fresh("w"), outer, factor, self._regions[-1], self.reserve(), self.indent
            )
        outer_atom = self.weight_atom(outer)
        weight = self.fresh("w")
        self.emit(
            f"{weight} = {outer_atom} if {factor} == _ONE "
            f"else {self.mul_expr(outer_atom, factor)}"
        )
        return weight

    def weight_atom(self, weight: "str | _LazyWeight | None") -> str | None:
        """An atom holding ``weight`` at the current point of the code."""
        if not isinstance(weight, _LazyWeight):
            return weight
        if weight.visible_in in self._regions:
            return weight.name
        outer = self.weight_atom(weight.outer)
        product = (
            f"{outer} if {weight.factor} == _ONE "
            f"else {self.mul_expr(outer, weight.factor)}"
        )
        if self._regions[-1] == weight.region:
            self.emit(f"{weight.name} = {product}")
        else:
            self.fill(weight.reset, f"{weight.name} = None", weight.indent)
            self.emit(f"if {weight.name} is None: {weight.name} = {product}")
        weight.visible_in = self._regions[-1]
        return weight.name

    def emit_loop_check(self, acc: str) -> None:
        """Stride-counted guardrail inside a generated fold loop.

        ``_lc`` is a per-call counter of the enclosing generated function
        (shared by all its loops); every 256th iteration calls
        :func:`repro.resilience.limits.check_tick` with the rows accumulated
        so far — two cheap statements per iteration when no limits are armed.
        """
        self.loop_checks += 1
        self.emit("_lc += 1")
        self.emit(f"if not _lc & 255: _TICK(len({acc}))")

    def const(self, value: Any) -> str:
        for index, existing in enumerate(self.consts):
            if existing is value:
                return f"_C{index}"
        self.consts.append(value)
        return f"_C{len(self.consts) - 1}"

    def add_expr(self, a: str, b: str) -> str:
        if self._add_tmpl is not None:
            return self._add_tmpl.format(a=a, b=b)
        return f"_ADD({a}, {b})"

    def mul_expr(self, a: str, b: str) -> str:
        if self._mul_tmpl is not None:
            return self._mul_tmpl.format(a=a, b=b)
        return f"_MUL({a}, {b})"

    # -------------------------------------------------------------- guards
    def guard_kset(self, atom: str, context: str) -> None:
        if self._known.get(atom) != "kset":
            self.emit(f"if {atom}.__class__ is not _KSet: _expect_kset({atom}, {context!r})")

    def guard_semiring(self, atom: str) -> None:
        self.emit(f"if {atom}._semiring is not _SR: _require_semiring({atom})")

    def guard_tree(self, atom: str, context: str) -> None:
        if self._known.get(atom) != "tree":
            self.emit(f"if {atom}.__class__ is not _UTree: _expect_tree({atom}, {context!r})")

    def guard_label(self, atom: str) -> bool:
        """True when the atom is statically known to be a label."""
        return self._known.get(atom) == "label"

    # ---------------------------------------------------------- value mode
    def emit_value(self, expr: Expr) -> str:
        """Emit statements computing ``expr``; returns a pure atom for it.

        Under profiling, non-trivial nodes are bracketed with a timer and a
        row-count record (inclusive times, as in ``EXPLAIN ANALYZE``).
        """
        profile = self.profile
        if profile is None or type(expr) in (LabelLit, Var, EmptySet):
            return self._emit_value_node(expr)
        op = profile.open_op(expr)
        timer = self.fresh("pt")
        self.emit(f"{timer} = _PERF()")
        try:
            atom = self._emit_value_node(expr)
        finally:
            profile.close_op()
        self.emit(f"_PREC({op.index}, _PERF() - {timer}, _PROWS({atom}))")
        return atom

    def _emit_value_node(self, expr: Expr) -> str:
        kind = type(expr)
        if kind is LabelLit:
            atom = repr(expr.label)
            self._known[atom] = "label"
            return atom
        if kind is Var:
            return self._emit_var(expr)
        if kind is EmptySet:
            return "_EMPTY"
        if kind in (Singleton, Union, Scale, BigUnion):
            return self._emit_collection_value(expr)
        if kind is IfEq:
            left, right = self._emit_ifeq_head(expr)
            out = self.fresh()
            self.emit(f"if {left} == {right}:")
            self._open_block()
            then_atom = self.emit_value(expr.then)
            self.emit(f"{out} = {then_atom}")
            self._close_block()
            self.emit("else:")
            self._open_block()
            else_atom = self.emit_value(expr.orelse)
            self.emit(f"{out} = {else_atom}")
            self._close_block()
            return out
        if kind is PairExpr:
            first = self.emit_value(expr.first)
            second = self.emit_value(expr.second)
            out = self.fresh()
            self.emit(f"{out} = _Pair({first}, {second})")
            return out
        if kind is Proj:
            inner = self.emit_value(expr.expr)
            self.emit(f"if {inner}.__class__ is not _Pair: _expect_pair({inner})")
            out = self.fresh()
            field = "_first" if expr.index == 1 else "_second"
            self.emit(f"{out} = {inner}.{field}")
            return out
        if kind is TreeExpr:
            label = self.emit_value(expr.label)
            if not self.guard_label(label):
                self.emit(f"if {label}.__class__ is not str: _expect_tree_label({label})")
            kids = self.emit_value(expr.kids)
            self.guard_kset(kids, "tree children")
            if kids not in self._tree_elements:
                child = self.fresh("c")
                self.emit(f"for {child} in {kids}._items:")
                self.indent += 1
                self.emit(f"if {child}.__class__ is not _UTree: _expect_child({child})")
                self.indent -= 1
            out = self.fresh()
            self.emit(f"{out} = _UTree({label}, {kids})")
            self._known[out] = "tree"
            return out
        if kind is Tag:
            inner = self.emit_value(expr.expr)
            self.guard_tree(inner, "tag")
            out = self.fresh()
            self.emit(f"{out} = {inner}._label")
            self._known[out] = "label"
            return out
        if kind is Kids:
            inner = self.emit_value(expr.expr)
            self.guard_tree(inner, "kids")
            out = self.fresh()
            self.emit(f"{out} = {inner}._children")
            # A UTree's children are a KSet of UTrees by construction.
            self._known[out] = "kset"
            self._tree_elements.add(out)
            return out
        if kind is Let:
            value = self.emit_value(expr.value)
            self._scope.setdefault(expr.var, []).append(value)
            try:
                return self.emit_value(expr.body)
            finally:
                self._scope[expr.var].pop()
        if kind is Srt:
            return self._emit_srt(expr)
        raise NRCEvalError(f"unknown expression node {expr!r}")

    def _emit_var(self, expr: Var) -> str:
        stack = self._scope.get(expr.name)
        if stack:
            return stack[-1]
        slot = self.free_slots.get(expr.name)
        if slot is None:
            slot = self.free_slots[expr.name] = self.num_slots
            self.num_slots += 1
        out = self.fresh("v")
        self.emit(f"{out} = frame[{slot}]")
        self.emit(f"if {out} is _UNBOUND: _raise_unbound({expr.name!r})")
        return out

    def _emit_ifeq_head(self, expr: IfEq) -> tuple[str, str]:
        left = self.emit_value(expr.left)
        right = self.emit_value(expr.right)
        if not (self.guard_label(left) and self.guard_label(right)):
            self.emit(
                f"if {left}.__class__ is not str or {right}.__class__ is not str: "
                f"_check_labels({left}, {right})"
            )
        return left, right

    def _emit_srt(self, expr: Srt) -> str:
        """Structural recursion as a nested generated function.

        ``def _srtN(node)`` memoizes per subtree, checks the limits once per
        newly visited node, builds the accumulator by mapping itself over
        the children (collapsing results add their annotations, Equation
        (1)), binds the label and the accumulator to locals and evaluates
        the body.  Being nested, it reads the enclosing locals an open body
        refers to; an open body also gets a fresh memo per application,
        while a closed body's memo is a program constant that persists
        across evaluations.
        """
        target = self.emit_value(expr.target)
        self.guard_tree(target, "structural recursion")
        function, node = self.fresh("srt"), self.fresh("n")
        if free_variables(expr.body) - {expr.label_var, expr.acc_var}:
            memo = self.fresh("memo")
            self.emit(f"{memo} = {{}}")
        else:
            memo = self.const({})
            self.emit(f"if len({memo}) > {_SRT_MEMO_LIMIT}: {memo}.clear()")
        self.emit(f"def {function}({node}):")
        self._open_block()
        counter, checks_before = self.reserve(), self.loop_checks
        cached, children = self.fresh(), self.fresh()
        self.emit(f"{cached} = {memo}.get({node})")
        self.emit(f"if {cached} is not None: return {cached}")
        self.emit("_TICK()")
        self.emit(f"{children} = {node}._children")
        self.guard_semiring(children)
        label, accumulator = self.fresh("l"), self.fresh("a")
        self.emit(f"{accumulator} = {children}.map({function})")
        self.emit(f"{label} = {node}._label")
        self._known[label] = "label"
        self._known[accumulator] = "kset"
        self._scope.setdefault(expr.label_var, []).append(label)
        self._scope.setdefault(expr.acc_var, []).append(accumulator)
        try:
            result = self.emit_value(expr.body)
        finally:
            self._scope[expr.acc_var].pop()
            self._scope[expr.label_var].pop()
        self.emit(f"{memo}[{node}] = {result}")
        self.emit(f"return {result}")
        if self.loop_checks > checks_before:
            self.fill(counter, "_lc = 0", self.indent)
        self._close_block()
        out = self.fresh()
        self.emit(f"{out} = {function}({target})")
        # The function refers to itself through its closure cell; clearing
        # the cell frees it (and an open body's memo) without waiting for the
        # cycle collector.
        self.emit(f"del {function}")
        return out

    def _emit_collection_value(self, expr: Expr) -> str:
        if type(expr) is Singleton:
            member = self.emit_value(expr.expr)
            if self._trivial:
                return "_EMPTY"  # {v} is annotated 1 == 0, i.e. empty
            out = self.fresh()
            self.emit(f"{out} = _from_normalized(_SR, {{{member}: _ONE}})")
            self._known[out] = "kset"
            if self._known.get(member) == "tree":
                self._tree_elements.add(out)
            return out
        acc = self.fresh("acc")
        self.emit(f"{acc} = {{}}")
        getter = self._acc_get[acc] = self.fresh("g")
        self.emit(f"{getter} = {acc}.get")
        self.emit_into(expr, acc, None)
        out = self.fresh()
        if self._canonical:
            # One cleanup pass over the accumulator: collision sums can
            # collapse to zero and annihilating multiplications can produce it.
            self.emit(
                f"{out} = _from_normalized(_SR, "
                f"{{_v: _a for _v, _a in {acc}.items() if _a != _ZERO}})"
            )
        else:
            self.emit(f"{out} = _KSet(_SR, {acc})")
        self._known[out] = "kset"
        return out

    # ---------------------------------------------------- accumulation mode
    def emit_into(self, expr: Expr, acc: str, weight: str | _LazyWeight | None,
                  context: str = "big union") -> None:
        """Accumulate the collection-typed ``expr``, scaled by ``weight``,
        into the dict ``acc`` (``weight is None`` means the semiring one)."""
        kind = type(expr)
        if kind is EmptySet:
            return
        if kind is Singleton:
            member = self.emit_value(expr.expr)
            self._accumulate(acc, member, self.weight_atom(weight) or "_ONE")
            return
        if kind is Union:
            self.emit_into(expr.left, acc, weight, "union")
            self.emit_into(expr.right, acc, weight, "union")
            return
        if kind is Scale:
            self._emit_scale_into(expr, acc, weight)
            return
        if kind is BigUnion:
            self._emit_big_union_into(expr, acc, weight)
            return
        if kind is IfEq:
            left, right = self._emit_ifeq_head(expr)
            self.emit(f"if {left} == {right}:")
            self._open_block()
            self.emit_into(expr.then, acc, weight, context)
            self.emit("pass")
            self._close_block()
            self.emit("else:")
            self._open_block()
            self.emit_into(expr.orelse, acc, weight, context)
            self.emit("pass")
            self._close_block()
            return
        if kind is Let:
            value = self.emit_value(expr.value)
            self._scope.setdefault(expr.var, []).append(value)
            try:
                self.emit_into(expr.body, acc, weight, context)
            finally:
                self._scope[expr.var].pop()
            return
        # Opaque collection (Var, Kids, Proj, ...): compute it, then fold
        # its already-normalized items into the accumulator.
        atom = self.emit_value(expr)
        self.guard_kset(atom, context)
        self._emit_fold(atom, acc, weight)

    def _emit_fold(self, atom: str, acc: str, weight: str | _LazyWeight | None) -> None:
        """Fold the items of the K-set ``atom``, scaled by ``weight``, into ``acc``."""
        self.guard_semiring(atom)
        member = self.fresh("m")
        annot = self.fresh("k")
        self.emit(f"for {member}, {annot} in {atom}._items.items():")
        self._open_block()
        self.emit_loop_check(acc)
        scale = self.weight_atom(weight)
        if scale is None:
            self._accumulate(acc, member, annot)
        else:
            contribution = self.fresh("w")
            self.emit(
                f"{contribution} = {annot} if {scale} == _ONE "
                f"else {self.mul_expr(scale, annot)}"
            )
            self._accumulate(acc, member, contribution)
        self._close_block()

    def _emit_scale_into(self, expr: Scale, acc: str,
                         weight: str | _LazyWeight | None) -> None:
        try:
            scalar = self.semiring.coerce(expr.scalar)
        except AnnotationError:
            # A scalar foreign to the compile-time semiring: the collection
            # scales itself (coercing in its own semiring, or raising), as in
            # the interpreter.
            atom = self.emit_value(expr.expr)
            self.guard_kset(atom, "scalar multiplication")
            scaled = self.fresh()
            self.emit(f"{scaled} = {atom}.scale({self.const(expr.scalar)})")
            self._emit_fold(scaled, acc, weight)
            return
        if self.semiring.is_zero(scalar):
            # Contributes nothing, but the inner collection is still
            # evaluated and checked, as in the interpreter — including the
            # semiring guard, whose foreign behavior (KSet.scale with the
            # raw scalar) only the interpreter rerun reproduces.
            atom = self.emit_value(expr.expr)
            self.guard_kset(atom, "scalar multiplication")
            self.guard_semiring(atom)
            return
        if self.semiring.is_one(scalar):
            self.emit_into(expr.expr, acc, weight)
            return
        scalar_atom = self.const(scalar)
        if weight is None:
            self.emit_into(expr.expr, acc, scalar_atom)
            return
        self.emit_into(expr.expr, acc, self.scaled_weight(weight, scalar_atom))

    def _emit_big_union_into(self, expr: BigUnion, acc: str,
                             weight: str | _LazyWeight | None) -> None:
        # A fused loop has no own timer (its body is interleaved with the
        # enclosing accumulation), but under profiling it registers as a
        # ``fused`` operator whose iterations are counted.
        profile = self.profile
        fused_op = None
        if profile is not None:
            fused_op = profile.open_op(expr, fused=True)
        try:
            self._emit_big_union_loop(expr, acc, weight, fused_op)
        finally:
            if profile is not None:
                profile.close_op()

    def _emit_big_union_loop(self, expr: BigUnion, acc: str,
                             weight: str | _LazyWeight | None, fused_op: Any | None) -> None:
        source = self.emit_value(expr.source)
        self.guard_kset(source, "big union")
        self.guard_semiring(source)
        member = self.fresh("x")
        annot = self.fresh("k")
        if source in self._tree_elements:
            self._known[member] = "tree"
        self.emit(f"for {member}, {annot} in {source}._items.items():")
        self._open_block()
        self.emit_loop_check(acc)
        if fused_op is not None:
            self.emit(f"_PCNT({fused_op.index})")
        inner_weight = annot if weight is None else self.scaled_weight(weight, annot)
        self._scope.setdefault(expr.var, []).append(member)
        try:
            self.emit_into(expr.body, acc, inner_weight, "big union body")
        finally:
            self._scope[expr.var].pop()
        self.emit("pass")
        self._close_block()

    def _accumulate(self, acc: str, member: str, contribution: str) -> None:
        # One bound-method lookup per accumulator (hoisted to its creation
        # site), one dict probe per contribution (annotations are never
        # None, so None is a safe miss sentinel).
        getter = self._acc_get[acc]
        previous = self.fresh("p")
        self.emit(f"{previous} = {getter}({member})")
        self.emit(f"if {previous} is None:")
        self.indent += 1
        self.emit(f"{acc}[{member}] = {contribution}")
        self.indent -= 1
        self.emit("else:")
        self.indent += 1
        self.emit(f"{acc}[{member}] = {self.add_expr(previous, contribution)}")
        self.indent -= 1


#: Validation verdicts per (semiring type, name, op, template) — the same
#: identity the semiring's own __eq__/__hash__ use, so validation runs once
#: per process instead of on every compilation.  (Templates are class
#: attributes, so equal-by-identity semirings share one verdict.)
_TEMPLATE_VERDICTS: dict[tuple, str | None] = {}


def _validated_template(semiring: Semiring, op_name: str, template: str | None,
                        operation: Callable[[Any, Any], Any]) -> str | None:
    """The inline-op template, or ``None`` when absent or untrustworthy.

    A template that fails to format/compile, or that disagrees with the
    bound operation on the semiring's sample elements, is silently dropped:
    the generated program then uses the pre-bound call, trading speed for
    guaranteed agreement.
    """
    if template is None:
        return None
    key = (type(semiring), semiring.name, op_name, template)
    if key in _TEMPLATE_VERDICTS:
        return _TEMPLATE_VERDICTS[key]
    verdict: str | None = template
    try:
        snippet = template.format(a="_a", b="_b")
        code = compile(snippet, "<codegen-op-template>", "eval")
    except (KeyError, IndexError, ValueError, SyntaxError):
        verdict = None
    else:
        samples = list(semiring.sample_elements())[:4]
        try:
            for a in samples:
                for b in samples:
                    left = semiring.normalize(a)
                    right = semiring.normalize(b)
                    if eval(code, {"_a": left, "_b": right}) != operation(left, right):
                        verdict = None
                        break
                if verdict is None:
                    break
        except Exception:
            verdict = None
    _TEMPLATE_VERDICTS[key] = verdict
    return verdict


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------
def _prof_rows(value: Any) -> int:
    """Row count of a profiled atom (non-collections count as one row)."""
    return len(value._items) if value.__class__ is KSet else 1


def generate_source(expr: Expr, semiring: Semiring,
                    profile: Any | None = None) -> tuple[str, dict[str, Any], dict[str, int], int]:
    """Emit the specialized source for ``expr`` over ``semiring``.

    Returns ``(source, namespace, free_slots, num_slots)``.  ``profile``
    (an ``repro.obs.profile.Profiler``) adds per-operator instrumentation
    to the emitted source — never used for cached production programs.
    """
    emitter = _Emitter(semiring, profile=profile)
    result = emitter.emit_value(expr)
    emitter.emit(f"return {result}")
    if emitter.loop_checks:
        emitter.lines.insert(0, "    _lc = 0")
    source = "def _nrc_program(frame):\n" + "".join(
        line + "\n" for line in emitter.lines if line is not None
    )

    def _require_semiring(collection: KSet) -> None:
        other = collection._semiring
        if other != semiring:
            raise _ForeignCollection()

    def _raise_unbound(name: str) -> None:
        raise NRCEvalError(f"unbound variable {name!r}")

    def _check_labels(left: Any, right: Any) -> None:
        if not isinstance(left, str) or not isinstance(right, str):
            raise NRCEvalError(
                "the positive calculus only compares labels; "
                f"got {type(left).__name__} and {type(right).__name__}"
            )

    def _expect_pair(value: Any) -> None:
        if not isinstance(value, Pair):
            raise NRCEvalError(f"projection applied to a non-pair value {value!r}")

    def _expect_tree_label(value: Any) -> None:
        if not isinstance(value, str):
            raise NRCEvalError(f"tree labels must be labels, got {value!r}")

    def _expect_child(value: Any) -> None:
        if not isinstance(value, UTree):
            raise NRCEvalError(f"tree children must be trees, got {value!r}")

    namespace: dict[str, Any] = {
        "_SR": semiring,
        "_KSet": KSet,
        "_UTree": UTree,
        "_Pair": Pair,
        "_UNBOUND": _UNBOUND,
        "_EMPTY": KSet.empty(semiring),
        "_ZERO": semiring.normalize(semiring.zero),
        "_ONE": semiring.normalize(semiring.one),
        "_ADD": semiring.add,
        "_MUL": semiring.mul,
        "_from_normalized": KSet._from_normalized,
        "_expect_kset": _expect_kset,
        "_expect_tree": _expect_tree,
        "_require_semiring": _require_semiring,
        "_raise_unbound": _raise_unbound,
        "_check_labels": _check_labels,
        "_expect_pair": _expect_pair,
        "_expect_tree_label": _expect_tree_label,
        "_expect_child": _expect_child,
        "_TICK": check_tick,
    }
    if profile is not None:
        import time

        namespace["_PERF"] = time.perf_counter
        namespace["_PREC"] = profile.record
        namespace["_PCNT"] = profile.count
        namespace["_PROWS"] = _prof_rows
    for index, value in enumerate(emitter.consts):
        namespace[f"_C{index}"] = value
    return source, namespace, emitter.free_slots, emitter.num_slots


def compile_codegen(expr: Expr, semiring: Semiring,
                    profile: Any | None = None) -> CodegenProgram:
    """Generate and byte-compile ``expr`` over ``semiring``.

    Profiled compilations (``profile=``) are side runs for ``explain
    --analyze``: they do not touch the generation counter.
    """
    source, namespace, free_slots, num_slots = generate_source(expr, semiring, profile)
    exec(compile(source, "<nrc-codegen>", "exec"), namespace)
    if profile is None:
        _GENERATED_COUNTER.inc()
    # Popped so the namespace does not refer back to the function: a dropped
    # program (and its persistent srt memos) is freed by reference counting.
    run = namespace.pop("_nrc_program")
    return CodegenProgram(expr, semiring, source, run, free_slots, num_slots)

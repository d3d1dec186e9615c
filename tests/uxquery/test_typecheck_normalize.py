"""Typing (Figure 3) and normalization of the K-UXQuery surface syntax."""

from __future__ import annotations

import pytest

from repro.errors import UXQueryTypeError
from repro.semirings import NATURAL
from repro.uxquery import (
    FOREST,
    LABEL,
    TREE,
    ForExpr,
    IfEqExpr,
    LetExpr,
    evaluate_query,
    infer_type,
    is_core,
    normalize,
    parse_query,
)


class TestTyping:
    def test_literals(self):
        assert infer_type(parse_query("a")) == LABEL
        assert infer_type(parse_query("()")) == FOREST

    def test_variables_use_environment(self):
        assert infer_type(parse_query("$x"), {"x": TREE}) == TREE
        with pytest.raises(UXQueryTypeError):
            infer_type(parse_query("$x"))

    def test_element_is_a_tree(self):
        assert infer_type(parse_query("element a { () }")) == TREE
        assert infer_type(parse_query("<a> b </a>")) == TREE

    def test_element_name_must_be_label(self):
        with pytest.raises(UXQueryTypeError):
            infer_type(parse_query("element $x { () }"), {"x": TREE})

    def test_name_requires_tree(self):
        assert infer_type(parse_query("name($x)"), {"x": TREE}) == LABEL
        with pytest.raises(UXQueryTypeError):
            infer_type(parse_query("name($x)"), {"x": FOREST})

    def test_paths_produce_forests(self):
        assert infer_type(parse_query("$S/a//b"), {"S": FOREST}) == FOREST
        assert infer_type(parse_query("$t/a"), {"t": TREE}) == FOREST

    def test_path_source_cannot_be_label(self):
        with pytest.raises(UXQueryTypeError):
            infer_type(parse_query("$l/a"), {"l": LABEL})

    def test_for_binds_trees(self):
        query = parse_query("for $x in $S return name($x)")
        with pytest.raises(UXQueryTypeError):
            infer_type(query, {"S": FOREST})  # body must be a tree or forest
        good = parse_query("for $x in $S return ($x)")
        assert infer_type(good, {"S": FOREST}) == FOREST

    def test_let_propagates_types(self):
        query = parse_query("let $n := name($x) return element b { () }")
        assert infer_type(query, {"x": TREE}) == TREE

    def test_conditional_requires_labels(self):
        good = parse_query("if (name($x) = a) then ($x) else ()")
        assert infer_type(good, {"x": TREE}) == FOREST
        bad = parse_query("if ($S = a) then ($S) else ()")
        with pytest.raises(UXQueryTypeError):
            infer_type(bad, {"S": FOREST})

    def test_conditional_branches_coerce_to_forest(self):
        query = parse_query("if (a = b) then element t { () } else ()")
        assert infer_type(query) == FOREST

    def test_where_clause_kinds(self):
        mixed = parse_query("for $x in $S, $y in $S where name($x) = $y/B return ($x)")
        with pytest.raises(UXQueryTypeError):
            infer_type(mixed, {"S": FOREST})

    def test_annot_types(self):
        assert infer_type(parse_query("annot 2 ($S)"), {"S": FOREST}) == FOREST
        with pytest.raises(UXQueryTypeError):
            infer_type(parse_query("annot 2 name($x)"), {"x": TREE})


class TestNormalization:
    def test_multi_binding_for_becomes_nested(self):
        query = parse_query("for $x in $R, $y in $S return ($x, $y)")
        core = normalize(query, {"R": FOREST, "S": FOREST})
        assert isinstance(core, ForExpr)
        assert len(core.bindings) == 1
        assert isinstance(core.body, ForExpr)
        assert is_core(core)

    def test_multi_binding_let_becomes_nested(self):
        query = parse_query("let $a := $S, $b := ($a) return ($b)")
        core = normalize(query, {"S": FOREST})
        assert isinstance(core, LetExpr)
        assert len(core.bindings) == 1
        assert isinstance(core.body, LetExpr)
        assert is_core(core)

    def test_label_where_clause_becomes_conditional(self):
        query = parse_query(
            "for $x in $S, $y in $S where name($x) = name($y) return element p { ($x) }"
        )
        core = normalize(query, {"S": FOREST})
        assert is_core(core)
        inner = core.body
        assert isinstance(inner, ForExpr)
        assert isinstance(inner.body, IfEqExpr)

    def test_set_where_clause_iterates_children(self):
        """The paper's normalization: where $x/B = $y/B iterates over .../B/*."""
        query = parse_query("for $x in $R, $y in $S where $x/B = $y/B return ($x)")
        core = normalize(query, {"R": FOREST, "S": FOREST})
        assert is_core(core)
        # The innermost guard compares names of the iterated children.
        node = core
        depth = 0
        while isinstance(node, ForExpr):
            node = node.body
            depth += 1
        assert depth == 4  # two bindings + two comparison loops
        assert isinstance(node, IfEqExpr)

    def test_and_conditions_nest(self):
        query = parse_query(
            "for $x in $R, $y in $S where name($x) = name($y) and $x/B = $y/B return ($x)"
        )
        core = normalize(query, {"R": FOREST, "S": FOREST})
        assert is_core(core)

    def test_normalization_preserves_semantics(self, nat_builder):
        b = nat_builder
        source = b.forest(
            b.record("t", [("A", "1"), ("B", "x")]) @ 2,
            b.record("t", [("A", "2"), ("B", "y")]) @ 3,
        )
        query = "element out { for $x in $S, $y in $S where $x/B = $y/B return <p> { $x/A, $y/A } </> }"
        direct = evaluate_query(query, NATURAL, {"S": source}, method="direct")
        compiled = evaluate_query(query, NATURAL, {"S": source}, method="nrc-codegen")
        assert direct == compiled
        # self-joins on B produce exactly the diagonal pairs with squared annotations
        assert len(direct.children) == 2

    def test_core_queries_are_fixed_points(self):
        query = parse_query("for $x in $S return ($x)")
        assert normalize(query, {"S": FOREST}) == query

"""Propositions 2, 3 and 4, and the agreement of all three query semantics."""

from __future__ import annotations

import pytest

from repro.kcollections import KSet
from repro.nrc import (
    Pair,
    Var,
    evaluate as evaluate_nrc,
    join_expr,
    kset_to_relation_rows,
    project_expr,
    relation_to_kset,
    select_eq_expr,
    union_all,
)
from repro.provenance import max_polynomial_size, proposition2_bound, tokens_used
from repro.relational import KRelation
from repro.semirings import BOOLEAN, NATURAL, PROVENANCE, DivisorLatticeSemiring
from repro.uxml import forest_size
from repro.uxquery import evaluate_query, parse_query, prepare_query, query_size
from repro.workloads import (
    random_forest,
    standard_query_suite,
    token_annotated_forest,
)


class TestProposition2:
    """Provenance polynomial sizes stay within the O(|v|^|p|) bound."""

    @pytest.mark.parametrize("depth,fanout", [(2, 2), (2, 3), (3, 2)])
    def test_bound_on_token_annotated_forests(self, depth, fanout):
        forest = token_annotated_forest(num_trees=2, depth=depth, fanout=fanout, seed=depth * 10 + fanout)
        document_size = forest_size(forest)
        for name, text in standard_query_suite().items():
            query = parse_query(text)
            answer = evaluate_query(query, PROVENANCE, {"S": forest})
            measured = max_polynomial_size(answer.children)
            assert measured <= proposition2_bound(document_size, query_size(query)), name

    def test_bound_on_paper_figures(self):
        from repro.paperdata import (
            figure1_query,
            figure1_source,
            figure4_query,
            figure4_source,
        )

        for text, variable, source in [
            (figure1_query(), "S", figure1_source()),
            (figure4_query(), "T", figure4_source()),
        ]:
            answer = evaluate_query(text, PROVENANCE, {variable: source})
            bound = proposition2_bound(forest_size(source), query_size(parse_query(text)))
            assert max_polynomial_size(answer.children) <= bound

    def test_polynomials_grow_with_document_size(self):
        """The measured sizes grow strictly with the document (shape check).

        Uses a uniform-label document so that every root-to-leaf path contributes
        a monomial to the same answer item.
        """
        from repro.uxml import TreeBuilder

        def uniform_tree(fanout: int):
            b = TreeBuilder(PROVENANCE)
            counter = [0]

            def token():
                counter[0] += 1
                return f"u{counter[0]}"

            leaves = [b.leaf("leaf")]
            middle = [
                b.tree("n", *[(leaves[0], token()) for _ in range(fanout)])
                for _ in range(fanout)
            ]
            root = b.tree("r", *[(node, token()) for node in middle])
            return b.forest(root)

        sizes = []
        for fanout in (2, 3, 4):
            answer = evaluate_query("element out { $S//leaf }", PROVENANCE, {"S": uniform_tree(fanout)})
            sizes.append(max_polynomial_size(answer.children))
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1]


class TestProposition3:
    """Equivalent UXQueries agree on distributive-lattice annotations."""

    EQUIVALENT_PAIRS = [
        # Figure 1's iteration query vs its XPath short form (footnote 6).
        (
            "element p { for $t in $S return for $x in ($t)/* return ($x)/* }",
            "element p { $S/*/* }",
        ),
        # descendant spelled via // vs the explicit axis.
        ("element p { $S//c }", "element p { $S/descendant::c }"),
        # A sequence union is commutative.
        ("element p { $S/a, $S/b }", "element p { $S/b, $S/a }"),
    ]

    @pytest.mark.parametrize("left,right", EQUIVALENT_PAIRS)
    def test_on_clearance_and_divisor_lattices(self, left, right):
        from repro.semirings import CLEARANCE

        lattices = [CLEARANCE, DivisorLatticeSemiring(30)]
        for lattice in lattices:
            samples = [value for value in lattice.sample_elements() if not lattice.is_zero(value)]
            forest = random_forest(
                lattice,
                num_trees=2,
                depth=3,
                fanout=2,
                seed=11,
                annotation_fn=lambda rng: rng.choice(samples),
            )
            assert evaluate_query(left, lattice, {"S": forest}) == evaluate_query(
                right, lattice, {"S": forest}
            )

    def test_counterexample_on_naturals(self):
        """The same pair of queries can disagree over N (multiplicities differ),
        which is why Proposition 3 needs the lattice assumption."""
        left = "element p { $S/a, $S/a }"
        right = "element p { $S/a }"
        forest = random_forest(NATURAL, num_trees=1, depth=2, fanout=2, seed=3,
                               annotation_fn=lambda rng: 1)
        boolean_forest = random_forest(BOOLEAN, num_trees=1, depth=2, fanout=2, seed=3,
                                       annotation_fn=lambda rng: True)
        assert evaluate_query(left, BOOLEAN, {"S": boolean_forest}) == evaluate_query(
            right, BOOLEAN, {"S": boolean_forest}
        )
        if not evaluate_query("element p { $S/a }", NATURAL, {"S": forest}).children.is_empty():
            assert evaluate_query(left, NATURAL, {"S": forest}) != evaluate_query(
                right, NATURAL, {"S": forest}
            )


class TestProposition4:
    """NRC(RA+) on encoded K-relations agrees with the K-relational algebra."""

    def _encode(self, relation: KRelation) -> KSet:
        return relation_to_kset(relation.semiring, list(relation.items()))

    def test_projection(self):
        relation = KRelation(NATURAL, ("A", "B"), [(("a", "x"), 2), (("a", "y"), 3)])
        expr = project_expr(Var("R"), 2, [0])
        result = evaluate_nrc(expr, NATURAL, {"R": self._encode(relation)})
        assert kset_to_relation_rows(result, 1) == [(("a",), 5)]
        assert relation.project(["A"]).annotation(("a",)) == 5

    def test_selection(self):
        relation = KRelation(NATURAL, ("A", "B"), [(("a", "x"), 2), (("b", "x"), 7)])
        expr = select_eq_expr(Var("R"), 2, 0, "a")
        result = evaluate_nrc(expr, NATURAL, {"R": self._encode(relation)})
        expected = relation.select_eq("A", "a")
        assert kset_to_relation_rows(result, 2) == sorted(expected.items())

    def test_join_and_union_match_figure5(self):
        """The Figure 5 query expressed with the NRC(RA+) builders."""
        from repro.paperdata import figure5_expected_q, figure5_relations

        db = figure5_relations()
        r_encoded = self._encode(db["R"])
        s_encoded = self._encode(db["S"])
        pi_ab = project_expr(Var("R"), 3, [0, 1])
        pi_bc = project_expr(Var("R"), 3, [1, 2])
        right = union_all([pi_bc, Var("S")])
        joined = join_expr(pi_ab, 2, right, 2, 1, 0, [("left", 0), ("right", 1)])
        result = evaluate_nrc(joined, PROVENANCE, {"R": r_encoded, "S": s_encoded})
        expected = figure5_expected_q()
        assert dict(kset_to_relation_rows(result, 2)) == {row: ann for row, ann in expected.items()}

    def test_union_adds_annotations(self):
        relation = KRelation(NATURAL, ("A",), [(("a",), 2)])
        expr = union_all([Var("R"), Var("R")])
        result = evaluate_nrc(expr, NATURAL, {"R": self._encode(relation)})
        assert kset_to_relation_rows(result, 1) == [(("a",), 4)]


class TestThreeSemanticsAgree:
    """Compiled NRC, the direct interpreter, and (for paths) shredded Datalog agree."""

    @pytest.mark.parametrize("seed", range(3))
    def test_nrc_vs_direct_on_random_workloads(self, seed):
        forest = random_forest(PROVENANCE, num_trees=2, depth=3, fanout=2, seed=seed)
        for name, text in standard_query_suite().items():
            prepared = prepare_query(text, PROVENANCE, {"S": forest})
            assert prepared.evaluate({"S": forest}, method="nrc-codegen") == prepared.evaluate(
                {"S": forest}, method="direct"
            ), name

    @pytest.mark.parametrize("seed", range(3))
    def test_paths_vs_shredded_datalog(self, seed):
        from repro.shredding import evaluate_xpath_via_datalog
        from repro.uxquery.ast import Step

        forest = random_forest(NATURAL, num_trees=2, depth=3, fanout=2, seed=seed)
        steps = [Step("descendant-or-self", "*"), Step("child", "a")]
        answer_query = evaluate_query("$S//a", NATURAL, {"S": forest})
        assert evaluate_xpath_via_datalog(forest, steps) == answer_query

    def test_figures_by_all_methods(self):
        from repro.paperdata import figure4_expected_children, figure4_query, figure4_source
        from repro.shredding import evaluate_xpath_via_datalog
        from repro.uxquery.ast import Step

        source = figure4_source()
        expected = dict(figure4_expected_children().items())
        for method in ("nrc-codegen", "direct"):
            answer = evaluate_query(figure4_query(), PROVENANCE, {"T": source}, method=method)
            assert dict(answer.children.items()) == expected
        shredded = evaluate_xpath_via_datalog(
            source, [Step("descendant-or-self", "*"), Step("child", "c")]
        )
        assert dict(shredded.items()) == expected

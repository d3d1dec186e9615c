"""Integration tests replaying every worked example (figure) of the paper."""

from __future__ import annotations

import pytest

from repro.paperdata import (
    figure1_expected_children,
    figure1_query,
    figure1_source,
    figure4_expected_children,
    figure4_query,
    figure4_source,
    figure5_algebra,
    figure5_expected_q,
    figure5_relations,
    figure5_schemas,
    figure5_source_uxml,
    figure5_uxquery,
    figure6_expected_tuples,
    figure6_source_uxml,
    figure7_expected_clearances,
    figure7_valuation,
    section5_query,
    section5_representation,
)
from repro.relational import algebra_to_uxquery, evaluate_algebra, forest_to_relation
from repro.semirings import CLEARANCE, PROVENANCE
from repro.uxquery import evaluate_query


@pytest.mark.parametrize("method", ["nrc-codegen", "direct"])
class TestFigure1:
    def test_answer_children_match(self, method):
        answer = evaluate_query(figure1_query(), PROVENANCE, {"S": figure1_source()}, method=method)
        assert answer.label == "p"
        assert dict(answer.children.items()) == dict(figure1_expected_children())

    def test_equivalent_xpath_form(self, method):
        """The query is equivalent to the shorter XPath $S/*/* (footnote 6)."""
        answer = evaluate_query("element p { $S/*/* }", PROVENANCE, {"S": figure1_source()}, method=method)
        assert dict(answer.children.items()) == dict(figure1_expected_children())


@pytest.mark.parametrize("method", ["nrc-codegen", "direct"])
class TestFigure4:
    def test_descendant_answer(self, method):
        answer = evaluate_query(figure4_query(), PROVENANCE, {"T": figure4_source()}, method=method)
        assert answer.label == "r"
        assert dict(answer.children.items()) == dict(figure4_expected_children())

    def test_descendant_axis_spelled_out(self, method):
        answer = evaluate_query(
            "element r { $T/descendant::c }", PROVENANCE, {"T": figure4_source()}, method=method
        )
        assert dict(answer.children.items()) == dict(figure4_expected_children())


class TestFigure5:
    def test_relational_algebra_answer(self):
        assert evaluate_algebra(figure5_algebra(), figure5_relations()) == figure5_expected_q()

    @pytest.mark.parametrize("method", ["nrc-codegen", "direct"])
    def test_uxquery_on_encoding_matches(self, method):
        answer = evaluate_query(
            figure5_uxquery(), PROVENANCE, {"d": figure5_source_uxml()}, method=method
        )
        assert answer.label == "Q"
        assert forest_to_relation(answer.children, ("A", "C")) == figure5_expected_q()

    def test_proposition1_generic_translation(self):
        query = algebra_to_uxquery(figure5_algebra(), figure5_schemas())
        answer = evaluate_query(query, PROVENANCE, {"d": figure5_source_uxml()})
        assert forest_to_relation(answer, ("A", "C")) == figure5_expected_q()


@pytest.mark.parametrize("method", ["nrc-codegen", "direct"])
class TestFigure6:
    def test_extended_annotations_q1_to_q8(self, method):
        answer = evaluate_query(
            figure5_uxquery(), PROVENANCE, {"d": figure6_source_uxml()}, method=method
        )
        assert dict(answer.children.items()) == dict(figure6_expected_tuples())

    def test_non_tuple_annotations_participate(self, method):
        """Every answer annotation mentions the relation-level token w1 and the attribute token y2."""
        answer = evaluate_query(
            figure5_uxquery(), PROVENANCE, {"d": figure6_source_uxml()}, method=method
        )
        for _, annotation in answer.children.items():
            assert {"w1", "y2"} <= annotation.variables


class TestFigure7:
    def test_clearance_view(self):
        from repro.security import clearance_view_via_provenance

        view = clearance_view_via_provenance(
            figure5_uxquery(), {"d": figure6_source_uxml()}, figure7_valuation()
        )
        relation = forest_to_relation(view.children, ("A", "C"))
        assert dict(relation.items()) == figure7_expected_clearances()

    def test_access_summary(self):
        """Confidential clearance sees the first and last tuples; secret all but one (Fig. 7 text)."""
        expected = figure7_expected_clearances()
        confidential = {row for row, level in expected.items() if CLEARANCE.accessible(level, "C")}
        secret = {row for row, level in expected.items() if CLEARANCE.accessible(level, "S")}
        assert confidential == {("a", "c"), ("f", "e")}
        assert len(secret) == 5 and ("f", "c") not in secret


class TestSection5:
    def test_six_boolean_worlds(self):
        from repro.incomplete import mod_boolean

        assert len(mod_boolean(section5_representation())) == 6

    def test_strong_representation(self):
        from repro.incomplete import check_strong_representation
        from repro.semirings import BOOLEAN

        report = check_strong_representation(
            section5_query(), "T", section5_representation(), BOOLEAN
        )
        assert report["holds"]


class TestSection7:
    def test_shredded_descendant_query(self):
        from repro.shredding import evaluate_xpath_via_datalog
        from repro.uxml.navigation import double_slash
        from repro.uxquery.ast import Step

        source = figure4_source(x1="0")
        answer = evaluate_xpath_via_datalog(
            source, [Step("descendant-or-self", "*"), Step("child", "c")]
        )
        assert answer == double_slash(source, "c")

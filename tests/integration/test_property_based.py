"""Property-based differential testing across the whole pipeline.

These tests generate random annotated documents with hypothesis and check the
library's central invariants end to end:

* the compiled (NRC_K + srt) and direct semantics agree on every query family;
* parsing/serializing documents round-trips;
* shredding and unshredding round-trips;
* query evaluation is monotone in the source (adding data never removes
  answers) — a consequence of positivity;
* the engine never mutates its inputs (values are immutable).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kcollections import KSet
from repro.semirings import BOOLEAN, NATURAL, PROVENANCE, Polynomial
from repro.uxml import UTree, parse_forest, forest_to_xml
from repro.uxquery import evaluate_query, prepare_query
from repro.shredding import shred_forest, unshred
from repro.workloads import standard_query_suite

# ---------------------------------------------------------------------------
# Random K-UXML generators (hypothesis strategies)
# ---------------------------------------------------------------------------
_LABELS = st.sampled_from(["a", "b", "c", "d"])
_NAT_ANNOTATIONS = st.integers(min_value=1, max_value=3)


def _nat_trees(max_depth: int):
    if max_depth <= 1:
        return st.builds(lambda label: UTree(label, KSet.empty(NATURAL)), _LABELS)
    children = st.lists(
        st.tuples(_nat_trees(max_depth - 1), _NAT_ANNOTATIONS), min_size=0, max_size=3
    )
    return st.builds(
        lambda label, kids: UTree(label, KSet(NATURAL, kids)), _LABELS, children
    )


_NAT_FORESTS = st.lists(
    st.tuples(_nat_trees(3), _NAT_ANNOTATIONS), min_size=1, max_size=3
).map(lambda members: KSet(NATURAL, members))

_QUERIES = st.sampled_from(sorted(standard_query_suite().items()))


@settings(max_examples=40, deadline=None)
@given(_NAT_FORESTS, _QUERIES)
def test_compiled_and_direct_semantics_agree(forest, named_query):
    _, query = named_query
    prepared = prepare_query(query, NATURAL, {"S": forest})
    assert prepared.evaluate({"S": forest}, method="nrc-codegen") == prepared.evaluate(
        {"S": forest}, method="direct"
    )


@settings(max_examples=40, deadline=None)
@given(_NAT_FORESTS)
def test_xml_round_trip(forest):
    assert parse_forest(forest_to_xml(forest), NATURAL) == forest


@settings(max_examples=40, deadline=None)
@given(_NAT_FORESTS)
def test_shredding_round_trip(forest):
    assert unshred(shred_forest(forest), NATURAL) == forest


@settings(max_examples=30, deadline=None)
@given(_NAT_FORESTS, _NAT_FORESTS, _QUERIES)
def test_positivity_monotonicity(left, right, named_query):
    """Adding data never removes answers (over N every annotation only grows)."""
    _, query = named_query
    small = evaluate_query(query, NATURAL, {"S": left})
    combined = evaluate_query(query, NATURAL, {"S": left.union(right)})
    for member, annotation in small.children.items():
        assert combined.children.annotation(member) >= annotation


@settings(max_examples=30, deadline=None)
@given(_NAT_FORESTS, _QUERIES)
def test_evaluation_does_not_mutate_inputs(forest, named_query):
    _, query = named_query
    snapshot = KSet(NATURAL, list(forest.items()))
    evaluate_query(query, NATURAL, {"S": forest})
    assert forest == snapshot


@settings(max_examples=30, deadline=None)
@given(_NAT_FORESTS, _QUERIES)
def test_scaling_the_source_scales_the_answer(forest, named_query):
    """Linearity in the source: the workload queries use each root once per
    derivation, so multiplying every root annotation by 2 exactly doubles every
    answer annotation (a consequence of the semimodule laws)."""
    _, query = named_query
    answer = evaluate_query(query, NATURAL, {"S": forest})
    doubled = evaluate_query(query, NATURAL, {"S": forest.scale(2)})
    assert doubled.children.support() == answer.children.support()
    for member, annotation in answer.children.items():
        assert doubled.children.annotation(member) == 2 * annotation


@settings(max_examples=25, deadline=None)
@given(_NAT_FORESTS, _QUERIES)
def test_boolean_answers_are_supports_of_bag_answers(forest, named_query):
    """dagger(p_N(v)) == p_B(dagger(v)) — support of the bag answer equals the set answer."""
    from repro.nrc.values import map_value_annotations
    from repro.semirings import duplicate_elimination

    _, query = named_query
    dagger = duplicate_elimination()
    bag_answer = evaluate_query(query, NATURAL, {"S": forest})
    boolean_answer = evaluate_query(
        query, BOOLEAN, {"S": map_value_annotations(forest, dagger)}
    )
    assert map_value_annotations(bag_answer, dagger) == boolean_answer

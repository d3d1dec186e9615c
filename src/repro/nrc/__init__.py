"""NRC_K + srt: the nested relational calculus on semiring-annotated complex values.

This is the paper's Section 6: the compilation target of K-UXQuery and the
setting of the commutation-with-homomorphisms theorem (Theorem 1).

Two evaluators implement the Figure 8 semantics and agree on every
expression (the equivalence corpus and the differential fuzz suite in
``tests/nrc/`` check this for every registry semiring):

* :func:`repro.nrc.eval.evaluate` — the *reference* interpreter, a direct
  transcription of the semantic equations.  Use it when reading the code next
  to the paper, and as the oracle that the production evaluator is checked
  against (``tests/nrc/test_evaluator_equiv.py``).
* :func:`repro.nrc.codegen.compile_codegen` — the production evaluator:
  prints the expression as specialized Python source (fused bind loops,
  inlined semiring scalar ops, ``srt`` as a memoized recursive function) and
  byte-compiles it.  Total: every expression over every semiring compiles.
"""

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
    expression_size,
    free_variables,
    iter_subexpressions,
    substitute,
)
from repro.nrc.builders import (
    cartesian_product_expr,
    filter_expr,
    flatten_expr,
    join_expr,
    kset_to_relation_rows,
    nested_pair_expr,
    nested_pair_projection,
    project_expr,
    relation_to_kset,
    select_eq_expr,
    tuple_to_value,
    union_all,
    value_to_tuple,
)
from repro.nrc.codegen import CodegenProgram, compile_codegen
from repro.nrc.eval import evaluate
from repro.nrc.rewrite import count_nodes, map_scalars, rewrite_once, simplify
from repro.nrc.typecheck import typecheck
from repro.nrc.types import (
    LABEL,
    TREE,
    UNKNOWN,
    LabelType,
    ProductType,
    SetType,
    TreeType,
    Type,
    UnknownType,
    unify,
)
from repro.nrc.values import Pair, infer_type, is_complex_value, map_value_annotations, value_to_str

__all__ = [
    # ast
    "Expr",
    "LabelLit",
    "Var",
    "EmptySet",
    "Singleton",
    "Union",
    "Scale",
    "BigUnion",
    "IfEq",
    "PairExpr",
    "Proj",
    "TreeExpr",
    "Tag",
    "Kids",
    "Srt",
    "Let",
    "free_variables",
    "substitute",
    "expression_size",
    "iter_subexpressions",
    # types
    "Type",
    "LabelType",
    "TreeType",
    "ProductType",
    "SetType",
    "UnknownType",
    "LABEL",
    "TREE",
    "UNKNOWN",
    "unify",
    # values
    "Pair",
    "is_complex_value",
    "infer_type",
    "map_value_annotations",
    "value_to_str",
    # evaluation / typing / rewriting
    "evaluate",
    "CodegenProgram",
    "compile_codegen",
    "typecheck",
    "simplify",
    "rewrite_once",
    "map_scalars",
    "count_nodes",
    # builders
    "union_all",
    "flatten_expr",
    "cartesian_product_expr",
    "filter_expr",
    "tuple_to_value",
    "value_to_tuple",
    "relation_to_kset",
    "kset_to_relation_rows",
    "project_expr",
    "select_eq_expr",
    "join_expr",
    "nested_pair_expr",
    "nested_pair_projection",
]

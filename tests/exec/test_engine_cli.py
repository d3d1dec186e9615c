"""Wiring: documents=/executor= on the engine, method validation, CLI batch."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main
from repro.errors import UXQueryEvalError
from repro.exec import default_plan_cache
from repro.semirings import NATURAL
from repro.uxquery import evaluate_query, prepare_query
from repro.uxquery.engine import VALID_METHODS, validate_method
from repro.workloads import random_forest


def _documents(count=4):
    return [random_forest(NATURAL, 3, 3, 2, seed=100 + i) for i in range(count)]


class TestMethodValidation:
    def test_valid_methods_pass_through(self):
        for method in VALID_METHODS:
            assert validate_method(method) == method

    def test_unknown_method_lists_valid_ones(self):
        with pytest.raises(UXQueryEvalError) as excinfo:
            validate_method("turbo")
        message = str(excinfo.value)
        for method in VALID_METHODS:
            assert repr(method) in message

    def test_prepared_evaluate_rejects_unknown_method(self):
        documents = _documents(1)
        prepared = prepare_query("($S)/*", NATURAL, {"S": documents[0]})
        with pytest.raises(UXQueryEvalError, match="valid methods"):
            prepared.evaluate({"S": documents[0]}, method="fastest")

    def test_evaluate_query_rejects_unknown_method(self):
        documents = _documents(1)
        with pytest.raises(UXQueryEvalError, match="valid methods"):
            evaluate_query("($S)/*", NATURAL, {"S": documents[0]}, method="fastest")


class TestEngineBatchWiring:
    def test_documents_parameter_on_evaluate_query(self):
        documents = _documents()
        results = evaluate_query("($S)/*/*", NATURAL, documents=documents)
        single = [
            evaluate_query("($S)/*/*", NATURAL, {"S": document}) for document in documents
        ]
        assert results == single

    def test_documents_with_executor(self):
        documents = _documents()
        with ThreadPoolExecutor(max_workers=2) as executor:
            results = evaluate_query(
                "($S)//c", NATURAL, documents=documents, executor=executor
            )
        single = [
            evaluate_query("($S)//c", NATURAL, {"S": document}) for document in documents
        ]
        assert results == single

    def test_documents_with_explicit_var(self):
        documents = _documents(2)
        results = evaluate_query(
            "($D)/*", NATURAL, documents=documents, document_var="D"
        )
        assert results == [
            evaluate_query("($D)/*", NATURAL, {"D": document}) for document in documents
        ]

    def test_prepared_evaluate_documents(self):
        documents = _documents(3)
        prepared = prepare_query("($S)/*", NATURAL, {"S": documents[0]})
        results = prepared.evaluate(documents=documents)
        assert results == [prepared.evaluate({"S": document}) for document in documents]

    def test_empty_documents_list_returns_empty(self):
        assert evaluate_query("($S)/*", NATURAL, documents=[]) == []

    def test_empty_documents_still_validate_method_and_query(self):
        from repro.errors import UXQuerySyntaxError

        with pytest.raises(UXQueryEvalError, match="valid methods"):
            evaluate_query("($S)/*", NATURAL, documents=[], method="nrcc")
        with pytest.raises(UXQuerySyntaxError):
            evaluate_query("for $x in", NATURAL, documents=[])

    def test_mismatched_document_var_fails_loudly(self):
        """Documents bound to a non-free variable must not be silently ignored."""
        from repro.errors import ExecError

        documents = _documents(2)
        with pytest.raises(ExecError, match="not a free variable"):
            evaluate_query(
                "($D)/*", NATURAL, env={"D": documents[0]}, documents=documents
            )

    def test_mismatched_document_var_without_env_hints_at_document_var(self):
        from repro.errors import UXQueryTypeError

        documents = _documents(2)
        with pytest.raises(UXQueryTypeError, match="document_var="):
            evaluate_query("($D)/*", NATURAL, documents=documents)


BAG_DOCS = {
    "one.xml": '<a><b annot="2"/><b annot="3"/></a>',
    "two.xml": '<a><b annot="1"/><c annot="4"/></a>',
    "three.xml": '<a><c annot="5"/></a>',
}


@pytest.fixture
def document_dir(tmp_path):
    for name, text in BAG_DOCS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "ignored.txt").write_text("not xml", encoding="utf-8")
    return str(tmp_path)


class TestCliBatch:
    def test_batch_per_file_output(self, document_dir, capsys):
        assert (
            main(
                ["batch", "--query", "($S)/*", "--dir", document_dir, "--semiring", "N"]
            )
            == 0
        )
        output = capsys.readouterr().out
        # Files are processed in sorted order, each under its own header.
        assert output.index("== one.xml") < output.index("== three.xml") < output.index(
            "== two.xml"
        )
        assert "b^{5}" in output  # one.xml: the two b's merge
        assert "c^{5}" in output  # three.xml

    def test_batch_merged_output(self, document_dir, capsys):
        assert (
            main(
                [
                    "batch",
                    "--query",
                    "($S)/*",
                    "--dir",
                    document_dir,
                    "--semiring",
                    "N",
                    "--merge",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "==" not in output
        assert "b^{6}" in output  # 2+3 from one.xml, 1 from two.xml
        assert "c^{9}" in output  # 4 from two.xml, 5 from three.xml

    def test_batch_with_jobs(self, document_dir, capsys):
        assert (
            main(
                [
                    "batch",
                    "--query",
                    "($S)/*",
                    "--dir",
                    document_dir,
                    "--semiring",
                    "N",
                    "--jobs",
                    "3",
                ]
            )
            == 0
        )
        assert "b^{5}" in capsys.readouterr().out

    def test_batch_uses_the_plan_cache(self, document_dir, capsys):
        before = default_plan_cache().stats().compiles
        query = "($S)/*, ($S)//zzz"  # unlikely to collide with other tests
        assert main(["batch", "--query", query, "--dir", document_dir, "-k", "N"]) == 0
        assert main(["batch", "--query", query, "--dir", document_dir, "-k", "N"]) == 0
        capsys.readouterr()
        assert default_plan_cache().stats().compiles == before + 1

    def test_batch_empty_directory_errors(self, tmp_path, capsys):
        assert main(["batch", "--query", "($S)/*", "--dir", str(tmp_path)]) == 1
        assert "no documents" in capsys.readouterr().err

    def test_batch_method_choices_enforced(self, document_dir, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "batch",
                    "--query",
                    "($S)/*",
                    "--dir",
                    document_dir,
                    "--method",
                    "turbo",
                ]
            )

    def test_query_method_flag_reaches_interpreter(self, document_dir, capsys):
        document = f"{document_dir}/one.xml"
        for method in ("nrc-codegen", "nrc-interp", "direct"):
            assert (
                main(
                    [
                        "query",
                        "--query",
                        "($S)/*",
                        "--input",
                        document,
                        "--semiring",
                        "N",
                        "--method",
                        method,
                    ]
                )
                == 0
            )
            assert "b^{5}" in capsys.readouterr().out

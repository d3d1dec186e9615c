"""The ``store`` CLI subcommand family."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.semirings import NATURAL
from repro.store import DocumentStore
from repro.uxquery import prepare_query
from repro.uxml import parse_document

DOCUMENT_XML = """
<a annot="2">
  <b annot="3"> <c/> </b>
  <c annot="1"/>
</a>
"""

UPDATE_TREE = '<b annot="4"><c/></b>'


@pytest.fixture
def document_path(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(DOCUMENT_XML, encoding="utf-8")
    return str(path)


@pytest.fixture
def store_dir(tmp_path):
    return str(tmp_path / "catalog.store")


def _ingest(store_dir, document_path):
    return main(
        [
            "store", "ingest",
            "--dir", store_dir,
            "--input", document_path,
            "--doc", "doc",
            "--semiring", "natural",
        ]
    )


class TestStoreCli:
    def test_ingest_creates_store(self, store_dir, document_path, capsys):
        assert _ingest(store_dir, document_path) == 0
        output = capsys.readouterr().out
        assert output == "ingested 'doc': 4 edge rows, 3 distinct labels\n"
        reopened = DocumentStore.open(store_dir)
        assert reopened.document_ids() == ["doc"]

    def test_ingest_duplicate_fails_without_replace(self, store_dir, document_path, capsys):
        assert _ingest(store_dir, document_path) == 0
        assert _ingest(store_dir, document_path) == 1
        assert "already exists" in capsys.readouterr().err
        assert main(
            [
                "store", "ingest", "--dir", store_dir,
                "--input", document_path, "--doc", "doc", "--replace",
            ]
        ) == 0

    def test_query_matches_single_shot(self, store_dir, document_path, capsys):
        _ingest(store_dir, document_path)
        capsys.readouterr()
        assert main(
            ["store", "query", "--dir", store_dir, "--query", "element out { $S//c }"]
        ) == 0
        output = capsys.readouterr().out.strip()
        document = parse_document(DOCUMENT_XML, NATURAL, "annot")
        prepared = prepare_query("element out { $S//c }", NATURAL, {"S": document})
        assert output == str(prepared.evaluate({"S": document})).strip()

    def test_query_stats_report_pushdown(self, store_dir, document_path, capsys):
        _ingest(store_dir, document_path)
        capsys.readouterr()
        assert main(
            [
                "store", "query", "--dir", store_dir,
                "--query", "$S//c", "--stats",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "pushdown: served 1 (1 index-only)" in output
        assert "plan cache:" in output

    def test_update_and_compact_cycle(self, store_dir, document_path, tmp_path, capsys):
        _ingest(store_dir, document_path)
        updates = tmp_path / "updates.jsonl"
        updates.write_text(
            "\n".join(
                [
                    json.dumps({"op": "insert", "tree": UPDATE_TREE}),
                    "# a comment line",
                    json.dumps({"op": "delete", "tree": UPDATE_TREE, "annot": "4"}),
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        assert main(
            [
                "store", "update", "--dir", store_dir,
                "--doc", "doc", "--updates", str(updates), "--stats",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "applied 2 update(s)" in output
        assert "wal records 3" in output

        assert main(["store", "compact", "--dir", store_dir]) == 0
        assert "snapshot written" in capsys.readouterr().out
        reopened = DocumentStore.open(store_dir)
        # Updates cancelled out: back to the ingested document.
        assert reopened.forest("doc") == parse_document(DOCUMENT_XML, NATURAL, "annot")
        assert reopened.stats().recovered_records == 0  # served by the snapshot

    def test_stats_subcommand(self, store_dir, document_path, capsys):
        _ingest(store_dir, document_path)
        capsys.readouterr()
        assert main(["store", "stats", "--dir", store_dir]) == 0
        output = capsys.readouterr().out
        assert "store: 1 document(s)" in output
        assert "durability:" in output

    def test_query_missing_store_errors(self, store_dir, capsys):
        assert main(["store", "query", "--dir", store_dir, "--query", "$S/*"]) == 1
        assert "no store at" in capsys.readouterr().err

    def test_failed_first_ingest_leaves_no_store(self, store_dir, tmp_path, capsys):
        """A bad input document must not pin a half-created store."""
        bad = tmp_path / "bad.xml"
        bad.write_text("<unclosed", encoding="utf-8")
        assert main(
            ["store", "ingest", "--dir", store_dir, "--input", str(bad), "--doc", "d"]
        ) == 1
        capsys.readouterr()
        from pathlib import Path

        assert not (Path(store_dir) / "meta.json").exists()
        # A corrected retry with a different semiring succeeds cleanly.
        good = tmp_path / "good.xml"
        good.write_text('<p><a annot="2"/></p>', encoding="utf-8")
        assert main(
            [
                "store", "ingest", "--dir", store_dir,
                "--input", str(good), "--doc", "d", "--semiring", "natural",
            ]
        ) == 0
        assert DocumentStore.open(store_dir).semiring == NATURAL

    def test_semiring_pinned(self, store_dir, document_path, capsys):
        _ingest(store_dir, document_path)
        capsys.readouterr()
        # A mismatching --semiring against an existing store is an error,
        # not silently ignored.
        assert main(
            [
                "store", "ingest", "--dir", store_dir,
                "--input", document_path, "--doc", "doc2",
                "--semiring", "boolean",
            ]
        ) == 1
        assert "is over natural" in capsys.readouterr().err
        # Omitting (or matching) the flag works against the pinned semiring.
        assert main(
            [
                "store", "ingest", "--dir", store_dir,
                "--input", document_path, "--doc", "doc2",
            ]
        ) == 0
        reopened = DocumentStore.open(store_dir)
        assert reopened.semiring == NATURAL
        assert sorted(reopened.document_ids()) == ["doc", "doc2"]

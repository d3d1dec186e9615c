"""The command-line front end."""

from __future__ import annotations

import pytest

from repro.cli import main

FIGURE1_XML = """
<a annot="z">
  <b annot="x1"> <d annot="y1"/> </b>
  <c annot="x2"> <d annot="y2"/> <e annot="y3"/> </c>
</a>
"""


@pytest.fixture
def document_path(tmp_path):
    path = tmp_path / "figure1.xml"
    path.write_text(FIGURE1_XML, encoding="utf-8")
    return str(path)


class TestCli:
    def test_semirings_listing(self, capsys):
        assert main(["semirings"]) == 0
        output = capsys.readouterr().out
        assert "provenance-polynomials" in output
        assert "boolean" in output

    def test_query_paper_output(self, document_path, capsys):
        exit_code = main(
            [
                "query",
                "--query",
                "element p { $S/*/* }",
                "--input",
                document_path,
                "--semiring",
                "N[X]",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "d^{x1*y1*z + x2*y2*z}" in output
        assert "e^{x2*y3*z}" in output

    def test_query_from_file_and_xml_output(self, document_path, tmp_path, capsys):
        query_path = tmp_path / "query.uxq"
        query_path.write_text("element p { $S//d }", encoding="utf-8")
        exit_code = main(
            [
                "query",
                "--query",
                f"@{query_path}",
                "--input",
                document_path,
                "--format",
                "xml",
                "--method",
                "direct",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert output.strip().startswith("<p>")
        assert "annot=" in output

    def test_query_over_natural_semiring(self, tmp_path, capsys):
        path = tmp_path / "bag.xml"
        path.write_text('<a><b annot="2"/><b annot="3"/></a>', encoding="utf-8")
        assert main(["query", "--query", "($S)/*", "--input", str(path), "--semiring", "N"]) == 0
        assert "b^{5}" in capsys.readouterr().out

    def test_specialize(self, document_path, capsys):
        exit_code = main(
            [
                "specialize",
                "--input",
                document_path,
                "--semiring",
                "N",
                "--set",
                "x1=2",
                "--set",
                "y1=3",
                "--format",
                "paper",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "b^{2}" in output
        assert "d^{3}" in output

    def test_specialize_rejects_bad_binding(self, document_path, capsys):
        exit_code = main(
            ["specialize", "--input", document_path, "--semiring", "N", "--set", "oops"]
        )
        assert exit_code == 1
        assert "error" in capsys.readouterr().err

    def test_shred(self, document_path, capsys):
        assert main(["shred", "--input", document_path]) == 0
        output = capsys.readouterr().out
        assert "pid | nid | label" in output
        assert "x1" in output

    def test_missing_file(self, capsys):
        exit_code = main(["query", "--query", "($S)", "--input", "/does/not/exist.xml"])
        assert exit_code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_query_reports_error(self, document_path, capsys):
        exit_code = main(["query", "--query", "for $x in", "--input", document_path])
        assert exit_code == 1
        assert "error" in capsys.readouterr().err


class TestCliExplain:
    def test_explain_prints_generated_source(self, capsys):
        assert main(["explain", "-q", "element out { $S/*/* }", "-k", "N"]) == 0
        output = capsys.readouterr().out
        assert "simplified" in output
        assert "nrc-codegen" in output
        assert "def _nrc_program(frame):" in output
        assert "_from_normalized" in output

    def test_explain_prints_generated_srt_recursion(self, capsys):
        assert main(["explain", "-q", "element out { $S//c }", "-k", "N"]) == 0
        output = capsys.readouterr().out
        assert "evaluator    : nrc-codegen" in output
        assert "def _srt" in output
        assert "declined" not in output

    def test_explain_with_extra_typed_variables(self, capsys):
        query = "for $x in $S where name($x) = $l return ($x)/*"
        assert main(["explain", "-q", query, "-k", "N", "--type", "l=label"]) == 0
        output = capsys.readouterr().out
        assert "def _nrc_program(frame):" in output

    def test_explain_rejects_bad_type_declaration(self, capsys):
        exit_code = main(["explain", "-q", "($S)", "--type", "l=bogus"])
        assert exit_code == 1
        assert "forest|tree|label" in capsys.readouterr().err

    def test_query_accepts_codegen_method(self, document_path, capsys):
        assert (
            main(
                [
                    "query",
                    "--query",
                    "($S)/*",
                    "--input",
                    document_path,
                    "--method",
                    "nrc-codegen",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out.strip()


class TestCliHelpText:
    """Every promised command and flag shows up in the help output."""

    def _help_of(self, capsys, argv: list[str]) -> str:
        with pytest.raises(SystemExit) as stop:
            main(argv + ["--help"])
        assert stop.value.code == 0
        return capsys.readouterr().out

    def test_top_level_help_lists_every_command(self, capsys):
        output = self._help_of(capsys, [])
        for command in (
            "query", "explain", "batch", "maintain", "cache-stats",
            "metrics", "events", "replay", "report", "bench-check",
            "faults", "specialize", "shred", "store",
        ):
            assert command in output, f"{command!r} missing from top-level help"

    def test_metrics_help_documents_serve(self, capsys):
        output = self._help_of(capsys, ["metrics"])
        assert "--serve" in output
        assert "/metrics" in output and "/readyz" in output

    def test_events_help_documents_the_flight_recorder(self, capsys):
        output = self._help_of(capsys, ["events"])
        assert "--follow" in output
        assert "--kind" in output
        assert "REPRO_EVENT_LOG" in output

    def test_bench_check_help_documents_the_watchdog(self, capsys):
        output = self._help_of(capsys, ["bench-check"])
        assert "--threshold" in output
        assert "--history" in output
        assert "BENCH_history" in output

    def test_replay_help_documents_the_workload_replayer(self, capsys):
        output = self._help_of(capsys, ["replay"])
        assert "--compare" in output
        assert "--store" in output
        assert "--max-rate" in output
        assert "--speed" in output
        assert "REPRO_QUERY_LOG" in output

    def test_report_help_documents_the_aggregator(self, capsys):
        output = self._help_of(capsys, ["report"])
        assert "--sort" in output
        assert "--limit" in output
        assert "signature" in output


class TestCliQueryLog:
    """The replay/report commands and the env-refresh discipline."""

    QUERY = "($S)/*"

    def _captured_store(self, tmp_path, monkeypatch):
        """A store with two documents and a qlog capture of queries over them."""
        from repro.obs import qlog

        document = tmp_path / "doc.xml"
        document.write_text(
            '<a annot="1"><b annot="2"><d annot="1"/></b><c annot="3"/></a>',
            encoding="utf-8",
        )
        store_dir = str(tmp_path / "store")
        capture = tmp_path / "capture.jsonl"
        for doc_id in ("d1", "d2"):
            assert main([
                "store", "ingest", "--dir", store_dir, "--input", str(document),
                "--doc", doc_id, "--semiring", "natural",
            ]) == 0
        monkeypatch.setenv("REPRO_QUERY_LOG", str(capture))
        qlog.refresh_qlog_config()
        try:
            for doc_id in ("d1", "d2"):
                assert main([
                    "store", "query", "--dir", store_dir,
                    "--doc", doc_id, "-q", self.QUERY,
                ]) == 0
        finally:
            monkeypatch.delenv("REPRO_QUERY_LOG")
            qlog.refresh_qlog_config()
        return store_dir, capture

    def test_replay_compare_verifies_digests(self, tmp_path, monkeypatch, capsys):
        store_dir, capture = self._captured_store(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main([
            "replay", str(capture), "--store", store_dir, "--compare", "--max-rate",
        ]) == 0
        output = capsys.readouterr().out
        assert "digest mismatches: 0" in output
        assert "signature mismatches: 0" in output
        assert "replayed 2 store record(s)" in output

    def test_replay_detects_a_tampered_digest(self, tmp_path, monkeypatch, capsys):
        import json

        store_dir, capture = self._captured_store(tmp_path, monkeypatch)
        records = [
            json.loads(line) for line in capture.read_text().splitlines()
        ]
        records[0]["digest"] = "0" * 32
        capture.write_text(
            "".join(json.dumps(record) + "\n" for record in records)
        )
        capsys.readouterr()
        assert main([
            "replay", str(capture), "--store", store_dir, "--compare", "--max-rate",
        ]) == 1
        output = capsys.readouterr().out
        assert "digest mismatches: 1" in output

    def test_replay_without_store_is_prepare_only(self, tmp_path, monkeypatch, capsys):
        _store_dir, capture = self._captured_store(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["replay", str(capture), "--max-rate"]) == 0
        output = capsys.readouterr().out
        assert "re-prepared 2" in output
        assert "signature mismatches: 0" in output

    def test_report_renders_the_signature_table(self, tmp_path, monkeypatch, capsys):
        import json

        _store_dir, capture = self._captured_store(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["report", str(capture)]) == 0
        table = capsys.readouterr().out
        first = json.loads(capture.read_text().splitlines()[0])
        assert first["sig"][:16] in table
        assert main(["report", str(capture), "--json", "--sort", "count"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[first["sig"]]["count"] == 2

    def test_events_follow_refreshes_env_config(self, tmp_path, monkeypatch):
        # Regression: long-runners must re-read the observability env vars
        # (the way `metrics --serve` always did) before entering their loop.
        from repro import cli
        from repro.obs import events, profile, qlog

        called: dict = {}
        monkeypatch.setattr(
            cli,
            "_follow_event_log",
            lambda path, kind: (called.setdefault("args", (path, kind)), 0)[-1],
        )
        log = tmp_path / "events.jsonl"
        log.write_text("")
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "77.5")
        monkeypatch.setenv("REPRO_QLOG", "on")
        try:
            assert cli.main(["events", "--follow", "--log", str(log)]) == 0
            assert called["args"] == (str(log), None)
            assert profile.slow_query_ms() == 77.5
            assert qlog.is_recording()
        finally:
            monkeypatch.delenv("REPRO_SLOW_QUERY_MS")
            monkeypatch.delenv("REPRO_QLOG")
            profile.refresh_slow_query_config()
            events.refresh_event_config()
            qlog.refresh_qlog_config()

    def test_replay_and_report_refresh_env_config(self, tmp_path, monkeypatch, capsys):
        from repro.obs import qlog

        _store_dir, capture = self._captured_store(tmp_path, monkeypatch)
        monkeypatch.setenv("REPRO_QLOG", "on")
        try:
            assert main(["report", str(capture)]) == 0
            assert qlog.is_recording()
        finally:
            monkeypatch.delenv("REPRO_QLOG")
            qlog.refresh_qlog_config()
        capsys.readouterr()

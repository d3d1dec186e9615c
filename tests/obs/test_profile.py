"""Per-operator profiling under both NRC evaluators + the slow-query log."""

from __future__ import annotations

import json

import pytest

from repro.errors import UXQueryEvalError
from repro.obs import profile as profile_module
from repro.obs.profile import (
    clear_slow_queries,
    profile_evaluate,
    refresh_slow_query_config,
    slow_queries,
    slow_query_ms,
)
from repro.semirings import NATURAL, PROVENANCE
from repro.uxquery import prepare_query
from repro.workloads import random_forest

METHODS = ("nrc-codegen", "nrc-interp")


@pytest.fixture
def forest():
    return random_forest(NATURAL, num_trees=3, depth=3, fanout=2, seed=21)


class TestProfileEvaluate:
    @pytest.mark.parametrize("method", METHODS)
    def test_result_matches_unprofiled_evaluation(self, forest, method):
        prepared = prepare_query("($S)/*/*", NATURAL, {"S": forest})
        expected = prepared.evaluate({"S": forest}, method=method)
        result, report = profile_evaluate(prepared, {"S": forest}, method=method)
        assert result == expected
        assert report.method == method
        assert report.total_s >= 0.0

    @pytest.mark.parametrize("method", METHODS)
    def test_operators_record_calls_and_rows(self, forest, method):
        prepared = prepare_query("($S)/*", NATURAL, {"S": forest})
        result, report = profile_evaluate(prepared, {"S": forest}, method=method)
        payload = report.to_dict()
        assert payload["operators"], "profile must contain an operator tree"

        def flatten(nodes):
            for node in nodes:
                yield node
                yield from flatten(node["children"])

        ops = list(flatten(payload["operators"]))
        timed = [op for op in ops if not op["fused"]]
        assert any(op["calls"] > 0 for op in timed)
        assert all(op["time_ms"] >= 0.0 for op in timed)
        # Row counts surface real cardinalities somewhere in the tree.
        assert any(op["rows"] > 0 for op in timed)
        json.dumps(payload)  # --analyze output must be serializable

    def test_codegen_profile_marks_fused_loops(self, forest):
        prepared = prepare_query("($S)/*/*", NATURAL, {"S": forest})
        _result, report = profile_evaluate(prepared, {"S": forest}, method="nrc-codegen")
        payload = report.to_dict()

        def flatten(nodes):
            for node in nodes:
                yield node
                yield from flatten(node["children"])

        fused = [op for op in flatten(payload["operators"]) if op["fused"]]
        assert fused, "big unions must appear as fused loop operators"
        assert any(op["calls"] > 0 for op in fused)  # iteration counts
        assert "fused" in report.render()

    def test_codegen_profiles_generated_srt_operators(self, forest):
        prepared = prepare_query("($S)//b", NATURAL, {"S": forest})
        expected = prepared.evaluate({"S": forest}, method="nrc-interp")
        result, report = profile_evaluate(prepared, {"S": forest}, method="nrc-codegen")
        assert result == expected

        def flatten(nodes):
            for node in nodes:
                yield node
                yield from flatten(node["children"])

        ops = list(flatten(report.to_dict()["operators"]))
        srt = [op for op in ops if op["op"] == "Srt"]
        assert srt and all(op["calls"] > 0 for op in srt)
        # Operators inside the recursion run once per visited subtree.
        body = [op for root in srt for op in flatten(root["children"])]
        assert any(op["calls"] > srt[0]["calls"] for op in body if not op["fused"])
        assert "declined" not in report.render()

    def test_profiling_never_touches_the_production_programs(self, forest):
        document = random_forest(PROVENANCE, 2, 2, 2, seed=3)
        prepared = prepare_query("($S)/*", PROVENANCE, {"S": document})
        production = prepared.generated
        profile_evaluate(prepared, {"S": document})
        assert prepared.generated is production  # same uninstrumented object
        assert "_PREC" not in prepared.generated.source

    def test_unprofilable_method_is_rejected(self, forest):
        prepared = prepare_query("($S)/*", NATURAL, {"S": forest})
        with pytest.raises(UXQueryEvalError, match="cannot profile"):
            profile_evaluate(prepared, {"S": forest}, method="direct")

    def test_interp_hook_disarms_after_profiling(self, forest):
        from repro.nrc import eval as interp

        prepared = prepare_query("($S)/*", NATURAL, {"S": forest})
        profile_evaluate(prepared, {"S": forest}, method="nrc-interp")
        assert interp._PROFILE is None


class TestSlowQueryLog:
    @pytest.fixture(autouse=True)
    def _restore_config(self):
        yield
        refresh_slow_query_config({})
        clear_slow_queries()

    def test_disarmed_by_default(self):
        refresh_slow_query_config({})
        assert slow_query_ms() is None

    def test_threshold_records_query_and_stage_timings(self, forest):
        refresh_slow_query_config({"REPRO_SLOW_QUERY_MS": "0"})
        clear_slow_queries()
        prepared = prepare_query("($S)/*/*", NATURAL, {"S": forest})
        prepared.evaluate({"S": forest})
        entries = slow_queries()
        assert entries, "a 0ms threshold must catch every query"
        entry = entries[-1]
        assert entry["query"] == "($S)/child::*/child::*"
        assert entry["method"] == "nrc-codegen"
        assert entry["semiring"] == NATURAL.name
        assert entry["duration_ms"] >= 0.0
        assert "typecheck" in entry["stage_timings_ms"]
        json.dumps(entry)  # JSONL-appendable

    def test_slow_queries_append_to_the_log_file(self, forest, tmp_path):
        log_path = tmp_path / "slow.jsonl"
        refresh_slow_query_config(
            {"REPRO_SLOW_QUERY_MS": "0", "REPRO_SLOW_QUERY_LOG": str(log_path)}
        )
        clear_slow_queries()
        prepared = prepare_query("($S)/*", NATURAL, {"S": forest})
        prepared.evaluate({"S": forest})
        prepared.evaluate({"S": forest})
        lines = log_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        for line in lines:
            assert json.loads(line)["query"] == "($S)/child::*"

    def test_slow_query_counter_publishes_to_the_registry(self, forest):
        counter = profile_module._SLOW_COUNTER
        before = counter.value()
        refresh_slow_query_config({"REPRO_SLOW_QUERY_MS": "0"})
        clear_slow_queries()
        prepared = prepare_query("($S)/*", NATURAL, {"S": forest})
        prepared.evaluate({"S": forest})
        assert counter.value() == before + 1

    def test_bad_threshold_is_ignored(self):
        refresh_slow_query_config({"REPRO_SLOW_QUERY_MS": "not-a-number"})
        assert slow_query_ms() is None


class TestThresholdStaleness:
    """Regression: the env var must be honored even when set *after* import.

    The serving path reads the threshold through ``slow_query_threshold()``,
    which re-checks the environment every ``_SLOW_REFRESH_EVERY`` calls —
    a long-lived process no longer needs a restart (or an explicit
    ``refresh_slow_query_config()`` call) to arm the slow-query log.
    """

    @pytest.fixture(autouse=True)
    def _restore_config(self, monkeypatch):
        monkeypatch.delenv("REPRO_SLOW_QUERY_MS", raising=False)
        yield
        refresh_slow_query_config({})
        clear_slow_queries()

    def test_env_change_is_picked_up_within_the_refresh_window(self, monkeypatch):
        refresh_slow_query_config({})
        assert slow_query_ms() is None
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "250")
        seen = {
            profile_module.slow_query_threshold()
            for _ in range(profile_module._SLOW_REFRESH_EVERY + 1)
        }
        assert 250.0 in seen  # the periodic re-check armed the threshold
        assert profile_module.slow_query_threshold() == 250.0

    def test_evaluate_path_arms_without_an_explicit_refresh(self, forest, monkeypatch):
        refresh_slow_query_config({})
        clear_slow_queries()
        prepared = prepare_query("($S)/*", NATURAL, {"S": forest})
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "0")
        # Push the serving path across the refresh window; no manual
        # refresh_slow_query_config() anywhere.
        for _ in range(profile_module._SLOW_REFRESH_EVERY + 2):
            prepared.evaluate({"S": forest})
        assert slow_queries(), "the env var set after import must take effect"

    def test_threshold_can_also_disarm_in_flight(self, monkeypatch):
        refresh_slow_query_config({"REPRO_SLOW_QUERY_MS": "100"})
        assert profile_module.slow_query_threshold() == 100.0
        monkeypatch.delenv("REPRO_SLOW_QUERY_MS", raising=False)
        for _ in range(profile_module._SLOW_REFRESH_EVERY + 1):
            value = profile_module.slow_query_threshold()
        assert value is None

"""The flight recorder: ring semantics, configuration, and every wired site."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import events
from repro.obs.metrics import default_registry
from repro.obs.trace import tracing


@pytest.fixture(autouse=True)
def _clean_ring():
    events.clear_events()
    with events.recording(True):
        yield
    events.clear_events()


class TestRingSemantics:
    def test_emit_returns_the_recorded_event(self):
        event = events.emit("ivm.recompute", reason="test", classification="N")
        assert event["kind"] == "ivm.recompute"
        assert event["attrs"] == {"reason": "test", "classification": "N"}
        assert events.recent_events()[-1] == event

    def test_events_come_back_oldest_first_with_monotonic_seq(self):
        first = events.emit("limits.timeout", timeout_s=1)
        second = events.emit("limits.budget", budget="rows")
        listed = events.recent_events()
        assert listed[-2:] == [first, second]
        assert second["seq"] == first["seq"] + 1

    def test_kind_filter_and_tail_limit(self):
        for index in range(5):
            events.emit("ivm.recompute", reason=f"r{index}")
        events.emit("limits.timeout", timeout_s=1)
        recomputes = events.recent_events(kind="ivm.recompute", limit=2)
        assert [event["attrs"]["reason"] for event in recomputes] == ["r3", "r4"]

    def test_undeclared_kind_is_rejected_until_declared(self):
        with pytest.raises(ValueError, match="undeclared event kind"):
            events.emit("made.up")
        events.declare_event("made.up", "ad-hoc test kind")
        assert events.emit("made.up")["kind"] == "made.up"

    def test_ring_is_bounded_and_keeps_the_newest(self):
        previous = events.ring_capacity()
        try:
            events.set_ring_capacity(4)
            for index in range(10):
                events.emit("fault.injected", site="s", action="raise", index=index)
            kept = [event["attrs"]["index"] for event in events.recent_events()]
            assert kept == [6, 7, 8, 9]
        finally:
            events.set_ring_capacity(previous)

    def test_disabled_recorder_costs_nothing_and_records_nothing(self):
        with events.recording(False):
            assert events.emit("limits.timeout", timeout_s=1) is None
        assert events.recent_events(kind="limits.timeout") == []

    def test_emit_increments_the_events_counter(self):
        counter = default_registry().counter("repro_events_total")
        before = counter.value(kind="store.wal_compact")
        events.emit("store.wal_compact", documents=1)
        assert counter.value(kind="store.wal_compact") == before + 1

    def test_concurrent_emitters_drop_nothing_below_capacity(self):
        errors: list[BaseException] = []

        def hammer(worker: int):
            try:
                for index in range(50):
                    events.emit("worker.retry", documents=1, worker=worker, index=index)
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        retries = events.recent_events(kind="worker.retry")
        assert len(retries) == 200
        assert len({event["seq"] for event in retries}) == 200

    def test_export_jsonl_round_trips(self):
        events.emit("query.slow", duration_ms=12.5)
        text = events.export_jsonl(events.recent_events(kind="query.slow"))
        lines = [json.loads(line) for line in text.splitlines()]
        assert lines[-1]["attrs"]["duration_ms"] == 12.5


class TestConfiguration:
    def test_env_off_disables_recording(self):
        events.refresh_event_config({"REPRO_EVENTS": "off"})
        try:
            assert not events.is_recording()
            assert events.emit("limits.timeout", timeout_s=1) is None
        finally:
            events.refresh_event_config({})
        assert events.is_recording()

    def test_event_log_mirror_writes_jsonl(self, tmp_path):
        log = tmp_path / "events.jsonl"
        events.refresh_event_config({"REPRO_EVENT_LOG": str(log)})
        try:
            events.emit("store.wal_compact", documents=3)
            events.emit("limits.budget", budget="rows", rows=10)
        finally:
            events.refresh_event_config({})
        mirrored = [json.loads(line) for line in log.read_text().splitlines()]
        assert [event["kind"] for event in mirrored] == [
            "store.wal_compact",
            "limits.budget",
        ]
        assert mirrored[0]["attrs"]["documents"] == 3

    def test_events_carry_the_active_trace_id(self):
        with tracing() as tracer:
            traced = events.emit("ivm.recompute", reason="test")
        untraced = events.emit("ivm.recompute", reason="test")
        assert traced["trace_id"] == tracer.trace_id
        assert untraced["trace_id"] is None

    def test_sampled_out_scopes_still_expose_their_id(self):
        # Head-sampled-out traces record no spans, but events inside them
        # keep the id — tail promotion can later make the trace visible.
        with tracing(sample_rate=0.0) as tracer:
            event = events.emit("ivm.recompute", reason="test")
        assert event["trace_id"] == tracer.trace_id


class TestWiredSites:
    """Every instrumented subsystem leaves its event in the ring."""

    def test_worker_death_leaves_traced_retry_events(self, tmp_path):
        from concurrent.futures import ProcessPoolExecutor

        from repro.exec import BatchEvaluator, scoped_worker_stats
        from repro.resilience import disarm_all, fail_at
        from repro.semirings import NATURAL
        from repro.uxquery import prepare_query
        from repro.workloads import random_forest

        documents = [
            random_forest(NATURAL, num_trees=2, depth=2, fanout=2, seed=60 + n)
            for n in range(4)
        ]
        prepared = prepare_query("($S)/*", NATURAL, {"S": documents[0]})
        evaluator = BatchEvaluator(prepared)
        expected = evaluator.evaluate_many(documents)
        disarm_all()
        with scoped_worker_stats():
            with fail_at("exec.worker.task", action="exit", flag=str(tmp_path / "killed")):
                with tracing(sample_rate=1.0) as tracer:
                    with ProcessPoolExecutor(max_workers=2) as executor:
                        results = evaluator.evaluate_many(documents, executor=executor)
        disarm_all()
        assert results == expected
        broken = events.recent_events(kind="worker.pool_broken")
        retried = events.recent_events(kind="worker.retry")
        assert broken and retried
        assert tracer.sampled
        assert broken[-1]["trace_id"] == tracer.trace_id
        assert retried[-1]["trace_id"] == tracer.trace_id
        assert retried[-1]["attrs"]["documents"] >= 1

    def test_spent_retry_budget_emits_degraded(self, tmp_path, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        from repro.exec import BatchEvaluator, scoped_worker_stats
        from repro.exec import batch as batch_module
        from repro.resilience import disarm_all, fail_at
        from repro.semirings import NATURAL
        from repro.uxquery import prepare_query
        from repro.workloads import random_forest

        monkeypatch.setattr(batch_module, "_RETRY_BUDGET", 0)
        documents = [
            random_forest(NATURAL, num_trees=2, depth=2, fanout=2, seed=70 + n)
            for n in range(3)
        ]
        prepared = prepare_query("($S)/*", NATURAL, {"S": documents[0]})
        evaluator = BatchEvaluator(prepared)
        disarm_all()
        with scoped_worker_stats():
            with fail_at("exec.worker.task", action="exit", flag=str(tmp_path / "killed")):
                with ProcessPoolExecutor(max_workers=2) as executor:
                    evaluator.evaluate_many(documents, executor=executor)
        disarm_all()
        degraded = events.recent_events(kind="worker.degraded")
        assert degraded
        assert degraded[-1]["attrs"]["retry_budget"] == 0

    def test_forced_ivm_recompute_is_traced_with_a_reason(self):
        from repro.ivm import Delta
        from repro.semirings import BOOLEAN
        from repro.uxquery import prepare_query
        from repro.workloads import random_forest

        document = random_forest(BOOLEAN, num_trees=4, depth=2, fanout=2, seed=9)
        prepared = prepare_query("($S)//c", BOOLEAN, {"S": document})
        view = prepared.materialize(document)
        tree = next(iter(view.document))
        with tracing(sample_rate=1.0) as tracer:
            view.apply(Delta.deletion(BOOLEAN, tree, view.document.annotation(tree)))
        recomputes = events.recent_events(kind="ivm.recompute")
        assert recomputes
        event = recomputes[-1]
        assert "subtraction" in event["attrs"]["reason"]
        assert event["trace_id"] == tracer.trace_id
        assert tracer.sampled

    def test_non_incremental_fold_emits_recompute(self):
        from repro.ivm import Delta
        from repro.semirings import NATURAL
        from repro.uxquery import prepare_query
        from repro.workloads import random_forest, random_tree

        document = random_forest(NATURAL, num_trees=3, depth=2, fanout=2, seed=11)
        prepared = prepare_query("element out { ($S)/* }", NATURAL, {"S": document})
        view = prepared.materialize(document)
        deltas = [
            Delta.insertion(NATURAL, random_tree(NATURAL, depth=1, fanout=1, seed=n), 1)
            for n in range(2)
        ]
        view.apply_many(deltas)
        recomputes = events.recent_events(kind="ivm.recompute")
        assert recomputes
        assert recomputes[-1]["attrs"]["reason"] == "non-incremental plan"

    def test_pushdown_fallback_is_recorded(self):
        from repro.semirings import NATURAL
        from repro.store import DocumentStore
        from repro.workloads import random_forest

        store = DocumentStore(NATURAL)
        store.ingest("doc", random_forest(NATURAL, num_trees=2, depth=3, fanout=2, seed=31))
        store.query("element evfall { ($S/a, $S//b) }")
        fallbacks = events.recent_events(kind="store.pushdown_fallback")
        assert fallbacks
        assert fallbacks[-1]["attrs"]["semiring"] == NATURAL.name

    def test_wal_compaction_is_recorded(self, tmp_path):
        from repro.semirings import NATURAL
        from repro.store import DocumentStore
        from repro.workloads import random_forest

        store = DocumentStore(NATURAL, directory=tmp_path / "store")
        store.ingest("doc", random_forest(NATURAL, num_trees=2, depth=2, fanout=2, seed=5))
        store.compact()
        compactions = events.recent_events(kind="store.wal_compact")
        assert compactions
        assert compactions[-1]["attrs"]["documents"] == 1
        assert compactions[-1]["attrs"]["snapshots"] >= 1

    def test_limit_trips_are_recorded(self):
        from repro.errors import BudgetExceededError, QueryTimeoutError
        from repro.resilience import EvalLimits

        with pytest.raises(QueryTimeoutError):
            EvalLimits(timeout_s=0).start().tick()
        with pytest.raises(BudgetExceededError):
            EvalLimits(max_rows=1).start().tick(rows=5)
        timeout = events.recent_events(kind="limits.timeout")
        budget = events.recent_events(kind="limits.budget")
        assert timeout and timeout[-1]["attrs"]["timeout_s"] == 0
        assert budget and budget[-1]["attrs"] == {
            "budget": "rows", "rows": 5, "max_rows": 1,
        }

    def test_fired_failpoint_is_recorded(self):
        from repro.errors import FaultInjected
        from repro.resilience import declare_site, fail_at
        from repro.resilience.faults import fail_point

        from repro.resilience.faults import SITE_CATALOG

        declare_site("test.events.site", "ad-hoc flight-recorder test site")
        try:
            with fail_at("test.events.site", action="raise"):
                with pytest.raises(FaultInjected):
                    fail_point("test.events.site")
        finally:
            # An ad-hoc site must not leak into the process-wide catalog:
            # the crash-exhaustive matrix asserts it covers every store site.
            SITE_CATALOG.pop("test.events.site", None)
        fired = events.recent_events(kind="fault.injected")
        assert fired
        assert fired[-1]["attrs"]["site"] == "test.events.site"
        assert fired[-1]["attrs"]["action"] == "raise"


class TestEventsCli:
    def test_repro_events_dumps_the_ring_as_jsonl(self, capsys):
        from repro.cli import main

        events.emit("query.slow", duration_ms=99.5, method="nrc-codegen")
        assert main(["events", "--kind", "query.slow", "--limit", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        event = json.loads(lines[0])
        assert event["kind"] == "query.slow"
        assert event["attrs"]["duration_ms"] == 99.5

    def test_repro_events_reads_a_mirror_file(self, tmp_path, capsys):
        from repro.cli import main

        log = tmp_path / "mirror.jsonl"
        events.refresh_event_config({"REPRO_EVENT_LOG": str(log)})
        try:
            events.emit("limits.timeout", timeout_s=2)
            events.emit("query.slow", duration_ms=1.0)
        finally:
            events.refresh_event_config({})
        assert main(["events", "--log", str(log), "--kind", "limits.timeout"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == ["limits.timeout"]

    def test_follow_requires_a_log_file(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_EVENT_LOG", raising=False)
        assert main(["events", "--follow"]) == 1
        assert "event log" in capsys.readouterr().err

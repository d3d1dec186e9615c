"""The structured query log: signatures, records, rotation, replay aggregation.

Covers the qlog contract end to end: plan-signature stability (in-process,
cross-process, cross-hash-seed), one-record-per-user-call suppression at
every instrumentation site, ring bounds and capture-file rotation under
concurrent load, bounded per-signature metric cardinality, digest
determinism for every registry semiring, and instrumentation invariance
(armed results byte-identical to disarmed ones).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from repro.exec import BatchEvaluator, PlanCache
from repro.obs import qlog
from repro.semirings import BOOLEAN, NATURAL
from repro.uxml import to_paper_notation
from repro.uxquery import prepare_query
from repro.uxquery.engine import plan_signature
from repro.workloads import random_forest

QUERY = "($S)/*/*"


@pytest.fixture(autouse=True)
def _clean_qlog():
    """Every test starts and ends with a disarmed, empty query log."""
    qlog.refresh_qlog_config({})
    qlog.clear_records()
    qlog.clear_signature_stats()
    yield
    qlog.refresh_qlog_config({})
    qlog.clear_records()
    qlog.clear_signature_stats()


def _fake_prepared(signature: str = "sig0000deadbeef0", query: str = "($S)/*"):
    """A stand-in carrying exactly the attributes ``qlog.record`` reads."""
    return SimpleNamespace(
        signature=signature,
        surface=query,
        semiring=SimpleNamespace(name="natural-numbers"),
        env_types={"S": "forest"},
        generated=None,
    )


class TestPlanSignature:
    def test_equal_plans_hash_equally(self):
        first = prepare_query("($S)/a", NATURAL, env_types={"S": "forest"})
        second = prepare_query("($S)/a", NATURAL, env_types={"S": "forest"})
        assert first.signature == second.signature
        assert len(first.signature) == 16
        int(first.signature, 16)  # hex

    def test_textual_spellings_normalize_together(self):
        # The signature hashes the *simplified* NRC form: surface variants
        # that compile to the same plan share a signature.
        short = prepare_query("($S)/a", NATURAL, env_types={"S": "forest"})
        explicit = prepare_query("($S)/child::a", NATURAL, env_types={"S": "forest"})
        assert short.signature == explicit.signature

    def test_semiring_and_env_types_distinguish(self):
        base = prepare_query("($S)/a", NATURAL, env_types={"S": "forest"})
        other_k = prepare_query("($S)/a", BOOLEAN, env_types={"S": "forest"})
        assert base.signature != other_k.signature
        extra_env = prepare_query(
            "($S)/a", NATURAL, env_types={"S": "forest", "T": "forest"}
        )
        assert base.signature != extra_env.signature

    def test_signature_function_matches_prepared_plan(self):
        prepared = prepare_query(QUERY, NATURAL, env_types={"S": "forest"})
        assert prepared.signature == plan_signature(
            prepared.nrc_simplified, NATURAL, prepared.env_types
        )

    def test_signature_stable_across_processes_and_hash_seeds(self):
        script = (
            "from repro.semirings import NATURAL\n"
            "from repro.uxquery import prepare_query\n"
            f"print(prepare_query({QUERY!r}, NATURAL, env_types={{'S': 'forest'}}).signature)\n"
        )
        signatures = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [os.path.abspath("src"), env.get("PYTHONPATH", "")])
            )
            output = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env,
            ).stdout.strip()
            signatures.add(output)
        local = prepare_query(QUERY, NATURAL, env_types={"S": "forest"}).signature
        signatures.add(local)
        assert len(signatures) == 1


class TestResultDigest:
    def test_digest_is_order_independent_and_stable(self, any_semiring):
        forest = random_forest(any_semiring, num_trees=2, depth=3, fanout=2, seed=7)
        prepared = prepare_query(QUERY, any_semiring, {"S": forest})
        result = prepared.evaluate({"S": forest})
        assert qlog.result_digest(result) == qlog.result_digest(result)
        # A batch result (list) digests the per-element digests.
        assert qlog.result_digest([result, result]) != qlog.result_digest(result)

    def test_digests_stable_across_hash_seeds_for_every_registry_semiring(self):
        script = (
            "import json\n"
            "from repro.obs.qlog import result_digest\n"
            "from repro.semirings import available_semirings, get_semiring\n"
            "from repro.uxquery import prepare_query\n"
            "from repro.workloads import random_forest\n"
            "out = {}\n"
            "for name in available_semirings():\n"
            "    s = get_semiring(name)\n"
            "    f = random_forest(s, num_trees=2, depth=3, fanout=2, seed=7)\n"
            f"    p = prepare_query({QUERY!r}, s, {{'S': f}})\n"
            "    out[name] = result_digest(p.evaluate({'S': f}))\n"
            "print(json.dumps(out, sort_keys=True))\n"
        )
        outputs = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [os.path.abspath("src"), env.get("PYTHONPATH", "")])
            )
            outputs.add(
                subprocess.run(
                    [sys.executable, "-c", script],
                    capture_output=True, text=True, check=True, env=env,
                ).stdout.strip()
            )
        assert len(outputs) == 1
        assert len(json.loads(next(iter(outputs)))) > 10


class TestRecording:
    def test_disarmed_by_default_and_record_is_a_noop(self):
        assert not qlog.is_recording()
        assert qlog.record(_fake_prepared(), "evaluate", "nrc-codegen", 0.001) is None
        assert qlog.recent_records() == []

    def test_armed_engine_evaluate_records_one_entry(self):
        forest = random_forest(NATURAL, num_trees=1, depth=3, fanout=2, seed=3)
        prepared = prepare_query(QUERY, NATURAL, {"S": forest})
        with qlog.recording(True):
            qlog.clear_records()
            prepared.evaluate({"S": forest})
            records = qlog.recent_records()
        assert len(records) == 1
        entry = records[0]
        assert entry["op"] == "evaluate"
        assert entry["sig"] == prepared.signature
        assert entry["semiring"] == NATURAL.name
        assert entry["env_types"] == {"S": "forest"}
        assert entry["rows"] >= 1
        assert entry["ms"] >= 0.0
        assert entry["pid"] == os.getpid()
        assert entry["tid"] == threading.get_ident()
        assert "digest" not in entry  # no capture file armed

    def test_refresh_config_semantics(self, tmp_path):
        qlog.refresh_qlog_config({qlog.ENV_QLOG: "on"})
        assert qlog.is_recording() and qlog.capture_path() is None
        path = str(tmp_path / "cap.jsonl")
        qlog.refresh_qlog_config({qlog.ENV_QLOG_FILE: path})
        assert qlog.is_recording() and qlog.capture_path() == path
        # An explicit off wins over an armed capture path.
        qlog.refresh_qlog_config({qlog.ENV_QLOG: "off", qlog.ENV_QLOG_FILE: path})
        assert not qlog.is_recording()
        qlog.refresh_qlog_config({})
        assert not qlog.is_recording() and qlog.capture_path() is None

    def test_capture_file_records_carry_digests(self, tmp_path):
        path = tmp_path / "cap.jsonl"
        forest = random_forest(NATURAL, num_trees=1, depth=2, fanout=2, seed=4)
        prepared = prepare_query(QUERY, NATURAL, {"S": forest})
        qlog.refresh_qlog_config({qlog.ENV_QLOG_FILE: str(path)})
        result = prepared.evaluate({"S": forest})
        qlog.refresh_qlog_config({})
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["digest"] == qlog.result_digest(result)
        assert lines[0]["q"] == str(prepared.surface)

    def test_cache_hit_flag_transitions(self):
        forest = random_forest(NATURAL, num_trees=1, depth=2, fanout=2, seed=5)
        cache = PlanCache(maxsize=4)
        with qlog.recording(True):
            qlog.clear_records()
            cold = cache.get(QUERY, NATURAL, env_types={"S": "forest"})
            cold.evaluate({"S": forest})
            warm = cache.get(QUERY, NATURAL, env_types={"S": "forest"})
            warm.evaluate({"S": forest})
            records = qlog.recent_records()
        assert [entry["cache_hit"] for entry in records] == [False, True]


class TestOneRecordPerUserCall:
    def test_store_query_owns_its_record(self, tmp_path):
        from repro.store import DocumentStore

        store = DocumentStore(NATURAL, directory=tmp_path / "st")
        forest = random_forest(NATURAL, num_trees=2, depth=2, fanout=2, seed=6)
        store.ingest("doc", forest)
        with qlog.recording(True):
            qlog.clear_records()
            store.query("($S)/*", "doc")
            records = qlog.recent_records()
        assert len(records) == 1
        entry = records[0]
        assert entry["op"] == "store.query"
        assert entry["doc"] == "doc"
        assert entry["pushdown"] in ("full-pushdown", "pushdown", "fallback")
        assert entry["store"]

    def test_store_query_many_owns_its_record(self, tmp_path):
        from repro.store import DocumentStore

        store = DocumentStore(NATURAL, directory=tmp_path / "st")
        for index in range(3):
            store.ingest(
                f"d{index}",
                random_forest(NATURAL, num_trees=1, depth=2, fanout=2, seed=index),
            )
        with qlog.recording(True):
            qlog.clear_records()
            store.query_many("($S)/*", ["d0", "d1", "d2"])
            records = qlog.recent_records()
        assert len(records) == 1
        entry = records[0]
        assert entry["op"] == "store.query_many"
        assert entry["docs"] == ["d0", "d1", "d2"]

    def test_batch_evaluator_owns_its_record(self):
        forests = [
            random_forest(NATURAL, num_trees=1, depth=2, fanout=2, seed=seed)
            for seed in range(3)
        ]
        prepared = prepare_query(QUERY, NATURAL, {"S": forests[0]})
        evaluator = BatchEvaluator(prepared, var="S")
        with qlog.recording(True):
            qlog.clear_records()
            results = evaluator.evaluate_many(forests)
            records = qlog.recent_records()
        assert len(records) == 1
        assert records[0]["op"] == "exec.batch"
        assert records[0]["rows"] == len(results) == 3

    def test_sharded_evaluator_owns_its_record(self):
        from repro.exec import ShardedEvaluator

        forest = random_forest(NATURAL, num_trees=4, depth=2, fanout=2, seed=8)
        prepared = prepare_query("($S)/*", NATURAL, {"S": forest})
        evaluator = ShardedEvaluator(prepared, num_shards=2)
        with qlog.recording(True):
            qlog.clear_records()
            evaluator.evaluate(forest)
            records = qlog.recent_records()
        assert len(records) == 1
        assert records[0]["op"] == "exec.shard"

    def test_ivm_apply_owns_its_record(self):
        from repro.ivm import Delta
        from repro.uxml import TreeBuilder

        builder = TreeBuilder(NATURAL)
        forest = random_forest(NATURAL, num_trees=2, depth=2, fanout=2, seed=9)
        prepared = prepare_query("($S)/*", NATURAL, {"S": forest})
        view = prepared.materialize(forest, document_var="S")
        delta = Delta.insertion(NATURAL, builder.tree("extra"), 1)
        with qlog.recording(True):
            qlog.clear_records()
            view.apply(delta)
            records = qlog.recent_records()
        assert len(records) == 1
        assert records[0]["op"] == "ivm.apply"
        assert records[0]["method"] in ("ivm-incremental", "ivm-recompute")

    def test_suppress_scope_drops_nested_records(self):
        with qlog.recording(True):
            qlog.clear_records()
            with qlog.suppress():
                assert qlog.suppressed()
                assert qlog.record(_fake_prepared(), "evaluate", "nrc-codegen", 0.001) is None
            assert not qlog.suppressed()
            assert qlog.record(_fake_prepared(), "evaluate", "nrc-codegen", 0.001) is not None
        assert len(qlog.recent_records()) == 1


class TestRingAndRotation:
    def test_ring_bounded_under_threaded_load(self):
        previous = qlog.ring_capacity()
        qlog.set_ring_capacity(64)
        try:
            fake = _fake_prepared()
            with qlog.recording(True):
                with ThreadPoolExecutor(max_workers=8) as pool:
                    list(
                        pool.map(
                            lambda _: qlog.record(fake, "evaluate", "nrc-codegen", 0.0005),
                            range(1000),
                        )
                    )
            records = qlog.recent_records()
            assert len(records) == 64
            sequences = [entry["seq"] for entry in records]
            assert sequences == sorted(sequences)
            assert len(set(sequences)) == 64
        finally:
            qlog.set_ring_capacity(previous)

    def test_rotation_at_size_boundary_keeps_generations(self, tmp_path):
        path = tmp_path / "cap.jsonl"
        qlog.refresh_qlog_config(
            {
                qlog.ENV_QLOG_FILE: str(path),
                qlog.ENV_QLOG_MAX_BYTES: "2000",
                qlog.ENV_QLOG_KEEP: "2",
            }
        )
        fake = _fake_prepared()
        for _ in range(100):
            qlog.record(fake, "evaluate", "nrc-codegen", 0.0)
        qlog.refresh_qlog_config({})
        generations = [path, tmp_path / "cap.jsonl.1", tmp_path / "cap.jsonl.2"]
        assert generations[1].exists() and generations[2].exists()
        for generation in generations:
            if not generation.exists():
                continue
            text = generation.read_text()
            for line in text.splitlines():
                json.loads(line)  # every retained line is intact JSON
            # A rotation triggers on the append that crosses the bound, so a
            # file never exceeds max_bytes by more than one record.
            assert len(text.encode()) < 2000 + 600
        # Rotation discards: far fewer than all 100 records survive.
        survivors = sum(
            len(generation.read_text().splitlines())
            for generation in generations
            if generation.exists()
        )
        assert survivors < 100

    def test_concurrent_thread_writers_produce_intact_jsonl(self, tmp_path):
        path = tmp_path / "cap.jsonl"
        qlog.refresh_qlog_config({qlog.ENV_QLOG_FILE: str(path)})
        fake = _fake_prepared()
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(
                pool.map(
                    lambda _: qlog.record(fake, "evaluate", "nrc-codegen", 0.0005),
                    range(200),
                )
            )
        qlog.refresh_qlog_config({})
        lines = path.read_text().splitlines()
        assert len(lines) == 200
        for line in lines:
            entry = json.loads(line)
            assert entry["sig"] == fake.signature

    @pytest.mark.skipif(
        not hasattr(os, "fork"), reason="fork-based process pool required"
    )
    def test_process_pool_workers_capture_to_the_shared_file(self, tmp_path):
        import multiprocessing

        path = tmp_path / "cap.jsonl"
        qlog.refresh_qlog_config({qlog.ENV_QLOG_FILE: str(path)})
        try:
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
                worker_pids = set(pool.map(_pool_capture_worker, range(6)))
        finally:
            qlog.refresh_qlog_config({})
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 6
        recorded_pids = {entry["pid"] for entry in lines}
        assert recorded_pids <= worker_pids
        assert os.getpid() not in recorded_pids


def _pool_capture_worker(index: int) -> int:
    """Runs in a forked pool worker: the inherited qlog arming must capture."""
    forest = random_forest(NATURAL, num_trees=1, depth=2, fanout=2, seed=index)
    prepared = prepare_query("($S)/*", NATURAL, {"S": forest})
    prepared.evaluate({"S": forest})
    return os.getpid()


class TestSignatureAccounting:
    def test_cardinality_bounded_with_other_overflow(self):
        with qlog.recording(True):
            for index in range(qlog.SIGNATURE_LIMIT + 8):
                qlog.record(
                    _fake_prepared(signature=f"sig{index:013d}"),
                    "evaluate",
                    "nrc-codegen",
                    0.001,
                )
        stats = qlog.signature_stats()
        labels = {entry["signature"] for entry in stats}
        assert qlog.OTHER_SIGNATURE in labels
        assert len(labels) <= qlog.SIGNATURE_LIMIT + 1
        overflow = next(
            entry for entry in stats if entry["signature"] == qlog.OTHER_SIGNATURE
        )
        assert overflow["count"] == 8
        assert overflow["query"] is None  # no single text represents "other"

    def test_signature_stats_sort_and_limit(self):
        with qlog.recording(True):
            for _ in range(3):
                qlog.record(_fake_prepared("sigaaaaaaaaaaaaa"), "evaluate", "nrc-codegen", 0.001)
            qlog.record(_fake_prepared("sigbbbbbbbbbbbbb"), "evaluate", "nrc-codegen", 0.1)
        by_count = qlog.signature_stats(sort="count")
        assert by_count[0]["signature"] == "sigaaaaaaaaaaaaa"
        assert by_count[0]["count"] == 3
        by_total = qlog.signature_stats(sort="total", limit=1)
        assert len(by_total) == 1
        assert by_total[0]["signature"] == "sigbbbbbbbbbbbbb"
        assert by_total[0]["p95_ms"] >= by_total[0]["mean_ms"] * 0.5

    def test_aggregate_records_exact_quantiles(self):
        records = [
            {"sig": "aaa", "q": "($S)/*", "semiring": "n", "op": "evaluate", "ms": 1.0, "rows": 2},
            {"sig": "aaa", "q": "($S)/*", "semiring": "n", "op": "evaluate", "ms": 3.0, "rows": 2},
            {"sig": "bbb", "q": "($S)/a", "semiring": "n", "op": "store.query", "ms": 10.0, "rows": 1},
        ]
        aggregate = qlog.aggregate_records(records)
        assert aggregate["aaa"]["count"] == 2
        assert aggregate["aaa"]["total_ms"] == pytest.approx(4.0)
        assert aggregate["aaa"]["mean_ms"] == pytest.approx(2.0)
        assert aggregate["aaa"]["p95_ms"] == pytest.approx(3.0)
        assert aggregate["aaa"]["rows"] == 4
        assert aggregate["bbb"]["ops"] == {"store.query": 1}
        report = qlog.render_report(aggregate)
        assert "aaa" in report and "($S)/a" in report
        compare = qlog.render_compare_report(aggregate, aggregate)
        assert "1.00" in compare  # self-compare ratio


class TestInstrumentationInvariance:
    def test_armed_results_byte_identical_for_every_semiring(
        self, any_semiring, tmp_path
    ):
        forest = random_forest(any_semiring, num_trees=2, depth=3, fanout=2, seed=21)
        prepared = prepare_query(QUERY, any_semiring, {"S": forest})
        baseline = prepared.evaluate({"S": forest})
        path = tmp_path / "cap.jsonl"
        qlog.refresh_qlog_config({qlog.ENV_QLOG_FILE: str(path)})
        try:
            armed = prepared.evaluate({"S": forest})
        finally:
            qlog.refresh_qlog_config({})
        assert armed == baseline
        assert to_paper_notation(armed) == to_paper_notation(baseline)
        captured = [json.loads(line) for line in path.read_text().splitlines()]
        assert captured and captured[-1]["digest"] == qlog.result_digest(baseline)

"""The bench-regression watchdog (benchmarks/regress.py, `repro bench-check`)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def regress():
    spec = importlib.util.spec_from_file_location(
        "regress_under_test", REPO_ROOT / "benchmarks" / "regress.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["regress_under_test"] = module
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("regress_under_test", None)


def _base_run(stamp: str) -> dict:
    """A minimal archived run with one metric from every flattened section."""
    return {
        "generated_at": stamp,
        "quick": False,
        "speedups": [{"name": "figure1", "speedup": 10.0}],
        "codegen": {"cases": [{"name": "chain", "speedup_codegen_vs_interpreter": 6.0}]},
        "exec": {"batch_throughput": {"speedup_vs_single_shot_loop": 4.0}},
        "ivm": {"speedup_maintain_vs_recompute": 20.0},
        "store": {
            "pushdown": {"speedup_indexed_vs_scan": 8.0},
            "recovery": {"speedup_recover_vs_rebuild": 6.0},
        },
        "resilience": {"overhead_ratio": 1.01},
        "obs": {"overhead_ratio": 1.01, "traced_ratio": 1.5},
    }


def _write_history(directory: Path, runs: list[dict]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for index, run in enumerate(runs):
        (directory / f"run-2026010{index + 1}T000000Z.json").write_text(
            json.dumps(run) + "\n"
        )


def _slowed(run: dict, factor: float) -> dict:
    """The same run with every speedup divided (and every ratio multiplied)."""
    slowed = json.loads(json.dumps(run))
    slowed["speedups"][0]["speedup"] /= factor
    slowed["codegen"]["cases"][0]["speedup_codegen_vs_interpreter"] /= factor
    slowed["exec"]["batch_throughput"]["speedup_vs_single_shot_loop"] /= factor
    slowed["ivm"]["speedup_maintain_vs_recompute"] /= factor
    slowed["store"]["pushdown"]["speedup_indexed_vs_scan"] /= factor
    slowed["store"]["recovery"]["speedup_recover_vs_rebuild"] /= factor
    slowed["resilience"]["overhead_ratio"] *= factor
    slowed["obs"]["overhead_ratio"] *= factor
    return slowed


class TestCheckRegressions:
    def test_synthetic_2x_slowdown_is_detected(self, regress, tmp_path):
        history = tmp_path / "BENCH_history"
        healthy = [_base_run(f"2026-01-0{n}T00:00:00+00:00") for n in (1, 2, 3)]
        worst = _slowed(_base_run("2026-01-04T00:00:00+00:00"), 2.0)
        worst["generated_at"] = "2026-01-04T00:00:00+00:00"
        _write_history(history, healthy + [worst])
        exit_code = regress.run_check(history_dir=history)
        assert exit_code == 1
        report = regress.check_regressions(regress.load_history(history, quick=False))
        regressed = {record["metric"] for record in report["regressions"]}
        assert "speedups/figure1" in regressed
        assert "ivm/maintain_vs_recompute" in regressed
        assert "obs/disarmed_overhead_ratio" in regressed  # ratios: up = worse

    def test_healthy_history_passes(self, regress, tmp_path):
        history = tmp_path / "BENCH_history"
        _write_history(
            history, [_base_run(f"2026-01-0{n}T00:00:00+00:00") for n in (1, 2, 3)]
        )
        assert regress.run_check(history_dir=history) == 0

    def test_improvements_do_not_fail_the_check(self, regress, tmp_path):
        history = tmp_path / "BENCH_history"
        base = _base_run("2026-01-01T00:00:00+00:00")
        faster = _slowed(_base_run("2026-01-02T00:00:00+00:00"), 0.5)  # 2x faster
        _write_history(history, [base, faster])
        assert regress.run_check(history_dir=history) == 0
        report = regress.check_regressions(regress.load_history(history, quick=False))
        assert report["improvements"]

    def test_single_run_has_no_baseline_and_passes(self, regress, tmp_path):
        history = tmp_path / "BENCH_history"
        _write_history(history, [_base_run("2026-01-01T00:00:00+00:00")])
        assert regress.run_check(history_dir=history) == 0
        report = regress.check_regressions(regress.load_history(history, quick=False))
        assert report["reason"].startswith("only 1")

    def test_missing_history_directory_is_a_usage_error(self, regress, tmp_path):
        assert regress.run_check(history_dir=tmp_path / "nope") == 2

    def test_baseline_is_the_median_of_the_window(self, regress, tmp_path):
        # One noisy outlier in the window must not poison the baseline.
        history = tmp_path / "BENCH_history"
        noisy = _slowed(_base_run("2026-01-02T00:00:00+00:00"), 0.25)  # 4x "fast" blip
        runs = [
            _base_run("2026-01-01T00:00:00+00:00"),
            noisy,
            _base_run("2026-01-03T00:00:00+00:00"),
            _base_run("2026-01-04T00:00:00+00:00"),
        ]
        _write_history(history, runs)
        assert regress.run_check(history_dir=history) == 0

    def test_renamed_metric_is_skipped_not_judged(self, regress, tmp_path):
        # Archived runs still carry the retired closure-relative codegen key;
        # its successor has no baseline yet, so neither side is judged.
        history = tmp_path / "BENCH_history"
        old_runs = []
        for day in (1, 2, 3):
            run = _base_run(f"2026-01-0{day}T00:00:00+00:00")
            run["codegen"] = {"cases": [{"name": "chain", "speedup_codegen_vs_closure": 3.0}]}
            old_runs.append(run)
        newest = _base_run("2026-01-04T00:00:00+00:00")
        newest["codegen"]["cases"][0]["speedup_codegen_vs_interpreter"] = 0.5
        _write_history(history, old_runs + [newest])
        assert regress.run_check(history_dir=history) == 0
        report = regress.check_regressions(regress.load_history(history, quick=False))
        judged = {
            record["metric"]
            for kind in ("regressions", "improvements", "stable")
            for record in report[kind]
        }
        assert "codegen_vs_interpreter/chain" not in judged
        assert "speedups/figure1" in judged

    def test_mode_mismatch_is_excluded(self, regress, tmp_path):
        history = tmp_path / "BENCH_history"
        quick = _base_run("2026-01-01T00:00:00+00:00")
        quick["quick"] = True
        _write_history(history, [quick, _base_run("2026-01-02T00:00:00+00:00")])
        assert len(regress.load_history(history, quick=False)) == 1
        assert len(regress.load_history(history, quick=True)) == 1


class TestCliBenchCheck:
    def test_cli_detects_the_synthetic_slowdown(self, regress, tmp_path, capsys):
        history = tmp_path / "BENCH_history"
        healthy = [_base_run(f"2026-01-0{n}T00:00:00+00:00") for n in (1, 2, 3)]
        worst = _slowed(_base_run("2026-01-04T00:00:00+00:00"), 2.0)
        _write_history(history, healthy + [worst])
        assert main(["bench-check", "--history", str(history)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_cli_json_report(self, regress, tmp_path, capsys):
        history = tmp_path / "BENCH_history"
        _write_history(
            history, [_base_run(f"2026-01-0{n}T00:00:00+00:00") for n in (1, 2)]
        )
        assert main(["bench-check", "--history", str(history), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["baseline_runs"] == 1

    def test_cli_threshold_is_respected(self, regress, tmp_path):
        history = tmp_path / "BENCH_history"
        base = _base_run("2026-01-01T00:00:00+00:00")
        slightly = _slowed(_base_run("2026-01-02T00:00:00+00:00"), 1.1)  # ~9% worse
        _write_history(history, [base, slightly])
        assert main(["bench-check", "--history", str(history)]) == 0  # under 15%
        assert main(
            ["bench-check", "--history", str(history), "--threshold", "5"]
        ) == 1  # over 5%

    def test_committed_history_is_checkable(self, capsys):
        # The real BENCH_history/ must always load (exit 0 or 1, never 2).
        exit_code = main(["bench-check", "--history", str(REPO_ROOT / "BENCH_history")])
        assert exit_code in (0, 1)
        capsys.readouterr()

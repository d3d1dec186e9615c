"""The repository benchmark: three closed-loop workloads over ``repro``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload read-mix --seed 1 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``read-mix``      — Zipf-skewed query stream over an N[X] store;
* ``update-stream`` — single-tree deltas, each followed by a query, over a
  durable N store with two maintained views and periodic compaction;
* ``cold-open``     — one fresh ``python -m repro store query`` process per
  operation over a compacted store directory with a WAL tail.

Each run is one client in one process issuing its next operation when the
previous one returned (a closed loop, no worker pools).  ``--trace 0``
measures the end-to-end metrics for ``--seconds`` seconds of wall time.
``--trace 1`` runs a fixed number of operations, so every count repeats
exactly for a seed: it starts an untraced reference run of the same
operations in a child process, then repeats them with layer spans recorded
from outside the program (:mod:`layers`) and reports per-layer metrics,
the unattributed share of wall time and the tracing overhead.  On
``update-stream`` the traced run also injects delays with
``repro.resilience.faults.fail_at`` and checks that they land in the
expected layer.

Every workload checks its outputs outside the timed region.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; every line before it is a human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import traceback

from common import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Operations of a traced run, per workload (fixed so counts repeat).
TRACE_OPS = {"read-mix": 1600, "update-stream": 42, "cold-open": 4}

#: The per-workload names of end-to-end metrics:
#: ``(name, metric, factor, unit)``, printed as ``metric * factor``.
ALIASES = {
    "read-mix": (
        ("queries_per_s", "ops_per_s", 1.0, "1/s"),
        ("query_p50_ms", "op_p50_ms", 1.0, "ms"),
        ("query_tail_ms", "op_tail_ms", 1.0, "ms"),
    ),
    "update-stream": (
        ("update_p50_ms", "op_p50_ms", 1.0, "ms"),
        ("update_tail_ms", "op_tail_ms", 1.0, "ms"),
    ),
    "cold-open": (("cold_query_p50_s", "op_p50_ms", 0.001, "s"),),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("read-mix", "update-stream", "cold-open"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ops",
        type=int,
        default=0,
        help="run exactly this many operations instead of --seconds (the "
        "traced run's untraced reference uses it)",
    )
    return parser.parse_args(argv)


def _pin_hash_seed() -> None:
    """Re-execute under ``PYTHONHASHSEED=0`` so set and dict orders, and
    with them every count, repeat exactly for a seed."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)


def _workload(name, seed, workdir):
    if name == "read-mix":
        from read_mix import ReadMix

        return ReadMix(seed, workdir)
    if name == "update-stream":
        from update_stream import UpdateStream

        return UpdateStream(seed, workdir)
    from cold_open import ColdOpen

    return ColdOpen(seed, workdir)


def _loop(workload, seconds, ops):
    """Closed loop: ``(records, attempted, errors)``.

    A timed run goes on past ``seconds`` until the workload may stop: at
    the end of a whole block of its mix, with enough samples for its tail."""
    records = []
    errors = []
    attempted = 0
    deadline = time.perf_counter() + seconds
    while (
        (attempted < ops)
        if ops
        else (time.perf_counter() < deadline or not workload.may_stop())
    ):
        attempted += 1
        try:
            workload.step(records)
        except Exception:  # an operation that raised counts as failed
            errors.append(traceback.format_exc(limit=3))
    return records, attempted, errors


def _end_to_end(workload, setup_times, records):
    from common import latency_block

    op_ms = [ms for kind, ms, _ in records if kind == workload.op_kind]
    busy_s = sum(ms for _, ms, _ in records) / 1000.0
    op = latency_block("op", op_ms)
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "op_p50_ms": (op["op_p50_ms"], "ms"),
        "op_tail_ms": (op["op_tail_ms"], "ms"),
        "ops_per_s": (len(op_ms) / busy_s, "1/s"),
        "peak_rss_mb": (workload.peak_rss(), "MB"),
    }
    # Latencies of the other kinds of records (the read step of
    # update-stream): reported, not bounded.
    others = {}
    for kind in sorted({kind for kind, _, _ in records} - {workload.op_kind}):
        others[kind] = latency_block(kind, [ms for k, ms, _ in records if k == kind])
    detail = {
        "mix": _mix(records),
        "op_kind": workload.op_kind,
        "op_samples": len(op_ms),
        "op_tail_percentile": op["op_tail_percentile"],
        "others": others,
        "setup_runs_s": setup_times,
    }
    return metrics, detail


def _mix(records):
    """Per ``(kind, what)``: count, share of operations of that kind, share
    of their time, median ms."""
    groups = {}
    for kind, ms, what in records:
        groups.setdefault((kind, what), []).append(ms)
    mix = {}
    for (kind, what), values in sorted(groups.items()):
        of_kind = [ms for k, ms, _ in records if k == kind]
        mix[(kind, what)] = (
            len(values),
            len(values) / len(of_kind),
            sum(values) / sum(of_kind),
            median(values),
        )
    return mix


def _measure(args, workdir, recorder=None):
    """Set up, run the loop, check outputs.  Returns the run summary."""
    import layers

    workload = _workload(args.workload, args.seed, workdir)
    setup_times = []
    # ``setup_s`` is the median of several set-ups (each workload says how
    # many); the last one is the store the loop runs against.
    repeats = 1 if recorder is not None else workload.setup_repeats
    for _ in range(repeats):
        started = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - started)
    layers.activate(recorder)
    try:
        records, attempted, errors = _loop(workload, args.seconds, args.ops)
    finally:
        layers.activate(None)
    metrics, detail = _end_to_end(workload, setup_times, records)
    checked, mismatches = workload.verify()
    return {
        "workload": workload,
        "metrics": metrics,
        "detail": detail,
        "records": records,
        "attempted": attempted,
        "errors": errors,
        "checked": checked,
        "mismatches": mismatches,
    }


def _failed(summary) -> int:
    """Operations that raised plus outputs that differed from the oracle."""
    return min(summary["attempted"], len(summary["errors"]) + len(summary["mismatches"]))


def _print_end_to_end(summary) -> None:
    from common import say, shares, write_bytes

    workload = summary["workload"]
    detail = summary["detail"]
    say(f"== {workload.name}: end-to-end ({detail['op_kind']} operations) ==")
    for name, (value, unit) in summary["metrics"].items():
        say(f"  {name:<16} {value:14.4f} {unit}")
    say(f"  op tail is p{detail['op_tail_percentile']:g} of {detail['op_samples']} samples")
    setups = ", ".join(f"{seconds:.4f}" for seconds in detail["setup_runs_s"])
    say(f"  set-ups (s): {setups}")
    failed = _failed(summary)
    say(f"  failed_frac      {failed / summary['attempted']:14.4f} ({failed} of {summary['attempted']})")
    metrics = summary["metrics"]
    for name, metric, factor, unit in ALIASES[workload.name]:
        say(f"  {name:<16} {metrics[metric][0] * factor:14.4f} {unit}  (= {metric})")
    for kind, block in detail["others"].items():
        say(f"  {kind}_p50_ms     {block[f'{kind}_p50_ms']:14.4f} ms")
        say(
            f"  {kind}_tail_ms    {block[f'{kind}_tail_ms']:14.4f} ms  "
            f"(p{block[f'{kind}_tail_percentile']:g} of {block[f'{kind}_samples']} samples)"
        )
    wal_bytes, snapshot_bytes = write_bytes(workload)
    updates = sum(1 for kind, _, _ in summary["records"] if kind == "update")
    if updates:
        say(
            f"  write_bytes_per_update {(wal_bytes + snapshot_bytes) / updates:.1f} bytes "
            f"(WAL {wal_bytes}, snapshots {snapshot_bytes}, {updates} updates)"
        )
    say("  mix (count, share of count, share of time, p50 ms):")
    for (kind, what), (count, count_share, time_share, p50) in detail["mix"].items():
        say(f"    {kind:<6} {count:6d} {count_share:7.4f} {time_share:7.4f} {p50:11.4f}  {what}")
    measured = shares(workload.counts())
    if measured:
        say(f"  shares: {json.dumps(measured, sort_keys=True)}")
    say(f"  checked {summary['checked']} outputs, {len(summary['mismatches'])} mismatches")
    for line in summary["mismatches"][:10]:
        say(f"  MISMATCH {line}")
    for error in summary["errors"][:3]:
        say("  ERROR " + error.replace("\n", "\n  "))


def _reference_run(args):
    """The untraced run of the same operations, in a fresh process."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
        "--ops", str(TRACE_OPS[args.workload]),
    ]
    completed = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=170)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"reference run failed: {completed.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        from common import fail

        fail(f"no repro sources under {SRC}; run from the root of a checkout")
    _pin_hash_seed()
    sys.path.insert(0, SRC)
    from common import environment, say

    base = os.path.join(ROOT, ".perfbench-run")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        if args.trace:
            from traced import traced_run

            reference = _reference_run(args)
            args.ops = TRACE_OPS[args.workload]
            import layers

            layers.install()
            recorder = layers.Recorder()
            summary = _measure(args, workdir, recorder)
            _print_end_to_end(summary)
            metrics, passed = traced_run(summary, recorder, reference)
            correct = passed and reference["correct"]
        else:
            summary = _measure(args, workdir)
            _print_end_to_end(summary)
            metrics = summary["metrics"]
            correct = True
        workload = summary["workload"]
        say(f"  environment: {json.dumps(environment(workload.durability, workload.sizes()), sort_keys=True)}")
        failed = _failed(summary)
        result = {
            "correct": bool(correct and failed == 0),
            "attempted": summary["attempted"],
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

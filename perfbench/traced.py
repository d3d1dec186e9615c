"""The traced run's report: per-layer metrics, attribution, overhead and the
layer-split self-check."""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import layers
from common import median, say, shares, write_bytes

#: Delay injected by the layer-split self-check, and updates per phase.
SELF_CHECK_DELAY_S = 0.1
SELF_CHECK_UPDATES = 18

#: Outermost spans that make up each operation kind.
OP_SPANS = {
    "query": ("store.query", "store.query_many"),
    "update": ("store.update",),
    "cli": None,  # every span the CLI process recorded
}

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = []
for _layer in layers.LAYERS:
    PER_LAYER.append((f"{_layer}.self_ms", "ms", "lower"))
    PER_LAYER.append((f"{_layer}.calls", "count", "lower"))
PER_LAYER += [(f"uxquery.prepare.{stage}_ms", "ms", "lower") for stage in layers.PREPARE_STAGES]
PER_LAYER += [
    (f"uxquery.evaluate.{kind}.self_ms", "ms", "lower") for kind in layers.EVALUATE_KINDS
]
PER_LAYER += [
    ("nrc.codegen_share", "ratio", "higher"),
    ("exec.plan_cache.hits", "count", "higher"),
    ("exec.plan_cache.misses", "count", "lower"),
    ("exec.plan_cache.evictions", "count", "lower"),
    ("exec.plan_cache.hit_rate", "ratio", "higher"),
    ("store.pushdown.full_share", "ratio", "higher"),
    ("store.pushdown.residual_share", "ratio", "higher"),
    ("store.pushdown.fallback_share", "ratio", "lower"),
    ("store.index.navigate.memo_hits", "count", "higher"),
    ("store.index.navigate.memo_misses", "count", "lower"),
    ("store.index.navigate.memo_hit_rate", "ratio", "higher"),
    ("store.index.build.nodes", "count", "lower"),
    ("store.columns.shred.rows", "count", "lower"),
    ("store.columns.decode.rows", "count", "lower"),
    ("store.wal.open.records", "count", "lower"),
    ("store.wal.append.bytes_per_append", "bytes", "lower"),
    ("store.snapshot.write.bytes", "bytes", "lower"),
    ("write_bytes_per_update", "bytes", "lower"),
    ("ivm.delta.apply.per_update", "count", "lower"),
    ("ivm.view.apply.incremental_share", "ratio", "higher"),
    ("semirings.add_per_op", "count", "lower"),
    ("semirings.mul_per_op", "count", "lower"),
    ("unattributed_share", "ratio", "lower"),
    ("trace_overhead.op_p50_ms", "ms", "lower"),
]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(recorder: layers.Recorder, workload, ops: int, updates: int) -> Dict[str, float]:
    """Every per-layer metric except the overhead (0 where a layer is idle).

    Spans, stage timings and row counts come from the recorder; hit counts
    and shares from the store's own counters (``workload.counts()``); bytes
    written from the files (``workload.write_bytes()``)."""
    counts = recorder.counts
    values: Dict[str, float] = {}
    for layer in layers.LAYERS:
        if layer == "uxquery.evaluate":
            names = [f"{layer}.{kind}" for kind in layers.EVALUATE_KINDS]
        else:
            names = [layer]
        values[f"{layer}.self_ms"] = sum(recorder.self_ms(name) for name in names)
        values[f"{layer}.calls"] = sum(recorder.calls.get(name, 0) for name in names)
    for stage in layers.PREPARE_STAGES:
        values[f"uxquery.prepare.{stage}_ms"] = counts.get(f"uxquery.prepare.{stage}_ms", 0.0)
    for kind in layers.EVALUATE_KINDS:
        values[f"uxquery.evaluate.{kind}.self_ms"] = recorder.self_ms(f"uxquery.evaluate.{kind}")
    values["nrc.codegen_share"] = _ratio(
        counts.get("nrc.codegen_evaluations", 0), counts.get("nrc.evaluations", 0)
    )
    store = workload.counts()
    share = shares(store)
    values["exec.plan_cache.hits"] = store.get("plan_cache.hits", 0)
    values["exec.plan_cache.misses"] = store.get("plan_cache.misses", 0)
    values["exec.plan_cache.evictions"] = store.get("plan_cache.evictions", 0)
    values["exec.plan_cache.hit_rate"] = share.get("plan_cache_hit_rate", 0.0)
    values["store.pushdown.full_share"] = share.get("full_pushdown", 0.0)
    values["store.pushdown.residual_share"] = share.get("pushdown_with_residual", 0.0)
    values["store.pushdown.fallback_share"] = share.get("fallback", 0.0)
    values["store.index.navigate.memo_hits"] = store.get("nav_memo.hits", 0)
    values["store.index.navigate.memo_misses"] = store.get("nav_memo.misses", 0)
    values["store.index.navigate.memo_hit_rate"] = share.get("nav_memo_hit_rate", 0.0)
    values["store.index.build.nodes"] = counts.get("store.index.build.nodes", 0)
    values["store.columns.shred.rows"] = counts.get("store.columns.shred.rows", 0)
    values["store.columns.decode.rows"] = counts.get("store.columns.decode.rows", 0)
    values["store.wal.open.records"] = counts.get("store.wal.open.records", 0)
    wal_bytes, snapshot_bytes = write_bytes(workload)
    values["store.wal.append.bytes_per_append"] = _ratio(
        wal_bytes, recorder.calls.get("store.wal.append", 0)
    )
    values["store.snapshot.write.bytes"] = snapshot_bytes
    values["write_bytes_per_update"] = _ratio(wal_bytes + snapshot_bytes, updates)
    values["ivm.delta.apply.per_update"] = _ratio(recorder.calls.get("ivm.delta.apply", 0), updates)
    values["ivm.view.apply.incremental_share"] = share.get("view_incremental_share", 0.0)
    values["semirings.add_per_op"] = _ratio(counts.get("semirings.add_calls", 0), ops)
    values["semirings.mul_per_op"] = _ratio(counts.get("semirings.mul_calls", 0), ops)
    return values


def _attribution(recorder: layers.Recorder, records) -> Dict[str, Dict[str, float]]:
    """Per operation kind: wall time, the share no layer span covers, and
    the share the outermost facade span claims as self time."""
    report = {}
    for kind in sorted({record[0] for record in records if record[1] > 0}):
        wall_ms = sum(ms for k, ms, _ in records if k == kind)
        names = OP_SPANS.get(kind) or tuple(recorder.outermost_ns)
        covered_ms = sum(recorder.outermost_ns.get(name, 0) for name in names) / 1e6
        facade_ms = sum(recorder.self_ms(name) for name in names)
        report[kind] = {
            "wall_ms": wall_ms,
            "unattributed_share": 1.0 - _ratio(covered_ms, wall_ms),
            "facade_self_share": _ratio(facade_ms, wall_ms),
        }
    return report


def _self_check(workload) -> Tuple[bool, List[str]]:
    """Inject delays at two fault sites; each must land in its layer and
    raise the update median by about the injected amount.

    The three conditions (no fault, each site delayed) alternate update by
    update, so a slow spell of the machine hits all of them alike, and
    rotate every three updates, so each meets every third (compacting)
    update equally often.
    """
    from repro.resilience.faults import fail_at

    delay_ms = SELF_CHECK_DELAY_S * 1000.0
    sites = (None, "wal.append.write", "store.update.apply")
    recorders = {site: layers.Recorder() for site in sites}
    updates: Dict[object, List[float]] = {site: [] for site in sites}
    for number in range(SELF_CHECK_UPDATES * len(sites)):
        site = sites[(number + number // len(sites)) % len(sites)]
        records: list = []
        layers.activate(recorders[site])
        try:
            if site is None:
                workload.step(records)
            else:
                with fail_at(site, action="delay", delay_s=SELF_CHECK_DELAY_S, times=0):
                    workload.step(records)
        finally:
            layers.activate(None)
        updates[site] += [ms for kind, ms, _ in records if kind == "update"]

    def per_call(recorder, layer):
        return _ratio(recorder.self_ms(layer), recorder.calls.get(layer, 0))

    base_p50 = median(updates[None])
    lines = []
    passed = True
    for site, layer in (("wal.append.write", "store.wal.append"), ("store.update.apply", "store.update")):
        moved = per_call(recorders[site], layer) - per_call(recorders[None], layer)
        p50 = median(updates[site])
        raised = p50 - base_p50
        layer_ok = abs(moved - delay_ms) <= 0.2 * delay_ms
        p50_ok = abs(raised - delay_ms) <= 0.5 * delay_ms
        passed = passed and layer_ok and p50_ok
        lines.append(
            f"delay {delay_ms:.0f} ms at {site}: {layer} self time per call {moved:+.1f} ms "
            f"({'ok' if layer_ok else 'FAIL'}), update p50 {base_p50:.1f} -> {p50:.1f} ms, "
            f"{raised:+.1f} ms ({'ok' if p50_ok else 'FAIL'}; {SELF_CHECK_UPDATES} updates each)"
        )
    return passed, lines


def traced_run(summary, recorder, reference):
    """Report the traced pass; returns ``(metrics, self_check_passed)``."""
    workload = summary["workload"]
    records = summary["records"]
    ops = summary["attempted"]
    updates = sum(1 for kind, _, _ in records if kind == "update")
    values = layer_metrics(recorder, workload, ops, updates)
    attribution = _attribution(recorder, records)
    op_wall = attribution.get(workload.op_kind, {}).get("wall_ms", 0.0)
    values["unattributed_share"] = attribution.get(workload.op_kind, {}).get(
        "unattributed_share", 0.0
    )
    untraced = {name: entry["value"] for name, entry in reference["metrics"].items()}
    traced = {name: value for name, (value, _unit) in summary["metrics"].items()}
    values["trace_overhead.op_p50_ms"] = traced["op_p50_ms"] - untraced["op_p50_ms"]

    say(f"== {workload.name}: per-layer ({ops} operations, {op_wall / 1000.0:.2f} s traced) ==")
    for layer, (wraps, moves) in layers.LAYERS.items():
        calls = values[f"{layer}.calls"]
        if not calls:
            continue
        say(
            f"  {layer:<22} self {values[f'{layer}.self_ms']:11.2f} ms  calls {calls:7d}"
            f"   -> {moves}   [{wraps}]"
        )
    for name, unit, _better in PER_LAYER:
        if ".self_ms" in name or name.endswith(".calls"):
            continue
        say(f"  {name:<40} {values[name]:14.4f} {unit}")
    if workload.semiring.codegen_add or workload.semiring.codegen_mul:
        say(
            f"  semiring counts omit the + and * that generated programs inline "
            f"for {workload.semiring.name}"
        )
    for kind, entry in attribution.items():
        say(
            f"  attribution [{kind}]: wall {entry['wall_ms']:.1f} ms, "
            f"unattributed {entry['unattributed_share']:.4f}, "
            f"facade self {entry['facade_self_share']:.4f}"
        )
    say("  tracing overhead (traced minus untraced, same operations):")
    for name in traced:
        if name in untraced:
            say(f"    {name:<16} {traced[name]:12.4f} - {untraced[name]:12.4f} = {traced[name] - untraced[name]:+.4f}")

    passed = True
    if workload.name == "update-stream":
        started = time.perf_counter()
        passed, lines = _self_check(workload)
        for line in lines:
            say(f"  self-check: {line}")
        say(f"  self-check {'passed' if passed else 'FAILED'} in {time.perf_counter() - started:.1f} s")
        workload.verify()  # the views once more, after the self-check updates

    metrics = {}
    for name, unit, _better in PER_LAYER:
        metrics[name] = (values[name], unit)
    return metrics, passed

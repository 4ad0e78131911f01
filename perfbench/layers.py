"""Per-layer metrics of a traced benchmark run.

The harness records spans around every layer call it makes (obs::TraceSpan,
exported as Chrome trace-event JSON) and the library adds its own runner.*,
pool.*, mc.*, campaign.* and serve.* spans to the same trace; agingd writes
its spans to a second file. This module turns those spans and the metrics
snapshots taken before and after the traced phase into the per-layer
metrics named in BENCHMARK.json.

Spans on one thread nest strictly (they are scoped objects), so a span's
parent is the innermost span of the same thread that encloses it, and its
self time is its duration minus the durations of its direct children.
Timestamps are integer nanoseconds: the export prints microseconds with ten
significant digits, which is exact for spans that end within 10 s of the
trace origin, and the harness keeps its traced phase that short.
"""

import json
import os
import statistics

# (name, unit) of every per-layer metric, in BENCHMARK.json order. Counts
# and times are per job (one paper regeneration, one MC campaign, one
# serve round) unless the name says otherwise; 0 means the workload does
# not reach that layer or the layer has no span there yet.
PER_LAYER = [
    ("sim.trace.calls", "count"),
    ("sim.trace.ops", "count"),
    ("sim.trace.busy_ms", "ms"),
    ("sim.gates_evaluated_frac", "ratio"),
    ("aging.stress.calls", "count"),
    ("aging.stress.busy_ms", "ms"),
    ("aging.overlay.busy_ms", "ms"),
    ("sim.sta.busy_ms", "ms"),
    ("multiplier.build.busy_ms", "ms"),
    ("core.replay.calls", "count"),
    ("core.replay.ops", "count"),
    ("core.replay.busy_ms", "ms"),
    ("mc.block.units", "count"),
    ("mc.block.busy_ms", "ms"),
    ("runtime.unit.wait_ms", "ms"),
    ("runtime.unit.retries", "count"),
    ("runtime.unit.quarantined", "count"),
    ("exec.pool.queue_wait_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.corner_refills", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.query_hit_p50_ms", "ms"),
    ("serve.query_hit_p99_ms", "ms"),
    ("serve.query_miss_p50_ms", "ms"),
    ("fault.campaign.busy_ms", "ms"),
    ("fault.campaign_p50_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
]

# Span name -> per-layer busy metric its self time counts towards.
BUSY = {
    "sim.trace": "sim.trace.busy_ms",
    "aging.stress": "aging.stress.busy_ms",
    "aging.overlay": "aging.overlay.busy_ms",
    "sim.sta": "sim.sta.busy_ms",
    "multiplier.build": "multiplier.build.busy_ms",
    "core.replay": "core.replay.busy_ms",
    "mc.block": "mc.block.busy_ms",
}

# Span name -> per-layer call count.
CALLS = {
    "sim.trace": "sim.trace.calls",
    "aging.stress": "aging.stress.calls",
    "core.replay": "core.replay.calls",
    "mc.block": "mc.block.units",
}


def load_spans(path):
    """Spans of one trace file as dicts with integer-ns begin/end."""
    with open(path) as f:
        doc = json.load(f)
    dropped = int(doc.get("otherData", {}).get("dropped_events", 0))
    spans = []
    for e in doc.get("traceEvents", []):
        if e.get("ph") != "X":
            continue
        begin = round(float(e["ts"]) * 1000)
        spans.append({
            "name": e["name"],
            "tid": int(e["tid"]),
            "begin": begin,
            "end": begin + round(float(e["dur"]) * 1000),
            "id": e.get("args", {}).get("v"),
        })
    return spans, dropped


def nest(spans):
    """Sets parent (index or None), children and self (ns) on every span."""
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i]["tid"], spans[i]["begin"],
                                  -spans[i]["end"]))
    stack = []
    for i in order:
        s = spans[i]
        s["children"] = []
        while stack and (spans[stack[-1]]["tid"] != s["tid"]
                         or spans[stack[-1]]["end"] < s["end"]):
            stack.pop()
        s["parent"] = stack[-1] if stack else None
        if stack:
            spans[stack[-1]]["children"].append(i)
        stack.append(i)
    for s in spans:
        s["self"] = (s["end"] - s["begin"]) - sum(
            spans[c]["end"] - spans[c]["begin"] for c in s["children"])
    return spans


def _counters(path):
    """name -> value (counters, gauges) or (sum, count) for histograms."""
    with open(path) as f:
        doc = json.load(f)
    if "result" in doc:  # agingd's `metrics` reply wraps the snapshot
        doc = doc["result"]
    out = {}
    for m in doc.get("metrics", []):
        if m.get("kind") == "histogram":
            out[m["name"]] = (float(m["sum"]), float(m["count"]))
        else:
            out[m["name"]] = float(m["value"])
    return out


def _delta(before, after, name):
    a, b = after.get(name, 0.0), before.get(name, 0.0)
    if isinstance(a, tuple):
        b = b if isinstance(b, tuple) else (0.0, 0.0)
        return (a[0] - b[0], a[1] - b[1])
    return a - (b if not isinstance(b, tuple) else 0.0)


def _waits(spans, child_name, parent_name):
    """Begin of each `child_name` span minus the begin of the innermost
    `parent_name` span (any thread of the same process) that was open when
    it started."""
    parents = sorted((s["begin"], s["end"], s.get("proc")) for s in spans
                     if s["name"] == parent_name)
    waits = []
    for s in spans:
        if s["name"] != child_name:
            continue
        best = None
        for b, e, proc in parents:
            if b > s["begin"]:
                break
            if e >= s["begin"] and proc == s.get("proc"):
                best = b
        if best is not None:
            waits.append(s["begin"] - best)
    return waits


def per_layer(result, out_dir):
    """Per-layer metrics {name: value} for a traced run's result.json."""
    info = result["trace_info"]
    files = result["trace_files"]
    jobs = max(1.0, float(info.get("traced_jobs", 1)))
    values = {name: 0.0 for name, _ in PER_LAYER}

    spans, dropped = [], 0
    for role in ("harness", "daemon"):
        if role in files:
            s, d = load_spans(os.path.join(out_dir, files[role]))
            # Spans of different processes never nest or wait on each other
            # (their clocks have different origins).
            for span in s:
                span["proc"] = role
                span["tid"] += 1_000_000 if role == "daemon" else 0
            spans += s
            dropped += d
    if dropped:
        raise RuntimeError(f"trace ring dropped {dropped} spans")
    nest(spans)

    for s in spans:
        if s["name"] in BUSY:
            values[BUSY[s["name"]]] += s["self"] / 1e6
        if s["name"] in CALLS:
            values[CALLS[s["name"]]] += 1
        if s["name"].startswith("campaign."):
            values["fault.campaign.busy_ms"] += s["self"] / 1e6
    setups = sum(1 for s in spans if s["name"] == "bench.setup")
    for name in BUSY.values():
        if name == "multiplier.build.busy_ms":
            values[name] /= max(1, setups)  # per set-up, not per job
        else:
            values[name] /= jobs
    values["fault.campaign.busy_ms"] /= jobs
    for name in CALLS.values():
        values[name] /= jobs
    values["core.replay.ops"] = float(info.get("replay_ops_per_job", 0.0))

    unit_waits = _waits(spans, "runner.unit", "runner.run")
    if unit_waits:
        values["runtime.unit.wait_ms"] = statistics.fmean(unit_waits) / 1e6
    pool_waits = _waits(spans, "pool.batch", "pool.job")
    if pool_waits:
        values["exec.pool.queue_wait_ms"] = statistics.fmean(pool_waits) / 1e6

    before = _counters(os.path.join(out_dir, files["metrics_before"]))
    after = _counters(os.path.join(out_dir, files["metrics_after"]))
    d = lambda name: _delta(before, after, name)  # noqa: E731
    values["sim.trace.ops"] = (d("sim.steps_dense") + d("sim.steps_sparse")
                               + d("sim.batch.lanes")) / jobs
    gate_steps = float(info.get("gate_steps_per_job", 0.0)) * jobs
    gate_words = float(info.get("gate_words_per_job", 0.0)) * jobs
    if gate_steps > 0:
        values["sim.gates_evaluated_frac"] = d("sim.gates_evaluated") / gate_steps
    elif gate_words > 0:
        values["sim.gates_evaluated_frac"] = (d("sim.batch.gates_evaluated")
                                              / gate_words)
    values["runtime.unit.retries"] = d("runner.retries") / jobs
    values["runtime.unit.quarantined"] = d("runner.units_quarantined") / jobs

    hits, misses = d("serve.cache_hits"), d("serve.cache_misses")
    if hits + misses > 0:
        values["serve.cache_hit_ratio"] = hits / (hits + misses)
    values["serve.corner_refills"] = d("serve.corner_refills") / jobs
    wait = d("serve.queue_wait_us")
    wait_sum, wait_count = wait if isinstance(wait, tuple) else (0.0, 0.0)
    if wait_count > 0:
        values["serve.queue_wait_ms"] = wait_sum / wait_count / 1e3
    values["serve.rejected"] = sum(
        d(n) for n in ("serve.rejected_overload", "serve.rejected_quota",
                       "serve.rejected_inflight_cap", "serve.rejected_draining",
                       "serve.shed_refill", "serve.shed_batch",
                       "serve.timed_out")) / jobs
    for kind in ("hit_p50", "hit_p99", "miss_p50"):
        values[f"serve.query_{kind}_ms"] = float(
            info.get(f"query_{kind}_ms", 0.0))
    values["fault.campaign_p50_ms"] = float(info.get("campaign_p50_ms", 0.0))

    if result["job_s"] and result["traced_job_s"]:
        values["trace.overhead_frac"] = (
            statistics.median(result["traced_job_s"])
            / statistics.median(result["job_s"]) - 1.0)
    return values

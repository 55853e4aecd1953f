"""Per-layer metrics from the spans of traced ops.

Each layer is a hiermem module. The targets below are the public functions
whose spans make up a layer's time; everything a layer calls that is not
itself a target counts as that layer's self time. ``cli.report_write_s`` is
the self time of ``cli.main`` (argument parsing and JSON report writing)
and ``cli.unattributed_s`` the self time of ``run_pipeline`` (the glue
between the stages). The benchmark's own code inside an op (the allocator
replay loop, for example) is ``bench.self_s``. By construction, the layer
self times, the two ``cli`` terms and ``bench.self_s`` add up to
``traced_wall_s``.

What each layer's metrics should move, written down before measuring:

* ``footprint``, ``tracer``: ``wall_s`` of the pipeline workloads, by under
  0.1%; flat everywhere.
* ``scheduler``: ``wall_s`` of ``paper-175b-l6``; flat on ``sim-1.7b-48it``.
* ``simengine``: ``wall_s`` and ``peak_rss_mib`` of ``sim-1.7b-48it``; about
  4% of ``paper-175b-l6``.
* ``cli``: ``wall_s``, ``peak_rss_mib`` and ``report_bytes`` of
  ``sim-1.7b-48it``; flat on ``paper-175b-l6``.
* ``pagemem``: ``pool_init_s`` moves ``setup_s`` of ``alloc-256g``; allocate
  and merge move its ``wall_s``; the move, release and ``state_dict`` side
  stays flat when allocation is optimised, and the counts stay exact while
  the packing policy is kept. Flat on every other workload.
* ``lockfree``: ``wall_s`` of ``toy-train``; flat on every other workload.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

from spans import Span, Target, self_times

LAYERS = ("footprint", "tracer", "scheduler", "simengine", "pagemem", "lockfree")

TARGETS = [
    Target("cli", "hiermem.cli", "main"),
    Target("cli", "hiermem.cli", "run_pipeline"),
    Target("footprint", "hiermem.footprint", "tensor_inventory", keep_result=True),
    Target("tracer", "hiermem.tracer", "build_trace", keep_result=True),
    Target("scheduler", "hiermem.scheduler", "schedule", keep_result=True),
    Target("scheduler", "hiermem.scheduler", "advance_gathers"),
    Target("scheduler", "hiermem.scheduler", "peak_memory"),
    Target("simengine", "hiermem.simengine", "simulate", keep_result=True),
    Target("pagemem", "hiermem.pagemem", "PageManager.allocate"),
    Target("pagemem", "hiermem.pagemem", "PageManager.release"),
    Target("pagemem", "hiermem.pagemem", "PageManager.page_move"),
    Target("pagemem", "hiermem.pagemem", "PageManager.tensor_merge", keep_result=True),
    Target("pagemem", "hiermem.pagemem", "PageManager.state_dict", keep_result=True),
    Target("lockfree", "hiermem.lockfree", "run_sync", keep_result=True),
    Target("lockfree", "hiermem.lockfree", "run_lockfree", keep_result=True),
]

# (name, unit, better). The order is the order of BENCHMARK.json's per_layer.
PER_LAYER = [
    ("traced_wall_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("footprint.tensor_inventory_s", "s", "lower"),
    ("footprint.tensors", "count", "lower"),
    ("footprint.self_s", "s", "lower"),
    ("tracer.build_trace_s", "s", "lower"),
    ("tracer.traces", "count", "lower"),
    ("tracer.self_s", "s", "lower"),
    ("scheduler.schedule_s", "s", "lower"),
    ("scheduler.schedule_calls", "count", "lower"),
    ("scheduler.advance_gathers_s", "s", "lower"),
    ("scheduler.peak_memory_s", "s", "lower"),
    ("scheduler.pages", "count", "lower"),
    ("scheduler.phase1_tasks", "count", "lower"),
    ("scheduler.phase2_tasks", "count", "lower"),
    ("scheduler.fwd_evictions", "count", "lower"),
    ("scheduler.deferred_moves", "count", "lower"),
    ("scheduler.gathers_advanced", "count", "higher"),
    ("scheduler.self_s", "s", "lower"),
    ("simengine.simulate_s", "s", "lower"),
    ("simengine.simulate_calls", "count", "lower"),
    ("simengine.timeline_rows", "count", "lower"),
    ("simengine.rows_per_s", "1/s", "higher"),
    ("simengine.self_s", "s", "lower"),
    ("cli.report_write_s", "s", "lower"),
    ("cli.unattributed_s", "s", "lower"),
    ("pagemem.pool_init_s", "s", "lower"),
    ("pagemem.allocate_s", "s", "lower"),
    ("pagemem.allocate_p50_us", "us", "lower"),
    ("pagemem.allocate_p99_us", "us", "lower"),
    ("pagemem.allocate_calls", "count", "lower"),
    ("pagemem.tensor_merge_s", "s", "lower"),
    ("pagemem.merge_moved_chunks", "count", "lower"),
    ("pagemem.page_move_s", "s", "lower"),
    ("pagemem.page_move_calls", "count", "lower"),
    ("pagemem.release_s", "s", "lower"),
    ("pagemem.state_dict_s", "s", "lower"),
    ("pagemem.shared_tail_pages", "count", "higher"),
    ("pagemem.fragmentation_cpu", "fraction", "lower"),
    ("pagemem.self_s", "s", "lower"),
    ("lockfree.run_sync_s", "s", "lower"),
    ("lockfree.run_lockfree_s", "s", "lower"),
    ("lockfree.publishes", "count", "lower"),
    ("lockfree.rejected_updates", "count", "lower"),
    ("lockfree.max_staleness", "count", "lower"),
    ("lockfree.self_s", "s", "lower"),
]


def _results(spans: list[Span], name: str) -> list:
    return [s.result for s in spans if s.name == name]


def schedule_counts(spans: list[Span]) -> dict[str, int]:
    """Phase-1 decisions and phase-2 advances, read off the returned Schedules."""
    schedules = _results(spans, "scheduler.schedule")
    phase1 = next((s for s in schedules if s.phase == "phase1"), None)
    phase2 = next((s for s in schedules if s.phase == "phase2"), None)
    out = {"scheduler.pages": 0, "scheduler.phase1_tasks": 0,
           "scheduler.phase2_tasks": 0, "scheduler.fwd_evictions": 0,
           "scheduler.deferred_moves": 0, "scheduler.gathers_advanced": 0}
    if phase1 is None:
        return out
    n = phase1.model.num_layers
    out["scheduler.pages"] = len(phase1.model.page_layer)
    out["scheduler.phase1_tasks"] = len(phase1.tasks)
    # forward-sweep evictions fire at a forward slot; post-backward ones after n
    out["scheduler.fwd_evictions"] = sum(
        1 for t in phase1.tasks if t.operation == "evict_to_cpu" and t.trigger_id < n)
    # every owned page is first prefetched at trigger 0; a deferred one moves later
    out["scheduler.deferred_moves"] = sum(
        1 for t in phase1.tasks if t.operation == "move_to_gpu" and 0 < t.trigger_id < n)
    if phase2 is not None:
        out["scheduler.phase2_tasks"] = len(phase2.tasks)
        before = {(t.target, t.slot): t.trigger_id
                  for t in phase1.tasks if t.operation == "all_gather"}
        out["scheduler.gathers_advanced"] = sum(
            1 for t in phase2.tasks if t.operation == "all_gather"
            and before.get((t.target, t.slot), t.trigger_id) != t.trigger_id)
    return out


def op_metrics(spans: list[Span]) -> dict[str, float]:
    """Every PER_LAYER metric except the set-up and overhead ones, for one op."""
    incl: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    own_by_name: dict[str, float] = defaultdict(float)
    own_by_layer: dict[str, float] = defaultdict(float)
    own = self_times(spans)
    for s in spans:
        incl[s.name] += s.duration
        calls[s.name] += 1
        own_by_name[s.name] += own[s.span_id]
        own_by_layer[s.layer] += own[s.span_id]

    m: dict[str, float] = {
        "traced_wall_s": incl["bench.op"],
        "bench.self_s": own_by_layer["bench"],
        "cli.report_write_s": own_by_name["cli.main"],
        "cli.unattributed_s": own_by_name["cli.run_pipeline"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = own_by_layer[layer]

    m["footprint.tensor_inventory_s"] = incl["footprint.tensor_inventory"]
    m["footprint.tensors"] = sum(len(r) for r in _results(spans, "footprint.tensor_inventory"))
    m["tracer.build_trace_s"] = incl["tracer.build_trace"]
    m["tracer.traces"] = sum(len(r) for r in _results(spans, "tracer.build_trace"))

    m["scheduler.schedule_s"] = incl["scheduler.schedule"]
    m["scheduler.schedule_calls"] = calls["scheduler.schedule"]
    m["scheduler.advance_gathers_s"] = incl["scheduler.advance_gathers"]
    m["scheduler.peak_memory_s"] = incl["scheduler.peak_memory"]
    m.update(schedule_counts(spans))

    m["simengine.simulate_s"] = incl["simengine.simulate"]
    m["simengine.simulate_calls"] = calls["simengine.simulate"]
    rows = sum(len(r.timeline) for r in _results(spans, "simengine.simulate"))
    m["simengine.timeline_rows"] = rows
    m["simengine.rows_per_s"] = rows / m["simengine.simulate_s"] if rows else 0.0

    allocate_us = sorted(s.duration * 1e6 for s in spans if s.name == "pagemem.allocate")
    m["pagemem.allocate_s"] = incl["pagemem.allocate"]
    m["pagemem.allocate_calls"] = len(allocate_us)
    m["pagemem.allocate_p50_us"] = statistics.median(allocate_us) if allocate_us else 0.0
    m["pagemem.allocate_p99_us"] = (allocate_us[min(len(allocate_us) - 1,
                                                    int(0.99 * len(allocate_us)))]
                                    if allocate_us else 0.0)
    m["pagemem.tensor_merge_s"] = incl["pagemem.tensor_merge"]
    m["pagemem.merge_moved_chunks"] = sum(
        r["moved_chunks"] for r in _results(spans, "pagemem.tensor_merge"))
    m["pagemem.page_move_s"] = incl["pagemem.page_move"]
    m["pagemem.page_move_calls"] = calls["pagemem.page_move"]
    m["pagemem.release_s"] = incl["pagemem.release"]
    m["pagemem.state_dict_s"] = incl["pagemem.state_dict"]
    states = _results(spans, "pagemem.state_dict")
    last = states[-1] if states else None
    m["pagemem.shared_tail_pages"] = sum(
        1 for p in last["pages"] if len(p["occupants"]) == 2) if last else 0
    m["pagemem.fragmentation_cpu"] = (last["pools"]["CPU"]["fragmentation"]
                                      if last and "CPU" in last["pools"] else 0.0)

    m["lockfree.run_sync_s"] = incl["lockfree.run_sync"]
    m["lockfree.run_lockfree_s"] = incl["lockfree.run_lockfree"]
    lockfree = _results(spans, "lockfree.run_lockfree")
    m["lockfree.publishes"] = sum(r.publishes for r in lockfree)
    m["lockfree.rejected_updates"] = sum(r.rejected_updates for r in lockfree)
    m["lockfree.max_staleness"] = max((r.max_staleness for r in lockfree), default=0)
    return m


def layer_shares(m: dict[str, float]) -> dict[str, float]:
    """Share of the traced op each layer's self time takes (for the printout)."""
    wall = m["traced_wall_s"] or 1.0
    shares = {layer: m[f"{layer}.self_s"] / wall for layer in LAYERS}
    shares["cli"] = (m["cli.report_write_s"] + m["cli.unattributed_s"]) / wall
    shares["bench"] = m["bench.self_s"] / wall
    return shares


def format_shares(shares: dict[str, float]) -> str:
    return ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])
                     if v >= 0.0005)

"""Reference simulate: the discrete-event replay as it was first written, one
DAG holding every iteration, chained by a zero-length gate task per
iteration that depends on every task of the iteration before.

It is kept only so tests can require the one-template simulator to report
exactly the same numbers. Its report's timeline is the globally sorted
tuple of entries, which tests compare with the rows of a ``Timeline``.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from hiermem.errors import ConfigError, SimulationError
from hiermem.scheduler import Schedule
from hiermem.simengine import (
    HardwareProfile,
    SimReport,
    TimelineEntry,
    _layer_update_cpu_s,
    _slot_durations,
)
from hiermem.tracer import TensorTrace


@dataclass
class _RefTask:
    uid: int
    task_id: str
    operation: str
    resource: str | None  # None = control task, completes at arrival
    duration: float
    deps: list[int] = field(default_factory=list)


def reference_simulate(schedule: Schedule, traces: list[TensorTrace],
                       profile: HardwareProfile, iterations: int = 1,
                       update_mode: str = "none", optimizer_tier: str = "ssd") -> SimReport:
    if iterations < 1:
        raise ConfigError("iterations must be >= 1")
    if update_mode not in ("none", "sync"):
        raise ConfigError(f"unknown update_mode {update_mode!r}")
    if optimizer_tier not in ("ssd", "cpu"):
        raise ConfigError(f"unknown optimizer_tier {optimizer_tier!r}")

    model = schedule.model
    n = model.num_layers
    num_slots = 2 * n
    page_bytes = model.page_bytes
    world = schedule.sharding.world_size

    slot_dur = _slot_durations(schedule, traces)
    update_cpu = _layer_update_cpu_s(schedule, traces)
    h2d_bw = profile.pcie_effective_bw("pcie_h2d")
    d2h_bw = profile.pcie_effective_bw("pcie_d2h")
    h2d_lat = profile.links["pcie_h2d"].latency_s
    d2h_lat = profile.links["pcie_d2h"].latency_s
    gather_frac = (world - 1) / world

    sim_tasks: list[_RefTask] = []

    def add(task_id, operation, resource, duration, deps):
        sim_tasks.append(_RefTask(len(sim_tasks), task_id, operation, resource,
                                  duration, deps))
        return sim_tasks[-1].uid

    compute_tasks = {}
    for t in schedule.tasks:
        if t.operation == "compute":
            if t.trigger_id in compute_tasks:
                raise SimulationError(f"two compute tasks share trigger {t.trigger_id}")
            compute_tasks[t.trigger_id] = t
    by_trigger: dict[int, list] = {}
    for t in schedule.tasks:
        if t.operation != "compute":
            by_trigger.setdefault(t.trigger_id, []).append(t)
    max_trigger = max((t.trigger_id for t in schedule.tasks), default=0)

    prev_iteration_uids: list[int] = []
    for it in range(iterations):
        gate = add(f"it{it}.gate", "gate", None, 0.0, prev_iteration_uids)

        prev_comp: int | None = None
        compute_uid: dict[int, int] = {}
        moves_done: dict[int, list[tuple[int, int]]] = {}
        gather_uids_by_slot: dict[int, list[int]] = {}
        evict_uids_by_layer: dict[int, list[int]] = {}

        for slot in range(max_trigger + 1):
            elig = gate if slot == 0 or prev_comp is None else prev_comp
            for t in by_trigger.get(slot, []):
                if t.operation == "move_to_gpu":
                    dur = h2d_lat + page_bytes / h2d_bw
                    uid = add(f"it{it}.move.p{t.target}@{t.trigger_id}",
                              "move_to_gpu", "pcie_h2d", dur, [elig])
                    moves_done.setdefault(t.target, []).append((t.trigger_id, uid))
                elif t.operation == "all_gather":
                    dur = profile.links["gpu_interconnect"].latency_s + \
                        page_bytes * gather_frac / profile.links["gpu_interconnect"].bandwidth_bytes_per_s
                    deps = [elig]
                    if t.owned:
                        cands = [u for (trig, u) in moves_done.get(t.target, [])
                                 if trig <= t.trigger_id]
                        if not cands:
                            raise SimulationError(
                                f"all_gather of owned page {t.target} has no earlier move"
                            )
                        deps.append(cands[-1])
                    uid = add(f"it{it}.gather.p{t.target}@{t.trigger_id}",
                              "all_gather", "gpu_interconnect", dur, deps)
                    gather_uids_by_slot.setdefault(t.slot, []).append(uid)
                elif t.operation == "evict_to_cpu":
                    dur = d2h_lat + page_bytes / d2h_bw
                    uid = add(f"it{it}.evict.p{t.target}@{t.trigger_id}",
                              "evict_to_cpu", "pcie_d2h", dur, [elig])
                    evict_uids_by_layer.setdefault(t.layer, []).append(uid)
                else:
                    raise SimulationError(f"unknown operation {t.operation!r}")

            ct = compute_tasks.get(slot)
            if ct is not None:
                deps = ([prev_comp] if prev_comp is not None else [gate])
                deps += gather_uids_by_slot.get(slot, [])
                dur = slot_dur[slot] if slot < num_slots else 0.0
                uid = add(f"it{it}.compute.s{slot}.l{ct.target}", "compute", "gpu",
                          dur, deps)
                compute_uid[slot] = uid
                prev_comp = uid

        if update_mode == "sync":
            prev_in_pipe: list[int] = []
            last_comp = prev_comp if prev_comp is not None else gate
            for layer in reversed(range(n)):
                deps = evict_uids_by_layer.get(
                    layer, [compute_uid.get(2 * n - 1 - layer, last_comp)]
                ) + prev_in_pipe
                io_s = profile.transfer_time(model.layer_optim_bytes[layer] // world, "ssd_io")
                if optimizer_tier == "ssd":
                    deps = [add(f"it{it}.optim_fetch.l{layer}", "optim_fetch",
                                "ssd_io", io_s, deps)]
                upd = add(f"it{it}.optim_update.l{layer}", "optim_update",
                          "cpu", update_cpu[layer], deps)
                if optimizer_tier == "ssd":
                    upd = add(f"it{it}.optim_store.l{layer}", "optim_store",
                              "ssd_io", io_s, [upd])
                prev_in_pipe = [upd]

        prev_iteration_uids = [t.uid for t in sim_tasks[gate:]]

    finish = _reference_event_loop(sim_tasks)

    timeline = []
    busy: dict[str, float] = {}
    for t in sim_tasks:
        if t.resource is None:
            continue
        start, end = finish[t.uid][0], finish[t.uid][1]
        timeline.append(TimelineEntry(t.task_id, t.operation, t.resource, start, end))
        busy[t.resource] = busy.get(t.resource, 0.0) + (end - start)
    makespan = max((f[1] for f in finish.values()), default=0.0)
    _reference_checks(sim_tasks, finish)

    utilization = {r: (b / makespan if makespan > 0 else 0.0) for r, b in busy.items()}
    gpu_busy = busy.get("gpu", 0.0)
    idle = 1.0 - gpu_busy / makespan if makespan > 0 else 0.0
    samples = iterations * model.batch_size
    return SimReport(
        makespan_s=makespan,
        busy_s=busy,
        utilization=utilization,
        gpu_idle_fraction=idle,
        timeline=tuple(sorted(timeline, key=lambda e: (e.start_s, e.task_id))),
        samples_per_s=samples / makespan if makespan > 0 else math.inf,
        metadata={
            "iterations": iterations,
            "update_mode": update_mode,
            "optimizer_tier": optimizer_tier if update_mode == "sync" else None,
            "allgather_cost_model": "per page: latency + bytes*(N-1)/N / link bandwidth",
            "num_gpus": profile.num_gpus,
            "pcie_lanes": profile.pcie_lanes,
            "schedule_phase": schedule.phase,
        },
    )


def _reference_event_loop(sim_tasks: list[_RefTask]) -> dict[int, tuple[float, float]]:
    pending = {t.uid: len(t.deps) for t in sim_tasks}
    dependents: dict[int, list[int]] = {}
    for t in sim_tasks:
        for d in t.deps:
            dependents.setdefault(d, []).append(t.uid)

    queues: dict[str, list] = {}
    running: dict[str, int | None] = {}
    finish: dict[int, tuple[float, float]] = {}
    events: list[tuple[float, int, int]] = []
    seq = 0

    def enqueue(uid: int, arrival: float):
        nonlocal seq
        t = sim_tasks[uid]
        if t.resource is None:
            heapq.heappush(events, (arrival, seq, uid))
            seq += 1
            return
        queues.setdefault(t.resource, [])
        running.setdefault(t.resource, None)
        heapq.heappush(queues[t.resource], (arrival, uid))
        maybe_start(t.resource, arrival)

    def maybe_start(resource: str, now: float):
        nonlocal seq
        if running[resource] is not None or not queues[resource]:
            return
        arrival, uid = heapq.heappop(queues[resource])
        start = max(arrival, now)
        t = sim_tasks[uid]
        running[resource] = uid
        finish[uid] = (start, start + t.duration)
        heapq.heappush(events, (start + t.duration, seq, uid))
        seq += 1

    for t in sim_tasks:
        if pending[t.uid] == 0:
            enqueue(t.uid, 0.0)

    done = 0
    while events:
        now, _, uid = heapq.heappop(events)
        t = sim_tasks[uid]
        if t.resource is None:
            finish[uid] = (now, now)
        else:
            running[t.resource] = None
        done += 1
        for dep_uid in dependents.get(uid, []):
            pending[dep_uid] -= 1
            if pending[dep_uid] == 0:
                enqueue(dep_uid, max(finish[d][1] for d in sim_tasks[dep_uid].deps))
        if t.resource is not None:
            maybe_start(t.resource, now)

    if done != len(sim_tasks):
        raise SimulationError(
            f"simulation stalled: {len(sim_tasks) - done} tasks never ran "
            "(cyclic or unsatisfiable dependencies)"
        )
    return finish


def _reference_checks(sim_tasks: list[_RefTask], finish: dict[int, tuple[float, float]]):
    by_resource: dict[str, list[tuple[float, float]]] = {}
    for t in sim_tasks:
        start, end = finish[t.uid]
        for d in t.deps:
            if finish[d][1] > start + 1e-12:
                raise SimulationError(
                    f"causality violation: {t.task_id} started before a dependency finished"
                )
        if t.resource is not None:
            by_resource.setdefault(t.resource, []).append((start, end))
    for resource, spans in by_resource.items():
        spans.sort()
        for (s0, e0), (s1, _) in zip(spans, spans[1:]):
            if s1 < e0 - 1e-12:
                raise SimulationError(f"overlap on resource {resource}")

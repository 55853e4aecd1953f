"""Reference scheduler: phase 1's forward/backward sweep as it was first
written, rebuilding the whole residency profile for every query, and phase 2
and the per-layer working set as they were written before both ran on phase
1's maintained residency. The residency sweep is the per-task one that came
before the scheduler's column sweep.

Phase 1 here is quadratic in the number of decisions. All of it is kept only
so tests can require the scheduler to emit exactly the same tasks and
profiles.
"""
from bisect import bisect_right
from dataclasses import replace
from itertools import accumulate

from hiermem.errors import InfeasibleScheduleError
from hiermem.scheduler import (
    _RESIDENT_KINDS,
    LayerModel,
    Schedule,
    ShardingModel,
    Task,
    _traced_lifetimes,
    task_columns,
)
from hiermem.tracer import TensorTrace, backward_id


def _page_intervals(acquires, evicts, release: int) -> list[tuple[int, int]]:
    """Slot intervals [start, end) over which one page is resident.

    Each acquire holds the page until the next later eviction or
    ``release``, whichever comes first; empty intervals are dropped. A page
    is resident once however many acquires hold it, so an acquire inside an
    earlier one's interval, which ends at the same eviction, adds nothing.
    Both trigger lists are sorted. ``release`` is one past the layer's
    backward slot, so it never exceeds the 2n-slot horizon and neither end
    needs clamping.
    """
    intervals = []
    for a in acquires:
        if intervals and a < intervals[-1][1]:
            continue
        k = bisect_right(evicts, a)
        r = evicts[k] if k < len(evicts) and evicts[k] < release else release
        if r > a:
            intervals.append((a, r))
    return intervals


def reference_residency(tasks, model: LayerModel, sharding: ShardingModel,
                        traces: list[TensorTrace]):
    """One sweep over a list of Task rows: (resident GPU bytes per compute
    slot, page -> acquire triggers, page -> eviction triggers), triggers sorted."""
    horizon = 2 * model.num_layers
    delta = [0] * (horizon + 1)
    for spec, start, end in _traced_lifetimes(model, traces):
        delta[start] += spec.bytes
        delta[end] -= spec.bytes
    acquires: dict[int, list[int]] = {}
    evicts: dict[int, list[int]] = {}
    for task in tasks:
        pid = task.target
        if task.operation == "compute" or not 0 <= pid < model.num_pages:
            continue
        if task.operation == "evict_to_cpu":
            evicts.setdefault(pid, []).append(task.trigger_id)
        elif task.operation == ("move_to_gpu" if sharding.owns(pid) else "all_gather"):
            acquires.setdefault(pid, []).append(task.trigger_id)
    for triggers in (*acquires.values(), *evicts.values()):
        triggers.sort()
    # only acquired pages are ever resident
    for pid, triggers in acquires.items():
        release = backward_id(model.layer_of(pid), model.num_layers) + 1
        for a, r in _page_intervals(triggers, evicts.get(pid, ()), release):
            delta[a] += model.page_bytes
            delta[r] -= model.page_bytes
    return list(accumulate(delta[:horizon])), acquires, evicts


def _resident_profile(tasks, model: LayerModel, sharding: ShardingModel,
                      traces: list[TensorTrace]) -> list[int]:
    """Resident GPU bytes per compute slot, in one sweep over Task rows."""
    return reference_residency(tasks, model, sharding, traces)[0]


def reference_layer_working_set(model: LayerModel, traces: list[TensorTrace], layer: int) -> int:
    """Gathered FP16 params of the layer plus its peak live traced bytes."""
    n = model.num_layers
    slots = (layer, backward_id(layer, n))
    live = {s: 0 for s in slots}
    for tr in traces:
        spec = model.tensor_info.get(tr.tensor_id)
        if spec is None or spec.kind not in _RESIDENT_KINDS or spec.layer_index != layer:
            continue
        for s in slots:
            if tr.first_id <= s <= tr.end_id:
                live[s] += spec.bytes
    return len(model.layer_pages[layer]) * model.page_bytes + max(live.values())


def reference_advance_gathers(schedule: Schedule, traces: list[TensorTrace]) -> Schedule:
    """Re-trigger each all_gather at its earliest in-budget point.

    Tasks are scanned in schedule order. An owned page's gather may never
    precede that page's move; a non-owned gather stops at the first slot
    whose residency would overflow the budget. Only gather triggers change,
    and none increases.
    """
    model, sharding = schedule.model, schedule.sharding
    page_bytes = model.page_bytes
    budget = schedule.gpu_budget
    tasks = list(schedule.tasks)
    resident = _resident_profile(tasks, model, sharding, traces)

    moves_by_page: dict[int, list[int]] = {}
    evicts_by_page: dict[int, list[int]] = {}
    for t in tasks:
        if t.operation == "move_to_gpu":
            moves_by_page.setdefault(t.target, []).append(t.trigger_id)
        elif t.operation == "evict_to_cpu":
            evicts_by_page.setdefault(t.target, []).append(t.trigger_id)

    for idx, task in enumerate(tasks):
        if task.operation != "all_gather":
            continue
        old = task.trigger_id
        # a re-gather may not precede the eviction it recovers from
        lb = max([e for e in evicts_by_page.get(task.target, []) if e <= old],
                 default=0)
        if task.owned:
            moves = [m for m in moves_by_page.get(task.target, []) if m <= old]
            lb = max(lb, max(moves) if moves else old)
            new = lb  # owned-page gathers reuse the resident shard: no memory cost
        else:
            new = old
            while new > lb and resident[new - 1] + page_bytes <= budget:
                new -= 1
            for x in range(new, old):
                resident[x] += page_bytes
        if new != old:
            tasks[idx] = replace(task, trigger_id=new)

    order = sorted(range(len(tasks)), key=lambda k: (tasks[k].trigger_id, k))
    return Schedule(task_columns(tasks[k] for k in order), "phase2",
                    budget, model, sharding)


def reference_build_phase1(model: LayerModel, traces, gpu_budget: int,
                           sharding: ShardingModel) -> tuple[list[Task], dict[int, int]]:
    n = model.num_layers
    page_bytes = model.page_bytes
    own_pages = [[p for p in pages if sharding.owns(p)] for pages in model.layer_pages]

    sizes = [reference_layer_working_set(model, traces, i) for i in range(n)]
    for i, size in enumerate(sizes):
        if size > gpu_budget:
            raise InfeasibleScheduleError(i, size, gpu_budget)

    tasks: list[Task] = []
    for i in range(n):
        for pid in own_pages[i]:
            tasks.append(Task("move_to_gpu", pid, 0, i, i, True))

    wait_stack: list[int] = []
    evicted_fwd: dict[int, int] = {}

    def avail(at: int, exclude: int | None) -> int:
        """Budget left at slot ``at`` by everything but layer ``exclude``'s
        page tasks and traced tensors."""
        kept = [t for t in tasks if exclude is None or t.operation == "compute"
                or model.layer_of(t.target) != exclude]
        kept_traces = [tr for tr in traces if exclude is None
                       or tr.tensor_id not in model.tensor_info
                       or model.tensor_info[tr.tensor_id].layer_index != exclude]
        profile = _resident_profile(kept, model, sharding, kept_traces)
        return gpu_budget - profile[at]

    for i in range(n):
        for pid in [p for p in wait_stack if model.layer_of(p) == i]:
            wait_stack.remove(pid)
            tasks.append(Task("move_to_gpu", pid, i, i, i, True))

        while avail(i, exclude=i) < sizes[i]:
            deferred = False
            for idx in range(len(tasks) - 1, -1, -1):
                t = tasks[idx]
                if t.operation == "move_to_gpu" and t.layer > i:
                    tasks.pop(idx)
                    wait_stack.append(t.target)
                    deferred = True
                    break
            if deferred:
                continue
            victim = next((j for j in range(i) if j not in evicted_fwd), None)
            if victim is None:
                raise InfeasibleScheduleError(i, sizes[i], avail(i, exclude=i))
            for pid in model.layer_pages[victim]:
                tasks.append(Task("evict_to_cpu", pid, i, victim, i,
                                  sharding.owns(pid)))
            evicted_fwd[victim] = i

        for pid in model.layer_pages[i]:
            tasks.append(Task("all_gather", pid, i, i, i, sharding.owns(pid)))
        tasks.append(Task("compute", i, i, i, i))

        while wait_stack and avail(i, exclude=None) > page_bytes:
            pid = wait_stack.pop()
            layer = model.layer_of(pid)
            tasks.append(Task("move_to_gpu", pid, i, layer, layer, True))

    assert not wait_stack, "wait stack must drain by the end of the forward sweep"

    for slot in range(n, 2 * n):
        i = 2 * n - 1 - slot
        if i in evicted_fwd:
            for pid in own_pages[i]:
                tasks.append(Task("move_to_gpu", pid, slot, i, slot, True))
            for pid in model.layer_pages[i]:
                tasks.append(Task("all_gather", pid, slot, i, slot, sharding.owns(pid)))
        tasks.append(Task("compute", i, slot, i, slot))
        for pid in own_pages[i]:
            tasks.append(Task("evict_to_cpu", pid, slot + 1, i, slot, True))

    return tasks, evicted_fwd


def reference_schedule(model: LayerModel, traces, gpu_budget: int,
                       sharding: ShardingModel) -> tuple[Schedule, Schedule]:
    """(phase 1, phase 2) as the scheduler first computed them."""
    tasks, _ = reference_build_phase1(model, traces, gpu_budget, sharding)
    phase1 = Schedule(task_columns(tasks), "phase1", gpu_budget, model, sharding)
    profile = _resident_profile(tasks, model, sharding, traces)
    peak = max(profile)
    if peak > gpu_budget:
        slot = profile.index(peak)
        n = model.num_layers
        raise InfeasibleScheduleError(slot if slot < n else 2 * n - 1 - slot,
                                      peak, gpu_budget)
    return phase1, reference_advance_gathers(phase1, traces)

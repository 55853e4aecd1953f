"""Reference phase 1: the scheduler's forward/backward sweep as it was first
written, rebuilding the whole residency profile for every query.

It is quadratic in the number of decisions and kept only so tests can
require the incremental scheduler to emit exactly the same tasks.
"""
from hiermem.errors import InfeasibleScheduleError
from hiermem.scheduler import (
    LayerModel,
    Schedule,
    ShardingModel,
    Task,
    _layer_working_set,
    _resident_profile,
    advance_gathers,
)


def reference_build_phase1(model: LayerModel, traces, gpu_budget: int,
                           sharding: ShardingModel) -> tuple[list[Task], dict[int, int]]:
    n = model.num_layers
    page_bytes = model.page_bytes
    own_pages = [[p for p in pages if sharding.owns(p)] for pages in model.layer_pages]

    sizes = [_layer_working_set(model, traces, i) for i in range(n)]
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
        profile = _resident_profile(tasks, model, sharding, traces, exclude_layer=exclude)
        return gpu_budget - profile[at]

    for i in range(n):
        for pid in [p for p in wait_stack if model.page_layer[p] == i]:
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
            layer = model.page_layer[pid]
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
    phase1 = Schedule(tuple(tasks), "phase1", gpu_budget, model, sharding)
    profile = _resident_profile(tasks, model, sharding, traces)
    peak = max(profile)
    if peak > gpu_budget:
        slot = profile.index(peak)
        n = model.num_layers
        raise InfeasibleScheduleError(slot if slot < n else 2 * n - 1 - slot,
                                      peak, gpu_budget)
    return phase1, advance_gathers(phase1, traces)

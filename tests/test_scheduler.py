"""Two-phase scheduler: worked examples, residency oracle, feasibility properties."""
import dataclasses
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermem.errors import ConfigError, InfeasibleScheduleError
from hiermem.footprint import TensorSpec
from hiermem.jsonio import RowStream
from hiermem.scheduler import (
    LayerModel,
    Schedule,
    ShardingModel,
    Task,
    advance_gathers,
    available_memory,
    peak_memory,
    schedule,
    task_columns,
    validate_schedule,
)
from hiermem.tracer import TensorTrace, backward_id

MIB = 2**20
PAGE = 4 * MIB


def make_instance(layer_pages, acts=None, grads=None, page_bytes=PAGE,
                  world=1, rank=0):
    """LayerModel + traces with params page-aligned and explicit act/grad sizes."""
    n = len(layer_pages)
    acts = acts or [0] * n
    grads = grads or [0] * n
    tensor_info = {}
    traces = []
    tid = 0
    params = []
    for layer, pages in enumerate(layer_pages):
        pbytes = pages * page_bytes
        params.append(pbytes)
        tensor_info[tid] = TensorSpec(f"L{layer}.param", "param16", pbytes, layer)
        traces.append(TensorTrace(tid, layer, backward_id(layer, n), 0.0, 0.0))
        tid += 1
        if acts[layer]:
            tensor_info[tid] = TensorSpec(f"L{layer}.act", "activation16",
                                          acts[layer], layer)
            traces.append(TensorTrace(tid, layer, backward_id(layer, n), 0.0,
                                      acts[layer] * 1e-10))
            tid += 1
        if grads[layer]:
            tensor_info[tid] = TensorSpec(f"L{layer}.grad", "grad16", grads[layer], layer)
            b = backward_id(layer, n)
            traces.append(TensorTrace(tid, b, b, 0.0, grads[layer] * 1e-10))
            tid += 1
    for layer, pbytes in enumerate(params):  # after the traced ids, so those do not move
        tensor_info[tid + layer] = TensorSpec(f"L{layer}.optim", "optim32", 6 * pbytes, layer)
    model = LayerModel(n, page_bytes, tensor_info)
    return model, traces, ShardingModel(world, rank)


def tasks_of(sched, op=None):
    return [t for t in sched.tasks if op is None or t.operation == op]


def brute_force_resident(sched: Schedule, traces, x: int) -> int:
    """Independent per-slot residency: plain loops over acquire/release pairs."""
    model, sharding = sched.model, sched.sharding
    n = model.num_layers
    total = 0
    for pid in range(model.num_pages):
        layer = model.layer_of(pid)
        owned = sharding.owns(pid)
        acq_op = "move_to_gpu" if owned else "all_gather"
        acquires = sorted(t.trigger_id for t in sched.tasks
                          if t.operation == acq_op and t.target == pid)
        evicts = sorted(t.trigger_id for t in sched.tasks
                        if t.operation == "evict_to_cpu" and t.target == pid)
        release_default = 2 * n - layer  # one past the layer's backward slot
        for a in acquires:
            release = min([e for e in evicts if e > a] + [release_default])
            if a <= x < release:
                total += model.page_bytes
                break
    for tr in traces:
        spec = sched.model.tensor_info.get(tr.tensor_id)
        if spec and spec.kind in ("activation16", "grad16") and tr.first_id <= x <= tr.end_id:
            total += spec.bytes
    return total


def brute_force_peak(sched, traces):
    return max(brute_force_resident(sched, traces, x)
               for x in range(2 * sched.model.num_layers)) if sched.tasks else 0


def param_model(layer_param_bytes, page_bytes, **extra_layer_tensors):
    """LayerModel with one param16 tensor per layer of the given sizes, plus
    ``kind=[bytes per layer]`` tensors after them; a 0 size is no tensor."""
    specs = [TensorSpec(f"L{layer}.param", "param16", b, layer)
             for layer, b in enumerate(layer_param_bytes) if b]
    for kind, sizes in extra_layer_tensors.items():
        specs += [TensorSpec(f"L{layer}.{kind}", kind, b, layer)
                  for layer, b in enumerate(sizes) if b]
    return LayerModel(len(layer_param_bytes), page_bytes, dict(enumerate(specs)))


def enumerated_pages(layer_param_bytes, page_bytes):
    """The page table written out: a list of page ids per layer and a dict
    entry per page, consecutive ids layer after layer."""
    layer_pages, page_layer, next_page = [], {}, 0
    for layer, b in enumerate(layer_param_bytes):
        count = max(1, math.ceil(b / page_bytes))
        layer_pages.append(list(range(next_page, next_page + count)))
        page_layer.update((pid, layer) for pid in layer_pages[-1])
        next_page += count
    return layer_pages, page_layer


@st.composite
def layer_byte_lists(draw):
    """A page size and per-layer param bytes: empty layers, exact page
    multiples, one byte over, and anything in between."""
    page = draw(st.sampled_from([2**16, 2**22]))
    size = st.one_of(st.just(0), st.integers(1, 5).map(lambda k: k * page),
                     st.integers(0, 5).map(lambda k: k * page + 1), st.integers(0, 6 * page))
    return page, draw(st.lists(size, min_size=1, max_size=8))


class TestLayerModel:
    @settings(max_examples=200, deadline=None)
    @given(layer_byte_lists())
    def test_pages_are_the_enumerated_table(self, case):
        page_bytes, layer_bytes = case
        model = param_model(layer_bytes, page_bytes)
        layer_pages, page_layer = enumerated_pages(layer_bytes, page_bytes)
        assert [list(pages) for pages in model.layer_pages] == layer_pages
        assert model.num_pages == len(page_layer)
        assert {pid: model.layer_of(pid) for pid in range(model.num_pages)} == page_layer
        assert model.page_layer == page_layer

    def test_layer_bytes_are_sums_of_the_tensor_table(self):
        page = 2**16
        model = param_model([page, 0, 3], page, param16=[1, 2, page], optim32=[6, 7, 8],
                            activation16=[2**40, 0, 0])
        assert model.layer_param_bytes == [page + 1, 2, page + 3]
        assert model.layer_optim_bytes == [6, 7, 8]
        assert [len(pages) for pages in model.layer_pages] == [2, 1, 2]

    def test_cost_does_not_depend_on_layer_size(self):
        """Two 4 GiB layers at 64 KiB pages (2**17 pages) build nothing per page."""
        page = 2**16
        info = {layer: TensorSpec(f"L{layer}.param", "param16", 4 * 2**30, layer)
                for layer in range(2)}
        tracemalloc.start()
        try:
            model = LayerModel(2, page, info)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < page
        assert model.num_pages == 2**17
        assert [model.layer_of(pid) for pid in (0, 2**16 - 1, 2**16, 2**17 - 1)] == [0, 0, 1, 1]

    def test_page_count_is_exact_past_2_to_the_53(self):
        """2**53 + 1 bytes is 2**37 pages of 64 KiB and one byte: a float
        quotient rounds the byte away."""
        model = LayerModel(1, 2**16, {0: TensorSpec("L0.param", "param16", 2**53 + 1, 0)})
        assert model.num_pages == 137438953473


class TestWorkedExamples:
    def test_two_layers_generous_budget(self):
        model, traces, sharding = make_instance([1, 1])
        p1 = schedule(model, traces, 2**30, sharding, phase1_only=True)
        moves = tasks_of(p1, "move_to_gpu")
        assert [(m.target, m.trigger_id) for m in moves[:2]] == [(0, 0), (1, 0)]
        fwd_gathers = [t for t in tasks_of(p1, "all_gather") if t.slot < 2]
        assert [(g.target, g.trigger_id) for g in fwd_gathers] == [(0, 0), (1, 1)]
        p2 = schedule(model, traces, 2**30, sharding)
        g1 = next(t for t in tasks_of(p2, "all_gather") if t.target == 1 and t.slot == 1)
        assert g1.trigger_id == 0  # advanced to overlap with layer-0 compute

    def test_two_layers_budget_of_one_working_set(self):
        model, traces, sharding = make_instance([1, 1])
        budget = PAGE  # exactly one layer's gathered params, no acts
        p2 = schedule(model, traces, budget, sharding)
        move1 = next(t for t in tasks_of(p2, "move_to_gpu") if t.target == 1)
        assert move1.trigger_id >= 1  # deferred past trigger 0
        g1 = next(t for t in tasks_of(p2, "all_gather") if t.target == 1 and t.slot == 1)
        assert g1.trigger_id == move1.trigger_id  # not advanced past its move
        assert validate_schedule(p2, traces) == []
        assert peak_memory(p2, traces) <= budget

    def test_single_layer_forward_prefix_and_phase2_noop(self):
        model, traces, sharding = make_instance([2])
        p1 = schedule(model, traces, 2**30, sharding, phase1_only=True)
        ops = [(t.operation, t.trigger_id) for t in p1.tasks]
        assert ops[:5] == [("move_to_gpu", 0), ("move_to_gpu", 0),
                           ("all_gather", 0), ("all_gather", 0), ("compute", 0)]
        p2 = schedule(model, traces, 2**30, sharding)
        assert [(t.operation, t.target, t.trigger_id) for t in p2.tasks] == \
            [(t.operation, t.target, t.trigger_id) for t in p1.tasks]

    def test_infeasible_single_layer_names_layer(self):
        model, traces, sharding = make_instance([2, 4])
        with pytest.raises(InfeasibleScheduleError) as err:
            schedule(model, traces, 3 * PAGE, sharding)
        assert err.value.layer == 1

    @pytest.mark.parametrize("budget", [-1, float("nan")])
    def test_budget_below_zero_is_config_error(self, budget):
        model, traces, sharding = make_instance([1, 1])
        for phase1_only in (True, False):
            with pytest.raises(ConfigError, match="gpu budget must be >= 0"):
                schedule(model, traces, budget, sharding, phase1_only=phase1_only)


class TestAvailableMemory:
    def test_empty_schedule_full_budget(self):
        model, traces, sharding = make_instance([1, 1])
        empty = Schedule(task_columns(()), "phase1", 2**30, model, sharding)
        for at in range(4):
            assert available_memory(empty, traces, at) == 2**30

    def test_single_move_consumes_page(self):
        model, traces, sharding = make_instance([1])
        sched = Schedule(task_columns((Task("move_to_gpu", 0, 0, 0, 0, True),)), "phase1",
                         2**30, model, sharding)
        assert available_memory(sched, traces, 0) == 2**30 - PAGE

    def test_acts_stop_counting_after_end(self):
        model, traces, sharding = make_instance([1, 1], acts=[0, MIB])
        # layer-1 acts live [1, 2]; layer-0 page persists to its backward (slot 3)
        sched = Schedule(task_columns((Task("move_to_gpu", 0, 0, 0, 0, True),)), "phase1",
                         2**30, model, sharding)
        assert available_memory(sched, traces, 1) == 2**30 - PAGE - MIB
        assert available_memory(sched, traces, 3) == 2**30 - PAGE
        with pytest.raises(ConfigError):
            available_memory(sched, traces, 99)

    def test_evicted_page_not_resident(self):
        model, traces, sharding = make_instance([1])
        sched = Schedule(task_columns((Task("move_to_gpu", 0, 0, 0, 0, True),
                                       Task("evict_to_cpu", 0, 1, 0, 0, True))), "phase1",
                         2**30, model, sharding)
        assert available_memory(sched, traces, 0) == 2**30 - PAGE
        assert available_memory(sched, traces, 1) == 2**30


class TestPeakMemory:
    def test_single_layer_peak_is_params_plus_acts(self):
        model, traces, sharding = make_instance([2], acts=[3 * MIB])
        sched = schedule(model, traces, 2**30, sharding)
        assert peak_memory(sched, traces) == 2 * PAGE + 3 * MIB

    def test_empty_schedule_zero(self):
        model, traces, sharding = make_instance([1])
        assert peak_memory(Schedule(task_columns(()), "phase1", 2**30, model, sharding), traces) == 0

    def test_extra_unevicted_page_raises_peak_by_page_size(self):
        model, traces, sharding = make_instance([1, 1])
        base = schedule(model, traces, 2**30, sharding)
        peak0 = peak_memory(base, traces)
        # never-evicted: acquire page 1 again right at the peak slot, no evict after
        slot = 1
        extra = base.tasks + (Task("move_to_gpu", 1, slot, 1, slot, True),)
        with_extra = Schedule(task_columns(extra), "phase1", 2**30, model, sharding)
        assert peak_memory(with_extra, traces) >= peak0
        # a fresh page of an extra layer always adds exactly one page at its slots
        model3, traces3, sh3 = make_instance([1, 1, 1])
        s3 = schedule(model3, traces3, 2**30, sh3)
        assert peak_memory(s3, traces3) == 3 * PAGE

    def test_matches_brute_force_oracle(self):
        for layer_pages, acts, world in [
            ([1, 1], [MIB, 2 * MIB], 1),
            ([2, 1, 2], [0, MIB, 0], 2),
            ([1, 2], [3 * MIB, MIB], 4),
        ]:
            model, traces, sharding = make_instance(layer_pages, acts=acts, world=world)
            sched = schedule(model, traces, 2**32, sharding)
            assert peak_memory(sched, traces) == brute_force_peak(sched, traces)


class TestValidate:
    def test_schedule_output_validates_clean(self):
        model, traces, sharding = make_instance([2, 1], acts=[MIB, MIB], world=2)
        sched = schedule(model, traces, 2**30, sharding)
        assert validate_schedule(sched, traces) == []

    def test_missing_move_flagged(self):
        model, traces, sharding = make_instance([1])
        sched = schedule(model, traces, 2**30, sharding)
        stripped = tuple(t for t in sched.tasks if t.operation != "move_to_gpu")
        bad = Schedule(task_columns(stripped), "phase1", 2**30, model, sharding)
        assert any("move_to_gpu" in v for v in validate_schedule(bad, traces))

    @pytest.mark.parametrize("page", [7, -1])
    def test_eviction_of_a_missing_page_flagged(self, page):
        """A page task whose target is not a parameter page names no layer."""
        model, traces, sharding = make_instance([1, 1])
        sched = schedule(model, traces, 2**30, sharding)
        bad = dataclasses.replace(sched, columns=task_columns(
            (*sched.tasks, Task("evict_to_cpu", page, 4, 0, 3, page == 7))))
        assert validate_schedule(bad, traces) == [f"page {page} is not a parameter page"]

    @pytest.mark.parametrize("slot", [9, -1])
    def test_compute_slot_outside_the_slots_flagged(self, slot):
        """A compute that serves no slot of the model is one slot fault and
        names no layer."""
        model, traces, sharding = make_instance([1, 1])
        sched = schedule(model, traces, 2**30, sharding)
        tasks = list(sched.tasks)
        k = next(k for k, t in enumerate(tasks) if t.operation == "compute" and t.slot == 3)
        tasks[k] = dataclasses.replace(tasks[k], slot=slot)
        bad = dataclasses.replace(sched, columns=task_columns(tasks))
        assert validate_schedule(bad, traces) == [
            f"compute at trigger 3 serves slot {slot}, outside [0, 4)"]

    @pytest.mark.parametrize("operation", ["move_to_gpu", "evict_to_cpu"])
    @pytest.mark.parametrize("slot", [4, -1])
    def test_page_slot_outside_the_slots_flagged(self, operation, slot):
        """A move or eviction that serves no slot of the model is one slot fault."""
        model, traces, sharding = make_instance([1, 1])
        sched = schedule(model, traces, 2**30, sharding)
        tasks = list(sched.tasks)
        k = next(k for k, t in enumerate(tasks) if t.operation == operation)
        tasks[k] = dataclasses.replace(tasks[k], slot=slot)
        bad = dataclasses.replace(sched, columns=task_columns(tasks))
        assert validate_schedule(bad, traces) == [
            f"{operation} of page {tasks[k].target} serves slot {slot}, outside [0, 4)"]

    @pytest.mark.parametrize("operation, trigger", [("evict_to_cpu", 99), ("evict_to_cpu", -1),
                                                    ("move_to_gpu", -1), ("move_to_gpu", 99)])
    def test_page_trigger_outside_the_triggers_flagged(self, operation, trigger):
        """A page task whose trigger is outside [0, 2n] is one trigger fault,
        and the residency leaves it out as if it were not listed."""
        model, traces, sharding = make_instance([1, 1])
        sched = schedule(model, traces, 2**30, sharding)
        tasks = list(sched.tasks)
        k = next(k for k, t in enumerate(tasks) if t.operation == operation)
        moved = dataclasses.replace(sched, columns=task_columns(
            (*tasks[:k], dataclasses.replace(tasks[k], trigger_id=trigger), *tasks[k + 1:])))
        dropped = dataclasses.replace(sched, columns=task_columns(tasks[:k] + tasks[k + 1:]))
        assert peak_memory(moved, traces) == peak_memory(dropped, traces)
        faults = validate_schedule(moved, traces)
        assert faults[0] == f"{operation} at trigger {trigger}, outside [0, 4]"
        assert faults[1:] == validate_schedule(dropped, traces)

    def test_budget_below_peak_flagged(self):
        model, traces, sharding = make_instance([2])
        sched = schedule(model, traces, 2**30, sharding)
        violations = validate_schedule(dataclasses.replace(sched, gpu_budget=PAGE), traces)
        assert any("peak" in v for v in violations)

    def test_nonincreasing_compute_triggers_flagged(self):
        model, traces, sharding = make_instance([1])
        bad = Schedule(task_columns((Task("compute", 0, 1, 0, 1), Task("compute", 0, 1, 0, 1))),
                       "phase1", 2**30, model, sharding)
        assert any("shares it with task 0" in v for v in validate_schedule(bad, traces))

    def test_descending_compute_triggers_flagged(self):
        model, traces, sharding = make_instance([1])
        bad = Schedule(task_columns((Task("compute", 0, 1, 0, 1), Task("compute", 0, 0, 0, 0))),
                       "phase1", 2**30, model, sharding)
        assert any("not strictly increasing" in v for v in validate_schedule(bad, traces))

    @pytest.mark.parametrize("slot", [0, 1, 3])
    def test_deleted_compute_flagged(self, slot):
        """Each slot has one compute: the first slot left without one is
        named at the next compute, or after the last task when no compute
        follows it."""
        model, traces, sharding = make_instance([1, 1])
        sched = schedule(model, traces, 2**30, sharding)
        k = next(k for k, t in enumerate(sched.tasks)
                 if t.operation == "compute" and t.slot == slot)
        bad = dataclasses.replace(sched, columns=task_columns(sched.tasks[:k] + sched.tasks[k + 1:]))
        if slot < 3:
            j = next(j for j, t in enumerate(bad.tasks)
                     if t.operation == "compute" and t.slot == slot + 1)
            message = f"slot {slot} has no compute before this one at trigger {slot + 1}"
            where = f"task {j} 'trigger_id'"
        else:
            message, where = "slot 3 has no compute", "schedule 'tasks'"
        assert validate_schedule(bad, traces) == [message]
        with pytest.raises(ConfigError) as err:
            Schedule.from_dict(bad.to_dict())
        assert str(err.value) == f"{where}: {message}"

    def test_dropped_backward_reacquisition_flagged(self):
        """Layer 0 of the paper shape is evicted in the forward sweep; with
        the moves and gathers of its backward slot dropped, its backward
        compute would run on pages that left the GPU."""
        from test_phase1_incremental import GIB, paper_shaped
        model, traces = paper_shaped(3, 64 * MIB)
        sched = schedule(model, traces, 10 * GIB, ShardingModel(8, 0))
        slot = backward_id(0, 3)
        kept = tuple(t for t in sched.tasks if not (
            t.operation in ("move_to_gpu", "all_gather") and (t.layer, t.slot) == (0, slot)))
        assert len(sched.tasks) - len(kept) == 62
        bad = dataclasses.replace(sched, columns=task_columns(kept))
        evicted = next(t.trigger_id for t in kept
                       if t.operation == "evict_to_cpu" and t.target == 0)
        violations = validate_schedule(bad, traces)
        assert len(violations) == 62  # one per dropped task
        assert violations[0] == (f"compute of layer 0 at trigger {slot} has no all_gather of "
                                 f"page 0 between the page's eviction at trigger {evicted} "
                                 f"and it")
        k = next(k for k, t in enumerate(kept) if t.operation == "compute" and t.slot == slot)
        with pytest.raises(ConfigError) as err:
            Schedule.from_dict(bad.to_dict())
        assert str(err.value) == f"task {k} 'trigger_id': {violations[0]}"

    @staticmethod
    def relabelled(operation, layer, slot, change):
        """A two-layer schedule that evicts layer 0 and gathers it again for
        its backward slot, with the first ``operation`` task of ``layer`` at
        ``slot`` changed by ``change``; its traces; that task as it was."""
        model, traces, sharding = make_instance([1, 2])
        sched = schedule(model, traces, 2 * PAGE, sharding)
        k, task = next((k, t) for k, t in enumerate(sched.tasks) if t.operation == operation
                       and (t.layer, t.slot) == (layer, slot))
        tasks = list(sched.tasks)
        tasks[k] = dataclasses.replace(task, **change)
        return dataclasses.replace(sched, columns=task_columns(tasks)), traces, task

    def test_page_task_of_another_layer_flagged(self):
        bad, traces, evict = self.relabelled("evict_to_cpu", 1, 2, {"layer": 0})
        assert validate_schedule(bad, traces) == [
            f"evict_to_cpu of page {evict.target} names layer 0, but the page is in layer 1"]

    @pytest.mark.parametrize("layer, slot, to_slot", [(1, 1, 0), (0, 3, 0)],
                             ids=["other_layers_slot", "below_trigger"])
    def test_gather_slot_flagged(self, layer, slot, to_slot):
        bad, traces, gather = self.relabelled("all_gather", layer, slot, {"slot": to_slot})
        assert validate_schedule(bad, traces) == [
            f"all_gather of page {gather.target} (layer {layer}) at trigger "
            f"{gather.trigger_id} must serve slot {layer} or {3 - layer} at or after its "
            f"trigger, not slot {to_slot}"]


def random_instance(rng):
    n = rng.randint(1, 5)
    layer_pages = [rng.randint(1, 3) for _ in range(n)]
    acts = [rng.choice([0, MIB, 2 * MIB, 5 * MIB]) for _ in range(n)]
    grads = [rng.choice([0, MIB]) for _ in range(n)]
    world = rng.choice([1, 1, 2, 4])
    return make_instance(layer_pages, acts=acts, grads=grads, world=world)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from([6 * PAGE, 10 * PAGE, 2**30]),
           st.booleans(), st.data())
    def test_one_rule_for_both_callers(self, seed, budget, phase1_only, data):
        """After one mutation of a schedule() output, from_dict rejects it
        exactly when validate_schedule lists a fault, with the first one; a
        deleted compute is always a fault that names its slot."""
        model, traces, sharding = random_instance(random.Random(seed))
        try:
            sched = schedule(model, traces, budget, sharding, phase1_only=phase1_only)
        except InfeasibleScheduleError:
            return
        n = model.num_layers
        tasks = list(sched.tasks)
        k = data.draw(st.integers(0, len(tasks) - 1))
        task = tasks[k]
        mutation = data.draw(st.sampled_from(["delete", "shift", "owned", "relabel"]))
        if mutation == "delete":
            del tasks[k]
        elif mutation == "shift":
            trigger = task.trigger_id + data.draw(st.sampled_from([-1, 1]))
            tasks[k] = dataclasses.replace(task, trigger_id=trigger)
        elif mutation == "owned":
            tasks[k] = dataclasses.replace(task, owned=not task.owned)
        else:
            name = data.draw(st.sampled_from(["slot", "layer"]))
            value = data.draw(st.integers(-1, 2 * n if name == "slot" else n))
            tasks[k] = dataclasses.replace(task, **{name: value})
        bad = dataclasses.replace(sched, columns=task_columns(tasks))
        faults = validate_schedule(dataclasses.replace(bad, gpu_budget=2**62), traces)
        if mutation == "delete" and task.operation == "compute":
            assert any(f.startswith(f"slot {task.slot} has no compute") for f in faults)
        try:
            Schedule.from_dict(bad.to_dict())
        except ConfigError as err:
            assert faults and str(err).endswith(faults[0])
        else:
            assert faults == []

    def test_feasible_instances_validate_clean(self):
        rng = random.Random(1234)
        checked = 0
        for _ in range(60):
            model, traces, sharding = random_instance(rng)
            budget = rng.choice([6 * PAGE, 10 * PAGE, 2**30])
            try:
                sched = schedule(model, traces, budget, sharding)
            except InfeasibleScheduleError:
                continue
            assert validate_schedule(sched, traces) == []
            assert peak_memory(sched, traces) == brute_force_peak(sched, traces)
            checked += 1
        assert checked > 20

    def test_phase2_never_increases_triggers(self):
        rng = random.Random(99)
        for _ in range(30):
            model, traces, sharding = random_instance(rng)
            try:
                p1 = schedule(model, traces, 2**31, sharding, phase1_only=True)
            except InfeasibleScheduleError:
                continue
            p2 = advance_gathers(p1, traces)
            before = {(t.operation, t.target, t.slot): t.trigger_id for t in p1.tasks}
            for t in p2.tasks:
                old = before[(t.operation, t.target, t.slot)]
                if t.operation == "all_gather":
                    assert t.trigger_id <= old
                else:
                    assert t.trigger_id == old

    def test_determinism_byte_identical(self):
        model, traces, sharding = make_instance([2, 1, 1], acts=[MIB, 0, 2 * MIB],
                                                world=2)
        a = schedule(model, traces, 8 * PAGE + 3 * MIB, sharding)
        b = schedule(model, traces, 8 * PAGE + 3 * MIB, sharding)
        assert json.dumps(a.to_dict(), sort_keys=True, default=RowStream.dicts) == \
            json.dumps(b.to_dict(), sort_keys=True, default=RowStream.dicts)

    def test_budget_monotonicity(self):
        model, traces, sharding = make_instance([1, 2, 1], acts=[MIB, MIB, MIB])
        feasible_seen = False
        for budget in range(3 * PAGE, 12 * PAGE, PAGE):
            try:
                sched = schedule(model, traces, budget, sharding)
            except InfeasibleScheduleError:
                assert not feasible_seen, "feasibility must be monotone in budget"
                continue
            feasible_seen = True
            assert validate_schedule(sched, traces) == []
        assert feasible_seen


class TestPhase2MinimalityOracle:
    """Sequential minimal-trigger check against the brute-force peak oracle."""

    def oracle_advance(self, p1: Schedule, traces):
        model, sharding = p1.model, p1.sharding
        budget = p1.gpu_budget
        tasks = list(p1.tasks)
        moves = {}
        evicts = {}
        for t in tasks:
            if t.operation == "move_to_gpu":
                moves.setdefault(t.target, []).append(t.trigger_id)
            elif t.operation == "evict_to_cpu":
                evicts.setdefault(t.target, []).append(t.trigger_id)
        expected = {}
        for idx, task in enumerate(tasks):
            if task.operation != "all_gather":
                continue
            lb = max([e for e in evicts.get(task.target, [])
                      if e <= task.trigger_id], default=0)
            if task.owned:
                lb = max(lb, *[m for m in moves[task.target] if m <= task.trigger_id])
            best = task.trigger_id
            for cand in range(lb, task.trigger_id + 1):  # exhaustive trigger sweep
                trial = list(tasks)
                trial[idx] = Task(task.operation, task.target, cand, task.layer,
                                  task.slot, task.owned)
                trial_sched = Schedule(task_columns(trial), "phase1", budget, model, sharding)
                if task.owned or brute_force_peak(trial_sched, traces) <= budget:
                    best = cand
                    break
            tasks[idx] = Task(task.operation, task.target, best, task.layer,
                              task.slot, task.owned)
            expected[(task.target, task.slot)] = best
        return expected

    def enumerate_instances(self):
        for n in (1, 2, 3):
            for pages in (1, 2):
                for world in (1, 2):
                    for acts_on in (False, True):
                        acts = [MIB if acts_on else 0] * n
                        yield make_instance([pages] * n, acts=acts, world=world)

    def test_phase2_matches_sequential_minimal_oracle(self):
        for model, traces, sharding in self.enumerate_instances():
            ws = max(len(p) for p in model.layer_pages) * model.page_bytes + \
                sum(s.bytes for s in model.tensor_info.values()
                    if s.kind == "activation16")
            for budget in (ws, ws + PAGE, ws + 4 * PAGE, 2**31):
                try:
                    p1 = schedule(model, traces, budget, sharding, phase1_only=True)
                except InfeasibleScheduleError:
                    continue
                p2 = advance_gathers(p1, traces)
                expected = self.oracle_advance(p1, traces)
                got = {(t.target, t.slot): t.trigger_id
                       for t in p2.tasks if t.operation == "all_gather"}
                assert got == expected
                assert validate_schedule(p2, traces) == []


class TestColumns:
    """A schedule is columns: the pipeline builds no Task, and the rows, the
    file form and the columns convert into one another unchanged."""

    def test_run_pipeline_builds_no_task(self, monkeypatch):
        from hiermem.pipeline import run_pipeline
        built = []
        init = Task.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Task, "__init__", counting)
        # perfbench's tiny paper shape, which defers and evicts
        model = {"batch_size": 1, "seq_len": 128, "d_model": 256, "d_ffn": 1024,
                 "num_heads": 4, "num_layers": 3}
        report = run_pipeline({"model": model, "gpu_budget_bytes": 64 * MIB,
                               "page_bytes": 256 * 1024, "world_size": 8, "rank": 5,
                               "recompute": True})
        assert report["schedule"]["phase2"]["num_tasks"] > 0
        assert built == []
        sched = schedule(*make_instance([2])[:2], 2**30)
        assert len(sched.tasks) == len(built) > 0  # the rows are still built on demand

    def test_rows_file_and_columns_round_trip(self):
        from test_phase1_incremental import GIB, paper_shaped
        model, traces = paper_shaped(2, 4 * MIB)
        for rank in (0, 5):
            for phase1_only in (True, False):
                sched = schedule(model, traces, 12 * GIB, ShardingModel(8, rank),
                                 phase1_only=phase1_only)
                assert task_columns(sched.tasks) == sched.columns
                assert Schedule.from_dict(sched.to_dict()) == sched
                assert Schedule.from_dict(json.loads(json.dumps(
                    sched.to_dict(), default=RowStream.dicts))) == sched

    def test_unknown_operation_is_config_error(self):
        with pytest.raises(ConfigError, match="task 1 'operation': unknown operation 'prefetch'"):
            task_columns([Task("compute", 0, 0, 0, 0), Task("prefetch", 0, 0, 0, 0)])

    @pytest.mark.parametrize("name", ["target", "trigger_id", "layer", "slot"])
    @pytest.mark.parametrize("value", [2**63, -2**63 - 1])
    def test_value_past_int64_is_config_error(self, name, value):
        tasks = [Task("compute", 0, 0, 0, 0), Task("compute", 1, 1, 1, 1)]
        tasks[1] = dataclasses.replace(tasks[1], **{name: value})
        with pytest.raises(ConfigError, match=f"task 1 '{name}': {value} does not fit"):
            task_columns(tasks)


class TestFromDict:
    """A schedule file is judged once: the types by ``check_fields``, the
    operation by ``task_columns``, every value by the rule that
    ``validate_schedule`` states."""

    @pytest.mark.parametrize("operation", ["move_to_gpu", "all_gather", "compute",
                                           "evict_to_cpu"])
    @pytest.mark.parametrize("name, value", [
        ("trigger_id", -1), ("trigger_id", 5), ("trigger_id", 2**63 - 1),
        ("slot", -1), ("slot", 4), ("slot", 99),
        ("layer", -1), ("layer", 2), ("target", -1), ("target", 99)])
    def test_out_of_range_value_is_the_rule_fault(self, operation, name, value):
        """A value out of its range, on any operation, is refused with the
        fault ``validate_schedule`` gives first."""
        model, traces, sharding = make_instance([1, 1])
        sched = schedule(model, traces, 2**30, sharding)
        tasks = list(sched.tasks)
        k = next(k for k, t in enumerate(tasks) if t.operation == operation)
        tasks[k] = dataclasses.replace(tasks[k], **{name: value})
        bad = dataclasses.replace(sched, columns=task_columns(tasks))
        faults = validate_schedule(dataclasses.replace(bad, gpu_budget=2**62), traces)
        assert faults
        with pytest.raises(ConfigError) as err:
            Schedule.from_dict(json.loads(json.dumps(bad.to_dict(), default=RowStream.dicts)))
        assert str(err.value).startswith(f"task {k} ") and str(err.value).endswith(faults[0])

"""Phase 1's running count and the one residency sweep: same output as the
frozen reference, the sweep against the brute-force oracle, valid and
deterministic schedules, a guard on how many sweeps one schedule() makes,
and one that validate_schedule builds no Task."""
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermem import footprint as fp
from hiermem import presets
from hiermem import scheduler
from hiermem.errors import InfeasibleScheduleError
from hiermem.jsonio import RowStream
from hiermem.scheduler import (
    LayerModel,
    Schedule,
    ShardingModel,
    Task,
    _build_phase1,
    _resident_profile,
    advance_gathers,
    schedule,
    task_columns,
    validate_schedule,
)
from hiermem.tracer import TimingModel, build_trace
from reference_phase1 import reference_advance_gathers, reference_residency, reference_schedule
from test_scheduler import MIB, PAGE, brute_force_resident, make_instance

GIB = 2**30


def paper_shaped(num_layers: int, page_bytes: int):
    """GPT-3 175B layer shape cut to a few layers, recomputed activations."""
    cfg = presets.resolve_model({"batch_size": 1, "seq_len": 2048, "d_model": 12288,
                                 "d_ffn": 49152, "num_heads": 96,
                                 "num_layers": num_layers})
    inventory = fp.tensor_inventory(cfg)
    traces = build_trace(inventory, TimingModel(), recompute_policy=True)
    return LayerModel.from_inventory(inventory, page_bytes, cfg.batch_size), traces


def decisions(phase1) -> tuple[int, int]:
    """(deferred moves, forward evictions) read off a phase-1 schedule."""
    n = phase1.model.num_layers
    deferred = sum(1 for t in phase1.tasks
                   if t.operation == "move_to_gpu" and 0 < t.trigger_id < n)
    evicted = sum(1 for t in phase1.tasks
                  if t.operation == "evict_to_cpu" and t.trigger_id < n)
    return deferred, evicted


def most_moved_at_own_slot(phase1) -> int:
    """The most deferred pages of one layer that move at that layer's own
    forward slot (a layer's pages never move there otherwise)."""
    counts = Counter(t.layer for t in phase1.tasks
                     if t.operation == "move_to_gpu" and 0 < t.trigger_id == t.layer)
    return max(counts.values(), default=0)


def as_json(sched) -> str:
    return json.dumps(sched.to_dict(), sort_keys=True, default=RowStream.dicts)


def assert_matches_reference(model, traces, budget, sharding):
    """Both phases equal the reference's, or both raise the same error.
    Returns the reference phase 1, or None when infeasible."""
    try:
        ref1, ref2 = reference_schedule(model, traces, budget, sharding)
    except InfeasibleScheduleError as ref_err:
        with pytest.raises(InfeasibleScheduleError) as err:
            schedule(model, traces, budget, sharding)
        assert str(err.value) == str(ref_err)
        return None
    assert as_json(schedule(model, traces, budget, sharding, phase1_only=True)) == \
        as_json(ref1)
    assert as_json(schedule(model, traces, budget, sharding)) == as_json(ref2)
    return ref1


class TestMatchesReference:
    def test_random_tight_instances(self):
        rng = random.Random(2024)
        deferring = evicting = at_own_slot = 0
        for _ in range(150):
            n = rng.randint(1, 7)
            model, traces, sharding = make_instance(
                [rng.randint(1, 4) for _ in range(n)],
                acts=[rng.choice([0, MIB, 3 * MIB, 9 * MIB]) for _ in range(n)],
                grads=[rng.choice([0, MIB, 2 * MIB]) for _ in range(n)],
                world=rng.choice([1, 2, 4]))
            sharding = ShardingModel(sharding.world_size,
                                     rng.randrange(sharding.world_size))
            budget = rng.randint(2, 14) * PAGE + rng.choice([0, MIB, 5 * MIB])
            ref1 = assert_matches_reference(model, traces, budget, sharding)
            if ref1 is not None:
                deferred, evicted = decisions(ref1)
                deferring += deferred > 0
                evicting += evicted > 0
                at_own_slot += most_moved_at_own_slot(ref1) >= 2
        # the budgets must drive both branches of the phase-1 loop, and move
        # several deferred pages of one layer at its own slot
        assert deferring >= 5 and evicting >= 5 and at_own_slot >= 5

    @pytest.mark.parametrize("rank", [0, 5])
    def test_shrunken_175b_shape(self, rank):
        model, traces = paper_shaped(4, 16 * MIB)
        ref1 = assert_matches_reference(model, traces, 14 * GIB, ShardingModel(8, rank))
        deferred, evicted = decisions(ref1)
        assert deferred > 0 and evicted > 0


@st.composite
def instances(draw):
    n = draw(st.integers(1, 6))
    layer_pages = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    acts = draw(st.lists(st.sampled_from([0, MIB, 3 * MIB, 9 * MIB]), min_size=n, max_size=n))
    grads = draw(st.lists(st.sampled_from([0, MIB, 2 * MIB]), min_size=n, max_size=n))
    world = draw(st.sampled_from([1, 2, 4]))
    model, traces, _ = make_instance(layer_pages, acts=acts, grads=grads, world=world)
    return model, traces, ShardingModel(world, draw(st.integers(0, world - 1)))


budgets = st.builds(lambda pages, extra: pages * PAGE + extra,
                    st.integers(2, 16), st.sampled_from([0, MIB, 5 * MIB]))


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(instances(), budgets)
    def test_matches_frozen_reference(self, instance, budget):
        model, traces, sharding = instance
        assert_matches_reference(model, traces, budget, sharding)

    @settings(max_examples=150, deadline=None)
    @given(instances(), budgets)
    def test_both_phases_valid_and_deterministic(self, instance, budget):
        model, traces, sharding = instance
        try:
            runs = [[schedule(model, traces, budget, sharding, phase1_only=True),
                     schedule(model, traces, budget, sharding)] for _ in range(2)]
        except InfeasibleScheduleError:
            return
        for sched in runs[0]:
            assert validate_schedule(sched, traces) == []
        assert [s.to_dict() for s in runs[0]] == [s.to_dict() for s in runs[1]]


def assert_sweep_is_oracle(tasks, model, sharding, traces):
    sched = Schedule(task_columns(tasks), "phase1", 0, model, sharding)
    assert _resident_profile(task_columns(tasks), model, sharding, traces) == \
        [brute_force_resident(sched, traces, x) for x in range(2 * model.num_layers)]


class TestMaintainedProfile:
    """The profile the one sweep builds, checked against the brute-force
    oracle on phase 1's tasks and after every change to a task list."""

    @settings(max_examples=150, deadline=None)
    @given(instances(), st.integers(2, 16))
    def test_equals_sweep_after_phase1(self, instance, budget_pages):
        model, traces, sharding = instance
        try:
            tasks = _build_phase1(model, traces, budget_pages * PAGE, sharding).rows()
        except InfeasibleScheduleError:
            return
        assert_sweep_is_oracle(tasks, model, sharding, traces)

    @settings(max_examples=150, deadline=None)
    @given(instances(), st.data())
    def test_equals_sweep_after_every_update(self, instance, data):
        model, traces, sharding = instance
        n = model.num_layers
        pages = list(range(model.num_pages))
        tasks: list[Task] = []
        for _ in range(data.draw(st.integers(1, 25))):
            if tasks and data.draw(st.booleans()):
                tasks.pop(data.draw(st.integers(0, len(tasks) - 1)))
            else:
                op = data.draw(st.sampled_from(scheduler.OPERATIONS))
                target = data.draw(st.sampled_from(pages if op != "compute"
                                                   else list(range(n))))
                tasks.append(Task(op, target, data.draw(st.integers(0, 2 * n)),
                                  model.layer_of(target) if op != "compute" else target, 0,
                                  sharding.owns(target)))
            assert_sweep_is_oracle(tasks, model, sharding, traces)

    def test_each_kind_of_update_matches_the_oracle(self):
        """Page 0 of a two-layer model (slots 0-3, released at 4) through
        every kind of change: acquires inside another's interval, evictions
        that split and rejoin intervals, and withdrawals of each, swept and
        checked against the brute-force oracle after every step."""
        model, traces, sharding = make_instance([1, 1])
        tasks: list[Task] = []
        steps = [  # (action, operation, trigger, pages resident per slot after it)
            ("add", "move_to_gpu", 2, [0, 0, 1, 1]),
            ("add", "move_to_gpu", 0, [1, 1, 1, 1]),
            ("add", "evict_to_cpu", 1, [1, 0, 1, 1]),
            ("add", "move_to_gpu", 1, [1, 1, 1, 1]),
            ("add", "move_to_gpu", 3, [1, 1, 1, 1]),
            ("remove", "move_to_gpu", 1, [1, 0, 1, 1]),
            ("remove", "evict_to_cpu", 1, [1, 1, 1, 1]),
            ("remove", "move_to_gpu", 0, [0, 0, 1, 1]),
            ("add", "evict_to_cpu", 3, [0, 0, 1, 1]),
            ("remove", "move_to_gpu", 3, [0, 0, 1, 0]),
            ("remove", "evict_to_cpu", 3, [0, 0, 1, 1]),
            ("remove", "move_to_gpu", 2, [0, 0, 0, 0]),
        ]
        for action, op, trigger, pages in steps:
            task = Task(op, 0, trigger, 0, 0, True)
            if action == "add":
                tasks.append(task)
            else:
                tasks.remove(task)
            sched = Schedule(task_columns(tasks), "phase1", 0, model, sharding)
            assert _resident_profile(task_columns(tasks), model, sharding, traces) == \
                [brute_force_resident(sched, traces, x) for x in range(4)] == \
                [p * PAGE for p in pages]


def any_task_list(model, sharding):
    """Lists of up to 30 tasks: any operation on any page at any trigger
    from 0 to 2n, and computes, in any order and with repeats."""
    n = model.num_layers
    page = st.integers(0, model.num_pages - 1)
    return st.lists(st.one_of(
        st.builds(lambda op, pid, at: Task(op, pid, at, model.layer_of(pid), 0,
                                           sharding.owns(pid)),
                  st.sampled_from(["move_to_gpu", "all_gather", "evict_to_cpu"]), page,
                  st.integers(0, 2 * n)),
        st.builds(lambda layer, at: Task("compute", layer, at, layer, at),
                  st.integers(0, n - 1), st.integers(0, 2 * n - 1))), max_size=30)


def assert_sweep_is_reference(tasks, model, sharding, traces):
    """The column sweep's profile, and each page's sorted acquire and
    eviction triggers, are those of the frozen per-task sweep."""
    profile, acquires, evicts = scheduler._residency(task_columns(tasks), model, sharding,
                                                     traces)
    span = 2 * model.num_layers + 1

    def by_page(keys) -> dict[int, list[int]]:
        triggers: dict[int, list[int]] = {}
        for key in keys.tolist():
            triggers.setdefault(key // span, []).append(key % span)
        return triggers

    assert (profile, by_page(acquires), by_page(evicts)) == \
        reference_residency(tasks, model, sharding, traces)


class TestSweepMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(instances(), budgets, st.booleans())
    def test_on_schedules(self, instance, budget, phase1_only):
        model, traces, sharding = instance
        try:
            sched = schedule(model, traces, budget, sharding, phase1_only=phase1_only)
        except InfeasibleScheduleError:
            return
        assert_sweep_is_reference(sched.tasks, model, sharding, traces)

    @settings(max_examples=200, deadline=None)
    @given(instances(), st.data())
    def test_on_any_task_list(self, instance, data):
        """Acquires of owned and other pages, each operation on any page at
        any trigger from 0 to 2n, in any order and with repeats."""
        model, traces, sharding = instance
        assert_sweep_is_reference(data.draw(any_task_list(model, sharding)), model, sharding,
                                  traces)

    @settings(max_examples=200, deadline=None)
    @given(instances(), budgets, st.data())
    def test_advance_gathers_on_any_task_list(self, instance, budget, data):
        """Phase 2 by runs equals the reference's gather-by-gather walk, also
        where consecutive gathers share a trigger but not a lower bound."""
        model, traces, sharding = instance
        tasks = data.draw(any_task_list(model, sharding))
        sched = Schedule(task_columns(tasks), "phase1", budget, model, sharding)
        assert advance_gathers(sched, traces).tasks == \
            reference_advance_gathers(sched, traces).tasks

    def test_advance_gathers_splits_runs_at_lower_bounds(self):
        """Two gathers at trigger 3 of pages that rank 0 of 2 does not own:
        page 1 was evicted at 2, page 3 never, so only page 3 reaches slot 0."""
        model, traces, _ = make_instance([2, 2], world=2)
        sharding = ShardingModel(2, 0)
        tasks = [Task("evict_to_cpu", 1, 2, 0, 0), Task("all_gather", 1, 3, 0, 3),
                 Task("all_gather", 3, 3, 1, 3)]
        sched = Schedule(task_columns(tasks), "phase1", 4 * PAGE, model, sharding)
        advanced = advance_gathers(sched, traces).tasks
        assert advanced == reference_advance_gathers(sched, traces).tasks
        assert [(t.target, t.trigger_id) for t in advanced if t.operation == "all_gather"] == \
            [(3, 0), (1, 2)]

    def test_hand_built_cases(self):
        """Two layers of two pages each, rank 0 of 2: pages 0 and 2 are owned
        (acquired by a move), 1 and 3 are not (acquired by a gather). Layer 0
        is released at 4 and layer 1 at 3."""
        model, traces, _ = make_instance([2, 2], acts=[MIB, 0], grads=[0, MIB], world=2)
        sharding = ShardingModel(2, 0)
        cases = {
            "acquire inside an earlier interval": [
                Task("move_to_gpu", 0, 0, 0, 0, True), Task("move_to_gpu", 0, 1, 0, 0, True),
                Task("evict_to_cpu", 0, 2, 0, 0, True), Task("all_gather", 1, 1, 0, 0),
                Task("all_gather", 1, 0, 0, 0), Task("evict_to_cpu", 1, 3, 0, 0)],
            "acquire at or after its layer's release": [
                Task("move_to_gpu", 2, 3, 1, 1, True), Task("all_gather", 3, 4, 1, 2),
                Task("all_gather", 3, 3, 1, 2), Task("move_to_gpu", 2, 1, 1, 1, True)],
            "eviction at the acquire's own trigger": [
                Task("move_to_gpu", 0, 2, 0, 0, True), Task("evict_to_cpu", 0, 2, 0, 0, True),
                Task("all_gather", 3, 1, 1, 1), Task("evict_to_cpu", 3, 1, 1, 1),
                Task("evict_to_cpu", 3, 2, 1, 1)],
            "pages never acquired": [
                Task("evict_to_cpu", 1, 1, 0, 0), Task("move_to_gpu", 1, 0, 0, 0),
                Task("all_gather", 0, 0, 0, 0, True), Task("compute", 0, 0, 0, 0)],
        }
        for name, tasks in cases.items():
            assert_sweep_is_reference(tasks, model, sharding, traces)
        assert_sweep_is_reference([t for tasks in cases.values() for t in tasks], model,
                                  sharding, traces)
        # the first case holds page 0 over [0, 2) and page 1 over [0, 3), beside
        # layer 0's activations over [0, 4) and layer 1's gradients at slot 2
        assert scheduler._resident_profile(
            task_columns(cases["acquire inside an earlier interval"]), model, sharding,
            traces)[:3] == [2 * PAGE + MIB, 2 * PAGE + MIB, PAGE + 2 * MIB]


def test_validate_builds_no_task(monkeypatch):
    """validate_schedule judges a schedule on its columns: no Task is built."""
    model, traces = paper_shaped(2, 4 * MIB)
    sched = schedule(model, traces, 12 * GIB, ShardingModel(8, 5))
    built = []
    init = Task.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Task, "__init__", counting)
    assert validate_schedule(sched, traces) == []
    assert built == []
    assert len(sched.tasks) == len(built) > 0  # the count sees rows that are built


def test_whole_profile_builds_do_not_grow_with_decisions(monkeypatch):
    """One schedule() sweeps its task list once however many deferrals and
    evictions phase 1 makes."""
    builds = []
    sweep = scheduler._residency

    def counting(*args):
        builds.append(1)
        return sweep(*args)

    monkeypatch.setattr(scheduler, "_residency", counting)
    counts, seen = [], []
    for num_layers, budget in ((3, 10 * GIB), (4, 8 * GIB)):
        model, traces = paper_shaped(num_layers, 64 * MIB)
        builds.clear()
        schedule(model, traces, budget, ShardingModel(8, 0))
        counts.append(len(builds))
        builds.clear()
        seen.append(decisions(schedule(model, traces, budget, ShardingModel(8, 0),
                                       phase1_only=True)))
    (d0, e0), (d1, e1) = seen
    assert d0 > 0 and e0 > 0 and d0 != d1 and e0 != e1
    # phase 1 keeps a running count; the peak check and phase 2 read the one sweep of its tasks
    assert counts == [1, 1]

"""Discrete-event replay: transfer arithmetic, causality, overlap, update gating."""
import copy
import dataclasses
import random
import re
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hiermem import footprint as fp
from hiermem import simengine
from hiermem.errors import ConfigError, InfeasibleScheduleError, SimulationError
from hiermem.lockfree import GPU_FLOPS_PER_S, DelayModel, ToyTrainConfig
from hiermem.presets import HARDWARE_PRESETS, hardware_preset, model_preset
from hiermem.scheduler import LayerModel, Schedule, ShardingModel, Task, schedule, task_columns
from hiermem.simengine import HardwareProfile, LinkSpec, TimelineEntry, compare, simulate
from hiermem.tracer import (CPU_BYTES_PER_S, GPU_BYTES_PER_S, TensorTrace, TimingModel,
                            backward_id, build_trace)

from reference_simulate import reference_simulate
from test_phase1_incremental import GIB, decisions, paper_shaped
from test_scheduler import make_instance, MIB, PAGE


def profile(latency=0.0, pcie=32e9, inter=200e9, ssd=3.5e9, num_gpus=1, lanes=4):
    links = {
        "pcie_h2d": LinkSpec(pcie, latency),
        "pcie_d2h": LinkSpec(pcie, latency),
        "gpu_interconnect": LinkSpec(inter, latency),
        "ssd_io": LinkSpec(ssd, latency),
    }
    return HardwareProfile(links, num_gpus=num_gpus, pcie_lanes=lanes)


class TestTransferTime:
    def test_pcie_page(self):
        assert profile().transfer_time(4 * MIB, "pcie_h2d") == \
            pytest.approx(4 * MIB / 32e9)
        assert profile().transfer_time(4 * MIB, "pcie_h2d") == \
            pytest.approx(1.31072e-4)

    def test_zero_bytes_is_latency(self):
        assert profile(latency=1e-5).transfer_time(0, "ssd_io") == 1e-5

    def test_ssd_vs_pcie_ratio(self):
        p = profile()
        ratio = p.transfer_time(4 * MIB, "ssd_io") / p.transfer_time(4 * MIB, "pcie_h2d")
        assert ratio == pytest.approx(32 / 3.5)
        assert p.transfer_time(4 * MIB, "ssd_io") == pytest.approx(1.19837e-3, rel=1e-3)

    def test_unknown_link(self):
        with pytest.raises(ConfigError):
            profile().transfer_time(1, "nvlink99")


class TestOneCostModel:
    """Each hardware rate is defined once; every cost model derives from it."""

    def test_timing_model_defaults_are_the_preset_rates(self):
        assert TimingModel() == hardware_preset("a100-server").timing_model()

    def test_from_dict_falls_back_to_dataclass_defaults(self):
        raw = HARDWARE_PRESETS["a100-server"]
        prof = HardwareProfile.from_dict({"links": raw["links"]})
        assert prof == HardwareProfile(prof.links)
        assert (prof.gpu_bytes_per_s, prof.cpu_bytes_per_s) == (GPU_BYTES_PER_S,
                                                                CPU_BYTES_PER_S)

    def test_from_dict_rejects_unknown_fields(self):
        raw = HARDWARE_PRESETS["a100-server"]
        with pytest.raises(ConfigError, match="num_gpu"):
            HardwareProfile.from_dict({**raw, "num_gpu": 2})
        links = {**raw["links"], "ssd_io": {"bandwidth_bytes_per_s": 3.5e9, "latency": 0.0}}
        with pytest.raises(ConfigError, match=r"'links\.ssd_io' keys: \['latency'\]"):
            HardwareProfile.from_dict({**raw, "links": links})

    def test_delay_presets_charge_the_profile_rates(self):
        a100, cfg, nbytes = hardware_preset("a100-server"), ToyTrainConfig(), 3 * MIB
        # distinct rates, so that each charge matches only its own
        odd = HardwareProfile({name: LinkSpec(rate) for name, rate in
                               zip(simengine.LINKS, (8e9, 4e9, 2e9, 1e9))},
                              cpu_bytes_per_s=5e9, num_gpus=2, pcie_lanes=1)
        for tier in ("ssd", "cpu"):
            assert DelayModel.preset(tier) == DelayModel.from_profile(a100, tier)
            for prof in (a100, odd):
                delays = DelayModel.from_profile(prof, tier)
                assert delays.fetch_s(nbytes) == nbytes / prof.pcie_effective_bw("pcie_h2d")
                assert delays.offload_s(nbytes) == nbytes / prof.pcie_effective_bw("pcie_d2h")
                # simulate has no optimizer I/O tasks for CPU-resident states
                state_io_s = nbytes / prof.links["ssd_io"].bandwidth_bytes_per_s \
                    if tier == "ssd" else 0.0
                assert delays.state_fetch_s(nbytes) == delays.state_store_s(nbytes) \
                    == state_io_s
                # simulate's rule: an update streams 6 x the param16 bytes
                assert delays.update_compute_s(cfg.state_bytes32) == \
                    6 * cfg.param_bytes16 / prof.cpu_bytes_per_s
                assert delays.compute_s(1e9) == 1e9 / GPU_FLOPS_PER_S


def plain(report) -> dict:
    """``report.to_dict()`` with the timeline as the list of rows it stands for."""
    return {**report.to_dict(),
            "timeline": [dataclasses.asdict(e) for e in report.timeline]}


def single_compute_instance(gpu_time=1e-3):
    model, traces, sharding = make_instance([1])
    # one activation produced and consumed at slot 0 carries the compute cost
    from hiermem.footprint import TensorSpec
    model.tensor_info[99] = TensorSpec("L0.flops", "activation16", MIB, 0)
    traces = list(traces) + [TensorTrace(99, 0, 0, 0.0, gpu_time)]
    return model, traces, sharding


class TestSimulate:
    def test_single_compute_task(self):
        model, traces, sharding = single_compute_instance(1e-3)
        sched = Schedule(task_columns((Task("compute", 0, 0, 0, 0),)), "phase1", 2**30,
                         model, sharding)
        report = simulate(sched, traces, profile())
        assert report.makespan_s == pytest.approx(1e-3)
        assert report.utilization["gpu"] == pytest.approx(1.0)
        assert report.gpu_idle_fraction == pytest.approx(0.0)

    def test_empty_schedule_reports_null_throughput(self):
        model, traces, sharding = single_compute_instance()
        report = simulate(Schedule(task_columns(()), "phase1", 2**30, model, sharding), traces, profile())
        assert report.makespan_s == 0.0
        assert report.to_dict()["samples_per_s"] is None  # not Infinity, which JSON lacks

    def test_compute_after_dependent_move(self):
        model, traces, sharding = single_compute_instance(1e-3)
        tasks = (Task("move_to_gpu", 0, 0, 0, 0, True),
                 Task("all_gather", 0, 0, 0, 0, True),
                 Task("compute", 0, 0, 0, 0))
        sched = Schedule(task_columns(tasks), "phase1", 2**30, model, sharding)
        report = simulate(sched, traces, profile())
        assert report.makespan_s == pytest.approx(4 * MIB / 32e9 + 1e-3)

    def test_malformed_gather_without_move(self):
        model, traces, sharding = single_compute_instance()
        tasks = (Task("all_gather", 0, 0, 0, 0, True), Task("compute", 0, 0, 0, 0))
        sched = Schedule(task_columns(tasks), "phase1", 2**30, model, sharding)
        with pytest.raises(SimulationError):
            simulate(sched, traces, profile())

    @pytest.mark.parametrize("gather, message", [
        ((), "two compute tasks share trigger 0"),
        ((Task("all_gather", 0, 0, 0, 0, True),),
         "all_gather of owned page 0 has no move at or before its trigger 0")])
    def test_two_computes_at_one_trigger(self, gather, message):
        """The first of the two faults in the sorted tasks is the one raised."""
        model, traces, sharding = single_compute_instance()
        tasks = (*gather, Task("compute", 0, 0, 0, 0), Task("compute", 0, 0, 0, 0))
        sched = Schedule(task_columns(tasks), "phase1", 2**30, model, sharding)
        with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
            simulate(sched, traces, profile())

    @pytest.mark.parametrize("operation, trigger", [("compute", -1), ("evict_to_cpu", -1),
                                                    ("evict_to_cpu", 99), ("move_to_gpu", 99)])
    def test_trigger_outside_the_triggers_raises(self, operation, trigger):
        """A task whose trigger names no slot is refused, in the rule's words,
        before anything is charged for it."""
        model, traces, sharding = make_instance([1, 1])
        sched = schedule(model, traces, 2**30, sharding)
        tasks = list(sched.tasks)
        k = next(k for k, t in enumerate(tasks) if t.operation == operation)
        tasks[k] = dataclasses.replace(tasks[k], trigger_id=trigger)
        bad = dataclasses.replace(sched, columns=task_columns(tasks))
        message = f"task {k}: {operation} at trigger {trigger}, outside [0, 4]"
        with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
            simulate(bad, traces, profile())

    def test_determinism(self):
        model, traces, sharding = make_instance([2, 1], acts=[MIB, 2 * MIB], world=2)
        sched = schedule(model, traces, 2**30, sharding)
        a = simulate(sched, traces, profile())
        b = simulate(sched, traces, profile())
        assert a.to_dict() == b.to_dict()


def overlap_instance(world=2):
    """Two layers, two pages each, sizable compute so overlap is visible."""
    model, traces, sharding = make_instance(
        [2, 2], acts=[8 * MIB, 8 * MIB], grads=[MIB, MIB], world=world
    )
    return model, traces, sharding


class TestOverlap:
    def test_phase2_strictly_faster_on_two_layer_example(self):
        model, traces, sharding = overlap_instance()
        p1 = schedule(model, traces, 2**30, sharding, phase1_only=True)
        p2 = schedule(model, traces, 2**30, sharding)
        prof = profile(latency=1e-6)
        r1 = simulate(p1, traces, prof)
        r2 = simulate(p2, traces, prof)
        assert r2.makespan_s < r1.makespan_s
        assert compare(r1, r2)["speedup"] > 1.0

    def test_phase2_never_slower_randomized(self):
        rng = random.Random(42)
        prof = profile(latency=1e-6)
        done = 0
        for _ in range(40):
            n = rng.randint(1, 4)
            model, traces, sharding = make_instance(
                [rng.randint(1, 2) for _ in range(n)],
                acts=[rng.choice([0, MIB, 4 * MIB]) for _ in range(n)],
                grads=[rng.choice([0, MIB]) for _ in range(n)],
                world=rng.choice([1, 2, 4]),
            )
            try:
                p1 = schedule(model, traces, 2**31, sharding, phase1_only=True)
                p2 = schedule(model, traces, 2**31, sharding)
            except Exception:
                continue
            r1 = simulate(p1, traces, prof)
            r2 = simulate(p2, traces, prof)
            assert r2.makespan_s <= r1.makespan_s + 1e-12
            done += 1
        assert done >= 30


class TestCompare:
    def test_identical_reports(self):
        model, traces, sharding = single_compute_instance()
        sched = Schedule(task_columns((Task("compute", 0, 0, 0, 0),)), "phase1", 2**30,
                         model, sharding)
        r = simulate(sched, traces, profile())
        assert compare(r, r)["speedup"] == pytest.approx(1.0)

    def test_two_to_one(self):
        model, traces, sharding = single_compute_instance(2e-3)
        sched = Schedule(task_columns((Task("compute", 0, 0, 0, 0),)), "phase1", 2**30,
                         model, sharding)
        slow = simulate(sched, traces, profile())
        model2, traces2, _ = single_compute_instance(1e-3)
        fast = simulate(Schedule(task_columns((Task("compute", 0, 0, 0, 0),)), "phase1", 2**30,
                                 model2, sharding), traces2, profile())
        assert compare(slow, fast)["speedup"] == pytest.approx(2.0)


class TestMonotonicityAndConservation:
    def test_more_bandwidth_never_hurts(self):
        model, traces, sharding = overlap_instance()
        sched = schedule(model, traces, 2**30, sharding)
        base = simulate(sched, traces, profile(pcie=16e9, inter=100e9))
        for pcie, inter in [(32e9, 100e9), (16e9, 200e9), (64e9, 400e9)]:
            faster = simulate(sched, traces, profile(pcie=pcie, inter=inter))
            assert faster.makespan_s <= base.makespan_s + 1e-12

    def test_busy_equals_sum_of_durations(self):
        model, traces, sharding = overlap_instance()
        sched = schedule(model, traces, 2**30, sharding)
        report = simulate(sched, traces, profile())
        for resource, busy in report.busy_s.items():
            spans = [e for e in report.timeline if e.resource == resource]
            assert busy == pytest.approx(sum(e.end_s - e.start_s for e in spans))
            assert busy <= report.makespan_s + 1e-12

    def test_pcie_scaling_with_ranks_and_lanes(self):
        # per-rank effective bandwidth: bw * min(1, lanes/N)
        for n_gpus, lanes, factor in [(1, 4, 1.0), (4, 4, 1.0), (8, 4, 0.5)]:
            prof = profile(num_gpus=n_gpus, lanes=lanes)
            assert prof.pcie_effective_bw("pcie_h2d") == pytest.approx(32e9 * factor)
        # ranks move their shards in parallel: per-rank wall time to stream the
        # whole model scales ~ 1/min(N, lanes)
        wall = {}
        for world in (1, 2, 4, 8):
            model, traces, sharding = make_instance([8, 8], world=world)
            sched = schedule(model, traces, 2**31, sharding)
            prof = profile(num_gpus=world, lanes=4)
            report = simulate(sched, traces, prof)
            wall[world] = report.busy_s.get("pcie_h2d", 0.0)
        assert wall[2] == pytest.approx(wall[1] / 2, rel=0.05)
        assert wall[4] == pytest.approx(wall[1] / 4, rel=0.05)
        assert wall[8] == pytest.approx(wall[1] / 4, rel=0.05)  # lane-capped


class TestSyncUpdateMode:
    def test_update_serializes_iterations(self):
        model, traces, sharding = make_instance([1], acts=[4 * MIB])
        # give the parameter tensor a CPU update cost
        traces = [TensorTrace(t.tensor_id, t.first_id, t.end_id,
                              5e-3 if model.tensor_info[t.tensor_id].kind == "param16"
                              else 0.0, t.gpu_time) for t in traces]
        sched = schedule(model, traces, 2**30, sharding)
        prof = profile()
        plain = simulate(sched, traces, prof, iterations=2, update_mode="none")
        synced = simulate(sched, traces, prof, iterations=2, update_mode="sync",
                          optimizer_tier="ssd")
        state_rt = 2 * (model.layer_optim_bytes[0] / 3.5e9)
        assert synced.makespan_s >= plain.makespan_s + 2 * 5e-3 + 2 * state_rt - 1e-9
        assert synced.gpu_idle_fraction > plain.gpu_idle_fraction

    def test_cpu_tier_skips_ssd(self):
        model, traces, sharding = make_instance([1])
        sched = schedule(model, traces, 2**30, sharding)
        report = simulate(sched, traces, profile(), iterations=1, update_mode="sync",
                          optimizer_tier="cpu")
        assert "ssd_io" not in report.busy_s

    def test_iterations_validate(self):
        model, traces, sharding = make_instance([1])
        sched = schedule(model, traces, 2**30, sharding)
        with pytest.raises(ConfigError):
            simulate(sched, traces, profile(), iterations=0)


@st.composite
def sim_cases(draw):
    """A random feasible schedule with replay settings; params carry a CPU
    update cost so the sync optimizer pipeline has work."""
    n = draw(st.integers(1, 5))
    world = draw(st.sampled_from([1, 2, 4]))
    model, traces, _ = make_instance(
        draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
        acts=draw(st.lists(st.sampled_from([0, MIB, 3 * MIB, 9 * MIB]), min_size=n, max_size=n)),
        grads=draw(st.lists(st.sampled_from([0, MIB, 2 * MIB]), min_size=n, max_size=n)),
        world=world)
    traces = [TensorTrace(t.tensor_id, t.first_id, t.end_id,
                          draw(st.sampled_from([0.0, 1e-4, 3e-3]))
                          if model.tensor_info[t.tensor_id].kind == "param16" else 0.0,
                          t.gpu_time) for t in traces]
    sharding = ShardingModel(world, draw(st.integers(0, world - 1)))
    budget = draw(st.integers(2, 16)) * PAGE
    try:
        sched = schedule(model, traces, budget, sharding,
                         phase1_only=draw(st.booleans()))
    except InfeasibleScheduleError:
        assume(False)
    prof = profile(latency=draw(st.sampled_from([0.0, 1e-6, 1e-5])), num_gpus=world)
    kwargs = {"iterations": draw(st.integers(1, 6)),
              "update_mode": draw(st.sampled_from(["none", "sync"])),
              "optimizer_tier": draw(st.sampled_from(["ssd", "cpu"]))}
    return sched, traces, prof, kwargs


class TestMatchesReference:
    """One iteration template replayed per iteration reports exactly what
    the N-copy DAG with gate tasks did, whatever order the trigger groups
    come in."""

    @settings(max_examples=150, deadline=None)
    @given(sim_cases(), st.data())
    def test_random_schedules(self, case, data):
        sched, traces, prof, kwargs = case
        expected = plain(reference_simulate(sched, traces, prof, **kwargs))
        assert plain(simulate(sched, traces, prof, **kwargs)) == expected
        groups: dict[int, list[Task]] = {}
        for t in sched.tasks:
            groups.setdefault(t.trigger_id, []).append(t)
        order = data.draw(st.permutations(sorted(groups)), label="trigger order")
        shuffled = dataclasses.replace(
            sched, columns=task_columns(t for g in order for t in groups[g]))
        assert plain(simulate(shuffled, traces, prof, **kwargs)) == expected

    def test_gpt3_1_7b_evicting(self):
        cfg = model_preset("gpt3-1.7b")
        prof = hardware_preset("a100-server")
        inventory = fp.tensor_inventory(cfg)
        traces = build_trace(inventory, prof.timing_model())
        model = LayerModel.from_inventory(inventory, 4 * MIB, cfg.batch_size)
        for phase1_only in (True, False):
            sched = schedule(model, traces, 8 * 2**30, ShardingModel(8, 0),
                             phase1_only=phase1_only)
            assert any(t.operation == "evict_to_cpu" and t.trigger_id < model.num_layers
                       for t in sched.tasks)
            kwargs = {"iterations": 2, "update_mode": "sync", "optimizer_tier": "ssd"}
            assert plain(simulate(sched, traces, prof, **kwargs)) == \
                plain(reference_simulate(sched, traces, prof, **kwargs))

    def test_paper_shape_deferring_and_evicting(self):
        """The GPT-3 175B layer shape cut to 3 layers at 64 MiB pages and
        10 GiB, rank 0 of 8: phase 1 both defers moves and evicts layers."""
        model, traces = paper_shaped(3, 64 * MIB)
        prof = hardware_preset("a100-server")
        phase1 = schedule(model, traces, 10 * GIB, ShardingModel(8, 0), phase1_only=True)
        deferred, evicted = decisions(phase1)
        assert deferred > 0 and evicted > 0
        for sched in (phase1, schedule(model, traces, 10 * GIB, ShardingModel(8, 0))):
            for kwargs in ({}, {"iterations": 3, "update_mode": "sync"}):
                assert plain(simulate(sched, traces, prof, **kwargs)) == \
                    plain(reference_simulate(sched, traces, prof, **kwargs))


class TestTimeline:
    def test_rows_are_the_global_sort_at_tied_boundaries(self):
        """Iteration k's zero-duration computes at slots 1 and 2 start when
        iteration k+1 does, so every boundary is a tie on start time; the
        streamed rows still come in (start_s, task_id) order, where "it10."
        sorts before "it9."."""
        model, traces, sharding = single_compute_instance(1e-3)
        sched = Schedule(task_columns(Task("compute", 0, s, 0, s) for s in range(3)), "phase1",
                         2**30, model, sharding)
        report = simulate(sched, traces, profile(), iterations=12)
        tl = report.timeline
        rows = [TimelineEntry(f"it{k}.{task_id}", op, res, start, end)
                for k, (starts, ends) in enumerate(zip(tl.starts, tl.ends))
                for task_id, op, res, start, end in zip(tl.task_ids, tl.operations,
                                                         tl.resources, starts, ends)]
        streamed = list(tl)
        assert len(tl) == len(rows) == 36
        assert streamed == sorted(rows, key=lambda e: (e.start_s, e.task_id))
        for k in range(1, 12):
            assert tl.ends[k - 1][2] - tl.starts[k - 1][2] == 0.0
            assert tl.starts[k - 1][2] == tl.starts[k][0]  # the tie at this boundary
        ids = [e.task_id for e in streamed]
        assert ids.index("it10.compute.s0.l0") < ids.index("it9.compute.s2.l0")
        assert plain(report) == plain(reference_simulate(sched, traces, profile(),
                                                         iterations=12))


def near_tie_instance(pcie):
    """Two gathers whose arrivals tie in iteration 0 and drift apart later.

    Gather ``gather.p1@0`` waits for the second of two moves, which ends at
    (start + m) + m; ``gather.p0@1`` waits for compute slot 0, which ends at
    start + 2m. At start 0 the two are equal; the compute started before the
    second move, so its end is handled first and ``gather.p0@1`` runs first.
    At other starts the two sums round apart one way or the other."""
    model, traces, sharding = make_instance([2], world=2)
    m = PAGE / pcie  # one move's duration
    model.tensor_info[99] = fp.TensorSpec("L0.flops", "activation16", MIB, 0)
    traces = list(traces) + [TensorTrace(99, 0, 0, 0.0, 2 * m)]
    tasks = (Task("move_to_gpu", 0, 0, 0, 0, True), Task("move_to_gpu", 1, 0, 0, 0, True),
             Task("all_gather", 1, 0, 0, 1, True), Task("compute", 0, 0, 0, 0),
             Task("all_gather", 0, 1, 0, 1), Task("compute", 0, 1, 0, 1))
    return Schedule(task_columns(tasks), "phase1", 2**30, model, sharding), traces, profile(pcie=pcie,
                                                                              inter=5e9)


class TestReplay:
    """Iterations after the first replay the first one's order in one pass,
    and run the event loop again only where that order does not hold."""

    @pytest.mark.parametrize("pcie", [3e9, 2.9e9, 32e9])
    def test_near_tie_reorders_and_falls_back(self, pcie):
        sched, traces, prof = near_tie_instance(pcie)
        report = simulate(sched, traces, prof, iterations=12)
        tl = report.timeline
        first, second = tl.task_ids.index("gather.p1@0"), tl.task_ids.index("gather.p0@1")
        assert tl.starts[0][second] < tl.starts[0][first]
        # a later iteration serves the two gathers the other way round
        assert any(starts[first] < starts[second] for starts in tl.starts[1:])
        assert plain(report) == plain(reference_simulate(sched, traces, prof, iterations=12))

    @pytest.mark.parametrize("phase1_only", [True, False])
    def test_steady_iterations_run_the_event_loop_once(self, monkeypatch, phase1_only):
        cfg = model_preset("gpt3-1.7b")
        prof = hardware_preset("a100-server")
        inventory = fp.tensor_inventory(cfg)
        traces = build_trace(inventory, prof.timing_model())
        model = LayerModel.from_inventory(inventory, 4 * MIB, cfg.batch_size)
        sched = schedule(model, traces, 16 * 2**30, ShardingModel(8, 3),
                         phase1_only=phase1_only)
        starts = []  # the start time of every event-loop run
        event_loop = simengine._run_event_loop

        def counted(tasks, start, *rest):
            starts.append(start)
            return event_loop(tasks, start, *rest)

        monkeypatch.setattr(simengine, "_run_event_loop", counted)
        report = simulate(sched, traces, prof, iterations=48, update_mode="sync")
        assert starts == [0.0]
        assert len(report.timeline.starts) == 48


def loop_runs(monkeypatch, sched, traces, prof, **kwargs):
    """simulate's report, and per event-loop run whether it kept a run
    partition with a merged run (True) or fell back to single tasks (False);
    None where the runs were single tasks to begin with."""
    kept = []
    event_loop = simengine._run_event_loop

    def recorded(tpl, start, *rest):
        starts, ends, part = event_loop(tpl, start, *rest)
        kept.append(part is tpl.runs if tpl.runs.merged else None)
        return starts, ends, part

    monkeypatch.setattr(simengine, "_run_event_loop", recorded)
    return simulate(sched, traces, prof, **kwargs), kept


def same_instant_instance(owned_first: bool):
    """Two events at one instant push gathers onto the interconnect.

    Slot 0's compute and the second of two moves (page 2's) both end at 2m,
    the compute first, as it started first. The compute's end pushes the
    run of the unowned gathers of pages 1 and 3; the move's end pushes the
    owned gather of page 2, listed before the run or after it."""
    model, traces, sharding = make_instance([4], world=2)
    m = PAGE / 32e9  # one move's duration
    model.tensor_info[99] = fp.TensorSpec("L0.flops", "activation16", MIB, 0)
    traces = list(traces) + [TensorTrace(99, 0, 0, 0.0, 2 * m)]
    owned = [Task("all_gather", 2, 1, 0, 1, True)]
    unowned = [Task("all_gather", 1, 1, 0, 1), Task("all_gather", 3, 1, 0, 1)]
    tasks = (Task("move_to_gpu", 0, 0, 0, 0, True), Task("move_to_gpu", 2, 0, 0, 1, True),
             Task("compute", 0, 0, 0, 0),
             *(owned + unowned if owned_first else unowned + owned), Task("compute", 0, 1, 0, 1))
    sched = Schedule(task_columns(tasks), "phase1", 2**30, model, sharding)
    return sched, traces, profile(inter=5e9)


@st.composite
def tied_templates(draw):
    """A random iteration template in blocks of tasks that share a resource,
    a duration and their dependencies, with durations that tie often, and
    an iteration start."""
    tpl = simengine._Template()
    size = draw(st.integers(8, 32))
    while len(tpl.codes) < size:
        uid = len(tpl.codes)
        deps = sorted(draw(st.lists(st.integers(0, uid - 1), max_size=3, unique=True))
                      if uid else [])
        resource = draw(st.sampled_from(["gpu", "pcie_h2d", "cpu"]))
        duration = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
        for _ in range(draw(st.integers(1, 4))):
            tpl.add(f"t{len(tpl.codes)}", "op", resource, duration, deps)
    return tpl, draw(st.sampled_from([0.0, 1.0]))


def per_task(tpl):
    """The template with every task its own run."""
    single = copy.copy(tpl)
    single.runs = tpl.singletons
    return single


class TestRuns:
    """The event loop serves a run of tasks whole, and falls back to single
    tasks where two events at one instant push onto one resource."""

    def test_lower_uid_pushed_at_a_runs_start_is_served_inside_it(self, monkeypatch):
        sched, traces, prof = same_instant_instance(owned_first=True)
        report, kept = loop_runs(monkeypatch, sched, traces, prof)
        tl = report.timeline
        g1, owned, g3 = (tl.task_ids.index(f"gather.p{p}@1") for p in (1, 2, 3))
        # task by task, the owned gather slips in between the run's two gathers
        assert tl.starts[0][g1] < tl.starts[0][owned] < tl.starts[0][g3]
        assert tl.starts[0][g1] == tl.ends[0][tl.task_ids.index("move.p2@0")]
        assert kept == [False]
        assert plain(report) == plain(reference_simulate(sched, traces, prof))

    def test_two_pushers_at_one_instant_fall_back(self, monkeypatch):
        sched, traces, prof = same_instant_instance(owned_first=False)
        report, kept = loop_runs(monkeypatch, sched, traces, prof, iterations=3)
        # at later starts the two ends round apart, and the runs are kept
        assert kept[0] is False
        assert plain(report) == plain(reference_simulate(sched, traces, prof, iterations=3))

    def test_run_and_singleton_partitions_agree(self, monkeypatch):
        """On random schedules the loop's result is that of every task its
        own run; the rule both holds and fails across the draws."""
        outcomes = set()
        event_loop = simengine._run_event_loop

        def both(tpl, start, *rest):
            starts, ends, part = event_loop(tpl, start, *rest)
            assert event_loop(per_task(tpl), start)[:2] == (starts, ends)
            if tpl.runs.merged:
                outcomes.add(part is tpl.runs)
            return starts, ends, part

        monkeypatch.setattr(simengine, "_run_event_loop", both)

        @settings(max_examples=100, deadline=None)
        @given(sim_cases())
        def check(case):
            sched, traces, prof, kwargs = case
            simulate(sched, traces, prof, **kwargs)

        check()
        assert outcomes == {True, False}

    @settings(max_examples=200, deadline=None)
    @given(tied_templates())
    def test_tied_templates_match_the_per_task_loop(self, case):
        tpl, start = case
        assert simengine._run_event_loop(tpl, start)[:2] == \
            simengine._run_event_loop(per_task(tpl), start)[:2]

    def test_the_matched_fixtures_keep_their_runs(self, monkeypatch):
        """The non-random cases of ``TestMatchesReference`` run on merged
        runs throughout, so those tests check the run loop."""
        cfg = model_preset("gpt3-1.7b")
        a100 = hardware_preset("a100-server")
        inventory = fp.tensor_inventory(cfg)
        traces = build_trace(inventory, a100.timing_model())
        model = LayerModel.from_inventory(inventory, 4 * MIB, cfg.batch_size)
        cases = [(schedule(model, traces, 8 * 2**30, ShardingModel(8, 0), phase1_only=p), traces,
                  {"iterations": 2, "update_mode": "sync", "optimizer_tier": "ssd"})
                 for p in (True, False)]
        model, traces = paper_shaped(3, 64 * MIB)
        cases += [(schedule(model, traces, 10 * GIB, ShardingModel(8, 0), phase1_only=p), traces,
                   kwargs) for p in (True, False)
                  for kwargs in ({}, {"iterations": 3, "update_mode": "sync"})]
        for sched, traces, kwargs in cases:
            _, kept = loop_runs(monkeypatch, sched, traces, a100, **kwargs)
            assert kept and all(kept)


def checked_tasks(*specs):
    """An iteration template from (task id, resource, deps) triples."""
    tpl = simengine._Template()
    for task_id, resource, deps in specs:
        tpl.add(task_id, "op", resource, 1.0, list(deps))
    return tpl


def run(start, starts, ends):
    return start, array("d", starts), array("d", ends)


class TestPostHocChecks:
    """The checks run after every replay name the first faulty row."""

    def raises(self, message, tasks, runs):
        with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
            simengine._post_hoc_checks(tasks, runs, tasks.uids_by_resource())

    def test_start_before_its_iteration(self):
        tasks = checked_tasks(("a", "gpu", ()), ("b", "pcie_h2d", (0,)))
        self.raises("causality violation: it1.a started before its iteration or a "
                    "dependency finished",
                    tasks, [run(0.0, [0, 1], [1, 2]), run(2.0, [1.5, 3], [2.5, 4])])

    def test_start_before_a_dependency_names_the_first_row(self):
        tasks = checked_tasks(("a", "gpu", ()), ("b", "pcie_h2d", (0,)),
                              ("c", "pcie_d2h", (0,)), ("d", "cpu", (1, 2)))
        good = [[0, 1, 1, 2], [1, 2, 2, 3]]
        runs = [run(0.0, *good), run(3.0, *[[x + 3 for x in c] for c in good]),
                # it2: b and d start before a and c end; it3: c before a
                run(6.0, [6, 6.5, 7, 7.5], [7, 7.5, 8, 8.5]),
                run(9.0, [9, 10, 9.5, 11], [10, 11, 10.5, 12])]
        self.raises("causality violation: it2.b started before its iteration or a "
                    "dependency finished", tasks, runs)

    def test_overlap_inside_one_iteration(self):
        tasks = checked_tasks(("a", "gpu", ()), ("b", "cpu", ()), ("c", "cpu", ()))
        self.raises("overlap on resource cpu", tasks, [run(0.0, [0, 0, 1], [1, 2, 3])])

    def test_overlap_across_an_iteration_boundary(self):
        tasks = checked_tasks(("a", "gpu", ()), ("b", "cpu", ()))
        # it0's b runs past it1's start, where it1's b begins
        self.raises("overlap on resource cpu", tasks,
                    [run(0.0, [0, 0], [1, 2]), run(1.5, [1.5, 1.5], [2.5, 3.5])])

"""Deterministic discrete-event replay of a page schedule on a hardware profile.

Every resource (GPU compute, the two PCIe directions, the inter-GPU link,
CPU, SSD) is a FIFO service queue; a task joins its queue once its trigger
slot is reached and its dependencies finished, and queued tasks are served
in arrival order with ties broken by task index. A task with trigger t
becomes eligible when compute slot t is reached, i.e. when slot t-1
finishes (t=0 at iteration start). Compute slot durations come from the
trace production times: activations charge half at their forward op and
half at their last (gradient-side) op, gradients charge fully at their
backward op. The traces are checked on entry (``scheduler.check_traces``).

The optional synchronous-update mode appends a per-layer optimizer
pipeline (SSD fetch, CPU update, SSD store over the rank's state shard)
that starts once that layer's gradient offload finishes.

One iteration's tasks are built once, as a template, and run once per
iteration. Each iteration starts on an idle system at the previous
iteration's makespan (0 for the first): its tasks without dependencies
arrive then. Every task runs on a resource; there are no control tasks.

The template is a set of parallel columns indexed by task uid: the task
id, operation and resource, an integer code per resource and the duration,
plus the dependency edges as (dependency uid, task uid) columns. It is
built from the schedule's task columns in trigger order, each trigger's
page tasks in schedule order before its compute, which is one stable
``np.lexsort``; one table gives every operation code its task id prefix,
resource and duration, and each task id is formatted once per template. An
owned page's gather depends on the page's latest move at or before its
trigger, wherever the schedule lists that move within the trigger: one
``searchsorted`` over the moves' sorted (page, trigger) keys finds it. The
pass raises SimulationError on a trigger outside [0, 2n], two computes at
one trigger or an owned gather with no such move, which it cannot place; a
Schedule built in code meets no other check (``task_columns`` refuses an
unknown operation).

The event loop serves runs, not tasks. A run is a maximal block of
consecutive uids with one resource code, one duration > 0, one set of
dependencies and one set of dependents, such as a layer's page moves at
one trigger; the template finds its runs once, with numpy. A run's members
arrive together with consecutive uids, so the per-task FIFO would serve
them back to back, member j starting when member j - 1 ends. The loop
keeps one heap per resource code, pushes one queue entry and one
completion event per run, and fills the members' columns by adding the
duration in sequence, which is the per-task loop's arithmetic bit for bit.
The events it skips are the members' own ends, which free the resource and
push nothing, and those commute with any other event at the same instant.
So its result is the per-task loop's unless two distinct events at one
exact time push runs onto one resource; then a lower uid pushed by the
second could slip in between a run's members. The events that count are
run ends, and the iteration start for runs without dependencies; a run
whose arrival ties the ends of several dependencies counts each of them.
The rule is checked with numpy after the loop. Where it fails, the same
loop runs again on the singleton partition, each task its own run, which
is the per-task loop step for step. Each resource's uids are found once
per call, for the busy sums and the checks.

The first iteration runs through this single-threaded, deterministic heap
event loop, which records the order in which it starts runs. Each later
iteration is replayed in one pass over that order, on the same partition,
with the loop's own arithmetic: a run arrives at the iteration start or at
its latest dependency's end, and begins at its arrival or when the run
before it on its resource ends, whichever is later; its members follow
back to back. Every choice the loop makes compares two event times (the
iteration start and the task ends) and breaks exact ties by task index or
start order, so the replay is the loop's result bit for bit whenever its
event times fall in the recorded order with the same ties. That is checked
per iteration in one pass over the recorded sort order of every task's
end. Shifted start times can round a near-tie the other way; an iteration
that fails the check runs through the event loop instead, and its order
becomes the recorded one. A single iteration records nothing.

Causality within every iteration and resource exclusivity across the
whole timeline are re-checked after every run, on the start and end
columns viewed as (iterations x tasks) arrays.

The report's timeline is stored as columns: the template's task ids,
operations and resources once, and one start and one end column per
iteration. Its rows, ordered by start time and then task id, are built as
they are read, a chunk of columns at a time: iterations whose start times
overlap are sorted together, with one stable ``np.argsort`` on the start
times, and only runs of equal starts are then sorted by task id.
"""
from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import ClassVar, Iterator

import numpy as np

from .errors import REAL, ConfigError, SimulationError, check_fields, check_range
from .jsonio import RowStream
from .scheduler import COMPUTE, EVICT, GATHER, MOVE, OPERATIONS, Schedule, check_traces
from .tracer import CPU_BYTES_PER_S, GPU_BYTES_PER_S, TensorTrace, TimingModel, backward_id

LINKS = ("pcie_h2d", "pcie_d2h", "gpu_interconnect", "ssd_io")
DEFAULT_LATENCY_S = 10e-6


@dataclass(frozen=True)
class LinkSpec:
    bandwidth_bytes_per_s: float
    latency_s: float = DEFAULT_LATENCY_S

    def __post_init__(self):
        check_range("'bandwidth_bytes_per_s'", self.bandwidth_bytes_per_s, 0, above=True)
        check_range("'latency_s'", self.latency_s, 0)


@dataclass(frozen=True)
class HardwareProfile:
    """Tier bandwidths/latencies plus compute rates for one GPU server."""

    links: dict[str, LinkSpec]
    gpu_bytes_per_s: float = GPU_BYTES_PER_S
    cpu_bytes_per_s: float = CPU_BYTES_PER_S
    num_gpus: int = 1
    pcie_lanes: int = 4

    def __post_init__(self):
        check_fields("hardware field 'links'", self.links, dict.fromkeys(LINKS, (LinkSpec,)),
                     required=LINKS)
        for rate in ("gpu_bytes_per_s", "cpu_bytes_per_s"):
            check_range(f"hardware field {rate!r}", getattr(self, rate), 0, above=True)
        for count in ("num_gpus", "pcie_lanes"):
            check_range(f"hardware field {count!r}", getattr(self, count), 1, finite=False)

    def transfer_time(self, nbytes: int, link: str) -> float:
        """latency + bytes/bandwidth for a single transfer on a link."""
        if link not in self.links:
            raise ConfigError(f"unknown link {link!r}")
        spec = self.links[link]
        return spec.latency_s + nbytes / spec.bandwidth_bytes_per_s

    def timing_model(self) -> TimingModel:
        """Proportional production times at this server's compute rates."""
        return TimingModel(gpu_sec_per_byte=1.0 / self.gpu_bytes_per_s,
                           cpu_sec_per_byte=1.0 / self.cpu_bytes_per_s)

    def pcie_effective_bw(self, link: str) -> float:
        """Per-rank PCIe bandwidth when num_gpus ranks share pcie_lanes links."""
        spec = self.links[link]
        return spec.bandwidth_bytes_per_s * min(1.0, self.pcie_lanes / self.num_gpus)

    def to_dict(self) -> dict:
        return {
            "links": {
                name: {"bandwidth_bytes_per_s": s.bandwidth_bytes_per_s,
                       "latency_s": s.latency_s}
                for name, s in sorted(self.links.items())
            },
            "gpu_bytes_per_s": self.gpu_bytes_per_s,
            "cpu_bytes_per_s": self.cpu_bytes_per_s,
            "num_gpus": self.num_gpus,
            "pcie_lanes": self.pcie_lanes,
        }

    @classmethod
    def from_dict(cls, raw) -> "HardwareProfile":
        raw = check_fields("hardware", raw, _HARDWARE_FIELDS, required=("links",))
        links = {}
        for name, entry in raw["links"].items():
            what = f"hardware field 'links.{name}'"
            entry = check_fields(what, entry, _LINK_FIELDS, required=("bandwidth_bytes_per_s",))
            try:
                links[name] = LinkSpec(**entry)
            except ConfigError as err:
                raise ConfigError(f"{what}: {err}") from None
        return cls(**{**raw, "links": links})


_HARDWARE_FIELDS = {"links": (dict,), "gpu_bytes_per_s": REAL, "cpu_bytes_per_s": REAL,
                    "num_gpus": (int,), "pcie_lanes": (int,)}
_LINK_FIELDS = {"bandwidth_bytes_per_s": REAL, "latency_s": REAL}


@dataclass(frozen=True)
class TimelineEntry:
    task_id: str
    operation: str
    resource: str
    start_s: float
    end_s: float


def _equal_runs(ranked: np.ndarray) -> Iterator[tuple[int, int]]:
    """(first, past last) of each run of two or more equal neighbours in ``ranked``."""
    tied = np.flatnonzero(ranked[1:] == ranked[:-1])  # i where i and i + 1 are equal
    if not tied.size:
        return iter(())
    breaks = np.flatnonzero(tied[1:] != tied[:-1] + 1)  # a run ends at tied[b] + 1
    firsts = np.concatenate(([tied[0]], tied[breaks + 1]))
    pasts = np.concatenate((tied[breaks], [tied[-1]])) + 2
    return zip(firsts.tolist(), pasts.tolist())


@dataclass(frozen=True)
class Timeline(RowStream):
    """The rows of a simulated timeline, built as they are read.

    It holds the iteration template once, each task's id, operation and
    resource by uid, and per iteration one start and one end column by uid.
    Row k.u is task u of iteration k, with task id ``it{k}.<template id>``.
    Rows come in report order, by (start_s, task_id), ties at iteration
    boundaries included ("it10." before "it9."). Iterations whose start-time
    ranges overlap form a group; the groups follow one another. A group's
    rows are sorted with one stable ``np.argsort`` on their start times,
    then each run of equal starts by task id. ``chunks(size)`` takes its
    columns from that order, a slice of at most ``size`` rows at a time,
    with ``tolist()`` and list indexing; no chunk crosses a group, and none
    is empty. ``rows()`` and iterating, which gives ``TimelineEntry``
    values, read the same chunks. No iteration's text or row tuples are
    built whole.
    """

    task_ids: tuple[str, ...]
    operations: tuple[str, ...]
    resources: tuple[str, ...]
    starts: tuple[array, ...]  # array('d') per iteration
    ends: tuple[array, ...]

    keys: ClassVar = ("start_s", "task_id", "end_s", "operation", "resource")

    def __len__(self) -> int:
        return len(self.task_ids) * len(self.starts)

    def __iter__(self) -> Iterator[TimelineEntry]:
        for start, task_id, end, operation, resource in self.rows():
            yield TimelineEntry(task_id, operation, resource, start, end)

    def chunks(self, size: int) -> Iterator[list[list]]:
        ids, operations, resources = self.task_ids, self.operations, self.resources
        n = len(ids)
        for its in self._groups():
            prefixes = [f"it{k}." for k in its]
            if len(its) == 1:
                starts, ends = np.frombuffer(self.starts[its[0]]), np.frombuffer(self.ends[its[0]])
            else:
                starts = np.concatenate([np.frombuffer(self.starts[k]) for k in its])
                ends = np.concatenate([np.frombuffer(self.ends[k]) for k in its])
            # row i*n + u is task u of the group's i-th iteration
            order = np.argsort(starts, kind="stable")
            for lo, hi in _equal_runs(starts[order]):
                order[lo:hi] = sorted(order[lo:hi].tolist(),
                                      key=lambda row: prefixes[row // n] + ids[row % n])
            for lo in range(0, len(order), size):
                index = order[lo:lo + size]
                if len(its) == 1:
                    uids = index.tolist()
                    task_ids = [prefixes[0] + ids[u] for u in uids]
                else:
                    group_its, uids = np.divmod(index, n)
                    uids = uids.tolist()
                    task_ids = [prefixes[i] + ids[u] for i, u in zip(group_its.tolist(), uids)]
                yield [starts[index].tolist(), task_ids, ends[index].tolist(),
                       [operations[u] for u in uids], [resources[u] for u in uids]]

    def _groups(self) -> list[list[int]]:
        """The iterations in groups whose start-time ranges overlap: rising
        and disjoint, so that each group's rows follow the last group's."""
        groups: list[list] = []  # [lowest start, highest start, iterations]
        if not self.task_ids:
            return []
        for k, starts in enumerate(self.starts):
            starts = np.frombuffer(starts)
            group = [starts.min(), starts.max(), [k]]
            while groups and groups[-1][1] >= group[0]:
                lo, hi, its = groups.pop()
                group = [min(lo, group[0]), max(hi, group[1]), its + group[2]]
            groups.append(group)
        return [its for _, _, its in groups]

    def value_types(self) -> tuple[type, ...] | None:
        texts = chain(self.task_ids, self.operations, self.resources)
        if all(type(x) is str for x in texts) and \
                all(np.isfinite(np.frombuffer(c)).all() for c in (*self.starts, *self.ends)):
            return (float, str, float, str, str)
        return None


@dataclass(frozen=True)
class SimReport:
    """One replay's totals and its timeline. The timeline stores columns:
    the iteration template once and a start and an end column per
    iteration (see ``Timeline``). ``to_dict()`` hands it to
    ``jsonio.write_json`` as a row stream, so a report's rows are never all
    built at once."""

    makespan_s: float
    busy_s: dict[str, float]
    utilization: dict[str, float]
    gpu_idle_fraction: float
    timeline: Timeline
    samples_per_s: float
    metadata: dict

    def to_dict(self) -> dict:
        return {
            "makespan_s": self.makespan_s,
            "busy_s": dict(sorted(self.busy_s.items())),
            "utilization": dict(sorted(self.utilization.items())),
            "gpu_idle_fraction": self.gpu_idle_fraction,
            # null when the makespan is 0: JSON has no infinity
            "samples_per_s": self.samples_per_s if math.isfinite(self.samples_per_s) else None,
            "metadata": self.metadata,
            "timeline": self.timeline,
        }


def compare(report_a: SimReport, report_b: SimReport) -> dict:
    """speedup = makespan_a / makespan_b, plus per-resource utilization deltas."""
    resources = set(report_a.utilization) | set(report_b.utilization)
    return {
        "speedup": report_a.makespan_s / report_b.makespan_s,
        "utilization_delta": {
            r: report_b.utilization.get(r, 0.0) - report_a.utilization.get(r, 0.0)
            for r in sorted(resources)
        },
    }


class _Template:
    """One iteration's tasks as parallel columns by uid: the task id,
    operation and resource; the resource's code, numbered in order of first
    use; the duration; and the dependency edges, as two columns of
    (dependency uid, task uid) pairs. ``runs`` and ``singletons`` partition
    the uids for the event loop (see ``_Runs``); each is built on first use,
    after the last task is added."""

    def __init__(self):
        self.task_ids: list[str] = []  # timeline ids prefix them with the iteration: it{k}.
        self.operations: list[str] = []
        self.resources: list[str] = []
        self.codes: list[int] = []
        self.durations: list[float] = []
        self.edge_deps, self.edge_tasks = array("q"), array("q")
        self.resource_codes: dict[str, int] = {}

    def extend(self, task_ids: list[str], operations: list[str], resources: list[str],
               durations: list[float], edge_deps, edge_tasks) -> None:
        """Append tasks given as columns, with their dependency edges."""
        self.task_ids += task_ids
        self.operations += operations
        self.resources += resources
        for resource in dict.fromkeys(resources):
            self.resource_codes.setdefault(resource, len(self.resource_codes))
        self.codes += map(self.resource_codes.__getitem__, resources)
        self.durations += durations
        self.edge_deps.frombytes(np.asarray(edge_deps, dtype=np.int64).tobytes())
        self.edge_tasks.frombytes(np.asarray(edge_tasks, dtype=np.int64).tobytes())

    def add(self, task_id: str, operation: str, resource: str, duration: float,
            deps: list[int]) -> int:
        """Append one task; returns its uid."""
        uid = len(self.codes)
        self.extend([task_id], [operation], [resource], [duration], deps, [uid] * len(deps))
        return uid

    def uids_by_resource(self) -> dict[str, np.ndarray]:
        """Each resource's uids, rising, with the resources in order of first use."""
        code = np.array(self.codes, dtype=np.intp)
        return {resource: np.flatnonzero(code == c) for resource, c in self.resource_codes.items()}

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The (dependency uids, task uids) columns as arrays."""
        return np.frombuffer(self.edge_deps, np.int64), np.frombuffer(self.edge_tasks, np.int64)

    @cached_property
    def runs(self) -> "_Runs":
        return _Runs.of(self, merge=True)

    @cached_property
    def singletons(self) -> "_Runs":
        return _Runs.of(self, merge=False)


def _same_as_previous(ids: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Per row u of a sorted (row, id) list of pairs over rows 0..n-1,
    whether row u holds the same ids as row u - 1 (False for row 0)."""
    counts = np.bincount(rows, minlength=n)
    same = np.zeros(n, dtype=bool)
    same[1:] = counts[1:] == counts[:-1]
    # an id of row u, if row u - 1 is as long, faces the id counts[u] places before it
    facing = np.maximum(np.arange(len(ids)) - counts[rows], 0)
    same[rows[same[rows] & (ids != ids[facing])]] = False
    return same


@dataclass(frozen=True)
class _Runs:
    """A partition of a template's uids into runs of consecutive uids, as
    parallel columns by run: run r holds uids ``bounds[r]`` up to
    ``bounds[r + 1]``, on resource code ``codes[r]``, each member for
    ``durations[r]``; it depends on the runs ``deps[r]`` and they on it in
    ``dependents``. ``edges`` holds the same (dependency run, run) pairs as
    two arrays, by run. The members of a run share their dependents, so
    every run's dependencies are whole runs.

    ``_Runs.of(tpl, merge=True)`` makes each maximal block of consecutive
    uids with one resource code, one duration > 0, one set of dependencies
    and one set of dependents a run; with ``merge=False`` every uid is its
    own run. ``merged`` says whether some run has two or more members."""

    bounds: list[int]
    codes: list[int]
    durations: list[float]
    deps: list[list[int]]
    dependents: list[list[int]]
    edges: tuple[np.ndarray, np.ndarray]

    @property
    def merged(self) -> bool:
        return len(self.codes) < self.bounds[-1]

    @classmethod
    def of(cls, tpl: _Template, merge: bool) -> "_Runs":
        n = len(tpl.codes)
        dep, task = tpl.edges()
        by_task = np.lexsort((dep, task))
        dep, task = dep[by_task], task[by_task]
        new = np.ones(n, dtype=bool)  # uids that start a run
        if merge and n > 1:
            code, duration = np.array(tpl.codes), np.array(tpl.durations)
            by_dep = np.lexsort((task, dep))
            new[1:] = ~((code[1:] == code[:-1]) & (duration[1:] == duration[:-1]) &
                        (duration[1:] > 0) & _same_as_previous(dep, task, n)[1:] &
                        _same_as_previous(task[by_dep], dep[by_dep], n)[1:])
        firsts = np.flatnonzero(new)
        run_of = np.cumsum(new) - 1
        # each run's first member's edges, as (run, dependency run) pairs
        first = new[task]
        dep_run, run = run_of[dep[first]], run_of[task[first]]
        once = np.ones(len(run), dtype=bool)  # sorted by (run, dependency run): drop repeats
        once[1:] = (run[1:] != run[:-1]) | (dep_run[1:] != dep_run[:-1])
        dep_run, run = dep_run[once], run[once]
        by_dep = np.argsort(dep_run, kind="stable")
        num_runs = len(firsts)
        return cls(firsts.tolist() + [n], [tpl.codes[u] for u in firsts.tolist()],
                   [tpl.durations[u] for u in firsts.tolist()],
                   _split(dep_run, run, num_runs), _split(run[by_dep], dep_run[by_dep], num_runs),
                   (dep_run, run))


def _split(values: np.ndarray, rows: np.ndarray, num_rows: int) -> list[list[int]]:
    """``values`` grouped by their rising ``rows``, as one list per row."""
    flat = values.tolist()
    offsets = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=num_rows)))).tolist()
    return [flat[a:b] for a, b in zip(offsets[:-1], offsets[1:])]


def _slot_durations(schedule: Schedule, traces: list[TensorTrace]) -> list[float]:
    model = schedule.model
    dur = [0.0] * (2 * model.num_layers)
    for tr in traces:
        kind = model.tensor_info[tr.tensor_id].kind
        if kind == "activation16" and tr.end_id != tr.first_id:
            dur[tr.first_id] += tr.gpu_time / 2
            dur[tr.end_id] += tr.gpu_time / 2
        elif kind in ("activation16", "grad16"):
            dur[tr.first_id] += tr.gpu_time
    return dur


def _layer_update_cpu_s(schedule: Schedule, traces: list[TensorTrace]) -> list[float]:
    model = schedule.model
    out = [0.0] * model.num_layers
    for tr in traces:
        spec = model.tensor_info[tr.tensor_id]
        if spec.kind == "param16":
            out[spec.layer_index] += tr.cpu_time
    world = schedule.sharding.world_size
    return [t / world for t in out]


def simulate(schedule: Schedule, traces: list[TensorTrace], profile: HardwareProfile,
             iterations: int = 1, update_mode: str = "none",
             optimizer_tier: str = "ssd") -> SimReport:
    """Replay the schedule and report makespan, utilization, and idle fraction."""
    if iterations < 1:
        raise ConfigError("iterations must be >= 1")
    if update_mode not in ("none", "sync"):
        raise ConfigError(f"unknown update_mode {update_mode!r}")
    if optimizer_tier not in ("ssd", "cpu"):
        raise ConfigError(f"unknown optimizer_tier {optimizer_tier!r}")
    check_traces(schedule.model, traces)

    model = schedule.model
    n = model.num_layers
    page_bytes = model.page_bytes
    world = schedule.sharding.world_size

    slot_dur = _slot_durations(schedule, traces)
    update_cpu = _layer_update_cpu_s(schedule, traces)
    link = profile.links["gpu_interconnect"]
    # per operation code, (task id prefix, resource, duration) of one task;
    # a compute's id and duration are its slot's
    kinds = [("move", "pcie_h2d", profile.links["pcie_h2d"].latency_s +
              page_bytes / profile.pcie_effective_bw("pcie_h2d")),
             ("gather", "gpu_interconnect", link.latency_s +
              page_bytes * ((world - 1) / world) / link.bandwidth_bytes_per_s),
             ("compute", "gpu", None),
             ("evict", "pcie_d2h", profile.links["pcie_d2h"].latency_s +
              page_bytes / profile.pcie_effective_bw("pcie_d2h"))]

    tpl, compute_uid, evict_uids_by_layer = _page_template(schedule, slot_dur, kinds)
    add = tpl.add
    prev_comp = max(compute_uid.values(), default=None)  # the last compute

    if update_mode == "sync":
        prev_in_pipe: list[int] = []
        for layer in reversed(range(n)):
            deps = evict_uids_by_layer.get(layer)
            if deps is None:
                comp = compute_uid.get(backward_id(layer, n), prev_comp)
                deps = [] if comp is None else [comp]
            deps = deps + prev_in_pipe
            # with SSD-resident states the rank's shard is fetched and stored
            io_s = profile.transfer_time(model.layer_optim_bytes[layer] // world, "ssd_io")
            if optimizer_tier == "ssd":
                deps = [add(f"optim_fetch.l{layer}", "optim_fetch", "ssd_io", io_s, deps)]
            upd = add(f"optim_update.l{layer}", "optim_update", "cpu", update_cpu[layer],
                      deps)
            if optimizer_tier == "ssd":
                upd = add(f"optim_store.l{layer}", "optim_store", "ssd_io", io_s, [upd])
            prev_in_pipe = [upd]

    runs: list[tuple[float, array, array]] = []  # (start, starts, ends) per iteration
    plan = None  # the recorded order, while a later iteration is left to replay
    start = 0.0
    for k in range(iterations):
        if plan is not None:
            starts, ends = _replay(plan, start)
            if not _keeps_order(plan, start, ends):
                plan = None
        if plan is None:
            order = [] if k < iterations - 1 else None
            starts, ends, part = _run_event_loop(tpl, start, order)
            if order is not None:
                plan = _replay_plan(part, order, start, ends)
        runs.append((start, starts, ends))
        # the next iteration starts once every task of this one has finished
        start = max(ends, default=start)
    makespan = start
    if not math.isfinite(makespan):
        raise ConfigError(f"simulated makespan is {makespan}: a hardware rate is too small")
    by_resource = tpl.uids_by_resource()
    _post_hoc_checks(tpl, runs, by_resource)
    busy = _busy_s(by_resource, runs)

    utilization = {r: (b / makespan if makespan > 0 else 0.0) for r, b in busy.items()}
    gpu_busy = busy.get("gpu", 0.0)
    idle = 1.0 - gpu_busy / makespan if makespan > 0 else 0.0
    samples = iterations * model.batch_size
    return SimReport(
        makespan_s=makespan,
        busy_s=busy,
        utilization=utilization,
        gpu_idle_fraction=idle,
        timeline=Timeline(tuple(tpl.task_ids), tuple(tpl.operations), tuple(tpl.resources),
                          tuple(r[1] for r in runs), tuple(r[2] for r in runs)),
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


def _page_template(schedule: Schedule, slot_dur: list[float], kinds: list[tuple]):
    """The schedule's tasks as an iteration template, in trigger order, each
    trigger's page tasks in schedule order before its compute, so that task
    u of that order gets uid u; plus the uid of each slot's compute and each
    layer's eviction uids. ``kinds`` gives each operation code's task id
    prefix, resource and duration. Trigger t tasks become eligible when
    slot t is reached, i.e. at the finish of the latest compute before them
    (or at iteration start); a compute also waits for the gathers that
    serve its slot and come before it, and an owned page's gather for the
    page's latest move at or before its trigger, whether listed before it
    or not."""
    tasks = schedule.columns
    num_slots = len(slot_dur)
    outside = np.flatnonzero((tasks.trigger < 0) | (tasks.trigger > num_slots))
    if outside.size:  # the first in schedule order
        k = outside[0]
        raise SimulationError(f"task {k}: {OPERATIONS[tasks.operation[k]]} at trigger "
                              f"{tasks.trigger[k]}, outside [0, {num_slots}]")
    order = np.lexsort((tasks.operation == COMPUTE, tasks.trigger))  # stable
    op, target, trigger, layer, slot, owned = (c[order] for c in tasks.arrays())
    computes = np.flatnonzero(op == COMPUTE)
    comp_slots = trigger[computes]
    # the second of two computes at one trigger, and owned gathers with no move
    shared = computes[1:][comp_slots[1:] == comp_slots[:-1]]
    gathers = np.flatnonzero((op == GATHER) & owned)
    moves = np.flatnonzero(op == MOVE)
    span = num_slots + 1  # triggers run from 0 to 2n
    move_keys = target[moves] * span + trigger[moves]
    by_key = np.argsort(move_keys, kind="stable")
    move_keys, moves = move_keys[by_key], moves[by_key]
    k = np.searchsorted(move_keys, target[gathers] * span + trigger[gathers], side="right") - 1
    unmoved = gathers[np.append(move_keys, -1)[k] // span != target[gathers]]
    if shared.size and not (unmoved.size and unmoved[0] < shared[0]):
        raise SimulationError(f"two compute tasks share trigger {trigger[shared[0]]}")
    if unmoved.size:
        u = unmoved[0]
        raise SimulationError(f"all_gather of owned page {target[u]} has no move "
                              f"at or before its trigger {trigger[u]}")

    # (dependency, task) edges: each task on the latest compute before it, an
    # owned gather on its page's move, and a compute on the gathers that serve
    # its slot and come before it, those at or before its trigger
    prev = np.append(computes, -1)[np.searchsorted(computes, np.arange(len(op))) - 1]
    after = np.flatnonzero(prev >= 0)
    serving = np.flatnonzero((op == GATHER) & (trigger <= slot) & np.isin(slot, comp_slots))
    edge_deps = np.concatenate((prev[after], moves[k], serving))
    edge_tasks = np.concatenate((after, gathers,
                                 computes[np.searchsorted(comp_slots, slot[serving])]))

    ops, targets, triggers = op.tolist(), target.tolist(), trigger.tolist()
    prefixes, resources, durations = zip(*kinds)
    tpl = _Template()
    tpl.extend(
        [f"compute.s{g}.l{t}" if o == COMPUTE else f"{prefixes[o]}.p{t}@{g}"
         for o, t, g in zip(ops, targets, triggers)],
        [OPERATIONS[o] for o in ops], [resources[o] for o in ops],
        # a compute at trigger 2n runs for 0 s
        np.where(op == COMPUTE, np.append(slot_dur, 0.0)[trigger],
                 np.array(durations, dtype=float)[op]).tolist(),
        edge_deps, edge_tasks)

    evicts = np.flatnonzero(op == EVICT)
    evicts = evicts[np.argsort(layer[evicts], kind="stable")]
    evict_layers, firsts = np.unique(layer[evicts], return_index=True)
    evict_uids_by_layer = dict(zip(evict_layers.tolist(),
                                   (part.tolist() for part in np.split(evicts, firsts[1:]))))
    return tpl, dict(zip(comp_slots.tolist(), computes.tolist())), evict_uids_by_layer


def _run_event_loop(tpl: _Template, start: float,
                    order: list[int] | None = None) -> tuple[array, array, _Runs]:
    """FIFO-per-resource event loop on an idle system from ``start``, where
    runs without dependencies arrive; returns the start and the finish
    column by uid and the partition it ran on, and appends each run to
    ``order``, if given, as it starts. It serves ``tpl.runs`` and keeps the
    result if ``_one_pusher`` holds; else it serves ``tpl.singletons``."""
    part = tpl.runs
    starts, ends, run_ends = _serve_runs(part, len(tpl.resource_codes), start, order)
    if part.merged and not _one_pusher(part, start, run_ends):
        part = tpl.singletons
        if order is not None:
            order.clear()
        starts, ends, _ = _serve_runs(part, len(tpl.resource_codes), start, order)
    return starts, ends, part


def _serve_runs(part: _Runs, num_codes: int, start: float,
                order: list[int] | None) -> tuple[array, array, list[float]]:
    """The event loop on one partition: the start and the finish column by
    uid, and each run's end. A run is served whole, each member starting as
    the one before it ends."""
    bounds, codes, durations = part.bounds, part.codes, part.durations
    deps, dependents = part.deps, part.dependents
    n = bounds[-1]
    pending = list(map(len, deps))
    queues: list[list] = [[] for _ in range(num_codes)]  # (arrival, run) heap per code
    running = [False] * num_codes
    starts, ends = array("d", bytes(8 * n)), array("d", bytes(8 * n))
    run_ends = [0.0] * len(codes)
    events: list[tuple[float, int, int]] = []  # (time, seq, run) completions
    seq = 0
    push, pop = heapq.heappush, heapq.heappop

    def serve(code: int, now: float):
        """Start the head of ``code``'s queue, which must be idle and non-empty."""
        nonlocal seq
        arrival, r = pop(queues[code])
        end = now if now > arrival else arrival
        duration = durations[r]
        for uid in range(bounds[r], bounds[r + 1]):
            starts[uid] = end
            end = end + duration
            ends[uid] = end
        running[code] = True
        run_ends[r] = end
        if order is not None:
            order.append(r)
        push(events, (end, seq, r))
        seq += 1

    for r, run_deps in enumerate(deps):
        if not run_deps:
            code = codes[r]
            push(queues[code], (start, r))
            if not running[code]:
                serve(code, start)

    done = 0
    while events:
        now, _, r = pop(events)
        code = codes[r]
        running[code] = False
        done += 1
        for dep_run in dependents[r]:
            pending[dep_run] -= 1
            if not pending[dep_run]:  # its dependencies have all ended, r last, at now
                dep_code = codes[dep_run]
                push(queues[dep_code], (now, dep_run))
                if not running[dep_code]:
                    serve(dep_code, now)
        if not running[code] and queues[code]:
            serve(code, now)

    if done != len(codes):
        never = sum(bounds[r + 1] - bounds[r] for r, left in enumerate(pending) if left)
        raise SimulationError(
            f"simulation stalled: {never} tasks never ran "
            "(cyclic or unsatisfiable dependencies)"
        )
    return starts, ends, run_ends


def _one_pusher(part: _Runs, start: float, run_ends: list[float]) -> bool:
    """Whether the runs that join one resource's queue at one instant are
    all pushed there by one event. A run without dependencies is pushed by
    the iteration start; any other by the end of whichever of its
    dependencies ending at its arrival the loop handles last, so each of
    those counts. A group of two or more runs with two or more pushers
    breaks the rule. The member ends that ``_serve_runs`` skips push
    nothing, so where the rule holds its result is that of the per-task
    loop, ``tpl.singletons``."""
    dep_run, run = part.edges
    dep_ends = np.array(run_ends)[dep_run]
    arrival = np.full(len(run_ends), start)  # no task ends before the start
    np.maximum.at(arrival, run, dep_ends)
    free = np.flatnonzero(np.bincount(run, minlength=len(run_ends)) == 0)  # no dependencies
    last = dep_ends == arrival[run]
    pushed = np.concatenate((run[last], free))
    pusher = np.concatenate((dep_run[last], np.full(len(free), -1)))
    code, at = np.array(part.codes)[pushed], arrival[pushed]
    by_queue = np.lexsort((at, code))
    code, at, pusher, pushed = code[by_queue], at[by_queue], pusher[by_queue], pushed[by_queue]
    groups = np.flatnonzero(np.concatenate(([True], (code[1:] != code[:-1]) |
                                            (at[1:] != at[:-1]))))
    two_pushers = np.maximum.reduceat(pusher, groups) != np.minimum.reduceat(pusher, groups)
    two_runs = np.maximum.reduceat(pushed, groups) != np.minimum.reduceat(pushed, groups)
    return not (two_pushers & two_runs).any()


@dataclass(frozen=True)
class _ReplayPlan:
    """One event-loop run, as a later iteration replays it: every run of the
    partition it ran on, in the order the loop started it, with its uids
    (``lo`` up to ``hi``), its dependency runs, its predecessor on its
    resource (-1 for none) and its members' duration; and the order of the
    run's event times ``[start, *ends]`` as a permutation that sorts them,
    plus, per neighbouring pair in that order, whether the later one is
    greater (else the two are equal)."""

    steps: list[tuple[int, int, int, list[int], int, float]]  # (run, lo, hi, deps, pred, duration)
    perm: np.ndarray
    rises: np.ndarray


def _replay_plan(part: _Runs, order: list[int], start: float, ends: array) -> _ReplayPlan:
    bounds, codes, deps, durations = part.bounds, part.codes, part.deps, part.durations
    steps = []
    last: dict[int, int] = {}  # per code, the run that started on it last so far
    for r in order:
        code = codes[r]
        steps.append((r, bounds[r], bounds[r + 1], deps[r], last.get(code, -1), durations[r]))
        last[code] = r
    times = _event_times(start, ends)
    perm = np.argsort(times, kind="stable")
    ranked = times[perm]
    return _ReplayPlan(steps, perm, ranked[1:] > ranked[:-1])


def _event_times(start: float, ends: array) -> np.ndarray:
    return np.concatenate(([start], np.frombuffer(ends)))


def _replay(plan: _ReplayPlan, start: float) -> tuple[array, array]:
    """The event loop's arithmetic, in the plan's order: a run arrives at
    the iteration start or at its latest dependency's end, and begins at
    its arrival or when its resource predecessor ends, whichever is later;
    each member begins as the one before it ends. Of equal times the first
    is kept, as ``max`` does in the loop."""
    # lists index faster than arrays; the plan has every run once
    num_tasks = len(plan.perm) - 1
    starts, ends = [0.0] * num_tasks, [0.0] * num_tasks
    run_ends = [0.0] * len(plan.steps)
    for r, lo, hi, deps, pred, duration in plan.steps:
        end = run_ends[deps[0]] if deps else start
        for d in deps:
            if run_ends[d] > end:
                end = run_ends[d]
        if pred >= 0 and run_ends[pred] > end:
            end = run_ends[pred]
        for uid in range(lo, hi):
            starts[uid] = end
            end = end + duration
            ends[uid] = end
        run_ends[r] = end
    return array("d", starts), array("d", ends)


def _keeps_order(plan: _ReplayPlan, start: float, ends: array) -> bool:
    """Whether a replayed iteration's event times fall in the plan's order
    with the same ties, so that the event loop would make the same choices."""
    ranked = _event_times(start, ends)[plan.perm]
    later, earlier = ranked[1:], ranked[:-1]
    return bool(np.array_equal(later > earlier, plan.rises) and
                np.array_equal(later == earlier, ~plan.rises))


def _columns(runs: list[tuple[float, array, array]]) -> tuple[np.ndarray, ...]:
    """Iteration starts, and the start and end columns as iterations x uids."""
    return (np.array([r[0] for r in runs]), np.stack([np.frombuffer(r[1]) for r in runs]),
            np.stack([np.frombuffer(r[2]) for r in runs]))


def _busy_s(by_resource: dict[str, np.ndarray],
            runs: list[tuple[float, array, array]]) -> dict[str, float]:
    """Per resource, its tasks' durations summed in (iteration, uid) order;
    ``np.add.accumulate`` adds in sequence, where ``np.sum`` adds pairwise."""
    _, starts, ends = _columns(runs)
    spans = ends - starts
    return {resource: float(np.add.accumulate(spans[:, uids].ravel())[-1])
            for resource, uids in by_resource.items()}


def _post_hoc_checks(tpl: _Template, runs: list[tuple[float, array, array]],
                     by_resource: dict[str, np.ndarray]):
    """Causality in every iteration (no task starts before its iteration or a
    dependency), and no overlap per resource across the whole timeline;
    ``by_resource`` is ``tpl.uids_by_resource()``."""
    it_starts, starts, ends = _columns(runs)
    dep, task = tpl.edges()  # one (dependency, task) edge per dependency
    bad = starts < (it_starts - 1e-12)[:, None]
    its, edge = np.nonzero(ends[:, dep] > starts[:, task] + 1e-12)
    bad[its, task[edge]] = True
    if bad.any():
        it, u = divmod(int(bad.argmax()), len(tpl.codes))  # the first in (iteration, uid) order
        raise SimulationError(
            f"causality violation: it{it}.{tpl.task_ids[u]} started before "
            "its iteration or a dependency finished"
        )
    for resource, uids in by_resource.items():
        s, e = starts[:, uids].ravel(), ends[:, uids].ravel()
        by_start = np.lexsort((e, s))  # by (start, end)
        s, e = s[by_start], e[by_start]
        if (s[1:] < e[:-1] - 1e-12).any():
            raise SimulationError(f"overlap on resource {resource}")

"""Two-phase lifetime-based page scheduling for one data-parallel rank.

Phase 1 prefetches every owned parameter page at trigger 0, in (layer, page)
order, then walks the forward layers: when the projected residency at a
layer's compute slot exceeds the GPU budget it first defers the prefetch of
the highest owned page of a not-yet-needed layer, and failing that evicts
the oldest already-used layer replica (which is then re-acquired for its
backward op). A layer's deferred pages move at its own slot, ahead of its
gather and compute tasks; after each compute, deferred pages move back,
lowest first, while headroom allows. The backward half mirrors the forward
sweep: re-acquisition for evicted layers, a backward compute per layer,
and post-backward eviction of owned pages.

Phase 2 re-triggers each all_gather at the earliest point that keeps peak
residency within budget (owned-page gathers never add memory and move to
their page's move trigger; no trigger ever increases). Gathers are taken
in schedule order. Each run of consecutive non-owned gathers that share a
trigger and a lower bound (their page's last eviction at or before the
trigger) is one water-fill over the slots' page headroom: the j-th gather
of the run reaches back over every slot from which each slot up to its
trigger still has room for j pages, and those slots lose one page of room
per gather that covers them. That is the greedy that walks each gather
back one slot at a time, computed by run. Phase 2's order is one stable
sort of phase 1's tasks on their new triggers.

Residency model: one rule says when a page is resident. Each acquire (the
move trigger of a page this rank owns, the gather trigger of any other
page) holds the page until the next later eviction of that page or until
one slot past its layer's backward op, whichever comes first; that release
never lies past the 2n-slot horizon. A page that two acquires hold at once
is resident once. Activations and parameter gradients are resident over
their trace lifetimes. trigger_id t means the task becomes eligible when
compute slot t is reached (t=0 at iteration start).

`_residency` applies the rule to a whole task list in one numpy sweep,
shared by `schedule()`, `peak_memory`, `available_memory` and
`validate_schedule`. It keys each acquire and eviction by (page, trigger),
as ``page * (2n + 1) + trigger``, and sorts the keys. ``searchsorted``
finds each acquire's next eviction; the acquires of a page that share it
hold the page over one interval, from the first of them. The result is
resident bytes per slot plus the sorted keys, which phase 2 searches for
each gather's lower bound.

Phase 1's state is three numbers. A deferral withdraws the highest moved
page and a move back takes the lowest deferred one, so the moved owned
pages are always a prefix of the owned pages in (layer, page) order: one
index, ``moved``, marks where the deferred ones start. ``evicted`` counts
the layers evicted in the forward sweep, oldest first. The third is the
bytes of the pages resident at the forward slot being planned: each move
and each gather of a page this rank does not own adds a page; each
withdrawn move and each evicted victim page takes one away, and the traced
bytes at the slot are read off one profile of the traces. Every query is at
that slot, so nothing else is needed: a layer's own share there is its
owned pages and its traced bytes. The owned pages are the ids rank, rank +
world, ..., so phase 1 plans in runs of pages that share one operation and
trigger: a deferral or a move back of k pages is one step, and the task
list is built from the runs at the end.

Columns: a Schedule holds its tasks as parallel integer columns in schedule
order (``TaskColumns``): operation code, target, trigger, layer, slot and
owned. ``Task`` is only the row type. ``task_columns`` is the one
conversion from rows, a schedule file's among them; ``Schedule.tasks``
builds rows on demand, only for callers that read tasks one by one.
``_faults`` reads the columns' values, and ``Schedule.to_dict()`` streams
the columns as rows (``TaskRows``).

Runnable schedules: ``_faults`` states, for ``Schedule.from_dict`` and
``validate_schedule`` alike, when the simulator can run a task list. (1) A
task's trigger is in [0, 2n]. A page task's target is a parameter page and
its layer is that page's; a move_to_gpu or evict_to_cpu serves a slot in
[0, 2n), and an all_gather one of its layer's two compute slots at or after
its trigger. (2) A page task is ``owned`` exactly when the rank owns its
page; a compute never is. (3) A compute's slot is one of the 2n and is its
trigger, and its target and layer are that slot's layer. (4) The compute
triggers are 0, 1, ..., 2n-1 in list order, one compute per slot. (5) An
owned page's all_gather has a move_to_gpu of the page at or before its
trigger. (6) Each page of a compute's layer has an all_gather, and an owned
page a move_to_gpu too, between the page's last eviction at or before the
compute's trigger (or 0) and that trigger.

Traces are checked on entry: every public function that takes them first
calls ``check_traces``, which raises ConfigError unless they are well formed
and trace exactly the model's param16, grad16 and activation16 tensors.

Scheduling is a pure function; a Schedule is an immutable value.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import accumulate
from typing import ClassVar, Iterable, Iterator

import numpy as np

from .errors import ConfigError, InfeasibleScheduleError, check_fields, check_range
from .footprint import TensorSpec
from .jsonio import RowStream
from .pagemem import PAGE_BYTES_DEFAULT, check_page_bytes
from .tracer import TensorTrace, backward_id, validate_trace

OPERATIONS = ("move_to_gpu", "all_gather", "compute", "evict_to_cpu")
MOVE, GATHER, COMPUTE, EVICT = range(len(OPERATIONS))  # operation codes


@dataclass(frozen=True)
class Task:
    operation: str
    target: int  # page id for movement/communication, layer index for compute
    trigger_id: int
    layer: int
    slot: int  # compute slot this task serves (reporting/simulation metadata)
    owned: bool = False


@dataclass(frozen=True, eq=False)
class TaskColumns:
    """A task list as parallel columns, one entry per task in schedule
    order: the operation's index in ``OPERATIONS`` (int8); target,
    trigger, layer and slot (int64); owned (bool)."""

    operation: np.ndarray
    target: np.ndarray
    trigger: np.ndarray
    layer: np.ndarray
    slot: np.ndarray
    owned: np.ndarray

    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __len__(self) -> int:
        return len(self.operation)

    def __eq__(self, other) -> bool:
        return isinstance(other, TaskColumns) and \
            all(map(np.array_equal, self.arrays(), other.arrays()))

    __hash__ = None

    def take(self, index) -> "TaskColumns":
        """The tasks at ``index`` (an index array, mask or slice), in its order."""
        return TaskColumns(*(column[index] for column in self.arrays()))

    def lists(self, index=slice(None)) -> list[list]:
        """The tasks at ``index`` as one list per ``Task`` field, of its values."""
        operation, *rest = (column[index].tolist() for column in self.arrays())
        return [[OPERATIONS[k] for k in operation], *rest]

    def rows(self) -> tuple[Task, ...]:
        return tuple(map(Task, *self.lists()))


def task_columns(tasks: Iterable[Task]) -> TaskColumns:
    """The columns of a list of ``Task`` rows. ConfigError names task k and
    its field for an operation that is not in ``OPERATIONS`` or a value
    that does not fit in an int64; the values are judged by ``_faults``."""
    tasks = tuple(tasks)
    codes = dict(zip(OPERATIONS, range(len(OPERATIONS))))
    for k, t in enumerate(tasks):
        if t.operation not in codes:
            raise ConfigError(f"task {k} 'operation': unknown operation {t.operation!r}")

    def column(name: str, dtype) -> np.ndarray:
        values = [getattr(t, name) for t in tasks]
        try:
            return np.array(values, dtype=dtype)
        except OverflowError:
            k = next(k for k, v in enumerate(values) if not -2**63 <= v < 2**63)
            raise ConfigError(f"task {k} {name!r}: {values[k]} does not fit in 64 bits") from None

    return TaskColumns(np.array([codes[t.operation] for t in tasks], dtype=np.int8),
                       column("target", np.int64), column("trigger_id", np.int64),
                       column("layer", np.int64), column("slot", np.int64),
                       column("owned", bool))


@dataclass(frozen=True)
class TaskRows(RowStream):
    """A schedule's tasks as the rows of its file, built from the columns
    as they are read."""

    columns: TaskColumns

    keys: ClassVar = ("operation", "target", "trigger_id", "layer", "slot", "owned")

    def chunks(self, size: int) -> Iterator[list[list]]:
        for lo in range(0, len(self.columns), size):
            yield self.columns.lists(slice(lo, lo + size))

    def value_types(self) -> tuple[type, ...]:
        return (str, int, int, int, int, bool)


@dataclass(frozen=True)
class ShardingModel:
    """Even page-level partitioning of parameters across data-parallel ranks."""

    world_size: int = 1
    rank: int = 0

    def __post_init__(self):
        if self.world_size < 1 or not (0 <= self.rank < self.world_size):
            raise ConfigError(
                f"bad sharding: world_size={self.world_size} rank={self.rank}"
            )

    def owns(self, page_id):
        """Whether this rank owns page ``page_id``: an id, or an array of
        ids, elementwise."""
        return page_id % self.world_size == self.rank


class LayerModel:
    """Per-layer parameter pages plus the tensor size table behind the traces.

    The tensor table is the only size input: a layer's param and optim
    bytes are the sums of its ``param16`` and ``optim32`` tensors. Layer l
    holds max(1, ceil(param bytes / page_bytes)) pages with consecutive ids
    that follow layer l-1's, so ``layer_pages[l]`` is a ``range`` and
    ``layer_of`` bisects the layers' first ids; nothing is built per page.
    """

    def __init__(self, num_layers: int, page_bytes: int,
                 tensor_info: dict[int, TensorSpec], batch_size: int = 1):
        if num_layers < 1:
            raise ConfigError("model needs at least one layer")
        check_page_bytes(page_bytes)
        check_range("model 'batch_size'", batch_size, 1, finite=False)
        self.num_layers = num_layers
        self.page_bytes = page_bytes
        self.tensor_info = dict(tensor_info)
        self.batch_size = batch_size
        self.layer_param_bytes = _layer_bytes(self.tensor_info.values(), num_layers, "param16")
        self.layer_optim_bytes = _layer_bytes(self.tensor_info.values(), num_layers, "optim32")
        counts = [max(1, -(-b // page_bytes)) for b in self.layer_param_bytes]
        self._starts = starts = list(accumulate(counts, initial=0))
        self.layer_pages = [range(a, b) for a, b in zip(starts, starts[1:])]
        self.num_pages = starts[-1]

    def layer_of(self, pid: int) -> int:
        """The layer of parameter page ``pid``, which must be below num_pages."""
        return bisect_right(self._starts, pid) - 1

    def layers_of(self, pids: np.ndarray) -> np.ndarray:
        """``layer_of`` of each page id in an array of them."""
        return np.searchsorted(self._starts, pids, side="right") - 1

    @cached_property
    def page_layer(self) -> dict[int, int]:
        """Page id -> layer, one entry per page, built on first access."""
        return {pid: layer for layer, pages in enumerate(self.layer_pages) for pid in pages}

    @classmethod
    def from_inventory(cls, inventory: list[TensorSpec],
                       page_bytes: int = PAGE_BYTES_DEFAULT,
                       batch_size: int = 1) -> "LayerModel":
        num_layers = max(s.layer_index for s in inventory) + 1
        return cls(num_layers, page_bytes, dict(enumerate(inventory)), batch_size)

    def to_dict(self) -> dict:
        return {
            "num_layers": self.num_layers,
            "page_bytes": self.page_bytes,
            "layer_param_bytes": self.layer_param_bytes,
            "layer_optim_bytes": self.layer_optim_bytes,
            "batch_size": self.batch_size,
            "tensors": [
                {"tensor_id": tid, "name": s.name, "kind": s.kind,
                 "bytes": s.bytes, "layer_index": s.layer_index}
                for tid, s in sorted(self.tensor_info.items())
            ],
        }

    @classmethod
    def from_dict(cls, raw) -> "LayerModel":
        """The model of a schedule file; ConfigError names the bad field."""
        raw = check_fields("schedule 'model'", raw, _MODEL_FIELDS,
                           required=_MODEL_FIELDS.keys() - {"batch_size"})
        n = raw["num_layers"]
        for key in ("layer_param_bytes", "layer_optim_bytes"):
            if len(raw[key]) != n or not {type(b) for b in raw[key]} <= {int}:
                raise ConfigError(f"schedule 'model' {key!r} must be a list of {n} ints")
        info = {}
        for k, t in enumerate(raw["tensors"]):
            t = check_fields(f"schedule tensor {k}", t, _TENSOR_FIELDS, required=_TENSOR_FIELDS)
            if not 0 <= t["layer_index"] < n:
                raise ConfigError(f"schedule tensor {k} 'layer_index' must be in [0, {n})")
            if t["tensor_id"] in info:
                j = [u["tensor_id"] for u in raw["tensors"][:k]].index(t["tensor_id"])
                raise ConfigError(f"schedule tensor {k} 'tensor_id' is tensor {j}'s too")
            info[t["tensor_id"]] = TensorSpec(t["name"], t["kind"], t["bytes"], t["layer_index"])
        model = cls(n, raw["page_bytes"], info, raw.get("batch_size", 1))
        # the file's per-layer totals must be those the model takes of its tensors
        for key, kind in (("layer_param_bytes", "param16"), ("layer_optim_bytes", "optim32")):
            for layer, (got, want) in enumerate(zip(raw[key], getattr(model, key))):
                if got != want:
                    raise ConfigError(f"schedule 'model' {key!r} layer {layer} is {got}, "
                                      f"but its {kind} tensors hold {want} bytes")
        return model


def _layer_bytes(specs, num_layers: int, kind: str) -> list[int]:
    """Bytes of the ``kind`` tensors of each layer."""
    totals = [0] * num_layers
    for spec in specs:
        if spec.kind == kind:
            totals[spec.layer_index] += spec.bytes
    return totals


def check_traces(model: LayerModel, traces: list[TensorTrace],
                 where: str = "the trace list") -> None:
    """ConfigError unless ``traces`` pass ``validate_trace`` on the model's
    n layers and hold one trace of each of its param16, grad16 and
    activation16 tensors, and no other; ``where`` names the traces."""
    violations = validate_trace(traces, model.num_layers)
    if violations:
        raise ConfigError(f"invalid traces in {where}: " + "; ".join(violations))
    traced = {tid for tid, spec in model.tensor_info.items() if spec.kind != "optim32"}
    for tr in traces:
        if tr.tensor_id not in traced:
            raise ConfigError(f"trace in {where} names tensor {tr.tensor_id}, which is not "
                              f"a param16, grad16 or activation16 tensor of the model")
    untraced = sorted(traced - {tr.tensor_id for tr in traces})
    if untraced:
        raise ConfigError(f"{where} has no trace of tensor {untraced[0]} "
                          f"({model.tensor_info[untraced[0]].name})")


_MODEL_FIELDS = {"num_layers": (int,), "page_bytes": (int,), "layer_param_bytes": (list,),
                 "layer_optim_bytes": (list,), "batch_size": (int,), "tensors": (list,)}
_TENSOR_FIELDS = {"tensor_id": (int,), "name": (str,), "kind": (str,), "bytes": (int,),
                  "layer_index": (int,)}


@dataclass(frozen=True)
class Schedule:
    columns: TaskColumns
    phase: str  # "phase1" | "phase2"
    gpu_budget: int
    model: LayerModel = field(compare=False)
    sharding: ShardingModel = ShardingModel()

    @property
    def num_slots(self) -> int:
        return 2 * self.model.num_layers

    @property
    def tasks(self) -> tuple[Task, ...]:
        """The tasks as rows, built on each access."""
        return self.columns.rows()

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "gpu_budget": self.gpu_budget,
            "world_size": self.sharding.world_size,
            "rank": self.sharding.rank,
            "model": self.model.to_dict(),
            "tasks": TaskRows(self.columns),
        }

    @classmethod
    def from_dict(cls, raw) -> "Schedule":
        """A schedule file as ``hiermem schedule`` writes it, or ``to_dict()``
        of a Schedule. It is judged once, in three stages: ``check_fields``
        checks each task's keys and types, ``task_columns`` its operation,
        and ``_faults`` every value, so ConfigError names the field of a
        malformed value or gives the first fault of "Runnable schedules" in
        the module docstring, as ``validate_schedule`` words it."""
        if isinstance(raw, dict) and isinstance(raw.get("tasks"), TaskRows):
            raw = {**raw, "tasks": raw["tasks"].dicts()}
        raw = check_fields("schedule", raw, _SCHEDULE_FIELDS,
                           required=("phase", "gpu_budget", "model", "tasks"))
        if raw["phase"] not in ("phase1", "phase2"):
            raise ConfigError(f"schedule 'phase' {raw['phase']!r} is not 'phase1' or 'phase2'")
        check_range("schedule 'gpu_budget'", raw["gpu_budget"], 0, finite=False)
        model = LayerModel.from_dict(raw["model"])
        sharding = ShardingModel(raw.get("world_size", 1), raw.get("rank", 0))
        tasks = task_columns(Task(**check_fields(f"task {k}", t, _TASK_FIELDS,
                                                 required=_TASK_FIELDS.keys() - {"owned"}))
                             for k, t in enumerate(raw["tasks"]))
        for k, name, message in _faults(tasks, model, sharding):
            where = f"task {k} {name!r}" if k < len(tasks) else f"schedule {name!r}"
            raise ConfigError(f"{where}: {message}")
        return cls(tasks, raw["phase"], raw["gpu_budget"], model, sharding)


# schema_version and peak_bytes are what ``hiermem schedule`` adds to to_dict()
_SCHEDULE_FIELDS = {"phase": (str,), "gpu_budget": (int,), "world_size": (int,),
                    "rank": (int,), "model": (dict,), "tasks": (list,),
                    "schema_version": (str,), "peak_bytes": (int,)}
_TASK_FIELDS = {"operation": (str,), "target": (int,), "trigger_id": (int,),
                "layer": (int,), "slot": (int,), "owned": (bool,)}


def _faults(tasks: TaskColumns, model: LayerModel, sharding: ShardingModel):
    """(task index, field, message) of each fault that makes a task
    unrunnable, in task order: the rules of "Runnable schedules" in the
    module docstring. Slots left without a compute after the last one come
    last, as index len(tasks) and field "tasks"."""
    n = model.num_layers
    rows = list(zip(*tasks.lists()))  # (operation, target, trigger, layer, slot, owned) each
    by_page: dict[tuple[str, int], list[int]] = {}  # (operation, page) -> triggers, sorted
    for operation, target, at, *_ in rows:
        if operation != "compute":
            by_page.setdefault((operation, target), []).append(at)
    for triggers in by_page.values():
        triggers.sort()

    def latest(operation: str, pid: int, trigger: int) -> int:
        return _last_at_or_before(by_page.get((operation, pid), ()), trigger, -1)

    due = 0  # one past the highest compute trigger so far
    last = None  # the index of that compute
    for k, (operation, target, at, layer, slot, owned) in enumerate(rows):
        if not 0 <= at <= 2 * n:
            yield k, "trigger_id", f"{operation} at trigger {at}, outside [0, {2 * n}]"
            continue
        if operation != "compute" and not 0 <= target < model.num_pages:
            yield k, "target", f"page {target} is not a parameter page"
            continue
        owns = operation != "compute" and sharding.owns(target)
        if owned != owns:
            yield k, "owned", (f"'owned' must be {str(owns).lower()} for {operation} of "
                               f"{target} on rank {sharding.rank} of {sharding.world_size}")
        if operation != "compute":
            home = model.layer_of(target)
            slots = (home, backward_id(home, n))
            if layer != home:
                yield k, "layer", (f"{operation} of page {target} names layer {layer}, "
                                   f"but the page is in layer {home}")
            elif operation == "all_gather" and (slot not in slots or slot < at):
                yield k, "slot", (f"all_gather of page {target} (layer {home}) at trigger "
                                  f"{at} must serve slot {slots[0]} or {slots[1]} at or after "
                                  f"its trigger, not slot {slot}")
            if operation != "all_gather" and not 0 <= slot < 2 * n:
                yield k, "slot", (f"{operation} of page {target} serves slot {slot}, "
                                  f"outside [0, {2 * n})")
            if operation == "all_gather" and owns and latest("move_to_gpu", target, at) < 0:
                yield k, "trigger_id", (f"all_gather of owned page {target} at trigger {at} "
                                        f"has no move_to_gpu at or before it")
            continue
        if at >= due:
            if at > due:
                yield k, "trigger_id", f"slot {due} has no compute before this one at trigger {at}"
            due, last = at + 1, k
        elif at == due - 1:
            yield k, "trigger_id", f"compute at trigger {at} shares it with task {last}"
        else:
            yield k, "trigger_id", (f"compute at trigger {at} follows task {last}'s at "
                                    f"{due - 1}: compute triggers not strictly increasing")
        if not 0 <= slot < 2 * n:
            yield k, "slot", f"compute at trigger {at} serves slot {slot}, outside [0, {2 * n})"
            continue
        home = slot if slot < n else backward_id(slot, n)
        if slot != at:
            yield k, "slot", f"compute at trigger {at} must serve slot {at}, not slot {slot}"
        for name, value in (("target", target), ("layer", layer)):
            if value != home:
                yield k, name, f"compute of slot {slot} must name its layer {home}, not {value}"
        for pid in model.layer_pages[home]:
            evicted = latest("evict_to_cpu", pid, at)
            since = (f"between the page's eviction at trigger {evicted} and it" if evicted >= 0
                     else "at or before it")
            needed = ("all_gather", "move_to_gpu") if sharding.owns(pid) else ("all_gather",)
            for operation in needed:
                if latest(operation, pid, at) < max(evicted, 0):
                    yield k, "trigger_id", (f"compute of layer {home} at trigger {at} has no "
                                            f"{operation} of page {pid} {since}")
    if due < 2 * n:
        yield len(tasks), "tasks", f"slot {due} has no compute"


# -- residency ---------------------------------------------------------------

_RESIDENT_KINDS = ("activation16", "grad16")


def _last_at_or_before(triggers: list[int], t: int, default: int) -> int:
    """The largest of the sorted ``triggers`` that is <= t, else ``default``."""
    k = bisect_right(triggers, t)
    return triggers[k - 1] if k else default


def _last_key_at_or_before(keys: np.ndarray, at: np.ndarray, span: int, default):
    """Per (page, trigger) key in ``at``, the trigger of the last of the
    sorted ``keys`` of the same page at or before it, else ``default`` (a
    scalar or an array like ``at``). A key is ``page * span + trigger``."""
    last = np.append(keys, -1)[np.searchsorted(keys, at, side="right") - 1]
    return np.where(last // span == at // span, last % span, default)


def _traced_lifetimes(model: LayerModel, traces: list[TensorTrace]):
    """(spec, start, end) of each traced tensor that is resident, over the
    slots [start, end) it is live in."""
    for tr in traces:
        spec = model.tensor_info[tr.tensor_id]
        if spec.kind in _RESIDENT_KINDS:
            yield spec, tr.first_id, tr.end_id + 1


def _residency(tasks: TaskColumns, model: LayerModel, sharding: ShardingModel,
               traces: list[TensorTrace]) -> tuple[list[int], np.ndarray, np.ndarray]:
    """One sweep over a task list: (resident GPU bytes per compute slot, the
    (page, trigger) keys of the acquires, and those of the evictions, each
    sorted), with the key ``page * (2n + 1) + trigger``."""
    horizon = 2 * model.num_layers
    span = horizon + 1  # triggers run from 0 to 2n
    delta = [0] * span
    for spec, start, end in _traced_lifetimes(model, traces):
        delta[start] += spec.bytes
        delta[end] -= spec.bytes
    op, pid, trigger = tasks.operation, tasks.target, tasks.trigger
    page = (op != COMPUTE) & (pid >= 0) & (pid < model.num_pages)
    page &= (trigger >= 0) & (trigger < span)  # a trigger outside [0, 2n] holds no slot
    acquire = page & np.where(sharding.owns(pid), op == MOVE, op == GATHER)
    evict = page & (op == EVICT)
    acquires = np.sort(pid[acquire] * span + trigger[acquire])
    evicts = np.sort(pid[evict] * span + trigger[evict])

    pages, starts = np.divmod(acquires, span)
    # each acquire holds its page until the page's next later eviction, or its release
    nxt = np.searchsorted(evicts, acquires, side="right")
    evicted_at = np.append(evicts, -1)[nxt]
    release = horizon - model.layers_of(pages)  # one past the layer's backward slot
    ends = np.where(evicted_at // span == pages, np.minimum(evicted_at % span, release), release)
    # the acquires of a page before one eviction hold it once, from the first of them
    first = np.ones(len(acquires), dtype=bool)
    first[1:] = (pages[1:] != pages[:-1]) | (nxt[1:] != nxt[:-1])
    held = first & (ends > starts)
    pages_held = np.bincount(starts[held], minlength=span) - np.bincount(ends[held], minlength=span)
    profile = np.cumsum(pages_held[:horizon] * model.page_bytes + delta[:horizon])
    return profile.tolist(), acquires, evicts


def _resident_profile(tasks: TaskColumns, model: LayerModel, sharding: ShardingModel,
                      traces: list[TensorTrace]) -> list[int]:
    """Resident GPU bytes per compute slot, in one sweep over a task list."""
    return _residency(tasks, model, sharding, traces)[0]


def available_memory(schedule: Schedule, traces: list[TensorTrace], at_id: int) -> int:
    """GPU budget minus bytes resident at a logical compute slot."""
    if not (0 <= at_id < schedule.num_slots):
        raise ConfigError(f"at_id {at_id} outside [0, {schedule.num_slots})")
    check_traces(schedule.model, traces)
    profile = _resident_profile(schedule.columns, schedule.model, schedule.sharding, traces)
    return schedule.gpu_budget - profile[at_id]


def peak_memory(schedule: Schedule, traces: list[TensorTrace]) -> int:
    """Max resident bytes over all logical slots; 0 for an empty schedule."""
    check_traces(schedule.model, traces)
    if not len(schedule.columns):
        return 0
    profile = _resident_profile(schedule.columns, schedule.model, schedule.sharding, traces)
    return max(profile)


# -- phase 1 -----------------------------------------------------------------

def _build_phase1(model: LayerModel, traces: list[TensorTrace], gpu_budget: int,
                  sharding: ShardingModel) -> TaskColumns:
    n = model.num_layers
    page_bytes = model.page_bytes
    world, rank = sharding.world_size, sharding.rank
    own = range(rank, model.num_pages, world)  # the owned pages, in (layer, page) order
    ends = [len(range(rank, pages.stop, world)) for pages in model.layer_pages]
    own_pages = [own[a:b] for a, b in zip([0, *ends], ends)]  # ends[i]: one past layer i's in own

    # traced bytes at each slot, and each layer's own at its forward and backward slots
    delta = [0] * (2 * n + 1)
    own_traced = [[0, 0] for _ in range(n)]
    for spec, start, end in _traced_lifetimes(model, traces):
        delta[start] += spec.bytes
        delta[end] -= spec.bytes
        i = spec.layer_index
        for k, s in enumerate((i, backward_id(i, n))):
            if start <= s < end:
                own_traced[i][k] += spec.bytes
    traced = list(accumulate(delta))
    # a layer's working set: its pages plus its traced bytes at the fuller of its slots
    sizes = [len(pages) * page_bytes + max(at_slots)
             for pages, at_slots in zip(model.layer_pages, own_traced)]
    for i, size in enumerate(sizes):
        if size > gpu_budget:
            raise InfeasibleScheduleError(i, size, gpu_budget)

    # [operation, pages (a range), trigger, slot (None: each page's layer)] per run
    runs: list[list] = []
    moving: list[list] = []  # the runs that hold the moves of own[:moved], in own order
    paged = 0  # bytes of the pages resident at the forward slot being planned

    def move(lo: int, hi: int, trigger: int) -> None:
        nonlocal paged
        runs.append([MOVE, own[lo:hi], trigger, None])
        moving.append(runs[-1])
        paged += (hi - lo) * page_bytes

    def withdraw(count: int) -> None:
        """Withdraw the moves of the highest ``count`` moved pages."""
        while count:
            pages = moving[-1][1]
            take = min(count, len(pages))
            moving[-1][1] = pages[:len(pages) - take]
            if take == len(pages):
                moving.pop()
            count -= take

    move(0, len(own), 0)
    moved = len(own)  # own[:moved] are moved; the rest are deferred
    evicted = 0  # layers 0..evicted-1 were evicted in the forward sweep, oldest first

    for i in range(n):
        # this layer's deferred pages must move now (the gather needs them), highest
        # first; no later deferral reaches them, so they stay off ``moving``
        if moved < ends[i]:
            runs.append([MOVE, own[moved:ends[i]][::-1], i, i])
            paged += (ends[i] - moved) * page_bytes
            moved = ends[i]

        # layer i's own bytes at slot i: all its owned pages moved, none gathered yet
        mine = len(own_pages[i]) * page_bytes + own_traced[i][0]
        while (short := sizes[i] - (gpu_budget - (traced[i] + paged - mine))) > 0:
            if moved > ends[i]:  # withdraw the highest pages' moves: their layers are after i
                count = min(moved - ends[i], -(-short // page_bytes))
                withdraw(count)
                moved -= count
                paged -= count * page_bytes
                continue
            victim = evicted
            if victim >= i:
                raise InfeasibleScheduleError(
                    i, sizes[i], gpu_budget - (traced[i] + paged - mine))
            runs.append([EVICT, model.layer_pages[victim], i, i])
            paged -= len(model.layer_pages[victim]) * page_bytes
            evicted += 1

        runs.append([GATHER, model.layer_pages[i], i, i])
        paged += (len(model.layer_pages[i]) - len(own_pages[i])) * page_bytes
        runs.append([COMPUTE, range(i, i + 1), i, i])

        # deferred pages move back, lowest first, while a page's headroom remains
        room = gpu_budget - (traced[i] + paged) - page_bytes
        if moved < len(own) and room > 0:
            count = min(len(own) - moved, -(-room // page_bytes))
            move(moved, moved + count, i)
            moved += count

    assert moved == len(own), "every deferred page must move by the end of the forward sweep"

    # the backward sweep makes no query: its residency is checked on the whole list
    for slot in range(n, 2 * n):
        i = backward_id(slot, n)
        if i < evicted:
            runs.append([MOVE, own_pages[i], slot, slot])
            runs.append([GATHER, model.layer_pages[i], slot, slot])
        runs.append([COMPUTE, range(i, i + 1), slot, slot])
        runs.append([EVICT, own_pages[i], slot + 1, slot])

    return _run_columns(runs, model, sharding)


def _run_columns(runs: list[list], model: LayerModel, sharding: ShardingModel) -> TaskColumns:
    """The columns of phase 1's runs: a compute's target is its layer, a
    page task's layer is its page's, and its slot, where the run gives
    none, is that layer."""
    runs = [run for run in runs if len(run[1])]
    lengths = [len(run[1]) for run in runs]
    operation = np.repeat(np.array([run[0] for run in runs], dtype=np.int8), lengths)
    target = np.concatenate([np.arange(p.start, p.stop, p.step, dtype=np.int64)
                             for _, p, _, _ in runs])
    trigger = np.repeat(np.array([run[2] for run in runs], dtype=np.int64), lengths)
    slot = np.repeat(np.array([-1 if run[3] is None else run[3] for run in runs],
                              dtype=np.int64), lengths)
    is_page = operation != COMPUTE
    layer = np.where(is_page, model.layers_of(target), target)
    owned = is_page & sharding.owns(target)
    return TaskColumns(operation, target, trigger, layer, np.where(slot < 0, layer, slot),
                       owned)


# -- phase 2 -----------------------------------------------------------------

def _advance_gathers(phase1: Schedule, profile: list[int], acquires: np.ndarray,
                     evicts: np.ndarray) -> Schedule:
    """Phase 2 on the sweep of phase 1's tasks (see ``_residency``)."""
    tasks = phase1.columns
    page_bytes = phase1.model.page_bytes
    budget = phase1.gpu_budget
    span = phase1.num_slots + 1
    gathers = np.flatnonzero(tasks.operation == GATHER)
    old = tasks.trigger[gathers]
    keys = tasks.target[gathers] * span + old
    # a re-gather may not precede the eviction it recovers from
    low = _last_key_at_or_before(evicts, keys, span, 0)
    owned = tasks.owned[gathers]
    # owned-page gathers reuse the resident shard: no memory cost
    new = np.where(owned, np.maximum(low, _last_key_at_or_before(acquires, keys, span, old)),
                   old)

    free = np.flatnonzero(~owned)  # the gathers that add a page, in schedule order
    old, low = old[free], low[free]
    firsts = np.flatnonzero(np.diff(old, prepend=-1) | np.diff(low, prepend=-1)).tolist()
    # pages each slot has room for; no slot needs room for more than every gather
    room = np.array([max(0, min((budget - p) // page_bytes, len(free))) for p in profile],
                    dtype=np.int64)
    advanced = old.copy()
    for lo, hi in zip(firsts, firsts[1:] + [len(free)]):  # one run of equal (old, low)
        at, floor = int(old[lo]), int(low[lo])
        # per slot x, from at - 1 down to floor: the room every slot in [x, at) has
        reach = np.minimum.accumulate(room[floor:at][::-1])
        # the j-th gather of the run (from 1) reaches back over the slots with room j
        advanced[lo:hi] = at - np.searchsorted(-reach, -np.arange(1, hi - lo + 1),
                                               side="right")
        room[floor:at] -= np.minimum(reach, hi - lo)[::-1]
    new[free] = advanced

    trigger = tasks.trigger.copy()
    trigger[gathers] = new
    order = np.argsort(trigger, kind="stable")  # schedule order within a trigger
    return Schedule(replace(tasks, trigger=trigger).take(order), "phase2", budget,
                    phase1.model, phase1.sharding)


def advance_gathers(schedule: Schedule, traces: list[TensorTrace]) -> Schedule:
    """Re-trigger each all_gather at its earliest in-budget point.

    Tasks are scanned in schedule order. An owned page's gather may never
    precede that page's move; a non-owned gather stops at the first slot
    whose residency would overflow the budget, and none precedes its page's
    last eviction at or before its trigger. Only gather triggers change,
    and none increases. ``schedule()`` runs the same pass on the sweep it
    checks phase 1's peak with.
    """
    check_traces(schedule.model, traces)
    return _advance_gathers(schedule, *_residency(schedule.columns, schedule.model,
                                                  schedule.sharding, traces))


def schedule(model_layers: LayerModel, traces: list[TensorTrace], gpu_budget: int,
             sharding: ShardingModel | None = None, phase1_only: bool = False) -> Schedule:
    """Emit the page-level task schedule for one rank under a GPU budget."""
    check_range("gpu budget", gpu_budget, 0, finite=False)
    check_traces(model_layers, traces)
    sharding = sharding or ShardingModel()
    tasks = _build_phase1(model_layers, traces, gpu_budget, sharding)
    phase1 = Schedule(tasks, "phase1", gpu_budget, model_layers, sharding)
    profile, acquires, evicts = _residency(tasks, model_layers, sharding, traces)
    peak = max(profile)
    if peak > gpu_budget:
        slot = profile.index(peak)
        n = model_layers.num_layers
        layer = slot if slot < n else backward_id(slot, n)
        raise InfeasibleScheduleError(layer, peak, gpu_budget)
    if phase1_only:
        return phase1
    return _advance_gathers(phase1, profile, acquires, evicts)


# -- validation --------------------------------------------------------------

def validate_schedule(schedule: Schedule, traces: list[TensorTrace]) -> list[str]:
    """Empty list iff the schedule fits its budget and is runnable (see
    "Runnable schedules" in the module docstring); else the peak over the
    budget, then the message of every fault in task order."""
    budget = schedule.gpu_budget
    peak = peak_memory(schedule, traces)  # which checks the traces
    violations = [f"peak memory {peak} exceeds budget {budget}"] if peak > budget else []
    return violations + [message for _, _, message in
                         _faults(schedule.columns, schedule.model, schedule.sharding)]

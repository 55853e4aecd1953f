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
their page's move trigger; no trigger ever increases).

Residency model: one rule, in `_page_intervals`, says when a page is
resident. Each acquire (the move trigger of a page this rank owns, the
gather trigger of any other page) holds the page until the next later
eviction of that page or until one slot past its layer's backward op,
whichever comes first; that release never lies past the 2n-slot horizon.
A page that two acquires hold at once is resident once. Activations and
parameter gradients are resident over their trace lifetimes. trigger_id t
means the task becomes eligible when compute slot t is reached (t=0 at
iteration start).

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
owned pages and its traced bytes.
`_residency` is the one sweep over a whole task list, shared by
`schedule()`, `peak_memory`, `available_memory` and `validate_schedule`:
resident bytes per slot, plus each page's acquire and eviction triggers,
sorted, which phase 2 bisects for each gather's lower bound while it adds
the bytes of each gather it moves earlier to the profile in place.

Runnable schedules: ``_faults`` states, for ``Schedule.from_dict`` and
``validate_schedule`` alike, when the simulator can run a task list. (1) A
page task names its page's layer, and an all_gather serves one of that
layer's two compute slots at or after its trigger. (2) A page task is
``owned`` exactly when the rank owns its page; a compute never is. (3) A
compute's slot is its trigger, and its target and layer are that slot's
layer. (4) The compute triggers are 0, 1, ..., 2n-1 in list order, one
compute per slot. (5) An owned page's all_gather has a move_to_gpu of the
page at or before its trigger. (6) Each page of a compute's layer has an
all_gather, and an owned page a move_to_gpu too, between the page's last
eviction at or before the compute's trigger (or 0) and that trigger.

Scheduling is a pure function; a Schedule is an immutable value.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

from .errors import ConfigError, InfeasibleScheduleError, check_fields, check_range
from .footprint import TensorSpec
from .pagemem import PAGE_BYTES_DEFAULT, check_page_bytes
from .tracer import TensorTrace, backward_id

OPERATIONS = ("move_to_gpu", "all_gather", "compute", "evict_to_cpu")


@dataclass(frozen=True)
class Task:
    operation: str
    target: int  # page id for movement/communication, layer index for compute
    trigger_id: int
    layer: int
    slot: int  # compute slot this task serves (reporting/simulation metadata)
    owned: bool = False

    def to_dict(self) -> dict:
        return {
            "operation": self.operation,
            "target": self.target,
            "trigger_id": self.trigger_id,
            "layer": self.layer,
            "slot": self.slot,
            "owned": self.owned,
        }


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

    def owner(self, page_id: int) -> int:
        return page_id % self.world_size

    def owns(self, page_id: int) -> bool:
        return self.owner(page_id) == self.rank


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


_MODEL_FIELDS = {"num_layers": (int,), "page_bytes": (int,), "layer_param_bytes": (list,),
                 "layer_optim_bytes": (list,), "batch_size": (int,), "tensors": (list,)}
_TENSOR_FIELDS = {"tensor_id": (int,), "name": (str,), "kind": (str,), "bytes": (int,),
                  "layer_index": (int,)}


@dataclass(frozen=True)
class Schedule:
    tasks: tuple[Task, ...]
    phase: str  # "phase1" | "phase2"
    gpu_budget: int
    model: LayerModel = field(compare=False)
    sharding: ShardingModel = ShardingModel()

    @property
    def num_slots(self) -> int:
        return 2 * self.model.num_layers

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "gpu_budget": self.gpu_budget,
            "world_size": self.sharding.world_size,
            "rank": self.sharding.rank,
            "model": self.model.to_dict(),
            "tasks": [t.to_dict() for t in self.tasks],
        }

    @classmethod
    def from_dict(cls, raw) -> "Schedule":
        """A schedule file as ``hiermem schedule`` writes it; ConfigError names
        the field of a malformed value or the first fault of "Runnable
        schedules" in the module docstring."""
        raw = check_fields("schedule", raw, _SCHEDULE_FIELDS,
                           required=("phase", "gpu_budget", "model", "tasks"))
        if raw["phase"] not in ("phase1", "phase2"):
            raise ConfigError(f"schedule 'phase' {raw['phase']!r} is not 'phase1' or 'phase2'")
        check_range("schedule 'gpu_budget'", raw["gpu_budget"], 0, finite=False)
        model = LayerModel.from_dict(raw["model"])
        sharding = ShardingModel(raw.get("world_size", 1), raw.get("rank", 0))
        tasks = tuple(_task_from_dict(k, t, model) for k, t in enumerate(raw["tasks"]))
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


def _faults(tasks, model: LayerModel, sharding: ShardingModel):
    """(task index, field, message) of each fault that makes a task
    unrunnable, in task order: the rules of "Runnable schedules" in the
    module docstring. Slots left without a compute after the last one come
    last, as index len(tasks) and field "tasks"."""
    n = model.num_layers
    by_page: dict[tuple[str, int], list[int]] = {}  # (operation, page) -> triggers, sorted
    for t in tasks:
        if t.operation != "compute":
            by_page.setdefault((t.operation, t.target), []).append(t.trigger_id)
    for triggers in by_page.values():
        triggers.sort()

    def latest(operation: str, pid: int, trigger: int) -> int:
        return _last_at_or_before(by_page.get((operation, pid), ()), trigger, -1)

    due = 0  # one past the highest compute trigger so far
    last = None  # the index of that compute
    for k, t in enumerate(tasks):
        at = t.trigger_id
        owned = t.operation != "compute" and sharding.owns(t.target)
        if t.owned != owned:
            yield k, "owned", (f"'owned' must be {str(owned).lower()} for {t.operation} of "
                               f"{t.target} on rank {sharding.rank} of {sharding.world_size}")
        if t.operation != "compute":
            layer = model.layer_of(t.target)
            slots = (layer, backward_id(layer, n))
            if t.layer != layer:
                yield k, "layer", (f"{t.operation} of page {t.target} names layer {t.layer}, "
                                   f"but the page is in layer {layer}")
            elif t.operation == "all_gather" and (t.slot not in slots or t.slot < at):
                yield k, "slot", (f"all_gather of page {t.target} (layer {layer}) at trigger "
                                  f"{at} must serve slot {slots[0]} or {slots[1]} at or after "
                                  f"its trigger, not slot {t.slot}")
            if t.operation == "all_gather" and owned and latest("move_to_gpu", t.target, at) < 0:
                yield k, "trigger_id", (f"all_gather of owned page {t.target} at trigger {at} "
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
        layer = t.slot if t.slot < n else backward_id(t.slot, n)
        if t.slot != at:
            yield k, "slot", f"compute at trigger {at} must serve slot {at}, not slot {t.slot}"
        for name in ("target", "layer"):
            if getattr(t, name) != layer:
                yield k, name, (f"compute of slot {t.slot} must name its layer {layer}, "
                                f"not {getattr(t, name)}")
        for pid in model.layer_pages[layer]:
            evicted = latest("evict_to_cpu", pid, at)
            since = (f"between the page's eviction at trigger {evicted} and it" if evicted >= 0
                     else "at or before it")
            needed = ("all_gather", "move_to_gpu") if sharding.owns(pid) else ("all_gather",)
            for operation in needed:
                if latest(operation, pid, at) < max(evicted, 0):
                    yield k, "trigger_id", (f"compute of layer {layer} at trigger {at} has no "
                                            f"{operation} of page {pid} {since}")
    if due < 2 * n:
        yield len(tasks), "tasks", f"slot {due} has no compute"


def _task_from_dict(k: int, raw, model: LayerModel) -> Task:
    """Task ``k`` of a schedule file; ConfigError names the task and field
    of a value of the wrong type or out of range."""
    task = Task(**check_fields(f"task {k}", raw, _TASK_FIELDS,
                               required=_TASK_FIELDS.keys() - {"owned"}))
    if task.operation not in OPERATIONS:
        raise ConfigError(f"task {k} 'operation': unknown operation {task.operation!r}")
    n = model.num_layers
    # trigger 2n is the end of the last compute, where its layer's evictions start
    for name, high in (("trigger_id", 2 * n + 1), ("slot", 2 * n), ("layer", n)):
        if not 0 <= getattr(task, name) < high:
            raise ConfigError(f"task {k} {name!r} must be in [0, {high}), "
                              f"not {getattr(task, name)}")
    if task.operation == "compute" and not 0 <= task.target < n:
        raise ConfigError(f"task {k} 'target': compute target {task.target} is not a layer")
    if task.operation != "compute" and not 0 <= task.target < model.num_pages:
        raise ConfigError(f"task {k} 'target': page {task.target} is not a parameter page")
    return task


# -- residency ---------------------------------------------------------------

_RESIDENT_KINDS = ("activation16", "grad16")


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


def _last_at_or_before(triggers: list[int], t: int, default: int) -> int:
    """The largest of the sorted ``triggers`` that is <= t, else ``default``."""
    k = bisect_right(triggers, t)
    return triggers[k - 1] if k else default


def _traced_lifetimes(model: LayerModel, traces: list[TensorTrace]):
    """(spec, start, end) of each traced tensor that is resident, over the
    slots [start, end) it is live in, clamped to the 2n-slot horizon."""
    horizon = 2 * model.num_layers
    for tr in traces:
        spec = model.tensor_info.get(tr.tensor_id)
        if spec is not None and spec.kind in _RESIDENT_KINDS:
            yield spec, min(tr.first_id, horizon), min(tr.end_id + 1, horizon)


def _residency(tasks, model: LayerModel, sharding: ShardingModel,
               traces: list[TensorTrace]):
    """One sweep over a task list: (resident GPU bytes per compute slot,
    page -> acquire triggers, page -> eviction triggers), triggers sorted."""
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
    """Resident GPU bytes per compute slot, in one sweep over a task list."""
    return _residency(tasks, model, sharding, traces)[0]


def available_memory(schedule: Schedule, traces: list[TensorTrace], at_id: int) -> int:
    """GPU budget minus bytes resident at a logical compute slot."""
    if not (0 <= at_id < schedule.num_slots):
        raise ConfigError(f"at_id {at_id} outside [0, {schedule.num_slots})")
    profile = _resident_profile(schedule.tasks, schedule.model, schedule.sharding, traces)
    return schedule.gpu_budget - profile[at_id]


def peak_memory(schedule: Schedule, traces: list[TensorTrace]) -> int:
    """Max resident bytes over all logical slots; 0 for an empty schedule."""
    if not schedule.tasks:
        return 0
    profile = _resident_profile(schedule.tasks, schedule.model, schedule.sharding, traces)
    return max(profile)


# -- phase 1 -----------------------------------------------------------------

def _build_phase1(model: LayerModel, traces: list[TensorTrace], gpu_budget: int,
                  sharding: ShardingModel) -> list[Task]:
    n = model.num_layers
    page_bytes = model.page_bytes
    layer_of = model.layer_of
    own_pages = [[p for p in pages if sharding.owns(p)] for pages in model.layer_pages]
    own = [p for pages in own_pages for p in pages]  # in (layer, page) order
    ends = list(accumulate(map(len, own_pages)))  # one past each layer's last page in own

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

    tasks: list[Task | None] = []  # None: a move a deferral withdrew
    move_at = [0] * len(own)  # index into tasks of own[k]'s live move
    paged = 0  # bytes of the pages resident at the forward slot being planned

    def move(k: int, trigger: int) -> None:
        nonlocal paged
        layer = layer_of(own[k])
        move_at[k] = len(tasks)
        tasks.append(Task("move_to_gpu", own[k], trigger, layer, layer, True))
        paged += page_bytes

    for k in range(len(own)):
        move(k, 0)
    moved = len(own)  # own[:moved] are moved; the rest are deferred
    evicted = 0  # layers 0..evicted-1 were evicted in the forward sweep, oldest first

    for i in range(n):
        # this layer's deferred pages must move now (the gather needs them), highest first
        for k in reversed(range(moved, ends[i])):
            move(k, i)
        moved = max(moved, ends[i])

        # layer i's own bytes at slot i: all its owned pages moved, none gathered yet
        mine = len(own_pages[i]) * page_bytes + own_traced[i][0]
        while gpu_budget - (traced[i] + paged - mine) < sizes[i]:
            if moved > ends[i]:  # withdraw the highest page's move: its layer is after i
                moved -= 1
                tasks[move_at[moved]] = None
                paged -= page_bytes
                continue
            victim = evicted
            if victim >= i:
                raise InfeasibleScheduleError(
                    i, sizes[i], gpu_budget - (traced[i] + paged - mine))
            for pid in model.layer_pages[victim]:
                tasks.append(Task("evict_to_cpu", pid, i, victim, i, sharding.owns(pid)))
            paged -= len(model.layer_pages[victim]) * page_bytes
            evicted += 1

        for pid in model.layer_pages[i]:
            tasks.append(Task("all_gather", pid, i, i, i, sharding.owns(pid)))
        paged += (len(model.layer_pages[i]) - len(own_pages[i])) * page_bytes
        tasks.append(Task("compute", i, i, i, i))

        # deferred pages move back, lowest first, while a page's headroom remains
        while moved < len(own) and gpu_budget - (traced[i] + paged) > page_bytes:
            move(moved, i)
            moved += 1

    assert moved == len(own), "every deferred page must move by the end of the forward sweep"

    # the backward sweep makes no query: its residency is checked on the whole list
    for slot in range(n, 2 * n):
        i = backward_id(slot, n)
        if i < evicted:
            for pid in own_pages[i]:
                tasks.append(Task("move_to_gpu", pid, slot, i, slot, True))
            for pid in model.layer_pages[i]:
                tasks.append(Task("all_gather", pid, slot, i, slot, sharding.owns(pid)))
        tasks.append(Task("compute", i, slot, i, slot))
        for pid in own_pages[i]:
            tasks.append(Task("evict_to_cpu", pid, slot + 1, i, slot, True))

    return [t for t in tasks if t is not None]


# -- phase 2 -----------------------------------------------------------------

def _advance_gathers(phase1: Schedule, profile: list[int], acquires: dict[int, list[int]],
                     evicts: dict[int, list[int]]) -> Schedule:
    """Phase 2 on the sweep of phase 1's tasks (see ``_residency``);
    ``profile`` gains the bytes of each gather moved earlier, in place."""
    page_bytes = phase1.model.page_bytes
    budget = phase1.gpu_budget
    tasks = []
    for task in phase1.tasks:
        if task.operation == "all_gather":
            old = task.trigger_id
            # a re-gather may not precede the eviction it recovers from
            lb = _last_at_or_before(evicts.get(task.target, ()), old, 0)
            if task.owned:
                # owned-page gathers reuse the resident shard: no memory cost
                new = max(lb, _last_at_or_before(acquires.get(task.target, ()), old, old))
            else:
                new = old
                while new > lb and profile[new - 1] + page_bytes <= budget:
                    new -= 1
                for x in range(new, old):
                    profile[x] += page_bytes
            if new != old:
                task = Task("all_gather", task.target, new, task.layer, task.slot,
                            task.owned)
        tasks.append(task)
    tasks.sort(key=lambda t: t.trigger_id)  # stable: schedule order within a trigger
    return Schedule(tuple(tasks), "phase2", budget, phase1.model, phase1.sharding)


def advance_gathers(schedule: Schedule, traces: list[TensorTrace]) -> Schedule:
    """Re-trigger each all_gather at its earliest in-budget point.

    Tasks are scanned in schedule order. An owned page's gather may never
    precede that page's move; a non-owned gather stops at the first slot
    whose residency would overflow the budget, and none precedes its page's
    last eviction at or before its trigger. Only gather triggers change,
    and none increases. ``schedule()`` runs the same pass on the sweep it
    checks phase 1's peak with.
    """
    return _advance_gathers(schedule, *_residency(schedule.tasks, schedule.model,
                                                  schedule.sharding, traces))


def schedule(model_layers: LayerModel, traces: list[TensorTrace], gpu_budget: int,
             sharding: ShardingModel | None = None, phase1_only: bool = False) -> Schedule:
    """Emit the page-level task schedule for one rank under a GPU budget."""
    check_range("gpu budget", gpu_budget, 0, finite=False)
    sharding = sharding or ShardingModel()
    tasks = _build_phase1(model_layers, traces, gpu_budget, sharding)
    phase1 = Schedule(tuple(tasks), "phase1", gpu_budget, model_layers, sharding)
    profile, acquires, evicts = _residency(phase1.tasks, model_layers, sharding, traces)
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
    peak = peak_memory(schedule, traces)
    violations = [f"peak memory {peak} exceeds budget {budget}"] if peak > budget else []
    return violations + [message for _, _, message in
                         _faults(schedule.tasks, schedule.model, schedule.sharding)]

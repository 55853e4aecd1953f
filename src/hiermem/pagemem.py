"""Page-granular memory manager over GPU/CPU/SSD tier pools.

Every tier is a pool of fixed-size pages with consecutive ids; tensors occupy
whole pages except for their final (tail) chunk, and a page holds at most two
occupants: tails of two large tensors, or a large tail plus one small
tensor. Small tensors (< page size) otherwise live alone on their own page
and their pages are never offered for sharing. Moves are metadata-only
(free at source, claim at destination); transfer timing belongs to the
simulation engine.

Invariant: a page is in use iff it has occupants. Each pool keeps a
page-state index derived from its pages' occupants: one flag per page for
"no occupants", one for "sole occupant is a shareable tail", and the count
of free pages. ``TierPool.set_occupants`` (and ``claim``, which calls it) is
the one writer of a page's occupants; it keeps the index and the pool's peak
page count in step, so first-fit, claim and merge scan bytes, not pages.

A pool costs what it has held, not what it could hold. The index covers
pages up to a high-water mark, the highest page ever given occupants; every
page past the mark has never been claimed and is free. A ``Page`` record is
made the first time its page is claimed. Building a pool is O(1) whatever
its capacity, and its index and records grow with the highest page claimed.
Page ids and first-fit order are those of a pool whose every page exists.

A pool is a single-owner state machine: callers serialize mutations;
snapshots (``state_dict``) may be shared freely.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import AllocationError, ConfigError, MoveError, check_fields
from .footprint import TensorSpec

PAGE_BYTES_DEFAULT = 4 * 2**20
MIN_PAGE_BYTES = 64 * 2**10

NOT_READY = "NOT_READY"


def check_page_bytes(page_bytes: int) -> None:
    """Raise ConfigError unless ``page_bytes`` is an int power of two >= MIN_PAGE_BYTES."""
    if not isinstance(page_bytes, int) or page_bytes < MIN_PAGE_BYTES or \
            page_bytes & (page_bytes - 1):
        raise ConfigError(
            f"page_bytes must be a power of two >= {MIN_PAGE_BYTES}, got {page_bytes}"
        )


class Tier(Enum):
    GPU = 0
    CPU = 1
    SSD = 2

    @classmethod
    def parse(cls, value: "Tier | str | int") -> "Tier":
        """A Tier, a tier name in any case, or a tier number that is not a bool."""
        if isinstance(value, Tier):
            return value
        if isinstance(value, str) and value.upper() in cls.__members__:
            return cls[value.upper()]
        if type(value) is int and 0 <= value < len(cls):
            return cls(value)
        raise ConfigError(f"unknown tier {value!r}")


@dataclass
class Occupant:
    tensor_id: int
    bytes: int
    # True for the tail chunk of a tensor >= one page; such a page may be
    # shared with exactly one other tensor's tail.
    shareable: bool


@dataclass
class Page:
    page_id: int
    tier: Tier
    total_bytes: int
    occupants: list[Occupant] = field(default_factory=list)

    @property
    def available_bytes(self) -> int:
        return self.total_bytes - sum(o.bytes for o in self.occupants)

    @property
    def occupied_bytes(self) -> int:
        return sum(o.bytes for o in self.occupants)


@dataclass
class ManagedTensor:
    tensor_id: int
    dtype: str  # "fp16" | "fp32"
    shape: tuple[int, ...]
    page_list: list[int]
    spec: TensorSpec
    _manager: "PageManager" = field(repr=False, compare=False, default=None)

    @property
    def bytes(self) -> int:
        return self.spec.bytes

    @property
    def tier(self):
        """Tier holding every page, or NOT_READY while pages span tiers."""
        tiers = {self._manager.page(pid).tier for pid in self.page_list}
        if len(tiers) == 1:
            return tiers.pop()
        return NOT_READY


@dataclass
class PoolStats:
    allocations: int = 0
    releases: int = 0
    moves_in: int = 0
    moves_out: int = 0
    peak_allocated_pages: int = 0


@dataclass(frozen=True)
class TransferDescriptor:
    bytes: int
    src_tier: Tier
    dst_tier: Tier
    page_id: int
    new_page_id: int


class TierPool:
    """Pool of ``num_pages`` fixed-size pages for one memory tier, ids from
    ``first_page_id``. The page-state index and the page records reach only
    as far as the high-water mark (see the module docstring)."""

    def __init__(self, tier: Tier, capacity_bytes: int, page_bytes: int, first_page_id: int = 0):
        check_page_bytes(page_bytes)
        if capacity_bytes <= 0 or capacity_bytes % page_bytes:
            raise ConfigError(
                f"capacity_bytes ({capacity_bytes}) must be a positive multiple of "
                f"page_bytes ({page_bytes})"
            )
        self.tier = Tier.parse(tier)
        self.capacity_bytes = capacity_bytes
        self.page_bytes = page_bytes
        self.first_page_id = first_page_id
        self.num_pages = capacity_bytes // page_bytes
        self._pages: dict[int, Page] = {}  # every page ever claimed, by id
        # the page-state index, by page_id - first_page_id, for the pages
        # below the high-water mark len(_free) (see the module docstring)
        self._free = bytearray()  # 1: no occupants
        self._tail = bytearray()  # 1: the only occupant is a shareable tail
        self._free_count = self.num_pages
        self.stats = PoolStats()
        self.manager: PageManager | None = None  # set by the owning PageManager

    @property
    def free_page_count(self) -> int:
        return self._free_count

    @property
    def allocated_page_count(self) -> int:
        return self.num_pages - self._free_count

    def page(self, page_id: int) -> Page:
        """The record of one of this pool's pages: a fresh free Page if it
        was never claimed. KeyError for an id outside the pool."""
        page = self._pages.get(page_id)
        if page is None:
            if not 0 <= page_id - self.first_page_id < self.num_pages:
                raise KeyError(f"unknown page id {page_id}")
            page = Page(page_id, self.tier, self.page_bytes)
        return page

    def set_occupants(self, page: Page, occupants: list[Occupant]) -> None:
        """Give one of this pool's pages its new occupants, keeping the
        page record, the page-state index and the peak page count in step."""
        i = page.page_id - self.first_page_id
        grow = i + 1 - len(self._free)
        if grow > 0:  # past the high-water mark, where every page is free
            self._free += b"\x01" * grow
            self._tail += bytes(grow)
        self._pages[page.page_id] = page
        free = not occupants
        self._free_count += free - self._free[i]
        self._free[i] = free
        self._tail[i] = len(occupants) == 1 and occupants[0].shareable
        page.occupants = occupants
        if not free:
            self.stats.peak_allocated_pages = max(
                self.stats.peak_allocated_pages, self.allocated_page_count
            )

    def claim(self, occupants: list[Occupant]) -> Page:
        """Place ``occupants`` on the lowest free page."""
        i = self._free.find(1)
        if i < 0:  # none free below the mark: take the page at it
            i = len(self._free)
            if i == self.num_pages:
                raise AllocationError(
                    f"{self.tier.name} pool out of pages", self.page_bytes, 0
                )
        page = self.page(self.first_page_id + i)
        self.set_occupants(page, occupants)
        return page

    def shared_tail_fit(self, nbytes: int) -> Page | None:
        """The lowest page whose sole occupant is a shareable tail with
        ``nbytes`` to spare, or None."""
        i = self._tail.find(1)
        while i >= 0:
            page = self._pages[self.first_page_id + i]
            if page.available_bytes >= nbytes:
                return page
            i = self._tail.find(1, i + 1)
        return None

    def lowest_run(self, n: int, also: list[int]) -> int | None:
        """First page id of the lowest run of ``n`` pages that are each free
        or in ``also``, or None."""
        usable = self._free + b"\x01" * min(n, self.num_pages - len(self._free))
        for pid in also:
            usable[pid - self.first_page_id] = 1
        i = usable.find(b"\x01" * n)
        return None if i < 0 else self.first_page_id + i

    def allocated_pages(self) -> list[Page]:
        """Pages in use, in page id order."""
        pages, i = [], self._free.find(0)
        while i >= 0:
            pages.append(self._pages[self.first_page_id + i])
            i = self._free.find(0, i + 1)
        return pages


def pool_init(tier, capacity_bytes: int, page_bytes: int = PAGE_BYTES_DEFAULT) -> TierPool:
    """Create a standalone tier pool (owned by a one-pool PageManager) with
    all pages free and deterministic page ids."""
    return PageManager([(tier, capacity_bytes, page_bytes)]).pool(tier)


def fragmentation(pool: TierPool) -> float:
    """1 - occupied/allocated-page bytes; 0.0 for an empty pool."""
    allocated = pool.allocated_pages()
    if not allocated:
        return 0.0
    total = len(allocated) * pool.page_bytes
    occupied = sum(p.occupied_bytes for p in allocated)
    return 1.0 - occupied / total


def _dtype_for(kind: str) -> str:
    return "fp32" if kind == "optim32" else "fp16"


class PageManager:
    """Owns one pool per tier plus the tensor registry spanning them."""

    def __init__(self, pool_specs):
        """pool_specs: iterable of (tier, capacity_bytes) or (tier, capacity_bytes, page_bytes)."""
        self.pools: dict[Tier, TierPool] = {}
        next_id = 0
        for entry in pool_specs:
            tier = Tier.parse(entry[0])
            capacity = entry[1]
            page_bytes = entry[2] if len(entry) > 2 else PAGE_BYTES_DEFAULT
            if tier in self.pools:
                raise ConfigError(f"duplicate pool for tier {tier.name}")
            pool = TierPool(tier, capacity, page_bytes, first_page_id=next_id)
            pool.manager = self
            next_id += pool.num_pages
            self.pools[tier] = pool
        self.tensors: dict[int, ManagedTensor] = {}
        self._next_tensor_id = 0

    def pool(self, tier) -> TierPool:
        tier = Tier.parse(tier)
        if tier not in self.pools:
            raise ConfigError(f"no pool configured for tier {tier.name}")
        return self.pools[tier]

    def page(self, page_id: int) -> Page:
        for pool in self.pools.values():
            if 0 <= page_id - pool.first_page_id < pool.num_pages:
                return pool.page(page_id)
        raise KeyError(f"unknown page id {page_id}")

    # -- allocation ---------------------------------------------------------

    def allocate(self, spec: TensorSpec, tier) -> ManagedTensor:
        pool = self.pool(tier)
        if pool.tier is Tier.SSD and spec.kind != "optim32":
            raise AllocationError(
                f"tier policy: SSD holds only fp32 optimizer tensors, not {spec.kind}",
                spec.bytes, pool.free_page_count * pool.page_bytes,
            )
        page_bytes = pool.page_bytes
        full, tail = divmod(spec.bytes, page_bytes)

        shared = pool.shared_tail_fit(tail) if tail else None
        fresh_needed = full + (1 if tail and shared is None else 0)
        if pool.free_page_count < fresh_needed:
            raise AllocationError(
                f"{pool.tier.name} pool cannot fit {spec.bytes} bytes "
                f"({fresh_needed} fresh pages needed, {pool.free_page_count} free)",
                spec.bytes, pool.free_page_count * page_bytes,
            )

        tensor_id = self._next_tensor_id
        self._next_tensor_id += 1
        page_list: list[int] = []
        for _ in range(full):
            page = pool.claim([Occupant(tensor_id, page_bytes, shareable=False)])
            page_list.append(page.page_id)
        if tail:
            chunk = Occupant(tensor_id, tail, shareable=full > 0)
            if shared is not None:
                pool.set_occupants(shared, shared.occupants + [chunk])
                page_list.append(shared.page_id)
            else:
                page_list.append(pool.claim([chunk]).page_id)

        itemsize = 4 if spec.kind == "optim32" else 2
        shape = (spec.bytes // itemsize,)
        tensor = ManagedTensor(tensor_id, _dtype_for(spec.kind), shape, page_list, spec, self)
        self.tensors[tensor_id] = tensor
        pool.stats.allocations += 1
        return tensor

    def release(self, tensor_id: int) -> int:
        if tensor_id not in self.tensors:
            raise KeyError(f"unknown or already released tensor {tensor_id}")
        tensor = self.tensors.pop(tensor_id)
        freed = 0
        pools: dict[Tier, TierPool] = {}  # each pool the tensor had pages in
        for pid in tensor.page_list:
            page = self.page(pid)
            pool = pools[page.tier] = self.pools[page.tier]
            keep = [o for o in page.occupants if o.tensor_id != tensor_id]
            freed += sum(o.bytes for o in page.occupants) - sum(o.bytes for o in keep)
            pool.set_occupants(page, keep)
        for pool in pools.values():
            pool.stats.releases += 1
        return freed

    # -- movement -----------------------------------------------------------

    def page_move(self, page_id: int, target_tier) -> TransferDescriptor:
        page = self.page(page_id)
        src_pool = self.pools[page.tier]
        if not page.occupants:
            raise KeyError(f"page {page_id} is free; nothing to move")
        dst_pool = self.pool(target_tier)
        if dst_pool.tier is src_pool.tier:
            raise MoveError(f"page {page_id} already resides on {src_pool.tier.name}")
        if dst_pool.tier is Tier.SSD:
            for occ in page.occupants:
                if self.tensors[occ.tensor_id].dtype != "fp32":
                    raise MoveError(
                        "tier policy: SSD holds only fp32 optimizer tensors "
                        f"(tensor {occ.tensor_id} is fp16)"
                    )
        if dst_pool.free_page_count == 0:
            raise MoveError(f"destination {dst_pool.tier.name} pool is full")
        if dst_pool.page_bytes != src_pool.page_bytes:
            raise MoveError("pools use different page sizes; cannot carry the page over")

        new_page = dst_pool.claim(page.occupants)
        src_pool.set_occupants(page, [])
        src_pool.stats.moves_out += 1
        dst_pool.stats.moves_in += 1
        for occ in new_page.occupants:
            plist = self.tensors[occ.tensor_id].page_list
            plist[plist.index(page_id)] = new_page.page_id
        return TransferDescriptor(
            page.total_bytes, src_pool.tier, dst_pool.tier, page_id, new_page.page_id
        )

    # -- defragmentation ----------------------------------------------------

    def tensor_merge(self, tensor_id: int) -> dict:
        """Reassign a tensor's pages to a consecutive page-id run in its tier."""
        if tensor_id not in self.tensors:
            raise KeyError(f"unknown tensor {tensor_id}")
        tensor = self.tensors[tensor_id]
        tier = tensor.tier
        if tier == NOT_READY:
            raise MoveError(f"tensor {tensor_id} is not ready (pages span tiers or mid-move)")
        pool = self.pool(tier)
        ids = tensor.page_list
        if ids == list(range(ids[0], ids[0] + len(ids))):
            return {"tensor_id": tensor_id, "contiguous": True,
                    "page_ids": list(ids), "moved_chunks": 0}

        pages = [pool.page(pid) for pid in ids]
        chunks = [next(o for o in page.occupants if o.tensor_id == tensor_id) for page in pages]
        # the lowest run of n pages that are free or held by this tensor alone
        n = len(ids)
        start = pool.lowest_run(n, [p.page_id for p in pages if len(p.occupants) == 1])
        if start is None:
            raise AllocationError(
                f"no contiguous run of {n} pages available in {pool.tier.name} for merge",
                tensor.bytes, pool.free_page_count * pool.page_bytes,
            )

        run = list(range(start, start + n))
        # chunks not already on their target page; detach them all, which
        # frees every target page they go to, then place them
        moves = [(page, pool.page(target), chunk)
                 for page, target, chunk in zip(pages, run, chunks) if page.page_id != target]
        for page, _, chunk in moves:
            pool.set_occupants(page, [o for o in page.occupants if o is not chunk])
        for _, target, chunk in moves:
            pool.set_occupants(target, target.occupants + [chunk])
        tensor.page_list = run
        return {"tensor_id": tensor_id, "contiguous": True,
                "page_ids": run, "moved_chunks": len(moves)}

    # -- introspection ------------------------------------------------------

    def state_dict(self) -> dict:
        pools = {}
        for tier, pool in self.pools.items():
            pools[tier.name] = {
                "capacity_bytes": pool.capacity_bytes,
                "page_bytes": pool.page_bytes,
                "free_pages": pool.free_page_count,
                "allocated_pages": pool.allocated_page_count,
                "fragmentation": fragmentation(pool),
                "stats": vars(pool.stats),
            }
        pages = []
        for pool in self.pools.values():
            for page in pool.allocated_pages():
                pages.append({
                    "page_id": page.page_id,
                    "tier": page.tier.name,
                    "total_bytes": page.total_bytes,
                    "available_bytes": page.available_bytes,
                    "occupants": [
                        {"tensor_id": o.tensor_id, "bytes": o.bytes} for o in page.occupants
                    ],
                })
        tensors = []
        for tid in sorted(self.tensors):
            t = self.tensors[tid]
            tier = t.tier
            tensors.append({
                "tensor_id": tid,
                "name": t.spec.name,
                "dtype": t.dtype,
                "bytes": t.bytes,
                "tier": tier.name if isinstance(tier, Tier) else tier,
                "page_list": list(t.page_list),
            })
        return {"pools": pools, "pages": pages, "tensors": tensors}


# -- op scripts -----------------------------------------------------------------

# The fields of a pool spec entry and of each kind of op in an op script, with
# their types; the optional ones are those with defaults.
_POOL_FIELDS = {"tier": (str,), "capacity_bytes": (int,), "page_bytes": (int,)}
_OP_FIELDS = {
    "allocate": {"name": (str,), "bytes": (int,), "tier": (str,),
                 "kind": (str,), "layer_index": (int,)},
    "release": {"name": (str,)},
    "move": {"page_id": (int,), "target": (str,)},
    "merge": {"name": (str,)},
}
_OPTIONAL = {"page_bytes", "kind", "layer_index"}


def _op_kind(i: int, op) -> str:
    """The kind of op ``i`` of a script, once its keys and value types are
    those the kind takes."""
    kind = op.get("op") if isinstance(op, dict) else None
    if not isinstance(kind, str) or kind not in _OP_FIELDS:
        raise ConfigError(f"op {i}: not an object whose 'op' is one of {list(_OP_FIELDS)}")
    fields = _OP_FIELDS[kind]
    check_fields(f"op {i} ({kind})", {k: v for k, v in op.items() if k != "op"}, fields,
                 required=fields.keys() - _OPTIONAL)
    return kind


def replay(pools: list, ops: list) -> tuple[list[dict], dict]:
    """Replay an op script on a PageManager with one pool per pool spec
    entry: (one log entry per op, the final ``state_dict()``). An allocate
    names a tensor, which release and merge then refer to; the name is
    live until its release. ConfigError names the first bad entry or op."""
    for k, p in enumerate(pools):
        check_fields(f"pool spec entry {k}", p, _POOL_FIELDS,
                     required=_POOL_FIELDS.keys() - _OPTIONAL)
    manager = PageManager([(p["tier"], p["capacity_bytes"], p.get("page_bytes", PAGE_BYTES_DEFAULT))
                           for p in pools])
    live: dict[str, int] = {}  # tensor ids by name
    log = []
    for i, op in enumerate(ops):
        kind = _op_kind(i, op)
        name = op.get("name")
        if kind == "allocate" and name in live:
            raise ConfigError(f"op {i}: tensor {name!r} is still live")
        if kind in ("release", "merge") and name not in live:
            raise ConfigError(f"op {i}: no live tensor named {name!r}")
        try:
            if kind == "allocate":
                spec = TensorSpec(name, op.get("kind", "param16"), op["bytes"],
                                  op.get("layer_index", 0))
                tensor = manager.allocate(spec, op["tier"])
                live[name] = tensor.tensor_id
                log.append({"op": "allocate", "name": name,
                            "tensor_id": tensor.tensor_id, "pages": list(tensor.page_list)})
            elif kind == "release":
                log.append({"op": "release", "name": name,
                            "freed_bytes": manager.release(live.pop(name))})
            elif kind == "move":
                try:
                    desc = manager.page_move(op["page_id"], op["target"])
                except KeyError as exc:  # no such page, or a free one
                    raise ConfigError(exc.args[0]) from None
                log.append({"op": "move", "page_id": op["page_id"],
                            "bytes": desc.bytes, "src": desc.src_tier.name,
                            "dst": desc.dst_tier.name, "new_page_id": desc.new_page_id})
            else:
                log.append(manager.tensor_merge(live[name]))
        except (AllocationError, MoveError, ConfigError) as exc:
            raise ConfigError(f"op {i}: {exc}") from None
    return log, manager.state_dict()


def tensor_allocate(pool: TierPool, spec: TensorSpec) -> ManagedTensor:
    """Allocate a tensor into a pool under the packing policy."""
    return pool.manager.allocate(spec, pool.tier)


def tensor_release(pool: TierPool, tensor_id: int) -> int:
    """Release a tensor from a pool; returns freed occupant bytes."""
    return pool.manager.release(tensor_id)

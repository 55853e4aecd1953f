"""Page-granular memory manager over pre-allocated GPU/CPU/SSD tier pools.

Every tier is carved into fixed-size pages up front; tensors occupy whole
pages except for their final (tail) chunk, and a page holds at most two
occupants: tails of two large tensors, or a large tail plus one small
tensor. Small tensors (< page size) otherwise live alone on their own page
and their pages are never offered for sharing. Moves are metadata-only
(free at source, claim at destination); transfer timing belongs to the
simulation engine.

Invariant: a page is in use iff it has occupants. A pool's free heap holds
exactly the ids of its pages without occupants, and only ``TierPool``
methods (``claim``, ``claim_run``, ``free``) change it; each claim also
updates the pool's peak page count.

A pool is a single-owner state machine: callers serialize mutations;
snapshots (``state_dict``) may be shared freely.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum

from .errors import AllocationError, ConfigError, MoveError
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
        if isinstance(value, Tier):
            return value
        if isinstance(value, str):
            try:
                return cls[value.upper()]
            except KeyError:
                raise ConfigError(f"unknown tier {value!r}") from None
        return cls(value)


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
    """Pre-allocated pool of fixed-size pages for one memory tier."""

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
        n = capacity_bytes // page_bytes
        self.pages: dict[int, Page] = {
            first_page_id + i: Page(first_page_id + i, self.tier, page_bytes) for i in range(n)
        }
        self._free: list[int] = sorted(self.pages)
        heapq.heapify(self._free)
        self.stats = PoolStats()
        self.manager: PageManager | None = None  # set by the owning PageManager

    @property
    def num_pages(self) -> int:
        return len(self.pages)

    @property
    def free_page_count(self) -> int:
        return len(self._free)

    @property
    def allocated_page_count(self) -> int:
        return self.num_pages - self.free_page_count

    def claim(self) -> Page:
        if not self._free:
            raise AllocationError(
                f"{self.tier.name} pool out of pages", self.page_bytes, 0
            )
        page = self.pages[heapq.heappop(self._free)]
        self._note_peak()
        return page

    def claim_run(self, pages: list[Page]) -> None:
        """Take the given free pages off the free heap in one pass over it."""
        taken = {page.page_id for page in pages}
        self._free = [pid for pid in self._free if pid not in taken]
        heapq.heapify(self._free)
        self._note_peak()

    def _note_peak(self) -> None:
        self.stats.peak_allocated_pages = max(
            self.stats.peak_allocated_pages, self.allocated_page_count
        )

    def free(self, page: Page) -> None:
        assert not page.occupants, "freeing a page with occupants"
        heapq.heappush(self._free, page.page_id)

    def allocated_pages(self) -> list[Page]:
        """Pages in use, in page id order."""
        return [page for page in self.pages.values() if page.occupants]


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
            if page_id in pool.pages:
                return pool.pages[page_id]
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

        shared: Page | None = None
        if tail:
            for page in pool.pages.values():  # first-fit in page id order
                if (len(page.occupants) == 1 and page.occupants[0].shareable
                        and page.available_bytes >= tail):
                    shared = page
                    break
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
            page = pool.claim()
            page.occupants.append(Occupant(tensor_id, page_bytes, shareable=False))
            page_list.append(page.page_id)
        if tail:
            is_large_tail = full > 0
            if shared is not None:
                shared.occupants.append(Occupant(tensor_id, tail, shareable=is_large_tail))
                page_list.append(shared.page_id)
            else:
                page = pool.claim()
                page.occupants.append(Occupant(tensor_id, tail, shareable=is_large_tail))
                page_list.append(page.page_id)

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
            page.occupants = keep
            if not keep:
                pool.free(page)
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

        new_page = dst_pool.claim()
        new_page.occupants = page.occupants
        page.occupants = []
        src_pool.free(page)
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

        chunks = [next(o for o in pool.pages[pid].occupants if o.tensor_id == tensor_id)
                  for pid in ids]
        # the lowest run of n pages that are free or held only by this tensor
        n = len(ids)
        run_len = 0
        for last in pool.pages.values():
            run_len = run_len + 1 if all(o.tensor_id == tensor_id for o in last.occupants) else 0
            if run_len == n:
                break
        else:
            raise AllocationError(
                f"no contiguous run of {n} pages available in {pool.tier.name} for merge",
                tensor.bytes, pool.free_page_count * pool.page_bytes,
            )

        run = list(range(last.page_id - n + 1, last.page_id + 1))
        # chunks not already on their target page; detach them all, which
        # frees every target page they go to, then claim those and place
        moves = [(pool.pages[pid], pool.pages[target], chunk)
                 for pid, target, chunk in zip(ids, run, chunks) if pid != target]
        for page, _, chunk in moves:
            page.occupants = [o for o in page.occupants if o is not chunk]
            if not page.occupants:
                pool.free(page)
        pool.claim_run([target for _, target, _ in moves])
        for _, target, chunk in moves:
            target.occupants.append(chunk)
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


def tensor_allocate(pool: TierPool, spec: TensorSpec) -> ManagedTensor:
    """Allocate a tensor into a pool under the packing policy."""
    return pool.manager.allocate(spec, pool.tier)


def tensor_release(pool: TierPool, tensor_id: int) -> int:
    """Release a tensor from a pool; returns freed occupant bytes."""
    return pool.manager.release(tensor_id)

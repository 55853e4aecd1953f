"""Page pools: packing policy, occupancy invariants, moves, merge, fragmentation."""
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermem.cli import EXIT_USAGE, main
from hiermem.errors import AllocationError, ConfigError, MoveError
from hiermem.footprint import TensorSpec
from hiermem.pagemem import (
    NOT_READY,
    PageManager,
    Tier,
    fragmentation,
    pool_init,
    replay,
    tensor_allocate,
    tensor_release,
)

MIB = 2**20


def spec(name, nbytes, kind="param16", layer=0):
    return TensorSpec(name, kind, nbytes, layer)


class TestPoolInit:
    def test_page_count(self):
        pool = pool_init("GPU", 40 * MIB, 4 * MIB)
        assert pool.free_page_count == 10

    def test_single_page_pool(self):
        assert pool_init(Tier.CPU, 4 * MIB, 4 * MIB).free_page_count == 1

    def test_misaligned_capacity(self):
        with pytest.raises(ConfigError):
            pool_init("GPU", 41 * MIB, 4 * MIB)

    def test_page_size_constraints(self):
        with pytest.raises(ConfigError):
            pool_init("GPU", 4 * MIB, 3 * MIB)  # not a power of two
        with pytest.raises(ConfigError):
            pool_init("GPU", 64 * 1024, 32 * 1024)  # below 64 KiB
        with pytest.raises(ConfigError):
            pool_init("GPU", 4 * MIB, 4.0 * MIB)  # not an int

    def test_page_accessor(self):
        mgr = PageManager([("GPU", 16 * MIB, 4 * MIB), ("CPU", 16 * MIB, 4 * MIB)])
        cpu = mgr.pool("CPU")
        page = cpu.page(7)  # never claimed: a free page of the pool
        assert (page.page_id, page.tier, page.occupants) == (7, Tier.CPU, [])
        assert mgr.page(7).tier is Tier.CPU
        for pid in (3, 8, -1):
            with pytest.raises(KeyError):
                cpu.page(pid)
        with pytest.raises(KeyError):
            mgr.page(8)

    def test_cost_does_not_depend_on_capacity(self):
        """A 1 TiB GPU pool and a 1 PiB SSD pool at 64 KiB pages (2**24 and
        2**34 pages) cost what the pages in use cost."""
        page = 64 * 2**10
        tracemalloc.start()
        try:
            mgr = PageManager([("GPU", 2**40, page), ("SSD", 2**50, page)])
            t = mgr.allocate(spec("m", 3 * page + 5, kind="optim32"), "SSD")
            desc = mgr.page_move(t.page_list[0], "GPU")
            state = mgr.state_dict()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < MIB
        assert t.page_list == [0, 2**24 + 1, 2**24 + 2, 2**24 + 3]
        assert (desc.page_id, desc.new_page_id) == (2**24, 0)
        assert state["pools"]["SSD"]["free_pages"] == 2**34 - 3
        assert [p["page_id"] for p in state["pages"]] == t.page_list


@pytest.mark.parametrize("value,tier", [
    (Tier.SSD, Tier.SSD), ("gpu", Tier.GPU), ("Cpu", Tier.CPU), ("SSD", Tier.SSD),
    (0, Tier.GPU), (1, Tier.CPU), (2, Tier.SSD),
])
def test_tier_parse(value, tier):
    assert Tier.parse(value) is tier


@pytest.mark.parametrize("value", [True, False, 7, -1, 3, None, 1.0, "ram", "", "GPU0"])
def test_tier_parse_rejects_non_tiers(value):
    with pytest.raises(ConfigError, match="unknown tier"):
        Tier.parse(value)
    with pytest.raises(ConfigError):
        pool_init(value, 4 * MIB, 4 * MIB)


class TestAllocate:
    def test_multi_page_tensor_with_tail(self):
        pool = pool_init("GPU", 40 * MIB, 4 * MIB)
        t = tensor_allocate(pool, spec("big", 10 * MIB))
        assert len(t.page_list) == 3
        full = [pool.page(p) for p in t.page_list[:2]]
        tail = pool.page(t.page_list[2])
        assert all(p.available_bytes == 0 for p in full)
        assert tail.available_bytes == 2 * MIB

    def test_tail_sharing_two_occupants(self):
        pool = pool_init("GPU", 40 * MIB, 4 * MIB)
        big = tensor_allocate(pool, spec("big", 10 * MIB))
        small = tensor_allocate(pool, spec("small", 2 * MIB))
        tail = pool.page(big.page_list[-1])
        assert small.page_list == [tail.page_id]
        assert len(tail.occupants) == 2
        assert tail.available_bytes == 0

    def test_small_tensor_gets_own_page(self):
        pool = pool_init("GPU", 40 * MIB, 4 * MIB)
        tensor_allocate(pool, spec("big", 10 * MIB))
        tensor_allocate(pool, spec("small", 2 * MIB))
        tiny = tensor_allocate(pool, spec("tiny", 1024))
        page = pool.page(tiny.page_list[0])
        assert len(page.occupants) == 1

    def test_two_small_tensors_never_share(self):
        pool = pool_init("GPU", 40 * MIB, 4 * MIB)
        a = tensor_allocate(pool, spec("a", 1024))
        b = tensor_allocate(pool, spec("b", 1024))
        assert a.page_list != b.page_list

    def test_oom_reports_requested_vs_available(self):
        pool = pool_init("GPU", 8 * MIB, 4 * MIB)
        with pytest.raises(AllocationError) as err:
            tensor_allocate(pool, spec("big", 9 * MIB))
        assert err.value.requested_bytes == 9 * MIB
        assert err.value.available_bytes == 8 * MIB

    def test_ssd_rejects_fp16(self):
        mgr = PageManager([("SSD", 8 * MIB)])
        with pytest.raises(AllocationError):
            mgr.allocate(spec("p", MIB, kind="param16"), "SSD")
        t = mgr.allocate(spec("o", MIB, kind="optim32"), "SSD")
        assert t.dtype == "fp32"


class TestRelease:
    def test_sole_occupant_frees_pages(self):
        pool = pool_init("GPU", 40 * MIB, 4 * MIB)
        t = tensor_allocate(pool, spec("big", 10 * MIB))
        before = pool.free_page_count
        freed = tensor_release(pool, t.tensor_id)
        assert freed == 10 * MIB
        assert pool.free_page_count == before + 3

    def test_co_occupant_keeps_shared_page(self):
        pool = pool_init("GPU", 40 * MIB, 4 * MIB)
        big = tensor_allocate(pool, spec("big", 10 * MIB))
        small = tensor_allocate(pool, spec("small", 2 * MIB))
        free_before = pool.free_page_count
        tensor_release(pool, small.tensor_id)
        assert pool.free_page_count == free_before  # 0 pages freed
        tail = pool.page(big.page_list[-1])
        assert tail.available_bytes == 2 * MIB

    def test_release_counts_tensors_not_pages(self):
        pool = pool_init("GPU", 40 * MIB, 4 * MIB)
        t = tensor_allocate(pool, spec("big", 10 * MIB))
        assert len(t.page_list) == 3
        tensor_release(pool, t.tensor_id)
        assert pool.stats.releases == 1

    def test_double_release(self):
        pool = pool_init("GPU", 8 * MIB, 4 * MIB)
        t = tensor_allocate(pool, spec("x", MIB))
        tensor_release(pool, t.tensor_id)
        with pytest.raises(KeyError):
            tensor_release(pool, t.tensor_id)


class TestPageMove:
    def make(self):
        return PageManager([("GPU", 16 * MIB, 4 * MIB), ("CPU", 8 * MIB, 4 * MIB),
                            ("SSD", 8 * MIB, 4 * MIB)])

    def test_move_descriptor(self):
        mgr = self.make()
        t = mgr.allocate(spec("x", 4 * MIB), "GPU")
        desc = mgr.page_move(t.page_list[0], "CPU")
        assert (desc.bytes, desc.src_tier, desc.dst_tier) == (4 * MIB, Tier.GPU, Tier.CPU)
        assert t.tier is Tier.CPU

    def test_partial_move_makes_tensor_not_ready(self):
        mgr = self.make()
        t = mgr.allocate(spec("x", 8 * MIB), "GPU")
        mgr.page_move(t.page_list[0], "CPU")
        assert t.tier == NOT_READY

    def test_move_into_full_tier(self):
        mgr = self.make()
        mgr.allocate(spec("a", 8 * MIB), "CPU")
        t = mgr.allocate(spec("b", 4 * MIB), "GPU")
        with pytest.raises(MoveError):
            mgr.page_move(t.page_list[0], "CPU")

    def test_move_fp16_to_ssd_rejected(self):
        mgr = self.make()
        t = mgr.allocate(spec("x", 4 * MIB), "GPU")
        with pytest.raises(MoveError):
            mgr.page_move(t.page_list[0], "SSD")

    def test_free_page_cannot_move(self):
        mgr = self.make()
        with pytest.raises(KeyError):
            mgr.page_move(0, "CPU")


class TestMerge:
    def test_fragmented_tensor_compacts(self):
        mgr = PageManager([("GPU", 64 * MIB, 4 * MIB)])
        a = mgr.allocate(spec("a", 4 * MIB), "GPU")  # page 0
        b = mgr.allocate(spec("b", 4 * MIB), "GPU")  # page 1
        c = mgr.allocate(spec("c", 4 * MIB), "GPU")  # page 2
        mgr.release(a.tensor_id)
        mgr.release(c.tensor_id)
        t = mgr.allocate(spec("t", 8 * MIB), "GPU")  # free list gives pages 0 and 2
        assert t.page_list == [0, 2]
        report = mgr.tensor_merge(t.tensor_id)
        assert report["contiguous"] is True
        assert report["moved_chunks"] == 2
        assert report["page_ids"] == [2, 3]  # smallest run clear of b's page 1
        assert t.page_list == [2, 3]
        mgr.release(b.tensor_id)
        check_invariants(mgr)

    def test_merge_noncontiguous_order(self):
        mgr = PageManager([("GPU", 64 * MIB, 4 * MIB)])
        blockers = [mgr.allocate(spec(f"x{i}", 4 * MIB), "GPU") for i in range(4)]
        t = mgr.allocate(spec("t", 8 * MIB), "GPU")  # pages 4,5
        mgr.release(blockers[1].tensor_id)
        mgr.release(blockers[3].tensor_id)
        # force t onto non-consecutive pages via release/realloc cycle
        mgr.release(t.tensor_id)
        t2 = mgr.allocate(spec("t2", 8 * MIB), "GPU")  # first-fit: pages 1,3
        assert t2.page_list == [1, 3]
        report = mgr.tensor_merge(t2.tensor_id)
        assert report["contiguous"] is True
        ids = report["page_ids"]
        assert ids == list(range(ids[0], ids[0] + 2))

    def test_already_contiguous_is_noop(self):
        mgr = PageManager([("GPU", 16 * MIB, 4 * MIB)])
        t = mgr.allocate(spec("t", 8 * MIB), "GPU")
        report = mgr.tensor_merge(t.tensor_id)
        assert report["moved_chunks"] == 0
        assert report["page_ids"] == t.page_list

    def test_merge_onto_free_pages_raises_the_peak(self):
        mgr = PageManager([("GPU", 32 * MIB, 4 * MIB)])
        mgr.allocate(spec("a", 6 * MIB), "GPU")  # pages 0 and 1 (tail)
        b = mgr.allocate(spec("b", 6 * MIB), "GPU")  # page 2, tail shares page 1
        assert b.page_list == [2, 1]
        assert mgr.tensor_merge(b.tensor_id)["page_ids"] == [2, 3]
        pool = mgr.pool("GPU")
        assert pool.allocated_page_count == 4
        assert pool.stats.peak_allocated_pages >= pool.allocated_page_count

    def test_not_ready_tensor_rejected(self):
        mgr = PageManager([("GPU", 16 * MIB, 4 * MIB), ("CPU", 16 * MIB, 4 * MIB)])
        t = mgr.allocate(spec("t", 8 * MIB), "GPU")
        mgr.page_move(t.page_list[0], "CPU")
        with pytest.raises(MoveError):
            mgr.tensor_merge(t.tensor_id)


class TestFragmentation:
    def test_full_pages_zero(self):
        pool = pool_init("GPU", 16 * MIB, 4 * MIB)
        tensor_allocate(pool, spec("x", 8 * MIB))
        assert fragmentation(pool) == 0.0

    def test_partial_page(self):
        pool = pool_init("GPU", 16 * MIB, 4 * MIB)
        tensor_allocate(pool, spec("x", MIB))
        assert fragmentation(pool) == 0.75

    def test_empty_pool(self):
        assert fragmentation(pool_init("GPU", 16 * MIB, 4 * MIB)) == 0.0


def check_invariants(mgr: PageManager):
    for pool in mgr.pools.values():
        allocated = pool.allocated_pages()
        for page in allocated:
            assert len(page.occupants) <= 2
            assert all(o.bytes > 0 for o in page.occupants)
            assert page.occupied_bytes + page.available_bytes == page.total_bytes
        # byte conservation per tier
        assert (pool.free_page_count + len(allocated)) * pool.page_bytes \
            == pool.capacity_bytes
    # every tensor's bytes match its occupants
    for tid, tensor in mgr.tensors.items():
        total = 0
        for pid in tensor.page_list:
            page = mgr.page(pid)
            total += sum(o.bytes for o in page.occupants if o.tensor_id == tid)
        assert total == tensor.bytes


class TestRandomizedInvariants:
    def run_sequence(self, seed, steps=2000):
        rng = random.Random(seed)
        mgr = PageManager([("GPU", 256 * MIB, 4 * MIB), ("CPU", 256 * MIB, 4 * MIB),
                           ("SSD", 128 * MIB, 4 * MIB)])
        live: list[int] = []
        counter = 0
        for _ in range(steps):
            op = rng.random()
            if op < 0.5:
                kind = rng.choice(["param16", "grad16", "optim32", "activation16"])
                tier = "SSD" if (kind == "optim32" and rng.random() < 0.3) else \
                    rng.choice(["GPU", "CPU"])
                nbytes = rng.choice([1024, MIB, 2 * MIB, 4 * MIB, 7 * MIB, 12 * MIB])
                counter += 1
                try:
                    t = mgr.allocate(spec(f"t{counter}", nbytes, kind=kind), tier)
                    live.append(t.tensor_id)
                except AllocationError:
                    pass
            elif op < 0.8 and live:
                tid = live.pop(rng.randrange(len(live)))
                mgr.release(tid)
            elif live:
                tid = rng.choice(live)
                tensor = mgr.tensors[tid]
                pid = rng.choice(tensor.page_list)
                target = rng.choice(["GPU", "CPU"])
                try:
                    mgr.page_move(pid, target)
                except MoveError:
                    pass
            check_invariants(mgr)
        return mgr, live

    def test_invariants_hold_and_no_leaks(self):
        mgr, live = self.run_sequence(seed=7)
        for tid in list(live):
            mgr.release(tid)
        for pool in mgr.pools.values():
            assert pool.free_page_count == pool.num_pages
            assert fragmentation(pool) == 0.0

    def test_determinism(self):
        m1, _ = self.run_sequence(seed=11, steps=500)
        m2, _ = self.run_sequence(seed=11, steps=500)
        assert m1.state_dict() == m2.state_dict()


def is_run(page_ids):
    return page_ids == list(range(page_ids[0], page_ids[0] + len(page_ids)))


def pool_ids(pool):
    """Every page id of the pool, claimed or not."""
    return range(pool.first_page_id, pool.first_page_id + pool.num_pages)


def lowest_merge_start(pool, tensor_id, n):
    """Brute force: the smallest page id starting n pool pages that are each
    free or held by this tensor alone, or None."""
    ids = pool_ids(pool)
    for start in ids:
        run = range(start, start + n)
        if all(pid in ids and all(o.tensor_id == tensor_id
                                  for o in pool.page(pid).occupants)
               for pid in run):
            return start
    return None


def first_fit_tail(pool, tail):
    """Brute force: the lowest page id whose only occupant is a shareable
    tail with ``tail`` bytes to spare, or None."""
    pages = (pool.page(pid) for pid in pool_ids(pool))
    return next((page.page_id for page in pages
                 if len(page.occupants) == 1 and page.occupants[0].shareable
                 and page.available_bytes >= tail), None)


def check_page_index(pool):
    """The pool's page-state index, padded past its high-water mark with
    never-claimed (free, not tail) pages, equals a brute-force scan of its pages."""
    pages = [pool.page(pid) for pid in pool_ids(pool)]
    pad = pool.num_pages - len(pool._free)
    assert pool._free + b"\x01" * pad == bytearray(not p.occupants for p in pages)
    assert pool._tail + bytes(pad) == bytearray(
        len(p.occupants) == 1 and p.occupants[0].shareable for p in pages)
    assert pool.free_page_count == sum(not p.occupants for p in pages)


TIERS = ["GPU", "CPU", "SSD"]
KINDS = ["param16", "grad16", "optim32"]
SIZES = [1024, MIB, 2 * MIB, 4 * MIB, 6 * MIB, 7 * MIB, 12 * MIB]


# allocate is drawn twice as often, so the small pools fill and fragment
@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.tuples(st.sampled_from(["allocate", "allocate", "release",
                                                  "move", "merge"]),
                                st.integers(0, 6), st.integers(0, 5)),
                      min_size=20, max_size=60))
def test_invariants_hold_under_move_and_merge(steps):
    """Page use has one record: each pool's page-state index (free flags,
    shareable-tail flags, free count) equals a brute-force scan of the
    occupants; the recorded peak never falls below the allocated count; a
    tail lands on the lowest shareable tail with room, else on a fresh page;
    a merge lands on the lowest run a brute-force scan accepts."""
    mgr = PageManager([("GPU", 32 * MIB, 4 * MIB), ("CPU", 32 * MIB, 4 * MIB),
                       ("SSD", 16 * MIB, 4 * MIB)])
    for op, a, b in steps:
        live = sorted(mgr.tensors)
        if op == "allocate":
            nbytes = SIZES[a % len(SIZES)]
            pool = mgr.pool(TIERS[b % 3])
            tail = nbytes % pool.page_bytes
            expected = first_fit_tail(pool, tail) if tail else None
            try:
                tensor = mgr.allocate(spec(f"t{a}", nbytes, kind=KINDS[b % 3]), pool.tier)
            except AllocationError:
                pass
            else:
                if tail:
                    tail_page = mgr.page(tensor.page_list[-1])
                    if expected is None:
                        assert [o.tensor_id for o in tail_page.occupants] == [tensor.tensor_id]
                    else:
                        assert tail_page.page_id == expected
        elif op == "release" and live:
            mgr.release(live[a % len(live)])
        elif op == "move" and live:  # each page of a tensor, as a layer's move does
            for pid in list(mgr.tensors[live[a % len(live)]].page_list):
                try:
                    mgr.page_move(pid, TIERS[b % 3])
                except MoveError:
                    pass
        elif op == "merge" and live:
            # prefer a scattered tensor: merging a contiguous one changes nothing
            scattered = [tid for tid in live if not is_run(mgr.tensors[tid].page_list)]
            pick = scattered or live
            tensor = mgr.tensors[pick[a % len(pick)]]
            ids = list(tensor.page_list)
            tier = tensor.tier
            expected = None if tier == NOT_READY else \
                lowest_merge_start(mgr.pool(tier), tensor.tensor_id, len(ids))
            try:
                report = mgr.tensor_merge(tensor.tensor_id)
            except MoveError:
                assert tier == NOT_READY
            except AllocationError:
                assert expected is None
            else:
                run = report["page_ids"]
                assert tensor.page_list == run and len(run) == len(ids) and is_run(run)
                if not is_run(ids):
                    assert run[0] == expected
        check_invariants(mgr)
        for pool in mgr.pools.values():
            check_page_index(pool)
            assert pool.stats.peak_allocated_pages >= pool.allocated_page_count


@settings(max_examples=50, deadline=None)
@given(sizes=st.lists(st.integers(1, 64), min_size=1, max_size=20))
def test_alloc_release_roundtrip_restores_free_bytes(sizes):
    pool = pool_init("GPU", 4096 * MIB, 4 * MIB)
    before = pool.free_page_count
    ids = [tensor_allocate(pool, spec(f"t{i}", n * MIB)).tensor_id
           for i, n in enumerate(sizes)]
    for tid in ids:
        tensor_release(pool, tid)
    assert pool.free_page_count == before


@settings(max_examples=50, deadline=None)
@given(counts=st.lists(st.integers(1, 8), min_size=1, max_size=12))
def test_page_multiple_workloads_have_zero_fragmentation(counts):
    pool = pool_init("GPU", 1024 * MIB, 4 * MIB)
    for i, c in enumerate(counts):
        tensor_allocate(pool, spec(f"t{i}", c * 4 * MIB))
    assert fragmentation(pool) == 0.0


class TestReplay:
    POOLS = [{"tier": "GPU", "capacity_bytes": 64 * MIB, "page_bytes": 4 * MIB}]
    A = {"op": "allocate", "name": "a", "bytes": 5 * MIB, "tier": "GPU"}

    def test_name_is_reusable_once_released(self):
        log, state = replay(self.POOLS, [self.A, {"op": "release", "name": "a"}, self.A])
        assert [entry["op"] for entry in log] == ["allocate", "release", "allocate"]
        assert [t["tensor_id"] for t in state["tensors"]] == [1]

    def test_live_name_is_not_reallocated(self, tmp_path, capsys):
        """A second allocate of a live name would leave the first tensor
        allocated with no name to release it by."""
        with pytest.raises(ConfigError) as err:
            replay(self.POOLS, [self.A, self.A])
        assert str(err.value) == "op 1: tensor 'a' is still live"
        pools, ops = tmp_path / "pools.json", tmp_path / "ops.json"
        pools.write_text(json.dumps({"pools": self.POOLS}))
        ops.write_text(json.dumps([self.A, self.A, {"op": "release", "name": "a"}]))
        assert main(["pagemem-demo", "--pool-spec", str(pools), "--ops", str(ops)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: op 1: tensor 'a' is still live\n"

    def test_negative_layer_index_is_rejected(self):
        with pytest.raises(ConfigError, match="op 0: tensor 'a' has negative layer_index -3"):
            replay(self.POOLS, [{**self.A, "layer_index": -3}])

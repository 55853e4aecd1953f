"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (timed into
``setup_s``), runs one op per ``op`` call (timed into ``wall_s``) and
checks that op's output in ``check`` (not timed). Ops drive hiermem only
through its public functions and ``hiermem.cli.main``.

Why these four:

* ``paper-175b-l6``: the smallest GPT-3 175B-shaped case where phase 1
  both defers (108 moves) and evicts (1,730 forward evictions) over 5,190
  pages; the scheduler takes most of the op. Eight layers would take
  about 7x longer per op.
* ``sim-1.7b-48it``: scheduling is cheap (978 tasks); two 48-iteration
  replays and the 22 MB report take most of the op. A scheduler change
  should leave it flat; a simulator or report change should move it.
* ``alloc-256g``: the allocator on large, mostly empty pools, where
  ``allocate`` and ``tensor_merge`` cost grows with pool size. The op
  mixes writes (allocate, release, merge) with reads and moves
  (``page_move``, ``state_dict``), so trading one side for the other shows.
* ``toy-train``: the only workload that runs ``lockfree``: the synchronous
  and the lock-free toy trainer at the convergence-criterion setting.
"""
from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path

GIB = 2**30
MIB = 2**20

# GPT-3 175B layer shape (the gpt3-175b preset) cut to six layers.
PAPER_SHAPE = {"batch_size": 1, "seq_len": 2048, "d_model": 12288,
               "d_ffn": 49152, "num_heads": 96, "num_layers": 6}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(data: bytes):
    """Parse JSON, refusing NaN and Infinity. ``timeline`` arrays are dropped
    while parsing so a large report does not raise the benchmark's own peak
    memory above that of the op."""
    return json.loads(data, parse_constant=_reject_constant,
                      object_pairs_hook=lambda pairs: {k: v for k, v in pairs
                                                       if k != "timeline"})


class Workload:
    name = ""
    timeout_s = 60.0

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.outputs: dict = {}  # model outputs, filled from the first op
        self.setup_metrics: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self._findings: dict[str, list[str]] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def check(self, out) -> tuple[list[str], int]:
        """(problems, report bytes) for one op's output."""
        raise NotImplementedError

    def check_traced(self, spans) -> list[str]:
        return []

    def verify_report(self, key: str, data: bytes, inspect) -> list[str]:
        """Problems with one report. The first report of a run must be strict
        JSON and pass ``inspect``; every later one must repeat its bytes, and
        then repeats its findings too."""
        digest = hashlib.sha256(data).hexdigest()
        if key not in self.digests:
            self.digests[key] = digest
            try:
                self._findings[key] = inspect(strict_json(data))
            except ValueError as exc:
                self._findings[key] = [f"{key}: not strict JSON: {exc}"]
        elif digest != self.digests[key]:
            return [f"{key}: sha256 {digest[:16]} differs from the first op's "
                    f"{self.digests[key][:16]}"]
        return list(self._findings[key])


# -- pipeline workloads -----------------------------------------------------------

class Pipeline(Workload):
    def config(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(json.dumps(self.config(), sort_keys=True))
        self.report_path = self.workdir / "report.json"

    def op(self):
        from hiermem.cli import main
        return main(["pipeline", "--config", str(self.config_path),
                     "--out", str(self.report_path)])

    def check(self, rc):
        if rc != 0:
            return [f"hiermem pipeline exited {rc}"], 0
        data = self.report_path.read_bytes()
        self.report_path.unlink()
        return self.verify_report("report", data, self.inspect), len(data)

    def inspect(self, report) -> list[str]:
        sim = report["simulation"]
        self.outputs = {
            "phase2_makespan_s": sim["phase2"]["makespan_s"],
            "phase2_gpu_idle_fraction": sim["phase2"]["gpu_idle_fraction"],
            "phase1_makespan_s": sim["phase1"]["makespan_s"],
            "phase1_vs_phase2_speedup": sim["phase1_vs_phase2"]["speedup"],
            "phase1_tasks": report["schedule"]["phase1"]["num_tasks"],
            "phase2_tasks": report["schedule"]["phase2"]["num_tasks"],
            "report_sha256": self.digests["report"],
        }
        budget = report["config"]["gpu_budget_bytes"]
        return [f"{phase} peak {report['schedule'][phase]['peak_bytes']} exceeds "
                f"budget {budget}" for phase in ("phase1", "phase2")
                if report["schedule"][phase]["peak_bytes"] > budget]

    def check_traced(self, spans):
        """validate_schedule must accept both phases the op scheduled."""
        from hiermem.scheduler import validate_schedule
        traces = [s.result for s in spans if s.name == "tracer.build_trace"]
        schedules = [s.result for s in spans if s.name == "scheduler.schedule"]
        if not traces or not schedules:
            return ["traced op recorded no build_trace or schedule call"]
        problems = []
        for sched in schedules:
            for v in validate_schedule(sched, traces[-1]):
                problems.append(f"validate_schedule({sched.phase}): {v}")
        return problems


class Paper175bL6(Pipeline):
    name = "paper-175b-l6"
    timeout_s = 90.0

    def config(self):
        model = dict(PAPER_SHAPE)
        if self.tiny:
            model.update(seq_len=128, d_model=256, d_ffn=1024, num_heads=4, num_layers=3)
        return {"model": model, "hardware": "preset:a100-server",
                "gpu_budget_bytes": (GIB // 16 if self.tiny else 20 * GIB),
                "page_bytes": (256 * 1024 if self.tiny else 4 * MIB),
                "world_size": 8, "rank": self.seed % 8, "recompute": True,
                "iterations": 1, "update_mode": "none", "seed": self.seed}


class Sim17b48it(Pipeline):
    name = "sim-1.7b-48it"
    timeout_s = 60.0

    def config(self):
        return {"model": "preset:tiny-2layer" if self.tiny else "preset:gpt3-1.7b",
                "hardware": "preset:a100-server",
                "gpu_budget_bytes": GIB if self.tiny else 16 * GIB,
                "world_size": 8, "rank": self.seed % 8,
                "iterations": 2 if self.tiny else 48,
                "update_mode": "sync", "optimizer_tier": "ssd", "seed": self.seed}


# -- allocator ----------------------------------------------------------------------

class Alloc256g(Workload):
    """PageManager with GPU 80 GiB, CPU 256 GiB and SSD 256 GiB pools, 4 MiB pages.

    One op places the gpt3-1.7b parameter, gradient and optimizer tensors
    (params and grads on CPU, optimizer states on SSD), moves every param
    page CPU->GPU->CPU layer by layer in a seeded order, releases and
    re-allocates every gradient, merges each param tensor into a contiguous
    page run and writes ``state_dict()`` as a JSON report. The check drains
    the manager, so every op starts from empty pools.
    """

    name = "alloc-256g"
    timeout_s = 60.0

    def setup(self) -> None:
        from hiermem.footprint import tensor_inventory
        from hiermem.pagemem import PageManager
        from hiermem.presets import model_preset

        cfg = model_preset("tiny-2layer" if self.tiny else "gpt3-1.7b")
        self.inventory = [s for s in tensor_inventory(cfg)
                          if s.kind in ("param16", "grad16", "optim32")]
        self.layer_order = sorted({s.layer_index for s in self.inventory})
        random.Random(self.seed).shuffle(self.layer_order)
        scale = MIB if self.tiny else GIB
        start = time.perf_counter()
        self.manager = PageManager([("GPU", 80 * scale, 4 * MIB),
                                    ("CPU", 256 * scale, 4 * MIB),
                                    ("SSD", 256 * scale, 4 * MIB)])
        self.setup_metrics["pagemem.pool_init_s"] = time.perf_counter() - start
        self.report_path = self.workdir / "state.json"

    def op(self):
        from hiermem.pagemem import Tier

        mgr = self.manager
        ids = [mgr.allocate(s, "SSD" if s.kind == "optim32" else "CPU").tensor_id
               for s in self.inventory]
        params = {}
        for i, s in enumerate(self.inventory):
            if s.kind == "param16":
                params.setdefault(s.layer_index, []).append(ids[i])
        moves = 0
        for layer in self.layer_order:
            for target in (Tier.GPU, Tier.CPU):
                for tid in params[layer]:
                    for pid in list(mgr.tensors[tid].page_list):
                        if mgr.page(pid).tier is not target:  # shared page already moved
                            mgr.page_move(pid, target)
                            moves += 1
        grads = [i for i, s in enumerate(self.inventory) if s.kind == "grad16"]
        for i in grads:
            mgr.release(ids[i])
        for i in grads:
            ids[i] = mgr.allocate(self.inventory[i], "CPU").tensor_id
        moved_chunks = sum(mgr.tensor_merge(tid)["moved_chunks"]
                           for layer in self.layer_order for tid in params[layer])
        state = mgr.state_dict()
        self.report_path.write_text(json.dumps(state, indent=2, sort_keys=True) + "\n")
        return {"moves": moves, "moved_chunks": moved_chunks, "state": state}

    def check(self, out):
        """The allocator invariants of acceptance criterion 3, then a full drain."""
        mgr = self.manager
        problems = []
        data = self.report_path.read_bytes()
        self.report_path.unlink()
        try:
            strict_json(data)
        except ValueError as exc:
            problems.append(f"state report: {exc}")
        held: dict[int, int] = {}
        for pool in mgr.pools.values():
            allocated = pool.allocated_pages()
            for page in allocated:
                if len(page.occupants) > 2:
                    problems.append(f"page {page.page_id} has {len(page.occupants)} occupants")
                if any(o.bytes <= 0 for o in page.occupants):
                    problems.append(f"page {page.page_id} has an empty occupant")
                if page.occupied_bytes + page.available_bytes != page.total_bytes:
                    problems.append(f"page {page.page_id} bytes not conserved")
                for o in page.occupants:
                    held[o.tensor_id] = held.get(o.tensor_id, 0) + o.bytes
            if (pool.free_page_count + len(allocated)) * pool.page_bytes != pool.capacity_bytes:
                problems.append(f"{pool.tier.name} pool pages not conserved")
        for tid, tensor in mgr.tensors.items():
            if held.get(tid, 0) != tensor.bytes:
                problems.append(f"tensor {tid} holds {held.get(tid, 0)} of {tensor.bytes} bytes")
        for tid in list(mgr.tensors):
            mgr.release(tid)
        for pool in mgr.pools.values():
            if pool.free_page_count != pool.num_pages:
                problems.append(f"{pool.tier.name} pool: drain left "
                                f"{pool.num_pages - pool.free_page_count} pages allocated")
        if not self.outputs:
            state = out["state"]
            self.outputs = {
                "page_moves": out["moves"],
                "merge_moved_chunks": out["moved_chunks"],
                "shared_tail_pages": sum(1 for p in state["pages"] if len(p["occupants"]) == 2),
                "cpu_fragmentation": state["pools"]["CPU"]["fragmentation"],
                "state_sha256": hashlib.sha256(data).hexdigest(),
            }
        return problems, len(data)


# -- toy trainer ----------------------------------------------------------------------

class ToyTrain(Workload):
    name = "toy-train"
    timeout_s = 30.0

    def setup(self) -> None:
        self.config_path = self.workdir / "toy.json"
        self.config_path.write_text(json.dumps(
            {"num_layers": 4, "dim": 32, "batch_size": 128, "noise_std": 1.0,
             "hyper": {"lr": 0.003}}, sort_keys=True))
        self.iters = 20 if self.tiny else 800
        self.report_paths = {m: self.workdir / f"{m}.json" for m in ("sync", "lockfree")}
        self.reports: dict[str, dict] = {}

    def op(self):
        from hiermem.cli import main
        return {mode: main(["lockfree", "--toy-config", str(self.config_path),
                            "--delays", "preset:ssd", "--mode", mode,
                            "--iters", str(self.iters), "--seed", str(self.seed),
                            "--out", str(path)])
                for mode, path in self.report_paths.items()}

    def check(self, rcs):
        problems, nbytes = [], 0
        for mode, path in self.report_paths.items():
            if rcs[mode] != 0:
                problems.append(f"hiermem lockfree --mode {mode} exited {rcs[mode]}")
                continue
            data = path.read_bytes()
            path.unlink()
            nbytes += len(data)
            problems += self.verify_report(mode, data, self.inspect)
        return problems, nbytes

    def inspect(self, report) -> list[str]:
        self.reports[report["mode"]] = report
        if len(self.reports) == 2:
            sync, lockfree = self.reports["sync"], self.reports["lockfree"]
            self.outputs = {
                "samples_per_s_ratio": lockfree["samples_per_s"] / sync["samples_per_s"],
                "val_loss_gap": abs(lockfree["val_loss"] - sync["val_loss"]) / sync["val_loss"],
                "sync_val_loss": sync["val_loss"],
                "lockfree_val_loss": lockfree["val_loss"],
                "sync_sha256": self.digests["sync"],
                "lockfree_sha256": self.digests["lockfree"],
            }
        if not report["conservation"]["balanced"]:
            return [f"{report['mode']}: conservation ledger not balanced"]
        return []


WORKLOADS = {w.name: w for w in (Paper175bL6, Sim17b48it, Alloc256g, ToyTrain)}

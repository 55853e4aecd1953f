"""Executable lock-free optimizer-update protocol with a toy numeric trainer.

Three actors exchange messages: the GPU actor runs forward/backward passes
against published FP16 parameter snapshots and offloads FP16 gradients;
the buffering actor exclusively owns the FP16 parameter/gradient buffers
(accumulating gradients, handing accumulated gradients to the updater,
publishing fresh parameters); the updating actor exclusively owns the FP32
master state (params + Adam moments, SSD-resident in spirit) and sweeps
layers in reverse whenever uncleared gradients exist.

Both trainers run the same two steps: ``_gpu_iteration`` (fetch, forward,
backward, offload) and ``_update_layer`` (state fetch, Adam, publish,
store). The lock-free trainer runs them in concurrent actors, whose sends
carry gradients and fresh parameters to the buffering actor; the
synchronous baseline runs them back to back on one clock and applies
those sends to the buffers in place.

Gradient buffers are cleared atomically at the moment the updater takes
them, so every accumulated unit is consumed by exactly one master update
(exact conservation); the subsequent publish installs the refreshed FP16
parameters without touching gradients that arrived mid-update. Publishes
are torn-read-free: each publish installs a brand-new immutable
(version, array) record behind a single reference swap.

Runs execute on a deterministic virtual clock: the actors are coroutines
driven by a discrete-event loop. The clock is charged at a hardware
profile's rates as ``simulate`` charges them (:class:`DelayModel`): PCIe at
the rank's share, state I/O at ``ssd_io``, Adam at ``cpu_bytes_per_s``, and
no link latency, as the toy runs each transfer in line with its compute.
"""
from __future__ import annotations

import heapq
import math
from collections import Counter, deque
from dataclasses import dataclass, field, fields
from itertools import count

import numpy as np

from .errors import REAL, ConfigError, ProtocolError, check_fields, check_range
from .presets import hardware_preset
from .simengine import HardwareProfile

# The toy's GPU rate: a hardware profile gives byte rates, not FLOP rates.
GPU_FLOPS_PER_S = 1e11


@dataclass(frozen=True)
class AdamHyper:
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            check_range(f"toy config 'hyper' {f.name!r}", getattr(self, f.name))
        for name in ("beta1", "beta2"):  # beta 1 zeroes Adam's bias correction
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"toy config 'hyper' {name!r} must be in [0, 1), "
                                  f"not {getattr(self, name)!r}")


@dataclass(frozen=True)
class ToyTrainConfig:
    """Small MLP regression problem with per-layer structure.

    num_layers square tanh layers of width ``dim`` feed a fixed random
    readout; the teacher shares the architecture. All randomness flows
    from ``seed``.
    """

    num_layers: int = 4
    dim: int = 32
    batch_size: int = 64
    val_size: int = 512
    noise_std: float = 0.01
    seed: int = 0
    hyper: AdamHyper = field(default_factory=AdamHyper)

    def __post_init__(self):
        for size in ("num_layers", "dim", "batch_size", "val_size"):
            check_range(f"toy config {size!r}", getattr(self, size), 1, finite=False)
        check_range("toy config 'noise_std'", self.noise_std, 0)
        check_range("toy config 'seed'", self.seed, 0, finite=False)  # numpy's seeds are >= 0

    @classmethod
    def from_dict(cls, raw) -> "ToyTrainConfig":
        """A toy config read from JSON, ``hyper`` an object of AdamHyper fields."""
        types = {f.name: (int,) for f in fields(cls)} | {"noise_std": REAL,
                                                         "hyper": (dict,)}
        raw = check_fields("toy config", raw, types)
        hyper = check_fields("toy config 'hyper'", raw.get("hyper", {}),
                         {f.name: REAL for f in fields(AdamHyper)})
        return cls(**{**raw, "hyper": AdamHyper(**hyper)})

    @property
    def param_bytes16(self) -> int:
        return 2 * self.dim * self.dim

    @property
    def state_bytes32(self) -> int:
        # FP32 master params + first and second moments
        return 3 * 4 * self.dim * self.dim

    @property
    def flops_per_layer(self) -> int:
        # forward matmul, backward is charged at twice forward
        return 2 * self.batch_size * self.dim * self.dim


@dataclass(frozen=True)
class DelayModel:
    """Simulated transfer/compute costs, charged on the virtual clock.

    ``from_profile`` charges what ``simulate`` charges: fetches at the rank's
    share of ``pcie_h2d``, offloads at its share of ``pcie_d2h``, state fetch
    and store at ``ssd_io`` (none for CPU-resident states) and the Adam update
    at ``cpu_bytes_per_s`` over the FP32 state. No link latency: the toy runs
    each transfer back to back with its compute, which ``simulate`` overlaps.
    """

    fetch_bytes_per_s: float
    offload_bytes_per_s: float
    state_io_bytes_per_s: float  # infinite: states in CPU RAM
    cpu_bytes_per_s: float
    gpu_flops_per_s: float

    def __post_init__(self):
        # infinite rates are free transfers (the ``zero`` preset)
        for f in fields(self):
            check_range(f"delay model {f.name!r}", getattr(self, f.name), 0, above=True,
                        finite=False)

    def fetch_s(self, nbytes: int) -> float:
        return nbytes / self.fetch_bytes_per_s

    def offload_s(self, nbytes: int) -> float:
        return nbytes / self.offload_bytes_per_s

    def state_fetch_s(self, nbytes: int) -> float:
        return nbytes / self.state_io_bytes_per_s

    state_store_s = state_fetch_s

    def update_compute_s(self, nbytes: int) -> float:
        return nbytes / self.cpu_bytes_per_s

    def compute_s(self, flops: float) -> float:
        return flops / self.gpu_flops_per_s

    @classmethod
    def from_profile(cls, profile: HardwareProfile, optimizer_tier: str) -> "DelayModel":
        """One rank's charges, its optimizer states on ``optimizer_tier`` (ssd, cpu)."""
        state_io = {"ssd": profile.links["ssd_io"].bandwidth_bytes_per_s, "cpu": math.inf}
        return cls(fetch_bytes_per_s=profile.pcie_effective_bw("pcie_h2d"),
                   offload_bytes_per_s=profile.pcie_effective_bw("pcie_d2h"),
                   state_io_bytes_per_s=state_io[optimizer_tier],
                   cpu_bytes_per_s=profile.cpu_bytes_per_s,
                   gpu_flops_per_s=GPU_FLOPS_PER_S)

    @classmethod
    def preset(cls, name: str) -> "DelayModel":
        if name in ("ssd", "cpu"):
            return cls.from_profile(hardware_preset("a100-server"), name)
        if name == "zero":
            return cls(*[math.inf] * len(fields(cls)))
        raise ConfigError(f"unknown delay preset {name!r}")


@dataclass(frozen=True)
class GradMessage:
    layer: int
    payload: np.ndarray  # FP16 gradient
    iteration: int


def apply_update(p32, m32, v32, grad, hyper: AdamHyper, step: int):
    """One Adam step (bias-corrected) on FP32 masters; rejects non-finite grads.

    Returns (p32, m32, v32, applied).
    """
    g = grad.astype(np.float32, copy=False)
    if not np.isfinite(g).all():
        return p32, m32, v32, False
    m32 = hyper.beta1 * m32 + (1.0 - hyper.beta1) * g
    v32 = hyper.beta2 * v32 + (1.0 - hyper.beta2) * (g * g)
    bias1 = 1.0 - hyper.beta1 ** step
    bias2 = 1.0 - hyper.beta2 ** step
    m_hat = m32 / bias1
    v_hat = v32 / bias2
    p32 = p32 - hyper.lr * m_hat / (np.sqrt(v_hat) + hyper.eps)
    return p32.astype(np.float32), m32.astype(np.float32), v32.astype(np.float32), True


class MasterState:
    """FP32 masters (params, moments) per layer; mutated only by the updater."""

    def __init__(self, params: list[np.ndarray]):
        self.p32 = [p.astype(np.float32) for p in params]
        self.m32 = [np.zeros_like(p, dtype=np.float32) for p in params]
        self.v32 = [np.zeros_like(p, dtype=np.float32) for p in params]
        self.steps = [0] * len(params)

    def update_layer(self, layer: int, grad: np.ndarray, hyper: AdamHyper) -> bool:
        p, m, v, applied = apply_update(self.p32[layer], self.m32[layer], self.v32[layer],
                                        grad, hyper, self.steps[layer] + 1)
        if applied:
            self.p32[layer], self.m32[layer], self.v32[layer] = p, m, v
            self.steps[layer] += 1
        return applied


def _published(p32: np.ndarray, version: int, applied_iter: int):
    p16 = p32.astype(np.float16)
    p16.flags.writeable = False
    return (version, p16, applied_iter)


class ParamBuffer:
    """FP16 parameter/gradient buffers owned by the buffering actor.

    Published parameter records are immutable (version, fp16 array,
    applied_iter) tuples swapped in with a single reference assignment, so
    concurrent readers never observe a torn vector. Gradients accumulate in
    FP32 and are stored back to FP16.
    """

    def __init__(self, initial_params: list[np.ndarray]):
        self._published = [_published(p.astype(np.float32), 0, -1) for p in initial_params]
        self.g16 = [np.zeros(p.shape, dtype=np.float16) for p in initial_params]
        self._pending_msgs = [0] * len(initial_params)
        self._max_iter = [-1] * len(initial_params)
        self.ledger = ConservationLedger(len(initial_params))

    @property
    def num_layers(self) -> int:
        return len(self.g16)

    def read(self, layer: int):
        """Snapshot of (version, fp16 params, applied_iter); safe concurrently."""
        return self._published[layer]

    def version(self, layer: int) -> int:
        return self._published[layer][0]

    def min_applied_iter(self) -> int:
        return min(rec[2] for rec in self._published)

    def total_pending(self) -> int:
        return sum(self._pending_msgs)

    def accumulate(self, msg: GradMessage) -> None:
        if not (0 <= msg.layer < self.num_layers):
            raise ProtocolError(f"gradient for unknown layer {msg.layer}")
        if msg.payload.shape != self.g16[msg.layer].shape:
            raise ProtocolError(
                f"gradient shape {msg.payload.shape} != buffer shape "
                f"{self.g16[msg.layer].shape} for layer {msg.layer}"
            )
        old_sum = float(np.sum(self.g16[msg.layer], dtype=np.float64))
        acc = self.g16[msg.layer].astype(np.float32) + msg.payload.astype(np.float32)
        self.g16[msg.layer] = acc.astype(np.float16)
        new_sum = float(np.sum(self.g16[msg.layer], dtype=np.float64))
        self.ledger.record_accumulate(msg.layer, new_sum - old_sum)
        self._pending_msgs[msg.layer] += 1
        self._max_iter[msg.layer] = max(self._max_iter[msg.layer], msg.iteration)

    def take(self, layer: int):
        """Atomically hand over and clear the accumulated gradient.

        Returns (grad fp32, message_count, newest_iteration) or None when
        nothing is pending.
        """
        if self._pending_msgs[layer] == 0:
            return None
        g = self.g16[layer].astype(np.float32)
        count = self._pending_msgs[layer]
        newest = self._max_iter[layer]
        self.ledger.record_take(layer, float(np.sum(self.g16[layer], dtype=np.float64)),
                                count)
        self.g16[layer] = np.zeros_like(self.g16[layer])
        self._pending_msgs[layer] = 0
        return g, count, newest

    def publish(self, layer: int, p32: np.ndarray, applied_iter: int | None = None) -> int:
        """Install fresh FP16 params. The gradient buffer is left alone: its
        clear happens atomically inside :meth:`take`, and gradients that
        arrived during the master update must survive the publish.
        """
        old_version, _, old_iter = self._published[layer]
        rec = _published(
            p32, old_version + 1, old_iter if applied_iter is None else applied_iter
        )
        self._published[layer] = rec  # single reference swap: atomic for readers
        return rec[0]


def publish_params(buffer: ParamBuffer, layer: int, p32: np.ndarray) -> None:
    """Clear buffered gradients, then publish FP16 params (version += 1)."""
    buffer.take(layer)
    buffer.publish(layer, p32)


class ConservationLedger:
    """Exact gradient-conservation bookkeeping in float64.

    Accumulation deltas telescope to the taken sums, so
    fsum(produced) == fsum(consumed) == fsum(applied) holds bitwise over a
    complete run (rejected updates tracked apart).
    """

    def __init__(self, num_layers: int):
        self.produced_deltas = [[] for _ in range(num_layers)]
        self.consumed_sums = [[] for _ in range(num_layers)]
        self.applied_sums = [[] for _ in range(num_layers)]
        self.rejected_sums = [[] for _ in range(num_layers)]
        self.messages_sent = [0] * num_layers
        self.messages_accumulated = [0] * num_layers
        self.messages_consumed = [0] * num_layers

    def record_accumulate(self, layer: int, delta: float) -> None:
        self.produced_deltas[layer].append(delta)
        self.messages_accumulated[layer] += 1

    def record_take(self, layer: int, total: float, count: int) -> None:
        self.consumed_sums[layer].append(total)
        self.messages_consumed[layer] += count

    def record_apply(self, layer: int, total: float, rejected: bool) -> None:
        (self.rejected_sums if rejected else self.applied_sums)[layer].append(total)

    def summary(self) -> dict:
        layers = []
        balanced = True
        for l in range(len(self.produced_deltas)):
            produced = math.fsum(self.produced_deltas[l])
            consumed = math.fsum(self.consumed_sums[l])
            applied = math.fsum(self.applied_sums[l])
            rejected = math.fsum(self.rejected_sums[l])
            ok = (produced == consumed == applied + rejected
                  and self.messages_accumulated[l] == self.messages_consumed[l]
                  == self.messages_sent[l])
            balanced &= ok
            layers.append({
                "layer": l,
                "produced": produced,
                "consumed": consumed,
                "applied": applied,
                "rejected": rejected,
                "messages_sent": self.messages_sent[l],
                "messages_accumulated": self.messages_accumulated[l],
                "messages_consumed": self.messages_consumed[l],
                "balanced": ok,
            })
        return {"balanced": balanced, "layers": layers}


# -- toy problem ---------------------------------------------------------------


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def init_problem(cfg: ToyTrainConfig):
    """Teacher weights, student init, fixed readout, validation set."""
    rng = _rng(cfg.seed, 0)
    d = cfg.dim
    teacher = [rng.normal(0, 1.0 / math.sqrt(d), (d, d)).astype(np.float32)
               for _ in range(cfg.num_layers)]
    student = [rng.normal(0, 0.5 / math.sqrt(d), (d, d)).astype(np.float32)
               for _ in range(cfg.num_layers)]
    readout = rng.normal(0, 1.0 / math.sqrt(d), (d,)).astype(np.float32)
    vrng = _rng(cfg.seed, 1)
    x_val = vrng.normal(0, 1, (cfg.val_size, d)).astype(np.float32)
    y_val = _teacher_forward(teacher, readout, x_val, cfg, vrng)
    return teacher, student, readout, (x_val, y_val)


def _teacher_forward(teacher, readout, x, cfg, noise_rng=None):
    h = x
    for w in teacher:
        h = np.tanh(h @ w)
    y = h @ readout
    if noise_rng is not None and cfg.noise_std > 0:
        y = y + noise_rng.normal(0, cfg.noise_std, y.shape).astype(np.float32)
    return y.astype(np.float32)


def batch_for(cfg: ToyTrainConfig, teacher, readout, iteration: int):
    rng = _rng(cfg.seed, 2 + iteration)
    x = rng.normal(0, 1, (cfg.batch_size, cfg.dim)).astype(np.float32)
    y = _teacher_forward(teacher, readout, x, cfg, rng)
    return x, y


def forward_backward(params32: list[np.ndarray], readout: np.ndarray,
                     x: np.ndarray, y: np.ndarray):
    """MSE loss and per-layer weight gradients for the tanh MLP."""
    hs = [x]
    for w in params32:
        hs.append(np.tanh(hs[-1] @ w))
    y_hat = hs[-1] @ readout
    err = y_hat - y
    loss = float(np.mean(err * err))
    dy = (2.0 / len(y)) * err
    dh = np.outer(dy, readout).astype(np.float32)
    grads: list[np.ndarray] = [None] * len(params32)
    for l in reversed(range(len(params32))):
        dz = dh * (1.0 - hs[l + 1] * hs[l + 1])
        grads[l] = (hs[l].T @ dz).astype(np.float32)
        if l > 0:
            dh = dz @ params32[l].T
    return loss, grads


def validation_loss(buffer: ParamBuffer, readout, x_val, y_val) -> float:
    params = [buffer.read(l)[1].astype(np.float32) for l in range(buffer.num_layers)]
    loss, _ = forward_backward(params, readout, x_val, y_val)
    return loss


# -- actor runtime --------------------------------------------------------------


class _Mailbox:
    def __init__(self):
        self.queue: deque = deque()
        self.waiter: int | None = None


class VirtualRuntime:
    """Drives coroutine actors on a deterministic virtual clock.

    Actors yield ("sleep", seconds), ("send", mailbox, payload) or
    ("recv", mailbox); recv resumes with the payload, timestamp-synced to
    the sender's clock.
    """

    def __init__(self):
        self.clocks: list[float] = []

    def mailbox(self) -> _Mailbox:
        return _Mailbox()

    def run(self, actors) -> float:
        gens = list(actors)
        n = len(gens)
        self.clocks = [0.0] * n
        resume: list = [None] * n
        finished = [False] * n
        seq = count(n)  # ties in time resume actors in the order they were queued
        ready = [(0.0, i, i) for i in range(n)]

        while ready:
            clock, _, i = heapq.heappop(ready)
            self.clocks[i] = max(self.clocks[i], clock)
            value, resume[i] = resume[i], None
            try:
                effect = gens[i].send(value)
            except StopIteration:
                finished[i] = True
                continue
            kind = effect[0]
            if kind == "sleep":
                self.clocks[i] += effect[1]
                heapq.heappush(ready, (self.clocks[i], next(seq), i))
            elif kind == "send":
                box, payload = effect[1], effect[2]
                box.queue.append((self.clocks[i], payload))
                if box.waiter is not None:
                    j, box.waiter = box.waiter, None
                    ts, msg = box.queue.popleft()
                    self.clocks[j] = max(self.clocks[j], ts)
                    resume[j] = msg
                    heapq.heappush(ready, (self.clocks[j], next(seq), j))
                heapq.heappush(ready, (self.clocks[i], next(seq), i))
            elif kind == "recv":
                box = effect[1]
                if box.queue:
                    ts, msg = box.queue.popleft()
                    self.clocks[i] = max(self.clocks[i], ts)
                    resume[i] = msg
                    heapq.heappush(ready, (self.clocks[i], next(seq), i))
                else:
                    if box.waiter is not None:
                        raise ProtocolError("two actors blocked on one mailbox")
                    box.waiter = i
            else:
                raise ProtocolError(f"unknown actor effect {kind!r}")

        if not all(finished):
            stuck = [i for i, f in enumerate(finished) if not f]
            raise ProtocolError(f"deadlock: actors {stuck} never finished")
        return max(self.clocks)


# -- actors ---------------------------------------------------------------------


@dataclass
class _RunRecorder:
    loss_curve: list = field(default_factory=list)
    staleness: Counter = field(default_factory=Counter)
    gpu_busy_s: float = 0.0
    rejected_updates: int = 0


def _gpu_iteration(cfg, delays, buffer, readout, teacher, it, rec, box):
    """One training step: fetch and forward each layer, then backward and
    offload each layer's FP16 gradient.

    Yields ("sleep", seconds) and, per layer, ("send", box, ("grad", msg)).
    """
    x, y = batch_for(cfg, teacher, readout, it)
    params = []
    for l in range(cfg.num_layers):
        yield ("sleep", delays.fetch_s(cfg.param_bytes16))
        _, p16, applied = buffer.read(l)
        rec.staleness[max(0, (it - 1) - applied)] += 1
        params.append(p16.astype(np.float32))
        t = delays.compute_s(cfg.flops_per_layer)
        rec.gpu_busy_s += t
        yield ("sleep", t)
    loss, grads = forward_backward(params, readout, x, y)
    rec.loss_curve.append(loss)
    for l in reversed(range(cfg.num_layers)):
        t = delays.compute_s(2 * cfg.flops_per_layer)
        rec.gpu_busy_s += t
        yield ("sleep", t)
        g16 = grads[l].astype(np.float16)
        yield ("sleep", delays.offload_s(g16.nbytes))
        buffer.ledger.messages_sent[l] += 1
        yield ("send", box, ("grad", GradMessage(l, g16, it)))


def _update_layer(cfg, delays, buffer, masters, layer, snapshot, rec, box):
    """One master update of ``layer`` from a gradient snapshot taken off the
    buffer: fetch the FP32 state, apply Adam, publish, store the state.

    Yields ("sleep", seconds) and ("send", box, ("publish", layer, p32,
    newest_iter)).
    """
    grad, _count, newest_iter = snapshot
    yield ("sleep", delays.state_fetch_s(cfg.state_bytes32))
    applied = masters.update_layer(layer, grad, cfg.hyper)
    buffer.ledger.record_apply(layer, float(np.sum(grad, dtype=np.float64)),
                               rejected=not applied)
    if not applied:
        rec.rejected_updates += 1
    yield ("sleep", delays.update_compute_s(cfg.state_bytes32))
    yield ("send", box, ("publish", layer, masters.p32[layer].copy(), newest_iter))
    yield ("sleep", delays.state_store_s(cfg.state_bytes32))


def _gpu_actor(cfg, delays, buffer, readout, teacher, boxes, iterations, rec,
               max_inflight):
    for it in range(iterations):
        if max_inflight is not None and it >= max_inflight:
            yield ("send", boxes["buf"], ("sync_check", it - max_inflight))
            yield ("recv", boxes["gpu"])
        yield from _gpu_iteration(cfg, delays, buffer, readout, teacher, it, rec,
                                  boxes["buf"])
    yield ("send", boxes["buf"], ("gpu_done",))


def _buffering_actor(buffer, boxes):
    gpu_done = False
    work_waiter = False
    sync_waiter: int | None = None
    while True:
        msg = yield ("recv", boxes["buf"])
        kind = msg[0]
        if kind == "grad":
            buffer.accumulate(msg[1])
            if work_waiter:
                work_waiter = False
                yield ("send", boxes["upd"], ("work", True, gpu_done))
        elif kind == "take":
            yield ("send", boxes["upd"], ("taken", msg[1], buffer.take(msg[1])))
        elif kind == "publish":
            _, layer, p32, newest_iter = msg
            buffer.publish(layer, p32, applied_iter=newest_iter)
            if sync_waiter is not None and buffer.min_applied_iter() >= sync_waiter:
                sync_waiter = None
                yield ("send", boxes["gpu"], ("proceed",))
        elif kind == "sync_check":
            if buffer.min_applied_iter() >= msg[1]:
                yield ("send", boxes["gpu"], ("proceed",))
            else:
                sync_waiter = msg[1]
        elif kind == "gpu_done":
            gpu_done = True
            if work_waiter:
                work_waiter = False
                yield ("send", boxes["upd"], ("work", buffer.total_pending() > 0, True))
        elif kind == "wait_work":
            if buffer.total_pending() > 0 or gpu_done:
                yield ("send", boxes["upd"], ("work", buffer.total_pending() > 0, gpu_done))
            else:
                work_waiter = True
        elif kind == "stop":
            return
        else:
            raise ProtocolError(f"buffering actor got unknown message {kind!r}")


def _updating_actor(cfg, delays, buffer, masters, boxes, rec):
    while True:
        yield ("send", boxes["buf"], ("wait_work",))
        _, has_pending, gpu_done = (yield ("recv", boxes["upd"]))
        if not has_pending and gpu_done:
            break
        for layer in reversed(range(cfg.num_layers)):
            yield ("send", boxes["buf"], ("take", layer))
            _, _, snapshot = (yield ("recv", boxes["upd"]))
            if snapshot is not None:
                yield from _update_layer(cfg, delays, buffer, masters, layer, snapshot,
                                         rec, boxes["buf"])
    yield ("send", boxes["buf"], ("stop",))


# -- reports and runners ---------------------------------------------------------


@dataclass(frozen=True)
class TrainReport:
    mode: str
    iterations: int
    batch_size: int
    loss_curve: tuple[float, ...]
    final_train_loss: float
    val_loss: float
    makespan_s: float
    samples_per_s: float
    gpu_busy_s: float
    gpu_idle_fraction: float
    staleness_histogram: dict[int, int]
    max_staleness: int
    conservation: dict
    rejected_updates: int
    publishes: int

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        if not math.isfinite(self.samples_per_s):
            out["samples_per_s"] = None  # a zero makespan; JSON has no infinity
        out["loss_curve"] = list(self.loss_curve)
        out["staleness_histogram"] = {str(k): v for k, v in
                                      sorted(self.staleness_histogram.items())}
        return out


def _make_report(mode, cfg, iterations, rec, buffer, readout, val, makespan) -> TrainReport:
    if not math.isfinite(makespan):
        raise ConfigError(f"{mode} makespan is {makespan}: a delay rate is too small")
    val_loss = validation_loss(buffer, readout, *val)
    diverged = [loss for loss in (*rec.loss_curve, val_loss) if not math.isfinite(loss)]
    if diverged:
        raise ConfigError(f"{mode} loss is {diverged[0]}: training diverged under the toy config")
    busy = rec.gpu_busy_s
    return TrainReport(
        mode=mode,
        iterations=iterations,
        batch_size=cfg.batch_size,
        loss_curve=tuple(rec.loss_curve),
        final_train_loss=rec.loss_curve[-1] if rec.loss_curve else math.nan,
        val_loss=val_loss,
        makespan_s=makespan,
        samples_per_s=iterations * cfg.batch_size / makespan if makespan > 0 else math.inf,
        gpu_busy_s=busy,
        gpu_idle_fraction=1.0 - busy / makespan if makespan > 0 else 0.0,
        staleness_histogram=dict(rec.staleness),
        max_staleness=max(rec.staleness) if rec.staleness else 0,
        conservation=buffer.ledger.summary(),
        rejected_updates=rec.rejected_updates,
        # every publish bumps one layer's version by one
        publishes=sum(buffer.version(l) for l in range(buffer.num_layers)),
    )


def run_lockfree(toy_cfg: ToyTrainConfig, delays: DelayModel, iterations: int, *,
                 max_inflight: int | None = None) -> TrainReport:
    """Train with the three concurrent actors on the virtual clock."""
    if iterations < 1:
        raise ConfigError("iterations must be >= 1")
    if max_inflight is not None and max_inflight < 1:
        raise ConfigError("max_inflight must be >= 1")  # 0 would never start an iteration
    teacher, student, readout, val = init_problem(toy_cfg)
    buffer = ParamBuffer(student)
    masters = MasterState(student)
    rec = _RunRecorder()

    runtime = VirtualRuntime()
    boxes = {"buf": runtime.mailbox(), "upd": runtime.mailbox(), "gpu": runtime.mailbox()}
    actors = [
        _gpu_actor(toy_cfg, delays, buffer, readout, teacher, boxes, iterations,
                   rec, max_inflight),
        _buffering_actor(buffer, boxes),
        _updating_actor(toy_cfg, delays, buffer, masters, boxes, rec),
    ]
    # a diverging run overflows to inf and nan; _make_report rejects its loss
    with np.errstate(over="ignore", invalid="ignore"):
        makespan = runtime.run(actors)
        return _make_report("lockfree", toy_cfg, iterations, rec, buffer, readout, val,
                            makespan)


def run_sync(toy_cfg: ToyTrainConfig, delays: DelayModel, iterations: int) -> TrainReport:
    """Synchronous baseline: each step blocks on the full update + publish."""
    if iterations < 1:
        raise ConfigError("iterations must be >= 1")
    cfg = toy_cfg
    teacher, student, readout, val = init_problem(cfg)
    buffer = ParamBuffer(student)
    masters = MasterState(student)
    rec = _RunRecorder()

    clock = 0.0

    def run(step):
        """Charge the step's sleeps to one clock; apply its sends in place."""
        nonlocal clock
        for effect in step:
            if effect[0] == "sleep":
                clock += effect[1]
            elif effect[2][0] == "grad":
                buffer.accumulate(effect[2][1])
            else:
                _, layer, p32, newest_iter = effect[2]
                buffer.publish(layer, p32, applied_iter=newest_iter)

    # a diverging run overflows to inf and nan; _make_report rejects its loss
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(iterations):
            run(_gpu_iteration(cfg, delays, buffer, readout, teacher, it, rec, None))
            # GPU blocks on the complete master update + publish
            for layer in reversed(range(cfg.num_layers)):
                snapshot = buffer.take(layer)
                if snapshot is not None:
                    run(_update_layer(cfg, delays, buffer, masters, layer, snapshot, rec,
                                      None))
        return _make_report("sync", cfg, iterations, rec, buffer, readout, val, clock)

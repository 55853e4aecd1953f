"""Derive per-tensor lifetimes and timing estimates from a model description.

The logical timeline of one training iteration is the 2n compute ops
``forward(l_0..l_{n-1})`` then ``backward(l_{n-1}..l_0})``; lifetimes are
intervals of logical op indices, never wall times. Parameters live from
their forward to their backward op; activations likewise unless
recomputation collapses intermediate ones into their own forward op;
parameter gradients exist only at the backward op. FP32 optimizer-state
tensors are CPU/SSD residents and carry no GPU lifetime here (the
lock-free module owns their CPU timeline).

Pure derivation; everything here is safe to call concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import REAL, ConfigError, check_fields, check_range
from .footprint import TensorSpec

# A100 compute rates, defined here once: TimingModel and HardwareProfile
# default to them, the a100-server preset names them, and the models derived
# from a profile (TimingModel, DelayModel) read them there. Activations and
# gradients are charged at an HBM-stream proxy, optimizer math at DDR's.
GPU_BYTES_PER_S = 600e9
CPU_BYTES_PER_S = 80e9


def forward_id(layer: int) -> int:
    return layer


def backward_id(layer: int, num_layers: int) -> int:
    """Its own inverse: also the layer of backward slot ``layer``."""
    return 2 * num_layers - 1 - layer


@dataclass(frozen=True)
class TensorTrace:
    """Lifetime record: first/last logical access plus production times."""

    tensor_id: int
    first_id: int
    end_id: int
    cpu_time: float
    gpu_time: float


@dataclass(frozen=True)
class TimingModel:
    """Per-tensor production-time estimates.

    kind="proportional": gpu time scales with produced activation/gradient
    bytes, cpu time with the optimizer-state bytes behind each parameter
    tensor (optims are exactly 3x the params bytes, i.e. 6x the param16
    half). kind="constant": flat per-tensor times. kind="table": explicit
    per-name lookup with (cpu_time, gpu_time) values.
    """

    kind: str = "proportional"
    gpu_sec_per_byte: float = 1.0 / GPU_BYTES_PER_S
    cpu_sec_per_byte: float = 1.0 / CPU_BYTES_PER_S
    gpu_time_const: float = 1e-3
    cpu_time_const: float = 1e-3
    table: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("gpu_sec_per_byte", "cpu_sec_per_byte", "gpu_time_const", "cpu_time_const"):
            check_range(f"timing {name!r}", getattr(self, name), 0)
        for name, times in self.table.items():
            for t in times:
                check_range(f"timing 'table' entry {name!r}", t, 0)

    def times_for(self, spec: TensorSpec) -> tuple[float, float]:
        """Returns (cpu_time, gpu_time) for producing this tensor."""
        if self.kind == "table":
            if spec.name not in self.table:
                raise ConfigError(f"timing table has no entry for {spec.name!r}")
            cpu, gpu = self.table[spec.name]
            return float(cpu), float(gpu)
        if self.kind == "constant":
            if spec.kind == "param16":
                return self.cpu_time_const, 0.0
            if spec.kind in ("activation16", "grad16"):
                return 0.0, self.gpu_time_const
            return 0.0, 0.0
        if self.kind == "proportional":
            if spec.kind in ("activation16", "grad16"):
                return 0.0, spec.bytes * self.gpu_sec_per_byte
            if spec.kind == "param16":
                return 6 * spec.bytes * self.cpu_sec_per_byte, 0.0
            return 0.0, 0.0
        raise ConfigError(f"unknown timing model kind {self.kind!r}")

    @classmethod
    def from_dict(cls, raw) -> "TimingModel":
        """A timing model read from JSON, each ``table`` entry a [cpu, gpu] list."""
        table = check_fields("timing", raw, _TIMING_FIELDS).get("table", {})
        for name, times in table.items():
            if type(times) is not list or len(times) != 2 or \
                    not {type(t) for t in times} <= set(REAL):
                raise ConfigError(f"timing 'table' entry {name!r} must be a "
                                  f"[cpu_time, gpu_time] pair of reals, not {times!r}")
        return cls(**{**raw, "table": {name: tuple(times) for name, times in table.items()}})


_TIMING_FIELDS = {"kind": (str,), "gpu_sec_per_byte": REAL, "cpu_sec_per_byte": REAL,
                  "gpu_time_const": REAL, "cpu_time_const": REAL, "table": (dict,)}


def _is_checkpoint_act(spec: TensorSpec) -> bool:
    # The layer's boundary output (final LayerNorm activation) is kept under
    # recomputation; everything else internal regenerates during backward.
    return spec.name.endswith("post_ffn.layer_norm.act16")


def build_trace(
    inventory: list[TensorSpec],
    timing_model: TimingModel | None = None,
    recompute_policy: bool = False,
) -> list[TensorTrace]:
    """Lifetimes for every GPU-resident tensor in the inventory.

    Tensor ids are inventory list indices. Optimizer-state tensors are
    skipped (no GPU lifetime). With ``recompute_policy`` on, intermediate
    activations collapse to their forward op while checkpointed boundary
    activations keep their regeneration access at the backward op.
    """
    if not inventory:
        raise ConfigError("empty tensor inventory")
    timing = timing_model or TimingModel()
    n = max(spec.layer_index for spec in inventory) + 1
    traces: list[TensorTrace] = []
    for tensor_id, spec in enumerate(inventory):
        if spec.kind == "optim32":
            continue
        cpu_t, gpu_t = timing.times_for(spec)
        fwd, bwd = forward_id(spec.layer_index), backward_id(spec.layer_index, n)
        if spec.kind in ("param16",):
            first, end = fwd, bwd
        elif spec.kind == "grad16":
            first = end = bwd
        else:  # activation16
            if recompute_policy and not _is_checkpoint_act(spec):
                first = end = fwd
            else:
                first, end = fwd, bwd
        traces.append(TensorTrace(tensor_id, first, end, cpu_t, gpu_t))
    return traces


def validate_trace(traces: list[TensorTrace], num_layers: int) -> list[str]:
    """Empty list iff ids are unique integers, every trace fits the 2n ops of
    an n-layer iteration and every production time is a finite number >= 0."""
    num_ops = 2 * num_layers
    violations: list[str] = []
    seen: set[int] = set()
    for tr in traces:
        not_int = [name for name in ("tensor_id", "first_id", "end_id")
                   if type(getattr(tr, name)) is not int]
        if not_int:
            violations.append(f"tensor {tr.tensor_id!r}: {', '.join(not_int)} not an integer")
            continue
        if tr.tensor_id in seen:
            violations.append(f"tensor {tr.tensor_id}: duplicate tensor_id")
        seen.add(tr.tensor_id)
        if tr.first_id > tr.end_id:
            violations.append(
                f"tensor {tr.tensor_id}: first_id {tr.first_id} > end_id {tr.end_id}"
            )
        if tr.first_id < 0 or tr.end_id >= num_ops:
            violations.append(
                f"tensor {tr.tensor_id}: lifetime [{tr.first_id}, {tr.end_id}] outside "
                f"[0, {num_ops})"
            )
        not_real = [name for name in ("cpu_time", "gpu_time")  # a bool is no number here
                    if not isinstance(v := getattr(tr, name), REAL) or type(v) is bool]
        if not_real:
            violations.append(f"tensor {tr.tensor_id}: {', '.join(not_real)} not a number")
        elif not all(0 <= t < math.inf for t in (tr.cpu_time, tr.gpu_time)):
            violations.append(f"tensor {tr.tensor_id}: production time negative or not finite")
    return violations

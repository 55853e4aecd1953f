"""Analytical memory-footprint model for decoder-style Transformer layers.

Closed-form byte counts per layer for FP16 parameters+gradients ("params"),
FP16 activations+their gradients ("acts"), and FP32 optimizer state
(master params, first and second moments, "optims") under mixed-precision
training with Adam. Totals drop the small per-layer terms (LayerNorm
params, attention-score activations) unless ``exact=True``; embedding
lookup and the loss head are excluded throughout.

All arithmetic is exact integer arithmetic.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import Literal

from .errors import ConfigError, check_fields, check_range

MIB = 2**20
GIB = 2**30

Kind = Literal["param16", "grad16", "optim32", "activation16"]

KINDS: tuple[Kind, ...] = ("param16", "grad16", "optim32", "activation16")


@dataclass(frozen=True)
class TransformerConfig:
    """Model shape driving the footprint model."""

    batch_size: int
    seq_len: int
    d_model: int
    d_ffn: int
    num_layers: int = 1
    num_heads: int = 1

    def __post_init__(self):
        for f in fields(self):
            check_range(f"model config {f.name!r}", getattr(self, f.name), 1, finite=False)
        if self.d_model % self.num_heads != 0:
            raise ConfigError(
                f"d_model ({self.d_model}) must be divisible by num_heads ({self.num_heads})"
            )

    @classmethod
    def from_dict(cls, raw) -> "TransformerConfig":
        required = [f.name for f in fields(cls) if f.default is MISSING]
        return cls(**check_fields("model config", raw, {f.name: (int,) for f in fields(cls)},
                                  required=required))


@dataclass(frozen=True)
class FootprintRow:
    """One table row: byte counts for a single fused operation of the layer."""

    block: str
    layer_name: str
    params_bytes: int
    acts_bytes: int
    optims_bytes: int


@dataclass(frozen=True)
class LayerFootprint:
    """Per-row byte counts plus totals for a single Transformer layer."""

    rows: tuple[FootprintRow, ...]
    params_bytes: int
    acts_bytes: int
    optims_bytes: int
    exact: bool

    def row_sums(self) -> tuple[int, int, int]:
        return (
            sum(r.params_bytes for r in self.rows),
            sum(r.acts_bytes for r in self.rows),
            sum(r.optims_bytes for r in self.rows),
        )


@dataclass(frozen=True)
class TensorSpec:
    """A logical tensor bridging the footprint model to allocation and tracing."""

    name: str
    kind: Kind
    bytes: int
    layer_index: int

    def __post_init__(self):
        if self.bytes <= 0:
            raise ConfigError(f"tensor {self.name!r} has non-positive size {self.bytes}")
        if self.kind not in KINDS:
            raise ConfigError(f"tensor {self.name!r} has unknown kind {self.kind!r}")
        if self.layer_index < 0:
            raise ConfigError(f"tensor {self.name!r} has negative layer_index {self.layer_index}")


def layer_rows(cfg: TransformerConfig) -> tuple[FootprintRow, ...]:
    """All twelve per-layer rows, exact (no terms dropped)."""
    b, s, dm, dffn = cfg.batch_size, cfg.seq_len, cfg.d_model, cfg.d_ffn
    bs = b * s
    return (
        FootprintRow("attn", "linear_qkv", 12 * dm * dm, 12 * bs * dm, 36 * dm * dm),
        FootprintRow("attn", "matmul_scores", 0, 4 * bs, 0),
        FootprintRow("attn", "scaled_mask_softmax", 0, 4 * bs, 0),
        FootprintRow("attn", "matmul_context", 0, 4 * bs * dm, 0),
        FootprintRow("attn", "linear_out", 4 * dm * dm, 4 * bs * dm, 12 * dm * dm),
        FootprintRow("post_attn", "add", 0, 4 * bs * dm, 0),
        FootprintRow("post_attn", "layer_norm", 4 * dm, 4 * bs * dm, 12 * dm),
        FootprintRow("ffn", "linear_in", 4 * dm * dffn, 4 * bs * dffn, 12 * dm * dffn),
        FootprintRow("ffn", "gelu", 0, 4 * bs * dffn, 0),
        FootprintRow("ffn", "linear_out", 4 * dm * dffn, 4 * bs * dm, 12 * dm * dffn),
        FootprintRow("post_ffn", "add", 0, 4 * bs * dm, 0),
        FootprintRow("post_ffn", "layer_norm", 4 * dm, 4 * bs * dm, 12 * dm),
    )


def ignored_terms(cfg: TransformerConfig) -> tuple[int, int, int]:
    """Per-layer (params, acts, optims) bytes dropped from the non-exact totals.

    Dropped terms: the two LayerNorm params rows (8*d_model), the two
    attention-score acts rows (8*b*s), and the LayerNorm optimizer rows
    (24*d_model).
    """
    bs = cfg.batch_size * cfg.seq_len
    return 8 * cfg.d_model, 8 * bs, 24 * cfg.d_model


def layer_footprint(cfg: TransformerConfig, exact: bool = False) -> LayerFootprint:
    """Byte footprint of a single layer.

    With ``exact=False`` the totals are the closed forms
    params = 16*d_m^2 + 8*d_m*d_ffn, acts = 40*b*s*d_m + 8*b*s*d_ffn,
    optims = 48*d_m^2 + 24*d_m*d_ffn; ``exact=True`` adds back the small
    dropped terms so that totals equal the row sums.
    """
    rows = layer_rows(cfg)
    params = sum(r.params_bytes for r in rows)
    acts = sum(r.acts_bytes for r in rows)
    optims = sum(r.optims_bytes for r in rows)
    if not exact:
        ign_p, ign_a, ign_o = ignored_terms(cfg)
        params -= ign_p
        acts -= ign_a
        optims -= ign_o
    return LayerFootprint(rows, params, acts, optims, exact)


def model_footprint(cfg: TransformerConfig, exact: bool = False) -> dict[str, int]:
    """Whole-model byte footprint: num_layers times the per-layer totals."""
    per_layer = layer_footprint(cfg, exact=exact)
    n = cfg.num_layers
    return {
        "params_bytes": n * per_layer.params_bytes,
        "acts_bytes": n * per_layer.acts_bytes,
        "optims_bytes": n * per_layer.optims_bytes,
    }


def param_count(cfg: TransformerConfig) -> int:
    """FP16 parameter element count for the whole model.

    The params byte total counts parameter and gradient copies at 2 bytes
    each, so elements per layer = (16*d_m^2 + 8*d_m*d_ffn) / 4.
    """
    per_layer = 4 * cfg.d_model * cfg.d_model + 2 * cfg.d_model * cfg.d_ffn
    return cfg.num_layers * per_layer


# Logical sub-tensors of each fused param-bearing row, in emission order.
_LOGICAL_SPLITS = {
    "linear_qkv": ("q", "k", "v"),
    "layer_norm": ("weight", "bias"),
}


def tensor_inventory(
    cfg: TransformerConfig, granularity: str = "per_table_row"
) -> list[TensorSpec]:
    """Deterministic, ordered tensor inventory for the whole model.

    ``per_table_row`` emits one tensor per (row, kind); ``per_logical_tensor``
    additionally splits fused rows (Q/K/V projections, LayerNorm weight+bias)
    into their constituents. The list index is the tensor id used by the
    tracer and scheduler. Params are split evenly into a param16 and a
    grad16 tensor, so per layer their bytes sum to the full params row sum
    including the small LayerNorm terms.
    """
    if granularity not in ("per_table_row", "per_logical_tensor"):
        raise ConfigError(f"unknown granularity {granularity!r}")
    split = granularity == "per_logical_tensor"
    specs: list[TensorSpec] = []
    for layer in range(cfg.num_layers):
        for row in layer_rows(cfg):
            parts = _LOGICAL_SPLITS.get(row.layer_name, ()) if split else ()
            base = f"L{layer}.{row.block}.{row.layer_name}"
            if row.params_bytes:
                names = [f"{base}.{p}" for p in parts] if parts else [base]
                k = len(names)
                for name in names:
                    specs.append(TensorSpec(f"{name}.param16", "param16", row.params_bytes // 2 // k, layer))
                for name in names:
                    specs.append(TensorSpec(f"{name}.grad16", "grad16", row.params_bytes // 2 // k, layer))
                for name in names:
                    specs.append(TensorSpec(f"{name}.optim32", "optim32", row.optims_bytes // k, layer))
            if row.acts_bytes:
                act_parts = ("q", "k", "v") if (split and row.layer_name == "linear_qkv") else ()
                names = [f"{base}.{p}" for p in act_parts] if act_parts else [base]
                k = len(names)
                for name in names:
                    specs.append(TensorSpec(f"{name}.act16", "activation16", row.acts_bytes // k, layer))
    return specs

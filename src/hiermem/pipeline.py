"""The whole pipeline on one config: footprint -> inventory -> trace ->
schedule (both phases) -> simulate (both), as one report."""
from __future__ import annotations

from . import footprint as fp
from . import pagemem as pm
from . import presets
from .errors import ConfigError, check_fields
from .jsonio import SCHEMA_VERSION
from .scheduler import LayerModel, ShardingModel, peak_memory, schedule
from .simengine import compare, simulate
from .tracer import build_trace

# Every pipeline config key with its types, and the defaults of the optional
# ones; a world_size of None means the hardware's num_gpus.
_PIPELINE_TYPES = {
    "model": (str, dict), "gpu_budget_bytes": (int,), "hardware": (str, dict),
    "page_bytes": (int,), "recompute": (bool,), "granularity": (str,),
    "world_size": (int, type(None)), "rank": (int,), "iterations": (int,),
    "update_mode": (str,), "optimizer_tier": (str,), "phase": (str,), "seed": (int,),
}
_PIPELINE_DEFAULTS = {
    "hardware": "preset:a100-server", "page_bytes": pm.PAGE_BYTES_DEFAULT, "recompute": False,
    "granularity": "per_table_row", "world_size": None, "rank": 0, "iterations": 1,
    "update_mode": "none", "optimizer_tier": "ssd", "phase": "phase2", "seed": 0,
}


def run_pipeline(config: dict) -> dict:
    """footprint -> inventory -> trace -> schedule (both phases) -> simulate (both)."""
    c = {**_PIPELINE_DEFAULTS, **check_fields("pipeline config", config, _PIPELINE_TYPES,
                                              required=("model", "gpu_budget_bytes"))}
    if c["phase"] not in ("phase1", "phase2"):
        raise ConfigError(f"phase must be 'phase1' or 'phase2', not {c['phase']!r}")
    cfg = presets.resolve_model(c["model"])
    profile = presets.resolve_hardware(c["hardware"])
    if c["world_size"] is None:
        c["world_size"] = profile.num_gpus

    model_fp = fp.model_footprint(cfg)
    layer_fp = fp.layer_footprint(cfg)
    inventory = fp.tensor_inventory(cfg, c["granularity"])
    traces = build_trace(inventory, profile.timing_model(), recompute_policy=c["recompute"])
    model = LayerModel.from_inventory(inventory, c["page_bytes"], cfg.batch_size)
    sharding = ShardingModel(c["world_size"], c["rank"])

    phase1 = schedule(model, traces, c["gpu_budget_bytes"], sharding, phase1_only=True)
    phase2 = schedule(model, traces, c["gpu_budget_bytes"], sharding)
    sim_args = {k: c[k] for k in ("iterations", "update_mode", "optimizer_tier")}
    sim1 = simulate(phase1, traces, profile, **sim_args)
    sim2 = simulate(phase2, traces, profile, **sim_args)
    chosen = phase2 if c["phase"] == "phase2" else phase1

    report = {
        "schema_version": SCHEMA_VERSION,
        "config": {**c, "model": cfg.__dict__, "hardware": profile.to_dict()},
        "footprint": {
            "per_layer": {
                "params_bytes": layer_fp.params_bytes,
                "acts_bytes": layer_fp.acts_bytes,
                "optims_bytes": layer_fp.optims_bytes,
            },
            "model": model_fp,
            "model_gib": {k: v / fp.GIB for k, v in model_fp.items()},
            "param_count": fp.param_count(cfg),
        },
        "schedule": {
            "phase1": {"num_tasks": len(phase1.columns),
                       "peak_bytes": peak_memory(phase1, traces)},
            "phase2": {"num_tasks": len(phase2.columns),
                       "peak_bytes": peak_memory(phase2, traces)},
            "selected_phase": chosen.phase,
        },
        "simulation": {
            "phase1": sim1.to_dict(),
            "phase2": sim2.to_dict(),
            "phase1_vs_phase2": compare(sim1, sim2),
        },
    }
    return report

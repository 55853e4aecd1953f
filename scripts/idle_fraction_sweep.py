#!/usr/bin/env python3
"""Sweep batch size and report GPU idle fractions with synchronous updates.

Shows the SSD-resident-state pathology (GPU mostly idle waiting on the
optimizer pipeline) against the CPU-resident baseline.
"""
import argparse

from hiermem.footprint import GIB, TransformerConfig, tensor_inventory
from hiermem.presets import hardware_preset
from hiermem.scheduler import LayerModel, ShardingModel, schedule
from hiermem.simengine import simulate
from hiermem.tracer import build_trace


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batches", type=int, nargs="+",
                        default=[8, 16, 24, 48, 96])
    parser.add_argument("--layers", type=int, default=24)
    parser.add_argument("--d-model", type=int, default=2304)
    parser.add_argument("--d-ffn", type=int, default=9216)
    parser.add_argument("--budget-gib", type=int, default=400)
    parser.add_argument("--iterations", type=int, default=2)
    args = parser.parse_args()

    profile = hardware_preset("a100-server")
    timing = profile.timing_model()
    print(f"{'batch':>6} {'idle (SSD states)':>18} {'idle (CPU states)':>18}")
    for batch in args.batches:
        cfg = TransformerConfig(batch, 2048, args.d_model, args.d_ffn,
                                args.layers, 1)
        inventory = tensor_inventory(cfg)
        traces = build_trace(inventory, timing)
        model = LayerModel.from_inventory(inventory, 4 * 2**20, batch)
        sched = schedule(model, traces, args.budget_gib * GIB,
                         ShardingModel(profile.num_gpus, 0))
        idle = {}
        for tier in ("ssd", "cpu"):
            report = simulate(sched, traces, profile, iterations=args.iterations,
                              update_mode="sync", optimizer_tier=tier)
            idle[tier] = report.gpu_idle_fraction
        print(f"{batch:>6} {idle['ssd']:>18.3f} {idle['cpu']:>18.3f}")


if __name__ == "__main__":
    main()

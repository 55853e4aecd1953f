#!/usr/bin/env python3
"""Sweep the page size and report phase 2's makespan, GPU idle fraction,
peak and task count.

This is the paper's page trade-off as a model output: finer pages fit a
tight GPU budget more closely, and each one pays a link latency. The
defaults are the full gpt3-175b preset at 80 GiB on rank 0 of 8, with
recompute, at 4, 1 and 0.5 MiB pages. The numbers are simulated seconds;
the sweep is not part of the pipeline report.
"""
import argparse

from hiermem.errors import InfeasibleScheduleError
from hiermem.footprint import GIB, tensor_inventory
from hiermem.presets import hardware_preset, resolve_model
from hiermem.scheduler import LayerModel, ShardingModel, peak_memory, schedule
from hiermem.simengine import simulate
from hiermem.tracer import build_trace

MIB = 2**20


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--model", default="preset:gpt3-175b")
    parser.add_argument("--page-mib", type=float, nargs="+", default=[4, 1, 0.5])
    parser.add_argument("--budget-gib", type=float, default=80)
    parser.add_argument("--world-size", type=int, default=8)
    args = parser.parse_args()

    cfg = resolve_model(args.model)
    profile = hardware_preset("a100-server")
    inventory = tensor_inventory(cfg)
    traces = build_trace(inventory, profile.timing_model(), recompute_policy=True)
    sharding = ShardingModel(args.world_size, 0)
    budget = int(args.budget_gib * GIB)
    print(f"{'page MiB':>8} {'tasks':>9} {'phase-2 peak GiB':>17} {'makespan s':>11} "
          f"{'gpu idle':>9}")
    for page_mib in args.page_mib:
        model = LayerModel.from_inventory(inventory, int(page_mib * MIB), cfg.batch_size)
        try:
            sched = schedule(model, traces, budget, sharding)
        except InfeasibleScheduleError:
            print(f"{page_mib:>8g} {'infeasible':>9}")
            continue
        report = simulate(sched, traces, profile)
        print(f"{page_mib:>8g} {len(sched.columns):>9} "
              f"{peak_memory(sched, traces) / GIB:>17.3f} {report.makespan_s:>11.3f} "
              f"{report.gpu_idle_fraction:>9.3f}")


if __name__ == "__main__":
    main()

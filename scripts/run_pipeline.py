#!/usr/bin/env python3
"""Run the full pipeline on a preset model and print the headline numbers."""
import argparse

from hiermem.footprint import GIB
from hiermem.jsonio import write_json
from hiermem.pipeline import run_pipeline


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="preset:tiny-2layer")
    parser.add_argument("--gpu-budget-gib", type=float, default=1.0)
    parser.add_argument("--world-size", type=int, default=None)
    parser.add_argument("--iterations", type=int, default=1)
    parser.add_argument("--update-mode", choices=["none", "sync"], default="none")
    parser.add_argument("--recompute", action="store_true")
    parser.add_argument("--out", help="write the full JSON report here")
    args = parser.parse_args()

    config = {
        "model": args.model,
        "hardware": "preset:a100-server",
        "gpu_budget_bytes": int(args.gpu_budget_gib * GIB),
        "iterations": args.iterations,
        "update_mode": args.update_mode,
        "recompute": args.recompute,
    }
    if args.world_size:
        config["world_size"] = args.world_size
    report = run_pipeline(config)

    fp = report["footprint"]["model_gib"]
    print(f"model footprint: params {fp['params_bytes']:.2f} GiB, "
          f"acts {fp['acts_bytes']:.2f} GiB, optims {fp['optims_bytes']:.2f} GiB")
    for phase in ("phase1", "phase2"):
        sched = report["schedule"][phase]
        sim = report["simulation"][phase]
        print(f"{phase}: {sched['num_tasks']} tasks, peak {sched['peak_bytes'] / GIB:.3f} GiB, "
              f"makespan {sim['makespan_s'] * 1e3:.3f} ms, "
              f"gpu idle {sim['gpu_idle_fraction']:.3f}")
    print(f"phase1 -> phase2 speedup: "
          f"{report['simulation']['phase1_vs_phase2']['speedup']:.3f}x")
    if args.out:  # the bytes `hiermem pipeline --out` writes for this config
        write_json(report, args.out)
        print(f"report written to {args.out}")


if __name__ == "__main__":
    main()

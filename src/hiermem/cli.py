"""The command-line front end: it parses arguments, calls the library,
writes outputs (through ``jsonio``) and maps errors to exit codes.

Subcommands: footprint, pagemem-demo, trace, schedule, simulate, lockfree,
pipeline, plot. Configs and reports are JSON (reports carry a
schema_version). ``plot`` turns a report into CSV: the timeline of a
simulate or pipeline report, a lockfree report's loss curve, or resource
utilization. ``--out`` absent or "-" is stdout. Exit codes: 0 ok, 1 usage
(bad arguments, inputs or outputs), 2 infeasible schedule, 3 internal error.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import sys

from . import footprint as fp
from . import lockfree as lf
from . import pagemem as pm
from . import presets
from .errors import REAL, ConfigError, InfeasibleScheduleError, check_fields, check_type
from .jsonio import SCHEMA_VERSION, load_json, open_output, write_json
from .pipeline import run_pipeline
from .scheduler import LayerModel, Schedule, ShardingModel, check_traces, peak_memory, schedule
from .simengine import simulate
from .tracer import TensorTrace, TimingModel, build_trace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise ConfigError(message)


def _timing_from_file(path: str | None) -> TimingModel:
    return TimingModel.from_dict(load_json(path)) if path else TimingModel()


def _resolve_config(args) -> fp.TransformerConfig:
    if getattr(args, "preset", None):
        return presets.model_preset(args.preset)
    if getattr(args, "config", None):
        return presets.resolve_model(load_json(args.config))
    raise ConfigError("provide --config FILE or --preset NAME")


# -- footprint ----------------------------------------------------------------

_UNITS = {"B": 1, "MiB": fp.MIB, "GiB": fp.GIB}


def cmd_footprint(args) -> int:
    cfg = _resolve_config(args)
    unit = _UNITS[args.unit]

    def conv(nbytes: int):
        return nbytes if unit == 1 else nbytes / unit

    layer = fp.layer_footprint(cfg, exact=args.exact)
    model = fp.model_footprint(cfg, exact=args.exact)
    rows = [
        {"block": r.block, "layer": r.layer_name,
         "params": conv(r.params_bytes), "acts": conv(r.acts_bytes),
         "optims": conv(r.optims_bytes)}
        for r in layer.rows
    ]
    totals = {
        "per_layer": {"params": conv(layer.params_bytes), "acts": conv(layer.acts_bytes),
                      "optims": conv(layer.optims_bytes)},
        "model": {k.replace("_bytes", ""): conv(v) for k, v in model.items()},
    }
    if args.format == "json":
        write_json({"schema_version": SCHEMA_VERSION, "unit": args.unit,
                    "exact": args.exact, "num_layers": cfg.num_layers,
                    "rows": rows, "totals": totals}, args.out)
        return EXIT_OK
    with open_output(args.out) as fh:
        if args.format == "csv":
            writer = csv.writer(fh)
            writer.writerow(["block", "layer", f"params_{args.unit}",
                             f"acts_{args.unit}", f"optims_{args.unit}"])
            for r in rows:
                writer.writerow([r["block"], r["layer"], r["params"], r["acts"], r["optims"]])
            writer.writerow(["total", "per_layer", totals["per_layer"]["params"],
                             totals["per_layer"]["acts"], totals["per_layer"]["optims"]])
            writer.writerow(["total", f"model_x{cfg.num_layers}", totals["model"]["params"],
                             totals["model"]["acts"], totals["model"]["optims"]])
            return EXIT_OK
        width = 24

        def fmt(v):
            return str(v) if isinstance(v, int) else f"{v:.6g}"

        print(f"{'block':<10}{'layer':<{width}}{'params':>16}{'acts':>16}{'optims':>16}  [{args.unit}]", file=fh)
        for r in rows:
            print(f"{r['block']:<10}{r['layer']:<{width}}{fmt(r['params']):>16}{fmt(r['acts']):>16}{fmt(r['optims']):>16}", file=fh)
        t = totals["per_layer"]
        print(f"{'total':<10}{'per layer':<{width}}{fmt(t['params']):>16}{fmt(t['acts']):>16}{fmt(t['optims']):>16}", file=fh)
        t = totals["model"]
        print(f"{'total':<10}{f'model ({cfg.num_layers} layers)':<{width}}{fmt(t['params']):>16}{fmt(t['acts']):>16}{fmt(t['optims']):>16}", file=fh)
    return EXIT_OK


# -- pagemem demo ---------------------------------------------------------------

def cmd_pagemem_demo(args) -> int:
    pools = check_fields("pool spec", load_json(args.pool_spec), {"pools": (list,)},
                         required=["pools"])["pools"]
    ops = load_json(args.ops)
    if not isinstance(ops, list):
        raise ConfigError(f"{args.ops}: an ops script is a JSON list of ops")
    log, state = pm.replay(pools, ops)
    write_json({"schema_version": SCHEMA_VERSION, "log": log, "state": state}, args.out)
    return EXIT_OK


# -- trace ------------------------------------------------------------------------

def cmd_trace(args) -> int:
    cfg = _resolve_config(args)
    inventory = fp.tensor_inventory(cfg, args.granularity)
    timing = _timing_from_file(args.timing)
    traces = build_trace(inventory, timing, recompute_policy=args.recompute)
    write_json([t.__dict__ for t in traces], args.out)
    return EXIT_OK


def _traces_from_file(path: str, model: LayerModel) -> list[TensorTrace]:
    """Traces read from a file, once ``check_traces`` finds they match the model."""
    try:
        traces = [TensorTrace(**t) for t in load_json(path)]
    except TypeError as exc:  # not a list of objects with the trace fields
        raise ConfigError(f"bad trace in {path}: {exc}") from None
    check_traces(model, traces, path)
    return traces


# -- schedule ----------------------------------------------------------------------

def cmd_schedule(args) -> int:
    cfg = _resolve_config(args)
    inventory = fp.tensor_inventory(cfg, args.granularity)
    model = LayerModel.from_inventory(inventory, args.page_bytes, cfg.batch_size)
    traces = _traces_from_file(args.traces, model) if args.traces else build_trace(inventory)
    sharding = ShardingModel(args.world_size, args.rank)
    sched = schedule(model, traces, args.gpu_budget, sharding,
                     phase1_only=args.phase1_only)
    write_json({**sched.to_dict(), "schema_version": SCHEMA_VERSION,
                "peak_bytes": peak_memory(sched, traces)}, args.out)
    return EXIT_OK


# -- simulate ----------------------------------------------------------------------

def cmd_simulate(args) -> int:
    sched = Schedule.from_dict(load_json(args.schedule))
    traces = _traces_from_file(args.traces, sched.model)
    profile = presets.resolve_hardware(
        args.profile if args.profile.startswith("preset:") else load_json(args.profile)
    )
    report = simulate(sched, traces, profile, iterations=args.iterations,
                      update_mode=args.update_mode, optimizer_tier=args.optimizer_tier)
    write_json({**report.to_dict(), "schema_version": SCHEMA_VERSION}, args.out)
    return EXIT_OK


# -- lockfree ----------------------------------------------------------------------

def _delays_from_arg(arg: str) -> lf.DelayModel:
    if arg.startswith("preset:"):
        return lf.DelayModel.preset(arg.removeprefix("preset:"))
    return lf.DelayModel.from_profile(presets.resolve_hardware(load_json(arg)), "ssd")


def cmd_lockfree(args) -> int:
    cfg = lf.ToyTrainConfig.from_dict(load_json(args.toy_config) if args.toy_config else {})
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.mode == "sync" and args.max_inflight is not None:
        raise ConfigError("--max-inflight applies only to --mode lockfree")
    delays = _delays_from_arg(args.delays)
    if args.mode == "sync":
        report = lf.run_sync(cfg, delays, args.iters)
    else:
        report = lf.run_lockfree(cfg, delays, args.iters,
                                 max_inflight=args.max_inflight)
    write_json({**report.to_dict(), "schema_version": SCHEMA_VERSION}, args.out)
    return EXIT_OK


# -- pipeline ----------------------------------------------------------------------

def cmd_pipeline(args) -> int:
    if args.preset:
        config = {"model": f"preset:{args.preset}", "gpu_budget_bytes": 16 * fp.GIB}
    elif args.config:
        config = load_json(args.config)
    else:
        raise ConfigError("provide --config FILE or --preset NAME")
    if args.gpu_budget is not None and isinstance(config, dict):  # run_pipeline rejects the rest
        config = {**config, "gpu_budget_bytes": args.gpu_budget}
    report = run_pipeline(config)
    write_json(report, args.out)
    return EXIT_OK


# -- plot --------------------------------------------------------------------------

# The fields of one timeline entry, in the order of the CSV columns.
_TIMELINE_ENTRY = {"task_id": (str,), "operation": (str,), "resource": (str,),
                   "start_s": REAL, "end_s": REAL}


def _plot_source(report, key: str, section: str | None) -> dict:
    """The object whose ``key`` a plot reads: the report itself or, when it
    has no ``key`` and ``section`` is given, a pipeline report's
    ``simulation`` ``section``."""
    check_type("report", report, (dict,))
    if report.get(key) is None and section is not None:
        sims = report.get("simulation", {})
        check_type("report 'simulation'", sims, (dict,))
        if sims.get(section) is not None:
            check_type(f"report 'simulation' {section!r}", sims[section], (dict,))
            report = sims[section]
    if report.get(key) is None:
        raise ConfigError(f"report has no {key} section")
    return report


def _check_numbers(what: str, values, container: type) -> None:
    """ConfigError unless ``values`` is a ``container`` (list or dict) of numbers."""
    check_type(what, values, (container,))
    for k, v in (values.items() if container is dict else enumerate(values)):
        check_type(f"{what} [{k!r}]", v, REAL)


def cmd_plot(args) -> int:
    report = load_json(args.report)
    rows: list[list] = []
    if args.kind == "timeline":
        timeline = _plot_source(report, "timeline", args.section)["timeline"]
        check_type("report 'timeline'", timeline, (list,))
        rows.append(list(_TIMELINE_ENTRY))
        for i, e in enumerate(timeline):
            check_fields(f"report 'timeline' entry {i}", e, _TIMELINE_ENTRY,
                         required=_TIMELINE_ENTRY)
            rows.append([e[k] for k in _TIMELINE_ENTRY])
    elif args.kind == "loss":
        curve = _plot_source(report, "loss_curve", None)["loss_curve"]
        _check_numbers("report 'loss_curve'", curve, list)
        rows.append(["iteration", "loss"])
        rows += [[i, v] for i, v in enumerate(curve)]
    elif args.kind == "utilization":
        source = _plot_source(report, "utilization", args.section)
        util, busy = source["utilization"], source.get("busy_s", {})
        _check_numbers("report 'utilization'", util, dict)
        _check_numbers("report 'busy_s'", busy, dict)
        rows.append(["resource", "busy_s", "utilization"])
        rows += [[r, busy.get(r, 0.0), u] for r, u in sorted(util.items())]
    else:
        raise ConfigError(f"unknown plot kind {args.kind!r}")

    with open_output(args.out) as fh:
        csv.writer(fh).writerows(rows)
    return EXIT_OK


# -- parser ------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="hiermem", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("footprint", help="closed-form layer/model byte footprints")
    p.add_argument("--config")
    p.add_argument("--preset")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--format", choices=["json", "csv", "table"], default="table")
    p.add_argument("--unit", choices=list(_UNITS), default="B")
    p.add_argument("--out")
    p.set_defaults(func=cmd_footprint)

    p = sub.add_parser("pagemem-demo", help="replay an allocator op script")
    p.add_argument("--pool-spec", required=True)
    p.add_argument("--ops", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pagemem_demo)

    p = sub.add_parser("trace", help="emit tensor lifetime traces")
    p.add_argument("--config")
    p.add_argument("--preset")
    p.add_argument("--timing")
    p.add_argument("--recompute", action="store_true")
    p.add_argument("--granularity", choices=["per_table_row", "per_logical_tensor"],
                   default="per_table_row")
    p.add_argument("--out")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("schedule", help="emit the two-phase page task schedule")
    p.add_argument("--config")
    p.add_argument("--preset")
    p.add_argument("--traces")
    p.add_argument("--gpu-budget", type=int, required=True)
    p.add_argument("--page-bytes", type=int, default=pm.PAGE_BYTES_DEFAULT)
    p.add_argument("--world-size", type=int, default=1)
    p.add_argument("--rank", type=int, default=0)
    p.add_argument("--granularity", choices=["per_table_row", "per_logical_tensor"],
                   default="per_table_row")
    p.add_argument("--phase1-only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("simulate", help="discrete-event replay of a schedule")
    p.add_argument("--schedule", required=True)
    p.add_argument("--traces", required=True)
    p.add_argument("--profile", default="preset:a100-server")
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument("--update-mode", choices=["none", "sync"], default="none")
    p.add_argument("--optimizer-tier", choices=["ssd", "cpu"], default="ssd")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("lockfree", help="toy trainer with the lock-free protocol")
    p.add_argument("--toy-config")
    p.add_argument("--delays", default="preset:ssd",
                   help="preset:ssd, preset:cpu, preset:zero, or FILE: a hardware profile")
    p.add_argument("--mode", choices=["sync", "lockfree"], default="lockfree")
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)  # None: the toy config's seed
    p.add_argument("--max-inflight", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_lockfree)

    p = sub.add_parser("pipeline", help="footprint -> trace -> schedule -> simulate")
    p.add_argument("--config")
    p.add_argument("--preset")
    p.add_argument("--gpu-budget", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("plot", help="emit CSV series from a report")
    p.add_argument("--report", required=True)
    p.add_argument("--kind", required=True, choices=["timeline", "loss", "utilization"])
    p.add_argument("--section", choices=["phase1", "phase2"], default="phase2")
    p.add_argument("--out")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleScheduleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as exc:  # internal
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Unified command-line front end composing the modules into experiments.

Subcommands: footprint, pagemem-demo, trace, schedule, simulate, lockfree,
pipeline, plot. Configs and reports are JSON (reports carry a
schema_version). ``plot`` turns a report into CSV: the timeline of a
simulate or pipeline report, a lockfree report's loss curve, or resource
utilization. Exit codes: 0 ok, 1 usage, 2 infeasible schedule, 3 internal
error.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Callable

from . import footprint as fp
from . import lockfree as lf
from . import pagemem as pm
from . import presets
from .errors import (REAL, AllocationError, ConfigError, InfeasibleScheduleError, MoveError,
                     check_fields, check_type)
from .scheduler import LayerModel, Schedule, ShardingModel, peak_memory, schedule
from .simengine import compare, simulate
from .tracer import TensorTrace, TimingModel, build_trace, validate_trace

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _load_json(path: str):
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"no such file: {path}")
    try:
        return json.loads(p.read_bytes())
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise UsageError(f"bad JSON in {path}: {exc}") from None


_JSON_OPTS = {"indent": 2, "sort_keys": True, "allow_nan": False}

# How json encodes each scalar type a rows-path value may have. Exact types
# only: a subclass (an IntEnum, say) keeps its list on the json.dumps path.
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _scalar_json(value) -> str:
    return _SCALAR_JSON[type(value)](value)


# A rows list in the skeleton that json.dumps encodes; the index names the list.
_ROWS_MARKER = "\x00hiermem-rows-%d\x00"
_ROWS_MARKER_JSON = re.compile(r'"\\u0000hiermem-rows-(\d+)\\u0000"')


def _row_columns(rows) -> tuple[list[str], list[tuple[list, Callable]]] | None:
    """(sorted keys, (values, their encoder) per key) when ``rows`` is a
    non-empty list of dicts that share one non-empty set of str keys and hold
    only finite scalars, else None."""
    first = rows[0] if type(rows) is list and rows else None
    if type(first) is not dict or not first or \
            not all(type(k) is str for k in first):
        return None
    keys = sorted(first)
    if set(map(type, rows)) != {dict} or set(map(len, rows)) != {len(keys)}:
        return None
    columns = []
    for key in keys:
        try:
            values = list(map(itemgetter(key), rows))
        except KeyError:  # a row with as many keys but other ones
            return None
        types = set(map(type, values))
        if not types <= _SCALAR_JSON.keys():
            return None
        if float in types:
            floats = values if len(types) == 1 else [v for v in values if type(v) is float]
            if not all(map(math.isfinite, floats)):  # json.dumps raises for it
                return None
        columns.append((values, _SCALAR_JSON[types.pop()] if len(types) == 1 else _scalar_json))
    return keys, columns


def _swap_rows(obj, found: list):
    """``obj`` with each rows list (see ``_row_columns``) replaced by its
    marker string and recorded in ``found``; containers that hold none are
    returned as they are."""
    if type(obj) is dict:
        items = obj.items()
    elif type(obj) is list or type(obj) is tuple:
        rows = _row_columns(obj)
        if rows is not None:
            found.append(rows)
            return _ROWS_MARKER % (len(found) - 1)
        items = enumerate(obj)
    else:
        return obj
    swapped = None
    for key, value in items:
        new = _swap_rows(value, found)
        if new is not value:
            if swapped is None:
                swapped = dict(obj) if type(obj) is dict else list(obj)
            swapped[key] = new
    return obj if swapped is None else swapped


def _rows_json(rows, indent: int) -> str:
    """A rows list as json.dumps formats it with its opening line at ``indent``."""
    keys, columns = rows
    pad = " " * (indent + 2)
    template = pad + "{\n" + ",\n".join(
        pad + "  " + encode_basestring_ascii(k).replace("%", "%%") + ": %s"
        for k in keys) + "\n" + pad + "}"
    encoded = [map(encode, values) for values, encode in columns]
    return "[\n" + ",\n".join(map(template.__mod__, zip(*encoded))) + "\n" + \
        " " * indent + "]"


def _json_pieces(data) -> list[str]:
    """The text of ``json.dumps(data, **_JSON_OPTS)`` as pieces to join."""
    found: list = []
    try:
        skeleton = _swap_rows(data, found)
    except RecursionError:  # a reference cycle or deep nesting: json.dumps decides
        found, skeleton = [], data
    text = json.dumps(skeleton, **_JSON_OPTS)
    if not found:
        return [text]
    parts = _ROWS_MARKER_JSON.split(text)
    if sorted(map(int, parts[1::2])) != list(range(len(found))):
        # a string in the data holds a marker's text
        return [json.dumps(data, **_JSON_OPTS)]
    pieces = [parts[0]]
    for i in range(1, len(parts), 2):
        line = pieces[-1][pieces[-1].rfind("\n") + 1:]
        pieces.append(_rows_json(found[int(parts[i])], len(line) - len(line.lstrip(" "))))
        pieces.append(parts[i + 1])
    return pieces


def _dump_json(data, out: str | None):
    """Write ``data`` as ``json.dumps(data, indent=2, sort_keys=True,
    allow_nan=False)`` plus a newline, byte for byte, to ``out`` or stdout.

    The pure-Python encoder that ``indent`` selects is slow on large arrays,
    so a rows list is formatted here, one %-template per row: a non-empty
    list of dicts that share one non-empty set of str keys and hold only
    str, int, finite float, bool or None values (exact types). Every other
    value, and the nesting, key order and indentation around the rows, goes
    through json.dumps. Whatever json.dumps rejects (NaN, infinities,
    unsupported types, cycles) raises the same exception type before ``out``
    is opened.
    """
    pieces = _json_pieces(data)
    pieces.append("\n")
    if out:
        with open(out, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _timing_from_file(path: str | None) -> TimingModel:
    return TimingModel.from_dict(_load_json(path)) if path else TimingModel()


def _resolve_config(args) -> fp.TransformerConfig:
    if getattr(args, "preset", None):
        return presets.model_preset(args.preset)
    if getattr(args, "config", None):
        return presets.resolve_model(_load_json(args.config))
    raise UsageError("provide --config FILE or --preset NAME")


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
        _dump_json({"schema_version": SCHEMA_VERSION, "unit": args.unit,
                    "exact": args.exact, "num_layers": cfg.num_layers,
                    "rows": rows, "totals": totals}, args.out)
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["block", "layer", f"params_{args.unit}",
                         f"acts_{args.unit}", f"optims_{args.unit}"])
        for r in rows:
            writer.writerow([r["block"], r["layer"], r["params"], r["acts"], r["optims"]])
        writer.writerow(["total", "per_layer", totals["per_layer"]["params"],
                         totals["per_layer"]["acts"], totals["per_layer"]["optims"]])
        writer.writerow(["total", f"model_x{cfg.num_layers}", totals["model"]["params"],
                         totals["model"]["acts"], totals["model"]["optims"]])
    else:
        width = 24

        def fmt(v):
            return str(v) if isinstance(v, int) else f"{v:.6g}"

        print(f"{'block':<10}{'layer':<{width}}{'params':>16}{'acts':>16}{'optims':>16}  [{args.unit}]")
        for r in rows:
            print(f"{r['block']:<10}{r['layer']:<{width}}{fmt(r['params']):>16}{fmt(r['acts']):>16}{fmt(r['optims']):>16}")
        t = totals["per_layer"]
        print(f"{'total':<10}{'per layer':<{width}}{fmt(t['params']):>16}{fmt(t['acts']):>16}{fmt(t['optims']):>16}")
        t = totals["model"]
        print(f"{'total':<10}{f'model ({cfg.num_layers} layers)':<{width}}{fmt(t['params']):>16}{fmt(t['acts']):>16}{fmt(t['optims']):>16}")
    return EXIT_OK


# -- pagemem demo ---------------------------------------------------------------

# The fields of a pool spec entry and of each kind of op in a pagemem-demo
# script, with their types; the optional ones are those with defaults.
_DEMO_POOL = {"tier": (str,), "capacity_bytes": (int,), "page_bytes": (int,)}
_DEMO_OPS = {
    "allocate": {"name": (str,), "bytes": (int,), "tier": (str,),
                 "kind": (str,), "layer_index": (int,)},
    "release": {"name": (str,)},
    "move": {"page_id": (int,), "target": (str,)},
    "merge": {"name": (str,)},
}
_DEMO_OPTIONAL = {"page_bytes", "kind", "layer_index"}


def _check_demo_op(i: int, op) -> str:
    """The kind of op ``i`` of a pagemem-demo script, once its keys and
    value types are those the kind takes."""
    kind = op.get("op") if isinstance(op, dict) else None
    if not isinstance(kind, str) or kind not in _DEMO_OPS:
        raise UsageError(f"op {i}: not an object whose 'op' is one of {list(_DEMO_OPS)}")
    fields = _DEMO_OPS[kind]
    check_fields(f"op {i} ({kind})", {k: v for k, v in op.items() if k != "op"}, fields,
                 required=fields.keys() - _DEMO_OPTIONAL)
    return kind


def cmd_pagemem_demo(args) -> int:
    pools = check_fields("pool spec", _load_json(args.pool_spec), {"pools": (list,)},
                         required=["pools"])["pools"]
    for k, p in enumerate(pools):
        check_fields(f"pool spec entry {k}", p, _DEMO_POOL,
                     required=_DEMO_POOL.keys() - _DEMO_OPTIONAL)
    ops = _load_json(args.ops)
    if not isinstance(ops, list):
        raise UsageError(f"{args.ops}: an ops script is a JSON list of ops")
    manager = pm.PageManager([
        (p["tier"], p["capacity_bytes"], p.get("page_bytes", pm.PAGE_BYTES_DEFAULT))
        for p in pools
    ])
    name_to_id: dict[str, int] = {}  # live tensors by name
    log = []
    for i, op in enumerate(ops):
        kind = _check_demo_op(i, op)
        name = op.get("name")
        if kind in ("release", "merge") and name not in name_to_id:
            raise UsageError(f"op {i}: no live tensor named {name!r}")
        try:
            if kind == "allocate":
                spec = fp.TensorSpec(name, op.get("kind", "param16"),
                                     op["bytes"], op.get("layer_index", 0))
                tensor = manager.allocate(spec, op["tier"])
                name_to_id[name] = tensor.tensor_id
                log.append({"op": "allocate", "name": name,
                            "tensor_id": tensor.tensor_id, "pages": tensor.page_list})
            elif kind == "release":
                freed = manager.release(name_to_id.pop(name))
                log.append({"op": "release", "name": name, "freed_bytes": freed})
            elif kind == "move":
                try:
                    desc = manager.page_move(op["page_id"], op["target"])
                except KeyError as exc:  # no such page, or a free one
                    raise UsageError(f"op {i}: {exc.args[0]}") from None
                log.append({"op": "move", "page_id": op["page_id"],
                            "bytes": desc.bytes, "src": desc.src_tier.name,
                            "dst": desc.dst_tier.name, "new_page_id": desc.new_page_id})
            else:
                log.append(manager.tensor_merge(name_to_id[name]))
        except (AllocationError, MoveError, ConfigError) as exc:
            raise UsageError(f"op {i}: {exc}") from None
    _dump_json({"schema_version": SCHEMA_VERSION, "log": log,
                "state": manager.state_dict()}, args.out)
    return EXIT_OK


# -- trace ------------------------------------------------------------------------

def cmd_trace(args) -> int:
    cfg = _resolve_config(args)
    inventory = fp.tensor_inventory(cfg, args.granularity)
    timing = _timing_from_file(args.timing)
    traces = build_trace(inventory, timing, recompute_policy=args.recompute)
    _dump_json([t.__dict__ for t in traces], args.out)
    return EXIT_OK


def _traces_from_file(path: str, num_layers: int) -> list[TensorTrace]:
    """Traces read from a file, checked against an n-layer timeline."""
    try:
        traces = [TensorTrace(**t) for t in _load_json(path)]
        violations = validate_trace(traces, num_layers)
    except TypeError as exc:  # not a list of objects with the trace fields
        raise UsageError(f"bad trace in {path}: {exc}") from None
    if violations:
        raise UsageError(f"invalid traces in {path}: " + "; ".join(violations))
    return traces


# -- schedule ----------------------------------------------------------------------

def cmd_schedule(args) -> int:
    cfg = _resolve_config(args)
    inventory = fp.tensor_inventory(cfg, args.granularity)
    traces = _traces_from_file(args.traces, cfg.num_layers) if args.traces else \
        build_trace(inventory, _timing_from_file(args.timing))
    model = LayerModel.from_inventory(inventory, args.page_bytes, cfg.batch_size)
    sharding = ShardingModel(args.world_size, args.rank)
    sched = schedule(model, traces, args.gpu_budget, sharding,
                     phase1_only=args.phase1_only)
    out = sched.to_dict()
    out["schema_version"] = SCHEMA_VERSION
    out["peak_bytes"] = peak_memory(sched, traces)
    _dump_json(out, args.out)
    return EXIT_OK


# -- simulate ----------------------------------------------------------------------

def cmd_simulate(args) -> int:
    sched = Schedule.from_dict(_load_json(args.schedule))
    traces = _traces_from_file(args.traces, sched.model.num_layers)
    profile = presets.resolve_hardware(
        args.profile if args.profile.startswith("preset:") else _load_json(args.profile)
    )
    report = simulate(sched, traces, profile, iterations=args.iterations,
                      update_mode=args.update_mode, optimizer_tier=args.optimizer_tier)
    data = report.to_dict()
    data["schema_version"] = SCHEMA_VERSION
    _dump_json(data, args.out)
    return EXIT_OK


# -- lockfree ----------------------------------------------------------------------

def _delays_from_arg(arg: str) -> lf.DelayModel:
    if arg.startswith("preset:"):
        return lf.DelayModel.preset(arg.removeprefix("preset:"))
    return lf.DelayModel.from_dict(_load_json(arg))


def cmd_lockfree(args) -> int:
    cfg = lf.ToyTrainConfig.from_dict(_load_json(args.toy_config) if args.toy_config else {})
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    delays = _delays_from_arg(args.delays)
    if args.mode == "sync":
        report = lf.run_sync(cfg, delays, args.iters)
    else:
        report = lf.run_lockfree(cfg, delays, args.iters,
                                 max_inflight=args.max_inflight)
    data = report.to_dict()
    data["schema_version"] = SCHEMA_VERSION
    _dump_json(data, args.out)
    return EXIT_OK


# -- pipeline ----------------------------------------------------------------------

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
            "phase1": {"num_tasks": len(phase1.tasks),
                       "peak_bytes": peak_memory(phase1, traces)},
            "phase2": {"num_tasks": len(phase2.tasks),
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


def cmd_pipeline(args) -> int:
    if args.preset:
        config = {"model": f"preset:{args.preset}", "gpu_budget_bytes": 16 * fp.GIB}
    elif args.config:
        config = _load_json(args.config)
    else:
        raise UsageError("provide --config FILE or --preset NAME")
    if args.gpu_budget is not None and isinstance(config, dict):  # run_pipeline rejects the rest
        config = {**config, "gpu_budget_bytes": args.gpu_budget}
    report = run_pipeline(config)
    _dump_json(report, args.out)
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
        raise UsageError(f"report has no {key} section")
    return report


def _check_numbers(what: str, values, container: type) -> None:
    """ConfigError unless ``values`` is a ``container`` (list or dict) of numbers."""
    check_type(what, values, (container,))
    for k, v in (values.items() if container is dict else enumerate(values)):
        check_type(f"{what} [{k!r}]", v, REAL)


def cmd_plot(args) -> int:
    report = _load_json(args.report)
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
        raise UsageError(f"unknown plot kind {args.kind!r}")

    out = args.out or "-"
    if out == "-":
        writer = csv.writer(sys.stdout)
        writer.writerows(rows)
    else:
        with open(out, "w", newline="") as fh:
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
    p.add_argument("--timing")
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
    p.add_argument("--delays", default="preset:ssd")
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
    except (UsageError, ConfigError) as exc:
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

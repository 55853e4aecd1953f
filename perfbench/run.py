#!/usr/bin/env python3
"""hiermem benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload paper-175b-l6 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

One client runs one op at a time in this process, with no extra threads,
until ``--seconds`` have passed and at least four ops have run. Every
number is host time or memory; the simulated seconds hiermem reports are
recorded apart, as model outputs, and never gated.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over this
process and fresh set-up probe processes of the time from process start to
the first op: importing hiermem, building the inputs from the seed and, for
``alloc-256g``, constructing the pools), ``wall_s`` (median op time),
``peak_rss_mib`` (``ru_maxrss``) and ``report_bytes`` (median bytes of the
JSON report the op writes). ``--trace 1`` alternates untraced and traced
ops and prints the per-layer metrics of the traced ones (see layers.py);
the spans go to ``perfbench/out/trace-<workload>-seed<seed>.json`` in
Chrome Trace Event format. ``--workload all`` runs every workload untraced
and then traced, each in its own process, and prints one table.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only if every
op's output passed its check. A fuller record of the run (machine, git
revision, per-op times, failures, model outputs) is printed just before it
and written to ``perfbench/out/result-<workload>-seed<seed>-trace<t>.json``.
"""
import time

START = time.perf_counter()  # before any other import: the process start as seen here

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

HARD_LIMIT_S = 170.0  # the whole process, set-up probes included
MIN_OPS = 4  # per run; traced runs alternate, so two of them untraced and two traced
SETUP_PROBES = 5
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB"),
              ("report_bytes", "bytes")]


class OpTimeout(BaseException):
    """Raised from SIGALRM when an op overruns. A BaseException, so that
    ``hiermem.cli.main``'s ``except Exception`` does not turn it into exit 3."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run each workload at a tiny size (used by selftest.py)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit (a set-up probe)")
    return parser.parse_args(argv)


def import_hiermem():
    """Import hiermem from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import hiermem

    if Path(hiermem.__file__).resolve().parent != (SRC / "hiermem").resolve():
        raise ImportError(f"hiermem imported from {hiermem.__file__}, not from {SRC}")


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():  # a plain checkout: do not pick up an enclosing repo
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_facts() -> dict:
    import numpy

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def run_one(fn, timeout: float):
    """(output, wall seconds, failure) of one op; it fails on timeout or exception."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        t0 = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0, None
    except OpTimeout:
        return None, None, f"timeout after {timeout:.1f} s"
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return None, None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def probe_setup(args) -> float:
    """Set-up seconds of a fresh process running this workload's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    remaining = START + HARD_LIMIT_S / 2 - time.perf_counter()  # probes get half the budget
    if remaining <= 0:
        raise RuntimeError("set-up probes ran out of time")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1])


def run_workload(args, workdir: Path) -> int:
    import_hiermem()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    setup_start = time.perf_counter()
    workload.setup()
    setup_end = time.perf_counter()
    if args.setup_only:
        print(setup_end - START)
        return 0
    setup_samples = [setup_end - START]
    if not args.trace:  # setup_s is an end-to-end metric; the traced run skips the probes
        setup_samples += [probe_setup(args) for _ in range(SETUP_PROBES)]

    tracer = None
    if args.trace:
        from layers import TARGETS
        from spans import Tracer

        tracer = Tracer(TARGETS)
        tracer.record("bench.setup", "bench", setup_start, setup_end)

    ops: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        now = time.perf_counter()
        budget = START + HARD_LIMIT_S - now
        if (now >= deadline and len(ops) >= MIN_OPS) or budget < 5:
            break
        index = len(ops)
        traced = tracer is not None and index % 2 == 1
        timeout = min(workload.timeout_s, budget - 2)
        rec: dict = {"op": index, "traced": traced}
        out, wall, failure = run_one(
            (lambda: tracer.run_op(index, workload.op)) if traced else workload.op, timeout)
        if failure:
            rec["failure"] = failure
        else:
            rec["wall_s"] = wall
            try:
                problems, rec["report_bytes"] = workload.check(out)
                if traced:
                    problems += workload.check_traced(tracer.op_spans(index))
            except Exception as exc:
                problems = [f"output check raised {type(exc).__name__}: {exc}"]
            if problems:
                rec["failure"] = "; ".join(problems[:5])
        ops.append(rec)
        del out

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    good = [o for o in ops if "failure" not in o]
    failed = len(ops) - len(good)
    untraced = [o for o in good if not o["traced"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "machine": machine_facts(),
        "ops": {"attempted": len(ops), "failed": failed, "fail_frac": failed / len(ops),
                "untraced_ok": len(untraced), "traced_ok": len(good) - len(untraced),
                "setup_samples": len(setup_samples)},
        "per_op": ops[:200],
        "failures": [o for o in ops if "failure" in o][:50],
        "model_outputs": workload.outputs,
    }

    metrics: dict[str, dict] = {}
    if untraced:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(o["wall_s"] for o in untraced),
            "peak_rss_mib": peak_rss_mib,
            "report_bytes": statistics.median_low(o["report_bytes"] for o in untraced),
        }
        if not args.trace:
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        record["end_to_end"] = values
    tag = "-tiny" if args.tiny else ""
    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        from layers import PER_LAYER, layer_shares, op_metrics

        traced_ok = [o for o in good if o["traced"]]
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}{tag}.json"
        tracer.write_chrome_trace(trace_path, START)
        record["chrome_trace"] = str(trace_path.relative_to(ROOT))
        if traced_ok and untraced:
            per_op = [op_metrics(tracer.op_spans(o["op"])) for o in traced_ok]
            layer = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
            layer["trace_overhead_s"] = layer["traced_wall_s"] - values["wall_s"]
            layer["pagemem.pool_init_s"] = workload.setup_metrics.get("pagemem.pool_init_s", 0.0)
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, unit, _ in PER_LAYER}
            shares = [layer_shares(m) for m in per_op]
            record["layer_shares"] = {k: statistics.median(s[k] for s in shares)
                                      for k in shares[0]}
            record["layers_account_for"] = [sum(s.values()) for s in shares]

    correct = failed == 0 and bool(metrics)
    result = {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}
    record["result"] = result
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}{tag}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(ops)} ops, "
          f"{failed} failed (fail_frac {failed / len(ops):.4g})")
    for o in record["failures"][:10]:
        print(f"  op {o['op']} failed: {o['failure']}")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    if "layer_shares" in record:
        from layers import format_shares

        print("  self-time share of the traced op: " + format_shares(record["layer_shares"]))
        print("  layer self times account for " + ", ".join(
            f"{a:.4%}" for a in record["layers_account_for"]) + " of each traced op")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload untraced, then traced, each in a process of its own."""
    from layers import format_shares, layer_shares
    from workloads import WORKLOADS

    rows, all_ok, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            try:
                done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=HARD_LIMIT_S + 30)
                lines = done.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines else None
            except (subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
                done, result = None, None
                print(f"{name} trace {trace}: {type(exc).__name__}", file=sys.stderr)
            if result is None or done.returncode != 0 or not result["correct"]:
                all_ok = False
                if done is not None:
                    sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
            if result is not None:
                attempted += result["attempted"]
                failed += result["failed"]
                rows.setdefault(name, {})[trace] = result
    for name, by_trace in rows.items():
        print(f"{name}:")
        if 0 in by_trace:
            r = by_trace[0]
            for metric, m in r["metrics"].items():
                print(f"  {metric:<14} {m['value']:>14.6g} {m['unit']}")
            print(f"  {'fail_frac':<14} {r['failed'] / r['attempted']:>14.6g} "
                  f"({r['failed']} of {r['attempted']} ops)")
        if by_trace.get(1, {}).get("metrics"):
            values = {k: v["value"] for k, v in by_trace[1]["metrics"].items()}
            print("  traced self-time share: " + format_shares(layer_shares(values)))
    print(json.dumps({"correct": all_ok, "attempted": attempted, "failed": failed,
                      "workloads": rows}))
    return 0 if all_ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hiermem" / "__init__.py").is_file():
        print(f"error: no hiermem sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)}, all)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

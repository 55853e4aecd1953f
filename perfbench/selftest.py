#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload at a tiny size, untraced and traced, and checks that
each run passes its output checks and prints exactly the metrics
BENCHMARK.json names, with their units. It also checks that an op that
overruns its timeout is recorded as a timeout, that the benchmark refuses
to run without the hiermem sources, and that it imports no
underscore-prefixed hiermem name. Exits 0 when every check passes.
"""
import ast
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_manifest(bench: dict) -> None:
    expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads are the workloads run.py knows")
    expect(bench["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
           "BENCHMARK.json per_layer matches layers.PER_LAYER")
    expect([(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END,
           "BENCHMARK.json end_to_end matches run.END_TO_END")


def check_tiny_runs(bench: dict) -> None:
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
                   "--seconds", "0.5", "--trace", str(trace), "--tiny"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            result = last_json(done.stdout)
            label = f"{name} --trace {trace}"
            expect(done.returncode == 0, f"{label}: exit code 0 (got {done.returncode})")
            if result is None:
                expect(False, f"{label}: last line is JSON\n{done.stderr[-1000:]}")
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct, {result['attempted']} ops, {result['failed']} failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace], f"{label}: every metric of BENCHMARK.json, with units"
                   + ("" if got == wanted[trace] else
                      f" (missing {sorted(set(wanted[trace]) - set(got))},"
                      f" extra {sorted(set(got) - set(wanted[trace]))})"))


def check_timeout() -> None:
    out, wall, failure = run.run_one(lambda: time.sleep(5), 0.3)
    expect(out is None and wall is None and (failure or "").startswith("timeout"),
           f"an overrunning op is recorded as a timeout ({failure})")


def check_bare_directory() -> None:
    """Without src/ the benchmark must exit non-zero and print no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               next(iter(WORKLOADS)), "--seed", "0", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    result = last_json(done.stdout)
    expect(done.returncode != 0 and not (isinstance(result, dict) and "metrics" in result),
           f"without hiermem sources: exit {done.returncode}, no result printed")


def check_public_imports() -> None:
    bad = []
    for path in sorted(HERE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hiermem"):
                names = [node.module] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names if a.name.startswith("hiermem")]
            else:
                continue
            if any(part.startswith("_") for n in names for part in n.split(".")):
                bad.append(f"{path.name}:{node.lineno}")
    expect(not bad, "no underscore-prefixed hiermem name is imported " + " ".join(bad))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_manifest(bench)
    check_public_imports()
    check_timeout()
    check_bare_directory()
    check_tiny_runs(bench)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

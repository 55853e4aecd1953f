"""Smoke tests: each script in scripts/ runs to the end on tiny arguments,
every function perfbench traces by name still exists, and the allocator
benchmark runs clean at tiny size. Only ``hiermem.__main__`` imports the
command line, and no script or hiermem module imports a private name of
another hiermem module."""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hiermem.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]

# script -> (tiny arguments, a line fragment its output must contain)
SCRIPTS = {
    "run_pipeline.py": (["--model", "preset:tiny-2layer"], "phase1 -> phase2 speedup"),
    "idle_fraction_sweep.py": (["--batches", "1", "--layers", "2", "--d-model", "64",
                                "--d-ffn", "256", "--budget-gib", "1", "--iterations", "1"],
                               "idle (SSD states)"),
    "lockfree_speedup.py": (["--seeds", "0", "--iters", "5", "--layers", "2", "--dim", "4",
                             "--batch", "4"], "staleness histogram"),
    "page_size_sweep.py": (["--model", "preset:tiny-2layer", "--page-mib", "1", "0.5",
                            "--budget-gib", "1", "--world-size", "2"], "phase-2 peak GiB"),
}


def run_script(script, args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script):
    args, expected = SCRIPTS[script]
    assert expected in run_script(script, args)


def test_run_pipeline_report_is_the_cli_report(tmp_path):
    """run_pipeline.py --out writes the bytes `hiermem pipeline --out` writes
    for the same config: strict JSON, sorted keys, a trailing newline."""
    script_out, cli_out = tmp_path / "script.json", tmp_path / "cli.json"
    run_script("run_pipeline.py", ["--model", "preset:tiny-2layer", "--out", str(script_out)])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": "preset:tiny-2layer", "hardware": "preset:a100-server",
                                  "gpu_budget_bytes": 2**30, "iterations": 1,
                                  "update_mode": "none", "recompute": False}))
    assert main(["pipeline", "--config", str(config), "--out", str(cli_out)]) == EXIT_OK
    assert script_out.read_bytes() == cli_out.read_bytes()


def hiermem_imports(path: Path):
    """(module, name) for each name ``path`` imports from hiermem, with
    ``from . import x`` read as ``hiermem.x``; name is None for ``import m``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names if a.name.startswith("hiermem"))
        elif isinstance(node, ast.ImportFrom):
            module = "hiermem" + (f".{node.module}" if node.module else "") \
                if node.level else node.module
            if module.startswith("hiermem"):
                yield from ((module, a.name) for a in node.names)


def test_only_main_imports_cli():
    importers = sorted(path.name for path in (ROOT / "src" / "hiermem").glob("*.py")
                       if any(m == "hiermem.cli" or (m, n) == ("hiermem", "cli")
                              for m, n in hiermem_imports(path)))
    assert importers == ["__main__.py"]


def private_imports(folder: Path) -> list[tuple[str, str, str | None]]:
    """(file, module, name) of each private hiermem name a file in ``folder`` imports."""
    return [(path.name, m, n) for path in folder.glob("*.py") for m, n in hiermem_imports(path)
            if (n or "").startswith("_") or "._" in m]


def test_scripts_import_no_private_names():
    assert private_imports(ROOT / "scripts") == []


def test_modules_import_no_private_names_of_another():
    assert private_imports(ROOT / "src" / "hiermem") == []


def test_perfbench_targets_resolve(monkeypatch):
    """A renamed target would otherwise fail only a traced benchmark run."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    missing = []
    for target in layers.TARGETS:
        try:
            spans.resolve(target)
        except (ImportError, LookupError) as err:
            missing.append(f"{target.module}:{target.qualname}: {err}")
    assert missing == []


@pytest.mark.parametrize("workload,trace", [(w, t) for w in ("paper-175b-l6", "sim-1.7b-48it",
                                                              "alloc-256g", "toy-train")
                                             for t in ("0", "1")])
def test_perfbench_workload_tiny(workload, trace):
    """Every benchmark workload runs clean at tiny size, so drift fails here,
    not first in a benchmark run. Traced runs of the two pipeline workloads
    check both schedule phases against the report (check_traced), so drift
    in simulate or schedule fails; the allocator workload reads
    allocated_pages(), num_pages and free_page_count; toy-train is the one
    workload that runs the lock-free trainer."""
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", workload, "--tiny", "--seconds", "0.2",
                           "--trace", trace],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["correct"] is True

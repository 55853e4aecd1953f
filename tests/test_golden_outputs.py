"""Pinned digests of whole outputs: the ``hiermem pipeline`` report on six
configs, and both phases' ``hiermem schedule`` files on the last two.

A change that must keep every output byte-identical keeps these digests.
A change to the model's outputs updates the pins it moves and says which.
"""
import hashlib
import json

import pytest

from hiermem.cli import main

GIB = 2**30
MIB = 2**20

# GPT-3 175B layer shape, as perfbench's paper-175b-l6 workload uses it
PAPER_SHAPE = {"batch_size": 1, "seq_len": 2048, "d_model": 12288,
               "d_ffn": 49152, "num_heads": 96}

PIPELINES = {
    "tiny-2layer-sync": {"model": "preset:tiny-2layer", "gpu_budget_bytes": GIB,
                         "iterations": 2, "update_mode": "sync", "optimizer_tier": "ssd"},
    "paper-tiny": {"model": {**PAPER_SHAPE, "seq_len": 128, "d_model": 256, "d_ffn": 1024,
                             "num_heads": 4, "num_layers": 3},
                   "gpu_budget_bytes": 64 * MIB, "page_bytes": 256 * 1024,
                   "world_size": 8, "rank": 5, "recompute": True},
    "gpt3-1.7b-evicting": {"model": "preset:gpt3-1.7b", "gpu_budget_bytes": 8 * GIB,
                           "world_size": 8, "rank": 3},
    "paper-175b-l2": {"model": {**PAPER_SHAPE, "num_layers": 2},
                      "gpu_budget_bytes": 12 * GIB, "world_size": 8, "rank": 5,
                      "recompute": True},
    # perfbench's paper-175b-l6 workload at seeds 0 and 5, as Paper175bL6.config builds it
    **{f"paper-175b-l6-seed{seed}": {
        "model": {**PAPER_SHAPE, "num_layers": 6}, "hardware": "preset:a100-server",
        "gpu_budget_bytes": 20 * GIB, "page_bytes": 4 * MIB, "world_size": 8,
        "rank": seed % 8, "recompute": True, "iterations": 1, "update_mode": "none",
        "seed": seed} for seed in (0, 5)},
}

REPORT_SHA256 = {
    "tiny-2layer-sync": "9f16a1904e5108ace94ccd952189ad9617642c9aebd0b4d64e4cd39c76bc8510",
    "paper-tiny": "0f60ae6622b4bdb6ce63faaa7ed059d158eb5f5dd45d1609abe3ed0c52e7c87f",
    "gpt3-1.7b-evicting": "800d3a87234c545fc2225afe8e052cfa3844c3a13c380d045424419094cbd66a",
    "paper-175b-l2": "767cc770a9757f34825a37dab821aa0158f5accf585110f7b8939632b878a7dc",
    "paper-175b-l6-seed0": "4e9f4d7c31568480d7dbb3146f351b2276cd68c4787c91f781e2404408860f4c",
    "paper-175b-l6-seed5": "a79afccecc8da5bb05b80f083b41d6b4cd528c720fdc2fb2dd451673362e6425",
}

# (pipeline config, phase) -> sha256 of the ``hiermem schedule`` file
SCHEDULE_SHA256 = {
    ("gpt3-1.7b-evicting", "phase1"):
        "6c1bb6a80a5fb435b916db9dc7f5014cc6ce4f20aba6593b4e0f6672e54eb14c",
    ("gpt3-1.7b-evicting", "phase2"):
        "6265ed58296665d20fe3f3b25408f666c0d90c0fe78115d50dd3fb3afeca4c07",
    ("paper-175b-l2", "phase1"):
        "06723faac6b026132cc9d1af448cde19c5ebfc1518482024b495b3a060df62a6",
    ("paper-175b-l2", "phase2"):
        "40861770166675b55450a2d516f34e386c7d0367301ee93738570fb494c139d3",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", PIPELINES)
def test_pipeline_report(tmp_path, name):
    config, out = tmp_path / "config.json", tmp_path / "report.json"
    config.write_text(json.dumps(PIPELINES[name]))
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
    assert sha256(out) == REPORT_SHA256[name]


@pytest.mark.parametrize("name, phase", SCHEDULE_SHA256)
def test_schedule_file(tmp_path, name, phase):
    """The file ``hiermem schedule`` writes for a pipeline config's model,
    budget and sharding, on traces with the config's recompute policy."""
    c = PIPELINES[name]
    model = c["model"]
    args = (["--preset", model.removeprefix("preset:")] if isinstance(model, str) else
            ["--config", str(tmp_path / "model.json")])
    if not isinstance(model, str):
        (tmp_path / "model.json").write_text(json.dumps(model))
    traces = tmp_path / "traces.json"
    assert main(["trace", *args, *(["--recompute"] if c.get("recompute") else []),
                 "--out", str(traces)]) == 0
    out = tmp_path / "schedule.json"
    assert main(["schedule", *args, "--traces", str(traces),
                 "--gpu-budget", str(c["gpu_budget_bytes"]),
                 "--world-size", str(c["world_size"]), "--rank", str(c["rank"]),
                 *(["--phase1-only"] if phase == "phase1" else []),
                 "--out", str(out)]) == 0
    assert sha256(out) == SCHEDULE_SHA256[name, phase]

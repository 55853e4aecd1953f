"""Named model/hardware presets, overridable via the HIERMEM_PRESET_DIR env var.

A preset directory may hold ``<name>.json`` files with a ``kind`` field of
"model" (TransformerConfig fields) or "hardware" (HardwareProfile fields);
they shadow the built-ins of the same name.
"""
from __future__ import annotations

import os
from pathlib import Path

from .errors import ConfigError
from .footprint import TransformerConfig
from .jsonio import load_json
from .simengine import HardwareProfile
from .tracer import CPU_BYTES_PER_S, GPU_BYTES_PER_S

PRESET_DIR_ENV = "HIERMEM_PRESET_DIR"

MODEL_PRESETS: dict[str, dict] = {
    # shape behind the published 648/162/1944 GiB footprint figures
    "gpt3-175b": {"batch_size": 1, "seq_len": 2048, "d_model": 12288,
                  "d_ffn": 49152, "num_layers": 96, "num_heads": 96},
    "gpt3-1.7b": {"batch_size": 1, "seq_len": 2048, "d_model": 2304,
                  "d_ffn": 9216, "num_layers": 24, "num_heads": 24},
    "tiny-2layer": {"batch_size": 1, "seq_len": 128, "d_model": 256,
                    "d_ffn": 1024, "num_layers": 2, "num_heads": 4},
}

HARDWARE_PRESETS: dict[str, dict] = {
    # A100 server: 600 GB/s HBM, 32 GB/s PCIe, 200 GB/s GPU-GPU, 3.5 GB/s SSD
    "a100-server": {
        "links": {
            "pcie_h2d": {"bandwidth_bytes_per_s": 32e9, "latency_s": 10e-6},
            "pcie_d2h": {"bandwidth_bytes_per_s": 32e9, "latency_s": 10e-6},
            "gpu_interconnect": {"bandwidth_bytes_per_s": 200e9, "latency_s": 10e-6},
            "ssd_io": {"bandwidth_bytes_per_s": 3.5e9, "latency_s": 10e-6},
        },
        "gpu_bytes_per_s": GPU_BYTES_PER_S,
        "cpu_bytes_per_s": CPU_BYTES_PER_S,
        "num_gpus": 8,
        "pcie_lanes": 4,
    },
}


def _preset_fields(name: str, kind: str, builtins: dict[str, dict]) -> dict:
    """The fields of the ``kind`` preset ``name``: its preset directory file if
    there is one, else the built-in of that name."""
    preset_dir = os.environ.get(PRESET_DIR_ENV)
    path = preset_dir and Path(preset_dir) / f"{name}.json"
    if path and path.is_file():
        raw = load_json(path, "preset file ")
        if not isinstance(raw, dict) or raw.pop("kind", kind) != kind:
            raise ConfigError(f"preset file {path} is not a JSON object of a {kind} preset")
        return raw
    if name not in builtins:
        raise ConfigError(f"unknown {kind} preset {name!r} (known: {sorted(builtins)})")
    return builtins[name]


def model_preset(name: str) -> TransformerConfig:
    return TransformerConfig.from_dict(_preset_fields(name, "model", MODEL_PRESETS))


def hardware_preset(name: str) -> HardwareProfile:
    return HardwareProfile.from_dict(_preset_fields(name, "hardware", HARDWARE_PRESETS))


def resolve_model(spec) -> TransformerConfig:
    """Accepts a dict of config fields or a 'preset:<name>' string."""
    if isinstance(spec, str):
        return model_preset(spec.removeprefix("preset:"))
    return TransformerConfig.from_dict(spec)


def resolve_hardware(spec) -> HardwareProfile:
    if isinstance(spec, str):
        return hardware_preset(spec.removeprefix("preset:"))
    return HardwareProfile.from_dict(spec)

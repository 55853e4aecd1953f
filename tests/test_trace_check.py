"""One trace check: every public function that takes traces rejects a trace
list that is malformed or does not trace exactly the model's param16,
grad16 and activation16 tensors."""
import dataclasses
import json
import math

import pytest

from hiermem.cli import EXIT_USAGE, main
from hiermem.errors import ConfigError
from hiermem.footprint import tensor_inventory
from hiermem.presets import hardware_preset, model_preset
from hiermem.scheduler import (
    LayerModel,
    advance_gathers,
    available_memory,
    check_traces,
    peak_memory,
    schedule,
    validate_schedule,
)
from hiermem.simengine import simulate
from hiermem.tracer import TensorTrace, build_trace, validate_trace

BUDGET = 2**30


@pytest.fixture(scope="module")
def tiny():
    """tiny-2layer at 1 GiB: its model, real traces and phase-2 schedule."""
    inventory = tensor_inventory(model_preset("tiny-2layer"))
    model = LayerModel.from_inventory(inventory)
    traces = build_trace(inventory)
    return model, traces, schedule(model, traces, BUDGET)


def bad_traces(model, traces):
    """(case, traces) for each way a trace list can fail to match the model."""
    optim = next(tid for tid, spec in model.tensor_info.items() if spec.kind == "optim32")
    act = next(tr for tr in traces if model.tensor_info[tr.tensor_id].kind == "activation16")
    return {
        "empty": [],
        "shifted_ids": [dataclasses.replace(tr, tensor_id=tr.tensor_id + 100000)
                        for tr in traces],
        "optim32_id": [*traces[:-1], dataclasses.replace(traces[-1], tensor_id=optim)],
        "missing_tensor": traces[1:],
        "duplicate_id": [*traces, act],
        "past_last_slot": [dataclasses.replace(tr, end_id=99) if tr is act else tr
                           for tr in traces],
        "negative_gpu_time": [dataclasses.replace(traces[0], gpu_time=-1.0), *traces[1:]],
        "nan_gpu_time": [dataclasses.replace(traces[0], gpu_time=math.nan), *traces[1:]],
    }


CALLS = {
    "schedule": lambda model, sched, traces: schedule(model, traces, BUDGET),
    "advance_gathers": lambda model, sched, traces: advance_gathers(sched, traces),
    "peak_memory": lambda model, sched, traces: peak_memory(sched, traces),
    "available_memory": lambda model, sched, traces: available_memory(sched, traces, 0),
    "validate_schedule": lambda model, sched, traces: validate_schedule(sched, traces),
    "simulate": lambda model, sched, traces: simulate(
        sched, traces, hardware_preset("a100-server")),
}
CASES = ["empty", "shifted_ids", "optim32_id", "missing_tensor", "duplicate_id",
         "past_last_slot", "negative_gpu_time", "nan_gpu_time"]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("call", list(CALLS))
def test_public_functions_reject_mismatched_traces(tiny, call, case):
    model, traces, sched = tiny
    with pytest.raises(ConfigError):
        CALLS[call](model, sched, bad_traces(model, traces)[case])


@pytest.mark.parametrize("case,message", [
    ("empty", "the trace list has no trace of tensor 0 (L0.attn.linear_qkv.param16)"),
    ("shifted_ids", "trace in the trace list names tensor 100000, which is not a param16, "
                    "grad16 or activation16 tensor of the model"),
    ("duplicate_id", "invalid traces in the trace list: tensor 3: duplicate tensor_id"),
])
def test_check_names_the_first_mismatch(tiny, case, message):
    model, traces, _ = tiny
    with pytest.raises(ConfigError) as err:
        check_traces(model, bad_traces(model, traces)[case])
    assert str(err.value) == message


@pytest.mark.parametrize("value", ["x", None, [1.0]])
def test_non_numeric_production_time_is_a_violation(value):
    traces = [TensorTrace(0, 0, 1, value, 0.0), TensorTrace(1, 0, 1, 0.0, value)]
    assert validate_trace(traces, 1) == ["tensor 0: cpu_time not a number",
                                         "tensor 1: gpu_time not a number"]


def test_cli_reports_non_numeric_production_time(tmp_path, capsys):
    inventory = tensor_inventory(model_preset("tiny-2layer"))
    rows = [dataclasses.asdict(tr) for tr in build_trace(inventory)]
    rows[0]["cpu_time"] = "x"
    path = tmp_path / "traces.json"
    path.write_text(json.dumps(rows))
    assert main(["schedule", "--preset", "tiny-2layer", "--gpu-budget", str(BUDGET),
                 "--traces", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == \
        f"error: invalid traces in {path}: tensor 0: cpu_time not a number\n"

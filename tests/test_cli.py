"""CLI surfaces: every subcommand, file formats, exit codes, preset override."""
import json
import os
import subprocess
import sys
import time

import pytest

from hiermem.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main
from hiermem.presets import hardware_preset

TINY = {"batch_size": 1, "seq_len": 64, "d_model": 128, "d_ffn": 512,
        "num_layers": 2, "num_heads": 4}


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(args):
    return main(args)


class TestFootprintCmd:
    def test_gpt3_gib_totals(self, tmp_path, capsys):
        out = tmp_path / "fp.json"
        assert run(["footprint", "--preset", "gpt3-175b", "--format", "json",
                    "--unit", "GiB", "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["totals"]["model"] == {"params": 648.0, "acts": 162.0,
                                           "optims": 1944.0}

    def test_table_and_csv_formats(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", TINY)
        assert run(["footprint", "--config", cfg]) == EXIT_OK
        assert "linear_qkv" in capsys.readouterr().out
        assert run(["footprint", "--config", cfg, "--format", "csv"]) == EXIT_OK
        assert "params_B" in capsys.readouterr().out

    def test_exact_flag_changes_totals(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", TINY)
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["footprint", "--config", cfg, "--format", "json", "--out", str(o1)])
        run(["footprint", "--config", cfg, "--format", "json", "--exact",
             "--out", str(o2)])
        plain = json.loads(o1.read_text())["totals"]["per_layer"]["params"]
        exact = json.loads(o2.read_text())["totals"]["per_layer"]["params"]
        assert exact == plain + 8 * TINY["d_model"]

    def test_invalid_config_is_usage_error(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", {**TINY, "d_model": -1})
        assert run(["footprint", "--config", cfg]) == EXIT_USAGE

    def test_bool_field_is_usage_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", {**TINY, "num_layers": True})
        assert run(["footprint", "--config", cfg]) == EXIT_USAGE
        assert "'num_layers' has type bool" in capsys.readouterr().err

    def test_missing_args_usage(self):
        assert run(["footprint"]) == EXIT_USAGE

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_out_gets_the_stdout_bytes(self, tmp_path, capsys, fmt):
        cfg = write(tmp_path, "cfg.json", TINY)
        assert run(["footprint", "--config", cfg, "--format", fmt]) == EXIT_OK
        stdout = capsys.readouterr().out
        out = tmp_path / f"fp.{fmt}"
        assert run(["footprint", "--config", cfg, "--format", fmt,
                    "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout.encode()

    def test_dash_out_is_stdout(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["footprint", "--config", write(tmp_path, "cfg.json", TINY),
                    "--format", "json", "--out", "-"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["num_layers"] == 2
        assert not (tmp_path / "-").exists()


@pytest.mark.parametrize("command", ["footprint", "plot"])
@pytest.mark.parametrize("where,reason", [("missing/x.out", "No such file or directory"),
                                          (".", "Is a directory")],
                         ids=["missing_dir", "directory"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, command, where, reason):
    out = tmp_path / where
    argv = {"footprint": ["footprint", "--preset", "tiny-2layer", "--format", "json"],
            "plot": ["plot", "--report", write(tmp_path, "r.json", {"loss_curve": [1.0]}),
                     "--kind", "loss"]}[command]
    before = sorted(tmp_path.rglob("*"))
    assert run([*argv, "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
    assert sorted(tmp_path.rglob("*")) == before


class TestPagememDemoCmd:
    def test_replay_script(self, tmp_path):
        pool = write(tmp_path, "pool.json", {"pools": [
            {"tier": "GPU", "capacity_bytes": 64 * 2**20, "page_bytes": 4 * 2**20},
            {"tier": "CPU", "capacity_bytes": 64 * 2**20, "page_bytes": 4 * 2**20},
        ]})
        ops = write(tmp_path, "ops.json", [
            {"op": "allocate", "name": "w", "bytes": 10 * 2**20, "tier": "GPU"},
            {"op": "allocate", "name": "x", "bytes": 2 * 2**20, "tier": "GPU"},
            {"op": "move", "page_id": 0, "target": "CPU"},
            {"op": "release", "name": "x"},
        ])
        out = tmp_path / "state.json"
        assert run(["pagemem-demo", "--pool-spec", pool, "--ops", ops,
                    "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        # the allocate logs where w's pages were allocated, not where they are now
        assert report["log"][0] == {"op": "allocate", "name": "w", "tensor_id": 0,
                                    "pages": [0, 1, 2]}
        state = report["state"]
        assert state["pools"]["GPU"]["allocated_pages"] == 2
        assert state["pools"]["CPU"]["allocated_pages"] == 1
        assert any(t["tier"] == "NOT_READY" for t in state["tensors"])

    W = {"op": "allocate", "name": "w", "bytes": 10 * 2**20, "tier": "GPU"}

    @pytest.mark.parametrize("ops,message", [
        ([{"op": "release", "name": "w"}], "op 0: no live tensor named 'w'"),
        ([W, {"op": "release", "name": "w"}, {"op": "merge", "name": "w"}],
         "op 2: no live tensor named 'w'"),
        ([{"op": "allocate", "bytes": 2**20, "tier": "GPU"}], "op 0 (allocate) lacks ['name']"),
        ([{**W, "bytes": "5"}], "op 0 (allocate) 'bytes' has type str"),
        ([{"op": "move", "page_id": 99, "target": "CPU"}], "op 0: unknown page id 99"),
        (W, "an ops script is a JSON list"),
        ([{**W, "bytes": 2**30}], "op 0: GPU pool cannot fit"),
        ([W, {"op": "move", "page_id": 0, "target": "GPU"}],
         "op 1: page 0 already resides on GPU"),
    ], ids=["release_unknown", "merge_released", "allocate_no_name", "bytes_str",
            "move_unknown_page", "script_object", "allocation_too_large", "move_same_tier"])
    def test_bad_op_script_is_usage_error(self, tmp_path, capsys, ops, message):
        pool = write(tmp_path, "pool.json", {"pools": [
            {"tier": "GPU", "capacity_bytes": 64 * 2**20, "page_bytes": 4 * 2**20},
            {"tier": "CPU", "capacity_bytes": 64 * 2**20, "page_bytes": 4 * 2**20},
        ]})
        out = tmp_path / "state.json"
        assert run(["pagemem-demo", "--pool-spec", pool,
                    "--ops", write(tmp_path, "ops.json", ops), "--out", str(out)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_move_error_is_prefixed_once(self, tmp_path, capsys):
        pool = write(tmp_path, "pool.json", {"pools": [
            {"tier": "GPU", "capacity_bytes": 64 * 2**20},
            {"tier": "CPU", "capacity_bytes": 64 * 2**20}]})
        ops = write(tmp_path, "ops.json", [{"op": "move", "page_id": 99, "target": "CPU"}])
        assert run(["pagemem-demo", "--pool-spec", pool, "--ops", ops]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: op 0: unknown page id 99\n"

    def test_petabyte_pool(self, tmp_path):
        """A pool costs what it holds: a 1 PiB SSD pool at 64 KiB pages
        (2**34 pages) replays a script like a small one."""
        pool = write(tmp_path, "pool.json", {"pools": [
            {"tier": "GPU", "capacity_bytes": 64 * 2**20, "page_bytes": 2**16},
            {"tier": "SSD", "capacity_bytes": 2**50, "page_bytes": 2**16},
        ]})
        ops = write(tmp_path, "ops.json", [
            {"op": "allocate", "name": "m", "bytes": 3 * 2**16 + 5, "tier": "SSD",
             "kind": "optim32"},
            {"op": "move", "page_id": 1024, "target": "GPU"},
        ])
        out = tmp_path / "state.json"
        assert run(["pagemem-demo", "--pool-spec", pool, "--ops", ops,
                    "--out", str(out)]) == EXIT_OK
        state = json.loads(out.read_text())["state"]
        assert state["pools"]["SSD"]["free_pages"] == 2**34 - 3
        assert state["tensors"][0]["page_list"] == [0, 1025, 1026, 1027]

    @pytest.mark.parametrize("entry,message", [
        ({"tier": "GPU"}, "pool spec entry 0 lacks ['capacity_bytes']"),
        ({"tier": "GPU", "capacity_bytes": "64"}, "'capacity_bytes' has type str"),
    ])
    def test_bad_pool_spec_is_usage_error(self, tmp_path, capsys, entry, message):
        pool = write(tmp_path, "pool.json", {"pools": [entry]})
        assert run(["pagemem-demo", "--pool-spec", pool,
                    "--ops", write(tmp_path, "ops.json", [])]) == EXIT_USAGE
        assert message in capsys.readouterr().err


class TestTraceCmd:
    def test_emits_five_field_records(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", TINY)
        out = tmp_path / "traces.json"
        assert run(["trace", "--config", cfg, "--out", str(out)]) == EXIT_OK
        traces = json.loads(out.read_text())
        assert traces
        assert set(traces[0]) == {"tensor_id", "first_id", "end_id",
                                  "cpu_time", "gpu_time"}
        assert all(0 <= t["first_id"] <= t["end_id"] < 4 for t in traces)

    @pytest.mark.parametrize("timing, field", [
        ({"gpu_sec_per_byte": "fast"}, "'gpu_sec_per_byte' has type str"),
        ({"gpu_sec_per_byte": -1}, "'gpu_sec_per_byte' must be finite and >= 0"),
        ({"kind": "table", "table": {"x": 5}}, "'table' entry 'x' must be a"),
    ])
    def test_bad_timing_is_usage_error(self, tmp_path, capsys, timing, field):
        cfg = write(tmp_path, "cfg.json", TINY)
        out = tmp_path / "traces.json"
        assert run(["trace", "--config", cfg, "--timing", write(tmp_path, "t.json", timing),
                    "--out", str(out)]) == EXIT_USAGE
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_recompute_flag(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", TINY)
        plain, rec = tmp_path / "a.json", tmp_path / "b.json"
        run(["trace", "--config", cfg, "--out", str(plain)])
        run(["trace", "--config", cfg, "--recompute", "--out", str(rec)])
        spans = lambda p: sum(t["end_id"] - t["first_id"]
                              for t in json.loads(p.read_text()))
        assert spans(rec) < spans(plain)


class TestScheduleCmd:
    def test_schedule_roundtrip(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", TINY)
        traces = tmp_path / "traces.json"
        run(["trace", "--config", cfg, "--out", str(traces)])
        out = tmp_path / "sched.json"
        assert run(["schedule", "--config", cfg, "--traces", str(traces),
                    "--gpu-budget", str(2**30), "--out", str(out)]) == EXIT_OK
        sched = json.loads(out.read_text())
        assert sched["phase"] == "phase2"
        assert sched["peak_bytes"] <= 2**30
        ops = {t["operation"] for t in sched["tasks"]}
        assert {"move_to_gpu", "all_gather", "compute", "evict_to_cpu"} == ops

    def test_infeasible_budget_exit_code(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", TINY)
        assert run(["schedule", "--config", cfg, "--gpu-budget", "1024"]) \
            == EXIT_INFEASIBLE

    def test_negative_budget_is_usage_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", TINY)
        assert run(["schedule", "--config", cfg, "--gpu-budget", "-5"]) == EXIT_USAGE
        assert "gpu budget must be >= 0, not -5" in capsys.readouterr().err

    def test_timing_option_is_gone(self, tmp_path, capsys):
        # scheduling reads only a trace's ids, never its times
        timing = write(tmp_path, "t.json", {"kind": "constant"})
        assert run(["schedule", "--preset", "tiny-2layer", "--gpu-budget", str(2**30),
                    "--timing", timing]) == EXIT_USAGE
        assert "unrecognized arguments: --timing" in capsys.readouterr().err


def tiny_schedule_file(tmp_path, *options):
    """Traces and a phase-2 schedule file of tiny-2layer at 1 GiB, or with
    other ``hiermem schedule`` options, plus the schedule as data."""
    traces, sched = tmp_path / "traces.json", tmp_path / "sched.json"
    run(["trace", "--preset", "tiny-2layer", "--out", str(traces)])
    run(["schedule", "--preset", "tiny-2layer", "--traces", str(traces),
         *(options or ["--gpu-budget", str(2**30)]), "--out", str(sched)])
    return traces, json.loads(sched.read_text())


def simulate_error(tmp_path, capsys, traces, raw):
    """Exit code and stderr of simulating the schedule ``raw``; no report
    may be written."""
    out = tmp_path / "report.json"
    capsys.readouterr()
    code = run(["simulate", "--schedule", write(tmp_path, "bad.json", raw),
                "--traces", str(traces), "--out", str(out)])
    assert not out.exists()
    return code, capsys.readouterr().err


class TestSimulateCmd:
    def test_simulate_and_timeline(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", TINY)
        traces = tmp_path / "traces.json"
        sched = tmp_path / "sched.json"
        run(["trace", "--config", cfg, "--out", str(traces)])
        run(["schedule", "--config", cfg, "--traces", str(traces),
             "--gpu-budget", str(2**30), "--out", str(sched)])
        out = tmp_path / "report.json"
        tl = tmp_path / "timeline.csv"
        assert run(["simulate", "--schedule", str(sched), "--traces", str(traces),
                    "--profile", "preset:a100-server", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["makespan_s"] > 0
        assert 0.0 <= report["gpu_idle_fraction"] <= 1.0
        assert run(["plot", "--report", str(out), "--kind", "timeline",
                    "--out", str(tl)]) == EXIT_OK
        lines = tl.read_text().splitlines()
        assert lines[0] == "task_id,operation,resource,start_s,end_s"
        assert len(lines) == 1 + len(report["timeline"])

    @pytest.mark.parametrize("field,value,compute", [
        ("operation", "bogus", False),
        ("trigger_id", -5, False),
        ("trigger_id", "3", False),
        ("target", 99, True),
        ("slot", 99, False),
    ])
    def test_bad_task_is_usage_error(self, tmp_path, capsys, field, value, compute):
        cfg = write(tmp_path, "cfg.json", TINY)
        traces, sched = tmp_path / "traces.json", tmp_path / "sched.json"
        run(["trace", "--config", cfg, "--out", str(traces)])
        run(["schedule", "--config", cfg, "--traces", str(traces),
             "--gpu-budget", str(2**30), "--out", str(sched)])
        raw = json.loads(sched.read_text())
        k = next(k for k, t in enumerate(raw["tasks"])
                 if (t["operation"] == "compute") == compute)
        raw["tasks"][k][field] = value
        bad = write(tmp_path, "bad.json", raw)
        out = tmp_path / "report.json"
        capsys.readouterr()
        assert run(["simulate", "--schedule", bad, "--traces", str(traces),
                    "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"task {k} {field!r}" in err
        assert not out.exists()
        if (field, value) == ("trigger_id", -5):  # the rule's words, as validate gives them
            assert raw["tasks"][k]["operation"] == "move_to_gpu"
            n = raw["model"]["num_layers"]
            assert err == (f"error: task {k} 'trigger_id': move_to_gpu at trigger -5, "
                           f"outside [0, {2 * n}]\n")

    @pytest.mark.parametrize("case, field", [
        ("not_object", "schedule must be a JSON object"),
        ("no_model", "schedule lacks ['gpu_budget', 'model', 'phase']"),
        ("short_layer_param_bytes", "'layer_param_bytes' must be a list of 2 ints"),
        ("no_tensors", "'model' lacks ['tensors']"),
        ("tensor_layer_out_of_range", "'layer_index' must be in [0, 2)"),
        ("param_bytes_doubled", "'layer_param_bytes' layer 0 is"),
        ("optim_bytes_off_by_one", "'layer_optim_bytes' layer 1 is"),
        ("budget_str", "'gpu_budget' has type str"),
        ("budget_negative", "'gpu_budget' must be >= 0, not -7"),
        ("phase_int", "'phase' has type int"),
        ("phase_unknown", "'phase' 'phase3' is not"),
        ("gather_owned_flipped", "'owned' must be true for all_gather"),
        ("compute_owned", "'owned' must be false for compute"),
        ("world_size_2", "'owned' must be false"),
    ])
    def test_bad_schedule_is_usage_error(self, tmp_path, capsys, case, field):
        traces, sched = tmp_path / "traces.json", tmp_path / "sched.json"
        run(["trace", "--preset", "tiny-2layer", "--out", str(traces)])
        run(["schedule", "--preset", "tiny-2layer", "--traces", str(traces),
             "--gpu-budget", str(2**30), "--out", str(sched)])
        raw = json.loads(sched.read_text())
        model, tasks = raw["model"], raw["tasks"]
        if case == "not_object":
            raw = [raw]
        elif case == "no_model":
            raw = {"tasks": []}
        elif case == "short_layer_param_bytes":
            model["layer_param_bytes"].pop()
        elif case == "no_tensors":
            del model["tensors"]
        elif case == "tensor_layer_out_of_range":
            model["tensors"][0]["layer_index"] = 2
        elif case == "param_bytes_doubled":
            model["layer_param_bytes"][0] *= 2
        elif case == "optim_bytes_off_by_one":
            model["layer_optim_bytes"][1] += 1
        elif case in ("budget_str", "budget_negative"):
            raw["gpu_budget"] = "big" if case == "budget_str" else -7
        elif case in ("phase_int", "phase_unknown"):
            raw["phase"] = 7 if case == "phase_int" else "phase3"
        elif case == "gather_owned_flipped":
            next(t for t in tasks if t["operation"] == "all_gather")["owned"] = False
        elif case == "compute_owned":
            next(t for t in tasks if t["operation"] == "compute")["owned"] = True
        else:
            raw["world_size"] = 2
        out = tmp_path / "report.json"
        capsys.readouterr()
        assert run(["simulate", "--schedule", write(tmp_path, "bad.json", raw),
                    "--traces", str(traces), "--out", str(out)]) == EXIT_USAGE
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("batch_size", [-3, 0])
    def test_batch_size_below_one_is_usage_error(self, tmp_path, capsys, batch_size):
        traces, raw = tiny_schedule_file(tmp_path)
        raw["model"]["batch_size"] = batch_size
        assert simulate_error(tmp_path, capsys, traces, raw) == (
            EXIT_USAGE, f"error: model 'batch_size' must be >= 1, not {batch_size}\n")

    def test_repeated_tensor_id_is_usage_error(self, tmp_path, capsys):
        traces, raw = tiny_schedule_file(tmp_path)
        tensors = raw["model"]["tensors"]
        k = next(k for k, t in enumerate(tensors) if t["kind"] == "activation16")
        tensors.append({**tensors[k], "bytes": 1000 * tensors[k]["bytes"]})
        assert simulate_error(tmp_path, capsys, traces, raw) == (
            EXIT_USAGE, f"error: schedule tensor {len(tensors) - 1} 'tensor_id' "
                        f"is tensor {k}'s too\n")

    @pytest.mark.parametrize("past_end", [False, True])
    def test_page_target_out_of_range_is_usage_error(self, tmp_path, capsys, past_end):
        traces, raw = tiny_schedule_file(tmp_path)
        num_pages = 1 + max(t["target"] for t in raw["tasks"] if t["operation"] != "compute")
        k = next(k for k, t in enumerate(raw["tasks"]) if t["operation"] == "all_gather")
        target = num_pages if past_end else -1
        raw["tasks"][k]["target"] = target
        assert simulate_error(tmp_path, capsys, traces, raw) == (
            EXIT_USAGE, f"error: task {k} 'target': page {target} is not a parameter page\n")

    def test_page_task_layer_is_its_pages(self, tmp_path, capsys):
        """Relabelled evictions would hang layer 1's optimizer update on
        layer 0's evictions."""
        traces, raw = tiny_schedule_file(tmp_path)
        evicts = [t for t in raw["tasks"] if t["operation"] == "evict_to_cpu"]
        k, task = next((k, t) for k, t in enumerate(raw["tasks"])
                       if t["operation"] == "evict_to_cpu" and t["layer"] == 1)
        for t in evicts:
            t["layer"] = 0
        assert simulate_error(tmp_path, capsys, traces, raw) == (
            EXIT_USAGE, f"error: task {k} 'layer': evict_to_cpu of page {task['target']} "
                        "names layer 0, but the page is in layer 1\n")

    @pytest.mark.parametrize("layer, slot, to_slot", [(1, 1, 0), (0, 3, 0)],
                             ids=["other_layers_slot", "below_trigger"])
    def test_gather_slot_is_one_of_its_layers(self, tmp_path, capsys, layer, slot, to_slot):
        """Layer 1's forward gathers moved to slot 0 would let compute slot 1
        run without its pages; a backward gather of layer 0 moved to slot 0
        would serve a slot before its trigger."""
        traces, raw = tiny_schedule_file(tmp_path, "--gpu-budget", "8000000",
                                         "--page-bytes", "65536", "--world-size", "2")
        gathers = [(k, t) for k, t in enumerate(raw["tasks"]) if t["operation"] == "all_gather"
                   and (t["layer"], t["slot"]) == (layer, slot)]
        for _, t in gathers:
            t["slot"] = to_slot
        k, task = gathers[0]
        assert simulate_error(tmp_path, capsys, traces, raw) == (
            EXIT_USAGE, f"error: task {k} 'slot': all_gather of page {task['target']} "
                        f"(layer {layer}) at trigger {task['trigger_id']} must serve slot "
                        f"{layer} or {3 - layer} at or after its trigger, not slot {to_slot}\n")

    @pytest.mark.parametrize("case", ["shared_compute_trigger", "gather_without_move",
                                      "move_after_gather"])
    def test_unrunnable_task_set_is_usage_error(self, tmp_path, capsys, case):
        """Tasks that are each well formed but cannot run together."""
        traces, raw = tiny_schedule_file(tmp_path, "--gpu-budget", str(2**30),
                                         "--world-size", "2")
        tasks = raw["tasks"]
        move = next(k for k, t in enumerate(tasks) if t["operation"] == "move_to_gpu")
        k, gather = next((k, t) for k, t in enumerate(tasks) if t["operation"] == "all_gather"
                         and t["owned"] and t["target"] == tasks[move]["target"])
        if case == "shared_compute_trigger":
            (j, first), (k, second) = [(k, t) for k, t in enumerate(tasks)
                                       if t["operation"] == "compute"][:2]
            second["trigger_id"] = first["trigger_id"]
            message = (f"task {k} 'trigger_id': compute at trigger {first['trigger_id']} "
                       f"shares it with task {j}")
        else:
            if case == "gather_without_move":
                del tasks[move]
                if move < k:
                    k -= 1
            else:
                tasks[move]["trigger_id"] = gather["trigger_id"] + 1
            message = (f"task {k} 'trigger_id': all_gather of owned page {gather['target']} "
                       f"at trigger {gather['trigger_id']} has no move_to_gpu at or before it")
        assert simulate_error(tmp_path, capsys, traces, raw) == (EXIT_USAGE,
                                                                 f"error: {message}\n")

    def test_dropped_backward_reacquisition_is_usage_error(self, tmp_path, capsys):
        """Layer 0 is evicted in the forward sweep; without the moves and
        gathers of its backward slot its backward compute has no pages."""
        traces, raw = tiny_schedule_file(tmp_path, "--gpu-budget", "8000000",
                                         "--page-bytes", "65536", "--world-size", "2")
        tasks = raw["tasks"]
        page = next(t["target"] for t in tasks if t["operation"] == "evict_to_cpu"
                    and t["layer"] == 0 and t["trigger_id"] < 2)
        evicted = next(t["trigger_id"] for t in tasks
                       if t["operation"] == "evict_to_cpu" and t["target"] == page)
        raw["tasks"] = [t for t in tasks if not (t["operation"] in ("move_to_gpu", "all_gather")
                                                 and (t["layer"], t["slot"]) == (0, 3))]
        k = next(k for k, t in enumerate(raw["tasks"])
                 if t["operation"] == "compute" and t["trigger_id"] == 3)
        assert simulate_error(tmp_path, capsys, traces, raw) == (
            EXIT_USAGE, f"error: task {k} 'trigger_id': compute of layer 0 at trigger 3 has no "
                        f"all_gather of page {page} between the page's eviction at trigger "
                        f"{evicted} and it\n")

    @pytest.mark.parametrize("field, value, message", [
        ("target", 1, "compute of slot 0 must name its layer 0, not 1"),
        ("layer", 1, "compute of slot 0 must name its layer 0, not 1"),
        ("slot", 3, "compute at trigger 0 must serve slot 0, not slot 3"),
    ], ids=["target", "layer", "slot"])
    def test_mislabelled_compute_is_usage_error(self, tmp_path, capsys, field, value, message):
        traces, raw = tiny_schedule_file(tmp_path, "--gpu-budget", str(2**30),
                                         "--world-size", "2")
        k = next(k for k, t in enumerate(raw["tasks"])
                 if t["operation"] == "compute" and t["trigger_id"] == 0)
        raw["tasks"][k][field] = value
        assert simulate_error(tmp_path, capsys, traces, raw) == (
            EXIT_USAGE, f"error: task {k} {field!r}: {message}\n")

    def test_owned_gather_listed_before_its_move(self, tmp_path, capsys):
        """Within one trigger, an owned gather waits for its page's move
        wherever the schedule lists it."""
        traces, raw = tiny_schedule_file(tmp_path, "--gpu-budget", str(2**30),
                                         "--world-size", "2")
        tasks = raw["tasks"]
        k = next(k for k, t in enumerate(tasks) if t["operation"] == "all_gather" and t["owned"])
        gather = tasks.pop(k)
        move = next(j for j, t in enumerate(tasks) if t["operation"] == "move_to_gpu"
                    and t["target"] == gather["target"])
        assert tasks[move]["trigger_id"] == gather["trigger_id"] and move < k
        tasks.insert(move, gather)
        out = tmp_path / "report.json"
        assert run(["simulate", "--schedule", write(tmp_path, "swapped.json", raw),
                    "--traces", str(traces), "--out", str(out)]) == EXIT_OK
        rows = {row["task_id"]: row for row in json.loads(out.read_text())["timeline"]}
        at = f"p{gather['target']}@{gather['trigger_id']}"
        assert rows[f"it0.gather.{at}"]["start_s"] >= rows[f"it0.move.{at}"]["end_s"]


def corrupt(traces, case):
    """Break a valid trace list in one way that validate_trace names."""
    if case == "end_past_timeline":
        traces[0]["end_id"] = 99
    elif case == "first_after_end":
        t = next(t for t in traces if t["first_id"] < t["end_id"])
        t["first_id"], t["end_id"] = t["end_id"], t["first_id"]
    elif case == "negative_gpu_time":
        traces[0]["gpu_time"] = -1.0
    elif case == "nan_gpu_time":
        traces[0]["gpu_time"] = float("nan")
    elif case == "bool_gpu_time":
        traces[0]["gpu_time"] = True
    elif case == "duplicate_tensor_id":
        traces[1]["tensor_id"] = traces[0]["tensor_id"]
    elif case == "missing_key":
        del traces[0]["gpu_time"]
    elif case == "fractional_first_id":
        traces[0]["first_id"] = 0.5
    return traces


class TestTraceFileValidation:
    @pytest.mark.parametrize("case", ["end_past_timeline", "first_after_end",
                                      "negative_gpu_time", "duplicate_tensor_id",
                                      "missing_key", "fractional_first_id", "nan_gpu_time",
                                      "bool_gpu_time"])
    def test_bad_traces_are_usage_errors(self, tmp_path, capsys, case):
        cfg = write(tmp_path, "cfg.json", TINY)
        traces, sched = tmp_path / "traces.json", tmp_path / "sched.json"
        run(["trace", "--config", cfg, "--out", str(traces)])
        run(["schedule", "--config", cfg, "--traces", str(traces),
             "--gpu-budget", str(2**30), "--out", str(sched)])
        bad = write(tmp_path, "bad.json", corrupt(json.loads(traces.read_text()), case))
        capsys.readouterr()
        assert run(["schedule", "--config", cfg, "--traces", bad,
                    "--gpu-budget", str(2**30)]) == EXIT_USAGE
        assert run(["simulate", "--schedule", str(sched), "--traces", bad]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("error:") == 2 and "bad.json" in err

    def test_schedule_traces_must_name_the_models_tensors(self, tmp_path, capsys):
        traces, _ = tiny_schedule_file(tmp_path)
        for bad, message in mismatched_traces(json.loads(traces.read_text())):
            capsys.readouterr()
            assert run(["schedule", "--preset", "tiny-2layer", "--gpu-budget", str(2**30),
                        "--traces", write(tmp_path, "bad.json", bad)]) == EXIT_USAGE
            assert message in capsys.readouterr().err

    def test_simulate_traces_must_name_the_models_tensors(self, tmp_path, capsys):
        traces, raw = tiny_schedule_file(tmp_path)
        sched = write(tmp_path, "sched.json", raw)
        out = tmp_path / "report.json"
        for bad, message in mismatched_traces(json.loads(traces.read_text())):
            capsys.readouterr()
            assert run(["simulate", "--schedule", sched, "--out", str(out),
                        "--traces", write(tmp_path, "bad.json", bad)]) == EXIT_USAGE
            assert message in capsys.readouterr().err
            assert not out.exists()


def mismatched_traces(traces):
    """(traces, error) pairs for tiny-2layer's traces: ids the model lacks
    or gives an untraced kind, and tensors left untraced."""
    shifted = [{**t, "tensor_id": t["tensor_id"] + 100000} for t in traces]
    optim = [*traces[:-1], {**traces[-1], "tensor_id": 2}]  # tensor 2 is an optim32 one
    not_traced = "which is not a param16, grad16 or activation16 tensor of the model"
    return [(shifted, f"names tensor 100000, {not_traced}"),
            (optim, f"names tensor 2, {not_traced}"),
            ([], "has no trace of tensor 0 (L0.attn.linear_qkv.param16)"),
            (traces[1:], "has no trace of tensor 0 (L0.attn.linear_qkv.param16)")]


class TestLockfreeCmd:
    def test_both_modes(self, tmp_path):
        toy = write(tmp_path, "toy.json", {"num_layers": 2, "dim": 8,
                                           "batch_size": 8, "noise_std": 1.0})
        for mode in ("sync", "lockfree"):
            out = tmp_path / f"{mode}.json"
            assert run(["lockfree", "--toy-config", toy, "--delays", "preset:ssd",
                        "--mode", mode, "--iters", "20", "--seed", "3",
                        "--out", str(out)]) == EXIT_OK
            report = json.loads(out.read_text())
            assert report["iterations"] == 20
            assert report["conservation"]["balanced"]

    def test_toy_config_seed_used_without_seed_flag(self, tmp_path):
        toy = write(tmp_path, "toy.json", {"num_layers": 2, "dim": 8,
                                           "batch_size": 8, "seed": 7})

        def val_loss(*seed_args):
            out = tmp_path / "report.json"
            assert run(["lockfree", "--toy-config", toy, "--iters", "10",
                        *seed_args, "--out", str(out)]) == EXIT_OK
            return json.loads(out.read_text())["val_loss"]

        from_file = val_loss()
        assert from_file == val_loss("--seed", "7")
        assert from_file != val_loss("--seed", "0")

    def test_zero_delay_report_is_strict_json(self, tmp_path):
        out = tmp_path / "zero.json"
        assert run(["lockfree", "--delays", "preset:zero", "--iters", "5",
                    "--out", str(out)]) == EXIT_OK

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        report = json.loads(out.read_text(), parse_constant=reject)
        assert report["makespan_s"] == 0
        assert report["samples_per_s"] is None

    @pytest.mark.parametrize("toy, message", [
        ({"num_layers": 2, "bogus": 1}, "unknown toy config keys: ['bogus']"),
        ({"num_layers": "4"}, "toy config 'num_layers' has type str"),
        ({"hyper": {"lr": 0.01, "momentum": 0.9}},
         "unknown toy config 'hyper' keys: ['momentum']"),
        ([2, 8, 8], "toy config must be a JSON object"),
        ({"val_size": 0}, "toy config 'val_size' must be >= 1, not 0"),
        ({"noise_std": -1.0}, "toy config 'noise_std' must be finite and >= 0, not -1.0"),
        ({"hyper": {"lr": float("nan")}}, "toy config 'hyper' 'lr' must be finite, not nan"),
        ({"hyper": {"eps": float("inf")}}, "toy config 'hyper' 'eps' must be finite, not inf"),
        ({"seed": -1}, "toy config 'seed' must be >= 0, not -1"),
        ({"hyper": {"beta1": 1.0}}, "toy config 'hyper' 'beta1' must be in [0, 1), not 1.0"),
        ({"hyper": {"beta2": 1.0}}, "toy config 'hyper' 'beta2' must be in [0, 1), not 1.0"),
        ({"num_layers": 2, "dim": 4, "hyper": {"lr": 1e308}},
         "lockfree loss is nan: training diverged under the toy config"),
    ], ids=["unknown_key", "mistyped_value", "unknown_hyper_key", "not_object",
            "val_size_zero", "noise_std_negative", "lr_nan", "eps_inf", "seed_negative",
            "beta1_one", "beta2_one", "lr_diverges"])
    def test_bad_toy_config_is_usage_error(self, tmp_path, capsys, toy, message):
        path = write(tmp_path, "toy.json", toy)
        assert run(["lockfree", "--toy-config", path, "--iters", "2"]) == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["sync", "lockfree"])
    def test_diverging_run_prints_only_its_error(self, tmp_path, mode):
        """No numpy warning of the overflow and nan on the way reaches stderr."""
        path = write(tmp_path, "toy.json", {"num_layers": 2, "dim": 4, "hyper": {"lr": 1e308}})
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run([sys.executable, "-m", "hiermem", "lockfree", "--toy-config", path,
                               "--iters", "2", "--mode", mode], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == (f"error: {mode} loss is nan: training diverged under the "
                               f"toy config\n")

    def test_delays_file(self, tmp_path, capsys):
        hardware = hardware_preset("a100-server").to_dict()
        toy = write(tmp_path, "toy.json", {"num_layers": 2, "dim": 8, "batch_size": 8})
        reports = []
        for delays in ("preset:ssd", write(tmp_path, "a100.json", hardware)):
            out = tmp_path / f"r{len(reports)}.json"
            assert run(["lockfree", "--toy-config", toy, "--delays", delays, "--iters", "2",
                        "--out", str(out)]) == EXIT_OK
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]  # the file charges SSD-resident states
        hardware["links"]["pcie_h2d"]["bandwidth_bytes_per_s"] = 16e9
        good = write(tmp_path, "hardware.json", hardware)
        assert run(["lockfree", "--toy-config", toy, "--delays", good, "--iters", "2",
                    "--out", str(tmp_path / "r.json")]) == EXIT_OK
        assert json.loads((tmp_path / "r.json").read_text())["makespan_s"] > \
            json.loads(reports[0])["makespan_s"]
        bad = write(tmp_path, "bad.json", {**hardware, "nvme_bytes_per_s": 1})
        assert run(["lockfree", "--toy-config", toy, "--delays", bad,
                    "--iters", "2"]) == EXIT_USAGE
        assert "unknown hardware keys: ['nvme_bytes_per_s']" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", [0, -1e9, float("nan")], ids=["zero", "negative", "nan"])
    def test_delay_rate_out_of_range_is_usage_error(self, tmp_path, capsys, rate):
        hardware = hardware_preset("a100-server").to_dict()
        hardware["links"]["pcie_h2d"]["bandwidth_bytes_per_s"] = rate
        delays = write(tmp_path, "hardware.json", hardware)
        assert run(["lockfree", "--delays", delays, "--iters", "2",
                    "--out", str(tmp_path / "r.json")]) == EXIT_USAGE
        assert "'links.pcie_h2d': 'bandwidth_bytes_per_s' must be finite and > 0" \
            in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("mode", ["sync", "lockfree"])
    def test_overflowing_makespan_is_usage_error(self, tmp_path, capsys, mode):
        hardware = hardware_preset("a100-server").to_dict()
        hardware["links"]["ssd_io"]["bandwidth_bytes_per_s"] = 1e-320
        delays = write(tmp_path, "hardware.json", hardware)
        out = tmp_path / "r.json"
        assert run(["lockfree", "--delays", delays, "--mode", mode, "--iters", "2",
                    "--out", str(out)]) == EXIT_USAGE
        assert f"{mode} makespan is inf" in capsys.readouterr().err
        assert not out.exists()

    def test_max_inflight_in_sync_mode_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["lockfree", "--mode", "sync", "--max-inflight", "1", "--iters", "2",
                    "--out", str(out)]) == EXIT_USAGE
        assert "--max-inflight" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("max_inflight", ["0", "-1"])
    def test_max_inflight_below_one_is_usage_error(self, capsys, max_inflight):
        assert run(["lockfree", "--iters", "2", "--max-inflight", max_inflight]) == EXIT_USAGE
        assert "max_inflight must be >= 1" in capsys.readouterr().err


class TestPipelineCmd:
    def test_tiny_pipeline_speedup(self, tmp_path):
        config = write(tmp_path, "exp.json", {
            "model": "preset:tiny-2layer",
            "hardware": "preset:a100-server",
            "gpu_budget_bytes": 2**30,
            "seed": 7,
        })
        out = tmp_path / "report.json"
        assert run(["pipeline", "--config", config, "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["schema_version"] == "1"
        assert report["simulation"]["phase1_vs_phase2"]["speedup"] >= 1.0
        assert report["schedule"]["phase2"]["peak_bytes"] <= 2**30
        # report re-parses and all byte fields are integers
        assert isinstance(report["footprint"]["model"]["params_bytes"], int)

    def test_gpt3_footprint_section(self, tmp_path):
        config = write(tmp_path, "exp.json", {
            "model": "preset:gpt3-175b",
            # paper-scale scheduling is out of scope here: big pages keep the
            # task count sane
            "page_bytes": 256 * 2**20,
            "gpu_budget_bytes": 700 * 2**30,
            "world_size": 8,
        })
        out = tmp_path / "report.json"
        assert run(["pipeline", "--config", config, "--out", str(out)]) == EXIT_OK
        gib = json.loads(out.read_text())["footprint"]["model_gib"]
        assert gib == {"params_bytes": 648.0, "acts_bytes": 162.0,
                       "optims_bytes": 1944.0}

    def test_needs_config_or_preset(self):
        assert run(["pipeline"]) == EXIT_USAGE

    def test_missing_budget_is_usage_error(self, tmp_path, capsys):
        config = write(tmp_path, "exp.json", {"model": "preset:tiny-2layer"})
        assert run(["pipeline", "--config", config]) == EXIT_USAGE
        assert "gpu_budget_bytes" in capsys.readouterr().err

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        config = write(tmp_path, "exp.json", {"model": "preset:tiny-2layer",
                                              "gpu_budget_bytes": 2**30,
                                              "iteration": 4})
        assert run(["pipeline", "--config", config]) == EXIT_USAGE
        assert "iteration" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["preset", "config"])
    def test_zero_gpu_budget_is_honoured(self, tmp_path, capsys, source):
        argv = ["--preset", "tiny-2layer"] if source == "preset" else \
            ["--config", write(tmp_path, "exp.json", {"model": "preset:tiny-2layer",
                                                      "gpu_budget_bytes": 2**30})]
        out = tmp_path / "report.json"
        assert run(["pipeline", *argv, "--gpu-budget", "0", "--out", str(out)]) \
            == EXIT_INFEASIBLE
        assert "only 0 available" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_budget_is_usage_error(self, tmp_path, capsys, source):
        argv = ["--preset", "tiny-2layer", "--gpu-budget", "-1"] if source == "flag" else \
            ["--config", write(tmp_path, "exp.json", {"model": "preset:tiny-2layer",
                                                      "gpu_budget_bytes": -1})]
        assert run(["pipeline", *argv]) == EXIT_USAGE
        assert "gpu budget must be >= 0, not -1" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", [[], ["--gpu-budget", str(2**30)]])
    def test_config_not_object_is_usage_error(self, tmp_path, capsys, budget):
        config = write(tmp_path, "exp.json", ["preset:tiny-2layer"])
        assert run(["pipeline", "--config", config, *budget]) == EXIT_USAGE
        assert "pipeline config must be a JSON object" in capsys.readouterr().err

    def test_mistyped_value_is_usage_error(self, tmp_path, capsys):
        config = write(tmp_path, "exp.json", {"model": "preset:tiny-2layer",
                                              "gpu_budget_bytes": 2**30,
                                              "iterations": "2"})
        assert run(["pipeline", "--config", config]) == EXIT_USAGE
        assert "'iterations' has type str" in capsys.readouterr().err

    def test_bad_page_bytes_is_usage_error_at_once(self, tmp_path, capsys):
        config = write(tmp_path, "exp.json", {"model": "preset:tiny-2layer",
                                              "gpu_budget_bytes": 2**30, "page_bytes": 3})
        for argv in (["pipeline", "--config", config],
                     ["schedule", "--preset", "tiny-2layer", "--gpu-budget", str(2**30),
                      "--page-bytes", "3"]):
            start = time.perf_counter()
            assert run(argv) == EXIT_USAGE
            assert time.perf_counter() - start < 1.0
            assert "page_bytes must be a power of two" in capsys.readouterr().err

    @pytest.mark.parametrize("case, field", [
        ("no_links", "'links'"),
        ("link_not_object", "'links.pcie_h2d'"),
        ("no_bandwidth", "'bandwidth_bytes_per_s'"),
        ("bandwidth_str", "'links.pcie_h2d' 'bandwidth_bytes_per_s' has type str"),
        ("latency_bool", "'links.ssd_io' 'latency_s' has type bool"),
        ("rate_str", "'gpu_bytes_per_s' has type str"),
        ("rate_bool", "'cpu_bytes_per_s' has type bool"),
        ("num_gpus_str", "'num_gpus' has type str"),
        ("num_gpus_float", "'num_gpus' has type float"),
        ("lanes_bool", "'pcie_lanes' has type bool"),
        ("bandwidth_nan",
         "'links.pcie_h2d': 'bandwidth_bytes_per_s' must be finite and > 0, not nan"),
        ("bandwidth_inf",
         "'links.pcie_h2d': 'bandwidth_bytes_per_s' must be finite and > 0, not inf"),
        ("latency_nan", "'links.ssd_io': 'latency_s' must be finite and >= 0, not nan"),
        ("rate_nan", "'gpu_bytes_per_s' must be finite and > 0, not nan"),
    ])
    def test_malformed_hardware_is_usage_error(self, tmp_path, capsys, case, field):
        hardware = hardware_preset("a100-server").to_dict()
        links = hardware["links"]
        if case == "no_links":
            del hardware["links"]
        elif case == "link_not_object":
            links["pcie_h2d"] = 5
        elif case == "no_bandwidth":
            del links["pcie_h2d"]["bandwidth_bytes_per_s"]
        else:
            entry, key, value = {
                "bandwidth_str": (links["pcie_h2d"], "bandwidth_bytes_per_s", "fast"),
                "latency_bool": (links["ssd_io"], "latency_s", True),
                "rate_str": (hardware, "gpu_bytes_per_s", "fast"),
                "rate_bool": (hardware, "cpu_bytes_per_s", False),
                "num_gpus_str": (hardware, "num_gpus", "8"),
                "num_gpus_float": (hardware, "num_gpus", 8.0),
                "lanes_bool": (hardware, "pcie_lanes", True),
                "bandwidth_nan": (links["pcie_h2d"], "bandwidth_bytes_per_s", float("nan")),
                "bandwidth_inf": (links["pcie_h2d"], "bandwidth_bytes_per_s", float("inf")),
                "latency_nan": (links["ssd_io"], "latency_s", float("nan")),
                "rate_nan": (hardware, "gpu_bytes_per_s", float("nan")),
            }[case]
            entry[key] = value
        config = write(tmp_path, "exp.json", {"model": "preset:tiny-2layer",
                                              "gpu_budget_bytes": 2**30,
                                              "hardware": hardware})
        assert run(["pipeline", "--config", config]) == EXIT_USAGE
        assert field in capsys.readouterr().err

    def test_overflowing_makespan_is_usage_error(self, tmp_path, capsys):
        hardware = hardware_preset("a100-server").to_dict()
        hardware["links"]["ssd_io"]["bandwidth_bytes_per_s"] = 1e-320
        config = write(tmp_path, "exp.json", {"model": "preset:tiny-2layer",
                                              "gpu_budget_bytes": 2**30,
                                              "update_mode": "sync",
                                              "hardware": hardware})
        out = tmp_path / "report.json"
        assert run(["pipeline", "--config", config, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "simulated makespan is inf" in err and "internal" not in err
        assert not out.exists()

    def test_phase_selection(self, tmp_path):
        out = tmp_path / "report.json"
        for phase, rc in (("phase1", EXIT_OK), ("phase3", EXIT_USAGE)):
            config = write(tmp_path, "exp.json", {"model": "preset:tiny-2layer",
                                                  "gpu_budget_bytes": 2**30,
                                                  "phase": phase})
            assert run(["pipeline", "--config", config, "--out", str(out)]) == rc
        assert json.loads(out.read_text())["schedule"]["selected_phase"] == "phase1"


class TestPlotCmd:
    def test_timeline_loss_utilization(self, tmp_path):
        toy = write(tmp_path, "toy.json", {"num_layers": 2, "dim": 8,
                                           "batch_size": 8})
        lf_report = tmp_path / "lf.json"
        run(["lockfree", "--toy-config", toy, "--iters", "10",
             "--out", str(lf_report)])
        loss_csv = tmp_path / "loss.csv"
        assert run(["plot", "--report", str(lf_report), "--kind", "loss",
                    "--out", str(loss_csv)]) == EXIT_OK
        assert loss_csv.read_text().splitlines()[0] == "iteration,loss"

        config = write(tmp_path, "exp.json", {"model": "preset:tiny-2layer",
                                              "gpu_budget_bytes": 2**30})
        pipe = tmp_path / "pipe.json"
        run(["pipeline", "--config", config, "--out", str(pipe)])
        tl = tmp_path / "tl.csv"
        assert run(["plot", "--report", str(pipe), "--kind", "timeline",
                    "--out", str(tl)]) == EXIT_OK
        assert len(tl.read_text().splitlines()) > 1
        util = tmp_path / "util.csv"
        assert run(["plot", "--report", str(pipe), "--kind", "utilization",
                    "--out", str(util)]) == EXIT_OK

    def test_missing_section_usage_error(self, tmp_path):
        bogus = write(tmp_path, "r.json", {"schema_version": "1"})
        assert run(["plot", "--report", bogus, "--kind", "loss"]) == EXIT_USAGE

    @pytest.mark.parametrize("report,kind,field", [
        ({"timeline": [{}]}, "timeline", "report 'timeline' entry 0 lacks"),
        ({"timeline": 5}, "timeline", "report 'timeline' has type int"),
        ({"loss_curve": 5}, "loss", "report 'loss_curve' has type int"),
        ({"utilization": [1]}, "utilization", "report 'utilization' has type list"),
        ({"simulation": 3}, "timeline", "report 'simulation' has type int"),
        ({"simulation": 3}, "utilization", "report 'simulation' has type int"),
        ({"simulation": {"phase2": 7}}, "timeline", "report 'simulation' 'phase2'"),
        ({"simulation": {"phase2": 7}}, "utilization", "report 'simulation' 'phase2'"),
        ([], "timeline", "report has type list"),
        ([], "loss", "report has type list"),
        ([], "utilization", "report has type list"),
    ], ids=["timeline_entry_empty", "timeline_int", "loss_curve_int", "utilization_list",
            "simulation_int-timeline", "simulation_int-utilization",
            "section_int-timeline", "section_int-utilization",
            "top_list-timeline", "top_list-loss", "top_list-utilization"])
    def test_malformed_report_usage_error(self, tmp_path, capsys, report, kind, field):
        bogus = write(tmp_path, "r.json", report)
        assert run(["plot", "--report", bogus, "--kind", kind]) == EXIT_USAGE
        assert field in capsys.readouterr().err

    def test_unknown_kind_usage_error(self, tmp_path):
        bogus = write(tmp_path, "r.json", {})
        assert run(["plot", "--report", bogus, "--kind", "sparkline"]) == EXIT_USAGE


class TestPresetDir:
    def test_env_override(self, tmp_path, monkeypatch):
        custom = {"kind": "model", "batch_size": 2, "seq_len": 8, "d_model": 16,
                  "d_ffn": 32, "num_layers": 1, "num_heads": 2}
        (tmp_path / "mymodel.json").write_text(json.dumps(custom))
        monkeypatch.setenv("HIERMEM_PRESET_DIR", str(tmp_path))
        out = tmp_path / "fp.json"
        assert run(["footprint", "--preset", "mymodel", "--format", "json",
                    "--out", str(out)]) == EXIT_OK
        assert run(["footprint", "--preset", "nonexistent"]) == EXIT_USAGE

    @pytest.mark.parametrize("text", ["[1, 2]", '{"kind": "model", "batch_size":', "\udcff",
                                      '{"kind": "hardware", "links": {}}'],
                             ids=["not_object", "bad_json", "bad_utf8", "hardware_kind"])
    def test_bad_preset_file_is_usage_error(self, tmp_path, monkeypatch, capsys, text):
        (tmp_path / "mymodel.json").write_text(text, errors="surrogateescape")
        monkeypatch.setenv("HIERMEM_PRESET_DIR", str(tmp_path))
        assert run(["footprint", "--preset", "mymodel"]) == EXIT_USAGE
        assert "mymodel.json" in capsys.readouterr().err

"""Report writer: byte-identical to json.dumps(indent=2, sort_keys=True, allow_nan=False)."""
import dataclasses
import json
import math
import os
import tracemalloc
from array import array
from itertools import chain

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hiermem import cli, jsonio
from hiermem.cli import EXIT_INTERNAL, EXIT_OK, main
from hiermem.footprint import tensor_inventory
from hiermem.presets import hardware_preset, model_preset
from hiermem.scheduler import LayerModel, ShardingModel, schedule
from hiermem.simengine import Timeline, simulate
from hiermem.tracer import build_trace

OPTS = {"indent": 2, "sort_keys": True, "allow_nan": False}


def materialised(data):
    """``data`` with each row stream replaced by the list of dicts it stands for."""
    if isinstance(data, jsonio.RowStream):
        return data.dicts()
    if type(data) is dict:
        return {k: materialised(v) for k, v in data.items()}
    if type(data) is list or type(data) is tuple:
        return type(data)(map(materialised, data))
    return data


def oracle(data) -> bytes:
    return (json.dumps(materialised(data), **OPTS) + "\n").encode()


def outcome(write, data):
    """The bytes ``write`` produces for ``data``, or the type it raises."""
    try:
        return write(data)
    except Exception as exc:  # the property compares exception types
        return type(exc)


# -- property: random JSON-like values ------------------------------------------------

texts = st.text(max_size=6) | st.sampled_from(
    ["", "%", "%s", "%%(a)s", '"', "\\", "\x00", "\x1f\n\t", "\x7f", "é", " ",
     "\U0001f600", "\ud800"])
finite = st.floats(allow_nan=False, allow_infinity=False) | \
    st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324, 1e16, 1e-5, 0.1])
scalars = st.none() | st.booleans() | st.integers() | finite | texts
unsupported = st.sampled_from([math.nan, math.inf, -math.inf, {1, 2}, b"raw", object()])


@st.composite
def row_lists(draw):
    """Lists of flat dicts with one shared key set, sometimes changed so that
    the list falls just outside the rows path."""
    keys = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
    rows = [{k: draw(scalars) for k in keys} for _ in range(draw(st.integers(1, 4)))]
    row = rows[draw(st.integers(0, len(rows) - 1))]
    key = next(iter(row))
    change = draw(st.sampled_from([None] * 5 + ["empty", "no_keys", "add_key", "drop_key",
                                                "nest", "int_key", "unsupported"]))
    if change == "empty":
        rows = []
    elif change == "no_keys":
        rows = [{} for _ in rows]
    elif change == "add_key":
        row[draw(texts)] = draw(scalars)
    elif change == "drop_key":
        del row[key]
    elif change == "nest":
        row[key] = draw(st.lists(scalars, max_size=2) |
                        st.dictionaries(texts, scalars, max_size=2))
    elif change == "int_key":
        row[draw(st.integers())] = draw(scalars)
    elif change == "unsupported":
        row[key] = draw(unsupported)
    return rows


@st.composite
def timelines(draw):
    """Timelines with str ids, whose other texts are sometimes not strs and
    whose columns sometimes hold a NaN or an infinity. Sometimes the times
    come from a few values, 0.0 and -0.0 among them, so that iterations'
    start times overlap and tie and one chunk holds both zeros."""
    n = draw(st.integers(0, 4))
    ids = draw(st.lists(texts, min_size=n, max_size=n, unique=True))
    label = (texts | st.sampled_from([None, 1, 1.5])) if draw(st.booleans()) else texts
    labels = st.lists(label, min_size=n, max_size=n)
    time = draw(st.sampled_from([
        finite | st.sampled_from([math.nan, math.inf, -math.inf]), finite, finite,
        st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0])]))
    columns = [[array("d", draw(st.lists(time, min_size=n, max_size=n))) for _ in range(2)]
               for _ in range(draw(st.integers(0, 4)))]
    return Timeline(tuple(ids), tuple(draw(labels)), tuple(draw(labels)),
                    tuple(c[0] for c in columns), tuple(c[1] for c in columns))


json_like = st.recursive(
    row_lists() | timelines() | scalars,
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner) |
    st.dictionaries(texts, inner, max_size=3) |
    st.dictionaries(st.integers(), inner, max_size=2),
    max_leaves=12)


TWO_ROWS = Timeline(("a",), ("op",), ("gpu",), (array("d", [0.0]), array("d", [0.5])),
                    (array("d", [1.0]), array("d", [1.5])))


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("writer") / "report.json"


@settings(max_examples=300, deadline=None)
@given(data=json_like | st.lists(json_like | unsupported, max_size=3))
@example(data={"rows": [{"k": 1.0}], "text": "\x00hiermem-rows-0\x00"})
@example(data=[[{"k": 1}], [{"k": 2}], 'x"\x00hiermem-rows-1\x00'])
@example(data={"timeline": Timeline(
    ("a", "b"), ("op", "op"), ("gpu", "gpu"),
    (array("d", [0.0, -0.0]), array("d", [-0.0, 1.0])),
    (array("d", [-0.0, 0.0]), array("d", [1.0, 0.0])))})
@example(data={"a": {"b": {"c": TWO_ROWS, "d": [1, {"e": 2}]}, "f": "x\ny"}, "g": {}})
@example(data={"timeline": TWO_ROWS, 1: 0})
@example(data={"typed": TWO_ROWS, "untyped": dataclasses.replace(TWO_ROWS, operations=(None,))})
def test_writer_matches_json_dumps(out_path, data):
    def write(data):
        out_path.unlink(missing_ok=True)
        try:
            jsonio.write_json(data, str(out_path))
        except Exception:
            assert not out_path.exists()
            raise
        return out_path.read_bytes()

    assert outcome(write, data) == outcome(oracle, data)


def sorted_rows(timeline: Timeline) -> list[tuple]:
    """A timeline's rows built from its columns and sorted whole, by (start_s, task_id)."""
    rows = [(start, f"it{k}.{task_id}", end, op, res)
            for k, (starts, ends) in enumerate(zip(timeline.starts, timeline.ends))
            for task_id, op, res, start, end in zip(timeline.task_ids, timeline.operations,
                                                     timeline.resources, starts, ends)]
    return sorted(rows, key=lambda row: row[:2])


@settings(max_examples=200, deadline=None)
@given(timeline=timelines(), size=st.integers(1, 5))
def test_timeline_chunks_are_the_sorted_rows(timeline, size):
    """Chunks of 1 to ``size`` rows hold the rows in (start_s, task_id)
    order, zeros keeping their signs, across groups of overlapping
    iterations and whatever chunk boundaries fall in them."""
    assume(all(map(math.isfinite, chain(*timeline.starts, *timeline.ends))))
    chunks = list(timeline.chunks(size))
    expected = [tuple(map(repr, row)) for row in sorted_rows(timeline)]
    assert all(len(set(map(len, chunk))) == 1 and 1 <= len(chunk[0]) <= size
               for chunk in chunks)
    assert [tuple(map(repr, row)) for chunk in chunks for row in zip(*chunk)] == expected
    assert [tuple(map(repr, row)) for row in timeline.rows()] == expected


def test_cycle_is_rejected_like_json_dumps(out_path):
    data = {"rows": [{"a": 1}]}
    data["self"] = data
    out_path.unlink(missing_ok=True)
    with pytest.raises(ValueError, match="Circular reference"):
        jsonio.write_json(data, str(out_path))
    assert not out_path.exists()


# -- every command on tiny-2layer ----------------------------------------------------

@pytest.fixture
def dumped(monkeypatch):
    """The data of every write_json call, in order."""
    seen = []
    real = cli.write_json

    def spy(data, out):
        seen.append(data)
        return real(data, out)

    monkeypatch.setattr(cli, "write_json", spy)
    return seen


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def tiny_schedule(tmp_path):
    traces, sched = tmp_path / "traces.json", tmp_path / "sched.json"
    assert main(["trace", "--preset", "tiny-2layer", "--out", str(traces)]) == EXIT_OK
    assert main(["schedule", "--preset", "tiny-2layer", "--traces", str(traces),
                 "--gpu-budget", str(2**30), "--out", str(sched)]) == EXIT_OK
    return traces, sched


def test_every_command_writes_json_dumps_bytes(tmp_path, dumped):
    traces, sched = tiny_schedule(tmp_path)
    config = write(tmp_path, "exp.json", {"model": "preset:tiny-2layer",
                                          "gpu_budget_bytes": 2**30, "iterations": 2,
                                          "update_mode": "sync"})
    toy = write(tmp_path, "toy.json", {"num_layers": 2, "dim": 8, "batch_size": 8})
    pools = write(tmp_path, "pools.json", {"pools": [
        {"tier": "GPU", "capacity_bytes": 64 * 2**20, "page_bytes": 4 * 2**20},
        {"tier": "CPU", "capacity_bytes": 64 * 2**20, "page_bytes": 4 * 2**20}]})
    ops = write(tmp_path, "ops.json", [
        {"op": "allocate", "name": "w", "bytes": 10 * 2**20, "tier": "GPU"},
        {"op": "merge", "name": "w"},
        {"op": "move", "page_id": 0, "target": "CPU"},
        {"op": "allocate", "name": "x", "bytes": 2**20, "tier": "CPU"},
        {"op": "release", "name": "x"}])
    commands = {
        "pipeline": ["pipeline", "--config", config],
        "simulate": ["simulate", "--schedule", str(sched), "--traces", str(traces),
                     "--iterations", "3"],
        "lockfree": ["lockfree", "--toy-config", toy, "--iters", "10", "--seed", "1"],
        "footprint": ["footprint", "--preset", "tiny-2layer", "--format", "json"],
        "pagemem-demo": ["pagemem-demo", "--pool-spec", pools, "--ops", ops],
    }
    outputs = {"trace": traces, "schedule": sched}
    for name, argv in commands.items():
        outputs[name] = tmp_path / f"{name}.json"
        assert main([*argv, "--out", str(outputs[name])]) == EXIT_OK
    assert len(dumped) == len(outputs)
    for data, (name, path) in zip(dumped, outputs.items()):
        assert path.read_bytes() == oracle(data), name
    for timeline in (dumped[2]["simulation"]["phase2"]["timeline"], dumped[3]["timeline"]):
        assert isinstance(timeline, jsonio.RowStream) and len(timeline) > 0


def test_nan_in_report_is_internal_error_and_writes_nothing(tmp_path, monkeypatch):
    traces, sched = tiny_schedule(tmp_path)
    real = cli.simulate

    def nan_start(*args, **kwargs):
        report = real(*args, **kwargs)
        timeline = report.timeline
        first = array("d", timeline.starts[0])
        first[0] = math.nan
        return dataclasses.replace(report, timeline=dataclasses.replace(
            timeline, starts=(first, *timeline.starts[1:])))

    monkeypatch.setattr(cli, "simulate", nan_start)
    out = tmp_path / "report.json"
    argv = ["simulate", "--schedule", str(sched), "--traces", str(traces), "--out", str(out)]
    assert main(argv) == EXIT_INTERNAL
    assert not out.exists()
    out.write_text("previous\n")
    assert main(argv) == EXIT_INTERNAL
    assert out.read_text() == "previous\n"


def test_timeline_is_written_without_holding_its_text(tmp_path):
    """write_json of a 200-iteration simulate report peaks below a quarter of
    the bytes it writes, so memory does not grow with the rows, and writes
    the bytes json.dumps gives for it over many chunks of rows."""
    cfg, prof = model_preset("tiny-2layer"), hardware_preset("a100-server")
    inventory = tensor_inventory(cfg)
    traces = build_trace(inventory, prof.timing_model())
    model = LayerModel.from_inventory(inventory, 65536, cfg.batch_size)
    sched = schedule(model, traces, 8_000_000, ShardingModel(2, 0))
    report = simulate(sched, traces, prof, iterations=200, update_mode="sync")
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        jsonio.write_json(report.to_dict(), str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.timeline) > 20 * jsonio._CHUNK_ROWS
    assert peak < os.path.getsize(out) / 4
    assert out.read_bytes() == oracle(report.to_dict())


def test_one_large_iteration_is_written_in_chunks(tmp_path):
    """write_json of a one-iteration simulate report with over 20 chunks of
    rows peaks below a quarter of the bytes it writes, so that one
    iteration's rows are never formatted at once, and writes the bytes
    json.dumps gives for it."""
    cfg = dataclasses.replace(model_preset("gpt3-1.7b"), num_layers=8, seq_len=128)
    prof = hardware_preset("a100-server")
    inventory = tensor_inventory(cfg)
    traces = build_trace(inventory, prof.timing_model())
    model = LayerModel.from_inventory(inventory, 65536, cfg.batch_size)
    sched = schedule(model, traces, 2**30, ShardingModel(2, 0))
    report = simulate(sched, traces, prof)
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        jsonio.write_json(report.to_dict(), str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.timeline.starts) == 1
    assert len(report.timeline) > 20 * jsonio._CHUNK_ROWS
    assert peak < os.path.getsize(out) / 4
    assert out.read_bytes() == oracle(report.to_dict())


def schedules_to_write():
    """Both phases of a tiny-2layer schedule and of the GPT-3 175B layer
    shape at two layers (12 GiB, rank 5 of 8, recomputed activations)."""
    from test_phase1_incremental import GIB, paper_shaped
    cfg = model_preset("tiny-2layer")
    inventory = tensor_inventory(cfg)
    tiny = (LayerModel.from_inventory(inventory, 2**20, cfg.batch_size), build_trace(inventory),
            2**30)
    model, traces = paper_shaped(2, 4 * 2**20)
    for model, traces, budget in (tiny, (model, traces, 12 * GIB)):
        for phase1_only in (True, False):
            yield schedule(model, traces, budget, ShardingModel(8, 5), phase1_only=phase1_only)


def test_schedule_tasks_are_written_from_columns(tmp_path):
    """A schedule's tasks reach write_json as a row stream of str, int and
    bool columns, and are written as json.dumps writes each task as a dict."""
    for k, sched in enumerate(schedules_to_write()):
        data = sched.to_dict()
        assert isinstance(data["tasks"], jsonio.RowStream)
        assert data["tasks"].value_types() == (str, int, int, int, int, bool)
        out = tmp_path / f"schedule{k}.json"
        jsonio.write_json(data, str(out))
        rows = [dataclasses.asdict(t) for t in sched.tasks]
        assert len(rows) > 0
        assert out.read_bytes() == (json.dumps({**data, "tasks": rows}, **OPTS) + "\n").encode()

"""Report writer: byte-identical to json.dumps(indent=2, sort_keys=True, allow_nan=False)."""
import dataclasses
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hiermem import cli, jsonio
from hiermem.cli import EXIT_INTERNAL, EXIT_OK, main

OPTS = {"indent": 2, "sort_keys": True, "allow_nan": False}


def oracle(data) -> bytes:
    return (json.dumps(data, **OPTS) + "\n").encode()


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


json_like = st.recursive(
    row_lists() | scalars,
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner) |
    st.dictionaries(texts, inner, max_size=3) |
    st.dictionaries(st.integers(), inner, max_size=2),
    max_leaves=12)


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("writer") / "report.json"


@settings(max_examples=300, deadline=None)
@given(data=json_like | st.lists(json_like | unsupported, max_size=3))
@example(data={"rows": [{"k": 1.0}], "text": jsonio._ROWS_MARKER % 0})
@example(data=[[{"k": 1}], [{"k": 2}], 'x"' + jsonio._ROWS_MARKER % 1])
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


def test_rows_path_takes_flat_rows_only():
    rows = [{"a": 1.5, "b": None, "c": True, "d": "x"}, {"a": -0.0, "b": 3, "c": False, "d": ""}]
    assert jsonio._row_columns(rows) is not None
    for near in ([], [{}], [*rows, {"a": 1.0}], [*rows, {**rows[0], "e": 1}],
                 [{**rows[0], "a": [1]}], [{1: 1.0}], [{"a": math.nan}], (*rows,)):
        assert jsonio._row_columns(near) is None


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
    commands = {
        "pipeline": ["pipeline", "--config", config],
        "simulate": ["simulate", "--schedule", str(sched), "--traces", str(traces),
                     "--iterations", "3"],
        "lockfree": ["lockfree", "--toy-config", toy, "--iters", "10", "--seed", "1"],
    }
    outputs = {"trace": traces, "schedule": sched}
    for name, argv in commands.items():
        outputs[name] = tmp_path / f"{name}.json"
        assert main([*argv, "--out", str(outputs[name])]) == EXIT_OK
    assert len(dumped) == len(outputs)
    for data, (name, path) in zip(dumped, outputs.items()):
        assert path.read_bytes() == oracle(data), name
    assert len(dumped[2]["simulation"]["phase2"]["timeline"]) > 0
    assert len(dumped[3]["timeline"]) > 0


def test_nan_in_report_is_internal_error_and_writes_nothing(tmp_path, monkeypatch):
    traces, sched = tiny_schedule(tmp_path)
    real = cli.simulate

    def nan_start(*args, **kwargs):
        report = real(*args, **kwargs)
        first = dataclasses.replace(report.timeline[0], start_s=math.nan)
        return dataclasses.replace(report, timeline=(first, *report.timeline[1:]))

    monkeypatch.setattr(cli, "simulate", nan_start)
    out = tmp_path / "report.json"
    argv = ["simulate", "--schedule", str(sched), "--traces", str(traces), "--out", str(out)]
    assert main(argv) == EXIT_INTERNAL
    assert not out.exists()
    out.write_text("previous\n")
    assert main(argv) == EXIT_INTERNAL
    assert out.read_text() == "previous\n"

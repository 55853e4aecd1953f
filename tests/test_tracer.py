"""Lifetime derivation: interval placement, recompute, validation."""
import pytest

from hiermem.errors import ConfigError
from hiermem.footprint import TransformerConfig, tensor_inventory
from hiermem.tracer import (
    TimingModel,
    backward_id,
    build_trace,
    forward_id,
    validate_trace,
)


def make(layers=2, b=1, s=4, dm=8, dffn=16):
    cfg = TransformerConfig(b, s, dm, dffn, layers, 1)
    return tensor_inventory(cfg)


def by_id(inventory):
    return {i: spec for i, spec in enumerate(inventory)}


class TestLifetimes:
    def test_two_layer_param_lifetime(self):
        inv = make(layers=2)
        traces = {t.tensor_id: t for t in build_trace(inv)}
        info = by_id(inv)
        layer0_param = next(i for i, s in info.items()
                            if s.kind == "param16" and s.layer_index == 0)
        assert traces[layer0_param].first_id == 0
        assert traces[layer0_param].end_id == 3  # ops f0,f1,b1,b0

    def test_single_layer_lifetimes_within_two_ops(self):
        inv = make(layers=1)
        for t in build_trace(inv):
            assert 0 <= t.first_id <= t.end_id <= 1

    def test_gradients_live_only_at_backward(self):
        inv = make(layers=3)
        info = by_id(inv)
        for t in build_trace(inv):
            if info[t.tensor_id].kind == "grad16":
                layer = info[t.tensor_id].layer_index
                assert t.first_id == t.end_id == backward_id(layer, 3)

    def test_recompute_collapses_intermediate_acts(self):
        inv = make(layers=2)
        info = by_id(inv)
        for t in build_trace(inv, recompute_policy=True):
            spec = info[t.tensor_id]
            if spec.kind != "activation16":
                continue
            fwd = forward_id(spec.layer_index)
            if spec.name.endswith("post_ffn.layer_norm.act16"):
                # checkpointed boundary output: regeneration access at backward
                assert (t.first_id, t.end_id) == (fwd, backward_id(spec.layer_index, 2))
            else:
                assert (t.first_id, t.end_id) == (fwd, fwd)

    def test_optim_state_not_traced(self):
        inv = make()
        info = by_id(inv)
        ids = {t.tensor_id for t in build_trace(inv)}
        for i, spec in info.items():
            assert (i in ids) == (spec.kind != "optim32")

    def test_empty_inventory_rejected(self):
        with pytest.raises(ConfigError):
            build_trace([])

    def test_nesting_property(self):
        n = 5
        inv = make(layers=n)
        info = by_id(inv)
        params = {}
        for t in build_trace(inv):
            if info[t.tensor_id].kind == "param16":
                params.setdefault(info[t.tensor_id].layer_index, t)
        for i in range(n - 1):
            outer, inner = params[i], params[i + 1]
            assert outer.first_id < inner.first_id
            assert inner.end_id < outer.end_id


class TestTimingModel:
    def test_proportional_scales_with_bytes(self):
        inv = make()
        tm = TimingModel(gpu_sec_per_byte=1e-9, cpu_sec_per_byte=1e-9)
        info = by_id(inv)
        for t in build_trace(inv, tm):
            spec = info[t.tensor_id]
            if spec.kind in ("activation16", "grad16"):
                assert t.gpu_time == spec.bytes * 1e-9
                assert t.cpu_time == 0.0
            elif spec.kind == "param16":
                assert t.cpu_time == 6 * spec.bytes * 1e-9  # optims are 3x params bytes
                assert t.gpu_time == 0.0

    def test_constant_model(self):
        inv = make()
        tm = TimingModel(kind="constant", gpu_time_const=0.5, cpu_time_const=0.25)
        info = by_id(inv)
        for t in build_trace(inv, tm):
            if info[t.tensor_id].kind == "activation16":
                assert t.gpu_time == 0.5

    def test_table_model_requires_all_names(self):
        inv = make(layers=1)
        tm = TimingModel(kind="table", table={inv[0].name: (0.0, 1.0)})
        with pytest.raises(ConfigError):
            build_trace(inv, tm)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            TimingModel(kind="warp").times_for(make()[0])


class TestValidateTrace:
    def test_valid_traces_pass(self):
        inv = make(layers=3)
        traces = build_trace(inv)
        assert validate_trace(traces, 3) == []

    def test_reversed_interval_flagged(self):
        from hiermem.tracer import TensorTrace
        bad = [TensorTrace(0, 3, 1, 0.0, 0.0)]
        violations = validate_trace(bad, 2)
        assert len(violations) == 1 and "tensor 0" in violations[0]

    def test_duplicate_id_flagged(self):
        from hiermem.tracer import TensorTrace
        bad = [TensorTrace(0, 0, 1, 0.0, 0.0), TensorTrace(0, 0, 1, 0.0, 0.0)]
        assert any("duplicate" in v for v in validate_trace(bad, 2))

    def test_out_of_range_flagged(self):
        from hiermem.tracer import TensorTrace
        assert validate_trace([TensorTrace(0, 0, 2, 0.0, 0.0)], 1)

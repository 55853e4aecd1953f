"""Footprint model: table rows, totals, counts, and the tensor inventory."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermem.errors import ConfigError
from hiermem.footprint import (
    GIB,
    TensorSpec,
    TransformerConfig,
    ignored_terms,
    layer_footprint,
    layer_rows,
    model_footprint,
    param_count,
    tensor_inventory,
)


def cfg(b=1, s=1, dm=1, dffn=1, layers=1, heads=1):
    return TransformerConfig(b, s, dm, dffn, layers, heads)


GPT3 = cfg(b=1, s=2048, dm=12288, dffn=49152, layers=96, heads=96)


class TestLayerFootprint:
    def test_gpt3_per_layer_totals(self):
        # independent evaluation of the three closed forms
        dm, dffn, b, s = 12288, 49152, 1, 2048
        params = 16 * dm**2 + 8 * dm * dffn
        acts = 40 * b * s * dm + 8 * b * s * dffn
        optims = 48 * dm**2 + 24 * dm * dffn
        assert (params, acts, optims) == (7_247_757_312, 1_811_939_328, 21_743_271_936)
        lf = layer_footprint(GPT3)
        assert (lf.params_bytes, lf.acts_bytes, lf.optims_bytes) == (params, acts, optims)

    def test_all_ones_totals(self):
        lf = layer_footprint(cfg())
        assert (lf.params_bytes, lf.acts_bytes, lf.optims_bytes) == (24, 48, 72)

    def test_doubling_batch_scales_only_acts(self):
        base = layer_footprint(cfg(b=3, s=7, dm=16, dffn=64))
        doubled = layer_footprint(cfg(b=6, s=7, dm=16, dffn=64))
        assert doubled.acts_bytes == 2 * base.acts_bytes
        assert doubled.params_bytes == base.params_bytes
        assert doubled.optims_bytes == base.optims_bytes

    def test_exact_mode_matches_row_sums(self):
        lf = layer_footprint(GPT3, exact=True)
        assert (lf.params_bytes, lf.acts_bytes, lf.optims_bytes) == lf.row_sums()

    def test_row_structure(self):
        rows = layer_rows(GPT3)
        assert len(rows) == 12
        assert sum(1 for r in rows if r.params_bytes > 0) == 6

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            cfg(b=0)
        with pytest.raises(ConfigError):
            cfg(dm=-4)
        with pytest.raises(ConfigError):
            TransformerConfig(1, 1, 10, 1, 1, 3)  # d_model not divisible by heads


class TestModelFootprint:
    def test_gpt3_model_totals_in_gib(self):
        mf = model_footprint(GPT3)
        assert mf["params_bytes"] == 648 * GIB
        assert mf["acts_bytes"] == 162 * GIB
        assert mf["optims_bytes"] == 1944 * GIB

    def test_single_layer_identity(self):
        one = model_footprint(cfg(b=2, s=3, dm=8, dffn=32, layers=1))
        lf = layer_footprint(cfg(b=2, s=3, dm=8, dffn=32, layers=1))
        assert one == {"params_bytes": lf.params_bytes, "acts_bytes": lf.acts_bytes,
                       "optims_bytes": lf.optims_bytes}

    def test_layer_linearity(self):
        one = model_footprint(cfg(b=2, s=3, dm=8, dffn=32, layers=1))
        two = model_footprint(cfg(b=2, s=3, dm=8, dffn=32, layers=2))
        assert all(two[k] == 2 * one[k] for k in one)


class TestParamCount:
    def test_gpt3_1_7b(self):
        c = cfg(s=2048, dm=2304, dffn=9216, layers=24, heads=24)
        assert param_count(c) == 24 * (4 * 2304**2 + 2 * 2304 * 9216)
        assert param_count(c) == 1_528_823_808

    def test_trivial(self):
        assert param_count(cfg()) == 6

    def test_layer_doubling(self):
        assert param_count(cfg(dm=6, dffn=24, layers=8)) == 2 * param_count(
            cfg(dm=6, dffn=24, layers=4)
        )


dims = st.integers(min_value=1, max_value=512)


class TestInvariants:
    @settings(max_examples=200, deadline=None)
    @given(b=dims, s=dims, dm=dims, dffn=dims)
    def test_row_sum_identity(self, b, s, dm, dffn):
        c = cfg(b=b, s=s, dm=dm, dffn=dffn)
        lf = layer_footprint(c)
        rp, ra, ro = lf.row_sums()
        ip, ia, io = ignored_terms(c)
        assert rp == lf.params_bytes + ip
        assert ra == lf.acts_bytes + ia
        assert ro == lf.optims_bytes + io
        assert (ip, ia, io) == (8 * dm, 8 * b * s, 24 * dm)

    @settings(max_examples=100, deadline=None)
    @given(b=dims, s=dims, dm=dims, dffn=dims)
    def test_optims_are_three_times_params_exact(self, b, s, dm, dffn):
        lf = layer_footprint(cfg(b=b, s=s, dm=dm, dffn=dffn), exact=True)
        assert lf.optims_bytes == 3 * lf.params_bytes

    @settings(max_examples=50, deadline=None)
    @given(b=dims, s=dims, dm=dims, dffn=dims, n=st.integers(1, 64))
    def test_model_linearity(self, b, s, dm, dffn, n):
        one = model_footprint(cfg(b=b, s=s, dm=dm, dffn=dffn, layers=1))
        many = model_footprint(cfg(b=b, s=s, dm=dm, dffn=dffn, layers=n))
        assert all(many[k] == n * one[k] for k in one)


class TestInventory:
    def test_param_bearing_rows_per_layer(self):
        inv = tensor_inventory(cfg())
        assert sum(1 for t in inv if t.kind == "param16") == 6

    def test_param_grad_sum_includes_layernorm_terms(self):
        inv = tensor_inventory(GPT3)
        total = sum(t.bytes for t in inv if t.kind in ("param16", "grad16"))
        assert total == 648 * GIB + 96 * 8 * 12288

    def test_layernorm_specs_are_small(self):
        inv = tensor_inventory(GPT3)
        ln = [t for t in inv if "layer_norm" in t.name and t.kind == "param16"]
        assert ln and all(t.bytes < 4 * 2**20 for t in ln)
        assert ln[0].bytes == 2 * 12288  # half of the 4*d_m params row

    def test_logical_granularity_splits_fused_rows(self):
        c = cfg(dm=12, dffn=24, heads=2)
        row = tensor_inventory(c, "per_table_row")
        logical = tensor_inventory(c, "per_logical_tensor")
        assert sum(t.bytes for t in row) == sum(t.bytes for t in logical)
        qkv = [t.name for t in logical if "linear_qkv" in t.name and t.kind == "param16"]
        assert len(qkv) == 3

    def test_inventory_is_deterministic(self):
        a = tensor_inventory(GPT3)
        b = tensor_inventory(GPT3)
        assert a == b

    def test_negative_layer_index_rejected(self):
        with pytest.raises(ConfigError, match="negative layer_index -1"):
            TensorSpec("x", "param16", 1, -1)

    def test_unknown_granularity(self):
        with pytest.raises(ConfigError):
            tensor_inventory(cfg(), "per_page")

"""Lock-free protocol: Adam updates, buffers, conservation, staleness, throughput."""
import json

import numpy as np
import pytest

from hiermem.errors import ProtocolError
from hiermem.lockfree import (
    AdamHyper,
    DelayModel,
    GradMessage,
    MasterState,
    ParamBuffer,
    ToyTrainConfig,
    VirtualRuntime,
    apply_update,
    publish_params,
    run_lockfree,
    run_sync,
)
from hiermem.presets import PRESET_DIR_ENV, hardware_preset
from reference_train import reference_train

SSD = DelayModel.preset("ssd")
CPU = DelayModel.preset("cpu")
ZERO = DelayModel.preset("zero")


def small_cfg(**kw):
    base = dict(num_layers=3, dim=16, batch_size=32, seed=1, noise_std=1.0)
    base.update(kw)
    return ToyTrainConfig(**base)


class TestApplyUpdate:
    def test_zero_gradient_is_identity(self):
        p = np.ones(4, np.float32)
        m = np.zeros(4, np.float32)
        v = np.zeros(4, np.float32)
        p2, m2, v2, ok = apply_update(p, m, v, np.zeros(4, np.float32),
                                      AdamHyper(), step=1)
        assert ok
        np.testing.assert_array_equal(p2, p)
        np.testing.assert_array_equal(m2, 0)
        np.testing.assert_array_equal(v2, 0)

    def test_degenerate_scalar_case(self):
        hyper = AdamHyper(lr=0.1, beta1=0.0, beta2=0.0, eps=0.0)
        p, m, v, ok = apply_update(
            np.array([1.0], np.float32), np.zeros(1, np.float32),
            np.zeros(1, np.float32), np.array([1.0], np.float32), hyper, step=1,
        )
        assert ok and p[0] == pytest.approx(0.9)

    def test_nonfinite_gradient_rejected(self):
        p = np.ones(2, np.float32)
        g = np.array([1.0, np.nan], np.float32)
        p2, _, _, ok = apply_update(p, np.zeros(2, np.float32),
                                    np.zeros(2, np.float32), g, AdamHyper(), 1)
        assert not ok
        np.testing.assert_array_equal(p2, p)


class TestBuffers:
    def make(self, layers=2, dim=4):
        return ParamBuffer([np.zeros((dim, dim), np.float32) for _ in range(layers)])

    def test_accumulate_two_unit_gradients(self):
        buf = self.make()
        g = np.ones((4, 4), np.float16)
        buf.accumulate(GradMessage(0, g, 0))
        buf.accumulate(GradMessage(0, g, 1))
        np.testing.assert_array_equal(buf.g16[0], np.full((4, 4), 2.0, np.float16))

    def test_publish_clears_gradients(self):
        buf = self.make()
        buf.accumulate(GradMessage(0, np.ones((4, 4), np.float16), 0))
        publish_params(buf, 0, np.full((4, 4), 7.0, np.float32))
        np.testing.assert_array_equal(buf.g16[0], 0)
        assert buf.read(0)[1][0, 0] == np.float16(7.0)

    def test_publish_twice_bumps_version_only(self):
        buf = self.make()
        p = np.full((4, 4), 3.0, np.float32)
        v0 = buf.version(0)
        publish_params(buf, 0, p)
        publish_params(buf, 0, p)
        assert buf.version(0) == v0 + 2
        np.testing.assert_array_equal(buf.read(0)[1], p.astype(np.float16))

    def test_shape_mismatch_rejected(self):
        buf = self.make()
        with pytest.raises(ProtocolError):
            buf.accumulate(GradMessage(0, np.ones((2, 2), np.float16), 0))
        with pytest.raises(ProtocolError):
            buf.accumulate(GradMessage(9, np.ones((4, 4), np.float16), 0))

    def test_take_clears_and_counts(self):
        buf = self.make()
        buf.accumulate(GradMessage(1, np.ones((4, 4), np.float16), 3))
        grad, count, newest = buf.take(1)
        assert count == 1 and newest == 3
        assert buf.take(1) is None
        np.testing.assert_array_equal(buf.g16[1], 0)
        np.testing.assert_array_equal(grad, np.ones((4, 4), np.float32))


class TestConservation:
    def test_checksums_balance_in_both_modes(self):
        cfg = small_cfg()
        for report in (run_sync(cfg, SSD, 40), run_lockfree(cfg, SSD, 40)):
            assert report.conservation["balanced"]
            for layer in report.conservation["layers"]:
                assert layer["produced"] == layer["consumed"] == layer["applied"]
                assert layer["messages_sent"] == layer["messages_accumulated"] \
                    == layer["messages_consumed"] == 40


class TestStaleness:
    def test_sync_mode_staleness_is_zero(self):
        report = run_sync(small_cfg(), SSD, 30)
        assert report.staleness_histogram == {0: 90}  # 3 layers x 30 iters
        assert report.max_staleness == 0

    def test_lockfree_with_slow_updates_sees_staleness(self):
        report = run_lockfree(small_cfg(), SSD, 60)
        assert report.max_staleness >= 1
        assert all(s >= 0 for s in report.staleness_histogram)

    def test_inflight_one_keeps_staleness_zero_after_warmup(self):
        report = run_lockfree(small_cfg(), ZERO, 30, max_inflight=1)
        assert report.max_staleness == 0

    @pytest.mark.parametrize("delays", [ZERO, SSD], ids=["zero", "ssd"])
    @pytest.mark.parametrize("max_inflight", [2, 3])
    def test_inflight_bound_caps_staleness(self, max_inflight, delays):
        """With more than one iteration in flight the ledger balances and
        staleness stays under the bound, whether the updates keep up (zero:
        the buffer lets the GPU proceed at once) or fall behind (ssd)."""
        report = run_lockfree(small_cfg(num_layers=2, dim=4), delays, 6,
                              max_inflight=max_inflight)
        assert report.conservation["balanced"]
        assert report.max_staleness <= max_inflight - 1


class TestSyncEquivalence:
    def test_sync_zero_delays_bit_identical_to_reference(self):
        cfg = small_cfg(seed=5)
        sync = run_sync(cfg, ZERO, 25)
        ref = reference_train(cfg, 25)
        assert list(sync.loss_curve) == ref  # bitwise float equality

    def test_lockfree_one_inflight_matches_sync_trajectory(self):
        cfg = small_cfg(seed=3)
        sync = run_sync(cfg, ZERO, 25)
        lf = run_lockfree(cfg, ZERO, 25, max_inflight=1)
        np.testing.assert_allclose(lf.loss_curve, sync.loss_curve, rtol=1e-6)


class TestThroughputAndIdle:
    def test_ssd_ratio_speedup_band(self):
        cfg = ToyTrainConfig(num_layers=4, dim=32, batch_size=64, seed=0, noise_std=1.0)
        sync = run_sync(cfg, SSD, 150)
        lf = run_lockfree(cfg, SSD, 150)
        speedup = lf.samples_per_s / sync.samples_per_s
        assert 2.0 <= speedup <= 3.5

    def test_sync_ssd_bound_idle(self):
        cfg = ToyTrainConfig(num_layers=4, dim=32, batch_size=16, seed=0, noise_std=1.0)
        report = run_sync(cfg, SSD, 40)
        assert report.gpu_idle_fraction >= 0.7

    def test_sync_cpu_only_idle(self):
        cfg = ToyTrainConfig(num_layers=4, dim=32, batch_size=64, seed=0, noise_std=1.0)
        report = run_sync(cfg, CPU, 40)
        assert report.gpu_idle_fraction <= 0.2

    def test_zero_delays_idle_negligible(self):
        report = run_sync(small_cfg(), ZERO, 20)
        assert report.gpu_idle_fraction == pytest.approx(0.0, abs=1e-9)


class TestSyncTiming:
    @pytest.mark.parametrize("delays", [SSD, CPU], ids=["ssd", "cpu"])
    def test_makespan_is_the_sum_of_the_delay_charges(self, delays):
        cfg, iters = small_cfg(), 30
        per_layer = (
            delays.fetch_s(cfg.param_bytes16) + delays.compute_s(cfg.flops_per_layer)
            + delays.compute_s(2 * cfg.flops_per_layer) + delays.offload_s(cfg.param_bytes16)
            + delays.state_fetch_s(cfg.state_bytes32)
            + delays.update_compute_s(cfg.state_bytes32)
            + delays.state_store_s(cfg.state_bytes32)
        )
        report = run_sync(cfg, delays, iters)
        assert report.makespan_s == pytest.approx(iters * cfg.num_layers * per_layer,
                                                  rel=1e-12)
        assert report.publishes == iters * cfg.num_layers

    def test_preset_dir_half_ssd_rate_adds_the_state_io(self, tmp_path, monkeypatch):
        cfg, iters = small_cfg(), 30
        hardware = hardware_preset("a100-server").to_dict()
        hardware["links"]["ssd_io"]["bandwidth_bytes_per_s"] /= 2
        (tmp_path / "a100-server.json").write_text(json.dumps({"kind": "hardware",
                                                               **hardware}))
        monkeypatch.setenv(PRESET_DIR_ENV, str(tmp_path))
        slow = run_sync(cfg, DelayModel.preset("ssd"), iters).makespan_s
        # half the bandwidth doubles each state fetch and store
        state_io = SSD.state_fetch_s(cfg.state_bytes32) + SSD.state_store_s(cfg.state_bytes32)
        assert slow - run_sync(cfg, SSD, iters).makespan_s == \
            pytest.approx(iters * cfg.num_layers * state_io, rel=1e-9)


class TestDeterminism:
    def test_virtual_mode_reproducible(self):
        cfg = small_cfg(seed=11)
        a = run_lockfree(cfg, SSD, 50)
        b = run_lockfree(cfg, SSD, 50)
        assert a.to_dict() == b.to_dict()


class TestVirtualRuntime:
    def test_deadlock_detected(self):
        rt = VirtualRuntime()
        box = rt.mailbox()

        def starved():
            yield ("recv", box)

        with pytest.raises(ProtocolError):
            rt.run([starved()])

    def test_message_timestamps_sync_clocks(self):
        rt = VirtualRuntime()
        box = rt.mailbox()

        def sender():
            yield ("sleep", 5.0)
            yield ("send", box, "hello")

        def receiver():
            msg = yield ("recv", box)
            assert msg == "hello"

        makespan = rt.run([sender(), receiver()])
        assert makespan == pytest.approx(5.0)

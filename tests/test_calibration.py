"""Tests of simulator-driven latency-model calibration."""

import pytest

from repro.calibration import calibrated_params, measure_queuing_delay
from repro.core import permkernels
from repro.core.latency import LatencyParams, Mesh
from repro.noc.network import NetworkConfig
from repro.noc.router import RouterConfig


class TestMeasureQueuingDelay:
    def test_low_load_queuing_in_paper_range(self):
        """The paper observes td_q of 0-1 cycles at its operating load."""
        result = measure_queuing_delay(Mesh.square(4), injection_rate=0.02,
                                       cycles=6_000, warmup=500)
        assert -0.2 < result.td_q < 1.0
        assert result.per_hop == pytest.approx(4.0, abs=1.0)
        assert result.n_packets > 100

    def test_higher_load_increases_td_q(self):
        low = measure_queuing_delay(Mesh.square(4), injection_rate=0.01,
                                    cycles=5_000, warmup=500, seed=1)
        high = measure_queuing_delay(Mesh.square(4), injection_rate=0.12,
                                     cycles=5_000, warmup=500, seed=1)
        assert high.td_q > low.td_q

    def test_pipeline_depth_reflected_in_slope(self):
        config = NetworkConfig(router=RouterConfig(pipeline_depth=2))
        result = measure_queuing_delay(
            Mesh.square(4), injection_rate=0.02, cycles=5_000, warmup=500,
            network_config=config,
        )
        assert result.per_hop == pytest.approx(3.0, abs=0.8)

    def test_fast_path_matches_default_engine(self):
        """The fit runs on NoCSimulator's engine choice: the fast path
        (reference backend) and the default engine measure the same."""
        kwargs = dict(injection_rate=0.03, cycles=3_000, warmup=300, seed=2)
        default = measure_queuing_delay(Mesh.square(4), **kwargs)
        with permkernels.force_backend("reference"):
            fast = measure_queuing_delay(Mesh.square(4), **kwargs)
        assert fast == default

    def test_insufficient_samples_rejected(self):
        with pytest.raises(ValueError):
            measure_queuing_delay(Mesh.square(4), injection_rate=0.001,
                                  cycles=200, warmup=0)


class TestCalibratedParams:
    def test_returns_params_with_measured_td_q(self):
        params = calibrated_params(Mesh.square(4), injection_rate=0.02,
                                   cycles=5_000, warmup=500)
        assert isinstance(params, LatencyParams)
        assert 0 <= params.td_q < 1.5
        # Other fields untouched from the default base.
        assert params.td_r == LatencyParams().td_r

    def test_custom_base_preserved(self):
        base = LatencyParams(td_s=3.0)
        params = calibrated_params(Mesh.square(4), injection_rate=0.02,
                                   cycles=5_000, warmup=500, base=base)
        assert params.td_s == 3.0

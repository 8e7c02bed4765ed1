"""Observability overhead benchmark.

Runs the C1 raw-simulator workload (SSS mapping, 4000 measured cycles)
with observability off and with full tracing on, recording each
wall-clock in the timings file.  ``check_regression.py`` guards the
on/off ratio from interleaved rounds, and ``tests/obs/test_tracing.py``
checks that tracing leaves the results unchanged.
"""

from conftest import run_once

from repro.core.sss import sort_select_swap
from repro.experiments.base import standard_instance
from repro.noc.simulator import NoCSimulator
from repro.noc.traffic import MappedWorkloadTraffic
from repro.obs import Observability, ObservabilityConfig, SamplerConfig, TraceConfig


def _run_c1(obs=None):
    instance = standard_instance("C1")
    mapping = sort_select_swap(instance).mapping
    traffic = MappedWorkloadTraffic(instance, mapping, generate_replies=True, seed=13)
    sim = NoCSimulator(instance.mesh, traffic, obs=obs)
    return sim.run(warmup=500, measure=4_000)


def _traced_obs():
    return Observability(
        ObservabilityConfig(trace=TraceConfig(), sample=SamplerConfig(every=200))
    )


def test_obs_off_c1(benchmark):
    result = run_once(benchmark, _run_c1)
    assert result.packets_delivered > 0


def test_obs_tracing_c1(benchmark):
    obs = _traced_obs()
    result = run_once(benchmark, _run_c1, obs)
    assert obs.tracer.packets_traced > 0
    assert obs.sampler.n_samples > 0
    assert len(obs.registry) > 0
    assert result.packets_delivered > 0


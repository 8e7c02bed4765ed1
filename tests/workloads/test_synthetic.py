"""Tests of the calibrated rate generator and its closed-form burst math."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.synthetic import (
    BurstProfile,
    RateMatrix,
    RateTargets,
    _solve_spike_levels,
    generate_rate_matrix,
)


class TestRateTargets:
    def test_cv(self):
        t = RateTargets(mean=2.0, std=5.0)
        assert t.cv == pytest.approx(2.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            RateTargets(mean=0, std=1)
        with pytest.raises(ValueError):
            RateTargets(mean=1, std=-1)


class TestSpikeLevels:
    @given(
        p=st.floats(0.002, 0.4),
        q=st.floats(1.0, 200.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_closed_form_satisfies_both_moments(self, p, q):
        if p * q >= 0.999:
            return  # infeasible region, rejected by the solver
        alpha, beta = _solve_spike_levels(p, q)
        assert alpha >= 0 and 0 <= beta <= 1
        assert p * alpha + (1 - p) * beta == pytest.approx(1.0)
        assert p * alpha**2 + (1 - p) * beta**2 == pytest.approx(q, rel=1e-9)

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            _solve_spike_levels(p=0.5, q=10.0)
        with pytest.raises(ValueError):
            _solve_spike_levels(p=0.1, q=0.5)
        with pytest.raises(ValueError):
            _solve_spike_levels(p=0.0, q=2.0)


class TestGenerateRateMatrix:
    def test_exact_moment_matching(self):
        targets = RateTargets(mean=7.008, std=88.3)
        m = generate_rate_matrix(4, 16, 256, targets, seed=0)
        assert m.pooled_mean == pytest.approx(targets.mean, rel=1e-9)
        assert m.pooled_std == pytest.approx(targets.std, rel=1e-9)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_moment_matching_any_seed(self, seed):
        targets = RateTargets(mean=1.9, std=17.5)
        m = generate_rate_matrix(4, 8, 256, targets, seed=seed)
        assert m.pooled_mean == pytest.approx(targets.mean, rel=1e-9)
        assert m.pooled_std == pytest.approx(targets.std, rel=1e-6)

    def test_low_cv_target_flat_series(self):
        targets = RateTargets(mean=5.0, std=0.0)
        m = generate_rate_matrix(2, 4, 16, targets, seed=1)
        assert m.pooled_mean == pytest.approx(5.0)
        # flat in time: every thread's row is constant
        assert np.allclose(m.samples.std(axis=1), m.samples.std(axis=1)[0])

    def test_thread_means_positive_and_moderate_spread(self):
        targets = RateTargets(mean=7.0, std=88.0)
        m = generate_rate_matrix(4, 16, 256, targets, seed=2)
        assert np.all(m.thread_means > 0)
        # The across-thread CV stays well below the pooled CV: the bursts
        # live in the time dimension.
        cv_threads = m.thread_means.std() / m.thread_means.mean()
        assert cv_threads < 2.0

    def test_fixed_thread_scales(self):
        scales = np.linspace(1, 8, 8)
        targets = RateTargets(mean=4.0, std=20.0)
        m = generate_rate_matrix(2, 4, 128, targets, seed=3, thread_scales=scales)
        # Means preserved up to the common normalisation factor.
        expected = scales * targets.mean / scales.mean()
        assert np.allclose(m.thread_means, expected)

    def test_deterministic(self):
        targets = RateTargets(mean=2.0, std=15.0)
        a = generate_rate_matrix(2, 8, 128, targets, seed=7)
        b = generate_rate_matrix(2, 8, 128, targets, seed=7)
        assert np.array_equal(a.samples, b.samples)

    def test_unreachable_cv_rejected(self):
        targets = RateTargets(mean=1.0, std=50.0)  # CV 50 -> q ~ 2500
        with pytest.raises(ValueError):
            generate_rate_matrix(1, 2, 8, targets, seed=0)

    def test_invalid_dimensions(self):
        t = RateTargets(1.0, 1.0)
        with pytest.raises(ValueError):
            generate_rate_matrix(0, 4, 64, t)
        with pytest.raises(ValueError):
            generate_rate_matrix(1, 4, 1, t)

    def test_invalid_thread_scales(self):
        t = RateTargets(1.0, 1.0)
        with pytest.raises(ValueError):
            generate_rate_matrix(1, 4, 64, t, thread_scales=np.ones(3))
        with pytest.raises(ValueError):
            generate_rate_matrix(1, 4, 64, t, thread_scales=np.zeros(4))

    def test_app_of_thread_layout(self):
        m = generate_rate_matrix(3, 4, 64, RateTargets(1.0, 2.0), seed=0)
        assert list(m.app_of_thread) == [0] * 4 + [1] * 4 + [2] * 4


class TestRateMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            RateMatrix(np.zeros((2, 2)) - 1, np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            RateMatrix(np.zeros((2, 2)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            RateMatrix(np.zeros(4), np.zeros(4, dtype=int))


class TestBurstProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            BurstProfile(app_spread=-1)
        with pytest.raises(ValueError):
            BurstProfile(max_spikes=0)

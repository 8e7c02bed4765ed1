"""Synthetic bursty communication-rate generation.

The paper characterises each configuration by the mean and standard
deviation of the cache / memory request rates (Table 3).  Those statistics
cannot be per-thread statistics: with 64 non-negative per-thread rates the
sample std can be at most ``sqrt(63) ~ 7.94`` times the mean, yet e.g. C1
reports cache ``mu = 7.008, sigma = 88.3`` (ratio 12.6).  They are
therefore statistics over *time-windowed rate samples* — bursty traffic
observed across threads and measurement windows.  This module generates
such samples:

1. Each application gets a scale factor (applications differ in intensity;
   the paper sorts them by total communication rate) and each thread a
   moderate per-thread scale around its application's — this is the
   *across-thread* heterogeneity the mapping algorithms actually see.
2. Each thread's window series is a two-level burst process: ``k`` spike
   windows at ``alpha`` times the thread mean and baseline windows at
   ``beta`` times it, with ``alpha``/``beta`` solved in closed form so the
   *pooled* (thread x window) mean and std hit the Table 3 targets
   exactly.  Putting the huge target CV into the time dimension (bursts)
   rather than across threads mirrors real traced traffic: threads of one
   application resemble each other on average but are individually bursty.

Per-thread rates ``c_j`` / ``m_j`` — what the mapping algorithms consume —
are the time averages of each thread's window series (``= thread scale``
by construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.utils.rng import as_rng

__all__ = [
    "RateTargets",
    "BurstProfile",
    "RateMatrix",
    "generate_rate_matrix",
]


@dataclass(frozen=True)
class RateTargets:
    """Target pooled mean/std of windowed rate samples (one Table 3 cell pair)."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ValueError(f"target mean must be positive, got {self.mean}")
        if self.std < 0:
            raise ValueError(f"target std must be non-negative, got {self.std}")

    @property
    def cv(self) -> float:
        """Coefficient of variation sigma/mu."""
        return self.std / self.mean


@dataclass(frozen=True)
class BurstProfile:
    """Shape (not scale) of the generated traffic.

    Attributes
    ----------
    app_spread:
        Lognormal sigma of the application-level scale factors.  Larger
        values make concurrently running applications more dissimilar
        (the paper's applications span roughly a 3-6x total-rate range).
    thread_spread:
        Lognormal sigma of per-thread scales within an application.
    max_spikes:
        Upper bound on the number of spike windows per thread; the actual
        count is chosen per target CV (fewer spikes = burstier).
    """

    app_spread: float = 0.55
    thread_spread: float = 0.3
    max_spikes: int = 8

    def __post_init__(self) -> None:
        for name in ("app_spread", "thread_spread"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.max_spikes < 1:
            raise ValueError("max_spikes must be at least 1")


@dataclass(frozen=True)
class RateMatrix:
    """Windowed rate samples: ``samples[t, w]`` for thread t, window w."""

    samples: np.ndarray  #: shape (n_threads, n_windows), non-negative
    app_of_thread: np.ndarray  #: application index per thread row

    def __post_init__(self) -> None:
        if self.samples.ndim != 2:
            raise ValueError(f"samples must be 2-D, got shape {self.samples.shape}")
        if np.any(self.samples < 0):
            raise ValueError("rates must be non-negative")
        if self.app_of_thread.shape != (self.samples.shape[0],):
            raise ValueError("app_of_thread must have one entry per thread")

    @cached_property
    def thread_means(self) -> np.ndarray:
        """Per-thread time-averaged rate — the ``c_j`` / ``m_j`` inputs."""
        return self.samples.mean(axis=1)

    @property
    def pooled_mean(self) -> float:
        return float(self.samples.mean())

    @property
    def pooled_std(self) -> float:
        return float(self.samples.std())

    @property
    def n_threads(self) -> int:
        return self.samples.shape[0]

    @property
    def n_windows(self) -> int:
        return self.samples.shape[1]


def _solve_spike_levels(p: float, q: float) -> tuple[float, float]:
    """Solve the two-level burst process for (alpha, beta).

    Find ``alpha`` (spike level) and ``beta`` (baseline level), both in
    units of the thread mean, such that with spike probability ``p``::

        p*alpha   + (1-p)*beta   = 1      (thread means preserved)
        p*alpha^2 + (1-p)*beta^2 = q      (pooled second moment hit)

    Requires ``p*q < 1`` (enough windows to concentrate the variance) and
    ``q >= 1``.  Closed form: ``beta = 1 - sqrt(1 - (1-p*q)/(1-p))``.
    """
    if q < 1:
        raise ValueError(f"second-moment ratio q must be >= 1, got {q}")
    if not 0 < p < 1:
        raise ValueError(f"spike probability must be in (0, 1), got {p}")
    if p * q >= 1:
        raise ValueError(
            f"spike probability {p} too large for q={q}; use fewer spikes"
        )
    beta = 1.0 - np.sqrt(1.0 - (1.0 - p * q) / (1.0 - p))
    alpha = (1.0 - (1.0 - p) * beta) / p
    return float(alpha), float(beta)


def generate_rate_matrix(
    n_apps: int,
    threads_per_app: int,
    n_windows: int,
    targets: RateTargets,
    profile: BurstProfile | None = None,
    seed=None,
    thread_scales: np.ndarray | None = None,
) -> RateMatrix:
    """Generate a calibrated windowed-rate matrix for one traffic class.

    Pooled mean and std match ``targets`` *exactly* (up to float rounding):
    thread scales are drawn (application scale x thread jitter) and
    normalised to the target mean, then each thread's windows become a
    two-level spike/baseline series whose levels are solved analytically
    from the empirical thread-scale spread (see module docstring).

    Parameters
    ----------
    n_apps, threads_per_app, n_windows:
        Dimensions; the paper's configurations use 4 apps x 16 threads.
    targets:
        Pooled mean/std to reproduce (a Table 3 row's cache or memory pair).
    profile:
        Traffic shape; defaults are tuned so the Table 3 CVs are reachable.
    thread_scales:
        Optional fixed per-thread mean rates (length ``n_apps *
        threads_per_app``); drawn hierarchically when omitted.  Use this to
        correlate the memory matrix with the cache matrix of one workload.
    """
    if n_apps < 1 or threads_per_app < 1 or n_windows < 2:
        raise ValueError("n_apps, threads_per_app must be positive; n_windows >= 2")
    profile = profile or BurstProfile()
    rng = as_rng(seed)
    n_threads = n_apps * threads_per_app
    app_of_thread = np.repeat(np.arange(n_apps), threads_per_app)

    if thread_scales is None:
        app_scales = rng.lognormal(0.0, profile.app_spread, size=n_apps)
        thread_scales = app_scales[app_of_thread] * rng.lognormal(
            0.0, profile.thread_spread, size=n_threads
        )
    else:
        thread_scales = np.asarray(thread_scales, dtype=float).copy()
        if thread_scales.shape != (n_threads,):
            raise ValueError(f"thread_scales must have length {n_threads}")
        if np.any(thread_scales <= 0):
            raise ValueError("thread_scales must be positive")
    # Normalise so the pooled mean is exactly the target.
    thread_scales *= targets.mean / thread_scales.mean()

    # Split the target CV between across-thread spread (already fixed by
    # the scales) and within-thread bursts (solved for).
    cv_threads_sq = float(thread_scales.var() / thread_scales.mean() ** 2)
    q = (1.0 + targets.cv**2) / (1.0 + cv_threads_sq)
    if q <= 1.0 + 1e-12:
        # Target CV is not above the thread spread: flat time series is the
        # closest non-negative construction (std then comes from threads).
        samples = np.repeat(thread_scales[:, None], n_windows, axis=1)
    else:
        # Pick the largest spike count that keeps the solution feasible
        # (p*q < 1), capped by the profile.
        k = max(1, min(profile.max_spikes, int(0.5 * n_windows / q)))
        p = k / n_windows
        while p * q >= 1.0 and k > 1:
            k -= 1
            p = k / n_windows
        if p * q >= 1.0:
            raise ValueError(
                f"target CV {targets.cv:.2f} unreachable with {n_windows} "
                "windows; increase n_windows"
            )
        alpha, beta = _solve_spike_levels(p, q)
        samples = np.full((n_threads, n_windows), beta)
        for t in range(n_threads):
            spike_windows = rng.choice(n_windows, size=k, replace=False)
            samples[t, spike_windows] = alpha
        samples *= thread_scales[:, None]

    samples.setflags(write=False)
    app_of_thread.setflags(write=False)
    return RateMatrix(samples=samples, app_of_thread=app_of_thread)

"""Metric primitives and the registry behind the observability layer.

Three metric kinds in the Prometheus mould — :class:`Counter` (monotone),
:class:`Gauge` (set-to-value) and :class:`Histogram` (bucketed
distribution) — collected in a :class:`MetricsRegistry` keyed by
``(name, labels)``.  Histograms default to the fixed log-spaced
:data:`LATENCY_BUCKETS` so per-application latency distributions share
one bucket layout across every run and every exporter, which is what
makes traces and Prometheus scrapes comparable between mappings.

Everything here is plain Python with no per-observation allocation
(``observe`` is a bisect into a fixed bucket list), so the simulator can
fill histograms for hundreds of thousands of packets without showing up
in a profile.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = [
    "LATENCY_BUCKETS",
    "SECONDS_BUCKETS",
    "latency_buckets",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


def latency_buckets(lo: float = 1.0, hi: float = 8192.0, per_octave: int = 2) -> tuple[float, ...]:
    """Log-spaced bucket upper bounds covering ``[lo, hi]``.

    ``per_octave`` bounds per doubling; the default layout (2 per octave
    from 1 to 8192 cycles) resolves the paper's operating range (tens of
    cycles) to ~±19% while still covering fault-window tails of thousands
    of cycles in 27 buckets.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    if per_octave < 1:
        raise ValueError("per_octave must be >= 1")
    bounds = []
    ratio = 2.0 ** (1.0 / per_octave)
    value = lo
    while value < hi * (1 + 1e-12):
        bounds.append(round(value, 6))
        value *= ratio
    return tuple(bounds)


#: The one shared latency-bucket layout (cycles).
LATENCY_BUCKETS = latency_buckets()

#: Wall-clock bucket layout (seconds) for request/batch timing histograms
#: — the serving-side counterpart of :data:`LATENCY_BUCKETS`.  100 us to
#: 16 s at 2 buckets per octave covers cache hits (sub-millisecond)
#: through batched simulation replays (seconds) in 35 buckets.
SECONDS_BUCKETS = latency_buckets(lo=1e-4, hi=16.0, per_octave=2)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: tuple = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


class Gauge:
    """A value that can go up or down."""

    __slots__ = ("name", "help", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: tuple = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Histogram:
    """A fixed-bucket distribution with cumulative-bucket export.

    ``bounds`` are inclusive upper bounds; one implicit overflow bucket
    catches everything above the last bound (rendered as ``le="+Inf"``).
    """

    __slots__ = ("name", "help", "labels", "bounds", "counts", "total", "sum")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: tuple = (),
        bounds: tuple[float, ...] = LATENCY_BUCKETS,
    ) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("bucket bounds must be a non-empty ascending sequence")
        self.name = name
        self.help = help
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    def observe_many(self, values) -> None:
        for v in values:
            self.observe(v)

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by interpolating within buckets.

        Exact to within one bucket's width; the overflow bucket clamps to
        the last finite bound (a deliberate under-estimate that keeps the
        value finite).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.total == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        rank = q * self.total
        cum = 0
        for i, count in enumerate(self.counts):
            if count == 0:
                continue
            prev_cum = cum
            cum += count
            if cum >= rank:
                hi = self.bounds[i] if i < len(self.bounds) else self.bounds[-1]
                lo = self.bounds[i - 1] if i > 0 else 0.0
                if i >= len(self.bounds):
                    return hi
                frac = (rank - prev_cum) / count
                return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
        return self.bounds[-1]

    def merge(self, other: "Histogram") -> None:
        """Accumulate another histogram with the same bucket layout."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.total += other.total
        self.sum += other.sum

    def percentiles(self) -> dict[str, float]:
        """The standard p50/p95/p99 triple used throughout the repo."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Get-or-create store of metrics keyed by ``(name, labels)``.

    Labels are passed as keyword pairs and stored as a sorted tuple, so
    ``counter("x", app="1")`` always resolves to the same child.  A name
    is bound to one metric kind (and one help string) on first use;
    conflicting re-registration raises instead of silently shadowing.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple, object] = {}
        self._families: dict[str, tuple[str, str]] = {}  # name -> (kind, help)

    def _get(self, cls, name: str, help: str, labels: dict, **kwargs):
        label_items = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        key = (name, label_items)
        metric = self._metrics.get(key)
        if metric is not None:
            if metric.kind != cls.kind:
                raise TypeError(
                    f"metric {name!r} already registered as a {metric.kind}"
                )
            return metric
        family = self._families.get(name)
        if family is not None and family[0] != cls.kind:
            raise TypeError(f"metric {name!r} already registered as a {family[0]}")
        if family is None:
            self._families[name] = (cls.kind, help)
        metric = cls(name, help=help or (family[1] if family else ""), labels=label_items, **kwargs)
        self._metrics[key] = metric
        return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self, name: str, help: str = "", bounds: tuple[float, ...] = LATENCY_BUCKETS, **labels
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, bounds=bounds)

    def __iter__(self):
        """Metrics sorted by (name, labels) — the exporters' stable order."""
        return iter(self._metrics[k] for k in sorted(self._metrics))

    def __len__(self) -> int:
        return len(self._metrics)

    def help_for(self, name: str) -> str:
        family = self._families.get(name)
        return family[1] if family else ""

    def as_dict(self) -> dict:
        """JSON-safe snapshot (used by artifact writers and tests)."""
        out: dict[str, list] = {}
        for metric in self:
            entry: dict = {"labels": dict(metric.labels), "kind": metric.kind}
            if metric.kind == "histogram":
                entry["count"] = metric.total
                entry["sum"] = metric.sum
                entry["buckets"] = list(zip(metric.bounds, metric.counts[:-1]))
                entry["overflow"] = metric.counts[-1]
            else:
                entry["value"] = metric.value
            out.setdefault(metric.name, []).append(entry)
        return out

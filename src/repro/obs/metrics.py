"""Metric primitives: counters, gauges, and histograms in a registry.

The registry is the accumulation half of the observability layer
(:mod:`repro.obs`): instrumentation points increment counters, set gauges,
and feed histograms; reporting reads a deterministic snapshot.  Three
properties drive the design:

* **Observation only.**  Metrics never feed back into the simulation --
  no randomness, no simulated time, no control flow -- so enabling them
  cannot perturb a campaign's results.
* **Bounded memory.**  Histograms keep running aggregates (count, sum,
  sum of squares, mean, sum of squared deviations, min, max) plus a
  fixed set of bucket counts, never sample lists, so a six-day
  campaign's instrumentation stays O(#distinct metric series).
* **Deterministic snapshots.**  :meth:`MetricsRegistry.snapshot` orders
  series by (name, sorted labels), so two runs that perform the same
  operations produce identical snapshots regardless of dict insertion
  order or thread interleaving at read time.
* **Exact mergeability.**  Every primitive folds a peer's state into its
  own without loss: counters sum, gauges take the incoming (latest)
  observation, and histograms merge their aggregates and bucket counts
  exactly -- merging per-worker registries equals observing the
  concatenated stream.  :meth:`MetricsRegistry.merge_snapshot` consumes
  the snapshot rows shipped back from pool workers, which is what makes
  ``--metrics`` reports identical in content for 1 or 16 workers.

Series are keyed by metric name plus a frozen label set, Prometheus-style::

    registry.counter("chip.commands", command="wait").inc()
    registry.histogram("runner.unit_seconds", status="ok").observe(0.21)
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError

#: Default histogram bucket upper bounds (seconds-oriented log scale; the
#: final implicit bucket is +Inf).  Shared by every histogram so bucket
#: counts from different processes always merge exactly.
DEFAULT_BUCKET_BOUNDS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    60.0,
    300.0,
    1800.0,
)

#: A series key: (metric name, ((label, value), ...) sorted by label).
SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _series_key(name: str, labels: Mapping[str, Any]) -> SeriesKey:
    if not name:
        raise ConfigurationError("metric name must be non-empty")
    return name, tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count of events (or event weight)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0.0:
            raise ConfigurationError("counters only increase; use a gauge")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        """Fold a peer counter in: totals sum."""
        self.value += other.value


class Gauge:
    """A value that can move both ways (queue depth, pool size)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def merge(self, other: "Gauge") -> None:
        """Fold a peer gauge in: the incoming (latest) observation wins."""
        self.value = other.value


class Histogram:
    """Running aggregates plus bucket counts over an observed stream.

    Keeps count/sum/sum-of-squares/min/max, the running mean and the sum
    of squared deviations from it (``m2``, Welford's update on observe,
    Chan's pairwise formula on merge) -- so the standard deviation does
    not cancel on near-constant streams the way ``sum_sq / n - mean**2``
    does -- and one count per bucket of :data:`DEFAULT_BUCKET_BOUNDS`
    (last bucket +Inf), enough for p50/p95/p99 estimation and Prometheus
    exposition.  All of it merges exactly up to rounding: combining two
    histograms is indistinguishable from observing both value streams on
    one.
    """

    __slots__ = (
        "count", "total", "sum_sq", "_mean", "m2", "min", "max", "bounds", "bucket_counts"
    )

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if list(bounds) != sorted(set(bounds)):
            raise ConfigurationError("histogram bucket bounds must be strictly ascending")
        self.count = 0
        self.total = 0.0
        self.sum_sq = 0.0
        self._mean = 0.0
        self.m2 = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.sum_sq += value * value
        delta = value - self._mean
        self._mean += delta / self.count
        self.m2 += delta * (value - self._mean)
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        # Bucket i holds values <= bounds[i]; the final bucket is +Inf.
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> Optional[float]:
        return self._mean if self.count else None

    @property
    def stddev(self) -> Optional[float]:
        if not self.count:
            return None
        return math.sqrt(max(0.0, self.m2) / self.count)

    def percentile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (0 <= q <= 1) from the buckets.

        Linear interpolation inside the bucket holding the target rank
        (Prometheus ``histogram_quantile`` semantics), clamped to the
        exact observed ``[min, max]`` so single-bucket streams still
        report sane tails.  ``None`` on an empty histogram.
        """
        if not (0.0 <= q <= 1.0):
            raise ConfigurationError(f"quantile must be in [0, 1], got {q!r}")
        if not self.count:
            return None
        assert self.min is not None and self.max is not None
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.bounds[i - 1] if i > 0 else min(0.0, self.min)
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + (upper - lower) * max(0.0, min(1.0, fraction))
                return max(self.min, min(self.max, estimate))
            cumulative += bucket_count
        return self.max  # pragma: no cover - unreachable (counts sum to count)

    def merge(self, other: "Histogram") -> None:
        """Fold a peer histogram in, exactly, via the running aggregates."""
        if other.bounds != self.bounds:
            raise ConfigurationError(
                "cannot merge histograms with different bucket bounds"
            )
        if other.count:
            count = self.count + other.count
            delta = other._mean - self._mean
            self._mean += delta * (other.count / count)
            self.m2 += other.m2 + delta * delta * (self.count * other.count / count)
            self.count = count
        self.total += other.total
        self.sum_sq += other.sum_sq
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        for i, bucket_count in enumerate(other.bucket_counts):
            self.bucket_counts[i] += bucket_count


class MetricsRegistry:
    """Get-or-create store of metric series, keyed by name + labels.

    A series' kind is fixed by its first use; asking for the same series
    as a different kind raises :class:`~repro.errors.ConfigurationError`
    instead of silently aliasing counters onto gauges.
    """

    def __init__(self) -> None:
        self._series: Dict[SeriesKey, Any] = {}
        #: Hot-path memo: (kind, name, raw insertion-ordered label items)
        #: -> series.  Skips the canonical key's sort/str work on every
        #: call after a series' first touch from a given call site, which
        #: keeps per-command instrumentation in the low-microsecond range.
        self._lookup: Dict[Any, Any] = {}
        #: Bumped by :meth:`reset` so instrumentation sites that cache
        #: series objects (e.g. the DRAM command trace) can detect that
        #: their handles went stale and refetch.
        self.generation = 0

    def series(self, cls, name: str, labels: Mapping[str, Any]):
        """Hot-path get-or-create: takes the labels mapping directly.

        The kwargs-flavoured accessors below re-pack ``**labels`` on every
        call; instrumentation hot paths (one counter + one histogram per
        simulated DRAM command) call this with an already-built mapping
        instead, paying one dict build per call site rather than three.
        """
        try:
            raw_key = (cls, name, tuple(labels.items()))
            series = self._lookup.get(raw_key)
        except TypeError:  # unhashable label value: take the slow path
            raw_key = None
            series = None
        if series is not None:
            return series
        key = _series_key(name, labels)
        series = self._series.get(key)
        if series is None:
            series = cls()
            self._series[key] = series
        elif not isinstance(series, cls):
            raise ConfigurationError(
                f"metric {name!r} already registered as {type(series).__name__}, "
                f"not {cls.__name__}"
            )
        if raw_key is not None:
            self._lookup[raw_key] = series
        return series

    def counter(self, name: str, **labels: Any) -> Counter:
        return self.series(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self.series(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self.series(Histogram, name, labels)

    # ------------------------------------------------------------------
    def snapshot(self) -> List[Dict[str, Any]]:
        """All series as plain dicts, deterministically ordered.

        Each entry carries ``kind``, ``name``, ``labels`` and the series'
        aggregate fields; the list is sorted by (name, labels) so equal
        instrumentation streams yield byte-equal JSON dumps.
        """
        rows: List[Dict[str, Any]] = []
        for (name, labels), series in sorted(self._series.items()):
            row: Dict[str, Any] = {
                "kind": type(series).__name__.lower(),
                "name": name,
                "labels": dict(labels),
            }
            if isinstance(series, (Counter, Gauge)):
                row["value"] = series.value
            else:
                row.update(
                    count=series.count,
                    total=series.total,
                    sum_sq=series.sum_sq,
                    m2=series.m2,
                    mean=series.mean,
                    stddev=series.stddev,
                    min=series.min,
                    max=series.max,
                    p50=series.percentile(0.50),
                    p95=series.percentile(0.95),
                    p99=series.percentile(0.99),
                    bucket_le=list(series.bounds),
                    buckets=list(series.bucket_counts),
                )
            rows.append(row)
        return rows

    def merge_snapshot(self, rows: List[Dict[str, Any]]) -> None:
        """Fold snapshot rows (e.g. shipped back from a pool worker) in.

        Merge semantics match the primitives: counters sum, gauges take
        the incoming observation, histograms merge exactly through their
        ``(count, total, sum_sq, mean, m2, min, max)`` aggregates and
        bucket counts (rows without ``m2``, from before it was recorded,
        derive it from ``sum_sq``)
        -- so a parent registry that merges N worker snapshots reports the
        same content as one process observing everything itself.
        """
        for row in rows:
            kind = row.get("kind")
            name = str(row.get("name", ""))
            labels = {str(k): str(v) for k, v in dict(row.get("labels", {})).items()}
            if kind == "counter":
                self.counter(name, **labels).merge(_counter_from_row(row))
            elif kind == "gauge":
                self.gauge(name, **labels).merge(_gauge_from_row(row))
            elif kind == "histogram":
                self.histogram(name, **labels).merge(_histogram_from_row(row))
            else:
                raise ConfigurationError(f"cannot merge unknown metric kind {kind!r}")

    def reset(self) -> None:
        """Drop every series (a fresh registry without re-plumbing it)."""
        self._series.clear()
        self._lookup.clear()
        self.generation += 1

    def __len__(self) -> int:
        return len(self._series)


def _counter_from_row(row: Mapping[str, Any]) -> Counter:
    counter = Counter()
    counter.inc(float(row["value"]))
    return counter


def _gauge_from_row(row: Mapping[str, Any]) -> Gauge:
    gauge = Gauge()
    gauge.set(float(row["value"]))
    return gauge


def _histogram_from_row(row: Mapping[str, Any]) -> Histogram:
    """Rehydrate a histogram from its snapshot row (exact, not lossy)."""
    bounds = tuple(float(b) for b in row.get("bucket_le", DEFAULT_BUCKET_BOUNDS))
    hist = Histogram(bounds=bounds)
    hist.count = int(row["count"])
    hist.total = float(row["total"])
    hist.sum_sq = float(row.get("sum_sq", 0.0))
    if hist.count:
        mean, m2 = row.get("mean"), row.get("m2")
        hist._mean = hist.total / hist.count if mean is None else float(mean)
        # Rows written before m2 was recorded derive it from sum_sq.
        hist.m2 = max(0.0, hist.sum_sq - hist.total * hist._mean) if m2 is None else float(m2)
    hist.min = None if row.get("min") is None else float(row["min"])
    hist.max = None if row.get("max") is None else float(row["max"])
    buckets = row.get("buckets")
    if buckets is not None:
        if len(buckets) != len(hist.bucket_counts):
            raise ConfigurationError(
                "histogram snapshot bucket count does not match its bounds"
            )
        hist.bucket_counts = [int(c) for c in buckets]
    return hist

"""Metrics: counters, gauges, and latency histograms with exporters.

A single registry per kernel holds every instrument, keyed by
``(name, labels)`` exactly as Prometheus models series.  Two things keep it
honest:

* **Collectors.**  Subsystems that already maintain counters (the LSM
  framework's :class:`~repro.lsm.framework.HookStats`, the SSM's event
  counters, SACKfs's accept/reject counts) are not mirrored into duplicate
  instruments that could drift — they register a *collector* callback and
  the registry reads the live values at export time.  The ``SACK/stats``
  pseudo-file and the metrics export therefore can never disagree.

* **Histograms.**  Latency distributions use fixed geometric buckets
  (powers of two in nanoseconds), so recording is O(1), memory is bounded,
  and percentiles (p50/p99) come from the cumulative bucket counts.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from operator import itemgetter
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple, Union)

LabelPairs = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Dict[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Prometheus exposition escaping: ``\\``, ``"`` and newlines."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _label_str(labels: LabelPairs) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return "{" + inner + "}"


#: Default bucket upper bounds for nanosecond latencies: 2^8 .. 2^30 ns
#: (256 ns .. ~1.07 s), one bucket per power of two.
DEFAULT_NS_BUCKETS: Tuple[int, ...] = tuple(1 << p for p in range(8, 31))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with O(1) record and percentile estimation."""

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max",
                 "exemplars")

    def __init__(self, bounds: Sequence[float] = DEFAULT_NS_BUCKETS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted and non-empty")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        # One count per bound plus the +Inf overflow bucket.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        # OpenMetrics exemplars: bucket index -> (trace_id, value) of the
        # latest traced observation landing in that bucket.
        self.exemplars: Dict[int, Tuple[str, float]] = {}

    def record(self, value: float, trace_id: Optional[str] = None) -> None:
        idx = bisect_left(self.bounds, value)
        self.bucket_counts[idx] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if trace_id is not None:
            self.exemplars[idx] = (trace_id, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate percentile (0 < q <= 100) from bucket boundaries.

        Returns the upper bound of the bucket holding the q-th sample —
        the standard Prometheus ``histogram_quantile`` convention.  The
        overflow bucket reports the observed maximum.
        """
        if not 0 < q <= 100:
            raise ValueError("percentile out of range")
        if self.count == 0:
            return 0.0
        rank = max(1, int(round(self.count * q / 100.0)))
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            seen += n
            if seen >= rank:
                if i < len(self.bounds):
                    return float(self.bounds[i])
                return float(self.max if self.max is not None else 0.0)
        return float(self.max if self.max is not None else 0.0)

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "min": self.min or 0.0,
            "max": self.max or 0.0,
        }


class Sample(NamedTuple):
    """One exported series value (collectors return these)."""

    name: str
    labels: LabelPairs
    kind: str                  # "counter" | "gauge"
    value: float


#: A collector yields Samples from live external state at export time.
Collector = Callable[[], Iterable[Sample]]


def sample(name: str, labels: Optional[Dict[str, str]], kind: str,
           value: float) -> Sample:
    """Convenience constructor used by collector callbacks."""
    return Sample(name, _label_key(labels), kind, float(value))


#: Default ceiling on distinct label-sets per metric name.  A runaway
#: label (a path, a free-form subject) can otherwise grow a registry
#: without bound; past the budget new series are silently detached and
#: counted in ``metrics_series_dropped{metric=...}``.
DEFAULT_MAX_SERIES_PER_METRIC = 512


class MetricsRegistry:
    """All instruments of one kernel plus registered collectors.

    Label-set cardinality is bounded per metric name: once a metric has
    :attr:`max_series_per_metric` distinct label-sets, accessors for new
    label-sets return a *detached* instrument (callers keep working, the
    data is dropped) and the ``metrics_series_dropped`` counter records
    the drop — bounded memory, never a silent lie.
    """

    def __init__(self, max_series_per_metric: int =
                 DEFAULT_MAX_SERIES_PER_METRIC):
        if max_series_per_metric < 1:
            raise ValueError("max_series_per_metric must be >= 1")
        self.max_series_per_metric = max_series_per_metric
        self._counters: Dict[Tuple[str, LabelPairs], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelPairs], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelPairs], Histogram] = {}
        self._collectors: List[Collector] = []
        #: Distinct registered label-sets per metric name.
        self._series_count: Dict[str, int] = {}
        #: Drops per metric name (exported as metrics_series_dropped).
        self._series_dropped: Dict[str, int] = {}

    def _admit(self, name: str) -> bool:
        """Charge one new series against *name*'s budget."""
        used = self._series_count.get(name, 0)
        if used >= self.max_series_per_metric:
            self._series_dropped[name] = \
                self._series_dropped.get(name, 0) + 1
            return False
        self._series_count[name] = used + 1
        return True

    @property
    def series_dropped(self) -> Dict[str, int]:
        return dict(self._series_dropped)

    # -- instrument accessors (create on first use) ------------------------
    def counter(self, name: str,
                labels: Optional[Dict[str, str]] = None) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = Counter()
            if self._admit(name):
                self._counters[key] = instrument
        return instrument

    def gauge(self, name: str,
              labels: Optional[Dict[str, str]] = None) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = Gauge()
            if self._admit(name):
                self._gauges[key] = instrument
        return instrument

    def histogram(self, name: str,
                  labels: Optional[Dict[str, str]] = None,
                  bounds: Sequence[float] = DEFAULT_NS_BUCKETS) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = Histogram(bounds)
            if self._admit(name):
                self._histograms[key] = instrument
        return instrument

    def register_collector(self, collector: Collector) -> None:
        if collector not in self._collectors:
            self._collectors.append(collector)

    def histograms_named(self, name: str) -> Dict[LabelPairs, Histogram]:
        return {labels: h for (n, labels), h in self._histograms.items()
                if n == name}

    # -- reads ------------------------------------------------------------
    def counter_total(self, name: str) -> int:
        """Sum of every registered counter series called *name*.

        Runs no collector and sorts nothing, so barrier reads (fleet
        health polls) cost one pass over the registered counters.  The
        rule that makes this equal to summing ``to_dict()["counters"]``
        rows: no registered collector emits a series called *name*.
        A collector-backed name must be read through :meth:`series`.
        """
        total = 0
        for (series_name, _), c in self._counters.items():
            if series_name == name:
                total += c.value
        return total

    def series(self) -> Iterator[Tuple[str, str, LabelPairs,
                                       Union[float, Histogram]]]:
        """The one registry walk every export is built on.

        Yields ``(kind, name, labels, value)`` in export order:
        registered counters, then registered gauges (each sorted by
        ``(name, labels)``), then collector samples (sorted, stable on
        ties), then histograms (sorted).  Histograms are yielded as the
        live :class:`Histogram`, so a reader that needs no percentiles
        computes none.
        """
        for (name, labels), c in sorted(self._counters.items()):
            yield "counter", name, labels, c.value
        for (name, labels), g in sorted(self._gauges.items()):
            yield "gauge", name, labels, g.value
        # Sample fields 0 and 1 are (name, labels).
        for s in sorted(self._collected(), key=itemgetter(0, 1)):
            yield s.kind, s.name, s.labels, s.value
        for (name, labels), h in sorted(self._histograms.items()):
            yield "histogram", name, labels, h

    # -- export ------------------------------------------------------------
    def _collected(self) -> List[Sample]:
        out: List[Sample] = []
        for collector in self._collectors:
            out.extend(collector())
        # Registry self-accounting: only present once a drop happened,
        # so bounded-but-unexercised registries export byte-identically.
        for name in sorted(self._series_dropped):
            out.append(Sample("metrics_series_dropped",
                              (("metric", name),), "counter",
                              float(self._series_dropped[name])))
        return out

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of every series (with p50/p99)."""
        counters: List[Dict[str, object]] = []
        gauges: List[Dict[str, object]] = []
        histograms: List[Dict[str, object]] = []
        for kind, name, labels, value in self.series():
            if kind == "histogram":
                histograms.append({"name": name, "labels": dict(labels),
                                   **value.summary(),
                                   "sum": value.total,
                                   "bounds": list(value.bounds),
                                   "buckets": list(value.bucket_counts)})
                continue
            row = {"name": name, "labels": dict(labels), "value": value}
            (counters if kind == "counter" else gauges).append(row)
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4)."""
        lines: List[str] = []
        seen_types: Dict[str, str] = {}
        for kind, name, labels, value in self.series():
            if seen_types.get(name) != kind:
                lines.append(f"# TYPE {name} {kind}")
                seen_types[name] = kind
            if kind == "histogram":
                _histogram_lines(lines, name, labels, value)
            elif kind == "counter" and type(value) is int:
                # Registered counters print exactly; collector samples
                # are floats and print %g like gauges.
                lines.append(f"{name}{_label_str(labels)} {value}")
            else:
                lines.append(f"{name}{_label_str(labels)} {value:g}")
        return "\n".join(lines) + ("\n" if lines else "")


def _histogram_lines(lines: List[str], name: str, labels: LabelPairs,
                     h: Histogram) -> None:
    """Append one histogram's cumulative buckets, sum and count."""

    def bucket_line(le_value: str, cumulative: int, idx: int) -> str:
        le = dict(labels)
        le["le"] = le_value
        line = f"{name}_bucket{_label_str(_label_key(le))} {cumulative}"
        exemplar = h.exemplars.get(idx)
        if exemplar is not None:
            trace_id, value = exemplar
            line += (f' # {{trace_id="{_escape_label_value(trace_id)}"}} '
                     f"{value:g}")
        return line

    cumulative = 0
    for idx, (bound, n) in enumerate(zip(h.bounds, h.bucket_counts)):
        cumulative += n
        lines.append(bucket_line(f"{bound:g}", cumulative, idx))
    # The +Inf bucket is mandatory even for an empty histogram.
    lines.append(bucket_line("+Inf", h.count, len(h.bounds)))
    lines.append(f"{name}_sum{_label_str(labels)} {h.total:g}")
    lines.append(f"{name}_count{_label_str(labels)} {h.count}")

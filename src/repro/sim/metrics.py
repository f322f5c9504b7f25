"""Metric collection for simulation runs.

A :class:`MetricsRegistry` holds named counters, gauges, and sample
series.  Benchmarks and experiments read summaries out of the registry
after a run; nothing here depends on the engine so the registry can be
unit-tested in isolation.  A :class:`Ledger` is one owner's outcome
recorder over its stats object, the registry and the event log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union


@dataclass
class SeriesSummary:
    """Summary statistics for a sample series."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p95: float
    p99: float

    def as_dict(self) -> Dict[str, float]:
        """Return the summary as a plain dictionary."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p90": self.p90,
            "p95": self.p95,
            "p99": self.p99,
        }


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Return the linear-interpolated percentile of pre-sorted values."""
    if not sorted_values:
        raise ValueError("percentile of an empty series is undefined")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = fraction * (len(sorted_values) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return sorted_values[low]
    weight = rank - low
    interpolated = sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight
    # Clamp against float rounding so the result stays inside the data.
    return max(sorted_values[0], min(sorted_values[-1], interpolated))


def summarize(values: List[float]) -> SeriesSummary:
    """Compute a :class:`SeriesSummary` for a non-empty list of samples."""
    if not values:
        raise ValueError("cannot summarize an empty series")
    ordered = sorted(values)
    count = len(ordered)
    mean = sum(ordered) / count
    variance = sum((v - mean) ** 2 for v in ordered) / count
    return SeriesSummary(
        count=count,
        mean=mean,
        std=math.sqrt(variance),
        minimum=ordered[0],
        maximum=ordered[-1],
        p50=percentile(ordered, 0.50),
        p90=percentile(ordered, 0.90),
        p95=percentile(ordered, 0.95),
        p99=percentile(ordered, 0.99),
    )


@dataclass(frozen=True)
class ToleranceBand:
    """How far a metric may drift from its baseline and still be "within".

    ``rel_tol`` is a fraction of the baseline magnitude, ``abs_tol`` an
    absolute floor — a delta is within tolerance when
    ``|delta| <= max(rel_tol * |baseline|, abs_tol)``, mirroring
    :func:`math.isclose`.  Against a *zero* baseline the relative term
    vanishes, so only ``abs_tol`` can admit a drift — callers comparing
    rates that may legitimately be 0 should set it explicitly.
    """

    rel_tol: float = 0.0
    abs_tol: float = 0.0

    def __post_init__(self) -> None:
        if self.rel_tol < 0 or self.abs_tol < 0:
            raise ValueError("tolerances must be non-negative")

    def admits(self, baseline: float, delta: float) -> bool:
        """True when ``delta`` off ``baseline`` stays inside the band."""
        return abs(delta) <= max(self.rel_tol * abs(baseline), self.abs_tol)


#: Tolerance specs accept plain numbers (treated as ``rel_tol``) too.
ToleranceSpec = Union[float, ToleranceBand]


@dataclass(frozen=True)
class MetricDelta:
    """One metric's drift from a baseline, classified against a band.

    ``classification`` is one of ``"within"``, ``"outside"``,
    ``"missing_baseline"``, ``"missing_current"`` or ``"nan"`` — only
    ``"within"`` counts as clean; every other class is something a
    reporter must surface.
    """

    name: str
    baseline: Optional[float]
    current: Optional[float]
    delta: Optional[float]
    #: ``delta / |baseline|``; None for missing values or zero baseline.
    relative: Optional[float]
    classification: str

    @property
    def within(self) -> bool:
        return self.classification == "within"

    def describe(self) -> str:
        """Canonical one-line rendering for reports."""
        if self.classification == "missing_baseline":
            return f"{self.name}: {self.current} (no baseline)"
        if self.classification == "missing_current":
            return f"{self.name}: missing (baseline {self.baseline})"
        rel = f" ({self.relative:+.2%})" if self.relative is not None else ""
        return (
            f"{self.name}: {self.baseline} -> {self.current} "
            f"[{self.classification}]{rel}"
        )


def _as_band(spec: Optional[ToleranceSpec]) -> ToleranceBand:
    if spec is None:
        return ToleranceBand()
    if isinstance(spec, ToleranceBand):
        return spec
    return ToleranceBand(rel_tol=float(spec))


def diff_metrics(
    current: Mapping[str, float],
    baseline: Mapping[str, float],
    tolerances: Optional[Mapping[str, ToleranceSpec]] = None,
    default: Optional[ToleranceSpec] = None,
) -> Dict[str, MetricDelta]:
    """Classify every metric in either mapping against tolerance bands.

    The comparison primitive behind campaign reporting: the union of
    keys is covered, so a metric that *disappeared* is as loud as one
    that drifted.  NaN on either side is classified ``"nan"`` — NaN
    compares unequal to itself, so it can never silently pass a
    tolerance check.  Deltas are ``current - baseline``.
    """
    bands = dict(tolerances) if tolerances else {}
    default_band = _as_band(default)
    deltas: Dict[str, MetricDelta] = {}
    for name in sorted(set(current) | set(baseline)):
        base = baseline.get(name)
        curr = current.get(name)
        if base is None:
            deltas[name] = MetricDelta(name, None, float(curr), None, None,
                                       "missing_baseline")
            continue
        if curr is None:
            deltas[name] = MetricDelta(name, float(base), None, None, None,
                                       "missing_current")
            continue
        base = float(base)
        curr = float(curr)
        if math.isnan(base) or math.isnan(curr):
            deltas[name] = MetricDelta(name, base, curr, None, None, "nan")
            continue
        delta = curr - base
        relative = delta / abs(base) if base != 0 else None
        band = _as_band(bands.get(name, default_band))
        verdict = "within" if band.admits(base, delta) else "outside"
        deltas[name] = MetricDelta(name, base, curr, delta, relative, verdict)
    return deltas


@dataclass
class MetricsRegistry:
    """Named counters, gauges and sample series for one simulation run.

    ``max_samples_per_series`` (None = unbounded, the default) caps how
    many samples each series *and* timeline retains, so million-event
    runs cannot hoard memory silently: once a series is full, further
    samples are dropped (keeping the earliest observations) and the drop
    is counted per series in :attr:`truncations` — explicit, never
    silent.
    """

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    series: Dict[str, List[float]] = field(default_factory=dict)
    timelines: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    max_samples_per_series: Optional[int] = None
    #: Per-series/timeline count of samples dropped by the cap.
    truncations: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_samples_per_series is not None and self.max_samples_per_series < 1:
            raise ValueError("max_samples_per_series must be >= 1 (or None)")

    # -- counters -----------------------------------------------------------

    def increment(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the named counter (creating it at zero)."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def counter(self, name: str) -> float:
        """Return the counter value, 0 if never incremented."""
        return self.counters.get(name, 0.0)

    def counters_under(self, prefix: str) -> Dict[str, float]:
        """All counters below a ``/``-separated prefix, keyed by suffix.

        ``counters_under("storage")`` returns ``{"stale_reads": 2.0, ...}``
        for every counter named ``storage/<suffix>`` — how experiments
        pull one subsystem's counters (e.g. the replicated store's
        stale-read/repair family) out of a shared registry.
        """
        lead = prefix.rstrip("/") + "/"
        return {
            name[len(lead):]: value
            for name, value in sorted(self.counters.items())
            if name.startswith(lead)
        }

    # -- gauges ---------------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        """Set the named gauge to ``value``."""
        self.gauges[name] = value

    def gauge(self, name: str, default: float = 0.0) -> float:
        """Return the gauge value or ``default``."""
        return self.gauges.get(name, default)

    # -- series ---------------------------------------------------------------

    def _note_truncation(self, name: str) -> None:
        self.truncations[name] = self.truncations.get(name, 0) + 1

    def observe(self, name: str, value: float) -> None:
        """Append a sample to the named series (subject to the cap)."""
        values = self.series.setdefault(name, [])
        cap = self.max_samples_per_series
        if cap is not None and len(values) >= cap:
            self._note_truncation(name)
            return
        values.append(value)

    def observe_at(self, name: str, time: float, value: float) -> None:
        """Append a timestamped sample to the named timeline (subject to the cap)."""
        points = self.timelines.setdefault(name, [])
        cap = self.max_samples_per_series
        if cap is not None and len(points) >= cap:
            self._note_truncation(name)
            return
        points.append((time, value))

    def samples(self, name: str) -> List[float]:
        """Return the raw samples of a series (empty list if absent)."""
        return self.series.get(name, [])

    def timeline(self, name: str) -> List[Tuple[float, float]]:
        """Return the raw (time, value) points of a timeline (empty if absent)."""
        return self.timelines.get(name, [])

    def truncated(self, name: str) -> int:
        """How many samples the cap dropped from one series/timeline."""
        return self.truncations.get(name, 0)

    def summary(self, name: str) -> Optional[SeriesSummary]:
        """Return summary stats for a series, or None if it is empty."""
        values = self.series.get(name)
        if not values:
            return None
        return summarize(values)

    def ratio(self, numerator: str, denominator: str) -> float:
        """Return counter ``numerator / denominator`` (0 when empty)."""
        denom = self.counters.get(denominator, 0.0)
        if denom == 0:
            return 0.0
        return self.counters.get(numerator, 0.0) / denom

    def merged(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Return a new registry combining this one with ``other``."""
        result = MetricsRegistry()
        for source in (self, other):
            for name, value in source.counters.items():
                result.increment(name, value)
            for name, value in source.gauges.items():
                result.set_gauge(name, value)
            for name, values in source.series.items():
                result.series.setdefault(name, []).extend(values)
            for name, points in source.timelines.items():
                result.timelines.setdefault(name, []).extend(points)
            for name, count in source.truncations.items():
                result.truncations[name] = result.truncations.get(name, 0) + count
        return result

    def scalars(self) -> Dict[str, float]:
        """Flatten the registry into scalar metrics for comparison.

        Counters and gauges pass through under ``counter/`` and
        ``gauge/`` prefixes; every non-empty series contributes its
        summary statistics under ``series/<name>/<stat>``.  Timelines
        are excluded — point lists are not comparable as scalars.
        """
        flat: Dict[str, float] = {}
        for name, value in self.counters.items():
            flat[f"counter/{name}"] = value
        for name, value in self.gauges.items():
            flat[f"gauge/{name}"] = value
        for name in self.series:
            summary = self.summary(name)
            if summary is not None:
                for stat, value in summary.as_dict().items():
                    flat[f"series/{name}/{stat}"] = value
        for name, count in self.truncations.items():
            flat[f"truncated/{name}"] = float(count)
        return flat

    def diff(
        self,
        other: "MetricsRegistry",
        tolerances: Optional[Mapping[str, ToleranceSpec]] = None,
        default: Optional[ToleranceSpec] = None,
    ) -> Dict[str, MetricDelta]:
        """Per-metric deltas of this registry against baseline ``other``.

        ``self`` is the *current* run, ``other`` the baseline; both are
        flattened with :meth:`scalars` and classified per metric by
        :func:`diff_metrics` (missing keys and NaN get their own
        classes, zero baselines only admit drift through ``abs_tol``).
        """
        return diff_metrics(
            self.scalars(), other.scalars(), tolerances=tolerances, default=default
        )

    def snapshot(self) -> Mapping[str, object]:
        """Return a read-only flat snapshot usable in reports.

        Timelines export their full (time, value) point lists — a
        timestamped series would otherwise be invisible in reports —
        and any cap-dropped samples appear under ``truncated/<name>``.
        """
        flat: Dict[str, object] = {}
        for name, value in sorted(self.counters.items()):
            flat[f"counter/{name}"] = value
        for name, value in sorted(self.gauges.items()):
            flat[f"gauge/{name}"] = value
        for name in sorted(self.series):
            summary = self.summary(name)
            if summary is not None:
                flat[f"series/{name}"] = summary.as_dict()
        for name in sorted(self.timelines):
            points = self.timelines[name]
            if points:
                flat[f"timeline/{name}"] = [tuple(point) for point in points]
        for name, count in sorted(self.truncations.items()):
            flat[f"truncated/{name}"] = count
        return flat


class Ledger:
    """One owner's outcome ledger: stats counter, typed reason, metric, event.

    ``stats`` is the owner's counter object (or the owner itself);
    ``reasons`` maps an outcome to the dict its typed reasons tally in;
    ``identity`` (``gateway=``, ``cloud=``, ...) tags every event.
    """

    __slots__ = ("world", "stats", "prefix", "subsystem", "identity", "reasons")

    def __init__(
        self,
        world: Any,
        stats: Any,
        prefix: str,
        subsystem: str,
        reasons: Optional[Dict[str, Dict[str, int]]] = None,
        **identity: Any,
    ) -> None:
        self.world = world
        self.stats = stats
        self.prefix = prefix
        self.subsystem = subsystem
        self.identity = identity
        self.reasons = reasons or {}

    def record(
        self,
        outcome: str,
        reason: Optional[str] = None,
        *,
        n: int = 1,
        metric: Optional[str] = None,
        event: Optional[str] = None,
        severity: str = "info",
        **attrs: Any,
    ) -> None:
        """Add ``n`` to ``stats.<outcome>``, its reason tally and the metric
        ``<prefix>/<metric or outcome>[/<reason>]``, then emit ``event``.

        An outcome whose reason dict *is* its stats attribute has no
        scalar; an unknown outcome raises AttributeError.
        """
        stats = self.stats
        count = getattr(stats, outcome)
        if reason is None:
            setattr(stats, outcome, count + n)
            self.world.metrics.increment(f"{self.prefix}/{metric or outcome}", n)
        else:
            tally = self.reasons.get(outcome)
            if tally is not count:
                setattr(stats, outcome, count + n)
            if tally is not None:
                tally[reason] = tally.get(reason, 0) + n
            self.world.metrics.increment(f"{self.prefix}/{metric or outcome}/{reason}", n)
            attrs["reason"] = reason
        if event is not None:
            self.emit(event, severity, **attrs)

    def emit(self, event: str, severity: str = "info", **attrs: Any) -> None:
        """Emit an event that counts nothing (no-op without an event log)."""
        events = self.world.events
        if events is not None:
            events.emit(self.subsystem, event, severity=severity, **self.identity, **attrs)

"""Tests for the seeded RNG and the metrics registry."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import (
    Ledger,
    MetricsRegistry,
    ScenarioConfig,
    SeededRng,
    ToleranceBand,
    World,
    derive_seed,
    diff_metrics,
    percentile,
    summarize,
)


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(1, "x")
        b = SeededRng(1, "x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = SeededRng(1)
        b = SeededRng(2)
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_fork_independent_of_sibling(self):
        root = SeededRng(1)
        fork_a_before = [root.fork("a").random() for _ in range(5)]
        # Drawing from fork 'b' must not perturb fork 'a'.
        _ = [SeededRng(1).fork("b").random() for _ in range(100)]
        fork_a_after = [SeededRng(1).fork("a").random() for _ in range(5)]
        assert fork_a_before == fork_a_after

    def test_fork_names_hierarchical(self):
        child = SeededRng(1, "root").fork("sub")
        assert child.name == "root/sub"

    def test_uniform_bounds(self):
        rng = SeededRng(3)
        for _ in range(100):
            assert 2.0 <= rng.uniform(2.0, 4.0) <= 4.0

    def test_exponential_positive(self):
        rng = SeededRng(4)
        assert all(rng.exponential(2.0) >= 0 for _ in range(100))

    def test_exponential_invalid_rate(self):
        with pytest.raises(ValueError):
            SeededRng(1).exponential(0.0)

    def test_poisson_mean_roughly_correct(self):
        rng = SeededRng(5)
        draws = [rng.poisson(3.0) for _ in range(2000)]
        assert 2.7 < sum(draws) / len(draws) < 3.3

    def test_poisson_zero_mean(self):
        assert SeededRng(1).poisson(0.0) == 0

    def test_poisson_negative_raises(self):
        with pytest.raises(ValueError):
            SeededRng(1).poisson(-1.0)

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            SeededRng(1).choice([])

    def test_weighted_choice_respects_zero_weight(self):
        rng = SeededRng(6)
        picks = {rng.weighted_choice(["a", "b"], [1.0, 0.0]) for _ in range(50)}
        assert picks == {"a"}

    def test_weighted_choice_length_mismatch(self):
        with pytest.raises(ValueError):
            SeededRng(1).weighted_choice(["a"], [1.0, 2.0])

    def test_chance_bounds(self):
        rng = SeededRng(7)
        assert not any(rng.chance(0.0) for _ in range(100))
        assert all(rng.chance(1.0) for _ in range(100))

    def test_chance_invalid_probability(self):
        with pytest.raises(ValueError):
            SeededRng(1).chance(1.5)

    def test_token_is_hex_and_deterministic(self):
        token = SeededRng(8).token(4)
        assert len(token) == 8
        int(token, 16)
        assert SeededRng(8).token(4) == token

    def test_shuffle_preserves_elements(self):
        rng = SeededRng(9)
        items = list(range(20))
        rng.shuffle(items)
        assert sorted(items) == list(range(20))

    def test_derive_seed_stable(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a") != derive_seed(1, "b")


class TestPercentile:
    def test_median_odd(self):
        assert percentile([1, 2, 3], 0.5) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 0.25) == pytest.approx(2.5)

    def test_extremes(self):
        values = [5, 1, 9]
        ordered = sorted(values)
        assert percentile(ordered, 0.0) == 1
        assert percentile(ordered, 1.0) == 9

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_invalid_fraction_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 1.5)
        with pytest.raises(ValueError):
            percentile([1], -0.1)

    def test_single_sample_any_fraction(self):
        for fraction in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert percentile([7.5], fraction) == 7.5

    def test_result_clamped_into_data(self):
        # Values chosen so naive interpolation accumulates float error;
        # the clamp guarantees the result never escapes [min, max].
        ordered = sorted([0.1 + 1e-17, 0.1, 0.1])
        result = percentile(ordered, 0.9999999)
        assert ordered[0] <= result <= ordered[-1]

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_within_bounds(self, values):
        ordered = sorted(values)
        result = percentile(ordered, 0.9)
        assert ordered[0] <= result <= ordered[-1]


class TestSummarize:
    def test_basic_stats(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_as_dict_keys(self):
        keys = set(summarize([1.0]).as_dict())
        assert {"count", "mean", "std", "min", "max", "p50", "p95"} <= keys

    def test_single_sample_collapses_every_stat(self):
        summary = summarize([4.25])
        assert summary.count == 1
        assert summary.std == 0.0
        assert (
            summary.mean
            == summary.minimum
            == summary.maximum
            == summary.p50
            == summary.p90
            == summary.p95
            == summary.p99
            == 4.25
        )

    def test_quantiles_never_escape_the_data(self):
        summary = summarize([1.0, 1.0, 1.0 + 1e-15])
        for value in (summary.p50, summary.p90, summary.p95, summary.p99):
            assert summary.minimum <= value <= summary.maximum


class TestMetricsRegistry:
    def test_counters(self):
        metrics = MetricsRegistry()
        metrics.increment("x")
        metrics.increment("x", 2.5)
        assert metrics.counter("x") == 3.5
        assert metrics.counter("missing") == 0.0

    def test_gauges(self):
        metrics = MetricsRegistry()
        metrics.set_gauge("depth", 7.0)
        assert metrics.gauge("depth") == 7.0
        assert metrics.gauge("missing", -1.0) == -1.0

    def test_series_and_summary(self):
        metrics = MetricsRegistry()
        for value in [1.0, 2.0, 3.0]:
            metrics.observe("lat", value)
        summary = metrics.summary("lat")
        assert summary is not None and summary.mean == pytest.approx(2.0)
        assert metrics.summary("missing") is None

    def test_ratio(self):
        metrics = MetricsRegistry()
        metrics.increment("hits", 3)
        metrics.increment("total", 4)
        assert metrics.ratio("hits", "total") == pytest.approx(0.75)
        assert metrics.ratio("hits", "missing") == 0.0

    def test_timelines(self):
        metrics = MetricsRegistry()
        metrics.observe_at("queue", 1.0, 5.0)
        metrics.observe_at("queue", 2.0, 7.0)
        assert metrics.timelines["queue"] == [(1.0, 5.0), (2.0, 7.0)]

    def test_merged_combines_everything(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.increment("n", 1)
        b.increment("n", 2)
        a.observe("s", 1.0)
        b.observe("s", 3.0)
        merged = a.merged(b)
        assert merged.counter("n") == 3
        assert merged.samples("s") == [1.0, 3.0]

    def test_counters_under_prefix(self):
        metrics = MetricsRegistry()
        metrics.increment("storage/stale_reads", 2)
        metrics.increment("storage/repairs", 1)
        metrics.increment("storageother", 9)  # shares the prefix string only
        assert metrics.counters_under("storage") == {"stale_reads": 2.0, "repairs": 1.0}

    def test_counters_under_trailing_slash_equivalent(self):
        metrics = MetricsRegistry()
        metrics.increment("faults/injected", 3)
        assert metrics.counters_under("faults/") == metrics.counters_under("faults")

    def test_counters_under_nested_prefix(self):
        metrics = MetricsRegistry()
        metrics.increment("cloud/storage/reads", 4)
        metrics.increment("cloud/tasks/completed", 2)
        assert metrics.counters_under("cloud") == {
            "storage/reads": 4.0,
            "tasks/completed": 2.0,
        }
        assert metrics.counters_under("cloud/storage") == {"reads": 4.0}

    def test_merged_preserves_timelines(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe_at("queue", 1.0, 5.0)
        b.observe_at("queue", 2.0, 7.0)
        b.observe_at("faults", 0.5, 1.0)
        merged = a.merged(b)
        assert merged.timeline("queue") == [(1.0, 5.0), (2.0, 7.0)]
        assert merged.timeline("faults") == [(0.5, 1.0)]
        # The sources are untouched.
        assert a.timeline("queue") == [(1.0, 5.0)]
        assert b.timeline("queue") == [(2.0, 7.0)]

    def test_merged_sums_truncation_counts(self):
        a = MetricsRegistry(max_samples_per_series=1)
        b = MetricsRegistry(max_samples_per_series=1)
        for registry in (a, b):
            registry.observe("s", 1.0)
            registry.observe("s", 2.0)
        merged = a.merged(b)
        assert merged.truncated("s") == 2

    def test_timeline_accessor_defaults_empty(self):
        metrics = MetricsRegistry()
        assert metrics.timeline("missing") == []

    def test_snapshot_is_flat(self):
        metrics = MetricsRegistry()
        metrics.increment("a")
        metrics.set_gauge("g", 1.0)
        metrics.observe("s", 2.0)
        snapshot = metrics.snapshot()
        assert snapshot["counter/a"] == 1.0
        assert snapshot["gauge/g"] == 1.0
        assert isinstance(snapshot["series/s"], dict)

    def test_snapshot_includes_timelines(self):
        metrics = MetricsRegistry()
        metrics.observe_at("queue", 1.0, 5.0)
        snapshot = metrics.snapshot()
        assert snapshot["timeline/queue"] == [(1.0, 5.0)]


class TestMetricsSampleCap:
    def test_series_cap_drops_newest_and_counts(self):
        metrics = MetricsRegistry(max_samples_per_series=2)
        for value in (1.0, 2.0, 3.0, 4.0):
            metrics.observe("lat", value)
        assert metrics.samples("lat") == [1.0, 2.0]
        assert metrics.truncated("lat") == 2

    def test_timeline_cap_counts_separately(self):
        metrics = MetricsRegistry(max_samples_per_series=1)
        metrics.observe_at("queue", 0.0, 1.0)
        metrics.observe_at("queue", 1.0, 2.0)
        metrics.observe("queue", 9.0)  # series shares the name, not the cap slot
        assert metrics.timeline("queue") == [(0.0, 1.0)]
        assert metrics.samples("queue") == [9.0]
        assert metrics.truncated("queue") == 1

    def test_unbounded_by_default(self):
        metrics = MetricsRegistry()
        for value in range(1000):
            metrics.observe("s", float(value))
        assert len(metrics.samples("s")) == 1000
        assert metrics.truncations == {}

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry(max_samples_per_series=0)

    def test_truncations_surface_in_snapshot(self):
        metrics = MetricsRegistry(max_samples_per_series=1)
        metrics.observe("s", 1.0)
        metrics.observe("s", 2.0)
        assert metrics.snapshot()["truncated/s"] == 1


class TestToleranceBand:
    def test_admits_mirrors_isclose_semantics(self):
        band = ToleranceBand(rel_tol=0.1, abs_tol=0.5)
        assert band.admits(100.0, 10.0)  # rel term: 10% of 100
        assert not band.admits(100.0, 10.001)
        assert band.admits(1.0, 0.5)  # abs floor dominates small baselines
        assert not band.admits(1.0, 0.51)
        assert band.admits(-100.0, -10.0)  # magnitudes, not signs

    def test_zero_baseline_only_admits_via_abs_tol(self):
        assert not ToleranceBand(rel_tol=0.5).admits(0.0, 0.001)
        assert ToleranceBand(abs_tol=0.01).admits(0.0, 0.001)

    def test_negative_tolerances_rejected(self):
        with pytest.raises(ValueError):
            ToleranceBand(rel_tol=-0.1)
        with pytest.raises(ValueError):
            ToleranceBand(abs_tol=-1.0)


class TestDiffMetrics:
    def test_within_and_outside(self):
        deltas = diff_metrics(
            {"a": 104.0, "b": 120.0},
            {"a": 100.0, "b": 100.0},
            default=ToleranceBand(rel_tol=0.05),
        )
        assert deltas["a"].within and deltas["a"].classification == "within"
        assert deltas["b"].classification == "outside"
        assert deltas["b"].delta == 20.0
        assert deltas["b"].relative == pytest.approx(0.2)

    def test_plain_float_tolerance_means_rel_tol(self):
        deltas = diff_metrics({"a": 104.0}, {"a": 100.0}, tolerances={"a": 0.05})
        assert deltas["a"].within

    def test_missing_keys_are_loud_on_both_sides(self):
        deltas = diff_metrics({"new": 1.0}, {"gone": 2.0})
        assert deltas["new"].classification == "missing_baseline"
        assert deltas["new"].baseline is None and deltas["new"].current == 1.0
        assert deltas["gone"].classification == "missing_current"
        assert deltas["gone"].current is None and deltas["gone"].baseline == 2.0
        assert not deltas["new"].within and not deltas["gone"].within
        assert "no baseline" in deltas["new"].describe()
        assert "missing" in deltas["gone"].describe()

    def test_nan_never_passes(self):
        nan = float("nan")
        deltas = diff_metrics(
            {"a": nan, "b": 1.0, "c": nan},
            {"a": 1.0, "b": nan, "c": nan},
            default=ToleranceBand(rel_tol=1e9),  # a huge band must not save NaN
        )
        for name in ("a", "b", "c"):
            assert deltas[name].classification == "nan"
            assert not deltas[name].within
            assert deltas[name].delta is None

    def test_zero_baseline_relative_is_none(self):
        deltas = diff_metrics(
            {"rate": 0.001, "flat": 0.0},
            {"rate": 0.0, "flat": 0.0},
            default=ToleranceBand(rel_tol=0.99),
        )
        # rel_tol alone cannot admit drift off a zero baseline ...
        assert deltas["rate"].classification == "outside"
        assert deltas["rate"].relative is None
        # ... but an exactly-unchanged zero metric is within (|0| <= 0).
        assert deltas["flat"].within

    def test_zero_baseline_abs_tol_admits(self):
        deltas = diff_metrics(
            {"rate": 0.001},
            {"rate": 0.0},
            tolerances={"rate": ToleranceBand(abs_tol=0.01)},
        )
        assert deltas["rate"].within


class TestRegistryDiff:
    def _registry(self, count: float) -> MetricsRegistry:
        metrics = MetricsRegistry()
        metrics.increment("tasks", count)
        metrics.set_gauge("members", 5.0)
        metrics.observe("lat", 1.0)
        metrics.observe("lat", 3.0)
        return metrics

    def test_scalars_flatten_all_sections(self):
        flat = self._registry(3.0).scalars()
        assert flat["counter/tasks"] == 3.0
        assert flat["gauge/members"] == 5.0
        assert flat["series/lat/count"] == 2
        assert flat["series/lat/mean"] == pytest.approx(2.0)

    def test_scalars_include_truncations(self):
        metrics = MetricsRegistry(max_samples_per_series=1)
        metrics.observe("s", 1.0)
        metrics.observe("s", 2.0)
        assert metrics.scalars()["truncated/s"] == 1.0

    def test_diff_current_vs_baseline_orientation(self):
        current, baseline = self._registry(6.0), self._registry(3.0)
        deltas = current.diff(baseline, default=ToleranceBand(rel_tol=0.5))
        assert deltas["counter/tasks"].delta == 3.0  # current - baseline
        assert deltas["counter/tasks"].classification == "outside"
        assert deltas["gauge/members"].within

    def test_diff_flags_missing_series(self):
        current = MetricsRegistry()
        current.increment("tasks")
        deltas = current.diff(self._registry(1.0))
        assert deltas["series/lat/count"].classification == "missing_current"
        assert deltas["counter/tasks"].within



@dataclass
class _Stats:
    served: int = 0
    failed: int = 0
    failure_reasons: Dict[str, int] = field(default_factory=dict)
    by_tier: Dict[str, int] = field(default_factory=dict)


class TestLedger:
    def _ledger(self, observed: bool):
        world = World(ScenarioConfig(seed=1))
        if observed:
            world.enable_observability(trace=False)
        stats = _Stats()
        reasons = {"failed": stats.failure_reasons, "by_tier": stats.by_tier}
        return world, stats, Ledger(world, stats, "svc/a", "svc", reasons=reasons, svc="a")

    def test_one_record_updates_stat_reason_and_metric(self):
        world, stats, ledger = self._ledger(observed=False)
        ledger.record("served", n=3)
        ledger.record("failed", "deadline", n=2, metric="task_failures")
        ledger.record("failed", "cancelled", event="job_failed")  # no event log: no-op
        ledger.record("by_tier", "edge", metric="wins")  # tallied by reason only
        assert stats == _Stats(3, 3, {"deadline": 2, "cancelled": 1}, {"edge": 1})
        assert world.metrics.counters == {
            "svc/a/served": 3.0,
            "svc/a/task_failures/deadline": 2.0,
            "svc/a/failed/cancelled": 1.0,
            "svc/a/wins/edge": 1.0,
        }

    def test_events_carry_identity_attrs_and_reason(self):
        world, _stats, ledger = self._ledger(observed=True)
        ledger.record("failed", "deadline", event="job_failed", severity="warning", job=7)
        ledger.record("served")  # no event named: counts only
        ledger.emit("job_started", job=8)
        records = world.events.records()
        assert [(r.subsystem, r.name, r.severity, dict(r.attrs)) for r in records] == [
            ("svc", "job_failed", "warning", {"svc": "a", "job": 7, "reason": "deadline"}),
            ("svc", "job_started", "info", {"svc": "a", "job": 8}),
        ]

    def test_unknown_outcome_fails_loudly(self):
        world, stats, ledger = self._ledger(observed=True)
        with pytest.raises(AttributeError):
            ledger.record("serverd", event="typo")
        assert stats == _Stats()
        assert world.metrics.counters == {} and len(world.events) == 0

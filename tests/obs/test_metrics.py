"""Unified metrics: histogram boundary semantics, families, registry."""

import pytest

from repro.obs.metrics import (
    Histogram,
    HistogramFamily,
    MetricsRegistry,
    build_unified_registry,
)


def bucket_counts(histogram: Histogram) -> dict[str, float]:
    return {
        name.split('le="')[1].rstrip('"}'): value
        for name, value in histogram.bucket_samples()
        if "_bucket" in name
    }


class TestHistogramBoundaries:
    """Regression: an observation equal to a bucket's upper bound lands
    in that bucket (Prometheus ``le`` = less-than-or-equal)."""

    def test_boundary_value_lands_in_its_bucket(self):
        histogram = Histogram("h", "test", buckets=(1.0, 2.0, 5.0))
        histogram.observe(2.0)
        counts = bucket_counts(histogram)
        assert counts["1"] == 0
        assert counts["2"] == 1  # le="2" covers exactly 2.0
        assert counts["5"] == 1  # cumulative

    def test_every_bound_is_inclusive(self):
        bounds = (0.001, 0.1, 1.0, 30.0)
        histogram = Histogram("h", "test", buckets=bounds)
        for bound in bounds:
            histogram.observe(bound)
        counts = bucket_counts(histogram)
        # cumulative: the k-th bucket holds the first k observations
        for index, bound in enumerate(bounds):
            assert counts[
                str(int(bound)) if float(bound).is_integer() else repr(bound)
            ] == index + 1

    def test_values_between_and_beyond_buckets(self):
        histogram = Histogram("h", "test", buckets=(1.0, 2.0))
        histogram.observe(1.5)  # between: lands in le="2"
        histogram.observe(99.0)  # beyond: only +Inf
        counts = bucket_counts(histogram)
        assert counts["1"] == 0
        assert counts["2"] == 1
        assert counts["+Inf"] == 2
        assert histogram.count == 2
        assert histogram.sum == pytest.approx(100.5)


class TestBucketValidation:
    def test_duplicate_bounds_rejected(self):
        # Duplicates would render two samples with the same le label.
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", "test", buckets=(1.0, 1.0, 2.0))

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", "test", buckets=(2.0, 1.0))

    def test_non_finite_bounds_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Histogram("h", "test", buckets=(1.0, float("inf")))
        with pytest.raises(ValueError, match="finite"):
            Histogram("h", "test", buckets=(float("nan"),))

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram("h", "test", buckets=())


class TestHistogramFamily:
    def test_one_child_per_label_value(self):
        family = HistogramFamily("d", "test", label="artifact",
                                 buckets=(1.0,))
        family.observe(0.5, "figure4")
        family.observe(2.0, "figure4")
        family.observe(0.1, "table1")
        assert family.labels("figure4").count == 2
        assert family.labels("table1").count == 1

    def test_samples_carry_the_label(self):
        family = HistogramFamily("d", "test", label="artifact",
                                 buckets=(1.0,))
        family.observe(0.5, "figure4")
        names = [name for name, _ in family.samples()]
        assert 'd_bucket{artifact="figure4",le="1"}' in names
        assert 'd_count{artifact="figure4"}' in names

    def test_label_values_are_escaped(self):
        family = HistogramFamily("d", "test", label="artifact",
                                 buckets=(1.0,))
        family.observe(0.5, 'we"ird')
        names = [name for name, _ in family.samples()]
        assert any('we\\"ird' in name for name in names)

    def test_registry_renders_families(self):
        registry = MetricsRegistry()
        family = registry.histogram_family(
            "d_seconds", "durations", label="artifact", buckets=(1.0,)
        )
        family.observe(0.5, "figure4")
        text = registry.render()
        assert "# TYPE d_seconds histogram" in text
        assert 'd_seconds_bucket{artifact="figure4",le="1"} 1' in text


class TestUnifiedRegistry:
    def test_unified_instruments_present(self):
        text = build_unified_registry().render()
        for name in (
            "repro_jobs_submitted_total",
            "repro_slow_job_warnings_total",
            "repro_artifact_duration_seconds",
            "repro_executor_jobs",
            "repro_cache_hits",
            "repro_spans_started",
        ):
            assert name in text

    def test_span_gauge_reads_live_counts(self):
        from repro.obs.spans import SPAN_COUNTS

        registry = build_unified_registry()
        gauge = registry.get("repro_spans_started")
        (_, value), = gauge.samples()
        assert value == float(SPAN_COUNTS["started"])

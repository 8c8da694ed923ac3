"""``repro bench diff``: regression detection with a noise threshold."""

from __future__ import annotations

import json

import pytest

from repro.analysis.benchdiff import (
    diff_benchmarks,
    diff_files,
    load_benchmarks,
)
from repro.cli import main
from repro.errors import ConfigurationError


def bench_file(tmp_path, name, benchmarks):
    path = tmp_path / name
    path.write_text(json.dumps({"benchmarks": benchmarks}))
    return path


def entry(name, mean, **extra):
    return {
        "name": name,
        "stats": {"mean": mean, "ops": 1.0 / mean if mean else 0.0},
        "extra_info": extra,
    }


class TestLoad:
    def test_name_to_stats(self, tmp_path):
        path = bench_file(tmp_path, "a.json", [entry("b1", 0.5)])
        loaded = load_benchmarks(path)
        assert loaded["b1"]["mean"] == 0.5

    def test_extra_info_numbers_fold_into_stats(self, tmp_path):
        # pytest-benchmark puts custom numbers (percentiles here) in
        # extra_info; they must be diffable by name like stats fields.
        path = bench_file(
            tmp_path, "a.json", [entry("b1", 0.5, p99=0.9)]
        )
        assert load_benchmarks(path)["b1"]["p99"] == 0.9

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_benchmarks(tmp_path / "nope.json")

    def test_invalid_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{{{")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_benchmarks(path)

    def test_missing_benchmarks_list_is_a_config_error(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text("{}")
        with pytest.raises(ConfigurationError, match="no 'benchmarks'"):
            load_benchmarks(path)


class TestDiff:
    def test_within_threshold_is_clean(self):
        deltas, _, _ = diff_benchmarks(
            {"b": {"mean": 1.00}}, {"b": {"mean": 1.05}}, threshold=0.10
        )
        [delta] = deltas
        assert delta.regression == pytest.approx(0.05)

    def test_time_metric_growth_is_a_regression(self):
        deltas, _, _ = diff_benchmarks(
            {"b": {"mean": 1.0}}, {"b": {"mean": 1.5}}
        )
        assert deltas[0].regression == pytest.approx(0.5)

    def test_ops_growth_is_an_improvement(self):
        # Higher throughput must not be flagged as a regression.
        deltas, _, _ = diff_benchmarks(
            {"b": {"ops": 100.0}}, {"b": {"ops": 150.0}}, metric="ops"
        )
        assert deltas[0].regression == pytest.approx(-0.5)

    def test_ops_drop_is_a_regression(self):
        deltas, _, _ = diff_benchmarks(
            {"b": {"ops": 100.0}}, {"b": {"ops": 50.0}}, metric="ops"
        )
        assert deltas[0].regression == pytest.approx(0.5)

    def test_disjoint_names_reported_not_failed(self):
        deltas, base_only, new_only = diff_benchmarks(
            {"old": {"mean": 1.0}}, {"new": {"mean": 9.0}}
        )
        assert deltas == []
        assert base_only == ["old"]
        assert new_only == ["new"]

    def test_worst_regression_sorts_first(self):
        deltas, _, _ = diff_benchmarks(
            {"a": {"mean": 1.0}, "b": {"mean": 1.0}},
            {"a": {"mean": 1.1}, "b": {"mean": 3.0}},
        )
        assert [d.name for d in deltas] == ["b", "a"]

    def test_unknown_metric_names_the_candidates(self):
        with pytest.raises(ConfigurationError, match="available: "):
            diff_benchmarks(
                {"b": {"mean": 1.0}}, {"b": {"mean": 1.0}}, metric="nope"
            )


class TestDiffFiles:
    def test_clean_exit_zero(self, tmp_path):
        a = bench_file(tmp_path, "a.json", [entry("b", 1.0)])
        b = bench_file(tmp_path, "b.json", [entry("b", 1.01)])
        code, text = diff_files(a, b)
        assert code == 0
        assert "clean" in text

    def test_regression_exit_one(self, tmp_path):
        a = bench_file(tmp_path, "a.json", [entry("b", 1.0)])
        b = bench_file(tmp_path, "b.json", [entry("b", 2.0)])
        code, text = diff_files(a, b)
        assert code == 1
        assert "REGRESSED" in text

    def test_disjoint_exit_zero(self, tmp_path):
        a = bench_file(tmp_path, "a.json", [entry("old", 1.0)])
        b = bench_file(tmp_path, "b.json", [entry("new", 9.0)])
        code, text = diff_files(a, b)
        assert code == 0
        assert "only in baseline: old" in text


class TestCli:
    def test_cli_clean(self, tmp_path, capsys):
        a = bench_file(tmp_path, "a.json", [entry("b", 1.0)])
        b = bench_file(tmp_path, "b.json", [entry("b", 1.0)])
        assert main(["bench", "diff", str(a), str(b)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_regression_exit_one(self, tmp_path, capsys):
        a = bench_file(tmp_path, "a.json", [entry("b", 1.0)])
        b = bench_file(tmp_path, "b.json", [entry("b", 5.0)])
        assert main(["bench", "diff", str(a), str(b)]) == 1

    def test_cli_threshold_widens_the_noise_band(self, tmp_path):
        a = bench_file(tmp_path, "a.json", [entry("b", 1.0)])
        b = bench_file(tmp_path, "b.json", [entry("b", 1.5)])
        assert main(["bench", "diff", str(a), str(b)]) == 1
        assert main(
            ["bench", "diff", str(a), str(b), "--threshold", "0.6"]
        ) == 0

    def test_cli_missing_file_exit_two(self, tmp_path, capsys):
        b = bench_file(tmp_path, "b.json", [entry("b", 1.0)])
        assert main(["bench", "diff", str(tmp_path / "no.json"), str(b)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_negative_threshold_exit_two(self, tmp_path, capsys):
        a = bench_file(tmp_path, "a.json", [entry("b", 1.0)])
        assert main(
            ["bench", "diff", str(a), str(a), "--threshold", "-0.1"]
        ) == 2
        assert "threshold" in capsys.readouterr().err


class TestMalformedFiles:
    """Every malformed-input shape must exit 2 with a clear message,
    never a traceback — CI treats exit 1 as 'real regression'."""

    @pytest.mark.parametrize("content, match", [
        ("", "empty"),                          # zero-byte file
        ("[1, 2, 3]", "expected an object"),  # top-level list
        ('{"benchmarks": []}', "contains no benchmarks"),
        ('{"benchmarks": {"not": "a list"}}', "no 'benchmarks' list"),
        ('{"machine_info": {}}', "no 'benchmarks'"),  # non-pytest JSON
        ('{"benchmarks": [{"name": "b", "stats"', "not valid JSON"),
    ])
    def test_loader_raises_config_error(self, tmp_path, content, match):
        path = tmp_path / "bad.json"
        path.write_text(content)
        with pytest.raises(ConfigurationError, match=match):
            load_benchmarks(path)

    @pytest.mark.parametrize("content", [
        "", "[1]", '{"benchmarks": []}',
        '{"benchmarks": [{"name": "b", "stats"',  # truncated mid-write
    ])
    def test_cli_exit_two_with_message(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        good = bench_file(tmp_path, "good.json", [entry("b", 1.0)])
        assert main(["bench", "diff", str(bad), str(good)]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["bench", "diff", str(good), str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

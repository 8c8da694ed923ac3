"""``repro report``: self-contained HTML rendering and its validator."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs.htmlreport import (
    expected_svg_count,
    family_of,
    load_run,
    load_trace,
    render_report,
    report_families,
    validate_report_text,
    main as validator_main,
)


def bench_file(tmp_path, name, benchmarks, **payload_extra):
    path = tmp_path / name
    path.write_text(json.dumps({"benchmarks": benchmarks, **payload_extra}))
    return path


def entry(name, mean, group=None, data=None, **extra):
    stats = {
        "mean": mean, "stddev": mean * 0.1, "min": mean * 0.8,
        "max": mean * 1.2, "median": mean, "q1": mean * 0.9,
        "q3": mean * 1.1, "rounds": len(data) if data else 5,
    }
    if data is not None:
        stats["data"] = data
    return {
        "name": name, "group": group, "stats": stats, "extra_info": extra,
    }


class TestFamilies:
    def test_group_wins_over_name(self):
        assert family_of({"name": "b1", "group": "executor"}) == "executor"
        assert family_of({"name": "b1", "group": None}) == "b1"

    def test_union_across_runs_ordered_by_first_appearance(self, tmp_path):
        a = load_run(bench_file(tmp_path, "a.json", [
            entry("x", 1.0, group="g1"), entry("y", 1.0),
        ]))
        b = load_run(bench_file(tmp_path, "b.json", [
            entry("z", 1.0, group="g1"), entry("w", 1.0),
        ]), "B")
        families = report_families([a, b])
        assert list(families) == ["g1", "y", "w"]
        assert families["g1"] == ["x", "z"]

    def test_expected_svg_count_matches(self, tmp_path):
        path = bench_file(tmp_path, "a.json", [
            entry("x", 1.0, group="g"), entry("y", 1.0, group="g"),
            entry("z", 1.0),
        ])
        assert expected_svg_count([path]) == 2


class TestLoad:
    def test_rejects_entryless_files(self, tmp_path):
        path = bench_file(tmp_path, "a.json", [{"not": "a benchmark"}])
        with pytest.raises(ConfigurationError, match="no benchmarks"):
            load_run(path)

    def test_trace_payload_must_have_layers(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("{}")
        with pytest.raises(ConfigurationError, match="layers"):
            load_trace(path)


class TestRender:
    def test_one_svg_per_family_and_self_contained(self, tmp_path):
        run = load_run(bench_file(tmp_path, "a.json", [
            entry("x", 1.0, group="g", data=[0.9, 1.0, 1.1]),
            entry("y", 2.0),
        ]))
        text = render_report([run])
        assert validate_report_text(text, expect_svgs=2) == []

    def test_two_runs_render_a_delta_table(self, tmp_path):
        a = load_run(bench_file(tmp_path, "a.json", [entry("x", 1.0)]))
        b = load_run(bench_file(tmp_path, "b.json", [entry("x", 2.0)]), "B")
        text = render_report([a, b])
        assert "A → B delta" in text
        assert "REGRESSED" in text
        assert validate_report_text(text, expect_svgs=1) == []

    def test_three_runs_rejected(self, tmp_path):
        run = load_run(bench_file(tmp_path, "a.json", [entry("x", 1.0)]))
        with pytest.raises(ConfigurationError, match="one or two"):
            render_report([run, run, run])

    def test_metadata_labels_reach_the_header(self, tmp_path):
        run = load_run(bench_file(
            tmp_path, "a.json",
            [entry("x", 1.0, git_sha="cafe1234beef", hostname="box-9")],
        ))
        text = render_report([run])
        assert "cafe1234beef"[:12] in text
        assert "box-9" in text

    def test_header_falls_back_to_pytest_benchmark_info(self, tmp_path):
        # pytest-benchmark writes commit_info and machine_info itself;
        # a file with no extra_info labels still names its commit/host.
        run = load_run(bench_file(
            tmp_path, "a.json", [entry("x", 1.0)],
            commit_info={"id": "0123456789abcdef0123", "dirty": False},
            machine_info={"node": "bench-host-3"},
        ))
        text = render_report([run])
        assert "<code>0123456789ab</code>" in text
        assert "0123456789abc" not in text
        assert "bench-host-3" in text

    def test_content_is_escaped(self, tmp_path):
        run = load_run(bench_file(
            tmp_path, "a.json", [entry("<script>x</script>", 1.0)]
        ))
        text = render_report([run])
        assert "<script>" not in text
        assert validate_report_text(text) == []

    def test_selftime_panel_from_trace_payload(self, tmp_path):
        run = load_run(bench_file(tmp_path, "a.json", [entry("x", 1.0)]))
        trace = {
            "artifact": "figure4",
            "wall_us": 100,
            "layers": [
                {"layer": "cli", "spans": 1, "self_us": 40,
                 "share": 0.4, "instructions": 0},
                {"layer": "measurement", "spans": 2, "self_us": 60,
                 "share": 0.6, "instructions": 1234},
            ],
        }
        text = render_report([run], trace=trace)
        assert "Per-layer self time" in text
        assert "measurement" in text
        assert "1,234" in text


class TestValidator:
    def test_flags_external_references(self):
        text = (
            "<!DOCTYPE html><html><head></head><body>"
            '<img src="https://example.com/x.png">'
            "</body></html>"
        )
        problems = validate_report_text(text)
        assert any("external" in p for p in problems)

    def test_flags_script_elements(self):
        text = (
            "<!DOCTYPE html><html><head><script>1</script></head>"
            "<body></body></html>"
        )
        problems = validate_report_text(text)
        assert any("<script>" in p for p in problems)

    def test_flags_missing_doctype(self):
        problems = validate_report_text("<html><body></body></html>")
        assert any("DOCTYPE" in p for p in problems)

    def test_flags_wrong_svg_count(self):
        text = "<!DOCTYPE html><html><body><svg></svg></body></html>"
        problems = validate_report_text(text, expect_svgs=3)
        assert any("expected 3" in p for p in problems)

    def test_module_main_exit_codes(self, tmp_path, capsys):
        bench = bench_file(tmp_path, "a.json", [entry("x", 1.0)])
        out = tmp_path / "r.html"
        assert main(["report", str(bench), "-o", str(out)]) == 0
        assert validator_main([str(out), str(bench)]) == 0
        assert validator_main([str(out), "--expect-svgs", "9"]) == 1
        assert validator_main([str(tmp_path / "missing.html")]) == 2
        capsys.readouterr()


class TestCli:
    def test_report_single_run(self, tmp_path, capsys):
        bench = bench_file(tmp_path, "a.json", [entry("x", 1.0)])
        out = tmp_path / "r.html"
        assert main(["report", str(bench), "-o", str(out)]) == 0
        assert "self-contained" in capsys.readouterr().out
        assert validate_report_text(out.read_text(), expect_svgs=1) == []

    def test_report_three_runs_exit_two(self, tmp_path, capsys):
        bench = bench_file(tmp_path, "a.json", [entry("x", 1.0)])
        assert main(["report"] + [str(bench)] * 3) == 2
        assert "one or two" in capsys.readouterr().err

    def test_report_missing_file_exit_two(self, tmp_path, capsys):
        assert main(
            ["report", str(tmp_path / "no.json"),
             "-o", str(tmp_path / "r.html")]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_report_with_trace_and_title(self, tmp_path, capsys):
        bench = bench_file(tmp_path, "a.json", [entry("x", 1.0)])
        trace = tmp_path / "t.json"
        trace.write_text(json.dumps({
            "artifact": "figure4", "wall_us": 10,
            "layers": [{"layer": "cli", "spans": 1, "self_us": 10,
                        "share": 1.0, "instructions": 0}],
        }))
        out = tmp_path / "r.html"
        assert main([
            "report", str(bench), "-o", str(out),
            "--trace", str(trace), "--title", "nightly",
        ]) == 0
        text = out.read_text()
        assert "nightly" in text and "Per-layer self time" in text
        capsys.readouterr()

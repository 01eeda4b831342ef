"""Tier-1 wiring for tools/check_perf_regression.py and bench_report history.

The gate grades a fresh ``BENCH_end_to_end.json``-shaped report against the
committed baseline: soft-fail (warn, exit 0) above ``--warn-pct``, hard-fail
(exit 1) above ``--fail-pct``, with a noise floor below which arms are only
reported informationally.  These tests pin the exit-code contract the CI
step relies on.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tools():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import bench_report
        import check_perf_regression
    finally:
        sys.path.pop(0)
    return check_perf_regression, bench_report


GATE, BENCH = _tools()

BASELINE = {
    "benchmark": "end_to_end_generation",
    "arms": {
        "cold": {"median_ms": 3.0, "schemas": 6, "bytes": 40000, "provenance_records": 90},
        "warm_cache": {"median_ms": 0.1, "schemas": 6, "bytes": 40000, "provenance_records": 90},
    },
}


def _write(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _slowed(factor: float) -> dict:
    report = copy.deepcopy(BASELINE)
    for arm in report["arms"].values():
        arm["median_ms"] = round(arm["median_ms"] * factor, 3)
    return report


class TestCompareReports:
    def test_unchanged_report_is_all_ok_or_info(self):
        deltas = GATE.compare_reports(BASELINE, copy.deepcopy(BASELINE))
        assert {delta.status for delta in deltas} <= {"ok", "info"}

    def test_hard_regression_fails(self):
        deltas = GATE.compare_reports(BASELINE, _slowed(3.0))
        by_arm = {delta.arm: delta for delta in deltas}
        assert by_arm["cold"].status == "fail"
        assert by_arm["cold"].delta_pct == pytest.approx(200.0)

    def test_soft_regression_warns(self):
        deltas = GATE.compare_reports(BASELINE, _slowed(1.5))
        assert {d.arm: d.status for d in deltas}["cold"] == "warn"

    def test_noise_floor_skips_grading(self):
        # warm_cache baseline (0.1ms) sits below the 0.25ms floor: even a
        # 3x slowdown is informational, never a gate failure.
        deltas = GATE.compare_reports(BASELINE, _slowed(3.0))
        warm = {d.arm: d for d in deltas}["warm_cache"]
        assert warm.status == "info"
        assert any("noise floor" in note for note in warm.notes)

    def test_new_and_missing_arms(self):
        report = copy.deepcopy(BASELINE)
        report["arms"]["new_arm"] = {"median_ms": 2.0}
        del report["arms"]["warm_cache"]
        statuses = {d.arm: d.status for d in GATE.compare_reports(BASELINE, report)}
        assert statuses["new_arm"] == "info"
        assert statuses["warm_cache"] == "warn"

    def test_byte_drift_is_noted_not_failed(self):
        report = copy.deepcopy(BASELINE)
        report["arms"]["cold"]["bytes"] = 41000
        cold = {d.arm: d for d in GATE.compare_reports(BASELINE, report)}["cold"]
        assert cold.status == "ok"
        assert any("bytes changed" in note for note in cold.notes)

    def test_github_annotations(self):
        deltas = GATE.compare_reports(BASELINE, _slowed(3.0))
        text = GATE.render_deltas(deltas, github=True)
        assert "::error title=perf regression::" in text
        deltas = GATE.compare_reports(BASELINE, _slowed(1.5))
        text = GATE.render_deltas(deltas, github=True)
        assert "::warning title=perf soft-fail::" in text


class TestGateExitCodes:
    def test_passes_on_identical_report(self, tmp_path):
        baseline = _write(tmp_path / "baseline.json", BASELINE)
        report = _write(tmp_path / "report.json", copy.deepcopy(BASELINE))
        assert GATE.main(["--baseline", str(baseline), "--report", str(report)]) == 0

    def test_fails_on_injected_slowdown(self, tmp_path):
        baseline = _write(tmp_path / "baseline.json", BASELINE)
        report = _write(tmp_path / "report.json", _slowed(3.0))
        assert GATE.main(["--baseline", str(baseline), "--report", str(report)]) == 1

    def test_soft_fail_keeps_exit_zero(self, tmp_path):
        baseline = _write(tmp_path / "baseline.json", BASELINE)
        report = _write(tmp_path / "report.json", _slowed(1.5))
        assert GATE.main(["--baseline", str(baseline), "--report", str(report)]) == 0

    def test_missing_baseline_passes(self, tmp_path):
        report = _write(tmp_path / "report.json", copy.deepcopy(BASELINE))
        exit_code = GATE.main(
            ["--baseline", str(tmp_path / "absent.json"), "--report", str(report)]
        )
        assert exit_code == 0

    def test_missing_report_errors(self, tmp_path):
        baseline = _write(tmp_path / "baseline.json", BASELINE)
        exit_code = GATE.main(
            ["--baseline", str(baseline), "--report", str(tmp_path / "absent.json")]
        )
        assert exit_code == 2

    def test_inverted_tolerances_error(self, tmp_path):
        baseline = _write(tmp_path / "baseline.json", BASELINE)
        report = _write(tmp_path / "report.json", copy.deepcopy(BASELINE))
        exit_code = GATE.main(
            [
                "--baseline", str(baseline), "--report", str(report),
                "--warn-pct", "200", "--fail-pct", "100",
            ]
        )
        assert exit_code == 2

    def test_committed_baseline_passes_against_itself(self):
        baseline = ROOT / "BENCH_end_to_end.json"
        assert baseline.exists()
        assert GATE.main(["--baseline", str(baseline), "--report", str(baseline)]) == 0


class TestHistoryTrajectory:
    def test_append_history_accretes_stamped_lines(self, tmp_path):
        history = tmp_path / "history.jsonl"
        BENCH.append_history(history, copy.deepcopy(BASELINE))
        BENCH.append_history(history, copy.deepcopy(BASELINE))
        lines = history.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        for line in lines:
            entry = json.loads(line)
            assert entry["arms"] == BASELINE["arms"]
            assert "recorded_at" in entry

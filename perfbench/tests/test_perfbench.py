"""Tests of the benchmark itself; they run none of the full workloads.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, patch  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def ticking_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


class TestSpans:
    def test_self_time_subtracts_direct_children(self):
        tracer = Tracer(clock=ticking_clock([0.0, 1.0, 3.0, 4.0, 7.0, 10.0]))
        inner = tracer.wrap("inner", lambda: None)

        def outer_body():
            inner()
            inner()

        tracer.call("outer", outer_body)
        outer, first, second = tracer.spans
        assert (first.parent, second.parent, outer.parent) == (0, 0, -1)
        assert outer.duration == 10.0 and outer.self_s == 5.0
        assert (first.self_s, second.self_s) == (2.0, 3.0)
        assert tracer.totals() == {"outer": (1, 5.0), "inner": (2, 5.0)}

    def test_grandchildren_are_charged_to_their_own_parent(self):
        tracer = Tracer(clock=ticking_clock([0.0, 2.0, 3.0, 5.0, 7.0, 9.0]))
        leaf = tracer.wrap("leaf", lambda: None)
        mid = tracer.wrap("mid", leaf)
        tracer.call("root", mid)
        totals = tracer.totals()
        assert totals["root"] == (1, 4.0)  # 9 - (7 - 2)
        assert totals["mid"] == (1, 3.0)  # (7 - 2) - (5 - 3)
        assert totals["leaf"] == (1, 2.0)
        assert sum(s for _, s in totals.values()) == 9.0

    def test_span_closes_when_the_call_raises(self):
        tracer = Tracer(clock=ticking_clock([0.0, 1.0]))

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            tracer.call("boom", boom)
        assert tracer.spans[0].duration == 1.0
        assert tracer._stack() == []

    def test_patch_reaches_from_import_bindings_and_restores(self):
        from blockshrink import design, harness

        original = design.generate_sample
        assert harness.generate_sample is original
        tracer = Tracer()
        restore = patch(tracer, {"design.generate_sample": None, "design.no_such_fn": None})
        try:
            assert harness.generate_sample is not original
            assert design.generate_sample is harness.generate_sample
            harness.generate_sample(lambda x: x, design.uniform_design(), 32, 1)
        finally:
            restore()
        assert harness.generate_sample is original and design.generate_sample is original
        assert tracer.totals()["design.generate_sample"][0] == 1


class TestMetricGrammar:
    @pytest.fixture(scope="class")
    def spec(self):
        return json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_top_level_contract(self, spec):
        assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
        assert spec["paths"] == ["perfbench"]
        assert spec["command"] == ["python3", "perfbench/run.py"]
        assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
        assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024

    def test_names_units_and_bounds(self, spec):
        names = [w["name"] for w in spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            names += [m["name"] for m in spec[group]]
            for metric in spec[group]:
                assert UNIT.match(metric["unit"]), metric
                assert metric["better"] in ("lower", "higher")
        assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
        assert len(names) == len(set(names))
        for metric in spec["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        assert (setup["unit"], setup["better"]) == ("s", "lower")
        assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
        for workload in spec["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]

    def test_spec_matches_what_the_benchmark_emits(self, spec):
        assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_tail_is_the_highest_statistic_with_ten_above():
    assert run.tail(range(25, 0, -1)) == (15, 60.0)
    assert run.tail(range(21)) == (10, 52.38095238095238)
    assert run.tail(range(20)) == (19, 100.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


@pytest.fixture(scope="module")
def db4():
    from blockshrink import make_basis

    return make_basis("db4")


@pytest.fixture(scope="module")
def fitted(tmp_path_factory, db4):
    """One small seeded sample and the output of ``fit --basis db4`` on it."""
    from blockshrink import cli

    work = tmp_path_factory.mktemp("fit")
    (sample,) = workloads.write_fit_samples(work, seed=3, count=1, n=1 << 12)
    out = work / "out"
    assert cli.main(["fit", "--input", str(sample), "--basis", "db4",
                     "--out-dir", str(out)]) == 0
    return sample, out / "blocks.csv"


def _rewrite_blocks(src, dst, edit):
    lines = src.read_text().splitlines()
    lines = edit(lines)
    dst.write_text("\n".join(lines) + "\n")
    return dst


def _shift_stat(delta, row=1):
    def edit(lines):
        cells = lines[row].split(",")
        cells[2] = repr(float(cells[2]) + delta)
        lines[row] = ",".join(cells)
        return lines

    return edit


class TestFitCheck:
    def test_reference_matches_the_package_path(self, db4):
        from blockshrink import Sample, estimator, uniform_design

        empirical_detail_level = getattr(estimator, "empirical_detail_level", None)
        if empirical_detail_level is None:
            pytest.skip("the package no longer has empirical_detail_level")
        rng = np.random.default_rng(0)
        x, y = rng.random(3000), rng.standard_normal(3000)
        sample = Sample(n=3000, x=x, y=y, seed=0)
        for j in (3, 5):
            ours = workloads.reference_detail_level(db4, x, y / 3000, j)
            theirs = empirical_detail_level(sample, uniform_design(), db4, j)
            np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-15)

    def test_accepts_true_output_and_expected_drift(self, fitted, db4, tmp_path):
        sample, blocks = fitted
        assert workloads.check_blocks(sample, blocks, db4)
        drifted = _rewrite_blocks(blocks, tmp_path / "b.csv", _shift_stat(4e-6))
        assert workloads.check_blocks(sample, drifted, db4)

    @pytest.mark.parametrize("edit", [
        _shift_stat(1e-4),
        _shift_stat(-2e-5, row=3),
        lambda lines: lines[:1] + [ln.replace("True", "X").replace("False", "True")
                                   .replace("X", "False") for ln in lines[1:]],
        lambda lines: lines[:-1],
        lambda lines: [lines[0]] + [ln.replace(ln.split(",")[3], "0.5", 1)
                                    for ln in lines[1:]],
    ], ids=["stat", "stat-small", "kept-flipped", "block-missing", "threshold"])
    def test_rejects_corrupted_blocks(self, fitted, db4, tmp_path, edit):
        sample, blocks = fitted
        assert not workloads.check_blocks(sample, _rewrite_blocks(blocks, tmp_path / "b.csv", edit),
                                          db4)


def _diagnose_op(tmp_path, moments, seed=0):
    out = tmp_path / "diag"
    out.mkdir()
    (out / "diagnostics.json").write_text(json.dumps({"moment": {"moments": moments}}))
    return workloads.Op(1.0, 0, out, "diagnose")


class TestDiagnoseCheck:
    @pytest.fixture
    def workload(self, tmp_path):
        w = workloads.DiagnoseDb6()
        w.prepare(tmp_path, seed=16 + 5)
        return w

    def test_recorded_moments_cover_every_master_seed(self, workload):
        assert workload.master_seed == 5
        assert all(len(v) == 5 for v in workload.moments.values())

    def test_accepts_drift_within_tolerance(self, workload, tmp_path):
        got = [m * (1 + 1e-4) for m in workload.moments["5"]]
        assert workload.check_output(_diagnose_op(tmp_path, got))

    def test_rejects_wrong_moment(self, workload, tmp_path):
        got = list(workload.moments["5"])
        got[2] *= 1 + 4e-3
        assert not workload.check_output(_diagnose_op(tmp_path, got))


class TestRepeatedVerdicts:
    def _op(self, tmp_path, name, report, rc=0):
        out = tmp_path / name
        out.mkdir()
        (out / "report.json").write_text(report)
        (out / "risks.csv").write_text("n\n")
        return workloads.Op(1.0, rc, out, "rates")

    class Passing(workloads.RatesReadme):
        def check_output(self, op):
            return True

    def test_identical_repeat_passes(self, tmp_path):
        ops = [self._op(tmp_path, "a", "{}"), self._op(tmp_path, "b", "{}")]
        assert workloads.check_ops(self.Passing(), ops) == 0

    def test_differing_report_and_nonzero_exit_fail(self, tmp_path):
        ops = [self._op(tmp_path, "a", "{}"), self._op(tmp_path, "b", "{ }"),
               self._op(tmp_path, "c", "{}", rc=1)]
        assert workloads.check_ops(self.Passing(), ops) == 2

    def test_rates_reference_check_rejects_a_failed_verdict(self, tmp_path):
        report = {"passed": False, "n_grid": workloads.README_CONFIG["n_grid"],
                  "mean_risk": [1.0] * 5, "comparison": [{}] * 5}
        op = self._op(tmp_path, "a", json.dumps(report))
        assert not workloads.RatesReadme().check_output(op)
        report["passed"] = True
        shutil.rmtree(op.out)
        assert workloads.RatesReadme().check_output(self._op(tmp_path, "a", json.dumps(report)))

"""Config parsing, subcommand dispatch, outputs and reproducibility."""

import json
import platform
import warnings
from dataclasses import fields
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blockshrink import (
    ExperimentConfig,
    generate_sample,
    make_basis,
    make_test_function,
    uniform_design,
    write_sample_csv,
)
from blockshrink import cli, harness
from blockshrink.cli import ConfigError, main, parse_config


def write_config(path, **overrides):
    base = {
        "signal": "heavisine",
        "p": 2,
        "n_grid": [256, 512, 1024],
        "replications": 50,
        "master_seed": 4,
        "slope_tol": 5.0,
    }
    base.update(overrides)
    path.write_text(json.dumps(base))
    return path


class TestParseConfig:
    def test_minimal_config_gets_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "c.json"))
        assert cfg.d == 4.0
        assert cfg.basis_family == "haar"
        assert cfg.risk_grid == 1 << 14
        assert cfg.signal == {"name": "heavisine"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.json")

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config keys: bandwith"):
            parse_config(write_config(tmp_path / "c.json", bandwith=3))

    def test_p_out_of_range_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match="p=1.5"):
            parse_config(write_config(tmp_path / "c.json", p=1.5))

    def test_ball_out_of_range_names_bound(self, tmp_path):
        with pytest.raises(ConfigError, match="1/pi \\+ 1/2 = 3/2"):
            parse_config(write_config(tmp_path / "c.json", ball={"s": 1, "pi": 1, "r": 1}))

    def test_small_n_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="256"):
            parse_config(write_config(tmp_path / "c.json", n_grid=[128, 512]))

    def test_block_clamping_not_warned_at_parse_time(self, tmp_path):
        # p = 4 clamps j_low at n = 1024; the run warns, parsing does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = parse_config(write_config(tmp_path / "c.json", p=4, n_grid=[1024, 2048]))
        assert cfg.p == 4

    def test_refine_depth_checked_at_parse_time(self, tmp_path):
        with pytest.raises(ConfigError, match="refine_depth=30"):
            parse_config(write_config(tmp_path / "c.json", refine_depth=30))
        with pytest.raises(ConfigError, match="refine_depth=7"):
            parse_config(write_config(tmp_path / "c.json", refine_depth=7))

    def test_risk_grid_capped(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "c.json", risk_grid=1 << 20))
        assert cfg.risk_grid == 1 << 20
        with pytest.raises(ConfigError, match="risk_grid=2097152"):
            parse_config(write_config(tmp_path / "c.json", risk_grid=1 << 21))

    def test_n_grid_capped(self, tmp_path):
        # rejected at parse time, so no run ever draws a sample of this size
        cfg = parse_config(write_config(tmp_path / "c.json", n_grid=[256, 1 << 20]))
        assert cfg.n_grid == [256, 1 << 20]
        with pytest.raises(ConfigError, match=r"n_grid .*1048576, got \[256, 512, 10{13}\]"):
            parse_config(write_config(tmp_path / "c.json", n_grid=[256, 512, 10**13]))


_MALFORMED = [
    ({"replications": "100"}, "replications", "replications-str"),
    ({"n_grid": 1024}, "n_grid", "n_grid-int"),
    ({"density": {"kind": "linear-tilt"}}, "density", "tilt-no-slope"),
    ({"ball": {"s": 1}}, "ball", "ball-no-pi"),
    ({"signal": {"random_besov": {"s": 2, "seed": 1}}}, "random_besov", "besov-no-pi"),
    ({"risk_grid": 10000}, "risk_grid", "risk_grid-not-dyadic"),
    ({"moment_level": [3]}, "moment_level", "moment_level-list"),
    ({"moment_level": "3"}, "moment_level", "moment_level-str"),
    ({"moment_level": 3.0}, "moment_level", "moment_level-float"),
    ({"signal": {"random_besov": {"s": 2, "pi": 2, "seed": [1]}}}, "seed", "besov-seed-list"),
    ({"signal": {"random_besov": {"s": 2, "pi": 2, "seed": 1}}, "jmax": -5}, "jmax",
     "jmax-negative"),
    ({"d": float("nan")}, "d=nan", "d-nan"),
    ({"slope_tol": float("nan")}, "slope_tol", "slope_tol-nan"),
    ({"moment_tol": float("inf")}, "moment_tol", "moment_tol-inf"),
    ({"master_seed": -1}, "master_seed", "master_seed-negative"),
    ({"term_c": 0, "compare_term": True}, "term_c", "term_c-zero"),
    ({"conc_mu": "x"}, "conc_mu", "conc_mu-str"),
    ({"conc_mu": -1.0}, "conc_mu", "conc_mu-negative"),
    ({"signal": {"name": [1]}}, "signal", "signal-name-list"),
    ({"basis_family": "meyer"}, "basis_family", "basis_family-unknown"),
    ({"ball": {"s": "1/0", "pi": 2}}, "ball", "ball-zero-division"),
    ({"density": {"kind": "linear-tilt", "slope": 10**400}}, "density", "tilt-overflow"),
    ({"density": {"kind": "piecewise", "breaks": [0.5], "values": [float("nan")] * 2}},
     "density", "piecewise-nan"),
    ({"density": {"kind": "piecewise", "breaks": ["a"], "values": [1, 1]}}, "density",
     "piecewise-str"),
    ({"p": 1000}, "p=1000", "p-block-size-overflows"),
    ({"basis_family": "db6"}, "n=256", "n-too-small-for-db6"),
    ({"n_grid": [256, 512, 10**13]}, "n_grid", "n_grid-too-large"),
]
# Diagnose fields that only diagnose reads: each row breaks one of them
# against the base n_grid, whose n = 256 admits level 2 only.
_DIAGNOSE_OK = {"moment_level": 2, "moment_index": 1, "conc_level": 2, "conc_block": 0}
_DIAGNOSE_RANGES = [
    ({**_DIAGNOSE_OK, "moment_level": 9}, "moment_level", "moment_level-9"),
    ({**_DIAGNOSE_OK, "moment_index": 99}, "moment_index", "moment_index-99"),
    ({**_DIAGNOSE_OK, "conc_level": 9}, "conc_level", "conc_level-9"),
    ({**_DIAGNOSE_OK, "conc_block": 99}, "conc_block", "conc_block-99"),
]


@pytest.mark.parametrize(
    "command,override,field",
    [
        pytest.param(command, override, field, id=f"{command}-{name}")
        for command in ("rates", "diagnose")
        for override, field, name in _MALFORMED
    ]
    + [
        pytest.param("diagnose", override, field, id=f"diagnose-{name}")
        for override, field, name in _DIAGNOSE_RANGES
    ],
)
def test_malformed_config_exits_two_naming_field(tmp_path, capsys, command, override, field):
    cfg = write_config(tmp_path / "c.json", **override)
    assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# Specs shaped like ball, signal and density, so that the fuzz reaches the
# checks behind their required keys; the numbers lean towards valid values.
_NUMBERS = st.integers(0, 4) | st.sampled_from(["inf", "5/2", "1/0"]) | _SCALARS
_BALL = st.fixed_dictionaries({"s": _NUMBERS, "pi": _NUMBERS}, optional={"r": _NUMBERS})
_BESOV = st.fixed_dictionaries(
    {"s": _NUMBERS, "pi": _NUMBERS, "seed": _JSON}, optional={"r": _NUMBERS}
)
_SPECS = st.fixed_dictionaries(
    {},
    optional={
        "ball": _BALL | _JSON,
        "signal": st.fixed_dictionaries({"random_besov": _BESOV}) | _JSON,
        "density": st.fixed_dictionaries(
            {"kind": st.sampled_from(["uniform", "linear-tilt", "piecewise"])},
            optional={"slope": _NUMBERS, "breaks": _JSON, "values": _JSON},
        ) | _JSON,
    },
)
_KEYS = st.sampled_from(sorted(f.name for f in fields(ExperimentConfig))) | st.text(max_size=8)


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(overrides=st.dictionaries(_KEYS, _JSON, max_size=4) | _SPECS, keep_base=st.booleans())
def test_parse_config_fuzz(tmp_path, overrides, keep_base):
    """Any JSON object, NaN and Infinity included, parses or raises ConfigError.

    Overrides of a valid base config reach the deep checks; without the
    base, most objects fail early.  Nothing here builds a basis.
    """
    path = tmp_path / "fuzz.json"
    if keep_base:
        write_config(path, **overrides)
    else:
        path.write_text(json.dumps(overrides))
    try:
        assert isinstance(parse_config(path), ExperimentConfig)
    except ConfigError:
        pass


class TestDispatch:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_basis_dump(self, tmp_path, capsys):
        assert main(["basis", "--family", "haar", "--out-dir", str(tmp_path)]) == 0
        table = (tmp_path / "basis_haar.csv").read_text().splitlines()
        assert table[0] == "x,phi,psi"
        assert len(table) == (1 << 12) + 2  # header + 2^12 + 1 nodes
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert str(tmp_path / "basis_haar.csv") in manifest["outputs"]

    def test_manifest_records_environment(self, tmp_path):
        assert main(["basis", "--family", "haar", "--out-dir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["platform"] == platform.platform()

    def test_fit_row_count_matches_grid(self, tmp_path):
        basis = make_basis("haar", 12)
        sig = make_test_function("heavisine", basis, jmax=8)
        sample = generate_sample(sig.fn, uniform_design(), 1024, seed=9)
        csv = tmp_path / "sample.csv"
        write_sample_csv(csv, sample)
        out = tmp_path / "fit"
        code = main(
            ["fit", "--input", str(csv), "--density", "uniform", "--p", "2",
             "--grid", "2048", "--out-dir", str(out)]
        )
        assert code == 0
        rows = (out / "estimate.csv").read_text().splitlines()
        assert rows[0] == "x,fhat"
        assert len(rows) == 2048 + 1
        blocks = (out / "blocks.csv").read_text().splitlines()
        assert blocks[0] == "j,K,statistic,threshold,kept"
        assert len(blocks) > 1
        for row in blocks[1:]:
            _, _, stat, cut, kept = row.split(",")
            assert (kept == "True") == (float(stat) >= float(cut))

    def test_fit_rejects_non_dyadic_grid(self, tmp_path, capsys):
        csv = tmp_path / "sample.csv"
        write_sample_csv(csv, generate_sample(np.sin, uniform_design(), 1024, seed=9))
        code = main(["fit", "--input", str(csv), "--grid", "10000", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "--grid" in capsys.readouterr().err

    def test_rates_passing_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "rates"
        assert main(["rates", "--config", str(cfg), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert len(report["mean_risk"]) == 3
        csv = (out / "risks.csv").read_text().splitlines()
        assert csv[0] == "n,mean_risk,stderr,theory_exponent"
        manifest = json.loads((out / "manifest.json").read_text())
        emitted = {str(out / "report.json"), str(out / "risks.csv")}
        assert emitted <= set(manifest["outputs"])

    def test_rates_failing_slope_exits_one(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", slope_tol=1e-6)
        out = tmp_path / "rates"
        assert main(["rates", "--config", str(cfg), "--out-dir", str(out)]) == 1

    def test_rates_config_error_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", p=1.0)
        assert main(["rates", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_rates_two_sample_sizes_exits_two_before_drawing(self, tmp_path, capsys,
                                                             monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "generate_sample", lambda *a, **k: calls.append(a))
        cfg = write_config(tmp_path / "c.json", n_grid=[1024, 2048])
        assert main(["rates", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "n_grid" in err
        assert calls == []

    def test_diagnose_run(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            signal="zero",
            n_grid=[512, 1024, 2048],
            replications=200,
            moment_level=3,
            moment_index=2,
            conc_level=3,
            conc_block=0,
        )
        out = tmp_path / "diag"
        code = main(["diagnose", "--config", str(cfg), "--out-dir", str(out)])
        assert code in (0, 1)
        data = json.loads((out / "diagnostics.json").read_text())
        assert {"moment", "concentration"} <= set(data)
        assert (out / "concentration.csv").exists()

    def test_diagnose_draws_each_sample_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return generate_sample(*args, **kwargs)

        monkeypatch.setattr(harness, "generate_sample", counting)
        cfg = write_config(tmp_path / "c.json", signal="zero", n_grid=[512, 1024, 2048],
                           moment_level=3, conc_level=2)
        assert main(["diagnose", "--config", str(cfg), "--out-dir", str(tmp_path)]) in (0, 1)
        assert sorted(calls) == sorted([512, 1024, 2048] * 50)

    def test_replay_outputs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["rates", "--config", str(cfg), "--out-dir", str(out1)]) == 0
        assert main(["rates", "--config", str(cfg), "--out-dir", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "risks.csv").read_bytes() == (out2 / "risks.csv").read_bytes()

    def test_seed_flag_changes_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["rates", "--config", str(cfg), "--out-dir", str(out1)])
        main(["rates", "--config", str(cfg), "--seed", "99", "--out-dir", str(out2)])
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert r1["mean_risk"] != r2["mean_risk"]
        assert json.loads((out2 / "manifest.json").read_text())["master_seed"] == 99

    @pytest.mark.parametrize(
        "command,outputs",
        [("rates", ("report.json", "risks.csv")),
         ("diagnose", ("diagnostics.json", "concentration.csv"))],
        ids=["rates", "diagnose"],
    )
    def test_threads_flag_keeps_outputs_identical(self, tmp_path, command, outputs):
        cfg = write_config(tmp_path / "c.json", **_DIAGNOSE_OK)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main([command, "--config", str(cfg), "--out-dir", str(out1)])
        main([command, "--config", str(cfg), "--threads", "4", "--out-dir", str(out2)])
        for name in outputs:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("command", ["rates", "diagnose"])
    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exits_two(self, tmp_path, capsys, command, threads):
        cfg = write_config(tmp_path / "c.json", **_DIAGNOSE_OK)
        argv = [command, "--config", str(cfg), "--threads", threads, "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert f"threads={threads}" in capsys.readouterr().err

    def test_manifest_started_before_run(self, tmp_path, monkeypatch):
        called = []

        def timed(*args, **kwargs):
            called.append(datetime.now(timezone.utc))
            return harness.run_rate_experiment(*args, **kwargs)

        monkeypatch.setattr(cli, "run_rate_experiment", timed)
        cfg = write_config(tmp_path / "c.json")
        assert main(["rates", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        started = datetime.fromisoformat(manifest["started_at"])
        finished = datetime.fromisoformat(manifest["finished_at"])
        assert started <= called[0] <= finished


# Each row: the command, its extra arguments, and the field the message must
# name.  ``fit`` reads the sample CSV written by the test.
_BAD_P_OR_D = [
    ("fit", ["--p", "inf"], "p=inf", "fit-p-inf"),
    ("fit", ["--p", "1000"], "p=1000", "fit-p-1000"),
    ("fit", ["--p", "nan"], "p=nan", "fit-p-nan"),
    ("fit", ["--d", "nan"], "d=nan", "fit-d-nan"),
    ("fit", ["--d", "inf"], "d=inf", "fit-d-inf"),
    ("rates", {"p": 1000}, "p=1000", "rates-config-p-1000"),
    ("diagnose", {"p": 1000}, "p=1000", "diagnose-config-p-1000"),
]


@pytest.mark.parametrize(
    "command,extra,field",
    [pytest.param(c, e, f, id=name) for c, e, f, name in _BAD_P_OR_D],
)
def test_bad_p_or_d_exits_two_naming_it(tmp_path, capsys, command, extra, field):
    if command == "fit":
        csv = tmp_path / "sample.csv"
        write_sample_csv(csv, generate_sample(np.sin, uniform_design(), 1024, seed=9))
        argv = ["fit", "--input", str(csv), *extra]
    else:
        cfg = write_config(tmp_path / "c.json", **{**_DIAGNOSE_OK, **extra})
        argv = [command, "--config", str(cfg)]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err

"""Config parsing, subcommand dispatch, outputs and reproducibility."""

import json
import platform
import re
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
)
from blockshrink import cli, harness
from blockshrink.cli import ConfigError, main, parse_config
from blockshrink.design import write_csv


def _write_sample(path):
    sample = generate_sample(np.sin, uniform_design(), 1024, seed=9)
    write_csv(path, "x,y", sample.x, sample.y)


def write_config(path, raw="", /, **overrides):
    """The base config with ``overrides``; ``raw`` JSON members, which may
    repeat a key, go after them."""
    base = {
        "signal": "heavisine",
        "p": 2,
        "n_grid": [256, 512, 1024],
        "replications": 50,
        "master_seed": 4,
        "slope_tol": 5.0,
    }
    base.update(overrides)
    text = json.dumps(base)
    path.write_text(f"{text[:-1]}, {raw}}}" if raw else text)
    return path


class TestParseConfig:
    def test_minimal_config_gets_defaults(self, tmp_path):
        cfg, _ = parse_config(write_config(tmp_path / "c.json"))
        assert cfg.d == 4.0
        assert cfg.basis_family == "haar"
        assert cfg.risk_grid == 1 << 14
        assert cfg.signal == "heavisine"  # a spec is kept as written

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
        # p = 4 clamps j_low at n = 1024; neither parsing nor the run warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg, _ = parse_config(write_config(tmp_path / "c.json", p=4, n_grid=[1024, 2048]))
        assert cfg.p == 4

    def test_refine_depth_checked_at_parse_time(self, tmp_path):
        with pytest.raises(ConfigError, match="refine_depth=30"):
            parse_config(write_config(tmp_path / "c.json", refine_depth=30))
        with pytest.raises(ConfigError, match="refine_depth=7"):
            parse_config(write_config(tmp_path / "c.json", refine_depth=7))

    def test_risk_grid_capped(self, tmp_path):
        cfg, _ = parse_config(write_config(tmp_path / "c.json", risk_grid=1 << 20))
        assert cfg.risk_grid == 1 << 20
        with pytest.raises(ConfigError, match="risk_grid=2097152"):
            parse_config(write_config(tmp_path / "c.json", risk_grid=1 << 21))

    def test_ball_takes_values_past_the_float_range(self, tmp_path):
        # the rate calculator is exact, unlike a random_besov draw
        ball = {"s": 1000, "pi": "1e400", "r": "1e400"}
        assert parse_config(write_config(tmp_path / "c.json", ball=ball))[0].ball == ball

    def test_n_grid_capped(self, tmp_path):
        # rejected at parse time, so no run ever draws a sample of this size
        cfg, _ = parse_config(write_config(tmp_path / "c.json", n_grid=[256, 1 << 20]))
        assert cfg.n_grid == [256, 1 << 20]
        with pytest.raises(ConfigError, match=r"n_grid .*1048576, got \[256, 512, 10{13}\]"):
            parse_config(write_config(tmp_path / "c.json", n_grid=[256, 512, 10**13]))


_MALFORMED = [
    ({"replications": "100"}, "replications", "replications-str"),
    ({"replications": 49}, "replications must lie in 50..65536", "replications-too-few"),
    ({"replications": 2**40}, "replications must lie in 50..65536", "replications-too-many"),
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
    ({"p": 60}, "p=60", "p-block-size-past-int64"),
    ({"slope_tol": -1}, "slope_tol=-1 must be nonnegative", "slope_tol-negative"),
    ({"moment_tol": -0.5}, "moment_tol=-0.5 must be nonnegative", "moment_tol-negative"),
    ({"basis_family": "db6"}, "n=256", "n-too-small-for-db6"),
    ({"n_grid": [256, 512, 10**13]}, "n_grid", "n_grid-too-large"),
    # nested specs: unknown keys are named, and a bool is not a number
    ({"density": {"kind": "uniform", "slope": 3}}, "unknown keys for kind 'uniform': slope",
     "uniform-slope"),
    ({"density": "linear-tilt:0.5:3"}, "2 parameters given for linear-tilt, which takes 1",
     "tilt-string-extra"),
    ({"density": {"kind": "linear-tilt", "slope": True}}, "slope must be numeric",
     "tilt-slope-bool"),
    ({"density": {"kind": "piecewise", "breaks": [0.5], "values": [True, True]}},
     "values must be numeric", "piecewise-values-bool"),
    ({"signal": {"name": "zero", "bogus": 1}}, "got keys ['bogus', 'name']", "signal-bogus"),
    ({"signal": {}}, "got keys []", "signal-empty"),
    ({"ball": {"s": 1, "pi": "inf", "radius": 5}}, "ball: unknown key 'radius'", "ball-radius"),
    ({"ball": {"s": True, "pi": "inf"}}, "ball: s must be a number", "ball-s-bool"),
    ({"signal": {"random_besov": {"s": 2, "pi": 2, "seed": 1, "extra": 9}}},
     "signal.random_besov: unknown key 'extra'", "besov-extra"),
    ({"signal": {"random_besov": {"s": 2, "pi": True, "seed": 1}}},
     "signal.random_besov: pi must be a number", "besov-pi-bool"),
    ({"basis_family": "DB4"}, "unknown wavelet family 'DB4'", "basis_family-upper-case"),
    ({"basis_family": "daubechies-4"}, "unknown wavelet family 'daubechies-4'",
     "basis_family-long-name"),
    # raw JSON members: a repeated key, at the top or nested, is named where
    # JSON would keep the last value
    ('"p": 3', "config repeats the key 'p'", "p-repeated"),
    ('"density": {"kind": "linear-tilt", "slope": 0.5, "slope": 0.25}',
     "config repeats the key 'slope'", "density-slope-repeated"),
    ('"signal": {"random_besov": {"s": 2, "pi": 2, "seed": 1, "seed": 2}}',
     "config repeats the key 'seed'", "besov-seed-repeated"),
    # the density mapping takes numbers, not their strings
    ({"density": {"kind": "linear-tilt", "slope": "0.5"}}, "slope must be numeric",
     "tilt-slope-str"),
    ({"density": {"kind": "piecewise", "breaks": ["0.5"], "values": [0.6, 1.4]}},
     "breaks must be numeric", "piecewise-breaks-str"),
    ({"density": {"kind": "piecewise", "breaks": [0.5], "values": ["0.6", 1.4]}},
     "values must be numeric", "piecewise-values-str"),
    # float-typed fields past the float range, and random_besov parameters
    # whose float computations would overflow
    ({"d": 10**400}, "d=100000000000000000...0000000000000000000 must be finite",
     "d-past-float-range"),
    ({"term_c": 10**400, "compare_term": True}, "term_c=1000", "term_c-past-float-range"),
    ({"conc_mu": 10**400}, "conc_mu=1000", "conc_mu-past-float-range"),
    ({"signal": {"random_besov": {"s": 1000, "pi": 2, "seed": 1}}},
     "signal.random_besov: s must be at most 64", "besov-s-overflows"),
    ({"signal": {"random_besov": {"s": "1e400", "pi": 2, "seed": 1}}},
     "signal.random_besov: s must be at most 64", "besov-s-past-float-range"),
    ({"signal": {"random_besov": {"s": 2, "pi": "1e400", "seed": 1}}},
     "signal.random_besov: pi must be at most 1.79769e+308 or inf", "besov-pi-past-float-range"),
    ({"signal": {"random_besov": {"s": 2, "pi": 2, "r": "1e400", "seed": 1}}},
     "signal.random_besov: r must be at most 1.79769e+308 or inf", "besov-r-past-float-range"),
]
# Diagnose fields that only diagnose reads: each row breaks one of them
# against the base n_grid, whose n = 256 admits level 2 only.
_DIAGNOSE_OK = {"moment_level": 2, "moment_index": 1, "conc_level": 2, "conc_block": 0}
_DIAGNOSE_RANGES = [
    ({**_DIAGNOSE_OK, "moment_level": 9}, "moment_level", "moment_level-9"),
    ({**_DIAGNOSE_OK, "moment_index": 99}, "moment_index", "moment_index-99"),
    ({**_DIAGNOSE_OK, "conc_level": 9}, "conc_level", "conc_level-9"),
    ({**_DIAGNOSE_OK, "conc_block": 99}, "conc_block", "conc_block-99"),
    # a mu whose sweep, up to 2 mu and rounded to 10 decimals, leaves the
    # float range: named by conc_mu, or by d when conc_mu is null (mu = 2 d)
    ({**_DIAGNOSE_OK, "conc_mu": 1e298}, "conc_mu=1e+298", "conc_mu-sweep-overflows"),
    ({**_DIAGNOSE_OK, "d": 1e308}, "d=1e+308 gives mu=inf", "d-mu-overflows"),
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
    path = tmp_path / "c.json"
    cfg = write_config(path, override) if isinstance(override, str) else write_config(
        path, **override)
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
        ) | st.sampled_from(["uniform", "uniform:1", "linear-tilt:0.5", "linear-tilt:x",
                             "piecewise:0.5:0.6,1.4", "piecewise::1", "piecewise:0.5:1,,1"])
        | _JSON,
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
        assert isinstance(parse_config(path)[0], ExperimentConfig)
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
        write_csv(csv, "x,y", sample.x, sample.y)
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
        _write_sample(csv)
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
        monkeypatch.setattr(harness, "_draw_sample", lambda *a, **k: calls.append(a))
        cfg = write_config(tmp_path / "c.json", n_grid=[1024, 2048])
        out = tmp_path / "out"
        assert main(["rates", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "n_grid" in err
        assert calls == []
        assert not out.exists()

    def test_rates_too_many_replications_exits_two_before_drawing(self, tmp_path, capsys,
                                                                  monkeypatch):
        """2^40 replications would not fit in memory, and reps past 2^32
        would reuse the seed words of rep 0; the run is refused up front."""
        calls = []
        monkeypatch.setattr(harness, "_draw_sample", lambda *a, **k: calls.append(a))
        cfg = write_config(tmp_path / "c.json", replications=2**40)
        out = tmp_path / "out"
        assert main(["rates", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: replications must lie in 50..65536" in err
        assert "Traceback" not in err
        assert calls == []
        assert not out.exists()

    def test_diagnose_level_out_of_range_exits_two_before_drawing(self, tmp_path, capsys,
                                                                 monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "_draw_sample", lambda *a, **k: calls.append(a))
        cfg = write_config(tmp_path / "c.json", **{**_DIAGNOSE_OK, "moment_level": 9})
        out = tmp_path / "out"
        assert main(["diagnose", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "moment_level=9" in err
        assert calls == []
        assert not out.exists()

    def test_compact_density_string_matches_the_mapping(self, tmp_path):
        outs = []
        for density in ("linear-tilt:0.5", {"kind": "linear-tilt", "slope": 0.5}):
            cfg = write_config(tmp_path / f"c{len(outs)}.json", density=density)
            outs.append(tmp_path / f"out{len(outs)}")
            assert main(["rates", "--config", str(cfg), "--out-dir", str(outs[-1])]) == 0
        assert (outs[0] / "risks.csv").read_bytes() == (outs[1] / "risks.csv").read_bytes()
        manifest = json.loads((outs[0] / "manifest.json").read_text())
        assert manifest["config"]["density"] == "linear-tilt:0.5"

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
        draw = harness._draw_sample

        def counting(*args, **kwargs):
            calls.append(args[2])
            return draw(*args, **kwargs)

        monkeypatch.setattr(harness, "_draw_sample", counting)
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
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--threads", threads, "--out-dir", str(out)]
        assert main(argv) == 2
        assert f"threads={threads}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rates", "diagnose"])
    def test_negative_seed_exits_two_naming_the_flag(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "c.json", **_DIAGNOSE_OK)
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--seed", "-1", "--out-dir", str(out)]
        assert main(argv) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rates", "diagnose"])
    def test_malformed_master_seed_is_refused_under_the_seed_flag(self, tmp_path, capsys,
                                                                  command):
        """The file is validated as written: ``--seed`` replacing its
        ``master_seed`` does not let a malformed one through."""
        cfg = write_config(tmp_path / "c.json", **_DIAGNOSE_OK, master_seed=-1)
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--seed", "5", "--out-dir", str(out)]
        assert main(argv) == 2
        assert "master_seed" in capsys.readouterr().err
        assert not out.exists()

    def test_mu_checks_leave_rates_and_a_finite_sweep_alone(self, tmp_path, capsys):
        """rates reads no mu, so a d whose mu = 2 d overflows still runs; a
        conc_mu whose sweep stays finite runs diagnose without a warning."""
        cfg = write_config(tmp_path / "c.json", **_DIAGNOSE_OK, d=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["rates", "--config", str(cfg), "--out-dir", str(tmp_path / "r")]) == 0
            cfg = write_config(tmp_path / "c.json", **_DIAGNOSE_OK, conc_mu=1e297)
            argv = ["diagnose", "--config", str(cfg), "--out-dir", str(tmp_path / "d")]
            assert main(argv) in (0, 1)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["rates", "diagnose"])
    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_exits_two_naming_the_flag(self, tmp_path, capsys, command, kind):
        path = tmp_path / "adir"
        if kind == "directory":
            path.mkdir()
        else:
            path = tmp_path / "latin1.json"
            path.write_bytes(b'\xff{"p": 2}')
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--config {path}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["basis", "fit", "rates", "diagnose"])
    @pytest.mark.parametrize("target", ["afile", "afile/sub"])
    def test_out_dir_on_a_file_exits_two_before_the_work(self, tmp_path, capsys, monkeypatch,
                                                          command, target):
        def work(*args, **kwargs):
            raise AssertionError("the command ran before its --out-dir was checked")

        for name in ("make_basis", "read_sample_csv", "run_rate_experiment", "run_diagnostics"):
            monkeypatch.setattr(cli, name, work)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        csv = tmp_path / "sample.csv"
        _write_sample(csv)
        inputs = {"basis": [], "fit": ["--input", str(csv)],
                  "rates": ["--config", str(write_config(tmp_path / "c.json"))],
                  "diagnose": ["--config", str(write_config(tmp_path / "c.json"))]}
        out = tmp_path / target
        assert main([command, *inputs[command], "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--out-dir {out}: {afile} exists and is not a directory" in err
        assert "Traceback" not in err and afile.read_text() == "kept\n"

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
        _write_sample(csv)
        argv = ["fit", "--input", str(csv), *extra]
    else:
        cfg = write_config(tmp_path / "c.json", **{**_DIAGNOSE_OK, **extra})
        argv = [command, "--config", str(cfg)]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


# Each row: the sample CSV text, a fragment the message must hold, and an id.
# The byte-order-mark row reaches the sample size check, so its header was read.
_BAD_INPUT = [
    ("x,y\n", "n=0 too small", "fit-input-header-only"),
    ("", "needs a header naming columns x and y, read ''", "fit-input-empty"),
    ("\ufeffx,y\n0.1,1.0\n0.2,2.0\n", "n=2 too small", "fit-input-bom"),
    ("a,y\n0.1,1.0\n", "needs a header naming columns x and y, read 'a,y'", "fit-input-no-x"),
    ("x,x,y\n0.1,0.2,1.0\n", "names column x twice, read 'x,x,y'", "fit-input-x-twice"),
    ("x,y\n0.1,1.0\n0.2,2.0\n", "n=2 too small", "fit-input-n-2"),
    ("x,y\n" + "0.5,1.0\n" * 20 + "1.5,2.0\n", "must lie in [0, 1]", "fit-input-x-outside"),
]


@pytest.mark.parametrize(
    "text,fragment", [pytest.param(t, f, id=name) for t, f, name in _BAD_INPUT]
)
def test_bad_fit_input_exits_two_naming_it(tmp_path, capsys, text, fragment):
    csv = tmp_path / "sample.csv"
    csv.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning the command lets out fails the test
        code = main(["fit", "--input", str(csv), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "--input" in err and str(csv) in err and fragment in err
    assert "Traceback" not in err and "Warning" not in err
    assert not (tmp_path / "out").exists()


def test_fit_reads_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    _write_sample(plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for path in (plain, marked):
        assert main(["fit", "--input", str(path), "--out-dir", str(tmp_path / path.stem)]) == 0
    for name in ("estimate.csv", "blocks.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "marked" / name).read_bytes()


def test_fit_grid_too_large_exits_two_before_any_work(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("fit went past the --grid check")

    for name in ("make_basis", "read_sample_csv", "synthesize"):
        monkeypatch.setattr(cli, name, unreachable)
    out = tmp_path / "out"
    code = main(["fit", "--input", str(tmp_path / "none.csv"), "--grid", str(1 << 40),
                 "--out-dir", str(out)])
    assert code == 2
    assert "--grid=1099511627776 must be a power of two up to 1048576" in capsys.readouterr().err
    assert not out.exists()


def test_fit_grid_too_small_names_grid(tmp_path, capsys):
    csv = tmp_path / "sample.csv"
    _write_sample(csv)
    assert main(["fit", "--input", str(csv), "--grid", "4", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "--grid: grid_size=4 cannot resolve" in err and "Traceback" not in err


@pytest.mark.parametrize("extra,flag", [
    (["--input", "MISSING"], "--input"),
    (["--density", "foo"], "--density: density 'foo': unknown density kind 'foo'"),
    (["--density", "linear-tilt:3"], "--density: density 'linear-tilt:3'"),
    (["--grid", "4"], "--grid: grid_size=4 cannot resolve"),
    (["--basis", "bogus"], "--basis: unknown wavelet family 'bogus'; supported: db4, db6, haar"),
    (["--p", "60"], "--p: p=60.0 out of range: block size (ln n)^(p/2) overflows"),
    (["--p", "1"], "--p: p=1.0 out of range (need finite p >= 2)"),
    (["--d", "-1"], "--d: threshold constant d=-1.0 must be finite and nonnegative"),
    (["--refine-depth", "3"], "--refine-depth: refine_depth=3 out of range for haar: need 8..20"),
], ids=["input-missing", "density-unknown", "density-slope", "grid-too-small", "basis-unknown",
        "p-block-size-past-int64", "p-below-two", "d-negative", "refine-depth-too-shallow"])
def test_fit_error_names_its_flag_and_makes_no_out_dir(tmp_path, capsys, extra, flag):
    csv = tmp_path / "sample.csv"
    _write_sample(csv)
    argv = ["fit", "--input", str(csv), *extra, "--out-dir", str(tmp_path / "out")]
    assert main([arg.replace("MISSING", str(tmp_path / "none.csv")) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra,flag", [
    (["--family", "foo"], "--family: unknown wavelet family 'foo'; supported: db4, db6, haar"),
    (["--refine-depth", "5"], "--refine-depth: refine_depth=5 out of range for haar: need 8..20"),
], ids=["family-unknown", "refine-depth-too-shallow"])
def test_basis_error_names_its_flag_and_makes_no_out_dir(tmp_path, capsys, extra, flag):
    assert main(["basis", *extra, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_fit_reports_a_clamped_coarse_level_in_its_summary(tmp_path, capsys):
    """At n = 40 and p = 3 the coarse level is clamped: fit says so on its
    summary line and lets no RuntimeWarning out."""
    rng = np.random.default_rng(1)
    csv = tmp_path / "tiny.csv"
    write_csv(csv, "x,y", rng.random(40), rng.normal(size=40))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fit", "--input", str(csv), "--p", "3", "--out-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code == 0 and "RuntimeWarning" not in err
    assert "levels 1..1 (coarse level clamped)" in out


# Edits of one row of an otherwise valid sample: benign ones (a blank line,
# x at 0 or 1) and ones that must be rejected naming --input.
_ROW_EDITS = {
    "blank": lambda x, y: "",
    "x-zero": lambda x, y: f"0,{y!r}",
    "x-one": lambda x, y: f"1.0,{y!r}",
    "x-above": lambda x, y: f"1.5,{y!r}",
    "x-below": lambda x, y: f"-0.25,{y!r}",
    "nan": lambda x, y: f"{x!r},nan",
    "inf": lambda x, y: f"inf,{y!r}",
    "quoted": lambda x, y: f'"{x!r}",{y!r}',
    "text": lambda x, y: f"{x!r},abc",
    "short": lambda x, y: f"{x!r}",
    "long": lambda x, y: f"{x!r},{y!r},{y!r}",
    "empty-cell": lambda x, y: f",{y!r}",
}
_HEADERS = st.sampled_from(["x,y", "x,y", "y,x", "x,y,z", "x", "a,b", '"x","y"', "# x,y", ""])
_FIT_FLAGS = {
    "--density": st.sampled_from(["uniform", "linear-tilt:0.5", "linear-tilt:-2",
                                  "piecewise:0.5:0.5,1.5", "piecewise:0.5:1,2", "foo", "",
                                  "linear-tilt:nan"]),
    "--basis": st.sampled_from(["haar", "db4", "db6", "bogus"]),
    "--p": st.sampled_from(["2", "3", "1", "nan", "x"]),
    "--d": st.sampled_from(["0", "4", "-1", "inf"]),
    "--grid": st.sampled_from(["1024", "4096", "4", "1000", str(1 << 21), "x"]),
}
# How an exit-2 message names each flag: --p and --d also by their values.
_FLAG_PATTERNS = {
    "--input": r"--input\b",
    "--density": r"--density\b",
    "--basis": r"--basis\b",
    "--p": r"--p\b|(?<![\w-])p=",
    "--d": r"--d\b|(?<![\w-])d=",
    "--grid": r"--grid\b",
}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.sampled_from([0, 2, 40, 2048]), seed=st.integers(0, 2**32 - 1),
       edits=st.lists(st.tuples(st.integers(0, 4095), st.sampled_from(sorted(_ROW_EDITS))),
                      max_size=3),
       header=_HEADERS, bom=st.booleans(), newline=st.sampled_from(["\n", "\r\n"]),
       flags=st.fixed_dictionaries({}, optional=_FIT_FLAGS))
def test_fit_fuzz(tmp_path, capsys, n, seed, edits, header, bom, newline, flags):
    """A seeded sample CSV with a few rows edited (blank lines, quotes, NaN,
    ragged rows, x at 0 and 1 and outside), any header and flag values give
    exit 0 with both outputs, or exit 2 with a message that names a flag or
    --input and no output directory; never a traceback."""
    rng = np.random.default_rng(seed)
    rows = [f"{x!r},{y!r}" for x, y in zip(rng.random(n).tolist(), rng.normal(size=n).tolist())]
    for pos, name in edits:
        if rows:
            x, y = rng.random(), rng.normal()
            rows[pos % len(rows)] = _ROW_EDITS[name](x, y)
    csv = tmp_path / "fuzz.csv"
    text = newline.join([header, *rows]) + newline
    csv.write_text(("\ufeff" if bom else "") + text, encoding="utf-8")
    out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
    argv = ["fit", "--input", str(csv), "--out-dir", str(out)]
    for flag, value in flags.items():
        argv += [flag, value]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2) and "Traceback" not in err
    if code == 0:
        assert (out / "estimate.csv").exists() and (out / "blocks.csv").exists()
    else:
        # the error line, below argparse's usage text
        named = [flag for flag, pattern in _FLAG_PATTERNS.items()
                 if re.search(pattern, err.splitlines()[-1])]
        assert named and set(named) <= {"--input", *flags}, err
        assert not out.exists()


_DEPTH_FLOORS = [("haar", 8), ("db4", 12), ("db6", 10)]


@pytest.mark.parametrize("entry", ["config", "basis", "fit"])
@pytest.mark.parametrize("family,floor", _DEPTH_FLOORS)
def test_refine_depth_below_family_floor_exits_two(tmp_path, capsys, entry, family, floor):
    """One depth below the family's floor is refused naming refine_depth,
    before the output directory is made."""
    depth = floor - 1
    out = tmp_path / "out"
    if entry == "config":
        cfg = write_config(tmp_path / "c.json", basis_family=family, refine_depth=depth,
                           n_grid=[1024, 2048, 4096])
        argv = ["rates", "--config", str(cfg)]
    elif entry == "basis":
        argv = ["basis", "--family", family, "--refine-depth", str(depth)]
    else:
        csv = tmp_path / "sample.csv"
        _write_sample(csv)
        argv = ["fit", "--input", str(csv), "--basis", family, "--refine-depth", str(depth)]
    assert main([*argv, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"refine_depth={depth} out of range for {family}: need {floor}..20" in err
    assert not out.exists()


def _write_rows_oracle(path, header, rows):
    """The row-at-a-time writer that write_csv replaced: its byte oracle."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                    for v in row
                )
            )
            fh.write("\n")


def test_write_csv_matches_row_writer(tmp_path):
    # 2500 rows: two full chunks of rows and a partial one
    n = 2500
    rng = np.random.default_rng(13)
    specials = [-0.0, 5e-324, 1e300, 0.1, -1e-300, 1.0, 0.0]
    floats = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n)
    floats[: len(specials)] = specials
    columns = (
        list(range(-5, n - 5)),                            # Python int
        np.arange(n, dtype=np.int64) * 7,                  # numpy int
        [bool(v) for v in rng.random(n) < 0.5],            # Python bool
        rng.random(n) < 0.5,                               # numpy bool
        floats,                                            # numpy float64 array
        [np.float64(v) for v in floats[::-1]],             # numpy float64 scalars
        [float(v) for v in np.roll(floats, 3)],            # Python float
        [0.1] * n,
    )
    header = "a,b,c,d,e,f,g,h"
    write_csv(tmp_path / "columns.csv", header, *columns)
    _write_rows_oracle(tmp_path / "rows.csv", header, zip(*columns))
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    for m in (0, 1, 1024):
        write_csv(tmp_path / "columns.csv", header, *(col[:m] for col in columns))
        _write_rows_oracle(tmp_path / "rows.csv", header, zip(*(col[:m] for col in columns)))
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("command, overrides, clamped", [
    ("rates", {"p": 3}, "n=256, 1024"),
    ("diagnose", {"p": 3, "n_grid": [512, 1024, 1536], "moment_level": 3, "conc_level": 3},
     "n=1024, 1536"),
])
def test_run_names_each_clamped_sample_size(tmp_path, capsys, command, overrides, clamped):
    """rates and diagnose name the sizes whose coarse level was clamped on
    their summary, let no RuntimeWarning out, and keep it out of the report."""
    cfg = write_config(tmp_path / "c.json", **overrides)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", str(cfg), "--out-dir", str(out)])
    stdout, err = capsys.readouterr()
    assert code in (0, 1) and err == ""
    assert f"coarse level clamped at {clamped}\n" in stdout
    report = "report.json" if command == "rates" else "diagnostics.json"
    assert "clamp" not in (out / report).read_text()


def test_random_besov_at_the_float_range_runs_without_a_warning(tmp_path, capsys):
    """A random_besov signal whose pi and r lie near the top of the float
    range runs cleanly with warnings as errors: the draw reads only 1/pi."""
    signal = {"random_besov": {"s": 2, "pi": 1e300, "r": 1e300, "seed": 1}}
    cfg = write_config(tmp_path / "c.json", signal=signal)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["rates", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert (code, capsys.readouterr().err) == (0, "")

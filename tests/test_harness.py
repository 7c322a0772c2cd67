"""Risk computation, rate fitting, and the Monte Carlo diagnostics."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from blockshrink import (
    CoefficientTree,
    ConfigError,
    DesignDensity,
    ExperimentConfig,
    Sample,
    block_grid,
    blockshrink,
    empirical_coefficients,
    fit_rate,
    generate_sample,
    linear_tilt_design,
    lp_risk,
    make_basis,
    make_test_function,
    midpoint_grid,
    replication_seed,
    run_diagnostics,
    run_rate_experiment,
    synthesize,
    threshold_tree,
    uniform_design,
    wilson_upper,
)
from blockshrink import harness
from blockshrink.basis import _coefficient_tree
from blockshrink.estimator import _weights


class TestLpRisk:
    def test_identical_inputs(self):
        v = np.linspace(0, 1, 2048)
        assert lp_risk(v, v, 2.0) == 0.0

    def test_constant_offset_exact(self):
        v = np.zeros(2048)
        assert lp_risk(v + 0.7, v, 3.0) == pytest.approx(0.7**3, abs=1e-12)

    def test_unit_atom_has_unit_energy(self, haar):
        x = midpoint_grid(1 << 14)
        atom = haar.eval("mother", 3, 2, x)
        assert lp_risk(atom, np.zeros_like(atom), 2.0) == pytest.approx(1.0, abs=1e-6)

    def test_mismatched_grids(self):
        with pytest.raises(ValueError, match="grids"):
            lp_risk(np.zeros(2048), np.zeros(1024), 2.0)

    def test_minimum_grid(self):
        with pytest.raises(ValueError, match="1024"):
            lp_risk(np.zeros(512), np.zeros(512), 2.0)


class TestFitRate:
    def test_exact_power_law(self):
        ns = [256, 1024, 4096, 16384]
        slope, intercept, err = fit_rate([(n, n ** (-2 / 3)) for n in ns])
        assert slope == pytest.approx(-2 / 3, abs=1e-12)
        assert err <= 1e-12

    def test_scaled_line_recovers_intercept(self):
        ns = [256, 512, 1024]
        slope, intercept, _ = fit_rate([(n, 7.0 / n) for n in ns])
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert intercept == pytest.approx(math.log(7.0), abs=1e-12)

    def test_sampling_distribution_coverage(self):
        # perturbed lines: fitted slope within 3 stderr of truth in >= 95% of trials
        rng = np.random.default_rng(42)
        ns = np.array([256, 512, 1024, 2048, 4096, 8192])
        hits = 0
        trials = 200
        for _ in range(trials):
            risks = np.exp(-0.8 * np.log(ns) + 0.3 * rng.standard_normal(len(ns)))
            slope, _, err = fit_rate(zip(ns, risks))
            hits += abs(slope + 0.8) <= 3.0 * err
        assert hits / trials >= 0.95

    def test_preconditions(self):
        with pytest.raises(ValueError, match="3 points"):
            fit_rate([(256, 1.0), (512, 0.5)])
        with pytest.raises(ValueError, match="positive"):
            fit_rate([(256, 1.0), (512, 0.5), (1024, 0.0)])


class TestWilson:
    def test_zero_successes(self):
        assert wilson_upper(0, 10_000) == pytest.approx(3.84e-4, rel=0.01)

    def test_monotone_in_successes(self):
        vals = [wilson_upper(k, 1000) for k in (0, 1, 5, 20)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


@pytest.fixture(scope="module")
def small_config():
    return ExperimentConfig(
        signal={"name": "doppler"},
        n_grid=(256, 512, 1024),
        replications=50,
        master_seed=5,
        slope_tol=5.0,
    )


class TestRunRateExperiment:
    def test_deterministic_and_thread_invariant(self, small_config):
        a = run_rate_experiment(small_config, threads=1)
        b = run_rate_experiment(small_config, threads=1)
        c = run_rate_experiment(small_config, threads=4)
        assert a.mean_risk == b.mean_risk == c.mean_risk
        assert a.slope == b.slope == c.slope

    def test_noiseless_risk_monotone(self):
        config = ExperimentConfig(
            signal={"name": "heavisine"},
            n_grid=(512, 2048, 8192),
            replications=50,
            master_seed=11,
            noiseless=True,
            slope_tol=5.0,
        )
        report = run_rate_experiment(config)
        assert all(a > b for a, b in zip(report.mean_risk, report.mean_risk[1:]))

    def test_zero_threshold_equals_projection_risk(self, haar):
        density = uniform_design()
        sig = make_test_function("heavisine", haar, jmax=8)
        sample = generate_sample(sig.fn, density, 1024, seed=3)
        est = blockshrink(sample, density, haar, 2.0, 0.0)
        raw = empirical_coefficients(sample, density, haar, est.grid)
        truth = sig.fn(midpoint_grid(1 << 14))
        r_est = lp_risk(synthesize(haar, est.tree, 1 << 14), truth, 2.0)
        r_raw = lp_risk(synthesize(haar, raw, 1 << 14), truth, 2.0)
        assert r_est == r_raw

    def test_comparison_table_descriptive(self):
        config = ExperimentConfig(
            signal={"name": "heavisine"},
            n_grid=(256, 512, 1024),
            replications=50,
            master_seed=8,
            compare_term=True,
            slope_tol=5.0,
        )
        report = run_rate_experiment(config)
        assert len(report.comparison) == 3
        for row in report.comparison:
            assert set(row) == {"n", "block", "hard", "soft"}
            assert row["block"] > 0 and row["hard"] > 0 and row["soft"] > 0
        # descriptive only: the pass flag reflects the slope gate alone
        assert report.passed

    def test_config_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            ExperimentConfig(n_grid=(1024, 512)).validate()
        with pytest.raises(ValueError, match="256"):
            ExperimentConfig(n_grid=(128, 512)).validate()
        with pytest.raises(ValueError, match="replications"):
            ExperimentConfig(replications=10).validate()
        with pytest.raises(ValueError, match="p="):
            ExperimentConfig(p=1.0).validate()
        with pytest.raises(ValueError, match="risk_grid=10000 must be a power of two"):
            ExperimentConfig(risk_grid=10000).validate()

    def test_shared_tree_matches_separate_estimators(self):
        """The risks are the three rules applied to each seeded sample's tree
        summed in drawn order; the public per-rule estimators, which sort the
        sample first, give the same risks up to the order of the sums."""
        config = ExperimentConfig(
            signal={"name": "heavisine"},
            density={"kind": "linear-tilt", "slope": 0.5},
            n_grid=(256, 512, 1024),
            replications=50,
            master_seed=8,
            compare_term=True,
            slope_tol=5.0,
        )
        report = run_rate_experiment(config)
        basis = make_basis("haar", 12)
        density = linear_tilt_design(0.5)
        sig = make_test_function("heavisine", basis, config.jmax)
        truth = sig.fn(midpoint_grid(config.risk_grid))
        rules = [("block", config.d), ("hard", config.term_c), ("soft", config.term_c)]

        def risk(tree):
            return lp_risk(synthesize(basis, tree, config.risk_grid), truth, config.p)

        for i, n in enumerate(config.n_grid):
            grid = block_grid(n, config.p, basis.coarsest_level)
            drawn, public = np.empty((2, config.replications, 3))
            for rep in range(config.replications):
                sample = generate_sample(
                    sig.fn, density, n, replication_seed(config.master_seed, n, rep)
                )
                w = _weights(sample, density.pdf(sample.x), density)
                tree = _coefficient_tree(basis, grid.j_low, grid.j_high, sample.x, w)
                drawn[rep] = [risk(threshold_tree(tree, grid, r, c).tree) for r, c in rules]
                raw = empirical_coefficients(sample, density, basis, grid)
                estimates = [
                    blockshrink(sample, density, basis, config.p, config.d),
                    threshold_tree(raw, grid, "hard", config.term_c),
                    threshold_tree(raw, grid, "soft", config.term_c),
                ]
                public[rep] = [risk(est.tree) for est in estimates]
            row = report.comparison[i]
            got = [report.mean_risk[i], row["hard"], row["soft"]]
            assert got == [float(drawn[:, k].mean()) for k in range(3)] and got[0] == row["block"]
            np.testing.assert_allclose(got, public.mean(axis=0), rtol=1e-12, atol=0)

    def test_ball_gate(self):
        config = ExperimentConfig(ball={"s": 1, "pi": 1, "r": 1})
        with pytest.raises(ValueError, match="smoothness"):
            run_rate_experiment(config)


@pytest.fixture(scope="module")
def moment_config():
    return ExperimentConfig(
        signal={"name": "heavisine"},
        n_grid=(512, 1024, 2048, 4096),
        replications=400,
        master_seed=31,
        moment_level=3,
        moment_index=2,
    )


class TestMomentDiagnostics:
    def test_zero_signal_zero_noise_moments_vanish(self):
        config = ExperimentConfig(
            signal={"name": "zero"},
            n_grid=(512, 1024, 2048),
            replications=50,
            master_seed=2,
            noiseless=True,
        )
        basis = make_basis("haar", 12)
        from blockshrink.harness import _materialize, coefficient_deviations

        basis, density, signal = _materialize(config)
        devs = coefficient_deviations(config, 512, basis, density, signal)
        assert sorted(devs) == [2, 3]
        for j, dev in devs.items():
            assert dev.shape == (50, 1 << j)
            assert np.all(dev == 0.0)

    def test_moment_slope_near_minus_p(self, moment_config):
        report, _ = run_diagnostics(moment_config)
        assert report.passed
        assert report.slope == pytest.approx(-2.0, abs=0.3)

    def test_risk_stderr_halves_when_replications_quadruple(self):
        base = dict(
            signal={"name": "doppler"}, n_grid=(256, 512, 1024), master_seed=19,
            slope_tol=5.0,
        )
        small = run_rate_experiment(ExperimentConfig(replications=200, **base))
        big = run_rate_experiment(ExperimentConfig(replications=800, **base))
        for se_small, se_big in zip(small.stderr, big.stderr):
            assert se_big / se_small == pytest.approx(0.5, abs=0.1)

    def test_level_range_validated(self, moment_config):
        with pytest.raises(ValueError, match="outside"):
            run_diagnostics(replace(moment_config, moment_level=9, moment_index=0))


@pytest.fixture(scope="module")
def concentration_report():
    config = ExperimentConfig(
        signal={"name": "zero"},
        n_grid=(1024, 2048, 4096),
        replications=800,
        master_seed=13,
        conc_level=3,
        conc_block=0,
        conc_mu=8.0,
    )
    return run_diagnostics(config)[1]


class TestConcentrationDiagnostics:
    def test_envelope_holds_at_calibrated_mu(self, concentration_report):
        report = concentration_report
        assert report.passed
        for f, e in zip(report.frequency, report.envelope):
            assert f <= e

    def test_mu_zero_event_certain(self):
        config = ExperimentConfig(
            signal={"name": "zero"},
            n_grid=(1024, 2048, 4096),
            replications=50,
            master_seed=13,
            conc_level=3,
            conc_block=0,
            conc_mu=0.0,
        )
        _, rep = run_diagnostics(config)
        assert rep.frequency == [1.0, 1.0, 1.0]

    def test_frequency_nonincreasing_in_mu(self, concentration_report):
        for row in concentration_report.mu_sweep:
            freqs = row["frequency"]
            assert all(a >= b for a, b in zip(freqs, freqs[1:]))

    def test_median_scales_like_root_n(self, concentration_report):
        assert concentration_report.median_slope == pytest.approx(-0.5, abs=0.15)


class TestDiagnosePass:
    @pytest.mark.parametrize(
        "levels", [(3, 3), (2, 3)], ids=["same-level", "different-levels"]
    )
    def test_shared_pass_equals_separate_checks(self, levels):
        """Each report of run_diagnostics equals its check scored alone on
        the deviations of every level."""
        moment_level, conc_level = levels
        config = ExperimentConfig(
            signal={"name": "doppler"},
            density={"kind": "linear-tilt", "slope": 0.5},
            n_grid=(512, 1024, 2048),
            replications=60,
            master_seed=23,
            moment_level=moment_level,
            moment_index=1,
            conc_level=conc_level,
            conc_block=0,
        )
        moment, conc = run_diagnostics(config)
        basis, density, signal = harness._materialize(config)

        devs = {
            n: harness.coefficient_deviations(config, n, basis, density, signal)
            for n in config.n_grid
        }
        assert moment == harness._score_moment(config, devs)
        assert conc == harness._score_concentration(config, devs)

    def test_each_report_ignores_the_other_checks_level(self):
        """Sharing one pass, each check scores its own level: the reports at
        levels (2, 3) are the moment report at (2, 2) and the concentration
        report at (3, 3)."""

        def cfg(moment_level, conc_level):
            return ExperimentConfig(
                signal={"name": "doppler"},
                density={"kind": "linear-tilt", "slope": 0.5},
                n_grid=(512, 1024, 2048),
                replications=60,
                master_seed=23,
                moment_level=moment_level,
                moment_index=1,
                conc_level=conc_level,
                conc_block=0,
            )

        moment, conc = run_diagnostics(cfg(2, 3))
        assert moment == run_diagnostics(cfg(2, 2))[0]
        assert conc == run_diagnostics(cfg(3, 3))[1]
        assert (moment.j, conc.j) == (2, 3)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_rows_in_replication_order(self, threads):
        """Row rep of every deviation matrix comes from replication rep's seed."""
        config = ExperimentConfig(signal={"name": "doppler"}, n_grid=(512,), replications=50,
                                  master_seed=31)
        basis, density, signal = harness._materialize(config)
        devs = harness.coefficient_deviations(config, 512, basis, density, signal, threads)
        grid = block_grid(512, config.p, basis.coarsest_level)
        assert sorted(devs) == list(grid.levels())
        for rep in range(config.replications):
            sample = generate_sample(signal.fn, density, 512, replication_seed(31, 512, rep))
            w = _weights(sample, density.pdf(sample.x), density)
            tree = _coefficient_tree(basis, grid.j_low, grid.j_high, sample.x, w)
            for j, dev in devs.items():
                assert np.array_equal(dev[rep], tree.detail(j) - signal.tree.detail(j))

    @pytest.mark.parametrize(
        "override,message",
        [
            ({"moment_level": 9}, "moment_level=9 outside .* n=256 of n_grid"),
            ({"moment_index": 4}, "moment_index=4 out of range at level 2, n=256 of n_grid"),
            ({"conc_level": 1}, "conc_level=1 outside .* n=256 of n_grid"),
            ({"conc_block": 1}, "conc_block=1 out of range at level 2, n=256 of n_grid"),
            ({"n_grid": (512, 1024)}, "n_grid needs at least 3"),
            ({"n_grid": (4096, 8192, 16384), "moment_level": 4, "conc_level": 3, "jmax": 3},
             "moment_level=4 outside the estimator levels 3..3 at n=4096 .*jmax=3"),
        ],
    )
    def test_range_errors_before_any_sample(self, monkeypatch, override, message):
        def no_sample(*args, **kwargs):
            raise AssertionError("a sample was drawn before the range check")

        monkeypatch.setattr(harness, "generate_sample", no_sample)
        fields = {"n_grid": (256, 512, 1024), "moment_level": 2, "moment_index": 1,
                  "conc_level": 2, "conc_block": 0}
        config = ExperimentConfig(signal={"name": "zero"}, **{**fields, **override})
        with pytest.raises(ConfigError, match=message):
            run_diagnostics(config)


class TestReplicate:
    def test_pool_has_at_most_one_worker_per_cpu(self, monkeypatch):
        """A huge ``threads`` opens one worker per CPU, and the serial path
        when there is one CPU; the fake pool maps serially, so no thread starts."""
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", SerialPool)
        config = ExperimentConfig(signal={"name": "doppler"}, n_grid=(256,), replications=50)
        basis, density, signal = harness._materialize(config)
        grid = block_grid(256, config.p, basis.coarsest_level)

        def run(threads):
            return harness._replicate(config, basis, grid, density, signal,
                                      lambda tree: tree.alpha[0], threads)

        serial = run(1)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        assert run(10**6) == serial
        assert run(3) == serial
        assert pools == [4, 3]
        for cpus in (1, None):
            monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
            assert run(10**6) == serial
        assert pools == [4, 3]


# One design of each kind for the engine's per-replication checks.
_ENGINE_DENSITIES = {
    "uniform": {"kind": "uniform"},
    "tilt": {"kind": "linear-tilt", "slope": -1.5},
    "piecewise": {"kind": "piecewise", "breaks": [0.3], "values": [0.5, 17 / 14]},
}


def _engine(density):
    """``_replicate``'s inputs at n = 256 with 50 doppler replications."""
    config = ExperimentConfig(signal={"name": "doppler"}, density=_ENGINE_DENSITIES[density],
                              n_grid=(256,), replications=50)
    basis, dens, signal = harness._materialize(config)
    return config, basis, block_grid(256, config.p, basis.coarsest_level), dens, signal


@pytest.mark.parametrize("density", sorted(_ENGINE_DENSITIES))
class TestReplicationChecks:
    def test_each_check_runs_once_per_replication(self, monkeypatch, density):
        """Per replication: x is range-checked once (by the Sample), pdf is
        never called, and one tree is validated however often the kernel
        copies it (threshold_tree copies it once per rule)."""
        config, basis, grid, dens, signal = _engine(density)
        calls = Counter()
        for cls, name in ((DesignDensity, "pdf"), (Sample, "__post_init__"),
                          (CoefficientTree, "__post_init__")):
            def spy(*args, _original=getattr(cls, name), _key=f"{cls.__name__}.{name}",
                    **kwargs):
                calls[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cls, name, spy)

        def kernel(tree):
            return [threshold_tree(tree, grid, rule, 2.0).tree.alpha[0]
                    for rule in ("block", "hard", "soft")]

        harness._replicate(config, basis, grid, dens, signal, kernel, 1)
        assert calls == {"Sample.__post_init__": 50, "CoefficientTree.__post_init__": 50}

    @pytest.mark.parametrize("side", ["low", "high"])
    def test_drawn_g_outside_its_bounds_raises(self, monkeypatch, density, side):
        config, basis, grid, dens, signal = _engine(density)
        draw = DesignDensity.draw

        def broken(self, u):
            x, g = draw(self, u)
            return x, np.full_like(g, self.g_min * 0.99 if side == "low" else self.g_max * 1.01)

        monkeypatch.setattr(DesignDensity, "draw", broken)
        with pytest.raises(RuntimeError, match="certified bounds"):
            harness._replicate(config, basis, grid, dens, signal, lambda tree: 0.0, 1)


class TestCalibration:
    def test_default_threshold_false_keep_rate(self):
        from blockshrink import calibrate_threshold

        rows = calibrate_threshold(n=4096, p=2.0, replications=200, seed=20240)
        by_d = {row["d"]: row["false_keep_rate"] for row in rows}
        assert by_d[4.0] < 0.01
        # rates decrease as the constant grows
        ds = sorted(by_d)
        assert all(by_d[a] >= by_d[b] for a, b in zip(ds, ds[1:]))
        # 200 replications of 3 blocks each; the counts of the
        # level-at-a-time pass that preceded the shared one
        assert [rows[i]["false_keep_rate"] for i in range(3)] == [584 / 600, 256 / 600, 9 / 600]
        assert all(row["false_keep_rate"] == 0.0 for row in rows[3:])

"""Risk computation, rate fitting, and the Monte Carlo diagnostics."""

import itertools
import math
import tracemalloc
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
from blockshrink.basis import _coefficient_tree, _first_cell, _grid_series, _lift, coarsest_level
from blockshrink.design import _streams
from blockshrink.estimator import _weights
from oracles import numpy_seed, numpy_streams, periodized


class TestLpRisk:
    """``_lp_mean`` overwrites its argument, so each test passes a difference."""

    def test_identical_inputs(self):
        v = np.linspace(0, 1, 2048)
        assert harness._lp_mean(v - v, 2.0) == 0.0

    def test_constant_offset_exact(self):
        v = np.zeros(2048)
        assert harness._lp_mean((v + 0.7) - v, 3.0) == pytest.approx(0.7**3, abs=1e-12)

    def test_unit_atom_has_unit_energy(self, haar):
        x = midpoint_grid(1 << 14)
        atom = periodized(haar, "mother", 3, 2, x)
        assert harness._lp_mean(atom - np.zeros_like(atom), 2.0) == pytest.approx(1.0, abs=1e-6)


class TestGridRisks:
    """``_grid_risks`` scores the rows of a lifted stack one at a time in one
    reused buffer; each risk must be the row's own synthesized risk exactly."""

    R = 8
    GRID = 1 << 12

    def _lifted(self, basis, n, p, rule, constant, size=GRID):
        """The lifted (R, 2^J) stack of one rule at n, its first cell and the
        truth on a risk grid of ``size`` points."""
        config = ExperimentConfig(basis_family=basis.family, p=p, replications=self.R,
                                  master_seed=5)
        signal = make_test_function("heavisine", basis, config.jmax)
        grid = block_grid(n, p, basis.coarsest_level)
        stack = harness._replicate(config, basis, grid, linear_tilt_design(0.5), signal)
        tree = threshold_tree(stack, grid, rule, constant).tree
        top, lifted = _lift(basis, tree)
        truth = signal.fn(midpoint_grid(size))
        return tree, lifted, _first_cell(basis, top, size), truth

    @pytest.mark.parametrize("family", ["haar", "db4", "db6"])
    @pytest.mark.parametrize("p", [2, 3, 3.0])
    @pytest.mark.parametrize("rule,constant", [("block", 4.0), ("soft", 2.0)])
    def test_each_row_is_its_synthesized_risk(self, request, family, p, rule, constant):
        basis = request.getfixturevalue(family)
        tree, lifted, cell, truth = self._lifted(basis, 4096, p, rule, constant)
        got = harness._grid_risks(lifted, cell, truth, p, np.empty(self.GRID))
        rows = [
            synthesize(basis, CoefficientTree(tree.j0, tree.jmax, tree.alpha[r],
                                              [b[r] for b in tree.beta]), self.GRID)
            for r in range(self.R)
        ]
        assert got.tolist() == [harness._lp_mean(values - truth, p) for values in rows]
        # the formula written out, with fresh temporaries
        assert got.tolist() == [float(np.mean(np.abs(values - truth) ** p)) for values in rows]

    @pytest.mark.parametrize("family", ["haar", "db4", "db6"])
    def test_reused_buffer_holds_nothing_over(self, request, family):
        """Rule A at one n, then rule B at another in the same buffer, gives
        B's risks as B scored alone in a buffer of NaNs."""
        basis = request.getfixturevalue(family)
        _, lifted_a, cell_a, truth = self._lifted(basis, 4096, 2, "block", 4.0)
        _, lifted_b, cell_b, _ = self._lifted(basis, 1024, 2, "soft", 2.0)
        buf = np.empty(self.GRID)
        first_a = harness._grid_risks(lifted_a, cell_a, truth, 2, buf)
        after_a = harness._grid_risks(lifted_b, cell_b, truth, 2, buf)
        alone = harness._grid_risks(lifted_b, cell_b, truth, 2, np.full(self.GRID, np.nan))
        assert after_a.tolist() == alone.tolist()
        assert harness._grid_risks(lifted_a, cell_a, truth, 2, buf).tolist() == first_a.tolist()
        assert np.all(np.isfinite(alone)) and lifted_a.shape[-1] != lifted_b.shape[-1]


    # the README geometry (risk grid 2^14, n = 2^10 and 2^14), and the
    # coarsest grid the config admits: two points per level-J cell
    _GEOMETRIES = [(1024, 1 << 14), (16384, 1 << 14), (4096, 64)]

    @pytest.mark.parametrize("family", ["haar", "db4", "db6"])
    @pytest.mark.parametrize("n,size", _GEOMETRIES)
    @pytest.mark.parametrize("rule,constant", [("block", 4.0), ("soft", 2.0)])
    def test_l2_risks_match_the_grid(self, request, family, n, size, rule, constant):
        """At p = 2 the coefficient-space risks are the grid's within a
        relative 1e-12."""
        basis = request.getfixturevalue(family)
        _, lifted, cell, truth = self._lifted(basis, n, 2, rule, constant, size)
        assert len(truth) // cell.shape[1] == lifted.shape[1]
        buf = np.empty(size)
        got = harness._l2_risks(lifted, *harness._projection(cell, truth, buf))
        want = harness._grid_risks(lifted, cell, truth, 2, buf)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("family", ["haar", "db4", "db6"])
    @pytest.mark.parametrize("n,size", _GEOMETRIES)
    def test_projection_scores_exactly_its_residual(self, request, family, n, size):
        """The truth's level-J projection scores exactly its grid residual;
        a truth inside the level-J span scores its own coefficients at a
        risk that is tiny and never negative."""
        basis = request.getfixturevalue(family)
        _, lifted, cell, truth = self._lifted(basis, n, 2, "block", 4.0, size)
        buf = np.empty(size)
        gram, best, floor = harness._projection(cell, truth, buf)
        assert harness._l2_risks(best[None], gram, best, floor).tolist() == [floor]
        assert floor == harness._grid_risks(best[None], cell, truth, 2, buf)[0] > 0
        inside = np.empty(size)
        _grid_series(lifted[0], cell, inside)
        risks = harness._l2_risks(lifted, *harness._projection(cell, inside, buf))
        assert 0 <= risks[0] < 1e-28
        np.testing.assert_allclose(risks, harness._grid_risks(lifted, cell, inside, 2, buf),
                                   rtol=1e-12, atol=1e-28)


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
        """Two runs of one config replay exactly (a run uses one thread)."""
        a = run_rate_experiment(small_config)
        b = run_rate_experiment(small_config)
        assert a.mean_risk == b.mean_risk
        assert a.slope == b.slope

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
        r_est = harness._lp_mean(synthesize(haar, est.tree, 1 << 14) - truth, 2.0)
        r_raw = harness._lp_mean(synthesize(haar, raw, 1 << 14) - truth, 2.0)
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
            return harness._lp_mean(synthesize(basis, tree, config.risk_grid) - truth, config.p)

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
            # at p = 2 the run scores in coefficient space: within 1e-12 of the grid
            np.testing.assert_allclose(got, drawn.mean(axis=0), rtol=1e-12, atol=0)
            assert got[0] == row["block"]
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

        basis, density, signal, grids = _materialize(config)
        devs = coefficient_deviations(config, grids[0], basis, density, signal)
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
        basis, density, signal, grids = harness._materialize(config)

        devs = {
            grid.n: harness.coefficient_deviations(config, grid, basis, density, signal)
            for grid in grids
        }
        assert moment == harness._score_moment(config, devs)
        assert conc == harness._score_concentration(config, grids, devs)

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

    @pytest.mark.parametrize("calls", [1, 3])
    def test_rows_in_replication_order(self, calls):
        """Row rep of every deviation matrix comes from replication rep's seed,
        and a repeated call replays the same rows."""
        config = ExperimentConfig(signal={"name": "doppler"}, n_grid=(512,), replications=50,
                                  master_seed=31)
        basis, density, signal, (grid,) = harness._materialize(config)
        runs = [harness.coefficient_deviations(config, grid, basis, density, signal)
                for _ in range(calls)]
        devs = runs[-1]
        for run in runs[:-1]:
            assert sorted(run) == sorted(devs)
            assert all(np.array_equal(run[j], devs[j]) for j in devs)
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

        monkeypatch.setattr(harness, "_draw_sample", no_sample)
        fields = {"n_grid": (256, 512, 1024), "moment_level": 2, "moment_index": 1,
                  "conc_level": 2, "conc_block": 0}
        config = ExperimentConfig(signal={"name": "zero"}, **{**fields, **override})
        with pytest.raises(ConfigError, match=message):
            run_diagnostics(config)


class TestBlockGridsBuiltOnce:
    """``validate`` builds the block grid of each n of ``n_grid``, and a run
    reads those grids instead of building them again."""

    @pytest.mark.parametrize("run", [run_rate_experiment, run_diagnostics],
                             ids=["rates", "diagnose"])
    def test_one_block_grid_per_n(self, monkeypatch, run):
        calls, original = [], harness.block_grid

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(harness, "block_grid", counting)
        config = ExperimentConfig(signal={"name": "zero"}, n_grid=(256, 512, 1024),
                                  replications=50, slope_tol=5.0, moment_level=2,
                                  moment_index=1, conc_level=2, conc_block=0)
        run(config)
        assert [args[0] for args in calls] == list(config.n_grid)

    @pytest.mark.parametrize("family", ["haar", "db4", "db6"])
    @pytest.mark.parametrize("p", [2, 3.5, 5])
    def test_validate_returns_each_n_block_grid(self, family, p):
        config = ExperimentConfig(basis_family=family, p=p, n_grid=(1024, 4096, 1 << 16))
        _, grids = config.validate()
        j0 = coarsest_level(family)
        assert grids == tuple(block_grid(n, p, j0) for n in config.n_grid)


class TestReplicate:
    N = 1 << 14

    def _peak(self, family):
        """Traced peak of the second replication of two at n = 2^14."""
        config = ExperimentConfig(basis_family=family,
                                  density={"kind": "linear-tilt", "slope": 0.5},
                                  n_grid=(self.N,), replications=50)
        basis, density, signal, (grid,) = harness._materialize(config)
        config = replace(config, replications=2)
        harness._replicate(config, basis, grid, density, signal)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            harness._replicate(config, basis, grid, density, signal)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_working_set_of_one_replication(self):
        """At n = 2^14 a Haar replication holds at most about six n-length
        arrays at once.  Ten made glibc trim and regrow the heap on every
        replication of the README config: about 25k minor page faults per
        run."""
        assert self._peak("haar") <= 7 * 8 * self.N

    @pytest.mark.parametrize("family", ["db4", "db6"])
    def test_working_set_of_one_multitap_replication(self, family):
        """A db4 or db6 replication adds its scaling terms one translate row
        at a time, so it holds no (support_length, n) arrays: at most about
        nine n-length arrays at once."""
        assert self._peak(family) <= 10 * 8 * self.N

    def test_terms_arrays_are_reused_across_replications(self, monkeypatch):
        """Every n-length buffer of a replication (the draw's, the signal's,
        the weights' and the translate rows') is the same array in every
        replication of an n, for Haar as for a multi-tap family: allocated
        per replication, they made glibc trim and regrow the heap in every
        replication at n >= 2^15 (141k minor faults on three n up to 2^17
        against none), and a one-shot ``diagnose`` likewise (45k against
        13k)."""
        seen = {}

        def spy(name, original, slot):
            def record(*args, **kwargs):
                seen.setdefault(name, []).append(args[slot] if len(args) > slot else kwargs["out"])
                return original(*args, **kwargs)
            return record

        monkeypatch.setattr(harness, "_draw_sample", spy("sample", harness._draw_sample, 5))
        monkeypatch.setattr(DesignDensity, "draw", spy("draw", DesignDensity.draw, 2))
        monkeypatch.setattr(harness, "_weights", spy("weights", harness._weights, 3))
        monkeypatch.setattr(harness, "_scaling_sums", spy("rows", harness._scaling_sums, 4))
        n = 1 << 12
        besov = {"random_besov": {"s": 2, "pi": 2, "seed": 1}}
        for family, signal in itertools.product(("db6", "haar"), ("heavisine", besov)):
            seen.clear()
            config = ExperimentConfig(basis_family=family, signal=signal, n_grid=(n,),
                                      density=_ENGINE_DENSITIES["piecewise"], replications=50)
            basis, density, sig, (grid,) = harness._materialize(config)
            sig.fn = spy("signal", sig.fn, 1)
            harness._replicate(replace(config, replications=3), basis, grid, density, sig)
            assert sorted(seen) == ["draw", "rows", "sample", "signal", "weights"]
            for name, outs in seen.items():
                first = [outs[0]] if name == "weights" else list(outs[0])
                assert len(outs) == 3 and all(a.shape == (n,) for a in first), name
                for out in outs[1:]:
                    got = [out] if name == "weights" else list(out)
                    assert len(got) == len(first), name
                    assert all(a is b for a, b in zip(got, first)), name


class TestSeeding:
    """The closed-form seeds and streams of all R replications equal
    NumPy's SeedSequence and PCG64, which stay the oracle."""

    R = 50

    @pytest.mark.parametrize("master_seed", [0, 2**32 - 1, 2**32, 2**63, 2**64 + 5])
    @pytest.mark.parametrize("n", [256, 1 << 20])
    def test_seeds_and_streams_equal_numpy(self, master_seed, n):
        reps = np.arange(self.R, dtype=np.uint32)
        low, high = harness._replication_words(master_seed, n, [reps])
        states = [[rng.bit_generator.state for rng in rngs] for rngs in _streams([low, high])]
        assert len(states) == self.R
        for rep in (0, self.R - 1):
            seed = numpy_seed(master_seed, n, rep)
            assert int(low[rep]) | int(high[rep]) << 32 == seed
            assert replication_seed(master_seed, n, rep) == seed
            assert states[rep] == [rng.bit_generator.state for rng in numpy_streams(seed)]

    def test_negative_master_seed_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            replication_seed(-1, 256, 0)


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
    basis, dens, signal, (grid,) = harness._materialize(config)
    return config, basis, grid, dens, signal


@pytest.mark.parametrize("density", sorted(_ENGINE_DENSITIES))
class TestReplicationChecks:
    def test_each_check_runs_once_per_replication(self, monkeypatch, density):
        """Per replication x is range-checked once (by the Sample) and pdf is
        never called; the stack of all 50 trees is validated once, however
        often it is copied (threshold_tree copies it once per rule)."""
        config, basis, grid, dens, signal = _engine(density)
        calls = Counter()
        for cls, name in ((DesignDensity, "pdf"), (Sample, "__post_init__"),
                          (CoefficientTree, "__post_init__")):
            def spy(*args, _original=getattr(cls, name), _key=f"{cls.__name__}.{name}",
                    **kwargs):
                calls[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cls, name, spy)

        stack = harness._replicate(config, basis, grid, dens, signal)
        for rule in ("block", "hard", "soft"):
            threshold_tree(stack, grid, rule, 2.0)
        assert calls == {"Sample.__post_init__": 50, "CoefficientTree.__post_init__": 1}

    @pytest.mark.parametrize("rep", [0, 31, 49])
    def test_non_finite_coefficient_in_one_replication_raises(self, monkeypatch, density, rep):
        """The draw whose design stream is replication rep's (by NumPy's
        seeding) gets one NaN; only that one, and the run raises."""
        config, basis, grid, dens, signal = _engine(density)
        bad_seed = harness.replication_seed(config.master_seed, 256, rep)
        bad_state = numpy_streams(bad_seed)[0].bit_generator.state
        draw, hits = harness._draw_sample, []

        def one_nan(f, density, n, rngs, noiseless, out):
            hits.append(rngs[0].bit_generator.state == bad_state)
            sample = draw(f, density, n, rngs, noiseless, out)
            if hits[-1]:
                sample.y[7] = np.nan
            return sample

        monkeypatch.setattr(harness, "_draw_sample", one_nan)
        with pytest.raises(ValueError, match="finite"):
            harness._replicate(config, basis, grid, dens, signal)
        assert hits.index(True) == rep and hits.count(True) == 1

    @pytest.mark.parametrize("side", ["low", "high"])
    def test_drawn_g_outside_its_bounds_raises(self, monkeypatch, density, side):
        config, basis, grid, dens, signal = _engine(density)
        draw = DesignDensity.draw

        def broken(self, u, out=None):
            x, g = draw(self, u, out)
            return x, np.full_like(g, self.g_min * 0.99 if side == "low" else self.g_max * 1.01)

        monkeypatch.setattr(DesignDensity, "draw", broken)
        with pytest.raises(RuntimeError, match="certified bounds"):
            harness._replicate(config, basis, grid, dens, signal)


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

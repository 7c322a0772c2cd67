"""End-to-end acceptance checks.

Each test exercises one gated behaviour at its pinned tolerance and prints a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to
see them).  Tolerances are fixed here, not calibrated elsewhere.

Criterion 2 (parametric baseline) gates the risk per kept coarse
coefficient, not the raw risk.  For the constant signal every detail block is
killed, so the estimate is the projection on the coarse level, whose exact
risk is (2 * 2^{j_low} - 1) / n.  The coarse dimension 2^{j_low} with
j_low = floor(log2 ln n) grows like ln n by design and doubles inside the
pinned n range (crossing at n = e^8 ~ 2981), so the raw risk slope over this
grid is -0.67.  Dividing out 2^{j_low} leaves the n^-1 rate of each kept
coefficient, and that slope is gated at -1 +- 0.2.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from blockshrink import (
    ExperimentConfig,
    Sample,
    block_grid,
    block_statistic,
    blockshrink,
    concentration_ratio,
    empirical_coefficients,
    fit_rate,
    generate_sample,
    linear_tilt_design,
    make_basis,
    make_test_function,
    rate_spec,
    run_diagnostics,
    run_rate_experiment,
    uniform_design,
)
from oracles import periodized

SEED = 20250801
N_GRID = (1024, 2048, 4096, 8192, 16384)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_1_regular_zone_rate():
    """Heavisine, uniform design, p=2, Haar: slope within 0.15 of -2/3."""
    config = ExperimentConfig(
        signal={"name": "heavisine"},
        density={"kind": "uniform"},
        basis_family="haar",
        p=2.0,
        d=4.0,
        n_grid=N_GRID,
        replications=100,
        master_seed=SEED,
        ball={"s": 1, "pi": "inf", "r": "inf"},
        slope_tol=0.15,
    )
    rep = run_rate_experiment(config)
    target = float(rate_spec(1, math.inf, math.inf, 2).risk_exponent)
    assert target == pytest.approx(-2 / 3)
    ok = abs(rep.slope - target) <= 0.15
    report(
        "criterion 1 (regular-zone rate recovery)",
        ok,
        f"slope {rep.slope:.4f} (se {rep.slope_stderr:.4f}) vs {target:.4f}, tol 0.15",
    )
    assert ok
    assert rep.passed


def test_criterion_2_parametric_baseline():
    """Constant signal, same setup: risk per coarse coefficient within 0.2 of -1.

    Every detail block is killed, so the exact risk is (2 * 2^{j_low} - 1) / n:
    2^{j_low} kept coarse coefficients, each with variance
    (2 - 2^{-j_low}) / n.  The Monte Carlo risks are first verified against
    that closed form, with j_low checked against the estimator's own block
    grid.  The gate then applies to the slope of mean_risk / 2^{j_low}, the
    parametric n^-1 rate per kept coefficient.  The raw slope (-0.67 in
    closed form) is only reported: j_low steps from 2 to 3 inside this n grid
    (see the module docstring).
    """
    config = ExperimentConfig(
        signal={"name": "constant"},
        n_grid=N_GRID,
        replications=100,
        master_seed=SEED,
        ball={"s": 1, "pi": "inf", "r": "inf"},
        slope_tol=0.2,
    )
    rep = run_rate_experiment(config)
    basis = make_basis(config.basis_family, config.refine_depth)
    coarse_dim = []
    oracle = []
    for n in N_GRID:
        j_low = math.floor(math.log2(math.log(n)))
        grid = block_grid(n, config.p, basis.coarsest_level)
        assert grid.j_low == j_low and not grid.clamped  # formula matches the estimator
        coarse_dim.append(2**j_low)
        oracle.append((2.0 * 2**j_low - 1.0) / n)
    oracle_slope, _, _ = fit_rate(zip(N_GRID, oracle))
    for risk, err, exact in zip(rep.mean_risk, rep.stderr, oracle):
        assert abs(risk - exact) <= 4.0 * err  # implementation matches closed form
    per_coeff = [risk / dim for risk, dim in zip(rep.mean_risk, coarse_dim)]
    slope, _, slope_err = fit_rate(zip(N_GRID, per_coeff))
    ok = abs(slope - (-1.0)) <= 0.2
    report(
        "criterion 2 (parametric baseline)",
        ok,
        f"risk per coarse coefficient slope {slope:.4f} (se {slope_err:.4f}) vs -1, "
        f"tol 0.2; raw slope {rep.slope:.4f}, closed-form oracle slope "
        f"{oracle_slope:.4f} (MC risks match the closed form within 4 se)",
    )
    assert ok, (
        f"risk per coarse coefficient has slope {slope:.4f}, outside -1 +- 0.2 "
        f"(raw slope {rep.slope:.4f}; the exact risk (2*2^j_low - 1)/n has raw "
        f"slope {oracle_slope:.4f} because 2^j_low grows with ln n)"
    )


def test_criterion_3_moment_bound():
    """Slope of log E|beta_hat - beta|^{2p} vs log n within 0.3 of -p."""
    config = ExperimentConfig(
        signal={"name": "heavisine"},
        n_grid=N_GRID,
        replications=2000,
        master_seed=SEED,
        ball={"s": 1, "pi": "inf", "r": "inf"},
        moment_tol=0.3,
        moment_level=3,
        moment_index=2,
    )
    rep, _ = run_diagnostics(config)
    ok = abs(rep.slope - (-2.0)) <= 0.3
    report(
        "criterion 3 (coefficient moment decay)",
        ok,
        f"slope {rep.slope:.4f} (se {rep.slope_stderr:.4f}) vs -2, tol 0.3",
    )
    assert ok
    assert rep.passed


def test_criterion_4_concentration_envelope():
    """Pure noise, mu = 2d = 8: block-deviation frequency <= 4 n^{-p}."""
    config = ExperimentConfig(
        signal={"name": "zero"},
        n_grid=(1024, 2048, 4096, 8192),
        replications=10_000,
        master_seed=SEED,
        ball={"s": 1, "pi": "inf", "r": "inf"},
        conc_level=3,
        conc_block=0,
        conc_mu=8.0,
    )
    _, rep = run_diagnostics(config)
    ok = all(f <= e for f, e in zip(rep.frequency, rep.envelope))
    report(
        "criterion 4 (block-deviation envelope)",
        ok,
        f"max frequency {max(rep.frequency):.2e} vs tightest envelope "
        f"{min(rep.envelope):.2e} at R=10^4 (Wilson upper bounds "
        f"{max(rep.wilson_upper):.2e})",
    )
    assert ok
    assert rep.passed


def test_criterion_5_basis_concentration():
    """Haar translate sums exactly at the disjoint-support constant; db4
    bounded and level-stable."""
    haar = make_basis("haar", 12)
    worst = 0.0
    for j in range(0, 11):
        for m in (1.0, 2.0, 4.0):
            ratio = concentration_ratio(haar, j, m, 1 << max(j + 4, 12))
            worst = max(worst, ratio)
    ok_haar = worst <= 1.0 + 1e-9
    db4 = make_basis("db4", 12)
    vals = [concentration_ratio(db4, j, 2.0, 1 << (j + 7)) for j in range(2, 11)]
    peak = float(np.max(np.abs(db4.psi_table)))
    ok_db4 = max(vals) <= db4.support_length * peak**2 and max(vals) / min(vals) <= 1.05
    report(
        "criterion 5 (translate concentration)",
        ok_haar and ok_db4,
        f"haar max ratio {worst:.12f} (<= 1 + 1e-9); db4 ratios in "
        f"[{min(vals):.4f}, {max(vals):.4f}], spread {max(vals)/min(vals) - 1:.2e}",
    )
    assert ok_haar and ok_db4


def test_criterion_6_oracle_equivalence():
    """Noiseless n=1e5: every coefficient at levels <= 4 within 3 MC se of
    the quadrature oracle, for uniform and tilted designs."""
    basis = make_basis("haar", 12)
    signal = make_test_function("heavisine", basis, jmax=8)
    n = 100_000
    grid = block_grid(n, 2.0, basis.coarsest_level)
    # quadrature oracle for the scaling coefficients at the estimator's level
    from blockshrink import exact_coefficients

    oracle = exact_coefficients(basis, signal.values, grid.j_low, grid.j_low)
    worst_overall = 0.0
    for density in (uniform_design(), linear_tilt_design(0.5)):
        sample = generate_sample(signal.fn, density, n, seed=SEED, noiseless=True)
        tree = empirical_coefficients(sample, density, basis, grid)
        weights = sample.y / density.pdf(sample.x)
        checks = [("father", grid.j_low, tree.alpha, oracle.alpha)]
        checks += [
            ("mother", j, tree.detail(j), signal.tree.detail(j))
            for j in range(grid.j_low, 5)
        ]
        for kind, j, estimates, truth in checks:
            for k in range(len(estimates)):
                terms = weights * periodized(basis, kind, j, k, sample.x)
                stderr = terms.std(ddof=1) / math.sqrt(n)
                z = abs(estimates[k] - truth[k]) / stderr
                worst_overall = max(worst_overall, z)
    ok = worst_overall <= 3.0
    report(
        "criterion 6 (empirical vs quadrature oracle)",
        ok,
        f"worst |deviation| / stderr = {worst_overall:.3f} over both designs, gate 3.0",
    )
    assert ok


def test_criterion_7_rate_calculator_exact():
    """Exact rational worked tuples plus a 1000-tuple zone sweep with zero
    critical-zone misclassifications."""
    r1 = rate_spec(2, 2, 1, 2)
    t1 = r1.epsilon == 4 and r1.zone == "regular" and r1.risk_exponent == Fraction(-4, 5)
    r2 = rate_spec(2, 1, 1, 6)
    t2 = (
        r2.epsilon == Fraction(-1, 2)
        and r2.zone == "sparse"
        and r2.alpha2 == Fraction(7, 18)
        and r2.log_exponent == Fraction(7, 3)
    )
    r3 = rate_spec(Fraction(5, 2), 1, 1, 6)
    t3 = r3.epsilon == 0 and r3.zone == "critical" and (r3.log_exponent - r3.alpha2 * 6) == 5
    rng = np.random.default_rng(SEED)
    cases = []
    while len(cases) < 700:
        s = Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 8)))
        pi = Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 4)))
        p = Fraction(int(rng.integers(4, 24)), 2)
        if pi >= 1 and s > 1 / pi + Fraction(1, 2):
            cases.append((s, pi, p))
    while len(cases) < 1000:
        pi = Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 3)))
        p = Fraction(int(rng.integers(4, 30)), 2)
        if pi < 1:
            continue
        s = (p - pi) / (2 * pi)
        if s > 1 / pi + Fraction(1, 2):
            cases.append((s, pi, p))
    miscls = 0
    for s, pi, p in cases:
        lhs = (
            2 * pi.numerator * s.numerator * p.denominator
            + (pi.numerator * p.denominator - p.numerator * pi.denominator) * s.denominator
        )
        sign = (lhs > 0) - (lhs < 0)
        expect = {1: "regular", 0: "critical", -1: "sparse"}[sign]
        if rate_spec(s, pi, math.inf, p).zone != expect:
            miscls += 1
    ok = t1 and t2 and t3 and miscls == 0
    report(
        "criterion 7 (rate calculator exactness)",
        ok,
        f"worked tuples {'ok' if (t1 and t2 and t3) else 'MISMATCH'}; "
        f"{miscls}/1000 zone misclassifications",
    )
    assert ok


def test_criterion_8_structural_invariants():
    """200 randomized cases of the structural estimator invariants."""
    basis = make_basis("haar", 12)
    density = uniform_design()
    rng = np.random.default_rng(SEED)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(256, 4096))
        p = float(rng.choice([2.0, 2.5, 3.0, 4.0]))
        x = rng.random(n)
        y = rng.normal(size=n) + np.sin(2 * np.pi * x * rng.integers(1, 4))
        sample = Sample(n, x, y)
        grid = block_grid(n, p, 0)
        # block partition covers every level exactly once
        for j in grid.levels():
            sizes = np.diff(grid.boundaries(j))
            assert sizes.sum() == 1 << j and np.all(sizes > 0)
        checked += 1
        # monotonicity of the kept set in the threshold constant
        d1, d2 = sorted(rng.uniform(0.0, 6.0, size=2))
        loose = blockshrink(sample, density, basis, p, d1)
        tight = blockshrink(sample, density, basis, p, d2)
        for m_loose, m_tight in zip(loose.kept, tight.kept):
            assert np.all(m_loose | ~m_tight)
        checked += 1
        # linearity of the coefficient map in y
        y2 = rng.normal(size=n)
        ta = empirical_coefficients(sample, density, basis, grid)
        tb = empirical_coefficients(Sample(n, x, y2), density, basis, grid)
        tab = empirical_coefficients(Sample(n, x, y + y2), density, basis, grid)
        assert np.allclose(tab.alpha, ta.alpha + tb.alpha, rtol=0, atol=1e-12)
        for j in grid.levels():
            assert np.allclose(
                tab.detail(j), ta.detail(j) + tb.detail(j), rtol=0, atol=1e-12
            )
        checked += 1
        # degenerate thresholds
        assert all(m.all() for m in blockshrink(sample, density, basis, p, 0.0).kept)
        assert not any(
            m.any() for m in blockshrink(sample, density, basis, p, 1e9).kept
        )
        checked += 1
    report("criterion 8 (structural invariants)", True, f"{checked} randomized checks")
    assert checked == 200


def test_criterion_9_descriptive_comparison_table():
    """Block vs term-by-term comparison is emitted descriptively, not gated."""
    config = ExperimentConfig(
        signal={"name": "heavisine"},
        n_grid=(256, 512, 1024),
        replications=50,
        master_seed=SEED,
        compare_term=True,
        slope_tol=5.0,
    )
    rep = run_rate_experiment(config)
    ok = (
        len(rep.comparison) == 3
        and all({"n", "block", "hard", "soft"} == set(row) for row in rep.comparison)
        and rep.passed  # the pass flag reflects the slope gate only
    )
    lines = "; ".join(
        f"n={row['n']}: block {row['block']:.4g}, hard {row['hard']:.4g}, "
        f"soft {row['soft']:.4g}"
        for row in rep.comparison
    )
    report("criterion 9 (descriptive comparison, ungated)", ok, lines)
    assert ok

"""Block geometry, empirical coefficients, and the thresholding rules."""

import math
import tracemalloc
import warnings
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockshrink import (
    BlockGrid,
    Sample,
    block_grid,
    block_statistic,
    block_statistics,
    blockshrink,
    empirical_coefficients,
    exact_coefficients,
    generate_sample,
    linear_tilt_design,
    make_test_function,
    midpoint_grid,
    piecewise_design,
    synthesize,
    threshold_tree,
    uniform_design,
)
from blockshrink.basis import CoefficientTree, _coefficient_tree
from blockshrink.estimator import _canonical_order, _weights
from oracles import direct_sums, periodized

# Largest |pyramid - direct sums| per unit of sum_i |w_i| that the oracle
# property allows.  Haar's pyramid and direct sums differ only by rounding.
# The db4/db6 direct sums read linearly interpolated cascade tables, which
# obey the two-scale relation only up to the interpolation error; over 1050
# seeded samples at n = 2^8..2^16 the gap stayed below 2.3e-4 (db4) and
# 1.7e-6 (db6) times sum |w| (about 1 here), at least 100 times below n^-1/2.
_PYRAMID_TOL = {"haar": 1e-14, "db4": 1e-3, "db6": 1e-5}
_DESIGNS = {
    "uniform": uniform_design(),
    "tilt": linear_tilt_design(1.5),
    "piecewise": piecewise_design([0.25, 0.75], [0.5, 1.5, 0.5]),
}


def decimal_block_geometry(n: int, p: float):
    """Independent high-precision evaluation of the block-size/level floors."""
    getcontext().prec = 50
    ln_n = Decimal(n).ln()
    ln2 = Decimal(2).ln()
    half_p = Decimal(str(p)) / 2
    block = int((ln_n ** half_p).to_integral_value(rounding="ROUND_FLOOR"))
    j_low = int((half_p * ln_n.ln() / ln2).to_integral_value(rounding="ROUND_FLOOR"))
    j_high = int(
        ((Decimal(n) / ln_n).ln() / ln2 / 2).to_integral_value(rounding="ROUND_FLOOR")
    )
    return block, j_low, j_high


class TestBlockGrid:
    def test_worked_example_n1024_p2(self):
        g = block_grid(1024, 2.0, 0)
        assert (g.block_size, g.j_low, g.j_high) == (6, 2, 3)
        assert g.boundaries(3).tolist() == [0, 6, 8]

    def test_worked_example_n1024_p4_clamps(self):
        # the clamp is recorded on the grid, never warned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = block_grid(1024, 4.0, 0)
        assert g.block_size == 48
        assert (g.j_low, g.j_high) == (3, 3)
        assert g.clamped

    def test_worked_example_n_two_twenty(self):
        g = block_grid(1 << 20, 2.0, 0)
        assert g.block_size == 13
        assert g.j_high == 8

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_floors_match_high_precision_oracle(self, p):
        rng = np.random.default_rng(100)
        for n in rng.integers(16, 1 << 20, size=200):
            n = int(n)
            block, j_low, j_high = decimal_block_geometry(n, p)
            g = block_grid(n, p, 0)
            assert g.block_size == block
            assert g.j_high == j_high
            assert g.j_low == max(min(j_low, j_high), 0)

    def test_partition_covers_level(self):
        g = block_grid(4096, 2.0, 0)
        for j in g.levels():
            edges = g.boundaries(j)
            sizes = np.diff(edges)
            assert sizes.sum() == 1 << j
            assert np.all(sizes[:-1] == g.block_size)
            assert 0 < sizes[-1] <= g.block_size

    def test_clamp_to_coarsest_level(self):
        g = block_grid(1024, 2.0, 3)
        assert g.j_low == 3

    def test_n_too_small_for_basis(self):
        with pytest.raises(ValueError, match="too small for this basis"):
            block_grid(16, 2.0, 2)

    @pytest.mark.parametrize("n,p_max", [(1024, 45.0), (1 << 20, 33.0)])
    def test_block_size_past_int64_is_rejected(self, n, p_max):
        # the block edges are int64: the largest p that fits builds its edges,
        # the next integer p is out of range like a float overflow
        g = block_grid(n, p_max, 0)
        assert g.block_size < 2**63 and g.boundaries(g.j_high)[-1] == 1 << g.j_high
        with pytest.raises(ValueError, match=rf"p={p_max + 1} out of range: block size"):
            block_grid(n, p_max + 1, 0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            block_grid(8, 2.0, 0)
        with pytest.raises(ValueError):
            block_grid(1024, 1.5, 0)


class TestBlockStatistic:
    def test_two_elements(self):
        assert block_statistic([3.0, 4.0], 2.0) == pytest.approx(math.sqrt(12.5))

    def test_zeros(self):
        assert block_statistic([0.0, 0.0, 0.0], 3.7) == 0.0

    def test_singleton_is_abs(self):
        for p in (2.0, 2.5, 6.0):
            assert block_statistic([-1.3], p) == pytest.approx(1.3)

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            block_statistic([], 2.0)

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=30),
        st.floats(2.0, 8.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_scaling_and_bounds(self, coeffs, p):
        stat = block_statistic(coeffs, p)
        top = max(abs(c) for c in coeffs)
        assert 0.0 <= stat <= top + 1e-9
        doubled = block_statistic([2.0 * c for c in coeffs], p)
        assert doubled == pytest.approx(2.0 * stat, rel=1e-9, abs=1e-12)


class TestBlockStatistics:
    @pytest.mark.parametrize("shape", [(64,), (9, 64)], ids=["1-D", "R-by-2^j"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_oracle(self, shape, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(shape) * rng.uniform(0.1, 10.0)
        p = rng.uniform(2.0, 6.0)
        size = 2 * int(rng.integers(1, 15)) + 1  # odd, so the last block is short
        edges = np.append(np.arange(0, 64, size), 64)
        assert edges[-1] - edges[-2] < size
        stats = block_statistics(coeffs, edges, p)
        assert stats.shape == shape[:-1] + (len(edges) - 1,)
        rows = coeffs.reshape(-1, 64)
        for row, got in zip(rows, stats.reshape(len(rows), -1)):
            for b, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
                assert got[b] == pytest.approx(block_statistic(row[lo:hi], p), rel=1e-14)


class TestEmpiricalCoefficients:
    def test_single_point_sum(self, haar):
        s = Sample(n=1, x=np.array([0.25]), y=np.array([2.0]))
        grid = BlockGrid(n=1, p=2.0, block_size=1, j_low=0, j_high=0, clamped=False)
        tree = empirical_coefficients(s, uniform_design(), haar, grid)
        assert tree.detail(0)[0] == pytest.approx(2.0)
        assert tree.alpha[0] == pytest.approx(2.0)

    def test_unbiased_on_constant_signal(self, haar):
        # noiseless constant: detail estimates average to zero across reps
        density = uniform_design()
        grid = block_grid(256, 2.0, 0)
        total = np.zeros(1 << grid.j_low)
        sq = np.zeros_like(total)
        reps = 10_000
        for rep in range(reps):
            s = generate_sample(
                lambda x: np.ones_like(x), density, 256, seed=1_000 + rep, noiseless=True
            )
            level = empirical_coefficients(s, density, haar, grid).detail(grid.j_low)
            total += level
            sq += level**2
        mean = total / reps
        stderr = np.sqrt((sq / reps - mean**2) / reps)
        assert np.all(np.abs(mean) <= 3.0 * stderr)

    def test_matches_quadrature_on_tilted_design(self, haar):
        n = 100_000
        density = linear_tilt_design(0.5)
        sig = make_test_function("heavisine", haar, jmax=8)
        s = generate_sample(sig.fn, density, n, seed=20250801, noiseless=True)
        grid = block_grid(n, 2.0, 0)
        tree = empirical_coefficients(s, density, haar, grid)
        w = s.y / density.pdf(s.x)
        for j in range(grid.j_low, 5):
            for k in range(1 << j):
                terms = w * periodized(haar, "mother", j, k, s.x)
                stderr = terms.std(ddof=1) / math.sqrt(n)
                assert abs(tree.detail(j)[k] - sig.tree.detail(j)[k]) <= 3.0 * stderr

    def test_linear_in_y(self, haar):
        rng = np.random.default_rng(8)
        x = rng.random(512)
        y1 = rng.normal(size=512)
        y2 = rng.normal(size=512)
        grid = block_grid(512, 2.0, 0)
        density = uniform_design()
        t1 = empirical_coefficients(Sample(512, x, y1), density, haar, grid)
        t2 = empirical_coefficients(Sample(512, x, y2), density, haar, grid)
        t12 = empirical_coefficients(Sample(512, x, y1 + y2), density, haar, grid)
        assert np.allclose(t12.alpha, t1.alpha + t2.alpha, rtol=0, atol=1e-12)
        for j in grid.levels():
            assert np.allclose(
                t12.detail(j), t1.detail(j) + t2.detail(j), rtol=0, atol=1e-12
            )

    def test_permutation_bit_identical(self, haar, db4, db6):
        rng = np.random.default_rng(9)
        x = rng.random(2048)
        y = rng.normal(size=2048)
        perm = rng.permutation(2048)
        density = uniform_design()
        for basis in (haar, db4, db6):
            grid = block_grid(2048, 2.0, basis.coarsest_level)
            t1 = empirical_coefficients(Sample(2048, x, y), density, basis, grid)
            t2 = empirical_coefficients(Sample(2048, x[perm], y[perm]), density, basis, grid)
            assert np.array_equal(t1.alpha, t2.alpha)
            for j in grid.levels():
                assert np.array_equal(t1.detail(j), t2.detail(j))

    def test_permutation_bit_identical_with_ties(self, haar, db4, db6):
        # x on a 0.01 grid, so almost every x is tied, plus exact duplicate
        # (x, y) rows: an order by x alone would leave the tied y unordered
        rng = np.random.default_rng(11)
        n = 4096
        x = np.round(rng.random(n), 2)
        y = rng.normal(size=n)
        x[:64], y[:64] = x[64:128], y[64:128]
        perm = rng.permutation(n)
        density = uniform_design()
        for basis in (haar, db4, db6):
            grid = block_grid(n, 2.0, basis.coarsest_level)
            t1 = empirical_coefficients(Sample(n, x, y), density, basis, grid)
            t2 = empirical_coefficients(Sample(n, x[perm], y[perm]), density, basis, grid)
            assert np.array_equal(t1.alpha, t2.alpha)
            for j in grid.levels():
                assert np.array_equal(t1.detail(j), t2.detail(j))

    @pytest.mark.parametrize("tied", [False, True], ids=["distinct-x", "tied-x"])
    def test_canonical_order_is_lexsort(self, tied):
        rng = np.random.default_rng(12)
        x = rng.random(4096)
        y = rng.normal(size=4096)
        if tied:
            x = np.round(x, 2)
        order, xs = _canonical_order(x, y)
        assert np.array_equal(order, np.lexsort((y, x)))
        assert np.array_equal(xs, x[order])

    def test_density_escaping_bounds_detected(self, haar):
        class BrokenDensity:
            kind = "uniform"
            g_min = 1.0
            g_max = 1.0

            def pdf(self, x):
                return np.full_like(np.asarray(x, dtype=float), 0.5)

        s = generate_sample(lambda x: x, uniform_design(), 512, seed=1)
        grid = block_grid(512, 2.0, 0)
        with pytest.raises(RuntimeError, match="certified bounds"):
            empirical_coefficients(s, BrokenDensity(), haar, grid)

    @pytest.mark.parametrize("at", [0, 256, -1])
    def test_nan_g_escapes_its_bounds(self, at):
        density = piecewise_design([0.5], [0.6, 1.4])
        s = generate_sample(np.sin, density, 512, seed=2)
        g = s.g.copy()
        g[at] = np.nan
        with pytest.raises(RuntimeError, match="certified bounds"):
            _weights(s, g, density)

    @pytest.mark.parametrize("at", [0, 512, -1])
    def test_nan_design_point_never_reaches_the_sums(self, haar, at):
        """A NaN written into a checked sample's x stops at the density; the
        Haar sums once dropped the point with only a cast warning."""
        s = generate_sample(np.sin, uniform_design(), 1024, seed=6)
        s.x[at] = np.nan
        with pytest.raises(ValueError, match=r"density evaluated outside \[0, 1\]"):
            empirical_coefficients(s, uniform_design(), haar, block_grid(1024, 2.0, 0))

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_g_escaping_its_bounds_at_the_last_point(self, side):
        density = piecewise_design([0.5], [0.6, 1.4])
        s = generate_sample(np.sin, density, 512, seed=2)
        g = s.g.copy()
        assert np.array_equal(_weights(s, g, density), s.y / (g * 512))
        g[-1] = density.g_min - 2e-12 if side == "below" else density.g_max + 2e-12
        with pytest.raises(RuntimeError, match="certified bounds"):
            _weights(s, g, density)

    @given(
        family=st.sampled_from(sorted(_PYRAMID_TOL)),
        design=st.sampled_from(sorted(_DESIGNS)),
        log_n=st.integers(8, 16),
        seed=st.integers(0, 2**32 - 1),
        dyadic=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_pyramid_matches_direct_sums(self, haar, db4, db6, family, design, log_n, seed,
                                         dyadic):
        """The filter-bank tree against direct per-level sums; dyadic designs
        put points on the jumps of the Haar functions."""
        basis = {"haar": haar, "db4": db4, "db6": db6}[family]
        n = max(1 << log_n, 512)  # db6 needs n >= 512
        density = _DESIGNS[design]
        s = generate_sample(lambda x: np.sin(6 * x), density, n, seed)
        x = np.floor(s.x * 1024) / 1024 if dyadic else s.x
        w = s.y / (density.pdf(x) * n)
        grid = block_grid(n, 2.0, basis.coarsest_level)
        tree = _coefficient_tree(basis, grid.j_low, grid.j_high, x, w)
        atol = _PYRAMID_TOL[family] * np.abs(w).sum()
        np.testing.assert_allclose(
            tree.alpha, direct_sums(basis, "father", grid.j_low, x, w), rtol=0, atol=atol
        )
        for j in grid.levels():
            np.testing.assert_allclose(
                tree.detail(j), direct_sums(basis, "mother", j, x, w), rtol=0, atol=atol
            )

    @pytest.mark.parametrize("family", ["haar", "db4", "db6"])
    @pytest.mark.parametrize("x", [3 / 16, 11 / 32])
    def test_one_point_tree_equals_basis_values(self, request, family, x):
        """At a dyadic point every value the sums read is a table node, where
        the cascade tables obey the two-scale relation up to rounding; 3/16
        and 11/32 sit on the middle jump of a Haar wavelet at levels 3 and 4."""
        basis = request.getfixturevalue(family)
        grid = block_grid(4096, 2.0, basis.coarsest_level)
        tree = _coefficient_tree(basis, grid.j_low, grid.j_high, np.array([x]), [0.7])
        want = [0.7 * periodized(basis, "father", grid.j_low, k, x) for k in range(1 << grid.j_low)]
        np.testing.assert_allclose(tree.alpha, want, rtol=0, atol=1e-14)
        for j in grid.levels():
            want = [0.7 * periodized(basis, "mother", j, k, x) for k in range(1 << j)]
            np.testing.assert_allclose(tree.detail(j), want, rtol=0, atol=1e-14)

    def test_noiseless_consistency_rate(self, haar):
        # finite wavelet polynomial: coefficient RMS error shrinks ~ n^{-1/2}
        tf = make_test_function({"random_besov": {"s": 2, "pi": 2, "seed": 3}}, haar, jmax=3)
        density = uniform_design()
        ns = (512, 2048, 8192)
        rms = []
        for n in ns:
            grid = block_grid(n, 2.0, 0)
            errs = []
            for rep in range(40):
                s = generate_sample(tf.fn, density, n, seed=7_000 + rep, noiseless=True)
                tree = empirical_coefficients(s, density, haar, grid)
                j = grid.j_low
                errs.append(np.mean((tree.detail(j) - tf.tree.detail(j)) ** 2))
            rms.append(math.sqrt(np.mean(errs)))
        slope = np.polyfit(np.log(ns), np.log(rms), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)


class TestBlockShrink:
    def test_huge_threshold_kills_all_detail(self, haar):
        sig = make_test_function("heavisine", haar, jmax=8)
        s = generate_sample(sig.fn, uniform_design(), 1024, seed=42)
        est = blockshrink(s, uniform_design(), haar, 2.0, 1e9)
        assert all(np.all(b == 0.0) for b in est.tree.beta)
        assert all(not m.any() for m in est.kept)

    def test_zero_threshold_keeps_everything(self, haar):
        sig = make_test_function("heavisine", haar, jmax=8)
        s = generate_sample(sig.fn, uniform_design(), 1024, seed=42)
        est = blockshrink(s, uniform_design(), haar, 2.0, 0.0)
        raw = empirical_coefficients(s, uniform_design(), haar, est.grid)
        assert all(m.all() for m in est.kept)
        for j in est.grid.levels():
            assert np.array_equal(est.tree.detail(j), raw.detail(j))

    def test_kept_mask_matches_statistics(self, haar):
        sig = make_test_function("single-bump", haar, jmax=8)
        s = generate_sample(sig.fn, uniform_design(), 4096, seed=5)
        est = blockshrink(s, uniform_design(), haar, 2.0, 4.0)
        raw = empirical_coefficients(s, uniform_design(), haar, est.grid)
        cut = 4.0 / math.sqrt(4096)
        for j in est.grid.levels():
            edges = est.grid.boundaries(j)
            for b, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
                stat = block_statistic(raw.detail(j)[lo:hi], 2.0)
                assert est.statistics[j - est.grid.j_low][b] == pytest.approx(stat, rel=1e-14)
                assert est.kept[j - est.grid.j_low][b] == (stat >= cut)
                if not est.kept[j - est.grid.j_low][b]:
                    assert np.all(est.tree.detail(j)[lo:hi] == 0.0)

    def test_single_bump_block_selection(self, haar):
        """The dominant signal block survives; pure-noise blocks die."""
        density = uniform_design()
        sig = make_test_function("single-bump", haar, jmax=8)
        n = 4096
        grid = block_grid(n, 2.0, 0)
        cut = 4.0 / math.sqrt(n)
        # classify blocks by the quadrature-oracle statistics
        dominant, noise_blocks = None, []
        best = 0.0
        for j in grid.levels():
            edges = grid.boundaries(j)
            for b, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
                stat = block_statistic(sig.tree.detail(j)[lo:hi], 2.0)
                if stat > best:
                    best, dominant = stat, (j, b)
                if stat < cut / 4.0:
                    noise_blocks.append((j, b))
        assert best >= 2.0 * cut
        kept_dominant = 0
        noise_kept = 0
        reps = 100
        for rep in range(reps):
            s = generate_sample(sig.fn, density, n, seed=30_000 + rep)
            est = blockshrink(s, density, haar, 2.0, 4.0)
            kept_dominant += bool(est.kept[dominant[0] - grid.j_low][dominant[1]])
            noise_kept += sum(bool(est.kept[j - grid.j_low][b]) for j, b in noise_blocks)
        assert kept_dominant == reps
        assert noise_kept <= 0.10 * reps * len(noise_blocks)

    @pytest.mark.parametrize("family", ["db4", "db6"])
    def test_working_set(self, request, family):
        """On a 2^16-point sample the fit holds at most about nine n-length
        arrays at once, the sample included: the scaling terms are added one
        translate row at a time, and the sort permutation and the unsorted
        weights are freed before the sums."""
        basis = request.getfixturevalue(family)
        n = 1 << 16
        rng = np.random.default_rng(8)
        x = rng.random(n)
        sample = Sample(n, x, np.sin(6.0 * x) + rng.standard_normal(n))
        blockshrink(sample, uniform_design(), basis)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            blockshrink(sample, uniform_design(), basis)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 8 * n

    def test_monotone_in_threshold(self, haar):
        sig = make_test_function("heavisine", haar, jmax=8)
        s = generate_sample(sig.fn, uniform_design(), 2048, seed=17)
        loose = blockshrink(s, uniform_design(), haar, 2.0, 1.0)
        tight = blockshrink(s, uniform_design(), haar, 2.0, 3.0)
        for m_loose, m_tight in zip(loose.kept, tight.kept):
            assert np.all(m_loose | ~m_tight == m_loose)  # tight-kept subset of loose-kept


def _term_estimate(sample, basis, mode, c):
    """Term-by-term thresholding of the sample's tree under the uniform design."""
    grid = block_grid(sample.n, 2.0, basis.coarsest_level)
    return threshold_tree(empirical_coefficients(sample, uniform_design(), basis, grid),
                          grid, mode, c)


class TestTermThreshold:
    def test_all_below_gives_projection(self, haar):
        sig = make_test_function("constant", haar, jmax=8)
        s = generate_sample(sig.fn, uniform_design(), 1024, seed=2)
        est = _term_estimate(s, haar, "hard", 50.0)
        assert all(np.all(b == 0.0) for b in est.tree.beta)

    def test_soft_shifts_by_threshold(self, haar):
        sig = make_test_function("heavisine", haar, jmax=8)
        s = generate_sample(sig.fn, uniform_design(), 1024, seed=2)
        c = 1.0
        cut = c * math.sqrt(math.log(1024) / 1024)
        raw = empirical_coefficients(
            s, uniform_design(), haar, block_grid(1024, 2.0, 0)
        )
        est = _term_estimate(s, haar, "soft", c)
        for j in est.grid.levels():
            expected = np.sign(raw.detail(j)) * np.maximum(np.abs(raw.detail(j)) - cut, 0.0)
            assert np.allclose(est.tree.detail(j), expected, atol=1e-15)

    def test_hard_dominates_soft(self, haar):
        sig = make_test_function("heavisine", haar, jmax=8)
        s = generate_sample(sig.fn, uniform_design(), 2048, seed=13)
        hard = _term_estimate(s, haar, "hard", 1.0)
        soft = _term_estimate(s, haar, "soft", 1.0)
        for j in hard.grid.levels():
            hz = hard.tree.detail(j) != 0.0
            sz = soft.tree.detail(j) != 0.0
            assert np.all(hz | ~sz)  # soft-nonzero is a subset of hard-kept
            assert np.all(np.abs(hard.tree.detail(j)) >= np.abs(soft.tree.detail(j)) - 1e-15)

    def test_mode_validation(self, haar):
        sig = make_test_function("constant", haar, jmax=8)
        s = generate_sample(sig.fn, uniform_design(), 1024, seed=2)
        with pytest.raises(ValueError, match="rule must be 'block', 'hard' or 'soft'"):
            _term_estimate(s, haar, "firm", 1.0)


class TestStackedThreshold:
    @pytest.mark.parametrize("family", ["haar", "db4", "db6"])
    @pytest.mark.parametrize("rule,constant", [("block", 4.0), ("hard", 2.0), ("soft", 2.0)])
    def test_rows_equal_the_rule_applied_row_by_row(self, request, family, rule, constant):
        """threshold_tree on a stack of replication trees gives, row by row,
        the tree, kept masks and statistics of each tree thresholded alone."""
        basis = request.getfixturevalue(family)
        sig = make_test_function("doppler", basis, jmax=8)
        grid = block_grid(4096, 2.0, basis.coarsest_level)
        trees = [
            empirical_coefficients(generate_sample(sig.fn, uniform_design(), 4096, seed),
                                   uniform_design(), basis, grid)
            for seed in range(5)
        ]
        stack = CoefficientTree(grid.j_low, grid.j_high, np.stack([t.alpha for t in trees]),
                                [np.stack(level) for level in zip(*(t.beta for t in trees))])
        est = threshold_tree(stack, grid, rule, constant)
        for i, tree in enumerate(trees):
            alone = threshold_tree(tree, grid, rule, constant)
            assert est.cut == alone.cut
            for got, want in zip([est.tree.alpha[i], *(b[i] for b in est.tree.beta),
                                  *(k[i] for k in est.kept), *(s[i] for s in est.statistics)],
                                 [alone.tree.alpha, *alone.tree.beta, *alone.kept,
                                  *alone.statistics], strict=True):
                assert np.array_equal(got, want)
        kept = sum(int(k.sum()) for k in est.kept)
        assert 0 < kept < sum(k.size for k in est.kept)


class TestStructuralSweep:
    def test_randomized_invariants(self, haar):
        """Randomized sweep: partition coverage, linearity, monotonicity in d,
        and the degenerate thresholds, on independently drawn cases."""
        rng = np.random.default_rng(2024)
        density = uniform_design()
        checked = 0
        for _ in range(50):
            n = int(rng.integers(256, 4096))
            p = float(rng.choice([2.0, 2.5, 3.0, 4.0]))
            x = rng.random(n)
            y = rng.normal(size=n) + np.sin(2 * np.pi * x * rng.integers(1, 4))
            s = Sample(n, x, y)
            grid = block_grid(n, p, 0)
            for j in grid.levels():
                sizes = np.diff(grid.boundaries(j))
                assert sizes.sum() == 1 << j and np.all(sizes > 0)
                checked += 1
            d1, d2 = sorted(rng.uniform(0.0, 6.0, size=2))
            loose = blockshrink(s, density, haar, p, d1)
            tight = blockshrink(s, density, haar, p, d2)
            for ml, mt in zip(loose.kept, tight.kept):
                assert np.all(ml | ~mt)
                checked += 1
            scale = float(rng.uniform(0.5, 2.0))
            t1 = empirical_coefficients(s, density, haar, grid)
            t2 = empirical_coefficients(Sample(n, x, scale * y), density, haar, grid)
            assert np.allclose(t2.alpha, scale * t1.alpha, rtol=1e-12, atol=1e-14)
            checked += 1
            est0 = blockshrink(s, density, haar, p, 0.0)
            assert all(m.all() for m in est0.kept)
            est_inf = blockshrink(s, density, haar, p, 1e9)
            assert all(not m.any() for m in est_inf.kept)
            checked += 2
        assert checked >= 200


class TestMetamorphic:
    """Relations that follow from the definition of BlockShrink, on one sample."""

    @staticmethod
    def _sample(n=2048, seed=8):
        rng = np.random.default_rng(seed)
        x = _DESIGNS["tilt"].draw(rng.random(n))[0]
        return Sample(n, x, np.sin(6 * x) + rng.normal(size=n))

    @pytest.mark.parametrize("family", ["haar", "db4", "db6"])
    def test_coefficients_linear_in_y(self, request, family):
        basis = request.getfixturevalue(family)
        s = self._sample()
        other = np.random.default_rng(9).normal(size=s.n)
        grid = block_grid(s.n, 2.0, basis.coarsest_level)
        density = _DESIGNS["tilt"]

        def tree(y):
            return empirical_coefficients(Sample(s.n, s.x, y), density, basis, grid)

        t1, t2, mixed = tree(s.y), tree(other), tree(0.7 * s.y - 1.3 * other)
        for a, b, m in zip([t1.alpha, *t1.beta], [t2.alpha, *t2.beta],
                           [mixed.alpha, *mixed.beta]):
            np.testing.assert_allclose(m, 0.7 * a - 1.3 * b, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("family", ["haar", "db4", "db6"])
    def test_zero_threshold_is_linear_projection(self, request, family):
        """With d = 0 every block is kept, so the estimate is the linear
        projection on levels j_low..j_high, which spans the scaling space of
        level j_high + 1: the series of the scaling sums there."""
        basis = request.getfixturevalue(family)
        s = self._sample()
        density = _DESIGNS["tilt"]
        est = blockshrink(s, density, basis, 2.0, 0.0)
        assert all(m.all() for m in est.kept)
        top = est.grid.j_high + 1
        w = s.y / (density.pdf(s.x) * s.n)
        projection = CoefficientTree(top, top - 1, direct_sums(basis, "father", top, s.x, w), [])
        np.testing.assert_allclose(
            synthesize(basis, est.tree, 1 << 12), synthesize(basis, projection, 1 << 12),
            rtol=0, atol=1e-12,
        )

    @pytest.mark.parametrize("m,levels", [(2, [5]), (4, [4, 5]), (56, [3, 4, 5]), (62, [5])])
    def test_haar_cyclic_shift_rotates_each_level(self, haar, m, levels):
        """Under the uniform design, shifting every x cyclically by m / 2^(J+1),
        J = j_high, moves each point m cells over at level J + 1.  So level j
        (and the scaling level j_low with it) rotates by m / 2^(J+1-j) wherever
        that is a whole number: on ``levels``.  The points lie on a 2^-20
        grid, so the shift is exact and the coefficients match to the bit."""
        n = 1 << 14
        s = generate_sample(np.sin, uniform_design(), n, seed=23)
        x = np.floor(s.x * 2.0**20) / 2.0**20
        grid = block_grid(n, 2.0, haar.coarsest_level)
        top = grid.j_high + 1
        assert (grid.j_low, top) == (3, 6)
        tree = empirical_coefficients(Sample(n, x, s.y), uniform_design(), haar, grid)
        moved = empirical_coefficients(Sample(n, np.mod(x + m / 2.0**top, 1.0), s.y),
                                       uniform_design(), haar, grid)
        pairs = [(grid.j_low, tree.alpha, moved.alpha)]
        pairs += [(j, tree.detail(j), moved.detail(j)) for j in grid.levels()]
        for j, before, after in pairs:
            rotates = np.array_equal(after, np.roll(before, m >> (top - j)))
            assert rotates == (j in levels), j

    @pytest.mark.parametrize("family", ["haar", "db4", "db6"])
    def test_kept_set_shrinks_as_d_grows(self, request, family):
        basis = request.getfixturevalue(family)
        s = self._sample()
        density = _DESIGNS["tilt"]
        ests = [blockshrink(s, density, basis, 2.0, d) for d in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
        counts = [sum(int(m.sum()) for m in est.kept) for est in ests]
        assert counts[0] > counts[-1]
        for loose, tight in zip(ests, ests[1:]):
            for ml, mt, bl, bt in zip(loose.kept, tight.kept, loose.tree.beta, tight.tree.beta):
                assert np.all(ml | ~mt)
                assert np.all((bt == bl) | (bt == 0.0))

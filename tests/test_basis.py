"""Wavelet basis construction, evaluation, quadrature and synthesis."""

import math

import numpy as np
import pytest

from blockshrink import (
    CoefficientTree,
    concentration_ratio,
    evaluate_tree,
    exact_coefficients,
    make_basis,
    make_test_function,
    midpoint_grid,
    synthesize,
)
from blockshrink.basis import _level_terms
from oracles import direct_coefficients, direct_evaluate

SQRT2 = math.sqrt(2.0)


class TestMakeBasis:
    def test_haar_closed_form(self, haar):
        assert np.allclose(haar.lowpass, [1 / SQRT2, 1 / SQRT2])
        assert haar.support_length == 1
        assert haar.coarsest_level == 0
        # the tables written by `blockshrink basis` follow the same jump convention
        t = haar.table_grid()
        assert np.array_equal(haar.phi_table, haar.base("father", t))
        assert np.array_equal(haar.psi_table, haar.base("mother", t))

    def test_db4_filter_sums_to_sqrt2(self, db4):
        assert len(db4.lowpass) == 4
        assert abs(db4.lowpass.sum() - SQRT2) <= 1e-12
        assert db4.support_length == 3
        assert db4.coarsest_level == 2

    def test_db6_filter_sums_to_sqrt2(self, db6):
        assert len(db6.lowpass) == 6
        assert abs(db6.lowpass.sum() - SQRT2) <= 1e-12
        assert db6.coarsest_level == 3

    @pytest.mark.parametrize("family", ["haar", "db4", "db6"])
    def test_filter_sum_rule_and_unit_norm(self, request, family):
        """sum h_even = sum h_odd (the highpass filter kills constants) and
        sum h^2 = 1 (orthonormal translates), both to rounding."""
        h = request.getfixturevalue(family).lowpass
        assert abs(h[::2].sum() - h[1::2].sum()) <= 1e-15
        assert abs(np.dot(h, h) - 1.0) <= 1e-15

    def test_db4_refinement_fixed_point(self, db4):
        # phi(x) = sqrt(2) sum_k h_k phi(2x - k) checked on the half grid,
        # where 2x lands exactly on table nodes.
        depth = db4.refine_depth
        table = db4.phi_table
        half = table[:: 2]
        xs = np.arange(len(half)) / (1 << (depth - 1))
        recon = np.zeros_like(half)
        for k, hk in enumerate(db4.lowpass):
            recon += SQRT2 * hk * db4.base("father", 2.0 * xs - k)
        assert np.max(np.abs(recon - half)) < 1e-6

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown wavelet family"):
            make_basis("meyer", 12)

    def test_degenerate_depth(self):
        with pytest.raises(ValueError, match="refine_depth"):
            make_basis("haar", 2)

    @pytest.mark.parametrize("family,floor", [("haar", 8), ("db4", 12), ("db6", 10)])
    def test_depth_floor_per_family(self, family, floor):
        """The shallowest depth whose tables pass the orthonormality check
        builds; one level shallower is refused naming refine_depth."""
        assert make_basis(family, floor).refine_depth == floor
        with pytest.raises(ValueError, match=f"refine_depth={floor - 1} out of range for"):
            make_basis(family, floor - 1)

    def test_depth_capped(self):
        # the cascade table holds about 3 * 2^depth doubles
        with pytest.raises(ValueError, match="refine_depth=21"):
            make_basis("haar", 21)

    def test_tabulated_integrals(self, db4, db6):
        for b in (db4, db6):
            step = 0.5**b.refine_depth
            tol = 2.0 ** (-b.refine_depth / 2)
            assert abs(np.trapezoid(b.phi_table, dx=step) - 1.0) < tol
            assert abs(np.trapezoid(b.psi_table, dx=step)) < tol


class TestEval:
    def test_haar_mother_positive_lobe(self, haar):
        assert haar.eval("mother", 1, 0, 0.125) == pytest.approx(SQRT2, abs=1e-15)
        # psi(t) = phi(2t) - phi(2t - 1): the jump at t = 1/2 takes the lower value
        assert haar.eval("mother", 1, 0, 0.25) == pytest.approx(-SQRT2, abs=1e-15)

    def test_haar_mother_outside_support(self, haar):
        assert haar.eval("mother", 1, 0, 0.75) == 0.0

    def test_haar_father_partition(self, haar):
        # disjoint supports: exactly one translate is active at each point
        x = midpoint_grid(256)
        total = sum(haar.eval("father", 3, k, x) for k in range(8))
        assert np.allclose(total, 2.0**1.5)

    def test_db4_matches_deeper_table(self, db4):
        fine = make_basis("db4", db4.refine_depth + 2)
        tau = db4.coarsest_level
        x = np.linspace(0.0, 1.0, 257)
        a = db4.eval("father", tau, 0, x)
        b = fine.eval("father", tau, 0, x)
        assert np.max(np.abs(a - b)) < 2.0**-db4.refine_depth

    def test_periodization_wraps(self, haar):
        # the translate overlapping 1 reappears at 0
        assert haar.eval("father", 0, 0, 0.0) == haar.eval("father", 0, 0, 1.0)

    def test_translate_out_of_range(self, haar):
        with pytest.raises(ValueError, match="out of range"):
            haar.eval("mother", 2, 4, 0.5)

    def test_level_below_coarsest(self, db4):
        with pytest.raises(ValueError, match="coarsest"):
            db4.eval("mother", 1, 0, 0.5)


class TestLevelTerms:
    @pytest.mark.parametrize("family", ["haar", "db4", "db6"])
    def test_matches_direct_base_evaluation(self, request, family):
        """Rows 0..s-1 equal 2^{j/2} base(t - k0 + m); the dropped row s is zero.

        The oracle rounds t - k0 + m to the precision of m before reading the
        table, which moves a value by up to the table's slope times 2^-50
        (4.7e-14 for db4 here), so the unscaled values agree within 1e-13.
        """
        basis = request.getfixturevalue(family)
        s = basis.support_length
        rng = np.random.default_rng(11)
        # random points with full mantissas, dyadic nodes, and both ends
        x = np.concatenate([rng.random(4096) / 3.0, np.arange(1 << 10) / (1 << 10), [0.0, 1.0]])
        for kind in ("father", "mother"):
            for j in range(basis.coarsest_level, 9):
                t = np.ldexp(x, j)
                k0 = np.floor(t).astype(np.int64)
                oracle = np.stack([basis.base(kind, t - k0 + m) for m in range(s + 1)])
                assert np.all(oracle[s] == 0.0)
                idx, val = _level_terms(basis, kind, j, x)
                assert val.shape == idx.shape == (s, x.size)
                np.testing.assert_allclose(val / 2.0 ** (j / 2.0), oracle[:s], rtol=0, atol=1e-13)
                np.testing.assert_array_equal(idx, (k0 - np.arange(s)[:, None]) % (1 << j))


class TestConcentration:
    def test_haar_is_exactly_one(self, haar):
        for m in (1.0, 2.0, 4.0):
            assert concentration_ratio(haar, 5, m, 4096) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1.0, 2.0, 4.0])
    def test_db4_bounded_and_level_stable(self, db4, m):
        peak = np.max(np.abs(db4.psi_table))
        cap = (db4.support_length + 1) * peak**m
        vals = [concentration_ratio(db4, j, m, 1 << (j + 7)) for j in range(2, 11)]
        assert all(v <= cap for v in vals)
        assert max(vals) / min(vals) < 1.05

    def test_db4_dense_grid_oracle(self, db4):
        # refining the grid can only raise the observed max, and not by much
        coarse = concentration_ratio(db4, 6, 2.0, 1 << 11)
        dense = concentration_ratio(db4, 6, 2.0, 1 << 13)
        assert coarse <= dense <= 1.05 * coarse

    def test_grid_too_coarse(self, haar):
        with pytest.raises(ValueError, match="too coarse"):
            concentration_ratio(haar, 5, 2.0, 256)


class TestExactCoefficients:
    def test_constant_function(self, haar):
        tree = exact_coefficients(haar, np.ones(1 << 14), 0, 5)
        assert tree.alpha[0] == pytest.approx(1.0, abs=1e-10)
        assert max(np.abs(b).max() for b in tree.beta) < 1e-10

    def test_single_atom_orthonormality(self, haar):
        x = midpoint_grid(1 << 14)
        tree = exact_coefficients(haar, haar.eval("mother", 3, 5, x), 0, 5)
        assert tree.detail(3)[5] == pytest.approx(1.0, abs=1e-8)
        rest = np.abs(tree.alpha).max()
        for j in range(0, 6):
            level = tree.detail(j).copy()
            if j == 3:
                level[5] = 0.0
            rest = max(rest, np.abs(level).max())
        assert rest < 1e-8

    def test_doppler_richardson(self, haar):
        # doppler oscillates hard near the left edge; the base grid must be
        # well past the precondition minimum before doubling stops moving
        # the level-8 coefficients
        sig = make_test_function("doppler", haar, jmax=8)
        coarse = exact_coefficients(haar, sig.fn(midpoint_grid(1 << 16)), 0, 8)
        fine = exact_coefficients(haar, sig.fn(midpoint_grid(1 << 17)), 0, 8)
        err = np.abs(coarse.alpha - fine.alpha).max()
        for a, b in zip(coarse.beta, fine.beta):
            err = max(err, np.abs(a - b).max())
        assert err < 1e-6

    def test_grid_too_coarse(self, haar):
        with pytest.raises(ValueError, match="cannot resolve"):
            exact_coefficients(haar, np.ones(1 << 10), 0, 8)

    @pytest.mark.parametrize("name", ["heavisine", "doppler"])
    @pytest.mark.parametrize("family,tol", [("haar", 1e-14), ("db4", 5e-7), ("db6", 1e-14)])
    def test_matches_direct_truth(self, request, family, tol, name):
        """The filter-bank truth against level-by-level mother sums.  Haar and
        db6 agree to rounding; the db4 direct sums read the level-2 tables
        between nodes (4x on a 2^14 grid), where linear interpolation errs by
        up to about 2e-7, while the filter bank reads nodes only."""
        basis = request.getfixturevalue(family)
        values = make_test_function(name, basis, jmax=8).fn(midpoint_grid(1 << 14))
        j0 = basis.coarsest_level
        fast = exact_coefficients(basis, values, j0, 8)
        direct = direct_coefficients(basis, values, j0, 8)
        np.testing.assert_allclose(fast.alpha, direct.alpha, rtol=0, atol=tol)
        for a, b in zip(fast.beta, direct.beta):
            np.testing.assert_allclose(a, b, rtol=0, atol=tol)


class TestCoefficientTree:
    @staticmethod
    def _tree():
        rng = np.random.default_rng(4)
        return CoefficientTree(2, 4, rng.normal(size=4), [rng.normal(size=1 << j)
                                                          for j in (2, 3, 4)])

    def test_copy_is_independent_of_its_source(self):
        tree = self._tree()
        before = [tree.alpha.copy(), *(b.copy() for b in tree.beta)]
        copy = tree.copy()
        assert isinstance(copy, CoefficientTree) and (copy.j0, copy.jmax) == (2, 4)
        for got, want in zip([copy.alpha, *copy.beta], before):
            assert np.array_equal(got, want)
        copy.alpha[:] = 0.0
        copy.detail(3)[1] = np.nan
        copy.beta.append(np.zeros(32))
        for got, want in zip([tree.alpha, *tree.beta], before, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("edit,message", [
        (lambda a, beta: (a[:2], beta), "alpha must hold 4 values"),
        (lambda a, beta: (a, beta[:2]), "one array per level"),
        (lambda a, beta: (a, [beta[0], beta[1][:4], beta[2]]), "level 3 must hold 8 values"),
        (lambda a, beta: (np.where(np.arange(4) == 1, np.inf, a), beta), "finite"),
        (lambda a, beta: (a, [beta[0], beta[1], np.full(16, np.nan)]), "finite"),
    ], ids=["alpha-length", "level-count", "level-length", "alpha-inf", "beta-nan"])
    def test_construction_validates(self, edit, message):
        tree = self._tree()
        alpha, beta = edit(tree.alpha, tree.beta)
        with pytest.raises(ValueError, match=message):
            CoefficientTree(2, 4, alpha, beta)


class TestSynthesize:
    def test_constant_tree(self, haar):
        tree = CoefficientTree(0, -1, np.array([1.0]), [])
        assert np.allclose(synthesize(haar, tree, 2048), 1.0)

    def test_single_atom_linearity(self, haar):
        tree = CoefficientTree(0, 2, np.zeros(1), [np.zeros(1), np.zeros(2), np.zeros(4)])
        tree.detail(2)[1] = 1.0
        x = midpoint_grid(2048)
        assert np.max(np.abs(synthesize(haar, tree, 2048) - haar.eval("mother", 2, 1, x))) < 1e-12

    def test_heavisine_projection_residual(self, haar):
        sig = make_test_function("heavisine", haar, jmax=8)
        x = midpoint_grid(1 << 14)
        resid = synthesize(haar, sig.tree, 1 << 14) - sig.fn(x)
        l2 = np.sqrt(np.mean(resid**2))
        fnorm = np.sqrt(np.mean(sig.fn(x) ** 2))
        assert l2 <= 0.1 * fnorm

    def test_grid_too_coarse(self, haar):
        tree = CoefficientTree(0, 8, np.zeros(1), [np.zeros(1 << j) for j in range(9)])
        with pytest.raises(ValueError, match="cannot resolve"):
            synthesize(haar, tree, 512)

    def test_grid_must_be_dyadic(self, haar):
        # Off a dyadic grid, midpoints can land on level-J Haar breakpoints.
        tree = CoefficientTree(0, 8, np.zeros(1), [np.zeros(1 << j) for j in range(9)])
        with pytest.raises(ValueError, match="grid_size=10000 must be a power of two"):
            synthesize(haar, tree, 10000)

    @pytest.mark.parametrize(
        "family,depth,gridexp,tol",
        [
            ("haar", 12, 11, 1e-12),
            ("haar", 12, 14, 1e-12),
            # Not depth 12: there the direct path interpolates the level-2
            # tables between nodes (off by about 2e-2); the filter bank
            # evaluates only on nodes.
            ("db4", 16, 14, 1e-12),
            # The db6 filter constants are orthonormal to about 5e-12 only.
            ("db6", 12, 14, 1e-9),
        ],
    )
    def test_filter_bank_matches_direct_evaluation(self, family, depth, gridexp, tol):
        basis = make_basis(family, depth)
        rng = np.random.default_rng(21)
        j0 = basis.coarsest_level
        tree = CoefficientTree(
            j0, 8, rng.normal(size=1 << j0),
            [rng.normal(size=1 << j) * 2.0**-j for j in range(j0, 9)],
        )
        grid = 1 << gridexp
        fast = synthesize(basis, tree, grid)
        direct = direct_evaluate(basis, tree, midpoint_grid(grid))
        assert np.max(np.abs(fast - direct)) <= tol
        coarse = CoefficientTree(j0, j0 - 1, tree.alpha, [])
        assert np.max(np.abs(
            synthesize(basis, coarse, grid) - direct_evaluate(basis, coarse, midpoint_grid(grid))
        )) <= tol


class TestEvaluateTree:
    @pytest.mark.parametrize("family", ["db4", "db6"])
    def test_lifted_closer_to_deep_table_than_direct(self, request, family):
        """At random points, the lifted depth-12 series is at least as close to
        a depth-16 level-by-level evaluation as the depth-12 level-by-level
        evaluation is: the top father level reads its table on a grid
        2^(jmax+1-j) times finer than level j's mother terms do."""
        basis = request.getfixturevalue(family)
        deep = make_basis(family, 16)
        tree = make_test_function(
            {"random_besov": {"s": 2, "pi": 2, "seed": 1}}, basis, jmax=8
        ).tree
        x = np.random.default_rng(5).random(4096)
        reference = direct_evaluate(deep, tree, x)
        lifted = np.max(np.abs(evaluate_tree(basis, tree, x) - reference))
        direct = np.max(np.abs(direct_evaluate(basis, tree, x) - reference))
        assert lifted <= direct

    @pytest.mark.parametrize("family", ["haar", "db4", "db6"])
    def test_matches_synthesize_on_the_grid(self, request, family):
        basis = request.getfixturevalue(family)
        tree = make_test_function(
            {"random_besov": {"s": 2, "pi": 2, "seed": 1}}, basis, jmax=8
        ).tree
        x = midpoint_grid(1 << 12)
        np.testing.assert_allclose(
            evaluate_tree(basis, tree, x), synthesize(basis, tree, 1 << 12), rtol=0, atol=1e-14
        )


class TestRoundTrip:
    def test_haar_random_trees(self, haar):
        rng = np.random.default_rng(11)
        for _ in range(3):
            t0 = CoefficientTree(
                0, 8, rng.normal(size=1), [rng.normal(size=1 << j) for j in range(9)]
            )
            t1 = exact_coefficients(haar, synthesize(haar, t0, 1 << 14), 0, 8)
            assert np.abs(t1.alpha - t0.alpha).max() < 1e-6
            for a, b in zip(t1.beta, t0.beta):
                assert np.abs(a - b).max() < 1e-6

    def test_db4_random_tree(self):
        basis = make_basis("db4", 16)
        rng = np.random.default_rng(12)
        t0 = CoefficientTree(
            2, 6, rng.normal(size=4), [rng.normal(size=1 << j) for j in range(2, 7)]
        )
        t1 = exact_coefficients(basis, synthesize(basis, t0, 1 << 20), 2, 6)
        assert np.abs(t1.alpha - t0.alpha).max() < 1e-6
        for a, b in zip(t1.beta, t0.beta):
            assert np.abs(a - b).max() < 1e-6

    def test_db4_full_depth_tree(self):
        basis = make_basis("db4", 16)
        rng = np.random.default_rng(13)
        t0 = CoefficientTree(
            2, 8, rng.normal(size=4), [rng.normal(size=1 << j) for j in range(2, 9)]
        )
        t1 = exact_coefficients(basis, synthesize(basis, t0, 1 << 22), 2, 8)
        assert np.abs(t1.alpha - t0.alpha).max() < 1e-6
        for a, b in zip(t1.beta, t0.beta):
            assert np.abs(a - b).max() < 1e-6


class TestOrthonormality:
    @pytest.mark.parametrize(
        "family,depth,gridexp,tol",
        [("haar", 12, 14, 1e-5), ("db4", 14, 18, 1e-5)],
    )
    def test_gram_identity_to_level_six(self, family, depth, gridexp, tol):
        basis = make_basis(family, depth)
        tau = basis.coarsest_level
        grid = 1 << gridexp
        x = midpoint_grid(grid)
        fns = [basis.eval("father", tau, k, x) for k in range(1 << tau)]
        for j in range(tau, 7):
            fns.extend(basis.eval("mother", j, k, x) for k in range(1 << j))
        mat = np.stack(fns)
        gram = mat @ mat.T / grid
        assert np.max(np.abs(gram - np.eye(len(fns)))) < tol

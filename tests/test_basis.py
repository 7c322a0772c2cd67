"""Wavelet basis construction, evaluation, quadrature and synthesis."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from blockshrink import (
    CoefficientTree,
    evaluate_tree,
    exact_coefficients,
    make_basis,
    make_test_function,
    midpoint_grid,
    synthesize,
)
from blockshrink import basis as basis_module
from blockshrink.basis import (_analysis, _first_cell, _forward_step, _gram_row, _grid_series,
                               _inverse_step, _level_rows, _lift, _row_buffers, _scaling_sums,
                               _validate_basis)
from oracles import (broadcast_step, direct_coefficients, direct_evaluate, direct_level_terms,
                     direct_sums, outer_series, periodized, stacked_concentration,
                     stacked_evaluate, stacked_rows)

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
        """The floor builds; one level shallower is refused naming
        refine_depth."""
        assert make_basis(family, floor).refine_depth == floor
        with pytest.raises(ValueError, match=f"refine_depth={floor - 1} out of range for"):
            make_basis(family, floor - 1)

    @pytest.mark.parametrize("family,floor", [("db4", 12), ("db6", 10)])
    def test_depth_floor_is_the_orthonormality_check(self, monkeypatch, family, floor):
        """The floors of db4 and db6 are where their tables start to pass the
        orthonormality check: one level shallower, built past the range
        check, misses the identity by more than 1e-6 (1.2e-6 and 3.3e-6)."""
        monkeypatch.setattr(basis_module, "check_refine_depth", lambda *args: None)
        make_basis(family, floor)
        with pytest.raises(ValueError, match="fails the orthonormality check"):
            make_basis(family, floor - 1)

    @pytest.mark.parametrize("depth", [3, 7])
    def test_haar_tables_pass_below_the_floor(self, monkeypatch, depth):
        """Haar's values are in closed form, so its tables pass both checks
        at any depth; its floor of 8 bounds only what `blockshrink basis`
        writes."""
        monkeypatch.setattr(basis_module, "check_refine_depth", lambda *args: None)
        assert make_basis("haar", depth).refine_depth == depth

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
    """The periodized translates that ``oracles.periodized`` reads off the
    tables, the direct evaluation the package's fast paths are checked by."""

    def test_haar_mother_positive_lobe(self, haar):
        assert periodized(haar, "mother", 1, 0, 0.125) == pytest.approx(SQRT2, abs=1e-15)
        # psi(t) = phi(2t) - phi(2t - 1): the jump at t = 1/2 takes the lower value
        assert periodized(haar, "mother", 1, 0, 0.25) == pytest.approx(-SQRT2, abs=1e-15)

    def test_haar_mother_outside_support(self, haar):
        assert periodized(haar, "mother", 1, 0, 0.75) == 0.0

    def test_haar_father_partition(self, haar):
        # disjoint supports: exactly one translate is active at each point
        x = midpoint_grid(256)
        total = sum(periodized(haar, "father", 3, k, x) for k in range(8))
        assert np.allclose(total, 2.0**1.5)

    def test_db4_matches_deeper_table(self, db4):
        fine = make_basis("db4", db4.refine_depth + 2)
        tau = db4.coarsest_level
        x = np.linspace(0.0, 1.0, 257)
        a = periodized(db4, "father", tau, 0, x)
        b = periodized(fine, "father", tau, 0, x)
        assert np.max(np.abs(a - b)) < 2.0**-db4.refine_depth

    def test_periodization_wraps(self, haar):
        # the translate overlapping 1 reappears at 0
        assert periodized(haar, "father", 0, 0, 0.0) == periodized(haar, "father", 0, 0, 1.0)


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
        for j in range(basis.coarsest_level, 9):
            t = np.ldexp(x, j)
            k0 = np.floor(t).astype(np.int64)
            oracle = np.stack([basis.base("father", t - k0 + m) for m in range(s + 1)])
            assert np.all(oracle[s] == 0.0)
            for m, (idx, val) in enumerate(_level_rows(basis, j, x)):
                assert val.shape == idx.shape == (x.size,)
                np.testing.assert_allclose(val / 2.0 ** (j / 2.0), oracle[m],
                                           rtol=0, atol=1e-13)
                np.testing.assert_array_equal(idx, (k0 - m) % (1 << j))
            assert m == s - 1

    @pytest.mark.parametrize("family", ["haar", "db4", "db6"])
    def test_out_receives_the_same_terms(self, request, family):
        """Written into given buffers, as ``_replicate`` reuses them, each
        translate row is, bit for bit, the row written into fresh buffers."""
        basis = request.getfixturevalue(family)
        x = np.random.default_rng(5).random(1000)
        out = list(np.full((_row_buffers(basis), x.size), np.nan))
        rows = zip(_level_rows(basis, 6, x), _level_rows(basis, 6, x, out))
        for m, ((idx, val), (got_idx, got_val)) in enumerate(rows):
            assert got_val is out[0] and np.shares_memory(got_idx, out[1])
            np.testing.assert_array_equal(got_idx, idx)
            np.testing.assert_array_equal(got_val, val)
        assert m == basis.support_length - 1

    @pytest.mark.parametrize("family", ["haar", "db4", "db6"])
    def test_x_may_be_the_first_buffer(self, request, family):
        """x read from the values' own buffer, as ``_replicate`` passes it,
        gives the rows of a separate x bit for bit."""
        basis = request.getfixturevalue(family)
        x = np.random.default_rng(6).random(1000)
        out = list(np.empty((_row_buffers(basis), x.size)))
        out[0][:] = x
        rows = zip(_level_rows(basis, 6, x), _level_rows(basis, 6, out[0], out))
        for (idx, val), (got_idx, got_val) in rows:
            np.testing.assert_array_equal(got_idx, idx)
            np.testing.assert_array_equal(got_val, val)

    @pytest.mark.parametrize("family", ["haar", "db4", "db6"])
    def test_equals_the_direct_terms_exactly(self, request, family):
        """One floor at the table's scale gives the translate, the cell and
        the weight that flooring at each scale gives: indices, values and the
        weighted sums are bit-identical to the oracle's."""
        basis = request.getfixturevalue(family)
        rng = np.random.default_rng(14)
        depth = basis.refine_depth
        for j in range(basis.coarsest_level, 11):
            cells = np.ldexp(rng.integers(0, 1 << (j + depth), 512), -(j + depth))
            x = np.concatenate([
                rng.random(2048),  # full mantissas
                cells,  # table nodes
                np.arange(1 << j) / (1 << j),  # dyadic cell edges of level j
                np.nextafter(np.arange(1, (1 << j) + 1) / (1 << j), 0.0),  # just below them
                [0.0, np.nextafter(1.0, 0.0), 1.0],
            ])
            w = rng.standard_normal(x.size)
            want_idx, want_val = direct_level_terms(basis, "father", j, x)
            for m, (idx, val) in enumerate(_level_rows(basis, j, x)):
                assert np.array_equal(idx, want_idx[m]) and np.array_equal(val, want_val[m])
            assert m == basis.support_length - 1
            assert np.array_equal(_scaling_sums(basis, j, x, w),
                                  direct_sums(basis, "father", j, x, w))


class TestConcentration:
    def test_haar_is_exactly_one(self, haar):
        for m in (1.0, 2.0, 4.0):
            assert stacked_concentration(haar, 5, m, 4096) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1.0, 2.0, 4.0])
    def test_db4_bounded_and_level_stable(self, db4, m):
        peak = np.max(np.abs(db4.psi_table))
        cap = (db4.support_length + 1) * peak**m
        vals = [stacked_concentration(db4, j, m, 1 << (j + 7)) for j in range(2, 11)]
        assert all(v <= cap for v in vals)
        assert max(vals) / min(vals) < 1.05

    def test_db4_dense_grid_oracle(self, db4):
        # refining the grid can only raise the observed max, and not by much
        coarse = stacked_concentration(db4, 6, 2.0, 1 << 11)
        dense = stacked_concentration(db4, 6, 2.0, 1 << 13)
        assert coarse <= dense <= 1.05 * coarse


class TestExactCoefficients:
    def test_constant_function(self, haar):
        tree = exact_coefficients(haar, np.ones(1 << 14), 0, 5)
        assert tree.alpha[0] == pytest.approx(1.0, abs=1e-10)
        assert max(np.abs(b).max() for b in tree.beta) < 1e-10

    def test_single_atom_orthonormality(self, haar):
        x = midpoint_grid(1 << 14)
        tree = exact_coefficients(haar, periodized(haar, "mother", 3, 5, x), 0, 5)
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
        (lambda a, beta: (np.where(np.arange(12).reshape(3, 4) == 6, np.nan, a), beta),
         "finite"),
        (lambda a, beta: (a, [beta[0], beta[1], np.zeros((3, 15))]),
         r"level 4 must hold 16 values per tree of the \(3,\) stack"),
        (lambda a, beta: (a[:2], beta), r"level 2 must hold 4 values per tree of the \(2,\) stack"),
    ], ids=["one-row-nan", "last-axis-length", "row-count"])
    def test_stack_construction_validates(self, edit, message):
        rng = np.random.default_rng(5)
        alpha, beta = edit(rng.normal(size=(3, 4)), [rng.normal(size=(3, 1 << j))
                                                     for j in (2, 3, 4)])
        with pytest.raises(ValueError, match=message):
            CoefficientTree(2, 4, alpha, beta)

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
        atom = periodized(haar, "mother", 2, 1, x)
        assert np.max(np.abs(synthesize(haar, tree, 2048) - atom)) < 1e-12

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


class TestGridSeries:
    @pytest.mark.parametrize("family", ["haar", "db4", "db6"])
    @pytest.mark.parametrize("top,grid", [(4, 1 << 10), (6, 1 << 14)])
    def test_equals_the_sum_of_outer_products_byte_for_byte(self, request, family, top, grid):
        """Written into a reused buffer, the series holds the same bytes as
        the sum of fresh outer products, the sign of every zero included."""
        basis = request.getfixturevalue(family)
        cell = _first_cell(basis, top, grid)
        rng = np.random.default_rng(top)
        out = np.full(grid, np.nan)
        for _ in range(3):
            alpha = rng.standard_normal(1 << top)
            alpha[::3] = -0.0
            alpha[1::5] = 0.0
            got = _grid_series(alpha, cell, out)
            assert got is out
            assert out.tobytes() == outer_series(alpha, cell).tobytes()
        assert not np.signbit(_grid_series(np.full(1 << top, -0.0), cell, out)).any()

    @pytest.mark.parametrize("family", ["haar", "db4", "db6"])
    @pytest.mark.parametrize("top,grid", [(4, 1 << 10), (6, 1 << 14)])
    def test_first_cell_is_the_stacked_rows(self, request, family, top, grid):
        """The first cell's values are copies of the father rows at its
        midpoints, one row per contributing translate."""
        basis = request.getfixturevalue(family)
        points = midpoint_grid(grid)[: grid >> top]
        want = stacked_rows(basis, top, points)[1]
        assert np.array_equal(_first_cell(basis, top, grid), want)


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
    @pytest.mark.parametrize("n", [1000, 1 << 14])
    def test_equals_the_stacked_einsum_exactly(self, request, family, n):
        """Adding one translate row at a time into zeros gives the bits of
        the einsum over the stacked rows."""
        basis = request.getfixturevalue(family)
        tree = make_test_function(
            {"random_besov": {"s": 2, "pi": 2, "seed": 1}}, basis, jmax=8
        ).tree
        x = np.concatenate([np.random.default_rng(n).random(n), midpoint_grid(1 << 10),
                            [0.0, np.nextafter(1.0, 0.0)]])
        got = evaluate_tree(basis, tree, x)
        want = stacked_evaluate(basis, tree, x)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("family", ["haar", "db4", "db6"])
    def test_takes_points_of_any_shape(self, request, family):
        """A scalar gives a scalar and an array its own shape, holding the
        values the flat points give."""
        basis = request.getfixturevalue(family)
        fn = make_test_function({"random_besov": {"s": 2, "pi": 2, "seed": 1}}, basis, jmax=8).fn
        x = np.random.default_rng(9).random(6)
        flat = fn(x)
        assert flat.shape == (6,)
        for i, point in enumerate(x.tolist()):
            got = fn(point)
            assert np.ndim(got) == 0 and got == flat[i]
        assert fn(x[:1]).shape == (1,) and fn(x[:1])[0] == flat[0]
        grid = fn(x.reshape(2, 3))
        assert grid.shape == (2, 3) and np.array_equal(grid, flat.reshape(2, 3))

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


@pytest.mark.parametrize("family", ["haar", "db4", "db6"])
class TestStackedFilterBank:
    """Each step on an (R, .) stack equals the same step applied row by row."""

    R = 7

    def test_forward_step(self, request, family):
        basis = request.getfixturevalue(family)
        rng = np.random.default_rng(30)
        for j in range(basis.coarsest_level, 9):
            stack = rng.normal(size=(self.R, 2 << j))
            alpha, beta = _forward_step(basis, stack)
            for row, a, b in zip(stack, alpha, beta):
                want_a, want_b = _forward_step(basis, row)
                assert np.array_equal(a, want_a) and np.array_equal(b, want_b)

    def test_forward_step_equals_the_broadcast_sum_byte_for_byte(self, request, family):
        """Adding one tap at a time from zero gives the bytes of the sum over
        the broadcast product of all taps, on stacks and on single rows, the
        sign of every zero included."""
        basis = request.getfixturevalue(family)
        rng = np.random.default_rng(33)
        for j in range(basis.coarsest_level, 9):
            stack = rng.normal(size=(self.R, 2 << j))
            stack[0] = 0.0
            stack[1] = -0.0
            stack[2, ::3] = -0.0
            stack[3] *= 10.0 ** rng.integers(-300, 300, 2 << j)
            for scaling in (stack, stack[None], *stack):
                for got, want in zip(_forward_step(basis, scaling), broadcast_step(basis, scaling),
                                     strict=True):
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_analysis_holds_at_most_two_and_a_half_stacks(self, request, family):
        """The analysis of an (R, 2^10) stack holds the tree (one stack), one
        gathered tap and its product at once: a traced peak of about two
        stacks beyond its input.  The broadcast product over all taps peaked
        at 4, 7 and 10 stacks for Haar, db4 and db6."""
        basis = request.getfixturevalue(family)
        stack = np.random.default_rng(34).normal(size=(256, 1 << 10))
        _analysis(basis, basis.coarsest_level, 9, stack)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _analysis(basis, basis.coarsest_level, 9, stack)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * stack.nbytes

    def test_inverse_step(self, request, family):
        basis = request.getfixturevalue(family)
        rng = np.random.default_rng(31)
        for j in range(basis.coarsest_level, 9):
            alpha, beta = rng.normal(size=(2, self.R, 1 << j))
            lifted = _inverse_step(basis, alpha, beta)
            for i in range(self.R):
                assert np.array_equal(lifted[i], _inverse_step(basis, alpha[i], beta[i]))

    def test_analysis_and_lift(self, request, family):
        basis = request.getfixturevalue(family)
        j0 = basis.coarsest_level
        stack = np.random.default_rng(32).normal(size=(self.R, 1 << 9))
        tree = _analysis(basis, j0, 8, stack)
        top, lifted = _lift(basis, tree)
        for i, row in enumerate(stack):
            alone = _analysis(basis, j0, 8, row)
            for got, want in zip([tree.alpha[i], *(b[i] for b in tree.beta)],
                                 [alone.alpha, *alone.beta], strict=True):
                assert np.array_equal(got, want)
            assert top == 9 and np.array_equal(lifted[i], _lift(basis, alone)[1])


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
        fns = [periodized(basis, "father", tau, k, x) for k in range(1 << tau)]
        for j in range(tau, 7):
            fns.extend(periodized(basis, "mother", j, k, x) for k in range(1 << j))
        mat = np.stack(fns)
        gram = mat @ mat.T / grid
        assert np.max(np.abs(gram - np.eye(len(fns)))) < tol

    @pytest.mark.parametrize("family", ["haar", "db4", "db6"])
    def test_gram_row_equals_the_dense_gram(self, request, family):
        """The fold of the first cell's products is the first row of the
        dense Phi Phi^T of the periodized translates on the whole grid, and
        Phi Phi^T is circulant, for every level up to 6 and grids of 2, 16
        and 4096 points per level-J cell."""
        basis = request.getfixturevalue(family)
        for j in range(basis.coarsest_level, 7):
            dim = 1 << j
            k = np.arange(dim)
            for per_cell in (2, 16, 4096):
                grid = per_cell * dim
                x = midpoint_grid(grid)
                dense = np.zeros((dim, dim))
                for lo in range(0, grid, 1 << 14):  # at most 8 MiB of values at once
                    mat = np.stack([periodized(basis, "father", j, t, x[lo:lo + (1 << 14)])
                                    for t in k])
                    dense += mat @ mat.T
                row = _gram_row(_first_cell(basis, j, grid), dim)
                np.testing.assert_allclose(row[(k - k[:, None]) % dim] / grid, dense / grid,
                                           rtol=0, atol=1e-15)

    def test_scaled_table_fails_only_the_orthonormality_check(self, db4):
        """A father table off by a factor 1 + 1e-5 keeps its integrals within
        the integral checks' 2^(-depth/2) but puts the Gram diagonal 2e-5
        away from 1."""
        scaled = replace(db4, phi_table=db4.phi_table * (1 + 1e-5))
        with pytest.raises(ValueError, match="fails the orthonormality check"):
            _validate_basis(scaled)

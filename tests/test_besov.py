"""Seminorms, rate-zone classification, and generated test functions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockshrink import (
    BesovBall,
    CoefficientTree,
    make_test_function,
    midpoint_grid,
    rate_spec,
)
from blockshrink import besov
from oracles import besov_seminorm

INF = math.inf


class TestRateSpec:
    def test_regular_zone_tuple(self):
        r = rate_spec(2, 2, 1, 2)
        assert r.epsilon == 4
        assert r.zone == "regular"
        assert r.alpha1 == Fraction(2, 5)
        assert r.risk_exponent == Fraction(-4, 5)
        assert r.log_exponent == 0  # p == pi: no extra log factor

    def test_sparse_zone_tuple(self):
        r = rate_spec(2, 1, 1, 6)
        assert r.epsilon == Fraction(-1, 2)
        assert r.zone == "sparse"
        assert r.alpha2 == Fraction(7, 18)
        assert r.risk_exponent == Fraction(-7, 3)
        assert r.log_exponent == Fraction(7, 3)

    def test_critical_zone_tuple(self):
        r = rate_spec(Fraction(5, 2), 1, 1, 6)
        assert r.epsilon == 0
        assert r.zone == "critical"
        assert r.log_exponent - r.alpha2 * 6 == 5  # the (p - pi/r)_+ surcharge

    def test_infinite_shape_is_regular(self):
        r = rate_spec(1, INF, INF, 2)
        assert r.zone == "regular"
        assert r.risk_exponent == Fraction(-2, 3)
        assert r.log_exponent == 0

    def test_infinite_shape_matches_large_finite_limit(self):
        # monotone limit oracle: huge finite pi classifies like pi = inf
        limit = rate_spec(1, 10**9, 10**9, 2)
        exact = rate_spec(1, INF, INF, 2)
        assert limit.zone == exact.zone == "regular"
        assert abs(float(limit.risk_exponent) - float(exact.risk_exponent)) < 1e-6

    def test_regular_log_factor_when_p_exceeds_pi(self):
        r = rate_spec(3, 2, 1, 4)  # eps = 6 + (2-4)/2 = 5 > 0, p > pi
        assert r.zone == "regular"
        assert r.log_exponent == r.alpha1 * 4

    def test_out_of_range_parameters(self):
        with pytest.raises(ValueError, match="s > 1/pi \\+ 1/2"):
            rate_spec(1, 1, 1, 2)
        with pytest.raises(ValueError, match="p="):
            rate_spec(2, 2, 1, 1.5)

    def test_zone_sweep_exact_rational(self):
        """1000 rational tuples: zone always matches the integer-arithmetic
        sign of epsilon, including constructed exactly-critical tuples."""
        rng = np.random.default_rng(77)
        cases = []
        while len(cases) < 800:
            s = Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 8)))
            pi = Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 4)))
            p = Fraction(int(rng.integers(4, 24)), 2)
            if pi >= 1 and p >= 2 and s > 1 / pi + Fraction(1, 2):
                cases.append((s, pi, p))
        while len(cases) < 1000:
            # engineered critical tuples: s = (p - pi)/(2 pi)
            pi = Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 3)))
            p = Fraction(int(rng.integers(4, 30)), 2)
            if pi < 1 or p < 2:
                continue
            s = (p - pi) / (2 * pi)
            if s > 1 / pi + Fraction(1, 2):
                cases.append((s, pi, p))
        assert len(cases) == 1000
        miscls = 0
        for s, pi, p in cases:
            r = rate_spec(s, pi, INF, p)
            # independent oracle: sign of epsilon = pi*s + (pi - p)/2 with all
            # denominators cleared, in pure integer arithmetic
            lhs = (
                2 * pi.numerator * s.numerator * p.denominator
                + (pi.numerator * p.denominator - p.numerator * pi.denominator)
                * s.denominator
            )
            sign = (lhs > 0) - (lhs < 0)
            expect = {1: "regular", 0: "critical", -1: "sparse"}[sign]
            if r.zone != expect:
                miscls += 1
        assert miscls == 0

    def test_ball_applicability_flag(self):
        assert BesovBall(2, 2, 1).theorem_applicable
        assert not BesovBall(1, 1, 1).theorem_applicable
        assert BesovBall(Fraction(3, 4), INF, INF).theorem_applicable


class TestSeminorm:
    def test_single_atom(self):
        tree = CoefficientTree(0, 3, np.zeros(1), [np.zeros(1), np.zeros(2), np.zeros(4), np.zeros(8)])
        tree.detail(3)[5] = 2.0
        assert besov_seminorm(tree, 1, 2, 1) == pytest.approx(16.0)

    def test_zero_tree(self):
        tree = CoefficientTree(0, 2, np.zeros(1), [np.zeros(1), np.zeros(2), np.zeros(4)])
        assert besov_seminorm(tree, 1.3, 2, 4) == 0.0

    def test_homogeneous_degree_one(self):
        rng = np.random.default_rng(5)
        tree = CoefficientTree(0, 4, rng.normal(size=1), [rng.normal(size=1 << j) for j in range(5)])
        base = besov_seminorm(tree, 0.8, 3, 2)
        scaled = tree.copy()
        scaled.alpha *= 2.5
        for b in scaled.beta:
            b *= 2.5
        assert besov_seminorm(scaled, 0.8, 3, 2) == pytest.approx(2.5 * base, rel=1e-12)

    @given(st.floats(0.2, 3.0), st.floats(1.0, 6.0), st.floats(1.0, 6.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_magnitudes(self, s, pi, r):
        rng = np.random.default_rng(11)
        tree = CoefficientTree(0, 3, rng.normal(size=1), [rng.normal(size=1 << j) for j in range(4)])
        grown = tree.copy()
        grown.detail(2)[1] = 2.0 * abs(grown.detail(2)[1]) + 1.0
        assert besov_seminorm(grown, s, pi, r) >= besov_seminorm(tree, s, pi, r)

    def test_heavisine_growth_at_too_high_smoothness(self, haar):
        """The jump coefficients scale like 2^{-j/2}, so the (0.9, inf, inf)
        seminorm grows like 2^{0.9 j} in the truncation level instead of
        stabilizing: heavisine does not live at Hoelder smoothness 0.9."""
        s10 = besov_seminorm(make_test_function("heavisine", haar, jmax=10).tree, 0.9, INF, INF)
        s12 = besov_seminorm(make_test_function("heavisine", haar, jmax=12).tree, 0.9, INF, INF)
        assert np.isfinite(s10) and np.isfinite(s12)
        assert 2.0 <= s12 / s10 <= 2.0**1.8 * 1.1

    def test_heavisine_stable_inside_its_ball(self, haar):
        # parameters the signal genuinely satisfies: truncation converges
        t10 = besov_seminorm(make_test_function("heavisine", haar, jmax=10).tree, 0.7, 1, 2)
        t12 = besov_seminorm(make_test_function("heavisine", haar, jmax=12).tree, 0.7, 1, 2)
        assert abs(t12 - t10) / t10 < 0.02


# Ball parameters of the radius tests: pi = 2, sup-type, and finite pi and r.
_RADIUS_SPECS = [{"s": 2, "pi": 2}, {"s": 1, "pi": "inf"}, {"s": 1.5, "pi": 3, "r": 2},
                 {"s": 2, "pi": 1, "r": 1}]
_RADIUS_IDS = ["s2-pi2", "s1-piinf", "s1.5-pi3-r2", "s2-pi1-r1"]


def _inv_pi(ball):
    return 0.0 if ball.pi == INF else float(1 / ball.pi)


def _level_magnitude(ball, j):
    """|coefficient| of a random_besov draw at u = 1 on level j."""
    s, inv_pi = float(ball.s), _inv_pi(ball)
    return 2.0 ** (-j * (s + 0.5 - inv_pi)) * 2.0 ** (-j * inv_pi)


def _hand_rolled_radius(ball, j0, jmax):
    """The radius in closed form per level: 2^{j(s + 1/2 - 1/pi)} times the
    level magnitude times dim^{1/pi}, combined by sup or by the l^r norm."""
    s, inv_pi = float(ball.s), _inv_pi(ball)
    terms = []
    for j in range(j0 - 1, jmax + 1):
        dim = 1 << max(j, j0)
        width = 1.0 if inv_pi == 0.0 else float(dim) ** inv_pi
        terms.append(2.0 ** (j * (s + 0.5 - inv_pi)) * _level_magnitude(ball, j) * width)
    terms = np.asarray(terms)
    if ball.r == INF:
        return float(terms.max())
    return float(np.sum(terms ** float(ball.r)) ** (1.0 / float(ball.r)))


class TestMakeTestFunction:
    def test_constant_tree(self, haar):
        tf = make_test_function("constant", haar, jmax=8)
        assert tf.tree.alpha[0] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(tf.fn(midpoint_grid(1 << 14)))) == pytest.approx(1.0)

    def test_doppler_normalized(self, haar):
        tf = make_test_function("doppler", haar, jmax=10)
        assert np.max(np.abs(tf.fn(midpoint_grid(1 << 16)))) <= 1.0 + 1e-12

    def test_unknown_name(self, haar):
        with pytest.raises(ValueError, match="unknown signal"):
            make_test_function("brownian", haar, jmax=8)

    def test_jmax_capped(self, haar):
        with pytest.raises(ValueError, match="jmax"):
            make_test_function("constant", haar, jmax=13)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_besov_membership(self, haar, seed):
        tf = make_test_function({"random_besov": {"s": 2, "pi": 2, "seed": seed}}, haar, jmax=10)
        value = besov_seminorm(tf.tree, 2, 2, INF)
        assert value <= _hand_rolled_radius(BesovBall(2, 2, INF), haar.coarsest_level, 10)

    def test_random_besov_finite_r_membership(self, haar):
        tf = make_test_function(
            {"random_besov": {"s": 1.5, "pi": 3, "r": 2, "seed": 4}}, haar, jmax=9
        )
        radius = _hand_rolled_radius(BesovBall(1.5, 3, 2), haar.coarsest_level, 9)
        assert besov_seminorm(tf.tree, 1.5, 3, 2) <= radius

    @pytest.mark.parametrize("family", ["haar", "db4"])
    @pytest.mark.parametrize("params", _RADIUS_SPECS, ids=_RADIUS_IDS)
    def test_random_besov_radius_is_the_seminorm_at_u_one(self, request, family, params):
        basis = request.getfixturevalue(family)
        jmax = 9
        tf = make_test_function({"random_besov": {**params, "seed": 3}}, basis, jmax=jmax)
        ball = BesovBall(params["s"], params["pi"], params.get("r", INF))
        # the tree every draw lies under: each coefficient at its level's magnitude
        j0 = basis.coarsest_level
        mags = [np.full(1 << max(j, j0), _level_magnitude(ball, j)) for j in range(j0 - 1, jmax + 1)]
        bound = CoefficientTree(j0, jmax, mags[0], mags[1:])
        for drawn, mag in zip([tf.tree.alpha, *tf.tree.beta], mags):
            assert np.all((0.5 * mag <= np.abs(drawn)) & (np.abs(drawn) <= mag))
        radius = besov_seminorm(bound, ball.s, ball.pi, ball.r)
        assert radius == pytest.approx(_hand_rolled_radius(ball, j0, jmax), rel=1e-14, abs=0)
        assert besov_seminorm(tf.tree, ball.s, ball.pi, ball.r) <= radius

    def test_random_besov_parses_its_ball_once(self, haar, monkeypatch):
        calls, parse = [], besov.ball_from_spec

        def counting(spec):
            calls.append(spec)
            return parse(spec)

        monkeypatch.setattr(besov, "ball_from_spec", counting)
        make_test_function({"random_besov": {"s": 2, "pi": 2, "seed": 1}}, haar, jmax=6)
        assert calls == [{"s": 2, "pi": 2}]

    def test_values_match_tree_synthesis(self, haar):
        tf = make_test_function({"random_besov": {"s": 2, "pi": 2, "seed": 1}}, haar, jmax=6)
        x = midpoint_grid(4096)
        from oracles import direct_evaluate

        assert np.allclose(tf.fn(x), direct_evaluate(haar, tf.tree, x))


# The named signals as expressions that allocate every temporary: the
# package computes each in place, in the same operations and order.
_FORMULAS = {
    "heavisine": lambda x: 4.0 * np.sin(4.0 * np.pi * x) - np.sign(x - 0.3) - np.sign(0.72 - x),
    "doppler": lambda x: np.sqrt(x * (1.0 - x)) * np.sin(2.0 * np.pi * (1.0 + 0.05) / (x + 0.05)),
    "blocks": lambda x: sum((h * (1.0 + np.sign(x - t)) / 2.0
                             for t, h in zip(besov._BLOCKS_T, besov._BLOCKS_H)),
                            np.zeros_like(x)),
    "bumps": lambda x: sum((h * (1.0 + np.abs((x - t) / w)) ** -4.0
                            for t, h, w in zip(besov._BLOCKS_T, besov._BUMPS_H, besov._BUMPS_W)),
                           np.zeros_like(x)),
    "single-bump": lambda x: 3.0 * np.exp(-((x - 0.4) ** 2) / (2.0 * 0.05**2)),
    "constant": np.ones_like,
    "zero": np.zeros_like,
}


class TestNamedSignals:
    @pytest.mark.parametrize("name", sorted(_FORMULAS))
    def test_in_place_signal_equals_its_formula(self, name):
        """Written into given buffers, each raw signal is, bit for bit, its
        formula; at sample points, midpoints, the edges and the jumps."""
        raw = besov._NORMALIZED.get(name) or besov._RAW[name]
        x = np.concatenate([np.random.default_rng(8).random(5000), midpoint_grid(4096),
                            [0.0, 0.3, 0.72, 1.0], besov._BLOCKS_T])
        got = raw(x, np.full((3, x.size), np.nan))
        assert np.array_equal(got, _FORMULAS[name](x))

    @pytest.mark.parametrize("name", ["heavisine", "doppler", "blocks", "bumps"])
    def test_blockwise_peak_is_the_whole_grid_peak(self, name):
        """The normalization constant that every output of a named signal
        depends on: the peak taken in blocks equals the peak of the whole
        2^16-point grid exactly."""
        raw = besov._NORMALIZED[name]
        x = midpoint_grid(2**16)
        assert besov._sup_norm(raw) == np.max(np.abs(raw(x, np.empty((3, x.size)))))
        assert besov._sup_norm(raw) == np.max(np.abs(_FORMULAS[name](x)))

    @pytest.mark.parametrize("family", ["haar", "db4"])
    @pytest.mark.parametrize(
        "spec", [*sorted(_FORMULAS), {"random_besov": {"s": 2, "pi": 2, "seed": 1}}],
        ids=[*sorted(_FORMULAS), "random_besov"])
    def test_fn_writes_into_its_buffers(self, request, family, spec):
        """fn(x, out) returns the values in out[0], equal to fn(x)."""
        tf = make_test_function(spec, request.getfixturevalue(family), jmax=8)
        x = np.random.default_rng(9).random(1000)
        out = list(np.empty((tf.buffers + 1, x.size)))
        got = tf.fn(x, out)
        assert np.shares_memory(got, out[0]) and np.array_equal(got, tf.fn(x))


    @pytest.mark.parametrize("name", sorted(_FORMULAS))
    def test_fn_keeps_the_shape_of_x(self, haar, name):
        """A scalar for a scalar, and x's shape for an array."""
        fn = make_test_function(name, haar, jmax=8).fn
        x = np.random.default_rng(10).random((3, 4))
        assert isinstance(fn(0.5), float) and fn(0.5) == fn(np.array([0.5]))[0]
        assert np.array_equal(fn(x), fn(x.ravel()).reshape(3, 4))


class TestSignalNames:
    @pytest.mark.parametrize(
        "params,name",
        [
            ({"s": 2, "pi": 2}, "random-besov(s=2, pi=2)"),
            ({"s": 2.1, "pi": 1.3}, "random-besov(s=2.1, pi=1.3)"),
            ({"s": "5/2", "pi": "inf"}, "random-besov(s=5/2, pi=inf)"),
            ({"s": 1.5, "pi": 1e300, "r": 2}, "random-besov(s=1.5, pi=1e+300)"),
        ],
    )
    def test_random_besov_is_named_by_its_values_as_written(self, params, name):
        """Not by the exact Fractions the rate calculator reads: 2.1 would
        print as 4728779608739021/2251799813685248, and 1e300 as a 301-digit
        integer."""
        assert besov.signal_spec({"random_besov": {**params, "seed": 1}}, 0, 8)[0] == name

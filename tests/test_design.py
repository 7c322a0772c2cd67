"""Design densities, sampling determinism, and the observation model."""

import re

import numpy as np
import pytest

from blockshrink import (
    Sample,
    density_from_spec,
    generate_sample,
    linear_tilt_design,
    midpoint_grid,
    piecewise_design,
    read_sample_csv,
    uniform_design,
)
from blockshrink.design import write_csv
from oracles import direct_ppf, numpy_streams

# Designs of every kind: uniform, tilts both ways, two and four segments.
_DRAW_DESIGNS = {
    "uniform": uniform_design(),
    "tilt+1.5": linear_tilt_design(1.5),
    "tilt-1.5": linear_tilt_design(-1.5),
    "piecewise-2": piecewise_design([0.3], [0.5, 17 / 14]),
    "piecewise-4": piecewise_design([0.2, 0.45, 0.8], [0.5, 1.6, 0.8, 1.1]),
}


def _masses(density):
    """The cumulative masses at the right edge of each segment."""
    edges = np.array([0.0, *density.breaks, 1.0])
    values = density.values or (1.0,)
    return np.cumsum(np.diff(edges) * np.asarray(values))


class TestPdf:
    def test_uniform(self):
        assert uniform_design().pdf(0.3) == 1.0

    def test_linear_tilt(self):
        g = linear_tilt_design(0.5)
        assert g.pdf(0.0) == pytest.approx(0.75)
        assert g.pdf(1.0) == pytest.approx(1.25)

    def test_piecewise(self):
        g = piecewise_design([0.5], [0.5, 1.5])
        assert g.pdf(0.7) == 1.5
        assert g.pdf(0.2) == 0.5

    def test_outside_domain(self):
        with pytest.raises(ValueError, match="outside"):
            uniform_design().pdf(1.5)

    @pytest.mark.parametrize("at", [0, 500, -1])
    @pytest.mark.parametrize("density", [uniform_design(), linear_tilt_design(0.5),
                                         piecewise_design([0.5], [0.6, 1.4])],
                             ids=["uniform", "tilt", "piecewise"])
    def test_nan_is_outside_domain(self, density, at):
        x = np.random.default_rng(4).random(1001)
        x[at] = np.nan
        with pytest.raises(ValueError, match=r"density evaluated outside \[0, 1\]"):
            density.pdf(x)

    @pytest.mark.parametrize("name", ["piecewise-2", "piecewise-4"])
    def test_piecewise_break_takes_the_right_hand_value(self, name):
        density = _DRAW_DESIGNS[name]
        got = density.pdf(np.array(density.breaks))
        assert np.array_equal(got, density.values[1:])
        below = density.pdf(np.nextafter(np.array(density.breaks), 0.0))
        assert np.array_equal(below, density.values[:-1])
        assert density.pdf(0.0) == density.values[0] and density.pdf(1.0) == density.values[-1]

    def test_bounds_certified(self):
        for g in (uniform_design(), linear_tilt_design(0.5), piecewise_design([0.3], [0.5, 17 / 14])):
            x = np.linspace(0, 1, 4097)
            vals = g.pdf(x)
            assert g.g_min > 0
            assert np.all(vals >= g.g_min - 1e-12)
            assert np.all(vals <= g.g_max + 1e-12)

    def test_unit_mass_by_quadrature(self):
        for g in (
            uniform_design(),
            linear_tilt_design(0.5),
            linear_tilt_design(-1.2),
            piecewise_design([0.25, 0.5], [0.4, 1.2, 1.2]),
        ):
            # the midpoint rule is exact for the linear tilt and for dyadic breaks
            assert abs(np.mean(g.pdf(midpoint_grid(1 << 16))) - 1.0) < 1e-9

    def test_invalid_piecewise(self):
        with pytest.raises(ValueError, match="integrates"):
            piecewise_design([0.5], [1.0, 1.5])
        with pytest.raises(ValueError, match="positive"):
            piecewise_design([0.5], [-0.5, 2.5])

    def test_invalid_tilt(self):
        with pytest.raises(ValueError, match="nonpositive"):
            linear_tilt_design(2.0)

    def test_from_spec_strings(self):
        assert density_from_spec("uniform").kind == "uniform"
        assert density_from_spec("linear-tilt:0.5").slope == 0.5
        g = density_from_spec("piecewise:0.5:0.5,1.5")
        assert g.pdf(0.7) == 1.5
        with pytest.raises(ValueError, match="unknown density"):
            density_from_spec("cauchy")

    @pytest.mark.parametrize("text,mapping", [
        ("uniform", {"kind": "uniform"}),
        ("linear-tilt:-0.5", {"kind": "linear-tilt", "slope": -0.5}),
        ("piecewise:0.25,0.5:0.8,1.2,1", {"kind": "piecewise", "breaks": [0.25, 0.5],
                                          "values": [0.8, 1.2, 1.0]}),
        ("piecewise::1", {"kind": "piecewise", "breaks": [], "values": [1]}),
    ])
    def test_compact_string_is_the_mapping(self, text, mapping):
        assert density_from_spec(text) == density_from_spec(mapping)

    @pytest.mark.parametrize("spec,fragment", [
        ("cauchy:1", "density 'cauchy:1': unknown density kind 'cauchy'"),
        ("uniform:1", "density 'uniform:1': 1 parameters given for uniform, which takes 0"),
        ("linear-tilt", "density 'linear-tilt' lacks the key 'slope'"),
        ({"kind": "piecewise", "breaks": [], "values": [1], "slope": 0},
         "unknown keys for kind 'piecewise': slope"),
        ({"kind": "linear-tilt", "slope": False}, "slope must be numeric, got False"),
        ({"kind": ["uniform"]}, "unknown density kind ['uniform']"),
        (uniform_design(), "density must be a string or an object"),
        ({"kind": "linear-tilt", "slope": "0.5"}, "slope must be numeric, got '0.5'"),
        ({"kind": "piecewise", "breaks": ["0.5"], "values": [0.6, 1.4]},
         "breaks must be numeric, got ['0.5']"),
        ({"kind": "piecewise", "breaks": [0.5], "values": [0.6, "1.4"]},
         "values must be numeric, got [0.6, '1.4']"),
    ])
    def test_from_spec_rejects_quoting_the_spec(self, spec, fragment):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            density_from_spec(spec)


@pytest.mark.parametrize("name", sorted(_DRAW_DESIGNS))
class TestDraw:
    """``draw`` against the direct inverse CDF, and its g against ``pdf``."""

    @staticmethod
    def _u(density):
        masses = _masses(density)
        edge = np.concatenate(([0.0], masses, np.nextafter(masses, 0.0)))
        return np.concatenate((edge, np.random.default_rng(6).random(20_000)))

    def test_x_is_the_direct_ppf(self, name):
        density = _DRAW_DESIGNS[name]
        u = self._u(density)
        x, _ = density.draw(u)
        assert np.array_equal(x, direct_ppf(density, u))

    def test_g_is_the_pdf_off_the_breaks(self, name):
        density = _DRAW_DESIGNS[name]
        x, g = density.draw(self._u(density))
        off = ~np.isin(x, density.breaks) & (x <= 1.0)
        assert off.sum() > 20_000 - 10
        assert np.array_equal(g[off], density.pdf(x[off]))
        assert np.all((g >= density.g_min) & (g <= density.g_max))
        # u at an interior mass draws the break itself; both take the right segment
        x, g = density.draw(_masses(density)[:-1])
        assert np.array_equal(x, density.breaks) and np.array_equal(g, density.pdf(x))

    def test_ppf_of_nan_is_nan(self, name):
        assert np.isnan(_DRAW_DESIGNS[name].draw(np.array([0.5, np.nan]))[0][1])

    def test_sample_carries_the_drawn_g(self, name):
        density = _DRAW_DESIGNS[name]
        s = generate_sample(np.sin, density, 4096, seed=17)
        u = np.random.default_rng(np.random.SeedSequence(17).spawn(2)[0]).random(4096)
        x, g = density.draw(u)
        assert np.array_equal(s.x, x) and np.array_equal(s.g, g)


def _design(density, n, seed):
    """The design points generate_sample draws for ``seed``."""
    return generate_sample(np.zeros_like, density, n, seed).x


class TestSampling:
    def test_kolmogorov_distance_uniform(self):
        n = 100_000
        x = np.sort(_design(uniform_design(), n, seed=77))
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - x), np.max(x - (i - 1) / n))
        assert ks <= 1.63 / np.sqrt(n)

    def test_kolmogorov_distance_tilt(self):
        n = 100_000
        g = linear_tilt_design(0.5)
        x = np.sort(_design(g, n, seed=78))
        cdf = (1 - 0.25) * x + 0.25 * x**2
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
        assert ks <= 1.63 / np.sqrt(n)

    def test_single_draw_in_range(self):
        for g in (uniform_design(), linear_tilt_design(-0.7), piecewise_design([0.5], [0.5, 1.5])):
            x = _design(g, 1, seed=3)
            assert 0.0 <= x[0] < 1.0

    def test_determinism(self):
        g = piecewise_design([0.5], [0.5, 1.5])
        a = _design(g, 1000, seed=5)
        b = _design(g, 1000, seed=5)
        assert np.array_equal(a, b)

    def test_needs_positive_n(self):
        with pytest.raises(ValueError):
            _design(uniform_design(), 0, seed=1)

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            _design(uniform_design(), 10, seed=-1)

    @pytest.mark.parametrize("seed", [0, 17, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64 + 5])
    @pytest.mark.parametrize("noiseless", [False, True])
    def test_equals_the_numpy_draw_row_by_row(self, seed, noiseless):
        """The closed-form streams draw what NumPy's SeedSequence and
        default_rng draw, point for point."""
        density = piecewise_design([0.3], [0.5, 17 / 14])
        s = generate_sample(np.sin, density, 1000, seed, noiseless=noiseless)
        design_rng, noise_rng = numpy_streams(seed)
        x, g = density.draw(design_rng.random(1000))
        y = np.sin(x) if noiseless else np.sin(x) + noise_rng.standard_normal(1000)
        for row, want in enumerate(zip(x, g, y)):
            assert (s.x[row], s.g[row], s.y[row]) == want, row


class TestSampleRange:
    @pytest.mark.parametrize("bad", [-1e-300, 1.0 + 2.0**-52, np.nan])
    @pytest.mark.parametrize("at", [0, 500, -1])
    def test_point_outside_unit_interval(self, bad, at):
        x = np.random.default_rng(4).random(1001)
        x[at] = bad
        with pytest.raises(ValueError, match=r"design points must lie in \[0, 1\]"):
            Sample(1001, x, np.zeros(1001))

    def test_both_ends_admitted(self):
        assert Sample(2, np.array([0.0, 1.0]), np.zeros(2)).n == 2

    def test_empty_sample(self):
        # an empty array has no range to check
        assert Sample(0, np.empty(0), np.empty(0)).n == 0
        # Sample takes arrays: a list is refused
        with pytest.raises((TypeError, AttributeError)):
            Sample(0, [], [])


class TestGenerateSample:
    def test_zero_signal_moments(self):
        n = 100_000
        s = generate_sample(lambda x: np.zeros_like(x), uniform_design(), n, seed=9)
        assert abs(s.y.mean()) <= 3.0 / np.sqrt(n)
        assert abs(s.y.var() - 1.0) < 0.05

    def test_noiseless_hook(self):
        f = lambda x: np.sin(2 * np.pi * x)  # noqa: E731
        s = generate_sample(f, uniform_design(), 500, seed=4, noiseless=True)
        assert np.array_equal(s.y, f(s.x))

    def test_repeat_same_seed(self):
        f = lambda x: x  # noqa: E731
        a = generate_sample(f, uniform_design(), 256, seed=12)
        b = generate_sample(f, uniform_design(), 256, seed=12)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_noise_independent_of_design(self):
        # same seed, different density: the noise stream must not shift
        f = lambda x: np.zeros_like(x)  # noqa: E731
        a = generate_sample(f, uniform_design(), 4096, seed=21)
        b = generate_sample(f, linear_tilt_design(0.5), 4096, seed=21)
        assert np.array_equal(a.y, b.y)
        assert not np.array_equal(a.x, b.x)

    def test_csv_round_trip(self, tmp_path):
        s = generate_sample(lambda x: x, uniform_design(), 64, seed=2)
        path = tmp_path / "sample.csv"
        write_csv(path, "x,y", s.x, s.y)
        back = read_sample_csv(path)
        assert np.array_equal(back.x, s.x)
        assert np.array_equal(back.y, s.y)

    def test_csv_columns_found_by_header_name(self, tmp_path):
        path = tmp_path / "sample.csv"
        path.write_text("y,x\n2.5,0.25\n")
        back = read_sample_csv(path)
        assert back.x.tolist() == [0.25] and back.y.tolist() == [2.5]

    @pytest.mark.parametrize(
        "text", ["x,y\n0.1,1.0\n0.2,abc\n", "x,z\n0.1,1.0\n"], ids=["non-numeric", "no-y-column"]
    )
    def test_csv_error_names_file(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="bad.csv"):
            read_sample_csv(path)

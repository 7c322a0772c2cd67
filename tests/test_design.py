"""Design densities, sampling determinism, and the observation model."""

import numpy as np
import pytest

from blockshrink import (
    density_from_spec,
    generate_sample,
    linear_tilt_design,
    piecewise_design,
    read_sample_csv,
    uniform_design,
)
from blockshrink.design import write_csv
from oracles import direct_ppf

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
            assert abs(g.integral_check() - 1.0) < 1e-9

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
        assert np.array_equal(density.ppf(u), x)

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

"""Block-thresholded wavelet regression from randomly designed samples.

Empirical coefficients are the density-reweighted sums
beta_hat_{j,k} = n^-1 sum_i y_i g(x_i)^-1 psi_{j,k}(x_i) on the levels
selected by the sample size, all from scaling sums one level above the finest
and the periodic analysis filter bank.  Whole blocks of detail coefficients are
kept or killed by comparing the block's normalized l^p mean against
threshold / sqrt(n); scaling coefficients at the coarse level are always kept.
Classical term-by-term hard/soft thresholding of the same tree
(``threshold_tree``) is provided as a baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import CoefficientTree, WaveletBasis, _coefficient_tree
from .design import DesignDensity, Sample


@dataclass(frozen=True)
class BlockGrid:
    """Level range and per-level block partition used by the estimator.

    block_size is floor((ln n)^(p/2)); the level range is
    j_low = floor((p/2) log2(ln n)) .. j_high = floor(log2(n / ln n) / 2),
    with j_low clamped up to the basis' coarsest level and down to j_high.
    Each level is split into consecutive blocks of block_size indices; the
    last block of a level may be shorter.
    """

    n: int
    p: float
    block_size: int
    j_low: int
    j_high: int
    clamped: bool

    def boundaries(self, j: int) -> np.ndarray:
        """Block edges [0, L, 2L, ..., 2^j] at level j."""
        if not self.j_low <= j <= self.j_high:
            raise ValueError(f"level {j} outside [{self.j_low}, {self.j_high}]")
        dim = 1 << j
        edges = np.arange(0, dim, self.block_size)
        return np.append(edges, dim)

    def block_count(self, j: int) -> int:
        return len(self.boundaries(j)) - 1

    def levels(self):
        return range(self.j_low, self.j_high + 1)


class SampleSizeError(ValueError):
    """The sample size admits no level range: n < 16, or too few levels for the basis."""


def block_grid(n: int, p: float, min_level: int = 0) -> BlockGrid:
    """Block geometry for a sample of size n under the l^p rule."""
    if n < 16:
        raise SampleSizeError(f"n={n} too small (need n >= 16)")
    if not 2 <= p < math.inf:
        raise ValueError(f"p={p} out of range (need finite p >= 2)")
    ln_n = math.log(n)
    try:
        block_size = int(math.floor(ln_n ** (p / 2.0)))
        if block_size >= 1 << 63:  # block edges are int64
            raise OverflowError
    except OverflowError:
        raise ValueError(f"p={p} out of range: block size (ln n)^(p/2) overflows") from None
    j_low = int(math.floor((p / 2.0) * math.log2(ln_n)))
    j_high = int(math.floor(0.5 * math.log2(n / ln_n)))
    if j_high < min_level:
        raise SampleSizeError(
            f"n={n} too small for this basis: finest usable level {j_high} lies "
            f"below the coarsest periodized level {min_level}"
        )
    j_low = max(j_low, min_level)
    clamped = j_low > j_high
    return BlockGrid(n=n, p=float(p), block_size=block_size, j_low=min(j_low, j_high),
                     j_high=j_high, clamped=clamped)


def block_statistics(coeffs, edges, p: float) -> np.ndarray:
    """The normalized l^p mean (mean |c|^p)^(1/p) of each block [edges[b],
    edges[b + 1]) along the last axis of ``coeffs``; edges span that axis."""
    starts, sizes = edges[:-1], np.diff(edges)
    return (np.add.reduceat(np.abs(coeffs) ** p, starts, axis=-1) / sizes) ** (1.0 / p)


def _weights(sample: Sample, g, density: DesignDensity, out=None) -> np.ndarray:
    """y_i / (n g(x_i)), once g has passed the density's certified bounds
    (a NaN fails them), written into ``out`` when given."""
    if g.size and not (g.min() >= density.g_min - 1e-12 and g.max() <= density.g_max + 1e-12):
        raise RuntimeError("density evaluation escaped its certified bounds")
    scaled = np.multiply(g, sample.n, out=out)
    return np.divide(sample.y, scaled, out=scaled)


def empirical_coefficients(
    sample: Sample, density: DesignDensity, basis: WaveletBasis, grid: BlockGrid
) -> CoefficientTree:
    """Unthresholded reweighted empirical coefficients on the grid's levels.

    For samples read from outside (``fit``): g is ``density.pdf`` at the
    points, and the sample is sorted once into canonical (x, y) order before
    the sums (see ``_canonical_order``), so permuting it leaves every
    coefficient bit-identical.  Seeded replications read g off the draw, skip
    the sort and sum in drawn order (see ``harness._replicate``).
    """
    if sample.n < 1:
        raise ValueError("sample is empty")
    order, xs = _canonical_order(sample.x, sample.y)
    w = _weights(sample, density.pdf(sample.x), density)[order]
    del order  # the permutation and the unsorted weights are spent before the sums
    return _coefficient_tree(basis, grid.j_low, grid.j_high, xs, w)


def _canonical_order(x, y):
    """The permutation that sorts the pairs (x_i, y_i) by x, then by y, and x
    in that order.  With no tie in x the order by x alone is already unique,
    so the cheaper one-key sort serves; only a tie needs the two-key sort."""
    order = np.argsort(x)
    xs = x[order]
    if np.any(xs[1:] == xs[:-1]):
        order = np.lexsort((y, x))
        xs = x[order]
    return order, xs


@dataclass(eq=False)
class Estimate:
    """A thresholded coefficient tree plus the decisions that produced it.

    ``cut`` is the value the rule compared against.  ``statistics[i]`` holds
    the block statistics of the unthresholded level j_low + i, and
    ``kept[i]`` marks that level's blocks with a surviving coefficient;
    under the block rule kept == (statistics >= cut) exactly.
    """

    tree: CoefficientTree
    grid: BlockGrid
    cut: float
    kept: list
    statistics: list


def threshold_tree(raw: CoefficientTree, grid: BlockGrid, rule: str, constant: float) -> Estimate:
    """Apply one thresholding rule to a copy of the unthresholded tree ``raw``.

    ``rule="block"`` keeps a detail block iff its statistic (see
    block_statistics) reaches constant / sqrt(n) and zeroes it otherwise.
    ``"hard"`` and ``"soft"`` threshold each detail coefficient at
    constant * sqrt(ln n / n); soft also shrinks survivors toward zero by
    that cut.  Scaling coefficients are never thresholded.  A stacked
    ``raw`` is thresholded row by row, along the last axis: ``kept`` and
    ``statistics`` then carry the same leading axes.
    """
    n, p = grid.n, grid.p
    if rule == "block":
        if not 0 <= constant < math.inf:
            raise ValueError(f"threshold constant d={constant} must be finite and nonnegative")
        cut = constant / math.sqrt(n)
    elif rule in ("hard", "soft"):
        if not 0 < constant < math.inf:
            raise ValueError(f"threshold constant c={constant} must be finite and positive")
        cut = constant * math.sqrt(math.log(n) / n)
    else:
        raise ValueError(f"rule must be 'block', 'hard' or 'soft', got {rule!r}")
    tree = raw.copy()
    kept, statistics = [], []
    for j in grid.levels():
        level = tree.detail(j)
        edges = grid.boundaries(j)
        starts, sizes = edges[:-1], np.diff(edges)
        stat = block_statistics(level, edges, p)
        if rule == "block":
            mask = stat >= cut
            level[~np.repeat(mask, sizes, axis=-1)] = 0.0
        else:
            if rule == "hard":
                level[np.abs(level) < cut] = 0.0
            else:
                level[:] = np.sign(level) * np.maximum(np.abs(level) - cut, 0.0)
            mask = np.add.reduceat(level != 0.0, starts, axis=-1) > 0
        kept.append(mask)
        statistics.append(stat)
    return Estimate(tree=tree, grid=grid, cut=cut, kept=kept, statistics=statistics)


def blockshrink(
    sample: Sample,
    density: DesignDensity,
    basis: WaveletBasis,
    p: float = 2.0,
    threshold: float = 4.0,
) -> Estimate:
    """Blockwise keep-or-kill estimate of the regression function.

    A detail block survives iff its block statistic is at least
    threshold / sqrt(n); killed blocks are zeroed exactly.  The default
    threshold constant 4 keeps the pure-noise false-keep rate per block
    well below 1% at desk-scale n (see scripts/calibrate_threshold.py).
    """
    grid = block_grid(sample.n, p, basis.coarsest_level)
    raw = empirical_coefficients(sample, density, basis, grid)
    return threshold_tree(raw, grid, "block", threshold)

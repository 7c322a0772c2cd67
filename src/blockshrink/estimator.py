"""Block-thresholded wavelet regression from randomly designed samples.

Empirical coefficients are the density-reweighted sums
beta_hat_{j,k} = n^-1 sum_i y_i g(x_i)^-1 psi_{j,k}(x_i) on the levels
selected by the sample size, all from scaling sums one level above the finest
and the periodic analysis filter bank.  Whole blocks of detail coefficients are
kept or killed by comparing the block's normalized l^p mean against
threshold / sqrt(n); scaling coefficients at the coarse level are always kept.
Classical term-by-term hard/soft thresholding is provided as a baseline.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import CoefficientTree, WaveletBasis, _forward_step, _level_sums
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


def block_grid(n: int, p: float, min_level: int = 0) -> BlockGrid:
    """Block geometry for a sample of size n under the l^p rule."""
    if n < 16:
        raise ValueError(f"n={n} too small (need n >= 16)")
    if not 2 <= p < math.inf:
        raise ValueError(f"p={p} out of range (need finite p >= 2)")
    ln_n = math.log(n)
    try:
        block_size = int(math.floor(ln_n ** (p / 2.0)))
    except OverflowError:
        raise ValueError(f"p={p} out of range: block size (ln n)^(p/2) overflows") from None
    j_low = int(math.floor((p / 2.0) * math.log2(ln_n)))
    j_high = int(math.floor(0.5 * math.log2(n / ln_n)))
    if j_high < min_level:
        raise ValueError(
            f"n={n} too small for this basis: finest usable level {j_high} lies "
            f"below the coarsest periodized level {min_level}"
        )
    clamped = False
    j_low = max(j_low, min_level)
    if j_low > j_high:
        warnings.warn(
            f"coarse level {j_low} exceeds fine level {j_high} at n={n}; clamping",
            RuntimeWarning,
            stacklevel=2,
        )
        j_low = j_high
        clamped = True
    return BlockGrid(
        n=n, p=float(p), block_size=block_size, j_low=j_low, j_high=j_high, clamped=clamped
    )


def block_statistic(coeffs, p: float) -> float:
    """Normalized block l^p mean: (mean |c|^p)^(1/p), over the actual block size."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size == 0:
        raise ValueError("block must be nonempty")
    return float(np.mean(np.abs(coeffs) ** p) ** (1.0 / p))


def block_statistics(coeffs, edges, p: float) -> np.ndarray:
    """block_statistic of every block [edges[b], edges[b + 1]) along the last
    axis of ``coeffs``; ``edges`` runs from 0 to the axis length."""
    starts, sizes = edges[:-1], np.diff(edges)
    return (np.add.reduceat(np.abs(coeffs) ** p, starts, axis=-1) / sizes) ** (1.0 / p)


def _weights(sample: Sample, density: DesignDensity) -> np.ndarray:
    g = density.pdf(sample.x)
    if np.any(g < density.g_min - 1e-12) or np.any(g > density.g_max + 1e-12):
        raise RuntimeError("density evaluation escaped its certified bounds")
    return sample.y / (g * sample.n)


def _coefficient_tree(basis: WaveletBasis, grid: BlockGrid, x, w) -> CoefficientTree:
    """Tree of the weighted sums sum_i w_i f_{j,k}(x_i) on the grid's levels:
    the scaling sums at level j_high + 1, then one analysis step per level
    down to j_low.  The sums follow the order of ``x``."""
    alpha = _level_sums(basis, "father", grid.j_high + 1, x, w)
    beta = []
    for _ in grid.levels():
        alpha, detail = _forward_step(basis, alpha)
        beta.insert(0, detail)
    return CoefficientTree(j0=grid.j_low, jmax=grid.j_high, alpha=alpha, beta=beta)


def empirical_coefficients(
    sample: Sample, density: DesignDensity, basis: WaveletBasis, grid: BlockGrid
) -> CoefficientTree:
    """Unthresholded reweighted empirical coefficients on the grid's levels.

    For samples read from outside (``fit``): the sample is sorted once into
    canonical (x, y) order before the sums, so permuting it leaves every
    coefficient bit-identical.  Seeded replications skip the sort and sum in
    drawn order (see ``harness._replicate``).
    """
    if sample.n < 1:
        raise ValueError("sample is empty")
    order = np.lexsort((sample.y, sample.x))
    w = _weights(sample, density)
    return _coefficient_tree(basis, grid, sample.x[order], w[order])


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

    def kept_blocks(self, j: int) -> np.ndarray:
        return self.kept[j - self.grid.j_low]


def threshold_tree(raw: CoefficientTree, grid: BlockGrid, rule: str, constant: float) -> Estimate:
    """Apply one thresholding rule to a copy of the unthresholded tree ``raw``.

    ``rule="block"`` keeps a detail block iff its statistic (see
    block_statistic) reaches constant / sqrt(n) and zeroes it otherwise.
    ``"hard"`` and ``"soft"`` threshold each detail coefficient at
    constant * sqrt(ln n / n); soft also shrinks survivors toward zero by
    that cut.  Scaling coefficients are never thresholded.
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
            level[~np.repeat(mask, sizes)] = 0.0
        else:
            if rule == "hard":
                level[np.abs(level) < cut] = 0.0
            else:
                level[:] = np.sign(level) * np.maximum(np.abs(level) - cut, 0.0)
            mask = np.add.reduceat(level != 0.0, starts) > 0
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


def term_threshold(
    sample: Sample,
    density: DesignDensity,
    basis: WaveletBasis,
    mode: str = "hard",
    c: float = 2.0,
    p: float = 2.0,
) -> Estimate:
    """Baseline term-by-term estimator at threshold c * sqrt(ln n / n).

    Hard keeps a coefficient iff its magnitude reaches the threshold; soft
    additionally shrinks survivors toward zero by the threshold.  Levels and
    scaling-coefficient handling match the block estimator; the stored kept
    mask marks blocks containing at least one surviving coefficient.
    """
    if mode not in ("hard", "soft"):
        raise ValueError(f"mode must be 'hard' or 'soft', got {mode!r}")
    grid = block_grid(sample.n, p, basis.coarsest_level)
    raw = empirical_coefficients(sample, density, basis, grid)
    return threshold_tree(raw, grid, mode, c)

"""Direct per-level sums and series evaluation: the oracles of the filter bank;
and the direct inverse CDF: the oracle of the design draw.

The package computes every coefficient tree as scaling sums one level above
the finest detail level plus the periodic analysis filter bank, and every
series value by lifting the tree to its top level.  These helpers do it the
slow way, one level at a time with the mother functions, so the tests can
check the fast path against them.  ``direct_ppf`` finds each point's segment
with the full cumulative masses and clips it, as the sampler once did.
"""

import numpy as np

from blockshrink import CoefficientTree, midpoint_grid
from blockshrink.basis import _level_terms


def direct_sums(basis, kind, j, x, w):
    """Per-translate weighted sums sum_i w_i f_{j,k}(x_i) for k = 0 .. 2^j - 1."""
    idx, val = _level_terms(basis, kind, j, x)
    return np.bincount(idx.ravel(), weights=(val * w).ravel(), minlength=1 << j)


def direct_coefficients(basis, values, j0, jmax):
    """Quadrature coefficients of grid values, summed level by level."""
    values = np.asarray(values, dtype=float)
    grid = len(values)
    x = midpoint_grid(grid)
    w = values / grid
    alpha = direct_sums(basis, "father", j0, x, w)
    beta = [direct_sums(basis, "mother", j, x, w) for j in range(j0, jmax + 1)]
    return CoefficientTree(j0=j0, jmax=jmax, alpha=alpha, beta=beta)


def direct_evaluate(basis, tree, x):
    """The tree's series at x, summed level by level."""
    x = np.mod(np.asarray(x, dtype=float), 1.0)
    idx, val = _level_terms(basis, "father", tree.j0, x)
    out = np.einsum("mi,mi->i", tree.alpha[idx], val)
    for i, b in enumerate(tree.beta):
        idx, val = _level_terms(basis, "mother", tree.j0 + i, x)
        out += np.einsum("mi,mi->i", b[idx], val)
    return out


def direct_ppf(density, u):
    """Inverse CDF of ``density`` at u, with its segment found from all the
    cumulative masses, then clipped, and the mass before it by ``where``."""
    u = np.asarray(u, dtype=float)
    if density.kind == "uniform":
        return u
    if density.kind == "linear-tilt":
        a = density.slope
        b = 1.0 - 0.5 * a
        return (np.sqrt(b * b + 2.0 * a * u) - b) / a
    edges = np.array([0.0, *density.breaks, 1.0])
    cum = np.cumsum(np.diff(edges) * np.asarray(density.values))
    vals = np.asarray(density.values)
    lefts = np.concatenate(([0.0], np.asarray(density.breaks)))
    seg = np.clip(np.searchsorted(cum, u, side="right"), 0, len(vals) - 1)
    prev = np.where(seg > 0, cum[np.maximum(seg - 1, 0)], 0.0)
    return lefts[seg] + (u - prev) / vals[seg]

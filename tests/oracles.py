"""Direct per-level sums and series evaluation: the oracles of the filter bank;
the broadcast product over all taps: the oracle of ``basis._forward_step``;
the direct per-point basis values and the periodized translates: the oracles
of ``basis._level_rows`` and the basis check; the sum of outer products: the
oracle of ``basis._grid_series``; the einsum over the stacked rows: the
oracle of ``basis.evaluate_tree``; the column sums of the direct mother rows:
the translate concentration of acceptance criterion 5; the scalar block
statistic: the oracle of ``estimator.block_statistics``; the direct inverse
CDF: the oracle of the design draw; NumPy's own SeedSequence and PCG64:
the oracle of the closed-form seeding; and the truncated Besov sequence
seminorm, which certifies that a ``random_besov`` draw lies in its ball.

The package computes every coefficient tree as scaling sums one level above
the finest detail level plus the periodic analysis filter bank, and every
series value by lifting the tree to its top level.  These helpers do it the
slow way, one level at a time with the mother functions, so the tests can
check the fast path against them.  ``direct_level_terms`` floors each point
twice, once per scale, and builds an index array per table row.
``outer_series`` adds one freshly allocated outer product per translate,
as the grid series once did.  ``direct_ppf`` finds each point's segment
with the full cumulative masses and clips it, as the sampler once did.
"""

import math

import numpy as np

from blockshrink import CoefficientTree, midpoint_grid
from blockshrink.basis import _level_rows, _lift


def direct_level_terms(basis, kind, j, x):
    """Contributing (wrapped translate index, value) pairs of level j at x,
    of shape (support_length, len(x)): translate k0 - m, with k0 = floor(2^j x),
    read at 2^j x - k0 + m by linear interpolation in the table (Haar in
    closed form)."""
    s = basis.support_length
    t = np.ldexp(x, j)
    k0 = np.floor(t).astype(np.int64)
    f = t - k0
    idx = (k0 - np.arange(s)[:, None]) & ((1 << j) - 1)
    amp = 2.0 ** (j / 2.0)
    if basis.family == "haar":
        return idx, amp * basis.base(kind, f)[None, :]
    table = basis.phi_table if kind == "father" else basis.psi_table
    u = np.ldexp(f, basis.refine_depth)
    i = np.floor(u).astype(np.int64)
    frac = u - i
    rest = 1.0 - frac
    val = np.empty((s, x.size))
    for m in range(s):
        cell = i + (m << basis.refine_depth)
        val[m] = amp * (table[cell] * rest + table[cell + 1] * frac)
    return idx, val


def periodized(basis, kind, j, k, x):
    """The periodized translate 2^{j/2} sum_l base(2^j (x - l) - k) of level j
    at x, over the three copies l = -1, 0, 1 that can reach [0, 1) once
    2^j >= support_length: each copy read by ``basis.base``, which
    interpolates the table linearly (Haar in closed form)."""
    t = np.ldexp(np.mod(np.asarray(x, dtype=float), 1.0), j) - k
    total = np.zeros_like(t)
    for l in (-1, 0, 1):
        total += basis.base(kind, t - l * (1 << j))
    return 2.0 ** (j / 2.0) * total


def direct_sums(basis, kind, j, x, w):
    """Per-translate weighted sums sum_i w_i f_{j,k}(x_i) for k = 0 .. 2^j - 1."""
    idx, val = direct_level_terms(basis, kind, j, x)
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


def broadcast_step(basis, scaling):
    """One periodic analysis step as ``basis._forward_step`` once took it:
    all taps gathered at once, then the sum over the taps of one
    (..., 2, S, 2^j) broadcast product of both filters."""
    dim = scaling.shape[-1]
    taps = scaling[..., (np.arange(0, dim, 2) + np.arange(basis.filters.shape[1])[:, None]) % dim]
    out = (basis.filters[:, :, None] * taps[..., None, :, :]).sum(axis=-2)
    return out[..., 0, :], out[..., 1, :]


def direct_evaluate(basis, tree, x):
    """The tree's series at x, summed level by level."""
    x = np.mod(np.asarray(x, dtype=float), 1.0)
    idx, val = direct_level_terms(basis, "father", tree.j0, x)
    out = np.einsum("mi,mi->i", tree.alpha[idx], val)
    for i, b in enumerate(tree.beta):
        idx, val = direct_level_terms(basis, "mother", tree.j0 + i, x)
        out += np.einsum("mi,mi->i", b[idx], val)
    return out


def stacked_rows(basis, j, x):
    """Copies of the rows of ``basis._level_rows``, stacked into (translate
    index, value) arrays of shape (support_length, len(x))."""
    rows = [(idx.copy(), val.copy()) for idx, val in _level_rows(basis, j, x)]
    return np.array([idx for idx, _ in rows]), np.array([val for _, val in rows])


def stacked_evaluate(basis, tree, x):
    """The tree's series at x as ``basis.evaluate_tree`` once summed it: one
    ``einsum`` over the stacked top-level rows."""
    x = np.mod(np.asarray(x, dtype=float), 1.0)
    top, alpha = _lift(basis, tree)
    idx, val = stacked_rows(basis, top, x)
    return np.einsum("mi,mi->i", alpha[idx], val)


def stacked_concentration(basis, j, m, grid_size):
    """Empirical constant of the level-j translate concentration bound
    sum_k |psi_{j,k}(x)|^m <= C 2^{jm/2}: max_x 2^{-jm/2} sum_k |psi_{j,k}(x)|^m
    over the midpoint grid, as the column sums of |psi|^m over the stacked
    direct level-j rows.  Compact support bounds it uniformly in j."""
    _, val = direct_level_terms(basis, "mother", j, midpoint_grid(grid_size))
    return float((np.abs(val) ** m).sum(axis=0).max() * 2.0 ** (-j * m / 2.0))


def block_statistic(coeffs, p):
    """Normalized block l^p mean: (mean |c|^p)^(1/p), over the actual block size."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size == 0:
        raise ValueError("block must be nonempty")
    return float(np.mean(np.abs(coeffs) ** p) ** (1.0 / p))


def outer_series(alpha, cell):
    """Grid values of the father series of the level-J scaling coefficients
    ``alpha`` from ``basis._first_cell``'s values, as Python's ``sum`` of one
    outer product per translate: it starts from the integer 0, so a -0.0
    term comes out as +0.0."""
    return sum(np.outer(np.roll(alpha, m), v) for m, v in enumerate(cell)).ravel()


def direct_ppf(density, u):
    """Inverse CDF of ``density`` at u, with its segment found from all the
    cumulative masses, then clipped, and the mass before it by ``where``."""
    u = np.asarray(u, dtype=float)
    if density.kind == "uniform":
        return u
    if density.kind == "linear-tilt":
        a = density.slope
        b = 1.0 - 0.5 * a
        return 2.0 * u / (b + np.sqrt(b * b + 2.0 * a * u))
    edges = np.array([0.0, *density.breaks, 1.0])
    cum = np.cumsum(np.diff(edges) * np.asarray(density.values))
    vals = np.asarray(density.values)
    lefts = np.concatenate(([0.0], np.asarray(density.breaks)))
    seg = np.clip(np.searchsorted(cum, u, side="right"), 0, len(vals) - 1)
    prev = np.where(seg > 0, cum[np.maximum(seg - 1, 0)], 0.0)
    return lefts[seg] + (u - prev) / vals[seg]


def numpy_seed(master_seed, n, rep):
    """``design.replication_seed`` through NumPy's SeedSequence."""
    return int(np.random.SeedSequence((master_seed, n, rep)).generate_state(1, np.uint64)[0])


def numpy_streams(seed):
    """The (design, noise) generators of ``seed`` as NumPy builds them:
    ``default_rng`` on each child of ``SeedSequence(seed).spawn(2)``."""
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(2)]


def besov_seminorm(tree: CoefficientTree, s: float, pi: float, r: float) -> float:
    """Truncated Besov sequence norm of a coefficient tree.

    Levels are weighted by 2^{j(s + 1/2 - 1/pi)}; the scaling block enters as
    the level below j0.  Infinite pi/r take max over translates / sup over
    levels.  The value is the norm of the finite tree; tails beyond jmax are
    not extrapolated.
    """
    s = float(s)
    inv_pi = 0.0 if pi == math.inf else 1.0 / float(pi)
    levels = [(tree.j0 - 1, tree.alpha)]
    levels += [(tree.j0 + i, b) for i, b in enumerate(tree.beta)]
    terms = []
    for j, coeffs in levels:
        a = np.abs(np.asarray(coeffs, dtype=float))
        if pi == math.inf:
            level_norm = a.max() if a.size else 0.0
        else:
            level_norm = float(np.sum(a ** float(pi)) ** inv_pi)
        terms.append(2.0 ** (j * (s + 0.5 - inv_pi)) * level_norm)
    terms = np.asarray(terms)
    if r == math.inf:
        return float(terms.max())
    return float(np.sum(terms ** float(r)) ** (1.0 / float(r)))

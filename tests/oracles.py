"""Direct per-level sums and series evaluation: the oracles of the filter bank;
the direct per-point basis values: the oracle of ``basis._level_terms``; the
sum of outer products: the oracle of ``basis._grid_series``; the direct
inverse CDF: the oracle of the design draw; and NumPy's own SeedSequence
and PCG64: the oracle of the closed-form seeding.

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

import numpy as np

from blockshrink import CoefficientTree, midpoint_grid


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


def direct_evaluate(basis, tree, x):
    """The tree's series at x, summed level by level."""
    x = np.mod(np.asarray(x, dtype=float), 1.0)
    idx, val = direct_level_terms(basis, "father", tree.j0, x)
    out = np.einsum("mi,mi->i", tree.alpha[idx], val)
    for i, b in enumerate(tree.beta):
        idx, val = direct_level_terms(basis, "mother", tree.j0 + i, x)
        out += np.einsum("mi,mi->i", b[idx], val)
    return out


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
        return (np.sqrt(b * b + 2.0 * a * u) - b) / a
    edges = np.array([0.0, *density.breaks, 1.0])
    cum = np.cumsum(np.diff(edges) * np.asarray(density.values))
    vals = np.asarray(density.values)
    lefts = np.concatenate(([0.0], np.asarray(density.breaks)))
    seg = np.clip(np.searchsorted(cum, u, side="right"), 0, len(vals) - 1)
    prev = np.where(seg > 0, cum[np.maximum(seg - 1, 0)], 0.0)
    return lefts[seg] + (u - prev) / vals[seg]


def numpy_seed(master_seed, n, rep):
    """``harness.replication_seed`` through NumPy's SeedSequence."""
    return int(np.random.SeedSequence((master_seed, n, rep)).generate_state(1, np.uint64)[0])


def numpy_streams(seed):
    """The (design, noise) generators of ``seed`` as NumPy builds them:
    ``default_rng`` on each child of ``SeedSequence(seed).spawn(2)``."""
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(2)]

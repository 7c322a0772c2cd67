"""Periodized compactly supported orthonormal wavelet bases on [0, 1].

The scaling function (father) and wavelet (mother) are tabulated on a dyadic
grid by cascade refinement of the two-scale relation; Haar's father is
evaluated in closed form and its mother by that relation.  Periodization wraps
the integer translates around the unit interval, which yields an orthonormal
family once the resolution level is at least ``coarsest_level`` (the first
level at which the wrapped translates no longer overlap themselves).

Grid convention: throughout the package, "function values on a grid of size
N" means values at the midpoints x_i = (i + 1/2)/N.  Integrals are the
periodic trapezoid rule on those samples, i.e. the plain mean.  Midpoint
sampling keeps the rule exact for piecewise-constant integrands with dyadic
breakpoints (every Haar computation), which node sampling cannot achieve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT10 = math.sqrt(10.0)
_R6 = math.sqrt(5.0 + 2.0 * _SQRT10)

# Two-scale lowpass filters h with sum(h) = sqrt(2); phi is supported on
# [0, len(h) - 1].  The Daubechies filters are the extremal-phase ones in
# closed form, so the sum rule and unit norm hold to rounding.
_FILTERS = {
    "haar": np.array([1.0, 1.0]) / SQRT2,
    "db4": np.array([1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3]) / (4.0 * SQRT2),
    "db6": np.array(
        [
            1.0 + _SQRT10 + _R6,
            5.0 + _SQRT10 + 3.0 * _R6,
            10.0 - 2.0 * _SQRT10 + 2.0 * _R6,
            10.0 - 2.0 * _SQRT10 - 2.0 * _R6,
            5.0 + _SQRT10 - 3.0 * _R6,
            1.0 + _SQRT10 - _R6,
        ]
    ) / (16.0 * SQRT2),
}

SUPPORTED_FAMILIES = tuple(sorted(_FILTERS))


def midpoint_grid(n: int) -> np.ndarray:
    """Midpoint sample locations (i + 1/2)/n of the package grid convention."""
    return (np.arange(n) + 0.5) / n


def _integer_scaling_values(h: np.ndarray) -> np.ndarray:
    """Values of the scaling function at the integers 0 .. len(h)-1.

    These are the eigenvector (eigenvalue 1) of the transfer matrix
    M[i, j] = sqrt(2) h[2i - j], normalized so the values sum to one.
    """
    n = len(h)
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            k = 2 * i - j
            if 0 <= k < n:
                m[i, j] = SQRT2 * h[k]
    eigvals, eigvecs = np.linalg.eig(m)
    idx = int(np.argmin(np.abs(eigvals - 1.0)))
    v = np.real(eigvecs[:, idx])
    return v / v.sum()


def _refine(values: np.ndarray, h: np.ndarray, level: int) -> np.ndarray:
    """One cascade step: values on step 2^-level -> values on step 2^-(level+1).

    Applies phi(t) = sqrt(2) sum_k h_k phi(2t - k); since exact samples map to
    exact samples, iterating from the integer values gives the exact table.
    """
    n = len(h)
    shift = 1 << level
    out = np.zeros((n - 1) * (shift << 1) + 1)
    for k, hk in enumerate(h):
        lo = k * shift
        out[lo : lo + len(values)] += SQRT2 * hk * values
    return out


def _wavelet_table(phi: np.ndarray, g: np.ndarray, depth: int) -> np.ndarray:
    """Wavelet values on the phi grid via psi(t) = sqrt(2) sum_k g_k phi(2t - k)."""
    size = len(phi)
    out = np.zeros(size)
    scale = 1 << depth
    u = np.arange(size)
    for k, gk in enumerate(g):
        src = 2 * u - k * scale
        ok = (src >= 0) & (src < size)
        out[ok] += SQRT2 * gk * phi[src[ok]]
    return out


@dataclass(eq=False)
class WaveletBasis:
    """Tabulated periodized wavelet pair on the unit interval.

    ``coarsest_level`` is the smallest level j at which the 2^j periodized
    translates form a genuine orthonormal family (2^j >= support_length).
    ``filters`` stacks the lowpass filter h over its highpass mirror g.
    """

    family: str
    filters: np.ndarray
    support_length: int
    coarsest_level: int
    refine_depth: int
    phi_table: np.ndarray
    psi_table: np.ndarray

    @property
    def lowpass(self) -> np.ndarray:
        return self.filters[0]

    def table_grid(self) -> np.ndarray:
        """Abscissae of the tables: 0 .. support_length, step 2^-refine_depth."""
        return np.arange(len(self.phi_table)) / (1 << self.refine_depth)

    def base(self, kind: str, t) -> np.ndarray:
        """Unperiodized father/mother value at t (zero outside [0, support])."""
        t = np.asarray(t, dtype=float)
        if self.family == "haar":
            if kind == "father":
                return ((t >= 0.0) & (t < 1.0)).astype(float)
            # The two-scale relation psi(t) = phi(2t) - phi(2t - 1) fixes the
            # jumps as the analysis filter bank sees them: psi(1/2) = -1.
            return self.base("father", 2.0 * t) - self.base("father", 2.0 * t - 1.0)
        table = self.phi_table if kind == "father" else self.psi_table
        return np.interp(t, self.table_grid(), table, left=0.0, right=0.0)


def coarsest_level(family: str) -> int:
    """First level at which the periodized translates of ``family`` stop overlapping.

    Raises ValueError for an unknown family.
    """
    if family not in SUPPORTED_FAMILIES:
        raise ValueError(
            f"unknown wavelet family {family!r}; supported: {', '.join(SUPPORTED_FAMILIES)}"
        )
    return (len(_FILTERS[family]) - 2).bit_length()


_MIN_DEPTH = {"haar": 8, "db4": 12, "db6": 10}


def check_refine_depth(family: str, refine_depth: int) -> None:
    """Raise ValueError unless the cascade depth lies in the family's floor..20.

    Below their floors (12, 10) db4 and db6 tables fail the orthonormality
    check (Haar's closed form passes at any depth); above 20 a table (about
    3 * 2^depth doubles) outgrows memory.  An unknown family raises too.
    """
    coarsest_level(family)
    if not _MIN_DEPTH[family] <= refine_depth <= 20:
        raise ValueError(
            f"refine_depth={refine_depth} out of range for {family}: need {_MIN_DEPTH[family]}..20, "
            "since shallower db4/db6 tables fail the orthonormality check; deeper ones outgrow memory"
        )


def make_basis(family: str, refine_depth: int = 12) -> WaveletBasis:
    """Construct a tabulated periodized basis for one of the built-in families.

    Raises ValueError for an unknown family or a depth outside
    ``check_refine_depth``'s range.
    """
    check_refine_depth(family, refine_depth)
    h = _FILTERS[family].copy()
    g = (-1.0) ** np.arange(len(h)) * h[::-1]  # the quadrature mirror g_k = (-1)^k h_{n-1-k}
    if family == "haar":  # its transfer matrix is the identity: phi in closed form
        phi = np.append(np.ones(1 << refine_depth), 0.0)
    else:
        phi = _integer_scaling_values(h)
        for lvl in range(refine_depth):
            phi = _refine(phi, h, lvl)
    basis = WaveletBasis(
        family=family,
        filters=np.stack([h, g]),
        support_length=len(h) - 1,
        coarsest_level=coarsest_level(family),
        refine_depth=refine_depth,
        phi_table=phi,
        psi_table=_wavelet_table(phi, g, refine_depth),
    )
    _validate_basis(basis)
    return basis


def _validate_basis(basis: WaveletBasis) -> None:
    h = basis.lowpass
    if abs(h.sum() - SQRT2) > 1e-12:
        raise ValueError(f"lowpass filter of {basis.family} does not sum to sqrt(2)")
    step = 0.5 ** basis.refine_depth
    tol = 2.0 ** (-basis.refine_depth / 2.0)
    phi_int = np.trapezoid(basis.phi_table, dx=step)
    psi_int = np.trapezoid(basis.psi_table, dx=step)
    if abs(phi_int - 1.0) > tol or abs(psi_int) > tol:
        raise ValueError(
            f"tabulated integrals of {basis.family} at depth {basis.refine_depth} "
            f"miss their targets (phi: {phi_int:.3e}, psi: {psi_int:.3e})"
        )
    # Orthonormality of the coarsest periodized scaling family, from the values
    # every coefficient sum reads; its circulant Gram matrix is I if row 0 is.
    tau = basis.coarsest_level
    grid = 1 << min(tau + 12, 18)
    gram = _gram_row(_first_cell(basis, tau, grid), 1 << tau) / grid
    if np.max(np.abs(gram - np.eye(1 << tau)[0])) > 1e-6:
        raise ValueError(
            f"periodized level-{tau} family of {basis.family} fails the "
            f"orthonormality check at depth {basis.refine_depth}"
        )


@dataclass(eq=False)
class CoefficientTree:
    """Wavelet coefficients: scaling at level j0, details on levels j0 .. jmax.

    ``jmax = j0 - 1`` encodes a tree with no detail levels.  ``beta[i]`` holds
    the 2^(j0+i) detail coefficients of level j0 + i along its last axis.
    Leading axes, the same for every array, stack trees: row r of each array
    belongs to the r-th tree.
    """

    j0: int
    jmax: int
    alpha: np.ndarray
    beta: list

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = [np.asarray(b, dtype=float) for b in self.beta]
        rows = self.alpha.shape[:-1]
        if self.alpha.shape[-1:] != (1 << self.j0,):
            raise ValueError(f"alpha must hold {1 << self.j0} values")
        if len(self.beta) != self.jmax - self.j0 + 1:
            raise ValueError("beta must hold one array per level j0..jmax")
        stacked = f" per tree of the {rows} stack" if rows else ""
        for i, b in enumerate(self.beta):
            if b.shape != rows + (1 << (self.j0 + i),):
                raise ValueError(f"level {self.j0 + i} must hold {1 << (self.j0 + i)} values"
                                 + stacked)
        if not (np.all(np.isfinite(self.alpha)) and all(np.all(np.isfinite(b)) for b in self.beta)):
            raise ValueError("coefficients must be finite")

    def detail(self, j: int) -> np.ndarray:
        if not self.j0 <= j <= self.jmax:
            raise ValueError(f"level {j} outside [{self.j0}, {self.jmax}]")
        return self.beta[j - self.j0]

    def copy(self) -> "CoefficientTree":
        """An independent copy, built without re-running the checks that
        ``self`` already passed."""
        tree = object.__new__(type(self))
        tree.j0, tree.jmax = self.j0, self.jmax
        tree.alpha, tree.beta = self.alpha.copy(), [b.copy() for b in self.beta]
        return tree


def _row_buffers(basis: WaveletBasis) -> int:
    """How many n-length float buffers ``_level_rows`` takes as ``out``."""
    return 3 if basis.support_length == 1 else 6


def _level_rows(basis: WaveletBasis, j: int, x: np.ndarray, out=None):
    """Yield the contributing (wrapped translate index, value) rows of the
    level-j scaling translates at x, one per m = 0 .. support_length - 1, in
    n-length buffers that each next row overwrites, so a caller may scale a
    row in place.  ``out``, at least ``_row_buffers(basis)`` float arrays of
    x's size, serves as the buffers when given (else they are allocated):
    the values go in the first, the index in an int64 view of the second,
    the third is scratch that is free once a row is yielded, and the rest
    hold the per-point set-up.  x may be the first buffer itself: it is read
    only before the first row is written.

    With t = 2^j x and k0 = floor(t), translate k0 - m is evaluated at
    t - k0 + m, which lies in [m, m + 1).  The support is [0, support_length],
    so only these m can be nonzero; periodization is the wrap k mod 2^j.

    One floor serves both scales: q = floor(2^(j + depth) x) gives the
    translate k0 = q >> depth, the table cell q mod 2^depth of t - k0 and the
    exact interpolation weight 2^(j + depth) x - q.  Haar's father is the box
    on [0, 1), so its single row is translate k0 at the constant 2^(j/2).
    """
    amp = 2.0 ** (j / 2.0)
    wrap = (1 << j) - 1
    if out is None:  # one (6, n) block took fit 270 more minor faults a call at n = 2^16
        out = [np.empty(x.size) for _ in range(_row_buffers(basis))]
    val, idx, hi, *setup = out
    idx = idx.view(np.int64)
    if basis.family == "haar":
        np.floor(np.ldexp(x, j, out=val), out=val)
        np.copyto(idx, val, casting="unsafe")
        idx &= wrap
        val.fill(amp)
        yield idx, val
        return
    depth = basis.refine_depth
    frac, rest, cell = setup[:3]
    cell = cell.view(np.int64)
    np.ldexp(x, j + depth, out=frac)
    np.floor(frac, out=rest)
    frac -= rest
    np.copyto(idx, rest, casting="unsafe")
    # Row m reads the table from cell m * 2^depth on, at cells i and i + 1;
    # every such cell exists, so "clip" only spares take its bounds check.
    np.bitwise_and(idx, (1 << depth) - 1, out=cell)
    idx >>= depth
    np.subtract(1.0, frac, out=rest)
    for m in range(basis.support_length):
        if m:  # translate k0 - m, from k0 - m + 1 (mod 2^j)
            idx -= 1
        idx &= wrap
        basis.phi_table[m << depth:].take(cell, out=val, mode="clip")
        val *= rest
        basis.phi_table[(m << depth) + 1:].take(cell, out=hi, mode="clip")
        hi *= frac
        val += hi
        val *= amp
        yield idx, val


def _scaling_sums(basis: WaveletBasis, j: int, x, w, out=None) -> np.ndarray:
    """The weighted sums sum_i w_i phi_{j,k}(x_i) of the 2^j level-j scaling
    translates, accumulated in the order of ``x``, one translate row after
    another: the additions of one ``bincount`` over the stacked rows.
    ``out`` as in ``_level_rows``."""
    rows = _level_rows(basis, j, x, out)
    idx, val = next(rows)
    val *= w
    sums = np.bincount(idx, weights=val, minlength=1 << j)
    for idx, val in rows:
        val *= w
        np.add.at(sums, idx, val)
    return sums


def _analysis(basis: WaveletBasis, j0: int, jmax: int, scaling: np.ndarray) -> CoefficientTree:
    """The tree on levels j0 .. jmax of the level-(jmax + 1) scaling
    coefficients ``scaling``: one analysis step per level.  Leading axes of
    ``scaling`` stack trees, and each row comes out as it would alone."""
    alpha, beta = scaling, []
    for _ in range(j0, jmax + 1):
        alpha, detail = _forward_step(basis, alpha)
        beta.insert(0, detail)
    return CoefficientTree(j0=j0, jmax=jmax, alpha=alpha, beta=beta)


def _coefficient_tree(basis: WaveletBasis, j0: int, jmax: int, x, w) -> CoefficientTree:
    """Tree of the weighted sums sum_i w_i f_{j,k}(x_i) on levels j0 .. jmax:
    the scaling sums at level jmax + 1, then the analysis steps down to j0.
    The sums follow the order of ``x``, so the result depends on that order
    only through floating-point rounding."""
    return _analysis(basis, j0, jmax, _scaling_sums(basis, jmax + 1, x, w))


def _inverse_step(basis: WaveletBasis, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """One periodic synthesis step (Mallat 1989): level-j scaling and detail
    coefficients to the 2^(j+1) scaling coefficients of level j + 1, along
    the last axis.

    From phi_{j,k} = sum_m h_m phi_{j+1,2k+m} and psi_{j,k} = sum_m g_m
    phi_{j+1,2k+m}, with translates wrapped mod 2^(j+1).
    """
    dim = 2 * alpha.shape[-1]
    even = np.arange(0, dim, 2)
    out = np.zeros(alpha.shape[:-1] + (dim,))
    for m, (hm, gm) in enumerate(basis.filters.T):
        out[..., (even + m) % dim] += hm * alpha + gm * beta
    return out


def _forward_step(basis: WaveletBasis, scaling: np.ndarray):
    """One periodic analysis step (Mallat 1989), the adjoint of _inverse_step:
    level-(j + 1) scaling coefficients a to the level-j alpha_k = sum_m h_m
    a_{2k+m} and beta_k = sum_m g_m a_{2k+m}, with 2k + m wrapped mod 2^(j+1),
    along the last axis, each sum added from zero in tap order, one tap at a time."""
    dim = scaling.shape[-1]
    alpha = np.zeros(scaling.shape[:-1] + (dim // 2,))
    beta = np.zeros_like(alpha)
    for m, (hm, gm) in enumerate(basis.filters.T):
        tap = scaling[..., np.arange(m, m + dim, 2) % dim]
        alpha += hm * tap
        beta += gm * tap
    return alpha, beta


def _lift(basis: WaveletBasis, tree: CoefficientTree):
    """The inverse periodic DWT of ``tree``: its top level J = jmax + 1 (j0
    when the tree has no detail levels) and the 2^J scaling coefficients
    there, whose father series equals the tree's series; a stacked tree
    lifts row by row."""
    alpha = tree.alpha
    for b in tree.beta:
        alpha = _inverse_step(basis, alpha, b)
    return tree.j0 + len(tree.beta), alpha


def evaluate_tree(basis: WaveletBasis, tree: CoefficientTree, x, out=None) -> np.ndarray:
    """Evaluate the finite wavelet series of ``tree`` at arbitrary points, of
    any shape (a scalar for a scalar): lift it to its top level, then
    evaluate that level's scaling translates, gathering each row's
    coefficients into the rows' scratch buffer.  ``out``, at least 1 +
    ``_row_buffers(basis)`` float arrays of x's size, holds the values and
    then the rows' buffers when given."""
    x = np.asarray(x, dtype=float)
    top, alpha = _lift(basis, tree)
    values, *rows = np.empty((1 + _row_buffers(basis), x.size)) if out is None else out
    np.mod(x.ravel(), 1.0, out=rows[0])
    values.fill(0.0)
    for idx, val in _level_rows(basis, top, rows[0], rows):
        val *= alpha.take(idx, out=rows[2], mode="clip")
        values += val
    return values.reshape(x.shape)[()]


def synthesize(basis: WaveletBasis, tree: CoefficientTree, grid_size: int) -> np.ndarray:
    """Values of the wavelet series on the midpoint grid of ``grid_size`` points.

    As ``evaluate_tree``, on the grid: the tree is lifted to its top level J
    and the level-J scaling translates are evaluated once.  ``grid_size``
    must be a power of two, so no midpoint lands on a level-J breakpoint
    and, for a deep enough table, every point is a table node.
    """
    if grid_size < 1 or grid_size & (grid_size - 1):
        raise ValueError(f"grid_size={grid_size} must be a power of two")
    if grid_size < 1 << (max(tree.jmax, tree.j0) + 2):
        raise ValueError(
            f"grid_size={grid_size} cannot resolve levels up to {tree.jmax}"
        )
    top, alpha = _lift(basis, tree)
    return _grid_series(alpha, _first_cell(basis, top, grid_size), np.empty(grid_size))


def _first_cell(basis: WaveletBasis, top: int, grid_size: int) -> np.ndarray:
    """Level-``top`` father values at the midpoints of the first level-top
    cell of the ``grid_size`` grid, one row per contributing translate."""
    first_cell = (np.arange(grid_size >> top) + 0.5) / grid_size
    return np.array([val.copy() for _, val in _level_rows(basis, top, first_cell)])


def _gram_row(cell: np.ndarray, dim: int) -> np.ndarray:
    """First row of the circulant Gram matrix G = Phi^T Phi of the ``dim``
    level-J translates, Phi holding their values on the grid whose first
    level-J cell ``_first_cell`` gave as ``cell``: cell c pairs translates
    c - m and c - m', so G[k, k'] sums the first-cell products
    cell[m] . cell[m'] over m - m' = k' - k (mod dim)."""
    taps = np.arange(len(cell))
    return np.bincount(((taps[:, None] - taps) % dim).ravel(),
                       weights=(cell @ cell.T).ravel(), minlength=dim)


def _grid_series(alpha: np.ndarray, cell: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Grid values of the father series of one row of level-J scaling
    coefficients ``alpha``, given ``_first_cell``'s values, written into and
    returned as ``out``: every level-J cell holds the same midpoint offsets,
    so cell c sees translate (c - m) mod 2^J.  The terms are summed from +0.0
    in translate order, so even the sign of a zero is fixed; each term after
    the first is written into one temporary, reused across translates."""
    view = out.reshape(len(alpha), -1)
    np.copyto(view, alpha[:, None])  # then a contiguous product, faster than a broadcast one
    view *= cell[0]
    view += 0.0  # 0.0 + the first term: a -0.0 becomes +0.0
    term = np.empty_like(view) if len(cell) > 1 else None
    for m in range(1, len(cell)):
        view += np.multiply(np.roll(alpha, m)[:, None], cell[m], out=term)
    return out


def exact_coefficients(
    basis: WaveletBasis, values: np.ndarray, j0: int, jmax: int
) -> CoefficientTree:
    """Quadrature coefficients of a function given by grid values.

    Serves as the ground-truth oracle for the regression estimators: each
    coefficient is the periodic trapezoid approximation of the integral of
    f against the corresponding basis function, computed as the estimator's
    sums are, with the grid midpoints as points and values / len(values) as
    weights.
    """
    values = np.asarray(values, dtype=float)
    if not basis.coarsest_level <= j0 <= max(jmax, j0):
        raise ValueError(f"need coarsest_level <= j0, got j0={j0}")
    if jmax >= j0 and len(values) < 1 << (jmax + 6):
        raise ValueError(
            f"grid of {len(values)} points cannot resolve coefficients to level {jmax}"
        )
    grid = len(values)
    return _coefficient_tree(basis, j0, jmax, midpoint_grid(grid), values / grid)

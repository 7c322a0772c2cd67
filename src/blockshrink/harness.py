"""Monte Carlo risk estimation and rate/concentration diagnostics.

The harness measures the integrated l^p error of the block estimator across
a grid of sample sizes, fits the log-log decay slope, and compares it to the
theoretical risk exponent of the configured Besov ball.  ``run_diagnostics``
checks, at the config's diagnose fields, the 2p-th moment decay
E|beta_hat - beta|^{2p} ~ n^{-p} and the tail bound P(the estimator's block
statistic of the deviations >= mu/2 sqrt(n)) <= 4 n^{-p}.

Everything is deterministic given the master seed: replication seeds derive
from (master_seed, n, replication index), so enlarging the n grid never
perturbs existing replications.

Each n runs in two stages, on one thread.  The per-replication stage (draw,
weights, and the scaling sums one level above the finest) runs once per
replication, in replication order, from streams that one vectorized pass
seeds for all R replications.  The per-n stage stacks those sums as an
(R, 2^(j+1)) matrix and runs the analysis filter bank, the finiteness check,
and each rule's thresholding and lift once on the whole stack.  At p = 2
each rule's whole stack is then scored in coefficient space; at any other p
the risk-grid values are computed one replication at a time, each written
into and scored in place in one risk-grid buffer that the run allocates once.
"""

from __future__ import annotations

import math
import numbers
import reprlib
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .basis import (CoefficientTree, _analysis, _first_cell, _gram_row, _grid_series, _lift,
                    _row_buffers, _scaling_sums, check_refine_depth, coarsest_level,
                    make_basis, midpoint_grid)
from .besov import ball_from_spec, make_test_function, rate_spec, signal_spec
# generate_sample is not called here; perfbench/tests/test_perfbench.py
# asserts that perfbench's tracing leaves this binding the original function.
from .design import (_draw_sample, _replication_words, _streams, density_from_spec,  # noqa: F401
                     generate_sample)
from .estimator import _weights, block_grid, block_statistics, threshold_tree

_Z95 = 1.959963984540054
# Largest risk grid: 2^20 midpoints (8 MiB of doubles per evaluated function).
_MAX_RISK_GRID = 1 << 20
# Largest sample size: one db4 or db6 replication at 2^20 peaks at 56 MiB of
# tracemalloc-traced allocations on a named signal and 72 MiB on a
# random_besov one, Haar at 40 and 48 MiB.
_MAX_SAMPLE = 1 << 20
# The concentration check's mu sweep, in multiples of mu.
_MU_FACTORS = (0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.0)
# Most replications: at n = 2^20 the (R, 2^(j_high + 1)) stack of scaling
# sums is then 0.25 GiB.  A per-n stage peaks at about 4 stacks of traced
# allocations while it builds the tree (the sums, the stack and the analysis)
# plus the replication workspace, and at about 6 in rates' rules loop, which
# holds the tree while each rule thresholds a copy, lifts and scores it.
_MAX_REPLICATIONS = 1 << 16

# Accepted Python types per annotated field type; bool is never a number here.
_FIELD_TYPES = {
    "int": numbers.Integral,
    "float": numbers.Real,
    "float | None": (numbers.Real, type(None)),
    "bool": bool,
    "str": str,
    "tuple": (list, tuple),
    "dict": (dict, str),
}


class ConfigError(ValueError):
    """Raised for malformed or out-of-range configuration input."""


@dataclass
class ExperimentConfig:
    """Inputs of one reproducible experiment."""

    signal: dict = field(default_factory=lambda: {"name": "heavisine"})
    density: dict = field(default_factory=lambda: {"kind": "uniform"})
    basis_family: str = "haar"
    refine_depth: int = 12
    p: float = 2.0
    d: float = 4.0
    n_grid: tuple = (1024, 2048, 4096, 8192, 16384)
    replications: int = 100
    master_seed: int = 0
    risk_grid: int = 1 << 14
    ball: dict = field(default_factory=lambda: {"s": 1, "pi": "inf", "r": "inf"})
    jmax: int = 8
    noiseless: bool = False
    compare_term: bool = False
    term_c: float = 2.0
    slope_tol: float = 0.15
    moment_tol: float = 0.3
    # diagnose: the coefficient (j, k) of the moment check, the level and
    # block of the concentration check, and its mu (None means 2 d)
    moment_level: int = 3
    moment_index: int = 2
    conc_level: int = 3
    conc_block: int = 0
    conc_mu: float | None = None

    def validate(self) -> tuple:
        """Check every field; return the config's design density, the block
        grids of ``n_grid`` in its order and the ball's ``RateSpec`` at p.

        Float fields must hold finite floats.  Raises ValueError naming the
        first malformed or out-of-range field.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = _FIELD_TYPES[f.type]
            if not isinstance(value, kinds) or (isinstance(value, bool) and kinds is not bool):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
            if f.type.startswith("float") and not abs(value or 0.0) <= sys.float_info.max:
                raise ValueError(f"{f.name}={reprlib.repr(value)} must be finite")
        ns = tuple(self.n_grid)
        if any(isinstance(n, bool) or not isinstance(n, numbers.Integral) for n in ns):
            raise ValueError(f"n_grid entries must be integers, got {list(ns)!r}")
        if len(ns) == 0 or any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if not 256 <= min(ns) <= max(ns) <= _MAX_SAMPLE:
            raise ValueError(f"n_grid entries must lie in 256..{_MAX_SAMPLE}, got {list(ns)!r}")
        if not 50 <= self.replications <= _MAX_REPLICATIONS:
            raise ValueError(f"replications must lie in 50..{_MAX_REPLICATIONS}, "
                             f"got {self.replications}")
        for name in ("d", "master_seed", "slope_tol", "moment_tol", "conc_mu"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name}={value} must be nonnegative")
        if self.term_c <= 0:
            raise ValueError(f"term_c={self.term_c} must be positive")
        if not 1024 <= self.risk_grid <= _MAX_RISK_GRID or self.risk_grid & (self.risk_grid - 1):
            raise ValueError(
                f"risk_grid={self.risk_grid} must be a power of two from 1024 to {_MAX_RISK_GRID}"
            )
        try:
            j0 = coarsest_level(self.basis_family)
        except ValueError as exc:
            raise ValueError(f"basis_family: {exc}") from exc
        check_refine_depth(self.basis_family, self.refine_depth)
        grids = tuple(block_grid(int(n), self.p, j0) for n in ns)  # block_grid checks p and n
        signal_spec(self.signal, j0, self.jmax)
        try:
            ball = ball_from_spec(self.ball)
            rate = rate_spec(ball.s, ball.pi, ball.r, self.p)
        except ValueError as exc:
            raise ValueError(f"ball: {exc}") from exc
        return density_from_spec(self.density), grids, rate


def _lp_mean(diff: np.ndarray, p: float) -> float:
    """mean |diff|^p, overwriting ``diff`` with |diff|^p on the way."""
    if p != 2:  # a square needs no abs: d * d and |d| * |d| are the same bits
        np.abs(diff, out=diff)
    diff **= p
    return float(diff.sum()) / diff.size


def _grid_risks(lifted: np.ndarray, cell: np.ndarray, truth: np.ndarray, p: float,
                buf: np.ndarray) -> np.ndarray:
    """The l^p risk against ``truth`` of the grid series of each row of level-J
    scaling coefficients ``lifted`` (see ``basis._grid_series``), one row at
    a time, each written into and scored in place in ``buf``."""
    risks = np.empty(len(lifted))
    for r, alpha in enumerate(lifted):
        _grid_series(alpha, cell, buf)
        buf -= truth
        risks[r] = _lp_mean(buf, p)
    return risks


def _projection(cell: np.ndarray, truth: np.ndarray, buf: np.ndarray):
    """The level-J projection of ``truth``, for ``_l2_risks``: the first row
    of the Gram matrix G / N, the projection's coefficients a* and its l^2
    risk, the residual, scored on the grid in ``buf``.

    Phi holds the N risk-grid values of the 2^J level-J translates, and
    G = Phi^T Phi is circulant (see ``basis._gram_row``).  a* solves
    G a* = Phi^T truth.
    """
    dim = len(truth) // cell.shape[1]
    gram = _gram_row(cell, dim)
    cells = truth.reshape(dim, -1)  # (Phi^T truth)_k = sum_m cells[k + m] . cell[m]
    rhs = sum(np.roll(cells @ row, -m) for m, row in enumerate(cell))
    k = np.arange(dim)
    best = np.linalg.solve(gram[(k - k[:, None]) % dim], rhs)
    _grid_series(best, cell, buf)
    buf -= truth
    return gram / len(truth), best, _lp_mean(buf, 2)


def _l2_risks(lifted: np.ndarray, gram: np.ndarray, best: np.ndarray,
              floor: float) -> np.ndarray:
    """``_grid_risks`` at p = 2 of each row alpha of a lifted stack, scored
    in coefficient space from ``_projection``'s ``gram``, ``best`` and
    ``floor``:

        ||Phi alpha - truth||^2 / N = (alpha - a*)^T (G / N) (alpha - a*) + floor,

    two terms that are never negative.  The expansion through
    alpha^T G alpha - 2 alpha^T Phi^T truth cancels instead, and can come
    out negative for an estimate close to the truth.  G is banded (translates
    more than the support length apart do not overlap), so a row costs
    O(2^J) per diagonal instead of a pass over the risk grid.
    """
    err = lifted - best
    quad = sum(gram[d] * np.einsum("ri,ri->r", err, np.roll(err, -d, axis=1))
               for d in np.flatnonzero(gram))
    return quad + floor


def fit_rate(points):
    """Least-squares slope of log(risk) against log(n).

    Returns (slope, intercept, slope standard error).  Requires at least
    three points with positive risks.
    """
    pts = [(float(n), float(r)) for n, r in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit a rate")
    if any(r <= 0 for _, r in pts):
        raise ValueError("risks must be positive to fit a log-log rate")
    x = np.log([n for n, _ in pts])
    y = np.log([r for _, r in pts])
    xc = x - x.mean()
    slope = float(np.dot(xc, y) / np.dot(xc, xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - slope * x - intercept
    dof = len(pts) - 2
    stderr = float(np.sqrt(np.dot(resid, resid) / dof / np.dot(xc, xc)))
    return slope, intercept, stderr


def wilson_upper(successes: int, trials: int, z: float = _Z95) -> float:
    """Upper end of the Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = phat + z * z / (2.0 * trials)
    spread = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
    return (center + spread) / denom


def _materialize(config: ExperimentConfig):
    density, grids, rate = config.validate()
    basis = make_basis(config.basis_family, config.refine_depth)
    signal = make_test_function(config.signal, basis, config.jmax)
    return basis, density, signal, grids, rate


def _replicate(config: ExperimentConfig, basis, grid, density, signal) -> CoefficientTree:
    """The stacked coefficient trees of every replication at ``grid.n``:
    row rep of each array holds replication rep's tree on the grid's levels.

    One vectorized pass seeds the design and noise streams of all R
    replications (those of ``replication_seed`` and ``generate_sample``).
    Replication rep then draws its sample, reads g off the draw, and sums
    its reweighted scaling functions at ``grid.j_high + 1`` in the order the
    seed drew the points.  The seed fixes that order, so no sort is needed
    for results to replay exactly.  The analysis steps then run once on the
    stack of sums, in replication order, and each row comes out as the
    replication's tree alone would.

    Every n-length array of a replication lives in one workspace of
    n-length buffers, allocated once per n and shared by the stages: the
    uniforms, then x, in buffer 0; g in buffer 1; the signal from buffer 2
    on; the noise, then y, in buffer 3; the weights in buffer 4; and the
    translate rows in every buffer but the weights', from x's on.  Allocated
    per replication, these arrays made glibc trim and regrow its heap in
    every replication once n passed 2^14.
    """
    reps = np.arange(config.replications, dtype=np.uint32)
    seeds = _replication_words(config.master_seed, grid.n, [reps])
    rows = _row_buffers(basis)
    work = list(np.empty((max(2 + signal.buffers, 1 + rows), grid.n)))
    row_work = [*work[:4], *work[5:]][:rows]

    def one(rngs):
        sample = _draw_sample(signal.fn, density, grid.n, rngs, config.noiseless, work)
        x, w = sample.x, _weights(sample, sample.g, density, work[4])
        return _scaling_sums(basis, grid.j_high + 1, x, w, row_work)

    sums = [one(rngs) for rngs in _streams(seeds)]
    return _analysis(basis, grid.j_low, grid.j_high, np.stack(sums))


def _check_slope_grid(config: ExperimentConfig) -> None:
    """A slope is fitted across ``n_grid``, which therefore needs three sizes."""
    if len(config.n_grid) < 3:
        raise ConfigError(
            f"n_grid needs at least 3 sample sizes to fit a slope, got {list(config.n_grid)}"
        )


@dataclass
class RiskReport:
    """Mean l^p risks across n with the fitted decay slope vs theory."""

    n_grid: tuple
    mean_risk: list
    stderr: list
    slope: float
    slope_stderr: float
    intercept: float
    theory_risk_exponent: float
    theory_log_exponent: float
    zone: str
    slope_tol: float
    passed: bool
    comparison: list
    meta: dict


def run_rate_experiment(config: ExperimentConfig) -> RiskReport:
    """Monte Carlo risk-decay experiment against the theoretical exponent.

    For each n the block estimator is fit on R independent replications and
    the integrated l^p error against the true signal is averaged; the fitted
    log-log slope is compared with the ball's risk exponent (exponents are
    the falsifiable content of the rate theory; constants are not).  With
    ``config.compare_term`` the same replications also score term-by-term
    hard/soft baselines, reported descriptively and never gated.  At p = 2
    each rule's risks come from ``_l2_risks`` (coefficient space, within a
    relative 1e-12 of the grid's ``_grid_risks``), at any other p from
    ``_grid_risks`` itself.
    """
    basis, density, signal, grids, rate = _materialize(config)
    _check_slope_grid(config)
    truth = signal.fn(midpoint_grid(config.risk_grid))
    ns = tuple(grid.n for grid in grids)
    R = config.replications
    rules = [("block", config.d)]
    if config.compare_term:
        rules += [("hard", config.term_c), ("soft", config.term_c)]
    buf = np.empty(config.risk_grid)

    def risks_at(grid):
        stack = _replicate(config, basis, grid, density, signal)
        cell = _first_cell(basis, grid.j_high + 1, config.risk_grid)
        projection = _projection(cell, truth, buf) if config.p == 2 else None
        risks = np.empty((R, len(rules)))
        for i, (rule, c) in enumerate(rules):
            _, lifted = _lift(basis, threshold_tree(stack, grid, rule, c).tree)
            risks[:, i] = (_l2_risks(lifted, *projection) if projection
                           else _grid_risks(lifted, cell, truth, config.p, buf))
        return risks

    risks = {grid.n: risks_at(grid) for grid in grids}
    means = [float(risks[n][:, 0].mean()) for n in ns]
    errs = [float(risks[n][:, 0].std(ddof=1) / math.sqrt(R)) for n in ns]
    slope, intercept, slope_err = fit_rate(zip(ns, means))
    theory = float(rate.risk_exponent)
    passed = abs(slope - theory) <= config.slope_tol
    comparison = []
    if config.compare_term:
        for i, n in enumerate(ns):
            comparison.append(
                {
                    "n": n,
                    "block": means[i],
                    "hard": float(risks[n][:, 1].mean()),
                    "soft": float(risks[n][:, 2].mean()),
                }
            )
    return RiskReport(
        n_grid=ns,
        mean_risk=means,
        stderr=errs,
        slope=slope,
        slope_stderr=slope_err,
        intercept=intercept,
        theory_risk_exponent=theory,
        theory_log_exponent=float(rate.log_exponent),
        zone=rate.zone,
        slope_tol=config.slope_tol,
        passed=bool(passed),
        comparison=comparison,
        meta={
            "signal": signal.name,
            "density": config.density,
            "basis": basis.family,
            "p": config.p,
            "d": config.d,
            "replications": R,
            "master_seed": config.master_seed,
            "noiseless": config.noiseless,
        },
    )


@dataclass
class MomentReport:
    """Decay of the 2p-th central moment of one empirical coefficient."""

    j: int
    k: int
    n_grid: tuple
    moments: list
    stderr: list
    slope: float
    slope_stderr: float
    theory_exponent: float
    tol: float
    passed: bool


def _check_diagnose_ranges(config: ExperimentConfig, grids) -> None:
    """Check the moment check's (level, translate) and the concentration
    check's (level, block) against the estimator's levels in the ``grids``
    of ``n_grid``.

    Raises ConfigError naming the config field and the ``n_grid`` entry, or
    naming ``conc_mu`` (``d`` when it is None) for a mu whose sweep overflows.
    """
    mu = float(2.0 * config.d if config.conc_mu is None else config.conc_mu)
    if not math.isfinite(mu * max(_MU_FACTORS) * 1e10):  # np.round(., 10) scales by 1e10
        name = "d" if config.conc_mu is None else "conc_mu"
        raise ConfigError(f"{name}={reprlib.repr(getattr(config, name))} gives mu={mu:g}, whose "
                          f"sweep overflows: mu must stay below "
                          f"{sys.float_info.max / (max(_MU_FACTORS) * 1e10):.4g}")
    for grid in grids:
        for level_field, index_field, count in (
            ("moment_level", "moment_index", lambda j: 1 << j),
            ("conc_level", "conc_block", grid.block_count),
        ):
            j, index = getattr(config, level_field), getattr(config, index_field)
            top = min(grid.j_high, config.jmax)
            if not grid.j_low <= j <= top:
                raise ConfigError(
                    f"{level_field}={j} outside the estimator levels {grid.j_low}..{top} "
                    f"at n={grid.n} of n_grid (at most jmax={config.jmax})"
                )
            if not 0 <= index < count(j):
                raise ConfigError(
                    f"{index_field}={index} out of range at level {j}, n={grid.n} of n_grid"
                )


def coefficient_deviations(config: ExperimentConfig, grid, basis, density, signal) -> dict:
    """Coefficient errors beta_hat - beta of every replication at ``grid.n``.

    Returns {j: (replications, 2^j) matrix} for each level j of the block
    grid up to the signal's jmax.  Each sample is drawn once and its scaling
    sums computed once, in the order drawn, so several checks share one pass.
    """
    levels = range(grid.j_low, min(grid.j_high, signal.tree.jmax) + 1)
    stack = _replicate(config, basis, grid, density, signal)
    return {j: stack.detail(j) - signal.tree.detail(j) for j in levels}


def _score_moment(config: ExperimentConfig, devs: dict) -> MomentReport:
    """Score the moment check on the config's (moment_level, moment_index)
    from {n: {j: deviations}}."""
    j, k = config.moment_level, config.moment_index
    ns = tuple(devs)
    power = 2.0 * config.p
    moments, errs = [], []
    for n in ns:
        vals = np.abs(devs[n][j][:, k]) ** power
        moments.append(float(vals.mean()))
        errs.append(float(vals.std(ddof=1) / math.sqrt(len(vals))))
    slope, _, slope_err = fit_rate(zip(ns, moments))
    theory = -float(config.p)
    passed = abs(slope - theory) <= config.moment_tol
    return MomentReport(
        j=j,
        k=k,
        n_grid=ns,
        moments=moments,
        stderr=errs,
        slope=slope,
        slope_stderr=slope_err,
        theory_exponent=theory,
        tol=config.moment_tol,
        passed=bool(passed),
    )


@dataclass
class ConcentrationReport:
    """Tail behaviour of the block l^p deviation statistic across n."""

    j: int
    block: int
    mu: float
    n_grid: tuple
    frequency: list
    wilson_upper: list
    envelope: list
    median_stat: list
    median_slope: float
    mu_sweep: list
    smallest_passing_mu: float
    passed: bool


def _score_concentration(config: ExperimentConfig, grids, devs: dict) -> ConcentrationReport:
    """Score the concentration check on the config's (conc_level, conc_block)
    from the block ``grids`` of ``n_grid`` and {n: {j: deviations}};
    ``conc_mu`` None means mu = 2 d.

    The gating event is block statistic >= mu/2 * n^{-1/2}; the envelope is
    4 n^{-p}.  A sweep over smaller and larger mu is reported alongside (the
    theory guarantees only that a large enough mu works, not its value).
    """
    j, block, p = config.conc_level, config.conc_block, config.p
    mu = float(2.0 * config.d if config.conc_mu is None else config.conc_mu)
    sweep = sorted({float(m) for m in np.round(mu * np.array(_MU_FACTORS), 10)} | {mu})
    gated = sweep.index(mu)
    ns = tuple(grid.n for grid in grids)
    hits, envs, medians = [], [], []
    for n, grid in zip(ns, grids):
        stats = block_statistics(devs[n][j], grid.boundaries(j), p)[:, block]
        cuts = 0.5 * np.array(sweep) / math.sqrt(n)
        hits.append(np.count_nonzero(stats[:, None] >= cuts, axis=0).tolist())
        envs.append(4.0 * n ** (-p))
        medians.append(float(np.median(stats)))
    R = config.replications
    table = [[h / R for h in row] for row in hits]
    passing = [i for i in range(len(sweep)) if all(row[i] <= e for row, e in zip(table, envs))]
    median_slope, _, _ = fit_rate(zip(ns, medians))
    return ConcentrationReport(
        j=j,
        block=block,
        mu=mu,
        n_grid=ns,
        frequency=[row[gated] for row in table],
        wilson_upper=[wilson_upper(row[gated], R) for row in hits],
        envelope=envs,
        median_stat=medians,
        median_slope=median_slope,
        mu_sweep=[{"n": n, "mu": list(sweep), "frequency": row} for n, row in zip(ns, table)],
        smallest_passing_mu=sweep[passing[0]] if passing else math.inf,
        passed=gated in passing,
    )


def run_diagnostics(config: ExperimentConfig) -> tuple[MomentReport, ConcentrationReport]:
    """The moment and concentration checks on the config's diagnose fields.

    Both fields' ranges are checked at every n before any sample is drawn;
    then every (n, replication) sample is drawn once for both checks.
    """
    basis, density, signal, grids, _ = _materialize(config)
    _check_slope_grid(config)
    _check_diagnose_ranges(config, grids)
    devs = {grid.n: coefficient_deviations(config, grid, basis, density, signal)
            for grid in grids}
    return _score_moment(config, devs), _score_concentration(config, grids, devs)


def calibrate_threshold(
    n: int = 4096,
    p: float = 2.0,
    replications: int = 2000,
    seed: int = 20240,
    candidates=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0),
) -> list:
    """Pure-noise false-keep rate per block for a sweep of threshold constants.

    Re-derives the default keep-or-kill constant: the default 4 must show a
    per-block false-keep rate below 1% on uniform-design pure noise.  One
    replication pass serves every level.
    """
    config = ExperimentConfig(
        signal={"name": "zero"},
        n_grid=(n,),
        replications=replications,
        master_seed=seed,
        p=p,
    )
    basis, density, signal, (grid,), _ = _materialize(config)
    devs = coefficient_deviations(config, grid, basis, density, signal)
    stats = np.concatenate(
        [block_statistics(dev, grid.boundaries(j), p) for j, dev in devs.items()], axis=1
    )
    return [
        {"d": float(d),
         "false_keep_rate": np.count_nonzero(stats >= d / math.sqrt(n)) / stats.size}
        for d in candidates
    ]

"""Besov sequence seminorms, risk-rate zones, and test-function generation.

The rate calculator works in exact rational arithmetic so the measure-zero
critical zone (epsilon exactly 0) is never decided by float comparison.
Smoothness/shape parameters may be given as int, Fraction, exact strings
like "5/2", or float (converted exactly, so 2.5 is 5/2 but 0.3 is the binary
float, not 3/10).  Infinite shape/fine indices follow the usual sup/max
modification.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .basis import CoefficientTree, WaveletBasis, evaluate_tree, exact_coefficients, midpoint_grid

INF = math.inf


def as_rational(value):
    """Exact Fraction, or math.inf for the infinite index."""
    if value == INF:
        return INF
    if isinstance(value, str) and value.strip().lower() in ("inf", "infinity"):
        return INF
    return Fraction(value)


def _inv(value):
    return Fraction(0) if value == INF else 1 / value


@dataclass(frozen=True)
class BesovBall:
    """Ball parameters: smoothness s, shape pi, fine index r."""

    s: object
    pi: object
    r: object

    def __post_init__(self):
        object.__setattr__(self, "s", as_rational(self.s))
        object.__setattr__(self, "pi", as_rational(self.pi))
        object.__setattr__(self, "r", as_rational(self.r))
        if self.s == INF or self.s <= 0:
            raise ValueError("smoothness s must be a finite positive number")
        if self.pi != INF and self.pi < 1:
            raise ValueError("shape index pi must lie in [1, inf]")
        if self.r != INF and self.r < 1:
            raise ValueError("fine index r must lie in [1, inf]")

    @property
    def theorem_applicable(self) -> bool:
        """The rate theory covers s > 1/pi + 1/2 only."""
        return self.s > _inv(self.pi) + Fraction(1, 2)


def ball_from_spec(spec) -> BesovBall:
    """BesovBall from a mapping with keys s, pi and optionally r (default inf).

    Raises ValueError for a missing or unknown key, a boolean, or a malformed
    value.
    """
    if not isinstance(spec, dict) or not {"s", "pi"} <= set(spec):
        raise ValueError(f"need an object with keys s, pi and optionally r, got {spec!r}")
    for key, value in spec.items():
        if key not in ("s", "pi", "r"):
            raise ValueError(f"unknown key {key!r}")
        if isinstance(value, bool):
            raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        return BesovBall(spec["s"], spec["pi"], spec.get("r", INF))
    except (TypeError, ArithmeticError) as exc:
        raise ValueError(f"{spec!r} is malformed: {exc}") from exc


@dataclass(frozen=True)
class RateSpec:
    """Risk-decay description: risk ~ n^risk_exponent (log n)^log_exponent."""

    epsilon: object
    zone: str
    alpha1: Fraction
    alpha2: Fraction
    risk_exponent: Fraction
    log_exponent: Fraction


def rate_spec(s, pi, r, p) -> RateSpec:
    """Zone classification and risk exponents for an l^p loss over a Besov ball.

    epsilon = pi*s + (pi - p)/2 separates the regimes: positive is the
    regular zone with risk exponent -p*s/(2s+1) (an extra log factor iff
    p > pi); nonpositive switches to the sparse exponent
    alpha2 = (s - 1/pi + 1/p) / (2(s - 1/pi) + 1) carried by (log n / n);
    epsilon exactly 0 adds (p - pi/r)_+ more log powers.
    """
    ball = BesovBall(s, pi, r)
    p = as_rational(p)
    if p == INF or p < 2:
        raise ValueError(f"risk index p={p} out of range (need finite p >= 2)")
    if not ball.theorem_applicable:
        bound = _inv(ball.pi) + Fraction(1, 2)
        raise ValueError(
            f"smoothness s={ball.s} outside the supported range: need s > 1/pi + 1/2 = {bound}"
        )
    s, pi, r = ball.s, ball.pi, ball.r
    alpha1 = s / (2 * s + 1)
    alpha2 = (s - _inv(pi) + 1 / p) / (2 * (s - _inv(pi)) + 1)
    epsilon = INF if pi == INF else pi * s + (pi - p) / 2
    if epsilon == INF or epsilon > 0:
        zone = "regular"
        risk_exponent = -alpha1 * p
        log_exponent = alpha1 * p if (pi != INF and p > pi) else Fraction(0)
    else:
        zone = "critical" if epsilon == 0 else "sparse"
        risk_exponent = -alpha2 * p
        log_exponent = alpha2 * p
        if zone == "critical":
            extra = p - (pi * _inv(r) if r != INF else Fraction(0))
            log_exponent += max(extra, Fraction(0))
    return RateSpec(
        epsilon=epsilon,
        zone=zone,
        alpha1=alpha1,
        alpha2=alpha2,
        risk_exponent=risk_exponent,
        log_exponent=log_exponent,
    )


def besov_seminorm(tree: CoefficientTree, s: float, pi: float, r: float) -> float:
    """Truncated Besov sequence norm of a coefficient tree.

    Levels are weighted by 2^{j(s + 1/2 - 1/pi)}; the scaling block enters as
    the level below j0.  Infinite pi/r take max over translates / sup over
    levels.  The value is the norm of the finite tree; tails beyond jmax are
    not extrapolated.
    """
    s = float(s)
    inv_pi = 0.0 if pi == INF else 1.0 / float(pi)
    levels = [(tree.j0 - 1, tree.alpha)]
    levels += [(tree.j0 + i, b) for i, b in enumerate(tree.beta)]
    terms = []
    for j, coeffs in levels:
        a = np.abs(np.asarray(coeffs, dtype=float))
        if pi == INF:
            level_norm = a.max() if a.size else 0.0
        else:
            level_norm = float(np.sum(a ** float(pi)) ** inv_pi)
        terms.append(2.0 ** (j * (s + 0.5 - inv_pi)) * level_norm)
    terms = np.asarray(terms)
    if r == INF:
        return float(terms.max())
    return float(np.sum(terms ** float(r)) ** (1.0 / float(r)))


# ---------------------------------------------------------------------------
# Test functions


def _heavisine(x):
    return 4.0 * np.sin(4.0 * np.pi * x) - np.sign(x - 0.3) - np.sign(0.72 - x)


def _doppler(x):
    eps = 0.05
    return np.sqrt(x * (1.0 - x)) * np.sin(2.0 * np.pi * (1.0 + eps) / (x + eps))


_BLOCKS_T = np.array([0.1, 0.13, 0.15, 0.23, 0.25, 0.4, 0.44, 0.65, 0.76, 0.78, 0.81])
_BLOCKS_H = np.array([4, -5, 3, -4, 5, -4.2, 2.1, 4.3, -3.1, 2.1, -4.2])
_BUMPS_W = np.array([0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01, 0.005, 0.008, 0.005])
_BUMPS_H = np.array([4, 5, 3, 4, 5, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2])


def _blocks(x):
    out = np.zeros_like(x)
    for t, h in zip(_BLOCKS_T, _BLOCKS_H):
        out += h * (1.0 + np.sign(x - t)) / 2.0
    return out


def _bumps(x):
    out = np.zeros_like(x)
    for t, h, w in zip(_BLOCKS_T, _BUMPS_H, _BUMPS_W):
        out += h * (1.0 + np.abs((x - t) / w)) ** -4.0
    return out


def _single_bump(x):
    # Amplitude 3 makes one detail block dominant against the default
    # keep-or-kill cut at n ~ 4k while everything far from 0.4 stays noise.
    return 3.0 * np.exp(-((x - 0.4) ** 2) / (2.0 * 0.05**2))


_NORMALIZED = {"heavisine": _heavisine, "doppler": _doppler, "blocks": _blocks, "bumps": _bumps}
_RAW = {
    "constant": lambda x: np.ones_like(x),
    "zero": lambda x: np.zeros_like(x),
    "single-bump": _single_bump,
}

SIGNAL_NAMES = tuple(sorted((*_NORMALIZED, *_RAW)))


@dataclass(eq=False)
class TestFunction:
    """A target function with its coefficient tree and, for a
    ``random_besov`` signal, its Besov ball radius."""

    name: str
    fn: object
    tree: CoefficientTree
    ball_radius: float = None


def signal_spec(spec, j0: int, jmax: int) -> tuple:
    """The signal's name, and for a ``random_besov`` spec its BesovBall and
    seed (else None twice), checked as ``make_test_function`` needs them.

    ``jmax`` must lie between the basis's coarsest level ``j0`` and 12 (desk
    scale).  Raises ValueError naming ``jmax``, the signal name, or the
    ``random_besov`` parameter at fault.
    """
    if not j0 <= jmax <= 12:
        raise ValueError(f"jmax={jmax} out of range: need coarsest level {j0} <= jmax <= 12")
    if isinstance(spec, str):
        spec = {"name": spec}
    if set(spec) not in ({"name"}, {"random_besov"}):
        raise ValueError(f"signal needs one key, name or random_besov, got keys {sorted(spec)}")
    if "random_besov" not in spec:
        name = spec["name"]
        if name not in SIGNAL_NAMES:
            raise ValueError(f"unknown signal name {name!r}; known: {', '.join(SIGNAL_NAMES)}")
        return name, None, None
    params = spec["random_besov"]
    if not isinstance(params, dict):
        raise ValueError(f"signal.random_besov must be an object, got {params!r}")
    params = dict(params)
    seed = params.pop("seed", None)
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"signal.random_besov seed must be a non-negative integer, got {seed!r}")
    try:
        ball = ball_from_spec(params)
    except ValueError as exc:
        raise ValueError(f"signal.random_besov: {exc}") from exc
    # the draw is in floats: at s <= 64 its level weights up to level 12 stay below 2^774
    for key, top in (("s", 64), ("pi", sys.float_info.max), ("r", sys.float_info.max)):
        if getattr(ball, key) != INF and getattr(ball, key) > top:
            raise ValueError(f"signal.random_besov: {key} must be at most {top:g}"
                             + ("" if key == "s" else " or inf"))
    return f"random-besov(s={ball.s}, pi={ball.pi})", ball, int(seed)


def make_test_function(spec, basis: WaveletBasis, jmax: int = 10) -> TestFunction:
    """Build a named or randomly generated target function.

    Named signals (constant, zero, heavisine, doppler, blocks, bumps,
    single-bump) come from the classical denoising corpus; the oscillatory
    ones are normalized to sup norm 1.  A spec {"random_besov": {"s": ...,
    "pi": ..., "seed": ...}} draws detail coefficients with magnitudes
    2^{-j(s + 1/2 - 1/pi)} 2^{-j/pi} u, u uniform on [1/2, 1] with random
    signs, which places the function inside a Besov ball of computable
    radius (each level's weighted term is at most 1).
    """
    j0 = basis.coarsest_level
    name, ball, seed = signal_spec(spec, j0, jmax)

    if ball is not None:
        s, inv_pi = float(ball.s), float(_inv(ball.pi))
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xBE50)))
        mags, coeffs = [], []
        for j in range(j0 - 1, jmax + 1):
            dim = 1 << max(j, j0)
            mags.append(np.full(dim, 2.0 ** (-j * (s + 0.5 - inv_pi)) * 2.0 ** (-j * inv_pi)))
            u = rng.uniform(0.5, 1.0, dim)
            coeffs.append(mags[-1] * u * rng.choice([-1.0, 1.0], dim))
        tree = CoefficientTree(j0=j0, jmax=jmax, alpha=coeffs[0], beta=coeffs[1:])
        # the draw at u = 1, whose seminorm bounds every draw's
        bound = CoefficientTree(j0=j0, jmax=jmax, alpha=mags[0], beta=mags[1:])

        def fn(x, _basis=basis, _tree=tree):
            return evaluate_tree(_basis, _tree, x)

        return TestFunction(name=name, fn=fn, tree=tree,
                            ball_radius=besov_seminorm(bound, ball.s, ball.pi, ball.r))

    if name in _NORMALIZED:
        raw = _NORMALIZED[name]
        peak = float(np.max(np.abs(raw(midpoint_grid(1 << 16)))))

        def fn(x, _raw=raw, _peak=peak):
            return _raw(np.asarray(x, dtype=float)) / _peak

    else:
        fn = _RAW[name]
    tree = exact_coefficients(basis, fn(midpoint_grid(1 << max(14, jmax + 6))), j0, jmax)
    return TestFunction(name=name, fn=fn, tree=tree)

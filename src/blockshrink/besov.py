"""Besov balls, risk-rate zones, and test-function generation.

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

from .basis import (CoefficientTree, WaveletBasis, _lift, _row_buffers, evaluate_tree,
                    exact_coefficients, midpoint_grid)

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


# ---------------------------------------------------------------------------
# Test functions


# Each signal writes its values into out[0] and may use out[1] and out[2] as
# scratch, with the operations, in their order, of its formula.  A
# transcendental ufunc never writes over its own input, so that numpy's
# choice of loop cannot change a bit, and a sign goes into a second buffer:
# in place, np.sign runs several times slower.
def _heavisine(x, out):
    values, arg, sign = out
    np.sin(np.multiply(x, 4.0 * np.pi, out=arg), out=values)
    values *= 4.0
    values -= np.sign(np.subtract(x, 0.3, out=arg), out=sign)
    values -= np.sign(np.subtract(0.72, x, out=arg), out=sign)
    return values


def _doppler(x, out):
    eps = 0.05
    values, root, arg = out
    np.sqrt(np.multiply(x, np.subtract(1.0, x, out=root), out=root), out=root)
    np.divide(2.0 * np.pi * (1.0 + eps), np.add(x, eps, out=arg), out=arg)
    np.sin(arg, out=values)
    values *= root
    return values


_BLOCKS_T = np.array([0.1, 0.13, 0.15, 0.23, 0.25, 0.4, 0.44, 0.65, 0.76, 0.78, 0.81])
_BLOCKS_H = np.array([4, -5, 3, -4, 5, -4.2, 2.1, 4.3, -3.1, 2.1, -4.2])
_BUMPS_W = np.array([0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01, 0.005, 0.008, 0.005])
_BUMPS_H = np.array([4, 5, 3, 4, 5, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2])


def _blocks(x, out):
    values, arg, term = out
    values.fill(0.0)
    for t, h in zip(_BLOCKS_T, _BLOCKS_H):
        np.sign(np.subtract(x, t, out=arg), out=term)
        term += 1.0
        term *= h
        term /= 2.0
        values += term
    return values


def _bumps(x, out):
    values, arg, term = out
    values.fill(0.0)
    for t, h, w in zip(_BLOCKS_T, _BUMPS_H, _BUMPS_W):
        np.subtract(x, t, out=arg)
        arg /= w
        np.abs(arg, out=arg)
        arg += 1.0
        np.power(arg, -4.0, out=term)
        term *= h
        values += term
    return values


def _single_bump(x, out):
    # Amplitude 3 makes one detail block dominant against the default
    # keep-or-kill cut at n ~ 4k while everything far from 0.4 stays noise.
    values, arg, square = out
    np.square(np.subtract(x, 0.4, out=arg), out=square)
    np.negative(square, out=square)
    square /= 2.0 * 0.05**2
    np.exp(square, out=values)
    values *= 3.0
    return values


def _constant(x, out):
    out[0].fill(1.0)
    return out[0]


def _zero(x, out):
    out[0].fill(0.0)
    return out[0]


_NORMALIZED = {"heavisine": _heavisine, "doppler": _doppler, "blocks": _blocks, "bumps": _bumps}
_RAW = {"constant": _constant, "zero": _zero, "single-bump": _single_bump}

SIGNAL_NAMES = tuple(sorted((*_NORMALIZED, *_RAW)))


@dataclass(eq=False)
class TestFunction:
    """A target function with its coefficient tree.

    ``fn(x, out=None)`` evaluates the function at x.  ``out``, at least
    ``buffers`` float arrays of x's size, serves as its buffers when given,
    and the values come back in the first.
    """

    name: str
    fn: object
    tree: CoefficientTree
    buffers: int = 3


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
    # the draw is in floats: at s <= 64 its level weights up to level 12 stay below 2^774;
    # pi and r keep a float field's range, though the draw reads only 1/pi and never r
    for key, top in (("s", 64), ("pi", sys.float_info.max), ("r", sys.float_info.max)):
        if getattr(ball, key) != INF and getattr(ball, key) > top:
            raise ValueError(f"signal.random_besov: {key} must be at most {top:g}"
                             + ("" if key == "s" else " or inf"))
    return f"random-besov(s={params['s']}, pi={params['pi']})", ball, int(seed)


def make_test_function(spec, basis: WaveletBasis, jmax: int = 10) -> TestFunction:
    """Build a named or randomly generated target function.

    Named signals (constant, zero, heavisine, doppler, blocks, bumps,
    single-bump) come from the classical denoising corpus; the oscillatory
    ones are normalized to sup norm 1.  A spec {"random_besov": {"s": ...,
    "pi": ..., "seed": ...}} draws detail coefficients with magnitudes
    2^{-j(s + 1/2 - 1/pi)} 2^{-j/pi} u, u uniform on [1/2, 1] with random
    signs, which places the function inside the Besov ball of the draw at
    u = 1 (each detail level's weighted term is at most 1, the scaling
    block's at most 2^{1/pi}).  The fine index r does not enter the draw.
    """
    j0 = basis.coarsest_level
    name, ball, seed = signal_spec(spec, j0, jmax)

    if ball is not None:
        s, inv_pi = float(ball.s), float(_inv(ball.pi))
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xBE50)))
        coeffs = []
        for j in range(j0 - 1, jmax + 1):
            dim = 1 << max(j, j0)
            mag = 2.0 ** (-j * (s + 0.5 - inv_pi)) * 2.0 ** (-j * inv_pi)
            u = rng.uniform(0.5, 1.0, dim)
            coeffs.append(mag * u * rng.choice([-1.0, 1.0], dim))
        tree = CoefficientTree(j0=j0, jmax=jmax, alpha=coeffs[0], beta=coeffs[1:])
        top, lifted = _lift(basis, tree)  # lifted once: fn runs on every draw
        flat = CoefficientTree(j0=top, jmax=top - 1, alpha=lifted, beta=[])

        def fn(x, out=None, _basis=basis, _tree=flat):
            return evaluate_tree(_basis, _tree, x, out)

        return TestFunction(name=name, fn=fn, tree=tree, buffers=1 + _row_buffers(basis))

    raw = _NORMALIZED.get(name) or _RAW[name]
    peak = _sup_norm(raw) if name in _NORMALIZED else 1.0

    def fn(x, out=None, _raw=raw, _peak=peak):
        x = np.asarray(x, dtype=float)
        values = _raw(x.ravel(), np.empty((3, x.size)) if out is None else out[:3])
        values /= _peak
        return values.reshape(x.shape)[()]

    tree = exact_coefficients(basis, fn(midpoint_grid(1 << max(14, jmax + 6))), j0, jmax)
    return TestFunction(name=name, fn=fn, tree=tree)


def _sup_norm(raw, size: int = 1 << 16, block: int = 1 << 12) -> float:
    """max |raw| over the ``size`` midpoints, evaluated ``block`` points at a
    time: a max is exact, so the blocks give the whole grid's value, and
    set-up holds no grid-sized temporaries."""
    out = np.empty((3, block))
    peak = 0.0
    for start in range(0, size, block):
        values = raw((np.arange(start, start + block) + 0.5) / size, out)
        peak = max(peak, float(np.max(np.abs(values, out=values))))
    return peak

"""Known design densities on [0, 1] and observation sampling.

The regression model is y_i = f(x_i) + z_i with x_i drawn i.i.d. from a known
density g (bounded away from 0 and infinity) and z_i independent standard
Gaussian noise.  Densities are limited to families with closed-form inverse
CDFs so that sampling is a deterministic transform of seeded uniforms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class DesignDensity:
    """A known density on [0, 1] with evaluator, sampler and certified bounds."""

    kind: str
    g_min: float
    g_max: float
    slope: float = 0.0
    breaks: tuple = ()
    values: tuple = ()
    # piecewise: the interior cumulative masses, then each segment's left
    # edge, mass before it and value, as arrays
    _segments: tuple = field(default=(), repr=False, compare=False)

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if np.any((x < 0.0) | (x > 1.0)):
            raise ValueError("density evaluated outside [0, 1]")
        if self.kind == "uniform":
            return np.ones_like(x)
        if self.kind == "linear-tilt":
            return 1.0 - 0.5 * self.slope + self.slope * x
        edges = np.asarray(self.breaks)
        vals = np.asarray(self.values)
        return vals[np.searchsorted(edges, x, side="right")]

    def ppf(self, u) -> np.ndarray:
        """Inverse CDF; maps [0, 1) onto [0, 1)."""
        return self.draw(u)[0]

    def draw(self, u):
        """The design points x = ppf(u) and the density g at them, read off
        the inverse-CDF segment each u falls in, so no point is searched twice."""
        u = np.asarray(u, dtype=float)
        if self.kind == "uniform":
            return u, np.ones_like(u)
        if self.kind == "linear-tilt":
            a = self.slope
            b = 1.0 - 0.5 * a
            x = (np.sqrt(b * b + 2.0 * a * u) - b) / a
            return x, b + a * x
        cuts, lefts, prevs, vals = self._segments
        seg = np.searchsorted(cuts, u, side="right")
        g = vals[seg]
        return lefts[seg] + (u - prevs[seg]) / g, g

    def integral_check(self) -> float:
        """Quadrature value of the total mass, exact per linear segment."""
        edges = [0.0, 1.0] if self.kind != "piecewise" else [0.0, *self.breaks, 1.0]
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid = np.linspace(lo, hi, 257)[:-1] + (hi - lo) / 512.0
            total += float(np.mean(self.pdf(mid)) * (hi - lo))
        return total


def uniform_design() -> DesignDensity:
    return DesignDensity(kind="uniform", g_min=1.0, g_max=1.0)


def linear_tilt_design(slope: float) -> DesignDensity:
    """g(x) = 1 - slope/2 + slope * x; requires |slope| < 2 for positivity."""
    if not abs(slope) < 2.0:
        raise ValueError(f"slope={slope} leaves the density nonpositive somewhere")
    if slope == 0.0:
        return uniform_design()
    lo = 1.0 - 0.5 * abs(slope)
    hi = 1.0 + 0.5 * abs(slope)
    return DesignDensity(kind="linear-tilt", g_min=lo, g_max=hi, slope=float(slope))


def piecewise_design(breaks, values) -> DesignDensity:
    """Piecewise-constant density: values[i] on the i-th interval between breaks.

    ``breaks`` are the interior breakpoints; ``values`` has one more entry.
    The values must integrate to one.
    """
    breaks = tuple(float(b) for b in breaks)
    values = tuple(float(v) for v in values)
    if len(values) != len(breaks) + 1:
        raise ValueError("need exactly one more value than interior breakpoints")
    if any(not 0.0 < b < 1.0 for b in breaks) or any(
        b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])
    ):
        raise ValueError("breakpoints must be strictly increasing inside (0, 1)")
    if not all(v > 0.0 for v in values):
        raise ValueError("density values must be positive")
    edges = np.array([0.0, *breaks, 1.0])
    masses = np.diff(edges) * np.asarray(values)
    if abs(masses.sum() - 1.0) > 1e-9:
        raise ValueError(f"piecewise density integrates to {masses.sum()!r}, not 1")
    cuts = np.cumsum(masses)[:-1]
    return DesignDensity(
        kind="piecewise",
        g_min=min(values),
        g_max=max(values),
        breaks=breaks,
        values=values,
        _segments=(cuts, edges[:-1], np.concatenate(([0.0], cuts)), np.asarray(values)),
    )


def density_from_spec(spec) -> DesignDensity:
    """Build a density from a config mapping or a compact string.

    Accepted forms: {"kind": "uniform"}, {"kind": "linear-tilt", "slope": s},
    {"kind": "piecewise", "breaks": [...], "values": [...]}, or the strings
    "uniform", "linear-tilt:<slope>", "piecewise:<b1,..>:<v1,..>".
    """
    if isinstance(spec, DesignDensity):
        return spec
    if not isinstance(spec, (str, dict)):
        raise ValueError(f"density must be a string or an object, got {spec!r}")
    try:
        if isinstance(spec, str):
            parts = spec.split(":")
            name = parts[0]
            if name == "uniform":
                return uniform_design()
            if name == "linear-tilt":
                return linear_tilt_design(float(parts[1]))
            if name == "piecewise":
                breaks = [float(v) for v in parts[1].split(",") if v]
                values = [float(v) for v in parts[2].split(",")]
                return piecewise_design(breaks, values)
            raise ValueError("unknown density spec")
        kind = spec.get("kind")
        if kind == "uniform":
            return uniform_design()
        if kind == "linear-tilt":
            return linear_tilt_design(float(spec["slope"]))
        if kind == "piecewise":
            return piecewise_design(spec["breaks"], spec["values"])
        raise ValueError(f"unknown density kind {kind!r}")
    except KeyError as exc:
        raise ValueError(f"density {spec!r} lacks the key {exc.args[0]!r}") from exc
    except (IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"density {spec!r}: {exc}") from exc


@dataclass(frozen=True)
class Sample:
    """n observation pairs; ``g`` holds the design density at each x when
    the sample was drawn by ``generate_sample``."""

    n: int
    x: np.ndarray
    y: np.ndarray
    g: np.ndarray | None = field(default=None, kw_only=True)

    def __post_init__(self):
        if len(self.x) != self.n or len(self.y) != self.n:
            raise ValueError("x and y must both hold n values")
        if np.any((self.x < 0.0) | (self.x > 1.0)):
            raise ValueError("design points must lie in [0, 1]")


def generate_sample(
    f, density: DesignDensity, n: int, seed: int, noiseless: bool = False
) -> Sample:
    """Draw a regression sample y_i = f(x_i) + z_i for a callable f on [0, 1].

    The design and the noise come from two decorrelated streams spawned from
    ``seed``.  ``noiseless=True`` replaces the Gaussian noise stream by zeros,
    a hook for oracle tests.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    design_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    x, g = density.draw(np.random.default_rng(design_ss).random(n))
    fx = np.asarray(f(x), dtype=float)
    y = fx if noiseless else fx + np.random.default_rng(noise_ss).standard_normal(n)
    return Sample(n=n, x=x, y=np.asarray(y, dtype=float), g=g)


# Rows formatted and written per string; bounds the text held in memory.
_CSV_CHUNK_ROWS = 1024


def write_csv(path, header: str, *columns) -> None:
    """Write equal-length columns as CSV rows under a header line.

    Each cell is the ``repr`` of the value as a Python scalar: floats (numpy
    or not) round-trip exactly, integers and booleans read as ``str`` would.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for a in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            b = a + _CSV_CHUNK_ROWS
            cells = [map(repr, np.asarray(col[a:b]).tolist()) for col in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def read_sample_csv(path) -> Sample:
    """Read the columns named x and y (in any order) of a CSV file with a header row.

    A UTF-8 byte-order mark before the header is skipped.  Raises ValueError
    quoting the header when it names no x or no y column.
    """
    with open(path, encoding="utf-8-sig") as fh:
        header = fh.readline().rstrip("\r\n")
    names = [name.strip() for name in header.split("#")[-1].split(",")]
    if "x" not in names or "y" not in names:
        raise ValueError(
            f"sample file {path} needs a header naming columns x and y, read {header!r}"
        )
    try:
        with warnings.catch_warnings():
            # a file with no data rows is a sample of size 0, which the caller rejects
            warnings.simplefilter("ignore", UserWarning)
            # by path, not by the open handle: numpy then parses the file in C
            x, y = np.loadtxt(
                path, delimiter=",", skiprows=1, usecols=(names.index("x"), names.index("y")),
                ndmin=2, encoding="utf-8",
            ).T.copy()
    except ValueError as exc:
        raise ValueError(f"sample file {path} needs numeric columns x and y: {exc}") from exc
    if np.any(~np.isfinite(x)) or np.any(~np.isfinite(y)):
        raise ValueError(f"sample file {path} contains non-numeric entries")
    try:
        return Sample(n=len(x), x=x, y=y)
    except ValueError as exc:
        raise ValueError(f"sample file {path}: {exc}") from exc

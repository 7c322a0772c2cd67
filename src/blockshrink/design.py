"""Known design densities on [0, 1] and observation sampling.

The regression model is y_i = f(x_i) + z_i with x_i drawn i.i.d. from a known
density g (bounded away from 0 and infinity) and z_i independent standard
Gaussian noise.  Densities are limited to families with closed-form inverse
CDFs so that sampling is a deterministic transform of seeded uniforms.
"""

from __future__ import annotations

import functools
import numbers
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

# NumPy's SeedSequence (NEP 19): a pool of four uint32 words, the running
# hash constants of its entropy mixing (A) and of generate_state (B), and
# its mixing multipliers.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


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
        if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):  # NaN fails too
            raise ValueError("density evaluated outside [0, 1]")
        if self.kind == "uniform":
            return np.ones_like(x)
        if self.kind == "linear-tilt":
            return 1.0 - 0.5 * self.slope + self.slope * x
        return np.asarray(self.values)[_segment(self.breaks, x)]

    def draw(self, u):
        """The design points x, the inverse CDF at u (mapping [0, 1) onto
        [0, 1)), and the density g at them, read off the inverse-CDF segment
        each u falls in, so no point is searched twice."""
        u = np.asarray(u, dtype=float)
        if self.kind == "uniform":
            return u, np.ones_like(u)
        if self.kind == "linear-tilt":
            a = self.slope
            b = 1.0 - 0.5 * a
            x = (np.sqrt(b * b + 2.0 * a * u) - b) / a
            return x, b + a * x
        cuts, lefts, prevs, vals = self._segments
        seg = _segment(cuts, u)
        g = vals[seg]
        return lefts[seg] + (u - prevs[seg]) / g, g


def _segment(edges, u) -> np.ndarray:
    """The segment of each u between sorted ``edges``: the number of edges at
    or below it, which is ``searchsorted(edges, u, side="right")`` for every
    u but NaN (a NaN reaches no edge).  A design has a few edges, so one
    comparison per edge beats a binary search per point."""
    seg = np.zeros(np.shape(u), dtype=np.intp)
    for edge in edges:
        seg += u >= edge
    return seg


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


# Each density kind's constructor and parameters, in compact-string order.
_DENSITY_KINDS = {
    "uniform": (uniform_design, ()),
    "linear-tilt": (lambda slope: linear_tilt_design(float(slope)), ("slope",)),
    "piecewise": (piecewise_design, ("breaks", "values")),
}


def density_from_spec(spec) -> DesignDensity:
    """Build a density from a config mapping or its compact string.

    Accepted forms: {"kind": "uniform"}, {"kind": "linear-tilt", "slope": s},
    {"kind": "piecewise", "breaks": [...], "values": [...]}, or the strings
    "uniform", "linear-tilt:<slope>", "piecewise:<b1,..>:<v1,..>".  Raises
    ValueError, quoting the spec as written, for an unknown kind or key, a
    missing parameter, a boolean or string one in the mapping form, or an
    invalid density.
    """
    if not isinstance(spec, (str, dict)):
        raise ValueError(f"density must be a string or an object, got {spec!r}")
    try:
        kind, *texts = spec.split(":") if isinstance(spec, str) else [spec.get("kind")]
        if not isinstance(kind, str) or kind not in _DENSITY_KINDS:
            raise ValueError(f"unknown density kind {kind!r}")
        build, names = _DENSITY_KINDS[kind]
        if len(texts) > len(names):
            raise ValueError(f"{len(texts)} parameters given for {kind}, which takes {len(names)}")
        params = spec if isinstance(spec, dict) else {  # a list parameter is comma-separated
            name: text if name == "slope" else (text.split(",") if text else [])
            for name, text in zip(names, texts)}
        unknown = set(params) - {"kind", *names}
        if unknown:
            raise ValueError(f"unknown keys for kind {kind!r}: {', '.join(sorted(unknown))}")
        for name in names:  # the mapping form takes numbers: no bool, no string
            value = params[name]
            if isinstance(spec, dict) and not all(
                isinstance(v, numbers.Real) and not isinstance(v, bool)
                for v in (value if isinstance(value, list) else [value])
            ):
                raise ValueError(f"{name} must be numeric, got {value!r}")
        return build(*(params[name] for name in names))
    except KeyError as exc:
        raise ValueError(f"density {spec!r} lacks the key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
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
        if self.x.size and not (self.x.min() >= 0.0 and self.x.max() <= 1.0):  # NaN fails too
            raise ValueError("design points must lie in [0, 1]")


def generate_sample(
    f, density: DesignDensity, n: int, seed: int, noiseless: bool = False
) -> Sample:
    """Draw a regression sample y_i = f(x_i) + z_i for a callable f on [0, 1].

    The design and the noise come from two decorrelated streams spawned from
    ``seed``: PCG64 on NumPy's ``SeedSequence(seed).spawn(2)`` (see
    ``_streams``).  ``noiseless=True`` replaces the Gaussian noise
    stream by zeros, a hook for oracle tests.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    (rngs,) = _streams(_words(seed))
    return _draw_sample(f, density, n, rngs, noiseless)


def _draw_sample(f, density: DesignDensity, n: int, rngs, noiseless: bool) -> Sample:
    """The sample of ``generate_sample`` from its (design, noise) generators
    ``rngs``: n uniforms, the design points and g at them, f, then the noise."""
    design_rng, noise_rng = rngs
    x, g = density.draw(design_rng.random(n))
    fx = np.asarray(f(x), dtype=float)
    y = fx if noiseless else fx + noise_rng.standard_normal(n)
    return Sample(n=n, x=x, y=np.asarray(y, dtype=float), g=g)


def _words(value) -> list:
    """The little-endian uint32 words of a non-negative integer, as NumPy's
    SeedSequence reads an integer entropy (0 is one word)."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _running(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` values init * mult^i mod 2^32 of a running hash
    constant."""
    consts = np.full(count, mult, dtype=np.uint32)
    consts[0] = init
    return np.multiply.accumulate(consts, dtype=np.uint32)


def _seed_state(entropy, n_words: int) -> np.ndarray:
    """``SeedSequence(words).generate_state(n_words, np.uint32)`` for many
    entropies at once, row i of the result holding word i.

    ``entropy`` lists the uint32 entropy words in order, each an integer or
    an array; the arrays broadcast, and each position of their common shape
    is one entropy.  The hash is NumPy's: the words fill the pool (zeros
    pad it), every pool word is mixed into every other, any words beyond
    the pool are mixed into each pool word, and the pool is cycled out
    through a second hash.  Every hashmix call advances the constant, so
    the calls that hash one word run as one array operation.
    """
    shape = np.broadcast_shapes(*map(np.shape, entropy)) or (1,)
    words = np.zeros((max(len(entropy), _POOL),) + shape, dtype=np.uint32)
    for i, word in enumerate(entropy):
        words[i] = word
    column = (slice(None),) + (None,) * len(shape)
    calls = _POOL * _POOL + _POOL * max(0, len(entropy) - _POOL)
    consts = _running(_INIT_A, _MULT_A, calls + 1)[column]

    def hashmix(value, k, count):  # calls k .. k + count - 1
        value = value ^ consts[k:k + count]
        value *= consts[k + 1:k + count + 1]
        value ^= value >> 16
        return value

    def mix(x, y):
        x = x * _MIX_L
        x -= y * _MIX_R
        x ^= x >> 16
        return x

    pool = hashmix(words[:_POOL], 0, _POOL)
    k = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], k, _POOL - 1))
        k += _POOL - 1
    for word in words[_POOL:len(entropy)]:
        pool = mix(pool, hashmix(word, k, _POOL))
        k += _POOL
    out = _running(_INIT_B, _MULT_B, n_words + 1)[column]
    state = pool[np.arange(n_words) % _POOL] ^ out[:-1]
    state *= out[1:]
    state ^= state >> 16
    return state


@functools.cache
def _preset_seed():
    """The seed sequence type that hands PCG64 precomputed seed material:
    ``generate_state`` returns it as is.  Made on first use, so importing
    the package does not import numpy.random."""

    class PresetSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, material):
            self.material = material

        def generate_state(self, n_words, dtype=np.uint32):
            return self.material

    return PresetSeed


def _streams(seed_words):
    """For each seed in turn, its (design, noise) generators: PCG64 on the
    children of ``SeedSequence(seed).spawn(2)``, as ``np.random.default_rng``
    builds them, with the children's hashes computed for every seed at once.

    ``seed_words`` are the seeds' uint32 words (see ``_words``), integers or
    arrays that broadcast over the seeds.  A spawned child's entropy is the
    seed's words padded with zeros to the pool size, then its spawn key, so
    a seed below 2^32 needs no special case.  PCG64 seeds itself from the
    child's ``generate_state(4, np.uint64)``: little-endian pairs of words.
    """
    words = [*seed_words, *[0] * (_POOL - len(seed_words))]
    state = _seed_state([*words, np.arange(2, dtype=np.uint32)[:, None]], 8)
    material = np.ascontiguousarray(np.moveaxis(state, 0, -1), dtype="<u4").view("<u8")
    material = material.astype(np.uint64, copy=False)
    preset = _preset_seed()
    for design, noise in zip(*material):
        yield (np.random.Generator(np.random.PCG64(preset(design))),
               np.random.Generator(np.random.PCG64(preset(noise))))


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

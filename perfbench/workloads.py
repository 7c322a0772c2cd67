"""The benchmark's workloads: inputs made from the seed, CLI calls, output checks.

Every workload drives the public command line in-process through
``blockshrink.cli.main``.  A *verdict* is the set of CLI calls that answers
the workload's question once; an *op* is one CLI call.

Tolerances.  ROADMAP item 2 expects coefficients to drift by about 4e-6 for
db4 and 1e-7 for db6 when the coefficient path changes; every tolerance
below admits that drift and still catches a wrong coefficient.

* ``STAT_TOL``: a block statistic in ``blocks.csv`` may differ from the
  recomputed one by 1e-5.  The statistic is an l^2 mean of coefficients, so
  a drift of 4e-6 per coefficient moves it by at most 4e-6.  The noise scale
  at n = 2^16 is n^-1/2 = 3.9e-3, so a statistic that is 1e-5 off is wrong.
* ``MOMENT_RTOL``: each recorded moment E|beta_hat - beta|^4 may differ by a
  relative 1e-3.  A coefficient drift delta moves it by about 4 delta / |dev|
  relative, under 1e-4 for delta = 1e-7 and |dev| ~ 5e-3; scaling one
  coefficient by 1.001 already moves it by 4e-3.
* ``kept`` must equal ``statistic >= threshold`` exactly, and outputs that
  repeat a verdict (other thread count, later round) must be byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
STAT_TOL = 1e-5
MOMENT_RTOL = 1e-3

# The config from README.md, verbatim.
README_CONFIG = {
    "signal": "heavisine",
    "density": {"kind": "linear-tilt", "slope": 0.5},
    "basis_family": "haar",
    "p": 2,
    "d": 4.0,
    "n_grid": [1024, 2048, 4096, 8192, 16384],
    "replications": 100,
    "master_seed": 7,
    "risk_grid": 16384,
    "ball": {"s": 1, "pi": "inf", "r": "inf"},
    "jmax": 8,
    "noiseless": False,
    "compare_term": True,
    "term_c": 2.0,
    "slope_tol": 0.15,
    "moment_tol": 0.3,
    "moment_level": 3, "moment_index": 2,
    "conc_level": 3, "conc_block": 0, "conc_mu": 8.0,
}

DIAGNOSE_CONFIG = {
    "signal": "heavisine",
    "density": {"kind": "piecewise", "breaks": [0.5], "values": [0.6, 1.4]},
    "basis_family": "db6",
    "p": 2,
    "n_grid": [1024, 2048, 4096, 8192, 16384],
    "replications": 200,
    "moment_level": 3, "moment_index": 2,
    "conc_level": 3, "conc_block": 0, "conc_mu": 8.0,
}

FIT_N = 1 << 16
FIT_SAMPLES = 6
FIT_P = 2.0
FIT_D = 4.0


@dataclass
class Op:
    """One CLI call: its latency, exit code, output directory and input key."""

    seconds: float
    rc: int
    out: Path
    key: str


def cli_op(argv: list, out: Path, key: str) -> Op:
    from blockshrink import cli

    start = time.perf_counter()
    rc = cli.main(argv)
    return Op(time.perf_counter() - start, rc, out, key)


def same_files(a: Path, b: Path, names) -> bool:
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def check_ops(workload, ops) -> int:
    """Number of ops that failed a check.

    An op fails when it exits nonzero, when it is the first op on its input
    and its output fails the workload's reference check, or when it repeats
    an input and its outputs differ from the first op's.
    """
    first = {}
    failed = 0
    for op in ops:
        ok = op.rc == 0
        if ok:
            ref = first.setdefault(op.key, op)
            ok = workload.check_output(op) if ref is op else same_files(
                op.out, ref.out, workload.outputs)
        failed += not ok
    return failed


class Workload:
    name = ""
    # (basis family, density spec, signal spec, jmax) built by the setup probe
    setup = ()
    # outputs that must repeat byte for byte when a verdict is repeated
    outputs = ()

    def prepare(self, work: Path, seed: int) -> None:
        raise NotImplementedError

    def verdict(self, out: Path, threads: int) -> tuple:
        """Run one verdict; return (wall seconds, ops)."""
        raise NotImplementedError

    def check_output(self, op: Op) -> bool:
        """Check the first op on each input against an independent reference."""
        raise NotImplementedError


def _config_call(command, config, out, seed, threads):
    argv = [command, "--config", str(config), "--out-dir", str(out),
            "--seed", str(seed), "--threads", str(threads)]
    op = cli_op(argv, out, command)
    return op.seconds, [op]


class RatesReadme(Workload):
    name = "rates-readme"
    setup = ("haar", README_CONFIG["density"], README_CONFIG["signal"], README_CONFIG["jmax"])
    outputs = ("report.json", "risks.csv")

    def prepare(self, work, seed):
        self.config = work / "readme.json"
        self.config.write_text(json.dumps(README_CONFIG))
        self.seed = seed

    def verdict(self, out, threads):
        return _config_call("rates", self.config, out, self.seed, threads)

    def check_output(self, op):
        report = json.loads((op.out / "report.json").read_text())
        risks = report["mean_risk"]
        return (
            report["passed"] is True
            and report["n_grid"] == README_CONFIG["n_grid"]
            and all(math.isfinite(r) and r > 0 for r in risks)
            and len(report["comparison"]) == len(risks)
        )


def doppler(x):
    """Doppler test signal scaled to sup norm 1 on a fine grid."""
    def raw(t):
        return np.sqrt(t * (1.0 - t)) * np.sin(2.1 * np.pi / (t + 0.05))

    peak = np.max(np.abs(raw((np.arange(1 << 16) + 0.5) / (1 << 16))))
    return raw(x) / peak


def write_fit_samples(work: Path, seed: int, count: int = FIT_SAMPLES, n: int = FIT_N) -> list:
    """Write ``count`` uniform-design doppler samples as ``x,y`` CSV files."""
    paths = []
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        x = rng.random(n)
        y = doppler(x) + rng.standard_normal(n)
        path = work / f"sample{i}.csv"
        np.savetxt(path, np.column_stack((x, y)), fmt="%.17g", delimiter=",",
                   header="x,y", comments="")
        paths.append(path)
    return paths


def reference_detail_level(basis, x, w, j: int) -> np.ndarray:
    """Direct sums sum_i w_i psi_{j,k}(x_i) for k = 0 .. 2^j - 1.

    Built from the public ``WaveletBasis.base`` alone, so the check does not
    depend on the package's coefficient code.  At most support_length + 1
    translates are nonzero at a point; periodization wraps k mod 2^j.
    """
    dim = 1 << j
    t = np.ldexp(x, j)
    k0 = np.floor(t).astype(np.int64)
    out = np.zeros(dim)
    for m in range(basis.support_length + 1):
        vals = 2.0 ** (j / 2.0) * basis.base("mother", t - k0 + m)
        out += np.bincount((k0 - m) % dim, weights=w * vals, minlength=dim)
    return out


def read_blocks(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return [
            (int(r["j"]), int(r["K"]), float(r["statistic"]), float(r["threshold"]),
             r["kept"] == "True")
            for r in csv.DictReader(fh)
        ]


def check_blocks(sample_csv: Path, blocks_csv: Path, basis, p: float = FIT_P,
                 d: float = FIT_D) -> bool:
    """``blocks.csv`` against statistics recomputed from the sample (uniform design).

    Every level listed must hold all of its blocks; each statistic must
    match within STAT_TOL, the threshold must be d / sqrt(n), and ``kept``
    must equal ``statistic >= threshold``.
    """
    data = np.loadtxt(sample_csv, delimiter=",", skiprows=1, ndmin=2)
    x, y = data[:, 0], data[:, 1]
    n = len(x)
    size = int(math.floor(math.log(n) ** (p / 2.0)))
    rows = read_blocks(blocks_csv)
    levels = sorted({r[0] for r in rows})
    if not rows or levels != list(range(levels[0], levels[-1] + 1)):
        return False
    expected = [(j, b) for j in levels for b in range(-(-(1 << j) // size))]
    if [(r[0], r[1]) for r in rows] != expected:
        return False
    beta = {j: reference_detail_level(basis, x, y / n, j) for j in levels}
    cut = d / math.sqrt(n)
    for j, b, stat, threshold, kept in rows:
        block = beta[j][b * size:(b + 1) * size]
        ref = float(np.mean(np.abs(block) ** p) ** (1.0 / p))
        if not (abs(stat - ref) <= STAT_TOL and math.isclose(threshold, cut, rel_tol=1e-12)
                and kept == (stat >= threshold)):
            return False
    return True


class FitCliDb4(Workload):
    name = "fit-cli-db4"
    setup = ("db4", "uniform", "doppler", 8)
    outputs = ("estimate.csv", "blocks.csv")

    def prepare(self, work, seed):
        from blockshrink import make_basis

        self.samples = write_fit_samples(work, seed)
        self.basis = make_basis("db4")

    def _fit(self, out, i):
        path = self.samples[i]
        argv = ["fit", "--input", str(path), "--basis", "db4", "--out-dir", str(out / str(i))]
        return cli_op(argv, out / str(i), path.name)

    def verdict(self, out, threads):
        start = time.perf_counter()
        if threads == 1:
            ops = [self._fit(out, i) for i in range(len(self.samples))]
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                ops = list(pool.map(lambda i: self._fit(out, i), range(len(self.samples))))
        return time.perf_counter() - start, ops

    def check_output(self, op):
        sample = next(s for s in self.samples if s.name == op.key)
        return check_blocks(sample, op.out / "blocks.csv", self.basis)


class DiagnoseDb6(Workload):
    """Master seeds come from the benchmark seed modulo the recorded table."""

    name = "diagnose-db6"
    setup = ("db6", DIAGNOSE_CONFIG["density"], DIAGNOSE_CONFIG["signal"], 8)
    outputs = ("diagnostics.json", "concentration.csv")

    def prepare(self, work, seed):
        recorded = json.loads((HERE / "moments.json").read_text())
        if recorded["config"] != DIAGNOSE_CONFIG:
            raise ValueError("moments.json was recorded for another diagnose config")
        self.moments = recorded["moments"]
        self.master_seed = seed % len(self.moments)
        self.config = work / "diagnose.json"
        self.config.write_text(json.dumps(DIAGNOSE_CONFIG))

    def verdict(self, out, threads):
        return _config_call("diagnose", self.config, out, self.master_seed, threads)

    def check_output(self, op):
        got = json.loads((op.out / "diagnostics.json").read_text())["moment"]["moments"]
        want = self.moments[str(self.master_seed)]
        return len(got) == len(want) and all(
            math.isclose(g, w, rel_tol=MOMENT_RTOL) for g, w in zip(got, want)
        )


WORKLOADS = {w.name: w for w in (RatesReadme, FitCliDb4, DiagnoseDb6)}

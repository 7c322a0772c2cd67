#!/usr/bin/env python3
"""Golden-output corpus: the outputs of small runs of every command.

Each case runs one command in process (``rates`` for every family, design
and p in {2, 3}, for every named signal, with ``--seed``, and for a ball in
the sparse and in the critical zone; ``diagnose`` and ``fit --grid 1024``
for every family, and ``fit`` on a sample with tied x; and ``basis`` at
every family's depth floor) and keeps what it wrote: the output files, the
manifest's subcommand, config and seed, and stdout with its exit code.  A
change meant to keep every output is checked against the corpus.

    python scripts/golden.py --write   # record the corpus in tests/golden/
    python scripts/golden.py --check   # rerun every case; exit 1 on a difference

A check compares each number within a relative 1e-12 and every other token
(strings, integers, flags) exactly.  When the numpy version and the platform
match those recorded with the corpus, it also compares the files byte for
byte.  Run from the repository root with the package importable, as in
``PYTHONPATH=src python scripts/golden.py --check``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from blockshrink.cli import main as cli_main

CORPUS = Path(__file__).resolve().parent.parent / "tests" / "golden"
REL_TOL = 1e-12
_ENV = "ENV.json"
_MANIFEST_KEYS = ("subcommand", "config", "master_seed")
_FAMILIES = {"haar": 8, "db4": 12, "db6": 10}  # each family's depth floor
_DESIGNS = {
    "uniform": {"kind": "uniform"},
    "tilt": {"kind": "linear-tilt", "slope": 0.5},
    "piecewise": {"kind": "piecewise", "breaks": [0.5], "values": [0.6, 1.4]},
}
_FIT_DENSITY = {"haar": "uniform", "db4": "linear-tilt:0.5", "db6": "piecewise:0.5:0.6,1.4"}


def _config(family: str, **fields) -> dict:
    # db6 needs n >= 1024 for a level at its coarsest level 3
    ns = [1024, 2048, 4096] if family == "db6" else [512, 1024, 2048]
    return {"signal": "heavisine", "basis_family": family, "n_grid": ns, "replications": 50,
            "master_seed": 1, "risk_grid": 4096, "compare_term": True, "slope_tol": 5,
            **fields}


def _cases() -> dict:
    """{case name: (command, config dict or None, extra argv)}."""
    cases = {}
    for family in _FAMILIES:
        for design, density in _DESIGNS.items():
            for p in (2, 3):
                cases[f"rates-{family}-{design}-p{p}"] = (
                    "rates", _config(family, density=density, p=p), [])
    cases["rates-db4-besov"] = ("rates", _config(
        "db4", signal={"random_besov": {"s": 2, "pi": 2, "seed": 1}},
        ball={"s": 2, "pi": 2}), [])
    for signal in ("blocks", "bumps", "constant", "doppler", "single-bump", "zero"):
        cases[f"rates-haar-{signal}"] = ("rates", _config("haar", signal=signal), [])
    cases["rates-haar-seed"] = ("rates", _config("haar"), ["--seed", "7"])
    # p = 5 admits both zones at pi = 1 (every n clamps its coarse level)
    cases["rates-haar-sparse"] = ("rates", _config("haar", p=5, ball={"s": "7/4", "pi": 1}), [])
    cases["rates-haar-critical"] = ("rates", _config("haar", p=5, ball={"s": 2, "pi": 1, "r": 2}),
                                    [])
    for family, density in zip(_FAMILIES, _DESIGNS.values()):
        cases[f"diagnose-{family}"] = ("diagnose", _config(family, density=density), [])
    for family, depth in _FAMILIES.items():
        cases[f"fit-{family}"] = ("fit", None, ["--basis", family, "--density",
                                                _FIT_DENSITY[family], "--grid", "1024"])
        cases[f"basis-{family}"] = ("basis", None, ["--family", family,
                                                    "--refine-depth", str(depth)])
    cases["fit-db4-tied"] = ("fit", None, ["--basis", "db4", "--grid", "1024"])
    return cases


CASES = _cases()


def _write_sample(path: Path) -> None:
    """A seeded doppler-like sample of 4096 rows, drawn by numpy alone, so
    that ``fit``'s corpus does not move with the package's sampler."""
    rng = np.random.default_rng(26)
    x = rng.random(4096)
    y = np.sin(2 * np.pi / (x + 0.05)) + 0.5 * rng.standard_normal(x.size)
    _save_sample(path, x, y)


def _write_tied_sample(path: Path) -> None:
    """A seeded sample of 4096 rows whose x, rounded to two decimals, ties
    everywhere, drawn by numpy alone, so that ``fit`` sorts by x and y."""
    rng = np.random.default_rng(27)
    x = np.round(rng.random(4096), 2)
    _save_sample(path, x, np.sin(6 * x) + rng.standard_normal(x.size))


def _save_sample(path: Path, x, y) -> None:
    np.savetxt(path, np.column_stack((x, y)), fmt="%.17g", delimiter=",", header="x,y",
               comments="")


# {fit case: (sample file, its writer)}; every other fit case reads sample.csv
_SAMPLES = {"fit-db4-tied": ("tied.csv", _write_tied_sample)}


def run(case: str, workdir: Path) -> dict:
    """Run ``case`` in ``workdir`` and return {file name: bytes} of what it
    wrote, with its stdout (and exit code) as ``stdout.txt``; ``workdir``
    reads as WORK wherever a path is printed or recorded."""
    command, config, extra = CASES[case]
    workdir = Path(workdir)
    out_dir = workdir / case
    argv = [command, *extra, "--out-dir", str(out_dir)]
    if config is not None:
        path = workdir / f"{case}.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    if command == "fit":
        name, writer = _SAMPLES.get(case, ("sample.csv", _write_sample))
        sample = workdir / name
        if not sample.exists():
            writer(sample)
        argv += ["--input", str(sample)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(argv)
    outputs = {"stdout.txt": f"exit {code}\n{stdout.getvalue()}"}
    for path in sorted(out_dir.iterdir()):
        if path.name == "manifest.json":
            manifest = json.loads(path.read_text())
            kept = {key: manifest[key] for key in _MANIFEST_KEYS}
            outputs[path.name] = json.dumps(kept, indent=2) + "\n"
        else:
            outputs[path.name] = path.read_bytes()
    return {name: data.replace(str(workdir), "WORK").encode() if isinstance(data, str) else data
            for name, data in outputs.items()}


_SPLIT = re.compile(r'([\s,:;=()\[\]{}"]+)')
_INTEGER = re.compile(r"[-+]?\d+")


def _number(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def same_within(want: str, got: str):
    """None if ``got`` matches ``want`` token by token, numbers within a
    relative REL_TOL and integers and other tokens exactly; else the first
    mismatch, as a message."""
    wants, gots = _SPLIT.split(want), _SPLIT.split(got)
    for i, (a, b) in enumerate(zip(wants, gots)):
        if a == b:
            continue
        fa, fb = _number(a), _number(b)
        if (fa is None or fb is None or _INTEGER.fullmatch(a) or _INTEGER.fullmatch(b)
                or not math.isclose(fa, fb, rel_tol=REL_TOL, abs_tol=0.0)):
            line = "".join(wants[:i]).count("\n") + 1
            return f"line {line}: want {a!r}, got {b!r}"
    if len(wants) != len(gots):
        return f"want {len(wants)} tokens, got {len(gots)}"
    return None


def _environment() -> dict:
    return {"numpy": np.__version__, "platform": platform.platform()}


def compare(case: str, outputs: dict, exact_bytes: bool) -> list:
    """The differences between ``outputs`` of ``case`` and its corpus, as
    messages: files missing or extra, then each file that differs."""
    recorded = {path.name: path.read_bytes() for path in sorted((CORPUS / case).iterdir())}
    problems = [f"{case}/{name}: {'missing' if name in recorded else 'not in the corpus'}"
                for name in sorted(set(recorded) ^ set(outputs))]
    for name in sorted(set(recorded) & set(outputs)):
        want, got = recorded[name], outputs[name]
        if (diff := same_within(want.decode(), got.decode())) is not None:
            problems.append(f"{case}/{name}: {diff}")
        elif exact_bytes and want != got:
            problems.append(f"{case}/{name}: bytes differ, numbers within {REL_TOL:g}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record the corpus")
    mode.add_argument("--check", action="store_true", help="compare against the corpus")
    args = parser.parse_args(argv)
    env_path = CORPUS / _ENV
    exact_bytes = args.check and json.loads(env_path.read_text()) == _environment()
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            outputs = run(case, Path(tmp))
            if args.write:
                (CORPUS / case).mkdir(parents=True, exist_ok=True)
                for old in (CORPUS / case).iterdir():
                    old.unlink()
                for name, data in outputs.items():
                    (CORPUS / case / name).write_bytes(data)
            else:
                problems += compare(case, outputs, exact_bytes)
    if args.write:
        env_path.write_text(json.dumps(_environment(), indent=2) + "\n")
        print(f"wrote {len(CASES)} cases to {CORPUS}")
        return 0
    for problem in problems:
        print(problem)
    how = "byte for byte" if exact_bytes else f"within a relative {REL_TOL:g}"
    print(f"{len(CASES)} cases, compared {how}: "
          f"{'OK' if not problems else f'{len(problems)} differences'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: fit, rates, diagnose, basis.

All runs write a manifest (resolved configuration, seed, artifact version,
Python and numpy versions, platform, timestamps, and every emitted file) so
any output can be reproduced from the manifest alone.  Tabular outputs are
CSV; structured reports are JSON.
Exit codes: 0 success / checks passed, 1 gated check failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .basis import coarsest_level, make_basis, midpoint_grid, synthesize
from .design import density_from_spec, read_sample_csv, write_csv
from .estimator import SampleSizeError, block_grid, blockshrink
from .harness import (_MAX_RISK_GRID, ConfigError, ExperimentConfig, run_diagnostics,
                      run_rate_experiment)

_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}


def parse_config(path) -> tuple[ExperimentConfig, tuple]:
    """Load and validate a JSON experiment config; return it, defaults filled, and its grids.

    Unknown keys, a key repeated in any object, and out-of-range parameters
    raise ConfigError naming the offending field.  The file is validated as
    written, so a malformed ``master_seed`` is refused even where ``--seed``
    replaces it.  ``run_rate_experiment`` and ``run_diagnostics`` validate
    the config they are handed again, as they must for any API caller.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"--config {path} cannot be read: {exc}") from exc
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    config = ExperimentConfig(**raw)
    try:
        _, grids, _ = config.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config, grids


def _unique_keys(pairs) -> dict:
    """One JSON object of a config: a repeated key raises ConfigError naming
    it, where ``json.loads`` would keep the last value silently."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config repeats the key {key!r}")
        obj[key] = value
    return obj


def _write_manifest(out_dir: Path, subcommand: str, config: dict, master_seed,
                    started_at: datetime, inputs: list, outputs: list) -> None:
    """Write the run's record ``out_dir/manifest.json``, after its outputs."""
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "master_seed": master_seed,
        "artifact_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "started_at": started_at.isoformat(),
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "inputs": [str(path) for path in inputs],
        "outputs": [str(path) for path in outputs],
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str) + "\n")


def _cmd_basis(args) -> int:
    started_at = datetime.now(timezone.utc)
    _flagged("--family", coarsest_level, args.family)
    basis = _flagged("--refine-depth", make_basis, args.family, args.refine_depth)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"basis_{basis.family}.csv"
    xs = basis.table_grid()
    write_csv(path, "x,phi,psi", xs, basis.phi_table, basis.psi_table)
    settings = {"family": args.family, "refine_depth": args.refine_depth}
    _write_manifest(out_dir, "basis", settings, None, started_at, [], [path])
    print(f"wrote {path} ({len(xs)} rows, support [0, {basis.support_length}])")
    return 0


def _flagged(flag: str, fn, *args, errors=ValueError):
    """``fn(*args)``, with the message of an error in ``errors`` prefixed by
    the flag whose value caused it."""
    try:
        return fn(*args)
    except errors as exc:
        raise ValueError(f"{flag}: {exc}") from exc


def _cmd_fit(args) -> int:
    started_at = datetime.now(timezone.utc)
    if not 1 <= args.grid <= _MAX_RISK_GRID or args.grid & (args.grid - 1):
        raise ConfigError(f"--grid={args.grid} must be a power of two up to {_MAX_RISK_GRID}")
    _flagged("--basis", coarsest_level, args.basis)
    basis = _flagged("--refine-depth", make_basis, args.basis, args.refine_depth)
    sample = _flagged("--input", read_sample_csv, args.input, errors=(ValueError, OSError))
    density = _flagged("--density", density_from_spec, args.density)
    try:  # block_grid checks n before p
        block_grid(sample.n, args.p, basis.coarsest_level)
    except SampleSizeError as exc:
        raise ValueError(f"--input: sample file {args.input}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"--p: {exc}") from exc
    est = _flagged("--d", blockshrink, sample, density, basis, args.p, args.d)
    values = _flagged("--grid", synthesize, basis, est.tree, args.grid)
    # out_dir is made only once every input has passed its checks
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    est_path = out_dir / "estimate.csv"
    write_csv(est_path, "x,fhat", midpoint_grid(args.grid), values)
    counts = [len(stats) for stats in est.statistics]
    blocks_path = out_dir / "blocks.csv"
    write_csv(
        blocks_path,
        "j,K,statistic,threshold,kept",
        np.repeat(list(est.grid.levels()), counts),
        np.concatenate([np.arange(c) for c in counts]),
        np.concatenate(est.statistics),
        np.repeat(est.cut, sum(counts)),
        np.concatenate(est.kept),
    )
    settings = {"input": str(args.input), "density": args.density, "basis": args.basis,
                "p": args.p, "d": args.d, "grid": args.grid}
    _write_manifest(out_dir, "fit", settings, None, started_at, [args.input],
                    [est_path, blocks_path])
    clamped = " (coarse level clamped)" if est.grid.clamped else ""
    print(
        f"fit n={sample.n}: levels {est.grid.j_low}..{est.grid.j_high}{clamped}, "
        f"block size {est.grid.block_size}; wrote {est_path} and {blocks_path}"
    )
    return 0


def _start_run(args):
    """Shared start of ``rates`` and ``diagnose``: note the start time, check
    ``--threads`` and ``--seed``, parse ``--config`` and apply ``--seed``."""
    started_at = datetime.now(timezone.utc)
    if args.threads < 1:
        raise ConfigError(f"threads={args.threads} must be at least 1")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed={args.seed} must be non-negative")
    config, grids = parse_config(args.config)
    if args.seed is not None:
        config.master_seed = args.seed
    return config, grids, Path(args.out_dir), started_at


def _print_clamped(grids) -> None:
    """Name the sizes of ``n_grid`` whose coarse level was clamped to the fine one."""
    if clamped := [str(grid.n) for grid in grids if grid.clamped]:
        print(f"coarse level clamped at n={', '.join(clamped)}")


def _cmd_rates(args) -> int:
    config, grids, out_dir, started_at = _start_run(args)
    report = run_rate_experiment(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "report.json"
    json_path.write_text(json.dumps(asdict(report), indent=2) + "\n")
    csv_path = out_dir / "risks.csv"
    write_csv(csv_path, "n,mean_risk,stderr,theory_exponent", report.n_grid, report.mean_risk,
              report.stderr, [report.theory_risk_exponent] * len(report.n_grid))
    _write_manifest(out_dir, "rates", asdict(config), config.master_seed, started_at,
                    [args.config], [json_path, csv_path])
    print(f"signal {report.meta['signal']}, zone {report.zone}")
    for n, risk, err in zip(report.n_grid, report.mean_risk, report.stderr):
        print(f"  n={n:>7d}  mean risk {risk:.6g} +- {err:.2g}")
    _print_clamped(grids)
    print(
        f"slope {report.slope:.4f} (se {report.slope_stderr:.4f}) vs theory "
        f"{report.theory_risk_exponent:.4f} -> {'PASS' if report.passed else 'FAIL'}"
    )
    if report.comparison:
        print("descriptive block vs term-by-term comparison (not gated):")
        print("  n        block        hard         soft")
        for row in report.comparison:
            print(
                f"  {row['n']:<8d} {row['block']:<12.6g} {row['hard']:<12.6g} "
                f"{row['soft']:<12.6g}"
            )
    return 0 if report.passed else 1


def _cmd_diagnose(args) -> int:
    config, grids, out_dir, started_at = _start_run(args)
    moment, conc = run_diagnostics(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "diagnostics.json"
    json_path.write_text(
        json.dumps({"moment": asdict(moment), "concentration": asdict(conc)}, indent=2) + "\n"
    )
    csv_path = out_dir / "concentration.csv"
    write_csv(
        csv_path,
        "n,frequency,wilson_upper,envelope,median_stat",
        conc.n_grid, conc.frequency, conc.wilson_upper, conc.envelope, conc.median_stat,
    )
    _write_manifest(out_dir, "diagnose", asdict(config), config.master_seed, started_at,
                    [args.config], [json_path, csv_path])
    _print_clamped(grids)
    print(
        f"moment decay at (j={moment.j}, k={moment.k}): slope {moment.slope:.4f} "
        f"vs {moment.theory_exponent} -> {'PASS' if moment.passed else 'FAIL'}"
    )
    print(
        f"block deviation tail at (j={conc.j}, K={conc.block}, mu={conc.mu:g}): "
        f"max freq {max(conc.frequency):.3g} vs envelope "
        f"{min(conc.envelope):.3g} -> {'PASS' if conc.passed else 'FAIL'}"
    )
    return 0 if (moment.passed and conc.passed) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockshrink",
        description="Block-thresholded wavelet regression and its rate diagnostics",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".", help="directory for outputs")

    q = sub.add_parser("basis", parents=[common], help="dump wavelet tables as CSV")
    q.add_argument("--family", default="haar")
    q.add_argument("--refine-depth", type=int, default=12, dest="refine_depth")
    q.set_defaults(func=_cmd_basis)

    q = sub.add_parser("fit", parents=[common], help="denoise one sample CSV")
    q.add_argument("--input", required=True, help="sample CSV with header x,y")
    q.add_argument("--density", default="uniform", help="uniform | linear-tilt:<slope> | piecewise:<breaks>:<values>")
    q.add_argument("--basis", default="haar")
    q.add_argument("--refine-depth", type=int, default=12, dest="refine_depth")
    q.add_argument("--p", type=float, default=2.0)
    q.add_argument("--d", type=float, default=4.0)
    q.add_argument("--grid", type=int, default=1 << 14, help="output grid size")
    q.set_defaults(func=_cmd_fit)

    for name, fn, help_text in (
        ("rates", _cmd_rates, "risk-decay slope experiment"),
        ("diagnose", _cmd_diagnose, "coefficient moment/concentration checks"),
    ):
        q = sub.add_parser(name, parents=[common], help=help_text)
        q.add_argument("--config", required=True)
        q.add_argument("--seed", type=int, default=None, help="override master seed")
        q.add_argument("--threads", type=int, default=1,
                       help="a run uses one thread; accepted (at least 1) with no effect "
                            "until perfbench stops passing it")
        q.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # made at the first output, but refused here if a file is in its way
        out_dir = Path(args.out_dir)
        existing = next(path for path in (out_dir, *out_dir.parents) if path.exists())
        if not existing.is_dir():
            raise ValueError(f"--out-dir {out_dir}: {existing} exists and is not a directory")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

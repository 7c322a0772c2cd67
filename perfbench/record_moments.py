"""Record the diagnose-db6 moments that the benchmark checks against.

Run from the root of a checkout whose results are trusted:

    python3 perfbench/record_moments.py

It runs ``blockshrink diagnose`` on the workload's config for master seeds
0 .. SEEDS - 1 and writes ``perfbench/moments.json``.
"""

import json
import sys
import tempfile
from pathlib import Path

SEEDS = 16


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from blockshrink import cli
    from workloads import DIAGNOSE_CONFIG, HERE

    moments = {}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        config = Path(tmp) / "diagnose.json"
        config.write_text(json.dumps(DIAGNOSE_CONFIG))
        for seed in range(SEEDS):
            out = Path(tmp) / str(seed)
            rc = cli.main(["diagnose", "--config", str(config), "--out-dir", str(out),
                           "--seed", str(seed)])
            if rc != 0:
                print(f"diagnose failed for master seed {seed} (exit {rc})", file=sys.stderr)
                return 1
            report = json.loads((out / "diagnostics.json").read_text())
            moments[str(seed)] = report["moment"]["moments"]
    (HERE / "moments.json").write_text(
        json.dumps({"config": DIAGNOSE_CONFIG, "moments": moments}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print the sha256 of every output file of the given experiment configs.

    python3 tools/output_hashes.py [CONFIG.yaml ...]

Runs each config (default: every configs/*.yaml) in-process with the
package of the checkout this script sits in, as `wgqed run` would, writes
its outputs into a temporary directory and prints one JSON object mapping
"experiment/file" to the sha256 of that file.  Two checkouts produce the
same tables exactly when their outputs diff clean:

    python3 tools/output_hashes.py > after.json
    python3 ../parent/tools/output_hashes.py > before.json
    diff before.json after.json
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from wgqed.config import load_config, resolve_config  # noqa: E402
from wgqed.experiments import run_experiment  # noqa: E402


def output_hashes(paths):
    """``{"experiment/file": sha256}`` of the outputs of each config."""
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for path in paths:
            cfg = resolve_config(load_config(path))
            for out in run_experiment(cfg).write(tmp):
                key = f"{cfg.experiment}/{out.name}"
                if key in hashes:
                    raise SystemExit(f"{path}: a second {cfg.experiment} "
                                     "config; give one per experiment")
                hashes[key] = hashlib.sha256(out.read_bytes()).hexdigest()
    return hashes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", type=Path,
                        help="experiment configs (default: configs/*.yaml)")
    args = parser.parse_args(argv)
    paths = args.configs or sorted((ROOT / "configs").glob("*.yaml"))
    print(json.dumps(output_hashes(paths), indent=1, sort_keys=True))


if __name__ == "__main__":
    main()

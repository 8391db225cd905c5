"""Set-up of one ``wgqed run``, timed by the parent from process start.

    python3 setup_probe.py <src dir> <seed> <config.yaml>...

Imports the entry point's modules, then loads, seeds, schema-validates
and resolves every config, and prints ``ready``.
"""

import sys


def main(argv):
    src, seed, paths = argv[0], int(argv[1]), argv[2:]
    sys.path.insert(0, src)
    import wgqed.cli  # noqa: F401  (the import set every run pays for)
    from wgqed.config import load_config, resolve_config
    for path in paths:
        data = load_config(path)
        data["seed"] = seed
        resolve_config(data)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])

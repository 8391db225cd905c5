"""Benchmark of wgqed: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload optics-n2 --seed 1 --seconds 12 \
        --trace 0

Drives the program the way ``wgqed run`` does (load_config ->
resolve_config -> run_experiment -> ResultBundle.write) on every config
of the workload, once, with grid threads = 1, and checks its outputs.
Untraced, each result is then written again and again for ``--seconds``
of writing while the set-up is timed in fresh interpreters.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (operations, one per config) and ``metrics``, the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
See README.md.
"""

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REQUIRED = (SRC / "wgqed" / "__init__.py", ROOT / "configs",
            ROOT / "tests" / "_oracles.py")
# Untraced, the results are written in turn, again and again, until each
# is written WRITE_MIN times and --seconds have been spent writing; write_s
# sums each result's mean write time.  The speed of this machine drifts by
# a fifth within seconds, so a mean over seconds of writes is needed.  The
# set-up probes run between those writes, spaced evenly, so that both
# spread over the same longer stretch.
WRITE_MIN = 3
SETUP_REPEATS = 5   # fresh interpreters per run; set-up reports their median

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def setup_probe(paths, seed):
    """Seconds from interpreter start to the workload's resolved configs."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(seed)]
        + [str(p) for p in paths], stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError("set-up probe failed")
    return elapsed


def compute(paths, seed):
    """Load, resolve and run every config; (raw, result, seconds) or None."""
    from wgqed import config, experiments
    done = []
    for path in paths:
        try:
            data = config.load_config(path)
            data["seed"] = seed
            cfg = config.resolve_config(data)
            # every config starts from the same collector state: the peak
            # memory of a config with large cyclic garbage depends on when
            # the collector runs
            gc.collect()
            start = time.perf_counter()
            bundle = experiments.run_experiment(cfg, threads=1)
            done.append((cfg.raw, bundle, time.perf_counter() - start))
        except Exception:
            traceback.print_exc()
            done.append(None)
    return done


def write_all(done, out_dir, span, probes, paths, seed):
    """Write every result; per-config mean write times and set-up probes.

    Each result is written until it has been written WRITE_MIN times and
    ``span`` seconds have been spent writing (once each when ``span`` is
    0), and ``probes`` set-up probes run spaced over the writes.  Every
    write goes to an output directory that does not exist yet: the one of
    the write before is removed first, untimed.  Writing over existing
    files costs a truncation whose time varies ten-fold, and keeping every
    write's files makes the next ones slower.  A config whose write raises
    gets None and is not written again.
    """
    times = [[] if op else None for op in done]
    setup = []
    writing = 0.0
    passes = 0
    while passes < (WRITE_MIN if span else 1) or writing < span:
        for i, spent in enumerate(times):
            if spent is None:
                continue
            bundle = done[i][1]
            shutil.rmtree(out_dir / bundle.experiment, ignore_errors=True)
            try:
                start = time.perf_counter()
                bundle.write(out_dir)
                spent.append(time.perf_counter() - start)
                writing += spent[-1]
            except Exception:
                traceback.print_exc()
                times[i] = None
        passes += 1
        while len(setup) < probes and writing >= len(setup) * span / probes:
            setup.append(setup_probe(paths, seed))
        if all(spent is None for spent in times):
            break
    while len(setup) < probes:
        setup.append(setup_probe(paths, seed))
    return [statistics.fmean(t) if t else None for t in times], setup


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"not a wgqed checkout, missing: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from wgqed import scalability

    out = workloads.OUT / args.workload
    results = out / "results"
    shutil.rmtree(results, ignore_errors=True)   # the previous run's tables
    paths = workloads.config_paths(args.workload)
    failures = []
    if args.workload == "yield":
        failures += checks.yield_oracle(scalability.conditional_success_count,
                                        scalability.ScalabilityConfig)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    try:
        done = compute(paths, args.seed)
        if tracer is None:
            write, setup = write_all(done, results, args.seconds,
                                     SETUP_REPEATS, paths, args.seed)
        else:
            write, setup = write_all(done, results, 0.0, 0, paths, args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()

    # an operation fails when any of its steps raises or any check fails
    ok = []                         # (seconds computing, seconds writing)
    for op, spent in zip(done, write):
        if op is None or spent is None:
            continue
        raw, bundle, seconds = op
        try:
            found = checks.check(args.workload, bundle, raw, args.seed)
        except Exception:
            traceback.print_exc()
            found = [f"{bundle.experiment}: a check raised"]
        failures += found
        if not found:
            ok.append((seconds, spent))
    failed = len(paths) - len(ok)
    for msg in failures:
        print(f"CHECK FAILED {msg}", file=sys.stderr)

    if tracer is not None:
        tracer.write(out / f"trace-seed{args.seed}.jsonl")
        values = tracer.summary()
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in spans.metric_units().items()}
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "compute_s": {"value": sum(c for c, _ in ok), "unit": "s"},
            "write_s": {"value": sum(w for _, w in ok), "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0 and not failures,
                      "attempted": len(paths), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

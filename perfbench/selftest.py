"""Self-test of the output checks: each must fail on a corrupted result.

    python3 perfbench/selftest.py

Runs every config of every workload once, requires that all checks pass
on the clean results, then corrupts one result at a time (one shifted
value, swapped L/R columns, ...) and requires that the check aimed at
that corruption reports it.  Exits 1 if any case does not behave.
"""

import copy
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from wgqed import scalability  # noqa: E402
from wgqed.config import load_config, resolve_config  # noqa: E402
from wgqed.experiments import run_experiment  # noqa: E402

SEED = 1


def edit(table, column, change):
    """Corruption that replaces one column by change(column array)."""
    def corrupt(bundle):
        names, rows = bundle.tables[table]
        i = names.index(column)
        new = change(np.array([r[i] for r in rows]))
        bundle.tables[table] = (names, [r[:i] + (v,) + r[i + 1:]
                                        for r, v in zip(rows, new)])
    return corrupt


def shift_at(index, delta):
    def change(a):
        a = a.copy()
        a[index] += delta
        return a
    return change


def swap(table, col_a, col_b):
    def corrupt(bundle):
        names, rows = bundle.tables[table]
        i, j = names.index(col_a), names.index(col_b)
        names = list(names)
        names[i], names[j] = names[j], names[i]
        bundle.tables[table] = (names, rows)
    return corrupt


def swap_rows(table, column, a, b):
    def change(v):
        v = v.copy()
        v[[a, b]] = v[[b, a]]
        return v
    return edit(table, column, change)


def heights_edit(ports, delta):
    def corrupt(bundle):
        names, rows = bundle.tables["heights"]
        bundle.tables["heights"] = (names, [
            (p, h, hi + delta if p == ports else hi) for p, h, hi in rows])
    return corrupt


def _square_edit(column, i, j, delta):
    """Shift entry (i, j) of a map stored row by row."""
    def change(a):
        nt = int(round(np.sqrt(len(a))))
        a = a.copy()
        a[i * nt + j] += delta * np.abs(a).max()
        return a
    return edit("map", column, change)


def _corner(bundle):
    names, rows = bundle.tables["transmission"]
    return next(k for k, r in enumerate(rows)
                if abs(r[0]) == 6.0 and abs(r[1]) == 6.0)


def _at_corner(delta):
    def corrupt(bundle):
        edit("transmission", "transmission",
             shift_at(_corner(bundle), delta))(bundle)
    return corrupt


def _tau0(column, delta):
    return edit("g2", column, lambda a: np.where(
        np.arange(len(a)) == len(a) // 2, a + delta, a))


CASES = [
    ("optics-n2", "transmission-scan", "T above 1",
     edit("transmission", "transmission", shift_at(0, 0.02)),
     "T outside"),
    ("optics-n2", "transmission-scan", "corner T lowered",
     _at_corner(-0.02), "corners"),
    ("optics-n2", "transmission-scan", "all T scaled by 1 - 1e-6",
     edit("transmission", "transmission", lambda a: a * (1 - 1e-6)),
     "resolvent"),
    ("optics-n2", "transmission-saturation", "two powers swapped",
     swap_rows("saturation", "transmission_coherent", 3, 4),
     "transmission_coherent does not rise"),
    ("optics-n2", "transmission-saturation", "last flux shifted",
     edit("saturation", "transmission_flux", shift_at(-1, 0.01)),
     "within 1e-3 of 1"),
    ("optics-n2", "lifetime", "left intensity raised by 0.2 / ns",
     edit("lifetime", "intensity_left", lambda a: a + 0.2),
     "photon number"),
    ("optics-n2", "phase-sweep", "one fraction shifted",
     edit("directionality", "frac_left_0.4ns", shift_at(5, 1e-3)),
     "sum to 1"),
    ("optics-n2", "phase-sweep", "theta axis shifted by two points",
     edit("directionality", "frac_right_prompt", lambda a: np.roll(a, 2)),
     "peaks off"),
    ("optics-n2", "detuning-sweep", "one fraction shifted",
     edit("directionality", "frac_right", shift_at(3, 1e-3)),
     "sum to 1"),
    ("optics-n2", "detuning-sweep", "far-detuned split moved to 60/40",
     lambda b: [edit("directionality", "frac_left", shift_at(0, 0.1))(b),
                edit("directionality", "frac_right",
                     shift_at(0, -0.1))(b)],
     "50/50"),
    ("optics-n2", "g2-cw", "g2_RR(0) shifted down",
     _tau0("g2_RR_irf", -0.5), "within 0.98"),
    ("optics-n2", "g2-cw", "L/R columns swapped",
     swap("g2", "g2_RR_irf", "g2_LL_irf"), "not above g2_LL(0)"),
    ("optics-n2", "g2-pulsed", "LL height shifted",
     heights_edit("LL", 0.2), "LL height"),
    ("optics-n2", "g2-pulsed", "LL and LR heights exchanged",
     lambda b: [heights_edit("LL", -0.28)(b), heights_edit("LR", 0.28)(b)],
     "same-port heights"),
    ("optics-n2", "g2-map", "one different-pulse value shifted",
     _square_edit("G2_different", 150, 120, 1e-3), "rank one"),
    ("optics-n2", "g2-map", "one same-pulse value shifted",
     _square_edit("G2_same", 150, 120, 1e-6), "symmetric"),
    ("optics-n4", "g2-cw", "g2_RR shifted at one delay",
     edit("g2", "g2_RR", shift_at(10, 1e-6)), "E_L = E_R"),
    ("optics-n4", "g2-pulsed", "center_RR shifted at one delay",
     edit("correlogram", "center_RR", shift_at(50, 1e-6)), "E_L = E_R"),
    ("optics-n4", "phase-sweep", "one prompt fraction moved off 0.5",
     edit("directionality", "frac_right_prompt", shift_at(2, 1e-6)),
     "0.5 at phase 0"),
    ("optics-n4", "transmission-scan", "all T scaled by 1 - 1e-6",
     edit("transmission", "transmission", lambda a: a * (1 - 1e-6)),
     "resolvent"),
    ("yield", "scalability", "P1 shifted by 0.02",
     edit("yield", "p_per_waveguide", lambda a: a + 0.02), "P1(3;3)"),
    ("yield", "scalability", "per-chip yield shifted by 0.05",
     edit("yield", "p_per_chip", lambda a: a - 0.05), "per-chip"),
    ("yield", "scalability", "modes swapped",
     swap_rows("yield", "mode", 0, 1), "below consecutive"),
    ("yield", "scalability-heatmap", "one point raised above the next",
     edit("heatmap", "p_per_waveguide",
          lambda a: np.where(np.arange(len(a)) == 1, a[2] + 0.05, a)),
     "decreases along"),
]


def results():
    """(workload, experiment) -> (bundle, raw config), one clean run each."""
    out = {}
    for workload in workloads.WORKLOADS:
        for path in workloads.config_paths(workload):
            data = load_config(path)
            data["seed"] = SEED
            cfg = resolve_config(data)
            out[(workload, cfg.experiment)] = (run_experiment(cfg), cfg.raw)
    return out


def oracle_case():
    """The oracle check must fail against a shifted Monte Carlo count."""
    clean = checks.yield_oracle(scalability.conditional_success_count,
                                scalability.ScalabilityConfig)

    def shifted(n_qd, config):
        return scalability.conditional_success_count(n_qd, config) + 400
    corrupt = checks.yield_oracle(shifted, scalability.ScalabilityConfig)
    return not clean and any("oracle" in m for m in corrupt)


def main():
    bad = []
    res = results()
    for (workload, experiment), (bundle, raw) in res.items():
        failures = checks.check(workload, bundle, raw, SEED)
        if failures:
            bad.append(f"clean {workload} {experiment}: {failures}")
    for workload, experiment, what, corrupt, expected in CASES:
        bundle, raw = res[(workload, experiment)]
        bundle = copy.deepcopy(bundle)
        corrupt(bundle)
        failures = checks.check(workload, bundle, raw, SEED)
        hit = any(expected in m for m in failures)
        print(f"{'ok ' if hit else 'BAD'} {workload} {experiment}: {what}"
              f" -> {failures}")
        if not hit:
            bad.append(f"{workload} {experiment}: {what} not caught")
    if oracle_case():
        print("ok  yield oracle: shifted Monte Carlo count caught")
    else:
        bad.append("yield oracle: shifted count not caught")
    for msg in bad:
        print("FAIL", msg)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

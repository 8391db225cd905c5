"""Span tracing of wgqed's layers from outside the package.

``Tracer.install`` replaces each traced function, under every name by
which a wgqed module calls it, with a wrapper that records a span (name,
start, end, parent) and the counters listed below.  Spans stay in memory
until ``write``.  A span's self time is its duration minus the durations
of its direct children; the traced run is single-threaded, so a stack
gives every span its parent.
"""

import functools
import importlib
import json
import sys
import time
from collections import Counter

# (module, attribute) -> span name; "Class.method" patches the class
TRACED = {
    ("config", "load_config"): "config.load_config",
    ("config", "resolve_config"): "config.resolve_config",
    ("model", "LindbladGenerator.__init__"): "model.LindbladGenerator",
    ("model", "effective_hamiltonian"): "model.effective_hamiltonian",
    ("dynamics", "propagate"): "dynamics.propagate",
    ("dynamics", "steady_state"): "dynamics.steady_state",
    ("dynamics", "g2_cw"): "dynamics.g2_cw",
    ("dynamics", "pulsed_g2_map"): "dynamics.pulsed_g2_map",
    ("dynamics", "integrated_pulsed_g2"): "dynamics.integrated_pulsed_g2",
    ("dynamics", "expm"): "dynamics.expm",
    ("dynamics", "solve_ivp"): "dynamics.solve_ivp",
    ("observables", "transmission_coherent"):
        "observables.transmission_coherent",
    ("observables", "transmission_saturated"):
        "observables.transmission_saturated",
    ("observables", "intensity_record"): "observables.intensity_record",
    ("instrument", "spectral_diffusion_average"):
        "instrument.spectral_diffusion_average",
    ("instrument", "jitter_convolve"): "instrument.jitter_convolve",
    ("scalability", "probability_per_waveguide"):
        "scalability.probability_per_waveguide",
    ("scalability", "conditional_success_count"):
        "scalability.conditional_success_count",
    ("scalability", "poisson_weights"): "scalability.poisson_weights",
    ("experiments", "run_experiment"): "experiments.run_experiment",
    ("experiments", "ResultBundle.write"): "experiments.write",
}

COUNTERS = ("dynamics.solve_ivp.nfev",
            "instrument.spectral_diffusion_average.nodes",
            "scalability.samples", "scalability.draw_reuse",
            "experiments.write.rows", "experiments.write.bytes")


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span in TRACED.values():
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units["experiments.run_experiment.wall_s"] = "s"
    for name in COUNTERS:
        units[name] = "ratio" if name == "scalability.draw_reuse" \
            else "bytes" if name.endswith(".bytes") else "count"
    return units


class Tracer:
    """Records spans and counters."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self._stack = []
        self._counts = Counter()
        self._draws = Counter()  # (seed, N) -> conditional_success_count calls
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
        return traced

    def _counting(self, name, fn):
        """Wrap fn so that it also updates the counters of its layer."""
        counts = self._counts
        if name == "dynamics.solve_ivp":
            def counted(*args, **kwargs):
                sol = fn(*args, **kwargs)
                counts["dynamics.solve_ivp.nfev"] += int(sol.nfev)
                return sol
        elif name == "instrument.spectral_diffusion_average":
            def counted(simulation, *args, **kwargs):
                def node(offsets):
                    counts["instrument.spectral_diffusion_average.nodes"] += 1
                    return simulation(offsets)
                return fn(node, *args, **kwargs)
        elif name == "scalability.conditional_success_count":
            def counted(n_qd, config, runs=None):
                if n_qd >= config.n_set:   # below n_set nothing is drawn
                    counts["scalability.samples"] += \
                        config.runs if runs is None else runs
                    self._draws[(config.seed, n_qd)] += 1
                return fn(n_qd, config, runs)
        elif name == "experiments.write":
            def counted(bundle, out_dir):
                paths = fn(bundle, out_dir)
                counts["experiments.write.rows"] += sum(
                    len(rows) for _, rows in bundle.tables.values())
                counts["experiments.write.bytes"] += sum(
                    p.stat().st_size for p in paths)
                return paths
        else:
            return fn
        return functools.wraps(fn)(counted)

    # -- installation ------------------------------------------------------

    def install(self):
        """Patch every traced function where wgqed's modules look it up."""
        for mod_name, _ in TRACED:
            importlib.import_module(f"wgqed.{mod_name}")
        modules = [m for n, m in sys.modules.items()
                   if n == "wgqed" or n.startswith("wgqed.")]
        for (mod_name, attr), name in TRACED.items():
            owner = sys.modules[f"wgqed.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, original, self._span(
                    name, self._counting(name, original)))
                continue
            original = getattr(owner, attr)
            wrapped = self._span(name, self._counting(name, original))
            for mod in modules:
                if vars(mod).get(attr) is original:
                    self._set(mod, attr, original, wrapped)

    def _set(self, target, attr, original, wrapped):
        setattr(target, attr, wrapped)
        self._restore.append((target, attr, original))

    def uninstall(self):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # -- summaries ---------------------------------------------------------

    def summary(self):
        """Every per-layer metric of the spans and counters recorded."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for span in TRACED.values():
            out[f"{span}.calls"] = 0
            out[f"{span}.self_s"] = 0.0
        out["experiments.run_experiment.wall_s"] = 0.0
        for (name, start, end, _), kids in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - kids
            if name == "experiments.run_experiment":
                out["experiments.run_experiment.wall_s"] += end - start
        for name in COUNTERS:
            out[name] = self._counts[name]
        draws = sum(self._draws.values())
        out["scalability.draw_reuse"] = \
            draws / len(self._draws) if self._draws else 0.0
        return out

    def write(self, path):
        """Write all spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

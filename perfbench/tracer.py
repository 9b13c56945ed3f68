"""Spans and call counts around obsforge's public functions, kept in memory.

The tracer replaces each public function of the layer modules at every
name its callers look it up by: ``obsforge.attack.solve_lyapunov`` as well
as ``obsforge.numerics.solve_lyapunov``, since the modules bind
``from .numerics import ...`` names at import. Nothing in the package
changes; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import statistics
import time
from collections import defaultdict

# cli.main is not wrapped: the cli_pipeline workload opens a span per
# subcommand around it, so that span's self time is main's own work.
LAYERS = ("model", "attack", "observer", "roa", "sim", "numerics", "refcase")


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child_time", "attrs")

    def __init__(self, id, name, parent, start):
        self.id, self.name, self.parent, self.start = id, name, parent, start
        self.end = None
        self.child_time = 0.0
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child_time


def _sim_attrs(name, bound):
    """RK4 steps and rows of an integration call, bytes of a CSV write."""
    a = bound.arguments
    if name in ("sim.integrate", "sim.integrate_batch"):
        rows = 1 if name == "sim.integrate" else len(a["z0_batch"])
        return {"steps": int(round(a["T"] / a["dt"])), "rows": rows}
    if name == "sim.trajectory_to_csv":
        return {"bytes": os.path.getsize(a["path"])}
    return {}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stack = []
        self._patched = []  # (module, attribute, original)

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent.id if parent else None, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_time += span.duration

    @contextlib.contextmanager
    def span(self, name):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        sig = inspect.signature(fn) if name.startswith("sim.") else None

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = _sim_attrs(name, bound)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [getattr(self.package, layer) for layer in LAYERS]
        wrappers = {}
        for mod in modules:
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap("%s.%s" % (mod.__name__.rsplit(".", 1)[1], attr), fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- output --------------------------------------------------------------

    def write(self, path, spans):
        """Spans (name, start, end, parent) and per-name call counts, as JSON."""
        counts = defaultdict(int)
        for s in spans:
            counts[s.name] += 1
        t0 = spans[0].start if spans else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    "counts": dict(sorted(counts.items())),
                    "spans": [
                        {"id": s.id, "name": s.name, "parent": s.parent,
                         "start_s": s.start - t0, "end_s": s.end - t0, **s.attrs}
                        for s in spans
                    ],
                },
                fh,
            )


def round_layer_metrics(spans):
    """Per-layer metrics of one traced round, named as in BENCHMARK.json's per_layer list."""
    calls, total, self_t = defaultdict(int), defaultdict(float), defaultdict(float)
    steps = defaultdict(lambda: [0.0, 0])  # key -> [seconds, rk4 steps]
    sample_steps = csv_bytes = 0
    report_sizes = {}
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.duration
        self_t[s.name] += s.self_time
        if "steps" in s.attrs:
            rows = s.attrs["rows"]
            key = "1row" if s.name == "sim.integrate" else "%drows" % rows
            steps[key][0] += s.duration
            steps[key][1] += s.attrs["steps"]
            sample_steps += rows * s.attrs["steps"]
        csv_bytes += s.attrs.get("bytes", 0)
        if "report_bytes" in s.attrs:
            report_sizes[s.name] = s.attrs["report_bytes"]

    m = {}
    for sub in CLI_SUBCOMMANDS:
        m["cli.%s.self_ms" % sub] = 1e3 * self_t["cli." + sub]
        m["cli.%s.report_bytes" % sub] = report_sizes.get("cli." + sub, 0)
    for name in INCLUSIVE_MS:
        m[name + ".ms"] = 1e3 * total[name]
    for name in SELF_MS:
        m[name + ".self_ms"] = 1e3 * self_t[name]
    for name in CALLS:
        m[name + ".calls"] = calls[name]
    for name in INCLUSIVE_S:
        m[name + ".s"] = total[name]
    for key in ("1row", "500rows", "200rows"):
        sec, n = steps[key]
        m["sim.step_us_" + key] = 1e6 * sec / n if n else 0.0
    m["sim.sample_steps"] = sample_steps
    m["sim.csv_bytes"] = csv_bytes
    return m


def median_metrics(per_round):
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}


CLI_SUBCOMMANDS = ("validate", "synthesize", "simulate", "roa", "reproduce-paper")
INCLUSIVE_MS = (
    "model.validate_assumptions", "attack.choose_pi_star", "attack.is_observable",
    "attack.gamma_max", "observer.gain_from_vector", "numerics.solve_lyapunov",
    "numerics.place_poles_dual", "numerics.eig", "numerics.spectrum_distance",
    "roa.certify", "sim.trajectory_to_csv", "sim.fit_decay",
)
SELF_MS = ("attack.build_design", "observer.design_gain", "roa.monte_carlo_box_check", "roa.verify_decay")
CALLS = ("attack.is_observable", "numerics.solve_lyapunov", "numerics.eig", "roa.certify")
INCLUSIVE_S = ("sim.integrate", "sim.integrate_batch", "refcase.run_reference_case")

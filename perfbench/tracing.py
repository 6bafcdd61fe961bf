"""Span tracer that times windrisk's layers from outside the package.

Nothing under ``src/`` is touched.  :func:`install` rebinds module-level
names in every loaded ``windrisk`` module (for instance
``windrisk.dependence.integrate`` and ``windrisk.risk.integrate``) to
wrappers that open a span around the call.  Spans live in memory; the
per-layer metrics are derived from them once the pass has finished.

A span's self time is its duration minus the durations of its direct
children.  The integrand handed to ``integrate`` is wrapped as well, so
the quadrature's own self time is its panel bookkeeping only, and the
integrand's time is credited to the layer that owns the integrand: the
pair kernel to ``dependence``, the outer integrands of ``r2`` and ``K``
to that risk function.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time

import numpy as np

# the layer metrics a traced pass reports, with their units
LAYER_METRICS = {
    "numerics.integrate.calls": "count",
    "numerics.integrate.nodes": "count",
    "numerics.integrate.self_s": "s",
    "numerics.integrate.abs_floor_accepts": "count",
    "numerics.integrate.failures": "count",
    "dependence.calls": "count",
    "dependence.self_s": "s",
    "geometry.density.calls": "count",
    "geometry.density.self_s": "s",
    "risk.r2.calls": "count",
    "risk.r2.self_s": "s",
    "risk.K.calls": "count",
    "risk.K.s": "s",
    "simulate.smith.ns_per_site_rep": "ns",
    "simulate.tube.ns_per_site_rep": "ns",
    "simulate.br_exact.ns_per_site_rep": "ns",
    "simulate.br_truncated.ns_per_site_rep": "ns",
    "simulate.br_truncated.late_update_fraction": "frac",
    "simulate.estimators.self_s": "s",
    "simulate.dump.s": "s",
    "simulate.dump.bytes": "bytes",
    "cli.depsurface.s": "s",
    "cli.r2curves.s": "s",
    "cli.riskreport.s": "s",
    "cli.self_s": "s",
}

_DEPENDENCE_PREFIXES = ("dep_measure", "cov_", "g_", "var_")
_ESTIMATORS = ("gev_transform", "gev_transform_values", "mc_normalized_loss", "mc_risk")


class Tracer:
    """In-memory spans plus the counters that are measured at the same
    boundaries (quadrature nodes, simulated site-replicates, dump bytes)."""

    def __init__(self):
        # one [name, parent index, start, end] per span, in start order
        self.spans = []
        self._stack = []
        self.counts = {}
        self.values = {}

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def innermost(self, names) -> str | None:
        """Name of the innermost open span among ``names``."""
        for idx in reversed(self._stack):
            if self.spans[idx][0] in names:
                return self.spans[idx][0]
        return None

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(args, kwargs, result)`` records
        counters from the call once it has returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict:
        """Calls, inclusive time of outermost spans, and self time per span name."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child[i]
            # inclusive time counts only spans not nested in one of the same name
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][1]
            if p < 0:
                row["total_s"] += end - start
        return out

    def layer_metrics(self) -> dict:
        s = self.summary()

        def calls(*names):
            return sum(s[n]["calls"] for n in names if n in s)

        def self_s(pred):
            return sum(row["self_s"] for n, row in s.items() if pred(n))

        def total(name):
            return s[name]["total_s"] if name in s else 0.0

        def ns_per_site_rep(name):
            work = self.counts.get(name + ".site_reps", 0)
            return 1e9 * total(name) / work if work else 0.0

        dep_public = [n for n in s if n.startswith("dependence.") and n != "dependence.integrand"]
        m = {
            "numerics.integrate.calls": calls("numerics.integrate"),
            "numerics.integrate.nodes": self.counts.get("numerics.integrate.nodes", 0),
            "numerics.integrate.self_s": self_s(lambda n: n == "numerics.integrate"),
            "numerics.integrate.abs_floor_accepts":
                self.counts.get("numerics.integrate.abs_floor_accepts", 0),
            "numerics.integrate.failures": self.counts.get("numerics.integrate.failures", 0),
            "dependence.calls": calls(*dep_public),
            "dependence.self_s": self_s(lambda n: n.startswith("dependence.")),
            "geometry.density.calls": calls("geometry.density"),
            "geometry.density.self_s": self_s(lambda n: n == "geometry.density"),
            "risk.r2.calls": calls("risk.r2"),
            "risk.r2.self_s": self_s(lambda n: n.startswith("risk.r2")),
            "risk.K.calls": calls("risk.K"),
            "risk.K.s": total("risk.K"),
            "simulate.smith.ns_per_site_rep": ns_per_site_rep("simulate.smith"),
            "simulate.tube.ns_per_site_rep": ns_per_site_rep("simulate.tube"),
            "simulate.br_exact.ns_per_site_rep": ns_per_site_rep("simulate.br_exact"),
            "simulate.br_truncated.ns_per_site_rep": ns_per_site_rep("simulate.br_truncated"),
            "simulate.br_truncated.late_update_fraction":
                self.values.get("simulate.br_truncated.late_update_fraction", 0.0),
            "simulate.estimators.self_s": self_s(lambda n: n.startswith("simulate.estimators.")),
            "simulate.dump.s": total("simulate.dump.write") + total("simulate.dump.read"),
            "simulate.dump.bytes": self.counts.get("simulate.dump.bytes", 0),
            "cli.depsurface.s": total("cli.depsurface"),
            "cli.r2curves.s": total("cli.r2curves"),
            "cli.riskreport.s": total("cli.riskreport"),
            "cli.self_s": self_s(lambda n: n.startswith("cli.")),
        }
        return m


# ---------------------------------------------------------------------------
# installation by rebinding module-level names
# ---------------------------------------------------------------------------

def _windrisk_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "windrisk" or name.startswith("windrisk."))]


def _rebind(original, replacement, modules) -> None:
    """Point every module-level name bound to ``original`` at ``replacement``."""
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, replacement)


def _traced_integrate(tracer, integrate, integrand_name, convergence_error):
    """``integrate`` in a span, with the integrand in a span of its own and
    its abscissae counted."""

    @functools.wraps(integrate)
    def traced(f, *args, **kwargs):
        name = integrand_name()

        def counted(x):
            tracer.add("numerics.integrate.nodes", int(np.size(x)))
            idx = tracer.begin(name)
            try:
                return f(x)
            finally:
                tracer.end(idx)

        idx = tracer.begin("numerics.integrate")
        try:
            result = integrate(counted, *args, **kwargs)
        except convergence_error:
            tracer.add("numerics.integrate.failures", 1)
            raise
        finally:
            tracer.end(idx)
        if result.absolute_mode:
            tracer.add("numerics.integrate.abs_floor_accepts", 1)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of each windrisk layer in spans."""
    from windrisk import dependence, errors, geometry, numerics, risk, simulate

    mods = _windrisk_modules()

    # numerics, as each caller sees it
    dependence.integrate = _traced_integrate(
        tracer, numerics.integrate, lambda: "dependence.integrand", errors.ConvergenceError)
    risk.integrate = _traced_integrate(
        tracer, numerics.integrate,
        lambda: (tracer.innermost(("risk.r2", "risk.K")) or "risk") + ".integrand",
        errors.ConvergenceError)

    for name, fn in list(vars(dependence).items()):
        if (callable(fn) and getattr(fn, "__module__", None) == dependence.__name__
                and name.startswith(_DEPENDENCE_PREFIXES)):
            _rebind(fn, tracer.wrap(f"dependence.{name}", fn), mods)

    for fn in (geometry.disk_distance_density, geometry.square_distance_density):
        _rebind(fn, tracer.wrap("geometry.density", fn), mods)

    _rebind(risk.r2, tracer.wrap("risk.r2", risk.r2), mods)
    _rebind(risk.asymptotic_cov_integral,
            tracer.wrap("risk.K", risk.asymptotic_cov_integral), mods)

    def m3_work(name):
        def after(args, kwargs, result):
            tracer.add(name + ".site_reps", len(result) * result[0].grid.n_points)
        return after

    _rebind(simulate.simulate_smith,
            tracer.wrap("simulate.smith", simulate.simulate_smith,
                        m3_work("simulate.smith")), mods)
    _rebind(simulate.simulate_tube,
            tracer.wrap("simulate.tube", simulate.simulate_tube,
                        m3_work("simulate.tube")), mods)

    brown_resnick_at = simulate.brown_resnick_at
    signature = inspect.signature(brown_resnick_at)

    def traced_brown_resnick_at(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        exact = call.arguments["method"] == "extremal_functions"
        name = "simulate.br_exact" if exact else "simulate.br_truncated"
        idx = tracer.begin(name)
        try:
            result = brown_resnick_at(*args, **kwargs)
        finally:
            tracer.end(idx)
        values, meta = result if call.arguments["return_meta"] else (result, {})
        tracer.add(name + ".site_reps", int(values.size))
        if "late_update_fraction" in meta:
            tracer.values[name + ".late_update_fraction"] = meta["late_update_fraction"]
        return result

    _rebind(brown_resnick_at, functools.wraps(brown_resnick_at)(traced_brown_resnick_at), mods)

    for name in _ESTIMATORS:
        fn = getattr(simulate, name)
        _rebind(fn, tracer.wrap(f"simulate.estimators.{name}", fn), mods)

    def dump_bytes(args, kwargs, result):
        tracer.add("simulate.dump.bytes", os.path.getsize(args[0]))

    _rebind(simulate.write_field_samples,
            tracer.wrap("simulate.dump.write", simulate.write_field_samples, dump_bytes), mods)
    _rebind(simulate.read_field_samples,
            tracer.wrap("simulate.dump.read", simulate.read_field_samples), mods)

"""Spans and counters recorded around hardball's layer entry points.

The tracer replaces module attributes and methods of the package with
wrappers, so nothing under src/ changes.  Each wrapped call records a
span (name, start, end, parent, thread); counts come from the wrapped
call's arguments and results.  Spans stay in memory until the run ends.
A target that no longer exists is skipped, and every metric that needs
it is reported absent instead of zero.

Self time of a span is its duration minus the part of it that its child
spans cover.  A ``.s`` metric is the summed self time of its layer's
spans, except ``cli.sweep.s``, which is the inclusive time of the
threaded sweeps (their workers run in other threads).
"""

import functools
import hashlib
import importlib
import json
import os
import threading
from collections import Counter
from time import perf_counter

import numpy as np


def _key_digest(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, thread id]
        self.missing = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._thread_counts = []
        self._undo = []
        self._assembly_keys = set()

    # -- per-thread state -------------------------------------------------

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.depth = Counter()
            st.counts = Counter()
            st.assemblies = 0
            with self._lock:
                self._thread_counts.append(st.counts)
        return st

    def count(self, key, amount=1):
        self._state().counts[key] += amount

    def counts(self):
        total = Counter()
        with self._lock:
            for c in self._thread_counts:
                total.update(c)
        return total

    def active(self, name):
        return self._state().depth[name] > 0

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        st = self._state()
        parent = st.stack[-1] if st.stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, perf_counter(), None, parent, threading.get_ident()])
        st.stack.append(index)
        st.depth[name] += 1
        return index

    def _close(self, index):
        st = self._state()
        self.spans[index][2] = perf_counter()
        st.stack.pop()
        st.depth[self.spans[index][0]] -= 1

    def run_span(self, name, fn, *args, **kwargs):
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def _spanned(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _inheriting(self, fn):
        """Run fn in another thread as a child of the caller's open span."""
        tracer = self
        stack = self._state().stack
        parent = stack[-1] if stack else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            st.stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                st.stack.pop()

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, module, path, make):
        """Replace module.path (``attr`` or ``Class.attr``) by make(original)."""
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        try:
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except AttributeError:
            self.missing.add(f"{module}.{path}")
            return
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def install(self):
        span = self._spanned
        patch = self._patch

        patch("hardball.eos", "EosModel.wp_prime",
              lambda f: span("eos.wp_prime", self._wp_prime_counted(f)))
        patch("hardball.eos", "_solve_increasing", self._inversion)
        patch("hardball.field", "_ring_matrix", self._assembly)
        patch("hardball.field", "_self_ring", self._ring_cache)
        patch("hardball.kernels", "ring_primitive",
              lambda f: span("kernels.ring_primitive", f))
        patch("hardball.field", "picard_iterate",
              lambda f: span("field.picard", f, self._after_inner("field.picard")))
        patch("hardball.field", "newton_solve",
              lambda f: span("field.newton", f, self._after_inner("field.newton")))
        patch("hardball.phase", "droplet_solve",
              lambda f: span("phase.droplet", f, self._after_droplet))
        patch("hardball.phase", "_gamma_for_mass",
              lambda f: span("phase.mass_match", f))
        patch("hardball.phase", "constrained_solve",
              lambda f: span("phase.constrained", f))
        patch("hardball.phase", "brentq", self._outer_root_finder)
        for name in ("grand_canonical_transition", "petit_canonical_transition",
                     "pressure_crossing_bracket"):
            patch("hardball.phase", name, lambda f: span("phase.transition", f))
        patch("hardball.functionals", "functional_values",
              lambda f: span("functionals.values", f))
        for name in ("p_stability", "f_stability"):
            patch("hardball.functionals", name,
                  lambda f: span("functionals.stability", f))
        patch("hardball.spectral", "spectral_radius",
              lambda f: span("spectral", f, self._after_spectral))
        for name in ("solve_uniform", "gamma_boundaries", "coexistence_gamma",
                     "eta_bounds"):
            patch("hardball.uniform", name, lambda f: span("uniform", f))
        patch("hardball.cli", "main", lambda f: span("cli.command", f))
        patch("hardball.cli", "_configure", lambda f: span("cli.config", f))
        patch("hardball.cli", "_sweep", self._sweep)
        patch("hardball.cli", "_write_csv",
              lambda f: span("cli.csv", f, self._after_csv))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def start_round(self):
        self._assembly_keys = set()

    # -- wrappers with counts -----------------------------------------------

    def _wp_prime_counted(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active("phase.mass_match"):
                tracer.count("phase.mass_match.wp_calls")
            return fn(*args, **kwargs)

        return wrapper

    def _inversion(self, fn):
        tracer = self

        def solve(f, *args, **kwargs):
            def sweep(x):
                st = tracer._state()
                st.counts["eos.sweeps"] += 1
                st.counts["eos.lane_evals"] += getattr(x, "size", 1)
                return f(x)

            return fn(sweep, *args, **kwargs)

        return self._spanned("eos.inversion", functools.wraps(fn)(solve))

    def _assembly(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(spec, domain, targets):
            st = tracer._state()
            st.assemblies += 1
            key = (spec, domain.R, domain.n,
                   _key_digest(domain.nodes, domain.weights),
                   _key_digest(np.asarray(targets, dtype=float)))
            with tracer._lock:
                seen = key in tracer._assembly_keys
                tracer._assembly_keys.add(key)
            if seen:
                st.counts["field.assembly.duplicates"] += 1
            return fn(spec, domain, targets)

        return self._spanned("field.assembly", wrapper)

    def _ring_cache(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            before = st.assemblies
            result = fn(*args, **kwargs)
            hit = st.assemblies == before
            st.counts["field.ring_cache.hits" if hit else "field.ring_cache.misses"] += 1
            return result

        return wrapper

    def _after_inner(self, prefix):
        def after(args, kwargs, report):
            st = self._state()
            st.counts[f"{prefix}.iterations"] += report.iterations
            st.counts[f"{prefix}.max_iterations"] = max(
                st.counts[f"{prefix}.max_iterations"], report.iterations)
            if self.active("phase.constrained"):
                st.counts["phase.constrained.inner_solves"] += 1

        return after

    def _after_droplet(self, args, kwargs, point):
        self.count("phase.droplet.steps", point.solution.iterations)

    def _after_spectral(self, args, kwargs, report):
        self.count("spectral.iterations", report.iterations)

    def _after_csv(self, args, kwargs, path):
        self.count("cli.csv.bytes", os.path.getsize(path))

    def _outer_root_finder(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            if tracer.active("phase.mass_match"):
                return fn(f, *args, **kwargs)

            def counted(x, *fargs):
                tracer.count("phase.outer.evals")
                return f(x, *fargs)

            return tracer.run_span("phase.outer", fn, counted, *args, **kwargs)

        return wrapper

    def _sweep(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(items, worker, jobs):
            return fn(items, tracer._inheriting(worker), jobs)

        return self._spanned("cli.sweep", wrapper)

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Summed self time per span name, and inclusive time per name."""
        children = {}
        for index, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                children.setdefault(parent, []).append(index)
        own, inclusive = Counter(), Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if end is None:
                continue
            covered, reach = 0.0, start
            kids = sorted((self.spans[k][1], self.spans[k][2])
                          for k in children.get(index, ())
                          if self.spans[k][2] is not None)
            for lo, hi in kids:  # union of child intervals inside the span
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            own[name] += (end - start) - covered
            inclusive[name] += end - start
        return own, inclusive

    def calls(self):
        return Counter(name for name, *_ in self.spans)

    def write(self, path, origin):
        """Write every span as one JSON line, times relative to origin."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, thread) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "parent": parent, "thread": thread,
                    "start": start - origin,
                    "end": None if end is None else end - origin,
                }) + "\n")


# metric name -> (unit, better direction)
LAYER_METRICS = {
    "eos.wp_prime.calls": ("count", "lower"),
    "eos.wp_prime.s": ("s", "lower"),
    "eos.inversions": ("count", "lower"),
    "eos.inversion.s": ("s", "lower"),
    "eos.sweeps": ("count", "lower"),
    "eos.sweeps_per_inversion": ("count", "lower"),
    "eos.lane_evals": ("count", "lower"),
    "field.assembly.calls": ("count", "lower"),
    "field.assembly.s": ("s", "lower"),
    "field.assembly.duplicates": ("count", "lower"),
    "field.ring_cache.hits": ("count", "higher"),
    "field.ring_cache.misses": ("count", "lower"),
    "kernels.ring_primitive.calls": ("count", "lower"),
    "kernels.ring_primitive.s": ("s", "lower"),
    "field.picard.solves": ("count", "lower"),
    "field.picard.iterations": ("count", "lower"),
    "field.picard.max_iterations": ("count", "lower"),
    "field.picard.s": ("s", "lower"),
    "field.newton.solves": ("count", "lower"),
    "field.newton.steps": ("count", "lower"),
    "field.newton.s": ("s", "lower"),
    "phase.droplet.solves": ("count", "lower"),
    "phase.droplet.steps": ("count", "lower"),
    "phase.droplet.s": ("s", "lower"),
    "phase.mass_match.calls": ("count", "lower"),
    "phase.mass_match.s": ("s", "lower"),
    "phase.mass_match.wp_calls_per_call": ("count", "lower"),
    "phase.constrained.solves": ("count", "lower"),
    "phase.constrained.inner_solves": ("count", "lower"),
    "phase.outer.evals": ("count", "lower"),
    "phase.transition.s": ("s", "lower"),
    "functionals.values.calls": ("count", "lower"),
    "functionals.values.s": ("s", "lower"),
    "functionals.stability.calls": ("count", "lower"),
    "functionals.stability.s": ("s", "lower"),
    "spectral.calls": ("count", "lower"),
    "spectral.iterations": ("count", "lower"),
    "spectral.s": ("s", "lower"),
    "uniform.s": ("s", "lower"),
    "cli.command.s": ("s", "lower"),
    "cli.config.s": ("s", "lower"),
    "cli.sweep.s": ("s", "lower"),
    "cli.csv.s": ("s", "lower"),
    "cli.csv.bytes": ("bytes", "lower"),
    "bench.other.s": ("s", "lower"),
    "trace.overhead": ("%", "lower"),
}

# wrapped targets each metric depends on; absent targets make it absent
_NEEDS = {
    "eos.wp_prime": ["hardball.eos.EosModel.wp_prime"],
    "eos.inversion": ["hardball.eos._solve_increasing"],
    "eos.sweeps": ["hardball.eos._solve_increasing"],
    "eos.lane_evals": ["hardball.eos._solve_increasing"],
    "field.assembly": ["hardball.field._ring_matrix"],
    "field.ring_cache": ["hardball.field._self_ring", "hardball.field._ring_matrix"],
    "kernels.ring_primitive": ["hardball.kernels.ring_primitive"],
    "field.picard": ["hardball.field.picard_iterate"],
    "field.newton": ["hardball.field.newton_solve"],
    "phase.droplet": ["hardball.phase.droplet_solve"],
    "phase.mass_match": ["hardball.phase._gamma_for_mass"],
    "phase.mass_match.wp_calls_per_call": ["hardball.phase._gamma_for_mass",
                                           "hardball.eos.EosModel.wp_prime"],
    "phase.constrained": ["hardball.phase.constrained_solve"],
    "phase.constrained.inner_solves": ["hardball.phase.constrained_solve",
                                       "hardball.field.picard_iterate",
                                       "hardball.field.newton_solve"],
    "phase.outer": ["hardball.phase.brentq"],
    "phase.transition": ["hardball.phase.grand_canonical_transition"],
    "functionals.values": ["hardball.functionals.functional_values"],
    "functionals.stability": ["hardball.functionals.p_stability"],
    "spectral": ["hardball.spectral.spectral_radius"],
    "uniform": ["hardball.uniform.solve_uniform"],
    "cli.command": ["hardball.cli.main"],
    "cli.config": ["hardball.cli._configure"],
    "cli.sweep": ["hardball.cli._sweep"],
    "cli.csv": ["hardball.cli._write_csv"],
}


def _needs(metric):
    """Wrapped targets a metric depends on (longest matching prefix)."""
    best = ""
    for prefix in _NEEDS:
        if (metric == prefix or metric.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return _NEEDS.get(best, [])


def layer_metrics(tracer, rounds, overhead):
    """Per-round layer metrics; returns (metrics, absent metric names)."""
    own, inclusive = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts()
    per = 1.0 / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "eos.wp_prime.calls": calls["eos.wp_prime"] * per,
        "eos.wp_prime.s": own["eos.wp_prime"] * per,
        "eos.inversions": calls["eos.inversion"] * per,
        "eos.inversion.s": own["eos.inversion"] * per,
        "eos.sweeps": counts["eos.sweeps"] * per,
        "eos.sweeps_per_inversion": ratio(counts["eos.sweeps"], calls["eos.inversion"]),
        "eos.lane_evals": counts["eos.lane_evals"] * per,
        "field.assembly.calls": calls["field.assembly"] * per,
        "field.assembly.s": own["field.assembly"] * per,
        "field.assembly.duplicates": counts["field.assembly.duplicates"] * per,
        "field.ring_cache.hits": counts["field.ring_cache.hits"] * per,
        "field.ring_cache.misses": counts["field.ring_cache.misses"] * per,
        "kernels.ring_primitive.calls": calls["kernels.ring_primitive"] * per,
        "kernels.ring_primitive.s": own["kernels.ring_primitive"] * per,
        "field.picard.solves": calls["field.picard"] * per,
        "field.picard.iterations": counts["field.picard.iterations"] * per,
        "field.picard.max_iterations": counts["field.picard.max_iterations"],
        "field.picard.s": own["field.picard"] * per,
        "field.newton.solves": calls["field.newton"] * per,
        "field.newton.steps": counts["field.newton.iterations"] * per,
        "field.newton.s": own["field.newton"] * per,
        "phase.droplet.solves": calls["phase.droplet"] * per,
        "phase.droplet.steps": counts["phase.droplet.steps"] * per,
        "phase.droplet.s": own["phase.droplet"] * per,
        "phase.mass_match.calls": calls["phase.mass_match"] * per,
        "phase.mass_match.s": own["phase.mass_match"] * per,
        "phase.mass_match.wp_calls_per_call": ratio(
            counts["phase.mass_match.wp_calls"], calls["phase.mass_match"]),
        "phase.constrained.solves": calls["phase.constrained"] * per,
        "phase.constrained.inner_solves": counts["phase.constrained.inner_solves"] * per,
        "phase.outer.evals": counts["phase.outer.evals"] * per,
        "phase.transition.s": (own["phase.transition"] + own["phase.outer"]) * per,
        "functionals.values.calls": calls["functionals.values"] * per,
        "functionals.values.s": own["functionals.values"] * per,
        "functionals.stability.calls": calls["functionals.stability"] * per,
        "functionals.stability.s": own["functionals.stability"] * per,
        "spectral.calls": calls["spectral"] * per,
        "spectral.iterations": counts["spectral.iterations"] * per,
        "spectral.s": own["spectral"] * per,
        "uniform.s": own["uniform"] * per,
        "cli.command.s": own["cli.command"] * per,
        "cli.config.s": own["cli.config"] * per,
        "cli.sweep.s": inclusive["cli.sweep"] * per,
        "cli.csv.s": own["cli.csv"] * per,
        "cli.csv.bytes": counts["cli.csv.bytes"] * per,
        "bench.other.s": own["bench.op"] * per,
    }
    if overhead is not None:
        values["trace.overhead"] = overhead
    absent = sorted(m for m in values if any(t in tracer.missing for t in _needs(m)))
    metrics = {m: {"value": v, "unit": LAYER_METRICS[m][0]}
               for m, v in values.items() if m not in absent}
    return metrics, absent

"""Outside-in layer tracer for the gasymp benchmark.

The tracer replaces public gasymp functions and methods with timing
wrappers.  A function is rebound in every ``gasymp.*`` module namespace (and
every class attribute) that holds the original object, so calls made inside
the package through ``from .groebner import reduce_full``-style imports are
counted as well as calls through the module attribute.

Self time is kept with a nesting stack: each active wrapper owns a frame that
collects the inclusive time of the wrapped calls nested in it, and its self
time is its own duration minus that sum.  Nothing is installed unless
``install`` is called, so untraced runs execute the unmodified package.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute path).  The prefix names the layer by its
# module; the attribute path is a function or ``Class.method``.
TARGETS = (
    ("poly.mul", "gasymp.poly", "Polynomial.__mul__"),
    ("poly.substitute", "gasymp.poly", "Polynomial.substitute"),
    ("groebner.buchberger", "gasymp.groebner", "buchberger"),
    ("groebner.interreduce", "gasymp.groebner", "interreduce"),
    ("groebner.reduce_full", "gasymp.groebner", "reduce_full"),
    ("groebner.ideal_groebner", "gasymp.groebner", "Ideal.groebner"),
    ("invariants.nf", "gasymp.invariants", "QuotientRing.nf"),
    ("invariants.degree_span_build", "gasymp.invariants", "DegreeSpan.__init__"),
    ("invariants.essen_derksen", "gasymp.invariants", "essen_derksen"),
    ("invariants.graded_kernel", "gasymp.invariants", "graded_kernel"),
    ("linalg.echelon_insert", "gasymp.linalg", "SparseEchelon.insert"),
    ("linalg.sparse_nullspace", "gasymp.linalg", "sparse_nullspace"),
    ("levelsets.classify", "gasymp.levelsets", "classify"),
    ("moments.moment_triple", "gasymp.moments", "moment_triple"),
    ("comparison.verify_embedding_into_zero_level", "gasymp.comparison",
     "verify_embedding_into_zero_level"),
    ("comparison.verify_equivariance_of_embedding", "gasymp.comparison",
     "verify_equivariance_of_embedding"),
    ("comparison.verify_liouville_pullback", "gasymp.comparison", "verify_liouville_pullback"),
    ("comparison.verify_family_scaling", "gasymp.comparison", "verify_family_scaling"),
    ("comparison.verify_boundary_unit", "gasymp.comparison", "verify_boundary_unit"),
    ("report.render_structured", "gasymp.report", "render_structured"),
    # self time here is the part of an analysis no listed function covers
    ("report.analyze", "gasymp.report", "analyze"),
    ("cache.get", "gasymp.cache", "DiskCache.get"),
    ("cache.put", "gasymp.cache", "DiskCache.put"),
    ("cache.content_key", "gasymp.cache", "content_key"),
)

# Ratios and totals derived from what the wrappers observe, with their units
# and the direction an optimisation should move them.
DERIVED = (
    ("groebner.gb_memo_hit_ratio", "ratio", "higher"),
    ("linalg.echelon_insert.grew_ratio", "ratio", "higher"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.bytes_written", "bytes", "lower"),
)

# Median pass wall time of the traced and the untraced phase of a traced run,
# and their difference, the tracing overhead.
PHASES = (
    ("trace.pass_ref_s", "s", "lower"),
    ("trace.untraced_pass_ref_s", "s", "lower"),
    ("trace.overhead_ref_s", "s", "lower"),
)


class Tracer:
    """Call counts and self seconds per wrapped function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.enabled = True
        self.buchberger_under_groebner = 0
        self.echelon_grew = 0
        self.cache_hits = 0
        self.bytes_written = 0
        self._stack = []  # [child seconds, metric prefix] per active wrapper
        self._undo = []   # (owner, attribute, original) to restore

    # -- hooks that read a wrapped call's arguments and result ------------

    def _observe(self, name, args, result, parent):
        if name == "groebner.buchberger":
            if parent == "groebner.ideal_groebner":
                self.buchberger_under_groebner += 1
        elif name == "linalg.echelon_insert":
            if result:
                self.echelon_grew += 1
        elif name == "cache.get":
            if result is not None:
                self.cache_hits += 1
        elif name == "cache.put":
            cache, key = args[0], args[1]
            try:
                self.bytes_written += os.path.getsize(cache._path(key))
            except OSError:
                pass

    def _wrap(self, name, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = self.clock
        observed = name in ("groebner.buchberger", "linalg.echelon_insert",
                            "cache.get", "cache.put")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else None
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if observed:
                tracer._observe(name, args, result, parent)
            return result

        wrapper.__gasymp_trace__ = name
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Rebind every namespace that holds a target to its wrapper."""
        packages = [m for n, m in sorted(sys.modules.items())
                    if m is not None and (n == "gasymp" or n.startswith("gasymp."))]
        for name, module_name, path in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self._wrap(name, original)
            bound = 0
            namespaces = [owner] if isinstance(owner, type) else packages
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._undo.append((ns, key, value))
                        setattr(ns, key, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"trace target {module_name}:{path} is not bound anywhere")

    def uninstall(self):
        for ns, key, value in reversed(self._undo):
            setattr(ns, key, value)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def metrics(self, passes: int, scale: float = 1.0) -> dict:
        """Per-pass call counts and self seconds (times ``scale``), plus the
        derived ratios."""
        out = {}
        for name, _module, _path in TARGETS:
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
            out[f"{name}.self_s"] = (self.self_s[name] * scale / passes, "s")
        gb_calls = self.calls["groebner.ideal_groebner"]
        out["groebner.gb_memo_hit_ratio"] = (
            1 - self.buchberger_under_groebner / gb_calls if gb_calls else 0.0, "ratio")
        inserts = self.calls["linalg.echelon_insert"]
        out["linalg.echelon_insert.grew_ratio"] = (
            self.echelon_grew / inserts if inserts else 0.0, "ratio")
        gets = self.calls["cache.get"]
        out["cache.hit_ratio"] = (self.cache_hits / gets if gets else 0.0, "ratio")
        out["cache.bytes_written"] = (self.bytes_written / passes, "bytes")
        return out


def per_layer_names() -> list:
    """Every per-layer metric name with its unit and better direction."""
    out = []
    for name, _module, _path in TARGETS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out.extend(DERIVED)
    out.extend(PHASES)
    return out

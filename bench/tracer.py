"""Spans around the public functions of every module of ``adelic``.

Installed from the benchmark only, after set-up and only in traced
rounds: each wrapped function records a span (name, start, end, parent
span, operation) in memory, and ``per_layer`` folds them into the
per-layer metrics.  A span's self time is its duration minus the time
its child spans cover.

Not wrapped, because they run inside per-pair, per-prime or
per-coefficient loops where a span would cost more than the call:
``val_p``, ``require_prime``, ``float_sum``, ``log_abs``, ``log_abs_float``,
``chordal_arch``, ``hsia_kernel``, ``gauss_point``, ``weight_eval`` and
``potential_kernel``; generator functions (``sequences.generate``), whose
work happens after the call returns, are not wrapped either.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

MODULES = ("exact", "divisors", "places", "berkovich", "roots", "weights",
           "local", "heights", "certify", "sequences", "cli")
LEAVES = {"val_p", "require_prime", "float_sum", "log_abs", "log_abs_float",
          "chordal_arch", "hsia_kernel", "gauss_point", "weight_eval",
          "potential_kernel"}
DSTAR_GROUP = ("exact.squarefree_decomposition", "exact.discriminant", "exact.resultant")
MAHLER = ("local.mahler_sharp", "local.integral_against", "local.mahler_g")

PER_LAYER = (
    ("roots.certify_s", "s"), ("roots.calls", "count"), ("roots.misses", "count"),
    ("roots.degree_certified", "count"), ("roots.disks_outside", "count"),
    ("exact.dstar_s", "s"), ("exact.dstar_digits", "digits"),
    ("exact.newton_polygon_s", "s"), ("exact.newton_polygon_calls", "count"),
    ("exact.newton_polygon_distinct", "count"),
    ("places.factor_s", "s"), ("places.factor_calls", "count"),
    ("places.factor_distinct", "count"), ("places.relevant_s", "s"),
    ("places.places_listed", "count"), ("places.product_formula_s", "s"),
    ("weights.finite_build_s", "s"), ("weights.finite_builds", "count"),
    ("local.arch_pair_s", "s"), ("local.arch_pairs", "count"),
    ("local.arch_identity_s", "s"), ("local.mahler_s", "s"),
    ("local.nonarch_s", "s"), ("local.nonarch_calls", "count"),
    ("heights.report_self_s", "s"), ("heights.height_s", "s"),
    ("sequences.run_self_s", "s"), ("sequences.write_s", "s"),
    ("cli.self_s", "s"), ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.child: list[float] = []
        self.op: list[int] = []
        self.stack: list[int] = []
        self.current_op = -1
        self.roots_miss: dict[int, int] = {}          # span -> degree certified
        self.np_keys: set = set()
        self.factor_keys: set = set()
        self.places_listed = 0
        self.arch_pairs = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def enter(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.child.append(0.0)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def exit(self, i: int) -> None:
        t = perf_counter()
        self.end[i] = t
        self.stack.pop()
        par = self.parent[i]
        if par >= 0:
            self.child[par] += t - self.start[i]

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit(i)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        import adelic

        mods = [sys.modules["adelic." + m] for m in MODULES]
        targets = {}
        for mod in mods:
            short = mod.__name__.split(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or attr in LEAVES:
                    continue
                fn = getattr(obj, "__wrapped__", obj)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(fn):
                    continue
                targets[id(obj)] = (obj, "%s.%s" % (short, attr))
        hooks = {
            "exact.newton_polygon": self._after_newton,
            "exact.factorize": self._after_factor,
            "places.relevant_places": self._after_relevant,
            "local.fekete_sum_arch": self._after_arch,
        }
        wrappers = {}
        for key, (obj, name) in targets.items():
            if name == "roots.certified_roots":
                wrappers[key] = self._wrap_roots(obj)
            else:
                wrappers[key] = self._wrap(name, obj, hooks.get(name))
        # every module (and the package) that holds a reference is patched
        for mod in mods + [adelic]:
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, w)
        weights = sys.modules["adelic.weights"]
        sequences = sys.modules["adelic.sequences"]
        self._patch_method(weights.Weight, "finite", self._wrap_finite(weights.Weight.finite))
        self._patch_method(sequences.ExperimentResult, "write",
                           self._wrap("sequences.ExperimentResult.write",
                                      sequences.ExperimentResult.write))

    def _patch_method(self, cls, attr, new) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    # -- per-function counters --------------------------------------------
    def _wrap_roots(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            misses = fn.cache_info().misses
            i = tracer.enter("roots.certified_roots")
            try:
                return fn(f, *args, **kwargs)
            finally:
                tracer.exit(i)
                if fn.cache_info().misses != misses:
                    tracer.roots_miss[i] = f.degree

        wrapper.cache_info = fn.cache_info
        wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _wrap_finite(self, fn):
        tracer = self

        @functools.wraps(fn)
        def finite(weight, p):
            if p in weight._finite_cache:
                return fn(weight, p)
            i = tracer.enter("weights.Weight.finite")
            try:
                return fn(weight, p)
            finally:
                tracer.exit(i)

        return finite

    def _after_newton(self, args, out):
        self.np_keys.add((args[0], args[1]))

    def _after_factor(self, args, out):
        self.factor_keys.add(abs(args[0]))

    def _after_relevant(self, args, out):
        self.places_listed += len(out.places)

    def _after_arch(self, args, out):
        Z = args[0]
        n = sum(g.degree for g, _ in Z.squarefree_factors) + (1 if Z.inf_mult else 0)
        self.arch_pairs += n * (n - 1) // 2

    # -- aggregation ------------------------------------------------------
    def _outermost(self, i: int, group) -> bool:
        par = self.parent[i]
        while par >= 0:
            if self.names[par] in group:
                return False
            par = self.parent[par]
        return True

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since installation,
        except roots.disks_outside, exact.dstar_digits and trace.overhead_s,
        which the benchmark adds from its audit, its oracle and its
        untraced rounds."""
        total: dict[str, float] = {}
        self_t: dict[str, float] = {}
        calls: dict[str, int] = {}
        dstar = 0.0
        for i, name in enumerate(self.names):
            dur = self.end[i] - self.start[i]
            total[name] = total.get(name, 0.0) + dur
            self_t[name] = self_t.get(name, 0.0) + dur - self.child[i]
            calls[name] = calls.get(name, 0) + 1
            if name in DSTAR_GROUP and self._outermost(i, DSTAR_GROUP):
                dstar += dur
        certify = sum(self.end[i] - self.start[i] for i in self.roots_miss)
        return {
            "roots.certify_s": certify,
            "roots.calls": calls.get("roots.certified_roots", 0),
            "roots.misses": len(self.roots_miss),
            "roots.degree_certified": sum(self.roots_miss.values()),
            "exact.dstar_s": dstar,
            "exact.newton_polygon_s": total.get("exact.newton_polygon", 0.0),
            "exact.newton_polygon_calls": calls.get("exact.newton_polygon", 0),
            "exact.newton_polygon_distinct": len(self.np_keys),
            "places.factor_s": total.get("exact.factorize", 0.0),
            "places.factor_calls": calls.get("exact.factorize", 0),
            "places.factor_distinct": len(self.factor_keys),
            "places.relevant_s": self_t.get("places.relevant_places", 0.0),
            "places.places_listed": self.places_listed,
            "places.product_formula_s": self_t.get("places.product_formula_check", 0.0),
            "weights.finite_build_s": total.get("weights.Weight.finite", 0.0),
            "weights.finite_builds": calls.get("weights.Weight.finite", 0),
            "local.arch_pair_s": self_t.get("local.fekete_sum_arch", 0.0),
            "local.arch_pairs": self.arch_pairs,
            "local.arch_identity_s": self_t.get("local.fekete_sum_arch_identity", 0.0),
            "local.mahler_s": sum(self_t.get(n, 0.0) for n in MAHLER),
            "local.nonarch_s": total.get("local.fekete_sum_nonarch", 0.0),
            "local.nonarch_calls": calls.get("local.fekete_sum_nonarch", 0),
            "heights.report_self_s": self_t.get("heights.global_fekete", 0.0),
            "heights.height_s": self_t.get("heights.height", 0.0),
            "sequences.run_self_s": self_t.get("sequences.experiment_run", 0.0),
            "sequences.write_s": total.get("sequences.ExperimentResult.write", 0.0),
            "cli.self_s": self_t.get("cli.main", 0.0),
        }

    def span_table(self) -> dict:
        """Compact span dump: a name table and one row per span of
        [name index, start, end, parent span, operation], times in
        microseconds from the first span."""
        index: dict[str, int] = {}
        t0 = self.start[0] if self.start else 0.0
        rows = []
        for i, name in enumerate(self.names):
            k = index.setdefault(name, len(index))
            rows.append([k, round((self.start[i] - t0) * 1e6), round((self.end[i] - t0) * 1e6),
                         self.parent[i], self.op[i]])
        return {"names": list(index), "spans": rows}

"""In-process tracing of one ciqc CLI call, installed from outside the package.

``install`` imports every ciqc module, wraps the public functions listed in
``TARGETS`` and rebinds each wrapper in every ciqc namespace that holds the
original (``acceptance`` binds ``build_ring`` at import time, ``cli`` imports
lazily inside its commands, ``acceptance.CRITERIA`` holds the checks in a
list).  A wrapper records a span for each call: spans are aggregated in
memory per function as (calls, total seconds, self seconds), where self
time is the span's duration minus the time covered by its child spans.
Nothing is written to stdout; ``Tracer.dump`` writes one JSON file.

A target the package no longer defines is skipped, so its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import Counter
from fractions import Fraction

# (metric prefix, module, attribute path inside the module)
TARGETS = [
    ("cli.main", "ciqc.cli", "main"),
    ("cli.emit", "ciqc.cli", "_emit"),
    ("fano_lines.hilb2_check", "ciqc.fano_lines", "hilb2_check"),
    ("fano_lines.omega_checks", "ciqc.fano_lines", "omega_checks"),
    ("fano_lines.schubert_product", "ciqc.fano_lines", "schubert_product"),
    ("fano_lines.schur_oracle_product", "ciqc.fano_lines", "schur_oracle_product"),
    ("fano_lines.prim_square_class", "ciqc.fano_lines", "prim_square_class"),
    ("fano_lines.rank_estimates", "ciqc.fano_lines", "rank_estimates"),
    ("genus_one.hn_11", "ciqc.genus_one", "hn_11"),
    ("genus_one.two_point_g0", "ciqc.genus_one", "two_point_g0"),
    ("genus_one.f2_from_genus1", "ciqc.genus_one", "f2_from_genus1"),
    ("smallqh.small_j", "ciqc.smallqh", "small_j"),
    ("smallqh.build_ring", "ciqc.smallqh", "build_ring"),
    ("smallqh.AmbientOrigin.init", "ciqc.smallqh", "AmbientOrigin.__init__"),
    ("smallqh.AmbientOrigin.jet_series", "ciqc.smallqh", "AmbientOrigin.jet_series"),
    ("smallqh.c_constant", "ciqc.smallqh", "c_constant"),
    ("reconstruct.f1_series", "ciqc.reconstruct", "f1_series"),
    ("reconstruct.f2_at_zero", "ciqc.reconstruct", "f2_at_zero"),
    ("reconstruct.f2_gradient", "ciqc.reconstruct", "f2_gradient"),
    ("reconstruct.gamma_vector", "ciqc.reconstruct", "gamma_vector"),
    ("reconstruct.higher_k_coeffs", "ciqc.reconstruct", "higher_k_coeffs"),
    ("reduction.wdvv_residuals", "ciqc.reduction", "wdvv_residuals"),
    ("reduction.expand_order_k", "ciqc.reduction", "expand_order_k"),
    ("reduction.full_wdvv_residuals", "ciqc.reduction", "full_wdvv_residuals"),
    ("reduction.expand_to_full", "ciqc.reduction", "expand_to_full"),
    ("exact.TruncSeries.mul", "ciqc.exact", "TruncSeries.__mul__"),
    ("exact.QPoly.mul", "ciqc.exact", "QPoly.__mul__"),
    ("exact.solve_linear", "ciqc.exact", "solve_linear"),
    ("exact.linear_substitute", "ciqc.exact", "linear_substitute"),
    ("geometry.describe", "ciqc.geometry", "describe"),
] + [
    (f"acceptance.{name}", "ciqc.acceptance", name)
    for name in ("check_ring_relation", "check_c_constant",
                 "check_one_point_descendant", "check_gamma", "check_f1",
                 "check_f2_roots", "check_genus_one", "check_fano_lines",
                 "check_hilb2", "check_property_suites")
]

LAYERS = tuple(dict.fromkeys(prefix.split(".")[0] for prefix, _, _ in TARGETS))


def max_bits(obj) -> int:
    """Largest numerator or denominator bit length inside an exact object."""
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if isinstance(obj, int):
        return obj.bit_length()
    if isinstance(obj, dict):
        return max((max_bits(v) for v in obj.values()), default=0)
    if isinstance(obj, (list, tuple)):
        return max((max_bits(v) for v in obj), default=0)
    for attr in ("coeffs", "terms"):
        if hasattr(obj, attr):
            return max_bits(getattr(obj, attr))
    return 0


def count_terms(obj) -> int:
    """Number of series terms inside a (nested) residual report."""
    if isinstance(obj, dict):
        return sum(count_terms(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(count_terms(v) for v in obj)
    return len(getattr(obj, "terms", ()))


def _degree_classes(series) -> Counter:
    return Counter((sum(key), key[-1]) for key in series.terms)


class Tracer:
    def __init__(self):
        self.stack = []          # child time accumulated by each open span
        self.spans = {}          # prefix -> [calls, total_s, self_s]
        self.raised = Counter()  # layer -> calls left by an exception
        self.counters = Counter()
        self.maxima = Counter()
        self.ring_args = set()
        self.reduction_depth = 0

    # -- wrapping

    def wrap(self, prefix, fn, post=None, scope=False):
        layer = prefix.split(".", 1)[0]
        stats = self.spans.setdefault(prefix, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            if scope:
                self.reduction_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised[layer] += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                if scope:
                    self.reduction_depth -= 1
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - child[0]
                if stack:
                    stack[-1][0] += duration
            if post is not None:
                begin = clock()
                post(args, kwargs, result)
                if stack:  # measurement is not the caller's own work
                    stack[-1][0] += clock() - begin
            return result

        return functools.wraps(fn)(wrapper)

    # -- post-call measurements

    def _after_build_ring(self, args, kwargs, ring):
        self.ring_args.add(repr(args) + repr(sorted(kwargs.items())))
        bits = max(max_bits(getattr(ring, name, None))
                   for name in ("multH", "powers", "M", "W", "g", "ginv"))
        self.maxima["smallqh.ring.max_bits"] = max(
            self.maxima["smallqh.ring.max_bits"], bits)

    def _after_wdvv(self, args, kwargs, result):
        self.counters["reduction.residual_terms"] += count_terms(result)
        self.maxima["reduction.residual_max_bits"] = max(
            self.maxima["reduction.residual_max_bits"], max_bits(result))

    def _after_series_mul(self, args, kwargs, result):
        left, right = args[0], args[1]
        self.counters["exact.TruncSeries.mul.term_pairs"] += \
            len(left.terms) * len(right.terms)
        cap = getattr(result, "degree_cap", None)
        s_cap = getattr(result, "s_cap", None)
        kept = 0
        rclasses = _degree_classes(right)
        for (d1, s1), c1 in _degree_classes(left).items():
            for (d2, s2), c2 in rclasses.items():
                if (cap is None or d1 + d2 <= cap) and \
                   (s_cap is None or s1 + s2 <= s_cap):
                    kept += c1 * c2
        self.counters["exact.TruncSeries.mul.kept_pairs"] += kept
        if self.reduction_depth:
            terms = result.terms
            self.counters["reduction.product_terms"] += len(terms)
            self.counters["reduction.window_terms"] += sum(
                1 for key in terms if key[-1] == 0 and sum(key) <= 1)

    # -- installation

    def install(self):
        import ciqc
        modules = [importlib.import_module(f"ciqc.{info.name}")
                   for info in pkgutil.iter_modules(ciqc.__path__)]
        posts = {
            "smallqh.build_ring": self._after_build_ring,
            "reduction.wdvv_residuals": self._after_wdvv,
            "exact.TruncSeries.mul": self._after_series_mul,
        }
        for prefix, modname, path in TARGETS:
            owner = sys.modules.get(modname)
            *outer, name = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self.wrap(prefix, original, posts.get(prefix),
                                scope=prefix.startswith("reduction."))
            if outer:  # a method: rebind every class slot holding it
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapper)
            else:
                for module in modules:
                    _rebind(module, original, wrapper)

    def dump(self, path, startup_s):
        report = {
            "startup_s": startup_s,
            "spans": self.spans,
            "raised": dict(self.raised),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
            "ring_distinct": len(self.ring_args),
        }
        with open(path, "w") as handle:
            json.dump(report, handle)


def _rebind(module, original, wrapper):
    """Point every name and list entry in a module at the wrapper."""
    for key, value in list(vars(module).items()):
        if value is original:
            setattr(module, key, wrapper)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if item is original:
                    value[i] = wrapper
                elif isinstance(item, tuple) and any(x is original for x in item):
                    value[i] = tuple(wrapper if x is original else x for x in item)

"""Per-layer spans and counters for one pass, recorded from outside froblab.

A Tracer wraps the public functions of each froblab module (the layers) and
patches every froblab namespace that holds one of them, so calls made inside
the package go through the wrappers too. Each call records a span: its parent
span, layer, function name, start and end. `restore()` puts the originals
back. Spans stay in memory; `metrics()` folds them into the per-layer numbers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = (
    "rings", "parsing", "groebner", "idealops", "quotient",
    "frobenius", "symbolic", "containment", "cli",
)

# Monomial primitives run millions of times per pass; a span around each would
# swamp the measurement, so their time counts toward the caller's self time.
UNWRAPPED = {"mono_mul", "mono_div", "mono_lcm", "mono_deg", "mono_divides"}

# Methods that carry a layer's work and so get spans like public functions.
METHODS = {
    "rings": {"Polynomial": ("__mul__", "__pow__", "frobenius")},
    "groebner": {"Ideal": ("groebner_basis",)},
}

CHECKS = (
    "check_fpure_containment", "check_sfr_containment",
    "check_fpt_containment", "check_symbolic_into_Ie",
)

# name, unit, better: every per-layer metric metrics() reports
PER_LAYER = [
    (f"{layer}.{what}", unit, "lower")
    for layer in LAYERS
    for what, unit in (("calls", "count"), ("self_s", "s"))
] + [
    ("groebner.gb_computed", "count", "lower"),
    ("groebner.gb_reused", "count", "higher"),
    ("groebner.gb_repeat_frac", "ratio", "lower"),
    ("groebner.gb_elements", "count", "lower"),
    ("groebner.gb_s", "s", "lower"),
    ("groebner.nf_calls", "count", "lower"),
    ("groebner.nf_s", "s", "lower"),
    ("groebner.member_calls", "count", "lower"),
    ("rings.mul_calls", "count", "lower"),
    ("rings.mul_s", "s", "lower"),
    ("rings.frobenius_calls", "count", "lower"),
    ("idealops.intersect_calls", "count", "lower"),
    ("idealops.colon_calls", "count", "lower"),
    ("idealops.saturate_calls", "count", "lower"),
    ("idealops.saturate_steps", "count", "lower"),
    ("idealops.power_s", "s", "lower"),
    ("idealops.oracle_calls", "count", "lower"),
    ("idealops.oracle_s", "s", "lower"),
    ("quotient.subset_calls", "count", "lower"),
    ("quotient.colon_calls", "count", "lower"),
    ("frobenius.nu_e_calls", "count", "lower"),
    ("frobenius.nu_probes", "count", "lower"),
    ("frobenius.nu_e_s", "s", "lower"),
    ("frobenius.Ie_calls", "count", "lower"),
    ("frobenius.Ie_s", "s", "lower"),
    ("frobenius.fedder_s", "s", "lower"),
    ("symbolic.power_calls", "count", "lower"),
    ("symbolic.power_s", "s", "lower"),
    ("containment.checks", "count", "lower"),
    ("containment.witness_rechecks", "count", "lower"),
    ("parsing.s", "s", "lower"),
    ("cli.statements", "count", "lower"),
]

# (layer, function) -> metric that counts its calls / sums its span time
CALL_COUNTS = {
    ("groebner", "ideal_member"): "groebner.member_calls",
    ("rings", "Polynomial.__mul__"): "rings.mul_calls",
    ("rings", "Polynomial.frobenius"): "rings.frobenius_calls",
    ("idealops", "ideal_intersect"): "idealops.intersect_calls",
    ("idealops", "ideal_colon"): "idealops.colon_calls",
    ("idealops", "saturate"): "idealops.saturate_calls",
    ("idealops", "brute_membership_oracle"): "idealops.oracle_calls",
    ("quotient", "q_subset"): "quotient.subset_calls",
    ("quotient", "q_colon"): "quotient.colon_calls",
    ("frobenius", "nu_e"): "frobenius.nu_e_calls",
    ("frobenius", "hypersurface_Ie"): "frobenius.Ie_calls",
    ("symbolic", "symbolic_power"): "symbolic.power_calls",
    ("cli", "execute_statement"): "cli.statements",
} | {("containment", name): "containment.checks" for name in CHECKS}
SPAN_TIMES = {
    ("rings", "Polynomial.__mul__"): "rings.mul_s",
    ("idealops", "ideal_power"): "idealops.power_s",
    ("idealops", "brute_membership_oracle"): "idealops.oracle_s",
    ("frobenius", "nu_e"): "frobenius.nu_e_s",
    ("frobenius", "hypersurface_Ie"): "frobenius.Ie_s",
    ("frobenius", "fedder_is_fpure"): "frobenius.fedder_s",
    ("symbolic", "symbolic_power"): "symbolic.power_s",
}


class Tracer:
    """Wraps froblab's layers for the lifetime of one traced pass."""

    def __init__(self):
        self.spans = []  # [parent index, layer, name, start, end]
        self.stack = []
        self.counts = dict.fromkeys((n for n, u, _ in PER_LAYER if u == "count"), 0)
        self.nf_seconds = 0.0
        self.gb_seconds = 0.0
        self.gb_inputs = set()
        self.gb_repeats = 0
        self.probe_targets = {}  # nu_e span index -> the I_e(m) it probes against
        self._patched = []

    # -- installation ---------------------------------------------------

    def install(self):
        package = {n: m for n, m in sys.modules.items() if n == "froblab" or n.startswith("froblab.")}
        wrappers = {}
        for layer in LAYERS:
            module = package[f"froblab.{layer}"]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_") and name not in UNWRAPPED):
                    wrappers[fn] = self._span_wrapper(layer, name, fn)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    fn = cls.__dict__[method]
                    wrappers[fn] = self._span_wrapper(layer, f"{cls_name}.{method}", fn)
                for attr, value in list(vars(cls).items()):
                    if inspect.isfunction(value) and value in wrappers:  # also __rmul__
                        self._patch(cls, attr, wrappers[value])
        groebner = package["froblab.groebner"]
        wrappers[groebner._nf_terms] = self._nf_wrapper(groebner._nf_terms)
        for module in package.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        return self

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, layer, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        before = getattr(self, f"_before_{name.replace('.', '_')}", None)
        after = getattr(self, f"_after_{name.replace('.', '_')}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [stack[-1] if stack else -1, layer, name, 0.0, 0.0]
            spans.append(span)
            token = before(index, args) if before else None
            stack.append(index)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if after:
                after(index, args, result, token)
            return result

        return wrapper

    def _nf_wrapper(self, fn):
        """Reduction engine: counted and timed without a span (it has no
        froblab children, so self times are unaffected)."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.nf_seconds += clock() - start
                self.counts["groebner.nf_calls"] += 1

        return wrapper

    # -- counter hooks, looked up by function name ------------------------

    def _before_Ideal_groebner_basis(self, index, args):
        ideal = args[0]
        if ideal._gb is not None:
            return None
        key = (ideal.ring, tuple(sorted(g.monic().terms for g in ideal.gens)))
        if key in self.gb_inputs:
            self.gb_repeats += 1
        self.gb_inputs.add(key)
        return key

    def _after_Ideal_groebner_basis(self, index, args, result, key):
        if key is None:
            self.counts["groebner.gb_reused"] += 1
            return
        self.counts["groebner.gb_computed"] += 1
        self.counts["groebner.gb_elements"] += len(result)
        span = self.spans[index]
        self.gb_seconds += span[4] - span[3]

    def _after_saturate(self, index, args, result, token):
        self.counts["idealops.saturate_steps"] += result[1]

    def _after_Ie_maximal(self, index, args, result, token):
        parent = self.spans[index][0]
        if parent >= 0 and self.spans[parent][2] == "nu_e":
            self.probe_targets[parent] = result

    def _count_probe(self, index, args):
        parent = self.spans[index][0]
        if parent >= 0 and self.probe_targets.get(parent) is args[1]:
            self.counts["frobenius.nu_probes"] += 1

    _before_ideal_subset = _before_q_subset = _count_probe

    def _after_check(self, index, args, result, token):
        if "witness_recheck" in result.diagnostics:
            self.counts["containment.witness_rechecks"] += 1

    _after_check_fpure_containment = _after_check_sfr_containment = _after_check
    _after_check_fpt_containment = _after_check_symbolic_into_Ie = _after_check

    # -- results --------------------------------------------------------

    def metrics(self):
        """Every PER_LAYER metric as {name: value}."""
        child = [0.0] * len(self.spans)
        for parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict(self.counts)
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for metric in SPAN_TIMES.values():
            out[metric] = 0.0
        out["parsing.s"] = 0.0
        for i, (parent, layer, name, start, end) in enumerate(self.spans):
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += end - start - child[i]
            if (layer, name) in CALL_COUNTS:
                out[CALL_COUNTS[layer, name]] += 1
            if (layer, name) in SPAN_TIMES:
                out[SPAN_TIMES[layer, name]] += end - start
            if layer == "parsing" and (parent < 0 or self.spans[parent][1] != "parsing"):
                out["parsing.s"] += end - start
        computed = out["groebner.gb_computed"]
        out["groebner.gb_repeat_frac"] = self.gb_repeats / computed if computed else 0.0
        out["groebner.gb_s"] = self.gb_seconds
        out["groebner.nf_s"] = self.nf_seconds
        return out

"""Span tracing of troplift's layers, installed from outside the program.

`Tracer.install()` replaces the module attributes through which the layers
call each other (`troplift.lift.rref_solve`, `troplift.series.try_divexact`,
`LaurentPolynomial.__mul__`, ...) with wrappers that record a span per call,
and `uninstall()` puts the originals back.  Spans are recorded only inside a
root span (`with tracer.root("request"):`), so the benchmark's own checks
stay untimed.  A span stack gives each span its self time: its duration
minus the durations of the spans it encloses.  The post-call hooks that
read sizes off return values run on a paused clock, so their cost is
charged to no span.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import troplift.formats
import troplift.lift
import troplift.linalg
import troplift.oracle
import troplift.series
from troplift.lift import (
    STAGE_EMPTY_CLASS,
    STAGE_FAMILY_L,
    STAGE_INFEASIBLE,
    STAGE_SYSTEM3,
    NotMember,
)
from troplift.series import LaurentPolynomial, PuiseuxFraction

STAGES = (STAGE_INFEASIBLE, STAGE_EMPTY_CLASS, STAGE_SYSTEM3, STAGE_FAMILY_L)

# The stages `decide` runs, by the lift attribute it calls them through.
LIFT_STAGES = {
    "strip_infinite": "lift.strip",
    "normalize_and_partition": "lift.partition",
    "rref_solve": "lift.elim",
    "attach_unknowns": "lift.unknowns",
    "build_forms": "lift.forms",
    "solve_and_sweep": "lift.sweep",
    "reconstruct_witness": "lift.reconstruct",
    "verify_witness": "lift.verify",
}

# (owner, attribute, span name) for every patched call site.  A function
# imported by name into several modules is patched in each of them.
_SITES = (
    [(troplift.lift, attr, name) for attr, name in LIFT_STAGES.items()]
    + [
        (troplift.lift, "decide", "lift.decide"),
        (troplift.lift, "solve_affine", "linalg.solve_affine"),
        (troplift.lift, "vanishes_identically", "linalg.vanishes"),
        (troplift.oracle, "kernel_basis", "linalg.kernel_basis"),
        (troplift.oracle, "member_oracle", "oracle.member"),
        (troplift.oracle, "minimal_support_vectors", "oracle.enumerate"),
        (troplift.formats, "loads", "formats.parse"),
        (troplift.formats, "parse_instance", "formats.parse"),
        (troplift.formats, "parse_point", "formats.parse"),
        (troplift.formats, "serialize_witness", "formats.serialize"),
        (LaurentPolynomial, "__mul__", "series.mul"),
        (LaurentPolynomial, "__rmul__", "series.mul"),
        (troplift.series, "laurent_divexact", "series.divexact"),
        (troplift.linalg, "laurent_divexact", "series.divexact"),
        (troplift.series, "try_divexact", "series.try_divexact"),
        (troplift.series, "laurent_gcd", "series.gcd"),
        (troplift.linalg, "laurent_gcd", "series.gcd"),
        (PuiseuxFraction, "series_coefficients", "series.expand"),
    ]
)

LAYERS = ("formats", "lift", "linalg", "series", "oracle")

# Spans that are steps of a request; they never enclose one another, so
# their inclusive times add up to the part of a request they explain.
REQUEST_STEPS = frozenset({"formats.parse", "formats.serialize", "oracle.member",
                           *LIFT_STAGES.values()})


def _poly_bits(p):
    """Bit size of a Laurent polynomial's largest rational coefficient."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for _, c in p.terms()), default=0)


class Tracer:
    """Per-span call counts, self and inclusive times, plus size counters."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = Counter()
        self.maxima = Counter()
        self.mul_terms = Counter()
        self.root_s = defaultdict(float)
        self.steps_s = defaultdict(float)  # REQUEST_STEPS time, by root
        self._root = None
        self._stack = []
        self._paused = 0.0
        self._saved = []

    # -- spans -----------------------------------------------------------

    def _enter(self):
        frame = [0.0, perf_counter(), self._paused]  # child time, start, pause
        self._stack.append(frame)
        return frame

    def _leave(self, frame):
        duration = perf_counter() - frame[1] - (self._paused - frame[2])
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += duration
        return duration, duration - frame[0]

    @contextmanager
    def root(self, name):
        """A request (or a check whose layers are measured): spans record inside."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        self._root = name
        frame = self._enter()
        try:
            yield
        finally:
            duration, _ = self._leave(frame)
            self.root_s[name] += duration

    def _wrap(self, fn, name):
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration, own = self._leave(frame)
                self.calls[name] += 1
                self.self_s[name] += own
                self.incl_s[name] += duration
                if name in REQUEST_STEPS:
                    self.steps_s[self._root] += duration
            if hook is not None:
                start = perf_counter()
                hook(self, args, kwargs, result)
                self._paused += perf_counter() - start
            return result

        return traced

    def install(self):
        """Patch every call site the program still has; a gone one reads 0."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _SITES:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- report ----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics by name: (value, unit)."""
        s = self.self_s
        t = self.incl_s
        request_s = self.root_s["request"]
        out = {}
        out["formats.parse_ms"] = (1000.0 * s["formats.parse"], "ms")
        out["formats.serialize_ms"] = (1000.0 * s["formats.serialize"], "ms")
        for name in ("lift.decide", *LIFT_STAGES.values(), "oracle.member"):
            out[name + "_s"] = (t[name], "s")
        for name in ("linalg.solve_affine", "linalg.vanishes",
                     "linalg.kernel_basis", "series.mul", "series.divexact",
                     "series.try_divexact", "series.gcd", "series.expand"):
            out[name + "_s"] = (s[name], "s")
        for layer in LAYERS:
            out[layer + ".self_s"] = (
                sum(v for k, v in s.items() if k.startswith(layer + ".")), "s")
        out["linalg.solve_affine_cells"] = (self.counts["solve_affine_cells"],
                                            "count")
        for name in ("series.mul", "series.expand", "series.gcd"):
            out[name + "_calls"] = (self.calls[name], "count")
        attempts = self.calls["series.try_divexact"]
        out["series.try_divexact_hit_ratio"] = (
            self.counts["try_divexact_hits"] / attempts if attempts else 0.0,
            "ratio")
        out["series.entry_terms_max"] = (self.maxima["entry_terms"], "count")
        out["series.entry_bits_max"] = (self.maxima["entry_bits"], "bits")
        out["series.mul_operand_terms_p50"] = (_median_of(self.mul_terms),
                                               "count")
        for key in ("subsystems", "free_cols", "ansatz_unknowns",
                    "constraint_rows", "family_size"):
            out["lift." + key] = (self.counts[key], "count")
        out["lift.sweep_p_max"] = (self.maxima["sweep_p"], "count")
        for stage in STAGES:
            out["lift.reject." + stage] = (self.counts["reject." + stage],
                                           "count")
        out["oracle.circuits"] = (self.counts["circuits"], "count")
        steps = self.steps_s["request"]
        out["trace.step_coverage"] = (steps / request_s if request_s else 0.0,
                                      "ratio")
        return out


def _median_of(hist):
    total = sum(hist.values())
    if not total:
        return 0
    seen = 0
    for value in sorted(hist):
        seen += hist[value]
        if 2 * seen >= total:
            return value
    return 0  # unreachable


# -- hooks: sizes and counts read off arguments and return values ----------

def _on_partition(tracer, args, kwargs, part):
    tracer.counts["subsystems"] += len(part.subsystems)


def _on_elim(tracer, args, kwargs, red):
    tracer.counts["free_cols"] += len(red.free_cols)
    entries = [x for row in red.matrix.rows for x in row]
    entries.extend(red.rhs)
    terms = 0
    bits = 0
    for x in entries:
        if x:
            terms = max(terms, x.term_count)
            bits = max(bits, _poly_bits(x.num), _poly_bits(x.den))
    tracer.maxima["entry_terms"] = max(tracer.maxima["entry_terms"], terms)
    tracer.maxima["entry_bits"] = max(tracer.maxima["entry_bits"], bits)


def _on_unknowns(tracer, args, kwargs, layout):
    tracer.counts["ansatz_unknowns"] += len(layout.variables)


def _on_forms(tracer, args, kwargs, forms):
    must_vanish, must_not = forms
    tracer.counts["constraint_rows"] += len(must_vanish)
    tracer.counts["family_size"] += len(must_not)


def _on_sweep(tracer, args, kwargs, outcome):
    if not isinstance(outcome, NotMember):
        tracer.maxima["sweep_p"] = max(tracer.maxima["sweep_p"],
                                       outcome.stats.chosen_p)


def _on_decide(tracer, args, kwargs, result):
    if not result.is_member:
        tracer.counts["reject." + result.stage] += 1


def _on_solve_affine(tracer, args, kwargs, space):
    tracer.counts["solve_affine_cells"] += len(args[0]) * kwargs["ncols"]


def _on_circuits(tracer, args, kwargs, circuits):
    tracer.counts["circuits"] += len(circuits)


def _on_mul(tracer, args, kwargs, product):
    a, b = args
    tracer.mul_terms[len(a.coeffs)] += 1
    if isinstance(b, LaurentPolynomial):
        tracer.mul_terms[len(b.coeffs)] += 1


def _on_try_divexact(tracer, args, kwargs, quotient):
    if quotient is not None:
        tracer.counts["try_divexact_hits"] += 1


_HOOKS = {
    "lift.partition": _on_partition,
    "lift.elim": _on_elim,
    "lift.unknowns": _on_unknowns,
    "lift.forms": _on_forms,
    "lift.sweep": _on_sweep,
    "lift.decide": _on_decide,
    "linalg.solve_affine": _on_solve_affine,
    "oracle.enumerate": _on_circuits,
    "series.mul": _on_mul,
    "series.try_divexact": _on_try_divexact,
}

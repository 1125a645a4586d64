"""Output taps and span tracing around the public functions fluxmodes' CLI
and `decide` call.

Both work by replacing module attributes for the duration of a `with`
block and restoring them afterwards; nothing inside fluxmodes changes.
Taps (every run) keep the QuadratureResults and support sizes the checks
need, and stamp the time at the start and end of every integrand call,
support enumeration and grid, which cut each answer into segments.  The
tracer (traced runs only) records one span per call: layer,
function, start, end, parent span, question id and a count, in memory.
"""

import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, layer) for every traced call site
TRACED = (
    ("cli", "config_from_dict", "config.load"),
    ("cli", "normalize_fluxes", "config.load"),
    ("decide", "normalize_fluxes", "config.load"),
    ("ansatz", "normalize_fluxes", "config.load"),
    ("cli", "decide", "decide"),
    ("decide", "decide", "decide"),
    ("ansatz", "decide", "decide"),
    ("decide", "enumerate_support", "config.enumerate"),
    ("ansatz", "enumerate_support", "config.enumerate"),
    ("decide", "set_stats", "config.set_stats"),
    ("cli", "build_zero_modes", "ansatz.build"),
    ("cli", "build_divergence_candidate", "ansatz.build"),
    ("cli", "l2_norm_squared", "verify.norm"),
    ("verify", "integrate_disc", "verify.norm"),
    ("cli", "annihilation_residual", "verify.residual"),
    ("cli", "sample_grid", "ansatz.grid"),
)
SPAN_FIELDS = ("layer", "function", "start", "end", "parent", "question", "count")


@contextmanager
def patched(replacements):
    """Set (module, attribute, value) triples; restore the originals on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


class Taps:
    """Collects what the checks need from inside a question's answer, and
    the segment stamps that cut it up."""

    def __init__(self):
        self.quads = []
        self.enumerations = []
        self.stamps = []

    def reset(self):
        self.quads, self.enumerations, self.stamps = [], [], []

    def mark(self):
        self.stamps.append(time.perf_counter())

    def stamped(self, fn):
        """fn, with a stamp before and after every call."""

        def call(*args, **kwargs):
            self.mark()
            try:
                return fn(*args, **kwargs)
            finally:
                self.mark()

        call.__name__ = fn.__name__
        return call

    def install(self, fm):
        norm = fm.cli.l2_norm_squared
        disc = fm.verify.integrate_disc
        enum_decide = fm.decide.enumerate_support
        enum_ansatz = fm.ansatz.enumerate_support

        def l2_norm_squared(psi, *args, **kwargs):
            result = norm(_TimedPsi(psi, self.stamped(psi.log_abs)), *args, **kwargs)
            self.quads.append(result)
            return result

        def integrate_disc(log_abs, *args, **kwargs):
            return disc(self.stamped(log_abs), *args, **kwargs)

        def tap_enum(inner):
            inner = self.stamped(inner)

            def enumerate_support(config, r_max, *args, **kwargs):
                sites = inner(config, r_max, *args, **kwargs)
                self.enumerations.append((config, r_max, len(sites)))
                return sites

            return enumerate_support

        return patched(
            [
                (fm.cli, "l2_norm_squared", l2_norm_squared),
                (fm.verify, "integrate_disc", integrate_disc),
                (fm.decide, "enumerate_support", tap_enum(enum_decide)),
                (fm.ansatz, "enumerate_support", tap_enum(enum_ansatz)),
                (fm.cli, "sample_grid", self.stamped(fm.cli.sample_grid)),
            ]
        )


class _TimedPsi:
    """Wave function proxy with a traced log_abs; every other attribute is
    the wrapped function's."""

    def __init__(self, psi, log_abs):
        self._psi = psi
        self.log_abs = log_abs

    def __getattr__(self, name):
        return getattr(self._psi, name)


class Tracer:
    def __init__(self):
        self.spans = []  # lists in SPAN_FIELDS order
        self._stack = []
        self.question = None

    @contextmanager
    def span(self, layer, function, count=None):
        """Record one span around the block; yields the record."""
        parent = self._stack[-1] if self._stack else -1
        record = [layer, function, time.perf_counter(), None, parent, self.question, count]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def timed_log_abs(self, log_abs):
        def traced(z):
            with self.span("ansatz.log_abs", "log_abs", np.size(z)):
                return log_abs(z)

        return traced

    def wrap(self, layer, fn):
        name = fn.__name__

        def traced(*args, **kwargs):
            if layer == "verify.norm":
                # hand the quadrature an integrand that times and counts log_abs
                first = args[0]
                if name == "integrate_disc":
                    first = self.timed_log_abs(first)
                else:
                    first = _TimedPsi(first, self.timed_log_abs(first.log_abs))
                args = (first, *args[1:])
            with self.span(layer, name) as record:
                result = fn(*args, **kwargs)
            if layer == "config.enumerate":
                record[6] = len(result)
            return result

        traced.__name__ = name
        return traced

    def install(self, fm):
        mods = {"cli": fm.cli, "decide": fm.decide, "ansatz": fm.ansatz, "verify": fm.verify}
        return patched(
            [(mods[m], attr, self.wrap(layer, getattr(mods[m], attr))) for m, attr, layer in TRACED]
        )


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def layer_metrics(spans) -> dict:
    """Totals per layer over all spans; see the README for definitions."""
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child[s[4]] += dur[i]

    def total(layer, outermost=False):
        return sum(
            dur[i]
            for i, s in enumerate(spans)
            if s[0] == layer and not (outermost and s[4] >= 0 and spans[s[4]][0] == layer)
        )

    def self_time(layer):
        return sum(dur[i] - child[i] for i, s in enumerate(spans) if s[0] == layer)

    in_norm = [
        i for i, s in enumerate(spans)
        if s[0] == "ansatz.log_abs" and s[4] >= 0 and spans[s[4]][0] == "verify.norm"
    ]
    calls = len(in_norm)
    points = sum(spans[i][6] for i in in_norm)
    return {
        "cli.self_s": self_time("cli.main"),
        "config.load_s": total("config.load"),
        "config.enumerate_s": total("config.enumerate"),
        "config.enumerate_sites": sum(s[6] for s in spans if s[0] == "config.enumerate"),
        "config.set_stats_s": self_time("config.set_stats"),
        "decide.s": total("decide", outermost=True),
        "decide.calls": sum(1 for s in spans if s[0] == "decide"),
        "decide.self_s": self_time("decide"),
        "ansatz.build_s": total("ansatz.build"),
        "ansatz.log_abs_s": total("ansatz.log_abs"),
        "ansatz.grid_s": total("ansatz.grid"),
        "verify.norm_s": total("verify.norm"),
        "verify.quad_self_s": self_time("verify.norm"),
        "verify.residual_s": total("verify.residual"),
        "verify.log_abs_calls": calls,
        "verify.log_abs_points": points,
        "verify.points_per_call": points / calls if calls else 0.0,
    }

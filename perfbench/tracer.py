"""Span recorder and the layer wrappers the traced run installs.

Spans are recorded from outside the library: the public functions of each
layer are wrapped in every equidist.* namespace that binds them, so calls
made through a module global (weyl.scan_points -> residue_stream) are seen
as well.  The recorder keeps a contextvar holding the open span, records
name, start, end, parent and job id in memory, and computes self time as a
span's duration minus the durations of its children.

Spans inside pool workers are out of reach: a pool call's wall time shows
up as the self time of the span that waited on it.

The fixed-point power stream is a generator.  Its span accumulates only the
time spent inside the generator's own steps (`dur`), so the consumer that
interleaves work with the steps keeps that work as its own self time.
"""

from __future__ import annotations

import contextvars
import functools
import sys
import time

_now = time.perf_counter
_open: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=-1)

# span record fields
NAME, PARENT, JOB, START, END, DUR, ATTRS = range(7)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None

    def begin(self, name: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        self.spans.append([name, _open.get(), self.job, _now(), None, None, attrs])
        return idx

    def end(self, idx: int) -> None:
        rec = self.spans[idx]
        rec[END] = _now()
        if rec[DUR] is None:
            rec[DUR] = rec[END] - rec[START]

    def call(self, name: str, fn, args, kwargs, attrs=None):
        idx = self.begin(name, attrs)
        token = _open.set(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            _open.reset(token)
            self.end(idx)

    def self_times(self) -> list[float]:
        out = [rec[DUR] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                out[rec[PARENT]] -= rec[DUR]
        return out


# -- layer wrappers --------------------------------------------------------


def _len(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


def _plain(rec: Recorder, name: str, attr=None):
    """Wrapper factory: one span per call, attrs computed from (args, kwargs, result)."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            result = rec.call(name, fn, args, kwargs, attrs)
            if attr is not None:
                attr(attrs, args, kwargs, result)
            return result

        return wrapper

    return make


def _power_stream(rec: Recorder, name: str):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            attrs = {"steps": 0}
            idx = rec.begin(name, attrs)
            span = rec.spans[idx]
            busy = 0.0
            try:
                while True:
                    t0 = _now()
                    try:
                        value = next(gen)
                    except StopIteration:
                        busy += _now() - t0
                        return
                    busy += _now() - t0
                    attrs["steps"] += 1
                    yield value
            finally:
                gen.close()
                span[DUR] = busy
                rec.end(idx)

        return wrapper

    return make


def _terms_arg(pos: int, key: str):
    def attr(attrs, args, kwargs, result):
        attrs["terms"] = args[pos] if len(args) > pos else kwargs[key]

    return attr


def _terms_result(attrs, args, kwargs, result):
    attrs["terms"] = _len(result)


def _interleaved_terms(attrs, args, kwargs, result):
    attrs["terms"] = sum(_len(v) for v in result)


def _seed_value(attrs, args, kwargs, result):
    attrs["seed"] = (result.numerator, result.denominator)


def _phase_terms(attrs, args, kwargs, result):
    # counted only on the outermost weyl_sum span (see harness.layer_metrics)
    attrs["phase_terms"] = result.checkpoints[-1]


def _gamma_bits(attrs, args, kwargs, result):
    self_, count = args[0], (args[1] if len(args) > 1 else kwargs["count"])
    if count > 0:
        n = count + self_.bits_per_uniform - 1
        attrs["bits"] = n * (n + 1) // 2 - (count - 1)


# (module, attribute, layer name, attr function or "stream")
FUNCTIONS = [
    ("equidist.arithmetic", "is_probable_prime", "arithmetic.is_probable_prime", None),
    ("equidist.arithmetic", "fixed_point_pow", "arithmetic.fixed_point_pow", None),
    ("equidist.arithmetic", "fixed_point_power_stream", "arithmetic.power_stream", "stream"),
    ("equidist.generators", "residue_stream", "generators.residue_stream", _terms_arg(2, "count")),
    ("equidist.generators", "beta_stream", "generators.beta_stream", _terms_arg(2, "count")),
    ("equidist.generators", "stream_floats", "generators.float_crossing", _terms_result),
    ("equidist.generators", "residues_to_floats", "generators.float_crossing", _terms_result),
    ("equidist.generators", "windows_array", "generators.windows_array", None),
    ("equidist.generators", "interleaved_vectors", "generators.interleaved_vectors", _interleaved_terms),
    ("equidist.weyl", "scan_points", "weyl.scan_points", None),
    ("equidist.weyl", "weyl_sum", "weyl.weyl_sum", _phase_terms),
    ("equidist.weyl", "criterion_scan", "weyl.criterion_scan", None),
    ("equidist.discrepancy", "star_discrepancy_1d", "discrepancy.star_discrepancy_1d", None),
    ("equidist.discrepancy", "etk_bound", "discrepancy.etk_bound", None),
    ("equidist.stochastic", "mc_moment", "stochastic.mc_moment", None),
    ("equidist.stochastic", "del_criterion", "stochastic.del_criterion", None),
    ("equidist.stochastic", "wcud_check", "stochastic.wcud_check", None),
    ("equidist.stochastic", "lemma2_decay_fit", "stochastic.lemma2_decay_fit", None),
    ("equidist.stochastic", "lemma3_check", "stochastic.lemma3_check", None),
    ("equidist.stochastic", "gamma_stream", "stochastic.gamma_stream", None),
    ("equidist.cli", "main", "cli.run", None),
    ("equidist.cli", "run", "cli.run", None),
]
# (module, class, method, layer name, attr function)
METHODS = [
    ("equidist.arithmetic", "SeedSampler", "sample", "arithmetic.seed_draw", _seed_value),
    ("equidist.stochastic", "GammaStream", "uniforms", "stochastic.gamma_stream", _gamma_bits),
]


LAYERS = sorted({name for _, _, name, _ in FUNCTIONS} | {name for *_, name, _ in METHODS})
# span attributes summed per layer, reported as "<layer>.<attr>"
ATTR_METRICS = (
    "arithmetic.power_stream.steps",
    "generators.residue_stream.terms",
    "generators.beta_stream.terms",
    "generators.float_crossing.terms",
    "stochastic.gamma_stream.bits",
)


class Wrappers:
    """Installs the layer wrappers into every equidist namespace; undoes it."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "equidist" or n.startswith("equidist.")) and m is not None]
        for mod_name, attr, name, extra in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            if extra == "stream":
                wrapped = _power_stream(self.rec, name)(original)
            else:
                wrapped = _plain(self.rec, name, extra)(original)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self.saved.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        for mod_name, cls_name, meth, name, extra in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            self.saved.append((cls, meth, original))
            setattr(cls, meth, _plain(self.rec, name, extra)(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

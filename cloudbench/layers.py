"""Per-layer spans around cloudradio's public functions.

`install()` wraps each function in SPANS and rebinds every module-level name
in the package that refers to it, so callers that imported the name
(`harness.associate`, `precoding.lq_factor`) and callers that look it up
on its module (`precoding.conventional_rates`, `analytic.tau_tic_curve`)
both go through the wrapper.  A span's self time is its duration minus the
durations of the spans it encloses.
"""

import time
from collections import defaultdict

from cloudradio import analytic, channel, cli, geometry, harness, numerics, precoding, stats, thp

MODULES = (analytic, channel, cli, geometry, harness, numerics, precoding, stats, thp)

# module -> functions timed as spans; metrics <module>.<function>.self_s / .calls
SPANS = {
    geometry: ("sample_ppp", "associate", "select_cohort", "split_cluster"),
    channel: ("build_channel", "take_partial_csi", "inter_cluster_interference"),
    numerics: ("lq_factor", "hpd_inverse"),
    precoding: ("conventional_rates", "zfdpc_rates", "uplink_sic_rates", "mmse_rates",
                "tic_rate", "smf_rate", "zfdpc_partial_rates", "clustered_rates"),
    thp: ("drop_power_sample",),
    analytic: ("tau_tic_curve", "tau_smf2_curve"),
    stats: ("build_cdf",),
    harness: ("simulate_drop", "tagged_rate_samples", "crossvalidate"),
}
# counted only: per-threshold coverage and every quad call `analytic` makes
COUNTED = {analytic: ("tau_tic", "tau_smf2", "quad")}


def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


def _rebind(original, wrapper):
    for mod in MODULES:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


class Tracer:
    """Accumulates self time, call counts and the extra counts of one process."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._stack = []  # time covered by enclosed spans, one slot per open span

    def span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self.self_s[name] += elapsed - self._stack.pop()
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1] += elapsed
            if after is not None:
                after(args, result, elapsed)
            return result
        return wrapper

    def counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def inclusive(self, name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.counts[name] += time.perf_counter() - t0
        return wrapper

    def install(self):
        hooks = {
            "numerics.lq_factor": self._count_rows,
            "geometry.select_cohort": self._count_streams,
            "harness.simulate_drop": self._time_drop,
        }
        for mod, names in SPANS.items():
            for fn_name in names:
                name = f"{_short(mod)}.{fn_name}"
                original = getattr(mod, fn_name)
                _rebind(original, self.span(name, original, hooks.get(name)))
        for mod, names in COUNTED.items():
            for fn_name in names:
                _rebind(getattr(mod, fn_name), self.counter(f"{_short(mod)}.{fn_name}",
                                                            getattr(mod, fn_name)))
        _rebind(harness.run, self.inclusive("harness.run_s", harness.run))
        return self

    def _count_rows(self, args, result, elapsed):
        H = getattr(args[0], "entries", args[0])
        self.counts["numerics.lq_factor.rows"] += H.shape[0]

    def _count_streams(self, args, result, elapsed):
        # an enclosing span means simulate_drop; the debug-dump replay in run() has none
        if self._stack:
            self.counts["harness.cohort_streams"] += result.k

    def _time_drop(self, args, result, elapsed):
        self.counts["harness.drops_s"] += elapsed

    def report(self) -> dict:
        """Flat metric name -> value for every span and count."""
        out = {}
        for mod, names in SPANS.items():
            for fn_name in names:
                name = f"{_short(mod)}.{fn_name}"
                out[f"{name}.self_s"] = self.self_s[name]
                out[f"{name}.calls"] = self.calls[name]
        for mod, names in COUNTED.items():
            for fn_name in names:
                out[f"{_short(mod)}.{fn_name}.calls"] = self.calls[f"{_short(mod)}.{fn_name}"]
        out["numerics.lq_factor.rows"] = int(self.counts["numerics.lq_factor.rows"])
        out["harness.cohort_streams"] = int(self.counts["harness.cohort_streams"])
        out["harness.output_s"] = self.counts["harness.run_s"] - self.counts["harness.drops_s"]
        out["spans.self_s"] = sum(self.self_s.values())
        return out


def install() -> Tracer:
    return Tracer().install()

"""Aggregation of rate samples: empirical CDFs, gains, saturation.

A quantile is numpy's default ('linear') rule read straight off the sorted
samples: the virtual index (n-1)q, then numpy's two-sided interpolation
between its neighbours.  It equals np.quantile bit for bit without the copy
and partition np.quantile makes per call.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RateCdf",
    "build_cdf",
    "gain_percent",
    "detect_saturation",
]

CELL_EDGE_Q = 0.05
# detect_saturation's bound on a step's relative gain, and the dB it is normalized to
SATURATION_STEP, SATURATION_PER_DB = 0.02, 5.0


@dataclass
class RateCdf:
    """Empirical distribution of rate (or any scalar) samples.

    quantile(q) is np.quantile(samples, q) (numpy's 'linear' rule, between
    order statistics), read from the sorted samples; a NaN sample sorts last
    and makes every quantile NaN, as in numpy.  cell_edge is the 0.05
    quantile, the cell-edge statistic.
    """

    samples: np.ndarray  # sorted ascending
    n: int
    mean: float
    cell_edge: float

    def quantile(self, q):
        return _sorted_quantile(self.samples, q)

    def cdf_at(self, x):
        """P[sample <= x], vectorized over x."""
        return np.searchsorted(self.samples, x, side="right") / self.n

    def summary(self):
        qs = [1, 5, 25, 50, 75, 95, 99]
        return {
            "n": self.n,
            "mean": self.mean,
            "cell_edge": self.cell_edge,
            "quantiles": {str(p): self.quantile(p / 100.0) for p in qs},
        }


def build_cdf(samples) -> RateCdf:
    """Sort samples into an empirical CDF with mean and cell-edge summaries."""
    s = np.sort(np.asarray(samples, dtype=float).ravel())
    if s.size == 0:
        raise ValueError("cannot build a CDF from no samples")
    return RateCdf(samples=s, n=s.size, mean=float(s.mean()),
                   cell_edge=_sorted_quantile(s, CELL_EDGE_Q))


def _sorted_quantile(s, q) -> float:
    """np.quantile(s, q) of ascending samples s, bit for bit.

    numpy's 'linear' rule: the virtual index v = (n-1)q splits into its floor
    i and weight g = v - i.  At or past the last index numpy reads the last
    sample on both sides, with g = v + 1 (it weighs against index -1).  Its
    interpolation is two-sided: a + d*g, or b - d*(1-g) when g >= 0.5.
    q is taken as a float: for an integer q numpy picks the sample outright,
    which differs only where an infinite sample makes d infinite.
    """
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile q must lie in [0, 1]")
    n = s.size
    last = float(s[-1])
    if math.isnan(last):
        return last
    v = (n - 1) * q
    if v >= n - 1:
        a = b = last
        g = v + 1.0
    else:
        i = math.floor(v)
        a, b = float(s[i]), float(s[i + 1])
        g = v - i
    d = b - a
    return b - d * (1.0 - g) if g >= 0.5 else a + d * g


def gain_percent(test: RateCdf, baseline: RateCdf, statistic="mean") -> float:
    """Percentage improvement of `test` over `baseline` on the given statistic.

    Only the statistic's attribute is read, so any object with `mean` and
    `cell_edge` attributes serves as well as a RateCdf.
    """
    if statistic not in ("mean", "cell_edge"):
        raise ValueError("statistic must be 'mean' or 'cell_edge'")
    b = getattr(baseline, statistic)
    t = getattr(test, statistic)
    if b <= 0:
        raise ZeroDivisionError("baseline statistic is not positive; gain undefined")
    return 100.0 * (t - b) / b


def detect_saturation(snr_grid, means):
    """Find where a mean-rate SNR sweep stops growing.

    Saturation is the smallest grid SNR beyond which every relative increase,
    normalized per SATURATION_PER_DB dB, stays below SATURATION_STEP.  The
    plateau is the mean of the tail from that point on.  Returns the pair
    (snr_db, plateau), or (None, None) when no such point exists in range.
    """
    snr = np.asarray(snr_grid, dtype=float)
    m = np.asarray(means, dtype=float)
    if snr.size < 4:
        raise ValueError("need at least 4 sweep points")
    if np.any(np.diff(snr) <= 0):
        raise ValueError("SNR grid must be strictly increasing")
    steps = np.diff(m) / m[:-1] * (SATURATION_PER_DB / np.diff(snr))
    for i in range(steps.size):
        if np.all(steps[i:] < SATURATION_STEP):
            return float(snr[i]), float(m[i:].mean())
    return None, None

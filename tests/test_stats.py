import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudradio import build_cdf, detect_saturation, gain_percent


def test_build_cdf_basics():
    cdf = build_cdf([3.0, 1.0, 2.0])
    assert cdf.mean == pytest.approx(2.0)
    assert cdf.quantile(0.5) == pytest.approx(2.0)
    assert cdf.n == 3
    assert np.all(np.diff(cdf.samples) >= 0)


def test_build_cdf_constant_samples():
    cdf = build_cdf(np.full(50, 1.7))
    assert cdf.cell_edge == cdf.mean == pytest.approx(1.7)


def test_build_cdf_empty_rejected():
    with pytest.raises(ValueError):
        build_cdf([])


def test_exponential_cell_edge_quantile(rng):
    # 0.05 quantile of Exp(1) is -ln(0.95) ~ 0.0513
    cdf = build_cdf(rng.exponential(1.0, size=100000))
    assert abs(cdf.cell_edge - 0.051293) < 0.03 * 0.051293


def test_gain_percent_reference_anchors():
    zf = build_cdf([4.93])
    conv = build_cdf([1.63])
    mmse = build_cdf([3.73])
    assert gain_percent(zf, conv) == pytest.approx(202.45, abs=0.1)
    assert gain_percent(mmse, conv) == pytest.approx(128.8, abs=0.1)
    assert gain_percent(conv, conv) == 0.0


def test_gain_percent_zero_baseline():
    with pytest.raises(ZeroDivisionError):
        gain_percent(build_cdf([1.0]), build_cdf([0.0]))
    with pytest.raises(ValueError):
        gain_percent(build_cdf([1.0]), build_cdf([1.0]), statistic="median")


def test_ks_matches_scipy(rng):
    # crossvalidate reads its Monte Carlo coverage as 1 - cdf_at(grid), and
    # demo 04 the KS statistic as the largest cdf_at gap over the pooled
    # samples: both need cdf_at to be P[sample <= x], a tie counted as below
    from scipy.stats import ks_2samp

    cdf = build_cdf([2.0, 1.0, 2.0, 3.0])
    assert cdf.cdf_at([0.5, 1.0, 2.0, 2.5, 3.0, 4.0]).tolist() == [0, 0.25, 0.75, 0.75, 1, 1]
    x = rng.exponential(1.0, 700)
    y = rng.exponential(1.3, 900)
    pooled = np.concatenate([x, y])
    ours = np.max(np.abs(build_cdf(x).cdf_at(pooled) - build_cdf(y).cdf_at(pooled)))
    assert ours == pytest.approx(ks_2samp(x, y).statistic, abs=1e-12)


def test_saturation_linear_never_saturates():
    grid = [0, 5, 10, 15, 20]
    assert detect_saturation(grid, [1.0, 2.0, 3.0, 4.0, 5.0]) == (None, None)


def test_saturation_constant_from_25():
    grid = [0, 5, 10, 15, 20, 25, 30, 35]
    means = [1.0, 2.0, 3.0, 3.8, 4.4, 4.6, 4.6, 4.6]
    snr_db, plateau = detect_saturation(grid, means)
    assert snr_db == 25.0
    assert plateau == pytest.approx(4.6)


def test_saturation_input_validation():
    with pytest.raises(ValueError):
        detect_saturation([0, 5, 10], [1, 2, 3])
    with pytest.raises(ValueError):
        detect_saturation([0, 5, 5, 10], [1, 2, 3, 4])


def test_summary_schema():
    cdf = build_cdf(np.linspace(0, 10, 101))
    s = cdf.summary()
    assert set(s) == {"n", "mean", "cell_edge", "quantiles"}
    assert set(s["quantiles"]) == {"1", "5", "25", "50", "75", "95", "99"}
    assert s["quantiles"]["50"] == pytest.approx(5.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=200))
def test_cdf_properties(samples):
    cdf = build_cdf(samples)
    # summation rounding can put the mean one ulp outside [min, max]
    slack = 1e-12 * max(1.0, abs(cdf.mean))
    assert cdf.samples[0] - slack <= cdf.mean <= cdf.samples[-1] + slack
    qs = [cdf.quantile(q) for q in (0.05, 0.25, 0.5, 0.75, 0.95)]
    assert np.all(np.diff(qs) >= -1e-12)
    # idempotent under re-sorting
    again = build_cdf(cdf.samples)
    assert np.array_equal(again.samples, cdf.samples)


QUANTILE_QS = (0.0, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 0.9999, 1.0, 1.0 / 3.0)


def same_double(a, b):
    return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1, a) == math.copysign(1, b))


def test_quantiles_are_numpys_linear_rule_bit_for_bit(rng):
    # numpy is the oracle here alone: RateCdf.quantile and cell_edge read the
    # sorted samples directly.  Ties, both infinities (numpy's interpolation
    # turns inf - inf into NaN at some q; so must the direct read) and an all
    # -0.0 sample, whose sign the two-sided interpolation keeps at q < 0.5
    samples = []
    for n in (1, 2, 3, 4, 5, 7, 10, 64, 241, 1000, 20000):
        x = rng.exponential(1.0, n)
        samples += [x, np.round(x, 1), -x, np.full(n, -0.0)]
        with_inf = x.copy()
        with_inf[rng.random(n) < 0.2] = np.inf
        with_inf[rng.random(n) < 0.1] = -np.inf
        samples.append(with_inf)
    samples += [np.array([-np.inf, 1.0]), np.array([1.0, np.inf]), np.array([np.inf])]
    for x in samples:
        with np.errstate(invalid="ignore"):  # inf - inf, in numpy and in the mean
            cdf = build_cdf(x)
            want = [float(np.quantile(cdf.samples, q)) for q in QUANTILE_QS]
            edge = float(np.quantile(cdf.samples, 0.05))
        got = [cdf.quantile(q) for q in QUANTILE_QS]
        assert all(map(same_double, got, want)), (x, got, want)
        assert same_double(cdf.cell_edge, edge), x


def test_a_nan_sample_makes_every_quantile_nan():
    # NaN sorts last, and np.quantile then returns NaN at every q; build_cdf
    # keeps that result rather than raising
    cdf = build_cdf([1.0, np.nan, 2.0, 3.0])
    assert math.isnan(cdf.cell_edge) and math.isnan(cdf.mean)
    assert all(math.isnan(cdf.quantile(q)) for q in QUANTILE_QS)
    with np.errstate(invalid="ignore"):
        assert math.isnan(np.quantile(cdf.samples, 0.0))


@pytest.mark.parametrize("q", [-0.01, 1.01, math.nan])
def test_quantile_outside_unit_interval_raises(q):
    with pytest.raises(ValueError):
        build_cdf([1.0, 2.0]).quantile(q)
    with pytest.raises(ValueError):
        np.quantile([1.0, 2.0], q)

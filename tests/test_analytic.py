import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cloudradio import (CoverageCurve, NumericalError, QuadratureConfig, analytic,
                        gamma_threshold, laplace_ir, tau_smf2, tau_smf2_curve, tau_tic,
                        tau_tic_curve)
from cloudradio.analytic import _check_quad, _laplace_exponent_integral


def test_quadrature_config_invariants():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(trunc_cutoff=1e-9)  # tail mass bound must be <= 1e-12
    cfg = QuadratureConfig()
    assert np.exp(-np.pi * 0.3 * cfg.trunc_radius(0.3) ** 2) <= 1e-12 * 1.0001


def test_gamma_threshold_bases():
    assert gamma_threshold(0.0) == 0.0
    assert gamma_threshold(1.0) == pytest.approx(1.0)
    assert gamma_threshold(1.0, base=np.e) == pytest.approx(np.e - 1.0)


def test_tau_tic_zero_threshold():
    assert tau_tic(0.3, 0.1, 1.0, 0.0) == 1.0


def test_tau_tic_noiseless_limit():
    assert tau_tic(0.3, 1e-12, 1.0, 2.0) > 0.999999


def test_tau_tic_harmonic_closed_form():
    # natural-log mode, alpha = 2: lam*pi / (lam*pi + mu*(e-1)*sigma^2)
    got = tau_tic(0.3, 0.1, 1.0, 1.0, alpha=2.0, base=np.e)
    q = 0.3 * np.pi
    assert got == pytest.approx(q / (q + (np.e - 1.0) * 0.1), rel=1e-9)
    assert got == pytest.approx(0.8458, abs=2e-4)


def test_tau_tic_alpha4_matches_quadrature_oracle():
    # direct Simpson evaluation of the same integrand, independent of QUADPACK
    lam, s2, mu, t = 0.3, 0.1, 1.0, 1.7
    c = mu * gamma_threshold(t) * s2
    q = lam * np.pi
    z = np.linspace(0.0, 9.0, 20001)
    f = 2 * q * z * np.exp(-q * z * z - c * z**4)
    oracle = np.trapezoid(f, z)
    assert tau_tic(lam, s2, mu, t) == pytest.approx(oracle, rel=1e-5)


def test_tau_tic_monotone_in_threshold_and_noise():
    taus = [tau_tic(0.3, 0.1, 1.0, t) for t in (0.5, 1.0, 2.0, 4.0)]
    assert np.all(np.diff(taus) < 0)
    assert tau_tic(0.3, 0.2, 1.0, 1.0) < tau_tic(0.3, 0.1, 1.0, 1.0)


def test_tau_tic_parameter_errors():
    with pytest.raises(ValueError):
        tau_tic(0.0, 0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        tau_tic(0.3, 0.0, 1.0, 1.0)


def test_laplace_trivial_cases():
    assert laplace_ir(1.0, 0.0, 0.3) == 1.0
    assert laplace_ir(1.0, 1.0, 0.0) == 1.0
    val = laplace_ir(1.0, 1.0, 0.3)
    assert 0.0 < val < 1.0


def laplace_exponent_quad(A, excl, alpha):
    """Reference Laplace exponent: log-space quad up to V plus the tail bound.

    The tail beyond V is A * V**(2-alpha)/(alpha-2), with its own error O(A^2).
    """
    config = QuadratureConfig()
    V = max(excl, (A / ((alpha - 2.0) * 1e-9)) ** (1.0 / (alpha - 2.0)))
    val, err = quad(lambda w: A * math.exp(2.0 * w) / (A + math.exp(alpha * w)),
                    math.log(excl), math.log(V),
                    epsabs=1e-13, epsrel=config.rel_tol, limit=200)
    tail = A * V ** (2.0 - alpha) / (alpha - 2.0)
    return _check_quad(val, err, config, "laplace exponent") + tail


def test_laplace_alpha4_closed_form_vs_quadrature():
    # the hypergeometric form next to alpha = 4 must reduce to the arctan form
    for A, excl in [(1.0, 1.0), (5.0, 2.0), (0.3, 0.5)]:
        closed = _laplace_exponent_integral(A, excl, 4.0)
        generic = _laplace_exponent_integral(A, excl, 4.0 + 1e-12)
        assert closed == pytest.approx(generic, rel=1e-10)
        assert closed == pytest.approx(laplace_exponent_quad(A, excl, 4.0), rel=1e-6)


@pytest.mark.parametrize("alpha", [2.5, 3.0, 3.5, 5.0, 6.0])
def test_laplace_generic_alpha_closed_form_vs_quadrature(alpha):
    # the hypergeometric form, one vector call, against one quad per element
    A = np.logspace(-6.0, 6.0, 25)
    for excl in (0.05, 1.0, 3.0):
        closed = _laplace_exponent_integral(A, excl, alpha)
        ref = np.array([laplace_exponent_quad(a, excl, alpha) for a in A])
        assert closed.shape == A.shape
        assert np.max(np.abs(closed / ref - 1.0)) < 1e-6


def test_laplace_monte_carlo_oracle(rng):
    # E[exp(-gamma I_r)] over PPP draws beyond z = 1, gamma = 1 (base 2, t = 1)
    lam, alpha, z = 0.3, 4.0, 1.0
    R = 25.0
    n = 100000
    tail = 2 * np.pi * lam / (alpha - 2.0) * R ** (2.0 - alpha)
    acc = np.empty(n)
    counts = rng.poisson(lam * np.pi * (R * R - z * z), size=n)
    total = counts.sum()
    u = rng.uniform(size=total)
    radii = np.sqrt(z * z + u * (R * R - z * z))
    fades = rng.exponential(1.0, size=total)
    owner = np.repeat(np.arange(n), counts)
    power = np.bincount(owner, weights=fades * radii ** (-alpha), minlength=n)
    mc = np.mean(np.exp(-(power + tail)))
    assert laplace_ir(z, 1.0, lam) == pytest.approx(mc, rel=0.01)


def test_tau_smf2_zero_threshold():
    assert tau_smf2(0.3, 0.1, 1.0, 0.0) == 1.0


def test_tau_smf2_dominates_tau_tic():
    for t in (0.5, 1.0, 2.0, 4.0):
        assert tau_smf2(0.3, 0.1, 1.0, t) > tau_tic(0.3, 0.1, 1.0, t)


def test_tau_smf2_interference_reduces_coverage():
    for t in (0.5, 2.0):
        assert (tau_smf2(0.3, 0.1, 1.0, t, with_interference=True)
                < tau_smf2(0.3, 0.1, 1.0, t))


def test_tau_smf2_monte_carlo_oracle(rng):
    # scheme-matched two-branch combining of the nearest BSs, 2e4 draws
    from cloudradio import tagged_rate_samples

    lam, s2 = 0.3, 0.1
    samples = tagged_rate_samples("smf2", 20000, lam, s2, 1.0, 4.0, 2.0, rng)
    for t in (0.5, 1.5, 3.0):
        emp = np.mean(samples > t)
        assert abs(emp - tau_smf2(lam, s2, 1.0, t)) < 0.02


def test_coverage_curve_validation():
    with pytest.raises(ValueError):
        CoverageCurve(np.array([0.0, 1.0]), np.array([0.5, 0.9]))  # increasing tau
    with pytest.raises(ValueError):
        CoverageCurve(np.array([0.0]), np.array([1.5]))


@settings(max_examples=25, deadline=None)
@given(t=st.floats(0.0, 6.0))
def test_tau_tic_curve_values_in_range(t):
    v = tau_tic(0.3, 0.1, 1.0, t)
    assert 0.0 <= v <= 1.0


def test_curve_builders_and_csv():
    grid = np.linspace(0.0, 4.0, 9)
    tic = tau_tic_curve(0.3, 0.1, 1.0, grid)
    smf = tau_smf2_curve(0.3, 0.1, 1.0, grid)
    assert np.all(smf.coverage >= tic.coverage)


def smf2_per_threshold(lam, sigma_sq, mu, t, with_interference=False, alpha=4.0, base=2.0):
    """Reference tau_smf2: one nested scalar quad per threshold, outer error gated."""
    config = QuadratureConfig()
    g = gamma_threshold(t, base)
    if g <= 0:
        return 1.0
    q = lam * np.pi
    c = mu * g
    zmax = config.trunc_radius(lam)
    two_pi_lam = 2.0 * np.pi * lam

    def F(x, excl):
        out = np.exp(-c * sigma_sq * x)
        if with_interference:
            out *= np.exp(-two_pi_lam * _laplace_exponent_integral(g * x, excl, alpha))
        return out

    def bracket(z1, z2):
        x1 = z1**alpha
        x2 = z2**alpha
        if abs(x2 - x1) < 1e-6 * x2:
            x = 0.5 * (x1 + x2)
            h = 1e-5 * x
            dF = (F(x + h, z2) - F(x - h, z2)) / (2.0 * h)
            return F(x, z2) - x * dF
        return (x2 * F(x1, z2) - x1 * F(x2, z2)) / (x2 - x1)

    def inner(z1):
        return quad(lambda z2: z2 * np.exp(-q * z2 * z2) * bracket(z1, z2),
                    z1, zmax, epsabs=1e-14, epsrel=config.rel_tol, limit=200)[0]

    val, err = quad(lambda z1: z1 * inner(z1), 0.0, zmax,
                    epsabs=1e-13, epsrel=config.rel_tol, limit=200)
    val = _check_quad(val, err, config, "tau_smf2") * two_pi_lam**2
    return float(np.clip(val, 0.0, 1.0))


@pytest.mark.parametrize("alpha, with_interference, lam, sigma_sq, thresholds", [
    pytest.param(4.0, False, 0.3, 0.1, (0.0, 0.5, 1.5, 3.0, 4.5, 6.0), id="4.0-False-thresholds0"),
    pytest.param(4.0, True, 0.3, 0.1, (0.0, 0.5, 1.5, 3.0, 4.5, 6.0), id="4.0-True-thresholds1"),
    pytest.param(3.0, False, 0.3, 0.1, (0.5, 1.5, 3.0, 4.5, 6.0), id="3.0-False-thresholds2"),
    # generic-alpha Laplace exponent
    pytest.param(3.0, True, 0.3, 0.1, (0.2, 0.4, 0.6, 0.8, 1.0), id="3.0-True-thresholds3"),
    pytest.param(5.0, False, 0.3, 0.1, (0.5, 1.5, 3.0, 4.5, 6.0), id="5.0-False"),
    pytest.param(5.0, True, 0.3, 0.1, (0.5, 1.5, 3.0), id="5.0-True"),
    pytest.param(4.0, False, 0.1, 10**0.6, (0.2, 0.5, 1.0, 2.0), id="lam0.1-minus6dB"),
    pytest.param(4.0, True, 0.3, 1e-3, (0.5, 2.0, 5.0, 8.0), id="lam0.3-30dB-True"),
    # the top of the crossval grid at 10 dB (it reaches t = 27.8), coverage ~1e-4
    pytest.param(4.0, False, 0.3, 0.1, (20.0, 27.0), id="tail-False"),
    pytest.param(4.0, True, 0.3, 0.1, (20.0, 27.0), id="tail-True"),
])
def test_tau_smf2_curve_matches_per_threshold_quad(alpha, with_interference, lam, sigma_sq,
                                                   thresholds):
    grid = np.array(thresholds)
    curve = tau_smf2_curve(lam, sigma_sq, 1.0, grid, with_interference, alpha=alpha)
    ref = [smf2_per_threshold(lam, sigma_sq, 1.0, t, with_interference, alpha) for t in grid]
    assert np.max(np.abs(curve.coverage - ref)) < 1e-8
    assert np.all(curve.coverage[grid == 0.0] == 1.0)


def test_quadrature_gate_is_per_threshold():
    # a max-norm gate would pass the tail entry: 5e-11 is far below 1e-6 * 1.0
    cfg = QuadratureConfig()
    _check_quad(np.array([1.0, 1e-5]), np.array([5e-7, 5e-12]), cfg, "ok")
    with pytest.raises(NumericalError):
        _check_quad(np.array([1.0, 1e-5]), np.array([5e-7, 5e-11]), cfg, "tail")


def test_tau_smf2_curve_raises_on_over_tolerance_error(monkeypatch):
    real = analytic.quad_vec

    def over_tolerance(f, a, b, **kw):
        val, err = real(f, a, b, **kw)
        return val, max(err, 1e-3)

    monkeypatch.setattr(analytic, "quad_vec", over_tolerance)
    with pytest.raises(NumericalError):
        tau_smf2_curve(0.3, 0.1, 1.0, np.array([0.5, 2.0]))
    with pytest.raises(NumericalError):
        tau_smf2(0.3, 0.1, 1.0, 2.0, with_interference=True)


def test_tau_smf2_curve_gates_inner_rule_error(monkeypatch):
    # a 4-node low-order rule leaves |I_high - I_low| far above the tolerance;
    # the outer quad_vec error alone would pass
    monkeypatch.setattr(analytic, "INNER_RULE_NODES", (4, 64))
    with pytest.raises(NumericalError):
        tau_smf2_curve(0.3, 0.1, 1.0, np.array([0.5, 2.0]))
    with pytest.raises(NumericalError):
        tau_smf2(0.3, 0.1, 1.0, 2.0, with_interference=True)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import block_diag
from scipy.special import erfcx, hyp2f1

from cloudradio import (NumericalError, analytic, cli, gamma_threshold, tau_smf2_curve,
                        tau_tic_curve)
from cloudradio.analytic import (REL_TOL, _check_quad, _laplace_exponent_integral,
                                 _tic_quadrature, tau_smf2, tau_tic, trunc_radius)
from cloudradio.channel import sigma_sq_from_snr_db


def test_trunc_radius_tail_mass():
    assert np.exp(-np.pi * 0.3 * trunc_radius(0.3) ** 2) <= 1e-12 * 1.0001


def test_gamma_threshold_bases():
    assert gamma_threshold(0.0) == 0.0
    assert gamma_threshold(1.0) == pytest.approx(1.0)


def test_tau_tic_zero_threshold():
    assert tau_tic(0.3, 0.1, 0.0) == 1.0


def test_tau_tic_noiseless_limit():
    assert tau_tic(0.3, 1e-12, 2.0) > 0.999999


def test_tau_tic_harmonic_closed_form():
    # alpha = 2 at t = 1 nat: lam*pi / (lam*pi + (e-1)*sigma^2).  A nat is
    # 1/ln 2 bits, and 2**(1/ln 2) - 1 is the double e - 1, so the curve in
    # bits gives the natural-log value to the last bit
    nat = 1.0 / math.log(2.0)
    assert gamma_threshold(nat) == math.e - 1.0
    got = tau_tic(0.3, 0.1, nat, alpha=2.0)
    assert tau_tic_curve(0.3, 0.1, [nat], alpha=2.0)[0] == got == 0.8457980248728412
    q = 0.3 * np.pi
    assert got == pytest.approx(q / (q + (np.e - 1.0) * 0.1), rel=1e-9)
    assert got == pytest.approx(0.8458, abs=2e-4)


def test_tau_tic_alpha4_matches_quadrature_oracle():
    # direct Simpson evaluation of the same integrand, independent of QUADPACK
    lam, s2, t = 0.3, 0.1, 1.7
    c = gamma_threshold(t) * s2
    q = lam * np.pi
    z = np.linspace(0.0, 9.0, 20001)
    f = 2 * q * z * np.exp(-q * z * z - c * z**4)
    oracle = np.trapezoid(f, z)
    assert tau_tic(lam, s2, t) == pytest.approx(oracle, rel=1e-5)


def tic_closed_form_gap(lam, sigma_sq, thresholds, alpha):
    """Worst |closed form - quadrature| of tau_tic_curve, as a share of quad's gate.

    Both curves are 2*pi*lam times an integral I; the gate bounds the error of
    I by max(REL_TOL*|I|, 1e-13).  Thresholds t > 0 only.
    """
    two_pi_lam = 2 * np.pi * lam
    closed = tau_tic_curve(lam, sigma_sq, thresholds, alpha=alpha) / two_pi_lam
    integral = _tic_quadrature(lam, sigma_sq, gamma_threshold(np.asarray(thresholds)),
                               alpha) / two_pi_lam
    return np.max(np.abs(closed - integral) / np.maximum(REL_TOL * np.abs(integral), 1e-13))


@pytest.mark.parametrize("sigma_sq, t", [(0.1, 1.0), (0.1, 27.0), (0.1, 40.0), (0.1, 48.0),
                                         (1e-3, 45.0), (1e-3, 50.0),
                                         (0.1, 16.351901503154576), (0.1, 20.488837707931733)])
def test_tau_tic_deep_tail_returns_closed_form(sigma_sq, t):
    # the quadrature must find the integrand's peak near
    # z = (gamma*sigma^2)**(-1/4), far inside the PPP scale at deep thresholds;
    # at t = 16.35 and 20.49 a quad without breaks under-reported its error
    # and disagreed with the correct closed form
    q = 0.3 * np.pi
    c = gamma_threshold(t) * sigma_sq
    closed = q * np.sqrt(np.pi / (4.0 * c)) * math.exp(q * q / (4.0 * c)) * math.erfc(
        q / (2.0 * np.sqrt(c)))
    assert tau_tic(0.3, sigma_sq, t) == pytest.approx(closed, rel=1e-12)
    for alpha in (2.0, 4.0):
        assert tic_closed_form_gap(0.3, sigma_sq, [t], alpha) <= 1.0


@pytest.mark.parametrize("lam", [7.5e-4, 0.3, 7.5])
@pytest.mark.parametrize("alpha", [2.0, 4.0])
def test_tau_tic_closed_forms_match_quadrature(alpha, lam):
    # the closed form is the curve; the quadrature, which other alpha take,
    # must agree with it within its own gate from -300 to +200 dB.  The bound
    # is that gate: 1e-6 of the coverage with a 1e-18 floor fails 63 to 126
    # thresholds of this grid at -200 and -300 dB (alpha 4, lam 0.3 and 7.5)
    grid = np.linspace(0.0, 48.0, 241)[1:]
    gaps = [tic_closed_form_gap(lam, sigma_sq_from_snr_db(snr), grid, alpha)
            for snr in range(-300, 201, 20)]
    assert max(gaps) <= 1.0, gaps


def test_erfcx_matches_scipy():
    # both branches and the switch between them; a RuntimeWarning fails the test
    x = np.logspace(-8.0, 8.0, 20001)
    assert np.max(np.abs(analytic.erfcx(x) / erfcx(x) - 1.0)) < 1e-13
    assert analytic.erfcx(np.array([0.0, np.inf])).tolist() == [1.0, 0.0]


@pytest.mark.parametrize("argv", [["--snr-db", "-40"], ["--snr-db", "200"],
                                  ["--lambda-b", "50", "--snr-db", "10"], ["--snr-db=-300"]])
def test_crossvalidate_extremes_exit_0(argv, capsys):
    # the alpha = 4 closed form's erfcx argument spans its two branches and
    # the switch: near 0 at -40 dB, large at 200 dB and at lambda_b = 50.  At
    # -300 dB coverage is near 1e-14, below what a 1e-6 relative comparison
    # with quadrature can hold
    assert cli.main(["crossvalidate", "--schemes", "tic,smf2,smf2-interf", *argv,
                     "--samples", "2000", "--seed", "3"]) == 0


def test_crossvalidate_at_alpha_20_exits_3_naming_the_non_finite_integrand(tmp_path, capsys):
    # deep in the u range z1**20 and z2**20 underflow to 0 and the smf2
    # integrand divides 0 by 0: the command exits 3 with a message that says
    # so, and numpy warns of nothing (a RuntimeWarning fails the test)
    cfg = tmp_path / "alpha20.cfg"
    cfg.write_text("alpha = 20\n")
    assert cli.main(["crossvalidate", "--config", str(cfg), "--schemes", "tic,smf2,smf2-interf",
                     "--snr-db", "10", "--samples", "2000", "--seed", "5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: tau_smf2 quadrature: the integrand or its error"
                          " estimate is not finite at threshold "), err
    assert "Warning" not in err and len(err.splitlines()) == 1


def test_tau_tic_generic_alpha_deep_tail_matches_log_grid_oracle():
    # alpha = 3 has no closed form: trapezoid over a dense ln z grid at a
    # threshold whose peak sits near z = 0.02 km, beside the PPP scale of 1.8 km
    lam, s2, t, alpha = 0.1, 10**0.6, 22.355833333333333, 3.0
    q = lam * np.pi
    c = gamma_threshold(t) * s2
    u = np.linspace(-40.0, np.log(trunc_radius(lam)), 20001)
    oracle = np.trapezoid(2 * q * np.exp(2 * u - q * np.exp(2 * u) - c * np.exp(alpha * u)), u)
    assert oracle == pytest.approx(3.68295e-6, rel=1e-5)
    assert tau_tic(lam, s2, t, alpha=alpha) == pytest.approx(oracle, rel=1e-8)


def test_tau_tic_monotone_in_threshold_and_noise():
    taus = [tau_tic(0.3, 0.1, t) for t in (0.5, 1.0, 2.0, 4.0)]
    assert np.all(np.diff(taus) < 0)
    assert tau_tic(0.3, 0.2, 1.0) < tau_tic(0.3, 0.1, 1.0)


def test_tau_tic_parameter_errors():
    with pytest.raises(ValueError):
        tau_tic(0.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        tau_tic(0.3, 0.0, 1.0)


def laplace_ir(z, t, lam, alpha=4.0):
    """Laplace transform of the interference beyond z, at s = gamma*z**alpha.

    E[exp(-s I_r)] over PPP interferer positions (all farther than z) and
    unit-mean exponential fades:
        exp(-2*pi*lam * integral_z^inf gamma*v / (gamma + (v/z)**alpha) dv),
    the factor the smf2 curve applies per branch.
    """
    A = gamma_threshold(t) * z**alpha
    return float(np.exp(-2.0 * np.pi * lam * _laplace_exponent_integral(A, z, alpha)))


def test_laplace_trivial_cases():
    assert laplace_ir(1.0, 0.0, 0.3) == 1.0
    assert laplace_ir(1.0, 1.0, 0.0) == 1.0
    val = laplace_ir(1.0, 1.0, 0.3)
    assert 0.0 < val < 1.0


def laplace_exponent_quad(A, excl, alpha):
    """Reference Laplace exponent: log-space quad up to V plus the tail bound.

    The tail beyond V is A * V**(2-alpha)/(alpha-2), with its own error O(A^2).
    """
    V = max(excl, (A / ((alpha - 2.0) * 1e-9)) ** (1.0 / (alpha - 2.0)))
    val, err = quad(lambda w: A * math.exp(2.0 * w) / (A + math.exp(alpha * w)),
                    math.log(excl), math.log(V),
                    epsabs=1e-13, epsrel=REL_TOL, limit=200)
    tail = A * V ** (2.0 - alpha) / (alpha - 2.0)
    return _check_quad(val, err, "laplace exponent") + tail


def test_laplace_alpha4_closed_form_vs_quadrature():
    # the series next to alpha = 4 must reduce to the arctan form
    for A, excl in [(1.0, 1.0), (5.0, 2.0), (0.3, 0.5)]:
        closed = _laplace_exponent_integral(A, excl, 4.0)
        generic = _laplace_exponent_integral(A, excl, 4.0 + 1e-12)
        assert closed == pytest.approx(generic, rel=1e-10)
        assert closed == pytest.approx(laplace_exponent_quad(A, excl, 4.0), rel=1e-6)


def test_laplace_alpha4_matches_mpmath_across_ratios():
    # integral_excl^inf v*A/(A + v**4) dv = (sqrt(A)/2)*(pi/2 - arctan(excl**2/sqrt(A)))
    # at 50 digits, against the module's (sqrt(A)/2)*arctan(sqrt(A)/excl**2),
    # which does not cancel when sqrt(A) << excl**2.  Rounding, u = 2**-53:
    # sqrt, excl**2 and the quotient put at most 3u on arctan's argument y,
    # which arctan passes on times y/((1 + y**2)*arctan(y)) <= 1; arctan adds
    # at most 2u, sqrt(A)/2 and the last product u each: 7u < 4*eps.  The
    # pi/2 - arctan form erred by 8.3e-8 at A = 1e-20, excl = 1 and returned
    # 0 at A = 1e-30, excl = 1e3.  Measured: at most 2.8e-16
    import mpmath
    cases = [(r * e**4, e) for e in (1e-3, 1.0, 1e3) for r in np.logspace(-30.0, 30.0, 61)]
    cases += [(1e-20, 1.0), (1e-12, 1.0), (1e-30, 1e3)]
    worst = 0.0
    with mpmath.workdps(50):
        for A, excl in cases:
            s = mpmath.sqrt(mpmath.mpf(A))
            ref = s / 2 * (mpmath.pi / 2 - mpmath.atan(mpmath.mpf(excl)**2 / s))
            got = _laplace_exponent_integral(np.array([A]), excl, 4.0)[0]
            worst = max(worst, float(abs(mpmath.mpf(float(got)) / ref - 1)))
    assert worst < 4 * np.finfo(float).eps


@pytest.mark.parametrize("alpha", [2.5, 3.0, 3.5, 5.0, 6.0])
def test_laplace_generic_alpha_closed_form_vs_quadrature(alpha):
    # the series, one vector call, against one quad per element
    A = np.logspace(-6.0, 6.0, 25)
    for excl in (0.05, 1.0, 3.0):
        closed = _laplace_exponent_integral(A, excl, alpha)
        ref = np.array([laplace_exponent_quad(a, excl, alpha) for a in A])
        assert closed.shape == A.shape
        assert np.max(np.abs(closed / ref - 1.0)) < 1e-6


def laplace_exponent_hyp2f1(A, excl, alpha):
    """The Laplace exponent as excl**2 * b/(alpha-2) * 2F1(1, 1-2/alpha; 2-2/alpha; -b), b =
    A/excl**alpha, from scipy's hyp2f1: an oracle independent of the module's series."""
    b = A / excl**alpha
    return excl**2 * b / (alpha - 2.0) * hyp2f1(1.0, 1.0 - 2.0 / alpha, 2.0 - 2.0 / alpha, -b)


def laplace_series_bound(b, alpha):
    """The relative error bound _laplace_exponent_integral's docstring argues at excl = 1:
    23u for b <= 2, kappa (19 + delta |ln b|) u above, kappa = W/f, u = 2**-53."""
    delta = 2.0 / alpha
    whole = np.pi * b**delta / (alpha * np.sin(np.pi * min(delta, 1.0 - delta)))
    kappa = whole / laplace_exponent_hyp2f1(b, 1.0, alpha)
    return np.where(b <= 2.0, 23.0, kappa * (19.0 + delta * np.abs(np.log(b)))) * 2.0**-53


@pytest.mark.parametrize("alpha", [2.05, 2.5, 3.0, 3.5, 5.0, 6.0, 8.0, 12.0])
def test_laplace_series_matches_hyp2f1_within_its_bound(alpha):
    # both series over 24 decades, with the split b = 2 and the float above it.
    # The bound holds the series' own error; hyp2f1's is added here, and the
    # worst point reads 0.74 of the bound (alpha 2.5, b = 1.39)
    b = np.concatenate([np.logspace(-12.0, 12.0, 20001), [2.0, np.nextafter(2.0, 3.0)]])
    err = np.abs(_laplace_exponent_integral(b, 1.0, alpha) / laplace_exponent_hyp2f1(b, 1.0, alpha)
                 - 1.0)
    assert np.all(err <= laplace_series_bound(b, alpha))


@pytest.mark.parametrize("alpha", [2.5, 3.0, 3.5, 5.0, 6.0])
def test_laplace_series_matches_mpmath_quadrature(alpha):
    # f(b) = integral_1^inf w b/(b + w**alpha) dw at 40 digits, with a break
    # where w**alpha passes b; the series must hold its bound against it
    import mpmath
    b = np.array([1e-6, 0.1, 1.0, 2.0, 2.5, 100.0, 1e6])
    got = _laplace_exponent_integral(b, 1.0, alpha)
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        for bi, value, bound in zip(b, got, laplace_series_bound(b, alpha)):
            B = mpmath.mpf(bi)
            ref = mpmath.quad(lambda w: w * B / (B + w**a), [1, 1 + B ** (1 / a), mpmath.inf])
            assert abs(mpmath.mpf(value) / ref - 1) <= bound, bi


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 5.0, 6.0])
def test_laplace_exponent_scales_out_of_the_exclusion_radius(alpha):
    # with the exclusion radius at the hazard distance, b = A / z**alpha = g
    # whatever z: the smf2 second branch computes its exponent as z**2 * psi(g).
    # g reaches 1e9, past the crossval grid's top, 2**27.8 - 1 = 2.3e8
    g = np.logspace(-6.0, 9.0, 61)
    psi = _laplace_exponent_integral(g, 1.0, alpha)
    for z in np.logspace(-4.0, 2.0, 25):
        direct = _laplace_exponent_integral(g * z**alpha, z, alpha)
        assert np.max(np.abs(direct / (z**2 * psi) - 1.0)) < 1e-13, z


def test_laplace_monte_carlo_oracle(rng):
    # E[exp(-gamma I_r)] over PPP draws beyond z = 1, gamma = 1 (t = 1 bps/Hz).
    # The draws stop at R and add the mean of the field beyond it, which by the
    # bound in harness.tagged_rate_samples raises E exp(-s I_r) by at most
    # e^-y (e^(rho y**2) - 1), y = s * tail, rho = (alpha-2)**2 / (4 (alpha-1)
    # lam pi R**2).  At s = 1 and R = 4 km (y = 0.059, rho = 0.022) that is
    # 7.2e-5, 1.5% of the 1% tolerance (0.0048), with 14 BSs a sample
    lam, alpha, z = 0.3, 4.0, 1.0
    R = 4.0
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
    assert tau_smf2(0.3, 0.1, 0.0) == 1.0


def test_nan_threshold_raises():
    # a NaN used to take the gamma <= 0 branch and come back as coverage 1
    nan = float("nan")
    for call in (lambda: tau_tic(0.3, 0.1, nan),
                 lambda: tau_smf2(0.3, 0.1, nan),
                 lambda: tau_smf2(0.3, 0.1, nan, with_interference=True)):
        with pytest.raises(ValueError, match="threshold 0 of 1 is NaN"):
            call()
    grid = [0.0, 0.5, nan, 2.0]
    with pytest.raises(ValueError, match="threshold 2 of 4 is NaN"):
        tau_tic_curve(0.3, 0.1, grid)
    with pytest.raises(ValueError, match="threshold 2 of 4 is NaN"):
        tau_smf2_curve(0.3, 0.1, grid)


def test_tau_smf2_dominates_tau_tic():
    for t in (0.5, 1.0, 2.0, 4.0):
        assert tau_smf2(0.3, 0.1, t) > tau_tic(0.3, 0.1, t)


def test_tau_smf2_interference_reduces_coverage():
    for t in (0.5, 2.0):
        assert (tau_smf2(0.3, 0.1, t, with_interference=True)
                < tau_smf2(0.3, 0.1, t))


def test_tau_smf2_monte_carlo_oracle(rng):
    # scheme-matched two-branch combining of the nearest BSs, 2e4 draws
    from cloudradio import tagged_rate_samples

    lam, s2 = 0.3, 0.1
    samples = tagged_rate_samples(("smf2",), 20000, lam, s2, 4.0, rng)["smf2"]
    for t in (0.5, 1.5, 3.0):
        emp = np.mean(samples > t)
        assert abs(emp - tau_smf2(lam, s2, t)) < 0.02


def test_coverage_check_raises_numerical_error(monkeypatch):
    # every curve goes through one check: coverage in [0, 1], not increasing
    # with the threshold; at alpha = 3 tau_tic returns 2*pi*lam times quad's
    # integral and tau_smf2 returns (2*pi*lam)**2 times it
    assert np.all(np.diff(tau_tic_curve(0.3, 0.1, [2.0, 1.0])) > 0)  # descending grid
    two_pi_lam = 2 * np.pi * 0.3
    for curve, per_integral in ((tau_tic_curve, two_pi_lam), (tau_smf2_curve, two_pi_lam**2)):
        monkeypatch.setattr(analytic, "quad",
                            lambda hi, outer, m, what: np.array([0.5, 0.9]) / per_integral)
        with pytest.raises(NumericalError, match="increase"):
            curve(0.3, 0.1, [0.5, 1.0], alpha=3.0)
    monkeypatch.setattr(analytic, "quad", lambda hi, outer, m, what: np.array([1.5 / two_pi_lam]))
    with pytest.raises(NumericalError, match="must lie in"):
        tau_tic(0.3, 0.1, 1.0, alpha=3.0)


def test_each_curve_is_one_quad_call(monkeypatch):
    # analytic.quad is the one outer integrator; the benchmark tracer counts its
    # calls.  The alpha = 4 TIC curve is its closed form and makes none
    calls = []
    real = analytic.quad
    monkeypatch.setattr(analytic, "quad", lambda *a: calls.append(a[2:]) or real(*a))
    grid = np.linspace(0.0, 27.8, 25)
    tau_tic_curve(0.3, 0.1, grid, alpha=3.0)
    tau_tic_curve(0.3, 0.1, grid)
    tau_smf2_curve(0.3, 0.1, grid)
    tau_smf2_curve(0.3, 0.1, grid, True)
    assert calls == [(24, "tau_tic")] + [(24, "tau_smf2")] * 2


def test_tau_tic_alpha3_found_threshold_matches_mpmath(monkeypatch):
    # alpha = 3 has no closed form to check the integral against.  At this
    # point of a crossvalidate grid (seed 5, 10 dB) one scalar quad per
    # threshold returned 0.00054139752 with a reported abserr of 2.4e-12,
    # 160 times below its true error of 3.9e-10
    import mpmath

    lam, s2, t, alpha = 0.3, 0.1, 19.247991078150044, 3.0
    reported = []
    real = analytic._check_quad

    def recording_check(value, abserr, what):
        reported.append(abserr)
        return real(value, abserr, what)

    monkeypatch.setattr(analytic, "_check_quad", recording_check)
    got = tau_tic(lam, s2, t, alpha=alpha)
    with mpmath.workdps(30):
        q = mpmath.pi * lam
        c = mpmath.mpf(float(gamma_threshold(t))) * s2
        hi = mpmath.log(trunc_radius(lam))
        ref = 2 * q * mpmath.quad(
            lambda u: mpmath.exp(2 * u - q * mpmath.exp(2 * u) - c * mpmath.exp(alpha * u)),
            [hi - 40, hi - 16, hi - 8, hi - 4, hi - 2, hi - 1, hi])
        ref = float(ref)
    (err,) = reported
    assert ref == pytest.approx(0.000541397909099703, rel=1e-14)
    assert abs(got - ref) <= 2 * np.pi * lam * err[0]
    assert abs(got - ref) < 1e-12 * ref


@pytest.mark.parametrize("alpha", [3.0, 5.0])
def test_tau_tic_curve_matches_tight_scalar_quad(alpha):
    # the vector pass over the crossval grid against one scalar quad per
    # threshold at epsrel 1e-13, from the same breaks: measured at most
    # 1.9e-15 relative (alpha 3) and 5.8e-14 (alpha 5); one quad per threshold
    # at epsrel 1e-6 was off by more than 1e-12 (2.1e-12 at alpha 3, t = 14.0)
    lam, s2 = 0.3, 0.1
    grid = np.linspace(0.0, 27.8, 241)
    curve = tau_tic_curve(lam, s2, grid, alpha=alpha)
    q = lam * np.pi
    hi = np.log(trunc_radius(lam))
    for t, got in zip(grid[1:], curve[1:]):
        c = gamma_threshold(t) * s2

        def f(u):
            return 2 * q * math.exp(2 * u - q * math.exp(2 * u) - c * math.exp(alpha * u))

        ref = quad(f, hi - 40.0, hi, epsabs=0.0, epsrel=1e-13, limit=500,
                   points=[hi - b for b in analytic.OUTER_BREAKS])[0]
        assert abs(got - ref) < 1e-12 * ref, t


@pytest.mark.parametrize("curve", [tau_tic_curve, tau_smf2_curve])
@pytest.mark.parametrize("name", ["lam", "sigma_sq"])
def test_curve_parameters_must_be_finite_and_positive(curve, name):
    # a NaN lam used to fail `lam <= 0` and give tau_tic_curve [0.]
    for bad in (float("nan"), math.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match=name):
            curve(**{**dict(lam=0.3, sigma_sq=0.1), name: bad}, thresholds=[1.0])


def test_curve_alpha_must_be_finite():
    # alpha = NaN used to return [1.] after an IntegrationWarning
    for alpha in (float("nan"), math.inf, -math.inf):
        with pytest.raises(ValueError, match="alpha"):
            tau_tic_curve(0.3, 0.1, [1.0], alpha=alpha)
        for interf in (False, True):
            with pytest.raises(ValueError, match="alpha"):
                tau_smf2_curve(0.3, 0.1, [1.0], interf, alpha=alpha)


def test_interference_needs_alpha_above_two():
    # alpha = 2 raised a divide-by-zero RuntimeWarning, alpha = 1.5 a
    # NumericalError: the interference field is infinite for alpha <= 2
    for alpha in (2.0, 1.5):
        with pytest.raises(ValueError, match="alpha must lie in"):
            tau_smf2_curve(0.3, 0.1, [1.0], True, alpha=alpha)


@settings(max_examples=25, deadline=None)
@given(t=st.floats(0.0, 6.0))
def test_tau_tic_curve_values_in_range(t):
    v = tau_tic(0.3, 0.1, t)
    assert 0.0 <= v <= 1.0


def test_curve_builders_and_csv():
    grid = np.linspace(0.0, 4.0, 9)
    tic = tau_tic_curve(0.3, 0.1, grid)
    smf = tau_smf2_curve(0.3, 0.1, grid)
    assert np.all(smf >= tic)


def smf2_per_threshold(lam, sigma_sq, t, with_interference=False, alpha=4.0):
    """Reference tau_smf2: one nested scalar quad per threshold, outer error gated.

    The outer quad runs over u = ln z1, so it finds the integrand's peak at a
    deep threshold, where it sits far inside the PPP scale.  The Laplace
    exponent is scipy's hyp2f1 form, at alpha = 4 its reduction
    (sqrt(A)/2) arctan(sqrt(A)/excl**2), so the reference shares no code with
    analytic's series.  The integrands are scalar math on floats, so each of
    the nested quad's calls stays cheap.
    """
    g = float(gamma_threshold(t))
    if g <= 0:
        return 1.0
    q = lam * math.pi
    zmax = trunc_radius(lam)
    two_pi_lam = 2.0 * math.pi * lam

    def exponent(A, excl):
        if alpha == 4.0:
            return 0.5 * math.sqrt(A) * math.atan(math.sqrt(A) / (excl * excl))
        return float(laplace_exponent_hyp2f1(A, excl, alpha))

    def F(x, excl):
        out = math.exp(-g * sigma_sq * x)
        if with_interference:
            out *= math.exp(-two_pi_lam * exponent(g * x, excl))
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
        return quad(lambda z2: z2 * math.exp(-q * z2 * z2) * bracket(z1, z2),
                    z1, zmax, epsabs=1e-14, epsrel=REL_TOL, limit=200)[0]

    hi = math.log(zmax)
    val, err = quad(lambda u: math.exp(2.0 * u) * inner(math.exp(u)), hi - 40.0, hi,
                    epsabs=1e-13, epsrel=REL_TOL, limit=200)
    val = _check_quad(val, err, "tau_smf2") * two_pi_lam**2
    return float(np.clip(val, 0.0, 1.0))


SMF2_ROWS = [
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
    # I < 1e-7, where the gate's absolute floor of 1e-13 binds
    pytest.param(4.0, False, 0.3, 0.1, (48.0,), id="deep-False"),
    pytest.param(4.0, True, 0.3, 0.1, (48.0,), id="deep-True"),
]


@pytest.mark.parametrize("alpha, with_interference, lam, sigma_sq, thresholds", SMF2_ROWS)
def test_tau_smf2_curve_matches_per_threshold_quad(alpha, with_interference, lam, sigma_sq,
                                                   thresholds):
    grid = np.array(thresholds)
    curve = tau_smf2_curve(lam, sigma_sq, grid, with_interference, alpha=alpha)
    ref = [smf2_per_threshold(lam, sigma_sq, t, with_interference, alpha) for t in grid]
    assert np.max(np.abs(curve - ref)) < 1e-8
    assert np.all(curve[grid == 0.0] == 1.0)
    assert np.all(curve > 0.0)


def smf2_coverage_per_request(lam, sigma_sq, g, with_interference, alpha):
    """Reference analytic._smf2_coverage: every node computed at every request.

    The same analytic.quad, inner rules and gate, with each branch's noise
    and Laplace factors as two exponentials and the second branch's Laplace
    exponent evaluated over the whole (nodes x thresholds) array.
    """
    q = lam * np.pi
    hi = math.log(trunc_radius(lam))
    two_pi_lam = 2.0 * np.pi * lam
    low, high = (np.polynomial.legendre.leggauss(n) for n in analytic.INNER_RULE_NODES)
    nodes = 0.5 * (np.concatenate([high[0], low[0]]) + 1.0)[:, None]
    weights = 0.5 * block_diag(high[1], low[1])

    def F(x, excl):
        out = np.exp(-g * sigma_sq * x)
        if with_interference:
            out = out * np.exp(-two_pi_lam * _laplace_exponent_integral(g * x, excl, alpha))
        return out

    def bracket(z1, z2):
        x1 = z1**alpha
        x2 = z2**alpha
        near = (x2 - x1 < 1e-6 * x2)[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (x2 * F(x1, z2) - x1 * F(x2, z2)) / (x2 - x1)
        if near.any():
            x = 0.5 * (x1 + x2[near])
            h = 1e-5 * x
            e = z2[near]
            out[near] = F(x, e) - x * ((F(x + h, e) - F(x - h, e)) / (2.0 * h))
        return out

    def outer(u):
        z1 = math.exp(u)
        L = hi - u
        z2 = z1 * np.exp(L * nodes)
        f = z2 * z2 * np.exp(-q * z2 * z2) * bracket(z1, z2)
        return z1 * z1 * L * (weights @ f)

    return np.clip(analytic.quad(hi, outer, g.size, "tau_smf2") * two_pi_lam**2, 0.0, 1.0)


# u = 2**-53.  Each rule row above sums 64 (or 32) products w*f, f > 0; the
# fold sums the two branches' terms w*c*x2*F1 and w*c*x1*F2 apart and
# subtracts.  A sum of n terms errs by at most (n - 1)*u times the sum of
# |terms|, and over SMF2_ROWS' curves the two branch sums total at most
# kappa = 10 times the value (6.8 at alpha 4, 9.5 at alpha 3), so the sums
# differ by at most 2*64*kappa*u.  With interference the second branch's
# exponent E2 is z2**2 * psi here and the direct Laplace exponent there, each
# a few roundings from exact; 20*u*|E2| per term, whose weighted total is at
# most 2 times the value, adds 40*u.  Measured: at most 8.9e-16
SMF2_FOLD_RTOL = (2 * 64 * 10 + 20 * 2) * 2.0**-53


@pytest.mark.parametrize("alpha, with_interference, lam, sigma_sq, thresholds", SMF2_ROWS)
def test_tau_smf2_curve_matches_per_request_integrand(alpha, with_interference, lam, sigma_sq,
                                                      thresholds):
    # one evaluation per node, the hoisted second-branch exponent and the
    # divided difference folded into the rule weights change what a node
    # costs, not its value beyond rounding
    curve = tau_smf2_curve(lam, sigma_sq, thresholds, with_interference, alpha=alpha)
    ref = analytic._coverage(lam, sigma_sq, thresholds, alpha,
                             lambda g: smf2_coverage_per_request(lam, sigma_sq, g,
                                                                 with_interference, alpha),
                             with_interference)
    assert np.max(np.abs(curve - ref)) < 1e-13
    assert np.max(np.abs(curve / ref - 1.0)) < SMF2_FOLD_RTOL


@pytest.mark.parametrize("alpha", [3.0, 4.0])
def test_tau_smf2_curve_computes_each_outer_node_once(monkeypatch, alpha):
    # with interference, a node's work calls _laplace_exponent_integral once,
    # for the first branch; the second branch's exponent is one call per curve
    requested, work = [], []
    real_rule, real_exponent = analytic._qk21, analytic._laplace_exponent_integral

    def recording_rule(outer, a, b, m):
        return real_rule(lambda u: requested.append(u) or outer(u), a, b, m)

    def counting_exponent(*args):
        work.append(args)
        return real_exponent(*args)

    monkeypatch.setattr(analytic, "_qk21", recording_rule)
    monkeypatch.setattr(analytic, "_laplace_exponent_integral", counting_exponent)
    tau_smf2_curve(0.3, 0.1, np.linspace(0.0, 27.8, 241), True, alpha=alpha)
    assert len(requested) == len(set(requested))
    assert len(work) == 1 + len(requested)


@pytest.mark.parametrize("with_interference", [False, True])
def test_tau_smf2_removable_singularity_rows(monkeypatch, with_interference):
    # a break 1e-9 below ln zmax puts 21 outer nodes where z2 - z1 is so small
    # that every inner row takes the central-difference limit F(x) - x F'(x)
    lam, sigma_sq = 0.3, 1e-3
    grid = np.array([0.5, 1.5, 3.0, 6.0])
    default = tau_smf2_curve(lam, sigma_sq, grid, with_interference)
    integrands, requested = [], []
    real = analytic._qk21

    def capturing_rule(outer, a, b, m):
        integrands.append(outer)
        return real(lambda u: requested.append(u) or outer(u), a, b, m)

    monkeypatch.setattr(analytic, "_qk21", capturing_rule)
    monkeypatch.setattr(analytic, "OUTER_BREAKS", (1e-9,) + analytic.OUTER_BREAKS)
    curve = tau_smf2_curve(lam, sigma_sq, grid, with_interference)
    assert np.all(np.isfinite(curve))
    assert np.max(np.abs(curve - default)) < 1e-12
    hi = math.log(trunc_radius(lam))
    assert len({u for u in requested if hi - u < 1e-9}) == 21
    # the outer integrand per unit L = ln zmax - u is smooth across the
    # switch: its near-row value at L = 1e-9 and 1e-7 matches the straight
    # line through L = 1e-6 and 1e-5, where most rows take the divided
    # difference.  The residual, at most 4e-6, is the line's own error plus
    # the central difference's O(h**2)
    g = {L: integrands[0](hi - L) / L for L in (1e-9, 1e-7, 1e-6, 1e-5)}
    assert np.all(g[1e-9] > 0.0)
    slope = (g[1e-5] - g[1e-6]) / (1e-5 - 1e-6)
    for L in (1e-9, 1e-7):
        line = g[1e-6] - slope * (1e-6 - L)
        assert np.max(np.abs(g[L] / line - 1.0)) < 1e-5, L


def smf2_fold_magnitudes(lam, sigma_sq, g, with_interference, alpha, u):
    """Near-row count of the outer node u, and per rule row and threshold the
    sums over far rows of |w*c*x2*F1| + |w*c*x1*F2| and of |w*c*x1*F2*E2|,
    times z1**2 * L as in the integrand; E2 = log F2 is the second-branch
    exponent."""
    q, two_pi_lam = lam * np.pi, 2.0 * np.pi * lam
    hi = math.log(trunc_radius(lam))
    low, high = (np.polynomial.legendre.leggauss(n) for n in analytic.INNER_RULE_NODES)
    nodes = 0.5 * (np.concatenate([high[0], low[0]]) + 1.0)
    weights = 0.5 * block_diag(high[1], low[1])
    z1, L = math.exp(u), hi - u
    z2 = z1 * np.exp(L * nodes)
    x1, x2 = z1**alpha, z2**alpha
    near = x2 - x1 < 1e-6 * x2
    c = np.where(near, 0.0, z2 * z2 * np.exp(-q * z2 * z2) / np.where(near, 1.0, x2 - x1))
    e1, e2 = -g * sigma_sq * x1, -np.outer(x2, g * sigma_sq)
    if with_interference:
        e1 = e1 - two_pi_lam * _laplace_exponent_integral(g * x1, z2[:, None], alpha)
        e2 = e2 - np.outer(z2 * z2, two_pi_lam * _laplace_exponent_integral(g, 1.0, alpha))
    a, b = (c * x2)[:, None] * np.exp(e1), (c * x1)[:, None] * np.exp(e2)
    return near.sum(), z1 * z1 * L * (weights @ (a + b)), z1 * z1 * L * (weights @ (b * -e2))


@pytest.mark.parametrize("with_interference", [False, True])
def test_tau_smf2_partly_near_node_matches_per_request(monkeypatch, with_interference):
    # at L = ln zmax - u = 1e-4 three inner rows take the central-difference
    # limit and the others the divided difference folded into the weights.
    # There the two branch sums nearly cancel (their total is 3e3 to 2e4 times
    # the value), so the bound is the rounding argument of SMF2_FOLD_RTOL with the
    # node's own sums S and SE: two sums of at most 64 terms and at most 5
    # roundings per term on either side, (2*64 + 10)*u*S; the second-branch
    # exponents, 20*u*SE; and the near rows summed in another order, 64*u*|value|.
    # Measured: at most 1.0*u*S without interference and 155*u*S with
    lam, sigma_sq, alpha = 0.3, 1e-3, 4.0
    g = gamma_threshold(np.array([0.5, 1.5, 3.0, 6.0]))
    u = math.log(trunc_radius(lam)) - 1e-4
    integrands = []
    real = analytic._qk21

    def capturing_rule(outer, a, b, m):
        integrands.append(outer)
        return real(outer, a, b, m)

    monkeypatch.setattr(analytic, "_qk21", capturing_rule)
    analytic._smf2_coverage(lam, sigma_sq, g, with_interference, alpha)
    smf2_coverage_per_request(lam, sigma_sq, g, with_interference, alpha)
    folded, ref = integrands[0](u), integrands[-1](u)
    near, S, SE = smf2_fold_magnitudes(lam, sigma_sq, g, with_interference, alpha, u)
    assert 1 <= near <= 5
    assert np.all(ref > 0.0)
    bound = ((2 * 64 + 10) * S + 20 * SE + 64 * ref) * 2.0**-53
    assert np.all(np.abs(folded - ref) <= bound)


@pytest.mark.parametrize("with_interference", [False, True])
def test_tau_smf2_threshold_value_does_not_depend_on_grid(with_interference):
    # the outer pass must find a deep threshold's peak whatever else is on the grid
    full = tau_smf2_curve(0.3, 0.1, np.linspace(0.0, 48.0, 241), with_interference)[-1]
    assert full > 1e-8
    for grid in ([48.0], [0.0, 48.0], [1.0, 48.0], [27.0, 48.0]):
        got = tau_smf2_curve(0.3, 0.1, np.array(grid), with_interference)[-1]
        assert got == pytest.approx(full, rel=REL_TOL)
    assert tau_smf2(0.3, 0.1, 48.0, with_interference) == pytest.approx(full, rel=REL_TOL)


def test_quadrature_gate_is_per_threshold():
    # a max-norm gate would pass the tail entry: 5e-11 is far below 1e-6 * 1.0
    _check_quad(np.array([1.0, 1e-5]), np.array([5e-7, 5e-12]), "ok")
    with pytest.raises(NumericalError):
        _check_quad(np.array([1.0, 1e-5]), np.array([5e-7, 5e-11]), "tail")


def test_tau_smf2_curve_raises_on_over_tolerance_error(monkeypatch):
    # a rule whose every error is 1e-3 of rounding error, which no split can
    # reduce, stops the loop after its first round; the gate raises
    calls = []
    real = analytic._qk21

    def over_tolerance(outer, a, b, m):
        calls.append((a, b))
        val, err, _ = real(outer, a, b, m)
        err = np.maximum(err, 1e-3)
        return val, err, err

    monkeypatch.setattr(analytic, "_qk21", over_tolerance)
    with pytest.raises(NumericalError):
        tau_smf2_curve(0.3, 0.1, np.array([0.5, 2.0]))
    with pytest.raises(NumericalError):
        tau_smf2(0.3, 0.1, 2.0, with_interference=True)
    assert len(calls) == 2 * 8


def test_tau_smf2_curve_gates_inner_rule_error(monkeypatch):
    # a 4-node low-order rule leaves |I_high - I_low| far above the tolerance;
    # the outer error alone would pass
    monkeypatch.setattr(analytic, "INNER_RULE_NODES", (4, 64))
    with pytest.raises(NumericalError):
        tau_smf2_curve(0.3, 0.1, np.array([0.5, 2.0]))
    with pytest.raises(NumericalError):
        tau_smf2(0.3, 0.1, 2.0, with_interference=True)


CURVES = {
    "tic": lambda lam, sigma_sq, grid, alpha: tau_tic_curve(lam, sigma_sq, grid, alpha=alpha),
    "smf2": lambda lam, sigma_sq, grid, alpha: tau_smf2_curve(lam, sigma_sq, grid, alpha=alpha),
    "smf2-interf": lambda lam, sigma_sq, grid, alpha: tau_smf2_curve(lam, sigma_sq, grid,
                                                                     True, alpha=alpha),
}


def test_quad_limit_exit_fails_the_gate(monkeypatch):
    # a rule whose error never falls below 1e-3 halves intervals until there
    # are 200, 194 splits after the 6 intervals of the breaks; the gate then
    # raises on the unconverged error
    calls = []
    real = analytic._qk21

    def stuck(outer, a, b, m):
        calls.append((a, b))
        val, err, rnd = real(outer, a, b, m)
        return val, np.maximum(err, 1e-3), rnd

    monkeypatch.setattr(analytic, "_qk21", stuck)
    grid = np.linspace(0.0, 27.8, 25)
    for curve in ("tic", "smf2"):
        calls.clear()
        with pytest.raises(NumericalError, match="quadrature"):
            CURVES[curve](0.3, 0.1, grid, 3.0)
        assert len(calls) == 6 + 2 * 194


def test_quad_stops_on_a_nan_integrand_and_the_gate_raises(monkeypatch):
    # the integrand turns NaN half a unit below ln zmax: the six intervals of
    # the breaks give a non-finite error, the loop stops on them, and quad's
    # gate, which fails closed, raises on it
    hi = math.log(trunc_radius(0.3))
    calls = []
    real = analytic._qk21

    def nan_near_zmax(outer, a, b, m):
        calls.append((a, b))
        return real(lambda u: outer(u) * (math.nan if u > hi - 0.5 else 1.0), a, b, m)

    monkeypatch.setattr(analytic, "_qk21", nan_near_zmax)
    with pytest.raises(NumericalError, match="quadrature"):
        tau_tic_curve(0.3, 0.1, np.linspace(0.0, 27.8, 25), alpha=3.0)
    assert len(calls) == 6


def test_quadrature_gate_fails_on_a_nan_error(monkeypatch):
    # NaN > tol is False, so a gate that raised only where abserr > tol passed
    # a NaN error with a finite value
    with pytest.raises(NumericalError):
        _check_quad(np.array([0.5]), np.array([np.nan]), "x")
    real = analytic._qk21

    def nan_error(outer, a, b, m):
        val, err, rnd = real(outer, a, b, m)
        return val, err * math.nan, rnd

    monkeypatch.setattr(analytic, "_qk21", nan_error)
    grid = np.linspace(0.0, 27.8, 25)
    with pytest.raises(NumericalError, match="quadrature"):
        tau_tic_curve(0.3, 0.1, grid, alpha=3.0)
    with pytest.raises(NumericalError, match="quadrature"):
        tau_smf2_curve(0.3, 0.1, grid)


@pytest.mark.parametrize("alpha", [3.0, 4.0])
@pytest.mark.parametrize("curve", list(CURVES))
def test_curves_are_scale_invariant(curve, alpha):
    # z -> c*z maps the curve at (lam/c**2, sigma_sq*c**-alpha) onto the
    # unscaled one exactly, with every u node shifted by ln c, so the curves
    # differ by rounding alone.  Bound, fixed before measuring:
    # - every node lies in |u| < 64 and is placed by at most 16 roundings (the
    #   log, the edges, up to 14 bisections, c + h*x) of ulp(64)/2 = 7.1e-15,
    #   so it sits within du = 1.2e-13 of the shifted node;
    # - each outer integrand, times its (2*pi*lam)**k, is the density of
    #   u = ln z1, 2x*exp(-x) <= 2/e with x = pi*lam*z1**2, times a
    #   conditional coverage in [0, 1] that falls with z1: its total variation
    #   is at most 3 * 2/e = 2.2, so the node shift moves the curve by at most
    #   2.2 * du = 2.6e-13;
    # - lam/c**2 and sigma_sq*c**-alpha carry 2 roundings each, moving each
    #   exponent term by 4 eps of itself: under 1e-13 over the integrand's mass.
    # That is 4e-13; 1e-12 leaves room for the rule's own sums (21 eps).
    # Measured: 2.2e-16
    grid = np.linspace(0.0, 27.8, 25)
    unscaled = CURVES[curve](0.3, 0.1, grid, alpha)
    for c in (0.5, 2.0, 10.0):
        scaled = CURVES[curve](0.3 / c**2, 0.1 * c**-alpha, grid, alpha)
        assert np.max(np.abs(scaled - unscaled)) <= 1e-12, c

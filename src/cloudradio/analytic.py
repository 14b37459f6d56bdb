"""Coverage probability by quadrature over log-distance.

Closed forms and integrals for the probability tau(t) that a tagged user's
rate exceeds t, under total interference cancellation (single-branch) and
two-branch matched-filter combining, with an optional Laplace-transform
average over the uncancellable interference field.  Thresholds enter through
gamma(t) = base**t - 1 (base e gives natural-log rate units), fades are
exponential with mean 1/mu, and received power decays as z**(-alpha).

Both formulas integrate over the log of the nearest distance, u = ln z on
[ln zmax - LOG_SPAN, ln zmax] with zmax = trunc_radius(lam).  At a deep
threshold the integrand peaks near z = (mu*gamma*sigma**2)**(-1/alpha), far
inside the PPP scale (4e-4 km at t = 48 and 10 dB), where an adaptive rule
over z in [0, zmax] can step over it; one over u cannot.  The single-branch
integrand is 2*pi*lam * z**2 * exp(-pi*lam*z**2 - mu*gamma*sigma**2*z**alpha),
one quad per threshold that starts from the breaks OUTER_BREAKS below ln zmax;
at alpha = 2 (harmonic) and alpha = 4 (scaled erfcx) its closed form is
returned after a cross-check against that quad.  Without the breaks, quad
under-resolves the mass at a few thresholds and under-reports its error by a
factor of about 1e3, and the cross-check raises on a correct closed form.  A
two-branch curve is one scipy.integrate.quad_vec pass over u for the whole
grid, with the inner integral over the second-nearest distance a pair of
fixed Gauss-Legendre rules in ln(z2/z1); a coarse pass that sets each
threshold's error scale comes first, and each outer node is evaluated once
for both.  The interference Laplace exponent is closed form: an arctan at
alpha = 4, a Gauss hypergeometric otherwise.  Beyond the second-nearest BS
its argument is gamma whatever z2, so that branch's exponent is z2**2 times
one value per threshold, computed once per curve.

Every curve takes one checked path, _coverage: a NaN threshold raises
ValueError, a threshold with gamma <= 0 is covered with probability exactly
1, the formula runs on the others as one vector, and the result must lie in
[0, 1] and not increase with the threshold, or NumericalError is raised.
tau_tic and tau_smf2 are one-element calls of tau_tic_curve and
tau_smf2_curve.
"""

import math

import numpy as np
from scipy.integrate import quad, quad_vec
from scipy.linalg import block_diag
from scipy.special import erfcx, hyp2f1

from .numerics import NumericalError

__all__ = ["gamma_threshold", "laplace_ir", "tau_smf2", "tau_smf2_curve", "tau_tic",
           "tau_tic_curve"]

# relative error tolerance of every quadrature
REL_TOL = 1e-6
# tail mass of exp(-pi*lam*z**2) neglected beyond the truncation radius
TRUNC_CUTOFF = 1e-12
# the nearest-distance variable u = ln z spans [ln zmax - LOG_SPAN, ln zmax];
# the tic quad and the smf2 outer pass start from breaks at OUTER_BREAKS below
# ln zmax, one interval per octave of depth, so they start resolved at every
# threshold's mass
LOG_SPAN = 40.0
OUTER_BREAKS = (1.0, 2.0, 4.0, 8.0, 16.0)

# Gauss-Legendre node counts (low, high) of the smf2 inner integral; their
# difference is the inner error estimate the per-threshold gate adds
INNER_RULE_NODES = (32, 64)


def trunc_radius(lam) -> float:
    """Distance (km) beyond which exp(-pi*lam*z**2) is below TRUNC_CUTOFF."""
    return float(np.sqrt(np.log(1.0 / TRUNC_CUTOFF) / (np.pi * lam)))


def gamma_threshold(t, base=2.0):
    """SINR threshold implied by a rate threshold: gamma = base**t - 1."""
    return np.power(base, t) - 1.0


def _check_quad(value, abserr, what):
    """Gate each component: abserr <= max(REL_TOL*|value|, 1e-13)."""
    tol = np.maximum(REL_TOL * np.abs(value), 1e-13)
    over = np.flatnonzero(abserr > tol)
    if over.size:
        i = over[0]
        raise NumericalError(f"{what} quadrature achieved {np.ravel(abserr)[i]:.2e}"
                             f" > {np.ravel(tol)[i]:.2e}")
    return value


def _coverage(lam, sigma_sq, mu, thresholds, base, formula):
    """Coverage at each rate threshold, through the one checked path.

    A NaN threshold raises ValueError.  formula maps the vector of SINR
    thresholds gamma > 0 to their coverage; a threshold with gamma <= 0 is
    covered with probability 1.  The result must lie in [0, 1] and not
    increase with the threshold.
    """
    if lam <= 0 or sigma_sq <= 0 or mu <= 0:
        raise ValueError("lam, sigma_sq and mu must be positive")
    t = np.asarray(thresholds, dtype=float)
    nan = np.flatnonzero(np.isnan(t))
    if nan.size:
        # a NaN would fail `gamma > 0` and pass as covered with probability 1
        raise ValueError(f"threshold {nan[0]} of {t.size} is NaN")
    g = gamma_threshold(t, base)
    cov = np.ones(t.shape)
    live = g > 0
    if live.any():
        cov[live] = formula(g[live])
    if not np.all((cov >= -1e-12) & (cov <= 1 + 1e-12)):
        raise NumericalError("coverage values must lie in [0, 1]")
    if np.any(np.diff(cov[np.argsort(t, kind="stable")]) > 1e-9):
        raise NumericalError("coverage must not increase with the threshold")
    return cov


def _tic_coverage(lam, sigma_sq, mu, g, alpha):
    """tau_tic at every SINR threshold of the vector g > 0, one quad over u each."""
    q = lam * np.pi
    c = mu * g * sigma_sq
    hi = math.log(trunc_radius(lam))
    val = np.empty(c.shape)
    for i, ci in enumerate(c.tolist()):
        v, err = quad(lambda u: 2 * q * math.exp(2 * u - q * math.exp(2 * u)
                                                 - ci * math.exp(alpha * u)),
                      hi - LOG_SPAN, hi, epsabs=1e-13, epsrel=REL_TOL, limit=200,
                      points=[hi - b for b in OUTER_BREAKS])
        val[i] = _check_quad(v, err, "tau_tic")
    if alpha == 2.0:
        closed = q / (q + c)
    elif alpha == 4.0:
        x = q / (2.0 * np.sqrt(c))
        closed = q * np.sqrt(np.pi / (4.0 * c)) * erfcx(x)
    else:
        return val
    bad = np.flatnonzero(np.abs(closed - val) > 1e-6 * np.maximum(closed, 1e-12))
    if bad.size:
        i = bad[0]
        raise NumericalError(
            f"tau_tic closed form {closed[i]:.9g} disagrees with quadrature {val[i]:.9g}")
    return closed


def tau_tic_curve(lam, sigma_sq, mu, thresholds, alpha=4.0, base=2.0) -> np.ndarray:
    """Coverage with the serving branch only and interference cancelled.

    Evaluates 2*pi*lam * integral of z * exp(-z**2*lam*pi
    - mu*gamma*sigma**2*z**alpha) dz at each threshold of the grid.  For
    alpha in {2, 4} the closed form is returned after asserting agreement
    with each threshold's quadrature to 1e-6.
    """
    return _coverage(lam, sigma_sq, mu, thresholds, base,
                     lambda g: _tic_coverage(lam, sigma_sq, mu, g, alpha))


def tau_tic(lam, sigma_sq, mu, t, alpha=4.0, base=2.0) -> float:
    """tau_tic_curve at the one threshold t."""
    return float(tau_tic_curve(lam, sigma_sq, mu, [t], alpha, base)[0])


def _laplace_exponent_integral(A, excl, alpha):
    """integral_excl^inf v*A / (A + v**alpha) dv, A = gamma * z_hazard**alpha.

    A may be a vector.  With b = A / excl**alpha, integrating the series in
    A*v**(-alpha) term by term gives
        excl**2 * b/(alpha-2) * 2F1(1, 1-2/alpha; 2-2/alpha; -b),
    which at alpha = 4 is the arctan form kept below.
    """
    if alpha == 4.0:
        s = np.sqrt(A)
        return 0.5 * s * (np.pi / 2.0 - np.arctan(excl * excl / s))
    b = A / excl**alpha
    return excl**2 * b / (alpha - 2.0) * hyp2f1(1.0, 1.0 - 2.0 / alpha, 2.0 - 2.0 / alpha, -b)


def laplace_ir(z, t, lam, alpha=4.0, mu=1.0, base=2.0) -> float:
    """Laplace transform of the interference beyond z, at s = mu*gamma*z**alpha.

    E[exp(-s I_r)] over PPP interferer positions (all farther than z) and
    exponential fades:
        exp(-2*pi*lam * integral_z^inf gamma*v / (gamma + (v/z)**alpha) dv).
    """
    if z <= 0:
        raise ValueError("z must be positive")
    if alpha <= 2:
        raise ValueError("alpha must exceed 2 for a finite interference field")
    g = gamma_threshold(t, base)
    if g <= 0 or lam == 0:
        return 1.0
    A = g * z**alpha
    return float(np.exp(-2.0 * np.pi * lam * _laplace_exponent_integral(A, z, alpha)))


def _smf2_coverage(lam, sigma_sq, mu, g, with_interference, alpha):
    """tau_smf2 at every SINR threshold of the vector g > 0 in one quad_vec pass.

    Each threshold's double integral I = tau / (2*pi*lam)**2 must have an
    error estimate of at most max(REL_TOL*|I|, 1e-13).  quad_vec's max-norm
    error is relative to the largest component, so a coarse pass first
    estimates each I, and the real pass integrates the integrand over
    scale = max(|coarse|, 1e-13/REL_TOL), which is each threshold's tolerance
    over REL_TOL.  The max-norm error of that rescaled vector times each scale
    bounds each threshold's own outer error.  Both passes split the same
    interval at the same breaks, so the real pass requests every node of the
    coarse one again: each coarse node's unscaled vector is kept in a dict
    local to the call until the real pass takes it and divides it by its
    scale, so every node is computed once.

    The outer variable is u = ln z1, whose Jacobian turns z1 dz1 into
    exp(2u) du.  The inner integral over z2 in [z1, zmax] is a fixed
    Gauss-Legendre rule in v = ln(z2/z1), whose Jacobian is z2.  The log
    variable resolves both the divided-difference bump next to z1, about z1
    wide, and the broad PPP and Laplace factor, about (pi*lam)**-0.5 wide.
    Both rules of INNER_RULE_NODES are evaluated on every outer node as one
    array over (nodes x thresholds) and carried through the outer pass as one
    vector; the higher-order value is reported, and |I_high - I_low| is added
    to the outer error estimate before the gate.

    Each branch's factor is one exponential of its noise exponent plus, with
    interference, its Laplace exponent.  The second branch's Laplace argument
    is gamma * z2**alpha / z2**alpha = gamma whatever z2, so its exponent is
    z2**2 * psi(gamma), with psi computed once per curve.
    """
    q = lam * np.pi
    noise = -(mu * g) * sigma_sq  # noise exponent per unit z**alpha
    hi = math.log(trunc_radius(lam))
    two_pi_lam = 2.0 * np.pi * lam
    # the inner rules on [0, 1]: one node column, one weight row per rule
    low, high = (np.polynomial.legendre.leggauss(n) for n in INNER_RULE_NODES)
    nodes = 0.5 * (np.concatenate([high[0], low[0]]) + 1.0)[:, None]
    weights = 0.5 * block_diag(high[1], low[1])
    if with_interference:
        psi = two_pi_lam * _laplace_exponent_integral(g, 1.0, alpha)

    def F(x, excl):
        # per-branch factor, a row per row of the x or excl column and a
        # column per threshold: noise exponential times (optionally) the
        # Laplace average over interference beyond the second-nearest BS
        if with_interference:
            return np.exp(noise * x - two_pi_lam * _laplace_exponent_integral(g * x, excl, alpha))
        return np.exp(noise * x)

    def bracket(z1, z2):
        # z2 is a column; rows with x2 next to x1 take the removable-singularity
        # limit F(x) - x F'(x) by a central difference
        x1 = z1**alpha
        x2 = z2**alpha
        near = (x2 - x1 < 1e-6 * x2)[:, 0]
        F2 = np.exp(noise * x2 - z2 * z2 * psi) if with_interference else np.exp(noise * x2)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (x2 * F(x1, z2) - x1 * F2) / (x2 - x1)
        if near.any():
            x = 0.5 * (x1 + x2[near])
            h = 1e-5 * x
            e = z2[near]
            out[near] = F(x, e) - x * ((F(x + h, e) - F(x - h, e)) / (2.0 * h))
        return out

    def outer(u):
        # exp(2u) times both rules' integrals over z2 in [z1, zmax], high first
        z1 = math.exp(u)
        L = hi - u
        z2 = z1 * np.exp(L * nodes)
        f = z2 * z2 * np.exp(-q * z2 * z2) * bracket(z1, z2)
        return z1 * z1 * L * (weights @ f)

    def integral(f, epsrel):
        return quad_vec(f, hi - LOG_SPAN, hi, epsrel=epsrel, norm="max", limit=200,
                        points=[hi - b for b in OUTER_BREAKS])

    raw = {}  # u -> outer(u) of the coarse pass's nodes, until the real pass takes it

    def coarse_node(u):
        raw[u] = r = outer(u)
        return r.ravel()

    def real_node(u):
        r = raw.pop(u) if u in raw else outer(u)
        return (r / scale).ravel()

    m = g.size
    coarse, _ = integral(coarse_node, 1e-3)
    scale = np.maximum(np.abs(coarse[:m]), 1e-13 / REL_TOL)
    val, err = integral(real_node, REL_TOL)
    val_high, val_low = val[:m] * scale, val[m:] * scale
    err = err * scale + np.abs(val_high - val_low)
    val = _check_quad(val_high, err, "tau_smf2") * two_pi_lam**2
    return np.clip(val, 0.0, 1.0)


def tau_smf2_curve(lam, sigma_sq, mu, thresholds, with_interference=False,
                   alpha=4.0, base=2.0) -> np.ndarray:
    """Coverage for two-branch matched-filter combining of the nearest BSs.

    Double integral over 0 < z1 < z2 of the nearest-distance density
    f1(z1) = 2*pi*lam*z1*exp(-pi*lam*z1**2), the conditional second-nearest
    density f2(z2|z1) = 2*pi*lam*z2*exp(-pi*lam*(z2**2 - z1**2)), and the
    combined-fade tail, at each threshold of the grid; with_interference
    multiplies each exponential term by the Laplace transform of the field
    beyond z2 at the matching argument.
    """
    return _coverage(lam, sigma_sq, mu, thresholds, base,
                     lambda g: _smf2_coverage(lam, sigma_sq, mu, g, with_interference, alpha))


def tau_smf2(lam, sigma_sq, mu, t, with_interference=False, alpha=4.0, base=2.0) -> float:
    """tau_smf2_curve at the one threshold t."""
    return float(tau_smf2_curve(lam, sigma_sq, mu, [t], with_interference, alpha, base)[0])

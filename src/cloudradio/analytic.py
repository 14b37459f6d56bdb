"""Coverage probability by adaptive quadrature.

Closed forms and integrals for the probability tau(t) that a tagged user's
rate exceeds t, under total interference cancellation (single-branch) and
two-branch matched-filter combining, with an optional Laplace-transform
average over the uncancellable interference field.

Conventions: thresholds enter through gamma(t) = base**t - 1 (base 2 by
default; base e gives natural-log rate units), fades are
exponential with mean 1/mu, and received power decays as z**(-alpha).  The
single-branch coverage therefore integrates exp(-pi*lam*z**2
- mu*gamma*sigma**2*z**alpha); for alpha = 2 this collapses to the harmonic
closed form lam*pi / (lam*pi + mu*gamma*sigma**2) and for alpha = 4 to a
scaled-erfcx form, both cross-checked against the quadrature on every call.
The interference Laplace exponent is closed form at every alpha > 2: an
arctan at alpha = 4 and a Gauss hypergeometric function otherwise.

A two-branch curve is one scipy.integrate.quad_vec pass over the nearest
distance z1 for the whole threshold grid, rather than one nested quad per
threshold.  The inner integral over the second-nearest distance z2 is a pair
of fixed Gauss-Legendre rules in ln(z2/z1), evaluated at each outer node as
one array over (nodes x thresholds).  The error gate stays per threshold:
each threshold's outer error estimate plus the difference of the two inner
rules must be within max(rel_tol*|value|, 1e-13) of its own double integral,
or NumericalError is raised.  On 2 vCPUs a 241-point smf2 curve at 10 dB
takes about 0.11 s and the interference-averaged one about 0.5 s, against
1.4 s and 1.8 s with an adaptive inner quad_vec at every outer node.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad, quad_vec
from scipy.linalg import block_diag
from scipy.special import erfcx, hyp2f1

from .numerics import NumericalError

__all__ = [
    "QuadratureConfig",
    "CoverageCurve",
    "gamma_threshold",
    "tau_tic",
    "laplace_ir",
    "tau_smf2",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the adaptive quadrature routines.

    trunc_cutoff bounds the neglected tail mass of exp(-pi*lam*z**2); the
    truncation radius is where that factor falls below the cutoff.
    """

    rel_tol: float = 1e-6
    trunc_cutoff: float = 1e-12

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if not 0 < self.trunc_cutoff <= 1e-12:
            raise ValueError("trunc_cutoff must be in (0, 1e-12]")

    def trunc_radius(self, lam) -> float:
        return float(np.sqrt(np.log(1.0 / self.trunc_cutoff) / (np.pi * lam)))


DEFAULT_CONFIG = QuadratureConfig()

# Gauss-Legendre node counts (low, high) of the smf2 inner integral; their
# difference is the inner error estimate the per-threshold gate adds
INNER_RULE_NODES = (32, 64)


@dataclass
class CoverageCurve:
    """tau(t) on a threshold grid, with the parameters that produced it.

    Coverage must lie in [0, 1] and not increase with the threshold.
    """

    thresholds: np.ndarray
    coverage: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        c = np.asarray(self.coverage)
        if np.any(c < -1e-12) or np.any(c > 1 + 1e-12):
            raise ValueError("coverage values must lie in [0, 1]")
        if np.any(np.diff(c) > 1e-9):
            raise ValueError("coverage must not increase with the threshold")


def gamma_threshold(t, base=2.0):
    """SINR threshold implied by a rate threshold: gamma = base**t - 1."""
    return np.power(base, t) - 1.0


def _check_quad(value, abserr, config, what):
    """Gate each component: abserr <= max(rel_tol*|value|, 1e-13)."""
    tol = np.maximum(config.rel_tol * np.abs(value), 1e-13)
    over = np.flatnonzero(abserr > tol)
    if over.size:
        i = over[0]
        raise NumericalError(f"{what} quadrature achieved {np.ravel(abserr)[i]:.2e}"
                             f" > {np.ravel(tol)[i]:.2e}")
    return value


def tau_tic(lam, sigma_sq, mu, t, config=None, alpha=4.0, base=2.0) -> float:
    """Coverage with the serving branch only and interference cancelled.

    Evaluates 2*pi*lam * integral of z * exp(-z**2*lam*pi
    - mu*gamma*sigma**2*z**alpha) dz.  For alpha in {2, 4} the closed form is
    returned after asserting agreement with the quadrature to 1e-6.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if sigma_sq <= 0:
        raise ValueError("sigma_sq must be positive")
    config = config or DEFAULT_CONFIG
    g = gamma_threshold(t, base)
    if g <= 0:
        return 1.0
    q = lam * np.pi
    c = mu * g * sigma_sq
    zmax = config.trunc_radius(lam)
    val, err = quad(lambda z: 2 * q * z * np.exp(-q * z * z - c * z**alpha),
                    0.0, zmax, epsabs=1e-13, epsrel=config.rel_tol, limit=200)
    val = _check_quad(val, err, config, "tau_tic")
    closed = None
    if alpha == 2.0:
        closed = q / (q + c)
    elif alpha == 4.0:
        x = q / (2.0 * np.sqrt(c))
        closed = q * np.sqrt(np.pi / (4.0 * c)) * erfcx(x)
    if closed is not None:
        if abs(closed - val) > 1e-6 * max(closed, 1e-12):
            raise NumericalError(
                f"tau_tic closed form {closed:.9g} disagrees with quadrature {val:.9g}")
        return float(closed)
    return float(val)


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


def tau_smf2(lam, sigma_sq, mu, t, with_interference=False, config=None,
             alpha=4.0, base=2.0) -> float:
    """Coverage for two-branch matched-filter combining of the nearest BSs.

    Double integral over 0 < z1 < z2 of the nearest-distance density
    f1(z1) = 2*pi*lam*z1*exp(-pi*lam*z1**2), the conditional second-nearest
    density f2(z2|z1) = 2*pi*lam*z2*exp(-pi*lam*(z2**2 - z1**2)), and the
    combined-fade tail; with_interference multiplies each exponential term by
    the Laplace transform of the field beyond z2 at the matching argument.
    """
    g = np.atleast_1d(gamma_threshold(t, base))
    return float(_smf2_coverage(lam, sigma_sq, mu, g, with_interference, config, alpha)[0])


def _smf2_coverage(lam, sigma_sq, mu, g, with_interference, config, alpha):
    """tau_smf2 at every SINR threshold of the vector g in one quad_vec pass.

    Thresholds g <= 0 are covered with probability 1.  Each live threshold's
    double integral I = tau / (2*pi*lam)**2 must have an error estimate of at
    most max(rel_tol*|I|, 1e-13).  quad_vec's max-norm error is relative to
    the largest component, so a coarse pass first estimates each I, and the
    real pass integrates the integrand over scale = max(|coarse|,
    1e-13/rel_tol), which is each threshold's tolerance over rel_tol.  The
    max-norm error of that rescaled vector times each scale bounds each
    threshold's own outer error.

    The inner integral over z2 in [z1, zmax] is a fixed Gauss-Legendre rule
    in v = ln(z2/z1), whose Jacobian is z2.  The log variable resolves both
    the divided-difference bump next to z1, about z1 wide, and the broad PPP
    and Laplace factor, about (pi*lam)**-0.5 wide.  Both rules of
    INNER_RULE_NODES are evaluated on every outer node as one array over
    (nodes x thresholds) and carried through the outer pass as one vector;
    the higher-order value is reported, and |I_high - I_low| is added to the
    outer error estimate before the gate.
    """
    if lam <= 0 or sigma_sq <= 0 or mu <= 0:
        raise ValueError("parameters must be positive")
    config = config or DEFAULT_CONFIG
    cov = np.ones(g.shape)
    live = g > 0
    if not live.any():
        return cov
    g = g[live]
    q = lam * np.pi
    c = mu * g  # fade-rate scale: exponent arguments are c * z**alpha * (...)
    zmax = config.trunc_radius(lam)
    two_pi_lam = 2.0 * np.pi * lam
    # the inner rules on [0, 1]: one node column, one weight row per rule
    low, high = (np.polynomial.legendre.leggauss(n) for n in INNER_RULE_NODES)
    nodes = 0.5 * (np.concatenate([high[0], low[0]]) + 1.0)[:, None]
    weights = 0.5 * block_diag(high[1], low[1])

    def F(x, excl):
        # per-branch factor, a row per row of the x or excl column and a
        # column per threshold: noise exponential times (optionally) the
        # Laplace average over interference beyond the second-nearest BS
        out = np.exp(-c * sigma_sq * x)
        if with_interference:
            out = out * np.exp(-two_pi_lam * _laplace_exponent_integral(g * x, excl, alpha))
        return out

    def bracket(z1, z2):
        # z2 is a column; rows with x2 next to x1 take the removable-singularity
        # limit F(x) - x F'(x) by a central difference
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

    def inner(z1, scale):
        # both rules' integrals over z2 in [z1, zmax], high order first
        L = np.log(zmax / z1)
        z2 = z1 * np.exp(L * nodes)
        f = z2 * z2 * np.exp(-q * z2 * z2) * bracket(z1, z2)
        return (L * (weights @ f) / scale).ravel()

    def integral(scale, epsrel):
        return quad_vec(lambda z1: z1 * inner(z1, scale), 0.0, zmax,
                        epsrel=epsrel, norm="max", limit=200)

    m = g.size
    coarse, _ = integral(1.0, 1e-3)
    scale = np.maximum(np.abs(coarse[:m]), 1e-13 / config.rel_tol)
    val, err = integral(scale, config.rel_tol)
    val_high, val_low = val[:m] * scale, val[m:] * scale
    err = err * scale + np.abs(val_high - val_low)
    val = _check_quad(val_high, err, config, "tau_smf2") * two_pi_lam**2
    cov[live] = np.clip(val, 0.0, 1.0)
    return cov


def tau_tic_curve(lam, sigma_sq, mu, thresholds, config=None, alpha=4.0, base=2.0):
    cov = np.array([tau_tic(lam, sigma_sq, mu, t, config, alpha, base) for t in thresholds])
    return CoverageCurve(np.asarray(thresholds, dtype=float), cov,
                         {"lam": lam, "sigma_sq": sigma_sq, "mu": mu,
                          "alpha": alpha, "base": base, "scheme": "tic"})


def tau_smf2_curve(lam, sigma_sq, mu, thresholds, with_interference=False,
                   config=None, alpha=4.0, base=2.0):
    g = gamma_threshold(np.asarray(thresholds, dtype=float), base)
    cov = _smf2_coverage(lam, sigma_sq, mu, g, with_interference, config, alpha)
    tag = "smf2-interf" if with_interference else "smf2"
    return CoverageCurve(np.asarray(thresholds, dtype=float), cov,
                         {"lam": lam, "sigma_sq": sigma_sq, "mu": mu,
                          "alpha": alpha, "base": base, "scheme": tag})

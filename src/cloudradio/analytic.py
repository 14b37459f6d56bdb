"""Coverage probability by quadrature over log-distance.

Closed forms and integrals for the probability tau(t) that a tagged user's
rate exceeds t, under total interference cancellation (single-branch) and
two-branch matched-filter combining, with an optional Laplace-transform
average over the uncancellable interference field.  Thresholds are rates in
bps/Hz and enter through gamma(t) = 2**t - 1 (a threshold of x nats is
x / ln 2 bits), fades are exponential with unit mean, and received power
decays as z**(-alpha).

Both formulas integrate over the log of the nearest distance, u = ln z on
[ln zmax - LOG_SPAN, ln zmax] with zmax = trunc_radius(lam).  At a deep
threshold the integrand peaks near z = (gamma*sigma**2)**(-1/alpha), far
inside the PPP scale (4e-4 km at t = 48 and 10 dB), where an adaptive rule
over z in [0, zmax] can step over it; one over u cannot.  At alpha = 2
(harmonic) and alpha = 4 (the module's erfcx) the single-branch curve is its
closed form, and the tests compare it with that integral.  Every other curve
is one call of quad, the one outer integrator: one adaptive 21-point
Gauss-Kronrod loop over u for the whole threshold grid, which stops once each
threshold passes the per-threshold error gate.  The two-branch inner
integral over the second-nearest distance is two fixed Gauss-Legendre rules
in ln(z2/z1), with the divided difference and the PPP density folded into
the rule weights, so each outer node is two matmuls over the branch
factors.  The interference Laplace exponent is
(sqrt(A)/2)*arctan(sqrt(A)/excl**2) at alpha = 4 and otherwise scipy's
hyp2f1, the one scipy name here, imported in that branch.

Every curve takes one checked path, _coverage, which checks the parameters
and the result.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .numerics import NumericalError

__all__ = ["gamma_threshold", "tau_smf2_curve", "tau_tic_curve"]

# relative error tolerance of every quadrature
REL_TOL = 1e-6
# tail mass of exp(-pi*lam*z**2) neglected beyond the truncation radius
TRUNC_CUTOFF = 1e-12
# the nearest-distance variable u = ln z spans [ln zmax - LOG_SPAN, ln zmax];
# quad starts from breaks at OUTER_BREAKS below ln zmax, one interval per
# octave of depth, so it starts resolved at every threshold's mass
LOG_SPAN = 40.0
OUTER_BREAKS = (1.0, 2.0, 4.0, 8.0, 16.0)

# QUADPACK's qk21 on [-1, 1], the shortest decimals of its doubles: Kronrod nodes
# x >= 0 and weights, Gauss weights of odd nodes; mirrored to all 21 nodes in order
_XGK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
        0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
        0.2943928627014602, 0.14887433898163122, 0.0)
_WGK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
        0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
        0.14277593857706009, 0.14773910490133849, 0.1494455540029169)
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
       0.29552422471475287)
_XGK += tuple(-x for x in _XGK[-2::-1])
_WGK, _WG = np.array(_WGK + _WGK[-2::-1]), np.array(_WG + _WG[::-1])

# Gauss-Legendre node counts (low, high) of the smf2 inner integral; their
# difference is the inner error estimate the per-threshold gate adds
INNER_RULE_NODES = (32, 64)
# smf2 branch factors are exp of exponents floored here: exp(-700) ~ 1e-304 is far
# below any gate, and the floor keeps np.exp off its slow underflow path
EXP_FLOOR = -700.0
# erfcx's switch from its definition to its continued fraction, and the latter's terms
ERFCX_SPLIT, ERFCX_TERMS = 3.0, 50


def trunc_radius(lam) -> float:
    """Distance (km) beyond which exp(-pi*lam*z**2) is below TRUNC_CUTOFF."""
    return float(np.sqrt(np.log(1.0 / TRUNC_CUTOFF) / (np.pi * lam)))


def gamma_threshold(t):
    """SINR threshold implied by a rate threshold t in bps/Hz: gamma = 2**t - 1."""
    return np.power(2.0, t) - 1.0


def erfcx(x) -> np.ndarray:
    """exp(x**2) * erfc(x) at an array of x >= 0, to about 1e-15 relative.

    Above ERFCX_SPLIT it is 1/(sqrt(pi) t), t = x + (1/2)/(x + 1/(x + (3/2)/(x
    + ...))) summed back from ERFCX_TERMS terms (Abramowitz and Stegun 7.1.14).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    small = x < ERFCX_SPLIT
    out[small] = [math.exp(v * v) * math.erfc(v) for v in x[small]]
    t = xl = x[~small]
    for n in range(ERFCX_TERMS, 0, -1):
        t = xl + (0.5 * n) / t
    out[~small] = 1.0 / (math.sqrt(math.pi) * t)
    return out


def _check_quad(value, abserr, what):
    """Gate each component: abserr <= max(REL_TOL*|value|, 1e-13); NaN fails.

    The message names the first failing component by its index among the
    thresholds integrated, those with gamma > 0.
    """
    tol = np.maximum(REL_TOL * np.abs(value), 1e-13)
    over = np.flatnonzero(~(abserr <= tol))
    if over.size:
        i = over[0]
        v, e = np.ravel(value)[i], np.ravel(abserr)[i]
        if not (math.isfinite(v) and math.isfinite(e)):
            raise NumericalError(f"{what} quadrature: the integrand or its error estimate is"
                                 f" not finite at threshold {i} of {np.size(value)}")
        raise NumericalError(f"{what} quadrature achieved {e:.2e} > {np.ravel(tol)[i]:.2e}")
    return value


def _check_params(alpha, alpha_min, **positive):
    """ValueError unless alpha > alpha_min, each keyword > 0, all finite."""
    bounds = {name: (0.0, v) for name, v in positive.items()}
    bounds.update(alpha=(alpha_min, alpha))
    for name, (low, v) in bounds.items():
        if not low < v < math.inf:
            raise ValueError(f"{name} must lie in ({low:g}, inf), not {v}")


def _qk21(outer, a, b, m):
    """QUADPACK's qk21 on [a, b] for each entry of outer's (r, m) array.

    Returns the integral, QUADPACK's error estimate (at least the rounding
    error) and the rounding error 50*eps times the integral of |outer|.
    """
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    f = np.reshape([outer(c + h * x) for x in _XGK], (21, -1, m))
    s_k = np.tensordot(_WGK, f, 1)
    err = np.abs(h * (s_k - np.tensordot(_WG, f[1::2], 1)))
    dabs = h * np.tensordot(_WGK, np.abs(f - 0.5 * s_k), 1)
    err = np.where(dabs > 0, dabs * np.minimum(1.0, (200.0 * err / dabs)**1.5), err)
    rnd = 50.0 * np.finfo(float).eps * h * np.tensordot(_WGK, np.abs(f), 1)
    return h * s_k, np.maximum(err, rnd), rnd


# one errstate per curve, not one per node: a non-finite integrand or error is
# the gate's to report, as a NumericalError rather than a numpy warning
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def quad(hi, outer, m, what):
    """Integral over u in [hi - LOG_SPAN, hi] of outer(u), gated per threshold.

    outer(u) is an (r, m) array, a column per threshold; row 0 is the
    integrand.  With r = 2, row 1 is a lower-order inner rule whose distance
    from row 0 is added to the error.  One adaptive qk21 loop starts from the
    intervals between the OUTER_BREAKS and stops on the gate's own rule:
    once each threshold's error is at most max(REL_TOL*|I|, 1e-13) of its
    row-0 integral I, or is all rounding error.  Each round halves the
    interval whose error is largest relative to the tolerance of a threshold
    not yet done; the first round halves one whatever the errors.  At 200
    intervals or a non-finite error the loop stops and the gate raises;
    numpy's divide, invalid and overflow warnings are off for the call.
    Every node is evaluated once.  cloudbench/layers.py counts calls by this
    name.
    """
    edges = [hi - LOG_SPAN, *sorted(hi - d for d in OUTER_BREAKS), hi]
    parts = [(a, b, *_qk21(outer, a, b, m)) for a, b in zip(edges, edges[1:])]
    while True:
        S, E, R = (np.array([p[k] for p in parts]) for k in (2, 3, 4))
        val, err = S.sum(0), E.sum(0)
        total = err.max(0) + np.abs(val[0] - val[-1])
        tol = np.maximum(REL_TOL * np.abs(val[0]), 1e-13)
        # a peak well inside a break's interval can leave qk21's two rules in
        # agreement, so every threshold takes part in the first round
        live = ~((total <= tol) | np.all(err <= R.sum(0), axis=0)) | (len(parts) < len(edges))
        if not live.any() or len(parts) >= 200 or not np.all(np.isfinite(err)):
            return _check_quad(val[0], total, what)
        a, b = parts.pop(int(np.argmax((E[:, :, live] / tol[live]).max(axis=(1, 2)))))[:2]
        mid = 0.5 * (a + b)
        parts += [(a, mid, *_qk21(outer, a, mid, m)), (mid, b, *_qk21(outer, mid, b, m))]


def _coverage(lam, sigma_sq, thresholds, alpha, formula, with_interference=False):
    """Coverage at each rate threshold, through the one checked path.

    Parameters out of range (alpha must exceed 2 with interference) and a NaN
    threshold raise ValueError.  formula maps the SINR thresholds gamma > 0
    to their coverage; gamma <= 0 is covered with probability 1.  The result
    must lie in [0, 1] and not increase with the threshold.
    """
    _check_params(alpha, 2.0 if with_interference else -math.inf,
                  lam=lam, sigma_sq=sigma_sq)
    t = np.asarray(thresholds, dtype=float)
    nan = np.flatnonzero(np.isnan(t))
    if nan.size:
        # a NaN would fail `gamma > 0` and pass as covered with probability 1
        raise ValueError(f"threshold {nan[0]} of {t.size} is NaN")
    g = gamma_threshold(t)
    cov = np.ones(t.shape)
    live = g > 0
    if live.any():
        cov[live] = formula(g[live])
    if not np.all((cov >= -1e-12) & (cov <= 1 + 1e-12)):
        raise NumericalError("coverage values must lie in [0, 1]")
    if np.any(np.diff(cov[np.argsort(t, kind="stable")]) > 1e-9):
        raise NumericalError("coverage must not increase with the threshold")
    return cov


def _tic_quadrature(lam, sigma_sq, g, alpha):
    """tau_tic at every SINR threshold of the vector g > 0, one quad over u."""
    q = lam * np.pi
    c = g * sigma_sq

    def outer(u):  # one row, a column per threshold
        return np.exp(2 * u - q * math.exp(2 * u) - c * math.exp(alpha * u))[None]

    return 2 * q * quad(math.log(trunc_radius(lam)), outer, g.size, "tau_tic")


def _tic_coverage(lam, sigma_sq, g, alpha):
    """tau_tic at every SINR threshold of the vector g > 0, closed form at alpha 2 and 4."""
    q = lam * np.pi
    c = g * sigma_sq
    if alpha == 2.0:
        return q / (q + c)
    if alpha == 4.0:
        return q * np.sqrt(np.pi / (4.0 * c)) * erfcx(q / (2.0 * np.sqrt(c)))
    return _tic_quadrature(lam, sigma_sq, g, alpha)


def tau_tic_curve(lam, sigma_sq, thresholds, alpha=4.0) -> np.ndarray:
    """Coverage with the serving branch only and interference cancelled.

    Evaluates 2*pi*lam * integral of z * exp(-z**2*lam*pi
    - gamma*sigma**2*z**alpha) dz at each threshold of the grid.  At alpha 2
    it is q/(q + c) and at alpha 4 q*sqrt(pi/(4c))*erfcx(q/(2*sqrt(c))), with
    q = pi*lam and c = gamma*sigma**2; any other alpha takes the quadrature.
    """
    return _coverage(lam, sigma_sq, thresholds, alpha,
                     lambda g: _tic_coverage(lam, sigma_sq, g, alpha))


# kept for cloudbench/layers.py, which binds it by name when it starts tracing
def tau_tic(lam, sigma_sq, t, alpha=4.0) -> float:
    """tau_tic_curve at the one threshold t."""
    return float(tau_tic_curve(lam, sigma_sq, [t], alpha)[0])


def _laplace_exponent_integral(A, excl, alpha):
    """integral_excl^inf v*A / (A + v**alpha) dv, A = gamma * z_hazard**alpha.

    A may be a vector.  With b = A / excl**alpha, integrating the series in
    A*v**(-alpha) term by term gives
        excl**2 * b/(alpha-2) * 2F1(1, 1-2/alpha; 2-2/alpha; -b),
    which at alpha = 4 is (sqrt(A)/2) * arctan(sqrt(A)/excl**2): the
    antiderivative's pi/2 - arctan(excl**2/sqrt(A)) without its cancellation
    when sqrt(A) << excl**2.
    """
    if alpha == 4.0:
        s = np.sqrt(A)
        return 0.5 * s * np.arctan(s / (excl * excl))
    from scipy.special import hyp2f1  # scipy is needed at alpha != 4 alone
    b = A / excl**alpha
    return excl**2 * b / (alpha - 2.0) * hyp2f1(1.0, 1.0 - 2.0 / alpha, 2.0 - 2.0 / alpha, -b)


def _smf2_coverage(lam, sigma_sq, g, with_interference, alpha):
    """tau_smf2 at every SINR threshold of the vector g > 0, one quad over u.

    Each threshold's double integral I = tau / (2*pi*lam)**2 goes through
    quad.  The outer variable is u = ln z1, whose Jacobian turns z1 dz1 into
    exp(2u) du.  The inner integral over z2 in [z1, zmax] is a fixed
    Gauss-Legendre rule in v = ln(z2/z1), whose Jacobian is z2.  The log
    variable resolves both the divided-difference bump next to z1, about z1
    wide, and the broad PPP and Laplace factor, about (pi*lam)**-0.5 wide.
    Both rules of INNER_RULE_NODES are evaluated on every outer node as one
    array over (nodes x thresholds), and outer(u) gives quad the higher-order
    rule as row 0 and the lower-order one as row 1.

    Each branch's factor is one exponential of its noise exponent plus, with
    interference, its Laplace exponent, floored at EXP_FLOOR.  The second
    branch's Laplace argument is gamma * z2**alpha / z2**alpha = gamma whatever
    z2, so its exponent is z2**2 * psi(gamma), with psi computed once per curve.

    Inner row i adds w_i * z2_i**2 exp(-q z2_i**2) (x2_i F1_i - x1 F2_i)/(x2_i - x1),
    x = z**alpha, which is linear in the branch factors F1 = F(x1) and F2 =
    F(x2).  So the row factor c_i = z2_i**2 exp(-q z2_i**2)/(x2_i - x1) goes
    into the weights W, and a node is
        z1**2 L [(W c x2) @ F1 - (W c x1) @ F2 + near rows],
    two matmuls; without interference F1 is one row, and its term an outer
    product.  Rows with x2 within 1e-6 of x1 would cancel, or divide 0 by 0:
    they take the limit F(x) - x F'(x) by a central difference, in a third
    small matmul, and their c is exactly 0, since 0 * inf would poison the
    matmuls.
    """
    q = lam * np.pi
    noise = -g * sigma_sq  # noise exponent per unit z**alpha
    hi = math.log(trunc_radius(lam))
    two_pi_lam = 2.0 * np.pi * lam
    # the inner rules on [0, 1]: one node vector, one weight row per rule
    low, high = (leggauss(n) for n in INNER_RULE_NODES)
    nodes = 0.5 * (np.concatenate([high[0], low[0]]) + 1.0)
    weights = np.zeros((2, nodes.size))
    weights[0, :high[1].size] = 0.5 * high[1]
    weights[1, high[1].size:] = 0.5 * low[1]
    # second-branch exponents: rows (x2, -z2**2) times columns (noise, psi),
    # one matmul per node into a buffer kept for the curve
    slopes = np.zeros((2, g.size))
    slopes[0] = noise
    if with_interference:
        slopes[1] = two_pi_lam * _laplace_exponent_integral(g, 1.0, alpha)
    rows = np.empty((nodes.size, 2))
    buf = np.empty((nodes.size, g.size))

    def floored_exp(e):
        # exp in place, of e floored at EXP_FLOOR
        return np.exp(np.maximum(e, EXP_FLOOR, out=e), out=e)

    def F(x, excl):
        # per-branch factor, a row per row of the x or excl column and a
        # column per threshold: noise exponential times (optionally) the
        # Laplace average over interference beyond the second-nearest BS
        if not with_interference:
            return floored_exp(noise * x)
        e = _laplace_exponent_integral(g * x, excl, alpha)
        e *= -two_pi_lam
        e += noise * x
        return floored_exp(e)

    def outer(u):
        # exp(2u) times both rules' integrals over z2 in [z1, zmax], high first
        z1 = math.exp(u)
        L = hi - u
        z2 = z1 * np.exp(L * nodes)
        x1 = z1**alpha
        x2 = z2**alpha
        ppp = z2 * z2 * np.exp(-q * z2 * z2)
        # rows with x2 next to x1 take the removable-singularity limit below;
        # their fold factor is exactly 0, as 0 * inf would poison the matmuls
        near = x2 - x1 < 1e-6 * x2
        c = weights * np.where(near, 0.0, ppp / (x2 - x1))
        rows[:, 0] = x2
        np.multiply(z2, -z2, out=rows[:, 1])
        acc = (c * -x1) @ floored_exp(np.matmul(rows, slopes, out=buf))
        if with_interference:
            acc += (c * x2) @ F(x1, z2[:, None])
        else:  # the first branch's factor is one row
            acc += np.multiply.outer(c @ x2, F(x1, None))
        if near.any():
            # the limit F(x) - x F'(x) by a central difference
            x = 0.5 * (x1 + x2[near, None])
            h = 1e-5 * x
            e = z2[near, None]
            lim = F(x, e) - x * ((F(x + h, e) - F(x - h, e)) / (2.0 * h))
            acc += weights[:, near] @ (ppp[near, None] * lim)
        return z1 * z1 * L * acc

    return np.clip(quad(hi, outer, g.size, "tau_smf2") * two_pi_lam**2, 0.0, 1.0)


def tau_smf2_curve(lam, sigma_sq, thresholds, with_interference=False,
                   alpha=4.0) -> np.ndarray:
    """Coverage for two-branch matched-filter combining of the nearest BSs.

    Double integral over 0 < z1 < z2 of the nearest-distance density
    f1(z1) = 2*pi*lam*z1*exp(-pi*lam*z1**2), the conditional second-nearest
    density f2(z2|z1) = 2*pi*lam*z2*exp(-pi*lam*(z2**2 - z1**2)), and the
    combined-fade tail, at each threshold of the grid; with_interference
    multiplies each exponential term by the Laplace transform of the field
    beyond z2 at the matching argument.
    """
    return _coverage(lam, sigma_sq, thresholds, alpha,
                     lambda g: _smf2_coverage(lam, sigma_sq, g, with_interference, alpha),
                     with_interference)


# kept for cloudbench/layers.py, which binds it by name when it starts tracing
def tau_smf2(lam, sigma_sq, t, with_interference=False, alpha=4.0) -> float:
    """tau_smf2_curve at the one threshold t."""
    return float(tau_smf2_curve(lam, sigma_sq, [t], with_interference, alpha)[0])

"""Tomlinson-Harashima precoding over the triangular factorization.

THP replaces dirty-paper coding by feedback pre-subtraction plus a symmetric
modulo that bounds the transmit amplitude.  Data symbols come from square QAM
constellations normalized to unit average energy; the modulo base tau of each
stream is tied to its constellation so the modulo is transparent whenever no
interference has to be pre-subtracted.  drop_power_samples evaluates every
mode of a drop over a whole SNR sweep in one precode pass.

precode_batch runs the k sequential steps over a whole batch of data vectors
at once, on (batch, k) complex symbols in C order: that layout fixes how the
feedback product rounds.  The modulo bases are laid out once as
(k, batch, 2), the (re, im) layout of the symbols, so no step broadcasts.
"""

from dataclasses import dataclass

import numpy as np

from .channel import NoiseModel
from .numerics import TriangularFactorization

__all__ = [
    "QamConstellation",
    "ThpOutput",
    "qam_constellation",
    "select_modulation",
    "thp_precode",
    "thp_loopback",
    "thp_power_cdf",
]

SUPPORTED_ORDERS = (4, 16, 64)


@dataclass(frozen=True)
class QamConstellation:
    """Square M-QAM grid with unit mean symbol energy.

    modulo_base is the side length tau of the modulo region
    [-tau/2, tau/2) x [-tau/2, tau/2), chosen as 2 * (max coordinate + half
    grid step) so every constellation point lies strictly inside.
    """

    M: int
    points: np.ndarray
    modulo_base: float


def qam_constellation(M) -> QamConstellation:
    """Build the unit-energy square M-QAM constellation, M in {4, 16, 64}."""
    if M not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported constellation size {M}")
    m = int(np.sqrt(M))
    # odd multiples of a: +-a, +-3a, ...; unit energy fixes a
    a = np.sqrt(1.5 / (M - 1))
    axis = a * (2 * np.arange(m) - (m - 1))
    re, im = np.meshgrid(axis, axis)
    pts = (re + 1j * im).ravel()
    tau = 2.0 * (axis[-1] + a)
    return QamConstellation(M=int(M), points=pts, modulo_base=float(tau))


_CACHE = {M: qam_constellation(M) for M in SUPPORTED_ORDERS}
# per order, in SUPPORTED_ORDERS' rows: the modulo base, and the points padded
# with zeros so that one fancy index reads symbols of any mix of orders
_BASES = np.array([_CACHE[M].modulo_base for M in SUPPORTED_ORDERS])
_POINTS = np.zeros((len(SUPPORTED_ORDERS), max(SUPPORTED_ORDERS)), dtype=complex)
for _row, _M in enumerate(SUPPORTED_ORDERS):
    _POINTS[_row, :_M] = _CACHE[_M].points


def select_modulation(c_zfdpc) -> QamConstellation:
    """Adaptive constellation from the stream's ZF-DPC capacity.

    M = 64 for C > 7, M = 16 for 4 < C <= 7, M = 4 for C <= 4.
    """
    if c_zfdpc < 0:
        raise ValueError("capacity must be non-negative")
    return _CACHE[int(_adaptive_orders(c_zfdpc))]


def _adaptive_orders(caps):
    return np.select([caps > 7, caps > 4], [64, 16], 4)


def symmetric_modulo(x, tau):
    """Wrap real and imaginary parts independently into [-tau/2, tau/2)."""
    # (re, im) pairs of a float view, each wrapped by the same np.mod
    parts = np.asarray(x, dtype=complex)[..., None].view(np.float64)
    tau = np.asarray(tau)[..., None]
    wrapped = np.mod(parts + tau / 2.0, tau) - tau / 2.0
    return wrapped.view(complex)[..., 0][()]


@dataclass
class ThpOutput:
    """Precoded symbols before the unitary stage, with their powers."""

    transmit: np.ndarray
    per_stream_power: np.ndarray
    total_power: float


def _lower(L):
    """The triangular matrix, and the mask of its streams that carry no data.

    L is a TriangularFactorization, whose degenerate streams carry no data,
    or a bare lower-triangular array, all of whose streams do.
    """
    if isinstance(L, TriangularFactorization):
        return L.L, L.degenerate
    L = np.asarray(L)
    return L, np.zeros(L.shape[0], dtype=bool)


def precode_batch(L, data, taus, off=None):
    """Vectorized THP over a batch of data vectors: data shape (batch, k).

    taus holds each stream's modulo base, shape (k,), or one row of them per
    data vector, shape (batch, k).  Streams marked in the boolean mask `off`
    (degenerate ones) transmit nothing: their u is 0 and their diagonal may
    vanish.

    u is a C-ordered (batch, k) complex array.  The bases and their halves
    are expanded once to the (k, batch, 2) layout of (re, im) parts, and the
    feedback coefficients l_ij / l_ii are divided once, so a step broadcasts
    nothing.  A step is the feedback product, then, each in place: subtract
    it, add tau/2, take mod tau on the (batch, 2) float view, and subtract
    tau/2 straight into u's column.  The result is bit-identical to one
    symmetric_modulo call per stream.
    """
    k = L.shape[0]
    off = np.zeros(k, dtype=bool) if off is None else np.asarray(off)
    diag = np.real(np.diag(L))
    if np.any(diag[~off] <= 0):
        raise ValueError("THP needs a strictly positive triangular diagonal")
    # C order whatever the input's: the layout of u[:, :i] decides how the
    # feedback product rounds
    u = np.array(data, dtype=complex, order="C")
    batch = u.shape[0]
    u[:, off] = 0.0
    live = np.flatnonzero(~off[1:]) + 1  # stream 0 has no feedback and no modulo
    # divided for live rows only: a degenerate row's diagonal may be 0
    coef = np.zeros(L.shape, dtype=complex)
    coef[live] = L[live] / diag[live, None]
    tau = np.empty((k, batch, 2))
    tau[...] = np.atleast_2d(taus).T[..., None]
    # tau/2 in both parts of a complex: adding or subtracting it is the float
    # operation on each part, and the complex result writes a column of u
    half = (tau / 2.0).view(complex)[..., 0]
    x = np.empty(batch, dtype=complex)
    parts = x.view(np.float64).reshape(batch, 2)
    for i in live.tolist():
        np.subtract(u[:, i], u[:, :i] @ coef[i, :i], out=x)
        np.add(x, half[i], out=x)
        np.mod(parts, tau[i], out=parts)
        np.subtract(x, half[i], out=u[:, i])
    return u


def thp_precode(L, data, constellations) -> ThpOutput:
    """Successive modulo pre-subtraction of the known triangular interference.

    u_1 = data_1 and u_i = mod_tau_i(data_i - sum_{j<i} (l_ij/l_ii) u_j).
    The vector actually radiated is Q^dagger u; the unitary leaves the power
    untouched, so power statistics are taken on u itself.  Degenerate streams
    of a factorization transmit nothing.
    """
    Lm, off = _lower(L)
    data = np.asarray(data, dtype=complex)
    taus = np.array([c.modulo_base for c in constellations])
    u = precode_batch(Lm, data[None, :], taus, off)[0]
    p = np.abs(u) ** 2
    return ThpOutput(transmit=u, per_stream_power=p, total_power=float(p.sum()))


def thp_loopback(L, output: ThpOutput, constellations) -> np.ndarray:
    """Recover symbols over the noiseless channel y = L u.

    recovered_i = mod_tau_i(y_i / l_ii); with correct precoding this equals
    the data exactly, which is the precoder's primary correctness property.
    """
    Lm, _ = _lower(L)
    y = Lm @ output.transmit
    diag = np.real(np.diag(Lm))
    taus = np.array([c.modulo_base for c in constellations])
    return symmetric_modulo(y / diag, taus)


def _rows(orders):
    # row of each constellation order in _POINTS and _BASES
    return np.searchsorted(SUPPORTED_ORDERS, orders)


def _draw(orders, rng, batch):
    # stream by stream, batch draws each: the order of a per-stream loop of
    # rng.integers(M, size=batch), so the generator is consumed the same way
    idx = rng.integers(orders[:, None], size=(orders.size, batch))
    return _POINTS[_rows(orders)[:, None], idx].T.copy()


def draw_symbols(constellations, rng, batch=1):
    """I.i.d. uniform symbols, one column per stream."""
    return _draw(np.array([c.M for c in constellations]), rng, batch)


def _orders(L, sigma_sq, mode, base):
    """Constellation order of each stream: one row per noise power for
    "adaptive" (from the ZF-DPC capacity), a single row for a fixed order."""
    if mode != "adaptive":
        return np.full((1, L.shape[0]), int(mode))
    sigma_sq = np.reshape(sigma_sq, (-1, 1))
    caps = np.log1p(np.abs(np.diag(L)) ** 2 / sigma_sq) / np.log(base)
    return _adaptive_orders(caps)


def _mean_power(u):
    return float(np.mean(np.sum(np.abs(u) ** 2, axis=1)))


def drop_power_sample(fact, sigma_sq, mode, rng, vectors=100, base=2.0) -> float:
    """Total transmit power of one drop, averaged over random data vectors.

    sigma_sq is the scalar noise power.  mode is "adaptive" (constellations
    from the per-stream ZF-DPC capacity) or a fixed order in {4, 16, 64}.
    """
    L, off = _lower(fact)
    orders = _orders(L, sigma_sq, mode, base)[0]
    u = precode_batch(L, _draw(orders, rng, vectors), _BASES[_rows(orders)], off)
    return _mean_power(u)


def drop_power_samples(fact, sigma_sq, modes, seed, vectors=100, base=2.0) -> dict:
    """drop_power_sample for every mode at every noise power, in one precode pass.

    Returns {mode: one sample per entry of sigma_sq}.  Each sample draws its
    data from a fresh np.random.default_rng(seed), so it equals
    drop_power_sample(fact, s2, mode, np.random.default_rng(seed), vectors,
    base).  A fixed order does not depend on the noise: its sample is
    computed once and repeated over sigma_sq.
    """
    L, off = _lower(fact)
    sigma_sq = np.atleast_1d(sigma_sq)
    orders = {mode: _orders(L, sigma_sq, mode, base) for mode in modes}
    rows = np.concatenate(list(orders.values()))
    data = np.concatenate([_draw(o, np.random.default_rng(seed), vectors) for o in rows])
    taus = np.repeat(_BASES[_rows(rows)], vectors, axis=0)
    u = precode_batch(L, data, taus, off).reshape(len(rows), vectors, -1)
    power = iter([_mean_power(x) for x in u])
    # np.resize repeats a fixed order's one sample over the sweep
    return {mode: np.resize([next(power) for _ in o], sigma_sq.size)
            for mode, o in orders.items()}


def thp_power_cdf(factorizations, noise: NoiseModel, mode, rng,
                  vectors_per_drop=100, base=2.0):
    """Empirical CDF of total THP transmit power, one sample per drop."""
    from .stats import build_cdf

    if len(factorizations) < 100:
        raise ValueError("need at least 100 drops for a power CDF")
    return build_cdf([drop_power_sample(f, noise.sigma_sq, mode, rng, vectors_per_drop, base)
                      for f in factorizations])

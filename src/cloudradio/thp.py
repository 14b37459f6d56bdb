"""Tomlinson-Harashima precoding over the triangular factorization.

THP replaces dirty-paper coding by feedback pre-subtraction plus a symmetric
modulo that bounds the transmit amplitude.  Data symbols come from square QAM
constellations normalized to unit average energy; the modulo base tau of each
stream is tied to its constellation so the modulo is transparent whenever no
interference has to be pre-subtracted.
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


def select_modulation(c_zfdpc) -> QamConstellation:
    """Adaptive constellation from the stream's ZF-DPC capacity.

    M = 64 for C > 7, M = 16 for 4 < C <= 7, M = 4 for C <= 4.
    """
    if c_zfdpc < 0:
        raise ValueError("capacity must be non-negative")
    if c_zfdpc > 7:
        return _CACHE[64]
    if c_zfdpc > 4:
        return _CACHE[16]
    return _CACHE[4]


def symmetric_modulo(x, tau):
    """Wrap real and imaginary parts independently into [-tau/2, tau/2)."""
    re = np.mod(np.real(x) + tau / 2.0, tau) - tau / 2.0
    im = np.mod(np.imag(x) + tau / 2.0, tau) - tau / 2.0
    return re + 1j * im


@dataclass
class ThpOutput:
    """Precoded symbols before the unitary stage, with their powers."""

    transmit: np.ndarray
    per_stream_power: np.ndarray
    total_power: float


def _lower(L):
    return L.L if isinstance(L, TriangularFactorization) else np.asarray(L)


def precode_batch(L, data, taus):
    """Vectorized THP over a batch of data vectors: data shape (batch, k)."""
    diag = np.real(np.diag(L))
    if np.any(diag <= 0):
        raise ValueError("THP needs a strictly positive triangular diagonal")
    k = L.shape[0]
    u = np.empty_like(data)
    u[:, 0] = data[:, 0]
    for i in range(1, k):
        feedback = u[:, :i] @ (L[i, :i] / diag[i])
        u[:, i] = symmetric_modulo(data[:, i] - feedback, taus[i])
    return u


def thp_precode(L, data, constellations) -> ThpOutput:
    """Successive modulo pre-subtraction of the known triangular interference.

    u_1 = data_1 and u_i = mod_tau_i(data_i - sum_{j<i} (l_ij/l_ii) u_j).
    The vector actually radiated is Q^dagger u; the unitary leaves the power
    untouched, so power statistics are taken on u itself.
    """
    Lm = _lower(L)
    data = np.asarray(data, dtype=complex)
    taus = np.array([c.modulo_base for c in constellations])
    u = precode_batch(Lm, data[None, :], taus)[0]
    p = np.abs(u) ** 2
    return ThpOutput(transmit=u, per_stream_power=p, total_power=float(p.sum()))


def thp_loopback(L, output: ThpOutput, constellations) -> np.ndarray:
    """Recover symbols over the noiseless channel y = L u.

    recovered_i = mod_tau_i(y_i / l_ii); with correct precoding this equals
    the data exactly, which is the precoder's primary correctness property.
    """
    Lm = _lower(L)
    y = Lm @ output.transmit
    diag = np.real(np.diag(Lm))
    taus = np.array([c.modulo_base for c in constellations])
    return symmetric_modulo(y / diag, taus)


def draw_symbols(constellations, rng, batch=1):
    """I.i.d. uniform symbols, one column per stream."""
    k = len(constellations)
    out = np.empty((batch, k), dtype=complex)
    for i, c in enumerate(constellations):
        out[:, i] = c.points[rng.integers(c.M, size=batch)]
    return out


def drop_power_sample(fact, noise, mode, rng, vectors=100, base=2.0) -> float:
    """Total transmit power of one drop, averaged over random data vectors.

    noise is a NoiseModel or a scalar sigma^2.  mode is "adaptive"
    (constellations from the per-stream ZF-DPC capacity) or a fixed order in
    {4, 16, 64}.
    """
    L = _lower(fact)
    if mode == "adaptive":
        sigma_sq = getattr(noise, "sigma_sq", noise)
        caps = np.log1p(np.abs(np.diag(L)) ** 2 / sigma_sq) / np.log(base)
        cons = [select_modulation(c) for c in caps]
    else:
        cons = [_CACHE[int(mode)]] * L.shape[0]
    taus = np.array([c.modulo_base for c in cons])
    u = precode_batch(L, draw_symbols(cons, rng, batch=vectors), taus)
    return float(np.mean(np.sum(np.abs(u) ** 2, axis=1)))


def thp_power_cdf(factorizations, noise: NoiseModel, mode, rng,
                  vectors_per_drop=100, base=2.0):
    """Empirical CDF of total THP transmit power, one sample per drop."""
    from .stats import build_cdf

    if len(factorizations) < 100:
        raise ValueError("need at least 100 drops for a power CDF")
    return build_cdf([drop_power_sample(f, noise, mode, rng, vectors_per_drop, base)
                      for f in factorizations])

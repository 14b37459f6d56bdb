"""Per-stream achievable rates for every transmission scheme.

Rates are log2(1 + SINR) in bps/Hz, with unit transmit power per stream
throughout: no water-filling, no uplink power control.  Degenerate
factorization streams get rate 0.

Every rate function takes the channel as a k x k complex array and the noise
power as a scalar sigma^2 or a 1-D array of m sigma^2 values.  A scalar gives
k per-stream rates; an array gives shape (m, k), row j at sigma^2[j],
bit-identical to the scalar call.  The noise level of a config becomes
sigma^2 before it reaches a kernel (channel.sigma_sq_from_snr_db).
Factorizations, partial-CSI selection and sorts run once per call, so a whole
SNR sweep of one drop shares them.  Schemes that read only the stream gains
|l_ii| take them from numerics.stream_gains, which never forms Q.
"""

import numpy as np

from .channel import take_partial_csi
from .numerics import TriangularFactorization, hpd_inverse, lq_factor, stream_gains

__all__ = [
    "conventional_rates",
    "zfdpc_rates",
    "uplink_sic_rates",
    "zfdpc_partial_rates",
    "clustered_rates",
    "mmse_rates",
    "tic_rate",
    "smf_rate",
]


def _rate(sinr):
    return np.log1p(sinr) / np.log(2.0)


def _sigma(noise):
    # a vector of noise powers becomes an (m, 1) column that broadcasts over streams
    s2 = np.asarray(noise, dtype=float)
    return s2[:, None] if s2.ndim else s2


def conventional_rates(H, noise) -> np.ndarray:
    """Nearest-BS baseline: every other cohort BS interferes.

    rate_i = log(1 + |H_ii|^2 / (sigma^2 + sum_{j != i} |H_ij|^2))
    """
    P = np.abs(H) ** 2
    sig = np.diag(P)
    interf = P.sum(axis=1) - sig
    return _rate(sig / (_sigma(noise) + interf))


def zfdpc_rates(H, noise) -> np.ndarray:
    """Downlink ZF-DPC: factor H = L Q, rate_i = log(1 + l_ii^2 / sigma^2).

    H may also be given as its TriangularFactorization, whose gains are then
    read instead of factoring again: a drop with a THP scheme factors H anyway.
    """
    if isinstance(H, TriangularFactorization):
        g = H.stream_gains
    else:
        g = stream_gains(H)
    return _rate(g**2 / _sigma(noise))


def uplink_sic_rates(H, noise) -> np.ndarray:
    """Uplink successive cancellation: same factorization applied to H^T.

    Cancellation of previously decoded streams is assumed ideal, so the rates
    are log(1 + m_ii^2 / sigma^2) with H^T = M Q'.
    """
    g = stream_gains(H.T)
    return _rate(g**2 / _sigma(noise))


def _partial_rates(He, known, s2):
    # s2 is sigma^2 as _sigma returns it, or that plus per-stream interference
    fact = lq_factor(known)
    E = He @ fact.Q.conj().T
    Z = E - fact.L
    Zsq = np.abs(Z) ** 2
    Esq = np.abs(E) ** 2
    below = np.tril(Zsq, -1).sum(axis=1)
    above = np.triu(Esq, 1).sum(axis=1)
    # (s2 + below) + above, in this order: the grouping changes the rounding
    sinr = np.diag(Esq) / (s2 + below + above)
    sinr = np.where(fact.degenerate, 0.0, sinr)
    return _rate(sinr)


def zfdpc_partial_rates(H, known, noise) -> np.ndarray:
    """ZF-DPC driven by the partial-CSI factorization.

    `known` is H masked to the known entries (see take_partial_csi).  Factor
    it as L_p Q_p and precode with Q_p^dagger; the effective channel is
    E = H Q_p^dagger.  DPC is credited with cancelling exactly the known
    triangular part, so for stream i the residual mismatch Z = E - L_p
    interferes for j < i and the unknown upper entries interfere in full:

        SINR_i = |E_ii|^2 / (sigma^2 + sum_{j<i} |Z_ij|^2 + sum_{j>i} |E_ij|^2)
    """
    return _partial_rates(H, known, _sigma(noise))


def clustered_rates(H_in, interference, noise, csi_l=None) -> np.ndarray:
    """ZF-DPC inside the cluster with inter-cluster power added to the noise.

    H_in spans the in-cluster cohort only; `interference` is the per-stream
    uncancellable power from out-of-cluster BSs.  With csi_l given, the
    in-cluster precoder itself runs on partial CSI.
    """
    noise_eff = _sigma(noise) + np.asarray(interference, dtype=float)
    if csi_l is None:
        return _rate(stream_gains(H_in) ** 2 / noise_eff)
    known = take_partial_csi(H_in, min(csi_l, H_in.shape[0]))
    return _partial_rates(H_in, known, noise_eff)


def mmse_rates(H, noise) -> np.ndarray:
    """Joint linear MMSE uplink receiver on the transposed channel H^T.

    As for uplink SIC, the streams are the UEs, i.e. the rows of H, so with
    G = H^T the error covariance is

        MSE = sigma^2 (G^dagger G + sigma^2 I)^-1 = sigma^2 (conj(H) H^T + sigma^2 I)^-1

    and rate_i = -log(MSE_ii); the matrix inverted is HPD by construction.
    The MSE is not separable in sigma^2, so a vector of noise powers costs one
    inverse each; conj(H) H^T is formed once.
    """
    s2 = _sigma(noise)
    k = H.shape[0]
    gram = H.conj() @ H.T

    def rates_at(s):
        A = gram + s * np.eye(k)
        A = 0.5 * (A + A.conj().T)
        mse = s * np.real(np.diag(hpd_inverse(A)))
        return -np.log(mse) / np.log(2.0)

    return rates_at(s2) if s2.ndim == 0 else np.array([rates_at(s) for s in s2[:, 0]])


def tic_rate(H, noise) -> np.ndarray:
    """Total interference cancellation: interference removed, not reused."""
    sig = np.abs(np.diag(H)) ** 2
    return _rate(sig / _sigma(noise))


def smf_rate(H, noise, l) -> np.ndarray:
    """Spatial matched filter over the l strongest streams per row.

    The remaining k - l streams stay as interference:

        SINR_i = sum_top_l |H_ij|^2 / (sigma^2 + sum_rest |H_ij|^2)

    Entries follow the system model's z^(-alpha/2) amplitude convention, so
    combining reuses exactly the received powers the other schemes see.
    """
    P = np.abs(H) ** 2
    k = P.shape[0]
    if not 1 <= l <= k:
        raise ValueError(f"combining order l={l} outside 1..{k}")
    srt = np.sort(P, axis=1)[:, ::-1]
    sig = srt[:, :l].sum(axis=1)
    rest = srt[:, l:].sum(axis=1)
    return _rate(sig / (_sigma(noise) + rest))

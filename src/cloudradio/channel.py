"""Channel construction: Rayleigh fading over power-law path loss.

The cohort channel is a k x k complex matrix with entry (i, j) equal to
h_ij * z_ij^(-alpha/2), where row i is UE i (stream i) and column j is BS j,
z_ij the UE-to-BS distance and h_ij a circularly-symmetric complex Gaussian
fade with unit mean power.  Nearest-BS association makes the diagonal the
row-wise distance minimum, which is what the triangular precoder exploits.

build_channel takes its distances as the k x k cohort block that geometry
computed (`geometry.distance_block`), so no drop holds a UE-by-BS matrix of the
whole network.  Its channel is the drop's only one: a clustered drop reads its
two blocks from it, and inter_cluster_interference sums the out-of-cluster one.
"""

import numpy as np

__all__ = [
    "MIN_DISTANCE_KM",
    "sigma_sq_from_snr_db",
    "build_channel",
    "take_partial_csi",
    "inter_cluster_interference",
]

# clamp for colocated UE/BS; avoids the path-loss singularity at z -> 0
MIN_DISTANCE_KM = 1e-3


def sigma_sq_from_snr_db(snr_db) -> float:
    """Per-stream AWGN power sigma^2 = 10^(-snr_db/10) under unit transmit power.

    snr_db is the transmitter SNR 1/sigma^2.  Thousands of dB either way give
    no positive finite float (0.0, or OverflowError); harness.validate rejects
    such an SNR.
    """
    return 10.0 ** (-snr_db / 10.0)


def build_channel(z, alpha, rng) -> np.ndarray:
    """Draw fades over the k x k distance block z (km) and return the channel.

    Distances are clamped to MIN_DISTANCE_KM.  Requires alpha > 2
    (interference field integrability).  The row-wise distance
    dominance of the diagonal is checked exhaustively.
    """
    k = len(z)
    if k < 1:
        raise ValueError("cohort is empty")
    if not alpha > 2:
        raise ValueError("path-loss exponent must exceed 2")
    z = np.maximum(z, MIN_DISTANCE_KM)
    zd = np.diag(z)
    if np.any(zd > z.min(axis=1) + 1e-12):
        raise ValueError("cohort violates nearest-BS association")
    # one complex array filled in place, real part drawn first; each part
    # scaled as (x * sqrt(0.5)) * z^(-alpha/2), the bits of the complex formula
    h = np.empty((k, k), dtype=complex)
    h.real = rng.standard_normal((k, k))
    h.imag = rng.standard_normal((k, k))
    amplitude = z ** (-alpha / 2.0)
    for part in (h.real, h.imag):
        part *= np.sqrt(0.5)
        part *= amplitude
    return h


def take_partial_csi(H, l) -> np.ndarray:
    """H with the l best entries per row kept and the rest zeroed.

    "Best" is largest instantaneous magnitude.
    """
    k = H.shape[0]
    if not 1 <= l <= k:
        raise ValueError(f"CSI budget l={l} outside 1..{k}")
    keep = np.argsort(-np.abs(H), axis=1, kind="stable")[:, :l]
    known = np.zeros_like(H)
    rows = np.repeat(np.arange(k), l)
    known[rows, keep.ravel()] = H[rows, keep.ravel()]
    return known


def inter_cluster_interference(H_out) -> np.ndarray:
    """Received power at each in-cluster UE from all out-of-cluster BSs.

    H_out is the cohort channel's block of rows of the in-cluster UEs and
    columns of the out-of-cluster BSs, each of which sends its own stream at
    unit power; the power a UE receives is its row's sum of |h|^2.  Without
    out-of-cluster BSs every UE gets 0.
    """
    return np.sum(np.abs(H_out) ** 2, axis=1)

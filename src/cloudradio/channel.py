"""Channel construction: Rayleigh fading over power-law path loss.

The cohort channel is a k x k complex matrix with entry (i, j) equal to
h_ij * z_ij^(-alpha/2), where row i is UE i (stream i) and column j is BS j,
z_ij the UE-to-BS distance and h_ij a circularly-symmetric complex Gaussian
fade with mean power 1/mu.  Nearest-BS association makes the diagonal the
row-wise distance minimum, which is what the triangular precoder exploits.

Distances come from `ue_bs_distances`, which computes only the block a caller
asks for: the k x k cohort block in build_channel, which the channel keeps, and
the in-cluster by out-of-cluster block of the interference draw.  A clustered
drop slices both of its blocks from the cohort block, so no drop holds a
UE-by-BS matrix of the whole network.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import Association, ClusterSplit, Cohort, point_distances

__all__ = [
    "MIN_DISTANCE_KM",
    "ChannelMatrix",
    "NoiseModel",
    "ue_bs_distances",
    "build_channel",
    "take_partial_csi",
    "inter_cluster_interference",
    "diagonal_dominance_fraction",
]

# clamp for colocated UE/BS; avoids the path-loss singularity at z -> 0
MIN_DISTANCE_KM = 1e-3


@dataclass
class ChannelMatrix:
    """Faded path-loss gains for one cohort (see module docstring).

    distances is the clamped UE-to-BS distance block the gains were drawn
    over, row per stream UE and column per stream BS.
    """

    entries: np.ndarray
    distances: np.ndarray | None = None

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    def to_csv(self, path):
        """Re/im interleaved rows; used by the harness debug flag."""
        k = self.k
        out = np.empty((k, 2 * k))
        out[:, 0::2] = self.entries.real
        out[:, 1::2] = self.entries.imag
        np.savetxt(path, out, fmt="%.9g", delimiter=",")


@dataclass(frozen=True)
class NoiseModel:
    """Per-stream AWGN power under unit transmit power.

    from_snr_db gives sigma_sq = 10^(-snr_db/10), i.e. snr_db is the
    transmitter SNR 1/sigma^2.
    """

    sigma_sq: float

    def __post_init__(self):
        if self.sigma_sq <= 0:
            raise ValueError("noise power must be positive")

    @classmethod
    def from_snr_db(cls, snr_db) -> "NoiseModel":
        return cls(sigma_sq=10.0 ** (-snr_db / 10.0))


def ue_bs_distances(assoc, ue_indices, bs_indices) -> np.ndarray:
    """Distances (km), row per UE of ue_indices and column per BS of bs_indices.

    assoc is an Association, whose points give the block, or a UE-by-BS
    distance matrix, which is indexed as given.
    """
    if isinstance(assoc, Association):
        return point_distances(assoc.ue_points[ue_indices, None, :],
                               assoc.bs_points[None, bs_indices, :])
    return np.asarray(assoc, dtype=float)[np.ix_(ue_indices, bs_indices)]


def build_channel(cohort: Cohort, assoc, mu, alpha, rng) -> ChannelMatrix:
    """Draw fades and assemble the cohort channel matrix.

    assoc is an Association or a distance matrix (see ue_bs_distances).
    Requires alpha > 2 (interference field integrability) and mu > 0.  The
    row-wise distance dominance of the diagonal is checked exhaustively.
    """
    if cohort.k < 1:
        raise ValueError("cohort is empty")
    if not alpha > 2:
        raise ValueError("path-loss exponent must exceed 2")
    if not mu > 0:
        raise ValueError("mu must be positive")
    z = np.maximum(ue_bs_distances(assoc, cohort.ue_indices, cohort.bs_indices),
                   MIN_DISTANCE_KM)
    zd = np.diag(z)
    if np.any(zd > z.min(axis=1) + 1e-12):
        raise ValueError("cohort violates nearest-BS association")
    k = cohort.k
    # one complex array filled in place, real part drawn first; each part
    # scaled as (x * sqrt(0.5/mu)) * z^(-alpha/2), the bits of the complex formula
    h = np.empty((k, k), dtype=complex)
    h.real = rng.standard_normal((k, k))
    h.imag = rng.standard_normal((k, k))
    amplitude = z ** (-alpha / 2.0)
    for part in (h.real, h.imag):
        part *= np.sqrt(0.5 / mu)
        part *= amplitude
    return ChannelMatrix(entries=h, distances=z)


def take_partial_csi(H, l) -> np.ndarray:
    """H as an array with the l best entries per row kept and the rest zeroed.

    "Best" is largest instantaneous magnitude.  Accepts a ChannelMatrix or a
    plain array.
    """
    entries = getattr(H, "entries", H)
    k = entries.shape[0]
    if not 1 <= l <= k:
        raise ValueError(f"CSI budget l={l} outside 1..{k}")
    keep = np.argsort(-np.abs(entries), axis=1, kind="stable")[:, :l]
    known = np.zeros_like(entries)
    rows = np.repeat(np.arange(k), l)
    known[rows, keep.ravel()] = entries[rows, keep.ravel()]
    return known


def inter_cluster_interference(split: ClusterSplit, ue_indices, assoc,
                               mu, alpha, rng) -> np.ndarray:
    """Received power at each UE of ue_indices from all out-of-cluster BSs.

    Out-of-cluster streams are not part of the cooperating channel matrix, so
    their fades are drawn here, one row of fresh fades per UE in ue_indices
    order; each stream carries unit transmit power.  assoc is an Association
    or a distance matrix (see ue_bs_distances).
    """
    out = split.out_cluster
    if out.size == 0:
        return np.zeros(len(ue_indices))
    z = np.maximum(ue_bs_distances(assoc, ue_indices, out), MIN_DISTANCE_KM)
    fades = rng.exponential(1.0 / mu, size=z.shape)
    return np.sum(fades * z ** (-alpha), axis=1)


def diagonal_dominance_fraction(H: ChannelMatrix) -> float:
    """Fraction of streams whose faded diagonal dominates row AND column.

    Distance-level row dominance is guaranteed by association; the full
    magnitude-level property only holds statistically under fading, so it is
    reported rather than asserted.
    """
    a = np.abs(H.entries)
    d = np.diag(a)
    row_ok = d >= a.max(axis=1) - 1e-15
    col_ok = d >= a.max(axis=0) - 1e-15
    return float(np.mean(row_ok & col_ok))

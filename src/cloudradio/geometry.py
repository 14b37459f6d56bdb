"""Network geometry: Poisson point processes, association, cohorts, clusters.

Everything here is deterministic given an explicit numpy Generator, so drops
can run in parallel with per-drop substreams and no shared state.  Distances
are in km throughout.  A point set is a plain (n, 2) array of (x, y) rows, an
association is the primary-BS index of every UE, and a cluster split is the
boolean in-disc mask of the BSs it is given.

`associate` ranks every BS for a chunk of ASSOCIATE_CHUNK UEs by one matmul
of squared-distance offsets and settles the rare near-ties with the package's
one distance expression, `point_distances`, so it picks exactly the BS a
dense row argmin would, in ASSOCIATE_CHUNK x n_bs doubles and O(n_ue * n_bs)
time.  On one core that is 0.08 ms at 10 x 10 km and 0.41 ms at 20 x 20 km
(the k-d tree it replaced: 0.14 and 0.63 ms); the tree is faster only from
about 35 x 35 km (~380 BSs).  Every other distance comes from the same
expression: `distance_block` computes only the UE-by-BS block of the points
a caller passes (the cohort's k x k block, from which the channel layer takes
everything it needs), and `split_cluster` the distance of each BS to the
cluster centre.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Region",
    "Cohort",
    "sample_ppp",
    "associate",
    "select_cohort",
    "split_cluster",
    "point_distances",
    "distance_block",
]

# UEs ranked per matmul in `associate`; 512 was slower from 20 x 20 km on
ASSOCIATE_CHUNK = 256


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle anchored at the origin (km)."""

    width: float
    height: float

    def __post_init__(self):
        if not (self.width > 0 and self.height > 0):
            raise ValueError("region dimensions must be positive")

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple:
        return (0.5 * self.width, 0.5 * self.height)


# a class, not a pair of arrays, because cloudbench/layers.py counts streams by its .k
@dataclass
class Cohort:
    """One scheduling round: k (BS, UE) pairs, every UE at its primary BS.

    Stream i of the cloud is the pair (bs_indices[i], ue_indices[i]).
    """

    bs_indices: np.ndarray
    ue_indices: np.ndarray

    @property
    def k(self) -> int:
        return len(self.bs_indices)


def sample_ppp(intensity, region: Region, rng) -> np.ndarray:
    """Sample a homogeneous PPP of the given intensity on the region, shape (n, 2).

    The count is Poisson(intensity * area) and positions are i.i.d. uniform.
    """
    if intensity < 0:
        raise ValueError("intensity must be non-negative")
    n = rng.poisson(intensity * region.area)
    pts = np.empty((n, 2))
    pts[:, 0] = rng.uniform(0.0, region.width, n)
    pts[:, 1] = rng.uniform(0.0, region.height, n)
    return pts


def point_distances(a, b) -> np.ndarray:
    """Distances (km) between points a and b, broadcast over leading axes.

    The last axis holds (x, y).  Every UE-to-BS distance of the package comes
    from this one expression, so association and channel agree to the bit.
    """
    return np.hypot(a[..., 0] - b[..., 0], a[..., 1] - b[..., 1])


def distance_block(ue, bs) -> np.ndarray:
    """Distances (km), row per UE point of ue and column per BS point of bs."""
    return point_distances(ue[:, None, :], bs[None, :, :])


def associate(bs, ue) -> np.ndarray:
    """Primary BS index of every UE: its nearest BS, the lowest index on an exact tie.

    For a chunk of UEs u, q = |b|**2 - 2 u.b is the squared distance less the
    row constant |u|**2, so its row argmin is the best BS up to rounding.  Every
    other BS whose q lies within `band` of the best is compared again with
    `point_distances`, lowest BS index first: the result equals the row argmin
    of the full distance matrix.
    """
    if len(bs) == 0:
        raise ValueError("cannot associate against an empty BS set")
    if len(ue) == 0:
        raise ValueError("cannot associate an empty UE set")
    norms = np.einsum("ij,ij->i", bs, bs)
    # q is off by at most 4.5 eps S, S the largest squared norm of a point: eps S
    # for |b|**2, 2 eps S for the dot product, 1.5 eps S for the sum (|q| <= 3S).
    # point_distances is within 1.5 eps relative, so the dense argmin's BS is at
    # most 24.4 eps S farther in true squared distance (d**2 <= 4S) than the
    # q-best, and 33.5 eps S above it in q.  A band of 64 eps S covers that twice.
    band = 64 * np.finfo(float).eps * max(norms.max(), np.einsum("ij,ij->i", ue, ue).max())
    m2 = -2.0 * bs.T
    primary = np.empty(len(ue), dtype=np.intp)
    for start in range(0, len(ue), ASSOCIATE_CHUNK):
        u = ue[start:start + ASSOCIATE_CHUNK]
        rows = np.arange(len(u))
        q = u @ m2 + norms
        best = np.argmin(q, axis=1)
        limit = q[rows, best] + band
        q[rows, best] = np.inf
        tied = np.flatnonzero(np.min(q, axis=1) <= limit)
        if tied.size:
            q[tied, best[tied]] = -np.inf
            d = np.where(q[tied] <= limit[tied, None], distance_block(u[tied], bs), np.inf)
            best[tied] = np.argmin(d, axis=1)
        primary[start:start + len(u)] = best
    return primary


def select_cohort(primary_bs, rng) -> Cohort:
    """Pick one served UE per occupied BS, uniformly among its associated UEs.

    BSs with no associated UE are skipped for the round, so k equals the
    number of occupied BSs.  BS order (hence stream order) is BS index order.
    The draws are one `rng.integers` call over the occupied BSs' UE counts,
    which consumes the stream as one scalar draw per occupied BS would.
    """
    counts = np.bincount(primary_bs)
    occupied = np.flatnonzero(counts)
    picks = rng.integers(counts[occupied])
    # UEs grouped by BS, ascending UE index within a group
    by_bs = np.argsort(primary_bs, kind="stable")
    first = np.cumsum(counts) - counts
    return Cohort(bs_indices=occupied, ue_indices=by_bs[first[occupied] + picks])


def split_cluster(bs, center, radius) -> np.ndarray:
    """Boolean mask of the BSs within `radius` km of `center`, the disc's edge included."""
    if radius <= 0:
        raise ValueError("cluster radius must be positive")
    return point_distances(bs, np.asarray(center)) <= radius

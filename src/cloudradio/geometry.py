"""Network geometry: Poisson point processes, association, cohorts, clusters.

Everything here is deterministic given an explicit numpy Generator, so drops
can run in parallel with per-drop substreams and no shared state.  Distances
are in km throughout.

No UE-by-BS distance matrix is ever built.  Association queries a k-d tree of
the BS points for each UE's two nearest candidates and settles between them
with the package's one distance expression, `point_distances`, so it picks
exactly the BS a dense row argmin would.  Per-drop memory is therefore linear
in the number of points.  Every other distance comes from `distance_block`,
which computes only the UE-by-BS block a caller asks for: the cohort's k x k
block, from which the channel layer takes everything it needs.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "Region",
    "PointSet",
    "Association",
    "Cohort",
    "ClusterSplit",
    "sample_ppp",
    "associate",
    "select_cohort",
    "split_cluster",
    "point_distances",
    "distance_block",
]


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


@dataclass
class PointSet:
    """Planar points (km), shape (n, 2)."""

    points: np.ndarray

    def __len__(self):
        return len(self.points)

    def to_csv(self, path):
        """Write `x,y` rows; used by the harness debug flag."""
        np.savetxt(path, self.points, fmt="%.9g", delimiter=",", header="x,y", comments="")


@dataclass
class Association:
    """Nearest-BS association for a UE drop.

    primary_bs[u] is the geographically closest BS of UE u (the lowest BS
    index on an exact tie); ue_points and bs_points are the drop's positions,
    from which any distance block is computed on demand.
    """

    primary_bs: np.ndarray
    ue_points: np.ndarray
    bs_points: np.ndarray

    @property
    def n_ue(self):
        return len(self.ue_points)

    @property
    def n_bs(self):
        return len(self.bs_points)


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


@dataclass
class ClusterSplit:
    """Partition of BS indices into the cooperating disc and the rest."""

    in_cluster: np.ndarray
    out_cluster: np.ndarray


def sample_ppp(intensity, region: Region, rng) -> PointSet:
    """Sample a homogeneous PPP of the given intensity on the region.

    The count is Poisson(intensity * area) and positions are i.i.d. uniform.
    """
    if intensity < 0:
        raise ValueError("intensity must be non-negative")
    n = rng.poisson(intensity * region.area)
    pts = np.empty((n, 2))
    pts[:, 0] = rng.uniform(0.0, region.width, n)
    pts[:, 1] = rng.uniform(0.0, region.height, n)
    return PointSet(points=pts)


def point_distances(a, b) -> np.ndarray:
    """Distances (km) between points a and b, broadcast over leading axes.

    The last axis holds (x, y).  Every UE-to-BS distance of the package comes
    from this one expression, so association and channel agree to the bit.
    """
    return np.hypot(a[..., 0] - b[..., 0], a[..., 1] - b[..., 1])


def distance_block(assoc: Association, ue_indices, bs_indices) -> np.ndarray:
    """Distances (km), row per UE of ue_indices and column per BS of bs_indices."""
    return point_distances(assoc.ue_points[ue_indices, None, :],
                           assoc.bs_points[None, bs_indices, :])


def associate(bs: PointSet, ue: PointSet) -> Association:
    """Nearest BS of every UE, by a k-d tree query of its two best candidates.

    The tree's own metric may differ from `point_distances` in the last bit,
    so the two candidates are compared again with it, lowest BS index first:
    the result equals the row argmin of the full distance matrix.
    """
    if len(bs) == 0:
        raise ValueError("cannot associate against an empty BS set")
    if len(ue) == 0:
        raise ValueError("cannot associate an empty UE set")
    _, cand = cKDTree(bs.points).query(ue.points, k=min(2, len(bs)))
    cand = np.sort(cand.reshape(len(ue), -1), axis=1)
    d = point_distances(ue.points[:, None, :], bs.points[cand])
    primary = cand[np.arange(len(ue)), np.argmin(d, axis=1)]
    return Association(primary_bs=primary, ue_points=ue.points, bs_points=bs.points)


def select_cohort(assoc: Association, rng) -> Cohort:
    """Pick one served UE per occupied BS, uniformly among its associated UEs.

    BSs with no associated UE are skipped for the round, so k equals the
    number of occupied BSs.  BS order (hence stream order) is BS index order.
    The draws are one `rng.integers` call over the occupied BSs' UE counts,
    which consumes the stream as one scalar draw per occupied BS would.
    """
    counts = np.bincount(assoc.primary_bs, minlength=assoc.n_bs)
    occupied = np.flatnonzero(counts)
    picks = rng.integers(counts[occupied])
    # UEs grouped by BS, ascending UE index within a group
    by_bs = np.argsort(assoc.primary_bs, kind="stable")
    first = np.cumsum(counts) - counts
    return Cohort(bs_indices=occupied, ue_indices=by_bs[first[occupied] + picks])


def split_cluster(bs: PointSet, center, radius) -> ClusterSplit:
    """Split BS indices into those within `radius` km of `center` and the rest."""
    if radius <= 0:
        raise ValueError("cluster radius must be positive")
    d = np.hypot(bs.points[:, 0] - center[0], bs.points[:, 1] - center[1])
    inside = d <= radius
    idx = np.arange(len(bs))
    return ClusterSplit(in_cluster=idx[inside], out_cluster=idx[~inside])

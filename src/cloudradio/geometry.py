"""Network geometry: Poisson point processes, association, cohorts, clusters.

Everything here is deterministic given an explicit numpy Generator, so drops
can run in parallel with per-drop substreams and no shared state.  Distances
are in km throughout.
"""

from dataclasses import dataclass

import numpy as np

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
    """Planar points together with the intensity that generated them.

    points has shape (n, 2); intensity is in points per km^2.
    """

    points: np.ndarray
    intensity: float

    def __len__(self):
        return len(self.points)

    def to_csv(self, path):
        """Write `x,y` rows; used by the harness debug flag."""
        np.savetxt(path, self.points, fmt="%.9g", delimiter=",", header="x,y", comments="")


@dataclass
class Association:
    """Nearest-BS association for a UE drop.

    distances[u, b] is the distance (km) from UE u to BS b; primary_bs[u]
    is the row argmin, i.e. the geographically closest BS of UE u.
    """

    primary_bs: np.ndarray
    distances: np.ndarray

    @property
    def n_ue(self):
        return self.distances.shape[0]

    @property
    def n_bs(self):
        return self.distances.shape[1]


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
    radius: float


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
    return PointSet(points=pts, intensity=float(intensity))


def associate(bs: PointSet, ue: PointSet) -> Association:
    """Full UE-to-BS distance matrix plus the nearest-BS index per UE."""
    if len(bs) == 0:
        raise ValueError("cannot associate against an empty BS set")
    if len(ue) == 0:
        raise ValueError("cannot associate an empty UE set")
    diff = ue.points[:, None, :] - bs.points[None, :, :]
    distances = np.hypot(diff[..., 0], diff[..., 1])
    return Association(primary_bs=np.argmin(distances, axis=1), distances=distances)


def select_cohort(assoc: Association, rng) -> Cohort:
    """Pick one served UE per occupied BS, uniformly among its associated UEs.

    BSs with no associated UE are skipped for the round, so k equals the
    number of occupied BSs.  BS order (hence stream order) is BS index order.
    """
    bs_sel, ue_sel = [], []
    for b in range(assoc.n_bs):
        mine = np.flatnonzero(assoc.primary_bs == b)
        if mine.size:
            bs_sel.append(b)
            ue_sel.append(mine[rng.integers(mine.size)])
    return Cohort(bs_indices=np.asarray(bs_sel, dtype=np.intp),
                  ue_indices=np.asarray(ue_sel, dtype=np.intp))


def split_cluster(bs: PointSet, center, radius) -> ClusterSplit:
    """Split BS indices into those within `radius` km of `center` and the rest."""
    if radius <= 0:
        raise ValueError("cluster radius must be positive")
    d = np.hypot(bs.points[:, 0] - center[0], bs.points[:, 1] - center[1])
    inside = d <= radius
    idx = np.arange(len(bs))
    return ClusterSplit(in_cluster=idx[inside], out_cluster=idx[~inside], radius=float(radius))

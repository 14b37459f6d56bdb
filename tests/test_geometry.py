import numpy as np
import pytest
from scipy.stats import chi2

from cloudradio import Region, associate, sample_ppp, select_cohort, split_cluster
from cloudradio import geometry
from cloudradio.geometry import distance_block


def cohort_per_bs_loop(primary_bs, n_bs, rng):
    """Reference cohort: one scalar draw per occupied BS, in BS order."""
    bs_sel, ue_sel = [], []
    for b in range(n_bs):
        mine = np.flatnonzero(primary_bs == b)
        if mine.size:
            bs_sel.append(b)
            ue_sel.append(mine[rng.integers(mine.size)])
    return np.asarray(bs_sel, dtype=np.intp), np.asarray(ue_sel, dtype=np.intp)


def test_region_validation():
    with pytest.raises(ValueError):
        Region(0.0, 10.0)
    with pytest.raises(ValueError):
        Region(10.0, -1.0)
    assert Region(10.0, 10.0).area == 100.0


def test_ppp_mean_count_is_30(rng):
    region = Region(10.0, 10.0)
    counts = [len(sample_ppp(0.3, region, rng)) for _ in range(4000)]
    # Poisson(30): 3 standard errors of the sample mean
    se = np.sqrt(30.0 / len(counts))
    assert abs(np.mean(counts) - 30.0) < 3 * se + 0.05


def test_ppp_count_variance_matches_mean(rng):
    region = Region(5.0, 4.0)
    counts = np.array([len(sample_ppp(0.5, region, rng)) for _ in range(10000)])
    mean = counts.mean()
    # var of the sample variance of Poisson(m) is about 2m^2/n (+ m/n term)
    se_var = np.sqrt((2 * mean**2 + mean) / counts.size)
    assert abs(counts.var(ddof=1) - mean) < 3 * se_var


def test_ppp_zero_intensity_is_empty(rng):
    assert len(sample_ppp(0.0, Region(10.0, 10.0), rng)) == 0


def test_ppp_negative_intensity_rejected(rng):
    with pytest.raises(ValueError):
        sample_ppp(-0.1, Region(10.0, 10.0), rng)


def test_ppp_points_inside_region(rng):
    ps = sample_ppp(1.0, Region(3.0, 7.0), rng)
    assert ps.shape == (len(ps), 2)
    assert np.all(ps[:, 0] >= 0) and np.all(ps[:, 0] <= 3.0)
    assert np.all(ps[:, 1] >= 0) and np.all(ps[:, 1] <= 7.0)


def test_nearest_distance_null_probability(rng):
    # P[no BS within z of the centre] = exp(-lam*pi*z^2), within 2% at 1e4 draws
    lam, region = 0.3, Region(10.0, 10.0)
    center = np.array(region.center)
    nearest = np.empty(10000)
    for i in range(nearest.size):
        pts = sample_ppp(lam, region, rng)
        nearest[i] = np.min(np.hypot(*(pts - center).T)) if len(pts) else np.inf
    for z in (0.4, 0.8, 1.2):
        emp = np.mean(nearest > z)
        assert abs(emp - np.exp(-lam * np.pi * z**2)) < 0.02


def test_nearest_distance_density_ks(rng):
    # Kolmogorov-Smirnov against F(z) = 1 - exp(-pi lam z^2) at 1e4 samples
    lam, region = 0.3, Region(10.0, 10.0)
    center = np.array(region.center)
    nearest = []
    while len(nearest) < 10000:
        pts = sample_ppp(lam, region, rng)
        if len(pts):
            nearest.append(np.min(np.hypot(*(pts - center).T)))
    z = np.sort(nearest)
    model = 1.0 - np.exp(-np.pi * lam * z**2)
    emp_hi = np.arange(1, z.size + 1) / z.size
    emp_lo = np.arange(0, z.size) / z.size
    ks = max(np.max(np.abs(emp_hi - model)), np.max(np.abs(model - emp_lo)))
    assert ks < 0.02


def test_associate_single_candidate():
    bs = np.array([[0.0, 0.0]])
    ue = np.array([[3.0, 4.0]])
    assert distance_block(ue, bs)[0, 0] == pytest.approx(5.0)
    assert associate(bs, ue)[0] == 0


def test_associate_strict_ordering():
    bs = np.array([[0.0, 0.0], [10.0, 0.0]])
    ue = np.array([[1.0, 0.0]])
    assert associate(bs, ue)[0] == 0


def test_associate_empty_sets_rejected():
    empty = np.empty((0, 2))
    full = np.array([[1.0, 1.0]])
    with pytest.raises(ValueError):
        associate(empty, full)
    with pytest.raises(ValueError):
        associate(full, empty)


def test_associate_primary_is_row_argmin(drop):
    bs, ue, primary_bs, _, _ = drop
    # the full UE-by-BS distance matrix that association never builds
    d = distance_block(ue, bs)
    for u in range(len(ue)):
        assert d[u, primary_bs[u]] <= d[u].min() + 1e-12


@pytest.mark.parametrize("lambda_b", [0.02, 0.3, 2.0])
def test_associate_matches_dense_argmin(lambda_b):
    rng = np.random.default_rng(int(lambda_b * 100))
    region = Region(6.0, 4.0)
    for _ in range(40):
        bs = sample_ppp(lambda_b, region, rng)
        ue = sample_ppp(3.0, region, rng)
        if len(bs) and len(ue):
            assert np.array_equal(associate(bs, ue), np.argmin(distance_block(ue, bs), axis=1))


def test_associate_across_chunks_matches_dense_argmin():
    # about 12k UEs: many chunks of ASSOCIATE_CHUNK, the last one partial
    rng = np.random.default_rng(2020)
    region = Region(20.0, 20.0)
    bs = sample_ppp(0.3, region, rng)
    ue = sample_ppp(30.0, region, rng)
    assert len(ue) > 20 * geometry.ASSOCIATE_CHUNK and len(ue) % geometry.ASSOCIATE_CHUNK
    assert np.array_equal(associate(bs, ue), np.argmin(distance_block(ue, bs), axis=1))


def test_associate_settles_mirrored_near_ties():
    # two BSs mirrored about a UE about 20 km from the origin: their distances
    # tie exactly or differ by one ulp, far below what the squared-distance
    # matmul resolves, so point_distances must settle them, lowest index first
    rng = np.random.default_rng(5)
    ties = ulps = unordered = 0
    for _ in range(1000):
        ue = np.array([[20.0 + rng.uniform(-1, 1), 20.0 * rng.uniform(-1, 1)]])
        v = rng.uniform(-0.5, 0.5, 2)
        pair = np.array([ue[0] + v, ue[0] - v, [0.0, 0.0]])
        d = distance_block(ue, pair)[0]
        q = np.sum(pair * pair, axis=1) - 2.0 * pair @ ue[0]
        ties += d[0] == d[1]
        ulps += abs(d[0] - d[1]) == np.spacing(min(d[0], d[1]))
        unordered += (q[0] < q[1]) != (d[0] < d[1]) or q[0] == q[1]
        for bs in (pair, pair[::-1]):
            assert associate(bs, ue)[0] == np.argmin(distance_block(ue, bs)[0])
    assert ties and ulps and unordered


@pytest.mark.parametrize("bs_points, expected", [
    ([[0.0, 0.0], [2.0, 0.0]], 0),
    ([[2.0, 0.0], [0.0, 0.0]], 0),
    ([[4.0, 4.0], [0.0, 0.0], [2.0, 0.0], [1.0, 3.0]], 1),
    ([[1.0, 1.0], [1.0, -1.0], [9.0, 9.0]], 0),
])
def test_associate_exact_tie_picks_lowest_index(bs_points, expected):
    # the UE at (1, 0) is exactly equidistant from its two nearest BSs
    bs = np.array(bs_points)
    ue = np.array([[1.0, 0.0]])
    primary_bs = associate(bs, ue)
    assert primary_bs[0] == expected
    assert primary_bs[0] == np.argmin(distance_block(ue, bs)[0])


@pytest.mark.parametrize("lambda_u", [0.3, 3.0])
def test_select_cohort_matches_per_bs_loop(lambda_u):
    geo = np.random.default_rng(17)
    for trial in range(30):
        bs = sample_ppp(0.3, Region(10.0, 10.0), geo)
        ue = sample_ppp(lambda_u, Region(10.0, 10.0), geo)
        if not (len(bs) and len(ue)):
            continue
        primary_bs = associate(bs, ue)
        fast, slow = np.random.default_rng(trial), np.random.default_rng(trial)
        cohort = select_cohort(primary_bs, fast)
        bs_sel, ue_sel = cohort_per_bs_loop(primary_bs, len(bs), slow)
        assert np.array_equal(cohort.bs_indices, bs_sel)
        assert np.array_equal(cohort.ue_indices, ue_sel)
        # the generator is left where the loop leaves it
        assert fast.integers(1 << 40) == slow.integers(1 << 40)
        assert fast.random() == slow.random()


def test_cohort_forced_matching():
    bs = np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]])
    ue = np.array([[0.1, 0.0], [5.1, 0.0], [9.9, 0.0]])
    cohort = select_cohort(associate(bs, ue), np.random.default_rng(0))
    assert cohort.bs_indices.tolist() == [0, 1, 2]
    assert cohort.ue_indices.tolist() == [0, 1, 2]


def test_cohort_uniform_choice_chi_square(rng):
    # one BS, five UEs: the served UE must be uniform over the five
    bs = np.array([[0.0, 0.0]])
    ue = np.array([[1.0 + 0.1 * i, 0.0] for i in range(5)])
    primary_bs = associate(bs, ue)
    picks = np.array([select_cohort(primary_bs, rng).ue_indices[0] for _ in range(10000)])
    observed = np.bincount(picks, minlength=5)
    stat = np.sum((observed - 2000.0) ** 2 / 2000.0)
    assert stat < chi2.ppf(0.999, df=4)


def test_cohort_indices_distinct(drop):
    _, _, _, cohort, _ = drop
    assert len(set(cohort.bs_indices.tolist())) == cohort.k
    assert len(set(cohort.ue_indices.tolist())) == cohort.k
    # every pair respects the primary association
    _, _, primary_bs, _, _ = drop
    for b, u in zip(cohort.bs_indices, cohort.ue_indices):
        assert primary_bs[u] == b


def test_cohort_skips_unoccupied_bs():
    bs = np.array([[0.0, 0.0], [9.0, 9.0]])
    ue = np.array([[0.2, 0.0]])
    cohort = select_cohort(associate(bs, ue), np.random.default_rng(0))
    assert cohort.k == 1  # unoccupied BS skipped


def test_split_cluster_superset_radius(rng):
    bs = sample_ppp(0.3, Region(10.0, 10.0), rng)
    inside = split_cluster(bs, (5.0, 5.0), radius=20.0)
    assert inside.shape == (len(bs),)
    assert np.all(inside)


def test_split_cluster_partition():
    # the mask is one flag per BS, in BS order; a BS exactly at the radius is inside
    bs = np.array([[5.0, 5.0], [8.0, 5.0], [5.0, 2.0], [8.5, 5.0], [9.0, 9.0]])
    inside = split_cluster(bs, (5.0, 5.0), radius=3.0)
    assert inside.dtype == bool
    assert inside.tolist() == [True, True, True, False, False]


@pytest.mark.parametrize("radius,side,expected", [(4.0, 10.0, 15.08), (8.0, 20.0, 60.3)])
def test_split_cluster_mean_count(rng, radius, side, expected):
    region = Region(side, side)
    counts = [np.count_nonzero(split_cluster(sample_ppp(0.3, region, rng), region.center, radius))
              for _ in range(1000)]
    se = np.sqrt(expected / len(counts))
    assert abs(np.mean(counts) - expected) < 4 * se


def test_split_cluster_bad_radius(rng):
    bs = sample_ppp(0.3, Region(10.0, 10.0), rng)
    with pytest.raises(ValueError):
        split_cluster(bs, (5.0, 5.0), radius=0.0)

import tracemalloc

import numpy as np
import pytest

from cloudradio import (Association, ClusterSplit, Cohort, NoiseModel, Region, associate,
                        build_channel, inter_cluster_interference, sample_ppp, select_cohort,
                        take_partial_csi)
from cloudradio.channel import MIN_DISTANCE_KM, diagonal_dominance_fraction, ue_bs_distances
from cloudradio.geometry import point_distances


def _cohort(k):
    return Cohort(bs_indices=np.arange(k), ue_indices=np.arange(k))


def test_pathloss_exponent_law(rng):
    # doubling every distance divides each |entry| by 2^(alpha/2) = 4 at alpha=4
    z = np.array([[1.0, 2.0], [2.5, 1.5]])
    h1 = build_channel(_cohort(2), z, 1.0, 4.0, np.random.default_rng(9))
    h2 = build_channel(_cohort(2), 2 * z, 1.0, 4.0, np.random.default_rng(9))
    assert np.allclose(np.abs(h1.entries) / np.abs(h2.entries), 4.0)


def test_fade_power_normalization(rng):
    # unit distances strip the path loss, leaving E|h|^2 = 1/mu
    for mu in (1.0, 2.5):
        H = build_channel(_cohort(100), np.ones((100, 100)), mu, 4.0, rng)
        assert abs(np.mean(np.abs(H.entries) ** 2) - 1.0 / mu) < 0.03 / mu


def test_zero_distance_clamped():
    z = np.array([[0.0, 3.0], [3.0, 1.0]])
    H = build_channel(_cohort(2), z, 1.0, 4.0, np.random.default_rng(1))
    assert np.all(np.isfinite(H.entries))
    # clamped magnitude corresponds to 1 m, not infinity
    assert np.abs(H.entries[0, 0]) < 2.0 * MIN_DISTANCE_KM ** -2


def test_build_channel_parameter_errors(rng):
    z = np.eye(2) + 1.0
    with pytest.raises(ValueError):
        build_channel(_cohort(2), z, 1.0, 2.0, rng)  # alpha must exceed 2
    with pytest.raises(ValueError):
        build_channel(_cohort(2), z, 0.0, 4.0, rng)
    # diagonal not the row minimum: cohort contradicts nearest-BS association
    bad = np.array([[2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        build_channel(_cohort(2), bad, 1.0, 4.0, rng)


def test_distance_dominance_of_diagonal(drop):
    _, _, assoc, cohort, H = drop
    z = ue_bs_distances(assoc, cohort.ue_indices, cohort.bs_indices)
    assert np.all(np.diag(z) <= z.min(axis=1) + 1e-12)
    # the channel keeps the clamped block it was drawn over, equal to the
    # same block of the full distance matrix
    dense = point_distances(assoc.ue_points[:, None, :], assoc.bs_points[None, :, :])
    block = np.maximum(dense[np.ix_(cohort.ue_indices, cohort.bs_indices)], MIN_DISTANCE_KM)
    assert np.array_equal(H.distances, block)


def test_drop_memory_does_not_grow_as_ue_times_bs():
    # a 40 x 40 km drop: 444 BSs and 4,767 UEs.  The full UE-by-BS matrix
    # and its difference array alone take about 51 MB; the cohort channel's
    # own k x k blocks (k = 441) peak near 9.5 MB
    rng = np.random.default_rng(3)
    region = Region(40.0, 40.0)
    bs = sample_ppp(0.3, region, rng)
    ue = sample_ppp(3.0, region, rng)
    tracemalloc.start()
    try:
        assoc = associate(bs, ue)
        cohort = select_cohort(assoc, rng)
        H = build_channel(cohort, assoc, 1.0, 4.0, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H.k == cohort.k > 400
    assert peak < 12e6


def test_magnitude_dominance_is_only_statistical(rng, drop):
    _, _, _, _, H = drop
    frac = diagonal_dominance_fraction(H)
    assert 0.0 <= frac <= 1.0


def test_partial_csi_full_budget_is_identity(drop):
    _, _, _, _, H = drop
    known = take_partial_csi(H, H.k)
    assert np.array_equal(known, H.entries)


def test_partial_csi_single_budget_keeps_row_argmax(rng):
    H = build_channel(_cohort(4), np.ones((4, 4)) + np.eye(4) * -0.5, 1.0, 4.0, rng)
    known = take_partial_csi(H, 1)
    for i in range(4):
        j = np.argmax(np.abs(H.entries[i]))
        row = known[i].copy()
        assert row[j] == H.entries[i, j]
        row[j] = 0
        assert np.all(row == 0)


def test_partial_csi_zero_pattern_matches_sort_oracle(rng):
    k, l = 5, 3
    H = build_channel(_cohort(k), np.ones((k, k)) - 0.5 * np.eye(k), 1.0, 4.0, rng)
    known = take_partial_csi(H, l)
    for i in range(k):
        keep = set(np.argsort(np.abs(H.entries[i]))[::-1][:l].tolist())
        nz = set(np.flatnonzero(known[i]).tolist())
        assert nz == keep
        for j in nz:
            assert known[i, j] == H.entries[i, j]
    assert np.count_nonzero(known) == k * l


def test_partial_csi_budget_range(drop):
    *_, H = drop
    with pytest.raises(ValueError):
        take_partial_csi(H, 0)
    with pytest.raises(ValueError):
        take_partial_csi(H, H.k + 1)


def interference_per_ue(split, ue_indices, distances, mu, alpha, rng):
    """Reference I_r: one draw of out-of-cluster fades per UE, in UE order."""
    out = []
    for u in ue_indices:
        if split.out_cluster.size == 0:
            out.append(0.0)
            continue
        z = np.maximum(distances[u, split.out_cluster], MIN_DISTANCE_KM)
        fades = rng.exponential(1.0 / mu, size=split.out_cluster.size)
        out.append(float(np.sum(fades * z ** (-alpha))))
    return np.array(out)


def test_inter_cluster_empty_out_set(rng):
    split = ClusterSplit(in_cluster=np.array([0, 1]), out_cluster=np.array([], dtype=int),
                         radius=5.0)
    state = rng.bit_generator.state
    val = inter_cluster_interference(split, [0], np.ones((1, 2)), 1.0, 4.0, rng)
    assert np.array_equal(val, [0.0])
    assert rng.bit_generator.state == state  # nothing drawn


def test_inter_cluster_single_interferer_mean(rng):
    # one interferer at 1 km: E[I_r] = 1/mu
    split = ClusterSplit(in_cluster=np.array([0]), out_cluster=np.array([1]), radius=1.0)
    samples = inter_cluster_interference(split, np.zeros(20000, dtype=int),
                                         np.array([[0.5, 1.0]]), 1.0, 4.0, rng)
    assert samples.shape == (20000,)
    assert abs(np.mean(samples) - 1.0) < 0.03


def test_inter_cluster_monotone_in_radius(rng):
    # same fade draw per radius (fixed substream): I_r can only shrink as the
    # cluster grows
    n_bs = 40
    pos = rng.uniform(0, 10, (n_bs, 2))
    ued = np.hypot(pos[:, 0] - 5.0, pos[:, 1] - 5.0)
    distances = ued[None, :]
    center_d = ued
    for trial in range(200):
        seed = 1000 + trial
        last = np.inf
        for radius in (2.0, 4.0, 6.0, 8.0):
            inside = center_d <= radius
            split = ClusterSplit(np.flatnonzero(inside), np.flatnonzero(~inside), radius)
            val = inter_cluster_interference(split, [0], distances, 1.0, 4.0,
                                             np.random.default_rng(seed))[0]
            assert val <= last + 1e-12
            last = val


@pytest.mark.parametrize("n_bs, radius", [(12, 3.0), (300, 2.0), (300, 9.0), (5, 20.0)])
def test_inter_cluster_batch_matches_per_ue_loop(n_bs, radius):
    # one (k_in, n_out) fade array equals k_in per-UE draws, bit for bit
    geo = np.random.default_rng(n_bs)
    bs = geo.uniform(0.0, 10.0, (n_bs, 2))
    assoc = Association(primary_bs=np.zeros(40, dtype=np.intp),
                        ue_points=geo.uniform(0.0, 10.0, (40, 2)), bs_points=bs)
    inside = np.hypot(bs[:, 0] - 5.0, bs[:, 1] - 5.0) <= radius
    split = ClusterSplit(np.flatnonzero(inside), np.flatnonzero(~inside), radius)
    ues = np.arange(0, assoc.n_ue, 3)
    dense = point_distances(assoc.ue_points[:, None, :], bs[None, :, :])
    for mu, alpha in [(1.0, 4.0), (2.5, 3.0)]:
        fast, slow = np.random.default_rng(11), np.random.default_rng(11)
        got = inter_cluster_interference(split, ues, assoc, mu, alpha, fast)
        ref = interference_per_ue(split, ues, dense, mu, alpha, slow)
        assert np.array_equal(got, ref)
        assert fast.random() == slow.random()


def test_noise_model():
    n = NoiseModel.from_snr_db(10.0)
    assert n.sigma_sq == pytest.approx(0.1)
    assert NoiseModel.from_snr_db(0.0).sigma_sq == pytest.approx(1.0)
    with pytest.raises(ValueError):
        NoiseModel(sigma_sq=0.0, snr_db=np.inf)


def test_channel_csv_shape(tmp_path, drop):
    *_, H = drop
    path = tmp_path / "H.csv"
    H.to_csv(path)
    raw = np.loadtxt(path, delimiter=",", ndmin=2)
    assert raw.shape == (H.k, 2 * H.k)
    assert np.allclose(raw[:, 0::2] + 1j * raw[:, 1::2], H.entries)

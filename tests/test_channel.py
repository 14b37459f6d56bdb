import math
import tracemalloc

import numpy as np
import pytest

from cloudradio import (Region, associate, build_channel, inter_cluster_interference,
                        sample_ppp, select_cohort, split_cluster, take_partial_csi)
from cloudradio.channel import MIN_DISTANCE_KM, sigma_sq_from_snr_db
from cloudradio.geometry import distance_block, point_distances
from cloudradio.harness import _write_channel_csv

from conftest import random_complex


def test_pathloss_exponent_law(rng):
    # doubling every distance divides each |entry| by 2^(alpha/2) = 4 at alpha=4
    z = np.array([[1.0, 2.0], [2.5, 1.5]])
    h1 = build_channel(z, 4.0, np.random.default_rng(9))
    h2 = build_channel(2 * z, 4.0, np.random.default_rng(9))
    assert np.allclose(np.abs(h1) / np.abs(h2), 4.0)


def test_fade_power_normalization(rng):
    # unit distances strip the path loss, leaving E|h|^2 = 1
    H = build_channel(np.ones((100, 100)), 4.0, rng)
    assert abs(np.mean(np.abs(H) ** 2) - 1.0) < 0.03


def test_zero_distance_clamped():
    z = np.array([[0.0, 3.0], [3.0, 1.0]])
    H = build_channel(z, 4.0, np.random.default_rng(1))
    assert np.all(np.isfinite(H))
    # clamped magnitude corresponds to 1 m, not infinity
    assert np.abs(H[0, 0]) < 2.0 * MIN_DISTANCE_KM ** -2


def test_build_channel_parameter_errors(rng):
    z = np.eye(2) + 1.0
    with pytest.raises(ValueError):
        build_channel(z, 2.0, rng)  # alpha must exceed 2
    # diagonal not the row minimum: cohort contradicts nearest-BS association
    bad = np.array([[2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        build_channel(bad, 4.0, rng)


def test_distance_dominance_of_diagonal(drop):
    bs, ue, _, cohort, H = drop
    z = distance_block(ue[cohort.ue_indices], bs[cohort.bs_indices])
    assert np.all(np.diag(z) <= z.min(axis=1) + 1e-12)
    # the block equals the same block of the full distance matrix, bit for bit
    dense = point_distances(ue[:, None, :], bs[None, :, :])
    assert np.array_equal(z, dense[np.ix_(cohort.ue_indices, cohort.bs_indices)])


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
        cohort = select_cohort(associate(bs, ue), rng)
        z = distance_block(ue[cohort.ue_indices], bs[cohort.bs_indices])
        H = build_channel(z, 4.0, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(H) == cohort.k > 400
    assert peak < 12e6


def build_channel_two_temporaries(z, alpha, rng):
    """Reference channel: the complex formula over full k x k temporaries."""
    k = z.shape[0]
    h = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) * np.sqrt(0.5)
    return h * z ** (-alpha / 2.0)


@pytest.mark.parametrize("k", [1, 2, 30, 441])
def test_build_channel_matches_complex_formula(k):
    # filled in place, the channel must keep the complex formula's bits and
    # leave the generator where the formula leaves it
    for seed in range(200):
        gen = np.random.default_rng(seed)
        z = gen.uniform(0.0, 20.0, (k, k))
        np.fill_diagonal(z, z.min(axis=1) * gen.uniform(0.0, 1.0, k))
        alpha = 4.0 if seed % 2 else gen.uniform(2.5, 6.0)
        got_rng, want_rng = (np.random.default_rng(seed + 1000) for _ in range(2))
        H = build_channel(z, alpha, got_rng)
        want = build_channel_two_temporaries(np.maximum(z, MIN_DISTANCE_KM), alpha, want_rng)
        assert H.tobytes() == want.tobytes(), seed
        assert got_rng.random() == want_rng.random()


def test_partial_csi_full_budget_is_identity(drop):
    _, _, _, _, H = drop
    known = take_partial_csi(H, len(H))
    assert np.array_equal(known, H)


def test_partial_csi_single_budget_keeps_row_argmax(rng):
    H = build_channel(np.ones((4, 4)) + np.eye(4) * -0.5, 4.0, rng)
    known = take_partial_csi(H, 1)
    for i in range(4):
        j = np.argmax(np.abs(H[i]))
        row = known[i].copy()
        assert row[j] == H[i, j]
        row[j] = 0
        assert np.all(row == 0)


def test_partial_csi_zero_pattern_matches_sort_oracle(rng):
    k, l = 5, 3
    H = build_channel(np.ones((k, k)) - 0.5 * np.eye(k), 4.0, rng)
    known = take_partial_csi(H, l)
    for i in range(k):
        keep = set(np.argsort(np.abs(H[i]))[::-1][:l].tolist())
        nz = set(np.flatnonzero(known[i]).tolist())
        assert nz == keep
        for j in nz:
            assert known[i, j] == H[i, j]
    assert np.count_nonzero(known) == k * l


def test_partial_csi_budget_range(drop):
    *_, H = drop
    with pytest.raises(ValueError):
        take_partial_csi(H, 0)
    with pytest.raises(ValueError):
        take_partial_csi(H, len(H) + 1)


def test_inter_cluster_empty_out_set():
    # a cluster that holds every BS leaves an empty block: every UE gets 0
    H = random_complex(np.random.default_rng(1), 4)
    assert np.array_equal(inter_cluster_interference(H[:, :0]), np.zeros(4))
    assert inter_cluster_interference(H[:0, :]).shape == (0,)


def test_inter_cluster_single_interferer_mean(rng):
    # one interferer at 1 km: E[I_r] = E|h|^2 = 1, the law of the exponential
    # fades the block replaced; every column of a unit-distance channel is one
    H = build_channel(np.ones((150, 150)), 4.0, rng)
    samples = np.concatenate([inter_cluster_interference(H[:, [j]]) for j in range(150)])
    assert samples.shape == (22500,)
    assert abs(np.mean(samples) - 1.0) < 0.03


def test_inter_cluster_monotone_in_radius(drop):
    # on one cohort channel a larger cluster leaves a subset of the
    # out-of-cluster BSs, so no UE's power grows; a disc without BSs leaves
    # every link and one with all of them none
    bs, _, _, cohort, H = drop

    def out_block(radius):  # sliced as the harness slices it, C-contiguous
        disc = split_cluster(bs[cohort.bs_indices], (5.0, 5.0), radius)
        return H[np.ix_(np.arange(len(H)), np.flatnonzero(~disc))]

    last = inter_cluster_interference(H)
    assert out_block(1e-9).shape == H.shape
    assert np.array_equal(inter_cluster_interference(out_block(1e-9)), last)
    shrank = False
    for radius in (2.0, 4.0, 6.0, 8.0, 100.0):
        power = inter_cluster_interference(out_block(radius))
        assert np.all(power <= last * (1.0 + 1e-12)), radius
        shrank |= bool(np.any(power < last))
        last = power
    assert shrank and np.array_equal(last, np.zeros(len(H)))


@pytest.mark.parametrize("n_bs, radius", [(12, 3.0), (300, 2.0), (300, 9.0), (5, 20.0)])
def test_inter_cluster_batch_matches_per_ue_loop(n_bs, radius):
    # the block's power is each row's sum of |h|^2, held against a math.fsum
    # per UE over its out-of-cluster links.  Bound, u = 2**-53: a term
    # |h|**2 errs by 5u (hypot within 1 ulp, then squared), numpy's sum of n
    # non-negative terms by (n - 1)u, and the reference by 2u (each part's
    # square and the fsum round once): (n + 6)u, and 2u for second order
    geo = np.random.default_rng(n_bs)
    bs = geo.uniform(0.0, 10.0, (n_bs, 2))
    ue = geo.uniform(0.0, 10.0, (40, 2))
    out_cluster = np.flatnonzero(np.hypot(bs[:, 0] - 5.0, bs[:, 1] - 5.0) > radius)
    z = distance_block(ue[::3], bs[out_cluster])
    h = (geo.standard_normal(z.shape) + 1j * geo.standard_normal(z.shape)) * np.sqrt(0.5)
    n = out_cluster.size
    for alpha in (4.0, 3.0):
        H_out = h * z ** (-alpha / 2.0)
        got = inter_cluster_interference(H_out)
        want = np.array([math.fsum([*(row.real ** 2), *(row.imag ** 2)]) for row in H_out])
        assert got.shape == (len(z),)
        assert np.all(np.abs(got - want) <= (n + 8) * 2.0**-53 * want), alpha


def test_noise_model():
    assert sigma_sq_from_snr_db(10.0) == pytest.approx(0.1)
    assert sigma_sq_from_snr_db(0.0) == 1.0
    # the expression every sigma^2 of a run comes from, so its bits
    for snr in (-6.0, 3.0, 10.0, 45.0):
        assert sigma_sq_from_snr_db(snr) == 10.0 ** (-snr / 10.0)


def test_channel_csv_shape(tmp_path, drop):
    *_, H = drop
    path = tmp_path / "H.csv"
    _write_channel_csv(path, H)
    raw = np.loadtxt(path, delimiter=",", ndmin=2)
    assert raw.shape == (len(H), 2 * len(H))
    assert np.allclose(raw[:, 0::2] + 1j * raw[:, 1::2], H)

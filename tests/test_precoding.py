import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudradio import (clustered_rates, conventional_rates, lq_factor, mmse_rates, smf_rate,
                        take_partial_csi, tic_rate, uplink_sic_rates, zfdpc_partial_rates,
                        zfdpc_rates)
from cloudradio.channel import sigma_sq_from_snr_db

from conftest import random_complex, standard_drop

LOG2_11 = np.log2(11.0)


def brute_force_det(H):
    """Cofactor-expansion determinant, k <= 3; independent of any factorization."""
    k = H.shape[0]
    if k == 1:
        return H[0, 0]
    if k == 2:
        return H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0]
    return (H[0, 0] * (H[1, 1] * H[2, 2] - H[1, 2] * H[2, 1])
            - H[0, 1] * (H[1, 0] * H[2, 2] - H[1, 2] * H[2, 0])
            + H[0, 2] * (H[1, 0] * H[2, 1] - H[1, 1] * H[2, 0]))


def test_conventional_no_interferer():
    H = np.eye(1, dtype=complex)
    r = conventional_rates(H, sigma_sq_from_snr_db(10.0))
    assert r[0] == pytest.approx(LOG2_11, abs=1e-12)


def test_conventional_unit_sir_limit():
    H = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    r = conventional_rates(H, 1e-15)
    assert np.allclose(r, 1.0, atol=1e-9)


def test_zfdpc_identity_channel():
    r = zfdpc_rates(np.eye(5, dtype=complex), sigma_sq_from_snr_db(10.0))
    assert np.allclose(r, LOG2_11)


def test_zfdpc_degenerate_stream_rate_zero():
    H = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    r = zfdpc_rates(H, 0.1)
    assert r[1] == 0.0


def test_uplink_identity_matches_downlink():
    H = np.eye(4, dtype=complex)
    assert np.allclose(uplink_sic_rates(H, 0.1), zfdpc_rates(H, 0.1))


def test_uplink_diagonal_log_sums_agree(rng):
    d = np.abs(rng.standard_normal(4)) + 0.2
    H = np.diag(d).astype(complex)
    up = uplink_sic_rates(H, 0.1)
    dn = zfdpc_rates(H, 0.1)
    assert np.allclose(np.sort(up), np.sort(dn))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_duality_determinant_sum_rate(rng, k):
    # Pi l_ii = |det H| = |det H^T| forces equal high-SNR sum rates for the
    # downlink and uplink orderings; checked against the cofactor determinant
    s2 = 0.1
    for _ in range(25):
        H = random_complex(rng, k)
        dn = lq_factor(H).stream_gains
        up = lq_factor(H.T).stream_gains
        det = abs(brute_force_det(H))
        assert abs(np.prod(dn) - det) < 1e-6 * det
        assert abs(np.prod(up) - det) < 1e-6 * det
        sum_dn = np.sum(np.log2(dn**2 / s2))
        sum_up = np.sum(np.log2(up**2 / s2))
        assert abs(sum_dn - sum_up) < 1e-6


def test_partial_full_budget_reduces_to_zfdpc(rng):
    H = random_complex(rng, 6)
    view = take_partial_csi(H, 6)
    full = zfdpc_rates(H, 0.1)
    part = zfdpc_partial_rates(H, view, 0.1)
    assert np.max(np.abs(full - part)) < 1e-9


def test_partial_mean_rate_monotone_in_budget(rng):
    sums = {l: 0.0 for l in (2, 6, 30)}
    for _ in range(60):
        *_, H = standard_drop(rng)
        for l in sums:
            view = take_partial_csi(H, min(l, len(H)))
            sums[l] += zfdpc_partial_rates(H, view, 0.1).mean()
    assert sums[2] < sums[6] < sums[30]


def test_mmse_identity_channel():
    r = mmse_rates(np.eye(3, dtype=complex), sigma_sq_from_snr_db(10.0))
    assert np.allclose(r, LOG2_11, atol=1e-10)


def test_mmse_noise_dominated_limit(rng):
    H = random_complex(rng, 4)
    assert np.all(mmse_rates(H, 1e9) < 1e-6)


def test_mmse_matches_per_row_uplink_sinr():
    # uplink streams are the UEs (rows of H): stream i has signature h_i = row
    # i, and SINR_i = h_i^dagger (sum_{j != i} h_j h_j^dagger + s2 I)^-1 h_i.
    # The matrix is deliberately far from symmetric, so a receiver built on
    # the columns of H (the downlink BS signatures) gives different rates.
    H = np.array([[1.0 + 0.2j, 0.9 - 0.4j, 0.05j],
                  [0.1, 0.7 + 0.1j, -1.2 + 0.3j],
                  [0.02 - 0.01j, 0.3j, 0.8]])
    s2 = 0.1
    expected = []
    for i in range(3):
        h = H[i][:, None]
        others = np.delete(H, i, axis=0).T
        R = others @ others.conj().T + s2 * np.eye(3)
        expected.append(np.log2(1.0 + np.real(h.conj().T @ np.linalg.solve(R, h))[0, 0]))
    assert np.max(np.abs(mmse_rates(H, s2) - expected)) < 1e-9


def test_tic_direct_formula():
    H = np.eye(1, dtype=complex)
    assert tic_rate(H, 0.1)[0] == pytest.approx(LOG2_11, abs=1e-12)


def test_smf_single_stream_equals_tic():
    H = np.array([[0.8 + 0.3j]])
    assert smf_rate(H, 0.1, 1)[0] == pytest.approx(tic_rate(H, 0.1)[0])


def test_smf_full_combining_row_energy(rng):
    H = random_complex(rng, 5)
    expected = np.log2(1.0 + np.sum(np.abs(H) ** 2, axis=1) / 0.1)
    assert np.allclose(smf_rate(H, 0.1, 5), expected)


def test_smf_order_validated(rng):
    H = random_complex(rng, 3)
    with pytest.raises(ValueError):
        smf_rate(H, 0.1, 0)
    with pytest.raises(ValueError):
        smf_rate(H, 0.1, 4)


def test_scheme_ordering_invariant(rng):
    # conventional <= tic <= smf(l=k), stream by stream, every drop
    for _ in range(5):
        *_, H = standard_drop(rng)
        noise = sigma_sq_from_snr_db(10.0)
        conv = conventional_rates(H, noise)
        tic = tic_rate(H, noise)
        smf = smf_rate(H, noise, len(H))
        assert np.all(conv <= tic + 1e-12)
        assert np.all(tic <= smf + 1e-12)


def test_clustered_no_interference_matches_zfdpc(rng):
    H = random_complex(rng, 4)
    base = zfdpc_rates(H, 0.1)
    assert np.allclose(clustered_rates(H, np.zeros(4), 0.1), base)


def test_clustered_partial_variant(rng):
    H = random_complex(rng, 5)
    got = clustered_rates(H, np.zeros(5), 0.1, csi_l=5)
    assert np.allclose(got, zfdpc_rates(H, 0.1), atol=1e-9)
    noisy = clustered_rates(H, np.full(5, 10.0), 0.1, csi_l=3)
    assert np.all(noisy <= clustered_rates(H, np.zeros(5), 0.1, csi_l=3) + 1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), c=st.floats(1.0, 20.0))
def test_zfdpc_scale_response(seed, c):
    H = random_complex(np.random.default_rng(seed), 4)
    base = zfdpc_rates(H, 0.1)
    boosted = zfdpc_rates(c * H, 0.1)
    assert np.all(boosted >= base - 1e-12)


def test_rates_non_negative_finite(rng):
    *_, H = standard_drop(rng)
    noise = sigma_sq_from_snr_db(10.0)
    for fn in (conventional_rates, zfdpc_rates, uplink_sic_rates, mmse_rates, tic_rate):
        r = fn(H, noise)
        assert np.all(r >= 0) and np.all(np.isfinite(r))


@pytest.mark.parametrize("rates", [
    conventional_rates,
    zfdpc_rates,
    uplink_sic_rates,
    mmse_rates,
    tic_rate,
    lambda H, s2: smf_rate(H, s2, 2),
    lambda H, s2: zfdpc_partial_rates(H, take_partial_csi(H, 2), s2),
    lambda H, s2: clustered_rates(H, np.linspace(0.0, 0.3, len(H)), s2),
    lambda H, s2: clustered_rates(H, np.linspace(0.0, 0.3, len(H)), s2, csi_l=2),
])
def test_noise_vector_rows_equal_scalar_calls(rng, rates):
    *_, H = standard_drop(rng)
    sigma_sq = np.array([sigma_sq_from_snr_db(s) for s in (-6.0, 0.0, 10.0, 45.0)])
    sweep = rates(H, sigma_sq)
    assert sweep.shape == (sigma_sq.size, len(H))
    for j, s2 in enumerate(sigma_sq):
        assert np.array_equal(sweep[j], rates(H, float(s2)))

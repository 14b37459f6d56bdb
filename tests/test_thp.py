import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudradio import build_cdf, lq_factor, qam_constellation, thp_precode
from cloudradio.channel import sigma_sq_from_snr_db
from cloudradio.thp import SUPPORTED_ORDERS, draw_symbols, drop_power_sample, select_modulation

from conftest import random_complex


def symmetric_modulo(x, tau):
    """Wrap real and imaginary parts independently into [-tau/2, tau/2)."""
    # (re, im) pairs of a float view, each wrapped by the same np.mod
    parts = np.asarray(x, dtype=complex)[..., None].view(np.float64)
    tau = np.asarray(tau)[..., None]
    wrapped = np.mod(parts + tau / 2.0, tau) - tau / 2.0
    return wrapped.view(complex)[..., 0][()]


def thp_loopback(L, u, taus):
    """Recover symbols over the noiseless channel y = L u, u of shape (k,) or (batch, k).

    recovered_i = mod_tau_i(y_i / l_ii); with correct precoding this equals
    the data exactly, which is the precoder's primary correctness property.
    """
    y = (L @ np.transpose(u)).T
    return symmetric_modulo(y / np.real(np.diag(L)), taus)


def bases(orders):
    """Each stream's modulo base, read from the constellation oracle."""
    return np.array([qam_constellation(M)[1] for M in orders])


def power_cdf(facts, sigma_sq, mode, rng):
    """Empirical CDF of the total THP power, one sample per drop from one generator."""
    return build_cdf([drop_power_sample(f, sigma_sq, [mode], rng)[mode][0] for f in facts])


def random_lower(rng, k, diag_boost=1.0):
    L = np.tril(random_complex(rng, k))
    np.fill_diagonal(L, np.abs(np.diag(L)) + diag_boost)
    return L


@pytest.mark.parametrize("M", SUPPORTED_ORDERS)
def test_constellation_unit_energy(M):
    points, _ = qam_constellation(M)
    assert len(points) == M
    assert abs(np.mean(np.abs(points) ** 2) - 1.0) < 1e-12


@pytest.mark.parametrize("M", SUPPORTED_ORDERS)
def test_modulo_region_covers_constellation(M):
    points, tau = qam_constellation(M)
    assert isinstance(tau, float)
    assert np.all(np.abs(points.real) < tau / 2.0)
    assert np.all(np.abs(points.imag) < tau / 2.0)
    # tau = 2 * (max coordinate + half grid step)
    step = np.sqrt(6.0 / (M - 1))
    assert tau == pytest.approx(2.0 * (points.real.max() + step / 2.0))


def test_unsupported_order_rejected():
    with pytest.raises(ValueError):
        qam_constellation(8)


def test_modulation_selection_thresholds():
    # boundaries: C = 7 stays at 16, and C = 4 at 4
    assert select_modulation([8.0, 7.0, 5.5, 4.0, 0.0]).tolist() == [64, 16, 16, 4, 4]
    assert select_modulation(7.5) == 64
    with pytest.raises(ValueError):
        select_modulation(-1.0)
    with pytest.raises(ValueError):
        select_modulation([5.0, -1.0])


@settings(max_examples=100, deadline=None)
@given(re=st.floats(-50, 50), im=st.floats(-50, 50), tau=st.floats(0.5, 10))
def test_modulo_idempotent(re, im, tau):
    x = re + 1j * im
    once = symmetric_modulo(x, tau)
    twice = symmetric_modulo(once, tau)
    assert abs(once - twice) < 1e-12
    assert -tau / 2 <= once.real < tau / 2 + 1e-12
    assert -tau / 2 <= once.imag < tau / 2 + 1e-12


@settings(max_examples=100, deadline=None)
@given(re=st.floats(-3, 3), im=st.floats(-3, 3),
       a=st.integers(-5, 5), b=st.integers(-5, 5))
@example(re=0.0, im=2.9999999999999996, a=0, b=1)
@example(re=2.9999999999999996, im=0.0, a=1, b=0)
def test_modulo_invariant_under_lattice_shifts(re, im, a, b):
    # x + tau*(a + ib) may round onto the wrap seam (2.9999999999999996 + 2
    # is 5.0), where the two results are opposite edges of the same torus
    # point; so compare them modulo the lattice, measured independently of
    # symmetric_modulo, and check each lies in the canonical square
    tau = 2.0
    x = re + 1j * im
    shifted = symmetric_modulo(x + tau * (a + 1j * b), tau)
    base = symmetric_modulo(x, tau)
    for w in (shifted, base):
        assert -tau / 2 <= w.real <= tau / 2
        assert -tau / 2 <= w.imag <= tau / 2
    d = shifted - base
    assert abs(d - tau * np.round(d / tau)) < 1e-9


def test_precode_diagonal_is_transparent(rng):
    orders = np.full(5, 16)
    data = draw_symbols(orders, rng, batch=3)
    u = thp_precode(np.eye(5), data, bases(orders))
    assert np.allclose(u, data)


def test_precode_single_stream_identity(rng):
    orders = [4]
    data = draw_symbols(orders, rng)
    assert np.allclose(thp_precode(np.array([[2.0]]), data, bases(orders)), data)


def test_precode_outputs_stay_in_modulo_region(rng):
    orders = np.full(4, 4)
    taus = bases(orders)
    for _ in range(200):
        L = random_lower(rng, 4, diag_boost=0.2)
        u = thp_precode(L, draw_symbols(orders, rng, batch=50), taus)
        assert np.all(np.abs(u.real) <= taus / 2 + 1e-12)
        assert np.all(np.abs(u.imag) <= taus / 2 + 1e-12)


def test_precode_rejects_zero_diagonal(rng):
    L = np.array([[1.0, 0.0], [1.0, 0.0]])
    orders = [4, 4]
    with pytest.raises(ValueError):
        thp_precode(L, draw_symbols(orders, rng), bases(orders))


def test_degenerate_stream_transmits_nothing(rng):
    # row 2 repeats row 1, so stream 2 has an exactly zero diagonal; like the
    # rate schemes' zero rate, THP gives it zero power instead of failing
    H = np.eye(3)
    H[2] = H[1]
    fact = lq_factor(H)
    assert fact.degenerate.tolist() == [False, False, True]
    orders = np.full(3, 16)
    data = draw_symbols(orders, rng)
    u = thp_precode(fact.L, data, bases(orders), fact.degenerate)[0]
    assert u[2] == 0
    assert np.allclose(u[:2], data[0, :2], atol=1e-12)
    # each QPSK symbol has unit energy, so the two live streams total 2
    assert drop_power_sample(fact, 0.1, [4], rng)[4][0] == pytest.approx(2.0, abs=1e-12)
    powers = drop_power_sample(fact, [1.0, 0.01], ["adaptive", 4, 64], seed=3)
    assert np.allclose(powers[4], 2.0, atol=1e-12)
    assert all(np.all(np.isfinite(p)) for p in powers.values())


def precode_by_symmetric_modulo(L, data, taus, off):
    """Reference THP: the feedback product and one symmetric_modulo call per stream."""
    k = L.shape[0]
    diag = np.real(np.diag(L))
    taus = np.asarray(taus).T
    u = np.array(data, dtype=complex, order="C")
    u[:, off] = 0.0
    for i in range(1, k):
        if not off[i]:
            feedback = u[:, :i] @ (L[i, :i] / diag[i])
            u[:, i] = symmetric_modulo(u[:, i] - feedback, taus[i])
    return u


def test_precode_batch_matches_symmetric_modulo_steps():
    # every k from 1 to 40, odd and even batches, shared and per-vector bases,
    # and streams with an exactly zero diagonal: the bits of every output
    gen = np.random.default_rng(11)
    table = bases(SUPPORTED_ORDERS)
    for k in range(1, 41):
        for batch in (0, 1, 2, 37, 200):
            L = np.tril(random_complex(gen, k)) * np.geomspace(1.0, 30.0, k)
            diag = np.abs(np.diag(L)) + 0.05
            off = gen.uniform(size=k) < 0.15
            diag[off] = 0.0
            np.fill_diagonal(L, diag)
            data = 3.0 * (gen.standard_normal((batch, k)) + 1j * gen.standard_normal((batch, k)))
            shared = table[gen.integers(len(table), size=k)]
            per_vector = table[gen.integers(len(table), size=(batch, k))]
            for taus in (shared, per_vector):
                got = thp_precode(L, data, taus, off)
                want = precode_by_symmetric_modulo(L, data, taus, off)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (k, batch)


def test_loopback_diagonal_trivial(rng):
    L = np.diag([1.0, 2.0, 0.5])
    taus = bases([64] * 3)
    data = draw_symbols([64] * 3, rng)
    rec = thp_loopback(L, thp_precode(L, data, taus), taus)
    assert np.max(np.abs(rec - data)) < 1e-12


def test_loopback_exact_recovery_16qam(rng):
    orders = np.full(3, 16)
    taus = bases(orders)
    for _ in range(100):
        L = random_lower(rng, 3, diag_boost=0.3)
        data = draw_symbols(orders, rng, batch=100)
        rec = thp_loopback(L, thp_precode(L, data, taus), taus)
        assert np.max(np.abs(rec - data)) < 1e-9
        # one vector at a time, as (k,) arrays
        assert np.max(np.abs(thp_loopback(L, thp_precode(L, data[:1], taus)[0], taus)
                             - data[0])) < 1e-9


def test_loopback_uses_factorization_object(rng):
    # a caller holding a factorization passes its L (and its degenerate mask)
    fact = lq_factor(random_complex(rng, 4))
    orders = np.full(4, 4)
    data = draw_symbols(orders, rng)
    u = thp_precode(fact.L, data, bases(orders), fact.degenerate)
    rec = thp_loopback(fact.L, u, bases(orders))
    assert np.max(np.abs(rec - data)) < 1e-9


def test_awgn_symbol_errors_decrease_with_snr(rng):
    # noisy loopback: y = L u + n; per-stream nearest-point decision after the
    # modulo; SER must be finite and shrink as the noise drops
    k = 4
    ser = {}
    for snr_db in (6.0, 16.0):
        sigma = np.sqrt(10 ** (-snr_db / 10.0))
        errors = trials = 0
        gen = np.random.default_rng(99)
        for _ in range(300):
            L = random_lower(gen, k, diag_boost=1.0)
            caps = np.log2(1.0 + np.abs(np.diag(L)) ** 2 / sigma**2)
            orders = select_modulation(caps)
            data = draw_symbols(orders, gen)[0]
            u = thp_precode(L, data[None], bases(orders))[0]
            y = L @ u + sigma * (gen.standard_normal(k) + 1j * gen.standard_normal(k)) / np.sqrt(2)
            rec = symmetric_modulo(y / np.real(np.diag(L)), bases(orders))
            for i, M in enumerate(orders):
                points, _ = qam_constellation(M)
                errors += np.argmin(np.abs(points - rec[i])) != np.argmin(np.abs(points - data[i]))
                trials += 1
        ser[snr_db] = errors / trials
    assert 0 <= ser[16.0] < ser[6.0] < 1


def test_draw_symbols_matches_per_stream_draws():
    # one rng.integers call over all streams must consume the generator as a
    # loop of per-stream calls does, up to and including the next draw
    orders = [4, 64, 16, 16, 4, 64, 16]
    for batch in (1, 7, 101):
        gen, ref_gen = np.random.default_rng(17), np.random.default_rng(17)
        got = draw_symbols(orders, gen, batch=batch)
        want = np.empty((batch, len(orders)), dtype=complex)
        for i, M in enumerate(orders):
            points, _ = qam_constellation(M)
            want[:, i] = points[ref_gen.integers(M, size=batch)]
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(float), want.view(float))
        assert gen.integers(1 << 62) == ref_gen.integers(1 << 62)
        assert gen.random() == ref_gen.random()


@pytest.mark.parametrize("M", SUPPORTED_ORDERS)
def test_bounded_draw_of_a_power_of_two_is_the_top_bits_of_a_wider_one(M):
    # the numpy contract draw_symbols rests on: for a power-of-two bound the
    # bounded draw never rejects a word and returns its top log2 M bits, so an
    # index below 64 shifted right by 6 - log2 M is the index below M, and the
    # generator ends in the same state
    shift = 6 - int(np.log2(M))
    for k in (1, 2, 29, 130):
        for seed in range(3):
            wide, narrow = np.random.default_rng(seed), np.random.default_rng(seed)
            got = wide.integers(64, size=(k, 100)) >> shift
            assert np.array_equal(got, narrow.integers(M, size=(k, 100))), (k, seed)
            assert wide.bit_generator.state == narrow.bit_generator.state, (k, seed)


def test_draw_symbols_on_a_stack_of_rows_matches_each_row_alone():
    # one draw serves every row of orders: row r is row r drawn alone from a
    # fresh generator, and the generator ends where that one-row draw leaves it
    gen = np.random.default_rng(5)
    for k in (1, 2, 29):
        rows = np.array(SUPPORTED_ORDERS)[gen.integers(len(SUPPORTED_ORDERS), size=(4, k))]
        rows[0] = 64
        for batch in (1, 7, 100):
            shared = np.random.default_rng(23)
            got = draw_symbols(rows, shared, batch)
            assert got.shape == (4, batch, k) and got.flags.c_contiguous
            for r, orders in enumerate(rows):
                alone = np.random.default_rng(23)
                want = draw_symbols(orders, alone, batch)
                assert np.array_equal(got[r].view(float), want.view(float)), (k, batch, r)
                assert shared.bit_generator.state == alone.bit_generator.state


def test_drop_power_sample_takes_a_generator_for_one_sample_only():
    # one draw serves every sample, so a Generator asked for several would
    # give them all the same symbols: it is refused, and a seed is not.  A
    # fixed order over a sweep is one sample, repeated
    fact = lq_factor(random_complex(np.random.default_rng(2), 4))
    for sigma_sq, modes in ((0.1, [4, 16]), ([1.0, 0.01], ["adaptive"])):
        gen = np.random.default_rng(3)
        state = gen.bit_generator.state
        with pytest.raises(ValueError, match="one sample"):
            drop_power_sample(fact, sigma_sq, modes, gen)
        assert gen.bit_generator.state == state
        drop_power_sample(fact, sigma_sq, modes, 3)
    for sigma_sq, mode in ((0.1, "adaptive"), ([1.0, 0.01], 4)):
        drop_power_sample(fact, sigma_sq, [mode], np.random.default_rng(3))


def test_power_cdf_degenerate_for_diagonal_qpsk(rng):
    facts = [lq_factor(np.eye(6)) for _ in range(120)]
    cdf = power_cdf(facts, sigma_sq_from_snr_db(10.0), 4, rng)
    # every QPSK symbol has unit energy, so each drop totals exactly k
    assert np.allclose(cdf.samples, 6.0, atol=1e-12)


def test_fixed4_power_dominates_adaptive(rng):
    facts = [lq_factor(random_complex(np.random.default_rng(3000 + i), 6) * 2.0)
             for i in range(150)]
    sigma_sq = sigma_sq_from_snr_db(10.0)
    fixed = power_cdf(facts, sigma_sq, 4, np.random.default_rng(1))
    adaptive = power_cdf(facts, sigma_sq, "adaptive", np.random.default_rng(1))
    grid = np.linspace(0, max(fixed.samples.max(), adaptive.samples.max()), 200)
    assert np.all(fixed.cdf_at(grid) <= adaptive.cdf_at(grid) + 0.02)
    assert fixed.mean >= adaptive.mean

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import zpotrf as potrf

from cloudradio import NumericalError, hpd_inverse, lq_factor, numerics

from conftest import random_complex


def gram_schmidt_lq(H):
    """Row-wise modified Gram-Schmidt oracle: H = L Q with diag(L) >= 0."""
    k = H.shape[0]
    L = np.zeros((k, k), dtype=complex)
    Q = np.zeros((k, k), dtype=complex)
    for i in range(k):
        v = H[i].astype(complex)
        for j in range(i):
            L[i, j] = v @ Q[j].conj()
            v = v - L[i, j] * Q[j]
        L[i, i] = np.linalg.norm(v)
        Q[i] = v / L[i, i]
    return L, Q


def test_identity_factorization():
    fact = lq_factor(np.eye(3, dtype=complex))
    assert np.allclose(fact.L, np.eye(3))
    assert np.allclose(fact.Q, np.eye(3))
    assert not fact.degenerate.any()


def test_diagonal_with_phase_absorption():
    H = np.diag([2j, 3.0 + 0j])
    fact = lq_factor(H)
    assert np.allclose(fact.L, np.diag([2.0, 3.0]), atol=1e-14)
    assert np.allclose(fact.Q, np.diag([1j, 1.0]), atol=1e-14)
    # permutation stability: exact at unit-roundoff scale for diagonal inputs
    assert np.max(np.abs(fact.L @ fact.Q - H)) < 1e-15


def test_matches_gram_schmidt_oracle(rng):
    for _ in range(50):
        H = random_complex(rng, 4)
        fact = lq_factor(H)
        Lg, Qg = gram_schmidt_lq(H)
        assert np.max(np.abs(fact.L - Lg)) < 1e-8
        assert np.max(np.abs(fact.Q - Qg)) < 1e-8


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 12), seed=st.integers(0, 2**31))
def test_factorization_invariants(k, seed):
    H = random_complex(np.random.default_rng(seed), k)
    fact = lq_factor(H)
    scale = np.linalg.norm(H)
    assert np.linalg.norm(fact.L @ fact.Q - H) <= 1e-10 * scale
    assert np.linalg.norm(fact.Q @ fact.Q.conj().T - np.eye(k)) <= 1e-10
    assert np.all(np.triu(fact.L, 1) == 0)
    d = np.diag(fact.L)
    assert np.all(d.imag == 0) and np.all(d.real >= 0)
    det = abs(np.linalg.det(H))
    assert abs(np.prod(d.real) - det) <= 1e-8 * max(det, 1e-30)


def test_degenerate_stream_flagged():
    H = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)  # rank 1
    fact = lq_factor(H)
    assert fact.degenerate[1]
    assert fact.stream_gains[1] == 0.0


def test_lq_factor_input_validation():
    for factor in (lq_factor, numerics.stream_gains):
        with pytest.raises(ValueError):
            factor(np.ones((2, 3)))
        with pytest.raises(ValueError):
            factor(np.array([[np.nan, 0], [0, 1]]))


def test_stream_gains_are_the_bits_of_lq_factor(rng):
    # the gains-only path (R of the QR alone) against the full factorization,
    # of H and of H^T as the uplink uses it; rows repeated to make degenerate
    # streams, and scaled rows so the gains span many orders of magnitude
    for k in (1, 2, 3, 8, 30, 60):
        for trial in range(10):
            H = random_complex(rng, k) * np.geomspace(1e-3, 1e3, k)[:, None]
            if k > 1 and trial % 2:
                H[-1] = H[0]
            for M in (H, H.T):
                want = lq_factor(M).stream_gains
                got = numerics.stream_gains(M)
                assert got.tobytes() == want.tobytes(), (k, trial)
    H = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)  # rank 1
    assert numerics.stream_gains(H)[1] == 0.0
    assert numerics.stream_gains(np.array([[3j]])).tolist() == [3.0]


def test_lq_factor_without_q_is_the_bits_of_the_full_factorization(rng):
    # q=False takes L from the R-only QR, the same Householder reduction: L and
    # the degenerate mask must be the full call's bits, with no Q formed
    for k in (1, 2, 9, 30):
        H = random_complex(rng, k) * np.geomspace(1e-3, 1e3, k)[:, None]
        if k > 2:
            H[2] = H[1]  # a degenerate stream
        full, bare = lq_factor(H), lq_factor(H, q=False)
        assert bare.Q is None
        assert bare.L.tobytes() == full.L.tobytes(), k
        assert bare.degenerate.tobytes() == full.degenerate.tobytes(), k
        assert bare.degenerate.any() == (k > 2)


def rotated_qr_factor(H, q):
    """Reference lq_factor: L = tril(R~^dagger), each column times conj(l_jj)/|l_jj| (1
    where l_jj is 0) by a full k x k product, then the diagonal set to |l_jj|."""
    Qt, Rt = np.linalg.qr(H.conj().T) if q else (None, np.linalg.qr(H.conj().T, mode="r"))
    L = np.tril(Rt.conj().T)
    d = np.diag(L)
    mag = np.abs(d)
    phase = np.where(mag > 0, d.conj() / np.where(mag > 0, mag, 1.0), 1.0)
    L = L * phase[None, :]
    np.fill_diagonal(L, mag)
    return L, None if Qt is None else phase.conj()[:, None] * Qt.conj().T


def test_lq_factor_is_the_bits_of_the_rotated_qr_factor(rng):
    # lq_factor writes L's strict upper triangle once, and rotates with a
    # masked division and an in-place product: every bit of L and Q, and the
    # sign of every zero, must be the reference's, and so must the dtype.
    # Degenerate streams from a zero row, a repeated row, a rank-1 matrix and
    # the zero matrix; real entries, with +0 imaginary parts and as a real
    # array; single precision
    for k in (1, 2, 3, 9, 30, 60):
        cases = [random_complex(rng, k) for _ in range(3)]
        cases += [random_complex(rng, k) * np.geomspace(1e-3, 1e3, k)[:, None],
                  random_complex(rng, k).real.astype(complex), random_complex(rng, k).real,
                  random_complex(rng, k).astype(np.complex64), np.zeros((k, k), complex),
                  np.outer(rng.normal(size=k), rng.normal(size=k)) * (1 - 2j)]
        cases[0][rng.integers(k)] = 0.0
        cases[1][-1] = cases[1][0]
        for i, H in enumerate(cases):
            for q in (False, True):
                L, Q = rotated_qr_factor(H, q)
                f = lq_factor(H, q)
                assert f.L.dtype == L.dtype and f.L.tobytes() == L.tobytes(), (k, i, q)
                assert f.L.flags.c_contiguous, (k, i, q)
                assert (f.Q is None) if Q is None else (f.Q.dtype == Q.dtype
                                                       and f.Q.tobytes() == Q.tobytes()), (k, i, q)
                mag = np.abs(np.diag(L))
                assert f.degenerate.tolist() == (mag < 1e-12 * max(np.linalg.norm(H), 1e-300)
                                                 ).tolist(), (k, i, q)


def test_hpd_inverse_scalar_matrix():
    assert np.allclose(hpd_inverse(2.0 * np.eye(4)), 0.5 * np.eye(4))
    assert np.allclose(hpd_inverse(np.eye(3, dtype=complex)), np.eye(3))


def test_hpd_inverse_residual(rng):
    for _ in range(20):
        B = random_complex(rng, 5)
        A = B.conj().T @ B + 0.1 * np.eye(5)
        inv = hpd_inverse(A)
        assert np.linalg.norm(A @ inv - np.eye(5)) < 1e-9


def test_hpd_inverse_rejects_non_hermitian():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        hpd_inverse(A)


def test_hpd_inverse_reports_failing_pivot():
    A = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(NumericalError, match=r"pivot 2"):
        hpd_inverse(A)


def test_hpd_inverse_pivot_is_potrf_info(rng):
    # Hermitian matrices with a few negative eigenvalues fail at varied pivots
    for k in range(2, 30):
        B = random_complex(rng, k)
        A = B.conj().T @ np.diag(np.where(rng.random(k) < 0.2, -1.0, 1.0)) @ B
        A = 0.5 * (A + A.conj().T)
        _, info = potrf(A, lower=True)
        if info == 0:
            continue
        with pytest.raises(NumericalError, match=rf"pivot {info}$"):
            hpd_inverse(A)


def test_hpd_inverse_matches_cho_solve(rng):
    # Both are inverses through a Cholesky factorization, which is backward
    # stable: each is the exact inverse of some A + dA with ||dA||_2 of order
    # k eps ||A||_2 (Higham, Accuracy and Stability of Numerical Algorithms,
    # ch. 10 and 14, whose worst-case constants grow faster with k but are not
    # attained on random matrices).  Each is then within about k eps cond(A) of
    # A^-1 in the relative 2-norm and the two within twice that; c = 4 leaves a
    # factor 2 for the second-order terms.
    eps = np.finfo(float).eps
    for k in range(1, 41):
        for dtype in (float, complex):
            B = random_complex(rng, k)
            B = B if dtype is complex else B.real
            A = B.conj().T @ B + 0.1 * np.eye(k)
            A = 0.5 * (A + A.conj().T)
            want = cho_solve(cho_factor(A, lower=True), np.eye(k, dtype=A.dtype))
            got = hpd_inverse(A)
            bound = 4 * k * eps * np.linalg.cond(A, 2) * np.linalg.norm(want, 2)
            assert got.dtype == want.dtype, (k, dtype)
            assert np.linalg.norm(got - want, 2) <= bound, (k, dtype)


def _thread_counts():
    return [get() for _, get in numerics._openblas_controls()]


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS at 2 threads for the test, then as it was."""
    controls = numerics._openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS library is loaded")
    original = _thread_counts()
    for set_, _ in controls:
        set_(2)
    yield len(controls)
    for (set_, _), count in zip(controls, original):
        set_(count)


def test_blas_threads_sets_one_and_restores(two_blas_threads):
    with numerics.blas_threads(1):
        assert _thread_counts() == [1] * two_blas_threads
    assert _thread_counts() == [2] * two_blas_threads


def test_blas_threads_noop_without_openblas(two_blas_threads, tmp_path, monkeypatch):
    maps = tmp_path / "maps"
    maps.write_text("7f00-7f01 r-xp 00000000 08:01 42 /usr/lib/x86_64-linux-gnu/libc.so.6\n"
                    "7f02-7f03 rw-p 00000000 00:00 0 [heap]\n")
    monkeypatch.setattr(numerics, "_MAPS", str(maps))
    assert numerics._openblas_controls() == []
    with numerics.blas_threads(1):
        monkeypatch.undo()
        assert _thread_counts() == [2] * two_blas_threads
    monkeypatch.setattr(numerics, "_MAPS", str(tmp_path / "missing"))
    assert numerics._openblas_controls() == []

"""Small dense complex linear-algebra kernels with explicit accuracy contracts.

lq_factor produces H = L Q with L lower triangular (real non-negative
diagonal) and Q unitary, via Householder QR of the conjugate transpose:
H^dagger = Q~ R~  =>  H = R~^dagger Q~^dagger.  The phase convention makes
the factorization unique for full-rank H, so downstream rate formulas depend
only on |l_ii|.  Q costs more than L: lq_factor(H, q=False) gives L and the
degenerate mask without it, from the R-only mode of the same Householder QR,
so they are the bits of the full factorization.  stream_gains gives the
|l_ii| alone, from that R-only QR as well.

blas_threads limits the loaded OpenBLAS libraries to a thread count for the
span of a block: on k ~ 30 matrices their thread start-up costs more than the
work.

Accuracy contracts (validated by the test suite on 10^4 random matrices up
to 30 x 30): reconstruction and unitarity to 1e-10 relative, determinant
magnitude preserved to 1e-8 relative.
"""

import ctypes
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = ["NumericalError", "TriangularFactorization", "blas_threads", "lq_factor",
           "stream_gains", "hpd_inverse"]

# streams with |l_ii| below this times ||H||_F are flagged degenerate
DEGENERATE_RTOL = 1e-12


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its contract."""


@dataclass
class TriangularFactorization:
    """H = L Q with L lower triangular, diag(L) real >= 0, Q unitary.

    Q is None when the factorization was made without it (lq_factor's q=False).
    degenerate[i] marks streams with numerically vanishing diagonal; rate
    formulas treat them as zero-rate instead of erroring, because Monte Carlo
    runs must not abort on rounding-scale events.
    """

    L: np.ndarray
    Q: np.ndarray | None
    degenerate: np.ndarray

    @property
    def stream_gains(self) -> np.ndarray:
        """|l_ii| with degenerate streams forced to exactly zero."""
        g = np.abs(np.diag(self.L))
        g[self.degenerate] = 0.0
        return g


def _checked(H):
    """H as a C-contiguous square matrix with finite entries; ValueError otherwise."""
    H = np.ascontiguousarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] < 1:
        raise ValueError("factorization expects a square matrix with k >= 1")
    if not np.all(np.isfinite(H)):
        raise ValueError("factorization requires finite entries")
    return H


def _degenerate(mag, H):
    """Streams whose diagonal magnitude vanishes relative to ||H||_F."""
    return mag < DEGENERATE_RTOL * max(np.linalg.norm(H), 1e-300)


def lq_factor(H, q=True) -> TriangularFactorization:
    """Factor a square complex matrix as H = L Q (see module docstring).

    With q=False the factorization's Q is None, and L and degenerate come
    from the R-only QR: the same bits as with q=True.
    """
    H = _checked(H)
    if q:
        Qt, Rt = np.linalg.qr(H.conj().T)
    else:
        Qt, Rt = None, np.linalg.qr(H.conj().T, mode="r")
    L = np.tril(Rt.conj().T)
    # rotate column/row phases so diag(L) is real and non-negative
    d = np.diag(L)
    mag = np.abs(d)
    phase = np.where(mag > 0, d.conj() / np.where(mag > 0, mag, 1.0), 1.0)
    L = L * phase[None, :]
    Q = None if Qt is None else phase.conj()[:, None] * Qt.conj().T
    np.fill_diagonal(L, mag)
    return TriangularFactorization(L=L, Q=Q, degenerate=_degenerate(mag, H))


def stream_gains(H) -> np.ndarray:
    """lq_factor(H).stream_gains, bit for bit, without forming L or Q.

    The R-only mode of the QR runs the same Householder reduction of H^dagger
    as lq_factor, so |r_ii| are the same bits as |l_ii|.
    """
    H = _checked(H)
    mag = np.abs(np.diag(np.linalg.qr(H.conj().T, mode="r")))
    mag[_degenerate(mag, H)] = 0.0
    return mag


def hpd_inverse(A) -> np.ndarray:
    """Invert a Hermitian positive-definite matrix A = L L^H as L^-H L^-1.

    Raises ValueError if A is not Hermitian to 1e-12 (relative), and
    NumericalError naming the failing pivot (potrf's: the first leading minor
    that is not positive definite) if A is not.  The result satisfies
    ||A A^-1 - I||_F <= 1e-9 relative.
    """
    A = np.asarray(A)
    scale = max(np.linalg.norm(A), 1.0)
    if np.max(np.abs(A - A.conj().T)) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian within 1e-12")
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        for j in range(1, A.shape[0] + 1):
            try:
                np.linalg.cholesky(A[:j, :j])
            except np.linalg.LinAlgError:
                raise NumericalError(f"matrix not positive definite at pivot {j}") from None
        raise
    L_inv = np.linalg.inv(L)
    return L_inv.conj().T @ L_inv


# (setter, getter) symbol pairs, tried in order: numpy's 64-bit-index build,
# scipy's build, then a plain OpenBLAS
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
_MAPS = "/proc/self/maps"  # the libraries mapped into this process, on Linux


def _openblas_controls():
    """(set, get) thread-count functions of each OpenBLAS loaded in this process."""
    try:
        with open(_MAPS) as f:
            paths = {line.split()[-1] for line in f if "/" in line}
    except OSError:  # no procfs: not Linux
        return []
    controls = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        for set_name, get_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_, get = getattr(lib, set_name), getattr(lib, get_name)
                set_.argtypes, set_.restype = [ctypes.c_int], None
                get.argtypes, get.restype = [], ctypes.c_int
                controls.append((set_, get))
                break
    return controls


@contextmanager
def blas_threads(n):
    """Run the block with every loaded OpenBLAS limited to n threads.

    The count of each library is restored afterwards.  This is the ctypes
    technique of threadpoolctl; it does nothing when no OpenBLAS is found.
    """
    controls = _openblas_controls()
    previous = [get() for _, get in controls]
    for set_, _ in controls:
        set_(n)
    try:
        yield
    finally:
        for (set_, _), count in zip(controls, previous):
            set_(count)

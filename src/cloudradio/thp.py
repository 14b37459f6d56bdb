"""Tomlinson-Harashima precoding over the triangular factorization.

THP replaces dirty-paper coding by feedback pre-subtraction plus a symmetric
modulo that bounds the transmit amplitude.  Data symbols come from square QAM
constellations normalized to unit average energy; the modulo base tau of each
stream is tied to its constellation so the modulo is transparent whenever no
interference has to be pre-subtracted.

A stream's constellation is its order M, one entry of a per-stream int
array.  qam_constellation gives an order's points and modulo base as a plain
(array, float) pair, and the two are rows of two tables built once from it.
thp_precode runs the k sequential steps over a whole batch of data vectors at
once, and drop_power_sample evaluates every mode of a drop over a whole SNR
sweep in one precode pass.  One draw of symbol indices serves every (mode,
SNR) row of that pass: each order is a power of two, so a row reads the top
log2 M bits of the words the draw took, which are the indices its own fresh
generator would draw (see draw_symbols).  The program needs only the transmit
power, so the receiver's modulo, which recovers the data, is a test oracle in
tests/test_thp.py.
"""

import numpy as np

__all__ = [
    "qam_constellation",
    "thp_precode",
]

SUPPORTED_ORDERS = (4, 16, 64)
DATA_VECTORS = 100  # random data vectors averaged in one THP power sample


def qam_constellation(M):
    """(points, modulo_base) of the unit-energy square M-QAM grid, M in {4, 16, 64}.

    modulo_base is the side length tau of the modulo region
    [-tau/2, tau/2) x [-tau/2, tau/2), chosen as 2 * (max coordinate + half
    grid step) so every constellation point lies strictly inside.
    """
    if M not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported constellation size {M}")
    m = int(np.sqrt(M))
    # odd multiples of a: +-a, +-3a, ...; unit energy fixes a
    a = np.sqrt(1.5 / (M - 1))
    axis = a * (2 * np.arange(m) - (m - 1))
    re, im = np.meshgrid(axis, axis)
    tau = 2.0 * (axis[-1] + a)
    return (re + 1j * im).ravel(), float(tau)


# per order, in SUPPORTED_ORDERS' rows: the modulo base, and the point that each
# index w < 64 of the shared draw selects, the one at its top log2 M bits (see
# draw_symbols); flat, so that one index reads symbols of any mix of orders
_ORDERS = np.array(SUPPORTED_ORDERS)
_BASES = np.array([qam_constellation(M)[1] for M in SUPPORTED_ORDERS])
_WORDS = max(SUPPORTED_ORDERS)
_SYMBOLS = np.concatenate([qam_constellation(M)[0][np.arange(_WORDS) * M // _WORDS]
                           for M in SUPPORTED_ORDERS])


def _rows(orders):
    # row of each constellation order in _ORDERS and _BASES, and in _SYMBOLS of
    # _WORDS points each
    return np.searchsorted(_ORDERS, orders)


def select_modulation(caps):
    """Adaptive constellation order of each stream from its ZF-DPC capacity.

    M = 64 for C > 7, M = 16 for 4 < C <= 7, M = 4 for C <= 4, C in bps/Hz.
    """
    caps = np.asarray(caps)
    if np.any(caps < 0):
        raise ValueError("capacity must be non-negative")
    # the number of thresholds passed is the order's row
    return _ORDERS[(caps > 4).astype(np.intp) + (caps > 7)]


def draw_symbols(orders, rng, batch=1):
    """I.i.d. uniform symbols of each stream's order, shape (batch, k), C order.

    orders is one row of k stream orders, or a stack of rows, shape (r, k),
    which gives shape (r, batch, k).  One rng.integers(64, size=(k, batch))
    call serves every row: stream by stream, batch indices, each the top 6
    bits of one 32-bit word of the generator.  A stream of order M reads the
    point at the top log2 M of them.  For a power-of-two M, numpy's bounded
    draw never rejects a word and returns its top log2 M bits, so each row's
    symbols, and the generator's state after the call, are those of a
    per-stream loop of rng.integers(M, size=batch) over that row alone.
    """
    rows = _rows(orders)
    idx = rng.integers(_WORDS, size=(rows.shape[-1], batch))
    return np.swapaxes(_SYMBOLS[(rows * _WORDS)[..., None] + idx], -1, -2).copy()


def thp_precode(L, data, taus, off=None):
    """Successive modulo pre-subtraction of the known triangular interference.

    u_1 = data_1 and u_i = mod_tau_i(data_i - sum_{j<i} (l_ij/l_ii) u_j) for
    each row of data, shape (batch, k).  The vector actually radiated is
    Q^dagger u; the unitary leaves the power untouched, so power statistics
    are taken on u itself.  taus holds each stream's modulo base, shape (k,),
    or one row of them per data vector, shape (batch, k).  Streams marked in
    the boolean mask `off` (a factorization's degenerate ones) transmit
    nothing: their u is 0 and their diagonal may vanish.

    u is a C-ordered (batch, k) complex array.  The bases and their halves
    are expanded once to the (k, batch, 2) layout of (re, im) parts, and the
    feedback coefficients l_ij / l_ii are divided once, so a step broadcasts
    nothing.  A step is the feedback product, then, each in place: subtract
    it, add tau/2, take mod tau on the (batch, 2) float view, and subtract
    tau/2 straight into u's column.  The result is bit-identical to the
    reference in tests/test_thp.py, one symmetric_modulo call per stream.
    """
    k = L.shape[0]
    off = np.zeros(k, dtype=bool) if off is None else np.asarray(off)
    diag = np.real(np.diag(L))
    if np.any(diag[~off] <= 0):
        raise ValueError("THP needs a strictly positive triangular diagonal")
    # C order whatever the input's: the layout of u[:, :i] decides how the
    # feedback product rounds
    u = np.array(data, dtype=complex, order="C")
    batch = u.shape[0]
    u[:, off] = 0.0
    live = (np.flatnonzero(~off[1:]) + 1).tolist()  # stream 0: no feedback, no modulo
    # a degenerate row's diagonal may be 0: it is divided by 1, and never read
    coef = L / np.where(off, 1.0, diag)[:, None]
    tau = np.empty((k, batch, 2))
    tau[...] = np.atleast_2d(taus).T[..., None]
    # tau/2 in both parts of a complex: adding or subtracting it is the float
    # operation on each part, and the complex result writes a column of u
    half = (tau / 2.0).view(complex)[..., 0]
    x = np.empty(batch, dtype=complex)
    parts = x.view(np.float64).reshape(batch, 2)
    for i in live:
        np.subtract(u[:, i], u[:, :i] @ coef[i, :i], out=x)
        np.add(x, half[i], out=x)
        np.mod(parts, tau[i], out=parts)
        np.subtract(x, half[i], out=u[:, i])
    return u


def _orders(L, sigma_sq, mode):
    """Constellation order of each stream: one row per noise power for
    "adaptive" (from the ZF-DPC capacity in bps/Hz), a single row for a fixed order."""
    if mode != "adaptive":
        return np.full((1, L.shape[0]), int(mode))
    sigma_sq = np.reshape(sigma_sq, (-1, 1))
    return select_modulation(np.log1p(np.abs(np.diag(L)) ** 2 / sigma_sq) / np.log(2.0))


def drop_power_sample(fact, sigma_sq, modes, seed) -> dict:
    """Total THP transmit power of one drop, averaged over DATA_VECTORS data vectors.

    fact is the drop's TriangularFactorization; its degenerate streams
    transmit nothing.  Each of modes is "adaptive" (constellations from the
    per-stream ZF-DPC capacity in bps/Hz) or a fixed order in {4, 16, 64}.
    Returns {mode: one sample per entry of sigma_sq}, every mode at every
    noise power from one precode pass.  A fixed order does not depend on the
    noise: its sample is computed once and repeated over sigma_sq.

    The data of every sample comes from one draw_symbols call on
    np.random.default_rng(seed), so each sample's draws are those of a fresh
    generator of its own.  Given a Generator, which continues its stream,
    the call must draw one sample: one mode, at one noise power unless its
    order is fixed.
    """
    L = fact.L
    sigma_sq = np.atleast_1d(sigma_sq)
    orders = {mode: _orders(L, sigma_sq, mode) for mode in modes}
    rows = np.concatenate(list(orders.values()))
    if isinstance(seed, np.random.Generator) and len(rows) > 1:
        raise ValueError("a Generator serves one sample; pass a seed for several")
    data = draw_symbols(rows, np.random.default_rng(seed), DATA_VECTORS)
    taus = np.repeat(_BASES[_rows(rows)], DATA_VECTORS, axis=0)
    u = thp_precode(L, data.reshape(-1, L.shape[0]), taus, fact.degenerate)
    power = np.mean(np.sum(np.abs(u.reshape(data.shape)) ** 2, axis=2), axis=1)
    # np.resize repeats a fixed order's one sample over the sweep
    split = np.cumsum([len(o) for o in orders.values()])[:-1]
    return {mode: np.resize(p, sigma_sq.size) for mode, p in zip(orders, np.split(power, split))}

"""Independent checks of what a cloudradio run wrote, using numpy alone.

Every check returns a list of failure messages; an empty list is a pass.
Rates are recomputed from the channel matrices `run --dump-channels`
writes, or tested against properties the methods must have.  Nothing here
compares against a stored copy of earlier output.
"""

import hashlib
from pathlib import Path

import numpy as np

# recomputed vs written rate (bps/Hz); the dump keeps 9 significant digits
RATE_TOL = 1e-6
# sum_i log(2^r_i - 1) of ZF-DPC vs uplink SIC: both are log|det H|^2
DET_TOL = 1e-6
# per-stream orderings: stream 0 of SMF (l = k) equals ZF-DPC exactly
ORDER_TOL = 1e-9
COHORT_RATE_SCHEMES = ("conventional", "zfdpc", "uplink-sic", "mmse", "tic", "smf", "smf2")
THP_SCHEMES = ("thp-adaptive", "thp-fixed4")
THP_STREAM_POWER_BOUND = 4.0  # tau^2 / 2 of 4-QAM, the largest modulo square


def read_rates(path) -> np.ndarray:
    """`drop_id,stream,rate` CSV as an (n, 3) float array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_channel(path) -> np.ndarray:
    """Re/im interleaved channel dump as a complex k x k matrix."""
    m = np.loadtxt(path, delimiter=",", ndmin=2)
    return m[:, 0::2] + 1j * m[:, 1::2]


def by_drop(table) -> dict:
    """drop id -> rates in stream order."""
    out = {}
    for d, s, r in table:
        out.setdefault(int(d), []).append((int(s), r))
    return {d: np.array([r for _, r in sorted(v)]) for d, v in out.items()}


def missing_drops(tables, drops) -> set:
    """Drops for which some scheme's table has no rows."""
    missing = set()
    for t in tables:
        missing |= set(range(drops)) - set(t[:, 0].astype(int).tolist())
    return missing


def output_digest(files) -> str:
    """SHA-256 over the names and bytes of the given files, in name order."""
    h = hashlib.sha256()
    for f in sorted(files, key=lambda p: p.name):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def _log2_rate(sinr):
    return np.log1p(sinr) / np.log(2.0)


def reference_rates(H, sigma_sq) -> dict:
    """Per-stream rates of the seven rate schemes, from first principles.

    ZF-DPC gains are |R_ii| of numpy's QR of H^dagger, uplink SIC gains
    |R_ii| of the QR of conj(H) (= (H^T)^dagger), and MMSE is the per-row
    uplink SINR g_i^dagger (sum_{j != i} g_j g_j^dagger + sigma^2 I)^-1 g_i
    with g_i = row i of H, each solved with numpy.linalg.solve.
    """
    k = H.shape[0]
    P = np.abs(H) ** 2
    sig = np.diag(P)
    total = P.sum(axis=1)
    srt = np.sort(P, axis=1)[:, ::-1]
    l2 = min(2, k)
    top2 = srt[:, :l2].sum(axis=1)
    zf = np.abs(np.diag(np.linalg.qr(H.conj().T)[1])) ** 2
    sic = np.abs(np.diag(np.linalg.qr(H.conj())[1])) ** 2
    cov = H.T @ H.conj()  # sum_j g_j g_j^dagger
    mmse = np.empty(k)
    for i in range(k):
        g = H[i]
        A = cov - np.outer(g, g.conj()) + sigma_sq * np.eye(k)
        mmse[i] = np.real(g.conj() @ np.linalg.solve(A, g))
    return {
        "conventional": _log2_rate(sig / (sigma_sq + total - sig)),
        "tic": _log2_rate(sig / sigma_sq),
        "smf": _log2_rate(total / sigma_sq),
        "smf2": _log2_rate(top2 / (sigma_sq + total - top2)),
        "zfdpc": _log2_rate(zf / sigma_sq),
        "uplink-sic": _log2_rate(sic / sigma_sq),
        "mmse": _log2_rate(mmse),
    }


def check_cohort(root, snr_db) -> list:
    """Checks of a single-SNR run of COHORT_RATE_SCHEMES and THP_SCHEMES."""
    root = Path(root)
    errors = []
    tables = {s: read_rates(root / f"{s}.csv") for s in COHORT_RATE_SCHEMES + THP_SCHEMES}
    rates = {s: by_drop(tables[s]) for s in COHORT_RATE_SCHEMES}
    sigma_sq = 10.0 ** (-snr_db / 10.0)

    dumps = sorted((root / "debug").glob("drop*_H.csv"))
    if not dumps:
        errors.append("recompute: no channel dumps written")
    for path in dumps:
        drop = int(path.name[4:8])
        for scheme, ref in reference_rates(read_channel(path), sigma_sq).items():
            got = rates[scheme].get(drop)
            if got is None or got.shape != ref.shape:
                errors.append(f"recompute: {scheme} drop {drop} has the wrong stream count")
                continue
            gap = float(np.max(np.abs(got - ref)))
            if gap > RATE_TOL:
                errors.append(f"recompute: {scheme} drop {drop} differs by {gap:.3g} bps/Hz")

    for drop, zf in rates["zfdpc"].items():
        sic = rates["uplink-sic"].get(drop)
        if sic is None or sic.shape != zf.shape:
            errors.append(f"determinant: uplink-sic drop {drop} has the wrong stream count")
            continue
        gap = abs(np.sum(np.log(np.expm1(zf * np.log(2.0))))
                  - np.sum(np.log(np.expm1(sic * np.log(2.0)))))
        if not gap <= DET_TOL:
            errors.append(f"determinant: drop {drop} ZF-DPC vs uplink SIC differ by {gap:.3g}")

    keys = tables["conventional"][:, :2]
    for s in COHORT_RATE_SCHEMES:
        if not np.array_equal(tables[s][:, :2], keys):
            errors.append(f"order: {s} rows do not match conventional's (drop, stream) rows")
            return errors
    col = {s: tables[s][:, 2] for s in COHORT_RATE_SCHEMES}
    for hi, lo in (("tic", "conventional"), ("smf", "zfdpc"), ("smf", "mmse"), ("smf", "tic")):
        bad = np.flatnonzero(col[hi] < col[lo] - ORDER_TOL)
        if bad.size:
            d, s = keys[bad[0]].astype(int)
            errors.append(f"order: {hi} < {lo} on {bad.size} streams, first drop {d} stream {s}")

    k = {d: r.size for d, r in rates["conventional"].items()}
    medians = {}
    for s in THP_SCHEMES:
        t = tables[s]
        bound = THP_STREAM_POWER_BOUND * np.array([k.get(int(d), 0) for d in t[:, 0]])
        bad = np.flatnonzero(~((t[:, 2] > 0) & (t[:, 2] <= bound)))
        if bad.size:
            errors.append(f"thp: {s} power outside (0, 4k] on {bad.size} drops, "
                          f"first drop {int(t[bad[0], 0])}")
        medians[s] = float(np.median(t[:, 2]))
    if not medians["thp-fixed4"] > medians["thp-adaptive"]:
        errors.append(f"thp: median power of thp-fixed4 {medians['thp-fixed4']:.4g} is not "
                      f"above thp-adaptive's {medians['thp-adaptive']:.4g}")
    return errors


def sweep_file(root, scheme, snr) -> Path:
    return Path(root) / f"{scheme}_snr{snr:g}.csv"


def check_sweep(root, schemes, snrs, saturating="clustered-partial") -> list:
    """Checks of an SNR sweep: monotone rates, equal rows, saturation."""
    errors = []
    means = {}
    for s in schemes:
        tables = [read_rates(sweep_file(root, s, snr)) for snr in snrs]
        counts = [t.shape[0] for t in tables]
        if len(set(counts)) != 1:
            errors.append(f"rows: {s} row counts differ across SNR points: {counts}")
            continue
        if any(not np.array_equal(t[:, :2], tables[0][:, :2]) for t in tables):
            errors.append(f"rows: {s} (drop, stream) rows differ across SNR points")
            continue
        r = np.stack([t[:, 2] for t in tables])
        bad = np.argwhere(np.diff(r, axis=0) < 0)
        if bad.size:
            j, row = bad[0]
            d, st = tables[0][row, :2].astype(int)
            errors.append(f"monotone: {s} rate falls from {snrs[j]:g} to {snrs[j + 1]:g} dB "
                          f"on {len(bad)} (drop, stream, step)s, first drop {d} stream {st}")
        means[s] = r.mean(axis=1)
    m = means.get(saturating)
    if m is not None:
        idx = {snr: i for i, snr in enumerate(snrs)}
        low = m[idx[5.0]] - m[idx[0.0]]
        high = m[idx[45.0]] - m[idx[40.0]]
        if not high < 0.1 * low:
            errors.append(f"saturation: {saturating} mean gains {high:.4g} from 40 to 45 dB, "
                          f"not below a tenth of its {low:.4g} from 0 to 5 dB")
    return errors


def check_crossval(report, schemes, samples, limits) -> list:
    """Each scheme reports the requested sample count and a sup gap below its limit."""
    errors = []
    for s in schemes:
        r = report.get(s)
        if r is None:
            errors.append(f"crossval: {s} missing from the report")
            continue
        if r.get("samples") != samples:
            errors.append(f"crossval: {s} reports {r.get('samples')} samples, not {samples}")
        gap = r.get("sup_gap")
        if not (isinstance(gap, float) and 0.0 <= gap < limits[s]):
            errors.append(f"crossval: {s} sup gap {gap} not in [0, {limits[s]})")
    return errors

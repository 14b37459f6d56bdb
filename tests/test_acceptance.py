"""Acceptance suite: one test per criterion, printed clause by clause.

Run with `pytest tests/test_acceptance.py -v -s` to see every clause line.
Tolerances are fixed here, straight from the acceptance criteria; nothing is
calibrated after the fact.  Shared Monte Carlo runs live in session fixtures.
"""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from cloudradio import (ExperimentConfig, build_cdf, crossvalidate, detect_saturation,
                        gain_percent, lq_factor, qam_constellation, run, simulate, thp,
                        thp_precode)
from cloudradio.analytic import _tic_quadrature, gamma_threshold, tau_tic, tau_tic_curve
from cloudradio.channel import sigma_sq_from_snr_db
from cloudradio.geometry import Region, sample_ppp, split_cluster
from cloudradio.thp import draw_symbols, select_modulation

from conftest import random_complex
from test_numerics import gram_schmidt_lq
from test_precoding import brute_force_det
from test_thp import thp_loopback

SEED = 20240811
BASE10 = ExperimentConfig(
    schemes=("conventional", "zfdpc", "uplink-sic", "mmse", "tic", "smf", "smf2"),
    snr_db=10.0, drops=500, seed=SEED)


def collect(config):
    return {key: np.concatenate([r for _, r in drops])
            for key, drops in simulate(config).items()}


def snr_shift_db(q_test, q_ref):
    """dB distance between two rates read at the same CDF level."""
    return 10.0 * np.log10(gamma_threshold(q_test) / gamma_threshold(q_ref))


class Checker:
    def __init__(self, criterion):
        self.criterion = criterion
        self.failures = []
        print(f"\n--- criterion {criterion} ---")

    def check(self, label, ok, detail):
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] criterion {self.criterion}: {label}: {detail}")
        if not ok:
            self.failures.append(f"{label}: {detail}")

    def within(self, label, value, lo, hi):
        self.check(label, lo <= value <= hi, f"{value:.4g} vs [{lo:.4g}, {hi:.4g}]")

    def finish(self):
        assert not self.failures, f"criterion {self.criterion}: " + "; ".join(self.failures)


@pytest.fixture(scope="session")
def base10():
    return collect(BASE10)


@pytest.fixture(scope="session")
def zf_sweep():
    cfg = ExperimentConfig(schemes=("zfdpc",), snr_db=[-6.0, 0.0, 10.0, 20.0],
                           drops=500, seed=SEED)
    return collect(cfg)


@pytest.fixture(scope="session")
def partial_runs():
    out = {}
    for tag, l in [("l6", 6), ("l2", 2), ("lk", 10**6)]:
        cfg = ExperimentConfig(schemes=("zfdpc-partial",), snr_db=10.0, drops=500,
                               seed=SEED, csi_l=l)
        out[tag] = collect(cfg)[("zfdpc-partial", 10.0)]
    return out


@pytest.fixture(scope="session")
def cluster_runs():
    out = {}
    for radius in (4.0, 10.0):
        cfg = ExperimentConfig(region_km=(20.0, 20.0), schemes=("conventional", "clustered"),
                               cluster_radius_km=radius, snr_db=10.0, drops=500, seed=SEED)
        out[radius] = collect(cfg)
    return out


@pytest.fixture(scope="session")
def saturation_sweep():
    cfg = ExperimentConfig(region_km=(20.0, 20.0), lambda_b=0.1, cluster_radius_km=8.0,
                           csi_l=6, schemes=("clustered-partial",),
                           snr_db=[0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0],
                           drops=250, seed=SEED)
    samples = collect(cfg)
    snrs = cfg.snr_list
    # the mean and cell edge that run writes to summary.json
    cdfs = [build_cdf(samples[("clustered-partial", s)]) for s in snrs]
    return snrs, [c.mean for c in cdfs], [c.cell_edge for c in cdfs]


@pytest.fixture(scope="session")
def crossval_report():
    cfg = ExperimentConfig(schemes=("tic", "smf2", "smf2-interf"), seed=SEED)
    return crossvalidate(cfg, samples=100_000)


def test_criterion_01_conventional_baseline(base10):
    c = Checker(1)
    conv = build_cdf(base10[("conventional", 10.0)])
    c.within("mean 1.63 +- 10%", conv.mean, 1.63 * 0.9, 1.63 * 1.1)
    c.within("cell-edge 0.51 +- 0.1", conv.cell_edge, 0.41, 0.61)
    c.finish()


def test_criterion_02_zfdpc_rates(base10, zf_sweep):
    c = Checker(2)
    zf10 = build_cdf(base10[("zfdpc", 10.0)])
    zf20 = build_cdf(zf_sweep[("zfdpc", 20.0)])
    conv = build_cdf(base10[("conventional", 10.0)])
    c.within("mean@10dB 4.93 +- 10%", zf10.mean, 4.93 * 0.9, 4.93 * 1.1)
    c.within("cell-edge@10dB 0.97 +- 0.15", zf10.cell_edge, 0.82, 1.12)
    c.within("mean@20dB 7.792 +- 10%", zf20.mean, 7.792 * 0.9, 7.792 * 1.1)
    c.within("cell-edge@20dB 3.46 +- 15%", zf20.cell_edge, 3.46 * 0.85, 3.46 * 1.15)
    c.within("gain vs conventional 202 +- 25 pts", gain_percent(zf10, conv), 177.0, 227.0)
    c.finish()


def test_criterion_03_zfdpc_snr_monotone(zf_sweep):
    c = Checker(3)
    means = [build_cdf(zf_sweep[("zfdpc", s)]).mean for s in (-6.0, 0.0, 10.0, 20.0)]
    c.check("means strictly increasing over {-6,0,10,20} dB",
            bool(np.all(np.diff(means) > 0)),
            "means = " + ", ".join(f"{m:.3f}" for m in means))
    c.finish()


def test_criterion_04_mmse(base10):
    c = Checker(4)
    mmse = build_cdf(base10[("mmse", 10.0)])
    zf = build_cdf(base10[("zfdpc", 10.0)])
    c.within("mean 3.73 +- 10%", mmse.mean, 3.73 * 0.9, 3.73 * 1.1)
    c.within("mmse/zfdpc mean ratio 0.75 +- 0.07", mmse.mean / zf.mean, 0.68, 0.82)
    c.finish()


def test_criterion_05_duality(base10):
    c = Checker(5)
    ks = ks_2samp(base10[("uplink-sic", 10.0)], base10[("zfdpc", 10.0)]).statistic
    c.check("uplink/downlink KS < 0.05", ks < 0.05, f"KS = {ks:.4f}")
    # determinant identity: equal high-SNR sum rates for both orderings,
    # checked against a cofactor-expansion determinant
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for k in (1, 2, 3):
        for _ in range(40):
            H = random_complex(rng, k)
            dn = lq_factor(H).stream_gains
            up = lq_factor(H.T).stream_gains
            det = abs(brute_force_det(H))
            gap = max(abs(np.prod(dn) - det), abs(np.prod(up) - det)) / det
            sum_gap = abs(np.sum(np.log2(dn**2 / 0.1)) - np.sum(np.log2(up**2 / 0.1)))
            worst = max(worst, gap, sum_gap)
    c.check("per-drop sum-rate (determinant) equality to 1e-6, k <= 3",
            worst < 1e-6, f"worst deviation = {worst:.2e}")
    c.finish()


def test_criterion_06_tic_bound(base10, crossval_report):
    c = Checker(6)
    gap = crossval_report["tic"]["sup_gap"]
    c.check("Monte Carlo vs tau_tic sup gap < 0.02", gap < 0.02, f"gap = {gap:.4f}")
    # tau_tic is the closed form at alpha 2 and 4; t = 1 nat is 1/ln 2 bps/Hz
    nat = 1.0 / math.log(2.0)
    worst = 0.0
    for alpha, ts in ((4.0, [0.25, 0.5, 1.0, 2.0, 4.0]), (2.0, [nat])):
        closed = tau_tic_curve(0.3, 0.1, ts, alpha=alpha)
        quad = _tic_quadrature(0.3, 0.1, gamma_threshold(np.array(ts)), alpha)
        worst = max(worst, np.max(np.abs(closed - quad) / closed))
    harmonic = tau_tic(0.3, 0.1, nat, alpha=2.0)
    c.check("quadrature vs closed form to 1e-6 (alpha 2 and 4)",
            worst < 1e-6 and abs(harmonic - 0.8458) < 2e-4,
            f"worst relative gap {worst:.1e}; natural-log alpha=2 value {harmonic:.4f}"
            " vs 0.8458")
    tic = build_cdf(base10[("tic", 10.0)])
    zf = build_cdf(base10[("zfdpc", 10.0)])
    shift = snr_shift_db(zf.cell_edge, tic.cell_edge)
    c.check("TIC left of ZF-DPC at low rates", tic.cell_edge < zf.cell_edge,
            f"cell edges {tic.cell_edge:.3f} < {zf.cell_edge:.3f}")
    c.within("cell-edge SNR shift 3.5 +- 1.5 dB", shift, 2.0, 5.0)
    c.finish()


def test_criterion_07_smf_bound(base10, crossval_report):
    c = Checker(7)
    g0 = crossval_report["smf2"]["sup_gap"]
    g1 = crossval_report["smf2-interf"]["sup_gap"]
    c.check("tau_smf2 vs Monte Carlo sup gap < 0.02 (no interference)",
            g0 < 0.02, f"gap = {g0:.4f}")
    c.check("tau_smf2 vs Monte Carlo sup gap < 0.03 (with interference)",
            g1 < 0.03, f"gap = {g1:.4f}")
    smf = build_cdf(base10[("smf", 10.0)])
    zf = build_cdf(base10[("zfdpc", 10.0)])
    shift = snr_shift_db(smf.quantile(0.5), zf.quantile(0.5))
    c.within("full-combining SMF vs ZF-DPC shift 0.7 +- 0.5 dB", shift, 0.2, 1.2)
    c.finish()


def test_criterion_08_partial_csi(base10, partial_runs):
    c = Checker(8)
    full = build_cdf(base10[("zfdpc", 10.0)])
    l6 = build_cdf(partial_runs["l6"])
    l2 = build_cdf(partial_runs["l2"])
    conv = build_cdf(base10[("conventional", 10.0)])
    c.within("mean(l=6)/mean(full) = 0.81 +- 0.08", l6.mean / full.mean, 0.73, 0.89)
    c.within("gain(l=2) vs conventional = 48 +- 15 pts", gain_percent(l2, conv), 33.0, 63.0)
    worst = np.max(np.abs(partial_runs["lk"] - base10[("zfdpc", 10.0)]))
    c.check("l=k reproduces full CSI to 1e-9", worst < 1e-9, f"max |diff| = {worst:.2e}")
    c.finish()


def test_criterion_09_clustering(cluster_runs):
    c = Checker(9)
    for radius, lo, hi, tag in [(4.0, 72.0, 112.0, "92 +- 20"),
                                (10.0, 168.0, 218.0, "193 +- 25")]:
        conv = build_cdf(cluster_runs[radius][("conventional", 10.0)])
        clus = build_cdf(cluster_runs[radius][("clustered", 10.0)])
        c.within(f"gain at radius {radius:g} km = {tag} pts", gain_percent(clus, conv), lo, hi)
    rng = np.random.default_rng(SEED)
    region = Region(20.0, 20.0)
    for radius, target in [(4.0, 15.08), (8.0, 60.32)]:
        counts = [np.count_nonzero(split_cluster(sample_ppp(0.3, region, rng), region.center,
                                                 radius))
                  for _ in range(1000)]
        c.within(f"mean in-cluster count at {radius:g} km +- 10%",
                 float(np.mean(counts)), 0.9 * target, 1.1 * target)
    c.finish()


def test_criterion_10_saturation(saturation_sweep):
    c = Checker(10)
    snrs, means, edges = saturation_sweep
    snr_db, plateau = detect_saturation(snrs, means)
    c.check("sweep saturates between 25 and 35 dB",
            snr_db is not None and 25.0 <= snr_db <= 35.0,
            f"saturation at {snr_db} dB; means = "
            + ", ".join(f"{m:.2f}" for m in means))
    if snr_db is not None:
        tail = [e for s, e in zip(snrs, edges) if s >= snr_db]
        c.within("plateau mean 5.01 +- 0.5 bps/Hz", plateau, 4.51, 5.51)
        c.within("plateau cell-edge 1.28 +- 0.3 bps/Hz", float(np.mean(tail)), 0.98, 1.58)
    c.finish()


def test_criterion_11_thp():
    c = Checker(11)
    rng = np.random.default_rng(SEED)
    # noiseless loopback over 1e4 trials (100 factorizations x 100 vectors)
    worst = 0.0
    inside = True
    for _ in range(100):
        k = int(rng.integers(2, 6))
        L = np.tril(random_complex(rng, k))
        np.fill_diagonal(L, np.abs(np.diag(L)) + 0.3)
        caps = rng.uniform(0.0, 9.0, k)
        orders = select_modulation(caps)
        taus = np.array([qam_constellation(M)[1] for M in orders])
        for data in draw_symbols(orders, rng, batch=100):
            u = thp_precode(L, data[None], taus)[0]
            inside &= bool(np.all(np.abs(u.real) <= taus / 2 + 1e-12)
                           and np.all(np.abs(u.imag) <= taus / 2 + 1e-12))
            worst = max(worst, float(np.max(np.abs(thp_loopback(L, u, taus) - data))))
    c.check("noiseless loopback exact over 1e4 trials", worst < 1e-9,
            f"max symbol error = {worst:.2e}")
    c.check("all precoded symbols inside modulo regions", inside, "checked 1e4 vectors")

    # power CDFs on real cohort factorizations
    facts, sizes = [], []
    drop_rng = np.random.default_rng(SEED + 1)
    while len(facts) < 150:
        from conftest import standard_drop
        *_, H = standard_drop(drop_rng)
        facts.append(lq_factor(H))
        sizes.append(len(H))
    sigma_sq = sigma_sq_from_snr_db(10.0)

    def power_cdf(mode):
        # one sample per drop, every drop continuing one generator's stream
        gen = np.random.default_rng(SEED + 2)
        return build_cdf([thp.drop_power_sample(f, sigma_sq, [mode], gen)[mode][0]
                          for f in facts])

    fixed, adaptive = power_cdf(4), power_cdf("adaptive")
    grid = np.linspace(0.0, float(fixed.samples.max()), 400)
    dominated = bool(np.all(fixed.cdf_at(grid) <= adaptive.cdf_at(grid) + 1e-12))
    c.check("fixed M=4 power CDF stochastically dominates adaptive", dominated,
            f"means fixed {fixed.mean:.1f} vs adaptive {adaptive.mean:.1f}")
    ratio = float(np.median(adaptive.samples / np.asarray(sizes, dtype=float)))
    c.within("adaptive median total power within 25% of k", ratio, 0.75, 1.25)
    c.finish()


def test_criterion_12_numerics():
    c = Checker(12)
    rng = np.random.default_rng(SEED)
    worst_recon = worst_unit = worst_det = 0.0
    for _ in range(10_000):
        k = int(rng.integers(1, 31))
        H = random_complex(rng, k)
        fact = lq_factor(H)
        scale = np.linalg.norm(H)
        worst_recon = max(worst_recon, np.linalg.norm(fact.L @ fact.Q - H) / scale)
        worst_unit = max(worst_unit, np.linalg.norm(fact.Q @ fact.Q.conj().T - np.eye(k)))
        det = abs(np.linalg.det(H))
        if det > 1e-250:
            worst_det = max(worst_det, abs(np.prod(fact.stream_gains) - det) / det)
    c.check("reconstruction <= 1e-10 relative on 1e4 matrices",
            worst_recon <= 1e-10, f"worst = {worst_recon:.2e}")
    c.check("unitarity <= 1e-10", worst_unit <= 1e-10, f"worst = {worst_unit:.2e}")
    c.check("|det| preservation <= 1e-8", worst_det <= 1e-8, f"worst = {worst_det:.2e}")
    worst_gs = 0.0
    for _ in range(500):
        H = random_complex(rng, 4)
        fact = lq_factor(H)
        Lg, Qg = gram_schmidt_lq(H)
        worst_gs = max(worst_gs, float(np.max(np.abs(fact.L - Lg))),
                       float(np.max(np.abs(fact.Q - Qg))))
    c.check("Gram-Schmidt oracle agreement <= 1e-8 on 4x4",
            worst_gs <= 1e-8, f"worst = {worst_gs:.2e}")
    c.finish()


def test_criterion_13_reproducibility(tmp_path):
    c = Checker(13)
    cfg = ExperimentConfig(schemes=("conventional", "zfdpc"), drops=8, seed=SEED,
                           output_dir=str(tmp_path))
    run(cfg, workers=1, name="one")
    run(cfg, workers=1, name="two")
    run(cfg, workers=3, name="par")
    same = True
    worker_same = True
    for scheme in cfg.schemes:
        a = (tmp_path / "one" / f"{scheme}.csv").read_bytes()
        same &= a == (tmp_path / "two" / f"{scheme}.csv").read_bytes()
        worker_same &= a == (tmp_path / "par" / f"{scheme}.csv").read_bytes()
    c.check("identical seed+config give byte-identical CSVs", same, "8-drop run, 2 schemes")
    c.check("results independent of worker count", worker_same, "1 vs 3 workers")
    c.finish()

"""Experiment runner: declarative configs, per-figure presets, deterministic
seeding, CSV/JSON emission, and Monte Carlo vs analytic cross-validation.

A run iterates independent drops.  Each drop derives its own random substream
from (seed, drop index), so results are byte-identical for a given seed and
config regardless of worker count.  simulate_drop draws one network, runs each
configured scheme of the SCHEMES registry once over the whole SNR sweep and
dumps what it drew; simulate is the one loop that pools the drops' rates.
"""

import json
import math
import re
import time
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from numpy.random import SeedSequence, default_rng

from . import analytic, precoding, thp
from .channel import (build_channel, inter_cluster_interference, sigma_sq_from_snr_db,
                      take_partial_csi)
from .geometry import (Region, associate, distance_block, sample_ppp, select_cohort,
                       split_cluster)
from .numerics import NumericalError, blas_threads, lq_factor
from .stats import build_cdf, gain_percent

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "PRESETS",
    "load_config_file",
    "parse_field",
    "preset_config",
    "validate",
    "run",
    "crossvalidate",
    "simulate",
    "simulate_drop",
    "tagged_rate_samples",
]

# scheme -> (its analytic coverage curve, looked up on `analytic` at each call;
# the SINR of a tagged sample from the faded powers f0 and f1 of its nearest
# and second-nearest BSs and i_r, the rest of its field with the far tail)
CROSSVAL_SCHEMES = {
    "tic": (lambda *a, **kw: analytic.tau_tic_curve(*a, **kw),
            lambda f0, f1, i_r, sigma_sq: f0 / sigma_sq),
    "smf2": (lambda *a, **kw: analytic.tau_smf2_curve(*a, with_interference=False, **kw),
             lambda f0, f1, i_r, sigma_sq: (f0 + f1) / sigma_sq),
    "smf2-interf": (lambda *a, **kw: analytic.tau_smf2_curve(*a, with_interference=True, **kw),
                    lambda f0, f1, i_r, sigma_sq: (f0 + f1) / (sigma_sq + i_r)),
}
DEBUG_DROPS = 4  # drops that write --dump-* files


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


@dataclass
class ExperimentConfig:
    region_km: tuple = (10.0, 10.0)
    lambda_b: float = 0.3
    lambda_u: float | None = None  # default: 10 * lambda_b (occupancy margin)
    alpha: float = 4.0
    snr_db: float | list = 10.0
    drops: int = 500
    schemes: tuple = ("conventional", "zfdpc")
    csi_l: int | None = None
    cluster_radius_km: float | None = None
    seed: int = 1234
    output_dir: str | None = None

    @property
    def lambda_u_effective(self) -> float:
        return self.lambda_u if self.lambda_u is not None else 10.0 * self.lambda_b

    @property
    def snr_list(self) -> list:
        s = self.snr_db
        return list(s) if isinstance(s, (list, tuple)) else [s]

    def echo(self) -> dict:
        d = asdict(self)
        d["region_km"] = list(self.region_km)
        d["schemes"] = list(self.schemes)
        return d


def validate(config: ExperimentConfig):
    """Check every config invariant; returns (errors, warnings) naming fields."""
    errors, warnings = [], []
    for f in fields(config):
        value = getattr(config, f.name)
        values = value if isinstance(value, (list, tuple)) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            errors.append(f"{f.name}: must be finite")
    w, h = config.region_km
    if not (w > 0 and h > 0):
        errors.append("region_km: dimensions must be positive")
    if config.lambda_b <= 0:
        errors.append("lambda_b: must be positive")
    if config.lambda_u is not None and config.lambda_u < 0:
        errors.append("lambda_u: must not be negative")
    elif config.lambda_u is not None and config.lambda_u < config.lambda_b:
        warnings.append("lambda_u: below lambda_b, BS occupancy may fail")
    if not config.alpha > 2:
        errors.append("alpha: must exceed 2")
    if config.drops < 1:
        errors.append("drops: must be at least 1")
    if not config.schemes:
        errors.append("schemes: must not be empty")
    for s in config.schemes:
        if s not in SCHEMES:
            errors.append(f"schemes: unknown scheme '{s}'")
    snrs = config.snr_list
    if any(b <= a for a, b in zip(snrs, snrs[1:])):
        errors.append("snr_db: sweep must be strictly increasing")
    if not all(_has_noise_power(snr) for snr in snrs):
        errors.append("snr_db: noise power 10^(-snr_db/10) must be a finite positive number")
    if config.csi_l is not None and config.csi_l < 1:
        errors.append("csi_l: must be at least 1")
    for s in config.schemes:
        if s in ("zfdpc-partial", "clustered-partial") and config.csi_l is None:
            errors.append(f"csi_l: required by scheme '{s}'")
        if s.startswith("clustered") and (config.cluster_radius_km or 0) <= 0:
            errors.append(f"cluster_radius_km: required by scheme '{s}'")
    if config.seed < 0:
        errors.append("seed: must be non-negative")
    return errors, warnings


def _has_noise_power(snr_db):
    try:
        sigma_sq = sigma_sq_from_snr_db(snr_db)
    except OverflowError:
        return False
    return math.isfinite(sigma_sq) and sigma_sq > 0


def _require_valid(config):
    errors, _ = validate(config)
    if errors:
        raise ConfigError("; ".join(errors))


# ---------------------------------------------------------------------------
# presets: one per figure of the reproduced rate study
# ---------------------------------------------------------------------------

PRESETS = {
    "fig-conv-zf": dict(schemes=("conventional", "zfdpc"), drops=500),
    "fig-noise": dict(schemes=("zfdpc",), snr_db=[-6.0, 0.0, 10.0, 20.0], drops=400),
    "fig-bounds": dict(schemes=("zfdpc", "tic", "smf", "smf2"), drops=500),
    "fig-uplink": dict(schemes=("conventional", "zfdpc", "uplink-sic", "mmse"), drops=500),
    "fig-partial": dict(schemes=("conventional", "zfdpc", "zfdpc-partial"), csi_l=6, drops=500),
    "fig-pbound": dict(schemes=("zfdpc-partial", "smf2"), csi_l=2, drops=500),
    "fig-cluster": dict(region_km=(20.0, 20.0), schemes=("conventional", "clustered"),
                        cluster_radius_km=10.0, drops=300),
    "fig-partial-4": dict(region_km=(20.0, 20.0), cluster_radius_km=4.0, csi_l=6,
                          schemes=("conventional", "clustered", "clustered-partial"), drops=300),
    "fig-partial-8": dict(region_km=(20.0, 20.0), cluster_radius_km=8.0, csi_l=6,
                          schemes=("conventional", "clustered", "clustered-partial"), drops=300),
    "fig-8-final": dict(region_km=(20.0, 20.0), lambda_b=0.1, cluster_radius_km=8.0, csi_l=6,
                        schemes=("clustered-partial",),
                        snr_db=[0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0],
                        drops=300),
    "fig-12-final": dict(region_km=(20.0, 20.0), lambda_b=0.1, cluster_radius_km=12.0, csi_l=10,
                         schemes=("clustered-partial",),
                         snr_db=[0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0],
                         drops=300),
    "fig-tx-pow": dict(schemes=("thp-adaptive", "thp-fixed4"), drops=200),
}


def preset_config(name) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"preset: unknown preset '{name}'")
    return ExperimentConfig(**PRESETS[name])


def load_config_file(path) -> ExperimentConfig:
    """Parse a flat `key = value` text file into an ExperimentConfig.

    A `#` at the start of a line or after whitespace starts a comment that
    runs to the end of the line; any other `#` is part of the value, so
    `output_dir = out#1` names the directory `out#1`.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config: cannot read '{path}': {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config: cannot read '{path}': not UTF-8 text, {exc.reason} at "
                          f"byte {exc.start}") from exc
    known = {f.name for f in fields(ExperimentConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?<!\S)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        try:
            values[key] = parse_field(key, val)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return ExperimentConfig(**values)


def parse_field(key, val):
    """The typed value of config field `key` written as text; ConfigError names the key.

    A number that is not finite (nan, inf) cannot be parsed.
    """
    try:
        if key == "region_km":
            dims = tuple(_finite(p) for p in val.replace("x", ",").split(","))
            if len(dims) != 2:
                raise ValueError("expected two dimensions, e.g. 10x10")
            return dims
        if key == "schemes":
            return tuple(s.strip() for s in val.split(",") if s.strip())
        if key == "snr_db":
            parts = [_finite(p) for p in val.split(",")]
            return parts if len(parts) > 1 else parts[0]
        if key in ("drops", "csi_l", "seed"):
            return int(val)
        if key == "output_dir":
            return val
        if key == "lambda_u" and val.lower() in ("none", ""):
            return None
        return _finite(val)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse '{val}' ({exc})") from None


def _finite(text):
    x = float(text)
    if not math.isfinite(x):
        raise ValueError("not a finite number")
    return x


# ---------------------------------------------------------------------------
# single-drop simulation
# ---------------------------------------------------------------------------


def _drop_rng(seed, drop_index):
    return default_rng(SeedSequence(seed, spawn_key=(drop_index,)))


@dataclass
class Drop:
    """What the schemes of one drop read: its channel, its cluster if any, and the sweep."""

    config: ExperimentConfig
    index: int
    H: np.ndarray  # the cohort channel, k x k
    cluster: tuple | None  # (H_in, i_r); None without clustered schemes or in-cluster BSs
    sigma_sq: np.ndarray  # noise power of each SNR point

    @cached_property
    def lq(self):
        # one factorization shared by the THP schemes and, with them, zfdpc
        return lq_factor(self.H)

    @cached_property
    def thp_power(self):
        """{scheme: power samples, one row per SNR point} of every configured THP scheme.

        One precode pass serves them all.  Every (mode, SNR) sample averages
        thp.DATA_VECTORS data vectors drawn from a fresh (seed, (drop, 1))
        substream, so the THP draws leave the rate schemes' stream alone and
        each sample equals its own run.
        """
        c = self.config
        modes = {s: _THP_MODES[s] for s in c.schemes if s in _THP_MODES}
        seed = SeedSequence(c.seed, spawn_key=(self.index, 1))
        power = thp.drop_power_sample(self.lq, self.sigma_sq, modes.values(), seed)
        return {s: power[mode][:, None] for s, mode in modes.items()}


def simulate_drop(config: ExperimentConfig, drop_index: int, debug_dir=None,
                  dump_geometry=False, dump_channels=False) -> dict:
    """One network realization evaluated for every configured scheme.

    Returns {scheme: (m, k_s) rates in bps/Hz}, row j at config.snr_list[j],
    without the schemes that have no streams in the drop.  Each scheme runs
    once over the whole SNR sweep, so the channel, the fades and every
    factorization are shared by the sweep, which isolates the noise effect.
    THP rows are (m, 1), one power sample per SNR.  With debug_dir set, the
    drop writes the point sets and the channel matrix it drew there.
    """
    rng = _drop_rng(config.seed, drop_index)
    region = Region(*config.region_km)
    bs = sample_ppp(config.lambda_b, region, rng)
    ue = sample_ppp(config.lambda_u_effective, region, rng)
    stem = None if debug_dir is None else Path(debug_dir, f"drop{drop_index:04d}")
    if stem and dump_geometry:
        _write_points_csv(f"{stem}_bs.csv", bs)
        _write_points_csv(f"{stem}_ue.csv", ue)
    if len(bs) == 0 or len(ue) == 0:
        return {}
    cohort = select_cohort(associate(bs, ue), rng)
    if cohort.k == 0:
        return {}
    z = distance_block(ue[cohort.ue_indices], bs[cohort.bs_indices])
    H = build_channel(z, config.alpha, rng)
    if stem and dump_channels:
        _write_channel_csv(f"{stem}_H.csv", H)
    cluster = None
    if any(s.startswith("clustered") for s in config.schemes):
        cluster = _cluster_channel(config, region, bs, cohort, z, rng)

    sigma_sq = np.array([sigma_sq_from_snr_db(snr) for snr in config.snr_list])
    drop = Drop(config, drop_index, H, cluster, sigma_sq)
    # a rate that overflows is reported below as a NumericalError, not warned about
    with np.errstate(over="ignore"):
        rows = {s: SCHEMES[s](drop) for s in config.schemes}
    for s, r in rows.items():
        if r is not None and not np.isfinite(r).all():
            raise NumericalError(f"{s}: a rate of drop {drop_index} is not finite")
    return {s: r for s, r in rows.items() if r is not None}


def _cluster_channel(config, region, bs, cohort, z, rng):
    """(H_in, i_r) of the cohort streams inside the cluster disc; None if it has none.

    Stream i of the cohort is row and column i of the cohort distance block z,
    so the split of the cohort's BSs indexes both blocks this needs straight
    from it.
    """
    disc = split_cluster(bs[cohort.bs_indices], region.center, config.cluster_radius_km)
    inside, outside = np.flatnonzero(disc), np.flatnonzero(~disc)
    if not inside.size:
        return None
    H_in = build_channel(z[np.ix_(inside, inside)], config.alpha, rng)
    i_r = inter_cluster_interference(z[np.ix_(inside, outside)], config.alpha, rng)
    return H_in, i_r


def _write_points_csv(path, points):
    """A --dump-geometry file: an `x,y` header, then one row per point at %.9g."""
    np.savetxt(path, points, fmt="%.9g", delimiter=",", header="x,y", comments="")


def _write_channel_csv(path, H):
    """The --dump-channels file: one row per stream, re/im interleaved, at %.9g."""
    k = H.shape[0]
    out = np.empty((k, 2 * k))
    out[:, 0::2] = H.real
    out[:, 1::2] = H.imag
    np.savetxt(path, out, fmt="%.9g", delimiter=",")


_THP_MODES = {"thp-adaptive": "adaptive", "thp-fixed4": 4, "thp-fixed16": 16,
             "thp-fixed64": 64}


# scheme name -> fn(drop) -> one row of rates in bps/Hz (THP: of powers) per SNR
# point of drop.sigma_sq, or None when the drop has no streams for the scheme
SCHEMES = {
    "conventional": lambda d: precoding.conventional_rates(d.H, d.sigma_sq),
    # the THP schemes factor H anyway; without them the R-only QR gives the gains
    "zfdpc": lambda d: precoding.zfdpc_rates(
        d.lq if _THP_MODES.keys() & set(d.config.schemes) else d.H, d.sigma_sq),
    "uplink-sic": lambda d: precoding.uplink_sic_rates(d.H, d.sigma_sq),
    "mmse": lambda d: precoding.mmse_rates(d.H, d.sigma_sq),
    "tic": lambda d: precoding.tic_rate(d.H, d.sigma_sq),
    "smf": lambda d: precoding.smf_rate(d.H, d.sigma_sq, len(d.H)),
    "smf2": lambda d: precoding.smf_rate(d.H, d.sigma_sq, min(2, len(d.H))),
    "zfdpc-partial": lambda d: precoding.zfdpc_partial_rates(
        d.H, take_partial_csi(d.H, min(d.config.csi_l, len(d.H))), d.sigma_sq),
    "clustered": lambda d: d.cluster and precoding.clustered_rates(*d.cluster, d.sigma_sq),
    "clustered-partial": lambda d: d.cluster and precoding.clustered_rates(
        *d.cluster, d.sigma_sq, csi_l=d.config.csi_l),
    **{s: (lambda d, s=s: d.thp_power[s]) for s in _THP_MODES},
}


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    name: str
    config: dict
    seed: int
    summaries: dict          # scheme -> snr(str) -> RateCdf summary dict
    gains_vs_conventional: dict
    wall_clock_s: float
    drops_effective: int

    def to_json(self, **kw):
        return json.dumps(asdict(self), indent=2, sort_keys=True, **kw)


def _worker(args):
    config, idx, dumps = args
    return simulate_drop(config, idx, **dumps)


# a pool process keeps this limit for its whole life, so it is never exited; it
# is held here, since a collected context runs its exit and restores the count
_POOL_BLAS_LIMIT = blas_threads(1)


def _one_blas_thread():
    _POOL_BLAS_LIMIT.__enter__()


# k ~ 30 matrices cost OpenBLAS more in thread start-up than in work, a pool of n processes
# would run n times as many threads as cores, and the thread count can move a rate's last bits
@blas_threads(1)
def simulate(config: ExperimentConfig, workers=1, dumps=None) -> dict:
    """{(scheme, snr_db): [(drop_index, rates), ...]} over every drop of config.

    Each list is in drop order for any worker count and skips the drops in which
    the scheme has no streams.  dumps (simulate_drop's keywords) go to drops < DEBUG_DROPS.
    """
    jobs = [(config, i, dumps if dumps and i < DEBUG_DROPS else {}) for i in range(config.drops)]
    # a fork pool starts all its processes at once, so never more than there are drops
    workers = min(workers, len(jobs))
    if workers > 1:
        # imported here, so a serial run never loads the pool modules
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            chunk = max(1, len(jobs) // (workers * 8))
            results = list(pool.map(_worker, jobs, chunksize=chunk))
    else:
        results = map(_worker, jobs)
    # both maps yield in job order, so drop i is the i-th result whatever the scheduling
    pooled = {}
    for i, drop in enumerate(results):
        for scheme, rows in drop.items():
            for snr, rates in zip(config.snr_list, rows):
                pooled.setdefault((scheme, snr), []).append((i, rates))
    return pooled


def run(config: ExperimentConfig, workers=1, name="run", dump_geometry=False,
        dump_channels=False) -> ExperimentReport:
    """Execute a config: simulate drops, aggregate, emit CSVs and a summary.

    Identical (seed, config) give byte-identical CSVs for any worker count.
    The dump flags make the first DEBUG_DROPS drops write what they drew under
    debug/.
    """
    if workers < 1:
        raise ConfigError("workers: must be at least 1")
    _require_valid(config)
    t0 = time.perf_counter()
    out_root = Path(config.output_dir or ".") / name
    dumps = {}
    if dump_geometry or dump_channels:
        dumps = dict(debug_dir=out_root / "debug", dump_geometry=dump_geometry,
                     dump_channels=dump_channels)
    # made before the first drop, so a path that cannot be a directory costs no drop
    try:
        dumps.get("debug_dir", out_root).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir: cannot create '{exc.filename}': {exc.strerror}") from exc
    collected = simulate(config, workers, dumps)

    sweep = len(config.snr_list) > 1
    # each CDF's sorted samples are freed once its summary and CSV are
    # written; the gains read only its mean and cell edge, kept here
    summaries, kept, templates = {}, {}, {}
    for (scheme, snr), chunks in sorted(collected.items()):
        cdf = build_cdf(np.concatenate([r for _, r in chunks]))
        kept[(scheme, snr)] = SimpleNamespace(mean=cdf.mean, cell_edge=cdf.cell_edge)
        summaries.setdefault(scheme, {})[_snr_key(snr)] = cdf.summary()
        fname = f"{scheme}_snr{_snr_key(snr)}.csv" if sweep else f"{scheme}.csv"
        _write_rates_csv(out_root / fname, chunks, templates)

    gains = {}
    for (scheme, snr), cdf in kept.items():
        basecdf = kept.get(("conventional", snr))
        if basecdf is not None and scheme != "conventional" and scheme not in _THP_MODES:
            gains.setdefault(scheme, {})[_snr_key(snr)] = {
                "mean_pct": gain_percent(cdf, basecdf, "mean"),
                "cell_edge_pct": gain_percent(cdf, basecdf, "cell_edge"),
            }

    report = ExperimentReport(
        name=name,
        config=config.echo(),
        seed=config.seed,
        summaries=summaries,
        gains_vs_conventional=gains,
        wall_clock_s=time.perf_counter() - t0,
        drops_effective=len({i for chunks in collected.values() for i, _ in chunks}),
    )
    (out_root / "summary.json").write_text(report.to_json())
    return report


def _snr_key(snr):
    return f"{snr:g}"


def _write_rates_csv(path, chunks, templates):
    # one %-format call per drop formats all its rows; %.12g and f"{r:.12g}"
    # print a float the same way.  templates maps (drop_id, stream count) to
    # the drop's row template; the caller shares it across the files of a run,
    # since every SNR point and most schemes of a drop have the same streams.
    # Each drop's rows go to the file as they are formatted, so the whole
    # file is never one string
    with open(path, "w") as f:
        f.write("drop_id,stream,rate\n")
        for drop_id, rates in chunks:
            n = len(rates)
            template = templates.get((drop_id, n))
            if template is None:
                template = "".join(f"{drop_id},{s},%.12g\n" for s in range(n))
                templates[drop_id, n] = template
            f.write(template % tuple(rates.tolist()))


# ---------------------------------------------------------------------------
# tagged-user sampling and cross-validation against the analytic curves
# ---------------------------------------------------------------------------


# samples that the tagged sampler draws and holds at once
_BLOCK_ROWS = 512
# the mean BS count of a tagged sample's disc, set by the bound in tagged_rate_samples
DISC_BSS = 64


def _tagged_disc(lam, alpha):
    """(radius, far-field mean) of the tagged disc, which holds DISC_BSS BSs on average."""
    radius = math.sqrt(DISC_BSS / (math.pi * lam))
    return radius, 2.0 * np.pi * lam / (alpha - 2.0) * radius ** (2.0 - alpha)


def tagged_rate_samples(schemes, n, lam, sigma_sq, alpha, rng):
    """{scheme: n rate samples in bps/Hz} of tagged users, each centred in its own field.

    The user sits at the centre of a disc of radius R = sqrt(N / (pi*lam))
    that holds N = DISC_BSS BSs on average, and the mean of the field beyond
    it, mu_R = 2*pi*lam*R**(2-alpha) / (alpha-2), is added to i_r.  The draws
    depend on N alone, so (lam / c**2, sigma_sq * c**-alpha) gives the same
    samples up to rounding: the sampler is scale-free.  Every scheme of
    `schemes` (names in CROSSVAL_SCHEMES) reads the same fields: a scheme's
    sample i is its SINR reduction of field i.  The draws do not depend on
    `schemes`, so neither do a scheme's samples nor the generator's end state.

    N is set by a bound on replacing the far field I by mu_R.  W = I / mu_R
    has mean 1 and, with unit-mean exponential fades (E h**2 = 2), variance
    2*rho, rho = (alpha-2)**2 / (4*(alpha-1)*N): its law depends on N and
    alpha alone.  From the far field's Laplace functional (Haenggi and Ganti,
    Interference in Large Wireless Networks, 2009), 0 <= log E e^(-yW) + y
    <= rho*y**2, so a Laplace factor errs by D(y) = E e^(-yW) - e^(-y) in
    [0, e^(-y) (e^(rho*y**2) - 1)], at most 0.56*rho for rho <= 0.01.
    - tic and smf2 read f0 and f1 alone, exact unless the disc holds fewer
      than two BSs, P = e^-N (1 + N) = 1e-26 (N >= ln 1e12, 27.6, would do).
    - smf2-interf's coverage given z1, z2 and the field inside the disc is
      (x2 F(x1) - x1 F(x2)) / (x2 - x1), x = z**alpha, F(x) = E exp(-g x
      (sigma_sq + I_near + I)) at SINR threshold g.  Its error is a mean,
      with weights 1/t**2 over t in [x1, x2], of the Jensen gap
      E h(a + yW) - h(a + y) of h(v) = (1 + v) e^-v at y = g t mu_R and
      a = g t (sigma_sq + I_near) >= 0, so the divided difference adds
      nothing as x2 nears x1.  To second order the gap is
      rho y**2 (a + y - 1) e^-(a+y), at most 0.93*rho (a = 0, y = 2 + sqrt 2).
      W's third cumulant, 3 (alpha-2)**3 / (2 (3 alpha - 2) N**2), bounds the
      next order: below 1.1*rho for y <= 1/(2 rho) at N = 64 and alpha <= 5,
      and beyond it E e^(-yW) <= e^(-1/(4 rho)), 4e-13 at alpha 5.
    So every CDF point errs by at most 1.1*rho: 0.0097 at alpha 5, 0.0057 at
    4 and 0.0021 at 3, each at most a third of smf2-interf's 0.03 limit in
    cli.CROSSVAL_LIMITS, whose sup gap then reads mostly Monte Carlo noise
    (the DKW 95% band is 0.0096 at 20,000 samples).  The cost is linear in N.
    A count below 3 is raised to 3, which keeps p[:, 1] and p[:, 2:] defined:
    P[count < 3] = e^-N (1 + N + N**2/2) = 3e-25, so it never acts on a run.

    The samples are drawn in blocks of _BLOCK_ROWS, and only a block is held.
    Each block draws from rng, in this order: the BS count of every sample,
    then every BS's uniform, then every BS's fade, each in sample order and,
    within a sample, nearest BS first for the fades.  The field beyond the two
    nearest BSs is summed over a zero-padded row as wide as the block's
    largest count.  Both the draw order and numpy's pairwise sum, which rounds
    by the row length, are per block, so the samples depend on _BLOCK_ROWS.
    rng may be any numpy Generator.
    """
    for scheme in schemes:
        if scheme not in CROSSVAL_SCHEMES:
            raise ConfigError(f"schemes: no analytic counterpart for '{scheme}'")
    radius, tail_mean = _tagged_disc(lam, alpha)

    def reduce_block(row, m):
        # a call per block, so one block's arrays are freed before the next draws
        counts = np.maximum(rng.poisson(DISC_BSS, size=m), 3)
        p = _faded_powers(counts, radius, alpha, rng)
        i_r = p[:, 2:].sum(axis=1) + tail_mean
        for s in schemes:
            sinr = CROSSVAL_SCHEMES[s][1](p[:, 0], p[:, 1], i_r, sigma_sq)
            out[s][row:row + m] = np.log1p(sinr) / np.log(2.0)

    out = {s: np.empty(n) for s in schemes}
    for row in range(0, n, _BLOCK_ROWS):
        reduce_block(row, min(_BLOCK_ROWS, n - row))
    return out


def _faded_powers(counts, radius, alpha, rng):
    """One block's faded powers, a zero-padded row per sample, nearest BS first.

    Each row of an inf-padded array holds one sample's uniforms u.  The
    distance radius * sqrt(u) is monotone in u, so sorting u orders the
    distances, and a float array without NaN or -0.0 has one sorted order, so
    the sort kind cannot change a bit.  A padding entry is a BS that is not
    there, of power 0.
    """
    filled = np.arange(counts.max()) < counts[:, None]
    u = np.full(filled.shape, np.inf)
    u[filled] = rng.uniform(size=int(counts.sum()))
    u.sort(axis=1)
    p = u[filled]
    np.sqrt(p, out=p)
    p *= radius
    np.power(p, -alpha, out=p)
    p *= rng.exponential(1.0, size=p.size)
    u.fill(0.0)
    u[filled] = p
    return u


def crossvalidate(config: ExperimentConfig, samples=100_000) -> dict:
    """Monte Carlo vs analytic coverage on a shared threshold grid.

    For every configured scheme with an analytic counterpart, draws `samples`
    tagged-user rates and reports the sup CDF gap and the SNR shift (dB)
    between the two curves at CDF level 0.5.  Every scheme reads the same
    tagged samples' fields, drawn once, block by block, from the
    (seed, 0xC0FFEE) substream that no drop draws from.
    """
    if samples < 1:
        raise ConfigError("samples: must be at least 1")
    wanted = tuple(s for s in config.schemes if s in CROSSVAL_SCHEMES)
    if not wanted:
        raise ConfigError("schemes: crossvalidate needs one of " + ", ".join(CROSSVAL_SCHEMES))
    # 'smf2-interf' exists only as an analytic pairing, not as a run scheme
    rest = tuple(s for s in config.schemes if s != "smf2-interf") or ("tic",)
    _require_valid(replace(config, schemes=rest))
    if len(config.snr_list) != 1:
        raise ConfigError("snr_db: crossvalidate expects a scalar SNR")
    sigma_sq = sigma_sq_from_snr_db(config.snr_list[0])
    rng = default_rng(SeedSequence(config.seed, spawn_key=(0xC0FFEE,)))
    # a rate that overflows is reported below as a NumericalError, not warned about
    with np.errstate(over="ignore"):
        per_scheme = tagged_rate_samples(wanted, samples, config.lambda_b, sigma_sq,
                                         config.alpha, rng)
    report = {}
    for scheme, rates in per_scheme.items():
        if not np.isfinite(rates).all():
            raise NumericalError(f"{scheme}: a tagged sample is not finite")
        cdf = build_cdf(rates)
        grid = np.linspace(0.0, cdf.quantile(0.9999) + 0.5, 241)
        curve = CROSSVAL_SCHEMES[scheme][0](config.lambda_b, sigma_sq, grid, alpha=config.alpha)
        mc_cov = 1.0 - cdf.cdf_at(grid)
        gap = float(np.max(np.abs(mc_cov - curve)))
        shift = _snr_shift_db(grid, mc_cov, curve)
        report[scheme] = {
            "samples": cdf.n,
            "sup_gap": gap,
            "snr_shift_db_at_median": shift,
        }
    return report


def _median_threshold(grid, coverage):
    # t where the coverage curve crosses 0.5 (linear interpolation)
    c = np.asarray(coverage)
    idx = np.flatnonzero(c <= 0.5)
    if idx.size == 0 or idx[0] == 0:
        return grid[0]
    i = idx[0]
    w = (0.5 - c[i - 1]) / (c[i] - c[i - 1])
    return grid[i - 1] + w * (grid[i] - grid[i - 1])


def _snr_shift_db(grid, cov_a, cov_b):
    ga = analytic.gamma_threshold(_median_threshold(grid, cov_a))
    gb = analytic.gamma_threshold(_median_threshold(grid, cov_b))
    if ga <= 0 or gb <= 0:
        return 0.0
    return float(10.0 * np.log10(ga / gb))

"""Experiment runner: declarative configs, per-figure presets, deterministic
seeding, CSV/JSON emission, and Monte Carlo vs analytic cross-validation.

A run iterates independent drops.  Each drop derives its own random substream
from (seed, drop index), so results are byte-identical for a given seed and
config regardless of worker count.  simulate_drop draws one network, runs each
configured scheme's kernel (a field of its SCHEMES record) once over the whole
SNR sweep and dumps what it drew; simulate is the one loop that pools the drops' rates.
"""

import json
import math
import re
import time
from dataclasses import asdict, dataclass, fields
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

DEBUG_DROPS = 4  # drops that write --dump-* files
MAX_COHORT = 2048  # the largest expected cohort, lambda_b * area, validate lets a run draw


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


def validate(config: ExperimentConfig, analytic=False):
    """Check every config invariant; returns (errors, warnings) naming fields.

    With analytic, as crossvalidate checks, a scheme without a kernel is known too.
    Without it, a run's drop must fit in memory.  At its peak a drop holds about
    ten k x k complex arrays (H, L, the MMSE Gram and its inverse, uplink SIC's
    factors): 150 k**2 bytes, measured over all 14 run schemes at k = 800 and
    1,200.  The cohort size k is at most the BS count, Poisson with mean
    lambda_b * area, so a mean above MAX_COHORT = 2,048 is refused: at the
    limit a drop peaks near 0.63 GB, and 0.75 GB four standard deviations up.
    crossvalidate's tagged disc holds 64 BSs on average at any lambda_b, so
    the rule is not applied there.
    """
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
    elif not analytic and config.lambda_b * w * h > MAX_COHORT:
        errors.append(f"lambda_b: expected cohort lambda_b * area = {config.lambda_b * w * h:g}"
                      f" exceeds {MAX_COHORT} streams")
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
        if s not in SCHEMES or not (analytic or SCHEMES[s].kernel):
            errors.append(f"schemes: unknown scheme '{s}'")
    for s in dict.fromkeys(s for s in config.schemes if config.schemes.count(s) > 1):
        errors.append(f"schemes: '{s}' listed twice")
    snrs = config.snr_list
    if any(b <= a for a, b in zip(snrs, snrs[1:])):
        errors.append("snr_db: sweep must be strictly increasing")
    elif len(set(map(_snr_key, snrs))) < len(snrs):
        errors.append("snr_db: sweep points equal to 6 significant digits share an output file")
    if not all(_has_noise_power(snr) for snr in snrs):
        errors.append("snr_db: noise power 10^(-snr_db/10) must be a finite positive number")
    if config.csi_l is not None and config.csi_l < 1:
        errors.append("csi_l: must be at least 1")
    if config.cluster_radius_km is not None and config.cluster_radius_km <= 0:
        errors.append("cluster_radius_km: must be positive")
    for s in config.schemes:
        for field in SCHEMES[s].needs if s in SCHEMES else ():
            if getattr(config, field) is None:
                errors.append(f"{field}: required by scheme '{s}'")
    if config.seed < 0:
        errors.append("seed: must be non-negative")
    return errors, warnings


def _has_noise_power(snr_db):
    try:
        sigma_sq = sigma_sq_from_snr_db(snr_db)
    except OverflowError:
        return False
    return math.isfinite(sigma_sq) and sigma_sq > 0


def _require_valid(config, analytic=False):
    errors, _ = validate(config, analytic)
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
        # one factorization shared by the THP schemes and, with them, zfdpc;
        # neither reads Q, so it is not formed
        return lq_factor(self.H, q=False)

    @cached_property
    def thp_modes(self):  # the thp_mode of every configured THP scheme, in config order
        return [SCHEMES[s].thp_mode for s in self.config.schemes if SCHEMES[s].thp_mode]

    @cached_property
    def thp_power(self):
        """{thp_mode: power samples, one row per SNR point} of every configured THP scheme.

        One precode pass serves them all.  Every (mode, SNR) sample averages
        thp.DATA_VECTORS data vectors drawn from a fresh (seed, (drop, 1))
        substream, so the THP draws leave the rate schemes' stream alone and
        each sample equals its own run.
        """
        seed = SeedSequence(self.config.seed, spawn_key=(self.index, 1))
        power = thp.drop_power_sample(self.lq, self.sigma_sq, self.thp_modes, seed)
        return {mode: p[:, None] for mode, p in power.items()}


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
    if any("cluster_radius_km" in SCHEMES[s].needs for s in config.schemes):
        cluster = _cluster_channel(config, region, bs, cohort, H)

    sigma_sq = np.array([sigma_sq_from_snr_db(snr) for snr in config.snr_list])
    drop = Drop(config, drop_index, H, cluster, sigma_sq)
    # a rate that overflows is reported below as a NumericalError, not warned about
    with np.errstate(over="ignore"):
        rows = {s: SCHEMES[s].kernel(drop) for s in config.schemes}
    for s, r in rows.items():
        if r is not None and not np.isfinite(r).all():
            raise NumericalError(f"{s}: a rate of drop {drop_index} is not finite")
    return {s: r for s, r in rows.items() if r is not None}


def _cluster_channel(config, region, bs, cohort, H):
    """(H_in, i_r) of the cohort streams inside the cluster disc; None if it has none.

    Stream i of the cohort is row and column i of H, so the split of the
    cohort's BSs indexes both blocks straight from it: the in-cluster channel,
    and the out-of-cluster block whose row powers are i_r.  Nothing is drawn.
    """
    disc = split_cluster(bs[cohort.bs_indices], region.center, config.cluster_radius_km)
    inside, outside = np.flatnonzero(disc), np.flatnonzero(~disc)
    if not inside.size:
        return None
    return H[np.ix_(inside, inside)], inter_cluster_interference(H[np.ix_(inside, outside)])


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


# one record per scheme name, read by field, never by name.  kernel: fn(drop)
# -> a row of rates in bps/Hz (THP: of powers) per SNR point of drop.sigma_sq,
# or None if the drop has no streams for it; a scheme without one is analytic
# only.  thp_mode: a THP scheme's thp.drop_power_sample mode.  needs: the config
# fields it requires.  baseline: what run's gains are measured against.  curve:
# its coverage, fn(lam, sigma_sq, grid, alpha=); sinr: fn(f0, f1, i_r, sigma_sq),
# a tagged SINR from its two nearest BSs' faded powers and i_r, the rest of its
# field.  limit: the sup gap that fails crossvalidate --assert.  Each function
# looks its target up on its module at each call, so a rebound attribute runs.
@dataclass(frozen=True)
class Scheme:
    kernel: object = None
    thp_mode: object = None
    needs: tuple = ()
    baseline: str | None = "conventional"
    curve: object = None
    sinr: object = None
    limit: float | None = None


SCHEMES = {
    "conventional": Scheme(lambda d: precoding.conventional_rates(d.H, d.sigma_sq), baseline=None),
    # the THP schemes factor H anyway; without them the R-only QR gives the gains
    "zfdpc": Scheme(lambda d: precoding.zfdpc_rates(d.lq if d.thp_modes else d.H, d.sigma_sq)),
    "uplink-sic": Scheme(lambda d: precoding.uplink_sic_rates(d.H, d.sigma_sq)),
    "mmse": Scheme(lambda d: precoding.mmse_rates(d.H, d.sigma_sq)),
    "tic": Scheme(lambda d: precoding.tic_rate(d.H, d.sigma_sq),
                  curve=lambda *a, **kw: analytic.tau_tic_curve(*a, **kw),
                  sinr=lambda f0, f1, i_r, sigma_sq: f0 / sigma_sq, limit=0.02),
    "smf": Scheme(lambda d: precoding.smf_rate(d.H, d.sigma_sq, len(d.H))),
    "smf2": Scheme(
        lambda d: precoding.smf_rate(d.H, d.sigma_sq, min(2, len(d.H))),
        curve=lambda *a, **kw: analytic.tau_smf2_curve(*a, with_interference=False, **kw),
        sinr=lambda f0, f1, i_r, sigma_sq: (f0 + f1) / sigma_sq, limit=0.02),
    "smf2-interf": Scheme(
        baseline=None, limit=0.03,
        curve=lambda *a, **kw: analytic.tau_smf2_curve(*a, with_interference=True, **kw),
        sinr=lambda f0, f1, i_r, sigma_sq: (f0 + f1) / (sigma_sq + i_r)),
    "zfdpc-partial": Scheme(lambda d: precoding.zfdpc_partial_rates(
        d.H, take_partial_csi(d.H, min(d.config.csi_l, len(d.H))), d.sigma_sq), needs=("csi_l",)),
    "clustered": Scheme(lambda d: d.cluster and precoding.clustered_rates(*d.cluster, d.sigma_sq),
                        needs=("cluster_radius_km",)),
    "clustered-partial": Scheme(lambda d: d.cluster and precoding.clustered_rates(
        *d.cluster, d.sigma_sq, csi_l=d.config.csi_l), needs=("csi_l", "cluster_radius_km")),
    "thp-adaptive": Scheme(lambda d: d.thp_power["adaptive"], thp_mode="adaptive", baseline=None),
    "thp-fixed4": Scheme(lambda d: d.thp_power[4], thp_mode=4, baseline=None),
    "thp-fixed16": Scheme(lambda d: d.thp_power[16], thp_mode=16, baseline=None),
    "thp-fixed64": Scheme(lambda d: d.thp_power[64], thp_mode=64, baseline=None),
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
    # each CDF is freed once summarised and written, less the mean and cell edge the gains
    # read; a scheme with no streams in any drop gets a header-only CSV and n = 0
    summaries, kept, templates = {}, {}, {}
    for scheme, snr in [(s, snr) for s in config.schemes for snr in config.snr_list]:
        chunks = collected.get((scheme, snr), [])
        summaries.setdefault(scheme, {})[_snr_key(snr)] = {"n": 0}
        if chunks:
            cdf = build_cdf(np.concatenate([r for _, r in chunks]))
            kept[(scheme, snr)] = SimpleNamespace(mean=cdf.mean, cell_edge=cdf.cell_edge)
            summaries[scheme][_snr_key(snr)] = cdf.summary()
        fname = f"{scheme}_snr{_snr_key(snr)}.csv" if sweep else f"{scheme}.csv"
        _write_rates_csv(out_root / fname, chunks, templates)

    gains = {}
    for (scheme, snr), cdf in kept.items():
        basecdf = kept.get((SCHEMES[scheme].baseline, snr))
        if basecdf is not None:
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
    `schemes` (SCHEMES names with a sinr) reads the same fields: a scheme's
    sample i is its sinr reduction of field i.  The draws do not depend on
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
        if scheme not in SCHEMES or SCHEMES[scheme].sinr is None:
            raise ConfigError(f"schemes: no analytic counterpart for '{scheme}'")
    radius, tail_mean = _tagged_disc(lam, alpha)

    def reduce_block(row, m):
        # a call per block, so one block's arrays are freed before the next draws
        counts = np.maximum(rng.poisson(DISC_BSS, size=m), 3)
        p = _faded_powers(counts, radius, alpha, rng)
        i_r = p[:, 2:].sum(axis=1) + tail_mean
        for s in schemes:
            sinr = SCHEMES[s].sinr(p[:, 0], p[:, 1], i_r, sigma_sq)
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
    wanted = tuple(s for s in config.schemes if s in SCHEMES and SCHEMES[s].curve)
    if not wanted:
        raise ConfigError("schemes: crossvalidate needs one of "
                          + ", ".join(s for s, r in SCHEMES.items() if r.curve))
    _require_valid(config, analytic=True)
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
        curve = SCHEMES[scheme].curve(config.lambda_b, sigma_sq, grid, alpha=config.alpha)
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

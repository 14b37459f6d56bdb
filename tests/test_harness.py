import concurrent.futures
import gc
import json
import math
import re
import shlex
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cloudradio import (ConfigError, ExperimentConfig, PRESETS, Region, crossvalidate,
                        load_config_file, preset_config, run, sample_ppp, simulate,
                        tagged_rate_samples, validate)
from cloudradio import channel, cli, harness, numerics, precoding, qam_constellation
from cloudradio.analytic import _laplace_exponent_integral
from cloudradio.cli import main
from cloudradio.harness import SCHEMES, Drop, simulate_drop

from conftest import random_complex

TINY = dict(drops=6, seed=42, schemes=("conventional", "zfdpc", "tic"))
# every scheme a run can configure: all but the analytic-only smf2-interf
RUN_SCHEMES = tuple(s for s, r in SCHEMES.items() if r.kernel)
THP_MODES = {"thp-adaptive": "adaptive", "thp-fixed4": 4, "thp-fixed16": 16, "thp-fixed64": 64}


def test_validate_ok_presets():
    for name in PRESETS:
        errors, _ = validate(preset_config(name))
        assert errors == []


def test_validate_names_fields():
    errors, _ = validate(ExperimentConfig(drops=0))
    assert any(e.startswith("drops") for e in errors)
    errors, _ = validate(ExperimentConfig(schemes=("nope",)))
    assert any("nope" in e for e in errors)
    errors, _ = validate(ExperimentConfig(snr_db=[10.0, 5.0]))
    assert any(e.startswith("snr_db") for e in errors)


# every (scheme, config field) pair the table says the scheme needs
NEEDS = [(s, f) for s, r in SCHEMES.items() for f in r.needs]


@pytest.mark.parametrize("scheme, field", NEEDS, ids=[f"{s}-{f}" for s, f in NEEDS])
def test_validate_names_each_field_a_scheme_needs(scheme, field):
    full = ExperimentConfig(schemes=(scheme,), csi_l=3, cluster_radius_km=4.0)
    assert validate(full) == ([], [])
    errors, _ = validate(replace(full, **{field: None}))
    assert errors == [f"{field}: required by scheme '{scheme}'"]


def test_the_table_names_what_each_field_reads():
    # the fields that replaced name tests: the config fields the partial-CSI
    # and clustered schemes need, THP's modes, the schemes without a run
    # baseline and the crossval limits
    assert {s: r.needs for s, r in SCHEMES.items() if r.needs} == {
        "zfdpc-partial": ("csi_l",), "clustered": ("cluster_radius_km",),
        "clustered-partial": ("csi_l", "cluster_radius_km")}
    assert {s: r.thp_mode for s, r in SCHEMES.items() if r.thp_mode} == THP_MODES
    assert {s for s, r in SCHEMES.items() if r.baseline is None} == {
        "conventional", "smf2-interf", *THP_MODES}
    assert {r.baseline for r in SCHEMES.values()} == {None, "conventional"}
    assert [s for s, r in SCHEMES.items() if not r.kernel] == ["smf2-interf"]
    assert cli.CROSSVAL_LIMITS == {"tic": 0.02, "smf2": 0.02, "smf2-interf": 0.03}
    assert all((r.curve is None) == (r.sinr is None) == (r.limit is None)
               for r in SCHEMES.values())


def test_validate_refuses_a_cluster_radius_that_is_not_positive():
    # on its own, whatever the schemes; a clustered scheme then reads the
    # same error, not "required by"
    for schemes in (("conventional",), ("clustered",)):
        for radius in (0.0, -3.0):
            errors, _ = validate(ExperimentConfig(schemes=schemes, cluster_radius_km=radius))
            assert errors == ["cluster_radius_km: must be positive"], (schemes, radius)


def test_validate_refuses_a_scheme_listed_twice():
    # a drop keys its rows by scheme name, so a second listing would be echoed
    # in the summary's config and write no file of its own
    errors, _ = validate(ExperimentConfig(schemes=("zfdpc", "tic", "zfdpc", "zfdpc", "tic")))
    assert errors == ["schemes: 'zfdpc' listed twice", "schemes: 'tic' listed twice"]
    errors, _ = validate(ExperimentConfig(schemes=("tic", "tic")), analytic=True)
    assert errors == ["schemes: 'tic' listed twice"]


@pytest.mark.parametrize("argv", [["run", "--schemes", "zfdpc,zfdpc"],
                                  ["validate", "--schemes", "zfdpc,zfdpc"],
                                  ["crossvalidate", "--schemes", "tic,tic", "--samples", "100"]],
                         ids=["run", "validate", "crossvalidate"])
def test_cli_refuses_a_scheme_listed_twice(tmp_path, capsys, argv):
    scheme = argv[2].split(",")[0]
    assert main(argv + ["--drops", "2", "--output-dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"config error: schemes: '{scheme}' listed twice\n")
    assert list(tmp_path.iterdir()) == []


def test_validate_refuses_sweep_points_that_share_a_file_name():
    # 10 and 10.0000001 both print as '10', so one CSV and one summary key
    # would hold the second point's rates and lose the first's
    errors, _ = validate(ExperimentConfig(snr_db=[10.0, 10.0000001]))
    assert errors == ["snr_db: sweep points equal to 6 significant digits share an output file"]
    assert validate(ExperimentConfig(snr_db=[10.0, 10.0001])) == ([], [])
    # a sweep that is not increasing names only that
    errors, _ = validate(ExperimentConfig(snr_db=[10.0, 10.0]))
    assert errors == ["snr_db: sweep must be strictly increasing"]


def test_cli_run_refuses_sweep_points_that_share_a_file_name(tmp_path, capsys):
    code = main(["run", "--schemes", "conventional", "--snr-db", "10,10.0000001", "--drops", "2",
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == ("config error: snr_db: sweep points equal to 6 "
                                       "significant digits share an output file\n")
    assert list(tmp_path.rglob("*.csv")) == []


@pytest.mark.parametrize("command", ["run", "validate"])
def test_cli_refuses_the_analytic_only_scheme_outside_crossvalidate(tmp_path, capsys, command):
    assert main([command, "--schemes", "smf2-interf", "--drops", "2",
                 "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: schemes: unknown scheme 'smf2-interf'\n"
    assert list(tmp_path.iterdir()) == []
    errors, _ = validate(ExperimentConfig(schemes=("smf2-interf",)))
    assert errors == ["schemes: unknown scheme 'smf2-interf'"]
    assert validate(ExperimentConfig(schemes=("smf2-interf",)), analytic=True) == ([], [])


def test_validate_bounds_the_expected_cohort_of_a_run():
    # validate alone: nothing is drawn, so nothing large is allocated.  The
    # benchmark's cohorts (30 and 120) and every preset stay far inside
    assert harness.MAX_COHORT == 2048
    assert validate(ExperimentConfig(region_km=(32.0, 64.0), lambda_b=1.0)) == ([], [])
    errors, _ = validate(ExperimentConfig(region_km=(32.0, 64.0), lambda_b=1.001))
    assert errors == ["lambda_b: expected cohort lambda_b * area = 2050.05 exceeds 2048 streams"]
    errors, _ = validate(ExperimentConfig(lambda_b=100.0))
    assert errors == ["lambda_b: expected cohort lambda_b * area = 10000 exceeds 2048 streams"]
    # crossvalidate's tagged disc holds 64 BSs on average at any lambda_b
    assert validate(ExperimentConfig(lambda_b=100.0), analytic=True) == ([], [])


@pytest.mark.parametrize("argv, cohort", [
    (["--lambda-b", "100"], "10000"),
    (["--lambda-b", "300", "--lambda-u", "3000"], "30000"),
], ids=["lambda-b", "lambda-u"])
def test_cli_validate_refuses_a_cohort_too_large_for_memory(capsys, argv, cohort):
    # a 10,000-stream drop would need a 1.6 GB channel matrix alone
    assert main(["validate", *argv]) == 2
    assert capsys.readouterr() == ("", f"config error: lambda_b: expected cohort lambda_b * area"
                                       f" = {cohort} exceeds 2048 streams\n")


def test_cli_run_refuses_a_cohort_above_the_limit(tmp_path, capsys, monkeypatch):
    # the limit lowered to 20, so the default 30-stream cohort is refused: were
    # the rule missing, this run would draw one small drop, never a large one
    monkeypatch.setattr(harness, "MAX_COHORT", 20)
    assert main(["run", "--drops", "1", "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", "config error: lambda_b: expected cohort lambda_b * area"
                                       " = 30 exceeds 20 streams\n")
    assert list(tmp_path.iterdir()) == []


def test_cli_crossvalidates_the_analytic_only_scheme(capsys):
    assert main(["crossvalidate", "--schemes", "smf2-interf", "--samples", "2000"]) == 0
    assert list(json.loads(capsys.readouterr().out)) == ["smf2-interf"]


@pytest.mark.parametrize("field, value", [
    ("snr_db", math.inf), ("snr_db", [0.0, math.nan]), ("lambda_b", math.nan),
    ("lambda_b", math.inf), ("lambda_u", math.nan), ("region_km", (10.0, math.inf)),
    ("cluster_radius_km", math.inf),
])
def test_validate_rejects_non_finite_floats(field, value):
    errors, _ = validate(replace(ExperimentConfig(), **{field: value}))
    assert f"{field}: must be finite" in errors


def test_validate_occupancy_warning():
    _, warnings = validate(ExperimentConfig(lambda_b=0.3, lambda_u=0.1))
    assert any(w.startswith("lambda_u") for w in warnings)


def test_config_file_roundtrip(tmp_path):
    # a comment starts at a `#` that opens the line or follows whitespace;
    # any other `#` is part of the value
    text = """
# reference network
region_km = 10x10
lambda_b = 0.3
snr_db = -6,0,10,20
schemes = conventional, zfdpc
drops = 25  # twenty-five
  # an indented comment
seed = 9\t#tab
output_dir = out#1
"""
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    cfg = load_config_file(path)
    assert cfg.region_km == (10.0, 10.0)
    assert cfg.snr_db == [-6.0, 0.0, 10.0, 20.0]
    assert cfg.schemes == ("conventional", "zfdpc")
    assert cfg.drops == 25 and cfg.seed == 9
    assert cfg.output_dir == "out#1"


def test_config_file_bad_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("drops 10\n")
    with pytest.raises(ConfigError):
        load_config_file(path)


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset_config("fig-nope")


def test_simulate_drop_schemes_present():
    cfg = ExperimentConfig(**TINY)
    out = simulate_drop(cfg, 0)
    assert set(out) == set(cfg.schemes)
    for rows in out.values():
        assert rows.shape[0] == 1
        assert np.all(rows >= 0) and np.all(np.isfinite(rows))


def test_simulate_drop_deterministic():
    cfg = ExperimentConfig(**TINY)
    a = simulate_drop(cfg, 3)
    b = simulate_drop(cfg, 3)
    for key in a:
        assert np.array_equal(a[key], b[key])
    c = simulate_drop(cfg, 4)
    assert not np.array_equal(a["zfdpc"], c["zfdpc"])


def test_sweep_equals_its_single_snr_runs():
    # every scheme runs once per drop over the whole sweep; each SNR row must
    # be bit-identical to a run configured with that SNR alone
    cfg = ExperimentConfig(region_km=(12.0, 12.0), schemes=RUN_SCHEMES,
                           snr_db=[0.0, 10.0, 30.0], csi_l=3, cluster_radius_km=4.0, seed=8)
    for i in range(5):
        sweep = simulate_drop(cfg, i)
        assert set(sweep) == set(RUN_SCHEMES)
        for j, snr in enumerate(cfg.snr_list):
            single = simulate_drop(replace(cfg, snr_db=snr), i)
            assert single.keys() == sweep.keys()
            for s, rows in single.items():
                assert sweep[s].shape[0] == len(cfg.snr_list) and rows.shape[0] == 1, s
                assert np.array_equal(sweep[s][j], rows[0]), (s, snr)


@pytest.mark.parametrize("thp", [(), ("thp-adaptive",)], ids=["alone", "with-thp"])
def test_clustered_equals_zfdpc_at_a_covering_radius(thp):
    # a cluster that holds every BS cooperates over the whole cohort channel:
    # it reads the drop's own H and no inter-cluster power, so each clustered
    # scheme is its unclustered one bit for bit, whether zfdpc reads the THP
    # factorization or its own R-only QR
    cfg = ExperimentConfig(schemes=("zfdpc", "clustered", "zfdpc-partial", "clustered-partial",
                                    *thp), snr_db=[0.0, 10.0, 30.0], csi_l=3,
                           cluster_radius_km=100.0, seed=3)
    for i in range(20):
        rows = simulate_drop(cfg, i)
        assert rows["clustered"].tobytes() == rows["zfdpc"].tobytes(), i
        assert rows["clustered-partial"].tobytes() == rows["zfdpc-partial"].tobytes(), i


def test_a_drop_draws_one_channel_whatever_its_schemes(monkeypatch):
    # the clustered schemes read blocks of the cohort channel: a drop builds
    # one channel and leaves its generator in the same state with or without them
    built, rngs = [], []
    drop_rng = harness._drop_rng

    def counted_build(*args):
        built.append(args)
        return channel.build_channel(*args)

    def kept_rng(seed, index):
        rngs.append(drop_rng(seed, index))
        return rngs[-1]

    monkeypatch.setattr(harness, "build_channel", counted_build)
    monkeypatch.setattr(harness, "_drop_rng", kept_rng)
    plain = ExperimentConfig(schemes=("conventional", "zfdpc"), csi_l=3, cluster_radius_km=4.0)
    clustered = replace(plain, schemes=plain.schemes + ("clustered", "clustered-partial"))
    for i in range(6):
        states = []
        for cfg in (plain, clustered):
            built.clear()
            rows = simulate_drop(cfg, i)
            assert len(built) == 1, (cfg.schemes, i)
            states.append(rngs[-1].bit_generator.state)
        assert "clustered" in rows and states[0] == states[1], i


# presets that together run every rate scheme and THP
SCALE_PRESETS = ("fig-bounds", "fig-uplink", "fig-partial", "fig-partial-8", "fig-tx-pow")


@pytest.mark.parametrize("c", [0.5, 2.0])
def test_drop_pipeline_is_scale_invariant(monkeypatch, c):
    # A PPP network is scale-free: every length times c, both intensities over
    # c**2 and the SNR up by 10 alpha log10(c) dB leave every SINR unchanged.
    # The one length the pipeline fixes, channel.MIN_DISTANCE_KM (the 1 m
    # clamp), is scaled by c through monkeypatch for the scaled runs.
    # At a power of two the scaled drop draws the same numbers: lam * area,
    # each uniform times the region, the association's squared offsets and
    # band, the cluster centre and radius and every coordinate difference
    # scale exactly, so the counts, cohort, fades and cluster split are equal.
    # Bound, fixed before measuring, u = 2**-53, libm within 1 ulp (2u):
    # - what rounds differently: sigma^2 from the shifted dB value (the
    #   shift's log10 and product, the sum, /10 and 10**x amplified by ln 10:
    #   under 24u); a distance (hypot at both scales, 4u); a channel entry
    #   (z**(-alpha/2), 2 * 4u + 2 * 2u, and its product: 14u); a received
    #   power (38u); the inter-cluster power, a row sum of received powers
    #   (38u) that numpy sums pairwise: n < 240 BSs make at most two blocks
    #   of at most 127 terms, each through eight accumulators and a remainder,
    #   25 roundings deep, so the two sums round apart by 50u, 88u in all.
    #   Every input is within delta = 2**9 u;
    # - the kernels amplify that by their conditioning: conventional takes
    #   the signal from its row sum, and the factorizations (ZF-DPC, SIC,
    #   partial CSI, clustering, the MMSE inverse) by the cohort channel's
    #   condition.  Neither has an a priori bound; the test allows 2**15, so
    #   an SINR, or an MMSE error, moves by at most 2**-29 relative;
    # - a rate moves by that over ln 2 in absolute bits: |d log2(1 + x)| <=
    #   (dx / x) / ln 2 and |d log2(mse)| = (dmse / mse) / ln 2.  A relative
    #   bound would not hold where a rate is near 0, as MMSE's -log(mse) can
    #   be; the rates' own log and division add 4u |r|.
    # So |scaled - unscaled| <= 2**-28 (1 + |r|).  A length or intensity the
    # pipeline failed to scale moves rates by a good fraction of a bit.
    # THP samples are stated apart: a sample is a mean of modulo-reduced
    # powers, so rounding that moves one modulo wrap, or one adaptive order
    # (a capacity across 4 or 7 bits), moves it by O(1 / vectors), and nothing
    # bounds how near a drop comes to either.  Without such a move the
    # feedback l_ij / l_ii is scale-free and the power moves by rounding alone.
    # THP samples are held to 2**-20 relative, which also states that no wrap
    # or order moved on these drops
    for name in SCALE_PRESETS:
        cfg = replace(preset_config(name), drops=20, seed=11)
        scaled = replace(cfg, region_km=tuple(c * w for w in cfg.region_km),
                         lambda_b=cfg.lambda_b / c**2,
                         lambda_u=cfg.lambda_u and cfg.lambda_u / c**2,
                         snr_db=cfg.snr_db + 10.0 * cfg.alpha * math.log10(c),
                         cluster_radius_km=cfg.cluster_radius_km and cfg.cluster_radius_km * c)
        for i in range(cfg.drops):
            want = simulate_drop(cfg, i)
            with monkeypatch.context() as m:
                m.setattr(channel, "MIN_DISTANCE_KM", channel.MIN_DISTANCE_KM * c)
                got = simulate_drop(scaled, i)
            assert got.keys() == want.keys(), (name, i)
            for s, r in want.items():
                assert got[s].shape == r.shape, (name, i, s)
                if SCHEMES[s].thp_mode:
                    assert np.all(np.abs(got[s] - r) <= 2.0**-20 * r), (name, i, s)
                else:
                    assert np.all(np.abs(got[s] - r) <= 2.0**-28 * (1.0 + r)), (name, i, s)


def test_run_identical_bytes_and_worker_invariance(tmp_path):
    cfg = ExperimentConfig(**TINY, output_dir=str(tmp_path))
    r1 = run(cfg, workers=1, name="a")
    r2 = run(cfg, workers=1, name="b")
    r3 = run(cfg, workers=2, name="c")
    for scheme in cfg.schemes:
        b1 = (tmp_path / "a" / f"{scheme}.csv").read_bytes()
        assert b1 == (tmp_path / "b" / f"{scheme}.csv").read_bytes()
        assert b1 == (tmp_path / "c" / f"{scheme}.csv").read_bytes()
    assert r1.summaries == r3.summaries


def test_pool_initializer_keeps_one_blas_thread(monkeypatch):
    # a pool process enters the limit once and never exits it; a context that
    # nothing holds is collected at once, and its exit restores the count
    controls = numerics._openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS library is loaded")
    limit = numerics.blas_threads(1)
    monkeypatch.setattr(harness, "_POOL_BLAS_LIMIT", limit)
    with numerics.blas_threads(2):
        harness._one_blas_thread()
        gc.collect()
        counts = [get() for _, get in controls]
        limit.__exit__(None, None, None)
    assert counts == [1] * len(controls)


def test_simulate_gives_the_same_bits_at_any_worker_count():
    # a pool process runs OpenBLAS on one thread, so the serial loop must too.
    # At this seed drop 5 is the first fig-cluster drop whose clustered rates
    # differ in their last bits between one thread and OpenBLAS's default count
    cfg = replace(preset_config("fig-cluster"), drops=6, seed=20240811)
    serial, pooled = simulate(cfg), simulate(cfg, workers=2)
    assert serial.keys() == pooled.keys()
    for key, drops in serial.items():
        assert [i for i, _ in drops] == [i for i, _ in pooled[key]] == list(range(6)), key
        for (i, a), (_, b) in zip(drops, pooled[key]):
            assert np.array_equal(a, b), (key, i)


def test_run_starts_no_more_processes_than_drops(tmp_path, monkeypatch):
    # a fork pool starts all of its processes at once, busy or idle; the
    # stand-in records the pool size asked for and starts no process
    asked = []

    class RecordingPool:
        def __init__(self, max_workers, initializer):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = ExperimentConfig(**{**TINY, "drops": 2}, output_dir=str(tmp_path))
    run(cfg, workers=8, name="pool")
    assert asked == [2]
    # a single drop runs serially, without a pool
    run(replace(cfg, drops=1), workers=8, name="one")
    assert asked == [2]


def test_geometry_dump_csv_format(tmp_path):
    # a dumped point set is an `x,y` header, then one row per point the drop
    # drew, in draw order, each coordinate at %.9g
    cfg = ExperimentConfig(**TINY)
    simulate_drop(cfg, 0, tmp_path, dump_geometry=True)
    rng = harness._drop_rng(cfg.seed, 0)
    region = Region(*cfg.region_km)
    drawn = {"bs": sample_ppp(cfg.lambda_b, region, rng),
             "ue": sample_ppp(cfg.lambda_u_effective, region, rng)}
    for name, points in drawn.items():
        lines = (tmp_path / f"drop0000_{name}.csv").read_text().splitlines()
        assert lines[0] == "x,y"
        assert lines[1:] == [f"{x:.9g},{y:.9g}" for x, y in points]


def write_rates_csv_per_element(path, chunks):
    """Reference writer: one f-string per numpy scalar."""
    lines = ["drop_id,stream,rate"]
    for drop_id, rates in chunks:
        for stream, r in enumerate(rates):
            lines.append(f"{drop_id},{stream},{r:.12g}")
    path.write_text("\n".join(lines) + "\n")


def test_write_rates_csv_matches_per_element_writer(tmp_path):
    # a two-scheme sweep over three SNR points sharing one template cache, as
    # run() writes it: the second scheme has fewer streams in drops 0 and 12,
    # so a drop's template must be keyed by its stream count as well
    rng = np.random.default_rng(4)
    edge = np.array([0.0, 1e-300, 1e17, 1.0 / 3.0, -0.0, 5e-324, 2.5, 1e-5, 123456.789012345])
    templates = {}
    for scheme in ("a", "b"):
        for snr in (0, 10, 20):
            chunks = [
                (0, edge[:9 - 4 * (scheme == "b")] * (1 + snr)),
                (3, np.array([])),
                (12, rng.exponential(3.0, 200 - 31 * (scheme == "b"))),
                (1000, np.array([1.7976931348623157e308, 4.0 + snr])),
            ]
            fast, slow = tmp_path / f"{scheme}{snr}.csv", tmp_path / f"{scheme}{snr}_ref.csv"
            harness._write_rates_csv(fast, chunks, templates)
            write_rates_csv_per_element(slow, chunks)
            assert fast.read_bytes() == slow.read_bytes(), (scheme, snr)
    assert len(templates) == 6


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_cli_run_rejects_workers_below_one(tmp_path, monkeypatch, capsys, workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert main(["run", "--schemes", "tic", "--drops", "2", "--workers", workers,
                 "--output-dir", str(tmp_path)]) == 2
    assert "config error: workers: must be at least 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_run_report_contents(tmp_path):
    cfg = ExperimentConfig(**TINY, output_dir=str(tmp_path))
    report = run(cfg, name="r")
    assert set(report.summaries) == set(cfg.schemes)
    assert report.config["drops"] == cfg.drops
    assert report.config["schemes"] == list(cfg.schemes)
    assert report.gains_vs_conventional["zfdpc"]["10"]["mean_pct"] > 0
    on_disk = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert on_disk["seed"] == cfg.seed


def test_run_rejects_invalid_config(tmp_path):
    with pytest.raises(ConfigError):
        run(ExperimentConfig(drops=0, output_dir=str(tmp_path)))


def test_run_sweep_files(tmp_path):
    cfg = ExperimentConfig(drops=4, seed=3, schemes=("zfdpc",), snr_db=[0.0, 10.0],
                           output_dir=str(tmp_path))
    run(cfg, name="s")
    assert (tmp_path / "s" / "zfdpc_snr0.csv").exists()
    assert (tmp_path / "s" / "zfdpc_snr10.csv").exists()


def test_run_clustered_schemes(tmp_path):
    cfg = ExperimentConfig(region_km=(20.0, 20.0), drops=4, seed=11,
                           schemes=("clustered", "clustered-partial"),
                           cluster_radius_km=6.0, csi_l=4, output_dir=str(tmp_path))
    report = run(cfg, name="cl")
    assert "clustered" in report.summaries and "clustered-partial" in report.summaries


def test_cli_run_writes_a_scheme_without_streams(tmp_path, capsys):
    # no BS lies within 1 m of the centre, so clustered has no streams in any
    # drop: its CSV is a header and its summary n = 0, with no gain, and the
    # schemes with streams keep the bytes of a run without it
    argv = ["run", "--drops", "3", "--seed", "1", "--cluster-radius-km", "0.001"]
    assert main(argv + ["--schemes", "conventional,clustered", "--output-dir",
                        str(tmp_path / "both")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summaries"]["clustered"] == {"10": {"n": 0}}
    assert report["summaries"]["conventional"]["10"]["n"] > 0
    assert report["gains_vs_conventional"] == {}
    root = tmp_path / "both" / "run"
    assert sorted(p.name for p in root.iterdir()) == [
        "clustered.csv", "conventional.csv", "summary.json"]
    assert (root / "clustered.csv").read_text() == "drop_id,stream,rate\n"
    assert main(argv + ["--schemes", "conventional", "--output-dir", str(tmp_path / "one")]) == 0
    alone = tmp_path / "one" / "run" / "conventional.csv"
    assert (root / "conventional.csv").read_bytes() == alone.read_bytes()


def test_run_thp_power_scheme(tmp_path):
    cfg = ExperimentConfig(drops=4, seed=2, schemes=("thp-adaptive", "thp-fixed4"),
                           output_dir=str(tmp_path))
    report = run(cfg, name="p")
    # one power sample per drop, roughly k with the modulo penalty on top
    assert report.summaries["thp-adaptive"]["10"]["n"] == 4
    assert report.summaries["thp-fixed4"]["10"]["mean"] > 0


def _per_stream_thp_power(L, sigma_sq, mode, rng, vectors):
    """THP power as one draw and one modulo per stream (the unbatched algorithm)."""
    if mode == "adaptive":
        caps = np.log1p(np.abs(np.diag(L)) ** 2 / sigma_sq) / np.log(2.0)
        orders = [64 if c > 7 else 16 if c > 4 else 4 for c in caps]
    else:
        orders = [mode] * L.shape[0]
    data = np.empty((vectors, len(orders)), dtype=complex)
    for i, M in enumerate(orders):
        points, _ = qam_constellation(M)
        data[:, i] = points[rng.integers(M, size=vectors)]
    diag = np.real(np.diag(L))
    u = np.empty_like(data)
    u[:, 0] = data[:, 0]
    for i in range(1, len(orders)):
        x = data[:, i] - u[:, :i] @ (L[i, :i] / diag[i])
        _, tau = qam_constellation(orders[i])
        u[:, i] = ((np.mod(x.real + tau / 2.0, tau) - tau / 2.0)
                   + 1j * (np.mod(x.imag + tau / 2.0, tau) - tau / 2.0))
    return float(np.mean(np.sum(np.abs(u) ** 2, axis=1)))


def test_batched_thp_matches_per_mode_and_snr_draws():
    # one precode pass for all four schemes over the sweep; each (scheme, SNR)
    # sample must equal the unbatched algorithm on a fresh (seed, (drop, 1))
    # substream, bit for bit
    modes = {s: r.thp_mode for s, r in SCHEMES.items() if r.thp_mode}
    assert modes == THP_MODES
    cfg = ExperimentConfig(schemes=tuple(modes), snr_db=[0.0, 10.0, 30.0], seed=8)
    gen = np.random.default_rng(4)
    H = random_complex(gen, 9) * np.geomspace(0.3, 30.0, 9)[:, None]
    sigma_sq = np.array([1.0, 0.1, 0.001])
    drop = Drop(cfg, 5, H, None, sigma_sq)
    L = drop.lq.L
    caps = np.log2(1 + np.abs(np.diag(L)) ** 2 / 0.1)
    assert np.any(caps <= 4) and np.any(caps > 7)  # mixed constellations at 10 dB
    for scheme, mode in modes.items():
        rows = SCHEMES[scheme].kernel(drop)
        assert rows.shape == (3, 1)
        for j, s2 in enumerate(sigma_sq):
            sub = np.random.default_rng(np.random.SeedSequence(8, spawn_key=(5, 1)))
            want = _per_stream_thp_power(L, s2, mode, sub, 100)
            assert rows[j, 0] == want, (scheme, s2)


def test_drop_factors_without_q_unless_a_scheme_reads_it(monkeypatch):
    # zfdpc and the THP schemes read only L from Drop.lq, so it has no Q;
    # zfdpc-partial precodes with its own factorization's Q, still unitary
    partial = []

    def spy(H, q=True):
        fact = numerics.lq_factor(H, q)
        partial.append(fact)
        return fact

    monkeypatch.setattr(precoding, "lq_factor", spy)
    cfg = ExperimentConfig(schemes=("zfdpc", "zfdpc-partial", "thp-adaptive", "thp-fixed4"),
                           snr_db=[0.0, 10.0], csi_l=2)
    H = random_complex(np.random.default_rng(9), 6)
    drop = Drop(cfg, 0, H, None, np.array([1.0, 0.1]))
    for s in cfg.schemes:
        SCHEMES[s].kernel(drop)
    assert drop.lq.Q is None
    assert len(partial) == 1
    Q = partial[0].Q
    assert np.linalg.norm(Q @ Q.conj().T - np.eye(6)) <= 1e-10


def test_zfdpc_scheme_reads_the_shared_factorization():
    # with a THP scheme, zfdpc takes its gains from Drop.lq, which THP factors
    # anyway; without one, from the R-only QR, and no Q is formed.  Either way
    # the rates must be the bits of the standalone kernel on the channel
    sigma_sq = np.array([1.0, 0.1, 0.001])
    snr_db = [0.0, 10.0, 30.0]
    gen = np.random.default_rng(6)
    for schemes, shared in [(("zfdpc", "thp-adaptive"), True), (("conventional", "zfdpc"), False)]:
        cfg = ExperimentConfig(schemes=schemes, snr_db=snr_db)
        for k in (1, 2, 9, 30):
            H = random_complex(gen, k) * np.geomspace(0.3, 30.0, k)[:, None]
            if k > 2:
                H[2] = H[1]  # a degenerate stream
            drop = Drop(cfg, 0, H, None, sigma_sq)
            got = SCHEMES["zfdpc"].kernel(drop)
            assert ("lq" in vars(drop)) == shared, (schemes, k)
            want = precoding.zfdpc_rates(H, sigma_sq)
            assert got.tobytes() == want.tobytes(), (schemes, k)


def test_run_thp_sweep_identical_bytes_at_any_workers(tmp_path):
    cfg = ExperimentConfig(drops=6, seed=9, snr_db=[0.0, 20.0],
                           schemes=("zfdpc", "thp-adaptive", "thp-fixed4", "thp-fixed64"),
                           output_dir=str(tmp_path))
    run(cfg, workers=1, name="w1")
    run(cfg, workers=2, name="w2")
    files = sorted(p.name for p in (tmp_path / "w1").glob("*.csv"))
    assert len(files) == 8
    for name in files:
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()


# the schemes the tagged oracles below reduce a field to
TAGGED = ("tic", "smf2", "smf2-interf")


def test_tagged_samples_schemes(rng):
    before = rng.bit_generator.state
    with pytest.raises(ConfigError, match="zfdpc"):
        tagged_rate_samples(("tic", "zfdpc"), 10, 0.3, 0.1, 4.0, rng)
    assert rng.bit_generator.state == before
    s = tagged_rate_samples(("tic",), 2000, 0.3, 0.1, 4.0, rng)
    assert list(s) == ["tic"]
    assert s["tic"].shape == (2000,) and np.all(s["tic"] >= 0)


def lexsort_rate_samples(scheme, n, lam, sigma_sq, alpha, rng, batch=20000):
    """Reference tagged sampler: one lexsort over (sample, distance) per batch.

    Same draws as tagged_rate_samples; the smf2-interf field beyond the two
    nearest BSs is summed exactly with math.fsum.
    """
    radius, tail_mean = harness._tagged_disc(lam, alpha)
    out = []
    for done in range(0, n, batch):
        m = min(batch, n - done)
        counts = np.maximum(rng.poisson(harness.DISC_BSS, size=m), 3)
        total = int(counts.sum())
        r = radius * np.sqrt(rng.uniform(size=total))
        owner = np.repeat(np.arange(m), counts)
        r = r[np.lexsort((r, owner))]
        p = rng.exponential(1.0, size=total) * r ** (-alpha)
        starts = np.concatenate([[0], np.cumsum(counts)])
        z1p = p[starts[:-1]]
        z2p = p[starts[:-1] + 1]
        if scheme == "tic":
            sinr = z1p / sigma_sq
        elif scheme == "smf2":
            sinr = (z1p + z2p) / sigma_sq
        else:
            i_r = np.array([math.fsum(p[a + 2:b]) for a, b in zip(starts[:-1], starts[1:])])
            i_r += tail_mean
            sinr = (z1p + z2p) / (sigma_sq + i_r)
        out.append(np.log1p(sinr) / np.log(2.0))
    return np.concatenate(out)


@pytest.mark.parametrize("scheme", ["tic", "smf2", "smf2-interf"])
def test_tagged_samples_match_lexsort_reference(scheme):
    # ten blocks; for smf2-interf, subtracting the two nearest powers from
    # the whole field instead of summing the rest misses this by up to 1.9e-5
    args = (5000, 0.3, 0.1, 4.0)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = tagged_rate_samples(TAGGED, *args, rng)[scheme]
    ref = lexsort_rate_samples(scheme, *args, ref_rng, batch=harness._BLOCK_ROWS)
    if scheme == "smf2-interf":
        assert np.max(np.abs(got - ref)) < 1e-12
    else:
        assert np.array_equal(got, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def padded_sort_rate_samples(scheme, n, lam, sigma_sq, alpha, rng, batch=20000):
    """Reference tagged sampler: each whole batch as one inf-padded, row-sorted array."""
    radius, tail_mean = harness._tagged_disc(lam, alpha)
    out = np.empty(n)
    done = 0
    while done < n:
        m = min(batch, n - done)
        counts = np.maximum(rng.poisson(harness.DISC_BSS, size=m), 3)
        total = int(counts.sum())
        filled = np.arange(counts.max()) < counts[:, None]
        p = np.full(filled.shape, np.inf)
        p[filled] = radius * np.sqrt(rng.uniform(size=total))
        p.sort(axis=1)
        np.power(p, -alpha, out=p)
        p[filled] *= rng.exponential(1.0, size=total)
        z1p = p[:, 0]
        z2p = p[:, 1]
        if scheme == "tic":
            sinr = z1p / sigma_sq
        elif scheme == "smf2":
            sinr = (z1p + z2p) / sigma_sq
        else:
            i_r = p[:, 2:].sum(axis=1) + tail_mean
            sinr = (z1p + z2p) / (sigma_sq + i_r)
        out[done:done + m] = np.log1p(sinr) / np.log(2.0)
        done += m
    return out


@pytest.mark.parametrize("scheme", ["tic", "smf2", "smf2-interf"])
@pytest.mark.parametrize("n, alphas", [
    (333, (3.0, 4.0, 5.0)),  # below one block
    (5001, (3.0, 4.0, 5.0)),  # ten blocks, the last a partial batch of the oracle
    (5120, (4.0,)),  # exactly ten full blocks
    (22000, (4.0,)),  # 43 blocks, the last partial
], ids=["below-one-block", "partial-batch", "ten-blocks", "many-blocks"])
def test_tagged_samples_match_padded_sort_bits(scheme, n, alphas):
    # the scheme alone and reduced from the field all three schemes share give
    # the reference's bits, block by block, and the generator ends where the
    # reference leaves it
    for alpha in alphas:
        args = (n, 0.3, 0.1, alpha)
        ref_rng = np.random.default_rng(n)
        want = padded_sort_rate_samples(scheme, *args, ref_rng, batch=harness._BLOCK_ROWS)
        for schemes in ((scheme,), TAGGED):
            rng = np.random.default_rng(n)
            got = tagged_rate_samples(schemes, *args, rng)[scheme]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), schemes
            assert rng.bit_generator.state == ref_rng.bit_generator.state, schemes


# the widest row a block's padded arrays can take: a block is 512 samples, each
# of Poisson(DISC_BSS = 64) BSs, standard deviation 8, and 120 is 7 of those
# above the mean, exceeded by a block with probability 4e-5 (512 * P[count > 120])
BLOCK_WIDTH = 120


def per_block_budget(n):
    # four block-sized float arrays, one more than the three held at once: a
    # block's zero-padded powers, its fades and the filled powers they
    # multiply.  A block's arrays are freed before the next block draws.  A
    # scheme's output adds 8 B per sample, and the second term keeps room for
    # two of them; the third output of all three schemes fits in the margin
    return 4 * 512 * BLOCK_WIDTH * 8 + 2 * n * 8


@pytest.mark.parametrize("schemes", [("tic",), ("smf2",), ("smf2-interf",), TAGGED],
                         ids=["tic", "smf2", "smf2-interf", "all"])
def test_tagged_samples_memory_is_per_block(schemes):
    # 2.29 MB.  When the disc reached 10 km beyond the truncation radius, a
    # block held 224 BSs per sample at lambda_b 0.3 and the budget assumed
    # 320 (5.56 MB).  Keeping the previous block's arrays while the next one
    # drew, holding every unfaded power of 20,000 samples, or sorting them
    # as one padded array each took the peak far past that (5.6, 49 and 124 MB
    # with the old disc)
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        tagged_rate_samples(schemes, 20000, 0.3, 0.1, 4.0, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < per_block_budget(20000)


def test_crossvalidate_memory_is_per_block_at_any_density():
    # the disc holds DISC_BSS BSs on average at any lambda_b, so crossvalidate
    # at lambda_b 1000 keeps within the sampler's per-block budget; a disc
    # reaching 10 km past the truncation radius held 320,000 BSs per sample
    # there, a block array of 164M floats (1.3 GB)
    cfg = ExperimentConfig(schemes=TAGGED, lambda_b=1000.0, seed=3)
    tracemalloc.start()
    try:
        crossvalidate(cfg, samples=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < per_block_budget(2000)


@pytest.mark.parametrize("alpha", [3.0, 4.0, 5.0])
@pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
def test_tagged_samples_are_scale_free(c, alpha):
    # lengths times c and powers times c**-alpha: the disc holds DISC_BSS BSs
    # on average at any lam, so both calls make the same draws and every SINR
    # is the same up to rounding.  Bound, argued before measuring, in ulps of
    # relative difference between the two calls: R within 3.5 of c times
    # itself, after lam / c**2, pi * lam, the quotient and the square root;
    # a BS's power within 5 * 3.5 plus 3 for the power and the fade; the
    # pairwise sum of at most 120 powers adds 7 per call; mu_R and
    # sigma_sq * c**-alpha within 16 and 2.  So an SINR is within 60, and
    # log1p and the division by log(2) add 2 per call: a rate is within 64,
    # and the test allows 100
    n, lam, sigma_sq = 3000, 0.3, 0.1
    rng, scaled_rng = np.random.default_rng(4), np.random.default_rng(4)
    want = tagged_rate_samples(TAGGED, n, lam, sigma_sq, alpha, rng)
    got = tagged_rate_samples(TAGGED, n, lam / c**2, sigma_sq * c**-alpha, alpha, scaled_rng)
    for s in TAGGED:
        assert np.all(np.abs(got[s] - want[s]) <= 100 * np.finfo(float).eps * want[s]), s
    assert scaled_rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("alpha", [3.0, 4.0, 5.0])
def test_far_field_mean_errs_within_the_tagged_bound(alpha):
    # the far field's exact Laplace transform, exp(-2 pi lam J(s, R, alpha)),
    # against exp(-s mu_R), the sampler's mean in its place, at y = s mu_R on a
    # grid; no random numbers.  W's law depends on DISC_BSS and alpha alone,
    # so one lam stands for all.  The bounds of tagged_rate_samples' docstring:
    # 0 <= delta = log E e^(-yW) + y <= rho y**2, a Laplace factor's gap
    # D = e^-y (e^delta - 1) at most 0.56 rho, and an smf2-interf coverage's
    # divided difference of gaps at most 1.1 rho
    lam = 0.3
    radius, tail_mean = harness._tagged_disc(lam, alpha)
    rho = (alpha - 2.0) ** 2 / (4.0 * (alpha - 1.0) * harness.DISC_BSS)
    y = np.logspace(-4.0, 3.0, 701)
    delta = y - 2.0 * np.pi * lam * _laplace_exponent_integral(y / tail_mean, radius, alpha)
    assert np.all(delta >= 0.0) and np.all(delta <= rho * y * y)
    gap = np.exp(delta - y) * -np.expm1(-delta)
    assert gap.max() <= 0.56 * rho
    # (y2 D1 - y1 D2) / (y2 - y1) with the near field and noise as e^(-b y)
    # factors, b = (sigma_sq + I_near) / mu_R >= 0, over every pair y1 < y2
    y1, y2 = y[:, None], y[None, :]
    upper = y1 < y2
    for b in (0.0, 0.1, 1.0, 10.0):
        k = np.exp(-b * y) * gap
        with np.errstate(divide="ignore", invalid="ignore"):
            dd = (y2 * k[:, None] - y1 * k[None, :]) / (y2 - y1)
        assert np.max(np.abs(dd[upper])) <= 1.1 * rho, b


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.SFC64])
def test_tagged_samples_take_any_generator(bit_generator):
    # every draw comes straight from the generator, so any bit generator gives
    # the reference's bits and end state
    args = (1500, 0.3, 0.1, 4.0)
    rng, ref_rng = (np.random.Generator(bit_generator(3)) for _ in range(2))
    got = tagged_rate_samples(("smf2-interf",), *args, rng)["smf2-interf"]
    want = padded_sort_rate_samples("smf2-interf", *args, ref_rng, batch=harness._BLOCK_ROWS)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)


@pytest.mark.parametrize("scheme", ["tic", "smf2-interf"])
def test_tagged_samples_keep_a_buffered_uint32(scheme):
    # a uint32 draw leaves half a 64-bit output buffered; drawing doubles
    # leaves it there, in the sampler as in the reference
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    for g in (rng, ref_rng):
        g.integers(2**32, dtype=np.uint32)
    args = (5001, 0.3, 0.1, 4.0)
    got = tagged_rate_samples((scheme,), *args, rng)[scheme]
    want = padded_sort_rate_samples(scheme, *args, ref_rng, batch=harness._BLOCK_ROWS)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.bit_generator.state["has_uint32"] == 1


def test_crossvalidate_requires_counterpart():
    with pytest.raises(ConfigError):
        crossvalidate(ExperimentConfig(schemes=("zfdpc",)))
    with pytest.raises(ConfigError):
        crossvalidate(ExperimentConfig(schemes=("tic",), snr_db=[0.0, 10.0]))


def test_crossvalidate_entry_does_not_depend_on_the_other_schemes():
    # every scheme reduces the same tagged fields, so a scheme's samples do not
    # depend on where the schemes requested before it left the generator
    alone = crossvalidate(ExperimentConfig(schemes=("smf2-interf",), seed=11), samples=3000)
    every = crossvalidate(ExperimentConfig(schemes=TAGGED, seed=11), samples=3000)
    assert alone["smf2-interf"] == every["smf2-interf"]


def test_crossvalidate_tic_small():
    rep = crossvalidate(ExperimentConfig(schemes=("tic",), seed=7), samples=20000)
    assert rep["tic"]["sup_gap"] < 0.02
    assert abs(rep["tic"]["snr_shift_db_at_median"]) < 0.5


def test_cli_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    assert "fig-conv-zf" in out


def _help_flags(capsys, argv):
    with pytest.raises(SystemExit):
        main(argv + ["--help"])
    return re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out)


def test_readme_cli_commands_parse_and_name_existing_flags(monkeypatch, capsys):
    # every line of README's CLI block parses, and nothing runs; every --flag
    # README names anywhere is an option of some subcommand
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", readme, re.S | re.M).group(1)
    parsed = []
    monkeypatch.setattr(cli, "_dispatch", lambda args: parsed.append(args.command) or 0)
    for line in block.splitlines():
        program, *argv = shlex.split(line)
        assert program == "cloudradio"
        assert main(argv) == 0, line
    assert len(parsed) == len(block.splitlines()) > 0
    with pytest.raises(SystemExit):
        main(["--help"])
    commands = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1).split(",")
    options = {flag for c in commands for flag in _help_flags(capsys, [c])}
    assert set(re.findall(r"--[a-z][a-z0-9-]*", readme)) - options == set()


def test_cli_validate_exit_codes(capsys):
    assert main(["validate", "--preset", "fig-conv-zf"]) == 0
    assert main(["validate", "--drops", "0"]) == 2


def test_cli_run_tiny(tmp_path, capsys):
    code = main(["run", "--schemes", "zfdpc", "--drops", "3", "--seed", "5",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "run" / "zfdpc.csv").exists()
    payload = json.loads(capsys.readouterr().out)
    assert payload["drops_effective"] == 3


def test_cli_dump_flags(tmp_path):
    code = main(["run", "--schemes", "zfdpc", "--drops", "2", "--seed", "5",
                 "--output-dir", str(tmp_path), "--dump-geometry", "--dump-channels"])
    assert code == 0
    debug = tmp_path / "run" / "debug"
    assert any(p.name.endswith("_bs.csv") for p in debug.iterdir())
    assert any(p.name.endswith("_H.csv") for p in debug.iterdir())


def test_cli_dumped_channels_are_the_drops_own(tmp_path):
    # the dump is the one channel the drop draws, which every scheme reads,
    # the clustered ones as its blocks: the rates recomputed from it are the
    # CSVs', and a pool process dumps the serial run's bytes
    argv = ["run", "--preset", "fig-cluster", "--schemes", "conventional,zfdpc,clustered",
            "--drops", "6", "--seed", "5", "--dump-channels"]
    assert main(argv + ["--output-dir", str(tmp_path / "w1")]) == 0
    assert main(argv + ["--output-dir", str(tmp_path / "w2"), "--workers", "2"]) == 0
    root = tmp_path / "w1" / "fig-cluster"
    dumps = sorted((root / "debug").glob("drop*_H.csv"))
    assert [p.name for p in dumps] == [f"drop{i:04d}_H.csv" for i in range(4)]
    rows = {s: np.loadtxt(root / f"{s}.csv", delimiter=",", skiprows=1)
            for s in ("conventional", "zfdpc")}
    for i, path in enumerate(dumps):
        ri = np.loadtxt(path, delimiter=",", ndmin=2)
        H = ri[:, 0::2] + 1j * ri[:, 1::2]
        P = np.abs(H) ** 2
        sig = np.diag(P)
        sigma_sq = 0.1  # 10 dB
        expected = {
            "conventional": np.log2(1 + sig / (sigma_sq + P.sum(axis=1) - sig)),
            "zfdpc": np.log2(1 + np.abs(np.diag(np.linalg.qr(H.conj().T)[1])) ** 2 / sigma_sq),
        }
        for scheme, want in expected.items():
            got = rows[scheme][rows[scheme][:, 0] == i]
            assert np.array_equal(got[:, 1], np.arange(len(want)))
            assert np.max(np.abs(got[:, 2] - want)) < 1e-6, (scheme, i)
        other = tmp_path / "w2" / "fig-cluster" / "debug" / path.name
        assert other.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("config_text, argv, named", [
    ("foo = 1\n", [], "line 1: unknown key 'foo'"),
    ("drops = ten\n", [], "line 1: drops"),
    ("lambda_b = x\n", [], "line 1: lambda_b"),
    ("seed = 3\nregion_km = 10\n", [], "line 2: region_km"),
    (None, ["--snr-db", "abc"], "snr_db"),
    (None, ["--config", "missing.cfg"], "missing.cfg"),
    # non-finite numbers, which would otherwise reach the drop pipeline
    (None, ["--snr-db", "inf"], "snr_db"),
    (None, ["--snr-db=-inf"], "snr_db"),
    (None, ["--lambda-b", "nan"], "lambda_b"),
    (None, ["--lambda-b", "inf"], "lambda_b"),
    (None, ["--snr-db", "nan"], "snr_db"),
    # the deleted settings are unknown keys
    ("log_base = 2\n", [], "line 1: unknown key 'log_base'"),
    ("region_km = 10xinf\n", [], "line 1: region_km"),
    # finite SNRs whose noise power underflows to 0 or overflows
    (None, ["--snr-db", "3300"], "snr_db"),
    (None, ["--snr-db=-3100"], "snr_db"),
    # sample_ppp rejects a negative intensity once the first drop starts
    (None, ["--lambda-u", "-1"], "lambda_u"),
    # a preset and a config file are two starting points; neither is read
    (None, ["--preset", "fig-conv-zf", "--config", "missing.cfg"], "--preset"),
    ("smf_l = 3\n", [], "line 1: unknown key 'smf_l'"),
    ("thp_vectors = 10\n", [], "line 1: unknown key 'thp_vectors'"),
    # a config file that is not UTF-8 text
    (b"\xff\xfe = 3\n", [], "config: cannot read 'bad.cfg'"),
    ("mu = 2\n", [], "line 1: unknown key 'mu'"),
    ("crossval_samples = 2000\n", [], "line 1: unknown key 'crossval_samples'"),
])
def test_cli_malformed_input_exits_2(tmp_path, monkeypatch, capsys, config_text, argv, named):
    monkeypatch.chdir(tmp_path)
    if config_text is not None:
        if isinstance(config_text, str):
            config_text = config_text.encode()
        (tmp_path / "bad.cfg").write_bytes(config_text)
        argv = ["--config", "bad.cfg"]
    assert main(["validate"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert named in err


@pytest.mark.parametrize("command", ["run", "crossvalidate"])
def test_cli_preset_with_config_exits_2(tmp_path, monkeypatch, capsys, command):
    # validate's case is an input of test_cli_malformed_input_exits_2; these
    # two would otherwise run one starting point, and run would write under
    # the other's name
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.cfg").write_text("schemes = tic\ndrops = 2\n")
    assert main([command, "--preset", "fig-conv-zf", "--config", "x.cfg"]) == 2
    assert capsys.readouterr().err.startswith("config error: --preset")
    assert [p.name for p in tmp_path.iterdir()] == ["x.cfg"]


def test_cli_run_negative_seed_exits_2(tmp_path, capsys):
    # numpy's SeedSequence rejects it with ValueError once the first drop starts
    assert main(["run", "--schemes", "zfdpc", "--drops", "2", "--seed=-1",
                 "--output-dir", str(tmp_path)]) == 2
    assert "seed" in capsys.readouterr().err


def test_cli_snr_db_help_example_runs(tmp_path, capsys):
    # the example in --snr-db's own help text, given as a separate argument
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    example = re.search(r"--snr-db SNR_DB scalar or comma list, e\.g\. '10' or '([^']+)'",
                        help_text).group(1)
    assert example.startswith("-")
    assert main(["run", "--preset", "fig-tx-pow", "--snr-db", example, "--drops", "3",
                 "--seed", "2", "--output-dir", str(tmp_path)]) == 0
    snrs = [float(v) for v in example.split(",")]
    assert json.loads(capsys.readouterr().out)["config"]["snr_db"] == snrs
    for snr in snrs:
        assert (tmp_path / "fig-tx-pow" / f"thp-adaptive_snr{snr:g}.csv").is_file()


def test_cli_run_degenerate_stream_exits_0(tmp_path, monkeypatch, capsys):
    # the last cohort row repeats the one before, so its stream is degenerate
    # with an exactly zero diagonal: zero rate for zfdpc, zero power for THP
    def repeated_row_channel(z, alpha, rng):
        H = np.eye(len(z), dtype=complex)
        if len(z) > 1:
            H[-1] = H[-2]
        return H

    monkeypatch.setattr(harness, "build_channel", repeated_row_channel)
    assert main(["run", "--schemes", "zfdpc,thp-adaptive,thp-fixed4", "--drops", "3",
                 "--seed", "5", "--output-dir", str(tmp_path)]) == 0
    rates = np.loadtxt(tmp_path / "run" / "zfdpc.csv", delimiter=",", skiprows=1)
    power = np.loadtxt(tmp_path / "run" / "thp-fixed4.csv", delimiter=",", skiprows=1)
    last = [rates[rates[:, 0] == d][-1, 2] for d in range(3)]
    k = [np.sum(rates[:, 0] == d) for d in range(3)]
    assert last == [0.0, 0.0, 0.0]
    # identity rows and unit-energy QPSK: every live stream adds exactly 1
    assert np.allclose(power[:, 2], np.array(k) - 1, atol=1e-9)


def test_cli_env_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CLOUDRADIO_OUTPUT_DIR", str(tmp_path))
    assert main(["run", "--schemes", "tic", "--drops", "2", "--seed", "1"]) == 0
    assert (tmp_path / "run" / "tic.csv").exists()


@pytest.mark.parametrize("deleted", [
    pytest.param(["--log-base", "3"], id="--log-base"),
    pytest.param(["--smf-l", "3"], id="--smf-l"),
    # crossvalidate is the one route to the sup gaps, and the acceptance
    # suite the one home of the reference bands
    pytest.param(["--crossvalidate"], id="--crossvalidate"),
    pytest.param(["--assert"], id="--assert"),
])
def test_cli_run_rejects_deleted_settings(tmp_path, monkeypatch, capsys, deleted):
    def no_drop(*args, **kwargs):
        raise AssertionError("a drop was simulated")

    monkeypatch.setattr(harness, "simulate_drop", no_drop)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--schemes", "tic", *deleted, "--drops", "2", "--output-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(deleted)}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("dumps", [[], ["--dump-channels"]])
def test_cli_run_output_dir_that_cannot_be_made_exits_2_before_any_drop(
        tmp_path, monkeypatch, capsys, dumps):
    # a regular file where the output directory, or with a dump flag its
    # debug/, would go
    def no_drop(*args, **kwargs):
        raise AssertionError("a drop was simulated")

    monkeypatch.setattr(harness, "simulate_drop", no_drop)
    (tmp_path / "taken").write_text("")
    (tmp_path / "out" / "run").mkdir(parents=True)
    (tmp_path / "out" / "run" / "debug").write_text("")
    made = "run/debug" if dumps else "run"
    for out in [tmp_path / "taken"] + ([tmp_path / "out"] if dumps else []):
        assert main(["run", "--schemes", "zfdpc", "--drops", "2", "--output-dir", str(out)]
                    + dumps) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: output_dir: cannot create '{out / made}'"), err


@pytest.mark.parametrize("preset", [None, "fig-conv-zf"])
def test_cli_validate_reports_output_dir_that_run_cannot_make(tmp_path, capsys, preset):
    # run writes to <output_dir>/<preset or run>; a regular file on the way
    # makes run exit 2, so validate exits 2 too, and makes no directory
    (tmp_path / "taken").write_text("")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / (preset or "run")).write_text("")
    argv = ["validate", "--schemes", "tic"] + (["--preset", preset] if preset else [])
    before = sorted(tmp_path.rglob("*"))
    for out in (tmp_path / "taken", tmp_path / "taken" / "a" / "b", tmp_path / "out"):
        assert main(argv + ["--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output_dir: cannot create"), err
    assert sorted(tmp_path.rglob("*")) == before
    assert main(argv + ["--output-dir", str(tmp_path / "new" / "dir")]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_crossvalidate_assert_exits_4_per_scheme(monkeypatch, capsys):
    # no sup gap is below a limit of 0: one assertion line per scheme
    monkeypatch.setattr(cli, "CROSSVAL_LIMITS", dict.fromkeys(cli.CROSSVAL_LIMITS, 0.0))
    code = main(["crossvalidate", "--schemes", "tic,smf2", "--samples", "2000", "--seed", "3",
                 "--assert"])
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert [line.split(" sup gap ")[0] for line in err] == [
        "assertion failed: tic crossval", "assertion failed: smf2 crossval"]


def test_cli_crossvalidate_rejects_zero_samples(tmp_path, capsys):
    assert main(["crossvalidate", "--schemes", "tic", "--samples", "0"]) == 2
    assert capsys.readouterr().err == "config error: samples: must be at least 1\n"
    # the sample count is a crossvalidate argument, not a config key
    path = tmp_path / "zero.cfg"
    path.write_text("schemes = tic\ncrossval_samples = 0\n")
    assert main(["crossvalidate", "--config", str(path)]) == 2
    assert "unknown key 'crossval_samples'" in capsys.readouterr().err


def test_cli_crossvalidate_preset_reports_its_tagged_schemes(capsys):
    # fig-bounds runs zfdpc, tic, smf and smf2; tic and smf2 have analytic curves
    assert main(["crossvalidate", "--preset", "fig-bounds", "--samples", "2000"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert sorted(report) == ["smf2", "tic"]
    assert all(r["samples"] == 2000 for r in report.values())


@pytest.mark.filterwarnings("error")
def test_cli_run_overflowing_rate_exits_3_before_any_csv(tmp_path, capsys):
    # the noise power 1e-310 is positive and finite, but the tic SINR
    # |h|^2 / sigma^2 overflows to inf: exit 3 naming the scheme, no warning
    code = main(["run", "--snr-db", "3100", "--schemes", "tic", "--drops", "2", "--seed", "1",
                 "--output-dir", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr() == ("", "numerical error: tic: a rate of drop 0 is not finite\n")
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]


@pytest.mark.filterwarnings("error")
def test_cli_crossvalidate_overflowing_sample_exits_3(capsys):
    code = main(["crossvalidate", "--schemes", "tic,smf2,smf2-interf", "--snr-db", "3100",
                 "--samples", "2000", "--seed", "1"])
    assert code == 3
    assert capsys.readouterr() == ("", "numerical error: tic: a tagged sample is not finite\n")

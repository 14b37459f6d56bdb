"""Each benchmark check passes on true output and catches a corrupted one.

Run from the repository root:  python3 -m pytest cloudbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from cloudradio import cli

COHORT_DROPS = 20
SWEEP_DROPS = 6


def _write(path, table):
    lines = ["drop_id,stream,rate"] + [f"{int(d)},{int(s)},{r:.12g}" for d, s, r in table]
    path.write_text("\n".join(lines) + "\n")


def _edit(path, fn):
    t = checks.read_rates(path)
    fn(t)
    _write(path, t)


def _row(t, drop, stream):
    return int(np.flatnonzero((t[:, 0] == drop) & (t[:, 1] == stream))[0])


@pytest.fixture(scope="module")
def cohort_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    argv = run.WORKLOADS["cohort-10km"]["argv"][:-3] + [
        "--drops", str(COHORT_DROPS), "--dump-channels", "--seed", "3", "--output-dir", str(out)]
    assert cli.main(argv) == 0
    return out


@pytest.fixture
def cohort(cohort_run, tmp_path):
    shutil.copytree(cohort_run, tmp_path, dirs_exist_ok=True)
    return tmp_path / "run"


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    argv = run.WORKLOADS["cluster-sweep"]["argv"][:-1] + [
        str(SWEEP_DROPS), "--seed", "3", "--output-dir", str(out)]
    assert cli.main(argv) == 0
    return out / "fig-partial-8"


@pytest.fixture
def sweep(sweep_run, tmp_path):
    shutil.copytree(sweep_run, tmp_path, dirs_exist_ok=True)
    return tmp_path


def _sweep_errors(root):
    return checks.check_sweep(root, run.CLUSTER_SCHEMES, run.SWEEP_SNRS)


def _has(errors, prefix):
    return any(e.startswith(prefix) for e in errors)


def test_cohort_checks_pass_on_true_output(cohort):
    assert checks.check_cohort(cohort, 10.0) == []


def test_recompute_catches_swapped_streams(cohort):
    def swap(t):
        a, b = _row(t, 0, 0), _row(t, 0, 1)
        t[[a, b], 2] = t[[b, a], 2]
    _edit(cohort / "conventional.csv", swap)
    assert _has(checks.check_cohort(cohort, 10.0), "recompute: conventional drop 0")


@pytest.mark.parametrize("scheme", checks.COHORT_RATE_SCHEMES)
def test_recompute_catches_a_nudge_in_every_scheme(cohort, scheme):
    def nudge(t):
        t[_row(t, 2, 1), 2] += 1e-3
    _edit(cohort / f"{scheme}.csv", nudge)
    assert _has(checks.check_cohort(cohort, 10.0), f"recompute: {scheme} drop 2")


def test_determinant_identity_catches_a_nudge_beyond_the_dumps(cohort):
    def nudge(t):
        t[_row(t, 10, 2), 2] += 1e-3
    _edit(cohort / "zfdpc.csv", nudge)
    assert _has(checks.check_cohort(cohort, 10.0), "determinant: drop 10 ")


@pytest.mark.parametrize("hi,lo", [("tic", "conventional"), ("smf", "zfdpc"),
                                   ("smf", "mmse"), ("smf", "tic")])
def test_stream_orderings_catch_a_violation(cohort, hi, lo):
    low = checks.read_rates(cohort / f"{lo}.csv")

    def undercut(t):
        i = _row(t, 12, 1)
        t[i, 2] = low[i, 2] - 1e-3
    _edit(cohort / f"{hi}.csv", undercut)
    assert _has(checks.check_cohort(cohort, 10.0), f"order: {hi} < {lo}")


def test_thp_modulo_bound(cohort):
    k = checks.by_drop(checks.read_rates(cohort / "conventional.csv"))[5].size

    def inflate(t):
        t[_row(t, 5, 0), 2] = 4.0 * k + 1e-3
    _edit(cohort / "thp-fixed4.csv", inflate)
    assert _has(checks.check_cohort(cohort, 10.0), "thp: thp-fixed4 power outside")


def test_thp_median_order(cohort):
    a, b = cohort / "thp-adaptive.csv", cohort / "thp-fixed4.csv"
    ta, tb = a.read_bytes(), b.read_bytes()
    a.write_bytes(tb)
    b.write_bytes(ta)
    assert _has(checks.check_cohort(cohort, 10.0), "thp: median power")


def test_sweep_checks_pass_on_true_output(sweep):
    assert _sweep_errors(sweep) == []


def test_sweep_monotone_catches_a_drop_in_rate(sweep):
    low = checks.read_rates(checks.sweep_file(sweep, "clustered", 5.0))

    def undercut(t):
        i = _row(t, 1, 0)
        t[i, 2] = low[i, 2] - 1e-3
    _edit(checks.sweep_file(sweep, "clustered", 10.0), undercut)
    assert _has(_sweep_errors(sweep), "monotone: clustered rate falls from 5 to 10 dB")


def test_sweep_row_count_catches_a_missing_row(sweep):
    path = checks.sweep_file(sweep, "conventional", 25.0)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert _has(_sweep_errors(sweep), "rows: conventional row counts differ")


def test_sweep_saturation_catches_a_late_gain(sweep):
    def lift(t):
        t[:, 2] += 1.0
    _edit(checks.sweep_file(sweep, "clustered-partial", 45.0), lift)
    errors = _sweep_errors(sweep)
    assert _has(errors, "saturation: clustered-partial")
    assert not _has(errors, "monotone")


def _report(gap=0.005, samples=20000):
    return {s: {"samples": samples, "sup_gap": gap, "snr_shift_db_at_median": 0.0}
            for s in ("tic", "smf2", "smf2-interf")}


def _crossval_errors(report):
    spec = run.WORKLOADS["crossval"]
    return checks.check_crossval(report, spec["schemes"], spec["samples"], cli.CROSSVAL_LIMITS)


def test_crossval_checks():
    assert _crossval_errors(_report()) == []
    assert _has(_crossval_errors(_report(samples=100000)), "crossval: tic reports 100000")
    assert _has(_crossval_errors(_report(gap=0.025)), "crossval: tic sup gap")
    assert not _has(_crossval_errors(_report(gap=0.025)), "crossval: smf2-interf")
    report = _report()
    del report["smf2"]
    assert _crossval_errors(report) == ["crossval: smf2 missing from the report"]


def test_outcome_counts_failures_checks_the_first_round_that_ran_and_compares_bytes(
        cohort_run, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    shutil.copytree(cohort_run, a)
    shutil.copytree(cohort_run, b)
    path = b / "run" / "mmse.csv"
    path.write_text("\n".join(line for line in path.read_text().splitlines()
                              if not line.startswith("3,")) + "\n")
    outcome = run.Outcome("cohort-10km", 3)
    outcome.spec = dict(outcome.spec, drops=COHORT_DROPS)
    outcome.record({"exit_code": 4}, a)
    assert (outcome.attempted, outcome.failed, outcome.errors) == (COHORT_DROPS, COHORT_DROPS, [])
    outcome.record({"exit_code": 0}, b)
    assert (outcome.attempted, outcome.failed) == (2 * COHORT_DROPS, COHORT_DROPS + 1)
    assert _has(outcome.errors, "recompute: mmse drop 3")
    outcome.record({"exit_code": 0}, a)
    assert (outcome.attempted, outcome.failed) == (3 * COHORT_DROPS, COHORT_DROPS + 1)
    assert _has(outcome.errors, "digest: round in a wrote different bytes")


def test_traced_child_accounts_for_its_wall_time(tmp_path):
    timing = tmp_path / "timing.json"
    argv = run.WORKLOADS["cohort-10km"]["argv"][:-3] + [
        "--drops", "30", "--seed", "3", "--output-dir", str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=str(run.SRC), CLOUDBENCH_SRC=str(run.SRC))
    subprocess.run([sys.executable, str(run.HERE / "child.py"), str(timing), "trace", *argv],
                   env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
    rec = json.loads(timing.read_text())
    layers = rec["layers"]
    assert layers["harness.simulate_drop.calls"] == 30
    # zfdpc, uplink-sic and the shared THP factorization: three k x k factorizations per drop
    assert layers["numerics.lq_factor.rows"] == 3 * layers["harness.cohort_streams"]
    covered = layers["spans.self_s"] + layers["harness.output_s"]
    assert abs(covered / (rec["t_end"] - rec["t_call"]) - 1.0) < 0.1


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", "crossval",
                           "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

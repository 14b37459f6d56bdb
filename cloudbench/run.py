"""cloudradio benchmark: run one workload through `cloudradio.cli.main`.

    python3 cloudbench/run.py --workload cohort-10km --seed 1 --seconds 20 --trace 0

Run from the root of a cloudradio checkout; the program is imported from
its `src/`.  Each round is a fresh process with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS removed from its environment, so BLAS
threading is the program's default.  Every round of a run repeats the same
inputs; rounds continue while another one fits in --seconds (at least one,
and with --trace 1 at least one untraced and one traced, alternating).

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (end-to-end with --trace 0, per-layer
with --trace 1).  See README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
from statistics import median
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5  # set-up is timed at least this often per run; the median is reported
DEADLINE_S = 170  # a run ends within this, whatever its rounds do
T0 = time.monotonic()

SWEEP_SNRS = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0]
WORKLOADS = {
    # the paper's headline comparison on the 10 x 10 km reference network, k ~ 30
    "cohort-10km": {
        "argv": ["run", "--lambda-b", "0.3", "--lambda-u", "3", "--snr-db", "10",
                 "--schemes", "conventional,zfdpc,uplink-sic,mmse,tic,smf,smf2,"
                              "thp-adaptive,thp-fixed4",
                 "--drops", "500", "--dump-channels"],
        "drops": 500, "out": "run",
    },
    # fig-partial-8 (20 x 20 km, 8 km cluster, csi_l 6) swept over 0..45 dB
    "cluster-sweep": {
        "argv": ["run", "--preset", "fig-partial-8",
                 "--snr-db", ",".join(f"{s:g}" for s in SWEEP_SNRS), "--drops", "300"],
        "drops": 300, "out": "fig-partial-8",
    },
    # analytic quadrature and tagged-user sampling, no drop pipeline
    "crossval": {
        "argv": ["crossvalidate", "--schemes", "tic,smf2,smf2-interf", "--snr-db", "10",
                 "--samples", "20000"],
        "schemes": ("tic", "smf2", "smf2-interf"), "samples": 20000,
    },
}
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
CLUSTER_SCHEMES = ("conventional", "clustered", "clustered-partial")


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "CLOUDRADIO_OUTPUT_DIR", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env["CLOUDBENCH_SRC"] = str(SRC)
    return env


def run_child(mode, argv, workdir):
    """Start one child, wait for it, and return its timing record (None on failure)."""
    workdir.mkdir(parents=True, exist_ok=True)
    timing = workdir / "timing.json"
    timing.unlink(missing_ok=True)
    with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(timing), mode, *argv],
                                stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        # a blocking wait: Popen.wait(timeout) polls, waking the parent while the child runs
        killer = threading.Timer(max(1.0, DEADLINE_S - (time.monotonic() - T0)), proc.kill)
        killer.start()
        try:
            proc.wait()
        finally:
            killer.cancel()
    if proc.returncode != 0 or not timing.is_file():
        tail = (workdir / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"round in {workdir} exited {proc.returncode}:\n{tail}", file=sys.stderr)
        return None
    rec = json.loads(timing.read_text())
    rec["setup_s"] = rec["t_call"] - t_spawn
    rec["wall_s"] = rec["t_end"] - rec["t_call"]
    rec["round_s"] = time.monotonic() - t_spawn
    return rec


def source_digest():
    h = hashlib.sha256()
    for f in sorted((SRC / "cloudradio").glob("*.py")):
        h.update(f.name.encode() + f.read_bytes())
    return h.hexdigest()


class Outcome:
    """Operations attempted and failed, check failures and output digests of one run."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.spec = WORKLOADS[workload]
        self.attempted = self.failed = 0
        self.errors = []
        self.digest = None
        self.checked = False

    def ops_per_round(self):
        return self.spec.get("drops") or len(self.spec["schemes"])

    def record(self, rec, workdir):
        """Count one round's operations; check the outputs of the first that ran."""
        n = self.ops_per_round()
        self.attempted += n
        if rec is None or rec["exit_code"] != 0:
            if rec is not None:
                print(f"round in {workdir}: cli.main returned {rec['exit_code']}",
                      file=sys.stderr)
            self.failed += n
            return
        if "drops" in self.spec:
            root = workdir / self.spec["out"]
            files = sorted(root.glob("*.csv"))
            tables = [checks.read_rates(f) for f in files]
            self.failed += len(checks.missing_drops(tables, n)) if tables else n
            digest = checks.output_digest(files)
        else:
            report = json.loads((workdir / "stdout.txt").read_text())
            self.failed += sum(s not in report for s in self.spec["schemes"])
            digest = checks.output_digest([workdir / "stdout.txt"])
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.errors.append(f"digest: round in {workdir.name} wrote different bytes")
        if not self.checked:
            self.errors += self.check(workdir)
            self.checked = True

    def check(self, workdir):
        if self.workload == "cohort-10km":
            return checks.check_cohort(workdir / self.spec["out"], 10.0)
        if self.workload == "cluster-sweep":
            return checks.check_sweep(workdir / self.spec["out"], CLUSTER_SCHEMES, SWEEP_SNRS)
        sys.path.insert(0, str(SRC))
        from cloudradio.cli import CROSSVAL_LIMITS

        report = json.loads((workdir / "stdout.txt").read_text())
        return checks.check_crossval(report, self.spec["schemes"], self.spec["samples"],
                                     CROSSVAL_LIMITS)

    def compare_with_earlier_runs(self):
        """Outputs of the same code and seed must match earlier runs' byte for byte."""
        if self.digest is None:
            return
        store = OUT / "digests.json"
        known = json.loads(store.read_text()) if store.is_file() else {}
        key = f"{self.workload}|{self.seed}|{source_digest()}"
        if known.setdefault(key, self.digest) != self.digest:
            self.errors.append(f"digest: outputs differ from an earlier run with seed {self.seed}")
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "cloudradio" / "cli.py").is_file():
        print(f"no cloudradio sources at {SRC / 'cloudradio'}; run from a checkout's root",
              file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    cli_argv = spec["argv"] + ["--seed", str(args.seed)]
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    outcome = Outcome(args.workload, args.seed)

    modes = ("plain", "trace") if args.trace else ("plain",)
    rounds = {m: [] for m in modes}
    t_start = time.monotonic()
    i = 0
    while True:
        mode = modes[i % len(modes)]
        workdir = work / f"round{i}"
        rec = run_child(mode, cli_argv + ["--output-dir", str(workdir)], workdir)
        outcome.record(rec, workdir)
        if rec is not None:
            rounds[mode].append(rec)
        if i > 0:
            shutil.rmtree(workdir, ignore_errors=True)
        i += 1
        elapsed = time.monotonic() - t_start
        last = rec["round_s"] if rec else elapsed / i
        if i >= len(modes) and elapsed + last > args.seconds:
            break
    outcome.compare_with_earlier_runs()
    if not all(rounds.values()):
        print(f"no {' or '.join(m for m, r in rounds.items() if not r)} round ended cleanly",
              file=sys.stderr)
        return 1

    plain = rounds["plain"]
    if args.trace:
        metrics = layer_metrics(plain, rounds["trace"])
    else:
        setups = [r["setup_s"] for r in plain]
        while len(setups) < SETUP_SAMPLES:
            rec = run_child("probe", [], work / "probe")
            if rec is None:
                break
            setups.append(rec["setup_s"])
        values = {"setup_s": median(setups),
                  "wall_s": median([r["wall_s"] for r in plain]),
                  "peak_rss_mb": median([r["peak_rss_mb"] for r in plain])}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    for msg in outcome.errors:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced round(s)"
          + (f", {len(rounds['trace'])} traced" if args.trace else ""))
    for mode, recs in rounds.items():
        print(f"  {mode} rounds, wall_s: " + " ".join(f"{r['wall_s']:.4g}" for r in recs))
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  operations attempted {outcome.attempted}, failed {outcome.failed}")
    print(json.dumps({"correct": not outcome.errors,
                      "attempted": outcome.attempted, "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


def layer_metrics(plain, traced):
    """Medians over traced rounds, plus the tracing overhead against untraced rounds."""
    metrics = {}
    for name in traced[0]["layers"]:
        if name == "spans.self_s":
            continue
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = {"value": median([r["layers"][name] for r in traced]), "unit": unit}
    wall = median([r["wall_s"] for r in traced])
    covered = median([r["layers"]["spans.self_s"] + r["layers"]["harness.output_s"]
                      for r in traced])
    metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": wall - median([r["wall_s"] for r in plain]),
                                   "unit": "s"}
    metrics["trace.accounted_share"] = {"value": covered / wall, "unit": "fraction"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())

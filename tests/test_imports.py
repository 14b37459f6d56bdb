"""No command loads scipy, at any alpha.

scipy.integrate and scipy.optimize cost every process about a quarter of a
second and 14 MB at start-up, and no command needs them: analytic.quad is
the adaptive loop.  The rest of scipy cost about 0.3 s and 28 MB more, and no
command needs it either: the interference Laplace exponent is a numpy series
at every alpha other than 4, where it is an arctan.

The package's own surface is checked here too: its export count, and that
every name in a module's __all__ exists.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import cloudradio

CHILD = """
import sys, types

def check(step):
    loaded = sorted({"scipy.integrate", "scipy.optimize"} & set(sys.modules))
    assert not loaded, (step, loaded)

import cloudradio
check("import cloudradio")
from cloudradio import cli
check("import cloudradio.cli")
assert cli.main(["run", "--preset", "fig-conv-zf", "--drops", "2", "--seed", "1",
                 "--output-dir", sys.argv[1]]) == 0
check("run")
assert cli.main(["crossvalidate", "--schemes", "tic,smf2,smf2-interf", "--snr-db", "10",
                 "--samples", "200", "--seed", "7"]) == 0
check("crossvalidate")
names = [n for n, v in vars(cloudradio).items()
         if not n.startswith("_") and not isinstance(v, types.ModuleType)]
assert names and all(getattr(cloudradio, n) is not None for n in names)
"""


def test_commands_import_neither_scipy_integrate_nor_optimize(tmp_path):
    src = Path(cloudradio.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path / "out")],
                         capture_output=True, text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr


NO_SCIPY_CHILD = """
import sys, types
sys.modules["scipy"] = None  # any scipy import now raises ImportError

import cloudradio
from cloudradio import cli
out = sys.argv[1]
calls = [["run", "--preset", p, "--drops", "2", "--seed", "1", "--output-dir", out + "/" + p]
         for p in ("fig-uplink", "fig-partial-8", "fig-tx-pow")]
calls.append(["crossvalidate", "--schemes", "tic,smf2,smf2-interf", "--snr-db", "10",
              "--samples", "200", "--seed", "7"])
# the interference curve off alpha = 4, the Laplace exponent's numpy series;
# CI runs all three schemes there with every scipy import made to fail
for alpha in ("3", "5"):
    with open(out + "-alpha" + alpha + ".cfg", "w") as f:
        f.write("alpha = " + alpha + "\\n")
    calls.append(["crossvalidate", "--config", out + "-alpha" + alpha + ".cfg", "--schemes",
                  "smf2-interf", "--snr-db", "10", "--samples", "200", "--seed", "5"])
for argv in calls:
    before = set(sys.modules)
    assert cli.main(argv) == 0, argv
    gained = sorted(set(sys.modules) - before)
    assert not gained, (argv, gained)
names = [n for n, v in vars(cloudradio).items()
         if not n.startswith("_") and not isinstance(v, types.ModuleType)]
assert len(names) == 37, names
"""


def test_commands_run_without_scipy_and_import_nothing_in_a_call(tmp_path):
    """Serial calls import nothing.

    A run with --workers above 1 imports the process-pool modules when it
    starts its pool, where a fork per worker dwarfs the import; none of these
    calls starts one.
    """
    # MMSE (fig-uplink), clustered partial CSI (fig-partial-8), THP (fig-tx-pow)
    # and the three coverage curves at alpha 4, and the interference curve at
    # alpha 3 and 5, each after every module is loaded
    src = Path(cloudradio.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_CHILD, str(tmp_path / "out")],
                         capture_output=True, text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr


SERIAL_CHILD = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError

def check(step):
    # the pool modules load only when a run starts a pool, and numpy.ma
    # only through np.quantile, which no command calls
    loaded = sorted(m for m in sys.modules
                    if m.split(".")[0] in ("multiprocessing", "concurrent") or m == "numpy.ma")
    assert not loaded, (step, loaded)

from cloudradio import cli
check("import cloudradio.cli")
out = sys.argv[1]
cohort = ["run", "--lambda-b", "0.3", "--lambda-u", "3", "--snr-db", "10", "--schemes",
          "conventional,zfdpc,uplink-sic,mmse,tic,smf,smf2,thp-adaptive,thp-fixed4",
          "--drops", "3", "--dump-channels", "--seed", "1", "--output-dir", out + "/cohort"]
sweep = ["run", "--preset", "fig-partial-8", "--snr-db", "0,5,10,15,20,25,30,35,40,45",
         "--drops", "2", "--seed", "1", "--output-dir", out + "/sweep"]
crossval = ["crossvalidate", "--schemes", "tic,smf2,smf2-interf", "--snr-db", "10",
            "--samples", "200", "--seed", "7"]
for argv in (cohort, sweep, crossval):
    assert cli.main(argv) == 0, argv
    check(argv[:3])
"""


def test_serial_commands_load_no_process_pool_or_numpy_ma(tmp_path):
    # the cohort-10km, cluster-sweep and crossval commands of the benchmark,
    # shortened; the workers=2 tests of test_harness.py cover the pool branch
    src = Path(cloudradio.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", SERIAL_CHILD, str(tmp_path / "out")],
                         capture_output=True, text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr


# deleted names, and names that stay in their modules but not in the package:
# types that callers only receive, and the one-threshold wrappers that the
# benchmark tracer binds
NOT_EXPORTED = ("laplace_ir", "ks_distance", "thp_loopback", "SaturationResult", "tau_tic",
                "tau_smf2", "Cohort", "ExperimentReport", "RateCdf", "TriangularFactorization",
                "diagonal_dominance_fraction", "simulate_drop")


def test_every_all_entry_resolves_and_unexported_names_stay_out():
    modules = [importlib.import_module(f"cloudradio.{m.name}")
               for m in pkgutil.iter_modules(cloudradio.__path__) if not m.name.startswith("_")]
    assert cloudradio.analytic in modules and cloudradio.thp in modules
    stale = [f"{mod.__name__}.{name}" for mod in modules for name in getattr(mod, "__all__", ())
             if not hasattr(mod, name)]
    assert not stale
    assert not [name for name in NOT_EXPORTED if hasattr(cloudradio, name)]

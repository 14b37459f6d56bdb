"""Command-line entry point.

Subcommands: run, validate, crossvalidate, list-presets.  Exit codes:
0 ok, 2 config error, 3 numerical error, 4 failed crossvalidate --assert.
Default output directory comes from $CLOUDRADIO_OUTPUT_DIR when set.
"""

import argparse
import json
# argparse's gettext imports locale on the first parse; imported with the
# module, it is not imported inside main, where it would count as run time
import locale  # noqa: F401
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (ConfigError, ExperimentConfig, PRESETS, crossvalidate,
                      load_config_file, parse_field, preset_config, run, validate)
from .numerics import NumericalError

CROSSVAL_LIMITS = {"tic": 0.02, "smf2": 0.02, "smf2-interf": 0.03}


# config fields that --field-name options set, each parsed as a config file line is
OVERRIDES = ("drops", "snr_db", "lambda_b", "lambda_u", "csi_l", "cluster_radius_km", "schemes",
             "seed", "output_dir")
OVERRIDE_HELP = {"snr_db": "scalar or comma list, e.g. '10' or '-6,0,10,20'",
                 "schemes": "comma list of scheme names"}


def _add_overrides(p):
    p.add_argument("--preset", choices=sorted(PRESETS), help="figure preset to start from")
    p.add_argument("--config", help="flat key=value config file")
    for field in OVERRIDES:
        p.add_argument("--" + field.replace("_", "-"), help=OVERRIDE_HELP.get(field))


def _build_config(args) -> ExperimentConfig:
    if args.preset and args.config:
        raise ConfigError("--preset and --config cannot be combined; give one of them")
    if args.config:
        cfg = load_config_file(args.config)
    elif args.preset:
        cfg = preset_config(args.preset)
    else:
        cfg = ExperimentConfig()
    updates = {field: parse_field(field, getattr(args, field))
               for field in OVERRIDES if getattr(args, field) is not None}
    if "output_dir" not in updates and cfg.output_dir is None:
        env = os.environ.get("CLOUDRADIO_OUTPUT_DIR")
        if env:
            updates["output_dir"] = env
    return replace(cfg, **updates)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cloudradio",
                                     description="cloud radio rate experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a config or preset")
    _add_overrides(p_run)
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--dump-geometry", action="store_true",
                       help="write BS/UE positions of the first drops as CSV")
    p_run.add_argument("--dump-channels", action="store_true",
                       help="write channel matrices (re/im interleaved) as CSV")

    p_val = sub.add_parser("validate", help="check a config without running it")
    _add_overrides(p_val)

    p_x = sub.add_parser("crossvalidate", help="Monte Carlo vs analytic coverage")
    _add_overrides(p_x)
    p_x.add_argument("--samples", type=int, default=100_000,
                     help="tagged-user draws per scheme")
    p_x.add_argument("--assert", dest="check", action="store_true")

    sub.add_parser("list-presets", help="show available figure presets")

    args = parser.parse_args(_attach_negative_sweeps(sys.argv[1:] if argv is None else argv))
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def _attach_negative_sweeps(argv):
    """Write `--snr-db -6,0,10` as `--snr-db=-6,0,10`.

    argparse takes a lone negative number for a value, but reads a list that
    starts with one as an unknown option and leaves --snr-db without its value.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--snr-db" and re.match(r"-\.?\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _dispatch(args) -> int:
    if args.command == "list-presets":
        for name in sorted(PRESETS):
            cfg = preset_config(name)
            snr = cfg.snr_db if not isinstance(cfg.snr_db, list) else f"{cfg.snr_db[0]:g}..{cfg.snr_db[-1]:g}"
            print(f"{name:15s} schemes={','.join(cfg.schemes)} snr={snr} drops={cfg.drops}")
        return 0

    cfg = _build_config(args)

    if args.command == "validate":
        errors, warnings = validate(cfg)
        errors += _output_dir_errors(cfg, args.preset or "run")
        for w in warnings:
            print(f"warning: {w}")
        if errors:
            for e in errors:
                print(f"config error: {e}", file=sys.stderr)
            return 2
        print("ok")
        return 0

    if args.command == "crossvalidate":
        report = crossvalidate(cfg, args.samples)
        print(json.dumps(report, indent=2, sort_keys=True))
        failures = _crossval_failures(report) if args.check else []
        for f in failures:
            print(f"assertion failed: {f}", file=sys.stderr)
        return 4 if failures else 0

    # run
    report = run(cfg, workers=args.workers, name=args.preset or "run",
                 dump_geometry=args.dump_geometry, dump_channels=args.dump_channels)
    print(report.to_json())
    return 0


def _output_dir_errors(cfg, name) -> list:
    """The error run would meet making its output directory, found without making it.

    run writes to <output_dir>/<name>; it cannot make that directory when the
    nearest path on the way that exists is not a directory.
    """
    path = Path(cfg.output_dir or ".") / name
    existing = next((p for p in (path, *path.parents) if os.path.exists(p)), None)
    if existing is None or existing.is_dir():
        return []
    return [f"output_dir: cannot create '{path}': '{existing}' is not a directory"]


def _crossval_failures(crossval) -> list:
    """One failure per scheme whose sup gap is not below its CROSSVAL_LIMITS entry."""
    return [f"{s} crossval sup gap {r['sup_gap']:.4g} not below {CROSSVAL_LIMITS[s]}"
            for s, r in crossval.items() if r["sup_gap"] >= CROSSVAL_LIMITS[s]]


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

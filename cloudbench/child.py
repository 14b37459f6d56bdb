"""One benchmark round in a fresh process: import cloudradio, call cli.main.

    python3 child.py <timing.json> <plain|trace|probe> <cli arguments...>

Writes the monotonic times just before and after the `cli.main` call, its
exit code and the process's peak resident memory to <timing.json>.  `trace`
installs the layer spans first and adds their totals; `probe` stops before
the call, to time set-up alone.  cloudradio must come from $PYTHONPATH.
"""

import json
import os
import resource
import sys
import time


def main():
    timing_path, mode, *argv = sys.argv[1:]
    from cloudradio import cli

    src = os.path.realpath(os.environ["CLOUDBENCH_SRC"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"cloudradio imported from {cli.__file__}, not from {src}")
    tracer = None
    if mode == "trace":
        import layers

        tracer = layers.install()
    t_call = time.monotonic()
    code = 0 if mode == "probe" else cli.main(argv)
    t_end = time.monotonic()
    sys.stdout.flush()
    record = {
        "t_call": t_call,
        "t_end": t_end,
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": tracer.report() if tracer else None,
    }
    with open(timing_path, "w") as f:
        json.dump(record, f)


if __name__ == "__main__":
    main()

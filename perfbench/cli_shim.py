"""Traced stand-in for `python -m heckelab.cli`, used by the traced
cli_session pass.

    HECKEBENCH_SPAWN=<monotonic stamp> HECKEBENCH_OUT=<summary.json> \
        python3 perfbench/cli_shim.py VERB [ARGS...]

It imports heckelab.cli (cli.startup_s runs from the parent's spawn stamp
to here), wraps every layer including the CLI's cache and render helpers,
runs heckelab.cli.main with the given arguments as one op, and exits with
its code.  Stdout is exactly what the CLI prints.  At exit it writes the
per-layer summary to HECKEBENCH_OUT and its spans next to it.
"""

import json
import os
import sys
import time
from pathlib import Path

import heckelab.cli

T_IMPORTED = time.monotonic()

from tracer import Tracer  # noqa: E402  (the script's own directory)


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.counters["cli.startup_s"] = (
        T_IMPORTED - float(os.environ["HECKEBENCH_SPAWN"]))
    tracer.begin_op()
    try:
        code = heckelab.cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse usage errors exit here
        code = exc.code
    finally:
        tracer.end_op()
    sys.stdout.flush()
    out = Path(os.environ["HECKEBENCH_OUT"])
    out.write_text(json.dumps(tracer.summary()))
    tracer.dump(out.with_suffix(".bin.gz"))
    return code


if __name__ == "__main__":
    sys.exit(main())

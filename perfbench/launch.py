"""Run one `dfs-cavity-sim` invocation the way the console script does.

    python3 launch.py STAMP_PATH TRACE_DIR|- MODE --config PATH --out DIR ...

Behaves like `dfs-cavity-sim MODE ...` (fresh interpreter, same exit
code) and additionally writes to STAMP_PATH the CLOCK_MONOTONIC time at
which the config had been parsed, so the parent can time set-up from
its own spawn timestamp.  With a TRACE_DIR the layer tracer is installed
before the CLI runs and its spans are written there when the CLI returns.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    stamp_path, trace_dir, *cli_args = sys.argv[1:]
    import dfs_cavity.cli as cli

    tracer = None
    if trace_dir != "-":
        from tracer import Tracer
        tracer = Tracer(trace_dir)
        tracer.install()

    parsed_at: list[float] = []
    load_config = cli.load_config

    def timed_load_config(*args, **kwargs):
        cfg = load_config(*args, **kwargs)
        parsed_at.append(time.monotonic())
        return cfg

    cli.load_config = timed_load_config
    try:
        return cli.main(cli_args)
    finally:
        with open(stamp_path, "w") as fh:
            json.dump({"config_parsed": parsed_at[0] if parsed_at else None}, fh)
        if tracer is not None:
            tracer.dump()


if __name__ == "__main__":
    sys.exit(main())

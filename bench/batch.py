"""Run several meyerlab commands in one process: python3 bench/batch.py <commands.json> <results.json>

commands.json holds a list of argument lists; results.json receives, per
command, its exit code and printed output.  The benchmark uses this for set-up
and for the untimed check pass, where process start-up is not what is
measured; every timed job runs in a process of its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback


def main(commands_path: str, results_path: str) -> int:
    from meyerlab import cli

    with open(commands_path) as handle:
        commands = json.load(handle)
    results = []
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                code = cli.run(argv)
            except Exception:  # an uncaught error ends a CLI process with exit code 1
                traceback.print_exc()
                code = 1
        results.append({"code": code, "output": out.getvalue()})
    with open(results_path, "w") as handle:
        json.dump(results, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

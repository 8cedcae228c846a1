"""Run one rbsim command in this fresh process and report its costs.

    python3 bench/child.py <rbsim arguments...>

setup_s is the time to `import rbsim.cli` and build the Clifford table
with a cold `clifford_table()`; the command's own `clifford_table()`
call then returns the cached table, so main_s is `rbsim.cli.main` with
set-up excluded.  The command's stdout is captured, and the last line
printed is one JSON record: exit code, timings, peak resident set and
the captured stdout.
"""

import contextlib
import io
import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import rbsim.cli
    from rbsim.cliffords import clifford_table

    clifford_table()
    ready = time.perf_counter()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = rbsim.cli.main(argv)
    done = time.perf_counter()
    print(json.dumps({
        "exit": code,
        "setup_s": ready - start,
        "main_s": done - ready,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stdout": captured.getvalue(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One benchmark pass in a fresh interpreter.

Usage: python3 pass_child.py JOBS.json RESULT.json

Imports ``ppclust.cli`` (the set-up a user pays on every invocation), notes
the monotonic time at which it is ready, then runs each job's argv through
``cli.main`` one after another, exactly as the ``ppclust`` entry point does.
The parent takes the time just before it starts this process; on Linux
``time.monotonic`` is one system-wide clock, so the difference is the set-up
time.  With no jobs the pass only measures set-up.
"""

import contextlib
import io
import json
import resource
import sys
import time


def main() -> int:
    jobs_path, result_path = sys.argv[1], sys.argv[2]
    from ppclust import cli

    ready = time.monotonic()
    with open(jobs_path) as handle:
        jobs = json.load(handle)
    results = []
    for argv in jobs:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - start
        results.append({"code": code, "seconds": seconds, "stderr": err.getvalue()[-2000:]})
    record = {
        "ready": ready,
        "module": cli.__file__,
        "results": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(result_path, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

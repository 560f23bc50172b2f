"""One benchmark round in a fresh interpreter.

    python3 bench/worker.py probe
    python3 bench/worker.py '{"calls": [["tables"], ...], "trace": false}'

Both forms import ``cycleres.cli`` first and record the monotonic clock
when the import returns; the parent subtracts its own clock reading
from before the spawn to get the set-up time.  ``probe`` stops there.
A round runs the calls through ``cycleres.cli.main`` in order, with
stdout and stderr captured, and prints one JSON object: the import time,
the wall time of the calls, the process's peak RSS, each call's exit
code and output, and, when traced, the spans and counters.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import cycleres.cli  # noqa: E402

IMPORTED_AT = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run_call(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cycleres.cli.main(argv)
        except Exception:  # a crash is a failed call; the round goes on
            traceback.print_exc()
            code = "exception"
    return {
        "argv": argv,
        "code": code,
        "seconds": time.perf_counter() - start,
        "stdout": out.getvalue(),
        "stderr_tail": err.getvalue()[-2000:],
    }


def main() -> None:
    if sys.argv[1] == "probe":
        print(json.dumps({"imported_at": IMPORTED_AT}))
        return
    request = json.loads(sys.argv[1])
    tracer = None
    if request["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = time.perf_counter()
    if tracer is not None:
        root = tracer.begin(tracing.ROOT)
    calls = [run_call(argv) for argv in request["calls"]]
    if tracer is not None:
        tracer.end(root)
    solve_s = time.perf_counter() - start
    result = {
        "imported_at": IMPORTED_AT,
        "solve_s": solve_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calls": calls,
    }
    if tracer is not None:
        result["spans"] = tracer.spans()
        result["counts"] = dict(tracer.counts)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""Benchmark of the cycleres CLI: end-to-end time and memory, and per-layer spans.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

The program under test is the source tree ``src/cycleres`` beside this
directory.  Each round runs one workload's CLI calls in a fresh
interpreter (``bench/worker.py``); rounds repeat until the next one
would end more than half a round past ``--seconds``, and every answer
is checked with ``workloads.check``.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(median of several cold imports of ``cycleres.cli``), ``solve_s``
(median wall time of a round's calls) and ``peak_rss_mb`` (median peak
RSS of a round's process).  With ``--trace 1`` it alternates untraced
and traced rounds and reports the per-layer metrics of the traced round
with the median solve time, plus the tracing overhead: the median
difference between a traced round and the untraced round before it.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a result file with run
metadata goes to ``bench/results/``.  The exit code is 1 when any
answer is wrong and 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
from workloads import WORKLOADS, check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 15
RUN_LIMIT_S = 170.0  # a run ends within 180 s even when a round hangs
END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}


def spawn(request: str, timeout: float) -> tuple[float, float, dict | None, str]:
    """Run the worker once: (clock at spawn, wall seconds, its JSON or None, stderr)."""
    started = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), request],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nround killed after {timeout:.0f} s"
    wall = perf_counter() - started
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return started, wall, None, err
    return started, wall, json.loads(lines[-1]), err


def setup_times(deadline: float) -> list[float]:
    """Seconds from spawning an interpreter until ``import cycleres.cli`` returns.

    The first probe is discarded: it may compile bytecode, which users
    pay once, not on every start.
    """
    times = []
    for k in range(SETUP_PROBES + 1):
        started, _, result, err = spawn("probe", deadline - perf_counter())
        if result is None:
            raise RuntimeError(f"set-up probe failed:\n{err}")
        if k:
            times.append(result["imported_at"] - started)
    return times


def git_revision() -> str | None:
    """HEAD's commit, read from ``.git`` itself; git would search parent directories."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All rounds of one run, their checks, and the metrics they give."""
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    meta = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "loadavg_start": os.getloadavg(),
    }
    setups = setup_times(deadline)
    calls = WORKLOADS[workload]
    kinds = ["plain", "traced"] if trace else ["plain"]
    rounds: list[dict] = []
    problems: list[str] = []
    attempted = failed = 0
    measure_start = perf_counter()
    last_wall: dict[str, float] = {}
    while True:
        kind = kinds[len(rounds) % len(kinds)]
        elapsed = perf_counter() - measure_start
        # The run ends nearest to `seconds`: start a round unless it would
        # overrun by more than half its expected length.
        if kind in last_wall and elapsed + last_wall[kind] / 2 > seconds:
            break
        request = json.dumps({"calls": calls, "trace": kind == "traced"})
        _, wall, result, err = spawn(request, deadline - perf_counter())
        last_wall[kind] = wall
        attempted += len(calls)
        if result is None:
            failed += len(calls)
            problems.append(f"round {len(rounds)} ({kind}) crashed:\n{err[-2000:]}")
            rounds.append({"kind": kind, "wall_s": wall, "ok": False})
            continue
        bad = 0
        for call in result["calls"]:
            call_problems = check(call["argv"], call["code"], call["stdout"])
            if call_problems:
                bad += 1
                problems.append(f"{' '.join(call['argv'])}: " + "; ".join(call_problems))
        failed += bad
        record = {
            "kind": kind,
            "wall_s": wall,
            "ok": bad == 0,
            "solve_s": result["solve_s"],
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "calls": [{"argv": c["argv"], "code": c["code"], "seconds": c["seconds"]}
                      for c in result["calls"]],
        }
        if kind == "traced":
            record["spans"] = [tuple(s) for s in result["spans"]]
            record["counts"] = result["counts"]
        rounds.append(record)
    meta["loadavg_end"] = os.getloadavg()

    plain = [r for r in rounds if r["kind"] == "plain" and r["ok"]]
    metrics: dict[str, float] = {}
    if plain:
        metrics = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(r["solve_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    # Rounds alternate untraced, traced; each traced round is compared with
    # the untraced one just before it, which ran under nearly the same load.
    pairs = [
        (u, t) for u, t in zip(rounds[::2], rounds[1::2]) if trace and u["ok"] and t["ok"]
    ]
    layer_spans = None
    if pairs:
        layers = [tracing.layer_metrics(t["spans"], t["counts"]) for _, t in pairs]
        order = sorted(range(len(pairs)), key=lambda i: layers[i]["trace.solve_s"])
        chosen = order[(len(order) - 1) // 2]
        layer_spans = pairs[chosen][1]["spans"]
        metrics.update(layers[chosen])
        metrics["trace.overhead_s"] = statistics.median(
            t["solve_s"] - u["solve_s"] for u, t in pairs
        )
    for r in rounds:
        r.pop("spans", None)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "meta": meta,
        "setup_probes_s": setups,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "spans": layer_spans,
    }


def reported(run: dict) -> dict[str, dict]:
    """The metrics the contract asks for: end-to-end untraced, per-layer traced."""
    units = {m: u for m, u, _ in tracing.PER_LAYER} if run["trace"] else END_TO_END
    return {m: {"value": run["metrics"][m], "unit": u} for m, u in units.items()
            if m in run["metrics"]}


def print_run(run: dict, metrics: dict[str, dict]) -> None:
    plain = sum(1 for r in run["rounds"] if r["kind"] == "plain")
    traced = len(run["rounds"]) - plain
    print(f"workload {run['workload']}  seed {run['seed']}  trace {int(run['trace'])}"
          f"  rounds {plain} untraced + {traced} traced"
          f"  setup probes {len(run['setup_probes_s'])}")
    for name, m in metrics.items():
        value = m["value"]
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<36} {shown} {m['unit']}")
    ratio = run["failed"] / run["attempted"] if run["attempted"] else 0.0
    print(f"  {'fail_ratio':<36} {ratio:>14.6g} ({run['failed']}/{run['attempted']} calls)")
    for p in run["problems"]:
        print(f"  FAILED {p}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the workloads have no random input")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cycleres" / "cli.py").is_file():
        print(f"error: no cycleres source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    correct, attempted, failed, combined = True, 0, 0, {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        metrics = reported(run)
        path = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(run))
        print_run(run, metrics)
        ok = run["failed"] == 0 and len(metrics) == len(
            tracing.PER_LAYER if args.trace else END_TO_END)
        correct = correct and ok
        attempted += run["attempted"]
        failed += run["failed"]
        prefix = "" if len(names) == 1 else f"{name}/"
        combined.update({prefix + m: v for m, v in metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it builds nothing.  With ``--trace 0``
it measures set-up in fresh processes (median of three) and runs the
workload's units for ``S`` seconds in one worker process; with
``--trace 1`` the worker wraps the program's public functions and reports
per-layer metrics instead.  The last line of standard output is the result
JSON; the line before it carries the machine facts.  A copy of both goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("MSPC_THREADS", None)   # the program runs at its defaults
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    tmp = ROOT / ".perfbench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def run_worker(worker_args: "list[str]", deadline: float) -> tuple[float, str]:
    """Start a worker; return (seconds from spawn to ``ready``, its remaining stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker", *worker_args],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(worker_args)} exited with {proc.returncode}")
    return setup, rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override T, horizon or n_samples (tests use tiny sizes)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "mspc" / "__init__.py").is_file():
        print(f"perfbench: no mspc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed),
              *(f"--set={item}" for item in args.set)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker([*common, "--setup-only"], deadline)[0])
        setup, out = run_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        setups.append(setup)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    raw = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        declared = bench["per_layer"]
        values = raw["layers"]
    else:
        declared = bench["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(raw["unit_s"]),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    detail = {"facts": raw["facts"], "setup_s": setups, "unit_s": raw["unit_s"],
              "problems": raw["problems"]}
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**detail, "result": result}, indent=2) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

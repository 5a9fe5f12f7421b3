"""One benchmark run in one process: set up, run units in a closed loop, check, report.

Run as ``python3 -m perfbench.worker`` with ``src`` and the repository root on
``PYTHONPATH``; ``perfbench/run.py`` does this.  The worker prints ``ready``
once set-up (imports, ``load_config``, ``make_system``) is done, then one
JSON line with the run's raw results.  One caller runs the units: the next
starts only after the last one finished and was checked.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def parse_overrides(items: "list[str]") -> dict:
    overrides = {}
    for item in items:
        key, _, value = item.partition("=")
        overrides[key] = int(value)
    return overrides


def output_bytes(path: Path) -> int:
    """Bytes of the unit's output files, without the wall-clock ``timings.json``."""
    if not path.exists():
        return 0
    return sum(f.stat().st_size for f in path.rglob("*")
               if f.is_file() and f.name != "timings.json")


def check_unit(workload, report, recorder, error, checks, solver, ocp) -> list[str]:
    if error is not None:
        return [error.strip().splitlines()[-1]]
    problems = []
    if workload.kind == "pipeline":
        problems += checks.check_report(report)
    if workload.kind in ("pipeline", "design"):
        solves = recorder.of("solver.solve")
        tables = recorder.of("ocp.build_tightening_table")
        if not solves or not tables:
            problems.append("unit ran no solve or no tightening")
        problems += checks.check_solves(solver, solves)
        problems += checks.check_tightening(ocp, tables)
    return problems


def run(args) -> dict:
    import mspc

    expected = (ROOT / "src" / "mspc").resolve()
    if Path(mspc.__file__).resolve().parent != expected:
        raise SystemExit(f"mspc imported from {mspc.__file__}, expected {expected}")
    from mspc import cli, ident, linalg, ocp, solver, system, validate

    from . import checks, facts, metrics, tracing, workloads

    workload = workloads.WORKLOADS[args.workload]
    patcher = tracing.Patcher()
    recorder = tracing.Recorder()
    recorder.install(patcher, {
        "solver.solve": solver.solve,
        "ocp.build_tightening_table": ocp.build_tightening_table,
    })
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(metrics.make_counters(validate))
        tracer.install(patcher, {
            "cli": cli, "system": system, "ident": ident, "ocp": ocp,
            "solver": solver, "validate": validate, "linalg": linalg,
        })
    out_dir = OUT / "work" / f"{workload.name}-seed{args.seed}"
    try:
        cfg = workloads.load(workload, parse_overrides(args.set))
        sys_true = cli.make_system(cfg)
        print("ready", flush=True)
        if args.setup_only:
            return {}
        unit_s, extras, problems = [], [], []
        failed = 0
        start = time.perf_counter()
        while True:
            index = len(unit_s)
            unit_cfg = workloads.with_seeds(cfg, args.seed, index)
            recorder.calls.clear()
            report = error = None
            t0 = time.perf_counter()
            try:
                with tracer.unit() if tracer else nullcontext():
                    report = workloads.run_unit(workload, unit_cfg, sys_true, out_dir)
            except Exception:  # a failed unit is counted, never fatal
                error = traceback.format_exc()
            unit_s.append(time.perf_counter() - t0)
            with tracer.paused() if tracer else nullcontext():
                found = check_unit(workload, report, recorder, error, checks, solver, ocp)
            if found:
                failed += 1
                problems.append({"unit": index, "problems": found})
                print(f"unit {index} failed: {found}", file=sys.stderr)
            extras.append({"output_bytes": output_bytes(out_dir)})
            if time.perf_counter() - start >= args.seconds:
                break
        result = {
            "unit_s": unit_s,
            "attempted": len(unit_s),
            "failed": failed,
            "problems": problems,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "facts": facts.machine_facts(args.seed),
        }
        if tracer is not None:
            result["layers"] = metrics.per_layer(tracer, extras)
            spans_path = OUT / "spans" / f"{workload.name}-seed{args.seed}.json"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps({
                "fields": ["name", "start", "end", "parent", "attrs"],
                "units": tracer.units,
                "spans": [span.to_json() for span in tracer.spans],
            }) + "\n")
        return result
    finally:
        patcher.restore()
        shutil.rmtree(out_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker", description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override T, horizon or n_samples of the workload config")
    args = parser.parse_args(argv)
    result = run(args)
    if not args.setup_only:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""One command for every end-to-end metric of every workload, plus the traced layer shares.

    python3 perfbench/summary.py [--seed N] [--seconds S]

For each workload in BENCHMARK.json it runs ``perfbench/run.py`` once
untraced and once traced, then prints ``setup_s``, ``run_s``,
``peak_rss_mb`` and ``failed_frac`` (failed units / attempted units) with
units, each layer's share of the traced unit time (self time / traced
``run_s``), and the tracing overhead (traced ``run_s`` - untraced
``run_s``).  The full table goes to ``.perfbench/summary.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.metrics import SELF_TIME_LAYERS as LAYERS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="perfbench/summary.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    rows = []
    facts = None
    for w in bench["workloads"]:
        plain, detail = run(w["name"], args.seed, args.seconds, 0)
        traced, _ = run(w["name"], args.seed, args.seconds, 1)
        facts = detail["facts"]
        e2e = dict(plain["metrics"])
        e2e["failed_frac"] = {"value": plain["failed"] / plain["attempted"], "unit": "1"}
        layers = traced["metrics"]
        traced_run = layers["trace.run_s"]["value"]
        rows.append({
            "workload": w["name"],
            "end_to_end": e2e,
            "attempted": plain["attempted"],
            "traced_attempted": traced["attempted"],
            "traced_failed": traced["failed"],
            "layer_share": {x: layers[f"{x}.self_s"]["value"] / traced_run for x in LAYERS},
            "traced_run_s": traced_run,
            "tracing_overhead_s": traced_run - e2e["run_s"]["value"],
        })

    names = [*(m["name"] for m in bench["end_to_end"]), "failed_frac"]
    print(f"{'workload':<14}" + "".join(
        f"{name + ' [' + rows[0]['end_to_end'][name]['unit'] + ']':>20}" for name in names))
    for row in rows:
        print(f"{row['workload']:<14}" + "".join(
            f"{row['end_to_end'][name]['value']:>20.4f}" for name in names))
    print()
    print(f"{'share of traced unit':<22}" + "".join(f"{x:>9}" for x in LAYERS)
          + f"{'traced run_s':>14}{'overhead':>16}")
    for row in rows:
        overhead = row["tracing_overhead_s"]
        base = row["end_to_end"]["run_s"]["value"]
        print(f"{row['workload']:<22}" + "".join(f"{row['layer_share'][x]:>9.1%}" for x in LAYERS)
              + f"{row['traced_run_s']:>12.3f} s{overhead:>+9.3f} s ({overhead / base:+.1%})")
    print()
    print("machine:", json.dumps({k: v for k, v in facts.items() if k != "workload_seed"}))
    out = ROOT / ".perfbench" / "summary.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "facts": facts, "rows": rows}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

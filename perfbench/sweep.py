"""Scaling sweep over the ROADMAP axes.  Not gated and not a benchmark workload.

    python3 perfbench/sweep.py [--seed N]

Points:
  * four_state identification alone at T in {300, 600, 1500, 3000};
  * design_sweep units (two_state) at horizon in {8, 16, 32};
  * mc_certify units (four_state, T=300) at 1e5 and 1e6 validation samples.

Each point runs one unit untraced (``run_s``, ``peak_rss_mb``) and one unit
traced (per-layer self times), each in a fresh worker process.  A point whose
largest dense residual covariance would not fit in the memory available now
is skipped and reported as skipped.  Results go to ``.perfbench/sweep.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.metrics import SELF_TIME_LAYERS as LAYERS  # noqa: E402
from perfbench.run import BenchError, run_worker  # noqa: E402

POINTS = (
    *(("ident_only", {"T": t}) for t in (300, 600, 1500, 3000)),
    *(("design_sweep", {"horizon": h}) for h in (8, 16, 32)),
    *(("mc_certify", {"n_samples": n}) for n in (100_000, 1_000_000)),
)
CONFIGS = {"ident_only": "ident_long.json", "design_sweep": "design_sweep.json",
           "mc_certify": "mc_certify.json"}
# The dense covariance, its Cholesky factor and the whitening workspace.
DENSE_COPIES = 3
POINT_DEADLINE_S = 900.0


def dense_cov_bytes(workload: str, overrides: dict) -> int:
    """Bytes of the k = 1 residual covariance when ident stores it densely."""
    doc = json.loads((ROOT / "perfbench" / "configs" / CONFIGS[workload]).read_text())
    n = len(doc["ocp"]["Q"])
    rows = n * overrides.get("T", doc["identification"]["T"])
    return rows * rows * 8


def mem_available_bytes() -> int:
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemAvailable:"):
            return int(line.split()[1]) * 1024
    raise BenchError("MemAvailable not found in /proc/meminfo")


def run_point(workload: str, overrides: dict, seed: int, trace: int) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
            *(f"--set={k}={v}" for k, v in overrides.items())]
    _, out = run_worker(args, time.monotonic() + POINT_DEADLINE_S)
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/sweep.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    rows = []
    facts = None
    header = (f"{'point':<28}{'failed':>7}{'run_s':>9}{'rss_MB':>9}  "
              + "".join(f"{x:>9}" for x in LAYERS))
    print(header)
    for workload, overrides in POINTS:
        label = workload + " " + " ".join(f"{k}={v}" for k, v in overrides.items())
        need = DENSE_COPIES * dense_cov_bytes(workload, overrides)
        available = mem_available_bytes()
        if need > available:
            rows.append({"point": label, "skipped": f"needs {need} bytes, {available} available"})
            print(f"{label:<28}skipped: needs {need / 2**30:.2f} GiB, "
                  f"{available / 2**30:.2f} GiB available")
            continue
        plain = run_point(workload, overrides, args.seed, trace=0)
        traced = run_point(workload, overrides, args.seed, trace=1)
        facts = plain["facts"]
        self_s = {layer: traced["layers"][f"{layer}.self_s"] for layer in LAYERS}
        rows.append({
            "point": label, "workload": workload, "overrides": overrides,
            "run_s": plain["unit_s"][0], "peak_rss_mb": plain["peak_rss_mb"],
            "failed": plain["failed"] + traced["failed"], "self_s": self_s,
            "traced_run_s": traced["unit_s"][0],
        })
        print(f"{label:<28}{rows[-1]['failed']:>7}{plain['unit_s'][0]:>9.3f}"
              f"{plain['peak_rss_mb']:>9.1f}  "
              + "".join(f"{self_s[x]:>9.3f}" for x in LAYERS), flush=True)
    out = ROOT / ".perfbench" / "sweep.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "facts": facts, "points": rows}, indent=2) + "\n")
    print(f"self times in s per unit; written to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""How the parametric back-off and robust cost shrink with more data.

Re-identifies the two-state demo plant from records of increasing length,
rebuilds the robust program each time, and prints the per-step ellipsoid
radii scaled by the parameter covariance, the worst exact back-off, and
the robust cost.  Writes a CSV next to the printed table.
"""

import csv
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from mspc.cli import load_config, make_system, robust_at_length  # noqa: E402

LENGTHS = (100, 200, 400, 800, 1600)
SEEDS = 5


def main() -> int:
    cfg = load_config(REPO / "configs" / "two_state.json")
    sys_true = make_system(cfg)
    rows = []
    for t_len in LENGTHS:
        scales, costs, backoffs = [], [], []
        for seed in range(SEEDS):
            table, sol = robust_at_length(
                cfg, sys_true, t_len, cfg.master_seed + 7919 * (seed + 1)
            )
            scales.append(np.mean([
                table.radius[k] * np.linalg.norm(table.sigma_theta_half[k])
                for k in table.radius
            ]))
            backoffs.append(max(table.h_exact.values()))
            costs.append(sol.objective if sol.objective is not None else np.nan)
        row = {
            "T": t_len,
            "median_param_scale": float(np.median(scales)),
            "median_max_backoff": float(np.median(backoffs)),
            "median_cost": float(np.median(costs)),
        }
        rows.append(row)
        print(
            f"T={t_len:5d}  param_scale={row['median_param_scale']:.4f}  "
            f"max_backoff={row['median_max_backoff']:.4f}  cost={row['median_cost']:.4f}"
        )
    out = REPO / "out" / "data_length_study.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

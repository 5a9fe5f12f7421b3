"""Benchmark workloads: what one unit of work is, and its inputs.

Each run takes a workload seed.  Unit ``i`` of a run draws its
``master_seed`` and ``validation.master_seed`` from ``(seed, i)``, so the
same seed gives the same inputs; the plant stays fixed.  A unit is timed
whole, through ``cli.cmd_pipeline``, or through ``cli``'s identification
helpers and the public ``ocp``/``solver`` API.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from mspc import cli, ident, ocp, solver
from mspc.linalg import Rng

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# design_sweep grid of (chance level p, confidence level delta); every delta
# exceeds every p, as the robust program requires.  The solver's iteration
# counts depend on the identified model, so a unit holds few designs: more,
# shorter units per run average over more identifications.
DESIGN_GRID = tuple((p, delta) for p in (0.6, 0.9) for delta in (0.95, 0.99))
N_SCENARIOS = 64


@dataclass(frozen=True)
class Workload:
    name: str
    config: str   # file under configs/
    kind: str     # "pipeline" | "design" | "identify"


# Why each benchmark workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("ident_long", "ident_long.json", "pipeline"),
        Workload("mc_certify", "mc_certify.json", "pipeline"),
        Workload("design_sweep", "design_sweep.json", "design"),
        # Identification alone, for the scaling sweep; not a benchmark workload.
        Workload("ident_only", "ident_long.json", "identify"),
    )
}

# Keys of the config document that ``--set`` may override.
OVERRIDES = {
    "T": ("identification", "T"),
    "horizon": ("ocp", "horizon"),
    "n_samples": ("validation", "n_samples"),
}


def load(workload: Workload, overrides: "dict | None" = None):
    """Parse the workload config through ``cli``; overrides go through the same parser."""
    path = CONFIG_DIR / workload.config
    if not overrides:
        return cli.load_config(path)
    doc = json.loads(path.read_text())
    for key, value in overrides.items():
        block, field = OVERRIDES[key]
        doc[block][field] = value
    return cli.parse_config(doc)


def with_seeds(cfg, seed: int, index: int):
    """Config of unit ``index`` of a run: master and validation seeds drawn from (seed, index)."""
    master, validation = (int(x) for x in np.random.SeedSequence([seed, index]).generate_state(2))
    return replace(cfg, master_seed=master,
                   validation=replace(cfg.validation, master_seed=validation))


def design(cfg, sys_true, estimates, gw, index: int, p: float, delta: float) -> None:
    """One design of the grid: tighten, then the robust, nominal and scenario solves."""
    spec = replace(cfg.ocp_spec, p=p)
    table = ocp.build_tightening_table(spec, estimates, gw, sys_true.sigma_w, delta)
    solver.solve(ocp.build_robust_socp_multistep(
        estimates, spec, delta, gw, sys_true.sigma_w, table=table))
    model = ident.model_from_estimates(estimates, gw, sys_true.sigma_w)
    solver.solve(ocp.build_nominal_qp_multistep(model, spec))
    solver.solve(ocp.formulate_minmax_statespace(
        estimates[0], spec, delta, N_SCENARIOS, Rng(cfg.master_seed, 1 + index),
        sys_true.E, sys_true.sigma_w))


def run_unit(workload: Workload, cfg, sys_true, out_dir: Path) -> "dict | None":
    """Run one unit; returns the pipeline report for pipeline workloads."""
    if workload.kind == "pipeline":
        report, _ = cli.cmd_pipeline(cfg, out_dir)
        return report
    estimates, gw = cli._identify_all(cfg, sys_true, cli._probe_and_simulate(cfg, sys_true))
    if workload.kind == "design":
        for index, (p, delta) in enumerate(DESIGN_GRID):
            design(cfg, sys_true, estimates, gw, index, p, delta)
    return None

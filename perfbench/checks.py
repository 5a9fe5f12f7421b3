"""Correctness checks of one benchmark unit.

Each returns a list of problems (empty when the unit is correct).  A unit
with any problem counts as failed; the run goes on.
"""

from __future__ import annotations

from dataclasses import replace

# Relative slack for the tightening sandwich, which compares floating-point
# values computed along different paths from the same inputs.
SANDWICH_RTOL = 1e-12


def check_report(report: dict) -> list[str]:
    """The pipeline reports passed and certified, and its equivalence check passes."""
    problems = []
    if not report.get("passed"):
        failed = {k: v for k, v in report.get("stages", {}).items() if not v.get("ok")}
        problems.append(f"pipeline did not pass (failed stages: {failed})")
    if not report.get("certification", {}).get("certified"):
        problems.append("pipeline did not certify")
    if not report.get("equivalence_true_system", {}).get("passed"):
        problems.append("equivalence check did not pass")
    return problems


def kkt_within_contract(solver_module, prog, sol) -> bool:
    """Residuals recomputed by ``solver.check_kkt`` pass the rule ``solver.solve``
    applies at default ``SolverOptions``."""
    if sol.primal is None:
        return False
    recomputed = replace(sol, kkt=solver_module.check_kkt(prog, sol))
    return solver_module._kkt_acceptable(prog, recomputed, solver_module.SolverOptions())


def check_solves(solver_module, solves: list) -> list[str]:
    """Every solve is Optimal with KKT residuals inside the solver's contract."""
    problems = []
    for args, kwargs, sol in solves:
        prog = args[0] if args else kwargs["prog"]
        kind = prog.variable_map.get("kind")
        if sol.status != "Optimal":
            problems.append(f"{kind} solve ended {sol.status}")
        elif not kkt_within_contract(solver_module, prog, sol):
            problems.append(f"{kind} solve has KKT residuals outside the contract")
    return problems


def check_tightening(ocp_module, tables: list) -> list[str]:
    """||base|| <= h_exact <= h_upper for every (row, step) of every table."""
    problems = []
    for args, kwargs, table in tables:
        names = ("spec", "estimates", "gw", "sigma_w")
        spec, estimates, gw, sigma_w = (
            args[i] if len(args) > i else kwargs[name] for i, name in enumerate(names)
        )
        for (j, k), h_exact in sorted(table.h_exact.items()):
            est = estimates[k - 1]
            base = ocp_module.tightening_constant_exact(
                spec.h_x[j], gw[k - 1], est.g0_hat(), sigma_w, spec.init.cov,
                table.sigma_theta_half[k], 0.0, est.structure,
            )
            h_upper = table.h_upper[(j, k)]
            if not (base <= h_exact * (1 + SANDWICH_RTOL)
                    and h_exact <= h_upper * (1 + SANDWICH_RTOL)):
                problems.append(
                    f"tightening sandwich broken at (j={j}, k={k}): "
                    f"base {base!r}, exact {h_exact!r}, upper {h_upper!r}"
                )
    return problems

"""Config-driven command line for end-to-end experiments.

The loop runs as one list of stages, ``STAGES``: system, simulate,
identify, tightening, solve_robust, reference, validate, scenario, sweeps.
Every subcommand runs a prefix of that list: simulate, identify, solve and
pipeline stop after simulate, identify, solve_robust and validate; compare
runs all of it, adding the sampled-scenario baseline and the data-length
and chance-level sweeps.  The validate stage certifies the robust solution
by the exact violation probability of each (step, row) on the estimated
model, with the true system's beside it: per entry the probability
(``rate``) and that plus its error bound (``upper99``), which must stay
within 1 - p plus ``validation.margin``.  Each subcommand writes
report.json and timings.json.  The exit code is 0 when every stage it
requested succeeded (with the robust solve Optimal, the two nominal
parametrizations equivalent and the certification holding), 2 when the
config or a stage rejected its input (a typed ``MspcError``, recorded in
report.json), and 1 otherwise.

A single JSON config describes the system (inline matrices or a seeded
random draw), the identification experiment, the control problem, the
certification margin and the comparison studies; an unreadable file,
invalid JSON, a NaN, Infinity or number beyond float range anywhere, a
missing required key, an unknown key, or a value of the wrong type or out
of range (a fraction, boolean or string where an integer is expected, a
boolean or string where a number is expected, a negative seed, a count,
length or horizon below 1, a system block without exactly one of
``inline`` and ``random``, an inline matrix that is not a list of
equal-length lists of numbers, a margin of at least p) is a
``ConfigError``.  An output directory that cannot be created or written
also exits 2.

This is the only module that writes files: two-space JSON (``_write_json``)
and CSV with repr floats (``_write_csv``), each stage file from the value
that report.json holds.  Everything a report contains is a deterministic
function of (config, master seed), so repeated runs are byte-identical.
Wall-clock timings go to a separate file to keep the reports reproducible.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys as _sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import ident, ocp, solver, system, validate
from .errors import ConfigError, DeltaTooSmall, DomainError, MspcError
from .linalg import Rng
from .system import GaussianBelief, LinearSystem

_STREAM_PROBING = 0
_STREAM_SCENARIOS = 1


# parse_config fills every field, so their defaults are written only there.
@dataclass(frozen=True)
class IdentSettings:
    T: int
    delta: float
    structure: str
    covariance: str
    input_std: float
    x0_mean: "np.ndarray | None"
    sigma_x0: "np.ndarray | None"


@dataclass(frozen=True)
class ValidationSettings:
    # Certification is exact, so nothing here reads n_samples or master_seed.
    # Both stay parsed and range-checked only for the benchmark, whose configs
    # set them and whose harness overrides them.
    n_samples: int
    master_seed: int
    margin: float


@dataclass(frozen=True)
class CompareSettings:
    n_scenarios: int
    t_sweep: tuple
    sweep_seeds: int
    p_sweep: tuple


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict
    ident_settings: IdentSettings
    ocp_spec: ocp.OcpSpec
    validation: ValidationSettings
    compare: CompareSettings
    master_seed: int
    output_dir: str


def _matrix(doc, key, where: str, default=None):
    """``doc[key]`` as a float matrix once every entry is checked; ``default`` if absent."""
    if key not in doc:
        return default
    _check_matrix(doc[key], f"{where}.{key}")
    return np.asarray(doc[key], dtype=float)


def _vector(doc, key, where: str, default=None):
    """``doc[key]`` as a float vector once every entry is checked; ``default`` if absent."""
    if key not in doc:
        return default
    _check_vector(doc[key], f"{where}.{key}")
    return np.asarray(doc[key], dtype=float)


def _check_keys(doc, where: str, required: tuple = (), optional: tuple = ()) -> dict:
    """Return the config block ``doc``; reject a missing required key or an unknown key."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ConfigError(f"{where}: missing key(s) {', '.join(missing)}")
    unknown = sorted(set(doc) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(unknown)}")
    return doc


def _integer(value, where: str, minimum: int) -> int:
    """``value`` if it is a JSON integer of at least ``minimum``; otherwise a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{where} must be an integer >= {minimum}, got {value!r}")
    return value


def _number(value, where: str) -> float:
    """``value`` as a float if it is a JSON int or float (not a bool); otherwise a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number (int or float), got {value!r}")
    return float(value)


def _check_vector(value, where: str) -> None:
    """Reject anything but a non-empty list of JSON numbers."""
    if not (isinstance(value, list) and value):
        raise ConfigError(f"{where} must be a non-empty list of numbers")
    for entry in value:
        _number(entry, where)


def _check_matrix(value, where: str) -> None:
    """Reject anything but a non-empty list of equal-length lists of JSON numbers."""
    if not (isinstance(value, list) and value and all(isinstance(row, list) for row in value)
            and len({len(row) for row in value}) == 1):
        raise ConfigError(f"{where} must be a list of equal-length lists of numbers")
    for row in value:
        _check_vector(row, where)


def _check_config_keys(doc: dict) -> None:
    _check_keys(doc, "config", ("system", "identification", "ocp"),
                ("validation", "compare", "master_seed", "output_dir"))
    system_doc = _check_keys(doc["system"], "system", (), ("inline", "random"))
    if len(system_doc) != 1:
        raise ConfigError("system must hold exactly one of inline and random")
    if "random" in system_doc:
        _check_keys(system_doc["random"], "system.random", ("n", "m", "q"),
                    ("spectral_radius", "seed", "sigma_w", "sigma_eps"))
    else:
        _check_keys(system_doc["inline"], "system.inline", ("A", "B", "E", "sigma_w", "sigma_eps"))
    _check_keys(doc["identification"], "identification", ("T", "delta"),
                ("structure", "covariance", "input_std", "x0_mean", "sigma_x0"))
    ocp_doc = _check_keys(doc["ocp"], "ocp", ("horizon", "Q", "R", "p"),
                          ("h_x", "u_min", "u_max", "input_polytope", "x0_mean", "sigma_x0"))
    if "input_polytope" in ocp_doc:
        _check_keys(ocp_doc["input_polytope"], "ocp.input_polytope", ("H", "h"))
    _check_keys(doc.get("validation", {}), "validation", (),
                ("n_samples", "master_seed", "margin"))
    _check_keys(doc.get("compare", {}), "compare", (),
                ("n_scenarios", "T_sweep", "sweep_seeds", "p_sweep"))


def parse_config(doc: dict, seed_override: "int | None" = None) -> ExperimentConfig:
    """Validate the raw config document; rejects bad keys and delta <= p immediately."""
    _check_config_keys(doc)
    rnd = doc["system"].get("random", {})
    for key, minimum in (("n", 1), ("m", 1), ("q", 1), ("seed", 0)):
        if key in rnd:
            _integer(rnd[key], f"system.random.{key}", minimum)
    for key in ("spectral_radius", "sigma_w", "sigma_eps"):
        if key in rnd:
            _number(rnd[key], f"system.random.{key}")
    for key, value in doc["system"].get("inline", {}).items():
        _check_matrix(value, f"system.inline.{key}")
    ocp_doc = doc["ocp"]
    q_mat = _matrix(ocp_doc, "Q", "ocp")
    r_mat = _matrix(ocp_doc, "R", "ocp")
    n, m = len(q_mat), len(r_mat)
    if "input_polytope" in ocp_doc:
        poly_doc = ocp_doc["input_polytope"]
        u_set = ocp.InputPolytope(h_mat=_matrix(poly_doc, "H", "ocp.input_polytope"),
                                  h_vec=_vector(poly_doc, "h", "ocp.input_polytope"))
    elif "u_min" in ocp_doc or "u_max" in ocp_doc:
        u_set = ocp.InputBox(lo=_vector(ocp_doc, "u_min", "ocp", np.full(m, -np.inf)),
                             hi=_vector(ocp_doc, "u_max", "ocp", np.full(m, np.inf)))
    else:
        u_set = None
    spec = ocp.OcpSpec(
        horizon=_integer(ocp_doc["horizon"], "ocp.horizon", 1),
        Q=q_mat,
        R=r_mat,
        h_x=_matrix(ocp_doc, "h_x", "ocp", np.zeros((0, n))),
        u_set=u_set,
        p=_number(ocp_doc["p"], "ocp.p"),
        init=GaussianBelief(
            mean=_vector(ocp_doc, "x0_mean", "ocp", np.zeros(n)),
            cov=_matrix(ocp_doc, "sigma_x0", "ocp", np.zeros((n, n))),
        ),
    )
    ident_doc = doc["identification"]
    for key, allowed in (("structure", ident.STRUCTURES), ("covariance", ident.COVARIANCE_MODES)):
        if key in ident_doc and ident_doc[key] not in allowed:
            raise ConfigError(f"identification.{key} must be one of {allowed}, got {ident_doc[key]!r}")
    ident_settings = IdentSettings(
        T=_integer(ident_doc["T"], "identification.T", 1),
        delta=_number(ident_doc["delta"], "identification.delta"),
        structure=ident_doc.get("structure", ident.STRUCTURE_FULL),
        covariance=ident_doc.get("covariance", "oracle"),
        input_std=_number(ident_doc.get("input_std", 1.0), "identification.input_std"),
        x0_mean=_vector(ident_doc, "x0_mean", "identification"),
        sigma_x0=_matrix(ident_doc, "sigma_x0", "identification"),
    )
    if ident_settings.delta <= spec.p:
        raise DeltaTooSmall(
            f"identification delta {ident_settings.delta} must exceed p = {spec.p}"
        )
    if ident_settings.delta >= 1.0:
        raise DomainError(f"identification delta {ident_settings.delta} must be below 1")
    val_doc = doc.get("validation", {})
    validation = ValidationSettings(
        n_samples=_integer(val_doc.get("n_samples", 100_000), "validation.n_samples", 1),
        master_seed=_integer(val_doc.get("master_seed", 0), "validation.master_seed", 0),
        margin=_number(val_doc.get("margin", 0.01), "validation.margin"),
    )
    if validation.margin >= spec.p:
        raise ConfigError(f"validation.margin {validation.margin} must be below p = {spec.p}: "
                          "budget + margin would reach 1 and certify anything")
    cmp_doc = doc.get("compare", {})
    compare = CompareSettings(
        n_scenarios=_integer(cmp_doc.get("n_scenarios", 64), "compare.n_scenarios", 1),
        t_sweep=tuple(_integer(t, "compare.T_sweep", 1)
                      for t in cmp_doc.get("T_sweep", (100, 200, 400))),
        sweep_seeds=_integer(cmp_doc.get("sweep_seeds", 3), "compare.sweep_seeds", 0),
        p_sweep=tuple(_number(p, "compare.p_sweep")
                      for p in cmp_doc.get("p_sweep", (0.6, 0.75, 0.9))),
    )
    seed = seed_override if seed_override is not None else doc.get("master_seed", 0)
    master_seed = _integer(seed, "master_seed", 0)
    return ExperimentConfig(
        raw=doc,
        ident_settings=ident_settings,
        ocp_spec=spec,
        validation=validation,
        compare=compare,
        master_seed=master_seed,
        output_dir=doc.get("output_dir", "out"),
    )


def _finite_float(text: str) -> float:
    """``json.loads`` hook for float literals and NaN, Infinity, -Infinity; each must be finite.

    Python's ``json`` reads the three constants, and a literal such as 1e400 as inf.
    """
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text} in config")
    return value


def load_config(path: "str | Path", seed_override=None) -> ExperimentConfig:
    """Read and parse a config file; an unreadable file, bad JSON or a bad value is a ConfigError."""
    try:
        doc = json.loads(Path(path).read_text(), parse_constant=_finite_float,
                         parse_float=_finite_float)
        return parse_config(doc, seed_override=seed_override)
    except MspcError:
        raise
    except (OSError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {type(exc).__name__}: {exc}") from exc


def make_system(cfg: ExperimentConfig) -> LinearSystem:
    block = cfg.raw["system"]
    if "inline" in block:
        return system.system_from_json(block["inline"])
    rnd = block["random"]
    return system.random_system(
        n=rnd["n"],
        m=rnd["m"],
        q=rnd["q"],
        spectral_radius_max=rnd.get("spectral_radius", 0.9),
        rng=Rng(rnd.get("seed", 0)),
        sigma_w=rnd.get("sigma_w", 0.1),
        sigma_eps=rnd.get("sigma_eps", 0.0),
    )


def _ident_init(cfg: ExperimentConfig, n: int) -> GaussianBelief:
    mean = cfg.ident_settings.x0_mean
    cov = cfg.ident_settings.sigma_x0
    return GaussianBelief(
        mean=np.zeros(n) if mean is None else mean,
        cov=np.zeros((n, n)) if cov is None else cov,
    )


def _probe_and_simulate(cfg: ExperimentConfig, sys_true: LinearSystem) -> system.Trajectory:
    gen = Rng(cfg.master_seed, _STREAM_PROBING).generator()
    u = cfg.ident_settings.input_std * gen.standard_normal((cfg.ident_settings.T, sys_true.m))
    return system.simulate(sys_true, _ident_init(cfg, sys_true.n), u, gen)


def _identify_all(cfg: ExperimentConfig, sys_true: LinearSystem,
                  traj: system.Trajectory):
    """Per-step estimates for k = 1..horizon plus the known disturbance maps."""
    model_true = system.build_multistep(sys_true, cfg.ocp_spec.horizon)
    estimates, gw = [], []
    for k in range(1, cfg.ocp_spec.horizon + 1):
        g0_k, _, gw_k = model_true.step(k)
        est = ident.estimate_predictor(
            traj,
            k,
            gw_k,
            sys_true.sigma_w,
            sys_true.sigma_eps,
            structure=cfg.ident_settings.structure,
            covariance=cfg.ident_settings.covariance,
            g0_true=g0_k,
        )
        estimates.append(est)
        gw.append(gw_k)
    return estimates, gw


# ---------------------------------------------------------------------------
# Comparison studies
# ---------------------------------------------------------------------------


def _cost_vs_t(cfg: ExperimentConfig, sys_true: LinearSystem) -> "list[dict]":
    """Robust cost and mean parametric term per record length and sweep seed.

    Each point identifies from a fresh record of that length, tightens and
    solves the robust program.
    """
    delta = cfg.ident_settings.delta
    rows = []
    for t_len in cfg.compare.t_sweep:
        for seed in range(cfg.compare.sweep_seeds):
            sub = replace(
                cfg,
                ident_settings=replace(cfg.ident_settings, T=t_len),
                master_seed=cfg.master_seed + 1000 * (seed + 1),
            )
            estimates, gw = _identify_all(sub, sys_true, _probe_and_simulate(sub, sys_true))
            table = ocp.build_tightening_table(
                cfg.ocp_spec, estimates, gw, sys_true.sigma_w, delta
            )
            sol = solver.solve(ocp.build_robust_socp_multistep(
                estimates, cfg.ocp_spec, delta, gw, sys_true.sigma_w, table=table
            ))
            # r_k ||cov_k^(1/2)||_F, with ||cov_k^(1/2)||_F^2 = tr(cov_k).
            param_terms = [
                table.radius[k] * float(np.sqrt(np.trace(estimates[k - 1].cov)))
                for k in range(1, cfg.ocp_spec.horizon + 1)
            ]
            rows.append({
                "T": int(t_len),
                "seed": seed,
                "status": sol.status,
                "cost": sol.objective,
                "mean_param_scale": float(np.mean(param_terms)),
            })
    return rows


def _violation_vs_p(cfg: ExperimentConfig, sys_true: LinearSystem, estimates, gw,
                    sol_robust: "solver.Solution | None") -> "list[dict]":
    """Worst parametric violation bound of the robust solve per chance level p < delta.

    At the config's own p the pipeline's robust solve ``sol_robust`` is reused.
    """
    rows = []
    for p_val in cfg.compare.p_sweep:
        if not p_val < cfg.ident_settings.delta:
            continue
        spec_p = replace(cfg.ocp_spec, p=float(p_val))
        try:
            if sol_robust is not None and spec_p.p == cfg.ocp_spec.p:
                sol = sol_robust
            else:
                sol = solver.solve(ocp.build_robust_socp_multistep(
                    estimates, spec_p, cfg.ident_settings.delta, gw, sys_true.sigma_w
                ))
        except MspcError as exc:
            rows.append({"p": p_val, "status": type(exc).__name__, "worst_upper99": None})
            continue
        if sol.status != "Optimal":
            rows.append({"p": p_val, "status": sol.status, "worst_upper99": None})
            continue
        truth = validate.EstimatedModel(estimates=estimates, gw=gw, sigma_w=sys_true.sigma_w)
        rep = validate.exact_violation(truth, sol.primal[: spec_p.horizon * spec_p.m], spec_p)
        rows.append({
            "p": p_val,
            "status": "Optimal",
            "worst_upper99": rep.worst_upper99,
            "budget": 1.0 - p_val,
        })
    return rows


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

STAGES = ("system", "simulate", "identify", "tightening", "solve_robust", "reference",
          "validate", "scenario", "sweeps")

# Each pipeline subcommand runs the stage list up to and including its stage.
PREFIX_COMMANDS = {
    "simulate": "simulate",
    "identify": "identify",
    "solve": "solve_robust",
    "pipeline": "validate",
    "compare": "sweeps",
}


def _write_json(path: Path, doc) -> None:
    """``doc`` as JSON indented by two spaces, with a final newline."""
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _write_csv(path: Path, columns: "tuple | list", rows: "list[dict]") -> None:
    """One line per row dict; floats are written by repr, a missing or None value as ''."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([row.get(col) for col in columns] for row in rows)


def cmd_pipeline(cfg: ExperimentConfig, out_dir: Path,
                 last: str = "validate") -> tuple[dict, bool]:
    """Run ``STAGES`` up to and including ``last``; write report.json and timings.json.

    A stage runs only when it is requested and the results it needs exist.
    The run passes when every requested stage ran without error, the robust
    solve (if requested) is Optimal, the two nominal parametrizations agree
    (if reference is requested) and the certification (if requested) holds.
    A scenario or sweep solve that is not Optimal is recorded, not failed.
    """
    requested = STAGES[: STAGES.index(last) + 1]
    out_dir.mkdir(parents=True, exist_ok=True)
    report: dict = {"config": cfg.raw, "master_seed": cfg.master_seed, "stages": {}}
    timings: dict = {}
    spec = cfg.ocp_spec

    def run_stage(name, fn):
        if name not in requested:
            return None
        start = time.perf_counter()
        try:
            result = fn()
            report["stages"][name] = {"ok": True}
            return result
        except MspcError as exc:
            report["stages"][name] = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            return None
        finally:
            timings[name] = time.perf_counter() - start

    sys_true = run_stage("system", lambda: make_system(cfg))
    if sys_true is not None:
        report["system"] = system.system_to_json(sys_true)
        _write_json(out_dir / "system.json", report["system"])

    traj = None
    if sys_true is not None:
        traj = run_stage("simulate", lambda: _probe_and_simulate(cfg, sys_true))
        if traj is not None:
            _write_csv(out_dir / "trajectory.csv", *system.trajectory_rows(traj))

    estimates = gw = None
    if traj is not None:
        out = run_stage("identify", lambda: _identify_all(cfg, sys_true, traj))
        if out is not None:
            estimates, gw = out
            delta = cfg.ident_settings.delta
            _write_json(out_dir / "estimates.json",
                        [ident.estimate_to_json(est, delta) for est in estimates])
            report["identification_health"] = [ident.estimate_health(est, delta)
                                               for est in estimates]

    table = None
    if estimates is not None:
        table = run_stage(
            "tightening",
            lambda: ocp.build_tightening_table(
                spec, estimates, gw, sys_true.sigma_w, cfg.ident_settings.delta
            ),
        )
        if table is not None:
            report["tightening"] = ocp.tightening_to_json(table)
            _write_csv(out_dir / "tightening.csv", ("j", "k", "h_exact", "h_upper", "radius"),
                       report["tightening"]["rows"])

    sol_robust = None
    if table is not None:
        def _solve_robust():
            prog = ocp.build_robust_socp_multistep(
                estimates, spec, cfg.ident_settings.delta, gw, sys_true.sigma_w, table=table
            )
            _write_json(out_dir / "program_robust.json", ocp.program_to_json(prog))
            return solver.solve(prog)

        sol_robust = run_stage("solve_robust", _solve_robust)
        if sol_robust is not None:
            report["robust_solution"] = solver.solution_to_json(sol_robust)
            _write_json(out_dir / "solution_robust.json", report["robust_solution"])

    if estimates is not None:
        def _reference():
            eq = validate.equivalence_check(sys_true, spec)
            est_model = ident.model_from_estimates(estimates, gw, sys_true.sigma_w)
            sol_est = solver.solve(ocp.build_nominal_qp_multistep(est_model, spec))
            return eq, sol_est

        ref = run_stage("reference", _reference)
        if ref is not None:
            eq, sol_est = ref
            report["equivalence_true_system"] = validate.equivalence_report_to_json(eq)
            report["nominal_on_estimated_model"] = solver.solution_to_json(sol_est)

    certified = False
    if sol_robust is not None and sol_robust.primal is not None:
        def _certify():
            u = sol_robust.primal[: spec.horizon * spec.m]
            truth = validate.EstimatedModel(
                estimates=estimates, gw=gw, sigma_w=sys_true.sigma_w
            )
            start = time.perf_counter()
            rep_par = validate.exact_violation(truth, u, spec)
            mid = time.perf_counter()
            rep_true = validate.exact_violation(sys_true, u, spec)
            timings["validate_exact"] = {
                "parametric_s": mid - start, "true_system_s": time.perf_counter() - mid,
            }
            rows = validate.certification_rows(table, estimates, spec, u, rep_par)
            return rep_par, rep_true, rows

        certification = run_stage("validate", _certify)
        if certification is not None:
            rep_par, rep_true, rows = certification
            budget = 1.0 - spec.p
            certified = rep_par.certifies(budget, cfg.validation.margin)
            report["certification"] = {
                "budget": budget,
                "margin": cfg.validation.margin,
                "worst_upper99_parametric": rep_par.worst_upper99,
                "worst_upper99_true_system": rep_true.worst_upper99,
                "certified": certified,
                "parametric": validate.violation_report_to_json(rep_par),
                "true_system": validate.violation_report_to_json(rep_true),
                "rows": rows,
            }
            columns = ("j", "k", "rate", "upper99")
            _write_csv(out_dir / "violations_parametric.csv", columns,
                       report["certification"]["parametric"]["entries"])
            _write_csv(out_dir / "violations_true.csv", columns,
                       report["certification"]["true_system"]["entries"])
            _write_csv(out_dir / "tightening_vs_k.csv",
                       ("j", "k", "h_exact", "h_upper", "parametric_term", "upper99"), rows)

    if estimates is not None:
        def _scenario():
            prog = ocp.formulate_minmax_statespace(
                estimates[0], spec, cfg.ident_settings.delta, cfg.compare.n_scenarios,
                Rng(cfg.master_seed, _STREAM_SCENARIOS), sys_true.E, sys_true.sigma_w,
            )
            return solver.solve(prog)

        sol_scen = run_stage("scenario", _scenario)
        if sol_scen is not None:
            report["scenario_baseline"] = {
                "n_scenarios": cfg.compare.n_scenarios,
                "status": sol_scen.status,
                "objective": sol_scen.objective,
                "iterations": sol_scen.iterations,
                "rounds": sol_scen.rounds,
                "fallback": sol_scen.fallback,
                "robust_cost": None if sol_robust is None else sol_robust.objective,
            }

        sweeps = run_stage(
            "sweeps",
            lambda: (_cost_vs_t(cfg, sys_true),
                     _violation_vs_p(cfg, sys_true, estimates, gw, sol_robust)),
        )
        if sweeps is not None:
            report["cost_vs_T"], report["violation_vs_p"] = sweeps
            _write_csv(out_dir / "cost_vs_T.csv",
                       ("T", "seed", "status", "cost", "mean_param_scale"), sweeps[0])
            _write_csv(out_dir / "violation_vs_p.csv",
                       ("p", "status", "worst_upper99", "budget"), sweeps[1])

    succeeded = [name for name, stage in report["stages"].items() if stage["ok"]]
    passed = (
        succeeded == list(requested)
        and ("solve_robust" not in requested or sol_robust.status == "Optimal")
        and ("reference" not in requested or ref[0].passed)
        and ("validate" not in requested or certified)
    )
    report["passed"] = passed
    _write_json(out_dir / "report.json", report)
    _write_json(out_dir / "timings.json", timings)
    return report, passed


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mspc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in PREFIX_COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, seed_override=args.seed)
    except MspcError as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else Path(cfg.output_dir)

    try:
        report, ok = cmd_pipeline(cfg, out_dir, PREFIX_COMMANDS[args.command])
    except OSError as exc:
        print(f"output error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 2
    summary = {
        "stages": report["stages"],
        "passed": report["passed"],
    }
    if "certification" in report:
        summary["worst_upper99"] = report["certification"]["worst_upper99_parametric"]
        summary["certified"] = report["certification"]["certified"]
    print(json.dumps(summary, indent=2))
    if any(not stage["ok"] for stage in report["stages"].values()):
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

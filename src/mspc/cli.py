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
certification margin and the comparison studies; ``CONFIG`` and the tables
it nests give each key's reader and default.  An unreadable file, invalid
JSON, a NaN, Infinity or number beyond float range anywhere, a missing
required key, an unknown key, or a value of the wrong type or out of range
(a fraction, boolean or string where an integer is expected, a boolean or
string where a number is expected, a negative seed, a count, length or
horizon below 1, a ``compare.p_sweep`` entry outside (0, 1), an
``output_dir`` that is not a string, a system block without exactly one of
``inline`` and ``random``, an inline matrix that is not a list of
equal-length lists of numbers, an ``ocp`` block with both an
``input_polytope`` and ``u_min`` or ``u_max``, a margin of at least p) is a
``ConfigError``.  The system, the control problem and both initial states
are built at load: what their constructors reject (an indefinite
``sigma_w``, a ``spectral_radius`` <= 0, an initial state or ``h_x`` whose
dimension is not the state's) also exits 2, before any output is written.
So does an output directory that cannot be created or written.

This is the only module that writes files: JSON with every flat list or
object on one line (``_write_json``) and CSV with repr floats
(``_write_csv``), each stage file from the value that report.json holds.
Everything a report contains is a deterministic function of (config, master
seed), so repeated runs are byte-identical.  Wall-clock timings go to a
separate file to keep the reports reproducible.  A run removes every file of
``OUTPUT_FILES`` from its output directory before it writes its own.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import ident, ocp, solver, system, validate
from .errors import ConfigError, DeltaTooSmall, DimensionMismatch, DomainError, MspcError
from .linalg import Rng
from .system import GaussianBelief, LinearSystem

_STREAM_PROBING = 0
_STREAM_SCENARIOS = 1


@dataclass(frozen=True)
class IdentSettings:
    T: int
    delta: float
    structure: str
    covariance: str
    input_std: float
    init: GaussianBelief   # state of the identification record at time 0


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
    T_sweep: tuple
    sweep_seeds: int
    p_sweep: tuple


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict   # the document as read, echoed as report["config"]
    system: LinearSystem
    ident_settings: IdentSettings
    ocp_spec: ocp.OcpSpec
    validation: ValidationSettings
    compare: CompareSettings
    master_seed: int
    output_dir: str


# A config block is read by a table of (key, reader, default) rows.  A set key
# is read by its reader, and so is the default of an unset one, written as a
# config would write it.  A key whose default is None stays out of the values
# unless set; the block's builder fills it.  A REQUIRED key must be set.
REQUIRED = object()


def _block(doc, where: str, fields: tuple) -> dict:
    """Each key of ``fields`` read from config block ``doc``; rejects missing and unknown keys."""
    name, prefix = (where, f"{where}.") if where else ("config", "")
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be an object")
    missing = [key for key, _, default in fields if default is REQUIRED and key not in doc]
    if missing:
        raise ConfigError(f"{name}: missing key(s) {', '.join(missing)}")
    unknown = sorted(set(doc) - {key for key, _, _ in fields})
    if unknown:
        raise ConfigError(f"{name}: unknown key(s) {', '.join(unknown)}")
    return {key: reader(doc.get(key, default), prefix + key)
            for key, reader, default in fields if key in doc or default is not None}


def _fields(fields: tuple, build=dict):
    """Reader of a sub-block by the table ``fields``; ``build`` takes its values as keywords."""
    return lambda doc, where: build(**_block(doc, where, fields))


def _reader(ok, what: str, convert=None):
    """Reader of a value that ``ok`` accepts, converted by ``convert``; else "must be ``what``"."""
    def read(value, where: str):
        if not ok(value):
            raise ConfigError(f"{where} must be {what}, got {value!r}")
        return value if convert is None else convert(value)
    return read


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_numbers(value) -> bool:
    return isinstance(value, list) and bool(value) and all(map(_is_number, value))


def _integer(minimum: int):
    return _reader(lambda value: _is_number(value) and isinstance(value, int) and value >= minimum,
                   f"an integer >= {minimum}")


def _one_of(allowed: tuple):
    return _reader(lambda value: value in allowed, f"one of {allowed}")


def _list(reader):
    """Reader of a JSON list as the tuple of its entries, each read by ``reader``."""
    is_list = _reader(lambda value: isinstance(value, list), "a list")
    return lambda value, where: tuple(reader(entry, where) for entry in is_list(value, where))


_number = _reader(_is_number, "a number (int or float)", float)
_fraction = _reader(lambda value: _is_number(value) and 0.0 < value < 1.0,
                    "a number (int or float) in (0, 1)", float)   # a chance level's range
_string = _reader(lambda value: isinstance(value, str), "a string")
_vector = _reader(_is_numbers, "a non-empty list of numbers", lambda value: np.array(value, float))
_matrix = _reader(lambda value: (isinstance(value, list) and bool(value)
                                 and all(map(_is_numbers, value)) and len(set(map(len, value))) == 1),
                  "a list of equal-length lists of numbers", lambda value: np.array(value, float))


def _belief(block: dict, n: int) -> GaussianBelief:
    """The state that ``block``'s x0_mean and sigma_x0, taken out of it, describe; zero if unset."""
    return GaussianBelief(mean=block.pop("x0_mean", np.zeros(n)),
                          cov=block.pop("sigma_x0", np.zeros((n, n))))


def _system(doc, where: str) -> LinearSystem:
    """The true system: inline matrices, or a random draw from its seed."""
    block = _block(doc, where, SYSTEM)
    if len(doc) != 1:
        raise ConfigError(f"{where} must hold exactly one of inline and random")
    if "inline" in doc:
        return system.system_from_json(block["inline"])
    rnd = block["random"]
    return system.random_system(rnd["n"], rnd["m"], rnd["q"], rnd["spectral_radius"],
                                Rng(rnd["seed"]), rnd["sigma_w"], rnd["sigma_eps"])


def _ocp_spec(doc, where: str) -> ocp.OcpSpec:
    """The control problem; its inputs keep to the polytope or to the box, not to both."""
    block = _block(doc, where, OCP)
    n, m = len(block["Q"]), len(block["R"])
    u_set, lo, hi = (block.pop(key, None) for key in ("input_polytope", "u_min", "u_max"))
    if u_set is not None and (lo is not None or hi is not None):
        raise ConfigError(f"{where}.input_polytope and {where}.u_min/u_max are both set; "
                          "the inputs keep to one of them")
    if u_set is None and (lo is not None or hi is not None):
        u_set = ocp.InputBox(lo=np.full(m, -np.inf) if lo is None else lo,
                             hi=np.full(m, np.inf) if hi is None else hi)
    block.setdefault("h_x", np.zeros((0, n)))
    init = _belief(block, n)
    return ocp.OcpSpec(u_set=u_set, init=init, **block)


SYSTEM = (
    ("inline", _fields(tuple((key, _matrix, REQUIRED)
                             for key in ("A", "B", "E", "sigma_w", "sigma_eps"))), None),
    ("random", _fields((
        ("n", _integer(1), REQUIRED), ("m", _integer(1), REQUIRED), ("q", _integer(1), REQUIRED),
        ("spectral_radius", _number, 0.9), ("seed", _integer(0), 0),
        ("sigma_w", _number, 0.1), ("sigma_eps", _number, 0.0),
    )), None),
)
OCP = (
    ("horizon", _integer(1), REQUIRED), ("Q", _matrix, REQUIRED), ("R", _matrix, REQUIRED),
    ("p", _number, REQUIRED), ("h_x", _matrix, None),
    ("u_min", _vector, None), ("u_max", _vector, None),
    ("input_polytope", _fields((("H", _matrix, REQUIRED), ("h", _vector, REQUIRED)),
                               lambda H, h: ocp.InputPolytope(h_mat=H, h_vec=h)), None),
    ("x0_mean", _vector, None), ("sigma_x0", _matrix, None),
)
CONFIG = (
    ("system", _system, REQUIRED),
    ("identification", _fields((
        ("T", _integer(1), REQUIRED), ("delta", _number, REQUIRED),
        ("structure", _one_of(ident.STRUCTURES), ident.STRUCTURE_FULL),
        ("covariance", _one_of(ident.COVARIANCE_MODES), "oracle"),
        ("input_std", _number, 1.0), ("x0_mean", _vector, None), ("sigma_x0", _matrix, None),
    )), REQUIRED),
    ("ocp", _ocp_spec, REQUIRED),
    ("validation", _fields((
        ("n_samples", _integer(1), 100_000), ("master_seed", _integer(0), 0),
        ("margin", _number, 0.01),
    ), ValidationSettings), {}),
    ("compare", _fields((
        ("n_scenarios", _integer(1), 64), ("T_sweep", _list(_integer(1)), [100, 200, 400]),
        ("sweep_seeds", _integer(0), 3), ("p_sweep", _list(_fraction), [0.6, 0.75, 0.9]),
    ), CompareSettings), {}),
    ("master_seed", _integer(0), 0),
    ("output_dir", _string, "out"),
)


def parse_config(doc: dict, seed_override: "int | None" = None) -> ExperimentConfig:
    """Read the config document by ``CONFIG``, building the system and the control problem.

    A bad key or value is a ConfigError and delta <= p a DeltaTooSmall; a
    system or problem that its constructor rejects raises that MspcError.
    """
    cfg = _block(doc if seed_override is None else {**doc, "master_seed": seed_override},
                 "", CONFIG)
    spec, ident_doc, validation = cfg["ocp"], cfg["identification"], cfg["validation"]
    sys_true = cfg["system"]
    if (spec.n, spec.m) != (sys_true.n, sys_true.m):
        raise DimensionMismatch(f"the ocp block has {spec.n} states and {spec.m} inputs, "
                                f"the system {sys_true.n} and {sys_true.m}")
    init = _belief(ident_doc, sys_true.n)
    if init.mean.size != sys_true.n:
        raise DimensionMismatch(f"identification.x0_mean has {init.mean.size} entries, "
                                f"the system has {sys_true.n} states")
    ident_settings = IdentSettings(init=init, **ident_doc)
    delta = ident_settings.delta
    if delta <= spec.p:
        raise DeltaTooSmall(f"identification delta {delta} must exceed p = {spec.p}")
    if delta >= 1.0:
        raise DomainError(f"identification delta {delta} must be below 1")
    if validation.margin >= spec.p:
        raise ConfigError(f"validation.margin {validation.margin} must be below p = {spec.p}: "
                          "budget + margin would reach 1 and certify anything")
    return ExperimentConfig(raw=doc, system=sys_true, ident_settings=ident_settings,
                            ocp_spec=spec, validation=validation, compare=cfg["compare"],
                            master_seed=cfg["master_seed"], output_dir=cfg["output_dir"])


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
    """The true system, built when the config was parsed."""
    return cfg.system


def _probe_and_simulate(cfg: ExperimentConfig, sys_true: LinearSystem) -> system.Trajectory:
    gen = Rng(cfg.master_seed, _STREAM_PROBING).generator()
    u = cfg.ident_settings.input_std * gen.standard_normal((cfg.ident_settings.T, sys_true.m))
    return system.simulate(sys_true, cfg.ident_settings.init, u, gen)


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
    for t_len in cfg.compare.T_sweep:
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


# Every file a pipeline subcommand can write.  Each run first removes them all
# from its output directory, so no file of an earlier run survives beside its own.
OUTPUT_FILES = ("system.json", "trajectory.csv", "estimates.json", "tightening.csv",
                "program_robust.json", "solution_robust.json", "violations_parametric.csv",
                "violations_true.csv", "tightening_vs_k.csv", "cost_vs_T.csv",
                "violation_vs_p.csv", "report.json", "timings.json")


def _json_text(value, indent: str = "") -> str:
    """``value`` as JSON: a container that holds no container on one line, by json's
    C encoder; any other one member per line, each indented two spaces past ``indent``.

    An object key is written as json writes it: a str as it is, an int, float,
    bool or None by its JSON text, quoted; any other key is a TypeError.
    """
    members = (value.values() if isinstance(value, dict)
               else value if isinstance(value, (list, tuple)) else ())
    if not any(issubclass(kind, (dict, list, tuple)) for kind in set(map(type, members))):
        return json.dumps(value)
    inner = indent + "  "
    if isinstance(value, dict):
        # json.dumps({key: 0}) is '{' + the encoded key + ': 0}'.
        lines = [f"{inner}{json.dumps({key: 0})[1:-4]}: {_json_text(member, inner)}"
                 for key, member in value.items()]
        return "{\n" + ",\n".join(lines) + f"\n{indent}}}"
    lines = [inner + _json_text(member, inner) for member in value]
    return "[\n" + ",\n".join(lines) + f"\n{indent}]"


def _write_json(path: Path, doc) -> None:
    """``doc`` as JSON in the layout of ``_json_text``, with a final newline."""
    path.write_text(_json_text(doc) + "\n")


_CSV_SPECIAL = frozenset(',"\r\n')


def _csv_cell(value) -> str:
    """``value`` as one CSV cell: a float by float.__repr__, None as '', any other value by str;
    a text that holds a comma, a quote or a line break quoted, its quotes doubled."""
    if value is None:
        return ""
    text = float.__repr__(value) if isinstance(value, float) else str(value)
    if _CSV_SPECIAL.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


# The cell of an exact float, int or bool is its repr, which needs no quoting:
# the common cells skip _csv_cell's tests.
_CSV_PLAIN = {float: repr, int: repr, bool: repr}


def _csv_line(cells) -> str:
    """``cells`` joined by commas with a CRLF; a line whose only cell is empty is '""'."""
    plain = _CSV_PLAIN.get
    line = ",".join([plain(type(cell), _csv_cell)(cell) for cell in cells])
    return (line if line or len(cells) != 1 else '""') + "\r\n"


def _write_csv(path: Path, columns: "tuple | list", rows: "list[list | dict]") -> None:
    """The header, then one line per row: a list of cells in column order, or a dict read by
    column name, a key missing from it read as None.

    The lines are those of ``csv.writer``'s excel dialect: cells joined by commas,
    each line ended by CRLF; a float (a subclass such as np.float64 too) written
    by float.__repr__, None as '', any other value by str; a cell that holds a
    comma, a quote, CR or LF quoted, its quotes doubled, and a line whose only
    cell is empty written '""'.  Each line is written as it is formatted.
    """
    with open(path, "w", newline="") as fh:
        fh.write(_csv_line(columns))
        for row in rows:
            fh.write(_csv_line(row if isinstance(row, list) else [row.get(col) for col in columns]))


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
    for name in OUTPUT_FILES:
        (out_dir / name).unlink(missing_ok=True)
    report: dict = {"config": cfg.raw, "master_seed": cfg.master_seed, "stages": {}}
    timings: dict = {}
    writes: dict = {}   # wall seconds per file written, timings.json aside
    spec = cfg.ocp_spec

    def write(writer, name: str, *content) -> None:
        start = time.perf_counter()
        writer(out_dir / name, *content)
        writes[name] = time.perf_counter() - start

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

    # The system is built with the config, so this stage cannot fail.
    sys_true = run_stage("system", lambda: make_system(cfg))
    report["system"] = system.system_to_json(sys_true)
    write(_write_json, "system.json", report["system"])

    traj = run_stage("simulate", lambda: _probe_and_simulate(cfg, sys_true))
    if traj is not None:
        write(_write_csv, "trajectory.csv", *system.trajectory_rows(traj))

    estimates = gw = None
    if traj is not None:
        out = run_stage("identify", lambda: _identify_all(cfg, sys_true, traj))
        if out is not None:
            estimates, gw = out
            delta = cfg.ident_settings.delta
            write(_write_json, "estimates.json",
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
            write(_write_csv, "tightening.csv", ("j", "k", "h_exact", "h_upper", "radius"),
                  report["tightening"]["rows"])

    sol_robust = None
    if table is not None:
        def _solve_robust():
            prog = ocp.build_robust_socp_multistep(
                estimates, spec, cfg.ident_settings.delta, gw, sys_true.sigma_w, table=table
            )
            write(_write_json, "program_robust.json", ocp.program_to_json(prog))
            return solver.solve(prog)

        sol_robust = run_stage("solve_robust", _solve_robust)
        if sol_robust is not None:
            report["robust_solution"] = solver.solution_to_json(sol_robust)
            write(_write_json, "solution_robust.json", report["robust_solution"])

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
            write(_write_csv, "violations_parametric.csv", columns,
                  report["certification"]["parametric"]["entries"])
            write(_write_csv, "violations_true.csv", columns,
                  report["certification"]["true_system"]["entries"])
            write(_write_csv, "tightening_vs_k.csv",
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
            write(_write_csv, "cost_vs_T.csv",
                  ("T", "seed", "status", "cost", "mean_param_scale"), sweeps[0])
            write(_write_csv, "violation_vs_p.csv",
                  ("p", "status", "worst_upper99", "budget"), sweeps[1])

    succeeded = [name for name, stage in report["stages"].items() if stage["ok"]]
    passed = (
        succeeded == list(requested)
        and ("solve_robust" not in requested or sol_robust.status == "Optimal")
        and ("reference" not in requested or ref[0].passed)
        and ("validate" not in requested or certified)
    )
    report["passed"] = passed
    write(_write_json, "report.json", report)
    timings["writes"] = writes
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

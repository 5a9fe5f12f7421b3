import csv
import json
from pathlib import Path

import numpy as np
import pytest

from mspc import validate
from mspc.cli import (PREFIX_COMMANDS, STAGES, cmd_pipeline, load_config, main, make_system,
                      parse_config)
from mspc.errors import ConfigError, DeltaTooSmall, DomainError, MspcError
from mspc.linalg import Rng
from mspc.system import random_system, system_to_json


def quick_config(**overrides):
    doc = {
        "system": {
            "inline": {
                "A": [[0.85, 0.25], [-0.12, 0.78]],
                "B": [[0.3], [1.0]],
                "E": [[1.0, 0.0], [0.0, 1.0]],
                "sigma_w": [[0.02, 0.0], [0.0, 0.02]],
                "sigma_eps": [[0.0001, 0.0], [0.0, 0.0001]],
            }
        },
        "identification": {"T": 120, "delta": 0.95, "covariance": "oracle"},
        "ocp": {
            "horizon": 4,
            "Q": [[1.0, 0.0], [0.0, 1.0]],
            "R": [[0.2]],
            "h_x": [[0.5, 0.0]],
            "u_min": [-2.0],
            "u_max": [2.0],
            "p": 0.9,
            "x0_mean": [1.2, 0.3],
            "sigma_x0": [[0.01, 0.0], [0.0, 0.01]],
        },
        "validation": {"margin": 0.01},
        "compare": {
            "n_scenarios": 4,
            "T_sweep": [80, 160],
            "sweep_seeds": 2,
            "p_sweep": [0.8, 0.9],
        },
        "master_seed": 11,
        "output_dir": "out",
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


def test_config_rejects_delta_below_p(tmp_path):
    doc = quick_config()
    doc["identification"]["delta"] = 0.85  # below p = 0.9
    with pytest.raises(DeltaTooSmall):
        parse_config(doc)
    path = write_config(tmp_path, doc)
    assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def set_value(*path_and_value):
    """Config text with ``value`` written at the nested key ``path``."""
    *path, value = path_and_value

    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return json.dumps(doc)

    return edit


def drop_inline(key):
    """Config text whose inline system lacks ``key``."""
    def edit(doc):
        del doc["system"]["inline"][key]
        return json.dumps(doc)

    return edit


def set_random(key, value):
    """Config text whose system is a seeded random draw with ``key`` set to ``value``."""
    return set_value("system", {"random": {"n": 2, "m": 1, "q": 2, "seed": 3, key: value}})


@pytest.mark.parametrize("edit, key", [
    (set_value("ocp", {"horizon": 3}), "Q"),                 # missing required keys
    (set_value("validation", {"n_sample": 10}), "n_sample"),  # unknown key (typo of n_samples)
    (lambda doc: None, "config.json"),                        # no such file
    (lambda doc: json.dumps(doc)[:-1], "JSONDecodeError"),    # invalid JSON
    (set_value("ocp", "horizon", "three"), "three"),          # value of the wrong type
    (set_value("master_seed", -1), "master_seed"),            # negative seed
    (set_value("validation", "master_seed", -1), "master_seed"),
    (set_value("identification", "k_max", "3"), "k_max"),    # a string, not an integer
    (set_value("identification", "k_max", 2.5), "k_max"),
    (set_value("identification", "k_max", 0), "k_max"),      # not "the horizon"
    (set_value("identification", "T", -5), "identification.T"),
    (set_value("identification", "force_zero_cov", "no"), "force_zero_cov"),
    (set_value("compare", "T_sweep", ["a"]), "T_sweep"),
    (set_value("compare", "T_sweep", [-5]), "T_sweep"),
    (set_value("compare", "p_sweep", ["x"]), "float"),
    (set_value("compare", "sweep_seeds", -1), "sweep_seeds"),
    (set_value("ocp", "horizon", 6.7), "ocp.horizon"),       # would run as 6
    (set_value("ocp", "horizon", 0), "ocp.horizon"),
    (set_value("validation", "n_samples", True), "n_samples"),  # would run as 1
    (set_value("validation", "n_samples", 0), "n_samples"),
    (set_value("validation", "master_seed", 1.5), "validation.master_seed"),
    (set_value("master_seed", "7"), "master_seed"),
    (set_value("compare", "n_scenarios", 2.9), "n_scenarios"),
    (set_value("compare", "sweep_samples", 0), "sweep_samples"),  # a removed key is unknown
    (set_value("ocp", "p", True), "ocp.p"),
    (set_value("identification", "delta", "0.95"), "identification.delta"),
    (set_value("identification", "input_std", False), "input_std"),
    (set_value("validation", "margin", "0.01"), "margin"),
    (set_value("compare", "p_sweep", [True, "0.7"]), "p_sweep"),  # would run as (1.0, 0.7)
    (set_random("n", 4.7), "system.random.n"),                # would run as 4
    (set_random("n", 0), "system.random.n"),
    (set_random("m", True), "system.random.m"),
    (set_random("q", "2"), "system.random.q"),
    (set_random("seed", True), "system.random.seed"),         # would run as seed 1
    (set_random("seed", -1), "system.random.seed"),
    (set_random("spectral_radius", "0.8"), "system.random.spectral_radius"),
    (set_random("sigma_w", "0.015"), "system.random.sigma_w"),
    (set_random("sigma_eps", False), "system.random.sigma_eps"),
    (set_value("identification", "structure", "FIR"), "identification.structure"),
    (set_value("identification", "covariance", "Oracle"), "identification.covariance"),
    (set_value("identification", "delta", float("nan")), "NaN"),   # json reads NaN and
    (set_value("identification", "input_std", float("inf")), "Infinity"),  # Infinity
    (set_value("ocp", "x0_mean", [float("nan")] * 2), "NaN"),
    (set_value("ocp", "h_x", [[0.5, float("-inf")]]), "-Infinity"),
    (set_value("ocp", "u_min", [float("nan")]), "NaN"),           # would drop the bound
    (set_value("validation", "margin", float("inf")), "Infinity"),  # would certify anything
    (lambda doc: json.dumps(doc).replace('"h_x": [[0.5, 0.0]]', '"h_x": [[0.5, 1e400]]'),
     "1e400"),                                                 # json reads inf
    (set_value("identification", "delta", 10**400), "OverflowError"),  # no float holds it
    (set_value("validation", "margin", 0.9), "validation.margin"),  # budget + margin = 1
    (drop_inline("sigma_w"), "sigma_w"),                      # was a KeyError traceback
    (set_value("system", "inline", "A", "x"), "system.inline.A"),  # was a ValueError traceback
    (set_value("system", "inline", "A", [[0.85, 0.25], [-0.12]]), "system.inline.A"),  # ragged
    (set_value("system", "inline", "B", [["0.3"], [1.0]]), "system.inline.B"),
    (set_value("system", "inline", "sigma_W", [[0.02, 0.0], [0.0, 0.02]]), "sigma_W"),  # typo
    (set_value("system", "random", {"n": 2, "m": 1, "q": 2}), "exactly one"),  # inline won
    (set_value("system", {}), "exactly one"),
    (set_value("ocp", "h_x", [["0.5", 0.0]]), "ocp.h_x"),        # would load as 0.5
    (set_value("ocp", "R", [[True]]), "ocp.R"),                   # would load as 1.0
    (set_value("ocp", "Q", [[1.0, 0.0], [0.0, "1"]]), "ocp.Q"),
    (set_value("ocp", "sigma_x0", [[0.01, 0.0], [0.0, False]]), "ocp.sigma_x0"),
    (set_value("ocp", "x0_mean", [1.2, "0.3"]), "ocp.x0_mean"),
    (set_value("ocp", "x0_mean", 1.2), "ocp.x0_mean"),           # not a list
    (set_value("ocp", "u_min", [True]), "ocp.u_min"),
    (set_value("ocp", "u_max", ["2"]), "ocp.u_max"),
    (set_value("ocp", "input_polytope", {"H": [["1"], [-1.0]], "h": [2.0, 2.0]}),
     "ocp.input_polytope.H"),
    (set_value("ocp", "input_polytope", {"H": [[1.0], [-1.0]], "h": [2.0, True]}),
     "ocp.input_polytope.h"),
    (set_value("identification", "x0_mean", [0.0, "0"]), "identification.x0_mean"),
    (set_value("identification", "sigma_x0", [[0.01, 0.0], [0.0, "0.01"]]),
     "identification.sigma_x0"),
    (set_value("output_dir", 5), "output_dir"),              # was a TypeError traceback
    (set_value("compare", "p_sweep", [0.8, -0.5]), "compare.p_sweep"),  # failed the sweeps stage
    (set_value("compare", "p_sweep", [1.5]), "compare.p_sweep"),  # was silently dropped
], ids=["missing", "unknown", "no_file", "bad_json", "bad_type", "negative_seed",
        "negative_validation_seed", "k_max_string", "k_max_fraction", "k_max_zero",
        "negative_T", "force_zero_cov_string", "T_sweep_string", "T_sweep_negative",
        "p_sweep_string", "negative_sweep_seeds", "horizon_fraction", "horizon_zero",
        "n_samples_bool", "n_samples_zero", "validation_seed_fraction", "seed_string",
        "n_scenarios_fraction", "sweep_samples_zero", "p_bool", "delta_string",
        "input_std_bool", "margin_string", "p_sweep_bool", "random_n_fraction",
        "random_n_zero", "random_m_bool", "random_q_string", "random_seed_bool",
        "random_seed_negative", "random_spectral_radius_string", "random_sigma_w_string",
        "random_sigma_eps_bool", "structure_typo", "covariance_typo", "delta_nan",
        "input_std_infinity", "x0_mean_nan", "h_x_minus_infinity", "u_min_nan",
        "margin_infinity", "float_overflow", "int_overflow", "margin_at_p",
        "inline_missing_sigma_w", "inline_string_matrix", "inline_ragged_matrix",
        "inline_string_entry", "inline_unknown_key", "inline_and_random", "no_system",
        "h_x_string_entry", "R_bool_entry", "Q_string_entry", "sigma_x0_bool_entry",
        "x0_mean_string_entry", "x0_mean_scalar", "u_min_bool_entry", "u_max_string_entry",
        "polytope_H_string_entry", "polytope_h_bool_entry", "ident_x0_mean_string_entry",
        "ident_sigma_x0_string_entry", "output_dir_number", "p_sweep_negative",
        "p_sweep_above_one"])
def test_config_rejects_missing_and_unknown_keys(tmp_path, capsys, edit, key):
    text = edit(quick_config())
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError, match=key):
        load_config(path)
    assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")
    assert not (tmp_path / "o").exists()


def scalar_with_system(system_doc):
    doc = json.loads((Path(__file__).resolve().parents[1] / "configs" / "scalar.json")
                     .read_text())
    doc["system"] = system_doc
    return doc


@pytest.mark.parametrize("doc, error", [
    (scalar_with_system({"inline": {"A": [[0.7]], "B": [[1.0]], "E": [[1.0]],
                                    "sigma_w": [[-0.04]], "sigma_eps": [[0.0001]]}}),
     "IndefiniteMatrix"),
    (scalar_with_system({"random": {"n": 1, "m": 1, "q": 1, "spectral_radius": -1}}),
     "DomainError"),
], ids=["inline_indefinite_sigma_w", "random_negative_spectral_radius"])
def test_system_errors_surface_at_load(tmp_path, capsys, doc, error):
    # The system is built as the config is read, so a system that its
    # constructor rejects stops the run before any stage or output.
    path = write_config(tmp_path, doc)
    with pytest.raises(MspcError) as info:
        load_config(path)
    assert type(info.value).__name__ == error and not isinstance(info.value, ConfigError)
    assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"config error: {error}: ")
    assert not (tmp_path / "o").exists()


def test_config_defaults():
    # Every optional key of a minimal config takes the default of its table row.
    doc = {
        "system": {"random": {"n": 2, "m": 1, "q": 2}},
        "identification": {"T": 50, "delta": 0.95},
        "ocp": {"horizon": 3, "Q": [[1, 0], [0, 1]], "R": [[1]], "p": 0.9},
    }
    cfg = parse_config(doc)
    drawn = random_system(2, 1, 2, 0.9, Rng(0), sigma_w=0.1, sigma_eps=0.0)
    assert system_to_json(make_system(cfg)) == system_to_json(drawn)
    ident_settings = cfg.ident_settings
    assert (ident_settings.structure, ident_settings.covariance, ident_settings.input_std) == (
        "full", "oracle", 1.0)
    spec = cfg.ocp_spec
    assert spec.h_x.shape == (0, 2) and spec.u_set is None
    for init in (ident_settings.init, spec.init):
        assert np.array_equal(init.mean, np.zeros(2)) and np.array_equal(init.cov, np.zeros((2, 2)))
    assert (cfg.validation.n_samples, cfg.validation.master_seed, cfg.validation.margin) == (
        100_000, 0, 0.01)
    assert (cfg.compare.n_scenarios, cfg.compare.T_sweep, cfg.compare.sweep_seeds,
            cfg.compare.p_sweep) == (64, (100, 200, 400), 3, (0.6, 0.75, 0.9))
    assert (cfg.master_seed, cfg.output_dir, cfg.raw) == (0, "out", doc)


@pytest.mark.parametrize("flags", [
    ["--seed", "-1"],     # negative master seed
], ids=["seed_negative"])
def test_override_flags_rejected(tmp_path, capsys, flags):
    # A bad flag is a config error before any stage runs, as the same value
    # in the config file is.
    path = write_config(tmp_path, quick_config())
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(path), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("out", ["a_file", "a_file/sub"], ids=["file", "under_file"])
def test_unusable_out_dir_rejected(tmp_path, capsys, out):
    path = write_config(tmp_path, quick_config())
    (tmp_path / "a_file").write_text("not a directory\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("output error: ")
    assert (tmp_path / "a_file").read_text() == "not a directory\n"


def test_simulate_deterministic_and_shapes(tmp_path):
    doc = quick_config()
    doc["identification"]["T"] = 100
    cfg = parse_config(doc)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cmd_pipeline(cfg, out1, "simulate")
    cmd_pipeline(cfg, out2, "simulate")
    b1 = (out1 / "trajectory.csv").read_bytes()
    b2 = (out2 / "trajectory.csv").read_bytes()
    assert b1 == b2
    lines = b1.decode().strip().splitlines()
    assert len(lines) == 102  # header + 101 rows for T = 100
    with open(out1 / "trajectory.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    t_len, n = len(rows) - 1, sum(col.startswith("xt") for col in header)
    assert t_len == 100 and n == 2


def test_identify_writes_estimates(tmp_path):
    cfg = parse_config(quick_config())
    report, ok = cmd_pipeline(cfg, tmp_path, "identify")
    assert ok
    docs = json.loads((tmp_path / "estimates.json").read_text())
    assert [d["k"] for d in docs] == [1, 2, 3, 4]
    assert docs[0]["dof"] == 2 * 2 + 2 * 1  # n^2 + n k m at k = 1
    # The report holds each estimate's health, not a second copy of it.
    health = report["identification_health"]
    assert [h["k"] for h in health] == [1, 2, 3, 4]
    assert [h["dof"] for h in health] == [d["dof"] for d in docs]
    for h, d in zip(health, docs):
        assert h["projected_rank"] == d.get("projected_rank")
        assert h["sqrt_trace_cov"] == pytest.approx(np.sqrt(np.trace(d["cov"])), rel=1e-12)
        assert h["radius"] > 0.0


@pytest.mark.parametrize("singular", [False, True])
def test_identification_health_reports_conditioning_and_projection(tmp_path, singular):
    # With no process noise and measurement noise on one state only, the
    # stacked residuals depend on T + 1 scalars: every k takes the
    # eigen-projection path and keeps rank T + 1.
    doc = quick_config()
    if singular:
        doc["system"]["inline"]["sigma_w"] = [[0.0, 0.0], [0.0, 0.0]]
        doc["system"]["inline"]["sigma_eps"] = [[0.0001, 0.0], [0.0, 0.0]]
    report, ok = cmd_pipeline(parse_config(doc), tmp_path, "identify")
    assert ok
    docs = json.loads((tmp_path / "estimates.json").read_text())
    expected_rank = doc["identification"]["T"] + 1 if singular else None
    for health, est in zip(report["identification_health"], docs):
        assert health["projected_rank"] == est.get("projected_rank") == expected_rank
        # The information matrix is the inverse of the parameter covariance.
        assert health["information_condition"] == pytest.approx(np.linalg.cond(est["cov"]),
                                                                rel=1e-6)
        assert health["information_condition"] >= 1.0


def test_samples_flag_is_gone(tmp_path, capsys):
    # Certification samples nothing, so there is no sample count to override.
    path = write_config(tmp_path, quick_config())
    with pytest.raises(SystemExit) as exit_info:
        main(["pipeline", "--config", str(path), "--out", str(tmp_path / "o"), "--samples", "9"])
    assert exit_info.value.code == 2
    assert "--samples" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def binding_config():
    """A two-state design whose robust program has an active cone row.

    It starts far from the origin (x0_mean (1.5, 2.0)), with h_x = diag(0.6,
    0.45), a costly input (R = 2) and a horizon of 32 steps.
    """
    doc = quick_config()
    doc["identification"]["T"] = 400
    doc["ocp"].update(horizon=32, R=[[2.0]], x0_mean=[1.5, 2.0],
                      h_x=[[0.6, 0.0], [0.0, 0.45]])
    doc["master_seed"] = 202
    return doc


def test_binding_constraint_certified_with_exact_probability(tmp_path):
    report, ok = cmd_pipeline(parse_config(binding_config()), tmp_path)
    assert ok and report["certification"]["certified"]
    # The active cone row enters the solve in a later round than the first.
    robust = report["robust_solution"]
    assert robust["status"] == "Optimal" and robust["rounds"] >= 2 and not robust["fallback"]
    rows = report["certification"]["rows"]
    active = [row for row in rows if row["slack"] <= 1e-6]
    assert active
    budget = report["certification"]["budget"]
    entries = {(e["j"], e["k"]): e for e in report["certification"]["parametric"]["entries"]}
    for row in active:
        entry = entries[(row["j"], row["k"])]
        assert (row["rate"], row["upper99"]) == (entry["rate"], entry["upper99"])
        # An exact probability with a small bound, well inside the budget:
        # how conservative the tightening is where it binds.
        assert 0.0 < row["upper99"] - row["rate"] <= 1e-12
        assert 1e-2 < row["rate"] < 0.5 * budget


@pytest.mark.parametrize("name", ["scalar", "two_state", "four_state"])
def test_demo_solves_take_one_round_without_iterations(tmp_path, name):
    # No row is active at either optimum: the first round, the unconstrained
    # minimum, already satisfies every row, so no interior-point iteration runs.
    config = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    _, ok = cmd_pipeline(load_config(config), tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    assert ok and report["certification"]["certified"]
    for key in ("robust_solution", "nominal_on_estimated_model"):
        sol = report[key]
        assert sol["status"] == "Optimal", key
        assert (sol["rounds"], sol["iterations"], sol["fallback"]) == (1, 0, False), key


def test_pipeline_passes_and_echoes_config(tmp_path):
    doc = quick_config()
    cfg = parse_config(doc)
    report, ok = cmd_pipeline(cfg, tmp_path)
    assert ok
    assert report["passed"]
    assert report["config"] == doc
    assert report["certification"]["certified"]
    for fname in (
        "report.json", "timings.json", "trajectory.csv", "estimates.json",
        "tightening.csv", "program_robust.json", "solution_robust.json",
        "violations_parametric.csv", "violations_true.csv", "system.json",
    ):
        assert (tmp_path / fname).exists(), fname
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["config"] == doc


def test_pipeline_byte_identical_reruns(tmp_path):
    cfg = parse_config(quick_config())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    cmd_pipeline(cfg, out1)
    cmd_pipeline(cfg, out2)
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "violations_parametric.csv").read_bytes() == (
        out2 / "violations_parametric.csv"
    ).read_bytes()


def test_delta_one_rejected():
    # delta = 1 leaves no parameter uncertainty to robustify against: the
    # robust program would be the reference stage's nominal one.
    for delta in (1.0, 1.5):
        doc = quick_config()
        doc["identification"]["delta"] = delta
        with pytest.raises(DomainError, match="below 1"):
            parse_config(doc)


def plugin_two_state():
    doc = json.loads((Path(__file__).resolve().parents[1] / "configs" / "two_state.json")
                     .read_text())
    doc["identification"]["covariance"] = "plugin"
    return doc


def polytope_inputs():
    doc = quick_config()
    del doc["ocp"]["u_min"], doc["ocp"]["u_max"]
    doc["ocp"]["input_polytope"] = {"H": [[1.0], [-1.0]], "h": [2.0, 2.0]}
    return doc


def unbounded_inputs():
    doc = quick_config()
    del doc["ocp"]["u_min"], doc["ocp"]["u_max"]
    return doc


@pytest.mark.parametrize("make_doc", [plugin_two_state, polytope_inputs, unbounded_inputs],
                         ids=["plugin_two_state", "input_polytope", "no_input_bounds"])
def test_pipeline_config_variants_pass(tmp_path, make_doc):
    report, ok = cmd_pipeline(parse_config(make_doc()), tmp_path)
    assert ok, report["stages"]
    assert report["robust_solution"]["status"] == "Optimal"
    assert report["certification"]["certified"]


@pytest.fixture(scope="module")
def full_pipeline_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("full")
    path = write_config(tmp, quick_config())
    assert main(["pipeline", "--config", str(path), "--out", str(tmp / "out")]) == 0
    return tmp / "out"


@pytest.mark.parametrize("command", ["simulate", "identify", "solve"])
def test_prefix_subcommands_match_pipeline(tmp_path, full_pipeline_dir, command):
    path = write_config(tmp_path, quick_config())
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    last = PREFIX_COMMANDS[command]
    assert list(report["stages"]) == list(STAGES[: STAGES.index(last) + 1])
    assert report["passed"]
    # The prefix report is the full report cut after the prefix's last stage.
    full_report = json.loads((full_pipeline_dir / "report.json").read_text())
    for key, value in report.items():
        if key not in ("stages", "passed"):
            assert value == full_report[key], key
    for written in out.iterdir():
        if written.name not in ("report.json", "timings.json"):
            assert written.read_bytes() == (full_pipeline_dir / written.name).read_bytes(), (
                written.name
            )


def test_identify_failure_is_recorded_not_raised(tmp_path, capsys):
    doc = quick_config()
    doc["identification"]["T"] = 5  # far too short: identification must fail
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["identify", "--config", str(path), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["stages"]["identify"]["ok"] is False
    assert report["stages"]["identify"]["error"].startswith("InsufficientData")
    assert not report["passed"]
    assert "Traceback" not in capsys.readouterr().err


@pytest.fixture(scope="module")
def full_compare_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("compare")
    path = write_config(tmp, quick_config())
    assert main(["compare", "--config", str(path), "--out", str(tmp / "out")]) == 0
    return tmp / "out"


def test_compare_outputs(full_compare_dir):
    cfg = parse_config(quick_config())
    doc = json.loads((full_compare_dir / "report.json").read_text())
    assert doc["passed"]
    assert list(doc["stages"]) == list(STAGES)
    assert doc["equivalence_true_system"]["passed"]
    lines = (full_compare_dir / "tightening_vs_k.csv").read_text().strip().splitlines()
    n_rows = len(json.loads(json.dumps(cfg.raw))["ocp"]["h_x"])
    assert len(lines) == 1 + cfg.ocp_spec.horizon * n_rows
    cost_lines = (full_compare_dir / "cost_vs_T.csv").read_text().strip().splitlines()
    assert len(cost_lines) == 1 + 2 * 2  # T_sweep x sweep_seeds
    assert (full_compare_dir / "violation_vs_p.csv").exists()
    assert doc["scenario_baseline"]["status"] == "Optimal"
    assert doc["scenario_baseline"]["robust_cost"] == doc["robust_solution"]["objective"]
    assert not (full_compare_dir / "compare.json").exists()


def test_compare_extends_pipeline(full_pipeline_dir, full_compare_dir):
    # compare runs the pipeline's stages unchanged and only adds to them.
    pipeline_report = json.loads((full_pipeline_dir / "report.json").read_text())
    compare_report = json.loads((full_compare_dir / "report.json").read_text())
    for key, value in pipeline_report.items():
        if key not in ("stages", "passed"):
            assert compare_report[key] == value, key
    for written in full_pipeline_dir.iterdir():
        if written.name not in ("report.json", "timings.json"):
            assert written.read_bytes() == (full_compare_dir / written.name).read_bytes(), (
                written.name
            )


def test_pipeline_certifies_both_truths_exactly(tmp_path, monkeypatch):
    # One exact law serves both truths: the estimated model, which is
    # certified, and the true system beside it.  Nothing is sampled.
    truths = []
    exact = validate.exact_violation

    def counting(truth, *args):
        truths.append(truth)
        return exact(truth, *args)

    monkeypatch.setattr(validate, "exact_violation", counting)
    report, ok = cmd_pipeline(parse_config(quick_config()), tmp_path)
    assert ok
    assert [type(t).__name__ for t in truths] == ["EstimatedModel", "LinearSystem"]
    certification = report["certification"]
    for name in ("parametric", "true_system"):
        rep = certification[name]
        assert list(rep) == ["entries"]
        assert [(e["k"], e["j"]) for e in rep["entries"]] == [(k, 0) for k in range(5)]
        assert all(list(e) == ["j", "k", "rate", "upper99"] for e in rep["entries"])
        assert all(e["rate"] <= e["upper99"] <= 1.0 for e in rep["entries"])
        worst = max(e["upper99"] for e in rep["entries"])
        assert certification[f"worst_upper99_{name}"] == worst
    # The estimate's parameter uncertainty gives its k >= 1 rows a bound.
    assert any(e["upper99"] > e["rate"] for e in certification["parametric"]["entries"])


def test_timings_record_exact_certification(full_pipeline_dir):
    timings = json.loads((full_pipeline_dir / "timings.json").read_text())
    exact = timings["validate_exact"]
    assert set(exact) == {"parametric_s", "true_system_s"}
    assert exact["parametric_s"] > 0.0 and exact["true_system_s"] > 0.0


def test_stage_files_hold_report_values(tmp_path):
    # Each stage file is written from the value report.json holds: JSON
    # indented by two spaces with a final newline, or one CSV line per entry.
    # The scalar demo's two violation reports differ, so a swap would show.
    cmd_pipeline(load_config(Path(__file__).resolve().parents[1] / "configs" / "scalar.json"),
                 tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["certification"]["parametric"] != report["certification"]["true_system"]
    estimates = json.loads((tmp_path / "estimates.json").read_text())
    assert [e["k"] for e in estimates] == [h["k"] for h in report["identification_health"]]
    for name, value in (("report.json", report), ("system.json", report["system"]),
                        ("estimates.json", estimates),
                        ("solution_robust.json", report["robust_solution"])):
        assert (tmp_path / name).read_text() == json.dumps(value, indent=2) + "\n"
    for name, entries in (
        ("tightening.csv", report["tightening"]["rows"]),
        ("violations_parametric.csv", report["certification"]["parametric"]["entries"]),
        ("violations_true.csv", report["certification"]["true_system"]["entries"]),
    ):
        with open(tmp_path / name, newline="") as fh:
            lines = list(csv.reader(fh))
        assert lines == [list(entries[0])] + [[repr(v) for v in e.values()] for e in entries]


def test_pipeline_reports_certificate_gap(full_pipeline_dir):
    tightening = json.loads((full_pipeline_dir / "report.json").read_text())["tightening"]
    assert abs(tightening["max_certificate_gap"]) <= 1e-12


def test_pipeline_certification_rows_match_violation_csv(full_pipeline_dir):
    report = json.loads((full_pipeline_dir / "report.json").read_text())
    rows = report["certification"]["rows"]
    with open(full_pipeline_dir / "violations_parametric.csv") as fh:
        upper = {(int(r["j"]), int(r["k"])): float(r["upper99"]) for r in csv.DictReader(fh)}
    with open(full_pipeline_dir / "tightening_vs_k.csv") as fh:
        table = list(csv.DictReader(fh))
    assert len(rows) == len(table) == 4  # one row, horizon 4
    for row, line in zip(rows, table):
        assert row["upper99"] == upper[(row["j"], row["k"])]
        assert row["slack"] == (
            1.0 - row["nominal_backoff"] - row["parametric_term"] - row["mean_value"]
        )
        assert row["slack"] >= -1e-8
        assert [float(line[col]) for col in ("h_exact", "h_upper", "parametric_term",
                                             "upper99")] == [
            row["h_exact"], row["h_upper"], row["parametric_term"], row["upper99"]
        ]


def test_compare_insufficient_data_exits_2(tmp_path, capsys):
    doc = quick_config()
    doc["identification"]["T"] = 5  # far too short: identification must fail
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(path), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["stages"]["identify"]["error"].startswith("InsufficientData")
    assert not report["passed"]
    assert "Traceback" not in capsys.readouterr().err


def test_main_pipeline_exit_code(tmp_path):
    path = write_config(tmp_path, quick_config())
    code = main(["pipeline", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0


def test_compare_param_terms_shrink_with_more_data(tmp_path):
    doc = quick_config()
    doc["compare"]["T_sweep"] = [60, 400]
    doc["compare"]["sweep_seeds"] = 3
    cfg = parse_config(doc)
    cmd_pipeline(cfg, tmp_path, last="sweeps")
    rows = json.loads((tmp_path / "report.json").read_text())["cost_vs_T"]
    med = {}
    for t_len in (60, 400):
        med[t_len] = float(np.median([
            r["mean_param_scale"] for r in rows if r["T"] == t_len
        ]))
    assert med[400] < med[60]


def test_pipeline_stage_failure_keeps_partial_artifacts(tmp_path):
    doc = quick_config()
    doc["identification"]["T"] = 5  # far too short: identification must fail
    cfg = parse_config(doc)
    report, ok = cmd_pipeline(cfg, tmp_path)
    assert not ok
    assert not report["passed"]
    assert report["stages"]["identify"]["ok"] is False
    assert "error" in report["stages"]["identify"]
    # Earlier artifacts are retained, the report itself is written.
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "system.json").exists()
    assert (tmp_path / "report.json").exists()
    assert not (tmp_path / "solution_robust.json").exists()


def fir_config():
    doc = quick_config()
    # FIR-true plant: the one-step map has no state feedback.
    doc["system"]["inline"] = {
        "A": [[0.0, 0.0], [0.0, 0.0]],
        "B": [[0.6], [1.0]],
        "E": [[1.0, 0.0], [0.0, 1.0]],
        "sigma_w": [[0.01, 0.0], [0.0, 0.01]],
        "sigma_eps": [[0.0004, 0.0], [0.0, 0.0004]],
    }
    doc["identification"]["structure"] = "fir"
    doc["ocp"]["x0_mean"] = [0.8, 0.2]
    doc["ocp"]["h_x"] = [[0.6, 0.0]]
    return doc


def test_pipeline_fir_structure_end_to_end(tmp_path):
    cfg = parse_config(fir_config())
    report, ok = cmd_pipeline(cfg, tmp_path)
    assert ok, report["stages"]
    assert report["certification"]["certified"]
    ests = json.loads((tmp_path / "estimates.json").read_text())
    assert all(d["structure"] == "fir" for d in ests)
    assert ests[0]["dof"] == 2  # n * k * m at k = 1


def test_compare_fir_scenario_records_domain_error(tmp_path, capsys):
    # The scenario baseline needs a one-step full-structure estimate.
    path = write_config(tmp_path, fir_config())
    out = tmp_path / "out"
    assert main(["compare", "--config", str(path), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["stages"]["scenario"]["error"].startswith("DomainError")
    assert "scenario_baseline" not in report
    assert report["stages"]["sweeps"] == {"ok": True}
    assert [r["T"] for r in report["cost_vs_T"]] == [80, 80, 160, 160]
    assert (out / "cost_vs_T.csv").exists() and (out / "violation_vs_p.csv").exists()
    assert report["certification"]["certified"] and not report["passed"]
    assert "Traceback" not in capsys.readouterr().err

"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from mspc import cli, ident, linalg, ocp, solver, system, validate
from perfbench import checks, metrics, tracing, worker, workloads

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "ident_long": ["T=200", "n_samples=2000"],
    "mc_certify": ["T=200", "n_samples=2000"],
    "design_sweep": ["T=200", "horizon=4"],
}
LAYER_MODULES = {
    "cli": cli, "system": system, "ident": ident, "ocp": ocp,
    "solver": solver, "validate": validate, "linalg": linalg,
}


def _run_cli(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace),
           *(f"--set={item}" for item in TINY[workload])]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _run_worker(workload: str, trace: int, extra: tuple = ()) -> dict:
    """One unit: the worker runs a unit before it checks the deadline."""
    args = argparse.Namespace(
        workload=workload, seed=3, seconds=0.0, trace=trace,
        setup_only=False, set=[*TINY.get(workload, []), *extra],
    )
    return worker.run(args)


def _namespaces() -> dict:
    return {
        (module.__name__, attr): value
        for module in tracing.mspc_modules() for attr, value in vars(module).items()
    }


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", ["ident_long", "design_sweep"])
def test_every_named_metric_is_printed_with_its_unit(workload, trace, section):
    result = _run_cli(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_declared_per_layer_metrics_match_the_harness():
    declared = [(m["name"], m["unit"]) for m in BENCH["per_layer"]]
    assert declared == [(name, unit) for name, unit, _ in metrics.PER_LAYER]


def test_spans_nest_and_self_time_is_nonnegative(tmp_path):
    patcher = tracing.Patcher()
    tracer = tracing.Tracer(metrics.make_counters(validate))
    tracer.install(patcher, LAYER_MODULES)
    try:
        workload = workloads.WORKLOADS["design_sweep"]
        cfg = workloads.load(workload, {"T": 200, "horizon": 3})
        sys_true = cli.make_system(cfg)
        with tracer.unit():
            workloads.run_unit(workload, workloads.with_seeds(cfg, 1, 0), sys_true, tmp_path)
    finally:
        patcher.restore()
    spans = tracer.spans
    names = {span.name for span in spans}
    assert {"ident.estimate_predictor", "solver.solve", "linalg.max_norm_affine_over_ball",
            "ocp.build_tightening_table"} <= names
    for span in spans:
        assert span.start <= span.end
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    assert min(tracing.self_times(spans)) >= -1e-9
    root, end = tracer.units[0]
    assert spans[root].name == "bench.unit" and end == len(spans)


def test_wrappers_restore_the_original_functions():
    before = _namespaces()
    original_solve = validate.solve
    patcher = tracing.Patcher()
    tracing.Recorder().install(patcher, {"solver.solve": solver.solve})
    tracing.Tracer().install(patcher, LAYER_MODULES)
    assert validate.solve is not original_solve
    assert ocp.max_norm_affine_over_ball is not linalg.max_norm_affine_over_ball
    patcher.restore()
    assert _namespaces() == before


def test_report_is_byte_identical_with_tracing_on_and_off(tmp_path):
    workload = workloads.WORKLOADS["ident_long"]
    cfg = workloads.with_seeds(workloads.load(workload, {"T": 200, "n_samples": 2000}), 5, 0)
    cli.cmd_pipeline(cfg, tmp_path / "plain")
    patcher = tracing.Patcher()
    tracer = tracing.Tracer(metrics.make_counters(validate))
    tracer.install(patcher, LAYER_MODULES)
    try:
        with tracer.unit():
            cli.cmd_pipeline(cfg, tmp_path / "traced")
    finally:
        patcher.restore()
    assert len(tracer.spans) > 100
    plain = (tmp_path / "plain" / "report.json").read_bytes()
    assert plain == (tmp_path / "traced" / "report.json").read_bytes()


def test_counts_repeat_exactly_for_a_seed():
    counts = [name for name, _, how in metrics.PER_LAYER if how == "count"]
    first = _run_worker("mc_certify", trace=1)["layers"]
    second = _run_worker("mc_certify", trace=1)["layers"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["validate.samples"] == 4000 and first["validate.batches"] == 2
    assert first["validate.param_draw_flops"] > 0 and first["ident.estimates"] == 6


def test_a_failing_unit_is_counted_and_the_run_goes_on():
    # Certification needs at least 1000 samples, so every unit fails its checks.
    result = _run_worker("ident_long", trace=0, extra=("n_samples=10",))
    assert result["attempted"] == 1 and result["failed"] == 1
    assert "did not pass" in result["problems"][0]["problems"][0]


def test_checks_catch_broken_solves_and_tightening():
    workload = workloads.WORKLOADS["design_sweep"]
    cfg = workloads.with_seeds(workloads.load(workload, {"T": 200, "horizon": 3}), 2, 0)
    sys_true = cli.make_system(cfg)
    estimates, gw = cli._identify_all(cfg, sys_true, cli._probe_and_simulate(cfg, sys_true))
    spec, delta = cfg.ocp_spec, 0.95
    args = (spec, estimates, gw, sys_true.sigma_w, delta)
    table = ocp.build_tightening_table(*args)
    assert checks.check_tightening(ocp, [(args, {}, table)]) == []
    squeezed = replace(table, h_upper={key: 0.5 * v for key, v in table.h_upper.items()})
    assert len(checks.check_tightening(ocp, [(args, {}, squeezed)])) == len(table.h_exact)

    prog = ocp.build_robust_socp_multistep(estimates, spec, delta, gw, sys_true.sigma_w, table=table)
    sol = solver.solve(prog)
    assert checks.check_solves(solver, [((prog,), {}, sol)]) == []
    # The reported residuals are ignored: a moved primal point fails the recomputed ones.
    moved = replace(sol, primal=sol.primal + 1.0)
    stalled = replace(sol, status="IterationLimit")
    assert len(checks.check_solves(solver, [((prog,), {}, moved), ((prog,), {}, stalled)])) == 2

    assert checks.check_report({"passed": True, "certification": {"certified": True},
                                "equivalence_true_system": {"passed": True}}) == []
    assert len(checks.check_report({"passed": False, "stages": {}})) == 3

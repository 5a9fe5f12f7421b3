"""Per-layer metric names, units and how each is derived from a traced run.

End-to-end metrics (``setup_s``, ``run_s``, ``peak_rss_mb``) come from
untraced runs and are assembled in ``run.py``.  Per-layer metrics come from a
traced run: times are medians over its units, and counts are taken from the
first unit, whose inputs depend on the workload seed alone, so a count
repeats exactly from run to run whatever the number of units.  Byte and
flop counts are computed from array sizes, not read from hardware counters.
"""

from __future__ import annotations

import statistics

from .tracing import LAYERS, Span, self_times

# Layers whose self time is reported; "bench" is the harness's own time in units.
SELF_TIME_LAYERS = (*LAYERS, "bench")
_SOLVE_KINDS = ("robust", "nominal", "scenario")
_MODES = ("noise_only", "noise_and_parameters")

# (name, unit, how): "time" is a median over units, "count" comes from the
# first unit, "setup" is measured once before the first unit.
PER_LAYER = (
    ("cli.load_config.s", "s", "setup"),
    ("cli.make_system.s", "s", "setup"),
    ("cli.cmd_pipeline.self_s", "s", "time"),
    ("cli.output_bytes", "bytes", "count"),
    ("system.simulate.s", "s", "time"),
    ("system.build_multistep.s", "s", "time"),
    ("ident.build_regression.s", "s", "time"),
    ("ident.residual_covariance.s", "s", "time"),
    ("ident.mle_estimate.s", "s", "time"),
    ("ident.estimate_predictor.self_s", "s", "time"),
    ("ident.rows", "count", "count"),
    ("ident.dof", "count", "count"),
    ("ident.estimates", "count", "count"),
    ("ident.projection_fallbacks", "count", "count"),
    ("ident.cov_dense_bytes", "bytes", "count"),
    ("ident.regressor_bytes", "bytes", "count"),
    ("ocp.build_tightening_table.s", "s", "time"),
    ("ocp.tightening_pairs", "count", "count"),
    ("linalg.max_norm_affine_over_ball.s", "s", "time"),
    ("linalg.max_norm_affine_over_ball.calls", "count", "count"),
    ("linalg.chi2_quantile.s", "s", "time"),
    ("linalg.chi2_quantile.calls", "count", "count"),
    ("ocp.build_robust_socp_multistep.s", "s", "time"),
    ("ocp.formulate_minmax_statespace.s", "s", "time"),
    ("ocp.build_nominal_qp_multistep.s", "s", "time"),
    ("ocp.save_program.s", "s", "time"),
    ("ocp.soc_rows", "count", "count"),
    ("ocp.cone_dim", "count", "count"),
    *((f"solver.solve.s.{kind}", "s", "time") for kind in _SOLVE_KINDS),
    *((f"solver.iterations.{kind}", "count", "count") for kind in _SOLVE_KINDS),
    *((f"solver.s_per_iteration.{kind}", "s", "time") for kind in _SOLVE_KINDS),
    ("solver.check_kkt.s", "s", "time"),
    ("solver.not_optimal", "count", "count"),
    ("solver.kkt_max", "1", "count"),
    *((f"validate.estimate_violation.s.{mode}", "s", "time") for mode in _MODES),
    *((f"validate.samples_per_s.{mode}", "1/s", "time") for mode in _MODES),
    ("validate.samples", "count", "count"),
    ("validate.batches", "count", "count"),
    ("validate.param_draw_flops", "flop", "count"),
    ("validate.equivalence_check.s", "s", "time"),
    ("validate.worst_upper99", "1", "count"),
    *((f"{layer}.self_s", "s", "time") for layer in SELF_TIME_LAYERS),
    ("trace.run_s", "s", "time"),
    ("trace.spans", "count", "count"),
)


# ---------------------------------------------------------------------------
# Counters: attributes taken from a traced call's arguments and result
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _array_bytes(obj) -> int:
    """Bytes of the numpy arrays an object stores in its fields."""
    fields = getattr(obj, "__dataclass_fields__", None) or vars(obj)
    return sum(getattr(getattr(obj, f), "nbytes", 0) for f in fields)


def _solve_kind(prog) -> str:
    kind = str(prog.variable_map.get("kind", ""))
    if kind.startswith("robust"):
        return "robust"
    if kind.startswith("minmax"):
        return "scenario"
    return "nominal"


def make_counters(validate_module) -> dict:
    """Counters for the traced run; ``validate_module`` supplies the batch size."""

    def regression(args, kwargs, reg):
        return {"rows": reg.rows, "dof": reg.dof, "regressor_bytes": int(reg.regressor.nbytes)}

    def covariance(args, kwargs, cov):
        return {"bytes": _array_bytes(cov)}

    def estimate(args, kwargs, est):
        return {"fallback": int(est.projected_rank is not None)}

    def tightening(args, kwargs, table):
        return {"pairs": len(table.h_exact)}

    def robust(args, kwargs, prog):
        return {
            "soc_rows": len(prog.soc_rows),
            "cone_dim": sum(row.f_mat.shape[0] + 1 for row in prog.soc_rows),
        }

    def solve(args, kwargs, sol):
        return {
            "kind": _solve_kind(_arg(args, kwargs, 0, "prog")),
            "iterations": int(sol.iterations),
            "optimal": int(sol.status == "Optimal"),
            "kkt_max": sol.kkt.max() if sol.kkt is not None else 0.0,
        }

    def violation(args, kwargs, report):
        samples = int(report.n_samples)
        # The sampler's batch size is module-private; 0 batches means it is gone.
        batch = getattr(validate_module, "_BATCH", 0)
        flops = 0
        if report.mode == "noise_and_parameters":
            # theta_k = theta_hat_k + L_k xi costs 2 dof_k^2 per sample and step.
            horizon = _arg(args, kwargs, 2, "spec").horizon
            truth = _arg(args, kwargs, 0, "truth")
            flops = samples * sum(2 * est.dof ** 2 for est in truth.estimates[:horizon])
        return {
            "mode": report.mode,
            "samples": samples,
            "batches": -(-samples // batch) if batch else 0,
            "flops": flops,
            "worst_upper99": float(report.worst_upper99),
        }

    return {
        "ident.build_regression": regression,
        "ident.residual_covariance": covariance,
        "ident.estimate_predictor": estimate,
        "ocp.build_tightening_table": tightening,
        "ocp.build_robust_socp_multistep": robust,
        "solver.solve": solve,
        "validate.estimate_violation": violation,
    }


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _has_same_name_ancestor(spans: "list[Span]", index: int) -> bool:
    name = spans[index].name
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def unit_values(spans: "list[Span]", own: "list[float]", root: int, end: int,
                extras: dict) -> dict:
    """Every per-layer value of one unit, from the spans in ``[root, end)``."""
    v: dict = {name: 0.0 for name, _, how in PER_LAYER if how != "setup"}
    v["trace.run_s"] = spans[root].duration
    v["trace.spans"] = end - root
    v["cli.output_bytes"] = extras.get("output_bytes", 0)
    incl: dict = {}
    calls: dict = {}
    span_self: dict = {}
    kind_s = {kind: 0.0 for kind in _SOLVE_KINDS}
    kind_it = {kind: 0 for kind in _SOLVE_KINDS}
    mode_s = {mode: 0.0 for mode in _MODES}
    mode_n = {mode: 0 for mode in _MODES}
    for i in range(root, end):
        span = spans[i]
        layer = span.name.split(".", 1)[0]
        v[f"{layer}.self_s"] += own[i]
        span_self[span.name] = span_self.get(span.name, 0.0) + own[i]
        calls[span.name] = calls.get(span.name, 0) + 1
        if not _has_same_name_ancestor(spans, i):
            incl[span.name] = incl.get(span.name, 0.0) + span.duration
        a = span.attrs
        if a is None:
            continue
        if span.name == "ident.build_regression":
            v["ident.rows"] += a["rows"]
            v["ident.dof"] += a["dof"]
            v["ident.regressor_bytes"] = max(v["ident.regressor_bytes"], a["regressor_bytes"])
        elif span.name == "ident.residual_covariance":
            v["ident.cov_dense_bytes"] = max(v["ident.cov_dense_bytes"], a["bytes"])
        elif span.name == "ident.estimate_predictor":
            v["ident.projection_fallbacks"] += a["fallback"]
        elif span.name == "ocp.build_tightening_table":
            v["ocp.tightening_pairs"] += a["pairs"]
        elif span.name == "ocp.build_robust_socp_multistep":
            v["ocp.soc_rows"] = max(v["ocp.soc_rows"], a["soc_rows"])
            v["ocp.cone_dim"] = max(v["ocp.cone_dim"], a["cone_dim"])
        elif span.name == "solver.solve":
            kind_s[a["kind"]] += span.duration
            kind_it[a["kind"]] += a["iterations"]
            v["solver.not_optimal"] += 1 - a["optimal"]
            v["solver.kkt_max"] = max(v["solver.kkt_max"], a["kkt_max"])
        elif span.name == "validate.estimate_violation":
            mode_s[a["mode"]] += span.duration
            mode_n[a["mode"]] += a["samples"]
            v["validate.samples"] += a["samples"]
            v["validate.batches"] += a["batches"]
            v["validate.param_draw_flops"] += a["flops"]
            v["validate.worst_upper99"] = max(v["validate.worst_upper99"], a["worst_upper99"])
    v["ident.estimates"] = calls.get("ident.estimate_predictor", 0)
    # "<layer>.<function>.<suffix>": inclusive time, self time or call count.
    for name in v:
        function, _, suffix = name.rpartition(".")
        if "." not in function:
            continue
        if suffix == "s":
            v[name] = incl.get(function, 0.0)
        elif suffix == "self_s":
            v[name] = span_self.get(function, 0.0)
        elif suffix == "calls":
            v[name] = calls.get(function, 0)
    for kind in _SOLVE_KINDS:
        v[f"solver.solve.s.{kind}"] = kind_s[kind]
        v[f"solver.iterations.{kind}"] = kind_it[kind]
        v[f"solver.s_per_iteration.{kind}"] = kind_s[kind] / kind_it[kind] if kind_it[kind] else 0.0
    for mode in _MODES:
        v[f"validate.estimate_violation.s.{mode}"] = mode_s[mode]
        v[f"validate.samples_per_s.{mode}"] = mode_n[mode] / mode_s[mode] if mode_s[mode] else 0.0
    return v


def per_layer(tracer, unit_extras: "list[dict]") -> dict:
    """Per-layer metric values of a traced run, keyed by name."""
    own = self_times(tracer.spans)
    units = [
        unit_values(tracer.spans, own, root, end, extras)
        for (root, end), extras in zip(tracer.units, unit_extras)
    ]
    setup: dict = {}
    for span in tracer.spans[: tracer.units[0][0] if tracer.units else len(tracer.spans)]:
        if span.parent is None:
            setup[span.name] = setup.get(span.name, 0.0) + span.duration
    out = {}
    for name, _, how in PER_LAYER:
        if how == "setup":
            out[name] = setup.get(name[: -len(".s")], 0.0)
        elif how == "count":
            value = units[0][name]
            out[name] = int(value) if float(value).is_integer() else value
        else:
            out[name] = statistics.median(u[name] for u in units)
    return out


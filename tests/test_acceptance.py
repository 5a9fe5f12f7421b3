"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here and are not calibrated anywhere else.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import stats

from mspc.errors import InfeasibleInitialState, MspcError
from mspc.ident import (
    STRUCTURE_FIR,
    STRUCTURE_FULL,
    ParameterEstimate,
    build_regression,
    naive_ls,
    residual_covariance,
    true_theta,
)
from mspc.linalg import Rng, diag_repeat, sym_sqrt
from mspc.ocp import (
    ConicProgram,
    InputBox,
    OcpSpec,
    SocRow,
    build_nominal_qp_multistep,
    build_nominal_qp_statespace,
    build_robust_socp_multistep,
    gaussian_backoff,
    tightening_constant_exact,
    tightening_constant_upper,
)
from mspc.solver import solve
from mspc.system import (
    GaussianBelief,
    LinearSystem,
    build_multistep,
    propagate_moments_multistep,
    propagate_moments_statespace,
    random_system,
)
from mspc.validate import CoverageConfig, coverage_experiment

REPO = Path(__file__).resolve().parent.parent


def report(criterion: int, name: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} {name}: PASS")


# ---------------------------------------------------------------------------
# 1. Equivalence of the two nominal parametrizations
# ---------------------------------------------------------------------------


def _equivalence_instance(seed: int):
    """Random stable system with state and input constraints active at the optimum."""
    gen = Rng(1000, seed).generator()
    n = int(gen.integers(2, 5))
    m = int(gen.integers(1, 3))
    horizon = int(gen.integers(4, 11))
    sys = random_system(n, m, n, 0.9, gen, sigma_w=0.01, sigma_eps=0.0)
    x0 = gen.standard_normal(n)
    init = GaussianBelief(mean=x0, cov=0.005 * np.eye(n))
    q_f = gen.standard_normal((n, n))
    r_f = gen.standard_normal((m, m))
    q_mat = np.eye(n) + 0.2 * (q_f @ q_f.T)
    r_mat = 0.5 * np.eye(m) + 0.1 * (r_f @ r_f.T)

    # Unconstrained optimum of the condensed quadratic cost.
    model = build_multistep(sys, horizon)
    gu = np.vstack([
        np.pad(model.step(k)[1], ((0, 0), (0, (horizon - k) * m))) for k in range(1, horizon + 1)
    ])
    g0 = np.vstack([model.step(k)[0] for k in range(1, horizon + 1)])
    q_bar = diag_repeat(q_mat, horizon)
    r_bar = diag_repeat(r_mat, horizon)
    u_unc = np.linalg.solve(gu.T @ q_bar @ gu + r_bar, -gu.T @ q_bar @ (g0 @ x0))
    x_unc = (g0 @ x0 + gu @ u_unc).reshape(horizon, n)

    h_dir = gen.standard_normal(n)
    h_dir /= np.linalg.norm(h_dir)
    along = x_unc @ h_dir
    peak = float(np.max(along))
    if peak < 0.1:
        h_dir, peak = -h_dir, float(np.max(-along))
    if peak < 0.1:
        return None
    h_row = h_dir / (0.92 * peak)   # unconstrained optimum violates the half-space
    backoff = gaussian_backoff(0.9)
    v0 = float(h_row @ x0) + backoff * math.sqrt(h_row @ init.cov @ h_row)
    if v0 >= 0.95:
        return None
    u_amp = float(np.abs(u_unc).max())
    if u_amp < 1e-3:
        return None
    bound = 0.85 * u_amp            # input box clips the unconstrained optimum
    spec = OcpSpec(
        horizon=horizon,
        Q=q_mat,
        R=r_mat,
        h_x=h_row[None, :],
        u_set=InputBox(lo=-bound * np.ones(m), hi=bound * np.ones(m)),
        p=0.9,
        init=init,
    )
    return sys, spec


def test_criterion_1_nominal_equivalence():
    accepted = 0
    tried = 0
    state_active = 0
    input_active = 0
    while accepted < 50 and tried < 300:
        inst = _equivalence_instance(tried)
        tried += 1
        if inst is None:
            continue
        sys, spec = inst
        try:
            prog_ss = build_nominal_qp_statespace(sys, spec)
            prog_ms = build_nominal_qp_multistep(build_multistep(sys, spec.horizon), spec)
        except InfeasibleInitialState:
            continue
        sol_ss = solve(prog_ss)
        sol_ms = solve(prog_ms)
        if sol_ss.status != "Optimal" or sol_ms.status != "Optimal":
            continue
        diff = float(np.abs(sol_ss.primal - sol_ms.primal).max())
        rel = abs(sol_ss.objective - sol_ms.objective) / max(1.0, abs(sol_ss.objective))
        assert diff <= 1e-6, f"instance {tried}: input diff {diff:.3e}"
        assert rel <= 1e-6, f"instance {tried}: value rel diff {rel:.3e}"
        slacks = prog_ss.lin_b - prog_ss.lin_a @ sol_ss.primal
        n_state_rows = spec.horizon * spec.n_rows
        if np.min(slacks[:n_state_rows]) < 1e-6:
            state_active += 1
        if np.min(slacks[n_state_rows:]) < 1e-6:
            input_active += 1
        accepted += 1
    assert accepted == 50, f"only {accepted} valid instances in {tried} draws"
    assert state_active >= 25 and input_active >= 25, (state_active, input_active)
    report(1, "nominal equivalence across parametrizations")


# ---------------------------------------------------------------------------
# 2. Condensing identity
# ---------------------------------------------------------------------------


def test_criterion_2_condensing_identity():
    for seed in range(100):
        gen = Rng(2000, seed).generator()
        n = int(gen.integers(1, 5))
        m = int(gen.integers(1, 3))
        q = int(gen.integers(1, 3))
        horizon = 6
        sys = random_system(n, m, q, 0.95, gen, sigma_w=0.3)
        model = build_multistep(sys, horizon)
        init = GaussianBelief(mean=gen.standard_normal(n), cov=0.2 * np.eye(n))
        u = gen.standard_normal((horizon, m))
        b_ss = propagate_moments_statespace(sys, init, u)
        b_ms = propagate_moments_multistep(model, init, u)
        for bs, bm in zip(b_ss, b_ms):
            mean_scale = max(1.0, float(np.abs(bs.mean).max()))
            cov_scale = max(1.0, float(np.abs(bs.cov).max()))
            assert np.abs(bs.mean - bm.mean).max() <= 1e-10 * mean_scale
            assert np.abs(bs.cov - bm.cov).max() <= 1e-10 * cov_scale
    report(2, "condensing reproduces recursive moments on 100 systems")


# ---------------------------------------------------------------------------
# 3. Residual covariance against brute-force simulation
# ---------------------------------------------------------------------------


def test_criterion_3_residual_covariance_monte_carlo():
    a, e_gain, var_w, var_e = 0.7, 1.0, 0.3, 0.05
    t_len = 6
    n_draws = 1_000_000
    for k in (1, 2, 3):
        gen = Rng(3000, k).generator()
        w = math.sqrt(var_w) * gen.standard_normal((n_draws, t_len))
        eps = math.sqrt(var_e) * gen.standard_normal((n_draws, t_len + 1))
        x = np.zeros((n_draws, t_len + 1))
        for t in range(t_len):
            x[:, t + 1] = a * x[:, t] + e_gain * w[:, t]
        xm = x + eps
        g0 = a**k
        resid = xm[:, k:] - g0 * xm[:, : t_len - k + 1]
        emp = np.cov(resid.T)
        gw = np.array([[a ** (k - 1 - i) * e_gain for i in range(k)]])
        cov = residual_covariance(
            gw, np.array([[g0]]), np.array([[var_w]]), np.array([[var_e]]), k, t_len
        ).matrix
        rel = np.linalg.norm(emp - cov) / np.linalg.norm(cov)
        assert rel < 0.02, f"k={k}: relative Frobenius error {rel:.4f}"
    report(3, "band residual covariance matches 1e6-draw simulation")


# ---------------------------------------------------------------------------
# 4. Confidence-set coverage
# ---------------------------------------------------------------------------


def _binomial_band(n_runs: int, delta: float):
    lo = int(stats.binom.ppf(0.005, n_runs, delta))
    hi = int(stats.binom.ppf(0.995, n_runs, delta))
    return lo, hi


def test_criterion_4_coverage():
    deltas = (0.5, 0.9, 0.99)
    n_runs = 500

    sys1 = random_system(2, 1, 2, 0.85, Rng(4001), sigma_w=0.2, sigma_eps=0.0)
    res1 = coverage_experiment(CoverageConfig(
        system=sys1,
        init=GaussianBelief(mean=np.zeros(2), cov=np.zeros((2, 2))),
        T=200,
        k=1,
        deltas=deltas,
        n_runs=n_runs,
        method="statespace",
        master_seed=4002,
    ))
    assert res1.skipped == 0
    for d in deltas:
        lo, hi = _binomial_band(res1.runs, d)
        assert lo <= res1.hits[d] <= hi, (
            f"one-step coverage at delta={d}: {res1.hits[d]}/{res1.runs}, band [{lo},{hi}]"
        )

    sys3 = LinearSystem(
        A=np.array([[0.8]]), B=np.array([[1.0]]), E=np.array([[1.0]]),
        sigma_w=np.array([[0.09]]), sigma_eps=np.array([[0.01]]),
    )
    res3 = coverage_experiment(CoverageConfig(
        system=sys3,
        init=GaussianBelief(mean=np.zeros(1), cov=np.zeros((1, 1))),
        T=300,
        k=3,
        deltas=deltas,
        n_runs=n_runs,
        method="multistep",
        master_seed=4003,
    ))
    assert res3.skipped == 0
    for d in deltas:
        lo, hi = _binomial_band(res3.runs, d)
        assert lo <= res3.hits[d] <= hi, (
            f"three-step coverage at delta={d}: {res3.hits[d]}/{res3.runs}, band [{lo},{hi}]"
        )
    report(4, "ellipsoid coverage within exact binomial bands")


# ---------------------------------------------------------------------------
# 5. Bias dichotomy of unweighted least squares
# ---------------------------------------------------------------------------


def test_criterion_5_naive_ls_bias_dichotomy():
    # (a) Measurement noise with a non-FIR model: systematic bias.
    sys = LinearSystem(
        A=np.array([[0.8]]), B=np.array([[1.0]]), E=np.array([[1.0]]),
        sigma_w=np.array([[0.01]]), sigma_eps=np.array([[0.09]]),
    )
    theta = true_theta(sys.A, sys.B)
    errors = []
    for i in range(500):
        gen = Rng(5001, i).generator()
        u = gen.standard_normal((150, 1))
        from mspc.system import simulate

        traj = simulate(sys, GaussianBelief(np.zeros(1), np.zeros((1, 1))), u, gen)
        est = naive_ls(build_regression(traj, 1))
        errors.append(est.theta - theta)
    errors = np.asarray(errors)
    mean_err = errors.mean(axis=0)
    se = math.sqrt(float(np.trace(np.cov(errors.T))) / errors.shape[0])
    assert np.linalg.norm(mean_err) > 3.0 * se, (np.linalg.norm(mean_err), se)

    # (b) FIR truth, no disturbances, measurement noise only: no bias.
    sys_fir = LinearSystem(
        A=np.array([[0.0]]), B=np.array([[1.0]]), E=np.array([[1.0]]),
        sigma_w=np.array([[0.0]]), sigma_eps=np.array([[0.04]]),
    )
    k = 2
    model = build_multistep(sys_fir, k)
    theta_fir = true_theta(*model.step(k)[:2], structure=STRUCTURE_FIR)
    errors_fir = []
    for i in range(500):
        gen = Rng(5002, i).generator()
        u = gen.standard_normal((150, 1))
        from mspc.system import simulate

        traj = simulate(sys_fir, GaussianBelief(np.zeros(1), np.zeros((1, 1))), u, gen)
        est = naive_ls(build_regression(traj, k, STRUCTURE_FIR))
        errors_fir.append(est.theta - theta_fir)
    errors_fir = np.asarray(errors_fir)
    n_runs, dof = errors_fir.shape
    crit = stats.t.ppf(1.0 - 0.005 / dof, n_runs - 1)   # 1% level, Bonferroni
    t_stats = np.abs(errors_fir.mean(axis=0)) / (errors_fir.std(axis=0, ddof=1) / math.sqrt(n_runs))
    assert np.all(t_stats < crit), t_stats
    report(5, "unweighted LS bias present for non-FIR, absent for FIR")


# ---------------------------------------------------------------------------
# 6. Tightening sandwich
# ---------------------------------------------------------------------------


def test_criterion_6_tightening_sandwich():
    n_boundary = 100_000
    for seed in range(1000):
        gen = Rng(6000, seed).generator()
        n = int(gen.integers(1, 4))
        m = int(gen.integers(1, 3))
        q = int(gen.integers(1, 3))
        k = int(gen.integers(1, 4))
        sys = random_system(n, m, q, 0.9, gen, sigma_w=0.3)
        model = build_multistep(sys, k)
        g0, _, gw = model.step(k)
        dof = n * n + n * k * m
        f = gen.standard_normal((dof, dof))
        s_theta_half = sym_sqrt(0.01 * (f @ f.T + 0.2 * np.eye(dof)))
        h_row = gen.standard_normal(n)
        sigma_x0 = 0.08 * np.eye(n)
        radius = float(1.0 + 2.0 * gen.uniform())
        args = (h_row, gw, g0, sys.sigma_w, sigma_x0, s_theta_half, radius)
        exact = tightening_constant_exact(*args)
        upper = tightening_constant_upper(*args)
        assert exact <= upper + 1e-9, f"seed {seed}: exact {exact} > upper {upper}"

        sw_half = sym_sqrt(sys.sigma_w)
        sx_half = sym_sqrt(sigma_x0)
        base = np.concatenate([
            diag_repeat(sw_half, k) @ (gw.T @ h_row),
            sx_half @ (g0.T @ h_row),
        ])
        sel = np.kron(sx_half, h_row[None, :]) @ s_theta_half[: n * n, :]
        stack = np.vstack([np.zeros((k * q, dof)), sel])
        dirs = gen.standard_normal((n_boundary, dof))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        sampled = float(np.linalg.norm(base[None, :] + radius * dirs @ stack.T, axis=1).max())
        assert exact >= sampled - 1e-6, f"seed {seed}: exact {exact} < sampled {sampled}"
    report(6, "exact back-off dominates sampling and is dominated by the bound")


# ---------------------------------------------------------------------------
# 7. Certification of the robust program on the shipped demo configs
# ---------------------------------------------------------------------------


def test_criterion_7_demo_certification(tmp_path):
    from mspc.cli import cmd_pipeline, load_config

    for name in ("scalar", "two_state", "four_state"):
        cfg = load_config(REPO / "configs" / f"{name}.json")
        rep, ok = cmd_pipeline(cfg, tmp_path / name)
        assert ok, f"{name}: pipeline failed: {rep['stages']}"
        cert = rep["certification"]
        budget = 1.0 - cfg.ocp_spec.p
        for entry in cert["parametric"]["entries"]:
            assert entry["upper99"] <= budget + 0.01, (name, entry)
    report(7, "demo configs certify the chance constraints by Monte Carlo")


# ---------------------------------------------------------------------------
# 8. Structural reductions
# ---------------------------------------------------------------------------


def test_criterion_8_reductions():
    assert gaussian_backoff(0.5) == 0.0

    sys = random_system(2, 1, 1, 0.85, Rng(8000), sigma_w=0.1, sigma_eps=0.0)
    spec = OcpSpec(
        horizon=5,
        Q=np.eye(2),
        R=np.eye(1),
        h_x=0.4 * np.eye(2)[:1],
        u_set=InputBox(lo=np.array([-2.0]), hi=np.array([2.0])),
        p=0.9,
        init=GaussianBelief(mean=np.array([0.9, -0.2]), cov=0.01 * np.eye(2)),
    )
    model = build_multistep(sys, 5)
    ests, gw = [], []
    for k in range(1, 6):
        g0, gu, gwk = model.step(k)
        theta = true_theta(g0, gu)
        ests.append(ParameterEstimate(k=k, structure=STRUCTURE_FULL, theta=theta,
                                      cov=np.zeros((theta.size,) * 2), n=2, m=1))
        gw.append(gwk)
    prog_rob = build_robust_socp_multistep(ests, spec, 1.0, gw, sys.sigma_w)
    prog_nom = build_nominal_qp_multistep(model, spec)
    assert not prog_rob.soc_rows
    assert prog_rob.lin_a.shape == prog_nom.lin_a.shape
    for a, b in (
        (prog_rob.lin_a, prog_nom.lin_a),
        (prog_rob.lin_b, prog_nom.lin_b),
        (prog_rob.p_mat, prog_nom.p_mat),
        (prog_rob.q_vec, prog_nom.q_vec),
    ):
        scale = max(1.0, float(np.abs(b).max(initial=0.0)))
        assert np.abs(a - b).max(initial=0.0) <= 1e-12 * scale
    assert abs(prog_rob.constant - prog_nom.constant) <= 1e-12 * max(1.0, abs(prog_nom.constant))
    report(8, "robust program reduces row-for-row; half-probability back-off is zero")


# ---------------------------------------------------------------------------
# 9. Solver certification
# ---------------------------------------------------------------------------


def _grid_pass(prog: ConicProgram, bounds, points):
    (lo1, hi1), (lo2, hi2) = bounds
    z1 = np.linspace(lo1, hi1, points)
    z2 = np.linspace(lo2, hi2, points)
    g1, g2 = np.meshgrid(z1, z2, indexing="ij")
    pts = np.stack([g1.ravel(), g2.ravel()], axis=1)
    feasible = np.ones(pts.shape[0], dtype=bool)
    if prog.lin_b.size:
        feasible &= np.all(pts @ prog.lin_a.T <= prog.lin_b + 1e-12, axis=1)
    for row in prog.soc_rows:
        lhs = np.linalg.norm(pts @ row.f_mat.T + row.g_vec, axis=1)
        feasible &= lhs <= pts @ row.c_vec + row.d_off + 1e-12
    vals = 0.5 * np.einsum("bi,ij,bj->b", pts, prog.p_mat, pts) + pts @ prog.q_vec
    vals = vals + prog.constant
    vals[~feasible] = np.inf
    idx = int(np.argmin(vals))
    return float(vals[idx]), pts[idx]


def _grid_oracle_2d(prog: ConicProgram, bounds, points=1000):
    """Zooming 1e6-point grid search, independent of the solver throughout.

    Each stage re-grids around the previous stage's own argmin.  The zoom
    box shrinks like the square root of the spacing, which is what the
    value-based localization of a constrained optimum supports; the spacing
    settles around 2e-5, comfortably below the 1e-4 comparison tolerance.
    """
    best, argmin = _grid_pass(prog, bounds, points)
    spacing = max((hi - lo) / (points - 1) for lo, hi in bounds)
    for _ in range(6):
        half = max(4.0 * math.sqrt(spacing), 10.0 * spacing)
        zoom = [
            (argmin[0] - half, argmin[0] + half),
            (argmin[1] - half, argmin[1] + half),
        ]
        value, candidate = _grid_pass(prog, zoom, points)
        if value < best:
            best, argmin = value, candidate
        spacing = 2.0 * half / (points - 1)
    return best


def test_criterion_9_solver_certification():
    # 2-variable programs against a 1e6-point grid oracle.
    two_var = [
        (
            ConicProgram(
                p_mat=np.array([[2.0, 0.3], [0.3, 1.4]]),
                q_vec=np.array([-1.0, 0.7]),
                constant=0.2,
                lin_a=np.array([[1.0, 1.0], [-1.0, 0.4]]),
                lin_b=np.array([1.2, 0.9]),
                soc_rows=[],
            ),
            [(-3.0, 3.0), (-3.0, 3.0)],
        ),
        (
            ConicProgram(
                p_mat=np.zeros((2, 2)),
                q_vec=np.array([1.0, 1.0]),
                constant=0.0,
                lin_a=np.zeros((0, 2)),
                lin_b=np.zeros(0),
                soc_rows=[SocRow(f_mat=np.eye(2), g_vec=np.zeros(2),
                                 c_vec=np.zeros(2), d_off=1.0)],
            ),
            [(-1.1, 1.1), (-1.1, 1.1)],
        ),
        (
            ConicProgram(
                p_mat=np.array([[2.0, 0.0], [0.0, 2.0]]),
                q_vec=np.array([-4.0, -2.0]),
                constant=0.0,
                lin_a=np.array([[1.0, 0.0]]),
                lin_b=np.array([0.8]),
                soc_rows=[SocRow(f_mat=np.array([[0.7, 0.2]]), g_vec=np.array([0.1]),
                                 c_vec=np.array([0.0, 0.5]), d_off=0.9)],
            ),
            [(-3.0, 3.0), (-1.0, 4.0)],
        ),
    ]
    for prog, bounds in two_var:
        sol = solve(prog)
        assert sol.status == "Optimal"
        assert sol.kkt.max() <= 1e-8, sol.kkt
        oracle = _grid_oracle_2d(prog, bounds)
        assert abs(sol.objective - oracle) <= 1e-4, (sol.objective, oracle)

    # Battery incl. programs produced by the control builders.
    gen = Rng(9000).generator()
    checked = 0
    for trial in range(30):
        d = int(gen.integers(2, 7))
        f = gen.standard_normal((d, d))
        prog = ConicProgram(
            p_mat=f @ f.T + np.eye(d),
            q_vec=gen.standard_normal(d),
            constant=0.0,
            lin_a=gen.standard_normal((d + 2, d)),
            lin_b=np.abs(gen.standard_normal(d + 2)) + 0.4,
            soc_rows=[
                SocRow(
                    f_mat=gen.standard_normal((2, d)),
                    g_vec=0.2 * gen.standard_normal(2),
                    c_vec=np.zeros(d),
                    d_off=2.0 + abs(gen.standard_normal()),
                )
            ],
        )
        sol = solve(prog)
        assert sol.status == "Optimal"
        assert sol.kkt.max() <= 1e-8, (trial, sol.kkt)
        checked += 1
    for seed in range(10):
        sys = random_system(2, 1, 2, 0.85, Rng(9001, seed), sigma_w=0.02, sigma_eps=0.0)
        spec = OcpSpec(
            horizon=5,
            Q=np.eye(2),
            R=0.4 * np.eye(1),
            h_x=0.35 * np.eye(2)[:1],
            u_set=InputBox(lo=np.array([-2.0]), hi=np.array([2.0])),
            p=0.9,
            init=GaussianBelief(mean=np.array([1.0, 0.2]), cov=0.01 * np.eye(2)),
        )
        model = build_multistep(sys, 5)
        ests, gw = [], []
        for k in range(1, 6):
            g0, gu, gwk = model.step(k)
            theta = true_theta(g0, gu)
            ests.append(ParameterEstimate(k=k, structure=STRUCTURE_FULL, theta=theta,
                                          cov=2e-5 * np.eye(theta.size), n=2, m=1))
            gw.append(gwk)
        try:
            prog = build_robust_socp_multistep(ests, spec, 0.95, gw, sys.sigma_w)
        except MspcError:
            continue
        sol = solve(prog)
        assert sol.status == "Optimal"
        assert sol.kkt.max() <= 1e-8, (seed, sol.kkt)
        checked += 1
    assert checked >= 35
    report(9, "optimal solutions carry 1e-8 KKT residuals; grid oracle agrees")


# ---------------------------------------------------------------------------
# 10. Byte-identical pipeline reports
# ---------------------------------------------------------------------------


def test_criterion_10_reproducibility(tmp_path):
    config = REPO / "configs" / "scalar.json"
    outputs = []
    for tag, threads in (("a", "1"), ("b", "2"), ("c", "1")):
        out_dir = tmp_path / tag
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "mspc", "pipeline",
             "--config", str(config), "--out", str(out_dir)],
            cwd=REPO, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out_dir)
    ref = (outputs[0] / "report.json").read_bytes()
    for other in outputs[1:]:
        assert (other / "report.json").read_bytes() == ref
    for fname in ("violations_parametric.csv", "estimates.json", "solution_robust.json"):
        ref_f = (outputs[0] / fname).read_bytes()
        for other in outputs[1:]:
            assert (other / fname).read_bytes() == ref_f
    report(10, "pipeline reports byte-identical across runs and thread counts")

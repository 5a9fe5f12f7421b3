import math

import numpy as np
import pytest
from scipy.stats import beta as beta_dist, norm as normal_dist

import threading

from mspc.cli import _write_csv
from mspc.ident import STRUCTURE_FIR, STRUCTURE_FULL, ParameterEstimate, true_theta
from mspc.linalg import Rng, diag_repeat
from mspc.ocp import (
    InputBox,
    OcpSpec,
    build_nominal_qp_multistep,
    build_nominal_qp_statespace,
    build_robust_socp_multistep,
    build_tightening_table,
)
from mspc.solver import solve
from mspc.system import GaussianBelief, LinearSystem, build_multistep, random_system
from mspc.validate import (
    CoverageConfig,
    EstimatedModel,
    clopper_pearson_interval,
    certification_rows,
    coverage_experiment,
    equivalence_check,
    exact_violation,
    violation_report_to_json,
)


def scalar_spec(horizon=2, p=0.9, h=0.5, x0=0.6, sx0=0.04):
    return OcpSpec(
        horizon=horizon,
        Q=np.eye(1),
        R=np.eye(1),
        h_x=np.array([[h]]),
        u_set=None,
        p=p,
        init=GaussianBelief(mean=np.array([x0]), cov=np.array([[sx0]])),
    )


def scalar_system(a=0.7, b=1.0, sw=0.09, se=0.0):
    return LinearSystem(
        A=np.array([[a]]), B=np.array([[b]]), E=np.array([[1.0]]),
        sigma_w=np.array([[sw]]), sigma_eps=np.array([[se]]),
    )


# ---------------------------------------------------------------------------
# Clopper-Pearson bounds
# ---------------------------------------------------------------------------


def test_clopper_pearson_upper_validity():
    # The upper end of the 98% two-sided interval is a one-sided 99% bound.
    rate = 0.1
    n, reps = 500, 1000
    gen = Rng(80).generator()
    covered = 0
    for _ in range(reps):
        k = int(np.sum(gen.uniform(size=n) < rate))
        if clopper_pearson_interval(k, n, 0.98)[1] >= rate:
            covered += 1
    assert covered >= 0.99 * reps


def test_clopper_pearson_edges():
    assert clopper_pearson_interval(0, 1000, 0.98)[1] <= 0.006
    assert clopper_pearson_interval(1000, 1000)[1] == 1.0
    low, high = clopper_pearson_interval(0, 100)
    assert low == 0.0 and high < 0.06
    low, high = clopper_pearson_interval(100, 100)
    assert high == 1.0


@pytest.mark.parametrize("samples", [1000, 4096, 100_000, 1_000_000, 2_000_000])
def test_clopper_pearson_matches_beta_ppf(samples):
    counts = np.unique(np.concatenate([
        np.arange(60), np.linspace(60, samples, 40).astype(int)]))
    for confidence in (0.99, 0.999, 0.98):
        alpha = 1.0 - confidence
        bounds = np.array([clopper_pearson_interval(int(c), samples, confidence) for c in counts])
        inner = (counts > 0) & (counts < samples)
        c = counts[inner]
        assert np.array_equal(bounds[inner, 0], beta_dist.ppf(alpha / 2.0, c, samples - c + 1))
        assert np.array_equal(bounds[inner, 1], beta_dist.ppf(1.0 - alpha / 2.0, c + 1, samples - c))
        assert tuple(bounds[0]) == (0.0, beta_dist.ppf(1.0 - alpha / 2.0, 1, samples))
        assert tuple(bounds[-1]) == (beta_dist.ppf(alpha / 2.0, samples, 1), 1.0)


# ---------------------------------------------------------------------------
# exact_violation
# ---------------------------------------------------------------------------


def test_violation_never_violated_constraint():
    sys = scalar_system()
    spec = scalar_spec(h=1e-6)
    report = exact_violation(sys, np.zeros(2), spec)
    assert report.rate.shape == report.upper99.shape == (spec.horizon + 1, spec.n_rows)
    assert not np.any(report.rate) and not np.any(report.upper99)
    assert report.worst_upper99 == 0.0


def test_violation_matches_gaussian_tail():
    a, b, sw, sx0, x0, h = 0.7, 1.0, 0.09, 0.04, 0.6, 0.5
    sys = scalar_system(a=a, b=b, sw=sw)
    spec = scalar_spec(h=h, x0=x0, sx0=sx0)
    u = np.array([0.4, -0.1])
    report = exact_violation(sys, u, spec)
    mean, var = x0, sx0
    for k in (1, 2):
        mean = a * mean + b * u[k - 1]
        var = a * a * var + sw
        p_true = normal_dist.sf((1.0 - h * mean) / (h * math.sqrt(var)))
        assert abs(report.rate[k, 0] - p_true) <= 1e-13 * p_true
        assert report.upper99[k, 0] == report.rate[k, 0]


def test_violation_sampled_parameters_zero_cov_matches_noise_only_law():
    sys = scalar_system()
    spec = scalar_spec()
    model = build_multistep(sys, spec.horizon)
    ests, gw = [], []
    for k in (1, 2):
        g0, gu, gwk = model.step(k)
        theta = true_theta(g0, gu)
        ests.append(ParameterEstimate(k=k, structure=STRUCTURE_FULL, theta=theta,
                                      cov=np.zeros((theta.size,) * 2), n=1, m=1))
        gw.append(gwk)
    truth = EstimatedModel(estimates=ests, gw=gw, sigma_w=sys.sigma_w)
    u = np.array([0.3, 0.2])
    # The true system is the estimate with zero covariance: the same report.
    on_estimate, on_system = exact_violation(truth, u, spec), exact_violation(sys, u, spec)
    assert np.array_equal(on_estimate.rate, on_system.rate)
    assert np.array_equal(on_estimate.upper99, on_system.upper99)


def test_violation_deterministic_and_thread_invariant():
    sys = scalar_system()
    spec = scalar_spec()
    u = np.array([0.4, -0.1])
    r1 = exact_violation(sys, u, spec)
    r2 = exact_violation(sys, u, spec)
    on_thread = []
    worker = threading.Thread(target=lambda: on_thread.append(exact_violation(sys, u, spec)))
    worker.start()
    worker.join()
    assert violation_report_to_json(r1) == violation_report_to_json(r2)
    assert violation_report_to_json(r1) == violation_report_to_json(on_thread[0])


def test_violation_csv(tmp_path):
    sys = scalar_system()
    report = exact_violation(sys, np.zeros(2), scalar_spec())
    path = tmp_path / "violations.csv"
    columns = ("j", "k", "rate", "upper99")
    doc = violation_report_to_json(report)
    assert list(doc) == ["entries"]
    assert all(tuple(entry) == columns for entry in doc["entries"])
    _write_csv(path, columns, doc["entries"])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "j,k,rate,upper99"
    assert len(lines) == 1 + report.rate.size
    for line, (k, j) in zip(lines[1:], np.ndindex(report.rate.shape)):   # rows within a step
        rate, upper = float(report.rate[k, j]), float(report.upper99[k, j])
        assert line == f"{j},{k},{rate!r},{upper!r}"


# ---------------------------------------------------------------------------
# equivalence_check
# ---------------------------------------------------------------------------


def test_equivalence_scalar_unconstrained():
    sys = scalar_system()
    spec = OcpSpec(
        horizon=4, Q=np.eye(1), R=np.eye(1), h_x=np.zeros((0, 1)), u_set=None,
        p=0.9, init=GaussianBelief(mean=np.array([1.0]), cov=np.array([[0.01]])),
    )
    report = equivalence_check(sys, spec)
    assert report.passed
    assert report.input_diff <= 1e-8


def test_equivalence_random_active_constraints():
    sys = random_system(3, 2, 2, 0.9, Rng(88), sigma_w=0.05, sigma_eps=0.0)
    spec = OcpSpec(
        horizon=10,
        Q=np.eye(3),
        R=np.eye(2),
        h_x=0.3 * np.eye(3)[:2],
        u_set=InputBox(lo=-0.4 * np.ones(2), hi=0.4 * np.ones(2)),
        p=0.9,
        init=GaussianBelief(mean=np.array([1.2, -0.5, 0.8]), cov=0.01 * np.eye(3)),
    )
    report = equivalence_check(sys, spec)
    assert report.passed, report
    assert report.value_rel_diff <= 1e-6


def test_equivalence_negative_control_mismatched_models():
    sys = random_system(2, 1, 1, 0.85, Rng(89), sigma_w=0.05, sigma_eps=0.0)
    spec = OcpSpec(
        horizon=5, Q=np.eye(2), R=np.eye(1), h_x=0.3 * np.eye(2)[:1],
        u_set=InputBox(lo=np.array([-2.0]), hi=np.array([2.0])), p=0.9,
        init=GaussianBelief(mean=np.array([1.0, 0.2]), cov=0.01 * np.eye(2)),
    )
    model = build_multistep(sys, 5)
    from mspc.system import MultiStepModel

    wrong = MultiStepModel(
        horizon=5,
        g0=[1.2 * g for g in model.g0],
        gu=[0.8 * g for g in model.gu],
        gw=model.gw,
        sigma_w=model.sigma_w,
    )
    sol_ss = solve(build_nominal_qp_statespace(sys, spec))
    sol_ms = solve(build_nominal_qp_multistep(wrong, spec))
    diff = float(np.abs(sol_ss.primal - sol_ms.primal).max())
    assert diff > 1e-6


# ---------------------------------------------------------------------------
# coverage_experiment
# ---------------------------------------------------------------------------


def test_coverage_statespace_smoke():
    sys = random_system(2, 1, 2, 0.85, Rng(90), sigma_w=0.2, sigma_eps=0.0)
    cfg = CoverageConfig(
        system=sys,
        init=GaussianBelief(mean=np.zeros(2), cov=np.zeros((2, 2))),
        T=150,
        k=1,
        deltas=(0.5, 0.9),
        n_runs=120,
        method="statespace",
        master_seed=91,
    )
    res = coverage_experiment(cfg)
    assert res.runs == 120
    assert 0.36 <= res.coverage[0.5] <= 0.64
    assert 0.8 <= res.coverage[0.9] <= 1.0
    lo, hi = res.interval99[0.9]
    assert lo <= res.coverage[0.9] <= hi


def test_coverage_multistep_smoke():
    sys = scalar_system(a=0.8, sw=0.2, se=0.01)
    cfg = CoverageConfig(
        system=sys,
        init=GaussianBelief(mean=np.zeros(1), cov=np.zeros((1, 1))),
        T=150,
        k=2,
        deltas=(0.9,),
        n_runs=120,
        method="multistep",
        master_seed=92,
    )
    res = coverage_experiment(cfg)
    assert res.runs + res.skipped == 120
    assert 0.8 <= res.coverage[0.9] <= 1.0


# ---------------------------------------------------------------------------
# certification_rows
# ---------------------------------------------------------------------------


def robust_rows(sys, ests, spec, delta):
    """Robust solve on ``ests`` and its certification rows, as the pipeline builds them."""
    model = build_multistep(sys, spec.horizon)
    gw = [model.step(k)[2] for k in range(1, spec.horizon + 1)]
    table = build_tightening_table(spec, ests, gw, sys.sigma_w, delta)
    sol = solve(build_robust_socp_multistep(ests, spec, delta, gw, sys.sigma_w, table=table))
    assert sol.status == "Optimal"
    truth = EstimatedModel(estimates=ests, gw=gw, sigma_w=sys.sigma_w)
    rep = exact_violation(truth, sol.primal, spec)
    return rep, certification_rows(table, ests, spec, sol.primal, rep)


def test_conservatism_zero_parametric_uncertainty():
    sys = scalar_system(a=0.7, sw=0.02)
    spec = scalar_spec(horizon=3, x0=0.8, sx0=0.005)
    model = build_multistep(sys, 3)
    ests = []
    for k in (1, 2, 3):
        g0, gu, _ = model.step(k)
        theta = true_theta(g0, gu)
        ests.append(ParameterEstimate(k=k, structure=STRUCTURE_FULL, theta=theta,
                                      cov=np.zeros((theta.size,) * 2), n=1, m=1))
    _, rows = robust_rows(sys, ests, spec, 1.0)
    budget = 1.0 - spec.p
    assert all(r["h_upper"] >= r["h_exact"] - 1e-9 for r in rows)
    for row in rows:
        assert row["parametric_term"] == 0.0
        assert row["upper99"] <= budget + 0.01


def test_conservatism_with_uncertainty():
    sys = scalar_system(a=0.7, sw=0.02, se=0.0)
    spec = scalar_spec(horizon=3, x0=0.8, sx0=0.005)
    model = build_multistep(sys, 3)
    ests = []
    for k in (1, 2, 3):
        g0, gu, _ = model.step(k)
        theta = true_theta(g0, gu)
        ests.append(ParameterEstimate(k=k, structure=STRUCTURE_FULL, theta=theta,
                                      cov=1e-4 * np.eye(theta.size), n=1, m=1))
    _, rows = robust_rows(sys, ests, spec, 0.95)
    budget = 1.0 - spec.p
    assert all(r["h_upper"] >= r["h_exact"] - 1e-9 for r in rows)
    for row in rows:
        assert row["h_upper"] >= row["h_exact"] - 1e-9
        assert row["upper99"] <= budget + 0.01


def test_certification_rows_slack_at_robust_optimum():
    # x2 >= -0.2 binds at every step when regulating x1 through x2, so the
    # cone rows of the second constraint are active at the robust optimum.
    sys = LinearSystem(
        A=np.array([[0.9, 0.2], [0.0, 0.8]]), B=np.array([[0.0], [1.0]]), E=np.eye(2),
        sigma_w=0.01 * np.eye(2), sigma_eps=np.zeros((2, 2)),
    )
    spec = OcpSpec(
        horizon=3, Q=np.eye(2), R=0.1 * np.eye(1), h_x=np.array([[1.0, 0.0], [0.0, -5.0]]),
        u_set=InputBox(lo=np.array([-3.0]), hi=np.array([3.0])), p=0.9,
        init=GaussianBelief(mean=np.array([0.6, 0.3]), cov=0.001 * np.eye(2)),
    )
    model = build_multistep(sys, 3)
    gen = Rng(95).generator()
    ests = []
    for k in (1, 2, 3):
        g0, gu, _ = model.step(k)
        theta = true_theta(g0, gu)
        a = gen.standard_normal((theta.size, theta.size))
        cov = 1e-4 * (a @ a.T / theta.size + np.eye(theta.size))  # correlated
        ests.append(ParameterEstimate(k=k, structure=STRUCTURE_FULL, theta=theta,
                                      cov=cov, n=2, m=1))
    rep, rows = robust_rows(sys, ests, spec, 0.95)
    assert [(r["j"], r["k"]) for r in rows] == [(j, k) for k in (1, 2, 3) for j in (0, 1)]
    for row in rows:
        # The cone row is exactly the inequality slack >= 0.
        assert row["slack"] == (
            1.0 - row["nominal_backoff"] - row["parametric_term"] - row["mean_value"]
        )
        assert row["slack"] >= -1e-8, row
        assert row["nominal_backoff"] > 0.0 and row["parametric_term"] > 0.0
    assert min(r["slack"] for r in rows if r["j"] == 1) <= 1e-6  # active rows
    for row in rows:
        k, j = row["k"], row["j"]
        assert (row["rate"], row["upper99"]) == (rep.rate[k, j], rep.upper99[k, j])


def test_violation_sampled_parameters_analytic_tail():
    # Deterministic initial state makes the one-step map Gaussian even with
    # random parameters, so the violation rate has a closed form.
    a, b, sw = 0.7, 1.0, 0.04
    sys = scalar_system(a=a, b=b, sw=sw)
    spec = scalar_spec(horizon=1, h=0.6, x0=0.9, sx0=0.0)
    theta_hat = np.array([a, b])
    sigma_theta = np.diag([0.02, 0.01])
    est = ParameterEstimate(k=1, structure=STRUCTURE_FULL, theta=theta_hat,
                            cov=sigma_theta, n=1, m=1)
    truth = EstimatedModel(
        estimates=[est], gw=[np.array([[1.0]])], sigma_w=sys.sigma_w
    )
    u = np.array([0.5])
    report = exact_violation(truth, u, spec)
    rate = report.rate[1, 0]
    h = 0.6
    z = np.array([0.9, 0.5])
    mean = h * float(theta_hat @ z)
    var = h * h * (float(z @ sigma_theta @ z) + sw)
    p_true = normal_dist.sf((1.0 - mean) / math.sqrt(var))
    assert abs(rate - p_true) <= 1e-13 * p_true, (rate, p_true)
    assert report.upper99[1, 0] == rate


@pytest.mark.parametrize("structure", [STRUCTURE_FULL, STRUCTURE_FIR])
@pytest.mark.parametrize("horizon", [1, 2])
def test_violation_sampled_parameters_analytic_tail_two_states(structure, horizon):
    # With a deterministic x0, row j at step k is Gaussian with mean h' G_hat z
    # and variance (z kron h)' Sigma_k (z kron h) + h' Gw_k Sigma_w Gw_k' h,
    # so every (row, step) probability has a closed form.
    sys = random_system(2, 1, 1, 0.8, Rng(96), sigma_w=0.05, sigma_eps=0.0)
    spec = OcpSpec(
        horizon=horizon, Q=np.eye(2), R=np.eye(1),
        h_x=np.array([[1.0, 0.8], [0.9, -1.1]]), u_set=None, p=0.9,
        init=GaussianBelief(mean=np.array([0.5, -0.3]), cov=np.zeros((2, 2))),
    )
    model = build_multistep(sys, horizon)
    gen = Rng(97).generator()
    ests, gw = [], []
    for k in range(1, horizon + 1):
        g0, gu, gwk = model.step(k)
        theta = true_theta(g0, gu, structure)
        root = gen.standard_normal((theta.size, theta.size))
        cov = 0.05 * (np.eye(theta.size) + root @ root.T) / theta.size
        ests.append(ParameterEstimate(k=k, structure=structure, theta=theta, cov=cov,
                                      n=2, m=1))
        gw.append(gwk)
    truth = EstimatedModel(estimates=ests, gw=gw, sigma_w=sys.sigma_w)
    u = np.array([-1.6, 0.9])[:horizon]
    report = exact_violation(truth, u, spec)
    x0 = spec.init.mean
    for (k, j), rate in np.ndenumerate(report.rate):
        h = spec.h_x[j]
        if k == 0:
            p_true = float(h @ x0 > 1.0)
        else:
            est = ests[k - 1]
            uk = u[:k]
            z = uk if structure == STRUCTURE_FIR else np.concatenate([x0, uk])
            mean = float(h @ (est.g0_hat() @ x0 + est.gu_hat() @ uk))
            var = float(np.kron(z, h) @ est.cov @ np.kron(z, h))
            var += float(h @ gw[k - 1] @ diag_repeat(sys.sigma_w, k) @ gw[k - 1].T @ h)
            p_true = normal_dist.sf((1.0 - mean) / math.sqrt(var))
        assert abs(rate - p_true) <= 1e-13 * p_true and report.upper99[k, j] == rate, (
            (j, k), rate, p_true)

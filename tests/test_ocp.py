import json
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, strategies as st
from numpy.testing import assert_allclose

from mspc.cli import _write_csv, _write_json
from mspc.errors import DeltaTooSmall, DomainError, InfeasibleInitialState
from mspc.ident import (
    STRUCTURE_FIR, STRUCTURE_FULL, ParameterEstimate, model_from_estimates, true_theta,
)
from mspc.linalg import Rng, diag_repeat, generator_of, psd_sqrt_factor, sym_sqrt
from mspc.ocp import (
    ConicProgram,
    InputBox,
    InputPolytope,
    OcpSpec,
    SocRow,
    _check_initial_state,
    _gaussian_backoffs,
    _input_rows,
    _mean_maps,
    _stacked_cost,
    _state_rows,
    build_nominal_qp_multistep,
    build_nominal_qp_statespace,
    build_robust_socp_multistep,
    build_tightening_table,
    formulate_minmax_statespace,
    gaussian_backoff,
    program_to_json,
    tightening_constant_exact,
    tightening_constant_upper,
    tightening_to_json,
)
from mspc import solver
from mspc.solver import SolverOptions, _kkt_acceptable, check_kkt, solve
from mspc.system import GaussianBelief, LinearSystem, build_multistep, random_system


def make_spec(sys, horizon=4, p=0.9, h_scale=0.4, u_lim=2.0, x0=None, sx0=0.01):
    n = sys.n
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    h_x = h_scale * np.eye(n)[:1]  # one row along the first coordinate
    return OcpSpec(
        horizon=horizon,
        Q=np.eye(n),
        R=0.5 * np.eye(sys.m),
        h_x=h_x,
        u_set=InputBox(lo=-u_lim * np.ones(sys.m), hi=u_lim * np.ones(sys.m)),
        p=p,
        init=GaussianBelief(mean=x0, cov=sx0 * np.eye(n)),
    )


def perfect_estimates(sys, horizon):
    """Estimates pinned at the true multi-step parameters with zero covariance."""
    model = build_multistep(sys, horizon)
    ests, gw = [], []
    for k in range(1, horizon + 1):
        g0, gu, gwk = model.step(k)
        theta = true_theta(g0, gu)
        ests.append(
            ParameterEstimate(
                k=k, structure=STRUCTURE_FULL, theta=theta,
                cov=np.zeros((theta.size, theta.size)), n=sys.n, m=sys.m,
            )
        )
        gw.append(gwk)
    return ests, gw


def test_gaussian_backoff_half_is_zero():
    assert gaussian_backoff(0.5) == 0.0


def test_gaussian_backoff_rejects_low_p():
    with pytest.raises(DomainError):
        gaussian_backoff(0.4)


def test_nominal_p_half_mean_only_rows():
    sys = random_system(2, 1, 1, 0.8, Rng(50), sigma_w=0.3, sigma_eps=0.0)
    spec = make_spec(sys, p=0.5)
    prog = build_nominal_qp_statespace(sys, spec)
    # The back-off multiplier vanishes at one half: rows bound the mean only,
    # and with x0 = 0 every state offset is exactly one.
    n_state_rows = spec.horizon * spec.n_rows
    assert np.all(prog.lin_b[:n_state_rows] == 1.0)


def test_nominal_unconstrained_matches_normal_equations():
    sys = LinearSystem(
        A=np.array([[0.8]]), B=np.array([[1.0]]), E=np.array([[1.0]]),
        sigma_w=np.array([[0.1]]), sigma_eps=np.zeros((1, 1)),
    )
    spec = OcpSpec(
        horizon=5,
        Q=np.array([[2.0]]),
        R=np.array([[0.3]]),
        h_x=np.zeros((0, 1)),
        u_set=None,
        p=0.9,
        init=GaussianBelief(mean=np.array([1.5]), cov=np.zeros((1, 1))),
    )
    prog = build_nominal_qp_statespace(sys, spec)
    sol = solve(prog)
    assert sol.status == "Optimal"
    # Oracle: stack the mean dynamics and solve the least-squares problem
    # min ||sqrt(Qbar)(Gu u + G0 x0)||^2 + ||sqrt(Rbar) u||^2 directly.
    model = build_multistep(sys, 5)
    gu = np.vstack([np.pad(model.step(k)[1], ((0, 0), (0, 5 - k))) for k in range(1, 6)])
    g0 = np.vstack([model.step(k)[0] for k in range(1, 6)])
    qbar = diag_repeat(spec.Q, 5)
    rbar = diag_repeat(spec.R, 5)
    lhs = gu.T @ qbar @ gu + rbar
    rhs = -gu.T @ qbar @ (g0 @ spec.init.mean)
    u_star = np.linalg.solve(lhs, rhs)
    assert_allclose(sol.primal, u_star, atol=1e-7)


def test_two_parametrizations_identical_program_data():
    sys = random_system(3, 2, 2, 0.9, Rng(51), sigma_w=0.2, sigma_eps=0.0)
    spec = OcpSpec(
        horizon=6,
        Q=np.eye(3),
        R=np.eye(2),
        h_x=0.25 * np.eye(3)[:2],
        u_set=InputBox(lo=-3 * np.ones(2), hi=3 * np.ones(2)),
        p=0.85,
        init=GaussianBelief(mean=0.1 * np.ones(3), cov=0.05 * np.eye(3)),
    )
    prog_ss = build_nominal_qp_statespace(sys, spec)
    prog_ms = build_nominal_qp_multistep(build_multistep(sys, 6), spec)
    for a, b in (
        (prog_ss.p_mat, prog_ms.p_mat),
        (prog_ss.q_vec, prog_ms.q_vec),
        (prog_ss.lin_a, prog_ms.lin_a),
        (prog_ss.lin_b, prog_ms.lin_b),
    ):
        scale = max(np.abs(a).max(initial=0.0), 1.0)
        assert np.abs(a - b).max(initial=0.0) <= 1e-12 * scale
    assert abs(prog_ss.constant - prog_ms.constant) <= 1e-12 * max(1.0, abs(prog_ss.constant))


def test_nominal_multistep_cost_independent_of_map_layout():
    # build_multistep's maps are C-ordered; g0_hat() of an estimate is a
    # Fortran-ordered view of theta.  Equal values must give equal bits.
    sys = random_system(4, 2, 2, 0.9, Rng(44), sigma_w=0.1, sigma_eps=0.0)
    spec = make_spec(sys, horizon=5, x0=0.3 * np.ones(4))
    ests, gw = perfect_estimates(sys, 5)
    prog_true = build_nominal_qp_multistep(build_multistep(sys, 5), spec)
    prog_est = build_nominal_qp_multistep(model_from_estimates(ests, gw, sys.sigma_w), spec)
    assert np.array_equal(prog_true.p_mat, prog_est.p_mat)
    assert np.array_equal(prog_true.q_vec, prog_est.q_vec)


def test_nominal_optimal_values_agree_across_routes():
    sys = random_system(3, 1, 2, 0.9, Rng(52), sigma_w=0.15, sigma_eps=0.0)
    spec = OcpSpec(
        horizon=8,
        Q=np.eye(3),
        R=np.array([[0.8]]),
        h_x=0.3 * np.eye(3)[:1],
        u_set=InputBox(lo=np.array([-2.0]), hi=np.array([2.0])),
        p=0.9,
        init=GaussianBelief(mean=np.array([0.8, -0.3, 0.2]), cov=0.02 * np.eye(3)),
    )
    s_ss = solve(build_nominal_qp_statespace(sys, spec))
    s_ms = solve(build_nominal_qp_multistep(build_multistep(sys, 8), spec))
    assert s_ss.status == s_ms.status == "Optimal"
    assert abs(s_ss.objective - s_ms.objective) <= 1e-6 * max(1.0, abs(s_ss.objective))
    assert np.abs(s_ss.primal - s_ms.primal).max() <= 1e-6


def test_perturbed_model_changes_optimizer():
    sys = random_system(2, 1, 1, 0.9, Rng(53), sigma_w=0.1, sigma_eps=0.0)
    spec = make_spec(sys, x0=np.array([1.0, 0.5]))
    model = build_multistep(sys, spec.horizon)
    sol_true = solve(build_nominal_qp_multistep(model, spec))
    from mspc.system import MultiStepModel

    perturbed = MultiStepModel(
        horizon=model.horizon,
        g0=[g * 1.15 for g in model.g0],
        gu=[g * 0.85 for g in model.gu],
        gw=model.gw,
        sigma_w=model.sigma_w,
    )
    sol_pert = solve(build_nominal_qp_multistep(perturbed, spec))
    assert sol_true.status == sol_pert.status == "Optimal"
    assert np.abs(sol_true.primal - sol_pert.primal).max() > 1e-4


def test_infeasible_initial_state_raises():
    sys = random_system(2, 1, 1, 0.8, Rng(54), sigma_w=0.1)
    spec = make_spec(sys, x0=np.array([10.0, 0.0]))  # H x0 = 4 > 1
    with pytest.raises(InfeasibleInitialState):
        build_nominal_qp_statespace(sys, spec)


# ---------------------------------------------------------------------------
# Tightening constants
# ---------------------------------------------------------------------------


def tightening_inputs(gen, n=2, m=1, q=1, k=3):
    sys = random_system(n, m, q, 0.9, gen, sigma_w=0.3, sigma_eps=0.01)
    model = build_multistep(sys, k)
    g0, gu, gw = model.step(k)
    dof = n * n + n * k * m
    f = gen.standard_normal((dof, dof))
    sigma_theta = 0.01 * (f @ f.T + 0.5 * np.eye(dof))
    h_row = gen.standard_normal(n)
    sigma_x0 = 0.05 * np.eye(n)
    return h_row, gw, g0, sys.sigma_w, sigma_x0, sym_sqrt(sigma_theta)


def test_tightening_zero_radius_is_nominal_std(gen):
    h_row, gw, g0, sw, sx0, s_half = tightening_inputs(gen)
    k = gw.shape[1] // sw.shape[0]
    val = tightening_constant_exact(h_row, gw, g0, sw, sx0, s_half, 0.0)
    cov = gw @ diag_repeat(sw, k) @ gw.T + g0 @ sx0 @ g0.T
    assert_allclose(val, math.sqrt(h_row @ cov @ h_row), rtol=1e-10)


def test_tightening_zero_initial_cov_exact_and_upper_coincide(gen):
    h_row, gw, g0, sw, _, s_half = tightening_inputs(gen)
    k = gw.shape[1] // sw.shape[0]
    sx0 = np.zeros_like(g0)
    radius = 2.5
    exact = tightening_constant_exact(h_row, gw, g0, sw, sx0, s_half, radius)
    upper = tightening_constant_upper(h_row, gw, g0, sw, sx0, s_half, radius)
    expected = np.linalg.norm(diag_repeat(sym_sqrt(sw), k) @ gw.T @ h_row)
    assert_allclose(exact, expected, rtol=1e-10)
    assert_allclose(upper, expected, rtol=1e-10)


def test_tightening_sampling_sandwich(gen):
    for _ in range(25):
        h_row, gw, g0, sw, sx0, s_half = tightening_inputs(gen)
        radius = float(1.0 + 2.0 * gen.uniform())
        exact = tightening_constant_exact(h_row, gw, g0, sw, sx0, s_half, radius)
        upper = tightening_constant_upper(h_row, gw, g0, sw, sx0, s_half, radius)
        assert exact <= upper + 1e-9
        # Sampled lower bound on the true maximum.
        dof = s_half.shape[0]
        dirs = gen.standard_normal((2000, dof))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        k = gw.shape[1] // sw.shape[0]
        n = g0.shape[0]
        sw_half = sym_sqrt(sw)
        sx_half = sym_sqrt(sx0)
        base = np.concatenate([
            diag_repeat(sw_half, k) @ (gw.T @ h_row), sx_half @ (g0.T @ h_row)
        ])
        sel = np.kron(sx_half, h_row[None, :]) @ s_half[: n * n, :]
        stack = np.vstack([np.zeros((k * sw.shape[0], dof)), sel])
        vals = np.linalg.norm(base[None, :] + radius * dirs @ stack.T, axis=1)
        assert exact >= vals.max() - 1e-6


def _estimate_cov(gen, dof, kind):
    """Full-rank, singular (rank about dof / 3) or zero parameter covariance."""
    if kind == "zero":
        return np.zeros((dof, dof))
    root = gen.standard_normal((dof, dof if kind == "full" else max(dof // 3, 1)))
    return 0.01 * root @ root.T


@given(
    n=st.integers(1, 3),
    m=st.integers(1, 2),
    horizon=st.integers(1, 4),
    rows=st.integers(1, 3),
    structure=st.sampled_from([STRUCTURE_FULL, STRUCTURE_FIR]),
    cov_kind=st.sampled_from(["full", "singular", "zero"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_tightening_table_matches_per_row_reference(n, m, horizon, rows, structure, cov_kind,
                                                    seed):
    # The table tightens all rows of a step at once with F = sqrt of the n^2 x n^2
    # G0 block of cov_k, and keeps that F; the per-(j, k) public constants with the
    # full sym_sqrt(cov_k) and with the table's own F are the reference.
    gen = np.random.default_rng(seed)
    sys = random_system(n, m, max(n - 1, 1), 0.9, gen, sigma_w=0.2)
    model = build_multistep(sys, horizon)
    spec = OcpSpec(
        horizon=horizon, Q=np.eye(n), R=np.eye(m), h_x=gen.standard_normal((rows, n)),
        u_set=None, p=0.9, init=GaussianBelief(mean=np.zeros(n), cov=_estimate_cov(gen, n, "full")),
    )
    ests = []
    for k in range(1, horizon + 1):
        g0, gu, _ = model.step(k)
        theta = true_theta(g0, gu, structure)
        ests.append(ParameterEstimate(k=k, structure=structure, theta=theta,
                                      cov=_estimate_cov(gen, theta.size, cov_kind), n=n, m=m))
    table = build_tightening_table(spec, ests, model.gw, sys.sigma_w, 0.95)
    assert sorted(table.h_exact) == [(j, k) for j in range(rows) for k in range(1, horizon + 1)]
    for k, est in enumerate(ests, start=1):
        factor, block = table.sigma_theta_half[k], est.cov[: n * n, : n * n]
        if structure == STRUCTURE_FIR:
            assert factor is None
        else:
            assert factor.shape == block.shape
            assert np.abs(factor @ factor.T - block).max() <= 1e-12 * max(np.abs(block).max(), 1.0)
        # cli's mean_param_scale reads r_k sqrt(tr(cov_k)) for r_k ||sqrt(cov_k)||_F.
        assert math.sqrt(np.trace(est.cov)) == pytest.approx(
            np.linalg.norm(sym_sqrt(est.cov)), rel=1e-10, abs=0.0)
    for (j, k), h_exact in table.h_exact.items():
        est = ests[k - 1]
        for factor in (sym_sqrt(est.cov), table.sigma_theta_half[k]):
            args = (spec.h_x[j], model.gw[k - 1], est.g0_hat(), sys.sigma_w, spec.init.cov,
                    factor, table.radius[k], structure)
            assert h_exact == pytest.approx(tightening_constant_exact(*args), rel=1e-12, abs=0.0)
            assert table.h_upper[(j, k)] == pytest.approx(tightening_constant_upper(*args),
                                                          rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# Robust program
# ---------------------------------------------------------------------------


def test_robust_reduces_to_nominal_row_for_row():
    sys = random_system(2, 1, 1, 0.85, Rng(55), sigma_w=0.1, sigma_eps=0.0)
    spec = make_spec(sys, horizon=5, x0=np.array([0.8, -0.2]))
    ests, gw = perfect_estimates(sys, 5)
    prog_rob = build_robust_socp_multistep(ests, spec, 1.0, gw, sys.sigma_w)
    prog_nom = build_nominal_qp_multistep(model_from_estimates(ests, gw, sys.sigma_w), spec)
    assert not prog_rob.soc_rows
    assert prog_rob.lin_a.shape == prog_nom.lin_a.shape
    # Both programs come from the same maps; only the back-offs are computed apart.
    for a, b in ((prog_rob.lin_a, prog_nom.lin_a), (prog_rob.p_mat, prog_nom.p_mat),
                 (prog_rob.q_vec, prog_nom.q_vec)):
        assert np.array_equal(a, b)
    b = prog_nom.lin_b
    assert np.abs(prog_rob.lin_b - b).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(b).max(initial=0.0))


def robust_loop_reference(estimates, spec, delta, gw, sigma_w, table=None):
    """Per-(step, row) construction that build_robust_socp_multistep replaced."""
    if delta <= spec.p:
        raise DeltaTooSmall(f"delta must exceed p = {spec.p}, got {delta}")
    if table is None:
        table = build_tightening_table(spec, estimates, gw, sigma_w, delta)
    _check_initial_state(spec, table.c_ptilde)

    n, m, n_u = spec.n, spec.m, spec.horizon
    dim = n_u * m
    x0 = spec.init.mean
    lin_rows, lin_offs, soc_rows = [], [], []
    for k in range(1, n_u + 1):
        est = estimates[k - 1]
        rad = table.radius[k]
        z_free = est.regressor(x0, np.zeros(k * m))
        g_cols, m_all = est.row_moments(spec.h_x)
        cone = rad > 0.0 and np.any(est.cov)
        if cone:
            lt_all = rad * np.swapaxes(psd_sqrt_factor(m_all), -1, -2)
        # One contiguous g per row: a dot with a strided column rounds differently.
        for j, g in enumerate(g_cols.T.copy()):
            c_vec = np.zeros(dim)
            c_vec[: k * m] = -g[g.size - k * m:]
            d_off = 1.0 - table.c_ptilde * table.h_exact[(j, k)] - float(z_free @ g)
            if cone:
                lt = lt_all[j]
                f_mat = np.zeros((lt.shape[0], dim))
                f_mat[:, : k * m] = lt[:, lt.shape[1] - k * m:]
                soc_rows.append(SocRow(f_mat=f_mat, g_vec=lt @ z_free, c_vec=c_vec, d_off=d_off))
            else:
                lin_rows.append(-c_vec)
                lin_offs.append(d_off)
    lin_a_state = np.vstack(lin_rows) if lin_rows else np.zeros((0, dim))
    lin_b_state = np.asarray(lin_offs, dtype=float)
    lin_a_input, lin_b_input = _input_rows(spec, dim)

    phi = [estimates[k - 1].g0_hat() for k in range(1, n_u + 1)]
    gamma = []
    for k in range(1, n_u + 1):
        gk = np.zeros((n, dim))
        gk[:, : k * m] = estimates[k - 1].gu_hat()
        gamma.append(gk)
    p_mat, q_vec, constant = _stacked_cost(phi, gamma, spec)

    prog = ConicProgram(
        p_mat=p_mat,
        q_vec=q_vec,
        constant=float(constant),
        lin_a=np.vstack([lin_a_state, lin_a_input]),
        lin_b=np.concatenate([lin_b_state, lin_b_input]),
        soc_rows=soc_rows,
        variable_map={
            "u": {"horizon": n_u, "m": m, "offset": 0},
            "kind": "robust_multistep",
            "p": spec.p,
            "delta": delta,
            "p_tilde": table.p_tilde,
            "backoff": "exact",
        },
    )
    prog.check_shapes()
    return prog


def no_negative_zero(a):
    return not np.any(np.signbit(a) & (a == 0.0))


@given(
    n=st.integers(1, 3),
    m=st.integers(1, 2),
    horizon=st.integers(1, 4),
    rows=st.integers(0, 3),
    structure=st.sampled_from([STRUCTURE_FULL, STRUCTURE_FIR]),
    cov_kind=st.sampled_from(["zero", "nonzero", "mixed"]),
    delta_one=st.booleans(),
    u_kind=st.sampled_from(["box", "polytope", "none"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_robust_matches_loop_reference(n, m, horizon, rows, structure, cov_kind, delta_one,
                                       u_kind, seed):
    # The robust program is the nominal multi-step assembly with robust
    # back-offs and cone terms; the per-(step, row) loop it replaced is the
    # reference.  delta = 1 is only valid with zero covariance.
    gen = np.random.default_rng(seed)
    q = n
    sigma_w = 0.1 * np.eye(q)
    ests, gw = [], []
    for k in range(1, horizon + 1):
        cols = (n if structure == STRUCTURE_FULL else 0) + k * m
        theta = gen.standard_normal(n * cols)
        zero = cov_kind == "zero" or (cov_kind == "mixed" and k % 2 == 0) or delta_one
        factor = gen.standard_normal((theta.size, theta.size))
        cov = np.zeros((theta.size,) * 2) if zero else 1e-3 * (factor @ factor.T + np.eye(theta.size))
        ests.append(ParameterEstimate(k=k, structure=structure, theta=theta, cov=cov, n=n, m=m))
        gw.append(gen.standard_normal((n, k * q)))
    if u_kind == "box":
        u_set = InputBox(lo=-gen.uniform(0.5, 2.0, m), hi=gen.uniform(0.5, 2.0, m))
    elif u_kind == "polytope":
        u_set = InputPolytope(h_mat=gen.standard_normal((2, m)), h_vec=gen.uniform(0.5, 2.0, 2))
    else:
        u_set = None
    spec = OcpSpec(
        horizon=horizon, Q=np.eye(n), R=np.eye(m), h_x=gen.uniform(-0.25, 0.25, (rows, n)),
        u_set=u_set, p=0.9,
        init=GaussianBelief(mean=gen.uniform(-0.3, 0.3, n), cov=0.01 * np.eye(n)),
    )
    delta = 1.0 if delta_one else 0.95
    table = build_tightening_table(spec, ests, gw, sigma_w, delta)
    prog = build_robust_socp_multistep(ests, spec, delta, gw, sigma_w, table=table)
    ref = robust_loop_reference(ests, spec, delta, gw, sigma_w, table=table)

    assert prog.lin_a.shape == ref.lin_a.shape and len(prog.soc_rows) == len(ref.soc_rows)
    assert prog.variable_map == ref.variable_map
    assert np.array_equal(prog.p_mat, ref.p_mat) and np.array_equal(prog.q_vec, ref.q_vec)
    assert prog.constant == ref.constant
    assert no_negative_zero(prog.lin_a)
    # Row entries h' Gu_k are sums of n products that the reference formed
    # as G_k' h, through a BLAS kernel chosen by shape (dot, gemv or gemm),
    # so they may round differently; offsets 1 - backoff - h' G0_k x0 sum
    # their free term in another order.
    dim = horizon * m
    row_scale, off_scale = {}, {}
    for k, est in enumerate(ests, start=1):
        for j, h in enumerate(spec.h_x):
            row_scale[(k, j)] = np.zeros(dim)
            row_scale[(k, j)][: k * m] = abs(h) @ abs(est.gu_hat())
            off_scale[(k, j)] = (1.0 + table.c_ptilde * table.h_exact[(j, k)]
                                 + abs(h) @ abs(est.g0_hat()) @ abs(spec.init.mean))
    cone_steps = [k for k in range(1, horizon + 1) if table.radius[k] > 0 and np.any(ests[k - 1].cov)]
    lin_keys = [(k, j) for k in range(1, horizon + 1) if k not in cone_steps for j in range(rows)]
    soc_keys = [(k, j) for k in cone_steps for j in range(rows)]
    for i, key in enumerate(lin_keys):
        assert np.all(abs(prog.lin_a[i] - ref.lin_a[i]) <= 1e-15 * row_scale[key])
        assert abs(prog.lin_b[i] - ref.lin_b[i]) <= 1e-13 * off_scale[key]
    n_state = len(lin_keys)
    assert np.array_equal(prog.lin_a[n_state:], ref.lin_a[n_state:])
    assert np.array_equal(prog.lin_b[n_state:], ref.lin_b[n_state:])
    for key, row, ref_row in zip(soc_keys, prog.soc_rows, ref.soc_rows):
        assert np.array_equal(row.f_mat, ref_row.f_mat) and np.array_equal(row.g_vec, ref_row.g_vec)
        assert np.all(abs(row.c_vec - ref_row.c_vec) <= 1e-15 * row_scale[key])
        assert abs(row.d_off - ref_row.d_off) <= 1e-13 * off_scale[key]
        assert all(map(no_negative_zero, (row.f_mat, row.g_vec, row.c_vec)))


def test_robust_rejects_delta_below_p():
    sys = random_system(2, 1, 1, 0.85, Rng(56), sigma_w=0.1)
    spec = make_spec(sys)
    ests, gw = perfect_estimates(sys, spec.horizon)
    with pytest.raises(DeltaTooSmall):
        build_robust_socp_multistep(ests, spec, spec.p, gw, sys.sigma_w)


def test_robust_cost_monotone_in_parameter_covariance():
    sys = random_system(2, 1, 1, 0.85, Rng(57), sigma_w=0.05, sigma_eps=0.0)
    spec = make_spec(sys, horizon=4, x0=np.array([1.2, 0.0]), h_scale=0.45)
    ests, gw = perfect_estimates(sys, 4)
    gen = Rng(58).generator()
    costs = []
    for scale in (1e-4, 4e-4):
        scaled = []
        for est in ests:
            f = gen  # deterministic basis below
            dof = est.dof
            base = np.eye(dof)
            scaled.append(
                ParameterEstimate(
                    k=est.k, structure=est.structure, theta=est.theta,
                    cov=scale * base, n=est.n, m=est.m,
                )
            )
        prog = build_robust_socp_multistep(scaled, spec, 0.95, gw, sys.sigma_w)
        sol = solve(prog)
        assert sol.status == "Optimal"
        costs.append(sol.objective)
    assert costs[1] >= costs[0] - 1e-9


def test_tightening_table_and_csv(tmp_path):
    sys = random_system(2, 1, 1, 0.85, Rng(59), sigma_w=0.1, sigma_eps=0.0)
    spec = make_spec(sys, horizon=3)
    ests, gw = perfect_estimates(sys, 3)
    for i, est in enumerate(ests):
        ests[i] = ParameterEstimate(
            k=est.k, structure=est.structure, theta=est.theta,
            cov=1e-4 * np.eye(est.dof), n=est.n, m=est.m,
        )
    table = build_tightening_table(spec, ests, gw, sys.sigma_w, 0.95)
    assert table.p_tilde == pytest.approx(spec.p / 0.95)
    for key, h in table.h_exact.items():
        assert h <= table.h_upper[key] + 1e-9
    # Each step's h_exact are certified by their S-lemma dual bounds.
    assert sorted(table.certificate_gap) == [1, 2, 3]
    assert all(abs(gap) <= 1e-12 for gap in table.certificate_gap.values())
    assert (tightening_to_json(table)["max_certificate_gap"]
            == max(table.certificate_gap.values()))
    path = tmp_path / "tightening.csv"
    columns = ("j", "k", "h_exact", "h_upper", "radius")
    rows = tightening_to_json(table)["rows"]
    assert all(tuple(row) == columns for row in rows)
    _write_csv(path, columns, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "j,k,h_exact,h_upper,radius"
    assert len(lines) == 1 + 3 * spec.n_rows
    for line, (j, k) in zip(lines[1:], sorted(table.h_exact)):
        assert line == (f"{j},{k},{table.h_exact[(j, k)]!r},{table.h_upper[(j, k)]!r},"
                        f"{table.radius[k]!r}")


def test_robust_certifiable_program_is_solvable():
    sys = random_system(2, 1, 2, 0.85, Rng(60), sigma_w=0.02, sigma_eps=0.0)
    spec = make_spec(sys, horizon=4, x0=np.array([1.0, 0.3]), h_scale=0.4)
    ests, gw = perfect_estimates(sys, 4)
    bumped = [
        ParameterEstimate(
            k=e.k, structure=e.structure, theta=e.theta,
            cov=1e-5 * np.eye(e.dof), n=e.n, m=e.m,
        )
        for e in ests
    ]
    prog = build_robust_socp_multistep(bumped, spec, 0.95, gw, sys.sigma_w)
    assert prog.soc_rows  # nonzero covariance produces cone rows
    sol = solve(prog)
    assert sol.status == "Optimal"
    assert sol.kkt.max() <= 1e-7


# ---------------------------------------------------------------------------
# Scenario baseline
# ---------------------------------------------------------------------------


def minmax_setup(seed=61, sigma_theta=0.0, h_scale=0.35):
    sys = random_system(2, 1, 2, 0.8, Rng(seed), sigma_w=0.05, sigma_eps=0.0)
    spec = make_spec(sys, horizon=4, x0=np.array([0.9, -0.4]), h_scale=h_scale)
    theta = true_theta(sys.A, sys.B)
    est = ParameterEstimate(
        k=1, structure=STRUCTURE_FULL, theta=theta,
        cov=sigma_theta * np.eye(theta.size), n=2, m=1,
    )
    return sys, spec, est


def minmax_loop_reference(est, spec, delta, n_scenarios, rng, e_mat, sigma_w):
    """Per-scenario loop that formulate_minmax_statespace replaced: linear state
    rows and one epigraph cone row per scenario, one scenario at a time."""
    n, m, n_u = spec.n, spec.m, spec.horizon
    rad = est.radius(delta)
    c_pt = gaussian_backoff(spec.p / delta)
    _check_initial_state(spec, c_pt)
    s_half = sym_sqrt(est.cov)
    gen = generator_of(rng)
    offsets = [np.zeros(est.dof)]
    for i in range(1, n_scenarios):
        direction = gen.standard_normal(est.dof)
        direction /= max(float(np.linalg.norm(direction)), 1e-300)
        shrink = gen.uniform() ** (1.0 / est.dof)
        scale = 1.0 if i % 2 == 1 else shrink
        offsets.append(rad * scale * (s_half @ direction))
    dim = n_u * m + 1
    t_index = n_u * m
    base_theta = np.hstack([est.g0_hat(), est.gu_hat()])
    q_bar = diag_repeat(spec.Q, n_u)
    r_bar = diag_repeat(spec.R, n_u)
    noise_cov = e_mat @ sigma_w @ e_mat.T
    lin_rows, lin_offs, soc_rows = [], [], []
    for theta_off in offsets:
        ab = base_theta + theta_off.reshape(n, n + m, order="F")
        a_mat, b_mat = ab[:, :n], ab[:, n:]
        phi, gamma = _mean_maps(a_mat, b_mat, n_u)
        covs = []
        cov = spec.init.cov
        for _ in range(n_u):
            cov = a_mat @ cov @ a_mat.T + noise_cov
            covs.append(cov)
        rows, offs = _state_rows(phi, gamma, spec, _gaussian_backoffs(covs, spec, c_pt))
        lin_rows.append(np.hstack([rows, np.zeros((rows.shape[0], 1))]))
        lin_offs.append(offs)
        phi_bar = np.vstack(phi)
        gamma_bar = np.vstack(gamma)
        m_mat = gamma_bar.T @ q_bar @ gamma_bar + r_bar
        beta = gamma_bar.T @ (q_bar @ (phi_bar @ spec.init.mean))
        free = phi_bar @ spec.init.mean
        trace_term = sum(float(np.trace(spec.Q @ c)) for c in covs)
        c_const = float(free @ q_bar @ free) + trace_term
        chol = scipy.linalg.cholesky(m_mat, lower=True)
        w_vec = scipy.linalg.solve_triangular(chol, beta, lower=True)
        c_shift = c_const - float(w_vec @ w_vec)
        f_mat = np.zeros((n_u * m + 1, dim))
        f_mat[: n_u * m, : n_u * m] = 2.0 * chol.T
        f_mat[-1, t_index] = 1.0
        g_vec = np.concatenate([2.0 * w_vec, [-c_shift - 1.0]])
        c_vec = np.zeros(dim)
        c_vec[t_index] = 1.0
        soc_rows.append(SocRow(f_mat=f_mat, g_vec=g_vec, c_vec=c_vec, d_off=1.0 - c_shift))
    lin_a_input, lin_b_input = _input_rows(spec, dim)
    return (np.vstack(lin_rows + [lin_a_input]), np.concatenate(lin_offs + [lin_b_input]),
            soc_rows)


@given(
    n=st.integers(1, 3),
    m=st.integers(1, 2),
    horizon=st.integers(1, 5),
    rows=st.integers(1, 3),
    n_scenarios=st.integers(1, 7),
    sigma_theta=st.sampled_from([0.0, 1e-4, 1e-2]),
    seed=st.integers(0, 2**32 - 1),
)
# A case where a batched einsum for the row variances sums in another order
# than the per-scenario call, so the rows would differ in the last bit.
@example(n=2, m=2, horizon=1, rows=1, n_scenarios=4, sigma_theta=1e-2, seed=210)
def test_minmax_scenario_stack_matches_loop_reference(n, m, horizon, rows, n_scenarios,
                                                      sigma_theta, seed):
    gen = np.random.default_rng(seed)
    q = max(n - 1, 1)
    sys = random_system(n, m, q, 0.9, gen, sigma_w=0.05)
    spec = OcpSpec(
        horizon=horizon, Q=np.eye(n), R=0.5 * np.eye(m), h_x=0.3 * gen.standard_normal((rows, n)),
        u_set=InputBox(lo=-2.0 * np.ones(m), hi=2.0 * np.ones(m)), p=0.9,
        init=GaussianBelief(mean=0.2 * gen.standard_normal(n), cov=0.01 * np.eye(n)),
    )
    theta = true_theta(sys.A, sys.B)
    est = ParameterEstimate(k=1, structure=STRUCTURE_FULL, theta=theta,
                            cov=_estimate_cov(gen, theta.size, "full") * sigma_theta / 0.01,
                            n=n, m=m)
    prog = formulate_minmax_statespace(est, spec, 0.95, n_scenarios, Rng(seed % 1000),
                                       sys.E, sys.sigma_w)
    lin_a, lin_b, soc_rows = minmax_loop_reference(est, spec, 0.95, n_scenarios,
                                                   Rng(seed % 1000), sys.E, sys.sigma_w)
    assert np.array_equal(prog.lin_a, lin_a)
    assert np.array_equal(prog.lin_b, lin_b)
    assert len(prog.soc_rows) == len(soc_rows) == n_scenarios
    for got, ref in zip(prog.soc_rows, soc_rows):
        assert np.array_equal(got.c_vec, ref.c_vec)
        for a, b in ((got.f_mat, ref.f_mat), (got.g_vec, ref.g_vec)):
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()
        # d = 1 - c_shift cancels when c_shift is near 1: compare at c_shift's scale.
        assert abs(got.d_off - ref.d_off) <= 1e-13 * (1.0 + abs(ref.d_off))


def test_minmax_single_nominal_scenario_matches_inflated_qp():
    sys, spec, est = minmax_setup()
    prog = formulate_minmax_statespace(est, spec, 0.95, 1, Rng(62), sys.E, sys.sigma_w)
    sol = solve(prog)
    assert sol.status == "Optimal"
    spec_pt = OcpSpec(
        horizon=spec.horizon, Q=spec.Q, R=spec.R, h_x=spec.h_x,
        u_set=spec.u_set, p=spec.p / 0.95, init=spec.init,
    )
    sol_nom = solve(build_nominal_qp_statespace(sys, spec_pt))
    assert sol_nom.status == "Optimal"
    u_len = spec.horizon * spec.m
    assert np.abs(sol.primal[:u_len] - sol_nom.primal).max() <= 1e-5
    # Epigraph value = nominal cost plus the trace terms.
    noise_cov = sys.E @ sys.sigma_w @ sys.E.T
    cov = spec.init.cov
    trace_term = 0.0
    for _ in range(spec.horizon):
        cov = sys.A @ cov @ sys.A.T + noise_cov
        trace_term += float(np.trace(spec.Q @ cov))
    assert abs(sol.objective - (sol_nom.objective + trace_term)) <= 1e-5 * max(
        1.0, abs(sol.objective)
    )


def test_minmax_tiny_uncertainty_continuity():
    sys, spec, est = minmax_setup(seed=63, sigma_theta=1e-12)
    prog = formulate_minmax_statespace(est, spec, 0.95, 8, Rng(64), sys.E, sys.sigma_w)
    sol = solve(prog)
    spec_pt = OcpSpec(
        horizon=spec.horizon, Q=spec.Q, R=spec.R, h_x=spec.h_x,
        u_set=spec.u_set, p=spec.p / 0.95, init=spec.init,
    )
    sol_nom = solve(build_nominal_qp_statespace(sys, spec_pt))
    u_len = spec.horizon * spec.m
    assert sol.status == "Optimal"
    assert np.abs(sol.primal[:u_len] - sol_nom.primal).max() <= 1e-6 * 10


def test_minmax_cost_monotone_in_scenarios():
    sys, spec, est = minmax_setup(seed=65, sigma_theta=1e-4)
    costs = []
    for n_sc in (1, 4, 16):
        prog = formulate_minmax_statespace(est, spec, 0.95, n_sc, Rng(66), sys.E, sys.sigma_w)
        sol = solve(prog)
        assert sol.status == "Optimal"
        costs.append(sol.objective)
    assert costs[0] <= costs[1] + 1e-7
    assert costs[1] <= costs[2] + 1e-7


def test_minmax_rejects_delta_below_p():
    sys, spec, est = minmax_setup(seed=67)
    with pytest.raises(DeltaTooSmall):
        formulate_minmax_statespace(est, spec, 0.5, 4, Rng(68), sys.E, sys.sigma_w)


def test_minmax_delta_one_needs_zero_covariance():
    # delta = 1 means no parametric uncertainty: with a non-zero covariance
    # the scenario baseline must refuse it, as the tightening table does,
    # rather than quietly drop the perturbed scenarios.
    sys, spec, est = minmax_setup(seed=69, sigma_theta=1e-4)
    ests, gw = perfect_estimates(sys, spec.horizon)
    ests = [replace(e, cov=1e-4 * np.eye(e.dof)) for e in ests]
    with pytest.raises(DomainError):
        build_tightening_table(spec, ests, gw, sys.sigma_w, 1.0)
    with pytest.raises(DomainError):
        formulate_minmax_statespace(est, spec, 1.0, 4, Rng(70), sys.E, sys.sigma_w)
    # With an exactly zero covariance every scenario is the nominal one.
    zero = replace(est, cov=np.zeros_like(est.cov))
    prog = formulate_minmax_statespace(zero, spec, 1.0, 4, Rng(70), sys.E, sys.sigma_w)
    assert all(np.array_equal(row.f_mat, prog.soc_rows[0].f_mat) for row in prog.soc_rows)


def assert_certified_for_full_program(prog, sol):
    """Every row holds at the returned point, and the full-program KKT check passes."""
    opts = SolverOptions()
    tol = opts.feasibility_tolerance * max(1.0, np.abs(prog.lin_b).max(initial=0.0))
    z = sol.primal
    assert np.all(prog.lin_a @ z - prog.lin_b <= tol)
    for row in prog.soc_rows:
        assert np.linalg.norm(row.f_mat @ z + row.g_vec) - (row.c_vec @ z + row.d_off) <= tol
    assert sol.dual_lin.size == prog.lin_b.size and len(sol.dual_soc) == len(prog.soc_rows)
    assert _kkt_acceptable(prog, replace(sol, kkt=check_kkt(prog, sol)), opts)


@given(
    n=st.integers(1, 3),
    m=st.integers(1, 2),
    horizon=st.integers(1, 5),
    rows=st.integers(1, 3),
    n_scenarios=st.integers(1, 7),
    sigma_theta=st.sampled_from([0.0, 1e-4, 1e-2]),
    h_scale=st.sampled_from([0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_scenario_working_set_matches_full_solve(n, m, horizon, rows, n_scenarios, sigma_theta,
                                                 h_scale, seed):
    gen = np.random.default_rng(seed)
    sys = random_system(n, m, max(n - 1, 1), 0.9, gen, sigma_w=0.05)
    spec = OcpSpec(
        horizon=horizon, Q=np.eye(n), R=0.5 * np.eye(m),
        h_x=h_scale * gen.standard_normal((rows, n)),
        u_set=InputBox(lo=-2.0 * np.ones(m), hi=2.0 * np.ones(m)), p=0.9,
        init=GaussianBelief(mean=0.2 * gen.standard_normal(n), cov=0.01 * np.eye(n)),
    )
    theta = true_theta(sys.A, sys.B)
    est = ParameterEstimate(k=1, structure=STRUCTURE_FULL, theta=theta,
                            cov=_estimate_cov(gen, theta.size, "full") * sigma_theta / 0.01,
                            n=n, m=m)
    try:
        prog = formulate_minmax_statespace(est, spec, 0.95, n_scenarios, Rng(seed % 1000),
                                           sys.E, sys.sigma_w)
    except InfeasibleInitialState:
        return
    assert prog.start_set[0].size == horizon * rows + 2 * horizon * m
    sol = solve(prog)
    ref = solve(replace(prog, start_set=None))
    assert sol.status == ref.status
    assert not sol.fallback
    if ref.status == "Optimal":
        # Each solve stops at a duality gap of 1e-9 max(1, |f|): the same relative
        # scale bounds how far two correct solves can differ.
        assert abs(sol.objective - ref.objective) <= 1e-9 * max(1.0, abs(ref.objective))
        assert_certified_for_full_program(prog, sol)


def binding_later_scenario_program():
    """Eight scenarios whose optimum binds a state row of scenario 1 (found by search)."""
    sys, spec, est = minmax_setup(seed=65, sigma_theta=1e-2, h_scale=0.6)
    return formulate_minmax_statespace(est, spec, 0.95, 8, Rng(66), sys.E, sys.sigma_w), spec


def test_scenario_working_set_adds_binding_later_scenario_row():
    prog, spec = binding_later_scenario_program()
    start = prog.start_set[0]
    sol = solve(prog)
    assert sol.status == "Optimal"
    assert sol.rounds >= 2 and sol.working_set[0] > start.size
    # Row 5 is scenario 1's second step: outside the start set, active at the optimum.
    later = spec.horizon * spec.n_rows + 1
    assert later not in start and sol.dual_lin[later] > 1.0
    assert abs(prog.lin_a[later] @ sol.primal - prog.lin_b[later]) <= 1e-7
    ref = solve(replace(prog, start_set=None))
    assert abs(sol.objective - ref.objective) <= 1e-9 * max(1.0, abs(ref.objective))
    assert_certified_for_full_program(prog, sol)


def test_scenario_round_not_optimal_solves_full_program():
    prog, _ = binding_later_scenario_program()
    opts = SolverOptions(max_iterations=1)
    sol = solve(prog, opts)
    ref = solve(replace(prog, start_set=None), opts)
    assert sol.fallback and not ref.fallback
    assert sol.rounds == 2 and sol.iterations == 2
    assert sol.working_set == (prog.lin_b.size, len(prog.soc_rows))
    assert sol.status == ref.status
    assert np.array_equal(sol.primal, ref.primal)


def test_scenario_solve_enters_public_solve_once(monkeypatch):
    prog, _ = binding_later_scenario_program()
    calls = []
    public = solver.solve

    def counting(*args, **kwargs):
        calls.append(args)
        return public(*args, **kwargs)

    monkeypatch.setattr(solver, "solve", counting)
    sol = solver.solve(prog)
    assert sol.rounds >= 2
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_program_json_round_trip(tmp_path):
    sys = random_system(2, 1, 1, 0.85, Rng(69), sigma_w=0.05, sigma_eps=0.0)
    spec = make_spec(sys, horizon=3, x0=np.array([0.9, 0.1]))
    ests, gw = perfect_estimates(sys, 3)
    bumped = [
        ParameterEstimate(
            k=e.k, structure=e.structure, theta=e.theta,
            cov=1e-5 * np.eye(e.dof), n=e.n, m=e.m,
        )
        for e in ests
    ]
    prog = build_robust_socp_multistep(bumped, spec, 0.95, gw, sys.sigma_w)
    path = tmp_path / "program.json"
    _write_json(path, program_to_json(prog))
    doc = json.loads(path.read_text())
    assert doc == program_to_json(prog)

    def same(values, array):
        return np.array_equal(np.array(values, dtype=float).reshape(array.shape), array)

    assert same(doc["P"], prog.p_mat) and same(doc["q"], prog.q_vec)
    assert same(doc["lin_a"], prog.lin_a) and same(doc["lin_b"], prog.lin_b)
    assert doc["constant"] == prog.constant and doc["variable_map"] == prog.variable_map
    assert len(doc["soc_rows"]) == len(prog.soc_rows) > 0
    for row_doc, row in zip(doc["soc_rows"], prog.soc_rows):
        assert same(row_doc["F"], row.f_mat) and same(row_doc["g"], row.g_vec)
        assert same(row_doc["c"], row.c_vec) and row_doc["d"] == row.d_off


def test_robust_cost_nests_in_probability_level():
    sys = random_system(2, 1, 1, 0.85, Rng(70), sigma_w=0.05, sigma_eps=0.0)
    spec_lo = make_spec(sys, horizon=4, p=0.85, x0=np.array([1.3, 0.1]), h_scale=0.5)
    spec_hi = make_spec(sys, horizon=4, p=0.9, x0=np.array([1.3, 0.1]), h_scale=0.5)
    ests, gw = perfect_estimates(sys, 4)
    bumped = [
        ParameterEstimate(
            k=e.k, structure=e.structure, theta=e.theta,
            cov=1e-5 * np.eye(e.dof), n=e.n, m=e.m,
        )
        for e in ests
    ]
    sol_lo = solve(build_robust_socp_multistep(bumped, spec_lo, 0.95, gw, sys.sigma_w))
    sol_hi = solve(build_robust_socp_multistep(bumped, spec_hi, 0.95, gw, sys.sigma_w))
    assert sol_lo.status == sol_hi.status == "Optimal"
    assert sol_hi.objective >= sol_lo.objective - 1e-9


def test_robust_soc_rows_encode_the_tightened_inequality():
    # Evaluate each cone row at a generic (non-optimal) point and compare
    # against the directly computed tightened constraint margin, for a
    # correlated parameter covariance, two rows and both structures.
    sys = random_system(2, 1, 1, 0.85, Rng(71), sigma_w=0.05, sigma_eps=0.0)
    spec = replace(make_spec(sys, horizon=3, x0=np.array([1.0, 0.2])),
                   h_x=np.array([[0.4, 0.0], [-0.1, 0.3]]))
    ests, gw = perfect_estimates(sys, 3)
    gen = Rng(76).generator()
    u = np.array([0.3, -0.4, 0.1])
    x0 = spec.init.mean
    for structure in (STRUCTURE_FULL, STRUCTURE_FIR):
        bumped = []
        for e in ests:
            theta = e.theta if structure == STRUCTURE_FULL else e.theta[e.n * e.n:]
            root = gen.standard_normal((theta.size, theta.size))
            bumped.append(ParameterEstimate(
                k=e.k, structure=structure, theta=theta,
                cov=1e-4 * (np.eye(theta.size) + root @ root.T / theta.size), n=e.n, m=e.m,
            ))
        table = build_tightening_table(spec, bumped, gw, sys.sigma_w, 0.95)
        prog = build_robust_socp_multistep(bumped, spec, 0.95, gw, sys.sigma_w, table=table)
        assert len(prog.soc_rows) == 3 * spec.n_rows
        for k in (1, 2, 3):
            est = bumped[k - 1]
            zvec = u[:k] if structure == STRUCTURE_FIR else np.concatenate([x0, u[:k]])
            for j, h in enumerate(spec.h_x):
                mean_val = float(h @ (est.g0_hat() @ x0 + est.gu_hat() @ u[:k]))
                param = table.radius[k] * float(
                    np.linalg.norm(sym_sqrt(est.cov) @ np.kron(zvec, h))
                )
                intended = mean_val + param - (1.0 - table.c_ptilde * table.h_exact[(j, k)])
                row = prog.soc_rows[(k - 1) * spec.n_rows + j]
                assert row.f_mat.shape[0] <= est.dof // est.n
                actual = float(
                    np.linalg.norm(row.f_mat @ u + row.g_vec) - (row.c_vec @ u + row.d_off)
                )
                assert abs(intended - actual) <= 1e-12


def test_nominal_rows_encode_the_tightened_inequality():
    sys = random_system(2, 1, 2, 0.85, Rng(72), sigma_w=0.1, sigma_eps=0.0)
    spec = make_spec(sys, horizon=4, x0=np.array([0.7, -0.1]), h_scale=0.3)
    prog = build_nominal_qp_statespace(sys, spec)
    u = Rng(73).generator().standard_normal(4)
    backoff = gaussian_backoff(spec.p)
    x = spec.init.mean
    cov = spec.init.cov
    noise_cov = sys.E @ sys.sigma_w @ sys.E.T
    h = spec.h_x[0]
    for k in range(1, 5):
        x = sys.A @ x + sys.B @ u[k - 1: k]
        cov = sys.A @ cov @ sys.A.T + noise_cov
        intended = float(h @ x) + backoff * math.sqrt(h @ cov @ h) - 1.0
        row_idx = k - 1  # one state row per step here (single constraint row)
        actual = float(prog.lin_a[row_idx] @ u - prog.lin_b[row_idx])
        assert abs(intended - actual) <= 1e-10


def test_fir_program_independent_of_initial_mean():
    gen = Rng(74).generator()
    src = build_multistep(random_system(2, 1, 1, 0.9, gen, sigma_w=0.05), 4)
    from mspc.system import MultiStepModel

    fir = MultiStepModel(
        horizon=4,
        g0=[np.zeros((2, 2)) for _ in range(4)],
        gu=src.gu,
        gw=src.gw,
        sigma_w=src.sigma_w,
    )
    sys_dummy = random_system(2, 1, 1, 0.9, Rng(75), sigma_w=0.05)
    base = make_spec(sys_dummy, horizon=4, h_scale=0.3)
    progs = []
    for x0 in (np.array([0.4, -0.2]), np.array([-0.9, 0.6])):
        spec = OcpSpec(
            horizon=4, Q=base.Q, R=base.R, h_x=base.h_x, u_set=base.u_set,
            p=base.p, init=GaussianBelief(mean=x0, cov=base.init.cov),
        )
        progs.append(build_nominal_qp_multistep(fir, spec))
    a, b = progs
    assert np.array_equal(a.lin_a, b.lin_a)
    assert np.array_equal(a.lin_b, b.lin_b)
    assert np.array_equal(a.p_mat, b.p_mat)
    assert np.array_equal(a.q_vec, b.q_vec)
    assert a.constant == b.constant == 0.0


@given(
    n=st.integers(1, 3),
    m=st.integers(1, 2),
    horizon=st.integers(1, 4),
    rows=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_state_rows_match_loop_reference(n, m, horizon, rows, seed):
    # The nominal and scenario programs build their state rows in one array
    # pass; the per-(step, row) loop they replaced is the reference.
    gen = np.random.default_rng(seed)
    sys = random_system(n, m, n, 0.9, gen)
    phi, gamma = _mean_maps(sys.A, sys.B, horizon)
    covs = [r @ r.T for r in gen.standard_normal((horizon, n, n))]
    spec = OcpSpec(
        horizon=horizon, Q=np.eye(n), R=np.eye(m), h_x=gen.standard_normal((rows, n)),
        u_set=None, p=0.9, init=GaussianBelief(mean=gen.standard_normal(n), cov=np.eye(n)),
    )
    lin_a, lin_b = _state_rows(phi, gamma, spec, _gaussian_backoffs(covs, spec, 1.3))
    assert lin_a.shape == (horizon * rows, horizon * m) and lin_b.shape == (horizon * rows,)
    for k in range(1, horizon + 1):
        for j, h in enumerate(spec.h_x):
            i = (k - 1) * rows + j
            std = math.sqrt(float(h @ covs[k - 1] @ h))
            free = float(h @ (phi[k - 1] @ spec.init.mean))
            scale = 1.0 + 1.3 * std + abs(h) @ abs(phi[k - 1]) @ abs(spec.init.mean)
            assert_allclose(lin_a[i], h @ gamma[k - 1], rtol=1e-13, atol=1e-13)
            assert abs(lin_b[i] - (1.0 - 1.3 * std - free)) <= 1e-13 * scale


def input_rows_loop_reference(spec, dim):
    """Per-step, per-input loop that _input_rows replaced."""
    rows, offs = [], []
    for k in range(spec.horizon):
        base = k * spec.m
        if isinstance(spec.u_set, InputBox):
            for i in range(spec.m):
                for sign, bound in ((1.0, spec.u_set.hi[i]), (-1.0, -spec.u_set.lo[i])):
                    if math.isfinite(bound):
                        row = np.zeros(dim)
                        row[base + i] = sign
                        rows.append(row)
                        offs.append(bound)
        elif spec.u_set is not None:
            for hrow, hoff in zip(spec.u_set.h_mat, spec.u_set.h_vec):
                row = np.zeros(dim)
                row[base: base + spec.m] = hrow
                rows.append(row)
                offs.append(hoff)
    return (np.vstack(rows) if rows else np.zeros((0, dim))), np.asarray(offs, dtype=float)


@given(
    m=st.integers(1, 3),
    horizon=st.integers(1, 5),
    kind=st.sampled_from(["box", "polytope", "none"]),
    extra=st.integers(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_input_rows_match_loop_reference(m, horizon, kind, extra, seed):
    gen = np.random.default_rng(seed)
    if kind == "box":
        lo, hi = -gen.uniform(0.5, 2.0, m), gen.uniform(0.5, 2.0, m)
        lo[gen.uniform(size=m) < 0.3] = -np.inf
        hi[gen.uniform(size=m) < 0.3] = np.inf
        u_set = InputBox(lo=lo, hi=hi)
    elif kind == "polytope":
        rows = int(gen.integers(1, 5))
        u_set = InputPolytope(h_mat=gen.standard_normal((rows, m)),
                              h_vec=gen.uniform(0.5, 2.0, rows))
    else:
        u_set = None
    spec = OcpSpec(horizon=horizon, Q=np.eye(1), R=np.eye(m), h_x=np.zeros((0, 1)),
                   u_set=u_set, p=0.9, init=GaussianBelief(mean=[0.0], cov=[[1.0]]))
    dim = horizon * m + extra
    lin_a, lin_b = _input_rows(spec, dim)
    ref_a, ref_b = input_rows_loop_reference(spec, dim)
    assert lin_a.shape == ref_a.shape and np.array_equal(lin_a, ref_a)
    assert not np.any(np.signbit(lin_a) & (lin_a == 0.0))   # no -0.0 in the JSON
    assert np.array_equal(lin_b, ref_b)


@pytest.mark.parametrize("lo, hi", [
    ([np.nan], [2.0]), ([-2.0], [np.nan]), ([1.0], [1.0]), ([-1.0, 3.0], [1.0, 2.0]),
], ids=["nan_lo", "nan_hi", "empty", "inverted"])
def test_input_box_rejects_nan_and_empty_bounds(lo, hi):
    # A NaN bound compares False both ways; accepted, _input_rows would drop
    # its row as non-finite and leave the input unbounded.
    with pytest.raises(DomainError, match="nonempty interior"):
        InputBox(lo=lo, hi=hi)
    box = InputBox(lo=[-np.inf, -1.0], hi=[2.0, np.inf])   # infinite bounds stay allowed
    assert np.array_equal(box.hi, [2.0, np.inf])


@pytest.mark.parametrize("h", [[1.0, 0.0], [1.0, -0.5], [1.0, np.nan]])
def test_input_polytope_needs_zero_strictly_inside(h):
    with pytest.raises(DomainError, match="strictly"):
        InputPolytope(h_mat=np.eye(2), h_vec=h)

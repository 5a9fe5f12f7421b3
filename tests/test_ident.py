import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose
from scipy.stats import chi2

from mspc import linalg
from mspc.cli import _identify_all, _probe_and_simulate, _write_json, load_config, make_system
from mspc.errors import (DimensionMismatch, DomainError, InsufficientData, NotSymmetric,
                         SingularInformation)
from mspc.ident import (
    STRUCTURE_FIR,
    STRUCTURE_FULL,
    ParameterEstimate,
    RegressionProblem,
    ResidualCovariance,
    build_regression,
    estimate_from_json,
    estimate_predictor,
    estimate_to_json,
    mle_estimate,
    model_from_estimates,
    naive_ls,
    residual_covariance,
    state_space_ls,
    true_theta,
)
from mspc.linalg import Rng, psd_sqrt_factor, vec
from mspc.system import GaussianBelief, LinearSystem, build_multistep, random_system, simulate


def noise_free_data(sys, t_len, seed=0, input_std=1.0):
    gen = Rng(seed).generator()
    u = input_std * gen.standard_normal((t_len, sys.m))
    init = GaussianBelief(mean=gen.standard_normal(sys.n), cov=np.zeros((sys.n, sys.n)))
    return simulate(sys, init, u, gen)


def mc_residual_covariance_scalar(a, e, sw, se, k, t_len, n_draws, gen):
    """Oracle: empirical covariance of simulated k-step residuals, n = q = 1.

    The residual is independent of inputs and the initial state, so both are
    zero in the simulation.
    """
    w = np.sqrt(sw) * gen.standard_normal((n_draws, t_len))
    eps = np.sqrt(se) * gen.standard_normal((n_draws, t_len + 1))
    x = np.zeros((n_draws, t_len + 1))
    for t in range(t_len):
        x[:, t + 1] = a * x[:, t] + e * w[:, t]
    xm = x + eps
    g0 = a**k
    resid = xm[:, k:] - g0 * xm[:, : t_len - k + 1]
    return np.cov(resid.T)


def residual_covariance_reference(gw, g0, sigma_w, sigma_eps, k, t_len):
    """Oracle: S = M diag(sigma) M' from the map M of (w_0..w_{T-1}, eps_0..eps_T) to residuals.

    The residual of window j is Gw_k [w_j; ...; w_{j+k-1}] - G0_k eps_j + eps_{j+k}.
    """
    n, q = g0.shape[0], sigma_w.shape[0]
    windows = t_len - k + 1
    m_w = np.zeros((n * windows, q * t_len))
    m_eps = np.zeros((n * windows, n * (t_len + 1)))
    for j in range(windows):
        rows = slice(j * n, (j + 1) * n)
        m_w[rows, j * q: (j + k) * q] = gw
        m_eps[rows, j * n: (j + 1) * n] = -g0
        m_eps[rows, (j + k) * n: (j + k + 1) * n] += np.eye(n)
    return (m_w @ np.kron(np.eye(t_len), sigma_w) @ m_w.T
            + m_eps @ np.kron(np.eye(t_len + 1), sigma_eps) @ m_eps.T)


def dense_whitened_mle(reg, s):
    """Reference: dense Cholesky whitening of the stacked regression, then the normal equations."""
    chol = scipy.linalg.cholesky(s, lower=True)
    phi_w = scipy.linalg.solve_triangular(chol, reg.regressor, lower=True)
    y_w = scipy.linalg.solve_triangular(chol, reg.targets, lower=True)
    info = phi_w.T @ phi_w
    factor = scipy.linalg.cho_factor(0.5 * (info + info.T))
    cov = scipy.linalg.cho_solve(factor, np.eye(reg.dof))
    return scipy.linalg.cho_solve(factor, phi_w.T @ y_w), 0.5 * (cov + cov.T)


# ---------------------------------------------------------------------------
# build_regression
# ---------------------------------------------------------------------------


def test_regression_scalar_expansion():
    sys = LinearSystem(
        A=np.array([[0.5]]), B=np.array([[1.0]]), E=np.array([[1.0]]),
        sigma_w=np.zeros((1, 1)), sigma_eps=np.zeros((1, 1)),
    )
    traj = noise_free_data(sys, 2, seed=1)
    reg = build_regression(traj, 1)
    xm, u = traj.measurements[:, 0], traj.inputs[:, 0]
    assert_allclose(reg.regressor, [[xm[0], u[0]], [xm[1], u[1]]])
    assert_allclose(reg.targets, [xm[1], xm[2]])


def assert_regression_layout(reg, z, band):
    """``reg.system`` is Fortran-ordered [z kron I_n, targets], and the MLE reads the same
    numbers, bit for bit, from a C-ordered copy of it."""
    assert reg.system.flags.f_contiguous
    assert np.array_equal(reg.regressor, np.kron(z, np.eye(reg.n)))
    assert reg.dof == reg.regressor.shape[1] and reg.rows == reg.regressor.shape[0]
    c_ordered = replace(reg, system=np.ascontiguousarray(reg.system))
    assert c_ordered.system.flags.c_contiguous
    cov = ResidualCovariance(k=reg.k, band=band)
    est, est_c = mle_estimate(reg, cov), mle_estimate(c_ordered, cov)
    assert est.theta.tobytes() == est_c.theta.tobytes()
    assert est.cov.tobytes() == est_c.cov.tobytes()


def test_regression_two_step_row_contents():
    sys = random_system(2, 1, 1, 0.9, Rng(2), sigma_w=0.1, sigma_eps=0.01)
    traj = noise_free_data(sys, 8, seed=3)
    reg = build_regression(traj, 2)
    n = 2
    # Row block j contains [xm_j, u_j, u_{j+1}] kron I_n.
    j = 3
    z = np.concatenate([traj.measurements[j], traj.inputs[j], traj.inputs[j + 1]])
    assert_allclose(reg.regressor[j * n: (j + 1) * n], np.kron(z, np.eye(n)))
    assert_allclose(reg.targets[j * n: (j + 1) * n], traj.measurements[j + 2])
    z_all = np.hstack([traj.measurements[:7], traj.inputs[:7], traj.inputs[1:8]])
    g0, _, gw = build_multistep(sys, 2).step(2)
    band = residual_covariance(gw, g0, sys.sigma_w, sys.sigma_eps, 2, traj.T).band
    assert_regression_layout(reg, z_all, band)


def test_regression_residual_zero_at_true_parameters():
    sys = random_system(2, 2, 1, 0.9, Rng(4), sigma_w=0.0, sigma_eps=0.0)
    traj = noise_free_data(sys, 12, seed=5)
    model = build_multistep(sys, 3)
    for k in (1, 2, 3):
        g0, gu, _ = model.step(k)
        reg = build_regression(traj, k)
        resid = reg.targets - reg.regressor @ true_theta(g0, gu)
        assert np.abs(resid).max() < 1e-10


def test_regression_fir_drops_state_block():
    sys = random_system(2, 1, 1, 0.9, Rng(6))
    traj = noise_free_data(sys, 10, seed=7)
    reg = build_regression(traj, 2, STRUCTURE_FIR)
    assert reg.dof == 2 * 2 * 1  # n * k * m
    z = np.concatenate([traj.inputs[0], traj.inputs[1]])
    assert_allclose(reg.regressor[:2], np.kron(z, np.eye(2)))
    _, _, gw = build_multistep(sys, 2).step(2)
    band = residual_covariance(gw, np.zeros((2, 2)), sys.sigma_w, sys.sigma_eps, 2, traj.T).band
    assert_regression_layout(reg, np.hstack([traj.inputs[:9], traj.inputs[1:10]]), band)


def test_regression_insufficient_data():
    sys = random_system(2, 2, 1, 0.9, Rng(8))
    traj = noise_free_data(sys, 4, seed=9)
    with pytest.raises(InsufficientData):
        build_regression(traj, 3)


# ---------------------------------------------------------------------------
# residual_covariance
# ---------------------------------------------------------------------------


def test_residual_covariance_one_step_noise_free_measurements():
    sys = random_system(2, 1, 2, 0.9, Rng(10), sigma_w=0.3)
    t_len = 6
    cov = residual_covariance(sys.E, sys.A, sys.sigma_w, np.zeros((2, 2)), 1, t_len)
    block = sys.E @ sys.sigma_w @ sys.E.T
    expected = np.kron(np.eye(t_len), block)
    assert_allclose(cov.matrix, expected, atol=1e-12)


def test_residual_covariance_fir_measurement_noise_only():
    n, k, t_len = 2, 2, 7
    se = np.diag([0.2, 0.4])
    cov = residual_covariance(
        np.zeros((n, k * 1)), np.zeros((n, n)), np.zeros((1, 1)), se, k, t_len
    )
    expected = np.kron(np.eye(t_len - k + 1), se)
    assert_allclose(cov.matrix, expected, atol=1e-14)


def test_residual_covariance_band_is_zero_beyond_lag_k():
    sys = random_system(1, 1, 1, 0.8, Rng(11), sigma_w=0.5, sigma_eps=0.1)
    k, t_len = 2, 12
    g0 = np.linalg.matrix_power(sys.A, k)
    gw = np.hstack([sys.A @ sys.E, sys.E])
    cov = residual_covariance(gw, g0, sys.sigma_w, sys.sigma_eps, k, t_len).matrix
    assert_allclose(cov, cov.T)
    windows = t_len - k + 1
    for j in range(windows):
        for i in range(k + 1, windows - j):
            assert cov[j, j + i] == 0.0


def kron_lag_blocks(gw, g0, sigma_w, sigma_eps, k):
    """Reference lag blocks: Gw_k (I_k kron sigma_w) Gw_k' + G0_k sigma_eps G0_k' + sigma_eps at
    lag 0, Gw_k J_i Gw_k' at lag i < k with J_i the (I_(k-i) kron sigma_w) block shifted down
    by i blocks, and -sigma_eps G0_k' at lag k."""
    q = sigma_w.shape[0]
    blocks = [gw @ np.kron(np.eye(k), sigma_w) @ gw.T + g0 @ sigma_eps @ g0.T + sigma_eps]
    for i in range(1, k):
        shift = np.zeros((k * q, k * q))
        shift[i * q:, : (k - i) * q] = np.kron(np.eye(k - i), sigma_w)
        blocks.append(gw @ shift @ gw.T)
    return blocks + [-sigma_eps @ g0.T]


@pytest.mark.parametrize("structure", [STRUCTURE_FULL, STRUCTURE_FIR])
def test_residual_covariance_matches_kron_lag_blocks(structure):
    # A full, non-diagonal sigma_w with q != n, at every step k of the horizon.
    n, q, horizon, t_len = 3, 2, 10, 24
    gen = Rng(13).generator()
    root = gen.standard_normal((q, q))
    sys = replace(random_system(n, 2, q, 0.9, gen, sigma_eps=0.05), sigma_w=root @ root.T)
    model = build_multistep(sys, horizon)
    for k in range(1, horizon + 1):
        g0, _, gw = model.step(k)
        g0 = np.zeros((n, n)) if structure == STRUCTURE_FIR else g0
        s = residual_covariance(gw, g0, sys.sigma_w, sys.sigma_eps, k, t_len).matrix
        blocks = kron_lag_blocks(gw, g0, sys.sigma_w, sys.sigma_eps, k)
        scale = float(np.abs(blocks[0]).max())
        for i, block in enumerate(blocks):
            for w in range(t_len - k + 1 - i):   # window w + i against window w
                got = s[(w + i) * n: (w + i + 1) * n, w * n: (w + 1) * n]
                assert_allclose(got, block.T, rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_residual_covariance_matches_simulation_scalar(k):
    a, e, sw, se = 0.7, 1.0, 0.3, 0.05
    t_len = 6
    gen = Rng(400 + k).generator()
    emp = mc_residual_covariance_scalar(a, e, sw, se, k, t_len, 200_000, gen)
    gw = np.array([[a ** (k - 1 - i) * e for i in range(k)]])
    cov = residual_covariance(
        gw, np.array([[a**k]]), np.array([[sw]]), np.array([[se]]), k, t_len
    ).matrix
    rel = np.linalg.norm(emp - cov) / np.linalg.norm(cov)
    assert rel < 0.05


def test_residual_covariance_matches_simulation_multivariate():
    # Pins down the orientation of the lag blocks for n, q > 1.
    gen = Rng(12).generator()
    sys = random_system(2, 1, 2, 0.85, Rng(13), sigma_w=0.2, sigma_eps=0.03)
    k, t_len, n_draws = 2, 5, 200_000
    w_f = psd_sqrt_factor(sys.sigma_w)
    e_f = psd_sqrt_factor(sys.sigma_eps)
    w = gen.standard_normal((n_draws, t_len, 2)) @ w_f.T
    eps = gen.standard_normal((n_draws, t_len + 1, 2)) @ e_f.T
    x = np.zeros((n_draws, t_len + 1, 2))
    for t in range(t_len):
        x[:, t + 1] = x[:, t] @ sys.A.T + w[:, t] @ sys.E.T
    xm = x + eps
    g0 = np.linalg.matrix_power(sys.A, k)
    windows = t_len - k + 1
    resid = np.concatenate(
        [xm[:, j + k] - xm[:, j] @ g0.T for j in range(windows)], axis=1
    )
    emp = np.cov(resid.T)
    gw = np.hstack([sys.A @ sys.E, sys.E])
    cov = residual_covariance(gw, g0, sys.sigma_w, sys.sigma_eps, k, t_len).matrix
    rel = np.linalg.norm(emp - cov) / np.linalg.norm(cov)
    assert rel < 0.05


@given(
    n=st.integers(1, 3),
    k=st.integers(1, 4),
    m=st.integers(1, 2),
    structure=st.sampled_from([STRUCTURE_FULL, STRUCTURE_FIR]),
    sigma_eps=st.sampled_from([0.0, 0.01]),
    short=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_banded_covariance_and_whitening_match_dense_reference(
    n, k, m, structure, sigma_eps, short, seed
):
    # E = I and spectral radius 0.3 keep S and the information matrix well
    # conditioned, so banded and dense whitening agree to rounding.
    sys = replace(random_system(n, m, n, 0.3, Rng(seed), sigma_w=0.1, sigma_eps=sigma_eps),
                  E=np.eye(n))
    g0, _, gw = build_multistep(sys, k).step(k)
    g0_cov = np.zeros((n, n)) if structure == STRUCTURE_FIR else g0
    gen = Rng(seed, 1).generator()
    cols = (0 if structure == STRUCTURE_FIR else n) + k * m
    # A short record has at most k+1 windows; with k or fewer, its band drops lag blocks.
    t_min = k if short else k + 6 * cols
    t_len = int(gen.integers(t_min, 2 * k + 1 if short else t_min + 100))
    cov = residual_covariance(gw, g0_cov, sys.sigma_w, sys.sigma_eps, k, t_len)
    s = cov.matrix
    windows = t_len - k + 1
    assert cov.band.shape == (n * min(k + 1, windows), n * windows)
    assert np.array_equal(s, s.T)
    lag = np.abs(np.subtract.outer(np.arange(n * windows) // n, np.arange(n * windows) // n))
    assert not s[lag > k].any()
    ref = residual_covariance_reference(gw, g0_cov, sys.sigma_w, sys.sigma_eps, k, t_len)
    assert_allclose(s, ref, rtol=0, atol=1e-13 * float(np.abs(ref).max()))
    if short:
        return

    traj = simulate(sys, GaussianBelief(gen.standard_normal(n), 0.1 * np.eye(n)),
                    gen.standard_normal((t_len, m)), gen)
    reg = build_regression(traj, k, structure)
    est = mle_estimate(reg, cov)
    theta_ref, cov_ref = dense_whitened_mle(reg, s)
    assert est.projected_rank is None
    assert_allclose(est.theta, theta_ref, rtol=0, atol=1e-12 * float(np.abs(theta_ref).max()))
    assert_allclose(est.cov, cov_ref, rtol=0, atol=1e-12 * float(np.abs(cov_ref).max()))


# ---------------------------------------------------------------------------
# mle_estimate
# ---------------------------------------------------------------------------


def test_mle_exact_recovery_noise_free():
    sys = random_system(2, 1, 1, 0.9, Rng(14), sigma_w=0.0, sigma_eps=0.0)
    traj = noise_free_data(sys, 15, seed=15)
    model = build_multistep(sys, 2)
    for k in (1, 2):
        g0, gu, gw = model.step(k)
        reg = build_regression(traj, k)
        cov = ResidualCovariance(k=k, band=np.ones((1, reg.rows)))
        est = mle_estimate(reg, cov)
        assert np.abs(est.theta - true_theta(g0, gu)).max() < 1e-10


def test_mle_identity_weight_equals_ols():
    sys = random_system(2, 1, 1, 0.9, Rng(16), sigma_w=0.2, sigma_eps=0.02)
    traj = noise_free_data(sys, 40, seed=17)
    reg = build_regression(traj, 2)
    est_w = mle_estimate(reg, ResidualCovariance(k=2, band=np.ones((1, reg.rows))))
    theta_ols, *_ = np.linalg.lstsq(reg.regressor, reg.targets, rcond=None)
    assert_allclose(est_w.theta, theta_ols, atol=1e-9)


def test_mle_coverage_smoke():
    # Reduced-size version of the coverage experiment (full run in acceptance).
    sys = LinearSystem(
        A=np.array([[0.8]]), B=np.array([[1.0]]), E=np.array([[1.0]]),
        sigma_w=np.array([[0.2]]), sigma_eps=np.array([[0.01]]),
    )
    model = build_multistep(sys, 2)
    g0, gu, gw = model.step(2)
    theta = true_theta(g0, gu)
    hits = 0
    runs = 80
    for i in range(runs):
        gen = Rng(600, i).generator()
        u = gen.standard_normal((120, 1))
        traj = simulate(sys, GaussianBelief(np.zeros(1), np.zeros((1, 1))), u, gen)
        est = estimate_predictor(
            traj, 2, gw, sys.sigma_w, sys.sigma_eps, covariance="oracle", g0_true=g0
        )
        err = est.theta - theta
        if float(err @ np.linalg.solve(est.cov, err)) <= 6.251388631170325:  # chi2_3(0.9)
            hits += 1
    assert 0.78 <= hits / runs <= 1.0


def test_mle_singular_information_raises():
    sys = random_system(2, 1, 1, 0.9, Rng(18), sigma_w=0.1)
    traj = noise_free_data(sys, 20, seed=19, input_std=0.0)
    # Zero input and zero initial state: input columns are unexcited.
    reg = build_regression(traj, 1)
    with pytest.raises(SingularInformation):
        mle_estimate(reg, ResidualCovariance(k=1, band=np.ones((1, reg.rows))))


def test_mle_projection_invariant_to_zero_variance_block(monkeypatch):
    sys = random_system(1, 1, 1, 0.8, Rng(20), sigma_w=0.3, sigma_eps=0.0)
    traj = noise_free_data(sys, 30, seed=21)
    reg = build_regression(traj, 1)
    base_cov = residual_covariance(sys.E, sys.A, sys.sigma_w, sys.sigma_eps, 1, traj.T)
    # A positive-definite covariance is whitened in band storage: no dense view.
    with monkeypatch.context() as patch:
        patch.setattr(ResidualCovariance, "matrix",
                      property(lambda self: pytest.fail("dense covariance built")))
        est0 = mle_estimate(reg, base_cov)
    assert est0.projected_rank is None
    assert "projected_rank" not in estimate_to_json(est0, 0.95)

    extra = 4
    reg_aug = RegressionProblem(
        k=1,
        structure=STRUCTURE_FULL,
        system=np.column_stack([np.vstack([reg.regressor, np.zeros((extra, reg.dof))]),
                                np.concatenate([reg.targets, np.zeros(extra)])]),
        n=reg.n,
        m=reg.m,
    )
    aug = np.pad(base_cov.band, ((0, 0), (0, extra)))
    est1 = mle_estimate(reg_aug, ResidualCovariance(k=1, band=aug))
    assert est1.projected_rank == reg.rows
    assert estimate_to_json(est1, 0.95)["projected_rank"] == reg.rows
    assert_allclose(est1.theta, est0.theta, atol=1e-10)
    assert_allclose(est1.cov, est0.cov, atol=1e-10)


@pytest.mark.parametrize("binding", ["numpy", "scipy"])
@pytest.mark.parametrize("pad", [1e-12, -1.0])
def test_singular_band_reaches_projection_on_either_binding(monkeypatch, binding, pad):
    # Rows of variance 1e-12 (relative) leave a tiny pivot; rows of variance
    # -1 make the band indefinite.  Both are projected out, whichever library
    # holds the band routines.
    if binding == "scipy":
        monkeypatch.setattr(linalg, "_band_lapack", lambda: None)
    sys = random_system(1, 1, 1, 0.8, Rng(20), sigma_w=0.3, sigma_eps=0.0)
    traj = noise_free_data(sys, 30, seed=21)
    reg = build_regression(traj, 1)
    base_cov = residual_covariance(sys.E, sys.A, sys.sigma_w, sys.sigma_eps, 1, traj.T)
    est0 = mle_estimate(reg, base_cov)
    extra = 4
    reg_aug = replace(reg, system=np.column_stack([
        np.vstack([reg.regressor, np.zeros((extra, reg.dof))]),
        np.concatenate([reg.targets, np.zeros(extra)])]))
    aug = np.pad(base_cov.band, ((0, 0), (0, extra)))
    aug[0, reg.rows:] = pad * float(base_cov.band[0].max())
    factored = linalg.banded_cholesky_solve(aug, np.ones((aug.shape[1], 1)))
    assert (factored is None) == (pad < 0)
    est1 = mle_estimate(reg_aug, ResidualCovariance(k=1, band=aug))
    assert est1.projected_rank == reg.rows
    assert_allclose(est1.theta, est0.theta, atol=1e-10)
    assert_allclose(est1.cov, est0.cov, atol=1e-10)


def test_scipy_fallback_identifies_like_numpy_binding(monkeypatch):
    # Where numpy's wheel OpenBLAS is not found, scipy.linalg factors the band;
    # on the two-state demo both give the same estimates to rounding.
    assert linalg._band_lapack() is not None   # this environment takes the numpy binding
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "two_state.json")
    sys_true = make_system(cfg)
    traj = _probe_and_simulate(cfg, sys_true)
    bound, _ = _identify_all(cfg, sys_true, traj)
    monkeypatch.setattr(linalg, "_band_lapack", lambda: None)
    fallback, _ = _identify_all(cfg, sys_true, traj)
    assert len(bound) == len(fallback) == cfg.ocp_spec.horizon
    for est, ref in zip(fallback, bound):
        assert est.projected_rank == ref.projected_rank
        assert_allclose(est.theta, ref.theta, rtol=0, atol=1e-13 * float(np.abs(ref.theta).max()))
        assert_allclose(est.cov, ref.cov, rtol=0, atol=1e-13 * float(np.abs(ref.cov).max()))


@pytest.mark.parametrize("part", ["band", "regressor", "targets"])
def test_mle_rejects_non_finite_input(part):
    sys = random_system(2, 1, 1, 0.9, Rng(16), sigma_w=0.2, sigma_eps=0.02)
    reg = build_regression(noise_free_data(sys, 40, seed=17), 2)
    band = np.ones((1, reg.rows))
    regressor, targets = reg.regressor.copy(), reg.targets.copy()
    if part == "band":
        band[0, 3] = np.nan
    elif part == "regressor":
        regressor[5, 1] = np.inf
    else:
        targets[7] = np.nan
    with pytest.raises(DomainError, match="not finite"):
        mle_estimate(replace(reg, system=np.column_stack([regressor, targets])),
                     ResidualCovariance(k=2, band=band))


def test_equivariance_under_input_scaling():
    sys = random_system(2, 1, 1, 0.9, Rng(22), sigma_w=0.0, sigma_eps=0.0)
    traj = noise_free_data(sys, 20, seed=23)
    scale = 4.0
    from mspc.system import Trajectory

    traj_scaled = Trajectory(
        states=traj.states,
        measurements=traj.measurements,
        inputs=scale * traj.inputs,
        disturbances=traj.disturbances,
        noises=traj.noises,
    )
    k = 2
    reg = build_regression(traj, k)
    reg_s = build_regression(traj_scaled, k)
    est = naive_ls(reg)
    est_s = naive_ls(reg_s)
    assert_allclose(est_s.gu_hat(), est.gu_hat() / scale, atol=1e-9)
    assert_allclose(est_s.g0_hat(), est.g0_hat(), atol=1e-9)


# ---------------------------------------------------------------------------
# Confidence-ellipsoid radius
# ---------------------------------------------------------------------------


def make_estimate(gen, dof=4):
    f = gen.standard_normal((dof, dof))
    cov = f @ f.T + 0.3 * np.eye(dof)
    return ParameterEstimate(
        k=1, structure=STRUCTURE_FULL, theta=gen.standard_normal(dof),
        cov=cov, n=2, m=2,
    )


def inside(est, delta, theta):
    """Is theta in the confidence ellipsoid {(t - theta_hat)' cov^-1 (t - theta_hat) <= radius^2}?"""
    err = theta - est.theta
    return float(err @ np.linalg.solve(est.cov, err)) <= est.radius(delta) ** 2


def test_radius_matches_chi2_quantile(gen):
    est = make_estimate(gen)
    deltas = (0.99, 0.9, 0.5, 0.1)
    radii = [est.radius(d) for d in deltas]
    assert all(a > b > 0.0 for a, b in zip(radii, radii[1:]))
    assert_allclose(radii[1] ** 2, chi2.ppf(0.9, est.dof), rtol=1e-12)


def test_confidence_set_small_delta_degenerates(gen):
    est = make_estimate(gen)
    levels = [est.radius(d) ** 2 for d in (1e-3, 1e-6, 1e-9, 1e-12)]
    assert all(a > b > 0.0 for a, b in zip(levels, levels[1:]))
    assert levels[-1] < 1e-5
    assert inside(est, 1e-12, est.theta)


def test_confidence_set_center_membership(gen):
    est = make_estimate(gen)
    u = gen.standard_normal(est.dof)
    step = np.linalg.cholesky(est.cov) @ (u / np.linalg.norm(u))
    for delta in (0.1, 0.5, 0.99):
        r = est.radius(delta)
        assert inside(est, delta, est.theta)
        assert inside(est, delta, est.theta + 0.99 * r * step)
        assert not inside(est, delta, est.theta + 1.01 * r * step)


def test_radius_rejects_bad_delta(gen):
    est = make_estimate(gen)
    zero = replace(est, cov=np.zeros_like(est.cov))
    for bad in (0.0, 1.0, -0.5, 1.5, float("nan")):
        with pytest.raises(DomainError):
            est.radius(bad)
    for bad in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(DomainError):
            zero.radius(bad)


@pytest.mark.parametrize("structure, covariance", [
    (STRUCTURE_FULL, "Oracle"), (STRUCTURE_FIR, "Oracle"), ("FIR", "oracle"),
])
def test_estimate_predictor_rejects_unknown_modes(structure, covariance):
    # FIR reads no covariance mode, but a typo there is still an error.
    sys = random_system(2, 1, 1, 0.9, Rng(36), sigma_w=0.1, sigma_eps=0.01)
    _, _, gw = build_multistep(sys, 1).step(1)
    with pytest.raises(DomainError, match="unknown"):
        estimate_predictor(noise_free_data(sys, 20), 1, gw, sys.sigma_w, sys.sigma_eps,
                           structure=structure, covariance=covariance)


def test_radius_zero_covariance_at_delta_one(gen):
    est = replace(make_estimate(gen), cov=np.zeros((4, 4)))
    assert est.radius(1.0) == 0.0
    assert_allclose(est.radius(0.9) ** 2, chi2.ppf(0.9, est.dof), rtol=1e-12)


# ---------------------------------------------------------------------------
# state_space_ls
# ---------------------------------------------------------------------------


def test_state_space_ls_exact_recovery():
    sys = random_system(2, 1, 2, 0.9, Rng(25), sigma_w=0.0, sigma_eps=0.0)
    traj = noise_free_data(sys, 12, seed=26)
    est = state_space_ls(traj, np.eye(2) * 0.1, sys.E)
    assert np.abs(est.theta - vec(np.hstack([sys.A, sys.B]))).max() < 1e-9


def test_state_space_ls_agrees_with_mle_path():
    sys = random_system(2, 1, 2, 0.9, Rng(27), sigma_w=0.25, sigma_eps=0.0)
    traj = noise_free_data(sys, 60, seed=28)
    est_sum = state_space_ls(traj, sys.sigma_w, sys.E)
    reg = build_regression(traj, 1)
    cov = residual_covariance(sys.E, sys.A, sys.sigma_w, np.zeros((2, 2)), 1, traj.T)
    est_mle = mle_estimate(reg, cov)
    assert np.abs(est_sum.theta - est_mle.theta).max() < 1e-10
    assert np.abs(est_sum.cov - est_mle.cov).max() < 1e-10 * max(1.0, np.abs(est_sum.cov).max())


def test_state_space_ls_consistency_sweep():
    sys = random_system(2, 1, 2, 0.85, Rng(29), sigma_w=0.2, sigma_eps=0.0)
    theta_true = vec(np.hstack([sys.A, sys.B]))
    errors = {}
    for t_len in (100, 400):
        errs = []
        for i in range(40):
            gen = Rng(700 + t_len, i).generator()
            u = gen.standard_normal((t_len, 1))
            traj = simulate(sys, GaussianBelief(np.zeros(2), np.zeros((2, 2))), u, gen)
            est = state_space_ls(traj, sys.sigma_w, sys.E)
            errs.append(np.linalg.norm(est.theta - theta_true))
        errors[t_len] = float(np.median(errs))
    ratio = errors[400] / errors[100]
    assert 0.3 <= ratio <= 0.8


# ---------------------------------------------------------------------------
# naive_ls
# ---------------------------------------------------------------------------


def test_naive_ls_matches_identity_weighted_mle():
    sys = random_system(2, 1, 1, 0.9, Rng(30), sigma_w=0.2, sigma_eps=0.02)
    traj = noise_free_data(sys, 50, seed=31)
    reg = build_regression(traj, 2)
    est_naive = naive_ls(reg)
    est_mle = mle_estimate(reg, ResidualCovariance(k=2, band=np.ones((1, reg.rows))))
    assert_allclose(est_naive.theta, est_mle.theta, atol=1e-9)


# ---------------------------------------------------------------------------
# serialization and bridging
# ---------------------------------------------------------------------------


def test_estimate_json_round_trip_bit_faithful(tmp_path, gen):
    sys = random_system(2, 1, 1, 0.9, Rng(32), sigma_w=0.2, sigma_eps=0.01)
    traj = noise_free_data(sys, 40, seed=33)
    model = build_multistep(sys, 2)
    ests = []
    for k in (1, 2):
        g0, gu, gw = model.step(k)
        ests.append(
            estimate_predictor(traj, k, gw, sys.sigma_w, sys.sigma_eps,
                               covariance="oracle", g0_true=g0)
        )
    path = tmp_path / "estimates.json"
    _write_json(path, [estimate_to_json(est, 0.95) for est in ests])
    docs = json.loads(path.read_text())
    assert docs == [estimate_to_json(est, 0.95) for est in ests]
    for est, doc in zip(ests, docs):
        assert np.array_equal(np.array(doc["theta_hat"]), est.theta)
        assert np.array_equal(estimate_from_json(doc).cov, est.cov)
        assert doc["k"] == est.k and doc["structure"] == est.structure
        assert (doc["dof"], doc["n"], doc["m"], doc["delta"]) == (est.dof, est.n, est.m, 0.95)


@pytest.mark.parametrize("path", ["band", "projection"])
def test_estimate_from_json_restores_theta_and_cov_bit_for_bit(tmp_path, path):
    sys = random_system(2, 1, 1, 0.9, Rng(36), sigma_w=0.2, sigma_eps=0.01)
    traj = noise_free_data(sys, 40, seed=37)
    g0, _, gw = build_multistep(sys, 2).step(2)
    reg = build_regression(traj, 2)
    cov = residual_covariance(gw, g0, sys.sigma_w, sys.sigma_eps, 2, traj.T)
    if path == "projection":   # rows of zero variance make the band singular
        reg = replace(reg, system=np.column_stack([np.vstack([reg.regressor, np.zeros((4, reg.dof))]),
                                                   np.concatenate([reg.targets, np.zeros(4)])]))
        cov = ResidualCovariance(k=2, band=np.pad(cov.band, ((0, 0), (0, 4))))
    est = mle_estimate(reg, cov)
    assert (est.projected_rank is None) == (path == "band")
    _write_json(tmp_path / "estimates.json", [estimate_to_json(est, 0.95)])
    doc, = json.loads((tmp_path / "estimates.json").read_text())
    assert [len(row) for row in doc["cov_upper"]] == list(range(est.dof, 0, -1))
    back = estimate_from_json(doc)
    assert back.theta.tobytes() == est.theta.tobytes()
    assert back.cov.tobytes() == est.cov.tobytes()
    assert ((back.k, back.structure, back.n, back.m, back.projected_rank)
            == (est.k, est.structure, est.n, est.m, est.projected_rank))
    doc["cov_upper"][-1] = []
    with pytest.raises(DimensionMismatch):
        estimate_from_json(doc)


def test_estimators_return_exactly_symmetric_covariances():
    sys = random_system(2, 1, 2, 0.9, Rng(38), sigma_w=0.2, sigma_eps=0.01)
    traj = noise_free_data(sys, 60, seed=39)
    g0, _, gw = build_multistep(sys, 2).step(2)
    reg = build_regression(traj, 2)
    estimates = [
        mle_estimate(reg, residual_covariance(gw, g0, sys.sigma_w, sys.sigma_eps, 2, traj.T)),
        naive_ls(reg),
        state_space_ls(traj, sys.sigma_w, sys.E),
    ]
    for est in estimates:
        assert (est.cov == est.cov.T).all()
        assert np.array_equal(estimate_from_json(estimate_to_json(est, 0.95)).cov, est.cov)


@pytest.mark.parametrize("upper, lower", [(np.nextafter(0.5, 1.0), 0.5), (-0.0, 0.0)],
                         ids=["one_ulp", "signed_zero"])
def test_estimate_to_json_rejects_a_covariance_not_exactly_symmetric(upper, lower):
    cov = np.array([[2.0, upper], [lower, 1.0]])
    est = ParameterEstimate(k=1, structure=STRUCTURE_FULL, theta=np.zeros(2), cov=cov, n=1, m=1)
    with pytest.raises(NotSymmetric):
        estimate_to_json(est, 0.95)


def test_model_from_estimates_shapes():
    sys = random_system(2, 1, 1, 0.9, Rng(34), sigma_w=0.1, sigma_eps=0.01)
    traj = noise_free_data(sys, 30, seed=35)
    model = build_multistep(sys, 3)
    ests, gws = [], []
    for k in (1, 2, 3):
        g0, gu, gw = model.step(k)
        gws.append(gw)
        ests.append(
            estimate_predictor(traj, k, gw, sys.sigma_w, sys.sigma_eps,
                               covariance="oracle", g0_true=g0)
        )
    built = model_from_estimates(ests, gws, sys.sigma_w)
    assert built.horizon == 3
    assert built.step(2)[1].shape == (2, 2)


# ---------------------------------------------------------------------------
# Row moments and regressor of the theta layout
# ---------------------------------------------------------------------------


@given(
    n=st.integers(1, 3),
    k=st.integers(1, 3),
    m=st.integers(1, 2),
    structure=st.sampled_from([STRUCTURE_FULL, STRUCTURE_FIR]),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_moments_match_kron_reference(n, k, m, structure, seed):
    gen = np.random.default_rng(seed)
    cols = (0 if structure == STRUCTURE_FIR else n) + k * m
    root = gen.standard_normal((cols * n, cols * n))
    est = ParameterEstimate(k=k, structure=structure, theta=gen.standard_normal(cols * n),
                            cov=root @ root.T, n=n, m=m)
    x0, u = gen.standard_normal(n), gen.standard_normal(k * m)
    h_rows = gen.standard_normal((2, n))
    z = est.regressor(x0, u)
    assert_allclose(z[z.size - k * m:], u, rtol=0, atol=0)
    x0_batch = gen.standard_normal((3, n))
    z_batch = est.regressor(x0_batch, u)
    for i in range(3):
        assert_allclose(z_batch[i], est.regressor(x0_batch[i], u), rtol=0, atol=0)
    g_rows, m_rows = est.row_moments(h_rows)
    for j, h in enumerate(h_rows):
        g, m_mat = est.row_moments(h)
        assert_allclose(g_rows[:, j], g, rtol=1e-12, atol=1e-12 * float(np.abs(g).max()))
        assert_allclose(m_rows[j], m_mat, rtol=1e-12, atol=1e-12 * float(np.abs(m_mat).max()))
        g0, gu = est.g0_hat(), est.gu_hat()
        mean_ref = float(h @ (g0 @ x0 + gu @ u))
        scale = float(np.abs(h) @ (np.abs(g0) @ np.abs(x0) + np.abs(gu) @ np.abs(u)))
        assert abs(float(z @ g) - mean_ref) <= 1e-12 * scale
        zh = np.kron(z, h)
        var_ref = float(zh @ est.cov @ zh)
        assert abs(float(z @ m_mat @ z) - var_ref) <= 1e-12 * var_ref

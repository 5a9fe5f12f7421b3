"""Exact violation probabilities against direct references and oracles.

Given x0, row j at step k of a multi-step predictor is Gaussian with mean
z' g and variance z' M z + s_jk^2.  ``exact_violation`` evaluates the
law of that row with x0 drawn too: its moment maps must agree with the
per-sample reference, its probabilities with closed forms, Gauss-Hermite
and adaptive quadrature within the bound it states, and a plain drawn
counter must hold them in its binomial band.
"""

import inspect
import math
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate
from scipy.stats import norm as normal_dist

from mspc.errors import DimensionMismatch, DomainError
from mspc.ident import STRUCTURE_FIR, STRUCTURE_FULL, ParameterEstimate, true_theta
from mspc.linalg import diag_repeat
from mspc.ocp import InputBox, OcpSpec, build_nominal_qp_statespace
from mspc.solver import solve
from mspc.system import GaussianBelief, LinearSystem, build_multistep, random_system
from mspc.validate import (
    EstimatedModel,
    _conditional_maps,
    _exact_predictors,
    _upper_tail,
    clopper_pearson_interval,
    exact_violation,
)


def _low_rank_cov(gen, dim, rank, scale):
    root = gen.standard_normal((dim, rank))
    return scale * root @ root.T / max(rank, 1)


def _problem(gen, n, m, horizon, structure, x0_rank, theta_rank, rows=2, theta_scale=0.05):
    """Random system, spec and estimated model with the given covariance ranks."""
    q = max(n - 1, 1)
    sys = random_system(n, m, q, 0.8, gen, sigma_w=_low_rank_cov(gen, q, q, 0.05),
                        sigma_eps=0.0)
    spec = OcpSpec(
        horizon=horizon, Q=np.eye(n), R=np.eye(m),
        h_x=gen.standard_normal((rows, n)), u_set=None, p=0.9,
        init=GaussianBelief(mean=0.5 * gen.standard_normal(n),
                            cov=_low_rank_cov(gen, n, x0_rank, 0.3)),
    )
    model = build_multistep(sys, horizon)
    ests = []
    for k in range(1, horizon + 1):
        g0, gu, _ = model.step(k)
        theta = true_theta(g0, gu, structure)
        cov = _low_rank_cov(gen, theta.size, min(theta_rank, theta.size), theta_scale)
        ests.append(ParameterEstimate(k=k, structure=structure, theta=theta, cov=cov, n=n, m=m))
    truth = EstimatedModel(estimates=ests, gw=model.gw, sigma_w=sys.sigma_w)
    u = gen.standard_normal(horizon * m)
    return sys, spec, truth, u


def _noise_variance(truth, h, k):
    """h' Gw_k (I_k kron Sigma_w) Gw_k' h."""
    gw = truth.gw[k - 1]
    return float(h @ gw @ diag_repeat(truth.sigma_w, k) @ gw.T @ h)


# ---------------------------------------------------------------------------
# Moment maps against the per-sample reference
# ---------------------------------------------------------------------------


@given(
    n=st.integers(1, 3),
    m=st.integers(1, 2),
    horizon=st.integers(1, 3),
    structure=st.sampled_from([STRUCTURE_FULL, STRUCTURE_FIR]),
    x0_rank=st.integers(0, 3),
    theta_rank=st.sampled_from([0, 1, 3, 100]),
    seed=st.integers(0, 2**32 - 1),
)
def test_conditional_maps_match_row_moments_reference(
    n, m, horizon, structure, x0_rank, theta_rank, seed
):
    # x0_rank < n gives a singular Sigma_x0, theta_rank < dof a singular
    # parameter covariance, and theta_rank 0 every M zero.
    gen = np.random.default_rng(seed)
    _, spec, truth, u = _problem(gen, n, m, horizon, structure, min(x0_rank, n), theta_rank)
    lin, quad = _conditional_maps(truth, u, spec)
    iu, ju = np.triu_indices(n + 1)
    assert lin.shape == (n + 1, (horizon + 1) * spec.n_rows)
    assert quad.shape == (iu.size, (horizon + 1) * spec.n_rows)
    x0s = spec.init.mean + gen.standard_normal((5, n)) @ np.linalg.cholesky(
        spec.init.cov + np.eye(n))
    for x0 in x0s:
        x_aug = np.append(x0, 1.0)
        mean = (x_aug @ lin).reshape(horizon + 1, -1)
        var = ((x_aug[iu] * x_aug[ju]) @ quad).reshape(horizon + 1, -1)
        # Step 0 is the row h_j' x0 itself, with no variance.
        assert np.all(np.abs(mean[0] - spec.h_x @ x0) <= 1e-12 * (np.abs(spec.h_x) @ np.abs(x0)))
        assert not np.any(var[0])
        for k in range(1, horizon + 1):
            est = truth.estimates[k - 1]
            z = est.regressor(x0, u[: k * m])
            g, m_mats = est.row_moments(spec.h_x)
            for j, h in enumerate(spec.h_x):
                s2 = _noise_variance(truth, h, k)
                mean_ref = float(z @ g[:, j])
                var_ref = float(z @ m_mats[j] @ z) + s2
                # Tolerances relative to the size of the summed terms.
                mean_scale = float(np.abs(z) @ np.abs(g[:, j]))
                var_scale = float(np.abs(z) @ np.abs(m_mats[j]) @ np.abs(z)) + s2
                assert abs(mean[k, j] - mean_ref) <= 1e-12 * mean_scale
                assert abs(var[k, j] - var_ref) <= 1e-12 * var_scale
    if theta_rank == 0 or structure == STRUCTURE_FIR:
        # No variance depends on x0, so every column is Gaussian: only the
        # last product (the constant 1) carries variance, and the checks
        # above then hold for quad[-1] alone.
        assert not np.any(quad[:-1])


# ---------------------------------------------------------------------------
# A plain drawn counter, the oracle of the binomial bands
# ---------------------------------------------------------------------------


def _drawn_counts(truth, u, spec, n_samples, gen):
    """Violations per (step, row) of a plain sampler: x0, then one normal per column.

    Given x0 each column is N(x~' lin, p' quad) (the maps checked above), so
    a sample counts mean + sd * N(0, 1) > 1.  Batches of 10,000 keep memory small.
    """
    if isinstance(truth, LinearSystem):
        truth = _exact_predictors(truth, spec.horizon)
    lin, quad = _conditional_maps(truth, u, spec)
    iu, ju = np.triu_indices(spec.n + 1)
    factor = spec.init.factor
    counts = np.zeros(lin.shape[1], dtype=np.int64)
    for _ in range(n_samples // 10_000):
        x0 = spec.init.mean + gen.standard_normal((10_000, factor.shape[1])) @ factor.T
        x_aug = np.column_stack([x0, np.ones(10_000)])
        sd = np.sqrt(np.maximum((x_aug[:, iu] * x_aug[:, ju]) @ quad, 0.0))
        value = x_aug @ lin + sd * gen.standard_normal(sd.shape)
        counts += np.count_nonzero(value > 1.0, axis=0)
    return counts.reshape(spec.horizon + 1, spec.n_rows)


def _assert_in_band(counts, n_samples, p_exact):
    """Each p_exact[k, j] lies in the 99.9% band of counts[k, j] of n_samples draws."""
    for (k, j), p in np.ndenumerate(p_exact):
        low, high = clopper_pearson_interval(int(counts[k, j]), n_samples, confidence=0.999)
        assert low <= p <= high, ((j, k), int(counts[k, j]), p)


# ---------------------------------------------------------------------------
# The true system: closed form
# ---------------------------------------------------------------------------


def _noise_only_scores(sys, spec, u):
    """The scores z[k, j] with p_jk = Q(z_jk) per (step, row) on the true system, entry by entry.

    h' x_k = h' G0_k x0 + h' Gu_k u + h' Gw_k w is affine in the Gaussian x0
    and w, so z_jk = (1 - a' x0_bar - c) / sqrt(a' S a + s^2), also for a
    singular Sigma_x0; a zero sd leaves the deterministic [mean > 1], as
    z = -inf or +inf.
    """
    model = build_multistep(sys, spec.horizon)
    x0_bar, s_x0 = spec.init.mean, spec.init.cov

    def score(a, c, s2):
        mean, sd = float(a @ x0_bar) + c, math.sqrt(float(a @ s_x0 @ a) + s2)
        return (1.0 - mean) / sd if sd > 0.0 else (-math.inf if mean > 1.0 else math.inf)

    scores = np.empty((spec.horizon + 1, spec.n_rows))
    for j, h in enumerate(spec.h_x):
        scores[0, j] = score(h, 0.0, 0.0)
        for k in range(1, spec.horizon + 1):
            g0, gu, gw = model.step(k)
            c = float(h @ gu @ u[: k * spec.m])
            s2 = float(h @ gw @ diag_repeat(sys.sigma_w, k) @ gw.T @ h)
            scores[k, j] = score(g0.T @ h, c, s2)
    return scores


@pytest.mark.parametrize("n, x0_rank", [(1, 1), (2, 2), (2, 1), (3, 3), (3, 1)])
def test_violation_noise_only_in_closed_form_band(n, x0_rank):
    # x0_rank < n gives a singular Sigma_x0.  The drawn counter's band must
    # hold the per-entry closed form and exact_violation's probabilities alike.
    gen = np.random.default_rng(700 + n)
    sys, spec, _, u = _problem(gen, n, 1, 3, STRUCTURE_FULL, x0_rank, 0)
    counts = _drawn_counts(sys, u, spec, 20_000, np.random.default_rng(710 + n))
    scores = _noise_only_scores(sys, spec, u)
    _assert_in_band(counts, 20_000, normal_dist.sf(scores))
    _assert_in_band(counts, 20_000, exact_violation(sys, u, spec).rate)


@given(
    n=st.integers(1, 3),
    m=st.integers(1, 2),
    horizon=st.integers(1, 3),
    x0_rank=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_violation_matches_closed_form(n, m, horizon, x0_rank, seed):
    # x0_rank < n gives a singular Sigma_x0, and x0_rank 0 a zero one.
    gen = np.random.default_rng(seed)
    sys, spec, _, u = _problem(gen, n, m, horizon, STRUCTURE_FULL, min(x0_rank, n), 0, rows=3)
    report = exact_violation(sys, u, spec)
    assert report.rate.shape == (horizon + 1, spec.n_rows)
    assert np.array_equal(report.upper99, report.rate)
    scores = _noise_only_scores(sys, spec, u)
    for (k, j), rate in np.ndenumerate(report.rate):
        z = scores[k, j]
        p = float(normal_dist.sf(z))
        # Q's relative condition number at z is about 1 + z^2, so round-off
        # in the score moves p by about 1e-15 z^2 relative (both this
        # reference and exact_violation are 3-6e-12 off a 50-digit value at
        # z = 29).  1e-12 relative holds up to |z| = 10 and grows with z^2
        # beyond; where both underflow, 1e-300 absolute.
        rel = 1e-12 * max(1.0, (z / 10.0) ** 2) if math.isfinite(z) else 0.0
        assert abs(rate - p) <= max(rel * p, 1e-300), ((j, k), rate, p)
    with pytest.raises(DimensionMismatch):
        exact_violation(sys, u[:-1], spec)


def test_exact_violation_deterministic_rows_without_warnings():
    # With Sigma_x0 = 0 the k = 0 rows have zero sd: their probability is
    # [h' x0 > 1], strict like the drawn counter's, with no division warning.
    sys = LinearSystem(A=[[0.9]], B=[[1.0]], E=[[1.0]], sigma_w=[[0.01]], sigma_eps=[[0.0]])
    spec = OcpSpec(horizon=2, Q=np.eye(1), R=np.eye(1), h_x=np.array([[0.5], [1.0], [-1.0]]),
                   u_set=None, p=0.9, init=GaussianBelief(mean=[2.0], cov=[[0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = exact_violation(sys, np.zeros(2), spec)
    assert report.rate[0].tolist() == [0.0, 1.0, 0.0]
    assert np.all((0.0 < report.rate[1:]) & (report.rate[1:] < 1.0))


def test_nominal_statespace_active_rows_violate_at_one_minus_p():
    # On the true system the nominal QP backs each row off by exactly
    # Phi^{-1}(p) standard deviations, so a row the optimum makes active is
    # violated with probability 1 - p, by the state-space recursion and by
    # exact_violation alike.
    sys = LinearSystem(A=[[1.0, 0.4], [0.0, 0.9]], B=[[0.0], [1.0]], E=np.eye(2),
                       sigma_w=0.002 * np.eye(2), sigma_eps=np.zeros((2, 2)))
    spec = OcpSpec(
        horizon=6, Q=np.eye(2), R=0.1 * np.eye(1), h_x=np.array([[0.0, -2.5], [0.4, 0.0]]),
        u_set=InputBox(lo=[-3.0], hi=[3.0]), p=0.9,
        init=GaussianBelief(mean=[1.5, 0.0], cov=0.001 * np.eye(2)),
    )
    sol = solve(build_nominal_qp_statespace(sys, spec))
    assert sol.status == "Optimal"
    u = sol.primal
    mean, cov = spec.init.mean, spec.init.cov
    active = {}
    for k in range(1, spec.horizon + 1):
        mean = sys.A @ mean + sys.B @ u[k - 1: k]
        cov = sys.A @ cov @ sys.A.T + sys.E @ sys.sigma_w @ sys.E.T
        for j, h in enumerate(spec.h_x):
            mu, sd = float(h @ mean), math.sqrt(float(h @ cov @ h))
            if 1.0 - mu - normal_dist.ppf(spec.p) * sd <= 1e-9:
                active[(j, k)] = float(normal_dist.sf((1.0 - mu) / sd))
    assert active
    for p_jk in active.values():
        assert abs(p_jk - (1.0 - spec.p)) <= 1e-12
    report = exact_violation(sys, u, spec)
    for (j, k), p_jk in active.items():
        rate = report.rate[k, j]
        assert abs(rate - p_jk) <= 1e-14 and report.upper99[k, j] == rate, ((j, k), rate)


# ---------------------------------------------------------------------------
# The estimated model: quadrature oracles and the stated bound
# ---------------------------------------------------------------------------


def _gauss_hermite(truth, spec, u, points=160):
    """p_jk = E_x0[Q((1 - mean(x0)) / sd(x0))] by tensor Gauss-Hermite quadrature over x0.

    Given x0 the row is Gaussian; x0 = mean + F z with F the non-zero
    columns of the factor of Sigma_x0, so a singular Sigma_x0 integrates over
    fewer dimensions.  Forty points per dimension leave errors up to 4e-9
    on these problems; at 160 the change from 80 points is below 2e-15.
    """
    factor = spec.init.factor
    factor = factor[:, np.any(factor, axis=0)]
    r = factor.shape[1]
    t, w = np.polynomial.hermite.hermgauss(points)
    grid = np.stack(np.meshgrid(*([t] * r), indexing="ij"), axis=-1).reshape(-1, r)
    weight = np.prod(np.stack(np.meshgrid(*([w] * r), indexing="ij"), axis=-1).reshape(-1, r),
                     axis=1) / math.pi ** (r / 2)
    nodes = spec.init.mean + math.sqrt(2.0) * grid @ factor.T
    p_exact = {}
    for j, h in enumerate(spec.h_x):
        # Step 0 is h' x0 itself: Gaussian, or deterministic where h' Sigma_x0 h = 0.
        p_exact[(j, 0)] = float(_upper_tail(h @ spec.init.mean, math.sqrt(h @ spec.init.cov @ h)))
        for k in range(1, spec.horizon + 1):
            est = truth.estimates[k - 1]
            uk = u[: k * spec.m]
            z = np.tile(uk, (len(nodes), 1))
            if est.structure == STRUCTURE_FULL:
                z = np.hstack([nodes, z])
            zh = np.einsum("ia,b->iab", z, h).reshape(len(z), -1)
            mean = nodes @ est.g0_hat().T @ h + h @ est.gu_hat() @ uk
            var = np.einsum("ia,ab,ib->i", zh, est.cov, zh) + _noise_variance(truth, h, k)
            p_exact[(j, k)] = float(weight @ normal_dist.sf((1.0 - mean) / np.sqrt(var)))
    return p_exact


def _assert_within_bound(report, p_ref, tol=1e-12, ref_error=1e-15):
    """Each rate is within ``tol`` of the reference and within its bound plus ``ref_error``."""
    for (k, j), rate in np.ndenumerate(report.rate):
        err = abs(rate - p_ref[(j, k)])
        assert err <= tol, ((j, k), rate, p_ref[(j, k)])
        assert err <= report.upper99[k, j] - rate + ref_error, ((j, k), rate, p_ref[(j, k)])


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("structure", [STRUCTURE_FULL, STRUCTURE_FIR])
def test_violation_parametric_in_gauss_hermite_band(n, structure):
    # With random parameters and x0 both Gaussian the row is no longer
    # Gaussian, but given x0 it is: p_jk = E_x0[Q((1 - mean(x0)) / sd(x0))].
    gen = np.random.default_rng(720 + n)
    _, spec, truth, u = _problem(gen, n, 1, 2, structure, n, 100, theta_scale=0.1)
    report = exact_violation(truth, u, spec)
    # The premise: full-structure rows at k >= 1 are not Gaussian.
    bounds = (report.upper99 - report.rate)[1:]
    assert np.all(bounds) if structure == STRUCTURE_FULL else not np.any(bounds)
    _assert_within_bound(report, _gauss_hermite(truth, spec, u))


@pytest.mark.parametrize("structure", [STRUCTURE_FULL, STRUCTURE_FIR])
@pytest.mark.parametrize("variances", [(0.3, 0.0), (0.25, 0.0, 0.4)])
def test_exact_violation_singular_x0_in_gauss_hermite_band(structure, variances):
    # A diagonal Sigma_x0 with a zero entry is exactly singular, and row 0
    # reads only that state, so its step-0 column has zero variance.
    gen = np.random.default_rng(730 + len(variances))
    n = len(variances)
    _, spec, truth, u = _problem(gen, n, 2, 2, structure, n, 100, theta_scale=0.1)
    h_x = np.vstack([2.0 * np.eye(n)[1], spec.h_x[1]])
    spec = replace(spec, h_x=h_x, init=GaussianBelief(mean=spec.init.mean, cov=np.diag(variances)))
    report = exact_violation(truth, u, spec)
    assert report.rate[0, 0] == float(2.0 * spec.init.mean[1] > 1.0) == report.upper99[0, 0]
    _assert_within_bound(report, _gauss_hermite(truth, spec, u))


@pytest.mark.parametrize("kind", ["system", "zero_cov", "fir"])
def test_gaussian_columns_equal_closed_form_bit_for_bit(kind):
    # On these truths every column has a zero bilinear block, so the report
    # is the closed form that the true system's probabilities always had:
    # p = Q((1 - mean) / sd) with sd^2 = ||F' lin||^2 + the constant variance.
    gen = np.random.default_rng(740)
    structure = STRUCTURE_FIR if kind == "fir" else STRUCTURE_FULL
    sys_, spec, truth, u = _problem(gen, 3, 2, 3, structure, 2, 0 if kind == "zero_cov" else 100,
                                    rows=3)
    base = _exact_predictors(sys_, spec.horizon) if kind == "system" else truth
    lin, quad = _conditional_maps(base, u, spec)
    n = spec.n
    mean = spec.init.mean @ lin[:n] + lin[n]
    var = np.sum((lin[:n].T @ spec.init.factor) ** 2, axis=1) + quad[-1]
    p = _upper_tail(mean, np.sqrt(var))
    report = exact_violation(sys_ if kind == "system" else truth, u, spec)
    assert np.array_equal(report.rate.ravel(), p)
    assert np.array_equal(report.upper99.ravel(), p)


def _scalar_truth(a, c_a, s_x0, x0_bar, s_noise, u=0.3, b=1.0):
    """One step of x1 = a x0 + b u + w, with a ~ N(a, c_a), x0 ~ N(x0_bar, s_x0^2), w ~ N(0, s_noise^2)."""
    est = ParameterEstimate(k=1, structure=STRUCTURE_FULL, theta=np.array([a, b]),
                            cov=np.diag([c_a, 0.0]), n=1, m=1)
    truth = EstimatedModel(estimates=[est], gw=[np.array([[1.0]])],
                                  sigma_w=np.array([[s_noise**2]]))
    spec = OcpSpec(horizon=1, Q=np.eye(1), R=np.eye(1), h_x=np.array([[1.0]]), u_set=None, p=0.9,
                   init=GaussianBelief(mean=np.array([x0_bar]), cov=np.array([[s_x0**2]])))
    return truth, spec, np.array([u])


@pytest.mark.parametrize("a, c_a, s_x0, x0_bar, s_noise, largest_bound", [
    (0.2, 4.0, 1.0, 0.0, 1e-1, 1e-12),
    (0.2, 4.0, 1.0, 0.0, 1e-2, 1e-10),
    (0.2, 4.0, 1.0, 0.0, 1e-3, 1e-3),
    (0.5, 25.0, 0.5, 0.3, 1e-4, 1e-3),
    (0.0, 100.0, 1.0, 0.0, 0.0, 1e-3),
    (-0.3, 9.0, 0.2, 2.0, 1e-2, 1e-12),
    (0.1, 0.04, 0.3, 0.2, 1e-2, 1e-12),
])
def test_bound_covers_heavy_bilinear_tails(a, c_a, s_x0, x0_bar, s_noise, largest_bound):
    # The row is (a + sqrt(c_a) xi) x0 + b u + w: with a large parameter
    # variance and a small noise term it is close to a product of normals,
    # whose characteristic function decays only like 1 / t.  The reference
    # integrates Q((1 - mean(x0)) / sd(x0)) over x0 adaptively.
    truth, spec, u = _scalar_truth(a, c_a, s_x0, x0_bar, s_noise)
    report = exact_violation(truth, u, spec)
    rate, upper = report.rate[1, 0], report.upper99[1, 0]

    def integrand(z):
        x0 = x0_bar + s_x0 * z
        mean, sd = a * x0 + u[0], math.sqrt(c_a * x0**2 + s_noise**2)
        return normal_dist.pdf(z) * (normal_dist.sf((1.0 - mean) / sd) if sd > 0 else mean > 1)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        ref, ref_error = integrate.quad(integrand, -45.0, 45.0, epsabs=1e-17, epsrel=1e-14,
                                        limit=2000, points=sorted({0.0, -x0_bar / s_x0}))
    bound = upper - rate
    assert 0.0 < bound <= largest_bound
    assert abs(rate - ref) <= bound + ref_error, (rate, upper, ref, ref_error)


def test_drawn_counter_band_holds_parametric_probabilities():
    # Sigma_x0 inflated fourfold and one row at several scales put bilinear
    # columns near 1e-2, where 200,000 draws resolve p to about 5%.
    gen = np.random.default_rng(772)
    _, spec, truth, u = _problem(gen, 2, 1, 3, STRUCTURE_FULL, 2, 100, rows=1)
    spec = replace(spec, h_x=np.outer([0.2, 0.3, 0.5, 0.8, 1.2, -0.5, -1.0], spec.h_x[0]),
                   init=GaussianBelief(mean=spec.init.mean, cov=4.0 * spec.init.cov))
    report = exact_violation(truth, u, spec)
    assert np.any((5e-3 < report.rate) & (report.rate < 2e-2) & (report.upper99 > report.rate))
    counts = _drawn_counts(truth, u, spec, 200_000, np.random.default_rng(773))
    _assert_in_band(counts, 200_000, report.rate)


# ---------------------------------------------------------------------------
# Input checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("noise_only", [True, False])
def test_non_finite_inputs_are_a_domain_error(noise_only, bad):
    # A NaN input once gave a NaN variance, which the zero-sd branch turned
    # into p = 0 at every k >= 1: a certificate from no information.
    gen = np.random.default_rng(750)
    sys_, spec, truth, u = _problem(gen, 2, 1, 3, STRUCTURE_FULL, 2, 100)
    u[1] = bad
    with pytest.raises(DomainError):
        exact_violation(sys_ if noise_only else truth, u, spec)
    with pytest.raises(DimensionMismatch):
        exact_violation(sys_ if noise_only else truth, u[:-1], spec)


# ---------------------------------------------------------------------------
# Public functions stay on the main thread
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("noise_only", [True, False])
def test_public_functions_run_on_main_thread(noise_only):
    # A tracer that wraps the public mspc functions in every module namespace
    # keeps its span stack in a plain list, so those calls must stay on the
    # calling thread.
    modules = [mod for name, mod in sorted(sys.modules.items())
               if mod is not None and (name == "mspc" or name.startswith("mspc."))]
    calls = []

    def wrap(name, fn):
        def wrapped(*args, **kwargs):
            calls.append((name, threading.current_thread() is threading.main_thread()))
            return fn(*args, **kwargs)
        return wrapped

    saved = []
    for mod in modules:
        for name, fn in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            replacement = wrap(f"{mod.__name__}.{name}", fn)
            for target in modules:
                for attr, value in list(vars(target).items()):
                    if value is fn:
                        saved.append((target, attr, value))
                        setattr(target, attr, replacement)
    gen = np.random.default_rng(761)
    sys_, spec, truth, u = _problem(gen, 2, 1, 3, STRUCTURE_FULL, 2, 100)
    try:
        validate_mod = sys.modules["mspc.validate"]
        validate_mod.exact_violation(sys_ if noise_only else truth, u, spec)
    finally:
        while saved:
            target, attr, value = saved.pop()
            setattr(target, attr, value)
    names = {name for name, _ in calls}
    assert {"mspc.validate.exact_violation", "mspc.linalg.psd_sqrt_factor"} <= names
    assert all(on_main for _, on_main in calls), [c for c in calls if not c[1]]

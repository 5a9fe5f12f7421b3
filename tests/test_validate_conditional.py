"""The conditional-law Monte Carlo counter against direct references and oracles.

Given x0, row j at step k of a multi-step predictor is Gaussian with mean
z' g and variance z' M z + s_jk^2.  The counter samples exactly that law, so
its moment maps must agree with the per-sample reference and its counts
with closed-form or quadrature violation probabilities; on the true system
``exact_violation`` evaluates the same law in closed form.
"""

import inspect
import math
import os
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special
from scipy.stats import binom
from scipy.stats import norm as normal_dist

from mspc.errors import DimensionMismatch
from mspc.ident import STRUCTURE_FIR, STRUCTURE_FULL, ParameterEstimate, true_theta
from mspc import validate
from mspc.linalg import Rng, chi2_quantile, diag_repeat, psd_sqrt_factor
from mspc.ocp import InputBox, OcpSpec, build_nominal_qp_statespace
from mspc.solver import solve
from mspc.system import GaussianBelief, LinearSystem, build_multistep, random_system
from mspc.validate import (
    SampledParameterTruth,
    ViolationEntry,
    ViolationReport,
    _batch_generator,
    _batch_sizes,
    _conditional_maps,
    _conditional_sd,
    _exact_predictors,
    _make_counter,
    _upper_tail,
    _variance_forms,
    _violation_bounds,
    clopper_pearson_interval,
    clopper_pearson_upper,
    estimate_violation,
    exact_violation,
    violation_report_to_json,
)


def _low_rank_cov(gen, dim, rank, scale):
    root = gen.standard_normal((dim, rank))
    return scale * root @ root.T / max(rank, 1)


def _problem(gen, n, m, horizon, structure, x0_rank, theta_rank, rows=2, theta_scale=0.05):
    """Random system, spec and sampled-parameter truth with the given covariance ranks."""
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
    truth = SampledParameterTruth(estimates=ests, gw=model.gw, sigma_w=sys.sigma_w)
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
        # No variance depends on x0, so the counter takes its constant-sd
        # path: only the last product (the constant 1) carries variance, and
        # the checks above then hold for quad[-1] alone.
        assert not np.any(quad[:-1])


# ---------------------------------------------------------------------------
# Counts against exact violation probabilities, Sigma_x0 != 0
# ---------------------------------------------------------------------------


def _assert_in_band(report, p_exact):
    for e in report.entries:
        low, high = clopper_pearson_interval(e.violations, e.samples, confidence=0.999)
        assert low <= p_exact[(e.j, e.k)] <= high, (e, p_exact[(e.j, e.k)])


def _noise_only_scores(sys, spec, u):
    """The score z_jk with p_jk = Q(z_jk) per (row, step) on the true system, entry by entry.

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

    scores = {}
    for j, h in enumerate(spec.h_x):
        scores[(j, 0)] = score(h, 0.0, 0.0)
        for k in range(1, spec.horizon + 1):
            g0, gu, gw = model.step(k)
            c = float(h @ gu @ u[: k * spec.m])
            s2 = float(h @ gw @ diag_repeat(sys.sigma_w, k) @ gw.T @ h)
            scores[(j, k)] = score(g0.T @ h, c, s2)
    return scores


@pytest.mark.parametrize("n, x0_rank", [(1, 1), (2, 2), (2, 1), (3, 3), (3, 1)])
def test_violation_noise_only_in_closed_form_band(n, x0_rank):
    # x0_rank < n gives a singular Sigma_x0.  The sampler's band must hold
    # the per-entry closed form and exact_violation's probabilities alike.
    gen = np.random.default_rng(700 + n)
    sys, spec, _, u = _problem(gen, n, 1, 3, STRUCTURE_FULL, x0_rank, 0)
    report = estimate_violation(sys, u, spec, 20_000, Rng(710 + n))
    assert report.mode == "noise_only"
    scores = _noise_only_scores(sys, spec, u)
    _assert_in_band(report, {key: float(normal_dist.sf(z)) for key, z in scores.items()})
    exact = exact_violation(sys, u, spec)
    _assert_in_band(report, {(e.j, e.k): e.rate for e in exact.entries})


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
    assert report.mode == "exact" and report.n_samples == 0
    assert [(e.k, e.j) for e in report.entries] == [
        (k, j) for k in range(horizon + 1) for j in range(spec.n_rows)
    ]
    scores = _noise_only_scores(sys, spec, u)
    for e in report.entries:
        assert e.samples == 0 and e.violations == 0 and e.rate == e.upper99
        z = scores[(e.j, e.k)]
        p = float(normal_dist.sf(z))
        # Q's relative condition number at z is about 1 + z^2, so round-off
        # in the score moves p by about 1e-15 z^2 relative (both this
        # reference and exact_violation are 3-6e-12 off a 50-digit value at
        # z = 29).  1e-12 relative holds up to |z| = 10 and grows with z^2
        # beyond; where both underflow, 1e-300 absolute.
        rel = 1e-12 * max(1.0, (z / 10.0) ** 2) if math.isfinite(z) else 0.0
        assert abs(e.rate - p) <= max(rel * p, 1e-300), (e, p)
    with pytest.raises(DimensionMismatch):
        exact_violation(sys, u[:-1], spec)


def test_exact_violation_deterministic_rows_without_warnings():
    # With Sigma_x0 = 0 the k = 0 rows have zero sd: their probability is
    # [h' x0 > 1], strict like the sampler's count, with no division warning.
    sys = LinearSystem(A=[[0.9]], B=[[1.0]], E=[[1.0]], sigma_w=[[0.01]], sigma_eps=[[0.0]])
    spec = OcpSpec(horizon=2, Q=np.eye(1), R=np.eye(1), h_x=np.array([[0.5], [1.0], [-1.0]]),
                   u_set=None, p=0.9, init=GaussianBelief(mean=[2.0], cov=[[0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = exact_violation(sys, np.zeros(2), spec)
    assert [e.rate for e in report.entries if e.k == 0] == [0.0, 1.0, 0.0]
    assert all(0.0 < e.rate < 1.0 for e in report.entries if e.k > 0)


def test_nominal_statespace_active_rows_violate_at_one_minus_p():
    # On the true system the nominal QP backs each row off by exactly
    # Phi^{-1}(p) standard deviations, so a row the optimum makes active is
    # violated with probability 1 - p, in closed form and by the counter.
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
    report = estimate_violation(sys, u, spec, 100_000, Rng(720))
    for e in report.entries:
        if (e.j, e.k) in active:
            low, high = clopper_pearson_interval(e.violations, e.samples, confidence=0.999)
            assert low <= 1.0 - spec.p <= high, e


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("structure", [STRUCTURE_FULL, STRUCTURE_FIR])
def test_violation_parametric_in_gauss_hermite_band(n, structure):
    # With random parameters and x0 both Gaussian the row is no longer
    # Gaussian, but given x0 it is: p_jk = E_x0[Q((1 - mean(x0)) / sd(x0))],
    # integrated by tensor Gauss-Hermite quadrature over x0.
    gen = np.random.default_rng(720 + n)
    _, spec, truth, u = _problem(gen, n, 1, 2, structure, n, 100, theta_scale=0.1)
    report = estimate_violation(truth, u, spec, 20_000, Rng(730 + n))
    assert report.mode == "noise_and_parameters"
    t, w = np.polynomial.hermite.hermgauss(40)
    grid = np.stack(np.meshgrid(*([t] * n), indexing="ij"), axis=-1).reshape(-1, n)
    weight = np.prod(np.stack(np.meshgrid(*([w] * n), indexing="ij"), axis=-1).reshape(-1, n),
                     axis=1) / math.pi ** (n / 2)
    x0_bar, s_x0 = spec.init.mean, spec.init.cov
    nodes = x0_bar + math.sqrt(2.0) * grid @ np.linalg.cholesky(s_x0).T
    p_exact = {}
    for j, h in enumerate(spec.h_x):
        p_exact[(j, 0)] = float(normal_dist.sf((1.0 - h @ x0_bar) / math.sqrt(h @ s_x0 @ h)))
        for k in range(1, spec.horizon + 1):
            est = truth.estimates[k - 1]
            uk = u[:k]
            s2 = _noise_variance(truth, h, k)
            p = 0.0
            for x0, wt in zip(nodes, weight):
                z = uk if structure == STRUCTURE_FIR else np.concatenate([x0, uk])
                mean = float(h @ (est.g0_hat() @ x0 + est.gu_hat() @ uk))
                var = float(np.kron(z, h) @ est.cov @ np.kron(z, h)) + s2
                p += wt * float(normal_dist.sf((1.0 - mean) / math.sqrt(var)))
            p_exact[(j, k)] = p
    _assert_in_band(report, p_exact)


# ---------------------------------------------------------------------------
# The k = 0 counts keep the x0 stream
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode, expected", [
    ("noise_only", [149, 435]),
    ("noise_and_parameters", [149, 435]),
])
def test_violation_k0_counts_keep_x0_stream(mode, expected):
    # x0 is the first draw of every batch, so the k = 0 counts are those the
    # per-step sampler this counter replaced gave on the same seed.
    gen = np.random.default_rng(747)
    sys, spec, truth, u = _problem(gen, 2, 1, 3, STRUCTURE_FULL, 2, 100)
    report = estimate_violation(sys if mode == "noise_only" else truth, u, spec,
                                10_000, Rng(748))
    assert [e.violations for e in report.entries if e.k == 0] == expected


# ---------------------------------------------------------------------------
# Concurrent batches against the sequential reference
# ---------------------------------------------------------------------------


def _sequential_report(truth, u, spec, n_samples, rng):
    """The report of one pass over the batches, in order, on the calling thread."""
    noise_only = not isinstance(truth, SampledParameterTruth)
    count = _make_counter(_exact_predictors(truth, spec.horizon) if noise_only else truth,
                          u[: spec.horizon * spec.m], spec)
    counts = sum(count(_batch_generator(rng, b), size)[0]
                 for b, size in enumerate(_batch_sizes(n_samples, count.draw_rate)))
    entries = [
        ViolationEntry(j=j, k=k, samples=n_samples, violations=int(counts[k, j]),
                       rate=int(counts[k, j]) / n_samples,
                       upper99=clopper_pearson_upper(int(counts[k, j]), n_samples))
        for k in range(spec.horizon + 1) for j in range(spec.n_rows)
    ]
    return ViolationReport(mode="noise_only" if noise_only else "noise_and_parameters",
                           n_samples=n_samples, entries=entries)


@given(
    n=st.integers(1, 3),
    noise_only=st.booleans(),
    structure=st.sampled_from([STRUCTURE_FULL, STRUCTURE_FIR]),
    # At one x0 draw per sample, 5000 is two batches, fewer than three or
    # five workers; the others end in a remainder batch or fill every batch.
    n_samples=st.sampled_from([1000, 5000, 3 * 4096, 3 * 4096 + 17]),
    seed=st.integers(0, 2**32 - 1),
)
def test_counts_identical_for_any_worker_count(n, noise_only, structure, n_samples, seed):
    gen = np.random.default_rng(seed)
    sys_, spec, truth, u = _problem(gen, n, 1, 3, structure, n, 100)
    truth = sys_ if noise_only else truth
    reference = _sequential_report(truth, u, spec, n_samples, Rng(seed, 2))
    for cpus in (1, 2, 3, 5):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            report = estimate_violation(truth, u, spec, n_samples, Rng(seed, 2))
        assert report == reference, cpus


@given(
    n=st.integers(1, 4),
    x0_rank=st.integers(0, 3),
    size=st.sampled_from([1, 7, 4096]),
    seed=st.integers(0, 2**32 - 1),
)
def test_conditional_sd_matches_samples_first_products(n, x0_rank, size, seed):
    # x0_rank < n gives a singular Sigma_x0; the full-rank parameter
    # covariance makes every M non-zero, so the sd depends on x0.
    gen = np.random.default_rng(seed)
    _, spec, truth, u = _problem(gen, n, 2, 3, STRUCTURE_FULL, min(x0_rank, n), 100)
    _, quad = _conditional_maps(truth, u, spec)
    assert np.any(quad[:-1])
    factor = psd_sqrt_factor(spec.init.cov)
    x0 = spec.init.mean + gen.standard_normal((size, factor.shape[1])) @ factor.T
    x_aug = np.column_stack([x0, np.ones(size)])
    iu, ju = np.triu_indices(n + 1)
    old = np.sqrt(np.maximum((x_aug[:, iu] * x_aug[:, ju]) @ quad, 0.0))
    new = _conditional_sd(x_aug, quad)
    assert new.shape == old.shape
    assert np.all(np.abs(new - old) <= 1e-13 * old)


# ---------------------------------------------------------------------------
# Thinning: bounds on the ball, and the law of the counts
# ---------------------------------------------------------------------------


def _probabilities(x0, lin, quad):
    """The counter's p_c(x0) = Q((1 - mean) / sd) for each row of ``x0`` and each column."""
    x_aug = np.column_stack([x0, np.ones(len(x0))])
    return _upper_tail(x_aug @ lin, _conditional_sd(x_aug, quad))


def _sd_maximizers(gram, x_mean, x_factor, radius, starts):
    """Points z on the sphere ||z|| = radius that locally maximize x~(z)' G x~(z), per column.

    x~(z) = x_mean + x_factor z.  Each step maximizes the linearization over
    the ball, which never lowers a convex function, so from the given starts
    the iterates rise to local maxima.
    """
    z = np.broadcast_to(starts, (gram.shape[0],) + starts.shape).copy()
    for _ in range(100):
        x = x_mean + z @ x_factor.T
        grad = np.einsum("ra,cab,csb->csr", x_factor.T, gram, x)
        norm = np.linalg.norm(grad, axis=-1, keepdims=True)
        z = np.where(norm > 0.0, radius * grad / np.where(norm > 0.0, norm, 1.0), z)
    return z


@given(
    n=st.integers(1, 3),
    m=st.integers(1, 2),
    horizon=st.integers(1, 3),
    structure=st.sampled_from([STRUCTURE_FULL, STRUCTURE_FIR]),
    x0_rank=st.integers(0, 3),
    theta_rank=st.sampled_from([0, 1, 100]),
    zero_noise=st.booleans(),
    tail=st.sampled_from([1e-3, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_violation_bounds_hold_on_the_ball(n, m, horizon, structure, x0_rank, theta_rank,
                                           zero_noise, tail, seed):
    # x0_rank < n gives a singular Sigma_x0 and 0 a zero one; zero noise with
    # theta_rank 0 makes every sd zero, so p is [mean > 1].
    gen = np.random.default_rng(seed)
    _, spec, truth, u = _problem(gen, n, m, horizon, structure, min(x0_rank, n), theta_rank,
                                 rows=3)
    if zero_noise:
        truth = replace(truth, sigma_w=np.zeros_like(truth.sigma_w))
    lin, quad = _conditional_maps(truth, u, spec)
    mean, factor = spec.init.mean, spec.init.factor
    r = factor.shape[1]
    radius = math.sqrt(chi2_quantile(r, 1.0 - tail))
    gram = _variance_forms(quad, n + 1)
    p_bar = _violation_bounds(lin, gram, mean, factor, radius)
    assert p_bar.shape == (lin.shape[1],) and np.all((0.0 <= p_bar) & (p_bar <= 1.0))

    directions = gen.standard_normal((64, r))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    sphere = radius * directions
    points = [sphere, sphere * gen.random((64, 1)), np.zeros((1, r))]
    # The maximizer of the mean of each column, and local maximizers of its sd.
    f_lin = factor.T @ lin[:n]
    f_norm = np.linalg.norm(f_lin, axis=0)
    points.append((radius * f_lin / np.where(f_norm > 0.0, f_norm, 1.0)).T)
    x_factor = np.vstack([factor, np.zeros((1, r))])
    local = _sd_maximizers(gram, np.append(mean, 1.0), x_factor, radius, sphere[:8])
    for c in range(lin.shape[1]):
        p = _probabilities(mean + np.concatenate(points + [local[c]]) @ factor.T, lin, quad)
        assert np.all(p <= p_bar), (c, p.max(axis=0), p_bar)


def _reference_counter(truth, u, spec):
    """The counter before thinning, verbatim: one normal per (sample, row, step).

    It counts step 0 from x0 directly, so it reads the maps' steps 1..horizon.
    """
    lin, quad = (a[:, spec.n_rows:] for a in _conditional_maps(truth, u, spec))
    const_sd = None if np.any(quad[:-1]) else np.sqrt(quad[-1])
    x0_factor = spec.init.factor

    def count(gen: np.random.Generator, size: int) -> np.ndarray:
        x0 = spec.init.mean + gen.standard_normal((size, x0_factor.shape[1])) @ x0_factor.T
        x_aug = np.column_stack([x0, np.ones(size)])
        sd = const_sd if const_sd is not None else _conditional_sd(x_aug, quad)
        value = x_aug @ lin + sd * gen.standard_normal((size, lin.shape[1]))
        return np.vstack([
            np.count_nonzero(x0 @ spec.h_x.T > 1.0, axis=0),
            np.count_nonzero(value > 1.0, axis=0).reshape(spec.horizon, spec.n_rows),
        ])

    return count


def _reference_counts(truth, u, spec, n_samples, rng):
    count = _reference_counter(truth, u, spec)
    return sum(count(_batch_generator(rng, b), size)
               for b, size in enumerate(_batch_sizes(n_samples, 1.0)))


def _assert_same_law(report, reference_counts):
    """Two independent binomial counts a, b with one p: given a + b, a ~ Binomial(a + b, 1/2)."""
    for e in report.entries:
        total = e.violations + int(reference_counts[e.k, e.j])
        low, high = binom.interval(0.999, total, 0.5)
        assert low <= e.violations <= high, (e, int(reference_counts[e.k, e.j]))


def _scaled_rows(spec):
    """One row at scales that spread the violation probabilities over about 1e-4 .. 0.9.

    A small Sigma_x0 keeps each column's bound over the ball close to its
    probability, so that violated columns are thinned too.
    """
    scales = np.array([0.1, 0.2, 0.3, 0.5, 1.0, 2.0, -2.0, -6.0])
    return replace(spec, h_x=np.outer(scales, spec.h_x[0]),
                   init=GaussianBelief(mean=spec.init.mean, cov=0.05 * spec.init.cov))


@pytest.mark.parametrize("structure", [STRUCTURE_FULL, STRUCTURE_FIR])
def test_thinned_counts_share_the_reference_law(monkeypatch, structure):
    # The thresholds choose between two exact counters for speed; at the
    # higher one next to drawn columns too, violated columns are thinned.
    monkeypatch.setattr(validate, "_THIN_BELOW_MIXED", validate._THIN_BELOW)
    gen = np.random.default_rng(801)
    _, spec, truth, u = _problem(gen, 2, 1, 3, structure, 2, 100, rows=1)
    spec = _scaled_rows(spec)
    n_samples = 50_000
    report = estimate_violation(truth, u, spec, n_samples, Rng(802))
    reference = _reference_counts(truth, u, spec, n_samples, Rng(803))
    rates = reference[1:] / n_samples
    thinned = {(j, k) for j, k in report.thinned}
    # The premise: thinned columns that are violated, drawn columns, and
    # probabilities from about 1e-4 to 0.9.
    assert any(report.entries[k * spec.n_rows + j].violations for j, k in thinned)
    assert len(thinned) < spec.horizon * spec.n_rows
    assert rates.max() > 0.5 and 0.0 < rates[rates > 0].min() < 1e-3
    _assert_same_law(report, reference)


@pytest.mark.parametrize("noise_only", [True, False])
def test_outside_ball_and_drawn_columns(monkeypatch, noise_only):
    # With half of the x0 draws outside the ball, the exact per-sample path
    # carries half the samples of every thinned column; a row whose mean
    # reaches 1 on the ball has p_bar = 1 and is drawn as normals.
    monkeypatch.setattr(validate, "_BALL_TAIL", 0.5)
    gen = np.random.default_rng(811)
    sys_, spec, truth, u = _problem(gen, 2, 1, 3, STRUCTURE_FULL, 2, 100, rows=1)
    base = _exact_predictors(sys_, spec.horizon) if noise_only else truth
    lin, _ = _conditional_maps(base, u, replace(spec, h_x=np.eye(2)))
    state_mean = (np.append(spec.init.mean, 1.0) @ lin)[:2]  # E[x_1 | x0 = mean]
    i = np.argmax(np.abs(state_mean))
    # Row 0 has mean 1.2 at k = 1 and x0 = mean.
    spec = replace(spec, h_x=np.vstack([1.2 * np.eye(2)[i] / state_mean[i],
                                        0.1 * spec.h_x[0], 0.3 * spec.h_x[0]]))
    lin, quad = _conditional_maps(base, u, spec)
    radius = math.sqrt(chi2_quantile(spec.n, 0.5))
    p_bar = _violation_bounds(lin, _variance_forms(quad, spec.n + 1), spec.init.mean,
                              spec.init.factor, radius)
    assert p_bar[spec.n_rows] == 1.0                        # row 0 at k = 1
    n_samples = 20_000
    report = estimate_violation(sys_ if noise_only else truth, u, spec, n_samples, Rng(812))
    # Row 0 is drawn, so the other columns are thinned below the lower threshold.
    low = np.flatnonzero(p_bar < validate._THIN_BELOW_MIXED)
    thinned = [(c % spec.n_rows, c // spec.n_rows) for c in low]
    assert (0, 1) not in report.thinned and list(report.thinned) == thinned and thinned
    # About half the samples of each thinned (row, step) are outside the ball.
    assert report.exact_evaluations >= 0.4 * n_samples * len(thinned)
    if noise_only:
        exact = exact_violation(sys_, u, spec)
        _assert_in_band(report, {(e.j, e.k): e.rate for e in exact.entries})
    else:
        _assert_same_law(report, _reference_counts(truth, u, spec, n_samples, Rng(813)))


def test_exact_evaluations_reported_for_any_worker_count():
    gen = np.random.default_rng(821)
    sys_, spec, truth, u = _problem(gen, 2, 1, 3, STRUCTURE_FULL, 2, 100, rows=1)
    spec = _scaled_rows(spec)
    reports = []
    for cpus in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            reports.append(estimate_violation(truth, u, spec, 3 * 4096 + 17, Rng(822)))
    assert len({(r.exact_evaluations, r.x0_draws, r.thinned) for r in reports}) == 1
    assert reports[0].exact_evaluations > 0 and reports[0].thinned
    # Four batches, so as many workers as CPUs.
    assert [r.workers for r in reports] == [1, 2, 3]
    doc = violation_report_to_json(reports[0])
    assert doc["exact_evaluations"] == reports[0].exact_evaluations
    assert doc["x0_draws"] == reports[0].x0_draws
    assert doc["thinned"] == [list(pair) for pair in reports[0].thinned]
    assert "workers" not in doc
    exact_doc = violation_report_to_json(exact_violation(sys_, u, spec))
    assert "exact_evaluations" not in exact_doc and "x0_draws" not in exact_doc


# ---------------------------------------------------------------------------
# Only the samples that some (row, step) can count draw x0
# ---------------------------------------------------------------------------


def _four_state_like(scale):
    """Four states, two inputs, horizon 6 and two rows on single states, as in four_state."""
    gen = np.random.default_rng(841)
    _, spec, truth, u = _problem(gen, 4, 2, 6, STRUCTURE_FULL, 4, 100)
    return replace(spec, h_x=scale * np.eye(4)[[0, 2]]), truth, u


def test_x0_draws_only_where_counted():
    n_samples = 200_000
    spec, truth, u = _four_state_like(0.1)
    count = _make_counter(truth, u, spec)
    q = count.draw_rate
    # The premise: every (row, step) thinned, step 0 included, and a pool.
    assert len(count.thinned) == (spec.horizon + 1) * spec.n_rows
    assert 1e-3 < q < 1e-2
    report = estimate_violation(truth, u, spec, n_samples, Rng(842))
    # x0_draws ~ Binomial(N, q): each sample is outside the ball or in the pool.
    assert abs(report.x0_draws - n_samples * q) <= 6.0 * math.sqrt(n_samples * q)
    # With some (row, step) drawn, every sample draws x0.
    spec, truth, u = _four_state_like(0.2)
    assert _make_counter(truth, u, spec).draw_rate == 1.0
    report = estimate_violation(truth, u, spec, n_samples, Rng(843))
    assert report.x0_draws == n_samples


def _dkw_band(samples, cdf, alpha=1e-3):
    """The largest distance of the empirical CDF of ``samples`` from ``cdf``, and its DKW bound."""
    x = np.sort(samples)
    n = x.size
    f = cdf(x)
    gap = max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n))
    return gap, math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


@pytest.mark.parametrize("r", [1, 2, 4])
def test_outside_and_pool_draws_follow_the_truncated_law(r):
    # Outside the ball ||z||^2 follows chi2_r conditioned on > radius^2, and
    # its direction is uniform: u_1^2 ~ Beta(1/2, (r - 1)/2).  A pool draw
    # follows chi2_r conditioned on <= radius^2.
    gen = np.random.default_rng(850 + r)
    radius = math.sqrt(chi2_quantile(r, 1.0 - 1e-3))
    tail = float(special.gammaincc(r / 2.0, radius**2 / 2.0))
    outside = validate._outside_draws(gen, 20_000, r, tail)
    squared = np.einsum("ij,ij->i", outside, outside)
    assert outside.shape == (20_000, r) and np.all(squared > radius**2)
    gap, band = _dkw_band(squared, lambda x: 1.0 - special.gammaincc(r / 2.0, x / 2.0) / tail)
    assert gap <= band, (gap, band)
    if r > 1:
        gap, band = _dkw_band(outside[:, 0] ** 2 / squared,
                              lambda x: special.betainc(0.5, (r - 1) / 2.0, x))
        assert gap <= band, (gap, band)
    pool = validate._inside_draws(gen, 20_000, r, radius)
    squared = np.einsum("ij,ij->i", pool, pool)
    assert pool.shape == (20_000, r) and np.all(squared <= radius**2)
    gap, band = _dkw_band(squared, lambda x: special.gammainc(r / 2.0, x / 2.0) / (1.0 - tail))
    assert gap <= band, (gap, band)


@pytest.mark.parametrize("structure, scales, tail", [(STRUCTURE_FULL, (0.1, 0.15), 0.9),
                                                     (STRUCTURE_FIR, (0.2, 0.3), 0.5)])
def test_pooled_counts_share_the_reference_law(monkeypatch, structure, scales, tail):
    # On a small ball every column's bound stays below 1/16 while the draws
    # outside it violate, so the pooled draw (q < 1) counts violated thinned
    # columns; it must match the verbatim old counter.  A FIR row's law does
    # not depend on x0, so there half of its hits come from pool candidates.
    monkeypatch.setattr(validate, "_BALL_TAIL", tail)
    gen = np.random.default_rng(831)
    _, spec, truth, u = _problem(gen, 2, 1, 3, structure, 2, 100, rows=1)
    spec = replace(spec, h_x=np.outer(scales, spec.h_x[0]))
    n_samples = 50_000
    report = estimate_violation(truth, u, spec, n_samples, Rng(832))
    assert report.x0_draws < n_samples
    assert len(report.thinned) == (spec.horizon + 1) * spec.n_rows
    assert sum(e.violations > 0 for e in report.entries) >= 3
    _assert_same_law(report, _reference_counts(truth, u, spec, n_samples, Rng(833)))


# ---------------------------------------------------------------------------
# Public functions stay on the main thread
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("noise_only", [True, False])
def test_public_functions_run_on_main_thread(noise_only):
    # A tracer that wraps the public mspc functions in every module namespace
    # keeps its span stack in a plain list, so those calls must not move to
    # the sampler's worker threads; only private helpers and numpy may run there.
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
        validate_mod.estimate_violation(sys_ if noise_only else truth, u, spec,
                                        3 * 4096 + 17, Rng(762))
    finally:
        while saved:
            target, attr, value = saved.pop()
            setattr(target, attr, value)
    names = {name for name, _ in calls}
    assert {"mspc.validate.estimate_violation", "mspc.linalg.psd_sqrt_factor",
            "mspc.validate.clopper_pearson_upper"} <= names
    assert all(on_main for _, on_main in calls), [c for c in calls if not c[1]]

"""Violation probabilities of the chance constraints, and other validation.

Certification reports, per constraint row and horizon step, the probability
that H_j' x_k > 1.  On the true system it is exact: with x0 and w Gaussian,
every H_j' x_k is Gaussian too, and :func:`exact_violation` writes its
probability down.  Only the estimated model needs sampling:
:func:`estimate_violation` draws the per-step predictors from the estimated
Gaussians (and, as a reference, can count on the fixed true system).
Both read one law of multi-step predictors: given x0, row j at step k is
Gaussian with mean z' g and variance z' M z + s_jk^2, where (g, M) are the
:meth:`ParameterEstimate.row_moments` and s_jk^2 = H_j' Gw_k (I kron
Sigma_w) Gw_k' H_j is the noise term, so it is violated with probability
p_jk(x0) = Q((1 - mean) / sd); at step 0 the row is h_j' x0 itself.  No
sample draws w.  A (row, step) whose p_jk is small on a ball that holds
almost every x0 draw is counted by thinning: only candidates drawn at a
certified bound of p_jk, and the draws outside the ball, cost a
probability; the other (row, step) pairs draw one standard normal per
sample.  When every pair is thinned, only the samples that some pair can
count draw an x0 at all.  Either way each count has its exact binomial
law, and the exact Clopper-Pearson upper bounds turn the counts into
one-sided certificates.  Those bounds are beta quantiles, computed as
``scipy.special.betaincinv``.  Sampling runs in batches of a fixed
expected number of x0 draws, each with its own stream derived from the
master seed; batches run concurrently on the usable CPUs; their integer
counts are summed, so reports are byte-identical for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import special

from .errors import DimensionMismatch, SingularInformation
from .ident import (
    ParameterEstimate,
    STRUCTURE_FULL,
    estimate_predictor,
    state_space_ls,
    true_theta,
)
from .linalg import Rng, _ball_max_bounds, chi2_quantile, psd_sqrt_factor
from .ocp import (
    OcpSpec,
    TighteningTable,
    build_nominal_qp_multistep,
    build_nominal_qp_statespace,
)
from .solver import SolverOptions, solve
from .system import GaussianBelief, LinearSystem, build_multistep, simulate

_BATCH = 4096


def clopper_pearson_upper(violations: int, samples: int, confidence: float = 0.99) -> float:
    """Exact one-sided upper confidence bound for a binomial proportion."""
    if samples < 1:
        raise DimensionMismatch("need at least one sample")
    if violations >= samples:
        return 1.0
    return float(special.betaincinv(violations + 1, samples - violations, confidence))


def clopper_pearson_interval(hits: int, samples: int, confidence: float = 0.99):
    """Exact two-sided confidence interval for a binomial proportion."""
    alpha = 1.0 - confidence
    low = 0.0 if hits == 0 else float(special.betaincinv(hits, samples - hits + 1, alpha / 2.0))
    high = 1.0 if hits == samples else float(
        special.betaincinv(hits + 1, samples - hits, 1.0 - alpha / 2.0)
    )
    return low, high


@dataclass(frozen=True)
class ViolationEntry:
    j: int
    k: int
    samples: int
    violations: int
    rate: float
    upper99: float


@dataclass(frozen=True)
class ViolationReport:
    mode: str                     # "noise_only" | "noise_and_parameters" | "exact"
    n_samples: int
    entries: "list[ViolationEntry]"
    # How a sampled report was counted, not what it found, so reports compare
    # by their entries: the (sample, row, step) probabilities computed, the
    # x0 draws, the (row, step) pairs counted by thinning rather than by
    # normal draws, and the worker threads (which depend on the machine).
    exact_evaluations: int = field(default=0, compare=False)
    x0_draws: int = field(default=0, compare=False)
    thinned: "tuple[tuple[int, int], ...]" = field(default=(), compare=False)
    workers: int = field(default=0, compare=False)

    @property
    def worst_upper99(self) -> float:
        return max((e.upper99 for e in self.entries), default=0.0)

    def certifies(self, budget: float, margin: float = 0.0) -> bool:
        """True when every per-row upper bound stays within budget + margin."""
        return all(e.upper99 <= budget + margin for e in self.entries)


@dataclass(frozen=True)
class SampledParameterTruth:
    """Sampling model: per-step predictors drawn from the estimated Gaussians."""

    estimates: "list[ParameterEstimate]"
    gw: "list[np.ndarray]"
    sigma_w: np.ndarray


def _batch_generator(rng: Rng, batch: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=rng.master_seed, spawn_key=(rng.stream_index, batch))
    return np.random.default_rng(seq)


def _batch_sizes(n_samples: int, draw_rate: float) -> "list[int]":
    """Batches of ``_BATCH`` expected x0 draws, at ``draw_rate`` draws per sample."""
    batch = n_samples if n_samples * draw_rate <= _BATCH else math.ceil(_BATCH / draw_rate)
    sizes = [batch] * (n_samples // batch)
    if n_samples % batch:
        sizes.append(n_samples % batch)
    return sizes


def _workers(n_batches: int) -> int:
    """Threads for ``n_batches`` batches: one per usable CPU, at most one per batch."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(n_batches, cpus or 1)


def estimate_violation(
    truth: "LinearSystem | SampledParameterTruth",
    u: np.ndarray,
    spec: OcpSpec,
    n_samples: int,
    rng: Rng,
) -> ViolationReport:
    """Empirical per-(row, step) violation rates of H_j' x_k <= 1.

    ``truth`` selects the sampling mode: a :class:`LinearSystem` propagates
    noise through the fixed system (its exact predictors with zero parameter
    covariance); a :class:`SampledParameterTruth` adds the Gaussian
    parametric term of the estimate.  Either way, given its x0, each sample
    has one Bernoulli(p_jk(x0)) indicator per (row, step), by thinning or by
    a normal draw (:func:`_make_counter`); no w is drawn, and where every
    (row, step) is thinned only the samples that one can count draw x0.
    The report also says how: ``exact_evaluations`` counts the (sample, row,
    step) probabilities computed, ``x0_draws`` the x0 drawn, ``thinned``
    lists the thinned (row, step) and ``workers`` the threads used.
    """
    if n_samples < 1000:
        raise DimensionMismatch("certification needs at least 1000 samples")
    u = _horizon_inputs(u, spec)
    n_u = spec.horizon
    if isinstance(truth, LinearSystem):
        mode = "noise_only"
        truth = _exact_predictors(truth, n_u)
    else:
        mode = "noise_and_parameters"
        if len(truth.estimates) < n_u or len(truth.gw) < n_u:
            raise DimensionMismatch("need one estimate and Gw per horizon step")

    # The batches' streams are independent and numpy releases the GIL, so
    # threads overlap the draws; the integer counts sum in any order.  The
    # counter calls no public mspc function, so a tracer that wraps those
    # sees every call on the calling thread.
    count_batch = _make_counter(truth, u, spec)
    sizes = _batch_sizes(n_samples, count_batch.draw_rate)
    workers = _workers(len(sizes))
    with ThreadPoolExecutor(workers) as pool:
        parts = pool.map(lambda b, size: count_batch(_batch_generator(rng, b), size),
                         range(len(sizes)), sizes)
        counts, evaluated, draws = (sum(part) for part in zip(*parts))

    entries = []
    for k in range(0, n_u + 1):
        for j in range(spec.n_rows):
            c = int(counts[k, j])
            entries.append(
                ViolationEntry(
                    j=j,
                    k=k,
                    samples=n_samples,
                    violations=c,
                    rate=c / n_samples,
                    upper99=clopper_pearson_upper(c, n_samples),
                )
            )
    return ViolationReport(mode=mode, n_samples=n_samples, entries=entries,
                           exact_evaluations=int(evaluated), x0_draws=int(draws),
                           thinned=count_batch.thinned, workers=workers)


def exact_violation(sys: LinearSystem, u: np.ndarray, spec: OcpSpec) -> ViolationReport:
    """Exact per-(row, step) violation probabilities of H_j' x_k <= 1 on the true system.

    H_j' x_k is affine in the Gaussian x0 and w, so p_jk = Q((1 - mean) / sd)
    with the mean and variance of the maps the sampler draws from (step 0
    included), plus the variance of x0 through ``spec.init.factor``.  A zero
    sd (a deterministic row) gives p_jk = [mean > 1], the sampler's strict
    inequality.  Entries carry ``samples = violations = 0`` and ``rate =
    upper99 = p_jk``.
    """
    u = _horizon_inputs(u, spec)
    lin, quad = _conditional_maps(_exact_predictors(sys, spec.horizon), u, spec)
    x0_bar, factor, n = spec.init.mean, spec.init.factor, spec.n
    mean = x0_bar @ lin[:n] + lin[n]
    var = np.sum((lin[:n].T @ factor) ** 2, axis=1) + quad[-1]
    p = _upper_tail(mean, np.sqrt(var)).reshape(spec.horizon + 1, spec.n_rows)
    entries = [ViolationEntry(j=j, k=k, samples=0, violations=0,
                              rate=float(p[k, j]), upper99=float(p[k, j]))
               for k in range(spec.horizon + 1) for j in range(spec.n_rows)]
    return ViolationReport(mode="exact", n_samples=0, entries=entries)


def _horizon_inputs(u: np.ndarray, spec: OcpSpec) -> np.ndarray:
    """The first horizon * m entries of ``u``; a shorter sequence is a DimensionMismatch."""
    u = np.asarray(u, dtype=float).ravel()
    n_u, m = spec.horizon, spec.m
    if u.size < n_u * m:
        raise DimensionMismatch(f"input sequence must cover {n_u} steps of {m} inputs")
    return u[: n_u * m]


def _exact_predictors(sys: LinearSystem, horizon: int) -> SampledParameterTruth:
    """The true system's k-step predictors as estimates with zero covariance."""
    model = build_multistep(sys, horizon)
    estimates = []
    for k in range(1, horizon + 1):
        g0, gu, _ = model.step(k)
        theta = true_theta(g0, gu)
        estimates.append(ParameterEstimate(k=k, structure=STRUCTURE_FULL, theta=theta,
                                           cov=np.zeros((theta.size, theta.size)),
                                           n=sys.n, m=sys.m))
    return SampledParameterTruth(estimates=estimates, gw=model.gw, sigma_w=sys.sigma_w)


def _conditional_maps(truth: SampledParameterTruth, u: np.ndarray, spec: OcpSpec):
    """Maps lin ((n+1) x horizon*rows) and quad in x~ = [x0; 1].

    Given x0, row j at step k has mean x~' lin and variance p' quad, i.e.
    z' g and z' M z + s_jk^2 with z the regressor, (g, M) the row moments
    and s_jk = ||H_j' Gw_k (I_k kron Sigma_w^1/2)||.  The variance is
    symmetric in x~ kron x~, so p holds only its products x~_a x~_b with
    a <= b (``np.triu_indices(n + 1)``, the constant 1 last), and quad the
    matching entries with off-diagonals doubled.  Columns run over steps
    k = 0..horizon, and over rows within a step; step 0 is the row h_j' x0,
    with lin = [h_j; 0] and zero variance.
    """
    n, m, rows = spec.n, spec.m, spec.n_rows
    w_factor = psd_sqrt_factor(truth.sigma_w)
    lin = np.zeros((n + 1, spec.horizon + 1, rows))
    quad = np.zeros((n + 1, n + 1, spec.horizon + 1, rows))
    lin[:n, 0] = spec.h_x.T
    for k in range(1, spec.horizon + 1):
        g, m_mats = truth.estimates[k - 1].row_moments(spec.h_x)
        uk = u[: k * m]
        nx = g.shape[0] - uk.size          # n for full structure, 0 for FIR
        h_gw = (spec.h_x @ truth.gw[k - 1]).reshape(rows, k, w_factor.shape[0]) @ w_factor
        lin[:nx, k], lin[n, k] = g[:nx], uk @ g[nx:]
        quad[:nx, :nx, k] = m_mats[:, :nx, :nx].transpose(1, 2, 0)
        quad[:nx, n, k] = quad[n, :nx, k] = (m_mats[:, :nx, nx:] @ uk).T
        quad[n, n, k] = m_mats[:, nx:, nx:] @ uk @ uk + np.sum(h_gw**2, axis=(1, 2))
    iu, ju = np.triu_indices(n + 1)
    quad = quad[iu, ju] * (2.0 - (iu == ju))[:, None, None]
    return lin.reshape(n + 1, -1), quad.reshape(iu.size, -1)


def _conditional_sd(x_aug: np.ndarray, quad: np.ndarray) -> np.ndarray:
    """sqrt(p' quad) per sample, p the products x~_a x~_b (a <= b) of each row of ``x_aug``.

    The products are gathered samples-last, from contiguous rows of x_aug',
    not by fancy-indexing the columns of x_aug; the product with quad takes
    them transposed, so the result stays samples-first and C-contiguous.
    """
    x_t = np.ascontiguousarray(x_aug.T)
    iu, ju = np.triu_indices(x_t.shape[0])
    products = x_t[iu]
    products *= x_t[ju]
    var = products.T @ quad
    return np.sqrt(np.maximum(var, 0.0, out=var), out=var)


def _upper_tail(mean: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """P(N(mean, sd^2) > 1) = Q((1 - mean) / sd); a zero sd gives [mean > 1]."""
    score = np.divide(mean - 1.0, sd, out=np.where(mean > 1.0, np.inf, -np.inf), where=sd > 0.0)
    return special.ndtr(score)


def _variance_forms(quad: np.ndarray, d: int) -> np.ndarray:
    """Per column c the symmetric d x d matrix G_c with x~' G_c x~ = p' quad[:, c]."""
    iu, ju = np.triu_indices(d)
    gram = np.zeros((quad.shape[1], d, d))
    gram[:, iu, ju] = gram[:, ju, iu] = (quad / (2.0 - (iu == ju))[:, None]).T
    return gram


def _paired_tail(x_aug: np.ndarray, lin: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Violation probability of pair i: sample ``x_aug[i]``, column ``lin[:, i]`` and ``gram[i]``."""
    var = np.einsum("ia,iab,ib->i", x_aug, gram, x_aug)
    return _upper_tail(np.einsum("ia,ai->i", x_aug, lin), np.sqrt(np.maximum(var, 0.0)))


# An x0 draw lies outside the ball on which the columns' bounds hold with
# this probability; such a draw has its probabilities computed exactly.
_BALL_TAIL = 1e-3
# A column whose bound reaches _THIN_BELOW is drawn as a normal per sample:
# a candidate's probability costs several normals, so at higher rates
# thinning loses (3x slower with every column thinned at bounds near 1).
# Where some column is drawn anyway, the per-sample variance products are
# paid regardless and a thinned column saves only its own normals; measured
# on 2 CPUs, thinning then paid only below _THIN_BELOW_MIXED.
_THIN_BELOW = 1.0 / 16.0
_THIN_BELOW_MIXED = 1.0 / 256.0
# Relative round-off margin of the bounds, against the size of the summed terms.
_BOUND_MARGIN = 1e-12


def _violation_bounds(lin: np.ndarray, gram: np.ndarray, mean: np.ndarray,
                      factor: np.ndarray, radius: float) -> np.ndarray:
    """Per column c, a bound on p_c = Q((1 - x~' lin_c) / sd_c(x~)) over a ball of x0.

    The ball is x0 = mean + factor z, ||z|| <= radius, with x~ = [x0; 1] =
    x~_bar + F~ z.  Over it the mean's maximum is exact, x~_bar' lin_c + radius
    ||F~' lin_c||; the sd is ||L_c' (x~_bar + F~ z)|| with L_c L_c' the
    variance form ``gram[c]`` (negative eigenvalues clipped, which only
    raises it), bounded by the S-lemma bound of the ball-max kernel.  Both
    carry a round-off margin, so the per-sample probabilities the counter
    computes never exceed them.  A mean bound >= 1 gives 1.
    """
    x_mean = np.append(mean, 1.0)
    x_factor = np.vstack([factor, np.zeros((1, factor.shape[1]))])
    spread = np.abs(x_mean) + radius * np.linalg.norm(x_factor, axis=1)   # >= |x~_a| on the ball
    w, v = np.linalg.eigh(gram)
    roots = v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]
    sd_bar = np.array([max(_ball_max_bounds(root.T @ x_mean, root.T @ x_factor, radius))
                       for root in roots])
    mean_bar = (x_mean @ lin + radius * np.linalg.norm(x_factor.T @ lin, axis=0)
                + _BOUND_MARGIN * (spread @ np.abs(lin)))
    var_scale = np.einsum("a,cab,b->c", spread, np.abs(gram), spread)
    sd_bar = np.sqrt(sd_bar**2 + _BOUND_MARGIN * var_scale)
    return np.where(mean_bar >= 1.0, 1.0, _upper_tail(mean_bar, sd_bar))


def _outside_draws(gen: np.random.Generator, count: int, r: int, tail: float) -> np.ndarray:
    """``count`` standard normal z in R^r conditioned on ||z||^2 > chi2_r(1 - tail).

    ``tail`` is that event's exact probability, P(chi2_r > radius^2): a
    uniform direction times the radius whose chi-squared tail is uniform on
    (0, tail].
    """
    direction = gen.standard_normal((count, r))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    squared = 2.0 * special.gammainccinv(r / 2.0, (1.0 - gen.random(count)) * tail)
    return direction * np.sqrt(squared)[:, None]


def _inside_draws(gen: np.random.Generator, count: int, r: int, radius: float) -> np.ndarray:
    """``count`` standard normal z in R^r conditioned on ||z|| <= radius, by rejection."""
    z = np.empty((0, r))
    while z.shape[0] < count:
        more = gen.standard_normal((count - z.shape[0], r))
        z = np.concatenate([z, more[np.einsum("ij,ij->i", more, more) <= radius**2]])
    return z


def _make_counter(truth: SampledParameterTruth, u: np.ndarray, spec: OcpSpec):
    """Per-batch counter of H_j' x_k > 1 over all rows j and steps k = 0..horizon.

    Given x0 = mean + factor z0, column c = (step, row) is violated with
    probability p_c(x0) = Q((1 - mean) / sd), the law of
    :func:`_conditional_maps`; no w is drawn and no step is looped over.
    Columns whose bound p_c_bar (:func:`_violation_bounds`, over the ball
    ||z0||^2 <= chi2_r(1 - _BALL_TAIL)) reaches ``_THIN_BELOW`` (or, when
    some column does, ``_THIN_BELOW_MIXED``) draw one normal per sample, as
    mean + sd * z > 1; a column without variance whose bound is 1 counts
    mean > 1.  Either way every sample then draws its z0 first.  The other
    columns are thinned (Lewis & Shedler 1979; Devroye 1986, ch. II.3):
    every sample outside the ball is kept when U < p_c(x0), and of the
    samples inside it Binomial(inside, p_c_bar) candidates, uniform without
    replacement, are kept when U p_c_bar < p_c(x0).

    When every column is thinned, only those samples draw a z0:
    Binomial(size, S) outside the ball (S its exact tail), and inside it a
    pool of Binomial(size - outside, p*) at the largest bound p*, from
    which column c takes Binomial(pool, p_c_bar / p*) candidates.  A sample
    inside the ball is thus still a candidate of c with probability
    p_c_bar.  Either way every indicator is a Bernoulli(p_c(x0)) of an x0
    drawn from its law, so every count keeps its exact binomial law, while
    only candidates and outside samples cost a probability.

    The batch returns its counts (rows k = 0..horizon), the (sample, row,
    step) probabilities it computed and its x0 draws.  The returned
    function carries ``thinned``, the (row, step) pairs it thins, and
    ``draw_rate``, the expected x0 draws per sample.
    """
    lin, quad = _conditional_maps(truth, u, spec)
    mean, factor, rows = spec.init.mean, spec.init.factor, spec.n_rows
    r = factor.shape[1]
    radius = math.sqrt(chi2_quantile(r, 1.0 - _BALL_TAIL)) if r else 0.0
    tail = float(special.gammaincc(r / 2.0, radius**2 / 2.0)) if r else 0.0
    gram = _variance_forms(quad, lin.shape[0])
    p_bar = _violation_bounds(lin, gram, mean, factor, radius)
    # A column without variance (step 0) is [x~' lin > 1] given x0; where its
    # bound is 1 it is counted on every sample, with no normal draw.
    fixed = ~np.any(quad, axis=0) & (p_bar == 1.0)
    below = _THIN_BELOW if np.all(p_bar[~fixed] < _THIN_BELOW) else _THIN_BELOW_MIXED
    thin, drawn = np.flatnonzero(p_bar < below), np.flatnonzero(~fixed & (p_bar >= below))
    fixed = np.flatnonzero(fixed)
    lin_f, lin_d, quad_d = lin[:, fixed], lin[:, drawn], quad[:, drawn]
    lin_t, gram_t, p_t = lin[:, thin], gram[thin], p_bar[thin]
    every = bool(fixed.size or drawn.size)      # every sample draws x0
    p_star = 1.0 if every else float(p_t.max())
    # A sample of the pool is a candidate of thinned column c with this probability.
    pick_rate = p_t / p_star if p_star > 0.0 else p_t

    def augmented(z0: np.ndarray) -> np.ndarray:
        """x~ = [x0; 1] per row of ``z0``."""
        x_aug = np.empty((z0.shape[0], mean.size + 1))
        x_aug[:, -1] = 1.0
        np.add(mean, z0 @ factor.T, out=x_aug[:, :-1])
        return x_aug

    def count(gen: np.random.Generator, size: int):
        hits = np.zeros(lin.shape[1], dtype=np.int64)
        if every:
            z0 = gen.standard_normal((size, r))
            x_aug = augmented(z0)
            hits[fixed] = np.count_nonzero(x_aug @ lin_f > 1.0, axis=0)
            if drawn.size:
                value = gen.standard_normal((size, drawn.size))
                value *= _conditional_sd(x_aug, quad_d)
                value += x_aug @ lin_d
                hits[drawn] = np.count_nonzero(value > 1.0, axis=0)
            outside = np.einsum("ij,ij->i", z0, z0) > radius**2
            x_out, x_pool = x_aug[outside], x_aug[~outside]
            draws = size
        else:
            n_out = gen.binomial(size, tail)
            x_out = augmented(_outside_draws(gen, n_out, r, tail))
            x_pool = augmented(_inside_draws(gen, gen.binomial(size - n_out, p_star), r, radius))
            draws = x_out.shape[0] + x_pool.shape[0]
        evaluated = 0
        if thin.size:
            picks = gen.binomial(x_pool.shape[0], pick_rate)
            var = np.einsum("ia,cab,ib->ic", x_out, gram_t, x_out)
            p_out = _upper_tail(x_out @ lin_t, np.sqrt(np.maximum(var, 0.0)))
            hits[thin] = np.count_nonzero(gen.random(p_out.shape) < p_out, axis=0)
            evaluated = int(picks.sum()) + p_out.size
            if picks.any():
                cols = np.repeat(np.arange(thin.size), picks)
                samples = np.concatenate([gen.choice(x_pool.shape[0], c, replace=False)
                                          for c in picks[picks > 0]])
                # A candidate is kept with probability p / p_bar.
                kept = gen.random(cols.size) * p_t[cols] < _paired_tail(
                    x_pool[samples], lin_t[:, cols], gram_t[cols])
                hits[thin] += np.bincount(cols[kept], minlength=thin.size)
        return hits.reshape(spec.horizon + 1, rows), evaluated, draws

    count.thinned = tuple((int(c % rows), int(c // rows)) for c in thin)
    count.draw_rate = 1.0 if every else tail + (1.0 - tail) * p_star
    return count


# ---------------------------------------------------------------------------
# Equivalence of the two nominal parametrizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    input_diff: float
    value_rel_diff: float
    status_statespace: str
    status_multistep: str
    passed: bool


def equivalence_check(
    sys: LinearSystem,
    spec: OcpSpec,
    opts: "SolverOptions | None" = None,
    tol: float = 1e-6,
) -> EquivalenceReport:
    """Solve the two nominal programs built from the same system and compare."""
    prog_ss = build_nominal_qp_statespace(sys, spec)
    prog_ms = build_nominal_qp_multistep(build_multistep(sys, spec.horizon), spec)
    sol_ss = solve(prog_ss, opts)
    sol_ms = solve(prog_ms, opts)
    if sol_ss.primal is None or sol_ms.primal is None:
        return EquivalenceReport(
            input_diff=math.inf,
            value_rel_diff=math.inf,
            status_statespace=sol_ss.status,
            status_multistep=sol_ms.status,
            passed=False,
        )
    diff = float(np.abs(sol_ss.primal - sol_ms.primal).max())
    denom = max(1.0, abs(sol_ss.objective))
    value_rel = abs(sol_ss.objective - sol_ms.objective) / denom
    passed = sol_ss.status == "Optimal" and sol_ms.status == "Optimal" and diff <= tol
    return EquivalenceReport(
        input_diff=diff,
        value_rel_diff=value_rel,
        status_statespace=sol_ss.status,
        status_multistep=sol_ms.status,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Identification coverage
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageConfig:
    system: LinearSystem
    init: GaussianBelief
    T: int
    k: int
    deltas: tuple
    n_runs: int
    input_std: float = 1.0
    method: str = "multistep"        # "multistep" (full path) or "statespace"
    structure: str = STRUCTURE_FULL
    master_seed: int = 0


@dataclass(frozen=True)
class CoverageResult:
    config: CoverageConfig
    runs: int
    skipped: int
    hits: dict            # delta -> hit count
    coverage: dict        # delta -> empirical coverage
    interval99: dict      # delta -> exact binomial 99% CI on the coverage


def coverage_experiment(config: CoverageConfig) -> CoverageResult:
    """Empirical frequency of the true parameters falling in the ellipsoids.

    Uses oracle weighting (true G0 in the residual covariance) so the
    quadratic membership statistic follows its nominal chi-squared law up to
    finite-sample effects.
    """
    sys = config.system
    model = build_multistep(sys, config.k)
    g0_k, gu_k, gw_k = model.step(config.k)
    if config.method == "statespace":
        theta_true = true_theta(sys.A, sys.B, STRUCTURE_FULL)
    else:
        theta_true = true_theta(g0_k, gu_k, config.structure)
    hits = {d: 0 for d in config.deltas}
    skipped = 0
    done = 0
    for run in range(config.n_runs):
        gen = Rng(config.master_seed, run).generator()
        u = config.input_std * gen.standard_normal((config.T, sys.m))
        traj = simulate(sys, config.init, u, gen)
        try:
            if config.method == "statespace":
                est = state_space_ls(traj, sys.sigma_w, sys.E)
            else:
                est = estimate_predictor(
                    traj,
                    config.k,
                    gw_k,
                    sys.sigma_w,
                    sys.sigma_eps,
                    structure=config.structure,
                    covariance="oracle",
                    g0_true=g0_k,
                )
        except SingularInformation:
            skipped += 1
            continue
        err = est.theta - theta_true
        whitened = math.sqrt(float(err @ np.linalg.solve(est.cov, err)))
        for d in config.deltas:
            if whitened <= est.radius(d):
                hits[d] += 1
        done += 1
    coverage = {d: (hits[d] / done if done else math.nan) for d in config.deltas}
    interval = {d: clopper_pearson_interval(hits[d], done) for d in config.deltas}
    return CoverageResult(
        config=config,
        runs=done,
        skipped=skipped,
        hits=hits,
        coverage=coverage,
        interval99=interval,
    )


# ---------------------------------------------------------------------------
# Certification slack per constraint row
# ---------------------------------------------------------------------------


def certification_rows(
    table: TighteningTable,
    estimates: "list[ParameterEstimate]",
    spec: OcpSpec,
    u: np.ndarray,
    parametric: ViolationReport,
) -> "list[dict]":
    """Per-(row, step) margin of the robust inequality at ``u`` beside its Monte Carlo rate.

    The robust cone row reads mean_value + parametric_term <= 1 -
    nominal_backoff, so ``slack`` is the margin it leaves at ``u`` (>= 0 up
    to solver tolerance at a feasible point); ``mc_rate`` and ``mc_upper99``
    are the matching entries of the parametric violation report.
    """
    entries = {(e.j, e.k): e for e in parametric.entries}
    x0 = spec.init.mean
    rows = []
    for k in range(1, spec.horizon + 1):
        est = estimates[k - 1]
        z = est.regressor(x0, u[: k * spec.m])
        for j in range(spec.n_rows):
            g, m_mat = est.row_moments(spec.h_x[j])
            mean_value = float(z @ g)
            parametric_term = table.radius[k] * math.sqrt(max(float(z @ m_mat @ z), 0.0))
            nominal_backoff = table.c_ptilde * table.h_exact[(j, k)]
            entry = entries[(j, k)]
            rows.append(
                {
                    "j": j,
                    "k": k,
                    "h_exact": table.h_exact[(j, k)],
                    "h_upper": table.h_upper[(j, k)],
                    "nominal_backoff": nominal_backoff,
                    "parametric_term": parametric_term,
                    "mean_value": mean_value,
                    "slack": 1.0 - nominal_backoff - parametric_term - mean_value,
                    "mc_rate": entry.rate,
                    "mc_upper99": entry.upper99,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# JSON-ready converters; cli writes the files
# ---------------------------------------------------------------------------


def violation_report_to_json(report: ViolationReport) -> dict:
    doc = {
        "mode": report.mode,
        "n_samples": report.n_samples,
        "worst_upper99": report.worst_upper99,
    }
    if report.mode != "exact":
        doc["exact_evaluations"] = report.exact_evaluations
        doc["x0_draws"] = report.x0_draws
        doc["thinned"] = [list(pair) for pair in report.thinned]
    doc["entries"] = [asdict(e) for e in report.entries]
    return doc


def equivalence_report_to_json(report: EquivalenceReport) -> dict:
    return asdict(report)

"""Violation probabilities of the chance constraints, and other validation.

Certification computes, per horizon step k and constraint row j, the
probability p_jk that H_j' x_k > 1 and a bound on its error.
:func:`exact_violation` returns both as a :class:`ViolationReport`, two
(horizon + 1) x rows arrays ``rate`` and ``upper99`` indexed [k, j], on the
true system and on the :class:`EstimatedModel` alike.  Given x0, row
j at step k is Gaussian with mean z' g and variance z' M z + s_jk^2, where
(g, M) are the :meth:`ParameterEstimate.row_moments` and s_jk^2 = H_j' Gw_k
(I kron Sigma_w) Gw_k' H_j is the noise term; the true system is the
estimate with zero covariance, and at step 0 the row is h_j' x0 itself.
With x0 = x0_bar + F z Gaussian as well, the row is a quadratic form
c + b' g + g' A g in a standard normal g = (z, eta), whose A holds only the
bilinear block B = L' F~ (L L' the variance form in x~ = [x0; 1], F~ =
[F; 0]).  Where B = 0 (step 0, the true system, zero-covariance and FIR
estimates) the row is Gaussian and p_jk = Q((1 - mean) / sd) in closed
form.  Elsewhere p_jk is one 1-D Fourier inversion of the form's
characteristic function (Gil-Pelaez, Biometrika 1951; Imhof, Biometrika
1961) by Davies' midpoint series (Biometrika 1973; Appl. Stat. 1980, AS
155), whose aliasing, truncation and round-off errors are bounded per
column.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy import special

from .errors import DimensionMismatch, DomainError, SingularInformation
from .ident import (
    ParameterEstimate,
    STRUCTURE_FULL,
    estimate_predictor,
    state_space_ls,
    true_theta,
)
from .linalg import Rng, psd_sqrt_factor
from .ocp import (
    OcpSpec,
    TighteningTable,
    build_nominal_qp_multistep,
    build_nominal_qp_statespace,
)
from .solver import solve
from .system import GaussianBelief, LinearSystem, build_multistep, simulate


def clopper_pearson_interval(hits: int, samples: int, confidence: float = 0.99):
    """Exact two-sided confidence interval for a binomial proportion."""
    alpha = 1.0 - confidence
    low = 0.0 if hits == 0 else float(special.betaincinv(hits, samples - hits + 1, alpha / 2.0))
    high = 1.0 if hits == samples else float(
        special.betaincinv(hits + 1, samples - hits, 1.0 - alpha / 2.0)
    )
    return low, high


@dataclass(frozen=True)
class ViolationReport:
    """Per-(step, row) violation probabilities, both arrays indexed [k, j]."""

    rate: np.ndarray              # (horizon + 1, n_rows) exact probability
    upper99: np.ndarray           # rate plus its error bound, at most 1

    @property
    def worst_upper99(self) -> float:
        return float(self.upper99.max(initial=0.0))

    def certifies(self, budget: float, margin: float = 0.0) -> bool:
        """True when every per-row upper bound stays within budget + margin."""
        return bool(np.all(self.upper99 <= budget + margin))


@dataclass(frozen=True)
class EstimatedModel:
    """The estimated model: per-step predictors distributed as the estimated Gaussians."""

    estimates: "list[ParameterEstimate]"
    gw: "list[np.ndarray]"
    sigma_w: np.ndarray


def exact_violation(truth: "LinearSystem | EstimatedModel", u: np.ndarray,
                    spec: OcpSpec) -> ViolationReport:
    """Per-(row, step) violation probabilities of H_j' x_k <= 1, steps 0..horizon.

    ``truth`` is the true system (its exact predictors, with zero parameter
    covariance) or the estimated model.  A column whose bilinear block B_c
    = L_c' F~ is zero is Gaussian: p = Q((1 - mean) / sd), and a zero sd (a
    deterministic row) gives p = [mean > 1].  Every other column is
    inverted by :func:`_quadratic_tail` in the coordinates of one batched
    SVD of B.  The report holds ``rate = p`` and ``upper99 = min(1, p +
    bound)``, the bound being 0 on Gaussian columns.
    """
    u = _horizon_inputs(u, spec)
    if isinstance(truth, LinearSystem):
        truth = _exact_predictors(truth, spec.horizon)
    elif len(truth.estimates) < spec.horizon or len(truth.gw) < spec.horizon:
        raise DimensionMismatch("need one estimate and Gw per horizon step")
    lin, quad = _conditional_maps(truth, u, spec)
    x0_bar, factor, n = spec.init.mean, spec.init.factor, spec.n
    x_bar = np.append(x0_bar, 1.0)
    x_factor = np.vstack([factor, np.zeros((1, factor.shape[1]))])
    gram = _variance_forms(quad, n + 1)
    mean = x0_bar @ lin[:n] + lin[n]
    var = np.sum((lin[:n].T @ factor) ** 2, axis=1) + np.einsum("a,cab,b->c", x_bar, gram, x_bar)
    p = _upper_tail(mean, np.sqrt(var))
    bound = np.zeros_like(p)
    bilinear = np.flatnonzero(np.any(gram @ x_factor, axis=(1, 2)))   # G_c F~ = 0 iff B_c = 0
    if bilinear.size:
        roots = psd_sqrt_factor(gram[bilinear])                # L_c with L_c L_c' = G_c
        lin_z = lin[:, bilinear].T @ x_factor                  # F~' lin_c
        lin_eta = x_bar @ roots                                # L_c' x~_bar
        left, sigma, right_t = np.linalg.svd(np.swapaxes(roots, 1, 2) @ x_factor,
                                             full_matrices=False)
        alpha = np.einsum("csr,cr->cs", right_t, lin_z)
        beta = np.einsum("cqs,cq->cs", left, lin_eta)
        # The parts of b outside B's singular vectors are one Gaussian term.
        tau2 = (np.sum((lin_z - np.einsum("csr,cs->cr", right_t, alpha)) ** 2, axis=1)
                + np.sum((lin_eta - np.einsum("cqs,cs->cq", left, beta)) ** 2, axis=1))
        p[bilinear], bound[bilinear] = _quadratic_tail(mean[bilinear] - 1.0, alpha, beta,
                                                       sigma, tau2)
    p = p.reshape(spec.horizon + 1, spec.n_rows)
    return ViolationReport(rate=p, upper99=np.minimum(1.0, p + bound.reshape(p.shape)))


def _horizon_inputs(u: np.ndarray, spec: OcpSpec) -> np.ndarray:
    """The first horizon * m entries of ``u``; a shorter sequence is a DimensionMismatch."""
    u = np.asarray(u, dtype=float).ravel()
    n_u, m = spec.horizon, spec.m
    if u.size < n_u * m:
        raise DimensionMismatch(f"input sequence must cover {n_u} steps of {m} inputs")
    if not np.all(np.isfinite(u[: n_u * m])):
        raise DomainError("input sequence must be finite")
    return u[: n_u * m]


def _exact_predictors(sys: LinearSystem, horizon: int) -> EstimatedModel:
    """The true system's k-step predictors as estimates with zero covariance."""
    model = build_multistep(sys, horizon)
    estimates = []
    for k in range(1, horizon + 1):
        g0, gu, _ = model.step(k)
        theta = true_theta(g0, gu)
        estimates.append(ParameterEstimate(k=k, structure=STRUCTURE_FULL, theta=theta,
                                           cov=np.zeros((theta.size, theta.size)),
                                           n=sys.n, m=sys.m))
    return EstimatedModel(estimates=estimates, gw=model.gw, sigma_w=sys.sigma_w)


def _conditional_maps(truth: EstimatedModel, u: np.ndarray, spec: OcpSpec):
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


# Each tail of V - 1 beyond the aliasing half-width has Chernoff bound
# _ALIAS_TOL.  The series starts at _FIRST_NODES nodes and takes four times
# as many while the truncation bound exceeds _TRUNCATION_TOL, up to
# _MAX_NODES; a column that stops there reports its larger bound.
_ALIAS_TOL = 1e-17
_TRUNCATION_TOL = 1e-14
_FIRST_NODES = 32
_MAX_NODES = 8192
# Chernoff parameters s, as fractions of the largest usable s, on a log grid.
_CHERNOFF_GRID = 2.0 ** (-np.arange(1, 49) / 4.0)


def _cumulant(w: np.ndarray, shift, ab2, cross, sigma, tau2) -> np.ndarray:
    """log E exp(w (V - 1)) per column, at real w with |w| sigma_i < 1 or imaginary w.

    V - 1 = shift + tau N + sum_i (alpha_i a_i + beta_i b_i + sigma_i a_i b_i),
    all of N, a_i, b_i independent standard normals, with ab2 = alpha^2 +
    beta^2 and cross = alpha beta per pair.  ``w`` is (points, columns);
    ``shift`` and ``tau2`` are per column, the others (columns, pairs).
    """
    w_pair = w[..., None]
    rest = 1.0 - (sigma * w_pair) ** 2
    pairs = (0.5 * w_pair**2 * (ab2 + 2.0 * sigma * w_pair * cross) / rest
             - 0.5 * np.log(rest))
    return w * shift + 0.5 * tau2 * w**2 + pairs.sum(axis=-1)


def _quadratic_tail(shift, alpha, beta, sigma, tau2):
    """P(V > 1) per column and a bound on its error, V as in :func:`_cumulant`.

    With phi the characteristic function of V - 1, the midpoint series
    1/2 + sum_k Im phi(t_k) / (pi (k + 1/2)), t_k = (k + 1/2) 2 pi / half,
    equals P(V > 1) up to P(|V - 1| >= half) (aliasing: the half-width
    keeps each tail's Chernoff bound from the closed-form mgf at
    _ALIAS_TOL) and its tail after the last node T (truncation).  |phi|
    decreases in t, so that tail is at most |phi(T)| / pi times 1 / (tau
    T)^2, and times prod_S sqrt(1 + (sigma_i T)^-2) / |S| over S = {i :
    sigma_i T >= 1}.  Round-off is bounded from the size of the terms.
    """
    args = (shift, alpha**2 + beta**2, alpha * beta, sigma, tau2)
    sd = np.sqrt(args[1].sum(axis=1) + tau2 + np.sum(sigma**2, axis=1))
    # P(V - 1 >= a) <= exp(K(s) - s a) and P(V - 1 <= -a) <= exp(K(-s) - s a), s > 0;
    # the mgf ends at s = 1 / sigma_max, and a Gaussian tail needs s sd of about 9.
    s = np.minimum(1.0 / sigma[:, 0], 64.0 / sd) * _CHERNOFF_GRID[:, None]
    reach = [np.min((_cumulant(side * s, *args) - math.log(_ALIAS_TOL)) / s, axis=0)
             for side in (1.0, -1.0)]
    step = 2.0 * math.pi / np.maximum(*reach)
    p, bound = np.empty_like(shift), np.empty_like(shift)
    todo, nodes = np.arange(shift.size), _FIRST_NODES
    while todo.size:
        k = np.arange(nodes) + 0.5
        t = k[:, None] * step[todo]
        log_phi = _cumulant(1j * t, *(a[todo] for a in args))
        weight = np.exp(log_phi.real) / (math.pi * k[:, None])
        top = sigma[todo] * t[-1, :, None]
        far = top >= 1.0
        power = np.divide(np.prod(np.sqrt(1.0 + np.maximum(top, 1.0) ** -2.0), axis=1, where=far),
                          far.sum(axis=1), out=np.full(todo.size, np.inf), where=far.any(axis=1))
        gauss = np.divide(1.0, tau2[todo] * t[-1] ** 2, out=np.full(todo.size, np.inf),
                          where=tau2[todo] > 0.0)
        truncation = weight[-1] * (nodes - 0.5) * np.minimum(power, gauss)
        rounding = 16.0 * np.finfo(float).eps * (
            1.0 + math.log2(nodes)
            + np.sum(weight * (1.0 + np.abs(log_phi.real) + np.abs(log_phi.imag)), axis=0))
        done = (truncation <= _TRUNCATION_TOL) | (nodes >= _MAX_NODES)
        cols = todo[done]
        p[cols] = np.clip(0.5 + np.sum(weight[:, done] * np.sin(log_phi.imag[:, done]), axis=0),
                          0.0, 1.0)
        bound[cols] = 2.0 * _ALIAS_TOL + truncation[done] + rounding[done]
        todo, nodes = todo[~done], 4 * nodes
    return p, bound


# ---------------------------------------------------------------------------
# Equivalence of the two nominal parametrizations
# ---------------------------------------------------------------------------


EQUIVALENCE_TOL = 1e-6


@dataclass(frozen=True)
class EquivalenceReport:
    input_diff: float
    value_rel_diff: float
    status_statespace: str
    status_multistep: str
    passed: bool


def equivalence_check(sys: LinearSystem, spec: OcpSpec) -> EquivalenceReport:
    """Solve the two nominal programs built from the same system and compare.

    They pass when both are Optimal with inputs within ``EQUIVALENCE_TOL``.
    """
    prog_ss = build_nominal_qp_statespace(sys, spec)
    prog_ms = build_nominal_qp_multistep(build_multistep(sys, spec.horizon), spec)
    sol_ss = solve(prog_ss)
    sol_ms = solve(prog_ms)
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
    passed = sol_ss.status == "Optimal" and sol_ms.status == "Optimal" and diff <= EQUIVALENCE_TOL
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
    """Per-(row, step) margin of the robust inequality at ``u`` beside its violation probability.

    The robust cone row reads mean_value + parametric_term <= 1 -
    nominal_backoff, so ``slack`` is the margin it leaves at ``u`` (>= 0 up
    to solver tolerance at a feasible point); ``rate`` and ``upper99`` are
    the parametric report's exact probability and that plus its error bound.
    """
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
                    "rate": float(parametric.rate[k, j]),
                    "upper99": float(parametric.upper99[k, j]),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# JSON-ready converters; cli writes the files
# ---------------------------------------------------------------------------


def violation_report_to_json(report: ViolationReport) -> dict:
    """One entry per (step k, row j), rows within a step."""
    rate, upper = report.rate, report.upper99
    return {"entries": [{"j": j, "k": k, "rate": float(rate[k, j]), "upper99": float(upper[k, j])}
                        for k in range(rate.shape[0]) for j in range(rate.shape[1])]}


def equivalence_report_to_json(report: EquivalenceReport) -> dict:
    return asdict(report)

"""Chance-constrained optimal control problems as canonical conic programs.

The nominal problems tighten each state half-space by the Gaussian
back-off c_p * ||H_j||_{Sigma_{x,k}} with a pre-computed state covariance
and are plain QPs in the stacked input sequence.  Under parametric
uncertainty in the multi-step predictor, the per-step parameter
confidence ellipsoid (radius ``ParameterEstimate.radius``) adds a
decision-dependent norm term (a second-order cone row) plus a constant
worst-case variance back-off, computed exactly by maximizing an affine
norm over the ellipsoid (``linalg.max_norm_affine_over_ball``); the
tightening table keeps, per step, the largest relative gap between that
maximum and its S-lemma dual bound, so every table certifies itself.  Only
the G0 block of theta_k moves that norm, so the ellipsoid enters through
its n^2-dimensional image: any factor F whose first n^2 rows satisfy
F F' = cov_k[:n^2, :n^2] serves, and the tightening table keeps the
symmetric root of that block.  All four programs share one assembly
path: per-step maps, ``_state_rows``, ``_stacked_cost``, ``_program``.
The robust program is the nominal multi-step program on the estimated
model, with robust back-offs and cone terms.  Maps, covariances and rows
carry leading batch axes, so the scenario baseline builds all its
scenarios in one array pass through the same helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DeltaTooSmall,
    DimensionMismatch,
    DomainError,
    InfeasibleInitialState,
)
from .ident import ParameterEstimate, STRUCTURE_FIR, STRUCTURE_FULL, model_from_estimates
from .linalg import (
    Rng,
    _ball_max_bounds,
    assert_spd,
    chi2_quantile,
    diag_repeat,
    generator_of,
    max_norm_affine_over_ball,
    psd_sqrt_factor,
    sym_sqrt,
)
from .system import GaussianBelief, LinearSystem, MultiStepModel


# ---------------------------------------------------------------------------
# Problem data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InputBox:
    """Per-input bounds lo <= u <= hi applied at every step."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).ravel()
        hi = np.asarray(self.hi, dtype=float).ravel()
        if lo.shape != hi.shape:
            raise DimensionMismatch("lo and hi must have the same length")
        if not np.all(lo < hi):
            raise DomainError("input box must have nonempty interior (lo < hi, neither NaN)")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True)
class InputPolytope:
    """General polytope H u <= h applied at every step; u = 0 must be strictly inside."""

    h_mat: np.ndarray
    h_vec: np.ndarray

    def __post_init__(self):
        h_mat = np.asarray(self.h_mat, dtype=float)
        h_vec = np.asarray(self.h_vec, dtype=float).ravel()
        if h_mat.ndim != 2 or h_mat.shape[0] != h_vec.size:
            raise DimensionMismatch("polytope rows and offsets are inconsistent")
        if not np.all(h_vec > 0.0):
            raise DomainError("u = 0 must strictly satisfy the polytope (every h > 0)")
        object.__setattr__(self, "h_mat", h_mat)
        object.__setattr__(self, "h_vec", h_vec)


@dataclass(frozen=True)
class OcpSpec:
    """Cost weights, state half-spaces, input set, and chance level."""

    horizon: int
    Q: np.ndarray
    R: np.ndarray
    h_x: np.ndarray          # rows H_j' of the half-spaces H_j' x <= 1
    u_set: "InputBox | InputPolytope | None"
    p: float
    init: GaussianBelief

    def __post_init__(self):
        if self.horizon < 1:
            raise DomainError("horizon must be >= 1")
        q = assert_spd(np.asarray(self.Q, dtype=float), name="Q")
        r = assert_spd(np.asarray(self.R, dtype=float), name="R")
        h_x = np.asarray(self.h_x, dtype=float)
        if h_x.ndim != 2:
            h_x = h_x.reshape(-1, q.shape[0]) if h_x.size else np.zeros((0, q.shape[0]))
        if h_x.shape[1] != q.shape[0]:
            raise DimensionMismatch("state constraint rows must match the state dimension")
        if not (0.0 < self.p < 1.0):
            raise DomainError(f"p must lie in (0, 1), got {self.p}")
        if isinstance(self.u_set, InputBox) and self.u_set.lo.size != r.shape[0]:
            raise DimensionMismatch("input box dimension must match R")
        if isinstance(self.u_set, InputPolytope) and self.u_set.h_mat.shape[1] != r.shape[0]:
            raise DimensionMismatch("input polytope dimension must match R")
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "R", r)
        object.__setattr__(self, "h_x", h_x)

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return self.R.shape[0]

    @property
    def n_rows(self) -> int:
        return self.h_x.shape[0]


@dataclass(frozen=True)
class SocRow:
    """Second-order cone row ||F z + g|| <= c' z + d."""

    f_mat: np.ndarray
    g_vec: np.ndarray
    c_vec: np.ndarray
    d_off: float


@dataclass
class ConicProgram:
    """Quadratic cost with linear and second-order cone constraint rows.

    Objective convention: f(z) = 0.5 z' P z + q' z + constant.
    ``start_set`` holds the (linear, cone) row indices a solve may start
    from and grow by the rows its solution violates; ``None`` means all rows.
    """

    p_mat: np.ndarray
    q_vec: np.ndarray
    constant: float
    lin_a: np.ndarray    # (n_lin, dim)
    lin_b: np.ndarray    # (n_lin,)
    soc_rows: "list[SocRow]" = field(default_factory=list)
    variable_map: dict = field(default_factory=dict)
    start_set: "tuple[np.ndarray, np.ndarray] | None" = None

    @property
    def dim(self) -> int:
        return self.q_vec.size

    def objective(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float).ravel()
        return float(0.5 * z @ self.p_mat @ z + self.q_vec @ z + self.constant)

    def check_shapes(self) -> None:
        d = self.dim
        if self.p_mat.shape != (d, d):
            raise DimensionMismatch("cost matrix shape mismatch")
        if self.lin_a.ndim != 2 or self.lin_a.shape != (self.lin_b.size, d):
            raise DimensionMismatch("linear row shape mismatch")
        for row in self.soc_rows:
            if row.f_mat.shape[1] != d or row.c_vec.size != d:
                raise DimensionMismatch("cone row shape mismatch")
            if row.f_mat.shape[0] != row.g_vec.size:
                raise DimensionMismatch("cone row offset shape mismatch")
        if self.start_set is not None:
            for index, count in zip(self.start_set, (self.lin_b.size, len(self.soc_rows))):
                if np.any((index < 0) | (index >= count)):
                    raise DimensionMismatch("start set row index out of range")


@dataclass(frozen=True)
class TighteningTable:
    """Constant back-off terms of the robust program, per constraint and step."""

    delta: float
    p: float
    p_tilde: float
    c_ptilde: float
    radius: dict            # k -> sqrt(chi2_{dof_k}(delta))
    sigma_theta_half: dict  # k -> sqrt(cov_k[:n^2, :n^2]), the G0-block factor; None for FIR
    h_exact: dict           # (j, k) -> exact worst-case back-off
    h_upper: dict           # (j, k) -> triangle-inequality upper bound
    certificate_gap: dict   # k -> largest S-lemma bound / h_exact - 1 over the rows


# ---------------------------------------------------------------------------
# Scalar helpers
# ---------------------------------------------------------------------------


def gaussian_backoff(p: float) -> float:
    """Back-off multiplier c_p = sqrt(chi2_1(2p - 1)) for a one-sided constraint.

    Defined for p in [0.5, 1); below one half the half-space would have to be
    loosened rather than tightened, which the formulation does not support.
    """
    if not (0.5 <= p < 1.0):
        raise DomainError(f"chance level must lie in [0.5, 1), got {p}")
    return math.sqrt(chi2_quantile(1, 2.0 * p - 1.0))


def _check_initial_state(spec: OcpSpec, backoff: float) -> None:
    """The step-0 constraint involves no decisions; fail fast if violated."""
    x0, s0 = spec.init.mean, spec.init.cov
    for j in range(spec.n_rows):
        h = spec.h_x[j]
        std = math.sqrt(max(float(h @ s0 @ h), 0.0))
        if float(h @ x0) > 1.0 - backoff * std + 1e-12:
            raise InfeasibleInitialState(
                f"state constraint {j} violated at step 0: "
                f"{float(h @ x0):.6f} > {1.0 - backoff * std:.6f}"
            )


def _input_rows(spec: OcpSpec, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Linear rows encoding u_k in U for every step, on a dim-sized decision."""
    n_u, m = spec.horizon, spec.m
    if spec.u_set is None:
        return np.zeros((0, dim)), np.zeros(0)
    if isinstance(spec.u_set, InputBox):
        # Per input u_i <= hi_i, then -u_i <= -lo_i; an infinite bound gives no row.
        h_mat = np.zeros((2 * m, m))
        h_mat[2 * np.arange(m), np.arange(m)] = 1.0
        h_mat[2 * np.arange(m) + 1, np.arange(m)] = -1.0
        h_vec = np.stack([spec.u_set.hi, -spec.u_set.lo], axis=1).ravel()
        finite = np.isfinite(h_vec)
        h_mat, h_vec = h_mat[finite], h_vec[finite]
    else:
        h_mat, h_vec = spec.u_set.h_mat, spec.u_set.h_vec
    blocks = np.zeros((n_u, h_vec.size, n_u, m))
    blocks[np.arange(n_u), :, np.arange(n_u)] = h_mat
    rows = np.zeros((n_u * h_vec.size, dim))
    rows[:, : n_u * m] = blocks.reshape(n_u * h_vec.size, n_u * m)
    return rows, np.tile(h_vec, n_u)


def _stacked_cost(phi: list, gamma: list, spec: OcpSpec):
    """Cost sum_k ||x_k||_Q^2 + ||u_{k-1}||_R^2 in the stacked input.

    ``phi`` and ``gamma`` list the per-step maps (..., n, n) and (..., n, N m);
    leading batch axes carry over to the cost matrix, vector and constant.
    """
    n_u = spec.horizon
    # C order: concatenate keeps the Fortran order of g0_hat() views, and the
    # products below must not round differently for maps of equal values.
    phi_bar = np.ascontiguousarray(np.concatenate(phi, axis=-2))        # (..., N n, n)
    gamma_bar = np.ascontiguousarray(np.concatenate(gamma, axis=-2))    # (..., N n, N m)
    gamma_t = np.swapaxes(gamma_bar, -1, -2)
    q_bar = diag_repeat(spec.Q, n_u)
    r_bar = diag_repeat(spec.R, n_u)
    free = (phi_bar @ spec.init.mean)[..., None]
    p_mat = 2.0 * (gamma_t @ q_bar @ gamma_bar + r_bar)
    q_vec = 2.0 * (gamma_t @ (q_bar @ free))[..., 0]
    constant = (np.swapaxes(free, -1, -2) @ q_bar @ free)[..., 0, 0]
    return 0.5 * (p_mat + np.swapaxes(p_mat, -1, -2)), q_vec, constant


def _mean_maps(a_mat: np.ndarray, b_mat: np.ndarray, n_u: int) -> tuple[list, list]:
    """Recursively substitute the dynamics: x_k = phi_k x0 + gamma_k u, k = 1..n_u.

    ``a_mat`` (..., n, n) and ``b_mat`` (..., n, m) may carry leading batch
    axes, which every phi_k (..., n, n) and gamma_k (..., n, n_u m) keeps.
    """
    n, m = b_mat.shape[-2:]
    cur_phi = np.broadcast_to(np.eye(n), b_mat.shape[:-2] + (n, n))
    cur_gamma = np.zeros(b_mat.shape[:-2] + (n, n_u * m))
    phi, gamma = [], []
    for k in range(n_u):
        nxt_gamma = a_mat @ cur_gamma
        nxt_gamma[..., k * m: (k + 1) * m] += b_mat
        cur_phi = a_mat @ cur_phi
        cur_gamma = nxt_gamma
        phi.append(cur_phi)
        gamma.append(cur_gamma)
    return phi, gamma


def _state_covs(a_mat: np.ndarray, cov0: np.ndarray, noise_cov: np.ndarray, n_u: int) -> list:
    """State covariances cov_k = A cov_{k-1} A' + noise_cov, k = 1..n_u, batched like A."""
    covs = []
    cov = cov0
    for _ in range(n_u):
        cov = a_mat @ cov @ np.swapaxes(a_mat, -1, -2) + noise_cov
        covs.append(cov)
    return covs


def _gaussian_backoffs(covs: list, spec: OcpSpec, backoff: float) -> np.ndarray:
    """Back-offs backoff sqrt(h' cov_k h), (..., N, rows), batched like the covariances."""
    covs = np.ascontiguousarray(np.stack(covs, axis=-3))
    # Not einsum: its summation order may change with the batch shape, and a
    # scenario's rows must not depend on how many scenarios share the pass.
    var = np.sum((spec.h_x @ covs) * spec.h_x, axis=-1)
    return backoff * np.sqrt(np.maximum(var, 0.0))


def _state_rows(phi: list, gamma: list, spec: OcpSpec, backoffs: np.ndarray):
    """Rows h' gamma_k u <= 1 - backoff_kh - h' phi_k x0; steps k, then rows h.

    ``backoffs`` is (..., N, rows).  Leading batch axes of the per-step maps
    carry over to the rows (..., N rows, dim) and the offsets (..., N rows).
    """
    phi, gamma = (np.ascontiguousarray(np.stack(x, axis=-3)) for x in (phi, gamma))
    rows = (spec.h_x @ gamma).reshape(gamma.shape[:-3] + (-1, gamma.shape[-1]))
    free = phi @ spec.init.mean @ spec.h_x.T
    offs = 1.0 - backoffs - free
    return rows, offs.reshape(offs.shape[:-2] + (-1,))


def _program(spec: OcpSpec, cost: tuple, state_a: np.ndarray, state_b: np.ndarray,
             soc_rows: list, start_set: "tuple | None" = None, **variable_map) -> ConicProgram:
    """Assemble a program: cost, state rows, the input rows of ``spec``, and cone rows.

    The decision holds the stacked inputs first; ``variable_map`` follows the "u" entry.
    ``start_set`` = (state rows, cone rows) declares the program's start set,
    to which every input row belongs; ``None`` solves all rows at once.
    """
    p_mat, q_vec, constant = cost
    input_a, input_b = _input_rows(spec, q_vec.size)
    if start_set is not None:
        state, cones = start_set
        start_set = (np.concatenate([state, state_b.size + np.arange(input_b.size)]),
                     np.asarray(cones))
    prog = ConicProgram(
        p_mat=p_mat,
        q_vec=q_vec,
        constant=float(constant),
        lin_a=np.vstack([state_a, input_a]),
        lin_b=np.concatenate([state_b, input_b]),
        soc_rows=soc_rows,
        variable_map={"u": {"horizon": spec.horizon, "m": spec.m, "offset": 0}, **variable_map},
        start_set=start_set,
    )
    prog.check_shapes()
    return prog


def _nominal_program(phi: list, gamma: list, covs: list, spec: OcpSpec, kind: str) -> ConicProgram:
    """Assemble the tightened-mean QP from stacked maps and covariances."""
    backoff = gaussian_backoff(spec.p)
    _check_initial_state(spec, backoff)
    rows, offs = _state_rows(phi, gamma, spec, _gaussian_backoffs(covs, spec, backoff))
    return _program(spec, _stacked_cost(phi, gamma, spec), rows, offs, [], kind=kind, p=spec.p)


def _multistep_maps(model: MultiStepModel, spec: OcpSpec) -> tuple[list, list]:
    """phi_k = G0_k and gamma_k = [Gu_k, 0], padded to all N m stacked inputs, k = 1..N."""
    if model.n != spec.n or model.m != spec.m:
        raise DimensionMismatch("model and problem dimensions differ")
    if model.horizon < spec.horizon:
        raise DimensionMismatch("model horizon is shorter than the problem horizon")
    n_u, m = spec.horizon, spec.m
    gamma = []
    for k, gu in enumerate(model.gu[:n_u], start=1):
        gk = np.zeros((spec.n, n_u * m))
        gk[:, : k * m] = gu
        gamma.append(gk)
    return model.g0[:n_u], gamma


def build_nominal_qp_statespace(sys: LinearSystem, spec: OcpSpec) -> ConicProgram:
    """Tightened QP with moments propagated by the one-step recursion."""
    if sys.n != spec.n or sys.m != spec.m:
        raise DimensionMismatch("system and problem dimensions differ")
    covs = _state_covs(sys.A, spec.init.cov, sys.E @ sys.sigma_w @ sys.E.T, spec.horizon)
    phi, gamma = _mean_maps(sys.A, sys.B, spec.horizon)
    return _nominal_program(phi, gamma, covs, spec, "nominal_statespace")


def build_nominal_qp_multistep(model: MultiStepModel, spec: OcpSpec) -> ConicProgram:
    """Tightened QP with moments taken from the multi-step matrices."""
    phi, gamma = _multistep_maps(model, spec)
    covs = [g0 @ spec.init.cov @ g0.T + gw @ diag_repeat(model.sigma_w, k) @ gw.T
            for k, g0, gw in zip(range(1, spec.horizon + 1), model.g0, model.gw)]
    return _nominal_program(phi, gamma, covs, spec, "nominal_multistep")


# ---------------------------------------------------------------------------
# Parametric-uncertainty back-off constants
# ---------------------------------------------------------------------------


def _tightening_terms(
    h_rows: np.ndarray,
    gw_k: np.ndarray,
    g0_hat: np.ndarray,
    sw_half: np.ndarray,
    sx_half: np.ndarray,
    g0_factor: "np.ndarray | None",
    structure: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Constant vectors and parameter-direction matrices of the back-off norms.

    The worst-case standard deviation in direction H_j stacks the
    disturbance part (I_k kron sigma_w^{1/2}) Gw' H_j (independent of the
    parameters) on top of the initial-state part sigma_x0^{1/2} G0' H_j,
    which is affine in the parameter error through its first n^2
    coordinates (the G0 block) only: the direction is
    kron(sigma_x0^{1/2}, H_j') F for any factor F F' of the top-left
    n^2 x n^2 block of the parameter covariance, since the image of the
    ball depends on F only through F F'.  ``sw_half``/``sx_half`` are the
    symmetric square roots of sigma_w and sigma_x0.  All rows ``h_rows``
    (rows, n) are done at once: base is (rows, k q + n) and direction
    (rows, k q + n, columns of F), empty for FIR or without F.
    """
    h_rows = np.asarray(h_rows, dtype=float)
    n = g0_hat.shape[0]
    q = sw_half.shape[0]
    k = gw_k.shape[1] // q
    if gw_k.shape != (n, k * q) or h_rows.ndim != 2 or h_rows.shape[1] != n:
        raise DimensionMismatch("inconsistent tightening inputs")
    rows = h_rows.shape[0]
    noise = ((h_rows @ gw_k).reshape(rows, k, q) @ sw_half).reshape(rows, k * q)
    base = np.hstack([noise, h_rows @ g0_hat @ sx_half])
    if structure == STRUCTURE_FIR or g0_factor is None:
        return base, np.zeros(base.shape + (0,))
    cols = g0_factor.shape[1]
    par = (np.kron(sx_half, h_rows) @ g0_factor).reshape(n, rows, cols)
    direction = np.zeros(base.shape + (cols,))
    direction[:, k * q:] = np.swapaxes(par, 0, 1)
    return base, direction


def _row_terms(h_row, gw_k, g0_hat, sigma_w, sigma_x0, sigma_theta_half, structure):
    """One row's terms, with F the first n^2 rows of ``sigma_theta_half``."""
    n = np.shape(g0_hat)[0]
    g0_factor = None if sigma_theta_half is None else sigma_theta_half[: n * n]
    base, direction = _tightening_terms(
        np.ravel(h_row)[None, :], gw_k, g0_hat, sym_sqrt(sigma_w), sym_sqrt(sigma_x0),
        g0_factor, structure,
    )
    return base[0], direction[0]


def tightening_constant_exact(
    h_row: np.ndarray,
    gw_k: np.ndarray,
    g0_hat: np.ndarray,
    sigma_w: np.ndarray,
    sigma_x0: np.ndarray,
    sigma_theta_half: "np.ndarray | None",
    radius: float,
    structure: str = STRUCTURE_FULL,
) -> float:
    """Exact worst-case back-off over the parameter confidence ellipsoid.

    ``sigma_theta_half`` is any F whose first n^2 rows satisfy F F' = cov_k[:n^2, :n^2].
    """
    return max_norm_affine_over_ball(*_row_terms(
        h_row, gw_k, g0_hat, sigma_w, sigma_x0, sigma_theta_half, structure
    ), radius)


def tightening_constant_upper(
    h_row: np.ndarray,
    gw_k: np.ndarray,
    g0_hat: np.ndarray,
    sigma_w: np.ndarray,
    sigma_x0: np.ndarray,
    sigma_theta_half: "np.ndarray | None",
    radius: float,
    structure: str = STRUCTURE_FULL,
) -> float:
    """Triangle-inequality upper bound on the exact back-off constant."""
    return float(_upper_backoff(*_row_terms(
        h_row, gw_k, g0_hat, sigma_w, sigma_x0, sigma_theta_half, structure
    ), radius))


def _upper_backoff(base: np.ndarray, direction: np.ndarray, radius: float) -> np.ndarray:
    """||base|| + radius ||direction||_2, over any leading row axes."""
    bound = np.linalg.norm(base, axis=-1)
    if direction.shape[-1] and radius > 0.0:
        bound = bound + radius * np.linalg.norm(direction, 2, axis=(-2, -1))
    return bound


def build_tightening_table(
    spec: OcpSpec,
    estimates: "list[ParameterEstimate]",
    gw: "list[np.ndarray]",
    sigma_w: np.ndarray,
    delta: float,
) -> TighteningTable:
    """Back-off constants for every (constraint row, step) pair.

    ``delta = 1`` is accepted only in the degenerate case of exactly zero
    parameter covariances (no parametric uncertainty to robustify against).
    """
    if delta <= spec.p:
        raise DeltaTooSmall(f"delta must exceed p = {spec.p}, got {delta}")
    if len(estimates) < spec.horizon or len(gw) < spec.horizon:
        raise DimensionMismatch("need one estimate and one Gw per horizon step")
    radius, g0_factors, h_exact, h_upper, certificate_gap = {}, {}, {}, {}, {}
    sw_half = sym_sqrt(np.asarray(sigma_w, dtype=float))
    sx_half = sym_sqrt(spec.init.cov)
    n_g0 = spec.n * spec.n
    for k in range(1, spec.horizon + 1):
        est = estimates[k - 1]
        if est.k != k:
            raise DimensionMismatch(f"estimate at position {k} is for step {est.k}")
        radius[k] = est.radius(delta)
        g0_factors[k] = (sym_sqrt(est.cov[:n_g0, :n_g0]) if est.structure == STRUCTURE_FULL
                         else None)
        base, direction = _tightening_terms(spec.h_x, gw[k - 1], est.g0_hat(), sw_half, sx_half,
                                            g0_factors[k], est.structure)
        upper = _upper_backoff(base, direction, radius[k])
        gaps = []
        for j in range(spec.n_rows):
            h, bound = _ball_max_bounds(base[j], direction[j], radius[k])
            h_exact[(j, k)] = h
            h_upper[(j, k)] = float(upper[j])
            gaps.append((bound - h) / h if h else 0.0)
        certificate_gap[k] = max(gaps, default=0.0)
    return TighteningTable(
        delta=delta,
        p=spec.p,
        p_tilde=spec.p / delta,
        c_ptilde=gaussian_backoff(spec.p / delta),
        radius=radius,
        sigma_theta_half=g0_factors,
        h_exact=h_exact,
        h_upper=h_upper,
        certificate_gap=certificate_gap,
    )


def build_robust_socp_multistep(
    estimates: "list[ParameterEstimate]",
    spec: OcpSpec,
    delta: float,
    gw: "list[np.ndarray]",
    sigma_w: np.ndarray,
    table: "TighteningTable | None" = None,
) -> ConicProgram:
    """Robust program on the estimated multi-step model.

    It is the nominal multi-step program on the estimated (G0_k, Gu_k),
    with the Gaussian back-off of each state row replaced by the inflated
    chance level p/delta times the exact worst-case back-off of ``table``,
    and with the cone term r_k ||L' z_k|| added, where L L' = M_jk is the
    row covariance of the estimate (see :meth:`ParameterEstimate.row_moments`);
    z_k is affine in the decisions, which fill its last k*m entries, so
    each cone row has at most dof_k / n rows.  Rows whose parameter
    covariance is exactly zero stay linear.
    """
    if delta <= spec.p:
        raise DeltaTooSmall(f"delta must exceed p = {spec.p}, got {delta}")
    if table is None:
        table = build_tightening_table(spec, estimates, gw, sigma_w, delta)
    _check_initial_state(spec, table.c_ptilde)

    n_u, m = spec.horizon, spec.m
    phi, gamma = _multistep_maps(model_from_estimates(estimates[:n_u], gw[:n_u], sigma_w), spec)
    backoffs = table.c_ptilde * np.array(
        [[table.h_exact[(j, k)] for j in range(spec.n_rows)] for k in range(1, n_u + 1)])
    rows, offs = _state_rows(phi, gamma, spec, backoffs)
    cone = np.zeros((n_u, spec.n_rows), dtype=bool)
    soc_rows = []
    for k, est in enumerate(estimates[:n_u], start=1):
        rad = table.radius[k]
        if not (rad > 0.0 and np.any(est.cov)):
            continue
        cone[k - 1] = True
        z_free = est.regressor(spec.init.mean, np.zeros(k * m))
        lt_all = rad * np.swapaxes(psd_sqrt_factor(est.row_moments(spec.h_x)[1]), -1, -2)
        for i, lt in enumerate(lt_all, start=(k - 1) * spec.n_rows):
            f_mat = np.zeros((lt.shape[0], n_u * m))
            f_mat[:, : k * m] = lt[:, lt.shape[1] - k * m:]
            # 0.0 - row keeps the zero padding +0.0 (a bare -row writes -0.0).
            soc_rows.append(SocRow(f_mat=f_mat, g_vec=lt @ z_free, c_vec=0.0 - rows[i],
                                   d_off=float(offs[i])))
    linear = ~cone.ravel()
    return _program(
        spec, _stacked_cost(phi, gamma, spec), rows[linear], offs[linear], soc_rows,
        kind="robust_multistep", p=spec.p, delta=delta, p_tilde=table.p_tilde, backoff="exact",
    )


def formulate_minmax_statespace(
    est: ParameterEstimate,
    spec: OcpSpec,
    delta: float,
    n_scenarios: int,
    rng: "Rng | np.random.Generator",
    e_mat: np.ndarray,
    sigma_w: np.ndarray,
) -> ConicProgram:
    """Sampled-scenario stand-in for the intractable min-max state-space problem.

    Scenario 0 is the nominal estimate; further scenarios perturb vec([A, B])
    by points of the confidence ellipsoid (alternating boundary/interior,
    prefix-stable in the scenario count for a fixed stream).  Mean and
    variance are propagated per scenario, constraints are enforced at the
    inflated level for every scenario, and a worst-case cost epigraph
    (including the per-scenario trace terms) is minimized.  The program's
    start set is scenario 0's state rows, the input rows and cone 0: few
    rows are active at the optimum, so the solver grows this working set by
    violated rows instead of handing all scenarios to one solve.  This is
    only a baseline restricted to the sampled parameters; it carries no
    robustness guarantee.  ``delta = 1`` is accepted only for an exactly
    zero parameter covariance, as in :func:`build_tightening_table`.
    """
    if delta <= spec.p:
        raise DeltaTooSmall(f"delta must exceed p = {spec.p}, got {delta}")
    if n_scenarios < 1:
        raise DomainError("need at least one scenario")
    if est.k != 1 or est.structure != STRUCTURE_FULL:
        raise DomainError("the scenario baseline needs a one-step full-structure estimate")
    n, m, n_u = spec.n, spec.m, spec.horizon
    if est.n != n or est.m != m:
        raise DimensionMismatch("estimate and problem dimensions differ")

    rad = est.radius(delta)
    p_tilde = spec.p / delta
    c_pt = gaussian_backoff(p_tilde)
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

    # Every scenario's [A, B] = [A_hat, B_hat] + unvec(offset), stacked (S, n, n + m).
    ab = np.hstack([est.g0_hat(), est.gu_hat()]) + np.reshape(
        offsets, (n_scenarios, n + m, n)).transpose(0, 2, 1)
    a_mat, b_mat = ab[..., :n], ab[..., n:]
    phi, gamma = _mean_maps(a_mat, b_mat, n_u)
    e_mat = np.asarray(e_mat, dtype=float)
    noise_cov = e_mat @ np.asarray(sigma_w, dtype=float) @ e_mat.T
    covs = _state_covs(a_mat, spec.init.cov, noise_cov, n_u)
    rows, offs = _state_rows(phi, gamma, spec, _gaussian_backoffs(covs, spec, c_pt))
    dim = n_u * m + 1          # stacked inputs plus the epigraph variable
    t_index = n_u * m
    lin_a_state = np.concatenate([rows, np.zeros(rows.shape[:-1] + (1,))], axis=-1)   # t column

    # Epigraph of each scenario cost, trace terms included, with
    # L L' = gamma_bar' Q_bar gamma_bar + R_bar and L w = gamma_bar' Q_bar phi_bar x0:
    # ||L' u + w||^2 <= t - c_shift  <=>  ||[2(L'u + w); v - 1]|| <= v + 1, v = t - c_shift
    cost_mat, cost_vec, cost_const = _stacked_cost(phi, gamma, spec)
    chol = np.linalg.cholesky(0.5 * cost_mat)
    w_vec = np.linalg.solve(chol, 0.5 * cost_vec[..., None])[..., 0]
    trace_term = sum(np.trace(spec.Q @ cov, axis1=-2, axis2=-1) for cov in covs)
    c_shift = cost_const + trace_term - np.sum(w_vec**2, axis=-1)
    f_mats = np.zeros((n_scenarios, n_u * m + 1, dim))
    f_mats[:, : n_u * m, : n_u * m] = 2.0 * np.swapaxes(chol, -1, -2)
    f_mats[:, -1, t_index] = 1.0
    g_vecs = np.hstack([2.0 * w_vec, -c_shift[:, None] - 1.0])
    c_vec = np.zeros(dim)
    c_vec[t_index] = 1.0
    soc_rows = [SocRow(f_mat=f, g_vec=g, c_vec=c_vec, d_off=float(1.0 - c))
                for f, g, c in zip(f_mats, g_vecs, c_shift)]

    q_vec = np.zeros(dim)
    q_vec[t_index] = 1.0
    return _program(
        spec, (np.zeros((dim, dim)), q_vec, 0.0), lin_a_state.reshape(-1, dim), offs.ravel(),
        soc_rows, start_set=(np.arange(rows.shape[1]), np.zeros(1, dtype=int)),
        epigraph_index=t_index, kind="minmax_scenarios", robust=False,
        n_scenarios=n_scenarios, p=spec.p, delta=delta, p_tilde=p_tilde,
    )


# ---------------------------------------------------------------------------
# JSON-ready converters; cli writes the files
# ---------------------------------------------------------------------------


def tightening_to_json(table: TighteningTable) -> dict:
    return {
        "delta": table.delta,
        "p_tilde": table.p_tilde,
        "c_ptilde": table.c_ptilde,
        "max_certificate_gap": max(table.certificate_gap.values(), default=0.0),
        "rows": [
            {"j": j, "k": k, "h_exact": table.h_exact[(j, k)],
             "h_upper": table.h_upper[(j, k)], "radius": table.radius[k]}
            for (j, k) in sorted(table.h_exact)
        ],
    }


def program_to_json(prog: ConicProgram) -> dict:
    return {
        "P": prog.p_mat.tolist(),
        "q": prog.q_vec.tolist(),
        "constant": prog.constant,
        "lin_a": prog.lin_a.tolist(),
        "lin_b": prog.lin_b.tolist(),
        "soc_rows": [
            {
                "F": row.f_mat.tolist(),
                "g": row.g_vec.tolist(),
                "c": row.c_vec.tolist(),
                "d": row.d_off,
            }
            for row in prog.soc_rows
        ],
        "variable_map": prog.variable_map,
    }

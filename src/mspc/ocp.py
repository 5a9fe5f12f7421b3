"""Chance-constrained optimal control problems as canonical conic programs.

The nominal problems tighten each state half-space by the Gaussian
back-off c_p * ||H_j||_{Sigma_{x,k}} with a pre-computed state covariance
and are plain QPs in the stacked input sequence.  Under parametric
uncertainty in the multi-step predictor, the per-step parameter
confidence ellipsoid (radius ``ParameterEstimate.radius``) adds a
decision-dependent norm term (a second-order cone row) plus a constant
worst-case variance back-off, computed exactly by maximizing an affine
norm over the ellipsoid (``linalg.max_norm_affine_over_ball``).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import (
    DeltaTooSmall,
    DimensionMismatch,
    DomainError,
    InfeasibleInitialState,
)
from .ident import ParameterEstimate, STRUCTURE_FIR, STRUCTURE_FULL
from .linalg import (
    Rng,
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
        if np.any(lo >= hi):
            raise DomainError("input box must have nonempty interior (lo < hi)")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True)
class InputPolytope:
    """General polytope H u <= h applied at every step."""

    h_mat: np.ndarray
    h_vec: np.ndarray
    interior_point: "np.ndarray | None" = None

    def __post_init__(self):
        h_mat = np.asarray(self.h_mat, dtype=float)
        h_vec = np.asarray(self.h_vec, dtype=float).ravel()
        if h_mat.ndim != 2 or h_mat.shape[0] != h_vec.size:
            raise DimensionMismatch("polytope rows and offsets are inconsistent")
        point = self.interior_point
        point = np.zeros(h_mat.shape[1]) if point is None else np.asarray(point, float).ravel()
        if np.any(h_mat @ point >= h_vec):
            raise DomainError("interior point does not strictly satisfy the polytope")
        object.__setattr__(self, "h_mat", h_mat)
        object.__setattr__(self, "h_vec", h_vec)
        object.__setattr__(self, "interior_point", point)


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
    """

    p_mat: np.ndarray
    q_vec: np.ndarray
    constant: float
    lin_a: np.ndarray    # (n_lin, dim)
    lin_b: np.ndarray    # (n_lin,)
    soc_rows: "list[SocRow]" = field(default_factory=list)
    variable_map: dict = field(default_factory=dict)

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


@dataclass(frozen=True)
class TighteningTable:
    """Constant back-off terms of the robust program, per constraint and step."""

    delta: float
    p: float
    p_tilde: float
    c_ptilde: float
    radius: dict            # k -> sqrt(chi2_{dof_k}(delta))
    sigma_theta_half: dict  # k -> symmetric sqrt of the parameter covariance
    h_exact: dict           # (j, k) -> exact worst-case back-off
    h_upper: dict           # (j, k) -> triangle-inequality upper bound


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
    rows, offs = [], []
    if spec.u_set is None:
        return np.zeros((0, dim)), np.zeros(0)
    for k in range(n_u):
        base = k * m
        if isinstance(spec.u_set, InputBox):
            for i in range(m):
                if math.isfinite(spec.u_set.hi[i]):
                    row = np.zeros(dim)
                    row[base + i] = 1.0
                    rows.append(row)
                    offs.append(spec.u_set.hi[i])
                if math.isfinite(spec.u_set.lo[i]):
                    row = np.zeros(dim)
                    row[base + i] = -1.0
                    rows.append(row)
                    offs.append(-spec.u_set.lo[i])
        else:
            for hrow, hoff in zip(spec.u_set.h_mat, spec.u_set.h_vec):
                row = np.zeros(dim)
                row[base: base + m] = hrow
                rows.append(row)
                offs.append(hoff)
    if not rows:
        return np.zeros((0, dim)), np.zeros(0)
    return np.vstack(rows), np.asarray(offs, dtype=float)


def _stacked_cost(
    phi: "list[np.ndarray]",
    gamma: "list[np.ndarray]",
    spec: OcpSpec,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Cost sum_k ||x_k||_Q^2 + ||u_{k-1}||_R^2 in the stacked input."""
    n_u, m = spec.horizon, spec.m
    phi_bar = np.vstack(phi)          # (N n, n)
    gamma_bar = np.vstack(gamma)      # (N n, N m)
    q_bar = diag_repeat(spec.Q, n_u)
    r_bar = diag_repeat(spec.R, n_u)
    free = phi_bar @ spec.init.mean
    p_mat = 2.0 * (gamma_bar.T @ q_bar @ gamma_bar + r_bar)
    q_vec = 2.0 * gamma_bar.T @ (q_bar @ free)
    constant = float(free @ q_bar @ free)
    return 0.5 * (p_mat + p_mat.T), q_vec, constant


def _mean_maps(a_mat: np.ndarray, b_mat: np.ndarray, n_u: int) -> tuple[list, list]:
    """Recursively substitute the dynamics: x_k = phi_k x0 + gamma_k u."""
    n, m = b_mat.shape
    phi = []
    gamma = []
    cur_phi = np.eye(n)
    cur_gamma = np.zeros((n, n_u * m))
    for k in range(n_u):
        nxt_gamma = a_mat @ cur_gamma
        nxt_gamma[:, k * m: (k + 1) * m] += b_mat
        cur_phi = a_mat @ cur_phi
        cur_gamma = nxt_gamma
        phi.append(cur_phi)
        gamma.append(cur_gamma)
    return phi, gamma


def _state_rows(phi, gamma, covs, spec: OcpSpec, backoff: float):
    """Rows h' gamma_k u <= 1 - backoff sqrt(h' cov_k h) - h' phi_k x0; steps k, then rows h."""
    var = np.einsum("ja,kab,jb->kj", spec.h_x, np.array(covs), spec.h_x)
    rows = (spec.h_x @ np.array(gamma)).reshape(-1, gamma[0].shape[1])
    free = np.array(phi) @ spec.init.mean @ spec.h_x.T
    return rows, (1.0 - backoff * np.sqrt(np.maximum(var, 0.0)) - free).ravel()


def _nominal_program(
    phi: "list[np.ndarray]",
    gamma: "list[np.ndarray]",
    covs: "list[np.ndarray]",
    spec: OcpSpec,
    kind: str,
    backoff: float,
) -> ConicProgram:
    """Assemble the tightened-mean QP from stacked maps and covariances."""
    _check_initial_state(spec, backoff)
    dim = spec.horizon * spec.m
    lin_a_state, lin_b_state = _state_rows(phi, gamma, covs, spec, backoff)
    lin_a_input, lin_b_input = _input_rows(spec, dim)
    p_mat, q_vec, constant = _stacked_cost(phi, gamma, spec)
    prog = ConicProgram(
        p_mat=p_mat,
        q_vec=q_vec,
        constant=constant,
        lin_a=np.vstack([lin_a_state, lin_a_input]),
        lin_b=np.concatenate([lin_b_state, lin_b_input]),
        soc_rows=[],
        variable_map={
            "u": {"horizon": spec.horizon, "m": spec.m, "offset": 0},
            "kind": kind,
            "p": spec.p,
        },
    )
    prog.check_shapes()
    return prog


def build_nominal_qp_statespace(sys: LinearSystem, spec: OcpSpec) -> ConicProgram:
    """Tightened QP with moments propagated by the one-step recursion."""
    if sys.n != spec.n or sys.m != spec.m:
        raise DimensionMismatch("system and problem dimensions differ")
    backoff = gaussian_backoff(spec.p)
    noise_cov = sys.E @ sys.sigma_w @ sys.E.T
    covs = []
    cov = spec.init.cov
    for _ in range(spec.horizon):
        cov = sys.A @ cov @ sys.A.T + noise_cov
        covs.append(cov)
    phi, gamma = _mean_maps(sys.A, sys.B, spec.horizon)
    return _nominal_program(phi, gamma, covs, spec, "nominal_statespace", backoff)


def build_nominal_qp_multistep(model: MultiStepModel, spec: OcpSpec) -> ConicProgram:
    """Tightened QP with moments taken from the multi-step matrices."""
    if model.n != spec.n or model.m != spec.m:
        raise DimensionMismatch("model and problem dimensions differ")
    if model.horizon < spec.horizon:
        raise DimensionMismatch("model horizon is shorter than the problem horizon")
    backoff = gaussian_backoff(spec.p)
    dim = spec.horizon * spec.m
    phi, gamma, covs = [], [], []
    for k in range(1, spec.horizon + 1):
        g0, gu, gw = model.step(k)
        phi.append(g0)
        gk = np.zeros((model.n, dim))
        gk[:, : k * model.m] = gu
        gamma.append(gk)
        covs.append(g0 @ spec.init.cov @ g0.T + gw @ diag_repeat(model.sigma_w, k) @ gw.T)
    return _nominal_program(phi, gamma, covs, spec, "nominal_multistep", backoff)


# ---------------------------------------------------------------------------
# Parametric-uncertainty back-off constants
# ---------------------------------------------------------------------------


def _tightening_terms(
    h_row: np.ndarray,
    gw_k: np.ndarray,
    g0_hat: np.ndarray,
    sw_half: np.ndarray,
    sx_half: np.ndarray,
    sigma_theta_half: "np.ndarray | None",
    structure: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Constant vector and parameter-direction matrix of the back-off norm.

    The worst-case standard deviation in direction H_j stacks the
    disturbance part diag_k(sigma_w^{1/2}) Gw' H_j (independent of the
    parameters) on top of the initial-state part sigma_x0^{1/2} G0' H_j,
    which is affine in the parameter error through its first n^2
    coordinates.  ``sw_half``/``sx_half`` are the symmetric square roots of
    sigma_w and sigma_x0.
    """
    h_row = np.asarray(h_row, dtype=float).ravel()
    n = g0_hat.shape[0]
    q = sw_half.shape[0]
    k = gw_k.shape[1] // q
    if gw_k.shape != (n, k * q) or h_row.size != n:
        raise DimensionMismatch("inconsistent tightening inputs")
    base = np.concatenate([
        diag_repeat(sw_half, k) @ (gw_k.T @ h_row),
        sx_half @ (g0_hat.T @ h_row),
    ])
    if structure == STRUCTURE_FIR or sigma_theta_half is None:
        direction = np.zeros((base.size, 0))
        return base, direction
    dof = sigma_theta_half.shape[0]
    sel = np.kron(sx_half, h_row[None, :])           # (n, n^2)
    par = sel @ sigma_theta_half[: n * n, :]          # (n, dof)
    direction = np.vstack([np.zeros((k * q, dof)), par])
    return base, direction


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
    """Exact worst-case back-off over the parameter confidence ellipsoid."""
    return _exact_backoff(*_tightening_terms(
        h_row, gw_k, g0_hat, sym_sqrt(sigma_w), sym_sqrt(sigma_x0), sigma_theta_half, structure
    ), radius)


def _exact_backoff(base: np.ndarray, direction: np.ndarray, radius: float) -> float:
    if direction.shape[1] == 0 or radius == 0.0:
        return float(np.linalg.norm(base))
    return max_norm_affine_over_ball(base, direction, radius)


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
    return _upper_backoff(*_tightening_terms(
        h_row, gw_k, g0_hat, sym_sqrt(sigma_w), sym_sqrt(sigma_x0), sigma_theta_half, structure
    ), radius)


def _upper_backoff(base: np.ndarray, direction: np.ndarray, radius: float) -> float:
    bound = float(np.linalg.norm(base))
    if direction.shape[1] and radius > 0.0:
        bound += radius * float(np.linalg.norm(direction, 2))
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
    radius, sigma_half, h_exact, h_upper = {}, {}, {}, {}
    sw_half = sym_sqrt(np.asarray(sigma_w, dtype=float))
    sx_half = sym_sqrt(spec.init.cov)
    for k in range(1, spec.horizon + 1):
        est = estimates[k - 1]
        if est.k != k:
            raise DimensionMismatch(f"estimate at position {k} is for step {est.k}")
        radius[k] = est.radius(delta)
        sigma_half[k] = sym_sqrt(est.cov)
        g0_hat = est.g0_hat()
        for j in range(spec.n_rows):
            terms = _tightening_terms(spec.h_x[j], gw[k - 1], g0_hat, sw_half, sx_half,
                                      sigma_half[k], est.structure)
            h_exact[(j, k)] = _exact_backoff(*terms, radius[k])
            h_upper[(j, k)] = _upper_backoff(*terms, radius[k])
    return TighteningTable(
        delta=delta,
        p=spec.p,
        p_tilde=spec.p / delta,
        c_ptilde=gaussian_backoff(spec.p / delta),
        radius=radius,
        sigma_theta_half=sigma_half,
        h_exact=h_exact,
        h_upper=h_upper,
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

    Each state row carries the inflated chance level p/delta, the constant
    worst-case variance back-off, and the cone term r_k ||L' z_k|| with
    L L' = M_jk the row covariance of the estimate (see
    :meth:`ParameterEstimate.row_moments`); z_k is affine in the decisions,
    which fill its last k*m entries, so each cone row has at most dof_k / n
    rows.  Rows whose parameter covariance is exactly zero degrade to
    linear rows.
    """
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
        for j, h in enumerate(spec.h_x):
            g, m_mat = est.row_moments(h)
            c_vec = np.zeros(dim)
            c_vec[: k * m] = -g[g.size - k * m:]
            d_off = 1.0 - table.c_ptilde * table.h_exact[(j, k)] - float(z_free @ g)
            if rad > 0.0 and np.any(table.sigma_theta_half[k]):
                lt = rad * psd_sqrt_factor(m_mat).T
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
        constant=constant,
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
    (including the per-scenario trace terms) is minimized.  This is only a
    baseline restricted to the sampled parameters; it carries no robustness
    guarantee.  ``delta = 1`` is accepted only for an exactly zero parameter
    covariance, as in :func:`build_tightening_table`.
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

    dim = n_u * m + 1          # stacked inputs plus the epigraph variable
    t_index = n_u * m
    base_theta = np.hstack([est.g0_hat(), est.gu_hat()])   # [A_hat, B_hat]
    q_bar = diag_repeat(spec.Q, n_u)
    r_bar = diag_repeat(spec.R, n_u)
    e_mat = np.asarray(e_mat, dtype=float)
    noise_cov = e_mat @ np.asarray(sigma_w, dtype=float) @ e_mat.T

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
        rows, offs = _state_rows(phi, gamma, covs, spec, c_pt)
        lin_rows.append(np.hstack([rows, np.zeros((rows.shape[0], 1))]))   # t column
        lin_offs.append(offs)
        # Epigraph of the scenario cost, trace terms included.
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
        # ||L' u + w||^2 <= t - c_shift  <=>  ||[2(L'u + w); v - 1]|| <= v + 1
        f_mat = np.zeros((n_u * m + 1, dim))
        f_mat[: n_u * m, : n_u * m] = 2.0 * chol.T
        f_mat[-1, t_index] = 1.0
        g_vec = np.concatenate([2.0 * w_vec, [-c_shift - 1.0]])
        c_vec = np.zeros(dim)
        c_vec[t_index] = 1.0
        soc_rows.append(SocRow(f_mat=f_mat, g_vec=g_vec, c_vec=c_vec, d_off=1.0 - c_shift))

    lin_a_input, lin_b_input = _input_rows(spec, dim)
    q_vec = np.zeros(dim)
    q_vec[t_index] = 1.0
    prog = ConicProgram(
        p_mat=np.zeros((dim, dim)),
        q_vec=q_vec,
        constant=0.0,
        lin_a=np.vstack(lin_rows + [lin_a_input]),
        lin_b=np.concatenate(lin_offs + [lin_b_input]),
        soc_rows=soc_rows,
        variable_map={
            "u": {"horizon": n_u, "m": m, "offset": 0},
            "epigraph_index": t_index,
            "kind": "minmax_scenarios",
            "robust": False,
            "n_scenarios": n_scenarios,
            "p": spec.p,
            "delta": delta,
            "p_tilde": p_tilde,
        },
    )
    prog.check_shapes()
    return prog


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


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


def program_from_json(doc: dict) -> ConicProgram:
    dim = len(doc["q"])
    lin_a = np.asarray(doc["lin_a"], dtype=float)
    if lin_a.size == 0:
        lin_a = np.zeros((0, dim))
    prog = ConicProgram(
        p_mat=np.asarray(doc["P"], dtype=float).reshape(dim, dim),
        q_vec=np.asarray(doc["q"], dtype=float),
        constant=float(doc["constant"]),
        lin_a=lin_a,
        lin_b=np.asarray(doc["lin_b"], dtype=float),
        soc_rows=[
            SocRow(
                f_mat=np.asarray(row["F"], dtype=float).reshape(-1, dim),
                g_vec=np.asarray(row["g"], dtype=float),
                c_vec=np.asarray(row["c"], dtype=float),
                d_off=float(row["d"]),
            )
            for row in doc["soc_rows"]
        ],
        variable_map=doc.get("variable_map", {}),
    )
    prog.check_shapes()
    return prog


def save_program(prog: ConicProgram, path: "str | Path") -> None:
    Path(path).write_text(json.dumps(program_to_json(prog), indent=2) + "\n")


def load_program(path: "str | Path") -> ConicProgram:
    return program_from_json(json.loads(Path(path).read_text()))


def save_tightening_csv(table: TighteningTable, path: "str | Path") -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "k", "h_exact", "h_upper", "radius"])
        for (j, k) in sorted(table.h_exact):
            writer.writerow([j, k, repr(table.h_exact[(j, k)]),
                             repr(table.h_upper[(j, k)]), repr(table.radius[k])])

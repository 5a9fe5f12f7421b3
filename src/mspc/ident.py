"""Identification of multi-step predictors and state-space models.

The k-step prediction of the state is linear in the stacked parameter
``theta_k = vec([G0_k, Gu_k])``; with noisy state measurements the stacked
regression residuals are correlated across overlapping windows, with a
band covariance assembled here from the known disturbance structure.
Weighting the least-squares fit with the inverse of that covariance gives
the maximum-likelihood estimate together with a parameter covariance.  The
delta-confidence ellipsoid of an estimate is {theta + cov^(1/2) z : ||z|| <=
r}, and ``ParameterEstimate.radius`` is the one definition of
r = sqrt(chi2_dof(delta)) that tightening, the scenario baseline and the
coverage experiment read.

The covariance is kept in lower band storage (bandwidth n(k+1): blocks
beyond lag k vanish) and whitened through its banded Cholesky factor, in
time and memory linear in the record length.  Only a numerically singular
covariance (the banded Cholesky fails or leaves a tiny pivot) is expanded
to a dense matrix, for the eigen-projection fallback that
``ParameterEstimate.projected_rank`` records.  The band routines, which
numpy's Python API lacks, are bound from the OpenBLAS that numpy itself
loads (``linalg.banded_cholesky_solve``), so every factorization runs in one
BLAS library and one thread pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    InsufficientData,
    NotSymmetric,
    SingularInformation,
)
from .linalg import (
    banded_cholesky_solve,
    check_symmetric,
    chi2_quantile,
    inverse_cholesky_factor,
    times_diag_repeat,
    unvec,
    vec,
)
from .system import MultiStepModel, Trajectory

STRUCTURE_FULL = "full"
STRUCTURE_FIR = "fir"
STRUCTURES = (STRUCTURE_FULL, STRUCTURE_FIR)
COVARIANCE_MODES = ("oracle", "plugin")

# Eigenvalue cutoffs (relative to the largest eigenvalue).
_RESIDUAL_COV_RTOL = 1e-9     # subspace projection of singular residual covariances
_INFORMATION_RTOL = 1e-10     # excitation check on the information matrix


@dataclass(frozen=True)
class RegressionProblem:
    """Stacked k-step regression: targets ~= regressor @ theta_k.

    ``system`` is [regressor, targets], (n * (T-k+1), dof + 1), and
    ``regressor`` and ``targets`` are views of it.  Row j n + i of the
    regressor is z_j kron e_i, so column c n + i holds entry c of z_j in row
    j n + i and zeros elsewhere.  ``build_regression`` makes ``system``
    Fortran-ordered, because the band solve of the whitening reads it column
    by column: its copy there is then one memcpy.
    """

    k: int
    structure: str
    system: np.ndarray
    n: int
    m: int

    @property
    def regressor(self) -> np.ndarray:
        return self.system[:, :-1]

    @property
    def targets(self) -> np.ndarray:
        return self.system[:, -1]

    @property
    def dof(self) -> int:
        return self.system.shape[1] - 1

    @property
    def rows(self) -> int:
        return self.system.shape[0]


@dataclass(frozen=True)
class ResidualCovariance:
    """Covariance S of the stacked k-step regression residuals, in lower band storage.

    ``band[d, j] = S[j + d, j]``; the band has n(k+1) rows, since blocks
    beyond lag k vanish, or n * windows rows when the record has at most k
    windows.  ``matrix`` is the dense symmetric view; identification builds
    it only for the eigen-projection fallback of a singular S.
    """

    k: int
    band: np.ndarray

    @property
    def size(self) -> int:
        return self.band.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        """Dense symmetric S, (size, size)."""
        size = self.size
        s = np.zeros((size, size))
        for d, diagonal in enumerate(self.band[:size]):
            idx = np.arange(size - d)
            s[idx + d, idx] = s[idx, idx + d] = diagonal[: size - d]
        return s


@dataclass(frozen=True)
class ParameterEstimate:
    """Estimated theta_k with its covariance."""

    k: int
    structure: str
    theta: np.ndarray
    cov: np.ndarray
    n: int
    m: int
    projected_rank: "int | None" = None   # set when the residual covariance was singular
    information_condition: "float | None" = None   # of the information matrix, set by the MLE

    @property
    def dof(self) -> int:
        return self.theta.size

    def g0_hat(self) -> np.ndarray:
        """Estimated initial-state map (zero for FIR structure)."""
        if self.structure == STRUCTURE_FIR:
            return np.zeros((self.n, self.n))
        return unvec(self.theta, self.n, self.n + self.k * self.m)[:, : self.n]

    def gu_hat(self) -> np.ndarray:
        """Estimated input map, shape (n, k*m)."""
        if self.structure == STRUCTURE_FIR:
            return unvec(self.theta, self.n, self.k * self.m)
        return unvec(self.theta, self.n, self.n + self.k * self.m)[:, self.n:]

    def regressor(self, x0: np.ndarray, u: np.ndarray) -> np.ndarray:
        """z_k with x_k = G_k z_k: [x0; u] (u alone for FIR), for one x0 or a batch.

        The inputs ``u`` (k*m values) always fill the last k*m entries.
        """
        x0 = np.asarray(x0, dtype=float)
        u = np.asarray(u, dtype=float).ravel()
        if u.size != self.k * self.m or x0.shape[-1] != self.n:
            raise DimensionMismatch(f"need {self.n} states and {self.k * self.m} inputs")
        u = np.broadcast_to(u, x0.shape[:-1] + u.shape)
        if self.structure == STRUCTURE_FIR:
            return u.copy()
        return np.concatenate([x0, u], axis=-1)

    def row_moments(self, h: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Mean map g and covariance M of the row prediction h' G_k z = (z kron h)' theta_k.

        With theta_k ~ N(theta, cov), h' G_k z is Gaussian with mean z' g and
        variance z' M z, where g = G_hat' h and M = (I kron h)' cov (I kron h)
        is cols x cols.  ``h`` is one row (n,), giving g (cols,) and M
        (cols, cols), or a stack (rows, n), giving g (cols, rows) and M
        (rows, cols, cols).
        """
        h = np.asarray(h, dtype=float)
        cols = self.dof // self.n
        g = self.theta.reshape(cols, self.n) @ h.T
        blocks = self.cov.reshape(cols, self.n, cols, self.n)
        m_mat = np.einsum("aibj,...i,...j->...ab", blocks, h, h)
        return g, 0.5 * (m_mat + np.swapaxes(m_mat, -1, -2))

    def radius(self, delta: float) -> float:
        """Radius sqrt(chi2_dof(delta)) of the delta-confidence ellipsoid.

        The ellipsoid is {theta + cov^(1/2) z : ||z|| <= radius}.  delta = 1
        is accepted only for an exactly zero covariance, whose radius is 0.
        """
        if delta == 1.0 and not np.any(self.cov):
            return 0.0
        if not (0.0 < delta < 1.0):
            raise DomainError(f"delta must lie in (0, 1), or be 1 with zero covariance; got {delta}")
        return math.sqrt(chi2_quantile(self.dof, delta))


def true_theta(g0: np.ndarray, gu: np.ndarray, structure: str = STRUCTURE_FULL) -> np.ndarray:
    """Stack prediction matrices into the parameter vector used for regression."""
    if structure == STRUCTURE_FIR:
        return vec(gu)
    return vec(np.hstack([g0, gu]))


def build_regression(data: Trajectory, k: int, structure: str = STRUCTURE_FULL) -> RegressionProblem:
    """Assemble the stacked k-step regression from one trajectory.

    Row j regresses the measurement at time j+k on [xm_j, u_j, ..., u_{j+k-1}];
    the FIR structure drops the initial-state block.
    """
    if k < 1:
        raise DomainError("prediction step k must be >= 1")
    if structure not in STRUCTURES:
        raise DomainError(f"unknown structure {structure!r}")
    n, m, t_len = data.n, data.m, data.T
    if t_len < k:
        raise InsufficientData(f"trajectory length {t_len} < prediction step {k}")
    windows = t_len - k + 1
    z = np.zeros((windows, (0 if structure == STRUCTURE_FIR else n) + k * m))
    col = 0
    if structure == STRUCTURE_FULL:
        z[:, :n] = data.measurements[:windows]
        col = n
    for i in range(k):
        z[:, col + i * m: col + (i + 1) * m] = data.inputs[i: i + windows]
    cols = z.shape[1]
    if windows < cols:
        raise InsufficientData(f"{n * windows} regression rows for {n * cols} unknowns")
    # z kron I_n, one strided write per state coordinate, and the targets last.
    system = np.zeros((n * windows, n * cols + 1), order="F")
    for i in range(n):
        system[i::n, i: cols * n: n] = z
    system[:, -1] = data.measurements[k: t_len + 1].ravel()
    return RegressionProblem(k=k, structure=structure, system=system, n=n, m=m)


def residual_covariance(
    gw_k: np.ndarray,
    g0_k: np.ndarray,
    sigma_w: np.ndarray,
    sigma_eps: np.ndarray,
    k: int,
    t_len: int,
) -> ResidualCovariance:
    """Band covariance of the stacked k-step residuals over a length-T record.

    The residual of window j is Gw_k w_[j,j+k-1] - G0_k eps_j + eps_{j+k};
    windows at lag i share k-i disturbances (1 <= i <= k-1), and windows at
    lag k share one measurement noise term.  Blocks beyond lag k vanish.
    """
    gw_k = np.asarray(gw_k, dtype=float)
    g0_k = np.asarray(g0_k, dtype=float)
    sigma_w = check_symmetric(np.asarray(sigma_w, dtype=float), name="sigma_w")
    sigma_eps = check_symmetric(np.asarray(sigma_eps, dtype=float), name="sigma_eps")
    n = g0_k.shape[0]
    q = sigma_w.shape[0]
    if gw_k.shape != (n, k * q):
        raise DimensionMismatch(f"Gw must be {n}x{k * q}, got {gw_k.shape}")
    if g0_k.shape != (n, n) or sigma_eps.shape != (n, n):
        raise DimensionMismatch("G0 and sigma_eps must be n x n")
    if t_len < k:
        raise DimensionMismatch(f"record length {t_len} < prediction step {k}")

    windows = t_len - k + 1
    # Block i is Gw_k[:, iq:] (I kron sigma_w) Gw_k[:, :(k-i)q]', read off H = Gw_k (I kron sigma_w).
    weighted = times_diag_repeat(gw_k, sigma_w)
    lag_blocks = [gw_k[:, i * q:] @ weighted[:, : (k - i) * q].T for i in range(k)]
    lag_blocks[0] = lag_blocks[0] + g0_k @ sigma_eps @ g0_k.T + sigma_eps
    lag_blocks.append(-sigma_eps @ g0_k.T)

    # Window w+i against window w: S[(w+i)n + r, wn + c] = block_i[c, r], the
    # lower triangle of block_0 on the diagonal; one strided write per entry.
    band = np.zeros((n * min(k + 1, windows), n * windows))
    for i, block in enumerate(lag_blocks[:windows]):
        lower = block.T if i else block
        for r in range(n):
            for c in range(n if i else r + 1):
                band[i * n + r - c, c: (windows - i) * n: n] = lower[r, c]
    return ResidualCovariance(k=k, band=band)


def _whiten(reg: RegressionProblem, cov: ResidualCovariance):
    """Return the whitened regressor/targets and the retained rank.

    Tries a banded Cholesky factorization first; if the covariance is
    singular the problem is projected onto the span of its significant
    eigenvectors, the only step that forms the dense covariance.
    """
    if cov.size != reg.rows:
        raise DimensionMismatch(
            f"residual covariance has {cov.size} rows, regression has {reg.rows}"
        )
    factored = banded_cholesky_solve(cov.band, reg.system)
    if factored is not None:
        chol, white = factored
        # A tiny pivot means the factorization "succeeded" on a numerically
        # singular matrix; treat that the same as an outright failure.
        if float(np.min(chol[0])) ** 2 > _RESIDUAL_COV_RTOL * float(np.max(cov.band[0])):
            return white[:, :-1], white[:, -1], None
    w, u = np.linalg.eigh(cov.matrix)
    keep = w > _RESIDUAL_COV_RTOL * max(float(w[-1]), 0.0)
    if not np.any(keep):
        raise SingularInformation("residual covariance is numerically zero")
    scale = 1.0 / np.sqrt(w[keep])
    basis = u[:, keep] * scale
    # Row-ordered operands, so that the products round alike in either layout of the system.
    phi_w = basis.T @ np.ascontiguousarray(reg.regressor)
    y_w = basis.T @ np.ascontiguousarray(reg.targets)
    return phi_w, y_w, int(np.count_nonzero(keep))


def _normal_equations(phi: np.ndarray, y: np.ndarray):
    """The solution of (phi' phi) theta = phi' y (a column per column of a matrix y), the
    inverse of phi' phi and its eigenvalues."""
    info = phi.T @ phi
    info = 0.5 * (info + info.T)
    eigvals = np.linalg.eigvalsh(info)
    if eigvals[0] <= _INFORMATION_RTOL * max(float(eigvals[-1]), 0.0):
        raise SingularInformation(f"information matrix nearly singular (min eig {eigvals[0]:.3e})")
    inv_factor = inverse_cholesky_factor(info)
    return (inv_factor @ (inv_factor.T @ (phi.T @ y)), inv_factor @ inv_factor.T, eigvals)


def mle_estimate(reg: RegressionProblem, cov: ResidualCovariance) -> ParameterEstimate:
    """Weighted least squares with the residual band covariance as weight.

    Solves the normal equations of the whitened problem via Cholesky of the
    information matrix; raises :class:`SingularInformation` when the data is
    not exciting enough, and :class:`DomainError` when the band, the regressor
    or the targets hold a non-finite number.
    """
    for name, values in (("residual covariance", cov.band), ("regressor", reg.regressor),
                         ("targets", reg.targets)):
        if not np.isfinite(values).all():
            raise DomainError(f"{name} is not finite")
    phi_w, y_w, rank = _whiten(reg, cov)
    theta, cov_theta, eigvals = _normal_equations(phi_w, y_w)
    return ParameterEstimate(
        k=reg.k,
        structure=reg.structure,
        theta=theta,
        cov=0.5 * (cov_theta + cov_theta.T),
        n=reg.n,
        m=reg.m,
        projected_rank=rank,
        information_condition=float(eigvals[-1] / eigvals[0]),
    )


def state_space_ls(data: Trajectory, sigma_w: np.ndarray, e_mat: np.ndarray) -> ParameterEstimate:
    """One-step weighted least squares assuming noise-free measurements.

    With per-step residual covariance S = E sigma_w E' the weighting drops
    out of the point estimate, which reduces to ordinary least squares row
    by row, while the parameter covariance is (sum_j z_j z_j')^{-1} kron S.
    """
    e_mat = np.asarray(e_mat, dtype=float)
    sigma_w = check_symmetric(np.asarray(sigma_w, dtype=float), name="sigma_w")
    n, m, t_len = data.n, data.m, data.T
    if e_mat.shape[0] != n or sigma_w.shape[0] != e_mat.shape[1]:
        raise DimensionMismatch("E and sigma_w dimensions are inconsistent")
    s_w = e_mat @ sigma_w @ e_mat.T
    eigvals = np.linalg.eigvalsh(0.5 * (s_w + s_w.T))
    if eigvals[0] <= 1e-12 * max(float(eigvals[-1]), 0.0):
        raise SingularInformation("per-step residual covariance E sigma_w E' is singular")
    z = np.hstack([data.measurements[:t_len], data.inputs])   # (T, n+m)
    theta_t, gram_inv, _ = _normal_equations(z, data.measurements[1: t_len + 1])
    theta_mat = theta_t.T                                     # [A_hat, B_hat]
    cov_theta = np.kron(gram_inv, s_w)
    return ParameterEstimate(
        k=1,
        structure=STRUCTURE_FULL,
        theta=vec(theta_mat),
        cov=0.5 * (cov_theta + cov_theta.T),
        n=n,
        m=m,
    )


def naive_ls(reg: RegressionProblem) -> ParameterEstimate:
    """Ordinary least squares ignoring residual correlation.

    The reported covariance is the classical (Phi' Phi)^{-1} scaled by the
    pooled residual variance; it carries no coverage guarantee and is
    intended as a diagnostic baseline only.
    """
    phi, y = np.ascontiguousarray(reg.regressor), np.ascontiguousarray(reg.targets)
    theta, info_inv, _ = _normal_equations(phi, y)
    resid = y - phi @ theta
    dof_resid = max(reg.rows - reg.dof, 1)
    noise_var = float(resid @ resid) / dof_resid
    cov_theta = noise_var * info_inv
    return ParameterEstimate(
        k=reg.k,
        structure=reg.structure,
        theta=theta,
        cov=0.5 * (cov_theta + cov_theta.T),
        n=reg.n,
        m=reg.m,
    )


def estimate_predictor(
    data: Trajectory,
    k: int,
    gw_k: np.ndarray,
    sigma_w: np.ndarray,
    sigma_eps: np.ndarray,
    structure: str = STRUCTURE_FULL,
    covariance: str = "oracle",
    g0_true: "np.ndarray | None" = None,
) -> ParameterEstimate:
    """Identify the k-step predictor with oracle or plug-in residual weighting.

    The disturbance map Gw_k together with sigma_w/sigma_eps is treated as
    known.  In "oracle" mode the residual covariance uses the supplied true
    G0_k (exact weighting); in "plugin" mode a preliminary unweighted fit
    supplies G0_k and one weighted refinement pass follows.
    """
    if covariance not in COVARIANCE_MODES:   # checked for FIR too, where it is unused
        raise DomainError(f"unknown covariance mode {covariance!r}")
    reg = build_regression(data, k, structure)
    if structure == STRUCTURE_FIR:
        g0_for_cov = np.zeros((data.n, data.n))
    elif covariance == "oracle":
        if g0_true is None:
            raise DomainError("oracle covariance mode needs the true G0_k")
        g0_for_cov = np.asarray(g0_true, dtype=float)
    else:
        g0_for_cov = naive_ls(reg).g0_hat()
    cov = residual_covariance(gw_k, g0_for_cov, sigma_w, sigma_eps, k, data.T)
    return mle_estimate(reg, cov)


def model_from_estimates(
    estimates: "list[ParameterEstimate]",
    gw: "list[np.ndarray]",
    sigma_w: np.ndarray,
) -> MultiStepModel:
    """Assemble a multi-step model from per-step estimates and known Gw."""
    horizon = len(estimates)
    if len(gw) != horizon:
        raise DimensionMismatch("need one Gw per estimated step")
    g0 = [est.g0_hat() for est in estimates]
    gu = [est.gu_hat() for est in estimates]
    return MultiStepModel(
        horizon=horizon,
        g0=g0,
        gu=gu,
        gw=[np.asarray(g, dtype=float) for g in gw],
        sigma_w=np.asarray(sigma_w, dtype=float),
    )


# ---------------------------------------------------------------------------
# JSON-ready converters; cli writes the files
# ---------------------------------------------------------------------------


def estimate_to_json(est: ParameterEstimate, delta: float) -> dict:
    """``est`` with its covariance as ``cov_upper``, row i holding cov[i, i:].

    Raises :class:`NotSymmetric` unless cov equals its transpose bit for bit,
    so that the upper triangle holds every number of it.
    """
    cov = np.asarray(est.cov, dtype=float)
    if not np.array_equal(cov.view(np.uint64), cov.T.view(np.uint64)):
        raise NotSymmetric("the estimate's covariance is not exactly symmetric")
    doc = {
        "k": est.k,
        "structure": est.structure,
        "theta_hat": est.theta.tolist(),
        "cov_upper": [row[i:] for i, row in enumerate(cov.tolist())],
        "dof": est.dof,
        "n": est.n,
        "m": est.m,
    }
    if est.projected_rank is not None:
        doc["projected_rank"] = est.projected_rank
    doc["delta"] = delta
    return doc


def estimate_from_json(doc: dict) -> ParameterEstimate:
    """Parse an estimate written by ``estimate_to_json``, its covariance bit for bit."""
    theta, upper = np.asarray(doc["theta_hat"], dtype=float), doc["cov_upper"]
    dof = theta.size
    if [len(row) for row in upper] != list(range(dof, 0, -1)):
        raise DimensionMismatch(f"cov_upper must hold rows of {dof}, {dof - 1}, ..., 1 entries")
    rows, cols = np.triu_indices(dof)
    values = np.array([value for row in upper for value in row], dtype=float)
    cov = np.empty((dof, dof))
    cov[rows, cols] = values
    cov[cols, rows] = values
    return ParameterEstimate(k=doc["k"], structure=doc["structure"], theta=theta, cov=cov,
                             n=doc["n"], m=doc["m"], projected_rank=doc.get("projected_rank"))


def estimate_health(est: ParameterEstimate, delta: float) -> dict:
    """How well one estimate is identified, without its parameters.

    ``projected_rank`` is the rank the singular residual covariance was
    projected to (None when the banded Cholesky ran),
    ``information_condition`` the condition number of the information
    matrix (None for an estimate not made by :func:`mle_estimate`),
    ``radius`` the ellipsoid radius at ``delta`` and ``sqrt_trace_cov`` =
    sqrt(tr cov), the root-mean-square size of the parameter error.
    """
    return {
        "k": est.k,
        "dof": est.dof,
        "projected_rank": est.projected_rank,
        "information_condition": est.information_condition,
        "radius": est.radius(delta),
        "sqrt_trace_cov": math.sqrt(max(float(np.trace(est.cov)), 0.0)),
    }

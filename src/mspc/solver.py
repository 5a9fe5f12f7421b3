"""Embedded solver for quadratic programs with linear and second-order cone rows.

A dense primal-dual interior-point method in the standard conic slack form

    minimize 0.5 z' P z + q' z   s.t.  G z + s = h,  s in K,

with K a product of a nonnegative orthant and second-order cones.  Scaling
uses the Nesterov-Todd point per cone block, steps use a Mehrotra
predictor-corrector, and the (small, dense) reduced KKT system is solved by
Cholesky.  Purely linear programs get an active-set polish solve at the end,
which pins the primal down to machine precision on nondegenerate problems.

The module is deliberately self-contained so that an external solver can be
substituted: any callable with the ``solve(prog, opts)`` signature returning
a :class:`Solution` satisfies the backend contract.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch
from .ocp import ConicProgram, SocRow

_DIVERGENCE_THRESHOLD = 1e8


@dataclass(frozen=True)
class SolverOptions:
    max_iterations: int = 200
    gap_tolerance: float = 1e-9
    feasibility_tolerance: float = 1e-9
    step_fraction: float = 0.99
    polish: bool = True
    init_margin: float = 1.0   # inflation of the initial cone point (internal)

    def __post_init__(self):
        if not (0.0 < self.step_fraction < 1.0):
            raise ValueError("step_fraction must lie in (0, 1)")
        if self.gap_tolerance <= 0 or self.feasibility_tolerance <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class KktResiduals:
    stationarity: float
    primal: float
    complementarity: float

    def max(self) -> float:
        return max(self.stationarity, self.primal, self.complementarity)


@dataclass
class Solution:
    status: str                      # Optimal | Infeasible | IterationLimit | NumericalFailure
    primal: "np.ndarray | None"
    objective: "float | None"
    dual_lin: "np.ndarray | None" = None
    dual_soc: "list[np.ndarray]" = field(default_factory=list)
    kkt: "KktResiduals | None" = None
    iterations: int = 0
    gap: "float | None" = None


# ---------------------------------------------------------------------------
# Cone bookkeeping
# ---------------------------------------------------------------------------


class _Cone:
    """Product of an orthant of size l and second-order cones of given sizes."""

    def __init__(self, l: int, soc_sizes: "list[int]"):
        self.l = l
        self.soc_sizes = soc_sizes
        self.dim = l + sum(soc_sizes)
        self.degree = l + len(soc_sizes)
        self._starts = []
        off = l
        for p in soc_sizes:
            self._starts.append(off)
            off += p

    def blocks(self, v: np.ndarray):
        for start, size in zip(self._starts, self.soc_sizes):
            yield v[start: start + size]

    def unit(self) -> np.ndarray:
        e = np.zeros(self.dim)
        e[: self.l] = 1.0
        for start in self._starts:
            e[start] = 1.0
        return e

    def interior_violation(self, v: np.ndarray) -> float:
        """How far v is from the cone interior (positive means outside)."""
        worst = -math.inf
        if self.l:
            worst = max(worst, float(-np.min(v[: self.l])))
        for blk in self.blocks(v):
            worst = max(worst, float(np.linalg.norm(blk[1:]) - blk[0]))
        return worst if worst != -math.inf else -1.0

    def max_step(self, v: np.ndarray, dv: np.ndarray) -> float:
        """Largest alpha with v + alpha dv still in the cone (v inside)."""
        alpha = math.inf
        if self.l:
            neg = dv[: self.l] < 0
            if np.any(neg):
                alpha = float(np.min(-v[: self.l][neg] / dv[: self.l][neg]))
        for start, size in zip(self._starts, self.soc_sizes):
            u, du = v[start: start + size], dv[start: start + size]
            alpha = min(alpha, _soc_max_step(u, du))
        return alpha


def _soc_max_step(u: np.ndarray, du: np.ndarray) -> float:
    """Largest step keeping u + alpha du inside one second-order cone."""
    scale = float(np.abs(du).max(initial=0.0))
    if scale == 0.0:
        return math.inf
    if scale > 1e50 or scale < 1e-50:
        # The step length is positively homogeneous of degree -1 in du.
        return _soc_max_step(u, du / scale) / scale
    a = du[0] ** 2 - float(du[1:] @ du[1:])
    b = 2.0 * (u[0] * du[0] - float(u[1:] @ du[1:]))
    c = max(u[0] ** 2 - float(u[1:] @ u[1:]), 0.0)
    roots = []
    if abs(a) < 1e-300:
        if b < 0:
            roots.append(-c / b)
    else:
        disc = b * b - 4.0 * a * c
        if disc >= 0.0:
            sq = math.sqrt(disc)
            for r in ((-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)):
                if r > 0:
                    roots.append(r)
    alpha = min(roots) if roots else math.inf
    if du[0] < 0:
        alpha = min(alpha, -u[0] / du[0])
    return alpha


class _Scaling:
    """Nesterov-Todd scaling for the current primal/dual cone pair."""

    def __init__(self, cone: _Cone, s: np.ndarray, z: np.ndarray):
        self.cone = cone
        self.w_lin = np.sqrt(s[: cone.l] / z[: cone.l]) if cone.l else np.zeros(0)
        self.soc = []
        for start, size in zip(cone._starts, cone.soc_sizes):
            sb, zb = s[start: start + size], z[start: start + size]
            rs = math.sqrt(max(sb[0] ** 2 - float(sb[1:] @ sb[1:]), 1e-300))
            rz = math.sqrt(max(zb[0] ** 2 - float(zb[1:] @ zb[1:]), 1e-300))
            s_bar, z_bar = sb / rs, zb / rz
            gamma = math.sqrt(max((1.0 + float(s_bar @ z_bar)) / 2.0, 1e-300))
            w_bar = s_bar.copy()
            w_bar[0] += z_bar[0]
            w_bar[1:] -= z_bar[1:]
            w_bar /= 2.0 * gamma
            # W must square to the quadratic representation at the scaling
            # point, so it is built from the Jordan square root of w_bar.
            v = np.empty(size)
            v[0] = math.sqrt((w_bar[0] + 1.0) / 2.0)
            v[1:] = w_bar[1:] / (2.0 * v[0])
            eta = math.sqrt(rs / rz)
            jmat = np.diag(np.concatenate([[1.0], -np.ones(size - 1)]))
            w_mat = eta * (2.0 * np.outer(v, v) - jmat)
            jv = jmat @ v
            w_inv = (2.0 * np.outer(jv, jv) - jmat) / eta
            self.soc.append((w_mat, w_inv))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """W v."""
        out = np.empty_like(v)
        out[: self.cone.l] = self.w_lin * v[: self.cone.l]
        for (w_mat, _), start, size in zip(self.soc, self.cone._starts, self.cone.soc_sizes):
            out[start: start + size] = w_mat @ v[start: start + size]
        return out

    def apply_inv(self, v: np.ndarray) -> np.ndarray:
        """W^{-1} v."""
        out = np.empty_like(v)
        out[: self.cone.l] = v[: self.cone.l] / self.w_lin
        for (_, w_inv), start, size in zip(self.soc, self.cone._starts, self.cone.soc_sizes):
            out[start: start + size] = w_inv @ v[start: start + size]
        return out

    def inv2_matrix(self, g: np.ndarray) -> np.ndarray:
        """W^{-2} G, applied blockwise to the rows of G."""
        out = np.empty_like(g)
        if self.cone.l:
            out[: self.cone.l] = g[: self.cone.l] / (self.w_lin**2)[:, None]
        for (_, w_inv), start, size in zip(self.soc, self.cone._starts, self.cone.soc_sizes):
            out[start: start + size] = w_inv @ (w_inv @ g[start: start + size])
        return out


def _jordan_square(cone: _Cone, v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    out[: cone.l] = v[: cone.l] ** 2
    for start, size in zip(cone._starts, cone.soc_sizes):
        blk = v[start: start + size]
        out[start] = float(blk @ blk)
        out[start + 1: start + size] = 2.0 * blk[0] * blk[1:]
    return out


def _jordan_product(cone: _Cone, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = np.empty_like(u)
    out[: cone.l] = u[: cone.l] * v[: cone.l]
    for start, size in zip(cone._starts, cone.soc_sizes):
        ub, vb = u[start: start + size], v[start: start + size]
        out[start] = float(ub @ vb)
        out[start + 1: start + size] = ub[0] * vb[1:] + vb[0] * ub[1:]
    return out


def _jordan_solve(cone: _Cone, anchor: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve anchor o x = d for x (arrow-matrix inverse per block)."""
    out = np.empty_like(d)
    out[: cone.l] = d[: cone.l] / anchor[: cone.l]
    for start, size in zip(cone._starts, cone.soc_sizes):
        ab, db = anchor[start: start + size], d[start: start + size]
        det = ab[0] ** 2 - float(ab[1:] @ ab[1:])
        if det <= 0.0 or ab[0] <= 0.0:
            raise ValueError("scaled point left the cone interior")
        x0 = (ab[0] * db[0] - float(ab[1:] @ db[1:])) / det
        out[start] = x0
        out[start + 1: start + size] = (db[1:] - x0 * ab[1:]) / ab[0]
    return out


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------


@dataclass
class _Canonical:
    p_mat: np.ndarray
    q_vec: np.ndarray
    g_mat: np.ndarray
    h_vec: np.ndarray
    cone: _Cone
    n_lin_orig: int
    soc_map: list     # per original SOC row: ("soc", block_idx) or ("lin", row_idx)


def _canonicalize(prog: ConicProgram) -> _Canonical:
    prog.check_shapes()
    d = prog.dim
    lin_a = [np.asarray(prog.lin_a, dtype=float).reshape(-1, d)]
    lin_b = [np.asarray(prog.lin_b, dtype=float).ravel()]
    n_lin = prog.lin_b.size
    soc_rows: list[SocRow] = []
    soc_map = []
    for row in prog.soc_rows:
        if row.f_mat.size == 0 or not np.any(row.f_mat):
            # Constant norm argument: the row degrades to a linear one.
            lin_a.append(-row.c_vec[None, :])
            lin_b.append(np.asarray([row.d_off - float(np.linalg.norm(row.g_vec))]))
            soc_map.append(("lin", n_lin))
            n_lin += 1
        else:
            soc_map.append(("soc", len(soc_rows)))
            soc_rows.append(row)
    g_parts = [np.vstack(lin_a)]
    h_parts = [np.concatenate(lin_b)]
    soc_sizes = []
    for row in soc_rows:
        g_parts.append(np.vstack([-row.c_vec[None, :], -row.f_mat]))
        h_parts.append(np.concatenate([[row.d_off], row.g_vec]))
        soc_sizes.append(1 + row.f_mat.shape[0])
    return _Canonical(
        p_mat=0.5 * (prog.p_mat + prog.p_mat.T),
        q_vec=np.asarray(prog.q_vec, dtype=float).ravel(),
        g_mat=np.vstack(g_parts),
        h_vec=np.concatenate(h_parts),
        cone=_Cone(n_lin, soc_sizes),
        n_lin_orig=prog.lin_b.size,
        soc_map=soc_map,
    )


def _factor_reduced(p_mat: np.ndarray, gw: np.ndarray, g_mat: np.ndarray):
    """Cholesky of P + G' W^{-2} G with escalating regularization."""
    k_mat = p_mat + g_mat.T @ gw
    k_mat = 0.5 * (k_mat + k_mat.T)
    for reg in (0.0, 1e-14, 1e-12, 1e-10, 1e-8):
        try:
            shifted = k_mat + reg * np.eye(k_mat.shape[0]) * max(1.0, np.trace(k_mat))
            return scipy.linalg.cho_factor(shifted)
        except scipy.linalg.LinAlgError:
            continue
    raise scipy.linalg.LinAlgError("reduced KKT matrix could not be factorized")


# ---------------------------------------------------------------------------
# Main entry points
# ---------------------------------------------------------------------------


def solve(prog: ConicProgram, opts: "SolverOptions | None" = None) -> Solution:
    """Solve the program; deterministic for fixed inputs (no randomization)."""
    opts = opts or SolverOptions()
    canon = _canonicalize(prog)
    if canon.cone.dim == 0:
        return _solve_unconstrained(prog, canon)
    sol = _interior_point(prog, canon, opts)
    if (
        opts.polish
        and sol.status == "Optimal"
        and not canon.cone.soc_sizes
        and sol.primal is not None
    ):
        polished = _polish_linear(prog, canon, sol, opts)
        if polished is not None:
            sol = polished
    if sol.primal is not None:
        sol.kkt = check_kkt(prog, sol)
        if sol.status == "Optimal" and not _kkt_acceptable(prog, sol, opts):
            sol.status = "IterationLimit"
    return sol


def _kkt_acceptable(prog: ConicProgram, sol: Solution, opts: SolverOptions) -> bool:
    scale_d = max(1.0, float(np.abs(prog.q_vec).max(initial=0.0)))
    scale_p = max(1.0, float(np.abs(prog.lin_b).max(initial=0.0)))
    obj_scale = max(1.0, abs(sol.objective or 0.0))
    kkt = sol.kkt
    return (
        kkt.stationarity <= 10.0 * opts.feasibility_tolerance * scale_d
        and kkt.primal <= 10.0 * opts.feasibility_tolerance * scale_p
        and kkt.complementarity <= 10.0 * opts.gap_tolerance * obj_scale
    )


def _solve_unconstrained(prog: ConicProgram, canon: _Canonical) -> Solution:
    p_mat, q_vec = canon.p_mat, canon.q_vec
    if not np.any(p_mat):
        if np.any(q_vec):
            return Solution(status="NumericalFailure", primal=None, objective=None)
        z = np.zeros(prog.dim)
    else:
        try:
            z = scipy.linalg.cho_solve(scipy.linalg.cho_factor(p_mat), -q_vec)
        except scipy.linalg.LinAlgError:
            z, *_ = np.linalg.lstsq(p_mat, -q_vec, rcond=None)
            if float(np.linalg.norm(p_mat @ z + q_vec)) > 1e-8 * max(
                1.0, float(np.linalg.norm(q_vec))
            ):
                return Solution(status="NumericalFailure", primal=None, objective=None)
    sol = Solution(
        status="Optimal",
        primal=z,
        objective=prog.objective(z),
        dual_lin=np.zeros(0),
        dual_soc=[],
        gap=0.0,
    )
    sol.kkt = check_kkt(prog, sol)
    return sol


def _interior_point(prog: ConicProgram, canon: _Canonical, opts: SolverOptions) -> Solution:
    p_mat, q_vec = canon.p_mat, canon.q_vec
    g_mat, h_vec = canon.g_mat, canon.h_vec
    cone = canon.cone
    d = q_vec.size

    # Initial point: solve the KKT system with identity scaling, then push
    # the slack/dual blocks into the cone interior.
    try:
        k0 = scipy.linalg.cho_factor(
            p_mat + g_mat.T @ g_mat + 1e-12 * np.eye(d), lower=True
        )
    except scipy.linalg.LinAlgError:
        return Solution(status="NumericalFailure", primal=None, objective=None)
    z = scipy.linalg.cho_solve(k0, -q_vec + g_mat.T @ h_vec)
    resid = g_mat @ z - h_vec
    s = -resid.copy()
    lam = resid.copy()
    e = cone.unit()
    margin = max(opts.init_margin, 1e-3)
    shift_p = cone.interior_violation(s)
    s = s + (max(0.0, 1.0 + shift_p) + (margin - 1.0)) * e
    shift_d = cone.interior_violation(lam)
    lam = lam + (max(0.0, 1.0 + shift_d) + (margin - 1.0)) * e
    if cone.interior_violation(s) >= 0 or cone.interior_violation(lam) >= 0:
        s = e.copy()
        lam = e.copy()

    scale_p = max(1.0, float(np.abs(h_vec).max(initial=0.0)))
    scale_d = max(1.0, float(np.abs(q_vec).max(initial=0.0)))
    status = "IterationLimit"
    iterations = 0
    best = None          # (score, z, s, lam, gap)
    best_score = math.inf
    stalls = 0

    for it in range(opts.max_iterations):
        iterations = it + 1
        rx = p_mat @ z + q_vec + g_mat.T @ lam
        rz = g_mat @ z + s - h_vec
        gap = float(s @ lam)
        mu = gap / cone.degree
        pobj = float(0.5 * z @ p_mat @ z + q_vec @ z) + prog.constant

        if not np.all(np.isfinite(z)) or not math.isfinite(gap):
            status = "NumericalFailure"
            break
        pres = float(np.abs(rz).max(initial=0.0))
        dres = float(np.abs(rx).max(initial=0.0))
        score = max(
            pres / (opts.feasibility_tolerance * scale_p),
            dres / (opts.feasibility_tolerance * scale_d),
            gap / (opts.gap_tolerance * max(1.0, abs(pobj))),
        )
        if score < best_score:
            best_score = score
            best = (z.copy(), s.copy(), lam.copy(), gap)
        if score <= 1.0:
            status = "Optimal"
            break

        if max(np.abs(lam).max(initial=0.0), np.abs(s).max(initial=0.0)) > _DIVERGENCE_THRESHOLD:
            status = _classify_divergence(g_mat, h_vec, lam)
            break

        try:
            scaling = _Scaling(cone, s, lam)
            gw = scaling.inv2_matrix(g_mat)
            factor = _factor_reduced(p_mat, gw, g_mat)
        except (scipy.linalg.LinAlgError, FloatingPointError, ValueError):
            break

        zeta = scaling.apply(lam)

        def newton(bx, bz):
            dz = scipy.linalg.cho_solve(factor, bx + gw.T @ bz)
            dlam = scaling.inv2_matrix((g_mat @ dz - bz)[:, None]).ravel()
            # Iterative refinement on the full block system keeps both the
            # primal and the dual equations accurate as scaling degenerates.
            for _ in range(2):
                r1 = bx - (p_mat @ dz + g_mat.T @ dlam)
                r2 = bz - (g_mat @ dz - scaling.apply(scaling.apply(dlam)))
                cz = scipy.linalg.cho_solve(factor, r1 + gw.T @ r2)
                clam = scaling.inv2_matrix((g_mat @ cz - r2)[:, None]).ravel()
                dz = dz + cz
                dlam = dlam + clam
            ds = -rz - g_mat @ dz
            return dz, dlam, ds

        try:
            # Affine (predictor) direction.
            dz_a, dlam_a, ds_a = newton(-rx, -rz + s)
            alpha_a = min(1.0, cone.max_step(s, ds_a), cone.max_step(lam, dlam_a))
            mu_aff = float((s + alpha_a * ds_a) @ (lam + alpha_a * dlam_a)) / cone.degree
            ratio = min(max(mu_aff / mu, 0.0), 1.0) if mu > 0 else 0.0
            sigma = ratio**3

            # Corrector direction.
            correction = _jordan_product(
                cone, scaling.apply_inv(ds_a), scaling.apply(dlam_a)
            )
            d_vec = sigma * mu * e - _jordan_square(cone, zeta) - correction
            d_tilde = _jordan_solve(cone, zeta, d_vec)
            dz, dlam, ds = newton(-rx, -rz - scaling.apply(d_tilde))
        except (scipy.linalg.LinAlgError, ValueError, FloatingPointError):
            break
        alpha = min(
            1.0,
            opts.step_fraction * cone.max_step(s, ds),
            opts.step_fraction * cone.max_step(lam, dlam),
        )
        if not math.isfinite(alpha) or alpha <= 0.0:
            break
        stalls = stalls + 1 if alpha < 1e-7 else 0
        if stalls >= 3:
            break
        z = z + alpha * dz
        s = s + alpha * ds
        lam = lam + alpha * dlam

    if status == "NumericalFailure" and best is None:
        return Solution(status=status, primal=None, objective=None, iterations=iterations)
    if status == "Infeasible":
        return Solution(status=status, primal=None, objective=None, iterations=iterations)

    if status != "Optimal" and best is not None:
        # Stalled or hit the limit: restore the best iterate seen and accept
        # it as Optimal only within the 10x contract on the residuals.
        z, s, lam, gap = best
        status = "Optimal" if best_score <= 10.0 else "IterationLimit"
    else:
        gap = float(s @ lam)
    dual_lin, dual_soc = _split_duals(canon, lam)
    return Solution(
        status=status,
        primal=z,
        objective=prog.objective(z),
        dual_lin=dual_lin,
        dual_soc=dual_soc,
        iterations=iterations,
        gap=gap,
    )


def _classify_divergence(g_mat: np.ndarray, h_vec: np.ndarray, lam: np.ndarray) -> str:
    """Diverging duals signal infeasibility when they form a Farkas certificate."""
    scale = float(np.linalg.norm(lam))
    if scale <= 0:
        return "NumericalFailure"
    lam_hat = lam / scale
    if (
        float(h_vec @ lam_hat) < -1e-8
        and float(np.abs(g_mat.T @ lam_hat).max(initial=0.0)) <= 1e-6
    ):
        return "Infeasible"
    return "NumericalFailure"


def _split_duals(canon: _Canonical, lam: np.ndarray):
    """Map the concatenated dual back onto the original program rows."""
    n_lin_orig = canon.n_lin_orig
    dual_lin = lam[:n_lin_orig].copy()
    dual_soc = []
    for kind, idx in canon.soc_map:
        if kind == "soc":
            start = canon.cone._starts[idx]
            size = canon.cone.soc_sizes[idx]
            dual_soc.append(lam[start: start + size].copy())
        else:
            # Presolved to a linear row: reconstruct the conic dual.
            nu = float(lam[idx])
            dual_soc.append(np.asarray([nu]))
    return dual_lin, dual_soc


def _polish_linear(
    prog: ConicProgram, canon: _Canonical, sol: Solution, opts: SolverOptions
) -> "Solution | None":
    """Re-solve on the detected active set; exact for nondegenerate QPs."""
    z = sol.primal
    lam = np.concatenate([sol.dual_lin, *[d for d in sol.dual_soc]]) if sol.dual_soc else sol.dual_lin
    g_mat, h_vec = canon.g_mat, canon.h_vec
    slack = h_vec - g_mat @ z
    active = np.where(lam > slack)[0]
    a_act = g_mat[active]
    d = z.size
    kkt = np.zeros((d + active.size, d + active.size))
    kkt[:d, :d] = canon.p_mat
    kkt[:d, d:] = a_act.T
    kkt[d:, :d] = a_act
    rhs = np.concatenate([-canon.q_vec, h_vec[active]])
    try:
        sol_vec = scipy.linalg.solve(kkt, rhs, assume_a="sym")
    except (scipy.linalg.LinAlgError, ValueError):
        sol_vec, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    z_new = sol_vec[:d]
    nu = sol_vec[d:]
    tol = 10.0 * opts.feasibility_tolerance * max(1.0, float(np.abs(h_vec).max(initial=0.0)))
    feasible = bool(np.all(g_mat @ z_new <= h_vec + tol))
    multipliers_ok = bool(np.all(nu >= -1e-7))
    better = prog.objective(z_new) <= prog.objective(z) + 1e-9 * max(1.0, abs(sol.objective or 1.0))
    if not (feasible and multipliers_ok and better and np.all(np.isfinite(z_new))):
        return None
    dual = np.zeros(g_mat.shape[0])
    dual[active] = np.maximum(nu, 0.0)
    dual_lin, dual_soc = _split_duals(canon, dual)
    return Solution(
        status="Optimal",
        primal=z_new,
        objective=prog.objective(z_new),
        dual_lin=dual_lin,
        dual_soc=dual_soc,
        iterations=sol.iterations,
        gap=float(abs(nu @ (h_vec[active] - a_act @ z_new))),
    )


def check_kkt(prog: ConicProgram, sol: Solution) -> KktResiduals:
    """Stationarity, primal violation, and complementarity of a solution."""
    if sol.primal is None:
        raise DimensionMismatch("solution has no primal point")
    z = np.asarray(sol.primal, dtype=float).ravel()
    if z.size != prog.dim:
        raise DimensionMismatch("solution dimension does not match the program")
    dual_lin = sol.dual_lin if sol.dual_lin is not None else np.zeros(prog.lin_b.size)
    if dual_lin.size != prog.lin_b.size:
        raise DimensionMismatch("linear dual has the wrong length")

    grad = prog.p_mat @ z + prog.q_vec
    primal = 0.0
    comp = 0.0
    if prog.lin_b.size:
        slack = prog.lin_b - prog.lin_a @ z
        grad = grad + prog.lin_a.T @ dual_lin
        primal = max(primal, float(np.max(-slack, initial=0.0)))
        comp = max(comp, float(np.abs(dual_lin * slack).max(initial=0.0)))
    for row, dual in zip(prog.soc_rows, sol.dual_soc or [None] * len(prog.soc_rows)):
        resid = row.f_mat @ z + row.g_vec if row.f_mat.size else row.g_vec
        lhs = float(np.linalg.norm(resid))
        rhs = float(row.c_vec @ z + row.d_off)
        primal = max(primal, lhs - rhs)
        if dual is None or dual.size == 0:
            continue
        lam0 = float(dual[0])
        lam1 = dual[1:] if dual.size > 1 else np.zeros(row.f_mat.shape[0])
        if dual.size == 1 and lhs > 0:
            # Dual reconstructed from a presolved (constant-norm) row.
            lam1 = -lam0 * resid / max(lhs, 1e-300)
        grad = grad - row.c_vec * lam0 - (row.f_mat.T @ lam1 if row.f_mat.size else 0.0)
        comp = max(comp, abs(rhs * lam0 + float(resid @ lam1)))
    return KktResiduals(
        stationarity=float(np.abs(grad).max(initial=0.0)),
        primal=max(primal, 0.0),
        complementarity=comp,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def solution_to_json(sol: Solution) -> dict:
    doc = {
        "status": sol.status,
        "primal": None if sol.primal is None else sol.primal.tolist(),
        "objective": sol.objective,
        "iterations": sol.iterations,
        "gap": sol.gap,
    }
    if sol.kkt is not None:
        doc["kkt"] = {
            "stationarity": sol.kkt.stationarity,
            "primal": sol.kkt.primal,
            "complementarity": sol.kkt.complementarity,
        }
    if sol.dual_lin is not None:
        doc["dual_lin"] = sol.dual_lin.tolist()
        doc["dual_soc"] = [d.tolist() for d in sol.dual_soc]
    return doc


def save_solution(sol: Solution, path: "str | Path") -> None:
    Path(path).write_text(json.dumps(solution_to_json(sol), indent=2) + "\n")


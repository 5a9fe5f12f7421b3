"""Embedded solver for quadratic programs with linear and second-order cone rows.

A dense primal-dual interior-point method in the standard conic slack form

    minimize 0.5 z' P z + q' z   s.t.  G z + s = h,  s in K,

with K a product of a nonnegative orthant and second-order cones.  Scaling
uses the Nesterov-Todd point per cone block, stored as rank-one factors per
block so that every cone operation is one array pass over all blocks.  Steps
use a Mehrotra predictor-corrector, and the (small, dense) reduced KKT system
is assembled from the factors and solved by Cholesky, through the inverse
factor of :func:`~mspc.linalg.inverse_cholesky_factor`.  Purely linear programs
get an active-set polish solve at the end, which pins the primal down to
machine precision on nondegenerate problems; a singular active set keeps the
interior-point solution.  Cone rows are solved as written, F = 0 included:
:mod:`mspc.ocp` alone decides which rows are cones.  The tolerances are fixed;
``SolverOptions`` holds the iteration cap alone.

The interior point returns the iterate it stopped at, under the status of
the exit it took:

- the scaled residuals and gap within the tolerances: Optimal;
- diverging iterates: Infeasible when the normalized dual is a Farkas
  certificate, else NumericalFailure, with no primal either way;
- a non-finite iterate: NumericalFailure, with no primal;
- a failed factorization or Newton solve (the reduced KKT matrix is
  factorized unshifted), a non-finite or zero step, three stalled steps, or
  the iteration cap: IterationLimit, with the last iterate, which is finite.

An Optimal outside the KKT residual contract (``_kkt_acceptable``) becomes
IterationLimit.  A program without rows is one Cholesky solve of P z = -q,
NumericalFailure when P is not positive definite.

Every program is solved by constraint generation (a cutting-set method,
Mutapcic & Boyd 2009) from its start set (``ConicProgram.start_set``, by
default no rows): solve the working set, evaluate every dropped row at its
solution, add every violated linear row and the most violated cone row, and
solve again until no dropped row is violated by more than the feasibility
tolerance.  A working set without rows takes one Cholesky solve and no
interior-point iteration.  The working set is a relaxation, so its solution
is then optimal for the full program; it is returned with zero duals on the
dropped rows and checked against the full program.  An Infeasible round
makes the full program Infeasible; any other round that is not Optimal is
followed by one solve of the full program (``fallback``), unless it spent
``SolverOptions.max_iterations``, the cap on all rounds together.  The
solver reads the program's own G and h (``ConicProgram``), and each round
solves their rows under the working set's masks (``_Canonical.restrict``), so
the dropped rows' violations, the KKT residuals (``_kkt``) and the full duals
are one array pass each over the program's rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatch, DomainError
from .linalg import inverse_cholesky_factor
from .ocp import ConicProgram

_DIVERGENCE_THRESHOLD = 1e8
_FARKAS_CONE_TOLERANCE = 1e-9
_FEASIBILITY_TOLERANCE = 1e-9   # relative to the largest |h| (primal) or |q| (dual)
_GAP_TOLERANCE = 1e-9           # relative to the objective
_STEP_FRACTION = 0.99       # share of the step to the cone boundary that is taken


@dataclass(frozen=True)
class SolverOptions:
    max_iterations: int = 200   # cap on the interior-point iterations of all rounds together

    def __post_init__(self):
        n = self.max_iterations
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise DomainError(f"max_iterations must be an integer >= 0, got {n!r}")


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
    iterations: int = 0              # summed over rounds
    gap: "float | None" = None
    rounds: int = 1                  # working-set solves behind this solution, fallback included
    working_set: "tuple[int, int]" = (0, 0)   # (linear, cone) rows of the last solve
    fallback: bool = False           # a working-set round failed; the full program was solved


# ---------------------------------------------------------------------------
# Cone bookkeeping
# ---------------------------------------------------------------------------


class _Cone:
    """Product of an orthant of size l and second-order cones of given sizes.

    The cone blocks are handled all at once as a zero-padded (blocks x max
    size) array; the padding stays zero under every arrow operation below.
    """

    def __init__(self, l: int, soc_sizes: "list[int]"):
        self.l = l
        self.soc_sizes = soc_sizes
        self.dim = l + sum(soc_sizes)
        self.degree = l + len(soc_sizes)
        sizes = np.asarray(soc_sizes, dtype=int)
        self._starts = l + np.cumsum(sizes) - sizes
        cols = np.arange(sizes.max(initial=1))
        self._mask = cols < sizes[:, None]
        # Padding entries gather from one zero appended past the last row.
        self._index = np.where(self._mask, self._starts[:, None] + cols, self.dim)
        self.jmask = np.where(cols == 0, 1.0, -1.0) * self._mask   # J per padded block

    def split(self, v: np.ndarray):
        """Orthant part and padded SOC blocks of a vector (or of the rows of a matrix)."""
        padded = np.concatenate([v, np.zeros((1,) + v.shape[1:])])
        return v[: self.l], padded[self._index]

    def join(self, lin: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        return np.concatenate([lin, blocks[self._mask]])

    def unit(self) -> np.ndarray:
        e = np.zeros(self.dim)
        e[: self.l] = 1.0
        e[self._starts] = 1.0
        return e

    def violations(self, v: np.ndarray):
        """How far each orthant row and each cone block of v is outside (positive means outside)."""
        lin, blk = self.split(v)
        return -lin, np.linalg.norm(blk[:, 1:], axis=1) - blk[:, 0]

    def interior_violation(self, v: np.ndarray) -> float:
        """How far v is from the cone interior (positive means outside)."""
        worst = np.concatenate(self.violations(v))
        return float(worst.max()) if worst.size else -1.0

    def max_step(self, v: np.ndarray, dv: np.ndarray) -> float:
        """Largest alpha with v + alpha dv still in the cone (v inside)."""
        lin, blk = self.split(v)
        dlin, dblk = self.split(dv)
        ratios = -lin[dlin < 0] / dlin[dlin < 0]
        steps = _soc_max_step(blk, dblk) if len(blk) else ()
        return float(np.concatenate([ratios, steps]).min(initial=math.inf))


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise inner products of two block arrays."""
    return np.einsum("bi,bi->b", x, y)


def _soc_max_step(u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Largest step keeping each block u + alpha du inside its second-order cone."""
    scale = np.abs(du).max(axis=1, initial=0.0)
    # The step length is positively homogeneous of degree -1 in du, so blocks
    # with an extreme du are solved at unit scale and scaled back.
    extreme = (scale > 1e50) | ((scale < 1e-50) & (scale > 0.0))
    rescale = np.where(extreme, scale, 1.0)
    du = du / rescale[:, None]
    a = du[:, 0] ** 2 - _dot(du[:, 1:], du[:, 1:])
    b = 2.0 * (u[:, 0] * du[:, 0] - _dot(u[:, 1:], du[:, 1:]))
    c = np.maximum(u[:, 0] ** 2 - _dot(u[:, 1:], u[:, 1:]), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(b * b - 4.0 * a * c)   # NaN when no real root
        roots = np.stack([(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)])
        alpha = np.where(roots > 0, roots, math.inf).min(axis=0)
        alpha = np.where(np.abs(a) < 1e-300, np.where(b < 0, -c / b, math.inf), alpha)
        alpha = np.where(du[:, 0] < 0, np.minimum(alpha, -u[:, 0] / du[:, 0]), alpha)
    return alpha / rescale   # a zero du has a = b = 0: no root, no bound


class _Scaling:
    """Nesterov-Todd scaling for the current primal/dual cone pair.

    The orthant part is diagonal.  Each SOC block is stored as rank-one
    factors: W = eta (2 v v' - J), W^{-1} = (2 Jv (Jv)' - J) / eta and
    W^{-2} = (2 Jw (Jw)' - J) / eta^2, where w is the normalized scaling
    point and v its Jordan square root.
    """

    def __init__(self, cone: _Cone, s: np.ndarray, z: np.ndarray):
        self.cone = cone
        s_lin, sb = cone.split(s)
        z_lin, zb = cone.split(z)
        self.w_lin = np.sqrt(s_lin / z_lin)
        rs = np.sqrt(np.maximum(sb[:, 0] ** 2 - _dot(sb[:, 1:], sb[:, 1:]), 1e-300))
        rz = np.sqrt(np.maximum(zb[:, 0] ** 2 - _dot(zb[:, 1:], zb[:, 1:]), 1e-300))
        s_bar, z_bar = sb / rs[:, None], zb / rz[:, None]
        gamma = np.sqrt(np.maximum((1.0 + _dot(s_bar, z_bar)) / 2.0, 1e-300))
        w_bar = (s_bar + cone.jmask * z_bar) / (2.0 * gamma)[:, None]
        # W must square to the quadratic representation at the scaling
        # point, so it is built from the Jordan square root of w_bar.
        v0 = np.sqrt((w_bar[:, 0] + 1.0) / 2.0)
        self.v = w_bar / (2.0 * v0)[:, None]
        self.v[:, 0] = v0
        self.eta = np.sqrt(rs / rz)
        self.jv = cone.jmask * self.v
        self.jw = cone.jmask * w_bar

    def _arrow(self, x: np.ndarray, lin_scale, scale, vec) -> np.ndarray:
        """Diagonal on the orthant; scale (2 vec vec' - J) on every block at once."""
        if not self.cone.soc_sizes:   # the block pass's fixed cost would dominate
            return lin_scale * x
        lin, blk = self.cone.split(x)
        blk = scale[:, None] * (2.0 * vec * _dot(vec, blk)[:, None] - self.cone.jmask * blk)
        return self.cone.join(lin_scale * lin, blk)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """W x."""
        return self._arrow(x, self.w_lin, self.eta, self.v)

    def apply_inv(self, x: np.ndarray) -> np.ndarray:
        """W^{-1} x."""
        return self._arrow(x, 1.0 / self.w_lin, 1.0 / self.eta, self.jv)

    def apply_inv2(self, x: np.ndarray) -> np.ndarray:
        """W^{-2} x."""
        return self._arrow(x, self.w_lin**-2, self.eta**-2, self.jw)

    def reduced_kkt(self, p_mat: np.ndarray, g_lin: np.ndarray, g_blk: np.ndarray,
                    gjg: np.ndarray) -> np.ndarray:
        """P + G' W^{-2} G from the factors; gjg[b] = G_b' J G_b is fixed per solve."""
        g_scaled = g_lin / self.w_lin[:, None]
        a = np.einsum("bmi,bm->bi", g_blk, self.jw) / self.eta[:, None]
        k_mat = p_mat + g_scaled.T @ g_scaled + 2.0 * a.T @ a
        k_mat -= np.tensordot(self.eta**-2, gjg, axes=1)
        return 0.5 * (k_mat + k_mat.T)


def _jordan_product(cone: _Cone, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    u_lin, ub = cone.split(u)
    v_lin, vb = cone.split(v)
    out = ub[:, :1] * vb + vb[:, :1] * ub
    out[:, 0] = _dot(ub, vb)
    return cone.join(u_lin * v_lin, out)


def _jordan_solve(cone: _Cone, anchor: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve anchor o x = d for x (arrow-matrix inverse per block)."""
    a_lin, ab = cone.split(anchor)
    d_lin, db = cone.split(d)
    det = ab[:, 0] ** 2 - _dot(ab[:, 1:], ab[:, 1:])
    if np.any((det <= 0.0) | (ab[:, 0] <= 0.0)):
        raise ValueError("scaled point left the cone interior")
    x0 = (ab[:, 0] * db[:, 0] - _dot(ab[:, 1:], db[:, 1:])) / det
    out = (db - x0[:, None] * ab) / ab[:, :1]
    out[:, 0] = x0
    return cone.join(d_lin / a_lin, out)


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

    def restrict(self, lin: np.ndarray, soc: np.ndarray) -> "tuple[_Canonical, np.ndarray]":
        """The masked linear and cone rows, in order, and the mask of their canonical rows."""
        keep = np.concatenate([lin, np.repeat(soc, self.cone.soc_sizes)])
        cone = _Cone(int(lin.sum()), np.asarray(self.cone.soc_sizes, dtype=int)[soc].tolist())
        return replace(self, g_mat=self.g_mat[keep], h_vec=self.h_vec[keep], cone=cone), keep


def _canonicalize(prog: ConicProgram) -> _Canonical:
    """The symmetrized P beside the program's own q, G and h: no row is copied."""
    return _Canonical(p_mat=0.5 * (prog.p_mat + prog.p_mat.T), q_vec=prog.q_vec, g_mat=prog.g_mat,
                      h_vec=prog.h_vec, cone=_Cone(prog.linear_rows, prog.cone_sizes))


def _kkt_blocks(cone: _Cone, g_mat: np.ndarray):
    """Orthant rows, padded SOC rows and G_b' J G_b per block: fixed for one solve."""
    g_lin, g_blk = cone.split(g_mat)
    return g_lin, g_blk, np.einsum("bmi,bm,bmj->bij", g_blk, cone.jmask, g_blk)


def _factor_reduced(k_mat: np.ndarray) -> np.ndarray:
    """Inverse Cholesky factor of the reduced KKT matrix P + G' W^{-2} G, unshifted; a
    non-finite or not positive definite matrix raises ``np.linalg.LinAlgError``."""
    if not np.isfinite(k_mat).all():
        raise np.linalg.LinAlgError("reduced KKT matrix is not finite")
    return inverse_cholesky_factor(k_mat)


# ---------------------------------------------------------------------------
# Main entry points
# ---------------------------------------------------------------------------


def _solve_once(prog: ConicProgram, opts: SolverOptions,
                canon: "_Canonical | None" = None) -> Solution:
    """One solve of ``canon`` (all of ``prog`` by default): a round, the fallback or a reference."""
    canon = _canonicalize(prog) if canon is None else canon
    if canon.cone.dim == 0:
        sol = _solve_unconstrained(prog, canon)
    else:
        sol = _interior_point(prog, canon, opts)
        if sol.status == "Optimal" and not canon.cone.soc_sizes and sol.primal is not None:
            sol = _polish_linear(prog, canon, sol) or sol
        _certify(canon, sol)
    sol.working_set = (canon.cone.l, len(canon.cone.soc_sizes))
    return sol


def _certify(canon: _Canonical, sol: Solution) -> None:
    """KKT residuals on ``canon``; an Optimal status outside the contract becomes IterationLimit."""
    if sol.primal is not None:
        sol.kkt = _kkt(canon, sol.primal, np.concatenate([sol.dual_lin, *sol.dual_soc]))
        lin_b = canon.h_vec[: canon.cone.l]
        if sol.status == "Optimal" and not _within_contract(sol, canon.q_vec, lin_b):
            sol.status = "IterationLimit"


def solve(prog: ConicProgram, opts: "SolverOptions | None" = None) -> Solution:
    """Constraint generation from ``prog.start_set``; returns a solution of all of ``prog``."""
    opts = opts or SolverOptions()
    canon = _canonicalize(prog)
    lin, soc = np.zeros(prog.linear_rows, dtype=bool), np.zeros(len(prog.cone_sizes), dtype=bool)
    for index, mask in zip(prog.start_set, (lin, soc)):
        if np.any((index < 0) | (index >= mask.size)):
            raise DimensionMismatch("start set row index out of range")
        mask[index] = True
    tol = _FEASIBILITY_TOLERANCE * max(1.0, float(np.abs(prog.lin_b).max(initial=0.0)))
    rounds = iterations = 0
    while True:
        sub, keep = canon.restrict(lin, soc)
        sol = _solve_once(prog, replace(opts, max_iterations=opts.max_iterations - iterations), sub)
        rounds += 1
        iterations += sol.iterations
        spent = iterations >= opts.max_iterations   # the round's status then stands for prog
        # An Infeasible relaxation of prog makes prog Infeasible.
        if sol.status == "Infeasible" or (spent and sol.primal is None):
            return Solution(status=sol.status, primal=None, objective=None,
                            iterations=iterations, rounds=rounds, working_set=sol.working_set)
        if sol.status != "Optimal" and not spent:
            full = _solve_once(prog, replace(opts, max_iterations=opts.max_iterations - iterations),
                               canon)
            full.iterations += iterations
            full.rounds = rounds + 1
            full.fallback = True
            return full
        z = sol.primal
        lin_viol, soc_viol = canon.cone.violations(canon.h_vec - canon.g_mat @ z)
        lin_new = ~lin & (lin_viol > tol)
        soc_viol[soc] = -math.inf
        soc_new = soc_viol.max(initial=-math.inf) > tol
        if spent or not (lin_new.any() or soc_new):
            break
        lin |= lin_new
        if soc_new:
            soc[np.argmax(soc_viol)] = True
    # Zero duals on the dropped rows, sized as a full solve sizes them.
    lam = np.zeros(canon.cone.dim)
    lam[keep] = np.concatenate([sol.dual_lin, *sol.dual_soc])
    dual_lin, dual_soc = _split_duals(canon.cone, lam)
    full = Solution(status=sol.status, primal=z, objective=prog.objective(z), dual_lin=dual_lin,
                    dual_soc=dual_soc, iterations=iterations, gap=sol.gap, rounds=rounds,
                    working_set=sol.working_set)
    _certify(canon, full)
    return full


def _kkt_acceptable(prog: ConicProgram, sol: Solution, opts: SolverOptions) -> bool:
    """The residual contract of every solve; it is the same under any ``opts``."""
    return _within_contract(sol, prog.q_vec, prog.lin_b)


def _within_contract(sol: Solution, q_vec: np.ndarray, lin_b: np.ndarray) -> bool:
    """Residuals within ten times the tolerances, scaled by the largest |q| and |b|."""
    scale_d = max(1.0, float(np.abs(q_vec).max(initial=0.0)))
    scale_p = max(1.0, float(np.abs(lin_b).max(initial=0.0)))
    obj_scale = max(1.0, abs(sol.objective or 0.0))
    kkt = sol.kkt
    return (
        kkt.stationarity <= 10.0 * _FEASIBILITY_TOLERANCE * scale_d
        and kkt.primal <= 10.0 * _FEASIBILITY_TOLERANCE * scale_p
        and kkt.complementarity <= 10.0 * _GAP_TOLERANCE * obj_scale
    )


def _solve_unconstrained(prog: ConicProgram, canon: _Canonical) -> Solution:
    """One Cholesky solve of P z = -q; a P that is not positive definite is a NumericalFailure."""
    try:
        factor = inverse_cholesky_factor(canon.p_mat)
    except np.linalg.LinAlgError:
        return Solution(status="NumericalFailure", primal=None, objective=None)
    z = factor @ (factor.T @ -canon.q_vec)
    return Solution(status="Optimal", primal=z, objective=prog.objective(z), dual_lin=np.zeros(0),
                    kkt=_kkt(canon, z, np.zeros(0)), gap=0.0)


def _interior_point(prog: ConicProgram, canon: _Canonical, opts: SolverOptions) -> Solution:
    p_mat, q_vec = canon.p_mat, canon.q_vec
    g_mat, h_vec = canon.g_mat, canon.h_vec
    cone = canon.cone
    d = q_vec.size
    kkt_blocks = _kkt_blocks(cone, g_mat)

    # Initial point: solve the KKT system with identity scaling, then push
    # the slack/dual blocks into the cone interior.
    try:
        k0 = inverse_cholesky_factor(p_mat + g_mat.T @ g_mat + 1e-12 * np.eye(d))
    except np.linalg.LinAlgError:
        return Solution(status="NumericalFailure", primal=None, objective=None)
    z = k0 @ (k0.T @ (-q_vec + g_mat.T @ h_vec))
    resid = g_mat @ z - h_vec
    s = -resid.copy()
    lam = resid.copy()
    e = cone.unit()
    s = s + max(0.0, 1.0 + cone.interior_violation(s)) * e
    lam = lam + max(0.0, 1.0 + cone.interior_violation(lam)) * e
    if cone.interior_violation(s) >= 0 or cone.interior_violation(lam) >= 0:
        s = e.copy()
        lam = e.copy()

    scale_p = max(1.0, float(np.abs(h_vec).max(initial=0.0)))
    scale_d = max(1.0, float(np.abs(q_vec).max(initial=0.0)))
    stalls = 0

    def stop(status: str, iterations: int) -> Solution:
        """The current iterate under ``status``; it is finite at every exit that keeps it."""
        dual_lin, dual_soc = _split_duals(cone, lam)
        return Solution(status=status, primal=z, objective=prog.objective(z), dual_lin=dual_lin,
                        dual_soc=dual_soc, iterations=iterations, gap=float(s @ lam))

    for it in range(1, opts.max_iterations + 1):
        rx = p_mat @ z + q_vec + g_mat.T @ lam
        rz = g_mat @ z + s - h_vec
        gap = float(s @ lam)
        mu = gap / cone.degree
        pobj = float(0.5 * z @ p_mat @ z + q_vec @ z) + prog.constant

        if not np.all(np.isfinite(z)) or not math.isfinite(gap):
            return Solution(status="NumericalFailure", primal=None, objective=None, iterations=it)
        score = max(
            float(np.abs(rz).max(initial=0.0)) / (_FEASIBILITY_TOLERANCE * scale_p),
            float(np.abs(rx).max(initial=0.0)) / (_FEASIBILITY_TOLERANCE * scale_d),
            gap / (_GAP_TOLERANCE * max(1.0, abs(pobj))),
        )
        if score <= 1.0:
            return stop("Optimal", it)
        if max(np.abs(lam).max(initial=0.0), np.abs(s).max(initial=0.0)) > _DIVERGENCE_THRESHOLD:
            return Solution(status=_classify_divergence(g_mat, h_vec, cone, lam), primal=None,
                            objective=None, iterations=it)

        try:
            scaling = _Scaling(cone, s, lam)
            factor = _factor_reduced(scaling.reduced_kkt(p_mat, *kkt_blocks))
        except (np.linalg.LinAlgError, FloatingPointError, ValueError):
            return stop("IterationLimit", it)

        zeta = scaling.apply(lam)

        def newton(bx, bz):
            dz = factor @ (factor.T @ (bx + g_mat.T @ scaling.apply_inv2(bz)))
            dlam = scaling.apply_inv2(g_mat @ dz - bz)
            # Iterative refinement on the full block system keeps both the
            # primal and the dual equations accurate as scaling degenerates.
            for _ in range(2):
                r1 = bx - (p_mat @ dz + g_mat.T @ dlam)
                r2 = bz - (g_mat @ dz - scaling.apply(scaling.apply(dlam)))
                cz = factor @ (factor.T @ (r1 + g_mat.T @ scaling.apply_inv2(r2)))
                clam = scaling.apply_inv2(g_mat @ cz - r2)
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
            correction = _jordan_product(cone, scaling.apply_inv(ds_a), scaling.apply(dlam_a))
            d_vec = sigma * mu * e - _jordan_product(cone, zeta, zeta) - correction
            d_tilde = _jordan_solve(cone, zeta, d_vec)
            dz, dlam, ds = newton(-rx, -rz - scaling.apply(d_tilde))
        except (np.linalg.LinAlgError, ValueError, FloatingPointError):
            return stop("IterationLimit", it)
        alpha = min(
            1.0,
            _STEP_FRACTION * cone.max_step(s, ds),
            _STEP_FRACTION * cone.max_step(lam, dlam),
        )
        stalls = stalls + 1 if alpha < 1e-7 else 0
        if not math.isfinite(alpha) or alpha <= 0.0 or stalls >= 3:
            return stop("IterationLimit", it)
        z = z + alpha * dz
        s = s + alpha * ds
        lam = lam + alpha * dlam

    return stop("IterationLimit", opts.max_iterations)


def _classify_divergence(g_mat: np.ndarray, h_vec: np.ndarray, cone: _Cone,
                         lam: np.ndarray) -> str:
    """Diverging duals signal infeasibility when they form a Farkas certificate.

    The normalized dual must give h'lam < 0 and G'lam = 0 (to 1e-6) and lie in
    the self-dual cone K (to _FARKAS_CONE_TOLERANCE).
    """
    lam_hat = lam / np.linalg.norm(lam)
    if (
        float(h_vec @ lam_hat) < -1e-8
        and float(np.abs(g_mat.T @ lam_hat).max(initial=0.0)) <= 1e-6
        and cone.interior_violation(lam_hat) <= _FARKAS_CONE_TOLERANCE
    ):
        return "Infeasible"
    return "NumericalFailure"


def _split_duals(cone: _Cone, lam: np.ndarray):
    """The concatenated dual cut into the program's linear rows and cone blocks."""
    return lam[: cone.l].copy(), [lam[start: start + size].copy()
                                  for start, size in zip(cone._starts, cone.soc_sizes)]


def _polish_linear(prog: ConicProgram, canon: _Canonical, sol: Solution) -> "Solution | None":
    """Re-solve on the detected active set; exact for nondegenerate QPs without cone rows."""
    z = sol.primal
    lam = sol.dual_lin
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
        sol_vec = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:   # a singular active set keeps the interior-point solution
        return None
    z_new = sol_vec[:d]
    nu = sol_vec[d:]
    tol = 10.0 * _FEASIBILITY_TOLERANCE * max(1.0, float(np.abs(h_vec).max(initial=0.0)))
    feasible = bool(np.all(g_mat @ z_new <= h_vec + tol))
    multipliers_ok = bool(np.all(nu >= -1e-7))
    # An interior point inside the tolerance may undercut the optimum by its
    # dual-weighted violation, so that much is not counted against the polish.
    better = prog.objective(z_new) <= prog.objective(z) + float(lam @ np.maximum(-slack, 0.0)) \
        + 1e-9 * max(1.0, abs(sol.objective or 1.0))
    if not (feasible and multipliers_ok and better and np.all(np.isfinite(z_new))):
        return None
    dual = np.zeros(g_mat.shape[0])
    dual[active] = np.maximum(nu, 0.0)
    return Solution(
        status="Optimal",
        primal=z_new,
        objective=prog.objective(z_new),
        dual_lin=dual,
        dual_soc=[],
        iterations=sol.iterations,
        gap=float(abs(nu @ (h_vec[active] - a_act @ z_new))),
    )


def check_kkt(prog: ConicProgram, sol: Solution) -> KktResiduals:
    """Stationarity, primal violation, and complementarity of a solution; an empty
    ``dual_soc`` means zero cone duals, any other holds one per cone row."""
    if sol.primal is None:
        raise DimensionMismatch("solution has no primal point")
    z = np.asarray(sol.primal, dtype=float).ravel()
    if z.size != prog.q_vec.size:
        raise DimensionMismatch("solution dimension does not match the program")
    dual_lin = sol.dual_lin if sol.dual_lin is not None else np.zeros(prog.lin_b.size)
    if dual_lin.size != prog.lin_b.size:
        raise DimensionMismatch("linear dual has the wrong length")
    canon = _canonicalize(prog)
    if sol.dual_soc and [np.size(dual) for dual in sol.dual_soc] != canon.cone.soc_sizes:
        raise DimensionMismatch("cone duals do not match the cone rows in number or length")
    dual_soc = sol.dual_soc or [np.zeros(canon.cone.dim - canon.cone.l)]
    return _kkt(canon, z, np.concatenate([dual_lin, *dual_soc]))


def _kkt(canon: _Canonical, z: np.ndarray, lam: np.ndarray) -> KktResiduals:
    """Residuals of (z, lam) on every canonical row: P z + q + G'lam, the cone violation
    of s = h - G z, and s o lam per orthant row and s_b'lam_b per block."""
    cone = canon.cone
    s = canon.h_vec - canon.g_mat @ z
    grad = canon.p_mat @ z + canon.q_vec + canon.g_mat.T @ lam
    comp_lin, comp_blk = cone.split(_jordan_product(cone, s, lam))
    comp = np.concatenate([comp_lin, comp_blk[:, 0]])
    return KktResiduals(
        stationarity=float(np.abs(grad).max(initial=0.0)),
        primal=float(np.concatenate(cone.violations(s)).max(initial=0.0)),
        complementarity=float(np.abs(comp).max(initial=0.0)),
    )


# ---------------------------------------------------------------------------
# JSON-ready converters; cli writes the files
# ---------------------------------------------------------------------------


def solution_to_json(sol: Solution) -> dict:
    doc = {
        "status": sol.status,
        "primal": None if sol.primal is None else sol.primal.tolist(),
        "objective": sol.objective,
        "iterations": sol.iterations,
        "rounds": sol.rounds,
        "working_set": {"linear_rows": sol.working_set[0], "cones": sol.working_set[1]},
        "fallback": sol.fallback,
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

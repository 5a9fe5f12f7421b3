"""Embedded solver for quadratic programs with linear and second-order cone rows.

A dense primal-dual interior-point method in the standard conic slack form

    minimize 0.5 z' P z + q' z   s.t.  G z + s = h,  s in K,

with K a product of a nonnegative orthant and second-order cones.  Scaling
uses the Nesterov-Todd point per cone block, stored as rank-one factors per
block so that every cone operation is one array pass over all blocks.  Steps
use a Mehrotra predictor-corrector, and the (small, dense) reduced KKT system
is assembled from the factors and solved by Cholesky.  Purely linear programs
get an active-set polish solve at the end, which pins the primal down to
machine precision on nondegenerate problems.

A program that declares a start set (``ConicProgram.start_set``, such as
the scenario baseline's first scenario) is solved by constraint generation
(a cutting-set method, Mutapcic & Boyd 2009): solve the working set,
evaluate every dropped row at its solution, add every violated linear row
and the most violated cone row, and solve again until no dropped row is
violated by more than the feasibility tolerance.  The working set is a
relaxation, so its solution is then optimal for the full program; it is
returned with zero duals on the dropped rows and checked against the full
program.  An Infeasible round makes the full program Infeasible; any other
round that is not Optimal is followed by one solve of the full program,
and the solution says so (``fallback``).

The module is deliberately self-contained so that an external solver can be
substituted: any callable with the ``solve(prog, opts)`` signature returning
a :class:`Solution` satisfies the backend contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch
from .ocp import ConicProgram, SocRow

_DIVERGENCE_THRESHOLD = 1e8
_FARKAS_CONE_TOLERANCE = 1e-9
_STEP_FRACTION = 0.99       # share of the step to the cone boundary that is taken


@dataclass(frozen=True)
class SolverOptions:
    max_iterations: int = 200
    gap_tolerance: float = 1e-9
    feasibility_tolerance: float = 1e-9

    def __post_init__(self):
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
    iterations: int = 0              # summed over rounds
    gap: "float | None" = None
    rounds: int = 1                  # interior-point solves behind this solution
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

    def interior_violation(self, v: np.ndarray) -> float:
        """How far v is from the cone interior (positive means outside)."""
        lin, blk = self.split(v)
        worst = np.concatenate([-lin, np.linalg.norm(blk[:, 1:], axis=1) - blk[:, 0]])
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
        if _constant_norm(row):   # the row degrades to a linear one
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


def _constant_norm(row: SocRow) -> bool:
    """The norm argument does not depend on the decision: presolved to a linear row."""
    return row.f_mat.size == 0 or not np.any(row.f_mat)


def _kkt_blocks(cone: _Cone, g_mat: np.ndarray):
    """Orthant rows, padded SOC rows and G_b' J G_b per block: fixed for one solve."""
    g_lin, g_blk = cone.split(g_mat)
    return g_lin, g_blk, np.einsum("bmi,bm,bmj->bij", g_blk, cone.jmask, g_blk)


def _factor_reduced(k_mat: np.ndarray):
    """Cholesky of the reduced KKT matrix P + G' W^{-2} G with escalating regularization."""
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
    if prog.start_set is None:
        return _solve_once(prog, opts)
    return _solve_working_set(prog, opts)


def _solve_once(prog: ConicProgram, opts: SolverOptions) -> Solution:
    """One interior-point solve of all rows of ``prog``."""
    canon = _canonicalize(prog)
    if canon.cone.dim == 0:
        sol = _solve_unconstrained(prog, canon)
    else:
        sol = _interior_point(prog, canon, opts)
        if sol.status == "Optimal" and not canon.cone.soc_sizes and sol.primal is not None:
            polished = _polish_linear(prog, canon, sol, opts)
            if polished is not None:
                sol = polished
        _certify(prog, sol, opts)
    sol.working_set = (prog.lin_b.size, len(prog.soc_rows))
    return sol


def _certify(prog: ConicProgram, sol: Solution, opts: SolverOptions) -> None:
    """KKT residuals on ``prog``; an Optimal status outside the contract becomes IterationLimit."""
    if sol.primal is not None:
        sol.kkt = check_kkt(prog, sol)
        if sol.status == "Optimal" and not _kkt_acceptable(prog, sol, opts):
            sol.status = "IterationLimit"


def _solve_working_set(prog: ConicProgram, opts: SolverOptions) -> Solution:
    """Constraint generation from ``prog.start_set``; returns a solution of all of ``prog``."""
    prog.check_shapes()
    lin = np.zeros(prog.lin_b.size, dtype=bool)
    soc = np.zeros(len(prog.soc_rows), dtype=bool)
    lin[prog.start_set[0]] = True
    soc[prog.start_set[1]] = True
    tol = opts.feasibility_tolerance * max(1.0, float(np.abs(prog.lin_b).max(initial=0.0)))
    rounds = iterations = 0
    while True:
        sub = ConicProgram(
            p_mat=prog.p_mat, q_vec=prog.q_vec, constant=prog.constant,
            lin_a=prog.lin_a[lin], lin_b=prog.lin_b[lin],
            soc_rows=[row for row, keep in zip(prog.soc_rows, soc) if keep],
        )
        sol = _solve_once(sub, opts)
        rounds += 1
        iterations += sol.iterations
        if sol.status == "Infeasible":   # a relaxation of prog is infeasible, so prog is
            return Solution(status="Infeasible", primal=None, objective=None,
                            iterations=iterations, rounds=rounds, working_set=sol.working_set)
        if sol.status != "Optimal":
            full = _solve_once(prog, opts)
            full.iterations += iterations
            full.rounds = rounds + 1
            full.fallback = True
            return full
        z = sol.primal
        lin_new = ~lin & (prog.lin_a @ z - prog.lin_b > tol)
        soc_viol = np.array([
            -math.inf if keep
            else np.linalg.norm(row.f_mat @ z + row.g_vec) - (row.c_vec @ z + row.d_off)
            for row, keep in zip(prog.soc_rows, soc)
        ])
        worst = int(np.argmax(soc_viol)) if soc_viol.size else None
        soc_new = worst is not None and soc_viol[worst] > tol
        if not (lin_new.any() or soc_new):
            break
        lin |= lin_new
        if soc_new:
            soc[worst] = True
    dual_lin = np.zeros(prog.lin_b.size)
    dual_lin[lin] = sol.dual_lin
    # Zero duals on the dropped rows, sized as a full solve sizes them (1 if presolved).
    sub_duals = iter(sol.dual_soc)
    dual_soc = [next(sub_duals) if keep
                else np.zeros(1 if _constant_norm(row) else 1 + row.g_vec.size)
                for row, keep in zip(prog.soc_rows, soc)]
    full = Solution(status="Optimal", primal=z, objective=prog.objective(z), dual_lin=dual_lin,
                    dual_soc=dual_soc, iterations=iterations, gap=sol.gap, rounds=rounds,
                    working_set=sol.working_set)
    _certify(prog, full, opts)
    return full


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
    kkt_blocks = _kkt_blocks(cone, g_mat)

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
    s = s + max(0.0, 1.0 + cone.interior_violation(s)) * e
    lam = lam + max(0.0, 1.0 + cone.interior_violation(lam)) * e
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
            status = _classify_divergence(g_mat, h_vec, cone, lam)
            break

        try:
            scaling = _Scaling(cone, s, lam)
            factor = _factor_reduced(scaling.reduced_kkt(p_mat, *kkt_blocks))
        except (scipy.linalg.LinAlgError, FloatingPointError, ValueError):
            break

        zeta = scaling.apply(lam)

        def newton(bx, bz):
            dz = scipy.linalg.cho_solve(factor, bx + g_mat.T @ scaling.apply_inv2(bz))
            dlam = scaling.apply_inv2(g_mat @ dz - bz)
            # Iterative refinement on the full block system keeps both the
            # primal and the dual equations accurate as scaling degenerates.
            for _ in range(2):
                r1 = bx - (p_mat @ dz + g_mat.T @ dlam)
                r2 = bz - (g_mat @ dz - scaling.apply(scaling.apply(dlam)))
                cz = scipy.linalg.cho_solve(factor, r1 + g_mat.T @ scaling.apply_inv2(r2))
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
        except (scipy.linalg.LinAlgError, ValueError, FloatingPointError):
            break
        alpha = min(
            1.0,
            _STEP_FRACTION * cone.max_step(s, ds),
            _STEP_FRACTION * cone.max_step(lam, dlam),
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


def _classify_divergence(g_mat: np.ndarray, h_vec: np.ndarray, cone: _Cone,
                         lam: np.ndarray) -> str:
    """Diverging duals signal infeasibility when they form a Farkas certificate.

    The normalized dual must give h'lam < 0 and G'lam = 0 (to 1e-6) and lie in
    the self-dual cone K (to _FARKAS_CONE_TOLERANCE).
    """
    scale = float(np.linalg.norm(lam))
    if scale <= 0:
        return "NumericalFailure"
    lam_hat = lam / scale
    if (
        float(h_vec @ lam_hat) < -1e-8
        and float(np.abs(g_mat.T @ lam_hat).max(initial=0.0)) <= 1e-6
        and cone.interior_violation(lam_hat) <= _FARKAS_CONE_TOLERANCE
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

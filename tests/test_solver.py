import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.testing import assert_allclose

from mspc.errors import DimensionMismatch
from mspc.linalg import Rng
from mspc.ocp import ConicProgram, SocRow
from mspc.solver import (
    SolverOptions,
    _classify_divergence,
    _Cone,
    _jordan_product,
    _jordan_solve,
    _kkt_blocks,
    _Scaling,
    _soc_max_step,
    check_kkt,
    solve,
)


def make_program(p=None, q=None, lin_a=None, lin_b=None, soc_rows=None, constant=0.0):
    q = np.asarray(q, dtype=float)
    dim = q.size
    p = np.zeros((dim, dim)) if p is None else np.asarray(p, dtype=float)
    lin_a = np.zeros((0, dim)) if lin_a is None else np.asarray(lin_a, dtype=float)
    lin_b = np.zeros(0) if lin_b is None else np.asarray(lin_b, dtype=float)
    return ConicProgram(
        p_mat=p, q_vec=q, constant=constant, lin_a=lin_a, lin_b=lin_b,
        soc_rows=soc_rows or [],
    )


def grid_oracle(prog, bounds, points_per_axis=1000):
    """Brute-force oracle for 2-variable programs: best feasible grid value."""
    (lo1, hi1), (lo2, hi2) = bounds
    z1 = np.linspace(lo1, hi1, points_per_axis)
    z2 = np.linspace(lo2, hi2, points_per_axis)
    g1, g2 = np.meshgrid(z1, z2, indexing="ij")
    pts = np.stack([g1.ravel(), g2.ravel()], axis=1)
    feasible = np.ones(pts.shape[0], dtype=bool)
    if prog.lin_b.size:
        feasible &= np.all(pts @ prog.lin_a.T <= prog.lin_b + 1e-12, axis=1)
    for row in prog.soc_rows:
        lhs = np.linalg.norm(pts @ row.f_mat.T + row.g_vec, axis=1)
        feasible &= lhs <= pts @ row.c_vec + row.d_off + 1e-12
    vals = 0.5 * np.einsum("bi,ij,bj->b", pts, prog.p_mat, pts) + pts @ prog.q_vec
    vals = vals + prog.constant
    vals[~feasible] = np.inf
    return float(vals.min())


def test_unconstrained_qp():
    prog = make_program(p=np.eye(2), q=[-1.0, -2.0])
    sol = solve(prog)
    assert sol.status == "Optimal"
    assert_allclose(sol.primal, [1.0, 2.0], atol=1e-9)


def test_active_box():
    # min (z - 3)^2 subject to z <= 1
    prog = make_program(p=[[2.0]], q=[-6.0], lin_a=[[1.0]], lin_b=[1.0], constant=9.0)
    sol = solve(prog)
    assert sol.status == "Optimal"
    assert_allclose(sol.primal, [1.0], atol=1e-9)
    assert_allclose(sol.objective, 4.0, atol=1e-8)


def test_soc_closed_form():
    # min z1 + z2 subject to ||z|| <= 1
    prog = make_program(
        q=[1.0, 1.0],
        soc_rows=[SocRow(f_mat=np.eye(2), g_vec=np.zeros(2), c_vec=np.zeros(2), d_off=1.0)],
    )
    sol = solve(prog)
    assert sol.status == "Optimal"
    assert_allclose(sol.primal, [-math.sqrt(2) / 2, -math.sqrt(2) / 2], atol=1e-7)
    assert_allclose(sol.objective, -math.sqrt(2), atol=1e-8)


def test_infeasible_program():
    # z <= 0 and -z <= -1 cannot hold together.
    prog = make_program(p=[[1.0]], q=[0.0], lin_a=[[1.0], [-1.0]], lin_b=[0.0, -1.0])
    sol = solve(prog)
    assert sol.status == "Infeasible"


def _two_discs(centers):
    return [
        SocRow(f_mat=np.eye(2), g_vec=-np.asarray(c, dtype=float), c_vec=np.zeros(2), d_off=1.0)
        for c in centers
    ]


def test_infeasible_socp():
    # Two disjoint unit discs, and a disc that misses a half-plane.
    discs = make_program(p=np.eye(2), q=[0.0, 0.0], soc_rows=_two_discs([[0, 0], [3, 0]]))
    half = make_program(p=np.eye(2), q=[0.0, 0.0], lin_a=[[-1.0, 0.0]], lin_b=[-2.0],
                        soc_rows=_two_discs([[0, 0]]))
    assert solve(discs).status == "Infeasible"
    assert solve(half).status == "Infeasible"


def test_farkas_certificate_needs_dual_in_cone():
    # lam = (0, 1, 0) gives G'lam = 0 and h'lam = -1 but lies outside the cone.
    g_mat = np.array([[1.0], [0.0], [1.0]])
    h_vec = np.array([0.0, -1.0, 0.0])
    lam = np.array([0.0, 1.0, 0.0]) * 1e9
    assert _classify_divergence(g_mat, h_vec, _Cone(0, [3]), lam) == "NumericalFailure"
    # Orthant rows z <= 0, -z <= -1: lam = (1, 1) certifies them empty, (1, -1) does not.
    g_lin, h_lin = np.array([[1.0], [-1.0]]), np.array([0.0, -1.0])
    assert _classify_divergence(g_lin, h_lin, _Cone(2, []), np.array([1e9, 1e9])) == "Infeasible"
    assert _classify_divergence(g_lin, h_lin, _Cone(2, []), np.array([1e9, -1e9])) == "NumericalFailure"


def test_grid_oracle_qp_with_soc():
    prog = make_program(
        p=[[2.0, 0.4], [0.4, 1.0]],
        q=[-1.0, 0.5],
        lin_a=[[1.0, 1.0]],
        lin_b=[1.5],
        soc_rows=[
            SocRow(
                f_mat=np.array([[1.0, 0.0], [0.0, 0.5]]),
                g_vec=np.array([0.1, -0.2]),
                c_vec=np.array([0.0, 0.0]),
                d_off=1.2,
            )
        ],
    )
    sol = solve(prog)
    assert sol.status == "Optimal"
    oracle = grid_oracle(prog, [(-2.0, 2.0), (-2.5, 2.5)])
    assert sol.objective <= oracle + 1e-6
    assert abs(sol.objective - oracle) < 1e-4


def test_scaling_invariance_of_argmin():
    gen = Rng(40).generator()
    f = gen.standard_normal((3, 3))
    p = f @ f.T + np.eye(3)
    q = gen.standard_normal(3)
    lin_a = gen.standard_normal((4, 3))
    lin_b = np.abs(gen.standard_normal(4)) + 0.5
    prog1 = make_program(p=p, q=q, lin_a=lin_a, lin_b=lin_b)
    prog2 = make_program(p=7.5 * p, q=7.5 * q, lin_a=lin_a, lin_b=lin_b)
    s1, s2 = solve(prog1), solve(prog2)
    assert s1.status == s2.status == "Optimal"
    assert np.abs(s1.primal - s2.primal).max() < 1e-8


def test_presolve_constant_norm_soc_row():
    # ||g|| <= c'z + d with F = 0 acts as the linear row -c'z <= d - ||g||.
    prog = make_program(
        p=[[2.0]],
        q=[0.0],
        soc_rows=[
            SocRow(
                f_mat=np.zeros((2, 1)),
                g_vec=np.array([0.3, 0.4]),
                c_vec=np.array([1.0]),
                d_off=0.0,
            )
        ],
    )
    # Constraint: 0.5 <= z. Minimize z^2 -> z* = 0.5.
    sol = solve(prog)
    assert sol.status == "Optimal"
    assert_allclose(sol.primal, [0.5], atol=1e-8)
    assert sol.kkt.max() <= 1e-8


def test_check_kkt_at_optimum_and_perturbed():
    gen = Rng(42).generator()
    f = gen.standard_normal((3, 3))
    prog = make_program(
        p=f @ f.T + np.eye(3),
        q=gen.standard_normal(3),
        lin_a=gen.standard_normal((5, 3)),
        lin_b=np.abs(gen.standard_normal(5)) + 0.3,
    )
    sol = solve(prog)
    assert sol.status == "Optimal"
    assert sol.kkt.max() <= 1e-8

    from dataclasses import replace

    perturbed = replace(sol, primal=sol.primal + 1e-3)
    kkt = check_kkt(prog, perturbed)
    assert max(kkt.stationarity, kkt.primal) >= 1e-4


def test_check_kkt_zero_program():
    prog = make_program(q=[0.0, 0.0])
    from mspc.solver import Solution

    sol = Solution(status="Optimal", primal=np.array([3.0, -2.0]), objective=0.0,
                   dual_lin=np.zeros(0), dual_soc=[])
    kkt = check_kkt(prog, sol)
    assert kkt.stationarity == 0.0
    assert kkt.primal == 0.0
    assert kkt.complementarity == 0.0


def test_degenerate_soc_vertex_delta_like_row():
    # A cone row whose argument vanishes at the optimum; presolve is not
    # triggered (F is nonzero) so the cone path must handle the vertex.
    prog = make_program(
        p=np.eye(2) * 2.0,
        q=[-2.0, 0.0],
        soc_rows=[
            SocRow(
                f_mat=np.array([[0.0, 1.0]]),
                g_vec=np.zeros(1),
                c_vec=np.array([1.0, 0.0]),
                d_off=0.0,
            )
        ],
    )
    # ||z2|| <= z1, cost (z1 - 1)^2 + z2^2 - 1: optimum at z = (1, 0).
    sol = solve(prog)
    assert sol.status == "Optimal"
    assert_allclose(sol.primal, [1.0, 0.0], atol=1e-6)


def test_random_qp_soc_battery_kkt():
    gen = Rng(43).generator()
    for trial in range(20):
        d = int(gen.integers(2, 6))
        f = gen.standard_normal((d, d))
        p = f @ f.T + np.eye(d)
        q = gen.standard_normal(d)
        lin_a = gen.standard_normal((d + 2, d))
        lin_b = np.abs(gen.standard_normal(d + 2)) + 0.5
        socs = []
        for _ in range(int(gen.integers(0, 3))):
            rows = int(gen.integers(1, 4))
            socs.append(
                SocRow(
                    f_mat=gen.standard_normal((rows, d)),
                    g_vec=0.2 * gen.standard_normal(rows),
                    c_vec=np.zeros(d),
                    d_off=2.0 + abs(gen.standard_normal()),
                )
            )
        prog = make_program(p=p, q=q, lin_a=lin_a, lin_b=lin_b, soc_rows=socs)
        sol = solve(prog)
        assert sol.status == "Optimal", f"trial {trial}: {sol.status}"
        assert sol.kkt.max() <= 1e-8, f"trial {trial}: kkt {sol.kkt}"


def test_iteration_limit_status():
    prog = make_program(
        p=[[2.0]], q=[-6.0], lin_a=[[1.0]], lin_b=[1.0], constant=9.0
    )
    sol = solve(prog, SolverOptions(max_iterations=1))
    assert sol.status in ("IterationLimit", "Optimal")
    assert sol.iterations <= 1


def test_working_set_duals_follow_the_full_program_rows():
    # min ||z - (3, 0)||^2 over rows z2 <= 1, z1 <= 2 (a constant-norm cone row),
    # ||z|| <= 10 and z1 <= 5 (constant-norm), starting from the disc alone.
    def const_row(bound):
        return SocRow(f_mat=np.zeros((1, 2)), g_vec=np.ones(1), c_vec=np.array([-1.0, 0.0]),
                      d_off=bound + 1.0)

    disc = SocRow(f_mat=np.eye(2), g_vec=np.zeros(2), c_vec=np.zeros(2), d_off=10.0)
    prog = make_program(p=2.0 * np.eye(2), q=[-6.0, 0.0], constant=9.0, lin_a=[[0.0, 1.0]],
                        lin_b=[1.0], soc_rows=[const_row(2.0), disc, const_row(5.0)])
    ref = solve(prog)
    prog.start_set = (np.zeros(0, dtype=int), np.array([1]))
    sol = solve(prog)
    assert sol.status == ref.status == "Optimal"
    assert sol.rounds == 2 and sol.working_set == (0, 2) and not sol.fallback
    assert_allclose(sol.primal, [2.0, 0.0], atol=1e-8)
    assert [d.shape for d in sol.dual_soc] == [d.shape for d in ref.dual_soc] == [(1,), (3,), (1,)]
    assert_allclose(sol.dual_soc[0], ref.dual_soc[0], atol=1e-7)
    assert np.all(sol.dual_soc[2] == 0.0) and np.all(sol.dual_lin == 0.0)
    assert sol.kkt.max() <= 1e-8


def test_working_set_infeasible_round_is_infeasible():
    # The start set z <= 0, -z <= -1 is already empty, so the program is too.
    prog = make_program(p=[[1.0]], q=[0.0], lin_a=[[1.0], [-1.0], [1.0]], lin_b=[0.0, -1.0, 5.0])
    prog.start_set = (np.array([0, 1]), np.zeros(0, dtype=int))
    sol = solve(prog)
    assert sol.status == "Infeasible"
    assert sol.rounds == 1 and sol.working_set == (2, 0) and not sol.fallback


def test_working_set_rejects_start_rows_out_of_range():
    prog = make_program(q=[1.0], lin_a=[[1.0], [-1.0]], lin_b=[1.0, 1.0])
    for start in ((np.array([2]), np.zeros(0, dtype=int)), (np.array([-1]), np.zeros(0, dtype=int)),
                  (np.array([0]), np.array([0]))):
        prog.start_set = start
        with pytest.raises(DimensionMismatch):
            solve(prog)


# ---------------------------------------------------------------------------
# Per-block reference for the batched cone algebra
# ---------------------------------------------------------------------------


def ref_blocks(cone):
    start = cone.l
    for size in cone.soc_sizes:
        yield start, size
        start += size


class RefScaling:
    """Nesterov-Todd scaling with dense W and W^{-1} per block."""

    def __init__(self, cone, s, z):
        self.cone = cone
        self.w_lin = np.sqrt(s[: cone.l] / z[: cone.l])
        self.soc = []
        for start, size in ref_blocks(cone):
            sb, zb = s[start: start + size], z[start: start + size]
            rs = math.sqrt(max(sb[0] ** 2 - float(sb[1:] @ sb[1:]), 1e-300))
            rz = math.sqrt(max(zb[0] ** 2 - float(zb[1:] @ zb[1:]), 1e-300))
            s_bar, z_bar = sb / rs, zb / rz
            gamma = math.sqrt(max((1.0 + float(s_bar @ z_bar)) / 2.0, 1e-300))
            w_bar = s_bar.copy()
            w_bar[0] += z_bar[0]
            w_bar[1:] -= z_bar[1:]
            w_bar /= 2.0 * gamma
            v = np.empty(size)
            v[0] = math.sqrt((w_bar[0] + 1.0) / 2.0)
            v[1:] = w_bar[1:] / (2.0 * v[0])
            eta = math.sqrt(rs / rz)
            jmat = np.diag(np.concatenate([[1.0], -np.ones(size - 1)]))
            w_mat = eta * (2.0 * np.outer(v, v) - jmat)
            jv = jmat @ v
            w_inv = (2.0 * np.outer(jv, jv) - jmat) / eta
            self.soc.append((w_mat, w_inv))

    def _blockwise(self, lin, which, v):
        out = np.empty_like(v)
        out[: self.cone.l] = lin * v[: self.cone.l]
        for mats, (start, size) in zip(self.soc, ref_blocks(self.cone)):
            out[start: start + size] = mats[which] @ v[start: start + size]
        return out

    def apply(self, v):
        return self._blockwise(self.w_lin, 0, v)

    def apply_inv(self, v):
        return self._blockwise(1.0 / self.w_lin, 1, v)

    def inv2_matrix(self, g):
        out = np.empty_like(g)
        out[: self.cone.l] = g[: self.cone.l] / (self.w_lin**2)[:, None]
        for (_, w_inv), (start, size) in zip(self.soc, ref_blocks(self.cone)):
            out[start: start + size] = w_inv @ (w_inv @ g[start: start + size])
        return out


def ref_jordan_square(cone, v):
    out = np.empty_like(v)
    out[: cone.l] = v[: cone.l] ** 2
    for start, size in ref_blocks(cone):
        blk = v[start: start + size]
        out[start] = float(blk @ blk)
        out[start + 1: start + size] = 2.0 * blk[0] * blk[1:]
    return out


def ref_jordan_product(cone, u, v):
    out = np.empty_like(u)
    out[: cone.l] = u[: cone.l] * v[: cone.l]
    for start, size in ref_blocks(cone):
        ub, vb = u[start: start + size], v[start: start + size]
        out[start] = float(ub @ vb)
        out[start + 1: start + size] = ub[0] * vb[1:] + vb[0] * ub[1:]
    return out


def ref_jordan_solve(cone, anchor, d):
    out = np.empty_like(d)
    out[: cone.l] = d[: cone.l] / anchor[: cone.l]
    for start, size in ref_blocks(cone):
        ab, db = anchor[start: start + size], d[start: start + size]
        det = ab[0] ** 2 - float(ab[1:] @ ab[1:])
        x0 = (ab[0] * db[0] - float(ab[1:] @ db[1:])) / det
        out[start] = x0
        out[start + 1: start + size] = (db[1:] - x0 * ab[1:]) / ab[0]
    return out


def ref_soc_max_step(u, du):
    scale = float(np.abs(du).max(initial=0.0))
    if scale == 0.0:
        return math.inf
    if scale > 1e50 or scale < 1e-50:
        return ref_soc_max_step(u, du / scale) / scale
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


def ref_max_step(cone, v, dv):
    alpha = math.inf
    neg = dv[: cone.l] < 0
    if np.any(neg):
        alpha = float(np.min(-v[: cone.l][neg] / dv[: cone.l][neg]))
    for start, size in ref_blocks(cone):
        alpha = min(alpha, ref_soc_max_step(v[start: start + size], dv[start: start + size]))
    return alpha


def interior_point(cone, gen):
    """A random point strictly inside the cone, at mixed scales."""
    x = gen.standard_normal(cone.dim) * np.exp(gen.uniform(-2.0, 2.0, cone.dim))
    x[: cone.l] = np.abs(x[: cone.l]) + 0.1
    for start, size in ref_blocks(cone):
        x[start] = np.linalg.norm(x[start + 1: start + size]) + np.exp(gen.uniform(-3.0, 1.0))
    return x


def assert_close_rel(actual, desired, rtol=1e-12):
    """Agreement relative to the largest entry of the reference."""
    scale = float(np.abs(desired).max(initial=0.0))
    assert np.abs(actual - desired).max(initial=0.0) <= rtol * max(scale, 1e-300)


cone_shapes = dict(
    l=st.integers(0, 4),
    sizes=st.lists(st.integers(2, 7), min_size=0, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)


@given(**cone_shapes)
@example(l=0, sizes=[2, 5, 3], seed=1)
@example(l=3, sizes=[], seed=2)
@example(l=0, sizes=[2], seed=3)
def test_batched_cone_algebra_matches_per_block_reference(l, sizes, seed):
    if l + len(sizes) == 0:
        return
    cone = _Cone(l, sizes)
    gen = np.random.default_rng(seed)
    s, z = interior_point(cone, gen), interior_point(cone, gen)
    x, y = gen.standard_normal(cone.dim), gen.standard_normal(cone.dim)
    ref, scaling = RefScaling(cone, s, z), _Scaling(cone, s, z)

    assert_close_rel(scaling.apply(x), ref.apply(x))
    assert_close_rel(scaling.apply_inv(x), ref.apply_inv(x))
    assert_close_rel(scaling.apply_inv2(x), ref.inv2_matrix(x[:, None]).ravel())
    assert_close_rel(_jordan_product(cone, x, y), ref_jordan_product(cone, x, y))
    assert_close_rel(_jordan_product(cone, x, x), ref_jordan_square(cone, x))
    assert_close_rel(_jordan_solve(cone, s, x), ref_jordan_solve(cone, s, x))
    assert cone.interior_violation(s) < 0

    d = int(gen.integers(1, 5))
    g_mat = gen.standard_normal((cone.dim, d))
    f = gen.standard_normal((d, d))
    p_mat = f @ f.T
    k_ref = p_mat + g_mat.T @ ref.inv2_matrix(g_mat)
    assert_close_rel(scaling.reduced_kkt(p_mat, *_kkt_blocks(cone, g_mat)), k_ref)


@given(**cone_shapes, kinds=st.lists(
    st.sampled_from(["zero", 1e60, 1e-60, 1e170, 1e-170, 1.0, "boundary"]),
    min_size=7, max_size=7))
@example(l=0, sizes=[2, 3, 4, 5, 6, 3, 2], seed=4,
         kinds=["zero", 1e60, 1e-60, 1e170, 1e-170, "boundary", 1.0])
def test_batched_max_step_matches_per_block_reference(l, sizes, seed, kinds):
    if l + len(sizes) == 0:
        return
    cone = _Cone(l, sizes)
    gen = np.random.default_rng(seed)
    u = interior_point(cone, gen)
    du = gen.standard_normal(cone.dim)
    for (start, size), kind in zip(ref_blocks(cone), kinds):
        blk = du[start: start + size]
        if kind == "zero":
            blk[:] = 0.0
        elif kind == "boundary":
            # du on the cone's boundary ray makes the quadratic linear (a = 0).
            blk[:] = 0.0
            blk[0], blk[1] = -1.0 if gen.random() < 0.5 else 1.0, 1.0
        else:
            # Squares of the extreme scales over- or underflow without rescaling.
            blk *= kind
    _, ub = cone.split(u)
    _, dub = cone.split(du)
    per_block = [ref_soc_max_step(u[s: s + n], du[s: s + n]) for s, n in ref_blocks(cone)]
    assert_allclose(_soc_max_step(ub, dub), per_block, rtol=1e-12)
    assert_allclose(cone.max_step(u, du), ref_max_step(cone, u, du), rtol=1e-12)

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, strategies as st
from numpy.testing import assert_allclose

from mspc import cli, solver
from mspc.errors import DimensionMismatch, DomainError
from mspc.linalg import Rng
from mspc.ocp import (
    ConicProgram,
    SocRow,
    build_robust_socp_multistep,
    formulate_minmax_statespace,
)
from mspc.solver import (
    Solution,
    SolverOptions,
    _classify_divergence,
    _Cone,
    _factor_reduced,
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


def test_check_kkt_rejects_a_cone_dual_of_the_wrong_length():
    # A cone row with g of length m has a dual of length 1 + m, F = 0 or not.
    from mspc.solver import Solution

    row = SocRow(f_mat=np.zeros((2, 1)), g_vec=np.array([0.3, 0.4]), c_vec=np.array([1.0]),
                 d_off=0.0)
    prog = make_program(p=[[2.0]], q=[0.0], soc_rows=[row])
    for dual in (np.array([1.0]), np.zeros(4)):
        sol = Solution(status="Optimal", primal=np.array([0.5]), objective=0.25,
                       dual_lin=np.zeros(0), dual_soc=[dual])
        with pytest.raises(DimensionMismatch):
            check_kkt(prog, sol)
    assert check_kkt(prog, solve(prog)).max() <= 1e-8


def test_check_kkt_checks_every_cone_row_or_rejects_the_duals():
    # |z| <= 10 and |z| <= 0.1 at z = 5: the second row is violated by 4.9.  A
    # dual_soc that is neither empty nor one dual per cone row left that row unchecked.
    rows = [SocRow(f_mat=np.eye(1), g_vec=np.zeros(1), c_vec=np.zeros(1), d_off=bound)
            for bound in (10.0, 0.1)]
    prog = make_program(p=[[2.0]], q=[0.0], soc_rows=rows)

    def at_five(dual_soc):
        return Solution(status="Optimal", primal=np.array([5.0]), objective=25.0,
                        dual_lin=np.zeros(0), dual_soc=dual_soc)

    for dual_soc in ([np.zeros(2), np.zeros(2)], []):
        assert check_kkt(prog, at_five(dual_soc)).primal == pytest.approx(4.9, rel=1e-15)
    for dual_soc in ([np.zeros(2)], [np.zeros(2)] * 3):
        with pytest.raises(DimensionMismatch):
            check_kkt(prog, at_five(dual_soc))


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


REPO = Path(__file__).resolve().parents[1]


def identified_programs(cfg, kind):
    """The robust or 64-scenario program at p = 0.9, delta = 0.95 on ``cfg``'s identified model."""
    sys_true = cli.make_system(cfg)
    ests, gw = cli._identify_all(cfg, sys_true, cli._probe_and_simulate(cfg, sys_true))
    spec = replace(cfg.ocp_spec, p=0.9)
    if kind == "robust":
        return build_robust_socp_multistep(ests, spec, 0.95, gw, sys_true.sigma_w)
    return formulate_minmax_statespace(ests[0], spec, 0.95, 64, Rng(cfg.master_seed, 1),
                                       sys_true.E, sys_true.sigma_w)


def binding_variant(r):
    """two_state far from the origin: x0_mean (1.5, 2.0), h_x = diag(0.6, 0.45), horizon 32."""
    doc = json.loads((REPO / "configs" / "two_state.json").read_text())
    doc["identification"]["T"] = 400
    doc["ocp"].update(horizon=32, R=[[r]], x0_mean=[1.5, 2.0], h_x=[[0.6, 0.0], [0.0, 0.45]])
    return cli.parse_config(doc)


def test_reduced_kkt_solve_matches_cho_solve(monkeypatch):
    # Every reduced KKT matrix of the design_sweep scenario solve and of the
    # binding variant's robust solves (R = 2 and R = 20, several rounds each),
    # solved through the inverted factor and by scipy's triangular solves.
    recorded = []

    def record(k_mat):
        recorded.append(k_mat.copy())
        return _factor_reduced(k_mat)

    monkeypatch.setattr(solver, "_factor_reduced", record)
    design = cli.load_config(REPO / "perfbench" / "configs" / "design_sweep.json")
    programs = [identified_programs(design, "scenario"),
                identified_programs(binding_variant(2.0), "robust"),
                identified_programs(binding_variant(20.0), "robust")]
    for prog in programs:
        assert solve(prog).status == "Optimal"
    assert len(recorded) > 40
    gen = np.random.default_rng(5)
    for k_mat in recorded:
        b = gen.standard_normal(k_mat.shape[0])
        factor = _factor_reduced(k_mat)
        ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(k_mat), b)
        assert np.linalg.norm(factor @ (factor.T @ b) - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_reduced_kkt_leaves_through_the_factorization_exit(monkeypatch, bad):
    with pytest.raises(np.linalg.LinAlgError):
        _factor_reduced(np.array([[1.0, 0.0], [0.0, bad]]))
    prog = make_program(p=np.eye(2), q=[-1.0, -2.0], lin_a=[[1.0, 1.0]], lin_b=[1.0],
                        soc_rows=[SocRow(f_mat=np.eye(2), g_vec=np.zeros(2), c_vec=np.zeros(2),
                                         d_off=2.0)])
    assert solver._solve_once(prog, SolverOptions()).status == "Optimal"
    reduced = _Scaling.reduced_kkt
    monkeypatch.setattr(_Scaling, "reduced_kkt",
                        lambda self, *args: np.full_like(reduced(self, *args), bad))
    # The first factorization fails: the interior point stops there and keeps its start.
    sol = solver._solve_once(prog, SolverOptions())
    assert sol.status == "IterationLimit" and sol.iterations == 1


@pytest.mark.parametrize("k_mat", [-np.eye(2), np.diag([1.0, 0.0])], ids=["indefinite", "singular"])
def test_reduced_kkt_not_positive_definite_leaves_through_the_factorization_exit(monkeypatch,
                                                                                 k_mat):
    # The reduced KKT matrix is factorized as it is, with no diagonal shift.
    with pytest.raises(np.linalg.LinAlgError):
        _factor_reduced(k_mat)
    prog = make_program(p=np.eye(2), q=[-1.0, -2.0], lin_a=[[1.0, 1.0]], lin_b=[1.0],
                        soc_rows=[SocRow(f_mat=np.eye(2), g_vec=np.zeros(2), c_vec=np.zeros(2),
                                         d_off=2.0)])
    monkeypatch.setattr(_Scaling, "reduced_kkt", lambda self, *args: k_mat)
    sol = solver._solve_once(prog, SolverOptions())
    assert sol.status == "IterationLimit" and sol.iterations == 1
    assert sol.primal is not None and np.all(np.isfinite(sol.primal))


def test_program_without_rows_and_singular_p_is_a_numerical_failure():
    # One Cholesky solve of P z = -q; a singular P has no least-squares stand-in.
    sol = solve(make_program(p=np.diag([1.0, 0.0]), q=[-1.0, 0.0]))
    assert sol.status == "NumericalFailure" and sol.primal is None and sol.fallback


def test_singular_active_set_keeps_the_interior_point_solution():
    # z <= 1 twice: the active-set KKT matrix is singular, so the polish gives way.
    prog = make_program(p=[[2.0]], q=[-6.0], lin_a=[[1.0], [1.0]], lin_b=[1.0, 1.0], constant=9.0)
    canon = solver._canonicalize(prog)
    interior = solver._interior_point(prog, canon, SolverOptions())
    assert interior.status == "Optimal"
    assert solver._polish_linear(prog, canon, interior) is None
    sol = solver._solve_once(prog, SolverOptions())
    assert sol.status == "Optimal" and np.array_equal(sol.primal, interior.primal)
    assert_allclose(sol.primal, [1.0], atol=1e-9)


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
    assert [d.shape for d in sol.dual_soc] == [d.shape for d in ref.dual_soc] == [(2,), (3,), (2,)]
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


def bits(a):
    """Shape, dtype and bytes: equal only for bit-identical arrays (-0.0 differs from 0.0)."""
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


def per_row_kkt(prog, z, dual_lin, dual_soc):
    """Residuals by one pass per cone row: the check that ``solver._kkt`` replaced."""
    grad = prog.p_mat @ z + prog.q_vec
    primal = 0.0
    comp = 0.0
    if prog.lin_b.size:
        slack = prog.lin_b - prog.lin_a @ z
        grad = grad + prog.lin_a.T @ dual_lin
        primal = max(primal, float(np.max(-slack, initial=0.0)))
        comp = max(comp, float(np.abs(dual_lin * slack).max(initial=0.0)))
    for row, dual in zip(prog.soc_rows, dual_soc or [None] * len(prog.soc_rows)):
        resid = row.f_mat @ z + row.g_vec
        lhs = float(np.linalg.norm(resid))
        rhs = float(row.c_vec @ z + row.d_off)
        primal = max(primal, lhs - rhs)
        if dual is None:
            continue
        lam0, lam1 = float(dual[0]), dual[1:]
        grad = grad - row.c_vec * lam0 - row.f_mat.T @ lam1
        comp = max(comp, abs(rhs * lam0 + float(resid @ lam1)))
    return float(np.abs(grad).max(initial=0.0)), max(primal, 0.0), comp


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 4),
    n_lin=st.integers(0, 4),
    # Per cone row: rows of F (0 gives a block of size 1) and whether F = 0.
    cone_rows=st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=4),
    kept=st.sampled_from([0.0, 0.5, 1.0]),   # share of rows in the masks; 0 leaves them empty
    cone_duals=st.booleans(),
)
@example(seed=0, dim=2, n_lin=0, cone_rows=[], kept=0.0, cone_duals=True)
@example(seed=1, dim=3, n_lin=2, cone_rows=[(0, False), (3, True), (2, False)], kept=0.5,
         cone_duals=True)
def test_canonical_rows_agree_with_the_per_row_path(seed, dim, n_lin, cone_rows, kept,
                                                    cone_duals):
    gen = np.random.default_rng(seed)
    f = gen.standard_normal((dim, dim))
    rows = [SocRow(f_mat=gen.standard_normal((m, dim)) * (not zero_f),
                   g_vec=gen.standard_normal(m), c_vec=gen.standard_normal(dim),
                   d_off=float(gen.standard_normal()))
            for m, zero_f in cone_rows]
    prog = make_program(p=f @ f.T, q=gen.standard_normal(dim),
                        lin_a=gen.standard_normal((n_lin, dim)), lin_b=gen.standard_normal(n_lin),
                        soc_rows=rows)
    lin, soc = gen.random(n_lin) < kept, gen.random(len(rows)) < kept
    canon = solver._canonicalize(prog)

    # The restriction is the canonical form of the working set as its own program.
    sub = ConicProgram(p_mat=prog.p_mat, q_vec=prog.q_vec, constant=prog.constant,
                       lin_a=prog.lin_a[lin], lin_b=prog.lin_b[lin],
                       soc_rows=[row for row, keep in zip(rows, soc) if keep])
    ref = solver._canonicalize(sub)
    got, keep = canon.restrict(lin, soc)
    for name in ("p_mat", "q_vec", "g_mat", "h_vec"):
        assert bits(getattr(got, name)) == bits(getattr(ref, name)), name
    assert (got.cone.l, got.cone.soc_sizes) == (ref.cone.l, ref.cone.soc_sizes)
    assert bits(canon.h_vec[keep]) == bits(ref.h_vec)

    # Residuals agree with the per-row formulas to 1e-12 of the size of the terms summed.
    z = gen.standard_normal(dim) * np.exp(gen.uniform(-2.0, 2.0, dim))
    lam = gen.standard_normal(canon.cone.dim)
    if not cone_duals:
        lam[canon.cone.l:] = 0.0
    dual_lin, dual_soc = solver._split_duals(canon.cone, lam)
    s_size = np.abs(canon.h_vec) + np.abs(canon.g_mat) @ np.abs(z)
    lin_viol, soc_viol = canon.cone.violations(canon.h_vec - canon.g_mat @ z)
    ref_lin = prog.lin_a @ z - prog.lin_b
    ref_soc = [np.linalg.norm(row.f_mat @ z + row.g_vec) - (row.c_vec @ z + row.d_off)
               for row in rows]
    _, soc_size = canon.cone.split(s_size)
    assert np.all(np.abs(lin_viol - ref_lin) <= 1e-12 * s_size[: canon.cone.l])
    assert np.all(np.abs(soc_viol - ref_soc) <= 1e-12 * soc_size.sum(axis=1))

    kkt = solver._kkt(canon, z, lam)
    ref_kkt = per_row_kkt(prog, z, dual_lin, dual_soc if cone_duals else [])
    sizes = (
        float(np.max(np.abs(canon.p_mat) @ np.abs(z) + np.abs(canon.q_vec)
                     + np.abs(canon.g_mat).T @ np.abs(lam))),
        float(s_size.max(initial=0.0)),
        float(s_size @ np.abs(lam)),
    )
    for value, reference, size in zip((kkt.stationarity, kkt.primal, kkt.complementarity),
                                      ref_kkt, sizes):
        assert abs(value - reference) <= 1e-12 * size
    # check_kkt takes no cone duals as zero cone duals.
    sol = Solution(status="Optimal", primal=z, objective=0.0, dual_lin=dual_lin,
                   dual_soc=dual_soc if cone_duals else [])
    assert check_kkt(prog, sol) == kkt


def per_row_canonical(lin_a, lin_b, rows, dim):
    """The per-row stacking that ``ConicProgram``'s one conversion replaced: the
    linear rows, then one block (d + c'z, g + F z) per cone row, as written."""
    return (
        np.vstack([np.asarray(lin_a, dtype=float).reshape(-1, dim),
                   *(np.vstack([-row.c_vec, -row.f_mat]) for row in rows)]),
        np.concatenate([np.asarray(lin_b, dtype=float).ravel(),
                        *(np.append(row.d_off, row.g_vec) for row in rows)]),
        [1 + row.g_vec.size for row in rows],
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 4),
    n_lin=st.integers(0, 4),
    # Per cone input: rows of F (0 gives a block of size 1) and how many rows it
    # stacks along a leading axis (None: one row without that axis).
    blocks=st.lists(st.tuples(st.integers(0, 3), st.one_of(st.none(), st.integers(0, 3))),
                    max_size=4),
)
@example(seed=0, dim=2, n_lin=0, blocks=[])
@example(seed=1, dim=3, n_lin=2, blocks=[(0, None), (3, 2), (0, 3), (2, None)])
def test_program_rows_are_the_per_row_canonical_form(seed, dim, n_lin, blocks):
    gen = np.random.default_rng(seed)

    def entries(*shape):   # normals, a third of them zeros signed like the normal they replace
        x = gen.standard_normal(shape)
        return np.where(gen.random(shape) < 1 / 3, 0.0 * x, x)

    stacks = [SocRow(f_mat=entries(*lead, r, dim), g_vec=entries(*lead, r),
                     c_vec=entries(*lead, dim), d_off=entries(*lead) if lead else float(entries()))
              for r, count in blocks for lead in [() if count is None else (count,)]]
    rows = []   # the stacks' rows one by one
    for row in stacks:
        if np.ndim(row.d_off) == 0:
            rows.append(row)
        else:
            rows += [SocRow(f, g, c, float(d))
                     for f, g, c, d in zip(row.f_mat, row.g_vec, row.c_vec, row.d_off)]
    lin_a, lin_b = entries(n_lin, dim), entries(n_lin)
    prog = make_program(p=np.eye(dim), q=np.zeros(dim), lin_a=lin_a, lin_b=lin_b, soc_rows=stacks)
    g_ref, h_ref, sizes = per_row_canonical(lin_a, lin_b, rows, dim)
    assert bits(prog.g_mat) == bits(g_ref) and bits(prog.h_vec) == bits(h_ref)
    assert (prog.linear_rows, prog.cone_sizes) == (n_lin, sizes)

    # The views read the input rows back, bit for bit; the solver copies no row.
    assert bits(prog.lin_a) == bits(lin_a) and bits(prog.lin_b) == bits(lin_b)
    assert len(prog.soc_rows) == len(rows)
    for got, row in zip(prog.soc_rows, rows):
        assert all(bits(getattr(got, name)) == bits(getattr(row, name))
                   for name in ("f_mat", "g_vec", "c_vec"))
        assert got.d_off == row.d_off and math.copysign(1.0, got.d_off) == math.copysign(1.0, row.d_off)
    canon = solver._canonicalize(prog)
    assert canon.g_mat is prog.g_mat and canon.h_vec is prog.h_vec


def scalar_program(**change):
    """min (z1 - 1)^2 + (z2 + 0.5)^2 s.t. z1 + z2 <= 5 and ||(z1, z2)|| <= 3, with fields replaced."""
    fields = dict(p=2.0 * np.eye(2), q=[-2.0, 1.0], constant=1.25, lin_a=[[1.0, 1.0]], lin_b=[5.0],
                  f_mat=np.eye(2), g_vec=np.zeros(2), c_vec=np.zeros(2), d_off=3.0)
    fields.update(change)
    row = SocRow(*(fields.pop(name) for name in ("f_mat", "g_vec", "c_vec", "d_off")))
    return make_program(soc_rows=[row], **fields)


@pytest.mark.parametrize("change, error", [
    ({"lin_b": [math.nan]}, DomainError),
    ({"lin_a": [[math.nan, 1.0]], "lin_b": [-5.0]}, DomainError),
    ({"f_mat": np.array([[math.inf, 0.0], [0.0, 1.0]])}, DomainError),
    ({"constant": math.nan}, DomainError),
    ({"p": [[2.0, 0.0], [0.0, math.inf]]}, DomainError),
    ({"q": [math.nan, 1.0]}, DomainError),
    ({"g_vec": [0.0, -math.inf]}, DomainError),
    ({"c_vec": [math.nan, 0.0]}, DomainError),
    ({"d_off": math.inf}, DomainError),
    ({"c_vec": np.zeros((1, 2))}, DimensionMismatch),
    ({"q": [[-2.0, 1.0]]}, DimensionMismatch),
    ({"p": np.eye(3)}, DimensionMismatch),
    ({"lin_a": [[1.0, 1.0, 0.0]]}, DimensionMismatch),
    ({"lin_b": [[5.0]]}, DimensionMismatch),
    ({"f_mat": np.eye(2)[:, :1]}, DimensionMismatch),
    ({"f_mat": np.ones(2)}, DimensionMismatch),
    ({"g_vec": np.zeros(3)}, DimensionMismatch),
    ({"d_off": np.array([3.0])}, DimensionMismatch),
])
def test_malformed_programs_raise_typed_errors(change, error):
    assert solve(scalar_program()).status == "Optimal"
    with pytest.raises(error):
        solve(scalar_program(**change))


def presolved(prog, constant):
    """``prog`` with each constant-norm cone row ||g|| <= c'z + d, whose index is in
    ``constant``, written as the linear row -c'z <= d - ||g||."""
    rows = [prog.soc_rows[i] for i in constant]
    return make_program(
        p=prog.p_mat, q=prog.q_vec, constant=prog.constant,
        lin_a=np.vstack([prog.lin_a, *(-row.c_vec for row in rows)]),
        lin_b=np.concatenate([prog.lin_b, [row.d_off - np.linalg.norm(row.g_vec) for row in rows]]),
        soc_rows=[row for i, row in enumerate(prog.soc_rows) if i not in constant],
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 3),
    n_lin=st.integers(0, 2),
    n_cones=st.integers(0, 2),
    # Per constant-norm row: rows of F (0 gives F of shape (0, dim)), g = 0, and
    # whether the row cuts off the unconstrained minimum.
    constant_rows=st.lists(st.tuples(st.integers(0, 3), st.booleans(), st.booleans()),
                           min_size=1, max_size=3),
)
@example(seed=0, dim=2, n_lin=0, n_cones=2, constant_rows=[(0, False, True)])
@example(seed=1, dim=3, n_lin=1, n_cones=1, constant_rows=[(2, True, True), (1, False, False)])
@example(seed=2228570508, dim=3, n_lin=0, n_cones=0, constant_rows=[(0, False, True)])
def test_constant_norm_rows_solve_as_cones_like_their_linear_form(seed, dim, n_lin, n_cones,
                                                                  constant_rows):
    # Every row holds strictly at z = 0, so each program is feasible, and P >= I
    # makes its minimum unique.
    gen = np.random.default_rng(seed)
    f = gen.standard_normal((dim, dim))
    p_mat = f @ f.T + np.eye(dim)
    z_free = gen.standard_normal(dim) * 2.0
    cones = [SocRow(f_mat=gen.standard_normal((rows, dim)), g_vec=g, c_vec=0.3 * gen.standard_normal(dim),
                    d_off=float(np.linalg.norm(g)) + gen.uniform(0.5, 2.0))
             for rows in gen.integers(1, 4, size=n_cones)
             for g in [gen.standard_normal(rows)]]
    constant = []
    for rows, zero_g, cuts in constant_rows:
        g = np.zeros(rows) if zero_g else gen.standard_normal(rows)
        c = gen.standard_normal(dim)
        c *= (-1.0 if cuts else 1.0) * np.sign(c @ z_free)
        # Slack at z = 0 is t; at the unconstrained minimum it is c'z + t, below 0 if the row cuts.
        t = gen.uniform(0.1, 0.9) * abs(c @ z_free) if cuts else gen.uniform(0.1, 2.0)
        constant.append(SocRow(f_mat=np.zeros((rows, dim)), g_vec=g, c_vec=c,
                               d_off=float(np.linalg.norm(g)) + t))
    order = gen.permutation(n_cones + len(constant))
    soc_rows = [(cones + constant)[i] for i in order]
    constant_idx = np.argsort(order)[n_cones:].tolist()
    prog = make_program(p=p_mat, q=-p_mat @ z_free, soc_rows=soc_rows,
                        lin_a=gen.standard_normal((n_lin, dim)), lin_b=gen.uniform(0.5, 2.0, n_lin))

    # Either form is solved to the contract, which accepts a gap of
    # 1e-8 max(1, |f|), and so, as P >= I, to a primal distance of
    # sqrt(2 * 1e-8 max(1, |f|)): an interior point pins a point on a curved
    # cone boundary down to only about the square root of its gap, and the
    # linear form of a program without ordinary cone rows is polished to
    # machine precision while its cone form is not.
    ref = solve(presolved(prog, constant_idx))
    sol = solve(prog)
    tol_f = 1e-8 * max(1.0, abs(ref.objective))
    assert sol.status == ref.status == "Optimal"
    assert np.abs(sol.primal - ref.primal).max() <= math.sqrt(2.0 * tol_f)
    assert abs(sol.objective - ref.objective) <= tol_f
    assert solver._kkt_acceptable(prog, sol, SolverOptions())
    assert [d.shape for d in sol.dual_soc] == [(1 + row.g_vec.size,) for row in soc_rows]

    # Started from every row but the constant-norm rows clearly slack at the
    # optimum, one round solves the program, and each row left out gets a zero dual.
    slack = {i for i in constant_idx
             if soc_rows[i].c_vec @ ref.primal + soc_rows[i].d_off
             - np.linalg.norm(soc_rows[i].g_vec) > 1e-3}
    prog.start_set = (np.arange(n_lin), np.array([i for i in range(len(soc_rows)) if i not in slack],
                                                 dtype=int))
    started = solve(prog)
    assert started.status == "Optimal" and started.rounds == 1
    assert np.abs(started.primal - ref.primal).max() <= math.sqrt(2.0 * tol_f)
    assert solver._kkt_acceptable(prog, started, SolverOptions())
    for i in slack:
        assert np.array_equal(started.dual_soc[i], np.zeros(1 + soc_rows[i].g_vec.size))


@pytest.mark.parametrize("bad", [2.5, -1, True, "3", None])
def test_max_iterations_must_be_a_count(bad):
    with pytest.raises(DomainError):
        SolverOptions(max_iterations=bad)


@pytest.mark.parametrize("cap", [0, np.int64(3)])
def test_max_iterations_takes_any_integer_count(cap):
    prog = make_program(p=[[2.0]], q=[-6.0], lin_a=[[1.0]], lin_b=[1.0], constant=9.0)
    sol = solve(prog, SolverOptions(max_iterations=cap))
    assert sol.iterations <= cap


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

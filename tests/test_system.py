import csv
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from mspc.cli import _write_csv, _write_json
from mspc.errors import DimensionMismatch, DomainError
from mspc.linalg import Rng, psd_sqrt_factor
from mspc.system import (
    GaussianBelief,
    LinearSystem,
    Trajectory,
    build_multistep,
    propagate_moments_multistep,
    propagate_moments_statespace,
    random_system,
    simulate,
    system_from_json,
    system_to_json,
    trajectory_rows,
)


def scalar_system(a=0.5, b=1.0, e=0.0, sw=0.0, se=0.0):
    return LinearSystem(
        A=np.array([[a]]),
        B=np.array([[b]]),
        E=np.array([[e if e else 1.0]]) if e else np.array([[1.0]]),
        sigma_w=np.array([[sw]]),
        sigma_eps=np.array([[se]]),
    )


def point_belief(x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return GaussianBelief(mean=x, cov=np.zeros((x.size, x.size)))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_noise_free_fixed_point():
    sys = LinearSystem(
        A=np.eye(2),
        B=np.zeros((2, 1)),
        E=np.eye(2),
        sigma_w=np.zeros((2, 2)),
        sigma_eps=np.zeros((2, 2)),
    )
    init = point_belief([1.5, -0.5])
    traj = simulate(sys, init, np.zeros((6, 1)), Rng(1))
    for k in range(7):
        assert_allclose(traj.states[k], [1.5, -0.5])
        assert_allclose(traj.measurements[k], [1.5, -0.5])


def test_simulate_geometric_series():
    sys = scalar_system(a=0.5, b=1.0)
    traj = simulate(sys, point_belief([0.0]), np.ones((8, 1)), Rng(2))
    for k in range(9):
        assert_allclose(traj.states[k, 0], 2.0 * (1.0 - 0.5**k), atol=1e-12)


def test_simulate_replay_recursion_exact():
    sys = random_system(3, 2, 2, 0.9, Rng(3), sigma_w=0.3, sigma_eps=0.05)
    init = GaussianBelief(mean=np.array([1.0, 0.0, -1.0]), cov=0.1 * np.eye(3))
    u = Rng(4).generator().standard_normal((20, 2))
    traj = simulate(sys, init, u, Rng(5))
    x = traj.states[0]
    for k in range(traj.T):
        x = sys.A @ x + sys.B @ u[k] + sys.E @ traj.disturbances[k]
        assert np.array_equal(x, traj.states[k + 1])
    assert np.array_equal(traj.measurements, traj.states + traj.noises)


def test_simulate_empirical_covariance_of_first_step():
    sys = LinearSystem(
        A=np.array([[0.8, 0.1], [0.0, 0.6]]),
        B=np.array([[0.0], [1.0]]),
        E=np.array([[1.0, 0.0], [0.3, 0.5]]),
        sigma_w=np.diag([0.4, 0.2]),
        sigma_eps=np.zeros((2, 2)),
    )
    init = GaussianBelief(mean=np.zeros(2), cov=np.diag([0.3, 0.1]))
    samples = np.empty((100_000, 2))
    for i in range(samples.shape[0]):
        traj = simulate(sys, init, np.zeros((1, 1)), Rng(100, i))
        samples[i] = traj.states[1]
    expected = sys.A @ init.cov @ sys.A.T + sys.E @ sys.sigma_w @ sys.E.T
    emp = np.cov(samples.T)
    assert np.linalg.norm(emp - expected) / np.linalg.norm(expected) < 0.05


def test_simulate_same_stream_reproduces():
    sys = random_system(2, 1, 1, 0.8, Rng(6), sigma_w=0.2, sigma_eps=0.01)
    init = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))
    u = np.ones((5, 1))
    t1 = simulate(sys, init, u, Rng(7, 0))
    t2 = simulate(sys, init, u, Rng(7, 0))
    assert np.array_equal(t1.states, t2.states)


def test_simulate_dimension_mismatch():
    sys = scalar_system()
    with pytest.raises(DimensionMismatch):
        simulate(sys, point_belief([0.0]), np.zeros((4, 2)), Rng(1))


def simulate_per_step(sys, init, inputs, gen):
    """The earlier per-step ``simulate``, kept as the reference: two draws and
    five matrix-vector products per step."""
    u = np.asarray(inputs, dtype=float).reshape(len(inputs), sys.m)
    t_len = u.shape[0]
    w_factor, e_factor = psd_sqrt_factor(sys.sigma_w), psd_sqrt_factor(sys.sigma_eps)
    states = np.zeros((t_len + 1, sys.n))
    disturbances = np.zeros((t_len, sys.q))
    noises = np.zeros((t_len + 1, sys.n))
    states[0] = init.mean + gen.standard_normal(init.factor.shape[1]) @ init.factor.T
    for k in range(t_len):
        disturbances[k] = w_factor @ gen.standard_normal(sys.q)
        noises[k] = e_factor @ gen.standard_normal(sys.n)
        states[k + 1] = sys.A @ states[k] + sys.B @ u[k] + sys.E @ disturbances[k]
    noises[t_len] = e_factor @ gen.standard_normal(sys.n)
    return states, disturbances, noises


def random_covariance(gen, d, rank):
    """A d x d covariance of the given rank with a dense, non-diagonal factor."""
    f = gen.standard_normal((d, rank))
    return f @ f.T


@given(n=st.integers(1, 4), m=st.integers(1, 3), q=st.integers(1, 4), t_len=st.integers(1, 30),
       flat_u=st.booleans(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_simulate_matches_the_per_step_reference(n, m, q, t_len, flat_u, seed, data):
    gen = np.random.default_rng(seed)
    rank_w, rank_eps, rank_x0 = (data.draw(st.integers(0, d)) for d in (q, n, n))
    sys = LinearSystem(A=0.3 * gen.standard_normal((n, n)), B=gen.standard_normal((n, m)),
                       E=gen.standard_normal((n, q)), sigma_w=random_covariance(gen, q, rank_w),
                       sigma_eps=random_covariance(gen, n, rank_eps))
    init = GaussianBelief(gen.standard_normal(n), random_covariance(gen, n, rank_x0))
    u = gen.standard_normal((t_len, m))
    if flat_u and m == 1:
        u = u[:, 0]
    stream = int(gen.integers(2**32))
    fast_gen, ref_gen = Rng(stream).generator(), Rng(stream).generator()
    traj = simulate(sys, init, u, fast_gen)
    states, disturbances, noises = simulate_per_step(sys, init, u, ref_gen)
    assert fast_gen.bit_generator.state == ref_gen.bit_generator.state

    # The same normals, replayed: x0's, then (w_k, eps_k) per step, then eps_T.
    replay = Rng(stream).generator()
    replay.standard_normal(init.factor.shape[1])
    normals = replay.standard_normal((t_len, q + n))
    eps_normals = np.vstack([normals[:, q:], replay.standard_normal((1, n))])
    eps = np.finfo(float).eps
    w_factor, e_factor = sys.noise_factors
    for got, want, factor, z in ((traj.disturbances, disturbances, w_factor, normals[:, :q]),
                                 (traj.noises, noises, e_factor, eps_normals)):
        # Each entry is a dot product of length r: gemm and gemv may round it differently.
        bound = 2 * factor.shape[1] * eps * (np.abs(z) @ np.abs(factor).T)
        assert np.all(np.abs(got - want) <= bound)
    assert np.array_equal(traj.states[0], states[0])
    assert np.array_equal(traj.measurements, traj.states + traj.noises)
    x = traj.states[0]
    for k in range(t_len):
        x = sys.A @ x + sys.B @ traj.inputs[k] + sys.E @ traj.disturbances[k]
        assert np.array_equal(x, traj.states[k + 1])


def test_simulate_rejects_non_finite_input_before_drawing():
    sys = scalar_system(sw=0.1, se=0.01)
    gen = Rng(9).generator()
    before = gen.bit_generator.state
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="non-finite"):
            simulate(sys, point_belief([0.0]), np.array([0.0, bad, 1.0]), gen)
    assert gen.bit_generator.state == before


@pytest.mark.parametrize("mean, cov", [
    ([np.nan, 0.0], np.eye(2)),
    ([0.0, np.inf], np.eye(2)),
    ([0.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]]),
    ([0.0, 0.0], [[1.0, np.nan], [np.nan, 1.0]]),
], ids=["mean_nan", "mean_inf", "cov_inf", "cov_nan"])
def test_gaussian_belief_rejects_non_finite_input(mean, cov):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="non-finite"):
            GaussianBelief(np.array(mean), np.array(cov))


# ---------------------------------------------------------------------------
# build_multistep
# ---------------------------------------------------------------------------


def test_multistep_first_step_matches_system():
    sys = random_system(3, 2, 1, 0.9, Rng(8))
    model = build_multistep(sys, 4)
    g0, gu, gw = model.step(1)
    assert_allclose(g0, sys.A)
    assert_allclose(gu, sys.B)
    assert_allclose(gw, sys.E)


def test_multistep_second_step_input_blocks():
    sys = random_system(3, 2, 1, 0.9, Rng(9))
    model = build_multistep(sys, 3)
    _, gu2, _ = model.step(2)
    assert_allclose(gu2[:, :2], sys.A @ sys.B)
    assert_allclose(gu2[:, 2:], sys.B)


@given(st.integers(0, 2**32 - 1))
def test_multistep_condensing_recursion_identity(seed):
    sys = random_system(3, 2, 2, 0.95, np.random.default_rng(seed))
    model = build_multistep(sys, 6)
    for k in range(1, 6):
        g0k, guk, gwk = model.step(k)
        g0n, gun, gwn = model.step(k + 1)
        scale = max(np.abs(g0n).max(), 1.0)
        assert np.abs(g0n - sys.A @ g0k).max() <= 1e-12 * scale
        scale_u = max(np.abs(gun).max(), 1.0)
        assert np.abs(gun[:, : k * sys.m] - sys.A @ guk).max() <= 1e-12 * scale_u
        assert_allclose(gun[:, k * sys.m:], sys.B)
        assert np.abs(gwn[:, : k * sys.q] - sys.A @ gwk).max() <= 1e-12 * max(
            np.abs(gwn).max(), 1.0
        )


def test_multistep_mean_matches_recursion(gen):
    sys = random_system(3, 2, 1, 0.9, gen)
    model = build_multistep(sys, 5)
    u = gen.standard_normal((5, 2))
    x0 = gen.standard_normal(3)
    beliefs = propagate_moments_multistep(model, point_belief(x0), u)
    x = x0.copy()
    for k in range(5):
        x = sys.A @ x + sys.B @ u[k]
        assert_allclose(beliefs[k + 1].mean, x, atol=1e-12)


# ---------------------------------------------------------------------------
# moment propagation
# ---------------------------------------------------------------------------


def test_statespace_moments_deterministic_system():
    sys = scalar_system(a=0.7, sw=0.0)
    init = point_belief([2.0])
    beliefs = propagate_moments_statespace(sys, init, np.zeros((4, 1)))
    for b in beliefs:
        assert_allclose(b.cov, 0.0)


def test_statespace_moments_scalar_closed_form():
    a, var_w, var0 = 0.8, 0.3, 0.2
    sys = LinearSystem(
        A=np.array([[a]]),
        B=np.array([[1.0]]),
        E=np.array([[1.0]]),
        sigma_w=np.array([[var_w]]),
        sigma_eps=np.zeros((1, 1)),
    )
    init = GaussianBelief(mean=np.zeros(1), cov=np.array([[var0]]))
    beliefs = propagate_moments_statespace(sys, init, np.zeros((6, 1)))
    for k, b in enumerate(beliefs):
        expected = a ** (2 * k) * var0 + var_w * sum(a ** (2 * i) for i in range(k))
        assert_allclose(b.cov[0, 0], expected, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
def test_propagation_routes_agree(seed):
    g = np.random.default_rng(seed)
    sys = random_system(3, 2, 2, 0.95, g, sigma_w=0.4)
    model = build_multistep(sys, 5)
    init = GaussianBelief(mean=g.standard_normal(3), cov=np.eye(3) * 0.2)
    u = g.standard_normal((5, 2))
    b_ss = propagate_moments_statespace(sys, init, u)
    b_ms = propagate_moments_multistep(model, init, u)
    for bs, bm in zip(b_ss, b_ms):
        assert np.abs(bs.mean - bm.mean).max() <= 1e-10 * max(1.0, np.abs(bs.mean).max())
        assert np.abs(bs.cov - bm.cov).max() <= 1e-10 * max(1.0, np.abs(bs.cov).max())


def test_multistep_fir_mean_ignores_initial_state(gen):
    n, m = 2, 1
    model_src = build_multistep(random_system(n, m, 1, 0.9, gen), 3)
    from mspc.system import MultiStepModel

    fir = MultiStepModel(
        horizon=3,
        g0=[np.zeros((n, n)) for _ in range(3)],
        gu=model_src.gu,
        gw=model_src.gw,
        sigma_w=model_src.sigma_w,
    )
    u = gen.standard_normal((3, m))
    b1 = propagate_moments_multistep(fir, point_belief(np.zeros(n)), u)
    b2 = propagate_moments_multistep(fir, point_belief(np.array([5.0, -3.0])), u)
    for x, y in zip(b1[1:], b2[1:]):
        assert_allclose(x.mean, y.mean)


def test_multistep_covariance_matches_simulation():
    sys = LinearSystem(
        A=np.array([[0.7, 0.2], [-0.1, 0.5]]),
        B=np.array([[1.0], [0.5]]),
        E=np.eye(2),
        sigma_w=0.25 * np.eye(2),
        sigma_eps=np.zeros((2, 2)),
    )
    model = build_multistep(sys, 3)
    init = GaussianBelief(mean=np.array([1.0, -1.0]), cov=0.1 * np.eye(2))
    u = np.array([[0.3], [-0.2], [0.5]])
    beliefs = propagate_moments_multistep(model, init, u)
    samples = np.empty((100_000, 2))
    for i in range(samples.shape[0]):
        traj = simulate(sys, init, u, Rng(200, i))
        samples[i] = traj.states[3]
    emp = np.cov(samples.T)
    assert np.linalg.norm(emp - beliefs[3].cov) / np.linalg.norm(beliefs[3].cov) < 0.05
    assert np.abs(samples.mean(axis=0) - beliefs[3].mean).max() < 0.02


# ---------------------------------------------------------------------------
# random_system
# ---------------------------------------------------------------------------


def test_random_system_spectral_radius():
    sys = random_system(4, 2, 2, 0.9, Rng(10))
    assert max(abs(np.linalg.eigvals(sys.A))) <= 0.9 + 1e-12


def test_random_system_deterministic():
    s1 = random_system(3, 2, 1, 0.8, Rng(11))
    s2 = random_system(3, 2, 1, 0.8, Rng(11))
    assert np.array_equal(s1.A, s2.A)
    assert np.array_equal(s1.B, s2.B)


def test_random_system_shapes():
    sys = random_system(3, 2, 1, 0.9, Rng(12))
    assert sys.A.shape == (3, 3)
    assert sys.B.shape == (3, 2)
    assert sys.E.shape == (3, 1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_system_json_round_trip(tmp_path):
    sys = random_system(3, 2, 2, 0.9, Rng(13), sigma_w=0.2, sigma_eps=0.01)
    path = tmp_path / "system.json"
    _write_json(path, system_to_json(sys))
    # Each matrix one row per line, indented past its key.
    assert path.read_text() == "{\n" + ",\n".join(
        f'  "{name}": [\n' + ",\n".join(f"    {json.dumps(row)}" for row in rows) + "\n  ]"
        for name, rows in system_to_json(sys).items()) + "\n}\n"
    doc = json.loads(path.read_text())
    for name in ("A", "B", "E", "sigma_w", "sigma_eps"):
        assert np.array_equal(np.array(doc[name]), getattr(sys, name)), name
    assert system_to_json(system_from_json(system_to_json(sys))) == system_to_json(sys)


def test_trajectory_csv_round_trip(tmp_path):
    sys = random_system(2, 1, 1, 0.9, Rng(14), sigma_w=0.3, sigma_eps=0.02)
    init = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))
    traj = simulate(sys, init, Rng(15).generator().standard_normal((10, 1)), Rng(16))
    path = tmp_path / "traj.csv"
    _write_csv(path, *trajectory_rows(traj))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == traj.T + 1

    def column(prefix, count, t_len):
        return np.array([[float(row[f"{prefix}{i}"]) for i in range(count)]
                         for row in rows[:t_len]])

    assert np.array_equal(column("x", 2, traj.T + 1), traj.states)
    assert np.array_equal(column("xt", 2, traj.T + 1), traj.measurements)
    assert np.array_equal(column("u", 1, traj.T), traj.inputs)
    assert np.array_equal(column("w", 1, traj.T), traj.disturbances)
    assert np.array_equal(column("eps", 2, traj.T + 1), traj.noises)
    assert rows[-1]["u0"] == rows[-1]["w0"] == ""


def test_trajectory_csv_shape(tmp_path):
    sys = random_system(2, 1, 1, 0.9, Rng(17))
    init = GaussianBelief(mean=np.zeros(2), cov=np.zeros((2, 2)))
    traj = simulate(sys, init, np.zeros((100, 1)), Rng(18))
    path = tmp_path / "traj.csv"
    _write_csv(path, *trajectory_rows(traj))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 102  # header + 101 time indices
    assert lines[0].split(",")[:3] == ["x0", "x1", "xt0"]


def reference_trajectory_csv(traj, path):
    """The per-value ``repr(float(v))`` trajectory writer that ``trajectory_rows`` replaced."""
    n, m, q, t_len = traj.n, traj.m, traj.q, traj.T
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        cols = [f"x{i}" for i in range(n)] + [f"xt{i}" for i in range(n)]
        cols += [f"u{i}" for i in range(m)] + [f"w{i}" for i in range(q)]
        cols += [f"eps{i}" for i in range(n)]
        writer.writerow(cols)
        for k in range(t_len + 1):
            row = [repr(float(v)) for v in traj.states[k]]
            row += [repr(float(v)) for v in traj.measurements[k]]
            if k < t_len:
                row += [repr(float(v)) for v in traj.inputs[k]]
                row += [repr(float(v)) for v in traj.disturbances[k]]
            else:
                row += [""] * (m + q)
            row += [repr(float(v)) for v in traj.noises[k]]
            writer.writerow(row)


_CSV_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1 / 3]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(
    n=st.integers(1, 3), m=st.integers(1, 3), q=st.integers(1, 3),
    t_len=st.sampled_from([1, 2, 7]), data=st.data(),
)
def test_trajectory_csv_matches_reference_writer(tmp_path_factory, n, m, q, t_len, data):
    def draw(rows, cols):
        return np.array(data.draw(st.lists(_CSV_VALUES, min_size=rows * cols,
                                           max_size=rows * cols))).reshape(rows, cols)

    traj = Trajectory(states=draw(t_len + 1, n), measurements=draw(t_len + 1, n),
                      inputs=draw(t_len, m), disturbances=draw(t_len, q),
                      noises=draw(t_len + 1, n))
    out = tmp_path_factory.mktemp("traj")
    _write_csv(out / "new.csv", *trajectory_rows(traj))
    reference_trajectory_csv(traj, out / "reference.csv")
    assert (out / "new.csv").read_bytes() == (out / "reference.csv").read_bytes()

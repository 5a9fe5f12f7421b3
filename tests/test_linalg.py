import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
import scipy.linalg
from scipy import integrate, optimize, special, stats
from scipy.special import gammaln

from mspc import linalg
from mspc.errors import DimensionMismatch, DomainError, IndefiniteMatrix, NotSymmetric
from mspc.linalg import (
    PSD_CLIP_RTOL,
    Rng,
    banded_cholesky_solve,
    check_symmetric,
    chi2_quantile,
    diag_repeat,
    inverse_cholesky_factor,
    max_norm_affine_over_ball,
    psd_sqrt_factor,
    sym_sqrt,
    times_diag_repeat,
    unvec,
    vec,
)

# Frozen via the quadrature oracle below (and standard tables).
CHI2_1_95 = 3.841458820694124
CHI2_2_95 = 5.991464547107979


def chi2_cdf_quadrature(dof: int, x: float) -> float:
    """Independent oracle: numerically integrate the chi-squared density."""
    half = dof / 2.0

    def density(t):
        # In logs, so that large dof neither overflows nor underflows.
        if t <= 0.0:
            return 0.0
        return math.exp((half - 1.0) * math.log(t) - t / 2.0 - half * math.log(2.0)
                        - gammaln(half))
    val, _ = integrate.quad(density, 0.0, x, limit=200, epsabs=1e-13, epsrel=1e-13)
    return val


def sampled_ball_max(a, m, r, n_samples, gen, refine=400):
    """Oracle for the ball maximization: dense boundary sampling plus
    a conditional-gradient ascent polish from the best sample."""
    dim = m.shape[1]
    z = gen.standard_normal((n_samples, dim))
    z *= r / np.linalg.norm(z, axis=1, keepdims=True)
    vals = np.linalg.norm(a + z @ m.T, axis=1)
    raw_max = float(vals.max())
    b = m.T @ a
    bmat = m.T @ m
    z_best = z[int(np.argmax(vals))]
    for _ in range(refine):
        g = bmat @ z_best + b
        norm_g = np.linalg.norm(g)
        if norm_g < 1e-300:
            break
        z_best = r * g / norm_g
    polished = float(np.linalg.norm(a + m @ z_best))
    return raw_max, max(raw_max, polished)


# ---------------------------------------------------------------------------
# Kronecker / vec
# ---------------------------------------------------------------------------


def test_kron_identity_left():
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert_allclose(np.kron(np.eye(1), b), b)


def test_kron_definition_expansion():
    assert_allclose(
        np.kron(np.array([[1.0, 2.0]]), np.array([[0.0], [1.0]])),
        np.array([[0.0, 0.0], [1.0, 2.0]]),
    )


def test_vec_definition():
    assert_allclose(vec(np.array([[1.0, 2.0], [3.0, 4.0]])), [1.0, 3.0, 2.0, 4.0])


def test_vec_zero():
    assert_allclose(vec(np.zeros((2, 3))), np.zeros(6))


def test_unvec_round_trip(gen):
    a = gen.standard_normal((3, 5))
    assert_allclose(unvec(vec(a), 3, 5), a)


def test_unvec_bad_size():
    with pytest.raises(DimensionMismatch):
        unvec(np.zeros(5), 2, 3)


@given(st.integers(0, 2**32 - 1))
def test_kron_vec_identity(seed):
    g = np.random.default_rng(seed)
    x = g.standard_normal((2, 3))
    y = g.standard_normal((3, 4))
    z = g.standard_normal((4, 2))
    assert_allclose(np.kron(z.T, x) @ vec(y), vec(x @ y @ z), atol=1e-12)


# ---------------------------------------------------------------------------
# Symmetric square root
# ---------------------------------------------------------------------------


def test_sym_sqrt_identity():
    assert_allclose(sym_sqrt(np.eye(3)), np.eye(3), atol=1e-14)


def test_sym_sqrt_diagonal():
    assert_allclose(sym_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)


@given(st.integers(0, 2**32 - 1))
def test_sym_sqrt_squares_back(seed):
    g = np.random.default_rng(seed)
    f = g.standard_normal((4, 4))
    a = f @ f.T
    s = sym_sqrt(a)
    assert_allclose(s, s.T, atol=1e-12)
    scale = max(np.abs(a).max(), 1.0)
    assert np.abs(s @ s - a).max() <= 1e-10 * scale


def test_sym_sqrt_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        sym_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_symmetry_checks_reject_non_finite_entries(bad):
    a = np.eye(2)
    a[0, 1] = a[1, 0] = bad
    stack = np.stack([np.eye(2), a])
    for check in (check_symmetric, linalg.assert_psd, linalg.assert_spd, sym_sqrt, psd_sqrt_factor):
        with pytest.raises(DomainError, match="non-finite"):
            check(a)
    with pytest.raises(DomainError, match="non-finite"):
        check_symmetric(stack, stack=True)
    with pytest.raises(DomainError, match="non-finite"):
        psd_sqrt_factor(stack)


def test_sym_sqrt_rejects_indefinite():
    with pytest.raises(IndefiniteMatrix):
        sym_sqrt(np.diag([1.0, -0.5]))


def test_sym_sqrt_clamps_tiny_negative():
    a = np.diag([1.0, -1e-12])
    s = sym_sqrt(a)
    assert s[1, 1] == 0.0


def test_psd_sqrt_factor_stack_matches_each_matrix(gen):
    f = gen.standard_normal((5, 4, 3))
    stack = f @ np.swapaxes(f, -1, -2)     # rank-3 4x4 covariances
    stack[2] *= 1e-9                       # each matrix keeps its own scale
    factors = psd_sqrt_factor(stack)
    assert factors.shape == stack.shape
    for cov, factor in zip(stack, factors):
        assert np.array_equal(factor, psd_sqrt_factor(cov))
        assert np.abs(factor @ factor.T - cov).max() <= 1e-12 * max(np.abs(cov).max(), 1.0)
    assert psd_sqrt_factor(np.zeros((0, 3, 3))).shape == (0, 3, 3)


def _sym_sqrt_reference(a: np.ndarray, rtol: float = PSD_CLIP_RTOL) -> np.ndarray:
    """The earlier stand-alone ``sym_sqrt``, kept verbatim as the reference."""
    a = check_symmetric(a)
    if a.size == 0:
        return a.copy()
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    lam_max = max(float(w[-1]), 0.0)
    if w[0] < -rtol * lam_max:
        raise IndefiniteMatrix(f"matrix has eigenvalue {w[0]:.6e}, not PSD")
    w = np.clip(w, 0.0, None)
    s = (v * np.sqrt(w)) @ v.T
    return 0.5 * (s + s.T)


def _psd_sqrt_factor_reference(cov: np.ndarray, rtol: float = PSD_CLIP_RTOL) -> np.ndarray:
    """The earlier stand-alone ``psd_sqrt_factor``, kept verbatim as the reference."""
    cov = check_symmetric(cov, name="covariance", stack=True)
    if cov.size == 0:
        return cov.copy()
    w, v = np.linalg.eigh(0.5 * (cov + np.swapaxes(cov, -1, -2)))
    lowest = w[..., 0]
    indefinite = lowest < -rtol * np.maximum(w[..., -1], 0.0)
    if np.any(indefinite):
        raise IndefiniteMatrix(f"covariance has eigenvalue {lowest[indefinite].min():.6e}, "
                               "not PSD")
    return v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


def _outcome(fn, a):
    """The array ``fn`` returns, or the type and message of what it raises."""
    try:
        return fn(a)
    except (IndefiniteMatrix, NotSymmetric, DimensionMismatch) as exc:
        return type(exc), str(exc)


def _same_outcome(a) -> None:
    for fn, ref in ((sym_sqrt, _sym_sqrt_reference),
                    (psd_sqrt_factor, _psd_sqrt_factor_reference)):
        got, want = _outcome(fn, a), _outcome(ref, a)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert isinstance(got, np.ndarray) and np.array_equal(got, want)


def _psd(g, d: int, rank: int, scale: float) -> np.ndarray:
    f = scale * g.standard_normal((d, rank))
    return f @ f.T


@given(st.integers(0, 2**32 - 1), st.integers(0, 5), st.data())
def test_psd_roots_match_the_earlier_implementations(seed, d, data):
    g = np.random.default_rng(seed)
    rank = data.draw(st.integers(0, d))         # 0: the zero matrix; d: full rank
    scale = data.draw(st.sampled_from([1e-6, 1.0, 1e3]))
    a = _psd(g, d, rank, scale)
    _same_outcome(a)
    if d > 1:
        # One eigenvalue at -1e-12 lam_max is clamped to zero, not rejected.
        q, _ = np.linalg.qr(g.standard_normal((d, d)))
        lam = scale * np.linspace(1.0, 2.0, d)
        lam[0] = -1e-12 * lam[-1]
        clamped = (q * lam) @ q.T
        clamped = 0.5 * (clamped + clamped.T)
        _same_outcome(clamped)
        assert np.all(psd_sqrt_factor(clamped)[:, 0] == 0.0)
        # An eigenvalue at -1e-4 lam_max is rejected, with the same message.
        lam[0] = -1e-4 * lam[-1]
        indefinite = (q * lam) @ q.T
        _same_outcome(0.5 * (indefinite + indefinite.T))
        skew = a.copy()
        skew[0, 1] += 1.0
        _same_outcome(skew)
        skew[0, 1] = a[0, 1] + 1e-13 * max(np.abs(a).max(), 1.0)   # within SYMMETRY_RTOL
        _same_outcome(skew)
    _same_outcome(np.ones((d, d + 1)))


@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.integers(0, 4))
def test_psd_sqrt_factor_stack_matches_the_earlier_implementation(seed, count, d):
    g = np.random.default_rng(seed)
    stack = np.stack([_psd(g, d, i % (d + 1), 10.0 ** (i - 2)) for i in range(count)]
                     ) if count else np.zeros((0, d, d))
    assert np.array_equal(psd_sqrt_factor(stack), _psd_sqrt_factor_reference(stack))
    if count and d:
        stack[-1, 0, 0] = -1.0
        assert _outcome(psd_sqrt_factor, stack) == _outcome(_psd_sqrt_factor_reference, stack)


def test_psd_sqrt_factor_stack_checks_each_matrix():
    good = np.eye(2)
    with pytest.raises(IndefiniteMatrix):
        psd_sqrt_factor(np.stack([good, np.diag([1.0, -0.5]), good]))
    with pytest.raises(NotSymmetric):
        psd_sqrt_factor(np.stack([good, np.array([[1.0, 2.0], [0.0, 1.0]])]))
    with pytest.raises(DimensionMismatch):
        psd_sqrt_factor(np.ones(3))
    with pytest.raises(IndefiniteMatrix):
        sym_sqrt(np.stack([good, np.diag([1.0, -0.5]), good]))
    # The symmetric root takes a stack too, and roots each matrix as on its own.
    stack = np.stack([good, np.diag([4.0, 0.0]), np.array([[2.0, 1.0], [1.0, 2.0]])])
    assert np.array_equal(sym_sqrt(stack), np.stack([sym_sqrt(a) for a in stack]))


# ---------------------------------------------------------------------------
# Chi-squared quantile
# ---------------------------------------------------------------------------


def test_chi2_quantile_zero():
    assert chi2_quantile(1, 0.0) == 0.0


def test_chi2_quantile_dof2_closed_form():
    assert_allclose(chi2_quantile(2, 0.95), -2.0 * math.log(0.05), atol=1e-10)
    assert_allclose(chi2_quantile(2, 0.95), CHI2_2_95, atol=1e-10)


def test_chi2_quantile_dof1_quadrature_oracle():
    q = chi2_quantile(1, 0.95)
    assert_allclose(q, CHI2_1_95, atol=1e-9)
    assert_allclose(chi2_cdf_quadrature(1, q), 0.95, atol=1e-9)


@pytest.mark.parametrize("dof,prob", [
    (1, 0.5), (3, 0.9), (7, 0.99), (20, 0.1), (2, 0.999999),
    (1, 1e-6), (64, 0.95), (150, 1e-6), (257, 0.5), (400, 1e-6), (400, 0.95), (400, 0.999999),
])
def test_chi2_quantile_matches_quadrature(dof, prob):
    q = chi2_quantile(dof, prob)
    assert_allclose(chi2_cdf_quadrature(dof, q), prob, atol=1e-9)


CHI2_GRID_DOFS = [*range(1, 150), 200, 300, 400]
CHI2_GRID_PROBS = [1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99,
                   0.999, 1 - 1e-4, 1 - 1e-5, 1 - 1e-6]


def test_chi2_quantile_matches_gammaincinv():
    # scipy is the oracle here only.  The residual is taken on the tail that
    # the quantile solves for, where 1 - prob is exact.
    for dof in CHI2_GRID_DOFS:
        for prob in CHI2_GRID_PROBS:
            q = chi2_quantile(dof, prob)
            ref = 2.0 * special.gammaincinv(dof / 2.0, prob)
            assert abs(q - ref) <= 1e-14 * ref, (dof, prob, q, ref)
            if prob <= 0.5:
                assert abs(special.gammainc(dof / 2.0, q / 2.0) - prob) <= 1e-13, (dof, prob)
            else:
                assert abs(special.gammaincc(dof / 2.0, q / 2.0) - (1.0 - prob)) <= 1e-13, (dof, prob)


@pytest.mark.parametrize("prob", [1e-6, 0.1, 0.5, 0.6, 0.85, 0.95, 0.99, 1 - 1e-6])
def test_chi2_quantile_dof1_is_the_erf_root(prob):
    # At dof 1 the tails are erf and erfc of sqrt(q/2), accurate to an ulp or
    # two, so the residual must be what a few ulps of q and of the tail
    # explain: q f(q) is the tail's change per unit relative change of q.  At
    # prob 0.85, 2 gammaincinv(1/2, prob) is itself 2e-14 off this root and
    # leaves 13 times this residual, which is why the grid above leaves 0.85 out.
    q = chi2_quantile(1, prob)
    target = prob if prob <= 0.5 else 1.0 - prob
    tail = math.erf(math.sqrt(q / 2.0)) if prob <= 0.5 else math.erfc(math.sqrt(q / 2.0))
    q_density = math.sqrt(q / (2.0 * math.pi)) * math.exp(-q / 2.0)
    assert abs(tail - target) <= 4.0 * np.finfo(float).eps * (q_density + target)


def test_chi2_quantile_extreme_probabilities():
    assert chi2_quantile(1, 1e-300) == 0.0   # 1.6e-600 underflows
    assert_allclose(chi2_quantile(1, 1e-20), math.pi / 2.0 * 1e-40, rtol=1e-12)
    for dof, prob in ((400, 1e-300), (5, 1.0 - 2.0**-53), (10_000, 0.5), (100_000, 0.95)):
        assert_allclose(chi2_quantile(dof, prob), 2.0 * special.gammaincinv(dof / 2.0, prob),
                        rtol=1e-13)


def test_chi2_quantile_domain_errors():
    with pytest.raises(DomainError):
        chi2_quantile(1, 1.0)
    with pytest.raises(DomainError):
        chi2_quantile(1, -0.1)
    with pytest.raises(DomainError):
        chi2_quantile(0, 0.5)


@given(
    st.integers(1, 30),
    st.floats(0.01, 0.98),
    st.floats(0.001, 0.012),
)
def test_chi2_quantile_increasing_in_prob(dof, prob, bump):
    assert chi2_quantile(dof, prob + bump) > chi2_quantile(dof, prob)


@given(st.integers(1, 30), st.floats(0.01, 0.99))
def test_chi2_quantile_increasing_in_dof(dof, prob):
    assert chi2_quantile(dof + 1, prob) > chi2_quantile(dof, prob)


@given(st.integers(1, 20), st.floats(0.05, 0.995))
def test_chi2_quantile_cdf_round_trip(dof, prob):
    q = chi2_quantile(dof, prob)
    assert_allclose(chi2_quantile(dof, stats.chi2.cdf(q, dof)), q, rtol=1e-8, atol=1e-8)


# ---------------------------------------------------------------------------
# Maximum of an affine norm over a ball
# ---------------------------------------------------------------------------


def test_ball_max_zero_matrix():
    a = np.array([3.0, 4.0])
    assert_allclose(max_norm_affine_over_ball(a, np.zeros((2, 3)), 2.0)[0], 5.0)


def test_ball_max_zero_offset(gen):
    m = gen.standard_normal((3, 4))
    r = 1.7
    expected = r * np.linalg.svd(m, compute_uv=False)[0]
    assert_allclose(max_norm_affine_over_ball(np.zeros(3), m, r)[0], expected, rtol=1e-9)


def test_ball_max_zero_radius(gen):
    a = gen.standard_normal(3)
    m = gen.standard_normal((3, 4))
    assert_allclose(max_norm_affine_over_ball(a, m, 0.0)[0], np.linalg.norm(a))


def test_ball_max_against_sampling_oracle(gen):
    a = gen.standard_normal(3)
    m = gen.standard_normal((3, 4))
    exact = max_norm_affine_over_ball(a, m, 1.0)[0]
    raw_max, polished = sampled_ball_max(a, m, 1.0, 100_000, gen)
    assert exact >= raw_max - 1e-9
    assert exact <= polished + 1e-6


def test_ball_max_hard_case():
    # Offset orthogonal to the dominant singular direction forces the
    # degenerate branch with an explicit top-eigenspace component.
    m = np.diag([2.0, 1.0])
    a = np.array([0.0, 3.0])
    r = 1.0
    gen = np.random.default_rng(7)
    exact = max_norm_affine_over_ball(a, m, r)[0]
    raw_max, polished = sampled_ball_max(a, m, r, 200_000, gen)
    assert exact >= raw_max - 1e-9
    assert exact <= polished + 1e-6


def test_ball_max_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        max_norm_affine_over_ball(np.zeros(3), np.zeros((2, 2)), 1.0)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 3.0), st.floats(0.01, 2.0))
def test_ball_max_monotone_in_radius(seed, r, bump):
    g = np.random.default_rng(seed)
    a = g.standard_normal(3)
    m = g.standard_normal((3, 4))
    wider, narrower = (max_norm_affine_over_ball(a, m, radius)[0] for radius in (r + bump, r))
    assert wider >= narrower - 1e-12


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))
def test_ball_max_triangle_sandwich(seed, r):
    g = np.random.default_rng(seed)
    a = g.standard_normal(4)
    m = g.standard_normal((4, 3))
    result = max_norm_affine_over_ball(a, m, r)[0]
    norm_a = np.linalg.norm(a)
    smax = np.linalg.svd(m, compute_uv=False)[0]
    assert result >= max(norm_a, r * smax) - norm_a - 1e-9
    assert result >= norm_a - 1e-12
    assert result <= norm_a + r * smax + 1e-9


@pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
def test_ball_max_finite_at_extreme_scales(gen, scale):
    # beta holds products of two scaled quantities; its norm must not underflow.
    a = scale * gen.standard_normal(3)
    m = scale * gen.standard_normal((3, 4))
    result = max_norm_affine_over_ball(a, m, 1.0)[0]
    norm_a = np.linalg.norm(a)
    assert norm_a <= result <= (norm_a + np.linalg.norm(m, 2)) * (1.0 + 1e-12)


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_ball_max_scales_with_offset_and_map(gen, scale):
    # f(c a, c M, r) = c f(a, M, r).  The top-eigenspace cutoff must be relative
    # to s_1^2: an absolute one treats every direction of a small M as top and
    # under-estimates the maximum (the unsafe direction for a back-off).
    cases = [(np.array([1.0, 0.3]), np.diag([1.0, 0.5])),
             (gen.standard_normal(3), gen.standard_normal((3, 4)))]
    for a, m in cases:
        expected = scale * max_norm_affine_over_ball(a, m, 1.0)[0]
        assert_allclose(max_norm_affine_over_ball(scale * a, scale * m, 1.0)[0], expected,
                        rtol=1e-12)


def s_lemma_bound(a, nm, shift):
    """Dual bound on max ||a + N y||^2 over ||y|| <= 1 at lambda = s_1^2 + shift > s_1^2.

    ||a + N y||^2 <= ||a + N y||^2 + lambda (1 - ||y||^2), maximized over y:
    lambda + ||a||^2 + sum_i alpha_i^2 s_i^2 / (lambda - s_i^2) with alpha = U'a
    from the SVD of N; lambda - s_i^2 is formed as shift + (s_1^2 - s_i^2).
    """
    u, s, _ = np.linalg.svd(nm, full_matrices=False)
    alpha = u.T @ a
    d = s**2
    shift = np.atleast_1d(shift)[:, None]
    return d[0] + shift[:, 0] + a @ a + np.sum(alpha**2 * d / (shift + (d[0] - d)), axis=1)


def ball_max_case(kind, rows, cols, g):
    """(a, M) of one kind: generic; rank-1; rank-1 with a orthogonal to u_1
    only up to rounding; a repeated top singular value with a orthogonal to
    its left singular space up to rounding; an exact hard case."""
    if kind in ("hard", "repeated"):
        # The top singular value may repeat; a vanishes on its left singular
        # space, exactly for a diagonal M, up to rounding for a rotated one.
        k = min(rows, cols)
        s = np.sort(g.uniform(0.2, 2.0, k))[::-1]
        s[: g.integers(1, k + 1)] = s[0]
        m = np.zeros((rows, cols))
        m[np.arange(k), np.arange(k)] = s
        a = g.standard_normal(rows) * g.uniform(0.0, 2.0)
        if kind == "hard":
            a[: k][s == s[0]] = 0.0
            return a, m
        m = np.linalg.qr(g.standard_normal((rows, rows)))[0] @ m
        m = m @ np.linalg.qr(g.standard_normal((cols, cols)))[0]
        u, sv = np.linalg.svd(m)[:2]
        top = u[:, : k][:, sv >= sv[0] * (1.0 - 1e-12)]
        return a - top @ (top.T @ a), m
    if kind == "generic":
        m = g.standard_normal((rows, cols))
    else:
        m = np.outer(g.standard_normal(rows), g.standard_normal(cols))
    a = g.standard_normal(rows)
    if kind == "orthogonal":
        u1 = np.linalg.svd(m)[0][:, 0]
        a = a - u1 * (u1 @ a)
    return a, m


@settings(max_examples=200)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["generic", "rank1", "orthogonal", "repeated", "hard"]),
    st.integers(1, 5),
    st.integers(1, 5),
    st.floats(0.1, 3.0),
)
def test_ball_max_dual_certificate(seed, kind, rows, cols, r):
    g = np.random.default_rng(seed)
    a, m = ball_max_case(kind, rows, cols, g)
    h_sq = max_norm_affine_over_ball(a, m, r)[0] ** 2
    nm = r * m
    scale = np.linalg.norm(nm, 2) ** 2 + a @ a
    logs = np.linspace(-30.0, 6.0, 400)
    bounds = s_lemma_bound(a, nm, scale * 10.0**logs)
    # Weak duality: every lambda > s_1^2 bounds the maximum from above.
    assert np.all(h_sq <= bounds * (1.0 + 1e-12))
    # Strong duality: the smallest bound meets it.
    i = int(np.argmin(bounds))
    best = optimize.minimize_scalar(
        lambda x: float(s_lemma_bound(a, nm, scale * 10.0**x)[0]),
        bounds=(logs[max(i - 1, 0)], logs[min(i + 1, logs.size - 1)]),
        method="bounded", options={"xatol": 1e-12},
    )
    assert min(best.fun, bounds[i]) <= h_sq * (1.0 + 1e-12)


def brentq_ball_max(a: np.ndarray, m: np.ndarray, r: float) -> float:
    """Reference: the earlier implementation, which found the secular root by brentq."""
    _TINY = np.finfo(float).tiny
    a = np.asarray(a, dtype=float).ravel()
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"M must be a matrix, got shape {m.shape}")
    if m.shape[0] != a.size:
        raise DimensionMismatch(f"incompatible shapes: a has {a.size} rows, M has {m.shape[0]}")
    if r < 0.0:
        raise DomainError("radius must be nonnegative")
    norm_a = float(np.linalg.norm(a))
    if r == 0.0 or m.size == 0 or not np.any(m):
        return norm_a
    # Absorb the radius into the map: max over the unit ball of ||a + (rM) y||.
    m = r * m
    _, sig, vt = np.linalg.svd(m, full_matrices=False)
    if sig[0] <= np.finfo(float).eps * norm_a:
        return norm_a
    d = sig**2
    beta = vt @ (m.T @ a)
    gap = d[0] - d
    top = gap <= 1e-12 * float(d[0])   # relative, so scaling a and M together scales the result
    gap[top] = 0.0
    live = beta != 0.0   # z_i(t) = 0 for every t where beta_i = 0

    def excess(t: float) -> float:
        return float(np.sum((beta[live] / (t + gap[live])) ** 2)) - 1.0

    lo = math.hypot(*beta[top])   # hypot, unlike np.linalg.norm, does not underflow
    hi = math.hypot(*beta)
    coords = np.zeros_like(beta)
    if excess(lo) > 0.0:
        t = hi if excess(hi) >= 0.0 else optimize.brentq(excess, lo, hi, xtol=_TINY)
        coords[live] = beta[live] / (t + gap[live])
    elif lo == 0.0:
        coords[live] = beta[live] / gap[live]
        coords[0] += math.sqrt(max(1.0 - float(np.sum(coords**2)), 0.0))
    else:
        coords[live] = beta[live] / (lo + gap[live])
    return max(float(np.linalg.norm(a + m @ (vt.T @ coords))), norm_a)


def newton_case(kind, rows, cols, g):
    """``ball_max_case`` plus "clustered": top singular values that differ in
    their last digits, just above and below the top-eigenspace cutoff."""
    if kind != "clustered":
        return ball_max_case(kind, rows, cols, g)
    k = min(rows, cols)
    s = np.sort(g.uniform(0.2, 2.0, k))[::-1]
    s[1:] = np.minimum(s[1:], s[0] * (1.0 - 10.0 ** g.uniform(-15.0, -9.0, k - 1)))
    u = np.linalg.qr(g.standard_normal((rows, rows)))[0][:, :k]
    v = np.linalg.qr(g.standard_normal((cols, cols)))[0][:, :k]
    return g.standard_normal(rows), (u * s) @ v.T


NEWTON_KINDS = ["generic", "rank1", "orthogonal", "repeated", "hard", "clustered"]


@settings(max_examples=300)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(NEWTON_KINDS),
    st.integers(1, 11),
    st.integers(1, 16),
    st.floats(0.1, 3.0),
    st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_ball_max_newton_matches_brentq(seed, kind, rows, cols, r, scale):
    g = np.random.default_rng(seed)
    a, m = newton_case(kind, rows, cols, g)
    a, m = scale * a, scale * m
    value = max_norm_affine_over_ball(a, m, r)[0]
    assert value == pytest.approx(brentq_ball_max(a, m, r), rel=1e-13)


@settings(max_examples=300)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(NEWTON_KINDS),
    st.integers(1, 11),
    st.integers(1, 16),
    st.floats(0.1, 3.0),
    st.sampled_from([1e-200, 1e-150, 1e-100, 1e-3, 1e3, 1e100, 1e150, 1e200]),
)
def test_ball_max_newton_scale_equivariant(seed, kind, rows, cols, r, scale):
    # f(c a, c M, r) = c f(a, M, r).  At 1e-150 a near-hard case puts the
    # brentq reference's multiplier among the subnormals, where it loses
    # digits; Newton works in units of ||beta|| and keeps them.  At 1e-200
    # and 1e200, ||a||^2 and beta leave the float range unless the input is
    # first rescaled.
    g = np.random.default_rng(seed)
    a, m = newton_case(kind, rows, cols, g)
    expected = scale * max_norm_affine_over_ball(a, m, r)[0]
    value = max_norm_affine_over_ball(scale * a, scale * m, r)[0]
    assert value == pytest.approx(expected, rel=1e-13)


@settings(max_examples=300)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(NEWTON_KINDS),
    st.integers(1, 11),
    st.integers(1, 16),
    st.floats(0.1, 3.0),
    st.sampled_from([1e-150, 1e-3, 1.0, 1e3, 1e150]),
)
def test_ball_max_newton_iterates_rise_inside_bracket(seed, kind, rows, cols, r, scale):
    g = np.random.default_rng(seed)
    a, m = newton_case(kind, rows, cols, g)
    runs, newton = [], linalg._secular_newton

    def recorded(beta, gap, lo):
        ts = newton(beta, gap, lo)
        runs.append((ts, lo))
        return ts

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_secular_newton", recorded)
        max_norm_affine_over_ball(scale * a, scale * m, r)
    for ts, lo in runs:   # in units of hi, so the bracket is [lo, 1]
        assert ts[0] == lo
        assert all(t_next > t for t, t_next in zip(ts, ts[1:]))
        assert ts[-1] <= 1.0
        assert len(ts) <= linalg._NEWTON_CAP   # the guard was never reached


@settings(max_examples=300)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(NEWTON_KINDS),
    st.integers(1, 11),
    st.integers(1, 16),
    st.floats(0.0, 3.0),
    st.sampled_from([1e-150, 1e-3, 1.0, 1e3, 1e150]),
)
# All of beta is rounding noise here; unscaled, at 1e-150 it is subnormal and
# the maximum came out 3.5e-9 low.
@example(seed=1, kind="repeated", rows=3, cols=3, r=1.0, scale=1e-150)
def test_ball_max_certificate_gap(seed, kind, rows, cols, r, scale):
    g = np.random.default_rng(seed)
    a, m = newton_case(kind, rows, cols, g)
    value, bound = max_norm_affine_over_ball(scale * a, scale * m, r)
    assert abs(bound - value) <= 1e-12 * value


def test_ball_max_certificate_at_early_returns():
    a = np.array([3.0, 4.0])
    assert max_norm_affine_over_ball(a, np.zeros((2, 3)), 2.0) == (5.0, 5.0)
    assert max_norm_affine_over_ball(a, np.ones((2, 3)), 0.0) == (5.0, 5.0)
    assert max_norm_affine_over_ball(a, np.zeros((2, 0)), 1.0) == (5.0, 5.0)
    # A map below rounding of ||a|| is bounded by the triangle inequality.
    value, bound = max_norm_affine_over_ball(a, np.full((2, 1), 5e-16), 1.0)
    assert (value, bound) == (5.0, 5.0 + math.sqrt(2.0) * 5e-16) and bound > 5.0


STACK_SCALES = [1e-200, 1e-100, 1e-3, 1.0, 1e3, 1e100, 1e200]


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 8))
def test_ball_max_stack_matches_single_pairs(seed, rows, cols):
    # One stack of every Newton kind at every scale, with a zero map, a zero
    # radius and a zero offset beside them: each pair is rescaled and solved
    # on its own, so a rescale applied to the whole stack shows here.
    g = np.random.default_rng(seed)
    cases = [newton_case(kind, rows, cols, g) for kind in NEWTON_KINDS]
    cases += [(g.standard_normal(rows), np.zeros((rows, cols))),
              (np.zeros(rows), g.standard_normal((rows, cols)))]
    a = np.array([[scale * a for scale in STACK_SCALES] for a, _ in cases])
    m = np.array([[scale * m for scale in STACK_SCALES] for _, m in cases])
    r = g.uniform(0.0, 3.0, a.shape[:-1])
    r[0, 0] = 0.0
    runs, newton = [], linalg._secular_newton

    def recorded(beta, gap, lo):
        ts = newton(beta, gap, lo)
        runs.append((np.array(ts), lo))
        return ts

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_secular_newton", recorded)
        value, bound = max_norm_affine_over_ball(a, m, r)
    assert value.shape == bound.shape == r.shape and len(runs) == 1
    for index in np.ndindex(r.shape):
        single = max_norm_affine_over_ball(a[index], m[index], float(r[index]))
        assert (value[index], bound[index]) == pytest.approx(single, rel=1e-14, abs=0.0)
    # Per pair, in units of its hi: the iterates start at lo, rise until the
    # pair stops, then hold, and stay inside [lo, 1].
    ts, lo = runs[0]
    assert np.array_equal(ts[0], lo)
    steps = np.diff(ts, axis=0)
    assert np.all(steps >= 0.0) and np.all(ts[-1] <= 1.0)
    held = np.cumsum(steps == 0.0, axis=0) > 0
    assert not np.any(held & (steps > 0.0))
    assert len(ts) <= linalg._NEWTON_CAP


def test_ball_max_stack_checks_every_pair():
    a, m, r = np.ones((3, 2)), np.ones((3, 2, 4)), np.ones(3)
    for bad_a, bad_m in ((math.nan, 0.0), (0.0, math.inf)):
        bad = a.copy(), m.copy()
        bad[0][2, 1] += bad_a
        bad[1][2, 1, 3] += bad_m
        with pytest.raises(DomainError):
            max_norm_affine_over_ball(*bad, r)
    with pytest.raises(DomainError):
        max_norm_affine_over_ball(a, m, np.array([1.0, -1.0, 1.0]))
    for shapes in (((3, 2), (4, 2, 4), (3,)), ((3, 2), (3, 3, 4), (3,)),
                   ((3, 2), (3, 2, 4), (4,)), ((3, 2), (3, 2, 4), (3, 1)), ((3, 2), (2, 4), ())):
        with pytest.raises(DimensionMismatch):
            max_norm_affine_over_ball(*(np.ones(shape) for shape in shapes))


@pytest.mark.parametrize("a, m, r", [
    (np.ones(2), np.ones((2, 2)), math.nan),
    (np.ones(2), np.ones((2, 2)), math.inf),
    (np.array([1.0, math.nan]), np.ones((2, 2)), 1.0),
    (np.array([1.0, math.inf]), np.ones((2, 2)), 1.0),
    (np.ones(2), np.array([[1.0, math.nan], [0.0, 1.0]]), 1.0),
    (np.ones(2), np.array([[1.0, -math.inf], [0.0, 1.0]]), 1.0),
    (np.array([1.0, math.nan]), np.zeros((2, 2)), 0.0),
], ids=["r_nan", "r_inf", "a_nan", "a_inf", "m_nan", "m_inf", "a_nan_zero_radius"])
def test_ball_max_rejects_non_finite_input(a, m, r):
    with pytest.raises(DomainError):
        max_norm_affine_over_ball(a, m, r)


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------


def test_rng_reproducible_and_streams_differ():
    a = Rng(42, 3).generator().standard_normal(8)
    b = Rng(42, 3).generator().standard_normal(8)
    c = Rng(42, 4).generator().standard_normal(8)
    assert_allclose(a, b)
    assert np.abs(a - c).max() > 1e-6


def test_diag_repeat():
    block = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = diag_repeat(block, 2)
    assert_allclose(out[:2, :2], block)
    assert_allclose(out[2:, 2:], block)
    assert_allclose(out[:2, 2:], 0.0)


@pytest.mark.parametrize("rows,k,q", [(1, 1, 1), (2, 3, 2), (4, 6, 3), (3, 0, 2)])
def test_times_diag_repeat_matches_kron(rows, k, q):
    gen = Rng(43).generator()
    a = gen.standard_normal((rows, k * q))
    block = gen.standard_normal((q, q))
    assert_allclose(times_diag_repeat(a, block), a @ diag_repeat(block, k), rtol=0, atol=1e-14)
    with pytest.raises(DimensionMismatch):
        times_diag_repeat(np.ones((rows, 3)), np.eye(2))


def test_inverse_cholesky_factor_solves_like_cho_solve():
    gen = Rng(44).generator()
    root = gen.standard_normal((7, 7))
    a = root @ root.T + 0.1 * np.eye(7)
    factor = inverse_cholesky_factor(a)
    assert np.array_equal(factor, np.triu(factor))
    b = gen.standard_normal((7, 3))
    ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), b)   # scipy as the oracle only
    assert_allclose(factor @ (factor.T @ b), ref, rtol=1e-12, atol=0.0)
    with pytest.raises(np.linalg.LinAlgError):
        inverse_cholesky_factor(np.diag([1.0, -1.0]))


# The two bindings of the band routines agree with scipy's to this relative
# error, taken against the largest entry of the reference.
BAND_RTOL = 1e-13


def band_solve_by(binding: str, band, rhs):
    """banded_cholesky_solve through numpy's OpenBLAS or, with none found, through scipy."""
    if binding == "numpy":
        return banded_cholesky_solve(band, rhs)
    with mock.patch.object(linalg, "_band_lapack", lambda: None):
        return banded_cholesky_solve(band, rhs)


@settings(max_examples=60)
@given(
    size=st.integers(1, 200),
    height=st.one_of(st.integers(1, 12), st.none()),
    nrhs=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_banded_cholesky_solve_matches_scipy(size, height, nrhs, seed):
    # height None stores a band as tall as the matrix, as a record with at
    # most k+1 windows does.  Diagonal dominance makes the matrix positive definite.
    height = size if height is None else min(height, size)
    gen = Rng(seed).generator()
    band = gen.uniform(-1.0, 1.0, (height, size))
    for i in range(1, height):
        band[i, size - i:] = 0.0
    row_sums = np.abs(band[1:]).sum(axis=0)   # off-diagonal |S| below, then left of, the diagonal
    for i in range(1, height):
        row_sums[i:] += np.abs(band[i, : size - i])
    band[0] = row_sums + gen.uniform(0.5, 2.0, size)
    rhs = gen.standard_normal((size, nrhs))
    chol_ref = scipy.linalg.cholesky_banded(band, lower=True)
    white_ref, info = scipy.linalg.lapack.dtbtrs(chol_ref, rhs, uplo="L")
    assert info == 0
    for binding in ("numpy", "scipy"):
        chol, white = band_solve_by(binding, band, rhs)
        assert white.shape == rhs.shape and chol.shape == band.shape
        assert np.abs(chol[0] - chol_ref[0]).max() <= BAND_RTOL * np.abs(chol_ref[0]).max()
        assert np.abs(chol - chol_ref).max() <= BAND_RTOL * np.abs(chol_ref).max()
        assert np.abs(white - white_ref).max() <= BAND_RTOL * np.abs(white_ref).max()


@pytest.mark.parametrize("binding", ["numpy", "scipy"])
def test_banded_cholesky_solve_rejects_indefinite_and_misfit_input(binding):
    band = np.array([[1.0, 1.0, 1.0], [2.0, 0.5, 0.0]])   # leading 2x2 block [[1, 2], [2, 1]]
    assert band_solve_by(binding, band, np.ones((3, 1))) is None
    with pytest.raises(DimensionMismatch):
        band_solve_by(binding, band, np.ones((2, 1)))
    with pytest.raises(DimensionMismatch):
        band_solve_by(binding, np.ones(3), np.ones((3, 1)))

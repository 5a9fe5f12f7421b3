"""Dense linear-algebra and probability kernels used throughout the package.

All operations are pure functions of their inputs; matrices are plain
float64 numpy arrays.  ``Rng`` is an immutable seed handle, so the same
handle always reproduces the same stream.  Chi-squared quantiles at integer
dof invert the finite-sum and series forms of the distribution's tails by
monotone Newton steps.  The exact maximum of an affine norm over a ball
solves the trust-region secular equation by monotone Newton steps and comes
with its S-lemma dual bound, which certifies it on every call.  The module
needs numpy alone, save for the band routines where numpy's wheel OpenBLAS
is not found.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, DomainError, IndefiniteMatrix, NotSymmetric

# Tolerances for symmetry / definiteness checks, relative to the largest
# entry (symmetry) or eigenvalue (definiteness).
SYMMETRY_RTOL = 1e-12
PSD_CLIP_RTOL = 1e-8
SPD_RTOL = 1e-12


def vec(a: np.ndarray) -> np.ndarray:
    """Stack the columns of ``a`` into a single vector."""
    return np.asarray(a, dtype=float).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`: reshape a vector into a rows-by-cols matrix."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != rows * cols:
        raise DimensionMismatch(f"cannot reshape {v.size} entries to {rows}x{cols}")
    return v.reshape(rows, cols, order="F")


def check_symmetric(a: np.ndarray, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Return ``a`` as a float array, raising :class:`DimensionMismatch` unless it is
    square, :class:`DomainError` unless it is finite and :class:`NotSymmetric`
    unless it is symmetric.

    With ``stack``, ``a`` may be a stack (..., d, d) and each matrix is
    checked against its own scale.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)   # NaN or inf when an entry is
    if not np.isfinite(scale).all():
        raise DomainError(f"{name} has non-finite entries")
    tol = SYMMETRY_RTOL * np.maximum(scale, 1.0)
    if np.any(np.abs(a - np.swapaxes(a, -1, -2)).max(axis=(-2, -1), initial=0.0) > tol):
        raise NotSymmetric(f"{name} is not symmetric to relative tolerance {SYMMETRY_RTOL:g}")
    return a


def assert_psd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Check symmetry and positive semidefiniteness up to tolerance."""
    a = check_symmetric(a, name=name)
    if a.size == 0:
        return a
    w = np.linalg.eigvalsh(0.5 * (a + a.T))
    if w[0] < -PSD_CLIP_RTOL * max(float(w[-1]), 0.0):
        raise IndefiniteMatrix(f"{name} has eigenvalue {w[0]:.6e} below tolerance")
    return a


def assert_spd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Check symmetry and strict positive definiteness."""
    a = check_symmetric(a, name=name)
    w = np.linalg.eigvalsh(0.5 * (a + a.T))
    if a.size == 0 or w[0] <= SPD_RTOL * max(float(w[-1]), 0.0):
        raise IndefiniteMatrix(f"{name} must be positive definite (min eig {w[0] if a.size else 'n/a'})")
    return a


def _psd_eigh(a: np.ndarray, name: str):
    """Eigenvalues (clamped at zero) and eigenvectors of a symmetric PSD matrix or stack.

    Eigenvalues in ``[-PSD_CLIP_RTOL * lam_max, 0]`` are clamped to zero; anything
    more negative raises :class:`IndefiniteMatrix`.
    """
    a = check_symmetric(a, name=name, stack=True)
    w, v = np.linalg.eigh(0.5 * (a + np.swapaxes(a, -1, -2)))
    lowest = w.min(axis=-1, initial=0.0)   # eigh sorts ascending; initial covers size 0
    indefinite = lowest < -PSD_CLIP_RTOL * w.max(axis=-1, initial=0.0)
    if np.any(indefinite):
        raise IndefiniteMatrix(f"{name} has eigenvalue {lowest[indefinite].min():.6e}, not PSD")
    return np.clip(w, 0.0, None), v


def sym_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition (see :func:`_psd_eigh`).

    ``a`` may be a stack (..., d, d), as for :func:`psd_sqrt_factor`.
    """
    w, v = _psd_eigh(a, "matrix")
    s = (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)
    return 0.5 * (s + np.swapaxes(s, -1, -2))


def psd_sqrt_factor(cov: np.ndarray) -> np.ndarray:
    """A (not necessarily symmetric) factor L with L @ L.T = cov.

    Uses the eigendecomposition so that singular covariances are accepted.
    ``cov`` may be a stack (..., d, d); each matrix is checked and factored
    on its own, by one stacked ``eigh``.
    """
    w, v = _psd_eigh(cov, "covariance")
    return v * np.sqrt(w)[..., None, :]


def inverse_cholesky_factor(a: np.ndarray) -> np.ndarray:
    """U^{-1} for the Cholesky factor U of a = U'U, so that a^{-1} b = U^{-1} (U^{-T} b).

    numpy has no triangular solve, so the factor is inverted once and every
    solve with it is two matrix-vector products.  LU with partial pivoting
    leaves an upper-triangular U as it is, so ``inv`` is one back substitution
    per column of the identity.  Raises ``np.linalg.LinAlgError`` when ``a``
    is not positive definite.
    """
    return np.linalg.inv(np.linalg.cholesky(a).T)


@functools.cache
def _band_lapack():
    """``dpbtrf`` and ``dtbtrs`` of the OpenBLAS in numpy's wheel, or None where it is absent.

    numpy has loaded that library already, so binding it maps no second BLAS
    and starts no second thread pool.  Its file name, its ``scipy_`` symbol
    prefix and its 64-bit integers belong to the wheel build; a numpy built
    against another BLAS has neither, and the band routines then come from
    scipy.linalg.
    """
    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(str(path))
            dpbtrf, dtbtrs = lib.scipy_dpbtrf_64_, lib.scipy_dtbtrs_64_
        except (OSError, AttributeError):
            continue
        # Fortran passes every argument by reference and each character
        # argument's length after the others.
        int_ref, ptr, length = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p, ctypes.c_size_t
        dpbtrf.argtypes = [ctypes.c_char_p, int_ref, int_ref, ptr, int_ref, int_ref, length]
        dtbtrs.argtypes = ([ctypes.c_char_p] * 3 + [int_ref] * 3 + [ptr, int_ref, ptr, int_ref, int_ref]
                           + [length] * 3)
        dpbtrf.restype = dtbtrs.restype = None
        return dpbtrf, dtbtrs
    return None


def banded_cholesky_solve(band: np.ndarray,
                          rhs: np.ndarray) -> "tuple[np.ndarray, np.ndarray] | None":
    """``(L, L^{-1} rhs)`` for the Cholesky factor L of a symmetric band matrix S = L L',
    or None when S is not positive definite.

    ``band`` holds S in LAPACK's lower band storage, band[i, j] = S[i + j, j],
    and L comes back in that storage, its diagonal in row 0; ``rhs`` is
    (len(S), r).  Both results are new Fortran-ordered arrays.  The routines
    are LAPACK's ``dpbtrf`` and ``dtbtrs``, from numpy's OpenBLAS when it is
    found (:func:`_band_lapack`) and from scipy.linalg otherwise.  The inputs
    are not checked for finiteness.
    """
    ab = np.array(band, dtype=float, order="F")
    b = np.array(rhs, dtype=float, order="F")
    if ab.ndim != 2 or not ab.shape[0] or b.ndim != 2 or b.shape[0] != ab.shape[1]:
        raise DimensionMismatch(f"band {ab.shape} and right-hand side {b.shape} do not fit")
    lapack = _band_lapack()
    if lapack is None:
        from scipy.linalg import lapack as scipy_lapack

        ab, info = scipy_lapack.dpbtrf(ab, lower=1)
        if info == 0:
            b, info = scipy_lapack.dtbtrs(ab, b, uplo="L")
        return None if info else (ab, b)
    dpbtrf, dtbtrs = lapack
    n, kd, nrhs = (ctypes.c_int64(v) for v in (ab.shape[1], ab.shape[0] - 1, b.shape[1]))
    ldab, ldb, info = ctypes.c_int64(ab.shape[0]), ctypes.c_int64(max(1, b.shape[0])), ctypes.c_int64()
    dpbtrf(b"L", n, kd, ab.ctypes.data, ldab, info, 1)
    if info.value == 0:
        dtbtrs(b"L", b"N", b"N", n, kd, nrhs, ab.ctypes.data, ldab, b.ctypes.data, ldb, info, 1, 1, 1)
    return None if info.value else (ab, b)


def diag_repeat(block: np.ndarray, k: int) -> np.ndarray:
    """Block-diagonal matrix with ``k`` copies of ``block``."""
    block = np.asarray(block, dtype=float)
    if k < 0:
        raise DomainError("repetition count must be nonnegative")
    return np.kron(np.eye(k), block)


def times_diag_repeat(a: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``a @ diag_repeat(block, k)`` for ``a`` with k block-sized column groups, by one matmul."""
    a, block = np.asarray(a, dtype=float), np.asarray(block, dtype=float)
    q = block.shape[0]
    if a.ndim != 2 or a.shape[1] % q:
        raise DimensionMismatch(f"{a.shape} is not a stack of {q}-column blocks")
    return (a.reshape(a.shape[0], -1, q) @ block).reshape(a.shape)


# ---------------------------------------------------------------------------
# Chi-squared distribution
# ---------------------------------------------------------------------------


# Guard on the monotone Newton iterations here and in the secular equation;
# the iterates stop after a handful of steps, far below it.
_NEWTON_CAP = 100


def chi2_quantile(dof: int, prob: float) -> float:
    """Quantile of the chi-squared distribution at integer dof.

    Solves T(x) = t for the smaller tail: the lower tail P(x) = prob for prob
    <= 1/2, else the upper tail Q(x) = 1 - prob, which is exact there.  Each
    tail is a sum of positive terms (:func:`_chi2_log_tail`), so it keeps its
    relative accuracy however small it is.  log X has a log-concave density,
    so log P and log Q are concave in log x, and Newton steps on log T
    against log x started where T(x) <= t rise monotonically to the root
    without passing it; they stop once T(x) >= t or x no longer moves.  The
    starts are the bounds P(dof - 2 sqrt(dof s)) <= e^-s and Q(dof + 2
    sqrt(dof s) + 2s) <= e^-s (Laurent & Massart 2000, Lemma 1), and P(x) <=
    (x/2)^(dof/2) / Gamma(dof/2 + 1).  Over dof 1..400 and prob in [1e-6,
    1 - 1e-6] the result is within 1e-14 relative of the inverse regularized
    incomplete gamma function, 2 gammaincinv(dof/2, prob).
    """
    _check_dof(dof)
    if not (0.0 <= prob < 1.0):
        raise DomainError(f"probability must lie in [0, 1), got {prob}")
    if prob == 0.0:
        return 0.0
    lower = prob <= 0.5
    target = math.log(prob if lower else 1.0 - prob)
    root_dof_s = math.sqrt(-dof * target)
    if lower:
        half = dof / 2.0
        x = max(dof - 2.0 * root_dof_s, 2.0 * math.exp((target + math.lgamma(half + 1.0)) / half))
    else:
        x = dof + 2.0 * root_dof_s - 2.0 * target
    sign = 1.0 if lower else -1.0
    for _ in range(_NEWTON_CAP):
        if x == 0.0:   # the quantile underflows
            break
        log_tail, slope = _chi2_log_tail(dof, x, lower)
        if not log_tail < target:
            break
        x_next = x * math.exp(sign * (target - log_tail) / slope)
        if x_next == x:
            break
        x = x_next
    return x


def _chi2_log_tail(dof: int, x: float, lower: bool) -> "tuple[float, float]":
    """log T and |d log T / d log x| = x f / T for one tail T of chi2_dof at x > 0.

    T is the lower tail P (``lower``, for x below the median) or the upper
    tail Q, f the density.  f follows from f(x; 1) = e^(-x/2) / sqrt(2 pi x),
    f(x; 2) = e^(-x/2) / 2 and f(x; d + 2) = f(x; d) x / d, with log f summed
    by ``math.fsum``.  P is the series (2 x f / dof) sum_n prod_(i <= n) x /
    (dof + 2i) (A&S 6.5.29), whose ratios r fall below 1 for x < dof; it
    stops once the last term, times 1 / (1 - r) for the next r, which bounds
    the rest, is below 2^-60 of the sum.  Q is the finite sum Q(x; d) =
    Q(x; d - 2) + 2 f(x; d) from Q(x; 1) = erfc(sqrt(x/2)) or Q(x; 2) =
    2 f(x; 2) (A&S 26.4.4-5), taken down from f(x; dof) by f(x; d - 2) /
    f(x; d) = (d - 2) / x.
    """
    odd = dof % 2
    log_f = math.fsum([-0.5 * x, -0.5 * math.log(2.0 * math.pi * x) if odd else -math.log(2.0),
                       *[math.log(x / d) for d in range(2 - odd, dof - 1, 2)]])
    if lower:
        series = term = 1.0
        for d in range(dof + 2, 3 * dof + 200, 2):   # past 3 dof each ratio is below 1/3
            term *= x / d
            series += term
            if term <= 2.0**-60 * series * (1.0 - x / (d + 2)):
                break
        return math.log(2.0 * x / dof) + log_f + math.log(series), dof / (2.0 * series)
    series = term = 1.0 if dof > 1 else 0.0   # the d = dof term, absent at dof 1
    for d in range(dof - 2, 1 + odd, -2):   # the terms d = dof - 2, ..., 3 or 2
        term *= d / x
        series += term
    f = math.exp(log_f)
    tail = 2.0 * f * series + (math.erfc(math.sqrt(0.5 * x)) if odd else 0.0)
    return math.log(tail), x * f / tail


def _check_dof(dof: int) -> None:
    if int(dof) != dof or dof < 1:
        raise DomainError(f"degrees of freedom must be a positive integer, got {dof}")


# ---------------------------------------------------------------------------
# Maximum of an affine norm over a ball
# ---------------------------------------------------------------------------


# Inputs whose largest entry lies outside [2^-64, 2^64] are rescaled into it.
_SCALE_EXPONENT_MAX = 64


def max_norm_affine_over_ball(a: np.ndarray, m: np.ndarray, r: "float | np.ndarray"):
    """Exact maximum of ``||a + M z||`` over the ball ``||z|| <= r``, and an upper bound on it.

    The squared objective is a convex quadratic, so the maximum lies on the
    sphere.  With r absorbed into M = U diag(s) V', beta = diag(s) U' a and
    gap_i = s_1^2 - s_i^2, the maximizer is V z(t) with z_i(t) = beta_i /
    (t + gap_i), where the shifted multiplier t >= 0 solves the secular
    equation ||z(t)|| = 1 (More & Sorensen 1983).  ||z(t)|| decreases in t,
    from >= 1 at ||beta_top|| to <= 1 at ||beta||, and 1/||z(t)|| is
    increasing and concave there, so Newton's method on 1/||z(t)|| - 1 from
    the lower end rises monotonically to the root (:func:`_secular_newton`)
    with no bisection and no tolerance.
    When beta has no top-eigenspace component and ||z(0)|| <= 1 (the "hard"
    case), the rest of the unit length goes along the top singular direction.

    The bound is the S-lemma (Lagrangian) dual at lambda = t + s_1^2:
    ||a + M z||^2 <= ||a + M z||^2 + lambda (1 - ||z||^2) <= ||a||^2 + lambda
    + sum_i beta_i^2 / (t + gap_i) on the ball, for any t > 0 (Ben-Tal &
    Nemirovski, Lectures on Modern Convex Optimization).  At the root it meets
    the maximum, and it stays finite in the hard case, where t = 0 and every
    beta_i with gap_i = 0 vanishes.  So the two numbers certify each other.

    ``a`` (..., p), ``M`` (..., p, c) and ``r``, a scalar or (...), may carry
    leading stack axes.  Every pair is solved on its own, through one stacked
    SVD, and the value and bound come back as arrays of the stack's shape; a
    1-D ``a`` gives two floats.  Non-finite input raises :class:`DomainError`.
    """
    a, m, r = (np.asarray(x, dtype=float) for x in (a, m, r))
    stack = a.shape[:-1]
    if a.ndim < 1 or m.shape != a.shape + m.shape[-1:] or r.shape not in ((), stack):
        raise DimensionMismatch(f"offset {a.shape}, map {m.shape} and radius {r.shape} "
                                "are not one stack of (p,), (p, c) and ()")
    if not (np.isfinite(r).all() and np.isfinite(a).all() and np.isfinite(m).all()):
        raise DomainError("offset, map and radius must be finite")
    if np.any(r < 0.0):
        raise DomainError("radius must be nonnegative")
    pairs = math.prod(stack)
    a, m = a.reshape(pairs, a.shape[-1]), m.reshape((pairs,) + m.shape[-2:])
    # Absorb the radius into the map: max over the unit ball of ||a + (rM) y||.
    m = np.broadcast_to(r, stack).reshape(pairs, 1, 1) * m
    # As LAPACK's dgesvd does, bring each pair's extreme scale into range
    # first, here by a power of two, which is exact.  Otherwise the squares and the
    # rounding-level components of beta turn subnormal and lose their digits,
    # or overflow.
    shift = np.frexp(np.maximum(np.abs(a).max(axis=-1, initial=0.0),
                                np.abs(m).max(axis=(-2, -1), initial=0.0)))[1]
    shift = np.where(np.abs(shift) > _SCALE_EXPONENT_MAX, shift, 0)
    a, m = np.ldexp(a, -shift[:, None]), np.ldexp(m, -shift[:, None, None])
    norm_a = np.linalg.norm(a, axis=-1)
    _, sig, vt = np.linalg.svd(m, full_matrices=False)
    sig_top = sig[:, 0] if sig.shape[-1] else np.zeros(pairs)
    # A map below rounding of ||a||, zero or empty, is bounded by the triangle inequality.
    value, bound = norm_a.copy(), norm_a + sig_top
    solve = sig_top > np.finfo(float).eps * norm_a
    if solve.any():
        a, m, vt, d, norm_a = a[solve], m[solve], vt[solve], sig[solve] ** 2, norm_a[solve]
        beta = (vt @ (np.swapaxes(m, -1, -2) @ a[:, :, None]))[:, :, 0]
        gap = d[:, :1] - d
        top = gap <= 1e-12 * d[:, :1]   # relative, so scaling a and M together scales the result
        gap[top] = 0.0
        lo = np.hypot.reduce(np.where(top, beta, 0.0), axis=-1)   # hypot does not underflow
        hi = np.hypot.reduce(beta, axis=-1)
        # From here t, beta and gap are in units of hi, so that neither t nor
        # z(t) = beta / (t + gap) leaves the normal range at extreme scales.  A
        # unit gap where beta_i = 0 keeps z_i(t) = 0 and every division finite.
        unit = np.where(hi > 0.0, hi, 1.0)
        beta, lo = beta / unit[:, None], lo / unit
        gap = np.where(beta != 0.0, gap / unit[:, None], 1.0)
        t = _secular_newton(beta, gap, lo)[-1]
        coords = beta / (t[:, None] + gap)
        hard = t == 0.0   # the hard case
        coords[hard, 0] += np.sqrt(np.maximum(1.0 - np.sum(coords[hard] ** 2, axis=-1), 0.0))
        reached = a + (m @ (np.swapaxes(vt, -1, -2) @ coords[:, :, None]))[:, :, 0]
        value[solve] = np.maximum(np.linalg.norm(reached, axis=-1), norm_a)
        bound[solve] = np.sqrt(norm_a**2 + d[:, 0] + hi * (t + np.sum(beta * coords, axis=-1)))
    value, bound = (np.ldexp(x, shift).reshape(stack) for x in (value, bound))
    return (float(value), float(bound)) if not stack else (value, bound)


def _secular_newton(beta: np.ndarray, gap: np.ndarray, lo: np.ndarray) -> "list[np.ndarray]":
    """Newton iterates for ||z(t)|| = 1 on [lo, 1], one pair per row; the last is the multiplier.

    The arguments are in units of hi = ||beta|| of their row, which keeps the
    cubes below from under- or overflowing; a row's zero beta_i come with a
    positive gap_i, and a row of zeros stays at lo = 0.  The step of g(t) =
    1/||z(t)|| - 1 is (||z|| - 1) ||z||^2 / sum_i beta_i^2 / (t + gap_i)^3.
    g is increasing and concave, so each tangent meets zero at or below the
    root: a pair's iterates rise from lo, never pass it, and stop when a step no
    longer increases t.  A stopped pair keeps its t, which its next step
    would not move either; the loop ends when no pair moves.  So ||z(lo)|| <= 1
    gives lo alone (at lo = 0 the hard case), and ||z(1)|| >= 1 ends at the
    clip 1.
    """
    ts = [lo]
    for _ in range(_NEWTON_CAP):
        t = ts[-1]
        w = 1.0 / (t[:, None] + gap)
        z = beta * w
        z *= z
        norm_sq = z.sum(axis=-1)
        slope = (z * w).sum(axis=-1)
        step = np.divide((np.sqrt(norm_sq) - 1.0) * norm_sq, slope,
                         out=np.zeros_like(t), where=slope > 0.0)
        t_next = np.minimum(t + step, 1.0)
        rise = t_next > t
        if not rise.any():
            break
        ts.append(np.where(rise, t_next, t))
    return ts


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rng:
    """Immutable handle for a reproducible random stream.

    The same ``(master_seed, stream_index)`` pair always reproduces the same
    sample sequence; distinct stream indices give statistically independent
    streams.  Being a value, an ``Rng`` can be shared freely; concurrent use
    requires distinct stream indices.
    """

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        """A fresh numpy generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_index,))
        return np.random.default_rng(seq)


def generator_of(rng: "Rng | np.random.Generator") -> np.random.Generator:
    """Accept either an Rng value or an already-instantiated generator."""
    if isinstance(rng, Rng):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected Rng or numpy Generator, got {type(rng)!r}")

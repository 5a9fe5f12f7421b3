"""Linear stochastic systems: simulation, condensing, and moment propagation.

The one-step model is ``x_{k+1} = A x_k + B u_k + E w_k`` with Gaussian
disturbances ``w_k ~ N(0, sigma_w)`` and, on the measurement side,
``xm_k = x_k + eps_k`` with ``eps_k ~ N(0, sigma_eps)``.  A multi-step
model holds, per horizon step k, the matrices mapping initial state,
stacked inputs, and stacked disturbances directly to the state k steps
ahead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, DomainError
from .linalg import (
    Rng,
    assert_psd,
    generator_of,
    psd_sqrt_factor,
    times_diag_repeat,
)


@dataclass(frozen=True)
class LinearSystem:
    """Ground-truth system matrices and noise covariances."""

    A: np.ndarray
    B: np.ndarray
    E: np.ndarray
    sigma_w: np.ndarray
    sigma_eps: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.A, dtype=float)
        b = np.asarray(self.B, dtype=float)
        e = np.asarray(self.E, dtype=float)
        sw = np.asarray(self.sigma_w, dtype=float)
        se = np.asarray(self.sigma_eps, dtype=float)
        n = a.shape[0]
        if a.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got {a.shape}")
        if b.ndim != 2 or b.shape[0] != n:
            raise DimensionMismatch(f"B must have {n} rows, got {b.shape}")
        if e.ndim != 2 or e.shape[0] != n:
            raise DimensionMismatch(f"E must have {n} rows, got {e.shape}")
        if sw.shape != (e.shape[1], e.shape[1]):
            raise DimensionMismatch(f"sigma_w must be {e.shape[1]}x{e.shape[1]}, got {sw.shape}")
        if se.shape != (n, n):
            raise DimensionMismatch(f"sigma_eps must be {n}x{n}, got {se.shape}")
        for name, mat in (("A", a), ("B", b), ("E", e), ("sigma_w", sw), ("sigma_eps", se)):
            if not np.all(np.isfinite(mat)):
                raise DomainError(f"{name} has non-finite entries")
        assert_psd(sw, name="sigma_w")
        assert_psd(se, name="sigma_eps")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "E", e)
        object.__setattr__(self, "sigma_w", 0.5 * (sw + sw.T))
        object.__setattr__(self, "sigma_eps", 0.5 * (se + se.T))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def q(self) -> int:
        return self.E.shape[1]

    @cached_property
    def noise_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Square-root factors of sigma_w and sigma_eps, computed once per system."""
        return psd_sqrt_factor(self.sigma_w), psd_sqrt_factor(self.sigma_eps)


@dataclass(frozen=True)
class GaussianBelief:
    """Mean and covariance of a Gaussian state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).ravel()
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise DimensionMismatch(f"mean has {mean.size} entries, cov shape {cov.shape}")
        if not np.isfinite(mean).all():
            raise DomainError("mean has non-finite entries")
        assert_psd(cov, name="state covariance")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", 0.5 * (cov + cov.T))

    @cached_property
    def factor(self) -> np.ndarray:
        """Square-root factor of cov, computed once per belief."""
        return psd_sqrt_factor(self.cov)


@dataclass(frozen=True)
class MultiStepModel:
    """Per-step prediction matrices (G0_k, Gu_k, Gw_k), k = 1..horizon.

    ``g0[k-1]`` maps the initial state, ``gu[k-1]`` the stacked inputs
    u_[0,k-1], and ``gw[k-1]`` the stacked disturbances w_[0,k-1] to the
    state k steps ahead.  The disturbance covariance travels with the model
    because every variance-side consumer needs the pair (Gw_k, sigma_w).
    """

    horizon: int
    g0: list = field(repr=False)
    gu: list = field(repr=False)
    gw: list = field(repr=False)
    sigma_w: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.horizon < 1:
            raise DomainError("horizon must be >= 1")
        if not (len(self.g0) == len(self.gu) == len(self.gw) == self.horizon):
            raise DimensionMismatch("need one (G0, Gu, Gw) triple per horizon step")
        n = self.g0[0].shape[0]
        m = self.gu[0].shape[1]
        q = self.gw[0].shape[1]
        for k in range(1, self.horizon + 1):
            if self.g0[k - 1].shape != (n, n):
                raise DimensionMismatch(f"G0 at step {k} must be {n}x{n}")
            if self.gu[k - 1].shape != (n, k * m):
                raise DimensionMismatch(f"Gu at step {k} must be {n}x{k * m}")
            if self.gw[k - 1].shape != (n, k * q):
                raise DimensionMismatch(f"Gw at step {k} must be {n}x{k * q}")
        sw = np.asarray(self.sigma_w, dtype=float)
        if sw.shape != (q, q):
            raise DimensionMismatch(f"sigma_w must be {q}x{q}, got {sw.shape}")
        object.__setattr__(self, "sigma_w", 0.5 * (sw + sw.T))

    @property
    def n(self) -> int:
        return self.g0[0].shape[0]

    @property
    def m(self) -> int:
        return self.gu[0].shape[1]

    @property
    def q(self) -> int:
        return self.gw[0].shape[1]

    def step(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (G0, Gu, Gw) triple for horizon step k (1-based)."""
        if not 1 <= k <= self.horizon:
            raise DomainError(f"step must lie in [1, {self.horizon}], got {k}")
        return self.g0[k - 1], self.gu[k - 1], self.gw[k - 1]


@dataclass(frozen=True)
class Trajectory:
    """A simulated run with all realized noise kept for exact replay."""

    states: np.ndarray        # (T+1, n)
    measurements: np.ndarray  # (T+1, n)
    inputs: np.ndarray        # (T, m)
    disturbances: np.ndarray  # (T, q)
    noises: np.ndarray        # (T+1, n)

    def __post_init__(self):
        x = np.asarray(self.states, dtype=float)
        xm = np.asarray(self.measurements, dtype=float)
        u = np.asarray(self.inputs, dtype=float)
        w = np.asarray(self.disturbances, dtype=float)
        eps = np.asarray(self.noises, dtype=float)
        t = u.shape[0]
        if x.shape[0] != t + 1 or xm.shape != x.shape or eps.shape != x.shape:
            raise DimensionMismatch("states/measurements/noises must have T+1 rows")
        if w.shape[0] != t:
            raise DimensionMismatch("disturbances must have T rows")
        for name, arr in (("states", x), ("measurements", xm), ("inputs", u),
                          ("disturbances", w), ("noises", eps)):
            object.__setattr__(self, name, arr)

    @property
    def T(self) -> int:
        return self.inputs.shape[0]

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def m(self) -> int:
        return self.inputs.shape[1]

    @property
    def q(self) -> int:
        return self.disturbances.shape[1]


def _as_input_sequence(inputs: np.ndarray, m: int) -> np.ndarray:
    """Coerce to a (T, m) array; 1-D sequences are accepted when m == 1."""
    u = np.asarray(inputs, dtype=float)
    if u.ndim == 1:
        if m != 1:
            raise DimensionMismatch(f"inputs must be (T, {m}), got shape {u.shape}")
        u = u[:, None]
    if u.ndim != 2 or u.shape[1] != m:
        raise DimensionMismatch(f"inputs must be (T, {m}), got shape {u.shape}")
    return u


def simulate(
    sys: LinearSystem,
    init: GaussianBelief,
    inputs: np.ndarray,
    rng: "Rng | np.random.Generator",
) -> Trajectory:
    """Simulate the system under the given input sequence.

    Draw order is fixed (x0, then w_k and eps_k step by step, then eps_T) so
    a given stream always reproduces the same trajectory.  The normals of the
    T steps come as one (T, q + n) block, row k holding w_k's then eps_k's,
    which is that order; only the state recursion runs step by step.
    Raises :class:`DomainError` on a non-finite input, before anything is drawn.
    """
    u = _as_input_sequence(inputs, sys.m)
    t_len = u.shape[0]
    if t_len < 1:
        raise DimensionMismatch("need at least one input")
    if init.mean.size != sys.n:
        raise DimensionMismatch("initial belief dimension does not match the system")
    if not np.isfinite(u).all():
        raise DomainError("inputs have non-finite entries")

    gen = generator_of(rng)
    w_factor, e_factor = sys.noise_factors

    states = np.empty((t_len + 1, sys.n))
    # x0 ~ N(mean, cov), drawn through the cached factor L with L L' = cov.
    x = states[0] = init.mean + gen.standard_normal(init.factor.shape[1]) @ init.factor.T
    normals = gen.standard_normal((t_len, sys.q + sys.n))
    disturbances = normals[:, : sys.q] @ w_factor.T
    noises = np.vstack([normals[:, sys.q:], gen.standard_normal((1, sys.n))]) @ e_factor.T
    for k in range(t_len):
        x = states[k + 1] = sys.A @ x + sys.B @ u[k] + sys.E @ disturbances[k]

    return Trajectory(
        states=states,
        measurements=states + noises,
        inputs=u,
        disturbances=disturbances,
        noises=noises,
    )


def build_multistep(sys: LinearSystem, horizon: int) -> MultiStepModel:
    """Condense the one-step model into per-step prediction matrices.

    G0_k = A^k, Gu_k = [A^{k-1} B, ..., B], Gw_k = [A^{k-1} E, ..., E].
    """
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    powers = [np.eye(sys.n)]
    for _ in range(horizon):
        powers.append(np.linalg.matrix_power(sys.A, len(powers)))
    g0, gu, gw = [], [], []
    for k in range(1, horizon + 1):
        g0.append(powers[k])
        gu.append(np.hstack([powers[k - 1 - i] @ sys.B for i in range(k)]))
        gw.append(np.hstack([powers[k - 1 - i] @ sys.E for i in range(k)]))
    return MultiStepModel(horizon=horizon, g0=g0, gu=gu, gw=gw, sigma_w=sys.sigma_w.copy())


def propagate_moments_statespace(
    sys: LinearSystem, init: GaussianBelief, inputs: np.ndarray
) -> list[GaussianBelief]:
    """Mean/covariance recursion, returning beliefs for k = 0..T."""
    u = _as_input_sequence(inputs, sys.m)
    if init.mean.size != sys.n:
        raise DimensionMismatch("initial belief dimension does not match the system")
    noise_cov = sys.E @ sys.sigma_w @ sys.E.T
    beliefs = [init]
    mean, cov = init.mean, init.cov
    for k in range(u.shape[0]):
        mean = sys.A @ mean + sys.B @ u[k]
        cov = sys.A @ cov @ sys.A.T + noise_cov
        beliefs.append(GaussianBelief(mean=mean, cov=cov))
    return beliefs


def propagate_moments_multistep(
    model: MultiStepModel, init: GaussianBelief, inputs: np.ndarray
) -> list[GaussianBelief]:
    """Direct multi-step moments, returning beliefs for k = 0..T."""
    u = _as_input_sequence(inputs, model.m)
    if u.shape[0] > model.horizon:
        raise DimensionMismatch(f"model horizon {model.horizon} < input length {u.shape[0]}")
    if init.mean.size != model.n:
        raise DimensionMismatch("initial belief dimension does not match the model")
    beliefs = [init]
    u_flat = u.ravel()
    for k in range(1, u.shape[0] + 1):
        g0, gu, gw = model.step(k)
        mean = gu @ u_flat[: k * model.m] + g0 @ init.mean
        cov = g0 @ init.cov @ g0.T + times_diag_repeat(gw, model.sigma_w) @ gw.T
        beliefs.append(GaussianBelief(mean=mean, cov=0.5 * (cov + cov.T)))
    return beliefs


def random_system(
    n: int,
    m: int,
    q: int,
    spectral_radius_max: float,
    rng: "Rng | np.random.Generator",
    sigma_w: "np.ndarray | float" = 0.1,
    sigma_eps: "np.ndarray | float" = 0.0,
) -> LinearSystem:
    """Random test system with spectral radius capped at the given value."""
    if spectral_radius_max <= 0:
        raise DomainError("spectral_radius_max must be positive")
    gen = generator_of(rng)
    a = gen.standard_normal((n, n))
    rho = max(abs(np.linalg.eigvals(a)))
    if rho > 0:
        a *= spectral_radius_max / rho
    b = gen.standard_normal((n, m))
    e = gen.standard_normal((n, q))
    sw = np.asarray(sigma_w, dtype=float)
    if sw.ndim == 0:
        sw = float(sw) * np.eye(q)
    se = np.asarray(sigma_eps, dtype=float)
    if se.ndim == 0:
        se = float(se) * np.eye(n)
    return LinearSystem(A=a, B=b, E=e, sigma_w=sw, sigma_eps=se)


# ---------------------------------------------------------------------------
# JSON-ready converters; cli writes the files
# ---------------------------------------------------------------------------


def system_to_json(sys: LinearSystem) -> dict:
    return {
        "A": sys.A.tolist(),
        "B": sys.B.tolist(),
        "E": sys.E.tolist(),
        "sigma_w": sys.sigma_w.tolist(),
        "sigma_eps": sys.sigma_eps.tolist(),
    }


def system_from_json(doc: dict) -> LinearSystem:
    """Parse a system written by ``system_to_json``, as a config's ``inline`` block is."""
    return LinearSystem(
        A=np.asarray(doc["A"], dtype=float),
        B=np.asarray(doc["B"], dtype=float),
        E=np.asarray(doc["E"], dtype=float),
        sigma_w=np.asarray(doc["sigma_w"], dtype=float),
        sigma_eps=np.asarray(doc["sigma_eps"], dtype=float),
    )


def trajectory_rows(traj: Trajectory) -> "tuple[list[str], list[list]]":
    """Column names and one list of floats per time index; the final row's u/w cells are ''."""
    n, t_len = traj.n, traj.T
    drives = [f"u{i}" for i in range(traj.m)] + [f"w{i}" for i in range(traj.q)]
    columns = ([f"x{i}" for i in range(n)] + [f"xt{i}" for i in range(n)] + drives
               + [f"eps{i}" for i in range(n)])
    rows = np.hstack([traj.states[:t_len], traj.measurements[:t_len], traj.inputs,
                      traj.disturbances, traj.noises[:t_len]]).tolist()
    rows.append(traj.states[t_len].tolist() + traj.measurements[t_len].tolist()
                + [""] * len(drives) + traj.noises[t_len].tolist())
    return columns, rows

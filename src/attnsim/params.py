"""Model-parameter construction and spectrum analysis.

All randomness flows through numpy's Philox bit generator (counter-based,
64-bit) keyed directly by the caller's seed, so identical seeds reproduce
identical parameters on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import quadspace
from .errors import DomainError, GenerationError, ShapeError, SingularMatrixError

MAX_RESAMPLE = 100
SKEW_SCALE = 0.1  # std-dev of the antisymmetric factors T_w, T_a (see note in build_scenario)
FLOAT_FORMAT = "%.17g"  # 17 significant digits: every double reads back exactly


def generator(seed: int) -> np.random.Generator:
    """The package-wide seeded generator (Philox4x64)."""
    return np.random.Generator(np.random.Philox(key=seed))


def spawn_seeds(seed: int, n: int) -> list[int]:
    """Derive n documented sub-seeds from one master seed."""
    return [int(s.generate_state(1, dtype=np.uint64)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


class LambdaKind(Enum):
    IDENTITY_SCALED = "identity_scaled"
    DIAG_SCALED = "diag_scaled"


@dataclass(frozen=True, eq=False)
class LambdaMod:
    """Learned regularizer added to the rotary interaction matrix:
    lam * I for IDENTITY_SCALED, lam * diag(diag) for DIAG_SCALED. diag is
    kept as a read-only float copy."""

    kind: LambdaKind
    lam: float
    diag: np.ndarray | None = None

    def __post_init__(self):
        if not -np.inf < self.lam < 0:
            raise DomainError("lambda must be negative and finite")
        if self.kind is LambdaKind.DIAG_SCALED:
            if self.diag is None:
                raise DomainError("diag_scaled requires a diag vector")
            d = np.array(self.diag, dtype=float)
            if d.ndim != 1 or not np.all((d > 0) & (d < np.inf)):
                raise DomainError("diag entries must be strictly positive and finite")
            d.flags.writeable = False
            object.__setattr__(self, "diag", d)
        elif self.diag is not None:
            raise DomainError("identity_scaled takes no diag vector")


@dataclass(frozen=True, eq=False)
class RopeParams:
    """Rotary query/key matrices, kept as read-only float copies."""

    Qbar: np.ndarray
    Kbar: np.ndarray
    theta_base: float = 10000.0
    lambda_mod: LambdaMod | None = None

    def __post_init__(self):
        if not 0 < self.theta_base < np.inf:
            raise DomainError("theta_base must be positive and finite")
        for name in ("Qbar", "Kbar"):
            m = np.array(getattr(self, name), dtype=float)  # a copy, in the input's memory order
            m.flags.writeable = False
            object.__setattr__(self, name, m)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Square query/key/value matrices plus optional rotary extras.

    Immutable: Q, K and V are read-only float copies of the inputs, and the
    interaction matrix W = Q K^T / sqrt(Dk) is computed once, here, so every
    right-hand-side call reads it instead of recomputing it. Use
    dataclasses.replace to change a matrix; W follows. Equality and hash
    are by identity: array fields have no single truth value to compare.
    """

    D: int
    Q: np.ndarray
    K: np.ndarray
    V: np.ndarray
    Dk: int | None = None
    rope: RopeParams | None = None
    W: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.Dk is None:
            object.__setattr__(self, "Dk", self.D)
        for name in ("Q", "K", "V"):
            m = np.array(getattr(self, name), dtype=float)  # a copy, in the input's memory order
            if m.shape != (self.D, self.D):
                raise ShapeError(f"{name} must be {self.D}x{self.D}, got {m.shape}")
            m.flags.writeable = False
            object.__setattr__(self, name, m)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, by name
            W = self.Q @ self.K.T / np.sqrt(self.Dk)
        if not np.isfinite(W).all():
            raise DomainError("W = Q K^T / sqrt(Dk) is not finite")
        W.flags.writeable = False
        object.__setattr__(self, "W", W)
        if self.rope is not None:
            if self.D % 2 != 0:
                raise DomainError("rotary parameters require even D")
            for name in ("Qbar", "Kbar"):
                shape = getattr(self.rope, name).shape
                if shape != (self.D, self.D):
                    raise ShapeError(f"{name} must be {self.D}x{self.D}, got {shape}")


class Scenario(Enum):
    CONVERGENCE = "convergence"
    DIVERGENCE = "divergence"
    INTERMEDIATE = "intermediate"


@dataclass(frozen=True)
class ScenarioSpec:
    scenario: Scenario
    D: int
    seed: int
    symmetric: bool = False  # zero the antisymmetric factors (T_w = T_a = 0)

    def __post_init__(self):
        if self.D < 2:
            raise DomainError("scenario dimension must be >= 2")


@dataclass(frozen=True)
class SpectrumStats:
    pct_pos_Wsym: float
    pct_pos_Asym: float
    pct_near_zero_V: float
    n_singular_V: int = 0


def softplus(x):
    """log(1 + e^x), stable on both tails. Accepts scalars or arrays."""
    x = np.asarray(x, dtype=float)
    out = np.where(x > 0, x + np.log1p(np.exp(-np.abs(x))), np.log1p(np.exp(np.minimum(x, 0.0))))
    return float(out) if out.ndim == 0 else out


def random_params(D: int, seed: int, scale: float = 1.0) -> ModelParams:
    """Q, K, V with i.i.d. Normal(0, scale^2) entries; V re-drawn until
    invertible (at most MAX_RESAMPLE tries)."""
    if D < 2:
        raise DomainError("D must be >= 2")
    if scale <= 0:
        raise DomainError("scale must be positive")
    rng = generator(seed)
    Q = scale * rng.standard_normal((D, D))
    K = scale * rng.standard_normal((D, D))
    for _ in range(MAX_RESAMPLE):
        V = scale * rng.standard_normal((D, D))
        try:
            quadspace.invert(V)
        except SingularMatrixError:
            continue
        return ModelParams(D=D, Q=Q, K=K, V=V, Dk=D)
    raise GenerationError(f"no invertible V in {MAX_RESAMPLE} draws")


def derive_W_A(params: ModelParams):
    """W = Q K^T / sqrt(Dk) and A = W (V^T)^{-1}; requires invertible V."""
    return params.W, params.W @ quadspace.invert(params.V.T)


def params_from_w_and_v(W, V) -> ModelParams:
    """Parameters realizing a given interaction matrix W and value matrix V
    exactly (Q = W, K = I, Dk = 1)."""
    W = np.asarray(W, dtype=float)
    D = W.shape[0]
    return ModelParams(D=D, Q=W, K=np.eye(D), V=np.asarray(V, dtype=float), Dk=1)


def params_from_w_and_a(W, A) -> ModelParams:
    """Parameters realizing given W and A = W (V^T)^{-1} exactly; W and A
    must both be invertible."""
    W = np.asarray(W, dtype=float)
    A = np.asarray(A, dtype=float)
    V = (quadspace.invert(A) @ W).T
    return params_from_w_and_v(W, V)


def _unit_lower(rng, D):
    L = np.tril(rng.standard_normal((D, D)), -1)
    np.fill_diagonal(L, 1.0)
    return L


def _scenario_signs(scenario: Scenario, D: int):
    s_w = np.ones(D)
    if scenario is Scenario.CONVERGENCE:
        s_a = -np.ones(D)
    elif scenario is Scenario.DIVERGENCE:
        s_a = np.ones(D)
    else:  # equal split; odd D gets the extra positive sign
        s_a = np.concatenate([np.ones((D + 1) // 2), -np.ones(D // 2)])
    return s_w, s_a


def _sample_scenario_targets(rng, spec: ScenarioSpec):
    """One draw of (Q, W_target, A_target) for the scenario construction."""
    D = spec.D
    s_w, s_a = _scenario_signs(spec.scenario, D)
    Q = rng.standard_normal((D, D))
    L_w, d_w = _unit_lower(rng, D), rng.standard_normal(D)
    T_w = SKEW_SCALE * rng.standard_normal((D, D))
    L_a, d_a = _unit_lower(rng, D), rng.standard_normal(D)
    T_a = SKEW_SCALE * rng.standard_normal((D, D))
    if spec.symmetric:
        T_w = T_a = np.zeros((D, D))
    W_target = L_w @ np.diag(s_w * softplus(d_w)) @ L_w.T + T_w - T_w.T
    A_target = L_a @ np.diag(s_a * softplus(d_a)) @ L_a.T + T_a - T_a.T
    return Q, W_target, A_target


def build_scenario(spec: ScenarioSpec) -> ModelParams:
    """Construct parameters guaranteed to land in the requested regime.

    Targets are assembled from unit-lower-triangular factors with
    softplus-positive diagonals (signed per scenario) plus antisymmetric
    parts, then K and V are solved for so that W = Q K^T (Dk = 1) equals
    W_target and A = W (V^T)^{-1} equals A_target. By Sylvester inertia the
    symmetric parts inherit the diagonal's signature exactly.

    The antisymmetric factors are drawn at std-dev SKEW_SCALE: at unit scale
    the mean flow picks up complex eigenvalues with positive real part for
    roughly half the convergence draws and the tokens genuinely diverge,
    defeating the regime the construction is supposed to pin.
    """
    rng = generator(spec.seed)
    for _ in range(MAX_RESAMPLE):
        Q, W_target, A_target = _sample_scenario_targets(rng, spec)
        try:
            K = (quadspace.invert(Q) @ W_target).T
            V = (quadspace.invert(A_target) @ W_target).T
        except SingularMatrixError:
            continue
        params = ModelParams(D=spec.D, Q=Q, K=K, V=V, Dk=1)
        _assert_scenario(params, spec.scenario)
        return params
    raise GenerationError(f"scenario construction failed in {MAX_RESAMPLE} attempts")


def _assert_scenario(params: ModelParams, scenario: Scenario):
    W, A = derive_W_A(params)
    w_kind = quadspace.classify_definiteness(W)
    if w_kind is not quadspace.Definiteness.POSITIVE_DEFINITE:
        raise GenerationError(f"W_sym came out {w_kind.value}")
    n_pos = quadspace.count_positive_eigs(A)
    expect = {
        Scenario.CONVERGENCE: 0,
        Scenario.DIVERGENCE: params.D,
        Scenario.INTERMEDIATE: (params.D + 1) // 2,
    }[scenario]
    if n_pos != expect:
        raise GenerationError(f"A_sym has {n_pos} positive eigenvalues, expected {expect}")


def eigen_stats(Q, K, V, eps: float = 1e-3) -> SpectrumStats:
    """Spectral percentages of one (Q, K, V) triple: % positive eigenvalues
    of W_sym and A_sym, and % of V's eigenvalues with modulus <= eps. A
    singular V leaves A undefined: pct_pos_Asym is NaN and n_singular_V 1."""
    p = ModelParams(D=len(Q), Q=Q, K=K, V=V)
    try:
        pct_A, singular = 100.0 * (quadspace.count_positive_eigs(derive_W_A(p)[1]) / p.D), 0
    except SingularMatrixError:
        pct_A, singular = float("nan"), 1
    pct_V = float(100.0 * np.mean(np.abs(np.linalg.eigvals(p.V)) <= eps))
    return SpectrumStats(100.0 * (quadspace.count_positive_eigs(p.W) / p.D), pct_A, pct_V, singular)


def save_matrix(path, M):
    """Write a matrix in the plain text exchange format: a 'rows cols'
    header line, then one row per line of whitespace-separated reals."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ShapeError("only 2-d matrices are supported")
    with open(path, "w") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        for row in M:
            fh.write(" ".join(FLOAT_FORMAT % x for x in row) + "\n")


def load_matrix(path) -> np.ndarray:
    """Parse the text exchange format written by save_matrix."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DomainError(f"{path}:1: expected 'rows cols' header")
        try:
            rows, cols = int(header[0]), int(header[1])
        except ValueError as exc:
            raise DomainError(f"{path}:1: malformed header") from exc
        data = fh.read().split()
    if len(data) != rows * cols:
        raise DomainError(f"{path}: expected {rows * cols} values, found {len(data)}")
    try:
        values = np.array([float(x) for x in data])
    except ValueError as exc:
        raise DomainError(f"{path}: non-numeric entry") from exc
    return values.reshape(rows, cols)

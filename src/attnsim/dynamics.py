"""ODE right-hand sides for self-attention token dynamics.

Token states are (L, D) arrays, one row per token. Right-hand sides are
pure: they never mutate X and depend on nothing but their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractError, DomainError, ShapeError
from .params import LambdaKind, ModelParams, interaction_matrix


class PosEncKind(Enum):
    NONE = "none"
    ABSOLUTE_SINUSOIDAL = "absolute_sinusoidal"
    ABSOLUTE_GIVEN = "absolute_given"
    ROTARY = "rotary"


@dataclass(frozen=True)
class PosEnc:
    kind: PosEncKind
    P: np.ndarray | None = None  # required for ABSOLUTE_GIVEN

    def __post_init__(self):
        if self.kind is PosEncKind.ABSOLUTE_GIVEN:
            if self.P is None:
                raise DomainError("absolute_given needs an explicit P matrix")
            object.__setattr__(self, "P", np.asarray(self.P, dtype=float))
        elif self.P is not None:
            raise DomainError(f"{self.kind.value} takes no P matrix")


def attention_weights(logits) -> np.ndarray:
    """Stable softmax of a logit vector (log-sum-exp shifted)."""
    z = np.asarray(logits, dtype=float)
    if z.ndim != 1:
        raise ShapeError("logits must be a vector")
    return _softmax_rows(z[None, :])[0]


def _softmax_rows(Z):
    if not np.isfinite(Z).all():
        raise ContractError("non-finite attention logits")
    E = np.exp(Z - Z.max(axis=1, keepdims=True))
    return E / E.sum(axis=1, keepdims=True)


def _check_state(params, X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ShapeError("token state must be a nonempty (L, D) array")
    if X.shape[1] != params.D:
        raise ShapeError(f"state dimension {X.shape[1]} != params.D {params.D}")
    return X


def rhs_vanilla(params: ModelParams, X) -> np.ndarray:
    """dx_l = V^T sum_i softmax_i(x_l^T W x_.) x_i with W = Q K^T / sqrt(Dk)."""
    X = _check_state(params, X)
    W = interaction_matrix(params)
    P = _softmax_rows(X @ W @ X.T)
    return (P @ X) @ params.V


def sinusoidal_encoding(L: int, D: int, offset: int = 0) -> np.ndarray:
    """Sinusoidal position table: sin(i * 10000^(-j/D)) on even feature
    columns, cos with the preceding even exponent on odd ones. Positions are
    zero-based; offset shifts the first position index."""
    if L < 1 or D < 1:
        raise DomainError("need L >= 1 and D >= 1")
    i = np.arange(offset, offset + L, dtype=float)[:, None]
    j = np.arange(D)
    expo = np.where(j % 2 == 0, j, j - 1) / D
    angles = i * 10000.0 ** (-expo)
    return np.where(j % 2 == 0, np.sin(angles), np.cos(angles))


def rhs_absolute(params: ModelParams, P, X) -> np.ndarray:
    """Absolute-positional-encoding dynamics; identical to the vanilla field
    evaluated at the shifted state X + P."""
    X = _check_state(params, X)
    P = np.asarray(P, dtype=float)
    if P.shape != X.shape:
        raise ShapeError(f"position matrix {P.shape} does not match state {X.shape}")
    return rhs_vanilla(params, X + P)


def _rope_angles(D: int, theta_base: float, m) -> np.ndarray:
    """The angles m * theta_k of rotation_matrix, shaped m.shape + (D/2,)."""
    if D % 2 != 0:
        raise DomainError("rotary rotations require even D")
    k = np.arange(D // 2)
    return np.multiply.outer(np.asarray(m, dtype=float), theta_base ** (-2.0 * k / D))


def rotation_matrix(D: int, theta_base: float, m) -> np.ndarray:
    """Block-diagonal rotary matrix: 2x2 rotations by m * theta_k with
    theta_k = theta_base^(-2(k-1)/D), k = 1..D/2."""
    theta = _rope_angles(D, theta_base, float(m))
    k = np.arange(D // 2)
    c, s = np.cos(theta), np.sin(theta)
    R = np.zeros((D, D))
    R[2 * k, 2 * k] = c
    R[2 * k, 2 * k + 1] = -s
    R[2 * k + 1, 2 * k] = s
    R[2 * k + 1, 2 * k + 1] = c
    return R


def _require_rope(params):
    if params.rope is None:
        raise ContractError("rotary dynamics need rope parameters (Qbar, Kbar)")
    return params.rope


def rhs_rotary(params: ModelParams, X) -> np.ndarray:
    """Rotary dynamics: per-pair logits x_l^T W_{li} x_i, weights softmaxed
    over i, summand V^T x_i.

    W_li = W + Qbar R(i - l) Kbar^T / sqrt(Dk) plus the lambda regulariser.
    Since R(i - l) = R(l)^T R(i), the rotary term factorises: rotate each
    token's query and key by that token's own position, then take one
    L x L product.
    """
    X = _check_state(params, X)
    rope = _require_rope(params)
    W = interaction_matrix(params)
    mod = rope.lambda_mod
    if mod is not None:
        W = W + mod.lam * (np.eye(params.D) if mod.kind is LambdaKind.IDENTITY_SCALED else np.diag(mod.diag))
    theta = _rope_angles(params.D, rope.theta_base, np.arange(X.shape[0]))
    c, s = np.cos(theta), np.sin(theta)
    Y = np.stack((X @ rope.Qbar, X @ rope.Kbar))  # queries and keys, (2, L, D)
    rot = np.empty_like(Y)  # row l turned by R(l), feature pair by pair
    rot[..., 0::2] = c * Y[..., 0::2] - s * Y[..., 1::2]
    rot[..., 1::2] = s * Y[..., 0::2] + c * Y[..., 1::2]
    P = _softmax_rows(X @ W @ X.T + rot[0] @ rot[1].T / np.sqrt(params.Dk))
    return (P @ X) @ params.V


def rhs_for(params: ModelParams, posenc: PosEnc, L: int):
    """Bind a position encoding to params and return rhs(X) plus the
    absolute position table used (None for vanilla and rotary)."""
    if posenc.kind is PosEncKind.NONE:
        return (lambda X: rhs_vanilla(params, X)), None
    if posenc.kind is PosEncKind.ROTARY:
        _require_rope(params)
        return (lambda X: rhs_rotary(params, X)), None
    if posenc.kind is PosEncKind.ABSOLUTE_SINUSOIDAL:
        P = sinusoidal_encoding(L, params.D)
    else:
        P = posenc.P
        if P.shape != (L, params.D):
            raise ShapeError(f"given positions {P.shape} do not match (L, D) = ({L}, {params.D})")
    return (lambda X: rhs_absolute(params, P, X)), P

"""ODE right-hand sides for self-attention token dynamics.

Token states are (L, D) arrays, one row per token. Right-hand sides are
pure: they never mutate X and depend on nothing but their arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, DomainError, ShapeError
from .params import LambdaKind, ModelParams

# ones by size, to total an L x L logit block with L <= 16 by one BLAS dot; a larger block,
# whose ones would take as much memory as the block itself, is totalled by a reduction
_ONES = {L * L: np.ones(L * L) for L in range(1, 17)}


def _softmax_rows(Z):
    """Row softmax of the logits Z, computed in Z's own memory: Z is consumed."""
    # a non-finite logit makes the total non-finite; an overflowing total is settled entrywise
    ones = _ONES.get(Z.size)
    total = np.add.reduce(Z, axis=None) if ones is None else Z.ravel().dot(ones)
    if not math.isfinite(total) and not np.isfinite(Z).all():
        raise ContractError("non-finite attention logits")
    Z -= np.maximum.reduce(Z, axis=1, keepdims=True)
    np.exp(Z, out=Z)
    Z /= np.add.reduce(Z, axis=1, keepdims=True)
    return Z


def _check_state(params, X):
    # C order keeps every .dot on one BLAS path, so no result depends on the caller's layout
    X = np.asarray(X, dtype=float, order="C")
    shape = X.shape
    if len(shape) != 2 or shape[0] < 1:
        raise ShapeError("token state must be a nonempty (L, D) array")
    if shape[1] != params.D:
        raise ShapeError(f"state dimension {shape[1]} != params.D {params.D}")
    return X


# OpenBLAS runs a gemm of m*n*k <= 2**18 on the calling thread. Past that its threads cost a narrow
# state more than they save (a 256 x 256 x 16 logits gemm: about 80 us on one thread, 330-440 us on
# two) and can change the result's bits, so a larger state takes its attention average in row blocks
# of that size, whatever its D.
_ONE_THREAD_MNK = 1 << 18


def _logits(XT, XW, rope, b):
    """The logit rows b: (XW)[b] X^T, with XT = X^T, plus, for rope = (Q, KT, s),
    the rotary term Q[b] KT / s, computed apart and then added."""
    Z = XW[b].dot(XT)
    if rope is not None:
        Q, KT, s = rope
        R = Q[b].dot(KT)
        R /= s
        Z += R
    return Z


def _attention_average(X, W, rope=None):
    """Row l is sum_i softmax_i(z_li) x_i on the checked state X, with the logits z of _logits, XW = X W.

    Blocked, each block of rows takes its logits, their softmax and its weighted sum before the next
    block starts, so no product wakes BLAS threads and no logit array is larger than one block."""
    L, D = X.shape
    if L * L * D <= _ONE_THREAD_MNK:
        return _softmax_rows(X.dot(W).dot(X.T) if rope is None else _logits(X.T, X.dot(W), rope, slice(None))).dot(X)
    # C-ordered transposed keys make each block's logits product about a third faster in OpenBLAS
    # (and may round it differently in the last place)
    XT = np.ascontiguousarray(X.T)
    if rope is not None:
        rope = (rope[0], np.ascontiguousarray(rope[1]), rope[2])
    XW = X.dot(W)
    rows = max(1, _ONE_THREAD_MNK // (L * D))  # at L * D > 2**18, one row a block
    out = np.empty_like(X)
    for start in range(0, L, rows):
        b = slice(start, start + rows)
        np.dot(_softmax_rows(_logits(XT, XW, rope, b)), X, out=out[b])
    return out


def rhs_vanilla(params: ModelParams, X) -> np.ndarray:
    """dx_l = V^T sum_i softmax_i(x_l^T W x_.) x_i with W = Q K^T / sqrt(Dk)."""
    X = _check_state(params, X)
    return _attention_average(X, params.W).dot(params.V)


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
    """The rotary angles m * theta_k, theta_k = theta_base^(-2(k-1)/D), shaped m.shape + (D/2,)."""
    if D % 2 != 0:
        raise DomainError("rotary rotations require even D")
    k = np.arange(D // 2)
    return np.multiply.outer(np.asarray(m, dtype=float), theta_base ** (-2.0 * k / D))


def rhs_rotary(params: ModelParams, X) -> np.ndarray:
    """Rotary dynamics: per-pair logits x_l^T W_{li} x_i, weights softmaxed
    over i, summand V^T x_i.

    W_li = W + Qbar R(i - l) Kbar^T / sqrt(Dk) plus the lambda regulariser.
    Since R(i - l) = R(l)^T R(i), the rotary term factorises: rotate each
    token's query and key by that token's own position, then take their
    products in the attention average's row blocks.
    """
    X = _check_state(params, X)
    rope = params.rope
    if rope is None:
        raise ContractError("rotary dynamics need rope parameters (Qbar, Kbar)")
    W = params.W
    mod = rope.lambda_mod
    if mod is not None:
        W = W + mod.lam * (np.eye(params.D) if mod.kind is LambdaKind.IDENTITY_SCALED else np.diag(mod.diag))
    theta = _rope_angles(params.D, rope.theta_base, np.arange(X.shape[0]))
    c, s = np.cos(theta), np.sin(theta)
    Y = np.stack((X.dot(rope.Qbar), X.dot(rope.Kbar)))  # queries and keys, (2, L, D)
    rot = np.empty_like(Y)  # row l turned by R(l), feature pair by pair
    rot[..., 0::2] = c * Y[..., 0::2] - s * Y[..., 1::2]
    rot[..., 1::2] = s * Y[..., 0::2] + c * Y[..., 1::2]
    return _attention_average(X, W, (rot[0], rot[1].T, np.sqrt(params.Dk))).dot(params.V)


def rhs_for(params: ModelParams, P=None):
    """The autonomous field rhs(X) of a run: rotary when params carry rope,
    absolute encoding with the position table P when one is given, vanilla
    otherwise. The lambdas look rhs_vanilla and rhs_rotary up here at call
    time, so a wrapper installed on this module sees every evaluation."""
    if params.rope is not None:
        if P is not None:
            raise DomainError("rotary encoding takes no position table")
        return lambda X: rhs_rotary(params, X)
    if P is not None:
        return lambda X: rhs_absolute(params, P, X)
    return lambda X: rhs_vanilla(params, X)

"""ODE right-hand sides for self-attention token dynamics.

Token states are (L, D) arrays, one row per token. Right-hand sides are
pure: they never mutate X and depend on nothing but their arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, DomainError, ShapeError
from .params import LambdaKind, ModelParams

# OpenBLAS's ddot stays on the calling thread up to this many entries; a larger block's squares are
# summed by einsum, which, like the dot, makes no temporary
_ONE_THREAD_DOT = 10000
# a sum of squared logits below this puts every |z| below 600, where exp(z) is a normal number and a
# row sum cannot overflow for L < 4.7e47: no shift by the row maximum is needed
_UNSHIFTED_Q = 600.0**2


def _exp_rows(Z):
    """The softmax's numerators exp(z), computed in Z's own memory (Z is consumed), each row shifted
    by its maximum when a logit could reach 600. Raises ContractError on a non-finite logit."""
    # vdot is the same ddot as z.dot(z) but, unlike it, warns of no overflow: a finite block may square past inf
    q = np.vdot(Z, Z) if Z.size <= _ONE_THREAD_DOT else np.einsum("ij,ij->", Z, Z)
    if not q < _UNSHIFTED_Q:
        if math.isfinite(q):  # every |z| < 1.34e154, so no difference overflows
            Z -= np.maximum.reduce(Z, axis=1, keepdims=True)
        elif np.isfinite(Z).all():  # an overflowing square: settled entrywise
            # a row spread past 1.8e308 takes its far logits to -inf, whose weight is 0
            with np.errstate(over="ignore"):
                Z -= np.maximum.reduce(Z, axis=1, keepdims=True)
        else:
            raise ContractError("non-finite attention logits")
    return np.exp(Z, out=Z)


def _softmax_rows(Z):
    """Row softmax of the logits Z, computed in Z's own memory: Z is consumed."""
    Z = _exp_rows(Z)
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
# two) and can change the result's bits, so a larger attention average goes in row blocks of that size.
_ONE_THREAD_MNK = 1 << 18


def _attention_average(Q, K, V):
    """Row l is sum_i softmax_i(q_l . k_i) v_i: queries Q (L, Dq), keys K (Lk, Dq), values V (Lk, Dv).

    One product while L * Lk * max(Dq, Dv) <= 2**18: the softmax weights times V. Past that, each block of
    2**18 // (Lk * max(Dq, Dv)) rows takes its logits, their exponentials, its weighted sum and that sum's
    division by the row sums before the next block starts, so no product wakes BLAS threads and no logit
    array is larger than one block. A single row passes 2**18 once Lk * max(Dq, Dv) does (L * D for the
    vanilla field, L * 2D for the rotary one); then a block is one row. Dividing Dv sums a row instead of
    Lk weights is what makes the blocks faster; the one product keeps the softmax's order and so its bits.
    Unshifted weights reach e**600, so a block's weighted sum is finite only for max|v| below about
    1e308 / (Lk e**600)."""
    per_row = K.size if K.size >= V.size else V.size  # Lk * max(Dq, Dv): one row's part of the largest product
    if len(Q) * per_row <= _ONE_THREAD_MNK:
        return _softmax_rows(Q.dot(K.T)).dot(V)
    # C-ordered transposed keys make each block's logits product about a third faster in OpenBLAS
    # (and may round it differently in the last place)
    KT = np.ascontiguousarray(K.T)
    rows = max(1, _ONE_THREAD_MNK // per_row)
    out = np.empty((len(Q), V.shape[1]))
    for start in range(0, len(Q), rows):
        b = slice(start, start + rows)
        E = _exp_rows(Q[b].dot(KT))
        block = np.dot(E, V, out=out[b])
        block /= np.add.reduce(E, axis=1, keepdims=True)
        del E  # one block's logits at a time
    return out


def rhs_vanilla(params: ModelParams, X) -> np.ndarray:
    """dx_l = V^T sum_i softmax_i(x_l^T W x_.) x_i with W = Q K^T / sqrt(Dk)."""
    X = _check_state(params, X)
    return _attention_average(X.dot(params.W), X, X).dot(params.V)


def sinusoidal_encoding(L: int, D: int, offset: int = 0) -> np.ndarray:
    """Sinusoidal position table: sin(i * theta_k) in feature column 2k and cos(i * theta_k) in column
    2k + 1, theta_k the rotary frequencies at base 10000. Positions are zero-based; offset shifts the
    first position index."""
    if L < 1 or D < 1:
        raise DomainError("need L >= 1 and D >= 1")
    angles = _rope_angles(D, 10000.0, np.arange(offset, offset + L))
    P = np.empty((L, D))
    P[:, 0::2], P[:, 1::2] = np.sin(angles), np.cos(angles[:, :D // 2])
    return P


def rhs_absolute(params: ModelParams, P, X) -> np.ndarray:
    """Absolute-positional-encoding dynamics; identical to the vanilla field
    evaluated at the shifted state X + P."""
    X = _check_state(params, X)
    P = np.asarray(P, dtype=float)
    if P.shape != X.shape:
        raise ShapeError(f"position matrix {P.shape} does not match state {X.shape}")
    return rhs_vanilla(params, X + P)


def _rope_angles(D: int, theta_base: float, m) -> np.ndarray:
    """The angles m * theta_k, theta_k = theta_base^(-2k/D) for k < ceil(D/2), shaped m.shape + (ceil(D/2),)."""
    k = np.arange((D + 1) // 2)
    return np.multiply.outer(np.asarray(m, dtype=float), theta_base ** (-2.0 * k / D))


def rhs_rotary(params: ModelParams, X) -> np.ndarray:
    """Rotary dynamics: per-pair logits x_l^T W_{li} x_i, weights softmaxed
    over i, summand V^T x_i.

    W_li = W + Qbar R(i - l) Kbar^T / sqrt(Dk) plus the lambda regulariser.
    Since R(i - l) = R(l)^T R(i), the rotary term factorises: rotate each
    token's query Qbar^T x_l and key Kbar^T x_i by that token's own
    position. Query l is then [x_l^T W | (R(l) Qbar^T x_l)^T / sqrt(Dk)] and
    key i is [x_i^T | (R(i) Kbar^T x_i)^T], so one product q_l . k_i gives
    the whole logit and the attention average takes it like any other.
    """
    X = _check_state(params, X)
    rope = params.rope
    if rope is None:
        raise ContractError("rotary dynamics need rope parameters (Qbar, Kbar)")
    W = params.W
    mod = rope.lambda_mod
    if mod is not None:
        W = W + mod.lam * (np.eye(params.D) if mod.kind is LambdaKind.IDENTITY_SCALED else np.diag(mod.diag))
    L, D = X.shape
    theta = _rope_angles(D, rope.theta_base, np.arange(L))
    c, s = np.cos(theta), np.sin(theta)
    Y = np.stack((X.dot(rope.Qbar), X.dot(rope.Kbar)))  # unrotated queries and keys, (2, L, D)
    F = np.empty((2, L, 2 * D))  # query and key features
    F[0, :, :D], F[1, :, :D] = X.dot(W), X
    rot = F[..., D:]  # row l turned by R(l), feature pair by pair
    rot[..., 0::2] = c * Y[..., 0::2] - s * Y[..., 1::2]
    rot[..., 1::2] = s * Y[..., 0::2] + c * Y[..., 1::2]
    rot[0] /= np.sqrt(params.Dk)
    return _attention_average(F[0], F[1], X).dot(params.V)


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

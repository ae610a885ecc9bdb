import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attnsim import dynamics, quadspace
from attnsim.analyze import stationarity_residual
from attnsim.dynamics import (
    _attention_average,
    _rope_angles,
    _softmax_rows,
    rhs_absolute,
    rhs_rotary,
    rhs_vanilla,
    sinusoidal_encoding,
)
from attnsim.errors import ContractError, DomainError, ShapeError
from attnsim.params import LambdaKind, LambdaMod, ModelParams, RopeParams, generator, random_params


def _plain(D, Q, K, V, Dk=None):
    return ModelParams(D=D, Q=np.asarray(Q, float), K=np.asarray(K, float), V=np.asarray(V, float), Dk=Dk)


def _rope(D, Q, K, V, Qbar, Kbar, Dk=1, lambda_mod=None):
    return ModelParams(
        D=D, Q=Q, K=K, V=V, Dk=Dk,
        rope=RopeParams(Qbar=np.asarray(Qbar, float), Kbar=np.asarray(Kbar, float), lambda_mod=lambda_mod),
    )


def test_rhs_vanilla_extreme_logits_stay_finite():
    # logits 1000 apart: the shifted softmax puts all weight on one token
    p = _plain(1, [[1.0]], [[1.0]], [[1.0]], Dk=1)
    X = np.array([[np.sqrt(1000.0)], [0.0]])
    out = rhs_vanilla(p, X)
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out[0], X[0])


def test_rhs_vanilla_rejects_non_finite_logits():
    p = _plain(1, [[1.0]], [[1.0]], [[1.0]], Dk=1)
    with np.errstate(over="ignore"), pytest.raises(ContractError):
        rhs_vanilla(p, np.array([[1e200], [0.0]]))


def _softmax_out_of_place(Z):
    """The softmax rule out of place, the oracle: exp(Z) over its row sums while the
    sum of squared logits is below 600**2, shifted by the row maximum otherwise."""
    z = Z.ravel()
    with np.errstate(over="ignore"):  # a square past 1.3e154 overflows to inf, which shifts
        unshifted = z.dot(z) < 600.0**2
    E = np.exp(Z) if unshifted else np.exp(Z - Z.max(axis=1, keepdims=True))
    return E / E.sum(axis=1, keepdims=True)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 30.0, 700.0, 1e300]),
)
def test_softmax_in_place_bitwise_equal_oracle(shape, seed, scale):
    Z = scale * np.random.default_rng(seed).standard_normal(shape)
    want = _softmax_out_of_place(Z)
    with np.errstate(over="ignore"):  # the bits are under test here; at 1e300 the squares overflow
        got = _softmax_rows(Z)
    assert got is Z  # the logits' own memory
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "row", [[1.0, np.nan, 2.0], [1.0, np.inf, 2.0], [1.0, -np.inf, 2.0], [np.nan, np.nan, np.nan], [np.inf, -np.inf, 0.0]],
    ids=["nan", "inf", "one_minus_inf", "all_nan", "inf_and_minus_inf"],
)
def test_softmax_rejects_any_non_finite_logit(row):
    # the first row is finite, so only the row above can trip the check
    with pytest.raises(ContractError):
        _softmax_rows(np.array([[0.5, -1.0, 3.0], row]))


@pytest.mark.parametrize(
    "Z",
    [[[1e308, 1e308]], [[-1e308, -1e308, 0.0]], [[1e308, 1e308], [1.0, -1e308]], [[1.7e308, 1.7e308, -1.0, 1.7e308]],
     [[1e308, -1e308]]],
    ids=["two_max", "two_min", "two_rows", "three_max", "spread_past_max"],
)
def test_softmax_accepts_finite_logits_whose_sum_overflows(Z):
    # the total (or, for spread_past_max, the sum of squares) is infinite, so the
    # entrywise test decides, and lets them through, silently: a spread past
    # 1.8e308 shifts a logit to -inf, whose weight is 0
    Z = np.array(Z)
    with np.errstate(over="ignore"):
        assert not np.isfinite(Z.sum()) or not np.isfinite(np.square(Z).sum())
        want = _softmax_out_of_place(Z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _softmax_rows(Z).tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 20), st.integers(1, 20)),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 700.0, 1e200, 1e308]),
    planted=st.lists(st.tuples(st.integers(0, 399), st.sampled_from([np.nan, np.inf, -np.inf])), max_size=3),
)
@example(shape=(100, 100), seed=0, scale=1e308, planted=[])  # the largest block the dot squares
@example(shape=(100, 101), seed=0, scale=1e308, planted=[])  # the smallest one einsum squares
@example(shape=(100, 101), seed=1, scale=1.0, planted=[(5, np.inf), (9, -np.inf)])
@example(shape=(100, 101), seed=2, scale=1.0, planted=[(7, np.nan)])
@example(shape=(3, 3), seed=3, scale=1e154, planted=[])  # some squares overflow, every logit is finite
def test_softmax_raises_exactly_on_non_finite_logits(shape, seed, scale, planted):
    # blocks on both sides of the dot's size cap; from 1e154 most sums of squares
    # overflow and the entrywise test decides
    with np.errstate(over="ignore", invalid="ignore"):  # the decision is under test here, not the warnings
        Z = scale * np.random.default_rng(seed).standard_normal(shape)
        for at, value in planted:
            Z.flat[at % Z.size] = value
        if not np.isfinite(Z).all():
            with pytest.raises(ContractError):
                _softmax_rows(Z)
            return
        want = _softmax_out_of_place(Z)
        assert _softmax_rows(Z).tobytes() == want.tobytes()


def _softmax_longdouble(Z):
    """The shifted softmax of the double logits Z, in np.longdouble: the accuracy reference."""
    Zl = Z.astype(np.longdouble)
    E = np.exp(Zl - Zl.max(axis=1, keepdims=True))
    return E / E.sum(axis=1, keepdims=True)


def _assert_within_8_eps(Z):
    # relative to each weight down to the normal range; below it a weight's last bits are subnormal
    want = _softmax_longdouble(Z)
    got = _softmax_rows(Z.copy())
    tol = 8 * np.finfo(float).eps * np.maximum(want, np.finfo(float).smallest_normal)
    assert (np.abs(got - want) <= tol).all()
    return got


@settings(max_examples=300, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    seed=st.integers(0, 2**32 - 1),
    radius=st.floats(0.0, 599.0),
    power=st.sampled_from([1, 3, 9]),
)
def test_softmax_within_8_eps_of_longdouble(shape, seed, radius, power):
    # logits of norm below 600, so every |z| < 600 and no row is shifted; a high
    # power of normal draws puts most of that norm into a few logits
    G = np.random.default_rng(seed).standard_normal(shape) ** power
    Z = radius / np.linalg.norm(G) * G
    _assert_within_8_eps(Z)


@pytest.mark.parametrize(
    "Z, unshifted",
    [
        ([[300.0, 300.0, 300.0, 299.9999999]], True),
        ([[300.0, 300.0, 300.0, 300.0000001]], False),
        ([[-599.0]], True),
        ([[-599.0, -1.0]], True),
        ([[-599.0] * 5] * 3, False),
        ([[599.0, 1.0]], True),
        ([[599.0] * 64], False),
    ],
    ids=["q_just_below", "q_just_above", "one_minus_599", "minus_599_beside_minus_1", "rows_of_minus_599",
         "599_beside_1", "row_of_64_at_599"],
)
def test_softmax_at_the_shift_bound(Z, unshifted):
    # both sides of the sum-of-squares bound 600**2: every weight positive and
    # within 8 eps of the long double softmax, every row summing to 1 within L eps
    Z = np.array(Z)
    z = Z.ravel()
    assert (z.dot(z) < 600.0**2) == unshifted
    got = _assert_within_8_eps(Z)
    assert (got > 0).all()
    assert (np.abs(got.sum(axis=1) - 1) <= Z.shape[1] * np.finfo(float).eps).all()


def test_rhs_vanilla_peak_memory_below_one_and_a_half_logit_arrays():
    L, D = 256, 8
    p = random_params(D, 3)
    X = np.random.default_rng(4).standard_normal((L, D))
    rhs_vanilla(p, X)
    tracemalloc.start()
    try:
        rhs_vanilla(p, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * L * L * 8


def test_rhs_vanilla_peak_memory_set_by_the_row_block():
    # past 2**18 = L * L * D the logits exist one row block at a time: at
    # L = 1024, D = 8 a block of 32 rows takes 256 KiB, where one product's
    # logits took 8 MiB
    L, D = 1024, 8
    rows = dynamics._ONE_THREAD_MNK // (L * D)
    p = random_params(D, 3)
    X = np.random.default_rng(4).standard_normal((L, D))
    rhs_vanilla(p, X)
    tracemalloc.start()
    try:
        rhs_vanilla(p, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (rows * L + 5 * L * D) * 8  # one block's logits and a few arrays of the state's size


def _attention_average_one_product(Q, K, V):
    """The attention average as one product: the reference for the blocks."""
    Z = Q.dot(K.T)
    return Z.copy(), _softmax_rows(Z).dot(V)


@given(
    seed=st.integers(0, 2**32 - 1),
    L=st.integers(1, 600),
    D=st.integers(1, 24),
    scale=st.sampled_from([0.1, 1.0, 3.0]),
    features=st.sampled_from(["vanilla", "rotary", "low_rank"]),
)
@example(seed=1, L=128, D=16, scale=1.0, features="vanilla")  # L * L * D = 2**18: one product
@example(seed=1, L=129, D=16, scale=1.0, features="rotary")  # 2 L * L * D past it: blocks of 63, 63 and 3 rows
@example(seed=1, L=90, D=16, scale=1.0, features="rotary")  # 2 L * L * D = 259200 <= 2**18: one product
@example(seed=1, L=91, D=16, scale=1.0, features="rotary")  # 2 L * L * D = 264992, just past it: blocks of 90 and 1 rows
@example(seed=2, L=300, D=17, scale=1.0, features="vanilla")  # past it at D > 16: blocks of 51 rows, the last of 45
@example(seed=3, L=2100, D=128, scale=1.0, features="vanilla")  # L * D > 2**18: blocks of one row
@settings(max_examples=60, deadline=None)
def test_attention_average_blocks_match_one_product(seed, L, D, scale, features):
    # one product, bit for bit, wherever the kernel takes one; in row blocks,
    # which divide after the weighted sum, within 16 eps max|x| (1 + max|z|),
    # where the rounding of a logit difference moves a weight and so the
    # average (the worst of 300 random draws with L 100-1100 and D 1-16 read
    # 0.70 of that, of 400 with D 17-64, 0.52). The values are the state X; the
    # queries and keys are X W and X (Dq = Dv), those with rotary-like features
    # appended (Dq = 2 Dv; the worst of 120 draws read 0.59), or X A and X B of
    # rank D // 2 (Dq < Dv; 0.46)
    rng = generator(seed)
    X = scale * rng.standard_normal((L, D))
    if features == "low_rank":
        r = max(1, D // 2)
        Q, K = X.dot(D**-0.5 * rng.standard_normal((D, r))), X.dot(rng.standard_normal((D, r)))
    else:
        Q, K = X.dot(D**-0.5 * rng.standard_normal((D, D))), X
        if features == "rotary":
            Q, K = np.hstack((Q, D**-0.5 * rng.standard_normal((L, D)))), np.hstack((K, rng.standard_normal((L, D))))
    Z, want = _attention_average_one_product(Q, K, X)
    got = _attention_average(Q, K, X)
    if L * L * max(Q.shape[1], D) <= dynamics._ONE_THREAD_MNK:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.abs(got - want).max() <= 16 * np.finfo(float).eps * np.abs(X).max() * (1 + np.abs(Z).max())


def _attention_average_longdouble(Q, K, V):
    """The attention average of the double Q, K and V in np.longdouble, softmax shifted: the
    accuracy reference. Also returns the logits."""
    Z = Q.astype(np.longdouble).dot(K.T.astype(np.longdouble))
    E = np.exp(Z - Z.max(axis=1, keepdims=True))
    return (E / E.sum(axis=1, keepdims=True)).dot(V.astype(np.longdouble)), Z


@given(
    seed=st.integers(0, 2**32 - 1),
    extra=st.integers(1, 300),
    D=st.integers(1, 24),
    scale=st.sampled_from([0.1, 1.0, 3.0]),
    features=st.sampled_from(["vanilla", "rotary"]),
)
@example(seed=1, extra=1, D=16, scale=1.0, features="vanilla")  # L = 129: blocks of 127 and 2 rows
@example(seed=1, extra=1, D=16, scale=3.0, features="rotary")  # L = 91: blocks of 90 and 1 rows, logits shifted
@example(seed=2, extra=300, D=1, scale=0.1, features="vanilla")  # L = 812 of one feature: blocks of 322 rows
@settings(max_examples=40, deadline=None)
def test_attention_average_blocks_within_4_eps_of_longdouble(seed, extra, D, scale, features):
    # the row blocks divide each weighted sum by its row sums, where the one
    # product divides the weights: both stay within 4 eps max|v| (1 + max|z|) of
    # the long double average, the bound of a logit's rounding moving a weight
    # (the worst of 1,300 random blocked draws, vanilla and rotary-like, shifted
    # and not, read 0.93 of it). L is the smallest length that blocks, plus extra
    rng = generator(seed)
    Dq = 2 * D if features == "rotary" else D
    L = math.isqrt(dynamics._ONE_THREAD_MNK // Dq) + extra
    X = scale * rng.standard_normal((L, D))
    Q, K = X.dot(D**-0.5 * rng.standard_normal((D, D))), X
    if features == "rotary":
        Q, K = np.hstack((Q, D**-0.5 * rng.standard_normal((L, D)))), np.hstack((K, rng.standard_normal((L, D))))
    assert L * L * max(Dq, D) > dynamics._ONE_THREAD_MNK
    want, Z = _attention_average_longdouble(Q, K, X)
    got = _attention_average(Q, K, X)
    assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * np.abs(X).max() * (1 + float(np.abs(Z).max()))


def test_non_finite_logit_in_the_last_row_block_raises():
    # L = 300, D = 16 goes in blocks of 54 rows, the last of 30. z_li = x_l0 1e10 x_i1,
    # and only the last token's x_l0 = 1e300 overflows it; its x_1 = 0 keeps column L - 1 finite
    L, D = 300, 16
    X = generator(7).standard_normal((L, D))
    X[-1, :2] = 1e300, 0.0
    W = np.zeros((D, D))
    W[0, 1] = 1e10
    with np.errstate(over="ignore", invalid="ignore"):
        Z = X.dot(W).dot(X.T)
        assert np.isfinite(Z[:-1]).all() and not np.isfinite(Z[-1]).any()
        assert dynamics._ONE_THREAD_MNK // (L * D) < L - 1
        with pytest.raises(ContractError):
            _attention_average(X.dot(W), X, X)


# Evaluate each field on a fixed state and print a digest of its value.
THREAD_CHILD = r"""
import hashlib
from attnsim.dynamics import rhs_rotary, rhs_vanilla
from attnsim.params import ModelParams, RopeParams, generator
for rotary, L, D in ((False, 300, 16), (False, 700, 8), (True, 300, 8), (False, 300, 32), (True, 300, 32)):
    rng = generator(100 * L + D)
    Q, K, V, Qbar, Kbar = D**-0.5 * rng.standard_normal((5, D, D))
    p = ModelParams(D=D, Q=Q, K=K, V=V, rope=RopeParams(Qbar=Qbar, Kbar=Kbar) if rotary else None)
    out = (rhs_rotary if rotary else rhs_vanilla)(p, rng.standard_normal((L, D)))
    print(rotary, L, D, hashlib.sha256(out.tobytes()).hexdigest())
"""


def test_fields_do_not_depend_on_blas_thread_count():
    src = os.path.dirname(os.path.dirname(dynamics.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", THREAD_CHILD], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    assert len(outputs[0]) == 5 and outputs[0] == outputs[1]


@pytest.mark.parametrize("L", [128, 256])
def test_rhs_rotary_peak_memory_below_two_and_a_half_logit_arrays(L):
    # the rotary term rides the logits product, so one logit array (at L = 256,
    # one block of 64 rows of them) is made, plus the softmax's scratch and the
    # (2, L, 2D) query and key features: 1.99 logit arrays at L = 128, 0.71 at 256
    D = 8
    p = random_params(D, 3)
    r = generator(5)
    p = _rope(D, p.Q, p.K, p.V, r.standard_normal((D, D)), r.standard_normal((D, D)), Dk=D)
    X = np.random.default_rng(4).standard_normal((L, D))
    rhs_rotary(p, X)
    tracemalloc.start()
    try:
        rhs_rotary(p, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * L * L * 8


def test_rhs_vanilla_single_token():
    rng = np.random.default_rng(0)
    V = rng.normal(size=(3, 3))
    p = _plain(3, rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), V)
    x = rng.normal(size=(1, 3))
    np.testing.assert_allclose(rhs_vanilla(p, x), x @ V, atol=1e-14)


def test_rhs_vanilla_zero_interaction_gives_mean():
    rng = np.random.default_rng(1)
    V = rng.normal(size=(2, 2))
    p = _plain(2, np.zeros((2, 2)), np.zeros((2, 2)), V)
    X = rng.normal(size=(5, 2))
    expected = np.tile(X.mean(axis=0) @ V, (5, 1))
    np.testing.assert_allclose(rhs_vanilla(p, X), expected, atol=1e-14)


def _rhs_vanilla_loops(p, X):
    # naive double-loop oracle
    W = p.Q @ p.K.T / np.sqrt(p.Dk)
    L = X.shape[0]
    out = np.zeros_like(X)
    for l in range(L):
        z = np.array([X[l] @ W @ X[i] for i in range(L)])
        w = np.exp(z - z.max())
        w /= w.sum()
        out[l] = p.V.T @ sum(w[i] * X[i] for i in range(L))
    return out


def test_rhs_vanilla_against_loop_oracle():
    rng = np.random.default_rng(2)
    p = _plain(2, [[0.3, -0.7], [1.1, 0.4]], [[0.9, 0.2], [-0.5, 1.3]], [[0.6, -1.0], [0.8, 0.1]], Dk=2)
    X = rng.normal(size=(2, 2))
    np.testing.assert_allclose(rhs_vanilla(p, X), _rhs_vanilla_loops(p, X), atol=1e-14)


def test_rhs_vanilla_shape_mismatch():
    p = _plain(3, np.eye(3), np.eye(3), np.eye(3))
    with pytest.raises(ShapeError):
        rhs_vanilla(p, np.zeros((2, 2)))


def test_sinusoidal_first_row_and_entry():
    P = sinusoidal_encoding(3, 6)
    np.testing.assert_allclose(P[0], [0, 1, 0, 1, 0, 1], atol=1e-15)
    assert P[1, 0] == pytest.approx(np.sin(1.0))
    assert np.all(np.abs(P) <= 1.0)


def test_sinusoidal_offset():
    P0 = sinusoidal_encoding(4, 4)
    P1 = sinusoidal_encoding(3, 4, offset=1)
    np.testing.assert_array_equal(P0[1:], P1)


def _sinusoidal_exponent_table(L, D, offset):
    """The sinusoidal table from one exponent per column: 10000^(-j/D) for even j, the preceding even
    exponent for odd j, and both sin and cos of every column."""
    i = np.arange(offset, offset + L, dtype=float)[:, None]
    j = np.arange(D)
    expo = np.where(j % 2 == 0, j, j - 1) / D
    angles = i * 10000.0 ** (-expo)
    return np.where(j % 2 == 0, np.sin(angles), np.cos(angles))


@settings(max_examples=200, deadline=None)
@given(L=st.integers(1, 300), D=st.integers(1, 64), offset=st.integers(0, 3))
@example(L=300, D=64, offset=3)
@example(L=1, D=1, offset=0)
@example(L=7, D=5, offset=2)
def test_sinusoidal_table_is_the_rotary_angles_bitwise(L, D, offset):
    # the table takes sin and cos of the rotary angles at base 10000 (k < ceil(D/2)); every entry keeps
    # the bits of the per-column exponent formula
    got = sinusoidal_encoding(L, D, offset)
    assert got.tobytes() == _sinusoidal_exponent_table(L, D, offset).tobytes()
    theta = _rope_angles(D, 10000.0, np.arange(offset, offset + L))
    assert theta.shape == (L, (D + 1) // 2)
    assert got[:, 0::2].tobytes() == np.sin(theta).tobytes()


def test_rhs_absolute_zero_positions_bitwise():
    rng = np.random.default_rng(3)
    p = random_params(3, 11)
    X = rng.normal(size=(4, 3))
    np.testing.assert_array_equal(rhs_absolute(p, np.zeros((4, 3)), X), rhs_vanilla(p, X))


def test_rhs_absolute_shift_equivalence_bitwise():
    rng = np.random.default_rng(4)
    p = random_params(2, 5)
    for _ in range(20):
        X = rng.normal(size=(3, 2))
        P = rng.normal(size=(3, 2))
        np.testing.assert_array_equal(rhs_absolute(p, P, X), rhs_vanilla(p, X + P))


def test_rhs_absolute_single_token():
    rng = np.random.default_rng(5)
    p = random_params(2, 6)
    x = rng.normal(size=(1, 2))
    pos = rng.normal(size=(1, 2))
    np.testing.assert_allclose(rhs_absolute(p, pos, x), (x + pos) @ p.V, atol=1e-14)


def test_rotation_identity_at_zero():
    np.testing.assert_array_equal(rotation_matrix(4, 10000.0, 0), np.eye(4))


def test_rotation_first_block():
    R = rotation_matrix(2, 10000.0, 1)
    np.testing.assert_allclose(R, [[np.cos(1), -np.sin(1)], [np.sin(1), np.cos(1)]], atol=1e-15)


def test_rotation_angle_addition():
    for m, n in [(1, 2), (3, -5), (7, 7)]:
        lhs = rotation_matrix(6, 10000.0, m) @ rotation_matrix(6, 10000.0, n)
        rhs = rotation_matrix(6, 10000.0, m + n)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_rotation_orthogonal_blocks():
    R = rotation_matrix(8, 10000.0, 13)
    assert np.abs(R @ R.T - np.eye(8)).max() < 1e-12
    for k in range(4):
        blk = R[2 * k:2 * k + 2, 2 * k:2 * k + 2]
        assert np.linalg.det(blk) == pytest.approx(1.0, abs=1e-12)


def test_rotation_rejects_odd_dimension():
    # rotations turn feature pairs, so rope parameters need an even D; ModelParams refuses them at D = 3
    with pytest.raises(DomainError, match="even D"):
        _rope(3, np.eye(3), np.eye(3), np.eye(3), np.eye(3), np.eye(3))


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


# Reference for the factorised rotary field: the offset matrices
# W_m = (Q K^T + Qbar R(m) Kbar^T) / sqrt(Dk) + lambda term, built directly.
def _rope_offset_matrix(params, m):
    rope = params.rope
    R = rotation_matrix(params.D, rope.theta_base, m)
    W = (params.Q @ params.K.T + np.asarray(rope.Qbar) @ R @ np.asarray(rope.Kbar).T) / np.sqrt(params.Dk)
    mod = rope.lambda_mod
    if mod is not None:
        if mod.kind is LambdaKind.IDENTITY_SCALED:
            W = W + mod.lam * np.eye(params.D)
        else:
            W = W + mod.lam * np.diag(mod.diag)
    return W


def rope_interaction(params, l, i):
    """W_li under rotary encoding; depends on the positions only through i - l."""
    return _rope_offset_matrix(params, i - l)


def _rhs_rotary_offsets(params, X):
    # logits offset by offset, one D x D matrix per offset i - l
    L = X.shape[0]
    Z = np.empty((L, L))
    for m in range(-(L - 1), L):
        rows = np.arange(0, L - m) if m >= 0 else np.arange(-m, L)
        cols = rows + m
        Z[rows, cols] = np.einsum("ld,de,le->l", X[rows], _rope_offset_matrix(params, m), X[cols])
    E = np.exp(Z - Z.max(axis=1, keepdims=True))
    return (E / E.sum(axis=1, keepdims=True) @ X) @ params.V


def test_rope_interaction_reduces_without_qbar():
    rng = np.random.default_rng(6)
    Q, K, V = rng.normal(size=(3, 2, 2))
    p = _rope(2, Q, K, V, np.zeros((2, 2)), rng.normal(size=(2, 2)))
    W = Q @ K.T
    for l in range(3):
        for i in range(3):
            np.testing.assert_allclose(rope_interaction(p, l, i), W, atol=1e-15)


def test_rope_interaction_same_position():
    rng = np.random.default_rng(7)
    Q, K, Qb, Kb, V = rng.normal(size=(5, 2, 2))
    p = _rope(2, Q, K, V, Qb, Kb)
    np.testing.assert_allclose(rope_interaction(p, 4, 4), Q @ K.T + Qb @ Kb.T, atol=1e-14)


def test_rope_interaction_lambda_identity():
    z = np.zeros((2, 2))
    p = _rope(2, z, z, np.eye(2), z, z, lambda_mod=LambdaMod(kind=LambdaKind.IDENTITY_SCALED, lam=-1.0))
    np.testing.assert_array_equal(rope_interaction(p, 0, 3), -np.eye(2))


def test_rope_interaction_lambda_diag():
    z = np.zeros((2, 2))
    mod = LambdaMod(kind=LambdaKind.DIAG_SCALED, lam=-2.0, diag=np.array([1.0, 3.0]))
    p = _rope(2, z, z, np.eye(2), z, z, lambda_mod=mod)
    np.testing.assert_allclose(rope_interaction(p, 1, 1), np.diag([-2.0, -6.0]))


def test_rhs_rotary_reduces_without_qbar():
    rng = np.random.default_rng(8)
    Q, K, V, Kb = rng.normal(size=(4, 2, 2))
    p = _rope(2, Q, K, V, np.zeros((2, 2)), Kb)
    plain = _plain(2, Q, K, V, Dk=1)
    X = rng.normal(size=(4, 2))
    np.testing.assert_allclose(rhs_rotary(p, X), rhs_vanilla(plain, X), atol=1e-14)


def test_rhs_rotary_single_token():
    rng = np.random.default_rng(9)
    Q, K, V, Qb, Kb = rng.normal(size=(5, 2, 2))
    p = _rope(2, Q, K, V, Qb, Kb)
    x = rng.normal(size=(1, 2))
    np.testing.assert_allclose(rhs_rotary(p, x), x @ V, atol=1e-14)


def _rhs_rotary_loops(p, X):
    L = X.shape[0]
    out = np.zeros_like(X)
    for l in range(L):
        z = np.array([X[l] @ rope_interaction(p, l, i) @ X[i] for i in range(L)])
        w = np.exp(z - z.max())
        w /= w.sum()
        out[l] = p.V.T @ sum(w[i] * X[i] for i in range(L))
    return out


def test_rhs_rotary_against_loop_oracle():
    rng = np.random.default_rng(10)
    Q, K, V, Qb, Kb = rng.normal(size=(5, 2, 2))
    p = _rope(2, Q, K, V, Qb, Kb)
    X = rng.normal(size=(3, 2))
    np.testing.assert_allclose(rhs_rotary(p, X), _rhs_rotary_loops(p, X), atol=1e-14)


@given(
    seed=st.integers(0, 2**32 - 1),
    L=st.integers(1, 40),
    half_D=st.integers(1, 4),
    Dk=st.integers(1, 8),
    theta_base=st.sampled_from([2.0, 100.0, 10000.0, 1e6]),
    lam_kind=st.sampled_from([None, LambdaKind.IDENTITY_SCALED, LambdaKind.DIAG_SCALED]),
)
@settings(max_examples=100, deadline=None)
def test_rhs_rotary_matches_offset_oracle(seed, L, half_D, Dk, theta_base, lam_kind):
    D = 2 * half_D
    rng = generator(seed)
    Q, K, V, Qb, Kb = rng.standard_normal((5, D, D))
    mod = None
    if lam_kind is LambdaKind.IDENTITY_SCALED:
        mod = LambdaMod(kind=lam_kind, lam=-rng.uniform(0.1, 2.0))
    elif lam_kind is LambdaKind.DIAG_SCALED:
        mod = LambdaMod(kind=lam_kind, lam=-rng.uniform(0.1, 2.0), diag=rng.uniform(0.1, 2.0, D))
    p = ModelParams(D=D, Q=Q, K=K, V=V, Dk=Dk, rope=RopeParams(Qbar=Qb, Kbar=Kb, theta_base=theta_base, lambda_mod=mod))
    X = rng.standard_normal((L, D))
    expected = _rhs_rotary_offsets(p, X)
    assert np.abs(rhs_rotary(p, X) - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())


# The kernels as they were written with @: the oracle for the .dot kernels.
def _rhs_vanilla_matmul(params, X):
    return (_softmax_out_of_place(X @ params.W @ X.T) @ X) @ params.V


def _rhs_rotary_matmul(params, X):
    rope, W = params.rope, params.W
    mod = rope.lambda_mod
    if mod is not None:
        W = W + mod.lam * (np.eye(params.D) if mod.kind is LambdaKind.IDENTITY_SCALED else np.diag(mod.diag))
    theta = _rope_angles(params.D, rope.theta_base, np.arange(X.shape[0]))
    c, s = np.cos(theta), np.sin(theta)
    Y = np.stack((X @ rope.Qbar, X @ rope.Kbar))
    rot = np.empty_like(Y)
    rot[..., 0::2] = c * Y[..., 0::2] - s * Y[..., 1::2]
    rot[..., 1::2] = s * Y[..., 0::2] + c * Y[..., 1::2]
    Z = np.hstack((X @ W, rot[0] / np.sqrt(params.Dk))) @ np.hstack((X, rot[1])).T
    return (_softmax_out_of_place(Z) @ X) @ params.V


def _stationarity_residual_matmul(params, X):
    return float(np.linalg.norm(_softmax_out_of_place(X @ params.W @ X.T) @ X, axis=1).max())


def _layouts(X):
    """The same values C-ordered, F-ordered and as a strided view into a larger array."""
    big = np.full((2 * X.shape[0], 3 * X.shape[1]), np.nan)
    big[::2, ::3] = X
    return {"C": np.ascontiguousarray(X), "F": np.asfortranarray(X), "strided": big[::2, ::3]}


@given(
    seed=st.integers(0, 2**32 - 1),
    L=st.integers(1, 40),
    D=st.integers(1, 16),
    scale=st.sampled_from([1e-3, 0.1, 1.0, 10.0, 1e3]),
    rotary=st.booleans(),
    lam_kind=st.sampled_from([None, LambdaKind.IDENTITY_SCALED, LambdaKind.DIAG_SCALED]),
)
@settings(max_examples=300, deadline=None)
def test_dot_kernels_bitwise_equal_matmul_oracle(seed, L, D, scale, rotary, lam_kind):
    # @ itself is not layout-free: on about 3 % of shapes an F-ordered X
    # rounds differently from its C-ordered copy (OpenBLAS takes another
    # kernel for the transposed operand). The .dot kernels copy X to C order,
    # so every layout gets the oracle's result on the C-ordered values. The
    # stationarity residual shares rhs_vanilla's kernel and is held to the
    # same standard on every example, through the plain W of p.
    rng = generator(seed)
    if rotary:
        D += D % 2
    Q, K, V, Qb, Kb = D**-0.5 * rng.standard_normal((5, D, D))
    if rotary:
        mod = None
        if lam_kind is LambdaKind.IDENTITY_SCALED:
            mod = LambdaMod(kind=lam_kind, lam=-rng.uniform(0.1, 2.0))
        elif lam_kind is LambdaKind.DIAG_SCALED:
            mod = LambdaMod(kind=lam_kind, lam=-rng.uniform(0.1, 2.0), diag=rng.uniform(0.1, 2.0, D))
        p = ModelParams(D=D, Q=Q, K=K, V=V, rope=RopeParams(Qbar=Qb, Kbar=Kb, lambda_mod=mod))
        kernel, oracle = rhs_rotary, _rhs_rotary_matmul
    else:
        p = ModelParams(D=D, Q=Q, K=K, V=V)
        kernel, oracle = rhs_vanilla, _rhs_vanilla_matmul
    X = scale * rng.standard_normal((L, D))
    want = oracle(p, np.ascontiguousarray(X)).tobytes()
    want_residual = np.float64(_stationarity_residual_matmul(p, np.ascontiguousarray(X))).tobytes()
    for name, Y in _layouts(X).items():
        assert kernel(p, Y).tobytes() == want, name
        assert np.float64(stationarity_residual(p, Y)).tobytes() == want_residual, name


def _rhs_recomputing_W(p, X):
    """rhs_vanilla, or rhs_rotary when p has rope, with W = Q K^T / sqrt(Dk)
    recomputed on every call instead of read from p."""
    W = p.Q @ p.K.T / np.sqrt(p.Dk)
    if p.rope is None:
        Z = X @ W @ X.T
    else:
        mod = p.rope.lambda_mod
        if mod is not None:
            W = W + mod.lam * (np.eye(p.D) if mod.kind is LambdaKind.IDENTITY_SCALED else np.diag(mod.diag))
        k = np.arange(p.D // 2)
        theta = np.multiply.outer(np.arange(X.shape[0], dtype=float), p.rope.theta_base ** (-2.0 * k / p.D))
        c, s = np.cos(theta), np.sin(theta)
        Y = np.stack((X @ p.rope.Qbar, X @ p.rope.Kbar))
        rot = np.empty_like(Y)
        rot[..., 0::2] = c * Y[..., 0::2] - s * Y[..., 1::2]
        rot[..., 1::2] = s * Y[..., 0::2] + c * Y[..., 1::2]
        Z = np.hstack((X @ W, rot[0] / np.sqrt(p.Dk))) @ np.hstack((X, rot[1])).T
    return (_softmax_out_of_place(Z) @ X) @ p.V


@given(
    seed=st.integers(0, 2**32 - 1),
    L=st.integers(1, 16),
    D=st.integers(1, 8),
    Dk=st.integers(1, 8),
    rotary=st.booleans(),
    lam_kind=st.sampled_from([None, LambdaKind.IDENTITY_SCALED, LambdaKind.DIAG_SCALED]),
)
@settings(max_examples=100, deadline=None)
def test_rhs_bitwise_equal_to_recomputed_W(seed, L, D, Dk, rotary, lam_kind):
    rng = generator(seed)
    Q, K, V, Qb, Kb = rng.standard_normal((5, D, D))
    rope = None
    if rotary and D % 2 == 0:
        mod = None
        if lam_kind is LambdaKind.IDENTITY_SCALED:
            mod = LambdaMod(kind=lam_kind, lam=-rng.uniform(0.1, 2.0))
        elif lam_kind is LambdaKind.DIAG_SCALED:
            mod = LambdaMod(kind=lam_kind, lam=-rng.uniform(0.1, 2.0), diag=rng.uniform(0.1, 2.0, D))
        rope = RopeParams(Qbar=Qb, Kbar=Kb, lambda_mod=mod)
    p = ModelParams(D=D, Q=Q, K=K, V=V, Dk=Dk, rope=rope)
    X = rng.standard_normal((L, D))
    rhs = rhs_vanilla if rope is None else rhs_rotary
    np.testing.assert_array_equal(rhs(p, X), _rhs_recomputing_W(p, X))


def test_rhs_rotary_requires_rope():
    p = _plain(2, np.eye(2), np.eye(2), np.eye(2))
    with pytest.raises(ContractError):
        rhs_rotary(p, np.zeros((2, 2)))


def test_gradient_consistency():
    # A dx_l/dt equals the gradient of u -> log sum_j exp(u^T W x_j) at x_l
    rng = np.random.default_rng(11)
    p = random_params(3, 21)
    from attnsim.params import derive_W_A

    W, A = derive_W_A(p)
    for _ in range(10):
        X = rng.normal(size=(4, 3))
        dX = rhs_vanilla(p, X)
        for l in range(4):
            u = X[l]
            h = 1e-6 * (1.0 + np.linalg.norm(u))

            def f(v):
                return np.log(np.sum(np.exp(v @ W @ X.T)))

            grad = np.array([
                (f(u + h * e) - f(u - h * e)) / (2 * h) for e in np.eye(3)
            ])
            assert np.abs(A @ dX[l] - grad).max() < 1e-5


def test_log_sum_exp_convexity():
    rng = np.random.default_rng(12)
    W = rng.normal(size=(3, 3))
    X = rng.normal(size=(5, 3))

    def f(u):
        return np.log(np.sum(np.exp(u @ W @ X.T)))

    for _ in range(50):
        u, v = rng.normal(size=(2, 3))
        assert f(u) + f(v) - 2.0 * f((u + v) / 2.0) >= -1e-12


def test_rhs_image_lies_in_value_mapped_hull():
    rng = np.random.default_rng(13)
    p = random_params(2, 31)
    Vt_inv = np.linalg.inv(p.V.T)
    X = rng.normal(size=(5, 2))
    dX = rhs_vanilla(p, X)
    for l in range(5):
        c = Vt_inv @ dX[l]
        upper, _ = quadspace.simplex_distance(X, c[None], tol=1e-8)
        assert upper[0] <= 1e-8

"""Property-based checks of the module invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from attnsim import quadspace
from attnsim.dynamics import rhs_absolute, rhs_vanilla, rotation_matrix
from attnsim.params import generator, random_params, softplus

dims = st.integers(min_value=2, max_value=32)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(seeds, st.integers(2, 8))
@settings(max_examples=50, deadline=None)
def test_quad_form_sees_only_symmetric_part(seed, D):
    rng = generator(seed)
    B = rng.standard_normal((D, D))
    u = rng.standard_normal(D)
    q1 = quadspace.quad_form(B, u)
    q2 = quadspace.quad_form(quadspace.sym(B), u)
    scale = max(1.0, abs(q1))
    assert abs(q1 - q2) <= 1e-12 * scale


@given(seeds, st.integers(2, 8))
@settings(max_examples=50, deadline=None)
def test_classification_matches_symmetric_part(seed, D):
    rng = generator(seed)
    B = rng.standard_normal((D, D))
    assert quadspace.classify_definiteness(B) is quadspace.classify_definiteness(quadspace.sym(B))


@given(seeds, dims)
@settings(max_examples=30, deadline=None)
def test_eig_sym_reconstruction(seed, D):
    rng = generator(seed)
    S = quadspace.sym(rng.standard_normal((D, D)))
    eig = quadspace.eig_sym(S)
    scale = max(np.linalg.norm(S), 1e-30)
    assert np.linalg.norm(eig.vectors @ np.diag(eig.values) @ eig.vectors.T - S) <= 1e-10 * scale
    assert np.linalg.norm(eig.vectors.T @ eig.vectors - np.eye(D)) <= 1e-10


@given(seeds, st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_matexp_inverse(seed, D):
    rng = generator(seed)
    M = rng.standard_normal((D, D))
    nrm = np.linalg.norm(M, 2)
    if nrm > 10.0:
        M *= 10.0 / nrm
    assert np.linalg.norm(quadspace.matexp(M) @ quadspace.matexp(-M) - np.eye(D)) <= 1e-8


@given(seeds, st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_a_norm_euclidean_equivalence(seed, D):
    rng = generator(seed)
    M = rng.standard_normal((D, D))
    B = M @ M.T + 0.1 * np.eye(D)
    vals = np.linalg.eigvalsh(B)
    u = rng.standard_normal(D)
    an = quadspace.a_norm(B, u)
    nu = np.linalg.norm(u)
    assert np.sqrt(vals[0]) * nu - 1e-9 * (1 + an) <= an <= np.sqrt(vals[-1]) * nu + 1e-9 * (1 + an)


@given(seeds, st.integers(1, 6), st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_hull_membership_monotone(seed, n, D):
    rng = generator(seed)
    pts = rng.standard_normal((n, D))
    weights = rng.random(n)
    weights /= weights.sum()
    p = weights @ pts
    assert quadspace.in_convex_hull(pts, p, tol=1e-7)
    extended = np.vstack([pts, rng.standard_normal(D)])
    assert quadspace.in_convex_hull(extended, p, tol=1e-7)


@given(st.floats(-500.0, 500.0, allow_nan=False))
def test_softplus_positive(x):
    assert softplus(x) > 0.0


@given(seeds, st.integers(1, 6), st.integers(2, 5))
@settings(max_examples=30, deadline=None)
def test_shift_equivalence_bitwise(seed, L, D):
    rng = generator(seed)
    p = random_params(D, seed)
    X = rng.standard_normal((L, D))
    P = rng.standard_normal((L, D))
    np.testing.assert_array_equal(rhs_absolute(p, P, X), rhs_vanilla(p, X + P))


@given(st.integers(-20, 20), st.integers(-20, 20), st.sampled_from([2, 4, 8]))
@settings(max_examples=40, deadline=None)
def test_rotation_group_property(m, n, D):
    lhs = rotation_matrix(D, 10000.0, m) @ rotation_matrix(D, 10000.0, n)
    rhs = rotation_matrix(D, 10000.0, m + n)
    assert np.abs(lhs - rhs).max() < 1e-12
    R = rotation_matrix(D, 10000.0, m)
    assert np.abs(R @ R.T - np.eye(D)).max() < 1e-12

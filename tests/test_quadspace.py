import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from attnsim import quadspace
from attnsim.errors import DomainError, ShapeError, SingularMatrixError
from attnsim.params import generator
from attnsim.quadspace import PIVOT_RTOL, Definiteness

from cases import COLLAPSE_W, GROW_A
import hull_oracle
import scipy_oracle
from hull_oracle import simplex_distance_one

EPS = np.finfo(float).eps


def test_sym_antisymmetric_split():
    np.testing.assert_array_equal(quadspace.sym([[0, 2], [0, 0]]), [[0, 1], [1, 0]])


def test_sym_identity():
    np.testing.assert_array_equal(quadspace.sym(np.eye(2)), np.eye(2))


def test_sym_output_exactly_symmetric():
    rng = np.random.default_rng(0)
    B = rng.normal(size=(5, 5))
    S = quadspace.sym(B)
    np.testing.assert_array_equal(S, S.T)


def test_sym_reference_eigenvalues():
    vals = np.linalg.eigvalsh(quadspace.sym(GROW_A))
    np.testing.assert_allclose(vals, [0.0959758, 5.12809], atol=1e-4)


def test_sym_rejects_nonsquare():
    with pytest.raises(ShapeError):
        quadspace.sym(np.zeros((2, 3)))


def test_quad_form_euclidean():
    assert quadspace.quad_form(np.eye(2), [3.0, 4.0]) == 25.0


def test_quad_form_antisymmetric_vanishes():
    B = np.array([[0.0, 3.0], [-3.0, 0.0]])
    rng = np.random.default_rng(1)
    for _ in range(5):
        assert abs(quadspace.quad_form(B, rng.normal(size=2))) < 1e-14


def test_quad_form_matches_symmetric_part():
    rng = np.random.default_rng(2)
    for _ in range(20):
        B = rng.normal(size=(4, 4))
        u = rng.normal(size=4)
        # direct expansion oracle
        expected = sum(u[i] * B[i, j] * u[j] for i in range(4) for j in range(4))
        assert abs(quadspace.quad_form(B, u) - expected) < 1e-12 * max(1.0, abs(expected))
        assert abs(quadspace.quad_form(B, u) - quadspace.quad_form(quadspace.sym(B), u)) < 1e-12
    # rows of an (..., n) array each get their own form
    U = rng.normal(size=(3, 5, 4))
    expected = [[quadspace.quad_form(B, u) for u in block] for block in U]
    np.testing.assert_allclose(quadspace.quad_form(B, U), expected, rtol=1e-12, atol=1e-12)


def test_quad_form_dim_mismatch():
    with pytest.raises(ShapeError):
        quadspace.quad_form(np.eye(2), [1.0, 2.0, 3.0])
    with pytest.raises(ShapeError):
        quadspace.quad_form(np.eye(2), np.ones((4, 3)))
    with pytest.raises(ShapeError):
        quadspace.quad_form(np.eye(1), 1.0)


def test_classify_basics():
    assert quadspace.classify_definiteness(np.eye(2)) is Definiteness.POSITIVE_DEFINITE
    assert quadspace.classify_definiteness(np.diag([1.0, -1.0])) is Definiteness.INDEFINITE
    assert quadspace.classify_definiteness(-np.eye(3)) is Definiteness.NEGATIVE_DEFINITE
    assert quadspace.classify_definiteness(np.diag([1.0, 1e-15])) is Definiteness.NEAR_SINGULAR


def test_classify_reference_W():
    vals = np.linalg.eigvalsh(quadspace.sym(COLLAPSE_W))
    np.testing.assert_allclose(vals, [0.598979, 4.15119], atol=1e-4)
    assert quadspace.classify_definiteness(COLLAPSE_W) is Definiteness.POSITIVE_DEFINITE


def test_count_positive_eigs_matches_eigvalsh():
    rng = np.random.default_rng(14)
    for D in range(1, 9):
        k = int(rng.integers(0, D + 1))
        Qo, _ = np.linalg.qr(rng.normal(size=(D, D)))
        signs = np.r_[np.ones(k), -np.ones(D - k)]
        S = rng.normal(size=(D, D))
        B = Qo @ np.diag(signs * rng.uniform(0.5, 2.0, D)) @ Qo.T + (S - S.T)  # sym(B) has k positive eigenvalues
        assert quadspace.count_positive_eigs(B) == k == np.sum(np.linalg.eigvalsh(0.5 * (B + B.T)) > 0)


def test_norm_equivalence_bounds():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(4, 4))
    B = M @ M.T + 0.5 * np.eye(4)  # PD
    vals = np.linalg.eigvalsh(B)
    for _ in range(20):
        u = rng.normal(size=4)
        nu = np.linalg.norm(u)
        an = np.sqrt(quadspace.quad_form(B, u))
        assert np.sqrt(vals[0]) * nu - 1e-9 <= an <= np.sqrt(vals[-1]) * nu + 1e-9


def test_invert_identity():
    np.testing.assert_allclose(quadspace.invert(np.eye(3)), np.eye(3))


def test_invert_singular():
    with pytest.raises(SingularMatrixError):
        quadspace.invert([[1.0, 1.0], [1.0, 1.0]])


def test_invert_residual():
    rng = np.random.default_rng(6)
    for _ in range(10):
        M = rng.normal(size=(6, 6)) + 3 * np.eye(6)
        assert np.linalg.norm(M @ quadspace.invert(M) - np.eye(6)) <= 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_invert_rejects_non_finite(bad):
    M = np.eye(3)
    M[1, 2] = bad
    with pytest.raises(ValueError):
        quadspace.invert(M)


def _invert_case(rng, kind, D):
    # random, rank-deficient, with a duplicated row, or with one LU pivot
    # within two decades of PIVOT_RTOL times the largest entry
    M = rng.standard_normal((D, D))
    if kind == "rank_deficient" and D > 1:
        r = int(rng.integers(1, D))
        M = rng.standard_normal((D, r)) @ rng.standard_normal((r, D))
    elif kind == "duplicated_row" and D > 1:
        i, j = rng.choice(D, size=2, replace=False)
        M[i] = M[j]
    elif kind == "near_threshold":
        L = np.tril(rng.uniform(-0.9, 0.9, (D, D)), -1) + np.eye(D)  # L's own rows need no exchange
        U = np.triu(rng.standard_normal((D, D)), 1) + np.diag(rng.choice([-1.0, 1.0], D) * rng.uniform(0.5, 2.0, D))
        k = int(rng.integers(D))
        U[k, k] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-13.0, -11.0)
        M = (L @ U)[rng.permutation(D)]
    return M * 10.0 ** rng.uniform(-3.0, 3.0)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.sampled_from(["random", "rank_deficient", "duplicated_row", "near_threshold"]),
)
@settings(max_examples=300, deadline=None)
def test_invert_matches_scipy_lu_oracle(seed, D, kind):
    M = _invert_case(generator(seed), kind, D)
    scale = np.abs(M).max()
    # the two eliminations round the smallest pivot differently, by at most
    # 69 eps * scale over 20,000 near-threshold draws with D <= 12; a pivot
    # that close to the threshold may be decided either way
    if abs(scipy_oracle.min_pivot(M) - PIVOT_RTOL * scale) <= 256 * EPS * scale:
        return
    try:
        want = scipy_oracle.invert_lu(M)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            quadspace.invert(M)
        return
    got = quadspace.invert(M)
    if D <= 5:
        np.testing.assert_array_equal(got, want)
    else:
        # two backward-stable inverses: their relative difference stayed
        # below 0.18 cond_1(M) eps in 20,000 random draws with D 6..16
        rel = np.abs(got - want).max() / np.abs(want).max()
        assert rel <= 1e-12 * max(1.0, np.linalg.cond(M, 1) / 1e3)


def test_matexp_zero_and_diag():
    np.testing.assert_array_equal(quadspace.matexp(np.zeros((3, 3))), np.eye(3))
    np.testing.assert_allclose(quadspace.matexp(np.diag([1.0, -2.0])), np.diag([np.e, np.exp(-2.0)]), rtol=1e-12)


def _taylor_expm(M, terms=60):
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms + 1):
        term = term @ M / k
        out = out + term
    return out


def test_matexp_taylor_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        M = rng.normal(size=(3, 3))
        M *= 2.0 / max(np.linalg.norm(M, 2), 2.0)  # keep ||M|| <= 2
        E = quadspace.matexp(M)
        ref = _taylor_expm(M)
        assert np.linalg.norm(E - ref) <= 1e-10 * np.linalg.norm(ref)


def test_matexp_inverse_property():
    rng = np.random.default_rng(8)
    for _ in range(5):
        M = rng.normal(size=(4, 4))
        M *= 10.0 / max(np.linalg.norm(M, 2), 10.0)
        I = quadspace.matexp(M) @ quadspace.matexp(-M)
        assert np.linalg.norm(I - np.eye(4)) <= 1e-8


@given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.floats(-4.0, np.log10(150.0)))
@settings(max_examples=200, deadline=None)
def test_matexp_matches_scipy_expm(seed, D, log_norm):
    rng = generator(seed)
    M = rng.standard_normal((D, D))
    if rng.random() < 0.25:
        M *= np.eye(D)  # some draws diagonal
    norm = 10.0**log_norm
    M *= norm / np.abs(M).sum(axis=0).max()  # 1-norm of M
    got = quadspace.matexp(M)
    want = scipy.linalg.expm(M)
    # worst over 20,000 random draws with 1-norm up to 150: 2.4e-11
    # relative at 1-norm 143 (1.7e-13 per unit of norm), and there the
    # difference is scipy's own error: against a 40-digit mpmath
    # reference, matexp was within 5e-14 and expm 2.4e-11
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, norm) * np.abs(want).max()


def test_matexp_diagonal_is_exact_exp():
    d = np.array([0.0, 1.0, -2.5, 700.0, 710.0, -746.0, np.inf, -np.inf])
    with np.errstate(over="ignore"):  # exp(710) is inf, off-diagonal entries stay 0
        np.testing.assert_array_equal(quadspace.matexp(np.diag(d)), np.diag(np.exp(d)))
        np.testing.assert_array_equal(quadspace.matexp(np.diag(-d[::-1])), np.diag(np.exp(-d[::-1])))


def test_matexp_diagonal_overflow_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(quadspace.matexp(np.diag([1e308, 1.0])), np.diag([np.inf, np.e]))


def test_matexp_rejects_non_finite_and_non_square():
    M = np.ones((2, 2))
    M[0, 0] = np.nan
    with pytest.raises(ValueError):
        quadspace.matexp(M)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="1-norm"):
            quadspace.matexp(np.full((2, 2), 1e308))  # finite, but its 1-norm overflows
    with pytest.raises(ShapeError):
        quadspace.matexp(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        quadspace.matexp(np.ones(3))
    with pytest.raises(ShapeError):
        quadspace.matexp(np.ones((2, 3, 3)))


def _in_hull(pts, p, tol=1e-8):
    # the library's one hull rule: in when the upper bound is within tol
    return quadspace.simplex_distance(pts, np.asarray(p)[None], tol)[0][0] <= tol


def _outside_hull(pts, p, tol=1e-8):
    # certified out: the solver's lower bound exceeds tol
    return quadspace.simplex_distance(pts, np.asarray(p)[None], tol)[1][0] > tol


def test_hull_vertex_and_centroid():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(5, 3))
    assert _in_hull(pts, pts[0])
    assert _in_hull(pts, pts.mean(axis=0))


def test_hull_outside_bounding_box():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert _outside_hull(pts, [5.0, 5.0])


def test_hull_single_point():
    pts = np.array([[1.0, 2.0]])
    assert _in_hull(pts, [1.0, 2.0], tol=1e-10)
    assert _outside_hull(pts, [1.1, 2.0], tol=1e-3)


def test_hull_outside_needs_lower_bound_beyond_its_resolution():
    # near an edge the answer rests on which bound crosses tol first
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert _in_hull(pts, [0.5, -2e-9])
    # the solver stops at a certified lower bound of 2.1e-8 > tol
    assert _outside_hull(pts, [0.5, -3e-8])
    assert _outside_hull(pts, [0.5, -1e-6])


def test_hull_monotone_under_extra_point():
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(4, 2))
    p = pts.mean(axis=0)
    assert _in_hull(pts, p)
    more = np.vstack([pts, rng.normal(size=2)])
    assert _in_hull(more, p)


def test_simplex_distance_certifies_input_point():
    # an input point is in its own hull; the optimiser alone stalled at
    # distance 1.29e-4 > tol here and left the query undecided
    rng = np.random.Generator(np.random.Philox(11))
    rng.standard_normal((2, 2))
    X0 = rng.standard_normal((8, 2))
    X0 -= X0.mean(axis=0)
    (upper,), _ = quadspace.simplex_distance(X0, X0[5:6], tol=1e-4)
    assert upper <= 1e-4


def test_simplex_distance_matches_known_value():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    (upper,), (lower,) = quadspace.simplex_distance(pts, np.array([[0.5, 1.0]]), tol=1e-9)
    assert upper == pytest.approx(1.0, abs=1e-6)
    assert lower <= upper


def _hull_queries(rng, P, Q, tol):
    # a mix of queries inside the hull, at input points, on edges (boundary
    # or inside), within a few tol of an input point, and far outside
    n, d = P.shape
    Z = np.empty((Q, d))
    for j in range(Q):
        kind = rng.integers(5)
        if kind == 0:
            Z[j] = rng.dirichlet(np.ones(n)) @ P
        elif kind == 1:
            Z[j] = P[rng.integers(n)]
        elif kind == 2:
            Z[j] = 0.5 * (P[rng.integers(n)] + P[rng.integers(n)])
        elif kind == 3:
            Z[j] = P[rng.integers(n)] + rng.uniform(0.0, 3.0) * tol * rng.standard_normal(d) / np.sqrt(d)
        else:
            Z[j] = P.mean(axis=0) + rng.uniform(0.5, 4.0) * rng.standard_normal(d)
    return Z


def _decision(upper, lower, tol):
    return "in" if upper <= tol else "out" if lower > tol else "undecided"


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    d=st.integers(1, 4),
    Q=st.integers(1, 30),
    duplicates=st.integers(0, 11),
    tol=st.sampled_from([1e-8, 1e-4, 1e-2]),
    max_iter=st.sampled_from([37, quadspace.HULL_MAX_ITER]),
)
@settings(max_examples=100, deadline=None)
def test_simplex_distance_batch_matches_per_query_oracle(seed, n, d, Q, duplicates, tol, max_iter):
    rng = generator(seed)
    P = rng.standard_normal((n, d))
    for _ in range(min(duplicates, n - 1)):
        P[rng.integers(n)] = P[rng.integers(n)]
    Z = _hull_queries(rng, P, Q, tol)
    upper, lower = quadspace.simplex_distance(P, Z, tol=tol, max_iter=max_iter)
    assert upper.shape == lower.shape == (Q,)
    (one_up,), (one_lo,) = quadspace.simplex_distance(P, Z[:1], tol=tol, max_iter=max_iter)
    # both bounds come from squared distances (the lower one from g - gap),
    # which carry rounding of order eps * scale^2, so compare them squared
    slack = 1e-13 * max(1.0, np.abs(P).max(), np.abs(Z).max()) ** 2
    near_tol = lambda *bounds: min(abs(b * b - tol * tol) for b in bounds) <= slack  # noqa: E731
    # A query still open at a small cap may be settled on one side only:
    # the refinement is accepted or not on rounding (the sign of a weight
    # the optimum puts at zero, a tie with the nearest-point bound), which
    # moves the certificate from one check to a later one. At the default
    # cap the decisions must agree.
    decide = max_iter == quadspace.HULL_MAX_ITER
    for j, z in enumerate(Z):
        up_ref, lo_ref = simplex_distance_one(P, z, tol=tol, max_iter=max_iter)
        assert max(lower[j], lo_ref) ** 2 <= min(upper[j], up_ref) ** 2 + slack, (j, upper[j], lower[j], up_ref, lo_ref)
        if decide and not near_tol(upper[j], lower[j], up_ref, lo_ref):
            assert _decision(upper[j], lower[j], tol) == _decision(up_ref, lo_ref, tol), (j, upper[j], lower[j], up_ref, lo_ref)
    if decide and not near_tol(one_up, one_lo, upper[0], lower[0]):
        assert _decision(one_up, one_lo, tol) == _decision(upper[0], lower[0], tol)


def test_refine_on_support_solves_each_query():
    # queries sharing a support are solved together; each row must still
    # get its own solution (or rejection) from the per-query refinement
    rng = generator(5)
    P = rng.standard_normal((6, 3))
    G = P @ P.T
    Z = rng.standard_normal((24, 3))
    B = Z @ P.T
    patterns = np.array([[1, 1, 1, 1, 1, 1], [1, 0, 1, 1, 0, 0], [0, 1, 0, 1, 1, 0]], dtype=bool)
    w = rng.uniform(0.1, 1.0, (24, 6)) * patterns[np.arange(24) % 3]
    w /= w.sum(axis=1, keepdims=True)
    w_ref, ok = quadspace._refine_on_support(G, B, w)
    for j in range(24):
        want = hull_oracle._refine_on_support(G, P @ Z[j], w[j])
        assert ok[j] == (want is not None)
        if want is not None:
            np.testing.assert_allclose(w_ref[j], want, rtol=0, atol=1e-12)
    assert ok.any() and not ok.all()


def test_simplex_distance_query_leaves_batch_when_decided(monkeypatch):
    # the batch takes as many iterations as its slowest query, and each
    # query is iterated exactly as often as on its own
    rng = generator(10)
    P = rng.standard_normal((10, 3))
    Z = 1.2 * rng.standard_normal((16, 3))  # inside and outside; 1 to 161 iterations each
    counts = []
    project = hull_oracle._project_simplex

    def counted(z):
        counts[-1] += 1
        return project(z)

    monkeypatch.setattr(hull_oracle, "_project_simplex", counted)
    for z in Z:
        counts.append(0)
        simplex_distance_one(P, z, tol=1e-9)
    rows = []
    batched = quadspace._project_simplex

    def recorded(z):
        rows.append(z.shape[0])
        return batched(z)

    monkeypatch.setattr(quadspace, "_project_simplex", recorded)
    quadspace.simplex_distance(P, Z, tol=1e-9)
    assert len(rows) == max(counts) > min(counts)
    assert sum(rows) == sum(counts)


def test_simplex_distance_query_shape_errors():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ShapeError):
        quadspace.simplex_distance(pts, np.zeros(3))
    with pytest.raises(ShapeError):
        quadspace.simplex_distance(pts, np.zeros(2))
    with pytest.raises(ShapeError):
        quadspace.simplex_distance(pts, np.zeros((4, 3)))
    with pytest.raises(ShapeError):
        quadspace.simplex_distance(pts, np.zeros((1, 4, 2)))

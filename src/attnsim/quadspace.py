"""Dense quadratic-space primitives.

Everything operates on plain float64 numpy arrays: matrices are (n, n),
vectors are (n,). All functions are pure; nothing mutates its inputs.
Hull membership has one rule: a query in simplex_distance's (Q, d) batch
is in when its upper bound is <= tol, and out when its lower bound is > tol.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DomainError, ShapeError, SingularMatrixError

PIVOT_RTOL = 1e-12          # pivot threshold, relative to max |entry|
DEFINITENESS_RTOL = 1e-9    # default definiteness tolerance vs spectral radius
DEFINITENESS_FLOOR = 1e-12
HULL_MAX_ITER = 10_000

# Pade-13 numerator coefficients b_0..b_13 and the largest 1-norm at which
# the degree-13 approximant meets double precision (Higham 2005)
PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
THETA13 = 5.371920351148152


class Definiteness(Enum):
    POSITIVE_DEFINITE = "positive_definite"
    NEGATIVE_DEFINITE = "negative_definite"
    INDEFINITE = "indefinite"
    NEAR_SINGULAR = "near_singular"


def _as_square(B, name="matrix"):
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {B.shape}")
    return B


def sym(B) -> np.ndarray:
    """Symmetric part (B + B^T)/2. The quadratic form of B sees only this."""
    B = _as_square(B)
    return 0.5 * (B + B.T)


def is_symmetric(B, rtol: float) -> bool:
    """|B - B^T| <= rtol * max(1, |B|) entrywise, |B| the largest entry."""
    B = _as_square(B)
    return bool(np.abs(B - B.T).max(initial=0.0) <= rtol * max(np.abs(B).max(initial=0.0), 1.0))


def quad_form(B, u) -> float | np.ndarray:
    """u^T B u: a float for a vector u, or one value per row of an (..., n)
    array u, shaped u.shape[:-1]."""
    B = _as_square(B)
    u = np.asarray(u, dtype=float)
    if u.ndim < 1 or u.shape[-1] != B.shape[0]:
        raise ShapeError(f"vector shape {u.shape} does not match matrix {B.shape}")
    q = np.einsum("...d,de,...e->...", u, B, u)
    return float(q) if q.ndim == 0 else q


def classify_definiteness(B) -> Definiteness:
    """Classify sym(B) by its spectrum.

    NEAR_SINGULAR wins whenever some |eigenvalue| <= tol, where tol is 1e-9
    times the spectral radius, floored at 1e-12.
    """
    B = _as_square(B)
    values = np.linalg.eigvalsh(sym(B))
    radius = np.abs(values).max() if values.size else 0.0
    tol = max(DEFINITENESS_FLOOR, DEFINITENESS_RTOL * radius)
    if np.abs(values).min() <= tol:
        return Definiteness.NEAR_SINGULAR
    if np.all(values > tol):
        return Definiteness.POSITIVE_DEFINITE
    if np.all(values < -tol):
        return Definiteness.NEGATIVE_DEFINITE
    return Definiteness.INDEFINITE


def count_positive_eigs(B) -> int:
    """Number of eigenvalues of sym(B) above 0."""
    return int(np.sum(np.linalg.eigvalsh(sym(B)) > 0))


def invert(M) -> np.ndarray:
    """Inverse of M. Raises SingularMatrixError when a partial-pivoting LU
    pivot falls to PIVOT_RTOL times the largest entry of M or below, and
    ValueError when M is not finite."""
    M = _as_square(M)
    if not np.isfinite(M).all():
        raise ValueError("matrix must not contain infs or NaNs")
    threshold = PIVOT_RTOL * max(np.abs(M).max(initial=0.0), 1e-300)
    U = M.copy()
    for k in range(M.shape[0]):
        p = k + int(np.argmax(np.abs(U[k:, k])))
        if p != k:
            U[[k, p]] = U[[p, k]]
        if abs(U[k, k]) <= threshold:
            raise SingularMatrixError("pivot below threshold; matrix is singular")
        U[k + 1:, k + 1:] -= np.outer(U[k + 1:, k] / U[k, k], U[k, k + 1:])
    return np.linalg.inv(M)


def matexp(M) -> np.ndarray:
    """e^M for one (n, n) matrix.

    Pade-13 scaling and squaring (Higham 2005); a diagonal matrix gets exp
    of its diagonal exactly, infinite entries included. A non-diagonal M
    raises ValueError when not finite, DomainError when its 1-norm overflows.
    """
    M = _as_square(M)
    n = M.shape[0]
    if not M[~np.eye(n, dtype=bool)].any():
        with np.errstate(over="ignore"):  # an overflowing exp(d) is exactly inf
            return np.diag(np.exp(np.diag(M)))  # exp(d) * I would turn an infinite exp into nan off the diagonal
    if not np.isfinite(M).all():
        raise ValueError("matrix must not contain infs or NaNs")
    with np.errstate(over="ignore"):
        norm = np.abs(M).sum(axis=0).max()
    if norm == np.inf:
        raise DomainError("matrix 1-norm overflows float64")
    s = max(0, int(np.ceil(np.log2(norm / THETA13))))
    A = np.ldexp(M, -s)
    b = PADE13
    I = np.eye(n)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def simplex_distance(points, p, tol: float = 1e-8, max_iter: int = HULL_MAX_ITER):
    """Distance from each query to the convex hull of the given points.

    p is a (Q, d) batch of queries. Minimizes ||sum_i w_i points_i - p||
    over simplex weights w with accelerated projected gradient, all queries
    in one (Q, n) weight matrix. Returns (distance_upper, distance_lower),
    two (Q,) arrays: the achieved distance, never above the distance to the
    nearest point, and a certified lower bound from the Frank-Wolfe gap. A
    query leaves the batch once either of its bounds settles the tol
    question.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[0] < 1:
        raise ShapeError("points must be a nonempty (n, d) array")
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[1] != P.shape[1]:
        raise ShapeError(f"queries must be a (Q, {P.shape[1]}) array, got shape {p.shape}")

    n = P.shape[0]
    # every input point lies in the hull, so the nearest one bounds the distance
    upper = np.min([np.linalg.norm(p - x, axis=1) for x in P], axis=0)
    lower = upper.copy() if n == 1 else np.zeros_like(upper)
    # state rows follow the still undecided queries listed in act
    act = np.nonzero(upper > tol)[0] if n > 1 else np.zeros(0, dtype=int)
    q = p[act]
    G = P @ P.T
    B = q @ P.T
    lam_max = float(np.linalg.eigvalsh(G).max())
    step = 1.0 / max(lam_max, 1e-300)

    w = np.full((act.size, n), 1.0 / n)
    y = w.copy()
    t_acc = np.ones(act.size)
    for it in range(max_iter):
        if act.size == 0:
            break
        grad = y @ G - B
        w_new = _project_simplex(y - step * grad)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        restart = np.einsum("qi,qi->q", y - w_new, w_new - w) > 0.0  # adaptive restart
        t_next[restart] = 1.0
        y = w_new + ((t_acc - 1.0) / t_next)[:, None] * (w_new - w)
        y[restart] = w_new[restart]
        w, t_acc = w_new, t_next

        if it % 10 == 0 or it == max_iter - 1:
            best_upper = upper[act]
            if it % 50 == 0 or it == max_iter - 1:
                w_ref, ok = _refine_on_support(G, B, w)
                d_ref = np.linalg.norm(w_ref @ P - q, axis=1)
                better = ok & (d_ref < best_upper)
                best_upper[better] = d_ref[better]
                w[better] = w_ref[better]
            r = w @ P - q
            g_val = 0.5 * np.einsum("qd,qd->q", r, r)
            best_upper = np.minimum(best_upper, np.sqrt(2.0 * g_val))
            grad = w @ G - B
            gap = np.einsum("qi,qi->q", grad, w) - grad.min(axis=1)  # FW gap bounds g(w) - g*
            best_lower = np.maximum(lower[act], np.sqrt(np.maximum(0.0, 2.0 * (g_val - gap))))
            upper[act], lower[act] = best_upper, best_lower
            keep = (best_upper > tol) & (best_lower <= tol)
            if not keep.all():
                act, q, B, w, y, t_acc = act[keep], q[keep], B[keep], w[keep], y[keep], t_acc[keep]
    return upper, lower


def _refine_on_support(G, B, w, floor=1e-12):
    # exact equality-constrained least squares on each query's active set,
    # one solve per distinct set with its queries as right-hand sides;
    # returns refined weights and the mask of rows whose refinement is feasible
    out = np.zeros_like(w)
    ok = np.zeros(w.shape[0], dtype=bool)
    supports, which, counts = np.unique(w > floor, axis=0, return_inverse=True, return_counts=True)
    groups = np.split(np.argsort(which.ravel(), kind="stable"), np.cumsum(counts)[:-1])
    for support, rows in zip(supports, groups):
        S = np.nonzero(support)[0]
        if S.size == 0:
            continue
        k = S.size
        KKT = np.zeros((k + 1, k + 1))
        KKT[:k, :k] = G[np.ix_(S, S)]
        KKT[:k, k] = 1.0
        KKT[k, :k] = 1.0
        rhs = np.ones((k + 1, rows.size))
        rhs[:k] = B[np.ix_(rows, S)].T
        try:
            sol = np.linalg.lstsq(KKT, rhs, rcond=None)[0]
        except np.linalg.LinAlgError:
            continue
        w_S = sol[:k].T
        feasible = w_S.min(axis=1) >= 0.0
        rows, w_S = rows[feasible], w_S[feasible]
        out[np.ix_(rows, S)] = w_S / w_S.sum(axis=1, keepdims=True)
        ok[rows] = True
    return out, ok


def _project_simplex(z):
    # Euclidean projection of each row of z onto the probability simplex (sort-based).
    u = np.sort(z, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    idx = np.arange(1, z.shape[1] + 1)
    rho = z.shape[1] - 1 - np.argmax((u > css / idx)[:, ::-1], axis=1)  # last index where u > css / idx
    theta = css[np.arange(z.shape[0]), rho] / (rho + 1.0)
    return np.maximum(z - theta[:, None], 0.0)


"""Dense quadratic-space primitives.

Everything operates on plain float64 numpy arrays: matrices are (n, n),
vectors are (n,). All functions are pure; nothing mutates its inputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .errors import (
    ContractError,
    DomainError,
    HullUndecidedError,
    ShapeError,
    SingularMatrixError,
)

PIVOT_RTOL = 1e-12          # pivot threshold, relative to max |entry|
SYMMETRY_RTOL = 1e-12       # eig_sym admission threshold
DEFINITENESS_RTOL = 1e-9    # default definiteness tolerance vs spectral radius
DEFINITENESS_FLOOR = 1e-12
HULL_MAX_ITER = 10_000


class Definiteness(Enum):
    POSITIVE_DEFINITE = "positive_definite"
    NEGATIVE_DEFINITE = "negative_definite"
    INDEFINITE = "indefinite"
    NEAR_SINGULAR = "near_singular"


@dataclass(frozen=True)
class EigSym:
    """Full symmetric eigendecomposition, eigenvalues ascending.

    vectors[:, k] is the unit eigenvector for values[k].
    """

    values: np.ndarray
    vectors: np.ndarray


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


def eig_sym(S) -> EigSym:
    """Orthonormal eigendecomposition of a symmetric matrix, values ascending.

    Rejects inputs whose asymmetry exceeds SYMMETRY_RTOL relative to the
    largest entry.
    """
    S = _as_square(S)
    if not is_symmetric(S, SYMMETRY_RTOL):
        raise ContractError("matrix is not symmetric within tolerance")
    values, vectors = np.linalg.eigh(S)
    return EigSym(values=values, vectors=vectors)


def classify_definiteness(B, tol: float | None = None) -> Definiteness:
    """Classify sym(B) by its spectrum.

    NEAR_SINGULAR wins whenever some |eigenvalue| <= tol. The default tol is
    1e-9 times the spectral radius, floored at 1e-12.
    """
    B = _as_square(B)
    values = np.linalg.eigvalsh(sym(B))
    if tol is None:
        radius = np.abs(values).max() if values.size else 0.0
        tol = max(DEFINITENESS_FLOOR, DEFINITENESS_RTOL * radius)
    elif tol < 0:
        raise DomainError("tol must be nonnegative")
    if np.abs(values).min() <= tol:
        return Definiteness.NEAR_SINGULAR
    if np.all(values > tol):
        return Definiteness.POSITIVE_DEFINITE
    if np.all(values < -tol):
        return Definiteness.NEGATIVE_DEFINITE
    return Definiteness.INDEFINITE


def a_norm(B, u) -> float:
    """Norm induced by a definite quadratic form: sqrt(|q_B(u)|) with the
    sign fixed by the definiteness of sym(B)."""
    kind = classify_definiteness(B)
    if kind is Definiteness.POSITIVE_DEFINITE:
        q = quad_form(B, u)
    elif kind is Definiteness.NEGATIVE_DEFINITE:
        q = -quad_form(B, u)
    else:
        raise DomainError(f"sym part is {kind.value}; the form induces no norm")
    return float(np.sqrt(max(q, 0.0)))


def invert(M) -> np.ndarray:
    """Inverse via pivoted LU. Raises SingularMatrixError when the smallest
    pivot falls below PIVOT_RTOL times the largest entry of M."""
    M = _as_square(M)
    scale = np.abs(M).max() if M.size else 0.0
    with warnings.catch_warnings():
        # singularity is detected below via the pivot check
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(M, check_finite=True)
    if np.abs(np.diag(lu)).min() <= PIVOT_RTOL * max(scale, 1e-300):
        raise SingularMatrixError("pivot below threshold; matrix is singular")
    return scipy.linalg.lu_solve((lu, piv), np.eye(M.shape[0]))


def matexp(M) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring, via scipy)."""
    M = _as_square(M)
    return scipy.linalg.expm(M)


def simplex_distance(points, p, tol: float = 1e-8, max_iter: int = HULL_MAX_ITER):
    """Distance from p to the convex hull of the given points.

    Minimizes ||sum_i w_i points_i - p|| over simplex weights w with
    accelerated projected gradient. Returns (distance_upper, distance_lower):
    the achieved distance, never above the distance to the nearest point,
    and a certified lower bound from the Frank-Wolfe gap. Stops early once
    either bound settles the tol question.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[0] < 1:
        raise ShapeError("points must be a nonempty (n, d) array")
    p = np.asarray(p, dtype=float)
    if p.shape != (P.shape[1],):
        raise ShapeError("query point dimension mismatch")

    n = P.shape[0]
    # every input point lies in the hull, so the nearest one bounds the distance
    best_upper = float(np.linalg.norm(P - p, axis=1).min())
    if n == 1:
        return best_upper, best_upper
    if best_upper <= tol:
        return best_upper, 0.0

    G = P @ P.T
    b = P @ p
    lam_max = float(np.linalg.eigvalsh(G).max())
    step = 1.0 / max(lam_max, 1e-300)

    w = np.full(n, 1.0 / n)
    y = w.copy()
    t_acc = 1.0
    best_lower = 0.0
    for it in range(max_iter):
        grad = G @ y - b
        w_new = _project_simplex(y - step * grad)
        if (y - w_new) @ (w_new - w) > 0.0:  # adaptive restart
            t_next = 1.0
            y = w_new
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
            y = w_new + ((t_acc - 1.0) / t_next) * (w_new - w)
        w, t_acc = w_new, t_next

        if it % 10 == 0 or it == max_iter - 1:
            if it % 50 == 0 or it == max_iter - 1:
                w_ref = _refine_on_support(G, b, w)
                if w_ref is not None:
                    d_ref = float(np.linalg.norm(P.T @ w_ref - p))
                    if d_ref < best_upper:
                        best_upper = d_ref
                        w = w_ref
            r = P.T @ w - p
            g_val = 0.5 * float(r @ r)
            best_upper = min(best_upper, np.sqrt(2.0 * g_val))
            grad = G @ w - b
            gap = float(grad @ w - grad.min())  # FW gap bounds g(w) - g*
            best_lower = max(best_lower, np.sqrt(max(0.0, 2.0 * (g_val - gap))))
            if best_upper <= tol or best_lower > tol:
                return best_upper, best_lower
    return best_upper, best_lower


def _refine_on_support(G, b, w, floor=1e-12):
    # exact equality-constrained least squares on the current active set;
    # returns a feasible refined weight vector or None
    S = np.nonzero(w > floor)[0]
    if S.size == 0:
        return None
    k = S.size
    KKT = np.zeros((k + 1, k + 1))
    KKT[:k, :k] = G[np.ix_(S, S)]
    KKT[:k, k] = 1.0
    KKT[k, :k] = 1.0
    rhs = np.append(b[S], 1.0)
    try:
        sol = np.linalg.lstsq(KKT, rhs, rcond=None)[0]
    except np.linalg.LinAlgError:
        return None
    w_S = sol[:k]
    if w_S.min() < 0.0:
        return None
    out = np.zeros_like(w)
    out[S] = w_S / w_S.sum()
    return out


def _project_simplex(z):
    # Euclidean projection onto the probability simplex (sort-based).
    u = np.sort(z)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, z.size + 1)
    rho = np.nonzero(u > css / idx)[0][-1]
    return np.maximum(z - css[rho] / (rho + 1.0), 0.0)


def in_convex_hull(points, p, tol: float = 1e-8) -> bool:
    """True iff p lies within tol of the convex hull of points.

    Raises HullUndecidedError when the optimizer cannot certify either
    answer within the iteration cap.
    """
    upper, lower = simplex_distance(points, p, tol=tol)
    if upper <= tol:
        return True
    if lower > tol:
        return False
    raise HullUndecidedError(
        f"hull membership undecided: distance in [{lower:.3e}, {upper:.3e}], tol {tol:.3e}"
    )

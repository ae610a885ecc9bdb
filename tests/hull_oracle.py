"""Slow reference implementations of the certified hull queries.

simplex_distance_one is the per-query accelerated projected gradient that
quadspace.simplex_distance batches; hull_containment_loop is the
per-sample, per-token checker loop that analyze.check_hull_containment
replaces with batched calls. Both exist only as test oracles.
"""

import numpy as np

from attnsim.analyze import CheckResult
from attnsim.errors import ShapeError
from attnsim.quadspace import HULL_MAX_ITER


def simplex_distance_one(points, p, tol: float = 1e-8, max_iter: int = HULL_MAX_ITER):
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


def hull_containment_loop(traj, lam, tol):
    """The checker's margin and location with one query per (sample, token)."""
    X0 = traj.initial
    worst, loc = np.inf, float(traj.times[0])
    for t, X in zip(traj.times, traj.states):
        Z = np.exp(-lam * t) * X
        for z in Z:
            dist, _ = simplex_distance_one(X0, z, tol=tol)
            margin = tol - dist
            if margin < worst:
                worst, loc = float(margin), float(t)
    return CheckResult("rescaled_hull_containment", worst >= 0.0, worst, loc)

"""Reference implementations on scipy, used only as test oracles.

The package computes with numpy alone. invert_lu is the inverse through
scipy's LU factorisation (getrf, then getrs on the identity) with the
package's pivot rule; projection_band_loop is the divergence-projection
check taken literally, one scipy.linalg.expm(-tV) per sample, against
which analyze.check_divergence_projection's closed form e^{-lam t} n is
compared.
"""

import warnings

import numpy as np
import scipy.linalg

from attnsim.analyze import CheckResult
from attnsim.errors import SingularMatrixError
from attnsim.quadspace import PIVOT_RTOL


def lu_factor(M):
    """scipy's partial-pivoting LU of M, without its warning on a zero pivot."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        return scipy.linalg.lu_factor(np.asarray(M, dtype=float), check_finite=True)


def min_pivot(M) -> float:
    """Smallest |pivot| of scipy's LU of M."""
    return float(np.abs(np.diag(lu_factor(M)[0])).min())


def invert_lu(M):
    """Inverse via scipy's LU; SingularMatrixError when the smallest pivot is
    at most PIVOT_RTOL times the largest entry of M."""
    M = np.asarray(M, dtype=float)
    lu, piv = lu_factor(M)
    if np.abs(np.diag(lu)).min() <= PIVOT_RTOL * max(np.abs(M).max(), 1e-300):
        raise SingularMatrixError("pivot below threshold; matrix is singular")
    return scipy.linalg.lu_solve((lu, piv), np.eye(M.shape[0]))


def projection_band_loop(traj, V, n, tol):
    """The projection-band margin and location, one expm per sample; the
    first sample with the smallest margin is the location."""
    V = np.asarray(V, dtype=float)
    y0 = traj.initial @ n
    lo, hi = float(y0.min()), float(y0.max())
    worst, loc = np.inf, float(traj.times[0])
    for t, X in zip(traj.times, traj.states):
        y = X @ (scipy.linalg.expm(-t * V) @ n)
        m = min(float((y - lo).min()), float((hi - y).min()))
        if m < worst:
            worst, loc = m, float(t)
    return CheckResult("projection_band", worst >= -tol, worst, loc)

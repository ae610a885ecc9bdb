"""Fixed-step RK4 integration with trajectory recording and blow-up guard."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, IntegrationError

DEFAULT_BLOWUP_NORM = 1e8
STABLE_STEP_MARGIN = 0.5  # h * rho(V) at the largest step stable_step allows
RK4_REGION_MARGIN = 0.8  # h / h* at the largest step region_step allows


class Termination(Enum):
    HORIZON_REACHED = "horizon_reached"
    BLOW_UP = "blow_up"


@dataclass(frozen=True)
class IntegratorConfig:
    h: float = 1e-2
    T: float = 10.0
    record_stride: int = 1
    blowup_norm: float = DEFAULT_BLOWUP_NORM

    def __post_init__(self):
        if not 0 < self.h < math.inf:
            raise DomainError("step size must be positive and finite")
        if not self.h <= self.T < math.inf:
            raise DomainError("horizon must be finite and at least one step")
        if self.record_stride < 1:
            raise DomainError("record_stride must be >= 1")
        if not self.blowup_norm > 0:  # inf is allowed: no guard
            raise DomainError("blowup_norm must be positive")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.T / self.h)))

    @property
    def n_samples(self) -> int:
        """Samples integrate records on a run that reaches T: t = 0, every stride-th step and the last."""
        return 1 + -(-self.n_steps // self.record_stride)


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of one integration run.

    times is (N,), states is (N, L, D); sample 0 is the initial state and
    the final sample is always recorded. On blow-up by the norm guard the
    final sample is the first state whose max token norm exceeded it; a
    step that left the state non-finite is not recorded.
    """

    times: np.ndarray
    states: np.ndarray
    terminated: Termination
    config: IntegratorConfig
    blowup_time: float | None = None

    @property
    def initial(self) -> np.ndarray:
        return self.states[0]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def rk4_step(rhs, X, h: float) -> np.ndarray:
    """One classical Runge-Kutta step of the autonomous field rhs(X) -> dX."""
    half = 0.5 * h
    k1 = rhs(X)
    k2 = rhs(X + half * k1)
    k3 = rhs(X + half * k2)
    k4 = rhs(X + h * k3)
    return X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(rhs, X0, config: IntegratorConfig, sink=None) -> Trajectory:
    """Integrate the autonomous field rhs(X) from X0 over [0, T] in fixed
    steps of h.

    Records every record_stride-th sample plus t=0 and the final state;
    stops early with BLOW_UP once any token's Euclidean norm exceeds
    config.blowup_norm, or at the start of a step whose result is not
    finite (that state is not recorded). rhs errors propagate wrapped with
    the failure time.

    With a sink, each recorded sample goes to sink(t, X) as it is taken
    (X is never written to afterwards) and the returned Trajectory keeps
    only the first and the last of them.
    """
    X = np.array(X0, dtype=float)
    if X.ndim != 2:
        raise DomainError("initial state must be an (L, D) array")
    samples = []
    if sink is None:
        sink = lambda *sample: samples.append(sample)  # noqa: E731
    first = last = (0.0, X)
    sink(*first)
    terminated, blowup_time = Termination.HORIZON_REACHED, None
    n, h, stride, bound = config.n_steps, config.h, config.record_stride, config.blowup_norm
    # A total of squares below quick settles a step. A nan, an inf or an overflowing square makes
    # the total nan or inf. In any summation order, fused or not, the total is at least
    # (1 - eps)^(2 L D) times the exact sum of the rounded squares (subnormal sums are exact, fused
    # ones round no lower), and a row sum at most (1 + eps)^D times its part of that sum: so below
    # bound^2 even after quick's own rounding, and no row norm passes bound. With bound^2 = inf no
    # finite row sum's sqrt (< 1.4e154) passes bound; with bound^2 = 0 every step is checked.
    quick = 0.5 * (bound * bound)
    # overflow and nan are this loop's to detect, not numpy's to warn about
    with np.errstate(all="ignore"):
        for k in range(n):
            try:
                X = rk4_step(rhs, X, h)
            except Exception as exc:
                raise IntegrationError(f"rhs evaluation failed at t={k * h:.6g}") from exc
            s = X.ravel().dot(X.ravel())
            if not s < quick:
                # the largest row sum s is nan iff an entry is nan, and inf iff an
                # entry is inf or a finite square overflows; only the last is recordable
                s = np.add.reduce(X * X, axis=1).max()
                if not math.isfinite(s) and not np.isfinite(X).all():
                    terminated, blowup_time = Termination.BLOW_UP, k * h
                    break
            # the decision of np.linalg.norm(X, axis=1).max() > bound, bit for bit:
            # norm is this IEEE sqrt of a row sum, sqrt is monotone, and s < quick is no blow-up
            blown = math.sqrt(s) > bound
            if blown or (k + 1) % stride == 0 or k == n - 1:
                last = ((k + 1) * h, X)  # rk4_step returns a fresh array
                sink(*last)
            if blown:
                terminated, blowup_time = Termination.BLOW_UP, (k + 1) * h
                break
    if not samples:  # streamed: keep the endpoints
        samples = [first] if last is first else [first, last]
    times, states = zip(*samples)
    return Trajectory(np.array(times), np.array(states), terminated, config, blowup_time)


def stable_step(V, cap: float = 1e-2) -> float:
    """Step size keeping RK4 stable for the mean-mode linearization
    dx = V^T x: h <= STABLE_STEP_MARGIN / rho(V). Returns min(cap, that bound)."""
    rho = float(np.abs(np.linalg.eigvals(np.asarray(V, dtype=float))).max())
    if rho == 0.0:
        return cap
    return min(cap, STABLE_STEP_MARGIN / rho)


def region_step(V, cap: float = 1e-2) -> float:
    """min(cap, RK4_REGION_MARGIN times the largest h with |R(h mu)| <= 1),
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, over mu = each eigenvalue lam of V
    with Re lam <= 0 and mu = i Im lam for Re lam > 0 (mu != 0): RK4 stays
    stable on each mode of dx = V^T x, a growing one's oscillation included."""
    h = math.inf
    for lam in np.linalg.eigvals(np.asarray(V, dtype=float)).tolist():
        lam = complex(0.0, lam.imag) if lam.real > 0 else lam  # a growing mode counts by its oscillation
        if lam == 0:
            continue
        # along a ray into Re z <= 0 the region is one interval [0, h*], inside |z| < 2.97
        lo, hi = 0.0, 3.0 / abs(lam)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            z = mid * lam
            if abs(1 + z * (1 + z * (0.5 + z * (1 / 6 + z / 24)))) <= 1.0:
                lo = mid
            else:
                hi = mid
        h = min(h, lo)
    return min(cap, RK4_REGION_MARGIN * h)

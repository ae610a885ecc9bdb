"""Trajectory metrics and numerical theorem checkers.

Each checker consumes a recorded Trajectory and produces CheckResult
records (or SkippedCheck when its hypotheses fail). Margins are signed so
that "passed" always means worst_margin >= -tolerance, with tolerance
already folded into the margin for threshold-style checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import quadspace
from .dynamics import _attention_average, _check_state
from .errors import ConfigError, DomainError, HypothesisError, SingularMatrixError
from .integrate import Termination, Trajectory, region_step
from .params import ModelParams, derive_W_A

CONVERGED_RATIO = 1e-3
DIVERGED_RATIO = 1e3
EXP_CLIP = 700.0  # keeps margins finite when q_W is very negative
EIGEN_TOL = 1e-8  # relative imaginary part and residual a real eigenpair may carry
BLOCK_ENTRIES = 2**18  # float64 entries per block: samples x token pairs (pair walk), queries x hull points (hull)


class Regime(Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_margin: float
    location: float  # time of the worst margin
    asserted: bool = True  # report-only results do not gate exit status


@dataclass(frozen=True)
class SkippedCheck:
    name: str
    reason: str


REPORT_COLUMNS = ("name", "status", "worst_margin", "location")  # report.csv, one row per VerificationReport.to_records


@dataclass(frozen=True)
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)
    skipped: list[SkippedCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.asserted)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            note = "" if c.asserted else " (report only)"
            lines.append(f"{status:4s} {c.name}: worst margin {c.worst_margin:+.6e} at t={c.location:.4f}{note}")
        for s in self.skipped:
            lines.append(f"SKIP {s.name}: {s.reason}")
        return "\n".join(lines)

    def to_records(self) -> list[tuple]:
        """One row of REPORT_COLUMNS per check: name, pass/fail/skip, margin and time (a skip: "" and the reason)."""
        recs = [(c.name, "pass" if c.passed else "fail", float(c.worst_margin), float(c.location)) for c in self.checks]
        return recs + [(s.name, "skip", "", s.reason) for s in self.skipped]

    def add(self, *records: CheckResult | SkippedCheck) -> None:
        """Append each record, in order, to checks or to skipped."""
        for r in records:
            (self.checks if isinstance(r, CheckResult) else self.skipped).append(r)


@dataclass(frozen=True)
class MetricSeries:
    times: np.ndarray
    mean_token_norm: np.ndarray
    mean_pairwise_dist: np.ndarray


def metrics_block_samples(L: int, D: int) -> int:
    """Whole samples per _pair_forms block: neither the pair rows, nor one
    offset's differences, nor (at L = 1) the samples outgrow BLOCK_ENTRIES."""
    return max(1, BLOCK_ENTRIES // max(L * (L - 1) // 2, (L - 1) * D, D))


def _pair_forms(states, S=None, overlap=0):
    """(first, rows) per block of metrics_block_samples(L, D) samples plus
    `overlap` from the block before: row s is d.(d S), or d.d, for each pair
    difference d = x_j - x_{j+k} of sample first + s, walked by offset k. One
    matmul slice and one einsum per sample and offset: bits of any block."""
    N, L, D = states.shape
    per_block = metrics_block_samples(L, D)
    buf = np.empty((min(per_block, N) + overlap, L * (L - 1) // 2))
    for start in range(0, N, per_block):
        first = max(0, start - overlap)
        X = np.ascontiguousarray(states[first:start + per_block])  # reductions round by memory layout
        rows, col = buf[:len(X)], 0
        with np.errstate(invalid="ignore"):  # an inf token's forms may be nan, as its steps are
            for k in range(1, L):
                d = X[:, :L - k] - X[:, k:]
                np.einsum("spd,spd->sp", d, d if S is None else np.matmul(d, S), out=rows[:, col:col + L - k])
                col += L - k
                del d  # one offset's differences alive at a time
        yield first, rows


def trajectory_metrics(traj: Trajectory) -> MetricSeries:
    """Per-sample mean token norm and mean pairwise Euclidean distance, the
    mean of sqrt(d.d) over a _pair_forms row. Reads only traj.times and
    traj.states: a C-contiguous run's blocks give its values bit for bit."""
    if traj.states.shape[0] == 0:
        raise DomainError("empty trajectory")
    N, L, _ = traj.states.shape
    mean_norm = np.linalg.norm(traj.states, axis=2).mean(axis=1)
    dists = np.zeros(N)
    for first, rows in _pair_forms(traj.states) if L > 1 else ():
        np.sqrt(rows, out=rows)
        dists[first:first + len(rows)] = rows.mean(axis=1)
    return MetricSeries(times=traj.times, mean_token_norm=mean_norm, mean_pairwise_dist=dists)


@dataclass(frozen=True, eq=False)
class RunFacts:
    """What the W/A laws' hypotheses read, derived once per run: W, A, whether
    A is symmetric (within 1e-8), the definiteness of sym(A) and sym(W), and
    whether the run is in the collapse regime."""
    W: np.ndarray
    A: np.ndarray
    a_symmetric: bool
    a_kind: quadspace.Definiteness
    w_kind: quadspace.Definiteness
    collapse: bool  # sym(A) < 0 and sym(W) > 0

    @classmethod
    def of(cls, W, A) -> RunFacts:
        a_kind, w_kind = quadspace.classify_definiteness(A), quadspace.classify_definiteness(W)
        collapse = a_kind is quadspace.Definiteness.NEGATIVE_DEFINITE and w_kind is quadspace.Definiteness.POSITIVE_DEFINITE
        return cls(W, A, quadspace.is_symmetric(A, 1e-8), a_kind, w_kind, collapse)


def check_distance_monotonicity(traj: Trajectory, facts: RunFacts, tol: float) -> CheckResult | SkippedCheck:
    """Step-wise monotonicity of squared A-distances between token pairs:
    q_A(x_i - x_j) non-decreasing when sym(A) is positive definite, and the
    squared A-norm -q_A non-increasing when it is negative definite; report
    only unless A is symmetric. Skipped when sym(A) is neither. Vacuously
    passes with margin 0 when there are no pairs or no steps. The _pair_forms
    blocks of S = sym(A) overlap by one sample, so each step is taken once."""
    kind = facts.a_kind
    if kind not in (quadspace.Definiteness.POSITIVE_DEFINITE, quadspace.Definiteness.NEGATIVE_DEFINITE):
        return SkippedCheck("distance_monotonicity", f"sym(A) is {kind.value}; no monotone direction")
    sign = 1.0 if kind is quadspace.Definiteness.POSITIVE_DEFINITE else -1.0
    name = f"distance_monotonicity_{'non_decreasing' if sign > 0 else 'non_increasing'}"
    N, L, _ = traj.states.shape
    if L < 2 or N < 2:
        return CheckResult(name, True, 0.0, float(traj.times[0]), asserted=facts.a_symmetric)
    worst = []
    for first, rows in _pair_forms(traj.states, quadspace.sym(facts.A), overlap=1):
        margins = sign * np.diff(sign * rows, axis=0)  # steps of sign * q_A, signed back: a zero step keeps its sign
        margins[np.isinf(margins)] = np.nan  # a step into or out of an inf form fails, as a nan step does
        if margins.size:
            k, p = np.unravel_index(np.argmin(margins), margins.shape)
            worst.append((float(margins[k, p]), float(traj.times[first + k + 1])))
        del margins  # one block's steps at a time
    margin, loc = worst[int(np.argmin([m for m, _ in worst]))]  # the first worst block; a nan is worst
    return CheckResult(name, margin >= -tol, margin, loc, asserted=facts.a_symmetric)


def check_quadratic_form_bounds(
    traj: Trajectory,
    facts: RunFacts,
    tol_differential: float | None = None,
    tol_envelope: float = 1e-4,
) -> list[CheckResult | SkippedCheck]:
    """Differential inequality d/dt q_A >= 2 - 2L e^{-q_W} at interior
    samples (central differences), plus the closed-form decay envelope on
    the squared A-norm in the collapse regime (A < 0 and W_sym > 0).

    Requires symmetric A; otherwise the whole check is reported skipped.
    The default differential tolerance is 10 h^3 for the median sample
    spacing h (finite-difference error budget).
    """
    W, A = facts.W, facts.A
    if not facts.a_symmetric:
        return [SkippedCheck("qa_bounds", "A is not symmetric; proposition hypothesis fails")]
    t = traj.times
    if len(t) < 3:
        return [SkippedCheck("qa_bounds", "need at least 3 samples for central differences")]
    L = traj.states.shape[1]
    qA = quadspace.quad_form(A, traj.states)
    qW = quadspace.quad_form(W, traj.states)

    if tol_differential is None:
        h = float(np.median(np.diff(t)))
        tol_differential = 10.0 * h**3
    dq = (qA[2:] - qA[:-2]) / (t[2:, None] - t[:-2, None])
    bound = 2.0 - 2.0 * L * np.exp(np.clip(-qW[1:-1], None, EXP_CLIP))
    margins = dq - bound
    k, l = np.unravel_index(np.argmin(margins), margins.shape)
    worst = float(margins[k, l])
    results: list[CheckResult | SkippedCheck] = [
        CheckResult("qa_rate_lower_bound", worst >= -tol_differential, worst, float(t[k + 1]))
    ]

    if facts.collapse:
        c = float(np.linalg.eigvalsh(quadspace.sym(W)).min() / np.linalg.eigvalsh(-quadspace.sym(A)).max())
        na = -qA  # squared A-norm, A < 0
        inner = np.exp(-2.0 * c * t)[:, None] * (np.exp(np.clip(c * na[0], None, EXP_CLIP))[None, :] - L) + L
        env = np.log(inner) / c
        margins_env = env - na
        k, l = np.unravel_index(np.argmin(margins_env), margins_env.shape)
        worst_env = float(margins_env[k, l])
        results.append(CheckResult("qa_decay_envelope", worst_env >= -tol_envelope, worst_env, float(t[k])))
    else:
        results.append(SkippedCheck("qa_decay_envelope", f"needs A < 0 and W_sym > 0 (got A {facts.a_kind.value}, W_sym {facts.w_kind.value})"))
    return results


def check_convergence(traj: Trajectory, rel_threshold: float) -> CheckResult:
    """max_l ||x_l(T)|| <= rel_threshold * max_l ||x_l(0)||."""
    start = float(np.linalg.norm(traj.initial, axis=1).max())
    end = float(np.linalg.norm(traj.final, axis=1).max())
    margin = rel_threshold * start - end
    return CheckResult("norm_collapse", margin >= 0.0, margin, float(traj.times[-1]))


def check_divergence_projection(traj: Trajectory, V, n, eigenvalue: float, tol: float) -> list[CheckResult]:
    """Invariant-projection bounds of the divergence theorem.

    Checks min_i n.x_i(0) - tol <= n^T e^{-tV^T} x_l(t) <= max_i + tol at
    every sample. As V n = lam n, e^{-tV} n is e^{-lam t} n exactly; no
    matrix exponential is taken, so rounding in n along a contracting mode
    mu < 0 is not amplified by e^{|mu| t}. When the initial projections are
    strictly one-sided and V has only positive eigenvalues, additionally
    reports whether the run exceeded the blow-up guard (the
    norm-divergence consequence).
    """
    V = np.asarray(V, dtype=float)
    n = np.asarray(n, dtype=float)
    _require_eigenvector(V, n, eigenvalue)
    if eigenvalue <= 0:
        raise HypothesisError("the projection bound needs a positive eigenvalue")

    y0 = traj.initial @ n
    lo, hi = float(y0.min()), float(y0.max())
    w = np.exp(-traj.times * eigenvalue)[:, None] * n  # e^{-tV} n at every sample time
    y = (traj.states @ w[:, :, None])[:, :, 0]
    margins = np.minimum((y - lo).min(axis=1), (hi - y).min(axis=1))
    k = int(np.argmin(margins))  # first worst sample; a nan margin is worst and fails
    worst = float(margins[k])
    results = [CheckResult("projection_band", worst >= -tol, worst, float(traj.times[k]))]

    eigs = np.linalg.eigvals(V)
    one_sided = lo > 1e-8 or hi < -1e-8
    positive_spectrum = np.abs(eigs.imag).max() <= 1e-8 * max(1.0, np.abs(eigs).max()) and eigs.real.min() > 0
    if one_sided and positive_spectrum:
        final_max = float(np.linalg.norm(traj.final, axis=1).max())
        margin = final_max - traj.config.blowup_norm
        results.append(
            CheckResult("norm_divergence", traj.terminated is Termination.BLOW_UP or margin > 0, margin, float(traj.times[-1]))
        )
    return results


def check_hull_containment(traj: Trajectory, V, lam: float, tol: float) -> CheckResult | SkippedCheck:
    """e^{-lam t} x_l(t) stays in the convex hull of the initial tokens;
    skipped unless V = lam I, lam > 0. A non-finite query's margin is nan."""
    V = np.asarray(V, dtype=float)
    D = V.shape[0]
    if not (lam > 0 and np.abs(V - lam * np.eye(D)).max() <= 1e-10):
        return SkippedCheck("rescaled_hull_containment", "V is not a positive multiple of the identity")
    X0 = traj.initial
    N, L, _ = traj.states.shape
    per_block = max(1, BLOCK_ENTRIES // (L * L))  # whole samples, L queries each against L points
    worst = []
    for start in range(0, N, per_block):
        block = slice(start, start + per_block)
        Z = (np.exp(-lam * traj.times[block])[:, None, None] * traj.states[block]).reshape(-1, D)
        finite = np.isfinite(Z).all(axis=1)
        margins = np.full(len(Z), np.nan)
        margins[finite] = tol - quadspace.simplex_distance(X0, Z[finite], tol=tol)[0]
        k = int(np.argmin(margins))  # first worst query in (sample, token) order
        worst.append((float(margins[k]), float(traj.times[start + k // L])))
    margin, loc = worst[int(np.argmin([m for m, _ in worst]))]  # the pair law's merge: a nan is worst
    return CheckResult("rescaled_hull_containment", margin >= 0.0, margin, loc)


def stationarity_residual(params: ModelParams, X) -> float:
    """max_l || sum_j softmax_j(x_l^T W x_.) x_j ||, by the vanilla field's
    kernel: zero exactly at the all-zero stationary state and, unlike the
    weights e^{x_l^T W x_j}, unable to underflow to a false zero far from it. nan on a non-finite X."""
    X = _check_state(params, X)
    if not np.isfinite(X).all():
        return math.nan
    return float(np.linalg.norm(_attention_average(X.dot(params.W), X, X), axis=1).max())


def check_stationarity(traj: Trajectory, params: ModelParams, tol: float) -> CheckResult:
    residual = stationarity_residual(params, traj.final)
    return CheckResult("stationarity_residual", residual <= tol, tol - residual, float(traj.times[-1]))


def check_absolute_limit(traj: Trajectory, P, tol: float) -> CheckResult:
    """max_l ||x_l(T) + p_l|| <= tol (limit of the absolute-PE dynamics)."""
    P = np.asarray(P, dtype=float)
    dev = float(np.linalg.norm(traj.final + P, axis=1).max())
    return CheckResult("absolute_position_limit", dev <= tol, tol - dev, float(traj.times[-1]))


def check_derivative_decay(traj: Trajectory, tol: float) -> CheckResult:
    """Finite-difference token velocity over the last recorded step."""
    if len(traj.times) < 2:
        raise DomainError("need at least two samples")
    dt = float(traj.times[-1] - traj.times[-2])
    vel = float(np.linalg.norm(traj.states[-1] - traj.states[-2], axis=1).max() / dt)
    return CheckResult("velocity_decay", vel <= tol, tol - vel, float(traj.times[-1]))


def endpoint_mean_norms(traj: Trajectory) -> tuple[float, float]:
    """Mean token norm of the initial and of the final state."""
    return float(np.linalg.norm(traj.initial, axis=1).mean()), float(np.linalg.norm(traj.final, axis=1).mean())


def sweep_schedule(V, h_cap: float, t_max: float, horizon: float | None = None) -> tuple[float, float, int, np.ndarray]:
    """A sweep run's step h, horizon T, record stride (about 512 samples) and
    its mean mode's rates, the real parts of the eigenvalues of V^T. T is
    horizon, or else 9 / min |rate| in [10, t_max]; h = T / ceil(T / region_step(V, h_cap)),
    the largest step within region_step that ends the run at T."""
    rates = np.linalg.eigvals(np.asarray(V, dtype=float).T).real
    T = horizon if horizon is not None else float(np.clip(9.0 / max(float(np.abs(rates).min()), 1e-9), 10.0, t_max))
    h = T / math.ceil(T / region_step(V, cap=h_cap))
    return h, T, max(1, int(T / h / 512)), rates


def sweep_row(traj: Trajectory, W, A, rates) -> dict:
    """A sweep run's seeds.csv entries but the seed: the positive-eigenvalue
    counts of sym(W) and sym(A), the regime, the final / initial mean-norm
    ratio (nan from a zero start), the termination, T, h and the fastest rate."""
    start, end = endpoint_mean_norms(traj)
    return {
        "pos_eigs_Wsym": quadspace.count_positive_eigs(W),
        "pos_eigs_Asym": quadspace.count_positive_eigs(A),
        "regime": classify_regime(traj).value,
        "mean_norm_ratio": end / start if start > 0 else float("nan"),
        "terminated": traj.terminated.value,
        "T": traj.config.T,
        "h": traj.config.h,
        "max_re_eig_V": float(rates.max()),
    }


def classify_regime(traj: Trajectory) -> Regime:
    """Diverged on a blow-up, else by final / initial mean token norm: below
    CONVERGED_RATIO converged, above DIVERGED_RATIO diverged, both strictly;
    Undecided otherwise, at either threshold and from a zero start (no ratio)."""
    if traj.terminated is Termination.BLOW_UP:
        return Regime.DIVERGED
    start, end = endpoint_mean_norms(traj)
    if end < CONVERGED_RATIO * start:
        return Regime.CONVERGED
    if end > DIVERGED_RATIO * start > 0.0:
        return Regime.DIVERGED
    return Regime.UNDECIDED


def _require_eigenvector(V, n, lam: float) -> None:
    """Raises HypothesisError unless |V n - lam n| <= 1e-8 |n| with n nonzero."""
    n_norm = np.linalg.norm(n)
    if n_norm == 0 or np.linalg.norm(V @ n - lam * n) > 1e-8 * n_norm:
        raise HypothesisError("n is not an eigenvector of V for the given eigenvalue")


def positive_eigenpair(V):
    """A (eigenvalue, unit eigenvector) pair of V with positive eigenvalue,
    for the divergence-projection check. Symmetric V goes through the exact
    symmetric solver; otherwise the dominant (largest-modulus) pair is used
    if it is real (imaginary part at most EIGEN_TOL relative) and positive.
    Raises HypothesisError when neither gives such a pair, or when the pair
    misses the projection check's own eigenvector test."""
    V = np.asarray(V, dtype=float)
    if quadspace.is_symmetric(V, 1e-10):
        values, vectors = np.linalg.eigh(quadspace.sym(V))
        lam, v = float(values[-1]), vectors[:, -1]
        if lam <= 0:
            raise HypothesisError("V has no positive eigenvalue")
    else:
        values, vectors = np.linalg.eig(V)
        idx = int(np.argmax(np.abs(values)))
        lam = values[idx]
        if abs(lam.imag) > EIGEN_TOL * max(1.0, abs(lam)):
            raise HypothesisError(f"dominant eigenvalue {lam:.6g} is complex")
        v = vectors[:, idx]
        j = int(np.argmax(np.abs(v)))
        v = v * np.conj(v[j]) / abs(v[j])  # rotate the phase so v is real
        v = np.real(v) / np.linalg.norm(np.real(v))
        lam = float(lam.real)
        if np.linalg.norm(V @ v - lam * v) > EIGEN_TOL * max(1.0, abs(lam)):
            raise HypothesisError("no real eigenvector for the dominant eigenvalue")
        if lam <= 0:
            raise HypothesisError("dominant eigenvalue of V is not positive")
    _require_eigenvector(V, v, lam)
    return lam, v


VERIFY_TOLERANCES = {
    "monotonicity_tol": None,  # 1e-6 + 100 h^4 when None, h the integrator step (traj.config.h)
    "qa_rate_tol": None,  # 10 h^3 when None, h the median spacing of the recorded samples
    "qa_envelope_tol": 1e-4,
    "convergence_rel_threshold": 1e-2,
    "projection_tol": 1e-4,
    "hull_tol": 1e-4,
    "stationarity_tol": 1e-3,
    "derivative_decay_tol": 1e-3,
    "absolute_limit_tol": 5e-2,
}


def resolve_tolerances(tolerances) -> dict:
    """VERIFY_TOLERANCES updated by the overrides, each of which must name a
    known tolerance and be a finite non-negative number (not a bool), or
    None where the default is a formula in h."""
    if not isinstance(tolerances, dict):
        raise ConfigError("verify must be an object")
    unknown = set(tolerances) - set(VERIFY_TOLERANCES)
    if unknown:
        raise ConfigError(f"verify: unknown keys {sorted(unknown)}")
    for key, value in tolerances.items():
        if value is None and VERIFY_TOLERANCES[key] is None:
            continue  # the formula default
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value < math.inf:
            raise ConfigError(f"verify.{key} must be a finite non-negative number, got {value!r}")
    return {**VERIFY_TOLERANCES, **tolerances}


def run_checks(traj: Trajectory, params: ModelParams, P=None, tolerances: dict | None = None) -> VerificationReport:
    """Run every checker whose hypothesis the run satisfies; skipped checks
    carry the reason. P is the position table of an absolute-encoding run:
    that field is the plain field acting on y = x + P, so the pair laws are
    checked on y. The W/A laws read one RunFacts; they are skipped under
    rotary encoding (params carry rope: the interaction is not W) and when
    a singular V leaves A undefined. The collapse group runs whenever
    sym(A) < 0 and sym(W) > 0. Every W/A law assumes a symmetric A: under a
    non-symmetric A the pair law and the collapse group are report only and
    the q_A bounds are skipped. tolerances override
    VERIFY_TOLERANCES; a malformed override raises ConfigError first.
    """
    tol = resolve_tolerances({} if tolerances is None else tolerances)
    report = VerificationReport()
    facts, reason = None, "W/A law of the plain field; not checked under rotary encoding"
    if params.rope is None:
        try:
            facts = RunFacts.of(*derive_W_A(params))
        except SingularMatrixError:
            reason = "V singular; A undefined"
    if facts is None:
        report.add(*(SkippedCheck(name, reason) for name in ("distance_monotonicity", "qa_bounds", "norm_collapse")))
    else:
        y = traj if P is None else replace(traj, states=traj.states + P)
        mono_tol = tol["monotonicity_tol"] if tol["monotonicity_tol"] is not None else 1e-6 + 100.0 * traj.config.h**4
        report.add(check_distance_monotonicity(y, facts, mono_tol),
                   *check_quadratic_form_bounds(y, facts, tol["qa_rate_tol"], tol["qa_envelope_tol"]))
        if not facts.collapse:
            report.add(SkippedCheck("norm_collapse", "not in the A_sym < 0, W_sym > 0 regime"))
        else:
            if P is None:
                group = [check_convergence(traj, tol["convergence_rel_threshold"]),
                         check_stationarity(traj, params, tol["stationarity_tol"])]
            else:
                group = [check_absolute_limit(traj, P, tol["absolute_limit_tol"])]
            group.append(check_derivative_decay(traj, tol["derivative_decay_tol"]))
            report.add(*(replace(r, asserted=facts.a_symmetric) for r in group))

    if P is not None:
        report.add(SkippedCheck("projection_band", "projection bound not checked under absolute encoding"),
                   SkippedCheck("rescaled_hull_containment", "hull containment not checked under absolute encoding"))
        return report
    try:
        lam, n = positive_eigenpair(params.V)
    except HypothesisError as exc:
        report.add(SkippedCheck("projection_band", str(exc)))
    else:
        report.add(*check_divergence_projection(traj, params.V, n, lam, tol["projection_tol"]))
    report.add(check_hull_containment(traj, params.V, params.V[0, 0], tol["hull_tol"]))
    return report

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attnsim import analyze, quadspace
from attnsim.analyze import (
    CheckResult,
    Regime,
    RunFacts,
    SkippedCheck,
    VerificationReport,
    check_absolute_limit,
    check_convergence,
    check_derivative_decay,
    check_distance_monotonicity,
    check_divergence_projection,
    check_hull_containment,
    check_quadratic_form_bounds,
    check_stationarity,
    classify_regime,
    positive_eigenpair,
    stationarity_residual,
    trajectory_metrics,
)
from attnsim.dynamics import rhs_vanilla
from attnsim.errors import ConfigError, HypothesisError, SingularMatrixError
from attnsim.integrate import IntegratorConfig, Termination, Trajectory, integrate, stable_step
from attnsim.params import (
    ModelParams,
    Scenario,
    ScenarioSpec,
    build_scenario,
    derive_W_A,
    generator,
    params_from_w_and_a,
    params_from_w_and_v,
    random_params,
)

from cases import GROW_A, GROW_W, GROW_X0, SHRINK_A, SHRINK_W, SHRINK_X0
from hull_oracle import hull_containment_loop
from scipy_oracle import projection_band_loop


def make_traj(times, states, terminated=Termination.HORIZON_REACHED, blowup_time=None, h=1e-2):
    times = np.asarray(times, float)
    states = np.asarray(states, float)
    cfg = IntegratorConfig(h=h, T=max(float(times[-1]), h))
    return Trajectory(times=times, states=states, terminated=terminated, config=cfg, blowup_time=blowup_time)


def _identity_params(D, v_scale=1.0):
    return ModelParams(D=D, Q=np.eye(D), K=np.eye(D), V=v_scale * np.eye(D), Dk=1)


def test_metrics_all_tokens_equal():
    X = np.tile([1.0, 2.0], (4, 1))
    traj = make_traj([0.0, 1.0], [X, X])
    m = trajectory_metrics(traj)
    np.testing.assert_array_equal(m.mean_pairwise_dist, [0.0, 0.0])


def test_metrics_symmetric_pair():
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    traj = make_traj([0.0], [X])
    m = trajectory_metrics(traj)
    assert quadspace.quad_form(np.eye(2), X[0] - X[1]) == pytest.approx(4.0)
    assert m.mean_pairwise_dist[0] == pytest.approx(2.0)


def test_metrics_match_naive_recomputation():
    rng = np.random.default_rng(0)
    p = random_params(3, 17)
    _, A = derive_W_A(p)
    states = rng.normal(size=(4, 5, 3))
    traj = make_traj(np.arange(4.0), states)
    m = trajectory_metrics(traj)
    for k, X in enumerate(states):
        dists = []
        for i in range(5):
            for j in range(i + 1, 5):
                d = X[i] - X[j]
                dists.append(np.linalg.norm(d))
                assert quadspace.quad_form(A, d) == pytest.approx(d @ A @ d, abs=1e-12)
        assert m.mean_pairwise_dist[k] == pytest.approx(np.mean(dists), abs=1e-12)
        assert m.mean_token_norm[k] == pytest.approx(np.linalg.norm(X, axis=1).mean(), abs=1e-12)


def metrics_loop(states):
    """trajectory_metrics one sample at a time: the oracle. Each pair (j, j + k)
    is sqrt of one inner product, the pairs taken by offset k."""
    L = states.shape[1]
    dists = np.zeros(len(states))
    if L > 1:
        for s, X in enumerate(np.ascontiguousarray(states)):  # one layout, whatever the caller's
            diffs = [X[:L - k] - X[k:] for k in range(1, L)]
            dists[s] = np.sqrt(np.concatenate([np.einsum("pd,pd->p", d, d) for d in diffs])).mean()
    return np.linalg.norm(states, axis=2).mean(axis=1), dists


def random_states(N, L, D, log_scale, tokens, seed):
    """(N, L, D) states: spread, clustered (pair distances ~1e-9 of the
    norms) or with duplicated tokens, scaled by 10**log_scale."""
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((N, L, D))
    if tokens == "cluster":
        states = rng.standard_normal((N, 1, D)) + 1e-9 * states
    elif tokens == "duplicated":
        states = states[:, rng.integers(0, max(1, L // 2), size=L)]
    return 10.0**log_scale * states


TOKENS = st.sampled_from(["spread", "cluster", "duplicated"])


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(1, 60),
    L=st.integers(1, 40),
    D=st.integers(1, 24),
    log_scale=st.floats(-5.0, 5.0),
    tokens=TOKENS,
    block=st.sampled_from(["one_sample", "two_samples", "part_of_a_sample", "default"]),
    layout=st.sampled_from(["C", "F", "D_outermost"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_metrics_bitwise_equal_loop_oracle(N, L, D, log_scale, tokens, block, layout, seed):
    states = random_states(N, L, D, log_scale, tokens, seed)
    if layout == "F":
        states = np.asfortranarray(states)
    elif layout == "D_outermost":
        states = np.ascontiguousarray(states.transpose(2, 0, 1)).transpose(1, 2, 0)
    pairs = L * (L - 1) // 2
    sample = max(pairs, (L - 1) * D)  # entries one sample's block holds
    entries = {"one_sample": sample, "two_samples": 2 * sample, "part_of_a_sample": max(1, pairs - 1)}
    with pytest.MonkeyPatch.context() as mp:
        if block != "default":
            mp.setattr(analyze, "BLOCK_ENTRIES", entries[block])
        m = trajectory_metrics(make_traj(np.arange(float(N)), states))
    mean_norm, dists = metrics_loop(states)
    assert m.mean_token_norm.tobytes() == mean_norm.tobytes()
    assert m.mean_pairwise_dist.tobytes() == dists.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(1, 8),
    L=st.integers(2, 60),
    D=st.integers(1, 24),
    log_scale=st.floats(-5.0, 5.0),
    tokens=TOKENS,
    seed=st.integers(0, 2**32 - 1),
)
def test_metrics_within_rounding_of_norm_formula(N, L, D, log_scale, tokens, seed):
    """The mean pairwise distance against np.linalg.norm per pair in triu
    order. Only the order of each pair's D squares and of the mean's
    pairwise sum differ, so the gap is held to one eps relative per rounding
    that can differ: D squares, log2(pairs) levels of the mean, the square
    root and the division. That is a typical-case budget, not a worst-case
    bound; random draws stay under a third of it."""
    states = random_states(N, L, D, log_scale, tokens, seed)
    iu = np.triu_indices(L, 1)
    want = np.array([np.linalg.norm(X[iu[0]] - X[iu[1]], axis=1).mean() for X in states])
    got = trajectory_metrics(make_traj(np.arange(float(N)), states)).mean_pairwise_dist
    bound = (D + np.log2(len(iu[0])) + 2) * np.finfo(float).eps
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    assert np.all(np.abs(got - want) <= bound * want), np.max(np.abs(got - want) / np.where(want > 0, want, 1.0))


def test_metrics_memory_bounded_by_pair_block():
    import tracemalloc

    N, L, D = 51, 256, 16  # the wide simulate run
    states = np.random.default_rng(5).standard_normal((N, L, D))
    traj = make_traj(np.arange(float(N)), states)
    pairs = L * (L - 1) // 2
    per_block = analyze.BLOCK_ENTRIES // pairs  # whole samples per block
    assert 1 <= per_block < N
    # the pair rows of a block, plus one offset's differences
    bound = 8 * per_block * (pairs + (L - 1) * D)
    tracemalloc.start()
    try:
        trajectory_metrics(traj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * bound, (peak, bound)


def test_monotonicity_vacuous_single_token():
    traj = make_traj([0.0, 1.0], np.zeros((2, 1, 2)))
    res = check_distance_monotonicity(traj, RunFacts.of(np.eye(2), np.eye(2)), 1e-6)
    assert res.passed and res.worst_margin == 0.0


def test_monotonicity_synthetic_series():
    # pair distance grows linearly, then one decreasing step
    states = np.array([
        [[0.0, 0.0], [s, 0.0]] for s in (1.0, 1.1, 1.2, 1.15)
    ])
    traj = make_traj(np.arange(4.0), states)
    res = check_distance_monotonicity(traj, RunFacts.of(np.eye(2), np.eye(2)), 1e-9)
    assert not res.passed
    assert res.location == pytest.approx(3.0)
    res = check_distance_monotonicity(traj, RunFacts.of(np.eye(2), np.eye(2)), 1.0)
    assert res.passed


def test_monotonicity_negative_definite_direction():
    # with A = -I the squared A-distance is the squared Euclidean distance
    states = np.array([
        [[0.0, 0.0], [s, 0.0]] for s in (1.0, 0.8, 0.6)
    ])
    traj = make_traj(np.arange(3.0), states)
    res = check_distance_monotonicity(traj, RunFacts.of(np.eye(2), -np.eye(2)), 1e-9)
    assert res.passed


@pytest.mark.parametrize("A, kind", [(np.diag([1.0, -2.0]), "indefinite"), (np.diag([1.0, 1e-13]), "near_singular"),
                                     (np.array([[0.0, 1.0], [-1.0, 0.0]]), "near_singular")],
                         ids=["indefinite", "near_singular", "skew"])
def test_monotonicity_without_definite_sym_a_raises(A, kind):
    # no monotone direction: the checker returns a skip record with the reason
    traj = make_traj([0.0, 1.0], [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]])
    res = check_distance_monotonicity(traj, RunFacts.of(np.eye(2), A), 1.0)
    assert res == SkippedCheck("distance_monotonicity", f"sym(A) is {kind}; no monotone direction")


def _monotonicity_with_direction(traj, A, tol):
    """check_distance_monotonicity as it was while each caller passed the
    direction: picked from the sign of sym(A), with the monitored series
    negated for a negative definite A and the steps negated again for the
    non-increasing direction."""
    non_decreasing = quadspace.classify_definiteness(A) is quadspace.Definiteness.POSITIVE_DEFINITE
    name = "distance_monotonicity_" + ("non_decreasing" if non_decreasing else "non_increasing")
    iu = np.triu_indices(traj.states.shape[1], 1)
    series = np.array([quadspace.quad_form(A, X[iu[0]] - X[iu[1]]) for X in traj.states])
    if not non_decreasing:
        series = -series
    steps = np.diff(series, axis=0)
    margins = steps if non_decreasing else -steps
    k, p = np.unravel_index(np.argmin(margins), margins.shape)
    worst = float(margins[k, p])
    return CheckResult(name, worst >= -tol, worst, float(traj.times[k + 1]))


def _rigid_traj():
    # three tokens translated rigidly: every pair's q_A steps by exactly zero
    X0 = np.array([[0.0, 0.0], [1.0, 0.5], [-0.5, 2.0]])
    return make_traj(np.arange(4.0), [X0 + s for s in (0.0, 0.25, 0.5, 1.0)])


MONOTONICITY_RUNS = {
    "grow": lambda: (integrate(lambda X: rhs_vanilla(params_from_w_and_a(GROW_W, quadspace.sym(GROW_A)), X), GROW_X0,
                               IntegratorConfig(h=1e-2, T=1.0)), quadspace.sym(GROW_A)),
    "shrink": lambda: (integrate(lambda X: rhs_vanilla(params_from_w_and_a(SHRINK_W, quadspace.sym(SHRINK_A)), X), SHRINK_X0,
                                 IntegratorConfig(h=1e-2, T=1.0)), quadspace.sym(SHRINK_A)),
    "rigid_positive": lambda: (_rigid_traj(), np.array([[2.0, 0.5], [0.5, 1.0]])),
    "rigid_negative": lambda: (_rigid_traj(), -np.array([[2.0, 0.5], [0.5, 1.0]])),
}


@pytest.mark.parametrize("run", sorted(MONOTONICITY_RUNS))
def test_monotonicity_direction_from_sym_a_matches_passed_direction(run):
    # the direction now comes from sym(A) inside the checker; the result is
    # the one the caller-chosen direction gave, bit for bit, including the
    # sign of a zero worst margin (-0.0 on the rigid negative definite run)
    traj, A = MONOTONICITY_RUNS[run]()
    got, want = check_distance_monotonicity(traj, RunFacts.of(np.eye(2), A), 1e-6), _monotonicity_with_direction(traj, A, 1e-6)
    assert (got.name, got.passed, got.location) == (want.name, want.passed, want.location)
    assert np.float64(got.worst_margin).tobytes() == np.float64(want.worst_margin).tobytes()
    if run.startswith("rigid"):
        assert got.worst_margin == 0.0 and np.signbit(got.worst_margin) == (run == "rigid_negative")


def _random_walk_traj(N, L, D, seed):
    """N samples of L tokens taking small random steps: pair distances rise and fall."""
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((1, L, D)) + np.cumsum(0.01 * rng.standard_normal((N, L, D)), axis=0)
    return make_traj(np.arange(float(N)), states)


def _with_nan(traj, sample):
    states = traj.states.copy()
    states[sample, 1, 0] = np.nan
    return make_traj(traj.times, states)


MONOTONICITY_BLOCK_RUNS = {
    **MONOTONICITY_RUNS,
    "walk": lambda: (_random_walk_traj(40, 5, 3, 7), np.diag([1.0, 2.0, 0.5])),
    "walk_negative": lambda: (_random_walk_traj(40, 5, 3, 8), -np.diag([1.0, 2.0, 0.5])),
    "nan_late": lambda: (_with_nan(_random_walk_traj(40, 5, 3, 7), 31), np.diag([1.0, 2.0, 0.5])),
    "nan_first_step": lambda: (_with_nan(_random_walk_traj(40, 5, 3, 7), 1), np.diag([1.0, 2.0, 0.5])),
}


@pytest.mark.parametrize("steps", [1, 2, 3, 7, None])
@pytest.mark.parametrize("run", sorted(MONOTONICITY_BLOCK_RUNS))
def test_monotonicity_blocks_match_the_whole_series(run, steps, monkeypatch):
    # the samples go in blocks of `steps` steps (None: one block), each block's first sample the last of
    # the block before; the worst margin, its sign (-0.0 on the rigid negative definite run) and its
    # location keep the bits of one argmin over the whole series, and a nan step stays the worst
    traj, A = MONOTONICITY_BLOCK_RUNS[run]()
    pairs = traj.states.shape[1] * (traj.states.shape[1] - 1) // 2
    if steps is not None:
        monkeypatch.setattr(analyze, "BLOCK_ENTRIES", steps * pairs)
    got = check_distance_monotonicity(traj, RunFacts.of(np.eye(A.shape[0]), A), 1e-6)
    want = _monotonicity_with_direction(traj, A, 1e-6)
    assert (got.name, got.passed, got.location) == (want.name, want.passed, want.location)
    assert np.float64(got.worst_margin).tobytes() == np.float64(want.worst_margin).tobytes()
    if run.startswith("nan"):
        assert np.isnan(got.worst_margin) and not got.passed


def test_monotonicity_memory_does_not_grow_with_samples():
    import tracemalloc

    L, D = 64, 4
    A = np.diag([1.0, 2.0, 0.5, 1.5])
    pairs = L * (L - 1) // 2
    steps = analyze.BLOCK_ENTRIES // pairs
    peaks = {}
    for N in (4 * steps, 16 * steps):  # 4 and 16 blocks
        traj = _random_walk_traj(N, L, D, 3)
        tracemalloc.start()
        try:
            check_distance_monotonicity(traj, RunFacts.of(np.eye(D), A), 1e-6)
            _, peaks[N] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # one block's series, its signed copy and its steps, each (steps + 1) x pairs doubles
    bound = 3 * 8 * (steps + 1) * pairs
    assert max(peaks.values()) < 1.2 * bound, (peaks, bound)
    assert peaks[16 * steps] < 1.1 * peaks[4 * steps], peaks


def test_quadratic_bounds_single_token_closed_form():
    p = params_from_w_and_a(np.eye(2), -np.eye(2))  # W = I, A = -I
    X0 = np.array([[2.0, 0.0]])
    traj = integrate(lambda X: rhs_vanilla(p, X), X0, IntegratorConfig(h=1e-2, T=5.0))
    results = check_quadratic_form_bounds(traj, RunFacts.of(*derive_W_A(p)))
    assert all(isinstance(r, CheckResult) and r.passed for r in results)
    names = {r.name for r in results}
    assert names == {"qa_rate_lower_bound", "qa_decay_envelope"}


def test_quadratic_bounds_singular_value_matrix_raises():
    # A = W (V^T)^{-1} is undefined, so there are no facts for the bounds to
    # read; run_checks reports the skip
    p = ModelParams(D=2, Q=np.eye(2), K=np.eye(2), V=np.diag([1.0, 0.0]), Dk=1)
    with pytest.raises(SingularMatrixError):
        RunFacts.of(*derive_W_A(p))


def test_quadratic_bounds_skip_asymmetric():
    rng = np.random.default_rng(1)
    p = random_params(3, 23)  # A generically asymmetric
    X0 = rng.normal(size=(3, 3))
    traj = integrate(lambda X: rhs_vanilla(p, X), X0, IntegratorConfig(h=1e-2, T=0.2))
    results = check_quadratic_form_bounds(traj, RunFacts.of(*derive_W_A(p)))
    assert len(results) == 1 and isinstance(results[0], SkippedCheck)


def test_convergence_zero_initial_state():
    traj = make_traj([0.0, 1.0], np.zeros((2, 3, 2)))
    assert check_convergence(traj, 1e-2).passed


def test_projection_single_token_identity():
    rng = np.random.default_rng(2)
    V = np.diag([1.5, 0.5])
    p = params_from_w_and_v(rng.normal(size=(2, 2)), V)
    x0 = np.array([[0.7, -0.3]])
    traj = integrate(lambda X: rhs_vanilla(p, X), x0, IntegratorConfig(h=1e-3, T=1.0))
    res = check_divergence_projection(traj, V, np.array([1.0, 0.0]), 1.5, tol=1e-6)
    proj = res[0]
    assert proj.passed
    assert abs(proj.worst_margin) < 1e-6


def test_projection_mean_reverting_average():
    # V = I, W = 0: n.e^{-t}x converges toward the initial mean, inside bounds
    p = ModelParams(D=2, Q=np.zeros((2, 2)), K=np.zeros((2, 2)), V=np.eye(2), Dk=1)
    rng = np.random.default_rng(3)
    X0 = rng.normal(size=(4, 2))
    traj = integrate(lambda X: rhs_vanilla(p, X), X0, IntegratorConfig(h=1e-2, T=3.0))
    res = check_divergence_projection(traj, np.eye(2), np.array([0.0, 1.0]), 1.0, tol=1e-6)
    assert res[0].passed and res[0].worst_margin >= -1e-9


def test_projection_hypothesis_error():
    traj = make_traj([0.0], np.zeros((1, 2, 2)))
    with pytest.raises(HypothesisError):
        check_divergence_projection(traj, np.diag([2.0, 1.0]), np.array([1.0, 1.0]), 2.0, tol=1e-6)


@given(
    seed=st.integers(0, 2**32 - 1), D=st.integers(2, 6), L=st.integers(1, 5), scaled_identity=st.booleans(),
    spectrum=st.none(),
)
@example(seed=77, D=3, L=4, scaled_identity=False, spectrum=(1.2, 0.4, -0.7))
@settings(max_examples=60, deadline=None)
def test_projection_band_matches_per_sample_oracle(seed, D, L, scaled_identity, spectrum):
    # V = lam I, or a general V = S diag(lam, mu) S^-1 with a well-conditioned
    # eigenbasis S and |mu| < lam (drawn, or the given spectrum with its
    # contracting mode); the states e^{lam t}(X0 + noise) leave the band at
    # a unique worst sample
    rng = generator(seed)
    lam = rng.uniform(0.5, 1.5)
    if scaled_identity:
        V = lam * np.eye(D)
    else:
        S = np.eye(D) + 0.3 / np.sqrt(D) * rng.standard_normal((D, D))
        eigs = np.concatenate([[lam], lam * rng.uniform(-0.9, 0.9, D - 1)]) if spectrum is None else spectrum
        V = S @ np.diag(eigs) @ np.linalg.inv(S)
    lam, n = positive_eigenpair(V)
    times = np.linspace(0.0, 1.0, 101)
    noise = 0.3 * np.sqrt(times)[:, None, None] * rng.standard_normal((101, L, D))
    traj = make_traj(times, np.exp(lam * times)[:, None, None] * (rng.standard_normal((L, D)) + noise))
    want = projection_band_loop(traj, V, n, tol=1e-6)
    got = check_divergence_projection(traj, V, n, lam, tol=1e-6)[0]
    assert (got.passed, got.location) == (want.passed, want.location)
    if scaled_identity:  # a diagonal e^{-tV} is exp of its diagonal in the oracle
        assert got.worst_margin == want.worst_margin
    else:
        assert abs(got.worst_margin - want.worst_margin) <= 1e-12 * abs(want.worst_margin)


def test_projection_band_blocks_match_one_call():
    # each sample is checked on its own: the band over blocks of samples,
    # each behind the initial sample that fixes the band, gives the one
    # call's result, and the first block with the worst margin its location
    rng = generator(77)
    S = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    V = S @ np.diag([1.2, 0.4, -0.7]) @ np.linalg.inv(S)
    lam, n = positive_eigenpair(V)
    times = np.linspace(0.0, 1.0, 51)
    states = np.exp(lam * times)[:, None, None] * rng.standard_normal((51, 4, 3))
    whole = check_divergence_projection(make_traj(times, states), V, n, lam, tol=1e-6)
    for size in (3, 1):  # blocks of three samples, then of one
        blocks = [
            check_divergence_projection(
                make_traj(np.r_[0.0, times[s : s + size]], np.concatenate([states[:1], states[s : s + size]])),
                V, n, lam, tol=1e-6,
            )[0]
            for s in range(1, len(times), size)
        ]
        assert [min(blocks, key=lambda r: r.worst_margin)] == whole


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_projection_band_holds_with_contracting_modes(seed):
    # symmetric V = Q diag(lam, mu_2..mu_D) Q^T with one expanding and
    # strongly contracting modes: e^{-tV} n would scale the rounding of the
    # computed n along each mu by e^{|mu| t}; the invariant itself holds
    rng = generator(seed)
    D, L = int(rng.integers(2, 7)), int(rng.integers(2, 8))
    Q, _ = np.linalg.qr(rng.standard_normal((D, D)))
    V = Q @ np.diag(np.concatenate([[rng.uniform(0.1, 1.0)], rng.uniform(-4.0, -0.5, D - 1)])) @ Q.T
    p = params_from_w_and_v(0.3 * rng.standard_normal((D, D)), 0.5 * (V + V.T))
    cfg = IntegratorConfig(h=stable_step(p.V), T=rng.uniform(2.0, 12.0))
    traj = integrate(lambda X: rhs_vanilla(p, X), rng.standard_normal((L, D)), cfg)
    lam, n = positive_eigenpair(p.V)
    band = check_divergence_projection(traj, p.V, n, lam, tol=1e-4)[0]
    assert band.passed, band


def test_projection_band_fails_on_nan_sample():
    # x_l(t) = e^{2t} x_l(0) keeps every projection on its initial value,
    # except at the sample whose projection is nan
    times = np.array([0.0, 0.5, 1.0])
    states = np.exp(2.0 * times)[:, None, None] * np.array([[1.0, 0.5], [2.0, -1.0]])
    states[1, 0, 0] = np.nan
    res = check_divergence_projection(make_traj(times, states), 2.0 * np.eye(2), np.array([1.0, 0.0]), 2.0, tol=1e-6)[0]
    assert not res.passed and res.location == 0.5
    states[1, 0, 0] = np.exp(1.0)
    assert check_divergence_projection(make_traj(times, states), 2.0 * np.eye(2), np.array([1.0, 0.0]), 2.0, tol=1e-6)[0].passed


def test_hull_containment_single_token():
    p = params_from_w_and_v(np.zeros((2, 2)), 2.0 * np.eye(2))
    x0 = np.array([[0.4, 0.9]])
    traj = integrate(lambda X: rhs_vanilla(p, X), x0, IntegratorConfig(h=1e-2, T=2.0))
    res = check_hull_containment(traj, p.V, 2.0, tol=1e-4)
    assert res.passed


def test_hull_containment_averaging_flow():
    p = ModelParams(D=2, Q=np.zeros((2, 2)), K=np.zeros((2, 2)), V=np.eye(2), Dk=1)
    rng = np.random.default_rng(4)
    X0 = rng.normal(size=(5, 2))
    traj = integrate(lambda X: rhs_vanilla(p, X), X0, IntegratorConfig(h=1e-2, T=3.0))
    assert check_hull_containment(traj, p.V, 1.0, tol=1e-4).passed


def test_hull_containment_matches_per_query_loop(monkeypatch):
    # a criterion-05 run: V = lam I, 5 tokens in 2-D, 501 samples
    lam, tol = 1.0, 1e-4
    rng = generator(2001)
    p = params_from_w_and_v(rng.standard_normal((2, 2)), lam * np.eye(2))
    traj = integrate(lambda X: rhs_vanilla(p, X), rng.standard_normal((5, 2)), IntegratorConfig(h=1e-2, T=5.0))
    ref = hull_containment_loop(traj, lam, tol)
    results = [check_hull_containment(traj, p.V, lam, tol)]
    for entries in (50, 1):  # blocks of two samples (10 queries), then of one
        monkeypatch.setattr(analyze, "BLOCK_ENTRIES", entries)
        results.append(check_hull_containment(traj, p.V, lam, tol))
    for res in results:
        for want in (ref, results[0]):
            assert (res.passed, res.location) == (want.passed, want.location)
            assert abs(res.worst_margin - want.worst_margin) <= 1e-9 * tol


def test_hull_containment_hypothesis_error():
    # V is not lam I: the unmet hypothesis comes back as a skip record with the reason
    traj = make_traj([0.0], np.zeros((1, 2, 2)))
    res = check_hull_containment(traj, np.diag([1.0, 2.0]), 1.0, tol=1e-4)
    assert res == SkippedCheck("rescaled_hull_containment", "V is not a positive multiple of the identity")


def test_stationarity_residual_values():
    p = _identity_params(2)
    assert stationarity_residual(p, np.zeros((3, 2))) == 0.0
    X = np.array([[5.0, 0.0], [0.0, 0.0]])
    assert stationarity_residual(p, X) > 0.0
    # logits near -4.4e3: every unnormalised weight underflows to zero
    assert stationarity_residual(random_params(4, 1), 30.0 * np.ones((3, 4))) == pytest.approx(60.0)


def test_absolute_limit_zero_positions():
    states = np.zeros((2, 3, 2))
    states[0] += 1.0
    traj = make_traj([0.0, 1.0], states)
    assert check_absolute_limit(traj, np.zeros((3, 2)), tol=1e-6).passed


def test_derivative_decay_frozen_state():
    traj = make_traj([0.0, 1.0], np.ones((2, 2, 2)))
    assert check_derivative_decay(traj, tol=1e-9).passed


def test_classify_regime_frozen_and_blowup():
    traj = make_traj([0.0, 1.0], np.ones((2, 2, 2)))
    assert classify_regime(traj) is Regime.UNDECIDED
    big = np.array([np.ones((2, 2)), 1e9 * np.ones((2, 2))])
    traj = make_traj([0.0, 1.0], big, terminated=Termination.BLOW_UP, blowup_time=1.0)
    assert classify_regime(traj) is Regime.DIVERGED
    small = np.array([np.ones((2, 2)), 1e-9 * np.ones((2, 2))])
    assert classify_regime(make_traj([0.0, 1.0], small)) is Regime.CONVERGED


def test_positive_eigenpair_non_symmetric_real_dominant():
    V = np.array([[3.0, 1.0], [0.0, 1.0]])  # eigenvalues 3 and 1; (1, 0) belongs to 3
    lam, v = positive_eigenpair(V)
    assert lam == pytest.approx(3.0)
    assert abs(abs(v[0]) - 1.0) < 1e-12 and np.linalg.norm(v) == pytest.approx(1.0)
    np.testing.assert_allclose(V @ v, lam * v, atol=1e-12)


def test_positive_eigenpair_non_symmetric_negative_dominant():
    with pytest.raises(HypothesisError, match="dominant eigenvalue of V is not positive"):
        positive_eigenpair(np.array([[-3.0, 1.0], [0.5, 1.0]]))


def test_positive_eigenpair_rotation_rejected():
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(HypothesisError, match="is complex"):
        positive_eigenpair(R)


def test_positive_eigenpair_symmetric_and_failure():
    lam, v = positive_eigenpair(np.diag([3.0, 1.0]))
    assert lam == pytest.approx(3.0)
    # symmetric path finds the positive eigenvalue even when a larger
    # negative one dominates
    lam, v = positive_eigenpair(np.diag([-3.0, 1.0]))
    assert lam == pytest.approx(1.0)
    with pytest.raises(HypothesisError):
        positive_eigenpair(np.diag([-3.0, -1.0]))
    with pytest.raises(HypothesisError):
        positive_eigenpair(np.array([[-3.0, 1.0], [0.0, 1.0]]))  # non-symmetric, dominant negative


def test_eigenpair_the_projection_check_refuses_is_a_skip():
    # V is symmetric within is_symmetric's relative 1e-10, but sym(V)'s top eigenvector misses V n = lam n
    # by 2.5e-8 > 1e-8 |n|: the query refuses the pair that check_divergence_projection would refuse, so
    # run_checks reports the projection band skipped instead of raising
    V = np.array([[1000.0, 0.0], [5e-8, 1.0]])
    assert quadspace.is_symmetric(V, 1e-10)
    with pytest.raises(HypothesisError, match="n is not an eigenvector of V for the given eigenvalue"):
        positive_eigenpair(V)
    traj = make_traj([0.0, 1.0], [[[0.0, 1.0], [1.0, 0.0]]] * 2)
    report = analyze.run_checks(traj, params_from_w_and_v(np.eye(2), V))
    assert SkippedCheck("projection_band", "n is not an eigenvector of V for the given eigenvalue") in report.skipped
    assert "projection_band" not in [c.name for c in report.checks]


def test_report_serialization():
    rep = VerificationReport(
        checks=[CheckResult("a", True, 0.5, 1.0), CheckResult("b", False, -0.1, 2.0, asserted=False)],
        skipped=[SkippedCheck("c", "because")],
    )
    text = rep.to_text()
    assert "PASS a" in text and "FAIL b" in text and "SKIP c" in text
    assert analyze.REPORT_COLUMNS == ("name", "status", "worst_margin", "location")
    assert rep.to_records() == [("a", "pass", 0.5, 1.0), ("b", "fail", -0.1, 2.0), ("c", "skip", "", "because")]
    assert rep.all_passed  # b is report-only


def test_checkers_identical_for_trivial_rotary():
    # with a zero rotary query matrix the rotary field reduces to the
    # vanilla one, so trajectories and checker outputs coincide exactly
    from attnsim.dynamics import rhs_rotary
    from attnsim.params import RopeParams

    rng = np.random.default_rng(6)
    Q, K, Kbar = rng.normal(size=(3, 2, 2))
    V = 2.0 * np.eye(2)
    plain = ModelParams(D=2, Q=Q, K=K, V=V, Dk=1)
    rope = ModelParams(D=2, Q=Q, K=K, V=V, Dk=1, rope=RopeParams(Qbar=np.zeros((2, 2)), Kbar=Kbar))
    X0 = np.abs(rng.normal(size=(4, 2))) + 0.1
    cfg = IntegratorConfig(h=1e-2, T=3.0)
    tv = integrate(lambda X: rhs_vanilla(plain, X), X0, cfg)
    tr = integrate(lambda X: rhs_rotary(rope, X), X0, cfg)
    # summation order differs between the two code paths; agreement is to
    # rounding only
    np.testing.assert_allclose(tr.states, tv.states, atol=5e-12)
    n = np.array([1.0, 0.0])
    rv = check_divergence_projection(tv, V, n, 2.0, tol=1e-4)
    rr = check_divergence_projection(tr, V, n, 2.0, tol=1e-4)
    assert [(r.name, r.passed) for r in rv] == [(r.name, r.passed) for r in rr]
    assert abs(rv[0].worst_margin - rr[0].worst_margin) < 1e-9


def test_check_stationarity_on_converged_run():
    from cases import COLLAPSE_A, COLLAPSE_W

    p = params_from_w_and_a(COLLAPSE_W, quadspace.sym(COLLAPSE_A))
    rng = np.random.default_rng(5)
    m = rng.normal(size=2)
    m *= 2.0 / np.linalg.norm(m)
    X0 = m + 1e-3 * rng.normal(size=(4, 2))
    traj = integrate(lambda X: rhs_vanilla(p, X), X0, IntegratorConfig(h=1e-2, T=20.0))
    assert check_stationarity(traj, p, tol=1e-3).passed
    assert check_derivative_decay(traj, tol=1e-3).passed
    assert classify_regime(traj) is Regime.CONVERGED


@pytest.mark.parametrize(
    "tolerances",
    [{"hul_tol": 1e-4}, {"hull_tol": -1.0}, {"hull_tol": True}, {"hull_tol": None}, {"hull_tol": float("nan")}, [1e-4]],
    ids=["misspelt_key", "negative", "bool", "null_without_formula", "nan", "not_a_dict"],
)
def test_run_checks_rejects_malformed_tolerances(tolerances):
    p = params_from_w_and_v(np.eye(2), 0.5 * np.eye(2))
    traj = integrate(lambda X: rhs_vanilla(p, X), np.eye(2), IntegratorConfig(h=1e-2, T=0.1))
    with pytest.raises(ConfigError):
        analyze.run_checks(traj, p, tolerances=tolerances)
    # null picks the formula default where there is one
    report = analyze.run_checks(traj, p, tolerances={"monotonicity_tol": None, "qa_rate_tol": None, "hull_tol": 0})
    assert report.checks


def test_run_checks_derives_each_fact_once(monkeypatch):
    # a symmetric convergence scenario, where every W/A law runs and reads
    # the facts: W and A derived once, sym(A) and sym(W) classified once
    # each, and A's symmetry decided once
    p = build_scenario(ScenarioSpec(scenario=Scenario.CONVERGENCE, D=4, seed=3, symmetric=True))
    _, A = derive_W_A(p)
    X0 = 0.5 * np.random.default_rng(0).standard_normal((4, 4))
    traj = integrate(lambda X: rhs_vanilla(p, X), X0, IntegratorConfig(h=1e-2, T=0.2))
    calls = []
    for module, name in ((analyze, "derive_W_A"), (quadspace, "classify_definiteness"), (quadspace, "is_symmetric")):

        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append((_name, args[0]))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    report = analyze.run_checks(traj, p)
    assert {"distance_monotonicity_non_increasing", "qa_decay_envelope", "norm_collapse"} <= {c.name for c in report.checks}
    names = [name for name, _ in calls]
    assert (names.count("derive_W_A"), names.count("classify_definiteness")) == (1, 2)
    assert sum(name == "is_symmetric" and np.array_equal(B, A) for name, B in calls) == 1

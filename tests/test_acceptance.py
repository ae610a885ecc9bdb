"""Acceptance suite: one test per quantitative claim, each printing a
pass/fail line (run with -s to see them on success).

Where a claim leaves the initial tokens or horizon open, the setup is
documented inline. The asymptotic convergence statements are exercised
from tight token clusters: the pairwise-difference dynamics is cubically
degenerate at the origin, so spread-out tokens approach zero only at an
algebraic t^(-1/2) rate that no finite horizon exhibits.
"""

import time

import numpy as np

from attnsim import analyze, cli, quadspace
from attnsim.analyze import Regime, classify_regime
from attnsim.dynamics import rhs_absolute, rhs_rotary, rhs_vanilla, sinusoidal_encoding
from attnsim.integrate import IntegratorConfig, integrate, stable_step
from attnsim.params import (
    ModelParams,
    RopeParams,
    Scenario,
    ScenarioSpec,
    build_scenario,
    derive_W_A,
    eigen_stats,
    generator,
    params_from_w_and_a,
    params_from_w_and_v,
    random_params,
)

from cases import (
    COLLAPSE_A,
    COLLAPSE_W,
    GROW_A,
    GROW_W,
    GROW_X0,
    ROPE_K,
    ROPE_KBAR,
    ROPE_Q,
    ROPE_QBAR,
    SHRINK_A,
    SHRINK_W,
    SHRINK_X0,
)


def report(num, passed, detail):
    print(f"\nACCEPTANCE {num:02d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


def _cluster(rng, D, L, mean_norm, spread_rel, direction=None):
    m = rng.standard_normal(D) if direction is None else np.asarray(direction, float)
    m = m * (mean_norm / np.linalg.norm(m))
    return m + spread_rel * mean_norm * rng.standard_normal((L, D))


def test_criterion_01_distance_monotonicity():
    # Both reference parameter sets, initial tokens as listed, h = 1e-2,
    # T = 5, tol = 1e-6 + 100 h^4. V is derived from sym(A), the matrix
    # that defines q_A and satisfies the monotonicity theorem's hypothesis.
    h = 1e-2
    tol = 1e-6 + 100.0 * h**4
    t0 = time.perf_counter()
    margins = {}
    for name, A, W, X0 in (
        ("grow", GROW_A, GROW_W, GROW_X0),
        ("shrink", SHRINK_A, SHRINK_W, SHRINK_X0),
    ):
        p = params_from_w_and_a(W, quadspace.sym(A))
        traj = integrate(lambda X: rhs_vanilla(p, X), X0, IntegratorConfig(h=h, T=5.0))
        res = analyze.check_distance_monotonicity(traj, analyze.RunFacts.of(W, quadspace.sym(A)), tol)
        margins[name] = res.worst_margin
        assert res.passed, f"{name}: worst margin {res.worst_margin:.3e} < -{tol:.1e}"
    elapsed = time.perf_counter() - t0
    report(
        1,
        elapsed < 1.0,
        f"q_A monotone both directions (margins {margins['grow']:+.2e}, {margins['shrink']:+.2e}, "
        f"tol {tol:.1e}); runtime {elapsed:.2f}s < 1s",
    )


def test_criterion_02_collapse_to_zero():
    # Collapse parameters, T = 10, h = 1e-2, threshold 1e-2 of the initial
    # max norm. Tokens start in a tight cluster (relative spread 5e-4)
    # around a fixed mean of norm ~2.24: the regime where the asymptotic
    # statement is observable by T = 10.
    t0 = time.perf_counter()
    p = params_from_w_and_a(COLLAPSE_W, COLLAPSE_A)
    rng = generator(902)
    X0 = np.array([2.0, 1.0]) + 5e-4 * rng.standard_normal((6, 2))
    traj = integrate(lambda X: rhs_vanilla(p, X), X0, IntegratorConfig(h=1e-2, T=10.0))
    res = analyze.check_convergence(traj, rel_threshold=1e-2)
    ratio = np.linalg.norm(traj.final, axis=1).max() / np.linalg.norm(traj.initial, axis=1).max()
    elapsed = time.perf_counter() - t0
    report(
        2,
        res.passed and elapsed < 1.0,
        f"max token norm ratio {ratio:.2e} <= 1e-2 by T=10; runtime {elapsed:.2f}s < 1s",
    )


def test_criterion_03_quadratic_form_bounds():
    # 20 seeded symmetric-target convergence scenarios over D in {2,4,8}:
    # differential bound at tol 10 h^3 and decay envelope at tol 1e-4 on
    # every interior sample. Step size is stability-capped per scenario.
    worst_diff, worst_env = np.inf, np.inf
    for i in range(20):
        D = (2, 4, 8)[i % 3]
        p = build_scenario(ScenarioSpec(scenario=Scenario.CONVERGENCE, D=D, seed=100 + i, symmetric=True))
        h = stable_step(p.V, cap=1e-2)
        rng = generator(500 + i)
        X0 = 0.6 * rng.standard_normal((5, D))
        traj = integrate(lambda X: rhs_vanilla(p, X), X0, IntegratorConfig(h=h, T=5.0))
        facts = analyze.RunFacts.of(*derive_W_A(p))
        results = analyze.check_quadratic_form_bounds(traj, facts, tol_differential=10.0 * h**3, tol_envelope=1e-4)
        by_name = {r.name: r for r in results if isinstance(r, analyze.CheckResult)}
        assert set(by_name) == {"qa_rate_lower_bound", "qa_decay_envelope"}, results
        assert by_name["qa_rate_lower_bound"].passed, (i, by_name)
        assert by_name["qa_decay_envelope"].passed, (i, by_name)
        worst_diff = min(worst_diff, by_name["qa_rate_lower_bound"].worst_margin)
        worst_env = min(worst_env, by_name["qa_decay_envelope"].worst_margin)
    report(3, True, f"differential and envelope bounds hold on 20 scenarios (worst margins {worst_diff:+.2e}, {worst_env:+.2e})")


def test_criterion_04_projection_invariance_and_divergence():
    # V = 2I with 20 seeded one-sided initial sets: the rescaled projection
    # stays inside [min, max] of the initial projections within 1e-4 at
    # every sample, and every run classifies as diverged.
    n_vec = np.array([1.0, 0.0, 0.0])
    worst = np.inf
    for i in range(20):
        rng = generator(1000 + i)
        W = rng.standard_normal((3, 3))
        p = params_from_w_and_v(W, 2.0 * np.eye(3))
        X0 = rng.standard_normal((5, 3))
        X0[:, 0] = 0.15 + np.abs(X0[:, 0])  # strictly one side of the hyperplane
        traj = integrate(lambda X: rhs_vanilla(p, X), X0, IntegratorConfig(h=1e-2, T=12.0))
        results = analyze.check_divergence_projection(traj, p.V, n_vec, 2.0, tol=1e-4)
        assert all(r.passed for r in results), (i, results)
        assert {r.name for r in results} == {"projection_band", "norm_divergence"}
        assert classify_regime(traj) is Regime.DIVERGED, i
        worst = min(worst, results[0].worst_margin)
    report(4, True, f"projection bounded (worst margin {worst:+.2e} >= -1e-4) and 20/20 runs diverged")


def test_criterion_05_hull_containment():
    # V = lam * I for lam in {0.5, 1, 2}, 10 seeds each: e^{-lam t} x_l(t)
    # within 1e-4 of the initial convex hull at every recorded sample.
    worst = np.inf
    for lam in (0.5, 1.0, 2.0):
        for i in range(10):
            rng = generator(2000 + i)
            W = rng.standard_normal((2, 2))
            p = params_from_w_and_v(W, lam * np.eye(2))
            X0 = rng.standard_normal((5, 2))
            traj = integrate(lambda X: rhs_vanilla(p, X), X0, IntegratorConfig(h=1e-2, T=5.0))
            res = analyze.check_hull_containment(traj, p.V, lam, tol=1e-4)
            assert res.passed, (lam, i, res)
            worst = min(worst, res.worst_margin)
    report(5, True, f"hull containment holds for 30 runs (worst margin {worst:+.2e} with tol 1e-4)")


def test_criterion_06_absolute_encoding():
    # (a) the absolute-encoding field equals the vanilla field at the
    # shifted state, bitwise, on 1000 random instances; (b) with collapse
    # scenarios and sinusoidal positions, tokens reach -p_l within 5e-2 by
    # T = 20. Scenario seeds are the first five whose slowest mean-mode
    # decay rate is >= 0.4, so the pinned horizon exhibits the limit.
    rng = generator(600)
    for i in range(1000):
        p = random_params(2, 10_000 + i)
        X = rng.standard_normal((3, 2))
        P = rng.standard_normal((3, 2))
        lhs = rhs_absolute(p, P, X)
        rhs = rhs_vanilla(p, X + P)
        assert np.array_equal(lhs, rhs), i

    chosen = []
    seed = 0
    while len(chosen) < 5:
        p = build_scenario(ScenarioSpec(scenario=Scenario.CONVERGENCE, D=4, seed=seed))
        rate = np.abs(np.real(np.linalg.eigvals(p.V.T))).min()
        if rate >= 0.4:
            chosen.append((seed, p))
        seed += 1

    worst = 0.0
    for seed, p in chosen:
        L = 6
        P = sinusoidal_encoding(L, 4)
        rng = generator(900 + seed)
        m = rng.standard_normal(4)
        m *= 1.5 / np.linalg.norm(m)
        X0 = -P + m + 1e-4 * rng.standard_normal((L, 4))
        h = stable_step(p.V, cap=1e-2)
        traj = integrate(lambda X: rhs_absolute(p, P, X), X0, IntegratorConfig(h=h, T=20.0))
        res = analyze.check_absolute_limit(traj, P, tol=5e-2)
        assert res.passed, (seed, res)
        worst = max(worst, 5e-2 - res.worst_margin)
    report(6, True, f"shift equivalence bitwise on 1000 instances; limit -p_l within {worst:.1e} <= 5e-2 on 5 runs")


def test_criterion_07_rotary_breaks_convergence():
    # Rotary regression: with the reference rotary parameter set (V =
    # -1.5 I), the plain run collapses while adding the rotary interaction
    # term drives the same initial tokens to divergence. Tokens start in a
    # tight cluster whose saturated attention graph carries a multi-cycle
    # (cluster direction 3*pi/8, norm 30, relative spread 3e-4).
    V = -1.5 * np.eye(2)
    vanilla = ModelParams(D=2, Q=ROPE_Q, K=ROPE_K, V=V, Dk=1)
    rotary = ModelParams(D=2, Q=ROPE_Q, K=ROPE_K, V=V, Dk=1, rope=RopeParams(Qbar=ROPE_QBAR, Kbar=ROPE_KBAR))
    ang = 3.0 * np.pi / 8.0
    direction = np.array([np.cos(ang), np.sin(ang)])
    eps = generator(55).standard_normal((6, 2))
    X0 = 30.0 * direction + 3e-4 * 30.0 * eps
    cfg = IntegratorConfig(h=1e-2, T=25.0)
    traj_v = integrate(lambda X: rhs_vanilla(vanilla, X), X0, cfg)
    traj_r = integrate(lambda X: rhs_rotary(rotary, X), X0, cfg)
    r_v = np.linalg.norm(traj_v.final, axis=1).mean() / np.linalg.norm(traj_v.initial, axis=1).mean()
    r_r = np.linalg.norm(traj_r.final, axis=1).mean() / np.linalg.norm(traj_r.initial, axis=1).mean()
    ok = classify_regime(traj_v) is Regime.CONVERGED and classify_regime(traj_r) is Regime.DIVERGED
    report(7, ok, f"plain run converged (ratio {r_v:.1e}), rotary run diverged (ratio {r_r:.1e})")


def test_criterion_08_regime_sweeps(tmp_path):
    # Empirical regime rates over 100 seeds per scenario through the sweep
    # runner: >=95% converged when A_sym < 0 and W_sym > 0, >=95% diverged
    # in the divergence scenario. Horizons are decay-rate aware.
    rates = {}
    for scenario, target in (("convergence", "converged"), ("divergence", "diverged")):
        out = tmp_path / scenario
        out.mkdir()
        cfg = {
            "schema_version": 1,
            "mode": "sweep",
            "sweep": {"scenario": scenario, "D": 4, "seed_start": 0, "seed_count": 100, "horizon": "auto"},
        }
        code = cli.run_sweep(cfg, str(out), jobs=4)
        assert code == 0
        rows = (out / "seeds.csv").read_text().splitlines()[1:]
        n_target = sum(1 for r in rows if r.split(",")[3] == target)
        rates[scenario] = n_target
        assert n_target >= 95, f"{scenario}: only {n_target}/100 {target}"
    report(8, True, f"sweep rates: {rates['convergence']}/100 converged, {rates['divergence']}/100 diverged (threshold 95)")


def test_criterion_09_spectrum_statistics():
    # 100 seeded random D=16 triples: mean % positive eigenvalues of both
    # symmetrized interaction matrices within 50 +- 5, and no near-zero
    # eigenvalues of V at eps = 1e-3. Runtime < 10 s.
    t0 = time.perf_counter()
    triples = [random_params(16, 3000 + i) for i in range(100)]
    stats = eigen_stats([p.Q for p in triples], [p.K for p in triples], [p.V for p in triples], eps=1e-3)
    elapsed = time.perf_counter() - t0
    ok = (
        45.0 <= stats.pct_pos_Wsym <= 55.0
        and 45.0 <= stats.pct_pos_Asym <= 55.0
        and stats.pct_near_zero_V == 0.0
        and elapsed < 10.0
    )
    report(
        9,
        ok,
        f"pct_pos_Wsym={stats.pct_pos_Wsym:.2f}, pct_pos_Asym={stats.pct_pos_Asym:.2f}, "
        f"near-zero V={stats.pct_near_zero_V:.2f}; runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_10_oracle_suite():
    # (a) single-token trajectories against the matrix-exponential closed
    # form; (b) the interaction-matrix gradient identity; (c) convexity of
    # the log-partition function; (d) fourth-order Richardson behavior.
    for i in range(5):
        p = random_params(3, 4000 + i)
        rng = generator(4100 + i)
        x0 = rng.standard_normal((1, 3))
        traj = integrate(lambda X: rhs_vanilla(p, X), x0, IntegratorConfig(h=1e-3, T=2.0))
        expected = x0 @ quadspace.matexp(2.0 * p.V.T).T
        assert np.abs(traj.final - expected).max() < 1e-6, i

    n_states = 0
    for i in range(10):
        p = random_params(3, 4200 + i)
        W, A = derive_W_A(p)
        rng = generator(4300 + i)
        for _ in range(10):
            X = rng.standard_normal((4, 3))
            dX = rhs_vanilla(p, X)
            for l in range(4):
                u = X[l]
                h = 1e-6 * (1.0 + np.linalg.norm(u))
                grad = np.array(
                    [(np.log(np.sum(np.exp((u + h * e) @ W @ X.T))) - np.log(np.sum(np.exp((u - h * e) @ W @ X.T)))) / (2 * h) for e in np.eye(3)]
                )
                assert np.abs(A @ dX[l] - grad).max() < 1e-5
            n_states += 1
    assert n_states == 100

    rng = generator(4400)
    W = rng.standard_normal((3, 3))
    X = rng.standard_normal((5, 3))
    for _ in range(1000):
        u, v = rng.standard_normal((2, 3))
        f = lambda w: np.log(np.sum(np.exp(w @ W @ X.T)))
        assert f(u) + f(v) - 2.0 * f((u + v) / 2.0) >= -1e-12

    errs = []
    for h in (0.1, 0.05):
        traj = integrate(lambda X: X, np.array([[1.0]]), IntegratorConfig(h=h, T=1.0))
        errs.append(abs(traj.final[0, 0] - np.e))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0
    report(10, True, f"matexp/gradient/convexity oracles hold; RK4 halving ratio {ratio:.1f} (order 4)")

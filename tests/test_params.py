import dataclasses

import numpy as np
import pytest

from attnsim import quadspace
from attnsim.errors import DomainError, ShapeError
from attnsim.params import (
    LambdaKind,
    LambdaMod,
    ModelParams,
    Scenario,
    ScenarioSpec,
    build_scenario,
    derive_W_A,
    eigen_stats,
    load_matrix,
    params_from_w_and_a,
    random_params,
    save_matrix,
    softplus,
)


def test_random_params_deterministic():
    a = random_params(4, 123, 1.0)
    b = random_params(4, 123, 1.0)
    np.testing.assert_array_equal(a.Q, b.Q)
    np.testing.assert_array_equal(a.K, b.K)
    np.testing.assert_array_equal(a.V, b.V)


def test_random_params_invertible_V():
    for seed in range(10):
        p = random_params(4, seed)
        W, A = derive_W_A(p)  # raises on singular V
        assert W.shape == (4, 4) and A.shape == (4, 4)


def test_random_params_positive_fraction_matches_reinit_statistic():
    # ~50% positive eigenvalues of W_sym for Gaussian draws
    pcts = []
    for seed in range(200):
        p = random_params(16, seed)
        W = p.Q @ p.K.T / np.sqrt(16)
        pcts.append(100.0 * np.mean(np.linalg.eigvalsh(quadspace.sym(W)) > 0))
    assert 45.0 <= np.mean(pcts) <= 55.0


def test_derive_identity():
    p = ModelParams(D=2, Q=np.eye(2), K=np.eye(2), V=np.eye(2), Dk=1)
    W, A = derive_W_A(p)
    np.testing.assert_allclose(W, np.eye(2))
    np.testing.assert_allclose(A, np.eye(2))


def test_derive_scaled_value_matrix():
    rng = np.random.default_rng(0)
    Wt = rng.normal(size=(3, 3))
    p = ModelParams(D=3, Q=Wt, K=np.eye(3), V=2.0 * np.eye(3), Dk=1)
    W, A = derive_W_A(p)
    np.testing.assert_allclose(A, W / 2.0, atol=1e-12)


def test_derive_residual_identity():
    for seed in range(5):
        p = random_params(5, seed)
        W, A = derive_W_A(p)
        assert np.abs(A @ p.V.T - W).max() < 1e-10 * max(1.0, np.abs(W).max())


def test_params_from_w_and_a_roundtrip():
    rng = np.random.default_rng(1)
    W = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    p = params_from_w_and_a(W, A)
    W2, A2 = derive_W_A(p)
    np.testing.assert_allclose(W2, W, atol=1e-12)
    np.testing.assert_allclose(A2, A, atol=1e-10)


def test_softplus_values():
    assert softplus(0.0) == pytest.approx(np.log(2.0), rel=1e-12)
    assert softplus(50.0) == pytest.approx(50.0, abs=1e-12)
    # series oracle for deep negative tail: log1p(e^x) ~ e^x - e^{2x}/2
    x = -40.0
    expected = np.exp(x) - 0.5 * np.exp(2 * x)
    assert softplus(x) == pytest.approx(expected, rel=1e-10)
    assert np.all(softplus(np.linspace(-30, 30, 101)) > 0)


@pytest.mark.parametrize("scenario", list(Scenario))
@pytest.mark.parametrize("D", [2, 4, 8])
def test_build_scenario_definiteness(scenario, D):
    for seed in range(10):
        p = build_scenario(ScenarioSpec(scenario=scenario, D=D, seed=seed))
        assert p.Dk == 1
        W, A = derive_W_A(p)
        assert quadspace.classify_definiteness(W) is quadspace.Definiteness.POSITIVE_DEFINITE
        n_pos = int(np.sum(np.linalg.eigvalsh(quadspace.sym(A)) > 0))
        expected = {Scenario.CONVERGENCE: 0, Scenario.DIVERGENCE: D, Scenario.INTERMEDIATE: (D + 1) // 2}[scenario]
        assert n_pos == expected


def test_build_scenario_deterministic():
    spec = ScenarioSpec(scenario=Scenario.CONVERGENCE, D=4, seed=77)
    a, b = build_scenario(spec), build_scenario(spec)
    np.testing.assert_array_equal(a.V, b.V)


@pytest.mark.parametrize("scenario", list(Scenario))
def test_build_scenario_reproduces_targets(scenario):
    # the algebra K = (Q^-1 W_t)^T, V = (A_t^-1 W_t)^T must give back the
    # sampled targets through derive_W_A
    from attnsim.params import _sample_scenario_targets, generator

    for seed in range(5):
        spec = ScenarioSpec(scenario=scenario, D=4, seed=seed)
        p = build_scenario(spec)
        Q, W_t, A_t = _sample_scenario_targets(generator(seed), spec)
        W, A = derive_W_A(p)
        scale = max(1.0, np.abs(W_t).max(), np.abs(A_t).max())
        assert np.abs(W - W_t).max() < 1e-8 * scale
        assert np.abs(A - A_t).max() < 1e-8 * scale


def test_build_scenario_symmetric_targets():
    spec = ScenarioSpec(scenario=Scenario.CONVERGENCE, D=4, seed=5, symmetric=True)
    p = build_scenario(spec)
    W, A = derive_W_A(p)
    assert np.abs(A - A.T).max() < 1e-8 * max(1.0, np.abs(A).max())
    assert np.abs(W - W.T).max() < 1e-8 * max(1.0, np.abs(W).max())


def test_build_scenario_intermediate_odd_dimension():
    p = build_scenario(ScenarioSpec(scenario=Scenario.INTERMEDIATE, D=5, seed=3))
    _, A = derive_W_A(p)
    assert int(np.sum(np.linalg.eigvalsh(quadspace.sym(A)) > 0)) == 3


def test_lambda_mod_validation():
    with pytest.raises(DomainError):
        LambdaMod(kind=LambdaKind.IDENTITY_SCALED, lam=0.5)
    with pytest.raises(DomainError):
        LambdaMod(kind=LambdaKind.DIAG_SCALED, lam=-1.0)
    with pytest.raises(DomainError):
        LambdaMod(kind=LambdaKind.DIAG_SCALED, lam=-1.0, diag=np.array([1.0, -2.0]))
    LambdaMod(kind=LambdaKind.DIAG_SCALED, lam=-1.0, diag=np.array([1.0, 2.0]))


def test_model_params_shape_validation():
    with pytest.raises(ShapeError):
        ModelParams(D=3, Q=np.eye(2), K=np.eye(3), V=np.eye(3))


def test_model_params_arrays_are_read_only_copies():
    rng = np.random.default_rng(3)
    Q, K, V = rng.standard_normal((3, 3, 3))
    p = ModelParams(D=3, Q=Q, K=K, V=V, Dk=2)
    Q0, W0 = p.Q.copy(), p.W.copy()
    np.testing.assert_array_equal(W0, Q @ K.T / np.sqrt(2))
    for name in ("Q", "K", "V", "W"):
        with pytest.raises(ValueError):
            getattr(p, name)[0, 0] = 1.0
    Q[0, 0] += 1.0  # the caller's array changes; the params do not
    np.testing.assert_array_equal(p.Q, Q0)
    np.testing.assert_array_equal(p.W, W0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.W = np.zeros((3, 3))


def test_model_params_replace_rebinds_W():
    rng = np.random.default_rng(4)
    Q, K, V, Q2 = rng.standard_normal((4, 3, 3))
    p = ModelParams(D=3, Q=Q, K=K, V=V, Dk=5)
    q = dataclasses.replace(p, Q=Q2)
    np.testing.assert_array_equal(q.W, Q2 @ K.T / np.sqrt(5))
    np.testing.assert_array_equal(p.W, Q @ K.T / np.sqrt(5))


def test_eigen_stats_identity_and_zero():
    s = eigen_stats([np.eye(2)], [np.eye(2)], [np.eye(2)])
    assert s.pct_near_zero_V == 0.0
    s = eigen_stats([np.eye(2)], [np.eye(2)], [np.zeros((2, 2))])
    assert s.pct_near_zero_V == 100.0
    assert s.n_singular_V == 1
    assert np.isnan(s.pct_pos_Asym)


def test_eigen_stats_mean_invariance():
    rng = np.random.default_rng(2)
    Q, K, V = rng.normal(size=(3, 4, 4))
    one = eigen_stats([Q], [K], [V])
    rep = eigen_stats([Q] * 5, [K] * 5, [V] * 5)
    assert one.pct_pos_Wsym == pytest.approx(rep.pct_pos_Wsym)
    assert one.pct_pos_Asym == pytest.approx(rep.pct_pos_Asym)


def test_eigen_stats_empty():
    with pytest.raises(DomainError):
        eigen_stats([], [], [])


def test_matrix_io_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    M = rng.normal(size=(3, 5))
    path = tmp_path / "m.txt"
    save_matrix(path, M)
    np.testing.assert_array_equal(load_matrix(path), M)


def test_matrix_io_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 2 3\n")
    with pytest.raises(DomainError):
        load_matrix(bad)
    bad.write_text("nope\n")
    with pytest.raises(DomainError):
        load_matrix(bad)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnsim import quadspace
from attnsim.dynamics import rhs_vanilla
from attnsim.errors import DomainError, IntegrationError
from attnsim.integrate import RK4_REGION_MARGIN, IntegratorConfig, Termination, integrate, region_step, rk4_step, stable_step
from attnsim.params import ModelParams, generator, params_from_w_and_a, random_params

from cases import SHRINK_A, SHRINK_W, SHRINK_X0


def test_config_validation():
    with pytest.raises(DomainError):
        IntegratorConfig(h=0.0)
    with pytest.raises(DomainError):
        IntegratorConfig(h=1.0, T=0.5)
    with pytest.raises(DomainError):
        IntegratorConfig(record_stride=0)


@pytest.mark.parametrize("kwargs", [{"h": float("nan")}, {"h": float("inf")}, {"T": float("nan")}, {"T": float("inf")},
                                    {"blowup_norm": float("nan")}])
def test_config_rejects_non_finite_values(kwargs):
    with pytest.raises(DomainError):
        IntegratorConfig(**kwargs)
    IntegratorConfig(blowup_norm=float("inf"))  # no guard


def test_zero_rhs_keeps_state():
    X0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    traj = integrate(lambda X: np.zeros_like(X), X0, IntegratorConfig(h=0.1, T=1.0))
    assert traj.terminated is Termination.HORIZON_REACHED
    np.testing.assert_array_equal(traj.final, X0)
    np.testing.assert_allclose(traj.times, np.arange(11) * 0.1)


def test_rk4_scalar_exponential_one_step():
    X = np.array([[1.0]])
    out = rk4_step(lambda X: X, X, 0.1)
    assert out[0, 0] == pytest.approx(1.10517083, abs=1e-7)
    assert abs(out[0, 0] - np.exp(0.1)) < 1e-7


def test_rk4_order_four_richardson():
    # halving h shrinks the global error at T=1 by ~16x on x' = x
    errs = []
    for h in (0.1, 0.05, 0.025):
        traj = integrate(lambda X: X, np.array([[1.0]]), IntegratorConfig(h=h, T=1.0))
        errs.append(abs(traj.final[0, 0] - np.e))
    assert 12.0 < errs[0] / errs[1] < 20.0
    assert 12.0 < errs[1] / errs[2] < 20.0


def test_single_token_matches_matrix_exponential():
    rng = np.random.default_rng(0)
    p = random_params(3, 41)
    x0 = rng.normal(size=(1, 3))
    traj = integrate(lambda X: rhs_vanilla(p, X), x0, IntegratorConfig(h=1e-3, T=2.0))
    expected = x0 @ quadspace.matexp(2.0 * p.V.T).T
    assert np.abs(traj.final - expected).max() < 1e-6


def test_blow_up_guard():
    p = ModelParams(D=2, Q=np.zeros((2, 2)), K=np.zeros((2, 2)), V=2.0 * np.eye(2), Dk=1)
    X0 = np.array([[1.0, 0.5], [0.8, 0.2]])
    traj = integrate(lambda X: rhs_vanilla(p, X), X0, IntegratorConfig(h=1e-2, T=20.0, blowup_norm=1e8))
    assert traj.terminated is Termination.BLOW_UP
    assert traj.blowup_time is not None and traj.blowup_time < 20.0
    assert np.linalg.norm(traj.final, axis=1).max() > 1e8
    assert np.isfinite(traj.states).all()


@given(
    X0=st.integers(1, 6).flatmap(
        lambda L: st.lists(
            st.lists(st.floats(-1e200, 1e200, allow_nan=False), min_size=3, max_size=3), min_size=L, max_size=L
        )
    ),
    row=st.integers(0, 5),
    nudge=st.sampled_from([-1, 0, 1]),
    scale=st.sampled_from([None, 1e-3, 1.0, 1e3]),
)
@settings(max_examples=200, deadline=None)
def test_blow_up_guard_decides_as_linalg_norm(X0, row, nudge, scale):
    # a zero field leaves X0 bit for bit, so one step asks the guard about X0
    X0 = np.array(X0)
    with np.errstate(over="ignore"):  # rows past ~1e154 have an infinite norm, in both forms
        norms = np.linalg.norm(X0, axis=1)
        b = norms[row % len(X0)] if scale is None else scale * norms.max()
        b = np.nextafter(b, np.inf * nudge) if nudge else b
        if not 0 < b < np.inf:
            return
        expected = norms.max() > b
        traj = integrate(lambda X: np.zeros_like(X), X0, IntegratorConfig(h=1.0, T=1.0, blowup_norm=float(b)))
    assert (traj.terminated is Termination.BLOW_UP) == expected


@pytest.mark.parametrize("bound", [1.0, 3e-7, 1e150, 1e-150, 1e154, 2.0**-537, 1e200, 1e-200])
def test_blow_up_guard_quick_total_decides_as_linalg_norm(bound):
    # integrate settles a step on one total of squares when it is below
    # bound^2 / 2; rows at the bound, at sqrt(1/2) of it, one ulp either side,
    # alone or beside other rows, must get the row check's decision. bound^2
    # overflows at 1e154 and 1e200 and underflows at 1e-200; 2^-537 squares
    # to a subnormal.
    with np.errstate(over="ignore", under="ignore"):
        for L, D in [(1, 1), (1, 3), (2, 2), (5, 3)]:
            for factor in (1.0, 0.5**0.5, 0.5):
                for nudge in (-np.inf, 0.0, np.inf):
                    b = factor * bound
                    b = np.nextafter(b, nudge) if nudge else b
                    for others in (0.0, 0.5, 1.0):
                        X0 = np.zeros((L, D))
                        X0[:, 0] = others * b
                        X0[0, 0] = b
                        if D > 1:  # a row whose norm rounds: b split over two entries
                            X0[-1, :2] = b * 0.6, b * 0.8
                        expected = np.linalg.norm(X0, axis=1).max() > bound
                        traj = integrate(lambda X: np.zeros_like(X), X0, IntegratorConfig(h=1.0, T=1.0, blowup_norm=bound))
                        assert (traj.terminated is Termination.BLOW_UP) == expected, (L, D, factor, nudge, others)


def _norm_guard_loop(rhs, X0, config):
    """integrate's stopping rule as written in the docstring: stop unrecorded
    at a step whose result is not finite, or recorded once the largest
    np.linalg.norm row norm passes blowup_norm."""
    X = np.array(X0, dtype=float)
    times, states = [0.0], [X]
    n, h, stride = config.n_steps, config.h, config.record_stride
    for k in range(n):
        X = rk4_step(rhs, X, h)
        if not np.isfinite(X).all():
            return times, states, Termination.BLOW_UP, k * h
        blown = np.linalg.norm(X, axis=1).max() > config.blowup_norm
        if blown or (k + 1) % stride == 0 or k == n - 1:
            times.append((k + 1) * h)
            states.append(X)
        if blown:
            return times, states, Termination.BLOW_UP, (k + 1) * h
    return times, states, Termination.HORIZON_REACHED, None


@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 4)),
    seed=st.integers(0, 2**32 - 1),
    magnitude=st.integers(-320, 200),
    offset=st.floats(-3.0, 3.0),
    rate=st.sampled_from([0.0, 0.05, 0.5, 3.0]),
    stride=st.integers(1, 3),
)
@settings(max_examples=300, deadline=None)
def test_small_blowup_norm_stops_as_linalg_norm_loop(shape, seed, magnitude, offset, rate, stride):
    # tokens of like norms, from subnormal to past 1e154 (where squares
    # overflow), under a slowly growing field and a bound within a few
    # decades of them: the total of squares passes bound^2 / 2 well before
    # any row norm passes the bound
    rng = np.random.default_rng(seed)
    X0 = 10.0**magnitude * (1.0 + 0.1 * rng.standard_normal(shape))
    M = rate * (np.eye(shape[1]) + 0.3 * rng.standard_normal((shape[1], shape[1])))
    bound = 10.0 ** (magnitude + offset)
    if not 0 < bound < np.inf:
        return
    config = IntegratorConfig(h=0.1, T=2.0, record_stride=stride, blowup_norm=bound)
    with np.errstate(all="ignore"):
        got = integrate(lambda X: X.dot(M), X0, config)
        times, states, terminated, blowup_time = _norm_guard_loop(lambda X: X.dot(M), X0, config)
    assert (got.terminated, got.blowup_time) == (terminated, blowup_time)
    assert got.times.tobytes() == np.array(times).tobytes()
    assert got.states.tobytes() == np.array(states).tobytes()


def test_blow_up_paths_stop_and_record():
    # a non-finite step stops at its start and keeps the samples recorded
    # so far; the norm guard stops at the end of its step and records that
    # state even between strides. Under a unit field x equals t at every
    # stage, so a threshold on x is one on t.
    def overflow(X):
        return np.full_like(X, np.inf) if X[0, 0] > 0.22 else np.ones_like(X)

    traj = integrate(overflow, np.zeros((1, 1)), IntegratorConfig(h=0.1, T=1.0, record_stride=2))
    assert traj.terminated is Termination.BLOW_UP
    np.testing.assert_allclose(traj.times, [0.0, 0.2])
    assert traj.blowup_time == 2 * 0.1
    traj = integrate(lambda X: np.ones_like(X), np.zeros((1, 1)), IntegratorConfig(h=0.1, T=1.0, record_stride=4, blowup_norm=0.25))
    assert traj.terminated is Termination.BLOW_UP
    np.testing.assert_allclose(traj.times, [0.0, 0.3])
    np.testing.assert_allclose(traj.states[:, 0, 0], [0.0, 0.3])
    assert traj.blowup_time == traj.times[-1]


def test_determinism_bitwise():
    p = random_params(2, 3)
    X0 = np.array([[0.3, -0.4], [0.1, 0.9]])
    cfg = IntegratorConfig(h=1e-2, T=1.0)
    a = integrate(lambda X: rhs_vanilla(p, X), X0, cfg)
    b = integrate(lambda X: rhs_vanilla(p, X), X0, cfg)
    np.testing.assert_array_equal(a.states, b.states)


def test_record_stride_includes_endpoints():
    traj = integrate(lambda X: np.zeros_like(X), np.zeros((1, 1)), IntegratorConfig(h=0.1, T=1.0, record_stride=3))
    np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0])


@given(st.floats(1e-3, 1.0), st.floats(0.0, 60.0), st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_n_samples_counts_what_integrate_records(h, extra, stride):
    # T from one step to about 60 steps past it, off the step grid; a run that reaches T
    config = IntegratorConfig(h=h, T=h * (1.0 + extra), record_stride=stride)
    traj = integrate(lambda X: np.zeros_like(X), np.zeros((1, 1)), config)
    assert traj.terminated is Termination.HORIZON_REACHED
    assert config.n_samples == len(traj.times)


def test_step_size_convergence_on_reference_set():
    p = params_from_w_and_a(SHRINK_W, quadspace.sym(SHRINK_A))
    finals = {}
    for h in (1e-2, 5e-3, 2.5e-3):
        traj = integrate(lambda X: rhs_vanilla(p, X), SHRINK_X0, IntegratorConfig(h=h, T=5.0))
        finals[h] = traj.final
    d1 = np.abs(finals[1e-2] - finals[5e-3]).max()
    d2 = np.abs(finals[5e-3] - finals[2.5e-3]).max()
    # fitted C = d / h^4 stays stable under refinement
    c1 = d1 / 1e-2**4
    c2 = d2 / 5e-3**4
    assert 0.25 < c1 / c2 < 4.0


def test_time_reversal_single_step():
    p = random_params(2, 9)
    X0 = np.array([[0.5, -0.2], [0.1, 0.4]])
    h = 1e-2
    fwd = rk4_step(lambda X: rhs_vanilla(p, X), X0, h)
    back = rk4_step(lambda X: -rhs_vanilla(p, X), fwd, h)
    assert np.abs(back - X0).max() < 1e-10


def test_rhs_error_carries_time():
    # under a unit field x equals t at every stage
    def bad(X):
        if X[0, 0] > 0.049:
            raise ValueError("boom")
        return np.ones_like(X)

    with pytest.raises(IntegrationError, match="t=0.04"):
        integrate(bad, np.zeros((1, 1)), IntegratorConfig(h=1e-2, T=1.0))


def test_stable_step_caps_by_spectral_radius():
    assert stable_step(np.zeros((2, 2))) == 1e-2
    assert stable_step(100.0 * np.eye(2)) == pytest.approx(0.005)


def rk4_amplification(z):
    """|R(z)| for RK4's stability polynomial R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
    return np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from([0.0, 1e-3, 0.1, 1.0]),
       st.sampled_from([0.0, 1e-2, 1.0]), st.floats(-2.0, 2.0))
@settings(max_examples=200, deadline=None)
def test_region_step_matches_dense_grid_oracle(seed, D, mix, shift, log_scale):
    # V mixes a skew part (eigenvalues on the imaginary axis) with a general
    # one; the shift moves every eigenvalue, oscillations included, to Re > 0
    rng = generator(seed)
    G = rng.standard_normal((D, D))
    V = 10.0**log_scale * (G - G.T + mix * rng.standard_normal((D, D)) + shift * np.eye(D))
    cap = 10.0 ** rng.uniform(-3.0, 1.0)
    h = region_step(V, cap=cap)
    assert 0 < h <= cap
    lam = np.linalg.eigvals(V)
    lam = np.where(lam.real > 0, 1j * lam.imag, lam)  # a growing mode's oscillation
    lam = lam[lam != 0]
    s = np.linspace(0.0, h, 4001)
    assert (rk4_amplification(np.outer(s, lam)) <= 1 + 1e-12).all()
    if h < cap:  # the margin is taken from the region's boundary, not from inside it
        assert (rk4_amplification(h / RK4_REGION_MARGIN * (1 + 1e-6) * lam) > 1).any()


def test_region_step_pins():
    # the negative real axis ends where R(z) = 1, the real root of z^3 + 4z^2 + 12z + 24
    edge = -min(r.real for r in np.roots([1.0, 4.0, 12.0, 24.0]) if abs(r.imag) < 1e-9)
    assert edge == pytest.approx(2.785293563405282, rel=1e-12)
    for c in (0.5, 3.0, 700.0):
        assert region_step(-c * np.eye(3), cap=np.inf) == pytest.approx(0.8 * edge / c, rel=1e-12)
    for w in (0.25, 1.0, 40.0):  # the imaginary axis ends at 2 sqrt 2
        assert region_step(np.array([[0.0, w], [-w, 0.0]]), cap=np.inf) == pytest.approx(0.8 * 2 * np.sqrt(2) / w, rel=1e-12)
    # a growing oscillation eps +- iw steps as the neutral one; for (0.01, 60)
    # the cap 0.05 would give h lam ~ 3i, where RK4 grows the mode 1.5-fold a step
    for eps, w in ((1e-3, 1.0), (0.01, 60.0), (5.0, 2.0)):
        V = np.array([[eps, w], [-w, eps]])
        assert region_step(V, cap=np.inf) == pytest.approx(0.8 * 2 * np.sqrt(2) / w, rel=1e-12)
    assert region_step(-np.eye(2), cap=0.5) == 0.5
    assert region_step(np.zeros((2, 2))) == 1e-2  # no mode bounds the step: the cap
    assert region_step(100.0 * np.eye(2)) == 1e-2


class _OracleBlowUp(IntegrationError):
    pass


def _oracle_rk4_step(rhs, X, t, h):
    k1 = rhs(X)
    k2 = rhs(X + 0.5 * h * k1)
    k3 = rhs(X + 0.5 * h * k2)
    k4 = rhs(X + h * k3)
    out = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise _OracleBlowUp(f"non-finite stage at t={t:.6g}")
    return out


def _oracle_integrate(rhs, X0, config):
    """The integrator with two blow-up paths that the one-decision loop
    replaced: an exception for a non-finite step, then the norm guard. It
    carried t for time-dependent fields; here only the messages read it."""
    X = np.array(X0, dtype=float)
    times, states = [0.0], [X.copy()]
    terminated, blowup_time = Termination.HORIZON_REACHED, None
    n, h, stride, bound = config.n_steps, config.h, config.record_stride, config.blowup_norm
    for k in range(n):
        t = k * h
        try:
            X = _oracle_rk4_step(rhs, X, t, h)
        except _OracleBlowUp:
            terminated, blowup_time = Termination.BLOW_UP, t
            break
        except IntegrationError:
            raise
        except Exception as exc:
            raise IntegrationError(f"rhs evaluation failed at t={t:.6g}") from exc
        t_next = (k + 1) * h
        blown = np.sqrt(np.add.reduce(X * X, axis=1).max()) > bound
        if blown or (k + 1) % stride == 0 or k == n - 1:
            times.append(t_next)
            states.append(X.copy())
        if blown:
            terminated, blowup_time = Termination.BLOW_UP, t_next
            break
    return np.array(times), np.array(states), terminated, blowup_time


def _run(integrator, *args):
    try:
        return integrator(*args)
    except IntegrationError as exc:
        return str(exc)


@given(
    X0=st.tuples(st.integers(1, 4), st.integers(1, 3)).flatmap(
        lambda s: st.lists(st.lists(st.floats(-1e200, 1e200), min_size=s[1], max_size=s[1]), min_size=s[0], max_size=s[0])
    ),
    poison=st.sampled_from([None, None, None, np.nan, np.inf, -np.inf]),
    at=st.integers(0, 11),
    field=st.sampled_from(["zero", "unit", "linear", "threshold", "raise"]),
    m_seed=st.integers(0, 2**32 - 1),
    m_scale=st.sampled_from([0.1, 3.0, 1e3, 1e150]),
    threshold=st.floats(1e-3, 1e250),
    bad=st.sampled_from([np.inf, -np.inf, np.nan]),
    h=st.floats(1e-3, 1.0),
    steps=st.floats(1.0, 30.0),
    stride=st.integers(1, 5),
    blowup_norm=st.floats(1e-3, 1e300) | st.just(np.inf),
)
@settings(max_examples=300, deadline=None)
def test_integrate_bitwise_equal_two_path_oracle(X0, poison, at, field, m_seed, m_scale, threshold, bad, h, steps, stride, blowup_norm):
    X0 = np.array(X0, dtype=float)
    if poison is not None:
        X0.flat[at % X0.size] = poison
    D = X0.shape[1]
    M = m_scale * np.random.default_rng(m_seed).standard_normal((D, D))

    def past(X):
        return np.abs(X).max() > threshold

    def boom(X):
        if past(X):
            raise ValueError("boom")
        return X @ M

    rhs = {
        "zero": np.zeros_like,
        "unit": np.ones_like,
        "linear": lambda X: X @ M,
        "threshold": lambda X: np.full_like(X, bad) if past(X) else X @ M,
        "raise": boom,
    }[field]
    config = IntegratorConfig(h=h, T=steps * h, record_stride=stride, blowup_norm=blowup_norm)
    with np.errstate(all="ignore"):
        got = _run(integrate, rhs, X0, config)
        want = _run(_oracle_integrate, rhs, X0, config)
        streamed = []
        ends = _run(integrate, rhs, X0, config, lambda t, X: streamed.append((t, X)))
    if isinstance(want, str):
        assert got == want and ends == want
        return
    times, states, terminated, blowup_time = want
    assert got.times.tobytes() == times.tobytes()
    assert got.states.shape == states.shape and got.states.tobytes() == states.tobytes()
    assert got.terminated is terminated
    assert got.blowup_time == blowup_time
    # a sink sees every sample as taken; the result keeps the first and the last
    assert np.array([t for t, _ in streamed]).tobytes() == times.tobytes()
    assert np.array([X for _, X in streamed]).tobytes() == states.tobytes()
    keep = [0] if len(times) == 1 else [0, -1]
    assert ends.times.tobytes() == times[keep].tobytes() and ends.states.tobytes() == states[keep].tobytes()
    assert (ends.terminated, ends.blowup_time) == (terminated, blowup_time)

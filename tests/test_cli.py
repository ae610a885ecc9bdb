import csv
import io
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import attnsim
from attnsim import analyze, cli, dynamics, quadspace
from attnsim import integrate as integrate_module
from attnsim.cli import (
    _fmt,
    _prepare_run,
    _sweep_one,
    build_integrator,
    build_params,
    build_sweep_plan,
    load_config,
    main,
    write_metrics_csv,
    write_trajectory_csv,
)
from attnsim.dynamics import rhs_absolute, rhs_vanilla
from attnsim.errors import ContractError
from attnsim.integrate import IntegratorConfig, Termination, Trajectory, integrate, region_step, stable_step
from attnsim.params import (
    RopeParams,
    Scenario,
    ScenarioSpec,
    build_scenario,
    generator,
    params_from_w_and_v,
    random_params,
    save_matrix,
)

from cases import GROW_A, GROW_W, GROW_X0, ROPE_K, ROPE_KBAR, ROPE_Q, ROPE_QBAR

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def run_cli(tmp_path, cfg, name="run.json", jobs=1):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    return main(["--config", str(path), "--out", str(out), "--jobs", str(jobs)]), out


def simulate_cfg(**overrides):
    cfg = {
        "schema_version": 1,
        "mode": "simulate",
        "params": {"kind": "random", "D": 2, "seed": 1},
        "tokens": {"kind": "random", "L": 3, "seed": 2, "scale": 0.5},
        "integrator": {"h": 0.01, "T": 0.5},
    }
    cfg.update(overrides)
    return cfg


def test_unknown_key_rejected(tmp_path):
    code, _ = run_cli(tmp_path, simulate_cfg(bogus=1))
    assert code == 2


def test_unknown_nested_key_rejected(tmp_path):
    cfg = simulate_cfg()
    cfg["integrator"]["step"] = 0.1
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2


@pytest.mark.parametrize("section", ["params", "posenc", "tokens", "integrator"])
def test_section_not_an_object_exits_2(tmp_path, capsys, section):
    code, _ = run_cli(tmp_path, simulate_cfg(**{section: 5}))
    assert code == 2 and capsys.readouterr().err == f"error: {section} must be an object\n"


def test_missing_schema_version(tmp_path):
    cfg = simulate_cfg()
    del cfg["schema_version"]
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2


def test_bad_scenario_name_rejected(tmp_path):
    cfg = simulate_cfg(params={"kind": "scenario", "scenario": "explode", "D": 4, "seed": 1})
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2


def test_non_numeric_values_rejected(tmp_path):
    cfg = simulate_cfg()
    cfg["integrator"]["h"] = "fast"
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2
    cfg = simulate_cfg(params={"kind": "random", "D": "big", "seed": 1})
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2


def test_rotary_with_odd_dimension_rejected(tmp_path):
    cfg = simulate_cfg(
        params={
            "kind": "matrices",
            "Q": np.eye(3).tolist(),
            "K": np.eye(3).tolist(),
            "V": np.eye(3).tolist(),
            "rope": {"Qbar": np.eye(3).tolist(), "Kbar": np.eye(3).tolist()},
        },
        posenc={"kind": "rotary"},
        tokens={"kind": "random", "L": 3, "seed": 2},
    )
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2


def test_rope_params_without_rotary_posenc_rejected(tmp_path):
    cfg = simulate_cfg(
        params={
            "kind": "matrices",
            "Q": np.eye(2).tolist(),
            "K": np.eye(2).tolist(),
            "V": np.eye(2).tolist(),
            "rope": {"Qbar": np.eye(2).tolist(), "Kbar": np.eye(2).tolist()},
        },
    )
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2


def test_singular_effective_matrix_exits_3(tmp_path):
    cfg = simulate_cfg(params={"kind": "effective", "W": [[1.0, 0.0], [0.0, 1.0]], "A": [[1.0, 1.0], [1.0, 1.0]]})
    code, _ = run_cli(tmp_path, cfg)
    assert code == 3


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_whose_W_overflows_exits_2_naming_W(tmp_path, capsys, jobs):
    # scale 1e300 makes every Q K^T entry overflow; W is refused where it is built, by name and
    # without a numpy warning, as sweep.scale = inf is refused by the config check; the value came
    # from sweep.scale, so the message names the sweep and the first seed, not a params section
    cfg = {"schema_version": 1, "mode": "sweep", "sweep": {"D": 2, "seed_start": 5, "seed_count": jobs, "scale": 1e300, "horizon": 1.0}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(tmp_path, cfg, jobs=jobs)
    assert code == 2
    assert capsys.readouterr().err == "error: sweep: seed 5: W = Q K^T / sqrt(Dk) is not finite\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (out / "seeds.csv").exists()


def test_simulate_outputs_and_roundtrip(tmp_path):
    code, out = run_cli(tmp_path, simulate_cfg())
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["terminated"] == "horizon_reached"

    with open(out / "trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    # re-parse and compare against a fresh run of the same config bit-for-bit
    from attnsim.cli import build_params, build_tokens
    from attnsim.dynamics import rhs_vanilla
    from attnsim.integrate import IntegratorConfig, integrate

    p = build_params({"kind": "random", "D": 2, "seed": 1})
    X0 = build_tokens({"kind": "random", "L": 3, "seed": 2, "scale": 0.5}, 2)
    traj = integrate(lambda X: rhs_vanilla(p, X), X0, IntegratorConfig(h=0.01, T=0.5))
    parsed = np.array([[float(r["x_0"]), float(r["x_1"])] for r in rows]).reshape(len(traj.times), 3, 2)
    np.testing.assert_array_equal(parsed, traj.states)

    with open(out / "metrics.csv") as fh:
        mrows = list(csv.DictReader(fh))
    assert len(mrows) == len(traj.times)


GIVEN_ROWS = [[0.3, -0.1], [0.0, 0.2], [-0.4, 0.5]]  # (L, D) = (3, 2), matching simulate_cfg


def test_simulate_given_positions_match_absolute_field(tmp_path):
    code, out = run_cli(tmp_path, simulate_cfg(posenc={"kind": "given", "rows": GIVEN_ROWS}))
    assert code == 0
    p = random_params(2, 1)
    X0 = 0.5 * generator(2).standard_normal((3, 2))
    traj = integrate(lambda X: rhs_absolute(p, np.array(GIVEN_ROWS), X), X0, IntegratorConfig(h=0.01, T=0.5))
    with open(out / "trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    parsed = np.array([[float(r["x_0"]), float(r["x_1"])] for r in rows]).reshape(traj.states.shape)
    np.testing.assert_array_equal(parsed, traj.states)


@pytest.mark.parametrize(
    "posenc",
    [
        {"kind": "given"},
        {"kind": "given", "rows": GIVEN_ROWS[:2]},
        {"kind": "given", "rows": [row + [0.0] for row in GIVEN_ROWS]},
        {"kind": "given", "rows": [0.1, 0.2]},
        {"kind": "sinusoidal", "rows": GIVEN_ROWS},
        {"kind": "rotary"},
        {"kind": "learned"},
        {"kind": ["given"]},
    ],
    ids=["missing_rows", "too_few_rows", "too_many_columns", "not_a_matrix", "rows_with_sinusoidal", "rotary_without_rope", "unknown_kind",
         "unhashable_kind"],
)
def test_malformed_posenc_exits_2(tmp_path, capsys, posenc):
    code, _ = run_cli(tmp_path, simulate_cfg(posenc=posenc))
    assert code == 2 and capsys.readouterr().err.startswith("error: posenc")


def fmt_oracle(x):
    return format(float(x), ".17g")


def write_trajectory_loop(path, traj):
    """The per-value writer write_trajectory_csv replaced: the oracle."""
    D = traj.states.shape[2]
    with open(path, "w") as fh:
        fh.write("t,token_index," + ",".join(f"x_{j}" for j in range(D)) + "\n")
        for t, X in zip(traj.times, traj.states):
            for l, row in enumerate(X):
                fh.write(fmt_oracle(t) + f",{l}," + ",".join(fmt_oracle(v) for v in row) + "\n")


SPECIAL_FLOATS = [
    np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 1e-5,
]


@settings(max_examples=300, deadline=None)
@given(x=st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL_FLOATS))
def test_fmt_matches_format(x):
    assert _fmt(x) == fmt_oracle(x)
    assert _fmt(np.float64(x)) == fmt_oracle(x)
    assert cli._csv_line([x, np.float64(x), 3, "skip", ""]) == f"{fmt_oracle(x)},{fmt_oracle(x)},3,skip,\n"


def test_trajectory_writer_bytes_match_oracle(tmp_path):
    rng = np.random.default_rng(8)
    special = np.array(SPECIAL_FLOATS)
    states = rng.standard_normal((3, 5, len(special))) * 10.0 ** rng.uniform(-300, 300, (3, 5, 1))
    states[1, 2] = special
    states[2, :, 0] = special[:5]
    edge = Trajectory(times=np.array([-0.0, 5e-324, 0.1]), states=states, terminated=Termination.HORIZON_REACHED,
                      config=IntegratorConfig(h=0.1, T=0.2), blowup_time=None)
    stride = integrate(lambda X: rhs_vanilla(random_params(3, 6), X), rng.standard_normal((4, 3)),
                       IntegratorConfig(h=0.01, T=0.5, record_stride=3))
    blow = params_from_w_and_v(np.array([[0.5, 0.1], [0.0, 0.4]]), 2.0 * np.eye(2))
    blowup = integrate(lambda X: rhs_vanilla(blow, X), np.array([[1.0, 0.2], [0.8, -0.1]]),
                       IntegratorConfig(h=0.01, T=30.0, blowup_norm=1e6))
    assert blowup.terminated is Termination.BLOW_UP
    for name, traj in (("edge", edge), ("stride", stride), ("blowup", blowup)):
        write_trajectory_csv(tmp_path / f"{name}.csv", traj)
        write_trajectory_loop(tmp_path / f"{name}_oracle.csv", traj)
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_oracle.csv").read_bytes(), name


ROW_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e300, -1e300, 1e-300, -1e-300,
              3.0, -7.0, 1e16, 2.0**53, 123456789.0]


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 7), st.integers(1, 6)),
    seed=st.integers(0, 2**32 - 1),
    planted=st.lists(st.tuples(st.integers(0, 167), st.sampled_from(ROW_FLOATS)), max_size=12),
)
@example(shape=(3, 1, 4), seed=1, planted=[(0, -0.0), (5, 5e-324), (9, 1e300)])  # one token
@example(shape=(3, 5, 1), seed=2, planted=[(1, -1e-300), (4, 3.0), (8, 1e16), (9, -0.0)])  # one feature
@example(shape=(1, 1, 1), seed=3, planted=[(0, 5e-324), (1, -0.0)])
def test_trajectory_rows_match_csv_line_per_row(shape, seed, planted):
    # the per-sample template against the generic line formatter, row by row; the
    # times, then the states, drawn as one array of magnitudes 1e-300 to 1e300,
    # a fifth of them whole numbers, with the planted values written over it
    n, L, D = shape
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n + n * L * D) * 10.0 ** rng.integers(-300, 301, n + n * L * D)
    whole = rng.random(values.size) < 0.2
    values[whole] = np.round(100 * rng.standard_normal(whole.sum()))
    for at, value in planted:
        values[at % values.size] = value
    times, states = values[:n], values[n:].reshape(shape)
    buf = io.StringIO()
    cli._write_trajectory_rows(buf, SimpleNamespace(times=times, states=states))
    want = "".join(cli._csv_line((t, l, *row)) for t, X in zip(times.tolist(), states) for l, row in enumerate(X.tolist()))
    assert buf.getvalue() == want


def test_simulate_single_token_matches_matexp(tmp_path):
    cfg = simulate_cfg(
        params={"kind": "random", "D": 3, "seed": 4},
        tokens={"kind": "random", "L": 1, "seed": 5},
        integrator={"h": 0.001, "T": 1.0},
    )
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    with open(out / "trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    final = np.array([float(rows[-1][f"x_{j}"]) for j in range(3)])
    from attnsim.cli import build_params, build_tokens

    p = build_params({"kind": "random", "D": 3, "seed": 4})
    x0 = build_tokens({"kind": "random", "L": 1, "seed": 5}, 3)
    expected = (quadspace.matexp(1.0 * p.V.T) @ x0[0])
    assert np.abs(final - expected).max() < 1e-6


def test_simulate_blowup_reported(tmp_path):
    cfg = simulate_cfg(
        params={"kind": "effective", "W": [[0.5, 0.1], [0.0, 0.4]], "V": [[2.0, 0.0], [0.0, 2.0]]},
        tokens={"kind": "explicit", "rows": [[1.0, 0.2], [0.8, -0.1]]},
        integrator={"h": 0.01, "T": 30.0, "blowup_norm": 1e6},
    )
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["terminated"] == "blow_up"
    assert summary["blowup_time"] is not None


STREAMED_ROTARY = {"kind": "matrices", "Q": ROPE_Q.tolist(), "K": ROPE_K.tolist(), "V": (-np.eye(2)).tolist(),
                   "rope": {"Qbar": ROPE_QBAR.tolist(), "Kbar": ROPE_KBAR.tolist()}}
NON_FINITE = {
    "integrator_h_nan": ("integrator", {"h": float("nan")}),
    "integrator_T_inf": ("integrator", {"h": 0.01, "T": float("inf")}),
    "integrator_blowup_norm_nan": ("integrator", {"blowup_norm": float("nan")}),
    "tokens_rows_nan": ("tokens", {"kind": "explicit", "rows": [[0.1, float("nan")], [0.2, 0.3]]}),
    "posenc_rows_nan": ("posenc", {"kind": "given", "rows": [[0.1, 0.0], [float("nan"), 0.1], [0.2, -0.1]]}),
    "params_Q_inf": ("params", {"kind": "matrices", "Q": [[float("inf"), 0.0], [0.0, 1.0]], "K": np.eye(2).tolist(), "V": np.eye(2).tolist()}),
    "params_W_inf": ("params", {"kind": "effective", "W": [[1.0, 0.0], [0.0, float("-inf")]], "V": np.eye(2).tolist()}),
    "direction_zero": ("tokens", {"kind": "cluster", "L": 3, "seed": 1, "direction": [0.0, 0.0]}),
    "direction_inf": ("tokens", {"kind": "cluster", "L": 3, "seed": 1, "direction": [float("inf"), 1.0]}),
    "tokens_scale_inf": ("tokens", {"kind": "random", "L": 3, "seed": 2, "scale": float("inf")}),
    "cluster_mean_norm_nan": ("tokens", {"kind": "cluster", "L": 3, "seed": 2, "mean_norm": float("nan")}),
    "rope_lambda_nan": ("params", {**STREAMED_ROTARY, "rope": {**STREAMED_ROTARY["rope"], "lambda_mod": {"kind": "identity_scaled", "lambda": float("nan")}}}),
    "rope_theta_base_nan": ("params", {**STREAMED_ROTARY, "rope": {**STREAMED_ROTARY["rope"], "theta_base": float("nan")}}),
    "sweep_horizon_inf": ("sweep", {"scenario": "convergence", "D": 2, "seed_count": 1, "horizon": float("inf")}),
    "sweep_scale_inf": ("sweep", {"D": 2, "seed_count": 1, "scale": float("inf"), "horizon": 1.0}),
    "spectra_eps_nan": ("spectra", {"eps": float("nan")}),
    "spectra_eps_inf": ("spectra", {"eps": float("inf")}),
    "spectra_eps_negative": ("spectra", {"eps": -1.0}),
    # JSON integers too large for a float
    "integrator_T_int_overflow": ("integrator", {"h": 0.01, "T": 10**400}),
    "params_W_int_overflow": ("params", {"kind": "effective", "W": [[10**400, 0], [0, 1]], "V": np.eye(2).tolist()}),
}


# a bool must be a JSON boolean, an integer a whole number that is not a bool,
# a real or an array entry a number that is not a bool, sweep.tokens an object,
# and a section that is given an object, null included; the cases with a third
# entry, a value of the right type but the wrong shape or count, exit with that line
NOT_STRICT = {
    "params_symmetric_string": ("params", {"kind": "scenario", "scenario": "convergence", "D": 2, "seed": 1, "symmetric": "false"}),
    "params_D_fractional": ("params", {"kind": "random", "D": 2.7, "seed": 1}),
    "params_seed_bool": ("params", {"kind": "random", "D": 2, "seed": True}),
    "params_dk_string": ("params", {"kind": "matrices", "Q": np.eye(2).tolist(), "K": np.eye(2).tolist(), "V": np.eye(2).tolist(), "dk": "2"}),
    "tokens_L_string": ("tokens", {"kind": "random", "L": "3", "seed": 2}),
    "tokens_seed_fractional": ("tokens", {"kind": "cluster", "L": 3, "seed": 2.5}),
    "integrator_record_stride_fractional": ("integrator", {"h": 0.01, "T": 0.5, "record_stride": 1.5}),
    "sweep_symmetric_string": ("sweep", {"scenario": "convergence", "D": 2, "seed_count": 1, "symmetric": "false", "horizon": 1.0}),
    "sweep_D_fractional": ("sweep", {"D": 2.7, "seed_count": 1, "horizon": 1.0}),
    "sweep_seed_count_bool": ("sweep", {"D": 2, "seed_count": True, "horizon": 1.0}),
    "integrator_h_string": ("integrator", {"h": "0.05", "T": 0.5}),
    "sweep_horizon_string": ("sweep", {"D": 2, "seed_count": 1, "horizon": "5"}),
    "params_scale_bool": ("params", {"kind": "random", "D": 2, "seed": 1, "scale": True}),
    "integrator_T_bool": ("integrator", {"h": 0.01, "T": True}),
    "params_W_string_entry": ("params", {"kind": "effective", "W": [["0.5", 0.1], [0.0, 1.0]], "V": np.eye(2).tolist()}),
    "params_W_bool_entry": ("params", {"kind": "effective", "W": [[0.5, True], [0.0, 1.0]], "V": np.eye(2).tolist()}),
    "direction_string_entry": ("tokens", {"kind": "cluster", "L": 3, "seed": 1, "direction": ["1", 0.0]}),
    "sweep_tokens_pairs": ("sweep", {"D": 2, "seed_count": 1, "horizon": 1.0, "tokens": [["kind", "cluster"], ["L", 3]]}),
    "posenc_null": ("posenc", None),
    "verify_null": ("verify", None),
    "tokens_rows_too_wide": ("tokens", {"kind": "explicit", "rows": [[0.1, 0.2, 0.3]]}, "tokens have dimension 3, params have D=2"),
    "tokens_random_L_0": ("tokens", {"kind": "random", "L": 0, "seed": 2}, "tokens: need at least one token"),
    "tokens_cluster_L_0": ("tokens", {"kind": "cluster", "L": 0, "seed": 2}, "tokens: need at least one token"),
    "config_schema_version_2": ("config", {"schema_version": 2}, "config: unsupported schema_version 2 (expected 1)"),
    "params_effective_A_and_V": ("params", {"kind": "effective", "W": np.eye(2).tolist(), "A": np.eye(2).tolist(), "V": np.eye(2).tolist()},
                                 "params.effective: give exactly one of A or V"),
    "params_effective_neither": ("params", {"kind": "effective", "W": np.eye(2).tolist()}, "params.effective: give exactly one of A or V"),
    "spectra_sets_empty": ("spectra", {"sets": []}, "spectra.sets: expected a nonempty list"),
}


def _assert_section_exits_2(tmp_path, capsys, section, value, message=None):
    if section == "config":  # the value gives root keys, read before the output directory is made
        cfg = simulate_cfg(**value)
        (tmp_path / "out").mkdir()
    elif section == "sweep":
        cfg = {"schema_version": 1, "mode": "sweep", "sweep": value}
    elif section == "spectra":  # one readable set; the value gives the other keys
        save_matrix(tmp_path / "eye.txt", np.eye(2))
        cfg = {"schema_version": 1, "mode": "spectra", "spectra": {"sets": [dict.fromkeys("QKV", str(tmp_path / "eye.txt"))], **value}}
    else:  # a verify section is read in verify mode only
        cfg = simulate_cfg(**{section: value}, mode="verify" if section == "verify" else "simulate")
    if section == "params" and "rope" in value:
        cfg["posenc"] = {"kind": "rotary"}
    code, out = run_cli(tmp_path, cfg)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(f"error: {section}") and err.count("\n") == 1 and "Traceback" not in err
    assert message is None or err == f"error: {message}\n", err
    assert os.listdir(out) == []
    return err


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_config_values_exit_2(tmp_path, capsys, case):
    _assert_section_exits_2(tmp_path, capsys, *NON_FINITE[case])


@pytest.mark.parametrize("case", sorted(NOT_STRICT))
def test_lenient_bool_or_integer_exits_2(tmp_path, capsys, case):
    _assert_section_exits_2(tmp_path, capsys, *NOT_STRICT[case])


@pytest.mark.parametrize("case, key", [("params_scale_bool", "params.scale"), ("sweep_tokens_pairs", "sweep.tokens"),
                                       ("spectra_eps_nan", "spectra.eps"), ("spectra_eps_inf", "spectra.eps"),
                                       ("spectra_eps_negative", "spectra.eps")])
def test_wrong_json_type_names_its_key(tmp_path, capsys, case, key):
    err = _assert_section_exits_2(tmp_path, capsys, *{**NOT_STRICT, **NON_FINITE}[case])
    assert err.startswith(f"error: {key}: expected ") and err.count("\n") == 1


# configs with a section their mode does not read, named mode_section
UNREAD_SECTIONS = {
    "simulate_sweep": simulate_cfg(sweep=5),
    "simulate_verify_null": simulate_cfg(verify=None),
    "simulate_verify_bogus": simulate_cfg(verify={"bogus": 1}),
    "simulate_spectra_null": simulate_cfg(spectra=None),
    "verify_sweep": simulate_cfg(mode="verify", sweep={"D": 2, "seed_count": 1, "horizon": 1.0}),
    "sweep_params": {"schema_version": 1, "mode": "sweep", "sweep": {"D": 2, "seed_count": 1, "horizon": 1.0},
                     "params": {"kind": "nonsense"}},
    "spectra_tokens": {"schema_version": 1, "mode": "spectra", "spectra": {}, "tokens": {"kind": "random", "L": 3, "seed": 2}},
}


@pytest.mark.parametrize("case", sorted(UNREAD_SECTIONS))
def test_section_the_mode_does_not_read_exits_2(tmp_path, monkeypatch, capsys, case):
    cfg = UNREAD_SECTIONS[case]
    if cfg["mode"] == "spectra":
        save_matrix(tmp_path / "eye.txt", np.eye(2))
        cfg = {**cfg, "spectra": {"sets": [dict.fromkeys("QKV", str(tmp_path / "eye.txt"))]}}
    section = case.split("_")[1]
    steps, rk4_step = [], integrate_module.rk4_step
    monkeypatch.setattr(integrate_module, "rk4_step", lambda *args: steps.append(1) or rk4_step(*args))
    (tmp_path / "out").mkdir()
    code, out = run_cli(tmp_path, cfg)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: config: ") and err.count("\n") == 1 and "Traceback" not in err, err
    assert f"a {cfg['mode']} run" in err and section in err.split(", not ")[1], err
    assert os.listdir(out) == [] and steps == []


def test_integral_float_reads_as_integer(tmp_path):
    cfg = simulate_cfg(params={"kind": "random", "D": 2.0, "seed": 1.0}, integrator={"h": 0.01, "T": 0.5, "record_stride": 2.0})
    code, out = run_cli(tmp_path, cfg)
    assert code == 0 and json.loads((out / "summary.json").read_text())["samples"] == 26


def test_integer_reads_as_real(tmp_path):
    outputs = []
    for name, T, scale in (("integers.json", 1, 1), ("reals.json", 1.0, 1.0)):
        code, out = run_cli(tmp_path, simulate_cfg(params={"kind": "random", "D": 2, "seed": 1, "scale": scale},
                                                   integrator={"h": 0.01, "T": T}), name=name)
        assert code == 0 and json.loads((out / "summary.json").read_text())["samples"] == 101
        outputs.append((out / "trajectory.csv").read_bytes())
    assert outputs[0] == outputs[1]


def _block_entries(L, D, samples):
    """The BLOCK_ENTRIES that makes a metrics block hold `samples` samples."""
    return samples * max(L * (L - 1) // 2, (L - 1) * D, D)


STREAMED_RUNS = {
    "vanilla": simulate_cfg(),
    "rotary": simulate_cfg(params=STREAMED_ROTARY, posenc={"kind": "rotary"}),
    "given": simulate_cfg(posenc={"kind": "given", "rows": GIVEN_ROWS}),
    "blowup": simulate_cfg(
        params={"kind": "effective", "W": [[0.5, 0.1], [0.0, 0.4]], "V": [[2.0, 0.0], [0.0, 2.0]]},
        tokens={"kind": "explicit", "rows": [[1.0, 0.2], [0.8, -0.1]]},
        integrator={"h": 0.05, "T": 30.0, "blowup_norm": 1e6}),
    "stride_3": simulate_cfg(integrator={"h": 0.01, "T": 0.5, "record_stride": 3}),
    "single_token": simulate_cfg(tokens={"kind": "random", "L": 1, "seed": 5}),
    # D = 16: the norms' row sums round by memory layout, so a block that is not C-ordered shows here
    "wide_tokens": simulate_cfg(params={"kind": "random", "D": 16, "seed": 3, "scale": 0.5}, tokens={"kind": "random", "L": 5, "seed": 4}),
}


def _count_forks(monkeypatch) -> list:
    forks = []

    def fork(_fork=os.fork):
        forks.append(1)
        return _fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("block", [None, 1, 2, 8], ids=["default", "one_sample", "two_samples", "eight_samples"])
@pytest.mark.parametrize("run", sorted(STREAMED_RUNS))
def test_streamed_simulate_matches_whole_trajectory(tmp_path, monkeypatch, capsys, run, block):
    # the default block holds each whole run, so its rows are written in process; the
    # 1-, 2- and 8-sample blocks make every run multi-block, so a forked writer writes them
    forks = _count_forks(monkeypatch)
    cfg = STREAMED_RUNS[run]
    _, X0, icfg, rhs, _ = _prepare_run(cfg)
    traj = integrate(rhs, X0, icfg)
    write_trajectory_csv(tmp_path / "trajectory.csv", traj)
    write_metrics_csv(tmp_path / "metrics.csv", analyze.trajectory_metrics(traj))
    summary = {"mode": "simulate", "terminated": traj.terminated.value, "blowup_time": traj.blowup_time,
               "regime": analyze.classify_regime(traj).value, "samples": len(traj.times)}
    if block is not None:  # 8 leaves a partial last block on every run (51, 140 or 18 samples)
        monkeypatch.setattr(analyze, "BLOCK_ENTRIES", _block_entries(*X0.shape, block))
    capsys.readouterr()
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    assert capsys.readouterr().out == json.dumps(summary) + "\n"
    assert json.loads((out / "summary.json").read_text()) == summary
    assert sorted(os.listdir(out)) == ["metrics.csv", "summary.json", "trajectory.csv"]
    for name in ("trajectory.csv", "metrics.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name
    assert len(forks) == (block is not None)
    _assert_no_child_left()


def test_simulate_rhs_error_mid_run_leaves_no_csv(tmp_path, monkeypatch, capsys):
    forks = _count_forks(monkeypatch)
    calls = []

    def failing(params, X):
        calls.append(1)
        if len(calls) > 40:  # ten steps in
            raise ContractError("injected failure")
        return rhs_vanilla(params, X)

    monkeypatch.setattr(dynamics, "rhs_vanilla", failing)
    monkeypatch.setattr(analyze, "BLOCK_ENTRIES", _block_entries(3, 2, 2))  # blocks were written before the failure
    code, out = run_cli(tmp_path, simulate_cfg())
    assert code == 3 and "rhs evaluation failed at t=0.1" in capsys.readouterr().err
    assert os.listdir(out) == []
    assert len(forks) == 1  # the rows went to a writer process, which is gone
    _assert_no_child_left()


def _failing_rows(fh, traj):
    raise OSError("injected row failure")


@pytest.mark.parametrize("fork", [True, False], ids=["writer_process", "in_process"])
def test_simulate_row_failure_leaves_no_csv_and_no_child(tmp_path, monkeypatch, capfd, fork):
    # a row writer that fails fails the run with an uncaught OSError in process and in the
    # writer process (there as the child's status, whether or not the parent's next pipe
    # write broke first); either way no CSV and no child process are left
    forks = _count_forks(monkeypatch)
    if not fork:
        monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(cli, "_write_trajectory_rows", _failing_rows)
    monkeypatch.setattr(analyze, "BLOCK_ENTRIES", _block_entries(3, 2, 2))  # 26 blocks
    with pytest.raises(OSError, match="trajectory writer exited with status 1" if fork else "injected row failure"):
        run_cli(tmp_path, simulate_cfg())
    assert ("trajectory writer: OSError('injected row failure')" in capfd.readouterr().err) == fork
    assert os.listdir(tmp_path / "out") == []
    assert len(forks) == fork
    _assert_no_child_left()


def _run_under_forks_that_warn(tmp_path, monkeypatch, cfg, jobs=1):
    """run_cli under warnings-as-errors, with os.fork as Python >= 3.12 has it in a
    process with threads: it warns in the parent, right after the fork. Returns the
    exit code, the children forked, and those still children of this process after
    the run; those are killed and reaped, so that a regression leaves none behind."""
    forks = []

    def fork(_fork=os.fork):
        pid = _fork()
        if pid:
            forks.append(pid)
            warnings.warn("This process is multi-threaded, use of fork() may lead to deadlocks in the child.",
                          DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run_cli(tmp_path, cfg, name="forked.json", jobs=jobs)
    finally:
        left = [pid for pid in forks if _reap(pid)]
    monkeypatch.delattr(os, "fork")
    return code, forks, left


def _reap(pid) -> bool:
    """Whether pid was still a child of this process, running or not yet reaped; it is reaped, killed first if running."""
    try:
        if os.waitpid(pid, os.WNOHANG) == (0, 0):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    except ChildProcessError:
        return False
    return True


def test_simulate_writer_fork_warning_under_warnings_as_errors(tmp_path, monkeypatch):
    # as an error, the fork's warning must neither fail the run nor strand the
    # writer process, and the rows must be those written in process
    monkeypatch.setattr(analyze, "BLOCK_ENTRIES", _block_entries(3, 2, 2))  # 26 blocks
    code, forks, left = _run_under_forks_that_warn(tmp_path, monkeypatch, simulate_cfg())
    assert code == 0 and len(forks) == 1 and left == []
    _assert_no_child_left()
    (tmp_path / "out").rename(tmp_path / "forked")
    assert run_cli(tmp_path, simulate_cfg())[0] == 0
    for name in ("trajectory.csv", "metrics.csv"):
        assert (tmp_path / "forked" / name).read_bytes() == (tmp_path / "out" / name).read_bytes(), name


def test_sweep_pool_fork_warning_under_warnings_as_errors(tmp_path, monkeypatch):
    # as an error, the warning of each worker's fork must neither fail a parallel
    # sweep nor leave a worker running, and the rows must be the serial run's
    cfg = {"schema_version": 1, "mode": "sweep",
           "sweep": {"scenario": "divergence", "D": 2, "seed_start": 3, "seed_count": 4, "horizon": 5.0}}
    code, forks, left = _run_under_forks_that_warn(tmp_path, monkeypatch, cfg, jobs=2)
    assert code == 0 and len(forks) == 2 and left == []
    _assert_no_child_left()
    (tmp_path / "out").rename(tmp_path / "pool")
    assert run_cli(tmp_path, cfg)[0] == 0
    assert (tmp_path / "pool" / "seeds.csv").read_bytes() == (tmp_path / "out" / "seeds.csv").read_bytes()


def _large_simulate_cfg(T):
    return simulate_cfg(params={"kind": "random", "D": 8, "seed": 3, "scale": 0.5},
                        tokens={"kind": "random", "L": 64, "seed": 4},
                        integrator={"h": 0.01, "T": T, "record_stride": 1})


def test_simulate_writer_survives_signals(tmp_path, monkeypatch):
    # a SIGALRM every millisecond, as perfbench's sampler sends them every 50 ms, interrupts
    # the pipe writes of 0.5 MB blocks and the wait for the writer; both carry on
    cfg = _large_simulate_cfg(2.0)  # 201 samples in blocks of 130
    ticks = []
    previous = signal.signal(signal.SIGALRM, lambda *_: ticks.append(1))
    signal.setitimer(signal.ITIMER_REAL, 1e-3, 1e-3)
    try:
        code, out = run_cli(tmp_path, cfg, name="signalled.json")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0 and ticks
    _assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    (tmp_path / "out").rename(tmp_path / "signalled")
    assert run_cli(tmp_path, cfg)[0] == 0
    for name in ("trajectory.csv", "metrics.csv"):
        assert (tmp_path / "signalled" / name).read_bytes() == (tmp_path / "out" / name).read_bytes(), name


def _writer_peak_bytes(tmp_path, T):
    """The row writer's read-and-format loop, run in process on a run's blocks
    saved to a file: its tracemalloc peak."""
    _, X0, icfg, rhs, _ = _prepare_run(_large_simulate_cfg(T))
    traj = integrate(rhs, X0, icfg)
    L, D = X0.shape
    block = analyze.metrics_block_samples(L, D)
    with open(tmp_path / "blocks", "wb") as fh:
        for start in range(0, len(traj.times), block):
            cli._send_block(fh.fileno(), SimpleNamespace(times=traj.times[start:start + block], states=traj.states[start:start + block]))
    tracemalloc.start()
    try:
        cli._write_rows_from(os.open(tmp_path / "blocks", os.O_RDONLY), str(tmp_path / "rows.csv"), L, D, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    write_trajectory_csv(tmp_path / "whole.csv", traj)
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    return peak


def test_writer_memory_independent_of_horizon(tmp_path):
    _writer_peak_bytes(tmp_path, 0.5)  # first-call allocations out of the way
    short, long = _writer_peak_bytes(tmp_path, 2.0), _writer_peak_bytes(tmp_path, 8.0)
    assert abs(long - short) < 0.1 * short, (short, long)


def _simulate_peak_bytes(tmp_path, T):
    cfg = _large_simulate_cfg(T)
    tracemalloc.start()
    try:
        assert run_cli(tmp_path, cfg)[0] == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_independent_of_horizon(tmp_path, capsys):
    _simulate_peak_bytes(tmp_path, 0.5)  # first-call allocations out of the way
    short, long = _simulate_peak_bytes(tmp_path, 2.0), _simulate_peak_bytes(tmp_path, 8.0)
    assert abs(long - short) < 0.1 * short, (short, long)


def test_verify_convergence_scenario(tmp_path):
    cfg = {
        "schema_version": 1,
        "mode": "verify",
        "params": {"kind": "scenario", "scenario": "convergence", "D": 2, "seed": 3, "symmetric": True},
        "tokens": {"kind": "cluster", "L": 4, "seed": 8, "mean_norm": 1.0, "spread": 1e-4},
        "integrator": {"h": 0.005, "T": 30.0},
    }
    code, out = run_cli(tmp_path, cfg)
    report = (out / "report.txt").read_text()
    assert code == 0, report
    assert "PASS norm_collapse" in report
    assert "PASS stationarity_residual" in report
    assert "PASS velocity_decay" in report
    assert "PASS qa_rate_lower_bound" in report
    assert "PASS qa_decay_envelope" in report
    assert "PASS distance_monotonicity_non_increasing" in report
    with open(out / "report.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "name,status,worst_margin,location"


def test_verify_monotonicity_reference_set(tmp_path):
    A = quadspace.sym(GROW_A)
    cfg = {
        "schema_version": 1,
        "mode": "verify",
        "params": {"kind": "effective", "W": GROW_W.tolist(), "A": A.tolist()},
        "tokens": {"kind": "explicit", "rows": GROW_X0.tolist()},
        "integrator": {"h": 0.01, "T": 5.0},
    }
    code, out = run_cli(tmp_path, cfg)
    report = (out / "report.txt").read_text()
    assert "PASS distance_monotonicity_non_decreasing" in report
    assert code == 0, report


def test_verify_divergence_projection_gate(tmp_path):
    cfg = {
        "schema_version": 1,
        "mode": "verify",
        "params": {"kind": "effective", "W": [[0.3, -0.1], [0.2, 0.5]], "V": [[2.0, 0.0], [0.0, 2.0]]},
        "tokens": {"kind": "explicit", "rows": [[0.5, 0.3], [0.9, 0.8], [1.3, 0.6]]},
        "integrator": {"h": 0.01, "T": 12.0},
    }
    code, out = run_cli(tmp_path, cfg)
    report = (out / "report.txt").read_text()
    assert "PASS projection_band" in report
    assert "PASS norm_divergence" in report
    assert "PASS rescaled_hull_containment" in report
    assert code == 0, report


def test_verify_absolute_encoding_checks_pair_laws_on_shifted_state(tmp_path):
    # the absolute field is the plain field acting on y = x + P, so the
    # pair laws hold on y; on x they fail (-1.5e-2 and -3.6 here)
    cfg = {
        "schema_version": 1,
        "mode": "verify",
        "params": {"kind": "scenario", "scenario": "convergence", "D": 4, "seed": 3, "symmetric": True},
        "posenc": {"kind": "sinusoidal"},
        "tokens": {"kind": "cluster", "L": 4, "seed": 2},
        "integrator": {"h": 0.01, "T": 2.0},
    }
    _, out = run_cli(tmp_path, cfg)
    report = (out / "report.txt").read_text()
    assert "PASS distance_monotonicity_non_increasing" in report
    assert "PASS qa_rate_lower_bound" in report
    assert "SKIP projection_band: projection bound not checked under absolute encoding" in report
    assert "SKIP rescaled_hull_containment: hull containment not checked under absolute encoding" in report


def test_verify_rotary_skips_plain_field_laws(tmp_path):
    # criterion 07's reference set: the plain run collapses, the rotary run
    # diverges as predicted, so the plain-field W/A laws are not asserted
    ang = 3.0 * np.pi / 8.0
    X0 = 30.0 * np.array([np.cos(ang), np.sin(ang)]) + 3e-4 * 30.0 * generator(55).standard_normal((6, 2))
    params = {"kind": "matrices", "Q": ROPE_Q.tolist(), "K": ROPE_K.tolist(), "V": (-1.5 * np.eye(2)).tolist(), "dk": 1}
    cfg = {
        "schema_version": 1,
        "mode": "verify",
        "params": params,
        "tokens": {"kind": "explicit", "rows": X0.tolist()},
        "integrator": {"h": 1e-2, "T": 25.0},
    }
    code, out = run_cli(tmp_path, cfg, name="plain.json")
    report = (out / "report.txt").read_text()
    assert code == 0 and "FAIL" not in report, report
    assert "PASS norm_collapse" in report and "PASS distance_monotonicity_non_increasing" in report

    rope = {"Qbar": ROPE_QBAR.tolist(), "Kbar": ROPE_KBAR.tolist()}
    cfg = {**cfg, "params": {**params, "rope": rope}, "posenc": {"kind": "rotary"}}
    code, out = run_cli(tmp_path, cfg, name="rotary.json")
    report = (out / "report.txt").read_text()
    assert code == 0, report
    skipped = [line.split(",")[:2] for line in (out / "report.csv").read_text().splitlines() if "rotary encoding" in line]
    assert skipped == [["distance_monotonicity", "skip"], ["qa_bounds", "skip"], ["norm_collapse", "skip"]], report


def test_verify_singular_value_matrix_skip_reasons(tmp_path):
    cfg = {
        "schema_version": 1,
        "mode": "verify",
        "params": {"kind": "matrices", "Q": np.eye(2).tolist(), "K": np.eye(2).tolist(), "V": [[1.0, 0.0], [0.0, 0.0]]},
        "tokens": {"kind": "random", "L": 3, "seed": 2},
        "integrator": {"h": 0.01, "T": 2.0},
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    assert (out / "report.csv").read_text().splitlines()[2:] == [
        "distance_monotonicity,skip,,V singular; A undefined",
        "qa_bounds,skip,,V singular; A undefined",
        "norm_collapse,skip,,V singular; A undefined",
        "rescaled_hull_containment,skip,,V is not a positive multiple of the identity",
    ]


def test_run_checks_matches_cli_report(tmp_path):
    path = os.path.join(CONFIGS, "verify_divergence.json")
    code = main(["--config", path, "--out", str(tmp_path)])
    assert code == 0
    params, X0, icfg, rhs, P = _prepare_run(load_config(path))
    report = analyze.run_checks(integrate(lambda X: rhs(X), X0, icfg), params, P)
    assert (tmp_path / "report.csv").read_text() == "".join(map(cli._csv_line, [analyze.REPORT_COLUMNS, *report.to_records()]))


def _collapse_lines(text):
    return [line for line in text.splitlines() if line.split(":")[0].split()[-1] in ("norm_collapse", "stationarity_residual", "velocity_decay")]


def test_collapse_group_report_only_under_nonsymmetric_A(tmp_path, capsys):
    # sweep seed 69: sym(A) < 0 and sym(W) > 0, but A is not symmetric and the tokens grow
    # (V has eigenvalues 0.0152 +- 0.822i); the collapse theorem assumes a symmetric A
    cfg = {"schema_version": 1, "mode": "verify", "params": {"kind": "scenario", "scenario": "convergence", "D": 4, "seed": 69},
           "tokens": {"kind": "cluster", "L": 4, "seed": cli._token_seed(69)}, "integrator": {"h": 0.05, "T": 20.0}}
    code, out = run_cli(tmp_path, cfg)
    lines = _collapse_lines(capsys.readouterr().out)
    assert code == 0 and len(lines) == 3 and all(line.endswith("(report only)") for line in lines), lines
    assert lines[0].startswith("FAIL norm_collapse: worst margin -1.0")
    assert (out / "report.txt").read_text().count("(report only)") == 4  # and the pair law


def test_symmetric_collapse_run_not_yet_collapsed_exits_1(tmp_path, capsys):
    # a symmetric A keeps the group asserted: at T = 2 this cluster has not collapsed
    cfg = {"schema_version": 1, "mode": "verify",
           "params": {"kind": "scenario", "scenario": "convergence", "D": 2, "seed": 3, "symmetric": True},
           "tokens": {"kind": "cluster", "L": 4, "seed": 8, "spread": 1e-4}, "integrator": {"h": 0.01, "T": 2.0}}
    code, _ = run_cli(tmp_path, cfg)
    lines = _collapse_lines(capsys.readouterr().out)
    assert code == 1 and len(lines) == 3 and not any("(report only)" in line for line in lines), lines
    assert lines[0].startswith("FAIL norm_collapse: worst margin -9.2")


@pytest.mark.parametrize(
    "verify",
    [{"hull_tol": "abc"}, {"hull_tol": -1e-4}, {"hull_tol": None}, {"hull_tol": float("inf")}, {"hull_tol": True}, 5,
     {"hul_tol": 1e-3}],
    ids=["string", "negative", "null", "infinite", "bool", "not_an_object", "misspelt"],
)
def test_verify_malformed_tolerance_exits_2(tmp_path, monkeypatch, capsys, verify):
    with open(os.path.join(CONFIGS, "verify_divergence.json")) as fh:
        cfg = json.load(fh)
    code, _ = run_cli(tmp_path, {**cfg, "verify": {"monotonicity_tol": None, "qa_rate_tol": None, "hull_tol": 1e-3}}, name="ok.json")
    assert code == 0  # null picks the formula default where there is one
    capsys.readouterr()
    steps, rk4_step = [], integrate_module.rk4_step
    monkeypatch.setattr(integrate_module, "rk4_step", lambda *args: steps.append(1) or rk4_step(*args))
    code, _ = run_cli(tmp_path, {**cfg, "verify": verify})
    assert code == 2 and capsys.readouterr().err.startswith("error: verify")
    assert steps == []  # the section is read before the run integrates


def test_sweep_unknown_scenario_exits_2(tmp_path):
    cfg = {"schema_version": 1, "mode": "sweep", "sweep": {"scenario": "bogus", "D": 2, "seed_count": 1}}
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2


@pytest.mark.parametrize(
    "bad",
    [{"D": 1}, {"h_cap": 0.0}, {"h_cap": float("inf")}, {"blowup_norm": -1.0}, {"horizon": 0.0}, {"t_max": float("nan")},
     {"tokens": {"kind": "cluster", "L": 3, "seed": 5}},  # each sweep seed derives its own token seed
     {"seed_start": -1}, {"seed_start": -8_000_000}],  # seeds and token seeds must be >= 0
    ids=["D_1", "h_cap_0", "h_cap_inf", "blowup_norm_negative", "horizon_0", "t_max_nan", "tokens_seed",
         "seed_start_negative", "seed_start_below_token_offset"],
)
def test_sweep_out_of_range_value_exits_2(tmp_path, capsys, bad):
    cfg = {"schema_version": 1, "mode": "sweep", "sweep": {"scenario": "convergence", "D": 2, "seed_count": 1, **bad}}
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2 and capsys.readouterr().err.startswith("error: sweep")


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "tokens, message",
    [({"kind": "bogus"}, "sweep.tokens.kind must be one of explicit/random/cluster, got 'bogus'"),
     ({"kind": "cluster", "L": 3, "D": 4}, "sweep.tokens: unknown keys ['D']"),
     ({"kind": "explicit", "rows": [[0.1, 0.2], [0.3, 0.4]]},
      "sweep.tokens: kind explicit takes no seed, but a sweep draws each seed's tokens (random or cluster)")],
    ids=["bad_kind", "unknown_key", "explicit"],
)
def test_sweep_tokens_checked_before_any_run(tmp_path, monkeypatch, capsys, tokens, message, jobs):
    # the section is built once with the plan, before a seed's parameters are
    # drawn, a step is taken or a worker is started
    _assert_sweep_exits_2_before_any_run(tmp_path, monkeypatch, capsys, {"tokens": tokens}, message, jobs)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "section, message",
    [({"scenario": "convergence", "scale": 2.0}, "sweep.scale: scenario convergence takes no scale"),
     ({"scenario": "random", "symmetric": True}, "sweep.symmetric: scenario random takes no symmetric")],
    ids=["scale_with_scenario", "symmetric_with_random"],
)
def test_sweep_key_the_scenario_does_not_take_exits_2(tmp_path, monkeypatch, capsys, section, message, jobs):
    # random_params takes a scale and a named scenario symmetric: the other key
    # is rejected with the plan, not read and dropped
    _assert_sweep_exits_2_before_any_run(tmp_path, monkeypatch, capsys, section, message, jobs)


def _assert_sweep_exits_2_before_any_run(tmp_path, monkeypatch, capsys, section, message, jobs):
    """A two-seed sweep with section merged in exits 2 with the one line message,
    before any parameter draw, RK4 step or pool worker."""
    import concurrent.futures

    steps, drawn, pools, rk4_step = [], [], [], integrate_module.rk4_step
    monkeypatch.setattr(integrate_module, "rk4_step", lambda *args: steps.append(1) or rk4_step(*args))
    monkeypatch.setattr(cli, "random_params", lambda *args, **kwargs: drawn.append(1) or random_params(*args, **kwargs))
    monkeypatch.setattr(cli, "build_scenario", lambda *args, **kwargs: drawn.append(1) or build_scenario(*args, **kwargs))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda *args, **kwargs: pools.append(1))
    cfg = {"schema_version": 1, "mode": "sweep", "sweep": {"D": 2, "seed_count": 2, "horizon": 1.0, **section}}
    code, _ = run_cli(tmp_path, cfg, jobs=jobs)
    assert code == 2 and capsys.readouterr().err == f"error: {message}\n"
    assert steps == [] and drawn == [] and pools == []


def test_omitted_keys_take_library_defaults(monkeypatch):
    # move every library default a config may leave out: a CLI that kept a
    # copy of one would not follow
    monkeypatch.setattr(IntegratorConfig.__init__, "__defaults__", (0.02, 3.0, 2, 1e6))
    monkeypatch.setattr(random_params, "__defaults__", (0.5,))
    monkeypatch.setattr(ScenarioSpec.__init__, "__defaults__", (True,))
    monkeypatch.setattr(RopeParams.__init__, "__defaults__", (500.0, None))
    assert build_integrator({}) == IntegratorConfig(h=0.02, T=3.0, record_stride=2, blowup_norm=1e6)
    assert build_params({"kind": "random", "D": 3, "seed": 1}).Q.tobytes() == random_params(3, 1, 0.5).Q.tobytes()
    scenario = build_params({"kind": "scenario", "scenario": "convergence", "D": 3, "seed": 1})
    assert scenario.V.tobytes() == build_scenario(ScenarioSpec(Scenario.CONVERGENCE, 3, 1, True)).V.tobytes()
    eye = np.eye(2).tolist()
    assert build_params({"kind": "matrices", "Q": eye, "K": eye, "V": eye, "rope": {"Qbar": eye, "Kbar": eye}}).rope.theta_base == 500.0

    plan = build_sweep_plan({"D": 2, "seed_count": 1})
    assert (plan.seed_start, plan.params, plan.horizon, plan.h_cap, plan.t_max) == (0, {"kind": "random", "D": 2}, None, 5e-2, 1500.0)
    assert plan.tokens == {"kind": "cluster", "L": 4}
    blowup_norms = []
    monkeypatch.setattr(cli, "integrate", lambda rhs, X0, icfg: blowup_norms.append(icfg.blowup_norm) or integrate(rhs, X0, icfg))
    for section, given in (({"D": 2}, {"scale": 0.5, "blowup_norm": 1e6}),
                           ({"scenario": "convergence", "D": 2}, {"symmetric": True, "blowup_norm": 1e6})):
        omitted, explicit = (_sweep_one((build_sweep_plan({**section, "seed_count": 1, "horizon": 1.0, **extra}), 3, 4))
                             for extra in ({}, given))
        assert omitted == explicit
    assert blowup_norms == [1e6] * 4


def test_sweep_small_range(tmp_path):
    cfg = {
        "schema_version": 1,
        "mode": "sweep",
        "sweep": {"scenario": "divergence", "D": 3, "seed_start": 0, "seed_count": 5, "horizon": "auto"},
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    with open(out / "seeds.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert all(r["regime"] == "diverged" for r in rows)
    with open(out / "summary.csv") as fh:
        summary = list(csv.DictReader(fh))
    assert summary[0]["pos_eigs_Wsym"] == "3"
    assert summary[0]["pos_eigs_Asym"] == "3"
    assert float(summary[0]["diverged_rate"]) == 1.0


@pytest.mark.parametrize("tokens", [{"kind": "cluster", "L": 3, "mean_norm": 0.0}, {"kind": "random", "L": 3, "scale": 0.0}],
                         ids=["cluster", "random"])
def test_sweep_zero_start_has_no_norm_ratio(tmp_path, tokens):
    # tokens that start at zero stay there: the run exits 0, the end/start ratio of mean norms is nan,
    # not 0, and neither regime threshold is met
    sweep = {"scenario": "convergence", "D": 2, "seed_start": 0, "seed_count": 2, "horizon": 1.0, "tokens": tokens}
    code, out = run_cli(tmp_path, {"schema_version": 1, "mode": "sweep", "sweep": sweep})
    assert code == 0
    with open(out / "seeds.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert [r["mean_norm_ratio"] for r in rows] == ["nan", "nan"]
    assert [r["regime"] for r in rows] == ["undecided", "undecided"]


@pytest.mark.parametrize("posenc", [None, {"kind": "sinusoidal"}], ids=["vanilla", "sinusoidal"])
def test_simulate_zero_start_is_undecided(tmp_path, capsys, posenc):
    # three tokens at zero: the vanilla field keeps them there, the sinusoidal one moves them (mean
    # norm 0 -> 0.027); with no norm ratio neither run has a regime
    cfg = simulate_cfg(tokens={"kind": "random", "L": 3, "seed": 2, "scale": 0.0}, integrator={"h": 0.01, "T": 0.05})
    if posenc is not None:
        cfg["posenc"] = posenc
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["regime"] == "undecided"
    with open(out / "metrics.csv") as fh:
        norms = [float(r["mean_norm"]) for r in csv.DictReader(fh)]
    assert norms[0] == 0.0 and (norms[-1] > 0.02 if posenc else norms[-1] == 0.0)


def test_sweep_rows_independent_of_window(tmp_path):
    sweep = {"scenario": "convergence", "D": 2, "seed_start": 0, "seed_count": 4, "horizon": 10.0}
    cfg = {"schema_version": 1, "mode": "sweep", "sweep": sweep}
    code_all, out = run_cli(tmp_path, cfg, name="all.json")
    rows_all = (out / "seeds.csv").read_text().splitlines()
    code_tail, out = run_cli(tmp_path, {**cfg, "sweep": {**sweep, "seed_start": 2, "seed_count": 2}}, name="tail.json")
    rows_tail = (out / "seeds.csv").read_text().splitlines()
    assert code_all == code_tail == 0
    assert rows_all[3:] == rows_tail[1:]


def test_sweep_steps_from_rk4_region(tmp_path):
    # D = 4 seed 1: the convergence draw has a stiff decaying mode (-44.9), the
    # divergence draw none, where stable_step would still cut h to 0.012
    for scenario, stiff in (("convergence", True), ("divergence", False)):
        sweep = {"scenario": scenario, "D": 4, "seed_start": 1, "seed_count": 1, "horizon": 1.0}
        code, out = run_cli(tmp_path, {"schema_version": 1, "mode": "sweep", "sweep": sweep}, name=f"{scenario}.json")
        assert code == 0
        with open(out / "seeds.csv") as fh:
            (row,) = csv.DictReader(fh)
        V = build_scenario(ScenarioSpec(Scenario(scenario), 4, 1)).V
        assert float(row["h"]) == 1.0 / math.ceil(1.0 / region_step(V, cap=5e-2))  # the horizon in whole steps
        assert (float(row["h"]) < 5e-2) is stiff
        assert stable_step(V, cap=5e-2) < 5e-2


@pytest.mark.parametrize("horizon", [1.0, 2.34, "auto"])
def test_sweep_runs_end_at_their_horizon(monkeypatch, horizon):
    # seeds 1 and 15: a stiff decaying mode sets region_step below the cap; seeds 0 and 2: the cap
    trajs = []
    monkeypatch.setattr(cli, "integrate", lambda rhs, X0, icfg: trajs.append(integrate(rhs, X0, icfg)) or trajs[-1])
    plan = build_sweep_plan({"scenario": "convergence", "D": 4, "seed_count": 1, "horizon": horizon})
    for seed in (0, 1, 2, 15):
        row = _sweep_one((plan, seed, 4))
        V = build_scenario(ScenarioSpec(Scenario.CONVERGENCE, 4, seed)).V
        assert row["h"] <= region_step(V, cap=5e-2) and row["terminated"] == "horizon_reached"
        assert abs(trajs[-1].times[-1] - row["T"]) <= 2 * np.finfo(float).eps * row["T"]


def test_sweep_records_mean_mode_growth_rate(tmp_path):
    sweep = {"scenario": "convergence", "D": 3, "seed_start": 0, "seed_count": 3, "horizon": 1.0}
    code, out = run_cli(tmp_path, {"schema_version": 1, "mode": "sweep", "sweep": sweep})
    assert code == 0
    with open(out / "seeds.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0])[-1] == "max_re_eig_V"
    for row in rows:
        V = build_scenario(ScenarioSpec(Scenario.CONVERGENCE, 3, int(row["seed"]))).V
        assert float(row["max_re_eig_V"]) == np.linalg.eigvals(V.T).real.max()


def test_module_entry_point_warns_nothing():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(attnsim.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "attnsim.cli", "--help"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_package_entry_point_runs_cli():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(attnsim.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "attnsim", "--help"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("usage: attnsim")


def test_numpy_warnings_stay_off_stderr(tmp_path):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(attnsim.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    overflow = simulate_cfg(params={"kind": "effective", "W": np.eye(2).tolist(), "V": (2 * np.eye(2)).tolist()},
                            tokens={"kind": "explicit", "rows": [[1.0, 0.2], [0.8, -0.1]]},
                            integrator={"h": 0.05, "T": 400.0, "blowup_norm": float("inf")})  # logits overflow near t = 177
    for i in range(2):
        save_matrix(tmp_path / f"q{i}.txt", generator(i).standard_normal((3, 3)))
    save_matrix(tmp_path / "zero.txt", np.zeros((3, 3)))
    singular = {"schema_version": 1, "mode": "spectra",
                "spectra": {"sets": [{"Q": str(tmp_path / "q0.txt"), "K": str(tmp_path / "q1.txt"), "V": str(tmp_path / "zero.txt")}] * 2}}
    for name, cfg, code, stderr in (("overflow", overflow, 3, "error: rhs evaluation failed at t=177.45\n"),
                                    ("singular", singular, 0, "")):
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        proc = subprocess.run([sys.executable, "-m", "attnsim", "--config", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (code, stderr)


# Import the package and run the CLI in-process on the shipped configs,
# printing the scipy modules loaded after the import and after each run.
NUMPY_ONLY_CHILD = r"""
import contextlib, io, json, os, sys
import attnsim, attnsim.cli
scipy_loaded = lambda: sorted(m for m in sys.modules if m.startswith("scipy"))
seen = {"import": scipy_loaded()}
out = sys.argv[1]
for path in sys.argv[2:]:
    with open(path) as fh:
        cfg = json.load(fh)
    if cfg["mode"] == "sweep":
        cfg["sweep"]["seed_count"] = 2  # runs the code all 100 seeds run, in seconds
    run = os.path.join(out, os.path.basename(path))
    with open(run, "w") as fh:
        json.dump(cfg, fh)
    with contextlib.redirect_stdout(io.StringIO()):
        code = attnsim.cli.main(["--config", run, "--out", run + ".out", "--jobs", "1"])
    seen[os.path.basename(path)] = [code, scipy_loaded()]
print(json.dumps(seen))
"""


def test_runtime_loads_no_scipy(tmp_path):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(attnsim.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    names = ("verify_divergence.json", "simulate_collapse.json", "sweep_convergence.json")
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_CHILD, str(tmp_path), *(os.path.join(CONFIGS, n) for n in names)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen == {"import": [], **{n: [0, []] for n in names}}


def test_cli_import_loads_no_process_pool():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(attnsim.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = "import sys, attnsim, attnsim.cli; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sweep_empty_range_rejected(tmp_path):
    cfg = {"schema_version": 1, "mode": "sweep", "sweep": {"D": 3, "seed_count": 0}}
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = {
        "schema_version": 1,
        "mode": "sweep",
        "sweep": {"scenario": "divergence", "D": 2, "seed_start": 3, "seed_count": 4, "horizon": 20.0},
    }
    code1, out1 = run_cli(tmp_path, cfg, name="serial.json")
    rows1 = (out1 / "seeds.csv").read_text()
    code2, out2 = run_cli(tmp_path, cfg, name="parallel.json", jobs=2)
    rows2 = (out2 / "seeds.csv").read_text()
    assert code1 == code2 == 0
    assert rows1 == rows2


class _RecordingPool:
    """A ProcessPoolExecutor stand-in that records its max_workers and maps in process."""

    def __init__(self, seen, max_workers):
        seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("seed_count, jobs, pools", [(1, 4, []), (3, 4, [3]), (3, 2, [2]), (3, 1, [])])
def test_sweep_pool_holds_no_more_workers_than_seeds(tmp_path, monkeypatch, seed_count, jobs, pools):
    # the pool forks every worker at its first submit, so it gets min(jobs, seeds)
    # of them, and a one-seed sweep none; the rows are the serial run's
    import concurrent.futures

    seen = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda max_workers: _RecordingPool(seen, max_workers))
    cfg = {"schema_version": 1, "mode": "sweep",
           "sweep": {"scenario": "divergence", "D": 2, "seed_start": 3, "seed_count": seed_count, "horizon": 5.0}}
    code, out = run_cli(tmp_path, cfg, jobs=jobs)
    rows = (out / "seeds.csv").read_bytes()
    assert code == run_cli(tmp_path, cfg)[0] == 0 and seen == pools
    assert rows == (out / "seeds.csv").read_bytes()


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    cfg = {"schema_version": 1, "mode": "sweep", "sweep": {"D": 2, "seed_count": 1, "horizon": 1.0}}
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, cfg, jobs=jobs)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: attnsim") and err.endswith(f"error: argument --jobs: must be at least 1, got {jobs}\n")


def test_spectra_from_files(tmp_path):
    rng = generator(99)
    sets = []
    for i in range(3):
        entry = {}
        for name in ("Q", "K", "V"):
            path = tmp_path / f"{name}_{i}.txt"
            save_matrix(path, rng.standard_normal((4, 4)))
            entry[name] = str(path)
        sets.append(entry)
    # third set: singular V
    save_matrix(tmp_path / "V_2.txt", np.zeros((4, 4)))
    cfg = {"schema_version": 1, "mode": "spectra", "spectra": {"sets": sets, "eps": 1e-3}}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    lines = (out / "spectra.csv").read_text().splitlines()
    assert lines[0] == "set,pct_pos_Wsym,pct_pos_Asym,pct_near_zero_V,singular_V"
    assert len([l for l in lines if l.startswith("aggregate_")]) == 3
    row2 = lines[3].split(",")
    assert row2[0] == "2" and float(row2[3]) == 100.0 and row2[4] == "1"


def test_unreadable_inputs_exit_2_without_traceback(tmp_path, capsys):
    # each failure is one "error: <section or key>: ..." line from main, not an exception
    (tmp_path / "bad.json").write_text('{"schema_version": 1,')
    (tmp_path / "latin1.json").write_bytes(b'{"mode": "\xff"}')
    (tmp_path / "q.txt").mkdir()  # a directory where a matrix file is expected
    save_matrix(tmp_path / "k.txt", np.eye(2))
    spectra = {"schema_version": 1, "mode": "spectra",
               "spectra": {"sets": [{"Q": str(tmp_path / "q.txt"), "K": str(tmp_path / "k.txt"), "V": str(tmp_path / "k.txt")}]}}
    (tmp_path / "spectra.json").write_text(json.dumps(spectra))
    for path in (0, 7):  # not paths: 0 would read stdin, 7 a file descriptor that is not open
        spectra["spectra"]["sets"][0]["Q"] = path
        (tmp_path / f"spectra_{path}.json").write_text(json.dumps(spectra))
    (tmp_path / "simulate.json").write_text(json.dumps(simulate_cfg()))
    (tmp_path / "file").write_text("")  # a file where the output directory is expected
    out = str(tmp_path / "out")
    for name, out_dir, prefix in (("missing.json", out, "error: config: "), ("bad.json", out, "error: config: "),
                                  ("latin1.json", out, "error: config: "), ("spectra.json", out, "error: spectra.sets[0].Q: "),
                                  ("spectra_0.json", out, "error: spectra.sets[0].Q: "),
                                  ("spectra_7.json", out, "error: spectra.sets[0].Q: "),
                                  ("simulate.json", str(tmp_path / "file"), "error: --out: ")):
        assert main(["--config", str(tmp_path / name), "--out", out_dir]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1 and "Traceback" not in err, (name, err)


# V has eigenvalues 0.5, -2 and -3: a matrix exponential e^{-tV} n would grow
# the rounding of the computed eigenvector along the contracting modes by
# up to e^{3t}, enough to fail the band (margin -78 at t = 11.95)
CONTRACTING_VERIFY = {
    "schema_version": 1, "mode": "verify",
    "params": {"kind": "effective", "W": [[0.3, 0.1, 0.0], [0.0, 0.2, 0.1], [0.1, 0.0, 0.3]],
               "V": [[-0.952557, 1.724537, 0.0], [1.724537, -1.547443, 0.0], [0.0, 0.0, -2.0]]},
    "tokens": {"kind": "explicit", "rows": [[1.0, 0.2, 0.5], [-0.4, 0.9, -0.3]]},
    "integrator": {"h": 0.01, "T": 12.0},
}


def test_verify_projection_band_passes_with_contracting_modes(tmp_path, capsys):
    code, out = run_cli(tmp_path, CONTRACTING_VERIFY)
    assert code == 0
    assert "PASS projection_band" in capsys.readouterr().out
    assert (out / "report.csv").read_text().splitlines()[1].startswith("projection_band,pass,")


def test_spectra_missing_file_exits_2(tmp_path):
    cfg = {
        "schema_version": 1,
        "mode": "spectra",
        "spectra": {"sets": [{"Q": str(tmp_path / "nope.txt"), "K": str(tmp_path / "nope.txt"), "V": str(tmp_path / "nope.txt")}]},
    }
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2

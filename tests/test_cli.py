import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import attnsim
from attnsim import analyze, quadspace
from attnsim.cli import _fmt, _prepare_run, load_config, main, write_trajectory_csv
from attnsim.dynamics import rhs_vanilla
from attnsim.integrate import IntegratorConfig, Termination, Trajectory, integrate
from attnsim.params import generator, params_from_w_and_v, random_params, save_matrix

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
def test_section_not_an_object_exits_2(tmp_path, section):
    code, _ = run_cli(tmp_path, simulate_cfg(**{section: 5}))
    assert code == 2


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
    traj = integrate(lambda t, X: rhs_vanilla(p, X), X0, IntegratorConfig(h=0.01, T=0.5))
    parsed = np.array([[float(r["x_0"]), float(r["x_1"])] for r in rows]).reshape(len(traj.times), 3, 2)
    np.testing.assert_array_equal(parsed, traj.states)

    with open(out / "metrics.csv") as fh:
        mrows = list(csv.DictReader(fh))
    assert len(mrows) == len(traj.times)


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


def test_trajectory_writer_bytes_match_oracle(tmp_path):
    rng = np.random.default_rng(8)
    special = np.array(SPECIAL_FLOATS)
    states = rng.standard_normal((3, 5, len(special))) * 10.0 ** rng.uniform(-300, 300, (3, 5, 1))
    states[1, 2] = special
    states[2, :, 0] = special[:5]
    edge = Trajectory(times=np.array([-0.0, 5e-324, 0.1]), states=states, terminated=Termination.HORIZON_REACHED,
                      config=IntegratorConfig(h=0.1, T=0.2), blowup_time=None)
    stride = integrate(lambda t, X: rhs_vanilla(random_params(3, 6), X), rng.standard_normal((4, 3)),
                       IntegratorConfig(h=0.01, T=0.5, record_stride=3))
    blow = params_from_w_and_v(np.array([[0.5, 0.1], [0.0, 0.4]]), 2.0 * np.eye(2))
    blowup = integrate(lambda t, X: rhs_vanilla(blow, X), np.array([[1.0, 0.2], [0.8, -0.1]]),
                       IntegratorConfig(h=0.01, T=30.0, blowup_norm=1e6))
    assert blowup.terminated is Termination.BLOW_UP
    for name, traj in (("edge", edge), ("stride", stride), ("blowup", blowup)):
        write_trajectory_csv(tmp_path / f"{name}.csv", traj)
        write_trajectory_loop(tmp_path / f"{name}_oracle.csv", traj)
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_oracle.csv").read_bytes(), name


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
        "rescaled_hull_containment,skip,,V is not a positive multiple of the identity",
    ]


def test_run_checks_matches_cli_report(tmp_path):
    path = os.path.join(CONFIGS, "verify_divergence.json")
    code = main(["--config", path, "--out", str(tmp_path)])
    assert code == 0
    params, X0, icfg, rhs, P = _prepare_run(load_config(path))
    report = analyze.run_checks(integrate(lambda t, X: rhs(X), X0, icfg), params, P)
    assert (tmp_path / "report.csv").read_text().splitlines()[1:] == report.to_records()


@pytest.mark.parametrize(
    "verify",
    [{"hull_tol": "abc"}, {"hull_tol": -1e-4}, {"hull_tol": None}, {"hull_tol": float("inf")}, {"hull_tol": True}, 5],
    ids=["string", "negative", "null", "infinite", "bool", "not_an_object"],
)
def test_verify_malformed_tolerance_exits_2(tmp_path, verify):
    with open(os.path.join(CONFIGS, "verify_divergence.json")) as fh:
        cfg = json.load(fh)
    code, _ = run_cli(tmp_path, {**cfg, "verify": {"monotonicity_tol": None, "qa_rate_tol": None, "hull_tol": 1e-3}}, name="ok.json")
    assert code == 0  # null picks the formula default where there is one
    code, _ = run_cli(tmp_path, {**cfg, "verify": verify})
    assert code == 2


def test_sweep_unknown_scenario_exits_2(tmp_path):
    cfg = {"schema_version": 1, "mode": "sweep", "sweep": {"scenario": "bogus", "D": 2, "seed_count": 1}}
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2


@pytest.mark.parametrize(
    "bad", [{"D": 1}, {"h_cap": 0.0}, {"blowup_norm": -1.0}, {"horizon": 0.0}, {"t_max": float("nan")}],
    ids=["D_1", "h_cap_0", "blowup_norm_negative", "horizon_0", "t_max_nan"],
)
def test_sweep_out_of_range_value_exits_2(tmp_path, bad):
    cfg = {"schema_version": 1, "mode": "sweep", "sweep": {"scenario": "convergence", "D": 2, "seed_count": 1, **bad}}
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2


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


def test_sweep_rows_independent_of_window(tmp_path):
    sweep = {"scenario": "convergence", "D": 2, "seed_start": 0, "seed_count": 4, "horizon": 10.0}
    cfg = {"schema_version": 1, "mode": "sweep", "sweep": sweep}
    code_all, out = run_cli(tmp_path, cfg, name="all.json")
    rows_all = (out / "seeds.csv").read_text().splitlines()
    code_tail, out = run_cli(tmp_path, {**cfg, "sweep": {**sweep, "seed_start": 2, "seed_count": 2}}, name="tail.json")
    rows_tail = (out / "seeds.csv").read_text().splitlines()
    assert code_all == code_tail == 0
    assert rows_all[3:] == rows_tail[1:]


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


def test_spectra_missing_file_exits_2(tmp_path):
    cfg = {
        "schema_version": 1,
        "mode": "spectra",
        "spectra": {"sets": [{"Q": str(tmp_path / "nope.txt"), "K": str(tmp_path / "nope.txt"), "V": str(tmp_path / "nope.txt")}]},
    }
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2

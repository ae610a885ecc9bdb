import csv
import json
import os
import subprocess
import sys

import numpy as np

import attnsim
from attnsim import quadspace
from attnsim.cli import main
from attnsim.params import generator, save_matrix

from cases import GROW_A, GROW_W, GROW_X0


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
    configs = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
    names = ("verify_divergence.json", "simulate_collapse.json", "sweep_convergence.json")
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_CHILD, str(tmp_path), *(os.path.join(configs, n) for n in names)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen == {"import": [], **{n: [0, []] for n in names}}


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

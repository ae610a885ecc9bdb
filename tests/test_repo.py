"""Checks that tie the package to the files around it: the README's library
session, the attribute names perfbench's tracer wraps, the builders
perfbench's set-up child calls, and a sample of the committed run digests."""

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from attnsim import analyze, cli, dynamics, integrate, params, quadspace

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_session_converges():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"A minimal library session.*?```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().strip() == "Regime.CONVERGED"


def test_perfbench_trace_sites_resolve():
    # read spans.py only; the tracer is never started
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    sites = [site for _, group, _ in spans.SITES for site in group]
    assert sites
    for module, attribute in sites:
        target = getattr(importlib.import_module(f"attnsim.{module}"), attribute, None)
        assert callable(target), f"perfbench traces attnsim.{module}.{attribute}, which is missing"


def _imported_modules(tree):
    """Every module an attnsim source file's imports name, relative ones under attnsim."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["attnsim" if node.level else None, node.module]))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_only_the_entry_points_import_the_cli():
    # the library does not reach back into the CLI: the CLI parses, runs the library and writes
    importers = {path.name for path in (ROOT / "src" / "attnsim").glob("*.py")
                 if "attnsim.cli" in _imported_modules(ast.parse(path.read_text()))}
    assert importers - {"cli.py"} == {"__main__.py"}


def test_perfbench_setup_child_builds_shipped_configs():
    # perfbench's setup_s runs this child on every config it builds; run it
    # here (read from run.py, not imported) so that a renamed builder fails
    # the suite instead of a benchmark run
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    child = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SETUP_CHILD"])
    paths = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", child, *map(str, sorted((ROOT / "configs").glob("*.json")))],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=paths), cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert {"import_s", "build_s"} <= set(json.loads(proc.stdout.splitlines()[-1]))


SIMULATE = {"schema_version": 1, "mode": "simulate", "params": {"kind": "random", "D": 2, "seed": 1},
            "tokens": {"kind": "random", "L": 3, "seed": 2}, "integrator": {"h": 0.05, "T": 0.2}}
ROTARY_PARAMS = {"kind": "matrices", "Q": [[1.0, 0.0], [0.0, 1.0]], "K": [[0.5, 0.0], [0.0, 0.5]], "V": [[-1.0, 0.0], [0.0, -1.0]],
                 "rope": {"Qbar": [[1.0, 0.0], [0.0, 1.0]], "Kbar": [[1.0, 0.0], [0.0, 1.0]]}}
TRACED_RUNS = {
    "vanilla": (SIMULATE, ["integrate.rk4_step", "dynamics.rhs_vanilla", "analyze.trajectory_metrics"]),
    "rotary": ({**SIMULATE, "params": ROTARY_PARAMS, "posenc": {"kind": "rotary"}},
               ["integrate.rk4_step", "dynamics.rhs_rotary", "analyze.trajectory_metrics"]),
    "given": ({**SIMULATE, "posenc": {"kind": "given", "rows": [[0.1, 0.0], [0.0, 0.1], [0.2, -0.1]]}},
              ["integrate.rk4_step", "dynamics.rhs_vanilla", "analyze.trajectory_metrics"]),
    "sweep": ({"schema_version": 1, "mode": "sweep", "sweep": {"scenario": "convergence", "D": 4, "seed_count": 1, "horizon": 1.0}},
              ["integrate.rk4_step", "cli.rhs_vanilla"]),
    # configs/verify_divergence.json (V = 2I), blowing up at t = 0.21 so that norm_divergence passes; the hull check runs
    "verify": ({**json.loads((ROOT / "configs" / "verify_divergence.json").read_text()),
                "integrator": {"h": 0.01, "T": 1.0, "blowup_norm": 2.0}},
               ["integrate.rk4_step", "cli.run_checks", "quadspace.simplex_distance"]),
}


@pytest.mark.parametrize("run", sorted(TRACED_RUNS))
def test_cli_runs_through_traced_names(tmp_path, monkeypatch, run):
    # perfbench's per-layer rows count calls by replacing these attributes;
    # a CLI path that bypasses them would leave those rows at 0
    counts = {}
    for module, name in ((integrate, "rk4_step"), (dynamics, "rhs_vanilla"), (cli, "rhs_vanilla"), (dynamics, "rhs_rotary"),
                         (analyze, "trajectory_metrics"), (cli, "run_checks"), (quadspace, "simplex_distance")):
        key = f"{module.__name__.split('.')[-1]}.{name}"

        def counted(*args, _fn=getattr(module, name), _key=key, **kwargs):
            counts[_key] = counts.get(_key, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    cfg, expected = TRACED_RUNS[run]
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "out")]) == 0
    for key in expected:
        assert counts.get(key, 0) > 0, f"{run}: no call went through {key}"


def _digests_module(monkeypatch):
    """tools/digests.py, loaded with its changes to sys.path and the BLAS
    thread variables undone after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the module puts src/ and perfbench/ first
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))  # the module sets unset ones to 1
    spec = importlib.util.spec_from_file_location("digests", ROOT / "tools" / "digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    return digests


def test_committed_digests_hold_for_a_sample(tmp_path, monkeypatch):
    # perfbench member 0 of each workload, the two short configs/*.json and
    # the coverage runs, rerun in process as tools/digests.py --check reruns
    # all 533 runs (that takes about a minute and a half; this, a few seconds)
    digests = _digests_module(monkeypatch)
    want = json.loads((ROOT / "DIGESTS.json").read_text())
    env = digests.environment()
    differing = sorted(key for key in env.keys() | want["environment"].keys() if env.get(key) != want["environment"].get(key))
    if differing:
        pytest.skip(f"environment differs from the recorded one in {', '.join(differing)}")
    paths = {**digests.member_runs(str(tmp_path), member=0), **digests.coverage_runs(str(tmp_path))}
    for name in ("simulate_collapse.json", "verify_divergence.json"):
        paths[f"configs/{name}"] = str(ROOT / "configs" / name)
    changed = [key for key, path in sorted(paths.items()) if digests.run(path)[0] != want["runs"][key]]
    assert changed == []


def test_shipped_runs_raise_no_numpy_warning(tmp_path, monkeypatch):
    # the shipped simulate and verify configs, a two-seed sweep, a verify run
    # that trips the blow-up guard and the digest tool's coverage runs, in
    # process with every warning an error: a numpy warning on a hot path
    # fails here instead of reaching stderr
    verify = json.loads((ROOT / "configs" / "verify_divergence.json").read_text())
    sweep = json.loads((ROOT / "configs" / "sweep_convergence.json").read_text())
    runs = {
        "simulate_collapse": json.loads((ROOT / "configs" / "simulate_collapse.json").read_text()),
        "verify_divergence": verify,
        "sweep_two_seeds": {**sweep, "sweep": {**sweep["sweep"], "seed_count": 2}},
        "verify_blow_up": {**verify, "integrator": {"h": 0.01, "T": 1.0, "blowup_norm": 2.0}},
    }
    paths = {name: str(tmp_path / f"{name}.json") for name in runs}
    for name, cfg in runs.items():
        Path(paths[name]).write_text(json.dumps(cfg))
    paths.update(_digests_module(monkeypatch).coverage_runs(str(tmp_path)))
    for name, path in paths.items():
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = cli.main(["--config", path, "--out", str(tmp_path / name.replace("/", "-"))])
        assert code == 0, name
    _, X0, icfg, rhs, _ = cli._prepare_run(runs["verify_blow_up"])
    assert integrate.integrate(rhs, X0, icfg).terminated is integrate.Termination.BLOW_UP
    # a library call outside integrate's errstate, on finite logits (4e154) whose squares overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dx = dynamics.rhs_vanilla(params.params_from_w_and_v(np.eye(2), -np.eye(2)), 2e77 * np.eye(2))
    assert np.array_equal(dx, -2e77 * np.eye(2))

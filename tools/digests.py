"""Record, or check, the digest of every benchmark and configs/*.json run.

    python3 tools/digests.py            # write DIGESTS.json
    python3 tools/digests.py --check    # rerun and compare with DIGESTS.json

Run from anywhere in a full checkout; attnsim is imported from its src/.
The runs are every operation of every perfbench member (perfbench/
reference.json; configs from perfbench/workloads.py), the three
configs/*.json and ten coverage runs (coverage_runs: spectra, verify
under sinusoidal positions, rotary with a lambda regulariser, two wide
vanilla simulates, and five verify runs that reach the branches of the
verification policy no other run does), each one
in-process call of attnsim.cli.main with --jobs 1 into a fresh
directory, hashed by workloads.digest (exit code, stdout and every
output file). A split check then runs one sweep member's
seed window at --jobs 1 and --jobs 2, and as two windows, and requires the
same seeds.csv rows from all three.

BLAS runs on one thread unless OPENBLAS_NUM_THREADS (or OMP_/MKL_/
BLIS_NUM_THREADS) says otherwise; the digests must not depend on it. A
thread check therefore reruns one simulate member's two runs and the two
wide coverage runs (vanilla, L = 300, D = 16 and D = 32: as one product,
their attention products would be past the size at which OpenBLAS starts
threads) in a child interpreter at two BLAS threads, and requires the same
digests.
--check exits 0 when every digest matches, 1 when a run changed or the
split or thread check fails, and 2 when runs changed in an environment (numpy, BLAS,
CPU features) other than the recorded one: those changes are reported,
not blamed on the code. It takes about a minute and a half on two cores.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "DIGESTS.json")
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for var in BLAS_THREADS:
    os.environ.setdefault(var, "1")  # before numpy loads
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402
import workloads as wl  # noqa: E402
from attnsim import cli  # noqa: E402
from attnsim.dynamics import sinusoidal_encoding  # noqa: E402
from attnsim.params import Scenario, ScenarioSpec, build_scenario, generator, save_matrix  # noqa: E402

SPLIT_MEMBER = 0  # the sweep member whose seed window the split check runs
THREAD_MEMBER = 0  # the simulate member whose runs the thread check reruns
THREAD_COVERAGE = ("coverage/simulate_wide", "coverage/simulate_wide_d32")

# Digest each config path given, as run() does, and print them as one JSON object.
THREAD_CHILD = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
import digests
print(json.dumps({path: digests.run(path)[0] for path in sys.argv[2:]}))
"""


def environment() -> dict:
    """What the digests may depend on besides the code."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "simd": sorted(simd.get("baseline", []) + simd.get("found", [])),
    }


def run(cfg_path: str, jobs: int = 1) -> tuple[str, str]:
    """Digest and seeds.csv text (empty when absent) of one CLI run."""
    with tempfile.TemporaryDirectory() as out:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--config", cfg_path, "--out", out, "--jobs", str(jobs)])
        seeds = os.path.join(out, "seeds.csv")
        rows = ""
        if os.path.exists(seeds):
            with open(seeds) as fh:
                rows = fh.read()
        return wl.digest(out, code, buf.getvalue()), rows


def _write_config(workdir: str, name: str, cfg: dict) -> str:
    path = os.path.join(workdir, f"{name.replace('/', '-')}.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def member_runs(workdir: str, member: int | None = None) -> dict[str, str]:
    """Config path of every perfbench operation, keyed workload/member/operation;
    with member, only those of that member of each workload."""
    with open(os.path.join(ROOT, "perfbench", "reference.json")) as fh:
        reference = json.load(fh)
    scenario_V = lambda D, s: build_scenario(  # noqa: E731
        ScenarioSpec(scenario=Scenario.CONVERGENCE, D=D, seed=s, symmetric=True)
    ).V
    paths = {}
    for workload in wl.WORKLOADS:
        for index, m in enumerate(reference[workload]["members"]):
            if member is not None and index != member:
                continue
            for op, cfg in wl.configs(workload, m, scenario_V).items():
                key = f"{workload}/{index}/{op}"
                paths[key] = _write_config(workdir, key, cfg)
    return paths


def coverage_runs(workdir: str) -> dict[str, str]:
    """Config path of each run that reaches code no perfbench member or
    configs/*.json run does, keyed coverage/<name>: spectra over matrix
    files, verify under sinusoidal positions in the collapse regime (the
    absolute-limit check, report only under its non-symmetric A), a rotary simulate with a lambda regulariser, two
    vanilla simulates at L = 300, D = 16 and D = 32, whose attention
    averages go in row blocks of unequal size, and five verify runs: rotary (the W/A laws
    skipped), a singular V (A undefined), a symmetric intermediate scenario
    (the decay envelope skipped, naming both definiteness kinds), the same
    at T = h (too few samples for the q_A bounds), and a non-symmetric
    convergence scenario (the collapse group and the pair law report only)."""
    rng = generator(2024)
    sets = []
    for i in range(3):
        sets.append({})
        for name in "QKV":
            M = np.zeros((4, 4)) if (i, name) == (2, "V") else rng.standard_normal((4, 4))  # the third V is singular
            sets[-1][name] = os.path.join(workdir, f"coverage-{name}{i}.txt")
            save_matrix(sets[-1][name], M)

    with open(os.path.join(ROOT, "configs", "simulate_collapse.json")) as fh:
        collapse = json.load(fh)  # W_sym > 0 and A_sym < 0
    L, D = 6, 2
    y0 = 2.2 * np.array([0.6, 0.8]) + 5e-4 * 2.2 * rng.standard_normal((L, D))  # a tight cluster of x + p
    rows = (y0 - sinusoidal_encoding(L, D)).tolist()

    square = lambda scale: (scale * rng.standard_normal((4, 4))).tolist()  # noqa: E731
    eye = lambda D, scale=1.0: (scale * np.eye(D)).tolist()  # noqa: E731
    rope = {"Qbar": square(0.5), "Kbar": square(0.5), "theta_base": 100.0,
            "lambda_mod": {"kind": "diag_scaled", "lambda": -0.5, "diag": [1.0, 2.0, 0.5, 1.5]}}
    intermediate = {"mode": "verify", "params": {"kind": "scenario", "scenario": "intermediate", "D": 3, "seed": 4, "symmetric": True},
                    "tokens": {"kind": "random", "L": 4, "seed": 3}}
    runs = {
        "spectra": {"mode": "spectra", "spectra": {"sets": sets, "eps": 0.5}},
        "verify_sinusoidal": {"mode": "verify", "params": collapse["params"], "posenc": {"kind": "sinusoidal"},
                              "tokens": {"kind": "explicit", "rows": rows}, "integrator": {"h": 0.01, "T": 15.0}},
        "simulate_rotary_lambda": {"mode": "simulate", "posenc": {"kind": "rotary"},
                                   "params": {"kind": "matrices", "Q": square(0.5), "K": square(0.5), "V": (-np.eye(4)).tolist(), "rope": rope},
                                   "tokens": {"kind": "random", "L": 8, "seed": 5}, "integrator": {"h": 0.01, "T": 2.0, "record_stride": 10}},
        "simulate_wide": {"mode": "simulate", "params": {"kind": "random", "D": 16, "seed": 11, "scale": 0.5},
                          "tokens": {"kind": "random", "L": 300, "seed": 12}, "integrator": {"h": 0.02, "T": 0.1}},
        "simulate_wide_d32": {"mode": "simulate", "params": {"kind": "random", "D": 32, "seed": 13, "scale": 0.5},
                              "tokens": {"kind": "random", "L": 300, "seed": 14}, "integrator": {"h": 0.02, "T": 0.1}},
        "verify_rotary": {"mode": "verify", "posenc": {"kind": "rotary"},
                          "params": {"kind": "matrices", "Q": eye(4, 0.5), "K": eye(4), "V": eye(4, -1.0),
                                     "rope": {"Qbar": eye(4, 0.5), "Kbar": eye(4, 0.5)}},
                          "tokens": {"kind": "random", "L": 6, "seed": 5}, "integrator": {"h": 0.01, "T": 2.0}},
        "verify_singular_V": {"mode": "verify", "params": {"kind": "matrices", "Q": eye(2), "K": eye(2), "V": [[1.0, 0.0], [0.0, 0.0]]},
                              "tokens": {"kind": "random", "L": 3, "seed": 2}, "integrator": {"T": 2.0}},
        "verify_intermediate": {**intermediate, "integrator": {"h": 0.01, "T": 1.0}},
        "verify_two_samples": {**intermediate, "integrator": {"h": 0.01, "T": 0.01}},
        "verify_nonsymmetric_collapse": {"mode": "verify", "params": {"kind": "scenario", "scenario": "convergence", "D": 2, "seed": 3},
                                         "tokens": {"kind": "cluster", "L": 4, "seed": 8, "spread": 1e-4}, "integrator": {"h": 0.01, "T": 20.0}},
    }
    return {f"coverage/{name}": _write_config(workdir, f"coverage/{name}", {"schema_version": 1, **cfg}) for name, cfg in runs.items()}


def split_check(workdir: str) -> tuple[str, list[str]]:
    """Digest of one sweep member's seeds.csv, and the ways of splitting the
    run that did not reproduce it."""
    with open(os.path.join(ROOT, "perfbench", "reference.json")) as fh:
        m = json.load(fh)["sweep"]["members"][SPLIT_MEMBER]
    start, count = m["seed_start"], m["seed_count"]

    def window(first: int, n: int) -> str:
        sweep = {"scenario": "convergence", "D": wl.SWEEP_D, "seed_start": first, "seed_count": n, "horizon": "auto"}
        return _write_config(workdir, f"split_{first}_{n}", {"schema_version": 1, "mode": "sweep", "sweep": sweep})

    whole = run(window(start, count))[1]
    half = count // 2
    head, tail = run(window(start, half))[1], run(window(start + half, count - half))[1]
    ways = {
        "--jobs 2": run(window(start, count), jobs=2)[1],
        f"windows of {half} and {count - half} seeds": head + tail.split("\n", 1)[1],
    }
    failed = [way for way, rows in ways.items() if rows != whole]
    return hashlib.sha256(whole.encode()).hexdigest(), failed


def thread_check(paths: dict[str, str], runs: dict[str, str]) -> list[str]:
    """The runs among paths (keyed as in runs) whose digest a child
    interpreter at two BLAS threads does not reproduce."""
    env = dict(os.environ, **{var: "2" for var in BLAS_THREADS})
    here = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run([sys.executable, "-c", THREAD_CHILD, here, *paths.values()], capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        print(proc.stderr, end="", file=sys.stderr)
        return sorted(paths)
    child = json.loads(proc.stdout)
    return [key for key, path in sorted(paths.items()) if child[path] != runs[key]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare with DIGESTS.json instead of writing it")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as workdir:
        paths = {**member_runs(workdir), **coverage_runs(workdir)}
        for name in sorted(os.listdir(os.path.join(ROOT, "configs"))):
            if name.endswith(".json"):
                paths[f"configs/{name}"] = os.path.join(ROOT, "configs", name)
        runs = {}
        progress = sys.stderr.isatty()  # piped into a log, the \r fragments would pile up on one line
        for i, (key, path) in enumerate(sorted(paths.items()), 1):
            runs[key] = run(path)[0]
            if progress:
                print(f"\r{i}/{len(paths)} runs", end="", file=sys.stderr, flush=True)
        if progress:
            print(file=sys.stderr)
        split, split_failed = split_check(workdir)
        threaded = sorted(key for key in paths if key.startswith(f"simulate/{THREAD_MEMBER}/")) + list(THREAD_COVERAGE)
        thread_failed = thread_check({key: paths[key] for key in threaded}, runs)

    record = {"environment": environment(), "runs": runs, "split_sweep_member": SPLIT_MEMBER, "split_seeds_csv": split}
    for way in split_failed:
        print(f"split check: seeds.csv rows differ from one --jobs 1 window when run as {way}")
    for key in thread_failed:
        print(f"thread check: {key} gives another digest at two BLAS threads")
    print(f"thread check: {len(threaded) - len(thread_failed)} of {len(threaded)} runs reproduced at two BLAS threads")
    if not args.check:
        if split_failed or thread_failed:
            return 1
        with open(DIGESTS, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(runs)} run digests to {os.path.relpath(DIGESTS)}")
        return 0

    with open(DIGESTS) as fh:
        want = json.load(fh)
    changed = sorted(key for key in want["runs"].keys() | runs.keys() if want["runs"].get(key) != runs.get(key))
    if want["split_seeds_csv"] != split:
        changed.append(f"split check (sweep member {SPLIT_MEMBER} seeds.csv)")
    for key in changed:
        print(f"changed: {key}")
    env_diff = {k: (want["environment"].get(k), v) for k, v in record["environment"].items() if want["environment"].get(k) != v}
    for k, (was, now) in env_diff.items():
        print(f"environment differs: {k} recorded {was!r}, now {now!r}")
    print(f"{len(changed)} of {len(runs) + 1} digests changed")
    if changed and env_diff:
        print("the environment differs from the recorded one, so these changes need not come from the code")
        return 2
    return 1 if changed or split_failed or thread_failed else 0


if __name__ == "__main__":
    sys.exit(main())

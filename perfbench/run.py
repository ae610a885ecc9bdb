"""attnsim benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload sweep --seed 3 --seconds 30 --trace 1

Run from the repository root. Every operation is one in-process call of
attnsim.cli.main (with --jobs 1) on a config generated from the workload
seed; a pass is all of a workload's operations. After one warm-up pass the
benchmark repeats passes until --seconds is used up and gates every
operation against perfbench/reference.json. The last stdout line is the
result; the line before it records the run environment. wall_s and
setup_s are normalised by the speed probe in probe.py, timed around and
during every operation and around every set-up, so that they follow the program and not the
machine's drifting speed. With --trace 1,
untraced and traced passes alternate, and the traced ones supply the
per-layer metrics; spans go to .perfbench/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 8
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# Run in a fresh interpreter: import attnsim, then build what the configs
# name without running anything.
SETUP_CHILD = r"""
import json, sys
from time import perf_counter
t0 = perf_counter()
import attnsim
t1 = perf_counter()
from attnsim import cli
for path in sys.argv[1:]:
    cfg = cli.load_config(path)
    if "params" in cfg:
        params = cli.build_params(cfg["params"])
        cli.build_tokens(cfg["tokens"], params.D)
t2 = perf_counter()
import probe
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "slowness_after": probe.slowness()}))
"""


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable core count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        current = os.environ.get(var, "")
        n = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(n, nproc))
    return int(os.environ[BLAS_ENV[0]])


def environment(workload: str, seed: int, member: int, blas_threads: int) -> dict:
    import numpy as np
    import scipy

    caches = {}
    for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            out = ""
        caches[name] = int(out) if out.isdigit() else None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {}).get("name")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "machine": platform.machine(),
        "git_commit": commit,
        "workload": workload,
        "workload_seed": seed,
        "member": member,
    }


def measure_setup(config_paths: list[str]) -> dict[str, float]:
    """Import, build and total set-up time of one fresh interpreter, and the
    total normalised by the probes timed right before it starts (here) and
    right after it builds (in the child)."""
    before = probe.slowness()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, HERE, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, *config_paths],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120, check=True,
    )
    t = json.loads(proc.stdout.strip().splitlines()[-1])
    setup_s = t["import_s"] + t["build_s"]
    return {**t, "slowness_before": before, "setup_s": setup_s,
            "norm_s": setup_s / (0.5 * (before + t["slowness_after"]))}


class Workload:
    """The operations of one workload pass and the gate on their outputs."""

    def __init__(self, workload: str, m: dict, workdir: str):
        import workloads as wl
        from attnsim.params import Scenario, ScenarioSpec, build_scenario

        self.expected = m.get("outcomes")
        scenario_V = lambda D, s: build_scenario(  # noqa: E731
            ScenarioSpec(scenario=Scenario.CONVERGENCE, D=D, seed=s, symmetric=True)
        ).V
        self.ops = []
        for name, cfg in wl.configs(workload, m, scenario_V).items():
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            self.ops.append((name, cfg, path, os.path.join(workdir, name)))
        self.passes = 0
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    @property
    def config_paths(self) -> list[str]:
        return [path for _, _, path, _ in self.ops]

    def run_pass(self, tracer=None) -> tuple[list[float], list[float], list]:
        """Run every operation once; returns each one's wall time (without
        the probes), the machine's slowness over it and its result. The
        slowness is the median of the probes right before, during and right
        after the operation."""
        from attnsim import cli

        walls, slowness, results = [], [], []
        self.passes += 1
        gc.collect()
        before = probe.slowness()
        with tracer if tracer is not None else contextlib.nullcontext():
            for name, _, path, out in self.ops:
                if tracer is not None:
                    tracer.op = f"{self.passes}:{name}"
                buf = io.StringIO()
                start = perf_counter()
                try:
                    with probe.Sampler() as sampler, contextlib.redirect_stdout(buf):
                        code = cli.main(["--config", path, "--out", out, "--jobs", "1"])
                except Exception as exc:  # an operation that crashes is counted as failed
                    print(f"{name}: {exc!r}", file=sys.stderr)
                    code = None
                walls.append(perf_counter() - start - sampler.spent)
                results.append((name, code, buf.getvalue()))
                after = probe.slowness()
                slowness.append(statistics.median([before, *sampler.samples, after]))
                before = after
        return walls, slowness, results

    def observe(self, results) -> dict[str, dict]:
        import workloads as wl

        return {
            name: wl.observe(cfg["mode"], cfg, out, code, stdout) if code is not None else {"exit": None}
            for (name, cfg, _, out), (_, code, stdout) in zip(self.ops, results)
        }

    def gate(self, results):
        """Count each operation: it fails on a nonzero exit, on output that
        differs from the reference, or on output whose digest differs from
        an earlier pass of the same run."""
        import workloads as wl

        observed = self.observe(results)
        for (name, _, _, out), (_, code, stdout) in zip(self.ops, results):
            self.attempted += 1
            ok = code == 0 and wl.matches(observed[name], self.expected[name])
            if ok:
                d = wl.digest(out, code, stdout)
                ok = self.digests.setdefault(name, d) == d
            if not ok:
                self.failed += 1
                print(f"operation {name} failed the gate: {observed[name] if code != 0 else 'output differs'}", file=sys.stderr)


def load_member(workload: str, seed: int) -> tuple[int, dict]:
    import workloads as wl

    with open(os.path.join(HERE, "reference.json")) as fh:
        return wl.member(json.load(fh), workload, seed)


def pass_time(passes: list[dict]) -> float:
    """Time of one pass: the sum over operations of each one's median
    normalised time over the passes."""
    return sum(statistics.median(column) for column in zip(*(p["norm"] for p in passes)))


def measure(w: Workload, seconds: float, tracer=None) -> tuple[dict, dict]:
    """Metrics of one run, and every operation's wall time and slowness in
    every pass, with every set-up sample."""
    import spans

    w.gate(w.run_pass()[2])  # warm-up
    walls = {"untraced": [], "traced": []}
    setups = []
    start = perf_counter()
    traced = False
    while True:
        op_walls, slowness, results = w.run_pass(tracer if traced else None)
        w.gate(results)
        walls["traced" if traced else "untraced"].append(
            {"ops": op_walls, "slowness": slowness, "norm": [t / s for t, s in zip(op_walls, slowness)]})
        traced = tracer is not None and not traced
        setups.append(measure_setup(w.config_paths))
        if perf_counter() - start + sum(op_walls) > seconds and (tracer is None or walls["traced"]):
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(w.config_paths))
    walls["setup"] = setups
    setup = {key: statistics.median(s[key] for s in setups) for key in setups[0]}
    wall_s = pass_time(walls["untraced"])
    if tracer is None:
        return {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup["norm_s"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }, walls
    metrics = spans.layer_metrics(tracer, len(walls["traced"]))
    metrics["import.attnsim.s"] = (setup["import_s"], "s")
    metrics["cli.build.s"] = (setup["build_s"], "s")
    metrics["trace.overhead_s"] = (pass_time(walls["traced"]) - wall_s, "s")
    return metrics, walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "verify", "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "attnsim", "cli.py")):
        print(f"error: no attnsim sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, SRC)
    import attnsim

    if os.path.dirname(os.path.abspath(attnsim.__file__)) != os.path.join(SRC, "attnsim"):
        print(f"error: imported attnsim from {attnsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import spans

    index, m = load_member(args.workload, args.seed)
    tracer = spans.Tracer() if args.trace else None
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        w = Workload(args.workload, m, workdir)
        metrics, walls = measure(w, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(args.workload, args.seed, index, blas_threads)
    env["times_s"] = {"ops": [name for name, *_ in w.ops], **walls}
    if tracer is not None:
        tracer.dump(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json"), env)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": w.failed == 0,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

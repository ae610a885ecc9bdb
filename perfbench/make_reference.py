"""Rebuild perfbench/reference.json from the attnsim sources in this checkout.

    python3 perfbench/make_reference.py

For each workload it picks a family of MEMBERS members that do about the same
amount of work, runs one pass of each, and stores the outcome every
operation produced. The benchmark gates later runs against these outcomes,
so rebuild only when a change is meant to alter results, and say so.

Selection rules (the work counts are deterministic, the timings are not):
- sweep: the k-th member is the first contiguous window of at least
  SWEEP_MIN_SEEDS convergence seeds, starting after the previous member,
  whose predicted RK4 step count is within 1 % of SWEEP_STEPS and which
  holds a stiff-tail seed (at least STIFF_FACTOR times the median steps).
- verify: of the candidate seeds 0 .. VERIFY_CANDIDATES-1, the members are
  those whose projected-gradient iterations in the hull queries are
  closest to the median over all candidates.
- simulate: seeds 0, 1, 2, ... (all shapes are fixed, so the work is too).
The verify candidates in VERIFY_EXCLUDED are left out, for the reason
stored with them; reference.json records them too. Any other operation
that exits nonzero stops the rebuild.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile

import run

SWEEP_STEPS = 40_000
SWEEP_MIN_SEEDS = 5
SWEEP_SEARCH = 2_000
STIFF_FACTOR = 6.0
VERIFY_CANDIDATES = 128
MEMBERS = 16

# Verify candidates on which the program exits 1 through a known defect:
# check_hull_containment scores an undecided simplex_distance query (one
# that hits its iteration cap) by its upper bound, so an initial token,
# which lies in its own hull, is reported outside it. These are among the
# most expensive hull queries. The fix for that checker must remove them
# from this table and rebuild the verify family.
VERIFY_EXCLUDED = {
    seed: "check_hull_containment reports a false FAIL when simplex_distance hits its iteration cap"
    for seed in (6, 11, 57)
}


def predicted_steps(seeds) -> list[int]:
    """RK4 steps the sweep runner takes per convergence seed when nothing
    blows up: round(T / h) with its auto horizon and stability cap."""
    import numpy as np
    from attnsim.integrate import stable_step
    from attnsim.params import Scenario, ScenarioSpec, build_scenario

    out = []
    for s in seeds:
        V = build_scenario(ScenarioSpec(scenario=Scenario.CONVERGENCE, D=4, seed=s)).V
        h = min(5e-2, stable_step(V, cap=5e-2))
        rate = float(np.abs(np.linalg.eigvals(V.T).real).min())
        T = float(np.clip(9.0 / max(rate, 1e-9), 10.0, 1500.0))
        out.append(max(1, int(round(T / h))))
    return out


def one_pass(workload: str, m: dict, workdir: str, count_iterations=False):
    """Outcomes and work counts of one traced pass of member m."""
    import spans
    from attnsim import quadspace

    w = run.Workload(workload, m, workdir)
    tracer = spans.Tracer()
    iterations = [0]
    project = quadspace._project_simplex
    if count_iterations:
        def counted(z):
            iterations[0] += 1
            return project(z)
        quadspace._project_simplex = counted
    try:
        _, _, results = w.run_pass(tracer)
    finally:
        quadspace._project_simplex = project
    outcomes = w.observe(results)
    failed = [name for name, code, _ in results if code != 0]
    if failed:
        raise SystemExit(f"{workload} member {m}: operations {failed} exited nonzero")
    work = {"rk4_steps": tracer.totals().get("integrate.rk4_step", [0])[0]}
    if count_iterations:
        work["simplex_iterations"] = iterations[0]
    return outcomes, work


def sweep_members(workdir: str) -> list[dict]:
    steps = predicted_steps(range(SWEEP_SEARCH))
    median = statistics.median(steps)
    members, start = [], 0
    while len(members) < MEMBERS and start < SWEEP_SEARCH:
        total, end = 0, start
        while end < SWEEP_SEARCH and total < 0.99 * SWEEP_STEPS:
            total += steps[end]
            end += 1
        window = steps[start:end]
        if (len(window) >= SWEEP_MIN_SEEDS and total <= 1.01 * SWEEP_STEPS
                and max(window) >= STIFF_FACTOR * median):
            m = {"seed_start": start, "seed_count": end - start}
            outcomes, work = one_pass("sweep", m, workdir)
            members.append({**m, **work, "outcomes": outcomes})
            print(f"sweep member {len(members)}: seeds [{start}, {end}) {work}", file=sys.stderr)
            start = end
            continue
        start += 1
    return members


def verify_members(workdir: str) -> list[dict]:
    candidates = []
    for seed in range(VERIFY_CANDIDATES):
        if seed in VERIFY_EXCLUDED:
            continue
        outcomes, work = one_pass("verify", {"seed": seed}, workdir, count_iterations=True)
        print(f"verify candidate {seed}: {work}", file=sys.stderr)
        candidates.append({"seed": seed, **work, "outcomes": outcomes})
    target = statistics.median(c["simplex_iterations"] for c in candidates)
    closest = sorted(candidates, key=lambda c: (abs(c["simplex_iterations"] - target), c["seed"]))[:MEMBERS]
    return sorted(closest, key=lambda c: c["seed"])


def simulate_members(workdir: str) -> list[dict]:
    members = []
    for seed in range(MEMBERS):
        outcomes, work = one_pass("simulate", {"seed": seed}, workdir)
        members.append({"seed": seed, **work, "outcomes": outcomes})
    return members


def main() -> int:
    run.cap_blas_threads()
    sys.path.insert(0, run.SRC)
    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
        reference = {
            "sweep": {"members": sweep_members(workdir)},
            "verify": {"members": verify_members(workdir),
                       "excluded": {str(seed): why for seed, why in VERIFY_EXCLUDED.items()}},
            "simulate": {"members": simulate_members(workdir)},
        }
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

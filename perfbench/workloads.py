"""Workload inputs, observed outcomes and the correctness gate.

Every workload has a finite family of members stored in reference.json. The
workload seed picks member ``seed % len(members)``; each member carries the
seed from which its CLI configs are generated here, plus the outcome the
program produced for them when the reference was recorded. Members are
chosen by make_reference.py so that each does about the same work, which
keeps the run-to-run spread of the timings small.

Nothing in this module imports attnsim at module level: the configs are
plain JSON and the outcomes are read back from the files the CLI writes.
"""

from __future__ import annotations

import collections
import csv
import hashlib
import json
import os

import numpy as np

WORKLOADS = ("sweep", "verify", "simulate")

# sweep: D=4 scenarios with the CLI's default cluster tokens (L=4) and auto horizon
SWEEP_D = 4

# verify, first kind: V = lam * I, hull containment and projection band
HULL_LAMBDAS = (0.5, 1.0, 2.0)
HULL_DIMS = (2, 3)
HULL_L = 8
HULL_T = 5.0
HULL_H = 1e-2
HULL_STRIDE = 10
HULL_REPEATS = 2  # configs per (lam, D): more, shorter runs keep each pass's work steadier

# verify, second kind: symmetric convergence scenarios, tight clusters
CONV_DIMS = (2, 4, 8)
CONV_L = 5
CONV_SPREAD = 1e-5
CONV_H_CAP = 5e-2
CONV_DECAY = 20.0  # horizon = CONV_DECAY / (fastest mean-mode decay rate)

# simulate: a rotary run and a wide vanilla run
ROTARY_L, ROTARY_D, ROTARY_STRIDE = 32, 8, 10
WIDE_L, WIDE_D = 256, 16
SIM_H, SIM_T = 2e-2, 1.0  # T=1 keeps a pass short: a 30 s benchmark run holds ten or more

SKETCH_DIM = 8
SKETCH_SEED = 20_251_203
FINAL_RTOL = 1e-6  # simulate: final state vs reference, relative to its scale


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def member(reference: dict, workload: str, seed: int) -> tuple[int, dict]:
    members = reference[workload]["members"]
    index = seed % len(members)
    return index, members[index]


def _cfg(mode: str, **sections) -> dict:
    return {"schema_version": 1, "mode": mode, **sections}


def sweep_configs(m: dict) -> dict[str, dict]:
    """A convergence window with stiff-tail seeds, plus the same window in
    the divergence scenario (the blow-up-guard exit). Each seed is its own
    CLI run, so the speed probe timed between runs brackets short spans."""
    return {
        f"{scenario}_{seed}": _cfg(
            "sweep",
            sweep={"scenario": scenario, "D": SWEEP_D, "seed_start": seed, "seed_count": 1, "horizon": "auto"},
        )
        for scenario in ("convergence", "divergence")
        for seed in range(m["seed_start"], m["seed_start"] + m["seed_count"])
    }


def hull_configs(seed: int) -> dict[str, dict]:
    r = rng(seed)
    out = {}
    for lam in HULL_LAMBDAS:
        for D in HULL_DIMS:
            for rep in range(HULL_REPEATS):
                W = r.standard_normal((D, D))
                X0 = r.standard_normal((HULL_L, D))
                X0 -= X0.mean(axis=0)  # centred, so the projection band is two-sided
                out[f"hull_lam{lam:g}_d{D}_{rep}"] = _cfg(
                    "verify",
                    params={"kind": "effective", "W": W.tolist(), "V": (lam * np.eye(D)).tolist()},
                    tokens={"kind": "explicit", "rows": X0.tolist()},
                    integrator={"h": HULL_H, "T": HULL_T, "record_stride": HULL_STRIDE},
                )
    return out


def convergence_configs(seed: int, scenario_V) -> dict[str, dict]:
    """Symmetric convergence scenarios. The cluster sits on the eigenvector
    of V^T with the fastest decay, so it collapses within CONV_DECAY
    e-folds of that mode; from a generic direction the slowest mode rules,
    and at D=8 that takes around 10^6 RK4 steps."""
    out = {}
    for j, D in enumerate(CONV_DIMS):
        sseed = seed * len(CONV_DIMS) + j
        V = np.asarray(scenario_V(D, sseed), dtype=float)
        vals, vecs = np.linalg.eig(V.T)
        k = int(np.argmin(vals.real))
        rate = -float(vals[k].real)
        h = min(CONV_H_CAP, 0.5 / float(np.abs(vals).max()))
        out[f"conv_d{D}"] = _cfg(
            "verify",
            params={"kind": "scenario", "scenario": "convergence", "D": D, "seed": sseed, "symmetric": True},
            tokens={"kind": "cluster", "L": CONV_L, "seed": sseed, "mean_norm": 1.0, "spread": CONV_SPREAD,
                    "direction": np.real(vecs[:, k]).tolist()},
            integrator={"h": h, "T": CONV_DECAY / rate},
        )
    return out


def verify_configs(m: dict, scenario_V) -> dict[str, dict]:
    return {**hull_configs(m["seed"]), **convergence_configs(m["seed"], scenario_V)}


def simulate_configs(m: dict) -> dict[str, dict]:
    r = rng(m["seed"])
    D = ROTARY_D
    mat = lambda scale: (scale * r.standard_normal((D, D))).tolist()  # noqa: E731
    V = -0.5 * np.eye(D) + 0.2 * r.standard_normal((D, D))
    rotary = _cfg(
        "simulate",
        params={"kind": "matrices", "Q": mat(D**-0.5), "K": mat(D**-0.5), "V": V.tolist(), "dk": D,
                "rope": {"Qbar": mat(D**-0.5), "Kbar": mat(D**-0.5), "theta_base": 10000.0}},
        posenc={"kind": "rotary"},
        tokens={"kind": "random", "L": ROTARY_L, "seed": m["seed"] + 1, "scale": 1.0},
        integrator={"h": SIM_H, "T": SIM_T, "record_stride": ROTARY_STRIDE},
    )
    wide = _cfg(
        "simulate",
        params={"kind": "random", "D": WIDE_D, "seed": m["seed"], "scale": 0.5},
        tokens={"kind": "random", "L": WIDE_L, "seed": m["seed"] + 2, "scale": 1.0},
        integrator={"h": SIM_H, "T": SIM_T, "record_stride": 1},
    )
    return {"rotary": rotary, "wide": wide}


def configs(workload: str, m: dict, scenario_V) -> dict[str, dict]:
    """Configs of one pass, by operation name. scenario_V(D, seed) returns
    the value matrix of a symmetric convergence scenario."""
    if workload == "sweep":
        return sweep_configs(m)
    if workload == "verify":
        return verify_configs(m, scenario_V)
    return simulate_configs(m)


def _final_state(path: str, L: int) -> np.ndarray:
    with open(path) as fh:
        tail = collections.deque(fh, maxlen=L)
    return np.array([[float(v) for v in line.split(",")[2:]] for line in tail])


def sketch(X: np.ndarray) -> list[float]:
    """Fixed Gaussian projection of a final state, for the tolerance check."""
    G = rng(SKETCH_SEED).standard_normal((X.size, SKETCH_DIM))
    return (X.ravel() @ G).tolist()


def observe(mode: str, cfg: dict, out_dir: str, code: int, stdout: str) -> dict:
    """The parts of one CLI run's output that the gate compares."""
    obs: dict = {"exit": code}
    if code != 0 and mode != "verify":
        return obs
    if mode == "sweep":
        with open(os.path.join(out_dir, "seeds.csv")) as fh:
            obs["regimes"] = [row["regime"] for row in csv.DictReader(fh)]
        obs["totals"] = json.loads(stdout.strip().splitlines()[-1])
    elif mode == "verify":
        with open(os.path.join(out_dir, "report.csv")) as fh:
            obs["checks"] = {row["name"]: row["status"] for row in csv.DictReader(fh)}
    else:
        with open(os.path.join(out_dir, "summary.json")) as fh:
            summary = json.load(fh)
        obs.update({k: summary[k] for k in ("terminated", "regime", "samples")})
        L = cfg["tokens"]["L"]
        obs["final_sketch"] = sketch(_final_state(os.path.join(out_dir, "trajectory.csv"), L))
    return obs


def matches(obs: dict, ref: dict) -> bool:
    """Exact agreement on everything but the simulate sketch, which must
    agree to FINAL_RTOL of its largest entry."""
    if set(obs) != set(ref):
        return False
    for key, want in ref.items():
        if key == "final_sketch":
            got, want = np.asarray(obs[key]), np.asarray(want)
            if got.shape != want.shape or np.abs(got - want).max() > FINAL_RTOL * np.abs(want).max():
                return False
        elif obs[key] != want:
            return False
    return True


def digest(out_dir: str, code: int, stdout: str) -> str:
    """Hash of everything one CLI run produced; repeats of the same code
    must agree bit for bit."""
    h = hashlib.sha256(f"{code}\n{stdout}".encode())
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()

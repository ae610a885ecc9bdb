"""Command-line front end.

One JSON config drives everything:

    attnsim --config run.json [--out DIR] [--jobs N]

The config carries a schema_version field and is validated strictly:
unknown keys are rejected so stale configs fail fast instead of silently
drifting. Exit codes: 0 success, 1 verification failure, 2 malformed
config, 3 violated mathematical precondition.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import analyze, quadspace
from .analyze import run_checks  # by name: perfbench's `cli.run_checks` span wraps it here
from .dynamics import PosEnc, PosEncKind, rhs_for, rhs_vanilla
from .errors import AttnSimError, ConfigError, DomainError, ShapeError
from .integrate import IntegratorConfig, integrate, stable_step
from .params import (
    LambdaKind,
    LambdaMod,
    ModelParams,
    RopeParams,
    Scenario,
    ScenarioSpec,
    build_scenario,
    derive_W_A,
    eigen_stats,
    generator,
    load_matrix,
    params_from_w_and_a,
    params_from_w_and_v,
    random_params,
    spawn_seeds,
)

SCHEMA_VERSION = 1
MODES = ("simulate", "verify", "sweep", "spectra")
FLOAT_FORMAT = "%.17g"  # 17 significant digits: every double reads back exactly

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_MATH = 3


def _fmt(x: float) -> str:
    return FLOAT_FORMAT % float(x)


def _require_keys(d: dict, allowed: set[str], required: set[str], where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _matrix(value, where: str) -> np.ndarray:
    try:
        M = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: not a numeric matrix") from exc
    if M.ndim != 2:
        raise ConfigError(f"{where}: expected a 2-d matrix")
    return M


def _build_lambda_mod(cfg: dict) -> LambdaMod:
    _require_keys(cfg, {"kind", "lambda", "diag"}, {"kind", "lambda"}, "params.rope.lambda_mod")
    kind = {"identity_scaled": LambdaKind.IDENTITY_SCALED, "diag_scaled": LambdaKind.DIAG_SCALED}.get(cfg["kind"])
    if kind is None:
        raise ConfigError(f"lambda_mod.kind must be identity_scaled or diag_scaled, got {cfg['kind']!r}")
    try:
        return LambdaMod(kind=kind, lam=float(cfg["lambda"]), diag=np.asarray(cfg["diag"], dtype=float) if "diag" in cfg else None)
    except (DomainError, ValueError, TypeError) as exc:
        raise ConfigError(f"params.rope.lambda_mod: {exc}") from exc


def build_params(cfg: dict) -> ModelParams:
    _require_keys(cfg, set(cfg) if isinstance(cfg, dict) else set(), {"kind"}, "params")
    kind = cfg["kind"]
    try:
        if kind == "scenario":
            _require_keys(cfg, {"kind", "scenario", "D", "seed", "symmetric"}, {"kind", "scenario", "D", "seed"}, "params")
            scenario = Scenario(cfg["scenario"])
            return build_scenario(ScenarioSpec(scenario=scenario, D=int(cfg["D"]), seed=int(cfg["seed"]), symmetric=bool(cfg.get("symmetric", False))))
        if kind == "random":
            _require_keys(cfg, {"kind", "D", "seed", "scale"}, {"kind", "D", "seed"}, "params")
            return random_params(int(cfg["D"]), int(cfg["seed"]), float(cfg.get("scale", 1.0)))
        if kind == "matrices":
            _require_keys(cfg, {"kind", "Q", "K", "V", "dk", "rope"}, {"kind", "Q", "K", "V"}, "params")
            Q, K, V = (_matrix(cfg[k], f"params.{k}") for k in ("Q", "K", "V"))
            rope = None
            if "rope" in cfg:
                rcfg = cfg["rope"]
                _require_keys(rcfg, {"Qbar", "Kbar", "theta_base", "lambda_mod"}, {"Qbar", "Kbar"}, "params.rope")
                rope = RopeParams(
                    Qbar=_matrix(rcfg["Qbar"], "params.rope.Qbar"),
                    Kbar=_matrix(rcfg["Kbar"], "params.rope.Kbar"),
                    theta_base=float(rcfg.get("theta_base", 10000.0)),
                    lambda_mod=_build_lambda_mod(rcfg["lambda_mod"]) if "lambda_mod" in rcfg else None,
                )
            D = Q.shape[0]
            return ModelParams(D=D, Q=Q, K=K, V=V, Dk=int(cfg["dk"]) if "dk" in cfg else None, rope=rope)
        if kind == "effective":
            _require_keys(cfg, {"kind", "W", "A", "V"}, {"kind", "W"}, "params")
            W = _matrix(cfg["W"], "params.W")
            if ("A" in cfg) == ("V" in cfg):
                raise ConfigError("params.effective: give exactly one of A or V")
            if "A" in cfg:
                return params_from_w_and_a(W, _matrix(cfg["A"], "params.A"))
            return params_from_w_and_v(W, _matrix(cfg["V"], "params.V"))
    except ConfigError:
        raise
    except (DomainError, ShapeError, ValueError, TypeError) as exc:
        raise ConfigError(f"params: {exc}") from exc
    raise ConfigError(f"params.kind must be one of scenario/random/matrices/effective, got {kind!r}")


def build_posenc(cfg: dict | None) -> PosEnc:
    if cfg is None:
        return PosEnc(kind=PosEncKind.NONE)
    _require_keys(cfg, {"kind", "rows"}, {"kind"}, "posenc")
    kinds = {
        "none": PosEncKind.NONE,
        "sinusoidal": PosEncKind.ABSOLUTE_SINUSOIDAL,
        "given": PosEncKind.ABSOLUTE_GIVEN,
        "rotary": PosEncKind.ROTARY,
    }
    if cfg["kind"] not in kinds:
        raise ConfigError(f"posenc.kind must be one of {sorted(kinds)}, got {cfg['kind']!r}")
    kind = kinds[cfg["kind"]]
    try:
        if kind is PosEncKind.ABSOLUTE_GIVEN:
            return PosEnc(kind=kind, P=_matrix(cfg.get("rows"), "posenc.rows") if "rows" in cfg else None)
        if "rows" in cfg:
            raise ConfigError("posenc.rows is only valid with kind = given")
        return PosEnc(kind=kind)
    except DomainError as exc:
        raise ConfigError(f"posenc: {exc}") from exc


def build_tokens(cfg: dict, D: int) -> np.ndarray:
    _require_keys(cfg, {"kind", "rows", "L", "seed", "scale", "mean_norm", "spread", "direction"}, {"kind"}, "tokens")
    try:
        return _build_tokens_checked(cfg, D)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"tokens: {exc}") from exc


def _build_tokens_checked(cfg: dict, D: int) -> np.ndarray:
    kind = cfg["kind"]
    if kind == "explicit":
        _require_keys(cfg, {"kind", "rows"}, {"kind", "rows"}, "tokens")
        X0 = _matrix(cfg["rows"], "tokens.rows")
    elif kind == "random":
        _require_keys(cfg, {"kind", "L", "seed", "scale"}, {"kind", "L", "seed"}, "tokens")
        rng = generator(int(cfg["seed"]))
        X0 = float(cfg.get("scale", 1.0)) * rng.standard_normal((int(cfg["L"]), D))
    elif kind == "cluster":
        # tight cluster: seeded mean direction scaled to mean_norm, plus
        # Gaussian offsets of std spread * mean_norm
        _require_keys(cfg, {"kind", "L", "seed", "mean_norm", "spread", "direction"}, {"kind", "L", "seed"}, "tokens")
        rng = generator(int(cfg["seed"]))
        mean_norm = float(cfg.get("mean_norm", 1.0))
        spread = float(cfg.get("spread", 1e-4))
        if "direction" in cfg:
            m = np.asarray(cfg["direction"], dtype=float)
            if m.shape != (D,):
                raise ConfigError(f"tokens.direction must have {D} entries")
        else:
            m = rng.standard_normal(D)
        m = m * (mean_norm / np.linalg.norm(m))
        X0 = m + spread * mean_norm * rng.standard_normal((int(cfg["L"]), D))
    else:
        raise ConfigError(f"tokens.kind must be explicit/random/cluster, got {kind!r}")
    if X0.shape[1] != D:
        raise ConfigError(f"tokens have dimension {X0.shape[1]}, params have D={D}")
    if X0.shape[0] < 1:
        raise ConfigError("need at least one token")
    return X0


def build_integrator(cfg: dict | None) -> IntegratorConfig:
    if cfg is None:
        return IntegratorConfig()
    _require_keys(cfg, {"h", "T", "record_stride", "blowup_norm"}, set(), "integrator")
    try:
        return IntegratorConfig(
            h=float(cfg.get("h", 1e-2)),
            T=float(cfg.get("T", 10.0)),
            record_stride=int(cfg.get("record_stride", 1)),
            blowup_norm=float(cfg.get("blowup_norm", 1e8)),
        )
    except (DomainError, ValueError, TypeError) as exc:
        raise ConfigError(f"integrator: {exc}") from exc


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    _require_keys(
        cfg,
        {"schema_version", "mode", "params", "posenc", "tokens", "integrator", "verify", "sweep", "spectra"},
        {"schema_version", "mode"},
        "config",
    )
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {cfg['schema_version']!r} (expected {SCHEMA_VERSION})")
    if cfg["mode"] not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {cfg['mode']!r}")
    return cfg


def _prepare_run(cfg: dict):
    if "params" not in cfg or "tokens" not in cfg:
        raise ConfigError(f"{cfg['mode']} mode needs params and tokens sections")
    params = build_params(cfg["params"])
    posenc = build_posenc(cfg.get("posenc"))
    if (posenc.kind is PosEncKind.ROTARY) != (params.rope is not None):
        raise ConfigError("rope parameters must be present exactly when posenc is rotary")
    X0 = build_tokens(cfg["tokens"], params.D)
    icfg = build_integrator(cfg.get("integrator"))
    try:
        rhs, P = rhs_for(params, posenc, X0.shape[0])
    except (DomainError, ShapeError) as exc:
        raise ConfigError(str(exc)) from exc
    return params, X0, icfg, rhs, P


def write_trajectory_csv(path, traj):
    D = traj.states.shape[2]
    tail = ("," + FLOAT_FORMAT) * D + "\n"  # one template per file, filled once per row
    with open(path, "w") as fh:
        fh.write("t,token_index," + ",".join(f"x_{j}" for j in range(D)) + "\n")
        for t, X in zip(traj.times, traj.states):
            head = _fmt(t)
            for l, row in enumerate(X.tolist()):
                fh.write(f"{head},{l}" + tail % tuple(row))


def write_metrics_csv(path, metrics):
    with open(path, "w") as fh:
        fh.write("t,mean_norm,mean_pairwise_dist\n")
        for t, mn, md in zip(metrics.times, metrics.mean_token_norm, metrics.mean_pairwise_dist):
            fh.write(f"{_fmt(t)},{_fmt(mn)},{_fmt(md)}\n")


def run_simulate(cfg: dict, out_dir: str) -> int:
    _, X0, icfg, rhs, _ = _prepare_run(cfg)
    traj = integrate(lambda t, X: rhs(X), X0, icfg)
    metrics = analyze.trajectory_metrics(traj)
    write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), traj)
    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), metrics)
    summary = {
        "mode": "simulate",
        "terminated": traj.terminated.value,
        "blowup_time": traj.blowup_time,
        "regime": analyze.classify_regime(traj).value,
        "samples": len(traj.times),
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    print(json.dumps(summary))
    return EXIT_OK


def run_verify(cfg: dict, out_dir: str) -> int:
    params, X0, icfg, rhs, P = _prepare_run(cfg)
    traj = integrate(lambda t, X: rhs(X), X0, icfg)
    report = run_checks(traj, params, P, cfg.get("verify"))

    text = report.to_text()
    print(text)
    print(f"regime: {analyze.classify_regime(traj).value}")
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(text + "\n")
    with open(os.path.join(out_dir, "report.csv"), "w") as fh:
        fh.write("name,status,worst_margin,location\n")
        for line in report.to_records():
            fh.write(line + "\n")
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


DEFAULT_SWEEP_TOKENS = {"kind": "cluster", "L": 4, "mean_norm": 1.0, "spread": 1e-4}


@dataclass(frozen=True)
class SweepPlan:
    """The sweep section, parsed once; every seed runs from it."""

    scenario: Scenario | None  # None draws random_params
    D: int
    scale: float
    symmetric: bool
    tokens: dict
    horizon: float | None  # None: from the slowest mean-mode rate of V
    h_cap: float
    t_max: float
    blowup_norm: float


def _sweep_one(args):
    plan, seed, token_seed = args
    if plan.scenario is None:
        params = random_params(plan.D, seed, plan.scale)
    else:
        params = build_scenario(ScenarioSpec(scenario=plan.scenario, D=plan.D, seed=seed, symmetric=plan.symmetric))
    W, A = derive_W_A(params)
    pos_w = int(np.sum(np.linalg.eigvalsh(quadspace.sym(W)) > 0))
    pos_a = int(np.sum(np.linalg.eigvalsh(quadspace.sym(A)) > 0))
    X0 = build_tokens({"seed": token_seed, **plan.tokens}, plan.D)

    h = stable_step(params.V, cap=plan.h_cap)
    if plan.horizon is None:
        rate = float(np.abs(np.linalg.eigvals(params.V.T).real).min())
        T = float(np.clip(9.0 / max(rate, 1e-9), 10.0, plan.t_max))
    else:
        T = plan.horizon
    icfg = IntegratorConfig(h=h, T=T, record_stride=max(1, int(T / h / 512)), blowup_norm=plan.blowup_norm)
    traj = integrate(lambda t, X: rhs_vanilla(params, X), X0, icfg)
    start = float(np.linalg.norm(traj.initial, axis=1).mean())
    end = float(np.linalg.norm(traj.final, axis=1).mean())
    return {
        "seed": seed,
        "pos_eigs_Wsym": pos_w,
        "pos_eigs_Asym": pos_a,
        "regime": analyze.classify_regime(traj).value,
        "mean_norm_ratio": end / start if start > 0 else float("nan"),
        "terminated": traj.terminated.value,
        "T": T,
        "h": h,
    }


def run_sweep(cfg: dict, out_dir: str, jobs: int) -> int:
    scfg = cfg.get("sweep")
    if scfg is None:
        raise ConfigError("sweep mode needs a sweep section")
    _require_keys(
        scfg,
        {"scenario", "D", "seed_start", "seed_count", "scale", "symmetric", "tokens", "horizon", "h_cap", "t_max", "blowup_norm"},
        {"D", "seed_count"},
        "sweep",
    )
    try:
        scenario, horizon = scfg.get("scenario", "random"), scfg.get("horizon", "auto")
        plan = SweepPlan(
            scenario=None if scenario == "random" else Scenario(scenario),
            D=int(scfg["D"]),
            scale=float(scfg.get("scale", 1.0)),
            symmetric=bool(scfg.get("symmetric", False)),
            tokens=dict(scfg.get("tokens", DEFAULT_SWEEP_TOKENS)),
            horizon=None if horizon == "auto" else float(horizon),
            h_cap=float(scfg.get("h_cap", 5e-2)),
            t_max=float(scfg.get("t_max", 1500.0)),
            blowup_norm=float(scfg.get("blowup_norm", 1e8)),
        )
        start, count = int(scfg.get("seed_start", 0)), int(scfg["seed_count"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    if count < 1:
        raise ConfigError("sweep.seed_count must be >= 1")
    if plan.D < 2:
        raise ConfigError("sweep.D must be >= 2")
    if not (all(v > 0 for v in (plan.scale, plan.h_cap, plan.t_max, plan.blowup_norm)) and (plan.horizon is None or plan.horizon > 0)):
        raise ConfigError("sweep: scale, h_cap, t_max, blowup_norm and horizon must be positive")
    # each token seed is keyed by its own parameter seed, so a seed's row
    # does not depend on the window it was swept in
    work = [(plan, s, spawn_seeds(s + 7_777_777, 1)[0]) for s in range(start, start + count)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only parallel sweeps pay for the import
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_one, work))
    else:
        rows = [_sweep_one(w) for w in work]

    with open(os.path.join(out_dir, "seeds.csv"), "w") as fh:
        fh.write("seed,pos_eigs_Wsym,pos_eigs_Asym,regime,mean_norm_ratio,terminated,T,h\n")
        for r in rows:
            fh.write(
                f"{r['seed']},{r['pos_eigs_Wsym']},{r['pos_eigs_Asym']},{r['regime']},"
                f"{_fmt(r['mean_norm_ratio'])},{r['terminated']},{_fmt(r['T'])},{_fmt(r['h'])}\n"
            )

    cells: dict[tuple[int, int], dict[str, int]] = {}
    for r in rows:
        cell = cells.setdefault((r["pos_eigs_Wsym"], r["pos_eigs_Asym"]), {"converged": 0, "diverged": 0, "undecided": 0})
        cell[r["regime"]] += 1
    with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
        fh.write("pos_eigs_Wsym,pos_eigs_Asym,n,converged_rate,diverged_rate,undecided_rate\n")
        for (pw, pa), c in sorted(cells.items()):
            n = sum(c.values())
            fh.write(f"{pw},{pa},{n},{_fmt(c['converged']/n)},{_fmt(c['diverged']/n)},{_fmt(c['undecided']/n)}\n")
    totals = {k: sum(c[k] for c in cells.values()) for k in ("converged", "diverged", "undecided")}
    print(json.dumps({"mode": "sweep", "n": len(rows), **totals}))
    return EXIT_OK


def run_spectra(cfg: dict, out_dir: str) -> int:
    pcfg = cfg.get("spectra")
    if pcfg is None:
        raise ConfigError("spectra mode needs a spectra section")
    _require_keys(pcfg, {"sets", "eps"}, {"sets"}, "spectra")
    try:
        eps = float(pcfg.get("eps", 1e-3))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"spectra: {exc}") from exc
    sets = pcfg["sets"]
    if not isinstance(sets, list) or not sets:
        raise ConfigError("spectra.sets must be a nonempty list")
    triples = []
    for i, entry in enumerate(sets):
        _require_keys(entry, {"Q", "K", "V"}, {"Q", "K", "V"}, f"spectra.sets[{i}]")
        try:
            triples.append(tuple(load_matrix(entry[k]) for k in ("Q", "K", "V")))
        except (DomainError, OSError) as exc:
            raise ConfigError(f"spectra.sets[{i}]: {exc}") from exc

    per_set = [eigen_stats([q], [k], [v], eps=eps) for q, k, v in triples]
    with open(os.path.join(out_dir, "spectra.csv"), "w") as fh:
        fh.write("set,pct_pos_Wsym,pct_pos_Asym,pct_near_zero_V,singular_V\n")
        for i, s in enumerate(per_set):
            fh.write(f"{i},{_fmt(s.pct_pos_Wsym)},{_fmt(s.pct_pos_Asym)},{_fmt(s.pct_near_zero_V)},{s.n_singular_V}\n")
        for name, attr in (("pct_pos_Wsym", "pct_pos_Wsym"), ("pct_pos_Asym", "pct_pos_Asym"), ("pct_near_zero_V", "pct_near_zero_V")):
            vals = np.array([getattr(s, attr) for s in per_set])
            vals = vals[np.isfinite(vals)]
            fh.write(f"aggregate_{name},{_fmt(vals.mean())},{_fmt(vals.std())},,\n")
    agg = eigen_stats([t[0] for t in triples], [t[1] for t in triples], [t[2] for t in triples], eps=eps)
    print(json.dumps({
        "mode": "spectra",
        "n_sets": agg.n_sets,
        "pct_pos_Wsym": agg.pct_pos_Wsym,
        "pct_pos_Asym": agg.pct_pos_Asym,
        "pct_near_zero_V": agg.pct_near_zero_V,
        "singular_V": agg.n_singular_V,
    }))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="attnsim", description="Self-attention token-dynamics simulator and verifier")
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=".", help="output directory (created if missing)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        if cfg["mode"] == "simulate":
            return run_simulate(cfg, args.out)
        if cfg["mode"] == "verify":
            return run_verify(cfg, args.out)
        if cfg["mode"] == "sweep":
            return run_sweep(cfg, args.out, max(1, args.jobs))
        return run_spectra(cfg, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AttnSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())

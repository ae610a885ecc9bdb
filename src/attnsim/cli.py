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
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import analyze, quadspace
from .dynamics import PosEnc, PosEncKind, rhs_for, rhs_vanilla
from .errors import (
    AttnSimError,
    ConfigError,
    DomainError,
    HypothesisError,
    NoRealDominantError,
    ShapeError,
    SingularMatrixError,
)
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
    interaction_matrix,
    load_matrix,
    params_from_w_and_a,
    params_from_w_and_v,
    random_params,
    spawn_seeds,
)

SCHEMA_VERSION = 1
MODES = ("simulate", "verify", "sweep", "spectra")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_MATH = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _require_keys(d: dict, allowed: set[str], required: set[str], where: str):
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
    _require_keys(cfg, {"kind"} | set(cfg), {"kind"}, "params")
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
    return params, posenc, X0, icfg, rhs, P


def write_trajectory_csv(path, traj):
    D = traj.states.shape[2]
    with open(path, "w") as fh:
        fh.write("t,token_index," + ",".join(f"x_{j}" for j in range(D)) + "\n")
        for t, X in zip(traj.times, traj.states):
            for l, row in enumerate(X):
                fh.write(_fmt(t) + f",{l}," + ",".join(_fmt(v) for v in row) + "\n")


def write_metrics_csv(path, metrics):
    with open(path, "w") as fh:
        fh.write("t,mean_norm,mean_pairwise_dist\n")
        for t, mn, md in zip(metrics.times, metrics.mean_token_norm, metrics.mean_pairwise_dist):
            fh.write(f"{_fmt(t)},{_fmt(mn)},{_fmt(md)}\n")


def run_simulate(cfg: dict, out_dir: str) -> int:
    _, _, X0, icfg, rhs, _ = _prepare_run(cfg)
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


DEFAULT_VERIFY = {
    "monotonicity_tol": None,  # 1e-6 + 100 h^4 when unset
    "qa_rate_tol": None,  # 10 h^3 when unset
    "qa_envelope_tol": 1e-4,
    "convergence_rel_threshold": 1e-2,
    "projection_tol": 1e-4,
    "hull_tol": 1e-4,
    "stationarity_tol": 1e-3,
    "derivative_decay_tol": 1e-3,
    "absolute_limit_tol": 5e-2,
}


def run_verify(cfg: dict, out_dir: str) -> int:
    vcfg = dict(DEFAULT_VERIFY)
    extra = cfg.get("verify") or {}
    _require_keys(extra, set(DEFAULT_VERIFY), set(), "verify")
    vcfg.update(extra)

    params, posenc, X0, icfg, rhs, P = _prepare_run(cfg)
    traj = integrate(lambda t, X: rhs(X), X0, icfg)
    report = run_checks(traj, params, posenc, P, vcfg)

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


def run_checks(traj, params, posenc, P, vcfg) -> analyze.VerificationReport:
    """Run every checker whose hypothesis the configuration satisfies.

    Theorem-level checks are asserted; empirical extensions (non-symmetric
    A with definite symmetric part) are reported without gating the exit
    status. Skipped checks carry the reason.
    """
    checks: list[analyze.CheckResult] = []
    skipped: list[analyze.SkippedCheck] = []
    h = traj.config.h
    mono_tol = vcfg["monotonicity_tol"] if vcfg["monotonicity_tol"] is not None else 1e-6 + 100.0 * h**4

    try:
        W, A = derive_W_A(params)
    except SingularMatrixError:
        W, A = interaction_matrix(params), None

    absolute = posenc.kind in (PosEncKind.ABSOLUTE_SINUSOIDAL, PosEncKind.ABSOLUTE_GIVEN)

    if A is None:
        skipped.append(analyze.SkippedCheck("distance_monotonicity", "V singular; A undefined"))
        skipped.append(analyze.SkippedCheck("qa_bounds", "V singular; A undefined"))
    else:
        a_sym_kind = quadspace.classify_definiteness(A)
        a_symmetric = quadspace.is_symmetric(A, 1e-8)
        if a_sym_kind is quadspace.Definiteness.POSITIVE_DEFINITE:
            checks.append(analyze.check_distance_monotonicity(traj, A, analyze.Direction.NON_DECREASING, mono_tol, asserted=a_symmetric))
        elif a_sym_kind is quadspace.Definiteness.NEGATIVE_DEFINITE:
            checks.append(analyze.check_distance_monotonicity(traj, A, analyze.Direction.NON_INCREASING, mono_tol, asserted=a_symmetric))
        else:
            skipped.append(analyze.SkippedCheck("distance_monotonicity", f"sym(A) is {a_sym_kind.value}; no monotone direction"))
        for r in analyze.check_quadratic_form_bounds(traj, params, vcfg["qa_rate_tol"], vcfg["qa_envelope_tol"]):
            (checks if isinstance(r, analyze.CheckResult) else skipped).append(r)

        w_kind = quadspace.classify_definiteness(quadspace.sym(W))
        convergent_regime = (
            a_sym_kind is quadspace.Definiteness.NEGATIVE_DEFINITE
            and w_kind is quadspace.Definiteness.POSITIVE_DEFINITE
        )
        if convergent_regime:
            if absolute:
                checks.append(analyze.check_absolute_limit(traj, P, vcfg["absolute_limit_tol"]))
            else:
                checks.append(analyze.check_convergence(traj, vcfg["convergence_rel_threshold"]))
                checks.append(analyze.check_stationarity(traj, params, vcfg["stationarity_tol"]))
            checks.append(analyze.check_derivative_decay(traj, vcfg["derivative_decay_tol"]))
        else:
            skipped.append(analyze.SkippedCheck("norm_collapse", "not in the A_sym < 0, W_sym > 0 regime"))

    if absolute:
        skipped.append(analyze.SkippedCheck("projection_band", "projection bound not checked under absolute encoding"))
        skipped.append(analyze.SkippedCheck("rescaled_hull_containment", "hull containment not checked under absolute encoding"))
        return analyze.VerificationReport(checks=checks, skipped=skipped)

    try:
        lam, n = analyze.positive_eigenpair(params.V)
        checks.extend(analyze.check_divergence_projection(traj, params.V, n, lam, vcfg["projection_tol"]))
    except (HypothesisError, NoRealDominantError) as exc:
        skipped.append(analyze.SkippedCheck("projection_band", str(exc)))

    diag = np.diag(params.V)
    lam0 = float(diag[0]) if diag.size else 0.0
    if lam0 > 0 and np.abs(params.V - lam0 * np.eye(params.D)).max() <= 1e-10:
        checks.append(analyze.check_hull_containment(traj, params.V, lam0, vcfg["hull_tol"]))
    else:
        skipped.append(analyze.SkippedCheck("rescaled_hull_containment", "V is not a positive multiple of the identity"))
    return analyze.VerificationReport(checks=checks, skipped=skipped)


DEFAULT_SWEEP_TOKENS = {"kind": "cluster", "L": 4, "mean_norm": 1.0, "spread": 1e-4}


def _sweep_one(args):
    scfg, seed, token_seed = args
    scenario = scfg.get("scenario", "random")
    D = int(scfg["D"])
    if scenario == "random":
        params = random_params(D, seed, float(scfg.get("scale", 1.0)))
    else:
        params = build_scenario(ScenarioSpec(scenario=Scenario(scenario), D=D, seed=seed, symmetric=bool(scfg.get("symmetric", False))))
    W, A = derive_W_A(params)
    pos_w = int(np.sum(np.linalg.eigvalsh(quadspace.sym(W)) > 0))
    pos_a = int(np.sum(np.linalg.eigvalsh(quadspace.sym(A)) > 0))

    tokens_cfg = dict(scfg.get("tokens", DEFAULT_SWEEP_TOKENS))
    tokens_cfg.setdefault("seed", token_seed)
    X0 = build_tokens(tokens_cfg, D)

    eigs = np.linalg.eigvals(params.V.T)
    h = min(float(scfg.get("h_cap", 5e-2)), stable_step(params.V, cap=float(scfg.get("h_cap", 5e-2))))
    horizon = scfg.get("horizon", "auto")
    if horizon == "auto":
        rate = float(np.abs(eigs.real).min())
        T = float(np.clip(9.0 / max(rate, 1e-9), 10.0, float(scfg.get("t_max", 1500.0))))
    else:
        T = float(horizon)
    icfg = IntegratorConfig(h=h, T=T, record_stride=max(1, int(T / h / 512)), blowup_norm=float(scfg.get("blowup_norm", 1e8)))
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
        count = int(scfg["seed_count"])
        start = int(scfg.get("seed_start", 0))
        int(scfg["D"])
        float(scfg.get("h_cap", 5e-2))
        float(scfg.get("t_max", 1500.0))
        float(scfg.get("blowup_norm", 1e8))
        if scfg.get("horizon", "auto") != "auto":
            float(scfg["horizon"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    if count < 1:
        raise ConfigError("sweep.seed_count must be >= 1")
    # each token seed is keyed by its own parameter seed, so a seed's row
    # does not depend on the window it was swept in
    work = [(scfg, s, spawn_seeds(s + 7_777_777, 1)[0]) for s in range(start, start + count)]
    if jobs > 1:
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

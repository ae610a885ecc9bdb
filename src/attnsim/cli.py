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
import contextlib
import json
import os
import sys
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from . import analyze, quadspace
from .analyze import run_checks  # by name: perfbench's `cli.run_checks` span wraps it here
from .dynamics import rhs_for, rhs_vanilla, sinusoidal_encoding
from .errors import AttnSimError, ConfigError
from .integrate import IntegratorConfig, integrate, region_step, stable_step  # stable_step unused: perfbench's span wraps `cli.stable_step`
from .params import (
    FLOAT_FORMAT,
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
    with _section(where):
        M = np.asarray(value, dtype=float)
    if M.ndim != 2:
        raise ConfigError(f"{where}: expected a 2-d matrix")
    if not np.isfinite(M).all():
        raise ConfigError(f"{where}: entries must be finite")
    return M


@contextlib.contextmanager
def _section(where: str):
    """Turn a ValueError, TypeError or OSError raised while a config section
    is read or built into ConfigError, the one path to exit 2."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _integer(value) -> int:
    """A whole number, such as 3 or 3.0; not 2.7, "3" or true."""
    if isinstance(value, int) and not isinstance(value, bool) or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _boolean(value) -> bool:
    """true or false; not "false" or 0."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _optional(cfg: dict, **convert) -> dict:
    """The keys of cfg named in convert, each converted; an absent key is
    left out, so the constructor's own default applies."""
    return {key: fn(cfg[key]) for key, fn in convert.items() if key in cfg}


def _build_lambda_mod(cfg: dict) -> LambdaMod:
    _require_keys(cfg, {"kind", "lambda", "diag"}, {"kind", "lambda"}, "params.rope.lambda_mod")
    with _section("params.rope.lambda_mod"):
        return LambdaMod(kind=LambdaKind(cfg["kind"]), lam=float(cfg["lambda"]), **_optional(cfg, diag=np.asarray))


def build_params(cfg: dict) -> ModelParams:
    _require_keys(cfg, set(cfg) if isinstance(cfg, dict) else set(), {"kind"}, "params")
    kind = cfg["kind"]
    with _section("params"):
        if kind == "scenario":
            _require_keys(cfg, {"kind", "scenario", "D", "seed", "symmetric"}, {"kind", "scenario", "D", "seed"}, "params")
            spec = ScenarioSpec(scenario=Scenario(cfg["scenario"]), D=_integer(cfg["D"]), seed=_integer(cfg["seed"]), **_optional(cfg, symmetric=_boolean))
            return build_scenario(spec)
        if kind == "random":
            _require_keys(cfg, {"kind", "D", "seed", "scale"}, {"kind", "D", "seed"}, "params")
            return random_params(_integer(cfg["D"]), _integer(cfg["seed"]), **_optional(cfg, scale=float))
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
                    **_optional(rcfg, theta_base=float, lambda_mod=_build_lambda_mod),
                )
            return ModelParams(D=Q.shape[0], Q=Q, K=K, V=V, Dk=_integer(cfg["dk"]) if "dk" in cfg else None, rope=rope)
        if kind == "effective":
            _require_keys(cfg, {"kind", "W", "A", "V"}, {"kind", "W"}, "params")
            W = _matrix(cfg["W"], "params.W")
            if ("A" in cfg) == ("V" in cfg):
                raise ConfigError("params.effective: give exactly one of A or V")
            if "A" in cfg:
                return params_from_w_and_a(W, _matrix(cfg["A"], "params.A"))
            return params_from_w_and_v(W, _matrix(cfg["V"], "params.V"))
    raise ConfigError(f"params.kind must be one of scenario/random/matrices/effective, got {kind!r}")


def build_positions(cfg: dict | None, params: ModelParams, L: int) -> np.ndarray | None:
    """The absolute position table the posenc section names, or None for
    the vanilla and rotary fields. Rotary encoding comes with rope
    parameters, and rope parameters only with rotary encoding."""
    kind = "none"
    if cfg is not None:
        _require_keys(cfg, {"kind", "rows"}, {"kind"}, "posenc")
        kind = cfg["kind"]
        if kind not in ("given", "none", "rotary", "sinusoidal"):
            raise ConfigError(f"posenc.kind must be one of given/none/rotary/sinusoidal, got {kind!r}")
        if ("rows" in cfg) != (kind == "given"):
            raise ConfigError("posenc.rows is required with kind = given and valid only there")
    if (kind == "rotary") != (params.rope is not None):
        raise ConfigError("posenc: rope parameters must be present exactly when posenc is rotary")
    if kind == "sinusoidal":
        return sinusoidal_encoding(L, params.D)
    if kind == "given":
        P = _matrix(cfg["rows"], "posenc.rows")
        if P.shape != (L, params.D):
            raise ConfigError(f"posenc.rows {P.shape} do not match (L, D) = ({L}, {params.D})")
        return P
    return None


def build_tokens(cfg: dict, D: int, where: str = "tokens") -> np.ndarray:
    _require_keys(cfg, {"kind", "rows", "L", "seed", "scale", "mean_norm", "spread", "direction"}, {"kind"}, where)
    kind = cfg["kind"]
    with _section(where):
        if kind == "explicit":
            _require_keys(cfg, {"kind", "rows"}, {"kind", "rows"}, where)
            X0 = _matrix(cfg["rows"], f"{where}.rows")
        elif kind == "random":
            _require_keys(cfg, {"kind", "L", "seed", "scale"}, {"kind", "L", "seed"}, where)
            rng = generator(_integer(cfg["seed"]))
            X0 = float(cfg.get("scale", 1.0)) * rng.standard_normal((_integer(cfg["L"]), D))
        elif kind == "cluster":
            # tight cluster: seeded mean direction scaled to mean_norm, plus
            # Gaussian offsets of std spread * mean_norm
            _require_keys(cfg, {"kind", "L", "seed", "mean_norm", "spread", "direction"}, {"kind", "L", "seed"}, where)
            rng = generator(_integer(cfg["seed"]))
            mean_norm = float(cfg.get("mean_norm", 1.0))
            spread = float(cfg.get("spread", 1e-4))
            if "direction" in cfg:
                m = np.asarray(cfg["direction"], dtype=float)
                if m.shape != (D,) or not np.isfinite(m).all() or not m.any():
                    raise ConfigError(f"{where}.direction must have {D} finite entries, not all zero")
            else:
                m = rng.standard_normal(D)
            m = m * (mean_norm / np.linalg.norm(m))
            X0 = m + spread * mean_norm * rng.standard_normal((_integer(cfg["L"]), D))
        else:
            raise ConfigError(f"{where}.kind must be explicit/random/cluster, got {kind!r}")
    if X0.shape[1] != D:
        raise ConfigError(f"{where} have dimension {X0.shape[1]}, params have D={D}")
    if X0.shape[0] < 1:
        raise ConfigError(f"{where}: need at least one token")
    if not np.isfinite(X0).all():
        raise ConfigError(f"{where}: entries must be finite")
    return X0


def build_integrator(cfg: dict) -> IntegratorConfig:
    _require_keys(cfg, {"h", "T", "record_stride", "blowup_norm"}, set(), "integrator")
    with _section("integrator"):
        return IntegratorConfig(**_optional(cfg, h=float, T=float, record_stride=_integer, blowup_norm=float))


def load_config(path: str) -> dict:
    with _section("config"), open(path) as fh:
        cfg = json.load(fh)
    _require_keys(
        cfg,
        {"schema_version", "mode", "params", "posenc", "tokens", "integrator", "verify", "sweep", "spectra"},
        {"schema_version", "mode"},
        "config",
    )
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"config: unsupported schema_version {cfg['schema_version']!r} (expected {SCHEMA_VERSION})")
    if cfg["mode"] not in MODES:
        raise ConfigError(f"config.mode must be one of {MODES}, got {cfg['mode']!r}")
    return cfg


def _prepare_run(cfg: dict):
    params = build_params(cfg.get("params", {}))
    X0 = build_tokens(cfg.get("tokens", {}), params.D)
    P = build_positions(cfg.get("posenc"), params, X0.shape[0])
    icfg = build_integrator(cfg.get("integrator", {}))
    return params, X0, icfg, rhs_for(params, P), P


def _trajectory_header(D: int) -> str:
    return "t,token_index," + ",".join(f"x_{j}" for j in range(D)) + "\n"


METRICS_HEADER = "t,mean_norm,mean_pairwise_dist\n"


def _write_trajectory_rows(fh, traj):
    tail = ("," + FLOAT_FORMAT) * traj.states.shape[2] + "\n"  # one template per call, filled once per row
    for t, X in zip(traj.times, traj.states):
        head = _fmt(t)
        for l, row in enumerate(X.tolist()):
            fh.write(f"{head},{l}" + tail % tuple(row))


def _write_metrics_rows(fh, metrics):
    for t, mn, md in zip(metrics.times, metrics.mean_token_norm, metrics.mean_pairwise_dist):
        fh.write(f"{_fmt(t)},{_fmt(mn)},{_fmt(md)}\n")


def write_trajectory_csv(path, traj):
    with open(path, "w") as fh:
        fh.write(_trajectory_header(traj.states.shape[2]))
        _write_trajectory_rows(fh, traj)


def write_metrics_csv(path, metrics):
    with open(path, "w") as fh:
        fh.write(METRICS_HEADER)
        _write_metrics_rows(fh, metrics)


class _SampleStream:
    """integrate's sink for simulate: fills one metrics block of samples and
    appends each full block's rows to the two CSVs."""

    def __init__(self, traj_fh, metrics_fh, n: int, L: int, D: int):
        self.traj_fh, self.metrics_fh = traj_fh, metrics_fh
        self.times, self.states = np.empty(n), np.empty((n, L, D))  # C order, as integrate's states
        self.filled = self.samples = 0

    def __call__(self, t, X):
        self.times[self.filled], self.states[self.filled] = t, X
        self.filled, self.samples = self.filled + 1, self.samples + 1
        if self.filled == len(self.times):
            self.flush()

    def flush(self):
        if self.filled:
            block = SimpleNamespace(times=self.times[:self.filled], states=self.states[:self.filled])
            _write_trajectory_rows(self.traj_fh, block)
            _write_metrics_rows(self.metrics_fh, analyze.trajectory_metrics(block))
            self.filled = 0


def run_simulate(cfg: dict, out_dir: str) -> int:
    _, X0, icfg, rhs, _ = _prepare_run(cfg)
    L, D = X0.shape
    block = min(analyze.metrics_block_samples(L, D), icfg.n_steps // icfg.record_stride + 2)
    paths = [os.path.join(out_dir, name) for name in ("trajectory.csv", "metrics.csv")]
    partial = [path + ".partial" for path in paths]  # renamed on success: a failed run leaves no CSV
    try:
        with open(partial[0], "w") as traj_fh, open(partial[1], "w") as metrics_fh:
            traj_fh.write(_trajectory_header(D))
            metrics_fh.write(METRICS_HEADER)
            stream = _SampleStream(traj_fh, metrics_fh, block, L, D)
            traj = integrate(rhs, X0, icfg, stream)
            stream.flush()
        for src, dst in zip(partial, paths):
            os.replace(src, dst)
    finally:
        for path in partial:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
    summary = {
        "mode": "simulate",
        "terminated": traj.terminated.value,
        "blowup_time": traj.blowup_time,
        "regime": analyze.classify_regime(traj).value,
        "samples": stream.samples,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    print(json.dumps(summary))
    return EXIT_OK


def run_verify(cfg: dict, out_dir: str) -> int:
    tolerances = analyze.resolve_tolerances(cfg.get("verify"))
    params, X0, icfg, rhs, P = _prepare_run(cfg)
    traj = integrate(rhs, X0, icfg)
    report = run_checks(traj, params, P, tolerances)

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


@dataclass(frozen=True)
class SweepPlan:
    """The sweep section, parsed once: one field per key, defaulted when the key is absent."""

    D: int
    seed_count: int
    seed_start: int = 0
    scenario: Scenario | None = None  # None draws random_params
    scale: float | None = None  # None: random_params' default
    symmetric: bool | None = None  # None: ScenarioSpec's default
    tokens: dict = field(default_factory=lambda: {"kind": "cluster", "L": 4})
    horizon: float | None = None  # None: from the slowest mean-mode rate of V
    h_cap: float = 5e-2
    t_max: float = 1500.0
    blowup_norm: float | None = None  # None: IntegratorConfig's default


def _given(**kwargs) -> dict:
    """The keyword arguments that are not None; the rest keep the callee's defaults."""
    return {key: value for key, value in kwargs.items() if value is not None}


def build_sweep_plan(cfg: dict) -> SweepPlan:
    _require_keys(cfg, {f.name for f in fields(SweepPlan)}, {"D", "seed_count"}, "sweep")
    with _section("sweep"):
        plan = SweepPlan(**_optional(
            cfg, D=_integer, seed_count=_integer, seed_start=_integer, scale=float, symmetric=_boolean, tokens=dict,
            scenario=lambda s: None if s == "random" else Scenario(s), horizon=lambda v: None if v == "auto" else float(v),
            h_cap=float, t_max=float, blowup_norm=float,
        ))
    for key, least in (("seed_count", 1), ("seed_start", 0), ("D", 2)):
        if getattr(plan, key) < least:
            raise ConfigError(f"sweep.{key} must be >= {least}")
    if not (all(v is None or v > 0 for v in (plan.t_max, plan.blowup_norm))
            and all(v is None or 0 < v < np.inf for v in (plan.scale, plan.horizon, plan.h_cap))):
        raise ConfigError("sweep: scale, h_cap, t_max, blowup_norm and horizon must be positive, scale, h_cap and horizon finite")
    if "seed" in plan.tokens:
        raise ConfigError("sweep.tokens: no seed; each token seed is derived from its sweep seed")
    # the first seed's tokens, built here so that a bad section fails before any run
    build_tokens({"seed": _token_seed(plan.seed_start), **plan.tokens}, plan.D, "sweep.tokens")
    return plan


def _token_seed(seed: int) -> int:
    """Keyed by the parameter seed alone, so a seed's row does not depend on its sweep window."""
    return spawn_seeds(seed + 7_777_777, 1)[0]


def _sweep_one(args):
    plan, seed, token_seed = args
    if plan.scenario is None:
        params = random_params(plan.D, seed, **_given(scale=plan.scale))
    else:
        params = build_scenario(ScenarioSpec(scenario=plan.scenario, D=plan.D, seed=seed, **_given(symmetric=plan.symmetric)))
    W, A = derive_W_A(params)
    X0 = build_tokens({"seed": token_seed, **plan.tokens}, plan.D, "sweep.tokens")

    h = region_step(params.V, cap=plan.h_cap)
    growth = np.linalg.eigvals(params.V.T).real  # the mean mode's rates
    if plan.horizon is None:
        rate = float(np.abs(growth).min())
        T = float(np.clip(9.0 / max(rate, 1e-9), 10.0, plan.t_max))
    else:
        T = plan.horizon
    icfg = IntegratorConfig(h=h, T=T, record_stride=max(1, int(T / h / 512)), **_given(blowup_norm=plan.blowup_norm))
    traj = integrate(lambda X: rhs_vanilla(params, X), X0, icfg)
    start, end = analyze.endpoint_mean_norms(traj)
    return {
        "seed": seed,
        "pos_eigs_Wsym": quadspace.count_positive_eigs(W),
        "pos_eigs_Asym": quadspace.count_positive_eigs(A),
        "regime": analyze.classify_regime(traj).value,
        "mean_norm_ratio": end / start if start > 0 else float("nan"),
        "terminated": traj.terminated.value,
        "T": T,
        "h": h,
        "max_re_eig_V": float(growth.max()),
    }


def run_sweep(cfg: dict, out_dir: str, jobs: int) -> int:
    plan = build_sweep_plan(cfg.get("sweep", {}))
    work = [(plan, s, _token_seed(s)) for s in range(plan.seed_start, plan.seed_start + plan.seed_count)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only parallel sweeps pay for the import
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_one, work))
    else:
        rows = [_sweep_one(w) for w in work]

    with open(os.path.join(out_dir, "seeds.csv"), "w") as fh:
        fh.write("seed,pos_eigs_Wsym,pos_eigs_Asym,regime,mean_norm_ratio,terminated,T,h,max_re_eig_V\n")
        for r in rows:
            fh.write(
                f"{r['seed']},{r['pos_eigs_Wsym']},{r['pos_eigs_Asym']},{r['regime']},"
                f"{_fmt(r['mean_norm_ratio'])},{r['terminated']},{_fmt(r['T'])},{_fmt(r['h'])},{_fmt(r['max_re_eig_V'])}\n"
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
    pcfg = cfg.get("spectra", {})
    _require_keys(pcfg, {"sets", "eps"}, {"sets"}, "spectra")
    with _section("spectra"):
        options = _optional(pcfg, eps=float)
    sets = pcfg["sets"]
    if not isinstance(sets, list) or not sets:
        raise ConfigError("spectra.sets must be a nonempty list")
    triples = []
    for i, entry in enumerate(sets):
        _require_keys(entry, {"Q", "K", "V"}, {"Q", "K", "V"}, f"spectra.sets[{i}]")
        if not all(isinstance(entry[k], str) for k in ("Q", "K", "V")):
            raise ConfigError(f"spectra.sets[{i}]: Q, K and V must be file paths")
        with _section(f"spectra.sets[{i}]"):
            triples.append(tuple(load_matrix(entry[k]) for k in ("Q", "K", "V")))

    per_set = [eigen_stats([q], [k], [v], **options) for q, k, v in triples]
    # the aggregates are over the per-set percentages; A_sym has none where V is singular
    summary = {"mode": "spectra", "n_sets": len(per_set)}
    with open(os.path.join(out_dir, "spectra.csv"), "w") as fh:
        fh.write("set,pct_pos_Wsym,pct_pos_Asym,pct_near_zero_V,singular_V\n")
        for i, s in enumerate(per_set):
            fh.write(f"{i},{_fmt(s.pct_pos_Wsym)},{_fmt(s.pct_pos_Asym)},{_fmt(s.pct_near_zero_V)},{s.n_singular_V}\n")
        for name in ("pct_pos_Wsym", "pct_pos_Asym", "pct_near_zero_V"):
            vals = np.array([getattr(s, name) for s in per_set])
            vals = vals[np.isfinite(vals)]
            mean, std = (float(vals.mean()), vals.std()) if vals.size else (float("nan"), float("nan"))
            fh.write(f"aggregate_{name},{_fmt(mean)},{_fmt(std)},,\n")
            summary[name] = mean
    summary["singular_V"] = sum(s.n_singular_V for s in per_set)
    print(json.dumps(summary))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="attnsim", description="Self-attention token-dynamics simulator and verifier")
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=".", help="output directory (created if missing)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        with _section("--out"):
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

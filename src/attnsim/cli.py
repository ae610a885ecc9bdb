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
import functools
import json
import os
import sys
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import analyze
from .analyze import run_checks  # by name: perfbench's `cli.run_checks` span wraps it here
from .dynamics import rhs_for, rhs_vanilla, sinusoidal_encoding
from .errors import AttnSimError, ConfigError
from .integrate import IntegratorConfig, integrate, stable_step  # stable_step unused: perfbench's span wraps `cli.stable_step`
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

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_MATH = 3


def _fmt(x: float) -> str:
    return FLOAT_FORMAT % float(x)


@contextlib.contextmanager
def _section(where: str):
    """Turn a ValueError, TypeError, OverflowError or OSError raised while a
    config section is read or built into ConfigError, the one path to exit 2."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError, OSError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _read(cfg, where: str, required: set[str], **convert) -> dict:
    """One config section's keys, each converted by convert[key] under its own
    path (where.key). convert names every key the section may have, required
    those it must have; an absent key is left out, so the callee's default applies."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(cfg) - set(convert)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(cfg)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    read = {}
    for key, fn in convert.items():
        if key in cfg:
            with _section(f"{where}.{key}"):
                read[key] = fn(cfg[key])
    return read


def _kind(cfg, where: str, kinds, key: str = "kind") -> tuple[str, dict]:
    """The kind a section names under key, one of kinds, and the section's other keys."""
    rest = _read(cfg, where, {key}, **dict.fromkeys(cfg if isinstance(cfg, dict) else (), _as_is))
    kind = rest.pop(key)
    if kind not in kinds:
        raise ConfigError(f"{where}.{key} must be one of {'/'.join(kinds)}, got {kind!r}")
    return kind, rest


def _as_is(value):
    """A value checked where it is used: a section, the mode or a kind."""
    return value


def _integer(value) -> int:
    """A whole number, such as 3 or 3.0; not 2.7, "3" or true."""
    if isinstance(value, int) and not isinstance(value, bool) or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _real(value) -> float:
    """A number, such as 0.05 or 1; not "0.05" or true."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"expected a number, got {value!r}")


def _tolerance(value) -> float:
    """A finite number >= 0, such as 1e-3 or 0; not NaN, Infinity or -1."""
    if 0 <= _real(value) < np.inf:
        return float(value)
    raise ValueError(f"expected a finite number >= 0, got {value!r}")


def _boolean(value) -> bool:
    """true or false; not "false" or 0."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _object(value) -> dict:
    """A JSON object; not a list of pairs."""
    if not isinstance(value, dict):
        raise ValueError(f"expected an object, got {value!r}")
    return value


def _array(value, ndim: int) -> np.ndarray:
    """An ndim-deep JSON array of finite numbers, rows of one length; no strings or booleans."""
    A = np.array(value, dtype=object)
    if A.ndim != ndim or not all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, A.flat))):
        raise ValueError(f"expected a {ndim}-d array of numbers")
    A = A.astype(float)
    if not np.isfinite(A).all():
        raise ValueError("entries must be finite")
    return A


_matrix = functools.partial(_array, ndim=2)
_vector = functools.partial(_array, ndim=1)


def _lambda_mod(cfg) -> LambdaMod:
    read = _read(cfg, "params.rope.lambda_mod", {"kind", "lambda"}, kind=LambdaKind, diag=_vector, **{"lambda": _real})
    return LambdaMod(lam=read.pop("lambda"), **read)


def _rope(cfg) -> RopeParams:
    read = _read(cfg, "params.rope", {"Qbar", "Kbar"}, Qbar=_matrix, Kbar=_matrix, theta_base=_real, lambda_mod=_lambda_mod)
    return RopeParams(**read)


def build_params(cfg: dict, where: str = "params") -> ModelParams:
    """The model a params section names; errors are reported under where."""
    kind, cfg = _kind(cfg, where, ("scenario", "random", "matrices", "effective"))
    with _section(where):
        if kind == "scenario":
            spec = _read(cfg, where, {"scenario", "D", "seed"}, scenario=Scenario, D=_integer, seed=_integer, symmetric=_boolean)
            return build_scenario(ScenarioSpec(**spec))
        if kind == "random":
            return random_params(**_read(cfg, where, {"D", "seed"}, D=_integer, seed=_integer, scale=_real))
        if kind == "matrices":
            read = _read(cfg, where, {"Q", "K", "V"}, Q=_matrix, K=_matrix, V=_matrix, dk=_integer, rope=_rope)
            return ModelParams(D=read["Q"].shape[0], Dk=read.pop("dk", None), **read)
        read = _read(cfg, where, {"W"}, W=_matrix, A=_matrix, V=_matrix)
        if ("A" in read) == ("V" in read):
            raise ConfigError(f"{where}.effective: give exactly one of A or V")
        return params_from_w_and_a(read["W"], read["A"]) if "A" in read else params_from_w_and_v(read["W"], read["V"])


def build_positions(cfg: dict, params: ModelParams, L: int) -> np.ndarray | None:
    """The absolute position table the posenc section names, or None for
    the vanilla and rotary fields. Rotary encoding comes with rope
    parameters, and rope parameters only with rotary encoding."""
    kind, cfg = _kind(cfg, "posenc", ("given", "none", "rotary", "sinusoidal"))
    P = _read(cfg, "posenc", set(), rows=_matrix).get("rows")
    if (P is None) == (kind == "given"):
        raise ConfigError("posenc.rows is required with kind = given and valid only there")
    if P is not None and P.shape != (L, params.D):
        raise ConfigError(f"posenc.rows {P.shape} do not match (L, D) = ({L}, {params.D})")
    if (kind == "rotary") != (params.rope is not None):
        raise ConfigError("posenc: rope parameters must be present exactly when posenc is rotary")
    return sinusoidal_encoding(L, params.D) if kind == "sinusoidal" else P


def build_tokens(cfg: dict, D: int, where: str = "tokens") -> np.ndarray:
    kind, cfg = _kind(cfg, where, ("explicit", "random", "cluster"))
    with _section(where):
        if kind == "explicit":
            X0 = _read(cfg, where, {"rows"}, rows=_matrix)["rows"]
        elif kind == "random":
            read = _read(cfg, where, {"L", "seed"}, L=_integer, seed=_integer, scale=_real)
            X0 = read.get("scale", 1.0) * generator(read["seed"]).standard_normal((read["L"], D))
        else:
            # tight cluster: seeded mean direction scaled to mean_norm, plus
            # Gaussian offsets of std spread * mean_norm
            read = _read(cfg, where, {"L", "seed"}, L=_integer, seed=_integer, mean_norm=_real, spread=_real, direction=_vector)
            rng = generator(read["seed"])
            mean_norm = read.get("mean_norm", 1.0)
            m = read["direction"] if "direction" in read else rng.standard_normal(D)
            if m.shape != (D,) or not m.any():
                raise ConfigError(f"{where}.direction must have {D} entries, not all zero")
            m = m * (mean_norm / np.linalg.norm(m))
            X0 = m + read.get("spread", 1e-4) * mean_norm * rng.standard_normal((read["L"], D))
    if X0.shape[1] != D:
        raise ConfigError(f"{where} have dimension {X0.shape[1]}, params have D={D}")
    if X0.shape[0] < 1:
        raise ConfigError(f"{where}: need at least one token")
    if not np.isfinite(X0).all():
        raise ConfigError(f"{where}: entries must be finite")
    return X0


def build_integrator(cfg: dict) -> IntegratorConfig:
    with _section("integrator"):
        return IntegratorConfig(**_read(cfg, "integrator", set(), h=_real, T=_real, record_stride=_integer, blowup_norm=_real))


def load_config(path: str) -> dict:
    """The config's root: schema_version, its mode, and any of the sections MODES lists for that mode."""
    with _section("config"), open(path) as fh:
        mode, root = _kind(json.load(fh), "config", tuple(MODES), key="mode")
    sections, _ = MODES[mode]
    if unread := set(root) - {"schema_version", *sections}:
        raise ConfigError(f"config: a {mode} run reads {', '.join(sections)}, not {', '.join(sorted(unread))}")
    cfg = _read(root, "config", {"schema_version"}, schema_version=_integer, **dict.fromkeys(sections, _as_is))
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"config: unsupported schema_version {cfg['schema_version']!r} (expected {SCHEMA_VERSION})")
    return {"mode": mode, **cfg}


def _prepare_run(cfg: dict):
    params = build_params(cfg.get("params", {}))
    X0 = build_tokens(cfg.get("tokens", {}), params.D)
    P = build_positions(cfg.get("posenc", {"kind": "none"}), params, X0.shape[0])
    icfg = build_integrator(cfg.get("integrator", {}))
    return params, X0, icfg, rhs_for(params, P), P


def _csv_line(values) -> str:
    """One CSV line: each float in FLOAT_FORMAT, so that it reads back bit for bit, anything else by str."""
    return ",".join([FLOAT_FORMAT % v if isinstance(v, float) else str(v) for v in values]) + "\n"


def _write_csv(path: str, columns, rows):
    """A new CSV at path: the header columns, then one _csv_line per row of values."""
    with open(path, "w") as fh:
        fh.writelines(map(_csv_line, [columns, *rows]))


METRICS_COLUMNS = ("t", "mean_norm", "mean_pairwise_dist")
SUMMARY_COLUMNS = ("pos_eigs_Wsym", "pos_eigs_Asym", "n", "converged_rate", "diverged_rate", "undecided_rate")
SPECTRA_COLUMNS = ("set", "pct_pos_Wsym", "pct_pos_Asym", "pct_near_zero_V", "singular_V")
SEEDS_COLUMNS = ("seed", "pos_eigs_Wsym", "pos_eigs_Asym", "regime", "mean_norm_ratio", "terminated", "T", "h", "max_re_eig_V")


def _metrics_rows(metrics):
    return zip(metrics.times.tolist(), metrics.mean_token_norm.tolist(), metrics.mean_pairwise_dist.tolist())


def write_metrics_csv(path, metrics):
    _write_csv(path, METRICS_COLUMNS, _metrics_rows(metrics))


def _write_trajectory_rows(fh, traj):
    _, L, D = traj.states.shape
    tail = ("," + FLOAT_FORMAT) * D + "\n"
    rows = [f",{l}{tail}" for l in range(L)]
    for t, X in zip(traj.times, traj.states):
        head = _fmt(t)  # digits, sign, point and exponent: no % to clash with the template
        fh.write((head + head.join(rows)) % tuple(X.ravel().tolist()))  # one template per sample, all L rows


@contextlib.contextmanager
def _rows_in_process(path: str, D: int):
    """A new trajectory CSV at path, and the function that appends one block's rows to it. Unlike
    the other CSVs, each sample's L rows are one %.17g template: _csv_line per row takes about 40 % longer."""
    with open(path, "w") as fh:
        fh.write(_csv_line(("t", "token_index", *(f"x_{j}" for j in range(D)))))
        yield functools.partial(_write_trajectory_rows, fh)


def write_trajectory_csv(path, traj):
    with _rows_in_process(path, traj.states.shape[2]) as write_rows:
        write_rows(traj)


def _send_block(fd: int, block):
    """One block to the row writer: its sample count, then its times and states as raw float64."""
    for part in (len(block.times).to_bytes(8, sys.byteorder), block.times, block.states):
        view = memoryview(part).cast("B")
        while view:  # a signal may cut a pipe write short
            view = view[os.write(fd, view):]


def _write_rows_from(fd: int, path: str, L: int, D: int, block: int):
    """The row writer's loop: reads the blocks _send_block wrote to fd until end of
    file and writes their rows to a new trajectory CSV at path, one block in memory."""
    times, states = np.empty(block), np.empty((block, L, D))
    with open(fd, "rb") as pipe, _rows_in_process(path, D) as write_rows:
        while count := pipe.read(8):
            n = int.from_bytes(count, sys.byteorder)
            parts = times[:n], states[:n]
            if len(count) < 8 or not 0 < n <= block or any(pipe.readinto(part) < part.nbytes for part in parts):
                raise EOFError("trajectory rows: truncated or malformed block")
            write_rows(SimpleNamespace(times=parts[0], states=parts[1]))


@contextlib.contextmanager
def _rows_in_child(path: str, L: int, D: int, block: int):
    """_rows_in_process, with the rows formatted by a forked child process, so
    that the 17-digit formatting runs on another core while the caller integrates.
    The child leaves by os._exit: it never runs the parent's atexit handlers or
    flushes its buffers. Leaving the block reaps the child; a child that failed
    fails the run with ChildProcessError."""
    read_end, write_end = os.pipe()
    try:
        # Python >= 3.12 warns after forking a process with threads (OpenBLAS's); as an error, it would strand
        # the child on the pipe. Safe here: the child makes no BLAS call, and glibc resets the malloc locks at fork.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(write_end)  # the parent's close is then the end of file
            _write_rows_from(read_end, path, L, D, block)
            status = 0
        except BaseException as exc:
            os.write(2, f"trajectory writer: {exc!r}\n".encode())
        finally:
            os._exit(status)
    os.close(read_end)
    broken = False
    try:
        yield functools.partial(_send_block, write_end)
    except BrokenPipeError:  # the child is gone; its status says how
        broken = True
    finally:
        os.close(write_end)
        _, status, _ = os.wait4(pid, 0)
    if broken or status:
        raise ChildProcessError(f"trajectory writer exited with status {os.waitstatus_to_exitcode(status)}")


class _SampleStream:
    """integrate's sink for simulate: fills one metrics block of samples, then
    hands the block to rows (trajectory.csv, in process or in the row writer)
    and appends its metrics rows to metrics_fh."""

    def __init__(self, rows, metrics_fh, n: int, L: int, D: int):
        self.rows, self.metrics_fh = rows, metrics_fh
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
            self.rows(block)
            self.metrics_fh.writelines(map(_csv_line, _metrics_rows(analyze.trajectory_metrics(block))))
            self.filled = 0


def run_simulate(cfg: dict, out_dir: str, jobs: int = 1) -> int:
    """Integrates and streams trajectory.csv and metrics.csv a metrics block at a
    time. A run of more than one block has its trajectory rows formatted by one
    forked child process (_rows_in_child) while this process integrates and
    writes the metrics; a one-block run, or a platform without os.fork, formats
    them here. jobs, which only sweeps read, does not change this."""
    _, X0, icfg, rhs, _ = _prepare_run(cfg)
    L, D = X0.shape
    block = min(analyze.metrics_block_samples(L, D), icfg.n_samples)
    paths = [os.path.join(out_dir, name) for name in ("trajectory.csv", "metrics.csv")]
    partial = [path + ".partial" for path in paths]  # renamed on success: a failed run leaves no CSV
    if hasattr(os, "fork") and block < icfg.n_samples:  # a one-block run writes its rows once, at the end: nothing to overlap
        rows = _rows_in_child(partial[0], L, D, block)
    else:
        rows = _rows_in_process(partial[0], D)
    try:
        # rows first (entering forks): a child forked later would inherit the metrics file's buffer
        with rows as write_rows, open(partial[1], "w") as metrics_fh:
            metrics_fh.write(_csv_line(METRICS_COLUMNS))
            stream = _SampleStream(write_rows, metrics_fh, block, L, D)
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


def run_verify(cfg: dict, out_dir: str, jobs: int = 1) -> int:
    tolerances = analyze.resolve_tolerances(cfg.get("verify", {}))
    params, X0, icfg, rhs, P = _prepare_run(cfg)
    traj = integrate(rhs, X0, icfg)
    report = run_checks(traj, params, P, tolerances)

    text = report.to_text()
    print(text)
    print(f"regime: {analyze.classify_regime(traj).value}")
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(text + "\n")
    _write_csv(os.path.join(out_dir, "report.csv"), analyze.REPORT_COLUMNS, report.to_records())
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


@dataclass(frozen=True)
class SweepPlan:
    """The sweep section, parsed once: the seed window, the horizon and step bounds, and the
    params, tokens and integrator sections that each seed's run is built from."""

    params: dict  # build_params' section, less the seed: kind random (D, scale) or scenario (scenario, D, symmetric)
    seed_count: int
    seed_start: int = 0
    tokens: dict = field(default_factory=lambda: {"kind": "cluster", "L": 4})
    integrator: dict = field(default_factory=dict)  # blowup_norm, when given
    horizon: float | None = None  # None: from the slowest mean-mode rate of V
    h_cap: float = 5e-2
    t_max: float = 1500.0


def build_sweep_plan(cfg: dict) -> SweepPlan:
    read = _read(
        cfg, "sweep", {"D", "seed_count"}, D=_integer, seed_count=_integer, seed_start=_integer, scale=_real, symmetric=_boolean,
        tokens=_object, scenario=lambda s: s if s == "random" else Scenario(s).value,
        horizon=lambda v: None if v == "auto" else _real(v), h_cap=_real, t_max=_real, blowup_norm=_real,
    )
    for key, least in (("seed_count", 1), ("seed_start", 0), ("D", 2)):
        if read.get(key, least) < least:
            raise ConfigError(f"sweep.{key} must be >= {least}")
    if not (all(read.get(key, 1.0) > 0 for key in ("t_max", "blowup_norm"))
            and all(read.get(key) is None or 0 < read[key] < np.inf for key in ("scale", "horizon", "h_cap"))):
        raise ConfigError("sweep: scale, h_cap, t_max, blowup_norm and horizon must be positive, scale, h_cap and horizon finite")
    scenario = read.pop("scenario", "random")  # random_params takes a scale, a named scenario symmetric
    if scenario == "random":
        params, unread = {"kind": "random"}, "symmetric"
    else:
        params, unread = {"kind": "scenario", "scenario": scenario}, "scale"
    if unread in read:
        raise ConfigError(f"sweep.{unread}: scenario {scenario} takes no {unread}")
    params.update((key, read.pop(key)) for key in ("D", "scale", "symmetric") if key in read)
    integrator = {"blowup_norm": read.pop("blowup_norm")} if "blowup_norm" in read else {}
    plan = SweepPlan(params=params, integrator=integrator, **read)
    if "seed" in plan.tokens:
        raise ConfigError("sweep.tokens: no seed; each token seed is derived from its sweep seed")
    if plan.tokens.get("kind") == "explicit":
        raise ConfigError("sweep.tokens: kind explicit takes no seed, but a sweep draws each seed's tokens (random or cluster)")
    # the first seed's tokens, built here so that a bad section fails before any run
    build_tokens({"seed": _token_seed(plan.seed_start), **plan.tokens}, plan.params["D"], "sweep.tokens")
    return plan


def _token_seed(seed: int) -> int:
    """Keyed by the parameter seed alone, so a seed's row does not depend on its sweep window."""
    return spawn_seeds(seed + 7_777_777, 1)[0]


def _sweep_one(args):
    plan, seed, token_seed = args
    params = build_params({**plan.params, "seed": seed}, f"sweep: seed {seed}")
    W, A = derive_W_A(params)
    X0 = build_tokens({"seed": token_seed, **plan.tokens}, params.D, "sweep.tokens")
    h, T, stride, rates = analyze.sweep_schedule(params.V, plan.h_cap, plan.t_max, plan.horizon)
    traj = integrate(lambda X: rhs_vanilla(params, X), X0, IntegratorConfig(h=h, T=T, record_stride=stride, **plan.integrator))
    return {"seed": seed, **analyze.sweep_row(traj, W, A, rates)}


def run_sweep(cfg: dict, out_dir: str, jobs: int) -> int:
    plan = build_sweep_plan(cfg.get("sweep", {}))
    work = [(plan, s, _token_seed(s)) for s in range(plan.seed_start, plan.seed_start + plan.seed_count)]
    workers = min(jobs, len(work))  # the pool forks all its workers at the first submit, needed or not
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only parallel sweeps pay for the import
        # map forks the workers: there, as in _rows_in_child, Python >= 3.12's fork warning must not raise and strand them
        with ProcessPoolExecutor(max_workers=workers) as pool, warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            rows = list(pool.map(_sweep_one, work))
    else:
        rows = [_sweep_one(w) for w in work]

    _write_csv(os.path.join(out_dir, "seeds.csv"), SEEDS_COLUMNS, ([r[c] for c in SEEDS_COLUMNS] for r in rows))

    cells: dict[tuple[int, int], dict[str, int]] = {}
    for r in rows:
        cell = cells.setdefault((r["pos_eigs_Wsym"], r["pos_eigs_Asym"]), {"converged": 0, "diverged": 0, "undecided": 0})
        cell[r["regime"]] += 1
    _write_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_COLUMNS,  # n, then the converged, diverged and undecided rates
               [(pw, pa, sum(c.values()), *(k / sum(c.values()) for k in c.values())) for (pw, pa), c in sorted(cells.items())])
    totals = {k: sum(c[k] for c in cells.values()) for k in ("converged", "diverged", "undecided")}
    print(json.dumps({"mode": "sweep", "n": len(rows), **totals}))
    return EXIT_OK


def _matrix_file(path) -> np.ndarray:
    """The matrix in the file a JSON string names."""
    if not isinstance(path, str):
        raise ValueError(f"expected a file path, got {path!r}")
    return load_matrix(path)


def _matrix_sets(sets) -> list[dict]:
    """spectra.sets: a nonempty list of {Q, K, V} file paths, each matrix loaded."""
    if not isinstance(sets, list) or not sets:
        raise ValueError("expected a nonempty list")
    return [_read(entry, f"spectra.sets[{i}]", {"Q", "K", "V"}, Q=_matrix_file, K=_matrix_file, V=_matrix_file)
            for i, entry in enumerate(sets)]


def run_spectra(cfg: dict, out_dir: str, jobs: int = 1) -> int:
    options = _read(cfg.get("spectra", {}), "spectra", {"sets"}, eps=_tolerance, sets=_matrix_sets)
    per_set = [eigen_stats(s["Q"], s["K"], s["V"], **options) for s in options.pop("sets")]  # options keep eps alone
    # the aggregates are over the per-set percentages; A_sym has none where V is singular
    summary = {"mode": "spectra", "n_sets": len(per_set)}
    rows = [(i, s.pct_pos_Wsym, s.pct_pos_Asym, s.pct_near_zero_V, s.n_singular_V) for i, s in enumerate(per_set)]
    for name in ("pct_pos_Wsym", "pct_pos_Asym", "pct_near_zero_V"):
        vals = np.array([getattr(s, name) for s in per_set])
        vals = vals[np.isfinite(vals)]
        mean, std = (float(vals.mean()), float(vals.std())) if vals.size else (float("nan"), float("nan"))
        rows.append((f"aggregate_{name}", mean, std, "", ""))
        summary[name] = mean
    _write_csv(os.path.join(out_dir, "spectra.csv"), SPECTRA_COLUMNS, rows)
    summary["singular_V"] = sum(s.n_singular_V for s in per_set)
    print(json.dumps(summary))
    return EXIT_OK


MODES = {  # each mode's config sections and its runner, run(cfg, out_dir, jobs); only a sweep spreads runs over jobs
    "simulate": (("params", "posenc", "tokens", "integrator"), run_simulate),
    "verify": (("params", "posenc", "tokens", "integrator", "verify"), run_verify),
    "sweep": (("sweep",), run_sweep),
    "spectra": (("spectra",), run_spectra),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="attnsim", description="Self-attention token-dynamics simulator and verifier")
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=".", help="output directory (created if missing)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"argument --jobs: must be at least 1, got {args.jobs}")

    try:
        cfg = load_config(args.config)
        with _section("--out"):
            os.makedirs(args.out, exist_ok=True)
        return MODES[cfg["mode"]][1](cfg, args.out, args.jobs)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AttnSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())

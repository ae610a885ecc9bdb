"""Spans around attnsim's public functions, recorded from outside.

A Tracer replaces each instrumented function at every module attribute the
CLI looks it up through, records a span per call, and restores the
originals on exit. Spans keep (name, start, end, parent, operation id);
the high-frequency layers (RK4 steps, right-hand sides, hull queries) are
folded into one aggregate per (parent span, name) to keep the overhead and
the memory small. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
from time import perf_counter

# (span name, [(module, attribute), ...], aggregated). A function imported
# by name into another module is listed once per module that looks it up.
SITES = [
    ("cli.main", [("cli", "main")], False),
    ("integrate.integrate", [("cli", "integrate")], False),
    ("integrate.rk4_step", [("integrate", "rk4_step")], True),
    ("integrate.stable_step", [("cli", "stable_step")], True),
    ("dynamics.rhs_vanilla", [("dynamics", "rhs_vanilla"), ("cli", "rhs_vanilla")], True),
    ("dynamics.rhs_rotary", [("dynamics", "rhs_rotary")], True),
    ("params.build_scenario", [("cli", "build_scenario")], False),
    ("params.derive_W_A", [("cli", "derive_W_A"), ("analyze", "derive_W_A"), ("params", "derive_W_A")], True),
    ("quadspace.simplex_distance", [("quadspace", "simplex_distance")], True),
    ("quadspace.matexp", [("quadspace", "matexp")], True),
    ("quadspace.classify_definiteness", [("quadspace", "classify_definiteness")], True),
    ("cli.run_checks", [("cli", "run_checks")], False),
    ("analyze.trajectory_metrics", [("analyze", "trajectory_metrics")], False),
    ("cli.write_trajectory_csv", [("cli", "write_trajectory_csv")], False),
    ("cli.write_metrics_csv", [("cli", "write_metrics_csv")], False),
] + [
    (f"analyze.{name}", [("analyze", name)], False)
    for name in (
        "check_distance_monotonicity",
        "check_quadratic_form_bounds",
        "check_convergence",
        "check_divergence_projection",
        "check_hull_containment",
        "check_stationarity",
        "check_absolute_limit",
        "check_derivative_decay",
    )
]


def rhs_flop(L: int, D: int) -> int:
    """Nominal flops of one attention right-hand side: the logits X W X^T
    (2LD^2 + 2L^2D) and the output (P X) V (2L^2D + 2LD^2). Used for both
    fields, so it measures the field, not the implementation."""
    return 4 * L * D * D + 4 * L * L * D


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, child_s]
        self.aggregates: dict[tuple[int, str], list] = {}  # -> [calls, total_s, child_s]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # open calls: [start, child_s]
        self._full: list[int] = []  # indices of open full spans
        self._saved: list[tuple] = []
        self.op = None

    def _count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _observe(self, name, args, kwargs, result, fn):
        # counts taken at the layer boundary from arguments and results
        if name.startswith("dynamics.rhs_"):
            L, D = args[1].shape if len(args) > 1 else kwargs["X"].shape
            self._count("dynamics.rhs.flop", rhs_flop(L, D))
        elif name == "integrate.integrate" and result.terminated.value == "blow_up":
            self._count("integrate.blowup_runs")
        elif name == "integrate.stable_step":
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            if result < bound.arguments["cap"]:
                self._count("integrate.h_capped")
        elif name == "cli.write_trajectory_csv":
            self._count("cli.write_trajectory_csv.bytes", os.path.getsize(args[0]))

    def _wrap(self, name, fn, aggregated):
        stack, full, spans = self._stack, self._full, self.spans

        def traced(*args, **kwargs):
            index = None
            if not aggregated:
                index = len(spans)
                spans.append([name, 0.0, 0.0, full[-1] if full else None, self.op, 0.0])
                full.append(index)
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                start, child = frame
                if stack:
                    stack[-1][1] += end - start
                if aggregated:
                    agg = self.aggregates.setdefault((full[-1] if full else -1, name), [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += end - start
                    agg[2] += child
                else:
                    full.pop()
                    spans[index][1:3] = [start, end]
                    spans[index][5] = child
            self._observe(name, args, kwargs, result, fn)
            return result

        return traced

    def __enter__(self):
        for name, sites, aggregated in SITES:
            for mod, attr in sites:
                module = importlib.import_module(f"attnsim.{mod}")
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, aggregated))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def totals(self) -> dict[str, list]:
        """name -> [calls, total_s, self_s] over every span recorded."""
        out: dict[str, list] = {}
        for name, start, end, _, _, child in self.spans:
            t = out.setdefault(name, [0, 0.0, 0.0])
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child
        for (_, name), (calls, total, child) in self.aggregates.items():
            t = out.setdefault(name, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += total
            t[2] += total - child
        return out

    def dump(self, path: str, environment: dict):
        with open(path, "w") as fh:
            json.dump({
                "environment": environment,
                "span_fields": ["name", "start", "end", "parent", "op", "child_s"],
                "spans": self.spans,
                "aggregate_fields": ["parent", "name", "calls", "total_s", "child_s"],
                "aggregates": [[p, n, *v] for (p, n), v in self.aggregates.items()],
                "counters": self.counters,
            }, fh)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per pass, named by module, with units."""
    t = tracer.totals()
    c = tracer.counters
    get = lambda name, i: t.get(name, [0, 0.0, 0.0])[i] / passes  # noqa: E731
    per = lambda total, calls: 1e6 * total / calls if calls else 0.0  # noqa: E731
    rhs_s = get("dynamics.rhs_vanilla", 1) + get("dynamics.rhs_rotary", 1)
    gflop = c.get("dynamics.rhs.flop", 0) / passes / 1e9
    m = {
        "integrate.integrate.s": (get("integrate.integrate", 1), "s"),
        "integrate.self_s": (get("integrate.integrate", 2), "s"),
        "integrate.rk4_step.calls": (get("integrate.rk4_step", 0), "count"),
        "integrate.rk4_step.self_s": (get("integrate.rk4_step", 2), "s"),
        "integrate.us_per_step": (per(get("integrate.integrate", 1), get("integrate.rk4_step", 0)), "us"),
        "integrate.h_capped": (c.get("integrate.h_capped", 0) / passes, "count"),
        "integrate.blowup_runs": (c.get("integrate.blowup_runs", 0) / passes, "count"),
        "dynamics.rhs.gflop_computed": (gflop, "GFLOP"),
        "dynamics.rhs.gflops_computed": (gflop / rhs_s if rhs_s else 0.0, "GFLOP/s"),
        "cli.run_checks.self_s": (get("cli.run_checks", 2), "s"),
        "quadspace.classify_definiteness.calls": (get("quadspace.classify_definiteness", 0), "count"),
        "cli.write_trajectory_csv.bytes": (c.get("cli.write_trajectory_csv.bytes", 0) / passes, "bytes"),
    }
    for name in ("dynamics.rhs_vanilla", "dynamics.rhs_rotary", "quadspace.simplex_distance"):
        m[f"{name}.calls"] = (get(name, 0), "count")
        m[f"{name}.s"] = (get(name, 1), "s")
        m[f"{name}.us_per_call"] = (per(get(name, 1), get(name, 0)), "us")
    for name in ("params.build_scenario", "params.derive_W_A", "quadspace.matexp"):
        m[f"{name}.calls"] = (get(name, 0), "count")
        m[f"{name}.s"] = (get(name, 1), "s")
    for name in (
        "analyze.check_hull_containment",
        "analyze.check_divergence_projection",
        "analyze.check_distance_monotonicity",
        "analyze.check_quadratic_form_bounds",
        "analyze.check_stationarity",
        "analyze.trajectory_metrics",
        "cli.write_trajectory_csv",
        "cli.write_metrics_csv",
    ):
        m[f"{name}.s"] = (get(name, 1), "s")
    return m

"""Experiment drivers and the ``saddle-escape`` command-line front end.

Four experiments, selected by subcommand:

- ``avoidance``: Monte Carlo over random initializations; counts terminal
  classes and how many trajectories actually converge to a strict saddle.
- ``fig1``: one gradient-descent run per step schedule (1/sqrt(k), 1/k,
  1/k^4) from a shared initial point on x^2 - y^2, with per-step CSVs and
  the qualitative assertions (two escapes, ordered; one non-critical limit).
- ``chart``: certify contraction at a saddle and export the computed stable
  manifold chart plus the certificate summary.
- ``run`` (``single_run`` in configs): one trajectory from an explicit init.

Configs are JSON (schema = ExperimentConfig).  Exit codes: 0 success,
1 experiment assertion failed, 2 configuration error.

Reproducibility: per-trial RNG substreams come from a splittable seed
construction (SeedSequence spawn keys), and CSV numbers are written as
shortest round-trip decimals, so identical config + seed gives byte-identical
numeric output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import objectives
from . import schedules as sched_mod
from .lyapunov_perron import (CertificateError, LyapunovError, chart,
                              remainder_from_objective)
from .methods import (BUDGET_EXHAUSTED, CONVERGED_TO_POINT, ESCAPED_REGION,
                      METHOD_IDS, STEP_ERROR, MethodError, RiemannianMetric,
                      TrajectoryRecord, constant_metric, run, run_batch)
from .objectives import Objective, classify_critical_point

__all__ = [
    "ConfigError",
    "ExperimentAssertionError",
    "ExperimentConfig",
    "AvoidanceReport",
    "build_objective",
    "avoidance_experiment",
    "fig1_experiment",
    "chart_experiment",
    "single_run_experiment",
    "emit_plot_data",
    "main",
    "SADDLE_PROXIMITY",
]

SADDLE_PROXIMITY = 1e-4  # "converged to the saddle" needs the limit this close
EXPERIMENTS = ("avoidance", "fig1", "chart", "single_run")

# figure-1 schedules; offsets keep alpha_0 * lambda_max away from the
# degenerate factor -1 for the harmonic case (lambda_max = 2 on x^2 - y^2)
FIG1_SCHEDULES = (
    ("sqrt", {"kind": "power", "c": 1.0, "p": 0.5, "offset": 1}),
    ("harmonic", {"kind": "power", "c": 1.0, "p": 1.0, "offset": 2}),
    ("quartic", {"kind": "power", "c": 1.0, "p": 4.0, "offset": 1}),
)

_TERMINAL_KINDS = (ESCAPED_REGION, CONVERGED_TO_POINT, BUDGET_EXHAUSTED, STEP_ERROR)


class ConfigError(ValueError):
    """Bad experiment configuration (unknown keys, invalid values, bad JSON)."""


class ExperimentAssertionError(RuntimeError):
    """An experiment's stated outcome did not hold; artifacts are retained."""

    def __init__(self, message: str, records=None):
        super().__init__(message)
        self.records = records


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_CONFIG_FIELDS = {
    "experiment", "method_id", "objective", "schedule", "trials", "seed",
    "init_box", "budget", "conv_tol", "escape_radius", "stride", "output_dir",
    "init", "grad_tol", "eig_tol", "window", "metric", "chart",
}

_CHART_FIELDS = {
    "delta0", "epsilon", "max_halvings", "horizon", "horizon_cap", "fp_tol",
    "fp_budget", "grid_points", "grid_halfwidth", "critical_point",
}


@dataclass
class ExperimentConfig:
    """Validated experiment description (see module docstring for the JSON form)."""

    experiment: str
    method_id: str = "gd"
    objective: dict = field(default_factory=lambda: {"name": "fig1"})
    schedule: dict = field(default_factory=lambda: {"kind": "power", "c": 1.0,
                                                    "p": 1.0, "offset": 2})
    trials: int = 1000
    seed: int = 0
    init_box: list = field(default_factory=lambda: [[-1.0, 1.0], [-1.0, 1.0]])
    budget: int = 100_000
    conv_tol: float = 1e-9
    escape_radius: float = 1e3
    stride: int = 10
    output_dir: str = "."
    init: Optional[list] = None
    grad_tol: float = 1e-8
    eig_tol: float = 1e-8
    window: int = 50
    metric: Optional[list] = None
    chart: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if self.method_id not in METHOD_IDS:
            raise ConfigError(f"method_id must be one of {METHOD_IDS}, got {self.method_id!r}")
        for name in ("trials", "budget", "stride", "window"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {v!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or \
                not (0 <= self.seed < 2 ** 64):
            raise ConfigError(f"seed must be a 64-bit nonnegative integer, got {self.seed!r}")
        for name in ("conv_tol", "escape_radius", "grad_tol", "eig_tol"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0
                    and math.isfinite(v)):
                raise ConfigError(f"{name} must be a positive finite number, got {v!r}")
        box = self.init_box
        if not isinstance(box, (list, tuple)) or len(box) == 0:
            raise ConfigError("init_box must be a nonempty list of [low, high] pairs")
        for i, pair in enumerate(box):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ConfigError(f"init_box[{i}] must be a [low, high] pair, got {pair!r}")
            lo, hi = pair
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ConfigError(f"init_box[{i}] needs finite low <= high, got {pair!r}")
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string path, got {self.output_dir!r}")
        if not isinstance(self.objective, dict):
            raise ConfigError(f"objective must be a JSON object, got {self.objective!r}")
        if not isinstance(self.schedule, dict):
            raise ConfigError(f"schedule must be a JSON object, got {self.schedule!r}")
        if not isinstance(self.chart, dict):
            raise ConfigError(f"chart must be a JSON object, got {self.chart!r}")
        extra = set(self.chart) - _CHART_FIELDS
        if extra:
            raise ConfigError(f"unknown chart option(s): {sorted(extra)}")

    @classmethod
    def from_dict(cls, data: dict, default_experiment: Optional[str] = None) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
        payload = dict(data)
        if "experiment" not in payload:
            if default_experiment is None:
                raise ConfigError("config is missing the 'experiment' field")
            payload["experiment"] = default_experiment
        try:
            return cls(**payload)
        except TypeError as err:
            raise ConfigError(str(err)) from err

    @classmethod
    def from_json(cls, path: str, default_experiment: Optional[str] = None) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config {path} is not valid JSON: {err}") from err
        return cls.from_dict(data, default_experiment=default_experiment)


def build_objective(spec: dict) -> Objective:
    """Instantiate an objective from its config form.

    Supported: {"name": "fig1"}, {"name": "quadratic", "matrix": [[...]]},
    {"name": "cubic", "a": 0.1}.
    """
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError(f"objective spec needs a 'name' field, got {spec!r}")
    name = spec["name"]
    keys = set(spec) - {"name"}
    if name == "fig1":
        if keys:
            raise ConfigError(f"fig1 objective takes no extra fields, got {sorted(keys)}")
        return objectives.fig1()
    if name == "quadratic":
        if keys != {"matrix"}:
            raise ConfigError("quadratic objective needs exactly a 'matrix' field")
        try:
            return objectives.quadratic(np.asarray(spec["matrix"], dtype=float))
        except (TypeError, ValueError) as err:  # ObjectiveError is a ValueError
            raise ConfigError(f"bad quadratic matrix: {err}") from err
    if name == "cubic":
        if keys != {"a"}:
            raise ConfigError("cubic objective needs exactly an 'a' field")
        try:
            return objectives.cubic_perturbed_saddle(float(spec["a"]))
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad cubic coefficient: {err}") from err
    raise ConfigError(f"unknown objective name {name!r}")


def _build_schedule(spec: dict) -> sched_mod.StepSchedule:
    try:
        return sched_mod.from_config(spec)
    except (TypeError, ValueError) as err:  # ScheduleError is a ValueError
        raise ConfigError(f"bad schedule: {err}") from err


def _build_metric(cfg: ExperimentConfig, obj: Objective) -> Optional[RiemannianMetric]:
    if cfg.metric is None:
        return None
    d = obj.dimension
    try:
        M = np.asarray(cfg.metric, dtype=float)
        if M.shape != (d, d):
            raise MethodError(f"expected a {d}x{d} matrix, got shape {M.shape}")
        return constant_metric(M)
    except (TypeError, ValueError, MethodError) as err:
        raise ConfigError(f"bad metric {cfg.metric!r}: {err}") from err


def _point(value, dim: int, name: str) -> np.ndarray:
    """A config list of ``dim`` numbers as a float vector."""
    try:
        x = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}") from err
    if x.shape != (dim,):
        raise ConfigError(f"{name} must have {dim} coordinates, got {value!r}")
    return x


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    """Shortest round-trip decimal for floats; plain text otherwise."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def emit_plot_data(data, path: str) -> str:
    """Write a TrajectoryRecord or AvoidanceReport as CSV; returns the path.

    Trajectory columns: k, x_1..x_d, step_size, grad_norm (one row per
    recorded stride).  Report columns: one row per trial, sorted by trial
    index.  An empty trajectory yields a header-only file.
    """
    if isinstance(data, TrajectoryRecord):
        dim = len(data.points[0]) if data.points else 0
        header = ["k"] + [f"x_{i + 1}" for i in range(dim)] + ["step_size", "grad_norm"]
        lines = [",".join(header)]
        for k, pt, a, g in zip(data.ks, data.points, data.step_sizes, data.grad_norms):
            lines.append(",".join([_fmt(k)] + [_fmt(c) for c in pt] + [_fmt(a), _fmt(g)]))
    elif isinstance(data, AvoidanceReport):
        if not data.rows:
            raise ConfigError("cannot emit an avoidance report with no rows")
        dim = len(data.rows[0]["init"])
        header = (["trial"] + [f"x0_{i + 1}" for i in range(dim)]
                  + ["terminal", "k_final"]
                  + [f"x_final_{i + 1}" for i in range(dim)]
                  + ["grad_norm", "saddle_hit"])
        lines = [",".join(header)]
        for row in sorted(data.rows, key=lambda r: r["trial"]):
            lines.append(",".join(
                [_fmt(row["trial"])] + [_fmt(c) for c in row["init"]]
                + [row["terminal"], _fmt(row["k_final"])]
                + [_fmt(c) for c in row["final"]]
                + [_fmt(row["grad_norm"]), _fmt(row["saddle_hit"])]))
    else:
        raise TypeError(f"emit_plot_data cannot serialize {type(data).__name__}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# avoidance Monte Carlo
# ---------------------------------------------------------------------------

@dataclass
class AvoidanceReport:
    """Aggregate of a Monte Carlo avoidance run; counts sum to trials."""

    trials: int
    counts: dict
    saddle_hits: int
    saddle_hit_inits: list
    rows: list


def _draw_init(seed: int, trial: int, box: np.ndarray) -> np.ndarray:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    rng = np.random.default_rng(ss)
    return rng.uniform(box[:, 0], box[:, 1])


def avoidance_experiment(cfg: ExperimentConfig) -> AvoidanceReport:
    """Monte Carlo over seeded uniform inits from cfg.init_box.

    All trials advance in lockstep through :func:`methods.run_batch`: one
    batched step for gd, mirror-euclidean and constant-metric
    manifold-intrinsic on vectorized objectives and for prox on quadratics,
    row by row otherwise; each trial ends as ``run`` would end it.  Classifies every
    terminal (step errors get their own bucket, never dropped) and counts
    saddle hits: terminal converged_to_point whose limit classifies
    strict_saddle and lies within SADDLE_PROXIMITY of a registered critical
    point (when the objective registers any).
    """
    obj = build_objective(cfg.objective)
    schedule = _build_schedule(cfg.schedule)
    metric = _build_metric(cfg, obj)
    box = np.asarray(cfg.init_box, dtype=float)
    if box.shape != (obj.dimension, 2):
        raise ConfigError(
            f"init_box has {box.shape[0]} coordinate ranges but the objective "
            f"dimension is {obj.dimension}")
    inits = np.stack([_draw_init(cfg.seed, t, box) for t in range(cfg.trials)])

    res = run_batch(cfg.method_id, obj, schedule, inits, budget=cfg.budget,
                    conv_tol=cfg.conv_tol, escape_radius=cfg.escape_radius,
                    window=cfg.window, metric=metric)
    grad_norms = np.linalg.norm(obj.grad(res.final), axis=1)  # built-ins are vectorized
    rows = [{"trial": t, "init": inits[t], "terminal": res.terminal[t],
             "k_final": int(res.k_final[t]), "final": res.final[t],
             "grad_norm": float(grad_norms[t]), "saddle_hit": False,
             "message": res.message[t]} for t in range(cfg.trials)]

    registered = [np.asarray(p, dtype=float) for p in obj.critical_points]
    saddle_hits = 0
    saddle_hit_inits = []
    for row in rows:
        if row["terminal"] != CONVERGED_TO_POINT:
            continue
        cls = classify_critical_point(obj, row["final"], grad_tol=cfg.grad_tol,
                                      eig_tol=cfg.eig_tol)
        near = True
        if registered:
            near = min(float(np.linalg.norm(row["final"] - p)) for p in registered) \
                < SADDLE_PROXIMITY
        if cls.tag == objectives.STRICT_SADDLE and near:
            row["saddle_hit"] = True
            saddle_hits += 1
            saddle_hit_inits.append(row["init"])

    counts = {kind: 0 for kind in _TERMINAL_KINDS}
    for row in rows:
        counts[row["terminal"]] += 1
    if sum(counts.values()) != cfg.trials:
        raise RuntimeError("trial accounting is broken: counts do not sum to trials")
    return AvoidanceReport(trials=cfg.trials, counts=counts,
                           saddle_hits=saddle_hits,
                           saddle_hit_inits=saddle_hit_inits, rows=rows)


# ---------------------------------------------------------------------------
# figure-1 reproduction
# ---------------------------------------------------------------------------

def fig1_experiment(cfg: ExperimentConfig) -> dict:
    """Three gradient-descent runs on x^2 - y^2 from one shared init.

    Writes one per-step CSV per schedule into cfg.output_dir, then asserts
    the qualitative picture: the 1/sqrt(k) and 1/k runs escape with the
    sqrt run escaping first, and the 1/k^4 run converges to a point with
    gradient norm above 1e-3.  Raises ExperimentAssertionError (with all
    records attached) when any of that fails.
    """
    obj = objectives.fig1()
    x0 = _point(cfg.init if cfg.init is not None else [0.5, 0.5], obj.dimension, "init")
    os.makedirs(cfg.output_dir, exist_ok=True)
    records = {}
    for label, spec in FIG1_SCHEDULES:
        schedule = _build_schedule(spec)
        rec = run("gd", obj, schedule, x0, budget=cfg.budget, conv_tol=cfg.conv_tol,
                  escape_radius=cfg.escape_radius, stride=1, window=cfg.window,
                  grad_tol=cfg.grad_tol, eig_tol=cfg.eig_tol, seed=cfg.seed)
        records[label] = rec
        emit_plot_data(rec, os.path.join(cfg.output_dir, f"fig1_{label}.csv"))

    problems = []
    for label in ("sqrt", "harmonic"):
        if records[label].terminal.kind != ESCAPED_REGION:
            problems.append(f"{label} run terminated {records[label].terminal.kind}, "
                            "expected escaped_region")
    if not problems and not records["sqrt"].k_final < records["harmonic"].k_final:
        problems.append(
            f"escape ordering violated: sqrt escaped at step {records['sqrt'].k_final}, "
            f"harmonic at {records['harmonic'].k_final}")
    quartic = records["quartic"]
    if quartic.terminal.kind != CONVERGED_TO_POINT:
        problems.append(f"quartic run terminated {quartic.terminal.kind}, "
                        "expected converged_to_point")
    elif not quartic.grad_norms[-1] > 1e-3:
        problems.append(f"quartic limit gradient norm {quartic.grad_norms[-1]:.3e} "
                        "is not above 1e-3")
    if problems:
        raise ExperimentAssertionError("; ".join(problems), records=records)
    return records


# ---------------------------------------------------------------------------
# stable-manifold chart
# ---------------------------------------------------------------------------

def chart_experiment(cfg: ExperimentConfig):
    """Certify contraction at the objective's saddle and export the chart.

    Writes chart.csv (columns x0_plus_*, x0_minus_*, residual, picard_iters)
    and certificate.json (K1, K2, K, delta, epsilon, horizon, ...) into
    cfg.output_dir.  An uncertifiable contraction raises
    ExperimentAssertionError carrying the largest certifiable epsilon.
    """
    obj = build_objective(cfg.objective)
    schedule = _build_schedule(cfg.schedule)
    ccfg = dict(cfg.chart)

    def option(name, default, kind=float, zero_ok=False):
        """chart.<name> if set: a positive (nonnegative if ``zero_ok``) ``kind``."""
        v = ccfg.pop(name, default)
        if v is default:
            return v
        typed = isinstance(v, (int, float) if kind is float else int) and not isinstance(v, bool)
        if not (typed and math.isfinite(v) and (v > 0 or zero_ok and v == 0)):
            what = ("nonnegative " if zero_ok else "positive ") + (
                "finite number" if kind is float else "integer")
            raise ConfigError(f"chart.{name} must be a {what}, got {v!r}")
        return v

    x_star = ccfg.pop("critical_point", None)
    if x_star is None:
        if not obj.critical_points:
            raise ConfigError("objective registers no critical point; "
                              "set chart.critical_point")
        x_star = obj.critical_points[0]
    points = option("grid_points", 11, int)
    halfwidth = option("grid_halfwidth", None)
    fp_tol = option("fp_tol", 1e-10)
    fp_budget = option("fp_budget", 500, int)
    try:
        prob, cert = remainder_from_objective(
            obj, _point(x_star, obj.dimension, "chart.critical_point"), schedule,
            delta0=option("delta0", 0.1),
            epsilon=option("epsilon", None, zero_ok=True),
            max_halvings=option("max_halvings", 20, int, zero_ok=True),
            horizon=option("horizon", None, int),
            horizon_cap=option("horizon_cap", 100_000, int))
    except (CertificateError, LyapunovError) as err:
        raise ExperimentAssertionError(f"contraction not certified: {err}") from err
    if not cert.valid:
        raise ExperimentAssertionError(
            f"contraction constant K = {cert.k:.6g} >= 1 with epsilon = "
            f"{cert.epsilon:.6g}; the largest certifiable epsilon is "
            f"{cert.epsilon_star:.6g} — no chart computed")

    if len(prob.split.stable_indices) != 1:
        raise ConfigError("the chart driver grids a one-dimensional stable block; "
                          "use saddle_escape.lyapunov_perron.chart directly otherwise")
    if halfwidth is None:
        halfwidth = prob.delta / 2.0
    grid = np.linspace(-halfwidth, halfwidth, points)
    ch = chart(prob, grid, fp_tol=fp_tol, fp_budget=fp_budget)

    os.makedirs(cfg.output_dir, exist_ok=True)
    d_s = len(prob.split.stable_indices)
    d_u = len(prob.split.unstable_indices)
    header = ([f"x0_plus_{i + 1}" for i in range(d_s)]
              + [f"x0_minus_{i + 1}" for i in range(d_u)]
              + ["residual", "picard_iters"])
    lines = [",".join(header)]
    for g, p, r, it in zip(ch.grid, ch.phi, ch.residuals, ch.picard_iters):
        if p is None:
            continue
        lines.append(",".join([_fmt(c) for c in g] + [_fmt(c) for c in p]
                              + [_fmt(r), _fmt(it)]))
    csv_path = os.path.join(cfg.output_dir, "chart.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

    summary = {
        "K1": cert.k1, "K2": cert.k2, "K": cert.k,
        "lambda_stable": cert.lambda_stable,
        "lambda_unstable": cert.lambda_unstable,
        "alpha0": cert.alpha0, "epsilon": cert.epsilon,
        "epsilon_star": cert.epsilon_star, "valid": cert.valid,
        "delta": prob.delta, "horizon": prob.horizon,
        "tail_estimate": prob.tail_estimate,
        "phi_zero_norm": ch.phi_zero_norm,
        "dphi_norms": {repr(h): v for h, v in ch.dphi_norms.items()},
        "tangency_ok": ch.tangency_ok, "continuity_ok": ch.continuity_ok,
        "partial": ch.partial,
        "failures": [f"{g}: {msg}" for g, msg in ch.failures],
    }
    with open(os.path.join(cfg.output_dir, "certificate.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return ch, cert, prob


# ---------------------------------------------------------------------------
# single run
# ---------------------------------------------------------------------------

def single_run_experiment(cfg: ExperimentConfig) -> TrajectoryRecord:
    """One trajectory from an explicit cfg.init; writes run.csv."""
    if cfg.init is None:
        raise ConfigError("single_run needs an explicit 'init' point")
    obj = build_objective(cfg.objective)
    schedule = _build_schedule(cfg.schedule)
    metric = _build_metric(cfg, obj)
    rec = run(cfg.method_id, obj, schedule, _point(cfg.init, obj.dimension, "init"),
              budget=cfg.budget, conv_tol=cfg.conv_tol,
              escape_radius=cfg.escape_radius, stride=cfg.stride,
              window=cfg.window, grad_tol=cfg.grad_tol, eig_tol=cfg.eig_tol,
              metric=metric, seed=cfg.seed)
    os.makedirs(cfg.output_dir, exist_ok=True)
    emit_plot_data(rec, os.path.join(cfg.output_dir, "run.csv"))
    return rec


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

_COMMAND_EXPERIMENT = {"run": "single_run", "avoidance": "avoidance",
                       "fig1": "fig1", "chart": "chart"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddle-escape",
        description="Saddle-avoidance experiments for first-order methods "
                    "with vanishing step sizes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("run", "one trajectory from an explicit initial point"),
            ("avoidance", "Monte Carlo over random initializations"),
            ("fig1", "three-schedule race on x^2 - y^2 from a shared start"),
            ("chart", "stable-manifold chart with contraction certificate")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override config output_dir")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_json(
            args.config, default_experiment=_COMMAND_EXPERIMENT[args.command])
        if cfg.experiment != _COMMAND_EXPERIMENT[args.command]:
            raise ConfigError(
                f"config says experiment {cfg.experiment!r} but the subcommand "
                f"is {args.command!r}")
        if args.seed is not None:
            if not (0 <= args.seed < 2 ** 64):
                raise ConfigError("--seed must be a 64-bit nonnegative integer")
            cfg.seed = args.seed
        if args.out is not None:
            cfg.output_dir = args.out

        if cfg.experiment == "avoidance":
            report = avoidance_experiment(cfg)
            os.makedirs(cfg.output_dir, exist_ok=True)
            path = emit_plot_data(report, os.path.join(cfg.output_dir, "avoidance.csv"))
            for kind in _TERMINAL_KINDS:
                print(f"{kind}: {report.counts[kind]}")
            print(f"saddle_hits: {report.saddle_hits}/{report.trials}")
            print(f"wrote {path}")
        elif cfg.experiment == "fig1":
            records = fig1_experiment(cfg)
            for label, rec in records.items():
                print(f"{label}: {rec.terminal.kind} at step {rec.k_final}")
            print(f"wrote fig1_*.csv under {cfg.output_dir}")
        elif cfg.experiment == "chart":
            ch, cert, prob = chart_experiment(cfg)
            print(f"K1={cert.k1:.6g} K2={cert.k2:.6g} K={cert.k:.6g} "
                  f"delta={prob.delta:.6g} epsilon={cert.epsilon:.6g} "
                  f"N={prob.horizon}")
            print(f"tangency_ok={ch.tangency_ok} continuity_ok={ch.continuity_ok} "
                  f"partial={ch.partial}")
            print(f"wrote chart.csv and certificate.json under {cfg.output_dir}")
        else:
            rec = single_run_experiment(cfg)
            print(f"terminal: {rec.terminal.kind} at step {rec.k_final}")
            if rec.terminal.point_class is not None:
                print(f"limit class: {rec.terminal.point_class.tag}")
            print(f"wrote run.csv under {cfg.output_dir}")
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except ExperimentAssertionError as err:
        print(f"experiment assertion failed: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

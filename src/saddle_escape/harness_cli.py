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

Reproducibility: trial t of an avoidance sweep starts at
low + (high - low) * u, where u is the first d doubles of
``default_rng(SeedSequence(seed, spawn_key=(t,)))``, so trial t's start does
not depend on ``trials``.  The sweep computes those doubles for all trials
at once, in integer arrays, with the bits numpy's own per-trial draw gives.
CSV numbers are written as shortest round-trip decimals, so identical
config + seed gives byte-identical numeric output.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field, fields, replace
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from . import objectives
from . import schedules as sched_mod
from .lyapunov_perron import LyapunovError, chart, remainder_from_objective
from .methods import (BUDGET_EXHAUSTED, CONVERGED_TO_POINT, DEFAULT_BUDGET, DEFAULT_CONV_TOL,
                      DEFAULT_ESCAPE_RADIUS, ESCAPED_REGION, STEP_ERROR, MethodError,
                      RiemannianMetric, TrajectoryRecord, _recursion, _row_sq_sums, run,
                      run_batch)
from .objectives import Objective, _require_critical, _require_saddle, classify_critical_point

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

# figure-1 schedules.  On x^2 - y^2 (lambda_max = 2) the first stable factor
# 1 - 2 alpha_0 is -1 for sqrt and quartic (alpha_0 = 1) and 0 for harmonic
# (alpha_0 = 1/2): gd's first harmonic step maps every start onto the
# unstable axis, so no schedule here meets the paper's alpha_k < 1/L
FIG1_SCHEDULES = (
    ("sqrt", {"kind": "power", "c": 1.0, "p": 0.5, "offset": 1}),
    ("harmonic", {"kind": "power", "c": 1.0, "p": 1.0, "offset": 2}),
    ("quartic", {"kind": "power", "c": 1.0, "p": 4.0, "offset": 1}),
)

_MAX_GRID_POINTS = 1 << 20  # chart anchors: about 35 min of Picard solves at ~2 ms each
_MAX_TRIALS = 1 << 20  # avoidance trials: about 1 GB of report rows; the draw is 0.2-0.4 s
_DRAW_CHUNK = 1 << 16  # avoidance starts drawn at a time: under 20 MB of integer temporaries
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

_FIG1_OBJECTIVE = {"name": "fig1"}
_DEFAULT_SCHEDULE = {"kind": "power", "c": 1.0, "p": 1.0, "offset": 2}
_CHART_FIELDS = {
    "delta0", "epsilon", "max_halvings", "horizon", "horizon_cap", "fp_tol",
    "fp_budget", "grid_points", "grid_halfwidth", "critical_point",
}


@dataclass
class ExperimentConfig:
    """Validated experiment description (see module docstring for the JSON form)."""

    experiment: str
    method_id: str = "gd"
    objective: dict = field(default_factory=lambda: dict(_FIG1_OBJECTIVE))
    schedule: dict = field(default_factory=lambda: dict(_DEFAULT_SCHEDULE))
    trials: int = 1000
    seed: int = 0
    init_box: list = field(default_factory=lambda: [[-1.0, 1.0], [-1.0, 1.0]])
    budget: int = DEFAULT_BUDGET
    conv_tol: float = DEFAULT_CONV_TOL
    escape_radius: float = DEFAULT_ESCAPE_RADIUS
    output_dir: str = "."
    init: Optional[list] = None
    metric: Optional[list] = None
    chart: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        try:  # the method id, and a metric for manifold-intrinsic only
            recursion = _recursion(self.method_id, self.metric)
        except MethodError as err:
            raise ConfigError(str(err)) from err
        if recursion != "gd" and self.experiment in ("chart", "fig1"):
            raise ConfigError(f"{self.experiment} runs gd's recursion only: gd, mirror-euclidean "
                              f"or manifold-intrinsic without a metric, not {self.method_id!r}")
        for name in ("trials", "budget"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {v!r}")
        if self.budget >= 1 << 63:  # the runner counts steps in int64
            raise ConfigError(f"budget must be below 2^63, got {self.budget}")
        if self.trials > _MAX_TRIALS:
            raise ConfigError(f"trials must be at most {_MAX_TRIALS}, got {self.trials}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or \
                not (0 <= self.seed < 2 ** 64):
            raise ConfigError(f"seed must be a 64-bit nonnegative integer, got {self.seed!r}")
        for name in ("conv_tol", "escape_radius"):
            if not _reals(getattr(self, name), name, ()) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)!r}")
        box = self.init_box
        if not isinstance(box, (list, tuple)) or len(box) == 0:
            raise ConfigError("init_box must be a nonempty list of [low, high] pairs")
        for i, pair in enumerate(box):  # a [low, high] pair
            lo, hi = _reals(pair, f"init_box[{i}]", (2,)).tolist()
            if not (lo <= hi and math.isfinite(hi - lo)):  # the draw needs a finite width
                raise ConfigError(f"init_box[{i}] needs low <= high and a finite "
                                  f"high - low, got {pair!r}")
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
        if self.experiment == "fig1":
            if self.objective != _FIG1_OBJECTIVE:
                raise ConfigError('fig1 runs on its own objective x^2 - y^2: leave out objective '
                                  f'or give {{"name": "fig1"}}, got {self.objective!r}')
            if self.schedule != _DEFAULT_SCHEDULE:
                raise ConfigError("fig1 races its own three schedules: leave out schedule, "
                                  f"got {self.schedule!r}")

    @classmethod
    def from_dict(cls, data: dict, default_experiment: Optional[str] = None) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - {f.name for f in fields(cls)}
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
            return objectives.quadratic(_reals(spec["matrix"], "objective.matrix"))
        except objectives.ObjectiveError as err:
            raise ConfigError(f"bad quadratic matrix: {err}") from err
    if name == "cubic":
        if keys != {"a"}:
            raise ConfigError("cubic objective needs exactly an 'a' field")
        try:
            return objectives.cubic_perturbed_saddle(_reals(spec["a"], "objective.a", ()))
        except objectives.ObjectiveError as err:
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
    M = _reals(cfg.metric, "metric", (obj.dimension, obj.dimension))
    try:
        return RiemannianMetric(M)
    except MethodError as err:
        raise ConfigError(f"bad metric {cfg.metric!r}: {err}") from err


def _reals(value, name: str, shape: Optional[tuple] = None) -> np.ndarray:
    """A config number, or nested lists of numbers, as a float array; with
    ``shape``, one of that shape with finite entries.  A bool or any other
    entry that is not a real number, a ragged list or a number past the
    float range is a ConfigError naming ``name``."""
    entries = [value]
    for v in entries:  # the list grows by each nested list's entries as it is read
        v = v.tolist() if isinstance(v, np.ndarray) else v
        if isinstance(v, (list, tuple)):
            entries.extend(v)
        elif isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise ConfigError(f"{name} needs real numbers, got {v!r}")
    try:
        x = np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as err:
        raise ConfigError(f"{name} needs a regular array of floats: {err}") from err
    if shape is not None and (x.shape != shape or not np.all(np.isfinite(x))):
        raise ConfigError(f"{name} needs finite numbers of shape {shape}, got {value!r}")
    return x


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _floats(values) -> map:
    """Each value (a float or a numpy float) as its shortest round-trip decimal."""
    return map(repr, map(float, values))


def _point_columns(points) -> list:
    """The coordinate columns of a sequence of points, as ``_floats``; none
    for no points."""
    return [_floats(c) for c in zip(*(p.tolist() if isinstance(p, np.ndarray) else p
                                       for p in points))]


def _write_csv(path: str, header: list, columns: list) -> str:
    """Write a header line and one line per row of ``columns``, each an
    iterable of cell strings, making the file's directory first (a
    ConfigError if it cannot be made); returns the path."""
    directory = os.path.dirname(path) or "."
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output_dir {directory!r}: {err}") from err
    lines = [",".join(header), *map(",".join, zip(*columns))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def emit_plot_data(data, path: str) -> str:
    """Write a TrajectoryRecord or AvoidanceReport as CSV, into a directory made
    if missing; returns the path.

    Trajectory columns: k, x_1..x_d, step_size, grad_norm (one row per
    recorded stride).  Report columns: one row per trial, sorted by trial
    index.  An empty trajectory yields a header-only file.  Each column is
    formatted by its type, as a whole: floats as shortest round-trip
    decimals, integers as ``str``, saddle_hit as 1 or 0.
    """
    if isinstance(data, TrajectoryRecord):
        dim = len(data.points[0]) if data.points else 0
        header = ["k"] + [f"x_{i + 1}" for i in range(dim)] + ["step_size", "grad_norm"]
        columns = [map(str, data.ks), *_point_columns(data.points),
                   _floats(data.step_sizes), _floats(data.grad_norms)]
    elif isinstance(data, AvoidanceReport):
        if not data.rows:
            raise ConfigError("cannot emit an avoidance report with no rows")
        dim = len(data.rows[0]["init"])
        header = (["trial"] + [f"x0_{i + 1}" for i in range(dim)]
                  + ["terminal", "k_final"]
                  + [f"x_final_{i + 1}" for i in range(dim)]
                  + ["grad_norm", "saddle_hit"])
        trial, init, terminal, k_final, final, grad_norm, hit = zip(*map(
            itemgetter("trial", "init", "terminal", "k_final", "final", "grad_norm",
                       "saddle_hit"), sorted(data.rows, key=itemgetter("trial"))))
        columns = [map(str, trial), *_point_columns(init), terminal, map(str, k_final),
                   *_point_columns(final), _floats(grad_norm), ("1" if h else "0" for h in hit)]
    else:
        raise TypeError(f"emit_plot_data cannot serialize {type(data).__name__}")
    return _write_csv(path, header, columns)


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


_M32 = 0xFFFFFFFF
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashes(h: int, mult: int):
    """SeedSequence's hash constants from ``h``: each hashmix takes the
    current one and the next, ``h * mult``."""
    while True:
        h_next = h * mult & _M32
        yield h, h_next
        h = h_next


def _hashmix(v, hashes):
    """SeedSequence's hashmix of v, an int or a uint32 array (which wraps)."""
    h, h_next = next(hashes)
    v = (v ^ h) * h_next & _M32
    return v ^ v >> 16


def _mix(x, y):
    """SeedSequence's mix of two words, ints or uint32 arrays."""
    r = ((0xCA01F9DD * x & _M32) - 0x4973F715 * y) & _M32
    return r ^ r >> 16


def _carry(limbs: list) -> list:
    """A number mod 2^128 in four 32-bit limbs, low first, with the carries passed up."""
    for k in range(3):
        limbs[k + 1] += limbs[k] >> 32
        limbs[k] &= _M32
    limbs[3] &= _M32
    return limbs


def _pcg_step(state: list, inc: list) -> list:
    """One step of PCG64's LCG, state * _PCG64_MULT + inc mod 2^128, on
    32-bit limbs held in uint64 arrays: each limb product fits in 64 bits."""
    cols = [c.copy() for c in inc]
    for i in range(4):
        for j in range(4 - i):
            p = state[i] * (_PCG64_MULT >> 32 * j & _M32)
            cols[i + j] += p & _M32
            if i + j < 3:
                cols[i + j + 1] += p >> 32
    return _carry(cols)


def _pcg64_streams(seed: int, trials: range) -> tuple:
    """The PCG64 (state, inc) of ``default_rng(SeedSequence(seed, spawn_key=(t,)))``
    for each trial t in ``trials``, as 32-bit limbs: numpy's seeding, run on
    those trials at once.

    Trial t's SeedSequence entropy is the seed's 32-bit words, padded to 4
    (a seed below 2^128), then t (below 2^32); so the pool those four words
    mix to is shared, and only t is hashed per trial, in uint32 arrays.
    ``generate_state(4, uint64)`` gives v0..v3, and PCG64 starts at state 0
    with inc = (v2:v3) << 1 | 1, steps, adds (v0:v1) and steps.
    """
    ha = _hashes(0x43B0D7E5, 0x931E8875)
    pool = [_hashmix(seed >> 32 * i & _M32, ha) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], ha))
    t = np.arange(trials.start, trials.stop, dtype=np.uint32)
    pool = [_mix(p, _hashmix(t, ha)) for p in pool]
    hb = _hashes(0x8B51F9DD, 0x58F38DED)
    w = [_hashmix(pool[i % 4], hb).astype(np.uint64) for i in range(8)]
    # limbs low first: v_i = w[2i] | w[2i + 1] << 32, and (v2:v3) = v2 << 64 | v3
    seq = [w[6], w[7], w[4], w[5]]
    inc = [(seq[k] << 1 | (seq[k - 1] >> 31 if k else 1)) & _M32 for k in range(4)]
    return _pcg_step(_carry([a + b for a, b in zip(inc, [w[2], w[3], w[0], w[1]])]), inc), inc


def _draw_inits(seed: int, trials: int, box: np.ndarray) -> np.ndarray:
    """The (trials, d) starts ``avoidance_experiment`` states: the bits of
    ``Generator.uniform(low, high)`` on each trial's stream (see
    :func:`_pcg64_streams`).  Each draw steps every stream and outputs
    XSL-RR x; its double u = (x >> 11) * 2^-53 becomes low + (high - low) * u,
    scaled in place.  The streams are run _DRAW_CHUNK trials at a time, which
    bounds the integer temporaries; trial t's stream depends on seed and t
    only, so the chunks do not move a bit."""
    u = np.empty((trials, len(box)))
    for start in range(0, trials, _DRAW_CHUNK):
        rows = u[start:start + _DRAW_CHUNK]
        state, inc = _pcg64_streams(seed, range(start, start + len(rows)))
        for j in range(len(box)):
            state = _pcg_step(state, inc)
            x = (state[3] << 32 | state[2]) ^ (state[1] << 32 | state[0])
            r = state[3] >> 26
            rows[:, j] = (x >> r | x << (64 - r & 63)) >> 11
    u *= 2.0 ** -53
    u *= box[:, 1] - box[:, 0]
    u += box[:, 0]
    return u


def avoidance_experiment(cfg: ExperimentConfig) -> AvoidanceReport:
    """Monte Carlo over seeded uniform inits from cfg.init_box.

    Trial t starts at low + (high - low) * u, where u is the first d doubles
    of ``default_rng(SeedSequence(cfg.seed, spawn_key=(t,)))``, so trial t's
    start does not depend on cfg.trials.  :func:`_draw_inits` draws the
    starts in chunks of integer arrays, with those bits.

    All trials advance in lockstep through :func:`methods.run_batch`, one
    batched step of the method's recursion per k; each trial ends as
    ``run`` would end it.  Classifies every terminal
    (step errors get their own bucket, never dropped) and counts saddle
    hits: terminal converged_to_point whose limit classifies strict_saddle
    and lies within SADDLE_PROXIMITY of the origin, where every objective
    that ``build_objective`` makes has its saddle.  The limit is classified
    at :func:`classify_critical_point`'s default tolerances.
    """
    obj = build_objective(cfg.objective)
    schedule = _build_schedule(cfg.schedule)
    metric = _build_metric(cfg, obj)
    box = np.asarray(cfg.init_box, dtype=float)
    if box.shape != (obj.dimension, 2):
        raise ConfigError(
            f"init_box has {box.shape[0]} coordinate ranges but the objective "
            f"dimension is {obj.dimension}")
    inits = _draw_inits(cfg.seed, cfg.trials, box)

    res = run_batch(cfg.method_id, obj, schedule, inits, budget=cfg.budget,
                    conv_tol=cfg.conv_tol, escape_radius=cfg.escape_radius,
                    metric=metric)
    with np.errstate(over="ignore", invalid="ignore"):  # an escaped point's gradient may overflow
        grad_norms = np.sqrt(_row_sq_sums(obj.grad(res.final)))
    rows = [{"trial": t, "init": inits[t], "terminal": res.terminal[t],
             "k_final": int(res.k_final[t]), "final": res.final[t],
             "grad_norm": float(grad_norms[t]), "saddle_hit": False,
             "message": res.message[t]} for t in range(cfg.trials)]

    for row in rows:  # a hit: a converged limit near the origin that is a strict saddle
        if row["terminal"] == CONVERGED_TO_POINT:
            tag = classify_critical_point(obj, row["final"]).tag
            row["saddle_hit"] = tag == objectives.STRICT_SADDLE and \
                float(np.linalg.norm(row["final"])) < SADDLE_PROXIMITY
    saddle_hit_inits = [row["init"] for row in rows if row["saddle_hit"]]

    counts = {kind: 0 for kind in _TERMINAL_KINDS}
    for row in rows:
        counts[row["terminal"]] += 1
    if sum(counts.values()) != cfg.trials:
        raise RuntimeError("trial accounting is broken: counts do not sum to trials")
    return AvoidanceReport(trials=cfg.trials, counts=counts, saddle_hits=len(saddle_hit_inits),
                           saddle_hit_inits=saddle_hit_inits, rows=rows)


# ---------------------------------------------------------------------------
# figure-1 reproduction
# ---------------------------------------------------------------------------

def fig1_experiment(cfg: ExperimentConfig) -> dict:
    """Three runs of gd's recursion (cfg.method_id, which ExperimentConfig
    holds to gd, mirror-euclidean or metric-less manifold-intrinsic) on
    x^2 - y^2 from one shared init, one per FIG1_SCHEDULES entry; the
    config may not name another objective or schedule.

    Writes one per-step CSV per schedule into cfg.output_dir, then asserts
    the qualitative picture: the 1/sqrt(k) and 1/k runs escape with the
    sqrt run escaping first, and the 1/k^4 run converges to a point with
    gradient norm above 1e-3.  Raises ExperimentAssertionError (with all
    records attached) when any of that fails.
    """
    obj = objectives.fig1()
    x0 = _reals(cfg.init if cfg.init is not None else [0.5, 0.5], "init", (obj.dimension,))
    records = {}
    for label, spec in FIG1_SCHEDULES:
        schedule = _build_schedule(spec)
        rec = run(cfg.method_id, obj, schedule, x0, budget=cfg.budget, conv_tol=cfg.conv_tol,
                  escape_radius=cfg.escape_radius, stride=1)
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
    and certificate.json (K1, K2, K, delta, epsilon, horizon, horizon_capped,
    ...) into cfg.output_dir.  An uncertifiable contraction raises
    ExperimentAssertionError carrying the largest certifiable epsilon.  The
    method is gd, mirror-euclidean or metric-less manifold-intrinsic, the
    ids that run gd's recursion (ExperimentConfig rejects any other).  A
    critical_point that is not critical, or whose Hessian has no positive
    eigenvalue or none <= 0 (a local minimum or maximum: no saddle to chart),
    and a grid_halfwidth above delta/2 are ConfigErrors.
    """
    obj = build_objective(cfg.objective)
    schedule = _build_schedule(cfg.schedule)

    def option(name, kind=float, zero_ok=False, nullable=False):
        """``{name: chart.<name>}`` if the config sets it, else ``{}``: a positive
        (nonnegative if ``zero_ok``) ``kind``, or null if ``nullable``."""
        if name not in cfg.chart:
            return {}
        v = cfg.chart[name]
        typed = isinstance(v, (int, float) if kind is float else int) and not isinstance(v, bool)
        # an int past the float range fails the bound as inf and NaN do
        if not (v is None and nullable or typed and abs(v) <= sys.float_info.max
                and (v > 0 or zero_ok and v == 0)):
            what = ("nonnegative " if zero_ok else "positive ") + (
                "finite number" if kind is float else "integer")
            raise ConfigError(f"chart.{name} must be a {what}, got {v!r}")
        return {name: v}

    x_star = cfg.chart.get("critical_point")
    if x_star is None:  # every objective build_objective makes has its saddle at the origin
        x_star = np.zeros(obj.dimension)
    x_star = _reals(x_star, "chart.critical_point", (obj.dimension,))
    _require_critical(obj, x_star, ConfigError, "chart.critical_point")
    _require_saddle(obj.hess(x_star), x_star, ConfigError, "chart.critical_point")
    points = option("grid_points", int).get("grid_points", 11)
    if points > _MAX_GRID_POINTS:
        raise ConfigError(f"chart.grid_points must be at most {_MAX_GRID_POINTS}, got {points!r}")
    halfwidth = option("grid_halfwidth", nullable=True).get("grid_halfwidth")
    solve_options = {**option("fp_tol"), **option("fp_budget", int)}
    try:
        prob, cert = remainder_from_objective(
            obj, x_star, schedule, method=cfg.method_id, **option("delta0"),
            **option("epsilon", zero_ok=True, nullable=True),
            **option("max_halvings", int, zero_ok=True),
            **option("horizon", int, nullable=True), **option("horizon_cap", int))
    except LyapunovError as err:  # CertificateError included
        raise ExperimentAssertionError(f"contraction not certified: {err}") from err
    if not cert.valid:
        raise ExperimentAssertionError(
            f"contraction constant K = {cert.k:.6g} >= 1 with epsilon = "
            f"{cert.epsilon:.6g}; the largest certifiable epsilon is "
            f"{cert.epsilon_star:.6g} — no chart computed")

    if len(prob.split.stable_indices) != 1:
        raise ConfigError("the chart driver grids a one-dimensional stable block; "
                          "use saddle_escape.lyapunov_perron.chart directly otherwise")
    halfwidth = prob.delta / 2.0 if halfwidth is None else halfwidth
    try:  # chart holds its grid to B(0, delta/2)
        ch = chart(prob, np.linspace(-halfwidth, halfwidth, points), **solve_options)
    except LyapunovError as err:
        raise ConfigError(f"chart.grid_halfwidth = {halfwidth!r} for the certified "
                          f"delta = {prob.delta:g}: {err}") from err

    d_s = len(prob.split.stable_indices)
    d_u = len(prob.split.unstable_indices)
    header = ([f"x0_plus_{i + 1}" for i in range(d_s)]
              + [f"x0_minus_{i + 1}" for i in range(d_u)]
              + ["residual", "picard_iters"])
    kept = [i for i, p in enumerate(ch.phi) if p is not None]
    _write_csv(os.path.join(cfg.output_dir, "chart.csv"), header,  # makes output_dir
               [*_point_columns(ch.grid[i] for i in kept), *_point_columns(ch.phi[i] for i in kept),
                _floats(ch.residuals[i] for i in kept), [str(ch.picard_iters[i]) for i in kept]])

    summary = {
        "K1": cert.k1, "K2": cert.k2, "K": cert.k,
        "lambda_stable": cert.lambda_stable,
        "lambda_unstable": cert.lambda_unstable,
        "alpha0": cert.alpha0, "epsilon": cert.epsilon,
        "epsilon_star": cert.epsilon_star, "valid": cert.valid,
        "delta": prob.delta, "horizon": prob.horizon,
        "tail_estimate": prob.tail_estimate, "tail_tol": prob.tail_tol,
        "horizon_capped": prob.horizon_capped, "decay_rate": prob.decay_rate,
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
    rec = run(cfg.method_id, obj, schedule, _reals(cfg.init, "init", (obj.dimension,)),
              budget=cfg.budget, conv_tol=cfg.conv_tol,
              escape_radius=cfg.escape_radius, metric=metric)
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
        overrides = {"seed": args.seed, "output_dir": args.out}
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})

        if cfg.experiment == "avoidance":
            report = avoidance_experiment(cfg)
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
            if prob.horizon_capped:
                print(f"horizon capped: the tail bound {prob.tail_estimate:.3g} at N="
                      f"{prob.horizon} misses tail_tol {prob.tail_tol:.3g}")
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

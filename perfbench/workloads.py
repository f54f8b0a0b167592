"""The four benchmark workloads and their correctness gates.

Each workload drives saddle_escape only through its public entry points:
``build`` makes the inputs the library receives (from the seed where the
workload is seeded), ``run`` is one timed pass, and ``check`` turns the
outputs of all passes of a run into (operations attempted, operations
failed, problems).  Library functions are looked up on their modules at
call time, so the timing wrappers of a traced pass see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

import saddle_escape
from saddle_escape import harness_cli, lyapunov_perron

HARMONIC = {"kind": "power", "c": 1.0, "p": 1.0, "offset": 2}
SHIFTED = {"kind": "power", "c": 1.0, "p": 1.0, "offset": 3}
BOX = [[-1.0, 1.0], [-1.0, 1.0]]
AXIS = [[-1.0, 1.0], [0.0, 0.0]]
CUBIC = {"name": "cubic", "a": 0.1}
CHART_ANCHORS = 11  # default grid_points of the chart experiment


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        if count:
            self.failed += count
            self.problems.append(message)


def _csv_row_diffs(first: bytes, other: bytes) -> int:
    a, b = first.splitlines(), other.splitlines()
    return sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))


class Workload:
    """Defaults: inputs do not depend on the seed, one pass is enough, pass
    times are reported at the workload's size as run, and the pass is made of
    small numpy calls (its speed follows the probe's small kernel)."""

    seeded = False
    min_passes = 1
    small_share = 1.0  # weight of the small kernel in speed.SpeedSampler.speed

    def scale(self, summary) -> float:
        """Factor that brings a pass's wall time to the workload's reference size."""
        return 1.0


class _Avoidance(Workload):
    """Shared pass and gates of the Monte Carlo avoidance workloads."""

    seeded = True
    min_passes = 2  # CSV bytes are compared across passes
    step_errors_fail = False  # whether a step_error terminal fails its trial

    def configs(self, seed: int) -> list:
        raise NotImplementedError

    def build(self, seed: int, workdir: str) -> list:
        return [(label, harness_cli.ExperimentConfig.from_dict(spec))
                for label, spec in self.configs(seed)]

    def run(self, inputs: list, workdir: str) -> list:
        out = []
        for label, cfg in inputs:
            report = harness_cli.avoidance_experiment(cfg)
            path = harness_cli.emit_plot_data(report, os.path.join(workdir, f"{label}.csv"))
            out.append((label, report, path))
        return out

    def summarize(self, output: list) -> list:
        """Plain per-sweep results, taken after the timed region."""
        rows = []
        for label, report, path in output:
            with open(path, "rb") as fh:
                csv = fh.read()
            rows.append({"label": label, "trials": report.trials,
                         "counts": dict(report.counts),
                         "saddle_hits": report.saddle_hits,
                         "trial_steps": sum(r["k_final"] for r in report.rows),
                         "csv": csv})
        return rows

    def expected_hits(self, label: str) -> int:
        return 0

    def check(self, passes: list) -> Check:
        chk = Check()
        first = passes[0]
        for i, sweeps in enumerate(passes):
            for sweep, ref in zip(sweeps, first):
                label, trials = sweep["label"], sweep["trials"]
                chk.attempted += trials
                want = self.expected_hits(label)
                chk.fail(abs(sweep["saddle_hits"] - want),
                         f"pass {i} {label}: saddle_hits {sweep['saddle_hits']}, expected {want}")
                total = sum(sweep["counts"].values())
                chk.fail(abs(total - trials),
                         f"pass {i} {label}: terminal counts sum to {total}, not {trials}")
                errors = sweep["counts"]["step_error"]
                chk.fail(errors if self.step_errors_fail else 0,
                         f"pass {i} {label}: {errors} step errors")
                chk.fail(_csv_row_diffs(ref["csv"], sweep["csv"]),
                         f"pass {i} {label}: CSV bytes differ from pass 0")
        return chk

    def readings(self, sweeps: list) -> dict:
        return {s["label"]: {"counts": s["counts"], "saddle_hits": s["saddle_hits"],
                             "trial_steps": s["trial_steps"]} for s in sweeps}


class AvoidFig1(_Avoidance):
    """C04 on fig1: three linear methods plus prox, box and on-axis starts."""

    # (method, schedule, conv_tol) exactly as the C04 acceptance test runs them
    METHODS = (("gd", HARMONIC, 1e-12), ("mirror-euclidean", HARMONIC, 1e-12),
               ("manifold-intrinsic", HARMONIC, 1e-12), ("prox", SHIFTED, 1e-13))

    BOX_TRIALS = 1000
    AXIS_TRIALS = 100

    def __init__(self, axis_hits: int = AXIS_TRIALS):
        self.axis_hits = axis_hits  # every on-axis start must converge to the saddle

    def configs(self, seed: int) -> list:
        out = []
        for method, schedule, conv_tol in self.METHODS:
            base = {"experiment": "avoidance", "method_id": method,
                    "objective": {"name": "fig1"}, "schedule": schedule, "seed": seed,
                    "budget": 100_000, "conv_tol": conv_tol, "escape_radius": 1e3}
            out.append((f"{method}-box", dict(base, trials=self.BOX_TRIALS, init_box=BOX)))
            out.append((f"{method}-axis", dict(base, trials=self.AXIS_TRIALS, init_box=AXIS)))
        return out

    def expected_hits(self, label: str) -> int:
        return self.axis_hits if label.endswith("-axis") else 0


class AvoidCubic(_Avoidance):
    """gd avoidance on the cubic saddle: no batch path, one methods.run per trial."""

    TRIALS = 50
    # trial steps (sum of k_final) of the seed-0 sweep; other seeds draw between
    # about 130k and 455k, so pass times are scaled to this size
    REFERENCE_STEPS = 300_000
    step_errors_fail = True

    def scale(self, sweeps: list) -> float:
        return self.REFERENCE_STEPS / sum(s["trial_steps"] for s in sweeps)

    def configs(self, seed: int) -> list:
        return [("gd-box", {"experiment": "avoidance", "method_id": "gd",
                            "objective": dict(CUBIC), "schedule": HARMONIC,
                            "seed": seed, "trials": self.TRIALS, "init_box": BOX,
                            "budget": 100_000, "conv_tol": 1e-12,
                            "escape_radius": 1e3})]


class ChartCubic(Workload):
    """``saddle-escape chart`` through harness_cli.main with default chart options."""

    # the K2 sum and the Picard scans run whole-horizon array kernels, the
    # horizon search and the solve loops small calls; an even weight matched
    # the pass times best over 60 passes
    small_share = 0.5

    def build(self, seed: int, workdir: str) -> str:
        path = os.path.join(workdir, "chart-config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"experiment": "chart", "objective": dict(CUBIC),
                       "schedule": HARMONIC}, fh)
        return path

    def run(self, config_path: str, workdir: str) -> dict:
        with contextlib.redirect_stdout(io.StringIO()):
            code = harness_cli.main(["chart", "--config", config_path, "--out", workdir])
        return {"code": code, "out": workdir}

    def summarize(self, output: dict) -> dict:
        cert, rows = {}, 0
        cert_path = os.path.join(output["out"], "certificate.json")
        if os.path.exists(cert_path):
            with open(cert_path, encoding="utf-8") as fh:
                cert = json.load(fh)
            with open(os.path.join(output["out"], "chart.csv"), encoding="utf-8") as fh:
                rows = len(fh.read().splitlines()) - 1
        return {"code": output["code"], "cert": cert, "rows": rows}

    def check(self, passes: list) -> Check:
        chk = Check()
        for i, res in enumerate(passes):
            chk.attempted += CHART_ANCHORS
            cert = res["cert"]
            gates = {"exit code 0": res["code"] == 0, "valid": cert.get("valid") is True,
                     "not partial": cert.get("partial") is False,
                     "tangency_ok": cert.get("tangency_ok") is True,
                     "continuity_ok": cert.get("continuity_ok") is True}
            broken = [name for name, ok in gates.items() if not ok]
            if broken:
                chk.fail(CHART_ANCHORS, f"pass {i}: chart gates failed: {broken}")
            else:
                chk.fail(CHART_ANCHORS - res["rows"],
                         f"pass {i}: chart.csv has {res['rows']} of {CHART_ANCHORS} anchors")
        return chk

    def readings(self, res: dict) -> dict:
        keep = ("K1", "K2", "K", "delta", "epsilon", "horizon", "tail_estimate",
                "valid", "partial", "tangency_ok", "continuity_ok")
        return {k: res["cert"].get(k) for k in keep}


class ShootCubic(Workload):
    """C08 end to end through the library: certificate, chart, shooting, escapes."""

    GAP_TOL = 1e-4
    OFF_CHART = ((0, 1.0), (0, -1.0), (7, 1.0), (7, -1.0))

    def build(self, seed: int, workdir: str) -> tuple:
        return (saddle_escape.cubic_perturbed_saddle(CUBIC["a"]),
                saddle_escape.power(1.0, 1.0, 2),
                np.linspace(-0.05, 0.05, CHART_ANCHORS))

    def run(self, inputs: tuple, workdir: str) -> dict:
        obj, schedule, grid = inputs
        lp = lyapunov_perron
        prob, cert = lp.remainder_from_objective(obj, np.zeros(2), schedule)
        ch = lp.chart(prob, grid)
        shots = [None if phi is None else
                 lp.shooting_oracle(prob, x0p, bracket=prob.delta, steps=8000, width=1e-7)
                 for x0p, phi in zip(ch.grid, ch.phi)]
        exits = []
        for idx, sign in self.OFF_CHART:
            if ch.phi[idx] is None:
                exits.append((idx, None))
                continue
            z0 = np.array([float(ch.grid[idx][0]), float(ch.phi[idx][0]) + sign * 1e-3])
            _, step = lp.iterate_raw(prob, z0, 5000, stop_radius=prob.delta)
            exits.append((idx, step))
        return {"prob": prob, "cert": cert, "chart": ch, "shots": shots, "exits": exits}

    def summarize(self, out: dict) -> dict:
        ch, prob, cert = out["chart"], out["prob"], out["cert"]
        gaps = [None if s is None or p is None else abs(float(p[0]) - float(s[0]))
                for p, s in zip(ch.phi, out["shots"])]
        return {"valid": cert.valid, "gaps": gaps, "exits": out["exits"],
                "horizon": prob.horizon, "tail_estimate": prob.tail_estimate,
                "K": cert.k, "K1": cert.k1, "K2": cert.k2,
                "delta": prob.delta}

    def check(self, passes: list) -> Check:
        chk = Check()
        for i, res in enumerate(passes):
            chk.attempted += CHART_ANCHORS
            if not res["valid"]:
                chk.fail(CHART_ANCHORS, f"pass {i}: certificate not valid")
                continue
            bad = {a for a, g in enumerate(res["gaps"]) if g is None or g > self.GAP_TOL}
            late = {idx for idx, step in res["exits"]
                    if step is None or step > res["horizon"]}
            chk.fail(len(bad | late),
                     f"pass {i}: anchors {sorted(bad)} miss |phi - shot| <= {self.GAP_TOL:g}, "
                     f"off-chart starts at anchors {sorted(late)} do not exit in the horizon")
        return chk

    def readings(self, res: dict) -> dict:
        return {"max_gap": max((g for g in res["gaps"] if g is not None), default=None),
                "exit_steps": [step for _, step in res["exits"]],
                **{k: res[k] for k in ("horizon", "tail_estimate", "K", "K1", "K2", "delta")}}


WORKLOADS = {"avoid-fig1": AvoidFig1(), "avoid-cubic": AvoidCubic(),
             "chart-cubic": ChartCubic(), "shoot-cubic": ShootCubic()}

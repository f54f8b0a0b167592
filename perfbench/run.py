"""saddle_escape benchmark: one workload per invocation, closed loop, one job at a time.

    python3 perfbench/run.py --workload avoid-fig1 --seed 0 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.

``--trace 0`` times untraced passes for ``--seconds`` (no pass starts that
would end past it, but the workload's minimum number always runs) and
reports the end-to-end metrics: ``setup_s`` (median of several
fresh-process imports plus input building, corrected by a numpy-import
reference process), ``run_s`` (median pass wall time, corrected for the
host's speed by the probe in ``speed.py``) and ``peak_rss_mb`` (peak RSS of
this process, which runs only this workload).  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the median
traced pass, plus the tracing overhead.  Every pass runs under ``catch_warnings(record=True)``
with the ``always`` filter, so RuntimeWarnings are counted the same way on
every pass.

The correctness gates of every pass feed ``attempted``/``failed`` in the
final line (their ratio is the failed ratio); any failure makes the command
exit with code 1.  A missing or foreign ``src/saddle_escape`` exits with
code 2 before any result is printed.  Span files and a detailed result go
to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
THREADS_ENV = "SADDLE_ESCAPE_THREADS"
BLAS_THREADS = "1"
SETUP_REPS = 7

# the setup probe: import plus building this workload's inputs, in a fresh process
_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]].build(int(sys.argv[4]), sys.argv[5])
print(repr(time.perf_counter() - t0))
"""
# the reference for the setup probe: a fresh process importing numpy alone.
# Process start and import speed drift with the host's load; setup times are
# reported relative to this reference, at REF_IMPORT_S per reference import.
_IMPORT_PROBE = """\
import time
t0 = time.perf_counter()
import numpy
print(repr(time.perf_counter() - t0))
"""
REF_IMPORT_S = 0.1


class BenchError(RuntimeError):
    """The benchmark cannot run: no library source, or metrics BENCHMARK.json does not declare."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _prepare_environment() -> dict:
    """Fix thread settings before numpy loads; return what was there before."""
    ambient = {THREADS_ENV: os.environ.pop(THREADS_ENV, None),
               "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
               "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    os.environ["OMP_NUM_THREADS"] = BLAS_THREADS
    return ambient


def _import_library():
    if not (SRC / "saddle_escape" / "__init__.py").is_file():
        raise BenchError(f"no library source at {SRC / 'saddle_escape'}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import saddle_escape
    where = Path(saddle_escape.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"saddle_escape was imported from {where}, not from {SRC}")
    return saddle_escape


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_stats() -> dict:
    files = sorted((SRC / "saddle_escape").glob("*.py"))
    digest = hashlib.sha256()
    lines = nonblank = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        text = data.decode("utf-8").splitlines()
        lines += len(text)
        nonblank += sum(1 for t in text if t.strip())
    return {"src_files": len(files), "src_loc": lines, "src_loc_nonblank": nonblank,
            "src_sha256": digest.hexdigest()}


def environment(ambient: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "openblas": openblas, "nproc": os.cpu_count(),
            "blas_threads": {"OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
                             "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
                             "ambient": {k: v for k, v in ambient.items() if k != THREADS_ENV}},
            "saddle_escape_threads": ("unset" if ambient[THREADS_ENV] is None else
                                      f"cleared (ambient value {ambient[THREADS_ENV]!r})"),
            "commit": _commit(), **_source_stats()}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _timed_process(*args: str) -> float:
    out = subprocess.run([sys.executable, "-c", *args], capture_output=True, text=True,
                         timeout=120, check=True, cwd=ROOT)
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int, scratch: Path) -> tuple:
    """Import plus input building, timed inside SETUP_REPS fresh processes.

    Each is bracketed by two numpy-import reference processes.  Returns the
    raw seconds and the corrected ones: raw * REF_IMPORT_S / mean(brackets).
    """
    raw, corrected = [], []
    before = _timed_process(_IMPORT_PROBE)
    for i in range(SETUP_REPS):
        workdir = scratch / f"setup{i}"
        workdir.mkdir()
        t = _timed_process(_SETUP_PROBE, str(SRC), str(BENCH_DIR), workload, str(seed),
                           str(workdir))
        after = _timed_process(_IMPORT_PROBE)
        raw.append(t)
        corrected.append(t * REF_IMPORT_S / ((before + after) / 2))
        before = after
    return raw, corrected


def run_pass(wl, inputs, workdir: Path, tracer=None, pass_id: int = 0, sampler=None):
    """One pass with warnings recorded; returns (seconds, summary, runtime warnings).

    An untraced pass may run under a ``speed.SpeedSampler``; the seconds
    returned are wall time, probe samples included.
    """
    workdir.mkdir()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is None:
            with sampler or contextlib.nullcontext():
                t0 = time.perf_counter()
                out = wl.run(inputs, str(workdir))
                seconds = time.perf_counter() - t0
        else:
            out = tracer.trace_pass(pass_id, wl.run, inputs, str(workdir))
            seconds = tracer.pass_summary(pass_id)["bench.pass"]["incl_s"]
    n_warn = sum(1 for w in caught if issubclass(w.category, RuntimeWarning))
    return seconds, wl.summarize(out), n_warn


def layer_metrics(tracer, pass_id: int, n_warn: int, untraced_s: float,
                  traced_s: float) -> dict:
    """Per-layer metrics of one traced pass, named <module>.<function>.<quantity>."""
    spans = tracer.pass_summary(pass_id)
    counters = tracer.pass_counters(pass_id)
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}

    def span(name):
        return spans.get(name, zero)

    def per(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("schedules.value", "schedules.values", "objectives.grad",
                 "objectives.classify_critical_point", "methods.run",
                 "lyapunov_perron.bound_K2", "lyapunov_perron.solve_stable_point",
                 "lyapunov_perron.apply_T", "lyapunov_perron.shooting_oracle",
                 "lyapunov_perron.iterate_raw"):
        m[f"{name}.calls"] = span(name)["calls"]
        m[f"{name}.self_s"] = span(name)["self_s"]
    for name in ("objectives.hess", "spectral.split", "spectral.quadratic_trajectory",
                 "spectral.transition_product"):
        m[f"{name}.calls"] = span(name)["calls"]
    for name in ("harness_cli.main", "harness_cli.avoidance_experiment",
                 "harness_cli.emit_plot_data", "harness_cli.chart_experiment",
                 "lyapunov_perron.bound_K1", "lyapunov_perron.remainder_from_objective",
                 "lyapunov_perron.chart", "bench.pass"):
        m[f"{name}.self_s"] = span(name)["self_s"]

    steps = counters.get("methods.run.steps", 0)
    m["methods.run.steps"] = int(steps)
    m["methods.run.us_per_step"] = per(span("methods.run")["incl_s"] * 1e6, steps)
    m["methods.run.step_errors"] = int(counters.get("methods.run.step_errors", 0))
    trials = counters.get("harness_cli.avoidance_experiment.trials", 0)
    m["harness_cli.avoidance_experiment.trial_steps"] = int(
        counters.get("harness_cli.avoidance_experiment.trial_steps", 0))
    stepped = tracer.direct_children(pass_id, "methods.run", "harness_cli.avoidance_experiment")
    m["harness_cli.avoidance_experiment.batch_share"] = per(trials - stepped, trials)
    m["lyapunov_perron.apply_T.per_solve"] = per(
        span("lyapunov_perron.apply_T")["calls"],
        span("lyapunov_perron.solve_stable_point")["calls"])
    m["lyapunov_perron.chart.failures"] = int(counters.get("lyapunov_perron.chart.failures", 0))
    certs = counters.get("lyapunov_perron.remainder_from_objective.certificates", 0)
    for q in ("horizon", "horizon_capped", "tail_over_tol", "delta_halvings"):
        key = f"lyapunov_perron.remainder_from_objective.{q}"
        m[key] = per(counters.get(key, 0.0), certs)
    m["lyapunov_perron.runtime_warnings"] = n_warn
    m["trace.run_s"] = traced_s
    m["trace.untraced_run_s"] = untraced_s
    m["trace.overhead_ratio"] = per(traced_s - untraced_s, untraced_s)
    m["trace.self_sum_s"] = sum(s["self_s"] for s in spans.values())
    return m


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _median_index(values: list) -> int:
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


def main(argv=None, workload_table=None) -> int:
    ambient = _prepare_environment()
    try:
        _import_library()
        import speed
        import tracer as tracing
        import workloads
    except (BenchError, ImportError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    table = workload_table or workloads.WORKLOADS
    args = _args(argv, sorted(table))
    wl = table[args.workload]
    env = environment(ambient)
    units = declared_metrics(args.trace)

    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        setup_raw, setup = measure_setup(args.workload, args.seed, scratch)
        inputs = wl.build(args.seed, str(scratch))

        untraced, traced, summaries, warn_counts = [], [], [], []
        corrected, host_speeds = [], []
        tracer = tracing.Tracer() if args.trace else None
        # end-to-end passes run under the speed probe; traced runs compare raw times
        sampler = None if args.trace else speed.SpeedSampler()
        t_start = time.perf_counter()
        while True:
            n = len(summaries)
            sec, summ, n_warn = run_pass(wl, inputs, scratch / f"pass{n}", sampler=sampler)
            untraced.append(sec)
            summaries.append(summ)
            warn_counts.append(n_warn)
            if sampler is not None:
                corrected.append((sec - sampler.probe_s) * sampler.speed(wl.small_share))
                host_speeds.append(sampler.speeds())
            if tracer is not None:
                inst = tracing.install(tracer)
                try:
                    sec, summ, n_warn = run_pass(wl, inputs, scratch / f"pass{n + 1}",
                                                 tracer, pass_id=len(traced))
                finally:
                    inst.restore()
                traced.append((sec, n_warn))
                summaries.append(summ)
                warn_counts.append(n_warn)
            # stop before a round that would end past --seconds
            elapsed = time.perf_counter() - t_start
            per_round = elapsed / len(untraced)
            if len(summaries) >= wl.min_passes and elapsed + per_round > args.seconds:
                break
        check = wl.check(summaries)
        scale = wl.scale(summaries[0])

        if tracer is None:
            metrics = {"setup_s": statistics.median(setup),
                       "run_s": statistics.median(corrected) * scale,
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        else:
            mid = _median_index([s for s, _ in traced])
            metrics = layer_metrics(tracer, mid, traced[mid][1],
                                    statistics.median(untraced), traced[mid][0])
            drift = abs(metrics["trace.self_sum_s"] - metrics["trace.run_s"])
            check.fail(int(drift > 1e-6 * max(1.0, metrics["trace.run_s"])),
                       f"span self times sum to {metrics['trace.self_sum_s']}, "
                       f"not the traced pass time {metrics['trace.run_s']}")
            tracer.save(str(RESULTS / f"spans-{args.workload}-seed{args.seed}.npz"))

        if set(metrics) != set(units):
            raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} are computed "
                             "or declared in BENCHMARK.json, not both")
        detail = {"workload": args.workload, "seed": args.seed,
                  "seed_used": bool(wl.seeded), "seconds": args.seconds,
                  "trace": args.trace, "environment": env,
                  "setup_samples_s": setup_raw, "corrected_setup_s": setup,
                  "untraced_pass_s": untraced,
                  "corrected_pass_s": corrected,
                  "host_speed_small_big": host_speeds, "small_share": wl.small_share,
                  "traced_pass_s": [s for s, _ in traced], "run_s_scale": scale,
                  "runtime_warnings_per_pass": warn_counts,
                  "readings": wl.readings(summaries[0]), "problems": check.problems,
                  "failed_ratio": check.failed / check.attempted, "metrics": metrics}
        with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
                  "w", encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1, default=str)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("environment " + json.dumps(env, sort_keys=True))
    for problem in check.problems:
        print(f"GATE FAILED: {problem}")
    print(f"failed_ratio {check.failed}/{check.attempted} = "
          f"{check.failed / check.attempted:.6g}")
    print(f"passes untraced={len(untraced)} traced={len(traced)} "
          f"untraced_pass_s={[round(s, 4) for s in untraced]} scale={scale:.6g}")
    if corrected:
        print(f"host_speed_small_big={[(round(a, 3), round(b, 3)) for a, b in host_speeds]} "
              f"corrected_pass_s={[round(s, 4) for s in corrected]}")
        scaled = [s * scale for s in corrected]
        q1, q2, q3 = statistics.quantiles(scaled, n=4) if len(scaled) > 1 else scaled * 3
        print(f"run_s_quartiles {q1:.6g} {q2:.6g} {q3:.6g} n={len(scaled)}")
    for name, value in metrics.items():
        print(f"{name} {value:.9g} {units[name]}")
    print(json.dumps({
        "correct": check.failed == 0, "attempted": check.attempted, "failed": check.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if check.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

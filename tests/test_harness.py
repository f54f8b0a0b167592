"""Experiment config validation, drivers, CSV emission, and the CLI."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import saddle_escape
from saddle_escape import harness_cli as cli
from saddle_escape import methods as mth
from saddle_escape import objectives as obj_mod
from saddle_escape import schedules as sch
from saddle_escape.harness_cli import (AvoidanceReport, ConfigError,
                                       ExperimentAssertionError,
                                       ExperimentConfig, avoidance_experiment,
                                       build_objective, chart_experiment,
                                       emit_plot_data, fig1_experiment, main,
                                       single_run_experiment)
from reference import reference_draw_init, reference_run

BASE = {
    "experiment": "avoidance",
    "method_id": "gd",
    "objective": {"name": "fig1"},
    "schedule": {"kind": "power", "c": 1.0, "p": 1.0, "offset": 2},
    "trials": 40,
    "seed": 0,
    "init_box": [[-1.0, 1.0], [-1.0, 1.0]],
    "budget": 5000,
    "conv_tol": 1e-12,
    "escape_radius": 1e3,
}


def make_cfg(**over):
    d = dict(BASE)
    d.update(over)
    return ExperimentConfig.from_dict(d)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_unknown_field_is_named():
    with pytest.raises(ConfigError, match="trails"):
        ExperimentConfig.from_dict({"experiment": "avoidance", "trails": 3})


@pytest.mark.parametrize("field,value", [
    ("experiment", "walk"),
    ("method_id", "sgd"),
    ("trials", 0),
    ("trials", 2.5),
    ("seed", -1),
    ("seed", 2 ** 64),
    ("budget", 0),
    ("stride", 0),  # stride and window are not config keys: any value is rejected
    ("window", 0),
    ("conv_tol", 0.0),
    ("escape_radius", -1.0),
    ("init_box", []),
    ("init_box", [[1.0, -1.0]]),
    ("init_box", [[0.0]]),
    ("objective", "fig1"),
    ("chart", {"grid": 3}),
    ("budget", True),
    ("stride", True),
    ("window", True),
    ("conv_tol", True),
    ("escape_radius", True),
])
def test_invalid_values_rejected(field, value):
    with pytest.raises(ConfigError):
        make_cfg(**{field: value})


def test_from_json_and_bad_json(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(BASE))
    cfg = ExperimentConfig.from_json(str(p))
    assert cfg.trials == 40
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(str(p))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(str(tmp_path / "missing.json"))


def test_build_objective_variants():
    np.testing.assert_array_equal(build_objective({"name": "fig1"}).quadratic_matrix,
                                  np.diag([2.0, -2.0]))
    q = build_objective({"name": "quadratic", "matrix": [[1.0, 0.0], [0.0, -1.0]]})
    np.testing.assert_allclose(q.quadratic_matrix, np.diag([1.0, -1.0]))
    c = build_objective({"name": "cubic", "a": 0.2})
    assert c.cubic_coefficient == 0.2
    with pytest.raises(ConfigError):
        build_objective({"name": "rosenbrock"})
    with pytest.raises(ConfigError):
        build_objective({"name": "fig1", "a": 1.0})
    with pytest.raises(ConfigError):
        build_objective({"name": "quadratic"})


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def test_trajectory_csv_format(tmp_path):
    rec = mth.run("gd", obj_mod.fig1(), sch.power(1.0, 1.0, 2),
                  np.array([0.5, 0.5]), stride=50)
    path = emit_plot_data(rec, str(tmp_path / "t.csv"))
    with open(path, newline="") as fh:
        lines = fh.read().split("\n")
    assert lines[0] == "k,x_1,x_2,step_size,grad_norm"
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == repr(0.5)
    assert lines[-1] == ""  # trailing newline, unix endings
    # floats round-trip exactly
    assert float(lines[1].split(",")[4]) == rec.grad_norms[0]


def test_empty_trajectory_csv_is_header_only(tmp_path):
    rec = mth.TrajectoryRecord(terminal=mth.Terminal(kind=mth.BUDGET_EXHAUSTED),
                               k_final=0, ks=[], points=[], step_sizes=[],
                               grad_norms=[])
    path = emit_plot_data(rec, str(tmp_path / "e.csv"))
    with open(path) as fh:
        content = fh.read()
    assert content.count("\n") == 1
    assert content.startswith("k,")


def test_report_rows_sorted_by_trial(tmp_path):
    # each cell is written as its own repr(float(v)), str or 0/1, whether the
    # row holds arrays or lists, and for inf, NaN and -0.0 cells too
    shuffled = avoidance_experiment(make_cfg(trials=10))
    shuffled.rows.reverse()  # emission must not depend on incoming order
    overflow = avoidance_experiment(make_cfg(  # an escaped cubic trial's gradient overflows
        objective={"name": "cubic", "a": 0.1}, trials=5, budget=3000, escape_radius=1e308))
    assert any(math.isinf(r["grad_norm"]) for r in overflow.rows)
    odd = avoidance_experiment(make_cfg(trials=3, budget=100))
    odd.rows[1]["init"] = np.array([-0.0, 0.25])
    odd.rows[1]["final"] = np.array([math.nan, -0.0])
    row = {"terminal": mth.CONVERGED_TO_POINT, "k_final": 7, "grad_norm": math.nan,
           "saddle_hit": True, "message": None}
    lists = AvoidanceReport(trials=2, counts={}, saddle_hits=1, saddle_hit_inits=[],
                            rows=[dict(row, trial=1, init=[-0.0, 0.1], final=[1e-300, -0.0]),
                                  dict(row, trial=0, init=[0.5, math.inf],
                                       final=[math.nan, 5e-324])])
    for i, rep in enumerate([shuffled, overflow, odd, lists]):
        path = emit_plot_data(rep, str(tmp_path / f"r{i}.csv"))
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
        assert lines[0] == ("trial,x0_1,x0_2,terminal,k_final,x_final_1,x_final_2,"
                            "grad_norm,saddle_hit")
        expected = [",".join([str(r["trial"]), *(repr(float(v)) for v in r["init"]),
                              r["terminal"], str(r["k_final"]),
                              *(repr(float(v)) for v in r["final"]),
                              repr(float(r["grad_norm"])), "1" if r["saddle_hit"] else "0"])
                    for r in sorted(rep.rows, key=lambda r: r["trial"])]
        assert lines[1:] == expected + [""]


# ---------------------------------------------------------------------------
# avoidance experiment
# ---------------------------------------------------------------------------

def assert_matches_run(cfg):
    """Every avoidance row equals a methods.run and a reference_run from the same init.

    Terminal, k_final and final-point bits must agree exactly, and
    grad_norm (computed row-wise from the final points) within 2 ulp of
    run's.
    """
    rep = avoidance_experiment(cfg)
    obj = build_objective(cfg.objective)
    schedule = sch.from_config(cfg.schedule)
    metric = None if cfg.metric is None else mth.RiemannianMetric(cfg.metric)
    step = mth.make_step(cfg.method_id, obj, schedule, metric=metric)
    counts = dict.fromkeys(rep.counts, 0)
    for row in rep.rows:
        rec = mth.run(cfg.method_id, obj, schedule, row["init"], budget=cfg.budget,
                      conv_tol=cfg.conv_tol, escape_radius=cfg.escape_radius, metric=metric)
        kind, k_final, final, message = reference_run(
            step, row["init"], budget=cfg.budget, conv_tol=cfg.conv_tol,
            escape_radius=cfg.escape_radius)
        counts[rec.terminal.kind] += 1
        assert row["terminal"] == rec.terminal.kind == kind
        assert row["k_final"] == rec.k_final == k_final
        assert row["message"] == rec.terminal.message == message
        assert row["final"].tobytes() == rec.points[-1].tobytes() == final.tobytes()
        ulp = np.spacing(max(abs(row["grad_norm"]), abs(rec.grad_norms[-1])))
        assert abs(row["grad_norm"] - rec.grad_norms[-1]) <= 2 * ulp
    assert rep.counts == counts
    return rep


def test_batch_and_sequential_paths_agree():
    cubic = {"name": "cubic", "a": 0.1}
    for over in ({}, {"objective": cubic},
                 {"objective": cubic, "init_box": [[-1.0, 1.0], [0.0, 0.0]]}):
        assert_matches_run(make_cfg(trials=30, budget=3000, **over))
    # mirror-euclidean and metric-less manifold-intrinsic run gd's recursion
    X0 = np.random.default_rng(3).uniform(-1.0, 1.0, size=(30, 2))
    schedule = sch.from_config(BASE["schedule"])
    for f in (obj_mod.fig1(), obj_mod.cubic_perturbed_saddle(0.1)):
        want = mth.run_batch("gd", f, schedule, X0, budget=3000, conv_tol=1e-12)
        for method_id in ("mirror-euclidean", "manifold-intrinsic"):
            got = mth.run_batch(method_id, f, schedule, X0, budget=3000, conv_tol=1e-12)
            assert (got.terminal, got.message) == (want.terminal, want.message)
            assert got.k_final.tobytes() == want.k_final.tobytes()
            assert got.final.tobytes() == want.final.tobytes()


def test_batch_and_sequential_agree_for_prox():
    assert_matches_run(make_cfg(method_id="prox", trials=20, budget=3000,
                                schedule={"kind": "power", "c": 1.0, "p": 1.0, "offset": 3},
                                escape_radius=50.0, conv_tol=1e-13))
    # I + alpha_5 A is singular for A = diag(1, -7) and alpha_k = 1/(k+2): the
    # step error at k = 5 must report x_5, not the last stride-recorded point
    rep = assert_matches_run(make_cfg(method_id="prox", trials=6, objective={
        "name": "quadratic", "matrix": [[1.0, 0.0], [0.0, -7.0]]}))
    assert rep.counts["step_error"] == 6
    assert all(row["k_final"] == 5 and not np.array_equal(row["final"], row["init"])
               for row in rep.rows)


def test_batch_matches_run_for_constant_metric():
    assert_matches_run(make_cfg(method_id="manifold-intrinsic", trials=20, budget=3000,
                                metric=[[2.0, 0.5], [0.5, 1.0]]))


def test_forced_axis_converges_to_saddle():
    cfg = make_cfg(trials=5, init_box=[[-1.0, 1.0], [0.0, 0.0]], budget=2000)
    rep = avoidance_experiment(cfg)
    assert rep.saddle_hits == 5
    assert rep.counts["converged_to_point"] == 5
    assert len(rep.saddle_hit_inits) == 5


def test_singular_prox_lands_in_step_error():
    # I + alpha_0 A with A = diag(1, -2), alpha_0 = 1/2 annihilates the
    # second coordinate
    cfg = make_cfg(method_id="prox", trials=8,
                   objective={"name": "quadratic",
                              "matrix": [[1.0, 0.0], [0.0, -2.0]]})
    rep = avoidance_experiment(cfg)
    assert rep.counts["step_error"] == 8
    assert sum(rep.counts.values()) == rep.trials
    assert all(row["k_final"] == 0 for row in rep.rows)


def test_avoidance_rerun_is_byte_identical(tmp_path):
    cfg = make_cfg(trials=25, budget=2000)
    p1 = emit_plot_data(avoidance_experiment(cfg), str(tmp_path / "a.csv"))
    p2 = emit_plot_data(avoidance_experiment(cfg), str(tmp_path / "b.csv"))
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


BOXES = {"c04": [[-1.0, 1.0], [-1.0, 1.0]], "on-axis": [[-1.0, 1.0], [0.0, 0.0]],
         "3d": [[-3.5, -0.25], [-1e-3, 7.0], [2.0, 2.5]], "1d": [[-2.0, 0.5]]}


@pytest.mark.parametrize("box", BOXES.values(), ids=BOXES.keys())
@pytest.mark.parametrize("seed", [0, 12345, 2 ** 40 + 3])  # 2^40 + 3 takes two entropy words
def test_bulk_draw_is_the_per_trial_uniform_draw(seed, box):
    box = np.asarray(box)
    for trials in (1, 2, 1000):
        want = np.stack([reference_draw_init(seed, t, box) for t in range(trials)])
        got = cli._draw_inits(seed, trials, box)
        assert got.shape == (trials, len(box))
        assert got.tobytes() == want.tobytes()
    assert cli._draw_inits(seed, 5, box).tobytes() == got[:5].tobytes()  # got: 1000 trials


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.integers(1, 64), st.integers(1, 6))
def test_bulk_draw_rows_are_the_per_trial_draws(seed, trials, d):
    # the vectorized SeedSequence and PCG64 steps against numpy's own, row by row
    box = np.column_stack([-np.arange(1.0, d + 1), np.linspace(0.5, 7.0, d)])
    got = cli._draw_inits(seed, trials, box)
    for t in range(trials):
        assert got[t].tobytes() == reference_draw_init(seed, t, box).tobytes()


def test_bulk_draw_at_the_trials_bound_matches_sampled_rows():
    seed, trials, box = 2 ** 64 - 1, cli._MAX_TRIALS, np.array([[-1.0, 1.0], [0.0, 3.0]])
    got = cli._draw_inits(seed, trials, box)
    assert trials == 2 ** 20 and got.shape == (trials, 2)
    sampled = np.random.default_rng(0).integers(trials, size=30).tolist()
    for t in [0, 1, 2 ** 16, 2 ** 20 - 2, 2 ** 20 - 1] + sampled:
        assert got[t].tobytes() == reference_draw_init(seed, t, box).tobytes()


def test_a_trials_start_does_not_depend_on_trials(tmp_path):
    lines = []
    for trials in (1, 20):
        cfg = ExperimentConfig(experiment="avoidance", trials=trials)
        path = emit_plot_data(avoidance_experiment(cfg), str(tmp_path / f"t{trials}.csv"))
        with open(path, encoding="utf-8") as fh:
            lines.append(fh.read().split("\n")[1])
    assert lines[0] == lines[1]


def test_different_seed_changes_draws():
    r0 = avoidance_experiment(make_cfg(trials=5, budget=100))
    r1 = avoidance_experiment(make_cfg(trials=5, budget=100, seed=1))
    assert not np.allclose(r0.rows[0]["init"], r1.rows[0]["init"])


def test_init_box_dimension_mismatch():
    with pytest.raises(ConfigError):
        avoidance_experiment(make_cfg(init_box=[[-1.0, 1.0]]))


# ---------------------------------------------------------------------------
# fig1 / chart / single-run drivers
# ---------------------------------------------------------------------------

def test_fig1_experiment_writes_and_orders(tmp_path):
    cfg = make_cfg(experiment="fig1", output_dir=str(tmp_path))
    records = fig1_experiment(cfg)
    assert records["sqrt"].k_final < records["harmonic"].k_final
    for label in ("sqrt", "harmonic", "quartic"):
        assert os.path.exists(tmp_path / f"fig1_{label}.csv")
    assert records["quartic"].grad_norms[-1] > 1e-3


def test_fig1_ids_that_run_gd_write_gd_bytes(tmp_path):
    # fig1 steps cfg.method_id; mirror-euclidean is gd's recursion, to the bit
    for method_id in ("gd", "mirror-euclidean"):
        fig1_experiment(make_cfg(experiment="fig1", method_id=method_id,
                                 output_dir=str(tmp_path / method_id)))
    for label in ("sqrt", "harmonic", "quartic"):
        name = f"fig1_{label}.csv"
        assert (tmp_path / "mirror-euclidean" / name).read_bytes() == \
            (tmp_path / "gd" / name).read_bytes()


def test_fig1_experiment_assertion_failure_keeps_records(tmp_path):
    cfg = make_cfg(experiment="fig1", output_dir=str(tmp_path), budget=50)
    with pytest.raises(ExperimentAssertionError) as exc:
        fig1_experiment(cfg)
    assert exc.value.records is not None
    assert exc.value.records["harmonic"].terminal.kind == mth.BUDGET_EXHAUSTED


def test_chart_experiment_quadratic(tmp_path):
    cfg = make_cfg(experiment="chart", output_dir=str(tmp_path),
                   objective={"name": "quadratic",
                              "matrix": [[1.0, 0.0], [0.0, -1.0]]})
    ch, cert, prob = chart_experiment(cfg)
    assert cert.valid and cert.k == pytest.approx(0.5)
    # a quadratic has zero remainder: the manifold is the stable eigenspace
    for p in ch.phi:
        np.testing.assert_allclose(p, [0.0], atol=1e-14)
    cert_data = json.loads((tmp_path / "certificate.json").read_text())
    assert cert_data["valid"] is True
    assert cert_data["K"] == pytest.approx(0.5)
    lines = (tmp_path / "chart.csv").read_text().strip().split("\n")
    assert lines[0] == "x0_plus_1,x0_minus_1,residual,picard_iters"
    assert len(lines) == 1 + 11


@pytest.mark.parametrize("objective", [
    {"name": "cubic", "a": 0.1},
    {"name": "quadratic", "matrix": [[1.0, 0.0], [0.0, -1.0]]},
    {"name": "quadratic", "matrix": [[1.0, 0.0], [0.0, 0.0]]},
    {"name": "quadratic", "matrix": np.diag([1.0, 0.0, -1.0]).tolist()},
], ids=["cubic", "diag(1,-1)", "diag(1,0)", "diag(1,0,-1)"])
def test_chart_csv_writes_no_negative_zero(tmp_path, objective):
    # an exactly-zero chart value is +0.0: the remainder and the unstable
    # block's entries are written without a negation that turns 0 into -0
    chart_experiment(make_cfg(experiment="chart", output_dir=str(tmp_path), objective=objective))
    rows = (tmp_path / "chart.csv").read_text().strip().split("\n")[1:]
    cells = [float(c) for row in rows for c in row.split(",")]
    assert 0.0 in cells
    assert not [c for c in cells if c == 0.0 and math.copysign(1.0, c) < 0]


def test_chart_experiment_uncertifiable_epsilon(tmp_path):
    cfg = make_cfg(experiment="chart", output_dir=str(tmp_path),
                   objective={"name": "quadratic",
                              "matrix": [[1.0, 0.0], [0.0, -1.0]]},
                   chart={"epsilon": 0.9})
    with pytest.raises(ExperimentAssertionError, match="largest certifiable"):
        chart_experiment(cfg)


def test_chart_experiment_passes_only_the_options_it_is_given(tmp_path, monkeypatch):
    # the library's defaults apply unless the config sets an option: an
    # empty chart block passes no keyword beyond the method
    seen = {}

    def spy(name, fn):
        def call(*args, **kw):
            seen[name] = kw
            return fn(*args, **kw)
        monkeypatch.setattr(cli, name, call)

    spy("remainder_from_objective", cli.remainder_from_objective)
    spy("chart", cli.chart)
    cfg = make_cfg(experiment="chart", output_dir=str(tmp_path / "a"),
                   objective={"name": "cubic", "a": 0.1})
    chart_experiment(cfg)
    assert seen == {"remainder_from_objective": {"method": "gd"}, "chart": {}}
    cfg = make_cfg(experiment="chart", output_dir=str(tmp_path / "b"),
                   objective={"name": "cubic", "a": 0.1},
                   chart={"fp_budget": 400, "delta0": 0.05, "epsilon": None})
    chart_experiment(cfg)
    assert seen == {"remainder_from_objective": {"method": "gd", "delta0": 0.05,
                                                 "epsilon": None},
                    "chart": {"fp_budget": 400}}


def test_chart_experiment_grid_halfwidth_is_held_to_half_delta_by_chart(tmp_path):
    # the cubic certifies delta = 0.1: a grid out to 0.05 charts, and one past
    # it is the library chart's LyapunovError, reported as a ConfigError
    cubic = {"name": "cubic", "a": 0.1}
    ch, _, prob = chart_experiment(make_cfg(experiment="chart", output_dir=str(tmp_path),
                                            objective=cubic, chart={"grid_halfwidth": 0.05}))
    assert prob.delta == 0.1 and not ch.partial
    cfg = make_cfg(experiment="chart", output_dir=str(tmp_path), objective=cubic,
                   chart={"grid_halfwidth": 0.0500001})
    with pytest.raises(ConfigError, match=r"^chart\.grid_halfwidth = 0\.0500001 .*delta/2"):
        chart_experiment(cfg)


def test_single_run_requires_init(tmp_path):
    cfg = make_cfg(experiment="single_run", output_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="init"):
        single_run_experiment(cfg)
    cfg2 = make_cfg(experiment="single_run", output_dir=str(tmp_path),
                    init=[0.5, 0.5], budget=200)
    rec = single_run_experiment(cfg2)
    assert rec.terminal.kind == mth.ESCAPED_REGION
    assert (tmp_path / "run.csv").exists()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def write_cfg(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_cli_avoidance_roundtrip(tmp_path, capsys):
    data = dict(BASE, trials=10, budget=500, output_dir=str(tmp_path / "out"))
    code = main(["avoidance", "--config", write_cfg(tmp_path, "a.json", data)])
    assert code == 0
    out = capsys.readouterr().out
    assert "saddle_hits: 0/10" in out
    assert (tmp_path / "out" / "avoidance.csv").exists()


def test_cli_rejects_unknown_field(tmp_path, capsys):
    code = main(["avoidance", "--config",
                 write_cfg(tmp_path, "b.json", {"experiment": "avoidance",
                                                "trails": 2})])
    assert code == 2
    assert "trails" in capsys.readouterr().err


def test_cli_subcommand_config_mismatch(tmp_path, capsys):
    data = dict(BASE)
    code = main(["fig1", "--config", write_cfg(tmp_path, "c.json", data)])
    assert code == 2


def test_cli_assertion_failure_exit_code(tmp_path):
    data = {"experiment": "fig1", "budget": 50, "output_dir": str(tmp_path / "f")}
    code = main(["fig1", "--config", write_cfg(tmp_path, "d.json", data)])
    assert code == 1


def test_python_dash_m_runs_the_cli(tmp_path):
    # the package's __main__ runs the CLI without runpy's double-import
    # RuntimeWarning, so it exits 0 under -W error, with main's own bytes
    cfg = write_cfg(tmp_path, "f.json", {"experiment": "fig1", "budget": 5000,
                                         "conv_tol": 1e-12})
    assert main(["fig1", "--config", cfg, "--out", str(tmp_path / "lib")]) == 0
    src = os.path.dirname(os.path.dirname(saddle_escape.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "saddle_escape", "fig1",
                           "--config", cfg, "--out", str(tmp_path / "cli")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for label in ("sqrt", "harmonic", "quartic"):
        name = f"fig1_{label}.csv"
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


def test_cli_chart_horizon_cap_below_1024(tmp_path, capsys):
    data = {"experiment": "chart", "objective": {"name": "cubic", "a": 0.1},
            "chart": {"horizon_cap": 500}, "output_dir": str(tmp_path / "c")}
    code = main(["chart", "--config", write_cfg(tmp_path, "h.json", data)])
    assert code == 0
    cert = json.loads((tmp_path / "c" / "certificate.json").read_text())
    assert cert["horizon"] == 500
    assert cert["horizon_capped"] is True
    assert cert["tail_estimate"] > cert["tail_tol"]
    assert "horizon capped" in capsys.readouterr().out


def test_cli_chart_default_horizon_meets_tail_tol(tmp_path, capsys):
    data = {"experiment": "chart", "objective": {"name": "cubic", "a": 0.1},
            "output_dir": str(tmp_path / "c")}
    code = main(["chart", "--config", write_cfg(tmp_path, "h.json", data)])
    assert code == 0
    cert = json.loads((tmp_path / "c" / "certificate.json").read_text())
    assert cert["horizon_capped"] is False
    assert cert["tail_estimate"] < cert["tail_tol"]
    assert cert["horizon"] < 10_000 and cert["decay_rate"] == 0.625
    assert (cert["K1"], cert["K2"], cert["K"], cert["valid"]) == (1.0, 1.0, 0.62, True)
    assert "horizon capped" not in capsys.readouterr().out
    # the ids that run gd's recursion chart it to the same bytes
    for method_id in ("mirror-euclidean", "manifold-intrinsic"):
        out = tmp_path / method_id
        code = main(["chart", "--config", write_cfg(tmp_path, f"{method_id}.json", dict(
            data, method_id=method_id, output_dir=str(out)))])
        assert code == 0
        for name in ("chart.csv", "certificate.json"):
            assert (out / name).read_bytes() == (tmp_path / "c" / name).read_bytes()


def test_cli_seed_and_out_overrides(tmp_path):
    data = dict(BASE, trials=6, budget=200)
    cfg_path = write_cfg(tmp_path, "e.json", data)
    code = main(["avoidance", "--config", cfg_path,
                 "--seed", "3", "--out", str(tmp_path / "o2")])
    assert code == 0
    assert (tmp_path / "o2" / "avoidance.csv").exists()


def test_cli_run_prints_its_terminal_and_writes_the_library_bytes(tmp_path, capsys):
    # an on-axis start reaches the saddle of x^2 - y^2: all three prints run
    data = {"experiment": "single_run", "init": [0.5, 0.0]}
    out = tmp_path / "cli" / "nested"
    code = main(["run", "--config", write_cfg(tmp_path, "r.json", data), "--out", str(out)])
    assert code == 0
    rec = single_run_experiment(ExperimentConfig.from_dict(
        dict(data, output_dir=str(tmp_path / "lib"))))
    assert capsys.readouterr().out.splitlines() == [
        f"terminal: converged_to_point at step {rec.k_final}",
        "limit class: strict_saddle", f"wrote run.csv under {out}"]
    assert (out / "run.csv").read_bytes() == (tmp_path / "lib" / "run.csv").read_bytes()


def test_cli_seed_override_is_checked_by_the_config(tmp_path, capsys):
    code = main(["avoidance", "--config", write_cfg(tmp_path, "s.json", BASE),
                 "--seed", "-1", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "seed must be a 64-bit nonnegative integer, got -1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


QUADRATIC = {"name": "quadratic", "matrix": [[1.0, 0.0], [0.0, -1.0]]}
INTRINSIC = "manifold-intrinsic"
LOCAL_MIN = {"name": "quadratic", "matrix": [[1.0, 0.0], [0.0, 2.0]]}
LOCAL_MAX = {"name": "quadratic", "matrix": [[-1.0, 0.0], [0.0, -2.0]]}
SHIFTED = {"kind": "power", "c": 1.0, "p": 1.0, "offset": 3}  # alpha_0 * lambda_max = 2/3 < 1


@pytest.mark.parametrize("command,over", [
    ("avoidance", {"method_id": INTRINSIC, "metric": [[1.0, 2.0], [3.0, 4.0]]}),
    ("avoidance", {"method_id": INTRINSIC, "metric": "x"}),
    ("avoidance", {"method_id": INTRINSIC, "metric": [[1.0]]}),
    ("avoidance", {"metric": [[2.0, 0.0], [0.0, 1.0]]}),
    ("run", {"experiment": "single_run", "method_id": "mirror-euclidean", "init": [1.0, 2.0],
             "metric": [[2.0, 0.0], [0.0, 1.0]]}),
    ("run", {"experiment": "single_run", "init": [1.0, 2.0, 3.0]}),
    ("run", {"experiment": "single_run", "init": "ab"}),
    ("fig1", {"experiment": "fig1", "init": "ab"}),
    ("chart", {"experiment": "chart", "objective": QUADRATIC, "chart": {"grid_points": "x"}}),
    ("chart", {"experiment": "chart", "objective": QUADRATIC, "chart": {"delta0": None}}),
    ("chart", {"experiment": "chart", "objective": QUADRATIC, "chart": {"delta0": 0}}),
    ("chart", {"experiment": "chart", "objective": QUADRATIC,
               "chart": {"critical_point": [0.0]}}),
    ("avoidance", {"objective": {"name": "cubic", "a": "x"}}),
    ("avoidance", {"objective": {"name": "quadratic", "matrix": "x"}}),
    ("avoidance", {"schedule": {"kind": "power", "c": "x", "p": 1.0, "offset": 2}}),
    ("avoidance", {"schedule": {"kind": "geometric", "c": 1, "r": "x"}}),
    # table is no longer a schedule kind: both configs are unknown-kind errors
    ("avoidance", {"schedule": {"kind": "table", "values": ["a"], "tail": BASE["schedule"]}}),
    ("avoidance", {"schedule": {"kind": "constant", "c": math.inf}}),
    ("avoidance", {"schedule": {"kind": "power", "c": True, "p": 1.0, "offset": 2}}),
    ("avoidance", {"schedule": {"kind": "geometric", "c": 0.1, "r": None}}),
    ("avoidance", {"schedule": {"kind": "table", "values": [True], "tail": BASE["schedule"]}}),
    ("avoidance", {"output_dir": 5}),
    ("avoidance", {"output_dir": "taken"}),
    ("run", {"experiment": "single_run", "init": [1.0, 2.0], "output_dir": "taken"}),
    ("fig1", {"experiment": "fig1", "output_dir": "taken"}),
    ("chart", {"experiment": "chart", "objective": QUADRATIC, "output_dir": "taken"}),
    ("chart", {"experiment": "chart", "method_id": "prox",
               "objective": {"name": "cubic", "a": 0.1}}),
    ("chart", {"experiment": "chart", "method_id": INTRINSIC,
               "objective": {"name": "cubic", "a": 0.1}, "metric": [[2.0, 0.0], [0.0, 1.0]]}),
    ("chart", {"experiment": "chart", "objective": {"name": "cubic", "a": 0.1},
               "chart": {"grid_halfwidth": 1.0}}),
    ("fig1", {"experiment": "fig1", "method_id": "prox"}),
    ("fig1", {"experiment": "fig1", "method_id": INTRINSIC,
              "metric": [[2.0, 0.0], [0.0, 1.0]]}),
    ("avoidance", {"objective": {"name": "quadratic", "matrix": [[math.nan, 0.0], [0.0, -1.0]]}}),
    ("chart", {"experiment": "chart",
               "objective": {"name": "quadratic", "matrix": [[math.nan, 0.0], [0.0, -1.0]]}}),
    ("run", {"experiment": "single_run", "method_id": INTRINSIC, "init": [1.0, 2.0],
             "metric": [[math.nan, 0.0], [0.0, 1.0]]}),
    ("run", {"experiment": "single_run", "method_id": INTRINSIC, "init": [1.0, 2.0],
             "metric": [[math.inf, 0.0], [0.0, 1.0]]}),
    ("chart", {"experiment": "chart", "objective": {"name": "cubic", "a": 0.1},
               "chart": {"critical_point": [math.nan, 0.0]}}),
    ("run", {"experiment": "single_run", "init": [math.nan, 0.5]}),
    ("fig1", {"experiment": "fig1", "init": [math.nan, 0.5]}),
    ("run", {"experiment": "single_run", "init": [0.5, 0.001], "budget": 1 << 63}),
    ("avoidance", {"budget": 1 << 63}),
    ("avoidance", {"schedule": {"kind": ["power"], "c": 1.0, "p": 1.0, "offset": 2}}),
    ("avoidance", {"grad_tol": 1e-8}),
    ("avoidance", {"eig_tol": 1e-8}),
    ("avoidance", {"init_box": [[-1e308, 1e308], [-1.0, 1.0]]}),
    ("avoidance", {"objective": {"name": "cubic", "a": True}}),
    ("avoidance", {"objective": {"name": "quadratic", "matrix": [[True, 0.0], [0.0, -1.0]]}}),
    ("run", {"experiment": "single_run", "method_id": INTRINSIC, "init": [1.0, 2.0],
             "metric": [[True, 0.0], [0.0, 1.0]]}),
    ("run", {"experiment": "single_run", "init": [True, 0.5]}),
    ("fig1", {"experiment": "fig1", "init": [True, 0.5]}),
    ("chart", {"experiment": "chart", "objective": {"name": "cubic", "a": 0.1},
               "chart": {"critical_point": [False, 0.0]}}),
    ("avoidance", {"init_box": [[-1.0, True], [-1.0, 1.0]]}),
    ("avoidance", {"window": 10}),
    ("fig1", {"experiment": "fig1", "objective": {"name": "cubic", "a": 0.1}}),
    ("fig1", {"experiment": "fig1", "schedule": {"kind": "constant", "c": 0.1}}),
    ("avoidance", {"trials": (1 << 20) + 1}),
    ("avoidance", {"trials": 10 ** 20}),
    ("chart", {"experiment": "chart", "objective": {"name": "cubic", "a": 0.1},
               "chart": {"critical_point": [0.3, 0.0]}}),
    ("chart", {"experiment": "chart", "objective": LOCAL_MIN, "schedule": SHIFTED}),
    ("chart", {"experiment": "chart", "objective": LOCAL_MAX}),
], ids=["metric-asymmetric", "metric-text", "metric-1x1", "metric-for-gd",
        "metric-for-mirror-euclidean", "init-3d", "init-text",
        "fig1-init-text", "grid_points-text", "delta0-null", "delta0-zero", "critical_point-1d",
        "cubic-a-text", "matrix-text", "power-c-text", "geometric-r-text", "table-values-text",
        "constant-c-inf", "power-c-true", "geometric-r-null", "table-values-true",
        "output_dir-int", "avoidance-output_dir-file", "run-output_dir-file",
        "fig1-output_dir-file", "chart-output_dir-file", "chart-method-prox",
        "chart-metric", "grid_halfwidth-beyond-delta", "fig1-method-prox", "fig1-metric",
        "avoidance-matrix-nan", "chart-matrix-nan", "metric-nan", "metric-inf",
        "critical_point-nan", "init-nan", "fig1-init-nan", "run-budget-2^63",
        "avoidance-budget-2^63", "schedule-kind-list", "grad_tol-key", "eig_tol-key",
        "init_box-width-overflows", "cubic-a-true", "matrix-true", "metric-true", "init-true",
        "fig1-init-true", "critical_point-false", "init_box-true", "window-key",
        "fig1-objective", "fig1-schedule", "trials-past-the-bound", "trials-10^20",
        "critical_point-not-critical", "chart-local-min", "chart-local-max"])
def test_cli_bad_values_are_config_errors(tmp_path, capsys, monkeypatch, command, over):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("")  # an output_dir of "taken" names this file
    data = {**BASE, "trials": 2, "budget": 10, "output_dir": str(tmp_path / "o"), **over}
    code = main([command, "--config", write_cfg(tmp_path, "g.json", data)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_chart_critical_point_that_is_not_critical_is_a_config_error(tmp_path, capsys,
                                                                   monkeypatch):
    # bad input, not a failed contraction: named before any certificate work
    def no_certificate(*args, **kwargs):
        raise AssertionError("the point reached remainder_from_objective")

    monkeypatch.setattr(cli, "remainder_from_objective", no_certificate)
    data = {"experiment": "chart", "objective": {"name": "cubic", "a": 0.1},
            "output_dir": str(tmp_path / "o"), "chart": {"critical_point": [0.3, 0.0]}}
    code = main(["chart", "--config", write_cfg(tmp_path, "g.json", data)])
    err = capsys.readouterr().err
    assert code == 2
    assert ("configuration error: chart.critical_point = [0.3, 0.0] is not a critical "
            "point: |grad| = 3.001e-01") in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("objective, schedule, missing", [
    (LOCAL_MIN, SHIFTED, "eigenvalue <= 0"), (LOCAL_MAX, BASE["schedule"], "positive eigenvalue")],
    ids=["local-min", "local-max"])
def test_chart_at_a_local_minimum_or_maximum_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                               objective, schedule, missing):
    # no saddle to chart: bad input named before any certificate work, not a
    # failed contraction
    def no_certificate(*args, **kwargs):
        raise AssertionError("the point reached remainder_from_objective")

    monkeypatch.setattr(cli, "remainder_from_objective", no_certificate)
    data = {"experiment": "chart", "objective": objective, "schedule": schedule,
            "output_dir": str(tmp_path / "o")}
    code = main(["chart", "--config", write_cfg(tmp_path, "g.json", data)])
    assert code == 2
    assert ("configuration error: chart.critical_point = [0.0, 0.0] is not a saddle: "
            f"the Hessian has no {missing}") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, kind", [("grid_points", "positive integer"),
                                        ("max_halvings", "nonnegative integer"),
                                        ("delta0", "positive finite number")])
def test_chart_option_past_the_float_range_is_a_config_error(tmp_path, capsys, name, kind):
    # a JSON integer past the float range used to overflow math.isfinite
    data = {"experiment": "chart", "objective": {"name": "cubic", "a": 0.1},
            "output_dir": str(tmp_path / "o"), "chart": {name: 9 * 10 ** 399}}
    code = main(["chart", "--config", write_cfg(tmp_path, "g.json", data)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"configuration error: chart.{name} must be a {kind}, got 9000" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("points", [(1 << 20) + 1, 10 ** 20])
def test_chart_grid_points_past_the_bound_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                           points):
    # a grid that fits a double can still be too large to allocate or solve;
    # the bound is checked before any anchor is solved
    def no_chart(*args, **kwargs):
        raise AssertionError("the grid reached chart")

    monkeypatch.setattr(cli, "chart", no_chart)
    data = {"experiment": "chart", "objective": {"name": "cubic", "a": 0.1},
            "output_dir": str(tmp_path / "o"), "chart": {"grid_points": points}}
    code = main(["chart", "--config", write_cfg(tmp_path, "g.json", data)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"configuration error: chart.grid_points must be at most 1048576, got {points}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("over, message", [
    ({"grad_tol": 1e-8}, "unknown config field(s): ['grad_tol']"),
    ({"eig_tol": 1e-8}, "unknown config field(s): ['eig_tol']"),
    ({"window": 10}, "unknown config field(s): ['window']"),
    ({"stride": 5}, "unknown config field(s): ['stride']"),
    ({"experiment": "fig1", "objective": {"name": "cubic", "a": 0.1}},
     "fig1 runs on its own objective x^2 - y^2: leave out objective or give "
     "{\"name\": \"fig1\"}, got {'name': 'cubic', 'a': 0.1}"),
    ({"experiment": "fig1", "schedule": {"kind": "power", "c": 1.0, "p": 0.5, "offset": 1}},
     "fig1 races its own three schedules: leave out schedule, got "
     "{'kind': 'power', 'c': 1.0, 'p': 0.5, 'offset': 1}"),
    ({"init_box": [[-1.0, "a"], [-1.0, 1.0]]}, "init_box[0] needs real numbers, got 'a'"),
    ({"init_box": [[-1.0, 1.0], [-1e308, 1e308]]},
     "init_box[1] needs low <= high and a finite high - low, got [-1e+308, 1e+308]"),
    ({"init_box": [[-1.0, 1.0], [-1.0, True]]}, "init_box[1] needs real numbers, got True"),
    ({"objective": {"name": "cubic", "a": True}}, "objective.a needs real numbers, got True"),
    ({"objective": {"name": "quadratic", "matrix": [[1.0, 0.0], [0.0, False]]}},
     "objective.matrix needs real numbers, got False"),
    ({"trials": 10 ** 20}, "trials must be at most 1048576, got 100000000000000000000"),
    ({"schedule": {"kind": "table", "values": [0.5], "tail": {"kind": "constant", "c": 0.1}}},
     "unknown schedule kind 'table'; expected one of ['constant', 'geometric', 'power']"),
], ids=["grad_tol", "eig_tol", "window", "stride", "fig1-objective", "fig1-schedule",
        "init_box-text", "init_box-overflow", "init_box-true", "cubic-a-true", "matrix-false",
        "trials-past-the-bound", "table-kind"])
def test_config_errors_name_the_entry(over, message):
    with pytest.raises(ConfigError) as exc:
        avoidance_experiment(make_cfg(**{"trials": 2, "budget": 10, **over}))
    assert message in str(exc.value)

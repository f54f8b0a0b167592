"""Experiment config validation, drivers, CSV emission, and the CLI."""

import json
import os

import numpy as np
import pytest

from saddle_escape import methods as mth
from saddle_escape import objectives as obj_mod
from saddle_escape import schedules as sch
from saddle_escape.harness_cli import (AvoidanceReport, ConfigError,
                                       ExperimentAssertionError,
                                       ExperimentConfig, avoidance_experiment,
                                       build_objective, chart_experiment,
                                       emit_plot_data, fig1_experiment, main,
                                       single_run_experiment)
from reference import reference_run

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
    "stride": 10,
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
    ("stride", 0),
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
    assert build_objective({"name": "fig1"}).name == "fig1"
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
    lines = open(path, newline="").read().split("\n")
    assert lines[0] == "k,x_1,x_2,step_size,grad_norm"
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == repr(0.5)
    assert lines[-1] == ""  # trailing newline, unix endings
    # floats round-trip exactly
    assert float(lines[1].split(",")[4]) == rec.grad_norms[0]


def test_empty_trajectory_csv_is_header_only(tmp_path):
    rec = mth.TrajectoryRecord(method_id="gd", schedule_id="none",
                               terminal=mth.Terminal(kind=mth.BUDGET_EXHAUSTED),
                               k_final=0, ks=[], points=[], step_sizes=[],
                               grad_norms=[], seed=None)
    path = emit_plot_data(rec, str(tmp_path / "e.csv"))
    content = open(path).read()
    assert content.count("\n") == 1
    assert content.startswith("k,")


def test_report_rows_sorted_by_trial(tmp_path):
    cfg = make_cfg(trials=10)
    rep = avoidance_experiment(cfg)
    rep.rows.reverse()  # emission must not depend on incoming order
    path = emit_plot_data(rep, str(tmp_path / "r.csv"))
    lines = open(path).read().strip().split("\n")
    assert lines[0].startswith("trial,x0_1,x0_2,terminal,k_final,")
    trials = [int(line.split(",")[0]) for line in lines[1:]]
    assert trials == sorted(trials)


# ---------------------------------------------------------------------------
# avoidance experiment
# ---------------------------------------------------------------------------

def assert_matches_run(cfg, rtol=None):
    """Every avoidance row equals a methods.run and a reference_run from the same init.

    Terminal, k_final and final-point bits must agree exactly, and
    grad_norm (computed row-wise from the final points) within 2 ulp of
    run's.  ``rtol`` relaxes the final point where one point and a batch
    round differently: products with a non-identity metric.
    """
    rep = avoidance_experiment(cfg)
    obj = build_objective(cfg.objective)
    schedule = sch.from_config(cfg.schedule)
    metric = None if cfg.metric is None else mth.constant_metric(np.asarray(cfg.metric))
    step = mth.make_step(cfg.method_id, obj, schedule, metric=metric)
    counts = dict.fromkeys(rep.counts, 0)
    for row in rep.rows:
        rec = mth.run(cfg.method_id, obj, schedule, row["init"], budget=cfg.budget,
                      conv_tol=cfg.conv_tol, escape_radius=cfg.escape_radius,
                      stride=cfg.stride, window=cfg.window, metric=metric)
        kind, k_final, final, message = reference_run(
            step, row["init"], budget=cfg.budget, conv_tol=cfg.conv_tol,
            escape_radius=cfg.escape_radius, window=cfg.window)
        counts[rec.terminal.kind] += 1
        assert row["terminal"] == rec.terminal.kind == kind
        assert row["k_final"] == rec.k_final == k_final
        assert row["message"] == rec.terminal.message == message
        if rtol is None:
            assert row["final"].tobytes() == rec.final_point.tobytes() == final.tobytes()
            ulp = np.spacing(max(abs(row["grad_norm"]), abs(rec.grad_norms[-1])))
            assert abs(row["grad_norm"] - rec.grad_norms[-1]) <= 2 * ulp
        else:
            for other in (rec.final_point, final):
                np.testing.assert_allclose(row["final"], other, rtol=rtol, atol=1e-12)
            np.testing.assert_allclose(row["grad_norm"], rec.grad_norms[-1], rtol=rtol)
    assert rep.counts == counts
    return rep


def test_batch_and_sequential_paths_agree():
    cubic = {"name": "cubic", "a": 0.1}
    for over in ({}, {"method_id": "mirror-euclidean"}, {"method_id": "manifold-intrinsic"},
                 {"objective": cubic}, {"objective": cubic, "init_box": [[-1.0, 1.0], [0.0, 0.0]]}):
        assert_matches_run(make_cfg(trials=30, budget=3000, **over))


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
                                metric=[[2.0, 0.5], [0.5, 1.0]]), rtol=1e-9)


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
    assert open(p1, "rb").read() == open(p2, "rb").read()


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


def test_chart_experiment_uncertifiable_epsilon(tmp_path):
    cfg = make_cfg(experiment="chart", output_dir=str(tmp_path),
                   objective={"name": "quadratic",
                              "matrix": [[1.0, 0.0], [0.0, -1.0]]},
                   chart={"epsilon": 0.9})
    with pytest.raises(ExperimentAssertionError, match="largest certifiable"):
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


def test_cli_chart_horizon_cap_below_1024(tmp_path):
    data = {"experiment": "chart", "objective": {"name": "cubic", "a": 0.1},
            "chart": {"horizon_cap": 500}, "output_dir": str(tmp_path / "c")}
    code = main(["chart", "--config", write_cfg(tmp_path, "h.json", data)])
    assert code == 0
    cert = json.loads((tmp_path / "c" / "certificate.json").read_text())
    assert cert["horizon"] == 500


def test_cli_seed_and_out_overrides(tmp_path):
    data = dict(BASE, trials=6, budget=200)
    cfg_path = write_cfg(tmp_path, "e.json", data)
    code = main(["avoidance", "--config", cfg_path,
                 "--seed", "3", "--out", str(tmp_path / "o2")])
    assert code == 0
    assert (tmp_path / "o2" / "avoidance.csv").exists()


QUADRATIC = {"name": "quadratic", "matrix": [[1.0, 0.0], [0.0, -1.0]]}


@pytest.mark.parametrize("command,over", [
    ("avoidance", {"metric": [[1.0, 2.0], [3.0, 4.0]]}),
    ("avoidance", {"metric": "x"}),
    ("avoidance", {"metric": [[1.0]]}),
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
    ("avoidance", {"schedule": {"kind": "table", "values": ["a"], "tail": BASE["schedule"]}}),
    ("avoidance", {"output_dir": 5}),
], ids=["metric-asymmetric", "metric-text", "metric-1x1", "init-3d", "init-text",
        "fig1-init-text", "grid_points-text", "delta0-null", "delta0-zero", "critical_point-1d",
        "cubic-a-text", "matrix-text", "power-c-text", "geometric-r-text", "table-values-text",
        "output_dir-int"])
def test_cli_bad_values_are_config_errors(tmp_path, capsys, command, over):
    data = {**BASE, "trials": 2, "budget": 10, "output_dir": str(tmp_path / "o"), **over}
    code = main([command, "--config", write_cfg(tmp_path, "g.json", data)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err

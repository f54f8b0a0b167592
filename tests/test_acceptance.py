"""Acceptance gate: one test per shipped guarantee.

Each test states its tolerances and (where applicable) its wall-clock
budget inline.  conftest.py prints a one-line PASS/FAIL verdict per
criterion at the end of the run.  These tests are deliberately
end-to-end: they exercise the public API the way a user would, not the
internals.
"""

import math
import time

import numpy as np
import pytest

from saddle_escape import (ExperimentConfig, avoidance_experiment, bound_K1,
                           bound_K2, chart, classify_coordinate_limit,
                           constant, cubic_perturbed_saddle, emit_plot_data,
                           fig1_experiment, geometric, iterate_raw, make_step,
                           power, quadratic,
                           quadratic_trajectory, remainder_from_objective,
                           shooting_oracle, solve_stable_point, split,
                           sup_distance, table)
from saddle_escape import spectral as spec_mod
from saddle_escape.lyapunov_perron import CertificateError
from saddle_escape.methods import CONVERGED_TO_POINT, ESCAPED_REGION
from saddle_escape.objectives import Objective, fig1

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_c01_quadratic_closed_form():
    t0 = time.perf_counter()
    A = np.diag([1.0, -1.0])
    schedule = power(1.0, 1.0, 2)  # alpha_k = 1/(k+2)
    step = make_step("gd", quadratic(A), schedule)
    x0 = 0.7
    x = np.array([x0, x0])
    pts = [x]
    for k in range(1001):
        x = step(k, x)
        pts.append(x)
    pts = np.asarray(pts)
    n = np.arange(1002.0)
    # after n steps the factors 0..n-1 have been applied and telescope:
    # stable x0/(n+1), unstable x0*(n+2)/2
    stable = x0 / (n + 1.0)
    unstable = x0 * (n + 2.0) / 2.0
    assert np.max(np.abs(pts[:, 0] / stable - 1.0)) <= 1e-12
    assert np.max(np.abs(pts[:, 1] / unstable - 1.0)) <= 1e-12
    closed = quadratic_trajectory(split(A), schedule, np.array([x0, x0]), 1001)
    assert np.max(np.abs(closed / pts - 1.0)) <= 1e-12
    assert time.perf_counter() - t0 < 1.0


def _empirical_tag(lam, schedule, n=100_000):
    """Empirical limit of prod (1 - alpha_k lam) from x0 = 1."""
    factors = 1.0 - np.asarray(schedule.values(n)) * lam
    with np.errstate(over="ignore"):
        prods = np.cumprod(factors)
    final = prods[-1]
    if np.all(prods == 1.0):
        return spec_mod.CONSTANT
    if not np.isfinite(final) or abs(final) > 1e3:
        return spec_mod.DIVERGES
    if abs(final) < 1e-3:
        return spec_mod.TO_ZERO
    assert abs(prods[-1] - prods[-2]) < 1e-9  # Cauchy increments settled
    return spec_mod.CONVERGES_NONZERO


def test_c02_trichotomy_grid():
    t0 = time.perf_counter()
    schedules = [
        power(1.0, 1.0, 2),
        power(1.0, 0.5, 1),
        power(1.0, 4.0, 2),
        constant(0.1),
        geometric(0.1, 0.9),
    ]
    checked = 0
    for lam in (-1.0, 0.0, 1.0):
        for schedule in schedules:
            predicted = classify_coordinate_limit(lam, schedule)
            assert predicted == _empirical_tag(lam, schedule), (
                f"lam={lam}, schedule={schedule}: predicted {predicted}")
            checked += 1
    assert checked == 15
    assert time.perf_counter() - t0 < 10.0


def test_c03_schedule_race(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig.from_dict({"experiment": "fig1",
                                      "output_dir": str(tmp_path)})
    records = fig1_experiment(cfg)
    assert records["sqrt"].terminal.kind == ESCAPED_REGION
    assert records["harmonic"].terminal.kind == ESCAPED_REGION
    assert records["sqrt"].k_final < records["harmonic"].k_final
    quartic = records["quartic"]
    assert quartic.terminal.kind == CONVERGED_TO_POINT
    assert quartic.grad_norms[-1] > 1e-3  # stalled away from any critical point
    assert time.perf_counter() - t0 < 5.0


def test_c04_avoidance_monte_carlo():
    t0 = time.perf_counter()
    harmonic = {"kind": "power", "c": 1.0, "p": 1.0, "offset": 2}
    shifted = {"kind": "power", "c": 1.0, "p": 1.0, "offset": 3}
    # prox needs the shifted schedule (the resolvent is singular at
    # alpha = 1/2) and a tighter motion tolerance so the gradient at the
    # declared limit is below the criticality threshold
    setups = [
        ("gd", harmonic, 1e-12),
        ("mirror-euclidean", harmonic, 1e-12),
        ("manifold-intrinsic", harmonic, 1e-12),
        ("prox", shifted, 1e-13),
    ]
    for method_id, schedule, conv_tol in setups:
        base = {
            "experiment": "avoidance",
            "method_id": method_id,
            "objective": {"name": "fig1"},
            "schedule": schedule,
            "seed": 0,
            "budget": 100_000,
            "conv_tol": conv_tol,
            "escape_radius": 1e3,
        }
        box = ExperimentConfig.from_dict(
            dict(base, trials=1000, init_box=[[-1.0, 1.0], [-1.0, 1.0]]))
        rep = avoidance_experiment(box)
        assert rep.saddle_hits == 0, (method_id, rep.counts)
        assert sum(rep.counts.values()) == 1000
        axis = ExperimentConfig.from_dict(
            dict(base, trials=100, init_box=[[-1.0, 1.0], [0.0, 0.0]]))
        rep2 = avoidance_experiment(axis)
        assert rep2.saddle_hits == 100, (method_id, rep2.counts)
    assert time.perf_counter() - t0 < 120.0


def test_c05_resolvent_spectrum():
    A = np.diag([2.0, -1.0])
    objq = quadratic(A)
    schedule = constant(0.5)
    R = np.diag([0.5, 2.0])  # (I + 0.5 A)^-1
    rng = np.random.default_rng(5)
    # the same callables without quadratic_matrix take prox's Newton route
    plain = Objective(2, objq.eval, objq.grad, objq.hess, vectorized=True)
    closed_step = make_step("prox", objq, schedule)
    newton_step = make_step("prox", plain, schedule)
    for x in [np.array([1.0, 1.0]), *rng.uniform(-2, 2, size=(20, 2))]:
        closed = closed_step(0, x)
        newton = newton_step(0, x)
        np.testing.assert_allclose(closed, R @ x, rtol=0, atol=1e-10)
        np.testing.assert_allclose(newton, R @ x, rtol=0, atol=1e-10)
    h = 1e-6
    x = np.array([0.3, -0.4])
    J = np.empty((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        J[:, j] = (closed_step(0, x + e) - closed_step(0, x - e)) / (2 * h)
    eigs = np.sort(np.linalg.eigvals(J).real)
    np.testing.assert_allclose(eigs, [0.5, 2.0], rtol=0, atol=1e-6)


def test_c06_multiplicative_weights():
    # worked case: uniform start, gradient (1, 0), alpha = ln 2
    lin = Objective(2, lambda x: float(x[0]), lambda x: np.array([1.0, 0.0]),
                    lambda x: np.zeros((2, 2)))
    out = make_step("mirror-entropy", lin, constant(math.log(2.0)))(0, np.array([0.5, 0.5]))
    np.testing.assert_allclose(out, [1.0 / 3.0, 2.0 / 3.0], rtol=0, atol=1e-12)

    rng = np.random.default_rng(6)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        x = rng.uniform(0.05, 1.0, size=d)
        x /= x.sum()
        g = rng.uniform(-2.0, 2.0, size=d)
        alpha = float(rng.uniform(0.05, 1.5))
        lin = Objective(d, lambda z, g=g: float(z @ g),
                        lambda z, g=g: g.copy(),
                        lambda z, d=d: np.zeros((d, d)))
        out = make_step("mirror-entropy", lin, constant(alpha))(0, x)
        w = x * np.exp(-alpha * g)
        np.testing.assert_allclose(out, w / w.sum(), rtol=0, atol=1e-12)


def test_c07_certified_contraction():
    from saddle_escape import apply_T

    prob, cert = remainder_from_objective(cubic_perturbed_saddle(0.1),
                                          np.zeros(2), power(1.0, 1.0, 2),
                                          horizon=200)
    assert cert.valid
    K = cert.k
    assert K < 1.0
    rng = np.random.default_rng(7)
    xp = np.array([0.04])
    half = prob.delta / math.sqrt(2.0)
    worst = 0.0
    for _ in range(100):
        U = rng.uniform(-half, half, size=(prob.horizon + 1, 2))
        V = rng.uniform(-half, half, size=(prob.horizon + 1, 2))
        num = sup_distance(apply_T(prob, xp, U), apply_T(prob, xp, V))
        den = sup_distance(U, V)
        worst = max(worst, num / den)
    assert worst <= K, f"measured ratio {worst} exceeds certified {K}"

    res = solve_stable_point(prob, xp)
    hist = [r for r in res.history if r > 1e-13]
    for i in range(1, len(hist)):
        assert hist[i] <= K * 1.001 * hist[i - 1]


def test_c08_chart_against_shooting():
    t0 = time.perf_counter()
    prob, cert = remainder_from_objective(cubic_perturbed_saddle(0.1),
                                          np.zeros(2), power(1.0, 1.0, 2))
    assert cert.valid
    grid = np.linspace(-0.05, 0.05, 11)
    ch = chart(prob, grid)
    assert not ch.partial
    for x0p, phi in zip(ch.grid, ch.phi):
        shot = shooting_oracle(prob, x0p, bracket=prob.delta,
                               steps=8000, width=1e-7)
        assert abs(float(phi[0]) - float(shot[0])) <= 1e-4
    assert ch.tangency_ok
    assert max(ch.dphi_norms.values()) <= 1e-3
    # points displaced off the graph of phi must leave the delta-ball
    for idx in (0, 7):
        x0p, c = float(ch.grid[idx][0]), float(ch.phi[idx][0])
        for sign in (1.0, -1.0):
            z0 = np.array([x0p, c + sign * 1e-3])
            _, exit_step = iterate_raw(prob, z0, 5000, stop_radius=prob.delta)
            assert exit_step is not None
            assert exit_step <= prob.horizon
    assert time.perf_counter() - t0 < 30.0


def test_c09_bound_constants():
    schedules = [
        constant(0.25),
        power(1.0, 1.0, 4),
        power(1.0, 0.5, 9),
        geometric(0.1, 0.9),
        table([0.2, 0.1], power(1.0, 1.0, 20)),
    ]
    for lam in (0.5, 1.0, 2.0):
        sp = split(np.diag([lam, -1.0]))
        for schedule in schedules:
            k1 = bound_K1(sp, schedule)
            assert 0.0 < k1 <= 2.0 / lam + 1e-12, (lam, schedule, k1)
    # alpha_0 * lambda >= 1 is outside the bound's domain
    for lam, schedule in [(2.0, power(1.0, 1.0, 2)), (2.0, constant(0.5)),
                          (1.0, constant(1.5))]:
        with pytest.raises(CertificateError):
            bound_K1(split(np.diag([lam, -1.0])), schedule)
    # backward bound: constant alpha and |lambda| = 1 sum to exactly 1
    k2 = bound_K2(split(np.diag([1.0, -1.0])), constant(0.5))
    assert abs(k2 - 1.0) <= 1e-9


def test_c10_deterministic_output(tmp_path):
    data = {
        "experiment": "avoidance",
        "objective": {"name": "fig1"},
        "schedule": {"kind": "power", "c": 1.0, "p": 1.0, "offset": 2},
        "trials": 200,
        "seed": 42,
        "init_box": [[-1.0, 1.0], [-1.0, 1.0]],
        "budget": 20_000,
        "conv_tol": 1e-12,
    }
    cfg = ExperimentConfig.from_dict(data)
    p1 = emit_plot_data(avoidance_experiment(cfg), str(tmp_path / "first.csv"))
    p2 = emit_plot_data(avoidance_experiment(cfg), str(tmp_path / "second.csv"))
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        b1, b2 = f1.read(), f2.read()
    assert b1 == b2
    assert len(b1.splitlines()) == 201

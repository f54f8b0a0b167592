"""Step maps (gd / mirror / prox / manifold) and the shared run() driver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saddle_escape import methods as mth
from saddle_escape import objectives as obj_mod
from saddle_escape import schedules as sch
from saddle_escape.methods import (BUDGET_EXHAUSTED, CONVERGED_TO_POINT,
                                   ESCAPED_REGION, STEP_ERROR, MethodError,
                                   MirrorDomainError, constant_metric,
                                   entropy_mirror_map, euclidean_mirror_map,
                                   gd_step, intrinsic_manifold_step, make_step,
                                   manifold_step, mirror_step, proximal_step,
                                   run, run_batch, unit_sphere)
from reference import reference_run

HARMONIC = sch.power(1.0, 1.0, 2)


def linear_objective(c):
    """f(x) = <c, x> on R^len(c); constant gradient, zero Hessian."""
    c = np.asarray(c, dtype=float)
    d = len(c)
    return obj_mod.Objective(d, lambda x: float(x @ c), lambda x: c.copy(),
                             lambda x: np.zeros((d, d)), name="linear")


# ---------------------------------------------------------------------------
# individual steps
# ---------------------------------------------------------------------------

def test_gd_step_formula():
    f = obj_mod.fig1()
    x = np.array([0.5, 0.5])
    np.testing.assert_allclose(gd_step(f, HARMONIC, 0, x),
                               x - 0.5 * np.array([1.0, -1.0]))


def test_gd_step_rejects_nonfinite_gradient():
    f = obj_mod.Objective(1, lambda x: float("nan"),
                          lambda x: np.array([float("nan")]),
                          lambda x: np.zeros((1, 1)))
    with pytest.raises(MethodError):
        gd_step(f, HARMONIC, 0, np.array([1.0]))


@settings(max_examples=40)
@given(st.integers(0, 50), st.lists(st.floats(-3, 3), min_size=2, max_size=2))
def test_euclidean_mirror_equals_gd(k, xs):
    f = obj_mod.fig1()
    x = np.array(xs)
    mm = euclidean_mirror_map(2)
    np.testing.assert_allclose(mirror_step(f, mm, HARMONIC, k, x),
                               gd_step(f, HARMONIC, k, x), atol=1e-14)


def test_entropy_mirror_worked_case():
    # x = (1/2, 1/2), f = <(1,0), x>, alpha = ln 2 -> (1/3, 2/3)
    f = linear_objective([1.0, 0.0])
    mm = entropy_mirror_map(2)
    s = sch.constant(math.log(2.0))
    out = mirror_step(f, mm, s, 0, np.array([0.5, 0.5]))
    np.testing.assert_allclose(out, [1 / 3, 2 / 3], rtol=1e-14)


def test_entropy_mirror_is_multiplicative_weights():
    rng = np.random.default_rng(11)
    mm = entropy_mirror_map(3)
    s = sch.constant(0.3)
    for _ in range(25):
        w = rng.uniform(0.1, 1.0, size=3)
        x = w / w.sum()
        g = rng.standard_normal(3)
        f = linear_objective(g)
        expect = x * np.exp(-0.3 * g)
        expect /= expect.sum()
        np.testing.assert_allclose(mirror_step(f, mm, s, 0, x), expect,
                                   rtol=1e-12)


def test_entropy_mirror_map_inverts_its_gradient():
    mm = entropy_mirror_map(4)
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = rng.uniform(0.05, 1.0, size=4)
        x = w / w.sum()
        np.testing.assert_allclose(mm.conjugate_argmax(mm.grad_phi(x)), x,
                                   rtol=1e-12)


def test_entropy_domain_checks():
    mm = entropy_mirror_map(2)
    with pytest.raises(MirrorDomainError):
        mm.check_domain(np.array([0.5, 0.6]))  # off the simplex
    with pytest.raises(MirrorDomainError):
        mm.check_domain(np.array([1.0, 0.0]))  # boundary coordinate


def test_prox_closed_form_worked_case():
    # (I + 0.5 diag(2, -1))^{-1} (1, 1) = (1/2, 2)
    f = obj_mod.quadratic(np.diag([2.0, -1.0]))
    out = proximal_step(f, sch.constant(0.5), 0, np.array([1.0, 1.0]))
    np.testing.assert_allclose(out, [0.5, 2.0], rtol=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_prox_newton_matches_closed_form(seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((3, 3))
    A = (B + B.T) / 2
    f = obj_mod.quadratic(A)
    x = rng.standard_normal(3)
    alpha = float(rng.uniform(0.01, 0.2))
    s = sch.constant(alpha)
    closed = proximal_step(f, s, 0, x, use_closed_form=True)
    newton = proximal_step(f, s, 0, x, use_closed_form=False)
    np.testing.assert_allclose(newton, closed, atol=1e-10, rtol=1e-10)


def test_prox_singular_resolvent_raises():
    # I + 0.5 * diag(1, -2) has a zero row -> no resolvent
    f = obj_mod.quadratic(np.diag([1.0, -2.0]))
    with pytest.raises(MethodError):
        proximal_step(f, sch.constant(0.5), 0, np.array([1.0, 1.0]))


def test_prox_newton_on_cubic_satisfies_optimality():
    f = obj_mod.cubic_perturbed_saddle(0.1)
    x = np.array([0.3, -0.2])
    s = sch.constant(0.1)
    z = proximal_step(f, s, 0, x)
    # z solves z + alpha grad f(z) = x
    np.testing.assert_allclose(z + 0.1 * f.grad(z), x, atol=1e-10)


def test_sphere_step_stays_feasible():
    sphere = unit_sphere(3)
    f = obj_mod.quadratic(np.diag([1.0, 2.0, -1.0]))
    x = np.array([1.0, 0.0, 0.0])
    for k in range(200):
        x = manifold_step(f, sphere, HARMONIC, k, x)
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12


def test_sphere_rejects_near_zero_projection():
    sphere = unit_sphere(2)
    with pytest.raises(mth.ManifoldError):
        sphere.project_point(np.zeros(2))


def test_intrinsic_step_applies_inverse_metric():
    Minv = np.array([[2.0, 0.0], [0.0, 0.5]])
    metric = constant_metric(Minv)
    f = obj_mod.fig1()
    x = np.array([1.0, 1.0])
    out = intrinsic_manifold_step(f, metric, HARMONIC, 0, x)
    np.testing.assert_allclose(out, x - 0.5 * (Minv @ f.grad(x)), rtol=1e-14)


def test_metric_must_be_spd():
    with pytest.raises(MethodError):
        constant_metric(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(MethodError):
        constant_metric(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_make_step_routing_and_default_geometry():
    f = obj_mod.fig1()
    step = make_step("gd", f, HARMONIC)
    np.testing.assert_allclose(step(0, np.array([0.5, 0.5])),
                               gd_step(f, HARMONIC, 0, np.array([0.5, 0.5])))
    with pytest.raises(MethodError):
        make_step("unknown-method", f, HARMONIC)
    # omitted geometry falls back to the canonical one (here: the unit sphere)
    sphere_step = make_step("manifold-sphere", f, HARMONIC)
    out = sphere_step(0, np.array([0.6, 0.8]))
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# the run() driver
# ---------------------------------------------------------------------------

def test_run_escape_step_matches_product_formula():
    # on x^2 - y^2 with alpha_k = 1/(k+2) from (1/2, 1/2):
    # y_k = (k+1)(k+2)/4 crosses 1e3 at k = 62; radius check sees stride
    # points only when stride > 1, so force stride 1 and compare to the
    # closed form crossing
    f = obj_mod.fig1()
    rec = run("gd", f, HARMONIC, np.array([0.5, 0.5]), stride=1)
    assert rec.terminal.kind == ESCAPED_REGION
    y = 0.5
    for k in range(10 ** 4):
        y = y * (1 + 2.0 / (k + 2))
        if abs(y) > 1e3:
            break
    assert rec.k_final == k + 1 == 108


def test_run_records_every_stride_and_final():
    f = obj_mod.fig1()
    rec = run("gd", f, HARMONIC, np.array([0.5, 0.5]), stride=25)
    assert rec.ks[0] == 0
    assert all(b - a == 25 for a, b in zip(rec.ks[1:-1], rec.ks[2:-1]))
    assert rec.ks[-1] == rec.k_final
    assert len(rec.ks) == len(rec.points) == len(rec.grad_norms) == len(rec.step_sizes)


def test_run_convergence_classifies_limit():
    f = obj_mod.quadratic(np.eye(2))
    rec = run("gd", f, sch.constant(0.5), np.array([1.0, 1.0]), conv_tol=1e-12)
    assert rec.terminal.kind == CONVERGED_TO_POINT
    assert rec.terminal.point_class.tag == obj_mod.LOCAL_MIN_CANDIDATE
    np.testing.assert_allclose(rec.final_point, [0.0, 0.0], atol=1e-9)


def test_run_budget_exhaustion():
    f = obj_mod.fig1()
    rec = run("gd", f, HARMONIC, np.array([0.5, 0.5]), budget=50, stride=1)
    assert rec.terminal.kind == BUDGET_EXHAUSTED
    assert rec.k_final == 50


def test_run_step_error_captured():
    f = obj_mod.Objective(1, lambda x: float(x[0] ** 2),
                          lambda x: np.array([float("inf")]),
                          lambda x: np.eye(1))
    rec = run("gd", f, HARMONIC, np.array([1.0]))
    assert rec.terminal.kind == STEP_ERROR
    assert rec.k_final == 0


def test_run_step_error_records_final_state():
    # I + alpha_5 A is singular for A = diag(1, -7), alpha_k = 1/(k+2)
    f = obj_mod.quadratic(np.diag([1.0, -7.0]))
    x = np.array([0.3, 0.2])
    rec = run("prox", f, HARMONIC, x, stride=10)
    assert rec.terminal.kind == STEP_ERROR
    assert rec.k_final == rec.ks[-1] == 5
    for k in range(5):
        x = proximal_step(f, HARMONIC, k, x)
    assert rec.final_point.tobytes() == x.tobytes()
    assert rec.grad_norms[-1] == float(np.linalg.norm(f.grad(x)))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("method_id", ["gd", "mirror-euclidean", "manifold-intrinsic"])
def test_run_batch_matches_run(method_id, bad):
    # f = -x^2/2 until |x| > 5, where the gradient turns non-finite: rows
    # converge (x0 = 0), exhaust the budget, escape or hit a step error
    def grad(x):
        return np.where(np.abs(x) > 5.0, bad, -x)

    X0 = np.array([[0.0], [1e-3], [0.5], [1.0], [-2.0], [4.9]])
    for vectorized in (True, False):  # lockstep and per-row paths
        f = obj_mod.Objective(1, lambda x: -0.5 * x[..., 0] ** 2, grad,
                              lambda x: -np.eye(1), vectorized=vectorized)
        for radius in (3.0, 1e3):
            res = run_batch(method_id, f, HARMONIC, X0, budget=200, conv_tol=1e-12,
                            escape_radius=radius)
            step = make_step(method_id, f, HARMONIC)
            for i, x0 in enumerate(X0):
                rec = run(method_id, f, HARMONIC, x0, budget=200, conv_tol=1e-12,
                          escape_radius=radius)
                assert res.terminal[i] == rec.terminal.kind
                assert res.k_final[i] == rec.k_final
                assert res.message[i] == rec.terminal.message
                assert res.final[i].tobytes() == rec.final_point.tobytes()
                kind, k_final, final, message = reference_run(
                    step, x0, budget=200, conv_tol=1e-12, escape_radius=radius,
                    window=mth.CONVERGENCE_WINDOW)
                assert (res.terminal[i], res.k_final[i], res.message[i]) == \
                    (kind, k_final, message)
                assert res.final[i].tobytes() == final.tobytes()
            assert set(res.terminal) >= {CONVERGED_TO_POINT, BUDGET_EXHAUSTED}
            # only gd checks its gradient; an infinite iterate is an escape
            escapes = radius < 5.0 or (bad == np.inf and method_id != "gd")
            assert (ESCAPED_REGION if escapes else STEP_ERROR) in res.terminal


def test_run_batch_checks_escape_before_convergence():
    # conv_tol 1e9 and window 1 make every step quiet: after one step,
    # (0, 1.8) escapes radius 1 while (0, 0.2) converges, as in run
    X0 = np.array([[0.1, 0.1], [0.1, 0.9]])
    res = run_batch("gd", obj_mod.fig1(), HARMONIC, X0, conv_tol=1e9, window=1,
                    escape_radius=1.0)
    assert res.terminal == [CONVERGED_TO_POINT, ESCAPED_REGION]
    step = make_step("gd", obj_mod.fig1(), HARMONIC)
    for i, x0 in enumerate(X0):
        rec = run("gd", obj_mod.fig1(), HARMONIC, x0, conv_tol=1e9, window=1,
                  escape_radius=1.0)
        ref = reference_run(step, x0, budget=mth.DEFAULT_BUDGET, conv_tol=1e9,
                            escape_radius=1.0, window=1)
        assert (res.terminal[i], res.k_final[i]) == (rec.terminal.kind, rec.k_final) == \
            ref[:2] == (res.terminal[i], 1)
        assert res.final[i].tobytes() == rec.final_point.tobytes() == ref[2].tobytes()


def test_run_batch_steps_rowwise_pairs_independently():
    # mirror-entropy on a non-vectorized objective steps row by row: the row
    # on the simplex boundary stops at k = 0, the others run to the budget
    f = linear_objective([1.0, -1.0, 0.0])
    X0 = np.array([[1 / 3, 1 / 3, 1 / 3], [0.0, 0.5, 0.5], [0.2, 0.3, 0.5]])
    res = run_batch("mirror-entropy", f, HARMONIC, X0, budget=200)
    assert res.terminal == [BUDGET_EXHAUSTED, STEP_ERROR, BUDGET_EXHAUSTED]
    assert list(res.k_final) == [200, 0, 200]
    assert res.message[1].startswith("mirror iterate touched the simplex boundary")
    assert res.final[1].tobytes() == X0[1].tobytes()
    step = make_step("mirror-entropy", f, HARMONIC)
    for i, x0 in enumerate(X0):
        kind, k_final, final, message = reference_run(
            step, x0, budget=200, conv_tol=1e-9, escape_radius=mth.DEFAULT_ESCAPE_RADIUS,
            window=mth.CONVERGENCE_WINDOW)
        assert (res.terminal[i], res.k_final[i], res.message[i]) == (kind, k_final, message)
        assert res.final[i].tobytes() == final.tobytes()


def test_run_batch_rejects_bad_shape():
    with pytest.raises(MethodError):
        run_batch("gd", obj_mod.fig1(), HARMONIC, np.zeros((3, 3)))
    with pytest.raises(MethodError):
        run_batch("gd", obj_mod.fig1(), HARMONIC, np.zeros((3, 2)), budget=0)


def test_run_mirror_entropy_stays_on_simplex():
    f = linear_objective([1.0, -1.0, 0.0])
    rec = run("mirror-entropy", f, sch.power(1.0, 1.0, 2), np.ones(3) / 3,
              budget=500, stride=1)
    for p in rec.points:
        assert abs(np.sum(p) - 1.0) < 1e-9
        assert np.all(np.asarray(p) > 0)


def test_run_requires_matching_dimension():
    f = obj_mod.fig1()
    with pytest.raises(MethodError):
        run("gd", f, HARMONIC, np.array([1.0, 2.0, 3.0]))


def test_prox_non_diagonal_batch_run_and_reference_agree_bitwise():
    # a non-diagonal A under 1/(k+3): every row's bits must not depend on how
    # many rows step with it, across the 1024-step resolvent block boundary
    f = obj_mod.quadratic(np.array([[2.0, 0.5], [0.5, -1.0]]))
    s = sch.power(1.0, 1.0, 3)
    X0 = np.random.default_rng(7).uniform(-1.0, 1.0, size=(20, 2))
    opts = dict(budget=1500, conv_tol=1e-12, escape_radius=1e12)
    res = run_batch("prox", f, s, X0, **opts)
    assert res.terminal == [BUDGET_EXHAUSTED] * 20
    step = make_step("prox", f, s)
    for i, x0 in enumerate(X0):
        rec = run("prox", f, s, x0, **opts)
        ref = reference_run(step, x0, window=mth.CONVERGENCE_WINDOW, **opts)
        assert (res.terminal[i], res.k_final[i]) == (rec.terminal.kind, rec.k_final) == ref[:2]
        assert res.final[i].tobytes() == rec.final_point.tobytes() == ref[2].tobytes()


def test_prox_singular_resolvent_in_a_later_block():
    # I + alpha_k diag(1, -1502) is singular at k = 1500 under 1/(k+2), in the
    # second block of resolvents: every row stops there with the step error
    f = obj_mod.quadratic(np.diag([1.0, -1502.0]))
    X0 = np.array([[0.1, 0.0], [0.5, 0.0], [1.0, 0.0], [-2.0, 0.0]])
    res = run_batch("prox", f, HARMONIC, X0)
    assert res.terminal == [STEP_ERROR] * 4
    assert list(res.k_final) == [1500] * 4
    assert all("at k=1500 " in m for m in res.message)
    step = make_step("prox", f, HARMONIC)
    for i, x0 in enumerate(X0):
        kind, k_final, final, message = reference_run(
            step, x0, budget=mth.DEFAULT_BUDGET, conv_tol=1e-9,
            escape_radius=mth.DEFAULT_ESCAPE_RADIUS, window=mth.CONVERGENCE_WINDOW)
        assert (res.terminal[i], res.k_final[i], res.message[i]) == (kind, k_final, message)
        assert res.final[i].tobytes() == final.tobytes()


def test_run_batch_thresholds_at_exact_norms_and_motions():
    # escape_radius at a row's exact norm and conv_tol at a row's exact
    # motion, and their neighbouring doubles, in two batches: each
    # comparison goes the way the one-point loop takes it.  Under 1/(k+3)
    # on fig1, x shrinks like 1/k^2 and y grows like k^2, so norms and
    # motions are monotone.
    f, s = obj_mod.fig1(), sch.power(1.0, 1.0, 3)
    X0 = np.array([[0.5, 0.0], [0.3, 0.0], [0.7, 1e-3], [-0.2, 0.4], [0.9, 0.0]])
    step = make_step("gd", f, s)

    def orbit(x):
        xs = [x]
        for k in range(40):
            xs.append(step(k, xs[-1]))
        return xs

    radius = float(np.linalg.norm(orbit(X0[3])[20]))
    ys = orbit(X0[1])
    motion = float(np.linalg.norm(ys[31] - ys[30]))
    budget = 200
    # three more rows that trail row 3 outward: for steps before row 3
    # reaches the radius, the whole batch's squares add up past radius^2
    # while every row is inside, so only the row-max bound settles them
    wide = np.vstack([X0, [[0.0, 0.35], [0.1, -0.38], [-0.05, 0.39]]])
    norms = np.array([[np.linalg.norm(x) for x in orbit(x0)] for x0 in wide])
    assert any(col @ col > radius * radius and col.max() < radius for col in norms.T)
    for batch in (X0, wide):
        for escape_radius in (radius, np.nextafter(radius, 0.0), np.nextafter(radius, np.inf)):
            for conv_tol in (motion, np.nextafter(motion, 0.0), np.nextafter(motion, np.inf)):
                for window in (1, 3):
                    opts = dict(budget=budget, conv_tol=conv_tol,
                                escape_radius=escape_radius, window=window)
                    res = run_batch("gd", f, s, batch, **opts)
                    for i, x0 in enumerate(batch):
                        kind, k_final, final, message = reference_run(step, x0, **opts)
                        assert (res.terminal[i], res.k_final[i], res.message[i]) == \
                            (kind, k_final, message)
                        assert res.final[i].tobytes() == final.tobytes()
                        alone = run_batch("gd", f, s, x0[None], **opts)
                        assert (alone.terminal[0], alone.k_final[0]) == (kind, k_final)
                        assert alone.final[0].tobytes() == final.tobytes()
    # the neighbours decide: row 3 escapes one step later at its exact norm,
    # and row 1 turns quiet one step later at its exact motion
    ref = [reference_run(step, X0[3], budget=budget, conv_tol=0.0, escape_radius=r,
                         window=1)[:2] for r in (radius, np.nextafter(radius, 0.0))]
    assert ref == [(ESCAPED_REGION, 21), (ESCAPED_REGION, 20)]
    ref = [reference_run(step, X0[1], budget=budget, conv_tol=t, escape_radius=1e3,
                         window=1)[:2] for t in (motion, np.nextafter(motion, np.inf))]
    assert ref == [(CONVERGED_TO_POINT, 32), (CONVERGED_TO_POINT, 31)]


def test_run_batch_long_step_restarts_quiet_streaks():
    # constant steps down a slope whose gradient alternates between -1 and
    # -1/4 every 0.05: runs of 20 short steps (quiet under conv_tol 0.005)
    # alternate with 5 long ones.  With window 30 no row may converge; a
    # long step that did not restart the streaks would let them add up.
    def grad(x):
        return np.where(np.floor(x / 0.05) % 2 == 0, -1.0, -0.25)

    f = obj_mod.Objective(1, lambda x: -x[..., 0], grad, lambda x: np.zeros((1, 1)),
                          vectorized=True)
    s = sch.constant(0.01)
    X0 = np.array([[0.0], [0.012], [0.031], [0.077]])
    opts = dict(budget=300, conv_tol=0.005, escape_radius=1e3, window=30)
    res = run_batch("gd", f, s, X0, **opts)
    assert res.terminal == [BUDGET_EXHAUSTED] * 4
    step = make_step("gd", f, s)
    for i, x0 in enumerate(X0):
        final = reference_run(step, x0, **opts)[2]
        assert res.final[i].tobytes() == final.tobytes()
        alone = run_batch("gd", f, s, x0[None], **opts)  # no other row to break a long run
        assert alone.terminal == [BUDGET_EXHAUSTED]
        assert alone.final[0].tobytes() == final.tobytes()
    # with window 20 the same rows do converge, inside their first short run
    res = run_batch("gd", f, s, X0, **dict(opts, window=20))
    assert res.terminal == [CONVERGED_TO_POINT] * 4


@pytest.mark.parametrize("escape_radius", [-1.0, 0.0, 1e-200, 1e300, np.inf])
def test_run_batch_extreme_escape_radii_match_reference(escape_radius):
    # a negative or zero radius lets no row stay; 1e300 is finite, so a
    # row whose squared norm overflows escapes it; inf lets every row stay
    f = obj_mod.fig1()
    X0 = np.array([[0.5, 1e-3], [0.0, 1e160], [-0.3, 0.0], [1e-170, 0.0]])
    step = make_step("gd", f, HARMONIC)
    opts = dict(budget=50, conv_tol=1e-12, escape_radius=escape_radius, window=3)
    with np.errstate(over="ignore"):  # the squares of the second row overflow
        res = run_batch("gd", f, HARMONIC, X0, **opts)
        for i, x0 in enumerate(X0):
            kind, k_final, final, message = reference_run(step, x0, **opts)
            assert (res.terminal[i], res.k_final[i], res.message[i]) == \
                (kind, k_final, message)
            assert res.final[i].tobytes() == final.tobytes()
            alone = run_batch("gd", f, HARMONIC, x0[None], **opts)
            assert (alone.terminal[0], alone.k_final[0]) == (kind, k_final)
            assert alone.final[0].tobytes() == final.tobytes()


def test_overflowing_gd_step_stops_at_its_own_step_without_a_radius():
    # with escape_radius = inf, a gd step whose gradient overflows leaves its
    # row at -inf, and inf <= inf must not keep it: the step error comes at
    # k = 0 from the start point, as in the plain loop.  A finite row whose
    # squares overflow (the second) goes on
    f = obj_mod.cubic_perturbed_saddle(0.1)
    X0 = np.array([[1e200, 1e200], [0.0, 1e160], [0.5, 1e-3]])
    step = make_step("gd", f, HARMONIC)
    opts = dict(budget=50, conv_tol=1e-12, escape_radius=np.inf, window=3)
    with np.errstate(over="ignore", invalid="ignore"):
        res = run_batch("gd", f, HARMONIC, X0, **opts)
        for i, x0 in enumerate(X0):
            kind, k_final, final, message = reference_run(step, x0, **opts)
            assert (res.terminal[i], res.k_final[i], res.message[i]) == \
                (kind, k_final, message)
            assert res.final[i].tobytes() == final.tobytes()
            alone = run_batch("gd", f, HARMONIC, x0[None], **opts)
            assert (alone.terminal[0], alone.k_final[0], alone.message[0]) == \
                (kind, k_final, message)
            assert alone.final[0].tobytes() == final.tobytes()
    assert res.terminal[:2] == [STEP_ERROR, BUDGET_EXHAUSTED] and res.k_final[0] == 0


def test_run_and_run_batch_reject_window_below_one():
    f = obj_mod.fig1()
    with pytest.raises(MethodError, match="window"):
        run("gd", f, HARMONIC, np.array([0.5, 0.5]), window=0)
    with pytest.raises(MethodError, match="window"):
        run_batch("gd", f, HARMONIC, np.array([[0.5, 0.5]]), window=0)


def test_run_and_run_batch_reject_nan_escape_radius():
    # a NaN radius would stop every row at k = 1 as converged_to_point
    f = obj_mod.fig1()
    with pytest.raises(MethodError, match="escape_radius"):
        run("gd", f, HARMONIC, np.array([0.5, 0.5]), escape_radius=float("nan"))
    with pytest.raises(MethodError, match="escape_radius"):
        run_batch("gd", f, HARMONIC, np.array([[0.5, 0.5]]), escape_radius=np.nan)


def test_empty_run_batch_takes_no_step(monkeypatch):
    calls = []
    real = mth._update

    def counting(*args, **kwargs):
        update = real(*args, **kwargs)

        def counted(k, X):
            calls.append(k)
            return update(k, X)
        return counted

    monkeypatch.setattr(mth, "_update", counting)
    for method_id in ("gd", "prox"):
        res = run_batch(method_id, obj_mod.fig1(), HARMONIC, np.empty((0, 2)), budget=100_000)
        assert calls == []
        assert res.terminal == res.message == []
        assert res.k_final.shape == (0,) and res.final.shape == (0, 2)
    run_batch("gd", obj_mod.fig1(), HARMONIC, np.array([[0.5, 0.5]]), budget=3)
    assert calls == [0, 1, 2]

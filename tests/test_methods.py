"""Step maps (gd / mirror / prox / manifold) and the shared run() driver."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saddle_escape import methods as mth
from saddle_escape import objectives as obj_mod
from saddle_escape import schedules as sch
from saddle_escape.methods import (BUDGET_EXHAUSTED, CONVERGED_TO_POINT,
                                   ESCAPED_REGION, METHOD_IDS, STEP_ERROR, MethodError,
                                   MirrorDomainError, RiemannianMetric, make_step,
                                   run, run_batch)
from oracles import mwu_step
from reference import reference_newton, reference_run

HARMONIC = sch.power(1.0, 1.0, 2)


def linear_objective(c):
    """f(x) = <c, x> on R^len(c); constant gradient, zero Hessian."""
    c = np.asarray(c, dtype=float)
    d = len(c)
    return obj_mod.Objective(d, lambda x: c.copy(), lambda x: np.zeros((d, d)))


# ---------------------------------------------------------------------------
# individual steps
# ---------------------------------------------------------------------------

def test_gd_step_formula():
    f = obj_mod.fig1()
    x = np.array([0.5, 0.5])
    np.testing.assert_allclose(make_step("gd", f, HARMONIC)(0, x),
                               x - 0.5 * np.array([1.0, -1.0]))


def test_gd_step_rejects_nonfinite_gradient():
    f = obj_mod.Objective(1, lambda x: np.array([float("nan")]), lambda x: np.zeros((1, 1)))
    with pytest.raises(MethodError):
        make_step("gd", f, HARMONIC)(0, np.array([1.0]))


@settings(max_examples=40)
@given(st.integers(0, 50), st.lists(st.floats(-3, 3), min_size=2, max_size=2))
def test_euclidean_mirror_equals_gd(k, xs):
    # mirror-euclidean and metric-less manifold-intrinsic run gd's step
    f = obj_mod.fig1()
    x = np.array(xs)
    want = make_step("gd", f, HARMONIC)(k, x)
    for method_id in ("mirror-euclidean", "manifold-intrinsic"):
        assert make_step(method_id, f, HARMONIC)(k, x).tobytes() == want.tobytes()


def test_entropy_mirror_worked_case():
    # x = (1/2, 1/2), f = <(1,0), x>, alpha = ln 2 -> (1/3, 2/3)
    f = linear_objective([1.0, 0.0])
    s = sch.constant(math.log(2.0))
    out = make_step("mirror-entropy", f, s)(0, np.array([0.5, 0.5]))
    np.testing.assert_allclose(out, [1 / 3, 2 / 3], rtol=1e-14)


def test_entropy_mirror_is_multiplicative_weights():
    rng = np.random.default_rng(11)
    s = sch.constant(0.3)
    for _ in range(25):
        w = rng.uniform(0.1, 1.0, size=3)
        x = w / w.sum()
        g = rng.standard_normal(3)
        f = linear_objective(g)
        expect = x * np.exp(-0.3 * g)
        expect /= expect.sum()
        np.testing.assert_allclose(make_step("mirror-entropy", f, s)(0, x), expect,
                                   rtol=1e-12)


def test_entropy_mirror_map_inverts_its_gradient():
    # conjugate_argmax(grad_phi(x)) = x: a step with a zero gradient,
    # softmax(1 + log x), returns x
    step = make_step("mirror-entropy", linear_objective(np.zeros(4)), HARMONIC)
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = rng.uniform(0.05, 1.0, size=4)
        x = w / w.sum()
        np.testing.assert_allclose(step(0, x), x, rtol=1e-12)


def test_entropy_domain_checks():
    step = make_step("mirror-entropy", linear_objective([1.0, 0.0]), HARMONIC)
    with pytest.raises(MirrorDomainError):
        step(0, np.array([0.5, 0.6]))  # off the simplex
    with pytest.raises(MirrorDomainError):
        step(0, np.array([1.0, 0.0]))  # boundary coordinate


def test_prox_closed_form_worked_case():
    # (I + 0.5 diag(2, -1))^{-1} (1, 1) = (1/2, 2)
    f = obj_mod.quadratic(np.diag([2.0, -1.0]))
    out = make_step("prox", f, sch.constant(0.5))(0, np.array([1.0, 1.0]))
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
    # the same callables without quadratic_matrix take prox's Newton route
    plain = obj_mod.Objective(3, f.grad, f.hess, vectorized=True)
    closed = make_step("prox", f, s)(0, x)
    newton = make_step("prox", plain, s)(0, x)
    np.testing.assert_allclose(newton, closed, atol=1e-10, rtol=1e-10)


def test_prox_singular_resolvent_raises():
    # I + 0.5 * diag(1, -2) has a zero row -> no resolvent
    f = obj_mod.quadratic(np.diag([1.0, -2.0]))
    with pytest.raises(MethodError):
        make_step("prox", f, sch.constant(0.5))(0, np.array([1.0, 1.0]))


def test_prox_newton_on_cubic_satisfies_optimality():
    f = obj_mod.cubic_perturbed_saddle(0.1)
    x = np.array([0.3, -0.2])
    s = sch.constant(0.1)
    z = make_step("prox", f, s)(0, x)
    # z solves z + alpha grad f(z) = x
    np.testing.assert_allclose(z + 0.1 * f.grad(z), x, atol=1e-10)


def test_batched_newton_matches_the_scalar_loop():
    # f = x^2/2 - y^2/2 + a x^2 y: under a = 1 and alpha = 1 the Jacobian
    # [[2 + 2y, 2x], [2x, 0]] is singular exactly at x = 0, so the rows (0, y)
    # fail alone; long steps on a = 1 stall the damping or run out of budget
    rng = np.random.default_rng(3)
    X = np.vstack([rng.uniform(-3.0, 3.0, size=(60, 2)), [[0.0, 0.3], [0.0, -2.0]]])
    seen = set()
    for a, alphas in ((0.1, (0.1, 0.5)), (1.0, (0.3, 1.0, 2.0))):
        f = obj_mod.cubic_perturbed_saddle(a)
        for alpha in alphas:
            s = sch.constant(alpha)
            Z, error = mth._update("prox", f, s)(0, X)
            step = make_step("prox", f, s)
            for j, x in enumerate(X):
                try:
                    want = reference_newton(f, s, 0, x)
                except MethodError as err:
                    seen.add(str(err).split(" at k=")[0].split(" within")[0])
                    assert type(error(j)) is MethodError and str(error(j)) == str(err)
                    assert np.isnan(Z[j]).all()
                    with pytest.raises(MethodError) as one:
                        step(0, x)
                    assert str(one.value) == str(err)
                else:
                    seen.add("solved")
                    assert error(j) is None
                    assert Z[j].tobytes() == want.tobytes() == step(0, x).tobytes()
    assert seen == {"solved", "singular proximal Jacobian I + alpha_k hess f",
                    "proximal Newton damping stalled",
                    "proximal Newton did not reach residual 1e-12"}


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_batched_entropy_step_is_multiplicative_weights(d):
    # one row and many take the same bits; rows off the open simplex fail alone
    rng = np.random.default_rng(d)
    c = rng.standard_normal(d)
    f = linear_objective(c)
    W = rng.uniform(0.05, 1.0, size=(40, d))
    X = W / W.sum(axis=1, keepdims=True)
    X[0, 0], X[1] = 0.0, 1.1 * X[1]
    s = sch.constant(0.3)
    Y, error = mth._update("mirror-entropy", f, s)(0, X)
    step = make_step("mirror-entropy", f, s)
    for j, x in enumerate(X):
        if j < 2:
            with pytest.raises(MirrorDomainError) as err:
                step(0, x)
            assert type(error(j)) is MirrorDomainError and str(error(j)) == str(err.value)
            assert np.isnan(Y[j]).all()
            continue
        assert error(j) is None
        assert Y[j].tobytes() == step(0, x).tobytes()
        np.testing.assert_allclose(Y[j], mwu_step(list(x), list(c), 0.3), rtol=1e-12)


def test_sphere_step_stays_feasible():
    step = make_step("manifold-sphere", obj_mod.quadratic(np.diag([1.0, 2.0, -1.0])), HARMONIC)
    x = np.array([1.0, 0.0, 0.0])
    for k in range(200):
        x = step(k, x)
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12


def test_sphere_rejects_near_zero_projection():
    # a point on the sphere never steps to the origin (|v|^2 >= 1), so this
    # takes x = 0 where fig1's gradient vanishes
    with pytest.raises(mth.ManifoldError):
        make_step("manifold-sphere", obj_mod.fig1(), HARMONIC)(0, np.zeros(2))


def test_intrinsic_step_applies_inverse_metric():
    Minv = np.array([[2.0, 0.0], [0.0, 0.5]])
    metric = RiemannianMetric(Minv)
    f = obj_mod.fig1()
    x = np.array([1.0, 1.0])
    out = make_step("manifold-intrinsic", f, HARMONIC, metric=metric)(0, x)
    np.testing.assert_allclose(out, x - 0.5 * (Minv @ f.grad(x)), rtol=1e-14)


def test_one_point_steps_reject_a_stack():
    f, s, X = obj_mod.fig1(), HARMONIC, np.array([[0.5, 0.5], [0.2, 0.8]])
    metric = RiemannianMetric(np.diag([2.0, 1.0]))
    steps = [make_step(method_id, f, s) for method_id in METHOD_IDS]
    steps.append(make_step("manifold-intrinsic", f, s, metric=metric))
    for step in steps:
        with pytest.raises(MethodError, match=r"shape \(d,\), got \(2, 2\)"):
            step(0, X)


def test_one_point_steps_reject_a_point_of_the_wrong_length():
    # the batched steps call the objective's raw callables, which check
    # nothing, so make_step checks the length where the point comes in
    f, s = obj_mod.cubic_perturbed_saddle(0.1), HARMONIC
    steps = {method_id: make_step(method_id, f, s) for method_id in METHOD_IDS}
    steps["metric"] = make_step("manifold-intrinsic", f, s,
                                metric=RiemannianMetric(np.diag([2.0, 1.0])))
    for name, step in steps.items():
        for x in (np.zeros(3), [0.5, 0.5, 0.5], np.zeros(1), np.zeros(0)):
            shape = np.shape(x)
            with pytest.raises(MethodError, match=rf"d = 2 takes a point of shape \(d,\), "
                                                  rf"got \({shape[0]},\)"):
                step(0, x)


def test_metric_must_be_spd():
    with pytest.raises(MethodError):
        RiemannianMetric(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(MethodError):
        RiemannianMetric(np.array([[1.0, 0.5], [0.0, 1.0]]))
    for bad in (np.nan, np.inf):  # neither the symmetry test nor cholesky catches these
        with pytest.raises(MethodError, match="non-finite"):
            RiemannianMetric(np.array([[bad, 0.0], [0.0, 1.0]]))
    # any array-like is a matrix of floats
    metric = RiemannianMetric([[2, 0], [0, 1]])
    assert metric.matrix.dtype == float
    assert metric.matrix.tobytes() == np.diag([2.0, 1.0]).tobytes()


def test_make_step_routing_and_default_geometry():
    f = obj_mod.fig1()
    step = make_step("gd", f, HARMONIC)
    np.testing.assert_allclose(step(0, np.array([0.5, 0.5])),
                               np.array([0.5, 0.5]) - 0.5 * f.grad(np.array([0.5, 0.5])))
    with pytest.raises(MethodError):
        make_step("unknown-method", f, HARMONIC)
    # a metric belongs to manifold-intrinsic alone; no other method ignores it
    metric = RiemannianMetric(np.diag([2.0, 1.0]))
    for method_id in ("gd", "mirror-euclidean", "prox"):
        with pytest.raises(MethodError, match="manifold-intrinsic only"):
            make_step(method_id, f, HARMONIC, metric=metric)
        with pytest.raises(MethodError, match="manifold-intrinsic only"):
            run(method_id, f, HARMONIC, np.array([0.5, 0.5]), metric=metric)
        with pytest.raises(MethodError, match="manifold-intrinsic only"):
            run_batch(method_id, f, HARMONIC, np.array([[0.5, 0.5]]), metric=metric)
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
    np.testing.assert_allclose(rec.points[-1], [0.0, 0.0], atol=1e-9)


def test_run_budget_exhaustion():
    f = obj_mod.fig1()
    rec = run("gd", f, HARMONIC, np.array([0.5, 0.5]), budget=50, stride=1)
    assert rec.terminal.kind == BUDGET_EXHAUSTED
    assert rec.k_final == 50


def test_run_step_error_captured():
    f = obj_mod.Objective(1, lambda x: np.array([float("inf")]), lambda x: np.eye(1))
    rec = run("gd", f, HARMONIC, np.array([1.0]))
    assert rec.terminal.kind == STEP_ERROR
    assert rec.k_final == 0


def test_run_step_error_records_final_state():
    # I + alpha_5 A is singular for A = diag(1, -7), alpha_k = 1/(k+2); the
    # step at k = 5 gives NaN rows, which the record must not keep, also
    # where k + 1 = 6 is a stride
    f = obj_mod.quadratic(np.diag([1.0, -7.0]))
    x0 = np.array([0.3, 0.2])
    step = make_step("prox", f, HARMONIC)
    xs = [x0]
    for k in range(5):
        xs.append(step(k, xs[-1]))
    for stride in (1, 6, 10):
        rec = run("prox", f, HARMONIC, x0, stride=stride)
        assert rec.terminal.kind == STEP_ERROR
        assert rec.k_final == rec.ks[-1] == 5
        assert rec.ks == sorted({0, 5} | set(range(stride, 5, stride)))
        assert not np.isnan(rec.points).any()
        assert rec.points[-1].tobytes() == xs[5].tobytes()
        assert rec.grad_norms[-1] == float(np.linalg.norm(f.grad(xs[5])))


@pytest.mark.parametrize("metric", [[[2.0, 1.0], [1.0, 2.0]], [[1.0, 0.0], [0.0, 1.0]]])
def test_metric_step_fails_on_a_nonfinite_gradient_as_gd_does(metric):
    # the gradient is inf, with no warning, where x_0 > 0.6: the metric
    # step's product would give inf (dense metric) or inf * 0 = NaN (the
    # identity), and the row must end as gd ends it, at k = 0
    def grad(X):
        return np.where(X[..., :1] > 0.6, np.inf, X)

    f = obj_mod.Objective(2, grad, lambda X: np.broadcast_to(np.eye(2), X.shape + (2,)),
                          vectorized=True)
    X0 = np.array([[0.7, 0.1], [0.9, -0.4]])
    metric = RiemannianMetric(metric)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x0 in X0:
            want = run("gd", f, HARMONIC, x0)
            got = run("manifold-intrinsic", f, HARMONIC, x0, metric=metric)
            assert (got.terminal, got.k_final) == (want.terminal, want.k_final)
            assert got.points[-1].tobytes() == want.points[-1].tobytes()
            assert want.terminal.kind == STEP_ERROR and want.k_final == 0
            assert want.terminal.message.startswith("non-finite gradient at k=0, x=")
        want = run_batch("gd", f, HARMONIC, X0)
        got = run_batch("manifold-intrinsic", f, HARMONIC, X0, metric=metric)
    assert got.terminal == want.terminal == [STEP_ERROR] * 2
    assert got.message == want.message
    assert got.k_final.tobytes() == want.k_final.tobytes()
    assert got.final.tobytes() == want.final.tobytes() == X0.tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("method_id, X0", [
    ("mirror-entropy", [[0.6, 0.3, 0.1], [0.2, 0.3, 0.5], [0.7, 0.1, 0.2]]),
    ("manifold-sphere", [[0.6, 0.0, 0.8], [0.0, 0.6, 0.8], [0.8, 0.6, 0.0]])])
def test_entropy_and_sphere_fail_on_a_nonfinite_gradient_as_gd_does(method_id, X0, bad):
    # the gradient's first entry is bad where x_0 > 0.55: the softmax would
    # take inf - inf and the tangent projection inf * 0, and each such row
    # must end at k = 0 with gd's message, without a warning; the other
    # rows take their usual steps
    c = np.array([1.0, -1.0, 0.5])

    def grad(X):
        G = np.broadcast_to(c, X.shape).copy()
        G[X[..., 0] > 0.55, 0] = bad
        return G

    f = obj_mod.Objective(3, grad, lambda X: np.zeros(X.shape + (3,)), vectorized=True)
    X0 = np.array(X0)
    step = make_step(method_id, f, HARMONIC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_batch(method_id, f, HARMONIC, X0, budget=100)
        for i, x0 in enumerate(X0):
            rec = run(method_id, f, HARMONIC, x0, budget=100)
            kind, k_final, final, message = reference_run(
                step, x0, budget=100, conv_tol=mth.DEFAULT_CONV_TOL,
                escape_radius=mth.DEFAULT_ESCAPE_RADIUS)
            assert (res.terminal[i], res.k_final[i], res.message[i]) == \
                (rec.terminal.kind, rec.k_final, rec.terminal.message) == \
                (kind, k_final, message)
            assert res.final[i].tobytes() == rec.points[-1].tobytes() == final.tobytes()
    assert res.terminal[1] != STEP_ERROR
    for i in (0, 2):
        assert (res.terminal[i], res.k_final[i]) == (STEP_ERROR, 0)
        assert res.message[i] == f"non-finite gradient at k=0, x={X0[i]}"
        assert res.final[i].tobytes() == X0[i].tobytes()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("method_id", ["gd", "mirror-euclidean", "manifold-intrinsic"])
def test_run_batch_matches_run(method_id, bad):
    # f = -x^2/2 until |x| > 5, where the gradient turns non-finite: rows
    # converge (x0 = 0), exhaust the budget, escape or hit a step error
    def grad(x):
        return np.where(np.abs(x) > 5.0, bad, -x)

    X0 = np.array([[0.0], [1e-3], [0.5], [1.0], [-2.0], [4.9]])
    for vectorized in (True, False):  # callables that broadcast, and ones looped over points
        f = obj_mod.Objective(1, grad, lambda x: -np.eye(1), vectorized=vectorized)
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
                assert res.final[i].tobytes() == rec.points[-1].tobytes()
                kind, k_final, final, message = reference_run(
                    step, x0, budget=200, conv_tol=1e-12, escape_radius=radius)
                assert (res.terminal[i], res.k_final[i], res.message[i]) == \
                    (kind, k_final, message)
                assert res.final[i].tobytes() == final.tobytes()
            assert set(res.terminal) >= {CONVERGED_TO_POINT, BUDGET_EXHAUSTED}
            assert (ESCAPED_REGION if radius < 5.0 else STEP_ERROR) in res.terminal


def test_run_batch_checks_escape_before_convergence():
    # conv_tol 1e9 makes every step quiet, so both rows end at the 50th
    # step, as in run: (0.1, 0) stays inside radius 0.45 and converges,
    # while (0, 1e-3), at y_k = 1e-3 (k+2)(k+3)/6 under 1/(k+2), is inside
    # at k = 49 (0.442) and escapes at k = 50 (0.459)
    X0 = np.array([[0.1, 0.0], [0.0, 1e-3]])
    res = run_batch("gd", obj_mod.fig1(), HARMONIC, X0, conv_tol=1e9, escape_radius=0.45)
    assert res.terminal == [CONVERGED_TO_POINT, ESCAPED_REGION]
    step = make_step("gd", obj_mod.fig1(), HARMONIC)
    for i, x0 in enumerate(X0):
        rec = run("gd", obj_mod.fig1(), HARMONIC, x0, conv_tol=1e9, escape_radius=0.45)
        ref = reference_run(step, x0, budget=mth.DEFAULT_BUDGET, conv_tol=1e9,
                            escape_radius=0.45)
        assert (res.terminal[i], res.k_final[i]) == (rec.terminal.kind, rec.k_final) == \
            ref[:2] == (res.terminal[i], 50)
        assert res.final[i].tobytes() == rec.points[-1].tobytes() == ref[2].tobytes()


def test_run_batch_mirror_rows_fail_alone():
    # each row takes its own simplex check in the batched entropy step: the
    # row on the simplex boundary stops at k = 0, the others run to the budget
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
            step, x0, budget=200, conv_tol=1e-9, escape_radius=mth.DEFAULT_ESCAPE_RADIUS)
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
        ref = reference_run(step, x0, **opts)
        assert (res.terminal[i], res.k_final[i]) == (rec.terminal.kind, rec.k_final) == ref[:2]
        assert res.final[i].tobytes() == rec.points[-1].tobytes() == ref[2].tobytes()


@pytest.mark.parametrize("method_id", ["gd", "prox", "manifold-intrinsic"])
def test_run_batch_rows_on_dense_quadratics(method_id):
    # a dense symmetric A (and metric): for d <= 3 each row takes run's bits
    # in a batch; at d = 4 BLAS rounds a one-row product and a stacked one
    # differently, so only the ends and the final points to 1e-12 relative agree
    rng = np.random.default_rng(4)
    s = sch.power(1.0, 1.0, 3)
    for d in (2, 3, 4):
        B = rng.standard_normal((d, d))
        A = (B + B.T) / np.max(np.abs(np.linalg.eigvalsh(B + B.T)))  # eigenvalues in [-1, 1]
        f = obj_mod.quadratic(A)
        metric = RiemannianMetric(np.eye(d) + A @ A) if method_id == "manifold-intrinsic" else None
        opts = dict(budget=400, conv_tol=1e-12, escape_radius=1e4, metric=metric)
        X0 = rng.uniform(-1.0, 1.0, size=(64, d))
        res = run_batch(method_id, f, s, X0, **opts)
        for i, x0 in enumerate(X0):
            rec = run(method_id, f, s, x0, **opts)
            assert (res.terminal[i], res.k_final[i]) == (rec.terminal.kind, rec.k_final)
            if d <= 3:
                assert res.final[i].tobytes() == rec.points[-1].tobytes()
            else:
                np.testing.assert_allclose(res.final[i], rec.points[-1], rtol=1e-12, atol=0)


def test_dot_bits_of_the_step_products():
    # the prox and metric steps multiply rows by a matrix through ndarray.dot,
    # which on 2-D operands calls BLAS's kernel for @ without the matmul
    # gufunc's dispatch: the same bits at every d, n and layout tried, for a
    # diagonal and a dense symmetric matrix
    rng = np.random.default_rng(37)
    for d in (1, 2, 3, 4, 6, 33):
        B = rng.standard_normal((d, d))
        for M in (np.diag(rng.standard_normal(d)), (B + B.T) / 2):
            for n in (1, 2, 31, 1000):
                X = rng.uniform(-1.0, 1.0, size=(n, d))
                for Y in (X, np.asfortranarray(X)):
                    assert Y.dot(M).tobytes() == (Y @ M).tobytes(), (d, n, Y.flags.f_contiguous)
    # one prox step and one metric step against the @ expressions they replace
    s = sch.power(1.0, 1.0, 3)
    for d in (2, 4):
        B = rng.standard_normal((d, d))
        A = (B + B.T) / np.max(np.abs(np.linalg.eigvalsh(B + B.T)))
        f = obj_mod.quadratic(A)
        metric = RiemannianMetric(np.eye(d) + A @ A)
        for n in (1, 31):
            X = rng.uniform(-1.0, 1.0, size=(n, d))
            Z, _ = mth._update("prox", f, s)(5, X)
            assert Z.tobytes() == (X @ mth._resolvents(A, [s.value(5)])[0]).tobytes()
            Z, _ = mth._update("manifold-intrinsic", f, s, metric)(5, X)
            want = X - s.value(5) * (f._grad(X) @ metric.matrix.T.copy())
            assert Z.tobytes() == want.tobytes()


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
            escape_radius=mth.DEFAULT_ESCAPE_RADIUS)
        assert (res.terminal[i], res.k_final[i], res.message[i]) == (kind, k_final, message)
        assert res.final[i].tobytes() == final.tobytes()


def test_prox_budget_before_a_singular_resolvent_in_the_block():
    # under 1/(k+2) the singular k = 1500 lies inside the block of k = 1024,
    # past a budget of 1400: the block stops before it and no row notices
    f = obj_mod.quadratic(np.diag([1.0, -1502.0]))
    X0 = np.array([[0.1, 0.0], [0.5, 0.0], [1.0, 0.0], [-2.0, 0.0]])
    res = run_batch("prox", f, HARMONIC, X0, budget=1400)
    assert res.terminal == [BUDGET_EXHAUSTED] * 4
    assert list(res.k_final) == [1400] * 4
    step = make_step("prox", f, HARMONIC)
    for i, x0 in enumerate(X0):
        kind, k_final, final, message = reference_run(
            step, x0, budget=1400, conv_tol=1e-9,
            escape_radius=mth.DEFAULT_ESCAPE_RADIUS)
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
    # conv_tol 0 and -1 leave no motion below it: the motion filter is off
    # and no row may converge.  Row 1's quiet run goes on through several
    # blocks before it converges
    tols = (motion, np.nextafter(motion, 0.0), np.nextafter(motion, np.inf), 0.0, -1.0)
    for batch in (X0, wide):
        for escape_radius in (radius, np.nextafter(radius, 0.0), np.nextafter(radius, np.inf)):
            for conv_tol in tols:
                opts = dict(budget=budget, conv_tol=conv_tol, escape_radius=escape_radius)
                res = run_batch("gd", f, s, batch, **opts)
                if conv_tol <= 0:
                    assert CONVERGED_TO_POINT not in res.terminal
                for i, x0 in enumerate(batch):
                    kind, k_final, final, message = reference_run(step, x0, **opts)
                    assert (res.terminal[i], res.k_final[i], res.message[i]) == \
                        (kind, k_final, message)
                    assert res.final[i].tobytes() == final.tobytes()
                    alone = run_batch("gd", f, s, x0[None], **opts)
                    assert (alone.terminal[0], alone.k_final[0]) == (kind, k_final)
                    assert alone.final[0].tobytes() == final.tobytes()
    # the neighbours decide: row 3 escapes one step later at its exact norm,
    # and row 1 turns quiet one step later at its exact motion (its quiet
    # run starts at step 32 or 31 and reaches 50 steps at 81 or 80)
    ref = [reference_run(step, X0[3], budget=budget, conv_tol=0.0, escape_radius=r)[:2]
           for r in (radius, np.nextafter(radius, 0.0))]
    assert ref == [(ESCAPED_REGION, 21), (ESCAPED_REGION, 20)]
    ref = [reference_run(step, X0[1], budget=budget, conv_tol=t, escape_radius=1e3)[:2]
           for t in (motion, np.nextafter(motion, np.inf))]
    assert ref == [(CONVERGED_TO_POINT, 81), (CONVERGED_TO_POINT, 80)]


def test_run_batch_quiet_run_spans_several_blocks():
    # the row at the saddle never moves, so its quiet run starts at step 1
    # and reaches the 50-step window at k = 50.  Blocks start at k = 0, 1,
    # 3, 7, 15, 31 and 63, so the run goes on through five blocks and ends
    # inside the sixth.  The rows on the stable axis converge much later,
    # and the others escape
    f, s = obj_mod.fig1(), sch.power(1.0, 1.0, 3)
    X0 = np.array([[0.0, 0.0], [0.3, 0.0], [-0.8, 0.0], [0.5, 1e-2], [0.0, -0.2]])
    opts = dict(budget=2000, conv_tol=1e-9, escape_radius=1e3)
    res = run_batch("gd", f, s, X0, **opts)
    assert res.terminal == [CONVERGED_TO_POINT] * 3 + [ESCAPED_REGION] * 2
    assert res.k_final[0] == 50 and min(res.k_final[1:]) > 63
    step = make_step("gd", f, s)
    for i, x0 in enumerate(X0):
        kind, k_final, final, message = reference_run(step, x0, **opts)
        assert (res.terminal[i], res.k_final[i], res.message[i]) == (kind, k_final, message)
        assert res.final[i].tobytes() == final.tobytes()


def test_run_batch_row_sums_decide_a_crowded_batch():
    # 240 rows that grow outward at different rates: for several steps
    # before the first row escapes, every row is inside the radius but
    # their squares add up past radius^2, so only each row's own sum of
    # squares can settle those steps.  The rows escape over many steps,
    # each at the step the one-point loop gives it
    f, s = obj_mod.fig1(), sch.power(1.0, 1.0, 3)
    step = make_step("gd", f, s)
    X0 = np.array([-0.2, 0.4]) * np.linspace(0.3, 1.0, 240)[:, None]
    orbits = [X0]
    for k in range(20):
        orbits.append(np.array([step(k, x) for x in orbits[-1]]))
    radius = float(np.linalg.norm(orbits[-1][-1]))
    norms = np.array([[np.linalg.norm(x) for x in X] for X in orbits])
    assert sum(col @ col > radius * radius and col.max() < radius for col in norms) >= 5
    for escape_radius in (radius, np.nextafter(radius, 0.0), np.nextafter(radius, np.inf)):
        for conv_tol in (1e-3, 0.0):
            opts = dict(budget=200, conv_tol=conv_tol, escape_radius=escape_radius)
            res = run_batch("gd", f, s, X0, **opts)
            assert len(set(res.k_final.tolist())) > 10
            for i, x0 in enumerate(X0):
                kind, k_final, final, message = reference_run(step, x0, **opts)
                assert (res.terminal[i], res.k_final[i], res.message[i]) == \
                    (kind, k_final, message)
                assert res.final[i].tobytes() == final.tobytes()


def test_run_batch_long_step_restarts_quiet_streaks(monkeypatch):
    # constant steps down a slope whose gradient is -1 on bands 0.05 wide
    # and -1/4 in the gaps between them: runs of short steps (quiet under
    # conv_tol 0.005) alternate with 5 long ones.  With gaps 0.1125 wide,
    # runs of 45 short steps, no row may converge; a long step that did not
    # restart the streaks would let them add up past the 50-step window.
    # Blocks of one or two steps can hold long steps only, longer ones both
    def slope(gap):
        def grad(x):
            return np.where(x % (0.05 + gap) < 0.05, -1.0, -0.25)
        return obj_mod.Objective(1, grad, lambda x: np.zeros((1, 1)), vectorized=True)

    f = slope(0.1125)
    s = sch.constant(0.01)
    X0 = np.array([[0.0], [0.012], [0.031], [0.077]])
    opts = dict(budget=300, conv_tol=0.005, escape_radius=1e3)
    step = make_step("gd", f, s)
    for steps in (1, 2, 64):
        monkeypatch.setattr(mth, "_BLOCK_STEPS", steps)
        res = run_batch("gd", f, s, X0, **opts)
        assert res.terminal == [BUDGET_EXHAUSTED] * 4
        for i, x0 in enumerate(X0):
            final = reference_run(step, x0, **opts)[2]
            assert res.final[i].tobytes() == final.tobytes()
            alone = run_batch("gd", f, s, x0[None], **opts)  # no other row to break a long run
            assert alone.terminal == [BUDGET_EXHAUSTED]
            assert alone.final[0].tobytes() == final.tobytes()
        # with gaps 0.2 wide, runs of 80 short steps, the same rows do
        # converge, inside their first short run
        res = run_batch("gd", slope(0.2), s, X0, **opts)
        assert res.terminal == [CONVERGED_TO_POINT] * 4


@pytest.mark.parametrize("escape_radius", [-1.0, 0.0, 1e-200, 1e300, np.inf])
def test_run_batch_extreme_escape_radii_match_reference(escape_radius):
    # a negative radius lets no row stay, and a zero one only the rows at
    # 0; 1e300 is finite, so a row whose squared norm overflows escapes it;
    # inf lets every row stay.  The last two rows reach 0 at step 1 and
    # converge where they stay, at k = 51 and 50 (the last one's first step
    # is already short)
    f = obj_mod.fig1()
    X0 = np.array([[0.5, 1e-3], [0.0, 1e160], [-0.3, 0.0], [1e-170, 0.0]])
    step = make_step("gd", f, HARMONIC)
    opts = dict(budget=100, conv_tol=1e-12, escape_radius=escape_radius)
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


# ---------------------------------------------------------------------------
# the lockstep loop against the plain loop, over drawn configurations
# ---------------------------------------------------------------------------

_SCHEDULES = (HARMONIC, sch.power(1.0, 1.0, 3), sch.power(0.5, 0.5, 2), sch.power(2.0, 2.0, 2),
              sch.constant(0.1), sch.constant(0.01), sch.geometric(0.5, 0.99))
_ENTROPY_A = [[1.0, 3.0, 0.0], [3.0, 1.0, 0.0], [0.0, 0.0, 2.0]]


@st.composite
def _lockstep_cases(draw):
    """A method with an objective that fits it, its starts (some on the
    stable set), a schedule and the stop settings; the block limits last."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 30))
    on = draw(st.integers(0, n))  # rows on the stable set
    method_id = draw(st.sampled_from(("gd", "prox", "mirror-euclidean",
                                      "mirror-entropy", "manifold-sphere")))
    if method_id == "mirror-entropy":  # the stable set of the saddle (1/4, 1/4, 1/2) is x1 = x2
        f = obj_mod.quadratic(_ENTROPY_A)
        X0 = rng.dirichlet(np.ones(3), size=n)
        X0[:on, 1] = X0[:on, 0]
        X0[:on, 2] = 1.0 - 2.0 * X0[:on, 0]
    elif method_id == "manifold-sphere":  # the stable set of the saddles +-e2 is x1 = 0
        f = obj_mod.quadratic(np.diag([1.0, 2.0, 3.0]))
        X0 = rng.standard_normal((n, 3))
        X0[:on, 0] = 0.0
        X0 /= np.linalg.norm(X0, axis=1, keepdims=True)
    else:
        name = draw(st.sampled_from(("fig1", "cubic", "diagonal")))
        if name == "fig1":
            f, lams = obj_mod.fig1(), np.array([2.0, -2.0])
        elif name == "cubic":
            f, lams = obj_mod.cubic_perturbed_saddle(draw(st.sampled_from((0.1, -0.5, 1.0)))), \
                np.array([1.0, -1.0])
        else:
            lams = np.array(draw(st.lists(st.sampled_from((-1.0, -0.25, 0.0, 0.5, 1.0, 3.0)),
                                          min_size=3, max_size=3)))
            f = obj_mod.quadratic(np.diag(lams))
        X0 = rng.uniform(-1.0, 1.0, size=(n, len(lams))) * draw(st.sampled_from((1e-3, 1.0, 10.0)))
        X0[:on, lams < 0] = 0.0
    opts = dict(budget=draw(st.sampled_from((1, 2, 3, 10, 50, 51, 60, 200))),
                conv_tol=draw(st.sampled_from((1e-3, 1e-6, 1e-9, 1e-12, 0.0, -1.0))),
                escape_radius=draw(st.sampled_from((-1.0, 1e-200, 0.5, 2.0, 10.0, 1e3, 1e300,
                                                    np.inf))))
    blocks = draw(st.sampled_from((1, 2, 3, 7, 64))), draw(st.sampled_from((8, 64, 1 << 14)))
    return method_id, f, draw(st.sampled_from(_SCHEDULES)), X0, opts, blocks


def _warns(fn):
    """Whether ``fn()`` warns, with every warning raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fn()
        except Warning:
            return True
    return False


def _separable(lams):
    """f(x) = sum_i lam_i x_i^2 / 2 + x_i^4 / 4: its gradient and Hessian
    are taken entry by entry, so no product mixes the rows of a stack."""
    lams = np.asarray(lams, dtype=float)
    d = len(lams)

    def hess(x):
        H = np.zeros(x.shape + (d,))
        H[..., np.arange(d), np.arange(d)] = lams + 3.0 * x * x
        return H
    return obj_mod.Objective(d, lambda x: lams * x + x * x * x, hess, vectorized=True)


@st.composite
def _wide_lockstep_cases(draw):
    """As _lockstep_cases at d = 4 or 6, for the steps whose rows keep their
    own bits at any d: gd and prox's Newton on a separable objective, and
    the entropy and sphere steps on it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, d = draw(st.integers(1, 30)), draw(st.sampled_from((4, 6)))
    on = draw(st.integers(0, n))  # rows on the stable set
    lams = np.array(draw(st.lists(st.sampled_from((-1.0, -0.25, 0.0, 0.5, 1.0, 3.0)),
                                  min_size=d, max_size=d)))
    method_id = draw(st.sampled_from(("gd", "prox", "mirror-entropy", "manifold-sphere")))
    if method_id == "mirror-entropy":
        X0 = rng.dirichlet(np.ones(d), size=n)
    elif method_id == "manifold-sphere":
        X0 = rng.standard_normal((n, d))
        X0 /= np.linalg.norm(X0, axis=1, keepdims=True)
    else:
        X0 = rng.uniform(-1.0, 1.0, size=(n, d)) * draw(st.sampled_from((1e-3, 1.0, 3.0, 10.0)))
        X0[:on, lams < 0] = 0.0
    opts = dict(budget=draw(st.sampled_from((1, 2, 3, 10, 50, 51, 60, 200))),
                conv_tol=draw(st.sampled_from((1e-2, 1e-3, 1e-6, 1e-9, 1e-12, 0.0))),
                escape_radius=draw(st.sampled_from((0.9, 2.0, 10.0, 1e3, np.inf))))
    blocks = draw(st.sampled_from((1, 2, 3, 7, 64))), draw(st.sampled_from((8, 64, 1 << 14)))
    return method_id, _separable(lams), draw(st.sampled_from(_SCHEDULES)), X0, opts, blocks


def _check_rows_match_the_plain_loop(case):
    """Run the case's rows in lockstep, with the block limits monkeypatched,
    and each row alone through reference_run: the same terminal, k_final,
    message and final bits, and a warning from the batch only where the
    plain loop warns too."""
    method_id, f, s, X0, opts, (steps, doubles) = case
    step = make_step(method_id, f, s)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mth, "_BLOCK_STEPS", steps)
        mp.setattr(mth, "_BLOCK_DOUBLES", doubles)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_batch(method_id, f, s, X0, **opts)
            for i, x0 in enumerate(X0):
                kind, k_final, final, message = reference_run(step, x0, **opts)
                assert (res.terminal[i], res.k_final[i], res.message[i]) == \
                    (kind, k_final, message)
                assert res.final[i].tobytes() == final.tobytes()
        if _warns(lambda: run_batch(method_id, f, s, X0, **opts)):
            assert _warns(lambda: [reference_run(step, x0, **opts) for x0 in X0])


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_lockstep_cases())
def test_run_batch_rows_match_the_plain_loop_at_any_block_size(case):
    # every row of the lockstep loop ends as the one-point loop ends it, to
    # the bit, at any block length and block size; and where the lockstep
    # loop warns, the one-point loop warns too.  d <= 3 here: at d >= 4 a
    # dense product's last bits can depend on the batch (see _update).  The
    # examples are derandomized, so every run checks the same 250
    _check_rows_match_the_plain_loop(case)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_wide_lockstep_cases())
def test_run_batch_rows_match_the_plain_loop_at_d_4_and_6(case):
    # the same check at d = 4 and 6, for the steps that multiply no row by
    # a dense matrix: gd and prox's Newton on a separable objective, and the
    # entropy and sphere steps, whose per-row products are stacked
    _check_rows_match_the_plain_loop(case)


def test_rows_that_stop_at_one_step_each_end_as_the_plain_loop_ends_them():
    # gd at alpha = 1 on a 1-D field that is piecewise constant: at the step to
    # k = 50 two rows converge (no motion since k = 0), one escapes radius
    # 50.5, three fail and one goes on to the budget.  The failing rows meet a
    # gradient of +inf, -inf (their new states are -inf and +inf, no NaN) and
    # NaN; the two inf rows are also past the escape radius, and must still
    # end as step errors
    def grad(x):
        return np.select([x >= 1.0, x >= 0.5, x > -0.5, x > -49.75, x > -50.1, x > -50.4],
                         [-1.0, -1e-3, 0.0, 1.0, np.inf, -np.inf], np.nan)

    f = obj_mod.Objective(1, grad, lambda x: np.zeros(x.shape + (1,)), vectorized=True)
    s, opts = sch.constant(1.0), dict(budget=100, conv_tol=1e-6, escape_radius=50.5)
    X0 = np.array([[0.0], [0.25], [1.0], [-1.0], [-1.25], [-1.5], [0.6]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_batch("gd", f, s, X0, **opts)
    assert res.terminal == [CONVERGED_TO_POINT] * 2 + [ESCAPED_REGION] + [STEP_ERROR] * 3 \
        + [BUDGET_EXHAUSTED]
    assert res.k_final.tolist() == [50, 50, 50, 49, 49, 49, 100]
    step = make_step("gd", f, s)
    for i, x0 in enumerate(X0):
        kind, k_final, final, message = reference_run(step, x0, **opts)
        assert (res.terminal[i], res.k_final[i], res.message[i]) == (kind, k_final, message)
        assert res.final[i].tobytes() == final.tobytes()


def test_a_huge_escape_radius_stops_rows_without_a_warning():
    # on the cubic an escaping row's norm about squares with each step, so
    # past radius 1e308 its squares overflow: the stop test takes them as
    # inf, as the norm does, and neither it nor run's gradient norms warn.
    # The radius is a numpy scalar, whose own square overflows with a warning
    f = obj_mod.cubic_perturbed_saddle(0.1)
    X0 = np.random.default_rng(0).uniform(-1.0, 1.0, size=(8, 2))
    opts = dict(budget=3000, conv_tol=1e-9, escape_radius=np.float64(1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_batch("gd", f, HARMONIC, X0, **opts)
        rec = run("gd", f, HARMONIC, X0[0], **opts)
    assert (rec.terminal.kind, rec.k_final) == (res.terminal[0], res.k_final[0])
    assert rec.points[-1].tobytes() == res.final[0].tobytes()
    step = make_step("gd", f, HARMONIC)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i, x0 in enumerate(X0):
            kind, k_final, final, message = reference_run(step, x0, **opts)
            assert (res.terminal[i], res.k_final[i], res.message[i]) == \
                (kind, k_final, message)
            assert res.final[i].tobytes() == final.tobytes()
        assert np.isinf(res.final[0] @ res.final[0]) and not np.isfinite(rec.grad_norms[-1])
    assert res.terminal.count(ESCAPED_REGION) >= 4


def test_overflowing_gd_step_stops_at_its_own_step_without_a_radius():
    # with escape_radius = inf, a gd step whose gradient overflows leaves its
    # row at -inf, and inf <= inf must not keep it: the step error comes at
    # k = 0 from the start point, as in the plain loop.  A finite row whose
    # squares overflow (the second) goes on
    f = obj_mod.cubic_perturbed_saddle(0.1)
    X0 = np.array([[1e200, 1e200], [0.0, 1e160], [0.5, 1e-3]])
    step = make_step("gd", f, HARMONIC)
    opts = dict(budget=50, conv_tol=1e-12, escape_radius=np.inf)
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


def _linear_growth(grad):
    """f = -x^2/2 on R under 1/(k+2), with ``grad`` in place of -x: where the
    gradient is -x, gd's iterates are x_k = x_0 (k+2)/2, so a row escapes
    radius R at the first k with k + 2 > 2R/x_0."""
    return obj_mod.Objective(1, grad, lambda x: -np.ones(x.shape + (1,)), vectorized=True)


def _beyond(radius, how):
    """The gradient -x inside ``radius``; outside, an overflow or an ObjectiveError."""
    def grad(x):
        out = np.abs(x) > radius
        if not out.any():
            return -x
        if how == "raise":
            raise obj_mod.ObjectiveError(f"gradient asked outside the radius at {x[out]}")
        g = -x
        g[out] = np.exp(1e3 * np.abs(x[out]))  # overflows
        return g
    return grad


@pytest.mark.parametrize("how", ["overflow", "raise"])
def test_blocks_never_show_a_step_past_a_stop(how):
    # the gradient overflows or raises just outside the escape radius, so
    # only a step taken after a row escaped asks it there; the blocks take
    # such steps and must discard them without a warning or an exception.
    # Rows converge (x0 = 0), escape at several steps, or run out of budget
    X0 = np.array([[0.0], [0.31], [-0.47], [0.9], [1.3], [-2.1], [3.7], [0.05]])
    opts = dict(budget=300, conv_tol=1e-12, escape_radius=20.0)
    grad = _beyond(opts["escape_radius"], how)
    for f in (_linear_growth(grad), obj_mod.Objective(1, grad, None)):
        step = make_step("gd", f, HARMONIC)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_batch("gd", f, HARMONIC, X0, **opts)
            for i, x0 in enumerate(X0):
                kind, k_final, final, message = reference_run(step, x0, **opts)
                assert (res.terminal[i], res.k_final[i], res.message[i]) == \
                    (kind, k_final, message)
                assert res.final[i].tobytes() == final.tobytes()
        assert res.terminal.count(ESCAPED_REGION) == 6
        assert set(res.terminal) == {ESCAPED_REGION, CONVERGED_TO_POINT, BUDGET_EXHAUSTED}


def test_blocks_warn_as_one_step_at_a_time():
    # the gradient takes a masked log(0) at points in 4 <= |x| < 4.2, which
    # sets numpy's divide flag while the gradient stays -x.  Rows 0 and 2
    # escape radius 10 at steps 98 and 298; rows 1 and 3 pass through the
    # band in the steps just after, one row at a time.  A block that stepped
    # on past an escape and kept those warnings would warn twice for them
    caught, flagged = [], []

    def grad(x):
        band = (np.abs(x) >= 4.0) & (np.abs(x) < 4.2)
        seen = len(caught)
        g = np.where(band, -x, -x + np.log(np.where(band, 0.0, 1.0)))
        if len(caught) > seen:
            flagged.append(x[band].tobytes())
        return g

    f = _linear_growth(grad)
    X0 = np.array([[0.201], [8 / 101.5], [-20 / 299.5], [-8 / 301.5]])
    opts = dict(budget=400, conv_tol=1e-12, escape_radius=10.0)
    step = make_step("gd", f, HARMONIC)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run_batch("gd", f, HARMONIC, X0, **opts)
        got = list(flagged), [str(w.message) for w in caught]
        del caught[:], flagged[:]
        for i, x0 in enumerate(X0):
            kind, k_final, final, message = reference_run(step, x0, **opts)
            assert (res.terminal[i], res.k_final[i], res.message[i]) == \
                (kind, k_final, message)
            assert res.final[i].tobytes() == final.tobytes()
        want = flagged, [str(w.message) for w in caught]
    assert res.terminal == [ESCAPED_REGION] * 3 + [BUDGET_EXHAUSTED]
    assert list(res.k_final) == [98, 252, 298, 400]
    # the same points warned, as many times, each once
    assert sorted(got[0]) == sorted(want[0]) and len(set(want[0])) == len(want[0]) == 28
    assert got[1] == want[1] == ["divide by zero encountered in log"] * 28


@pytest.mark.parametrize("beyond", [False, True])
def test_blocks_discard_at_most_64_updates_per_stop(monkeypatch, beyond):
    # rows escape about 150 steps apart, so the blocks are back at their
    # full length each time; with ``beyond`` their gradient overflows once
    # they are past the radius.  Every update past the steps taken is one a
    # block discarded after a stop
    calls = []
    real = mth._update

    def counting(*args, **kwargs):
        update = real(*args, **kwargs)

        def counted(k, X):
            calls.append(k)
            return update(k, X)
        return counted

    monkeypatch.setattr(mth, "_update", counting)
    f = _linear_growth(_beyond(10.0, "overflow") if beyond else np.negative)
    X0 = np.array([[20.5 / (150 * j + 2)] for j in range(1, 9)] + [[0.001]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_batch("gd", f, HARMONIC, X0, budget=1500, conv_tol=1e-12,
                        escape_radius=10.0)
    assert res.terminal == [ESCAPED_REGION] * 8 + [BUDGET_EXHAUSTED]
    stops = {int(k) - 1 for k in res.k_final[:8]}  # the steps at which a row stopped
    assert len(stops) == 8 and sorted(set(calls)) == list(range(1500))
    assert len(calls) - 1500 <= 64 * len(stops)


def test_a_budget_of_2_to_the_63_is_a_named_error():
    # k_final is an int64: 2^63 - 1 runs (fig1 escapes at k = 108), 2^63 raises
    f, x0 = obj_mod.fig1(), np.array([0.5, 0.5])
    largest = (1 << 63) - 1
    rec = run("gd", f, HARMONIC, x0, budget=largest)
    res = run_batch("gd", f, HARMONIC, x0[None], budget=largest)
    assert (rec.terminal.kind, rec.k_final) == (res.terminal[0], res.k_final[0]) == \
        (ESCAPED_REGION, 108)
    for budget in (1 << 63, 1 << 64):
        with pytest.raises(MethodError, match=r"budget must be below 2\^63"):
            run("gd", f, HARMONIC, x0, budget=budget)
        with pytest.raises(MethodError, match=r"budget must be below 2\^63"):
            run_batch("gd", f, HARMONIC, x0[None], budget=budget)


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


# ---------------------------------------------------------------------------
# row norms
# ---------------------------------------------------------------------------

def _laid_out(A, layout):
    """A copy of A in C order, Fortran order, or as a view with a row stride
    of two rows and a negative column stride."""
    if layout == "C":
        return np.ascontiguousarray(A)
    if layout == "F":
        return np.asfortranarray(A)
    n, d = A.shape
    V = np.zeros((2 * n, 3 * d))[1::2, ::-3]
    V[...] = A
    return V


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("d", range(1, 13))
def test_row_sq_sums_are_the_reduce_bit_for_bit(d, layout):
    # entries over 300 decades, with -0.0, +0.0, subnormals, +-inf and NaN
    # mixed in; no square overflows, so nothing may warn
    rng = np.random.default_rng(d)
    special = np.array([-0.0, 0.0, 5e-324, -2.2e-310, np.inf, -np.inf, np.nan])
    for n in (1, 2, 31, 1000, 3018):
        A = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-150, 150, size=(n, d))
        mask = rng.uniform(size=(n, d)) < 0.1
        A[mask] = rng.choice(special, size=int(mask.sum()))
        D = _laid_out(A, layout)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sq = mth._row_sq_sums(D)
            assert sq.tobytes() == np.add.reduce(D * D, axis=1).tobytes(), n
            assert np.sqrt(sq).tobytes() == np.linalg.norm(D, axis=1).tobytes(), n


@pytest.mark.parametrize("d", range(1, 13))
def test_row_sq_sums_warn_on_overflow_as_the_norm_does(d):
    # a square past the largest double warns in the multiply, as the norm
    # does; a sum of finite squares past it warns in the add ("in reduce" in
    # the norm); both give inf
    D = np.full((31, d), 0.5)
    D[7, d - 1] = 1e200
    for sq_of in (mth._row_sq_sums, lambda D: np.linalg.norm(D, axis=1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="overflow encountered in multiply"):
                sq_of(D)
    if d > 1:
        D[7] = 1e154
        for sq_of in (mth._row_sq_sums, lambda D: np.linalg.norm(D, axis=1)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(RuntimeWarning, match="overflow encountered in"):
                    sq_of(D)
    with np.errstate(over="ignore"):
        sq = mth._row_sq_sums(D)
        assert sq[7] == np.inf
        assert sq.tobytes() == np.add.reduce(D * D, axis=1).tobytes()

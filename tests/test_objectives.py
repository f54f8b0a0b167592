"""Objective values, derivatives, and critical-point classification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saddle_escape import objectives as obj_mod
from saddle_escape.objectives import (DEGENERATE, LOCAL_MIN_CANDIDATE,
                                      NOT_CRITICAL, STRICT_SADDLE,
                                      classify_critical_point,
                                      cubic_perturbed_saddle, fig1, quadratic)


def test_quadratic_derivatives():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    f = quadratic(A)
    x = np.array([1.0, -2.0])
    assert f.eval(x) == pytest.approx(0.5 * x @ A @ x, rel=1e-15)
    np.testing.assert_allclose(f.grad(x), A @ x, rtol=1e-15)
    np.testing.assert_allclose(f.hess(x), A)
    np.testing.assert_array_equal(f.grad(np.zeros(2)), np.zeros(2))  # the origin is critical


def test_quadratic_rejects_asymmetric():
    with pytest.raises(obj_mod.ObjectiveError):
        quadratic(np.array([[1.0, 0.5], [0.0, 1.0]]))
    for bad in (np.nan, np.inf):  # the symmetry test sees neither
        with pytest.raises(obj_mod.ObjectiveError, match="non-finite"):
            quadratic(np.array([[bad, 0.0], [0.0, -1.0]]))


def test_quadratic_batched_gradient_matches_rows():
    A = np.diag([2.0, -2.0])
    f = quadratic(A)
    X = np.array([[0.5, 0.5], [1.0, -1.0], [0.0, 3.0]])
    G = f.grad(X)
    for i, x in enumerate(X):
        np.testing.assert_allclose(G[i], f.grad(x))


def _looped_cubic():
    # the cubic's callables taken one point at a time, as a user would write them
    f = cubic_perturbed_saddle(0.3)
    return obj_mod.Objective(2, lambda x: float(f.eval(x)), f.grad, f.hess)


@pytest.mark.parametrize("make", [
    fig1, lambda: quadratic(np.array([[2.0, 0.5, -1.0], [0.5, 1.0, 0.25], [-1.0, 0.25, -3.0]])),
    lambda: cubic_perturbed_saddle(0.3), _looped_cubic], ids=["fig1", "dense", "cubic", "looped"])
def test_callables_take_stacks(make):
    # eval, grad and hess take (d,), (n, d) and (n, m, d) and give each
    # point's values stacked: (...,), (..., d) and (..., d, d)
    f = make()
    d = f.dimension
    X = np.random.default_rng(0).uniform(-1.0, 1.0, size=(4, 3, d))
    for x in (X[0, 0], X[0], X):
        lead = x.shape[:-1]
        E, G, H = np.asarray(f.eval(x)), f.grad(x), f.hess(x)
        assert (E.shape, G.shape, H.shape) == (lead, lead + (d,), lead + (d, d))
        for i in np.ndindex(lead):
            assert E[i] == f.eval(x[i])
            assert G[i].tobytes() == f.grad(x[i]).tobytes()
            assert H[i].tobytes() == f.hess(x[i]).tobytes()


def test_fig1_is_x2_minus_y2():
    f = fig1()
    assert f.eval(np.array([3.0, 2.0])) == pytest.approx(9.0 - 4.0)
    np.testing.assert_allclose(f.grad(np.array([3.0, 2.0])), [6.0, -4.0])
    np.testing.assert_allclose(f.hess(np.zeros(2)), np.diag([2.0, -2.0]))


def test_cubic_gradient_worked_value():
    # grad at (1, 1) with a = 0.25: (z1 + 2a z1 z2, -z2 + a z1^2) = (1.5, -0.75)
    f = cubic_perturbed_saddle(0.25)
    np.testing.assert_allclose(f.grad(np.array([1.0, 1.0])), [1.5, -0.75],
                               rtol=1e-15)


def test_cubic_eval_and_hessian():
    a = 0.1
    f = cubic_perturbed_saddle(a)
    z = np.array([0.3, -0.2])
    expect = 0.5 * z[0] ** 2 - 0.5 * z[1] ** 2 + a * z[0] ** 2 * z[1]
    assert f.eval(z) == pytest.approx(expect, rel=1e-15)
    np.testing.assert_allclose(f.hess(np.zeros(2)), np.diag([1.0, -1.0]))
    H = f.hess(z)
    np.testing.assert_allclose(H, H.T)
    np.testing.assert_allclose(H, [[1 + 2 * a * z[1], 2 * a * z[0]],
                                   [2 * a * z[0], -1.0]])


@settings(max_examples=50)
@given(a=st.floats(-0.5, 0.5), x=st.floats(-2, 2), y=st.floats(-2, 2))
def test_cubic_gradient_is_fd_consistent(a, x, y):
    f = cubic_perturbed_saddle(a) if a != 0 else cubic_perturbed_saddle(0.1)
    z = np.array([x, y])
    h = 1e-6
    fd = np.array([
        (f.eval(z + [h, 0]) - f.eval(z - [h, 0])) / (2 * h),
        (f.eval(z + [0, h]) - f.eval(z - [0, h])) / (2 * h),
    ])
    np.testing.assert_allclose(f.grad(z), fd, atol=1e-7, rtol=1e-6)


def test_cubic_batched_gradient_matches_rows():
    f = cubic_perturbed_saddle(0.1)
    X = np.array([[0.5, 0.5], [1.0, -1.0], [-0.3, 0.7]])
    G = f.grad(X)
    for i, x in enumerate(X):
        np.testing.assert_allclose(G[i], f.grad(x))


def test_classify_strict_saddle():
    cls = classify_critical_point(fig1(), np.zeros(2))
    assert cls.tag == STRICT_SADDLE
    assert cls.min_eigenvalue == pytest.approx(-2.0)
    assert cls.grad_norm == 0.0


def test_classify_non_critical():
    cls = classify_critical_point(fig1(), np.array([1.0, 1.0]))
    assert cls.tag == NOT_CRITICAL
    assert cls.grad_norm > 1.0


def test_classify_minimum_and_degenerate():
    assert classify_critical_point(quadratic(np.eye(2)), np.zeros(2)).tag \
        == LOCAL_MIN_CANDIDATE
    assert classify_critical_point(quadratic(np.diag([1.0, 0.0])),
                                   np.zeros(2)).tag == DEGENERATE


def test_classify_respects_tolerances():
    # both tolerances are 1e-8, and a value on the boundary is inside it:
    # on x^2 - y^2 the gradient norm at (x, 0) is exactly 2x
    f = fig1()
    at, past = 5e-9, np.nextafter(5e-9, 1.0)
    assert classify_critical_point(f, np.array([at, 0.0])).tag == STRICT_SADDLE
    assert classify_critical_point(f, np.array([past, 0.0])).tag == NOT_CRITICAL
    for m, tag in ((np.nextafter(-1e-8, -1.0), STRICT_SADDLE), (-1e-8, DEGENERATE),
                   (1e-8, DEGENERATE), (np.nextafter(1e-8, 1.0), LOCAL_MIN_CANDIDATE)):
        cls = classify_critical_point(quadratic(np.diag([1.0, m])), np.zeros(2))
        assert (cls.tag, cls.min_eigenvalue) == (tag, m)


def test_custom_objective_dimension_check():
    f = obj_mod.Objective(2, lambda x: 0.0, lambda x: np.zeros(2),
                          lambda x: np.zeros((2, 2)))
    with pytest.raises(obj_mod.ObjectiveError):
        f.grad(np.zeros(3))


@pytest.mark.parametrize("make", [fig1, _looped_cubic], ids=["fig1", "looped"])
@pytest.mark.parametrize("x", [np.float64(1.0), np.array(1.0)], ids=["scalar", "0-d"])
def test_a_0d_point_is_an_objective_error(make, x):
    f = make()
    for call in (f.eval, f.grad, f.hess):
        with pytest.raises(obj_mod.ObjectiveError, match=r"shape \(\)"):
            call(x)


def test_looped_callables_take_an_empty_stack():
    # an empty stack gives fig1's shapes, not apply_along_axis's ValueError
    f, g = fig1(), _looped_cubic()
    for x, lead in ((np.zeros((0, 2)), (0,)), (np.zeros((3, 0, 2)), (3, 0))):
        shapes = [lead, lead + (2,), lead + (2, 2)]
        assert [np.shape(f.eval(x)), f.grad(x).shape, f.hess(x).shape] == shapes
        assert [g.eval(x).shape, g.grad(x).shape, g.hess(x).shape] == shapes

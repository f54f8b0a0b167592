"""Sequence-space operator, contraction bounds, fixed points, and charts.

The heart of this file is apply_T versus a deliberately naive reference
implementation that evaluates every transition product with an explicit
inner loop — the vectorized cumprod scans must reproduce those sums.
"""

import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (k1_recursion, k2_exact_constant, k2_partial_power_harmonic,
                     manufactured_remainder, power_alpha, telescoped_unstable,
                     weighted_forward_sums, weighted_tail_bound, weighted_tail_sum,
                     weights)
import reference
from reference import (reference_eta, reference_scan_T, reference_shoot,
                       self_consistency_error, validate_remainder)

from saddle_escape import lyapunov_perron as lp
from saddle_escape import methods
from saddle_escape import objectives as obj_mod
from saddle_escape import schedules as sch
from saddle_escape.lyapunov_perron import (CertificateError, LyapunovError,
                                           PerronProblem, apply_T, bound_K1,
                                           bound_K2, chart, iterate_raw,
                                           remainder_from_objective,
                                           shooting_oracle, solve_stable_point,
                                           sup_distance, tail_horizon)
from saddle_escape.spectral import split

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

HARMONIC = sch.power(1.0, 1.0, 2)


def alphas_at(ks):
    """HARMONIC's step sizes at the steps ks."""
    ks = np.asarray(ks)
    return np.asarray(HARMONIC.values(int(ks.max()) + 1))[ks]


def cubic_problem(a=0.1, delta=0.1, horizon=4000):
    """Hand-built diagonal-frame problem for the a-perturbed saddle.

    At the origin the Hessian is diag(1, -1) and the update deviation from
    its linearization is eta(k, z) = -alpha_k * a * (2 z1 z2, z1^2), with
    Lipschitz modulus alpha_k * 6 a delta on B(0, delta).  A hand-built
    problem has no raw dynamics; :func:`cubic_gd_problem` has.
    """
    sp = split(np.diag([1.0, -1.0]))

    def eta(ks, Z):
        return -alphas_at(ks)[:, None] * a * np.stack(
            [2 * Z[:, 0] * Z[:, 1], Z[:, 0] ** 2], axis=1)

    return PerronProblem(split=sp, schedule=HARMONIC, eta=eta, delta=delta,
                         epsilon=6 * a * delta, horizon=horizon)


def cubic_gd_problem():
    """The same saddle from the objective: gd's own step drives the raw dynamics."""
    prob, _ = remainder_from_objective(obj_mod.cubic_perturbed_saddle(0.1), np.zeros(2),
                                       HARMONIC, horizon=4000)
    return prob


def rotated_saddle_gd_problem():
    """A 3-d saddle with a dense eigenbasis, a one-dimensional unstable block
    and gd's own step as its raw dynamics.

    f(x) = x^T A x / 2 + 0.1 x0^2 x2 + 0.05 x1 x2^2, where A = R diag(1, 0.5, -1) R
    and R is the reflection across (1, 2, 2)^perp.  Its epsilon is sampled.
    """
    v = np.array([1.0, 2.0, 2.0])
    R = np.eye(3) - 2.0 / 9.0 * np.outer(v, v)
    A = R @ np.diag([1.0, 0.5, -1.0]) @ R

    def _grad(x):
        x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
        g = x @ A
        g[..., 0] += 0.2 * x0 * x2
        g[..., 1] += 0.05 * x2 * x2
        g[..., 2] += 0.1 * x0 * x0 + 0.1 * x1 * x2
        return g

    def _hess(x):
        x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
        h = np.broadcast_to(A, x.shape[:-1] + (3, 3)).copy()
        h[..., 0, 0] += 0.2 * x2
        h[..., 0, 2] += 0.2 * x0
        h[..., 2, 0] += 0.2 * x0
        h[..., 1, 2] += 0.1 * x2
        h[..., 2, 1] += 0.1 * x2
        h[..., 2, 2] += 0.1 * x1
        return h

    f = obj_mod.Objective(3, _grad, _hess, vectorized=True)
    prob, _ = remainder_from_objective(f, np.zeros(3), HARMONIC, horizon=4000)
    return prob


def synthetic_problem(horizon=40):
    """3-d problem (two stable directions, one unstable) with a wiggly eta."""
    sp = split(np.diag([1.0, 0.5, -1.0]))
    c = 0.02

    def eta(ks, Z):
        field = np.stack([np.sin(Z[:, 1] + Z[:, 2]), Z[:, 0] * Z[:, 2],
                          1.0 - np.cos(Z[:, 0])], axis=1)
        return alphas_at(ks)[:, None] * c * field

    return PerronProblem(split=sp, schedule=HARMONIC, eta=eta, delta=0.5,
                         epsilon=c * 3.0, horizon=horizon)


def apply_T_reference(prob, x0_plus, U):
    """Direct-sum evaluation of the operator with explicit product loops."""
    sp = prob.split
    lam = sp.eigenvalues
    al = prob.alphas
    N = prob.horizon
    E = prob.eta(np.arange(N + 1), U)
    V = np.zeros_like(np.asarray(U, dtype=float))

    def prod(lo, hi, j):  # prod_{t=lo}^{hi} (1 - al[t] lam[j]); empty -> 1
        out = 1.0
        for t in range(lo, hi + 1):
            out *= 1.0 - al[t] * lam[j]
        return out

    for idx, j in enumerate(sp.stable_indices):
        V[0, j] = x0_plus[idx]
        for k in range(N):
            acc = prod(0, k, j) * x0_plus[idx]
            for i in range(k + 1):
                acc += prod(i + 1, k, j) * E[i, j]
            V[k + 1, j] = acc
    for j in sp.unstable_indices:
        for m in range(1, N + 1):
            acc = 0.0
            for i in range(0, N - m + 1):
                acc += E[m + i, j] / prod(m, m + i, j)
            V[m, j] = -acc
        acc0 = 0.0
        for i in range(0, N):  # the horizon-edge term is dropped at entry 0
            acc0 += E[i, j] / prod(0, i, j)
        V[0, j] = -acc0
    return V


# ---------------------------------------------------------------------------
# operator algebra
# ---------------------------------------------------------------------------

def test_apply_T_matches_naive_reference_3d():
    prob = synthetic_problem(horizon=40)
    rng = np.random.default_rng(0)
    U = rng.uniform(-0.3, 0.3, size=(41, 3))
    xp = np.array([0.05, -0.03])
    V = apply_T(prob, xp, U)
    V_ref = apply_T_reference(prob, xp, U)
    np.testing.assert_allclose(V, V_ref, atol=1e-13)


def test_apply_T_matches_naive_reference_cubic():
    prob = cubic_problem(horizon=60)
    rng = np.random.default_rng(1)
    U = rng.uniform(-0.05, 0.05, size=(61, 2))
    xp = np.array([0.04])
    V = apply_T(prob, xp, U)
    V_ref = apply_T_reference(prob, xp, U)
    np.testing.assert_allclose(V, V_ref, atol=1e-14)


# problems whose running products fall below the floor of one closed-form
# run: 0.9^k and (1/1.1)^k on a constant schedule
CUT_CASES = {
    "cubic-constant-6000": (obj_mod.cubic_perturbed_saddle(0.1), sch.constant(0.1), 6000),
    "cubic-constant-20000": (obj_mod.cubic_perturbed_saddle(0.1), sch.constant(0.1), 20000),
}


@pytest.mark.parametrize("case", sorted(CUT_CASES))
def test_apply_T_matches_plain_recursion_across_runs(case):
    f, schedule, horizon = CUT_CASES[case]
    prob, _ = remainder_from_objective(f, np.zeros(f.dimension), schedule, horizon=horizon)
    assert len(prob.stable_runs) + len(prob.unstable_runs) > 2
    d, d_s = prob.dimension, len(prob.split.stable_indices)
    rng = np.random.default_rng(7)
    xp = np.full(d_s, prob.delta / (4 * np.sqrt(d_s)))
    # a sequence that does not decay along k
    U = rng.uniform(-1.0, 1.0, size=(prob.horizon + 1, d)) * prob.delta / (2 * np.sqrt(d))
    E = prob.eta(np.arange(prob.horizon + 1), U)
    np.testing.assert_allclose(apply_T(prob, xp, U), reference_scan_T(prob, xp, E),
                               rtol=0, atol=1e-15)
    # remainder rows of the certified size alpha_k * epsilon * delta, fed to
    # the scan directly.  Both blocks run the forward closed form with
    # factors in (0, 1], so each row rounds to about 2^-53 of the rows that
    # it sums, not 2^-53 times a product
    E = (rng.uniform(-1.0, 1.0, size=U.shape)
         * (prob.alphas * prob.epsilon * prob.delta)[:, None])
    np.testing.assert_allclose(lp._scan_T(prob, xp, E), reference_scan_T(prob, xp, E),
                               rtol=0, atol=1e-13 * float(np.max(np.abs(E))))


def test_default_chart_scans_in_one_run():
    prob, _ = remainder_from_objective(obj_mod.cubic_perturbed_saddle(0.1), np.zeros(2),
                                       HARMONIC)
    assert [(a, b) for a, b, _ in prob.stable_runs] == [(0, prob.horizon)]
    assert [(a, b) for a, b, _ in prob.unstable_runs] == [(0, prob.horizon + 1)]


@pytest.mark.parametrize("lam_max", [3.0, 10.0, 100.0])
def test_step_bound_rejects_alpha0_lambda_max_at_least_one(lam_max):
    # alpha_0 = 1/2, so the stable factor 1 - lambda_max / 2 at k = 0 is not
    # in (0, 1): the forward sums on that coordinate leave 1/lambda_s (they
    # reach 5.3e24 for lambda_max = 100), so neither the bound, the
    # certificate nor a hand-built problem may accept it
    H = np.diag([lam_max, 1.0, -1.0])
    with pytest.raises(CertificateError, match="lambda_max"):
        bound_K1(split(H), HARMONIC)
    with pytest.raises(CertificateError, match="lambda_max"):
        remainder_from_objective(obj_mod.quadratic(H), np.zeros(3), HARMONIC, epsilon=0.2)
    with pytest.raises(LyapunovError, match="lambda_max"):
        PerronProblem(split=split(H), schedule=HARMONIC, eta=lambda ks, Z: np.zeros_like(Z),
                      delta=0.1, epsilon=0.0, horizon=100)


def test_problem_works_out_its_own_tail_bound():
    # a hand-built problem bounds the tail its horizon drops; at N = 40 that
    # bound is far above tail_tol, and the problem says so
    prob = synthetic_problem(horizon=40)
    tb = tail_horizon(prob.split, HARMONIC, prob.epsilon, prob.delta, horizon=40)
    assert prob.horizon_capped and tb.capped
    assert prob.tail_estimate == tb.tail_estimate > 1e3 * prob.tail_tol
    assert prob.decay_rate == tb.decay_rate


@pytest.mark.parametrize("H,error,match", [
    (np.eye(2), LyapunovError, "strictly negative eigenvalue"),
    (np.diag([-1.0, -2.0]), CertificateError, "stable block is empty"),
    (np.diag([2.0, -1.0]), CertificateError, "lambda_max"),
], ids=["no-negative", "no-positive", "step-bound"])
def test_problem_rejects_a_spectrum_without_a_tail_bound(H, error, match):
    with pytest.raises(error, match=match):
        PerronProblem(split=split(H), schedule=HARMONIC, eta=lambda ks, Z: np.zeros_like(Z),
                      delta=0.1, epsilon=0.0, horizon=100)


def test_apply_T_anchors_the_stable_coordinate():
    prob = cubic_problem(horizon=50)
    U = np.zeros((51, 2))
    V = apply_T(prob, np.array([0.04]), U)
    assert V[0, 0] == 0.04
    # with u = 0 the remainder vanishes, so the image is the pure product orbit
    np.testing.assert_allclose(V[:, 1], 0.0)
    np.testing.assert_allclose(V[10, 0], 0.04 * np.prod(
        1.0 - np.asarray(HARMONIC.values(10))), rtol=1e-14)


def test_apply_T_rejects_anchor_outside_ball():
    prob = cubic_problem()
    with pytest.raises(LyapunovError):
        apply_T(prob, np.array([0.2]), np.zeros((prob.horizon + 1, 2)))


def test_apply_T_flags_first_escaping_entry():
    # an amplifying remainder (Lipschitz modulus 3 alpha_k) pushes the image
    # out of the delta-ball; the operator must name the offending entry
    sp = split(np.diag([1.0, -1.0]))
    prob = PerronProblem(split=sp, schedule=HARMONIC,
                         eta=lambda ks, Z: alphas_at(ks)[:, None] * 3.0 * Z,
                         delta=0.1, epsilon=3.0, horizon=50)
    U = np.full((51, 2), 0.09)
    with pytest.raises(LyapunovError, match="entry"):
        apply_T(prob, np.array([0.05]), U)


def test_sup_distance():
    A = np.zeros((5, 2))
    B = np.zeros((5, 2))
    B[3] = [3.0, 4.0]
    assert sup_distance(A, B) == 5.0


@pytest.mark.parametrize("shape", [(5,), (0, 2), (2, 3, 2)], ids=["1-D", "no-entries", "3-D"])
def test_sup_distance_rejects_a_pair_that_is_not_a_sequence(shape):
    # these were numpy's AxisError, a zero-size ValueError and a number
    with pytest.raises(LyapunovError, match=r"\(N\+1, d\) array"):
        sup_distance(np.zeros(shape), np.ones(shape))


def test_a_non_finite_image_is_a_named_error():
    # eta is NaN in the stable coordinate at k = 7 for every u, and the forward
    # scan carries it to entries 8..N.  The largest row norm is then NaN,
    # which "> limit" let through: the solve ran its whole budget on NaN
    calls = []
    cubic = cubic_problem(horizon=50)

    def eta(ks, Z):
        calls.append(len(ks))
        E = cubic.eta(ks, Z)
        E[ks == 7, 0] = np.nan
        return E

    prob = PerronProblem(split=cubic.split, schedule=HARMONIC, eta=eta, delta=cubic.delta,
                         epsilon=cubic.epsilon, horizon=50)
    with pytest.raises(LyapunovError, match=r"at entry 8: \|v_8\| = nan, not <="):
        apply_T(prob, np.array([0.04]), np.zeros((51, 2)))
    calls.clear()
    with pytest.raises(LyapunovError, match="at entry 8"):
        solve_stable_point(prob, np.array([0.04]))
    assert len(calls) == 1  # one application
    ch = chart(prob, [0.02])
    assert ch.partial and ch.phi == [None]
    assert [float(g[0]) for g, _ in ch.failures] == [0.02, 0.0, 1e-2, -1e-2, 1e-3, -1e-3]
    assert all("at entry 8" in msg for _, msg in ch.failures)


def nine_dim_problem():
    """A hand-built 9-d problem, eight stable coordinates and one unstable:
    from d = 8 on, the row norms run numpy's own reduce."""
    sp = split(np.diag([1.0, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65, -1.0]))
    c = 0.02

    def eta(ks, Z):
        return alphas_at(ks)[:, None] * c * (Z * np.roll(Z, 1, axis=1))

    return PerronProblem(split=sp, schedule=HARMONIC, eta=eta, delta=0.5,
                         epsilon=2 * c * 0.5, horizon=2000)


@functools.cache
def _picard_problem(name):
    if name == "cubic-chart":
        return remainder_from_objective(obj_mod.cubic_perturbed_saddle(0.1), np.zeros(2),
                                        HARMONIC)[0]
    return {"rotated-3d": rotated_saddle_gd_problem, "synthetic-3d": synthetic_problem,
            "hand-built-9d": nine_dim_problem}[name]()


def _picard_anchors(prob):
    """The default chart's anchors on a one-dimensional stable block (the
    11-point grid over [-delta/2, delta/2], 0 and the probes); otherwise 0,
    the probes and three seeded points of norm delta/4."""
    d_s = len(prob.split.stable_indices)
    probes = [s * h * e for h in (1e-2, 1e-3) for e in np.eye(d_s) for s in (1.0, -1.0)]
    if d_s == 1:
        grid = [np.array([g]) for g in np.linspace(-prob.delta / 2, prob.delta / 2, 11)]
    else:
        grid = list(np.random.default_rng(0).normal(size=(3, d_s)))
        grid = [prob.delta / 4 * g / np.linalg.norm(g) for g in grid]
    return grid + [np.zeros(d_s)] + probes


def _bits(x):
    a = np.asarray(x, dtype=float)
    return a.shape, a.tobytes()


@pytest.mark.parametrize("name", ["cubic-chart", "rotated-3d", "synthetic-3d", "hand-built-9d"])
def test_picard_solves_match_the_norm_loop_bit_for_bit(name):
    # apply_T and sup_distance sum each row's squares by columns (d < 8) or
    # by numpy's reduce; np.linalg.norm(axis=1) takes the root of that reduce
    prob = _picard_problem(name)
    iterations = []
    for x0_plus in _picard_anchors(prob):
        res = solve_stable_point(prob, x0_plus)
        ref = reference.reference_solve(prob, x0_plus, lp.DEFAULT_FP_TOL, lp.DEFAULT_FP_BUDGET)
        assert res.iterations == ref.iterations
        for field in ("x0_minus", "residual", "history", "sequence"):
            assert _bits(getattr(res, field)) == _bits(getattr(ref, field)), field
        iterations.append(res.iterations)
    assert max(iterations) >= 4


def rotated_saddle(eigenvalues, cubic):
    """f = sum_i lambda_i y_i^2 / 2 + cubic * y_0^2 y_{d-1} in the coordinates
    y = x R of a seeded dense rotation R, a saddle whose frame is dense; with
    cubic = 0 it is the rotated quadratic, built by ``quadratic``.  Its
    gradient takes products with whole matrices only, which round the same
    for either layout of its points."""
    d, ev = len(eigenvalues), np.asarray(eigenvalues, dtype=float)
    R = np.linalg.qr(np.random.default_rng(d).normal(size=(d, d)))[0]
    if not cubic:
        return obj_mod.quadratic(R @ np.diag(ev) @ R.T)

    def _grad(x):
        y = x @ R
        g = y * ev
        g[..., 0] += 2.0 * cubic * y[..., 0] * y[..., -1]
        g[..., -1] += cubic * y[..., 0] ** 2
        return g @ R.T

    def _hess(x):
        y = x @ R
        h = np.broadcast_to(np.diag(ev), x.shape[:-1] + (d, d)).copy()
        h[..., 0, 0] += 2.0 * cubic * y[..., -1]
        h[..., 0, -1] += 2.0 * cubic * y[..., 0]
        h[..., -1, 0] += 2.0 * cubic * y[..., 0]
        return R @ h @ R.T

    return obj_mod.Objective(d, _grad, _hess, vectorized=True)


@pytest.mark.parametrize("eigenvalues,cubic", [
    ((1.0, -1.0), 0.0), ((1.0, -1.0), 0.1), ((1.0, 0.8, -0.9, -1.1), 0.1),
], ids=["rotated-quadratic", "rotated-cubic", "rotated-4d"])
def test_picard_layout_keeps_the_bits(eigenvalues, cubic):
    # sequences are column-major and the frame products run on contiguous
    # operands; neither the layout of an input nor that of the products
    # moves a bit, from two rows on (OpenBLAS's kernels)
    f = rotated_saddle(eigenvalues, cubic)
    x_star = np.zeros(f.dimension)
    prob, _ = remainder_from_objective(f, x_star, HARMONIC, epsilon=0.05)
    assert np.all(np.abs(prob.split.Q) > 1e-3)  # a dense frame
    n, d_s = prob.horizon + 1, len(prob.split.stable_indices)
    ks = np.arange(n)
    U = np.random.default_rng(5).uniform(-1.0, 1.0, size=(n, f.dimension)) * prob.delta / 4
    for m in (2, 3, 17, n):
        ref = reference_eta(f, x_star, prob.split, prob.alphas, ks[:m], U[:m])
        for Z in (U[:m], np.asfortranarray(U[:m])):
            assert _bits(prob.eta(ks[:m], Z)) == _bits(ref)

    xp = np.full(d_s, prob.delta / (4 * np.sqrt(d_s)))
    V = apply_T(prob, xp, U)
    assert V.flags.f_contiguous
    assert _bits(apply_T(prob, xp, np.asfortranarray(U))) == _bits(V)
    E = prob.eta(ks, U)
    assert _bits(lp._scan_T(prob, xp, np.ascontiguousarray(E))) == _bits(lp._scan_T(prob, xp, E))

    # the same solve on the row-major eta, which reads and returns row-major arrays
    def row_major_eta(ks, Z):
        return reference_eta(f, x_star, prob.split, prob.alphas, ks, np.ascontiguousarray(Z))

    row_major = PerronProblem(split=prob.split, schedule=HARMONIC, eta=row_major_eta,
                              delta=prob.delta, epsilon=prob.epsilon, horizon=prob.horizon)
    res, ref = solve_stable_point(prob, xp), solve_stable_point(row_major, xp)
    assert res.sequence.flags.f_contiguous
    if cubic:  # the rotated quadratic's remainder is (near) zero, and its solve short
        assert np.any(E != 0.0) and res.iterations >= 4
    for field in ("x0_minus", "residual", "history", "sequence"):
        assert _bits(getattr(res, field)) == _bits(getattr(ref, field)), field


# ---------------------------------------------------------------------------
# contraction bounds
# ---------------------------------------------------------------------------

def test_bound_K1_harmonic_recursion_value():
    # S_k = (k+1)/(k+2) for alpha = 1/(k+2), lambda = 1: the recursion climbs
    # towards its supremum 1/lambda = 1, which bound_K1 returns exactly
    sp = split(np.diag([1.0, -1.0]))
    k1 = bound_K1(sp, HARMONIC)
    assert k1 == 1.0
    alphas = HARMONIC.values(10_001)
    s = alphas[0]
    for a in alphas[1:]:
        s = (1.0 - a) * s + a
    assert s == pytest.approx(10_001.0 / 10_002.0, rel=1e-12)
    assert s < k1


@pytest.mark.parametrize("lam,alphas,schedule", [
    (Fraction(1), [power_alpha(t) for t in range(300)], HARMONIC),
    (Fraction(1, 2), [power_alpha(t) for t in range(300)], HARMONIC),
    (Fraction(2), [power_alpha(t, offset=4) for t in range(300)], sch.power(1.0, 1.0, 4)),
    (Fraction(1), [power_alpha(t, p=2) for t in range(300)], sch.power(1.0, 2.0, 2)),
    (Fraction(1), [Fraction(1, 2)] * 300, sch.constant(0.5)),
], ids=["harmonic", "harmonic-lam-half", "harmonic-offset4-lam2", "summable-p2", "constant-half"])
def test_bound_K1_dominates_exact_recursion(lam, alphas, schedule):
    # every exact prefix value S_k stays below the closed form 1/lambda
    k1 = bound_K1(split(np.diag([float(lam), -1.0])), schedule)
    assert k1 == 1.0 / float(lam)
    prefix = k1_recursion(lam, alphas)
    assert max(prefix) < Fraction(k1)
    assert prefix == sorted(prefix)


@pytest.mark.parametrize("lams,alphas,schedule", [
    ((Fraction(1), Fraction(1, 2)), [power_alpha(t) for t in range(300)], HARMONIC),
    ((Fraction(3, 2), Fraction(1), Fraction(1, 4)), [Fraction(1, 2)] * 300, sch.constant(0.5)),
], ids=["harmonic", "constant-half"])
def test_bound_K1_bounds_every_stable_coordinate(lams, alphas, schedule):
    # under alpha_0 * lambda_max < 1 every stable coordinate's exact forward
    # sums stay below 1/lambda_i <= 1/lambda_s = bound_K1
    k1 = bound_K1(split(np.diag([float(lam) for lam in lams] + [-1.0])), schedule)
    assert k1 == 1.0 / float(min(lams))
    for lam in lams:
        assert max(k1_recursion(lam, alphas)) <= Fraction(k1)


def test_bound_K1_constant_half():
    sp = split(np.diag([1.0, -1.0]))
    k1 = bound_K1(sp, sch.constant(0.5))
    assert k1 == pytest.approx(1.0, rel=1e-12)
    assert k1 <= 2.0  # the certified cap 2/lambda


def test_bound_K1_rejects_overlong_first_step():
    sp = split(np.diag([2.0, -2.0]))
    with pytest.raises(CertificateError):
        bound_K1(sp, HARMONIC)  # alpha_0 * 2 = 1


def test_bound_K2_constant_exact_one():
    # alpha = 1/2, lambda = -1: R = sum_i (3/2)^{-i} ... = 1 exactly
    sp = split(np.diag([1.0, -1.0]))
    k2 = bound_K2(sp, sch.constant(0.5))
    assert k2 == 1.0


@pytest.mark.parametrize("alpha,lam", [(Fraction(1, 2), Fraction(1)),
                                       (Fraction(1, 4), Fraction(2)),
                                       (Fraction(1, 10), Fraction(1, 2))])
def test_bound_K2_matches_exact_constant_series(alpha, lam):
    sp = split(np.diag([1.0, -float(lam)]))
    assert bound_K2(sp, sch.constant(float(alpha))) == float(k2_exact_constant(alpha, lam))


def test_bound_K2_harmonic_telescopes_to_one():
    # for alpha = 1/(k+2), lambda = -1 every R_k telescopes to exactly 1
    sp = split(np.diag([1.0, -1.0]))
    k2 = bound_K2(sp, HARMONIC)
    assert k2 == 1.0
    for k in (-1, 0, 4):
        partials = [k2_partial_power_harmonic(k, n) for n in (1, 10, 1000)]
        assert all(p < Fraction(k2) for p in partials)
        assert partials[-1] > Fraction(99, 100)  # the bound is the supremum


def test_bound_K2_rejects_zero_eigenvalue():
    sp = split(np.diag([1.0, 0.0, -1.0]))
    with pytest.raises(CertificateError):
        bound_K2(sp, HARMONIC)


def test_bound_K2_empty_unstable_block_is_zero():
    sp = split(np.eye(2))
    assert bound_K2(sp, HARMONIC) == 0.0


def test_contraction_constant_composition():
    prob = cubic_problem(a=0.1, delta=0.1)
    cert = lp._certify(prob.split, prob.schedule, prob.epsilon)
    assert cert.k1 == 1.0
    assert cert.k2 == 1.0
    expect = 1.0 - 0.5 * 1.0 + 0.06 * (cert.k1 + cert.k2)
    assert cert.k == pytest.approx(expect, rel=1e-12)
    assert cert.valid
    assert cert.epsilon_star == pytest.approx(0.5 / (cert.k1 + cert.k2), rel=1e-12)


def test_contraction_constant_zero_epsilon_skips_backward_bound():
    sp = split(np.diag([1.0, -1.0]))
    prob = PerronProblem(split=sp, schedule=HARMONIC,
                         eta=lambda ks, Z: np.zeros_like(Z), delta=0.1,
                         epsilon=0.0, horizon=100)
    cert = lp._certify(prob.split, prob.schedule, prob.epsilon)
    assert cert.k2 == 0.0
    assert cert.k == pytest.approx(0.5)
    assert cert.valid


@pytest.mark.parametrize("H,schedule", [
    (np.diag([2.0, -2.0]), sch.power(1.0, 1.0, 3)),
    (np.diag([1.0, 0.5, -1.0, -3.0]), HARMONIC),
], ids=["quadratic-offset3", "two-stable-two-unstable"])
@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_epsilon_star_is_the_certifying_threshold(H, schedule, eps):
    # epsilon_star is where K crosses 1, also from a certificate at eps = 0,
    # whose K2 = 0 drops the backward sums that any eps > 0 brings back
    sp = split(H)
    star = lp._certify(sp, schedule, eps).epsilon_star
    assert lp._certify(sp, schedule, 0.99 * star).valid
    assert not lp._certify(sp, schedule, 1.01 * star).valid
    if H.shape == (2, 2):  # alpha_0 = 1/3, lambda_s = mu = 2
        assert star == pytest.approx(2.0 / 3.0, rel=1e-15)


ZERO_IN_UNSTABLE = np.diag([1.0, 0.0, -1.0])


def test_zero_eigenvalue_is_certified_at_epsilon_zero_only():
    # the zero eigenvalue sits in the split's unstable block: its backward
    # sums carry epsilon, so epsilon = 0 is certified and no epsilon > 0 is
    obj = obj_mod.quadratic(ZERO_IN_UNSTABLE)
    prob, cert = remainder_from_objective(obj, np.zeros(3), HARMONIC)
    assert (cert.valid, cert.k, cert.k2) == (True, 0.5, 0.0)
    assert cert.epsilon_star == 0.0 and cert.lambda_unstable == 0.0
    assert math.copysign(1.0, cert.lambda_unstable) == 1.0  # 0.0, not -0.0
    assert prob.horizon == 1024
    sp = split(ZERO_IN_UNSTABLE)
    for eps in (0.1, 1e-12):
        with pytest.raises(CertificateError, match="zero eigenvalue in the unstable block"):
            remainder_from_objective(obj, np.zeros(3), HARMONIC, epsilon=eps)
        with pytest.raises(CertificateError, match="zero eigenvalue in the unstable block"):
            lp._certify(sp, HARMONIC, eps)
    with pytest.raises(CertificateError, match="zero eigenvalue in the unstable block"):
        PerronProblem(split=sp, schedule=HARMONIC, eta=lambda ks, Z: np.zeros_like(Z),
                      delta=0.1, epsilon=0.1, horizon=100)


def test_a_lone_zero_eigenvalue_charts_at_epsilon_zero():
    # diag(1, 0): the unstable block is the zero eigenvalue alone
    prob, cert = remainder_from_objective(obj_mod.quadratic(np.diag([1.0, 0.0])),
                                          np.zeros(2), HARMONIC)
    assert (cert.valid, cert.k, cert.lambda_unstable, prob.horizon) == (True, 0.5, 0.0, 1024)
    ch = chart(prob, np.linspace(-0.05, 0.05, 5))
    assert not ch.partial and ch.tangency_ok
    assert all(float(p[0]) == 0.0 for p in ch.phi) and ch.phi_zero_norm == 0.0


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def test_picard_converges_and_is_self_consistent():
    prob = cubic_problem(horizon=4000)
    res = solve_stable_point(prob, np.array([0.04]), fp_tol=1e-11)
    assert res.residual <= 1e-11
    assert res.iterations < 30
    # residual history contracts
    hist = res.history
    for a, b in zip(hist, hist[1:]):
        assert b <= a * 0.7 + 1e-15
    assert self_consistency_error(prob, res.sequence) <= 1e-10


def test_picard_zero_remainder_gives_zero_unstable_part():
    sp = split(np.diag([1.0, -1.0]))
    prob = PerronProblem(split=sp, schedule=HARMONIC,
                         eta=lambda ks, Z: np.zeros_like(Z), delta=0.1,
                         epsilon=0.0, horizon=500)
    res = solve_stable_point(prob, np.array([0.05]))
    np.testing.assert_allclose(res.x0_minus, [0.0])
    np.testing.assert_allclose(res.sequence[:, 1], 0.0)


def test_picard_budget_error():
    prob = cubic_problem(horizon=500)
    with pytest.raises(LyapunovError):
        solve_stable_point(prob, np.array([0.04]), fp_tol=1e-30, fp_budget=2)


def test_a_budget_below_one_is_a_named_error():
    prob = cubic_problem(horizon=50)
    for budget in (0, -3):
        with pytest.raises(LyapunovError, match="fp_budget"):
            solve_stable_point(prob, np.array([0.04]), fp_budget=budget)
        with pytest.raises(LyapunovError, match="fp_budget"):  # once, not per anchor
            chart(prob, [0.0, 0.02], fp_budget=budget)


def test_validate_accepts_cubic_remainder():
    prob = cubic_problem()
    validate_remainder(prob)  # should not raise


def test_validate_rejects_nonvanishing_remainder():
    sp = split(np.diag([1.0, -1.0]))
    prob = PerronProblem(split=sp, schedule=HARMONIC,
                         eta=lambda ks, Z: np.tile([1e-3, 0.0], (len(Z), 1)), delta=0.1,
                         epsilon=0.06, horizon=100)
    with pytest.raises(LyapunovError):
        validate_remainder(prob)


# ---------------------------------------------------------------------------
# raw dynamics, shooting, chart
# ---------------------------------------------------------------------------

def test_iterate_raw_escapes_off_manifold():
    prob = cubic_gd_problem()
    res = solve_stable_point(prob, np.array([0.04]))
    for beta in (1e-3, -1e-3, 1e-2, -1e-2):
        x0 = np.array([0.04, res.x0_minus[0] + beta])
        _, exit_step = iterate_raw(prob, x0, 4000, stop_radius=prob.delta)
        assert exit_step is not None


def test_iterate_raw_on_manifold_stays_bounded():
    prob = cubic_gd_problem()
    res = solve_stable_point(prob, np.array([0.04]), fp_tol=1e-12)
    x0 = np.array([0.04, res.x0_minus[0]])
    traj, exit_step = iterate_raw(prob, x0, 4000, stop_radius=prob.delta)
    assert exit_step is None
    assert np.linalg.norm(traj[-1]) < prob.delta


def test_iterate_raw_matches_plain_loop():
    # iterate_raw is the one-row case of the lockstep loop shooting uses, on
    # gd's own step; its bits and exit step are those of plain one-point gd.
    # Here x* = 0 and Q = I, so the loop starts at z0 itself;
    # test_raw_dynamics_step_the_methods_own_iterate has x* != 0 and a dense Q
    prob = cubic_gd_problem()
    step = methods.make_step("gd", obj_mod.cubic_perturbed_saddle(0.1), HARMONIC)
    exits = []
    for z0, radius in (([0.04, 0.0], 0.1), ([0.05, 0.01], 0.1), ([0.0, -0.02], 0.1),
                       ([0.04, 1e-3], 0.1), ([0.04, 0.0], None)):
        traj, exit_step = iterate_raw(prob, np.array(z0), 3000, stop_radius=radius)
        x = np.array(z0)
        want, want_exit = [x], None
        for k in range(3000):
            x = step(k, x)
            want.append(x)
            if radius is not None and np.linalg.norm(x) > radius:
                want_exit = k + 1
                break
        assert exit_step == want_exit
        assert traj.tobytes() == np.array(want).tobytes()
        exits.append(exit_step)
    assert None in exits and any(e is not None for e in exits)


@pytest.mark.parametrize("angle", [0.0, 0.3], ids=["diagonal", "rotated"])
def test_raw_dynamics_step_the_methods_own_iterate(angle):
    # the cubic saddle moved to c (and turned by angle, for a dense frame Q):
    # iterate_raw is plain one-point gd from x* + z0 Q_inv^T, bit for bit,
    # mapped back by (x - x*) Q^T, and it exits at the first k with
    # ||x_k - x*|| > r
    c = np.array([0.3, -0.2])
    R = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    base = obj_mod.cubic_perturbed_saddle(0.1)
    f = obj_mod.Objective(2, lambda X: base._grad((X - c) @ R.T) @ R,
                          lambda X: R.T @ base._hess((X - c) @ R.T) @ R, vectorized=True)
    prob, _ = remainder_from_objective(f, c, HARMONIC, horizon=4000)
    assert prob.x_star.tolist() == c.tolist()
    Q, Q_inv = prob.split.Q, prob.split.Q_inv
    step = methods.make_step("gd", f, HARMONIC)
    exits = []
    for z0, radius in (([0.04, 0.0], 0.1), ([0.05, 0.01], 0.1), ([0.0, -0.02], 0.1),
                       ([0.04, 1e-3], 0.1), ([0.04, 0.0], None)):
        traj, exit_step = iterate_raw(prob, np.array(z0), 3000, stop_radius=radius)
        x = (c + np.array([z0]) @ Q_inv.T)[0]
        want, want_exit = [x], None
        for k in range(3000):
            x = step(k, x)
            want.append(x)
            if radius is not None and np.linalg.norm(x - c) > radius:
                want_exit = k + 1
                break
        assert exit_step == want_exit
        assert traj.tobytes() == ((np.array(want) - c) @ Q.T).tobytes()
        exits.append(exit_step)
    assert None in exits and any(e is not None for e in exits)


def test_raw_dynamics_need_the_methods_own_step():
    # a hand-built problem has a remainder but no method to step
    prob = cubic_problem()
    with pytest.raises(LyapunovError, match="no raw dynamics"):
        iterate_raw(prob, np.array([0.04, 0.0]), 10)
    with pytest.raises(LyapunovError, match="no raw dynamics"):
        shooting_oracle(prob, np.array([0.04]), bracket=0.1, steps=10)


def test_raw_dynamics_need_x_star_with_the_step():
    # the raw dynamics step x and stop on ||x - x*||: the two fields go together
    with pytest.raises(LyapunovError, match="set together"):
        dataclasses.replace(cubic_gd_problem(), x_star=None)
    with pytest.raises(LyapunovError, match="set together"):
        dataclasses.replace(cubic_problem(), x_star=np.zeros(2))


@pytest.mark.parametrize("stop_radius", [np.nan, 0.0, -0.1])
def test_iterate_raw_rejects_bad_radius(stop_radius):
    with pytest.raises(LyapunovError, match="positive radius"):
        iterate_raw(cubic_gd_problem(), np.array([0.04, 0.05]), 100, stop_radius=stop_radius)


def test_iterate_raw_rejects_negative_steps():
    with pytest.raises(LyapunovError, match="steps >= 0"):
        iterate_raw(cubic_gd_problem(), np.array([0.04, 0.05]), -1)


def test_raw_dynamics_reject_steps_past_int64():
    # the lockstep loop counts k in int64; a larger horizon is a bad argument
    prob = cubic_gd_problem()
    with pytest.raises(LyapunovError, match=r"steps < 2\^63"):
        iterate_raw(prob, np.array([0.04, 0.05]), 1 << 63)
    with pytest.raises(LyapunovError, match=r"steps < 2\^63"):
        shooting_oracle(prob, np.array([0.04]), bracket=0.1, steps=1 << 63)


@pytest.mark.parametrize("z0", [[np.nan, 0.0], [1e200, 1e200]], ids=["nan", "overflow"])
def test_iterate_raw_non_finite_iterate_is_an_error(z0):
    # gd's step error ends the run as a LyapunovError with its message; it
    # used to count as staying inside
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(LyapunovError, match="failed: non-finite gradient"):
            iterate_raw(cubic_gd_problem(), np.array(z0), 100)


def test_iterate_raw_overflow_fails_at_its_own_step():
    # with no stop_radius a step that overflows fails at its own k, not one
    # step later from the row of infinities
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(LyapunovError, match=r"gradient at k=0, x=\[1.e\+200 1.e\+200\]"):
            iterate_raw(cubic_gd_problem(), np.array([1e200, 1e200]), 100)


def test_shooting_agrees_with_picard():
    prob = cubic_gd_problem()
    xp = np.array([0.04])
    got = shooting_oracle(prob, xp, bracket=prob.delta, steps=3000, width=1e-6)
    want = solve_stable_point(prob, xp).x0_minus
    # the shot lands on the lower edge of the not-yet-escaped zone, whose
    # halfwidth is about 2*delta/steps
    assert abs(got[0] - want[0]) < 2e-4


def test_shooting_bits_are_pinned():
    # the raw dynamics step gd in lockstep; a faster stepper must leave
    # every bit of the shot where it was
    prob = cubic_gd_problem()
    got = shooting_oracle(prob, [0.04], bracket=prob.delta, steps=3000, width=1e-6)
    assert got.tolist() == [-3.337860107421878e-06]


def test_shooting_error_taxonomy():
    prob = cubic_gd_problem()
    with pytest.raises(LyapunovError, match="bracket is too small"):
        shooting_oracle(prob, np.array([0.0]), bracket=1e-9, steps=50)
    with pytest.raises(LyapunovError, match="same side"):
        # phi(0.04) ~ 6e-5 sits above the bracket, so both endpoints exit
        # downward
        shooting_oracle(prob, np.array([0.04]), bracket=1e-5, steps=6000)


@pytest.mark.parametrize("steps", [100.5, 50.0, np.float64(50.0), np.nan, True, np.True_, "50"],
                         ids=["fraction", "float", "np-float", "nan", "bool", "np-bool", "str"])
def test_raw_dynamics_reject_a_step_count_that_is_not_an_integer(steps):
    # a float step count used to run a count nobody asked for (100.5 gave
    # 103 rows, 102 steps), a bool ran as 0 or 1 and NaN warned in a cast
    prob = cubic_gd_problem()
    with pytest.raises(LyapunovError, match="integer number of steps"):
        iterate_raw(prob, np.array([0.04, 0.05]), steps)
    with pytest.raises(LyapunovError, match="integer number of steps"):
        shooting_oracle(prob, np.array([0.04]), bracket=0.1, steps=steps)


def test_raw_dynamics_take_numpy_integer_step_counts():
    prob = cubic_gd_problem()
    want = iterate_raw(prob, np.array([0.04, 1e-3]), 100, stop_radius=0.1)
    for steps in (np.int64(100), np.int32(100), np.uint16(100)):
        traj, exit_step = iterate_raw(prob, np.array([0.04, 1e-3]), steps, stop_radius=0.1)
        assert exit_step == want[1] and traj.tobytes() == want[0].tobytes()
    assert shooting_oracle(prob, [0.04], bracket=0.1, steps=np.int64(1000), width=1e-3) \
        .tobytes() == shooting_oracle(prob, [0.04], bracket=0.1, steps=1000, width=1e-3).tobytes()


@pytest.mark.parametrize("bracket", [np.inf, -np.inf, 1e308, -1e308, np.nan, 0.0, -0.0],
                         ids=["inf", "-inf", "1e308", "-1e308", "nan", "zero", "-zero"])
def test_shooting_rejects_a_bad_bracket_before_any_step(bracket, monkeypatch):
    # these used to warn in a product (inf), overflow in linspace (1e308),
    # fail in the dynamics (nan) or call a zero bracket too small
    def no_step(*args, **kwargs):
        raise AssertionError("stepped before the bracket was checked")

    prob = cubic_gd_problem()
    monkeypatch.setattr(lp, "_raw_run", no_step)
    with pytest.raises(LyapunovError, match="bracket must be nonzero, finite"):
        shooting_oracle(prob, np.array([0.04]), bracket=bracket, steps=100)


def test_shooting_negative_bracket_means_its_absolute_value():
    prob = cubic_gd_problem()
    for bracket in (prob.delta, 0.5 * np.finfo(float).max):
        want = shooting_oracle(prob, [0.04], bracket=bracket, steps=1000, width=1e-3)
        got = shooting_oracle(prob, [0.04], bracket=-bracket, steps=1000, width=1e-3)
        assert got.tobytes() == want.tobytes()


def _shoot_outcome(shoot, prob, anchor, bracket, steps, width):
    """The shot's bits, or the error's type and message."""
    try:
        return "shot", shoot(prob, anchor, bracket, steps, width).tobytes()
    except LyapunovError as err:
        return type(err).__name__, str(err)


@functools.cache
def _shoot_problem(name):
    """Each problem built once: the cubic saddle or the rotated 3-d one."""
    return cubic_gd_problem() if name == "cubic" else rotated_saddle_gd_problem()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_shooting_look_ahead_matches_one_round_per_call(seed):
    # the look-ahead only saves calls: at every anchor in [-delta, delta],
    # horizon, width and bracket the shot has the bits, and an error the
    # type and message, of one call per round.  At 1e160 delta the rotated
    # problem's gradient overflows at the bracket ends: the step fails, with
    # no warning.  The examples are derandomized, so every run checks the
    # same 30
    rng = np.random.default_rng(seed)
    prob = _shoot_problem(rng.choice(["cubic", "rotated"]))
    xp = rng.uniform(-prob.delta, prob.delta, len(prob.split.stable_indices))
    steps = int(rng.choice([1, 50, 1000, 3000]))
    width = float(rng.choice([1e-3, 1e-7, 1e-300]))
    bracket = prob.delta * float(rng.choice([1.0, -1.0, 1e-4, 5.0, 1e150, 1e160]))
    with np.errstate(over="ignore", invalid="ignore"):
        got = _shoot_outcome(shooting_oracle, prob, xp, bracket, steps, width)
        want = _shoot_outcome(reference_shoot, prob, xp, bracket, steps, width)
    assert got == want


def _recording(rows):
    """``_raw_run`` that first appends the unstable coordinate of its rows
    (column 1 on the cubic saddle) to ``rows``."""
    run = lp._raw_run

    def recorded(prob, Z0, *args):
        rows.append(Z0[:, 1].copy())
        return run(prob, Z0, *args)

    return recorded


def _cubic_failing_at(start):
    """cubic_gd_problem's saddle, but a row whose step starts at exactly
    ``start`` fails there (NaN gradient): only that one start fails, at k = 0,
    since every later iterate has another stable coordinate."""
    cubic = obj_mod.cubic_perturbed_saddle(0.1)

    def grad(x):
        g = cubic._grad(x)
        g[(x == start).all(axis=-1)] = np.nan
        return g

    f = obj_mod.Objective(2, grad, cubic._hess, vectorized=True)
    prob, _ = remainder_from_objective(f, np.zeros(2), HARMONIC, horizon=4000)
    return prob


def test_shooting_raises_a_look_ahead_failure_only_where_a_round_reads_it(monkeypatch):
    # a look-ahead row's failed step is the next round's failure when the
    # round keeps that cell (a hit), and nobody's when it does not (a miss):
    # one call per round never steps a missed cell.  At x0+ = 0.04, 1000
    # steps and width 1e-7 the refinement looks ahead twice, a hit and a
    # miss (the Hessian diag(1, -1) is diagonal, so z = x)
    prob, xp, args = cubic_gd_problem(), 0.04, (1000, 1e-7)
    rows, ref_rows = [], []
    monkeypatch.setattr(lp, "_raw_run", _recording(rows))
    monkeypatch.setattr(reference, "_raw_run", _recording(ref_rows))
    shot = shooting_oracle(prob, [xp], prob.delta, *args)
    assert reference_shoot(prob, [xp], prob.delta, *args).tobytes() == shot.tobytes()
    monkeypatch.undo()
    stepped = {c for r in ref_rows for c in r.tolist()}
    ahead = [r[31:] for r in rows if len(r) == 62]
    hits = [r for r in ahead if stepped.issuperset(r.tolist())]
    misses = [r for r in ahead if not stepped.intersection(r.tolist())]
    assert len(hits) == len(misses) == 1
    failing = _cubic_failing_at(np.array([xp, misses[0][15]]))
    assert shooting_oracle(failing, [xp], failing.delta, *args).tobytes() == shot.tobytes()
    assert reference_shoot(failing, [xp], failing.delta, *args).tobytes() == shot.tobytes()
    failing = _cubic_failing_at(np.array([xp, hits[0][15]]))
    with pytest.raises(LyapunovError, match="failed: non-finite gradient at k=0") as got:
        shooting_oracle(failing, [xp], failing.delta, *args)
    with pytest.raises(LyapunovError) as want:
        reference_shoot(failing, [xp], failing.delta, *args)
    assert str(got.value) == str(want.value)


def test_shooting_look_ahead_saves_calls_at_c08(monkeypatch):
    # C08's configuration: 11 anchors, 8000 steps, width 1e-7.  One call per
    # round makes 66 lockstep calls, 6 per anchor (the bracket ends, then 5
    # rounds: 2 delta / 32^4 > 1e-7 > 2 delta / 32^5).  A call that looks
    # ahead steps 62 rows; a round it predicted takes no call (a hit), and a
    # look-ahead the round does not keep is dropped (a miss)
    calls = []
    prob, _ = remainder_from_objective(obj_mod.cubic_perturbed_saddle(0.1), np.zeros(2),
                                       sch.power(1.0, 1.0, 2))
    monkeypatch.setattr(lp, "_raw_run", _recording(calls))
    anchors = np.linspace(-0.05, 0.05, 11)
    for g in anchors:
        shooting_oracle(prob, [g], bracket=prob.delta, steps=8000, width=1e-7)
    rows = [len(c) for c in calls]
    rounds = 5 * len(anchors)
    assert rows.count(2) == len(anchors)
    assert len(rows) <= 48
    hits = rounds - (len(rows) - len(anchors))
    misses = rows.count(62) - hits
    assert hits > 0 and misses > 0


@pytest.mark.parametrize("width", [-1.0, 0.0, np.nan])
def test_shooting_rejects_bad_width(width):
    with pytest.raises(LyapunovError, match="width must be positive"):
        shooting_oracle(cubic_gd_problem(), np.array([0.04]), bracket=0.1, steps=100,
                        width=width)


def test_shooting_tiny_width_stops_at_adjacent_doubles():
    # no round can split a bracket of two adjacent doubles, so refinement
    # ends there instead of looping
    prob = cubic_gd_problem()
    xp = np.array([0.04])
    tiny = shooting_oracle(prob, xp, bracket=prob.delta, steps=1000, width=1e-300)
    coarse = shooting_oracle(prob, xp, bracket=prob.delta, steps=1000, width=1e-7)
    assert np.isfinite(tiny[0])
    assert abs(tiny[0] - coarse[0]) <= 1e-7


def test_chart_even_symmetry_and_tangency():
    prob = cubic_problem(horizon=4000)
    grid = np.linspace(-0.04, 0.04, 5)
    ch = chart(prob, grid)
    assert not ch.partial
    assert ch.phi_zero_norm == pytest.approx(0.0, abs=1e-12)
    # eta is even in the stable coordinate, so phi(-s) = phi(s)
    np.testing.assert_allclose(ch.phi[0], ch.phi[-1], rtol=1e-8)
    assert ch.tangency_ok
    assert ch.continuity_ok
    assert max(ch.residuals) <= 1e-10


def test_chart_partial_failure_is_reported():
    prob = cubic_problem(horizon=500)
    ch = chart(prob, [0.0, 0.02], fp_tol=1e-30, fp_budget=1)
    assert ch.partial
    # the zero anchors converge trivially; the 0.02 sample and every tangency
    # probe cannot meet fp_tol in one application, and each is listed
    assert ch.phi[0] is not None
    assert ch.phi[1] is None
    assert [float(g[0]) for g, _ in ch.failures] == [0.02, 1e-2, -1e-2, 1e-3, -1e-3]
    assert all("did not reach fp_tol" in msg for _, msg in ch.failures)
    assert ch.phi_zero_norm == 0.0
    assert ch.dphi_norms == {}
    assert not ch.tangency_ok


def test_chart_in_two_stable_dimensions_takes_central_differences():
    # d_s = 2: column i of Dphi(0) is (phi(h e_i) - phi(-h e_i)) / 2h, from
    # the same solves as direct solve_stable_point calls
    prob = synthetic_problem(horizon=40)
    grid = [np.array([0.1, -0.05]), np.zeros(2), np.array([-0.1, 0.2])]
    ch = chart(prob, grid)
    assert not ch.partial and ch.tangency_ok
    for g, p in zip(grid, ch.phi):
        np.testing.assert_array_equal(p, solve_stable_point(prob, g).x0_minus)
    assert set(ch.dphi_norms) == {1e-2, 1e-3}
    for h, norm in ch.dphi_norms.items():
        cols = [(solve_stable_point(prob, h * e).x0_minus
                 - solve_stable_point(prob, -h * e).x0_minus) / (2.0 * h) for e in np.eye(2)]
        assert norm == float(np.linalg.norm(np.stack(cols, axis=1), 2))


def test_chart_rejects_grid_outside_radius():
    prob = cubic_problem()
    with pytest.raises(LyapunovError):
        chart(prob, [prob.delta * 0.9])  # beyond the default delta/2 margin


# ---------------------------------------------------------------------------
# remainder extraction
# ---------------------------------------------------------------------------

def test_remainder_quadratic_has_zero_epsilon():
    f = obj_mod.quadratic(np.diag([1.0, -1.0]))
    prob, cert = remainder_from_objective(f, np.zeros(2), HARMONIC)
    assert prob.epsilon == 0.0
    assert cert.k2 == 0.0
    assert cert.valid
    assert cert.k == pytest.approx(0.5)


def test_remainder_cubic_constant_schedule_certifies_by_halving():
    f = obj_mod.cubic_perturbed_saddle(0.1)
    s = sch.constant(0.1)
    prob, cert = remainder_from_objective(f, np.zeros(2), s)
    # constant alpha with |lambda| = 1 gives K1 -> 1 and K2 = 1 exactly
    # (alpha * sum (1+alpha)^-i = 1); delta0 = 0.1 fails K < 1 by a hair
    # (0.9 + 0.06*2 > 1), so exactly one halving is needed
    assert cert.k2 == 1.0
    assert cert.valid
    assert prob.delta == pytest.approx(0.05)
    assert prob.epsilon == pytest.approx(0.6 * prob.delta, rel=1e-12)
    assert cert.k == pytest.approx(0.9 + 0.03 * (cert.k1 + cert.k2), rel=1e-9)
    validate_remainder(prob)


def test_remainder_explicit_epsilon_can_return_invalid():
    f = obj_mod.cubic_perturbed_saddle(0.1)
    prob, cert = remainder_from_objective(f, np.zeros(2), sch.constant(0.1),
                                          epsilon=0.5)
    assert not cert.valid
    assert cert.k >= 1.0
    assert 0 < cert.epsilon_star < 0.5
    assert prob.epsilon == 0.5


def test_remainder_without_halvings_raises_when_uncertified():
    # cubic a = 1 under constant(0.5): K = 0.5 + 0.6 * (1 + 1) at delta0 = 0.1
    f = obj_mod.cubic_perturbed_saddle(1.0)
    with pytest.raises(CertificateError, match="no contraction after 0 delta-halvings"):
        remainder_from_objective(f, np.zeros(2), sch.constant(0.5), max_halvings=0)
    with pytest.raises(LyapunovError, match="max_halvings must be >= 0"):
        remainder_from_objective(f, np.zeros(2), sch.constant(0.5), max_halvings=-1)


def test_remainder_samples_epsilon_without_an_analytic_modulus():
    # the cubic's callables without its cubic_coefficient: epsilon is sampled
    cub = obj_mod.cubic_perturbed_saddle(0.1)
    obj = obj_mod.Objective(2, cub._grad, cub._hess, vectorized=True)
    prob, cert = remainder_from_objective(obj, np.zeros(2), HARMONIC)
    again, cert2 = remainder_from_objective(obj, np.zeros(2), HARMONIC)
    assert cert.valid and prob.order == 1 and prob.delta == 0.1
    assert 0.0 < cert.epsilon < 6 * 0.1 * prob.delta  # below the analytic bound
    assert (cert2.epsilon, again.horizon) == (cert.epsilon, prob.horizon)  # seeded
    analytic, _ = remainder_from_objective(cub, np.zeros(2), HARMONIC)
    grid = np.linspace(-0.05, 0.05, 5)
    np.testing.assert_allclose(np.concatenate(chart(prob, grid).phi),
                               np.concatenate(chart(analytic, grid).phi), rtol=0, atol=1e-12)


def test_remainder_rejects_noncritical_point():
    f = obj_mod.cubic_perturbed_saddle(0.1)
    with pytest.raises(LyapunovError, match=r"^x_star = \[0.3, 0.3\] is not a critical "
                                            r"point: \|grad\| = 4.311e-01$"):
        remainder_from_objective(f, np.array([0.3, 0.3]), HARMONIC)


def test_remainder_rejects_a_nan_gradient():
    # a NaN norm is not at most the tolerance: named here, not by the split
    f = obj_mod.cubic_perturbed_saddle(0.1)
    with pytest.raises(LyapunovError, match=r"is not a critical point: \|grad\| = nan$"):
        remainder_from_objective(f, np.array([np.nan, 0.0]), HARMONIC)


def test_remainder_gd_only():
    f = obj_mod.cubic_perturbed_saddle(0.1)
    for method in ("prox", "mirror-entropy", "manifold-sphere"):
        with pytest.raises(NotImplementedError):
            remainder_from_objective(f, np.zeros(2), HARMONIC, method=method)
    # the ids whose recursion is gd's get gd's certificate and raw dynamics
    gd_prob, gd_cert = remainder_from_objective(f, np.zeros(2), HARMONIC, horizon=4000)
    z0 = np.array([0.04, 1e-3])
    want = iterate_raw(gd_prob, z0, 3000, stop_radius=0.1)
    for method in ("mirror-euclidean", "manifold-intrinsic"):
        prob, cert = remainder_from_objective(f, np.zeros(2), HARMONIC, method=method,
                                              horizon=4000)
        assert cert == gd_cert
        traj, exit_step = iterate_raw(prob, z0, 3000, stop_radius=0.1)
        assert exit_step == want[1] is not None
        assert traj.tobytes() == want[0].tobytes()


def test_remainder_harmonic_certificate_is_closed_form():
    f = obj_mod.cubic_perturbed_saddle(0.1)
    prob, cert = remainder_from_objective(f, np.zeros(2), HARMONIC)
    assert (cert.k1, cert.k2) == (1.0, 1.0)
    assert cert.k == pytest.approx(0.5 + 0.06 * 2, rel=1e-15)
    assert cert.epsilon_star == pytest.approx(0.25, rel=1e-15)


@pytest.mark.parametrize("f", [obj_mod.cubic_perturbed_saddle(0.1),
                               obj_mod.cubic_perturbed_saddle(0.0),
                               obj_mod.quadratic(np.diag([1.0, -1.0]))],
                         ids=["cubic", "cubic-a0", "quadratic"])
@pytest.mark.parametrize("eps", [None, 0.0, 0.05])
def test_remainder_certificate_is_contraction_constant(f, eps):
    prob, cert = remainder_from_objective(f, np.zeros(2), HARMONIC, epsilon=eps)
    assert cert == lp._certify(prob.split, prob.schedule, prob.epsilon)


def exact_tail(prob, order, n):
    """epsilon * delta * weighted_tail_bound at N = n on exact 1/(k+2) steps."""
    alphas = [power_alpha(t) for t in range(n + 1)]
    return Fraction(prob.epsilon) * Fraction(prob.delta) * weighted_tail_bound(
        alphas, Fraction(prob.decay_rate), Fraction(1), order, n)


@pytest.mark.parametrize("horizon", [None, 200])
def test_remainder_tail_estimate_telescopes(horizon):
    # eps(r) = 6|a| r: an order-2 remainder; K_w < 1 up to gamma = 5/8
    f = obj_mod.cubic_perturbed_saddle(0.1)
    prob, _ = remainder_from_objective(f, np.zeros(2), HARMONIC, horizon=horizon)
    N = prob.horizon
    assert N == (3017 if horizon is None else horizon)  # unweighted: N ~ 1.2e8
    assert prob.decay_rate == 0.625
    assert prob.horizon_capped == (horizon is not None)
    assert prob.tail_estimate == pytest.approx(float(exact_tail(prob, 2, N)), rel=1e-12)


def test_remainder_tail_estimate_unweighted_is_telescoped_form():
    # epsilon = 0.24 certifies K = 0.98 but no weighted rung (K_w(1/8) = 1.048):
    # gamma = 0 and the bound is eps*delta/(mu P_{N-1}) = eps*delta*2/(N+2)
    f = obj_mod.cubic_perturbed_saddle(0.1)
    prob, cert = remainder_from_objective(f, np.zeros(2), HARMONIC, epsilon=0.24,
                                          horizon_cap=5000)
    assert cert.valid and prob.decay_rate == 0.0
    assert prob.horizon == 5000 and prob.horizon_capped
    p_n = 1 / telescoped_unstable(prob.horizon - 1)
    assert p_n == Fraction(2, prob.horizon + 2)
    assert prob.tail_estimate == pytest.approx(0.24 * prob.delta * float(p_n), rel=1e-12)
    assert prob.tail_estimate == pytest.approx(float(exact_tail(prob, 1, prob.horizon)),
                                               rel=1e-12)


def test_remainder_horizon_is_smallest_meeting_tail_tol():
    # a given epsilon is an order-1 remainder, certified at delta0 = 0.1 with
    # gamma = 7/8 lambda_s; N lands in the second, third and fourth window
    # of the doubling search (1025-2048, 2049-4096, 4097-8192)
    f = obj_mod.cubic_perturbed_saddle(0.1)
    for eps, expected in ((0.001, 1693), (0.003, 3042), (0.01, 5782)):
        prob, _ = remainder_from_objective(f, np.zeros(2), HARMONIC, epsilon=eps)
        N = prob.horizon
        assert N == expected and not prob.horizon_capped
        assert prob.tail_tol == lp.DEFAULT_TAIL_TOL == 1e-10
        assert prob.tail_estimate < prob.tail_tol
        assert exact_tail(prob, 1, N) < Fraction(prob.tail_tol) <= exact_tail(prob, 1, N - 1)


@pytest.mark.parametrize("cap", [1, 500, 1023, 2000])
def test_remainder_horizon_respects_small_cap(cap):
    f = obj_mod.cubic_perturbed_saddle(0.1)
    prob, _ = remainder_from_objective(f, np.zeros(2), HARMONIC, horizon_cap=cap)
    assert prob.horizon == cap
    assert prob.horizon_capped
    assert prob.tail_estimate == pytest.approx(float(exact_tail(prob, 2, cap)), rel=1e-12)
    assert Fraction(prob.tail_tol) <= exact_tail(prob, 2, cap)


class RecordingSchedule(sch.ConstantSchedule):
    """A constant schedule that records every length asked of ``values``."""

    def __init__(self, c):
        super().__init__(c)
        self.lengths = []

    def values(self, n):
        self.lengths.append(n)
        return super().values(n)


def test_remainder_horizon_search_allocates_prefixes_only():
    # the bound meets tail_tol at the first candidate N = 1024, far below the cap
    s = RecordingSchedule(0.1)
    f = obj_mod.cubic_perturbed_saddle(0.1)
    prob, _ = remainder_from_objective(f, np.zeros(2), s, horizon_cap=2_000_000)
    assert prob.horizon == 1024 and not prob.horizon_capped
    assert s.lengths and max(s.lengths) <= 4096


def test_tail_bound_dominates_exact_weighted_sums():
    # the closed form bounds every partial sum of the dropped terms and is
    # their limit up to the d_i / d_N factor
    alphas = [power_alpha(t) for t in range(1001)]
    for gamma, order in ((Fraction(0), 1), (Fraction(1, 2), 1), (Fraction(1, 2), 2),
                         (Fraction(3, 4), 2)):
        for n in (1, 10, 50):
            bound = weighted_tail_bound(alphas, gamma, Fraction(1), order, n)
            partial = weighted_tail_sum(alphas, gamma, Fraction(1), order, n, 1000)
            assert partial < bound
            assert partial > bound * Fraction(9, 10)


def test_weighted_forward_sums_telescope():
    # S_k = (1 - prod_{j<=k} rho_j) / (lambda - gamma) < 1/(lambda - gamma)
    alphas = [power_alpha(t) for t in range(300)]
    lam = Fraction(1)
    for gamma in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        sums = weighted_forward_sums(lam, gamma, alphas)
        w = weights(gamma, alphas)
        q = Fraction(1)  # prod_{j<=k} rho_j = q / w_{k+1}, q = prod_{j<=k} (1 - alpha_j lam)
        for k, (a, s_k) in enumerate(zip(alphas, sums)):
            q *= 1 - a * lam
            assert s_k == (1 - q / w[k + 1]) / (lam - gamma)
        assert max(sums) < 1 / (lam - gamma)
    assert weighted_forward_sums(lam, Fraction(0), alphas) == k1_recursion(lam, alphas)


@pytest.mark.parametrize("epsilon,rate", [(0.0, 0.875), (0.06, 0.625), (0.1, 0.5),
                                          (0.15, 0.25), (0.24, 0.0)])
def test_decay_rate_is_largest_certified_rung(epsilon, rate):
    # K_w = rho_0 + eps * (1/(lambda_s - gamma) + 1/mu), lambda_s = mu = 1, alpha_0 = 1/2
    f = obj_mod.cubic_perturbed_saddle(0.1)
    prob, _ = remainder_from_objective(f, np.zeros(2), HARMONIC, epsilon=epsilon)
    assert prob.decay_rate == rate

    def k_w(gamma):
        a0 = power_alpha(0)
        return (1 - a0) / (1 - a0 * gamma) + Fraction(epsilon) * (1 / (1 - gamma) + 1)

    assert rate == 0.0 or k_w(Fraction(rate)) < 1
    higher = [Fraction(r, 8) for r in range(1, 8) if Fraction(r, 8) > rate]
    assert all(k_w(r) >= 1 for r in higher)


def test_fixed_orbit_lies_in_weighted_ball():
    # the weighted contraction puts the whole fixed orbit in |u_k| <= delta w_k
    f = obj_mod.cubic_perturbed_saddle(0.1)
    prob, _ = remainder_from_objective(f, np.zeros(2), HARMONIC)
    w = np.concatenate([[1.0], np.cumprod(1.0 - prob.decay_rate * prob.alphas[:-1])])
    for g in (-prob.delta / 2, prob.delta / 4, prob.delta / 2):
        U = solve_stable_point(prob, [g]).sequence
        assert np.all(np.linalg.norm(U, axis=1) <= prob.delta * w)


def manufactured_problem(c=0.1, lam=1.0, mu=1.0, delta=0.1):
    """The exact-manifold problem z2 = c z1^2, horizon from tail_horizon."""
    sp = split(np.diag([lam, -mu]))

    def eta(ks, Z):
        al = np.array([HARMONIC.value(int(k)) for k in ks])
        E = np.zeros_like(Z)
        E[:, 1] = manufactured_remainder(al, Z[:, 0], c, lam, mu)
        return E

    # |d eta_2 / d z1| <= 2 c alpha (2 lam + mu) |z1|: an order-2 modulus
    epsilon = 2.0 * c * delta * (2.0 * lam + mu)
    tb = tail_horizon(sp, HARMONIC, epsilon, delta, order=2)
    return PerronProblem(split=sp, schedule=HARMONIC, eta=eta, delta=delta,
                         epsilon=epsilon, horizon=tb.horizon, order=2)


def test_chart_matches_manufactured_manifold():
    c = 0.1
    prob = manufactured_problem(c=c)
    assert lp._certify(prob.split, prob.schedule, prob.epsilon).k == \
        pytest.approx(0.62, rel=1e-15)
    assert prob.decay_rate == 0.625 and not prob.horizon_capped
    assert prob.horizon < 10_000
    grid = np.linspace(-prob.delta / 2, prob.delta / 2, 11)
    ch = chart(prob, grid)
    assert not ch.partial
    gap = max(abs(float(p[0]) - c * float(g[0]) ** 2) for g, p in zip(ch.grid, ch.phi))
    assert gap <= 1e-12


def test_gd_keeps_chart_starts_and_loses_displaced_ones():
    # the chart and gd describe the same map: on-chart starts in the original
    # coordinates stay in B(x*, delta); the same starts nudged by 1e-3 along
    # the unstable coordinate leave it
    f = obj_mod.cubic_perturbed_saddle(0.1)
    x_star = np.zeros(2)
    prob, _ = remainder_from_objective(f, x_star, HARMONIC)
    ch = chart(prob, np.linspace(-prob.delta / 2, prob.delta / 2, 11))
    uix = int(prob.split.unstable_indices[0])
    Z = np.zeros((len(ch.grid), 2))
    Z[:, prob.split.stable_indices] = np.stack(ch.grid)
    Z[:, uix] = [float(p[0]) for p in ch.phi]

    def run_from(Z):
        X0 = x_star[None, :] + Z @ prob.split.Q_inv.T
        return methods.run_batch("gd", f, HARMONIC, X0, budget=5000,
                                 escape_radius=prob.delta).terminal

    assert methods.ESCAPED_REGION not in run_from(Z)
    for sign in (1.0, -1.0):
        shifted = Z.copy()
        shifted[:, uix] += sign * 1e-3
        assert run_from(shifted) == [methods.ESCAPED_REGION] * len(Z)


@pytest.mark.parametrize("kwargs", [{"horizon": 0}, {"horizon": -3}, {"horizon_cap": 0}])
def test_remainder_rejects_nonpositive_horizon(kwargs):
    f = obj_mod.cubic_perturbed_saddle(0.1)
    with pytest.raises(LyapunovError, match="horizon"):
        remainder_from_objective(f, np.zeros(2), HARMONIC, **kwargs)


def test_remainder_rejects_definite_hessian():
    f = obj_mod.quadratic(np.eye(2))
    with pytest.raises(LyapunovError):
        remainder_from_objective(f, np.zeros(2), HARMONIC)

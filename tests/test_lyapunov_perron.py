"""Sequence-space operator, contraction bounds, fixed points, and charts.

The heart of this file is apply_T versus a deliberately naive reference
implementation that evaluates every transition product with an explicit
inner loop — the vectorized cumprod scans must reproduce those sums.
"""

from fractions import Fraction

import numpy as np
import pytest
from oracles import (k1_recursion, k2_exact_constant, k2_partial_power_harmonic,
                     power_alpha, telescoped_unstable)

from saddle_escape import lyapunov_perron as lp
from saddle_escape import objectives as obj_mod
from saddle_escape import schedules as sch
from saddle_escape.lyapunov_perron import (CertificateError, LyapunovError,
                                           PerronProblem, apply_T, bound_K1,
                                           bound_K2, chart,
                                           contraction_constant, iterate_raw,
                                           remainder_from_objective,
                                           self_consistency_error,
                                           shooting_oracle, solve_stable_point,
                                           sup_distance)
from saddle_escape.spectral import split

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

HARMONIC = sch.power(1.0, 1.0, 2)


def cubic_problem(a=0.1, delta=0.1, horizon=4000, batch=True):
    """Hand-built diagonal-frame problem for the a-perturbed saddle.

    At the origin the Hessian is diag(1, -1) and the update deviation from
    its linearization is eta(k, z) = -alpha_k * a * (2 z1 z2, z1^2), with
    Lipschitz modulus alpha_k * 6 a delta on B(0, delta).
    """
    sp = split(np.diag([1.0, -1.0]))

    def eta(k, z):
        return -HARMONIC.value(k) * a * np.array([2 * z[0] * z[1], z[0] ** 2])

    eta_b = None
    if batch:
        alphas = np.asarray(HARMONIC.values(horizon + 1))

        def eta_b(ks, Z):
            ks = np.asarray(ks)
            al = alphas[ks] if ks.max() < len(alphas) else \
                np.asarray(HARMONIC.values(int(ks.max()) + 1))[ks]
            return -al[:, None] * a * np.stack(
                [2 * Z[:, 0] * Z[:, 1], Z[:, 0] ** 2], axis=1)

    return PerronProblem(split=sp, schedule=HARMONIC, eta=eta, delta=delta,
                         epsilon=6 * a * delta, horizon=horizon,
                         eta_batch=eta_b)


def synthetic_problem(horizon=40):
    """3-d problem (two stable directions, one unstable) with a wiggly eta."""
    sp = split(np.diag([1.0, 0.5, -1.0]))
    c = 0.02

    def eta(k, z):
        field = np.array([np.sin(z[1] + z[2]), z[0] * z[2], 1.0 - np.cos(z[0])])
        return sch.power(1.0, 1.0, 2).value(k) * c * field

    return PerronProblem(split=sp, schedule=HARMONIC, eta=eta, delta=0.5,
                         epsilon=c * 3.0, horizon=horizon)


def apply_T_reference(prob, x0_plus, U):
    """Direct-sum evaluation of the operator with explicit product loops."""
    sp = prob.split
    lam = sp.eigenvalues
    al = prob.alphas
    N = prob.horizon
    E = np.array([prob.eta(k, U[k]) for k in range(N + 1)])
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
    V = apply_T(prob, xp, U).points
    V_ref = apply_T_reference(prob, xp, U)
    np.testing.assert_allclose(V, V_ref, atol=1e-13)


def test_apply_T_matches_naive_reference_cubic():
    prob = cubic_problem(horizon=60)
    rng = np.random.default_rng(1)
    U = rng.uniform(-0.05, 0.05, size=(61, 2))
    xp = np.array([0.04])
    V = apply_T(prob, xp, U).points
    V_ref = apply_T_reference(prob, xp, U)
    np.testing.assert_allclose(V, V_ref, atol=1e-14)


def test_apply_T_anchors_the_stable_coordinate():
    prob = cubic_problem(horizon=50)
    U = np.zeros((51, 2))
    V = apply_T(prob, np.array([0.04]), U).points
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
                         eta=lambda k, z: HARMONIC.value(k) * 3.0 * z,
                         delta=0.1, epsilon=3.0, horizon=50)
    U = np.full((51, 2), 0.09)
    with pytest.raises(LyapunovError, match="entry"):
        apply_T(prob, np.array([0.05]), U)


def test_sup_distance():
    A = np.zeros((5, 2))
    B = np.zeros((5, 2))
    B[3] = [3.0, 4.0]
    assert sup_distance(A, B) == 5.0


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
    cert = contraction_constant(prob)
    assert cert.k1 == 1.0
    assert cert.k2 == 1.0
    expect = 1.0 - 0.5 * 1.0 + 0.06 * (cert.k1 + cert.k2)
    assert cert.k == pytest.approx(expect, rel=1e-12)
    assert cert.valid
    assert cert.epsilon_star == pytest.approx(0.5 / (cert.k1 + cert.k2), rel=1e-12)


def test_contraction_constant_zero_epsilon_skips_backward_bound():
    sp = split(np.diag([1.0, -1.0]))
    prob = PerronProblem(split=sp, schedule=HARMONIC,
                         eta=lambda k, z: np.zeros(2), delta=0.1,
                         epsilon=0.0, horizon=100)
    cert = contraction_constant(prob)
    assert cert.k2 == 0.0
    assert cert.k == pytest.approx(0.5)
    assert cert.valid


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
                         eta=lambda k, z: np.zeros(2), delta=0.1,
                         epsilon=0.0, horizon=500)
    res = solve_stable_point(prob, np.array([0.05]))
    np.testing.assert_allclose(res.x0_minus, [0.0])
    np.testing.assert_allclose(res.sequence.points[:, 1], 0.0)


def test_picard_budget_error():
    prob = cubic_problem(horizon=500)
    with pytest.raises(LyapunovError):
        solve_stable_point(prob, np.array([0.04]), fp_tol=1e-30, fp_budget=2)


def test_validate_accepts_cubic_remainder():
    prob = cubic_problem()
    prob.validate()  # should not raise


def test_validate_rejects_nonvanishing_remainder():
    sp = split(np.diag([1.0, -1.0]))
    prob = PerronProblem(split=sp, schedule=HARMONIC,
                         eta=lambda k, z: np.array([1e-3, 0.0]), delta=0.1,
                         epsilon=0.06, horizon=100)
    with pytest.raises(LyapunovError):
        prob.validate()


# ---------------------------------------------------------------------------
# raw dynamics, shooting, chart
# ---------------------------------------------------------------------------

def test_iterate_raw_escapes_off_manifold():
    prob = cubic_problem(horizon=4000)
    res = solve_stable_point(prob, np.array([0.04]))
    for beta in (1e-3, -1e-3, 1e-2, -1e-2):
        x0 = np.array([0.04, res.x0_minus[0] + beta])
        _, exit_step = iterate_raw(prob, x0, 4000, stop_radius=prob.delta)
        assert exit_step is not None


def test_iterate_raw_on_manifold_stays_bounded():
    prob = cubic_problem(horizon=4000)
    res = solve_stable_point(prob, np.array([0.04]), fp_tol=1e-12)
    x0 = np.array([0.04, res.x0_minus[0]])
    traj, exit_step = iterate_raw(prob, x0, 4000, stop_radius=prob.delta)
    assert exit_step is None
    assert np.linalg.norm(traj[-1]) < prob.delta


def test_iterate_raw_matches_plain_loop():
    # iterate_raw is the one-row case of the lockstep raw loop shooting uses;
    # its bits and exit step are those of the plain one-point recursion
    prob = cubic_problem(horizon=4000, batch=True)
    lam = prob.split.eigenvalues
    exits = []
    for z0, radius in (([0.04, 0.0], 0.1), ([0.05, 0.01], 0.1), ([0.0, -0.02], 0.1),
                       ([0.04, 1e-3], 0.1), ([0.04, 0.0], None)):
        traj, exit_step = iterate_raw(prob, np.array(z0), 3000, stop_radius=radius)
        x = np.array(z0)
        want, want_exit = [x], None
        for k in range(3000):
            x = (1.0 - HARMONIC.value(k) * lam) * x + prob.eta_batch([k], x[None])[0]
            want.append(x)
            if radius is not None and np.linalg.norm(x) > radius:
                want_exit = k + 1
                break
        assert exit_step == want_exit
        assert traj.tobytes() == np.array(want).tobytes()
        exits.append(exit_step)
    assert None in exits and any(e is not None for e in exits)


def test_shooting_agrees_with_picard():
    prob = cubic_problem(horizon=4000)
    xp = np.array([0.04])
    got = shooting_oracle(prob, xp, bracket=prob.delta, steps=3000, width=1e-6)
    want = solve_stable_point(prob, xp).x0_minus
    # the shot lands on the lower edge of the not-yet-escaped zone, whose
    # halfwidth is about 2*delta/steps
    assert abs(got[0] - want[0]) < 2e-4


def test_shooting_batched_and_scalar_paths_agree():
    # a scalar-only eta is adapted row by row at construction; under the
    # harmonic schedule value(k) and values(n) agree bitwise, so both problems
    # give the same bits everywhere
    xp = np.array([0.04])
    fast_prob = cubic_problem(horizon=4000, batch=True)
    slow_prob = cubic_problem(horizon=4000, batch=False)
    fast = shooting_oracle(fast_prob, xp, bracket=0.1, steps=2000, width=1e-6)
    slow = shooting_oracle(slow_prob, xp, bracket=0.1, steps=2000, width=1e-6)
    assert fast.tobytes() == slow.tobytes()
    fast_seq = solve_stable_point(fast_prob, xp).sequence.points
    slow_seq = solve_stable_point(slow_prob, xp).sequence.points
    assert fast_seq.tobytes() == slow_seq.tobytes()
    for z0 in ([0.04, 0.0], [0.05, 0.01], [0.0, -0.02]):
        fast_traj, fast_exit = iterate_raw(fast_prob, np.array(z0), 3000, stop_radius=0.1)
        slow_traj, slow_exit = iterate_raw(slow_prob, np.array(z0), 3000, stop_radius=0.1)
        assert fast_exit == slow_exit
        assert fast_traj.tobytes() == slow_traj.tobytes()


def test_shooting_error_taxonomy():
    prob = cubic_problem(horizon=4000)
    with pytest.raises(LyapunovError, match="bracket is too small"):
        shooting_oracle(prob, np.array([0.0]), bracket=1e-9, steps=50)
    with pytest.raises(LyapunovError, match="same side"):
        # phi(0.04) ~ 6e-5 sits above the bracket, so both endpoints exit
        # downward
        shooting_oracle(prob, np.array([0.04]), bracket=1e-5, steps=6000)


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
    # the zero anchor converges trivially; the 0.02 sample and the tangency
    # probes cannot meet fp_tol in one application and land in failures
    assert ch.phi[0] is not None
    assert ch.phi[1] is None
    assert len(ch.failures) >= 1
    assert not ch.tangency_ok


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
    prob.validate()


def test_remainder_explicit_epsilon_can_return_invalid():
    f = obj_mod.cubic_perturbed_saddle(0.1)
    prob, cert = remainder_from_objective(f, np.zeros(2), sch.constant(0.1),
                                          epsilon=0.5)
    assert not cert.valid
    assert cert.k >= 1.0
    assert 0 < cert.epsilon_star < 0.5
    assert prob.epsilon == 0.5


def test_remainder_rejects_noncritical_point():
    f = obj_mod.cubic_perturbed_saddle(0.1)
    with pytest.raises(LyapunovError):
        remainder_from_objective(f, np.array([0.3, 0.3]), HARMONIC)


def test_remainder_gd_only():
    f = obj_mod.cubic_perturbed_saddle(0.1)
    with pytest.raises(NotImplementedError):
        remainder_from_objective(f, np.zeros(2), HARMONIC, method="prox")


def test_remainder_harmonic_certificate_is_closed_form():
    f = obj_mod.cubic_perturbed_saddle(0.1)
    prob, cert = remainder_from_objective(f, np.zeros(2), HARMONIC)
    assert (cert.k1, cert.k2) == (1.0, 1.0)
    assert cert.k == pytest.approx(0.5 + 0.06 * 2, rel=1e-15)
    assert cert.epsilon_star == pytest.approx(0.25, rel=1e-15)


@pytest.mark.parametrize("horizon", [None, 200])
def test_remainder_tail_estimate_telescopes(horizon):
    # mu = 1 under 1/(k+2): P_N = 1/prod_{j<=N}(1 + alpha_j) = 2/(N+3)
    f = obj_mod.cubic_perturbed_saddle(0.1)
    prob, _ = remainder_from_objective(f, np.zeros(2), HARMONIC, horizon=horizon)
    N = prob.horizon
    assert N == (100_000 if horizon is None else horizon)  # 1e-10 needs N ~ 1.2e8
    p_n = 1 / telescoped_unstable(N)
    assert p_n == Fraction(2, N + 3)
    assert prob.tail_estimate == pytest.approx(
        prob.epsilon * prob.delta * float(p_n), rel=1e-12)


def test_remainder_horizon_is_smallest_meeting_tail_tol():
    # eps*delta*2/(N+3) < 1.3e-6 first holds at N + 3 = 9231
    f = obj_mod.cubic_perturbed_saddle(0.1)
    prob, _ = remainder_from_objective(f, np.zeros(2), HARMONIC, tail_tol=1.3e-6)
    assert prob.horizon == 9228
    assert prob.tail_estimate < 1.3e-6


@pytest.mark.parametrize("cap", [1, 500, 1023, 2000])
def test_remainder_horizon_respects_small_cap(cap):
    f = obj_mod.cubic_perturbed_saddle(0.1)
    prob, _ = remainder_from_objective(f, np.zeros(2), HARMONIC, horizon_cap=cap)
    assert prob.horizon == cap
    assert prob.tail_estimate == pytest.approx(
        prob.epsilon * prob.delta * 2.0 / (cap + 3), rel=1e-12)


@pytest.mark.parametrize("kwargs", [{"horizon": 0}, {"horizon": -3}, {"horizon_cap": 0}])
def test_remainder_rejects_nonpositive_horizon(kwargs):
    f = obj_mod.cubic_perturbed_saddle(0.1)
    with pytest.raises(LyapunovError, match="horizon"):
        remainder_from_objective(f, np.zeros(2), HARMONIC, **kwargs)


def test_remainder_rejects_definite_hessian():
    f = obj_mod.quadratic(np.eye(2))
    with pytest.raises(LyapunovError):
        remainder_from_objective(f, np.zeros(2), HARMONIC)

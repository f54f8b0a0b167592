"""Sequence-space operator, contraction bounds, fixed points, and charts.

The heart of this file is apply_T versus a deliberately naive reference
implementation that evaluates every transition product with an explicit
inner loop — the vectorized cumprod scans must reproduce those sums.
"""

from fractions import Fraction

import numpy as np
import pytest
from oracles import (k1_recursion, k2_exact_constant, k2_partial_power_harmonic,
                     manufactured_remainder, power_alpha, telescoped_unstable,
                     weighted_forward_sums, weighted_tail_bound, weighted_tail_sum,
                     weights)
from reference import reference_scan_T

from saddle_escape import lyapunov_perron as lp
from saddle_escape import methods
from saddle_escape import objectives as obj_mod
from saddle_escape import schedules as sch
from saddle_escape.lyapunov_perron import (CertificateError, LyapunovError,
                                           PerronProblem, apply_T, bound_K1,
                                           bound_K2, chart,
                                           contraction_constant, iterate_raw,
                                           remainder_from_objective,
                                           self_consistency_error,
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
                         eta=lambda ks, Z: np.zeros_like(Z), delta=0.1,
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
                         eta=lambda ks, Z: np.zeros_like(Z), delta=0.1,
                         epsilon=0.0, horizon=500)
    res = solve_stable_point(prob, np.array([0.05]))
    np.testing.assert_allclose(res.x0_minus, [0.0])
    np.testing.assert_allclose(res.sequence[:, 1], 0.0)


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
                         eta=lambda ks, Z: np.tile([1e-3, 0.0], (len(Z), 1)), delta=0.1,
                         epsilon=0.06, horizon=100)
    with pytest.raises(LyapunovError):
        prob.validate()


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
    # gd's own step; its bits and exit step are those of plain one-point gd
    # (the Hessian diag(1, -1) is already diagonal, so z = x)
    prob = cubic_gd_problem()
    f = obj_mod.cubic_perturbed_saddle(0.1)
    exits = []
    for z0, radius in (([0.04, 0.0], 0.1), ([0.05, 0.01], 0.1), ([0.0, -0.02], 0.1),
                       ([0.04, 1e-3], 0.1), ([0.04, 0.0], None)):
        traj, exit_step = iterate_raw(prob, np.array(z0), 3000, stop_radius=radius)
        x = np.array(z0)
        want, want_exit = [x], None
        for k in range(3000):
            x = methods.gd_step(f, HARMONIC, k, x)
            want.append(x)
            if radius is not None and np.linalg.norm(x) > radius:
                want_exit = k + 1
                break
        assert exit_step == want_exit
        assert traj.tobytes() == np.array(want).tobytes()
        exits.append(exit_step)
    assert None in exits and any(e is not None for e in exits)


def test_raw_dynamics_need_the_methods_own_step():
    # a hand-built problem has a remainder but no method to step
    prob = cubic_problem()
    with pytest.raises(LyapunovError, match="no raw dynamics"):
        iterate_raw(prob, np.array([0.04, 0.0]), 10)
    with pytest.raises(LyapunovError, match="no raw dynamics"):
        shooting_oracle(prob, np.array([0.04]), bracket=0.1, steps=10)


@pytest.mark.parametrize("stop_radius", [np.nan, 0.0, -0.1])
def test_iterate_raw_rejects_bad_radius(stop_radius):
    with pytest.raises(LyapunovError, match="positive radius"):
        iterate_raw(cubic_gd_problem(), np.array([0.04, 0.05]), 100, stop_radius=stop_radius)


def test_iterate_raw_rejects_negative_steps():
    with pytest.raises(LyapunovError, match="steps >= 0"):
        iterate_raw(cubic_gd_problem(), np.array([0.04, 0.05]), -1)


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


def test_shooting_error_taxonomy():
    prob = cubic_gd_problem()
    with pytest.raises(LyapunovError, match="bracket is too small"):
        shooting_oracle(prob, np.array([0.0]), bracket=1e-9, steps=50)
    with pytest.raises(LyapunovError, match="same side"):
        # phi(0.04) ~ 6e-5 sits above the bracket, so both endpoints exit
        # downward
        shooting_oracle(prob, np.array([0.04]), bracket=1e-5, steps=6000)


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


@pytest.mark.parametrize("f", [obj_mod.cubic_perturbed_saddle(0.1),
                               obj_mod.cubic_perturbed_saddle(0.0),
                               obj_mod.quadratic(np.diag([1.0, -1.0]))],
                         ids=["cubic", "cubic-a0", "quadratic"])
@pytest.mark.parametrize("eps", [None, 0.0, 0.05])
def test_remainder_certificate_is_contraction_constant(f, eps):
    prob, cert = remainder_from_objective(f, np.zeros(2), HARMONIC, epsilon=eps)
    assert cert == contraction_constant(prob)


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
    # N lands in the second, third and fourth window of the doubling search
    f = obj_mod.cubic_perturbed_saddle(0.1)
    for tail_tol, expected in ((1e-9, 1084), (1e-10, 3017), (1e-11, 8396)):
        prob, _ = remainder_from_objective(f, np.zeros(2), HARMONIC, tail_tol=tail_tol)
        N = prob.horizon
        assert N == expected and not prob.horizon_capped
        assert prob.tail_estimate < tail_tol
        assert exact_tail(prob, 2, N) < Fraction(tail_tol) <= exact_tail(prob, 2, N - 1)


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
                         epsilon=epsilon, horizon=tb.horizon,
                         tail_estimate=tb.tail_estimate, horizon_capped=tb.capped,
                         decay_rate=tb.decay_rate)


def test_chart_matches_manufactured_manifold():
    c = 0.1
    prob = manufactured_problem(c=c)
    assert contraction_constant(prob).k == pytest.approx(0.62, rel=1e-15)
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

"""Plain loops, the references for the library's batched paths.

``reference_run`` is a one-point trajectory loop for ``methods.run`` and
``run_batch``.  ``methods.run`` is the one-row case of the lockstep loop
behind ``run_batch``, so comparing the two checks the loop only against
itself.  This loop applies the same stopping rules (no recording) to one
point at a time, as an independent implementation of the loop to compare
both against.  The step it takes is the library's own (``make_step`` is
the one-row case of the batched update), so it checks the loop, not the
step; ``oracles.py`` is the independent check on the steps.

``reference_newton`` is the proximal step's damped Newton as a scalar
loop, one point at a time, the bit reference for the batched Newton.

``reference_scan_T`` evaluates the Lyapunov-Perron operator by its plain
recursions, one entry at a time, for the segmented cumprod scan behind
``lyapunov_perron.apply_T``.

``reference_solve`` is the Picard loop of ``solve_stable_point`` with
``np.linalg.norm`` row norms, the bit reference for the column-sum row
norms of ``apply_T`` and ``sup_distance``.  It steps the library's own
operator (``_scan_T``), so it checks the loop and its norms, not the scan.

``reference_eta`` is the remainder of ``remainder_from_objective`` as
row-major products on transposed views, the bit reference for its eta,
which takes the same products on column-major sequences.

``reference_cubic_grad`` is the cubic saddle's gradient as two plain
expressions assigned through a tuple, the bit reference for the kernel
in ``objectives.cubic_perturbed_saddle``, which writes each column once
through its last ufunc's ``out``.

``reference_shoot`` refines a shooting bracket with one lockstep call per
round and no look-ahead: the bit and error reference for
``lyapunov_perron.shooting_oracle``, whose calls also step the round after.
It steps the library's own raw dynamics (``_raw_run``), so it checks the
refinement, not the dynamics.

``reference_draw_init`` draws one avoidance trial's start with
``Generator.uniform`` on the trial's own stream, the bit reference for the
bulk draw in ``harness_cli``.

``TableSchedule`` gives explicit leading step sizes and then a tail
schedule's formula from its own k = 0: the schedule of the retired
``table`` kind, which C09 still checks the forward bound on.

``validate_remainder`` spot-checks a ``PerronProblem``'s stated remainder
properties by sampling, and ``self_consistency_error`` measures how far a
sequence is from its own recursive step; both are checks on a problem, not
part of building or solving one.
"""

import numpy as np

from saddle_escape.lyapunov_perron import (LyapunovError, StablePointResult, _eta_all,
                                           _lipschitz_quotient, _raise_failure, _raw_run,
                                           _sample_ball, _scan_T)
from saddle_escape.methods import (BUDGET_EXHAUSTED, CONVERGED_TO_POINT,
                                   ESCAPED_REGION, STEP_ERROR, MethodError)
from saddle_escape.schedules import StepSchedule

WINDOW = 50  # consecutive short steps that declare convergence


def reference_run(step, x0, *, budget, conv_tol, escape_radius):
    """Iterate ``step(k, x)`` from ``x0``; return (kind, k_final, final point, message).

    Stopping order per step: step error at k (final point x_k), escape
    (||x_{k+1}|| > escape_radius), ``WINDOW`` consecutive steps shorter than
    ``conv_tol``, then the budget.
    """
    x = np.asarray(x0, dtype=float).copy()
    quiet = 0
    for k in range(budget):
        try:
            x_new = np.asarray(step(k, x), dtype=float)
            if np.any(np.isnan(x_new)):
                raise MethodError(f"non-finite iterate at k={k + 1}")
        except MethodError as err:
            return STEP_ERROR, k, x, str(err)
        motion = float(np.linalg.norm(x_new - x))
        x = x_new
        if float(np.linalg.norm(x)) > escape_radius:
            return ESCAPED_REGION, k + 1, x, None
        quiet = quiet + 1 if motion < conv_tol else 0
        if quiet >= WINDOW:
            return CONVERGED_TO_POINT, k + 1, x, None
    return BUDGET_EXHAUSTED, budget, x, None


def reference_newton(obj, schedule, k, x):
    """Solve z + alpha_k grad f(z) = x by damped Newton from z = x.

    Newton steps on the Jacobian I + alpha_k hess f until |F(z)| <= 1e-12,
    within 100 of them; each step halves its length, down to 1e-12, until
    the residual falls.  Failures raise MethodError with the library's
    messages.
    """
    x = np.asarray(x, dtype=float)
    alpha = schedule.value(k)
    z = x.copy()
    identity = np.eye(obj.dimension)
    res = z + alpha * obj.grad(z) - x
    res_norm = float(np.linalg.norm(res))
    for _ in range(100):
        if res_norm <= 1e-12:
            return z
        J = identity + alpha * obj.hess(z)
        try:
            delta = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError as err:
            raise MethodError(
                f"singular proximal Jacobian I + alpha_k hess f at k={k}") from err
        t = 1.0
        while t >= 1e-12:
            z_try = z + t * delta
            res_try = z_try + alpha * obj.grad(z_try) - x
            res_try_norm = float(np.linalg.norm(res_try))
            if res_try_norm < res_norm or not np.isfinite(res_norm):
                break
            t *= 0.5
        else:
            raise MethodError(f"proximal Newton damping stalled at k={k}")
        z, res, res_norm = z_try, res_try, res_try_norm
    if res_norm <= 1e-12:
        return z
    raise MethodError(
        f"proximal Newton did not reach residual 1e-12 within "
        f"100 iterations at k={k} (residual {res_norm:.3e})")


def reference_scan_T(prob, xp, E):
    """T from the remainder rows E by its recursions, one entry per step.

    Stable block forward, v+_{k+1} = f_k v+_k + eta+_k from v+_0 = xp;
    unstable block backward, t_m = (eta-_m + t_{m+1}) / g_m from
    t_{N+1} = 0, with v-_m = -t_m, except that entry 0 drops the (N, 0)
    term eta-_N / prod_{j<=N} g_j.  The factors 1 - alpha_k lambda are
    formed here from ``prob.alphas``, and the dropped term's product in log
    space, so no product over- or underflows.
    """
    N = prob.horizon
    S, Uix = prob.split.stable_indices, prob.split.unstable_indices
    lam = prob.split.eigenvalues
    V = np.zeros_like(E)
    vp = np.array(xp, dtype=float)
    V[0, S] = vp
    for k in range(N):
        vp = (1.0 - prob.alphas[k] * lam[S]) * vp + E[k, S]
        V[k + 1, S] = vp
    t = np.zeros(len(Uix))
    for m in range(N, -1, -1):
        t = (E[m, Uix] + t) / (1.0 - prob.alphas[m] * lam[Uix])
        V[m, Uix] = -t
    log_prod = np.sum(np.log(1.0 - prob.alphas[:, None] * lam[None, Uix]), axis=0)
    V[0, Uix] = -(t - np.exp(-log_prod) * E[N, Uix])
    return V


def reference_solve(prob, x0_plus, fp_tol, fp_budget):
    """Picard-iterate T from the zero sequence until the sup-distance of two
    iterates, max_k ``np.linalg.norm(u_k - v_k)``, is below ``fp_tol``.

    Each image's rows must all have ``np.linalg.norm`` <= delta*(1+1e-6).
    Takes what ``solve_stable_point`` takes once its arguments are checked;
    returns its ``StablePointResult``, and raises LyapunovError where it does.
    """
    xp = np.atleast_1d(np.asarray(x0_plus, dtype=float))
    limit = prob.delta * (1.0 + 1e-6)
    u = np.zeros((prob.horizon + 1, prob.dimension))
    history = []
    for j in range(fp_budget):
        v = _scan_T(prob, xp, _eta_all(prob, u))
        if not np.all(np.linalg.norm(v, axis=1) <= limit):
            raise LyapunovError("operator image leaves the certified neighborhood")
        r = float(np.max(np.linalg.norm(u - v, axis=1)))
        history.append(r)
        u = v
        if r < fp_tol:
            return StablePointResult(u[0, prob.split.unstable_indices].copy(), u, r, j + 1,
                                     history)
    raise LyapunovError(f"Picard iteration did not reach fp_tol={fp_tol:g}")


def reference_eta(obj, x_star, split_, alphas, ks, Z):
    """eta(k, z) = alpha_k (H w - grad f(x* + w)) Q^T with w = z Q_inv^T and H
    the Hessian at x*, for the rows z of Z at the steps ks, by row-major
    products on the transposed views ``Q_inv.T``, ``H.T`` and ``Q.T``."""
    H = np.asarray(obj.hess(x_star), dtype=float)
    W = Z @ split_.Q_inv.T
    return alphas[ks][:, None] * (
        (W @ H.T - np.asarray(obj.grad(x_star[None, :] + W))) @ split_.Q.T)


def reference_cubic_grad(a):
    """z -> grad f(z) for f = x^2/2 - y^2/2 + a x^2 y on a (..., 2) stack, by
    ``x + 2.0 * a * x * y`` and ``-y + a * x * x``."""
    def grad(z):
        x, y = z[..., 0], z[..., 1]
        g = np.empty(z.shape)
        g[..., 0], g[..., 1] = x + 2.0 * a * x * y, -y + a * x * x
        return g
    return grad


def reference_shoot(prob, x0_plus, bracket, steps, width):
    """The lower edge of the bounded zone over ``x0_plus``, one call per round.

    The bracket's two ends, then per round the 31 interior candidates of
    ``np.linspace(lo, hi, 33)`` in one ``_raw_run`` call, until the bracket
    is narrower than ``width`` or a round cannot narrow it.  Takes what
    ``shooting_oracle`` takes once its arguments are checked; raises its
    errors with its messages.
    """
    xp = np.atleast_1d(np.asarray(x0_plus, dtype=float))
    uix = int(prob.split.unstable_indices[0])
    six = prob.split.stable_indices

    def sides_of(cs):
        X0 = np.zeros((len(cs), prob.dimension))
        X0[:, six] = xp[None, :]
        X0[:, uix] = cs
        exits, X, failures = _raw_run(prob, X0, steps, prob.delta)
        _raise_failure(failures)
        return np.where(exits < 0, 0, np.where(X[:, uix] > 0.0, 1, -1))

    lo, hi = -abs(bracket), abs(bracket)
    s_lo, s_hi = sides_of([lo, hi])
    if s_lo == 0 and s_hi == 0:
        raise LyapunovError(
            "both bracket endpoints stay bounded for the whole horizon; "
            "the bracket is too small to straddle the stable point")
    if s_lo == 0 or s_hi == 0:
        raise LyapunovError(
            "one bracket endpoint stays bounded for the whole horizon; "
            "widen the bracket or increase steps")
    if s_lo == s_hi:
        raise LyapunovError(
            "both bracket endpoints escape to the same side; "
            "no stable point bracketed")
    if s_lo == 1:  # orient: lo escapes downward, hi upward
        lo, hi = hi, lo
    while abs(hi - lo) > width:
        cs = np.linspace(lo, hi, 33)
        interior = np.where(sides_of(cs[1:-1]) == -1, -1, 1)
        # first candidate (scanning from lo) that no longer exits downward
        j = 1 + int(np.argmax(np.concatenate([interior, [1]])))
        if (cs[j - 1], cs[j]) == (lo, hi):
            break
        lo, hi = cs[j - 1], cs[j]
    return np.array([0.5 * (lo + hi)])


def reference_draw_init(seed, trial, box):
    """Trial ``trial``'s start: uniform in ``box`` (rows [low, high]) from
    ``default_rng(SeedSequence(seed, spawn_key=(trial,)))``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    rng = np.random.default_rng(ss)
    return rng.uniform(box[:, 0], box[:, 1])


class TableSchedule(StepSchedule):
    """``alpha_k = values[k]`` for ``k < len(values)``, then ``tail``'s
    ``alpha_{k - len(values)}``; the caller keeps the sequence nonincreasing."""

    def __init__(self, values, tail):
        self.head, self.tail = np.asarray(values, dtype=float), tail

    def _alphas(self, ks):
        n = self.head.size
        head = self.head[np.minimum(ks, n - 1).astype(np.intp)]
        return np.where(ks < n, head, self.tail._alphas(np.maximum(ks - n, 0.0)))


def validate_remainder(prob):
    """Spot-check the stated remainder properties of ``prob`` by sampling.

    Verifies eta(k, 0) = 0 to 1e-14 and that sampled Lipschitz quotients
    on B(0, delta) stay below alpha_k * epsilon * 1.01 for 1000 random
    pairs (seed 0) at each of k = 0, 1, 2, 5, 10 up to N.  Raises
    LyapunovError on violation.
    """
    rng = np.random.default_rng(0)
    d, pairs = prob.dimension, 1000
    for k in [k for k in (0, 1, 2, 5, 10) if k <= prob.horizon]:
        X = _sample_ball(rng, pairs, d, prob.delta)
        Y = _sample_ball(rng, pairs, d, prob.delta)
        E = np.asarray(prob.eta(np.full(2 * pairs + 1, k),
                                np.vstack([np.zeros((1, d)), X, Y])), dtype=float)
        e0, EX, EY = E[0], E[1:pairs + 1], E[pairs + 1:]
        if float(np.linalg.norm(e0)) > 1e-14:
            raise LyapunovError(
                f"eta(k={k}, 0) = {e0} is not zero (norm {np.linalg.norm(e0):.3e})")
        worst = _lipschitz_quotient(X, Y, EX, EY)
        cap = prob.schedule.value(k) * prob.epsilon * (1.0 + 1e-2)
        if worst > cap:
            raise LyapunovError(
                f"sampled Lipschitz quotient {worst:.6e} at k={k} exceeds "
                f"alpha_k*epsilon*(1+1e-2) = {cap:.6e}")


def self_consistency_error(prob, seq):
    """Max per-entry gap between seq and its own step (I - alpha_k H) u_k + eta(k, u_k).

    For the converged fixed sequence this is at the fixed-point tolerance:
    the integral form and the recursive form describe the same orbit.
    """
    U = np.asarray(seq, dtype=float)
    N = U.shape[0] - 1
    if not 1 <= N <= prob.horizon:
        raise LyapunovError(f"seq must have 2..{prob.horizon + 1} rows, got {U.shape[0]}")
    stepped = prob.factors[:N] * U[:N] + _eta_all(prob, U[:N])
    return float(np.max(np.linalg.norm(stepped - U[1:], axis=1)))

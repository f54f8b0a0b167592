"""Local stable manifolds for time non-homogeneous systems, Lyapunov-Perron style.

The dynamics treated here are linear-plus-remainder recursions in the
diagonal frame of a fixed matrix H with eigenvalues lambda_1 >= ... >= lambda_d:

    x_{k+1} = (I - alpha_k H) x_k + eta(k, x_k),    eta(k, 0) = 0,

with a vanishing step schedule alpha_k and a remainder that is
alpha_k-Lipschitz-small near the origin:  ||eta(k,x) - eta(k,y)|| <=
alpha_k * epsilon * ||x - y||.  Coordinates with lambda > 0 form the stable
block E^s, whose factors 1 - alpha_k lambda lie in (0, 1) under the paper's
step bound alpha_0 * lambda_max < 1; coordinates with lambda <= 0 form E^u.
The stable manifold is the fixed point of an integral operator T on the
space of delta-bounded sequences: forward variation-of-constants on the
stable block, backward tail sums on the unstable block.  T is a contraction
when

    K = 1 - alpha_0 * lambda_stable + epsilon * (K1 + K2) < 1,

where K1 bounds the forward sums  sup_k sum_i alpha_i prod_{j>i}(1-alpha_j
lambda)  and K2 bounds the backward sums of inverse products.  Both sums
telescope, so no series is summed here: K1 = 1/lambda_stable and
K2 = 1/|lambda_unstable| are closed forms.  The tail that the horizon N
drops is bounded in closed form too, along the decay of the fixed orbit
that a weighted sequence space proves (:func:`tail_horizon`).

Everything in this module works in the diagonal frame (coordinates z = Q x of
:class:`~saddle_escape.spectral.SpectralSplit`); conversion happens at the
boundary, in :func:`remainder_from_objective`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .methods import ESCAPED_REGION, STEP_ERROR, _advance, _update
from .objectives import Objective
from .schedules import StepSchedule
from .spectral import SpectralSplit, split

__all__ = [
    "LyapunovError",
    "CertificateError",
    "PerronProblem",
    "ContractionCertificate",
    "ManifoldChart",
    "StablePointResult",
    "sup_distance",
    "bound_K1",
    "bound_K2",
    "contraction_constant",
    "apply_T",
    "solve_stable_point",
    "iterate_raw",
    "self_consistency_error",
    "shooting_oracle",
    "chart",
    "remainder_from_objective",
    "TailBound",
    "tail_horizon",
    "DEFAULT_TAIL_TOL",
]

DEFAULT_TAIL_TOL = 1e-10

# a scan run's cumprods stay at or above this floor, so that they never
# underflow; the default chart's products stay above 3e-4: one run per block
_PRODUCT_FLOOR = 1e-250


class LyapunovError(RuntimeError):
    """Stable-manifold construction failed (neighborhood exit, no convergence...)."""


class CertificateError(LyapunovError):
    """A contraction constant could not be certified."""


# ---------------------------------------------------------------------------
# problem container and sequence space
# ---------------------------------------------------------------------------

@dataclass
class PerronProblem:
    """A linear-plus-remainder system prepared for the operator T.

    Parameters
    ----------
    split : SpectralSplit
        Diagonalization of H; eigenvalues define the stable/unstable blocks.
    schedule : StepSchedule
        Vanishing step sizes alpha_k.
    eta : callable (ks, Z) -> matrix
        Remainder in the diagonal frame, row i is eta(ks[i], Z[i]), and
        eta(k, 0) = 0.
    delta : float
        Radius of the certified neighborhood B(0, delta).
    epsilon : float
        Lipschitz modulus: ||eta(k,x) - eta(k,y)|| <= alpha_k * epsilon * ||x-y||
        on B(0, delta).
    horizon : int
        Sequence truncation length N; sequences have entries 0..N.
    tail_tol : float
        Target for truncated series tails.
    tail_estimate : float, optional
        Recorded a-priori bound on only the terms that the horizon drops
        from entry 0's backward sum, not on the chart's whole truncation
        error (see :func:`tail_horizon`; set by remainder_from_objective).
    horizon_capped : bool
        True when ``tail_estimate`` misses ``tail_tol``: the horizon search
        stopped at its cap, or a given horizon is too short.
    decay_rate : float
        The rate gamma of the weights w_k = prod_{j<k} (1 - alpha_j gamma)
        behind ``tail_estimate``; 0 is the unweighted bound.
    dynamics : callable steps -> update, optional
        The method's own step on rows y = x - x*, a ``methods._update``
        closure for a run of ``steps`` steps; the raw dynamics run it.  Set
        by remainder_from_objective; a hand-built problem has none.

    Built once: ``alphas`` and ``factors[k, i] = 1 - alpha_k lambda_i`` for
    k = 0..N and the scan runs (the unstable block's inverse factors run
    backward).  alpha_0 * lambda_max >= 1 raises LyapunovError.
    """

    split: SpectralSplit
    schedule: StepSchedule
    eta: Callable[[np.ndarray, np.ndarray], np.ndarray]
    delta: float
    epsilon: float
    horizon: int
    tail_tol: float = DEFAULT_TAIL_TOL
    tail_estimate: Optional[float] = None
    horizon_capped: bool = False
    decay_rate: float = 0.0
    dynamics: Optional[Callable[[int], Callable]] = None
    alphas: np.ndarray = field(init=False, repr=False)
    factors: np.ndarray = field(init=False, repr=False)
    stable_runs: list = field(init=False, repr=False)
    unstable_runs: list = field(init=False, repr=False)

    def __post_init__(self):
        if self.horizon < 1:
            raise LyapunovError(f"horizon must be >= 1, got {self.horizon}")
        if not (self.delta > 0):
            raise LyapunovError(f"delta must be positive, got {self.delta}")
        if self.epsilon < 0:
            raise LyapunovError(f"epsilon must be nonnegative, got {self.epsilon}")
        self.alphas = np.asarray(self.schedule.values(self.horizon + 1), dtype=float)
        step_bound = self.alphas[0] * float(np.max(self.split.eigenvalues))
        if step_bound >= 1.0:  # so that every factor the scan reads lies in (0, 1]
            raise LyapunovError(f"alpha_0 * lambda_max = {step_bound:.6g} >= 1: a stable "
                                "factor leaves (0, 1); shrink the schedule")
        f = self.factors = 1.0 - self.alphas[:, None] * self.split.eigenvalues[None, :]
        self.stable_runs = _product_runs(f[:-1, self.split.stable_indices])
        self.unstable_runs = _product_runs(1.0 / f[::-1, self.split.unstable_indices])

    @property
    def dimension(self) -> int:
        return self.split.dimension

    def validate(self) -> None:
        """Spot-check the stated remainder properties by sampling.

        Verifies eta(k, 0) = 0 to 1e-14 and that sampled Lipschitz quotients
        on B(0, delta) stay below alpha_k * epsilon * 1.01 for 1000 random
        pairs (seed 0) at each of k = 0, 1, 2, 5, 10 up to N.  Raises
        LyapunovError on violation.
        """
        rng = np.random.default_rng(0)
        d, pairs = self.dimension, 1000
        for k in [k for k in (0, 1, 2, 5, 10) if k <= self.horizon]:
            X = _sample_ball(rng, pairs, d, self.delta)
            Y = _sample_ball(rng, pairs, d, self.delta)
            E = np.asarray(self.eta(np.full(2 * pairs + 1, k),
                                    np.vstack([np.zeros((1, d)), X, Y])), dtype=float)
            e0, EX, EY = E[0], E[1:pairs + 1], E[pairs + 1:]
            if float(np.linalg.norm(e0)) > 1e-14:
                raise LyapunovError(
                    f"eta(k={k}, 0) = {e0} is not zero (norm {np.linalg.norm(e0):.3e})")
            worst = _lipschitz_quotient(X, Y, EX, EY)
            cap = self.schedule.value(k) * self.epsilon * (1.0 + 1e-2)
            if worst > cap:
                raise LyapunovError(
                    f"sampled Lipschitz quotient {worst:.6e} at k={k} exceeds "
                    f"alpha_k*epsilon*(1+1e-2) = {cap:.6e}")


def _product_runs(f: np.ndarray) -> list:
    """Cut the rows of a factor block f, entries in (0, 1], into runs (a, b, P)
    whose cumprods P, which only fall, stay at or above ``_PRODUCT_FLOOR``; a
    factor below it by itself is a one-row run."""
    runs, a, n, w = [], 0, f.shape[0], 64
    while a < n:
        with np.errstate(under="ignore"):
            P = np.cumprod(f[a:a + w], axis=0)
        out = np.flatnonzero((P < _PRODUCT_FLOOR).any(axis=1))
        if not out.size and a + w < n:
            w *= 8  # gallop, so that a run costs O(its length), not O(n - a)
            continue
        b = a + max(int(out[0]) if out.size else P.shape[0], 1)
        runs.append((a, b, P[:b - a]))
        a, w = b, 64
    return runs


def _sample_ball(rng: np.random.Generator, n: int, d: int, radius: float) -> np.ndarray:
    v = rng.normal(size=(n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = radius * rng.uniform(size=(n, 1)) ** (1.0 / d)
    return v * r


def _lipschitz_quotient(X: np.ndarray, Y: np.ndarray, FX: np.ndarray, FY: np.ndarray) -> float:
    """Largest |F(x) - F(y)| / |x - y| over the row pairs more than 1e-12 apart, else 0.0."""
    gaps = np.linalg.norm(X - Y, axis=1)
    keep = gaps > 1e-12
    quot = np.linalg.norm(FX - FY, axis=1)[keep] / gaps[keep]
    return float(np.max(quot)) if quot.size else 0.0


def sup_distance(u, v) -> float:
    """Sequence-space metric: sup over k of the Euclidean gap ||u_k - v_k||.

    A truncated sequence u_0..u_N of d-vectors is an (N+1, d) array.
    """
    pu, pv = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if pu.shape != pv.shape:
        raise LyapunovError(f"sequence shapes differ: {pu.shape} vs {pv.shape}")
    return float(np.max(np.linalg.norm(pu - pv, axis=1)))


@dataclass(frozen=True)
class ContractionCertificate:
    """Certified contraction data for the operator T.

    ``k`` is the contraction constant  1 - alpha0*lambda_stable +
    epsilon*(k1 + k2); the certificate is ``valid`` only when k < 1.  When it
    is not, ``epsilon_star`` reports the largest Lipschitz modulus
    alpha0*lambda_stable / (K1 + K2) that would certify.
    """

    k1: float
    k2: float
    k: float
    lambda_stable: float
    lambda_unstable: Optional[float]
    alpha0: float
    epsilon: float
    valid: bool
    epsilon_star: float


# ---------------------------------------------------------------------------
# contraction constants
# ---------------------------------------------------------------------------

def bound_K1(split_: SpectralSplit, schedule: StepSchedule) -> float:
    """Bound the forward variation-of-constants sums on the stable block.

    For each positive eigenvalue lambda the partial sums
    S_k = sum_{t<=k} alpha_t * prod_{j=t+1..k} (1 - alpha_j * lambda)
    telescope: alpha_t = (1 - (1 - alpha_t lambda)) / lambda gives
    S_k = (1 - Q_k) / lambda with Q_k = prod_{j<=k} (1 - alpha_j lambda).
    The paper's step bound alpha_0 * lambda_max < 1 puts every factor in
    (0, 1) on a nonincreasing schedule, so S_k < 1/lambda <= 1/lambda_s for
    every k and coordinate, lambda_s the least positive eigenvalue; that is
    the supremum whenever sum alpha_k diverges.  Returns 1/lambda_s.

    Raises CertificateError when no positive eigenvalue exists or
    alpha_0 * lambda_max >= 1 (a factor outside (0, 1) can blow its sums up).
    """
    evals = split_.eigenvalues
    pos = evals[evals > 0]
    if pos.size == 0:
        raise CertificateError("no positive eigenvalue: the stable block is empty")
    alpha0 = float(schedule.value(0))
    step_bound = alpha0 * float(np.max(pos))
    if step_bound >= 1.0:
        raise CertificateError(
            f"alpha_0 * lambda_max = {step_bound:.6g} >= 1; "
            "a stable factor does not lie in (0, 1) — shrink the schedule")
    return 1.0 / float(np.min(pos))


def bound_K2(split_: SpectralSplit, schedule: StepSchedule) -> float:
    """Bound the backward tail sums on the unstable block.

    With mu = |lambda| for the strictly negative eigenvalue closest to zero
    (the slowest inverse decay, hence the dominant coordinate), each probe k
    has the sum

        R_k = sum_{i>=0} alpha_{k+1+i} * P_i,
        P_i = prod_{j=k+1}^{k+1+i} (1 + alpha_j mu)^{-1}.

    Each term telescopes, alpha_{k+1+i} * P_i = (P_{i-1} - P_i) / mu with
    P_{-1} = 1, so R_k = (1 - P_inf) / mu <= 1/mu for every k and every
    positive ``schedule``, with equality when sum alpha_k diverges.
    Returns 1/mu, or 0.0 for an empty unstable block.

    A zero eigenvalue in the unstable block makes the terms non-decaying
    (inverse factors equal to 1), so it is rejected outright.
    """
    evals = split_.eigenvalues
    if np.any(evals == 0.0):
        raise CertificateError(
            "zero eigenvalue in the unstable block: the backward error terms "
            "do not decay, no finite bound exists")
    negs = evals[evals < 0]
    if negs.size == 0:
        return 0.0  # empty unstable block: no backward sums to bound
    return 1.0 / abs(float(np.max(negs)))


def contraction_constant(prob: PerronProblem) -> ContractionCertificate:
    """Assemble the contraction certificate K = 1 - alpha0*lambda + eps*(K1+K2)."""
    return _certify(prob.split, prob.schedule, prob.epsilon)


def _certify(split_: SpectralSplit, schedule: StepSchedule,
             eps: float) -> ContractionCertificate:
    """K = 1 - alpha0*lambda_s + eps*(K1 + K2) and epsilon_star; K2 = 0 when
    eps = 0, as the backward sums carry a factor epsilon and drop out."""
    k1 = bound_K1(split_, schedule)  # raises on an empty stable block
    k2 = 0.0 if eps == 0.0 else bound_K2(split_, schedule)
    evals = split_.eigenvalues
    lam_s = float(np.min(evals[evals > 0]))
    negs = evals[evals < 0]
    lam_u = float(np.max(negs)) if negs.size else None
    alpha0 = float(schedule.value(0))
    k_total = 1.0 - alpha0 * lam_s + eps * (k1 + k2)
    denom = k1 + k2
    return ContractionCertificate(
        k1=k1, k2=k2, k=float(k_total), lambda_stable=lam_s, lambda_unstable=lam_u,
        alpha0=alpha0, epsilon=eps, valid=bool(k_total < 1.0),
        epsilon_star=float(alpha0 * lam_s / denom) if denom > 0 else math.inf)


# ---------------------------------------------------------------------------
# the operator T
# ---------------------------------------------------------------------------

def _as_stable_vector(prob: PerronProblem, x0_plus) -> np.ndarray:
    xp = np.atleast_1d(np.asarray(x0_plus, dtype=float))
    d_s = len(prob.split.stable_indices)
    if xp.shape != (d_s,):
        raise LyapunovError(
            f"x0_plus must have one coordinate per stable eigenvalue ({d_s}), "
            f"got shape {xp.shape}")
    return xp


def _eta_all(prob: PerronProblem, U: np.ndarray) -> np.ndarray:
    E = np.asarray(prob.eta(np.arange(U.shape[0]), U), dtype=float)
    if E.shape != U.shape:
        raise LyapunovError(f"eta returned shape {E.shape}, expected {U.shape}")
    return E


def apply_T(prob: PerronProblem, x0_plus, u) -> np.ndarray:
    """One application of the Lyapunov-Perron operator T to the sequence u.

    u and the result are (N+1, d) arrays, row k the entry u_k.

    In the diagonal frame, with B/C the coordinate-wise products of
    (1 - alpha_j lambda) over the stable/unstable blocks:

    - stable block, forward:   v_{k+1}^+ = B(k,0) x0^+ + sum_{i<=k} B(k,i+1) eta^+(i, u_i)
    - unstable block, backward: v_{k+1}^- = -sum_{i=0}^{N-k-1} C(k+1+i, k+1)^{-1} eta^-(k+1+i, u_{k+1+i})
    - entry 0: v_0^+ = x0^+ and v_0^- = -sum_{i=1}^{N} C(i-1, 0)^{-1} eta^-(i-1, u_{i-1})

    The anchor x0_plus is written into v_0^+ directly, which makes the
    0-th entry independent of u; the fixed point then steps forward
    consistently under the raw dynamics from its own entry 0.

    Raises LyapunovError if any output entry leaves B(0, delta*(1+1e-6)).
    """
    U = np.asarray(u, dtype=float)
    if U.shape != (prob.horizon + 1, prob.dimension):
        raise LyapunovError(
            f"sequence shape {U.shape} does not match horizon+1 x dim = "
            f"({prob.horizon + 1}, {prob.dimension})")
    xp = _as_stable_vector(prob, x0_plus)
    if float(np.linalg.norm(xp)) > prob.delta:
        raise LyapunovError(
            f"anchor |x0_plus| = {np.linalg.norm(xp):.6g} lies outside B(0, delta={prob.delta})")
    E = _eta_all(prob, U)
    V = _scan_T(prob, xp, E)
    norms = np.linalg.norm(V, axis=1)
    limit = prob.delta * (1.0 + 1e-6)
    if float(np.max(norms)) > limit:
        bad = int(np.argmax(norms > limit))
        raise LyapunovError(
            f"operator image leaves the certified neighborhood at entry {bad}: "
            f"|v_{bad}| = {norms[bad]:.6g} > delta*(1+1e-6) = {limit:.6g}")
    return V


def _scan_T(prob: PerronProblem, xp: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Evaluate T from remainder rows E by one recursion on both blocks: the
    stable v+_{k+1} = f_k v+_k + eta+_k forward from v+_0 = xp, and the
    unstable t_m = (eta-_m + t_{m+1}) / g_m from t_{N+1} = 0, v-_m = -t_m,
    as the same recursion run backward with factors 1/g_m and inputs
    eta-_m / g_m.  Entry 0 drops the (N, 0) term eta-_N / prod_{j<=N} g_j."""
    S, Uix = prob.split.stable_indices, prob.split.unstable_indices
    V = np.empty_like(E)
    V[0, S] = xp
    V[1:, S] = _scan(prob.stable_runs, xp, E[:-1, S])
    # row r of the backward scan is t_{N-r}
    t = _scan(prob.unstable_runs, np.zeros(len(Uix)), E[::-1, Uix] / prob.factors[::-1, Uix])
    V[::-1, Uix] = -t
    dropped = E[-1, Uix]
    for _, _, P in prob.unstable_runs:
        dropped = dropped * P[-1]
    V[0, Uix] = dropped - t[-1]
    return V


def _scan(runs: list, v: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Rows v_1..v_n of v_{k+1} = f_k v_k + E[k] from v_0 = v, for factors
    f_k in (0, 1] whose cumprods per run (a, b, P) are ``runs``: within a
    run, v_{k+1} = P_k (v_a + sum_{a<=i<=k} E[i] / P_i), and the state is
    carried across each cut."""
    out = np.empty_like(E)
    for a, b, P in runs:
        out[a:b] = P * (v + np.cumsum(E[a:b] / P, axis=0))
        v = out[b - 1]
    return out


class StablePointResult(NamedTuple):
    """Output of solve_stable_point."""

    x0_minus: np.ndarray
    sequence: np.ndarray
    residual: float
    iterations: int
    history: list


def solve_stable_point(prob: PerronProblem, x0_plus, fp_tol: float = 1e-10,
                       fp_budget: int = 500) -> StablePointResult:
    """Picard-iterate T from the zero sequence until sup-distance < fp_tol.

    Returns the unstable coordinates of the converged 0-th entry (the chart
    value x0_minus), the whole fixed sequence, the final residual, the number
    of applications, and the residual history (geometric at rate <= K for a
    certified problem).
    """
    xp = _as_stable_vector(prob, x0_plus)
    u = np.zeros((prob.horizon + 1, prob.dimension))
    history: list = []
    for j in range(fp_budget):
        v = apply_T(prob, xp, u)
        r = sup_distance(u, v)
        history.append(r)
        u = v
        if r < fp_tol:
            x0_minus = u[0, prob.split.unstable_indices].copy()
            return StablePointResult(x0_minus, u, r, j + 1, history)
    raise LyapunovError(
        f"Picard iteration did not reach fp_tol={fp_tol:g} within {fp_budget} "
        f"applications (last residual {history[-1]:.3e})")


# ---------------------------------------------------------------------------
# raw dynamics, self-consistency, shooting
# ---------------------------------------------------------------------------

def _raw_run(prob: PerronProblem, Z0: np.ndarray, steps: int, radius: float,
             path: Optional[list] = None) -> tuple[np.ndarray, np.ndarray]:
    """Advance the rows of Z0 in lockstep by ``prob.dynamics`` on ``methods._advance``.

    Rows run in y = z Q_inv^T and map back by z = y Q^T; Q is orthonormal,
    so ||y_k|| = ||z_k||.  Returns (exits, Z): per row the first k <= steps
    with ||z_k|| > radius (-1 if none) and z at that k (at ``steps`` if
    none).  ``path`` collects (k, Y) for every k.
    """
    if prob.dynamics is None:
        raise LyapunovError("a hand-built PerronProblem has no raw dynamics; "
                            "build it with remainder_from_objective")
    if steps < 0 or not radius > 0:
        raise LyapunovError("the raw dynamics need steps >= 0 and a positive radius, "
                            f"got {steps} and {radius}")
    res = _advance(prob.dynamics(steps), Z0 @ prob.split.Q_inv.T, steps, 0.0, radius, 1, path)
    failed = [m for t, m in zip(res.terminal, res.message) if t == STEP_ERROR]
    if failed:
        raise LyapunovError(f"the raw dynamics failed: {failed[0]}")
    exits = np.where(np.array(res.terminal) == ESCAPED_REGION, res.k_final, -1)
    return exits, res.final @ prob.split.Q.T


def iterate_raw(prob: PerronProblem, x0, num_steps: int,
                stop_radius: Optional[float] = None) -> tuple[np.ndarray, Optional[int]]:
    """Run the method's own step (``prob.dynamics``) from x0 in the diagonal frame.

    Returns (trajectory, exit_step); exit_step is the first k with
    ||z_k|| > stop_radius, or None if the trajectory stayed inside for all
    num_steps (trajectory then has num_steps+1 rows).  A hand-built
    problem, a negative num_steps, a stop_radius that is NaN or not
    positive and a failed step (a non-finite iterate, say) raise
    LyapunovError.
    """
    x = np.array(x0, dtype=float)
    if x.shape != (prob.dimension,):
        raise LyapunovError(f"x0 must have shape ({prob.dimension},), got {x.shape}")
    path: list = []
    exits, _ = _raw_run(prob, x[None], num_steps,
                        math.inf if stop_radius is None else stop_radius, path)
    traj = np.concatenate([Y for _, Y in path]) @ prob.split.Q.T
    return traj, (int(exits[0]) if exits[0] >= 0 else None)


def self_consistency_error(prob: PerronProblem, seq) -> float:
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


def shooting_oracle(prob: PerronProblem, x0_plus, bracket: float, steps: int,
                    width: float = 1e-12) -> np.ndarray:
    """Independent chart value by bracket refinement on the raw dynamics.

    Requires a one-dimensional unstable block and ``prob.dynamics``, the
    method's own step.  Refines the unstable
    coordinate c in [-bracket, +bracket] on the signed outcome of "does the
    trajectory from (x0_plus, c) leave B(0, delta) (||z_k|| > delta)
    upward or downward within `steps` iterations"; trajectories that stay
    bounded for the whole horizon are treated as not-yet-escaped-downward,
    so the refinement converges to the lower edge of the bounded zone
    (whose width shrinks like 1/steps).
    Returns the bracket midpoint once it is narrower than ``width``, or
    once a round cannot narrow it (its ends are adjacent doubles).  A
    ``width`` that is NaN or not positive raises LyapunovError.

    Each round splits the bracket into 32 cells and runs the 31 interior
    candidates through the dynamics in lockstep, one pass per round.
    """
    if len(prob.split.unstable_indices) != 1:
        raise LyapunovError("shooting validation needs a one-dimensional unstable block")
    if not width > 0:
        raise LyapunovError(f"shooting width must be positive, got {width}")
    xp = _as_stable_vector(prob, x0_plus)
    uix = int(prob.split.unstable_indices[0])
    six = prob.split.stable_indices

    def sides_of(cs) -> np.ndarray:
        """-1/+1 for a start that leaves B(0, delta) with that sign of the
        unstable coordinate, 0 for one that stays inside for all steps."""
        X0 = np.zeros((len(cs), prob.dimension))
        X0[:, six] = xp[None, :]
        X0[:, uix] = cs
        exits, X = _raw_run(prob, X0, steps, prob.delta)
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


# ---------------------------------------------------------------------------
# the chart
# ---------------------------------------------------------------------------

@dataclass
class ManifoldChart:
    """Sampled stable-manifold chart phi: stable block -> unstable block.

    ``grid``, ``phi``, ``residuals``, ``picard_iters`` are parallel; failed
    samples hold None and are listed in ``failures`` with the error message
    (``partial`` is then True).  ``dphi_norms`` maps each finite-difference
    spacing h to the central-difference norm of Dphi(0).
    """

    grid: list
    phi: list
    residuals: list
    picard_iters: list
    phi_zero_norm: float
    dphi_norms: dict
    tangency_ok: bool
    continuity_ok: bool
    partial: bool
    failures: list


def chart(prob: PerronProblem, grid: Sequence, fp_tol: float = 1e-10,
          fp_budget: int = 500) -> ManifoldChart:
    """Map solve_stable_point over a grid of stable-block anchors in B(0, delta/2).

    Also solves at 0 (the chart must vanish there), takes central
    finite-difference derivatives of phi at 0 for the spacings 1e-2 and
    1e-3 (tangency to the stable block requires ||Dphi(0)|| <= 1e-3 at
    both), and flags discontinuity when an adjacent difference quotient
    exceeds 3x the median of the others (a heuristic jump detector, not a
    Lipschitz proof).  Individual sample failures mark the chart partial
    instead of aborting the rest.
    """
    radius = prob.delta / 2.0
    grid_vecs = [_as_stable_vector(prob, g) for g in grid]
    for g in grid_vecs:
        if float(np.linalg.norm(g)) > radius:
            raise LyapunovError(
                f"grid point {g} lies outside the chart radius delta/2={radius:g}")
    results = [_chart_sample(prob, g, fp_tol, fp_budget) for g in grid_vecs]
    phi_vals = [r[0] for r in results]
    residuals = [r[1] for r in results]
    iters = [r[2] for r in results]
    failures = [(g, r[3]) for g, r in zip(grid_vecs, results) if r[3] is not None]

    d_s = len(prob.split.stable_indices)
    zero = np.zeros(d_s)
    phi0, res0, _, fail0 = _chart_sample(prob, zero, fp_tol, fp_budget)
    if fail0 is not None:
        failures.append((zero, fail0))
        phi_zero_norm = math.inf
    else:
        phi_zero_norm = float(np.linalg.norm(phi0))

    dphi_norms: dict = {}
    for h in (1e-2, 1e-3):
        cols = []
        failed = False
        for i in range(d_s):
            e = np.zeros(d_s)
            e[i] = h
            fp, _, _, f1 = _chart_sample(prob, e, fp_tol, fp_budget)
            fm, _, _, f2 = _chart_sample(prob, -e, fp_tol, fp_budget)
            if f1 is not None or f2 is not None:
                failures.append((e, f1 or f2))
                failed = True
                break
            cols.append((fp - fm) / (2.0 * h))
        if not failed:
            D = np.stack(cols, axis=1)  # d_u x d_s
            dphi_norms[h] = float(np.linalg.norm(D, 2))
    tangency_ok = bool(dphi_norms) and all(v <= 1e-3 for v in dphi_norms.values())

    ratios = []
    for i in range(len(grid_vecs) - 1):
        if phi_vals[i] is None or phi_vals[i + 1] is None:
            continue
        gap = float(np.linalg.norm(grid_vecs[i + 1] - grid_vecs[i]))
        if gap > 0:
            ratios.append(float(np.linalg.norm(phi_vals[i + 1] - phi_vals[i])) / gap)
    if len(ratios) >= 3:
        lip = max(1.0, 3.0 * float(np.median(ratios)))
        continuity_ok = all(r <= lip for r in ratios)
    else:
        continuity_ok = True

    return ManifoldChart(grid=grid_vecs, phi=phi_vals, residuals=residuals,
                         picard_iters=iters, phi_zero_norm=phi_zero_norm,
                         dphi_norms=dphi_norms, tangency_ok=tangency_ok,
                         continuity_ok=continuity_ok, partial=bool(failures),
                         failures=failures)


def _chart_sample(prob, g, fp_tol, fp_budget):
    try:
        res = solve_stable_point(prob, g, fp_tol=fp_tol, fp_budget=fp_budget)
        return res.x0_minus, res.residual, res.iterations, None
    except LyapunovError as err:
        return None, None, None, str(err)


# ---------------------------------------------------------------------------
# the truncation horizon
# ---------------------------------------------------------------------------

# weight rates gamma = rung * lambda_s tried for the tail bound, largest first;
# a larger gamma proves faster decay and so a shorter horizon, and eighths
# land within 1/8 lambda_s of the largest certifiable rate
_DECAY_LADDER = (0.875, 0.75, 0.625, 0.5, 0.375, 0.25, 0.125)


class TailBound(NamedTuple):
    """Output of tail_horizon."""

    horizon: int
    tail_estimate: float
    capped: bool
    decay_rate: float


def tail_horizon(split_: SpectralSplit, schedule: StepSchedule, epsilon: float,
                 delta: float, *, order: int = 1, horizon: Optional[int] = None,
                 horizon_cap: int = 100_000,
                 tail_tol: float = DEFAULT_TAIL_TOL) -> TailBound:
    """Pick the horizon N from a bound on the tail it drops, orbit decay included.

    Entry 0 of T sums the unstable remainders backward,
    v_0^- = -sum_{i>=0} eta^-(i, u_i) / P_i with P_i = prod_{j<=i}
    (1 + alpha_j mu) and mu = |lambda_u|; the horizon N keeps the terms
    i < N.  A remainder of ``order`` 1 has only its Lipschitz modulus,
    |eta(i, u)| <= alpha_i epsilon |u|.  One of ``order`` 2 (quadratic in z,
    like the cubic objective's) has the modulus epsilon r / delta on
    B(0, r), so |eta(i, u)| <= alpha_i epsilon |u|^2 / delta.

    Weights (Perron's weighted sequence space).  Measure sequences by
    sup_k |u_k| / w_k with w_k = prod_{j<k} (1 - alpha_j gamma) and
    0 <= gamma < lambda_s, and let rho_j = (1 - alpha_j lambda) /
    (1 - alpha_j gamma) for a stable lambda, in (0, 1) under the step bound
    of :func:`bound_K1`.  On the stable block the anchor term carries
    prod_{j<=k} rho_j <= rho_0, and the forward sums
    S_k = rho_k S_{k-1} + alpha_k / (1 - alpha_k gamma) telescope, because
    alpha_k / (1 - alpha_k gamma) = (1 - rho_k) / (lambda - gamma), to
    (1 - prod_{j<=k} rho_j) / (lambda - gamma) < 1 / (lambda_s - gamma).
    On the unstable block w_i / w_k <= 1 for i >= k, so the backward sums
    only shrink and 1/mu still bounds them.  So

        K_w = (1 - alpha_0 lambda_s) / (1 - alpha_0 gamma)
              + epsilon * (1 / (lambda_s - gamma) + 1/mu)

    plays the part of K (gamma = 0 gives K_w = K): when K_w < 1, T maps the
    weighted delta-ball into itself and contracts there, so its fixed
    orbit, the one the unweighted certificate finds, decays:
    |u_i| <= delta w_i.

    Tail.  The dropped terms are then at most

        tail(N) = epsilon * delta * sum_{i>=N} alpha_i w_i^m / P_i,   m = order,

    and this telescopes as well.  With q_i = w_{i+1}^m / P_i,
    q_{i-1} - q_i = (alpha_i w_i^m / P_i) d_i where
    d_i = mu + m gamma - (m - 1) alpha_i gamma^2 (m = 1, 2), and d_i >= d_N
    for i >= N on a nonincreasing schedule, so

        tail(N) <= epsilon * delta * w_N^m / (P_{N-1} d_N).

    That closed form is ``tail_estimate``; it decreases strictly in N.  With
    gamma = 0 it is the unweighted epsilon * delta / (mu P_{N-1}).

    It bounds only those dropped terms, not the chart's whole truncation
    error (the truncated fixed point differs at every entry, most near N).
    Measured: the N = 3017 cubic chart is within 6e-15 of N = 1e5, and the
    manufactured manifold z2 = c z1^2 is matched to 1.8e-14.

    gamma is the largest of lambda_s * (7/8, 6/8, ..., 1/8) with K_w < 1,
    else 0.  Unless ``horizon`` is given, N is the smallest value in
    [min(1024, horizon_cap), horizon_cap] whose bound is below ``tail_tol``,
    or ``horizon_cap`` if none is (``capped`` then says so).  The search
    evaluates the bound on prefixes of doubling length, so it allocates
    O(N), not O(horizon_cap).
    """
    if order not in (1, 2):
        raise LyapunovError(f"remainder order must be 1 or 2, got {order}")
    last = horizon_cap if horizon is None else horizon
    if last < 1:
        raise LyapunovError(f"horizon and horizon_cap must be >= 1, got {last}")
    evals = split_.eigenvalues
    negs = evals[evals < 0]
    if negs.size == 0:
        raise LyapunovError("the tail bound needs a strictly negative eigenvalue")
    bound_K1(split_, schedule)  # raises unless alpha_0 * lambda_max < 1
    lam_s = float(np.min(evals[evals > 0]))
    mu = -float(np.max(negs))
    alpha0 = float(schedule.value(0))
    gamma = next((r * lam_s for r in _DECAY_LADDER
                  if (1.0 - alpha0 * lam_s) / (1.0 - alpha0 * r * lam_s)
                  + epsilon * (1.0 / (lam_s - r * lam_s) + 1.0 / mu) < 1.0), 0.0)

    def bounds(n: int) -> np.ndarray:
        """The closed-form tail bound at N = 1..n (entry N - 1)."""
        a = np.asarray(schedule.values(n + 1), dtype=float)
        log_w_over_p = np.cumsum(order * np.log1p(-gamma * a[:n]) - np.log1p(mu * a[:n]))
        d = mu + order * gamma - (order - 1) * gamma * gamma * a[1:]
        return epsilon * delta * np.exp(log_w_over_p) / d

    if horizon is None:
        lo = n = min(1024, horizon_cap)
        while True:
            tails = bounds(n)
            met = np.flatnonzero(tails[lo - 1:] < tail_tol)
            if met.size or n == horizon_cap:
                break
            lo, n = n + 1, min(2 * n, horizon_cap)
        horizon = lo + int(met[0]) if met.size else horizon_cap
    else:
        tails = bounds(horizon)
    tail = float(tails[horizon - 1])
    return TailBound(int(horizon), tail, not tail < tail_tol, gamma)


# ---------------------------------------------------------------------------
# from an objective to a problem (conjugation into the diagonal frame)
# ---------------------------------------------------------------------------

def remainder_from_objective(obj: Objective, x_star, schedule: StepSchedule, *,
                             method: str = "gd", delta0: float = 0.1,
                             max_halvings: int = 20, horizon: Optional[int] = None,
                             horizon_cap: int = 100_000,
                             tail_tol: float = DEFAULT_TAIL_TOL,
                             epsilon: Optional[float] = None,
                             ) -> tuple[PerronProblem, ContractionCertificate]:
    """Build the diagonal-frame remainder problem for a method at a saddle.

    For gradient descent the update is g(k,x) = x - alpha_k grad f(x), whose
    deviation from its linearization at the critical point x* is
    theta(k,x) = -alpha_k*(grad f(x) - H (x - x*)) with H the Hessian there.
    Conjugating by the eigenbasis (z = Q(x - x*)) gives the remainder

        eta(k, z) = -alpha_k * Q * (grad f(x* + Q^{-1} z) - H Q^{-1} z),

    which vanishes at 0 and inherits a Lipschitz modulus alpha_k * epsilon
    from the Hessian's modulus of continuity.  epsilon is the analytic bound
    for the builtin objectives (0 for quadratics; 6|a|delta for the cubic
    perturbation, a conservative bound on the Hessian deviation over
    B(0, delta)) and otherwise a sampled-quotient estimate over 10000 random
    pairs (seed 0), times a 1.5 safety factor.

    delta starts at delta0 and is halved (at most max_halvings times) until
    the certificate K < 1 holds.  The horizon, its tail bound and whether
    the bound misses tail_tol come from :func:`tail_horizon`, with the
    analytic cubic modulus as an order-2 remainder (a sampled or given
    epsilon is constant in the radius, order 1), and are recorded on the
    problem as ``horizon``, ``tail_estimate`` and ``horizon_capped``, with
    the method's own step on y = x - x* as ``dynamics``.  Its ``eta`` reads
    alpha_k from the problem's ``alphas``, so it takes k <= N only.

    Returns (PerronProblem, ContractionCertificate).  Only gradient descent
    is implemented: the other methods linearize differently at critical
    points and their remainders are not this Taylor form.
    """
    if method != "gd":
        raise NotImplementedError(
            f"remainder extraction implemented for 'gd' only, got {method!r}")
    x_star = np.asarray(x_star, dtype=float)
    g_star = np.asarray(obj.grad(x_star), dtype=float)
    if float(np.linalg.norm(g_star)) > 1e-8:
        raise LyapunovError(
            f"x_star is not a critical point: |grad| = {np.linalg.norm(g_star):.3e}")
    H = np.asarray(obj.hess(x_star), dtype=float)
    sp = split(H)
    evals = sp.eigenvalues
    if not np.any(evals > 0) or not np.any(evals < 0):
        raise LyapunovError(
            "need at least one positive and one strictly negative eigenvalue "
            f"at x_star (spectrum {evals}); degenerate-only spectra are rejected")

    Q, Qi = sp.Q, sp.Q_inv

    def psi_batch(Z: np.ndarray) -> np.ndarray:
        if not obj.vectorized:  # one point at a time
            return np.array([-(Q @ (obj.grad(x_star + Qi @ z) - H @ (Qi @ z))) for z in Z])
        W = Z @ Qi.T
        return -((np.asarray(obj.grad(x_star[None, :] + W)) - W @ H.T) @ Q.T)

    def eta(ks, Z):  # k <= N: prob, built below, holds alpha_0..alpha_N
        return prob.alphas[np.asarray(ks)][:, None] * psi_batch(np.asarray(Z, dtype=float))

    a_coef = getattr(obj, "cubic_coefficient", None)
    is_quadratic = getattr(obj, "quadratic_matrix", None) is not None

    delta = float(delta0)
    eps_val = cert = None
    for _ in range(max_halvings + 1):
        if epsilon is not None:
            eps_val = float(epsilon)
        elif is_quadratic:
            eps_val = 0.0
        elif a_coef is not None:
            eps_val = 6.0 * abs(a_coef) * delta
        else:
            eps_val = _sampled_epsilon(psi_batch, sp.dimension, delta)
        cert = _certify(sp, schedule, eps_val)
        if cert.valid or epsilon is not None:
            break
        delta *= 0.5
    if not cert.valid and epsilon is None:
        raise CertificateError(
            f"no contraction after {max_halvings} delta-halvings "
            f"(K = {cert.k:.6g}, epsilon needs to be < {cert.epsilon_star:.6g})")

    analytic_cubic = epsilon is None and not is_quadratic and a_coef is not None
    tb = tail_horizon(sp, schedule, eps_val, delta, order=2 if analytic_cubic else 1,
                      horizon=horizon, horizon_cap=horizon_cap, tail_tol=tail_tol)
    # obj's raw callables, so that a step checks its points once, not twice
    shifted = Objective(sp.dimension, lambda y: obj._eval(x_star + y),
                        lambda y: obj._grad(x_star + y), lambda y: obj._hess(x_star + y),
                        name=obj.name, vectorized=obj.vectorized)
    prob = PerronProblem(split=sp, schedule=schedule, eta=eta, delta=delta,
                         epsilon=eps_val, horizon=tb.horizon, tail_tol=tail_tol,
                         tail_estimate=tb.tail_estimate, horizon_capped=tb.capped,
                         decay_rate=tb.decay_rate,
                         dynamics=lambda steps: _update(method, shifted, schedule, steps))
    return prob, cert


def _sampled_epsilon(psi_batch, d: int, delta: float) -> float:
    """Estimate the Lipschitz modulus of psi on B(0, delta) from 10000 random
    pairs, times a 1.5 safety factor."""
    rng = np.random.default_rng(0)
    X = _sample_ball(rng, 10_000, d, delta)
    Y = _sample_ball(rng, 10_000, d, delta)
    return _lipschitz_quotient(X, Y, psi_batch(X), psi_batch(Y)) * 1.5

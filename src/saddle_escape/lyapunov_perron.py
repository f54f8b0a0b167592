"""Local stable manifolds for time non-homogeneous systems, Lyapunov-Perron style.

The dynamics treated here are linear-plus-remainder recursions in the
diagonal frame of a fixed matrix H with eigenvalues lambda_1 >= ... >= lambda_d:

    x_{k+1} = (I - alpha_k H) x_k + eta(k, x_k),    eta(k, 0) = 0,

with a vanishing step schedule alpha_k and a remainder that is
alpha_k-Lipschitz-small near the origin:  ||eta(k,x) - eta(k,y)|| <=
alpha_k * epsilon * ||x - y||.  Coordinates with lambda > 0 form the stable
block E^s (factors 1 - alpha_k lambda < 1); coordinates with lambda <= 0 form
E^u.  The stable manifold is built as the fixed point of an integral operator
T on the space of delta-bounded sequences: forward variation-of-constants on
the stable block, backward tail sums on the unstable block.  T is a
contraction when

    K = 1 - alpha_0 * lambda_stable + epsilon * (K1 + K2) < 1,

where K1 bounds the forward sums  sup_k sum_i alpha_i prod_{j>i}(1-alpha_j
lambda)  and K2 bounds the backward sums of inverse products.  Both sums
telescope, so no series is summed here: K1 = 1/lambda_stable and
K2 = 1/|lambda_unstable| are closed forms, and the truncation tail at the
horizon N is bounded by one product over alpha_0..alpha_N.

Everything in this module works in the diagonal frame (coordinates z = Q x of
:class:`~saddle_escape.spectral.SpectralSplit`); conversion happens at the
boundary, in :func:`remainder_from_objective`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .objectives import Objective
from .schedules import StepSchedule
from .spectral import SpectralSplit, split

__all__ = [
    "LyapunovError",
    "CertificateError",
    "PerronProblem",
    "ContractionCertificate",
    "SequenceSpaceElement",
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
    "DEFAULT_TAIL_TOL",
]

DEFAULT_TAIL_TOL = 1e-10

# fall back from the cumprod closed forms to sequential scans outside this range
_PRODUCT_UNDERFLOW = 1e-250
_PRODUCT_OVERFLOW = 1e250


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
    eta : callable (k, x) -> vector
        Remainder in the diagonal frame, eta(k, 0) = 0.
    delta : float
        Radius of the certified neighborhood B(0, delta).
    epsilon : float
        Lipschitz modulus: ||eta(k,x) - eta(k,y)|| <= alpha_k * epsilon * ||x-y||
        on B(0, delta).
    horizon : int
        Sequence truncation length N; sequences have entries 0..N.
    tail_tol : float
        Target for truncated series tails.
    eta_batch : callable (ks, X) -> matrix, optional
        Vectorized remainder: row i is eta(ks[i], X[i]).  When omitted it is
        ``eta`` applied row by row; every reader in this module calls
        ``eta_batch`` only.
    tail_estimate : float, optional
        Recorded a-priori bound on the backward tail that the horizon cuts
        off the sum anchoring entry 0, epsilon * delta * P_N / |lambda_u|
        with P_N = prod_{j<=N} (1 + alpha_j |lambda_u|)^{-1} (filled in by
        :func:`remainder_from_objective`).
    """

    split: SpectralSplit
    schedule: StepSchedule
    eta: Callable[[int, np.ndarray], np.ndarray]
    delta: float
    epsilon: float
    horizon: int
    tail_tol: float = DEFAULT_TAIL_TOL
    eta_batch: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    tail_estimate: Optional[float] = None
    alphas: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.horizon < 1:
            raise LyapunovError(f"horizon must be >= 1, got {self.horizon}")
        if not (self.delta > 0):
            raise LyapunovError(f"delta must be positive, got {self.delta}")
        if self.epsilon < 0:
            raise LyapunovError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.eta_batch is None:
            self.eta_batch = _rowwise(self.eta)
        self.alphas = np.asarray(self.schedule.values(self.horizon + 1), dtype=float)

    @property
    def dimension(self) -> int:
        return self.split.dimension

    def validate(self, sample_ks: Sequence[int] = (0, 1, 2, 5, 10), pairs: int = 1000,
                 seed: int = 0) -> None:
        """Spot-check the stated remainder properties by sampling.

        Verifies eta(k, 0) = 0 to 1e-14 and that sampled Lipschitz quotients
        on B(0, delta) stay below alpha_k * epsilon * 1.01 for ``pairs``
        random pairs at each sampled k.  Raises LyapunovError on violation.
        """
        rng = np.random.default_rng(seed)
        d = self.dimension
        for k in sample_ks:
            X = _sample_ball(rng, pairs, d, self.delta)
            Y = _sample_ball(rng, pairs, d, self.delta)
            E = np.asarray(self.eta_batch(np.full(2 * pairs + 1, k),
                                          np.vstack([np.zeros((1, d)), X, Y])), dtype=float)
            e0, EX, EY = E[0], E[1:pairs + 1], E[pairs + 1:]
            if float(np.linalg.norm(e0)) > 1e-14:
                raise LyapunovError(
                    f"eta(k={k}, 0) = {e0} is not zero (norm {np.linalg.norm(e0):.3e})")
            gaps = np.linalg.norm(X - Y, axis=1)
            keep = gaps > 1e-12
            quot = np.linalg.norm(EX - EY, axis=1)[keep] / gaps[keep]
            cap = self.schedule.value(k) * self.epsilon * (1.0 + 1e-2)
            worst = float(np.max(quot)) if quot.size else 0.0
            if worst > cap:
                raise LyapunovError(
                    f"sampled Lipschitz quotient {worst:.6e} at k={k} exceeds "
                    f"alpha_k*epsilon*(1+1e-2) = {cap:.6e}")


def _rowwise(eta: Callable[[int, np.ndarray], np.ndarray]):
    """The batched form (ks, X) -> rows of a scalar remainder eta(k, x)."""
    return lambda ks, X: np.array([eta(int(k), x) for k, x in zip(ks, X)], dtype=float)


def _sample_ball(rng: np.random.Generator, n: int, d: int, radius: float) -> np.ndarray:
    v = rng.normal(size=(n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = radius * rng.uniform(size=(n, 1)) ** (1.0 / d)
    return v * r


@dataclass
class SequenceSpaceElement:
    """A truncated sequence u_0..u_N of d-vectors (rows of ``points``)."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2:
            raise LyapunovError(f"sequence points must be 2-D, got shape {self.points.shape}")

    @property
    def horizon(self) -> int:
        return self.points.shape[0] - 1

    @classmethod
    def zeros(cls, horizon: int, dimension: int) -> "SequenceSpaceElement":
        return cls(np.zeros((horizon + 1, dimension)))

    def copy(self) -> "SequenceSpaceElement":
        return SequenceSpaceElement(self.points.copy())


def _points_of(u) -> np.ndarray:
    if isinstance(u, SequenceSpaceElement):
        return u.points
    return np.asarray(u, dtype=float)


def sup_distance(u, v) -> float:
    """Sequence-space metric: sup over k of the Euclidean gap ||u_k - v_k||."""
    pu, pv = _points_of(u), _points_of(v)
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

    With lambda the least positive eigenvalue, the partial sums
    S_k = sum_{t<=k} alpha_t * prod_{j=t+1..k} (1 - alpha_j * lambda)
    telescope: alpha_t = (1 - (1 - alpha_t lambda)) / lambda gives
    S_k = (1 - Q_k) / lambda with Q_k = prod_{j<=k} (1 - alpha_j lambda).
    Every factor lies in (0, 1) once alpha_0 * lambda < 1, because the
    schedule is nonincreasing, so S_k < 1/lambda for every k; 1/lambda is
    the supremum whenever sum alpha_k diverges.  Returns 1/lambda.

    Raises CertificateError when no positive eigenvalue exists or
    alpha_0 * lambda >= 1 (the very first factor would not contract).
    """
    evals = split_.eigenvalues
    pos = evals[evals > 0]
    if pos.size == 0:
        raise CertificateError("no positive eigenvalue: the stable block is empty")
    lam = float(np.min(pos))
    alpha0 = float(schedule.value(0))
    if alpha0 * lam >= 1.0:
        raise CertificateError(
            f"alpha_0 * lambda = {alpha0 * lam:.6g} >= 1; "
            "the first stable factor does not contract — shrink the schedule")
    return 1.0 / lam


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
    """Assemble the contraction certificate K = 1 - alpha0*lambda + eps*(K1+K2).

    A zero remainder (epsilon = 0) needs no K2: the backward sums carry a
    factor epsilon and drop out, so for problems without a strictly negative
    eigenvalue the certificate is still well defined.
    """
    evals = prob.split.eigenvalues
    pos = evals[evals > 0]
    if pos.size == 0:
        raise CertificateError("no positive eigenvalue: the stable block is empty")
    lam_s = float(np.min(pos))
    negs = evals[evals < 0]
    lam_u = float(np.max(negs)) if negs.size else None
    k1 = bound_K1(prob.split, prob.schedule)
    if prob.epsilon == 0.0:
        k2 = 0.0  # zero remainder: the K2 term is multiplied by epsilon = 0
    else:
        k2 = bound_K2(prob.split, prob.schedule)
    return _certificate(k1, k2, lam_s, lam_u, float(prob.schedule.value(0)), prob.epsilon)


def _certificate(k1: float, k2: float, lam_s: float, lam_u: Optional[float],
                 alpha0: float, eps: float) -> ContractionCertificate:
    """K = 1 - alpha0*lambda_s + eps*(K1 + K2), valid when K < 1, and the
    largest certifiable epsilon alpha0*lambda_s / (K1 + K2)."""
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
    E = np.asarray(prob.eta_batch(np.arange(U.shape[0]), U), dtype=float)
    if E.shape != U.shape:
        raise LyapunovError(f"eta_batch returned shape {E.shape}, expected {U.shape}")
    return E


def apply_T(prob: PerronProblem, x0_plus, u) -> SequenceSpaceElement:
    """One application of the Lyapunov-Perron operator T to the sequence u.

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
    U = _points_of(u)
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
    return SequenceSpaceElement(V)


def _scan_T(prob: PerronProblem, xp: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Evaluate T given precomputed remainder rows E; cumprod fast path with
    a sequential-scan fallback when the products leave floating-point range."""
    N = prob.horizon
    S = prob.split.stable_indices
    Uix = prob.split.unstable_indices
    lam_s = prob.split.eigenvalues[S]
    lam_u = prob.split.eigenvalues[Uix]
    alphas = prob.alphas
    Ep = E[:, S]
    Em = E[:, Uix]
    V = np.zeros_like(E)
    V[0, S] = xp

    # stable block: v+_{k+1} = f_k v+_k + eta+_k,  f_k = 1 - alpha_k lam_s
    if len(S):
        facs = 1.0 - alphas[:N, None] * lam_s[None, :]  # rows k = 0..N-1
        with np.errstate(over="ignore", under="ignore"):
            P = np.cumprod(facs, axis=0)  # P[k] = prod_{j<=k} f_j
        if np.all(facs > 0.0) and (P.size == 0 or float(np.min(P)) > _PRODUCT_UNDERFLOW):
            # closed form v+_{k+1} = P_k (x0+ + sum_{i<=k} eta+_i / P_i)
            V[1:, S] = P * (xp[None, :] + np.cumsum(Ep[:N] / P, axis=0))
        else:
            vp = xp.copy()
            for k in range(N):
                vp = facs[k] * vp + Ep[k]
                V[k + 1, S] = vp

    # unstable block: t_m = (eta-_m + t_{m+1}) / g_m backward, v-_m = -t_m
    if len(Uix):
        gfac = 1.0 - alphas[:, None] * lam_u[None, :]  # rows k = 0..N, all >= 1 for lam_u < 0
        with np.errstate(over="ignore", under="ignore"):
            Pc = np.cumprod(gfac, axis=0)  # Pc[m] = prod_{j<=m} g_j
        finite = np.all(np.isfinite(Pc))
        if finite and np.all(gfac > 0.0) and float(np.max(Pc)) < _PRODUCT_OVERFLOW:
            W = Em / Pc
            G = np.cumsum(W, axis=0)
            Pc_shift = np.vstack([np.ones((1, len(Uix))), Pc[:-1]])  # Pc_{m-1}
            T_all = Pc_shift * (G[-1][None, :] - G + W)  # t_m = Pc_{m-1} sum_{i>=m} W_i
            V[1:, Uix] = -T_all[1:]
            v0m = -(T_all[0] - Em[N] / Pc[N])
            V[0, Uix] = v0m
        else:
            t = np.zeros(len(Uix))
            ts = np.empty((N + 1, len(Uix)))
            for m in range(N, -1, -1):
                t = (Em[m] + t) / gfac[m]
                ts[m] = t
            V[1:, Uix] = -ts[1:]
            # entry 0 drops the (N, 0) term of the full backward sum
            cinv_n0 = np.exp(-np.sum(np.log(gfac), axis=0))
            V[0, Uix] = -(ts[0] - cinv_n0 * Em[N])
    return V


class StablePointResult(NamedTuple):
    """Output of solve_stable_point."""

    x0_minus: np.ndarray
    sequence: SequenceSpaceElement
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
    u = SequenceSpaceElement.zeros(prob.horizon, prob.dimension)
    history: list = []
    for j in range(fp_budget):
        v = apply_T(prob, xp, u)
        r = sup_distance(u, v)
        history.append(r)
        u = v
        if r < fp_tol:
            x0_minus = u.points[0, prob.split.unstable_indices].copy()
            return StablePointResult(x0_minus, u, r, j + 1, history)
    raise LyapunovError(
        f"Picard iteration did not reach fp_tol={fp_tol:g} within {fp_budget} "
        f"applications (last residual {history[-1]:.3e})")


# ---------------------------------------------------------------------------
# raw dynamics, self-consistency, shooting
# ---------------------------------------------------------------------------

def _raw_alphas(prob: PerronProblem, num_steps: int) -> np.ndarray:
    if num_steps + 1 <= prob.alphas.shape[0]:
        return prob.alphas
    return np.asarray(prob.schedule.values(num_steps + 1), dtype=float)


def _raw_advance(prob: PerronProblem, X0: np.ndarray, steps: int, radius: Optional[float],
                 path: Optional[list] = None) -> tuple[np.ndarray, np.ndarray]:
    """Advance the rows of X0 in lockstep by x_{k+1} = (I - alpha_k H) x_k + eta(k, x_k).

    Returns (exits, X): per row the first k <= steps with x_k . x_k >
    radius^2 (-1 if none; a row leaves the active set there) and x at that
    k (at ``steps`` if none).  ``path`` collects each step's active rows.
    """
    factors = 1.0 - _raw_alphas(prob, steps)[:steps, None] * prob.split.eigenvalues[None, :]
    r2 = np.inf if radius is None else radius * radius
    exits, final = np.full(X0.shape[0], -1, dtype=np.int64), X0.copy()
    X, rows = X0, np.arange(X0.shape[0])  # active rows only
    for k in range(steps):
        X = factors[k][None, :] * X + np.asarray(
            prob.eta_batch(np.full(rows.size, k), X), dtype=float)
        if path is not None:
            path.append(X)
        out = np.einsum("ij,ij->i", X, X) > r2
        if out.any():
            exits[rows[out]], final[rows[out]] = k + 1, X[out]
            X, rows = X[~out], rows[~out]
            if not rows.size:
                break
    final[rows] = X
    return exits, final


def iterate_raw(prob: PerronProblem, x0, num_steps: int,
                stop_radius: Optional[float] = None) -> tuple[np.ndarray, Optional[int]]:
    """Run the raw recursion x_{k+1} = (I - alpha_k H) x_k + eta(k, x_k).

    Works in the diagonal frame.  Returns (trajectory, exit_step); exit_step
    is the first k with ||x_k|| > stop_radius, or None if the trajectory
    stayed inside for all num_steps (trajectory then has num_steps+1 rows).
    """
    x = np.array(x0, dtype=float)
    if x.shape != (prob.dimension,):
        raise LyapunovError(f"x0 must have shape ({prob.dimension},), got {x.shape}")
    path = [x[None]]
    exits, _ = _raw_advance(prob, x[None], num_steps, stop_radius, path)
    return np.concatenate(path), (int(exits[0]) if exits[0] >= 0 else None)


def self_consistency_error(prob: PerronProblem, seq) -> float:
    """Max per-entry gap between seq and its own raw forward step.

    For the converged fixed sequence this is at the fixed-point tolerance:
    the integral form and the recursive form describe the same orbit.
    """
    U = _points_of(seq)
    N = U.shape[0] - 1
    lam = prob.split.eigenvalues
    alphas = _raw_alphas(prob, N)
    E = _eta_all(prob, U[:N])
    stepped = (1.0 - alphas[:N, None] * lam[None, :]) * U[:N] + E
    return float(np.max(np.linalg.norm(stepped - U[1:], axis=1)))


def shooting_oracle(prob: PerronProblem, x0_plus, bracket: float, steps: int,
                    width: float = 1e-12) -> np.ndarray:
    """Independent chart value by bracket refinement on the raw dynamics.

    Requires a one-dimensional unstable block.  Refines the unstable
    coordinate c in [-bracket, +bracket] on the signed outcome of "does the
    trajectory from (x0_plus, c) leave B(0, delta) upward or downward within
    `steps` iterations"; trajectories that stay bounded for the whole horizon
    are treated as not-yet-escaped-downward, so the refinement converges to
    the lower edge of the bounded zone (whose width shrinks like 1/steps).
    Returns the bracket midpoint once it is narrower than ``width``.

    Each round splits the bracket into 32 cells and runs the 31 interior
    candidates through the dynamics in lockstep, one pass per round.
    """
    if len(prob.split.unstable_indices) != 1:
        raise LyapunovError("shooting validation needs a one-dimensional unstable block")
    xp = _as_stable_vector(prob, x0_plus)
    uix = int(prob.split.unstable_indices[0])
    six = prob.split.stable_indices

    def sides_of(cs) -> np.ndarray:
        """-1/+1 for a start that leaves B(0, delta) with that sign of the
        unstable coordinate, 0 for one that stays inside for all steps."""
        X0 = np.zeros((len(cs), prob.dimension))
        X0[:, six] = xp[None, :]
        X0[:, uix] = cs
        exits, X = _raw_advance(prob, X0, steps, prob.delta)
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
          fp_budget: int = 500, delta_grid: Optional[float] = None,
          tangency_spacings: Sequence[float] = (1e-2, 1e-3),
          tangency_tol: float = 1e-3) -> ManifoldChart:
    """Map solve_stable_point over a grid of stable-block anchors.

    Also solves at 0 (the chart must vanish there), takes central
    finite-difference derivatives of phi at 0 for each spacing in
    ``tangency_spacings`` (tangency to the stable block requires
    ||Dphi(0)|| <= tangency_tol), and flags discontinuity when an adjacent
    difference quotient exceeds 3x the median of the others (a heuristic
    jump detector, not a Lipschitz proof).  Individual sample failures mark
    the chart partial instead of aborting the rest.
    """
    if delta_grid is None:
        delta_grid = prob.delta / 2.0
    grid_vecs = [_as_stable_vector(prob, g) for g in grid]
    for g in grid_vecs:
        if float(np.linalg.norm(g)) > delta_grid:
            raise LyapunovError(
                f"grid point {g} lies outside the chart radius delta_grid={delta_grid:g}")
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
    for h in tangency_spacings:
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
    tangency_ok = bool(dphi_norms) and all(v <= tangency_tol for v in dphi_norms.values())

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
# from an objective to a problem (conjugation into the diagonal frame)
# ---------------------------------------------------------------------------

class _AlphaCache:
    """Grow-on-demand view of a schedule's value array (amortized O(n))."""

    def __init__(self, schedule: StepSchedule, initial: int = 4096):
        self.schedule = schedule
        self.arr = np.asarray(schedule.values(initial), dtype=float)

    def range(self, a: int, b: int) -> np.ndarray:
        if b > self.arr.shape[0]:
            n = max(b, 2 * self.arr.shape[0])
            self.arr = np.asarray(self.schedule.values(n), dtype=float)
        return self.arr[a:b]


def remainder_from_objective(obj: Objective, x_star, schedule: StepSchedule, *,
                             method: str = "gd", delta0: float = 0.1,
                             max_halvings: int = 20, horizon: Optional[int] = None,
                             horizon_cap: int = 100_000,
                             tail_tol: float = DEFAULT_TAIL_TOL,
                             epsilon: Optional[float] = None,
                             n_pairs: int = 10_000, safety: float = 1.5, seed: int = 0,
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
    B(0, delta)) and a sampled-quotient estimate (times a 1.5 safety factor)
    otherwise.

    delta starts at delta0 and is halved (at most max_halvings times) until
    the certificate K < 1 holds.  The backward sum anchoring entry 0 loses
    its terms beyond the horizon N; they telescope to at most
    epsilon*delta*P_N/|lambda_u| with P_N = prod_{j<=N} (1 + alpha_j
    |lambda_u|)^{-1}.  Unless ``horizon`` is given, N is the smallest value
    in [min(1024, horizon_cap), horizon_cap] whose bound is below tail_tol,
    or horizon_cap if none is; the bound at N is recorded on the problem as
    ``tail_estimate``.

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

    def psi(z: np.ndarray) -> np.ndarray:
        w = Qi @ z
        return -(Q @ (obj.grad(x_star + w) - H @ w))

    def eta(k: int, z: np.ndarray) -> np.ndarray:
        return schedule.value(k) * psi(z)

    if obj.vectorized:
        def psi_batch(Z: np.ndarray) -> np.ndarray:
            W = Z @ Qi.T
            return -((np.asarray(obj.grad(x_star[None, :] + W)) - W @ H.T) @ Q.T)
    else:
        def psi_batch(Z: np.ndarray) -> np.ndarray:
            return np.array([psi(z) for z in Z])

    alpha_cache = _AlphaCache(schedule)

    def eta_batch(ks, Z):
        ks = np.asarray(ks)
        alph = alpha_cache.range(0, int(ks.max()) + 1)[ks]
        return alph[:, None] * psi_batch(np.asarray(Z, dtype=float))

    a_coef = getattr(obj, "cubic_coefficient", None)
    is_quadratic = getattr(obj, "quadratic_matrix", None) is not None

    k1 = bound_K1(sp, schedule)
    if is_quadratic and not epsilon:
        # exactly-zero remainder: the backward bound enters with weight 0
        k2 = 0.0
    else:
        k2 = bound_K2(sp, schedule)
    lam_s = float(np.min(evals[evals > 0]))
    lam_u = float(np.max(evals[evals < 0]))
    alpha0 = float(schedule.value(0))

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
            eps_val = _sampled_epsilon(psi_batch, sp.dimension, delta, n_pairs, safety, seed)
        cert = _certificate(k1, k2, lam_s, lam_u, alpha0, eps_val)
        if cert.valid or epsilon is not None:
            break
        delta *= 0.5
    if not cert.valid and epsilon is None:
        raise CertificateError(
            f"no contraction after {max_halvings} delta-halvings "
            f"(K = {cert.k:.6g}, epsilon needs to be < {cert.epsilon_star:.6g})")

    mu = -lam_u
    last = horizon_cap if horizon is None else horizon
    if last < 1:
        raise LyapunovError(f"horizon and horizon_cap must be >= 1, got {last}")
    alphas = np.asarray(schedule.values(last + 1), dtype=float)
    # tails[N] bounds the terms beyond N: eps*delta*P_N/mu
    tails = eps_val * delta * np.exp(-np.cumsum(np.log1p(mu * alphas))) / mu
    if horizon is None:
        first = min(1024, horizon_cap)
        met = np.flatnonzero(tails[first:] < tail_tol)
        horizon = first + int(met[0]) if met.size else horizon_cap
    tail_estimate = tails[horizon]

    prob = PerronProblem(split=sp, schedule=schedule, eta=eta, delta=delta,
                         epsilon=eps_val, horizon=int(horizon), tail_tol=tail_tol,
                         eta_batch=eta_batch, tail_estimate=float(tail_estimate))
    return prob, cert


def _sampled_epsilon(psi_batch, d: int, delta: float, n_pairs: int,
                     safety: float, seed: int) -> float:
    """Estimate the Lipschitz modulus of psi on B(0, delta) from random pairs."""
    rng = np.random.default_rng(seed)
    X = _sample_ball(rng, n_pairs, d, delta)
    Y = _sample_ball(rng, n_pairs, d, delta)
    PX, PY = psi_batch(X), psi_batch(Y)
    gaps = np.linalg.norm(X - Y, axis=1)
    keep = gaps > 1e-12
    quot = np.linalg.norm(PX - PY, axis=1)[keep] / gaps[keep]
    if not quot.size:
        return 0.0
    return float(np.max(quot)) * safety

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
that a weighted sequence space proves (:func:`tail_horizon`).  ``_spectrum``
is the one reader of the split's two blocks and the step bound, ``_contraction``
the one formula for K, and a PerronProblem works out its own tail bound.

Everything in this module works in the diagonal frame (coordinates z = Q x of
:class:`~saddle_escape.spectral.SpectralSplit`); conversion happens at the
boundary, in :func:`remainder_from_objective` and in the raw dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .methods import ESCAPED_REGION, _advance, _recursion, _row_sq_sums, _update
from .objectives import Objective, _require_critical, _require_saddle
from .schedules import StepSchedule
from .spectral import SpectralSplit

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
    "apply_T",
    "solve_stable_point",
    "iterate_raw",
    "shooting_oracle",
    "chart",
    "remainder_from_objective",
    "TailBound",
    "tail_horizon",
    "DEFAULT_TAIL_TOL",
    "DEFAULT_FP_TOL",
    "DEFAULT_FP_BUDGET",
    "DEFAULT_HORIZON_CAP",
]

DEFAULT_TAIL_TOL = 1e-10  # the horizon search stops once the dropped tail's bound is below this
DEFAULT_FP_TOL = 1e-10  # Picard stops once the sup-distance of two iterates is below this
DEFAULT_FP_BUDGET = 500  # Picard applications before a solve fails
DEFAULT_HORIZON_CAP = 100_000  # the longest horizon the tail-bound search tries

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
        eta(k, 0) = 0.  Z and the result may have either layout; the
        solver hands it column-major sequences (see :func:`apply_T`).
    delta : float
        Radius of the certified neighborhood B(0, delta).
    epsilon : float
        Lipschitz modulus: ||eta(k,x) - eta(k,y)|| <= alpha_k * epsilon * ||x-y||
        on B(0, delta).
    horizon : int
        Sequence truncation length N; sequences have entries 0..N.
    order : int
        1 for a remainder with only its Lipschitz modulus, 2 for one of
        quadratic order (see :func:`tail_horizon`).
    dynamics : callable (k, X) -> (X_next, error), optional
        The method's own step on rows x, the ``methods._update`` closure that
        ``run_batch`` steps; the raw dynamics run it.  Set by
        remainder_from_objective; a hand-built problem has none.
    x_star : ndarray, optional
        The critical point x*, set with ``dynamics`` or not at all (see :func:`_raw_run`).

    Built once: ``tail_estimate``, ``horizon_capped`` and ``decay_rate`` by
    :func:`tail_horizon`, which raises unless alpha_0 * lambda_max < 1 and
    E^u is nonempty, with no zero eigenvalue unless epsilon = 0; ``alphas``,
    ``factors[k, i] = 1 - alpha_k lambda_i``
    for k = 0..N and the scan runs (inverse unstable factors run backward).
    ``tail_tol`` reads ``DEFAULT_TAIL_TOL``, the target ``tail_estimate`` is
    measured against.

    Sequences are column-major (Fortran-ordered) (N+1, d) arrays, and the
    eta of :func:`remainder_from_objective` takes its frame products on their
    transposes with C-contiguous frame matrices: see :func:`apply_T`.
    """

    split: SpectralSplit
    schedule: StepSchedule
    eta: Callable[[np.ndarray, np.ndarray], np.ndarray]
    delta: float
    epsilon: float
    horizon: int
    order: int = 1
    dynamics: Optional[Callable] = None
    x_star: Optional[np.ndarray] = None
    tail_estimate: float = field(init=False)
    horizon_capped: bool = field(init=False)
    decay_rate: float = field(init=False)
    alphas: np.ndarray = field(init=False, repr=False)
    factors: np.ndarray = field(init=False, repr=False)
    stable_runs: list = field(init=False, repr=False)
    unstable_runs: list = field(init=False, repr=False)
    tail_tol = DEFAULT_TAIL_TOL  # a class constant, not a field

    def __post_init__(self):
        if not (self.delta > 0):
            raise LyapunovError(f"delta must be positive, got {self.delta}")
        if self.epsilon < 0:
            raise LyapunovError(f"epsilon must be nonnegative, got {self.epsilon}")
        if (self.dynamics is None) != (self.x_star is None):  # the raw dynamics need both
            raise LyapunovError("dynamics and x_star are set together or not at all")
        # raises unless alpha_0 * lambda_max < 1: every factor the scan reads lies in (0, 1]
        _, self.tail_estimate, self.horizon_capped, self.decay_rate = tail_horizon(
            self.split, self.schedule, self.epsilon, self.delta, order=self.order,
            horizon=self.horizon)
        self.alphas = np.asarray(self.schedule.values(self.horizon + 1), dtype=float)
        f = self.factors = 1.0 - self.alphas[:, None] * self.split.eigenvalues[None, :]
        self.stable_runs = _product_runs(f[:-1, self.split.stable_indices])
        self.unstable_runs = _product_runs(1.0 / f[::-1, self.split.unstable_indices])

    @property
    def dimension(self) -> int:
        return self.split.dimension


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
    v /= np.sqrt(_row_sq_sums(v))[:, None]
    r = radius * rng.uniform(size=(n, 1)) ** (1.0 / d)
    return v * r


def _lipschitz_quotient(X: np.ndarray, Y: np.ndarray, FX: np.ndarray, FY: np.ndarray) -> float:
    """Largest |F(x) - F(y)| / |x - y| over the row pairs more than 1e-12 apart, else 0.0."""
    gaps = np.sqrt(_row_sq_sums(X - Y))
    keep = gaps > 1e-12
    quot = np.sqrt(_row_sq_sums(FX - FY))[keep] / gaps[keep]
    return float(np.max(quot)) if quot.size else 0.0


def sup_distance(u, v) -> float:
    """Sequence-space metric: sup over k of the Euclidean gap ||u_k - v_k||.

    A truncated sequence u_0..u_N of d-vectors is an (N+1, d) array; a
    pair of another shape, or of no entries, raises LyapunovError.
    """
    pu, pv = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if pu.shape != pv.shape:
        raise LyapunovError(f"sequence shapes differ: {pu.shape} vs {pv.shape}")
    if pu.ndim != 2 or not len(pu):
        raise LyapunovError(f"a sequence is an (N+1, d) array with N >= 0, got shape {pu.shape}")
    # the root of the largest sum is the largest root: sqrt is monotone and rounds correctly
    return math.sqrt(np.max(_row_sq_sums(pu - pv)))


@dataclass(frozen=True)
class ContractionCertificate:
    """Certified contraction data for the operator T.

    ``k`` is the contraction constant  1 - alpha0*lambda_stable +
    epsilon*(k1 + k2); the certificate is ``valid`` only when k < 1.
    ``epsilon_star`` is the Lipschitz modulus below which it is:
    alpha0*lambda_stable / (1/lambda_stable + 1/mu), mu = |lambda_unstable|:
    0.0 for a zero eigenvalue in the unstable block, certified at epsilon = 0 only.
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

def _spectrum(split_: SpectralSplit, schedule: StepSchedule) -> tuple[float, float, float]:
    """(alpha_0, lambda_s, mu) from the split's two blocks: the first step, the
    stable block's least eigenvalue and mu = -max of the unstable block (0.0,
    not -0.0, for a zero eigenvalue; inf if empty).  Raises CertificateError
    for an empty stable block or alpha_0 * lambda_max >= 1 (a factor outside
    (0, 1) can blow the forward sums up)."""
    ev = split_.eigenvalues
    lam_s, lam_u = ev[split_.stable_indices], ev[split_.unstable_indices]
    if lam_s.size == 0:
        raise CertificateError("no positive eigenvalue: the stable block is empty")
    alpha0 = float(schedule.value(0))
    step_bound = alpha0 * float(np.max(lam_s))
    if step_bound >= 1.0:
        raise CertificateError(
            f"alpha_0 * lambda_max = {step_bound:.6g} >= 1; "
            "a stable factor does not lie in (0, 1) — shrink the schedule")
    return alpha0, float(np.min(lam_s)), abs(float(np.max(lam_u))) if lam_u.size else math.inf


def _inverse_mu(mu: float) -> float:
    """1/mu, the backward sums' bound; the one rule for a zero eigenvalue in the
    unstable block, whose inverse factors equal 1: no bound exists."""
    if mu == 0.0:
        raise CertificateError(
            "zero eigenvalue in the unstable block: the backward error terms "
            "do not decay, no finite bound exists")
    return 1.0 / mu


def _contraction(alpha0: float, lam_s: float, mu: float, eps: float,
                 gamma: float = 0.0) -> float:
    """K_w = (1 - alpha0 lambda_s) / (1 - alpha0 gamma) + eps (1/(lambda_s - gamma) + 1/mu),
    T's contraction constant on :func:`tail_horizon`'s weighted sequences; gamma = 0 gives K.
    The backward sums carry eps, so mu = 0 raises (``_inverse_mu``) unless eps = 0."""
    return (1.0 - alpha0 * lam_s) / (1.0 - alpha0 * gamma) + eps * (
        1.0 / (lam_s - gamma) + (0.0 if eps == 0.0 else _inverse_mu(mu)))


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
    alpha_0 * lambda_max >= 1 (the checks of ``_spectrum``).
    """
    return 1.0 / _spectrum(split_, schedule)[1]


def bound_K2(split_: SpectralSplit, schedule: StepSchedule) -> float:
    """Bound the backward tail sums on the unstable block.

    With mu = |lambda| for the unstable eigenvalue closest to zero (the
    slowest inverse decay, hence the dominant coordinate), each probe k
    has the sum

        R_k = sum_{i>=0} alpha_{k+1+i} * P_i,
        P_i = prod_{j=k+1}^{k+1+i} (1 + alpha_j mu)^{-1}.

    Each term telescopes, alpha_{k+1+i} * P_i = (P_{i-1} - P_i) / mu with
    P_{-1} = 1, so R_k = (1 - P_inf) / mu <= 1/mu for every k and every
    positive ``schedule``, with equality when sum alpha_k diverges.
    Returns 1/mu, or 0.0 for an empty unstable block.

    mu comes from ``_spectrum``, so this raises CertificateError for its
    checks and for a zero eigenvalue in the unstable block (``_inverse_mu``).
    """
    return _inverse_mu(_spectrum(split_, schedule)[2])


def _certify(split_: SpectralSplit, schedule: StepSchedule,
             eps: float) -> ContractionCertificate:
    """K = 1 - alpha0*lambda_s + eps*(K1 + K2) by ``_contraction`` and epsilon_star.
    The certificate records K2 = 0 when eps = 0, as the backward sums carry a
    factor epsilon and drop out; epsilon_star reads 1/mu all the same, because
    any eps > 0 brings them back.  At mu = 0 any eps > 0 raises, and it reads 0.0."""
    alpha0, lam_s, mu = _spectrum(split_, schedule)
    k = _contraction(alpha0, lam_s, mu, eps)
    return ContractionCertificate(  # lambda_unstable 0.0 - mu: 0.0, not -0.0, for mu = 0
        k1=1.0 / lam_s, k2=0.0 if eps == 0.0 else bound_K2(split_, schedule), k=k,
        lambda_stable=lam_s, lambda_unstable=None if mu == math.inf else 0.0 - mu,
        alpha0=alpha0, epsilon=eps, valid=bool(k < 1.0),
        epsilon_star=alpha0 * lam_s / (1.0 / lam_s + 1.0 / mu) if mu else 0.0)


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

    u and the result are (N+1, d) arrays, row k the entry u_k.  u may have
    either layout; the result is column-major, as every sequence of the
    solver is, so each coordinate's N+1 entries are contiguous and no
    elementwise step loops over the d axis.  The frame products of
    :func:`remainder_from_objective` run on the sequences' transposes,
    ``Q_inv @ Z.T`` for ``Z @ Q_inv.T``, with C-contiguous frame matrices,
    because OpenBLAS takes a slower path for an operand that is a transposed
    view.  On the default chart's (3018, 2) arrays (numpy 2.4.6, OpenBLAS
    0.3.31 on one thread) that product takes 3.0 us against 12.5 us,
    x* + w 6.0 us against 19.3 us and alpha_k * psi 5.2 us against 12.3 us.
    From two rows on both orders of a product give the same bits (one row
    runs another BLAS kernel), so the layer keeps the row-major bits for an
    objective whose gradient rounds the same for either layout of its
    points, as the built-in ones do (a matrix-vector product may not).

    In the diagonal frame, with B/C the coordinate-wise products of
    (1 - alpha_j lambda) over the stable/unstable blocks:

    - stable block, forward:   v_{k+1}^+ = B(k,0) x0^+ + sum_{i<=k} B(k,i+1) eta^+(i, u_i)
    - unstable block, backward: v_{k+1}^- = -sum_{i=0}^{N-k-1} C(k+1+i, k+1)^{-1} eta^-(k+1+i, u_{k+1+i})
    - entry 0: v_0^+ = x0^+ and v_0^- = -sum_{i=1}^{N} C(i-1, 0)^{-1} eta^-(i-1, u_{i-1})

    The anchor x0_plus is written into v_0^+ directly, which makes the
    0-th entry independent of u; the fixed point then steps forward
    consistently under the raw dynamics from its own entry 0.

    Raises LyapunovError, naming the first such entry, if any output entry
    is not in B(0, delta*(1+1e-6)): one that leaves it or is not finite.
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
    sq = _row_sq_sums(V)
    limit = prob.delta * (1.0 + 1e-6)
    if not math.sqrt(np.max(sq)) <= limit:  # NaN fails too; per-row roots only here
        norms = np.sqrt(sq)
        bad = int(np.argmax(~(norms <= limit)))
        raise LyapunovError(
            f"operator image leaves the certified neighborhood at entry {bad}: "
            f"|v_{bad}| = {norms[bad]:.6g}, not <= delta*(1+1e-6) = {limit:.6g}")
    return V


def _scan_T(prob: PerronProblem, xp: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Evaluate T from remainder rows E by one recursion on both blocks: the
    stable v+_{k+1} = f_k v+_k + eta+_k forward from v+_0 = xp, and the
    unstable t_m = (eta-_m + t_{m+1}) / g_m from t_{N+1} = 0, v-_m = -t_m,
    as the same recursion run backward with factors 1/g_m and inputs
    eta-_m / g_m.  Entry 0 drops the (N, 0) term eta-_N / prod_{j<=N} g_j.
    The eigenvalues descend, so E^s is the first d_s coordinates and each
    block is a slice: the scans write into column views of V."""
    d_s = len(prob.split.stable_indices)
    S, Uix = slice(0, d_s), slice(d_s, None)
    V = np.empty(E.shape, order="F")
    V[0, S] = xp
    _scan(prob.stable_runs, xp, E[:-1, S], V[1:, S])
    # row r of the backward scan is t_{N-r}
    t = E[::-1, Uix] / prob.factors[::-1, Uix]
    _scan(prob.unstable_runs, np.zeros(t.shape[1]), t, t)
    np.subtract(0.0, t, out=V[::-1, Uix])  # not -t: a zero entry stays +0.0
    dropped = E[-1, Uix]
    for _, _, P in prob.unstable_runs:
        dropped = dropped * P[-1]
    V[0, Uix] = dropped - t[-1]
    return V


def _scan(runs: list, v: np.ndarray, E: np.ndarray, out: np.ndarray) -> None:
    """Write rows v_1..v_n of v_{k+1} = f_k v_k + E[k] from v_0 = v into
    ``out``, which may be E itself, for factors f_k in (0, 1] whose
    cumprods per run (a, b, P) are ``runs``: within a run, v_{k+1} =
    P_k (v_a + sum_{a<=i<=k} E[i] / P_i), and the state is carried across
    each cut.  Each step runs in place; a sum and a product round the same
    in either operand order."""
    for a, b, P in runs:
        seg = out[a:b]
        np.divide(E[a:b], P, out=seg)
        np.cumsum(seg, axis=0, out=seg)
        seg += v
        seg *= P
        v = seg[-1]


class StablePointResult(NamedTuple):
    """Output of solve_stable_point."""

    x0_minus: np.ndarray
    sequence: np.ndarray
    residual: float
    iterations: int
    history: list


def solve_stable_point(prob: PerronProblem, x0_plus, fp_tol: float = DEFAULT_FP_TOL,
                       fp_budget: int = DEFAULT_FP_BUDGET) -> StablePointResult:
    """Picard-iterate T from the zero sequence until sup-distance < fp_tol.

    Returns the unstable coordinates of the converged 0-th entry (the chart
    value x0_minus), the whole fixed sequence, the final residual, the number
    of applications, and the residual history (geometric at rate <= K for a
    certified problem).  An fp_budget below 1 raises LyapunovError.
    """
    _check_fp_budget(fp_budget)
    xp = _as_stable_vector(prob, x0_plus)
    u = np.zeros((prob.horizon + 1, prob.dimension), order="F")
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


def _check_fp_budget(fp_budget: int) -> None:
    if not fp_budget >= 1:
        raise LyapunovError(f"fp_budget must be >= 1 Picard application, got {fp_budget}")


# ---------------------------------------------------------------------------
# raw dynamics and shooting
# ---------------------------------------------------------------------------

def _raw_run(prob: PerronProblem, Z0: np.ndarray, steps: int, radius: float,
             path: Optional[list] = None) -> tuple[np.ndarray, np.ndarray, list]:
    """Advance the rows of Z0 in lockstep by ``prob.dynamics`` on ``methods._advance``.

    Rows run as the method's own iterates x = x* + z Q_inv^T, those ``run_batch``
    takes from there, and map back by z = (x - x*) Q^T.  Returns (exits, Z, failures):
    per row the first k <= steps with ||x_k - x*|| > radius (||z_k|| for an orthonormal
    Q; -1 if none), z at that k (at ``steps`` if none) and the message of its failed
    step (None if none; see :func:`_raise_failure`).  ``path`` collects (k, X) for every k.  A
    ``steps`` that is not an integer (a bool is not one) or lies outside
    [0, 2^63), and a radius that is NaN or not positive, raise LyapunovError.
    """
    if prob.dynamics is None:
        raise LyapunovError("a hand-built PerronProblem has no raw dynamics; "
                            "build it with remainder_from_objective")
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)):
        raise LyapunovError(f"the raw dynamics need an integer number of steps, got {steps!r}")
    if steps < 0 or steps >= 1 << 63 or not radius > 0:
        raise LyapunovError("the raw dynamics need steps >= 0, steps < 2^63 and a "
                            f"positive radius, got {steps} and {radius}")
    # rotations on the transposed views, unlike apply_T: a one-row product takes
    # another BLAS kernel, and iterate_raw's bits on a dense frame rest on this one
    res = _advance(prob.dynamics, prob.x_star + Z0 @ prob.split.Q_inv.T, steps, 0.0, radius,
                   path, centre=prob.x_star)
    exits = np.where(np.array(res.terminal) == ESCAPED_REGION, res.k_final, -1)
    return exits, (res.final - prob.x_star) @ prob.split.Q.T, res.message


def _raise_failure(failures: list) -> None:
    """Raise the first row's failed step, if any row's step failed."""
    failed = [m for m in failures if m is not None]
    if failed:
        raise LyapunovError(f"the raw dynamics failed: {failed[0]}")


def iterate_raw(prob: PerronProblem, x0, num_steps: int,
                stop_radius: Optional[float] = None) -> tuple[np.ndarray, Optional[int]]:
    """Run the method's own step (``prob.dynamics``) from x0 in the diagonal frame.

    Returns (trajectory, exit_step): the iterates x as z = (x - x*) Q^T and
    the first k with ||x_k - x*|| > stop_radius (see :func:`_raw_run`), or
    None if the trajectory stayed inside for all num_steps (trajectory then
    has num_steps+1 rows).  A hand-built problem, a num_steps that is not an
    integer or lies outside [0, 2^63), a stop_radius that is NaN or not
    positive and a failed step (a non-finite iterate, say) raise LyapunovError.
    """
    x = np.array(x0, dtype=float)
    if x.shape != (prob.dimension,):
        raise LyapunovError(f"x0 must have shape ({prob.dimension},), got {x.shape}")
    path: list = []
    exits, _, failures = _raw_run(prob, x[None], num_steps,
                                  math.inf if stop_radius is None else stop_radius, path)
    _raise_failure(failures)
    traj = (np.concatenate([X for _, X in path]) - prob.x_star) @ prob.split.Q.T
    return traj, (int(exits[0]) if exits[0] >= 0 else None)


def shooting_oracle(prob: PerronProblem, x0_plus, bracket: float, steps: int,
                    width: float = 1e-12) -> np.ndarray:
    """Independent chart value by bracket refinement on the raw dynamics.

    Requires a one-dimensional unstable block and ``prob.dynamics``, the
    method's own step.  Refines the unstable coordinate c in
    [-bracket, +bracket] on the signed outcome of "does the trajectory from
    (x0_plus, c) leave the ball ||x_k - x*|| <= delta (see :func:`_raw_run`)
    upward or downward within `steps` iterations"; trajectories that stay
    bounded for the whole horizon are treated as not-yet-escaped-downward,
    so the refinement converges to the lower edge of the bounded zone
    (whose width shrinks like 1/steps).
    Returns the bracket midpoint once it is narrower than ``width``, or
    once a round cannot narrow it (its ends are adjacent doubles).  A
    ``width`` that is NaN or not positive, and a ``bracket`` that is NaN,
    zero, infinite or above half the largest double (its ends would lie
    farther apart than a double holds), raise LyapunovError before any
    step; a negative ``bracket`` means its absolute value.

    Each round splits the bracket into 32 cells, takes the sides of the 31
    interior candidates and keeps the cell where the first candidate (from
    the downward end) that does not exit downward closes.  A lockstep call
    also looks one round ahead.  Near the stable point a downward start's
    1/T (T its exit step) falls about linearly in c, so the line through
    1/T at the two downward exits with the largest T predicts the c where
    1/T reaches 1/(steps + 0.5), the zone's edge, and the call steps the
    31 interior candidates of the cell that holds it as well.  When the
    round keeps that cell, the next round reads their sides and takes no
    step; otherwise they are dropped.  There is no look-ahead while fewer
    than two downward exits are known, or when the predicted cell is
    already narrower than ``width``.  The next round's candidates are the
    same ``linspace`` of the same doubles, and a step failure among the
    look-ahead rows is raised only if the next round reads them.  For d <= 3 a candidate's side does not depend
    on the rows stepped beside it, so the shot is bit for bit the one a
    call per round gives; at d >= 4 a dense product, the rotation
    ``Z0 @ Q_inv.T`` with a dense Q or the step's own, can round
    differently at 62 rows than at 31, so a shot can differ (see
    :func:`~saddle_escape.methods.run_batch`).
    """
    if len(prob.split.unstable_indices) != 1:
        raise LyapunovError("shooting validation needs a one-dimensional unstable block")
    if not width > 0:
        raise LyapunovError(f"shooting width must be positive, got {width}")
    if not 0 < abs(bracket) <= np.finfo(float).max / 2:
        raise LyapunovError("shooting bracket must be nonzero, finite and at most half "
                            f"the largest double, got {bracket}")
    xp = _as_stable_vector(prob, x0_plus)
    uix = int(prob.split.unstable_indices[0])
    six = prob.split.stable_indices
    down: list = []  # (c, exit step) of every start that left B(0, delta) downward

    def sides_of(cs) -> tuple[np.ndarray, list]:
        """-1/+1 for a start that leaves B(0, delta) with that sign of the
        unstable coordinate, 0 for one that stays inside for all steps;
        and each start's failed step (None if none)."""
        cs = np.asarray(cs, dtype=float)
        X0 = np.zeros((len(cs), prob.dimension))
        X0[:, six] = xp[None, :]
        X0[:, uix] = cs
        exits, X, failures = _raw_run(prob, X0, steps, prob.delta)
        sides = np.where(exits < 0, 0, np.where(X[:, uix] > 0.0, 1, -1))
        down.extend(zip(cs[sides == -1].tolist(), exits[sides == -1].tolist()))
        return sides, failures

    def ahead_of(cs: np.ndarray) -> Optional[np.ndarray]:
        """The next round's candidates if it keeps the cell of ``cs`` that
        holds the predicted edge; None without a prediction."""
        if len(down) < 2:
            return None
        (c1, t1), (c2, t2) = sorted(down, key=lambda e: e[1])[-2:]  # ties: the latest
        rise = 1.0 / t2 - 1.0 / t1
        if not rise:
            return None
        edge = c1 + (1.0 / (int(steps) + 0.5) - 1.0 / t1) * (c2 - c1) / rise
        u = (edge - float(cs[0])) / (float(cs[-1]) - float(cs[0])) * 32.0
        if not 0.0 <= u < 32.0:
            return None
        i = int(u) + 1
        if not abs(cs[i] - cs[i - 1]) > width:  # no round would follow it
            return None
        return np.linspace(cs[i - 1], cs[i], 33)

    lo, hi = -abs(bracket), abs(bracket)
    (s_lo, s_hi), failures = sides_of([lo, hi])
    _raise_failure(failures)
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
    ahead = None  # (bracket, sides, failures) of the round the last call looked ahead to
    while abs(hi - lo) > width:
        cs = np.linspace(lo, hi, 33)
        if ahead is not None and ahead[0] == (lo, hi):
            _, sides, failures = ahead
            ahead = None
        else:
            nxt = ahead_of(cs)
            sides, failures = sides_of(cs[1:-1] if nxt is None else
                                       np.concatenate([cs[1:-1], nxt[1:-1]]))
            ahead = None if nxt is None else ((nxt[0], nxt[-1]), sides[31:], failures[31:])
            sides, failures = sides[:31], failures[:31]
        _raise_failure(failures)
        interior = np.where(sides == -1, -1, 1)
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


def chart(prob: PerronProblem, grid: Sequence, fp_tol: float = DEFAULT_FP_TOL,
          fp_budget: int = DEFAULT_FP_BUDGET) -> ManifoldChart:
    """Map solve_stable_point over a grid of stable-block anchors in B(0, delta/2).

    One anchor list is solved: the grid, then 0 (the chart must vanish
    there), then +-h e_i per stable coordinate i for h = 1e-2 and 1e-3,
    whose central differences give Dphi(0) (tangency to the stable block
    requires ||Dphi(0)|| <= 1e-3 at both).  Discontinuity is flagged when
    an adjacent difference quotient exceeds 3x the median of the others (a
    heuristic jump detector, not a Lipschitz proof).  Each failing anchor
    is listed in ``failures`` and marks the chart partial instead of
    aborting the rest; a spacing with a failing probe has no ``dphi_norms``.
    An fp_budget below 1 raises LyapunovError before any anchor is solved.
    """
    _check_fp_budget(fp_budget)
    radius = prob.delta / 2.0
    grid_vecs = [_as_stable_vector(prob, g) for g in grid]
    for g in grid_vecs:
        if float(np.linalg.norm(g)) > radius:
            raise LyapunovError(
                f"grid point {g} lies outside the chart radius delta/2={radius:g}")
    n, d_s, spacings = len(grid_vecs), len(prob.split.stable_indices), (1e-2, 1e-3)
    probes = [s * h * e for h in spacings for e in np.eye(d_s) for s in (1.0, -1.0)]
    anchors = grid_vecs + [np.zeros(d_s)] + probes
    results = [_chart_sample(prob, g, fp_tol, fp_budget) for g in anchors]
    phi = [r[0] for r in results]
    failures = [(g, r[3]) for g, r in zip(anchors, results) if r[3] is not None]
    phi_zero_norm = math.inf if phi[n] is None else float(np.linalg.norm(phi[n]))

    dphi_norms: dict = {}
    for j, h in enumerate(spacings):
        pm = phi[n + 1 + 2 * d_s * j:n + 1 + 2 * d_s * (j + 1)]
        if all(p is not None for p in pm):
            D = (np.stack(pm[0::2], axis=1) - np.stack(pm[1::2], axis=1)) / (2.0 * h)
            dphi_norms[h] = float(np.linalg.norm(D, 2))  # D is d_u x d_s
    tangency_ok = bool(dphi_norms) and all(v <= 1e-3 for v in dphi_norms.values())

    ratios = []
    for i in range(n - 1):
        if phi[i] is None or phi[i + 1] is None:
            continue
        gap = float(np.linalg.norm(grid_vecs[i + 1] - grid_vecs[i]))
        if gap > 0:
            ratios.append(float(np.linalg.norm(phi[i + 1] - phi[i])) / gap)
    lip = max(1.0, 3.0 * float(np.median(ratios))) if len(ratios) >= 3 else math.inf
    continuity_ok = all(r <= lip for r in ratios)

    return ManifoldChart(grid=grid_vecs, phi=phi[:n], residuals=[r[1] for r in results[:n]],
                         picard_iters=[r[2] for r in results[:n]],
                         phi_zero_norm=phi_zero_norm, dphi_norms=dphi_norms,
                         tangency_ok=tangency_ok, continuity_ok=continuity_ok,
                         partial=bool(failures), failures=failures)


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
                 horizon_cap: int = DEFAULT_HORIZON_CAP) -> TailBound:
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
    that ``_spectrum`` checks.  On the stable block the anchor term carries
    prod_{j<=k} rho_j <= rho_0, and the forward sums
    S_k = rho_k S_{k-1} + alpha_k / (1 - alpha_k gamma) telescope, because
    alpha_k / (1 - alpha_k gamma) = (1 - rho_k) / (lambda - gamma), to
    (1 - prod_{j<=k} rho_j) / (lambda - gamma) < 1 / (lambda_s - gamma).
    On the unstable block w_i / w_k <= 1 for i >= k, so the backward sums
    only shrink and 1/mu still bounds them.  So

        K_w = (1 - alpha_0 lambda_s) / (1 - alpha_0 gamma)
              + epsilon * (1 / (lambda_s - gamma) + 1/mu)

    (``_contraction``) plays the part of K (gamma = 0 gives K_w = K): when
    K_w < 1, T maps the weighted delta-ball into itself and contracts there,
    so its fixed orbit, the one the unweighted certificate finds, decays:
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
    [min(1024, horizon_cap), horizon_cap] whose bound is below
    ``DEFAULT_TAIL_TOL`` (1e-10), or ``horizon_cap`` if none is (``capped``
    then says so).  The search evaluates the bound on prefixes of doubling
    length, so it allocates O(N), not O(horizon_cap).
    """
    if order not in (1, 2):
        raise LyapunovError(f"remainder order must be 1 or 2, got {order}")
    last = horizon_cap if horizon is None else horizon
    if last < 1:
        raise LyapunovError(f"horizon and horizon_cap must be >= 1, got {last}")
    alpha0, lam_s, mu = _spectrum(split_, schedule)
    if mu == math.inf:
        raise LyapunovError("the tail bound needs a zero or strictly negative eigenvalue")
    gamma = next((r * lam_s for r in _DECAY_LADDER
                  if _contraction(alpha0, lam_s, mu, epsilon, r * lam_s) < 1.0), 0.0)

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
            met = np.flatnonzero(tails[lo - 1:] < DEFAULT_TAIL_TOL)
            if met.size or n == horizon_cap:
                break
            lo, n = n + 1, min(2 * n, horizon_cap)
        horizon = lo + int(met[0]) if met.size else horizon_cap
    else:
        tails = bounds(horizon)
    tail = float(tails[horizon - 1])
    return TailBound(int(horizon), tail, not tail < DEFAULT_TAIL_TOL, gamma)


# ---------------------------------------------------------------------------
# from an objective to a problem (conjugation into the diagonal frame)
# ---------------------------------------------------------------------------

def remainder_from_objective(obj: Objective, x_star, schedule: StepSchedule, *,
                             method: str = "gd", delta0: float = 0.1,
                             max_halvings: int = 20, horizon: Optional[int] = None,
                             horizon_cap: int = DEFAULT_HORIZON_CAP,
                             epsilon: Optional[float] = None,
                             ) -> tuple[PerronProblem, ContractionCertificate]:
    """Build the diagonal-frame remainder problem for a method at a saddle.

    For gradient descent the update is g(k,x) = x - alpha_k grad f(x), whose
    deviation from its linearization at the critical point x* is
    theta(k,x) = -alpha_k*(grad f(x) - H (x - x*)) with H the Hessian there.
    Conjugating by the eigenbasis (z = Q(x - x*)) gives the remainder

        eta(k, z) = -alpha_k * Q * (grad f(x* + Q^{-1} z) - H Q^{-1} z),

    which vanishes at 0 and inherits a Lipschitz modulus alpha_k * epsilon
    from the Hessian's modulus of continuity.  One branch picks epsilon's
    source, a function of the radius delta, with the remainder's ``order``
    (see :func:`tail_horizon`): a given ``epsilon`` (order 1); 0 for a
    quadratic (order 1); 6|a|delta for the cubic, a conservative bound on
    the Hessian deviation over B(0, delta) (order 2); otherwise a sampled
    quotient over 10000 random pairs (seed 0) on B(0, delta), times a 1.5
    safety factor (order 1).

    delta starts at delta0 and is halved (at most max_halvings times) until
    the certificate K < 1 holds, else CertificateError; a given epsilon is
    certified once, at delta0, and its certificate returned even when
    invalid.  Unless ``horizon`` is given, :func:`tail_horizon` searches
    for it.  The problem gets that
    ``horizon`` and ``order`` and works out its own ``tail_estimate`` and
    ``horizon_capped``; its ``dynamics`` is the update ``run_batch`` steps and
    its ``x_star`` the critical point.  Its ``eta`` reads alpha_k from the
    problem's ``alphas`` array (not from the problem, so the two form no
    reference cycle), and it takes k <= N only.

    An ``x_star`` that is not a critical point, or whose Hessian has no
    positive eigenvalue or none <= 0 (a local minimum or maximum), raises a
    LyapunovError that names it, before any certificate work.

    Returns (PerronProblem, ContractionCertificate).  ``method`` is an id
    whose recursion is gd's: gd, mirror-euclidean or manifold-intrinsic.  The
    others raise NotImplementedError: prox linearizes differently, and
    mirror-entropy and manifold-sphere need a chart of the simplex or sphere.
    """
    if _recursion(method, None) != "gd":
        raise NotImplementedError(
            f"remainder extraction is implemented for gd's recursion only (gd, "
            f"mirror-euclidean, manifold-intrinsic without a metric), got {method!r}")
    if max_halvings < 0:
        raise LyapunovError(f"max_halvings must be >= 0, got {max_halvings}")
    x_star = np.asarray(x_star, dtype=float)
    _require_critical(obj, x_star, LyapunovError, "x_star")
    H = np.asarray(obj.hess(x_star), dtype=float)
    sp = _require_saddle(H, x_star, LyapunovError, "x_star")
    # products on the sequences' transposes, M @ Z.T = (Z @ M.T).T with the same
    # bits from two rows on, with contiguous operands; see apply_T
    Q, Qi, H = (np.ascontiguousarray(M) for M in (sp.Q, sp.Q_inv, H))

    def psi_batch(Z: np.ndarray) -> np.ndarray:
        Wt = Qi @ Z.T
        # H w - grad, not -(grad - H w): a zero remainder stays +0.0
        return (Q @ (H @ Wt - np.asarray(obj.grad(x_star + Wt.T)).T)).T

    def eta(ks, Z):  # k <= N: alphas, bound below to the problem's alpha_0..alpha_N
        return (alphas[np.asarray(ks)] * psi_batch(np.asarray(Z, dtype=float)).T).T

    if epsilon is not None:  # epsilon's source, delta -> epsilon, and the remainder's order
        modulus, order = (lambda _: float(epsilon)), 1
    elif getattr(obj, "quadratic_matrix", None) is not None:
        modulus, order = (lambda _: 0.0), 1
    elif (a_coef := getattr(obj, "cubic_coefficient", None)) is not None:
        modulus, order = (lambda r: 6.0 * abs(a_coef) * r), 2
    else:
        modulus, order = (lambda r: _sampled_epsilon(psi_batch, sp.dimension, r)), 1

    delta = float(delta0)
    for _ in range(max_halvings + 1):
        eps_val = modulus(delta)
        cert = _certify(sp, schedule, eps_val)
        if cert.valid or epsilon is not None:  # a given epsilon does not shrink with delta
            break
        delta *= 0.5
    else:
        raise CertificateError(
            f"no contraction after {max_halvings} delta-halvings "
            f"(K = {cert.k:.6g}, epsilon needs to be < {cert.epsilon_star:.6g})")

    if horizon is None:
        horizon = tail_horizon(sp, schedule, eps_val, delta, order=order,
                               horizon_cap=horizon_cap).horizon
    prob = PerronProblem(split=sp, schedule=schedule, eta=eta, delta=delta,
                         epsilon=eps_val, horizon=horizon, order=order,
                         dynamics=_update(method, obj, schedule), x_star=x_star)
    alphas = prob.alphas  # eta holds the array, not the problem: no reference cycle
    return prob, cert


def _sampled_epsilon(psi_batch, d: int, delta: float) -> float:
    """Estimate the Lipschitz modulus of psi on B(0, delta) from 10000 random
    pairs, times a 1.5 safety factor."""
    rng = np.random.default_rng(0)
    X = _sample_ball(rng, 10_000, d, delta)
    Y = _sample_ball(rng, 10_000, d, delta)
    return _lipschitz_quotient(X, Y, psi_batch(X), psi_batch(Y)) * 1.5

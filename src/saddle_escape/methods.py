"""First-order update rules with vanishing step sizes, and the trajectory runner.

Implemented methods (registry ids in ``METHOD_IDS``):

- ``gd``:                x_{k+1} = x_k - alpha_k grad f(x_k)
- ``mirror-entropy``:    multiplicative weights on the simplex (entropy mirror map)
- ``mirror-euclidean``:  mirror descent with the Euclidean map; runs gd's step
- ``prox``:              x_{k+1} = argmin_z f(z) + ||x_k - z||^2 / (2 alpha_k)
- ``manifold-sphere``:   project-then-renormalize gradient step on the unit sphere
- ``manifold-intrinsic``: x_{k+1} = x_k - alpha_k M^{-1} grad f(x_k), M a constant
  metric; without one it runs gd's step

Each id resolves to the recursion it runs; only manifold-intrinsic takes a
metric, a :class:`RiemannianMetric`.  Each recursion has one batched step
for a whole population, and ``make_step(method_id, obj, schedule)``, the
library's one-point step, is its one-row case.  One lockstep loop iterates
them: ``run_batch`` advances a population of starts to step error / escape
/ Cauchy-window convergence / budget, and ``run`` is its one-row case, with
stride-decimated recording.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .objectives import CriticalPointClass, Objective, classify_critical_point
from .schedules import StepSchedule

__all__ = [
    "MethodError",
    "MirrorDomainError",
    "ManifoldError",
    "RiemannianMetric",
    "make_step",
    "Terminal",
    "TrajectoryRecord",
    "run",
    "BatchResult",
    "run_batch",
    "METHOD_IDS",
    "ESCAPED_REGION",
    "CONVERGED_TO_POINT",
    "BUDGET_EXHAUSTED",
    "STEP_ERROR",
    "DEFAULT_BUDGET",
    "DEFAULT_CONV_TOL",
    "DEFAULT_ESCAPE_RADIUS",
    "DEFAULT_STRIDE",
    "CONVERGENCE_WINDOW",
    "BOUNDARY_EPS",
]

ESCAPED_REGION = "escaped_region"
CONVERGED_TO_POINT = "converged_to_point"
BUDGET_EXHAUSTED = "budget_exhausted"
STEP_ERROR = "step_error"

DEFAULT_BUDGET = 100_000
DEFAULT_CONV_TOL = 1e-9  # a step shorter than this counts toward the convergence window
DEFAULT_ESCAPE_RADIUS = 1e3
DEFAULT_STRIDE = 10
CONVERGENCE_WINDOW = 50  # consecutive small steps required to declare convergence
BOUNDARY_EPS = 1e-300  # simplex coordinates below this count as boundary contact
_PROX_TOL = 1e-12  # proximal Newton stops once the stationarity residual is this small
_PROX_BUDGET = 100  # proximal Newton steps before the step fails

METHOD_IDS = ("gd", "mirror-entropy", "mirror-euclidean", "prox",
              "manifold-sphere", "manifold-intrinsic")


class MethodError(RuntimeError):
    """A step could not be computed (singular system, inner solver failure...)."""


class MirrorDomainError(MethodError):
    """Mirror iterate left the mirror map's domain (e.g. simplex boundary)."""


class ManifoldError(MethodError):
    """Manifold projection undefined at the requested point."""


class RiemannianMetric:
    """Constant inverse metric M^{-1} (``matrix``, any array-like); must be finite,
    symmetric positive definite."""

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise MethodError(f"inverse metric is not square: shape {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            raise MethodError("inverse metric has a non-finite entry")
        if float(np.max(np.abs(matrix - matrix.T))) > \
                1e-10 * max(1.0, float(np.max(np.abs(matrix)))):
            raise MethodError("inverse metric is not symmetric")
        try:
            np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError as err:
            raise MethodError("inverse metric is not positive definite") from err
        self.matrix = matrix


def _recursion(method_id: str, metric) -> str:
    """The recursion ``method_id`` runs: its own, or ``"gd"`` for mirror-euclidean
    and for manifold-intrinsic without ``metric``.  An unknown id, or a metric
    for any other method, raises MethodError."""
    if method_id not in METHOD_IDS:
        raise MethodError(f"unknown method id {method_id!r}; expected one of {METHOD_IDS}")
    if metric is not None and method_id != "manifold-intrinsic":
        raise MethodError(f"a metric applies to manifold-intrinsic only, "
                          f"not to method id {method_id!r}")
    if method_id == "mirror-euclidean" or method_id == "manifold-intrinsic" and metric is None:
        return "gd"
    return method_id


def make_step(method_id: str, obj: Objective, schedule: StepSchedule, *,
              metric: RiemannianMetric | None = None) -> Callable[[int, np.ndarray], np.ndarray]:
    """The one-point step ``step(k, x)`` of the recursion ``method_id`` runs:
    gd's for mirror-euclidean and for manifold-intrinsic without ``metric``.

    It is the one-row case of the batched update that ``run`` and
    ``run_batch`` step, with alpha_k = ``schedule.value(k)``; the steps may
    come in any order.  x must have shape (d,), else it raises
    ``MethodError``, and so does the row's step error.
    """
    update = _update(method_id, obj, schedule, metric)

    def step(k: int, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (obj.dimension,):  # the update's raw callables check nothing
            raise MethodError(f"a one-point step on d = {obj.dimension} takes a point "
                              f"of shape (d,), got {x.shape}")
        X, error = update(k, x[None])
        if error(0) is not None:
            raise error(0)
        return X[0]
    return step


# ---------------------------------------------------------------------------
# trajectory runner
# ---------------------------------------------------------------------------

@dataclass
class Terminal:
    """How a trajectory ended.

    kind is one of ``escaped_region`` / ``converged_to_point`` /
    ``budget_exhausted`` / ``step_error``; ``point_class`` is set for
    convergence, ``message`` for step errors.
    """

    kind: str
    point_class: Optional[CriticalPointClass] = None
    message: Optional[str] = None


@dataclass
class TrajectoryRecord:
    """Stride-decimated trajectory with bookkeeping for CSV export."""

    terminal: Terminal
    k_final: int
    ks: list = field(default_factory=list)
    points: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)


def run(method_id: str, obj: Objective, schedule: StepSchedule, x0: np.ndarray, *,
        budget: int = DEFAULT_BUDGET, conv_tol: float = DEFAULT_CONV_TOL,
        escape_radius: float = DEFAULT_ESCAPE_RADIUS, stride: int = DEFAULT_STRIDE,
        metric: RiemannianMetric | None = None) -> TrajectoryRecord:
    """Iterate ``method_id`` from ``x0`` until escape, convergence, or budget.

    This is the one-row case of :func:`run_batch`: the same steps and the
    same stopping rules.  Convergence is declared after
    ``CONVERGENCE_WINDOW`` (50) consecutive steps of motion below
    ``conv_tol`` (a Cauchy-window test); the limit is then classified by
    :func:`classify_critical_point` at its default tolerances.  Escape
    means ``||x_k|| > escape_radius``; a NaN ``escape_radius`` raises
    ``MethodError``.  Step errors (mirror domain violations, singular
    proximal systems, ...) terminate the run with the ``step_error`` tag
    instead of raising.  Points are recorded every ``stride`` steps plus
    the final state.
    """
    if budget < 1 or stride < 1:
        raise MethodError(f"run needs budget and stride >= 1, got {budget} and {stride}")
    x = np.array(x0, dtype=float)
    if x.shape != (obj.dimension,):
        raise MethodError(f"x0 must have shape ({obj.dimension},), got {x.shape}")
    path: list = []
    res = _advance(_update(method_id, obj, schedule, metric), x[None], budget, conv_tol,
                   escape_radius, path, stride)
    k_final, final = int(res.k_final[0]), res.final[0]
    kept = [(k, X[0]) for k, X in path if k < k_final] + [(k_final, final)]
    terminal = Terminal(res.terminal[0], message=res.message[0])
    if terminal.kind == CONVERGED_TO_POINT:
        terminal.point_class = classify_critical_point(obj, final)
    with np.errstate(over="ignore", invalid="ignore"):  # an escaped point's gradient may overflow
        return TrajectoryRecord(
            terminal=terminal, k_final=k_final, ks=[k for k, _ in kept],
            points=[p for _, p in kept], step_sizes=[schedule.value(k) for k, _ in kept],
            grad_norms=[float(np.linalg.norm(obj.grad(p))) for _, p in kept])


BatchResult = NamedTuple("BatchResult", [
    ("terminal", list), ("k_final", np.ndarray), ("final", np.ndarray), ("message", list)])
BatchResult.__doc__ = """Per-row terminal kind, k_final, final point and step-error message."""


_NO_ERROR = {}.get  # error(j) of an update that has no per-row step errors
_RESOLVENT_BLOCK = 1 << 16  # doubles in one block of prox resolvents
_BLOCK_STEPS = 64  # most steps _advance takes in one block
_BLOCK_DOUBLES = 1 << 14  # most doubles (steps x rows x d) in one block of states


def _update(method_id: str, obj: Objective, schedule: StepSchedule,
            metric: RiemannianMetric | None = None):
    """``(k, X) -> (X_next, error)``: one step of ``method_id`` for every row of X.

    Each recursion has this one batched step, and :func:`make_step` is its
    one-row case.  It never raises: ``error(j)`` is row j's step error, the
    ``MethodError`` its one-point step raises, or None.  A row with a step
    error is never finite, so it stops and only stopping rows are asked.
    Steps call the objective's raw callables (``obj._grad``, ``obj._hess``),
    which check nothing: the rows' shape is checked once, where they enter
    (``run``, ``run_batch``, ``make_step``, the raw dynamics).  Where a step
    multiplies rows by a matrix (gd and the metric step on a quadratic,
    prox's resolvents), BLAS takes one kernel for one row and another for a
    stack: a row's bits do not depend on the batch for d <= 3, but can in
    the last places for a dense A at d >= 4.  The prox and metric products
    are ``X.dot(RT[i])`` and ``G.dot(MT)``: on these 2-D operands ``.dot``
    calls BLAS's kernel for ``@`` with the same bits, without the matmul
    gufunc's dispatch, which costs about as much as a small product.

    gd steps along G = grad f(X), the metric step along G M^{-1}, and a row
    whose G is not finite fails; it fails with the same message in the
    entropy and sphere steps, and no product warns on it.  Any k may come
    (``_advance`` takes steps again after a block).  Prox on an objective with a
    ``quadratic_matrix`` A takes the closed form z = (I + alpha_k A)^{-1} x,
    any other objective :func:`_newton`.  It inverts the resolvents of a
    block of steps k, k + 1, ... at a time (:func:`_resolvents`, at most
    ``_RESOLVENT_BLOCK`` doubles); a k outside the block inverts the block
    that starts at k.  A block stops before its first singular system, where
    every row fails.
    """
    recursion = _recursion(method_id, metric)
    A = getattr(obj, "quadratic_matrix", None)
    if recursion == "prox" and A is not None:
        block = max(1, min(1024, _RESOLVENT_BLOCK // A.size))
        k0, RT = 0, np.empty((0,) + A.shape)

        def prox(k, X):
            nonlocal k0, RT
            if not 0 <= k - k0 < len(RT):
                k0 = k
                RT = _resolvents(A, [schedule.value(j) for j in range(k, k + block)])
                if not len(RT):
                    return np.full_like(X, np.nan), dict.fromkeys(range(len(X)), MethodError(
                        f"singular proximal system I + alpha_k A at k={k} "
                        f"(alpha={schedule.value(k):g})")).get
            return X.dot(RT[k - k0]), _NO_ERROR
        return prox
    if recursion == "gd" or recursion == "manifold-intrinsic":
        MT = None if metric is None else metric.matrix.T.copy()  # C-contiguous, see _resolvents
        grad, value = obj._grad, schedule.value

        def gd(k, X):
            G = P = grad(X)
            if MT is not None:
                with np.errstate(invalid="ignore"):  # inf * 0; the row fails on its G
                    P = G.dot(MT)
            return X - value(k) * P, lambda j: None if np.all(np.isfinite(G[j])) \
                else _gradient_error(k, X[j])
        return gd
    if recursion == "mirror-entropy":
        return lambda k, X: _entropy(obj, k, schedule.value(k), X)
    if recursion == "manifold-sphere":
        return lambda k, X: _sphere(obj, k, schedule.value(k), X)
    return _newton(obj, schedule)


def _gradient_error(k: int, x: np.ndarray) -> MethodError:
    """The step error of a row x whose gradient at step k is not finite."""
    return MethodError(f"non-finite gradient at k={k}, x={x}")


def _resolvents(A: np.ndarray, alphas: Sequence[float]) -> np.ndarray:
    """Transposed resolvents ((I + alpha A)^{-1})^T, one per alpha, up to the first singular one.

    ``X.dot(RT[i])`` applies the i-th resolvent to each row of X.  One stacked
    inverse; each matrix gets the bits its own ``np.linalg.inv`` gives it.
    An explicit inverse times the rows keeps each row's bits independent of
    how many rows there are for d <= 3, which a multi-right-hand-side solve
    does not, and so does storing the transposes C-contiguous: ``X.dot(R.T)``
    on the F-ordered view takes one BLAS path for a single row and another
    for many, as ``@`` does.  If a matrix is singular, the result stops just
    before it.
    """
    M = np.eye(A.shape[0]) + np.asarray(alphas, dtype=float)[:, None, None] * A
    try:
        R = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        inverses = []
        for m in M:
            try:
                inverses.append(np.linalg.inv(m))
            except np.linalg.LinAlgError:
                break
        R = np.array(inverses).reshape(-1, *A.shape)
    return R.transpose(0, 2, 1).copy()


def _row_norms(V: np.ndarray) -> np.ndarray:
    """Each row's 1-D ``np.linalg.norm``, bit for bit: the root of its own dot product."""
    return np.sqrt((V[:, None, :] @ V[:, :, None])[:, 0, 0])


def _row_sq_sums(D: np.ndarray) -> np.ndarray:
    """Each row's sum of squares as ``np.linalg.norm(D, axis=1)`` sums it, bit for bit.

    That norm is the root of ``np.add.reduce(D * D, axis=1)``, which adds
    a row of d < 8 entries left to right, whatever the array's layout and
    SIMD path (numpy 2.4.6, n = 1 to 3018); so do the column sums here, at
    a fraction of the reduce's cost on a tall array.  From d = 8 numpy sums
    pairwise, and the reduce itself runs.  A square past the largest double
    warns as the norm does; a sum that overflows warns "in add", not "in
    reduce".
    """
    d = D.shape[1]
    if not 0 < d < 8:
        return np.add.reduce(D * D, axis=1)
    c = D[:, 0]
    s = c * c
    for j in range(1, d):
        c = D[:, j]
        s += c * c
    return s


def _entropy(obj: Objective, k: int, alpha: float, X: np.ndarray):
    """The entropy mirror step of every row x of X: grad Phi(x) = 1 + log x,
    then the softmax (the conjugate argmax), i.e. multiplicative weights
    x_i exp(-alpha g_i) / Z.  A row off the open simplex is not projected;
    it gets its MirrorDomainError and NaN.  A row on it whose gradient is
    not finite gets gd's step error and NaN."""
    low, total = (X < BOUNDARY_EPS).any(axis=1), X.sum(axis=1)
    off = low | (np.abs(total - 1.0) > 1e-8)
    errors = {j: MirrorDomainError(
        "mirror iterate touched the simplex boundary "
        f"(min coordinate {np.min(X[j]):.3e} < {BOUNDARY_EPS:g})" if low[j] else
        f"mirror iterate left the simplex (sum {total[j]:.12g})") for j in np.flatnonzero(off)}
    Xn, on = np.full_like(X, np.nan), X[~off]
    if on.size:  # the gradient is asked only at points on the simplex
        G = obj._grad(on)
        Y = 1.0 + np.log(on) - alpha * G
        with np.errstate(invalid="ignore"):  # inf - inf; the row fails on its G
            W = np.exp(Y - Y.max(axis=1, keepdims=True))  # max-shifted softmax; overflow-safe
        Xn[~off] = W / W.sum(axis=1, keepdims=True)
        bad = np.flatnonzero(~off)[~np.isfinite(G).all(axis=1)]
        Xn[bad] = np.nan
        errors.update((j, _gradient_error(k, X[j])) for j in bad)
    return Xn, errors.get


def _sphere(obj: Objective, k: int, alpha: float, X: np.ndarray):
    """The unit-sphere step of every row x of X: project the gradient on the
    tangent space (I - x x^T), move, and renormalize.  A row whose gradient
    is not finite gets gd's step error and NaN, and a row whose moved point
    lies within 1e-12 of the origin its ManifoldError and NaN."""
    G = obj._grad(X)
    P = np.eye(X.shape[1]) - X[:, :, None] * X[:, None, :]
    with np.errstate(invalid="ignore"):  # inf * 0; the row fails on its G
        PG = (P @ G[:, :, None])[:, :, 0]
    V = X - alpha * PG
    bad = ~np.isfinite(G).all(axis=1)
    V[bad] = np.nan
    norms = _row_norms(V)
    small = norms < 1e-12
    errors = {j: _gradient_error(k, X[j]) if bad[j] else
              ManifoldError("sphere projection undefined near the origin")
              for j in np.flatnonzero(bad | small)}
    return V / np.where(small, np.nan, norms)[:, None], errors.get


def _newton(obj: Objective, schedule: StepSchedule):
    """``(k, X) -> (Z, error)``: the proximal step of every row of X by damped Newton.

    Each row solves F(z) = z + alpha_k grad f(z) - x = 0 from z = x by
    Newton steps on I + alpha_k hess f until |F(z)| <= 1e-12, within 100 of
    them, each halving its length (down to 1e-12) until |F| falls or while
    it is not finite.  The rows go in lockstep under a residual mask, and a
    row whose Newton fails gets its own MethodError and NaN.
    """
    def residual(Z, X, alpha):
        R = Z + alpha * obj._grad(Z) - X
        return R, _row_norms(R)

    def newton(k, X):
        alpha, Z, errors = schedule.value(k), X.copy(), {}
        R, norms = residual(Z, X, alpha)
        live = np.ones(len(X), dtype=bool)  # no step error yet
        for _ in range(_PROX_BUDGET):
            rows = np.flatnonzero(live & ~(norms <= _PROX_TOL))
            if not rows.size:
                break
            J = np.eye(X.shape[1]) + alpha * obj._hess(Z[rows])
            try:  # one stacked solve gives each Jacobian the bits of its own
                D = np.linalg.solve(J, -R[rows, :, None])[:, :, 0]
            except np.linalg.LinAlgError:  # one solve per row; a singular one fails its row
                D = np.empty((rows.size, X.shape[1]))
                for i, r in enumerate(rows):
                    try:
                        D[i] = np.linalg.solve(J[i], -R[r])
                    except np.linalg.LinAlgError:
                        errors[r], live[r] = MethodError(
                            f"singular proximal Jacobian I + alpha_k hess f at k={k}"), False
                D, rows = D[live[rows]], rows[live[rows]]
            t = 1.0
            while rows.size and t >= 1e-12:
                Z_try = Z[rows] + t * D
                R_try, n_try = residual(Z_try, X[rows], alpha)
                done = (n_try < norms[rows]) | ~np.isfinite(norms[rows])
                took = rows[done]
                Z[took], R[took], norms[took] = Z_try[done], R_try[done], n_try[done]
                rows, D, t = rows[~done], D[~done], 0.5 * t
            for r in rows:
                errors[r], live[r] = MethodError(
                    f"proximal Newton damping stalled at k={k}"), False
        for r in np.flatnonzero(live & ~(norms <= _PROX_TOL)):
            errors[r] = MethodError(
                f"proximal Newton did not reach residual {_PROX_TOL:g} within "
                f"{_PROX_BUDGET} iterations at k={k} (residual {norms[r]:.3e})")
        Z[list(errors)] = np.nan
        return Z, errors.get
    return newton


def _advance(update, X0: np.ndarray, budget: int, conv_tol: float, escape_radius: float,
             path: list | None = None, stride: int = 1, *, centre=0.0) -> BatchResult:
    """Advance the rows of ``X0`` in lockstep until each one stops.

    One ``update(k, X)``, which never raises, per k over the still-active rows;
    finished rows leave the active set.  Each row stops at the first of: step
    error at k (final state x_k), escape (||x_k - centre|| > escape_radius; the
    raw dynamics' centre is x*, and x - 0.0 is x, bit for bit), Cauchy window,
    budget.  With ``path``, ``(k, X)`` is appended for k = 0 and every
    ``stride``-th k, X being the rows that were active for that step.  An empty
    ``X0`` takes no step.  A NaN ``escape_radius`` and a budget of 2^63 or more
    raise ``MethodError``; an infinite radius stops a row at inf only on the
    step error ``error(j)`` names.

    The rows that stop at a step are settled together: each ends escaped if
    its radius is above escape_radius, else converged.  Only a row with a
    non-finite entry is asked ``error(j)``, since ``_update`` never gives a
    row with a step error a finite state; it ends as a step error, at its
    state before the step, if it has one or if it holds a NaN.

    The steps go in blocks of m with no test between them, and then the
    filters check the whole block at once: each new state's largest row sum
    of squares is below escape_radius^2, each row's sum of squared motions
    is surely above conv_tol^2 (loud) or surely below it (quiet), and each
    row's quiet run, counted on from its run before the block, stays below
    ``CONVERGENCE_WINDOW``.  Where all hold, no row escapes and none
    converges.  The steps before the first step that fails a filter are
    kept, that step goes to the per-row code, and the later ones are
    discarded, so the steps after a stop run on the smaller batch just as
    they would one at a time: no row's bits depend on the block.  m starts
    at 1, doubles after each clean block up to ``_BLOCK_STEPS`` and at most
    ``_BLOCK_DOUBLES`` doubles of states, and is 1 again after a block that
    fails.  A block runs with numpy's floating-point warnings turned into a
    flag, and it ends before the first step that sets one or raises (a row
    stepped past its escape may overflow): the per-row code takes that step
    again outside the block, where it warns or raises just as one step at a
    time would.  A ``warnings.warn`` in the objective's own code is not held
    back: a step that a block discards can still show one.  With
    ``conv_tol`` <= 0 (or NaN) no motion is ever below it, so motions are
    not tested; with a tiny or negative radius (or d > 2^22) every block is
    one step, which the per-row code takes.  That code never warns: a square
    past the largest double is inf, as in the norm.
    """
    if np.isnan(escape_radius):  # no row could escape, and every row would stop at once
        raise MethodError("escape_radius must be a number, got NaN")
    if budget >= 1 << 63:  # k_final is an int64
        raise MethodError(f"budget must be below 2^63, got {budget}")
    escape_radius, conv_tol = float(escape_radius), float(conv_tol)  # a numpy scalar square warns
    n = len(X0)
    terminal, message = np.full(n, BUDGET_EXHAUSTED, dtype=object), [None] * n
    k_final, final = np.full(n, budget, dtype=np.int64), X0.copy()
    if not n:
        return BatchResult([], k_final, final, message)
    X, rows, quiet = X0, np.arange(n), np.zeros(n, dtype=np.int64)  # active rows only
    # Rounding of the block filters: the per-row code takes the square root
    # of a sum of d squares, and each row sum (X * X) @ ones adds the same d
    # squares in BLAS's order.  Each is off by at most a relative d·2^-53 <
    # 5e-10 for d <= 2^22, plus a few 2^-53 for the roots and the
    # thresholds, which the 1e-9 margins cover; a sum within one fails its
    # step.  A threshold below the normal range has no relative bound: loud
    # is floored at tiny, nothing is quiet, and a tiny radius fails every
    # step, as does a larger d.  NaN fails every test, and the caps at the
    # largest double make inf and an overflowing sum neither inside nor quiet.
    # The margins stay: exact stop tests were slower or batch-dependent
    # (2 cores, numpy 2.4.6, OpenBLAS on 1 thread).  np.add.reduce with sqrt
    # took avoid-fig1 from 0.77 s to 1.08-1.12 s, column sums were 8-14%
    # slower, and BLAS sums against exact thresholds ran at parity, but at
    # d >= 4 a sum within an ulp of a threshold would stop its row or not
    # depending on how many rows step with it.
    big, tiny = np.finfo(float).max, np.finfo(float).tiny
    below = min(escape_radius * escape_radius * (1.0 - 1e-9), big) \
        if escape_radius >= 2.0 ** -500 and X0.shape[1] <= 1 << 22 else -1.0
    above = max(conv_tol * conv_tol, tiny) * (1.0 + 1e-9)
    hush = min(conv_tol * conv_tol, big) * (1.0 - 1e-9) if conv_tol * conv_tol >= tiny else 0.0
    moving = conv_tol > 0  # else no motion is below conv_tol and no row ever goes quiet
    ones = np.ones(X0.shape[1])
    fired: list = []  # the floating-point flags a block's steps set
    flags = dict({c: "call" for c, v in np.geterr().items() if v != "ignore"},
                 call=lambda kind, flag: fired.append(kind))
    m = 1  # steps in the next block
    if path is not None:
        path.append((0, X0))
    k = 0
    while k < budget:
        size, states, runs = min(m, budget - k), [], None
        append = states.append
        fired.clear()
        with np.errstate(**flags):  # a flag ends the block; the filters' flags are dropped
            try:
                Y = X
                for j in range(k, k + size):
                    state = update(j, Y)
                    if fired:
                        break
                    append(state)
                    Y = state[0]
            except Exception:  # the step is taken again below, and raises there
                pass
            kept, a = len(states), len(X)
            if kept:  # each step's row sums of squares and of squared motions
                S = np.concatenate([X] + [state for state, _ in states])
                R = (np.square(S[a:] - centre) @ ones).reshape(kept, a)
                ok = np.maximum.reduce(R, axis=1) <= below  # inf and NaN fail both tests
                if moving:
                    D = S[a:] - S[:-a]
                    M = ((D * D) @ ones).reshape(kept, a)
                    loud = M > above
                    if not loud.all():  # each row's quiet run after each step
                        at = np.arange(1, kept + 1)[:, None]
                        last = np.maximum.accumulate(np.where(loud, at, 0), axis=0)
                        runs = np.where(last > 0, at - last, at + quiet)
                        ok &= ((loud | (M < hush)) & (runs < CONVERGENCE_WINDOW)).all(axis=1)
                if not ok.all():
                    kept = int(ok.argmin())
        if path is not None:
            path.extend((k + j + 1, states[j][0]) for j in range(kept)
                        if (k + j + 1) % stride == 0)
        if kept:
            X, k = states[kept - 1][0], k + kept
            quiet = runs[kept - 1] if runs is not None else np.zeros_like(quiet)
        if kept == size:
            m = min(2 * m, _BLOCK_STEPS, max(1, _BLOCK_DOUBLES // X.size))
            continue
        m = 1
        Xn, error = states[kept] if kept < len(states) else update(k, X)
        if path is not None and (k + 1) % stride == 0:
            path.append((k + 1, Xn))
        # row norms as np.linalg.norm(axis=1) computes them: see _row_sq_sums
        with np.errstate(over="ignore", invalid="ignore"):
            if moving:
                quiet = np.where(np.sqrt(_row_sq_sums(Xn - X)) < conv_tol, quiet + 1, 0)
            radius = np.sqrt(_row_sq_sums(Xn - centre))
        stop = ~(radius <= escape_radius) | (quiet >= CONVERGENCE_WINDOW)  # a NaN radius stops too
        if escape_radius == np.inf:  # inf <= inf keeps a row that a step overflowed
            for j in np.flatnonzero(np.isinf(radius) & ~stop):
                stop[j] = error(j) is not None
        k += 1
        if not stop.any():
            X = Xn
            continue
        done = np.flatnonzero(stop)
        ended = rows[done]
        terminal[ended], k_final[ended], final[ended] = CONVERGED_TO_POINT, k, Xn[done]
        terminal[ended[radius[done] > escape_radius]] = ESCAPED_REGION
        for j in done[~np.isfinite(Xn[done]).all(axis=1)]:  # a finite row has no step error
            err = error(j)
            if err is None and np.any(np.isnan(Xn[j])):
                err = f"non-finite iterate at k={k}"
            if err is not None:
                r = rows[j]
                terminal[r], k_final[r], final[r], message[r] = STEP_ERROR, k - 1, X[j], str(err)
        X, rows, quiet = Xn[~stop], rows[~stop], quiet[~stop]
        if not rows.size:
            break
    final[rows] = X
    return BatchResult(terminal.tolist(), k_final, final, message)


def run_batch(method_id: str, obj: Objective, schedule: StepSchedule, X0: np.ndarray, *,
              budget: int = DEFAULT_BUDGET, conv_tol: float = DEFAULT_CONV_TOL,
              escape_radius: float = DEFAULT_ESCAPE_RADIUS,
              metric: RiemannianMetric | None = None) -> BatchResult:
    """Run every row of ``X0`` to the terminal :func:`run` would give it.

    All rows advance in lockstep, one batched step of the method's
    recursion per k with alpha_k = ``schedule.value(k)``, and finished rows
    leave the active set.  The stopping order is ``run``'s: step error at
    k, escape, Cauchy window, budget.  An empty ``X0`` returns an empty
    result at once.  For d <= 3 each row ends exactly as ``run`` ends it;
    on a dense quadratic at d >= 4 the final points can differ from
    ``run``'s in the last places (see :func:`_update`).
    """
    X0 = np.asarray(X0, dtype=float)
    if budget < 1 or X0.ndim != 2 or X0.shape[1] != obj.dimension:
        raise MethodError(f"run_batch needs budget >= 1 and X0 of shape "
                          f"(n, {obj.dimension}), got {budget} and {X0.shape}")
    return _advance(_update(method_id, obj, schedule, metric), X0, budget, conv_tol,
                    escape_radius)

"""First-order update rules with vanishing step sizes, and the trajectory runner.

Implemented methods (registry ids in ``METHOD_IDS``):

- ``gd``:                x_{k+1} = x_k - alpha_k grad f(x_k)
- ``mirror-entropy``:    multiplicative weights on the simplex (entropy mirror map)
- ``mirror-euclidean``:  mirror descent with the Euclidean map; identical to gd
- ``prox``:              x_{k+1} = argmin_z f(z) + ||x_k - z||^2 / (2 alpha_k)
- ``manifold-sphere``:   project-then-renormalize gradient step on the unit sphere
- ``manifold-intrinsic``: x_{k+1} = x_k - alpha_k M^{-1} grad f(x_k), M a constant metric

One lockstep loop iterates them: ``run_batch`` advances a population of
starting points to step error / escape / Cauchy-window convergence / budget,
and ``run`` is its one-row case, with stride-decimated recording.
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
    "MirrorMap",
    "EmbeddedManifold",
    "RiemannianMetric",
    "entropy_mirror_map",
    "euclidean_mirror_map",
    "unit_sphere",
    "identity_metric",
    "constant_metric",
    "gd_step",
    "mirror_step",
    "proximal_step",
    "manifold_step",
    "intrinsic_manifold_step",
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


class MirrorMap:
    """Mirror map Phi with gradient and convex-conjugate argmax.

    ``conjugate_argmax(y)`` returns argmax_{z in M} <z, y> - Phi(z); the
    defining identity ``conjugate_argmax(grad_phi(x)) == x`` holds on the
    interior of the domain.  ``domain_check`` raises MirrorDomainError for
    points outside the domain instead of silently projecting.
    """

    def __init__(self, dimension: int, grad_phi, conjugate_argmax, domain_check=None):
        self.dimension = dimension
        self.grad_phi = grad_phi
        self.conjugate_argmax = conjugate_argmax
        self._domain_check = domain_check

    def check_domain(self, x: np.ndarray) -> None:
        if self._domain_check is not None:
            self._domain_check(x)


def entropy_mirror_map(dimension: int) -> MirrorMap:
    """Negative-entropy map on the open probability simplex.

    Phi(x) = sum x_i log x_i, grad Phi = 1 + log x, and the conjugate argmax
    is the softmax.  The induced mirror step is exactly the multiplicative
    weights update x_i exp(-alpha g_i) / Z.
    """

    def grad_phi(x):
        return 1.0 + np.log(x)

    def conjugate_argmax(y):
        # max-shifted softmax; invariant under the shift, overflow-safe.
        w = np.exp(y - np.max(y))
        return w / np.sum(w)

    def domain_check(x):
        if np.any(x < BOUNDARY_EPS):
            raise MirrorDomainError(
                "mirror iterate touched the simplex boundary "
                f"(min coordinate {np.min(x):.3e} < {BOUNDARY_EPS:g})")
        total = float(np.sum(x))
        if abs(total - 1.0) > 1e-8:
            raise MirrorDomainError(f"mirror iterate left the simplex (sum {total:.12g})")

    return MirrorMap(dimension, grad_phi, conjugate_argmax, domain_check=domain_check)


def euclidean_mirror_map(dimension: int) -> MirrorMap:
    """Phi(x) = ||x||^2 / 2 on all of R^d; mirror descent reduces to gd."""
    return MirrorMap(dimension, grad_phi=lambda x: x, conjugate_argmax=lambda y: y)


class EmbeddedManifold:
    """Embedded manifold given by a point projection and tangent projectors."""

    def __init__(self, project_point, tangent_matrix):
        self.project_point = project_point
        self.tangent_matrix = tangent_matrix

    def project_tangent(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.tangent_matrix(x) @ v


def unit_sphere(ambient_dim: int) -> EmbeddedManifold:
    """Unit sphere: P_M(v) = v/||v||, P_T(x) = I - x x^T."""

    def project_point(v):
        norm = float(np.linalg.norm(v))
        if norm < 1e-12:
            raise ManifoldError("sphere projection undefined near the origin")
        return v / norm

    def tangent_matrix(x):
        return np.eye(ambient_dim) - np.outer(x, x)

    return EmbeddedManifold(project_point, tangent_matrix)


class RiemannianMetric:
    """Constant inverse metric M^{-1} (``matrix``); must be symmetric positive definite."""

    def __init__(self, matrix: np.ndarray, name: str):
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise MethodError(f"inverse metric '{name}' is not square: shape {matrix.shape}")
        if float(np.max(np.abs(matrix - matrix.T))) > \
                1e-10 * max(1.0, float(np.max(np.abs(matrix)))):
            raise MethodError(f"inverse metric '{name}' is not symmetric")
        try:
            np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError as err:
            raise MethodError(f"inverse metric '{name}' is not positive definite") from err
        self.matrix = matrix
        self.name = name


def identity_metric(dimension: int) -> RiemannianMetric:
    return RiemannianMetric(np.eye(dimension), name="identity")


def constant_metric(M: np.ndarray, name: str = "constant") -> RiemannianMetric:
    return RiemannianMetric(np.asarray(M, dtype=float), name=name)


# ---------------------------------------------------------------------------
# single-step updates
# ---------------------------------------------------------------------------

def gd_step(obj: Objective, schedule: StepSchedule, k: int, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    g = obj.grad(x)
    if not np.all(np.isfinite(g)):
        raise MethodError(f"non-finite gradient at k={k}, x={x}")
    return x - schedule.value(k) * g


def mirror_step(obj: Objective, mirror_map: MirrorMap, schedule: StepSchedule,
                k: int, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    mirror_map.check_domain(x)
    y = mirror_map.grad_phi(x) - schedule.value(k) * obj.grad(x)
    return mirror_map.conjugate_argmax(y)


def proximal_step(obj: Objective, schedule: StepSchedule, k: int, x: np.ndarray,
                  use_closed_form: bool | None = None) -> np.ndarray:
    """Proximal point step: solve z + alpha_k grad f(z) = x.

    Quadratic objectives take the closed form z = (I + alpha_k A)^{-1} x;
    everything else runs a damped Newton iteration on the stationarity
    residual F(z) = z + alpha_k grad f(z) - x (Jacobian I + alpha_k hess f)
    until |F(z)| <= 1e-12, within 100 Newton steps.
    ``use_closed_form=False`` forces the Newton path (used to cross-check the
    two routes against each other).
    """
    x = np.asarray(x, dtype=float)
    alpha = schedule.value(k)
    A = getattr(obj, "quadratic_matrix", None)
    if use_closed_form is None:
        use_closed_form = A is not None
    if use_closed_form:
        if A is None:
            raise MethodError("closed-form proximal step requires a quadratic objective")
        RT = _resolvents(A, [alpha])  # the lockstep prox stepper's arithmetic, one step
        if not len(RT):
            raise _singular_resolvent(k, alpha)
        return x @ RT[0]

    z = x.copy()
    identity = np.eye(obj.dimension)
    res = z + alpha * obj.grad(z) - x
    res_norm = float(np.linalg.norm(res))
    for _ in range(_PROX_BUDGET):
        if res_norm <= _PROX_TOL:
            return z
        J = identity + alpha * obj.hess(z)
        try:
            delta = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError as err:
            raise MethodError(
                f"singular proximal Jacobian I + alpha_k hess f at k={k}") from err
        # damped update: halve until the residual actually decreases
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
    if res_norm <= _PROX_TOL:
        return z
    raise MethodError(
        f"proximal Newton did not reach residual {_PROX_TOL:g} within "
        f"{_PROX_BUDGET} iterations at k={k} (residual {res_norm:.3e})")


def _resolvents(A: np.ndarray, alphas: Sequence[float]) -> np.ndarray:
    """Transposed resolvents ((I + alpha A)^{-1})^T, one per alpha, up to the first singular one.

    ``X @ RT[i]`` applies the i-th resolvent to each row of X, or to a single
    point X.  One stacked inverse; each matrix gets the bits its own
    ``np.linalg.inv`` gives it.  An explicit inverse times the rows keeps
    each row's bits independent of how many rows there are, which a
    multi-right-hand-side solve does not, and so does storing the transposes
    C-contiguous: ``X @ R.T`` on the F-ordered view takes one BLAS path for a
    single row and another for many.  If a matrix is singular, the result
    stops just before it.
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


def _singular_resolvent(k: int, alpha: float) -> MethodError:
    return MethodError(f"singular proximal system I + alpha_k A at k={k} (alpha={alpha:g})")


def manifold_step(obj: Objective, manifold: EmbeddedManifold, schedule: StepSchedule,
                  k: int, x: np.ndarray) -> np.ndarray:
    """Extrinsic step: project the gradient to the tangent space, move, re-project."""
    x = np.asarray(x, dtype=float)
    g_tan = manifold.project_tangent(x, obj.grad(x))
    return manifold.project_point(x - schedule.value(k) * g_tan)


def intrinsic_manifold_step(obj: Objective, metric: RiemannianMetric,
                            schedule: StepSchedule, k: int, x: np.ndarray) -> np.ndarray:
    """Intrinsic step in a coordinate chart: x - alpha_k M^{-1} grad f(x)."""
    x = np.asarray(x, dtype=float)
    return x - schedule.value(k) * (metric.matrix @ obj.grad(x))


def make_step(method_id: str, obj: Objective, schedule: StepSchedule, *,
              metric: RiemannianMetric | None = None) -> Callable[[int, np.ndarray], np.ndarray]:
    """Resolve a method id to a ``step(k, x)`` closure.

    The geometry is the method's own: the entropy or Euclidean mirror map,
    the unit sphere, and ``metric`` (default the identity) for
    manifold-intrinsic.
    """
    if method_id == "gd":
        return lambda k, x: gd_step(obj, schedule, k, x)
    if method_id == "mirror-entropy":
        mmap = entropy_mirror_map(obj.dimension)
        return lambda k, x: mirror_step(obj, mmap, schedule, k, x)
    if method_id == "mirror-euclidean":
        mmap = euclidean_mirror_map(obj.dimension)
        return lambda k, x: mirror_step(obj, mmap, schedule, k, x)
    if method_id == "prox":
        return lambda k, x: proximal_step(obj, schedule, k, x)
    if method_id == "manifold-sphere":
        mani = unit_sphere(obj.dimension)
        return lambda k, x: manifold_step(obj, mani, schedule, k, x)
    if method_id == "manifold-intrinsic":
        met = metric or identity_metric(obj.dimension)
        return lambda k, x: intrinsic_manifold_step(obj, met, schedule, k, x)
    raise MethodError(f"unknown method id {method_id!r}; expected one of {METHOD_IDS}")


# ---------------------------------------------------------------------------
# trajectory runner
# ---------------------------------------------------------------------------

@dataclass
class Terminal:
    """How a trajectory ended.

    kind is one of ``escaped_region`` / ``converged_to_point`` /
    ``budget_exhausted`` / ``step_error``; ``point`` and ``point_class`` are
    set for convergence, ``message`` for step errors.
    """

    kind: str
    point: Optional[np.ndarray] = None
    point_class: Optional[CriticalPointClass] = None
    message: Optional[str] = None


@dataclass
class TrajectoryRecord:
    """Stride-decimated trajectory with bookkeeping for CSV export."""

    method_id: str
    schedule_id: str
    terminal: Terminal
    k_final: int
    ks: list = field(default_factory=list)
    points: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    seed: Optional[int] = None

    @property
    def final_point(self) -> np.ndarray:
        return self.points[-1]


def run(method_id: str, obj: Objective, schedule: StepSchedule, x0: np.ndarray, *,
        budget: int = DEFAULT_BUDGET, conv_tol: float = 1e-9,
        escape_radius: float = DEFAULT_ESCAPE_RADIUS, stride: int = DEFAULT_STRIDE,
        window: int = CONVERGENCE_WINDOW, grad_tol: float = 1e-8, eig_tol: float = 1e-8,
        metric: RiemannianMetric | None = None, seed: int | None = None) -> TrajectoryRecord:
    """Iterate ``method_id`` from ``x0`` until escape, convergence, or budget.

    This is the one-row case of :func:`run_batch`: the same steps and the
    same stopping rules.  Convergence is declared after ``window``
    consecutive steps of motion below ``conv_tol`` (a Cauchy-window test);
    the limit is then classified with :func:`classify_critical_point`.
    Escape means ``||x_k|| > escape_radius``; a NaN ``escape_radius``
    raises ``MethodError``.  Step errors (mirror domain
    violations, singular proximal systems, ...) terminate the run with the
    ``step_error`` tag instead of raising.  Points are recorded every
    ``stride`` steps plus the final state.
    """
    if budget < 1 or stride < 1 or window < 1:
        raise MethodError(f"run needs budget, stride and window >= 1, "
                          f"got {budget}, {stride} and {window}")
    x = np.array(x0, dtype=float)
    if x.shape != (obj.dimension,):
        raise MethodError(f"x0 must have shape ({obj.dimension},), got {x.shape}")
    update = _update(method_id, obj, schedule, budget, metric)
    path: list = []
    res = _advance(update, x[None], budget, conv_tol, escape_radius, window, path, stride)
    k_final, final = int(res.k_final[0]), res.final[0]
    kept = [(k, X[0]) for k, X in path if k < k_final] + [(k_final, final)]
    terminal = Terminal(res.terminal[0], message=res.message[0])
    if terminal.kind == CONVERGED_TO_POINT:
        terminal.point = final.copy()
        terminal.point_class = classify_critical_point(obj, final, grad_tol=grad_tol,
                                                       eig_tol=eig_tol)
    return TrajectoryRecord(
        method_id=method_id, schedule_id=schedule.describe(), terminal=terminal,
        k_final=k_final, ks=[k for k, _ in kept], points=[p for _, p in kept],
        step_sizes=[schedule.value(k) for k, _ in kept],
        grad_norms=[float(np.linalg.norm(obj.grad(p))) for _, p in kept], seed=seed)


BatchResult = NamedTuple("BatchResult", [
    ("terminal", list), ("k_final", np.ndarray), ("final", np.ndarray), ("message", list)])
BatchResult.__doc__ = """Per-row terminal kind, k_final, final point and step-error message."""


_NO_ERROR = {}.get  # error(j) of an update that has no per-row step errors
_RESOLVENT_BLOCK = 1 << 16  # doubles in one block of prox resolvents


def _update(method_id: str, obj: Objective, schedule: StepSchedule, budget: int,
            metric: RiemannianMetric | None = None):
    """``(k, X) -> (X_next, error)``: one step of ``method_id`` for every row of X.

    gd, mirror-euclidean and manifold-intrinsic on vectorized objectives and
    prox on quadratics step all rows at once.  Every other pair applies :func:`make_step`'s
    one-point step row by row; a ``MethodError`` sets that row to NaN.
    ``error(j)`` is row j's step-error message or None.  A row with a step
    error is never finite, so it stops and only stopping rows are asked.

    Prox on a quadratic inverts its resolvents a block of steps at a time
    (:func:`_resolvents`, at most ``_RESOLVENT_BLOCK`` doubles and never past
    ``budget``), with alpha_k = ``schedule.value(k)`` as in the one-point
    step; the steps must come in order k = 0, 1, ....  A block stops before
    its first singular system, and that step raises the ``MethodError``.
    """
    A = getattr(obj, "quadratic_matrix", None)
    if method_id == "prox" and A is not None:
        block = max(1, min(1024, _RESOLVENT_BLOCK // A.size))
        k0, RT = 0, np.empty((0,) + A.shape)

        def prox(k, X):
            nonlocal k0, RT
            if not 0 <= k - k0 < len(RT):
                k0 = k
                RT = _resolvents(A, [schedule.value(j) for j in range(k, min(k + block, budget))])
                if not len(RT):
                    raise _singular_resolvent(k, schedule.value(k))
            return X @ RT[k - k0], _NO_ERROR
        return prox
    if obj.vectorized and method_id == "gd":
        def gd(k, X):
            G = obj.grad(X)
            return X - schedule.value(k) * G, lambda j: None if np.all(np.isfinite(G[j])) \
                else f"non-finite gradient at k={k}, x={X[j]}"
        return gd
    if obj.vectorized and method_id == "mirror-euclidean":
        return lambda k, X: (X - schedule.value(k) * obj.grad(X), _NO_ERROR)
    if obj.vectorized and method_id == "manifold-intrinsic":
        M = (metric or identity_metric(obj.dimension)).matrix
        return lambda k, X: (X - schedule.value(k) * (obj.grad(X) @ M.T), _NO_ERROR)

    step = make_step(method_id, obj, schedule, metric=metric)

    def rowwise(k, X):
        Xn, errors = np.empty_like(X), {}
        for j, x in enumerate(X):
            try:
                Xn[j] = step(k, x)
            except MethodError as err:
                Xn[j], errors[j] = np.nan, str(err)
        return Xn, errors.get
    return rowwise


def _advance(update, X0: np.ndarray, budget: int, conv_tol: float, escape_radius: float,
             window: int, path: list | None = None, stride: int = 1) -> BatchResult:
    """Advance the rows of ``X0`` in lockstep until each one stops.

    One ``update(k, X)`` per k over the still-active rows; finished rows
    leave the active set.  Each row stops at the first of: step error at k
    (final state x_k), escape, Cauchy window (``window`` >= 1), budget.
    With ``path``, ``(k, X)`` is appended for k = 0 and every ``stride``-th
    k, X being the rows that were active for that step.  An empty ``X0``
    takes no step, and a NaN ``escape_radius`` raises ``MethodError``; an
    infinite one stops a row at inf only on the step error ``error(j)`` names.

    While no row has a quiet streak, one whole-batch bound settles most
    steps: if the sum of all squares of X_{k+1}, or failing that the largest
    row's, is below escape_radius^2 and the smallest squared row motion above
    conv_tol^2, no row escapes, none starts a streak and none stops, so the
    per-row bookkeeping is skipped.  Otherwise it runs, and so the rows get
    the same ends and bits either way.
    """
    if np.isnan(escape_radius):  # no row could escape, and every row would stop at once
        raise MethodError("escape_radius must be a number, got NaN")
    n = len(X0)
    terminal, message = [BUDGET_EXHAUSTED] * n, [None] * n
    k_final, final = np.full(n, budget, dtype=np.int64), X0.copy()
    if not n:
        return BatchResult(terminal, k_final, final, message)
    X, rows, quiet = X0, np.arange(n), np.zeros(n, dtype=np.int64)  # active rows only
    # Rounding of the whole-batch bound: the per-row code takes the square
    # root of a sum of d squares; the bound sums n*d squares for all of X
    # and only d for the row max and the row motions.  Each is off by at
    # most a relative (n*d)·2^-53 < 5e-10 for n*d <= 2^22, plus a few
    # 2^-53 for the roots and the thresholds, which the 1e-9 margins cover.
    # Squares below the normal range carry no relative bound, hence the
    # floor at tiny; a tiny or negative radius and a larger batch skip the
    # bound.  NaN fails every test, and the cap at the largest double makes
    # inf and an overflowing sum fail the radius tests.
    big, tiny = np.finfo(float).max, np.finfo(float).tiny
    bounded = escape_radius >= 2.0 ** -500 and X0.size <= 1 << 22
    below = min(escape_radius * escape_radius * (1.0 - 1e-9), big) if bounded else -1.0
    above = max(conv_tol * conv_tol, tiny) * (1.0 + 1e-9)
    streak = False  # some active row has a quiet streak
    if path is not None:
        path.append((0, X0))
    for k in range(budget):
        try:
            Xn, error = update(k, X)
        except MethodError as err:  # one singular prox system stops every row
            for r in rows:
                terminal[r], message[r] = STEP_ERROR, str(err)
            k_final[rows], final[rows] = k, X
            return BatchResult(terminal, k_final, final, message)
        if path is not None and (k + 1) % stride == 0:
            path.append((k + 1, Xn))
        D = Xn - X
        if not streak:
            flat = Xn.ravel()
            if (flat @ flat <= below or np.einsum("ij,ij->i", Xn, Xn).max() <= below) \
                    and np.einsum("ij,ij->i", D, D).min() > above:
                X = Xn
                continue
        # row norms as np.linalg.norm(axis=1) computes them, without its overhead
        quiet = np.where(np.sqrt(np.add.reduce(D * D, axis=1)) < conv_tol, quiet + 1, 0)
        radius = np.sqrt(np.add.reduce(Xn * Xn, axis=1))
        stop = ~(radius <= escape_radius) | (quiet >= window)  # a NaN radius stops too
        if escape_radius == np.inf:  # inf <= inf keeps a row that a step overflowed
            for j in np.flatnonzero(np.isinf(radius) & ~stop):
                stop[j] = error(j) is not None
        if not stop.any():
            X, streak = Xn, bool(quiet.any())
            continue
        for j in np.flatnonzero(stop):
            msg = error(j)
            if msg is None and np.any(np.isnan(Xn[j])):
                msg = f"non-finite iterate at k={k + 1}"
            if msg is not None:
                end = STEP_ERROR, k, X[j], msg
            elif radius[j] > escape_radius:
                end = ESCAPED_REGION, k + 1, Xn[j], None
            else:
                end = CONVERGED_TO_POINT, k + 1, Xn[j], None
            r = rows[j]
            terminal[r], k_final[r], final[r], message[r] = end
        X, rows, quiet = Xn[~stop], rows[~stop], quiet[~stop]
        streak = bool(quiet.any())
        if not rows.size:
            break
    final[rows] = X
    return BatchResult(terminal, k_final, final, message)


def run_batch(method_id: str, obj: Objective, schedule: StepSchedule, X0: np.ndarray, *,
              budget: int = DEFAULT_BUDGET, conv_tol: float = 1e-9,
              escape_radius: float = DEFAULT_ESCAPE_RADIUS, window: int = CONVERGENCE_WINDOW,
              metric: RiemannianMetric | None = None) -> BatchResult:
    """Run every row of ``X0`` to the terminal :func:`run` would give it.

    All rows advance in lockstep, one step per k with alpha_k =
    ``schedule.value(k)``, and finished rows leave the active set.  gd,
    mirror-euclidean and manifold-intrinsic on vectorized objectives and
    prox on quadratics take one batched step for all rows; every other
    method/objective pair steps row by row in the same loop.  The stopping
    order is ``run``'s: step error at k, escape, Cauchy window, budget.  An
    empty ``X0`` returns an empty result at once.
    """
    X0 = np.asarray(X0, dtype=float)
    if budget < 1 or window < 1 or X0.ndim != 2 or X0.shape[1] != obj.dimension:
        raise MethodError(f"run_batch needs budget and window >= 1 and X0 of shape "
                          f"(n, {obj.dimension}), got {budget}, {window} and {X0.shape}")
    return _advance(_update(method_id, obj, schedule, budget, metric=metric), X0, budget,
                    conv_tol, escape_radius, window)

"""Twice-differentiable test objectives with exact gradient/Hessian oracles.

An objective is its gradient and Hessian: the methods are first order and
never evaluate f, so the formulas for f below only name them.  The
built-in objectives are the ones the experiments need:

- ``quadratic(A)``: ``f(x) = 0.5 x^T A x`` for symmetric ``A``.
- ``fig1()``: the saddle benchmark ``f(x, y) = x^2 - y^2`` (``A = diag(2, -2)``).
- ``cubic_perturbed_saddle(a)``: ``f(x, y) = x^2/2 - y^2/2 + a x^2 y``, a
  strict saddle at the origin with a genuinely nonlinear remainder.

Every objective takes a stack of points of shape (..., d) as well as one
point, which is how the methods step a whole batch at once.  The built-in
callables broadcast over the leading axes; a user-supplied one that handles
single points only is looped over the points once, at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spectral import SpectralSplit, split

__all__ = [
    "ObjectiveError",
    "EigensolverError",
    "Objective",
    "CriticalPointClass",
    "quadratic",
    "fig1",
    "cubic_perturbed_saddle",
    "classify_critical_point",
    "STRICT_SADDLE",
    "LOCAL_MIN_CANDIDATE",
    "DEGENERATE",
    "NOT_CRITICAL",
    "DEFAULT_GRAD_TOL",
    "DEFAULT_EIG_TOL",
]

STRICT_SADDLE = "strict_saddle"
LOCAL_MIN_CANDIDATE = "local_min_candidate"
DEGENERATE = "degenerate"
NOT_CRITICAL = "not_critical"

SYMMETRY_TOL = 1e-12
DEFAULT_GRAD_TOL = 1e-8  # a point is critical when its gradient norm is at most this
DEFAULT_EIG_TOL = 1e-8  # Hessian eigenvalues within this of 0 count as 0


class ObjectiveError(ValueError):
    """Raised for invalid objective construction or evaluation input."""


class EigensolverError(RuntimeError):
    """Raised when the Hessian eigensolver fails (distinct from classification)."""


class Objective:
    """Bundle of the ``grad``/``hess`` callables of some f on R^d (no f itself).

    Parameters
    ----------
    dimension : int
        Ambient dimension ``d``.
    grad_fn, hess_fn : callables
        ``grad f: R^d -> R^d`` and ``hess f: R^d -> R^{d x d}``.
    vectorized : bool, keyword-only
        True when the callables broadcast over stacked points of shape
        (..., d).  False (the default) wraps each of them in one loop over
        the points, so ``grad``/``hess`` take stacks either way.
    """

    def __init__(
        self,
        dimension: int,
        grad_fn: Callable[[np.ndarray], np.ndarray],
        hess_fn: Callable[[np.ndarray], np.ndarray],
        *,
        vectorized: bool = False,
    ):
        if dimension < 1:
            raise ObjectiveError(f"objective dimension must be >= 1, got {dimension}")
        self.dimension = int(dimension)
        if not vectorized:
            d = self.dimension
            grad_fn = _each_point(grad_fn, (d,))
            hess_fn = _each_point(hess_fn, (d, d))
        self._grad = grad_fn
        self._hess = hess_fn

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.dimension:
            raise ObjectiveError(
                f"point has shape {x.shape}, objective expects (..., {self.dimension})")
        return x

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self._grad(self._check(x))

    def hess(self, x: np.ndarray) -> np.ndarray:
        return self._hess(self._check(x))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Objective d={self.dimension}>"


def _each_point(fn: Callable, tail: tuple) -> Callable:
    """``fn`` of one point, applied to each point of a (..., d) stack; its
    value at one point has shape ``tail``, which an empty stack keeps.  One
    Python loop over the points gives ``np.apply_along_axis``'s values, with
    a quarter of its overhead on a one-point stack."""
    def each(x):
        if x.ndim == 1:
            return fn(x)
        return np.array([fn(p) for p in x.reshape(-1, x.shape[-1])]).reshape(x.shape[:-1] + tail)
    return each


def quadratic(A: np.ndarray) -> Objective:
    """``f(x) = 0.5 x^T A x`` for symmetric ``A``; rejects asymmetry above 1e-12.

    The gradient is ``A x`` and the Hessian is the constant matrix ``A``.
    The returned objective carries the matrix as ``.quadratic_matrix`` so the
    harness can recognize exactly linear dynamics.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ObjectiveError(f"quadratic needs a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ObjectiveError("quadratic matrix has a non-finite entry")
    scale = max(1.0, float(np.max(np.abs(A))))
    if float(np.max(np.abs(A - A.T))) > SYMMETRY_TOL * scale:
        raise ObjectiveError("quadratic matrix is not symmetric (tolerance 1e-12)")
    d = A.shape[0]

    def _grad(x):
        return x @ A  # A symmetric, so x @ A == A @ x for single points

    def _hess(x):
        return np.broadcast_to(A, x.shape[:-1] + A.shape).copy()

    obj = Objective(d, _grad, _hess, vectorized=True)
    obj.quadratic_matrix = A.copy()
    return obj


def fig1() -> Objective:
    """The two-dimensional saddle benchmark ``f(x, y) = x^2 - y^2``."""
    return quadratic(np.diag([2.0, -2.0]))


def cubic_perturbed_saddle(a: float) -> Objective:
    """``f(x, y) = x^2/2 - y^2/2 + a x^2 y`` with ``|a| <= 1``.

    The origin is a strict saddle with Hessian ``diag(1, -1)``; the cubic
    term supplies a quadratic-order remainder whose Lipschitz modulus on the
    ball B(0, delta) is bounded by ``6 |a| delta``.

    The gradient writes each column once, through the ``out`` of its last
    ufunc: ``x + (2a x) y`` and ``a x x - y``.  For any stack shape and
    layout these are the bits of the plain expressions ``x + 2.0 * a * x * y``
    and ``-y + a * x * x`` wherever those are not NaN, since ``t - y`` is
    exactly ``-y + t`` in IEEE arithmetic; only a NaN's sign may differ.
    """
    a = float(a)
    if not np.isfinite(a) or abs(a) > 1.0:
        raise ObjectiveError(f"cubic_perturbed_saddle needs |a| <= 1, got a={a}")
    a2 = 2.0 * a

    def _grad(z):
        x, y = z[..., 0], z[..., 1]
        g = np.empty(z.shape)
        np.add(x, a2 * x * y, g[..., 0])
        np.subtract(a * x * x, y, g[..., 1])
        return g

    def _hess(z):
        x, y = z[..., 0], z[..., 1]
        h = np.empty(z.shape + (2,))
        h[..., 0, 0], h[..., 1, 1] = 1.0 + 2.0 * a * y, -1.0
        h[..., 0, 1] = h[..., 1, 0] = 2.0 * a * x
        return h

    obj = Objective(2, _grad, _hess, vectorized=True)
    obj.cubic_coefficient = a
    return obj


@dataclass(frozen=True)
class CriticalPointClass:
    """Classification of a point: tag, least Hessian eigenvalue, gradient norm."""

    tag: str
    min_eigenvalue: float
    grad_norm: float


def _require_critical(obj: Objective, x: np.ndarray, error: type, name: str) -> None:
    """Raise ``error`` unless ||grad f(x)|| <= DEFAULT_GRAD_TOL (a NaN norm is not)."""
    with np.errstate(over="ignore", invalid="ignore"):  # a far point's gradient may overflow
        norm = float(np.linalg.norm(obj.grad(x)))
    if not norm <= DEFAULT_GRAD_TOL:
        raise error(f"{name} = {x.tolist()} is not a critical point: |grad| = {norm:.3e}")


def _require_saddle(H: np.ndarray, x: np.ndarray, error: type, name: str) -> SpectralSplit:
    """``split(H)`` of the Hessian H at x; raise ``error`` unless it has a positive
    eigenvalue and one <= 0, a nonempty stable and unstable block by the split's rule."""
    sp = split(H)
    if not (sp.stable_indices.size and sp.unstable_indices.size):
        missing = "eigenvalue <= 0" if sp.stable_indices.size else "positive eigenvalue"
        raise error(f"{name} = {x.tolist()} is not a saddle: the Hessian has no {missing}")
    return sp


def classify_critical_point(obj: Objective, x: np.ndarray) -> CriticalPointClass:
    """Classify ``x`` as strict saddle / local-min candidate / degenerate / not critical.

    A point is critical when ``||grad f(x)|| <= DEFAULT_GRAD_TOL`` (1e-8).
    Critical points split by the least Hessian eigenvalue ``m`` against
    ``DEFAULT_EIG_TOL`` (1e-8): strict saddle when ``m < -1e-8``, degenerate
    when ``|m| <= 1e-8``, local-min candidate when ``m > 1e-8``.  Eigensolver
    breakdown raises :class:`EigensolverError` rather than mis-tagging the point.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (obj.dimension,):
        raise ObjectiveError(
            f"classify_critical_point expects a point of shape ({obj.dimension},), got {x.shape}")
    g = obj.grad(x)
    grad_norm = float(np.linalg.norm(g))
    H = np.asarray(obj.hess(x), dtype=float)
    if H.shape != (obj.dimension, obj.dimension) or not np.all(np.isfinite(H)):
        raise EigensolverError(f"Hessian at {x} is malformed or non-finite")
    try:
        eigenvalues = np.linalg.eigvalsh(0.5 * (H + H.T))
    except np.linalg.LinAlgError as err:
        raise EigensolverError(f"Hessian eigendecomposition failed at {x}: {err}") from err
    if not np.all(np.isfinite(eigenvalues)):
        raise EigensolverError(f"Hessian eigendecomposition returned non-finite values at {x}")
    min_eig = float(eigenvalues[0])

    if grad_norm > DEFAULT_GRAD_TOL:
        tag = NOT_CRITICAL
    elif min_eig < -DEFAULT_EIG_TOL:
        tag = STRICT_SADDLE
    elif min_eig > DEFAULT_EIG_TOL:
        tag = LOCAL_MIN_CANDIDATE
    else:
        tag = DEGENERATE
    return CriticalPointClass(tag=tag, min_eigenvalue=min_eig, grad_norm=grad_norm)

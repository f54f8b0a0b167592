"""Spectral splitting and closed-form linear dynamics.

Everything downstream works in the diagonalizing frame of the Hessian at the
saddle: ``split`` factors a (symmetrizable) matrix ``G`` as ``Q G Q^{-1} = H``
with ``H`` diagonal, orders the eigenvalues descending, and partitions the
coordinates into the stable block (eigenvalue > 0, contracted by the update
factors ``1 - alpha_k * lambda``) and the unstable block (eigenvalue <= 0;
zero eigenvalues deliberately live here).

Transition products are kept coordinate-wise: the product

    A(m, n) = prod_{t=n}^{m} (1 - alpha_t * lambda_i)     (identity for m < n)

is a vector of diagonal entries, never a dense matrix product, so there is no
spurious rounding from matrix multiplication and no O(d^3) cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedules import DIVERGENT, StepSchedule

__all__ = [
    "SpectralError",
    "SpectralSplit",
    "split",
    "transition_product",
    "quadratic_trajectory",
    "classify_coordinate_limit",
    "TO_ZERO",
    "CONSTANT",
    "DIVERGES",
    "CONVERGES_NONZERO",
]

TO_ZERO = "to_zero"
CONSTANT = "constant"
DIVERGES = "diverges"
CONVERGES_NONZERO = "converges_nonzero"

RECONSTRUCTION_TOL = 1e-8


class SpectralError(ValueError):
    """Raised for non-diagonalizable input, complex spectra, or failed checks."""


@dataclass
class SpectralSplit:
    """Diagonalization ``Q G Q^{-1} = diag(eigenvalues)`` plus the stable split.

    Attributes
    ----------
    eigenvalues : (d,) array, descending.
    Q, Q_inv : (d, d) arrays; diagonal-frame coordinates are ``z = Q @ x``.
    stable_indices : indices with eigenvalue > 0.
    unstable_indices : indices with eigenvalue <= 0.
    """

    eigenvalues: np.ndarray
    Q: np.ndarray
    Q_inv: np.ndarray
    stable_indices: np.ndarray
    unstable_indices: np.ndarray

    @property
    def dimension(self) -> int:
        return self.eigenvalues.size


def split(G: np.ndarray) -> SpectralSplit:
    """Diagonalize ``G`` and split coordinates by eigenvalue sign.

    Symmetric input goes through the dense symmetric eigensolver; general
    input must be real-diagonalizable with a real spectrum.  In both cases the
    reconstruction ``||Q G Q^{-1} - diag|| <= 1e-8 ||G||`` (Frobenius) is
    verified, and eigenvector rows are sign-canonicalized (largest-magnitude
    entry positive) so results are deterministic.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise SpectralError(f"split needs a square matrix, got shape {G.shape}")
    if not np.all(np.isfinite(G)):
        raise SpectralError("split needs a finite matrix")
    d = G.shape[0]
    scale = max(1.0, float(np.linalg.norm(G)))

    symmetric = float(np.max(np.abs(G - G.T))) <= 1e-12 * scale
    if symmetric:
        w, V = np.linalg.eigh(G)
    else:
        w, V = np.linalg.eig(G)
        if float(np.max(np.abs(w.imag))) > 1e-10 * scale:
            raise SpectralError("split needs a real spectrum; complex eigenvalues found")
        w, V = w.real, V.real
    order = np.argsort(-w, kind="stable")
    w, V = w[order], V[:, order]
    try:
        Q = V.T.copy() if symmetric else np.linalg.inv(V)
    except np.linalg.LinAlgError as err:
        raise SpectralError(f"eigenvector matrix is singular (defective input): {err}") from err
    Q_inv = V.copy()  # C-ordered; V[:, order] is F-ordered

    # Sign canonicalization: flip each eigenvector so the largest-|.| entry of
    # the corresponding Q row is positive.  Keeps Q deterministic across runs.
    for i in range(d):
        j = int(np.argmax(np.abs(Q[i])))
        if Q[i, j] < 0:
            Q[i] *= -1.0
            Q_inv[:, i] *= -1.0

    residual = float(np.linalg.norm(Q @ G @ Q_inv - np.diag(w)))
    if residual > RECONSTRUCTION_TOL * scale:
        raise SpectralError(
            f"diagonalization reconstruction failed: residual {residual:.3e} "
            f"exceeds {RECONSTRUCTION_TOL:g} * ||G||")

    stable = np.flatnonzero(w > 0.0)
    unstable = np.flatnonzero(w <= 0.0)
    return SpectralSplit(eigenvalues=w, Q=Q, Q_inv=Q_inv,
                         stable_indices=stable, unstable_indices=unstable)


def transition_product(split_: SpectralSplit, schedule: StepSchedule,
                       m: int, n: int) -> np.ndarray:
    """Diagonal of ``A(m, n) = prod_{t=n}^{m} (I - alpha_t H)``; ones when ``m < n``.

    Returned as the length-d vector of diagonal entries in the diagonal
    frame.  Restrict to ``split_.stable_indices`` for the contracting B-block
    and to ``split_.unstable_indices`` for the expanding C-block.
    """
    if n < 0:
        raise SpectralError(f"transition_product needs n >= 0, got n={n}")
    d = split_.dimension
    if m < n:
        return np.ones(d)
    alphas = schedule.values(m + 1)[n:]
    # prod_t (1 - alpha_t * lambda_i), kept coordinate-wise.
    factors = 1.0 - alphas[:, None] * split_.eigenvalues[None, :]
    with np.errstate(over="ignore"):
        return np.prod(factors, axis=0)


def quadratic_trajectory(split_: SpectralSplit, schedule: StepSchedule,
                         x0: np.ndarray, num_steps: int) -> np.ndarray:
    """States ``x_0, ..., x_{num_steps}`` of the linear dynamics, closed form.

    ``x0`` is given in the diagonal frame; row ``k`` of the result is
    ``prod_{t=0}^{k-1}(1 - alpha_t * lambda_i) * x0_i``, accumulated as a
    running product (per coordinate).  Matches iterating the explicit
    gradient-descent step on the underlying quadratic to ~1e-12 relative.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (split_.dimension,):
        raise SpectralError(
            f"x0 must have shape ({split_.dimension},), got {x0.shape}")
    if num_steps < 0:
        raise SpectralError(f"num_steps must be >= 0, got {num_steps}")
    alphas = schedule.values(num_steps)
    factors = 1.0 - alphas[:, None] * split_.eigenvalues[None, :]
    out = np.empty((num_steps + 1, split_.dimension))
    out[0] = x0
    with np.errstate(over="ignore"):
        np.cumprod(factors, axis=0, out=factors)
        out[1:] = factors * x0[None, :]
    return out


def classify_coordinate_limit(lam: float, schedule: StepSchedule) -> str:
    """Long-run behaviour of the scalar product ``prod (1 - alpha_t * lam)``.

    - ``lam == 0``: the coordinate never moves (``constant``).
    - Convergent step-size series: the product converges, generally to a
      nonzero multiple of the start (``converges_nonzero``).
    - Divergent series: ``to_zero`` when ``lam > 0``, ``diverges`` when
      ``lam < 0`` (the factors eventually exceed 1 in magnitude).
    """
    if lam == 0.0:
        return CONSTANT
    if schedule.classify_sum() != DIVERGENT:
        return CONVERGES_NONZERO
    return TO_ZERO if lam > 0 else DIVERGES

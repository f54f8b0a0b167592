"""A plain one-point trajectory loop, the reference for methods.run and run_batch.

``methods.run`` is the one-row case of the lockstep loop behind ``run_batch``,
so comparing the two checks the loop only against itself.  This loop steps
one point with ``make_step`` and applies the same stopping rules (no
recording), as an independent implementation to compare both against.
"""

import numpy as np

from saddle_escape.methods import (BUDGET_EXHAUSTED, CONVERGED_TO_POINT,
                                   ESCAPED_REGION, STEP_ERROR, MethodError)


def reference_run(step, x0, *, budget, conv_tol, escape_radius, window):
    """Iterate ``step(k, x)`` from ``x0``; return (kind, k_final, final point, message).

    Stopping order per step: step error at k (final point x_k), escape
    (||x_{k+1}|| > escape_radius), ``window`` consecutive steps shorter than
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
        if quiet >= window:
            return CONVERGED_TO_POINT, k + 1, x, None
    return BUDGET_EXHAUSTED, budget, x, None

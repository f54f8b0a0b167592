# One saddle, four methods.
#
# Gradient descent, mirror descent with the euclidean mirror map, and the
# metric method without a metric are the same recursion: the library
# resolves both aliases to gd's step, so their trajectories agree bit for
# bit.  The proximal method and the entropy mirror map (multiplicative
# weights) are genuinely different maps, shown on their own worked inputs.

import math

import numpy as np

from saddle_escape import constant, fig1, make_step, power, quadratic, run

schedule = power(1.0, 1.0, 2)
x0 = np.array([0.5, 0.5])

recs = {mid: run(mid, fig1(), schedule, x0, budget=2000)
        for mid in ("gd", "mirror-euclidean", "manifold-intrinsic")}

ref = np.asarray(recs["gd"].points)
print("max |trajectory - gd trajectory| over the whole run:")
for mid, rec in recs.items():
    gap = np.max(np.abs(np.asarray(rec.points) - ref))
    print(f"  {mid:<20} {gap:.3e}   (escaped at k={rec.k_final})")

# --- proximal: the implicit step is a resolvent ------------------------------
A = np.diag([2.0, -1.0])
x = np.array([1.0, 1.0])
y = make_step("prox", quadratic(A), constant(0.5))(0, x)
print()
print("proximal step on 1/2 x' diag(2,-1) x with alpha=1/2:")
print(f"  (I + alpha A)^-1 (1,1) = {y}   # expect (0.5, 2.0)")
print("  contraction by 1/(1+alpha*lam) on the stable axis,")
print("  expansion by 1/(1-alpha*lam) on the unstable one")

# --- entropy mirror map = multiplicative weights ------------------------------
from saddle_escape import Objective

lin_grad = np.array([1.0, 0.0])
lin = Objective(2, lambda z: lin_grad.copy(), lambda z: np.zeros((2, 2)))  # f = <(1,0), x>
out = make_step("mirror-entropy", lin, constant(math.log(2.0)))(0, np.array([0.5, 0.5]))
print()
print("entropy mirror step from the uniform distribution, f = <(1,0), x>,")
print(f"alpha = ln 2:  {out}   # expect (1/3, 2/3)")
print("same numbers as weights w_i = x_i * exp(-alpha g_i), renormalised.")

"""Build a stable-manifold chart for a cubic-perturbed saddle, then stress it.

The objective is f(x, y) = x^2/2 - y^2/2 + a*x^2*y with a = 0.1.  Near the
origin the gradient recursion with steps 1/(k+2) has a one-dimensional set
of starts that flow INTO the saddle; everything else leaves.  The chart
y = phi(x) of that set is computed as the fixed point of a Lyapunov-Perron
operator on sequence space, together with a contraction certificate that
makes the construction rigorous rather than heuristic.

The shooting oracle is the sanity check: for a frozen first coordinate it
bisects on the second until the trajectory stays bounded, knowing nothing
about the operator.
"""

import numpy as np

from saddle_escape import (chart, cubic_perturbed_saddle, iterate_raw, power,
                           remainder_from_objective, shooting_oracle)

prob, cert = remainder_from_objective(cubic_perturbed_saddle(0.1),
                                      np.zeros(2), power(1.0, 1.0, 2))

print("contraction certificate")
print(f"  forward bound K1      = {cert.k1:.12f}")
print(f"  backward bound K2     = {cert.k2:.12f}")
print(f"  remainder slope eps   = {cert.epsilon:.6f}  (delta = {prob.delta})")
print(f"  contraction factor K  = {cert.k:.12f}  -> valid: {cert.valid}")
print(f"  certifiable up to eps < {cert.epsilon_star:.6f}")
print(f"  horizon N = {prob.horizon}, truncation tail <= {prob.tail_estimate:.2e}"
      f"  (orbit decay rate gamma = {prob.decay_rate:g})")
print(f"  horizon capped: {prob.horizon_capped}  (tail_tol = {prob.tail_tol:g})")
print()

grid = np.linspace(-0.05, 0.05, 5)
ch = chart(prob, grid)

print("chart vs. independent shooting oracle")
for g, phi in zip(ch.grid, ch.phi):
    shot = shooting_oracle(prob, g, bracket=prob.delta, steps=4000, width=1e-7)
    print(f"  x = {g[0]:+.3f}   phi(x) = {phi[0]:+.9f}   "
          f"shooting = {shot[0]:+.9f}   gap = {abs(phi[0] - shot[0]):.2e}")

print("  (the oracle lands on the lower edge of the still-bounded zone, whose")
print(f"   half-width at this horizon is 2*delta/(steps+2) ~ {2 * prob.delta / 4002:.1e};")
print("   the gap column is that resolution floor, not chart error)")

print()
print(f"phi(0) = {ch.phi_zero_norm:.2e}, finite-difference |Dphi(0)| = "
      f"{max(ch.dphi_norms.values()):.2e}  (tangent to the stable axis)")

# a start on the chart stays near the saddle; nudging the unstable coordinate
# by 1e-3 is enough to get thrown out of the delta-ball
x = float(ch.grid[-1][0])
on = np.array([x, float(ch.phi[-1][0])])
_, exit_on = iterate_raw(prob, on, 4000, stop_radius=prob.delta)
print()
print(f"start on the chart      {on}: "
      f"{'stayed inside' if exit_on is None else f'left at k={exit_on}'}")
for sign in (+1.0, -1.0):
    off = on + np.array([0.0, sign * 1e-3])
    _, exit_off = iterate_raw(prob, off, 4000, stop_radius=prob.delta)
    print(f"start nudged by {sign * 1e-3:+.0e}  {off}: left at k={exit_off}")

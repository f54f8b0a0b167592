"""Independent oracles for the test suite.

Everything in here is computed from first principles with exact rational
arithmetic (fractions.Fraction) or plain math, without importing the package
under test.  Unit and acceptance tests compare library output against these
values; where a closed form exists the frozen literal in the test carries a
pointer back to the oracle function that produced it.

Run as a script to print the frozen values:

    python3 -m tests.oracles
"""

from __future__ import annotations

import math
from fractions import Fraction


def harmonic_number(n: int) -> Fraction:
    """H_n = sum_{j=1}^{n} 1/j, exact."""
    return sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))


def power_alpha(k: int, c: Fraction = Fraction(1), p: int = 1, offset: int = 2) -> Fraction:
    """Step size c/(k+offset)^p for integer p, exact."""
    return c / Fraction(k + offset) ** p


def product_factor(lam: Fraction, alphas: list[Fraction]) -> Fraction:
    """prod_t (1 - lam * alpha_t), exact."""
    out = Fraction(1)
    for a in alphas:
        out *= 1 - lam * a
    return out


def telescoped_stable(k: int) -> Fraction:
    """prod_{t=0}^{k} (1 - 1/(t+2)) — collapses to 1/(k+2)."""
    return product_factor(Fraction(1), [power_alpha(t) for t in range(k + 1)])


def telescoped_unstable(k: int) -> Fraction:
    """prod_{t=0}^{k} (1 + 1/(t+2)) — collapses to (k+3)/2."""
    return product_factor(Fraction(-1), [power_alpha(t) for t in range(k + 1)])


def k1_recursion(lam: Fraction, alphas: list[Fraction]) -> list[Fraction]:
    """S_0 = a_0, S_{k+1} = (1 - a_{k+1} lam) S_k + a_{k+1}, exact prefix."""
    out = [alphas[0]]
    for a in alphas[1:]:
        out.append((1 - a * lam) * out[-1] + a)
    return out


def k2_exact_constant(alpha: Fraction, lam_abs: Fraction) -> Fraction:
    """sum_{i>=0} alpha * (1 + alpha*|lam|)^-(i+1) for a constant schedule.

    Geometric series: alpha * r/(1-r) with r = 1/(1+alpha*|lam|),
    which simplifies to alpha / (alpha*|lam|) = 1/|lam|.
    """
    r = 1 / (1 + alpha * lam_abs)
    return alpha * r / (1 - r)


def k2_partial_power_harmonic(k: int, n_terms: int) -> Fraction:
    """Partial sum of sum_i a_{k+1+i} prod_{j=k+1}^{k+1+i}(1+a_j)^-1 for a_j=1/(j+2).

    The product telescopes to (k+3)/(k+4+i) and each term is
    (k+3)/((k+3+i)(k+4+i)); the infinite sum is exactly 1 for every k.
    """
    total = Fraction(0)
    for i in range(n_terms):
        total += Fraction(k + 3, (k + 3 + i) * (k + 4 + i))
    return total


def weights(gamma: Fraction, alphas: list[Fraction]) -> list[Fraction]:
    """w_i = prod_{j<i} (1 - alpha_j gamma) for i = 0..len(alphas), exact."""
    out = [Fraction(1)]
    for a in alphas:
        out.append(out[-1] * (1 - a * gamma))
    return out


def weighted_forward_sums(lam: Fraction, gamma: Fraction,
                          alphas: list[Fraction]) -> list[Fraction]:
    """S_k = rho_k S_{k-1} + alpha_k / (1 - alpha_k gamma), S_{-1} = 0, exact prefix.

    rho_k = (1 - alpha_k lam) / (1 - alpha_k gamma): the forward sums of the
    stable block in the sequence space weighted by w_k.
    """
    out, s = [], Fraction(0)
    for a in alphas:
        s = (1 - a * lam) / (1 - a * gamma) * s + a / (1 - a * gamma)
        out.append(s)
    return out


def weighted_tail_sum(alphas: list[Fraction], gamma: Fraction, mu: Fraction, order: int,
                      start: int, stop: int) -> Fraction:
    """sum_{i=start}^{stop-1} alpha_i w_i^order / P_i, exact.

    w_i = prod_{j<i} (1 - alpha_j gamma), P_i = prod_{j<=i} (1 + alpha_j mu):
    the terms that a horizon of ``start`` drops from entry 0's backward sum,
    per unit epsilon * delta, along an orbit with |u_i| <= delta w_i.
    """
    w, p, total = Fraction(1), Fraction(1), Fraction(0)
    for i in range(stop):
        p *= 1 + alphas[i] * mu
        if i >= start:
            total += alphas[i] * w ** order / p
        w *= 1 - alphas[i] * gamma
    return total


def weighted_tail_bound(alphas: list[Fraction], gamma: Fraction, mu: Fraction,
                        order: int, n: int) -> Fraction:
    """w_N^m / (P_{N-1} d_N) with d_N = mu + m gamma - (m - 1) alpha_N gamma^2, exact.

    Telescoping q_i = w_{i+1}^m / P_i bounds weighted_tail_sum(start=N) by
    this for every stop (m = order, 1 or 2, nonincreasing alphas).  Numerator
    and denominator are multiplied out as integers and reduced once.
    """
    num, den = 1, 1
    for a in alphas[:n]:
        f = (1 - a * gamma) ** order / (1 + a * mu)
        num, den = num * f.numerator, den * f.denominator
    d = mu + order * gamma - (order - 1) * alphas[n] * gamma * gamma
    return Fraction(num, den) / d


def manufactured_remainder(alpha: float, z1: float, c: float, lam: float, mu: float) -> float:
    """Second coordinate of the remainder whose stable manifold is z2 = c z1^2.

    The linear dynamics diag(1 - alpha lam, 1 + alpha mu) on (u, w), written in
    z = (u, w + c u^2), step z2 by (1 + alpha mu) z2 plus this; the first
    coordinate has no remainder.  The orbits with w = 0 are exactly the
    ones that stay bounded, for every step schedule.
    """
    return c * z1 * z1 * (alpha * alpha * lam * lam - alpha * (2.0 * lam + mu))


def mwu_step(x: list[float], grad: list[float], alpha: float) -> list[float]:
    """Multiplicative-weights update, the direct exponential form."""
    weights = [xi * math.exp(-alpha * gi) for xi, gi in zip(x, grad)]
    z = sum(weights)
    return [w / z for w in weights]


def prox_diag_step(x: list[float], eigs: list[float], alpha: float) -> list[float]:
    """Proximal step on f(z) = 1/2 z^T diag(eigs) z: componentwise x/(1+alpha*lam)."""
    return [xi / (1.0 + alpha * li) for xi, li in zip(x, eigs)]


def quadratic_value(A: list[list[float]], x: list[float]) -> float:
    """f(x) = x^T A x / 2, summed term by term."""
    return 0.5 * sum(xi * aij * xj for xi, row in zip(x, A) for aij, xj in zip(row, x))


def cubic_value(x: float, y: float, a: float) -> float:
    """f(x,y) = x^2/2 - y^2/2 + a x^2 y."""
    return 0.5 * x * x - 0.5 * y * y + a * x * x * y


def cubic_grad(x: float, y: float, a: float) -> tuple[float, float]:
    """Gradient of f(x,y) = x^2/2 - y^2/2 + a x^2 y."""
    return (x + 2.0 * a * x * y, -y + a * x * x)


def escape_step_quadratic(diag: list[float], alphas_fn, x0: list[float],
                          radius: float, budget: int) -> int | None:
    """First k with ||x_k|| > radius under x_{k+1,i} = (1 - diag[i]*alpha_k) x_{k,i}."""
    x = list(x0)
    for k in range(budget):
        a = alphas_fn(k)
        x = [(1.0 - d * a) * xi for d, xi in zip(diag, x)]
        if math.sqrt(sum(xi * xi for xi in x)) > radius:
            return k + 1
    return None


def main() -> None:
    print("H_100 =", float(harmonic_number(100)), harmonic_number(100))
    print("prod_{t<=98}(1-1/(t+2)) =", telescoped_stable(98), "== 1/100:",
          telescoped_stable(98) == Fraction(1, 100))
    print("prod_{t<=97}(1+1/(t+2)) =", telescoped_unstable(97), "== 50:",
          telescoped_unstable(97) == Fraction(50))

    alphas = [power_alpha(t) for t in range(6)]
    s = k1_recursion(Fraction(1), alphas)
    print("K1 prefix (lam=1, 1/(k+2)):", [str(v) for v in s])
    print("K1 const(1/2), lam=1 prefix:",
          [str(v) for v in k1_recursion(Fraction(1), [Fraction(1, 2)] * 6)])

    print("K2 const alpha=1/2, |lam|=1:", k2_exact_constant(Fraction(1, 2), Fraction(1)))
    for k in (-1, 0, 3):
        partial = k2_partial_power_harmonic(k, 200000)
        print(f"K2 partial (power 1/(k+2), probe {k}, 2e5 terms):", float(partial))

    print("MWU worked case:", mwu_step([0.5, 0.5], [1.0, 0.0], math.log(2.0)))
    print("prox worked case:", prox_diag_step([1.0, 1.0], [2.0, -1.0], 0.5))
    print("cubic grad (1,1,a=0.25):", cubic_grad(1.0, 1.0, 0.25))

    for p, off in ((0.5, 1), (1.0, 2)):
        k = escape_step_quadratic(
            [2.0, -2.0], lambda t: 1.0 / (t + off) ** p, [0.5, 0.5], 1e3, 10**6)
        print(f"escape step, fig-1 quadratic, p={p}, offset={off}:", k)


if __name__ == "__main__":
    main()

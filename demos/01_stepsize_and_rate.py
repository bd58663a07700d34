"""The balancing stepsize and its rate.

For N steps of gradient descent on a 1-smooth convex function started within
unit distance of a minimizer, two objectives pin down the worst case from
below: the quadratic x^2/2 (punishes large stepsizes) and a Huber function
with a matched breakpoint (punishes small ones). The stepsize alpha(N) that
equalizes their final objective gaps gives the best possible lower-bound
envelope, with common value r(N).
"""

import numpy as np

from pepcert import (
    huber,
    huber_rate,
    lower_bound_envelope,
    quadratic,
    quadratic_rate,
    simulate,
    solve_rate_params,
)

print("balancing stepsize and rate for a few problem sizes")
print(f"{'N':>6} {'alpha(N)':>20} {'r(N)':>14} {'balance gap':>12}")
for n in (1, 2, 5, 10, 100, 1000, 10000):
    p = solve_rate_params(n)
    gap = abs(quadratic_rate(n, p.alpha) - huber_rate(n, p.alpha))
    print(f"{n:>6} {p.alpha:>20.16f} {p.r:>14.6e} {gap:>12.2e}")

# N=1 is solvable by hand: the balance condition reduces to a cubic with
# root alpha = 3/2 and value r = 1/8
p1 = solve_rate_params(1)
print(f"\nN=1 closed form: alpha = {p1.alpha} (exactly 1.5), r = {p1.r}")

# the envelope: max of the two closed forms over a stepsize grid; its
# minimum sits at alpha(N) with value r(N)
n = 10
p = solve_rate_params(n)
grid = np.linspace(1.5, 1.99, 50)
vals = lower_bound_envelope(n, grid)
best = np.argmin(vals)
print(f"\nenvelope minimum for N={n}: alpha ~ {grid[best]:.4f} "
      f"(true {p.alpha:.4f}), value {vals[best]:.6f} (r = {p.r:.6f})")

# running gradient descent reproduces the closed forms exactly
alpha = p.alpha
quad = simulate(quadratic, x0=1.0, alpha=alpha, N=n)
delta = 1.0 / (2 * n * alpha + 1.0)
hub = simulate(huber(delta), x0=1.0, alpha=alpha, N=n)
print(f"\nsimulated final gaps at alpha(N):")
print(f"  quadratic: {quad.fvals[-1]:.16e}  closed form {quadratic_rate(n, alpha):.16e}")
print(f"  huber:     {hub.fvals[-1]:.16e}  closed form {huber_rate(n, alpha):.16e}")
print("\nboth objectives achieve the same worst case at alpha(N); no constant")
print("stepsize can do better than r(N) against the pair.")

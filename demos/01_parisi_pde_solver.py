#!/usr/bin/env python3
"""Walk through the Parisi PDE solver: closed forms, derivatives, unification.

The solver builds the backward solution layer by layer (Cole-Hopf at each
piece of the atomic order parameter), so everything here is deterministic.
"""

import numpy as np

from gtap import MixedModel, OrderParameter, solve, solve_band, unify
from gtap.measures import band_coords

model = MixedModel(coeffs_sq=(0.0, 0.7, 0.3))     # xi = 0.7 s^2 + 0.3 s^3
print(f"model: xi(1) = {model.xi(1.0):.4f}, xi'(1) = {model.xi_prime(1.0):.4f}")

# 1. one Cole-Hopf layer has a closed form: log E 2cosh(x + sigma g)
#    with full Gibbs weight equals log 2cosh x + sigma^2 / 2
q = 0.3
zeta_rs = OrderParameter.delta_at(q, (q, 1.0))     # CDF == 1 on [q, 1]
sol = solve(model, zeta_rs)
xs = np.linspace(-4, 4, 9)
sigma2 = model.xi_prime(1.0) - model.xi_prime(q)
closed = np.log(2 * np.cosh(xs)) + sigma2 / 2
print("\nsingle-layer closed form, max error:",
      f"{np.max(np.abs(sol.phi(q, xs) - closed)):.2e}")

# 2. a genuinely layered order parameter
zeta = OrderParameter.from_atoms((q, 1.0), [(q, 0.3), (0.6, 0.4), (0.85, 0.3)])
sol = solve(model, zeta)
print("\nthree-atom order parameter on [q, 1]:")
print("  Phi(q, 0)      =", float(sol.phi(q, 0.0)))
print("  Phi_x(q, 1.0)  =", float(sol.phi_x(q, 1.0)), " (bounded by 1)")
print("  Phi_xx(q, 0)   =", float(sol.phi_xx(q, 0.0)), " (strictly positive)")

# 3. the band solution with tilt a is the same object after an affine map:
#    Phi_band(0, x) = Phi(q, x - a I) - a x + a^2 I / 2,  I = int xi'' zeta
a = 0.45
band = solve_band(model.shift(q), a, band_coords(zeta))
x = 0.8
print(f"\nunification at a={a}, x={x}:")
print("  from the original solution:", float(unify(sol, a, x)))
print("  from the band solve:       ", float(band.phi(0.0, x)))

# 4. the optimal-control process behind the PDE: E[u(s)^2] curves
for s in (q, 0.6, 0.85, 1.0):
    eu2 = float(sol.expected_u_squared(s, np.array([0.5]))[0])
    print(f"  E[u({s:.2f})^2 | X_q = 0.5] = {eu2:.6f}")
print("(increasing in s, and equal to Phi_x(q, 0.5)^2 at s = q)")

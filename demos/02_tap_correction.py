#!/usr/bin/env python3
"""Compute the generalized TAP correction for a magnetization law.

TAP(mu) minimizes int Lambda_zeta(q, a) dmu - (1/2) int s xi'' zeta over
order parameters on [q, 1]. In the replica-symmetric regime the minimizer
is the point mass at q and the value collapses to the classical correction
-int I(a) dmu + C(q); the band representation with the effective field
v_zeta reproduces the same number by an entirely different pipeline.
tap_correction tests that regime first, on the closed-form stability curve
Gamma_mu, and skips the optimizer when the curve certifies it.
"""

import numpy as np

from gtap import (DiscreteMeasure, band_representation, sk_model,
                  tap_correction)
from gtap.rs import classical_tap

model = sk_model(0.75, convention="half")     # xi = 0.28125 s^2
mu = DiscreteMeasure(interval=(0.0, 1.0),
                     atoms=((0.1, 0.4), (0.3, 0.4), (0.55, 0.2)))
q = mu.moment(2)
print(f"magnetization law with q = {q:.4f}")

res = tap_correction(model, mu, r_atoms=3)
print(f"\nTAP(mu)      = {res.value:.10f}")
print(f"classical    = {classical_tap(model, mu):.10f}")
print("minimizer atoms:", [(round(x, 6), round(w, 6))
                           for x, w in res.minimizer_zeta.measure.atoms])

diag = res.diagnostics
print("\noptimality certificate (should be ~0 and <= 0):")
print("  first residuals:", [f"{r:.2e}" for r in
                             diag["certificate"]["first_residuals"]])
print("  second slacks:  ", [f"{r:.2e}" for r in
                             diag["certificate"]["second_slacks"]])
pbar = band_representation(model, mu, res)
print(f"band-representation value = {pbar:.10f}")
print(f"representation gap        = {abs(pbar - res.value):.2e}")

rs_diag = diag["rs"]
print(f"\nRS certificate: sup Gamma = {rs_diag.sup_gamma:.3e}, "
      f"Gamma''(0) = {rs_diag.gamma_second_deriv_at_0:.4f}, "
      f"is_rs = {rs_diag.is_rs}")
print(f"stop = {diag['stop']!r} after {diag['level_evals']} optimizer "
      "evaluations (the RS test returned delta_q)")

# push the coupling up: the correction departs from the classical value
strong = sk_model(1.6, convention="half")
res2 = tap_correction(strong, mu, r_atoms=3)
print(f"\nat beta = 1.6: TAP(mu) = {res2.value:.6f}  vs  classical "
      f"{classical_tap(strong, mu):.6f}")
print("minimizer atoms:", [(round(x, 4), round(w, 4))
                           for x, w in res2.minimizer_zeta.measure.atoms])
print("(the order parameter spreads out: replica symmetry is broken; "
      f"the optimizer ran {res2.diagnostics['level_evals']} evaluations)")

#!/usr/bin/env python3
"""Ruelle cascades as a Monte-Carlo oracle for the band PDE.

Truncated Poisson-Dirichlet cascades with tree Gaussian fields realize the
band free-energy functional without any PDE: the site-factorized sum over
leaves estimates int Phi_{a,zeta}(0, lambda a + v(a)) dmu_m, and the
theta-field functional has the closed form (1/2) int zeta(s) s f''(s) ds.
"""

import numpy as np

from gtap import DiscreteMeasure, MixedModel, OrderParameter
from gtap.cascades import (psi_full, sample_cascade, upsilon, upsilon_mc,
                           zeta_to_cascade_params)
from gtap.tap import band_functional

model = MixedModel(coeffs_sq=(0.0, 0.6, 0.2))
mu = DiscreteMeasure(interval=(0, 1), atoms=((0.2, 0.5), (0.5, 0.5)))
q = mu.moment(2)
sh = model.shift(q)
H = sh.horizon

zb = OrderParameter.from_atoms((0.0, H), [(0.0, 0.4), (H, 0.6)])
levels, fnodes = zeta_to_cascade_params(zb, sh.xi_q_prime)
casc = sample_cascade(levels, 4000, seed=7)
print(f"cascade: levels {levels}, {casc.n_leaves} leaves, "
      f"retained mass ~ {casc.coverage[0]:.6f}")
print("largest weights:", np.round(np.sort(casc.weights)[::-1][:5], 4))

m_vec = [0.2] * 4 + [0.5] * 4
est = psi_full(casc, fnodes, m_vec, n_reps=200, seed=11)
target = band_functional(sh, mu, lambda a: 0.0, 0.0, zb) \
    + 0.5 * zb.integral_against(sh.theta_q)
print(f"\nsite-factorized estimate: {est['mean']:.5f} +- {est['se']:.5f}")
print(f"band PDE integral:        {target:.5f}")
print(f"agreement: {abs(est['mean'] - target) / est['se']:.2f} sigma")

ups = upsilon(sh.mixture, zb)
ums = upsilon_mc(casc, sh.mixture, zb, n_reps=500, seed=13)
print(f"\ntheta-field functional: closed form {ups:.5f}, "
      f"Monte Carlo {ums['mean']:.5f} +- {ums['se']:.5f}")

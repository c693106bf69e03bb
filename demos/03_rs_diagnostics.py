#!/usr/bin/env python3
"""Replica-symmetry diagnostics: Gamma curves, Plefka, and the AT line.

Gamma_mu <= 0 on [0, 1-q] characterizes the RS regime of the TAP
correction; for the SK mixture its curvature at 0 reproduces Plefka's
condition beta^2 int (1-a^2)^2 dmu <= 1. Scanning (beta, h) shows points
below the AT line whose block magnetization still violates Plefka.
"""

import numpy as np

from gtap import DiscreteMeasure, sk_model
from gtap.rs import (at_line_scan, big_gamma_curve, gamma_second_derivative,
                     gamma_second_derivative_fd, plefka)

mu = DiscreteMeasure.delta(0.0, interval=(0.0, 1.0))
print("Gamma curves for mu = delta_0 (the classic SK diagnostic):")
for beta in (0.8, 1.0, 1.2):
    model = sk_model(beta, convention="half")
    sh = model.shift(0.0)
    grid = np.linspace(0.1, 1.0, 7)
    curve = big_gamma_curve(sh, mu, grid)
    tag = "RS" if np.max(curve) <= 0 else "not RS"
    print(f"  beta={beta}: Gamma on {{0.1..1.0}} = "
          + " ".join(f"{v:+.4f}" for v in curve) + f"   [{tag}]")
    fd = gamma_second_derivative_fd(sh, mu)
    an = gamma_second_derivative(sh, mu)
    print(f"           Gamma''(0): finite differences {fd:+.6f}, "
          f"closed form {an:+.6f}")

print("\nPlefka's condition beta^2 int (1-a^2)^2 dmu <= 1:")
for beta in (0.9, 1.2):
    ok, lhs = plefka(mu, beta)
    print(f"  beta={beta}: lhs = {lhs:.3f} -> {'holds' if ok else 'violated'}")

print("\nAT-line scan (q solves the RS fixed point):")
print(f"{'beta':>6} {'h':>5} {'q':>8} {'AT':>8} {'Plefka':>8}  regime")
for beta, h in [(0.8, 0.1), (1.2, 0.3), (1.5, 1.0), (10.0, 3.5)]:
    r = at_line_scan(beta, h)
    regime = ("below AT, Plefka violated" if r["rs_but_not_plefka"] else
              "below AT" if r["at_ok"] else "above AT")
    print(f"{beta:6.1f} {h:5.1f} {r['q']:8.4f} {r['at_value']:8.3f} "
          f"{r['plefka_lhs']:8.3f}  {regime}")
print("\nThe rows marked 'Plefka violated' show the advertised phenomenon:")
print("stable below the AT line, yet the generalized TAP correction cannot be")
print("replica symmetric there because Plefka's necessary condition fails.")

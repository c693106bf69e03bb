"""Replica-symmetric diagnostics.

The replica-symmetric branch corresponds to the band order parameter
delta_0 (CDF identically 1), for which everything is closed form:

    Phi_{a,delta_0}(s, x) = (1+a^2)/2 t(s)^2 - a x + log 2 cosh(x - a t(s)^2),
    t(s)^2 = xi_q'(1-q) - xi_q'(s),
    v_RS(a) = arctanh(a) + a xi_q'(1-q).

The stability curve

    Gamma_mu(s) = int_0^s xi_q''(r) (gamma_mu(r) - r) dr,

with gamma_mu the Gibbs-weighted second moment of the RS slope process,
is nonpositive on [0, 1-q] exactly when the TAP correction is replica
symmetric, in which case it equals the classical correction
-int I(a) dmu + C(q). For the SK mixture xi = beta^2 s^2 / 2 the curvature
Gamma''(0) = beta^2 (beta^2 int (1-a^2)^2 dmu - 1) ties RS to Plefka's
condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import DiscreteMeasure, split_boundary
from .model import MixedModel, ShiftedModel
from .numerics import gauss_hermite, gauss_legendre, log2cosh

__all__ = [
    "RsDiagnostics", "v_rs", "phi_band_rs", "gamma_mu", "big_gamma",
    "big_gamma_curve", "gamma_second_derivative", "gamma_second_derivative_fd",
    "is_replica_symmetric", "classical_tap", "entropy_I", "plefka",
    "at_line_scan",
]

GH_ORDER_RS = 60            # Gauss-Hermite order of gamma_mu
GAMMA_GL_ORDER = 12         # Gauss-Legendre nodes per piece of the Gamma curve
GAMMA_PIECE = 1.0 / 32.0    # widest piece of the Gamma curve
GAMMA_FD_STEP = 0.02        # finite-difference step of Gamma''(0), times 1-q
RS_TOLERANCE = 1e-6         # largest sup Gamma and Gamma''(0) still called RS
RS_GRID = 24                # Gamma samples of is_replica_symmetric
RS_S_MIN_FRAC = 0.02        # its first sample, times 1-q
AT_GH_ORDER = 80            # Gauss-Hermite order of the AT line scan
AT_TOL = 1e-15              # bracket width of its RS fixed-point bisection


def v_rs(shifted: ShiftedModel, a: float) -> float:
    """Replica-symmetric effective field arctanh(a) + a xi_q'(1-q)."""
    if not 0.0 <= a < 1.0:
        raise ValueError("v_rs needs a in [0, 1)")
    return math.atanh(a) + a * shifted.xi_q_prime(shifted.horizon)


def _t_sq(shifted: ShiftedModel, s) -> np.ndarray:
    return shifted.xi_q_prime(shifted.horizon) - shifted.xi_q_prime(s)


def phi_band_rs(shifted: ShiftedModel, a: float, s, x, deriv: int = 0):
    """Closed-form band solution at zeta = delta_0 and its x-derivative."""
    t2 = _t_sq(shifted, s)
    y = np.asarray(x, dtype=float) - a * t2
    if deriv == 0:
        return 0.5 * (1.0 + a * a) * t2 - a * np.asarray(x, dtype=float) \
            + log2cosh(y)
    if deriv == 1:
        return -a + np.tanh(y)
    raise ValueError("deriv must be 0 or 1")


def gamma_mu(shifted: ShiftedModel, mu: DiscreteMeasure, s):
    """Gibbs-weighted mean of the squared RS slope at time s (scalar or array).

    gamma_mu(s) = int E[ (Phi_x(s, X_s))^2 ] dmu(a) for the RS control
    process started at v_RS(a); the Gaussian average over
    x = v_RS(a) + sqrt(xi_q'(s)) g is reweighted by exp(Phi(s, x)), the
    Cole-Hopf change of measure at level 1. Atoms of mu at 1 are excluded.
    """
    s = np.asarray(s, dtype=float)
    if not np.all((s >= 0.0) & (s <= shifted.horizon + 1e-12)):
        raise ValueError("s outside [0, 1-q]")
    g, w = gauss_hermite(GH_ORDER_RS)
    sd = np.sqrt(np.maximum(shifted.xi_q_prime(s), 0.0))[..., None]
    locs, wts, _ = split_boundary(mu)
    total = np.zeros(s.shape)
    for a, wt in zip(locs, wts):
        x = v_rs(shifted, a) + sd * g
        logwt = phi_band_rs(shifted, a, s[..., None], x, deriv=0)
        gw = w * np.exp(logwt - np.max(logwt, axis=-1, keepdims=True))
        gw /= gw.sum(axis=-1, keepdims=True)
        slope = phi_band_rs(shifted, a, s[..., None], x, deriv=1)
        total += wt * np.sum(gw * slope * slope, axis=-1)
    return total if total.ndim else float(total)


def big_gamma(shifted: ShiftedModel, mu: DiscreteMeasure, s: float) -> float:
    """Gamma_mu(s) = int_0^s xi_q''(r) (gamma_mu(r) - r) dr."""
    return float(big_gamma_curve(shifted, mu, [s])[0])


def big_gamma_curve(shifted: ShiftedModel, mu: DiscreteMeasure,
                    s_grid: np.ndarray) -> np.ndarray:
    """Gamma_mu on an increasing grid by one composite Gauss-Legendre rule.

    Each gap between consecutive grid points (from 0) is cut into equal
    pieces no wider than GAMMA_PIECE, each with a GAMMA_GL_ORDER-point rule.
    The integrand is analytic in s, so the rule is exact to rounding; one
    gamma_mu call evaluates it at every node.
    """
    ends = np.concatenate(([0.0], np.asarray(s_grid, dtype=float)))
    gaps = np.diff(ends)
    n = np.maximum(np.ceil(gaps / GAMMA_PIECE), 1).astype(np.int64)
    width = np.repeat(gaps / n, n)
    last = np.cumsum(n)                   # one past each gap's last piece
    lo = np.repeat(ends[:-1], n) \
        + width * (np.arange(n.sum()) - np.repeat(last - n, n))
    u, w = gauss_legendre(GAMMA_GL_ORDER)
    r = lo[:, None] + width[:, None] * u
    f = shifted.xi_q_double_prime(r) * (gamma_mu(shifted, mu, r) - r)
    return np.cumsum(width * np.sum(f * w, axis=-1))[last - 1]


def gamma_second_derivative(shifted: ShiftedModel, mu: DiscreteMeasure) -> float:
    """Gamma''(0) = xi_q''(0) (xi_q''(0) int (1-a^2)^2 dmu - 1).

    Follows from gamma'(0) = xi_q''(0) int (Phi_xx(0, v_RS(a)))^2 dmu and
    Phi_xx(0, v_RS(a)) = 1 - a^2 in the RS closed form.
    """
    b2 = shifted.xi_q_double_prime(0.0)
    locs, wts, _ = split_boundary(mu)
    integral = sum(w * (1.0 - a * a) ** 2 for a, w in zip(locs, wts))
    return float(b2 * (b2 * integral - 1.0))


def gamma_second_derivative_fd(shifted: ShiftedModel, mu: DiscreteMeasure) -> float:
    """Finite-difference Gamma''(0) from the curve itself.

    Gamma(0) = Gamma'(0) = 0, so (Gamma(2h) - 2 Gamma(h)) / h^2 is a
    one-sided second difference with an O(h) + O(h^2) error; two levels of
    Richardson extrapolation (steps h, h/2, h/4) remove both.
    """
    h = GAMMA_FD_STEP * shifted.horizon
    g = big_gamma_curve(shifted, mu,
                        np.array([h / 4.0, h / 2.0, h, 2.0 * h]))

    def second_diff(step, g_step, g_2step):
        return (g_2step - 2.0 * g_step) / step ** 2

    d1_ = second_diff(h, g[2], g[3])
    d2_ = second_diff(h / 2.0, g[1], g[2])
    d3_ = second_diff(h / 4.0, g[0], g[1])
    r1 = 2.0 * d2_ - d1_
    r2 = 2.0 * d3_ - d2_
    return (4.0 * r2 - r1) / 3.0


@dataclass(frozen=True)
class RsDiagnostics:
    gamma_curve: tuple[tuple[float, float], ...]   # (s, Gamma_mu(s)) samples
    sup_gamma: float
    is_rs: bool
    gamma_second_deriv_at_0: float
    plefka_lhs: float


def is_replica_symmetric(shifted: ShiftedModel,
                         mu: DiscreteMeasure) -> RsDiagnostics:
    """Sample Gamma_mu on [0, 1-q] and test nonpositivity.

    Gamma_mu(0) = 0 identically, so the sup is taken over a grid starting at
    RS_S_MIN_FRAC * (1-q); the curvature at 0 decides the behaviour of the
    left edge. mu = delta_1 is rejected (no band remains).
    """
    if mu.moment(2) >= 1.0 - 1e-12:
        raise ValueError("mu = delta_1 leaves no band to diagnose")
    horizon = shifted.horizon
    grid = horizon * np.linspace(RS_S_MIN_FRAC, 1.0, RS_GRID)
    curve = big_gamma_curve(shifted, mu, grid)
    sup = float(np.max(curve))
    curv = gamma_second_derivative(shifted, mu)
    b2 = shifted.xi_q_double_prime(0.0)
    plefka_lhs = b2 * sum(w * (1.0 - a * a) ** 2 for a, w in mu.atoms)
    return RsDiagnostics(
        gamma_curve=tuple((float(s), float(v)) for s, v in zip(grid, curve)),
        sup_gamma=sup,
        is_rs=bool(sup <= RS_TOLERANCE and curv <= RS_TOLERANCE),
        gamma_second_deriv_at_0=float(curv),
        plefka_lhs=float(plefka_lhs),
    )


def entropy_I(a) -> np.ndarray:
    """I(a) = (1+a)/2 log((1+a)/2) + (1-a)/2 log((1-a)/2), I(+-1) = 0."""
    a = np.asarray(a, dtype=float)
    p = np.clip((1.0 + a) / 2.0, 0.0, 1.0)
    m = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(p > 0, p * np.log(p), 0.0) \
            + np.where(m > 0, m * np.log(m), 0.0)
    return out if out.ndim else float(out)


def classical_tap(model: MixedModel, mu: DiscreteMeasure) -> float:
    """-int I(a) dmu + C(q), C(q) = (xi(1) - xi(q) - xi'(q)(1-q)) / 2."""
    q = mu.moment(2)
    C = 0.5 * (model.xi(1.0) - model.xi(q) - model.xi_prime(q) * (1.0 - q))
    return -float(np.sum(mu.weights * entropy_I(mu.locations))) + C


def plefka(mu: DiscreteMeasure, beta: float) -> tuple[bool, float]:
    """Plefka's condition beta^2 int (1-a^2)^2 dmu <= 1 (SK, xi = b^2 s^2/2)."""
    lhs = beta * beta * float(np.sum(mu.weights * (1.0 - mu.locations ** 2) ** 2))
    return lhs <= 1.0, lhs


def at_line_scan(beta: float, h: float) -> dict:
    """RS fixed point and stability quantities for the SK model with field.

    Solves q = E tanh^2(beta z sqrt(q) + h) by bisection on [0, 1] that
    keeps gap(lo) >= 0 > gap(hi), gap(q) = E tanh^2(...) - q: at h = 0 it
    keeps q = 0 for beta <= 1 and finds the nonzero root for beta > 1, and
    it stops on the AT line too, where a fixed-point iteration converges
    only algebraically. It then reports the AT stability quantity
    beta^2 E[1 / cosh^4], Plefka's left-hand side beta^2 (1-q) for the
    {0,1}-block magnetization (equal to beta^2 E[1/cosh^2] at the fixed
    point), and whether the instance sits below the AT line while violating
    Plefka's condition.
    """
    if beta <= 0 or h < 0:
        raise ValueError("need beta > 0 and h >= 0")
    g, w = gauss_hermite(AT_GH_ORDER)

    def gap(q):
        t = np.tanh(beta * math.sqrt(q) * g + h)
        return float(np.sum(w * t * t)) - q

    lo, hi = 0.0, 1.0
    while hi - lo >= AT_TOL:
        mid = 0.5 * (lo + hi)
        if gap(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    q = lo
    z = beta * math.sqrt(q) * g + h
    sech2 = 1.0 / np.cosh(z) ** 2
    at_value = beta * beta * float(np.sum(w * sech2 * sech2))
    sech2_mean = float(np.sum(w * sech2))
    plefka_lhs = beta * beta * (1.0 - q)
    return {
        "beta": beta, "h": h, "q": q,
        "at_value": at_value,
        "at_ok": at_value <= 1.0,
        "plefka_lhs": plefka_lhs,
        "plefka_lhs_identity": beta * beta * sech2_mean,
        "plefka_ok": plefka_lhs <= 1.0,
        "rs_but_not_plefka": (at_value <= 1.0) and (plefka_lhs > 1.0),
    }

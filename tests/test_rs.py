import math

import numpy as np
import pytest

from gtap.measures import DiscreteMeasure, OrderParameter
from gtap.model import MixedModel, sk_model
from gtap.pde import solve_band
from gtap.rs import (at_line_scan, big_gamma, big_gamma_curve, classical_tap,
                     entropy_I, gamma_mu, gamma_second_derivative,
                     gamma_second_derivative_fd, is_replica_symmetric,
                     phi_band_rs, plefka, v_rs)


def test_v_rs_values():
    model = sk_model(1.0, convention="full")       # xi = s^2
    sh = model.shift(0.0)
    assert v_rs(sh, 0.0) == 0.0
    # arctanh(0.5) + 0.5 * xi'(1) with xi'(1) = 2
    assert v_rs(sh, 0.5) == pytest.approx(math.atanh(0.5) + 1.0, abs=1e-14)
    assert v_rs(sh, 0.5) == pytest.approx(1.5493061443340548, abs=1e-12)
    with pytest.raises(ValueError):
        v_rs(sh, 1.0)


def test_rs_closed_form_vs_band_solver(rng):
    # acceptance-style check on one instance at unit-test scale
    model = MixedModel(coeffs_sq=(0.0, 0.55, 0.25))
    q, a = 0.3, 0.6
    sh = model.shift(q)
    zb = OrderParameter.delta_at(0.0, (0.0, sh.horizon))
    sol = solve_band(sh, a, zb)
    xs = np.linspace(-5, 5, 41)
    t2 = sh.xi_q_prime(sh.horizon)
    target = 0.5 * (1 + a * a) * t2 - a * xs + np.log(2 * np.cosh(xs - a * t2))
    assert np.max(np.abs(sol.phi(0.0, xs) - target)) < 1e-6


def test_gamma_zero_at_origin(mixed_23):
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=((0.2, 0.5), (0.5, 0.5)))
    sh = mixed_23.shift(mu.moment(2))
    assert gamma_mu(sh, mu, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert big_gamma(sh, mu, 0.0) == 0.0


def test_gamma_curvature_sk_formula():
    # Gamma''(0) = beta^2 (beta^2 int (1-a^2)^2 dmu - 1) for xi = b^2 s^2/2
    beta = 0.9
    model = sk_model(beta, convention="half")
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=((0.2, 0.5), (0.4, 0.5)))
    sh = model.shift(mu.moment(2))
    target = beta ** 2 * (beta ** 2 * sum(w * (1 - a * a) ** 2
                                          for a, w in mu.atoms) - 1.0)
    assert gamma_second_derivative(sh, mu) == pytest.approx(target, abs=1e-14)
    assert gamma_second_derivative_fd(sh, mu) == pytest.approx(target,
                                                               abs=1e-4)


def test_gamma_curvature_zero_at_unit_beta():
    model = sk_model(1.0, convention="half")
    mu = DiscreteMeasure.delta(0.0, interval=(0.0, 1.0))
    sh = model.shift(0.0)
    assert gamma_second_derivative(sh, mu) == pytest.approx(0.0, abs=1e-14)


def test_is_replica_symmetric_small_beta():
    model = sk_model(0.4, convention="half")
    mu = DiscreteMeasure.delta(0.0, interval=(0.0, 1.0))
    diag = is_replica_symmetric(model.shift(0.0), mu)
    assert diag.is_rs
    assert diag.sup_gamma <= 0.0
    assert diag.gamma_curve[0][1] <= 0.0


def test_is_replica_symmetric_plefka_violation():
    model = sk_model(1.3, convention="half")
    mu = DiscreteMeasure.delta(0.0, interval=(0.0, 1.0))
    diag = is_replica_symmetric(model.shift(0.0), mu)
    assert not diag.is_rs
    assert diag.sup_gamma > 0.0
    assert diag.plefka_lhs > 1.0


def test_is_replica_symmetric_rejects_delta_one(mixed_23):
    with pytest.raises(ValueError):
        is_replica_symmetric(mixed_23.shift(1.0),
                             DiscreteMeasure.delta(1.0, (0.0, 1.0)))


def test_entropy_I_values():
    assert entropy_I(0.0) == pytest.approx(-math.log(2), abs=1e-15)
    assert entropy_I(1.0) == 0.0
    assert entropy_I(-1.0) == 0.0


def test_classical_tap_values(mixed_23):
    # delta_1: C(1) = 0 and I(1) = 0
    mu1 = DiscreteMeasure.delta(1.0, interval=(0.0, 1.0))
    assert classical_tap(mixed_23, mu1) == pytest.approx(0.0, abs=1e-14)
    # delta_0 with no 1-spin term: log 2 + xi(1)/2
    mu0 = DiscreteMeasure.delta(0.0, interval=(0.0, 1.0))
    assert classical_tap(mixed_23, mu0) == pytest.approx(
        math.log(2) + mixed_23.xi(1.0) / 2, abs=1e-14)


def test_classical_tap_sk_correction_term():
    # C(q) = (beta^2/4)(1-q)^2 for xi = beta^2 s^2 / 2, via I-term removal
    beta = 1.1
    model = sk_model(beta, convention="half")
    for q_loc in (0.0, 0.3, 0.7):
        mu = DiscreteMeasure.delta(math.sqrt(q_loc), interval=(0.0, 1.0))
        got = classical_tap(model, mu) + float(entropy_I(math.sqrt(q_loc)))
        assert got == pytest.approx(beta ** 2 / 4 * (1 - q_loc) ** 2,
                                    abs=1e-14)


def test_plefka_examples():
    ok, lhs = plefka(DiscreteMeasure.delta(0.0, (0.0, 1.0)), beta=0.9)
    assert ok and lhs == pytest.approx(0.81)
    ok, lhs = plefka(DiscreteMeasure.delta(1.0, (0.0, 1.0)), beta=5.0)
    assert ok and lhs == 0.0
    mix = DiscreteMeasure(interval=(0, 1), atoms=((0.0, 0.5), (1.0, 0.5)))
    ok, lhs = plefka(mix, beta=1.2)
    assert ok and lhs == pytest.approx(0.72, abs=1e-12)


def test_at_line_scan():
    r = at_line_scan(0.8, 1e-8)
    assert r["q"] == pytest.approx(0.0, abs=1e-6)
    r = at_line_scan(1.2, 0.3)
    # AT quantity bounded by beta^2 since 1 / cosh^4 <= 1
    assert r["at_value"] <= 1.2 ** 2
    # Plefka lhs equals beta^2 E[1/cosh^2] at the fixed point
    assert r["plefka_lhs"] == pytest.approx(r["plefka_lhs_identity"],
                                            abs=1e-10)
    with pytest.raises(ValueError):
        at_line_scan(-1.0, 0.1)


def test_at_but_not_plefka_region_exists():
    # deep in the strong-field region there are points below the AT line
    # whose {0,1}-block magnetization violates Plefka's condition
    found = False
    for beta, h in [(1.5, 0.5), (9.5, 6.5), (10.0, 3.5), (11.0, 4.0)]:
        r = at_line_scan(beta, h)
        if r["rs_but_not_plefka"]:
            found = True
            assert r["at_value"] <= 1.0
            assert r["plefka_lhs"] > 1.0
    assert found


def test_at_line_zero_field_is_beta_one():
    # at h = 0 and beta <= 1 the RS fixed point is q = 0, where sech^4 = 1;
    # beta = 1 is the AT line itself, where a fixed-point iteration
    # converges only algebraically
    for beta in (0.3, 0.6, 0.9, 1.0):
        r = at_line_scan(beta, 0.0)
        assert r["q"] == 0.0
        assert r["at_value"] == pytest.approx(beta ** 2, abs=1e-9)
    assert at_line_scan(0.99, 0.0)["at_ok"]
    r = at_line_scan(1.05, 0.0)
    assert not r["at_ok"] and r["at_value"] == pytest.approx(1.0029, abs=1e-4)
    # at beta = 1 a small field h gives q = h / sqrt(2) to leading order:
    # q = E tanh^2(sqrt(q) g + h) = q + h^2 - 2 q^2 + O(q^3)
    h = 1e-6
    assert at_line_scan(1.0, h)["q"] == pytest.approx(h / math.sqrt(2.0),
                                                      rel=1e-3)


def test_plefka_implies_at():
    # sech^4 <= sech^2, so the AT condition holds wherever Plefka's does
    for beta in np.linspace(0.3, 3.0, 19):
        for h in np.linspace(0.0, 2.0, 11):
            r = at_line_scan(float(beta), float(h))
            assert r["at_ok"] or not r["plefka_ok"], (beta, h)


def test_gamma_curve_monotone_grid(mixed_23):
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=((0.2, 1.0),))
    sh = mixed_23.shift(mu.moment(2))
    grid = sh.horizon * np.linspace(0.1, 1.0, 6)
    curve = big_gamma_curve(sh, mu, grid)
    single = big_gamma(sh, mu, float(grid[-1]))
    assert curve[-1] == pytest.approx(single, abs=1e-10)


def test_gamma_mu_array_matches_scalar_calls(mixed_23):
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=((0.1, 0.3), (0.5, 0.7)))
    sh = mixed_23.shift(mu.moment(2))
    s = np.linspace(0.0, sh.horizon, 17).reshape(17, 1)
    arr = gamma_mu(sh, mu, s)
    assert arr.shape == (17, 1)
    scalar = [gamma_mu(sh, mu, float(x)) for x in s.ravel()]
    assert all(isinstance(v, float) for v in scalar)
    np.testing.assert_allclose(arr.ravel(), scalar, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("bad", [[0.1, math.nan], [-0.1, 0.2], [0.2, 2.0]])
def test_gamma_mu_rejects_array_outside_band(mixed_23, bad):
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=((0.3, 1.0),))
    sh = mixed_23.shift(mu.moment(2))
    with pytest.raises(ValueError, match="outside"):
        gamma_mu(sh, mu, np.array(bad))


@pytest.mark.parametrize("atoms", [((0.3, 1.0),), ((0.1, 0.5), (0.6, 0.5))])
def test_gamma_curve_vs_composite_simpson(atoms):
    # direct summation oracle: composite Simpson on 4,000 uniform intervals
    # of gamma_mu over [0, 1-q]; xi = 2 s^10 is steep enough that one
    # Gauss-Legendre piece over the whole band misses by ~1e-5, which the
    # one-point grid of big_gamma(1-q) would show without subdivision
    model = MixedModel(coeffs_sq=(0.0,) * 9 + (2.0,))
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=atoms)
    sh = model.shift(mu.moment(2))
    grid = sh.horizon * np.linspace(0.1, 1.0, 10)
    r = np.linspace(0.0, sh.horizon, 4001)
    f = sh.xi_q_double_prime(r) * (gamma_mu(sh, mu, r) - r)
    simpson = np.concatenate(([0.0], np.cumsum(
        (r[2::2] - r[:-2:2]) / 6.0 * (f[:-2:2] + 4.0 * f[1::2] + f[2::2]))))
    # every grid point is a multiple of 400 intervals
    oracle = simpson[np.rint(grid / sh.horizon * 2000).astype(int)]
    assert np.max(np.abs(big_gamma_curve(sh, mu, grid) - oracle)) < 1e-10
    assert big_gamma(sh, mu, sh.horizon) == pytest.approx(simpson[-1],
                                                          abs=1e-10)


def test_band_rs_solution_refuses_a_second_derivative():
    with pytest.raises(ValueError, match="deriv must be 0 or 1"):
        phi_band_rs(sk_model(1.0).shift(0.2), 0.3, 0.1, 0.0, deriv=2)

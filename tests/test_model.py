import json
import math

import numpy as np
import pytest

from gtap.model import MixedModel, pure_p_model, sk_model

from conftest import random_model


def test_pure_two_spin_values():
    m = pure_p_model(2)
    assert m.xi(0.5) == pytest.approx(0.25, abs=1e-15)
    for s in np.linspace(-1, 1, 9):
        assert m.xi_double_prime(s) == pytest.approx(2.0, abs=1e-15)


def test_no_constant_term():
    m = MixedModel(coeffs_sq=(0.3, 0.5, 0.1))
    assert m.xi(0.0) == 0.0


def test_quartic_value():
    m = MixedModel(coeffs_sq=(0.0, 1.0, 0.0, 1.0))     # s^2 + s^4
    assert m.xi(0.5) == pytest.approx(0.3125, abs=1e-15)


def test_theta_pure_two_spin():
    m = pure_p_model(2)
    for x in np.linspace(-1, 1, 7):
        assert m.theta(x) == pytest.approx(x * x, abs=1e-15)
    assert m.theta(0.0) == 0.0


def test_theta_cubic():
    m = pure_p_model(3)
    assert m.theta(0.5) == pytest.approx(0.25, abs=1e-15)


def test_shift_pure_two_spin_exact():
    # oracle: expand (s+q)^2 - q^2 - 2qs = s^2 symbolically
    m = pure_p_model(2)
    for q in (0.0, 0.3, 0.7, 1.0):
        sh = m.shift(q)
        for s in np.linspace(0, 1 - q, 5):
            assert sh.xi_q(s) == pytest.approx(s * s, abs=1e-14)
        assert sh.beta_k_sq(1) == pytest.approx(2 * q, abs=1e-14)
        assert sh.beta_k_sq(2) == pytest.approx(1.0, abs=1e-14)


def test_shift_coefficients_binomial_oracle(rng):
    m = random_model(rng)
    q = 0.4
    sh = m.shift(q)
    for k in range(1, m.p_max + 1):
        expect = sum(math.comb(p, k) * m.coeffs_sq[p - 1] * q ** (p - k)
                     for p in range(k, m.p_max + 1))
        assert sh.beta_k_sq(k) == pytest.approx(expect, abs=1e-14)


def test_shift_zero_is_identity_up_to_linear():
    m = MixedModel(coeffs_sq=(0.2, 0.5, 0.3))
    sh = m.shift(0.0)
    for s in np.linspace(0, 1, 6):
        assert sh.xi_q(s) == pytest.approx(m.xi(s) - m.xi_prime(0.0) * s,
                                           abs=1e-14)


def test_reconstruction_from_shifted_coefficients(rng):
    m = random_model(rng)
    for q in (0.1, 0.5, 0.9):
        sh = m.shift(q)
        for s in np.linspace(0, 1 - q, 8):
            series = sum(sh.beta_k_sq(k) * s ** k
                         for k in range(1, m.p_max + 1))
            assert series == pytest.approx(sh.xi_hat(s), abs=1e-12)


def test_shifted_invariants(rng):
    m = random_model(rng)
    for q in (0.2, 0.5):
        sh = m.shift(q)
        assert sh.xi_q(0.0) == pytest.approx(0.0, abs=1e-15)
        assert sh.xi_q_prime(0.0) == pytest.approx(0.0, abs=1e-14)
        for s in np.linspace(0, 1 - q, 5):
            assert sh.xi_hat(s) - sh.xi_q(s) == pytest.approx(
                m.xi_prime(q) * s, abs=1e-13)


def test_shifted_second_derivative_identity(rng):
    m = random_model(rng)
    for q in (0.2, 0.6):
        sh = m.shift(q)
        for s in np.linspace(0, 1 - q, 7):
            assert sh.xi_q_double_prime(s) == pytest.approx(
                m.xi_double_prime(s + q), abs=1e-14)


def test_monotone_nonnegative_on_unit_interval(rng):
    for _ in range(5):
        m = random_model(rng)
        s = np.linspace(0, 1, 33)
        for f in (m.xi, m.xi_prime, m.xi_double_prime):
            vals = f(s)
            assert np.all(vals >= -1e-15)
            assert np.all(np.diff(vals) >= -1e-12)


def test_derivatives_match_power_sums(rng):
    # the k-th derivative is sum_p p!/(p-k)! beta_p^2 s^(p-k), term by term
    for _ in range(5):
        m = random_model(rng)
        s = rng.uniform(-1, 1, 9)
        for k, f in enumerate((m.xi, m.xi_prime, m.xi_double_prime)):
            direct = sum(math.perm(p, k) * c * s ** (p - k)
                         for p, c in enumerate(m.coeffs_sq, start=1) if p >= k)
            np.testing.assert_allclose(f(s), direct, rtol=1e-13, atol=1e-15)
            assert isinstance(f(float(s[0])), float)


def test_domain_errors():
    m = pure_p_model(2)
    with pytest.raises(ValueError):
        m.xi(1.5)
    with pytest.raises(ValueError):
        m.shift(1.2)
    with pytest.raises(ValueError):
        MixedModel(coeffs_sq=(-0.1, 1.0))


def test_json_round_trip():
    m = MixedModel(coeffs_sq=(0.0, 0.7, 0.3), external_field_h=0.2)
    m2 = MixedModel.from_json(m.to_json())
    assert m2 == m
    with pytest.raises(ValueError):
        MixedModel.from_json(json.dumps({"h": 1.0}))


def test_sk_conventions():
    assert sk_model(2.0, convention="half").xi(1.0) == pytest.approx(2.0)
    assert sk_model(2.0, convention="full").xi(1.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        sk_model(1.0, convention="bogus")


@pytest.mark.parametrize("q", [0.0, 0.3, 0.9])
def test_shifted_mixture_matches_subtraction(rng, q):
    # oracle: xi_q by subtraction of base-model values at s + q and q
    for _ in range(5):
        m = random_model(rng, p_max=5)
        sh = m.shift(q)
        s = np.linspace(0.0, 1.0 - q, 13)
        by_subtraction = m.xi(s + q) - m.xi(q) - m.xi_prime(q) * s
        assert np.max(np.abs(sh.xi_q(s) - by_subtraction)) <= 1e-14
        assert np.max(np.abs(sh.xi_q_prime(s)
                             - (m.xi_prime(s + q) - m.xi_prime(q)))) <= 1e-14
        assert sh.mixture.coeffs_sq[1:] == sh.coeffs_sq_shifted[1:]


def test_shifted_domain_is_the_base_domain():
    # the shifted evaluators accept s exactly when s + q lies in [-1, 1],
    # although the bare mixture of the shifted coefficients lives on |s| <= 1
    sh = MixedModel(coeffs_sq=(0.0, 0.6, 0.2)).shift(0.3)
    s_end = 1.0 - 0.3
    assert sh.xi_q_prime(s_end) == pytest.approx(1.2 + 0.6 - 0.36 - 0.054,
                                                 abs=1e-14)
    for f in (sh.xi_hat, sh.xi_q, sh.xi_q_prime, sh.xi_q_double_prime,
              sh.theta_q):
        f(s_end)
        with pytest.raises(ValueError):
            f(s_end + 1e-6)
        with pytest.raises(ValueError):
            f(np.array([0.0, 0.75]))
    assert np.isfinite(sh.mixture.xi_prime(0.75))


@pytest.mark.parametrize("coeffs, h", [
    ((0.0, math.nan), 0.0), ((0.0, math.inf), 0.0),
    ((0.0, 0.5), math.nan), ((0.0, 0.5), -math.inf)])
def test_non_finite_model_rejected(coeffs, h):
    with pytest.raises(ValueError, match="finite"):
        MixedModel(coeffs_sq=coeffs, external_field_h=h)


def test_non_finite_model_spec_rejected():
    # json accepts NaN and Infinity; the model must not
    for text in ('{"coeffs_sq": [0, NaN]}', '{"coeffs_sq": [0, 1], "h": NaN}',
                 '{"coeffs_sq": [0, Infinity]}'):
        with pytest.raises(ValueError, match="finite"):
            MixedModel.from_json(text)


def test_shifted_coefficients_start_at_k_1():
    with pytest.raises(ValueError, match="k must be >= 1"):
        sk_model(1.0).shift(0.2).beta_k_sq(0)

import math

import numpy as np
import pytest

from gtap.disorder import (BandSpec, all_configs, all_energies, chain_values,
                           classical_tap_iteration, concentration_bound,
                           concentration_experiment, free_energy, grad_tap,
                           sample, solve_tap_equations, tap_Nn, tap_ascent)
from gtap.measures import OrderParameter
from gtap.model import MixedModel, pure_p_model, sk_model
from gtap.numerics import logsumexp


def test_zero_model_is_silent():
    z = sample(6, MixedModel(coeffs_sq=(0.0,)), seed=0)
    rng = np.random.default_rng(0)
    for _ in range(3):
        m = rng.uniform(-1, 1, 6)
        assert z.energy(m) == 0.0
        assert np.all(z.gradient(m) == 0.0)
    assert free_energy(z) == pytest.approx(math.log(2), abs=1e-14)


def test_seed_determinism():
    model = MixedModel(coeffs_sq=(0.2, 0.5, 0.3))
    a = sample(7, model, seed=42)
    b = sample(7, model, seed=42)
    for p in a.tensors:
        assert np.array_equal(a.tensors[p], b.tensors[p])


def test_energy_at_zero_and_linear_gradient():
    model = MixedModel(coeffs_sq=(0.4, 0.6))
    s = sample(5, model, seed=3)
    assert s.energy(np.zeros(5)) == 0.0
    grad0 = s.gradient(np.zeros(5))
    # only the 1-spin tensor survives at m = 0
    assert np.allclose(grad0, math.sqrt(0.4) * s.tensors[1])


def test_gradient_vs_finite_differences():
    model = MixedModel(coeffs_sq=(0.1, 0.5, 0.2, 0.1))
    s = sample(6, model, seed=11)
    rng = np.random.default_rng(5)
    m = rng.uniform(-0.8, 0.8, 6)
    g = s.gradient(m)
    h = 1e-6
    for i in range(6):
        mp, mm = m.copy(), m.copy()
        mp[i] += h
        mm[i] -= h
        fd = (s.energy(mp) - s.energy(mm)) / (2 * h)
        assert abs(fd - g[i]) <= 1e-8 * max(1.0, abs(g[i]))


def test_pure_p_homogeneity():
    s = sample(5, pure_p_model(3, beta_sq=1.0), seed=7)
    rng = np.random.default_rng(2)
    m = rng.uniform(-0.5, 0.5, 5)
    assert s.energy(0.7 * m) == pytest.approx(0.7 ** 3 * s.energy(m),
                                              rel=1e-12)


def test_covariance_matches_mixture():
    # E H(s1) H(s2) = N xi(R) within 3 standard errors over draws
    model = MixedModel(coeffs_sq=(0.0, 0.8))
    N = 6
    rng = np.random.default_rng(123)
    s1 = np.sign(rng.standard_normal(N))
    s2 = np.sign(rng.standard_normal(N))
    R = float(s1 @ s2) / N
    prods = []
    for k in range(4000):
        smp = sample(N, model, seed=50_000 + k)
        prods.append(smp.energy(s1) * smp.energy(s2))
    prods = np.asarray(prods)
    se = prods.std(ddof=1) / math.sqrt(len(prods))
    assert abs(prods.mean() - N * model.xi(R)) <= 3 * se


def test_free_energy_n1_hand_enumeration():
    model = MixedModel(coeffs_sq=(0.7,))
    s = sample(1, model, seed=9)
    g = float(s.tensors[1][0])
    target = math.log(2 * math.cosh(math.sqrt(0.7) * g))
    assert free_energy(s) == pytest.approx(target, abs=1e-14)


def test_free_energy_lower_bound():
    model = MixedModel(coeffs_sq=(0.0, 1.0))
    s = sample(10, model, seed=4)
    E = all_energies(s)
    assert free_energy(s) >= float(np.max(E)) / 10


def test_all_energies_against_direct_loop():
    model = MixedModel(coeffs_sq=(0.3, 0.5, 0.2))
    s = sample(6, model, seed=13)
    S = all_configs(6)
    E = all_energies(s)
    rng = np.random.default_rng(0)
    for idx in rng.integers(0, 64, size=8):
        assert E[idx] == pytest.approx(s.energy(S[idx]), rel=1e-12)


def test_band_at_zero_center_is_everything():
    model = MixedModel(coeffs_sq=(0.0, 1.0))
    s = sample(10, model, seed=21)
    band = BandSpec((0.0,) * 10, eps=0.05, delta=0.05, n=1)
    assert tap_Nn(s, band) == pytest.approx(free_energy(s), abs=1e-13)


def test_tap_n1_matches_direct_restricted_sum():
    model = MixedModel(coeffs_sq=(0.0, 0.7))
    N = 8
    s = sample(N, model, seed=17)
    rng = np.random.default_rng(3)
    m = rng.uniform(-0.7, 0.7, N)
    band = BandSpec(tuple(m), eps=0.3, n=1)
    got = tap_Nn(s, band)
    # direct loop oracle
    S = all_configs(N)
    hm = s.energy(m)
    inside = [s.energy(sig) - hm for sig in S
              if abs((sig - m) @ m) / N < 0.3]
    assert got == pytest.approx(float(logsumexp(np.array(inside))) / N,
                                abs=1e-12)


def test_chain_inequality_exact():
    model = sk_model(1.0, convention="half")
    s = sample(12, model, seed=8)
    rng = np.random.default_rng(6)
    for _ in range(3):
        m = rng.uniform(-0.9, 0.9, 12)
        ch = chain_values(s, BandSpec(tuple(m), eps=0.2, delta=0.2, n=2))
        assert ch["chain_1"] >= 0.0
        assert ch["chain_2"] >= 0.0


def test_band_nonempty_when_eps_large_enough():
    N = 12
    model = MixedModel(coeffs_sq=(0.0, 0.5))
    s = sample(N, model, seed=1)
    eps = 2.0 / math.sqrt(N)
    S = all_configs(N)
    rng = np.random.default_rng(9)
    for _ in range(100):
        m = rng.uniform(-1, 1, N)
        inside = np.abs(S @ m - float(m @ m)) / N < eps
        assert np.any(inside)


def test_empty_band_reports_minus_inf():
    model = MixedModel(coeffs_sq=(0.0, 0.5))
    s = sample(8, model, seed=2)
    m = np.full(8, 0.95)
    band = BandSpec(tuple(m), eps=1e-6, n=1)
    assert tap_Nn(s, band) == -math.inf


def test_enumeration_budget_guard():
    model = MixedModel(coeffs_sq=(0.0, 0.5))
    s = sample(16, model, seed=2)
    with pytest.raises(ValueError):
        tap_Nn(s, BandSpec((0.0,) * 16, eps=0.2, delta=0.2, n=2))
    with pytest.raises(ValueError):
        sample(24, model, seed=0)


def test_concentration_zero_model():
    model = MixedModel(coeffs_sq=(0.0,))
    band = BandSpec((0.0,) * 8, eps=0.2, delta=0.2, n=2)
    out = concentration_experiment(model, 8, band, n_draws=5, seed=0)
    assert out["std"] == 0.0


def test_concentration_bound_monotone_in_n():
    model = sk_model(1.0, convention="half")
    b1 = concentration_bound(model, 12, 1, 0.2, 0.2, 0.1)
    b2 = concentration_bound(model, 12, 2, 0.2, 0.2, 0.1)
    assert b2 <= b1


def test_zero_disorder_fixed_point():
    z = sample(6, MixedModel(coeffs_sq=(0.0,)), seed=1)
    zeta = OrderParameter.delta_at(0.0, (0.0, 1.0))
    m, res, info = solve_tap_equations(z, 0.0, zeta, np.zeros(6))
    assert np.all(m == 0.0)
    assert res == 0.0
    assert info["converged"]


def test_rs_update_reduces_to_tanh():
    # with CDF == 1 on [q, 1], the slope function is exactly tanh
    model = sk_model(0.5, h=0.4, convention="half")
    s = sample(8, model, seed=12)
    q = 0.2
    zeta = OrderParameter.delta_at(q, (q, 1.0))
    rng = np.random.default_rng(7)
    m = rng.uniform(-0.5, 0.5, 8)
    m *= math.sqrt(8 * q) / np.linalg.norm(m)
    from gtap.tap import _orig_solution
    sol = _orig_solution(model, q, zeta,
                         __import__("gtap.pde", fromlist=["DEFAULT_CONFIG"]).DEFAULT_CONFIG.with_pad(
                             float(np.max(np.abs(s.gradient(m)))) + 3.0))
    fields = s.gradient(m) - m * model.xi_double_prime(q) * (1.0 - q)
    assert np.allclose(sol.phi_x(q, fields), np.tanh(fields), atol=1e-9)


def test_tap_fixed_point_and_stationarity():
    model = sk_model(0.3, h=0.6, convention="half")
    N = 10
    s = sample(N, model, seed=9)
    rng = np.random.default_rng(4)
    m0 = rng.uniform(-0.3, 0.3, N)
    m_free, q_hat, res_free, info_free = classical_tap_iteration(
        s, m0, damping=0.5)
    assert info_free["converged"]
    zeta = OrderParameter.delta_at(q_hat, (q_hat, 1.0))
    m, res, info = solve_tap_equations(s, q_hat, zeta, m_free, damping=0.5)
    assert res < 1e-6
    grad, tres = grad_tap(model, m, r_atoms=2)
    stat = s.gradient(m) / N + grad
    assert float(np.max(np.abs(stat))) < 1e-4


def test_generalized_iteration_from_perturbed_start():
    # at the RS order parameter delta_q the generalized TAP equations are the
    # classical ones, so their iteration, started off the classical fixed
    # point, must walk back to it (oracle: classical_tap_iteration)
    model = sk_model(0.3, h=0.6, convention="half")
    N = 10
    for seed in (9, 19, 29):
        smpl = sample(N, model, seed=seed)
        rng = np.random.default_rng(seed)
        m_hat, q_hat, _, info = classical_tap_iteration(
            smpl, rng.uniform(-0.3, 0.3, N), damping=0.5)
        assert info["converged"]
        zeta = OrderParameter.delta_at(q_hat, (q_hat, 1.0))
        m0 = m_hat + 0.05 * rng.standard_normal(N)
        m, res, info = solve_tap_equations(smpl, q_hat, zeta, m0, damping=0.5)
        assert info["iterations"] > 0
        assert info["converged"]
        assert np.max(np.abs(m - m_hat)) < 1e-8


def test_grad_tap_zero_vector(mixed_23):
    g, _ = grad_tap(mixed_23, np.zeros(5), r_atoms=1)
    assert np.allclose(g, 0.0, atol=1e-10)


def test_grad_tap_spherical_restriction(mixed_23):
    # for v perpendicular to m the two gradient expressions coincide
    rng = np.random.default_rng(15)
    m = rng.uniform(-0.6, 0.6, 6)
    g, res = grad_tap(mixed_23, m, r_atoms=2)
    N = 6
    q = float(m @ m) / N
    from gtap.tap import _orig_solution
    from gtap.pde import DEFAULT_CONFIG
    zeta_m = res.minimizer_zeta
    sol = _orig_solution(mixed_23, q, zeta_m, DEFAULT_CONFIG,
                         a_max=float(np.max(np.abs(m))))
    psi_big = np.array([sol.inverse_phi_x(sol.t0, a) for a in m]) \
        + m * sol.int_xi_pp_zeta()
    v = rng.standard_normal(N)
    v -= (v @ m) / (m @ m) * m
    assert float(g @ v) == pytest.approx(float(-(psi_big / N) @ v), abs=1e-10)


def test_tap_ascent_monotone():
    model = sk_model(0.4, h=0.3, convention="half")
    s = sample(8, model, seed=30)
    out = tap_ascent(s, q=0.25, steps=6, r_atoms=1, seed=1)
    vals = [row["value"] for row in out["trajectory"]]
    assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
    assert "free_energy" in out


def test_tap_ascent_zero_model():
    z = sample(6, MixedModel(coeffs_sq=(0.0,)), seed=2)
    out = tap_ascent(z, q=0.2, steps=3, r_atoms=1, seed=5)
    # H == 0: the objective is TAP(mu_m) alone and stays finite
    assert np.isfinite(out["value"])

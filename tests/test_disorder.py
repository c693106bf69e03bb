import math

import numpy as np
import pytest

from gtap import disorder
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


def test_tap_equations_stay_on_sphere_and_cube(monkeypatch):
    # the old rescale-then-clip left the sphere in 118 of these 120 runs
    # (m . m / N = 0.703 at q = 0.8); at a fixed radius that is not the
    # self-consistent one the iteration runs to its cap, which is lowered
    # here to keep the test short (the cap-2000 runs leave it as often)
    monkeypatch.setattr(disorder, "GENERALIZED_MAX_ITER", 100)
    model, N = sk_model(0.8, h=0.5), 8
    for q in (0.6, 0.8, 0.9):
        zeta = OrderParameter.delta_at(q, (q, 1.0))
        for seed in range(40):
            m0 = np.random.default_rng(seed).uniform(-1.0, 1.0, N)
            m, _, _ = solve_tap_equations(sample(N, model, seed), q, zeta, m0)
            assert abs(float(m @ m) / N - q) <= 1e-12
            assert np.max(np.abs(m)) <= disorder.ASCENT_BOUND


def test_tap_equations_refuse_a_zero_start():
    # a zero start has no direction on the sphere: it ran 2,000 iterations
    # and returned an all-NaN m
    s = sample(6, sk_model(0.5, h=0.3), seed=2)
    zeta = OrderParameter.delta_at(0.3, (0.3, 1.0))
    with pytest.raises(ValueError, match="zero point"):
        solve_tap_equations(s, 0.3, zeta, np.zeros(6))


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


def test_tap_ascent_stays_on_sphere_and_cube():
    # this run used to stop after 6 of 10 steps: each step rescaled onto the
    # sphere and then clipped, so m_0 sat at the clip bound off the sphere
    # (m.m/N = 0.2837) and every later step was rejected
    from gtap.disorder import ASCENT_BOUND
    N, q = 10, 0.3
    s = sample(N, sk_model(1.2, h=0.3), seed=3)
    out = tap_ascent(s, q=q, steps=10, r_atoms=1, seed=1)
    assert len(out["trajectory"]) == 11 or out["converged"]
    points = [row["m"] for row in out["trajectory"]] + [out["m"]]
    for m in points:
        assert abs(float(m @ m) / N - q) <= 1e-12
        assert np.max(np.abs(m)) <= ASCENT_BOUND
    # the bound is reached on the way, so the clip is exercised
    assert max(np.max(np.abs(m)) for m in points) == ASCENT_BOUND
    assert out["converged"] == (out["grad_norm"] <= 1e-6)


@pytest.mark.parametrize("q", [0.3, 0.6, 0.9])
def test_tap_ascent_start_lies_in_the_cube(q):
    # U(-1/2, 1/2)^N scaled onto the sphere leaves the cube for most seeds
    # at q >= 0.5; grad_tap then refused the start
    from gtap.disorder import _onto_sphere_cube, ASCENT_BOUND
    N = 10
    for seed in range(20):
        start = np.random.default_rng(seed).uniform(-0.5, 0.5, size=N)
        m = _onto_sphere_cube(start, q)
        assert abs(float(m @ m) / N - q) <= 1e-12
        assert np.max(np.abs(m)) <= ASCENT_BOUND
        assert np.array_equal(np.sign(m), np.sign(start))


def test_tap_ascent_zero_model():
    z = sample(6, MixedModel(coeffs_sq=(0.0,)), seed=2)
    out = tap_ascent(z, q=0.2, steps=3, r_atoms=1, seed=5)
    # H == 0: the objective is TAP(mu_m) alone and stays finite
    assert np.isfinite(out["value"])


def test_tap_n2_matches_double_loop():
    # oracle: the replicated band sum by a direct loop over pairs of
    # configurations, energies by the multilinear evaluation of H
    model = MixedModel(coeffs_sq=(0.0, 0.6, 0.2))
    for N, seed in ((5, 11), (8, 12)):
        s = sample(N, model, seed=seed)
        m = np.random.default_rng(seed).uniform(-0.7, 0.7, N)
        eps, delta = 0.3, 0.3
        q, hm = float(m @ m) / N, s.energy(m)
        inside = [sig for sig in all_configs(N)
                  if abs((sig - m) @ m) / N < eps]
        terms = [s.energy(a) + s.energy(b) - 2.0 * hm
                 for a in inside for b in inside
                 if abs(float(a @ b) / N - q) < delta]
        assert len(terms) > len(inside)
        expect = float(logsumexp(np.array(terms))) / (2 * N)
        band = BandSpec(tuple(m), eps=eps, delta=delta, n=2)
        assert tap_Nn(s, band) == pytest.approx(expect, abs=1e-12)


def test_sample_rejects_empty_system():
    model = MixedModel(coeffs_sq=(0.0, 0.5))
    for N in (0, -3):
        with pytest.raises(ValueError):
            sample(N, model, seed=0)


def _tap_solve_point(model, N, seed):
    """The fixed point `gtap tap-solve` feeds grad_tap, for --seed seed."""
    s = sample(N, model, seed=seed)
    m0 = np.random.default_rng(seed + 1).uniform(-0.5, 0.5, N)
    m0, q, _, _ = classical_tap_iteration(s, m0, damping=0.3)
    zeta = OrderParameter.delta_at(q, (q, 1.0))
    return solve_tap_equations(s, q, zeta, m0, damping=0.3)[0]


def test_grad_tap_reuses_the_minimizer_solve(monkeypatch):
    # the gradient reads psi_bar off tap_correction's solve of the minimizer
    # instead of solving it again: no solve beyond tap_correction's own on
    # the same input, and the same bits as a fresh solve
    from gtap import pde
    from gtap.measures import empirical, restrict_zeta
    from gtap.tap import _orig_solution, tap_correction
    model = sk_model(0.3, h=0.6, convention="half")
    N = 10
    m = _tap_solve_point(model, N, seed=6)
    solves = []
    init = pde.PDESolution.__init__

    def counting(self, *args, **kwargs):
        solves.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(pde.PDESolution, "__init__", counting)
    tap_correction(model, empirical(m, fold=True), r_atoms=2,
                   with_representation=False, with_certificate=False)
    alone = len(solves)
    assert alone >= 1
    solves.clear()
    grad, res = grad_tap(model, m, r_atoms=2)
    assert len(solves) == alone
    monkeypatch.setattr(pde.PDESolution, "__init__", init)
    # the former path: a fresh solve of the minimizer
    q = float(m @ m) / N
    sol = _orig_solution(model, q, res.minimizer_zeta, pde.DEFAULT_CONFIG,
                         a_max=float(np.max(np.abs(m))))
    psi_vals = np.array([sol.inverse_phi_x(sol.t0, a) for a in m])
    int_zeta = restrict_zeta(res.minimizer_zeta, q).integral()
    old = -(psi_vals + m * model.xi_double_prime(q) * int_zeta) / N
    assert np.array_equal(grad, old)


def test_grad_tap_takes_q_from_the_solve(monkeypatch):
    # at this point m . m / N and the folded law's second moment differ in
    # the last bit; xi''(q) and the restriction of zeta take the solve's q
    from gtap import disorder
    model = sk_model(0.3, h=0.6, convention="half")
    N = 10
    m = _tap_solve_point(model, N, seed=6)
    seen = []
    restrict, xi_pp = disorder.restrict_zeta, MixedModel.xi_double_prime

    def restrict_seen(zeta, q):
        seen.append(("restrict", q))
        return restrict(zeta, q)

    def xi_pp_seen(self, s):
        seen.append(("xi_pp", s))
        return xi_pp(self, s)

    monkeypatch.setattr(disorder, "restrict_zeta", restrict_seen)
    monkeypatch.setattr(MixedModel, "xi_double_prime", xi_pp_seen)
    _, res = grad_tap(model, m, r_atoms=2)
    assert res.q != float(m @ m) / N
    assert seen[-2:] == [("restrict", res.q), ("xi_pp", res.q)]


def test_grad_tap_boundary_atom_still_solved_wide():
    # an entry at 1 - 1e-9, where tap_ascent clips, is a boundary atom: the
    # minimizer's solve has no slope pad for it, so grad_tap solves again
    m = np.array([0.3, -0.5, 1.0 - 1e-9, 0.2])
    grad, _ = grad_tap(sk_model(0.5), m, r_atoms=2)
    np.testing.assert_allclose(
        grad, [-0.08966115117837666, 0.15779528622521474,
               -2.717989128603511, -0.05887063856164834], rtol=0, atol=1e-12)


def test_grad_tap_matches_closed_form_at_rs_minimizer():
    # the minimizer is delta_q, where Phi_x(q, x) = tanh x: psi_bar(q, a) =
    # atanh a and the entries are -(atanh m_i + m_i xi''(q) (1 - q)) / N.
    # At 1 - 1e-9, Phi_x = a is solved where Phi_xx ~ 2e-9, so that entry
    # moves by ~1.3e-8 per ulp of Phi_x
    model = sk_model(0.5)
    m = np.array([0.3, -0.5, 1.0 - 1e-9, 0.2])
    grad, res = grad_tap(model, m, r_atoms=2)
    q = res.q
    assert res.minimizer_zeta.measure.atoms == ((q, 1.0),)
    exact = -(np.arctanh(m) + m * model.xi_double_prime(q) * (1.0 - q)) / m.size
    interior = [0, 1, 3]
    np.testing.assert_allclose(grad[interior], exact[interior], rtol=0,
                               atol=1e-9)
    assert abs(grad[2] - exact[2]) <= 1e-7


def test_tap_ascent_zero_steps_returns_start():
    model = sk_model(0.4, h=0.3, convention="half")
    N, q = 8, 0.25
    s = sample(N, model, seed=30)
    out = tap_ascent(s, q=q, steps=0, r_atoms=1, seed=1)
    m = np.random.default_rng(1).uniform(-0.5, 0.5, size=N)
    m *= math.sqrt(N * q) / np.linalg.norm(m)
    assert np.array_equal(out["m"], m)
    assert [row["step"] for row in out["trajectory"]] == [0]
    g_tap, _ = grad_tap(model, m, r_atoms=1)
    grad = s.gradient(m) / N + g_tap
    grad -= (grad @ m) / (N * q) * m
    assert out["grad_norm"] == pytest.approx(float(np.linalg.norm(grad)),
                                             rel=1e-12)


def test_concentration_single_draw_is_refused():
    # one draw has no spread: the std would be NaN
    band = BandSpec((0.0,) * 8, eps=0.2, delta=0.2, n=2)
    with pytest.raises(ValueError, match="2 draws"):
        concentration_experiment(sk_model(1.0), 8, band, n_draws=1)


@pytest.mark.parametrize("band", [
    BandSpec((0.5,) * 8, eps=1e-6, delta=0.2, n=2),    # no configuration
    BandSpec((0.3,) * 8, eps=0.2, delta=1e-9, n=2),    # no pair: R != 0.09
])
def test_concentration_empty_band_is_refused(band):
    # every draw is -inf, which gave mean -inf, std NaN and tails "ok"; the
    # band and the window do not depend on the disorder
    assert tap_Nn(sample(8, sk_model(1.0), seed=0), band) == -math.inf
    with pytest.raises(ValueError, match="no configuration"):
        concentration_experiment(sk_model(1.0), 8, band, n_draws=3)

import math

import numpy as np
import pytest

from gtap.measures import OrderParameter, band_coords, d1
from gtap.model import MixedModel, sk_model
from gtap.numerics import gauss_hermite
from gtap.pde import (SolverConfig, parisi_functional, parisi_measure,
                      second_derivative_identity, simulate_control, solve,
                      solve_band, solve_steps, unify)

from conftest import random_model, random_zeta


def heat_oracle(model, q, x, order=96):
    """Direct Gauss-Hermite value of E log 2 cosh(x + sigma g), independent
    of the layered solver (no grid, no interpolation)."""
    g, w = gauss_hermite(order)
    sd = math.sqrt(model.xi_prime(1.0) - model.xi_prime(q))
    pts = np.asarray(x)[..., None] + sd * g
    return np.sum(w * np.log(2.0 * np.cosh(pts)), axis=-1)


def test_pure_heat_layer_vs_oracle(mixed_23):
    q = 0.3
    zeta = OrderParameter.delta_at(1.0, (q, 1.0))      # CDF == 0 on [q, 1)
    sol = solve(mixed_23, zeta)
    xs = np.linspace(-5, 5, 21)
    assert np.max(np.abs(sol.phi(q, xs) - heat_oracle(mixed_23, q, xs))) < 2e-7


def test_single_cole_hopf_layer_closed_form(sk_full):
    # zeta = delta_q: log E 2cosh(x + sigma g) = log 2 cosh x + sigma^2 / 2
    q = 0.3
    zeta = OrderParameter.delta_at(q, (q, 1.0))        # CDF == 1
    sol = solve(sk_full, zeta)
    xs = np.linspace(-5, 5, 41)
    sigma2 = sk_full.xi_prime(1.0) - sk_full.xi_prime(q)
    target = np.log(2 * np.cosh(xs)) + sigma2 / 2
    assert np.max(np.abs(sol.phi(q, xs) - target)) < 1e-9


def test_band_closed_form_rs():
    # Phi_{a,delta_0}(s,x) = (1+a^2)/2 t^2 - ax + log 2 cosh(x - a t^2)
    model = MixedModel(coeffs_sq=(0.0, 0.5, 0.3))
    q, a = 0.2, 0.45
    sh = model.shift(q)
    zb = OrderParameter.delta_at(0.0, (0.0, sh.horizon))
    sol = solve_band(sh, a, zb)
    xs = np.linspace(-5, 5, 21)
    for s in (0.0, 0.3, sh.horizon):
        t2 = sh.xi_q_prime(sh.horizon) - sh.xi_q_prime(s)
        target = 0.5 * (1 + a * a) * t2 - a * xs + np.log(2 * np.cosh(xs - a * t2))
        assert np.max(np.abs(sol.phi(s, xs) - target)) < 1e-9


def test_boundary_identities(mixed_23):
    q = 0.25
    zeta = OrderParameter.from_atoms((q, 1.0), [(q, 0.5), (0.6, 0.5)])
    sol = solve(mixed_23, zeta)
    xs = np.linspace(-4, 4, 15)
    # evenness at the top: phi_x(t0, 0) = 0
    assert abs(float(sol.phi_x(q, 0.0))) < 1e-12
    # boundary curvature and slope (off-grid points go through the cubic
    # interpolant, so the identity holds to interpolation accuracy)
    assert np.max(np.abs(sol.phi_xx(1.0, xs) - (1 - np.tanh(xs) ** 2))) < 1e-8
    a = 0.3
    sh = mixed_23.shift(q)
    solb = solve_band(sh, a, band_coords(zeta))
    assert np.max(np.abs(solb.phi_x(sh.horizon, xs) - (np.tanh(xs) - a))) < 1e-8


def test_derivative_bounds(mixed_23, rng):
    q = 0.2
    zeta = random_zeta(rng, (q, 1.0), 3)
    sol = solve(mixed_23, zeta)
    assert np.max(np.abs(sol.frame_at(q).phi_x)) <= 1.0 + 1e-9
    sh = mixed_23.shift(q)
    solb = solve_band(sh, 0.8, band_coords(zeta))
    assert np.max(np.abs(solb.frame_at(0.0).phi_x)) <= 1.8 + 1e-9


def test_strict_convexity(mixed_23, rng):
    zeta = random_zeta(rng, (0.0, 1.0), 3)
    sol = solve(mixed_23, zeta)
    top = sol.frame_at(0.0).phi
    assert np.all(np.diff(top, 2) > 0)


def test_unify_zero_tilt(mixed_23):
    q = 0.3
    zeta = OrderParameter.from_atoms((q, 1.0), [(q, 0.4), (0.7, 0.6)])
    sol = solve(mixed_23, zeta)
    xs = np.linspace(-3, 3, 11)
    assert np.max(np.abs(unify(sol, 0.0, xs) - sol.phi(q, xs))) < 1e-14


def test_unify_pure_heat_sk(sk_full):
    # zeta = delta_1 on [q, 1]: both routes reduce to a Gaussian smoothing
    q = 0.36
    zeta = OrderParameter.delta_at(1.0, (q, 1.0))
    sol = solve(sk_full, zeta)
    sh = sk_full.shift(q)
    solb = solve_band(sh, 0.5, band_coords(zeta))
    xs = np.linspace(-3, 3, 13)
    assert np.max(np.abs(unify(sol, 0.5, xs) - solb.phi(0.0, xs))) < 1e-8


def test_unify_random_instances(rng):
    for _ in range(3):
        model = random_model(rng)
        q = float(rng.uniform(0.05, 0.6))
        zeta = random_zeta(rng, (q, 1.0), int(rng.integers(1, 4)))
        a = float(rng.uniform(-0.8, 0.8))
        sol = solve(model, zeta)
        solb = solve_band(model.shift(q), a, band_coords(zeta))
        xs = rng.uniform(-3, 3, size=6)
        assert np.max(np.abs(unify(sol, a, xs) - solb.phi(0.0, xs))) < 1e-7


def test_monotone_in_zeta(mixed_23):
    # pointwise larger CDF => larger solution
    q = 0.1
    lo = OrderParameter.delta_at(1.0, (q, 1.0))          # CDF 0
    mid = OrderParameter.from_atoms((q, 1.0), [(0.5, 0.5), (1.0, 0.5)])
    hi = OrderParameter.delta_at(q, (q, 1.0))            # CDF 1
    xs = np.linspace(-4, 4, 17)
    v_lo = solve(mixed_23, lo).phi(q, xs)
    v_mid = solve(mixed_23, mid).phi(q, xs)
    v_hi = solve(mixed_23, hi).phi(q, xs)
    assert np.all(v_lo <= v_mid + 1e-10)
    assert np.all(v_mid <= v_hi + 1e-10)


def test_d1_lipschitz_in_zeta(mixed_23, rng):
    # |Phi_zeta - Phi_zeta'|(t0, x) <= (sup xi'' / 2) d1(zeta, zeta')
    q = 0.2
    C = 0.5 * float(mixed_23.xi_double_prime(1.0))
    xs = np.linspace(-3, 3, 7)
    for _ in range(5):
        z1 = random_zeta(rng, (q, 1.0), int(rng.integers(1, 4)))
        z2 = random_zeta(rng, (q, 1.0), int(rng.integers(1, 4)))
        gap = np.max(np.abs(solve(mixed_23, z1).phi(q, xs)
                            - solve(mixed_23, z2).phi(q, xs)))
        assert gap <= C * d1(z1.measure, z2.measure) + 1e-9


def test_grid_refinement_self_consistency(mixed_23):
    zeta = OrderParameter.from_atoms((0.0, 1.0), [(0.0, 0.4), (0.5, 0.6)])
    xs = np.linspace(-5, 5, 41)
    coarse = solve(mixed_23, zeta, SolverConfig()).phi(0.0, xs)
    fine = solve(mixed_23, zeta, SolverConfig(dx=1 / 128)).phi(0.0, xs)
    assert np.max(np.abs(coarse - fine)) < 1e-6


def test_non_monotone_zeta_rejected(mixed_23):
    with pytest.raises(ValueError):
        OrderParameter.from_atoms((0.0, 1.0), [(0.2, -0.5), (0.6, 1.5)])


def test_grid_too_small_raises(mixed_23):
    zeta = OrderParameter.delta_at(0.0, (0.0, 1.0))
    with pytest.raises(RuntimeError):
        solve(mixed_23, zeta, SolverConfig(x_max=1.0))


@pytest.mark.parametrize("dx", [0.0, -0.01, math.nan, math.inf, 0.5, 1e300])
def test_nonpositive_grid_step_rejected(dx):
    with pytest.raises(ValueError, match="dx"):
        SolverConfig(dx=dx)


def test_step_integrals_vs_midpoint_rule(mixed_23):
    # int xi'' zeta and int s xi'' zeta on [q, 1]: equal to the piece-by-piece
    # loop, and close to a dense midpoint sum that sees zeta only by its CDF
    q = 0.2
    zeta = OrderParameter.from_atoms((q, 1.0), [(q, 0.3), (0.45, 0.2),
                                                (0.7, 0.5)])
    sol = solve(mixed_23, zeta)
    theta = mixed_23.theta
    loop_pp, loop_spp = 0.0, 0.0
    for z, lo, hi in zip(zeta.levels, zeta.nodes[:-1], zeta.nodes[1:]):
        loop_pp += z * (mixed_23.xi_prime(hi) - mixed_23.xi_prime(lo))
        loop_spp += z * (theta(hi) - theta(lo))
    assert sol.int_xi_pp_zeta() == loop_pp
    assert sol.int_s_xi_pp_zeta() == loop_spp
    n = 400_000
    s = q + (np.arange(n) + 0.5) * (1.0 - q) / n
    f = mixed_23.xi_double_prime(s) * zeta.cdf(s) * (1.0 - q) / n
    assert sol.int_xi_pp_zeta() == pytest.approx(float(np.sum(f)), abs=1e-9)
    assert sol.int_s_xi_pp_zeta() == pytest.approx(float(np.sum(s * f)),
                                                   abs=1e-9)


def test_evaluation_outside_grid_raises(mixed_23):
    zeta = OrderParameter.delta_at(0.0, (0.0, 1.0))
    sol = solve(mixed_23, zeta)
    with pytest.raises(ValueError):
        sol.phi(0.0, 100.0)


def test_simulate_control_deterministic_start(sk_full):
    q, x0 = 0.2, 0.4
    zeta = OrderParameter.from_atoms((q, 1.0), [(q, 0.5), (0.7, 0.5)])
    sol = solve(sk_full, zeta)
    out = simulate_control(sol, x0, n_paths=2000, n_steps=128, seed=1,
                           times=[q])
    assert out["u2_mean"][0] == pytest.approx(float(sol.phi_x(q, x0)) ** 2,
                                              abs=1e-12)
    assert out["u2_se"][0] == 0.0


def test_simulate_control_driftless_vs_quadrature(sk_full):
    # CDF == 0: no drift, X_s is Gaussian around x0
    q, x0, s = 0.2, 0.3, 0.65
    zeta = OrderParameter.delta_at(1.0, (q, 1.0))
    sol = solve(sk_full, zeta)
    out = simulate_control(sol, x0, n_paths=40000, n_steps=256, seed=5,
                           times=[s])
    g, w = gauss_hermite(80)
    sd = math.sqrt(sk_full.xi_prime(s) - sk_full.xi_prime(q))
    fr = sol.frame_at(s)
    direct = float(np.sum(w * np.asarray(fr.eval_phi_x(x0 + sd * g)) ** 2))
    assert abs(out["u2_mean"][0] - direct) <= 3.0 * out["u2_se"][0]
    # deterministic propagator agrees too
    det = float(sol.expected_u_squared(s, np.array([x0]))[0])
    assert abs(det - direct) < 1e-9


def test_second_derivative_identity_mc(sk_full):
    q = 0.2
    zeta = OrderParameter.from_atoms((q, 1.0), [(q, 0.4), (0.6, 0.6)])
    sol = solve(sk_full, zeta)
    out = second_derivative_identity(sol, 0.5, n_paths=30000, seed=3,
                                     n_steps=512)
    assert out["n_sigma"] <= 3.0


def test_second_derivative_identity_quadrature(mixed_23, rng):
    # deterministic version of the same identity, tighter tolerance
    q = 0.15
    zeta = random_zeta(rng, (q, 1.0), 3)
    sol = solve(mixed_23, zeta)
    for x0 in (-0.7, 0.0, 0.9):
        rhs = 1.0 - sum(w * float(sol.expected_u_squared(loc, np.array([x0]))[0])
                        for loc, w in zeta.measure.atoms)
        assert abs(float(sol.phi_xx(q, x0)) - rhs) < 5e-8


def test_martingale_property(mixed_23):
    q = 0.1
    zeta = OrderParameter.from_atoms((q, 1.0), [(q, 0.6), (0.55, 0.4)])
    sol = solve(mixed_23, zeta)
    x0 = 0.8
    for s in (0.3, 0.7, 1.0):
        fr = sol.frame_at(s)
        eu = float(sol.path_expectation(s, fr.phi_x, np.array([x0]))[0])
        assert eu == pytest.approx(float(sol.phi_x(q, x0)), abs=1e-8)


def test_parisi_functional_zero_model():
    zero = MixedModel(coeffs_sq=(0.0,))
    for atoms in ([(0.0, 1.0)], [(0.3, 0.5), (0.8, 0.5)]):
        zeta = OrderParameter.from_atoms((0.0, 1.0), atoms)
        assert parisi_functional(zero, zeta) == pytest.approx(math.log(2),
                                                              abs=1e-12)


def test_parisi_functional_with_field_rs_closed_form():
    # zeta = delta_q, xi = beta^2 s^2 / 2: P = log 2 + E log cosh(beta sqrt(q)
    # z + h) + beta^2 (1 - q)^2 / 4
    g, w = gauss_hermite(200)
    for beta, h, q in ((1.0, 0.3, 0.25), (1.4, 0.8, 0.6)):
        model = sk_model(beta, h=h, convention="half")
        zeta = OrderParameter.from_atoms((0.0, 1.0), [(q, 1.0)])
        closed = math.log(2.0) \
            + float(np.sum(w * np.log(np.cosh(beta * math.sqrt(q) * g + h)))) \
            + beta ** 2 * (1.0 - q) ** 2 / 4.0
        assert parisi_functional(model, zeta) == pytest.approx(closed, abs=5e-8)


def test_parisi_measure_rejects_field():
    with pytest.raises(ValueError):
        parisi_measure(sk_model(1.0, h=0.3, convention="half"), r_atoms=1)


def test_level_gradients_match_finite_differences(mixed_23):
    # pieces: a level-0 slot, a zero-width piece, then two positive levels
    nodes = [0.2, 0.3, 0.3, 0.6, 1.0]
    levels = np.array([0.0, 0.3, 0.5, 0.8])
    sol = solve_steps(mixed_23, (0.2, 1.0), nodes, levels)
    grads = sol.level_gradients()
    idx = np.flatnonzero(np.abs(sol.x_grid) <= 2.0)[::8]

    def phi0(lv):
        return solve_steps(mixed_23, (0.2, 1.0), nodes, lv).phi(0.2, sol.x_grid[idx])

    h = 1e-4
    for p in (2, 3):
        up, dn = levels.copy(), levels.copy()
        up[p] += h
        dn[p] -= h
        fd = (phi0(up) - phi0(dn)) / (2.0 * h)
        np.testing.assert_allclose(grads[p][idx], fd, atol=1e-9)
    # the level-0 slot admits only a one-sided difference
    up = levels.copy()
    up[0] += h
    fd0 = (phi0(up) - phi0(levels)) / h
    np.testing.assert_allclose(grads[0][idx], fd0, atol=2e-6)
    assert np.all(grads[1] == 0.0)
    # node rows 4..6 are s_1..s_3: central at s_3; the merged s_1 = s_2 may
    # only move apart, so second-order one-sided there

    def phi_nodes(j, dt):
        nd = list(nodes)
        nd[j] += dt
        return solve_steps(mixed_23, (0.2, 1.0), nd, levels).phi(
            0.2, sol.x_grid[idx])

    fd = (phi_nodes(3, h) - phi_nodes(3, -h)) / (2.0 * h)
    np.testing.assert_allclose(grads[6][idx], fd, atol=1e-8)
    for j, dt in ((1, -1e-3), (2, 1e-3)):
        fd = (4.0 * phi_nodes(j, dt) - phi_nodes(j, 2.0 * dt)
              - 3.0 * phi_nodes(j, 0.0)) / (2.0 * dt)
        np.testing.assert_allclose(grads[3 + j][idx], fd, atol=5e-7)


def test_small_level_keeps_precision(mixed_23):
    # Phi(t0) is smooth in a level at 0, so at tiny z it matches the z = 0
    # expansion; (1/z) log E exp(z Phi) loses about 1e-16/z there
    def solved(z):
        return solve_steps(mixed_23, (0.2, 1.0), [0.2, 0.6, 1.0],
                           np.array([z, 0.8]))

    sol0 = solved(0.0)
    idx = np.flatnonzero(np.abs(sol0.x_grid) <= 3.0)
    x = sol0.x_grid[idx]
    phi0, grad0 = sol0.phi(0.2, x), sol0.level_gradients()[0][idx]
    for z in (1e-8, 1e-10, 1e-12):
        sol = solved(z)
        np.testing.assert_allclose(sol.phi(0.2, x), phi0 + z * grad0,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(sol.level_gradients()[0][idx], grad0,
                                   rtol=0, atol=1e-6)


def test_parisi_minimizer_small_beta_vs_grid_oracle():
    # xi = beta^2 s^2 with beta = 0.3: the minimum sits at the RS point
    model = sk_model(0.3, convention="full")
    zeta, info = parisi_measure(model, r_atoms=2)
    # independent one-atom grid search oracle
    best = math.inf
    for u in np.linspace(0.0, 0.9, 13):
        for z in np.linspace(0.1, 1.0, 10):
            atoms = [(float(u), float(z))]
            if z < 1.0:
                atoms.append((1.0, 1.0 - z))
            cand = OrderParameter.from_atoms((0.0, 1.0), atoms)
            best = min(best, parisi_functional(model, cand))
    assert info["value"] <= best + 1e-9
    assert info["value"] == pytest.approx(math.log(2) + 0.045, abs=1e-8)
    assert zeta.measure.atoms[0][0] == pytest.approx(0.0, abs=1e-8)


def test_parisi_value_decreases_with_atoms():
    model = sk_model(1.4, convention="half")
    v1 = parisi_measure(model, r_atoms=1)[1]["value"]
    v2 = parisi_measure(model, r_atoms=2)[1]["value"]
    v3 = parisi_measure(model, r_atoms=3)[1]["value"]
    assert v2 <= v1 + 1e-9
    assert v3 <= v2 + 1e-9


@pytest.mark.parametrize("coeffs", [(0.0, 0.98), (0.0, 0.8, 0.4)])
def test_parisi_minimizer_independent_of_init(coeffs):
    # SK at beta = 1.4 and xi = 0.8 s^2 + 0.4 s^3 are RSB: from four random
    # starts the r = 2 minimum agrees, and each minimizer meets the
    # first-order condition int E u(s)^2 dmu = s on its support
    model = MixedModel(coeffs_sq=coeffs)
    cfg = SolverConfig(dx=1.0 / 16.0)
    infos = [parisi_measure(model, r_atoms=2, config=cfg, seed=k)[1]
             for k in range(4)]
    values = [info["value"] for info in infos]
    assert max(values) - min(values) < 1e-7
    for info in infos:
        assert info["diagnostics"]["certificate"]["first_residual"] < 1e-4

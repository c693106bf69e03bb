import math
import re
import sys
import threading

import numpy as np
import pytest

from gtap import pde
from gtap.measures import OrderParameter, band_coords, d1
from gtap.model import MixedModel, sk_model
from gtap.numerics import (GridStencil, ShiftStencil, gauss_hermite,
                           hermite_eval)
from gtap.pde import (GridBudgetError, SolverConfig, parisi_functional,
                      parisi_measure, second_derivative_identity,
                      simulate_control, solve, solve_band, solve_steps, unify)
from gtap.rs import AT_GH_ORDER, at_line_scan

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


def test_grid_too_small_raises(mixed_23, monkeypatch):
    # a grid never drops below its auto half-width, where the edge curvature
    # is 1e-9 here; a tolerance under that stands in for a grid too small
    monkeypatch.setattr(pde, "EDGE_CURVATURE_TOL", 1e-10)
    zeta = OrderParameter.delta_at(0.0, (0.0, 1.0))
    with pytest.raises(RuntimeError, match="x grid too small"):
        solve(mixed_23, zeta)


@pytest.mark.parametrize("x_pad", [-7.0, -math.inf, math.inf, math.nan])
def test_grid_pad_only_widens(x_pad):
    # x_pad = -7 left a half-width of 3.97 and values 1.8e-6 off, unrefused
    # by the edge check; -inf raised OverflowError
    with pytest.raises(ValueError, match="x_pad"):
        SolverConfig(x_pad=x_pad)


@pytest.mark.parametrize("dx", [0.0, -0.01, math.nan, math.inf, 0.5, 1e300])
def test_nonpositive_grid_step_rejected(dx):
    with pytest.raises(ValueError, match="dx"):
        SolverConfig(dx=dx)


@pytest.mark.parametrize("dx, points", [(1e-7, "2.273e+08"), (5e-324, "inf")])
def test_oversized_grid_refused(mixed_23, dx, points):
    # the point count is checked before the grid is made: dx = 1e-7 asks
    # for 2e8 points, and at 5e-324 the count overflows
    zeta = OrderParameter.delta_at(0.0, (0.0, 1.0))
    with pytest.raises(GridBudgetError, match=re.escape(f"grid of {points} points")):
        solve(mixed_23, zeta, SolverConfig(dx=dx))


def test_parisi_functional_at_a_huge_field_refused():
    # the grid is padded by |h|: h = 1e6 would make 1.28e8 points (1 GB)
    zeta = OrderParameter.delta_at(0.5, (0.0, 1.0))
    with pytest.raises(GridBudgetError, match="grid of 1.28e"):
        parisi_functional(sk_model(1.0, h=1e6), zeta)


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
    direct = float(np.sum(w * hermite_eval(sol.x_grid[0], sol.config.dx,
                                           fr.phi_x, fr.phi_xx, x0 + sd * g) ** 2))
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


@pytest.fixture(scope="module")
def sk_two_atoms():
    zeta = OrderParameter.from_atoms((0.2, 1.0), [(0.2, 0.4), (0.6, 0.6)])
    return solve(sk_model(1.0, convention="full"), zeta)


SDE_CHECKS = [simulate_control, second_derivative_identity]


@pytest.mark.parametrize("check", SDE_CHECKS)
def test_sde_refuses_nonfinite_start(sk_two_atoms, check):
    # x0 = NaN gave lhs = rhs = se = NaN and n_sigma = inf
    with pytest.raises(ValueError, match="finite"):
        check(sk_two_atoms, math.nan, n_paths=1000, n_steps=16)


@pytest.mark.parametrize("check", SDE_CHECKS)
def test_sde_refuses_start_beyond_escape_limit(sk_two_atoms, check):
    # x0 = 50 failed at the first step's escape check, a RuntimeError
    assert 50.0 > sk_two_atoms.x_grid[-1] - 0.5
    with pytest.raises(ValueError, match="escape limit"):
        check(sk_two_atoms, 50.0, n_paths=1000, n_steps=16)


@pytest.mark.parametrize("check", SDE_CHECKS)
@pytest.mark.parametrize("n_paths", [0, 1, 2])
def test_sde_refuses_fewer_than_two_pairs(sk_two_atoms, check, n_paths):
    # one antithetic pair gave se = NaN and n_sigma = inf
    with pytest.raises(ValueError, match="n_paths >= 3"):
        check(sk_two_atoms, 0.5, n_paths=n_paths, n_steps=16)


@pytest.mark.parametrize("check", SDE_CHECKS)
@pytest.mark.parametrize("n_steps", [0, -1])
def test_sde_refuses_fewer_than_one_step(sk_two_atoms, check, n_steps):
    # n_steps = 0 ran the default SDE_STEPS; -1 stepped only between the
    # measurement times (the identity read n_sigma 13.9)
    with pytest.raises(ValueError, match="n_steps"):
        check(sk_two_atoms, 0.5, n_paths=1000, n_steps=n_steps)


@pytest.mark.parametrize("times", [[math.nan], [1.5], [0.1, 0.6]])
def test_simulate_control_refuses_times_off_the_solve(sk_two_atoms, times,
                                                      monkeypatch):
    # [nan] returned an empty result; [1.5] on the [0.2, 1] solve failed
    # only after stepping, in the mixture's domain check. A time off the
    # solve is refused before any step: no drift table is read
    def no_table(*args):
        raise AssertionError("stepped before refusing the times")

    monkeypatch.setattr(sk_two_atoms, "phi_x_table", no_table)
    with pytest.raises(ValueError, match="times"):
        simulate_control(sk_two_atoms, 0.5, n_paths=1000, n_steps=16,
                         times=times)


def test_simulate_control_escape_joins_the_draw_thread(sk_two_atoms):
    # a start at the escape limit: about half the paths cross it on the
    # first step; the RuntimeError leaves no helper thread behind
    before = threading.active_count()
    x0 = float(sk_two_atoms.x_grid[-1]) - 0.5
    with pytest.raises(RuntimeError, match="escaped"):
        simulate_control(sk_two_atoms, x0, n_paths=1000, n_steps=16)
    assert threading.active_count() == before


def test_simulate_control_reraises_a_draw_failure(sk_two_atoms, monkeypatch):
    # the helper thread owns the generator: its exception reaches the
    # caller, and the thread is joined
    class Broken:
        def standard_normal(self, out):
            raise FloatingPointError("no draws")

    monkeypatch.setattr(pde.np.random, "default_rng", lambda seed: Broken())
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="no draws"):
        simulate_control(sk_two_atoms, 0.5, n_paths=1000, n_steps=16)
    assert threading.active_count() == before


def test_second_derivative_identity_refuses_a_tilted_solve():
    # with tilt a the boundary has Phi_xx = 1 - (Phi_x + a)^2, so the
    # identity does not apply: at a = 0.5 it read lhs 0.737, rhs 0.239
    # (n_sigma 673); the untilted band solve still checks
    sh = MixedModel(coeffs_sq=(0.0, 0.5, 0.3)).shift(0.2)
    zb = OrderParameter.from_atoms((0.0, sh.horizon),
                                   [(0.0, 0.4), (0.5 * sh.horizon, 0.6)])
    with pytest.raises(ValueError, match="untilted"):
        second_derivative_identity(solve_band(sh, 0.5, zb), 0.3,
                                   n_paths=1000, n_steps=16)
    out = second_derivative_identity(solve_band(sh, 0.0, zb), 0.3,
                                     n_paths=20_000, seed=3, n_steps=512)
    assert out["n_sigma"] <= 3.0


def _wide_solve(model, q, atoms, one_minus_a):
    zeta = OrderParameter.from_atoms((q, 1.0), atoms)
    pad = math.atanh(1.0 - one_minus_a) + 2.0   # as grad_tap's re-solve
    return solve(model, zeta, SolverConfig(x_pad=pad))


@pytest.mark.parametrize("one_minus_a", [1e-9, 1e-6])
def test_boundary_inverse_is_atanh_at_rs_minimizer(one_minus_a):
    # at delta_q, Phi_x(q, x) = tanh x, so the inverse is atanh a; inverting
    # Phi_x itself is off by 8e-8 to 1.2e-7 at 1 - 1e-9
    q = 0.3
    sol = _wide_solve(sk_model(0.5), q, [(q, 1.0)], one_minus_a)
    for a in (1.0 - one_minus_a, -(1.0 - one_minus_a)):
        assert abs(sol.boundary_inverse_phi_x(a) - math.atanh(a)) <= 1e-12


@pytest.mark.parametrize("model, q, atoms", [
    (sk_model(1.4), 0.0, [(0.2, 0.45), (0.5, 0.55)]),
    (MixedModel(coeffs_sq=(0.0, 0.8, 0.4)), 0.1,
     [(0.1, 0.3), (0.4, 0.3), (0.6, 0.4)]),
    (MixedModel(coeffs_sq=(0.0, 0.0, 2.5)), 0.2, [(0.2, 0.3), (0.9, 0.7)]),
], ids=["sk_2_atoms", "mixed_3_atoms", "pure3_2_atoms"])
@pytest.mark.parametrize("one_minus_a", [1e-3, 1e-5])
def test_boundary_inverse_matches_inverse_phi_x_on_rsb(model, q, atoms,
                                                       one_minus_a):
    # where inverting Phi_x is still well conditioned, both inverses agree
    # (they read 2e-10 to 3.3e-9 apart); the boundary inverse is odd to the
    # bit
    sol = _wide_solve(model, q, atoms, one_minus_a)
    a = 1.0 - one_minus_a
    x = sol.boundary_inverse_phi_x(a)
    assert abs(x - sol.inverse_phi_x(a)) <= 1e-8
    assert sol.boundary_inverse_phi_x(-a) == -x


def test_boundary_inverse_refuses_a_tilted_solve():
    # log(1 - tanh x) is the untilted boundary; a band solve with a != 0
    # starts from log 2cosh x - a x
    sh = MixedModel(coeffs_sq=(0.0, 0.5, 0.3)).shift(0.2)
    zb = OrderParameter.from_atoms((0.0, sh.horizon),
                                   [(0.0, 0.4), (0.5 * sh.horizon, 0.6)])
    with pytest.raises(ValueError, match="untilted"):
        solve_band(sh, 0.5, zb).boundary_inverse_phi_x(0.99)


def test_boundary_inverse_refuses_a_slope_beyond_the_grid():
    # atanh(1 - 1e-15) = 17.6 lies beyond the unpadded half-width 6 + 4 sqrt(var)
    q = 0.3
    sol = solve(sk_model(0.5), OrderParameter.delta_at(q, (q, 1.0)))
    assert sol.x_grid[-1] < math.atanh(1.0 - 1e-15)
    with pytest.raises(RuntimeError, match="outside grid range"):
        sol.boundary_inverse_phi_x(1.0 - 1e-15)


def _both_inverses(sol):
    """(name, inverse of a slope array, interior slopes) for each inverse."""
    edge = 1.0 - 10.0 ** -np.arange(3.0, 10.0)
    return [("phi_x", sol.inverse_phi_x,
             np.linspace(-0.95, 0.95, 9)),
            ("log_complement", sol.boundary_inverse_phi_x,
             np.concatenate([edge, -edge]))]


def test_inverse_bisection_fallback_matches_newton(monkeypatch):
    # no Newton step: every entry whose linear start misses by more than
    # 10 BISECT_TOL is bisected, and lands on Newton's root
    sol = _wide_solve(sk_model(1.4), 0.0, [(0.2, 0.45), (0.5, 0.55)], 1e-9)
    for name, inverse, slopes in _both_inverses(sol):
        newton = inverse(slopes)
        builds = []
        monkeypatch.setattr(pde, "NEWTON_STEPS", 0)
        monkeypatch.setattr(pde, "GridStencil",
                            lambda *args: builds.append(1) or GridStencil(*args))
        bisected = inverse(slopes)
        monkeypatch.undo()
        assert len(builds) > 30, name     # the residual check, then bisection
        assert np.max(np.abs(bisected - newton)) <= 1e-9, name


@pytest.mark.parametrize("shape", [(), (0,), (5, 1), (2, 3)])
def test_inverse_of_an_array_is_the_scalar_calls(shape):
    # entry by entry the arithmetic of a scalar call; a scalar gives a float
    sol = _wide_solve(MixedModel(coeffs_sq=(0.0, 0.8, 0.4)), 0.1,
                      [(0.1, 0.3), (0.4, 0.3), (0.6, 0.4)], 1e-9)
    rng = np.random.default_rng(5)
    for name, inverse, slopes in _both_inverses(sol):
        a = rng.choice(slopes, size=shape)
        x = inverse(a)
        scalars = [inverse(float(v)) for v in a.flat]
        assert all(type(v) is float for v in scalars), name
        if shape == ():
            assert type(x) is float and x == scalars[0], name
        else:
            assert x.shape == shape and x.ravel().tolist() == scalars, name


def test_simulate_control_matches_plain_euler_loop(mixed_23):
    # a plain Euler loop: drift xi'' zeta np.interp(frame_at(t).phi_x), the
    # same antithetic normals; level 0 on [0.25, 0.484375), then 0.5. The
    # nodes are grid times exactly (multiples of 3/256 from 0.25), so both
    # loops step on the same times
    zeta = OrderParameter.from_atoms((0.25, 1.0), [(0.484375, 0.5),
                                                   (1.0, 0.5)])
    sol = solve(mixed_23, zeta)
    x0, n_paths, n_steps, seed = 0.3, 2000, 64, 7
    times = [0.484375, 0.8125, 1.0]
    out = simulate_control(sol, x0, n_paths, n_steps=n_steps, seed=seed,
                           times=times)
    rng = np.random.default_rng(seed)
    half = n_paths // 2
    X = np.full(n_paths, x0)
    grid = np.linspace(0.25, 1.0, n_steps + 1)
    assert set(times) <= set(grid)
    for t, t_next in zip(grid[:-1], grid[1:]):
        slope = np.interp(X, sol.x_grid, sol.frame_at(t).phi_x)
        drift = mixed_23.xi_double_prime(t) * zeta.cdf(t) * slope
        sig = math.sqrt(mixed_23.xi_prime(t_next) - mixed_23.xi_prime(t))
        z = rng.standard_normal(half)
        X = X + drift * (t_next - t) + sig * np.concatenate([z, -z])
        if t_next in times:
            u2 = sol.phi_x(t_next, X) ** 2
            np.testing.assert_allclose(out["pairs_u2"][t_next],
                                       0.5 * (u2[:half] + u2[half:]),
                                       rtol=0, atol=1e-10)


def test_simulate_control_drifts_from_the_first_step_as_a_plain_loop(
        mixed_23):
    # level 0.4 from t0 = 0.25, so every step drifts, the first one from
    # the start alone; a plain loop with np.interp of frame_at and the
    # same antithetic normals pins the draw order of the helper thread,
    # here with the interpreter switching threads as often as it can.
    # The grid step is 1/64, so the node and times are grid times exactly
    zeta = OrderParameter.from_atoms((0.25, 1.0), [(0.25, 0.4),
                                                   (0.625, 0.6)])
    sol = solve(mixed_23, zeta)
    x0, n_paths, n_steps, seed = -0.6, 1000, 48, 11
    times = [0.5, 0.625, 1.0]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = simulate_control(sol, x0, n_paths, n_steps=n_steps, seed=seed,
                               times=times)
    finally:
        sys.setswitchinterval(interval)
    rng = np.random.default_rng(seed)
    half = n_paths // 2
    X = np.full(n_paths, x0)
    grid = np.linspace(0.25, 1.0, n_steps + 1)
    assert set(times) <= set(grid)
    for t, t_next in zip(grid[:-1], grid[1:]):
        slope = np.interp(X, sol.x_grid, sol.frame_at(t).phi_x)
        drift = mixed_23.xi_double_prime(t) * zeta.cdf(t) * slope
        sig = math.sqrt(mixed_23.xi_prime(t_next) - mixed_23.xi_prime(t))
        z = rng.standard_normal(half)
        X = X + drift * (t_next - t) + sig * np.concatenate([z, -z])
        if t_next in times:
            u2 = sol.phi_x(t_next, X) ** 2
            np.testing.assert_allclose(out["pairs_u2"][t_next],
                                       0.5 * (u2[:half] + u2[half:]),
                                       rtol=0, atol=1e-10)
    assert out["times"] == times


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


def sk_rs_value(beta, h, q):
    """SK (xi = beta^2 s^2 / 2) Parisi functional at zeta = delta_q:
    log 2 + E log cosh(beta sqrt(q) g + h) + beta^2 (1 - q)^2 / 4."""
    g, w = gauss_hermite(200)
    return math.log(2.0) \
        + float(np.sum(w * np.log(np.cosh(beta * math.sqrt(q) * g + h)))) \
        + beta ** 2 * (1.0 - q) ** 2 / 4.0


@pytest.mark.parametrize("beta, h", [(0.8, 0.5), (1.2, 0.3), (1.2, 0.8)])
def test_parisi_measure_with_field_above_at_line_is_rs(beta, h):
    # above the AT line the Parisi measure is delta at the RS fixed point q
    # of at_line_scan (a separate fixed-point iteration); r = 2 holds it,
    # since r counts the optimizer's slot at 0
    zeta, info = parisi_measure(sk_model(beta, h=h), r_atoms=2)
    at = at_line_scan(beta, h)
    assert at["at_ok"]
    assert len(zeta.measure.atoms) == 1
    assert zeta.measure.atoms[0][0] == pytest.approx(at["q"], abs=1e-6)
    assert info["value"] == pytest.approx(sk_rs_value(beta, h, at["q"]),
                                          abs=1e-9)
    assert info["diagnostics"]["converged"]


@pytest.mark.parametrize("beta, h", [(1.5, 0.2), (2.0, 0.3)])
def test_parisi_measure_with_field_below_at_line_breaks_rs(beta, h):
    # below the AT line r = 3 finds two atoms, the first above 0 (q_min > 0
    # with a field), and a value strictly below the RS formula
    zeta, info = parisi_measure(sk_model(beta, h=h), r_atoms=3)
    at = at_line_scan(beta, h)
    assert not at["at_ok"]
    atoms = zeta.measure.atoms
    assert len(atoms) == 2
    assert atoms[0][0] > 0.0
    assert info["value"] < sk_rs_value(beta, h, at["q"])
    assert info["value"] == pytest.approx(
        parisi_functional(sk_model(beta, h=h), zeta), abs=1e-12)


def test_parisi_measure_is_even_in_the_field():
    values = [parisi_measure(sk_model(1.2, h=h), r_atoms=2)[1]["value"]
              for h in (0.3, -0.3)]
    assert values[0] == pytest.approx(values[1], abs=1e-12)


@pytest.mark.parametrize("beta, h", [(0.8, 0.5), (1.5, 0.2)])
def test_parisi_second_slack_is_the_at_value(beta, h):
    # at an RS measure delta_q, xi''(q) E Phi_xx(q, X_q)^2 - 1 is
    # beta^2 E sech^4(beta sqrt(q) g + h) - 1, the AT value less 1, on both
    # sides of the AT line; at_line_scan's Gauss-Hermite order, since the
    # solver's default of 40 points is off by 4e-6 at beta = 1.5. Below the
    # line r = 2 still stops at the best RS point, `converged`: best r-atom
    # points of FRSB models read second slacks above 0 too
    cfg = SolverConfig(gh_order=AT_GH_ORDER)
    zeta, info = parisi_measure(sk_model(beta, h=h), r_atoms=2, config=cfg)
    at = at_line_scan(beta, h)
    cert = info["diagnostics"]["certificate"]
    assert len(zeta.measure.atoms) == 1
    assert cert["second_slacks"][0] == pytest.approx(at["at_value"] - 1.0,
                                                     abs=1e-6)
    assert (cert["second_slacks"][0] > 0.0) == (not at["at_ok"])
    assert info["diagnostics"]["converged"]


def _smooth_grid_function(rng, x):
    """A random smooth function with a linear trend and its first three
    derivatives on the grid x."""
    amp = rng.uniform(-1.0, 1.0, 3)
    freq = rng.uniform(0.3, 3.0, 3)
    arg = freq[:, None] * x + rng.uniform(0.0, 2 * math.pi, 3)[:, None]
    sin, cos = np.sin(arg), np.cos(arg)
    slope = rng.uniform(-1.0, 1.0)
    return (amp @ sin + slope * x, (amp * freq) @ cos + slope,
            -(amp * freq ** 2) @ sin, -(amp * freq ** 3) @ cos)


def _hermite_reference(x0, dx, f, d, xq):
    """Cubic Hermite interpolation point by point, linear beyond the grid."""
    n = f.size - 1
    u = (xq - x0) / dx
    i = np.clip(np.floor(u).astype(np.int64), 0, n - 1)
    t = np.clip(u - i, 0.0, 1.0)
    t2, t3 = t * t, t * t * t
    out = ((2.0 * t3 - 3.0 * t2 + 1.0) * f[i] + dx * (t3 - 2.0 * t2 + t) * d[i]
           + (-2.0 * t3 + 3.0 * t2) * f[i + 1] + dx * (t3 - t2) * d[i + 1])
    out = np.where(xq < x0, f[0] + d[0] * (xq - x0), out)
    return np.where(xq > x0 + n * dx, f[-1] + d[-1] * (xq - (x0 + n * dx)), out)


def _linear_reference(x0, dx, f, xq):
    """Linear interpolation point by point, constant beyond the grid."""
    n = f.size - 1
    u = np.clip((xq - x0) / dx, 0.0, float(n))
    i = np.clip(np.floor(u).astype(np.int64), 0, n - 1)
    t = u - i
    return (1.0 - t) * f[i] + t * f[i + 1]


SHIFT_CASES = [
    # sigma < dx: every point in a cell next to its grid point
    (1.0 / 16, 3.0, 0.05 * gauss_hermite(40)[0]),
    # sigma g_j beyond twice the half-width: whole columns past both edges
    (1.0 / 16, 2.0, 1.0 * gauss_hermite(40)[0]),
    (0.03, 2.0, 0.9 * gauss_hermite(40)[0]),
    # shifts of whole cells: every point on a cell boundary
    (1.0 / 16, 2.0, np.array([-5.0, -1.0, 0.0, 2.0, 7.0, 70.0]) / 16),
    (1.0 / 16, 2.0, 1.7 * gauss_hermite(12)[0]),
]


@pytest.mark.parametrize("dx, half_width, shifts", SHIFT_CASES)
def test_stencil_matches_point_interpolation(dx, half_width, shifts):
    # a layer's stencil at x_k + shift_j, and the point interpolators, against
    # the point-by-point formulas: the same arithmetic, so the same bits
    rng = np.random.default_rng(41)
    n = int(round(half_width / dx))
    x = dx * np.arange(-n, n + 1)
    f, d, d2, d3 = _smooth_grid_function(rng, x)
    pts = x[:, None] + shifts[None, :]
    st = GridStencil(x[0], dx, x.size, pts)
    for vals, ders in ((f, d), (d, d2), (d2, d3)):
        ref = _hermite_reference(x[0], dx, vals, ders, pts)
        np.testing.assert_array_equal(st.hermite(vals, ders), ref)
        np.testing.assert_array_equal(
            hermite_eval(x[0], dx, vals, ders, pts[:, 0]), ref[:, 0])
    ref = _linear_reference(x[0], dx, d3, pts)
    np.testing.assert_array_equal(st.linear(d3), ref)
    # a scalar point gives a scalar
    point = hermite_eval(x[0], dx, f, d, pts[0, 0])
    assert np.ndim(point) == 0
    assert point == _hermite_reference(x[0], dx, f, d, pts[0, 0])


@pytest.mark.parametrize("dx, half_width, shifts", SHIFT_CASES)
def test_shift_stencil_matches_point_interpolation(dx, half_width, shifts):
    # the shared-fraction form rounds its fractions and edge continuations
    # differently from the per-point formulas, so it agrees to rounding
    rng = np.random.default_rng(41)
    n = int(round(half_width / dx))
    x = dx * np.arange(-n, n + 1)
    f, d, d2, d3 = _smooth_grid_function(rng, x)
    pts = x[:, None] + shifts[None, :]
    st = ShiftStencil(dx, x.size, shifts)
    for vals, ders in ((f, d), (d, d2), (d2, d3)):
        ref = _hermite_reference(x[0], dx, vals, ders, pts)
        np.testing.assert_allclose(st.hermite(vals, ders), ref, rtol=0,
                                   atol=1e-13 * np.abs(ref).max())
    ref = _linear_reference(x[0], dx, d3, pts)
    np.testing.assert_allclose(st.linear(d3), ref, rtol=0,
                               atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("t", [0.3, 0.55])
def test_phi_x_table_matches_frame_at_off_node(mixed_23, t):
    # t = 0.3 lies in a level-0 layer, t = 0.55 in a layer of level 0.4; two
    # fresh solves, since phi_x_table reads frame_at's cache
    zeta = OrderParameter.from_atoms((0.2, 1.0), [(0.4, 0.4), (0.7, 0.6)])
    assert zeta.cdf(t) == (0.0 if t < 0.4 else 0.4)
    sol = solve(mixed_23, zeta)
    table = sol.phi_x_table(t, 0, sol.x_grid.size - 1)
    frame = solve(mixed_23, zeta).frame_at(t)
    # one stencil and one mean: the same bits
    np.testing.assert_array_equal(table, frame.phi_x)


@pytest.mark.parametrize("t", [0.3, 0.55])
def test_phi_x_table_window_matches_the_full_table(mixed_23, t):
    # t = 0.3 in a level-0 layer, t = 0.55 in one of level 0.4: a window
    # reads the whole upper frame, so it is the full table's slice up to
    # the rounding of the Doob weights' row sums
    zeta = OrderParameter.from_atoms((0.2, 1.0), [(0.4, 0.4), (0.7, 0.6)])
    sol = solve(mixed_23, zeta)
    n = sol.x_grid.size
    full = sol.phi_x_table(t, 0, n - 1)
    mid = n // 2
    for lo, hi in ((mid - 1, mid + 1), (mid - 300, mid + 200), (0, 2),
                   (0, 150), (n - 3, n - 1), (n - 151, n - 1)):
        window = sol.phi_x_table(t, lo, hi)
        assert window.shape == (hi - lo + 1,)
        np.testing.assert_allclose(window, full[lo:hi + 1], rtol=0,
                                   atol=1e-15)


def test_phi_x_table_refuses_a_window_off_the_grid():
    zeta = OrderParameter.from_atoms((0.2, 1.0), [(0.5, 0.5), (1.0, 0.5)])
    sol = solve(MixedModel(coeffs_sq=(0.0, 1.0)), zeta)
    n = sol.x_grid.size
    for lo, hi in ((-1, 5), (5, 4), (0, n)):
        with pytest.raises(ValueError, match="window"):
            sol.phi_x_table(0.3, lo, hi)


def test_phi_x_table_refuses_times_outside_the_solve():
    # it extrapolated a table at t = 0.1 where frame_at refused
    zeta = OrderParameter.from_atoms((0.2, 1.0), [(0.5, 0.5), (1.0, 0.5)])
    sol = solve(MixedModel(coeffs_sq=(0.0, 1.0)), zeta)
    for t in (0.1, 1.1):
        for read in (lambda t: sol.phi_x_table(t, 0, sol.x_grid.size - 1),
                     sol.frame_at):
            with pytest.raises(ValueError, match=rf"time {t} outside "
                               r"\[0.2, 1.0\]"):
                read(t)


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


def _rebuilt_level_gradients(sol):
    """Reference: the level and node sensitivities by a second backward
    sweep that builds every layer again from the solved frames."""
    r = len(sol.levels)
    sens = {}
    for p in range(r - 1, -1, -1):
        _, layer = sol._layer(float(sol.nodes[p + 1]), float(sol.nodes[p]),
                              float(sol.levels[p]))
        if layer is None:
            sens[p] = np.zeros_like(sol.x_grid)
        else:
            sens = {j: layer.pull(S) for j, S in sens.items()}
            sens[p] = layer.level_sensitivity()
        if p > 0:
            s_p = float(sol.nodes[p])
            jump = float(sol.levels[p] - sol.levels[p - 1])
            ux = sol._frames[sol._key(s_p)].phi_x
            sens[r - 1 + p] = (-0.5 * sol.mixture.xi_double_prime(s_p)
                               * jump * ux * ux)
    return np.stack([sens[k] for k in range(2 * r - 1)])


@pytest.mark.parametrize("model, interval, nodes, levels", [
    # a level-0 slot and a zero-width piece
    (MixedModel(coeffs_sq=(0.0, 0.6, 0.2)), (0.2, 1.0),
     [0.2, 0.3, 0.3, 0.6, 1.0], [0.0, 0.3, 0.5, 0.8]),
    # a level small enough for the Taylor-tail branch of the kernel
    (MixedModel(coeffs_sq=(0.0, 0.6, 0.2)), (0.2, 1.0),
     [0.2, 0.6, 1.0], [1e-10, 0.8]),
    (sk_model(1.4), (0.0, 1.0),
     [0.0, 0.2, 0.45, 0.7, 1.0], [0.15, 0.4, 0.6, 0.85]),
], ids=["slots", "small_level", "sk_4_levels"])
def test_level_gradients_equal_the_rebuilt_sweep(model, interval, nodes,
                                                 levels):
    sol = solve_steps(model, interval, nodes, np.array(levels))
    assert np.array_equal(sol.level_gradients(), _rebuilt_level_gradients(sol))


def test_level_gradients_read_only_and_only_from_solve_steps(mixed_23):
    sol = solve_steps(mixed_23, (0.2, 1.0), [0.2, 0.6, 1.0],
                      np.array([0.3, 0.8]))
    grads = sol.level_gradients()
    kept = grads.copy()
    with pytest.raises(ValueError, match="read-only"):
        grads[0, 0] = 1.0
    assert np.array_equal(sol.level_gradients(), kept)
    zeta = OrderParameter.from_atoms((0.2, 1.0), [(0.6, 0.3), (1.0, 0.7)])
    sh = mixed_23.shift(0.2)
    for built in (solve(mixed_23, zeta), solve_band(sh, 0.3, band_coords(zeta))):
        with pytest.raises(ValueError, match="solve_steps"):
            built.level_gradients()


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


def test_band_zeta_short_of_the_horizon_is_refused():
    # a band zeta on [0, 0.5] with 1 - q = 0.91 used to be solved on [0, 0.5]
    from gtap.tap import EffectiveField
    sh = sk_model(1.0).shift(0.09)
    short = OrderParameter.delta_at(0.0, (0.0, 0.5))
    with pytest.raises(ValueError, match="1-q"):
        solve_band(sh, 0.3, short)
    with pytest.raises(ValueError, match="1-q"):
        EffectiveField(sh, short)(0.3)
    full = OrderParameter.delta_at(0.0, (0.0, sh.horizon))
    assert np.isfinite(EffectiveField(sh, full)(0.3))


def _sk14_two_atoms(dx=SolverConfig.dx):
    """SK beta = 1.4, zeta = delta_0 / 2 + delta_0.6 / 2."""
    zeta = OrderParameter.from_atoms((0.0, 1.0), [(0.0, 0.5), (0.6, 0.5)])
    return solve(sk_model(1.4), zeta, SolverConfig(dx=dx))


@pytest.mark.parametrize("dx", [0.1, 0.03])
def test_reads_at_the_grid_points_return_the_frame(dx):
    # the reader's step is config.dx, the one the layers use; the step
    # x[1] - x[0] of the grid itself misses it by ~6e-15 and read 1.2e-13
    # and 1.9e-13 off the frame at these steps
    sol = _sk14_two_atoms(dx)
    read = sol.phi_x(0.0, sol.x_grid)
    assert np.max(np.abs(read - sol.frame_at(0.0).phi_x)) <= 1e-14


def test_path_expectation_refuses_starts_beyond_the_grid():
    # E u(s)^2 <= 1 since |Phi_x| < 1; a start at 100 read 1.00000026, and
    # one at NaN read NaN
    sol = _sk14_two_atoms()
    edge = sol.x_grid[-1]
    assert sol.expected_u_squared(0.6, edge) <= 1.0
    for x in (edge + sol.config.dx, 100.0, math.nan):
        with pytest.raises(ValueError, match="beyond the solved grid"):
            sol.expected_u_squared(0.6, x)


@pytest.mark.parametrize("s", [0.0, 0.6])
def test_path_expectation_refuses_a_grid_function_of_another_length(s):
    # seven entries more shift every grid point by seven cells
    sol = _sk14_two_atoms()
    f = sol.frame_at(s).phi_x ** 2
    right = sol.path_expectation(s, f, 0.3)
    assert right == sol.expected_u_squared(s, 0.3)
    with pytest.raises(ValueError, match="grid function of shape"):
        sol.path_expectation(s, np.concatenate([f[:7], f]), 0.3)


def test_second_derivative_identity_reads_the_steps_of_any_solve():
    # the atoms are the jumps of the CDF steps, so an optimizer solve of
    # zeta's own steps gives the identity of zeta's plain solve
    zeta = OrderParameter.from_atoms((0.2, 1.0), [(0.2, 0.4), (0.6, 0.6)])
    model = sk_model(1.0, convention="full")
    steps = solve_steps(model, zeta.interval, zeta.nodes, zeta.levels)
    plain = solve(model, zeta)
    kw = dict(n_paths=2000, seed=3, n_steps=64)
    assert second_derivative_identity(steps, 0.5, **kw) \
        == second_derivative_identity(plain, 0.5, **kw)


def _pde_refusals():
    sk, unit = sk_model(1.0), OrderParameter.delta_at(0.0, (0.0, 1.0))
    cfg = SolverConfig()
    sol = solve(sk, unit)
    tilted = solve_band(sk.shift(0.2), 0.3,
                        OrderParameter.delta_at(0.0, (0.0, 0.8)))
    return {
        "node_count": (lambda: pde.PDESolution(
            sk, (0.0, 1.0), [0.0, 1.0], [0.5, 1.0], 0.0, cfg),
            "one more node than levels"),
        "decreasing_nodes": (lambda: pde.PDESolution(
            sk, (0.0, 1.0), [0.0, 0.7, 0.4, 1.0], [0.2, 0.5, 0.8], 0.0, cfg),
            "nodes and levels must be nondecreasing"),
        "level_above_1": (lambda: pde.PDESolution(
            sk, (0.0, 1.0), [0.0, 1.0], [1.5], 0.0, cfg),
            r"levels must lie in \[0, 1\]"),
        "time_after_t1": (lambda: sol.path_expectation(
            1.5, sol.frame_at(1.0).phi, 0.0),
            "measurement time outside the solved interval"),
        "interval_beyond_1": (lambda: solve(
            sk, OrderParameter.delta_at(0.5, (0.0, 1.5))),
            r"interval inside \[0, 1\]"),
        "unify_tilted": (lambda: unify(tilted, 0.3, 0.0), "untilted"),
        "parisi_zeta_on_q_1": (lambda: parisi_functional(
            sk, OrderParameter.delta_at(0.5, (0.2, 1.0))),
            r"zeta on \[0, 1\]"),
        "parisi_no_atoms": (lambda: parisi_measure(sk, r_atoms=0),
                            "r_atoms must be at least 1"),
    }


@pytest.mark.parametrize("case", list(_pde_refusals()))
def test_documented_refusals(case):
    call, message = _pde_refusals()[case]
    with pytest.raises(ValueError, match=message):
        call()

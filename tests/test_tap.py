import math

import numpy as np
import pytest

from gtap import pde, tap
from gtap.measures import (DiscreteMeasure, OrderParameter, band_coords, d1,
                           empirical, restrict_zeta)
from gtap.model import MixedModel, sk_model
from gtap.pde import SolverConfig, parisi_functional, solve
from gtap.rs import big_gamma, classical_tap, is_replica_symmetric, v_rs
from gtap.tap import (EffectiveField, _evaluate, _gradient, _unpack,
                      band_functional, directional_derivative,
                      effective_field, lambda_conj, optimality_check, psi,
                      psi_bar, tap_correction, tap_with_zeta)

from conftest import random_model, random_mu, random_zeta


def test_lambda_at_zero_slope(mixed_23):
    q = 0.2
    zeta = OrderParameter.from_atoms((q, 1.0), [(q, 0.5), (0.6, 0.5)])
    lam, x_star = lambda_conj(mixed_23, q, 0.0, zeta)
    assert x_star == pytest.approx(0.0, abs=1e-10)
    sol = solve(mixed_23, zeta)
    assert lam == pytest.approx(float(sol.phi(q, 0.0)), abs=1e-10)


def test_lambda_at_boundary_slope(mixed_23):
    q = 0.2
    zeta = OrderParameter.from_atoms((q, 1.0), [(q, 0.5), (0.6, 0.5)])
    sol = solve(mixed_23, zeta)
    lam, x_star = lambda_conj(mixed_23, q, 1.0, zeta)
    assert math.isinf(x_star)
    assert lam == pytest.approx(0.5 * sol.int_xi_pp_zeta(), abs=1e-14)
    # grid infimum of Phi - x approaches the limit from above
    xs = sol.x_grid
    grid_inf = float(np.min(sol.phi(q, xs) - xs))
    assert grid_inf >= lam - 1e-12
    assert grid_inf - lam < 1e-6


def test_lambda_vs_grid_minimization_oracle(sk_full):
    # zeta with CDF 0 on [q, 1): pure heat layer
    q, a = 0.2, 0.5
    zeta = OrderParameter.delta_at(1.0, (q, 1.0))
    sol = solve(sk_full, zeta)
    lam, x_star = lambda_conj(sk_full, q, a, zeta, sol=sol)
    xs = np.linspace(-6, 6, 20001)
    dense = np.min(sol.phi(q, xs) - a * xs)
    assert lam == pytest.approx(float(dense), abs=1e-7)
    assert lam <= dense + 1e-12


def test_lambda_even_and_concave(mixed_23, rng):
    q = 0.3
    zeta = random_zeta(rng, (q, 1.0), 2)
    sol = solve(mixed_23, zeta)
    grid = np.linspace(-0.9, 0.9, 13)
    vals = np.array([lambda_conj(mixed_23, q, float(a), zeta, sol=sol)[0]
                     for a in grid])
    assert np.max(np.abs(vals - vals[::-1])) < 1e-10
    assert np.all(np.diff(vals, 2) <= 1e-8)


def test_lambda_tail_envelope(mixed_23):
    # 0 <= Lambda - (a^2/2) I and the gap at 0.99 sits below the gap at 0.5
    q = 0.2
    zeta = OrderParameter.from_atoms((q, 1.0), [(q, 0.7), (0.8, 0.3)])
    sol = solve(mixed_23, zeta)
    I = sol.int_xi_pp_zeta()

    def gap(a):
        lam, _ = lambda_conj(mixed_23, q, a, zeta, sol=sol)
        return lam - 0.5 * a * a * I

    assert gap(0.5) >= -1e-10
    assert gap(0.99) >= -1e-10
    assert gap(0.99) < gap(0.5)


def test_psi_values(mixed_23):
    q = 0.2
    zeta = OrderParameter.from_atoms((q, 1.0), [(q, 0.5), (0.6, 0.5)])
    assert psi(mixed_23, q, 0.0, zeta) == pytest.approx(0.0, abs=1e-10)
    # CDF identically 0: the Onsager-type integral vanishes
    zeta0 = OrderParameter.delta_at(1.0, (q, 1.0))
    a = 0.4
    assert psi(mixed_23, q, a, zeta0) == pytest.approx(
        psi_bar(mixed_23, q, a, zeta0), abs=1e-12)


def test_psi_equals_band_field(mixed_23):
    # psi(q, a, zeta) = v_{theta_q zeta}(a), two independent pipelines
    q = 0.25
    zeta = OrderParameter.from_atoms((q, 1.0), [(q, 0.4), (0.55, 0.6)])
    sh = mixed_23.shift(q)
    ev = effective_field(sh, band_coords(zeta))
    for a in (0.1, 0.45, 0.8):
        assert psi(mixed_23, q, a, zeta) == pytest.approx(ev(a), abs=1e-7)


def test_effective_field_basics(mixed_23):
    q = 0.2
    sh = mixed_23.shift(q)
    zb = OrderParameter.delta_at(0.0, (0.0, sh.horizon))
    ev = effective_field(sh, zb)
    assert ev(0.0) == pytest.approx(0.0, abs=1e-10)
    grid = np.arange(0.0, 0.95, 0.1)
    vals = [ev(float(a)) for a in grid]
    assert np.all(np.diff(vals) > 0)
    for a in grid:
        assert ev(float(a)) == pytest.approx(v_rs(sh, float(a)), abs=1e-8)
    with pytest.raises(ValueError):
        ev(1.0)


def test_effective_field_residual(mixed_23, rng):
    q = 0.3
    sh = mixed_23.shift(q)
    zb = random_zeta(rng, (0.0, sh.horizon), 2)
    ev = EffectiveField(sh, zb)
    for a in (0.1, 0.5, 0.85):
        sol = ev.solution_for(a)
        assert abs(float(sol.phi_x(0.0, ev(a)))) < 1e-8


def test_tap_with_zeta_delta_one(mixed_23):
    mu1 = DiscreteMeasure.delta(1.0, interval=(0.0, 1.0))
    zeta = OrderParameter.delta_at(0.5, (0.0, 1.0))
    assert tap_with_zeta(mixed_23, mu1, zeta) == 0.0


def test_tap_at_delta_zero_equals_parisi(mixed_23):
    mu0 = DiscreteMeasure.delta(0.0, interval=(0.0, 1.0))
    zeta = OrderParameter.from_atoms((0.0, 1.0), [(0.0, 0.3), (0.4, 0.7)])
    assert tap_with_zeta(mixed_23, mu0, zeta) == pytest.approx(
        parisi_functional(mixed_23, zeta), abs=1e-11)


def test_tap_symmetric_mu_folds(mixed_23):
    zeta = OrderParameter.from_atoms((0.0, 1.0), [(0.18, 1.0)])
    mu_sym = DiscreteMeasure(interval=(-1.0, 1.0),
                             atoms=((-0.3, 0.5), (0.3, 0.5)))
    mu_fold = DiscreteMeasure.delta(0.3, interval=(0.0, 1.0))
    assert tap_with_zeta(mixed_23, mu_sym, zeta) == pytest.approx(
        tap_with_zeta(mixed_23, mu_fold, zeta), abs=1e-12)


def test_band_functional_boundary_measure(mixed_23):
    mu1 = DiscreteMeasure.delta(1.0, interval=(0.0, 1.0))
    sh = mixed_23.shift(1.0)
    zb = OrderParameter.delta_at(0.0, (0.0, 0.0))
    assert band_functional(sh, mu1, lambda a: 0.0, 0.0, zb) == 0.0


def test_band_functional_matches_tap(mixed_23, rng):
    # P_bar at (0, theta_q zeta) with v = v_zeta equals TAP(mu, zeta)
    mu = random_mu(rng, 3)
    q = mu.moment(2)
    zeta = random_zeta(rng, (q, 1.0), 2)
    sh = mixed_23.shift(q)
    zb = band_coords(zeta)
    ev = EffectiveField(sh, zb)
    lhs = band_functional(sh, mu, ev, 0.0, zb, field=ev)
    rhs = tap_with_zeta(mixed_23, mu, zeta)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_band_functional_heat_oracle(mixed_23):
    # v = 0, lambda = 0, mu = delta_0, zeta CDF 0: quadrature oracle
    from gtap.numerics import gauss_hermite
    mu0 = DiscreteMeasure.delta(0.0, interval=(0.0, 1.0))
    sh = mixed_23.shift(0.0)
    zb = OrderParameter.delta_at(sh.horizon, (0.0, sh.horizon))
    val = band_functional(sh, mu0, lambda a: 0.0, 0.0, zb)
    g, w = gauss_hermite(96)
    sd = math.sqrt(sh.xi_q_prime(sh.horizon))
    oracle = float(np.sum(w * np.log(2 * np.cosh(sd * g))))
    assert val == pytest.approx(oracle, abs=1e-6)


def test_tap_correction_delta_one(mixed_23):
    res = tap_correction(mixed_23, DiscreteMeasure.delta(1.0, (0.0, 1.0)))
    assert res.value == 0.0
    assert res.diagnostics["trivial"]


def test_tap_correction_rs_equals_classical():
    model = sk_model(0.5, convention="half")
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=((0.1, 0.6), (0.4, 0.4)))
    res = tap_correction(model, mu, r_atoms=2)
    assert res.value == pytest.approx(classical_tap(model, mu), abs=1e-6)
    # RS minimizer: single atom at q (CDF identically 1)
    delta_q = DiscreteMeasure.delta(res.q, interval=(res.q, 1.0))
    assert d1(res.minimizer_zeta.measure, delta_q) < 1e-8
    assert res.diagnostics["representation_gap"] < 1e-6
    cert = res.diagnostics["certificate"]
    assert cert["first_residual"] < 1e-7
    assert cert["second_max"] <= 1e-7


def test_plefka_violation_gives_rsb_minimizer(mixed_23):
    # a |m|-law violating Plefka's condition: Gamma reports RSB, and the
    # r = 2 minimum lies below the classical (RS) value. Oracle: TAP at the
    # 2-atom zeta {(q, 0.6007), (0.17623, 0.3993)} on a 4x finer grid.
    mu = empirical(np.random.default_rng(15).uniform(-0.6, 0.6, 6), fold=True)
    q = mu.moment(2)
    diag = is_replica_symmetric(mixed_23.shift(q), mu)
    assert diag.plefka_lhs > 1.0
    assert not diag.is_rs
    res = tap_correction(mixed_23, mu, r_atoms=2, with_representation=False)
    assert res.value < classical_tap(mixed_23, mu) - 5e-6
    zeta = OrderParameter.from_atoms((q, 1.0), [(q, 0.6007), (0.17623, 0.3993)])
    oracle = tap_with_zeta(mixed_23, mu, zeta,
                           SolverConfig(dx=1.0 / 256.0, gh_order=60))
    assert oracle == pytest.approx(0.9596046859, abs=1e-10)
    assert res.value == pytest.approx(oracle, abs=1e-8)
    assert len(res.minimizer_zeta.measure.atoms) == 2


def test_tap_correction_zero_in_support(mixed_23, rng):
    for _ in range(2):
        mu = random_mu(rng, 3)
        res = tap_correction(mixed_23, mu, r_atoms=2,
                             with_representation=False,
                             with_certificate=False)
        assert res.minimizer_zeta.measure.atoms[0][0] <= res.q + 1e-6


def test_tap_continuity_under_d1_perturbation(mixed_23):
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=((0.2, 0.5), (0.5, 0.5)))
    res = tap_correction(mixed_23, mu, r_atoms=2, with_representation=False,
                         with_certificate=False)
    mu2 = DiscreteMeasure(interval=(0.0, 1.0),
                          atoms=((0.201, 0.5), (0.5, 0.5)))
    assert d1(mu, mu2) < 1e-3 + 1e-12
    res2 = tap_correction(mixed_23, mu2, r_atoms=2, with_representation=False,
                          with_certificate=False)
    assert abs(res.value - res2.value) < 1e-2


def test_directional_derivative_zero_direction(mixed_23, rng):
    mu = random_mu(rng, 2)
    q = mu.moment(2)
    sh = mixed_23.shift(q)
    zb = random_zeta(rng, (0.0, sh.horizon), 2)
    ev = EffectiveField(sh, zb)
    val = directional_derivative(sh, mu, ev, zb, ev, zb)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_directional_derivative_vs_finite_difference(mixed_23):
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=((0.2, 0.5), (0.45, 0.5)))
    q = mu.moment(2)
    sh = mixed_23.shift(q)
    H = sh.horizon
    z0 = OrderParameter.from_atoms((0.0, H), [(0.0, 0.5), (0.5 * H, 0.5)])
    z1 = OrderParameter.from_atoms((0.0, H), [(0.0, 0.2), (0.3 * H, 0.8)])
    ev0 = EffectiveField(sh, z0)
    v0_vals = {a: ev0(a) for a, _ in mu.atoms}
    v0 = lambda a: v0_vals[a]
    v1 = lambda a: v0_vals[a] + 0.1 * a      # same near 1 on supp(mu)
    dd = directional_derivative(sh, mu, v0, z0, v1, z1)

    def pbar(b):
        zb = OrderParameter.from_atoms(
            (0.0, H), _mix_atoms(z0, z1, b))
        vb = lambda a: (1 - b) * v0(a) + b * v1(a)
        return band_functional(sh, mu, vb, 0.0, zb)

    h = 5e-4
    fd = (pbar(h) - pbar(0.0)) / h
    assert dd == pytest.approx(fd, abs=5e-4)


def _mix_atoms(z0, z1, b):
    """Atoms of (1-b) z0 + b z1 as a measure mixture."""
    out = {}
    for x, w in z0.measure.atoms:
        out[x] = out.get(x, 0.0) + (1 - b) * w
    for x, w in z1.measure.atoms:
        out[x] = out.get(x, 0.0) + b * w
    return [(x, w) for x, w in sorted(out.items()) if w > 0]


def test_directional_derivative_rs_is_gamma_integral():
    # at (v_RS, delta_0) the zeta-derivative toward zeta1 equals
    # -(1/2) int Gamma_mu(r) dzeta1(r): the stability curve integrates the
    # same Gibbs second moment that drives the derivative
    model = sk_model(0.8, convention="half")
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=((0.15, 0.5), (0.4, 0.5)))
    q = mu.moment(2)
    sh = model.shift(q)
    H = sh.horizon
    z0 = OrderParameter.delta_at(0.0, (0.0, H))
    s1 = 0.6 * H
    z1 = OrderParameter.delta_at(s1, (0.0, H))
    ev = EffectiveField(sh, z0)
    dd = directional_derivative(sh, mu, ev, z0, ev, z1)
    assert dd == pytest.approx(-0.5 * big_gamma(sh, mu, s1), abs=2e-6)


def test_optimality_check_at_minimizer():
    model = sk_model(0.5, convention="half")
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=((0.1, 0.6), (0.4, 0.4)))
    res = tap_correction(model, mu, r_atoms=2, with_representation=False,
                         with_certificate=False)
    sh = model.shift(res.q)
    cert = optimality_check(sh, mu, band_coords(res.minimizer_zeta))
    assert cert["first_residual"] < 1e-7
    assert cert["second_max"] <= 1e-7
    # the s = 0 residual vanishes by the definition of the effective field
    assert abs(cert["first_residuals"][0]) < 1e-9


def test_certificate_matches_band_optimality_check():
    # psi(q, a, zeta) = v_{theta_q zeta}(a): the original-coordinate
    # certificate and the band check follow the same diffusion
    model = MixedModel(coeffs_sq=(0.0, 1.5))
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=((0.1, 0.6), (0.3, 0.4)))
    res = tap_correction(model, mu, r_atoms=2,
                         with_representation=False)
    assert len(res.minimizer_zeta.measure.atoms) == 2
    cert = res.diagnostics["certificate"]
    band = optimality_check(model.shift(res.q), mu,
                            band_coords(res.minimizer_zeta))
    np.testing.assert_allclose(cert["first_residuals"],
                               band["first_residuals"], rtol=0, atol=1e-6)
    np.testing.assert_allclose(cert["second_slacks"], band["second_slacks"],
                               rtol=0, atol=1e-4)


def test_optimality_check_flags_non_minimizer(mixed_23):
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=((0.2, 0.5), (0.5, 0.5)))
    q = mu.moment(2)
    sh = mixed_23.shift(q)
    bad = OrderParameter.from_atoms((0.0, sh.horizon),
                                    [(0.6 * sh.horizon, 1.0)])
    cert = optimality_check(sh, mu, bad)
    assert cert["first_residual"] > 1e-3


def test_fixed_point_characterization():
    # at zeta_0, the pair (0, zeta_0) minimizes P_bar^{v_{zeta_0}}
    model = sk_model(0.5, convention="half")
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=((0.1, 0.6), (0.4, 0.4)))
    res = tap_correction(model, mu, r_atoms=2, with_representation=False,
                         with_certificate=False)
    sh = model.shift(res.q)
    zb0 = band_coords(res.minimizer_zeta)
    ev = EffectiveField(sh, zb0)
    base = band_functional(sh, mu, ev, 0.0, zb0, field=ev)
    H = sh.horizon
    rng = np.random.default_rng(3)
    for lam in (-0.5, 0.0, 0.4):
        for _ in range(3):
            zb = random_zeta(rng, (0.0, H), 2)
            assert band_functional(sh, mu, ev, lam, zb, field=ev) \
                >= base - 1e-8


def test_tap_correction_is_infimum(mixed_23, rng):
    # the returned value undercuts every order parameter we throw at it
    mu = random_mu(rng, 3)
    res = tap_correction(mixed_23, mu, r_atoms=2, with_representation=False,
                         with_certificate=False)
    for _ in range(5):
        zeta = random_zeta(rng, (res.q, 1.0), int(rng.integers(1, 4)))
        assert res.value <= tap_with_zeta(mixed_23, mu, zeta) + 1e-9


def test_effective_field_divergence(mixed_23):
    sh = mixed_23.shift(0.2)
    zb = OrderParameter.delta_at(0.0, (0.0, sh.horizon))
    ev = effective_field(sh, zb)
    assert ev(0.999) > ev(0.9) + 1.0     # blows up toward a = 1


def test_restrict_zeta():
    zeta = OrderParameter.from_atoms((0.0, 1.0), [(0.1, 0.4), (0.6, 0.6)])
    r = restrict_zeta(zeta, 0.3)
    assert r.interval == (0.3, 1.0)
    assert r.measure.atoms == ((0.3, 0.4), (0.6, 0.6))
    ext = restrict_zeta(OrderParameter.from_atoms((0.5, 1.0), [(0.7, 1.0)]),
                        0.2)
    assert ext.interval == (0.2, 1.0)
    assert ext.cdf(0.6) == 0.0


def test_atom_near_one_matches_classical():
    # an atom 1e-8 below the boundary needs the slope pad on every solve of
    # the optimizer; an atom at 1 enters the optimizer's value and gradient
    # as its mass times (1/2) int xi'' zeta. RS instances, so the closed
    # form is the oracle
    for beta, top in ((0.3, 0.99999999), (0.5, 1.0)):
        model = sk_model(beta)
        mu = DiscreteMeasure(interval=(0.0, 1.0),
                             atoms=((0.3, 0.5), (top, 0.5)))
        res = tap_correction(model, mu, r_atoms=3)
        assert abs(res.value - classical_tap(model, mu)) < 1e-8
        assert res.diagnostics["converged"]


def test_boundary_atom_gradient_matches_finite_differences():
    # the optimizer's gradient at r = 3 (three levels, two interior nodes)
    # on a law with an atom at 1, against central differences of the value
    model = sk_model(0.5)
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=((0.3, 0.5), (1.0, 0.5)))
    q = mu.moment(2)
    x = np.array([0.2, 0.5, 0.8, q + 0.3 * (1.0 - q), q + 0.6 * (1.0 - q)])

    def evaluate(x):
        levels, nodes = _unpack(x, q)
        return _evaluate(model, mu, nodes, levels, SolverConfig())

    _, sol, starts = evaluate(x)
    grad = _gradient(sol, mu, starts)
    h = 1e-6
    fd = [(evaluate(x + h * e)[0] - evaluate(x - h * e)[0]) / (2.0 * h)
          for e in np.eye(x.size)]
    np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-8)


def test_evaluation_builds_each_layer_once(mixed_23, monkeypatch):
    # the solve sweeps the gradient rows while it builds each layer, so a
    # value and its gradient build each layer of positive width once
    from gtap import pde
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=((0.3, 0.5), (0.6, 0.5)))
    q = mu.moment(2)
    nodes = np.array([q, 0.5, 0.5, 0.8, 1.0])   # [0.5, 0.5) has no width
    levels = np.array([0.2, 0.4, 0.7, 0.9])
    built = []
    init = pde._Layer.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(pde._Layer, "__init__", counting)
    _, sol, starts = _evaluate(mixed_23, mu, nodes, levels, SolverConfig())
    _gradient(sol, mu, starts)
    assert len(built) == 3


@pytest.mark.parametrize("interval, atoms", [
    ((-2.0, 2.0), ((-1.5, 0.5), (1.5, 0.5))),
    ((0.0, 2.0), ((0.3, 0.5), (1.5, 0.5))),
])
def test_law_outside_unit_interval_raises(mixed_23, interval, atoms):
    # no magnetization lies outside [-1, 1]; such a law used to fold to a
    # "value" of 0.0 reported as converged
    mu = DiscreteMeasure(interval=interval, atoms=atoms)
    zeta = OrderParameter.delta_at(1.0, (0.0, 1.0))
    with pytest.raises(ValueError, match="outside"):
        tap_correction(sk_model(1.0), mu)
    with pytest.raises(ValueError, match="outside"):
        tap_with_zeta(mixed_23, mu, zeta)


@pytest.mark.parametrize("r_atoms", [0, -2])
def test_tap_correction_rejects_no_atoms(mixed_23, r_atoms):
    mu = DiscreteMeasure.delta(0.3)
    with pytest.raises(ValueError, match="r_atoms"):
        tap_correction(mixed_23, mu, r_atoms=r_atoms)


def test_tied_levels_stop_is_not_converged():
    # the optimizer stops with z_0 = z_1 and an atom at 1: the node between
    # the tied levels has no derivative, so the projected gradient vanishes
    # although the point is no minimizer
    model = MixedModel(coeffs_sq=(0.0, 0.459, 0.720, 1.156))
    mu = DiscreteMeasure.delta(0.2696)
    res = tap_correction(model, mu, r_atoms=2)
    assert res.diagnostics["stop"] == "tol"
    assert res.diagnostics["certificate"]["first_residual"] > 1e-4
    assert res.diagnostics["converged"] is False
    # witness: moving the atom at 1 to 0.95 lowers the value
    atoms = res.minimizer_zeta.measure.atoms
    assert atoms[-1][0] == 1.0
    moved = OrderParameter.from_atoms(
        res.minimizer_zeta.interval, list(atoms[:-1]) + [(0.95, atoms[-1][1])])
    assert tap_with_zeta(model, mu, moved) < res.value - 1e-3


def test_tap_correction_solution_sweeps_no_gradients(mixed_23):
    # the returned minimizer's solve is a plain solve: only the optimizer's
    # evaluations sweep level gradients
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=((0.3, 0.5), (0.6, 0.5)))
    res = tap_correction(mixed_23, mu, r_atoms=2, with_representation=False)
    with pytest.raises(ValueError, match="solve_steps"):
        res.solution.level_gradients()


def test_every_swept_solve_is_read_once(mixed_23, monkeypatch):
    from gtap import pde
    swept, reads = [], []
    init, grads = pde.PDESolution.__init__, pde.PDESolution.level_gradients

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if kwargs.get("with_gradients"):
            swept.append(self)

    def counting_grads(self):
        reads.append(self)
        return grads(self)

    monkeypatch.setattr(pde.PDESolution, "__init__", counting_init)
    monkeypatch.setattr(pde.PDESolution, "level_gradients", counting_grads)
    mu = DiscreteMeasure(interval=(0.0, 1.0),
                         atoms=((0.3, 0.4), (0.6, 0.4), (1.0, 0.2)))
    res = tap_correction(mixed_23, mu, r_atoms=3)
    assert len(swept) == res.diagnostics["level_evals"]
    assert [id(s) for s in reads] == [id(s) for s in swept]
    swept.clear()
    q, zeta = res.q, res.minimizer_zeta
    tap_with_zeta(mixed_23, mu, zeta)
    lambda_conj(mixed_23, q, 0.5, zeta)
    psi_bar(mixed_23, q, 0.5, zeta)
    psi(mixed_23, q, 0.5, zeta)
    assert swept == []


def test_zeta_that_stops_short_of_one_is_refused(mixed_23):
    # the PDE would be solved on [q, 0.8] only and give a wrong value
    mu = DiscreteMeasure.delta(0.3)
    q = mu.moment(2)
    short = OrderParameter.delta_at(0.8, (0.0, 0.8))
    calls = (lambda z: tap_with_zeta(mixed_23, mu, z),
             lambda z: lambda_conj(mixed_23, q, 0.5, z),
             lambda z: psi_bar(mixed_23, q, 0.5, z),
             lambda z: psi(mixed_23, q, 0.5, z))
    for call in calls:
        with pytest.raises(ValueError, match="end at 1"):
            call(short)
    # a zeta starting above q is extended by zero on [q, 0.5)
    late = OrderParameter.delta_at(0.7, (0.5, 1.0))
    full = OrderParameter.delta_at(0.7, (0.0, 1.0))
    for call in calls:
        assert call(late) == call(full)


def test_swept_and_plain_solves_give_the_same_value(mixed_23):
    mu = DiscreteMeasure(interval=(0.0, 1.0),
                         atoms=((0.3, 0.4), (0.6, 0.4), (1.0, 0.2)))
    zeta = OrderParameter.from_atoms((0.0, 1.0), [(0.7, 0.6), (1.0, 0.4)])
    zq = restrict_zeta(zeta, mu.moment(2))
    assert zq.levels[0] == 0.0
    val = _evaluate(mixed_23, mu, zq.nodes, zq.levels, SolverConfig())[0]
    assert val == tap_with_zeta(mixed_23, mu, zeta)


def _count_solves(monkeypatch):
    built = []
    init = pde.PDESolution.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(pde.PDESolution, "__init__", counting)
    return built


def test_lambda_at_boundary_atom_solves_nothing(monkeypatch):
    # the closed form (1/2) int_q^1 xi'' zeta reads no grid: without `sol`
    # it equals, bit for bit, the value read off a solve, and builds none
    model, q = sk_model(1.0), 0.3
    zeta = OrderParameter.from_atoms((q, 1.0), [(0.5, 0.5), (1.0, 0.5)])
    sol = solve(model, zeta)
    built = _count_solves(monkeypatch)
    for a in (1.0 - 5e-10, 1.0, -1.0):
        lam, x_star = lambda_conj(model, q, a, zeta)
        assert (lam, x_star) == lambda_conj(model, q, a, zeta, sol=sol)
        assert x_star == math.copysign(math.inf, a)
    assert built == []


def test_psi_bar_follows_the_conjugate_boundary_rule(monkeypatch):
    # at 1 - 5e-10 Phi_x = a is ill-conditioned (it gave 11.50): psi_bar
    # takes the same signed-inf limit as lambda_conj, without a solve
    model, q = sk_model(1.0), 0.3
    zeta = OrderParameter.from_atoms((q, 1.0), [(0.5, 0.5), (1.0, 0.5)])
    built = _count_solves(monkeypatch)
    for a in (1.0 - 5e-10, -(1.0 - 5e-10)):
        assert psi_bar(model, q, a, zeta) == lambda_conj(model, q, a, zeta)[1]
        assert psi_bar(model, q, a, zeta) == math.copysign(math.inf, a)
    assert built == []
    with pytest.raises(ValueError, match="psi_bar"):
        psi_bar(model, q, 1.0, zeta)


def test_psi_at_boundary_atom_solves_nothing(monkeypatch):
    # psi = psi_bar + a int xi'' zeta is +-inf at the boundary, as psi_bar
    # is, so it needs no grid (it built a 2,869-point solve)
    model, q = sk_model(1.0), 0.3
    zeta = OrderParameter.from_atoms((q, 1.0), [(0.5, 0.5), (1.0, 0.5)])
    built = _count_solves(monkeypatch)
    for a in (1.0 - 5e-10, -(1.0 - 5e-10)):
        assert psi(model, q, a, zeta) == math.copysign(math.inf, a)
    assert built == []


def _rs_draws(rng, n):
    """n (model, law) pairs the shortcut certifies RS; every third law has
    a fifth of its mass at 1."""
    draws = []
    while len(draws) < n:
        model = random_model(rng)
        mu = random_mu(rng, int(rng.integers(1, 5)))
        if len(draws) % 3 == 0:
            mu = DiscreteMeasure(mu.interval, tuple(
                (x, 0.8 * w) for x, w in mu.atoms) + ((1.0, 0.2),))
        if tap._rs_certified(model, mu, mu.moment(2))[0]:
            draws.append((model, mu))
    return draws


def test_rs_shortcut_matches_the_optimizer_bit_for_bit(monkeypatch):
    # the optimizer, forced by switching the RS check off, ends on the same
    # plain solve of delta_q: same value bits, same minimizer
    draws = _rs_draws(np.random.default_rng(1107), 20)
    short = [tap_correction(model, mu, r_atoms=2, with_representation=False,
                            with_certificate=False) for model, mu in draws]
    monkeypatch.setattr(tap, "_rs_certified", lambda *args: (False, None))
    for (model, mu), res in zip(draws, short):
        full = tap_correction(model, mu, r_atoms=2, with_representation=False,
                              with_certificate=False)
        assert res.diagnostics["stop"] == "rs"
        assert res.diagnostics["level_evals"] == 0
        assert res.diagnostics["rs"].sup_gamma <= -1e-6
        assert full.diagnostics["level_evals"] > 0
        assert res.value == full.value
        assert res.minimizer_zeta == full.minimizer_zeta
        assert res.minimizer_zeta.measure.atoms == ((res.q, 1.0),)
    assert sum(mu.atoms[-1][0] == 1.0 for _, mu in draws) >= 5


def test_rs_shortcut_reports_certificate_and_representation():
    model = sk_model(0.5, convention="half")
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=((0.1, 0.6), (0.4, 0.4)))
    res = tap_correction(model, mu, r_atoms=2)
    assert res.diagnostics["stop"] == "rs"
    assert res.diagnostics["converged"]
    diag = is_replica_symmetric(model.shift(res.q), mu)
    assert res.diagnostics["rs"] == diag
    assert res.diagnostics["certificate"]["first_residual"] < 1e-7
    assert res.diagnostics["representation_gap"] < 1e-6


@pytest.mark.parametrize("coeffs, mu, has_curve", [
    # sup Gamma = -3.5e-10, inside (-1e-6, 1e-6], with Gamma''(0) = -0.245
    (tuple(1.069238886 * c for c in (0.0, 0.2, 0.0, 1.0)),
     DiscreteMeasure.delta(0.0), True),
    # Gamma''(0) = 0 exactly (xi''(0) = 1 at mu = delta_0): no curve
    ((0.0, 0.5), DiscreteMeasure.delta(0.0), False),
])
def test_rs_margin_goes_through_the_optimizer(coeffs, mu, has_curve):
    model = MixedModel(coeffs_sq=coeffs)
    diag = is_replica_symmetric(model.shift(0.0), mu)
    if has_curve:
        assert -1e-6 < diag.sup_gamma <= 1e-6
        assert diag.gamma_second_deriv_at_0 < -1e-6
    else:
        assert -1e-6 < diag.gamma_second_deriv_at_0 <= 0.0
    res = tap_correction(model, mu, r_atoms=2, with_representation=False,
                         with_certificate=False)
    assert res.diagnostics["stop"] != "rs"
    assert res.diagnostics["level_evals"] > 0
    assert ("rs" in res.diagnostics) == has_curve

"""Acceptance suite: one test per criterion, each printing a verdict line.

Tolerances are fixed here, not calibrated: closed forms and exact
inequalities at machine-ish precision, PDE cross-identities at 1e-6..1e-8,
Monte-Carlo identities within 3 standard errors, finite-difference checks at
their stated bounds. Runtime limits are asserted where stated.
"""

import math
import time

import numpy as np
from gtap import cascades, disorder, rs
from gtap.measures import DiscreteMeasure, OrderParameter, band_coords, d1
from gtap.model import MixedModel, sk_model
from gtap.pde import (second_derivative_identity, solve, solve_band, unify)
from gtap.tap import (band_functional, band_representation, effective_field,
                      lambda_conj, tap_correction)

from conftest import random_model, random_mu, random_zeta


def verdict(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_band_closed_form():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(5):
        model = random_model(rng)
        q = float(rng.uniform(0.05, 0.7))
        a = float(rng.uniform(-0.9, 0.9))
        sh = model.shift(q)
        zb = OrderParameter.delta_at(0.0, (0.0, sh.horizon))
        sol = solve_band(sh, a, zb)
        xs = np.linspace(-5, 5, 101)
        t2 = np.asarray(sh.xi_q_prime(sh.horizon) - sh.xi_q_prime(0.0))
        closed = 0.5 * (1 + a * a) * t2 - a * xs \
            + np.log(2 * np.cosh(xs - a * t2))
        worst = max(worst, float(np.max(np.abs(sol.phi(0.0, xs) - closed))))
    elapsed = time.time() - t0
    verdict(1, worst <= 1e-6 and elapsed < 10.0,
            f"sup|solver - closed form| = {worst:.2e} over 5 draws "
            f"({elapsed:.1f}s)")


def test_criterion_02_pde_unification():
    rng = np.random.default_rng(202)
    t0 = time.time()
    worst = 0.0
    for _ in range(10):
        model = random_model(rng)
        q = float(rng.uniform(0.05, 0.6))
        a = float(rng.uniform(-0.85, 0.85))
        zeta = random_zeta(rng, (q, 1.0), int(rng.integers(1, 4)))
        x = float(rng.uniform(-3, 3))
        lhs = float(unify(solve(model, zeta), a, x))
        rhs = float(solve_band(model.shift(q), a,
                               band_coords(zeta)).phi(0.0, x))
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.time() - t0
    verdict(2, worst <= 1e-6 and elapsed < 30.0,
            f"max unification mismatch = {worst:.2e} over 10 draws "
            f"({elapsed:.1f}s)")


def test_criterion_03_conjugacy_suite():
    rng = np.random.default_rng(303)
    model = MixedModel(coeffs_sq=(0.0, 0.6, 0.2))
    q = 0.25
    zeta = random_zeta(rng, (q, 1.0), 2)
    sol = solve(model, zeta)
    err_zero = abs(lambda_conj(model, q, 0.0, zeta)[0]
                   - float(sol.phi(q, 0.0)))
    # boundary slopes against the independent grid infimum
    err_bd = 0.0
    for a in (-1.0, 1.0):
        lam, _ = lambda_conj(model, q, a, zeta)
        grid_inf = float(np.min(sol.phi(q, sol.x_grid) - a * sol.x_grid))
        err_bd = max(err_bd, abs(grid_inf - lam))
    grid = np.linspace(-0.9, 0.9, 19)
    vals = np.array([lambda_conj(model, q, float(a), zeta)[0]
                     for a in grid])
    err_even = float(np.max(np.abs(vals - vals[::-1])))
    max_second = float(np.max(np.diff(vals, 2)))
    ok = err_zero <= 1e-8 and err_bd <= 1e-6 and err_even <= 1e-10 \
        and max_second <= 1e-8
    verdict(3, ok,
            f"|L(0)-Phi(q,0)|={err_zero:.1e}, boundary={err_bd:.1e}, "
            f"evenness={err_even:.1e}, second diffs<={max_second:.1e}")


def test_criterion_04_effective_field():
    model = MixedModel(coeffs_sq=(0.0, 0.5, 0.3))
    q = 0.2
    sh = model.shift(q)
    zb = OrderParameter.from_atoms((0.0, sh.horizon),
                                   [(0.0, 0.5), (0.6 * sh.horizon, 0.5)])
    ev = effective_field(sh, zb)
    grid = np.arange(0.0, 1.0, 0.1)
    vals = [ev(float(a)) for a in grid]
    residual = max(abs(float(ev.solution_for(float(a)).phi_x(0.0, ev(float(a)))))
                   for a in grid[1:])
    increasing = bool(np.all(np.diff(vals) > 0))
    v0 = abs(vals[0])
    zb_rs = OrderParameter.delta_at(0.0, (0.0, sh.horizon))
    ev_rs = effective_field(sh, zb_rs)
    err_rs = max(abs(ev_rs(float(a)) - rs.v_rs(sh, float(a)))
                 for a in grid[1:])
    ok = residual <= 1e-8 and increasing and v0 <= 1e-10 and err_rs <= 1e-8
    verdict(4, ok,
            f"residual={residual:.1e}, increasing={increasing}, "
            f"v(0)={v0:.1e}, RS closed form err={err_rs:.1e}")


def test_criterion_05_rs_equivalence():
    instances = [
        (sk_model(0.75, convention="half"),
         DiscreteMeasure(interval=(0, 1), atoms=((0.1, 0.5), (0.3, 0.5)))),
        (sk_model(0.7, convention="half"),
         DiscreteMeasure.delta(0.0, interval=(0.0, 1.0))),
        (MixedModel(coeffs_sq=(0.0, 0.25, 0.15)),
         DiscreteMeasure(interval=(0, 1), atoms=((0.2, 0.4), (0.45, 0.6)))),
    ]
    worst_gap, worst_d1 = 0.0, 0.0
    for model, mu in instances:
        q = mu.moment(2)
        sh = model.shift(q)
        grid = sh.horizon * np.linspace(0.15, 1.0, 16)
        curve = rs.big_gamma_curve(sh, mu, grid)
        assert np.max(curve) <= -1e-3, "instance not certified RS"
        res = tap_correction(model, mu, r_atoms=2)
        gap = abs(res.value - rs.classical_tap(model, mu))
        dd = d1(res.minimizer_zeta.measure,
                DiscreteMeasure.delta(q, interval=(q, 1.0)))
        worst_gap, worst_d1 = max(worst_gap, gap), max(worst_d1, dd)
    verdict(5, worst_gap <= 1e-3 and worst_d1 <= 1e-2,
            f"|TAP - classical| <= {worst_gap:.2e}, "
            f"d1(minimizer, delta_q) <= {worst_d1:.2e} on 3 certified instances")


def test_criterion_06_plefka_link():
    pairs = [
        (0.6, ((0.0, 1.0),)),
        (0.9, ((0.2, 0.5), (0.4, 0.5))),
        (1.1, ((0.1, 0.3), (0.5, 0.7))),
        (0.5, ((0.3, 1.0),)),
        (1.3, ((0.0, 0.6), (0.6, 0.4))),
    ]
    worst = 0.0
    for beta, atoms in pairs:
        model = sk_model(beta, convention="half")
        mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=atoms)
        sh = model.shift(mu.moment(2))
        fd = rs.gamma_second_derivative_fd(sh, mu)
        formula = beta ** 2 * (beta ** 2 * sum(w * (1 - a * a) ** 2
                                               for a, w in atoms) - 1.0)
        worst = max(worst, abs(fd - formula))
    # constructed Plefka-violating magnetization law
    model = sk_model(1.3, convention="half")
    mu0 = DiscreteMeasure.delta(0.0, interval=(0.0, 1.0))
    assert rs.plefka(mu0, 1.3)[1] > 1.0
    diag = rs.is_replica_symmetric(model.shift(0.0), mu0)
    verdict(6, worst <= 1e-4 and diag.sup_gamma > 0.0,
            f"max |FD - formula| = {worst:.2e}; violating instance "
            f"sup Gamma = {diag.sup_gamma:.2e} > 0")


def test_criterion_07_gradient_theorem():
    from gtap.measures import empirical
    t0 = time.time()
    model = MixedModel(coeffs_sq=(0.0, 0.35, 0.15))
    rng = np.random.default_rng(707)
    N = 6
    worst = 0.0
    for _ in range(5):
        m = rng.uniform(-0.7, 0.7, size=N)
        v = rng.standard_normal(N)
        v /= np.linalg.norm(v)
        g, _ = disorder.grad_tap(model, m, r_atoms=2)
        eps = 1e-3

        def tap_value(mv):
            return tap_correction(model, empirical(mv, fold=True),
                                  r_atoms=2).value

        fd = (tap_value(m + eps * v) - tap_value(m - eps * v)) / (2 * eps)
        an = float(g @ v)
        worst = max(worst, abs(fd - an) / max(abs(an), 1e-10))
    elapsed = time.time() - t0
    verdict(7, worst <= 1e-2 and elapsed < 300.0,
            f"max relative FD error = {worst:.2e} over 5 directions "
            f"({elapsed:.0f}s)")


def test_criterion_08_sde_identity():
    configs = [
        (sk_model(1.0, convention="full"), 0.2,
         [(0.2, 0.4), (0.6, 0.6)], 0.5),
        (MixedModel(coeffs_sq=(0.0, 0.5, 0.3)), 0.3,
         [(0.45, 0.7), (0.8, 0.3)], -0.8),
        (MixedModel(coeffs_sq=(0.0, 0.7)), 0.1,
         [(1.0, 1.0)], 0.0),               # CDF == 0: pure diffusion
    ]
    worst_sigma = 0.0
    details = []
    for model, q, atoms, x0 in configs:
        zeta = OrderParameter.from_atoms((q, 1.0), atoms)
        sol = solve(model, zeta)
        out = second_derivative_identity(sol, x0, n_paths=100_000,
                                         seed=808, n_steps=2048)
        worst_sigma = max(worst_sigma, out["n_sigma"])
        details.append(f"{out['n_sigma']:.2f}")
    verdict(8, worst_sigma <= 3.0,
            f"second-derivative identity within {details} sigma (3 configs, "
            f"1e5 paths)")


def test_criterion_09_cascade_identity():
    configs = []
    # r = 1, K = 4000 leaves
    m1 = MixedModel(coeffs_sq=(0.0, 0.6, 0.2))
    mu1 = DiscreteMeasure(interval=(0, 1), atoms=((0.2, 0.5), (0.5, 0.5)))
    configs.append((m1, mu1, [0.2] * 4 + [0.5] * 4,
                    [(0.0, 0.4), (None, 0.6)], 4000, 0.0, None))
    # r = 2, 64 x 64 = 4096 >= 2000 leaves
    m2 = MixedModel(coeffs_sq=(0.0, 0.5))
    mu2 = DiscreteMeasure(interval=(0, 1), atoms=((0.3, 0.5), (0.6, 0.5)))
    configs.append((m2, mu2, [0.3] * 5 + [0.6] * 5,
                    [(0.0, 0.25), (0.5, 0.25), (None, 0.5)], 64, 0.1,
                    lambda a: 0.3 * a))
    # r = 1 with a zero-CDF head piece
    m3 = MixedModel(coeffs_sq=(0.0, 0.8))
    mu3 = DiscreteMeasure.delta(0.3, interval=(0.0, 1.0))
    configs.append((m3, mu3, [0.3] * 6,
                    [(0.4, 0.5), (None, 0.5)], 4000, 0.0, None))
    worst = 0.0
    for model, mu, m_vec, atom_spec, K, lam, v in configs:
        q = mu.moment(2)
        sh = model.shift(q)
        H = sh.horizon
        # atom locations are fractions of the horizon; None marks the end
        atoms = [(H if raw is None else raw * H, w) for raw, w in atom_spec]
        zb = OrderParameter.from_atoms((0.0, H), atoms)
        levels, fnodes = cascades.zeta_to_cascade_params(zb, sh.xi_q_prime)
        casc = cascades.sample_cascade(levels, K, seed=909)
        est = cascades.psi_full(casc, fnodes, m_vec, lam=lam, v=v,
                                n_reps=240, seed=910)
        vv = v if v is not None else (lambda a: 0.0)
        target = band_functional(sh, mu, vv, lam, zb) \
            + 0.5 * zb.integral_against(sh.theta_q)
        worst = max(worst, abs(est["mean"] - target) / est["se"])
    # closed-form cascade functional
    f = MixedModel(coeffs_sq=(0.0, 0.9))
    zb = OrderParameter.from_atoms((0.0, 1.0), [(0.0, 0.5), (1.0, 0.5)])
    levels, _ = cascades.zeta_to_cascade_params(zb, f.theta)
    casc = cascades.sample_cascade(levels, 4000, seed=911)
    ups_mc = cascades.upsilon_mc(casc, f, zb, n_reps=500, seed=912)
    ups_sigma = abs(ups_mc["mean"] - cascades.upsilon(f, zb)) / ups_mc["se"]
    verdict(9, worst <= 3.0 and ups_sigma <= 3.0,
            f"cascade/PDE within {worst:.2f} sigma (3 configs), "
            f"closed form within {ups_sigma:.2f} sigma")


def test_criterion_10_small_n_exact_chain():
    model = sk_model(1.0, convention="half")
    rng = np.random.default_rng(1010)
    N = 12
    n_viol = 0
    worst_slack = math.inf
    for draw in range(50):
        smpl = disorder.sample(N, model, seed=5000 + draw)
        for _ in range(10):
            m = rng.uniform(-0.9, 0.9, N)
            band = disorder.BandSpec(tuple(m), eps=0.2, delta=0.2, n=2)
            ch = disorder.chain_values(smpl, band)
            worst_slack = min(worst_slack, ch["chain_1"], ch["chain_2"])
            if ch["chain_1"] < 0 or ch["chain_2"] < 0:
                n_viol += 1
    verdict(10, n_viol == 0,
            f"chain F_N >= H/N + TAP_1 >= H/N + TAP_2 exact on 500 cases "
            f"(min slack {worst_slack:.3e})")


def test_criterion_11_concentration():
    model = sk_model(1.0, convention="half")
    N = 12
    rng = np.random.default_rng(1111)
    m = rng.uniform(-0.8, 0.8, N)
    band = disorder.BandSpec(tuple(m), eps=0.2, delta=0.2, n=2)
    out = disorder.concentration_experiment(model, N, band, n_draws=200,
                                            seed=7000,
                                            thresholds=(0.05, 0.1))
    failures = sum(0 if row["ok"] else 1 for row in out["tails"])
    detail = ", ".join(f"t={row['t']}: emp={row['empirical']:.3f} <= "
                       f"bound={row['bound']:.3f}" for row in out["tails"])
    verdict(11, failures <= 1, detail + " (one cell of slack allowed)")


def test_criterion_12_tap_fixed_points():
    model = sk_model(0.3, h=0.6, convention="half")
    N = 10
    worst_res, worst_stat = 0.0, 0.0
    for seed in (9, 19, 29):
        smpl = disorder.sample(N, model, seed=seed)
        rng = np.random.default_rng(seed)
        m0 = rng.uniform(-0.3, 0.3, N)
        m_free, q_hat, _, info_free = disorder.classical_tap_iteration(
            smpl, m0, damping=0.5)
        assert info_free["converged"]
        zeta = OrderParameter.delta_at(q_hat, (q_hat, 1.0))
        m, res, info = disorder.solve_tap_equations(smpl, q_hat, zeta,
                                                    m_free, damping=0.5)
        grad, _ = disorder.grad_tap(model, m, r_atoms=2)
        stat = float(np.max(np.abs(smpl.gradient(m) / N + grad)))
        worst_res, worst_stat = max(worst_res, res), max(worst_stat, stat)
    # trivial zero-disorder fixed point, exactly
    z = disorder.sample(6, MixedModel(coeffs_sq=(0.0,)), seed=0)
    zeta0 = OrderParameter.delta_at(0.0, (0.0, 1.0))
    mz, rz, _ = disorder.solve_tap_equations(z, 0.0, zeta0, np.zeros(6))
    trivial_ok = bool(np.all(mz == 0.0) and rz == 0.0)
    verdict(12, worst_res <= 1e-6 and worst_stat <= 1e-4 and trivial_ok,
            f"residual <= {worst_res:.1e}, stationarity <= {worst_stat:.1e}, "
            f"zero-disorder exact: {trivial_ok}")


def test_criterion_13_representation_equivalence():
    rng = np.random.default_rng(1313)
    model = MixedModel(coeffs_sq=(0.0, 0.3, 0.2))
    worst_gap, worst_dval, worst_d1v = 0.0, 0.0, 0.0
    for _ in range(5):
        mu = random_mu(rng, int(rng.integers(2, 5)))
        res = tap_correction(model, mu, r_atoms=2, seed=None)
        worst_gap = max(worst_gap,
                        abs(band_representation(model, mu, res) - res.value))
        runs = [tap_correction(model, mu, r_atoms=2, seed=s)
                for s in (rng.integers(2 ** 30), rng.integers(2 ** 30))]
        worst_dval = max(worst_dval, abs(runs[0].value - runs[1].value))
        worst_d1v = max(worst_d1v, d1(runs[0].minimizer_zeta.measure,
                                      runs[1].minimizer_zeta.measure))
    ok = worst_gap <= 1e-4 and worst_dval <= 1e-6 and worst_d1v <= 1e-3
    verdict(13, ok,
            f"representation gap <= {worst_gap:.2e}, init agreement: "
            f"values within {worst_dval:.2e}, d1 within {worst_d1v:.2e}")

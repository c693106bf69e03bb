import math

import numpy as np
import pytest

from gtap.cascades import (psi_band, psi_full, sample_cascade,
                           sample_tree_field, upsilon, upsilon_mc,
                           zeta_to_cascade_params)
from gtap.measures import DiscreteMeasure, OrderParameter
from gtap.model import MixedModel, pure_p_model
from gtap.numerics import logsumexp
from gtap.tap import band_functional


def test_weights_normalized_and_deterministic():
    c1 = sample_cascade([0.5], 2000, seed=3)
    c2 = sample_cascade([0.5], 2000, seed=3)
    assert c1.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(c1.weights, c2.weights)
    assert c1.n_leaves == 2000


@pytest.mark.parametrize("K", [512, 2000, 4000, 20000])
@pytest.mark.parametrize("level", [0.4, 0.6, 0.9])
def test_coverage_sums_every_kept_term(level, K):
    # the kept weights are the K terms k^{-1/l}, summed here directly; the
    # tail beyond K is the integral of x^{-1/l} from K
    head = math.fsum(k ** (-1.0 / level) for k in range(1, K + 1))
    tail = K ** (1.0 - 1.0 / level) / (1.0 / level - 1.0)
    coverage = sample_cascade([level], K, seed=0).coverage[0]
    assert coverage == pytest.approx(head / (head + tail), rel=1e-14, abs=0)


def test_leaf_weights_match_one_node_after_another(monkeypatch):
    # each level's points are drawn for all its nodes at once; the weights
    # and the generator's state are those of one node's K points after
    # another's
    levels, K, seed = (0.3, 0.7), 64, 17
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda s: made.append(default_rng(s)) or made[-1])
    weights = sample_cascade(levels, K, seed=seed).weights
    monkeypatch.undo()
    rng = np.random.default_rng(seed)
    w = np.array([1.0])
    for level in levels:
        pts = []
        for _ in range(w.size):
            pts.append(np.cumsum(rng.exponential(size=K)) ** (-1.0 / level))
        w = (w[:, None] * np.stack(pts)).ravel()
    assert np.array_equal(weights, w / w.sum())
    assert len(made) == 1 and made[0].random() == rng.random()


def test_level_validation():
    with pytest.raises(ValueError):
        sample_cascade([0.0], 10, seed=0)
    with pytest.raises(ValueError):
        sample_cascade([0.7, 0.3], 10, seed=0)
    with pytest.raises(ValueError):
        sample_cascade([0.5], 1, seed=0)


def test_weights_flatten_as_level_grows():
    # PD(l) mass spreads out as l -> 1: the top weight shrinks
    tops = []
    for level in (0.2, 0.5, 0.8):
        c = sample_cascade([level], 3000, seed=11)
        tops.append(float(np.max(c.weights)))
    assert tops[0] > tops[1] > tops[2]


def test_tree_field_covariance():
    levels = [0.3, 0.6]
    c = sample_cascade(levels, (40, 40), seed=5)
    fnodes = [0.0, 0.7, 1.5]
    rng = np.random.default_rng(8)
    g = sample_tree_field(c, fnodes, 3000, rng)
    # variance of a leaf
    v = g[:, 0].var()
    se = math.sqrt(2.0 / 3000) * fnodes[-1]
    assert abs(v - fnodes[-1]) <= 4 * se
    # covariance of two leaves sharing the first branch only
    cov = np.mean(g[:, 0] * g[:, 1 * 40 - 1])   # same depth-1 parent
    cov_far = np.mean(g[:, 0] * g[:, -1])       # different depth-1 parents
    assert abs(cov - 0.7) <= 0.1
    assert abs(cov_far - 0.0) <= 0.1


def test_zeta_to_cascade_params():
    f = lambda s: 2.0 * np.asarray(s)            # f' linear in s
    # head run of CDF 0 becomes shared trunk variance
    zb = OrderParameter.from_atoms((0.0, 1.0), [(0.4, 0.5), (1.0, 0.5)])
    levels, nodes = zeta_to_cascade_params(zb, f)
    assert levels == [0.5]
    assert nodes == [0.8, 2.0]
    # CDF hitting 1 before the endpoint cannot be represented
    zb2 = OrderParameter.from_atoms((0.0, 1.0), [(0.4, 1.0)])
    with pytest.raises(ValueError):
        zeta_to_cascade_params(zb2, f)
    # pure delta at the right end: no branching at all
    zb3 = OrderParameter.delta_at(1.0, (0.0, 1.0))
    levels, nodes = zeta_to_cascade_params(zb3, f)
    assert levels == [] and nodes == [2.0]


def test_psi_full_zero_variance_field():
    # f' == 0: the cascade collapses and the value is deterministic
    m = np.array([0.2, -0.4, 0.5])
    lam, vfun = 0.3, (lambda a: 0.1)
    c = sample_cascade([0.5], 50, seed=2)
    out = psi_full(c, [0.0, 0.0], m, lam=lam, v=vfun, n_reps=5, seed=3)
    shifts = lam * m + 0.1
    site = np.log(2 * np.cosh(shifts)) - m * shifts
    assert out["mean"] == pytest.approx(float(np.mean(site)), abs=1e-12)
    assert out["se"] == pytest.approx(0.0, abs=1e-12)


def test_psi_full_matches_band_pde():
    model = MixedModel(coeffs_sq=(0.0, 0.6, 0.2))
    mu = DiscreteMeasure(interval=(0, 1), atoms=((0.2, 0.5), (0.5, 0.5)))
    q = mu.moment(2)
    sh = model.shift(q)
    H = sh.horizon
    zb = OrderParameter.from_atoms((0.0, H), [(0.0, 0.4), (H, 0.6)])
    levels, fnodes = zeta_to_cascade_params(zb, sh.xi_q_prime)
    c = sample_cascade(levels, 4000, seed=7)
    m_vec = [0.2] * 4 + [0.5] * 4
    est = psi_full(c, fnodes, m_vec, n_reps=150, seed=11)
    target = band_functional(sh, mu, lambda a: 0.0, 0.0, zb) \
        + 0.5 * zb.integral_against(sh.theta_q)
    assert abs(est["mean"] - target) <= 3 * est["se"]


def test_psi_full_delta_zero_is_pde_value():
    model = MixedModel(coeffs_sq=(0.0, 0.8))
    sh = model.shift(0.0)
    zb = OrderParameter.from_atoms((0.0, 1.0), [(0.0, 0.5), (1.0, 0.5)])
    levels, fnodes = zeta_to_cascade_params(zb, sh.xi_q_prime)
    c = sample_cascade(levels, 4000, seed=9)
    est = psi_full(c, fnodes, np.zeros(6), n_reps=150, seed=13)
    from gtap.pde import solve_band
    target = float(solve_band(sh, 0.0, zb).phi(0.0, 0.0))
    assert abs(est["mean"] - target) <= 3 * est["se"]


def test_upsilon_closed_form():
    f = pure_p_model(2)                       # f'' = 2
    zb = OrderParameter.from_atoms((0.0, 1.0), [(0.4, 0.5), (1.0, 0.5)])
    # (1/2) int zeta s f'' ds = 0.5 * 0.5 * (1 - 0.16) = 0.21
    assert upsilon(f, zb) == pytest.approx(0.21, abs=1e-14)
    # CDF identically 0 on [0, 1): zero integral
    zb0 = OrderParameter.delta_at(1.0, (0.0, 1.0))
    assert upsilon(f, zb0) == 0.0


def test_upsilon_mc_matches_closed_form():
    f = pure_p_model(2)
    zb = OrderParameter.from_atoms((0.0, 1.0), [(0.0, 0.5), (1.0, 0.5)])
    levels, _ = zeta_to_cascade_params(zb, f.theta)
    c = sample_cascade(levels, 4000, seed=19)
    out = upsilon_mc(c, f, zb, n_reps=500, seed=23)
    assert abs(out["mean"] - upsilon(f, zb)) <= 3 * out["se"]


def test_upsilon_mc_level_mismatch_rejected():
    f = pure_p_model(2)
    zb = OrderParameter.from_atoms((0.0, 1.0), [(0.0, 0.5), (1.0, 0.5)])
    c = sample_cascade([0.7], 100, seed=1)
    with pytest.raises(ValueError):
        upsilon_mc(c, f, zb)


def test_psi_band_covers_cube_matches_factorized():
    # with eps beyond the overlap range the band is the whole cube and the
    # enumerated functional equals the factorized one replicate by replicate
    model = MixedModel(coeffs_sq=(0.0, 0.6))
    sh = model.shift(0.0)
    zb = OrderParameter.from_atoms((0.0, 1.0), [(0.0, 0.5), (1.0, 0.5)])
    levels, fnodes = zeta_to_cascade_params(zb, sh.xi_q_prime)
    c = sample_cascade(levels, 300, seed=41)
    m = np.array([0.3, -0.2, 0.1, 0.4, 0.0, 0.2])
    a = psi_band(c, fnodes, m, eps=3.0, n_reps=12, seed=55)
    b = psi_full(c, fnodes, m, n_reps=12, seed=55)
    assert a["mean"] == pytest.approx(b["mean"], abs=1e-10)
    assert a["band_size"] == 64


def test_psi_band_restriction_lowers_value():
    model = MixedModel(coeffs_sq=(0.0, 0.6))
    sh = model.shift(0.0)
    zb = OrderParameter.from_atoms((0.0, 1.0), [(0.0, 0.5), (1.0, 0.5)])
    levels, fnodes = zeta_to_cascade_params(zb, sh.xi_q_prime)
    c = sample_cascade(levels, 300, seed=42)
    m = np.full(6, 0.4)
    wide = psi_band(c, fnodes, m, eps=3.0, n_reps=10, seed=57)
    narrow = psi_band(c, fnodes, m, eps=0.3, n_reps=10, seed=57)
    assert narrow["mean"] <= wide["mean"] + 1e-12
    with pytest.raises(ValueError):
        psi_band(c, fnodes, np.zeros(16), eps=0.1)


def test_truncation_monotone_in_K():
    # dropped mass only lowers the log-sum: estimates increase with K
    model = MixedModel(coeffs_sq=(0.0, 0.8))
    sh = model.shift(0.0)
    zb = OrderParameter.from_atoms((0.0, 1.0), [(0.0, 0.6), (1.0, 0.4)])
    levels, fnodes = zeta_to_cascade_params(zb, sh.xi_q_prime)
    m_vec = np.full(4, 0.3)
    means = []
    for K in (50, 400, 4000):
        c = sample_cascade(levels, K, seed=29)
        est = psi_full(c, fnodes, m_vec, n_reps=250, seed=31)
        means.append((est["mean"], est["se"]))
    assert means[0][0] <= means[2][0] + 3 * (means[0][1] + means[2][1])
    assert sample_cascade(levels, 50, seed=29).coverage[0] < \
        sample_cascade(levels, 4000, seed=29).coverage[0]


def test_replicates_skip_the_coverage_estimate(monkeypatch):
    # each replicate redraws only the weights; the coverage of a cascade it
    # never returns is not computed, and the draws are those of
    # sample_cascade at the replicate's seed
    from gtap import cascades
    f = MixedModel(coeffs_sq=(0.0, 0.9))
    zb = OrderParameter.from_atoms((0.0, 1.0), [(0.0, 0.5), (1.0, 0.5)])
    levels, theta_nodes = zeta_to_cascade_params(zb, f.theta)
    c = sample_cascade(levels, 300, seed=19)
    calls = []
    estimate = cascades._coverage_estimate
    monkeypatch.setattr(cascades, "_coverage_estimate",
                        lambda *a: calls.append(a) or estimate(*a))
    out = upsilon_mc(c, f, zb, n_reps=50, seed=23)
    assert calls == []
    monkeypatch.undo()
    rng = np.random.default_rng(23)
    vals = []
    for _ in range(50):
        c_rep = sample_cascade(levels, 300, seed=int(rng.integers(2 ** 62)))
        g = sample_tree_field(c_rep, theta_nodes, 1, rng)
        vals.append(float(logsumexp(np.log(c_rep.weights) + g[0])))
    assert out["mean"] == float(np.mean(vals))


def test_single_replicate_is_refused():
    # one replicate has no standard error; 0.0 would make a 3-sigma check
    # demand exact equality
    f = pure_p_model(2)
    zb = OrderParameter.from_atoms((0.0, 1.0), [(0.0, 0.5), (1.0, 0.5)])
    levels, fnodes = zeta_to_cascade_params(zb, f.theta)
    c = sample_cascade(levels, 200, seed=19)
    with pytest.raises(ValueError, match="2 replicates"):
        psi_full(c, fnodes, np.full(3, 0.2), n_reps=1)
    with pytest.raises(ValueError, match="2 replicates"):
        upsilon_mc(c, f, zb, n_reps=1)


@pytest.mark.parametrize("call, message", [
    (lambda: sample_cascade([0.3, 0.6], [10], seed=0),
     "one truncation per level"),
    (lambda: sample_tree_field(sample_cascade([0.5], 10), [0.1], 2,
                               np.random.default_rng(0)),
     r"f' at r\+1 nodes"),
    (lambda: sample_tree_field(sample_cascade([0.5], 10), [0.5, 0.2], 2,
                               np.random.default_rng(0)),
     "f' must be nondecreasing"),
    # 0.3 (sum sigma) - 0.36 never comes within 1e-3 of 0
    (lambda: psi_band(sample_cascade([0.5], 10), [0.1, 0.5], [0.3] * 4,
                      1e-3), "empty band"),
], ids=["truncation_count", "fprime_count", "fprime_decreasing",
        "empty_band"])
def test_documented_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()

import numpy as np
import pytest

from gtap.measures import (DiscreteMeasure, OrderParameter, d1, empirical,
                           fold_law, shift_theta, split_boundary)


def delta(x):
    return DiscreteMeasure.delta(x, interval=(0.0, 1.0))


def test_d1_point_masses():
    assert d1(delta(0.0), delta(1.0)) == pytest.approx(1.0, abs=1e-15)
    mix = DiscreteMeasure(interval=(0, 1), atoms=((0.0, 0.5), (1.0, 0.5)))
    assert d1(delta(0.0), mix) == pytest.approx(0.5, abs=1e-15)
    assert d1(mix, mix) == 0.0


def test_d1_interval_mismatch():
    a = DiscreteMeasure(interval=(0, 1), atoms=((0.5, 1.0),))
    b = DiscreteMeasure(interval=(0, 2), atoms=((0.5, 1.0),))
    with pytest.raises(ValueError):
        d1(a, b)


def test_moments():
    mix = DiscreteMeasure(interval=(0, 1), atoms=((0.0, 0.5), (1.0, 0.5)))
    assert mix.moment(2) == pytest.approx(0.5)
    assert delta(0.3).moment(2) == pytest.approx(0.09)
    uniform = DiscreteMeasure(
        interval=(0, 1), atoms=tuple((0.1 * k, 1 / 9) for k in range(1, 10)))
    assert uniform.moment(1) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        mix.moment(0)


def test_empirical():
    assert empirical(np.ones(5)).atoms == ((1.0, 1.0),)
    two = empirical([0.0, 1.0])
    assert two.atoms == ((0.0, 0.5), (1.0, 0.5))
    folded = empirical([-0.3, 0.3], fold=True)
    assert folded.atoms == ((0.3, 1.0),)
    with pytest.raises(ValueError):
        empirical([])
    with pytest.raises(ValueError):
        empirical([1.5])


def test_duplicate_merging():
    m = DiscreteMeasure(interval=(0, 1),
                        atoms=((0.5, 0.25), (0.5 + 1e-13, 0.25), (0.9, 0.5)))
    assert len(m.atoms) == 2
    assert m.atoms[0][1] == pytest.approx(0.5)


def test_weight_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(interval=(0, 1), atoms=((0.5, 0.7),))
    with pytest.raises(ValueError):
        DiscreteMeasure(interval=(0, 1), atoms=((0.5, -0.5), (0.6, 1.5)))
    with pytest.raises(ValueError):
        DiscreteMeasure(interval=(0, 1), atoms=((1.5, 1.0),))


def test_shift_operator():
    zeta = OrderParameter.from_atoms((0.0, 1.0), [(0.6, 0.4), (1.0, 0.6)])
    shifted = shift_theta(zeta, 0.5)
    assert shifted.interval == (0.0, 0.5)
    # step at 0.6 with level 0.4 moves to 0.1
    assert shifted.cdf(0.05) == pytest.approx(0.0)
    assert shifted.cdf(0.1) == pytest.approx(0.4)
    # identity at q = 0
    same = shift_theta(zeta, 0.0)
    assert d1(same.measure, zeta.measure) == pytest.approx(0.0, abs=1e-15)
    # delta_1: CDF 0 on [0, 1) shifts to CDF 0 on [0, 0.5)
    z1 = OrderParameter.delta_at(1.0, (0.0, 1.0))
    sh = shift_theta(z1, 0.5)
    assert sh.cdf(0.49) == pytest.approx(0.0)
    assert sh.cdf(0.5) == pytest.approx(1.0)


def test_cdf_right_continuous_and_levels():
    zeta = OrderParameter.from_atoms((0.0, 1.0), [(0.0, 0.3), (0.4, 0.7)])
    assert zeta.cdf(0.0) == pytest.approx(0.3)
    assert zeta.cdf(0.39) == pytest.approx(0.3)
    assert zeta.cdf(0.4) == pytest.approx(1.0)
    assert list(zeta.levels) == pytest.approx([0.3, 1.0])
    assert list(zeta.nodes) == pytest.approx([0.0, 0.4, 1.0])


def test_moment_d1_lipschitz_inequality(rng):
    # |moment(mu, k) - moment(nu, k)| <= k d1(mu, nu), exact inequality
    for _ in range(25):
        n1, n2 = rng.integers(1, 6), rng.integers(1, 6)
        mk = lambda n: DiscreteMeasure(
            interval=(0, 1),
            atoms=tuple((float(x), float(w)) for x, w in
                        zip(np.sort(rng.uniform(0, 1, n)),
                            rng.dirichlet(np.ones(n)))))
        mu, nu = mk(n1), mk(n2)
        dist = d1(mu, nu)
        for k in (1, 2, 3, 5):
            assert abs(mu.moment(k) - nu.moment(k)) <= k * dist + 1e-12


def test_d1_is_metric(rng):
    ms = []
    for _ in range(6):
        n = rng.integers(1, 5)
        ms.append(DiscreteMeasure(
            interval=(0, 1),
            atoms=tuple((float(x), float(w)) for x, w in
                        zip(np.sort(rng.uniform(0, 1, n)),
                            rng.dirichlet(np.ones(n))))))
    for a in ms:
        for b in ms:
            assert d1(a, b) == pytest.approx(d1(b, a), abs=1e-14)
            for c in ms:
                assert d1(a, c) <= d1(a, b) + d1(b, c) + 1e-12


def test_integral_against():
    zeta = OrderParameter.from_atoms((0.0, 1.0), [(0.4, 0.5), (1.0, 0.5)])
    # int zeta(s) s f''(s) ds with f = s^2: int_{0.4}^{1} 0.5 * 2 s ds = 0.42
    val = zeta.integral_against(lambda s: np.asarray(s) ** 2)
    assert val == pytest.approx(0.5 * (1 - 0.16), abs=1e-14)
    assert zeta.integral() == pytest.approx(0.5 * 0.6, abs=1e-14)


def test_json_round_trip():
    m = DiscreteMeasure(interval=(0, 1), atoms=((0.0, 0.5), (1.0, 0.5)))
    assert DiscreteMeasure.from_json(m.to_json()) == m


def test_fold_law():
    mu = DiscreteMeasure(interval=(-1.0, 1.0),
                         atoms=((-0.3, 0.25), (0.3, 0.25), (-1.0, 0.5)))
    folded = fold_law(mu)
    assert folded.interval == (0.0, 1.0)
    assert folded.atoms == ((0.3, 0.5), (1.0, 0.5))
    assert fold_law(folded) == folded
    with pytest.raises(ValueError, match="outside"):
        fold_law(DiscreteMeasure(interval=(0.0, 2.0),
                                 atoms=((0.3, 0.5), (1.5, 0.5))))


def test_split_boundary():
    mu = DiscreteMeasure(interval=(0.0, 1.0),
                         atoms=((0.2, 0.5), (1.0 - 1e-8, 0.25), (1.0, 0.25)))
    locs, wts, edge = split_boundary(mu)
    np.testing.assert_array_equal(locs, [0.2, 1.0 - 1e-8])
    np.testing.assert_array_equal(wts, [0.5, 0.25])
    assert edge == 0.25
    locs, wts, edge = split_boundary(DiscreteMeasure.delta(0.0))
    assert locs.tolist() == [0.0] and wts.tolist() == [1.0] and edge == 0.0

import threading

import numpy as np
import pytest

from gtap.measures import DiscreteMeasure, OrderParameter
from gtap.model import MixedModel, sk_model


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail a test that leaves a thread running."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running: {left}"


@pytest.fixture
def sk_full():
    """xi(s) = s^2."""
    return sk_model(1.0, convention="full")


@pytest.fixture
def mixed_23():
    """xi(s) = 0.6 s^2 + 0.2 s^3."""
    return MixedModel(coeffs_sq=(0.0, 0.6, 0.2))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_model(rng, p_max=4, scale=0.6):
    c = rng.uniform(0.0, scale, size=p_max)
    c[0] = 0.0
    if c[1] < 0.05:
        c[1] = 0.3
    return MixedModel(coeffs_sq=tuple(c))


def random_zeta(rng, interval, r):
    """Random r-atom order parameter on the interval."""
    lo, hi = interval
    locs = np.sort(rng.uniform(lo, hi, size=r))
    locs[0] = lo
    w = rng.dirichlet(np.ones(r))
    return OrderParameter.from_atoms(interval, [(float(x), float(v))
                                                for x, v in zip(locs, w)])


def random_mu(rng, n_atoms=3, a_max=0.8):
    locs = np.sort(rng.uniform(0.0, a_max, size=n_atoms))
    w = rng.dirichlet(np.ones(n_atoms))
    return DiscreteMeasure(interval=(0.0, 1.0),
                           atoms=tuple((float(x), float(v))
                                       for x, v in zip(locs, w)))

"""Property tests of the measure constructors and the band-coordinate change.

They need hypothesis (the `test` extra) and are skipped without it.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gtap.measures import (MERGE_TOL, DiscreteMeasure,  # noqa: E402
                           OrderParameter, band_coords, restrict_zeta,
                           shift_theta)

# a small pool of locations makes coinciding atoms (and merges) common
locations = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                      st.floats(0.0, 1.0))
atom_lists = st.lists(st.tuples(locations, st.floats(0.01, 1.0)),
                      min_size=1, max_size=6)


def normalized(atoms):
    total = math.fsum(w for _, w in atoms)
    return [(x, w / total) for x, w in atoms]


@settings(max_examples=200, deadline=None)
@given(atom_lists)
def test_discrete_measure_invariants(raw):
    atoms = normalized(raw)
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=atoms)
    locs = [x for x, _ in mu.atoms]
    assert all(b - a > MERGE_TOL for a, b in zip(locs, locs[1:]))
    assert all(w > 0 for _, w in mu.atoms)
    assert math.fsum(w for _, w in mu.atoms) == pytest.approx(1.0, abs=1e-12)
    # merging moves each atom down onto the kept location at or below it,
    # at most MERGE_TOL away, and the CDF jumps there by the mass moved
    for x, nxt in zip(locs, locs[1:] + [math.inf]):
        moved = [(y, w) for y, w in atoms if x <= y < nxt]
        assert all(y - x <= MERGE_TOL for y, _ in moved)
        jump = mu.cdf(x) - mu.cdf(math.nextafter(x, -math.inf))
        assert jump == pytest.approx(math.fsum(w for _, w in moved),
                                     abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(atom_lists, st.floats(0.0, 1.0))
def test_band_coords_of_restriction_is_shift(raw, q):
    zeta = OrderParameter.from_atoms((0.0, 1.0), normalized(raw))
    via_band = band_coords(restrict_zeta(zeta, q))
    shifted = shift_theta(zeta, q)
    assert via_band.interval == pytest.approx(shifted.interval, abs=1e-12)
    assert len(via_band.measure.atoms) == len(shifted.measure.atoms)
    for (x, w), (y, v) in zip(via_band.measure.atoms, shifted.measure.atoms):
        assert x == pytest.approx(y, abs=1e-12)
        assert w == pytest.approx(v, abs=1e-12)

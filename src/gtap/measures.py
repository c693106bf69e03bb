"""Atomic probability measures and order parameters.

A DiscreteMeasure is a finite list of (location, weight) atoms on a closed
interval; it doubles as a magnetization law mu and, through its CDF, as a
functional order parameter zeta. The d1 metric integrates |CDF - CDF'| and
metrizes weak convergence on the interval.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = ["DiscreteMeasure", "OrderParameter", "d1", "empirical", "fold_law",
           "split_boundary", "shift_theta", "restrict_zeta", "band_coords",
           "step_integral"]

MERGE_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12
# Atoms of a magnetization law this close to 1 sit on the boundary: their
# slope saturates, and they are handled in closed form.
BOUNDARY_ATOM_TOL = 1e-9


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atoms (strictly increasing locations, positive weights summing to 1)."""

    interval: tuple[float, float]
    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        a, b = float(self.interval[0]), float(self.interval[1])
        if not a < b + 1e-15:
            raise ValueError(f"empty interval [{a}, {b}]")
        locs = [float(x) for x, _ in self.atoms]
        wts = [float(w) for _, w in self.atoms]
        if len(locs) == 0:
            raise ValueError("measure needs at least one atom")
        if not np.all(np.isfinite([a, b, *locs, *wts])):
            raise ValueError("interval ends, locations and weights must be finite")
        merged: list[list[float]] = []
        for x, w in sorted(zip(locs, wts)):
            if w <= 0:
                raise ValueError("atom weights must be positive")
            if merged and x - merged[-1][0] <= MERGE_TOL:
                merged[-1][1] += w
            else:
                merged.append([x, w])
        total = sum(w for _, w in merged)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total}, not 1")
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            merged = [[x, w / total] for x, w in merged]
        lo, hi = merged[0][0], merged[-1][0]
        if lo < a - 1e-12 or hi > b + 1e-12:
            raise ValueError("atom outside the interval")
        object.__setattr__(self, "interval", (a, b))
        object.__setattr__(self, "atoms", tuple((x, w) for x, w in merged))

    @classmethod
    def delta(cls, x: float, interval=(0.0, 1.0)) -> "DiscreteMeasure":
        return cls(interval=interval, atoms=((float(x), 1.0),))

    @property
    def locations(self) -> np.ndarray:
        return np.array([x for x, _ in self.atoms])

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms])

    def cdf(self, s):
        """mu([interval_lo, s]) evaluated right-continuously."""
        s = np.asarray(s, dtype=float)
        locs = self.locations
        wts = np.cumsum(self.weights)
        idx = np.searchsorted(locs, s, side="right")
        full = np.concatenate([[0.0], wts])
        out = full[idx]
        return out if out.ndim else float(out)

    def moment(self, k: int) -> float:
        if k < 1:
            raise ValueError("moment order must be >= 1")
        return float(np.sum(self.weights * self.locations ** k))

    def to_json(self) -> str:
        return json.dumps(
            {"interval": list(self.interval),
             "atoms": [[x, w] for x, w in self.atoms]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "DiscreteMeasure":
        data = json.loads(text)
        return cls(interval=tuple(data["interval"]),
                   atoms=tuple((x, w) for x, w in data["atoms"]))


def d1(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Integral of |mu(x) - nu(x)| over the (common) interval, exactly."""
    if not np.allclose(mu.interval, nu.interval):
        raise ValueError("d1 requires measures on the same interval")
    a, b = mu.interval
    pts = np.unique(np.concatenate([[a], mu.locations, nu.locations, [b]]))
    vals = np.abs(mu.cdf(pts[:-1]) - nu.cdf(pts[:-1]))
    return step_integral(pts, vals, lambda s: s)


def empirical(m, fold: bool = False, interval=None) -> DiscreteMeasure:
    """Empirical measure (1/N) sum_i delta_{m_i}; fold=True folds to |m_i|."""
    m = np.asarray(m, dtype=float).ravel()
    if m.size == 0:
        raise ValueError("empty magnetization vector")
    if np.any(np.abs(m) > 1.0 + 1e-12):
        raise ValueError("magnetization entries must lie in [-1, 1]")
    if fold:
        m = np.abs(m)
    if interval is None:
        interval = (0.0, 1.0) if np.all(m >= 0) else (-1.0, 1.0)
    w = 1.0 / m.size
    return DiscreteMeasure(interval=interval, atoms=tuple((x, w) for x in m))


def fold_law(mu: DiscreteMeasure) -> DiscreteMeasure:
    """Push-forward of a magnetization law under a -> |a|, on [0, 1];
    ValueError for an atom outside [-1, 1], where no magnetization lies."""
    if np.any(np.abs(mu.locations) > 1.0 + 1e-12):
        raise ValueError("magnetization law has an atom outside [-1, 1]")
    return DiscreteMeasure(interval=(0.0, 1.0),
                           atoms=tuple((abs(x), w) for x, w in mu.atoms))


def split_boundary(mu: DiscreteMeasure) -> tuple[np.ndarray, np.ndarray, float]:
    """Locations and weights of the atoms of a folded law below
    1 - BOUNDARY_ATOM_TOL, and the mass of the atoms at the boundary."""
    locs, wts = mu.locations, mu.weights
    inner = locs < 1.0 - BOUNDARY_ATOM_TOL
    return locs[inner], wts[inner], float(np.sum(wts[~inner]))


@dataclass(frozen=True)
class OrderParameter:
    """A measure viewed through its CDF step function zeta(s).

    nodes t0 = q_0 < ... < q_r = t1 and levels zeta_p = zeta(s) on
    [q_p, q_{p+1}) with zeta(t1) = 1. An atom at t0 shows up as a positive
    level on the first piece.
    """

    measure: DiscreteMeasure

    @classmethod
    def from_atoms(cls, interval, atoms) -> "OrderParameter":
        return cls(DiscreteMeasure(interval=tuple(interval), atoms=tuple(atoms)))

    @classmethod
    def delta_at(cls, x: float, interval) -> "OrderParameter":
        return cls(DiscreteMeasure.delta(x, interval=tuple(interval)))

    @property
    def interval(self) -> tuple[float, float]:
        return self.measure.interval

    @property
    def nodes(self) -> np.ndarray:
        """Piece boundaries: interval ends plus interior atom locations."""
        a, b = self.interval
        locs = self.measure.locations
        inner = locs[(locs > a + MERGE_TOL) & (locs < b - MERGE_TOL)]
        return np.concatenate([[a], inner, [b]])

    @property
    def levels(self) -> np.ndarray:
        """CDF value on each piece [q_p, q_{p+1}); length len(nodes) - 1."""
        nd = self.nodes
        return np.asarray(self.measure.cdf(nd[:-1]), dtype=float).reshape(-1)

    def cdf(self, s):
        return self.measure.cdf(s)

    def integral_against(self, antideriv) -> float:
        """Exact integral of zeta(s) * rho(s) ds when antideriv' = rho."""
        return step_integral(self.nodes, self.levels, antideriv)

    def integral(self) -> float:
        """Integral of the CDF over the interval."""
        return self.integral_against(lambda s: np.asarray(s, dtype=float))


def step_integral(nodes, levels, antideriv) -> float:
    """Exact integral of the CDF step function `levels` between `nodes`
    against rho, when antideriv' = rho: a telescoping sum of antiderivative
    differences weighted by the levels."""
    return float(np.sum(levels * np.diff(antideriv(nodes))))


def _pool(zeta: OrderParameter, cut: float, shift: float,
          interval) -> OrderParameter:
    """Relabel zeta onto `interval`: the mass at or below `cut` pools into an
    atom at the left endpoint, and the atoms above `cut` move down by `shift`."""
    head = float(zeta.cdf(cut + MERGE_TOL))
    atoms = [(interval[0], head)] if head > 0 else []
    for x, w in zeta.measure.atoms:
        if x > cut + MERGE_TOL:
            atoms.append((min(x - shift, interval[1]), w))
    return OrderParameter.from_atoms(interval, atoms)


def shift_theta(zeta: OrderParameter, q: float) -> OrderParameter:
    """Shift operator: (theta_q zeta)(t) = zeta(t + q) on [t0, t1 - q].

    Mass at or below t0 + q collapses into an atom at the left endpoint.
    """
    a, b = zeta.interval
    if not 0.0 <= q <= b - a + 1e-15:
        raise ValueError(f"shift q={q} outside [0, {b - a}]")
    return _pool(zeta, a + q, q, (a, b - q))


def restrict_zeta(zeta: OrderParameter, q: float) -> OrderParameter:
    """Order parameter on [q, 1]: mass at or below q pools at q; a zeta
    living on [q', 1] with q' > q is extended by zero on [q, q')."""
    return _pool(zeta, q, 0.0, (q, zeta.interval[1]))


def band_coords(zeta_q1: OrderParameter) -> OrderParameter:
    """Relabel an order parameter on [q, 1] to band coordinates [0, 1-q]."""
    q, one = zeta_q1.interval
    return _pool(zeta_q1, q, q, (0.0, one - q))

"""Truncated Ruelle-cascade sampling and the cascade/PDE cross-identities.

A cascade with levels 0 < l_0 < ... < l_{r-1} < 1 attaches to every node at
depth p a Poisson process with intensity l_p x^{-1-l_p} dx; keeping the K
largest points per node (arrival times of a rate-1 Poisson process raised to
the power -1/l_p) and multiplying down the tree gives the normalized leaf
weights. Gaussian fields on the leaves with covariance f'(q_{depth of common
prefix}) are built from independent per-edge increments.

Two identities are exposed for verification:

* the site-factorized functional (1/N) E log sum_alpha v_alpha prod_i
  sum_sigma exp((sigma - m_i)(g_i(alpha) + lambda m_i + v(m_i))) equals
  int Phi_{a,zeta}(0, lambda a + v(a)) dmu_m(a) over the band PDE solutions;
* E log sum_alpha v_alpha exp(g_{theta_f}(alpha)) equals
  (1/2) int zeta(s) s f''(s) ds in closed form.

Truncation bias is one-sided (weights are dropped from inside a log), and a
retained-mass diagnostic is reported per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disorder import _band_mask, all_configs
from .measures import OrderParameter
from .numerics import log2cosh, logsumexp

__all__ = [
    "CascadeSample", "sample_cascade", "sample_tree_field", "psi_full",
    "psi_band", "upsilon", "upsilon_mc", "zeta_to_cascade_params",
]


@dataclass(frozen=True)
class CascadeSample:
    """Truncated cascade weights on the leaves of a K-ary tree."""

    levels: tuple[float, ...]          # PD parameters per depth, in (0, 1)
    K: tuple[int, ...]                 # truncation per depth
    weights: np.ndarray                # flat, length prod(K), sums to 1
    seed: int
    coverage: tuple[float, ...]        # crude retained-mass estimate per level

    @property
    def n_leaves(self) -> int:
        return int(np.prod(self.K)) if self.K else 1


def _coverage_estimate(level: float, K: int) -> float:
    """Retained fraction of the (infinite) weight sum: the K kept terms
    k^{-1/l} against the integral of the tail beyond K."""
    if level >= 1.0:
        return 0.0
    tail = K ** (1.0 - 1.0 / level) / (1.0 / level - 1.0)
    head = sum(k ** (-1.0 / level) for k in range(1, K + 1))
    return head / (head + tail)


def sample_cascade(levels, K, seed: int = 0) -> CascadeSample:
    """Sample cascade weights for the given level sequence.

    `levels` are the interior CDF values of the order parameter, strictly
    increasing in (0, 1); an empty sequence is the degenerate single-leaf
    cascade. `K` is an int (same truncation everywhere) or one per level.
    """
    levels = tuple(float(l) for l in levels)
    if any(not 0.0 < l < 1.0 for l in levels):
        raise ValueError("cascade levels must lie strictly inside (0, 1)")
    if any(b >= a for a, b in zip(levels[1:], levels[:-1])):
        raise ValueError("cascade levels must be strictly increasing")
    r = len(levels)
    Ks = tuple(int(K) for _ in range(r)) if np.isscalar(K) else tuple(int(k) for k in K)
    if len(Ks) != r:
        raise ValueError("need one truncation per level")
    if any(k < 2 for k in Ks):
        raise ValueError("truncation must keep at least 2 points per node")
    w = _leaf_weights(levels, Ks, seed)
    cov = tuple(_coverage_estimate(l, k) for l, k in zip(levels, Ks))
    return CascadeSample(levels=levels, K=Ks, weights=w, seed=seed,
                         coverage=cov)


def _leaf_weights(levels, Ks, seed: int) -> np.ndarray:
    """Normalized leaf weights: the Ks[p] largest points of the Poisson
    process with intensity l x^{-1-l} dx at every node of depth p, drawn for
    all its nodes at once (row by row, as one node after another would),
    multiplied down the tree (one leaf of weight 1 without levels)."""
    rng = np.random.default_rng(seed)
    w = np.array([1.0])
    for level, K in zip(levels, Ks):
        arrivals = np.cumsum(rng.exponential(size=(w.size, K)), axis=1)
        w = (w[:, None] * arrivals ** (-1.0 / level)).ravel()
    return w / w.sum()


def zeta_to_cascade_params(zeta_band: OrderParameter, fprime) -> tuple[list[float], list[float]]:
    """Map a band order parameter to (cascade levels, f' node values).

    A nondecreasing CDF starts with a (possibly empty) run of zero pieces;
    that head run contributes a single shared Gaussian of variance f' at the
    first branching node, returned as the leading entry of the node values.
    After it, every piece [s_p, s_{p+1}) with level z_p in (0, 1) is one tree
    level (branching parameter z_p, edge variance f'(s_{p+1}) - f'(s_p)).
    CDF values of 1 before the right endpoint cannot be represented by a
    truncated cascade and are rejected.
    """
    lv = [float(z) for z in zeta_band.levels]
    nodes = [float(s) for s in zeta_band.nodes]
    if any(z >= 1.0 - 1e-12 for z in lv):
        raise ValueError("cascade sampling needs CDF levels < 1 on [0, t1)")
    pos = [p for p, z in enumerate(lv) if z > 1e-14]
    if not pos:
        return [], [float(fprime(nodes[-1]))]
    h = pos[0]
    levels = lv[h:]
    fnodes = [float(fprime(nodes[h]))] + [float(fprime(nodes[p + 1]))
                                          for p in range(h, len(lv))]
    return levels, fnodes


def sample_tree_field(cascade: CascadeSample, fprime_nodes, n_copies: int,
                      rng) -> np.ndarray:
    """Gaussian fields g(alpha) on the leaves, shape (n_copies, n_leaves).

    `fprime_nodes` has one entry per tree depth plus one: the leading value
    is a variance shared by all leaves (the trunk below the first
    branching), and consecutive differences are the per-edge increments, so
    Cov(g(a), g(a')) = fprime_nodes[depth of the common prefix].
    """
    vals = [float(v) for v in fprime_nodes]
    r = len(cascade.levels)
    if len(vals) != r + 1:
        raise ValueError("need f' at r+1 nodes (trunk included)")
    L = cascade.n_leaves
    out = np.zeros((n_copies, L))
    if vals[0] > 0:
        out += math.sqrt(vals[0]) * rng.standard_normal((n_copies, 1))
    for p in range(r):
        var = vals[p + 1] - vals[p]
        if var < -1e-12:
            raise ValueError("f' must be nondecreasing along the nodes")
        n_nodes = int(np.prod(cascade.K[:p + 1]))
        stride = L // n_nodes
        eta = rng.standard_normal((n_copies, n_nodes))
        out += math.sqrt(max(var, 0.0)) * np.repeat(eta, stride, axis=1)
    return out


def _replicates(cascade: CascadeSample, fprime_nodes, n_copies: int,
                log_leaf, n_reps: int, seed: int, norm: float = 1.0):
    """Mean and standard error of log sum_alpha v_alpha exp(log_leaf(g)) / norm.

    Each replicate redraws the cascade weights (when there are levels) and
    the tree fields g, shape (n_copies, n_leaves); n_reps >= 2.
    """
    if n_reps < 2:
        raise ValueError(f"need at least 2 replicates, got {n_reps}")
    vals = np.empty(n_reps)
    rng = np.random.default_rng(seed)
    for rep in range(n_reps):
        w = cascade.weights
        if cascade.levels:
            w = _leaf_weights(cascade.levels, cascade.K,
                              int(rng.integers(2 ** 62)))
        g = sample_tree_field(cascade, fprime_nodes, n_copies, rng)
        vals[rep] = float(logsumexp(np.log(w) + log_leaf(g))) / norm
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(n_reps))
    return mean, se


def psi_full(cascade: CascadeSample, fprime_nodes, m, lam: float = 0.0,
             v=None, n_reps: int = 200, seed: int = 1) -> dict:
    """Monte-Carlo estimate of the site-factorized cascade functional.

    Per replicate (cascade weights and fields redrawn):
        (1/N) log sum_alpha v_alpha prod_i sum_{s=+-1}
            exp((s - m_i)(g_i(alpha) + lam m_i + v(m_i))).
    Returns mean, standard error, and the truncation coverage diagnostic.
    """
    m = np.asarray(m, dtype=float)
    N = m.size
    shifts = lam * m + (np.array([float(v(x)) for x in m]) if v is not None
                        else np.zeros(N))

    def log_leaf(g):
        x = g + shifts[:, None]
        return (log2cosh(x) - m[:, None] * x).sum(axis=0)   # log sum_s e^{(s-m)x}

    mean, se = _replicates(cascade, fprime_nodes, N, log_leaf, n_reps, seed,
                           norm=N)
    return {"mean": mean, "se": se, "coverage": cascade.coverage,
            "n_reps": n_reps}


def psi_band(cascade: CascadeSample, fprime_nodes, m, eps: float,
             lam: float = 0.0, v=None, n_reps: int = 50,
             seed: int = 3) -> dict:
    """Band-restricted cascade functional, by explicit enumeration.

    Per replicate: (1/N) log sum_alpha v_alpha sum_{sigma in B(m, eps)}
    exp sum_i (g_i(alpha) + lam m_i + v(m_i)) (sigma_i - m_i). A stress tool
    for small N (enumeration over 2^N configurations times the leaves); with
    eps large enough to cover the cube it coincides with the factorized
    functional replicate by replicate.
    """
    m = np.asarray(m, dtype=float)
    N = m.size
    if N > 14:
        raise ValueError("band enumeration is capped at N = 14")
    S = all_configs(N)
    inside = _band_mask(S, m, eps)
    if not np.any(inside):
        raise ValueError("empty band; increase eps")
    T = (S[inside] - m)                      # (n_cfg, N)
    shifts = lam * m + (np.array([float(v(x)) for x in m]) if v is not None
                        else np.zeros(N))

    def log_leaf(g):
        expo = T @ (g + shifts[:, None])                 # (n_cfg, L)
        mx = expo.max()
        return np.log(np.sum(np.exp(expo - mx), axis=0)) + mx

    mean, se = _replicates(cascade, fprime_nodes, N, log_leaf, n_reps, seed,
                           norm=N)
    return {"mean": mean, "se": se, "n_reps": n_reps,
            "band_size": int(T.shape[0])}


def upsilon(f, zeta_band: OrderParameter) -> float:
    """(1/2) int zeta(s) s f''(s) ds, exactly (antiderivative x f' - f), for
    a MixedModel f; in band coordinates f is `ShiftedModel.mixture`."""
    return 0.5 * zeta_band.integral_against(f.theta)


def upsilon_mc(cascade: CascadeSample, f, zeta_band: OrderParameter,
               n_reps: int = 400, seed: int = 2) -> dict:
    """E log sum_alpha v_alpha exp g_{theta_f}(alpha), by resampling."""
    levels, theta_nodes = zeta_to_cascade_params(zeta_band, f.theta)
    if tuple(levels) != cascade.levels:
        raise ValueError("cascade levels do not match the order parameter")
    mean, se = _replicates(cascade, theta_nodes, 1, lambda g: g[0], n_reps,
                           seed)
    return {"mean": mean, "se": se, "n_reps": n_reps}

"""Shared numerical kernels: quadrature rules, stable elementary functions,
cubic Hermite grid interpolation, and the monotone projection.

Everything here is plain numpy and deterministic.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for E[f(g)] with g ~ N(0,1).

    hermgauss integrates against exp(-y^2); rescale so that sum(w) == 1
    and sum(w * f(x)) approximates the standard normal expectation.
    """
    y, wy = np.polynomial.hermite.hermgauss(n)
    x = np.sqrt(2.0) * y
    w = wy / np.sqrt(np.pi)
    w = w / w.sum()
    return x, w


@lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on [0, 1] with sum(w) == 1."""
    y, wy = np.polynomial.legendre.leggauss(n)
    return 0.5 * (y + 1.0), 0.5 * wy


def log2cosh(x: np.ndarray | float) -> np.ndarray | float:
    """log(2 cosh x) without overflow: |x| + log1p(exp(-2|x|))."""
    a = np.abs(x)
    return a + np.log1p(np.exp(-2.0 * a))


def logsumexp(a: np.ndarray) -> float:
    """Stable log(sum(exp(a))) over all entries."""
    m = np.max(a, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    s = np.sum(np.exp(a - m), keepdims=True)
    return float((m + np.log(s)).item())


def hermite_eval(x0: float, dx: float, f: np.ndarray, d: np.ndarray,
                 xq: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolation of (f, f') sampled on a uniform grid.

    Outside the grid the continuation is linear with the edge slope, which
    matches the asymptotically linear tails of log-cosh type solutions.
    """
    xq = np.asarray(xq, dtype=float)
    n = f.shape[0] - 1
    u = (xq - x0) / dx
    i = np.clip(np.floor(u).astype(np.int64), 0, n - 1)
    t = u - i
    t = np.clip(t, 0.0, 1.0)
    t2 = t * t
    t3 = t2 * t
    h00 = 2.0 * t3 - 3.0 * t2 + 1.0
    h10 = t3 - 2.0 * t2 + t
    h01 = -2.0 * t3 + 3.0 * t2
    h11 = t3 - t2
    out = h00 * f[i] + dx * h10 * d[i] + h01 * f[i + 1] + dx * h11 * d[i + 1]
    lo = xq < x0
    hi = xq > x0 + n * dx
    if np.any(lo):
        out = np.where(lo, f[0] + d[0] * (xq - x0), out)
    if np.any(hi):
        out = np.where(hi, f[-1] + d[-1] * (xq - (x0 + n * dx)), out)
    return out


def linear_eval(x0: float, dx: float, f: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Linear interpolation on a uniform grid, constant continuation."""
    xq = np.asarray(xq, dtype=float)
    n = f.shape[0] - 1
    u = np.clip((xq - x0) / dx, 0.0, float(n))
    i = np.clip(np.floor(u).astype(np.int64), 0, n - 1)
    t = u - i
    return (1.0 - t) * f[i] + t * f[i + 1]


def grid_derivative(f: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order central differences (one-sided at the edges)."""
    d = np.empty_like(f)
    d[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * dx)
    d[1] = (f[2] - f[0]) / (2.0 * dx)
    d[-2] = (f[-1] - f[-3]) / (2.0 * dx)
    d[0] = (f[1] - f[0]) / dx
    d[-1] = (f[-1] - f[-2]) / dx
    return d


def project_monotone(z: np.ndarray, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Euclidean projection onto {lo <= z_0 <= ... <= z_{n-1} <= hi} (PAVA)."""
    z = np.asarray(z, dtype=float)
    n = z.size
    out = np.empty(n)
    # pool adjacent violators
    vals: list[float] = []
    wts: list[int] = []
    for x in z:
        vals.append(float(x))
        wts.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            v = (vals[-2] * wts[-2] + vals[-1] * wts[-1]) / (wts[-2] + wts[-1])
            w = wts[-2] + wts[-1]
            vals = vals[:-2] + [v]
            wts = wts[:-2] + [w]
    k = 0
    for v, w in zip(vals, wts):
        out[k:k + w] = v
        k += w
    return np.clip(out, lo, hi)

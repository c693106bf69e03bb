"""Shared numerical kernels: quadrature rules, stable elementary functions,
cubic Hermite grid interpolation, and the monotone projection.

Everything here is plain numpy and deterministic.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@lru_cache(maxsize=32)
def gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for E[f(g)] with g ~ N(0,1), read-only: the cache
    hands the same arrays to every later caller.

    hermgauss integrates against exp(-y^2); rescale so that sum(w) == 1
    and sum(w * f(x)) approximates the standard normal expectation.
    """
    y, wy = np.polynomial.hermite.hermgauss(n)
    x = np.sqrt(2.0) * y
    w = wy / np.sqrt(np.pi)
    w = w / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on [0, 1] with sum(w) == 1, read-only as in
    `gauss_hermite`."""
    y, wy = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (y + 1.0), 0.5 * wy
    x.flags.writeable = w.flags.writeable = False
    return x, w


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


class GridStencil:
    """Cubic Hermite interpolation on the uniform grid x0 + k dx (k < size)
    at fixed points xq.

    The cell and fraction of every point and the points beyond the grid are
    found once, and the Hermite weights when first needed, so evaluating
    several grid functions at the same arbitrary points (`hermite_eval`)
    costs only gathers and weighted sums. Outside the grid the Hermite
    continuation is linear with the edge slope, which matches the
    asymptotically linear tails of log-cosh type solutions.
    """

    def __init__(self, x0: float, dx: float, size: int, xq):
        xq = np.asarray(xq, dtype=float)
        self.shape = xq.shape
        # 1-d inside, so tails can be assigned by mask
        xq = np.atleast_1d(xq)
        n = size - 1
        u = (xq - x0) / dx
        self.cells = np.clip(np.floor(u).astype(np.int64), 0, n - 1)
        self.t = np.clip(u - self.cells, 0.0, 1.0)
        self.dx = dx
        # (mask, distance from the edge, edge index) beyond each end
        self.tails = [(mask, xq[mask] - edge, end)
                      for mask, edge, end in ((xq < x0, x0, 0),
                                              (xq > x0 + n * dx, x0 + n * dx, -1))
                      if mask.any()]

    @cached_property
    def _cubic(self):
        """Weights of f and dx f' at the left and right end of each cell."""
        t, dx = self.t, self.dx
        t2 = t * t
        t3 = t2 * t
        a, b = 2.0 * t3, 3.0 * t2
        return a - b + 1.0, dx * (t3 - 2.0 * t2 + t), b - a, dx * (t3 - t2)

    def _ends(self, f: np.ndarray):
        """Fresh arrays of f at the left and right end of each cell."""
        return f.take(self.cells), f[1:].take(self.cells)

    def _shaped(self, out: np.ndarray):
        # a scalar point gives a numpy scalar, an array of points an array
        return out.reshape(self.shape)[()]

    def hermite(self, f: np.ndarray, d: np.ndarray):
        """Cubic Hermite interpolation of (f, f') = (f, d)."""
        a, b, c, e = self._cubic
        f0, f1 = self._ends(f)
        d0, d1 = self._ends(d)
        f0 *= a
        d0 *= b
        f0 += d0
        f1 *= c
        f0 += f1
        d1 *= e
        f0 += d1
        for mask, dist, end in self.tails:
            f0[mask] = f[end] + d[end] * dist
        return self._shaped(f0)


class ShiftStencil(GridStencil):
    """The shared-fraction form of `GridStencil` for the points x_k + shift_j,
    the grid points x_k of the row range first <= k < first + size moved by
    every shift, shape (size, m): the stencil of a PDE layer, whose shifts
    are sigma times the Gauss-Hermite nodes.

    All points of one shift share the cell offset floor(shift_j / dx) and the
    fraction, so the cubic weights are one number per shift, and the cell
    ends of a shift are one contiguous slice of the grid function. That
    function is padded on both sides by its edge continuation, linear with
    the edge slope, which cubic Hermite reproduces, so no point needs a tail
    mask. Agrees with the per-point form to rounding. The values are
    computed one shift per row and returned as the transposed view. The grid
    functions are always whole, so a row range reads the same neighbours as
    the full one.
    """

    def __init__(self, dx: float, size: int, shifts, first: int = 0):
        u = np.asarray(shifts, dtype=float) / dx
        off = np.floor(u)
        self.t = (u - off)[:, None]
        off = off.astype(np.int64)
        # the cell k + off_j and its right end lie in the padded function
        self.pad = int(max(-off.min(), off.max() + 1, 0))
        self.rows = off + self.pad + first
        self.size = size
        self.dx = dx
        self.tails = []

    def _ends(self, f: np.ndarray):
        # f is padded: row j of its windows is f at x_k + off_j dx
        windows = sliding_window_view(f, self.size)
        return windows[self.rows], windows[self.rows + 1]

    def _shaped(self, out: np.ndarray):
        return out.T

    def hermite(self, f: np.ndarray, d: np.ndarray):
        ramp = self.dx * np.arange(1, self.pad + 1)
        edge = np.ones(self.pad)
        return super().hermite(
            np.concatenate([f[0] - d[0] * ramp[::-1], f, f[-1] + d[-1] * ramp]),
            np.concatenate([d[0] * edge, d, d[-1] * edge]))


def hermite_eval(x0: float, dx: float, f: np.ndarray, d: np.ndarray,
                 xq: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolation of (f, f') sampled on a uniform grid, at
    the points xq (see `GridStencil`)."""
    return GridStencil(x0, dx, f.shape[0], xq).hermite(f, d)


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

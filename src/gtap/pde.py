"""Parisi PDE solver for atomic order parameters.

The backward equation

    dPhi/dt = -(xi''(t)/2) (Phi_xx + zeta(t) Phi_x^2)

with a log-cosh type boundary is solved layer by layer: on a piece where the
CDF zeta(s) is the constant z > 0, the Cole-Hopf transform exp(z Phi) obeys
the linear heat equation, so

    Phi(t, x) = (1/z) log E exp(z Phi(t', x + sigma g)),  sigma^2 = xi'(t') - xi'(t),

with g standard normal; z = 0 degenerates to the plain heat semigroup
Phi(t, x) = E Phi(t', x + sigma g). The Gaussian expectations are evaluated
with Gauss-Hermite quadrature on a uniform x-grid, and x-derivatives are
propagated by the differentiated recursion (Gibbs-weighted moments), so the
solution is exact in t for atomic zeta up to quadrature and interpolation
error. A solve is fixed by zeta's CDF steps alone, levels z_p between nodes
t0 = s_0 <= ... <= s_r = t1: its interval is their ends.

Levels are nondecreasing and at most 1, so the times where zeta is 1 form a
top block [s*, t1] (a level within LEVEL_ONE_TOL of 1 counts as 1: atom
weights can cumulate to 1 - ulp). On it the level-1 layers under the
boundary log 2cosh x - a x compose into one Gaussian integral,

    Phi(t, x) = log 2cosh(x - a s^2) - a x + (1 + a^2) s^2 / 2,
    s^2 = xi'(t1) - xi'(t),

so every frame there, at a node or off one, and the drift table on it are
this closed form: the boundary frame at x - a s^2, Phi raised by
(1 - a^2) s^2 / 2. No quadrature layer is built for them; the layers below
s* start from the closed-form frame at s*.

A layer is evaluated through one shared-fraction stencil
(`numerics.ShiftStencil`) of its quadrature points x_k + sigma g_j: the points
of one node g_j share a cell offset and a fraction, so the cubic Hermite
weights are one row per node, found once when the layer is made, and the
frames are padded by their edge continuation instead of masking the points
beyond the grid. A frame is Phi, Phi_x and Phi_xx on the grid; Phi_xx's
Hermite slope is its fourth-order `grid_derivative`, as for every pulled grid
function. Phi and its derivatives there (hence the Doob weights and the next
frame), the pulled-back sensitivities and the drift table phi_x_table are
gathers and weighted sums over it. A `solve_steps` solve pulls its level and
node sensitivities through each layer while it builds it, so the gradients
need no second sweep; it builds the block's layers for this sweep alone, and
`path_expectation` pulls through them with their kernels too. Every read of a
solve at given points goes through one checked reader,
`PDESolution.interpolate`, on the solve's own grid step config.dx.

Both inverses of Phi_x are one Newton loop over arrays (`_invert`). Near
|Phi_x| = 1, where Phi_xx falls like 1 - |Phi_x|, `boundary_inverse_phi_x`
inverts log(1 - Phi_x), pulled through the layers below s* in log space from
log(1 - tanh x), its value on the untilted block, only for a solve that asks
for it.

The same Gibbs weights give a deterministic propagator for expectations
E f(X_s) of the optimal-control diffusion

    dX = xi''(s) zeta(s) Phi_x(s, X) ds + sqrt(xi''(s)) dW,

which is the Doob transform of the time-changed Brownian motion by
exp(z Phi). An antithetic Euler-Maruyama simulator of the same SDE is
provided for Monte-Carlo cross-checks. It reads the drift only on steps
where the drift coefficient xi''(s) zeta(s) is not 0, from phi_x_table on
the window of grid cells the paths occupy at that step, interpolated
linearly at the paths. The one worker of a `ThreadPoolExecutor` draws the
normals up to two steps ahead, in a plain loop's order, so a seed gives
the same stream as one, and it is joined when the simulation ends.

The Parisi functional Phi_zeta(0, h) - (1/2) int s xi'' zeta at the model's
external field h is one read-out of a solve (`_parisi_on`);
`parisi_measure` minimizes it with the TAP correction's optimizer. A grid
over MAX_GRID_POINTS points (a tiny dx or a huge h) is refused before it
is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .measures import OrderParameter, step_integral
from .model import MixedModel, ShiftedModel
from .numerics import (GridStencil, ShiftStencil, gauss_hermite,
                       grid_derivative, hermite_eval, log2cosh)

__all__ = [
    "SolverConfig", "GridBudgetError", "PDESolution", "solve", "solve_steps",
    "solve_band", "unify", "simulate_control", "second_derivative_identity",
    "parisi_functional", "parisi_measure",
]


# Largest grid step: Phi varies on the unit scale of log cosh. At dx = 1/4
# a value is off by ~1e-5 (xi = s^2 / 8); at dx = 1 by ~2e-3, and at
# dx = 1e300 the grid has three points and the value is off by 0.12.
MAX_GRID_STEP = 0.25
# Most points of one solve's x grid. A layer holds n x gh_order temporaries,
# so the grid is sized before anything is allocated: dx = 1e-7 would ask for
# ~1e8 points, and so would an external field h = 1e6 at the default dx. The
# finest grid of the test suite has 5,703 points (dx = 1/256).
MAX_GRID_POINTS = 2 ** 16


class GridBudgetError(ValueError):
    """A solve whose x grid would exceed MAX_GRID_POINTS: a configuration
    error (the grid step, the field or the pad), refused before allocation."""


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs shared across the PDE-based functionals."""

    dx: float = 1.0 / 64.0
    gh_order: int = 40
    x_pad: float = 0.0      # added to the half-width 6 + 4 sqrt(var) + |a|

    def __post_init__(self):
        if not 0.0 < self.dx <= MAX_GRID_STEP:
            raise ValueError(f"grid step dx must be in (0, {MAX_GRID_STEP}]: "
                             f"{self.dx}")
        if not 0.0 <= self.x_pad < math.inf:   # a pad only widens the grid
            raise ValueError(f"x_pad must be finite and >= 0: {self.x_pad}")

    def with_pad(self, pad: float) -> "SolverConfig":
        return replace(self, x_pad=max(self.x_pad, pad))


DEFAULT_CONFIG = SolverConfig()
BISECT_TOL = 1e-10          # x-tolerance of _invert
NEWTON_STEPS = 4            # Newton steps of _invert before its bisection
SDE_STEPS = 4096            # default Euler steps of simulate_control
EDGE_CURVATURE_TOL = 1e-2   # largest |Phi_xx| allowed at the grid edges
# A CDF level at least 1 - LEVEL_ONE_TOL is 1: the solve allows levels up to
# 1 + LEVEL_ONE_TOL, and cumulative atom weights can end at 1 - ulp.
LEVEL_ONE_TOL = 1e-12


class Frame(NamedTuple):
    """Phi and its first two x-derivatives on the x grid at a fixed time,
    in order: frame[k:k + 2] is the k-th derivative and its slope, and
    Phi_xx's slope is its `grid_derivative`."""

    phi: np.ndarray
    phi_x: np.ndarray
    phi_xx: np.ndarray


def _boundary_frame(a: float, x: np.ndarray) -> Frame:
    """The boundary log 2cosh x - a x and its x-derivatives."""
    th = np.tanh(x)
    return Frame(log2cosh(x) - a * x, th - a, 1.0 - th * th)


def _exp_tail(y: np.ndarray) -> np.ndarray:
    """exp(y) - 1 - y by its Taylor series to y^10: relative error below
    1e-16 for |y| < 0.1, where expm1(y) - y would cancel."""
    coefs = [1.0 / math.factorial(k) for k in range(10, 1, -1)]
    return y * y * np.polyval(coefs, y)


class _Layer:
    """Transition kernel of one layer below an upper frame.

    A solve builds one for each layer of level below 1; a layer of the
    level-1 block (its frames are closed form) is built only for a
    `solve_steps` sweep, which needs its `level_sensitivity` and pulls, and
    for `path_expectation`, which pulls through it.

    Holds the shared-fraction stencil (`numerics.ShiftStencil`) of the
    quadrature points X = x + sigma g, for the grid points x of its row range
    rows = (first row, row count), and the normalized Doob weights
    exp(level Phi_upper(X)) (plain Gauss-Hermite weights at level 0), so
    that `mean` averages values at X over the layer, `pull` averages a grid
    function (read at X with its `grid_derivative` as Hermite slope: a
    sensitivity, a path expectation or the upper Phi_xx) and `log_pull` does
    so in log space.

    A positive level z uses y = z (Phi_upper - c): phi = c + log E exp(y)/z,
    with c the row maximum (no overflow) or, where z (max - min) Phi_upper
    < 0.1, the plain average with E exp(y) - 1 summed as E y plus a Taylor
    tail, so small levels lose no digits (the max form loses log10(1/z)).
    """

    def __init__(self, upper: Frame, sigma: float, level: float,
                 rows: tuple[int, int], config: SolverConfig):
        g, self.w = gauss_hermite(config.gh_order)
        self.upper = upper
        self.level = level
        self.dx = config.dx
        first, count = rows
        self.stencil = ShiftStencil(config.dx, count, sigma * g, first)
        if level > 0.0:
            self._small = level * (self.P.max() - self.P.min()) < 0.1
            if self._small:
                # E exp(y) - 1 sums O(z) terms to an O(z^2) result: centre at
                # the plain mean, keep the mean of y apart and sum
                # exp(y) - 1 - y by its Taylor series
                self._c = self.P @ self.w
                y = level * (self.P - self._c[:, None])
                tail = _exp_tail(y)
                S = y @ self.w + tail @ self.w
                self._log_z, Z = np.log1p(S), 1.0 + S
                self.om = 1.0 + y + tail
            else:
                self._c = self.P.max(axis=1)
                self.om = np.exp(level * (self.P - self._c[:, None]))
                Z = self.om @ self.w
                self._log_z = np.log(Z)
            self.om *= self.w
            self.om /= Z[:, None]

    @cached_property
    def P(self) -> np.ndarray:
        """Phi of the upper frame at the quadrature points."""
        return self.stencil.hermite(self.upper.phi, self.upper.phi_x)

    @cached_property
    def phi(self) -> np.ndarray:
        """Phi at the lower time: (1/z) log E exp(z Phi_upper) (Cole-Hopf),
        the plain average E Phi_upper at level z = 0."""
        if self.level <= 0.0:
            return self.mean(self.P)
        return self._c + self._log_z / self.level

    def level_sensitivity(self) -> np.ndarray:
        """d phi / d level: (<Phi_upper>_Doob - phi)/z, variance/2 at z = 0;
        that is (<y>_Doob - log E exp(y)) / z^2, split for small levels."""
        z = self.level
        if z <= 0.0:
            return 0.5 * (self.mean(self.P * self.P) - self.phi ** 2)
        y = z * (self.P - self._c[:, None])
        if self._small:
            mean_y = (y @ self.w + ((y + _exp_tail(y)) * y) @ self.w) \
                / np.exp(self._log_z)
        else:
            mean_y = np.sum(self.om * y, axis=1)
        return (mean_y - self._log_z) / (z * z)

    def mean(self, vals: np.ndarray) -> np.ndarray:
        if self.level <= 0.0:
            return vals @ self.w
        return np.sum(self.om * vals, axis=1)

    def pull(self, f: np.ndarray) -> np.ndarray:
        return self.mean(self.stencil.hermite(f, grid_derivative(f, self.dx)))

    def log_pull(self, f: np.ndarray) -> np.ndarray:
        """`pull` in log space: log of the average of exp f, less its row
        maximum at the points first, so no row underflows to log 0."""
        vals = self.stencil.hermite(f, grid_derivative(f, self.dx))
        top = vals.max(axis=1)
        vals -= top[:, None]
        return top + np.log(self.mean(np.exp(vals)))


def _gibbs_step(upper: Frame, layer: _Layer | None) -> Frame:
    """One Cole-Hopf layer backwards: the frame below the upper frame,
    Phi_xx the pulled Phi_xx plus level times the Gibbs variance of Phi_x.
    A layer of zero width (`layer` None) shares the upper frame."""
    if layer is None:
        return upper
    Px = layer.stencil.hermite(upper.phi_x, upper.phi_xx)
    phi_x, phi_xx = layer.mean(Px), layer.pull(upper.phi_xx)
    if layer.level > 0.0:
        # the second x-derivative of (1/z) log E exp(z Phi) adds z times
        # the Gibbs variance of Phi_x to the Gibbs mean of Phi_xx
        var = np.sum(layer.om * Px * Px, axis=1) - phi_x * phi_x
        phi_xx = phi_xx + layer.level * var
    return Frame(layer.phi, phi_x, phi_xx)


def _invert(x_grid: np.ndarray, dx: float, f: np.ndarray, d: np.ndarray,
            y: np.ndarray) -> np.ndarray:
    """Elementwise root x of F(x) = y for targets y of any shape, F and F'
    the cubic Hermite interpolants of (f, d) and of (d, its
    `grid_derivative`) on x_grid (step dx) for increasing f. Newton from the
    linear interpolate, on one `GridStencil` per step, stops an entry once
    its step is below BISECT_TOL or F' <= 0, after NEWTON_STEPS steps at
    most; entries then off target by over 10 BISECT_TOL are bisected. Each
    entry runs its own scalar loop's arithmetic. RuntimeError for a target
    outside f's range."""
    shape, y = y.shape, y.ravel()
    inside = (f[0] < y) & (y < f[-1])
    if not inside.all():
        raise RuntimeError(f"target {y[~inside][0]} outside grid range "
                           f"({f[0]:.6f}, {f[-1]:.6f})")
    x0, x, live = float(x_grid[0]), np.interp(y, f, x_grid), np.arange(y.size)
    dd = grid_derivative(d, dx)
    for _ in range(NEWTON_STEPS):
        if not live.size:
            break
        st = GridStencil(x0, dx, f.size, x[live])
        slope = st.hermite(d, dd)
        up = slope > 0.0
        live = live[up]
        step = (st.hermite(f, d)[up] - y[live]) / slope[up]
        x[live] -= step
        live = live[np.abs(step) >= BISECT_TOL]
    off = np.flatnonzero(np.abs(GridStencil(x0, dx, f.size, x).hermite(f, d)
                                - y) > 10.0 * BISECT_TOL)
    lo, hi = np.full(off.size, x0), np.full(off.size, x_grid[-1])
    for _ in range(200):
        live = hi - lo >= BISECT_TOL
        if not live.any():
            break
        mid = 0.5 * (lo + hi)
        left = GridStencil(x0, dx, f.size, mid).hermite(f, d) < y[off]
        lo = np.where(live & left, mid, lo)
        hi = np.where(live & ~left, mid, hi)
    x[off] = 0.5 * (lo + hi)
    return x.reshape(shape)


class PDESolution:
    """Layered solution of a Parisi PDE with an atomic order parameter.

    Attributes of note: `mixture`, the xi of the equation (the shifted
    mixture xi_q for a band solve); `x_grid`, the uniform evaluation grid;
    `nodes` and `levels`, the piecewise-constant CDF of zeta, whose end
    nodes are the solved interval [t0, t1]; `a`, the tilt of the boundary
    log 2cosh x - a x (0 for the original boundary).
    """

    def __init__(self, mixture: MixedModel, nodes, levels, a: float,
                 config: SolverConfig, *, with_gradients: bool = False):
        self.mixture = mixture
        self.a = float(a)
        self.config = config
        self.nodes = np.asarray(nodes, dtype=float)
        self.levels = np.asarray(levels, dtype=float)
        if self.nodes.size != self.levels.size + 1:
            raise ValueError("need one more node than levels")
        for name, v in (("tilt", self.a), ("nodes", self.nodes),
                        ("levels", self.levels)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite: {v}")
        self.t0, self.t1 = float(self.nodes[0]), float(self.nodes[-1])
        if np.any(np.diff(self.nodes) < -1e-12) or np.any(np.diff(self.levels) < -1e-12):
            raise ValueError("nodes and levels must be nondecreasing")
        if (np.any(self.levels < -1e-12)
                or np.any(self.levels > 1.0 + LEVEL_ONE_TOL)):
            raise ValueError("levels must lie in [0, 1]")
        # the level-1 block is levels[_top:], on [s*, t1] with s* = nodes[_top]
        # (s* = t1 when no level is 1, where the closed form is the boundary)
        top = self.levels.size
        while top > 0 and self.levels[top - 1] >= 1.0 - LEVEL_ONE_TOL:
            top -= 1
        self._top = top
        x_max = 6.0 + 4.0 * math.sqrt(self._var(self.t1, self.t0)) + abs(a) + config.x_pad
        half = x_max / config.dx
        # 2 ceil(half) + 1 < 2 half + 3; an overflowed ratio (inf) fails too
        if not 2.0 * half + 3.0 <= MAX_GRID_POINTS:
            raise GridBudgetError(
                f"x grid of {2.0 * half + 1.0:.4g} points (half-width "
                f"{x_max:g}, dx = {config.dx:g}) exceeds the budget of "
                f"{MAX_GRID_POINTS} points")
        n = int(math.ceil(half))
        self.x_grid = config.dx * np.arange(-n, n + 1)
        self._frames: dict[float, Frame] = {}
        self._level_grads: np.ndarray | None = None
        self._solve(with_gradients)

    # -- construction -----------------------------------------------------

    @staticmethod
    def _key(t: float) -> float:
        return round(float(t), 12)

    def _var(self, t_hi: float, t_lo: float) -> float:
        """xi'(t_hi) - xi'(t_lo): the variance the layers from t_hi down to
        t_lo add, 0 for no width."""
        sp = self.mixture.xi_prime
        return max(sp(t_hi) - sp(t_lo), 0.0)

    def _level_at(self, t: float) -> float:
        """CDF value governing the layer [t, next node)."""
        idx = int(np.searchsorted(self.nodes, t + 1e-13, side="right")) - 1
        idx = min(max(idx, 0), len(self.levels) - 1)
        return float(self.levels[idx])

    def _layer(self, t_hi: float, t_lo: float, level: float,
               rows: tuple[int, int] | None = None
               ) -> tuple[Frame, _Layer | None]:
        """Solved frame at t_hi and the kernel of the layer down to t_lo
        (None when the layer has no width) on the grid rows (first row, row
        count), all of them when rows is None."""
        upper = self._frames[self._key(t_hi)]
        sigma = math.sqrt(self._var(t_hi, t_lo))
        if sigma <= 1e-14:
            return upper, None
        return upper, _Layer(upper, sigma, level,
                             rows or (0, self.x_grid.size), self.config)

    def _off_node_layer(self, t: float, rows: tuple[int, int] | None = None
                        ) -> tuple[Frame, _Layer | None]:
        """Frame at the first node at or above t and the kernel down to t on
        the grid rows of `_layer`."""
        idx = int(np.searchsorted(self.nodes, t + 1e-13, side="left"))
        t_up = float(self.nodes[min(idx, len(self.nodes) - 1)])
        return self._layer(t_up, float(t), self._level_at(t), rows)

    def _in_block(self, t: float) -> bool:
        """Whether t lies in the level-1 block [s*, t1]; ValueError for t
        outside [t0, t1]."""
        if not self.t0 - 1e-12 <= t <= self.t1 + 1e-12:
            raise ValueError(f"time {t} outside [{self.t0}, {self.t1}]")
        return t >= self.nodes[self._top]

    def _block_frame(self, t: float) -> Frame:
        """Closed-form frame at t on the level-1 block: the boundary frame at
        x - a s^2, Phi raised by (1 - a^2) s^2 / 2, s^2 = xi'(t1) - xi'(t)."""
        s2 = self._var(self.t1, t)
        frame = _boundary_frame(self.a, self.x_grid - self.a * s2)
        return frame._replace(
            phi=frame.phi + 0.5 * (1.0 - self.a * self.a) * s2)

    def _store(self, t: float, frame: Frame) -> Frame:
        """Cache the frame at t with its arrays read-only, so no caller can
        write into an array a later read of the solve uses."""
        for arr in frame:
            arr.setflags(write=False)
        self._frames[self._key(t)] = frame
        return frame

    def _solve(self, with_gradients: bool) -> None:
        """Frames from t1 down to t0, closed form on the level-1 block;
        `with_gradients` also pulls the rows of `level_gradients` through each
        layer while it is at hand, so it builds the block's layers too."""
        self._store(self.t1, _boundary_frame(self.a, self.x_grid))
        r = len(self.levels)
        sens: dict[int, np.ndarray] = {}
        for p in range(r - 1, -1, -1):
            t_lo, closed = float(self.nodes[p]), p >= self._top
            if closed:
                lower = self._store(t_lo, self._block_frame(t_lo))
                if not with_gradients:
                    continue
            upper, layer = self._layer(float(self.nodes[p + 1]), t_lo,
                                       float(self.levels[p]))
            if not closed:
                lower = self._store(t_lo, _gibbs_step(upper, layer))
            if not with_gradients:
                continue
            if layer is None:
                sens[p] = np.zeros_like(self.x_grid)
            else:
                sens = {j: layer.pull(S) for j, S in sens.items()}
                sens[p] = layer.level_sensitivity()
            if p > 0:
                s_p = float(self.nodes[p])
                jump = float(self.levels[p] - self.levels[p - 1])
                sens[r - 1 + p] = (-0.5 * self.mixture.xi_double_prime(s_p)
                                   * jump * lower.phi_x * lower.phi_x)
        top = self._frames[self._key(self.t0)]
        edge = max(abs(top.phi_xx[0]), abs(top.phi_xx[-1]))
        if edge > EDGE_CURVATURE_TOL:
            raise RuntimeError(
                f"x grid too small: boundary influence {edge:.2e} at the edge")
        if with_gradients:
            self._level_grads = np.stack([sens[k] for k in range(2 * r - 1)])
            self._level_grads.setflags(write=False)

    def frame_at(self, t: float) -> Frame:
        """Solved frame at time t, its arrays read-only: the closed form on
        the level-1 block, a sub-layer recursion for off-node t below it.
        ValueError for t outside [t0, t1]."""
        key = self._key(t)
        if key in self._frames:
            return self._frames[key]
        return self._store(t, self._block_frame(t) if self._in_block(t)
                           else _gibbs_step(*self._off_node_layer(t)))

    # -- evaluation ---------------------------------------------------------

    def _checked(self, f, x) -> tuple[np.ndarray, np.ndarray]:
        f, x = np.asarray(f, dtype=float), np.asarray(x, dtype=float)
        if f.shape != self.x_grid.shape:
            raise ValueError(f"grid function of shape {f.shape}, not the "
                             f"grid's {self.x_grid.shape}")
        if not np.all(np.abs(x) <= self.x_grid[-1] + 1e-12):   # NaN too
            raise ValueError(
                f"evaluation beyond the solved grid |x| <= {self.x_grid[-1]:g}; "
                "enlarge x_pad")
        return f, x

    def interpolate(self, f, d, x):
        """Cubic Hermite interpolant of the grid function f with slopes d at
        the points x; ValueError for an f not of the grid's length, or an x
        beyond the grid or NaN. Every read of the solve goes through it."""
        f, x = self._checked(f, x)
        return hermite_eval(float(self.x_grid[0]), self.config.dx, f, d, x)

    def phi(self, t: float, x):
        return self.interpolate(*self.frame_at(t)[0:2], x)

    def phi_x(self, t: float, x):
        return self.interpolate(*self.frame_at(t)[1:3], x)

    def phi_xx(self, t: float, x):
        f = self.frame_at(t).phi_xx
        return self.interpolate(f, grid_derivative(f, self.config.dx), x)

    def inverse_phi_x(self, a):
        """Unique x with Phi_x(t0, x) = a (Phi_x is strictly increasing), by
        `_invert` on (Phi_x, Phi_xx) at t0: elementwise over an array of
        slopes of any shape, a float for a scalar slope."""
        a = np.asarray(a, dtype=float)
        x = _invert(self.x_grid, self.config.dx, *self.frame_at(self.t0)[1:], a)
        return x if a.ndim else float(x)

    @cached_property
    def _log_complement(self) -> np.ndarray:
        """log(1 - Phi_x(t0, .)) on the grid. 1 - Phi_x is the Doob average
        of its upper values, so it is pulled from the boundary
        log(1 - tanh x) = log 2 - x - log 2cosh x through the layers in log
        space, and keeps its relative precision where Phi_x rounds to 1. On
        the untilted level-1 block Phi_x is tanh x, so the pulls start at s*."""
        x = self.x_grid
        ell = math.log(2.0) - x - log2cosh(x)
        for p in range(self._top - 1, -1, -1):
            _, layer = self._layer(float(self.nodes[p + 1]),
                                   float(self.nodes[p]), float(self.levels[p]))
            if layer is not None:
                ell = layer.log_pull(ell)
        return ell

    def boundary_inverse_phi_x(self, a):
        """Unique x with Phi_x(t0, x) = a, well conditioned for |a| near 1.

        `_invert` on -log(1 - Phi_x(t0, .)) at -log(1 - |a|), whose slope
        stays of order 1 where Phi_xx (the slope `inverse_phi_x` divides by)
        falls like 1 - |a|; x is odd in a, and arrays go as in
        `inverse_phi_x`. ValueError for a solve with tilt a != 0: the
        boundary log 2cosh x must be untilted.
        """
        if self.a != 0.0:
            raise ValueError("the log-complement inverse expects an untilted "
                             f"(original-boundary) solution, not tilt a = "
                             f"{self.a}")
        a, ell, dx = np.asarray(a, float), -self._log_complement, self.config.dx
        x = np.copysign(_invert(self.x_grid, dx, ell, grid_derivative(ell, dx),
                                -np.log1p(-np.abs(a))), a)
        return x if a.ndim else float(x)

    # -- exact integrals of the order parameter ------------------------------

    def int_xi_pp_zeta(self) -> float:
        """Integral of xi''(s) zeta(s) ds over [t0, t1]."""
        return step_integral(self.nodes, self.levels, self.mixture.xi_prime)

    def int_s_xi_pp_zeta(self) -> float:
        """Integral of s xi''(s) zeta(s) ds over [t0, t1], via the exact
        antiderivative theta = s xi'(s) - xi(s) of s xi''(s)."""
        return step_integral(self.nodes, self.levels, self.mixture.theta)

    # -- sensitivities in the levels and nodes --------------------------------

    def level_gradients(self) -> np.ndarray:
        """d Phi(t0, x) as grid functions, shape (2r - 1, n_grid): rows
        0..r-1 in the levels, rows r..2r-2 in the interior nodes s_1..s_{r-1}.

        Swept by the solve itself, so only a `solve_steps` solution has
        them; the array is read-only. A layer's own level enters by its
        `level_sensitivity`; moving s_j right replaces z_j by z_{j-1} just
        above it, which injects -(1/2) xi''(s_j) (z_j - z_{j-1})
        Phi_x(s_j, .)^2 at s_j. Both propagate to t0 by Gibbs averaging
        through the layers below, as the solve builds them.
        """
        if self._level_grads is None:
            raise ValueError("level gradients are swept only by solve_steps; "
                             "this solution was built without them")
        return self._level_grads

    # -- pathwise expectations -------------------------------------------------

    def path_expectation(self, s: float, f_values: np.ndarray, x_start):
        """E f(X_s) for the optimal-control diffusion started at (t0, x).

        `f_values` holds f on the x grid at time s. The expectation is pulled
        back with the exact layer transition kernels (Doob weights), so the
        result is deterministic up to quadrature error; `interpolate` reads it
        at the starts, and its refusals come before any layer is pulled.
        """
        if not self.t0 - 1e-12 <= s <= self.t1 + 1e-12:
            raise ValueError("measurement time outside the solved interval")
        f_cur, x_start = self._checked(f_values, x_start)
        t_cur = float(s)
        while t_cur > self.t0 + 1e-13:
            idx = int(np.searchsorted(self.nodes, t_cur - 1e-13, side="left")) - 1
            t_lo = float(self.nodes[max(idx, 0)])
            self.frame_at(t_cur)     # solves and caches an off-node start
            _, layer = self._layer(t_cur, t_lo, self._level_at(t_lo))
            if layer is not None:
                f_cur = layer.pull(f_cur)
            t_cur = t_lo
        return self.interpolate(f_cur, grid_derivative(f_cur, self.config.dx),
                                x_start)

    def phi_x_table(self, t: float, lo: int, hi: int) -> np.ndarray:
        """Phi_x at time t on the grid indices lo..hi, without derivative
        bookkeeping.

        Cheaper than frame_at for the many drift evaluations of the SDE
        simulator. On the level-1 block it is the closed form
        tanh(x - a s^2) - a on the window, with frame_at's bits. Below it,
        the same Gibbs-weighted recursion on the same stencil, first moment
        only and on the rows lo..hi alone, which read the whole upper frame:
        the full window 0..n-1 has frame_at's bits, and a narrower one agrees
        with its slice to rounding (the Doob weights' sums and the
        small-level test see fewer rows). At a cached time it is a read-only
        slice of the frame. Like frame_at, refuses t outside [t0, t1], and
        refuses a window not inside the grid.
        """
        if not 0 <= lo <= hi < self.x_grid.size:
            raise ValueError(f"window {lo}..{hi} not inside the grid indices "
                             f"0..{self.x_grid.size - 1}")
        key = self._key(t)
        if key in self._frames:
            return self._frames[key].phi_x[lo:hi + 1]
        if self._in_block(t):
            s2 = self._var(self.t1, t)
            return np.tanh(self.x_grid[lo:hi + 1] - self.a * s2) - self.a
        upper, layer = self._off_node_layer(t, (lo, hi + 1 - lo))
        if layer is None:
            return upper.phi_x[lo:hi + 1]
        return layer.mean(layer.stencil.hermite(upper.phi_x, upper.phi_xx))

    def expected_u_squared(self, s: float, x_start):
        """E[(Phi_x(s, X_s))^2] started from (t0, x_start)."""
        return self.path_expectation(s, self.frame_at(s).phi_x ** 2, x_start)


def solve(model: MixedModel, zeta: OrderParameter,
          config: SolverConfig = DEFAULT_CONFIG) -> PDESolution:
    """Original-boundary Parisi PDE on zeta.interval (inside [0, 1])."""
    t0, t1 = zeta.interval
    if t0 < -1e-12 or t1 > 1.0 + 1e-12:
        raise ValueError("original-boundary solve needs an interval inside [0, 1]")
    return PDESolution(model, zeta.nodes, zeta.levels, 0.0, config)


def solve_steps(model: MixedModel, nodes, levels,
                config: SolverConfig = DEFAULT_CONFIG) -> PDESolution:
    """Original-boundary solve of the CDF `levels` between `nodes`, on
    [nodes[0], nodes[-1]], for the optimizer alone (`tap._evaluate`). Unlike
    `solve`, it keeps zero-mass pieces, the slots the optimizer moves, and
    it sweeps `level_gradients` while it builds each layer, so the optimizer
    never builds one twice."""
    return PDESolution(model, nodes, levels, 0.0, config, with_gradients=True)


def solve_band(shifted: ShiftedModel, a: float, zeta: OrderParameter,
               config: SolverConfig = DEFAULT_CONFIG) -> PDESolution:
    """Band-boundary Parisi PDE on all of [0, 1-q] (ValueError for zeta on
    any other interval): boundary log2 - ax + logcosh x."""
    t0, t1 = zeta.interval
    if abs(t0) > 1e-12 or abs(t1 - shifted.horizon) > 1e-9:
        raise ValueError("band solve requires zeta on [0, 1-q]")
    return PDESolution(shifted.mixture, zeta.nodes, zeta.levels, a, config)


def unify(original_sol: PDESolution, a: float, x):
    """Map an original-boundary solution to the matching band value.

    With I = int_{t0}^{t1} xi'' zeta ds, the band solution with tilt a and
    shifted order parameter equals Phi(t0, x - a I) - a x + (a^2/2) I.
    """
    if original_sol.a != 0.0:
        raise ValueError("unify expects an untilted (original-boundary) solution")
    I = original_sol.int_xi_pp_zeta()
    x = np.asarray(x, dtype=float)
    return original_sol.phi(original_sol.t0, x - a * I) - a * x + 0.5 * a * a * I


def simulate_control(sol: PDESolution, x0: float, n_paths: int,
                     n_steps: int | None = None, seed: int = 0,
                     times=None) -> dict:
    """Antithetic Euler-Maruyama sample of the optimal-control SDE.

    Paths come in pairs driven by opposite increments (n_paths rounds up to
    an even count). At the requested times (default: the nodes of zeta)
    returns the pair averages of u(s)^2 = Phi_x(s, X_s)^2, `pairs_u2`, and
    their mean and standard error. Diffusion increments use the exact
    variance xi'(t + dt) - xi'(t); the drift is explicit Euler, O(dt) bias,
    interpolated linearly at the paths from phi_x_table on the window of
    grid cells the paths occupy, read only on steps where xi'' zeta is not
    0. The normals are drawn up to two steps ahead by the one worker of a
    `ThreadPoolExecutor`, which owns the generator and runs the draws in
    FIFO order, so a seed gives a plain loop's stream; a draw's exception
    reaches the caller through `result()`, and leaving the executor's
    `with` block joins the worker before any return or raise. n_steps None
    takes SDE_STEPS. ValueError for n_paths < 3 (fewer than two pairs),
    n_steps < 1, a non-finite x0, |x0| beyond the escape limit
    x_grid[-1] - 0.5, or a time that is not finite or outside [t0, t1]
    (1e-12 slack, as frame_at), all before any step; RuntimeError when a
    path crosses the escape limit.
    """
    # imported here: concurrent.futures loads logging, which `import gtap`
    # does without
    from concurrent.futures import ThreadPoolExecutor

    x0 = float(x0)
    xlim = float(sol.x_grid[-1]) - 0.5
    if not math.isfinite(x0) or abs(x0) > xlim:
        raise ValueError(f"start x0 = {x0} must be finite with |x0| <= "
                         f"{xlim:g}, the escape limit of the solver grid")
    if n_paths < 3:
        raise ValueError(f"n_paths = {n_paths}: need n_paths >= 3, two "
                         "antithetic pairs for a standard error")
    n_steps = SDE_STEPS if n_steps is None else n_steps
    if n_steps < 1:
        raise ValueError(f"n_steps = {n_steps}: need at least one Euler step")
    if times is None:
        times = [float(t) for t in sol.nodes]
    bad = [t for t in times if not sol.t0 - 1e-12 <= t <= sol.t1 + 1e-12]
    if bad:    # NaN fails both comparisons
        raise ValueError(f"times {bad} not finite or outside the solve's "
                         f"[{sol.t0}, {sol.t1}]")
    times_set = {PDESolution._key(t) for t in times}
    grid = np.unique(np.concatenate(
        [np.linspace(sol.t0, sol.t1, n_steps + 1),
         np.asarray(sorted(times_set), dtype=float)]))
    rng = np.random.default_rng(seed)
    half = (n_paths + 1) // 2
    X = np.full(2 * half, x0)

    pairs_u2: dict[float, np.ndarray] = {}

    def measure(t, Xcur):
        u = sol.phi_x(t, Xcur)
        u2 = u * u
        pairs_u2[PDESolution._key(t)] = 0.5 * (u2[:half] + u2[half:])

    if PDESolution._key(grid[0]) in times_set:
        measure(float(grid[0]), X)
    x0g, dxg = float(sol.x_grid[0]), sol.config.dx
    sp, spp = sol.mixture.xi_prime, sol.mixture.xi_double_prime
    # Horner's rule elementwise: the arrays hold the scalar calls' values
    sigmas = np.sqrt(np.maximum(np.diff(sp(grid)), 0.0))
    spp_grid = spp(grid)
    # the steps work in place on buffers made once: with glibc's default
    # thresholds each fresh path-sized array is mapped anew, and its page
    # faults cost more than its arithmetic
    frac, drift, buf = np.empty_like(X), np.empty_like(X), np.empty_like(X)
    cell = np.empty(X.size, dtype=np.intp)
    # the drift table A = xi'' zeta dt Phi_x and its forward difference B on
    # the window of the step's cells, at the cells' own indices
    a_tab, b_tab = np.empty(sol.x_grid.size), np.empty(sol.x_grid.size)
    x_lo = x_hi = x0
    bufs, n = [np.empty(half) for _ in range(3)], len(grid) - 1

    def draw(k: int) -> np.ndarray:
        # numpy only: a call into gtap would enter perfbench's tracer, whose
        # span stack is not thread-safe. The buffer last held step k - 3,
        # used before step k - 2 is taken and step k submitted
        z = bufs[k % 3]
        rng.standard_normal(out=z)
        z *= sigmas[k]
        return z

    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = [worker.submit(draw, k) for k in range(min(n, 2))]
        for k in range(n):
            t, t_next = float(grid[k]), float(grid[k + 1])
            dt = t_next - t    # > 0: the grid is strictly increasing
            coef = float(spp_grid[k]) * sol._level_at(t)
            if coef != 0.0:
                # every path is at least 0.5 inside the grid (start and
                # escape checks), so the truncated position is the cell and
                # the cell has a right end; the cell is monotone in the
                # position, so the lowest and highest paths give cell.min()
                # and cell.max() + 1, the window no gather leaves
                np.subtract(X, x0g, out=frac)
                frac /= dxg
                np.trunc(frac, out=buf)
                np.copyto(cell, buf, casting="unsafe")
                frac -= buf
                lo, hi = int((x_lo - x0g) / dxg), int((x_hi - x0g) / dxg) + 1
                a = a_tab[lo:hi + 1]
                np.multiply(sol.phi_x_table(t, lo, hi), coef, out=a)
                a *= dt
                np.subtract(a[1:], a[:-1], out=b_tab[lo:hi])
                # mode "clip" writes straight into out (the cells are in
                # the window)
                a_tab.take(cell, out=drift, mode="clip")
                b_tab.take(cell, out=buf, mode="clip")
                buf *= frac
                drift += buf
                X += drift
            z = ahead.pop(0).result()
            if k + 2 < n:
                ahead.append(worker.submit(draw, k + 2))
            X[:half] += z
            X[half:] -= z
            x_lo, x_hi = float(X.min()), float(X.max())
            if x_hi > xlim or x_lo < -xlim:
                raise RuntimeError("SDE path escaped the solver grid; "
                                   "enlarge x_pad")
            if PDESolution._key(t_next) in times_set:
                measure(t_next, X)

    out = {"times": [], "u2_mean": [], "u2_se": [], "pairs_u2": pairs_u2,
           "n_paths": 2 * half}
    for key in sorted(times_set):    # every time is a grid time, measured
        v = pairs_u2[key]
        out["times"].append(key)
        out["u2_mean"].append(float(np.mean(v)))
        # spread about a sample, so equal samples give exactly 0 (the
        # rounded mean of equal values can differ from them by an ulp)
        out["u2_se"].append(float(np.std(v - v[0], ddof=1) / math.sqrt(v.size))
                            if v.size > 1 else 0.0)
    return out


def second_derivative_identity(sol: PDESolution, x0: float,
                               n_paths: int = 100_000, seed: int = 0,
                               n_steps: int | None = None) -> dict:
    """Monte-Carlo check of Phi_xx(t0, x0) = 1 - int E[u(l)^2] dzeta(l).

    The measure integral runs over the atoms of zeta, the jumps of the
    solve's CDF steps (an atom at the right endpoint contributes through the
    boundary derivative), per antithetic pair of paths. Returns both sides,
    the discrepancy, and its standard error. The identity needs the untilted
    boundary, where Phi_xx = 1 - Phi_x^2: a solve with tilt a != 0 is
    refused, as are `simulate_control`'s refusals.
    """
    if sol.a != 0.0:
        raise ValueError("the identity expects an untilted (original-boundary)"
                         f" solution, not tilt a = {sol.a}")
    jumps = np.diff(np.concatenate([[0.0], sol.levels, [1.0]]))
    times, wts = sol.nodes[jumps > 0.0], jumps[jumps > 0.0]
    mc = simulate_control(sol, x0, n_paths, n_steps=n_steps, seed=seed,
                          times=times)
    total = sum(w * mc["pairs_u2"][PDESolution._key(t)]
                for t, w in zip(times, wts))
    rhs = 1.0 - float(np.mean(total))
    se = float(np.std(total, ddof=1) / math.sqrt(total.size))
    lhs = float(sol.phi_xx(sol.t0, x0))
    err = abs(lhs - rhs)
    if se > 0.0:
        n_sigma = err / se
    else:
        n_sigma = 0.0 if err <= 1e-9 else math.inf   # deterministic corner
    return {"lhs": lhs, "rhs": rhs, "se": se, "abs_err": err,
            "n_sigma": n_sigma}


def _parisi_on(h: float):
    """Read-out of Phi(t0, h) - (1/2) int s xi'' zeta: start h, weight 1."""
    def read(sol: PDESolution):
        return (float(sol.phi(sol.t0, h)) - 0.5 * sol.int_s_xi_pp_zeta(), sol,
                np.array([h]), np.ones(1), 0.0)
    return read


def parisi_functional(model: MixedModel, zeta: OrderParameter,
                      config: SolverConfig = DEFAULT_CONFIG) -> float:
    """P(zeta) = Phi_zeta(0, h) - (1/2) int_0^1 s xi''(s) zeta(s) ds, with h
    the model's external field."""
    t0, t1 = zeta.interval
    if abs(t0) > 1e-12 or abs(t1 - 1.0) > 1e-12:
        raise ValueError("the Parisi functional needs zeta on [0, 1]")
    h = model.external_field_h
    return _parisi_on(h)(solve(model, zeta, config.with_pad(abs(h))))[0]


def parisi_measure(model: MixedModel, r_atoms: int = 3,
                   config: SolverConfig = DEFAULT_CONFIG,
                   seed: int | None = None):
    """Minimize `parisi_functional` over r-atom order parameters on [0, 1]:
    `tap._minimize` on the read-out `_parisi_on(h)`, grid padded by |h|, and
    no RS shortcut (Gamma_mu is the TAP correction's criterion). Returns
    (zeta_star, info), info the `value` and `tap_correction`'s diagnostics.

    r counts the optimizer's slot at 0. With h != 0 the Parisi measure
    starts at q_min > 0, so r = 2 holds only an RS measure delta_q, and
    1RSB needs r = 3. Below the AT line r = 2 still stops, `converged`, at
    the best RS point, with certificate `second_slacks` above 0 (for SK the
    AT value minus 1); best r-atom points of FRSB models read above 0 too
    (SK beta = 1.4, h = 0: 0.008 at r = 3), so they do not gate `converged`.
    """
    from .tap import _certify, _minimize   # tap builds on this module

    h, r = model.external_field_h, int(r_atoms)
    if r < 1:
        raise ValueError(f"r_atoms must be at least 1, got {r_atoms}")
    zeta, best, diagnostics = _minimize(model, _parisi_on(h), 0.0, r,
                                        config.with_pad(abs(h)), seed)
    _certify(diagnostics, model, zeta, best)
    return zeta, {"value": best[0], "diagnostics": diagnostics}

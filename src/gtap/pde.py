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
error.

A layer is evaluated through one `numerics.GridStencil` of its quadrature
points x_k + sigma g_j: their cells, cubic Hermite weights and the points
beyond the grid are found once when the layer is made, and Phi and its three
derivatives there (hence the Doob weights and the next frame), the pulled-back
sensitivities and phi_x_table are gathers and weighted sums over it. A
`solve_steps` solve pulls its level and node sensitivities through each layer
while it builds it, so the gradients need no second sweep.

The same Gibbs weights give a deterministic propagator for expectations
E f(X_s) of the optimal-control diffusion

    dX = xi''(s) zeta(s) Phi_x(s, X) ds + sqrt(xi''(s)) dW,

which is the Doob transform of the time-changed Brownian motion by
exp(z Phi). An antithetic Euler-Maruyama simulator of the same SDE is
provided for Monte-Carlo cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .measures import DiscreteMeasure, OrderParameter
from .model import MixedModel, ShiftedModel
from .numerics import (GridStencil, gauss_hermite, grid_derivative,
                       hermite_eval, linear_eval, log2cosh)

__all__ = [
    "SolverConfig", "PDESolution", "solve", "solve_steps", "solve_band",
    "unify", "simulate_control", "second_derivative_identity",
    "parisi_functional", "parisi_measure",
]


# Largest grid step: Phi varies on the unit scale of log cosh. At dx = 1/4
# a value is off by ~1e-5 (xi = s^2 / 8); at dx = 1 by ~2e-3, and at
# dx = 1e300 the grid has three points and the value is off by 0.12.
MAX_GRID_STEP = 0.25


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs shared across the PDE-based functionals."""

    dx: float = 1.0 / 64.0
    gh_order: int = 40
    x_max: float | None = None     # half-width of the x grid; auto if None
    x_pad: float = 0.0             # extra half-width on top of the auto rule

    def __post_init__(self):
        if not 0.0 < self.dx <= MAX_GRID_STEP:
            raise ValueError(f"grid step dx must be in (0, {MAX_GRID_STEP}]: "
                             f"{self.dx}")

    def with_pad(self, pad: float) -> "SolverConfig":
        return replace(self, x_pad=max(self.x_pad, pad))


DEFAULT_CONFIG = SolverConfig()
BISECT_TOL = 1e-10          # x-tolerance of inverse_phi_x
SDE_STEPS = 4096            # default Euler steps of simulate_control
EDGE_CURVATURE_TOL = 1e-2   # largest |Phi_xx| allowed at the grid edges


class Frame:
    """Values of Phi and its first three x-derivatives at a fixed time."""

    __slots__ = ("x0", "dx", "phi", "phi_x", "phi_xx", "phi_xxx")

    def __init__(self, x0, dx, phi, phi_x, phi_xx, phi_xxx):
        self.x0 = x0
        self.dx = dx
        self.phi = phi
        self.phi_x = phi_x
        self.phi_xx = phi_xx
        self.phi_xxx = phi_xxx

    def eval_phi(self, x):
        return hermite_eval(self.x0, self.dx, self.phi, self.phi_x, x)

    def eval_phi_x(self, x):
        return hermite_eval(self.x0, self.dx, self.phi_x, self.phi_xx, x)

    def eval_phi_xx(self, x):
        return hermite_eval(self.x0, self.dx, self.phi_xx, self.phi_xxx, x)


def _boundary_frame(a: float, x: np.ndarray) -> Frame:
    """The boundary log 2cosh x - a x and its x-derivatives."""
    th = np.tanh(x)
    sech2 = 1.0 - th * th
    return Frame(float(x[0]), float(x[1] - x[0]),
                 log2cosh(x) - a * x, th - a, sech2, -2.0 * th * sech2)


def _exp_tail(y: np.ndarray) -> np.ndarray:
    """exp(y) - 1 - y by its Taylor series to y^10: relative error below
    1e-16 for |y| < 0.1, where expm1(y) - y would cancel."""
    coefs = [1.0 / math.factorial(k) for k in range(10, 1, -1)]
    return y * y * np.polyval(coefs, y)


class _Layer:
    """Transition kernel of one layer below an upper frame.

    Holds the stencil of the quadrature points X = x + sigma g and the
    normalized Doob weights exp(level Phi_upper(X)) (plain Gauss-Hermite
    weights at level 0), so that `mean` averages values at X over the layer
    and `pull` averages a grid function.

    A positive level z uses y = z (Phi_upper - c): phi = c + log E exp(y)/z,
    with c the row maximum (no overflow) or, where z (max - min) Phi_upper
    < 0.1, the plain average with E exp(y) - 1 summed as E y plus a Taylor
    tail, so small levels lose no digits (the max form loses log10(1/z)).
    """

    def __init__(self, upper: Frame, sigma: float, level: float,
                 x: np.ndarray, config: SolverConfig):
        g, self.w = gauss_hermite(config.gh_order)
        self.upper = upper
        self.level = level
        self.dx = config.dx
        self.stencil = GridStencil(float(x[0]), config.dx, x.size,
                                   x[:, None] + sigma * g[None, :])
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


def _interp_grid(x0: float, dx: float, f: np.ndarray, xq) -> np.ndarray:
    """Cubic Hermite interpolation of grid values with grid_derivative slopes."""
    return hermite_eval(x0, dx, f, grid_derivative(f, dx), xq)


def _gibbs_step(upper: Frame, layer: _Layer | None) -> Frame:
    """One Cole-Hopf layer backwards: the frame below the upper frame.
    A layer of zero width (`layer` None) shares the upper frame."""
    if layer is None:
        return upper
    st, level = layer.stencil, layer.level
    Px = st.hermite(upper.phi_x, upper.phi_xx)
    Pxx = st.hermite(upper.phi_xx, upper.phi_xxx)
    phi_x, phi_xx = layer.mean(Px), layer.mean(Pxx)
    phi_xxx = layer.mean(st.linear(upper.phi_xxx))
    if level > 0.0:
        # derivatives of (1/z) log E exp(z Phi): Gibbs moments of Phi_x
        om = layer.om
        var = np.sum(om * Px * Px, axis=1) - phi_x * phi_x
        cov = np.sum(om * Pxx * Px, axis=1) - phi_xx * phi_x
        # two products: an array ** 3 goes through pow, ~100x slower
        dev = Px - phi_x[:, None]
        m3 = np.sum(om * (dev * dev * dev), axis=1)
        phi_xx = phi_xx + level * var
        phi_xxx = phi_xxx + 3.0 * level * cov + level ** 2 * m3
    return Frame(upper.x0, upper.dx, layer.phi, phi_x, phi_xx, phi_xxx)


class PDESolution:
    """Layered solution of a Parisi PDE with an atomic order parameter.

    Attributes of note: `mixture`, the xi of the equation (the shifted
    mixture xi_q for a band solve); `x_grid`, the uniform evaluation grid;
    `nodes` and `levels`, the piecewise-constant CDF of zeta; `a`, the tilt
    of the boundary log 2cosh x - a x (0 for the original boundary).
    """

    def __init__(self, mixture: MixedModel, interval, nodes, levels, a: float,
                 config: SolverConfig, zeta: OrderParameter | None = None, *,
                 with_gradients: bool = False):
        self.mixture = mixture
        self.zeta = zeta        # measure form, when constructed from one
        self.a = float(a)
        self.config = config
        t0, t1 = interval
        self.t0, self.t1 = float(t0), float(t1)
        self.nodes = np.asarray(nodes, dtype=float)
        self.levels = np.asarray(levels, dtype=float)
        if self.nodes.size != self.levels.size + 1:
            raise ValueError("need one more node than levels")
        if np.any(np.diff(self.nodes) < -1e-12) or np.any(np.diff(self.levels) < -1e-12):
            raise ValueError("nodes and levels must be nondecreasing")
        if np.any(self.levels < -1e-12) or np.any(self.levels > 1.0 + 1e-12):
            raise ValueError("levels must lie in [0, 1]")
        sp = mixture.xi_prime
        var_total = max(sp(self.t1) - sp(self.t0), 0.0)
        if config.x_max is not None:
            x_max = config.x_max + config.x_pad
        else:
            x_max = 6.0 + 4.0 * math.sqrt(var_total) + abs(a) + config.x_pad
        n = int(math.ceil(x_max / config.dx))
        self.x_grid = config.dx * np.arange(-n, n + 1)
        self._frames: dict[float, Frame] = {}
        self._level_grads: np.ndarray | None = None
        self._solve(with_gradients)

    # -- construction -----------------------------------------------------

    @staticmethod
    def _key(t: float) -> float:
        return round(float(t), 12)

    def _level_at(self, t: float) -> float:
        """CDF value governing the layer [t, next node)."""
        idx = int(np.searchsorted(self.nodes, t + 1e-13, side="right")) - 1
        idx = min(max(idx, 0), len(self.levels) - 1)
        return float(self.levels[idx])

    def _layer(self, t_hi: float, t_lo: float,
               level: float) -> tuple[Frame, _Layer | None]:
        """Solved frame at t_hi and the kernel of the layer down to t_lo
        (None when the layer has no width)."""
        upper = self._frames[self._key(t_hi)]
        sp = self.mixture.xi_prime
        sigma = math.sqrt(max(sp(t_hi) - sp(t_lo), 0.0))
        if sigma <= 1e-14:
            return upper, None
        return upper, _Layer(upper, sigma, level, self.x_grid, self.config)

    def _off_node_layer(self, t: float) -> tuple[Frame, _Layer | None]:
        """Frame at the first node at or above t and the kernel down to t;
        ValueError for t outside [t0, t1]."""
        if not self.t0 - 1e-12 <= t <= self.t1 + 1e-12:
            raise ValueError(f"time {t} outside [{self.t0}, {self.t1}]")
        idx = int(np.searchsorted(self.nodes, t + 1e-13, side="left"))
        t_up = float(self.nodes[min(idx, len(self.nodes) - 1)])
        return self._layer(t_up, float(t), self._level_at(t))

    def _solve(self, with_gradients: bool) -> None:
        """Frames from t1 down to t0; `with_gradients` also pulls the rows of
        `level_gradients` through each layer while it is at hand."""
        self._frames[self._key(self.t1)] = _boundary_frame(self.a, self.x_grid)
        r = len(self.levels)
        sens: dict[int, np.ndarray] = {}
        for p in range(r - 1, -1, -1):
            t_lo = float(self.nodes[p])
            upper, layer = self._layer(float(self.nodes[p + 1]), t_lo,
                                       float(self.levels[p]))
            lower = self._frames[self._key(t_lo)] = _gibbs_step(upper, layer)
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
        """Solved frame at time t (sub-layer recursion for off-node t)."""
        key = self._key(t)
        if key in self._frames:
            return self._frames[key]
        upper, layer = self._off_node_layer(t)
        self._frames[key] = _gibbs_step(upper, layer)
        return self._frames[key]

    # -- evaluation ---------------------------------------------------------

    def _check_x(self, x: np.ndarray) -> np.ndarray:
        if np.any(np.abs(x) > self.x_grid[-1] + 1e-12):
            raise ValueError(
                f"evaluation beyond the solved grid |x| <= {self.x_grid[-1]:g}; "
                "enlarge x_max or x_pad")
        return x

    def phi(self, t: float, x):
        return self.frame_at(t).eval_phi(self._check_x(np.asarray(x, dtype=float)))

    def phi_x(self, t: float, x):
        return self.frame_at(t).eval_phi_x(self._check_x(np.asarray(x, dtype=float)))

    def phi_xx(self, t: float, x):
        return self.frame_at(t).eval_phi_xx(self._check_x(np.asarray(x, dtype=float)))

    def inverse_phi_x(self, t: float, a: float) -> float:
        """Unique x with Phi_x(t, x) = a (Phi_x is strictly increasing)."""
        fr = self.frame_at(t)
        lo, hi = fr.phi_x[0], fr.phi_x[-1]
        if not lo < a < hi:
            raise RuntimeError(
                f"target slope {a} outside grid range ({lo:.6f}, {hi:.6f})")
        x = float(np.interp(a, fr.phi_x, self.x_grid))
        for _ in range(4):
            r = float(fr.eval_phi_x(x)) - a
            c = float(fr.eval_phi_xx(x))
            if c <= 0:
                break
            step = r / c
            x -= step
            if abs(step) < BISECT_TOL:
                break
        if abs(float(fr.eval_phi_x(x)) - a) > 10.0 * BISECT_TOL:
            lo_x, hi_x = float(self.x_grid[0]), float(self.x_grid[-1])
            for _ in range(200):
                mid = 0.5 * (lo_x + hi_x)
                if float(fr.eval_phi_x(mid)) < a:
                    lo_x = mid
                else:
                    hi_x = mid
                if hi_x - lo_x < BISECT_TOL:
                    break
            x = 0.5 * (lo_x + hi_x)
        return x

    # -- exact integrals of the order parameter ------------------------------

    def int_xi_pp_zeta(self) -> float:
        """Integral of xi''(s) zeta(s) ds over [t0, t1]."""
        return float(np.sum(self.levels
                            * np.diff(self.mixture.xi_prime(self.nodes))))

    def int_s_xi_pp_zeta(self) -> float:
        """Integral of s xi''(s) zeta(s) ds over [t0, t1], via the exact
        antiderivative theta = s xi'(s) - xi(s) of s xi''(s)."""
        return float(np.sum(self.levels
                            * np.diff(self.mixture.theta(self.nodes))))

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
        result is deterministic up to quadrature error.
        """
        if not self.t0 - 1e-12 <= s <= self.t1 + 1e-12:
            raise ValueError("measurement time outside the solved interval")
        f_cur = np.asarray(f_values, dtype=float)
        t_cur = float(s)
        while t_cur > self.t0 + 1e-13:
            idx = int(np.searchsorted(self.nodes, t_cur - 1e-13, side="left")) - 1
            t_lo = float(self.nodes[max(idx, 0)])
            self.frame_at(t_cur)     # solves and caches an off-node start
            _, layer = self._layer(t_cur, t_lo, self._level_at(t_lo))
            if layer is not None:
                f_cur = layer.pull(f_cur)
            t_cur = t_lo
        return _interp_grid(float(self.x_grid[0]), self.config.dx, f_cur,
                            np.asarray(x_start, dtype=float))

    def phi_x_table(self, t: float) -> np.ndarray:
        """Phi_x on the grid at time t, without derivative bookkeeping.

        Cheaper than frame_at for the many drift evaluations of the SDE
        simulator; exact same Gibbs-weighted recursion, first moment only.
        Like frame_at, refuses t outside [t0, t1].
        """
        key = self._key(t)
        if key in self._frames:
            return self._frames[key].phi_x
        upper, layer = self._off_node_layer(t)
        if layer is None:
            return upper.phi_x
        return layer.mean(layer.stencil.hermite(upper.phi_x, upper.phi_xx))

    def expected_u_squared(self, s: float, x_start):
        """E[(Phi_x(s, X_s))^2] started from (t0, x_start)."""
        fr = self.frame_at(s)
        return self.path_expectation(s, fr.phi_x ** 2, x_start)


def solve(model: MixedModel, zeta: OrderParameter,
          config: SolverConfig = DEFAULT_CONFIG) -> PDESolution:
    """Original-boundary Parisi PDE on zeta.interval (inside [0, 1])."""
    t0, t1 = zeta.interval
    if t0 < -1e-12 or t1 > 1.0 + 1e-12:
        raise ValueError("original-boundary solve needs an interval inside [0, 1]")
    return PDESolution(model, zeta.interval, zeta.nodes, zeta.levels, 0.0,
                       config, zeta)


def solve_steps(model: MixedModel, interval, nodes, levels,
                config: SolverConfig = DEFAULT_CONFIG) -> PDESolution:
    """Original-boundary solve from an explicit CDF step function, for the
    TAP optimizer alone (`tap._evaluate`). Unlike `solve`, it keeps zero-mass
    pieces, the slots the optimizer moves, and it sweeps `level_gradients`
    while it builds each layer, so the optimizer never builds one twice."""
    return PDESolution(model, interval, nodes, levels, 0.0, config,
                       with_gradients=True)


def solve_band(shifted: ShiftedModel, a: float, zeta: OrderParameter,
               config: SolverConfig = DEFAULT_CONFIG) -> PDESolution:
    """Band-boundary Parisi PDE on all of [0, 1-q] (ValueError for zeta on
    any other interval): boundary log2 - ax + logcosh x."""
    t0, t1 = zeta.interval
    if abs(t0) > 1e-12 or abs(t1 - shifted.horizon) > 1e-9:
        raise ValueError("band solve requires zeta on [0, 1-q]")
    return PDESolution(shifted.mixture, zeta.interval, zeta.nodes, zeta.levels,
                       a, config, zeta)


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
    variance xi'(t + dt) - xi'(t); the drift is explicit Euler, O(dt) bias.
    """
    n_steps = n_steps or SDE_STEPS
    if times is None:
        times = [float(t) for t in sol.nodes]
    times_set = {PDESolution._key(t) for t in times}
    grid = np.unique(np.concatenate(
        [np.linspace(sol.t0, sol.t1, n_steps + 1),
         np.asarray(sorted(times_set), dtype=float)]))
    rng = np.random.default_rng(seed)
    half = (n_paths + 1) // 2
    X = np.full(2 * half, float(x0))

    pairs_u2: dict[float, np.ndarray] = {}

    def measure(t, Xcur):
        u = sol.frame_at(t).eval_phi_x(Xcur)
        u2 = u * u
        pairs_u2[PDESolution._key(t)] = 0.5 * (u2[:half] + u2[half:])

    if PDESolution._key(grid[0]) in times_set:
        measure(float(grid[0]), X)
    xlim = float(sol.x_grid[-1]) - 0.5
    x0g, dxg = float(sol.x_grid[0]), sol.config.dx
    sp, spp = sol.mixture.xi_prime, sol.mixture.xi_double_prime
    for k in range(len(grid) - 1):
        t, t_next = float(grid[k]), float(grid[k + 1])
        dt = t_next - t    # > 0: the grid is strictly increasing
        slope = linear_eval(x0g, dxg, sol.phi_x_table(t), X)
        drift = spp(t) * sol._level_at(t) * slope
        sig = math.sqrt(max(sp(t_next) - sp(t), 0.0))
        z = rng.standard_normal(half)
        z = np.concatenate([z, -z])
        X = X + drift * dt + sig * z
        if np.any(np.abs(X) > xlim):
            raise RuntimeError("SDE path escaped the solver grid; enlarge x_max")
        if PDESolution._key(t_next) in times_set:
            measure(t_next, X)

    out = {"times": [], "u2_mean": [], "u2_se": [], "pairs_u2": pairs_u2,
           "n_paths": 2 * half}
    for key in sorted(times_set):
        if key not in pairs_u2:
            continue
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

    The measure integral runs over the atoms of zeta (an atom at the right
    endpoint contributes through the boundary derivative), per antithetic
    pair of paths. Returns both sides, the discrepancy, and its standard error.
    """
    if sol.zeta is None:
        raise ValueError("solution was built without a measure-form zeta")
    atoms = sol.zeta.measure.atoms
    times = [loc for loc, _ in atoms]
    mc = simulate_control(sol, x0, n_paths, n_steps=n_steps, seed=seed,
                          times=times)
    total = None
    for loc, wt in atoms:
        vals = mc["pairs_u2"][PDESolution._key(loc)]
        total = wt * vals if total is None else total + wt * vals
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


def parisi_functional(model: MixedModel, zeta: OrderParameter,
                      config: SolverConfig = DEFAULT_CONFIG) -> float:
    """P(zeta) = Phi_zeta(0, h) - (1/2) int_0^1 s xi''(s) zeta(s) ds, with h
    the model's external field."""
    t0, t1 = zeta.interval
    if abs(t0) > 1e-12 or abs(t1 - 1.0) > 1e-12:
        raise ValueError("the Parisi functional needs zeta on [0, 1]")
    h = model.external_field_h
    sol = solve(model, zeta, config.with_pad(abs(h)))
    return float(sol.phi(0.0, h)) - 0.5 * sol.int_s_xi_pp_zeta()


def parisi_measure(model: MixedModel, r_atoms: int = 3,
                   config: SolverConfig = DEFAULT_CONFIG,
                   seed: int | None = None):
    """Minimize the Parisi functional over r-atom order parameters on [0, 1].

    Delegates to the TAP variational machinery at mu = delta_0, for which
    the two functionals coincide when the external field h is 0; a model
    with h != 0 is rejected. Returns (zeta_star, info).
    """
    from .tap import tap_correction

    if model.external_field_h != 0.0:
        raise ValueError("parisi_measure needs external field h = 0: "
                         "its mu = delta_0 TAP form holds only there")
    mu0 = DiscreteMeasure.delta(0.0, interval=(0.0, 1.0))
    res = tap_correction(model, mu0, r_atoms=r_atoms, config=config, seed=seed)
    info = {"value": res.value, "diagnostics": res.diagnostics}
    return res.minimizer_zeta, info

"""Generalized TAP correction and its variational machinery.

Central objects, for a magnetization law mu on [0, 1] with q = int a^2 dmu:

* Lambda(q, a) = inf_x (Phi_zeta(q, x) - a x), the concave conjugate of the
  original-boundary PDE solution, with minimizer x = psi_bar(q, a, zeta).
* TAP(mu, zeta) = int Lambda(q, a) dmu - (1/2) int_q^1 s xi''(s) zeta(s) ds,
  and TAP(mu) = inf over order parameters zeta (zeta = 0 on [0, q)).
* The effective field v_zeta(a), the root of d/dx Phi^band_{a,zeta}(0, .) = 0,
  and the band functionals P_mu^v(lambda, zeta) it enters; the minimizer of
  TAP(mu, .) is the unique fixed point of the band representation.

The minimization over r-atom order parameters runs projected gradient
descent on the CDF levels at fixed nodes (the problem is convex in the
levels) with exact level gradients from the solver's forward sensitivities,
followed by coordinate search on node locations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import (BOUNDARY_ATOM_TOL, DiscreteMeasure, OrderParameter,
                       band_coords, restrict_zeta)
from .model import MixedModel, ShiftedModel
from .numerics import gauss_legendre, golden_section, project_monotone
from .pde import (DEFAULT_CONFIG, PDESolution, SolverConfig, _interp_grid,
                  simulate_control, solve_band, solve_steps)

__all__ = [
    "TapResult", "EffectiveField", "lambda_conj", "psi_bar", "psi",
    "effective_field", "tap_with_zeta", "tap_correction", "band_functional",
    "directional_derivative", "optimality_check",
]


# ---------------------------------------------------------------------------
# concave conjugate and effective fields


def _grid_pad_for(a_max: float, extra: float = 0.0) -> float:
    """Extra x-grid half-width needed to bracket slopes up to a_max."""
    a_max = min(abs(a_max), 1.0 - 1e-12)
    pad = extra
    if a_max > 0.9:
        pad += math.atanh(a_max) + 2.0
    return pad


def _orig_solution(model: MixedModel, q: float, zeta: OrderParameter,
                   config: SolverConfig, a_max: float = 0.0) -> PDESolution:
    zq = restrict_zeta(zeta, q)
    cfg = config.with_pad(_grid_pad_for(a_max)) if a_max else config
    return solve_steps(model, zq.interval, zq.nodes, zq.levels, cfg)


def lambda_conj(model: MixedModel, q: float, a: float, zeta: OrderParameter,
                config: SolverConfig = DEFAULT_CONFIG,
                sol: PDESolution | None = None) -> tuple[float, float]:
    """Concave conjugate Lambda_zeta(q, a) and its minimizer x*.

    For |a| = 1 the infimum is the limit (1/2) int_q^1 xi'' zeta ds and the
    minimizer escapes to +-infinity (returned as a signed inf sentinel).
    """
    if abs(a) > 1.0 + 1e-12:
        raise ValueError("conjugate argument must lie in [-1, 1]")
    if sol is None:
        sol = _orig_solution(model, q, zeta, config, a_max=abs(a))
    if abs(a) >= 1.0 - BOUNDARY_ATOM_TOL:
        return 0.5 * sol.int_xi_pp_zeta(), math.copysign(math.inf, a)
    x_star = sol.inverse_phi_x(sol.t0, a)
    lam = float(sol.phi(sol.t0, x_star)) - a * x_star
    return lam, x_star


def psi_bar(model: MixedModel, q: float, a: float, zeta: OrderParameter,
            config: SolverConfig = DEFAULT_CONFIG,
            sol: PDESolution | None = None) -> float:
    """Unique x with d/dx Phi_zeta(q, x) = a (odd in a)."""
    if abs(a) >= 1.0:
        raise ValueError("psi_bar requires |a| < 1")
    if sol is None:
        sol = _orig_solution(model, q, zeta, config, a_max=abs(a))
    return sol.inverse_phi_x(sol.t0, a)


def psi(model: MixedModel, q: float, a: float, zeta: OrderParameter,
        config: SolverConfig = DEFAULT_CONFIG,
        sol: PDESolution | None = None) -> float:
    """psi_bar(q, a, zeta) + a int_q^1 xi''(s) zeta(s) ds.

    Coincides with the band effective field v at the shifted order
    parameter: psi(q, a, zeta) = v_{theta_q zeta}(a).
    """
    if sol is None:
        sol = _orig_solution(model, q, zeta, config, a_max=abs(a))
    return psi_bar(model, q, a, zeta, config, sol) + a * sol.int_xi_pp_zeta()


class EffectiveField:
    """The field a -> v_zeta(a) forcing zero into the band Parisi support.

    v_zeta(a) is the unique root of d/dx Phi^band_{a,zeta}(0, .); it is
    strictly increasing with v_zeta(0) = 0 and diverges as a -> 1. Band
    solutions are solved lazily and memoized per atom a.
    """

    def __init__(self, shifted: ShiftedModel, zeta_band: OrderParameter,
                 config: SolverConfig = DEFAULT_CONFIG):
        self.shifted = shifted
        self.q = shifted.q
        self.zeta_band = zeta_band
        self.config = config
        self._solutions: dict[float, PDESolution] = {}
        self._values: dict[float, float] = {}

    def solution_for(self, a: float, x_reach: float = 0.0) -> PDESolution:
        key = round(float(a), 14)
        sol = self._solutions.get(key)
        pad = _grid_pad_for(a, extra=abs(a) * self.shifted.xi_q_prime(self.shifted.horizon))
        if sol is None or (x_reach and sol.x_grid[-1] < x_reach + 1.0):
            cfg = self.config.with_pad(max(pad, x_reach + 2.0 if x_reach else pad))
            sol = solve_band(self.shifted, a, self.zeta_band, cfg)
            self._solutions[key] = sol
        return sol

    def __call__(self, a: float) -> float:
        if not -1.0 < a < 1.0:
            raise ValueError("effective field diverges at |a| = 1; clip the atom")
        key = round(float(a), 14)
        if key not in self._values:
            sol = self.solution_for(a)
            self._values[key] = sol.inverse_phi_x(0.0, 0.0)
        return self._values[key]


def effective_field(shifted: ShiftedModel, zeta_band: OrderParameter,
                    config: SolverConfig = DEFAULT_CONFIG) -> EffectiveField:
    return EffectiveField(shifted, zeta_band, config)


# ---------------------------------------------------------------------------
# TAP functionals


def _fold(mu: DiscreteMeasure) -> DiscreteMeasure:
    if mu.interval[0] < -1e-12 or np.any(mu.locations < -1e-12):
        return mu.fold_abs()
    if mu.interval != (0.0, 1.0):
        return DiscreteMeasure(interval=(0.0, 1.0), atoms=mu.atoms)
    return mu


def tap_with_zeta(model: MixedModel, mu: DiscreteMeasure,
                  zeta: OrderParameter,
                  config: SolverConfig = DEFAULT_CONFIG) -> float:
    """TAP(mu, zeta) = int Lambda_zeta(q, a) dmu - (1/2) int_q^1 s xi'' zeta ds."""
    mu = _fold(mu)
    q = mu.moment(2)
    if q >= 1.0 - 1e-12:
        return 0.0
    a_max = float(np.max(mu.locations[mu.locations < 1.0 - BOUNDARY_ATOM_TOL],
                         initial=0.0))
    sol = _orig_solution(model, q, zeta, config, a_max=a_max)
    total = 0.0
    for a, w in mu.atoms:
        lam, _ = lambda_conj(model, q, a, zeta, config, sol=sol)
        total += w * lam
    return total - 0.5 * sol.int_s_xi_pp_zeta()


def band_functional(shifted: ShiftedModel, mu: DiscreteMeasure, v, lam: float,
                    zeta_band: OrderParameter,
                    config: SolverConfig = DEFAULT_CONFIG,
                    variant: str = "bar",
                    field: EffectiveField | None = None) -> float:
    """P_mu^v(lambda, zeta) = int Phi_{a,zeta}(0, lambda a + v(a)) dmu
    - (1/2) int_0^{1-q} s xi_q''(s) zeta(s) ds.

    variant="bar" integrates over [0, 1) (atoms at 1 dropped); "full" keeps
    them and requires v finite at 1. `v` is a callable on [0, 1).
    """
    mu = _fold(mu)
    ev = field if field is not None else EffectiveField(shifted, zeta_band, config)
    total = 0.0
    for a, w in mu.atoms:
        if a >= 1.0 - BOUNDARY_ATOM_TOL:
            if variant == "bar":
                continue
            raise ValueError("the full variant needs a finite field at a = 1")
        x = lam * a + float(v(a))
        sol = ev.solution_for(a, x_reach=abs(x))
        total += w * float(sol.phi(0.0, x))
    # theta_q is the antiderivative of s xi_q''(s)
    return total - 0.5 * zeta_band.integral_against(shifted.theta_q)


# ---------------------------------------------------------------------------
# variational step representation used by the optimizer


@dataclass
class _Steps:
    """CDF z_p on pieces [s_p, s_{p+1}) with s_0 = q and s_r = 1."""

    q: float
    inner_nodes: np.ndarray     # s_0 .. s_{r-1}
    levels: np.ndarray          # z_0 .. z_{r-1}, nondecreasing in [0, 1]

    @property
    def full_nodes(self) -> np.ndarray:
        return np.concatenate([self.inner_nodes, [1.0]])

    def to_order_parameter(self) -> OrderParameter:
        atoms = []
        prev = 0.0
        for s, z in zip(self.inner_nodes, self.levels):
            w = z - prev
            if w > 1e-12:
                atoms.append((float(s), float(w)))
            prev = z
        if 1.0 - prev > 1e-12:
            atoms.append((1.0, 1.0 - prev))
        if not atoms:
            atoms = [(1.0, 1.0)]
        return OrderParameter.from_atoms((self.q, 1.0), atoms)


def _steps_value(model: MixedModel, mu: DiscreteMeasure, st: _Steps,
                 config: SolverConfig, want_grad: bool):
    """TAP(mu, zeta(st)) and optionally its gradient in the levels."""
    sol = solve_steps(model, (st.q, 1.0), st.full_nodes, st.levels, config)
    q = st.q
    sp = sol.sp
    I_all = sol.int_xi_pp_zeta()
    val = -0.5 * sol.int_s_xi_pp_zeta()
    xbars, wts, boundary_w = [], [], 0.0
    for a, w in mu.atoms:
        if a >= 1.0 - BOUNDARY_ATOM_TOL:
            val += w * 0.5 * I_all
            boundary_w += w
        else:
            xb = sol.inverse_phi_x(q, a)
            val += w * (float(sol.phi(q, xb)) - a * xb)
            xbars.append(xb)
            wts.append(w)
    if not want_grad:
        return float(val), None, sol
    nodes = st.full_nodes
    theta = lambda s: s * sp(s) - sol.int_sp(s)
    grad = np.zeros(st.levels.size)
    if xbars:
        S = sol.level_gradients()
        xb = np.asarray(xbars)
        wv = np.asarray(wts)
        for p in range(st.levels.size):
            vals = _interp_grid(float(sol.x_grid[0]), config.dx, S[p], xb)
            grad[p] += float(np.sum(wv * vals))
    for p in range(st.levels.size):
        dsp = sp(nodes[p + 1]) - sp(nodes[p])
        grad[p] += 0.5 * boundary_w * dsp
        grad[p] -= 0.5 * (theta(float(nodes[p + 1])) - theta(float(nodes[p])))
    return float(val), grad, sol


def _optimize_levels(model, mu, st: _Steps, config, tol=1e-10,
                     max_iter=400) -> tuple[_Steps, float, dict]:
    z = project_monotone(st.levels)
    val, grad, _ = _steps_value(model, mu, _Steps(st.q, st.inner_nodes, z),
                                config, True)
    step = 1.0
    n_eval = 1
    for _ in range(max_iter):
        z_try = project_monotone(z - step * grad)
        if np.max(np.abs(z_try - z)) < 1e-13:
            break
        v_try, g_try, _ = _steps_value(
            model, mu, _Steps(st.q, st.inner_nodes, z_try), config, True)
        n_eval += 1
        if v_try <= val + 1e-15:
            z, val, grad = z_try, v_try, g_try
            step = min(step * 1.6, 64.0)
        else:
            step *= 0.3
            if step < 1e-13:
                break
        pg = np.max(np.abs(z - project_monotone(z - grad)))
        if pg < tol:
            break
    pg = float(np.max(np.abs(z - project_monotone(z - grad))))
    return (_Steps(st.q, st.inner_nodes, z), val,
            {"n_eval": n_eval, "projected_grad": pg})


def _mean_u_squared_factory(model, mu: DiscreteMeasure, st: _Steps, config):
    """gbar(s) = int E[u(s)^2] dmu at the conjugate starting points."""
    sol = solve_steps(model, (st.q, 1.0), st.full_nodes, st.levels, config)
    runs, w_edge = _conjugate_runs(sol, mu)

    def gbar(s: float) -> float:
        return _mean_sq_derivative(runs, s, 1) + w_edge

    return gbar


def _relocate_nodes(model, mu, st: _Steps, val: float, config,
                    rounds: int = 2) -> tuple[_Steps, float]:
    """Move interior nodes onto the stationarity curve gbar(s) = s.

    The derivative of the functional in a node location is proportional to
    (gbar(s) - s) times the level jump, so an optimal atom sits where the
    expected squared slope matches s; nodes without a level jump carry no
    mass and are left alone. Falls back to value-based golden search when
    the stationarity equation has no sign change in the bracket.
    """
    inner = st.inner_nodes.copy()
    z = st.levels
    for _ in range(rounds):
        gbar = _mean_u_squared_factory(model, mu, _Steps(st.q, inner, z), config)
        moved = False
        for j in range(1, inner.size):
            jump = z[j] - z[j - 1]
            if jump < 1e-9:
                continue
            lo = inner[j - 1] + 1e-5
            hi = (inner[j + 1] if j + 1 < inner.size else 1.0) - 1e-5
            if hi - lo < 1e-5:
                continue

            def h(s):
                return gbar(s) - s

            def val_at(s):
                trial = inner.copy()
                trial[j] = s
                v, _, _ = _steps_value(model, mu, _Steps(st.q, trial, z),
                                       config, False)
                return v

            h_lo, h_hi = h(lo), h(hi)
            s_new = None
            if h_lo > 0 > h_hi:
                a_, b_ = lo, hi
                for _ in range(50):
                    mid = 0.5 * (a_ + b_)
                    if h(mid) > 0:
                        a_ = mid
                    else:
                        b_ = mid
                    if b_ - a_ < 1e-10:
                        break
                cand = 0.5 * (a_ + b_)
                # the frozen-solution root can overshoot far from the
                # optimum; keep it only if the value actually improves
                if val_at(cand) < val - 1e-13:
                    s_new = cand
            if s_new is None:
                s_best, v_best = golden_section(val_at, lo, hi, tol=1e-5)
                if v_best < val - 1e-13:
                    s_new = s_best
            if s_new is not None and abs(s_new - inner[j]) > 1e-12:
                inner[j] = s_new
                val = val_at(s_new)
                moved = True
        if not moved:
            break
    return _Steps(st.q, inner, z), val


@dataclass(frozen=True)
class TapResult:
    """Outcome of the TAP correction minimization."""

    value: float
    minimizer_zeta: OrderParameter
    q: float
    diagnostics: dict


def _conjugate_runs(sol: PDESolution, mu: DiscreteMeasure):
    """Runs [(sol, psi_bar(t0, a), weights)] over the atoms of mu below the
    boundary, and the mass of the boundary atoms, whose slope u is 1."""
    starts, wts, w_edge = [], [], 0.0
    for a, w in mu.atoms:
        if a >= 1.0 - BOUNDARY_ATOM_TOL:
            w_edge += w
        else:
            starts.append(sol.inverse_phi_x(sol.t0, a))
            wts.append(w)
    return [(sol, np.asarray(starts), np.asarray(wts))], w_edge


def _band_runs(field: EffectiveField, v, atoms):
    """Runs [(band solution, [v(a)], [w])], one per atom (a, w) of mu."""
    runs = []
    for a, w in atoms:
        x0 = float(v(a))
        runs.append((field.solution_for(a, x_reach=abs(x0)), np.array([x0]),
                     np.array([w])))
    return runs


def _mean_sq_derivative(runs, s: float, k: int) -> float:
    """int E[(d^k/dx^k Phi(s, X_s))^2] dmu for k = 1, 2.

    `runs` holds (solution, start points X_{t0}, weights) triples; the
    expectations are the solutions' deterministic path propagations.
    """
    total = 0.0
    for sol, starts, wts in runs:
        if s <= sol.t0 + 1e-13:
            vals = (sol.phi_x if k == 1 else sol.phi_xx)(sol.t0, starts) ** 2
        else:
            fr = sol.frame_at(s)
            vals = sol.path_expectation(
                s, (fr.phi_x if k == 1 else fr.phi_xx) ** 2, starts)
        total += float(np.sum(wts * vals))
    return total


def _stationarity(runs, zeta: OrderParameter, xi_pp,
                  w_edge: float = 0.0) -> dict:
    """Stationarity residuals on the support of zeta.

    On the support, int E[u(s)^2] dmu should equal s and
    xi''(s) int E[(Phi_xx(s, X_s))^2] dmu should stay <= 1; atoms of mu at
    the boundary add `w_edge` to the first (u = 1) and nothing to the second.
    """
    support = [float(u) for u, _ in zeta.measure.atoms]
    first, second = [], []
    for s in support:
        first.append(_mean_sq_derivative(runs, s, 1) + w_edge - s)
        second.append(xi_pp(s) * _mean_sq_derivative(runs, s, 2) - 1.0)
    return {
        "support": support,
        "first_residuals": first,
        "second_slacks": second,
        "first_residual": float(np.max(np.abs(first))) if first else 0.0,
        "second_max": float(np.max(second)) if second else -1.0,
    }


def _certificate(model: MixedModel, mu: DiscreteMeasure,
                 zeta: OrderParameter, config: SolverConfig) -> dict:
    """Stationarity residuals of zeta in original coordinates, with the
    control diffusion started at psi_bar(q, a)."""
    q = mu.moment(2)
    a_max = float(np.max(mu.locations[mu.locations < 1.0 - BOUNDARY_ATOM_TOL],
                         initial=0.0))
    sol = _orig_solution(model, q, zeta, config, a_max=a_max)
    runs, w_edge = _conjugate_runs(sol, mu)
    return _stationarity(runs, zeta, model.xi_double_prime, w_edge)


def tap_correction(model: MixedModel, mu: DiscreteMeasure, r_atoms: int = 4,
                   config: SolverConfig = DEFAULT_CONFIG,
                   seed: int | None = None, node_rounds: int = 2,
                   with_representation: bool = True,
                   with_certificate: bool = True) -> TapResult:
    """Minimize zeta -> TAP(mu, zeta) over r-atom order parameters on [q, 1].

    Levels are optimized by projected gradient (the problem is convex in the
    CDF values at fixed nodes), nodes by coordinate search. Also
    cross-evaluates the band representation inf P_bar_mu^{v_zeta}(0, zeta) at
    the found minimizer and reports the gap.

    The correction does not depend on the model's external field h: the
    field enters the TAP free energy only through the energy H(m).
    """
    mu = _fold(mu)
    q = mu.moment(2)
    if q >= 1.0 - 1e-12:
        trivial = OrderParameter.delta_at(1.0, (1.0, 1.0))
        return TapResult(value=0.0, minimizer_zeta=trivial, q=1.0,
                         diagnostics={"trivial": True, "converged": True})
    r = max(int(r_atoms), 1)
    rng = np.random.default_rng(seed)
    if seed is None:
        inner = q + (1.0 - q) * np.arange(r) / r
        levels = np.linspace(1.0 / r, 1.0, r)
    else:
        inner = np.concatenate(
            [[q], q + (1.0 - q) * np.sort(rng.uniform(0.05, 0.95, size=r - 1))])
        levels = np.sort(rng.uniform(0.0, 1.0, size=r))
    st = _Steps(q, inner, levels)

    st, val, info = _optimize_levels(model, mu, st, config)
    if r > 1:
        for _ in range(max(node_rounds, 0)):
            st2, val2 = _relocate_nodes(model, mu, st, val, config, rounds=1)
            st2, val2, info2 = _optimize_levels(model, mu, st2, config)
            improved = val - val2 > 1e-12
            st, val = st2, val2
            info = info2
            if not improved:
                break

    # prefer fewer atoms when the value is within 1e-9: greedily merge the
    # closest pair of atoms into their weighted mean as long as it is free
    zeta = st.to_order_parameter()
    atoms = list(zeta.measure.atoms)
    while len(atoms) > 1:
        gaps = [atoms[i + 1][0] - atoms[i][0] for i in range(len(atoms) - 1)]
        i = int(np.argmin(gaps))
        (x0, w0), (x1, w1) = atoms[i], atoms[i + 1]
        merged = atoms[:i] + [((x0 * w0 + x1 * w1) / (w0 + w1), w0 + w1)] \
            + atoms[i + 2:]
        cand = OrderParameter.from_atoms((q, 1.0), merged)
        v_cand = tap_with_zeta(model, mu, cand, config)
        if v_cand <= val + 1e-9:
            zeta, atoms = cand, merged
            val = min(val, v_cand)
        else:
            break

    diagnostics = {
        "converged": info["projected_grad"] < 1e-6,
        "projected_grad": info["projected_grad"],
        "level_evals": info["n_eval"],
        "trivial": False,
    }
    if with_certificate:
        diagnostics["certificate"] = _certificate(model, mu, zeta, config)
    if with_representation:
        shifted = model.shift(q)
        zb = band_coords(zeta)
        field = EffectiveField(shifted, zb, config)
        pbar = band_functional(shifted, mu, field, 0.0, zb, config,
                               variant="bar", field=field)
        diagnostics["pbar_value"] = pbar
        diagnostics["representation_gap"] = abs(pbar - val)
    return TapResult(value=float(val), minimizer_zeta=zeta, q=q,
                     diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# band-coordinate derivative and optimality certificate


def directional_derivative(shifted: ShiftedModel, mu: DiscreteMeasure,
                           v0, zeta0: OrderParameter, v1, zeta1: OrderParameter,
                           config: SolverConfig = DEFAULT_CONFIG,
                           n_quad: int = 12, method: str = "quadrature",
                           mc_paths: int = 20000, seed: int = 0) -> float:
    """Right derivative of b -> P_bar_mu^{v_b}(0, zeta_b) at b = 0 along the
    segment from (v0, zeta0) to (v1, zeta1):

        (1/2) int xi_q''(s) (zeta1 - zeta0)(s) [ int E u(s)^2 dmu - s ] ds
        + int (v1 - v0)(a) Phi_x^band_{a,zeta0}(0, v0(a)) dmu(a).

    E u(s)^2 is the band optimal-control second moment started from v0(a),
    computed by deterministic propagation (method="quadrature") or
    Euler-Maruyama Monte Carlo (method="mc").
    """
    mu = _fold(mu)
    atoms = [(a, w) for a, w in mu.atoms if a < 1.0 - BOUNDARY_ATOM_TOL]
    runs = _band_runs(EffectiveField(shifted, zeta0, config), v0, atoms)

    def mean_u2(s: float) -> float:
        if method != "mc":
            return _mean_sq_derivative(runs, s, 1)
        return sum(w[0] * simulate_control(sol, float(x0[0]), mc_paths,
                                           seed=seed, times=[s])["u2_mean"][0]
                   for sol, x0, w in runs)

    # s-integral: (zeta1 - zeta0) is piecewise constant between the union of
    # node sets; integrate the smooth factor with Gauss-Legendre per piece.
    pts = np.unique(np.concatenate([zeta0.nodes, zeta1.nodes]))
    gl_x, gl_w = gauss_legendre(n_quad)
    term1 = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        dz = float(zeta1.cdf(0.5 * (lo + hi)) - zeta0.cdf(0.5 * (lo + hi)))
        if abs(dz) < 1e-15 or hi - lo < 1e-14:
            continue
        s_nodes = lo + (hi - lo) * gl_x
        acc = 0.0
        for s, w in zip(s_nodes, gl_w):
            acc += w * shifted.xi_q_double_prime(s) * (mean_u2(float(s)) - float(s))
        term1 += 0.5 * dz * acc * (hi - lo)

    term2 = 0.0
    for (a, w), (sol, x0, _) in zip(atoms, runs):
        dv = float(v1(a)) - float(x0[0])
        if abs(dv) < 1e-15:
            continue
        term2 += w * dv * float(sol.phi_x(0.0, float(x0[0])))
    return term1 + term2


def optimality_check(shifted: ShiftedModel, mu: DiscreteMeasure,
                     zeta_band: OrderParameter,
                     config: SolverConfig = DEFAULT_CONFIG,
                     field: EffectiveField | None = None) -> dict:
    """Certificate at (v_zeta, zeta) in band coordinates.

    At a true minimizer, for every s in supp(zeta):
      int E[(Phi_x(s, X_s))^2] dmu(a) = s            (residual ~ 0)
      xi_q''(s) int E[(Phi_xx(s, X_s))^2] dmu(a) <= 1 (slack <= 0)
    with X started at v_zeta(a) and the mu-integral over [0, 1).
    """
    mu = _fold(mu)
    ev = field if field is not None else EffectiveField(shifted, zeta_band, config)
    atoms = [(a, w) for a, w in mu.atoms if a < 1.0 - BOUNDARY_ATOM_TOL]
    return _stationarity(_band_runs(ev, ev, atoms), zeta_band,
                         shifted.xi_q_double_prime)

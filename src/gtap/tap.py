"""Generalized TAP correction and its variational machinery.

Central objects, for a magnetization law mu on [0, 1] with q = int a^2 dmu:

* Lambda(q, a) = inf_x (Phi_zeta(q, x) - a x), the concave conjugate of the
  original-boundary PDE solution, with minimizer x = psi_bar(q, a, zeta).
* TAP(mu, zeta) = int Lambda(q, a) dmu - (1/2) int_q^1 s xi''(s) zeta(s) ds,
  and TAP(mu) = inf over order parameters zeta (zeta = 0 on [0, q)).
* The effective field v_zeta(a), the root of d/dx Phi^band_{a,zeta}(0, .) = 0,
  and the band functionals P_mu^v(lambda, zeta) it enters; the minimizer of
  TAP(mu, .) is the unique fixed point of the band representation.

The minimization starts from the paper's replica-symmetric theorem: when
the closed-form stability curve Gamma_mu (`rs.is_replica_symmetric`) is
strictly negative on the band, the minimizer is delta_q and no optimizer
runs. Otherwise it is one projected-gradient loop over r-atom order
parameters, on the CDF levels and the node locations together, with BFGS
steps on the active face; the exact gradient comes from one backward sweep
of the solver (`PDESolution.level_gradients`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import rs
from .measures import (BOUNDARY_ATOM_TOL, DiscreteMeasure, OrderParameter,
                       band_coords, fold_law, restrict_zeta, split_boundary)
from .model import MixedModel, ShiftedModel
from .numerics import gauss_legendre, project_monotone
from .pde import (DEFAULT_CONFIG, PDESolution, SolverConfig, _interp_grid,
                  solve, solve_band, solve_steps)

__all__ = [
    "TapResult", "EffectiveField", "lambda_conj", "psi_bar", "psi",
    "effective_field", "tap_with_zeta", "tap_correction", "band_functional",
    "directional_derivative", "optimality_check",
]

OPT_TOL = 1e-7             # projected-gradient tolerance of _optimize
OPT_FTOL = 1e-12           # value change that counts as a stall
OPT_MAX_EVALS = 400        # cap on its TAP evaluations
CERTIFICATE_TOL = 1e-4     # largest first_residual of a converged minimizer
DERIV_GL_ORDER = 12        # Gauss-Legendre order per piece of the s-integral


# ---------------------------------------------------------------------------
# concave conjugate and effective fields


def _grid_pad_for(a_max: float, extra: float = 0.0) -> float:
    """Extra x-grid half-width needed to bracket slopes up to a_max."""
    a_max = min(abs(a_max), 1.0 - 1e-12)
    pad = extra
    if a_max > 0.9:
        pad += math.atanh(a_max) + 2.0
    return pad


def _restricted(zeta: OrderParameter, q: float) -> OrderParameter:
    """zeta restricted to [q, 1]; ValueError when its interval does not end
    at 1."""
    zq = restrict_zeta(zeta, q)
    if abs(zq.interval[1] - 1.0) > 1e-12:
        raise ValueError(f"order parameter must end at 1, not {zq.interval[1]}")
    return zq


def _orig_solution(model: MixedModel, q: float, zeta: OrderParameter,
                   config: SolverConfig, a_max: float = 0.0) -> PDESolution:
    """Plain solve of zeta restricted to [q, 1], padded for slopes up to
    a_max."""
    return solve(model, _restricted(zeta, q),
                 config.with_pad(_grid_pad_for(a_max)))


def _at_boundary(a: float) -> bool:
    """The one boundary rule of Lambda and psi_bar: |a| >= 1 - BOUNDARY_ATOM_TOL
    takes the |a| = 1 limits, where inverting Phi_x is ill-conditioned."""
    return abs(a) >= 1.0 - BOUNDARY_ATOM_TOL


def _conj(sol: PDESolution, a: float) -> tuple[float, float]:
    """(Phi(q, psi_bar) - a psi_bar, psi_bar(q, a)) on the solve from
    q = sol.t0; at the boundary the limits ((1/2) int_q^1 xi'' zeta, +-inf)."""
    if _at_boundary(a):
        return 0.5 * sol.int_xi_pp_zeta(), math.copysign(math.inf, a)
    x = sol.inverse_phi_x(sol.t0, a)
    return float(sol.phi(sol.t0, x)) - a * x, x


def lambda_conj(model: MixedModel, q: float, a: float, zeta: OrderParameter,
                config: SolverConfig = DEFAULT_CONFIG,
                sol: PDESolution | None = None) -> tuple[float, float]:
    """Concave conjugate Lambda_zeta(q, a) and its minimizer x* (`_conj`),
    on `sol` or else a plain solve of zeta on [q, 1] (`_orig_solution`).

    For |a| = 1 the infimum is the limit (1/2) int_q^1 xi'' zeta ds and the
    minimizer escapes to +-infinity (returned as a signed inf sentinel). That
    closed form reads no grid, so without `sol` it solves nothing.
    """
    if abs(a) > 1.0 + 1e-12:
        raise ValueError("conjugate argument must lie in [-1, 1]")
    if sol is None and _at_boundary(a):
        # the arithmetic of PDESolution.int_xi_pp_zeta, on the same steps
        zq = _restricted(zeta, q)
        return (0.5 * zq.integral_against(model.xi_prime),
                math.copysign(math.inf, a))
    if sol is None:
        sol = _orig_solution(model, q, zeta, config, a_max=abs(a))
    return _conj(sol, a)


def psi_bar(model: MixedModel, q: float, a: float, zeta: OrderParameter,
            config: SolverConfig = DEFAULT_CONFIG,
            sol: PDESolution | None = None) -> float:
    """Unique x with d/dx Phi_zeta(q, x) = a (odd in a); +-inf at the
    boundary, as in `lambda_conj`."""
    if abs(a) >= 1.0:
        raise ValueError("psi_bar requires |a| < 1")
    return lambda_conj(model, q, a, zeta, config, sol)[1]


def psi(model: MixedModel, q: float, a: float, zeta: OrderParameter,
        config: SolverConfig = DEFAULT_CONFIG,
        sol: PDESolution | None = None) -> float:
    """psi_bar(q, a, zeta) + a int_q^1 xi''(s) zeta(s) ds.

    Coincides with the band effective field v at the shifted order
    parameter: psi(q, a, zeta) = v_{theta_q zeta}(a). +-inf at the
    boundary, where it solves nothing.
    """
    if sol is None and not _at_boundary(a):
        sol = _orig_solution(model, q, zeta, config, a_max=abs(a))
    x = psi_bar(model, q, a, zeta, config, sol)
    return x if math.isinf(x) else x + a * sol.int_xi_pp_zeta()


class EffectiveField:
    """The field a -> v_zeta(a) forcing zero into the band Parisi support.

    v_zeta(a) is the unique root of d/dx Phi^band_{a,zeta}(0, .); it is
    strictly increasing with v_zeta(0) = 0 and diverges as a -> 1. Band
    solutions are solved lazily and memoized per atom a.
    """

    def __init__(self, shifted: ShiftedModel, zeta_band: OrderParameter,
                 config: SolverConfig = DEFAULT_CONFIG):
        self.shifted = shifted
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


def _inner_a_max(mu: DiscreteMeasure) -> float:
    return float(np.max(split_boundary(mu)[0], initial=0.0))


def _tap_on(sol: PDESolution, mu: DiscreteMeasure):
    """(TAP(mu, zeta), sol, starts psi_bar(q, a) of mu's atoms below the
    boundary), read off the solve `sol` of zeta from q = sol.t0."""
    locs, wts, edge = split_boundary(mu)
    conj = [_conj(sol, a) for a in locs]
    total = sum(w * lam for w, (lam, _) in zip(wts, conj))
    total += edge * _conj(sol, 1.0)[0]
    return (float(total - 0.5 * sol.int_s_xi_pp_zeta()), sol,
            np.array([x for _, x in conj]))


def _evaluate(model: MixedModel, mu: DiscreteMeasure, nodes, levels,
              config: SolverConfig) -> tuple[float, PDESolution, np.ndarray]:
    """TAP(mu, zeta), the solution and the starts psi_bar(q, a), for a folded
    law mu and the CDF `levels` on the pieces between `nodes` (q = nodes[0]).
    Only this, the optimizer's evaluation, sweeps `level_gradients`."""
    cfg = config.with_pad(_grid_pad_for(_inner_a_max(mu)))
    return _tap_on(solve_steps(model, (float(nodes[0]), float(nodes[-1])),
                               nodes, levels, cfg), mu)


def tap_with_zeta(model: MixedModel, mu: DiscreteMeasure,
                  zeta: OrderParameter,
                  config: SolverConfig = DEFAULT_CONFIG) -> float:
    """TAP(mu, zeta) = int Lambda_zeta(q, a) dmu - (1/2) int_q^1 s xi'' zeta ds,
    on a plain solve of zeta on [q, 1] (see `_orig_solution`)."""
    mu = fold_law(mu)
    q = mu.moment(2)
    if q >= 1.0 - 1e-12:
        return 0.0
    return _tap_on(_orig_solution(model, q, zeta, config, _inner_a_max(mu)), mu)[0]


def band_functional(shifted: ShiftedModel, mu: DiscreteMeasure, v, lam: float,
                    zeta_band: OrderParameter,
                    config: SolverConfig = DEFAULT_CONFIG,
                    field: EffectiveField | None = None) -> float:
    """P_bar_mu^v(lambda, zeta) = int_[0,1) Phi_{a,zeta}(0, lambda a + v(a)) dmu
    - (1/2) int_0^{1-q} s xi_q''(s) zeta(s) ds.

    The mu-integral runs over [0, 1): atoms at 1 are dropped, since the
    effective field diverges there. `v` is a callable on [0, 1).
    """
    locs, wts, _ = split_boundary(fold_law(mu))
    ev = field if field is not None else EffectiveField(shifted, zeta_band, config)
    runs = _band_runs(ev, lambda a: lam * a + float(v(a)), locs, wts)
    total = sum(float(w[0] * sol.phi(0.0, x[0])) for sol, x, w in runs)
    # theta_q is the antiderivative of s xi_q''(s)
    return float(total - 0.5 * zeta_band.integral_against(shifted.theta_q))


# ---------------------------------------------------------------------------
# order parameters as CDF steps: the optimizer's variables


def _unpack(x: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Levels z_0..z_{r-1} and nodes q = s_0 <= ... <= s_r = 1 of the
    optimizer variables x = (z_0..z_{r-1}, s_1..s_{r-1}): the CDF is z_p on
    [s_p, s_{p+1}), with z nondecreasing in [0, 1]."""
    r = (x.size + 1) // 2
    return x[:r], np.concatenate([[q], x[r:], [1.0]])


def _steps_zeta(x: np.ndarray, q: float) -> OrderParameter:
    levels, nodes = _unpack(x, q)
    jumps = np.diff(np.concatenate([[0.0], levels, [1.0]]))
    atoms = [(float(s), float(w)) for s, w in zip(nodes, jumps) if w > 1e-12]
    return OrderParameter.from_atoms((q, 1.0), atoms or [(1.0, 1.0)])


def _gradient(sol: PDESolution, mu: DiscreteMeasure,
              starts: np.ndarray) -> np.ndarray:
    """Gradient of TAP(mu, zeta) in the optimizer variables, from the
    solution and the psi_bar starts that `_evaluate` returned for them."""
    _, wts, edge = split_boundary(mu)
    levels, nodes = sol.levels, sol.nodes
    # d/dx of Phi(q, x) - a x vanishes at psi_bar, so the mu-integral of the
    # solver's sensitivities at psi_bar is the gradient of the Lambda term
    grad = np.array([wts @ _interp_grid(float(sol.x_grid[0]), sol.config.dx,
                                        row, starts)
                     for row in sol.level_gradients()])
    # explicit terms of the boundary atoms' (1/2) int xi'' zeta and of
    # -(1/2) int s xi'' zeta, whose antiderivative is s xi'(s) - xi(s)
    r, mix = levels.size, sol.mixture
    grad[:r] += 0.5 * (edge * np.diff(mix.xi_prime(nodes))
                       - np.diff(mix.theta(nodes)))
    inner = nodes[1:r]
    grad[r:] -= (0.5 * mix.xi_double_prime(inner) * np.diff(levels)
                 * (edge - inner))
    return grad


def _face_basis(x: np.ndarray, r: int, q: float) -> np.ndarray:
    """Columns spanning the moves of x = (levels, interior nodes) that keep
    its active constraints active: one per block of coordinates tied to each
    other but to neither end of the chain 0 <= z <= 1 or q <= s <= 1."""
    cols = []
    for part, lo, off in ((x[:r], 0.0, 0), (x[r:], q, r)):
        chain = np.concatenate([[lo], part, [1.0]])
        block = np.concatenate([[0], np.cumsum(np.diff(chain) > 0.0)])
        for b in np.unique(block[1:-1]):
            if b != block[0] and b != block[-1]:
                col = np.zeros(x.size)
                col[off + np.flatnonzero(block[1:-1] == b)] = 1.0
                cols.append(col)
    return np.array(cols).reshape(len(cols), x.size).T


def _bfgs_update(B, dx: np.ndarray, dg: np.ndarray):
    """BFGS update of the Hessian model B (None: not yet scaled); skipped
    when the step shows no positive curvature."""
    curv = float(dx @ dg)
    if curv <= 1e-12 * np.linalg.norm(dx) * np.linalg.norm(dg):
        return B
    if B is None:
        B = (dg @ dg) / curv * np.eye(dx.size)
    Bdx = B @ dx
    return B + np.outer(dg, dg) / curv - np.outer(Bdx, Bdx) / (dx @ Bdx)


def _optimize(model, mu, x: np.ndarray, q: float,
              config) -> tuple[np.ndarray, dict]:
    """Minimize TAP(mu, .) over x (see `_unpack`): levels monotone in
    [0, 1], interior nodes monotone in [q, 1].

    Projected-gradient steps (length x1.6 after a success, x0.3 after a
    failure) go with backtracking BFGS steps on the current face, tried
    first after a success when the gradient step keeps the face: gradient
    steps alone crawl in the ill-conditioned valleys near RSB minimizers.
    Only gradient steps close gaps: a BFGS step onto q could park s_1
    there, where its derivative vanishes identically. `stop`: tol (projected
    gradient below OPT_TOL), ftol (three trials in a row moved the value by
    less than OPT_FTOL), step or max_evals (OPT_MAX_EVALS evaluations).
    """
    r = (x.size + 1) // 2

    def project(x):
        return np.concatenate([project_monotone(x[:r]),
                               project_monotone(x[r:], q, 1.0)])

    def evaluate(x_t):
        nonlocal n_eval, stalls
        n_eval += 1
        levels, nodes = _unpack(x_t, q)
        v_t, sol, starts = _evaluate(model, mu, nodes, levels, config)
        stalls = stalls + 1 if abs(v_t - val) < OPT_FTOL else 0
        return v_t, _gradient(sol, mu, starts)

    def bfgs_step(face):
        """First point along the BFGS direction on the face that lowers
        the value, or None."""
        d = -face @ np.linalg.solve(face.T @ B @ face, face.T @ grad)
        slope, t = float(grad @ d), 1.0
        while slope < 0.0 and t > 1e-3 and stalls < 3 and n_eval < OPT_MAX_EVALS:
            x_t = x + t * d
            if not np.array_equal(_face_basis(x_t, r, q), face):
                t *= 0.5
                continue
            v_t, g_t = evaluate(x_t)
            if v_t <= val + 1e-15:
                return x_t, v_t, g_t
            # minimizer of the quadratic through val, slope and v_t
            t *= min(max(-0.5 * slope * t / (v_t - val - slope * t), 0.1), 0.5)
        return None

    x = project(x)
    n_eval, stalls, val = 0, 0, math.inf
    val, grad = evaluate(x)
    B, step, fresh = None, 1.0, False
    while True:
        pg = float(np.max(np.abs(x - project(x - grad))))
        if pg < OPT_TOL:
            stop = "tol"
            break
        if stalls >= 3 or n_eval >= OPT_MAX_EVALS:
            stop = "ftol" if stalls >= 3 else "max_evals"
            break
        x_pg = project(x - step * grad)
        if np.max(np.abs(x_pg - x)) < 1e-13 or step < 1e-13:
            stop = "step"
            break
        face = _face_basis(x, r, q)
        new = None
        if fresh and face.size and np.array_equal(_face_basis(x_pg, r, q), face):
            new = bfgs_step(face)
        fresh = False
        if new is None:
            v_pg, g_pg = evaluate(x_pg)
            if v_pg > val + 1e-15:
                step *= 0.3
                continue
            new = x_pg, v_pg, g_pg
        B = _bfgs_update(B, new[0] - x, new[2] - grad)
        x, val, grad = new
        step, fresh = min(step * 1.6, 64.0), B is not None
    return x, {"n_eval": n_eval, "projected_grad": pg, "stop": stop}


@dataclass(frozen=True)
class TapResult:
    """Outcome of the TAP correction minimization. `solution` is the plain
    original-boundary solve of the minimizer (None when q = 1)."""

    value: float
    minimizer_zeta: OrderParameter
    q: float
    diagnostics: dict
    solution: PDESolution | None = dataclass_field(default=None, repr=False,
                                                   compare=False)


def _band_runs(field: EffectiveField, v, locs, wts):
    """Runs [(band solution, [v(a)], [w])], one per atom (a, w) of mu."""
    starts = [float(v(a)) for a in locs]
    return [(field.solution_for(a, x_reach=abs(x0)), np.array([x0]),
             np.array([w])) for a, x0, w in zip(locs, starts, wts)]


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


def _rs_certified(model: MixedModel, mu: DiscreteMeasure,
                  q: float) -> tuple[bool, rs.RsDiagnostics | None]:
    """The paper's RS test with a strict sign: Gamma''(0) and sup Gamma_mu
    both at most -RS_TOLERANCE. The closed-form curvature goes first; when it
    already fails, the curve is not computed (diagnostic None)."""
    shifted = model.shift(q)
    if rs.gamma_second_derivative(shifted, mu) > -rs.RS_TOLERANCE:
        return False, None
    diag = rs.is_replica_symmetric(shifted, mu)
    return diag.sup_gamma <= -rs.RS_TOLERANCE, diag


def _minimize(model: MixedModel, mu: DiscreteMeasure, q: float, r: int,
              config: SolverConfig, seed: int | None, a_max: float):
    """The optimizer path of `tap_correction`: `_optimize` from evenly
    spread (seed None) or random levels and nodes, then greedy atom merges.
    Returns (zeta, (value, solution, psi_bar starts), optimizer info)."""
    if seed is None:
        nodes = q + (1.0 - q) * np.arange(1, r) / r
        levels = np.linspace(1.0 / r, 1.0, r)
    else:
        rng = np.random.default_rng(seed)
        nodes = q + (1.0 - q) * np.sort(rng.uniform(0.05, 0.95, size=r - 1))
        levels = np.sort(rng.uniform(0.0, 1.0, size=r))
    x, info = _optimize(model, mu, np.concatenate([levels, nodes]), q, config)
    # The value is TAP at the returned zeta, solved on its atoms alone: a
    # node between equal levels splits a layer and moves the discretized
    # value (by 7e-7 on a model with xi'(1) = 7.7), so it may not count.
    zeta = _steps_zeta(x, q)
    best = _tap_on(_orig_solution(model, q, zeta, config, a_max), mu)
    # prefer fewer atoms when the value is within 1e-9: greedily merge the
    # closest pair of atoms into their weighted mean as long as it is free;
    # a pair holding the atom at q merges there, keeping q in the support
    # (near an RS minimizer the optimizer leaves s_1 a hair above q)
    atoms = list(zeta.measure.atoms)
    while len(atoms) > 1:
        gaps = [atoms[i + 1][0] - atoms[i][0] for i in range(len(atoms) - 1)]
        i = int(np.argmin(gaps))
        (x0, w0), (x1, w1) = atoms[i], atoms[i + 1]
        loc = x0 if x0 <= q else (x0 * w0 + x1 * w1) / (w0 + w1)
        # a lone atom holds all the mass, which w0 + w1 can miss by an ulp
        merged = atoms[:i] + [(loc, w0 + w1 if len(atoms) > 2 else 1.0)] \
            + atoms[i + 2:]
        cand = OrderParameter.from_atoms((q, 1.0), merged)
        trial = _tap_on(_orig_solution(model, q, cand, config, a_max), mu)
        if not trial[0] <= best[0] + 1e-9:
            break
        zeta, atoms, best = cand, merged, trial
    return zeta, best, info


def tap_correction(model: MixedModel, mu: DiscreteMeasure, r_atoms: int = 4,
                   config: SolverConfig = DEFAULT_CONFIG,
                   seed: int | None = None,
                   with_representation: bool = True,
                   with_certificate: bool = True) -> TapResult:
    """Minimize zeta -> TAP(mu, zeta) over r-atom order parameters on [q, 1].

    RS first: when Gamma''(0) and sup Gamma_mu are both at most
    -rs.RS_TOLERANCE (`_rs_certified`), the paper's RS theorem gives the
    minimizer delta_q, whose value is the classical correction; it is
    returned from one plain solve with `stop` "rs" and no optimizer
    evaluation. Near that margin, and whenever Gamma''(0) > -RS_TOLERANCE
    (then the curve is not computed), the optimizer runs (see `_optimize`):
    levels and nodes together, seed None from evenly spread levels and
    nodes, an integer from random ones, then greedy merges of atoms that
    cost at most 1e-9. Only the optimizer evaluates through `_evaluate`; the
    value and the merge candidates take plain solves (`_orig_solution`), and
    the certificate reuses the solve of the returned zeta.

    `diagnostics`: `stop` names the stopping rule ("rs" for the shortcut),
    `level_evals` counts optimizer evaluations, `rs` holds the
    `rs.RsDiagnostics` when the curve was computed. `converged` needs rs,
    tol or ftol and a certificate `first_residual` of at most
    CERTIFICATE_TOL, when computed: tied levels can stop at tol short of a
    minimizer. Also cross-evaluates the band representation
    inf P_bar_mu^{v_zeta}(0, zeta) at the returned minimizer and reports the
    gap.

    The correction does not depend on the model's external field h: the
    field enters the TAP free energy only through the energy H(m).
    """
    r = int(r_atoms)
    if r < 1:
        raise ValueError(f"r_atoms must be at least 1, got {r_atoms}")
    mu = fold_law(mu)
    q = mu.moment(2)
    if q >= 1.0 - 1e-12:
        trivial = OrderParameter.delta_at(1.0, (1.0, 1.0))
        return TapResult(value=0.0, minimizer_zeta=trivial, q=1.0,
                         diagnostics={"trivial": True, "converged": True})
    a_max = _inner_a_max(mu)
    certified, rs_diag = _rs_certified(model, mu, q)
    if certified:
        zeta = OrderParameter.delta_at(q, (q, 1.0))
        sol = _orig_solution(model, q, zeta, config, a_max)
        val, sol, starts = _tap_on(sol, mu)
        diagnostics = {"stop": "rs", "level_evals": 0}
    else:
        zeta, (val, sol, starts), info = _minimize(model, mu, q, r, config,
                                                   seed, a_max)
        diagnostics = {"stop": info["stop"], "level_evals": info["n_eval"],
                       "projected_grad": info["projected_grad"]}
    diagnostics["converged"] = diagnostics["stop"] in ("rs", "tol", "ftol")
    diagnostics["trivial"] = False
    if rs_diag is not None:
        diagnostics["rs"] = rs_diag
    if with_certificate:
        # original coordinates: the control diffusion starts at psi_bar(q, a),
        # and the boundary atoms, whose slope u is 1, count as their mass
        _, wts, edge = split_boundary(mu)
        diagnostics["certificate"] = _stationarity(
            [(sol, starts, wts)], zeta, model.xi_double_prime, edge)
        if diagnostics["certificate"]["first_residual"] > CERTIFICATE_TOL:
            diagnostics["converged"] = False
    if with_representation:
        shifted = model.shift(q)
        zb = band_coords(zeta)
        field = EffectiveField(shifted, zb, config)
        pbar = band_functional(shifted, mu, field, 0.0, zb, config,
                               field=field)
        diagnostics["pbar_value"] = pbar
        diagnostics["representation_gap"] = abs(pbar - val)
    return TapResult(value=float(val), minimizer_zeta=zeta, q=q,
                     diagnostics=diagnostics, solution=sol)


# ---------------------------------------------------------------------------
# band-coordinate derivative and optimality certificate


def directional_derivative(shifted: ShiftedModel, mu: DiscreteMeasure,
                           v0, zeta0: OrderParameter, v1, zeta1: OrderParameter,
                           config: SolverConfig = DEFAULT_CONFIG) -> float:
    """Right derivative of b -> P_bar_mu^{v_b}(0, zeta_b) at b = 0 along the
    segment from (v0, zeta0) to (v1, zeta1):

        (1/2) int xi_q''(s) (zeta1 - zeta0)(s) [ int E u(s)^2 dmu - s ] ds
        + int (v1 - v0)(a) Phi_x^band_{a,zeta0}(0, v0(a)) dmu(a).

    E u(s)^2 is the band optimal-control second moment started from v0(a),
    by deterministic propagation; the s-integral is Gauss-Legendre of order
    DERIV_GL_ORDER on each piece where zeta1 - zeta0 is constant.
    """
    locs, wts, _ = split_boundary(fold_law(mu))
    runs = _band_runs(EffectiveField(shifted, zeta0, config), v0, locs, wts)

    # s-integral: (zeta1 - zeta0) is piecewise constant between the union of
    # node sets; integrate the smooth factor with Gauss-Legendre per piece.
    pts = np.unique(np.concatenate([zeta0.nodes, zeta1.nodes]))
    gl_x, gl_w = gauss_legendre(DERIV_GL_ORDER)
    term1 = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        dz = float(zeta1.cdf(0.5 * (lo + hi)) - zeta0.cdf(0.5 * (lo + hi)))
        if abs(dz) < 1e-15 or hi - lo < 1e-14:
            continue
        s_nodes = lo + (hi - lo) * gl_x
        acc = 0.0
        for s, w in zip(s_nodes, gl_w):
            acc += w * shifted.xi_q_double_prime(s) \
                * (_mean_sq_derivative(runs, float(s), 1) - float(s))
        term1 += 0.5 * dz * acc * (hi - lo)

    term2 = 0.0
    for a, w, (sol, x0, _) in zip(locs, wts, runs):
        dv = float(v1(a)) - float(x0[0])
        if abs(dv) < 1e-15:
            continue
        term2 += w * dv * float(sol.phi_x(0.0, float(x0[0])))
    return float(term1 + term2)


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
    locs, wts, _ = split_boundary(fold_law(mu))
    ev = field if field is not None else EffectiveField(shifted, zeta_band, config)
    return _stationarity(_band_runs(ev, ev, locs, wts), zeta_band,
                         shifted.xi_q_double_prime)

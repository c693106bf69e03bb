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
of the solver (`PDESolution.level_gradients`). The loop minimizes a
read-out of a solve: value, start points and weights of the control
diffusion, boundary mass. TAP's read-out (`_tap_on`) starts at psi_bar(q, a)
for mu's atoms; `pde.parisi_measure` runs the same loop on the Parisi
functional's (`pde._parisi_on`), one start at the field h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import rs
from .measures import (BOUNDARY_ATOM_TOL, DiscreteMeasure, OrderParameter,
                       band_coords, fold_law, restrict_zeta, split_boundary)
from .model import MixedModel, ShiftedModel
from .numerics import gauss_legendre, grid_derivative, project_monotone
from .pde import (DEFAULT_CONFIG, PDESolution, SolverConfig, solve,
                  solve_band, solve_steps)

__all__ = [
    "TapResult", "EffectiveField", "lambda_conj", "psi_bar", "psi",
    "effective_field", "tap_with_zeta", "tap_correction", "band_functional",
    "band_representation", "directional_derivative", "optimality_check",
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


def _at_boundary(a):
    """The one boundary rule of Lambda and psi_bar: |a| >= 1 - BOUNDARY_ATOM_TOL
    takes the |a| = 1 limits, where inverting Phi_x is ill-conditioned; a
    mask for an array of slopes."""
    return np.abs(a) >= 1.0 - BOUNDARY_ATOM_TOL


def lambda_conj(model: MixedModel, q: float, a: float, zeta: OrderParameter,
                config: SolverConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Concave conjugate Lambda_zeta(q, a) and its minimizer x*, for one
    slope a, on a plain solve of zeta on [q, 1] (`_orig_solution`).

    For |a| = 1 the infimum is the limit (1/2) int_q^1 xi'' zeta ds and the
    minimizer escapes to +-infinity (returned as a signed inf sentinel), the
    convention for every |a| >= 1 - BOUNDARY_ATOM_TOL. That closed form
    reads no grid, so there it solves nothing.
    """
    if abs(a) > 1.0 + 1e-12:
        raise ValueError("conjugate argument must lie in [-1, 1]")
    if _at_boundary(a):
        return (0.5 * _restricted(zeta, q).integral_against(model.xi_prime),
                math.copysign(math.inf, a))
    sol = _orig_solution(model, q, zeta, config, a_max=abs(a))
    x = sol.inverse_phi_x(a)
    return float(sol.phi(sol.t0, x)) - a * x, x


def psi_bar(model: MixedModel, q: float, a: float, zeta: OrderParameter,
            config: SolverConfig = DEFAULT_CONFIG) -> float:
    """Unique x with d/dx Phi_zeta(q, x) = a (odd in a); +-inf at the
    boundary, as in `lambda_conj` (`disorder.grad_tap` reads the finite
    root there, `PDESolution.boundary_inverse_phi_x`)."""
    if abs(a) >= 1.0:
        raise ValueError("psi_bar requires |a| < 1")
    return lambda_conj(model, q, a, zeta, config)[1]


def psi(model: MixedModel, q: float, a: float, zeta: OrderParameter,
        config: SolverConfig = DEFAULT_CONFIG) -> float:
    """psi_bar(q, a, zeta) + a int_q^1 xi''(s) zeta(s) ds.

    Coincides with the band effective field v at the shifted order
    parameter: psi(q, a, zeta) = v_{theta_q zeta}(a). +-inf at the
    boundary, as psi_bar, where it solves nothing.
    """
    return (psi_bar(model, q, a, zeta, config)
            + a * _restricted(zeta, q).integral_against(model.xi_prime))


class EffectiveField:
    """The field a -> v_zeta(a) forcing zero into the band Parisi support.

    v_zeta(a) is the unique root of d/dx Phi^band_{a,zeta}(0, .); it is
    strictly increasing with v_zeta(0) = 0 and diverges as a -> 1. Band
    solutions are solved lazily and memoized per atom a; v_zeta(a) is read
    off the current one, also after `solution_for` re-solved it wider.
    """

    def __init__(self, shifted: ShiftedModel, zeta_band: OrderParameter,
                 config: SolverConfig = DEFAULT_CONFIG):
        self.shifted = shifted
        self.zeta_band = zeta_band
        self.config = config
        self._solutions: dict[float, PDESolution] = {}

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
        return self.solution_for(a).inverse_phi_x(0.0)


def effective_field(shifted: ShiftedModel, zeta_band: OrderParameter,
                    config: SolverConfig = DEFAULT_CONFIG) -> EffectiveField:
    return EffectiveField(shifted, zeta_band, config)


# ---------------------------------------------------------------------------
# TAP functionals


def _inner_a_max(mu: DiscreteMeasure) -> float:
    return float(np.max(split_boundary(mu)[0], initial=0.0))


def _tap_on(mu: DiscreteMeasure):
    """Read-out of TAP(mu, zeta): a solve from q -> (value, solve, starts
    psi_bar(q, a) and weights of atoms below the boundary, boundary mass)."""
    locs, wts, edge = split_boundary(mu)

    def read(sol: PDESolution):
        x = sol.inverse_phi_x(locs)
        # Lambda summed in atom order; at the boundary (1/2) int xi'' zeta
        total = sum(wts * (sol.phi(sol.t0, x) - locs * x))
        total += edge * (0.5 * sol.int_xi_pp_zeta())
        return float(total - 0.5 * sol.int_s_xi_pp_zeta()), sol, x, wts, edge
    return read


def _evaluate(model: MixedModel, read, nodes, levels, config: SolverConfig):
    """The read-out `read` of the solve of the CDF `levels` between `nodes`.
    Only this, the optimizer's evaluation, sweeps `level_gradients`."""
    return read(solve_steps(model, nodes, levels, config))


def tap_with_zeta(model: MixedModel, mu: DiscreteMeasure,
                  zeta: OrderParameter,
                  config: SolverConfig = DEFAULT_CONFIG) -> float:
    """TAP(mu, zeta) = int Lambda_zeta(q, a) dmu - (1/2) int_q^1 s xi'' zeta ds,
    on a plain solve of zeta on [q, 1] (see `_orig_solution`)."""
    mu = fold_law(mu)
    q = mu.moment(2)
    if q >= 1.0 - 1e-12:
        return 0.0
    return _tap_on(mu)(_orig_solution(model, q, zeta, config,
                                      _inner_a_max(mu)))[0]


def band_functional(shifted: ShiftedModel, mu: DiscreteMeasure, v, lam,
                    zeta_band: OrderParameter,
                    config: SolverConfig = DEFAULT_CONFIG):
    """P_bar_mu^v(lambda, zeta) = int_[0,1) Phi_{a,zeta}(0, lambda a + v(a)) dmu
    - (1/2) int_0^{1-q} s xi_q''(s) zeta(s) ds.

    The mu-integral runs over [0, 1): atoms at 1 are dropped, since the
    effective field diverges there. `v` is a callable on [0, 1); the band
    solves are zeta's own (`_band_runs`). An array `lam` of any shape is
    read on one band solve per atom, into its shape; a scalar gives a float.
    """
    lam = np.asarray(lam, dtype=float)
    runs = _band_runs(shifted, mu, zeta_band, v, config, lam.ravel())
    total = sum((w[0] * sol.phi(0.0, x) for sol, x, w in runs),
                np.zeros(lam.size))
    # theta_q is the antiderivative of s xi_q''(s)
    out = total - 0.5 * zeta_band.integral_against(shifted.theta_q)
    return out.reshape(lam.shape) if lam.ndim else float(out[0])


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


def _gradient(evaluation) -> np.ndarray:
    """Gradient of the value in the optimizer variables, from the
    (value, solution, starts, weights, boundary mass) of `_evaluate`."""
    _, sol, starts, wts, edge = evaluation
    levels, nodes = sol.levels, sol.nodes
    # d/dx of Phi(q, x) - a x vanishes at psi_bar, so the mu-integral of the
    # solver's sensitivities at psi_bar is the gradient of the Lambda term
    dx = sol.config.dx
    grad = np.array([wts @ sol.interpolate(row, grid_derivative(row, dx), starts)
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


def _optimize(model, read, x: np.ndarray, q: float,
              config) -> tuple[np.ndarray, dict]:
    """Minimize the value of the read-out `read` over x (see `_unpack`):
    levels monotone in [0, 1], interior nodes monotone in [q, 1].

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
        ev = _evaluate(model, read, nodes, levels, config)
        stalls = stalls + 1 if abs(ev[0] - val) < OPT_FTOL else 0
        return ev[0], _gradient(ev)

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
    return x, {"stop": stop, "level_evals": n_eval, "projected_grad": pg}


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


def _band_runs(shifted: ShiftedModel, mu: DiscreteMeasure,
               zeta_band: OrderParameter, v, config: SolverConfig,
               lam=0.0):
    """Runs [(band solution of zeta_band, starts lam a + v(a), [w])], one per
    atom (a, w) of mu below the boundary, for a scalar or 1-d lam, each solve
    wide enough for its largest start. The solves are v's own when v is the
    `EffectiveField` of this shifted model, zeta_band and config, and a fresh
    field's otherwise: another field's solves are of another band."""
    locs, wts, _ = split_boundary(fold_law(mu))
    same = isinstance(v, EffectiveField) and \
        (v.shifted, v.zeta_band, v.config) == (shifted, zeta_band, config)
    field = v if same else EffectiveField(shifted, zeta_band, config)
    starts = [np.atleast_1d(lam * a + float(v(a))) for a in locs]
    return [(field.solution_for(a, x_reach=float(np.max(np.abs(x0)))), x0,
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


def _minimize(model: MixedModel, read, q: float, r: int,
              config: SolverConfig, seed: int | None):
    """Minimize the read-out `read` (`_tap_on`, `pde._parisi_on`) over
    r-atom order parameters on [q, 1], first node at q: `_optimize` from
    evenly spread (seed None) or random levels and nodes, then greedy atom
    merges. Returns (zeta, the read-out of its plain solve, diagnostics)."""
    if seed is None:
        nodes = q + (1.0 - q) * np.arange(1, r) / r
        levels = np.linspace(1.0 / r, 1.0, r)
    else:
        rng = np.random.default_rng(seed)
        nodes = q + (1.0 - q) * np.sort(rng.uniform(0.05, 0.95, size=r - 1))
        levels = np.sort(rng.uniform(0.0, 1.0, size=r))
    x, info = _optimize(model, read, np.concatenate([levels, nodes]), q, config)
    # The value is read at the returned zeta, solved on its atoms alone: a
    # node between equal levels splits a layer and moves the discretized
    # value (by 7e-7 on a model with xi'(1) = 7.7), so it may not count.
    zeta = _steps_zeta(x, q)
    best = read(_orig_solution(model, q, zeta, config))
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
        trial = read(_orig_solution(model, q, cand, config))
        if not trial[0] <= best[0] + 1e-9:
            break
        zeta, atoms, best = cand, merged, trial
    return zeta, best, info


def _certify(diagnostics: dict, model, zeta, evaluation) -> None:
    """`converged`: stop rs, tol or ftol (tied levels can stop at tol short
    of a minimizer) and, given the read-out `evaluation` of zeta's solve, a
    stationarity `certificate` with `first_residual` <= CERTIFICATE_TOL, for
    the control diffusion from its starts, boundary atoms (u = 1) as mass."""
    _, sol, starts, wts, edge = evaluation
    cert = diagnostics["certificate"] = _stationarity(
        [(sol, starts, wts)], zeta, model.xi_double_prime, edge)
    diagnostics["converged"] = (diagnostics["stop"] in ("rs", "tol", "ftol")
                                and cert["first_residual"] <= CERTIFICATE_TOL)


def tap_correction(model: MixedModel, mu: DiscreteMeasure, r_atoms: int = 4,
                   config: SolverConfig = DEFAULT_CONFIG,
                   seed: int | None = None) -> TapResult:
    """Minimize zeta -> TAP(mu, zeta) over r-atom order parameters on [q, 1].

    RS first: when Gamma''(0) and sup Gamma_mu are both at most
    -rs.RS_TOLERANCE (`_rs_certified`), the paper's RS theorem gives the
    minimizer delta_q, whose value is the classical correction; it is
    returned from one plain solve with `stop` "rs" and no optimizer
    evaluation. Near that margin, and whenever Gamma''(0) > -RS_TOLERANCE
    (then the curve is not computed), `_minimize` runs on the read-out
    `_tap_on(mu)`, with every solve padded once for mu's largest atom.

    `diagnostics`: `stop` names the stopping rule ("rs" for the shortcut),
    `level_evals` counts optimizer evaluations, `rs` holds the
    `rs.RsDiagnostics` when the curve was computed; `converged` and the
    `certificate` come from `_certify`. A returned delta_q is not
    `converged` when Gamma''(0) > RS_TOLERANCE: Plefka's condition fails,
    so by the paper's theorem delta_q is no minimizer, whatever the
    first-order residual reads. `band_representation` cross-evaluates the
    result.

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
    read, cfg = _tap_on(mu), config.with_pad(_grid_pad_for(_inner_a_max(mu)))
    certified, rs_diag = _rs_certified(model, mu, q)
    if certified:
        zeta = OrderParameter.delta_at(q, (q, 1.0))
        best = read(_orig_solution(model, q, zeta, cfg))
        diagnostics = {"stop": "rs", "level_evals": 0}
    else:
        zeta, best, diagnostics = _minimize(model, read, q, r, cfg, seed)
    _certify(diagnostics, model, zeta, best)
    if [x for x, _ in zeta.measure.atoms] == [q] and \
            rs.gamma_second_derivative(model.shift(q), mu) > rs.RS_TOLERANCE:
        diagnostics["converged"] = False
    diagnostics["trivial"] = False
    if rs_diag is not None:
        diagnostics["rs"] = rs_diag
    return TapResult(value=best[0], minimizer_zeta=zeta, q=q,
                     diagnostics=diagnostics, solution=best[1])


def band_representation(model: MixedModel, mu: DiscreteMeasure,
                        result: TapResult,
                        config: SolverConfig = DEFAULT_CONFIG) -> float:
    """P_bar_mu^{v_zeta}(0, zeta) at `result`'s minimizer zeta, in band
    coordinates: TAP(mu) at a minimizer, read off band solves alone (one per
    atom of mu below the boundary), so it cross-checks `result.value`."""
    shifted, zb = model.shift(result.q), band_coords(result.minimizer_zeta)
    return band_functional(shifted, mu, EffectiveField(shifted, zb, config),
                           0.0, zb, config)


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
    DERIV_GL_ORDER on each piece where zeta1 - zeta0 is constant. ValueError
    for a zeta0 or zeta1 not on the band [0, 1-q], as in `solve_band`.
    """
    for zeta in (zeta0, zeta1):
        t0, t1 = zeta.interval
        if abs(t0) > 1e-12 or abs(t1 - shifted.horizon) > 1e-9:
            raise ValueError(f"order parameter on [{t0:g}, {t1:g}], not the "
                             f"band [0, 1-q] = [0, {shifted.horizon:g}]")
    runs = _band_runs(shifted, mu, zeta0, v0, config)

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
    for sol, x0, w in runs:     # the tilt of an atom's band solve is the atom
        dv = float(v1(sol.a)) - float(x0[0])
        if abs(dv) < 1e-15:
            continue
        term2 += w[0] * dv * float(sol.phi_x(0.0, float(x0[0])))
    return float(term1 + term2)


def optimality_check(shifted: ShiftedModel, mu: DiscreteMeasure,
                     zeta_band: OrderParameter,
                     config: SolverConfig = DEFAULT_CONFIG) -> dict:
    """Certificate at (v_zeta, zeta) in band coordinates.

    At a true minimizer, for every s in supp(zeta):
      int E[(Phi_x(s, X_s))^2] dmu(a) = s            (residual ~ 0)
      xi_q''(s) int E[(Phi_xx(s, X_s))^2] dmu(a) <= 1 (slack <= 0)
    with X started at v_zeta(a) and the mu-integral over [0, 1).
    """
    ev = EffectiveField(shifted, zeta_band, config)
    return _stationarity(_band_runs(shifted, mu, zeta_band, ev, config),
                         zeta_band, shifted.xi_q_double_prime)

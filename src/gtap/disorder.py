"""Small-N laboratory: explicit disorder, enumeration, and TAP dynamics.

The Hamiltonian is assembled from independent standard Gaussian coefficient
tensors, one array of N^p entries per active p, scaled by beta_p N^{-(p-1)/2}
(no symmetrization), so that E H(m) H(m') = N xi(m.m'/N) exactly. At small N
everything downstream is exact: free energies by enumeration over {-1,1}^N,
replicated band free energies by Hamming-shell sums over the index cube
(O(N (d_max + 1) 2^N) additions for pairs), TAP fixed points by damped
iteration of the generalized TAP equations, and gradient ascent on
H(m)/N + TAP(mu_m) over a sphere of fixed self-overlap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .measures import (BOUNDARY_ATOM_TOL, OrderParameter, empirical,
                       restrict_zeta)
from .model import MixedModel
from .numerics import logsumexp
from .pde import DEFAULT_CONFIG, SolverConfig
from .tap import TapResult, _at_boundary, _orig_solution, tap_correction

__all__ = [
    "DisorderSample", "BandSpec", "sample", "all_configs", "free_energy",
    "tap_Nn", "chain_values", "concentration_experiment", "concentration_bound",
    "solve_tap_equations", "grad_tap", "tap_ascent",
]

N_MAX = 20                   # largest N that `sample` accepts
ENUM_SPINS = 28              # n N spins at most in a replicated band sum
TENSOR_BUDGET = 1 << 26      # total coefficient entries
ENERGY_CHUNK = 4096          # configurations per block of all_energies
CLASSICAL_MAX_ITER = 5000    # iteration cap of classical_tap_iteration
CLASSICAL_TOL = 1e-12        # its sup-norm residual tolerance
GENERALIZED_MAX_ITER = 2000  # iteration cap of solve_tap_equations
GENERALIZED_TOL = 1e-9       # its sup-norm residual tolerance
ASCENT_STEP = 0.5            # first step length of tap_ascent
ASCENT_BOUND = 1.0 - BOUNDARY_ATOM_TOL   # its cube: |m_i| <= ASCENT_BOUND
ASCENT_GTOL = 1e-6           # its converged tangent-gradient norm
# grad_tap inverts log(1 - Phi_x) for |m_i| >= 1 - LOG_COMPLEMENT_TOL: there
# Phi_x's own inverse is off by ~1e-9 and the log-complement one by ~1e-11
LOG_COMPLEMENT_TOL = 1e-3


@dataclass(frozen=True)
class DisorderSample:
    """One draw of the Gaussian coefficient tensors, kept read-only: a
    tensor still writable when the sample is built, or a view of memory it
    does not own, is copied first, so the kept energies cannot go stale."""

    N: int
    model: MixedModel
    seed: int
    tensors: dict = field(repr=False)

    def __post_init__(self):
        tensors = {p: g if g.flags.owndata and not g.flags.writeable
                   else np.array(g) for p, g in self.tensors.items()}
        for g in tensors.values():
            g.flags.writeable = False
        object.__setattr__(self, "tensors", tensors)

    @functools.cached_property
    def energies(self) -> np.ndarray:
        """`all_energies`: H over all 2^N configurations, computed on first
        read and kept, read-only, for the sample's lifetime."""
        E = all_energies(self)
        E.flags.writeable = False
        return E

    def energy(self, m) -> float:
        """Multilinear evaluation of H at any point of [-1, 1]^N."""
        m = np.asarray(m, dtype=float)
        total = self.model.external_field_h * float(np.sum(m))
        for p, g in self.tensors.items():
            beta = math.sqrt(self.model.coeffs_sq[p - 1])
            t = g
            for _ in range(p):
                t = t @ m
            total += beta * self.N ** (-(p - 1) / 2.0) * float(t)
        return total

    def gradient(self, m) -> np.ndarray:
        """Exact gradient of H: sum over which tensor slot stays free."""
        m = np.asarray(m, dtype=float)
        out = np.full(self.N, self.model.external_field_h, dtype=float)
        for p, g in self.tensors.items():
            beta = math.sqrt(self.model.coeffs_sq[p - 1])
            scale = beta * self.N ** (-(p - 1) / 2.0)
            acc = np.zeros(self.N)
            for free in range(p):
                t = g
                # contract all axes after `free`, then all before it
                for _ in range(p - 1 - free):
                    t = t @ m
                for _ in range(free):
                    t = np.tensordot(m, t, axes=([0], [0]))
                acc += t
            out += scale * acc
        return out


def sample(N: int, model: MixedModel, seed: int) -> DisorderSample:
    """Draw the coefficient tensors; deterministic given the seed."""
    if not 1 <= N <= N_MAX:
        raise ValueError(f"N={N} outside the enumeration-friendly [1, {N_MAX}]")
    active = [p for p in range(1, model.p_max + 1) if model.coeffs_sq[p - 1] > 0]
    budget = sum(N ** p for p in active)
    if budget > TENSOR_BUDGET:
        raise ValueError(f"tensor budget exceeded: {budget} entries")
    rng = np.random.default_rng(seed)
    tensors = {p: rng.standard_normal((N,) * p) for p in active}
    for g in tensors.values():
        g.flags.writeable = False    # so the sample need not copy them
    return DisorderSample(N=N, model=model, seed=seed, tensors=tensors)


@functools.lru_cache(maxsize=1)
def all_configs(N: int) -> np.ndarray:
    """All 2^N sign vectors, shape (2^N, N), entries +-1.0; row i has spin j
    = bit j of i. Built once per N (the last N is cached) and read-only."""
    idx = np.arange(1 << N, dtype=np.uint32)
    bits = (idx[:, None] >> np.arange(N, dtype=np.uint32)[None, :]) & 1
    S = bits.astype(np.float64) * 2.0 - 1.0
    S.flags.writeable = False
    return S


def all_energies(smpl: DisorderSample) -> np.ndarray:
    """H over every configuration, by chunked multilinear contraction."""
    S = all_configs(smpl.N)
    n = S.shape[0]
    out = np.zeros(n)
    if smpl.model.external_field_h:
        out += smpl.model.external_field_h * S.sum(axis=1)
    for p, g in smpl.tensors.items():
        beta = math.sqrt(smpl.model.coeffs_sq[p - 1])
        scale = beta * smpl.N ** (-(p - 1) / 2.0)
        for lo in range(0, n, ENERGY_CHUNK):
            block = S[lo:lo + ENERGY_CHUNK]
            t = np.broadcast_to(g, (block.shape[0],) + g.shape)
            for _ in range(p):
                # contract the last tensor axis with each config in the block
                t = np.einsum("c...i,ci->c...", t, block)
            out[lo:lo + ENERGY_CHUNK] += scale * t
    return out


def free_energy(smpl: DisorderSample) -> float:
    """(1/N) log sum over {-1,1}^N of exp H (stable log-sum-exp)."""
    return float(logsumexp(smpl.energies)) / smpl.N


@dataclass(frozen=True)
class BandSpec:
    """Band around m with width eps and replica overlap tolerance delta."""

    m: tuple[float, ...]
    eps: float
    delta: float = 0.0
    n: int = 1

    def __post_init__(self):
        m = tuple(float(x) for x in self.m)
        if any(abs(x) > 1.0 for x in m):
            raise ValueError("band center must lie in [-1, 1]^N")
        if self.n not in (1, 2):
            raise ValueError(f"replica count n={self.n} outside {{1, 2}}")
        if self.eps <= 0 or (self.n > 1 and self.delta <= 0):
            raise ValueError("eps (and delta for n > 1) must be positive")
        object.__setattr__(self, "m", m)


def _band_mask(S: np.ndarray, m: np.ndarray, eps: float) -> np.ndarray:
    """sigma in B(m, eps): |(sigma - m) . m| / N < eps."""
    N = m.size
    return np.abs(S @ m - float(m @ m)) / N < eps


def tap_Nn(smpl: DisorderSample, band: BandSpec) -> float:
    """Replicated band free energy increment, exactly.

    (1/(nN)) log sum over B_n(m, eps, delta) of exp sum_i [H(sigma^i) - H(m)];
    -inf when the constrained set is empty. For pairs, with
    f = exp(H - H(m) - shift) on B and 0 off it, G_d(sigma) sums f over the
    tau at Hamming distance d (overlap 1 - 2d/N), built bit by bit over the
    index cube: O(N (d_max + 1) 2^N) additions of positive terms, for the
    largest distance d_max inside the window.
    """
    N = smpl.N
    m = np.asarray(band.m, dtype=float)
    if m.size != N:
        raise ValueError("band center dimension mismatch")
    if band.n * N > ENUM_SPINS:
        raise ValueError(f"enumeration budget 2^{ENUM_SPINS} exceeded")
    mask = _band_mask(all_configs(N), m, band.eps)
    if not np.any(mask):
        return -math.inf
    Eb = smpl.energies[mask] - smpl.energy(m)
    if band.n == 1:
        return float(logsumexp(Eb)) / N
    d = np.arange(N + 1)
    window = np.abs((N - 2.0 * d) / N - float(m @ m) / N) < band.delta
    if not np.any(window):
        return -math.inf
    d_max = int(d[window][-1])
    shift = float(np.max(Eb))
    f = np.zeros(1 << N)
    f[mask] = np.exp(Eb - shift)
    G = np.zeros((d_max + 1, 1 << N))
    G[0] = f
    for j in range(N):
        # tau gains bit j as one more differing spin: G_d += G_{d-1}(sigma ^ 2^j)
        shells = G.reshape(d_max + 1, -1, 2, 1 << j)
        shells[1:] += shells[:-1, :, ::-1]
    total = float(f @ G[window[:d_max + 1]].sum(axis=0))
    if total == 0.0:
        # f >= 2^-511 on B keeps every product f(sigma) f(tau) normal, so
        # 0 means no pair; below that a pair's product may have underflowed
        if shift - float(np.min(Eb)) > 511.0 * math.log(2.0):
            raise ValueError("pair sum underflows: band energies spread "
                             "too far")
        return -math.inf
    return (math.log(total) + 2.0 * shift) / (2.0 * N)


def chain_values(smpl: DisorderSample, band: BandSpec) -> dict:
    """F_N and the band chain H(m)/N + TAP_{N,1} >= ... + TAP_{N,2};
    ValueError for a band that holds no configuration."""
    f_n = free_energy(smpl)
    hm = smpl.energy(np.asarray(band.m)) / smpl.N
    t1 = tap_Nn(smpl, BandSpec(band.m, band.eps, band.delta, 1))
    if t1 == -math.inf:
        raise ValueError("band holds no configuration")
    t2 = tap_Nn(smpl, BandSpec(band.m, band.eps, band.delta, 2))
    return {"free_energy": f_n, "h_m": hm, "tap_n1": t1, "tap_n2": t2,
            "chain_1": f_n - (hm + t1), "chain_2": t1 - t2}


def concentration_bound(model: MixedModel, N: int, n: int, eps: float,
                        delta: float, t: float) -> float:
    """Gaussian-concentration tail bound 2 exp(-N t^2 c / (1/n + delta + eps)).

    The constant comes from the variance bound
    (1/N) Var <= 4 n xi(1) + n(n-1) xi'(1)(delta + 2 eps) <= c^{-1} n^2 (1/n + delta + eps) / 2.
    It holds for the replica counts n = 1, 2 of `BandSpec`; ValueError for
    any other n.
    """
    if n not in (1, 2):
        raise ValueError(f"replica count n={n} outside {{1, 2}}")
    denom = max(8.0 * model.xi(1.0), 4.0 * model.xi_prime(1.0))
    if denom == 0.0:
        return 0.0 if t > 0 else 2.0      # zero model never fluctuates
    c = 1.0 / denom
    return 2.0 * math.exp(-N * t * t * c / (1.0 / n + delta + eps))


def concentration_experiment(model: MixedModel, N: int, band: BandSpec,
                             n_draws: int, seed: int = 0,
                             thresholds=(0.05, 0.1)) -> dict:
    """Empirical tails of TAP_{N,n} over n_draws >= 2 draws vs the theory
    bound; ValueError for a band whose every draw is -inf (`tap_Nn`)."""
    if n_draws < 2:
        raise ValueError(f"need at least 2 draws, got {n_draws}")
    vals = np.empty(n_draws)
    for k in range(n_draws):
        smpl = sample(N, model, seed=seed + k)
        vals[k] = tap_Nn(smpl, band)
        if vals[k] == -math.inf:
            raise ValueError("band holds no configuration, or no pair inside "
                             "the overlap window")
    mean = float(np.mean(vals))
    rows = []
    for t in thresholds:
        emp = float(np.mean(np.abs(vals - mean) > t))
        bound = concentration_bound(model, N, band.n, band.eps, band.delta, t)
        rows.append({"t": t, "empirical": emp, "bound": min(bound, 1.0),
                     "ok": emp <= min(bound, 1.0) + 1e-12})
    return {"values": vals, "mean": mean, "std": float(np.std(vals, ddof=1)),
            "tails": rows}


def classical_tap_iteration(smpl: DisorderSample, m_init,
                            damping: float = 0.3) -> tuple[np.ndarray, float, float, dict]:
    """Damped classical TAP iteration with free self-overlap.

    m <- tanh(grad H(m)_i - m_i xi''(q_m) (1 - q_m)) with q_m = ||m||^2 / N
    tracked along the way; this is the replica-symmetric specialization of
    the generalized equations (CDF identically 1 on [q, 1], where the slope
    function is exactly tanh). Returns (m, q_m, residual, info); the final
    sphere radius feeds the constrained solver.
    """
    N = smpl.N
    m = np.asarray(m_init, dtype=float).copy()
    res = math.inf
    for it in range(CLASSICAL_MAX_ITER):
        qm = float(m @ m) / N
        tgt = np.tanh(smpl.gradient(m) - m * smpl.model.xi_double_prime(qm)
                      * (1.0 - qm))
        res = float(np.max(np.abs(tgt - m)))
        if res < CLASSICAL_TOL:
            break
        m = (1.0 - damping) * m + damping * tgt
    qm = float(m @ m) / N
    return m, qm, res, {"iterations": it + 1, "converged": res < CLASSICAL_TOL}


def solve_tap_equations(smpl: DisorderSample, q: float, zeta: OrderParameter,
                        m_init, damping: float = 0.3,
                        config: SolverConfig = DEFAULT_CONFIG) -> tuple[np.ndarray, float, dict]:
    """Damped iteration of the generalized TAP equations at fixed q.

    Update m <- (1-g) m + g Phi_x(q, grad H(m)_i - m_i xi''(q) int_q^1 zeta);
    the start and every iterate are put on sphere and cube by
    `_onto_sphere_cube`. Returns the final point, the sup-norm residual of
    the fixed-point equation, and iteration info.
    """
    m = _onto_sphere_cube(np.asarray(m_init, dtype=float), q)
    zq = restrict_zeta(zeta, q)
    int_zeta = zq.integral()
    onsager = smpl.model.xi_double_prime(q) * int_zeta

    def residual_and_target(mv, grad, sol):
        tgt = sol.phi_x(sol.t0, grad - mv * onsager)
        return float(np.max(np.abs(tgt - mv))), tgt

    grad = smpl.gradient(m)
    reach = float(np.max(np.abs(grad))) + 3.0
    sol = _orig_solution(smpl.model, q, zq, config.with_pad(reach))
    res_hist = []
    res, tgt = residual_and_target(m, grad, sol)
    for it in range(GENERALIZED_MAX_ITER):
        if res < GENERALIZED_TOL:
            break
        m = _onto_sphere_cube((1.0 - damping) * m + damping * tgt, q)
        grad = smpl.gradient(m)
        need = float(np.max(np.abs(grad))) + 3.0
        if need > reach:
            reach = need + 2.0
            sol = _orig_solution(smpl.model, q, zq, config.with_pad(reach))
        res, tgt = residual_and_target(m, grad, sol)
        res_hist.append(res)
        if len(res_hist) > 20 and res_hist[-1] > 10.0 * res_hist[-21]:
            return m, res, {"iterations": it + 1, "converged": False,
                            "diverging": True}
    return m, res, {"iterations": len(res_hist), "converged": res < GENERALIZED_TOL,
                    "diverging": False}


def grad_tap(model: MixedModel, m, r_atoms: int = 2,
             config: SolverConfig = DEFAULT_CONFIG) -> tuple[np.ndarray, TapResult]:
    """Gradient of m -> TAP(mu_m) at m in (-1, 1)^N.

    Equals -(1/N) (psi_bar(q, m_i, zeta_m) + m_i xi''(q) int_q^1 zeta_m(s) ds)
    with zeta_m the minimizing order parameter of TAP(mu_|m|); psi_bar is odd
    in its magnetization argument, so signed coordinates work directly. It
    comes from the minimizer's solve, re-solved wider for a boundary atom
    (|m_i| >= 1 - BOUNDARY_ATOM_TOL), where psi_bar is the finite root, not
    `tap.psi_bar`'s +-inf limit. For every |m_i| >= 1 - LOG_COMPLEMENT_TOL,
    psi_bar solves log(1 - Phi_x) = log(1 - |m_i|)
    (`PDESolution.boundary_inverse_phi_x`), not Phi_x = m_i, whose slope
    Phi_xx falls like 1 - |m_i|: one ulp of Phi_x would move it by ~5e-8 at
    the boundary rule.
    """
    m = np.asarray(m, dtype=float)
    if np.any(np.abs(m) >= 1.0):
        raise ValueError("grad_tap needs m in the open cube (-1, 1)^N")
    N = m.size
    mu = empirical(m, fold=True)
    result = tap_correction(model, mu, r_atoms=r_atoms, config=config)
    # the solve's q, the second moment of mu: m . m / N can differ in the
    # last bit
    q, zeta_m = result.q, result.minimizer_zeta
    sol, psi_vals = result.solution, np.empty(N)
    if _at_boundary(m).any():
        sol = _orig_solution(model, q, zeta_m, config,
                             a_max=float(np.max(np.abs(m))))
    near = np.abs(m) >= 1.0 - LOG_COMPLEMENT_TOL
    if near.any():
        psi_vals[near] = sol.boundary_inverse_phi_x(m[near])
    psi_vals[~near] = sol.inverse_phi_x(m[~near])
    int_zeta = restrict_zeta(zeta_m, q).integral()
    grad = -(psi_vals + m * model.xi_double_prime(q) * int_zeta) / N
    return grad, result


def _onto_sphere_cube(m: np.ndarray, q: float) -> np.ndarray:
    """A point of {||m||^2 = N q} with every |m_i| <= ASCENT_BOUND: scale m
    onto the sphere, then clip and rescale the unclipped coordinates until
    none exceeds the bound. Each round clips at least one more coordinate,
    so N rounds suffice. ValueError for q outside [0, ASCENT_BOUND^2] and
    for m = 0 when q > 0, which has no direction to scale."""
    N = m.size
    if not 0.0 <= q <= ASCENT_BOUND ** 2:
        raise ValueError(f"sphere radius q={q} outside "
                         f"[0, {ASCENT_BOUND ** 2}]")
    if q == 0.0:
        return np.zeros(N)
    if not np.any(m):
        raise ValueError("a zero point has no direction onto the sphere "
                         f"of radius q={q}")
    m = m * (math.sqrt(N * q) / np.linalg.norm(m))
    for _ in range(N):
        if np.max(np.abs(m)) <= ASCENT_BOUND:
            break
        m = np.clip(m, -ASCENT_BOUND, ASCENT_BOUND)
        free = np.abs(m) < ASCENT_BOUND
        rest = N * q - ASCENT_BOUND ** 2 * (N - np.count_nonzero(free))
        m[free] *= math.sqrt(rest / float(m[free] @ m[free]))
    return m


def tap_ascent(smpl: DisorderSample, q: float, steps: int = 30,
               r_atoms: int = 2, seed: int = 0,
               config: SolverConfig = DEFAULT_CONFIG) -> dict:
    """Projected gradient ascent of H(m)/N + TAP(mu_m) on ||m||^2 = N q
    inside the cube [-ASCENT_BOUND, ASCENT_BOUND]^N.

    Starts from a random point drawn from `seed`; the start and every step
    are put on sphere and cube by `_onto_sphere_cube`. Monotone up to
    line-search tolerance. Stops after `steps` steps, when no step raises
    the objective, or when the sphere-tangent gradient norm is at most
    ASCENT_GTOL, the only stop reported as `converged`. Reports the
    trajectory (step, value, point) and the final objective next to the
    true free energy F_N (an upper bound only in the large-N limit, so the
    comparison is a report, not an assertion).
    """
    N = smpl.N
    rng = np.random.default_rng(seed)
    m = _onto_sphere_cube(rng.uniform(-0.5, 0.5, size=N), q)

    def objective(mv):
        g_tap, res = grad_tap(smpl.model, mv, r_atoms=r_atoms, config=config)
        grad = smpl.gradient(mv) / N + g_tap
        # tangent to the sphere; at q = 0 the sphere is the origin
        grad = grad - (grad @ mv) / (N * q) * mv if q > 0 else np.zeros(N)
        return smpl.energy(mv) / N + res.value, grad

    val, grad = objective(m)
    traj = [{"step": 0, "value": val, "m": m}]
    eta = ASCENT_STEP
    for k in range(1, steps + 1):
        if np.linalg.norm(grad) <= ASCENT_GTOL:
            break
        moved = False
        while eta > 1e-8:
            m_try = _onto_sphere_cube(m + eta * grad, q)
            v_try, g_try = objective(m_try)
            if v_try >= val - 1e-12:
                m, val, grad = m_try, v_try, g_try
                moved = True
                eta = min(eta * 1.5, 4.0)
                break
            eta *= 0.5
        traj.append({"step": k, "value": val, "m": m})
        if not moved:
            break
    grad_norm = float(np.linalg.norm(grad))
    return {"m": m, "value": val, "trajectory": traj,
            "free_energy": free_energy(smpl), "grad_norm": grad_norm,
            "converged": grad_norm <= ASCENT_GTOL}

"""Command-line front end: reproducible experiments with JSON/CSV output.

Subcommands: correction, rs-scan, mc-verify, tap-solve, parisi, check.
Every command is a pure function of its config and seed; reruns with the
same flags produce byte-identical files. Exit codes: 0 success, 1 numerical
failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import cascades, disorder, rs, tap
from .measures import (DiscreteMeasure, OrderParameter, band_coords,
                       empirical, fold_law)
from .model import MixedModel, pure_p_model, sk_model
from .numerics import gauss_hermite, log2cosh, logsumexp
from .pde import MAX_GRID_STEP, GridBudgetError, SolverConfig, \
    parisi_functional, parisi_measure, second_derivative_identity, solve


class ConfigError(Exception):
    pass


def _load_model(path: str) -> MixedModel:
    try:
        return MixedModel.from_json(Path(path).read_text())
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"bad model spec {path}: {e}") from e


def _load_measure(path: str) -> DiscreteMeasure:
    """The folded law of the spec: magnetizations a -> |a| on [0, 1]."""
    try:
        return fold_law(DiscreteMeasure.from_json(Path(path).read_text()))
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"bad measure spec {path}: {e}") from e


def _sample(N: int, model: MixedModel, seed: int) -> disorder.DisorderSample:
    try:
        return disorder.sample(N, model, seed=seed)
    except ValueError as e:   # size or tensor-budget limits of --N
        raise ConfigError(f"bad --N {N}: {e}") from e


def _bounded(cast, lo: float, hi: float = np.inf, open_lo: bool = False):
    """argparse type: a finite `cast` number in [lo, hi] ((lo, hi] when
    open_lo), so a flag outside its domain exits 2 before any work."""
    def parse(text: str):
        x = cast(text)
        above = lo < x if open_lo else lo <= x
        if not (np.isfinite(x) and above and x <= hi):
            raise argparse.ArgumentTypeError(
                f"must lie in {'(' if open_lo else '['}{lo}, {hi}]: {text}")
        return x
    parse.__name__ = cast.__name__    # argparse names the type on a bad cast
    return parse


def _grid(value):
    """argparse type of a lo:hi:n grid: n >= 1 points, both ends `value`s."""
    def parse(text: str) -> list[float]:
        lo, hi, n = text.split(":")
        return [float(v) for v in np.linspace(value(lo), value(hi),
                                              _bounded(int, 1)(n))]
    parse.__name__ = "lo:hi:n grid"
    return parse


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=1,
                               default=_jsonify) + "\n")


def _jsonify(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not serializable: {type(x)}")


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _zeta_json(zeta) -> dict:
    return {"interval": list(zeta.interval),
            "atoms": [[x, w] for x, w in zeta.measure.atoms]}


def cmd_correction(args) -> int:
    model = _load_model(args.model)
    mu = _load_measure(args.mu)
    cfg = SolverConfig(dx=args.grid_step)
    res = tap.tap_correction(model, mu, r_atoms=args.r_atoms, config=cfg,
                             seed=args.seed)
    gap = None if res.diagnostics["trivial"] else abs(  # no band at delta_1
        tap.band_representation(model, mu, res, cfg) - res.value)
    out = {
        "value": res.value,
        "converged": res.diagnostics["converged"],
        "q": res.q,
        "minimizer": _zeta_json(res.minimizer_zeta),
        "certificate": res.diagnostics.get("certificate"),
        "representation_gap": gap,
        "classical_tap": rs.classical_tap(model, mu),
    }
    if res.q < 1.0 - 1e-9:
        # tap_correction's own diagnostic, unless its curvature test skipped it
        diag = res.diagnostics.get("rs")
        if diag is None:
            diag = rs.is_replica_symmetric(model.shift(res.q), mu)
        out["rs"] = {"is_rs": diag.is_rs, "sup_gamma": diag.sup_gamma,
                     "gamma_second_deriv_at_0": diag.gamma_second_deriv_at_0,
                     "plefka_lhs": diag.plefka_lhs}
    _write_json(Path(args.out) / "correction.json", out)
    return 0


def cmd_rs_scan(args) -> int:
    out_dir = Path(args.out)
    if bool(args.model) != bool(args.mu):
        raise ConfigError("the Gamma curve needs both --model and --mu")
    if args.model:
        model = _load_model(args.model)
        mu = _load_measure(args.mu)
        q = mu.moment(2)
        if q >= 1.0 - 1e-9:
            raise ConfigError("mu = delta_1 has no band to scan")
        shifted = model.shift(q)
        grid = shifted.horizon * np.linspace(0.0, 1.0, args.n + 1)[1:]
        s = np.concatenate(([0.0], grid))
        curve = np.concatenate(([0.0], rs.big_gamma_curve(shifted, mu, grid)))
        rows = zip(s.tolist(), rs.gamma_mu(shifted, mu, s).tolist(),
                   curve.tolist())
        _write_csv(out_dir / "gamma_curve.csv", ["s", "gamma_mu", "Gamma_mu"],
                   rows)
    rows = []
    for beta in args.beta_grid:
        for h in args.h_grid:
            r = rs.at_line_scan(beta, h)
            rows.append((beta, h, r["q"], r["at_value"], r["plefka_lhs"],
                         int(r["at_ok"]), int(r["plefka_ok"]),
                         int(r["rs_but_not_plefka"])))
    _write_csv(out_dir / "at_scan.csv",
               ["beta", "h", "q", "at_value", "plefka_lhs", "at_ok",
                "plefka_ok", "rs_but_not_plefka"], rows)
    return 0


def cmd_mc_verify(args) -> int:
    model = _load_model(args.model)
    cfg = SolverConfig(dx=args.grid_step)
    seed = args.seed
    checks = []

    # SDE second-derivative identity on a 2-atom order parameter
    q = 0.2
    zeta = OrderParameter.from_atoms((q, 1.0), [(q, 0.5), (0.7, 0.5)])
    sol = solve(model, zeta, cfg)
    ident = second_derivative_identity(sol, 0.3, n_paths=args.paths, seed=seed)
    checks.append({"check": "sde_second_derivative", "pass":
                   bool(ident["n_sigma"] <= 3.0), **{k: ident[k] for k in
                                                     ("lhs", "rhs", "se")}})

    # cascade functional vs band PDE integral
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=((0.2, 0.5), (0.5, 0.5)))
    qm = mu.moment(2)
    shifted = model.shift(qm)
    zb = OrderParameter.from_atoms((0.0, shifted.horizon),
                                   [(0.0, 0.4), (shifted.horizon, 0.6)])
    levels, fnodes = cascades.zeta_to_cascade_params(zb, shifted.xi_q_prime)
    casc = cascades.sample_cascade(levels, 512, seed=seed)
    m_vec = [0.2] * 4 + [0.5] * 4
    est = cascades.psi_full(casc, fnodes, m_vec, n_reps=args.reps,
                            seed=seed + 1)
    target = tap.band_functional(shifted, mu, lambda a: 0.0, 0.0, zb, cfg) \
        + 0.5 * zb.integral_against(shifted.theta_q)
    checks.append({"check": "cascade_band_integral",
                   "pass": bool(abs(est["mean"] - target) <= 3.0 * est["se"]),
                   "estimate": est["mean"], "target": target, "se": est["se"]})

    # cascade closed form for the theta-field functional
    ups = cascades.upsilon(shifted.mixture, zb)
    ups_mc = cascades.upsilon_mc(casc, shifted.mixture, zb,
                                 n_reps=2 * args.reps, seed=seed + 2)
    checks.append({"check": "upsilon_closed_form",
                   "pass": bool(abs(ups_mc["mean"] - ups) <= 3.0 * ups_mc["se"]),
                   "estimate": ups_mc["mean"], "target": ups,
                   "se": ups_mc["se"]})

    # small-N chain inequality and concentration
    rng = np.random.default_rng(seed)
    N = args.N
    smpl = _sample(N, model, seed)
    ok_chain = True
    worst = 0.0
    for _ in range(5):
        m = rng.uniform(-0.8, 0.8, size=N)
        band = disorder.BandSpec(tuple(m), eps=0.25, delta=0.25, n=2)
        ch = disorder.chain_values(smpl, band)
        worst = min(worst, ch["chain_1"], ch["chain_2"])
        # chain_2 = +inf when the band holds no pair inside the window
        ok_chain &= bool(np.isfinite(ch["chain_2"])) and ch["chain_1"] >= 0 \
            and ch["chain_2"] >= 0
    checks.append({"check": "band_chain_inequality", "pass": bool(ok_chain),
                   "worst_slack": worst})

    m = rng.uniform(-0.8, 0.8, size=N)
    band = disorder.BandSpec(tuple(m), eps=0.25, delta=0.25, n=2)
    conc = disorder.concentration_experiment(model, N, band,
                                             n_draws=min(args.reps, 60),
                                             seed=seed + 3)
    checks.append({"check": "concentration_tails",
                   "pass": bool(all(row["ok"] for row in conc["tails"])),
                   "tails": conc["tails"]})

    _write_json(Path(args.out) / "mc_verify.json", {"checks": checks,
                                                    "seed": seed})
    return 0 if all(c["pass"] for c in checks) else 1


def cmd_tap_solve(args) -> int:
    model = _load_model(args.model)
    cfg = SolverConfig(dx=args.grid_step)
    N = args.N
    smpl = _sample(N, model, args.seed)
    rng = np.random.default_rng(args.seed + 1)
    m0 = rng.uniform(-0.5, 0.5, size=N)
    # self-consistent sphere: free classical iteration fixes q
    m0, q, _, _ = disorder.classical_tap_iteration(smpl, m0,
                                                   damping=args.damping)
    zeta = OrderParameter.delta_at(q, (q, 1.0))   # RS start: CDF = 1 on [q,1]
    m, res, info = disorder.solve_tap_equations(smpl, q, zeta, m0,
                                                damping=args.damping,
                                                config=cfg)
    grad, tap_res = disorder.grad_tap(model, m, r_atoms=args.r_atoms,
                                      config=cfg)
    stat = smpl.gradient(m) / N + grad
    band = disorder.BandSpec(tuple(m), eps=args.eps, delta=args.delta, n=2)
    out = {
        "m": list(m),
        "q": q,
        "residual": res,
        "iterations": info["iterations"],
        "converged": bool(info["converged"]),
        "stationarity_max": float(np.max(np.abs(stat))),
        "tap_value": tap_res.value,
        "objective": smpl.energy(m) / N + tap_res.value,
        "free_energy": disorder.free_energy(smpl),
        "minimizer": _zeta_json(tap_res.minimizer_zeta),
        "band_chain": disorder.chain_values(smpl, band),
    }
    _write_json(Path(args.out) / "tap_solve.json", out)
    asc = disorder.tap_ascent(smpl, q, steps=args.steps, r_atoms=args.r_atoms,
                              seed=args.seed + 2, config=cfg)
    _write_csv(Path(args.out) / "ascent.csv", ["step", "objective"],
               [(row["step"], row["value"]) for row in asc["trajectory"]])
    return 0 if info["converged"] else 1


def cmd_parisi(args) -> int:
    model = _load_model(args.model)
    cfg = SolverConfig(dx=args.grid_step)
    zeta, info = parisi_measure(model, r_atoms=args.r_atoms, config=cfg,
                                seed=args.seed)
    out = {"value": info["value"], "measure": _zeta_json(zeta),
           "functional_at_measure": parisi_functional(model, zeta, cfg),
           "converged": info["diagnostics"]["converged"],
           "certificate": info["diagnostics"]["certificate"]}
    _write_json(Path(args.out) / "parisi.json", out)
    return 0


def cmd_check(args) -> int:
    """Fast property smoke test; machine-readable verdict per check."""
    verdicts = []

    def record(name, ok, **kv):
        verdicts.append({"check": name, "pass": bool(ok), **kv})

    model = sk_model(1.0, convention="full")
    record("mixture_values", abs(model.xi(0.5) - 0.25) < 1e-15)
    zeta = OrderParameter.delta_at(0.3, (0.3, 1.0))
    sol = solve(model, zeta)
    lhs = float(sol.phi(0.3, 0.7))
    rhs = float(np.log(2 * np.cosh(0.7))) + 0.5 * (model.xi_prime(1.0)
                                                   - model.xi_prime(0.3))
    record("single_layer_closed_form", abs(lhs - rhs) < 1e-9, lhs=lhs, rhs=rhs)
    shifted = model.shift(0.16)
    vrs = rs.v_rs(shifted, 0.4)
    ev = tap.effective_field(shifted,
                             OrderParameter.delta_at(0.0, (0.0, shifted.horizon)))
    record("rs_effective_field", abs(vrs - ev(0.4)) < 1e-7)
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=((0.0, 1.0),))
    small = sk_model(0.4, convention="half")
    res = tap.tap_correction(small, mu, r_atoms=2)
    classical = rs.classical_tap(small, mu)
    record("rs_classical_tap", abs(res.value - classical) < 1e-6,
           value=res.value, classical=classical)
    # Gamma_mu < 0: the RS shortcut returns delta_q without the optimizer
    record("rs_shortcut",
           res.diagnostics["stop"] == "rs"
           and abs(res.value - classical) < 1e-9,
           stop=res.diagnostics["stop"], error=abs(res.value - classical))
    # off center (q = 0.49 > delta): the overlap window 1 - d/4 in
    # (0.19, 0.79) holds d = 1, 2, 3 only, so a mirrored window shows
    N = 8
    smpl = disorder.sample(N, model, seed=11)
    m = 0.7 * np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, -1.0])
    band = disorder.BandSpec(tuple(m), eps=0.3, delta=0.3, n=2)
    ch = disorder.chain_values(smpl, band)
    record("band_chain", np.isfinite(ch["chain_2"]) and ch["chain_1"] >= 0
           and ch["chain_2"] >= 0)
    # every reader of the sample's kept energies against a direct loop
    S = disorder.all_configs(N)
    E = np.array([smpl.energy(s) for s in S])
    inside = np.abs(S @ m - float(m @ m)) / N < band.eps
    Eb = E[inside] - smpl.energy(m)
    pairs = np.abs(S[inside] @ S[inside].T / N - float(m @ m) / N) < band.delta
    direct = {"free_energy": float(logsumexp(E)) / N,
              "tap_n1": float(logsumexp(Eb)) / N,
              "tap_n2": float(logsumexp((Eb[:, None] + Eb[None, :])[pairs]))
              / (2 * N)}
    error = max(abs(ch[k] - v) for k, v in direct.items())
    record("pair_stage", error < 1e-12, error=error, direct=direct)
    # Plefka's condition is necessary for RS: a law violating it has
    # sup Gamma > 0 and a correction strictly below the classical value
    mixed = MixedModel(coeffs_sq=(0.0, 0.6, 0.2))
    law = empirical(np.random.default_rng(15).uniform(-0.6, 0.6, 6),
                    fold=True)
    diag = rs.is_replica_symmetric(mixed.shift(law.moment(2)), law)
    res = tap.tap_correction(mixed, law, r_atoms=2)
    gap = res.value - rs.classical_tap(mixed, law)
    record("plefka_violation_breaks_rs",
           diag.plefka_lhs > 1.0 and not diag.is_rs and gap < -5e-6,
           plefka_lhs=diag.plefka_lhs, sup_gamma=diag.sup_gamma,
           tap_minus_classical=gap)
    # the same at the EA point of the 1RSB xi = 2.5 s^3: of two laws with
    # int a^2 dmu = q_EA, the one with Gamma''(0) > 0 is not RS, so delta_q,
    # which r = 2 returns there, may not pass as converged
    pure3, q_ea = pure_p_model(3, 2.5), 0.914131

    def ea_law(p):
        return DiscreteMeasure(interval=(0.0, 1.0), atoms=(
            (0.0, p), (math.sqrt(q_ea / (1.0 - p)), 1.0 - p)))
    plefka = tap.tap_correction(pure3, ea_law(0.05), r_atoms=2)
    law = ea_law(0.08)
    res = tap.tap_correction(pure3, law, r_atoms=2)
    curvature = rs.gamma_second_derivative(pure3.shift(res.q), law)
    witness = OrderParameter.from_atoms(
        (res.q, 1.0), [(res.q, 0.334033), (0.918705, 0.665967)])
    gap = tap.tap_with_zeta(pure3, law, witness) - rs.classical_tap(pure3, law)
    record("ea_point_verdicts",
           plefka.diagnostics["stop"] == "rs"
           and not res.diagnostics["converged"] and curvature > 0.0
           and gap < -1e-6,
           stop=plefka.diagnostics["stop"],
           converged=res.diagnostics["converged"],
           gamma_second_deriv_at_0=curvature, witness_minus_classical=gap)
    # the paper's fixed point at an RSB minimizer zeta_0 (SK beta = 1.5, two
    # atoms): (0, zeta_0) minimizes P_bar^{v_{zeta_0}}, each P_bar read off
    # the band solves of its own zeta; P_bar(0, zeta_0) is the band
    # representation, so it matches the value
    sk = sk_model(1.5, convention="half")
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=((0.1, 0.6), (0.4, 0.4)))
    res = tap.tap_correction(sk, mu, r_atoms=2)
    shifted, zb0 = sk.shift(res.q), band_coords(res.minimizer_zeta)
    ev = tap.effective_field(shifted, zb0)
    base = tap.band_functional(shifted, mu, ev, 0.0, zb0)
    H = shifted.horizon
    alt = OrderParameter.from_atoms((0.0, H), [(0.0, 0.5), (0.5 * H, 0.5)])
    # both lambdas on one band solve per atom of mu
    gaps = (tap.band_functional(shifted, mu, ev, np.array([0.0, 0.4]), alt)
            - base).tolist()
    record("band_fixed_point",
           res.diagnostics["converged"]
           and len(res.minimizer_zeta.measure.atoms) == 2
           and abs(base - res.value) <= 1e-8 and min(gaps) >= -1e-8,
           atoms=len(res.minimizer_zeta.measure.atoms),
           representation_gap=abs(base - res.value), gaps_above_base=gaps)
    # grad_tap at an entry on the boundary (1 - 1e-9, where tap_ascent
    # clips): the minimizer is delta_q, where Phi_x(q, x) = tanh x, so the
    # entry is -(atanh m + m xi''(q) (1 - q)) / N
    weak, m = sk_model(0.5), np.array([0.3, -0.5, 1.0 - 1e-9, 0.2])
    grad, res = disorder.grad_tap(weak, m, r_atoms=2)
    q = res.q
    closed = -(math.atanh(m[2]) + m[2] * weak.xi_double_prime(q) * (1.0 - q)) \
        / m.size
    record("boundary_gradient",
           res.minimizer_zeta.measure.atoms == ((q, 1.0),)
           and abs(grad[2] - closed) <= 1e-12,
           entry=grad[2], closed_form=closed)
    # the same closed form at every entry of a 200-atom law: its psi_bar
    # are one inversion call
    m = np.random.default_rng(24).uniform(-0.9, 0.9, 200)
    grad, res = disorder.grad_tap(weak, m, r_atoms=2)
    q = res.q
    closed = -(np.arctanh(m) + m * weak.xi_double_prime(q) * (1.0 - q)) \
        / m.size
    error = float(np.max(np.abs(grad - closed)))
    record("many_atom_gradient",
           res.diagnostics["stop"] == "rs"
           and res.minimizer_zeta.measure.atoms == ((q, 1.0),)
           and error <= 1e-10, stop=res.diagnostics["stop"], error=error)
    # SK with a field above the AT line: r = 2 (the slot at 0 and one atom)
    # gives the RS value log 2 + E log cosh(beta sqrt(q) g + h)
    # + beta^2 (1 - q)^2 / 4 at the RS fixed point q
    beta, h = 0.8, 0.5
    value = parisi_measure(sk_model(beta, h=h), r_atoms=2)[1]["value"]
    q = rs.at_line_scan(beta, h)["q"]
    g, w = gauss_hermite(rs.AT_GH_ORDER)
    closed = float(w @ log2cosh(beta * math.sqrt(q) * g + h)) \
        + beta ** 2 * (1.0 - q) ** 2 / 4.0
    record("parisi_field_rs", abs(value - closed) < 1e-9, value=value,
           rs_formula=closed)
    # every read of a solve is one checked reader on the grid step config.dx:
    # at dx = 0.1 Phi_x read at the grid points is the frame's, E u(s)^2 at
    # the grid edge is at most 1, and a start one step beyond is refused
    zeta = OrderParameter.from_atoms((0.0, 1.0), [(0.0, 0.5), (0.6, 0.5)])
    sol = solve(sk_model(1.4), zeta, SolverConfig(dx=0.1))
    error = float(np.max(np.abs(sol.phi_x(0.0, sol.x_grid)
                                - sol.frame_at(0.0).phi_x)))
    edge = float(sol.x_grid[-1])
    u2 = float(sol.expected_u_squared(0.6, edge))
    try:
        sol.expected_u_squared(0.6, edge + sol.config.dx)
        refused = False
    except ValueError:
        refused = True
    record("grid_reads", error <= 1e-14 and u2 <= 1.0 and refused,
           node_error=error, u2_at_edge=u2, refused_beyond_edge=refused)
    print(json.dumps({"checks": verdicts,
                      "pass": all(v["pass"] for v in verdicts)},
                     sort_keys=True, default=_jsonify))
    return 0 if all(v["pass"] for v in verdicts) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gtap",
                                description="generalized TAP free energy toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    count, positive = _bounded(int, 1), _bounded(float, 0.0, open_lo=True)
    n_pair = disorder.ENUM_SPINS // 2   # tap_Nn's n = 2 band spans 2N spins

    def common(sp, seed=0):
        sp.add_argument("--model", required=True, help="model spec JSON")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--seed", type=_bounded(int, 0), default=seed)
        sp.add_argument("--grid-step", default=SolverConfig.dx,
                        type=_bounded(float, 0.0, MAX_GRID_STEP, open_lo=True))

    sp = sub.add_parser("correction", help="TAP correction for a measure")
    common(sp, seed=None)   # no --seed: the optimizer's evenly spread start
    sp.add_argument("--mu", required=True, help="measure spec JSON")
    sp.add_argument("--r-atoms", type=count, default=3)
    sp.set_defaults(func=cmd_correction)

    sp = sub.add_parser("rs-scan", help="Gamma curves and AT/Plefka tables")
    sp.add_argument("--model", default=None)
    sp.add_argument("--mu", default=None)
    sp.add_argument("--out", default="out")
    sp.add_argument("--n", type=count, default=24, help="Gamma grid points")
    sp.add_argument("--beta-grid", type=_grid(positive), default="0.5:1.5:5")
    sp.add_argument("--h-grid", type=_grid(_bounded(float, 0.0)),
                    default="0.1:0.5:3")
    sp.set_defaults(func=cmd_rs_scan)

    sp = sub.add_parser("mc-verify", help="Monte-Carlo identity checks")
    common(sp)
    sp.add_argument("--paths", type=_bounded(int, 3), default=20000)
    sp.add_argument("--reps", type=_bounded(int, 2), default=120)
    # from N = 4 its random bands hold pairs inside the 0.25 overlap window
    sp.add_argument("--N", type=_bounded(int, 4, n_pair), default=10)
    sp.set_defaults(func=cmd_mc_verify)

    sp = sub.add_parser("tap-solve", help="TAP fixed points on sampled disorder")
    common(sp)
    sp.add_argument("--N", type=_bounded(int, 1, n_pair), default=8)
    sp.add_argument("--eps", type=positive, default=0.2)
    sp.add_argument("--delta", type=positive, default=0.2)
    sp.add_argument("--damping", type=_bounded(float, 0.0, 1.0, open_lo=True),
                    default=0.3)
    sp.add_argument("--steps", type=_bounded(int, 0), default=10)
    sp.add_argument("--r-atoms", type=count, default=1)
    sp.set_defaults(func=cmd_tap_solve)

    sp = sub.add_parser("parisi", help="Parisi functional minimization")
    common(sp)
    sp.add_argument("--r-atoms", type=count, default=3)
    sp.set_defaults(func=cmd_parisi)

    sp = sub.add_parser("check", help="fast property smoke test")
    sp.set_defaults(func=cmd_check)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, GridBudgetError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

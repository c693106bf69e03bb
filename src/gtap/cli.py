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
import sys
from pathlib import Path

import numpy as np

from . import cascades, disorder, rs, tap
from .measures import DiscreteMeasure, OrderParameter, empirical, fold_law
from .model import MixedModel, sk_model
from .pde import SolverConfig, parisi_functional, parisi_measure, \
    second_derivative_identity, solve


class ConfigError(Exception):
    pass


def _load_model(path: str) -> MixedModel:
    try:
        return MixedModel.from_json(Path(path).read_text())
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        raise ConfigError(f"bad model spec {path}: {e}") from e


def _load_measure(path: str) -> DiscreteMeasure:
    """The folded law of the spec: magnetizations a -> |a| on [0, 1]."""
    try:
        return fold_law(DiscreteMeasure.from_json(Path(path).read_text()))
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        raise ConfigError(f"bad measure spec {path}: {e}") from e


def _sample(N: int, model: MixedModel, seed: int) -> disorder.DisorderSample:
    try:
        return disorder.sample(N, model, seed=seed)
    except ValueError as e:   # size or tensor-budget limits of --N
        raise ConfigError(f"bad --N {N}: {e}") from e


def _solver_config(args) -> SolverConfig:
    try:
        return SolverConfig(dx=args.grid_step)
    except ValueError as e:
        raise ConfigError(f"bad --grid-step: {e}") from e


def _positive_int(text: str) -> int:
    """argparse type of --r-atoms: a positive integer."""
    if int(text) <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return int(text)


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
    cfg = _solver_config(args)
    res = tap.tap_correction(model, mu, r_atoms=args.r_atoms, config=cfg,
                             seed=args.seed)
    out = {
        "value": res.value,
        "converged": res.diagnostics["converged"],
        "q": res.q,
        "minimizer": _zeta_json(res.minimizer_zeta),
        "certificate": res.diagnostics.get("certificate"),
        "representation_gap": res.diagnostics.get("representation_gap"),
        "classical_tap": rs.classical_tap(model, mu),
    }
    if res.q < 1.0 - 1e-9:
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
    beta_grid = _parse_grid(args.beta_grid)
    h_grid = _parse_grid(args.h_grid)
    rows = []
    for beta in beta_grid:
        for h in h_grid:
            r = rs.at_line_scan(beta, h)
            rows.append((beta, h, r["q"], r["at_value"], r["plefka_lhs"],
                         int(r["at_ok"]), int(r["plefka_ok"]),
                         int(r["rs_but_not_plefka"])))
    _write_csv(out_dir / "at_scan.csv",
               ["beta", "h", "q", "at_value", "plefka_lhs", "at_ok",
                "plefka_ok", "rs_but_not_plefka"], rows)
    return 0


def _parse_grid(spec: str) -> list[float]:
    try:
        lo, hi, n = spec.split(":")
        return [float(v) for v in np.linspace(float(lo), float(hi), int(n))]
    except ValueError as e:
        raise ConfigError(f"bad grid spec {spec!r}; use lo:hi:n") from e


def cmd_mc_verify(args) -> int:
    model = _load_model(args.model)
    cfg = _solver_config(args)
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
    ups = cascades.upsilon(shifted, zb)
    ups_mc = cascades.upsilon_mc(casc, shifted, zb, n_reps=2 * args.reps,
                                 seed=seed + 2)
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
        ok_chain &= ch["chain_1"] >= 0 and ch["chain_2"] >= 0
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
    cfg = _solver_config(args)
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
    if model.external_field_h != 0.0:
        raise ConfigError("parisi needs a model without external field h")
    cfg = _solver_config(args)
    zeta, info = parisi_measure(model, r_atoms=args.r_atoms, config=cfg,
                                seed=args.seed)
    out = {"value": info["value"], "measure": _zeta_json(zeta),
           "functional_at_measure": parisi_functional(model, zeta, cfg)}
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
    record("rs_classical_tap",
           abs(res.value - rs.classical_tap(small, mu)) < 1e-6,
           value=res.value, classical=rs.classical_tap(small, mu))
    smpl = disorder.sample(8, model, seed=11)
    band = disorder.BandSpec((0.0,) * 8, eps=0.3, delta=0.3, n=2)
    ch = disorder.chain_values(smpl, band)
    record("band_chain", ch["chain_1"] >= 0 and ch["chain_2"] >= 0)
    # Plefka's condition is necessary for RS: a law violating it has
    # sup Gamma > 0 and a correction strictly below the classical value
    mixed = MixedModel(coeffs_sq=(0.0, 0.6, 0.2))
    law = empirical(np.random.default_rng(15).uniform(-0.6, 0.6, 6),
                    fold=True)
    diag = rs.is_replica_symmetric(mixed.shift(law.moment(2)), law)
    res = tap.tap_correction(mixed, law, r_atoms=2, with_representation=False,
                             with_certificate=False)
    gap = res.value - rs.classical_tap(mixed, law)
    record("plefka_violation_breaks_rs",
           diag.plefka_lhs > 1.0 and not diag.is_rs and gap < -5e-6,
           plefka_lhs=diag.plefka_lhs, sup_gamma=diag.sup_gamma,
           tap_minus_classical=gap)
    print(json.dumps({"checks": verdicts,
                      "pass": all(v["pass"] for v in verdicts)},
                     sort_keys=True, default=_jsonify))
    return 0 if all(v["pass"] for v in verdicts) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gtap",
                                description="generalized TAP free energy toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=0):
        sp.add_argument("--model", required=True, help="model spec JSON")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--seed", type=int, default=seed)
        sp.add_argument("--grid-step", type=float, default=SolverConfig.dx)

    sp = sub.add_parser("correction", help="TAP correction for a measure")
    common(sp, seed=None)   # no --seed: the optimizer's evenly spread start
    sp.add_argument("--mu", required=True, help="measure spec JSON")
    sp.add_argument("--r-atoms", type=_positive_int, default=3)
    sp.set_defaults(func=cmd_correction)

    sp = sub.add_parser("rs-scan", help="Gamma curves and AT/Plefka tables")
    sp.add_argument("--model", default=None)
    sp.add_argument("--mu", default=None)
    sp.add_argument("--out", default="out")
    sp.add_argument("--n", type=int, default=24, help="Gamma grid points")
    sp.add_argument("--beta-grid", default="0.5:1.5:5", dest="beta_grid")
    sp.add_argument("--h-grid", default="0.1:0.5:3", dest="h_grid")
    sp.set_defaults(func=cmd_rs_scan)

    sp = sub.add_parser("mc-verify", help="Monte-Carlo identity checks")
    common(sp)
    sp.add_argument("--paths", type=int, default=20000)
    sp.add_argument("--reps", type=int, default=120)
    sp.add_argument("--N", type=int, default=10)
    sp.set_defaults(func=cmd_mc_verify)

    sp = sub.add_parser("tap-solve", help="TAP fixed points on sampled disorder")
    common(sp)
    sp.add_argument("--N", type=int, default=8)
    sp.add_argument("--eps", type=float, default=0.2)
    sp.add_argument("--delta", type=float, default=0.2)
    sp.add_argument("--damping", type=float, default=0.3)
    sp.add_argument("--steps", type=int, default=10)
    sp.add_argument("--r-atoms", type=_positive_int, default=1)
    sp.set_defaults(func=cmd_tap_solve)

    sp = sub.add_parser("parisi", help="Parisi functional minimization")
    common(sp)
    sp.add_argument("--r-atoms", type=_positive_int, default=3)
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
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Seeded workloads of the gtap benchmark.

A workload turns a seed into a list of tasks: it writes the model and
measure files that ``gtap`` reads, and computes the oracles and work counts
the checks need. ``gtap`` sees only those files and command-line arguments
(or, for the library workloads, the generated arguments). Each check uses a
tolerance the test suite states:

* parisi_rsb     test_cli (value = functional at the measure, 1e-9) and
                 test_parisi_value_decreases_with_atoms (r=2 <= r=1 + 1e-9)
* correction_rs  acceptance 5 (|TAP - classical| <= 1e-3 on RS-certified
                 draws) and acceptance 13 (representation gap <= 1e-4)
* mc_identities  acceptance 8 and 9 (every identity within 3 standard errors)
* small_n        acceptance 10 (exact chain inequality) and 11 (concentration
                 tails within the bound, one cell of slack)
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from gtap import cascades, cli, disorder, pde, rs, tap
from gtap.measures import DiscreteMeasure, OrderParameter
from gtap.model import MixedModel, sk_model


@dataclass
class Task:
    """One unit of timed work with its oracle check."""

    key: str                                     # names the input; same seed, same key
    run: Callable[[Path], object]                # the timed call; gets a fresh directory
    check: Callable[[object, Path], tuple[bool, dict]]
    exact: dict = field(default_factory=dict)    # work counts the benchmark computes
    cli: bool = False                            # runs the CLI, which writes files
    reps: int = 1                                # executions in each pass


@dataclass
class Workload:
    tasks: list[Task]
    facts: dict


def _digest(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:12]


def _cli_task(key: str, argv: list[str], output: str, judge) -> Task:
    """A task that runs ``gtap`` in-process and judges its JSON output."""

    def run(out: Path) -> int:
        return cli.main(argv + ["--out", str(out)])

    def check(rc, out: Path):
        if rc != 0:
            return False, {"exit_code": rc}
        return judge(json.loads((out / output).read_text()))

    return Task(key=key, run=run, check=check, cli=True)


# ---------------------------------------------------------------------------
# parisi_rsb

PARISI_MODELS = (("sk_beta1.4", (0.0, 0.98)), ("xi_0.8s2_0.4s3", (0.0, 0.8, 0.4)))
# The optimizer's cost depends on the init: 105 to 410 solves on SK across
# inits 0-5. Random inits per run would make run-to-run spread exceed any
# usable bound, so every run uses the same inits and the seed only orders them.
PARISI_INITS = (0, 1)
# A grid 4x coarser than the default keeps one pass under 20 s; values agree
# with the default grid to about 1e-8.
PARISI_GRID_STEP = 0.0625


def parisi_rsb(seed: int, work: Path) -> Workload:
    cfg = pde.SolverConfig(dx=PARISI_GRID_STEP)
    tasks, refs = [], {}
    for name, coeffs in PARISI_MODELS:
        model = MixedModel(coeffs_sq=coeffs)
        path = work / f"{name}.json"
        path.write_text(model.to_json())
        ref = pde.parisi_measure(model, r_atoms=1, config=cfg)[1]["value"]
        refs[name] = ref
        for init in PARISI_INITS:
            argv = ["parisi", "--model", str(path), "--r-atoms", "2",
                    "--seed", str(init), "--grid-step", repr(PARISI_GRID_STEP)]

            def judge(d, name=name, init=init, ref=ref):
                gap = abs(d["value"] - d["functional_at_measure"])
                return (gap <= 1e-9 and d["value"] <= ref + 1e-9,
                        {"model": name, "init": init, "value": d["value"],
                         "r1_value": ref, "functional_gap": gap,
                         "atoms": len(d["measure"]["atoms"])})

            key = f"{name}/init{init}:{_digest(path.read_text(), *argv[4:])}"
            tasks.append(_cli_task(key, argv, "parisi.json", judge))
    order = np.random.default_rng(seed).permutation(len(tasks))
    return Workload([tasks[i] for i in order],
                    {"r1_values": refs, "inits": list(PARISI_INITS),
                     "grid_step": PARISI_GRID_STEP})


# ---------------------------------------------------------------------------
# correction_rs

# One draw costs 0.8 to 1.4 times the median draw, depending on its model; 20
# draws keep the seed-to-seed change in a run's total work near 5%.
CORRECTION_DRAWS = 20


def _draw_model_mu(rng, n_atoms: int) -> tuple[MixedModel, DiscreteMeasure]:
    """Mixture with p <= 4, coeffs_sq up to 0.6; mu with n_atoms in [0, 0.8]."""
    c = rng.uniform(0.0, 0.6, size=4)
    c[0] = 0.0
    if c[1] < 0.05:
        c[1] = 0.3
    locs = np.sort(rng.uniform(0.0, 0.8, size=n_atoms))
    w = rng.dirichlet(np.ones(n_atoms))
    mu = DiscreteMeasure(interval=(0.0, 1.0),
                         atoms=tuple((float(x), float(v)) for x, v in zip(locs, w)))
    return MixedModel(coeffs_sq=tuple(float(x) for x in c)), mu


def _certified_rs(model: MixedModel, mu: DiscreteMeasure) -> bool:
    """The acceptance-5 certification: Gamma_mu <= -1e-3 on the band grid."""
    sh = model.shift(mu.moment(2))
    curve = rs.big_gamma_curve(sh, mu, sh.horizon * np.linspace(0.15, 1.0, 16))
    return float(np.max(curve)) <= -1e-3


def correction_rs(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    tasks, tried = [], 0
    while len(tasks) < CORRECTION_DRAWS:
        tried += 1
        # Equally many draws with 1, 2, 3 and 4 atoms: the cost of a draw
        # grows with its atoms, and a random mix would vary from seed to seed.
        model, mu = _draw_model_mu(rng, len(tasks) % 4 + 1)
        if not _certified_rs(model, mu):
            continue
        k = len(tasks)
        mpath, upath = work / f"model{k}.json", work / f"mu{k}.json"
        mpath.write_text(model.to_json())
        upath.write_text(mu.to_json())
        classical = rs.classical_tap(model, mu)
        argv = ["correction", "--model", str(mpath), "--mu", str(upath)]

        def judge(d, classical=classical, n_atoms=len(mu.atoms)):
            err = abs(d["value"] - classical)
            gap = d["representation_gap"]
            return (err <= 1e-3 and gap <= 1e-4,
                    {"tap_minus_classical": err, "representation_gap": gap,
                     "mu_atoms": n_atoms})

        key = f"draw{k}:{_digest(mpath.read_text(), upath.read_text())}"
        tasks.append(_cli_task(key, argv, "correction.json", judge))
    return Workload(tasks, {"draws_tried": tried,
                            "rs_certified_share": len(tasks) / tried})


# ---------------------------------------------------------------------------
# mc_identities

# Acceptance 8 configurations: (model, q, atoms of zeta on [q, 1], x0).
SDE_CONFIGS = (
    ((0.0, 1.0), 0.2, ((0.2, 0.4), (0.6, 0.6)), 0.5),
    ((0.0, 0.5, 0.3), 0.3, ((0.45, 0.7), (0.8, 0.3)), -0.8),
    ((0.0, 0.7), 0.1, ((1.0, 1.0),), 0.0),
)
SDE_PATHS, SDE_STEPS = 100_000, 512
# Acceptance 9 configurations: (model, mu atoms, m vector, zeta atoms as
# fractions of the band horizon (None = endpoint), K, lambda, v slope).
CASCADE_CONFIGS = (
    ((0.0, 0.6, 0.2), ((0.2, 0.5), (0.5, 0.5)), (0.2,) * 4 + (0.5,) * 4,
     ((0.0, 0.4), (None, 0.6)), 4000, 0.0, None),
    ((0.0, 0.5), ((0.3, 0.5), (0.6, 0.5)), (0.3,) * 5 + (0.6,) * 5,
     ((0.0, 0.25), (0.5, 0.25), (None, 0.5)), 64, 0.1, 0.3),
    ((0.0, 0.8), ((0.3, 1.0),), (0.3,) * 6,
     ((0.4, 0.5), (None, 0.5)), 4000, 0.0, None),
)
# The 3-sigma checks are statistical: with fresh Monte-Carlo seeds every run,
# about 0.3% of checks would fail by chance. The seeds are the ones the
# acceptance tests fix (the SDE check runs 512 Euler steps instead of 2048),
# so every run repeats the same draws; the workload seed only orders tasks.
SDE_SEED, CASCADE_SEEDS, UPSILON_SEEDS = 808, (909, 910), (911, 912)
# The cascade and upsilon checks take 0.2-0.4 s and one of them is the median
# task. One execution of it read 0.36 s or 0.56 s in runs of the same inputs,
# depending on the machine's load at that moment, so each runs five times in
# a pass and its time is the median of those.
SHORT_REPS = 5


def _sigma_judge(label):
    def check(out, _dir):
        return out["n_sigma"] <= 3.0, {"check": label, **out}
    return check


def _sde_task(k: int, coeffs, q, atoms, x0) -> Task:
    def run(_out):
        sol = pde.solve(MixedModel(coeffs_sq=coeffs),
                        OrderParameter.from_atoms((q, 1.0), atoms))
        r = pde.second_derivative_identity(sol, x0, n_paths=SDE_PATHS,
                                           seed=SDE_SEED, n_steps=SDE_STEPS)
        return {"n_sigma": r["n_sigma"], "lhs": r["lhs"], "rhs": r["rhs"],
                "se": r["se"]}

    return Task(key=f"sde{k}", run=run, check=_sigma_judge(f"sde{k}"))


def _cascade_task(k: int, coeffs, mu_atoms, m_vec, atom_spec, K, lam, slope):
    model = MixedModel(coeffs_sq=coeffs)
    mu = DiscreteMeasure(interval=(0.0, 1.0), atoms=mu_atoms)
    sh = model.shift(mu.moment(2))
    H = sh.horizon
    zb = OrderParameter.from_atoms(
        (0.0, H), [(H if raw is None else raw * H, w) for raw, w in atom_spec])
    v = None if slope is None else (lambda a: slope * a)
    target = tap.band_functional(sh, mu, v or (lambda a: 0.0), lam, zb) \
        + 0.5 * zb.integral_against(sh.theta_q)

    def run(_out):
        levels, fnodes = cascades.zeta_to_cascade_params(zb, sh.xi_q_prime)
        casc = cascades.sample_cascade(levels, K, seed=CASCADE_SEEDS[0])
        est = cascades.psi_full(casc, fnodes, list(m_vec), lam=lam, v=v,
                                n_reps=240, seed=CASCADE_SEEDS[1])
        return {"n_sigma": abs(est["mean"] - target) / est["se"],
                "estimate": est["mean"], "target": target, "se": est["se"]}

    return Task(key=f"cascade{k}", run=run, check=_sigma_judge(f"cascade{k}"),
                reps=SHORT_REPS)


def _upsilon_task() -> Task:
    f = MixedModel(coeffs_sq=(0.0, 0.9))
    zb = OrderParameter.from_atoms((0.0, 1.0), [(0.0, 0.5), (1.0, 0.5)])
    closed = cascades.upsilon(f, zb)

    def run(_out):
        levels, _ = cascades.zeta_to_cascade_params(zb, f.theta)
        casc = cascades.sample_cascade(levels, 4000, seed=UPSILON_SEEDS[0])
        est = cascades.upsilon_mc(casc, f, zb, n_reps=500, seed=UPSILON_SEEDS[1])
        return {"n_sigma": abs(est["mean"] - closed) / est["se"],
                "estimate": est["mean"], "target": closed, "se": est["se"]}

    return Task(key="upsilon", run=run, check=_sigma_judge("upsilon"), reps=SHORT_REPS)


def mc_identities(seed: int, work: Path) -> Workload:
    tasks = [_sde_task(k, *c) for k, c in enumerate(SDE_CONFIGS)]
    tasks += [_cascade_task(k, *c) for k, c in enumerate(CASCADE_CONFIGS)]
    tasks.append(_upsilon_task())
    order = np.random.default_rng(seed).permutation(len(tasks))
    return Workload([tasks[i] for i in order],
                    {"sde_paths": SDE_PATHS, "sde_steps": SDE_STEPS})


# ---------------------------------------------------------------------------
# small_n

SMALL_N, SMALL_DRAWS, BANDS_PER_DRAW = 12, 30, 10
EPS = DELTA = 0.2
CONC_EVERY, CONC_DRAWS = 10, 20
BAND_CENTER_SEED = 1010


def _band_size(S: np.ndarray, m: np.ndarray, eps: float) -> int:
    """|B(m, eps)| by the benchmark's own enumeration of {-1, 1}^N."""
    return int(np.count_nonzero(np.abs(S @ m - float(m @ m)) / m.size < eps))


def _chain_task(key, smpl, band, size) -> Task:
    def run(_out):
        return disorder.chain_values(smpl, band)

    def check(ch, _dir):
        return (ch["chain_1"] >= 0 and ch["chain_2"] >= 0,
                {"chain_1": ch["chain_1"], "chain_2": ch["chain_2"],
                 "band_size": size})

    return Task(key=key, run=run, check=check,
                exact={"disorder.pairs": size * size})


def _concentration_task(key, model, band, size, seed) -> Task:
    def run(_out):
        return disorder.concentration_experiment(
            model, SMALL_N, band, n_draws=CONC_DRAWS, seed=seed,
            thresholds=(0.05, 0.1))

    def check(out, _dir):
        fails = sum(0 if row["ok"] else 1 for row in out["tails"])
        return fails <= 1, {"tails": out["tails"], "band_size": size}

    return Task(key=key, run=run, check=check,
                exact={"disorder.pairs": CONC_DRAWS * size * size})


def small_n(seed: int, work: Path) -> Workload:
    # The pair stage costs |B|^2, and |B| runs from about 200 to 3900 over
    # band centers, so a fresh set of centers per seed moves the run's total
    # work by 10-30%. The centers are therefore one fixed set, drawn as
    # acceptance 10 and 11 draw theirs; the seed draws the disorder.
    centers = np.random.default_rng(BAND_CENTER_SEED)
    rng = np.random.default_rng(seed)
    model = sk_model(1.0, convention="half")
    idx = np.arange(1 << SMALL_N, dtype=np.uint32)
    S = ((idx[:, None] >> np.arange(SMALL_N, dtype=np.uint32)) & 1) * 2.0 - 1.0
    tasks, sizes = [], []
    for d in range(SMALL_DRAWS):
        dseed = int(rng.integers(2 ** 31))
        smpl = disorder.sample(SMALL_N, model, seed=dseed)
        for b in range(BANDS_PER_DRAW):
            m = centers.uniform(-0.9, 0.9, size=SMALL_N)
            size = _band_size(S, m, EPS)
            sizes.append(size)
            band = disorder.BandSpec(tuple(m), eps=EPS, delta=DELTA, n=2)
            key = f"draw{dseed}/band{b}:{_digest(repr(band.m))}"
            tasks.append(_chain_task(key, smpl, band, size))
        if d % CONC_EVERY == CONC_EVERY - 1:
            m = centers.uniform(-0.8, 0.8, size=SMALL_N)
            band = disorder.BandSpec(tuple(m), eps=EPS, delta=DELTA, n=2)
            cseed = int(rng.integers(2 ** 31))
            tasks.append(_concentration_task(f"conc{cseed}:{_digest(repr(band.m))}",
                                             model, band,
                                             _band_size(S, m, EPS), cseed))
    return Workload(tasks, {"band_size_min": min(sizes),
                            "band_size_max": max(sizes)})


WORKLOADS = {
    "parisi_rsb": parisi_rsb,
    "correction_rs": correction_rs,
    "mc_identities": mc_identities,
    "small_n": small_n,
}

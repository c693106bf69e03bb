import json

import pytest

from gtap.cli import main


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.fixture
def model_spec(tmp_path):
    return write(tmp_path, "model.json", {"coeffs_sq": [0.0, 0.125], "h": 0.0})


def test_correction_delta_one(tmp_path, model_spec):
    mu = write(tmp_path, "mu.json",
               {"interval": [0, 1], "atoms": [[1.0, 1.0]]})
    out = tmp_path / "out1"
    rc = main(["correction", "--model", model_spec, "--mu", mu,
               "--out", str(out)])
    assert rc == 0
    data = json.loads((out / "correction.json").read_text())
    assert data["value"] == 0.0


def test_correction_rs_instance_and_rerun_identical(tmp_path, model_spec):
    mu = write(tmp_path, "mu.json",
               {"interval": [0, 1], "atoms": [[0.0, 0.5], [0.3, 0.5]]})
    out = tmp_path / "out2"
    assert main(["correction", "--model", model_spec, "--mu", mu,
                 "--out", str(out), "--r-atoms", "2"]) == 0
    first = (out / "correction.json").read_bytes()
    assert main(["correction", "--model", model_spec, "--mu", mu,
                 "--out", str(out), "--r-atoms", "2"]) == 0
    assert (out / "correction.json").read_bytes() == first
    data = json.loads(first)
    assert abs(data["value"] - data["classical_tap"]) < 1e-5
    assert data["rs"]["is_rs"] is True


@pytest.mark.parametrize("coeffs, stop", [
    ([0.0, 0.125], "rs"),       # Gamma < 0: tap_correction's diagnostic
    ([0.0, 1.0], "tol"),        # Gamma''(0) > 0: the curve is left to the CLI
])
def test_correction_computes_the_rs_diagnostic_once(tmp_path, monkeypatch,
                                                    coeffs, stop):
    from gtap import rs
    from gtap.measures import DiscreteMeasure
    from gtap.model import MixedModel
    model = write(tmp_path, "m.json", {"coeffs_sq": coeffs, "h": 0.0})
    mu = write(tmp_path, "mu.json", {"interval": [0, 1], "atoms": [[0.0, 1.0]]})
    calls = []
    diagnose = rs.is_replica_symmetric

    def counting(*args):
        calls.append(1)
        return diagnose(*args)

    monkeypatch.setattr(rs, "is_replica_symmetric", counting)
    out = tmp_path / "out"
    assert main(["correction", "--model", model, "--mu", mu, "--out", str(out),
                 "--r-atoms", "1"]) == 0
    assert len(calls) == 1
    data = json.loads((out / "correction.json").read_text())
    diag = diagnose(MixedModel(coeffs_sq=tuple(coeffs)).shift(0.0),
                    DiscreteMeasure.delta(0.0))
    assert data["rs"] == {
        "is_rs": diag.is_rs, "sup_gamma": diag.sup_gamma,
        "gamma_second_deriv_at_0": diag.gamma_second_deriv_at_0,
        "plefka_lhs": diag.plefka_lhs}
    assert data["rs"]["is_rs"] == (stop == "rs")


def test_tap_solve_ascent_from_a_start_outside_the_cube(tmp_path):
    # q = 0.370: U(-1/2, 1/2)^10 scaled onto the sphere has an entry beyond 1
    # at this seed, which made grad_tap refuse the start and the command
    # exit 1 without ascent.csv
    model = write(tmp_path, "m.json", {"coeffs_sq": [0, 0.5], "h": 0.8})
    out = tmp_path / "solve"
    assert main(["tap-solve", "--model", model, "--N", "10", "--seed", "4",
                 "--out", str(out)]) == 0
    rows = (out / "ascent.csv").read_text().splitlines()
    assert rows[0] == "step,objective" and len(rows) > 2


def test_correction_seed_moves_start_not_value(tmp_path):
    # RSB instance: different starts end at different points of the same
    # minimum, so the outputs differ in bytes but the values agree
    model = write(tmp_path, "m.json", {"coeffs_sq": [0.0, 0.6, 0.2], "h": 0.0})
    mu = write(tmp_path, "mu.json", {"interval": [0, 1], "atoms": [
        [0.08591670844047716, 0.5], [0.378980533603269, 0.25],
        [0.5461941891714974, 0.25]]})
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        assert main(["correction", "--model", model, "--mu", mu, "--out",
                     str(out), "--r-atoms", "2", "--seed", seed]) == 0
        outputs.append((out / "correction.json").read_bytes())
    assert outputs[0] != outputs[1]
    a, b = (json.loads(o) for o in outputs)
    assert abs(a["value"] - b["value"]) < 1e-7
    assert a["value"] < a["classical_tap"] - 1e-6


def test_malformed_model_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    mu = write(tmp_path, "mu.json",
               {"interval": [0, 1], "atoms": [[1.0, 1.0]]})
    rc = main(["correction", "--model", str(bad), "--mu", mu,
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_missing_file_exits_2(tmp_path):
    mu = write(tmp_path, "mu.json",
               {"interval": [0, 1], "atoms": [[1.0, 1.0]]})
    rc = main(["correction", "--model", str(tmp_path / "nope.json"),
               "--mu", mu, "--out", str(tmp_path / "o")])
    assert rc == 2


def test_rs_scan_outputs(tmp_path, model_spec):
    mu = write(tmp_path, "mu.json",
               {"interval": [0, 1], "atoms": [[0.0, 1.0]]})
    out = tmp_path / "scan"
    rc = main(["rs-scan", "--model", model_spec, "--mu", mu, "--out",
               str(out), "--n", "6", "--beta-grid", "0.5:1.0:2",
               "--h-grid", "0.2:0.4:2"])
    assert rc == 0
    gamma = (out / "gamma_curve.csv").read_text().splitlines()
    assert gamma[0] == "s,gamma_mu,Gamma_mu"
    first = gamma[1].split(",")
    assert float(first[0]) == 0.0 and abs(float(first[2])) < 1e-12
    at = (out / "at_scan.csv").read_text().splitlines()
    assert at[0].startswith("beta,h,q,at_value,plefka_lhs")
    assert len(at) == 5


def test_rs_scan_model_without_mu_exits_2(tmp_path, model_spec):
    rc = main(["rs-scan", "--model", model_spec, "--out",
               str(tmp_path / "scan"), "--beta-grid", "0.5:1.0:2"])
    assert rc == 2
    assert not (tmp_path / "scan" / "at_scan.csv").exists()


@pytest.mark.parametrize("flag", [["--grid-step", "0.01"], ["--seed", "3"]])
def test_rs_scan_rejects_unused_flags(tmp_path, flag):
    # the AT/Plefka table and the Gamma curve use neither a grid nor a seed
    rc = main(["rs-scan", "--out", str(tmp_path / "o"), *flag])
    assert rc == 2


def test_correction_atom_near_one(tmp_path):
    model = write(tmp_path, "m.json", {"coeffs_sq": [0.0, 0.045], "h": 0.0})
    mu = write(tmp_path, "mu.json", {"interval": [0, 1], "atoms": [
        [0.3, 0.5], [0.99999999, 0.5]]})
    out = tmp_path / "near1"
    assert main(["correction", "--model", model, "--mu", mu,
                 "--out", str(out)]) == 0
    data = json.loads((out / "correction.json").read_text())
    assert abs(data["value"] - data["classical_tap"]) < 1e-8
    assert data["converged"] is True


@pytest.mark.parametrize("spec", [
    {"interval": [-2, 2], "atoms": [[-1.5, 0.5], [1.5, 0.5]]},
    {"interval": [0, 2], "atoms": [[0.3, 0.5], [1.5, 0.5]]},
])
@pytest.mark.parametrize("command", ["correction", "rs-scan"])
def test_measure_outside_unit_interval_exits_2(tmp_path, model_spec, spec,
                                               command):
    mu = write(tmp_path, "mu.json", spec)
    out = tmp_path / "o"
    rc = main([command, "--model", model_spec, "--mu", mu, "--out", str(out)])
    assert rc == 2
    assert not out.exists()


BAD_GRID_STEPS = [["--grid-step", "0"], ["--grid-step", "-0.01"],
                  ["--grid-step", "inf"]]
BAD_ATOM_COUNTS = [["--r-atoms", "0"], ["--r-atoms", "-2"]]


@pytest.mark.parametrize("command, flag", [
    (command, flag)
    for command in ("correction", "mc-verify", "tap-solve", "parisi")
    for flag in BAD_GRID_STEPS + (BAD_ATOM_COUNTS if command != "mc-verify"
                                  else [])])
def test_bad_numeric_flags_exit_2(tmp_path, model_spec, command, flag):
    mu = write(tmp_path, "mu.json", {"interval": [0, 1], "atoms": [[0.3, 1.0]]})
    extra = ["--mu", mu] if command == "correction" else []
    out = tmp_path / "o"
    rc = main([command, "--model", model_spec, *extra, "--out", str(out),
               *flag])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("command",
                         ["correction", "mc-verify", "tap-solve", "parisi"])
@pytest.mark.parametrize("step", ["0.5", "1e300"])
def test_coarse_grid_step_exits_2(tmp_path, model_spec, command, step):
    # dx above pde.MAX_GRID_STEP is refused like a non-positive one
    mu = write(tmp_path, "mu.json", {"interval": [0, 1], "atoms": [[0.3, 1.0]]})
    extra = ["--mu", mu] if command == "correction" else []
    out = tmp_path / "o"
    rc = main([command, "--model", model_spec, *extra, "--out", str(out),
               "--grid-step", step])
    assert rc == 2
    assert not out.exists()


def test_tap_solve_oversized_n_exits_2(tmp_path, model_spec):
    rc = main(["tap-solve", "--model", model_spec, "--N", "30",
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_tap_solve_fixed_q_flag_is_gone(tmp_path, model_spec):
    # q comes from the classical fixed point; a fixed sphere radius had no
    # multiplier for |m|^2 = Nq and could not converge away from it
    out = tmp_path / "o"
    rc = main(["tap-solve", "--model", model_spec, "--q", "0.3",
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_parisi_with_field(tmp_path):
    spec = write(tmp_path, "field.json", {"coeffs_sq": [0.0, 0.5], "h": 0.3})
    out = tmp_path / "o"
    rc = main(["parisi", "--model", spec, "--out", str(out)])
    assert rc == 0
    data = json.loads((out / "parisi.json").read_text())
    assert data["value"] == pytest.approx(data["functional_at_measure"],
                                          abs=1e-9)


@pytest.mark.parametrize("command, model, flags", [
    *[(command, {"coeffs_sq": [0.0, 0.125]}, ["--grid-step", "1e-7"])
      for command in ("correction", "mc-verify", "tap-solve", "parisi")],
    ("parisi", {"coeffs_sq": [0.0, 0.5], "h": 1e6}, []),
])
def test_oversized_grid_exits_2(tmp_path, command, model, flags):
    # a grid over pde.MAX_GRID_POINTS is a configuration error, refused
    # before it is allocated; the field pads the Parisi grid by |h|
    spec = write(tmp_path, "model.json", model)
    mu = write(tmp_path, "mu.json", {"interval": [0, 1], "atoms": [[0.3, 1.0]]})
    extra = ["--mu", mu] if command == "correction" else []
    out = tmp_path / "o"
    rc = main([command, "--model", spec, *extra, "--out", str(out), *flags])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("model, converged", [
    ({"coeffs_sq": [0.0, 0.0, 1.5], "h": 0.0}, False),
    ({"coeffs_sq": [0.0, 0.32], "h": 0.5}, True),
])
def test_parisi_writes_its_verdict(tmp_path, model, converged):
    # r = 2 on the 1RSB xi = 1.5 s^3 stops at an atom at 1, above the 2-atom
    # point 0.846262 delta_0 + 0.153738 delta_0.857039 that r = 3 finds; SK
    # beta = 0.8, h = 0.5 lies above the AT line, where r = 2 is the minimum
    from gtap.measures import OrderParameter
    from gtap.model import MixedModel
    from gtap.pde import parisi_functional
    spec = write(tmp_path, "model.json", model)
    out = tmp_path / "o"
    assert main(["parisi", "--model", spec, "--out", str(out),
                 "--r-atoms", "2"]) == 0
    data = json.loads((out / "parisi.json").read_text())
    assert data["converged"] is converged
    assert (data["certificate"]["first_residual"] <= 1e-4) is converged
    if not converged:
        witness = OrderParameter.from_atoms(
            (0.0, 1.0), [(0.0, 0.846262), (0.857039, 0.153738)])
        below = parisi_functional(MixedModel(coeffs_sq=(0.0, 0.0, 1.5)),
                                  witness)
        assert below == pytest.approx(1.4350282617, abs=1e-9)
        assert data["value"] > below + 2e-3


def test_parisi_command(tmp_path, model_spec):
    out = tmp_path / "parisi"
    rc = main(["parisi", "--model", model_spec, "--out", str(out),
               "--r-atoms", "1"])
    assert rc == 0
    data = json.loads((out / "parisi.json").read_text())
    assert data["value"] == pytest.approx(data["functional_at_measure"],
                                          abs=1e-9)


def test_tap_solve_command(tmp_path):
    model = write(tmp_path, "m.json",
                  {"coeffs_sq": [0.0, 0.045], "h": 0.6})
    out = tmp_path / "solve"
    rc = main(["tap-solve", "--model", model, "--out", str(out),
               "--N", "8", "--seed", "5", "--steps", "2",
               "--damping", "0.5"])
    assert rc == 0
    data = json.loads((out / "tap_solve.json").read_text())
    assert data["residual"] < 1e-6
    assert data["stationarity_max"] < 1e-3
    assert (out / "ascent.csv").exists()
    assert data["band_chain"]["chain_1"] >= 0


def test_check_reads_both_fixed_point_lambdas_on_two_band_solves(
        monkeypatch, capsys):
    # band_fixed_point's alt (two atoms of mass 1/2) is read at lambda = 0
    # and 0.4 on one band solve per atom of mu, not one per atom and lambda
    from gtap import tap
    alt_solves, solve_band = [], tap.solve_band

    def counting(shifted, a, zeta, config):
        if [w for _, w in zeta.measure.atoms] == [0.5, 0.5]:
            alt_solves.append(a)
        return solve_band(shifted, a, zeta, config)
    monkeypatch.setattr(tap, "solve_band", counting)
    assert main(["check"]) == 0
    verdicts = {v["check"]: v for v in json.loads(capsys.readouterr().out)
                ["checks"]}
    assert verdicts["band_fixed_point"]["pass"]
    assert verdicts["many_atom_gradient"]["pass"]
    assert len(alt_solves) == 2


def test_check_command(capsys):
    rc = main(["check"])
    out = capsys.readouterr().out
    verdict = json.loads(out)
    assert rc == 0
    assert verdict["pass"] is True


def test_mc_verify_command(tmp_path, model_spec):
    out = tmp_path / "mc"
    rc = main(["mc-verify", "--model", model_spec, "--out", str(out),
               "--paths", "4000", "--reps", "60", "--N", "8", "--seed", "2"])
    data = json.loads((out / "mc_verify.json").read_text())
    names = {c["check"] for c in data["checks"]}
    assert {"sde_second_derivative", "cascade_band_integral",
            "upsilon_closed_form", "band_chain_inequality"} <= names
    assert rc == 0


SPEC_COMMANDS = ["correction", "rs-scan", "mc-verify", "tap-solve", "parisi"]


def run_with_specs(tmp_path, command, model_text, mu_text):
    model = tmp_path / "model.json"
    model.write_text(model_text)
    mu = tmp_path / "mu.json"
    mu.write_text(mu_text)
    extra = ["--mu", str(mu)] if command in ("correction", "rs-scan") else []
    out = tmp_path / "o"
    rc = main([command, "--model", str(model), *extra, "--out", str(out)])
    return rc, out


GOOD_MU = '{"interval": [0, 1], "atoms": [[0.3, 1.0]]}'


@pytest.mark.parametrize("model_text", [
    '{"coeffs_sq": [0, NaN]}', '{"coeffs_sq": [0, Infinity], "h": 0}',
    '{"coeffs_sq": [0, 0.125], "h": NaN}', '{"coeffs_sq": [0, 1e400]}',
    '{"coeffs_sq": [0, 0.125], "h": null}'])
@pytest.mark.parametrize("command", SPEC_COMMANDS)
def test_non_finite_model_spec_exits_2(tmp_path, command, model_text):
    rc, out = run_with_specs(tmp_path, command, model_text, GOOD_MU)
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("mu_text", [
    '{"interval": [0, 1], "atoms": [[0.3, NaN]]}',
    '{"interval": [0, 1], "atoms": [[NaN, 1.0]]}',
    '{"interval": [0, Infinity], "atoms": [[0.3, 1.0]]}'])
@pytest.mark.parametrize("command", ["correction", "rs-scan"])
def test_non_finite_measure_spec_exits_2(tmp_path, command, mu_text):
    rc, out = run_with_specs(tmp_path, command, '{"coeffs_sq": [0, 0.125]}',
                             mu_text)
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("tap-solve", ["--N", "0"]), ("tap-solve", ["--N", "15"]),
    ("tap-solve", ["--damping", "1.5"]), ("tap-solve", ["--damping", "0"]),
    ("tap-solve", ["--eps", "0"]), ("tap-solve", ["--delta", "-1"]),
    ("tap-solve", ["--eps", "nan"]), ("tap-solve", ["--steps", "-1"]),
    ("tap-solve", ["--seed", "-1"]),
    ("mc-verify", ["--N", "0"]), ("mc-verify", ["--N", "15"]),
    ("mc-verify", ["--paths", "0"]), ("mc-verify", ["--paths", "2"]),
    ("mc-verify", ["--reps", "1"]), ("mc-verify", ["--N", "abc"]),
    ("rs-scan", ["--n", "0"]), ("rs-scan", ["--n", "-5"]),
    ("rs-scan", ["--beta-grid", "1:2:0"]), ("rs-scan", ["--beta-grid", "0:1:2"]),
    ("rs-scan", ["--h-grid=-0.5:0.5:3"]), ("rs-scan", ["--h-grid", "0:1"]),
    ("rs-scan", ["--beta-grid", "1:inf:2"]),
])
def test_flag_outside_its_domain_exits_2(tmp_path, model_spec, command, flags):
    # refused before any work: rs-scan gets a model and a measure, so a late
    # refusal would leave its Gamma curve behind
    mu = write(tmp_path, "mu.json", {"interval": [0, 1], "atoms": [[0.3, 1.0]]})
    extra = ["--mu", mu] if command == "rs-scan" else []
    out = tmp_path / "o"
    rc = main([command, "--model", model_spec, *extra, "--out", str(out),
               *flags])
    assert rc == 2
    assert not out.exists()


def test_tap_solve_empty_band_exits_1(tmp_path):
    # eps = 1e-6 admits no configuration, so the band chain has no value
    model = write(tmp_path, "m.json", {"coeffs_sq": [0, 0.5], "h": 0.5})
    out = tmp_path / "solve"
    assert main(["tap-solve", "--model", model, "--out", str(out),
                 "--N", "8", "--eps", "1e-6", "--steps", "1"]) == 1
    assert not out.exists()


def test_tap_solve_zero_ascent_steps(tmp_path):
    model = write(tmp_path, "m.json", {"coeffs_sq": [0.0, 0.045], "h": 0.6})
    out = tmp_path / "solve"
    assert main(["tap-solve", "--model", model, "--out", str(out),
                 "--N", "6", "--steps", "0"]) == 0
    rows = (out / "ascent.csv").read_text().splitlines()
    assert rows[0] == "step,objective" and len(rows) == 2


@pytest.mark.parametrize("n", ["1", "2", "3"])
def test_mc_verify_refuses_sizes_without_pairs(tmp_path, model_spec, n):
    # at N <= 3 its random bands often hold no pair inside the 0.25 overlap
    # window (at N = 1 never: the overlaps are +-1)
    out = tmp_path / "o"
    rc = main(["mc-verify", "--model", model_spec, "--out", str(out),
               "--N", n])
    assert rc == 2
    assert not out.exists()


def test_mc_verify_chain_check_needs_finite_values(tmp_path, model_spec,
                                                   monkeypatch):
    # a band with no pair in the window gives chain_2 = +inf, which is
    # >= 0 but no evidence for the inequality
    from gtap import disorder
    chain_values = disorder.chain_values

    def no_pairs(smpl, band):
        ch = chain_values(smpl, band)
        return {**ch, "tap_n2": float("-inf"), "chain_2": float("inf")}

    monkeypatch.setattr(disorder, "chain_values", no_pairs)
    out = tmp_path / "mc"
    rc = main(["mc-verify", "--model", model_spec, "--out", str(out),
               "--paths", "4", "--reps", "3", "--N", "4", "--seed", "1"])
    data = json.loads((out / "mc_verify.json").read_text())
    verdict = {c["check"]: c["pass"] for c in data["checks"]}
    assert verdict["band_chain_inequality"] is False
    assert rc == 1


@pytest.mark.parametrize("command, spec, message", [
    # pure 7-spin at N = 14 asks for 14^7 > 2^26 coefficients
    (["tap-solve", "--N", "14"], None,
     "bad --N 14: tensor budget exceeded"),
    (["rs-scan"], {"interval": [0, 1], "atoms": [[1.0, 1.0]]},
     "mu = delta_1 has no band to scan"),
], ids=["tensor_budget", "rs_scan_delta_1"])
def test_refusals_exit_2_and_write_nothing(tmp_path, capsys, command, spec,
                                           message):
    model = write(tmp_path, "m.json", {"coeffs_sq": [0.0] * 6 + [1.0]})
    mu = ["--mu", write(tmp_path, "mu.json", spec)] if spec else []
    out = tmp_path / "out"
    rc = main([*command, "--model", model, *mu, "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()

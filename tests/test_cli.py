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


def test_tap_solve_oversized_n_exits_2(tmp_path, model_spec):
    rc = main(["tap-solve", "--model", model_spec, "--N", "30",
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_parisi_with_field_exits_2(tmp_path):
    spec = write(tmp_path, "field.json", {"coeffs_sq": [0.0, 0.5], "h": 0.3})
    rc = main(["parisi", "--model", spec, "--out", str(tmp_path / "o")])
    assert rc == 2


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

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pqdec
from pqdec.cli import main
from pqdec.decoupling import apply_isometry, decoupling_scores
from pqdec.isometries import load_isometry
from pqdec.states import load_state, max_entangled, to_density


def make_bell(tmp_path):
    path = tmp_path / "bell.json"
    assert main(["make-state", "bell", "--d", "2", "--out", str(path)]) == 0
    return str(path)


FAST = ["--restarts", "4", "--iterations", "400"]


def test_make_state_bell_then_qmi(tmp_path, capsys):
    bell = make_bell(tmp_path)
    assert main(["qmi", "--state", bell, "--x", "R", "--y", "A"]) == 0
    assert float(capsys.readouterr().out.strip()) == 2.0


def test_make_state_round_trip_bit_for_bit(tmp_path):
    bell = make_bell(tmp_path)
    want = to_density(max_entangled(2))
    got = load_state(bell)
    assert np.array_equal(got.matrix, want.matrix)
    assert got.sig == want.sig


def test_entropy_subsystem(tmp_path, capsys):
    bell = make_bell(tmp_path)
    assert main(["entropy", "--state", bell, "--subsystem", "R"]) == 0
    assert float(capsys.readouterr().out.strip()) == 1.0
    assert main(["entropy", "--state", bell]) == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


def test_bounds_json(tmp_path, capsys):
    bell = make_bell(tmp_path)
    assert main(["bounds", "--state", bell] + FAST) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["qmi"] == 2.0
    assert payload["prop1_lower"] == 1.0
    assert payload["half_qmi_upper"] == 1.0
    assert abs(payload["povm_upper"] - 1.0) <= 2e-2
    assert payload["xi_infinity"] == 1.0


def test_optimize_json_and_certificate(tmp_path, capsys):
    bell = make_bell(tmp_path)
    cert = tmp_path / "cert.json"
    assert (
        main(
            ["optimize", "--state", bell, "--certificate", str(cert)]
            + FAST
            + ["--seed", "0"]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert 0.98 <= payload["i_rb"] <= 1.02
    assert payload["epsilon"] == "inf"
    assert payload["feasible"] is True
    assert payload["isometry"]["d_in"] == 2
    # The exported certificate reproduces the reported scores.
    v = load_isometry(cert)
    out = apply_isometry(load_state(bell), v)
    i_rb, i_re, _ = decoupling_scores(out)
    assert abs(i_rb - payload["i_rb"]) <= 1e-6
    assert abs(i_re - payload["i_re"]) <= 1e-6


def test_optimize_with_eps_and_dims(tmp_path, capsys):
    bell = make_bell(tmp_path)
    assert (
        main(
            ["optimize", "--state", bell, "--eps", "0.5", "--dB", "2", "--dE", "2"]
            + FAST
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["epsilon"] == 0.5
    assert payload["d_b"] == 2 and payload["d_e"] == 2


def test_sweep_csv(tmp_path, capsys):
    bell = make_bell(tmp_path)
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--state", bell, "--eps-grid", "0:1:0.25", "--out", str(out)]
        + ["--restarts", "6", "--iterations", "800"]
    )
    assert code == 0
    text = out.read_text()
    assert capsys.readouterr().out == text
    lines = text.strip().split("\n")
    assert len(lines) == 6
    envelope = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(envelope, envelope[1:]))


def test_verify_passes(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", "--seed", "42", "--out", str(report)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 10
    assert all(line.startswith("PASS ") for line in lines)
    payload = json.loads(report.read_text())
    assert all(entry["passed"] for entry in payload)


def test_random_study_csv(tmp_path, capsys):
    code = main(
        ["random-study", "--dims", "2", "2", "--samples", "3", "--seed", "1"] + FAST
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("sample,seed,qmi,")
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[-2] == "true" and cells[-1] == "true"


def test_byte_identical_outputs_across_thread_counts(tmp_path, batch_width):
    # The restarts run in lockstep; the batch width replaces the thread count.
    bell = make_bell(tmp_path)
    outputs = []
    for width in (None, 1, 3):
        batch_width(width)
        out = tmp_path / f"w{width}.json"
        assert main(["optimize", "--state", bell, "--seed", "3", "--out", str(out)] + FAST) == 0
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    # It used to pass argparse and fail only once the search reached a
    # random restart, with numpy's message; on Bell it exited 0.
    bell = make_bell(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["optimize", "--state", bell, "--seed", "-5", "--restarts", "4"])
    assert err.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_exit_codes(tmp_path, capsys):
    bell = make_bell(tmp_path)
    # Unknown label: usage error.
    assert main(["qmi", "--state", bell, "--x", "R", "--y", "X"]) == 2
    # Missing file: usage error.
    assert main(["entropy", "--state", str(tmp_path / "nope.json")]) == 2
    # Bad grid: argparse usage error.
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--state", bell, "--eps-grid", "1:0:0.25"])
    assert err.value.code == 2
    # Invalid density matrix: numerical validation failure.
    bad = tmp_path / "bad.json"
    doc = {
        "labels": ["R", "A"],
        "dims": [2, 2],
        "matrix": [[x, 0.0] for x in np.diag([0.8, 0.4, -0.1, -0.1]).flatten()],
    }
    bad.write_text(json.dumps(doc))
    assert main(["entropy", "--state", str(bad)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("eps", ["-1", "nan", "abc"])
def test_bad_eps_is_a_usage_error(tmp_path, capsys, eps):
    bell = make_bell(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["optimize", "--state", bell, "--eps", eps])
    assert err.value.code == 2
    assert "--eps" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "abc"])
def test_bad_tol_is_a_usage_error(tmp_path, capsys, tol):
    # Trace one but not positive: a NaN or infinite tolerance used to pass
    # it, and the loader then returned a different, pure state.
    neg = tmp_path / "neg.json"
    doc = {
        "labels": ["R", "A"],
        "dims": [2, 2],
        "matrix": [[x, 0.0] for x in np.diag([1.5, -0.5, 0.0, 0.0]).flatten()],
    }
    neg.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as err:
        main(["qmi", "--state", str(neg), "--x", "R", "--y", "A", "--tol", tol])
    assert err.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_make_state_kinds(tmp_path, capsys):
    iso_path = tmp_path / "iso.json"
    assert main(["make-state", "isotropic", "--d", "2", "--fidelity", "0.9", "--out", str(iso_path)]) == 0
    assert main(["bounds", "--state", str(iso_path)] + FAST) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["ic_a_to_r"] - 0.372508156339) <= 1e-9

    cc_path = tmp_path / "cc.json"
    assert main(["make-state", "cc", "--d", "3", "--out", str(cc_path)]) == 0
    assert main(["qmi", "--state", str(cc_path), "--x", "R", "--y", "A"]) == 0
    assert abs(float(capsys.readouterr().out.strip()) - np.log2(3.0)) <= 1e-9

    sep_path = tmp_path / "sep.json"
    assert main(["make-state", "separable", "--dims", "2", "2", "--terms", "3", "--seed", "5", "--out", str(sep_path)]) == 0
    assert main(["bounds", "--state", str(sep_path)] + FAST) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["xi_infinity"] == 0.0

    rand_path = tmp_path / "rand.json"
    assert main(["make-state", "random", "--dims", "2", "3", "--rank", "2", "--seed", "4", "--out", str(rand_path)]) == 0
    state = load_state(rand_path)
    assert state.sig.dims == (2, 3)
    assert int(np.sum(np.linalg.eigvalsh(state.matrix) > 1e-9)) == 2


def bell_document():
    flat = to_density(max_entangled(2)).matrix.flatten()
    return {"labels": ["R", "A"], "dims": [2, 2], "matrix": [[z.real, z.imag] for z in flat]}


def nan_entry(doc):
    doc["matrix"][5][0] = float("nan")


def fractional_dim(doc):
    doc["dims"] = [2.5, 2]


def nan_dim(doc):
    doc["dims"] = [float("nan"), 2]


def text_entry(doc):
    doc["matrix"][5] = ["a", 0]


def scalar_matrix(doc):
    doc["matrix"] = 5


def short_entry(doc):
    doc["matrix"][5] = [0.25]


@pytest.mark.parametrize(
    "corrupt", [nan_entry, fractional_dim, nan_dim, text_entry, scalar_matrix, short_entry]
)
def test_malformed_state_is_a_validation_failure(tmp_path, capsys, corrupt):
    doc = bell_document()
    corrupt(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["qmi", "--state", str(path), "--x", "R", "--y", "A"]) == 3
    assert "validation failure" in capsys.readouterr().err


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(pqdec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, pqdec; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0

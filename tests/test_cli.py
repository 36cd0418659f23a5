import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import pqdec
from pqdec.cli import _cell, _grid_value, _record, build_parser, main
from pqdec.decoupling import BoundsReport, DecouplingOutcome, apply_isometry, decoupling_scores
from pqdec.isometries import load_isometry
from pqdec.qmat import ValidationError
from pqdec.scenarios import bound_sandwich
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


def test_negative_zero_eps_prints_as_zero(tmp_path, capsys):
    assert main(["optimize", "--state", make_bell(tmp_path), "--eps=-0"] + FAST) == 0
    assert '"epsilon": 0.0,' in capsys.readouterr().out


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


def test_sweep_csv_shape(tmp_path, capsys):
    # The grid flag takes finite bounds only, so the unbounded point is set
    # on the parsed arguments.
    args = build_parser().parse_args(
        ["sweep", "--state", make_bell(tmp_path), "--eps-grid", "0:0:1"] + FAST
    )
    args.eps_grid = [0.0, math.inf]
    assert args.func(args) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == (
        "eps,xi_envelope,i_rb,i_re,prop1_lower,half_qmi_upper,"
        "feasible,restarts_used,converged"
    )
    assert len(lines) == 3
    assert lines[2].startswith("inf,")


def test_cell_rule():
    assert _cell("eps") == "eps"
    assert [_cell(v) for v in (True, False, np.bool_(True), np.bool_(False))] == [
        "true", "false", "true", "false"
    ]
    assert [_cell(v) for v in (0, 7, np.int64(-3))] == ["0", "7", "-3"]
    assert _cell(math.inf) == "inf"
    assert _cell(0.0) == "0" and _cell(2.0) == "2"
    assert _cell(1 / 3) == "0.333333333333"
    assert _cell(np.float64(2 / 3)) == "0.666666666667"
    assert _cell(1.23456789012345e-7) == "1.23456789012e-07"


def test_record_rule():
    report = BoundsReport(2.0, 1 / 3, np.float64(0.5), 1.0, 2 / 3, 0.0)
    assert list(_record(report).items()) == [
        ("qmi", 2.0), ("ic_a_to_r", 0.333333333333), ("prop1_lower", 0.5),
        ("half_qmi_upper", 1.0), ("povm_upper", 0.666666666667), ("xi_infinity", 0.0),
    ]
    outcome = DecouplingOutcome(
        np.eye(4, 2), 1 / 3, 0.1, math.inf, np.bool_(True), np.int64(4), False, 2, 2, 2
    )
    record = _record(outcome, skip=("theta",))
    assert list(record) == [
        "i_rb", "i_re", "epsilon", "feasible", "restarts_used", "converged", "d_a", "d_b", "d_e"
    ]
    assert record["epsilon"] == "inf" and record["i_rb"] == 0.333333333333
    assert record["feasible"] is True and record["converged"] is False
    assert type(record["restarts_used"]) is int and record["restarts_used"] == 4
    # Every value is plain JSON, with no numpy scalar left over.
    assert json.loads(json.dumps(record)) == record


def test_verify_passes(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", "--seed", "42", "--out", str(report)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 10
    assert all(line.startswith("PASS ") for line in lines)
    payload = json.loads(report.read_text())
    assert isinstance(payload, list) and len(payload) == 10
    for entry in payload:
        assert set(entry) == {"name", "passed", "metrics", "tolerance", "seed"}
        assert entry["passed"] is True
        assert isinstance(entry["metrics"], dict)


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


def test_random_study_matches_the_sandwich_gate(capsys):
    # Criterion 06's first two states, through the CLI and the claim function.
    argv = ["random-study", "--dims", "2", "2", "--samples", "2", "--seed", "600"]
    assert main(argv + ["--restarts", "6", "--iterations", "800"]) == 0
    printed = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    rows = bound_sandwich((2, 2), 2, 600, restarts=6, iterations=800)
    assert len(printed) == len(rows) == 2
    for cells, row in zip(printed, rows):
        assert cells["xi_estimate"] == _cell(row.outcome.i_rb)
        assert cells["povm_upper"] == _cell(row.bounds.povm_upper)
        assert cells["prop1_lower"] == _cell(row.bounds.prop1_lower)
        assert cells["lower_ok"] == str(row.lower_ok).lower() == "true"
        assert cells["upper_ok"] == str(row.upper_ok).lower() == "true"


def test_grid_values():
    assert _grid_value("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert _grid_value("0.5:0.5:1") == [0.5]
    assert _grid_value("0:0.3:0.1") == [0.0, 0.1, 0.2, 0.30000000000000004]


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("1e20:1e20:1", "more than 10000 points", id="1e20:1e20:1"),
        pytest.param("0:1:1e-12", "more than 10000 points", id="0:1:1e-12"),
        pytest.param("0:1:inf", "ascending with a positive step", id="0:1:inf"),
        pytest.param("0:inf:1", "unbounded end B;", id="0:inf:1"),
        pytest.param("inf:inf:1", "unbounded ends A and B;", id="inf:inf:1"),
    ],
)
def test_unbounded_grid_is_a_usage_error(text, message):
    # The first two used to append points without end (the step does not
    # advance 1e20; 10^12 points), the third returned [nan].  The last two
    # used to say "grid must be ascending with a positive step".
    with pytest.raises(argparse.ArgumentTypeError, match=message):
        _grid_value(text)


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


@pytest.mark.parametrize("flag", ["--restarts", "--iterations", "--seed", "--dB", "--dE"])
def test_bad_count_flags_are_usage_errors(capsys, flag):
    least = 0 if flag == "--seed" else 1
    for bad in ("2.5", "True", "nan", "inf", str(least - 1)):
        with pytest.raises(SystemExit) as err:
            main(["optimize", "--state", "unread.json", flag, bad])
        assert err.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err
    # The wording of the usage messages.
    for bad, message in [
        ("abc", "not an integer: 'abc'"),
        (str(least - 1), f"must be an integer >= {least}, got {least - 1}"),
    ]:
        with pytest.raises(SystemExit):
            main(["optimize", "--state", "unread.json", flag, bad])
        assert f"argument {flag}: {message}\n" in capsys.readouterr().err


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, over the real descriptor ``fd``."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def fileno(self):
        return self.fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_keeps_output_files(tmp_path, monkeypatch, capsys):
    # As in `pqdec optimize ... | head -1`: the files are written before
    # printing, and the closed pipe exits 141 in silence, with the
    # descriptor pointed at the null device for the flush at exit.
    bell = make_bell(tmp_path)
    out, cert, fd_file = tmp_path / "out.json", tmp_path / "cert.json", tmp_path / "fd"
    fd = os.open(fd_file, os.O_WRONLY | os.O_CREAT)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
    argv = ["optimize", "--state", bell, "--restarts", "2", "--iterations", "100"]
    try:
        assert main(argv + ["--out", str(out), "--certificate", str(cert)]) == 141
        os.write(fd, b"late")
    finally:
        os.close(fd)
    assert fd_file.read_bytes() == b""
    assert capsys.readouterr().err == ""
    i_rb, _, _ = decoupling_scores(apply_isometry(load_state(bell), load_isometry(cert)))
    assert abs(json.loads(out.read_text())["i_rb"] - i_rb) <= 1e-9


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


def test_a_failed_write_exits_4(tmp_path, capsys):
    # An output that cannot be written is neither a bad flag (2) nor a
    # missing input; --out and --certificate alike, on any subcommand.
    bell = make_bell(tmp_path)
    nowhere = str(tmp_path / "missing" / "x.json")
    assert main(["make-state", "bell", "--d", "2", "--out", nowhere]) == 4
    assert f"cannot write {nowhere}" in capsys.readouterr().err
    assert main(["bounds", "--state", bell, *FAST, "--out", nowhere]) == 4
    good = str(tmp_path / "o.json")
    assert main(["optimize", "--state", bell, *FAST, "--out", good, "--certificate", nowhere]) == 4
    assert main(["entropy", "--state", nowhere]) == 2
    assert not os.path.exists(nowhere)
    capsys.readouterr()


@pytest.mark.parametrize("eps", ["-1", "nan", "abc"])
def test_bad_eps_is_a_usage_error(tmp_path, capsys, eps):
    bell = make_bell(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["optimize", "--state", bell, "--eps", eps])
    assert err.value.code == 2
    assert "--eps" in capsys.readouterr().err


def test_negative_grid_is_a_usage_error(tmp_path, capsys):
    # It used to pass argparse and fail in the sweep (exit 3); its message is
    # the one --eps gives.
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--state", make_bell(tmp_path), "--eps-grid=-0.5:1:0.5"])
    assert err.value.code == 2
    message = "privacy level must be a real number >= 0 or inf, got -0.5"
    assert f"argument --eps-grid: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("fidelity", ["1.5", "nan", "abc"])
def test_bad_fidelity_is_a_usage_error(tmp_path, capsys, fidelity):
    out = tmp_path / "iso.json"
    with pytest.raises(SystemExit) as err:
        main(["make-state", "isotropic", "--fidelity", fidelity, "--out", str(out)])
    assert err.value.code == 2
    assert "--fidelity" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["bell", "isotropic"])
def test_one_level_entangled_pair_is_a_usage_error(tmp_path, capsys, kind):
    # It used to pass argparse and fail in the state builder (exit 3).
    out = tmp_path / "state.json"
    with pytest.raises(SystemExit) as err:
        main(["make-state", kind, "--d", "1", "--out", str(out)])
    assert err.value.code == 2
    assert "argument --d: must be an integer >= 2, got 1\n" in capsys.readouterr().err
    assert not out.exists()


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


def number_labels(doc):
    doc["labels"] = [1, 2]


def empty_label(doc):
    doc["labels"] = ["R", ""]


@pytest.mark.parametrize(
    "corrupt",
    [
        nan_entry,
        fractional_dim,
        nan_dim,
        text_entry,
        scalar_matrix,
        short_entry,
        number_labels,
        empty_label,
    ],
)
def test_malformed_state_is_a_validation_failure(tmp_path, capsys, corrupt):
    doc = bell_document()
    corrupt(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["qmi", "--state", str(path), "--x", "R", "--y", "A"]) == 3
    assert "validation failure" in capsys.readouterr().err


@pytest.mark.parametrize("labels", ["RA", {"R": 1, "A": 2}], ids=["string", "dict"])
def test_labels_not_given_as_a_list_are_rejected(tmp_path, capsys, labels):
    doc = bell_document()
    doc["labels"] = labels
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["entropy", "--state", str(path)]) == 3
    assert "malformed state document" in capsys.readouterr().err


@pytest.mark.parametrize("raw", [b"\xff\xfe", b"\x80{}"], ids=["utf16_bom", "bad_utf8"])
def test_undecodable_state_is_a_validation_failure(tmp_path, capsys, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    assert main(["entropy", "--state", str(path)]) == 3
    assert "malformed state document" in capsys.readouterr().err
    with pytest.raises(ValidationError, match="malformed isometry document"):
        load_isometry(path)


def test_cli_import_loads_no_scenarios():
    # Only verify and random-study need the scenarios; they import them when run.
    src = os.path.dirname(os.path.dirname(pqdec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, pqdec.cli; sys.exit('pqdec.scenarios' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(pqdec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, pqdec; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0

import json
import sys

import numpy as np
import pytest

from slocc4.cli import main, run_fuzz_empty
from slocc4.errors import Slocc4Error
from slocc4.qstate import PureState, save_state, state_to_json

from conftest import FAMILY_TAGS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, amps, name="state.json"):
    p = tmp_path / name
    save_state(PureState(np.asarray(amps, dtype=complex)), str(p))
    return str(p)


def test_classify_ghz4(tmp_path, capsys):
    amps = np.zeros(16)
    amps[0] = amps[15] = 1
    path = write_state(tmp_path, amps)
    code, out, err = run_cli(capsys, "classify", path)
    assert code == 0
    obj = json.loads(out)
    assert obj["class"] == "W000_000"
    assert obj["distinguished"] == 1
    assert obj["profile"]["generic_type"] == "GHZ"


def test_classify_lambda_zero_from_generate(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "generate", "--family", "W0kPsi_W",
                           "--param", "lambda=0,0")
    assert code == 0
    path = tmp_path / "lam0.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["class"] == "W0kPsi_W"
    assert obj["cuts"] == [1]


def test_classify_degenerate_exit_code(tmp_path, capsys):
    path = write_state(tmp_path, np.eye(16)[0])
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 2
    assert json.loads(out)["class"] == "Degenerate"


def test_classify_three_qubits(tmp_path, capsys):
    path = write_state(tmp_path, [0, 1, 1, 0, 1, 0, 0, 0])
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 0
    assert json.loads(out)["class"] == "W"

    path = write_state(tmp_path, [1, 0, 0, 0, 0, 0, 0, 0], "sep.json")
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 2
    assert json.loads(out)["class"] == "Sep000"


def test_classify_two_qubits(tmp_path, capsys):
    path = write_state(tmp_path, [1, 0, 0, 1])
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 0 and json.loads(out)["class"] == "Psi"
    path = write_state(tmp_path, [1, 0, 0, 0], "prod.json")
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 2 and json.loads(out)["class"] == "00"


def test_classify_all_distinguished(tmp_path, capsys):
    amps = np.zeros(16)
    amps[0] = amps[15] = 1
    path = write_state(tmp_path, amps)
    code, out, _ = run_cli(capsys, "classify", path, "--distinguished", "all")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["verdicts"]) == 4
    assert obj["canonical_label"] == ";".join(["W000_000"] * 4)


def test_classify_stdin(tmp_path, capsys, monkeypatch):
    import io

    payload = json.dumps(state_to_json(PureState([0, 1, 1, 0, 1, 0, 0, 0])))
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, out, _ = run_cli(capsys, "classify")
    assert code == 0
    assert json.loads(out)["class"] == "W"


def test_classify_malformed_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{")
    code, out, err = run_cli(capsys, "classify", str(p))
    assert code == 1
    assert out == ""
    assert "slocc4" in err


@pytest.mark.parametrize("name", ["missing.json", "."])
def test_classify_unreadable_path(tmp_path, capsys, name):
    # a missing file and a directory both end in one stderr line, exit 1
    code, out, err = run_cli(capsys, "classify", str(tmp_path / name))
    assert code == 1
    assert out == ""
    assert err.startswith("slocc4: cannot read") and err.count("\n") == 1


def test_classify_zero_state(tmp_path, capsys):
    path = write_state(tmp_path, np.zeros(16))
    code, out, err = run_cli(capsys, "classify", path)
    assert code == 1
    assert "zero" in err.lower()


def test_explain_contains_quartic(tmp_path, capsys):
    amps = np.zeros(16)
    amps[0] = amps[15] = 1
    path = write_state(tmp_path, amps)
    code, out, _ = run_cli(capsys, "explain", path)
    assert code == 0
    obj = json.loads(out)
    quartic = obj["explain"]["quartic"]
    np.testing.assert_allclose(quartic, [[0, 0], [0, 0], [1, 0], [0, 0], [0, 0]], atol=1e-12)


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_generate_roundtrip_all_families(tag, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "generate", "--family", tag)
    assert code == 0
    path = tmp_path / "state.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    assert json.loads(out)["class"] == tag


def test_generate_tri_state(capsys):
    code, out, _ = run_cli(capsys, "generate", "--family", "GHZ")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 3


def test_generate_rejects_unknown_param(capsys):
    code, out, err = run_cli(capsys, "generate", "--family", "W000_000",
                             "--param", "lambda=1")
    assert code == 1 and "parameters" in err


def test_generate_constraint_violation(capsys):
    code, out, err = run_cli(capsys, "generate", "--family", "WW_W",
                             "--sign", "minus")
    assert code == 1
    assert "sqrt" in err


def test_generate_with_complex_param(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "generate", "--family", "W0kPsi_W",
                           "--param", "lambda=2,3")
    assert code == 0
    path = tmp_path / "s.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "classify", str(path), "--exact")
    assert code == 0
    assert json.loads(out)["class"] == "W0kPsi_W"


def test_fuzz_empty_small(capsys):
    code, out, _ = run_cli(capsys, "fuzz-empty", "--trials", "25", "--seed", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_ghz_profiles"] == 0
    assert sum(obj["exceptional_class_counts"].values()) > 0


def test_fuzz_empty_pinned_verbose(capsys):
    code, out, _ = run_cli(capsys, "fuzz-empty", "--trials", "3", "--seed", "3",
                           "--pin-ghz", "--exact", "--verbose")
    assert code == 0
    obj = json.loads(out)
    assert obj["y4_exactly_one"] == 3
    for re_im in obj["y4_coefficients"]:
        assert abs(complex(re_im[0], re_im[1]) - 1) <= 1e-12


def test_fuzz_empty_zero_trials(capsys):
    code, out, err = run_cli(capsys, "fuzz-empty", "--trials", "0")
    assert code == 1
    assert "trials" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--distinguished", "7"])
    assert exc.value.code == 1


def test_run_fuzz_empty_requires_positive_trials():
    with pytest.raises(Slocc4Error):
        run_fuzz_empty(0)


def test_deterministic_output(tmp_path, capsys):
    first = run_cli(capsys, "fuzz-empty", "--trials", "10", "--seed", "9", "--verbose")
    second = run_cli(capsys, "fuzz-empty", "--trials", "10", "--seed", "9", "--verbose")
    assert first == second


def test_exact_matches_numeric_on_fixtures(tmp_path, capsys):
    for tag in FAMILY_TAGS:
        code, out, _ = run_cli(capsys, "generate", "--family", tag)
        path = tmp_path / f"{tag}.json"
        path.write_text(out)
        code_n, out_n, _ = run_cli(capsys, "classify", str(path))
        code_e, out_e, _ = run_cli(capsys, "classify", str(path), "--exact")
        assert code_n == code_e == 0
        assert json.loads(out_n)["class"] == json.loads(out_e)["class"] == tag

import decimal
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from slocc4.canonical import FamilySpec, make_canonical
from slocc4.cli import main, run_fuzz_empty
from slocc4.errors import Slocc4Error
from slocc4.qstate import PureState, save_state, state_from_json, state_to_json

from conftest import FAMILY_TAGS, W3


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """Environment for a child interpreter that imports this slocc4."""
    src = os.path.dirname(os.path.dirname(sys.modules["slocc4"].__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


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


@pytest.mark.parametrize("factor", [1e160, 1e-170])
def test_classify_two_qubits_at_extreme_scales(factor, tmp_path, capsys):
    # the determinant of the raw amplitudes overflows or underflows here;
    # an exact power of two brings the state back into range first
    path = write_state(tmp_path, np.array([1, 0, 0, 1]) * factor)
    code, out, err = run_cli(capsys, "classify", path)
    assert (code, json.loads(out)["class"], err) == (0, "Psi", "")
    path = write_state(tmp_path, np.array([1, 2, 3, 6]) * factor, "prod.json")
    code, out, err = run_cli(capsys, "classify", path)
    assert (code, json.loads(out)["class"], err) == (2, "00", "")


def test_classify_two_qubit_zero_state(tmp_path, capsys):
    path = write_state(tmp_path, np.zeros(4))
    code, out, err = run_cli(capsys, "classify", path)
    assert (code, out) == (1, "")
    assert "zero" in err.lower()


def test_classify_two_qubits_exact(tmp_path, capsys):
    path = write_state(tmp_path, [1, 0, 0, 1e-12])
    assert json.loads(run_cli(capsys, "classify", path)[1])["class"] == "00"
    code, out, _ = run_cli(capsys, "classify", path, "--exact")
    assert code == 0 and json.loads(out)["class"] == "Psi"
    path = write_state(tmp_path, [1, 2j, 3, 6j], "prod.json")
    code, out, _ = run_cli(capsys, "classify", path, "--exact")
    assert code == 2 and json.loads(out)["class"] == "00"


def test_explain_two_qubits(tmp_path, capsys):
    path = write_state(tmp_path, [1, 2, 3, 4j])
    code, out, _ = run_cli(capsys, "explain", path)
    assert code == 0
    assert json.loads(out) == {"n": 2, "class": "Psi", "determinant": [-6.0, 4.0]}


def test_explain_three_qubits(tmp_path, capsys):
    path = write_state(tmp_path, [0, 1, 1, 0, 1, 0, 0, 0])
    code, out, _ = run_cli(capsys, "explain", path)
    assert code == 0
    obj = json.loads(out)
    assert obj["class"] == "W"
    assert obj["ghz_value"] == [0.0, 0.0]
    assert obj["clause_truth"] == [True, True, True]
    assert obj["quantities"] == [[-1, 0], [0, 0], [1, 0], [0, 0], [0, 0], [1, 0]]


def test_exact_explain_three_qubits_uses_exact_clauses(tmp_path, capsys):
    # float mode finds exactly two clauses true and refuses the state; under
    # --exact the report comes from the exact lift, where all three hold
    path = write_state(tmp_path, [1, 1, 1, 0, 1e-12, 1e-5, 0, 0])
    code, out, _ = run_cli(capsys, "classify", path, "--exact", "--explain")
    assert code == 0
    obj = json.loads(out)
    assert obj["class"] == "GHZ"
    assert obj["clause_truth"] == [True, True, True]
    assert obj["ghz_value"][0] != 0.0
    assert obj["quantities"][5] == [1e-12, 0.0]
    code, _, err = run_cli(capsys, "classify", path, "--explain")
    assert code == 1 and "two W-condition clauses" in err


def test_classify_huge_json_integer(tmp_path, capsys):
    p = tmp_path / "huge.json"
    p.write_text('{"n": 2, "amps": [[1' + "0" * 400 + ', 0], [0, 0], [0, 0], [1, 0]]}')
    code, out, err = run_cli(capsys, "classify", str(p))
    assert code == 1
    assert out == ""
    assert err.startswith("slocc4: amplitude 0") and err.count("\n") == 1
    assert "Traceback" not in err


def test_runtime_does_not_import_scipy(tmp_path):
    # scipy serves only the test-only oracle and numpy only .amps,
    # fuzz-empty, apply_slocc and rank decisions next to eps: importing the
    # package, a float or exact classify or explain of a 2-, 3- or 4-qubit
    # file and a generate call load neither, nor dataclasses, nor the test
    # tools.  A float call also leaves out the exact-mode modules, an exact
    # call of a 2- or 3-qubit file fractions (which only snapping uses), and
    # no classify or explain call loads the canonical families.  The rows
    # run in order in one interpreter, so a module that a row leaves out
    # was loaded by none of the rows before it either
    def state(amps, name):
        return write_state(tmp_path, amps, name)

    bell = state([1, 0, 0, 1], "bell.json")
    w = state(W3, "w.json")
    wghz_w = state(make_canonical(FamilySpec("WGHZ_W")).amps, "wghz_w.json")
    # |0> x GHZ_3 ends in the rank screen's early exit
    degenerate = state(np.eye(16)[0] + np.eye(16)[7], "degenerate.json")
    # GHZ value 1e-8, 10 times eps = 1e-9, inside the band of the zero rule
    borderline = state([1, 0, 0, 0, 0, 0, 0, 1e-4], "borderline.json")
    # lambda = 100 runs the clause-form path of a W-generic pencil
    w0kpsi_w = state(make_canonical(FamilySpec("W0kPsi_W", {"lambda": 100})).amps, "w0kpsi_w.json")
    # the pencil quartics are squares: two double roots in the anchored
    # chart of pencil._chart
    w0kpsi_0kpsi = state(make_canonical(FamilySpec("W0kPsi_0kPsi")).amps, "w0kpsi_0kpsi.json")
    not_utf8 = tmp_path / "not-utf8.json"
    not_utf8.write_bytes(b"\xff\xfe\x00bad")

    unused = ["numpy", "scipy", "slocc4.canonical", "dataclasses", "hypothesis", "pytest"]
    float_unused = unused + ["fractions", "slocc4.exact"]
    generate_unused = [name for name in unused if name != "slocc4.canonical"]
    all_qubits = ["--distinguished", "all"]

    def generate(family, params="", status=0):
        argv = ["generate", "--family", family, *[arg for p in params.split() for arg in ("--param", p)]]
        return argv, status, generate_unused, "must be finite" if status else None

    # (argv, exit status, modules still unloaded, canonical label or, for
    # exit 1, the text of the one stderr line)
    rows = [
        *[([command, path, *all_qubits], 0, float_unused, None)
          for path in (bell, w, wghz_w) for command in ("classify", "explain")],
        *[([command, degenerate, *all_qubits], 2, float_unused, ";".join(["Degenerate"] * 4))
          for command in ("classify", "explain")],
        (["classify", borderline], 1, float_unused, "GHZ value"),
        (["classify", str(not_utf8)], 1, float_unused, "cannot read"),
        *[([command, w0kpsi_w, *all_qubits], 0, float_unused, ";".join(["W0kPsi_W(1)"] * 4))
          for command in ("classify", "explain")],
        (["classify", w0kpsi_0kpsi, *all_qubits], 0, float_unused, ";".join(["W0kPsi_0kPsi(1)"] * 4)),
        *[([command, path, *all_qubits, "--exact"], 0, unused + ["fractions"], None)
          for path in (bell, w) for command in ("classify", "explain")],
        *[([command, wghz_w, *all_qubits, "--exact"], 0, unused, None) for command in ("classify", "explain")],
        (["classify", w0kpsi_0kpsi, *all_qubits, "--exact"], 0, unused, ";".join(["W0kPsi_0kPsi(1)"] * 4)),
        generate("W"),
        generate("WW_W", "a3=2 mu=0,1"),
        # finite members whose a3 a5, mu^2 or a3 / a5 lie outside the normal
        # float range
        generate("WW_W", "a3=1e300 a5=1e300"),
        generate("WW_W", "a3=1e200 a5=1e200 mu=1e200"),
        generate("WW_W", "a3=1e-320 a5=0.5 mu=1e-160"),
        generate("WW_W", "a3=1e-200 a5=1e200 mu=1"),
        # members whose amplitudes overflow: one stderr line, which no
        # RuntimeWarning precedes
        generate("WW_W", "mu=1e200", 1),
        generate("W0kPsi_W", "lambda=1e200", 1),
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "import slocc4\n"
        f"results = [[name for name in {float_unused!r} if name in sys.modules]]\n"
        "from slocc4 import cli\n"
        f"for argv, unused in {[(argv, names) for argv, _, names, _ in rows]!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        status = cli.main(argv)\n"
        "    loaded = [name for name in unused if name in sys.modules]\n"
        "    results.append([status, out.getvalue(), err.getvalue(), loaded])\n"
        "print(json.dumps(results))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    imported, *results = json.loads(proc.stdout)
    assert imported == []
    for (argv, status, _, expected), (code, out, err, loaded) in zip(rows, results, strict=True):
        assert (code, loaded) == (status, []), (argv, err)
        if status == 1:
            assert out == "" and err.count("\n") == 1 and expected in err, (argv, err)
            continue
        assert err == "" and out.count("\n") == 1, (argv, err)
        obj = json.loads(out)
        if expected is not None:
            assert obj["canonical_label"] == expected, argv


def test_package_exports_the_canonical_names_on_first_use():
    import slocc4
    from slocc4 import canonical

    assert slocc4.FamilySpec is canonical.FamilySpec
    assert slocc4.make_canonical is canonical.make_canonical
    assert slocc4.random_slocc is canonical.random_slocc
    with pytest.raises(AttributeError):
        slocc4.no_such_name


def test_family_choices_are_the_canonical_names():
    from slocc4 import cli
    from slocc4.canonical import FAMILY_PENCILS, TRI_STATES

    assert cli._FAMILIES == sorted(FAMILY_PENCILS) + sorted(TRI_STATES)


@pytest.mark.parametrize("amps, expected", [
    (make_canonical(FamilySpec("WGHZ_W")).amps, 0),
    (np.zeros(16), 1),
    (np.eye(16)[0], 2),
])
def test_module_run_matches_in_process_main(tmp_path, capsys, amps, expected):
    # python -m slocc4.cli exits through cli.run, which freezes the
    # collector before exiting with main's status
    path = write_state(tmp_path, amps)
    code, out, err = run_cli(capsys, "classify", path, "--distinguished", "all")
    proc = subprocess.run([sys.executable, "-m", "slocc4.cli", "classify", path, "--distinguished", "all"],
                          capture_output=True, text=True, env=child_env())
    assert code == proc.returncode == expected
    assert proc.stdout == out
    assert proc.stderr == err


@pytest.mark.parametrize("argv", [
    ["classify", "STATE", "--distinguished", "all"],
    ["fuzz-empty", "--trials", "3", "--seed", "1", "--verbose"],
])
def test_closed_stdout_exits_1_without_traceback(tmp_path, argv):
    # stdout is a pipe whose reader is gone before the child writes
    path = write_state(tmp_path, make_canonical(FamilySpec("WGHZ_W")).amps)
    argv = [path if a == "STATE" else a for a in argv]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "slocc4.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=child_env(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_classify_all_distinguished_explain(tmp_path, capsys):
    path = write_state(tmp_path, make_canonical(FamilySpec("WGHZ_W")).amps)
    code, out, _ = run_cli(capsys, "classify", path, "--distinguished", "all", "--explain")
    assert code == 0
    blocks = json.loads(out)["explain"]
    assert [b["distinguished"] for b in blocks] == [1, 2, 3, 4]
    for block in blocks:
        assert len(block["quartic"]) == 5
        assert [len(pair) for pair in block["clause_quadratics"]] == [2, 2, 2]


@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("argv", [["explain", "--distinguished", "all"],
                                  ["classify", "--distinguished", "all", "--explain"]])
def test_degenerate_explain_all_has_no_blocks(first, argv, tmp_path, capsys):
    # |first> x GHZ_3: one half of every qubit-1 split is the zero vector
    amps = np.zeros(16)
    amps[8 * first] = amps[8 * first + 7] = 1
    path = write_state(tmp_path, amps)
    code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
    assert (code, err) == (2, "")
    assert out.count("\n") == 1
    obj = json.loads(out)
    assert "explain" not in obj
    assert [v["class"] for v in obj["verdicts"]] == ["Degenerate"] * 4


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


@pytest.mark.parametrize("name", ["missing.json", ".", "not-utf8.json"])
def test_classify_unreadable_path(tmp_path, capsys, name):
    # a missing file, a directory and a file that holds no UTF-8 text each
    # end in one stderr line, exit 1
    if name == "not-utf8.json":
        (tmp_path / name).write_bytes(b"\xff\xfe\x00bad")
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family, param", [("WW_W", "mu=1e200"), ("WW_W", "a3=1e-320 a5=0.5 mu=1"),
                                           ("W0kPsi_W", "lambda=1e200")])
def test_generate_overflow_is_not_finite(family, param, capsys):
    # a0 = -mu^2 / (4 a3) (-lambda^2) lies beyond the float range and reads
    # inf, which the finite check of the amplitudes reports in one line,
    # with no warning
    params = [arg for p in param.split() for arg in ("--param", p)]
    code, out, err = run_cli(capsys, "generate", "--family", family, *params)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "must be finite" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e300, 1e-200])
def test_generate_ww_w_at_extreme_scales(scale, capsys):
    # a3 a5 would overflow (underflow to 0, then a4 = 0/0): phi0 is scale
    # times the phi0 of a3 = a5 = 1, bit for bit, and phi1 is W3
    code, out, err = run_cli(capsys, "generate", "--family", "WW_W",
                             "--param", f"a3={scale}", "--param", f"a5={scale}")
    assert code == 0 and err == ""
    amps = state_from_json(json.loads(out)).amps
    assert np.array_equal(amps[:8], make_canonical(FamilySpec("WW_W")).amps[:8] * scale)
    assert np.array_equal(amps[8:], W3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a3, a5, mu", [(1e200, 1e200, 1e200), (1e-320, 0.5, 1e-160), (1e-200, 1e200, 1),
                                       (1e308, 1, 1e200), (3e305, 3e-321, 4e122)])
def test_generate_finite_ww_w_members(a3, a5, mu, capsys):
    # mu^2, 4 a3, a3 a5, a3 / a5 or r / a3 lie outside the normal float
    # range, but every amplitude is finite and matches its closed form,
    # evaluated to 40 digits on the floats that the parameters parse to
    # (1e-320 is the subnormal 9.99988671826831e-321, so there a0 =
    # -0.2500028)
    code, out, err = run_cli(capsys, "generate", "--family", "WW_W", "--param", f"a3={a3}",
                             "--param", f"a5={a5}", "--param", f"mu={mu}")
    assert code == 0 and err == "" and out.count("\n") == 1
    amps = state_from_json(json.loads(out)).values
    with decimal.localcontext() as context:
        context.prec = 40
        d3, d5, dmu = map(decimal.Decimal, (a3, a5, mu))
        r = (d3 * d5).sqrt()
        expected = [-dmu * dmu / (4 * d3), 0, -dmu, d3, dmu * r / d3, d5, d3 + d5 + 2 * r, 0]
    assert amps[:8] == pytest.approx([float(x) for x in expected], rel=1e-15, abs=0)
    assert list(amps[8:]) == list(W3)


@pytest.mark.parametrize("family", ["W000_000", "GHZ"])
def test_generate_minus_sign_without_sign_branch(family, capsys):
    code, out, err = run_cli(capsys, "generate", "--family", family, "--sign", "minus")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "has no sign branch" in err


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


def test_fuzz_empty_negative_seed(capsys):
    code, out, err = run_cli(capsys, "fuzz-empty", "--trials", "1", "--seed", "-1")
    assert (code, out) == (1, "")
    assert err == "slocc4: --seed must be nonnegative\n"


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


@pytest.mark.parametrize("command", ["classify", "explain", "fuzz-empty"])
@pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "2", "1", "0", "-1", "abc"])
def test_eps_outside_unit_interval_is_a_usage_error(command, eps, tmp_path, capsys):
    args = ["--trials", "1"] if command == "fuzz-empty" else [
        write_state(tmp_path, make_canonical(FamilySpec("WGHZ_W")).amps)
    ]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, f"--eps={eps}"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert lines[0].startswith("usage:")
    assert "--eps" in lines[-1] and "error" in lines[-1]
    assert "Traceback" not in captured.err


def test_eps_inside_unit_interval_is_accepted(tmp_path, capsys):
    path = write_state(tmp_path, make_canonical(FamilySpec("WGHZ_W")).amps)
    code, out, _ = run_cli(capsys, "classify", path, "--eps=1e-6")
    assert code == 0
    assert json.loads(out)["class"] == "WGHZ_W"


def test_float_classify_refuses_eps_below_the_rank_floor(tmp_path, capsys):
    path = write_state(tmp_path, make_canonical(FamilySpec("WGHZ_W")).amps)
    code, out, err = run_cli(capsys, "classify", path, "--eps=1e-13")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "1e-12" in err
    code, out, _ = run_cli(capsys, "classify", path, "--eps=1e-13", "--exact")
    assert code == 0
    assert json.loads(out)["class"] == "WGHZ_W"


def test_explain_reports_the_verdicts_quartic_decision(tmp_path, capsys):
    # |0>(|00> + |11>) and |1>(|00> + |11>), each moved by 4.6e-3: the
    # quartic vanishes within eps in the pencil's orthonormal basis, where
    # the verdict decides it, while in the basis of phi0 and phi1 its
    # largest coefficient lies 1.7 times above eps s^4.  explain printed
    # that second reading, false beside a W-generic verdict
    amps = [
        0.9996260275149316 + 0.003054403837665313j, 0.0026687320197764106 - 0.0002943462620566275j,
        0.0016815678989798991 - 0.00036401450706467417j, 1.0015626175794945 + 0.0008882896691885312j,
        0.00151190952368644 + 0.0002914565365295378j, -0.005395360345294019 - 0.0076019639946343755j,
        0.002786707665604563 - 0.0005726128337093546j, 0.004803215191828791 + 0.005838504473558013j,
        -0.0014810290756462154 + 0.0008065034680830193j, -0.002408083295140738 - 0.0006537773325570363j,
        0.0028659971619518242 + 0.005627418875205721j, 0.00045876938821613923 + 0.002260139929050556j,
        0.9968363070864863 + 0.002645972079669167j, 0.0008751908310151675 - 0.00017286395486990335j,
        0.007973748892188012 - 0.005882849234202922j, 1.0085582755044142 - 0.006552371030347032j,
    ]
    path = write_state(tmp_path, amps)
    code, out, err = run_cli(capsys, "explain", path, "--eps", "0.000105073050634122")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["class"] == "WW_W" and obj["profile"]["quartic_identically_zero"]
    assert obj["explain"]["quartic_identically_zero"]

"""Small-size self-tests of the benchmark.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from slocc4 import Slocc4Error, quad  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
    )
    return proc.returncode, proc.stdout


def _cases(name, count, seed=3, workdir=None):
    wl = workloads.make(name, workdir or ROOT, dict(os.environ), in_process_cli=True)
    gen = wl.cases(np.random.default_rng(seed))
    return wl, [next(gen) for _ in range(count)]


def test_benchmark_json_names_runnable_workloads():
    names = [w["name"] for w in _spec()["workloads"]]
    assert names == [n for n in workloads.NAMES if n in names]
    assert set(workloads.NAMES) - set(names) == set(workloads.UNGATED)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_appears_with_its_unit(trace, key):
    code, stdout = _run("--workload", "families-all", "--seed", "1", "--seconds", "0.2",
                        "--trace", str(trace))
    assert code == 0
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _spec()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    report = "\n".join(stdout.splitlines()[:-1])
    for name, unit in expected.items():
        assert f"{name} " in report and f" {unit}" in report
    if trace == 0:
        for name in run.REPORT_ONLY_UNITS:
            assert f"{name} " in report


@pytest.mark.parametrize("name", ["families-all", "haar-mix", "exact-dyadic", "cli-oneshot"])
def test_checker_accepts_truth_and_catches_a_wrong_tag(name, tmp_path):
    wl, cases = _cases(name, 10, workdir=str(tmp_path))
    for case in cases:
        _, outcome = wl.timed(case)
        if outcome[0] == "error":
            continue
        assert wl.check(case, outcome) is None
        wrong = "WW_W" if case.truth[0] != "WW_W" else "WGHZ_W"
        case.truth = (wrong, case.truth[1])
        assert wl.check(case, outcome) is not None


def test_cli_checker_catches_a_wrong_label_and_two_documents(tmp_path):
    wl, cases = _cases("cli-oneshot", 1, workdir=str(tmp_path))
    case = cases[0]
    _, (code, stdout) = wl.timed(case)
    assert wl.check(case, (code, stdout)) is None
    assert wl.check(case, (code, stdout + stdout)) is not None
    case.label = "WW_W;WW_W;WW_W;WW_W" if case.label != "WW_W;WW_W;WW_W;WW_W" else "x"
    assert wl.check(case, (code, stdout)) is not None


def test_planted_misclassification_exits_nonzero(monkeypatch):
    truth = workloads._truth
    monkeypatch.setattr(
        workloads, "_truth", lambda f: ("WW_W", ()) if f == "WGHZ_W" else truth(f)
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", "families-all", "--seed", "1", "--seconds", "0.2"])
    assert code == 1
    assert json.loads(out.getvalue().strip().splitlines()[-1])["correct"] is False


def test_missing_package_exits_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "spans.py", "workloads.py"):
        (bench / name).write_text(open(os.path.join(BENCH, name), encoding="utf-8").read())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "haar-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_wrappers_are_transparent_and_removed():
    originals = {(m, a): getattr(__import__(m, fromlist=[a]), a) for m, a, *_ in spans.BOUNDARIES}
    _, fam = _cases("families-all", 10)
    _, exact = _cases("exact-dyadic", 10)
    calls = [(quad.classify4_all, c.amps, {}) for c in fam]
    calls += [(quad.classify4, c.amps, {"exact": True}) for c in exact]

    def outcome(fn, amps, kwargs):
        try:
            result = fn(amps, **kwargs)
        except Slocc4Error as exc:
            return type(exc).__name__
        return repr(result[1]) if isinstance(result, tuple) else (result.tag, result.cuts)

    plain = [outcome(*c) for c in calls]
    tracer = spans.Tracer()
    with tracer:
        for module, attr, *_ in spans.BOUNDARIES:
            assert getattr(__import__(module, fromlist=[attr]), attr) is not originals[(module, attr)]
        traced = [outcome(*c) for c in calls]
    assert traced == plain
    for (module, attr), fn in originals.items():
        assert getattr(__import__(module, fromlist=[attr]), attr) is fn

    names = {s[0] for s in tracer.spans}
    assert {"classify4", "analyze_span", "exact_rank", "pencil_elements"} <= names
    for i, (_, _, start, end, parent, _, _) in enumerate(tracer.spans):
        assert start <= end
        if parent >= 0:
            assert parent < i
            assert tracer.spans[parent][2] <= start and end <= tracer.spans[parent][3]
    totals = spans.LayerTotals()
    totals.add(tracer.spans)
    for name in totals.calls:
        assert 0 <= totals.self_ns[name] <= totals.incl_ns[name]
    metrics = totals.metrics(len(calls))
    assert metrics["qstate.bipartition_ranks.calls"] == (4 * len(fam) + len(exact)) / len(calls)
    assert metrics["exact.classify3_exact.calls"] > 0
    assert 0 < metrics["pencil.exceptional_per_candidate"] <= 1


def test_tail_steps_down_until_ten_samples_lie_beyond():
    values = list(range(1, 1001))
    assert run.tail(values, 99.0) == (990, 99.0, 10)
    assert run.tail(values[:500], 99.0) == (450, 90.0, 50)
    assert run.tail(values[:50], 99.0) == (38, 75.0, 12)

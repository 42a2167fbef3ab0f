"""Seeded inputs, timed entry points and ground truth of each workload.

The program receives only amplitude vectors (numpy arrays) or state
files.  Every verdict is checked against a truth known from how its input
was built; ``check`` returns a description of a silent misclassification
(a verdict that differs from the truth without an error), else None.
Calls that end in a ``Slocc4Error`` are counted, never dropped or
re-drawn.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter_ns

import numpy as np

import slocc4
from slocc4 import cli, quad
from slocc4.canonical import FAMILY_CUTS, FamilySpec, make_canonical, random_slocc

FAMILIES = (
    "W000_000",
    "W000_0Psi",
    "W000_GHZ",
    "W000_W",
    "W0kPsi_0kPsi",
    "W0iPsi_0jPsi",
    "W0Psi_GHZ",
    "W0kPsi_W",
    "WGHZ_W",
    "WW_W",
)

#: Acceptance grids of the two parameterized families.
LAMBDAS = (0, 1, -1, 1j, 2 + 3j)
WW_GRID = tuple(
    (mu, a3, a5, sign)
    for a3 in (1, 2, 1j, 1 + 1j)
    for a5 in (1, 2, 1j, 1 + 1j)
    for sign in (+1, -1)
    for mu in (0, 1, 1j)
    if not (sign == -1 and a3 == a5)
)
MAX_CONDITION = 1e3
_EINSUM4 = "ai,bj,ck,dl,ijkl->abcd"


@dataclass
class Case:
    """One input and its truth.

    ``truth`` is the expected ``(tag, cuts)`` of the qubit-1 verdict,
    ``label`` the expected canonical label (``classify4_all`` only) and
    ``path`` the state file of a CLI call.
    """

    amps: np.ndarray
    truth: tuple
    label: str = None
    path: str = None
    expected_exit: int = None


def _member_count(family: str) -> int:
    return {"W0kPsi_W": len(LAMBDAS), "WW_W": len(WW_GRID)}.get(family, 1)


def _spec(family: str, k: int) -> FamilySpec:
    """Member ``k`` of a family: parameterized families walk their grids."""
    if family == "W0kPsi_W":
        return FamilySpec(family, {"lambda": LAMBDAS[k % len(LAMBDAS)]})
    if family == "WW_W":
        mu, a3, a5, sign = WW_GRID[k % len(WW_GRID)]
        return FamilySpec(family, {"mu": mu, "a3": a3, "a5": a5}, sign=sign)
    return FamilySpec(family)


def _truth(family: str) -> tuple:
    return (family, FAMILY_CUTS.get(family, ()))


def _apply_local(mats, amps) -> np.ndarray:
    return np.einsum(_EINSUM4, *mats, amps.reshape(2, 2, 2, 2)).reshape(16)


class Workload:
    """Base of the workloads: ``cases(rng)`` yields inputs, ``call`` is the
    timed entry point, ``outcome`` reduces its result to comparable data
    and ``check`` compares that with the truth."""

    name = None
    #: Fixed per workload so that runs and commits compare one percentile:
    #: the highest of 50/75/90/99 with at least 10 samples beyond it in a
    #: 50 s run of the seed program on a 2-core machine.  p99.9 is left out:
    #: there it measured host interrupts and moved 34-57% between runs.
    tail_percentile = None

    def timed(self, case) -> tuple:
        """One closed-loop call: ``(nanoseconds, outcome)``."""
        start = perf_counter_ns()
        try:
            result = self.call(case)
        except slocc4.Slocc4Error as exc:
            return perf_counter_ns() - start, ("error", type(exc).__name__)
        return perf_counter_ns() - start, self.outcome(result)

    def setup_argv(self, case) -> list:
        """A fresh interpreter that imports slocc4, completes the first call
        and then prints one line."""
        amps = " ".join(repr(complex(z)) for z in case.amps)
        code = (
            "import sys\n"
            "import slocc4\n"
            "amps = [complex(s) for s in sys.argv[1:]]\n"
            "try:\n"
            f"    slocc4.{self.setup_call}\n"
            "except slocc4.Slocc4Error:\n"
            "    pass\n"
            "print('done', flush=True)\n"
        )
        return [sys.executable, "-c", code, *amps.split()]


class FamiliesAll(Workload):
    """SLOCC images of the ten canonical families through ``classify4_all``."""

    name = "families-all"
    tail_percentile = 99.0
    setup_call = "classify4_all(amps)"

    def __init__(self):
        self._labels = {}

    def _label(self, family: str, k: int) -> str:
        """Canonical label of the unperturbed member, computed once."""
        key = (family, k % _member_count(family))
        if key not in self._labels:
            self._labels[key] = quad.classify4_all(make_canonical(_spec(family, k)))[1]
        return self._labels[key]

    def cases(self, rng):
        i = 0
        while True:
            family = FAMILIES[i % len(FAMILIES)]
            k = i // len(FAMILIES)
            base = make_canonical(_spec(family, k)).amps
            mats = [op.m for op in random_slocc(4, MAX_CONDITION, rng).ops]
            yield Case(_apply_local(mats, base), _truth(family), self._label(family, k))
            i += 1

    def call(self, case):
        return quad.classify4_all(case.amps)

    def outcome(self, result):
        verdicts, label = result
        return (tuple((v.tag.value, v.cuts) for v in verdicts), label)

    def check(self, case, outcome):
        if outcome[0] == "error":
            return None
        verdicts, label = outcome
        if verdicts[0] != case.truth:
            return f"qubit-1 verdict {verdicts[0]} != {case.truth}"
        if label != case.label:
            return f"canonical label {label!r} != {case.label!r}"
        return None


def _gaussian(rng, size) -> np.ndarray:
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _product_state(rng, kind: int) -> np.ndarray:
    """A random 4-qubit product: kind 0 splits off one qubit at a random
    position, kind 1 splits qubit 1 and a random partner from the other
    two qubits."""
    if kind == 0:
        k = int(rng.integers(4))
        t = np.multiply.outer(_gaussian(rng, 2), _gaussian(rng, 8).reshape(2, 2, 2))
        return np.moveaxis(t, 0, k).reshape(16)
    j = int(rng.integers(1, 4))
    rest = [q for q in (1, 2, 3) if q != j]
    t = np.multiply.outer(_gaussian(rng, 4).reshape(2, 2), _gaussian(rng, 4).reshape(2, 2))
    return np.moveaxis(t, (0, 1, 2, 3), (0, j, *rest)).reshape(16)


class SingleVerdict(Workload):
    """A ``classify4`` workload whose truth is the verdict's tag and cuts."""

    def outcome(self, result):
        return (result.tag.value, result.cuts)

    def check(self, case, outcome):
        if outcome[0] == "error" or outcome == case.truth:
            return None
        return f"verdict {outcome} != {case.truth}"


class HaarMix(SingleVerdict):
    """Gaussian-random states, one in four replaced by a product state,
    through ``classify4`` with qubit 1 distinguished."""

    name = "haar-mix"
    tail_percentile = 99.0
    setup_call = "classify4(amps, distinguished=1)"

    def cases(self, rng):
        i = 0
        while True:
            if i % 4 == 3:
                yield Case(_product_state(rng, (i // 4) % 2), ("Degenerate", ()))
            else:
                yield Case(_gaussian(rng, 16), ("WGHZ_W", ()))
            i += 1

    def call(self, case):
        return quad.classify4(case.amps, distinguished=1)


def _is_small_dyadic(amps, max_den: int = 1 << 10) -> bool:
    return all(
        Fraction(part).denominator <= max_den for z in amps for part in (z.real, z.imag)
    )


def _gaussian_integer_op(rng) -> np.ndarray:
    """A nonsingular 2x2 matrix with entries a + bi, a, b in -2..2."""
    while True:
        m = rng.integers(-2, 3, size=(2, 2)) + 1j * rng.integers(-2, 3, size=(2, 2))
        if m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] != 0:
            return m


class ExactDyadic(SingleVerdict):
    """The ten families under Gaussian-integer SLOCC operators, so every
    amplitude is exact, through ``classify4(exact=True)``."""

    name = "exact-dyadic"
    tail_percentile = 99.0
    setup_call = "classify4(amps, exact=True)"

    def __init__(self):
        # WW_W grid points whose amplitudes are exact small dyadics; the
        # others involve irrational square roots
        self._members = {
            family: [make_canonical(_spec(family, k)).amps for k in range(_member_count(family))]
            for family in FAMILIES
        }
        self._members["WW_W"] = [a for a in self._members["WW_W"] if _is_small_dyadic(a)]

    def cases(self, rng):
        i = 0
        while True:
            family = FAMILIES[i % len(FAMILIES)]
            members = self._members[family]
            base = members[(i // len(FAMILIES)) % len(members)]
            mats = [_gaussian_integer_op(rng) for _ in range(4)]
            yield Case(_apply_local(mats, base), _truth(family))
            i += 1

    def call(self, case):
        return quad.classify4(case.amps, exact=True)


class CliOneshot(Workload):
    """One ``python -m slocc4.cli classify <file> --distinguished all``
    subprocess per state file; the files hold ``families-all`` inputs.

    In a traced run the same argv goes through an in-process
    ``cli.main`` instead, since spans cannot cross a process boundary.
    """

    name = "cli-oneshot"
    tail_percentile = 90.0

    def __init__(self, workdir: str, env: dict, in_process: bool = False):
        self._families = FamiliesAll()
        self._workdir = workdir
        self._env = env
        self.in_process = in_process

    def argv(self, path: str) -> list:
        return ["classify", path, "--distinguished", "all"]

    def cases(self, rng):
        for n, case in enumerate(self._families.cases(rng)):
            case.path = os.path.join(self._workdir, f"state{n}.json")
            with open(case.path, "w", encoding="utf-8") as fh:
                json.dump({"n": 4, "amps": [[z.real, z.imag] for z in case.amps]}, fh)
            try:
                verdicts, case.label = quad.classify4_all(case.amps)
                case.expected_exit = 2 if verdicts[0].is_degenerate else 0
            except slocc4.Slocc4Error:
                case.expected_exit = 1
            yield case

    def call(self, case):
        if self.in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(self.argv(case.path))
            return code, out.getvalue()
        proc = subprocess.run(
            self.setup_argv(case), capture_output=True, text=True, env=self._env
        )
        return proc.returncode, proc.stdout

    def setup_argv(self, case) -> list:
        return [sys.executable, "-m", "slocc4.cli", *self.argv(case.path)]

    def outcome(self, result):
        code, stdout = result
        if code == 1:
            return ("error", "exit 1")
        return (code, stdout)

    def check(self, case, outcome):
        if outcome[0] == "error":
            return None
        code, stdout = outcome
        if code != case.expected_exit:
            return f"exit code {code} != {case.expected_exit}"
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"stdout is not exactly one JSON document: {exc}"
        first = doc["verdicts"][0]
        if (first["class"], tuple(first["cuts"])) != case.truth:
            return f"qubit-1 verdict {first['class']}{first['cuts']} != {case.truth}"
        if doc["canonical_label"] != case.label:
            return f"canonical label {doc['canonical_label']!r} != in-process {case.label!r}"
        return None


NAMES = ("families-all", "haar-mix", "exact-dyadic", "cli-oneshot")

#: Runnable, but left out of BENCHMARK.json: a benchmark workload must be
#: one on which no call fails, and the program still fails on these.
UNGATED = {
    "families-all": "about 1 in 120 000 images is silently misclassified, "
    "so about one 50 s run in 8 ends with correct=false",
    "exact-dyadic": "about 0.8% of calls raise GenericTypeUnstable",
}


def make(name: str, workdir: str, env: dict, in_process_cli: bool = False) -> Workload:
    if name == "families-all":
        return FamiliesAll()
    if name == "haar-mix":
        return HaarMix()
    if name == "exact-dyadic":
        return ExactDyadic()
    if name == "cli-oneshot":
        return CliOneshot(workdir, env, in_process_cli)
    raise ValueError(f"unknown workload {name!r}")

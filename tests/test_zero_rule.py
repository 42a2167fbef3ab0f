"""The one zero rule of float mode, ``kernels.vanishes``: a value at most its
bound is zero, one at least 32 times it is nonzero, and one in between
raises, naming the decision.  The two candidate screens of ``common_roots``
stay sharp."""

import json

import numpy as np
import pytest

from slocc4 import (
    AmbiguousClassification,
    DegeneratePencil,
    GenericTypeUnstable,
    PureState,
    QuadraticForm,
    QuarticForm,
    Slocc4Error,
    TriClass,
    analyze_span,
    classify3,
    decompose,
    span_dimension,
    w_clauses,
)
from slocc4.cli import main
from slocc4.kernels import clause_truths
from slocc4.pencil import common_roots

EPS = 1e-9


def _ket(*indices, t=1.0):
    v = np.zeros(8, dtype=complex)
    v[list(indices)] = t
    return v


def _ghz_value(k):
    # |000> + t|111> has GHZ value t^2 and no clause quantity: Sep000 or GHZ
    t = (k * EPS) ** 0.5
    return str(classify3([1, 0, 0, 0, 0, 0, 0, t]))


def _w_clause(k):
    # |0>(|00> + t|11>) has GHZ value 0 and clause quantity a0 a3 = t
    return str(classify3([1, 0, 0, k * EPS, 0, 0, 0, 0]))


def _w_clauses_report(k):
    return w_clauses([1, 0, 0, k * EPS, 0, 0, 0, 0]).clause_truth


def _pencil_quartic(k):
    return QuarticForm((k * EPS, 0, 0, 0, 0), 1.0).identically_zero(EPS)


def _clause_form(k):
    return QuadraticForm((k * EPS / 32, 0, 0), 1.0).identically_zero(EPS)


def _resultant(k):
    # x y and (x - t y)(x - y) have resultant t against the bound eps (1 +
    # t)^2, and a linear form far from zero: when the resultant vanishes,
    # their near-common root (0 : 1) is the candidate, else there is none
    t = k * EPS * (1 + k * EPS) ** 2
    roots = common_roots(QuadraticForm((0, 1, 0), 1.0), QuadraticForm((1, -1 - t, t), 1.0), EPS)
    return [(abs(pt.x) < 1e-6, pt.multiplicity) for pt in roots]


def _proportional(k):
    # x^2 and x (x + t y) share the root (0 : 1) exactly; their linear form
    # is t x: proportional forms give it as the double root of x^2, others
    # as the simple root of the linear form
    t = k * EPS**0.5
    roots = common_roots(QuadraticForm((1, 0, 0), 1.0), QuadraticForm((1, t, 0), 1.0), EPS)
    assert all(abs(pt.x) < 1e-6 for pt in roots)
    return sorted(pt.multiplicity for pt in roots)


def _pencil_gram(k):
    # |000> and t|111>: Gram eigenvalues 1 and t^2, zero below eps / 32
    try:
        analyze_span(_ket(0), _ket(7, t=(k * EPS / 32) ** 0.5), EPS)
    except DegeneratePencil:
        return "dependent"
    return "profiled"


def _residual_gram(k):
    t = (k * EPS / 32) ** 0.5
    state = PureState(np.concatenate([_ket(0), _ket(7, t=t)]))
    return span_dimension(decompose(state, 1), EPS)


#: decision name, entry point of a value k times its bound, the error in the
#: band, the readings at k = 1/4 and k = 128
ROUTED = [
    ("GHZ value", _ghz_value, AmbiguousClassification, "Sep000", "GHZ"),
    ("W clause", _w_clause, AmbiguousClassification, "Sep000", "Bisep(1)"),
    ("W clause", _w_clauses_report, AmbiguousClassification,
     (False, False, False), (True, False, False)),
    ("pencil quartic", _pencil_quartic, GenericTypeUnstable, True, False),
    ("clause form", _clause_form, AmbiguousClassification, True, False),
    ("pencil Gram matrix", _pencil_gram, AmbiguousClassification, "dependent", "profiled"),
    ("residual Gram matrix", _residual_gram, AmbiguousClassification, 1, 2),
]


@pytest.mark.parametrize("name, entry, error, zero, nonzero", ROUTED,
                         ids=[f"{row[0]}-{row[1].__name__}" for row in ROUTED])
def test_routed_decision_reads_zero_raises_then_nonzero(name, entry, error, zero, nonzero):
    assert entry(0.25) == zero
    with pytest.raises(error, match=f"^{name} at 4 times"):
        entry(4)
    assert entry(128) == nonzero


#: the two candidate screens of ``common_roots`` and their candidates when
#: the value is zero and when it is not
SCREENS = [
    ("clause pair resultant", _resultant, [(True, 1)], []),
    ("proportional clause forms", _proportional, [2], [1]),
]


@pytest.mark.parametrize("name, entry, zero, nonzero", SCREENS, ids=[row[0] for row in SCREENS])
def test_candidate_screens_stay_sharp(name, entry, zero, nonzero):
    assert [entry(0.25), entry(4), entry(128)] == [zero, nonzero, nonzero]


def test_w_clause_in_the_band_beside_two_nonzero_clauses_reads_nonzero():
    # exactly two true clauses are impossible, so that is the one reading
    # of a clause maximum in the band beside two at 50 times the bound; any
    # other maximum in the band raises
    assert clause_truths((50, 0, 0, 50, 5, 0), 1.0) == (True, True, True)
    assert clause_truths((50, 0, 50, 0, 0.5, 0), 1.0) == (True, True, False)
    for q in ((50, 0, 5, 0, 0.5, 0), (0, 5, 5, 0, 50, 0), (5, 0, 0, 0, 0, 0)):
        with pytest.raises(AmbiguousClassification, match="^W clause at 5 times"):
            clause_truths(q, 1.0)


def test_two_qubit_determinant_reads_zero_raises_then_nonzero(tmp_path, capsys):
    outcomes = []
    for k in (0.25, 4, 128):
        path = tmp_path / f"det{k}.json"
        path.write_text(json.dumps({"n": 2, "amps": [[1, 0], [0, 0], [0, 0], [k * EPS, 0]]}))
        code = main(["classify", str(path)])
        out, err = capsys.readouterr()
        outcomes.append((code, json.loads(out)["class"] if out else err))
    assert outcomes[0] == (2, "00") and outcomes[2] == (0, "Psi")
    code, err = outcomes[1]
    assert code == 1 and err.count("\n") == 1 and "2-qubit determinant at 4 times" in err


def test_one_generic_type_per_span():
    # |0>(|00> + |11>) and |1>(|00> + |11>), each moved by d times a
    # Gaussian vector, at eps and d drawn on log scales: many of these
    # pencils lie on the boundary between a GHZ- and a W-generic span by
    # design.  Written in three bases of the same span, they may raise, but
    # two bases never report different generic types
    rng = np.random.default_rng(5)
    p0, p1 = _ket(0, 3), _ket(4, 7)
    differing = []
    for n in range(5000):
        eps = 10 ** rng.uniform(-4, -1)
        d = 10 ** rng.uniform(-4, -0.5)
        phi0 = p0 + d * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        phi1 = p1 + d * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        types = set()
        for a, b in ((phi0, phi1), (phi1, phi0), (phi0 + phi1, phi0 - phi1)):
            try:
                types.add(analyze_span(a, b, eps).generic_type)
            except Slocc4Error:
                continue
        if len(types) > 1:
            differing.append((n, eps, d, types))
    assert not differing, differing[:5]


def test_exact_certificate_is_not_blocked_by_a_float_band():
    # |001> + |010> + 2^-8 |100> is a W state whose clause quantity 2^-8 reads
    # 4 times its bound at eps = 2^-10, and it is a point of its pencil with
    # GHZ: float mode raises there, exact mode certifies the point as W
    eps = 2.0**-10
    phi0, phi1 = [0, 1, 1, 0, 2.0**-8, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 1]
    with pytest.raises(AmbiguousClassification, match="^W clause at 4 times"):
        analyze_span(phi0, phi1, eps)
    profile = analyze_span(phi0, phi1, eps, exact=True)
    assert profile.generic_type == TriClass.GHZ
    assert {cls for _, cls in profile.exceptional} == {TriClass.W}
    assert any(pt.y == 0 for pt, _ in profile.exceptional)


def test_exact_mode_raises_where_the_exact_class_is_generic():
    # adding 2^-40 |111> moves that W point to (1 : -2^-40), which needs a
    # denominator above the snap's 1e12: the snapped row is GHZ, the
    # generic class, so the float row decides there and its W clause, 4
    # times its bound, raises in exact mode too
    eps = 2.0**-10
    phi0, phi1 = [0, 1, 1, 0, 2.0**-8, 0, 0, 2.0**-40], [1, 0, 0, 0, 0, 0, 0, 1]
    with pytest.raises(AmbiguousClassification, match="^W clause at 4 times"):
        analyze_span(phi0, phi1, eps, exact=True)

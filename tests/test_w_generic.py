"""W-generic pencils whose structure lies far below the amplitude scale, and
pencils spanned by nearly parallel vectors: each call either returns the
true class or raises as borderline, never a wrong class."""

import numpy as np
import pytest

from slocc4 import (
    AmbiguousClassification,
    DegeneratePencil,
    GenericTypeUnstable,
    PureState,
    analyze_span,
    apply_slocc,
    classify4,
    classify4_all,
)
from slocc4.canonical import FamilySpec, canonical_pencil, make_canonical, random_slocc
from slocc4.qstate import LocalOperator, SloccOp

LAMBDAS = [m * s for m in (16, 32, 64, 100, 128) for s in (1, 1j, -1)]


def _gaussian_integer_op(rng) -> SloccOp:
    """Four nonsingular 2x2 matrices with entries a + bi, a, b in -2..2, so
    that the image of a Gaussian-integer state is exact."""
    mats = []
    while len(mats) < 4:
        m = rng.integers(-2, 3, size=(2, 2)) + 1j * rng.integers(-2, 3, size=(2, 2))
        if m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] != 0:
            mats.append(LocalOperator(m))
    return SloccOp(tuple(mats))


def _images(base, kind, count):
    if kind == "gaussian-integer":
        rng = np.random.default_rng(6201)
        return [apply_slocc(base, _gaussian_integer_op(rng)) for _ in range(count)]
    rng = np.random.default_rng(3)
    condition = 1.0 if kind == "unitary" else 1e3
    return [apply_slocc(base, random_slocc(4, condition, rng)) for _ in range(count)]


@pytest.mark.parametrize("kind", ["unitary", "condition-1e3", "gaussian-integer"])
@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_large_lambda_images_are_never_misread(lam, kind):
    # the smallest structure of W0kPsi_W is 1/lambda^2 of its amplitudes,
    # and rounding reaches the orthonormal pencil basis multiplied by about
    # lambda^2; a borderline image raises, and no image reads as another
    # class (W0kPsi_0kPsi(1) from a split double root before)
    base = make_canonical(FamilySpec("W0kPsi_W", {"lambda": lam}))
    modes = (False, True) if kind == "gaussian-integer" else (False,)
    for img in _images(base, kind, 16):
        for exact in modes:
            try:
                v = classify4(img, 1, exact=exact)
            except (AmbiguousClassification, GenericTypeUnstable):
                continue
            assert (v.tag.value, v.cuts) == ("W0kPsi_W", (1,)), (lam, kind, exact, v)


@pytest.mark.parametrize("lam", [100, 128])
@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_large_lambda_members_classify_for_every_qubit(lam, exact):
    state = make_canonical(FamilySpec("W0kPsi_W", {"lambda": lam}))
    assert classify4_all(state, exact=exact)[1] == ";".join(["W0kPsi_W(1)"] * 4)


@pytest.mark.parametrize("d, max_raised", [(1e-2, 0), (1e-3, 0), (1e-4, 23)])
def test_near_products_classify_in_an_orthonormal_basis(d, max_raised):
    # a Gaussian product |a>|psi> plus d times a Gaussian state: its qubit-1
    # pencil is spanned by two nearly parallel vectors.  In their normalized
    # basis (Gram condition about 1e4) the quartic's true discriminant fell
    # into the band and 179, 200 and 200 of 200 draws raised; the bounds are
    # those measured with the orthonormal basis, and the raises left at 1e-4
    # are near-separable pencils of the dependence test
    rng = np.random.default_rng(0)
    raised = 0
    for _ in range(200):
        a, psi, b = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in (2, 8, 16))
        try:
            v = classify4(PureState(np.kron(a, psi) + d * b), 1)
        except AmbiguousClassification:
            raised += 1
            continue
        assert v.tag.value == "WGHZ_W"
    assert raised <= max_raised


def test_fourfold_root_in_a_nearly_dependent_basis():
    # W0Psi_GHZ's pencil quartic has one 4-fold root.  Spanned by a and
    # a + 1e-6 b, the images of its vectors under a local operator, the
    # pencil keeps that root, but rounding of the second vector reaches e1
    # multiplied by about 1e6, and a noise bound without that gain reads
    # the root as split
    rng = np.random.default_rng(7)
    phi0, phi1 = canonical_pencil(FamilySpec("W0Psi_GHZ"))
    for _ in range(40):
        m = np.eye(1)
        for op in random_slocc(3, 10, rng).ops:
            m = np.kron(m, op.m)
        a, b = m @ phi0, m @ phi1
        g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        try:
            profile = analyze_span(a, g[0] * a + 1e-6 * g[1] * b, eps=1e-14)
        except DegeneratePencil:
            continue
        except AmbiguousClassification as exc:  # borderline dependent
            assert "pencil Gram matrix" in str(exc)
            continue
        assert [pt.multiplicity for pt, _ in profile.exceptional] == [4]


def test_w0kpsi_w_image_with_a_true_double_root_does_not_raise():
    # a families-all input (seed 2008, case 1247): a W0kPsi_W image whose
    # clause forms hold true double roots.  Their discriminants read at most
    # 0.006 of the derived bound; without the basis gain (5 to 53 on its
    # four pencils) and with 2^-46 per coefficient they read up to 0.67, and
    # a tighter guess of that kind put one inside the band
    amps = [
        -1.2976481428767623 - 9.28694318568996j, -4.925391531295867 - 10.282144760749132j,
        -1.9035343164279872 + 10.607754767247666j, -2.002823139444 + 10.908508903336052j,
        -3.1278860448490113 - 5.7350193535981315j, -5.7464668300495605 - 5.519052638548081j,
        1.3709968167276383 + 7.373905431788613j, 1.356880204826464 + 7.631362615337257j,
        6.96606992049672 + 5.3182173600900216j, 10.407030345705541 + 5.369617659970299j,
        -6.114619469400803 - 7.787199467253623j, -4.468918620223303 - 10.225926646489974j,
        5.961587823566901 + 1.5821228282005544j, 8.201306567582272 + 0.645414664786659j,
        -6.063348565501451 - 3.429987596850854j, -5.6914037486459765 - 5.402807196888697j,
    ]
    assert classify4_all(amps)[1] == ";".join(["W0kPsi_W(1)"] * 4)

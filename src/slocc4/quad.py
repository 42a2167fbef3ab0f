"""Inductive superclass classification of 4-qubit pure states.

A genuinely 4-partite state is decomposed on a distinguished qubit and the
residual pencil is profiled; the verdict follows the ordering that always
prefers the spanning set with the least entanglement
(fully separable < biseparable < GHZ, W, with GHZ-W spans preferred over
GHZ-GHZ spans).  Ten superclasses are reachable; the all-GHZ span is
provably empty and is represented as an assertion failure, never as a
returnable class.

Cut indices in verdicts refer to positions within the residual 3-qubit
system, i.e. after removing the distinguished qubit the remaining qubits
are renumbered 1..3 in their original order.

States that are not genuinely 4-partite (some single qubit or qubit pair
in a product) are screened out by reduced-rank checks before the pencil
stage and reported as Degenerate.
"""

import enum
from typing import NamedTuple

from .errors import AmbiguousClassification, DegeneratePencil, DimensionMismatch, InternalContradiction
from .pencil import SpanProfile, analyze_span
# span_dimension is not called here (analyze_span makes the same test), but
# perfbench/spans.py wraps it under this module's name
from .qstate import (  # noqa: F401
    DEFAULT_EPS,
    PureState,
    bipartition_ranks,
    cut_matrix,
    decompose,
    span_dimension,
)
from .tri import TriClass, classify3


class QuadTag(enum.Enum):
    """The ten 4-qubit superclasses, plus the degenerate catch-all."""

    W000_000 = "W000_000"
    W000_0PSI = "W000_0Psi"
    W000_GHZ = "W000_GHZ"
    W000_W = "W000_W"
    W0KPSI_0KPSI = "W0kPsi_0kPsi"
    W0IPSI_0JPSI = "W0iPsi_0jPsi"
    W0PSI_GHZ = "W0Psi_GHZ"
    W0KPSI_W = "W0kPsi_W"
    WGHZ_W = "WGHZ_W"
    WW_W = "WW_W"
    DEGENERATE = "Degenerate"

    def __str__(self):
        return self.value


#: Documented ordering of tags, used to canonicalize verdict tuples: the
#: order in which ``QuadTag`` declares them.
TAG_ORDER = tuple(QuadTag)


class QuadClass(NamedTuple):
    """Verdict for one choice of distinguished qubit."""

    tag: QuadTag
    distinguished: int
    cuts: tuple = ()
    detail: str = ""
    profile: SpanProfile = None

    @property
    def is_degenerate(self) -> bool:
        return self.tag == QuadTag.DEGENERATE

    def label(self) -> str:
        if self.cuts:
            return f"{self.tag.value}({','.join(str(c) for c in self.cuts)})"
        return self.tag.value

    def to_json(self) -> dict:
        out = {
            "class": self.tag.value,
            "distinguished": self.distinguished,
            "cuts": list(self.cuts),
            "profile": self.profile.to_json() if self.profile is not None else None,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


def _exact_cut_rank(state: PureState, cut) -> int:
    from . import exact as _exact

    mat = cut_matrix(state, cut)
    return _exact.exact_rank([[_exact.GaussianRational.from_complex(z) for z in row] for row in mat])


def _degenerate_screen(state: PureState, eps: float, exact: bool):
    """Reduced-rank factorization screen.

    Returns ``(detail, state)``: a Degenerate detail string when some single
    qubit or qubit pair factors out, else None, and the state rescaled into
    the window.  The numeric screen always runs (a state within float noise
    of a factorized one must not reach the pencil stage); exact mode
    additionally certifies exact rank deficiencies.  Each rank is read only
    when the screen needs it.
    """
    ranks = bipartition_ranks(state, eps)
    state = ranks.state
    for k in (1, 2, 3, 4):
        if ranks[(k,)] == 1 or exact and _exact_cut_rank(state, (k,)) == 1:
            d = decompose(state, k)
            rest = d.phi0 if d.phi0.max_abs() >= d.phi1.max_abs() else d.phi1
            rest_class = classify3(rest, eps, exact=exact)
            return f"qubit {k} separable; remainder {rest_class}", state
    for cut in ((1, 2), (1, 3), (1, 4)):
        if ranks[cut] == 1 or exact and _exact_cut_rank(state, cut) == 1:
            other = tuple(sorted(set((1, 2, 3, 4)) - set(cut)))
            return f"pair {cut} separable from {other}", state
    return None, state


def _decide(profile: SpanProfile, distinguished: int) -> QuadClass:
    """Decision table on a span profile, in the least-entanglement order."""
    sep_points = sum(cls == TriClass.SEP000 for _, cls in profile.exceptional)
    cuts = profile.bisep_cuts
    generic_ghz = not profile.quartic_identically_zero
    generic_w = profile.quartic_identically_zero and profile.generic_type == TriClass.W

    if not generic_ghz and not generic_w:
        raise InternalContradiction(
            f"generic pencil element is {profile.generic_type}; a genuinely "
            "4-partite state cannot have a biseparable or separable pencil"
        )

    def verdict(tag, cuts=()):
        return QuadClass(
            tag=tag, distinguished=distinguished, cuts=tuple(cuts), profile=profile
        )

    if sep_points >= 2:
        return verdict(QuadTag.W000_000)
    if sep_points == 1:
        if cuts:
            return verdict(QuadTag.W000_0PSI)
        if generic_ghz:
            return verdict(QuadTag.W000_GHZ)
        return verdict(QuadTag.W000_W)
    if len(cuts) >= 2:
        shared = sorted({c for c in cuts if cuts.count(c) >= 2})
        if shared:
            return verdict(QuadTag.W0KPSI_0KPSI, (shared[0],))
        distinct = sorted(set(cuts))
        return verdict(QuadTag.W0IPSI_0JPSI, tuple(distinct[:2]))
    if len(cuts) == 1:
        if generic_ghz:
            return verdict(QuadTag.W0PSI_GHZ, cuts)
        return verdict(QuadTag.W0KPSI_W, cuts)
    # no separable points of any kind
    if generic_ghz:
        if not profile.w_points:
            raise InternalContradiction(
                "GHZ-generic pencil without W or separable exceptional points; "
                "the all-GHZ span is provably empty"
            )
        return verdict(QuadTag.WGHZ_W)
    return verdict(QuadTag.WW_W)


def classify4(
    state: PureState,
    distinguished: int = 1,
    eps: float = DEFAULT_EPS,
    exact: bool = False,
) -> QuadClass:
    """Superclass of a 4-qubit state for one distinguished qubit."""
    if not isinstance(state, PureState):
        state = PureState(state)
    if state.n != 4:
        raise DimensionMismatch(f"classify4 needs a 4-qubit state, got n={state.n}")
    if not 1 <= distinguished <= 4:
        raise DimensionMismatch(f"distinguished qubit {distinguished} out of 1..4")
    detail, state = _degenerate_screen(state, eps, exact)
    if detail is not None:
        return QuadClass(
            tag=QuadTag.DEGENERATE, distinguished=distinguished, detail=detail
        )

    d = decompose(state, distinguished)
    try:
        profile = analyze_span(d.phi0, d.phi1, eps, exact=exact)
    except DegeneratePencil as exc:
        # the rank screen passed this qubit's cut at sigma2/sigma1 > eps, the
        # pencil test needs its square above eps: a ratio in between is a
        # state within sqrt(eps) of one with a separable qubit
        raise AmbiguousClassification(f"qubit {distinguished} has rank 2 but a 1-dimensional "
                                      "residual pencil within eps (near-separable)") from exc
    if profile.ghz_generic and TriClass.GHZ in [cls for _, cls in profile.exceptional]:
        raise AmbiguousClassification("a root of the pencil quartic classifies as GHZ: the "
                                      "pencil is too badly conditioned to place it")
    return _decide(profile, distinguished)


def _canonical_label(verdicts) -> str:
    """Order-independent summary of per-qubit verdicts.

    Tags are sorted by the documented ordering and cut subscripts renamed
    in order of first appearance within each verdict.
    """
    keys = []
    for v in verdicts:
        renamed = {}
        cuts = []
        for c in v.cuts:
            renamed.setdefault(c, len(renamed) + 1)
            cuts.append(renamed[c])
        suffix = f"({','.join(str(c) for c in cuts)})" if cuts else ""
        keys.append((TAG_ORDER.index(v.tag), tuple(cuts), v.tag.value + suffix))
    keys.sort()
    return ";".join(k[2] for k in keys)


def classify4_all(state: PureState, eps: float = DEFAULT_EPS, exact: bool = False):
    """Verdicts for all four choices of distinguished qubit.

    Returns ``(verdicts, canonical_label)``.  No equality among the four
    verdicts is asserted; they are reported as-is.
    """
    verdicts = [classify4(state, k, eps, exact=exact) for k in (1, 2, 3, 4)]
    return verdicts, _canonical_label(verdicts)

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

from .errors import (AmbiguousClassification, DegeneratePencil, DimensionMismatch,
                     InternalContradiction, Slocc4Error)
from .pencil import SpanProfile, analyze_span
# span_dimension is not called here (analyze_span makes the same test), but
# perfbench/spans.py wraps it under this module's name
from .qstate import (  # noqa: F401
    _MINOR_FACTORS,
    _RANK_FLOOR,
    BIPARTITIONS,
    DEFAULT_EPS,
    PureState,
    as_state,
    bipartition_ranks,
    check_eps,
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


def _degenerate_screen(state: PureState, eps: float, exact: bool):
    """Reduced-rank factorization screen.

    Returns ``(detail, state)``: a Degenerate detail string when some single
    qubit or qubit pair factors out, else None, and the state rescaled into
    the window.  The numeric screen always runs (a state within float noise
    of a factorized one must not reach the pencil stage); exact mode
    additionally certifies exact rank deficiencies: a cut has rank 1 when
    every 2x2 minor of the float screen's table vanishes exactly.  The
    screen asks of each cut only whether its rank is 1.
    """
    ranks = bipartition_ranks(state, eps)
    state = ranks.state
    if exact:
        from . import exact as _exact

        lifted = _exact.lift(state.values)

    def separable(cut) -> bool:
        return ranks[cut] == 1 or exact and _exact.exact_rank(
            lifted, _MINOR_FACTORS[BIPARTITIONS.index(cut)]) == 1

    for k in (1, 2, 3, 4):
        if separable((k,)):
            d = decompose(state, k)
            rest = d.phi0 if d.phi0.max_abs() >= d.phi1.max_abs() else d.phi1
            rest_class = classify3(rest, eps, exact=exact)
            return f"qubit {k} separable; remainder {rest_class}", state
    for cut in ((1, 2), (1, 3), (1, 4)):
        if separable(cut):
            other = tuple(sorted(set((1, 2, 3, 4)) - set(cut)))
            return f"pair {cut} separable from {other}", state
    return None, state


# the members as module constants: a ``TriClass.X`` lookup costs about ten
# times a global one
_SEP000, _W, _GHZ = TriClass.SEP000, TriClass.W, TriClass.GHZ


def _decide(profile: SpanProfile, distinguished: int) -> QuadClass:
    """Decision table on a span profile, in the least-entanglement order."""
    sep_points = sum(cls is _SEP000 for _, cls in profile.exceptional)
    cuts = profile.bisep_cuts
    generic_ghz = profile.ghz_generic
    generic_w = profile.generic_type is _W

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
    state = as_state(state, 4)
    if distinguished not in range(1, 5):
        raise DimensionMismatch(f"distinguished qubit {distinguished} out of 1..4")
    check_eps(eps)
    if not exact and eps < _RANK_FLOOR:
        # the rounding of the rank screen's minors hides a rank of 1 there
        raise Slocc4Error(f"float classify4 needs eps >= {_RANK_FLOOR:g} (the rank "
                          f"screen's floor), got {eps:g}; exact mode takes any eps")
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
        # pencil test needs its square at least eps (below eps / 32 it reads
        # dependent, in between it raises itself): a ratio in between is a
        # state within sqrt(eps) of one with a separable qubit
        raise AmbiguousClassification(f"qubit {distinguished} has rank 2 but a 1-dimensional "
                                      "residual pencil within eps (near-separable)") from exc
    if profile.ghz_generic:
        # every exceptional point is a quartic root: none is GHZ, and a
        # simple one is W (the comment above pencil._SLOPE)
        for pt, cls in profile.exceptional:
            if cls is not _W and (cls is _GHZ or pt.multiplicity == 1):
                raise AmbiguousClassification(
                    f"a root of the pencil quartic of multiplicity {pt.multiplicity} classifies as "
                    f"{cls}: the pencil is too badly conditioned to place it")
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
    state = as_state(state, 4)
    verdicts = [classify4(state, k, eps, exact=exact) for k in (1, 2, 3, 4)]
    return verdicts, _canonical_label(verdicts)

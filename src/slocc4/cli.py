"""Command-line front end.

stdout carries exactly one JSON document per invocation; all human
diagnostics go to stderr.  Exit codes: 0 for a genuine multipartite class,
2 for degenerate/non-genuine states, 1 for any error (including usage).
"""

import argparse
import gc
import json
import os
import sys

from .errors import Slocc4Error
from .pencil import analyze_span, clause_quadratics, quartic
from .qstate import (
    DEFAULT_EPS,
    PureState,
    _windowed,
    apply_slocc,
    decompose,
    load_state,
    state_to_json,
)
from .quad import QuadTag, classify4, classify4_all
from .tri import TriClass, classify3, w_clauses

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_DEGENERATE = 2


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures follow the exit-code contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_EXIT_ERROR)


def _eps(text: str) -> float:
    """argparse type of --eps: a number strictly between 0 and 1."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not 0.0 < value < 1.0:  # also rejects nan and inf
        raise argparse.ArgumentTypeError(f"must be a finite number in (0, 1), got {text!r}")
    return value


def _emit(obj) -> None:
    try:
        print(json.dumps(obj), flush=True)
    except BrokenPipeError:
        # the reader closed stdout: exit 1 without a traceback, with stdout
        # on devnull so that the flush at shutdown cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(_EXIT_ERROR) from None


def _pair(z: complex) -> list:
    return [z.real, z.imag]


def _classify2(state: PureState, eps: float, exact: bool):
    """Class and determinant of a 2-qubit state, rescaled by an exact power
    of two when its norm lies outside the scale window."""
    state, _ = _windowed(state, "classify")
    a = state.values
    det = a[0] * a[3] - a[1] * a[2]
    if exact:
        from . import exact as _exact

        e = _exact.lift(a)
        entangled = not (e[0] * e[3] - e[1] * e[2]).is_zero
    else:
        entangled = abs(det) > eps * state.max_abs() ** 2
    return ("Psi" if entangled else "00"), det


def _cmd_classify(args, explain: bool) -> int:
    state = load_state(sys.stdin if args.state == "-" else args.state)
    eps = args.eps
    if state.n == 1:
        raise Slocc4Error("classification needs 2, 3 or 4 qubits")

    if state.n == 2:
        cls, det = _classify2(state, eps, args.exact)
        out = {"n": 2, "class": cls}
        if explain:
            out["determinant"] = _pair(det)
        _emit(out)
        return _EXIT_OK if cls == "Psi" else _EXIT_DEGENERATE

    if state.n == 3:
        cls = classify3(state, eps, exact=args.exact)
        out = {"n": 3, "class": str(cls)}
        if explain:
            report = w_clauses(state.values, eps, exact=args.exact)
            out["ghz_value"] = _pair(report.ghz_value)
            out["clause_truth"] = list(report.clause_truth)
            out["quantities"] = [_pair(q) for q in report.quantities]
        _emit(out)
        genuine = cls in (TriClass.GHZ, TriClass.W)
        return _EXIT_OK if genuine else _EXIT_DEGENERATE

    if args.distinguished == "all":
        verdicts, label = classify4_all(state, eps, exact=args.exact)
        out = {
            "n": 4,
            "canonical_label": label,
            "verdicts": [v.to_json() for v in verdicts],
        }
        if explain:
            out["explain"] = [_explain_block(state, k, eps) for k in (1, 2, 3, 4)]
        _emit(out)
        degenerate = verdicts[0].is_degenerate
        return _EXIT_DEGENERATE if degenerate else _EXIT_OK

    k = int(args.distinguished)
    verdict = classify4(state, k, eps, exact=args.exact)
    out = {"n": 4}
    out.update(verdict.to_json())
    if explain and not verdict.is_degenerate:
        out["explain"] = _explain_block(state, k, eps)
    _emit(out)
    return _EXIT_DEGENERATE if verdict.is_degenerate else _EXIT_OK


def _explain_block(state: PureState, distinguished: int, eps: float) -> dict:
    d = decompose(state, distinguished)
    qf = quartic(d.phi0, d.phi1)
    pairs = clause_quadratics(d.phi0, d.phi1)
    return {
        "distinguished": distinguished,
        "quartic": [_pair(c) for c in qf.c],
        "quartic_identically_zero": qf.identically_zero(eps),
        "clause_quadratics": [
            [[_pair(c) for c in f.c] for f in pair] for pair in pairs
        ],
    }


def _parse_params(raw) -> dict:
    params = {}
    for item in raw or ():
        name, _, value = item.partition("=")
        if not _ or not name:
            raise Slocc4Error(f"--param expects name=re[,im], got {item!r}")
        parts = value.split(",")
        if len(parts) not in (1, 2):
            raise Slocc4Error(f"--param value must be re or re,im, got {value!r}")
        try:
            re = float(parts[0])
            im = float(parts[1]) if len(parts) == 2 else 0.0
        except ValueError:
            raise Slocc4Error(f"--param value must be numeric, got {value!r}") from None
        params[name] = complex(re, im)
    return params


_FAMILY_PARAMS = {"W0kPsi_W": {"lambda"}, "WW_W": {"mu", "a3", "a5"}}
#: Names ``generate --family`` accepts: the keys of ``canonical.FAMILY_PENCILS``
#: (the ten superclass tags), then those of ``canonical.TRI_STATES``.  Written
#: out here so that only ``generate`` and ``fuzz-empty`` load ``canonical``.
_FAMILIES = sorted(tag.value for tag in QuadTag if tag is not QuadTag.DEGENERATE) + [
    "Bisep1", "Bisep2", "Bisep3", "GHZ", "Sep000", "W"]


def _cmd_generate(args) -> int:
    from .canonical import FamilySpec, make_canonical

    params = _parse_params(args.param)
    allowed = _FAMILY_PARAMS.get(args.family, set())
    unknown = set(params) - allowed
    if unknown:
        raise Slocc4Error(
            f"family {args.family} does not take parameters {sorted(unknown)}"
        )
    spec = FamilySpec(
        family=args.family,
        params=params,
        sign=+1 if args.sign == "plus" else -1,
    )
    state = make_canonical(spec)
    _emit(state_to_json(state))
    return _EXIT_OK


def run_fuzz_empty(
    trials: int,
    seed=None,
    eps: float = DEFAULT_EPS,
    max_condition: float = 1e3,
    pin_ghz: bool = False,
    exact: bool = False,
    verbose: bool = False,
) -> dict:
    """Sample pencils spanned by SLOCC images of GHZ and look for one whose
    elements are all GHZ (there must be none).

    With ``pin_ghz`` the second basis vector stays the exact GHZ state, in
    which case the quartic's y^4 coefficient must equal 1; ``exact``
    additionally extracts the quartic coefficients in exact arithmetic.
    """
    if trials < 1:
        raise Slocc4Error("--trials must be at least 1")
    import numpy as np

    from .canonical import random_slocc

    rng = np.random.default_rng(seed)
    ghz = PureState([1, 0, 0, 0, 0, 0, 0, 1])
    all_ghz = 0
    tally = {}
    y4 = []
    y4_exact_ones = 0
    for _ in range(trials):
        phi0 = apply_slocc(ghz, random_slocc(3, max_condition, rng))
        phi1 = ghz if pin_ghz else apply_slocc(ghz, random_slocc(3, max_condition, rng))
        profile = analyze_span(phi0, phi1, eps)
        trivial = profile.ghz_generic and all(
            cls == TriClass.GHZ for _, cls in profile.exceptional
        )
        if trivial:
            all_ghz += 1
        for _, cls in profile.exceptional:
            if cls != TriClass.GHZ:
                tally[str(cls)] = tally.get(str(cls), 0) + 1
        if verbose:
            y4.append(_pair(quartic(phi0, phi1).c[4]))
        if exact:
            from . import exact as _exact

            y4_exact = _exact.quartic_exact(_exact.lift(phi0.values), _exact.lift(phi1.values))[4]
            y4_exact_ones += int(y4_exact == _exact.GR_ONE)
    report = {
        "trials": trials,
        "seed": seed,
        "pinned_ghz": pin_ghz,
        "all_ghz_profiles": all_ghz,
        "exceptional_class_counts": dict(sorted(tally.items())),
    }
    if exact:
        report["y4_exactly_one"] = y4_exact_ones
    if verbose:
        report["y4_coefficients"] = y4
    return report


def _cmd_fuzz_empty(args) -> int:
    report = run_fuzz_empty(
        trials=args.trials,
        seed=args.seed,
        eps=args.eps,
        pin_ghz=args.pin_ghz,
        exact=args.exact,
        verbose=args.verbose,
    )
    _emit(report)
    return _EXIT_OK if report["all_ghz_profiles"] == 0 else _EXIT_ERROR


def _build_parser() -> _Parser:
    parser = _Parser(prog="slocc4", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, state_arg=True):
        if state_arg:
            p.add_argument("state", nargs="?", default="-",
                           help="state JSON file, or - for stdin (default)")
        p.add_argument("--eps", type=_eps, default=DEFAULT_EPS,
                       help="relative tolerance in (0, 1) (default 1e-9)")
        p.add_argument("--exact", action="store_true",
                       help="perform all zero tests in exact rational arithmetic")

    p_classify = sub.add_parser("classify", help="classify a 2-, 3- or 4-qubit state")
    add_common(p_classify)
    p_classify.add_argument("--distinguished", choices=["1", "2", "3", "4", "all"],
                            default="1", help="distinguished qubit for n=4 (default 1)")
    p_classify.add_argument("--explain", action="store_true",
                            help="include the span-profile explanation blocks")

    p_explain = sub.add_parser("explain", help="classify and dump the span profile")
    add_common(p_explain)
    p_explain.add_argument("--distinguished", choices=["1", "2", "3", "4", "all"],
                           default="1")

    p_gen = sub.add_parser("generate", help="write a canonical family member")
    p_gen.add_argument("--family", required=True,
                       choices=_FAMILIES)
    p_gen.add_argument("--param", action="append", metavar="NAME=RE[,IM]",
                       help="complex family parameter (repeatable)")
    p_gen.add_argument("--sign", choices=["plus", "minus"], default="plus",
                       help="square-root sign branch for WW_W")

    p_fuzz = sub.add_parser("fuzz-empty",
                            help="verify no pencil of two GHZ images is all-GHZ")
    p_fuzz.add_argument("--trials", type=int, required=True)
    p_fuzz.add_argument("--seed", type=int, default=None)
    p_fuzz.add_argument("--eps", type=_eps, default=DEFAULT_EPS,
                        help="relative tolerance in (0, 1) (default 1e-9)")
    p_fuzz.add_argument("--pin-ghz", action="store_true",
                        help="keep the second basis vector as the exact GHZ state")
    p_fuzz.add_argument("--exact", action="store_true",
                        help="extract quartic coefficients exactly as well")
    p_fuzz.add_argument("--verbose", action="store_true",
                        help="include per-trial y^4 coefficients in the report")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "classify":
            return _cmd_classify(args, explain=args.explain)
        if args.command == "explain":
            return _cmd_classify(args, explain=True)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "fuzz-empty":
            return _cmd_fuzz_empty(args)
        raise Slocc4Error(f"unknown command {args.command!r}")  # pragma: no cover
    except Slocc4Error as exc:
        print(f"slocc4: {exc}", file=sys.stderr)
        return _EXIT_ERROR


def run() -> None:
    """Console entry point: exit with the status of :func:`main`.

    ``gc.freeze()`` first moves every object into the permanent generation,
    which the collections the interpreter runs at shutdown skip; that saves
    about 8 ms of a 70 to 100 ms classify call on 2 vCPUs (about 20 ms while
    the call still loaded numpy).  ``main`` itself never freezes,
    because tests and benchmarks call it in-process."""
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":  # pragma: no cover
    run()

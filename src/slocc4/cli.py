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

from .errors import Slocc4Error, ZeroState
from .kernels import vanishes, windowed
from .pencil import analyze_span, clause_quadratics, quartic
from .qstate import (
    DEFAULT_EPS,
    PureState,
    apply_slocc,
    check_eps,
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
    """argparse type of --eps: a number that ``qstate.check_eps`` accepts."""
    try:
        return check_eps(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    except Slocc4Error:
        raise argparse.ArgumentTypeError(f"must be a finite number in (0, 1), got {text!r}") from None


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
    of two when its largest magnitude lies outside the scale window; in
    float mode the determinant is zero against eps top^2 by ``vanishes``."""
    a, top = windowed(state.values)
    if top == 0.0:
        raise ZeroState("cannot classify the zero state")
    det = a[0] * a[3] - a[1] * a[2]
    if exact:
        from . import exact as _exact

        e = _exact.lift(a)
        entangled = not (e[0] * e[3] - e[1] * e[2]).is_zero
    else:
        entangled = not vanishes(abs(det), eps * top * top, "2-qubit determinant")
    return ("Psi" if entangled else "00"), det


def _cmd_classify(args) -> int:
    """``classify`` and ``explain``: one JSON verdict, with the explanation
    when ``args.explain`` is set; 4-qubit Degenerate verdicts get none."""
    state = load_state(sys.stdin if args.state == "-" else args.state)
    eps = args.eps
    if state.n == 1:
        raise Slocc4Error("classification needs 2, 3 or 4 qubits")

    if state.n == 2:
        cls, det = _classify2(state, eps, args.exact)
        out = {"n": 2, "class": cls}
        genuine = cls == "Psi"
        if args.explain:
            out["determinant"] = _pair(det)
    elif state.n == 3:
        cls = classify3(state, eps, exact=args.exact)
        out = {"n": 3, "class": str(cls)}
        genuine = cls in (TriClass.GHZ, TriClass.W)
        if args.explain:
            report = w_clauses(state.values, eps, exact=args.exact)
            out["ghz_value"] = _pair(report.ghz_value)
            out["clause_truth"] = list(report.clause_truth)
            out["quantities"] = [_pair(q) for q in report.quantities]
    else:
        all_qubits = args.distinguished == "all"
        if all_qubits:
            verdicts, label = classify4_all(state, eps, exact=args.exact)
            out = {"n": 4, "canonical_label": label,
                   "verdicts": [v.to_json() for v in verdicts]}
        else:
            verdicts = [classify4(state, int(args.distinguished), eps, exact=args.exact)]
            out = {"n": 4, **verdicts[0].to_json()}
        genuine = not verdicts[0].is_degenerate
        if args.explain and genuine:
            blocks = [_explain_block(state, v) for v in verdicts]
            out["explain"] = blocks if all_qubits else blocks[0]
    _emit(out)
    return _EXIT_OK if genuine else _EXIT_DEGENERATE


def _explain_block(state: PureState, verdict) -> dict:
    """The forms of the verdict's residual pencil, written in the basis of
    phi0 and phi1, and the verdict's own quartic decision."""
    d = decompose(state, verdict.distinguished)
    pairs = clause_quadratics(d.phi0, d.phi1)
    return {
        "distinguished": verdict.distinguished,
        "quartic": [_pair(c) for c in quartic(d.phi0, d.phi1).c],
        "quartic_identically_zero": verdict.profile.quartic_identically_zero,
        "clause_quadratics": [[[_pair(c) for c in f.c] for f in pair] for pair in pairs],
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


#: Names ``generate --family`` accepts: the keys of ``canonical.FAMILY_PENCILS``
#: (the ten superclass tags), then those of ``canonical.TRI_STATES``.  Written
#: out here so that only ``generate`` and ``fuzz-empty`` load ``canonical``.
_FAMILIES = sorted(tag.value for tag in QuadTag if tag is not QuadTag.DEGENERATE) + [
    "Bisep1", "Bisep2", "Bisep3", "GHZ", "Sep000", "W"]


def _cmd_generate(args) -> int:
    from .canonical import FamilySpec, make_canonical

    spec = FamilySpec(
        family=args.family,
        params=_parse_params(args.param),
        sign=+1 if args.sign == "plus" else -1,
    )
    state = make_canonical(spec)
    _emit(state_to_json(state))
    return _EXIT_OK


def run_fuzz_empty(
    trials: int,
    seed=None,
    eps: float = DEFAULT_EPS,
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
    if seed is not None and seed < 0:
        raise Slocc4Error("--seed must be nonnegative")
    import numpy as np

    from .canonical import random_slocc

    rng = np.random.default_rng(seed)
    ghz = PureState([1, 0, 0, 0, 0, 0, 0, 1])
    all_ghz = 0
    tally = {}
    y4 = []
    y4_exact_ones = 0
    for _ in range(trials):
        phi0 = apply_slocc(ghz, random_slocc(3, seed=rng))
        phi1 = ghz if pin_ghz else apply_slocc(ghz, random_slocc(3, seed=rng))
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

    p_classify = sub.add_parser("classify", help="classify a 2-, 3- or 4-qubit state")
    p_explain = sub.add_parser("explain", help="classify and dump the span profile")
    for p in (p_classify, p_explain):
        p.add_argument("state", nargs="?", default="-",
                       help="state JSON file, or - for stdin (default)")
        p.add_argument("--eps", type=_eps, default=DEFAULT_EPS,
                       help="relative tolerance in (0, 1) (default 1e-9)")
        p.add_argument("--exact", action="store_true",
                       help="perform all zero tests in exact rational arithmetic")
        p.add_argument("--distinguished", choices=["1", "2", "3", "4", "all"],
                       default="1", help="distinguished qubit for n=4 (default 1)")
    p_classify.add_argument("--explain", action="store_true",
                            help="include the span-profile explanation blocks")
    p_explain.set_defaults(explain=True)

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
        if args.command in ("classify", "explain"):
            return _cmd_classify(args)
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

"""Command-line surface: experiment orchestration and machine reports.

Subcommands: field, factor, curve, pencil, count, bound, search, conrad.
Reports are JSON (sorted keys) with the inputs echoed, the seed, and a
timing field that is explicitly excluded from determinism guarantees.
Exit codes: 0 success/PASS, 1 property violated or search exhausted,
2 input or hypothesis error.  count exits 0 on the bound verdicts
THRESHOLD_NOT_MET and VACUOUS (bound <= 0: no count is tested), 1 on FAIL.
count, factor, curve and conrad take one --poly; a second one exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from itertools import combinations

from .bivar import curve_invariants
from .counting import (_proportional, application_bound,
                       count_irreducible_pairs, find_specialization,
                       geyer_jarden_rhs, verify_application)
from .errors import (ConstraintViolation, FqPencilError, HypothesisViolation,
                     NotFoundWithinBudget, ParseError)
from .field import GridArith, field_of_order, make_field, prime_power
from .parsing import parse_poly, parse_univariate
from .pencil import _generic_points, pattern_histogram, pencil_discriminant
from .reducible import conrad_polynomial, verify_conrad
from .unipoly import factor


def _add_field_args(sp):
    sp.add_argument("--q", type=int, help="field size (prime power)")
    sp.add_argument("--p", type=int, help="characteristic")
    sp.add_argument("--k", type=int, default=1, help="extension degree")
    sp.add_argument("--modulus",
                    help="comma-separated modulus override, low to high")


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=0)
    # accepted and checked for scripts that pass it; every command runs on
    # one thread
    sp.add_argument("--threads", type=int, default=1)


def _resolve_field(args):
    modulus = None
    if getattr(args, "modulus", None):
        try:
            modulus = tuple(int(v) for v in args.modulus.split(","))
        except ValueError:
            raise ConstraintViolation(
                f"--modulus must be comma-separated integers, "
                f"got {args.modulus!r}") from None
    if args.q is not None:
        return make_field(*prime_power(args.q), modulus)
    if args.p is None:
        raise FqPencilError("specify --q or --p/--k")
    return make_field(args.p, args.k, modulus)


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every run_command shares it."""
    ap = argparse.ArgumentParser(
        prog="fqpencil",
        description="Finite-field curve pencils, irreducible-specialization "
                    "counting and bound verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("field", help="describe a finite field")
    _add_field_args(sp)
    _add_common(sp)

    sp = sub.add_parser("factor", help="factor a univariate polynomial")
    _add_field_args(sp)
    _add_common(sp)
    sp.add_argument("--poly", action="append", required=True)

    sp = sub.add_parser("curve", help="curve hypothesis report")
    _add_field_args(sp)
    _add_common(sp)
    sp.add_argument("--poly", action="append", required=True)

    sp = sub.add_parser("pencil", help="pencil discriminant and histogram")
    _add_field_args(sp)
    _add_common(sp)
    sp.add_argument("--poly", action="append", required=True)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--M", help="base point 't0,x0' (element indices); "
                               "found automatically when omitted")
    sp.add_argument("--trial-budget", type=int, default=None)

    sp = sub.add_parser("count", help="exhaustive (a,b) irreducibility count")
    _add_field_args(sp)
    _add_common(sp)
    sp.add_argument("--poly", action="append", required=True)
    sp.add_argument("--mode", choices=["full-degree", "inclusive"],
                    default="inclusive")

    sp = sub.add_parser("bound", help="application bound and GJ bound")
    _add_common(sp)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--s", type=int)
    sp.add_argument("--N", type=int)
    sp.add_argument("--g", type=int)

    sp = sub.add_parser("search", help="simultaneous specialization search")
    _add_field_args(sp)
    _add_common(sp)
    sp.add_argument("--poly", action="append", required=True)
    sp.add_argument("--smax", type=int, default=3)
    sp.add_argument("--mode", choices=["full-degree", "inclusive"],
                    default="full-degree")

    sp = sub.add_parser("conrad", help="exhaustive counterexample verifier")
    _add_common(sp)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--b", type=int, default=None)
    sp.add_argument("--D", type=int, default=4)
    sp.add_argument("--poly", action="append",
                    help="negative-control polynomial override")
    return ap


def run_command(argv):
    """Execute argv; returns (exit_code, report_text)."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return (2 if exc.code not in (0, None) else 0), ""
    started = time.perf_counter()
    report = {"command": args.command, "seed": args.seed}
    code = 0
    try:
        if args.threads < 1:
            raise ConstraintViolation(
                f"--threads must be at least 1, got {args.threads}")
        code = _dispatch(args, report)
    except ParseError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc),
                           "position": exc.position}
        code = 2
    except FqPencilError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = 1 if isinstance(exc, NotFoundWithinBudget) else 2
    report["timing_seconds"] = time.perf_counter() - started
    if getattr(args, "format", None) == "csv" and "histogram" in report:
        lines = ["pattern,count"]
        for key, cnt in sorted(report["histogram"]["counts"].items()):
            lines.append(f"{key},{cnt}")
        lines.append(f"ramified,{report['histogram']['ramified']}")
        lines.append(f"total,{report['histogram']['total']}")
        return code, "\n".join(lines) + "\n"
    return code, json.dumps(report, sort_keys=True, indent=2) + "\n"


def _dispatch(args, report) -> int:
    cmd = args.command
    if cmd in ("count", "factor", "curve", "conrad") and args.poly:
        if len(args.poly) > 1:
            raise ConstraintViolation(
                f"{cmd} takes one --poly, got {len(args.poly)}")
        args.poly = args.poly[0]
    if cmd == "bound":
        if args.s is not None and args.s < 1:
            raise ConstraintViolation(f"--s must be at least 1, got {args.s}")
        br = application_bound(args.q, args.d)
        if args.s is not None and args.N is not None and args.g is not None:
            report["gj_rhs"] = geyer_jarden_rhs(args.q, args.s,
                                                args.N, args.g)
        report.update(br.as_dict())
        return 0

    if cmd == "conrad":
        if args.poly is not None:
            E = field_of_order(args.q)
            target = parse_poly(args.poly, E)
            report["inputs"] = {"q": args.q, "poly": args.poly, "D": args.D}
        else:
            inst = conrad_polynomial(args.q, args.b)
            target = inst
            report["inputs"] = inst.as_dict() | {"D": args.D}
        result = verify_conrad(target, args.D)
        report["result"] = result
        return 0 if result["all_reducible"] else 1

    E = _resolve_field(args)
    report["field"] = {"p": E.p, "k": E.k, "q": E.q,
                       "modulus": list(E.modulus)}

    if cmd == "field":
        report["modulus_str"] = E.modulus_str()
        return 0

    if cmd == "factor":
        poly, var = parse_univariate(args.poly, E)
        unit, facs = factor(poly, seed=args.seed)
        report["inputs"] = {"poly": args.poly}
        report["unit"] = E.to_vector(unit)
        report["factors"] = [[g.format(var), m] for g, m in facs]
        return 0

    if cmd == "curve":
        f = parse_poly(args.poly, E)
        rep = curve_invariants(f)
        report["inputs"] = {"poly": args.poly}
        report["curve"] = rep.as_dict()
        return 0

    if cmd == "pencil":
        fs = [parse_poly(p, E) for p in args.poly]
        # the fiber classifier's arithmetic: it refuses k > 1 past the log
        # tables, so refuse before the base-point search
        GridArith(E)
        report["inputs"] = {"poly": args.poly, "M": args.M}
        if args.M:
            try:
                idx = [int(v) for v in args.M.split(",")]
            except ValueError:
                idx = []
            if len(idx) != 2 or not all(0 <= i < E.q for i in idx):
                raise ConstraintViolation(
                    f"--M must be two element indices 't0,x0' in "
                    f"0..{E.q - 1}, got {args.M!r}")
            pds = [pencil_discriminant(f, tuple(idx), E) for f in fs]
        else:
            # proportional curves share every branch locus: no point is found
            if any(_proportional(f, g) for f, g in combinations(fs, 2)):
                raise HypothesisViolation(
                    "curves must be pairwise non-proportional")
            # the descriptors the base-point search built for its point
            _, pds = next(_generic_points(fs, E, args.trial_budget,
                                          args.seed))
        hist = pattern_histogram(pds)
        report["pencils"] = [pd.as_dict() for pd in pds]
        report["histogram"] = hist.as_dict()
        return 0

    if cmd == "count":
        f = parse_poly(args.poly, E)
        mode = "full" if args.mode == "full-degree" else "inclusive"
        cr = count_irreducible_pairs(f, E, mode=mode)
        va = verify_application(f, E, counts=cr)
        report["inputs"] = {"poly": args.poly, "mode": args.mode}
        report.update(cr.as_dict())
        for key in ("app_bound", "app_threshold_ok", "verdict", "note",
                    "smooth", "irreducible", "reason"):
            if key in va:
                report[key] = va[key]
        return 1 if va.get("verdict") == "FAIL" else 0

    if cmd == "search":
        fs = [parse_poly(p, E) for p in args.poly]
        mode = "full" if args.mode == "full-degree" else "inclusive"
        res = find_specialization(fs, E, args.smax, mode=mode)
        report["inputs"] = {"poly": args.poly, "smax": args.smax,
                            "mode": args.mode}
        report.update(res.as_dict())
        return 0

    raise FqPencilError(f"unknown command {cmd}")  # pragma: no cover


def main(argv=None):
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

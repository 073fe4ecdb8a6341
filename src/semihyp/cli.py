"""Command-line front end.

Subcommands: `check` runs the structural axioms on a structure file, `lim`
searches for a left invariant mean (direct LP route, dual-action route, or
both with cross-validation), `fixpoint` verifies an affine action file and
solves for a common fixed point exactly or by the heuristic iterator, and
`construct` builds structure files from groups, parameters, subgroups, or
group actions.

Exit codes: 0 success/pass, 1 verified negative (axiom failure, no mean, no
fixed point, constraint violation), 2 parse/usage/IO error, 3 oracle
disagreement in `lim --method both` (a bug signal, never expected).
Reports go to stdout, errors to stderr; output is deterministic except for
the timing field.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import Mean, PreconditionError, Semihypergroup, UnknownLabel
from .actions import (
    check_nonexpansive,
    common_fixed_point_solution,
    equicontinuity_bound,
    iterate_fixed_point,
    mean_via_dual_action,
    uniform_seminorms,
)
from .amenability import left_invariant_mean_solution, verify_left_invariant_mean
from .construct import (
    ConstraintViolation,
    coset_space,
    double_coset_space,
    from_semigroup,
    orbit_space,
    triple_hypergroup,
)
from .files import (
    FileFormatError,
    ReportDocument,
    canonical_structure_json,
    format_rational,
    parse_affine_action,
    parse_group,
    parse_group_action,
    parse_rational,
    parse_structure,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_DISAGREE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semihyp",
        description="Exact toolkit for finite semihypergroups: axioms, "
        "invariant means, and fixed points of affine actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run structural axiom checks")
    p_check.add_argument("structure", help="structure JSON file")
    p_check.add_argument("--json", action="store_true", help="emit JSON report")

    p_lim = sub.add_parser("lim", help="search for a left invariant mean")
    p_lim.add_argument("structure", help="structure JSON file")
    p_lim.add_argument(
        "--method",
        choices=("direct", "dual", "both"),
        default="direct",
        help="direct LP, dual-action route, or both with cross-validation",
    )
    p_lim.add_argument("--json", action="store_true", help="emit JSON report")

    p_fix = sub.add_parser("fixpoint", help="solve for a common fixed point")
    p_fix.add_argument("structure", help="structure JSON file")
    p_fix.add_argument("action", help="affine action JSON file")
    mode = p_fix.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="exact LP solve (default)")
    mode.add_argument(
        "--iterate",
        nargs=2,
        metavar=("TOL", "MAX_ITER"),
        help="averaged floating-point iteration",
    )
    p_fix.add_argument("--json", action="store_true", help="emit JSON report")

    p_con = sub.add_parser("construct", help="build and write a structure file")
    con_sub = p_con.add_subparsers(dest="kind", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", required=True, help="output structure file")
        p.add_argument("--name", default=None, help="structure name")
        p.add_argument("--json", action="store_true", help="emit JSON report")

    p_semi = con_sub.add_parser("semigroup", help="point-mass products from a table")
    p_semi.add_argument("--group", required=True, help="Cayley table JSON file")
    common(p_semi)

    p_triple = con_sub.add_parser("triple", help="parametrized 3-point structure")
    p_triple.add_argument(
        "params",
        nargs=8,
        metavar="PARAM",
        help="x1 x2 x3 y1 y2 y3 z1 z2 as rationals",
    )
    common(p_triple)

    for kind, help_text in (("coset", "left coset space G/H"),
                            ("doublecoset", "double coset space G//H")):
        p_quot = con_sub.add_parser(kind, help=help_text)
        p_quot.add_argument("--group", required=True, help="Cayley table JSON file")
        p_quot.add_argument("--subgroup", required=True, help="comma-separated subgroup labels")
        common(p_quot)

    p_orbit = con_sub.add_parser("orbit", help="orbit space of a group action")
    p_orbit.add_argument("--action", required=True, help="group action JSON file")
    common(p_orbit)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()  # parse_args leaves it unchanged: one per process


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from None


def _report_check(shg: Semihypergroup) -> tuple[dict, bool]:
    """The `check` payload of shg, read from its cached probability and
    associativity reports, and whether both pass."""
    prob, assoc = shg.probability_report, shg.associativity_report
    identity = shg.identity
    payload = {
        "structure": shg.name,
        "points": list(shg.space.labels),
        "checks": {
            "probability": _check_doc(prob),
            "associativity": _check_doc(assoc),
        },
        "identity": shg.space.label(identity) if identity is not None else None,
        "commutative": shg.is_commutative,
    }
    ok = prob.passed and assoc.passed
    payload["verdict"] = "pass" if ok else "fail"
    return payload, ok


def _check_doc(report) -> dict:
    doc = {"passed": report.passed}
    if report.detail:
        doc["detail"] = report.detail
    if report.witness is not None:
        doc["witness"] = {
            k: _vector_text(v) if isinstance(v, (tuple, list)) else v
            for k, v in report.witness.items()
        }
    return doc


def _vector_text(values) -> str:
    return ", ".join(format_rational(v) if isinstance(v, Fraction) else str(v) for v in values)


def cmd_check(args: argparse.Namespace) -> tuple[dict, int]:
    shg = parse_structure(_read(args.structure))
    payload, ok = _report_check(shg)
    payload = {"command": "check", **payload}
    return payload, EXIT_PASS if ok else EXIT_FAIL


def _mean_doc(shg: Semihypergroup, mean: Optional[Mean]) -> dict:
    """One route's report: whether it found a mean, the mean, and whether
    `verify_left_invariant_mean` accepts it."""
    if mean is None:
        return {"exists": False}
    return {"exists": True, "mean": _vector_text(mean.weights),
            "verified": verify_left_invariant_mean(mean, shg).passed}


def cmd_lim(args: argparse.Namespace) -> tuple[dict, int]:
    shg = parse_structure(_read(args.structure))
    if not (shg.probability_report.passed and shg.associativity_report.passed):
        raise FileFormatError(
            f"structure {shg.name} fails its axioms; run 'semihyp check' first"
        )
    payload: dict = {
        "command": "lim",
        "structure": shg.name,
        "points": list(shg.space.labels),
        "method": args.method,
    }

    docs: dict[str, dict] = {}
    if args.method != "dual":
        solution = left_invariant_mean_solution(shg)
        docs["direct"] = _mean_doc(shg, Mean(shg.space, solution.witness)
                                   if solution.feasible else None)
        if not solution.feasible:
            docs["direct"]["certificate"] = _vector_text(solution.certificate)
    if args.method != "direct":
        docs["dual"] = _mean_doc(shg, mean_via_dual_action(shg))
    payload.update(docs)

    exists = any(doc["exists"] for doc in docs.values())
    if args.method == "both":
        # found means agree only when each passes the independent check
        agree = all(doc["exists"] == exists and doc.get("verified", True)
                    for doc in docs.values())
        payload["oracles_agree"] = agree
        if not agree:
            payload["verdict"] = "disagree"
            return payload, EXIT_DISAGREE
    payload["exists"] = exists
    payload["verdict"] = "mean found" if exists else "no mean exists"
    return payload, EXIT_PASS if exists else EXIT_FAIL


def cmd_fixpoint(args: argparse.Namespace) -> tuple[dict, int]:
    if args.iterate:
        try:
            tol, max_iter = float(args.iterate[0]), int(args.iterate[1])
        except ValueError:
            raise FileFormatError("--iterate needs a float tolerance and an int limit")
        if not (math.isfinite(tol) and tol > 0) or max_iter < 1:
            raise FileFormatError("--iterate needs a finite tolerance > 0 and a limit >= 1")
    shg = parse_structure(_read(args.structure))
    action = parse_affine_action(_read(args.action), shg)
    payload: dict = {
        "command": "fixpoint",
        "structure": shg.name,
        "points": list(shg.space.labels),
        "mode": "iterate" if args.iterate else "exact",
    }
    if not (shg.probability_report.passed and shg.associativity_report.passed):
        payload["verdict"] = "not an action (structure fails its axioms)"
        return payload, EXIT_FAIL

    axiom = action.axiom_report
    invariance = action.invariance_report
    seminorms = uniform_seminorms(len(action.maps[0].offset))
    bound = equicontinuity_bound(action, seminorms)
    payload["checks"] = {
        "action_axiom": _check_doc(axiom),
        "invariance": _check_doc(invariance),
        "nonexpansive_l1": _check_doc(check_nonexpansive(action, seminorms[:1])),
        "nonexpansive_linf": _check_doc(check_nonexpansive(action, seminorms[1:])),
    }
    payload["equicontinuity_bound"] = format_rational(bound) if bound is not None else "unbounded"
    if not axiom.passed or not invariance.passed:
        payload["verdict"] = "not an action"
        return payload, EXIT_FAIL

    if args.iterate:
        result = iterate_fixed_point(
            action.maps, action.carrier, tol=tol, max_iter=max_iter
        )
        payload["converged"] = result.converged
        payload["iterations"] = result.iterations
        payload["residual"] = repr(result.residual)
        payload["point"] = ", ".join(repr(v) for v in result.point)
        payload["verdict"] = (
            "fixed point approximated" if result.converged else "did not converge"
        )
        return payload, EXIT_PASS if result.converged else EXIT_FAIL

    solution, point = common_fixed_point_solution(action)
    if point is not None:
        payload["fixed_point"] = _vector_text(point)
        payload["verdict"] = "fixed point found"
        return payload, EXIT_PASS
    payload["certificate"] = _vector_text(solution.certificate)
    payload["verdict"] = "no common fixed point"
    return payload, EXIT_FAIL


def cmd_construct(args: argparse.Namespace) -> tuple[dict, int]:
    payload: dict = {"command": "construct", "kind": args.kind, "out": args.out}
    try:
        if args.kind == "semigroup":
            table = parse_group(_read(args.group))
            shg = from_semigroup(table, name=args.name)
        elif args.kind == "triple":
            params = [parse_rational(p) for p in args.params]
            shg = triple_hypergroup(*params, name=args.name)
        elif args.kind in ("coset", "doublecoset"):
            table = parse_group(_read(args.group))
            members = [s for s in args.subgroup.split(",") if s]
            quotient = coset_space if args.kind == "coset" else double_coset_space
            shg = quotient(table, members, name=args.name)
        else:
            group_action = parse_group_action(_read(args.action))
            shg = orbit_space(group_action, name=args.name)
    except ConstraintViolation as exc:
        if exc.violations:
            payload["violations"] = list(exc.violations)
        if exc.report is not None and not exc.report.passed:
            payload[exc.report.check] = _check_doc(exc.report)
        payload["verdict"] = "rejected" if exc.violations else "rejected (not associative)"
        return payload, EXIT_FAIL

    text = canonical_structure_json(shg)
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise FileFormatError(f"cannot write {args.out}: {exc}") from None
    # the factory's verdict, read from the reports it cached; the file lists
    # its points sorted
    check_payload, _ = _report_check(shg)
    check_payload["points"] = sorted(shg.space.labels)
    payload.update(check_payload)
    return payload, EXIT_PASS


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return EXIT_ERROR if code not in (0, None) else EXIT_PASS

    handlers = {
        "check": cmd_check,
        "lim": cmd_lim,
        "fixpoint": cmd_fixpoint,
        "construct": cmd_construct,
    }
    started = time.perf_counter()
    try:
        payload, code = handlers[args.command](args)
    except (FileFormatError, UnknownLabel, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    payload["timing"] = {
        "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3)
    }
    document = ReportDocument(payload)
    sys.stdout.write(document.to_json() if args.json else document.to_text())
    return code


if __name__ == "__main__":
    sys.exit(main())

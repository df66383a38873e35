"""Command-line surface: JSON in, JSON out, deterministic bytes.

Exit codes: 0 success, 2 validation error, 3 enumeration budget exceeded,
4 missing table keys.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

from . import __version__
from .checks import SUITES, run_suite
from .correlator import evaluate_degeneration, needed_keys
from .errors import (
    DegenkitError,
    EnumerationBudgetError,
    MissingKeysError,
)
from .oracle import (
    HurwitzInstance,
    RamificationProfile,
    build_p1_table,
    degeneration_check,
    hurwitz_count,
)
from .splitting import enumerate_splittings, orbits
from .twisting import MINIMAL_TWIST, degeneration_ledger, lift_analysis
from . import jsonio


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DegenkitError("no such file: %s" % path)
    except json.JSONDecodeError as err:
        raise DegenkitError("malformed JSON in %s: %s" % (path, err))
    except RecursionError:
        raise DegenkitError("malformed JSON in %s: nested too deeply" % path) from None


def _twisting_arg(spec: str | None):
    if spec is None or spec == "lcm":
        return MINIMAL_TWIST
    if spec.endswith(".json") or os.path.sep in spec:
        return jsonio.twisting_from_obj(_read_json(spec))
    return jsonio.twisting_from_obj(spec)


def _emit(obj) -> None:
    sys.stdout.write(jsonio.dumps(obj))


def _manifest(args, inputs: list[str], rule_text: str, started: float) -> None:
    if not getattr(args, "manifest", None):
        return
    digests = {}
    for path in inputs:
        with open(path, "rb") as fh:
            digests[path] = hashlib.sha256(fh.read()).hexdigest()
    payload = {
        "command": " ".join(["degenkit", *args.argv]),
        "inputs": digests,
        "engine_version": __version__,
        "twisting": rule_text,
        "timing_seconds": round(time.monotonic() - started, 6),
    }
    with open(args.manifest, "w", encoding="utf-8") as fh:
        fh.write(jsonio.dumps(payload))


def cmd_splittings(args) -> int:
    started = time.monotonic()
    problem = jsonio.problem_from_dict(_read_json(args.problem))
    if args.budget is not None:
        problem = dataclasses.replace(problem, budget=args.budget)
    omega = enumerate_splittings(problem)
    orbit_list = orbits(omega) if args.orbits else None
    _emit(jsonio.splittings_to_obj(omega, orbit_list))
    _manifest(args, [args.problem], "n/a", started)
    return 0


def cmd_keys(args) -> int:
    started = time.monotonic()
    problem = jsonio.problem_from_dict(_read_json(args.problem))
    insertions = jsonio.insertions_from_list(problem, _read_json(args.insertions))
    keys = needed_keys(problem, insertions)
    _emit(jsonio.keys_to_obj(keys))
    _manifest(args, [args.problem, args.insertions], "n/a", started)
    return 0


def cmd_evaluate(args) -> int:
    started = time.monotonic()
    problem = jsonio.problem_from_dict(_read_json(args.problem))
    insertions = jsonio.insertions_from_list(problem, _read_json(args.insertions))
    table = jsonio.table_from_obj(_read_json(args.table))
    rule = _twisting_arg(args.twisting)
    result = evaluate_degeneration(
        problem,
        insertions,
        table,
        rule=rule,
        convention=args.convention,
        with_terms=args.terms,
    )
    _emit(jsonio.result_to_obj(result))
    _manifest(
        args, [args.problem, args.insertions, args.table], rule.describe(), started
    )
    return 0


def cmd_lift(args) -> int:
    report = lift_analysis(args.contact, args.target_index, args.source_index)
    _emit(report.as_dict())
    return 0


def cmd_ledger(args) -> int:
    contacts = jsonio.parse_ints(args.contacts, "contact order")
    rule = _twisting_arg(args.twisting)
    _emit(degeneration_ledger(contacts, rule).as_dict())
    return 0


def cmd_oracle(args) -> int:
    if args.oracle_command == "table":
        table = build_p1_table(args.d_max, args.g_max, max_legs=args.max_legs)
        _emit(jsonio.table_to_obj(table))
        return 0
    if args.oracle_command == "check":
        report = degeneration_check(args.degree, args.genus)
        _emit(report.as_dict())
        return 0 if report.equal else 1
    profiles = []
    if args.profiles:
        for block in args.profiles.split("|"):
            parts = jsonio.parse_ints(block, "profile part")
            profiles.append(RamificationProfile(parts))
    instance = HurwitzInstance(args.degree, args.genus, tuple(profiles))
    _emit(
        {
            "degree": instance.degree,
            "genus": instance.genus,
            "profiles": [list(p.parts) for p in instance.profiles],
            "simple_branch_count": instance.simple_branch_count,
            "count": jsonio.fraction_to_str(hurwitz_count(instance)),
        }
    )
    return 0


def cmd_check(args) -> int:
    try:
        results = run_suite(args.suite)
    except KeyError:
        raise DegenkitError(
            "unknown suite %r; choose from %s" % (args.suite, list(SUITES) + ["all"])
        )
    failed = [name for name, ok, _ in results if not ok]
    for name, ok, detail in results:
        line = "%s %s" % ("PASS" if ok else "FAIL", name)
        if detail and not ok:
            line += " (%s)" % detail
        print(line)
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenkit",
        description="Exact-rational splitting enumeration and degeneration-formula evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("splittings", help="enumerate the splitting set of a problem")
    p.add_argument("problem")
    p.add_argument("--orbits", action="store_true", help="include orbit annotations")
    p.add_argument("--budget", type=int, default=None, help="node budget override")
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_splittings)

    p = sub.add_parser("keys", help="list every table key the evaluator needs")
    p.add_argument("problem")
    p.add_argument("insertions")
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_keys)

    p = sub.add_parser("evaluate", help="evaluate the degeneration sum against a table")
    p.add_argument("problem")
    p.add_argument("insertions")
    p.add_argument("table")
    p.add_argument(
        "--convention",
        choices=("standard_dual", "chen_ruan"),
        default="standard_dual",
    )
    p.add_argument("--twisting", default="lcm", help="'lcm', 'K*lcm', or a JSON file")
    p.add_argument("--terms", action="store_true", help="include the term breakdown")
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("lift", help="lift criteria for one boundary point")
    p.add_argument("--contact", type=int, required=True)
    p.add_argument("--target-index", type=int, required=True)
    p.add_argument("--source-index", type=int, required=True)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("ledger", help="degree-factor ledger for a contact multiset")
    p.add_argument("--contacts", required=True, help="comma-separated contact orders")
    p.add_argument("--twisting", default="lcm")
    p.set_defaults(func=cmd_ledger)

    p = sub.add_parser("oracle", help="branched-cover counts, line tables and the end-to-end check")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    ot = osub.add_parser("table", help="emit the relative-invariant table")
    ot.add_argument("--d-max", type=int, required=True)
    ot.add_argument("--g-max", type=int, required=True)
    ot.add_argument("--max-legs", type=int, default=None)
    oc = osub.add_parser("check", help="end-to-end degeneration check")
    oc.add_argument("--degree", type=int, required=True)
    oc.add_argument("--genus", type=int, required=True)
    on = osub.add_parser("count", help="weighted branched-cover count")
    on.add_argument("--degree", type=int, required=True)
    on.add_argument("--genus", type=int, required=True)
    on.add_argument("--profiles", default="", help="e.g. '3|2,1' for two profiles")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("check", help="run a built-in property suite")
    p.add_argument("suite", help="one of %s or 'all'" % (list(SUITES),))
    p.set_defaults(func=cmd_check)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on the first call and reused: parsing
    leaves it unchanged, and building it costs milliseconds per call."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    args.argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except MissingKeysError as err:
        payload = {
            "error": "missing-table-keys",
            "keys": [jsonio.key_to_dict(k) for k in err.keys],
        }
        sys.stderr.write(jsonio.dumps(payload))
        return 4
    except EnumerationBudgetError as err:
        payload = {
            "error": "enumeration-budget-exceeded",
            "visited": err.visited,
            "partial_count": len(err.partial),
        }
        sys.stderr.write(jsonio.dumps(payload))
        return 3
    except DegenkitError as err:
        print(json.dumps({"error": str(err)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

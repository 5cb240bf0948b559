"""Batch front end: every experiment is a subcommand emitting a JSON report.

Exit codes: 0 on success, 1 when a run surfaces a theorem-violation
finding (so CI fails loudly on a mathematical surprise), 2 on usage
errors, including tables that fail validation, and 3 on an internal
error (an exception the package does not raise deliberately).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import catalog as _catalog
from . import freewords as _freewords
from .cancellation import (cancellative_elements_bruteforce,
                           singleton_cancellative_elements,
                           witness_noncancellative)
from .errors import (IndexOutOfRange, NonAssociative, NotCompatible,
                     OrderUnsupported, PreconditionViolated,
                     TheoremViolation, WorkbenchError)
from .morphisms import (check_restriction_hypotheses, find_isomorphism,
                        lift_isomorphism, restrict_isomorphism)
from .numerical import NumericalMonoid
from .power import (build_power_semigroup, congruence_family,
                    downward_complete_closure, family_report, full_family,
                    mask_of)
from .semigroups import (FiniteSemigroup, congruence_from_partition,
                         describe_fingerprint_mismatch, fingerprint,
                         integer_token, read_table)

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
# Upper bound of each free-check size option; word length and set size
# scale the memory of every trial directly.
FREE_CHECK_MAX = 64
# Upper bounds of the options that set how much work a run does. A
# free-check trial takes about 0.1 ms at the default sizes, so the bound is
# about 10 s of trials. A prop1-check closure is drawn from at most two
# generators, so at order 5 there are 993 distinct draws and more
# closures per semigroup only repeat families.
TRIALS_MAX = 100_000
CLOSURES_MAX = 1000


class UsageError(WorkbenchError):
    """A text option that the CLI's own checks reject."""


def _load_semigroup(path):
    try:
        rows = read_table(path)
    except OSError as exc:
        raise UsageError(f"cannot read table file {path}: {exc}")
    except ValueError as exc:
        raise UsageError(f"malformed table file {path}: {exc}")
    return FiniteSemigroup(rows)


def _parse_elements(text):
    """The integers of a comma-separated list; a blank text is the empty
    list, and any other token in a non-empty one is an error."""
    if text.strip() == "":
        return []
    values = [integer_token(tok) for tok in text.split(",")]
    if None in values:
        raise UsageError(f"expected comma-separated integers, got {text!r}")
    return values


def _parse_mask(semigroup, text):
    elems = _parse_elements(text)
    if not elems:
        raise UsageError("element set must be non-empty")
    if any(not 0 <= x < semigroup.order for x in elems):
        raise UsageError(f"elements {elems} outside the carrier of order "
                         f"{semigroup.order}")
    return mask_of(elems)


def _select_family(semigroup, args):
    if args.congruence is not None:
        labels = _parse_elements(args.congruence)
        try:
            cong = congruence_from_partition(semigroup, labels)
        except IndexOutOfRange as exc:  # a label count that is not the order
            raise UsageError(str(exc))
        return congruence_family(cong)
    if args.generators is not None:
        masks = []
        for chunk in args.generators.split(";"):
            if chunk.strip() == "":
                continue
            masks.append(_parse_mask(semigroup, chunk))
        return downward_complete_closure(semigroup, masks)
    return full_family(semigroup)


def _cmd_validate(args):
    sgr = _load_semigroup(args.table)
    return {
        "order": sgr.order,
        "commutative": sgr.commutative,
        "identity": sgr.identity,
        "idempotents": sgr.idempotents(),
        "cancellative_elements": sgr.cancellative_elements(),
    }, EXIT_OK


def _cmd_power(args):
    sgr = _load_semigroup(args.table)
    power = build_power_semigroup(sgr)
    return {
        "carrier_order": sgr.order,
        "order": power.order,
        "commutative": power.commutative,
        "identity": power.identity,
        "table": power.rows,
    }, EXIT_OK


def _cmd_family(args):
    sgr = _load_semigroup(args.table)
    family = _select_family(sgr, args)
    return family_report(family), EXIT_OK


def _cmd_cancellatives(args):
    sgr = _load_semigroup(args.table)
    family = _select_family(sgr, args)
    brute = sorted(m.mask for m in cancellative_elements_bruteforce(family))
    report = {
        "family": family_report(family),
        "bruteforce": brute,
        "singleton_rule": None,
        "agree": None,
    }
    try:
        rule = sorted(m.mask for m in singleton_cancellative_elements(family))
    except PreconditionViolated:
        return report, EXIT_OK
    report["singleton_rule"] = rule
    report["agree"] = rule == brute
    return report, EXIT_OK if report["agree"] else EXIT_FINDING


def _cmd_witness(args):
    sgr = _load_semigroup(args.table)
    family = _select_family(sgr, args)
    mask = _parse_mask(sgr, args.set)
    witness = witness_noncancellative(mask, family)
    return witness.report(), EXIT_OK


def _verdict(source, target):
    found = find_isomorphism(source, target)
    mismatch = describe_fingerprint_mismatch(fingerprint(source),
                                             fingerprint(target))
    return found, {
        "isomorphic": found is not None,
        "map": None if found is None else list(found.mapping),
        "fingerprint_mismatch": mismatch,
    }


def _cmd_iso(args):
    left = _load_semigroup(args.table)
    right = _load_semigroup(args.other)
    _, report = _verdict(left, right)
    return report, EXIT_OK


def _cmd_lift(args):
    left = _load_semigroup(args.table)
    right = _load_semigroup(args.other)
    found, report = _verdict(left, right)
    report["power_map"] = None
    if found is not None:
        lifted = lift_isomorphism(found)
        report["power_map"] = list(lifted.mapping)
    return report, EXIT_OK


def _cmd_restrict(args):
    left = _load_semigroup(args.table)
    right = _load_semigroup(args.other)
    check_restriction_hypotheses(left, right)
    left_family, right_family = full_family(left), full_family(right)
    found = find_isomorphism(left_family.as_semigroup(),
                             right_family.as_semigroup())
    report = {
        "power_isomorphic": found is not None,
        "power_map": None if found is None else list(found.mapping),
        "restricted_map": None,
        "theorem_violation": None,
    }
    if found is None:
        return report, EXIT_OK
    try:
        small = restrict_isomorphism(found, left_family, right_family)
    except TheoremViolation as exc:
        report["theorem_violation"] = str(exc)
        return report, EXIT_FINDING
    report["restricted_map"] = list(small.mapping)
    return report, EXIT_OK


def _cmd_enumerate(args):
    entries = _catalog.enumerate_semigroups(args.order)
    tables = (_catalog.associative_tables(args.order) if args.labeled
              else [entry.semigroup.rows for entry in entries])
    return {
        "order": args.order,
        "up_to_isomorphism": not args.labeled,
        "classes": len(tables),
        "tables": tables,
    }, EXIT_OK


def _cmd_probe(args):
    report = _catalog.global_iso_probe(args.order)
    code = EXIT_FINDING if report["counterexamples"] else EXIT_OK
    return report, code


def _cmd_prop1_check(args):
    report = _catalog.singleton_characterization_check(
        args.order, seed=args.seed, closures_per_semigroup=args.closures)
    code = EXIT_FINDING if report["violations"] else EXIT_OK
    return report, code


def _cmd_nm(args):
    monoid = NumericalMonoid(_parse_elements(args.gens))
    report = {
        "generators": list(monoid.generators),
        "frobenius": monoid.frobenius,
        "gap_count": len(monoid.gaps),
    }
    if args.gaps:
        report["gaps"] = list(monoid.gaps)
    if args.member is not None:
        report["member"] = {"value": args.member,
                            "is_member": monoid.membership(args.member)}
    return report, EXIT_OK


def _cmd_nm_witness(args):
    monoid = NumericalMonoid(_parse_elements(args.gens))
    subset = _parse_elements(args.set)
    witness = monoid.witness_noncancellative(subset)
    report = witness.report()
    report["generators"] = list(monoid.generators)
    return report, EXIT_OK


def _cmd_free_check(args):
    report = _freewords.cancellativity_campaign(
        alphabet=args.alphabet, trials=args.trials, seed=args.seed,
        max_word_len=args.max_word_len, max_set_size=args.max_set_size)
    bad = report["violations"] or report["disjointness_failures"]
    return report, EXIT_FINDING if bad else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse that also reports a rejected argv as a JSON error report."""

    def error(self, message):
        _emit(_failure(UsageError(message))[0], None)
        super().error(message)


def _int_in(low=None, high=None):
    """argparse type: an integer in [low, high], at least low, or any."""
    def parse(text):
        value = integer_token(text)
        if value is None:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
        if low is not None and (value < low
                                or (high is not None and value > high)):
            span = f"at least {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"{value} is not {span}")
        return value
    return parse


def build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--out", help="write the JSON report here instead of stdout")
    common.add_argument("--seed", type=_int_in(), default=0,
                        help="seed for any randomized part of the run")
    common.add_argument("--jobs", type=_int_in(), default=1,
                        help="accepted for compatibility; has no effect")
    common.add_argument("--long-running", action="store_true",
                        help="opt in to order-5 workloads")

    parser = _Parser(
        prog="powersemi",
        description="Workbench for power semigroups of finite semigroups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("validate", _cmd_validate,
            "validate a Cayley table and report its basic structure")
    p.add_argument("--table", required=True, help="Cayley table file")

    p = add("power", _cmd_power, "materialize the power semigroup of a table")
    p.add_argument("--table", required=True)

    for name, func, help_text in (
            ("family", _cmd_family,
             "build a subset family and report its flags"),
            ("cancellatives", _cmd_cancellatives,
             "classify cancellative members of a family both ways"),
            ("witness", _cmd_witness,
             "construct a non-cancellativity witness for a subset")):
        p = add(name, func, help_text)
        p.add_argument("--table", required=True)
        choice = p.add_mutually_exclusive_group()
        choice.add_argument("--generators", help="semicolon-separated element "
                            "lists, e.g. '0,2;1,3'; the downward-complete "
                            "closure is used")
        choice.add_argument("--congruence", help="comma-separated block "
                            "labels, one per element")
        if name == "witness":
            p.add_argument("--set", required=True,
                           help="comma-separated elements of the subset")

    for name, func, help_text in (
            ("iso", _cmd_iso, "decide isomorphism of two tables"),
            ("lift", _cmd_lift,
             "lift a found carrier isomorphism to the power semigroups"),
            ("restrict", _cmd_restrict,
             "find a power-semigroup isomorphism and restrict it to carriers")):
        p = add(name, func, help_text)
        p.add_argument("--table", required=True, help="first Cayley table file")
        p.add_argument("--other", required=True, help="second Cayley table file")

    for name, func, help_text in (
            ("enumerate", _cmd_enumerate,
             "enumerate all semigroups of one order"),
            ("probe", _cmd_probe, "compare power semigroups of all "
             "non-isomorphic pairs of one order"),
            ("prop1-check", _cmd_prop1_check, "verify the two "
             "cancellativity classifiers agree over the catalog")):
        p = add(name, func, help_text)
        p.add_argument("--order", type=_int_in(), required=True)
        if name == "enumerate":
            p.add_argument("--labeled", action="store_true", help="emit all "
                           "labeled tables instead of one per class")
        if name == "prop1-check":
            p.add_argument("--closures", type=_int_in(0, CLOSURES_MAX),
                           default=3,
                           help="seeded random closures per semigroup")

    p = add("nm", _cmd_nm, "gap structure of a numerical monoid")
    p.add_argument("--gens", required=True,
                   help="comma-separated positive generators with gcd 1")
    p.add_argument("--gaps", action="store_true", help="include the gap list")
    p.add_argument("--member", type=_int_in(0),
                   help="also test one membership")

    p = add("nm-witness", _cmd_nm_witness,
            "non-cancellativity witness inside a numerical monoid")
    p.add_argument("--gens", required=True)
    p.add_argument("--set", required=True,
                   help="comma-separated members, at least two")

    p = add("free-check", _cmd_free_check,
            "randomized cancellation checks over free-word sets")
    p.add_argument("--alphabet", type=_int_in(2, FREE_CHECK_MAX), default=4)
    p.add_argument("--trials", type=_int_in(0, TRIALS_MAX), default=10000)
    p.add_argument("--max-word-len", type=_int_in(1, FREE_CHECK_MAX),
                   default=6)
    p.add_argument("--max-set-size", type=_int_in(1, FREE_CHECK_MAX),
                   default=8)

    return parser


def _indented_json(obj):
    """json.dumps(obj, indent=2), byte for byte, without the pure-Python
    encoder that json.dumps uses when given an indent: the C encoder
    writes every key and scalar, and containers are laid out here, one
    item per line. A list of exact ints (a bool prints as true) is joined
    from str, which is what the encoder writes for an int. Each list of
    items lives only inside its join, so the peak stays near twice the
    text."""

    def layout(value, pad):
        inner = pad + "  "
        sep = ",\n" + inner
        if isinstance(value, dict) and value:
            # The encoder's text of the key: quoted, as json quotes an int,
            # float, bool or None key, and a TypeError for any other type.
            body = sep.join([json.dumps({key: 0})[1:-4] + ": "
                             + layout(item, inner)
                             for key, item in value.items()])
            return f"{{\n{inner}{body}\n{pad}}}"
        if isinstance(value, (list, tuple)) and value:
            if all(type(item) is int for item in value):
                body = sep.join(map(str, value))
            else:
                body = sep.join([layout(item, inner) for item in value])
            return f"[\n{inner}{body}\n{pad}]"
        return json.dumps(value)

    return layout(obj, "")


def _emit(report, args):
    text = _indented_json({"schema_version": SCHEMA_VERSION, **report}) + "\n"
    if getattr(args, "out", None) is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _failure(exc):
    """Error report (class name, message, and the witness of a
    NonAssociative or NotCompatible), exit code and stderr text for an
    exception: exit 1 for a TheoremViolation finding, 2 for any other
    WorkbenchError, and 3 with the traceback for any other exception."""
    error = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, NonAssociative):
        error["triple"] = list(exc.triple)
    if isinstance(exc, NotCompatible):
        error["quadruple"] = list(exc.quadruple)
    if isinstance(exc, TheoremViolation):
        code, complaint = EXIT_FINDING, f"theorem violation: {exc}"
    elif isinstance(exc, WorkbenchError):
        code, complaint = EXIT_USAGE, f"error: {exc}"
    else:
        code = EXIT_INTERNAL
        complaint = ("".join(traceback.format_exception(exc))
                     + f"internal error: {exc}")
    return {"error": error}, code, complaint


def run(argv=None):
    args = build_parser().parse_args(argv)
    complaint = None
    try:
        # Order ENUM_MAX runs for a while, so the catalog subcommands (the
        # ones with --order) refuse it without --long-running, before any
        # table is generated.
        if (getattr(args, "order", None) == _catalog.ENUM_MAX
                and not args.long_running):
            raise OrderUnsupported(f"order {_catalog.ENUM_MAX} runs for a "
                                   "while; pass --long-running to opt in")
        report, code = args.func(args)
    except Exception as exc:
        report, code, complaint = _failure(exc)
    try:
        _emit(report, args)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        report, code, complaint = _failure(
            UsageError(f"cannot write report to {args.out}: {exc}"))
        _emit(report, None)
    if complaint is not None:
        print(complaint, file=sys.stderr)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

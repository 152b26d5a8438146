"""Command line surface: enumeration, relations, property checks, ranks,
factorizations, maximal subsemigroups, and the verification battery.

Exit codes: 0 success, 1 a verification or property expectation failed,
2 bad flags or invalid input, 3 a size cap refused the request, 4 an
internal invariant failed (a defect in the program, not in the input).

Output is deterministic: two runs with identical flags produce identical
bytes.  Every command honors --format human|json|csv.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, repeat
from operator import itemgetter

from . import families, formulas, genrank, greens, pinj, structure
from .errors import CapExceededError, InvariantError, ValidationError

DEFAULT_CLI_ENUM_CAP = 10
DEFAULT_MAXIMAL_CAP = 6

# Each property with the structure check that decides it, and whether
# that check reads the starred relations (which have a lower cap).  The
# inverse-ideal checks test the table inside I_n, never enumerating I_n.
_PROPERTIES = {
    "regular": (structure.is_regular_semigroup, False),
    "jtrivial": (structure.is_jtrivial, False),
    "left-abundant": (structure.is_left_abundant, True),
    "right-abundant": (structure.is_right_abundant, True),
    "abundant": (structure.is_abundant, True),
    "semilattice": (structure.is_semilattice_of_idempotents, False),
    "adequate": (structure.is_adequate, True),
    "right-adequate": (structure.is_right_adequate, True),
    "ample": (structure.is_ample, True),
    "right-ample": (structure.is_right_ample, True),
    "inverse-ideal": (structure.is_inverse_ideal, False),
    "right-inverse-ideal": (structure.is_right_inverse_ideal, False),
}


def _check_cap(args, n, default, what):
    """Refuse n above the size cap: default, or --max-n when it is given,
    always clamped to the hard ceiling families.DEFAULT_ENUM_CAP.  A
    --max-n below 1 is refused."""
    cap = default if args.max_n is None else args.max_n
    if cap < 1:
        raise ValidationError(f"--max-n must be at least 1, got {cap}")
    cap = min(cap, families.DEFAULT_ENUM_CAP)
    if n > cap:
        raise CapExceededError(
            f"{what} is capped at n = {cap} (requested n = {n});"
            f" --max-n raises soft caps up to the hard ceiling {families.DEFAULT_ENUM_CAP}"
        )


def _table(args, default, what):
    """The family the arguments name and its table, once its n passes
    the cap."""
    spec = families.FamilySpec(args.family, args.n, args.p)
    _check_cap(args, spec.n, default, what)
    return spec, families.enumerate_family(spec)


def _published(formula, agrees):
    """The line setting the published value beside the computed one, or
    none when no value is published."""
    if formula is None:
        return []
    return [f"  published value {formula} ({'agrees' if agrees else 'DISAGREES'})"]


def _emit(args, payload, human_lines, csv_rows):
    """Write the payload in the chosen format.  Handlers compute their exit
    code first and emit last, so a closed stdout cannot change the code."""
    # json and csv are imported only by the branches that write them: every
    # command is a fresh process, and most write neither.
    if args.format == "json":
        import json

        # Streamed chunk by chunk: the same bytes as json.dumps, without
        # holding the whole document as one string.
        _write(chain(json.JSONEncoder(indent=2).iterencode(payload), ["\n"]))
    elif args.format == "csv":
        import csv

        _write(csv_rows, csv.writer(sys.stdout, lineterminator="\n").writerows)
    else:
        _write(f"{line}\n" for line in human_lines)


def _write(chunks, write=None):
    """Write chunks to stdout with write (default: writelines) and flush."""
    try:
        (write or sys.stdout.writelines)(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (as `| head` does); that is not a
        # failure of its own.  Send what is still buffered to devnull, so
        # the flush at interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# ---------------------------------------------------------------------------
# enum


def _cmd_enum(args):
    spec, table = _table(args, DEFAULT_CLI_ENUM_CAP, "enumeration")
    label = spec.label()
    if args.count_only:
        payload = {"family": label, "order": table.size}
        _emit(
            args,
            payload,
            [f"{label}: {table.size}"] if args.format == "human" else [],
            [("family", "order"), (label, table.size)],
        )
        return 0
    if args.products:
        _write(_product_text(table, args.format))
        return 0
    # The json payload, human lines and csv rows are made only for the
    # chosen format, the lines one at a time as they are written.
    payload = None
    if args.format == "json":
        payload = {"family": spec.kind, "n": spec.n, "p": spec.p, "order": table.size}
        if spec.p is None:
            del payload["p"]
        payload["elements"] = list(map(table.text_of, range(table.size)))
    human = chain(
        [f"{label}: {table.size} elements"],
        (f"{i}\t{table.text_of(i)}" for i in range(table.size)),
    )
    rows = chain(
        [("index", "text", "height")],
        (
            (i, table.text_of(i), "" if h is None else h)
            for i, h in enumerate(map(table.height_of, range(table.size)))
        ),
    )
    _emit(args, payload, human, rows)
    return 0


# How `enum --products` writes each triple (i, j, k) in each format:
# open i sep j sep k close, with between separating consecutive triples.
# The json separators are json.dumps's with indent=2, a triple sitting
# two levels deep.
_PRODUCT_SEPARATORS = {
    "csv": ("", ",", "\n", ""),
    "human": ("", " ", "\n", ""),
    "json": ("    [\n      ", ",\n      ", "\n    ]", ",\n"),
}


def _product_text(table, fmt):
    """The product table as text, one chunk per row i and the format's
    header and footer around them: the same bytes as csv.writer, as one
    line "i j k" per triple, and as json.dumps of {"family", "order",
    "products": [[i, j, k], ...]} with indent=2.

    A row is one join over a slot list of 3m strings, made once per
    table: slot 3j holds "between open i" (with no "between" before the
    table's first triple), slot 3j+1 the fixed "sep j sep" and slot 3j+2
    "k close" for k = i.j.  Each row refills the first and last kind of
    slot by slice assignment from per-index strings, so it makes no
    string per triple."""
    open_, sep, close, between = _PRODUCT_SEPARATORS[fmt]
    if fmt == "json":
        import json

        # The document with one empty triple, cut at that triple.
        doc = {"family": table.family.label(), "order": table.size, "products": [[]]}
        header, footer = json.dumps(doc, indent=2).split("    []")
        footer += "\n"
    else:
        header, footer = ("i,j,k\n" if fmt == "csv" else ""), ""
    yield header
    # The rows first: they build the image index, and the strings below
    # are not yet held while they do.
    rows = table.product_rows()
    m = table.size
    ends = [f"{k}{close}" for k in range(m)]
    slots = [None] * (3 * m)
    slots[1::3] = [f"{sep}{j}{sep}" for j in range(m)]
    lead = open_
    for i, row in enumerate(rows):
        first = str(i)
        slots[::3] = repeat(between + open_ + first, m)
        slots[0] = lead + first
        # itemgetter of one index returns the item, not a 1-tuple.
        slots[2::3] = itemgetter(*row)(ends) if m > 1 else [ends[row[0]]]
        yield "".join(slots)
        lead = between + open_
    yield footer


# ---------------------------------------------------------------------------
# greens


def _cmd_greens(args):
    rel = args.relation
    if rel in greens.STARRED_NAMES:
        spec, table = _table(args, greens.DEFAULT_STARRED_CAP, "starred relation computation")
        part = greens.starred(table, rel)
    else:
        spec, table = _table(args, DEFAULT_CLI_ENUM_CAP, "relation computation")
        part = greens.green(table, rel)
    # Each text is made once, for every format; the human lines and csv
    # rows are made only for the chosen format, as they are written.
    classes = [
        [table.text_of(i) for i in members] for members in part.classes
    ]
    payload = {
        "family": spec.label(),
        "relation": rel,
        "class_count": part.class_count,
        "max_class_size": part.max_class_size,
        "trivial": part.is_identity,
        "classes": classes,
    }
    human = chain(
        [
            f"{spec.label()} {rel}: {part.class_count} classes,"
            f" largest {part.max_class_size},"
            f" {'trivial' if part.is_identity else 'non-trivial'}"
        ],
        (f"  class {c}: {' '.join(texts)}" for c, texts in enumerate(classes)),
    )
    rows = chain(
        [("class", "index", "text")],
        (
            (c, i, text)
            for c, (members, texts) in enumerate(zip(part.classes, classes))
            for i, text in zip(members, texts)
        ),
    )
    _emit(args, payload, human, rows)
    return 0


# ---------------------------------------------------------------------------
# check


def _cmd_check(args):
    names = args.property
    if any(_PROPERTIES[name][1] for name in names):
        spec, table = _table(args, greens.DEFAULT_STARRED_CAP, "starred property check")
    else:
        spec, table = _table(args, DEFAULT_CLI_ENUM_CAP, "property check")
    expect = args.expect == "true"
    reports = [_PROPERTIES[name][0](table) for name in names]
    payload = {"family": spec.label(), "expect": expect, "properties": []}
    human = []
    rows = [("property", "family", "holds", "witness")]
    ok = True
    for rep in reports:
        d = rep.as_dict()
        payload["properties"].append(d)
        mark = "ok" if rep.holds == expect else "MISMATCH"
        line = f"{rep.property} on {rep.family}: {rep.holds} [{mark}]"
        if rep.witness:
            line += f" witness: {rep.witness}"
        human.append(line)
        rows.append((rep.property, rep.family, rep.holds, rep.witness or ""))
        ok = ok and rep.holds == expect
    code = 0 if ok else 1
    _emit(args, payload, human, rows)
    return code


# ---------------------------------------------------------------------------
# rank


def _cmd_rank(args):
    _, table = _table(args, DEFAULT_CLI_ENUM_CAP, "rank computation")
    report = genrank.minimal_generating_set(table)
    payload = report.as_dict()
    if not args.show_generators:
        payload.pop("generators", None)
    human = [f"{report.family}: rank {report.rank}", *_published(report.formula, report.agrees)]
    rows = [("family", "rank", "formula", "agrees", "kind", "text")]
    base = (
        report.family,
        report.rank,
        "" if report.formula is None else report.formula,
        "" if report.agrees is None else report.agrees,
    )
    if args.show_generators:
        for kind, got in report.generators.items():
            rows.extend(base + (kind, text) for text in ([got] if kind == "identity" else got))
        for kind in ("idempotents", "essentials", "requisites", "identity", "other"):
            got = report.generators.get(kind)
            if not got:
                continue
            listed = got if isinstance(got, str) else " ".join(got)
            human.append(f"  {kind}: {listed}")
    else:
        rows.append(base + ("", ""))
    _emit(args, payload, human, rows)
    return 0


# ---------------------------------------------------------------------------
# decompose


# Each decompose mode: the families it supports and its factorizer of
# an element of the family spec.
_MODES = {
    "essentials": (
        (families.KIND_ICN, families.KIND_QPRIME),
        lambda alpha, spec: genrank.essential_factorization(alpha, spec.qprime_side),
    ),
    "requisite": ((families.KIND_QPRIME,), lambda alpha, spec: genrank.factor_requisite(alpha)),
    "lift": (
        (families.KIND_ICN, families.KIND_QPRIME),
        lambda alpha, spec: genrank.lift_height(alpha, spec.kind),
    ),
}


def _cmd_decompose(args):
    spec = families.FamilySpec(args.family, args.n, args.p)
    _check_cap(args, spec.n, DEFAULT_CLI_ENUM_CAP, "decomposition")
    alpha = pinj.parse_text(args.element)
    if not families.is_member(alpha, spec):
        raise ValidationError(
            f"element {pinj.canonical_text(alpha)} is not a member of {spec.label()}"
        )
    mode = args.mode
    kinds, factorize = _MODES[mode]
    if spec.kind not in kinds:
        noun = "family" if len(kinds) == 1 else "families"
        raise ValidationError(f"decompose --mode {mode} supports the {' and '.join(kinds)} {noun}")
    factors = factorize(alpha, spec)
    texts = [pinj.canonical_text(f) for f in factors]
    payload = {
        "family": spec.label(),
        "element": pinj.canonical_text(alpha),
        "mode": mode,
        "factors": texts,
    }
    human = [f"{pinj.canonical_text(alpha)} in {spec.label()} ({mode}):"]
    human.extend(f"  {i + 1}: {text}" for i, text in enumerate(texts))
    if not texts:
        human.append("  (empty product)")
    rows = [("position", "text")] + [(i + 1, t) for i, t in enumerate(texts)]
    _emit(args, payload, human, rows)
    return 0


# ---------------------------------------------------------------------------
# maximal


def _cmd_maximal(args):
    spec, table = _table(args, DEFAULT_MAXIMAL_CAP, "maximal subsemigroup search")
    results = genrank.maximal_subsemigroups(table)
    formula = formulas.count_formula("maximal", spec)
    agrees = formula == len(results)
    payload = {
        "family": spec.label(),
        "count": len(results),
        "maximal": [
            {"removed": table.text_of(g), "verified": True}
            for g in results
        ],
    }
    if formula is not None:
        payload["formula"] = formula
        payload["agrees"] = agrees
    human = [f"{spec.label()}: {len(results)} maximal subsemigroups", *_published(formula, agrees)]
    human.extend(f"  remove {table.text_of(g)}: verified" for g in results)
    rows = [("family", "removed", "verified")]
    rows.extend((spec.label(), table.text_of(g), True) for g in results)
    _emit(args, payload, human, rows)
    return 0


# ---------------------------------------------------------------------------
# verify


def verification_report(n_max=4, starred_n_max=None):
    """battery.verification_report, imported on the first call: only
    `verify` loads the battery, whose claim table and code take about
    140 KB that every other command would hold."""
    from .battery import verification_report as report

    return report(n_max, starred_n_max)


def _cmd_verify(args):
    report = verification_report(args.n_max, args.starred_n_max)
    rows, s = report["rows"], report["summary"]
    # The human lines and csv rows are generators: only the chosen
    # format's are made, one at a time as they are written.
    human = chain(
        (
            f"[{row['status']}] {row['id']} ({row['family']}): {row['claim']}"
            f" | expected {row['expected']} | computed {row['computed']}"
            for row in rows
        ),
        [
            f"summary: {s['pass']} pass, {s['fail']} fail,"
            f" {s['paper-inconsistent']} paper-inconsistent, {s['skipped']} skipped"
        ],
    )
    columns = ("id", "claim", "family", "expected", "computed", "status")
    csv_rows = chain([columns], (tuple(map(row.__getitem__, columns)) for row in rows))
    code = 1 if s["fail"] else 0
    _emit(args, report, human, csv_rows)
    return code


# ---------------------------------------------------------------------------
# parser


def _add_family_args(sub):
    sub.add_argument(
        "--family", required=True, choices=families.KINDS, help="element family"
    )
    sub.add_argument("--n", required=True, type=int, help="chain size")
    sub.add_argument("--p", type=int, default=None, help="height bound or layer")
    sub.add_argument(
        "--max-n", type=int, default=None, help="raise the soft size cap"
    )


def _enum_args(sub):
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--count-only", action="store_true")
    group.add_argument(
        "--products", action="store_true", help="dump the product table as index triples"
    )


def _greens_args(sub):
    sub.add_argument(
        "--relation",
        required=True,
        choices=greens.GREEN_NAMES + greens.STARRED_NAMES,
    )


def _check_args(sub):
    sub.add_argument(
        "--property",
        required=True,
        action="append",
        choices=_PROPERTIES,
        help="repeatable",
    )
    sub.add_argument("--expect", choices=("true", "false"), default="true")


def _rank_args(sub):
    sub.add_argument("--show-generators", action="store_true")


def _decompose_args(sub):
    sub.add_argument("--element", required=True, help="element text, e.g. 3:2>1,3>3")
    sub.add_argument("--mode", required=True, choices=_MODES)


def _verify_args(sub):
    sub.add_argument("--n-max", type=int, default=4)
    sub.add_argument("--starred-n-max", type=int, default=None)


# Each subcommand: its help line, its handler and the adder of its own
# arguments, which build_parser adds after the family arguments (every
# subcommand but verify) and --format.
_COMMANDS = {
    "enum": ("list a family or count it", _cmd_enum, _enum_args),
    "greens": ("classical or starred relation classes", _cmd_greens, _greens_args),
    "check": ("decide structural properties", _cmd_check, _check_args),
    "rank": ("minimum generating set and rank", _cmd_rank, _rank_args),
    "decompose": ("factor one element", _cmd_decompose, _decompose_args),
    "maximal": ("maximal subsemigroups", _cmd_maximal, None),
    "verify": ("run the verification battery", _cmd_verify, _verify_args),
}


def build_parser(command=None):
    """The argument parser.  Every subcommand is registered with its help
    line, so top-level help and errors read the same whatever is built,
    but only `command`'s arguments are added when it is given: every CLI
    call is a fresh process that runs one subcommand.  With no command,
    every subcommand's arguments are added."""
    parser = argparse.ArgumentParser(
        prog="catalanlab",
        description="Exact computation over isotone order-decreasing partial"
        " injections: enumeration, starred relations, ranks, and a full"
        " verification battery.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_, handler, add_args) in _COMMANDS.items():
        sub = commands.add_parser(name, help=help_)
        sub.set_defaults(handler=handler)
        if command in (None, name):
            if name != "verify":
                _add_family_args(sub)
            sub.add_argument("--format", choices=("human", "json", "csv"), default="human")
            if add_args:
                add_args(sub)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser takes no option with a value, so a subcommand
    # argparse runs is the first argument not starting with "-"; any other
    # first positional is refused by the top-level parser alone.
    named = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = build_parser(named if named in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

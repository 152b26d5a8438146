"""One benchmark operation, run in a fresh interpreter.

    python3 child.py [--trace FILE] cli ARGV...
    python3 child.py [--trace FILE] elements SEED

`cli` runs `catalanlab.cli.main(ARGV)` and exits with its code.  `elements`
runs the element-by-element library session of the `elements` workload and
prints an order-independent JSON summary; it exits 1 if any check fails.

With `--trace`, wrappers are installed around the public functions of each
layer before the operation starts, and per-layer self times and counts are
written to FILE as JSON when the process exits.  The package sources are
not edited: every module calls the others through the module attribute, so
replacing that attribute routes every call through the wrapper.
"""

import json
import random
import sys
from collections import Counter
from functools import reduce
from time import perf_counter

TIMES = (
    "families.enumerate_s",
    "families.table_s",
    "greens.classical_s",
    "greens.starred_s",
    "greens.star_ideal_s",
    "structure.check_s",
    "genrank.rank_s",
    "genrank.maximal_s",
    "genrank.factor_s",
    "pinj.parse_s",
    "pinj.text_s",
)
COUNTS = (
    "families.table_requests",
    "families.table_builds",
    "families.table_entries",
    "families.table_bytes_computed",
    "families.elements",
    "pinj.compose_calls",
    "greens.classical_calls",
    "greens.classical_repeats",
    "greens.starred_repeats",
    "structure.checks",
    "genrank.closure_calls",
    "genrank.factored_elements",
    "cli.battery_rows",
)
FACTOR_FUNCTIONS = (
    "essential_factorization",
    "factor_requisite",
    "factor_idempotent_quasi_chain",
    "expand_quasi_to_essentials",
    "lift_height",
)
STARRED_FUNCTIONS = ("starred_L", "starred_R", "starred_H", "starred_D", "starred_J")


def rows_nbytes(rows):
    """Bytes held by a product table's rows, computed from their layout:
    the buffer size for rows that expose one, else the list object size.
    Element objects the rows point at are not counted."""
    total = sys.getsizeof(rows)
    for row in rows:
        try:
            total += memoryview(row).nbytes
        except TypeError:
            total += sys.getsizeof(row)
    return total


class Tracer:
    """Per-layer self times and counts, kept in memory for one process.

    A span's self time is its duration minus the time of the spans opened
    inside it.  `top_s` sums the spans opened outside any other span; it
    equals the sum of all self times when the bookkeeping is right.
    """

    def __init__(self):
        self.times = dict.fromkeys(TIMES, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.top_s = 0.0
        self._open = []  # [metric, time covered by child spans] per open span
        self._seen = set()  # (what, object id) pairs already requested
        self._keep = []  # the objects behind those ids, kept alive

    def first_time(self, what, obj):
        key = (what, id(obj))
        if key in self._seen:
            return False
        self._seen.add(key)
        self._keep.append(obj)
        return True

    def timed(self, metric, fn, before=None, after=None):
        """Wrap fn in a span whose self time adds to `metric`.

        before(*args) runs just before the span opens and after(result,
        *args) just after it closes; both only update counts."""
        times, open_spans = self.times, self._open

        def wrapper(*args, **kwargs):
            if before:
                before(*args)
            span = [metric, 0.0]
            open_spans.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                open_spans.pop()
                times[metric] += duration - span[1]
                if open_spans:
                    open_spans[-1][1] += duration
                else:
                    self.top_s += duration
            if after:
                after(result, *args)
            return result

        return wrapper

    def counted(self, metric, fn):
        """Wrap fn so that each call adds one to `metric`; not timed."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        from catalanlab import families, genrank, greens, pinj, structure

        counts = self.counts

        def enumerated(table, *_args):
            if self.first_time("enumerate", table):
                counts["families.elements"] += len(table)

        families.enumerate_family = self.timed(
            "families.enumerate_s", families.enumerate_family, after=enumerated
        )

        def rows_requested(_table):
            counts["families.table_requests"] += 1

        def rows_returned(rows, table):
            if self.first_time("rows", table):
                counts["families.table_builds"] += 1
                counts["families.table_entries"] += len(table) ** 2
                counts["families.table_bytes_computed"] += rows_nbytes(rows)

        table_cls = families.SemigroupTable
        table_cls.product_rows = self.timed(
            "families.table_s", table_cls.product_rows,
            before=rows_requested, after=rows_returned,
        )

        pinj.compose = self.counted("pinj.compose_calls", pinj.compose)
        pinj.parse_text = self.timed("pinj.parse_s", pinj.parse_text)
        pinj.canonical_text = self.timed("pinj.text_s", pinj.canonical_text)

        def classical(table, which, *_args):
            counts["greens.classical_calls"] += 1
            if not self.first_time("green " + which, table):
                counts["greens.classical_repeats"] += 1

        greens.green = self.timed("greens.classical_s", greens.green, before=classical)
        for name in STARRED_FUNCTIONS:
            def starred(table, *_args, _name=name):
                if not self.first_time(_name, table):
                    counts["greens.starred_repeats"] += 1

            setattr(greens, name, self.timed(
                "greens.starred_s", getattr(greens, name), before=starred
            ))
        greens.star_ideal = self.timed("greens.star_ideal_s", greens.star_ideal)

        def checked(*_args):
            counts["structure.checks"] += 1

        for name in dir(structure):
            fn = getattr(structure, name)
            if name.startswith("is_") and callable(fn):
                setattr(structure, name, self.timed("structure.check_s", fn, before=checked))

        genrank.minimal_generating_set = self.timed(
            "genrank.rank_s", genrank.minimal_generating_set
        )
        genrank.maximal_subsemigroups = self.timed(
            "genrank.maximal_s", genrank.maximal_subsemigroups
        )
        genrank.closure = self.counted("genrank.closure_calls", genrank.closure)

        def factoring(*_args):
            # Factorization functions call each other; count only the
            # outermost call, one per element factored.
            if not self._open or self._open[-1][0] != "genrank.factor_s":
                counts["genrank.factored_elements"] += 1

        for name in FACTOR_FUNCTIONS:
            setattr(genrank, name, self.timed(
                "genrank.factor_s", getattr(genrank, name), before=factoring
            ))

    def install_cli(self, cli):
        report_fn = cli.verification_report

        def verification_report(*args, **kwargs):
            report = report_fn(*args, **kwargs)
            self.counts["cli.battery_rows"] += len(report["rows"])
            return report

        cli.verification_report = verification_report

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"times": self.times, "counts": self.counts, "top_s": self.top_s}, fh)


LIFT_KINDS = {
    "icn": ("idempotent", "essential"),
    "qprime": ("idempotent", "essential", "requisite"),
}


def elements_session(seed):
    """Every element of IC_9 and Q'_9, in an order drawn from the seed:
    text round trip, membership, essential factorization recomposed with
    compose, height lift where the family allows one, and element kind.
    Returns (summary, number of failed checks)."""
    from catalanlab import families, formulas, genrank, pinj

    rng = random.Random(seed)
    n = 9
    expected = {"icn": formulas.catalan(n + 1), "qprime": formulas.t(n)}
    summary = {}
    failures = 0
    for kind in ("icn", "qprime"):
        spec = families.FamilySpec(kind, n)
        qprime_side = kind == "qprime"
        lift_bound = n - 3 if qprime_side else n - 2
        table = families.enumerate_family(spec)
        order = list(range(len(table)))
        rng.shuffle(order)
        kinds = Counter()
        lifted = 0
        for i in order:
            alpha = table.element(i)
            ok = pinj.parse_text(pinj.canonical_text(alpha)) == alpha
            ok = ok and families.is_member(alpha, spec)
            factors = genrank.essential_factorization(alpha, qprime_side=qprime_side)
            if factors:
                ok = ok and reduce(pinj.compose, factors) == alpha
            else:
                ok = ok and pinj.height(alpha) == 0
            element_kind = genrank.element_kind(alpha, qprime_side)
            kinds[element_kind] += 1
            if element_kind in LIFT_KINDS[kind] and pinj.height(alpha) <= lift_bound:
                left, right = genrank.lift_height(alpha, kind)
                ok = ok and pinj.compose(left, right) == alpha
                lifted += 1
            failures += not ok
        failures += len(table) != expected[kind]
        summary[spec.label()] = {
            "elements": len(table),
            "expected": expected[kind],
            "kinds": dict(sorted(kinds.items())),
            "lifted": lifted,
        }
    summary["failed_checks"] = failures
    return summary, failures


def main(argv):
    tracer = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
        tracer = Tracer()
        tracer.install()
    mode, rest = argv[0], argv[1:]
    try:
        if mode == "cli":
            from catalanlab import cli

            if tracer:
                tracer.install_cli(cli)
            return cli.main(rest)
        if mode == "elements":
            summary, failures = elements_session(int(rest[0]))
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 1 if failures else 0
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if tracer:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Structural property checks with explicit witnesses.

Every checker returns a PropertyReport.  When the property fails, the
report carries a witness that can be re-verified directly against the
product table, never just a bare False.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from itertools import compress
from operator import getitem, itemgetter, ne, or_

from . import greens
from .errors import ValidationError


@dataclass
class PropertyReport:
    property: str
    family: str
    holds: bool
    witness: str | None = None
    note: str | None = None

    def as_dict(self):
        out = {"property": self.property, "family": self.family, "holds": self.holds}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note is not None:
            out["note"] = self.note
        return out


@dataclass
class IdempotentCensus:
    family: str
    per_height: dict
    total: int
    zero_is_idempotent: bool = False


def _label(table):
    fam = getattr(table, "family", None)
    if fam is None:
        return getattr(table, "label", "table")
    return fam.label()


def idempotent_indices(table):
    rows = table.product_rows()
    return [i for i in range(table.size) if rows[i][i] == i]


def regular_elements(table):
    """Indices of elements a with a b a = a for some b."""
    rows = table.product_rows()
    m = table.size
    out = []
    for a in range(m):
        row_a = rows[a]
        if any(rows[row_a[b]][a] == a for b in range(m)):
            out.append(a)
    return out


def is_regular_semigroup(table):
    regular = set(regular_elements(table))
    for a in range(table.size):
        if a not in regular:
            return PropertyReport(
                "regular", _label(table), False,
                witness=f"no b satisfies aba=a for a={table.text_of(a)}",
            )
    return PropertyReport("regular", _label(table), True)


def _class_idempotents(part, idem_set):
    """The idempotents of each class of part, in class order and, within
    a class, in member order."""
    return [[i for i in members if i in idem_set] for members in part.classes]


def _abundance(table, which):
    idem = set(idempotent_indices(table))
    part = greens.starred_L(table) if which == "left" else greens.starred_R(table)
    for members, found in zip(part.classes, _class_idempotents(part, idem)):
        if not found:
            texts = ",".join(table.text_of(i) for i in members)
            return PropertyReport(
                f"{which}-abundant", _label(table), False,
                witness=f"starred class without idempotent: {{{texts}}}",
            )
    return PropertyReport(f"{which}-abundant", _label(table), True)


def is_left_abundant(table):
    """Every L*-class contains an idempotent."""
    return _abundance(table, "left")


def is_right_abundant(table):
    """Every R*-class contains an idempotent."""
    return _abundance(table, "right")


def _all_of(table, name, checks):
    """The conjunction of the checks, run in order; the first failure's
    witness is reported."""
    for check in checks:
        rep = check(table)
        if not rep.holds:
            return PropertyReport(name, _label(table), False, witness=rep.witness)
    return PropertyReport(name, _label(table), True)


def is_abundant(table):
    return _all_of(table, "abundant", (is_left_abundant, is_right_abundant))


def is_semilattice_of_idempotents(table):
    """Idempotents closed under the product and commuting with each other."""
    rows = table.product_rows()
    idem = idempotent_indices(table)
    idem_set = set(idem)
    for e in idem:
        for f in idem:
            ef = rows[e][f]
            if ef != rows[f][e]:
                return PropertyReport(
                    "semilattice-of-idempotents", _label(table), False,
                    witness=(
                        f"{table.text_of(e)} and {table.text_of(f)} do not commute"
                    ),
                )
            if ef not in idem_set:
                return PropertyReport(
                    "semilattice-of-idempotents", _label(table), False,
                    witness=(
                        f"product of {table.text_of(e)} and {table.text_of(f)}"
                        " is not idempotent"
                    ),
                )
    return PropertyReport("semilattice-of-idempotents", _label(table), True)


def is_adequate(table):
    return _all_of(table, "adequate", (is_abundant, is_semilattice_of_idempotents))


def is_right_adequate(table):
    checks = (is_right_abundant, is_semilattice_of_idempotents)
    return _all_of(table, "right-adequate", checks)


def _unique_idempotent_map(part, idem_set):
    """Class id -> its unique idempotent; None marks a precondition gap."""
    by_class = _class_idempotents(part, idem_set)
    return [found[0] if len(found) == 1 else None for found in by_class]


def _ample_leg_plus(table, rows, rstar, plus_of, a, e):
    """Check ae = (ae)+ a; returns (ok, witness_or_None)."""
    ae = rows[a][e]
    plus = plus_of[rstar.class_of[ae]]
    if plus is None:
        return None, (
            f"R*-class of {table.text_of(ae)} lacks a unique idempotent"
        )
    if rows[plus][a] != ae:
        return False, (
            f"ae != (ae)+a for a={table.text_of(a)}, e={table.text_of(e)}"
        )
    return True, None


def _ample_leg_star(table, rows, lstar, star_of, a, e):
    """Check ea = a (ea)*; returns (ok, witness_or_None)."""
    ea = rows[e][a]
    star = star_of[lstar.class_of[ea]]
    if star is None:
        return None, (
            f"L*-class of {table.text_of(ea)} lacks a unique idempotent"
        )
    if rows[a][star] != ea:
        return False, (
            f"ea != a(ea)* for a={table.text_of(a)}, e={table.text_of(e)}"
        )
    return True, None


def _per_element(part, per_class):
    """The class-indexed idempotents of _unique_idempotent_map, per element:
    the index for each element, or 0 where its class has none, plus a
    flag per element marking those gaps."""
    found = [per_class[c] for c in part.class_of]
    return [i or 0 for i in found], [i is None for i in found]


def _plus_failures(rows, rstar, plus_of):
    """e -> flags over every a: whether ae = (ae)+ a fails at a, its
    precondition gap included.  Read down the column of e, in C."""
    plus, gap = _per_element(rstar, plus_of)
    plus_rows = list(map(rows.__getitem__, plus))
    everyone = range(len(rows))

    def failures(e):
        col = list(map(itemgetter(e), rows))  # ae for each a
        got = map(getitem, map(plus_rows.__getitem__, col), everyone)  # (ae)+ a
        return map(or_, map(gap.__getitem__, col), map(ne, got, col))

    return failures


def _star_failures(rows, lstar, star_of):
    """e -> flags over every a: whether ea = a (ea)* fails at a, its
    precondition gap included.  Read along the row of e, in C."""
    star, gap = _per_element(lstar, star_of)

    def failures(e):
        row = rows[e]  # ea for each a
        got = map(getitem, rows, map(star.__getitem__, row))  # a (ea)*
        return map(or_, map(gap.__getitem__, row), map(ne, got, row))

    return failures


def _first_failure(size, idempotents, failures):
    """The first (a, e) at which failures(e) flags a, ordered by a and then
    by e in the order of idempotents; None when there is none.  Each e
    scans only the a below the best found so far."""
    best, limit = None, size
    for e in idempotents:
        a = next(compress(range(limit), failures(e)), None)
        if a is not None:
            best, limit = (a, e), a
    return best


# Each ample identity as (the starred relation it reads, the factory of
# its failure flags, its witness), the ea leg first.
_EA_LEG = ("starred_L", _star_failures, _ample_leg_star)
_AE_LEG = ("starred_R", _plus_failures, _ample_leg_plus)


def _ample(table, name, base, note, legs):
    """base(table), then the identities of legs for every element a and
    idempotent e, each against the unique idempotent of a starred class.

    A class lacking a unique idempotent is a precondition failure and is
    reported, not ignored.  The witness is the first failure over a, then
    e in the order of the idempotent set, then the legs in order; the
    checks run one idempotent at a time, down its row and column.
    """
    report = base(table)
    if not report.holds:
        return PropertyReport(name, _label(table), False, witness=report.witness, note=note)
    rows = table.product_rows()
    idem_set = set(idempotent_indices(table))
    flags, witnesses = [], []
    for relation, failures, witness in legs:
        part = getattr(greens, relation)(table)
        per_class = _unique_idempotent_map(part, idem_set)
        flags.append(failures(rows, part, per_class))
        witnesses.append(partial(witness, table, rows, part, per_class))
    # The legs' flags or-ed element by element (one leg's flags as they are).
    found = _first_failure(
        table.size, idem_set, lambda e: reduce(partial(map, or_), (f(e) for f in flags))
    )
    if found is None:
        return PropertyReport(name, _label(table), True)
    ok, witness = next(leg for leg in (w(*found) for w in witnesses) if leg[0] is not True)
    note = "precondition failure" if ok is None else None
    return PropertyReport(name, _label(table), False, witness, note)


def is_ample(table):
    """Adequate, plus both identities ea = a(ea)* and ae = (ae)+ a, where
    (ea)* is the unique idempotent L*-related to ea and (ae)+ the unique
    idempotent R*-related to ae; see _ample for the witness."""
    return _ample(table, "ample", is_adequate, "not adequate", (_EA_LEG, _AE_LEG))


def is_right_ample(table):
    """Right adequate, plus the one-sided identity ae = (ae)+ a for every
    element a and idempotent e; the first failure is reported as in
    is_ample."""
    return _ample(table, "right-ample", is_right_adequate, "not right adequate", (_AE_LEG,))


def _inverse_ideal(sub, sup, require_left):
    if sub.family.is_rees or sup.family.is_rees:
        raise ValidationError("inverse ideal checks need plain (non-Rees) tables")
    if sub.family.n != sup.family.n:
        raise ValidationError("tables live on different chains")
    sup_index = {}
    for el in sub.elements:
        j = sup.index_of.get(el)
        if j is None:
            raise ValidationError(
                f"{sub.family.label()} is not a subset of {sup.family.label()}"
            )
        sup_index[el] = j
    rows = sup.product_rows()
    members = {sup_index[el] for el in sub.elements}
    name = "inverse-ideal" if require_left else "right-inverse-ideal"
    for el in sub.elements:
        u = sup_index[el]
        found = False
        for v in range(sup.size):
            uvu = rows[rows[u][v]][u]
            if uvu != u:
                continue
            if rows[u][v] not in members:
                continue
            if require_left and rows[v][u] not in members:
                continue
            found = True
            break
        if not found:
            return PropertyReport(
                name, f"{sub.family.label()} in {sup.family.label()}", False,
                witness=f"no admissible generalized inverse for {sup.text_of(u)}",
            )
    return PropertyReport(name, f"{sub.family.label()} in {sup.family.label()}", True)


def is_inverse_ideal(sub, sup):
    """Every u in sub has v in sup with uvu = u, uv in sub and vu in sub."""
    return _inverse_ideal(sub, sup, require_left=True)


def is_right_inverse_ideal(sub, sup):
    """Every u in sub has v in sup with uvu = u and uv in sub."""
    return _inverse_ideal(sub, sup, require_left=False)


def unique_idempotent_per_rstar_class(table):
    idem_set = set(idempotent_indices(table))
    rstar = greens.starred_R(table)
    for members, found in zip(rstar.classes, _class_idempotents(rstar, idem_set)):
        if len(found) != 1:
            texts = ",".join(table.text_of(i) for i in members)
            return PropertyReport(
                "unique-idempotent-per-Rstar-class", _label(table), False,
                witness=f"class {{{texts}}} holds {len(found)} idempotents",
            )
    return PropertyReport("unique-idempotent-per-Rstar-class", _label(table), True)


def idempotent_census(table):
    """Idempotent counts by height; the Rees zero is flagged, not counted."""
    per_height = {}
    zero_idem = False
    total = 0
    for i in idempotent_indices(table):
        h = table.height_of(i)
        if h is None:
            zero_idem = True
            continue
        per_height[h] = per_height.get(h, 0) + 1
        total += 1
    return IdempotentCensus(_label(table), dict(sorted(per_height.items())), total, zero_idem)

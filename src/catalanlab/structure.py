"""Structural property checks with explicit witnesses.

Every checker returns a PropertyReport.  When the property fails, the
report carries a witness that can be re-verified directly against the
product table, never just a bare False.

No check builds the m x m product table.  Each reads only the lines its
predicate uses: rows a.x and columns x.a composed on packed images by
table.lines (one composer per pass), rows and columns gathered along the
Cayley graphs from A (families.gather) off A's rows and columns, which
the table holds (table.generator_lines: A's columns from when A was
chosen, A's rows from when a check first asked), or single products.
With m elements and E the idempotents:

  idempotent_indices   the diagonal, i.i = i: m products, once per table
                       (kept in the table's store, families.memoized).
  regular_elements     every column, then every row, each read off its
                       tree parent's by one itemgetter call, depth first
                       along the breadth-first tree from A
                       (families.gather): m^2 entries read, no line
                       composed past A's held rows and columns, and only
                       the lines on one tree path held.
  semilattice          the rows of the idempotents, composed only at the
                       idempotents: |E|^2 compositions.
  ample, right-ample   each element's row and column, composed only at the
                       idempotents and held only while that element is
                       checked: 2 m |E| compositions, plus L* and R*
                       (greens).
  abundance, unique    L* or R* and the diagonal.
  idempotent per R*
  inverse ideals       uv, uvu and vu for v = u^-1 alone, made from u's
                       image: three compositions and two lookups per
                       element of the sub-table; I_n is never enumerated.

Lemma (in I_n, maps composed left to right): uvu = u exactly when v on
im u is u^-1, and then uv = id_{dom u} and vu = id_{im u}.  For x in
dom u, xuvu = xu and u is injective, so xuv = x.  No y outside im u has
yv = x in dom u, since (xu)v = x too, against the injectivity of v.  So
every v with uvu = u gives the products that u^-1 gives, and u^-1 alone
decides whether u has an admissible generalized inverse in I_n (Lawson,
Inverse Semigroups, 1998, 1.1).
"""

from __future__ import annotations

from itertools import compress
from operator import eq, ne
from typing import NamedTuple

from . import families, greens, pinj
from .errors import ValidationError


class PropertyReport(NamedTuple):
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


def _label(table):
    fam = getattr(table, "family", None)
    if fam is None:
        return getattr(table, "label", "table")
    return fam.label()


def idempotent_indices(table):
    """Indices i with i.i = i, in index order, as a new list."""
    return list(families.memoized(table, "E", _diagonal_fixed_points))


def _diagonal_fixed_points(table):
    everyone = range(table.size)
    return tuple(compress(everyone, map(eq, map(table.product, everyone, everyone), everyone)))


def regular_elements(table):
    """Indices of elements a with a b a = a for some b.

    Let Fix_a = {x : x.a = a}.  Then a b a = a exactly when a.b lies in
    Fix_a, so a is regular iff Fix_a meets row a.  Fix_a is read off
    column a; the columns are gathered first and the rows after
    (families.gather), so only the lines on one tree path are held,
    with the Fix sets in between.
    """
    m, gens = table.size, table.generators
    rows, columns = table.generator_lines(True), table.generator_lines(False)
    fixed = [None] * m
    for a, col in families.gather(gens, columns, rows):
        fixed[a] = frozenset(_positions(col, a))
    regular = bytearray(m)
    for a, row in families.gather(gens, rows, columns):
        regular[a] = not fixed[a].isdisjoint(row)
    return list(compress(range(m), regular))


def _positions(line, value):
    """The positions of value in line, found by line.index: one C scan
    for the whole line, with a Python step only per position found."""
    at = -1
    try:
        while True:
            at = line.index(value, at + 1)
            yield at
    except ValueError:
        return


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
    """Idempotents closed under the product and commuting with each other.

    The rows of the idempotents, composed only at the idempotents: the
    |E| x |E| products ef, which also give each fe."""
    idem = idempotent_indices(table)
    idem_set = set(idem)
    products = list(table.lines(idem, True, at=idem))
    for e, efs, fes in zip(idem, products, zip(*products)):
        for f, ef, fe in zip(idem, efs, fes):
            if ef != fe:
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


def _ample_leg(table, part, per_class, ea_leg, a, e):
    """Check ea = a (ea)* against L* (ea_leg) or ae = (ae)+ a against R*,
    with per_class giving each class of part its unique idempotent;
    returns (ok, witness_or_None), ok None for a precondition gap.  The
    ae leg is the ea leg of the opposite semigroup, x, y -> y.x."""
    if ea_leg:
        product, relation, identity = table.product, "L*", "ea != a(ea)*"
    else:
        product, relation, identity = (lambda x, y: table.product(y, x)), "R*", "ae != (ae)+a"
    ea = product(e, a)
    star = per_class[part.class_of[ea]]
    if star is None:
        return None, f"{relation}-class of {table.text_of(ea)} lacks a unique idempotent"
    if product(a, star) != ea:
        return False, f"{identity} for a={table.text_of(a)}, e={table.text_of(e)}"
    return True, None


def _ample(table, name, base, note, ea_legs):
    """base(table), then for every element a and idempotent e each leg of
    ea_legs: ea = a (ea)* for True, ae = (ae)+ a for False, each against
    the unique idempotent of a starred class.

    (ea)* and (ae)+ are idempotents, so both identities read only the
    products of a with the idempotents.  One pass over a, in index order,
    composes a's row and a's column at the idempotents alone, row[k] =
    a.e_k and col[k] = e_k.a (2 m |E| compositions, no line held past its
    a).  The ea leg scans col and looks a (ea)* up in row, at the slot of
    (ea)*; the ae leg scans row and looks (ae)+ a up in col.  A class
    lacking a unique idempotent has the slot past the last, a -1 appended
    to both lines that matches no product, so a precondition gap is
    flagged as a failure, reported and told apart by the witness.  The
    witness is the first failing a, then the least failing e in index
    order, then the first leg.
    """
    report = base(table)
    if not report.holds:
        return PropertyReport(name, _label(table), False, witness=report.witness, note=note)
    idem = idempotent_indices(table)
    idem_set, gap = set(idem), len(idem)
    slot = dict(zip(idem, range(gap)))
    legs = []
    for ea_leg in ea_legs:
        part = greens.starred_L(table) if ea_leg else greens.starred_R(table)
        per_class = _unique_idempotent_map(part, idem_set)
        # A gap's None is no idempotent, so it takes the gap slot.
        slot_of = [slot.get(per_class[c], gap) for c in part.class_of]
        legs.append((ea_leg, part, per_class, slot_of.__getitem__))
    everyone, slots, pad = range(table.size), range(gap), (-1,)
    rows, cols = table.lines(everyone, True, at=idem), table.lines(everyone, False, at=idem)
    for a, row, col in zip(everyone, rows, cols):
        row, col = row + pad, col + pad
        firsts = []
        for ea_leg, _, _, slot_of in legs:
            scanned, looked_up = (col, row) if ea_leg else (row, col)
            got = map(looked_up.__getitem__, map(slot_of, scanned))
            firsts.append(next(compress(slots, map(ne, got, scanned)), gap))
        k = min(firsts)
        if k < gap:
            ea_leg, part, per_class, _ = legs[firsts.index(k)]
            ok, text = _ample_leg(table, part, per_class, ea_leg, a, idem[k])
            note = "precondition failure" if ok is None else None
            return PropertyReport(name, _label(table), False, text, note)
    return PropertyReport(name, _label(table), True)


def is_ample(table):
    """Adequate, plus both identities ea = a(ea)* and ae = (ae)+ a, where
    (ea)* is the unique idempotent L*-related to ea and (ae)+ the unique
    idempotent R*-related to ae; see _ample for the witness."""
    return _ample(table, "ample", is_adequate, "not adequate", (True, False))


def is_right_ample(table):
    """Right adequate, plus the one-sided identity ae = (ae)+ a for every
    element a and idempotent e; the first failure is reported as in
    is_ample."""
    return _ample(table, "right-ample", is_right_adequate, "not right adequate", (False,))


def _inverse_ideal(sub, require_left):
    """Each u of sub, in index order, against v = u^-1 (see the lemma
    above); the first u that fails is the witness."""
    spec = sub.family
    if spec.is_rees:
        raise ValidationError("inverse ideal checks need plain (non-Rees) tables")
    name = "inverse-ideal" if require_left else "right-inverse-ideal"
    label = f"{spec.label()} in {families.FamilySpec(families.KIND_SYMINV, spec.n).label()}"
    points, through = range(1, spec.n + 1), pinj._translate_table
    for u, image in enumerate(sub.images):
        # find gives the position of y in u's image, -1 when y is no image.
        inverse = bytes([image.find(y) + 1 for y in points])
        uv = image.translate(through(inverse))
        admissible = uv.translate(through(image)) == image and sub.locate(uv) is not None
        if admissible and require_left:
            admissible = sub.locate(inverse.translate(through(image))) is not None
        if not admissible:
            return PropertyReport(
                name, label, False,
                witness=f"no admissible generalized inverse for {sub.text_of(u)}",
            )
    return PropertyReport(name, label, True)


def is_inverse_ideal(sub):
    """Every u in sub has v in I_n with uvu = u, uv in sub and vu in sub."""
    return _inverse_ideal(sub, require_left=True)


def is_right_inverse_ideal(sub):
    """Every u in sub has v in I_n with uvu = u and uv in sub."""
    return _inverse_ideal(sub, require_left=False)


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


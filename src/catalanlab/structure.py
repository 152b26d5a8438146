"""Structural property checks with explicit witnesses.

Every checker returns a PropertyReport.  When the property fails, the
report carries a witness that can be re-verified directly against the
product table, never just a bare False.

No check builds the m x m product table.  Each reads only the lines its
predicate uses: columns x.a composed on packed images by table.columns
(one composer per pass), rows and columns gathered along the
Cayley graphs from A (families.gather, table.gathered_lines) off A's
rows and columns, which the table holds (table.generator_lines: A's
columns from when A was chosen, A's rows gathered off them when a check
first asked), or single products.
With m elements and E the idempotents:

  idempotent_indices   the diagonal, i.i = i: m products, once per table
                       (kept in the table's store, families.memoized).
  regular_elements     every column, then every row, each read off its
                       tree parent's by one itemgetter call, depth first
                       along the breadth-first tree from A
                       (families.gather): m^2 entries read, no line
                       composed past A's held rows and columns, and only
                       the lines on one tree path held.
  semilattice          the columns of the idempotents, composed only at
                       the idempotents: |E|^2 compositions, once per
                       table (its failing pair, or None, kept in store).
  ample, right-ample   each element's row and column at the idempotents,
                       gathered off A's held lines along the two Cayley
                       graphs' trees (table.gathered_lines): no
                       composition, 2 m |E| entries read, the columns
                       held packed (2 m |E| bytes up to 65,536
                       elements) and the rows on one tree path; each leg
                       two itemgetter calls and one tuple compare an
                       element.  Plus L* and R* (greens).
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


def is_jtrivial(table):
    """Every J-class a single element; the witness is the first J-class
    with more than one member."""
    for members in greens.green(table, "J").classes:
        if len(members) > 1:
            witness = ", ".join(map(table.text_of, members))
            return PropertyReport("jtrivial", _label(table), False, witness=witness)
    return PropertyReport("jtrivial", _label(table), True)


def _class_idempotents(table, left):
    """L* (left) or R*, and the idempotents of each of its classes, in
    class order and, within a class, in member order."""
    idem_set = set(idempotent_indices(table))
    part = greens.starred_L(table) if left else greens.starred_R(table)
    return part, [[i for i in members if i in idem_set] for members in part.classes]


def _abundance(table, which):
    part, by_class = _class_idempotents(table, which == "left")
    for members, found in zip(part.classes, by_class):
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
    """Idempotents closed under the product and commuting with each other:
    the first failure of _semilattice_failure, kept in the table's store
    (families.memoized) and written here under the caller's label, as
    IC_n and K(n,n) share one store."""
    name = "semilattice-of-idempotents"
    failure = families.memoized(table, "semilattice", _semilattice_failure)
    if failure is None:
        return PropertyReport(name, _label(table), True)
    e, f, commute = failure
    if commute:
        witness = f"{table.text_of(e)} and {table.text_of(f)} do not commute"
    else:
        witness = f"product of {table.text_of(e)} and {table.text_of(f)} is not idempotent"
    return PropertyReport(name, _label(table), False, witness=witness)


def _semilattice_failure(table):
    """The first pair (e, f) of idempotents, in index order, where ef !=
    fe or ef is not idempotent, as (e, f, commute), commute True when ef
    != fe; None when there is none.  The columns of the idempotents,
    composed only at the idempotents: the |E| x |E| products fe, which
    also give each ef."""
    idem = idempotent_indices(table)
    idem_set = set(idem)
    products = list(table.columns(idem, at=idem))
    for e, fes, efs in zip(idem, products, zip(*products)):
        for f, ef, fe in zip(idem, efs, fes):
            if ef != fe:
                return e, f, True
            if ef not in idem_set:
                return e, f, False
    return None


def is_adequate(table):
    return _all_of(table, "adequate", (is_abundant, is_semilattice_of_idempotents))


def is_right_adequate(table):
    checks = (is_right_abundant, is_semilattice_of_idempotents)
    return _all_of(table, "right-adequate", checks)


def _ample(table, name, base, note, ea_legs):
    """base(table), then for every element a and idempotent e each leg of
    ea_legs: ea = a (ea)* for True, ae = (ae)+ a for False, each against
    the unique idempotent of a starred class.

    (ea)* and (ae)+ are idempotents, so both identities read only the
    products of a with the idempotents: a's row and column there,
    row[k] = a.e_k and col[k] = e_k.a, which table.gathered_lines yields
    for every a with no product composed.  The ea leg scans col and looks
    a (ea)* up in row, at the slot of (ea)*; the ae leg scans row and
    looks (ae)+ a up in col.  Each leg is two itemgetter calls, the slots
    of the scanned products and the looked-up line at those slots, and one
    tuple compare with the scanned line; the first differing slot is
    sought only on a mismatch.  A class lacking a unique idempotent has
    the slot past the last, a -1 appended to the looked-up line that
    matches no product, so a precondition gap is flagged as a failure.

    The witness is the least failing a, then the least failing e in index
    order, then the first leg, over the whole walk, whatever order the
    walk yields a in.  It is written from the scan: the failing product
    is the scanned line's entry at e, and the failure is a precondition
    gap exactly when that product's slot is the gap.
    """
    report = base(table)
    if not report.holds:
        return PropertyReport(name, _label(table), False, witness=report.witness, note=note)
    idem = idempotent_indices(table)
    gap = len(idem)
    slot = dict(zip(idem, range(gap)))
    legs = []
    for ea_leg in ea_legs:
        part, by_class = _class_idempotents(table, ea_leg)
        # A class without a unique idempotent takes the gap slot.
        per_class = [slot[found[0]] if len(found) == 1 else gap for found in by_class]
        legs.append((ea_leg, [per_class[c] for c in part.class_of]))
    take, pad = families.getter(gap), (-1,)
    # The least failure so far, as (a, k, leg), and its product.
    least, product = (table.size,), None
    for a, row, col in table.gathered_lines(idem):
        if a > least[0]:
            continue
        for leg, (ea_leg, slot_of) in enumerate(legs):
            scanned, looked_up = (col, row + pad) if ea_leg else (row, col + pad)
            if take(*take(*scanned)(slot_of))(looked_up) != scanned:
                got = map(looked_up.__getitem__, map(slot_of.__getitem__, scanned))
                k = next(compress(range(gap), map(ne, got, scanned)))
                if (a, k, leg) < least:
                    least, product = (a, k, leg), scanned[k]
    if product is None:
        return PropertyReport(name, _label(table), True)
    a, k, leg = least
    ea_leg, slot_of = legs[leg]
    if slot_of[product] == gap:
        relation = "L*" if ea_leg else "R*"
        text = f"{relation}-class of {table.text_of(product)} lacks a unique idempotent"
        return PropertyReport(name, _label(table), False, text, "precondition failure")
    identity = "ea != a(ea)*" if ea_leg else "ae != (ae)+a"
    text = f"{identity} for a={table.text_of(a)}, e={table.text_of(idem[k])}"
    return PropertyReport(name, _label(table), False, text)


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
    rstar, by_class = _class_idempotents(table, False)
    for members, found in zip(rstar.classes, by_class):
        if len(found) != 1:
            texts = ",".join(table.text_of(i) for i in members)
            return PropertyReport(
                "unique-idempotent-per-Rstar-class", _label(table), False,
                witness=f"class {{{texts}}} holds {len(found)} idempotents",
            )
    return PropertyReport("unique-idempotent-per-Rstar-class", _label(table), True)


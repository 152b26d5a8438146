r"""Generating sets, ranks, constructive factorizations, and maximal
subsemigroups.

The rank computation rests on one fact about these tables: call an
element indecomposable when it is not a product of two elements both
different from it.  Any generating set must contain every indecomposable
(a shortest product expression for a missing one would exhibit two
smaller factors), and on a J-trivial table the indecomposables generate,
so they form the unique minimum generating set.  Both halves are checked
computationally, never assumed: J-triviality by the strongly connected
components of the Cayley graphs (greens), and generation by closure.

Everything here reads the Cayley graphs over the table's generating set
A (table.generators): the rows g.x and columns x.g for g in A, O(m |A|)
entries for m elements.  The m x m product table is never built.

Indecomposables from the generator rows.  Let S be J-trivial and
generated by A.  Then a is indecomposable exactly when a is in A and no
g in A \ {a} and x != a give g.x = a.

  If a is not in A, a shortest word g_1 ... g_k for a over A has k >= 2,
  and a = g_1 . (g_2 ... g_k) with g_1 != a (a is not in A) and
  g_2 ... g_k != a (it has a shorter word), so a is decomposable.  If
  a is indecomposable, no g.x = a has both factors different from a.
  Conversely, let a in A be decomposable, a = b.c with b, c != a.  Both
  factors lie J-above a, and strictly so, as S is J-trivial.  A word over
  A for b that used a would put b J-below a, so b and c are products over
  A \ {a}, and so is a.  A shortest such word h_1 ... h_k has k >= 2,
  as a is not in A \ {a}; g = h_1 and x = h_2 ... h_k then give
  g.x = a with g in A \ {a}, and x != a, as x has a shorter word.

So the test reads each generator row once in C (a set intersection with
A, then a count of each generator found), O(m |A|) in all; it assumes no
rank formula from the paper.

Costs, for m elements, generating set A and G the indices passed in:
the Cayley graphs O(m |A|) compositions on packed images; the
J-triviality check O(m |A|) (Tarjan); indecomposables O(m |A|);
closure(G) O(m |G|) compositions plus O(|<G>| |G|) steps.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import families, formulas, greens, pinj, structure
from .errors import (
    ContractError,
    InvariantError,
    UnsupportedTableError,
    ValidationError,
)


def closure(table, generators):
    """Indices of the subsemigroup generated by the given indices.

    A breadth-first search from G over x -> x.g (g in G): every product
    g_1 ... g_k is reached from g_1 by right multiplications.  G may be
    any set of indices, not only generators of the table; each column
    x.g is composed on packed images (table.columns), O(m) per element
    of G, and the search takes O(|<G>| |G|) steps, not O(|<G>|^2).
    """
    seen = bytearray(table.size)
    queue = []
    for g in generators:
        if not 0 <= g < table.size:
            raise ValidationError(f"generator index {g} out of range")
        if not seen[g]:
            seen[g] = 1
            queue.append(g)
    columns = table.columns(queue)
    for x in queue:
        for col in columns:
            y = col[x]
            if not seen[y]:
                seen[y] = 1
                queue.append(y)
    return frozenset(queue)


def indecomposables(table):
    """Elements that are not products of two others: a is decomposable
    when a = b c with b != a and c != a (b = c allowed).

    On a J-trivial table these are the generators a in A such that no
    row g.x of another generator g holds a at a position x != a (see the
    module docstring for the proof).  A table that is not J-trivial is
    refused.
    """
    if not is_jtrivial(table):
        raise UnsupportedTableError("indecomposables need a J-trivial table")
    return _indecomposables(table)


def _indecomposables(table):
    """indecomposables on a table already checked to be J-trivial."""
    gens = frozenset(table.generators)
    # row.count(a) - (row[a] == a) counts the x != a with g.x = a; only
    # the generators that occur in the row at all are counted.
    decomposable = {
        a
        for g, row in zip(table.generators, table.generator_rows())
        for a in gens.intersection(row)
        if a != g and row.count(a) - (row[a] == a)
    }
    return gens - decomposable


def is_jtrivial(table):
    return greens.green(table, "J").is_identity


def element_kind(element, qprime_side):
    """Census kind of one element, family aware.

    On the identity-free side the overlap between essential and requisite
    (moved pair 2 -> 1 plus a fixed tail) counts as requisite, matching
    the census formulas; elsewhere the plain classification is used.
    """
    if not isinstance(element, pinj.PartialInjection):
        return "other"
    kind = pinj.classify(element)
    if qprime_side and kind == "essential" and pinj.is_requisite(element):
        return "requisite"
    return kind


def kind_census(table):
    """Per-kind, per-height counts of the table's real elements."""
    qp = table.family.qprime_side
    out = {}
    for i in range(table.size):
        el = table.element(i)
        if not isinstance(el, pinj.PartialInjection):
            continue
        kind = element_kind(el, qp)
        h = pinj.height(el)
        out.setdefault(kind, {})
        out[kind][h] = out[kind].get(h, 0) + 1
    return {k: dict(sorted(v.items())) for k, v in sorted(out.items())}


@dataclass
class GeneratorReport:
    family: str
    rank: int
    generators: dict
    formula: int | None = None
    agrees: bool | None = None
    jtrivial: bool = True

    def as_dict(self):
        out = {
            "family": self.family,
            "rank": self.rank,
            "generators": self.generators,
            "jtrivial": self.jtrivial,
        }
        if self.formula is not None:
            out["formula"] = self.formula
            out["agrees"] = self.agrees
        return out


def _group_generators(table, gens):
    spec = table.family
    groups = {"idempotents": [], "essentials": [], "requisites": [], "other": []}
    identity_text = None
    for g in sorted(gens):
        el = table.element(g)
        text = table.text_of(g)
        if g == table.identity_index and isinstance(el, pinj.PartialInjection) \
                and pinj.height(el) == spec.n:
            identity_text = text
            continue
        kind = element_kind(el, spec.qprime_side) + "s"
        groups[kind if kind in groups else "other"].append(text)
    out = {k: v for k, v in groups.items() if v}
    if identity_text is not None:
        out["identity"] = identity_text
    return out


def minimal_generating_set(table):
    """Minimum generating set and rank of a J-trivial table: the
    indecomposables, verified to generate.  A table that is not
    J-trivial is refused, since no exact method for it is implemented."""
    if not is_jtrivial(table):
        raise UnsupportedTableError("rank computation needs a J-trivial table")
    gens = _indecomposables(table)
    if closure(table, gens) != frozenset(range(table.size)):
        raise InvariantError(
            "indecomposables fail to generate a J-trivial table; table is corrupt"
        )
    spec = getattr(table, "family", None)
    formula = formulas.rank_formula(spec) if isinstance(spec, families.FamilySpec) else None
    return GeneratorReport(
        family=structure._label(table),
        rank=len(gens),
        generators=_group_generators(table, gens),
        formula=formula,
        agrees=None if formula is None else (formula == len(gens)),
    )


def no_smaller_generating_set(table):
    """Certificate that dropping any single minimum generator loses
    elements.  Exhaustive over the indecomposables, which every
    generating set must contain."""
    everything = frozenset(range(table.size))
    gens = sorted(indecomposables(table))
    for g in gens:
        rest = [x for x in gens if x != g]
        if closure(table, rest) == everything:
            return False
    return True


def _require_icn_member(alpha):
    if not (pinj.is_isotone(alpha) and pinj.is_decreasing(alpha)):
        raise ContractError(
            "factorizations are defined for isotone, order-decreasing elements"
        )


def factor_idempotent_quasi_chain(alpha):
    """Write alpha of height p as a product of p height-p factors, the
    i-th fixing everything settled so far and moving only x_i to a_i.

    Each factor is idempotent (when x_i = a_i) or a shift-one
    quasi-idempotent.  The empty map factors as the empty product.
    """
    _require_icn_member(alpha)
    n = alpha.n
    dom = pinj.domain(alpha)
    img = tuple(alpha.image_of(x) for x in dom)
    p = len(dom)
    out = []
    for i in range(p):
        pairs = [(img[j], img[j]) for j in range(i)]
        pairs.append((dom[i], img[i]))
        pairs.extend((dom[j], dom[j]) for j in range(i + 1, p))
        out.append(pinj.from_pairs(n, pairs))
    return out


def expand_quasi_to_essentials(eps):
    """Write a shift-one quasi-idempotent as a product of essentials.

    The moved point y with image y - s walks down one step at a time;
    the factors fix the fixed part throughout and compose in the order
    returned (largest step first).
    """
    _require_icn_member(eps)
    if pinj.shift(eps) != 1 or not pinj.is_quasi_idempotent(eps):
        raise ContractError("expected a quasi-idempotent with exactly one moved point")
    (y, a), = (
        (x, eps.image_of(x)) for x in pinj.domain(eps) if eps.image_of(x) != x
    )
    fixed = pinj.fixed_points(eps)
    n = eps.n
    out = []
    for j in range(y - a, 0, -1):
        pairs = [(f, f) for f in fixed]
        pairs.append((a + j, a + j - 1))
        out.append(pinj.from_pairs(n, pairs))
    return out


def essential_factorization(alpha, qprime_side=False):
    """Height-preserving factorization into idempotents and essentials.

    Runs the chain split with every quasi factor expanded.  On the
    identity-free side an element whose image contains 1 is first split
    off a requisite tail factor, which keeps every factor's domain away
    from 1; the requisite is returned last, unexpanded.
    """
    if qprime_side and alpha.image_of(1) is not None:
        raise ContractError("element is outside the identity-free family")
    tail = []
    if qprime_side and 1 in pinj.image(alpha):
        alpha, requisite = factor_requisite(alpha)
        tail = [requisite]
    out = []
    for step in factor_idempotent_quasi_chain(alpha):
        if pinj.is_idempotent(step):
            out.append(step)
        else:
            out.extend(expand_quasi_to_essentials(step))
    return out + tail


def factor_requisite(alpha):
    """Split alpha (image containing 1, domain omitting 1) as beta
    followed by a requisite with the same image.

    The requisite's moved block ends just below the least point missing
    from the image; beta pushes the low part of the domain up by one so
    the block can pull it back down.
    """
    _require_icn_member(alpha)
    if alpha.image_of(1) is not None:
        raise ContractError("expected an element whose domain omits 1")
    img = pinj.image(alpha)
    if 1 not in img:
        raise ContractError("expected an element whose image contains 1")
    n = alpha.n
    imgset = set(img)
    i = 1
    while i + 1 in imgset:
        i += 1
    i += 1  # least point not in the image; the moved block is {2, ..., i}
    tail = [a for a in img if a > i]
    req_pairs = [(j, j - 1) for j in range(2, i + 1)] + [(a, a) for a in tail]
    requisite = pinj.from_pairs(n, req_pairs)
    dom = pinj.domain(alpha)
    beta_pairs = []
    for j, x in enumerate(dom):
        target = alpha.image_of(x)
        beta_pairs.append((x, j + 2) if target < i else (x, target))
    beta = pinj.from_pairs(n, beta_pairs)
    if pinj.compose(beta, requisite) != alpha:
        raise InvariantError("requisite split failed to recompose")
    return beta, requisite


def _smallest_outside(n, used, count):
    """The count smallest points of the chain outside used."""
    free = [x for x in range(1, n + 1) if x not in used]
    if len(free) < count:
        raise ContractError("no room left on the chain for the lift")
    return free[:count]


def lift_height(alpha, kind):
    """Write alpha as a product of two elements one height higher.

    kind is "icn" (alpha idempotent or essential, height at most n-2) or
    "qprime" (alpha idempotent, essential or requisite with the census
    priority, height at most n-3; all constructed points avoid 1).
    """
    if kind not in (families.KIND_ICN, families.KIND_QPRIME):
        raise ContractError("lift_height supports the icn and qprime families")
    _require_icn_member(alpha)
    n = alpha.n
    p = pinj.height(alpha)
    qp = kind == families.KIND_QPRIME
    if qp and alpha.image_of(1) is not None:
        raise ContractError("element is outside the identity-free family")
    bound = n - 3 if qp else n - 2
    if p > bound:
        raise ContractError(f"lift needs height at most {bound}, got {p}")
    ekind = element_kind(alpha, qp)
    allowed = ("idempotent", "essential", "requisite") if qp else ("idempotent", "essential")
    if ekind not in allowed:
        raise ContractError(f"no lift for elements of kind {ekind!r} in this family")
    dom = pinj.domain(alpha)
    img = pinj.image(alpha)
    reserved = {1} if qp else set()
    if ekind == "idempotent":
        c, d = _smallest_outside(n, set(dom) | reserved, 2)
        left = pinj.partial_identity(n, dom + (c,))
        right = pinj.partial_identity(n, dom + (d,))
    elif ekind == "essential":
        (y,) = (x for x in dom if alpha.image_of(x) != x)
        (d,) = _smallest_outside(n, set(dom) | set(img) | reserved, 1)
        left_pairs = [(x, alpha.image_of(x)) for x in dom] + [(d, d)]
        left = pinj.from_pairs(n, left_pairs)
        right = pinj.partial_identity(n, dom + (y - 1,))
    else:
        d, c = _smallest_outside(n, set(dom) | set(img) | reserved, 2)
        left = pinj.partial_identity(n, dom + (d,))
        right_pairs = [(x, alpha.image_of(x)) for x in dom] + [(c, c)]
        right = pinj.from_pairs(n, right_pairs)
    if pinj.compose(left, right) != alpha:
        raise InvariantError("height lift failed to recompose")
    for part in (left, right):
        if pinj.height(part) != p + 1:
            raise InvariantError("height lift produced a factor of wrong height")
    return left, right


def maximal_subsemigroups(table):
    """All maximal subsemigroups of a J-trivial table, as the sorted
    indices whose complements they are.

    They are exactly the complements of single minimum generators.  Each
    complement is closed because its removed element is indecomposable,
    no product of two other elements (see the module docstring), and
    maximal because it misses a single element.  No other maximal
    subsemigroup exists because the generation check below shows the
    indecomposables generate: any proper subsemigroup misses one of
    them, so it sits inside one of these complements.  The tests compare
    the result with a brute-force search over every subset of small
    tables.
    """
    if not is_jtrivial(table):
        raise UnsupportedTableError("maximal subsemigroup search needs a J-trivial table")
    gens = _indecomposables(table)
    if closure(table, gens) != frozenset(range(table.size)):
        raise InvariantError("indecomposables fail to generate; table is corrupt")
    return sorted(gens)

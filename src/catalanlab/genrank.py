r"""Generating sets, ranks, constructive factorizations, and maximal
subsemigroups.

The rank computation rests on one fact: call an element indecomposable
when it is not a product of two elements both different from it.  The
table's generating set A (table.generators) is chosen in an order along
which every proper factorization climbs, so every family but I_n is
J-trivial and A is exactly its indecomposables, its unique minimum
generating set.  families.SemigroupTable._right_graph holds the proof,
which assumes no rank formula from the paper.  The rank, the minimum
generating set and the maximal subsemigroups are read off A, and
maximal_subsemigroups checks off A's columns that each a in A is
indecomposable.  I_n is J-trivial only for n = 1; any other is refused,
by the strongly connected components of its Cayley graphs (greens).

Everything else reads the Cayley graphs over A, O(m |A|) entries for m
elements; the m x m product table is never built.  Costs, for G the
indices passed in: A and its columns O(m |A|) compositions on packed
images, after an O(m log m) sort, plus an O(m |A|) search along the
columns that keeps its spanning tree, with no row built
(table.generator_lines); the J-triviality check on I_n O(m |A|)
(Tarjan), over A's rows as well;
maximal's check of A one scan of each held column, O(m |A|) reads;
closure(G) O(m |G|) compositions plus O(|<G>| |G|) steps.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import compress
from typing import NamedTuple

from . import families, formulas, pinj, structure
from .errors import (
    ContractError,
    InvariantError,
    RangeError,
    UnsupportedTableError,
    ValidationError,
)


def closure(table, generators):
    """Indices of the subsemigroup generated by the given indices.

    G and everything it reaches over x -> x.g (g in G), the nodes of the
    breadth-first search from G along G's columns (families._breadth_first):
    every product g_1 ... g_k is reached from g_1 by right
    multiplications.  G may be any set of indices, not only generators of
    the table, and is taken once each; each column x.g is composed on
    packed images (table.columns), O(m) per element of G, and the search
    takes O(|<G>| |G|) steps, not O(|<G>|^2).
    """
    gens = list(generators)
    for g in gens:
        if type(g) is bool or not isinstance(g, int):
            raise ValidationError(f"generator index must be an integer, got {g!r}")
        if not 0 <= g < table.size:
            raise ValidationError(f"generator index {g} out of range")
    gens = list(dict.fromkeys(gens))
    nodes, _, _ = families._breadth_first(gens, tuple(table.columns(gens)))
    return frozenset(nodes)


def indecomposables(table):
    """Elements that are not products of two others: a is decomposable
    when a = b c with b != a and c != a (b = c allowed).

    On a J-trivial table these are exactly table.generators (see the
    module docstring).  A table that is not J-trivial is refused.
    """
    return _minimum_generators(table, "indecomposables need")


def element_kind(element, qprime_side):
    """Census kind of one element, family aware.

    On the identity-free side the overlap between essential and requisite
    (moved pair 2 -> 1 plus a fixed tail) counts as requisite, matching
    the census formulas; elsewhere the plain classification is used.
    """
    if not isinstance(element, pinj.PartialInjection):
        return "other"
    kind = pinj.classify(element)
    if qprime_side and kind == "essential" and element.img[1] == 1:
        return "requisite"  # the one moved pair is 2 -> 1
    return kind


def kind_census(table):
    """Per-kind, per-height counts of the table's real elements."""
    qp = table.family.qprime_side
    out = defaultdict(Counter)
    for el in map(table.element, range(table.size)):
        if el is not families.REES_ZERO:
            out[element_kind(el, qp)][pinj.height(el)] += 1
    return {k: dict(sorted(v.items())) for k, v in sorted(out.items())}


class GeneratorReport(NamedTuple):
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
        text = table.text_of(g)
        if g == table.identity_index and table.height_of(g) == spec.n:
            identity_text = text
            continue
        kind = element_kind(table.element(g), spec.qprime_side) + "s"
        groups[kind if kind in groups else "other"].append(text)
    out = {k: v for k, v in groups.items() if v}
    if identity_text is not None:
        out["identity"] = identity_text
    return out


def _minimum_generators(table, refusal):
    """table.generators as a set: on a J-trivial table its indecomposables
    and unique minimum generating set.  Only an I_n can fail to be
    J-trivial; it is refused in the words of refusal, the computation
    that needs it."""
    if table.family.kind == families.KIND_SYMINV and not structure.is_jtrivial(table).holds:
        raise UnsupportedTableError(f"{refusal} a J-trivial table")
    return frozenset(table.generators)


def minimal_generating_set(table):
    """Minimum generating set and rank of a J-trivial table: its
    indecomposables.  A table that is not J-trivial is refused, since no
    exact method for it is implemented."""
    gens = _minimum_generators(table, "rank computation needs")
    formula = formulas.rank_formula(table.family)
    return GeneratorReport(
        family=table.family.label(),
        rank=len(gens),
        generators=_group_generators(table, gens),
        formula=formula,
        agrees=None if formula is None else (formula == len(gens)),
    )


def _require_icn_member(alpha):
    if not pinj.is_isotone_decreasing(alpha):
        raise ContractError(
            "factorizations are defined for isotone, order-decreasing elements"
        )
    if alpha.n > pinj.MAX_IMAGE:
        # A factor may fix or move to any point of the chain, and an image
        # value is stored in one byte.
        raise RangeError(
            f"factorizations take chains of at most {pinj.MAX_IMAGE} points, got {alpha.n}"
        )


# The chain steps built so far, shared by every factorization, each under
# one int key: ((mask << 8 | x) << 8 | a) << 8 | n for the step on the
# n-chain that fixes the points whose bits are set in mask (bit y for the
# point y) and, for x > 0, sends x to a.  n, x and a are at most
# MAX_IMAGE, a byte each, so no two steps share a key.  Elements are
# immutable, so one object serves every product it occurs in.  At most
# _STEPS_KEPT steps are kept; one built past that is returned, not kept.
_STEPS = {}
_STEPS_KEPT = 1 << 16

# The key of an essential b + 1 -> b minus that of b -> b - 1 over the
# same fixed part: x and a both fall by one.
_ESSENTIAL_STRIDE = 1 << 16 | 1 << 8

# A packed image as binary digits, 1 on the domain and 0 off it.
_DOMAIN_DIGITS = b"0" + b"1" * pinj.MAX_IMAGE


def _build_step(key):
    """The step that key names, built unchecked and kept while _STEPS
    holds fewer than _STEPS_KEPT; the proof is in essential_factorization."""
    n, a, x, mask = key & 255, key >> 8 & 255, key >> 16 & 255, key >> 24
    img = bytearray(y if mask >> y & 1 else 0 for y in range(1, n + 1))
    if x:
        img[x - 1] = a
    step = pinj._trusted(n, bytes(img))
    if len(_STEPS) < _STEPS_KEPT:
        _STEPS[key] = step
    return step


def _factor_walk(alpha, expand):
    """The factors of the chain split of alpha, in one walk over its pairs.

    With domain x_1 < ... < x_p and x_j alpha = a_j, step i fixes
    a_1, ..., a_{i-1} and x_{i+1}, ..., x_p and moves x_i to a_i.  fixed
    is the bit mask of that fixed part (bit x for the point x), updated
    between steps.  A step is kept whole, or with expand, a moving step
    is written as its essentials b + 1 -> b over the same fixed part, for
    b from x_i - 1 down to a_i.  Each factor is read from _STEPS by its
    key, and built there on a miss (_build_step):

      a step with x_i = a_i, a partial identity, by its own domain mask,
      so each partial identity is kept once;
      an essential b + 1 -> b by the fixed part and the pair (b + 1, b);
      an unexpanded move, which only factor_idempotent_quasi_chain
      builds, by the fixed part and the pair (x_i, a_i).

    Factoring all of IC_n fills the table with exactly
    2^n - 1 + (n - 1) 2^(n - 2) steps, every nonempty partial identity and
    every essential: 1,535 at n = 9 and 3,327 at n = 10.  A step holds
    the bytes the proof in essential_factorization is about.
    """
    n, img = alpha.n, alpha.img
    get = _STEPS.get
    build = _build_step
    stride = _ESSENTIAL_STRIDE
    fixed = int(img.translate(_DOMAIN_DIGITS)[::-1], 2) << 1  # the domain
    out = []
    append = out.append
    for x, a in compress(enumerate(img, 1), img):
        if x == a:
            key = fixed << 24 | n
            append(get(key) or build(key))
            continue
        fixed ^= 1 << x
        if expand:
            top = ((fixed << 8 | x) << 8 | x - 1) << 8 | n
            for key in range(top, top - (x - a) * stride, -stride):
                append(get(key) or build(key))
        else:
            key = ((fixed << 8 | x) << 8 | a) << 8 | n
            append(get(key) or build(key))
        fixed |= 1 << a
    return out


def factor_idempotent_quasi_chain(alpha):
    """Write alpha of height p as a product of p height-p factors, the
    i-th fixing everything settled so far and moving only x_i to a_i.

    Each factor is idempotent (when x_i = a_i) or a shift-one
    quasi-idempotent.  The empty map factors as the empty product.
    """
    _require_icn_member(alpha)
    return _factor_walk(alpha, expand=False)


def expand_quasi_to_essentials(eps):
    """Write a shift-one quasi-idempotent as a product of essentials.

    The moved point y with image y - s walks down one step at a time;
    the factors fix the fixed part throughout and compose in the order
    returned (largest step first).  Every shift-one element is
    quasi-idempotent (see pinj.classify), so only the shift is checked.
    The walk of eps keeps a partial identity for each fixed point, and at
    y its fixed part is every fixed point of eps; its other factors are
    the essentials.
    """
    _require_icn_member(eps)
    if pinj.shift(eps) != 1:
        raise ContractError("expected a quasi-idempotent with exactly one moved point")
    return [f for f in _factor_walk(eps, expand=True) if not pinj.is_idempotent(f)]


def essential_factorization(alpha, qprime_side=False):
    """Height-preserving factorization into idempotents and essentials.

    The chain split with every quasi factor expanded, built in one walk
    over the pairs x_i -> a_i of alpha (x_1 < ... < x_p), _factor_walk.
    Step i fixes a_1, ..., a_{i-1} and x_{i+1}, ..., x_p and moves x_i to
    a_i.  Since alpha is isotone and order-decreasing,
    a_{i-1} < a_i <= x_i < x_{i+1}:

      The step is injective and isotone, as its points and their images
      keep the order of that chain, and order-decreasing, as a_i <= x_i.
      It is idempotent exactly when x_i = a_i: otherwise a_i lies outside
      its domain (below x_i, and no fixed point equals it), so the square
      is undefined at x_i.  A moving step is the product of the x_i - a_i
      essentials a_i + j -> a_i + j - 1 over the same fixed part, for j
      from x_i - a_i down to 1; none of the points a_i + j, a_i + j - 1
      meets the fixed part, which lies below a_i or above x_i.  Steps
      1, ..., i - 1 send x_j to a_j for j < i and fix x_i, ..., x_p, and
      step i fixes those points but x_i, which it moves to a_i; so the
      steps compose to alpha.  So each factor extends a partial identity
      by one pair x -> a, with x outside its domain and a outside its
      image, which the walk builds unchecked.  That holds too for
      factor_idempotent_quasi_chain, which keeps each step whole, and for
      expand_quasi_to_essentials, which walks its isotone,
      order-decreasing input the same way.

    The walk tracks the fixed part as a bit mask and reads each factor
    from one table of steps shared by every factorization, keyed by the
    chain size, the mask and the moved pair (_STEPS): a factor is built
    from its key the first time it is met, with the bytes above, and at
    most _STEPS_KEPT = 65,536 are kept.  Elements are immutable, so a
    shared factor serves every product it occurs in.  Factoring all of
    IC_n keeps 2^n - 1 + (n - 1) 2^(n - 2) steps: 1,535 at n = 9.

    On the identity-free side an element whose image contains 1 is first
    split off a requisite tail factor (_split_requisite); the rest, beta,
    is again isotone and order-decreasing, with 1 in neither its domain
    nor its image, so no factor's domain holds 1.  The requisite is
    returned last, unexpanded.
    """
    if qprime_side and alpha.img[0]:
        raise ContractError("element is outside the identity-free family")
    _require_icn_member(alpha)
    if qprime_side and 1 in alpha.img:
        beta, requisite = _split_requisite(alpha)
        out = _factor_walk(beta, expand=True)
        out.append(requisite)
        return out
    return _factor_walk(alpha, expand=True)


def factor_requisite(alpha):
    """Split alpha (image containing 1, domain omitting 1) as beta
    followed by a requisite with the same image.

    The requisite's moved block ends just below the least point missing
    from the image; beta raises the low part of the image by one so the
    block can pull it back down.
    """
    _require_icn_member(alpha)
    if alpha.img[0]:
        raise ContractError("expected an element whose domain omits 1")
    if 1 not in alpha.img:
        raise ContractError("expected an element whose image contains 1")
    return _split_requisite(alpha)


def _split_requisite(alpha):
    """factor_requisite on an element already checked to meet its contract.

    The image holds 1, ..., i - 1 and then points above i, i being the
    least point it misses.  Isotone alpha sends the j-th domain point to j
    for j < i, and that point is at least j + 1, as the domain omits 1;
    so beta, which sends it to j + 1 instead, is again isotone and
    order-decreasing, with 1 in neither its domain nor its image.  Its
    values are distinct points of 2..i and the images above i, and i <= n
    since a domain omitting 1 holds at most n - 1 points; so beta is built
    unchecked.

    The requisite sends j to j - 1 for 2 <= j <= i and fixes each image
    point above i.  A point x with x alpha < i goes under beta to
    x alpha + 1, a point of 2..i, which the requisite sends back to
    x alpha; one with x alpha > i goes under beta to x alpha, which the
    requisite fixes.  So beta followed by the requisite is alpha.  The
    requisite's values, 1..i - 1 on 2..i and distinct points above i on
    themselves, are distinct points of 1..n, so it too is built
    unchecked.
    """
    n, img = alpha.n, alpha.img
    i = 2
    while i in img:
        i += 1  # the moved block of the requisite is {2, ..., i}
    requisite = bytearray(n)
    requisite[1:i] = range(1, i)
    for a in img:
        if a > i:
            requisite[a - 1] = a
    beta = bytes([a + 1 if 0 < a < i else a for a in img])
    return pinj._trusted(n, beta), pinj._trusted(n, bytes(requisite))


def _smallest_outside(n, used, count):
    """The count smallest points of the chain outside used; lift_bound
    leaves room for them, so a shortfall is a defect."""
    free = [x for x in range(1, n + 1) if x not in used]
    if len(free) < count:
        raise InvariantError("no room left on the chain for the lift")
    return free[:count]


def generator_kinds(qprime_side):
    """Kinds the factorizations build from, which are also the kinds
    lift_height takes: idempotents and essentials, plus requisites on the
    identity-free side."""
    return ("idempotent", "essential", "requisite")[: 3 if qprime_side else 2]


def lift_bound(n, qprime_side):
    """Greatest height lift_height takes on the n-chain: n - 2, or n - 3
    on the identity-free side, whose constructed points avoid 1."""
    return n - 3 if qprime_side else n - 2


def lift_height(alpha, kind):
    """Write alpha as a product of two elements one height higher.

    kind is "icn" or "qprime"; alpha must be of one of the
    generator_kinds of its side (with the census priority) and of height
    at most lift_bound (n - 2, or n - 3 on the identity-free side, where
    all constructed points avoid 1).

    Let D be the domain of alpha, of size p.  Each factor extends a map
    of height p by one fixed point outside its domain and its image, so
    both factors are injective and of height p + 1, and are built
    unchecked (_fixing).  In each kind the product is alpha:

      Idempotent: left fixes D + {c} and right D + {d}, for c != d
      outside D; the product fixes what both fix, D.
      Essential: alpha fixes D but y, sent to y - 1, which is not in D
      (alpha would be two-to-one on it).  left is alpha with d fixed, d
      outside D and the image of alpha; right fixes D + {y - 1}, which
      holds that image, so it keeps every value of left on D and drops d.
      Requisite: left fixes D + {d}, passing D unchanged to right, which
      is alpha with c != d fixed, c and d outside D and the image of
      alpha; right drops d.
    """
    if kind not in (families.KIND_ICN, families.KIND_QPRIME):
        raise ContractError("lift_height supports the icn and qprime families")
    _require_icn_member(alpha)
    n = alpha.n
    p = pinj.height(alpha)
    qp = kind == families.KIND_QPRIME
    if qp and alpha.img[0]:
        raise ContractError("element is outside the identity-free family")
    bound = lift_bound(n, qp)
    if bound < 0:
        raise ContractError(f"no element lifts on the {n}-chain in this family")
    if p > bound:
        raise ContractError(f"lift needs height at most {bound}, got {p}")
    ekind = element_kind(alpha, qp)
    if ekind not in generator_kinds(qp):
        raise ContractError(f"no lift for elements of kind {ekind!r} in this family")
    dom = pinj.domain(alpha)
    img = alpha.img
    fixes_dom = bytes(x if a else 0 for x, a in enumerate(img, 1))
    reserved = {1} if qp else set()
    if ekind == "idempotent":
        c, d = _smallest_outside(n, set(dom) | reserved, 2)
        return _fixing(img, c), _fixing(img, d)
    if ekind == "essential":
        (y,) = (x for x in dom if img[x - 1] != x)
        (d,) = _smallest_outside(n, set(dom) | set(img) | reserved, 1)
        return _fixing(img, d), _fixing(fixes_dom, y - 1)
    d, c = _smallest_outside(n, set(dom) | set(img) | reserved, 2)
    return _fixing(fixes_dom, d), _fixing(img, c)


def _fixing(img, point):
    """The map with packed image img and point fixed, unchecked:
    lift_height proves point lies outside its domain and its image."""
    out = bytearray(img)
    out[point - 1] = point
    return pinj._trusted(len(out), bytes(out))


def maximal_subsemigroups(table):
    """All maximal subsemigroups of a J-trivial table, as the sorted
    indices whose complements they are.

    They are exactly the complements of single minimum generators.  Each
    complement is closed because its removed element is indecomposable,
    no product of two other elements, and maximal because it misses a
    single element.  No other maximal subsemigroup exists because the
    indecomposables generate (see the module docstring): any proper
    subsemigroup misses one of them, so it sits inside one of these
    complements.  The tests compare the result with a brute-force search
    over every subset of small tables.

    That each a in A is indecomposable is checked, not taken from the
    order A was chosen in: no a is y.h with h in A, y != a and h != a, read
    off A's held columns (col_h[y] = y.h), one scan of each for the
    entries that lie in A; InvariantError otherwise.  On a J-trivial table
    generated by A this is exactly indecomposability.  Such a y.h is a
    product of two elements other than a.  Conversely let a = b.c with
    b, c != a, h the last letter of a word for c over A, and c = w.h with
    w in S^1.  h = a or w = a would put c in S^1 a S^1, and a = b.c is in
    S^1 c S^1, so c = a by J-triviality; so h, w != a.  Then y = b.w
    serves unless b.w = a, and then a = b.w with b, w != a (w = 1 would
    make a = b) and w a word one letter shorter than c's: induct on that
    length.
    """
    gens = _minimum_generators(table, "maximal subsemigroup search needs")
    in_gens = gens.__contains__
    for h, column in zip(table.generators, table.generator_lines(False)):
        for y in compress(range(table.size), map(in_gens, column)):
            a = column[y]
            if a != y and a != h:
                raise InvariantError(
                    f"{table.family.label()}: generator {table.text_of(a)} is the product"
                    f" of {table.text_of(y)} and {table.text_of(h)}"
                )
    return sorted(gens)

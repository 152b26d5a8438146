"""The verification battery: every published claim, recomputed from the
product tables and compared against its closed form.

CLAIMS is one ordered table.  Each section names a range of family
instances and the claims checked on every instance, in row order;
verification_report walks the table once and turns each (instance,
claim) pair into one row.  Row ids, claim strings and values are part of
the output contract.

Rows are evaluated one store group at a time (families.store_group: IC_n
with K(n,n), Q'_n with M(n,n-1), any other spec alone), each kept with
its position, and then put back in CLAIMS order.  A group's instances,
and so its tables, go when its last row is done.  A row reads only its
own instance, and another table only for the moment of its claim (the
inverse-ideal rows' IC_n and Q'_n), so no value depends on the order.

Other modules are always called through their module attributes
(greens.starred_L(...), never a from-import), so wrappers installed on
those attributes see every call the battery makes.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property, reduce
from itertools import count
from operator import itemgetter, methodcaller
from typing import Callable, NamedTuple

from . import families, formulas, genrank, greens, pinj, structure
from .errors import CapExceededError, ValidationError

DEFAULT_STARRED_CAP = 5
BATTERY_STARRED_CEILING = 7

ICN, QPRIME, SYMINV = families.KIND_ICN, families.KIND_QPRIME, families.KIND_SYMINV
K, M, RIC, RQ = families.KIND_K, families.KIND_M, families.KIND_RIC, families.KIND_RQ
# Every family except the unrestricted partial injections, in row order.
ORDERED_KINDS = (ICN, QPRIME, K, M, RIC, RQ)


class Instance:
    """One family instance under test.  Values that several claims read
    are computed on first use and then shared."""

    def __init__(self, spec):
        self.spec = spec
        self.n = spec.n
        self.tag = f"{spec.kind}-{spec.n}" + ("" if spec.p is None else f"-{spec.p}")

    @cached_property
    def table(self):
        return families.enumerate_family(self.spec)

    @cached_property
    def census(self):
        return genrank.kind_census(self.table)

    @cached_property
    def elements(self):
        """The real elements, without a Rees zero, made once."""
        table = self.table
        return [a for a in map(table.element, range(table.size)) if a is not families.REES_ZERO]

    @cached_property
    def lift_eligible(self):
        """The elements lift_height takes, by genrank's kinds and bound."""
        qprime_side = self.spec.qprime_side
        kinds = genrank.generator_kinds(qprime_side)
        bound = genrank.lift_bound(self.n, qprime_side)
        return [
            a
            for a in self.elements
            if genrank.element_kind(a, qprime_side) in kinds and pinj.height(a) <= bound
        ]

    def total(self, *kinds):
        """Number of real elements of the given census kinds."""
        return sum(sum(self.census.get(kind, {}).values()) for kind in kinds)

    def layer(self, height):
        """Indices of the elements of the given height."""
        return [i for i in range(self.table.size) if self.table.height_of(i) == height]


# ---------------------------------------------------------------------------
# status rules: (instance, expected, computed) -> row status


def _equal(x, expected, computed):
    return "pass" if expected == computed else "fail"


def _reported(x, expected, computed):
    """A published value that the computation contradicts is reported, not
    failed."""
    return "pass" if expected == computed else "paper-inconsistent"


def _reported_on_rq(x, expected, computed):
    # On the Rees quotient of the 1-omitting family, products with any
    # element other than a left identity collapse to zero once p >= 2, so
    # distinct images can share every right-multiplication kernel.  The
    # published equal-image characterization genuinely fails there; the
    # refutation is reported rather than treated as a suite failure.
    if x.spec.kind == RQ:
        return _reported(x, expected, computed)
    return _equal(x, expected, computed)


def _and_prefix(sequence, shift):
    """Equality that must also match the embedded sequence term at n + shift."""

    def status(x, expected, computed):
        if computed != sequence.value(x.n + shift):
            return "fail"
        return _equal(x, expected, computed)

    return status


def _witnessed(x, expected, computed):
    """Pass when the computed verdict is the expected text plus a witness."""
    return "pass" if computed.startswith(expected + " ") else "fail"


class Claim(NamedTuple):
    """One published statement, checked on each instance of its section.

    id is a format pattern over the instance's tag and n.  text and
    expected are values or callables of the instance; computed is a
    callable of the instance.  status maps (instance, expected, computed)
    to the row status.  when, if given, restricts the claim to the
    instances it accepts; family, if given, replaces the instance's label.
    """

    id: str
    text: object
    expected: object
    computed: Callable
    status: Callable = _equal
    when: Callable | None = None
    family: Callable | None = None


class Section:
    """Claims checked, in order, on every instance of kinds with
    n_lo <= n <= n_hi and each valid p.  n is further bounded by the
    battery argument named by bound: "n_max", "starred_n_max" or "both"
    (the smaller of the two)."""

    def __init__(self, kinds, n_lo, n_hi, *claims, bound="n_max"):
        self.kinds = kinds
        self.n_lo = n_lo
        self.n_hi = n_hi
        self.claims = claims
        self.bound = bound


def _row(x, claim):
    expected = claim.expected(x) if callable(claim.expected) else claim.expected
    computed = claim.computed(x)
    return {
        "id": claim.id.format(tag=x.tag, n=x.n),
        "claim": claim.text(x) if callable(claim.text) else claim.text,
        "family": x.spec.label() if claim.family is None else claim.family(x),
        "expected": expected,
        "computed": computed,
        "status": claim.status(x, expected, computed),
    }


# ---------------------------------------------------------------------------
# computed values


def _order(x):
    return x.table.size


def _vector(x, kind, heights):
    """Per-height census counts of one element kind, comma separated."""
    counts = x.census.get(kind, {})
    return ",".join(str(counts.get(h, 0)) for h in heights)


def _census_claim(rid, text, kind, heights):
    """Per-height count of one element kind against the published values;
    heights(x) lists the heights the statement covers."""
    return Claim(
        rid,
        text,
        lambda x: ",".join(
            str(formulas.count_formula(kind + "s", x.spec, h)) for h in heights(x)
        ),
        lambda x: _vector(x, kind, heights(x)),
    )


def _starred_counts(x):
    """Published right and left starred class counts of a Rees quotient:
    one class per domain and per image of the height, plus the zero."""
    domains = formulas._comb(x.n - 1 if x.spec.qprime_side else x.n, x.spec.p)
    return f"{domains + 1},{formulas._comb(x.n, x.spec.p) + 1}"


def _starred_class_counts(x):
    return f"{greens.starred_R(x.table).class_count},{greens.starred_L(x.table).class_count}"


# partition_by's readings of a packed image, apart from the kernel_groups
# they check: its set of bytes names the image (0 is in it exactly when
# the map is partial), its nonzero pattern the domain, its zeros the height.
_zeros = methodcaller("count", 0)


def _domain(image):
    return bytes(map(bool, image))


def _dstar_and_jstar_are_height(x):
    height = greens.partition_by(x.table, _zeros)
    return greens.starred_D(x.table) == height and greens.starred_J(x.table) == height


def _dstar_is_threefold_composite(x):
    lstar, rstar = greens.starred_L(x.table), greens.starred_R(x.table)
    dstar = greens.related_sets(greens.starred_D(x.table))
    return (
        dstar == greens.related_sets(rstar, lstar, rstar)
        and dstar == greens.related_sets(lstar, rstar, lstar)
    )


def _noncommute(x):
    """The published witness pair, the one-point identities on n - 1 and
    n, is in L* o R* but not in R* o L*."""
    a, b = (x.table.index(pinj.partial_identity(x.n, (pt,))) for pt in (x.n - 1, x.n))
    lstar, rstar = greens.starred_L(x.table), greens.starred_R(x.table)
    return (
        b in greens.related_sets(lstar, rstar)[a]
        and b not in greens.related_sets(rstar, lstar)[a]
    )


def _shown(report):
    """A property report as a row value: the verdict, with the witness
    attached when the property fails."""
    if report.witness and not report.holds:
        return f"{report.holds} (witness {report.witness})"
    return report.holds


def _left_abundance_refuted(x):
    rep = structure.is_left_abundant(x.table)
    return f"{rep.holds}" + (f" with witness {rep.witness}" if rep.witness else "")


def _sub(kind, x):
    """The table of the given kind on the instance's chain."""
    return families.enumerate_family(families.FamilySpec(kind, x.n))


def _inside(kind):
    return lambda x: f"{families.FamilySpec(kind, x.n).label()} in {x.spec.label()}"


def _top_idempotent_is_left_identity(x):
    table = x.table
    e = table.index(pinj.partial_identity(x.n, range(2, x.n + 1)))
    (row_e,), (col_e,) = table.lines([e], True), table.lines([e], False)
    everyone = tuple(range(table.size))
    top_idems = [i for i in structure.idempotent_indices(table) if table.height_of(i) == x.n - 1]
    return row_e == everyone and col_e != everyone and top_idems == [e]


def _top_layer_classes(x):
    top = x.layer(x.n - 1)
    rstar, lstar = greens.starred_R(x.table), greens.starred_L(x.table)
    r_classes = {rstar.class_of[i] for i in top}
    l_classes = {lstar.class_of[i] for i in top}
    return f"{len(r_classes)},{len(l_classes)}"


def _rank(x):
    return genrank.minimal_generating_set(x.table).rank


def _published_rank(x):
    return formulas.rank_formula(x.spec) is not None


def _maximal_count(x):
    return len(genrank.maximal_subsemigroups(x.table))


def _chain_factors_ok(x, alpha):
    qprime_side = x.spec.qprime_side
    factors = genrank.essential_factorization(alpha, qprime_side=qprime_side)
    h = pinj.height(alpha)
    if h == 0:
        return not factors
    return reduce(pinj.compose, factors) == alpha and all(
        pinj.height(f) == h
        and pinj.classify(f) in genrank.generator_kinds(qprime_side)
        and not (qprime_side and f.img[0])
        for f in factors
    )


def _requisite_split_ok(x, alpha):
    beta, req = genrank.factor_requisite(alpha)
    return (
        pinj.compose(beta, req) == alpha
        and families.is_member(beta, x.spec)
        and pinj.is_requisite(req)
        and pinj.image(req) == pinj.image(alpha)
        and pinj.domain(beta) == pinj.domain(alpha)
        and 1 not in pinj.image(beta)
    )


def _lift_ok(x, alpha):
    left, right = genrank.lift_height(alpha, x.spec.kind)
    h = pinj.height(alpha) + 1
    return pinj.compose(left, right) == alpha and all(
        pinj.height(f) == h and families.is_member(f, x.spec) for f in (left, right)
    )


def _blocked_outside_top_closure(x):
    closure = genrank.closure(x.table, x.layer(x.n - 1))
    layer = x.layer(x.n - 2)
    blocked = [
        i
        for i, a in zip(layer, map(x.table.element, layer))
        if genrank.element_kind(a, True) == "essential" and a.img[1]
    ]
    return bool(blocked) and all(i not in closure for i in blocked)


def _member_inside_top_closure(x):
    member = pinj.from_pairs(x.n, [(3, 2)] + [(j, j) for j in range(4, x.n + 1)])
    return x.table.index(member) in genrank.closure(x.table, x.layer(x.n - 1))


def _two_layers_generate(x):
    gens = x.layer(x.n - 1) + x.layer(x.n - 2)
    return genrank.closure(x.table, gens) == frozenset(range(x.table.size))


# ---------------------------------------------------------------------------
# the claim table, in row order


def _formula(kind):
    """Published census total of one kind, from formulas.count_formula."""
    return lambda x: formulas.count_formula(kind, x.spec)


def _total(*kinds):
    return lambda x: x.total(*kinds)


def _rank_formula(x):
    return formulas.rank_formula(x.spec)


def _kind(kind):
    return lambda x: x.spec.kind == kind


def _from(n):
    return lambda x: x.n >= n


_ABUNDANT = Claim(
    "abundant-{tag}", "every starred class on either side contains an idempotent",
    True, lambda x: _shown(structure.is_abundant(x.table)))
_RIGHT_ABUNDANT = Claim(
    "right-abundant-{tag}", "every right starred class contains an idempotent",
    True, lambda x: _shown(structure.is_right_abundant(x.table)))
_NOT_LEFT_ABUNDANT = Claim(
    "not-left-abundant-{tag}", "some left starred class contains no idempotent",
    "False with witness", _left_abundance_refuted, _witnessed)
_REGULAR = Claim(
    "regular-matches-idempotents-{tag}", "the regular elements are exactly the idempotents",
    True,
    lambda x: structure.regular_elements(x.table) == structure.idempotent_indices(x.table))
_NONCOMMUTE = Claim(
    "noncommute-{tag}",
    "the one-sided starred relations fail to commute at the published witness pair",
    True, _noncommute)
_LIFT = Claim(
    "lift-{tag}",
    lambda x: f"all {len(x.lift_eligible)} eligible generators split into two"
    " in-family factors one height up",
    0, lambda x: sum(not _lift_ok(x, a) for a in x.lift_eligible))

CLAIMS = (
    # orders
    Section((ICN,), 1, 10,
        Claim("order-{tag}", "order equals catalan(n+1)",
              lambda x: formulas.catalan(x.n + 1), _order)),
    Section((QPRIME,), 1, 10,
        Claim("order-{tag}", "order equals catalan(n+1) - catalan(n) and the embedded prefix",
              lambda x: formulas.t(x.n), _order, _and_prefix(formulas.A000245, 0))),
    Section((SYMINV,), 1, 5,
        Claim("order-{tag}", "order equals sum of C(n,k)^2 k!",
              lambda x: formulas.syminv_order(x.n), _order)),
    # element censuses
    Section((ICN,), 1, 8,
        Claim("idem-total-{tag}", "idempotent count equals 2^n",
              _formula("idempotents"), _total("idempotent")),
        _census_claim("idem-heights-{tag}", "idempotent count at height p equals C(n,p)",
                      "idempotent", lambda x: range(x.n + 1))),
    Section((QPRIME,), 1, 8,
        Claim("idem-total-{tag}", "idempotent count equals 2^(n-1)",
              _formula("idempotents"), _total("idempotent")),
        _census_claim("idem-heights-{tag}", "idempotent count at height p equals C(n-1,p)",
                      "idempotent", lambda x: range(x.n))),
    Section((ICN,), 2, 8,
        Claim("essential-total-{tag}",
              "essential count equals (n-1) 2^(n-2) and the embedded prefix",
              _formula("essentials"), _total("essential"),
              _and_prefix(formulas.A001787, -1)),
        _census_claim("essential-heights-{tag}",
                      "essential count at height p equals (n-1) C(n-2,p-1)",
                      "essential", lambda x: range(1, x.n)),
        Claim("essential-triangle-{tag}",
              "per-height essential counts match the embedded triangle row",
              lambda x: ",".join(str(v) for v in formulas.essential_triangle_row(x.n - 1)),
              lambda x: _vector(x, "essential", range(1, x.n)),
              when=lambda x: x.n <= 7)),
    Section((QPRIME,), 2, 8,
        _census_claim("essential-heights-{tag}",
                      "essential count at height p equals (n-2) C(n-3,p-1)",
                      "essential", lambda x: range(1, x.n - 1)),
        _census_claim("requisite-heights-{tag}",
                      "requisite count at height p equals C(n-1,p-1)",
                      "requisite", lambda x: range(1, x.n))),
    Section((RIC, RQ), 2, 6,
        Claim("idem-{tag}", "non-zero idempotent count matches the published binomial",
              _formula("idempotents"), _total("idempotent")),
        Claim("essential-{tag}", "essential count matches the published formula",
              _formula("essentials"), _total("essential")),
        Claim("generator-{tag}",
              "idempotents, essentials and requisites together match the"
              " published generator count",
              _formula("generators"), _total("idempotent", "essential", "requisite"),
              when=_kind(RQ)),
        Claim("requisite-{tag}", "requisite count equals C(n-1,p-1)",
              _formula("requisites"), _total("requisite"), when=_kind(RQ)),
        Claim("generator-{tag}",
              "idempotents and essentials together match the published generator count",
              _formula("generators"), _total("idempotent", "essential"), when=_kind(RIC)),
        Claim("generator-triangle-{tag}",
              "generator count matches the embedded triangle entry",
              lambda x: formulas.generator_triangle_row(x.n)[x.spec.p],
              _total("idempotent", "essential"), when=_kind(RIC))),
    # classical and starred relations
    Section(ORDERED_KINDS, 1, 5,
        Claim("green-trivial-{tag}", "all five classical relations are identity partitions",
              True, lambda x: all(
                  greens.green(x.table, rel).is_identity for rel in greens.GREEN_NAMES))),
    # greens keys one line per image (domain), so "equal image gives L*"
    # ("equal domain gives R*") holds by the lemma in its docstring; what
    # these two rows still compute is that different images (domains) never
    # share a key, which fails only on RQ'_n(p) with p >= 2.
    Section(ORDERED_KINDS, 1, BATTERY_STARRED_CEILING,
        Claim("lstar-image-{tag}", "the left starred relation is the equal-image partition",
              True, lambda x: greens.starred_L(x.table) == greens.partition_by(x.table, frozenset),
              _reported_on_rq),
        Claim("rstar-domain-{tag}",
              "the right starred relation is the equal-domain partition",
              True, lambda x: greens.starred_R(x.table) == greens.partition_by(x.table, _domain)),
        Claim("hstar-identity-{tag}", "the starred meet relation is the identity partition",
              True, lambda x: greens.starred_H(x.table).is_identity, _reported_on_rq),
        Claim("starcount-{tag}",
              "right and left starred class counts match the published"
              " values (zero contributes one class to each)",
              _starred_counts, _starred_class_counts,
              _reported_on_rq, when=lambda x: x.spec.is_rees),
        Claim("dstar-jstar-height-{tag}",
              "the starred join and starred ideal relations both equal the"
              " equal-height partition",
              True, _dstar_and_jstar_are_height),
        Claim("dstar-compose-{tag}",
              "the starred join equals both three-fold compositions of the"
              " one-sided starred relations",
              True, _dstar_is_threefold_composite),
            bound="starred_n_max"),
    Section((ICN,), 2, 2, _NONCOMMUTE, bound="both"),
    Section((QPRIME,), 3, 3, _NONCOMMUTE, bound="both"),
    # abundance, adequacy, ampleness, inverse ideals
    Section((ICN,), 1, 5,
        _ABUNDANT._replace(when=_from(2)),
        Claim("adequate-{tag}", "abundant with commuting idempotents closed under product",
              True, lambda x: _shown(structure.is_adequate(x.table)), when=_from(2)),
        Claim("ample-{tag}",
              "both ample identities hold against the unique side idempotents",
              True, lambda x: _shown(structure.is_ample(x.table)), when=_from(2)),
        Claim("ample-{tag}", "no published assertion at n = 1; computed value reported",
              None, lambda x: structure.is_ample(x.table).holds, lambda *_: "skipped",
              when=lambda x: x.n == 1),
        _REGULAR,
        Claim("semilattice-{tag}", "the idempotents commute and are closed under product",
              True, lambda x: _shown(structure.is_semilattice_of_idempotents(x.table)))),
    Section((QPRIME,), 1, 5,
        _RIGHT_ABUNDANT,
        Claim("right-adequate-{tag}", "right abundant with a semilattice of idempotents",
              True, lambda x: _shown(structure.is_right_adequate(x.table))),
        Claim("right-ample-{tag}",
              "the one-sided ample identity holds against the unique"
              " right starred idempotents",
              True, lambda x: _shown(structure.is_right_ample(x.table))),
        _REGULAR,
        _NOT_LEFT_ABUNDANT._replace(when=_from(2))),
    Section((K, RIC), 1, 5, _ABUNDANT),
    Section((M, RQ), 2, 5, _RIGHT_ABUNDANT, _NOT_LEFT_ABUNDANT),
    Section(ORDERED_KINDS, 1, 5,
        Claim("unique-idempotent-rstar-{tag}",
              "every right starred class contains exactly one idempotent",
              True, lambda x: _shown(structure.unique_idempotent_per_rstar_class(x.table)))),
    Section((SYMINV,), 1, 4,
        Claim("inverse-ideal-icn-{n}",
              "every element has a generalized inverse in the ambient monoid"
              " with both products falling back inside",
              True, lambda x: _shown(structure.is_inverse_ideal(_sub(ICN, x))),
              family=_inside(ICN)),
        Claim("right-inverse-ideal-qprime-{n}",
              "every element has a generalized inverse in the ambient monoid"
              " with the right product falling back inside",
              True,
              lambda x: _shown(structure.is_right_inverse_ideal(_sub(QPRIME, x))),
              family=_inside(QPRIME)),
        Claim("not-inverse-ideal-qprime-{n}", "the two-sided fallback fails for some element",
              False, lambda x: structure.is_inverse_ideal(_sub(QPRIME, x)).holds,
              when=_from(2), family=_inside(QPRIME))),
    Section((QPRIME,), 2, 5,
        Claim("left-identity-{tag}",
              "the unique top idempotent is a left identity but not a right identity",
              True, _top_idempotent_is_left_identity)),
    Section((QPRIME,), 2, 5,
        Claim("top-layer-classes-{tag}",
              "the top height layer has one right starred class and n left"
              " starred classes",
              lambda x: f"1,{x.n}", _top_layer_classes),
            bound="starred_n_max"),
    # ranks and maximal subsemigroups
    Section((ICN,), 2, 6,
        Claim("rank-{tag}", "rank equals 2n", _rank_formula, _rank)),
    Section((K, RIC), 2, 6,
        Claim("rank-{tag}", "rank equals (n-1) C(n-2,p-1) + C(n,p)", _rank_formula, _rank,
              when=_published_rank)),
    Section((M, RQ), 2, 6,
        Claim("rank-{tag}", "rank equals C(n,p) + (n-2) C(n-3,p-1)", _rank_formula, _rank,
              when=_published_rank)),
    Section((QPRIME,), 2, 6,
        Claim("rank-{tag}", "rank equals n^2 - 3n + 4", _rank_formula, _rank,
              when=lambda x: x.n <= 3),
        # The published n^2 - 3n + 4 first disagrees with brute force at
        # n = 4 (computed rank 7): the published derivation counts the
        # second-layer essentials inconsistently with its own census.
        Claim("rank-{tag}",
              "published value n^2 - 3n + 4 reported beside the brute"
              " force rank; disagreement is reported, not failed",
              _rank_formula, _rank, _reported, when=_from(4))),
    Section((ICN,), 2, 6,
        Claim("maximal-{tag}", "exactly 2n maximal subsemigroups, each verified",
              _formula("maximal"), _maximal_count)),
    Section((QPRIME,), 3, 6,
        Claim("maximal-{tag}", "exactly n^2 - 3n + 4 maximal subsemigroups, each verified",
              _formula("maximal"), _maximal_count, when=lambda x: x.n == 3),
        Claim("maximal-{tag}",
              "published count n^2 - 3n + 4 reported beside the brute"
              " force count; disagreement is reported, not failed",
              _formula("maximal"), _maximal_count, _reported, when=_from(4))),
    # factorizations, lifts and the generation boundary
    Section((ICN,), 1, 5,
        Claim("factor-chain-{tag}",
              "every element recomposes from idempotent or essential"
              " factors of its own height",
              0, lambda x: sum(not _chain_factors_ok(x, a) for a in x.elements))),
    Section((QPRIME,), 2, 5,
        Claim("factor-chain-{tag}",
              "every element recomposes from in-family idempotent,"
              " essential or requisite factors of its own height",
              0, lambda x: sum(not _chain_factors_ok(x, a) for a in x.elements)),
        Claim("factor-requisite-{tag}",
              "every element whose image contains 1 splits into a domain"
              " preserving left factor and the requisite with its image",
              0, lambda x: sum(
                  not _requisite_split_ok(x, a) for a in x.elements if 1 in pinj.image(a)))),
    Section((ICN,), 2, 5, _LIFT),
    Section((QPRIME,), 3, 5, _LIFT),
    Section((QPRIME,), 4, 5,
        Claim("boundary-blocked-{tag}",
              "every second-layer essential with 2 in its domain stays"
              " outside the closure of the top layer",
              True, _blocked_outside_top_closure),
        Claim("boundary-member-{tag}",
              "the second-layer essential moving only 3 to 2 lies inside"
              " the closure of the top layer",
              True, _member_inside_top_closure),
        Claim("boundary-two-layers-{tag}",
              "the top two height layers together generate everything",
              True, _two_layers_generate)),
)


def _pending_rows(bounds):
    """Every row of CLAIMS under the bounds, as (position in row order,
    instance, claim), listed by store group (families.store_group) in
    order of first row.  One instance per spec, shared by every section
    that names it; no table is built here."""
    pending = defaultdict(list)
    instances = {}
    positions = count()
    for section in CLAIMS:
        top = min(section.n_hi, bounds[section.bound])
        for kind in section.kinds:
            for n in range(section.n_lo, top + 1):
                for p in families._valid_heights(kind, n):
                    spec = families.FamilySpec(kind, n, p)
                    x = instances.get(spec)
                    if x is None:
                        x = instances[spec] = Instance(spec)
                    pending[families.store_group(spec)].extend(
                        (next(positions), x, claim)
                        for claim in section.claims
                        if claim.when is None or claim.when(x)
                    )
    return pending


def verification_report(n_max=4, starred_n_max=None):
    """Run the whole claim battery and return rows plus summary counts."""
    if n_max < 1:
        raise ValidationError(f"the verification bound must be at least 1, got {n_max}")
    if starred_n_max is None:
        starred_n_max = min(n_max, DEFAULT_STARRED_CAP)
    if starred_n_max < 1:
        raise ValidationError(
            f"the starred verification bound must be at least 1, got {starred_n_max}"
        )
    if starred_n_max > BATTERY_STARRED_CEILING:
        raise CapExceededError(
            f"the starred battery is capped at n = {BATTERY_STARRED_CEILING}"
        )
    both = min(n_max, starred_n_max)
    bounds = {"n_max": n_max, "starred_n_max": starred_n_max, "both": both}
    pending = _pending_rows(bounds)
    # One group at a time: its list, and with it its instances and their
    # tables, goes once its rows are made.
    rows = []
    for group in list(pending):
        rows.extend((position, _row(x, claim)) for position, x, claim in pending.pop(group))
    rows = [row for _, row in sorted(rows, key=itemgetter(0))]
    summary = {"pass": 0, "fail": 0, "paper-inconsistent": 0, "skipped": 0}
    for row in rows:
        summary[row["status"]] += 1
    return {
        "n_max": n_max,
        "starred_n_max": starred_n_max,
        "rows": rows,
        "summary": summary,
    }

"""Green's relations, plain and starred, against definitional brute oracles.

The library computes L* through kernel signatures; the oracle here goes
back to the definition: a and b are L*-related when ax = ay and bx = by
hold for exactly the same pairs x, y over the table with an identity
adjoined if the table lacks one.  Same idea, transposed, for R*.
"""

import random
from collections import defaultdict
from itertools import combinations

import pytest
from conftest import (
    DIFFERENTIAL_SPECS,
    green_by_ideals,
    kernel_key,
    kernel_key_starred,
    related_pairs,
    relation_compose,
    relation_pairs,
    star_ideal_J,
    transitive_closure_join,
)
from test_structure import FakeTable

from catalanlab import families, greens, pinj
from catalanlab.errors import ValidationError
from catalanlab.families import KINDS, FamilySpec
from catalanlab.greens import GREEN_NAMES, IndexPartition, partition_by

PLAIN_SPECS = [
    FamilySpec("icn", 3),
    FamilySpec("icn", 4),
    FamilySpec("qprime", 4),
    FamilySpec("k", 4, 2),
    FamilySpec("m", 4, 2),
    FamilySpec("ric", 4, 2),
    FamilySpec("rq", 4, 2),
    FamilySpec("rq", 4, 1),
    FamilySpec("rq", 5, 2),
    FamilySpec("rq", 5, 3),
]


def oracle_values(table, a, transpose):
    """The values ax (xa when transposed) for x over S^1: one per table
    position, then a itself for an adjoined identity if the table has none."""
    rows = table.product_rows()
    m = table.size
    if transpose:
        vals = [rows[x][a] for x in range(m)]
    else:
        vals = list(rows[a])
    if table.identity_index is None:
        vals.append(a)
    return vals


def oracle_agreement_pairs(table, a, transpose):
    """All (x, y) with ax = ay (or xa = ya when transposed), over S^1."""
    vals = oracle_values(table, a, transpose)
    agree = set()
    for x in range(len(vals)):
        for y in range(x + 1, len(vals)):
            if vals[x] == vals[y]:
                agree.add((x, y))
    return frozenset(agree)


def oracle_kernel_blocks(table, a, transpose):
    """The kernel of x -> ax (x -> xa when transposed) over S^1 as its set
    of blocks.  Two elements have the same blocks exactly when they have
    the same agreement pairs, at O(m) per element instead of O(m^2)."""
    blocks = defaultdict(set)
    for x, v in enumerate(oracle_values(table, a, transpose)):
        blocks[v].add(x)
    return frozenset(map(frozenset, blocks.values()))


def oracle_starred(table, transpose, key=oracle_agreement_pairs):
    keys = [key(table, a, transpose) for a in range(table.size)]
    return IndexPartition.from_keys(keys)


# ---------------------------------------------------------------- partitions


def test_index_partition_basics():
    part = IndexPartition.from_groups(5, [(3, 1), (0,), (2, 4)])
    assert part.classes == ((0,), (1, 3), (2, 4))
    assert part.class_of == (0, 1, 2, 1, 2)
    assert part.class_count == 3
    assert part.max_class_size == 2
    assert not part.is_identity
    assert part.class_members(3) == (1, 3)
    assert part.same(1, 3)
    assert not part.same(0, 1)
    assert (1, 3) in relation_pairs(part) and (3, 1) in relation_pairs(part)
    assert (0, 0) in relation_pairs(part)


def test_index_partition_from_keys_and_equality():
    part = IndexPartition.from_keys(["a", "b", "a", "c"])
    assert part.classes == ((0, 2), (1,), (3,))
    assert part == IndexPartition.from_groups(4, [(0, 2), (1,), (3,)])
    assert hash(part) == hash(IndexPartition.from_groups(4, [(0, 2), (1,), (3,)]))
    ident = IndexPartition.from_keys(range(3))
    assert ident.is_identity


def test_index_partition_rejects_non_cover():
    with pytest.raises(ValidationError):
        IndexPartition.from_groups(3, [(0, 1)])


# ------------------------------------------------------------ plain relations


def test_plain_relations_are_trivial_on_ordered_families():
    for spec in PLAIN_SPECS:
        table = families.enumerate_family(spec)
        for which in ("L", "R", "H", "D", "J"):
            assert greens.green(table, which).is_identity, (spec, which)


def test_plain_relations_on_unrestricted_injections():
    # the classic characterization: L by image, R by domain, D = J by height
    for n in (2, 3):
        table = families.enumerate_family(FamilySpec("syminv", n))
        by_image = partition_by(table, lambda a: pinj.image(a))
        by_domain = partition_by(table, lambda a: pinj.domain(a))
        by_height = partition_by(table, lambda a: pinj.height(a))
        assert greens.green(table, "L") == by_image
        assert greens.green(table, "R") == by_domain
        assert greens.green(table, "D") == by_height
        assert greens.green(table, "J") == by_height
        h = greens.green(table, "H")
        want_h = IndexPartition.from_keys(
            list(zip(by_image.class_of, by_domain.class_of))
        )
        assert h == want_h
        assert not greens.green(table, "L").is_identity


def test_green_rejects_unknown_relation():
    table = families.enumerate_family(FamilySpec("icn", 2))
    with pytest.raises(ValidationError):
        greens.green(table, "X")
    with pytest.raises(ValidationError):
        greens.starred(table, "L")


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=lambda s: s.label())
def test_classical_relations_match_the_ideal_oracle(spec):
    table = families.enumerate_family(spec)
    for which, want in green_by_ideals(table).items():
        assert greens.green(table, which) == want, which


def test_components_of_a_long_path_and_cycle_need_no_recursion():
    # 0 -> 1 -> ... -> m-1 is m singletons; closing the loop makes one class
    m = 20_000
    path = [[x + 1] for x in range(m - 1)] + [[]]
    assert greens._components(path).is_identity
    cycle = path[:-1] + [[0]]
    assert greens._components(cycle).class_count == 1
    # two 2-cycles joined by a one-way edge stay two classes
    assert greens._components([[1], [0, 2], [3], [2]]).classes == ((0, 1), (2, 3))


# ---------------------------------------------------------- starred relations


def test_starred_L_and_R_match_definitional_oracle():
    for spec in PLAIN_SPECS + [FamilySpec("syminv", 3)]:
        table = families.enumerate_family(spec)
        assert greens.starred_L(table) == oracle_starred(table, transpose=False), spec
        assert greens.starred_R(table) == oracle_starred(table, transpose=True), spec
    # Agreement pairs cost O(m^3) per table; kernel blocks carry the same
    # information and reach every differential table, Rees quotients and
    # ideals included.
    for spec in DIFFERENTIAL_SPECS:
        table = families.enumerate_family(spec)
        left = oracle_starred(table, transpose=False, key=oracle_kernel_blocks)
        right = oracle_starred(table, transpose=True, key=oracle_kernel_blocks)
        assert greens.starred_L(table) == left, spec
        assert greens.starred_R(table) == right, spec


def test_kernel_key_by_hand():
    assert kernel_key([]) == ()
    assert kernel_key((7,)) == (0,)
    assert kernel_key([5, 3, 5, 3, 9]) == (0, 1, 0, 1, 4)
    assert kernel_key((2, 2, 2)) == (0, 0, 0)
    assert kernel_key((4, 1, 2, 0)) == (0, 1, 2, 3)
    # list and tuple rows give the same key; equal kernels, equal keys
    assert kernel_key([1, 0, 1]) == kernel_key((1, 0, 1))
    assert kernel_key((8, 6, 8)) == kernel_key((0, 9, 0))
    assert kernel_key((8, 6, 8)) != kernel_key((8, 8, 6))


def test_first_occurrence_labels_by_hand():
    key = greens._kernel_key
    assert key([]) == b""
    assert key((7,)) == b"\0"
    assert key([5, 3, 5, 3, 9]) == bytes((0, 1, 0, 1, 2))
    assert key((2, 2, 2)) == bytes(3)
    # list and tuple rows give the same key; equal kernels, equal keys
    assert key([1, 0, 1]) == key((1, 0, 1))
    assert key((8, 6, 8)) == key((0, 9, 0))
    assert key((8, 6, 8)) != key((8, 8, 6))
    # more than 256 labels fall back to a tuple, with the same labels
    assert key([*range(300, 0, -1), 300]) == (*range(300), 0)
    # the adjoined position joins the block of the value it holds, or
    # is a block of its own (-1) when no position holds that value
    assert key([5, 3, 5], adjoined=3) == (bytes((0, 1, 0)), 1)
    assert key([5, 3, 5], adjoined=4) == (bytes((0, 1, 0)), -1)
    assert key([5, 3, 5], adjoined=4) == key([6, 1, 6], adjoined=2)
    assert key([5, 3, 5], adjoined=3) != key([5, 3, 5], adjoined=5)


def test_starred_L_and_R_match_the_old_kernel_key():
    # Q'_n has no identity, so an identity is adjoined; IC_n and the
    # ideals K_n(p) have one; the Rees quotients have a zero.
    for spec in DIFFERENTIAL_SPECS + [FamilySpec("qprime", 7)]:
        table = families.enumerate_family(spec)
        assert greens.starred_L(table) == kernel_key_starred(table, False), spec
        assert greens.starred_R(table) == kernel_key_starred(table, True), spec


def test_starred_J_matches_the_saturated_star_ideals():
    for spec in DIFFERENTIAL_SPECS + [FamilySpec("qprime", 7)]:
        table = families.enumerate_family(spec)
        if table.size <= 250:
            want = star_ideal_J(table)
        else:
            # One saturation per D*-class, with D* from the oracles.
            dstar = transitive_closure_join(
                kernel_key_starred(table, False), kernel_key_starred(table, True),
                table.size,
            )
            want = star_ideal_J(table, dstar)
        assert greens.starred_J(table) == want, spec


def test_starred_J_is_reachability_on_arbitrary_tables():
    # On a duck-typed table every element serves as A, so the components
    # are mutual reachability over whole rows and columns and the starred
    # classes: exactly what star_ideal saturates, whether or not the
    # product is associative.  Random tables have ideals that merge
    # several D*-classes, which no family table here has; the next test
    # has a semigroup that does.
    rng = random.Random(5)
    merged = 0
    for _ in range(300):
        m = rng.randint(1, 7)
        table = FakeTable([[rng.randrange(m) for _ in range(m)] for _ in range(m)])
        want = star_ideal_J(table)
        assert greens.starred_J(table) == want
        merged += want != greens.starred_D(table)
    assert merged > 10


def generated_table(gens, ideal_of):
    """The semigroup of maps on 0..n generated by gens, with 0 a fixed
    sink (a partial map sends its undefined points there) and products
    composed left to right, taken modulo the principal ideal of the map
    ideal_of: the ideal collapses into a zero, the last index.  The
    images of gens are the table's generating set A."""
    elements = list(dict.fromkeys(gens))
    index = {x: i for i, x in enumerate(elements)}
    for x in elements:  # grows as products are found
        for g in gens:
            xg = tuple(g[p] for p in x)
            if xg not in index:
                index[xg] = len(elements)
                elements.append(xg)
    rows = [[index[tuple(y[p] for p in x)] for y in elements] for x in elements]
    top = index[ideal_of]
    everything = range(len(rows))
    # S^1 x S^1: x, then x.v, u.x and u.x.v for u, v in S
    ideal = {top, *rows[top], *(rows[u][top] for u in everything)}
    ideal |= {rows[u][xv] for u in everything for xv in rows[top]}
    kept = [x for x in range(len(rows)) if x not in ideal]
    new = {x: i for i, x in enumerate(kept)}
    zero = len(kept)
    table = FakeTable(
        [[new.get(rows[x][y], zero) for y in kept] + [zero] for x in kept]
        + [[zero] * (zero + 1)]
    )
    table.generators = tuple(dict.fromkeys(new.get(index[g], zero) for g in gens))
    return table


def test_starred_J_on_a_semigroup_where_it_differs_from_D_star():
    # 72 maps on five points, modulo one principal ideal: J* merges two
    # D*-classes here, so the components must come from the edges
    # between classes, read over A.
    table = generated_table(
        [(0, 2, 4, 3, 0, 0), (0, 4, 0, 2, 1, 5), (0, 0, 1, 2, 4, 3)],
        ideal_of=(0, 0, 4, 0, 1, 2),
    )
    rows = table.product_rows()
    m = table.size
    assert m == 33
    assert all(
        rows[rows[a][b]][c] == rows[a][rows[b][c]]
        for a in range(m) for b in range(m) for c in range(m)
    )
    want = star_ideal_J(table)
    assert greens.starred_J(table) == want
    assert (greens.starred_D(table).class_count, want.class_count) == (7, 6)
    # The opposite semigroup swaps left and right, so both kinds of edge
    # are needed between them; J* is the same partition.
    opposite = FakeTable(list(zip(*rows)))
    opposite.generators = table.generators
    assert greens.starred_J(opposite) == star_ideal_J(opposite) == want


def test_starred_J_calls_neither_green_nor_star_ideal(monkeypatch):
    def refuse(*_args):
        raise AssertionError("starred_J must read the table, not this")

    monkeypatch.setattr(greens, "green", refuse)
    monkeypatch.setattr(greens, "star_ideal", refuse)
    for spec in (FamilySpec("qprime", 5), FamilySpec("syminv", 3), FamilySpec("rq", 5, 2)):
        # A fresh table, so nothing is served from the per-table memo.
        table = families._build_table.__wrapped__(spec)
        assert greens.starred_J(table).class_count > 0


def test_relations_are_computed_once_per_table():
    table = families.enumerate_family(FamilySpec("rq", 4, 2))
    for which in GREEN_NAMES:
        assert greens.green(table, which) is greens.green(table, which), which
    assert greens.starred_L(table) is greens.starred_L(table)
    assert greens.starred_R(table) is greens.starred_R(table)
    # I_3 is not J-trivial, so its L, R and H differ and stay apart
    table = families.enumerate_family(FamilySpec("syminv", 3))
    parts = {which: greens.green(table, which) for which in GREEN_NAMES}
    assert parts["L"] != parts["R"] and parts["L"] != parts["H"]
    assert parts["D"] is parts["J"]


def test_a_fresh_duck_typed_table_gets_its_own_result():
    left_zero = FakeTable([[0, 0], [1, 1]])  # xy = x
    first = greens.starred_R(left_zero)
    assert first.classes == ((0,), (1,))
    assert greens.starred_R(left_zero) is first
    # a new table with other rows, made after the first is gone
    del left_zero
    right_zero = FakeTable([[0, 1], [0, 1]])  # xy = y
    assert greens.starred_R(right_zero) == oracle_starred(right_zero, transpose=True)
    assert greens.starred_R(right_zero).classes == ((0, 1),)
    assert greens.starred_L(right_zero).classes == ((0,), (1,))


def test_tables_that_cannot_be_weakly_referenced_still_work():
    class SlottedTable:
        __slots__ = ("size", "identity_index", "rows")

        def __init__(self, rows):
            self.rows = rows
            self.size = len(rows)
            self.identity_index = None

        def product_rows(self):
            return self.rows

    table = SlottedTable([[0, 0], [1, 1]])
    assert greens.starred_L(table).classes == ((0, 1),)
    assert greens.starred_R(table).classes == ((0,), (1,))
    assert greens.starred_J(table).classes == ((0, 1),)


def test_starred_H_is_the_meet():
    for spec in (FamilySpec("icn", 3), FamilySpec("rq", 4, 2)):
        table = families.enumerate_family(spec)
        left = greens.starred_L(table)
        right = greens.starred_R(table)
        want = IndexPartition.from_keys(list(zip(left.class_of, right.class_of)))
        assert greens.starred_H(table) == want


def test_starred_D_is_the_join():
    for spec in (FamilySpec("icn", 3), FamilySpec("qprime", 4), FamilySpec("rq", 4, 2)):
        table = families.enumerate_family(spec)
        want = transitive_closure_join(
            greens.starred_L(table), greens.starred_R(table), table.size
        )
        assert greens.starred_D(table) == want


def test_starred_dispatch_matches_direct_calls():
    table = families.enumerate_family(FamilySpec("qprime", 3))
    assert greens.starred(table, "Ls") == greens.starred_L(table)
    assert greens.starred(table, "Rs") == greens.starred_R(table)
    assert greens.starred(table, "Hs") == greens.starred_H(table)
    assert greens.starred(table, "Ds") == greens.starred_D(table)
    assert greens.starred(table, "Js") == greens.starred_J(table)


def test_starred_characterizations_away_from_collapsed_quotients():
    specs = [
        FamilySpec("icn", 4),
        FamilySpec("qprime", 4),
        FamilySpec("k", 4, 2),
        FamilySpec("m", 4, 2),
        FamilySpec("ric", 4, 2),
        FamilySpec("ric", 4, 3),
        FamilySpec("rq", 4, 1),
    ]
    for spec in specs:
        table = families.enumerate_family(spec)
        assert greens.starred_L(table) == partition_by(table, pinj.image), spec
        assert greens.starred_R(table) == partition_by(table, pinj.domain), spec
        assert greens.starred_H(table).is_identity, spec
        by_height = partition_by(table, pinj.height)
        assert greens.starred_D(table) == by_height, spec
        assert greens.starred_J(table) == by_height, spec


def test_starred_L_merges_image_one_elements_in_collapsed_quotients():
    # In RQ'_n(p) with p >= 2 an element whose image contains 1 sends
    # every non-identity x to zero: the only way to consume the point at
    # 1 would be a factor with 1 in its domain, and no such factor exists.
    # All those elements therefore share one kernel, whatever their image.
    for n, p in ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)):
        table = families.enumerate_family(FamilySpec("rq", n, p))

        def true_key(el):
            img = pinj.image(el)
            return "ones" if 1 in img else img

        want = partition_by(table, true_key)
        got = greens.starred_L(table)
        assert got == want, (n, p)
        if p >= 2:
            assert got != partition_by(table, pinj.image), (n, p)
        # R* is untouched by the collapse
        assert greens.starred_R(table) == partition_by(table, pinj.domain)
        by_height = partition_by(table, pinj.height)
        assert greens.starred_D(table) == by_height
        assert greens.starred_J(table) == by_height


def test_collapsed_quotient_smallest_case_pinned_by_hand():
    # RQ'_3(2) has four elements; products of the two height-2 movers
    # with anything non-identity drop below height 2, so their kernels
    # coincide even though their images differ.
    table = families.enumerate_family(FamilySpec("rq", 3, 2))
    texts = [table.text_of(i) for i in range(table.size)]
    assert texts == ["0", "3:2>1,3>2", "3:2>1,3>3", "3:2>2,3>3"]
    lstar = greens.starred_L(table)
    assert lstar.classes == ((0,), (1, 2), (3,))
    hstar = greens.starred_H(table)
    assert hstar.classes == ((0,), (1, 2), (3,))
    assert not hstar.is_identity
    rstar = greens.starred_R(table)
    assert rstar.is_identity is False
    assert rstar.classes == ((0,), (1, 2, 3))


def test_starred_class_counts_on_collapsed_quotients():
    # non-zero R*-classes: one per domain; L*-classes: one per image not
    # containing 1, plus a single merged class for the rest; zero alone.
    from math import comb

    for n, p in ((4, 2), (4, 3), (5, 2), (5, 3), (5, 4)):
        table = families.enumerate_family(FamilySpec("rq", n, p))
        assert greens.starred_R(table).class_count == comb(n - 1, p) + 1
        want_l = comb(n, p) - comb(n - 1, p - 1) + 2
        assert greens.starred_L(table).class_count == want_l


def test_zero_is_always_a_singleton_starred_class():
    for spec in (FamilySpec("ric", 4, 2), FamilySpec("rq", 4, 2)):
        table = families.enumerate_family(spec)
        z = table.zero_index
        for which in ("Ls", "Rs", "Hs", "Ds", "Js"):
            assert greens.starred(table, which).class_members(z) == (z,)


def test_starred_D_composition_identities():
    for spec in PLAIN_SPECS:
        table = families.enumerate_family(spec)
        l = greens.starred_L(table)
        r = greens.starred_R(table)
        d = greens.related_sets(greens.starred_D(table))
        assert d == greens.related_sets(r, l, r), spec
        assert d == greens.related_sets(l, r, l), spec


def test_starred_composition_need_not_commute():
    # smallest witnesses on both sides: two one-point identities whose
    # L*- and R*-classes meet in opposite orders
    icn = families.enumerate_family(FamilySpec("icn", 2))
    a = icn.index_of[pinj.from_pairs(2, [(1, 1)])]
    b = icn.index_of[pinj.from_pairs(2, [(2, 2)])]
    lr = greens.related_sets(greens.starred_L(icn), greens.starred_R(icn))
    rl = greens.related_sets(greens.starred_R(icn), greens.starred_L(icn))
    assert b in lr[a] and b not in rl[a]
    assert (a, b) in relation_compose(greens.starred_L(icn), greens.starred_R(icn))
    assert (a, b) not in relation_compose(greens.starred_R(icn), greens.starred_L(icn))

    q = families.enumerate_family(FamilySpec("qprime", 3))
    a = q.index_of[pinj.from_pairs(3, [(2, 2)])]
    b = q.index_of[pinj.from_pairs(3, [(3, 3)])]
    lr = greens.related_sets(greens.starred_L(q), greens.starred_R(q))
    rl = greens.related_sets(greens.starred_R(q), greens.starred_L(q))
    assert b in lr[a] and b not in rl[a]
    assert (a, b) in relation_compose(greens.starred_L(q), greens.starred_R(q))
    assert (a, b) not in relation_compose(greens.starred_R(q), greens.starred_L(q))


def test_star_ideal_contains_products_and_starred_classes():
    table = families.enumerate_family(FamilySpec("qprime", 3))
    rows = table.product_rows()
    lstar = greens.starred_L(table)
    rstar = greens.starred_R(table)
    for a in range(table.size):
        ideal = greens.star_ideal(table, a)
        assert a in ideal
        for s in ideal:
            assert set(rows[s]) <= ideal
            assert {rows[x][s] for x in range(table.size)} <= ideal
            assert set(lstar.class_members(s)) <= ideal
            assert set(rstar.class_members(s)) <= ideal


# ------------------------------------------------------- relation arithmetic


def test_relation_compose_by_hand():
    # the pair-set oracle itself, on raw pair sets
    r1 = {(0, 1), (1, 2)}
    r2 = {(1, 5), (2, 6)}
    assert relation_compose(r1, r2) == {(0, 5), (1, 6)}
    assert relation_compose(r2, r1) == set()


def test_relation_pairs_and_equality():
    part = IndexPartition.from_groups(3, [(0, 1), (2,)])
    raw = {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)}
    assert relation_pairs(part) == raw
    assert relation_pairs(raw) == raw
    assert related_pairs(greens.related_sets(part)) == raw
    assert relation_pairs(part) != {(0, 0)}


def test_related_sets_by_hand():
    # P = {0,1 | 2,3}, Q = {0 | 1,2 | 3}: P o Q is not transitive
    p = IndexPartition.from_groups(4, [(0, 1), (2, 3)])
    q = IndexPartition.from_groups(4, [(0,), (1, 2), (3,)])
    assert greens.related_sets(p, q) == (
        frozenset({0, 1, 2}),
        frozenset({0, 1, 2}),
        frozenset({1, 2, 3}),
        frozenset({1, 2, 3}),
    )
    assert greens.related_sets(q, p)[0] == frozenset({0, 1})
    assert greens.related_sets(p, q, p)[0] == frozenset(range(4))


def test_related_sets_match_the_pair_set_oracle():
    # every family with n <= 4, including the non-transitive L* o R*
    for n in range(1, 5):
        for kind in KINDS:
            top = n if kind in ("k", "ric") else n - 1
            for p in range(1, top + 1) if kind in families.KINDS_WITH_P else (None,):
                table = families.enumerate_family(FamilySpec(kind, n, p))
                l = greens.starred_L(table)
                r = greens.starred_R(table)
                d = greens.starred_D(table)
                for chain in ((l, r), (r, l), (r, l, r), (l, r, l), (d,), (d, d)):
                    want = relation_pairs(chain[0])
                    for part in chain[1:]:
                        want = relation_compose(want, part)
                    got = related_pairs(greens.related_sets(*chain))
                    assert got == want, (kind, n, p, len(chain))


def test_related_sets_have_no_element_cap():
    # the pair-set composition refused tables above 1,000 elements
    size = 1500
    ident = IndexPartition.from_groups(size, [(i,) for i in range(size)])
    halves = IndexPartition.from_groups(size, [range(0, size, 2), range(1, size, 2)])
    got = greens.related_sets(ident, halves, ident)
    assert got[0] == frozenset(range(0, size, 2))
    assert got[size - 1] == frozenset(range(1, size, 2))

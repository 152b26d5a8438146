"""Green's relations, plain and starred, against definitional brute oracles.

The library computes L* through kernel signatures; the oracle here goes
back to the definition: a and b are L*-related when ax = ay and bx = by
hold for exactly the same pairs x, y over the table with an identity
adjoined if the table lacks one.  Same idea, transposed, for R*.
"""

import random
from array import array
from collections import defaultdict
from itertools import combinations

import pytest
from conftest import (
    DIFFERENTIAL_SPECS,
    composed_group_steps,
    elements_of,
    green_by_ideals,
    kernel_key,
    kernel_key_starred,
    line_kernel_key,
    line_kernel_partition,
    oracle_kernel_partition,
    oracle_partition_by,
    oracle_related_sets,
    per_element_J,
    related_pairs,
    relation_compose,
    relation_pairs,
    star_ideal_J,
    transitive_closure_join,
    tree_starred,
)
from test_structure import LEFT_ZERO, RIGHT_ZERO, FakeTable, perturbed_tables

from catalanlab import battery, families, greens, pinj, structure
from catalanlab.errors import ValidationError
from catalanlab.families import KINDS, FamilySpec, _valid_heights
from catalanlab.greens import GREEN_NAMES, IndexPartition

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


@pytest.mark.parametrize("groups, message", [
    ([(0, 1), (1, 2)], "overlap"),
    ([(0, 1, 1), (2,)], "overlap"),
    ([(0, 1), (2, 3)], "index past 2"),
    ([(0, 1), (2,), (3,)], "index past 2"),
    ([(-1, 0, 1)], "negative index"),
    ([(0, 1), (-1,)], "negative index"),
    ([(0, 1, 2), ()], "empty group"),
])
def test_index_partition_rejects_groups_that_do_not_partition(groups, message):
    # Each of these once gave an inconsistent partition, a bare
    # IndexError, or a class_of wrapped round by a negative index.
    with pytest.raises(ValidationError, match=message):
        IndexPartition.from_groups(3, groups)


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
        by_image = oracle_partition_by(table, lambda a: pinj.image(a))
        by_domain = oracle_partition_by(table, lambda a: pinj.domain(a))
        by_height = oracle_partition_by(table, lambda a: pinj.height(a))
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


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=lambda s: s.label())
def test_D_is_J(spec):
    # D is computed as the join of L and R and never compared with J at
    # run time; D = J on a finite semigroup, and this holds the two equal.
    # Each is asked of its own fresh table, so no memo relates them.
    build = families._enumerate_table
    d, j = greens.green(build(spec), "D"), greens.green(build(spec), "J")
    assert d == j
    if spec.kind == "syminv" and spec.n >= 2:
        # I_n's D-classes are its height layers, so the check is not vacuous.
        assert d.class_count == spec.n + 1 < len(d.class_of)


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
    assert key([]) == (b"", {})
    assert key((7,)) == (b"\0", {7: 0})
    assert key([5, 3, 5, 3, 9]) == (bytes((0, 1, 0, 1, 2)), {5: 0, 3: 1, 9: 2})
    assert key((2, 2, 2))[0] == bytes(3)
    # list and tuple rows give the same key; equal kernels, equal signatures
    assert key([1, 0, 1]) == key((1, 0, 1))
    assert key((8, 6, 8))[0] == key((0, 9, 0))[0]
    assert key((8, 6, 8))[0] != key((8, 8, 6))[0]
    # past 256 labels the signature takes two bytes a label, past 65,536
    # four, with the same labels
    assert key([*range(300, 0, -1), 300])[0] == array("H", [*range(300), 0]).tobytes()
    wide = [*range(70_000), 5]
    assert key(wide)[0] == array("I", wide).tobytes()
    # With no identity, the adjoined position of line a (a.1 = a) joins
    # the block of the positions holding a, or is a block of its own when
    # no position holds a.
    left_zero = FakeTable([[0, 0], [1, 1]])  # xy = x: one block with a
    assert greens.starred_L(left_zero).classes == ((0, 1),)
    right_zero = FakeTable([[0, 1], [0, 1]])  # xy = y: a's block differs
    assert greens.starred_L(right_zero).classes == ((0,), (1,))
    null = FakeTable([[1, 1], [1, 1]])  # xy = 1: row 0 does not hold 0
    assert greens.starred_L(null).classes == ((0,), (1,))


def test_starred_L_and_R_match_the_old_kernel_key():
    # Q'_n has no identity, so an identity is adjoined; IC_n and the
    # ideals K_n(p) have one; the Rees quotients have a zero.
    for spec in DIFFERENTIAL_SPECS + [FamilySpec("qprime", 7)]:
        table = families.enumerate_family(spec)
        assert greens.starred_L(table) == kernel_key_starred(table, False), spec
        assert greens.starred_R(table) == kernel_key_starred(table, True), spec


def test_starred_L_and_R_follow_the_cayley_graphs_as_the_line_keys_do():
    # The keys of one line per image or domain against every row and
    # column keyed on its own.  IC_7 has 128 rows with more than 256
    # labels, generator rows among them, so some keys take two bytes a
    # label, and its empty map's row has one label.
    for spec in DIFFERENTIAL_SPECS + [FamilySpec("qprime", 7), FamilySpec("icn", 7)]:
        table = families.enumerate_family(spec)
        assert greens.starred_L(table) == line_kernel_partition(table, False), spec
        assert greens.starred_R(table) == line_kernel_partition(table, True), spec
    rows = table.product_rows()
    wide = [a for a, row in enumerate(rows) if len(set(row)) > 256]
    assert len(wide) == 128
    assert set(wide) & set(table.generators)
    assert type(line_kernel_key(rows[table.zero_index])) is bytes


def test_starred_L_and_R_on_duck_typed_tables_match_the_line_keys():
    # A duck-typed table proves no kernels shared, so every line is keyed.
    rng = random.Random(5)
    for _ in range(300):
        m = rng.randint(1, 7)
        table = FakeTable([[rng.randrange(m) for _ in range(m)] for _ in range(m)])
        assert greens.starred_L(table) == line_kernel_partition(table, False)
        assert greens.starred_R(table) == line_kernel_partition(table, True)
    table = star_table()
    opposite = FakeTable(list(zip(*table.product_rows())), generators=table.generators)
    for semigroup in (table, opposite):
        assert greens.starred_L(semigroup) == line_kernel_partition(semigroup, False)
        assert greens.starred_R(semigroup) == line_kernel_partition(semigroup, True)


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=lambda s: s.label())
def test_starred_L_and_R_match_the_composed_line_route(spec):
    # The lines walked along the Cayley graph against one line composed
    # for each kernel group's first member.
    table = families.enumerate_family(spec)
    assert greens.starred_L(table) == oracle_kernel_partition(table, True)
    assert greens.starred_R(table) == oracle_kernel_partition(table, False)


def test_starred_L_and_R_match_the_composed_line_route_on_duck_typed_tables():
    # Random and perturbed products need not associate; those tables are
    # generated by every element, so every line is a generator's.  The
    # 33-element semigroup and its opposite are walked from 3 generators.
    rng = random.Random(5)
    tables = [
        FakeTable([[rng.randrange(m) for _ in range(m)] for _ in range(m)])
        for m in (rng.randint(1, 7) for _ in range(300))
    ]
    table = star_table()
    opposite = FakeTable(list(zip(*table.product_rows())), generators=table.generators)
    tables += [table, opposite, LEFT_ZERO, RIGHT_ZERO, FakeTable([[1, 1], [1, 1]])]
    tables += perturbed_tables(seed=7, count=100)
    for table in tables:
        assert greens.starred_L(table) == oracle_kernel_partition(table, True)
        assert greens.starred_R(table) == oracle_kernel_partition(table, False)


@pytest.mark.parametrize("spec", [
    FamilySpec("icn", 5), FamilySpec("qprime", 5), FamilySpec("rq", 5, 2), FamilySpec("k", 5, 3),
    FamilySpec("syminv", 3),
], ids=lambda s: s.label())
def test_starred_L_and_R_compose_only_the_generator_lines(monkeypatch, spec):
    # Every reader of A's lines reads the rows and columns the table
    # holds: A's columns were composed as A was chosen, no line is
    # composed, and every other line is gathered.  J* reads the kernel
    # groups and steps that L* and R* walked.
    table = families._enumerate_table(spec)
    table.generator_lines(True)
    asked = []
    columns, kernel_groups = table.columns, table.kernel_groups

    def counted_columns(indices, at=None):
        indices = tuple(indices)
        asked.append(("columns", indices, at))
        return columns(indices, at)

    def counted_groups(left):
        asked.append(("kernel_groups", left))
        return kernel_groups(left)

    monkeypatch.setattr(table, "columns", counted_columns)
    monkeypatch.setattr(table, "kernel_groups", counted_groups)
    for which in ("Ls", "Rs", "Ds", "Hs", "Js"):
        greens.starred(table, which)
    for which in ("R", "J"):
        greens.green(table, which)
    structure.regular_elements(table)
    table.product_rows()
    # A self-dual table reads L* through θ off R*, so its image groups
    # are first read by J*'s steps.
    sides = [False, True] if spec.self_dual else [True, False]
    assert asked == [("kernel_groups", left) for left in sides]


SELF_DUAL_SPECS = [spec for spec in DIFFERENTIAL_SPECS if spec.self_dual]
MIRRORED_SPECS = SELF_DUAL_SPECS + [
    FamilySpec(kind, 7, p) for kind in ("icn", "k", "ric") for p in _valid_heights(kind, 7)
]


@pytest.mark.parametrize("spec", MIRRORED_SPECS, ids=lambda s: s.label())
def test_mirrored_L_and_L_star_equal_the_direct_routes(spec):
    # A self-dual table reads L and L* as θ(R) and θ(R*); the direct routes,
    # called directly, compute them on the Cayley graph and by kernel keys.
    table = families._enumerate_table(spec)
    assert greens.green(table, "L") == greens._green(table, "L")
    assert greens.starred_L(table) == greens._kernel_partition(table, True)
    assert "theta" in table._memo


def test_the_qprime_side_keeps_the_direct_routes():
    # No θ is built, and neither right-hand relation is.
    for spec in (FamilySpec("qprime", 5), FamilySpec("m", 5, 3), FamilySpec("rq", 5, 2)):
        table = families._enumerate_table(spec)
        greens.green(table, "L")
        greens.starred_L(table)
        assert "theta" not in table._memo
        assert "Rs" not in table._memo and "R" not in table._memo


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=lambda s: s.label())
def test_group_steps_off_the_held_lines_match_the_composed_products(spec):
    # L*'s steps read a.g off A's held columns, against the products of
    # each image group's first member with A; R*'s read g.a off A's rows.
    table = families.enumerate_family(spec)
    for left in (True, False):
        groups, group_of, steps = greens._group_steps(table, left)
        want_groups, want_group_of, want_steps = composed_group_steps(table, left)
        assert groups == tuple(map(tuple, want_groups))
        assert group_of == tuple(want_group_of)
        assert list(map(list, steps)) == list(map(list, want_steps))


def assert_starred_match_the_tree_keys(table):
    for which, want in tree_starred(table).items():
        assert greens.starred(table, which) == want, which


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS + [
    FamilySpec("icn", 8), FamilySpec("qprime", 8), FamilySpec("rq", 8, 4), FamilySpec("k", 8, 4),
], ids=lambda s: s.label())
def test_starred_relations_match_a_key_per_element(spec):
    # The keys of one line per image or domain against a key for every
    # element, each derived along the spanning tree from its parent's.
    assert_starred_match_the_tree_keys(families.enumerate_family(spec))


def test_starred_relations_match_a_key_per_element_on_duck_typed_tables():
    # Random products need not associate, so those tables are generated
    # by every element and each tree key is a root.  The 33-element
    # semigroup where J* merges two D*-classes, and its opposite, are
    # generated by 3 elements, so 30 tree keys on each side are derived.
    rng = random.Random(5)
    for _ in range(300):
        m = rng.randint(1, 7)
        assert_starred_match_the_tree_keys(
            FakeTable([[rng.randrange(m) for _ in range(m)] for _ in range(m)])
        )
    table = star_table()
    opposite = FakeTable(list(zip(*table.product_rows())), generators=table.generators)
    assert len(table.generators) == 3
    for semigroup in (table, opposite):
        assert_starred_match_the_tree_keys(semigroup)
    assert greens.starred_D(table) != greens.starred_J(table)


@pytest.mark.parametrize("spec", [
    FamilySpec("icn", 5), FamilySpec("qprime", 5), FamilySpec("rq", 5, 2), FamilySpec("syminv", 3),
], ids=lambda s: s.label())
def test_starred_L_and_R_key_one_line_per_image_and_per_domain(monkeypatch, spec):
    # One line per image (domain) reaches the fingerprint, and a line is
    # keyed only when its fingerprint collides: forced constant, every
    # fingerprint collides and each group is keyed once, to the same
    # partition.
    read, keyed = [], []
    fingerprint, kernel_key = greens._kernel_fingerprint, greens._kernel_key

    def counted_key(values):
        keyed.append(values)
        return kernel_key(values)

    monkeypatch.setattr(greens, "_kernel_key", counted_key)
    table = families._enumerate_table(spec)
    # The direct route on both sides: a self-dual table's starred_L reads
    # no line, as it reads L* through θ off R*.
    for left, name in ((True, pinj.image), (False, pinj.domain)):
        # the Rees zero is one more group of its own
        want = {name(el) for el in elements_of(table) if el is not families.REES_ZERO}
        groups = len(want) + spec.is_rees
        group_of = greens._group_steps(table, left)[1]
        found = []
        for forced in (None, ()):
            def counted_fingerprint(line, a, forced=forced):
                read.append(a)
                return fingerprint(line, a) if forced is None else forced

            monkeypatch.setattr(greens, "_kernel_fingerprint", counted_fingerprint)
            read.clear()
            keyed.clear()
            found.append(greens._kernel_partition(table, left))
            assert len(read) == len({group_of[a] for a in read}) == groups
        assert len(keyed) == groups
        assert found[0] == found[1]


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=lambda s: s.label())
def test_kernel_fingerprint_is_kept_when_the_line_is_relabelled(spec):
    # Renaming a line's values and a by one permutation keeps the kernel
    # and a's label in it, so the key; a function of the key is kept too.
    # The renamed lines need not be lines of any table, so a fingerprint
    # that reads the values themselves is told apart here.
    table = families.enumerate_family(spec)
    rng = random.Random(7)
    rows, columns = table.generator_lines(True), table.generator_lines(False)

    def key(line, a):
        signature, labels = greens._kernel_key(line)
        return signature, labels.get(a, -1)

    for lines, steps in ((rows, columns), (columns, rows)):
        for a, line in families.gather(table.generators, lines, steps):
            sigma = list(range(table.size))
            rng.shuffle(sigma)
            renamed = tuple(map(sigma.__getitem__, line)), sigma[a]
            assert key(*renamed) == key(line, a)
            assert greens._kernel_fingerprint(*renamed) == greens._kernel_fingerprint(line, a)


COLLISION_SPECS = DIFFERENTIAL_SPECS + [
    FamilySpec(kind, n, p)
    for kind, n in [("qprime", 7)] + [("rq", n) for n in range(1, 7)]
    for p in _valid_heights(kind, n)
    if FamilySpec(kind, n, p) not in DIFFERENTIAL_SPECS
]


@pytest.mark.parametrize("spec", COLLISION_SPECS, ids=lambda s: s.label())
def test_starred_L_and_R_with_every_fingerprint_colliding_match_the_composed_line_route(
    monkeypatch, spec
):
    # A constant fingerprint sends every group to the second walk, where
    # each is keyed; the direct route on both sides still gives the
    # partition of one composed line keyed per group.
    monkeypatch.setattr(greens, "_kernel_fingerprint", lambda line, a: ())
    table = families._enumerate_table(spec)
    for left in (True, False):
        assert greens._kernel_partition(table, left) == oracle_kernel_partition(table, left), left


@pytest.mark.parametrize("spec", SELF_DUAL_SPECS, ids=lambda s: s.label())
def test_domain_group_steps_through_theta_match_the_steps_off_the_rows(spec):
    # On a self-dual table R*'s steps read g.a as θ(col_θ(g)[θ(a)]) off
    # A's held columns, and build no row of A.
    table = families._enumerate_table(spec)
    groups, group_of, steps = greens._read_group_steps(table, False)
    assert "A rows" not in table._memo
    firsts = [members[0] for members in groups]
    assert steps == [[group_of[row[a]] for a in firsts] for row in table.generator_lines(True)]


def test_domain_group_steps_read_the_rows_when_theta_leaves_A():
    # A generating set that θ does not map into itself: IC_4's A with one
    # more element whose θ lies outside it.  R*'s steps then read A's rows.
    table = families._enumerate_table(FamilySpec("icn", 4))
    table.generators
    gens, columns, tree = table._memo["A"]
    theta = table.theta
    extra = next(x for x in range(table.size)
                 if x not in gens and theta[x] not in gens and theta[x] != x)
    table._memo["A"] = (gens + (extra,), columns + tuple(table.columns([extra])), tree)
    assert greens._mirrored_columns(table) is None
    groups, group_of, steps = greens._read_group_steps(table, False)
    assert "A rows" in table._memo
    firsts = [members[0] for members in groups]
    assert steps == [[group_of[table.product(g, a)] for a in firsts] for g in table.generators]


@pytest.mark.parametrize("spec", [
    FamilySpec("icn", 5), FamilySpec("qprime", 6), FamilySpec("rq", 5, 2),
    FamilySpec("k", 5, 3), FamilySpec("syminv", 3),
], ids=lambda s: s.label())
def test_starred_relations_build_no_full_table(row_builds, spec):
    for which in ("Ls", "Rs", "Hs", "Ds", "Js"):
        # A fresh table per relation, so nothing comes from the memo.
        assert greens.starred(families.enumerate_family(spec), which).class_count
    assert row_builds == []


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


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=lambda s: s.label())
def test_starred_J_matches_the_per_element_edges(monkeypatch, spec):
    # One edge set per kernel group against one per element; with D*
    # known, J* composes no generator column.
    table = families._enumerate_table(spec)
    greens.starred_D(table)
    want = per_element_J(table)

    def refuse(_indices, _at=None):
        raise AssertionError("J* reads g.x off A's rows and x.g at image groups")

    monkeypatch.setattr(table, "columns", refuse)
    assert greens.starred_J(table) == want


def test_starred_J_matches_the_per_element_edges_on_duck_typed_tables():
    # A duck-typed table's kernel groups are singletons, so its steps are
    # every element's own edges; the 33-element semigroup and its opposite
    # have J* != D*.
    rng = random.Random(5)
    tables = [
        FakeTable([[rng.randrange(m) for _ in range(m)] for _ in range(m)])
        for m in (rng.randint(1, 7) for _ in range(300))
    ]
    table = star_table()
    opposite = FakeTable(list(zip(*table.product_rows())), generators=table.generators)
    tables += [table, opposite, LEFT_ZERO, RIGHT_ZERO]
    for table in tables:
        assert greens.starred_J(table) == per_element_J(table)
    assert greens.starred_J(opposite) != greens.starred_D(opposite)


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
    return FakeTable(
        [[new.get(rows[x][y], zero) for y in kept] + [zero] for x in kept]
        + [[zero] * (zero + 1)],
        generators=dict.fromkeys(new.get(index[g], zero) for g in gens),
    )


def star_table():
    """72 maps on five points, modulo one principal ideal: a 33-element
    semigroup where J* merges two D*-classes."""
    return generated_table(
        [(0, 2, 4, 3, 0, 0), (0, 4, 0, 2, 1, 5), (0, 0, 1, 2, 4, 3)],
        ideal_of=(0, 0, 4, 0, 1, 2),
    )


def test_starred_J_on_a_semigroup_where_it_differs_from_D_star():
    # J* merges two D*-classes here, so the components must come from the
    # edges between classes, read over A.
    table = star_table()
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
    opposite = FakeTable(list(zip(*rows)), generators=table.generators)
    assert greens.starred_J(opposite) == star_ideal_J(opposite) == want


def test_starred_J_calls_neither_green_nor_star_ideal(monkeypatch):
    def refuse(*_args):
        raise AssertionError("starred_J must read the table, not this")

    monkeypatch.setattr(greens, "green", refuse)
    monkeypatch.setattr(greens, "star_ideal", refuse)
    for spec in (FamilySpec("qprime", 5), FamilySpec("syminv", 3), FamilySpec("rq", 5, 2)):
        # A fresh table, so nothing is served from the table's store.
        table = families._enumerate_table(spec)
        assert greens.starred_J(table).class_count > 0


def test_relations_are_computed_once_per_table():
    table = families.enumerate_family(FamilySpec("rq", 4, 2))
    for which in GREEN_NAMES:
        assert greens.green(table, which) is greens.green(table, which), which
    assert greens.starred_L(table) is greens.starred_L(table)
    assert greens.starred_R(table) is greens.starred_R(table)
    # D* too, as J* reads it; H* and J* are built afresh on each call.
    assert greens.starred_D(table) is greens.starred_D(table)
    # I_3 is not J-trivial, so its L, R and H differ; D and J are equal,
    # each computed on its own.
    table = families._enumerate_table(FamilySpec("syminv", 3))
    parts = {which: greens.green(table, which) for which in GREEN_NAMES}
    assert parts["L"] != parts["R"] and parts["L"] != parts["H"]
    assert parts["D"] == parts["J"]


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
        __slots__ = ("size", "identity_index", "_rows", "generators", "_memo")

        def __init__(self, rows):
            self._memo = {}
            self._rows = rows
            self.size = len(rows)
            self.identity_index = None
            self.generators = range(self.size)

        def product_rows(self):
            return self._rows

        def generator_lines(self, left):
            if left:
                return [tuple(self._rows[g]) for g in self.generators]
            return [tuple(row[g] for row in self._rows) for g in self.generators]

        def kernel_groups(self, left):
            return [(a,) for a in range(self.size)]

    # No __weakref__ slot: the relations are kept in the table's own store.
    table = SlottedTable([[0, 0], [1, 1]])
    assert greens.starred_L(table) is greens.starred_L(table)
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
    for spec in DIFFERENTIAL_SPECS:
        table = families.enumerate_family(spec)
        want = transitive_closure_join(
            greens.starred_L(table), greens.starred_R(table), table.size
        )
        assert greens.starred_D(table) == want


def test_join_is_the_transitive_closure_on_random_partitions():
    # the components of the class cycles against a plain search over the
    # union of the two relations, on partitions with classes of every size
    rng = random.Random(11)
    for _ in range(300):
        size = rng.randint(1, 30)
        p1, p2 = (
            IndexPartition.from_keys([rng.randrange(classes) for _ in range(size)])
            for classes in (rng.randint(1, size), rng.randint(1, size))
        )
        assert greens._join(p1, p2) == transitive_closure_join(p1, p2, size)


def test_starred_dispatch_matches_direct_calls():
    table = families.enumerate_family(FamilySpec("qprime", 3))
    assert greens.starred(table, "Ls") == greens.starred_L(table)
    assert greens.starred(table, "Rs") == greens.starred_R(table)
    assert greens.starred(table, "Hs") == greens.starred_H(table)
    assert greens.starred(table, "Ds") == greens.starred_D(table)
    assert greens.starred(table, "Js") == greens.starred_J(table)


# The battery's readings of a packed image, each with the element-level
# key it stands for.
CHARACTERIZATIONS = (
    ("image", frozenset, pinj.image),
    ("domain", battery._domain, pinj.domain),
    ("height", battery._zeros, pinj.height),
)
COLLAPSED_SPECS = [FamilySpec("rq", n, p) for n in range(1, 7) for p in _valid_heights("rq", n)]


@pytest.mark.parametrize(
    "spec",
    dict.fromkeys(
        DIFFERENTIAL_SPECS + [FamilySpec("icn", 7), FamilySpec("qprime", 7)] + COLLAPSED_SPECS
    ),
    ids=lambda s: s.label(),
)
def test_packed_characterizations_match_the_element_oracle(spec):
    table = families.enumerate_family(spec)
    for name, reading, key_fn in CHARACTERIZATIONS:
        got = greens.partition_by(table, reading)
        assert got == oracle_partition_by(table, key_fn), (spec, name)
        if spec.is_rees:
            assert got.class_members(table.zero_index) == (table.zero_index,), (spec, name)


def test_packed_partition_by_unpacks_no_element(monkeypatch):
    table = families.enumerate_family(FamilySpec("rq", 5, 2))

    def refuse(self, i):
        raise AssertionError("partition_by unpacked an element")

    monkeypatch.setattr(families.SemigroupTable, "element", refuse)
    for _, reading, _ in CHARACTERIZATIONS:
        assert greens.partition_by(table, reading).class_count > 1


def test_characterizations_do_not_read_kernel_groups(monkeypatch):
    # The characterization rows are a check on L* and R*, which greens
    # keys through kernel_groups; they must compute without it.
    def refuse(self, left):
        raise AssertionError("kernel_groups was called")

    monkeypatch.setattr(families.SemigroupTable, "kernel_groups", refuse)
    for spec in (FamilySpec("icn", 5), FamilySpec("qprime", 5), FamilySpec("rq", 5, 2),
                 FamilySpec("ric", 5, 3), FamilySpec("k", 4, 2), FamilySpec("m", 4, 2)):
        table = families.enumerate_family(spec)
        for name, reading, key_fn in CHARACTERIZATIONS:
            assert greens.partition_by(table, reading) == oracle_partition_by(table, key_fn), (
                spec, name)
        # the patch bites: a table of the same images, with no memo yet,
        # cannot key L*
        fresh = families.SemigroupTable(spec, table.images)
        with pytest.raises(AssertionError, match="kernel_groups"):
            greens.starred_L(fresh)


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
        assert greens.starred_L(table) == oracle_partition_by(table, pinj.image), spec
        assert greens.starred_R(table) == oracle_partition_by(table, pinj.domain), spec
        assert greens.starred_H(table).is_identity, spec
        by_height = oracle_partition_by(table, pinj.height)
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

        want = oracle_partition_by(table, true_key)
        got = greens.starred_L(table)
        assert got == want, (n, p)
        if p >= 2:
            assert got != oracle_partition_by(table, pinj.image), (n, p)
        # R* is untouched by the collapse
        assert greens.starred_R(table) == oracle_partition_by(table, pinj.domain)
        by_height = oracle_partition_by(table, pinj.height)
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
    a = icn.index(pinj.from_pairs(2, [(1, 1)]))
    b = icn.index(pinj.from_pairs(2, [(2, 2)]))
    lr = greens.related_sets(greens.starred_L(icn), greens.starred_R(icn))
    rl = greens.related_sets(greens.starred_R(icn), greens.starred_L(icn))
    assert b in lr[a] and b not in rl[a]
    assert (a, b) in relation_compose(greens.starred_L(icn), greens.starred_R(icn))
    assert (a, b) not in relation_compose(greens.starred_R(icn), greens.starred_L(icn))

    q = families.enumerate_family(FamilySpec("qprime", 3))
    a = q.index(pinj.from_pairs(3, [(2, 2)]))
    b = q.index(pinj.from_pairs(3, [(3, 3)]))
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


def test_related_sets_match_the_member_expansion_on_random_partitions():
    # Class ids expanded through each pair's adjacency against members
    # expanded through whole classes, on one to four partitions with
    # classes of every size; classes that reach alike share one set.
    rng = random.Random(13)
    for _ in range(300):
        size = rng.randint(1, 30)
        parts = [
            IndexPartition.from_keys([rng.randrange(classes) for _ in range(size)])
            for classes in (rng.randint(1, size) for _ in range(rng.randint(1, 4)))
        ]
        got = greens.related_sets(*parts)
        assert got == oracle_related_sets(*parts)
        assert len(set(map(id, got))) == len(set(got))


# The composites the battery and the noncommuting rows read.
STARRED_COMPOSITES = (("Rs", "Ls", "Rs"), ("Ls", "Rs", "Ls"), ("Ls", "Rs"), ("Rs", "Ls"))


def moved_member(part):
    """part with its last index moved into the class of index 0, or into a
    class of its own when the two already share one."""
    keys = list(part.class_of)
    keys[-1] = keys[0] if keys[-1] != keys[0] else -1
    return IndexPartition.from_keys(keys)


def merged_classes(part):
    """part with the class of its last index merged into that of index 0."""
    keys = list(part.class_of)
    return IndexPartition.from_keys([keys[0] if k == keys[-1] else k for k in keys])


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=lambda s: s.label())
def test_composites_on_class_ids_match_the_member_expansion(spec):
    # greens.is_composite against the composite and the target expanded
    # member by member, for each composite against D*, L*, R* and two
    # mutations of D*.
    table = families.enumerate_family(spec)
    rel = {name: greens.starred(table, name) for name in ("Ls", "Rs", "Ds")}
    dstar = rel["Ds"]
    targets = (dstar, rel["Ls"], rel["Rs"], moved_member(dstar), merged_classes(dstar))
    for chain in STARRED_COMPOSITES:
        parts = [rel[name] for name in chain]
        want = oracle_related_sets(*parts)
        for target in targets:
            got = greens.is_composite(target, *parts)
            assert got == (want == oracle_related_sets(target)), (chain, target.classes)
        # D* is both threefold composites on every family table.
        if len(chain) == 3:
            assert greens.is_composite(dstar, *parts)


def test_is_composite_by_hand():
    # P = {0,1 | 2}, Q = {0 | 1,2}: P o Q takes 2 to {1, 2}, so it is no
    # partition.  Against {0,1 | 2} every P-class lies in one class and
    # reaches the Q-class ids of its own class; only the sizes tell:
    # the Q-class {1, 2} has two members, the class {2} one.
    p = IndexPartition.from_groups(3, [(0, 1), (2,)])
    q = IndexPartition.from_groups(3, [(0,), (1, 2)])
    assert not greens.is_composite(p, p, q)
    # A P-class across two target classes, and reached ids that differ.
    assert not greens.is_composite(q, p, q)
    assert not greens.is_composite(IndexPartition.from_groups(3, [(0, 1, 2)]), p, q)
    everything = IndexPartition.from_groups(3, [(0, 1, 2)])
    assert greens.is_composite(everything, p, q, p)
    assert greens.is_composite(q, q) and greens.is_composite(p, p, p)
    assert not greens.is_composite(p, q)


def test_is_composite_matches_the_member_expansion_on_random_partitions():
    # Random chains of one to four partitions against random targets, the
    # composite itself when it is a partition, and that composite with a
    # class split in two.
    rng = random.Random(41)
    for _ in range(400):
        size = rng.randint(1, 12)
        parts = [
            IndexPartition.from_keys([rng.randrange(classes) for _ in range(size)])
            for classes in (rng.randint(1, size) for _ in range(rng.randint(1, 4)))
        ]
        want = oracle_related_sets(*parts)
        targets = [IndexPartition.from_keys([rng.randrange(3) for _ in range(size)])]
        if all(a in want[a] and want[b] == want[a] for a in range(size) for b in want[a]):
            composite = IndexPartition.from_keys(want)
            halves = [c if i % 2 else -1 - c for i, c in enumerate(composite.class_of)]
            targets += [composite, IndexPartition.from_keys(halves)]
        for target in targets:
            got = greens.is_composite(target, *parts)
            assert got == (want == oracle_related_sets(target))


def test_related_sets_have_no_element_cap():
    # the pair-set composition refused tables above 1,000 elements
    size = 1500
    ident = IndexPartition.from_groups(size, [(i,) for i in range(size)])
    halves = IndexPartition.from_groups(size, [range(0, size, 2), range(1, size, 2)])
    got = greens.related_sets(ident, halves, ident)
    assert got[0] == frozenset(range(0, size, 2))
    assert got[size - 1] == frozenset(range(1, size, 2))

"""Family enumeration, table construction, and the Rees product rule."""

import copy
import gc
import pickle
import random
import re
import struct
import sys
import tracemalloc
import weakref
from collections.abc import Mapping
from itertools import combinations, permutations
from operator import itemgetter

import pytest
from conftest import (
    DIFFERENTIAL_SPECS,
    assert_revalidates,
    direct_product,
    direct_rows,
    elements_of,
    oracle_elements,
    oracle_images,
    oracle_indecomposables,
    oracle_left_graph,
    pack,
    packed_table,
    tree_walk,
)

from catalanlab import families, formulas, genrank, greens, pinj, structure
from catalanlab.errors import (
    CapExceededError,
    ChainMismatchError,
    FamilySpecError,
    InvariantError,
    ValidationError,
)
from catalanlab.families import REES_ZERO, FamilySpec, ReesZero, _valid_heights


def brute_partial_injection_count(n):
    # independent of the library: count injective dicts on subsets of 1..n
    total = 0
    points = range(1, n + 1)
    for size in range(n + 1):
        for dom in combinations(points, size):
            for img in permutations(points, size):
                total += 1
    return total


def test_icn_orders_match_catalan():
    for n in range(1, 9):
        table = families.enumerate_family(FamilySpec("icn", n))
        assert table.size == formulas.catalan(n + 1)


def test_qprime_orders_match_identity_free_count():
    for n in range(1, 9):
        table = families.enumerate_family(FamilySpec("qprime", n))
        assert table.size == formulas.t(n)


def test_syminv_orders_match_brute_oracle():
    pinned = {1: 2, 2: 7, 3: 34, 4: 209, 5: 1546}
    for n, want in pinned.items():
        assert brute_partial_injection_count(n) == want
        assert formulas.syminv_order(n) == want
        table = families.enumerate_family(FamilySpec("syminv", n))
        assert table.size == want


def test_ideal_orders_are_height_slices_of_their_monoids():
    for n in range(1, 6):
        icn = families.enumerate_family(FamilySpec("icn", n))
        qprime = families.enumerate_family(FamilySpec("qprime", n))
        heights_icn = [icn.height_of(i) for i in range(icn.size)]
        heights_q = [qprime.height_of(i) for i in range(qprime.size)]
        for p in range(1, n + 1):
            k = families.enumerate_family(FamilySpec("k", n, p))
            assert k.size == sum(1 for h in heights_icn if h <= p)
            ric = families.enumerate_family(FamilySpec("ric", n, p))
            assert ric.size == sum(1 for h in heights_icn if h == p) + 1
        for p in range(1, n):
            m = families.enumerate_family(FamilySpec("m", n, p))
            assert m.size == sum(1 for h in heights_q if h <= p)
            rq = families.enumerate_family(FamilySpec("rq", n, p))
            assert rq.size == sum(1 for h in heights_q if h == p) + 1


def test_full_height_ideal_is_the_whole_monoid():
    icn = families.enumerate_family(FamilySpec("icn", 4))
    k = families.enumerate_family(FamilySpec("k", 4, 4))
    assert [k.text_of(i) for i in range(k.size)] == [
        icn.text_of(i) for i in range(icn.size)
    ]


def test_elements_sorted_by_height_then_text():
    for spec in (
        FamilySpec("icn", 4),
        FamilySpec("qprime", 4),
        FamilySpec("k", 4, 2),
        FamilySpec("ric", 4, 2),
    ):
        table = families.enumerate_family(spec)
        start = 1 if spec.is_rees else 0
        keys = [
            (table.height_of(i), table.text_of(i))
            for i in range(start, table.size)
        ]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_rees_zero_sits_at_index_zero():
    for spec in (FamilySpec("ric", 4, 2), FamilySpec("rq", 4, 2)):
        table = families.enumerate_family(spec)
        assert table.zero_index == 0
        assert table.element(0) is REES_ZERO
        assert table.text_of(0) == "0"
        assert table.height_of(0) is None


def test_empty_map_is_the_zero_of_plain_families():
    for spec in (FamilySpec("icn", 3), FamilySpec("qprime", 3), FamilySpec("k", 3, 2)):
        table = families.enumerate_family(spec)
        z = table.zero_index
        assert table.element(z) == pinj.empty_map(3)
        rows = table.product_rows()
        assert all(rows[z][j] == z and rows[j][z] == z for j in range(table.size))


def test_identity_index_per_family():
    icn = families.enumerate_family(FamilySpec("icn", 3))
    assert icn.element(icn.identity_index) == pinj.identity(3)
    syminv = families.enumerate_family(FamilySpec("syminv", 3))
    assert syminv.element(syminv.identity_index) == pinj.identity(3)
    assert families.enumerate_family(FamilySpec("qprime", 3)).identity_index is None
    assert families.enumerate_family(FamilySpec("k", 3, 2)).identity_index is None
    assert families.enumerate_family(FamilySpec("m", 3, 2)).identity_index is None
    assert families.enumerate_family(FamilySpec("ric", 3, 2)).identity_index is None
    assert families.enumerate_family(FamilySpec("rq", 3, 2)).identity_index is None
    k_full = families.enumerate_family(FamilySpec("k", 3, 3))
    assert k_full.element(k_full.identity_index) == pinj.identity(3)


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=lambda s: s.label())
def test_identity_index_is_the_two_sided_identity(spec):
    table = families.enumerate_family(spec)
    rows = direct_rows(table)
    everything = list(range(table.size))
    found = [e for e in everything if list(rows[e]) == everything
             and [row[e] for row in rows] == everything]
    assert [table.identity_index] == (found or [None])


def test_enumerated_elements_revalidate():
    # Enumeration builds elements unchecked; each must equal its rebuild
    # through the validating constructor.
    specs = [FamilySpec("icn", 8), FamilySpec("qprime", 8)] + [
        FamilySpec(kind, n, p)
        for kind in families.KINDS
        for n in range(1, 7)
        for p in families._valid_heights(kind, n)
    ]
    for spec in specs:
        table = families.enumerate_family(spec)
        for i, el in enumerate(elements_of(table)):
            if el is not REES_ZERO:
                assert_revalidates(el)
                # the element holds the table's image itself, not a copy
                assert el.img is table.images[i]


# The n = 10 tables order two-digit texts as strings:
# 10:10>1 < 10:10>10 < 10:10>2.
TWO_DIGIT_SPECS = [FamilySpec(kind, 10, 2) for kind in ("k", "m", "ric", "rq")]


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS + TWO_DIGIT_SPECS, ids=lambda s: s.label())
def test_enumeration_writes_the_object_paths_images_in_its_order(spec):
    assert families.enumerate_family(spec).images == oracle_images(spec)


def test_two_digit_texts_sort_as_strings():
    table = families.enumerate_family(FamilySpec("k", 10, 2))
    assert table.size == 881
    positions = [table.index(pinj.parse_text(t)) for t in ("10:10>1", "10:10>10", "10:10>2")]
    assert positions == sorted(positions)


def test_a_build_makes_no_element_objects(monkeypatch):
    def refuse(*_args):
        raise AssertionError("a table build must write packed images only")

    specs = (FamilySpec("icn", 6), FamilySpec("rq", 6, 3), FamilySpec("syminv", 4))
    want = [oracle_images(spec) for spec in specs]
    monkeypatch.setattr(pinj, "_trusted", refuse)
    monkeypatch.setattr(pinj.PartialInjection, "__init__", refuse)
    assert [families._enumerate_table(spec).images for spec in specs] == want


def test_index_round_trips():
    for spec in DIFFERENTIAL_SPECS:
        table = families.enumerate_family(spec)
        for i in range(table.size):
            assert table.index(table.element(i)) == i, (spec.label(), i)


@pytest.mark.parametrize("spec", [
    FamilySpec("rq", 5, 2), FamilySpec("ric", 4, 2), FamilySpec("qprime", 4), FamilySpec("icn", 4),
], ids=lambda s: s.label())
def test_index_answers_for_members_only(spec):
    # Every partial injection of the chain is looked up after product_rows
    # has sent the composites below height p to the Rees zero, which the
    # image index remembers (and holds some of, on a quotient); only the
    # table's own elements answer, and the maps below height p are none.
    table = families._enumerate_table(spec)
    table.product_rows()
    everything = oracle_elements(FamilySpec("syminv", spec.n))
    remembered = [
        el for el in everything
        if 0 < pinj.height(el) < (spec.p or 0) and pack(el, spec.n) in table._index
    ]
    assert bool(remembered) == spec.is_rees
    position = {table.text_of(i): i for i in range(table.size)}
    for el in everything:
        want = position.get(pinj.canonical_text(el))
        assert table.index(el) == want, pinj.canonical_text(el)
        assert want is None or families.is_member(el, spec)
    assert table.index(REES_ZERO) == (table.zero_index if spec.is_rees else None)
    assert table.index(pinj.identity(spec.n + 1)) is None


def test_a_table_holds_no_element_objects():
    # A table keeps its elements packed: nothing it holds, looking one
    # level into its tuples, lists and mappings, is a PartialInjection.
    spec = FamilySpec("icn", 9)
    table = packed_table(spec, elements_of(families.enumerate_family(spec)))
    table.product(0, 1)
    assert table.generators and len(table) == 16_796

    def one_level(value):
        if isinstance(value, Mapping):
            return [value, *value.keys(), *value.values()]
        if isinstance(value, (tuple, list)):
            return [value, *value]
        return [value]

    held = [v for value in vars(table).values() for v in one_level(value)]
    assert not any(isinstance(v, pinj.PartialInjection) for v in held)


def test_cached_tables_are_frozen():
    spec = FamilySpec("rq", 4, 2)
    table = families.enumerate_family(spec)
    rows = table.product_rows()
    before = (list(table.images), [list(r) for r in rows])
    el = table.element(1)
    with pytest.raises(TypeError):
        table.images[1] = table.images[0]
    with pytest.raises(TypeError):
        table.images[1][0] = 0
    with pytest.raises(TypeError):
        rows[1] = rows[0]
    with pytest.raises(TypeError):
        rows[1][1] = 0
    with pytest.raises(AttributeError):
        el.img = (1, 1, 1, 1)
    with pytest.raises(AttributeError):
        el.n = 3
    with pytest.raises(AttributeError):
        del el.img
    # copies and pickles are rebuilt through the validating constructor
    assert copy.deepcopy(el) == el
    assert pickle.loads(pickle.dumps(el)) == el
    again = families.enumerate_family(spec)
    after = (list(again.images), [list(r) for r in again.product_rows()])
    assert after == before


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=lambda s: s.label())
def test_product_rows_match_direct_products(spec):
    table = families.enumerate_family(spec)
    assert tuple(map(tuple, table.product_rows())) == direct_rows(table)


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=lambda s: s.label())
def test_product_rows_are_read_only_two_byte_rows(spec):
    table = families.enumerate_family(spec)
    rows, m = table.product_rows(), table.size
    assert type(rows) is tuple and len(rows) == m
    for row in rows:
        assert isinstance(row, memoryview) and isinstance(row.obj, bytes)
        assert row.readonly and row.format == "H"
        assert len(row) == m and row.nbytes == 2 * m
    with pytest.raises(TypeError):
        rows[0][0] = rows[0][0]


def test_index_typecode_switches_past_65536_and_round_trips():
    # Synthetic lines: no table is built.  Indices run below m, so "H"
    # holds them up to m = 65,536 and "I" takes over at 65,537.
    assert families._index_typecode(1) == "H"
    assert families._index_typecode(1 << 16) == "H"
    assert families._index_typecode((1 << 16) + 1) == "I"
    for m, largest in ((1 << 16, (1 << 16) - 1), ((1 << 16) + 1, (1 << 32) - 1)):
        code = families._index_typecode(m)
        line = (0, m - 1, largest)
        packed = memoryview(struct.Struct(f"{len(line)}{code}").pack(*line)).cast(code)
        assert packed.format == code and tuple(packed) == line


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=lambda s: s.label())
def test_cayley_graphs_match_direct_products(spec):
    table = families.enumerate_family(spec)
    want = direct_rows(table)
    gens = table.generators
    assert table.generator_lines(True) == tuple(want[g] for g in gens)
    assert tuple(table.lines(table.generators, False)) == tuple(
        tuple(row[g] for row in want) for g in gens
    )
    # a line outside the generating set is composed the same way
    assert tuple(table.lines(range(table.size), False)) == tuple(zip(*want))
    assert tuple(table.lines(range(table.size), True)) == want
    # rows read at some positions only, in their order, Rees collapses included
    at = range(table.size - 1, -1, -2)
    assert tuple(table.lines(range(table.size), True, at=at)) == tuple(
        tuple(row[x] for x in at) for row in want
    )


def test_rows_and_columns_are_composed_as_they_are_read():
    table = families.enumerate_family(FamilySpec("icn", 4))
    want = direct_rows(table)
    columns = tuple(zip(*want))
    for left, line_of in ((True, want.__getitem__), (False, columns.__getitem__)):
        made = table.lines([5, 0, 5], left)
        assert next(made) == line_of(5)
        assert list(made) == [line_of(0), line_of(5)]
        assert list(table.lines([], left)) == []


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=lambda s: s.label())
def test_tree_walk_derives_every_line_from_its_tree_parent(spec):
    # The walk of the tree_kernel_partition oracle: y = g.x (x.g) on a
    # tree edge has x's line read through g's.
    table = families.enumerate_family(spec)
    want = direct_rows(table)
    gens = table.generators

    def step(line_x, line_g):
        return itemgetter(*line_x)(line_g)

    rows, columns = table.generator_lines(True), tuple(table.lines(gens, False))
    for lines, transpose in ((rows, False), (columns, True)):
        walked = list(tree_walk(table.size, gens, lines, tuple, step))
        assert sorted(a for a, _ in walked) == list(range(table.size))
        for a, line in walked:
            assert line == (tuple(r[a] for r in want) if transpose else want[a])


def gather_walks(table, left):
    """gather's inputs for the rows (left) or the columns of a table, as
    (lines, steps, node_of): over the elements, and over the kernel groups
    with each step read at a group's first member."""
    rows, columns = table.generator_lines(True), tuple(table.lines(table.generators, False))
    lines, steps = (rows, columns) if left else (columns, rows)
    groups = table.kernel_groups(left)
    group_of = [None] * table.size
    for gid, members in enumerate(groups):
        for a in members:
            group_of[a] = gid
    group_steps = [[group_of[step[members[0]]] for members in groups] for step in steps]
    return [(lines, steps, None), (lines, group_steps, group_of)]


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=lambda s: s.label())
def test_gather_enters_each_node_once_with_its_line(spec):
    # Rows and columns, over elements and over the kernel groups: every
    # node entered exactly once, the generators' nodes first in A order,
    # and every line the composed one.
    table = families.enumerate_family(spec)
    want = direct_rows(table)
    gens = table.generators
    for left, line_of in ((True, want), (False, tuple(zip(*want)))):
        for lines, steps, node_of in gather_walks(table, left):
            walked = list(families.gather(gens, lines, steps, node_of))
            node = range(table.size) if node_of is None else node_of
            entered = [node[a] for a, _ in walked]
            assert sorted(entered) == list(range(len(steps[0])))
            roots = {}
            for g in gens:
                roots.setdefault(node[g], g)
            assert [a for a, _ in walked[: len(roots)]] == list(roots.values())
            for a, line in walked:
                assert tuple(line) == line_of[a]


@pytest.mark.parametrize("n", [4, 5])
def test_gather_holds_one_tree_path_of_lines(n):
    # I_n is not J-trivial, so a depth-first walk along the lines alone
    # holds a path through whole J-classes (52 rows on I_4, 146 on I_5).
    # Along the breadth-first tree the walk holds at most one line per
    # level, plus its few bytes of bookkeeping per element.
    table = families.enumerate_family(FamilySpec("syminv", n))
    gens, m = table.generators, table.size
    line_bytes = sys.getsizeof(table.generator_lines(True)[0])
    for left in (True, False):
        walks = gather_walks(table, left)
        depth = dict.fromkeys(gens, 0)
        queue = list(depth)
        for a in queue:
            for b in (step[a] for step in walks[0][1]):
                if b not in depth:
                    depth[b] = depth[a] + 1
                    queue.append(b)
        for lines, steps, node_of in walks:
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                for _ in families.gather(gens, lines, steps, node_of):
                    pass
                held = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert held < (max(depth.values()) + 1) * line_bytes + 64 * m


def kernel_over_s1(table, a, left):
    """The kernel of x -> a.x (left) or x -> x.a over S^1, as its set of
    blocks: every product read through table.product, and one more
    position, the adjoined identity, whose value is a itself."""
    blocks = {}
    for x in range(table.size):
        value = table.product(a, x) if left else table.product(x, a)
        blocks.setdefault(value, set()).add(x)
    blocks.setdefault(a, set()).add("1")
    return frozenset(map(frozenset, blocks.values()))


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=lambda s: s.label())
def test_equal_image_or_domain_gives_one_kernel_over_s1(spec):
    # The lemma greens keys L* and R* by, checked on the products alone:
    # elements with one image induce one kernel of x -> a.x over S^1, and
    # elements with one domain one kernel of x -> x.a.  The adjoined
    # identity's position is kept on every table; the Rees zero is its
    # own group.
    table = families.enumerate_family(spec)
    zero = REES_ZERO if spec.is_rees else None
    for left, name in ((True, pinj.image), (False, pinj.domain)):
        groups = {}
        for a, el in enumerate(elements_of(table)):
            groups.setdefault(zero if el is REES_ZERO else name(el), []).append(a)
        assert table.kernel_groups(left) == list(groups.values())
        for members in groups.values():
            kernels = {kernel_over_s1(table, a, left) for a in members}
            assert len(kernels) == 1, (left, [table.text_of(a) for a in members])


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=lambda s: s.label())
def test_kernel_groups_move_together_along_the_cayley_graph(spec):
    # What greens' walk over the groups rests on, checked on the products
    # alone: the members of an image group times g in A land in one image
    # group, and g times the members of a domain group in one domain
    # group, so a group's successors are read off any one member.
    table = families.enumerate_family(spec)
    for left in (True, False):
        group_of = {}
        for gid, members in enumerate(table.kernel_groups(left)):
            group_of.update(dict.fromkeys(members, gid))
        for members in table.kernel_groups(left):
            for g in table.generators:
                landed = {
                    group_of[table.product(a, g) if left else table.product(g, a)]
                    for a in members
                }
                assert len(landed) == 1, (left, table.text_of(members[0]), table.text_of(g))


def test_the_kernel_lemma_reaches_the_collapse_and_the_adjoined_identity():
    # Non-vacuity, on both sides of RQ'_5(2), which has no identity: some
    # group of two or more elements has products that collapse to the zero
    # for some x and not for others, and for some member the adjoined
    # identity shares its block with an element of the table (a.s = a).
    table = families.enumerate_family(FamilySpec("rq", 5, 2))
    z = table.zero_index
    assert table.identity_index is None
    for left in (True, False):
        shared = [g for g in table.kernel_groups(left) if len(g) > 1]
        lines = [
            {table.product(g[0], x) if left else table.product(x, g[0]) for x in range(table.size)}
            for g in shared
        ]
        assert any(z in line and line - {z} for line in lines)
        assert any(
            len(next(b for b in kernel_over_s1(table, a, left) if "1" in b)) > 1
            for g in shared for a in g
        )


def test_product_rows_of_i5_match_direct_products_on_a_sample():
    # I_5 is not J-trivial and its left search is deep; its 2.4M direct
    # products take seconds, so the generator rows, which are composed
    # directly, are compared in full and the derived rows on a sample.
    table = families.enumerate_family(FamilySpec("syminv", 5))
    rows, m = table.product_rows(), table.size
    assert m == 1546 and len(table.generators) == 4
    for g in table.generators:
        assert tuple(rows[g]) == tuple(direct_product(table, g, j) for j in range(m))
    rng = random.Random(5)
    for _ in range(20_000):
        i, j = rng.randrange(m), rng.randrange(m)
        assert rows[i][j] == direct_product(table, i, j)


@pytest.mark.parametrize("spec, dropped, factors", [
    (FamilySpec("icn", 2), "2:", ("2:2>1", "2:2>1")),  # the empty map
    (FamilySpec("ric", 3, 1), "3:3>1", ("3:3>2", "3:2>1")),  # of height p
], ids=["plain", "rees"])
def test_a_table_that_is_not_closed_raises_an_invariant_error(spec, dropped, factors):
    full = families.enumerate_family(spec)
    kept = [el for i, el in enumerate(elements_of(full)) if full.text_of(i) != dropped]
    corrupt = packed_table(spec, kept)
    i, j = (corrupt.index(pinj.parse_text(text)) for text in factors)
    not_closed = f"{re.escape(spec.label())} is not closed"
    with pytest.raises(InvariantError, match=not_closed):
        corrupt.product(i, j)
    with pytest.raises(InvariantError, match=not_closed):
        list(corrupt.lines([i], True))
    with pytest.raises(InvariantError, match=not_closed):
        corrupt.product_rows()


def test_products_rows_and_columns_share_one_packing(monkeypatch):
    # A table packs its images once, when it is built, and then composes
    # everything through them: no pinj.compose and no element made.
    spec = FamilySpec("rq", 4, 2)
    cached = families.enumerate_family(spec)
    want, m = direct_rows(cached), cached.size
    table = packed_table(spec, elements_of(cached))
    monkeypatch.setattr(pinj, "compose", None)
    monkeypatch.setattr(families.SemigroupTable, "element", None)
    assert tuple(tuple(table.product(i, j) for j in range(m)) for i in range(m)) == want
    assert tuple(table.lines(range(m), True)) == want
    assert tuple(table.lines(range(m), False)) == tuple(zip(*want))
    assert tuple(map(tuple, table.product_rows())) == want


def phi(table, i):
    """(height, sum of the image - sum of the domain), the Rees zero below
    everything."""
    el = table.element(i)
    if el is REES_ZERO:
        return (-1, 0)
    return (pinj.height(el), sum(pinj.image(el)) - sum(pinj.domain(el)))


def visit_key(table):
    """The order the generating set is chosen in, descending: the index on
    I_n, phi with the index as tie-break elsewhere."""
    if table.family.kind == "syminv":
        return lambda i: i
    return lambda i: (phi(table, i), i)


JTRIVIAL_SPECS = [spec for spec in DIFFERENTIAL_SPECS if spec.kind != "syminv"]


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=lambda s: s.label())
def test_generators_reach_every_element_and_hold_every_indecomposable(spec):
    table = families.enumerate_family(spec)
    gens = table.generators
    key = visit_key(table)
    assert isinstance(gens, tuple) and gens[0] == max(range(table.size), key=key)
    assert list(gens) == sorted(gens, key=key, reverse=True)
    # right Cayley graph search with direct products, not the rows
    reached = set(gens)
    frontier = list(gens)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = direct_product(table, x, g)
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    assert reached == set(range(table.size))
    # any generating set holds every element that is no product of others,
    # and in a J-order A holds nothing else
    if spec.kind != "syminv":
        assert genrank.is_jtrivial(table)
        assert frozenset(gens) == oracle_indecomposables(table)


# Every ideal and Rees quotient at n = 6 and 7, and the monoids to n = 8,
# beyond DIFFERENTIAL_SPECS.
RIGHT_GRAPH_SPECS = DIFFERENTIAL_SPECS + [
    FamilySpec(kind, n, p)
    for kind in ("k", "m", "ric", "rq")
    for n in (6, 7)
    for p in _valid_heights(kind, n)
] + [FamilySpec(kind, n) for n in (7, 8) for kind in ("icn", "qprime")]


@pytest.mark.parametrize("spec", RIGHT_GRAPH_SPECS, ids=lambda s: s.label())
def test_right_graph_chooses_the_left_graphs_generators_and_lines(spec):
    # A chosen by a reach along the columns against A chosen by a reach
    # along the rows: the same A in the same
    # order, and the same rows and columns, each column against single
    # products.
    table = families._enumerate_table(spec)
    gens, rows = oracle_left_graph(table)
    assert table.generators == gens
    assert table.generator_lines(True) == rows
    assert table.generator_lines(False) == tuple(
        tuple(table.product(x, g) for x in range(table.size)) for g in gens
    )


@pytest.mark.parametrize("spec", JTRIVIAL_SPECS + [FamilySpec("qprime", 7)],
                         ids=lambda s: s.label())
def test_rank_and_maximal_compose_no_row(monkeypatch, spec):
    # Choosing A composes columns only: no row, so no translate table per
    # element, for the commands that read A alone.
    composer = families.SemigroupTable._composer

    def columns_only(table, left, at=None):
        assert not left, "a row was composed"
        return composer(table, left, at)

    monkeypatch.setattr(families.SemigroupTable, "_composer", columns_only)
    table = families._enumerate_table(spec)
    report = genrank.minimal_generating_set(table)
    assert genrank.maximal_subsemigroups(table) == sorted(table.generators)
    assert report.rank == len(table.generators)
    assert "A rows" not in table._memo


@pytest.mark.parametrize("spec", JTRIVIAL_SPECS, ids=lambda s: s.label())
def test_phi_falls_strictly_along_every_proper_product(spec):
    # x = b.c: phi(b) > phi(x) unless b = x, and phi(c) > phi(x) unless c = x
    table = families.enumerate_family(spec)
    rows = direct_rows(table)
    phis = [phi(table, i) for i in range(table.size)]
    for b, row in enumerate(rows):
        for c, x in enumerate(row):
            assert x == b or phis[b] > phis[x], (b, c)
            assert x == c or phis[c] > phis[x], (b, c)


def test_plain_product_is_composition():
    for spec in DIFFERENTIAL_SPECS:
        if spec.is_rees:
            continue
        table = families.enumerate_family(spec)
        els = [table.element(i) for i in range(table.size)]
        for i in range(table.size):
            for j in range(table.size):
                want = pinj.compose(els[i], els[j])
                assert els[table.product(i, j)] == want, (spec, i, j)


def test_rees_product_collapses_height_drops():
    for spec in DIFFERENTIAL_SPECS:
        if not spec.is_rees:
            continue
        table = families.enumerate_family(spec)
        z = table.zero_index
        els = [table.element(i) for i in range(table.size)]
        dropped = 0
        for i in range(table.size):
            for j in range(table.size):
                got = table.product(i, j)
                if i == z or j == z:
                    assert got == z
                    continue
                composite = pinj.compose(els[i], els[j])
                if pinj.height(composite) == spec.p:
                    assert els[got] == composite, (spec, i, j)
                else:
                    assert got == z, (spec, i, j)
                    dropped += 1
        # Only RIC_n(n), the identity and the zero, has no height drop.
        assert (dropped > 0) == (spec.kind == "rq" or spec.p < spec.n), spec


def test_rees_tables_are_closed_semigroups():
    # associativity of the collapsed product, checked in full at one size
    table = families.enumerate_family(FamilySpec("rq", 4, 2))
    rows = table.product_rows()
    for i in range(table.size):
        for j in range(table.size):
            ij = rows[i][j]
            for k in range(table.size):
                assert rows[ij][k] == rows[i][rows[j][k]]


def test_is_member_per_family():
    inside = pinj.from_pairs(4, [(2, 1), (3, 3)])
    assert families.is_member(inside, FamilySpec("icn", 4))
    assert families.is_member(inside, FamilySpec("qprime", 4))
    assert families.is_member(inside, FamilySpec("k", 4, 2))
    assert families.is_member(inside, FamilySpec("m", 4, 2))
    assert families.is_member(inside, FamilySpec("ric", 4, 2))
    assert families.is_member(inside, FamilySpec("rq", 4, 2))
    assert families.is_member(inside, FamilySpec("syminv", 4))

    fixes_one = pinj.from_pairs(4, [(1, 1), (3, 2)])
    assert families.is_member(fixes_one, FamilySpec("icn", 4))
    assert not families.is_member(fixes_one, FamilySpec("qprime", 4))
    assert not families.is_member(fixes_one, FamilySpec("m", 4, 2))
    assert not families.is_member(fixes_one, FamilySpec("rq", 4, 2))

    too_tall = pinj.from_pairs(4, [(2, 2), (3, 3), (4, 4)])
    assert not families.is_member(too_tall, FamilySpec("k", 4, 2))
    assert not families.is_member(too_tall, FamilySpec("ric", 4, 2))

    too_short = pinj.from_pairs(4, [(3, 2)])
    assert families.is_member(too_short, FamilySpec("k", 4, 2))
    assert not families.is_member(too_short, FamilySpec("ric", 4, 2))

    not_isotone = pinj.parse_text("4:1>2")
    assert families.is_member(not_isotone, FamilySpec("syminv", 4))
    assert not families.is_member(not_isotone, FamilySpec("icn", 4))


def test_membership_matches_enumeration_exactly():
    universe = families.enumerate_family(FamilySpec("syminv", 3))
    for spec in (
        FamilySpec("icn", 3),
        FamilySpec("qprime", 3),
        FamilySpec("k", 3, 2),
        FamilySpec("m", 3, 1),
        FamilySpec("ric", 3, 2),
        FamilySpec("rq", 3, 1),
    ):
        table = families.enumerate_family(spec)
        listed = {
            table.element(i)
            for i in range(table.size)
            if table.element(i) is not REES_ZERO
        }
        for i in range(universe.size):
            alpha = universe.element(i)
            assert families.is_member(alpha, spec) == (alpha in listed)


def test_is_member_validation():
    with pytest.raises(ValidationError):
        families.is_member("3:2>1", FamilySpec("icn", 3))
    with pytest.raises(ChainMismatchError):
        families.is_member(pinj.identity(3), FamilySpec("icn", 4))


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        families.enumerate_family(FamilySpec("icn", 13))
    with pytest.raises(FamilySpecError):
        families.enumerate_family("icn")


def test_family_spec_validation():
    with pytest.raises(FamilySpecError):
        FamilySpec("unknown", 3)
    with pytest.raises(FamilySpecError):
        FamilySpec("icn", 0)
    with pytest.raises(FamilySpecError):
        FamilySpec("icn", 3, 1)
    with pytest.raises(FamilySpecError):
        FamilySpec("k", 3)
    with pytest.raises(FamilySpecError):
        FamilySpec("k", 3, 0)
    with pytest.raises(FamilySpecError):
        FamilySpec("k", 3, 4)
    with pytest.raises(FamilySpecError):
        FamilySpec("m", 3, 3)
    with pytest.raises(FamilySpecError):
        FamilySpec("rq", 3, 3)
    # a bool is no integer: FamilySpec("k", 3, True) == FamilySpec("k", 3, 1)
    # would let the table cache hand one's table out for the other
    for kind, n, p in (("icn", True, None), ("k", 3, True), ("ric", 1, True)):
        with pytest.raises(FamilySpecError):
            FamilySpec(kind, n, p)
    # top heights that are allowed
    FamilySpec("k", 3, 3)
    FamilySpec("m", 3, 2)


@pytest.mark.parametrize("kind", ["m", "rq"])
@pytest.mark.parametrize("p", [None, 1])
def test_the_identity_free_ideals_take_no_p_on_the_one_chain(kind, p):
    # p would need 1 <= p <= 0: say that no p is valid, not that range
    with pytest.raises(FamilySpecError, match=f"^family '{kind}' takes no valid p on the 1-chain$"):
        FamilySpec(kind, 1, p)


# Every refusal FamilySpec makes, as (kind, n, p).
REFUSED_SPECS = [
    ("unknown", 3, None), ("icn", 0, None), ("icn", 3, 1), ("k", 3, None), ("k", 3, 0),
    ("k", 3, 4), ("m", 3, 3), ("rq", 3, 3), ("m", 1, 1), ("rq", 1, None),
    ("icn", True, None), ("k", 3, True), ("ric", 1, True), ("k", 3, 2.0), ("icn", 3.0, None),
]


@pytest.mark.parametrize("bad", REFUSED_SPECS, ids=repr)
def test_every_refusal_holds_on_every_route_to_a_spec(bad):
    kind, n, p = bad
    valid = FamilySpec("k", 3, 2)
    with pytest.raises(FamilySpecError):
        FamilySpec(kind, n, p)
    with pytest.raises(FamilySpecError):
        FamilySpec(kind=kind, n=n, p=p)
    if hasattr(FamilySpec, "_make"):
        with pytest.raises(FamilySpecError):
            FamilySpec._make(bad)
    if hasattr(FamilySpec, "_replace"):
        with pytest.raises(FamilySpecError):
            valid._replace(kind=kind, n=n, p=p)
    # copies and pickles are rebuilt by the callable __reduce_ex__ names,
    # which refuses the same
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        rebuild, args = valid.__reduce_ex__(protocol)[:2]
        assert rebuild(*args) == valid
        with pytest.raises(FamilySpecError):
            rebuild(kind, n, p)


def test_a_tampered_pickle_is_refused():
    # K(3,3) pickled and relabelled M(3,3), whose p is out of range
    data = pickle.dumps(FamilySpec("k", 3, 3), protocol=2)
    kind = b"X\x01\x00\x00\x00k"  # BINUNICODE, length 1, "k"
    assert data.count(kind) == 1
    tampered = data.replace(kind, b"X\x01\x00\x00\x00m")
    with pytest.raises(FamilySpecError, match="needs 1 <= p <= 2"):
        pickle.loads(tampered)


def test_a_spec_is_immutable_and_equal_specs_share_one_table():
    spec = FamilySpec("rq", 4, 2)
    for name in ("kind", "n", "p", "other"):
        with pytest.raises(AttributeError):
            setattr(spec, name, 3)
        with pytest.raises(AttributeError):
            delattr(spec, name)
    assert (spec.kind, spec.n, spec.p) == ("rq", 4, 2)
    same = [FamilySpec("rq", 4, 2), FamilySpec(kind="rq", n=4, p=2),
            copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))]
    table = families.enumerate_family(spec)
    for other in same:
        assert other == spec and hash(other) == hash(spec) and type(other) is FamilySpec
        assert families.enumerate_family(other) is table
    for other in (FamilySpec("ric", 4, 2), FamilySpec("rq", 4, 1), FamilySpec("rq", 5, 2)):
        assert other != spec
        assert families.enumerate_family(other) is not table
    assert repr(spec) == "FamilySpec(kind='rq', n=4, p=2)"


def test_valid_heights_are_the_heights_a_spec_accepts():
    # one statement of which p each kind takes, read by FamilySpec, the
    # battery and the differential specs alike
    for kind in families.KINDS:
        for n in range(1, 7):
            heights = families._valid_heights(kind, n)
            for p in [None, *range(-2, n + 3)]:
                try:
                    FamilySpec(kind, n, p)
                except FamilySpecError:
                    assert p not in heights, (kind, n, p)
                else:
                    assert p in heights, (kind, n, p)
    assert list(families._valid_heights("k", 3)) == [1, 2, 3]
    assert list(families._valid_heights("rq", 3)) == [1, 2]
    assert families._valid_heights("icn", 3) == (None,)


def test_labels():
    assert FamilySpec("icn", 3).label() == "IC_3"
    assert FamilySpec("qprime", 3).label() == "Q'_3"
    assert FamilySpec("syminv", 3).label() == "I_3"
    assert FamilySpec("k", 4, 2).label() == "K(4,2)"
    assert FamilySpec("m", 4, 2).label() == "M(4,2)"
    assert FamilySpec("ric", 4, 2).label() == "RIC_4(2)"
    assert FamilySpec("rq", 4, 2).label() == "RQ'_4(2)"


def test_table_json_shape():
    table = families.enumerate_family(FamilySpec("rq", 3, 1))
    data = families.table_json(table)
    assert data["family"] == "rq"
    assert data["n"] == 3 and data["p"] == 1
    assert data["order"] == table.size
    assert data["elements"][0] == "0"
    assert len(data["elements"]) == table.size
    plain = families.table_json(families.enumerate_family(FamilySpec("icn", 2)))
    assert "p" not in plain


def test_rees_zero_is_a_singleton():
    assert ReesZero() is REES_ZERO
    assert repr(REES_ZERO) == "0"


@pytest.mark.parametrize("n", range(1, 7))
def test_the_whole_ideals_share_the_semigroup_table(n):
    # K(n,n) is IC_n and M(n,n-1) is Q'_n: one image tuple and one store,
    # so one set of Cayley graphs and relations, under the ideal's own spec.
    pairs = [(FamilySpec("k", n, n), FamilySpec("icn", n))]
    if n >= 2:
        pairs.append((FamilySpec("m", n, n - 1), FamilySpec("qprime", n)))
    for ideal_spec, whole_spec in pairs:
        ideal = families.enumerate_family(ideal_spec)
        whole = families.enumerate_family(whole_spec)
        assert ideal is not whole and ideal._memo is whole._memo
        assert ideal.family == ideal_spec and whole.family == whole_spec
        assert ideal.images is whole.images
        assert ideal.generators is whole.generators
        assert ideal.generator_lines(True) is whole.generator_lines(True)
        assert greens.starred_L(ideal) is greens.starred_L(whole)
        assert greens.starred_R(ideal) is greens.starred_R(whole)
        for which in greens.GREEN_NAMES:
            assert greens.green(ideal, which) is greens.green(whole, which), which
    # The lower heights and the Rees quotients are tables of their own.
    whole = families.enumerate_family(FamilySpec("icn", n))
    others = [FamilySpec("k", n, p) for p in range(1, n)]
    others += [FamilySpec("ric", n, p) for p in range(1, n + 1)]
    others += [FamilySpec("rq", n, p) for p in range(1, n)]
    for spec in others:
        table = families.enumerate_family(spec)
        assert table._memo is not whole._memo
        assert table.images is not whole.images
        assert greens.starred_L(table) is not greens.starred_L(whole)


def test_a_renamed_table_reads_what_its_semigroup_builds_later():
    # Built fresh and in either order, everything the ideal computes once
    # is the whole semigroup's object: Cayley graphs, product rows,
    # relations and idempotents.
    results = {
        "generators": lambda t: t.generators,
        "A rows": lambda t: t.generator_lines(True),
        "product_rows": lambda t: t.product_rows(),
        **{which: lambda t, w=which: greens.green(t, w) for which in ("L", "R", "J")},
        **{which: lambda t, w=which: greens.starred(t, w) for which in ("Ls", "Rs", "Ds")},
        "idempotents": structure.idempotent_indices,
    }
    for ideal_spec, whole_spec in (
        (FamilySpec("k", 4, 4), FamilySpec("icn", 4)),
        (FamilySpec("m", 4, 3), FamilySpec("qprime", 4)),
    ):
        for first in ("ideal", "whole"):
            whole = families._enumerate_table(whole_spec)
            ideal = whole.renamed(ideal_spec)
            tables = (ideal, whole) if first == "ideal" else (whole, ideal)
            built = {name: result(tables[0]) for name, result in results.items()}
            for name, result in results.items():
                if name == "idempotents":
                    # a new list on each call, read from the one stored tuple
                    assert result(tables[1]) == built[name]
                else:
                    assert result(tables[1]) is built[name], (ideal_spec, first, name)
            assert ideal._memo is whole._memo
            assert ideal.family == ideal_spec and whole.family == whole_spec


def ask_everything(table):
    """Ask table for all it computes once: generators, product rows, every
    relation and its idempotents."""
    assert table.generators
    table.product_rows()
    for which in greens.GREEN_NAMES:
        greens.green(table, which)
    for which in ("Ls", "Rs", "Hs", "Ds", "Js"):
        greens.starred(table, which)
    structure.idempotent_indices(table)
    assert {"A", "rows", "L", "Ls", "Ds", "E"} <= set(table._memo)


def test_no_global_holds_a_table():
    # Everything a table derives lives in its own store, so a table built
    # outside the cache goes once its last reference does.
    table = families._enumerate_table(FamilySpec("rq", 5, 2))
    ask_everything(table)
    ref = weakref.ref(table)
    del table
    gc.collect()
    assert ref() is None


@pytest.fixture
def no_collector():
    """The cyclic garbage collector off for one test: what goes, goes by
    reference counting alone."""
    gc.disable()
    yield
    gc.enable()


@pytest.mark.parametrize("specs", [
    (FamilySpec("rq", 5, 2),),
    (FamilySpec("icn", 4), FamilySpec("k", 4, 4)),
    (FamilySpec("m", 4, 3), FamilySpec("qprime", 4)),
], ids=lambda specs: "-".join(spec.label() for spec in specs))
def test_a_cached_table_goes_with_its_last_holder(no_collector, specs):
    # The cache holds a table only while a caller does, and a table's
    # store holds no cycle back to it, so tables asked for everything they
    # compute go once dropped, twins included, with no collection.
    assert not set(specs) & set(families._TABLES.keys()), "held elsewhere"
    tables = [families.enumerate_family(spec) for spec in specs]
    for table in tables:
        ask_everything(table)
    refs = [weakref.ref(table) for table in tables]
    del table, tables
    assert [ref() for ref in refs] == [None] * len(specs)
    assert not set(specs) & set(families._TABLES.keys())


@pytest.mark.parametrize("whole, ideal", [
    (FamilySpec("icn", 4), FamilySpec("k", 4, 4)),
    (FamilySpec("qprime", 4), FamilySpec("m", 4, 3)),
], ids=lambda spec: spec.label())
@pytest.mark.parametrize("first", ["whole", "ideal"])
def test_twins_share_one_store_while_either_is_held(whole, ideal, first):
    one, other = (whole, ideal) if first == "whole" else (ideal, whole)
    assert families.store_group(one) == families.store_group(other) == (whole, ideal)
    held = families.enumerate_family(one)
    assert held.generators
    twin = families.enumerate_family(other)
    assert twin.family == other and held.family == one
    assert twin._memo is held._memo and twin.images is held.images
    # The first dropped, the second still hands its store to the first.
    memo = held._memo
    del held
    assert families.enumerate_family(one)._memo is memo
    # Both dropped: the next request builds a new table and store.
    del twin
    assert not {one, other} & set(families._TABLES.keys())
    assert "A" not in families.enumerate_family(one)._memo


def test_store_groups_pair_each_semigroup_with_its_whole_ideal():
    for n in range(1, 8):
        for kind, ideal in (("icn", "k"), ("qprime", "m")):
            heights = families._valid_heights(ideal, n)
            if not heights:  # Q'_1 has no ideal M(1,p)
                assert families.store_group(FamilySpec(kind, n)) == (FamilySpec(kind, n),)
                continue
            group = (FamilySpec(kind, n), FamilySpec(ideal, n, heights[-1]))
            assert families.store_group(group[0]) == families.store_group(group[1]) == group
            for p in heights[:-1]:
                assert families.store_group(FamilySpec(ideal, n, p)) == (FamilySpec(ideal, n, p),)
        for kind in ("ric", "rq"):
            for p in families._valid_heights(kind, n):
                assert families.store_group(FamilySpec(kind, n, p)) == (FamilySpec(kind, n, p),)
        assert families.store_group(FamilySpec("syminv", n)) == (FamilySpec("syminv", n),)

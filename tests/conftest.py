"""Shared fixtures, test-only oracles, and the acceptance line reporter.

Acceptance tests record one human-readable line per criterion; the lines
are echoed in a dedicated section after the run so they stay visible
under default output capturing.

relation_pairs and relation_compose are the explicit pair-set form of
relation composition.  The library composes on class ids instead
(greens.related_sets); these stay here as the oracle it is checked
against.

direct_rows and green_by_ideals are the product table composed entry by
entry and Green's relations read off principal ideals as sets.  The
library builds rows from a generating set and takes L, R and J as
strongly connected components of Cayley graphs; these are the oracles
for both, over DIFFERENTIAL_SPECS.

oracle_closure and oracle_indecomposables read every pair of the direct
table: a pairwise search and a scan of all m^2 products.  The library
reads only the Cayley graphs over the generating set; these are the
oracles it is checked against.

kernel_key and kernel_key_starred key each line by the first position of
each value, over a copy of the line with a appended for an adjoined
identity: a signature apart from the library's first-occurrence labels,
which L* and R* are checked against.  star_ideal_J groups
elements by greens.star_ideal, the saturated principal *-ideal, which is
the oracle for J* as strongly connected components.

row_builds makes enumerate_family return fresh, uncached tables and
counts the full product tables built, for the tests that check which
commands build none.
"""

from collections import defaultdict
from functools import lru_cache

import pytest

from catalanlab import families, greens
from catalanlab.families import KINDS_WITH_P, FamilySpec
from catalanlab.greens import IndexPartition


def _valid_heights(kind, n):
    if kind not in KINDS_WITH_P:
        return [None]
    top = n if kind in ("k", "ric") else n - 1
    return list(range(1, top + 1))


# Every kind and height with n <= 5, except I_5, whose 2.4M direct
# products take seconds; I_4 is the non-J-trivial case.
DIFFERENTIAL_SPECS = [
    FamilySpec(kind, n, p)
    for kind in families.KINDS
    for n in range(1, 6)
    for p in _valid_heights(kind, n)
    if not (kind == "syminv" and n == 5)
] + [FamilySpec("icn", 6), FamilySpec("qprime", 6)]

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def announce():
    def _record(line):
        ACCEPTANCE_LINES.append(line)
        print(line)

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def relation_pairs(rel):
    """A partition or a pair collection as an explicit set of pairs."""
    if isinstance(rel, IndexPartition):
        return {(a, b) for members in rel.classes for a in members for b in members}
    return set(rel)


def relation_compose(r1, r2):
    """Relational composition: (x, z) whenever (x, y) in r1 and (y, z) in r2."""
    by_first = defaultdict(set)
    for y, z in relation_pairs(r2):
        by_first[y].add(z)
    return {(x, z) for x, y in relation_pairs(r1) for z in by_first[y]}


def related_pairs(related):
    """The output of greens.related_sets as a set of pairs."""
    return {(a, b) for a, bs in enumerate(related) for b in bs}


@lru_cache(maxsize=None)
def direct_rows(table):
    """The product table with every entry composed directly, as tuples."""
    m = table.size
    return tuple(tuple(table.product(i, j) for j in range(m)) for i in range(m))


def green_by_ideals(table):
    """Green's relations L, R, H, D and J, by name, read off principal
    ideals as sets; D is the join of L and R."""
    rows = direct_rows(table)
    m = table.size
    left = [frozenset({rows[s][a] for s in range(m)} | {a}) for a in range(m)]
    right = [frozenset(rows[a]) | {a} for a in range(m)]
    # S^1 a S^1 is the union of the left ideals of the members of a S^1
    both = [frozenset().union(*(left[y] for y in right[a])) for a in range(m)]
    out = {
        "L": IndexPartition.from_keys(left),
        "R": IndexPartition.from_keys(right),
        "H": IndexPartition.from_keys(list(zip(left, right))),
        "J": IndexPartition.from_keys(both),
    }
    out["D"] = transitive_closure_join(out["L"], out["R"], m)
    return out


def transitive_closure_join(p1, p2, size):
    # plain BFS on the union of the two relations, no union-find
    neighbors = [set() for _ in range(size)]
    for part in (p1, p2):
        for members in part.classes:
            for a in members:
                neighbors[a].update(members)
    seen = [False] * size
    groups = []
    for start in range(size):
        if seen[start]:
            continue
        block = set()
        frontier = [start]
        while frontier:
            x = frontier.pop()
            if x in block:
                continue
            block.add(x)
            frontier.extend(n for n in neighbors[x] if n not in block)
        for x in block:
            seen[x] = True
        groups.append(block)
    return IndexPartition.from_groups(size, groups)


def oracle_closure(table, generators):
    """The subsemigroup generated by the given indices, by a pairwise
    search over the direct table: each new element is multiplied on both
    sides by everything found so far."""
    rows = direct_rows(table)
    acc, queue = [], list(dict.fromkeys(generators))
    seen = set(queue)
    while queue:
        x = queue.pop()
        for y in acc + [x]:
            for z in (rows[x][y], rows[y][x]):
                if z not in seen:
                    seen.add(z)
                    queue.append(z)
        acc.append(x)
    return frozenset(seen)


def oracle_indecomposables(table):
    """Elements that are not a product b c with b and c both different
    from them, by a scan of every entry of the direct table."""
    rows = direct_rows(table)
    m = table.size
    decomposable = {
        rows[b][c] for b in range(m) for c in range(m)
        if rows[b][c] not in (b, c)
    }
    return frozenset(range(m)) - decomposable


def kernel_key(values):
    """Canonical signature of the kernel induced by a value row: position
    i maps to the first position holding the same value, so two rows get
    equal keys exactly when they induce the same kernel."""
    first = dict(zip(reversed(values), range(len(values) - 1, -1, -1)))
    return tuple(map(first.__getitem__, values))


def kernel_key_starred(table, transpose):
    """L* (R* when transposed) by kernel_key of each row (column), copied
    with a appended when the table has no identity to stand for a.1."""
    rows = table.product_rows()
    lines = zip(*rows) if transpose else rows
    if table.identity_index is None:
        keys = [kernel_key((*line, a)) for a, line in enumerate(lines)]
    else:
        keys = [kernel_key(line) for line in lines]
    return IndexPartition.from_keys(keys)


def star_ideal_J(table, representatives=None):
    """J* as the grouping of elements by their principal *-ideal,
    saturated by greens.star_ideal.  With representatives (a D*-class
    partition), one ideal is saturated per class, which D* lying inside
    J* allows; the default saturates one per element."""
    if representatives is None:
        groups = [(a,) for a in range(table.size)]
    else:
        groups = representatives.classes
    by_ideal = defaultdict(list)
    for members in groups:
        by_ideal[greens.star_ideal(table, members[0])].extend(members)
    return IndexPartition.from_groups(table.size, by_ideal.values())


@pytest.fixture
def row_builds(monkeypatch):
    """A list of the tables whose full product rows get built, while
    enumerate_family returns a fresh table on every call."""
    built = []
    product_rows = families.SemigroupTable.product_rows

    def counted(table):
        if table._rows is None:
            built.append(table)
        return product_rows(table)

    monkeypatch.setattr(families.SemigroupTable, "product_rows", counted)
    monkeypatch.setattr(families, "_build_table", families._build_table.__wrapped__)
    return built

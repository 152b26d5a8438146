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
"""

from collections import defaultdict
from functools import lru_cache

import pytest

from catalanlab import families
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

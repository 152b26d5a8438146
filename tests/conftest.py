"""Shared fixtures, test-only oracles, and the acceptance line reporter.

Acceptance tests record one human-readable line per criterion; the lines
are echoed in a dedicated section after the run so they stay visible
under default output capturing.

relation_pairs and relation_compose are the explicit pair-set form of
relation composition.  The library composes on class ids instead
(greens.related_sets); these stay here as the oracle it is checked
against.
"""

from collections import defaultdict

import pytest

from catalanlab.greens import IndexPartition

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

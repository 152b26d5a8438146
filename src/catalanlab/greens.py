"""Green's relations and their starred refinements on a finite table.

The classical relations come from the Cayley graphs over the table's
generating set A: x -> xg is the right graph and x -> gx the left one
(g in A).  xS^1 is what x reaches in the right graph, so R is its
strongly connected components; L is those of the left graph and J those
of the union of both.  Tarjan's algorithm finds them in O(m |A|).  The
graphs are the table's generator rows and columns, composed on packed
images; the classical relations never build the m x m product rows.

The starred relations are computed from their defining witnesses, not
from any structural shortcut: a and b are L*-related exactly when the
maps x -> ax and x -> bx induce the same kernel on the table with an
identity formally adjoined (no adjunction when the table already has
one).  Structural characterizations (same image, same domain, same
height) are built with partition_by and compared by the battery and the
tests, as the independent cross-check.

Kernel keys.  Each row (for L*) and each column (for R*) is read once:
its values are labelled in order of first occurrence (dict.fromkeys),
and the labels, read back along the line (packed into bytes when there
are at most 256), are its key.  The adjoined identity is a second key
component, the label of a in line a (a.1 = a), or -1 when a does not
occur in it; the line is never copied.  Elements are bucketed by key as
the keys are made, so only one key per class is kept.  R* streams its
columns with zip(*rows), one column alive at a time: no m x m transpose
is built: holding one raised the peak RSS of the Q'_7 commands of the
`tables` benchmark to 39.8 MB, above that workload's 35.3 MB peak.

J* as strongly connected components.  Take the *-graph on S with edges
x -> g.x and x -> x.g for g in A, plus a cycle through each L*-class and
each R*-class.  The principal *-ideal J*(a), the least set containing a
that is an ideal of S and a union of L*- and R*-classes, is exactly the
set of elements a reaches in this graph.

  What a reaches contains a, is closed under left and right
  multiplication by A, and so by all of S (every element is a product
  over A), and it holds the whole L*- and R*-class of each of its
  elements (the cycles); so it contains J*(a).  Conversely J*(a), being
  an ideal and a union of L*- and R*-classes, has no edge leaving it, so
  nothing a reaches lies outside it.

So a J* b exactly when a and b reach each other: J* is the partition
into strongly connected components.  L*-related elements lie on one
cycle and so do R*-related ones, so every D*-class (the join of L* and
R*) lies inside one component.  The components can therefore be found
on the much smaller quotient graph whose nodes are the D*-classes: the
cycles fall inside the nodes, and class C has an edge to the class of
g.x and of x.g for each x in C.  Tarjan's routine above finds them.
This reads O(m |A|) entries; saturating each ideal as a set, as
star_ideal does, reads whole rows and columns per element reached.
star_ideal stays as the definition-level oracle.  On every family table
here J* equals D*, but not on every finite semigroup: the tests hold a
33-element Rees quotient of a semigroup of partial maps where J* merges
two D*-classes.

The classical relations and L* and R* are computed once per table, and
later calls return the same IndexPartition; H*, D* and J* are built from
L* and R*, so they reuse it too.  The memo is keyed weakly by the table
object, so it needs no attribute on the table and goes away with it;
duck-typed tables work unchanged.

Partitions index elements by table position; class ids are assigned by
least member, so all outputs are deterministic.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from itertools import count
from operator import itemgetter

from . import pinj
from .errors import InvariantError, ValidationError

GREEN_NAMES = ("L", "R", "H", "D", "J")

# Relations already computed, per table: table -> {relation name: partition}.
# Keys are held weakly, so a table's entry goes when the table does.
_MEMO = weakref.WeakKeyDictionary()


def _memoized(table, name, build, *args):
    """build(table, *args), computed once per table and then shared.

    The memo is keyed by the table object, so a new table never sees an
    earlier table's result.  A table that cannot be weakly referenced or
    hashed is not memoized.
    """
    try:
        per_table = _MEMO.get(table)
        if per_table is None:
            per_table = _MEMO[table] = {}
    except TypeError:
        return build(table, *args)
    part = per_table.get(name)
    if part is None:
        part = build(table, *args)
        # Equal relations share one object, so a table holds each distinct
        # partition once: on a J-trivial table all five classical
        # relations are the identity.
        part = next((p for p in per_table.values() if p == part), part)
        per_table[name] = part
    return part


class IndexPartition:
    """A partition of table indices with deterministic class ids."""

    __slots__ = ("class_of", "classes")

    def __init__(self, class_of, classes):
        self.class_of = tuple(class_of)
        self.classes = tuple(tuple(c) for c in classes)

    @classmethod
    def from_groups(cls, size, groups):
        classes = sorted((tuple(sorted(g)) for g in groups), key=lambda c: c[0])
        class_of = [None] * size
        for cid, members in enumerate(classes):
            for i in members:
                class_of[i] = cid
        if any(c is None for c in class_of):
            raise ValidationError("groups do not cover every index")
        return cls(class_of, classes)

    @classmethod
    def from_keys(cls, keys):
        buckets = defaultdict(list)
        for i, key in enumerate(keys):
            buckets[key].append(i)
        return cls.from_groups(len(keys), buckets.values())

    @property
    def class_count(self):
        return len(self.classes)

    @property
    def max_class_size(self):
        return max((len(c) for c in self.classes), default=0)

    @property
    def is_identity(self):
        return all(len(c) == 1 for c in self.classes)

    def class_members(self, i):
        return self.classes[self.class_of[i]]

    def same(self, i, j):
        return self.class_of[i] == self.class_of[j]

    def __eq__(self, other):
        return isinstance(other, IndexPartition) and self.classes == other.classes

    def __hash__(self):
        return hash(self.classes)


def green(table, which):
    """One of Green's relations L, R, H, D, J as an IndexPartition.

    L, R and J are the strongly connected components of the left, right
    and two-sided Cayley graphs over table.generators; H is the meet of L
    and R.  D is computed as the join of L and R and checked against J,
    which must coincide with it on a finite semigroup.  Each relation is
    computed once per table; later calls return the same object.
    """
    if which not in GREEN_NAMES:
        raise ValidationError(f"unknown Green relation {which!r}")
    return _memoized(table, which, _green, which)


def _green(table, which):
    if which in ("H", "D"):
        lpart = _memoized(table, "L", _green, "L")
        rpart = _memoized(table, "R", _green, "R")
        if which == "H":
            return IndexPartition.from_keys(list(zip(lpart.class_of, rpart.class_of)))
        joined = _join(lpart, rpart, table.size)
        if joined != _memoized(table, "J", _green, "J"):
            raise InvariantError("D and J disagree on a finite table; table is corrupt")
        return joined
    # The successors of x are read across the generator rows or columns.
    if which == "L":
        return _components(list(zip(*table.generator_rows())))
    if which == "R":
        return _components(list(zip(*table.generator_columns())))
    # which == "J": the union of the two graphs
    return _components(list(zip(*table.generator_rows(), *table.generator_columns())))


def _components(successors):
    """Strongly connected components of the graph x -> successors[x], by
    Tarjan's algorithm with an explicit stack (no recursion)."""
    m = len(successors)
    order = [-1] * m  # visit number; m once x's component is closed
    low = [0] * m
    stack, groups, count = [], [], 0
    for root in range(m):
        if order[root] >= 0:
            continue
        order[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(successors[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if order[w] < 0:
                    order[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(successors[w])))
                    break
                if order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == order[v]:
                    group = []
                    while not group or group[-1] != v:
                        w = stack.pop()
                        order[w] = m
                        group.append(w)
                    groups.append(group)
    return IndexPartition.from_groups(m, groups)


def _join(p1, p2, m):
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for part in (p1, p2):
        for members in part.classes:
            first = members[0]
            for other in members[1:]:
                union(first, other)
    groups = defaultdict(list)
    for i in range(m):
        groups[find(i)].append(i)
    return IndexPartition.from_groups(m, groups.values())


def _kernel_key(values, adjoined=None):
    """Canonical signature of the kernel induced by a line of values (a
    row a.x or a column x.a): each value is labelled in order of first
    occurrence, so two lines get equal signatures exactly when they
    induce the same kernel.  The labels are packed into bytes when they
    fit, which hashes and stores faster; lines with equal kernels have
    equally many labels, so they never differ in type.

    With adjoined (the a of a.1 = 1.a = a for an identity formally
    adjoined), the kernel also covers that extra position, which joins
    the block of the positions holding adjoined: the key gains the label
    of adjoined, or -1 when no position holds it.  The line is not
    copied.  The work is done by C builtins, with no Python-level loop.
    """
    labels = dict(zip(dict.fromkeys(values), count()))
    signature = map(labels.__getitem__, values)
    signature = bytes(signature) if len(labels) <= 256 else tuple(signature)
    if adjoined is None:
        return signature
    return signature, labels.get(adjoined, -1)


def _kernel_partition(table, lines):
    """Elements a with equal kernels of line a, over the table with an
    identity adjoined when it has none; each line is read once."""
    adjoin = table.identity_index is None
    buckets = defaultdict(list)
    for a, line in enumerate(lines):
        buckets[_kernel_key(line, a if adjoin else None)].append(a)
    return IndexPartition.from_groups(table.size, buckets.values())


def starred_L(table):
    """L*: equal kernels of x -> ax with x running over the table plus a
    formally adjoined identity when none is present."""
    return _memoized(table, "Ls", _starred_L)


def _starred_L(table):
    return _kernel_partition(table, table.product_rows())


def starred_R(table):
    """R*: the dual of L*, with kernels of x -> xa."""
    return _memoized(table, "Rs", _starred_R)


def _starred_R(table):
    # zip(*rows) streams the columns, one alive at a time.
    return _kernel_partition(table, zip(*table.product_rows()))


def starred_H(table):
    left = starred_L(table)
    right = starred_R(table)
    keys = list(zip(left.class_of, right.class_of))
    return IndexPartition.from_keys(keys)


def starred_D(table):
    """D*: the join (transitive closure) of L* and R*."""
    return _join(starred_L(table), starred_R(table), table.size)


def star_ideal(table, a):
    """The principal *-ideal of a: the least set containing a that is an
    ideal and a union of L*- and R*-classes.

    The definition, saturated set by set: the oracle starred_J is tested
    against, which starred_J itself never calls."""
    rows = table.product_rows()
    lstar = starred_L(table)
    rstar = starred_R(table)
    current = {a}
    frontier = [a]
    while frontier:
        fresh = set()
        for s in frontier:
            fresh.update(rows[s])
            fresh.update(map(itemgetter(s), rows))
            fresh.update(lstar.class_members(s))
            fresh.update(rstar.class_members(s))
        fresh -= current
        current |= fresh
        frontier = list(fresh)
    return frozenset(current)


def starred_J(table):
    """J*: equality of principal *-ideals, as strongly connected
    components (see the module docstring for the proof).

    The components are taken on the quotient graph of D*-classes: class
    C has an edge to the D*-class of g.x and of x.g for every x in C and
    g in A.  g.x is read from the generator rows and x.g off x's row, so
    no column is composed.  A duck-typed table without generators uses
    every element as A.
    """
    rows = table.product_rows()
    gens = getattr(table, "generators", range(table.size))
    dstar = starred_D(table)
    dclass = dstar.class_of
    class_id = dclass.__getitem__
    successors = [set() for _ in dstar.classes]
    # zip(*generator rows) gives, for each x, the tuple of g.x over A.
    lefts = zip(*map(rows.__getitem__, gens))
    for c, row_x, left in zip(dclass, rows, lefts):
        out = successors[c]
        out.update(map(class_id, left))
        out.update(map(class_id, map(row_x.__getitem__, gens)))
    components = _components(successors).class_of
    return IndexPartition.from_keys([components[c] for c in dclass])


def starred(table, which):
    """Dispatch helper mirroring green(): which is Ls, Rs, Hs, Ds or Js."""
    fn = {
        "Ls": starred_L,
        "Rs": starred_R,
        "Hs": starred_H,
        "Ds": starred_D,
        "Js": starred_J,
    }.get(which)
    if fn is None:
        raise ValidationError(f"unknown starred relation {which!r}")
    return fn(table)


def partition_by(table, key_fn):
    """The partition of a table by key_fn of each element; a Rees zero
    forms a class of its own."""
    keys = []
    for i in range(table.size):
        el = table.element(i)
        if isinstance(el, pinj.PartialInjection):
            keys.append(("el", key_fn(el)))
        else:
            keys.append(("zero",))
    return IndexPartition.from_keys(keys)


def related_sets(*partitions):
    """The composite relation P1 o P2 o ... o Pk of partitions of one table.

    Entry a of the returned tuple is the frozenset of every b with
    a (P1 o ... o Pk) b.  The work is done on class ids: a (P o Q) b holds
    exactly when the P-class of a meets the Q-class of b, so the set for a
    is a's P1-class expanded through the classes of each later partition
    in turn, and is shared by the whole P1-class.  With one partition the
    entry is just a's class.
    """
    first, *rest = partitions
    per_class = []
    for members in first.classes:
        reach = set(members)
        for part in rest:
            ids = {part.class_of[b] for b in reach}
            reach = {b for c in ids for b in part.classes[c]}
        per_class.append(frozenset(reach))
    return tuple(per_class[c] for c in first.class_of)

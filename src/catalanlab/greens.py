"""Green's relations and their starred refinements on a finite table.

The classical relations come from the Cayley graphs over the table's
generating set A: x -> xg is the right graph and x -> gx the left one
(g in A).  xS^1 is what x reaches in the right graph, so R is its
strongly connected components; L is those of the left graph and J those
of the union of both.  Tarjan's algorithm finds them in O(m |A|).  The
graphs are the table's generator rows and columns, composed on packed
images; the classical relations never build the m x m product rows.
Joins are components too: D is the partition into the strongly connected
components of the graph with a cycle through each L-class and each
R-class (D* likewise over L* and R*), so one routine does all the
grouping.  H and H* are meets, read off pairs of class ids.

The starred relations are computed from their defining witnesses, not
from the paper's characterizations: a and b are L*-related exactly when
the maps x -> ax and x -> bx induce the same kernel on the table with an
identity formally adjoined (no adjunction when the table already has
one).  The only structure used is the lemma below, which lets elements
with one image (domain) share one computed kernel.  The characterizations
(same image, same domain, same height) are built with partition_by and
compared by the battery and the tests, as the independent cross-check.

Kernel keys.  A line (a row a.x for L*, a column x.a for R*) is keyed
by labelling its values in order of first occurrence and reading the
labels back along it, packed into bytes: one byte a label while there
are at most 256, two bytes up to 65,536 and four past that.  All lines of
a table have m entries, so keys of different widths never collide.  The
adjoined identity is a second key component, the label of a in line a
(a.1 = a), or -1 when a does not occur in it.

One key per image and one per domain.  The table hands greens groups of
indices proven to share a kernel (SemigroupTable.kernel_groups: equal
image for L*, equal domain for R*).
Only each group's first member has its line composed and keyed; every
other member takes that key.  Keys still decide which groups merge, so
the partition is computed, not assumed: different images (domains) may
share a kernel, and on RQ'_n(p) with p >= 2 they do.

  Lemma.  In every family table, elements with equal image induce the
  same kernel of x -> a.x over S^1, and elements with equal domain the
  same kernel of x -> x.a.

  Products compose left to right: (a.s)(i) = s(a(i)) for i in dom a with
  a(i) in dom s.  Since a is a bijection from dom a onto im a, a.s is a
  relabelled copy of s|im a, the restriction of s to im a, and a.s = a.t
  exactly when s|im a = t|im a (Lawson, Inverse Semigroups, 1998, 1.1).
  That condition names only im a.  The adjoined identity adds a.1 = a,
  and a.s = a exactly when s fixes im a pointwise, again a condition on
  im a.  In a Rees quotient of height p, a nonzero a has height p and
  a.s is the zero exactly when |dom s n im a| < p, that is when s|im a
  has fewer than p points; otherwise it is the product above.  The zero
  s absorbs, and a.0 = a.t exactly when a.t collapses, which is read off
  t|im a too.  So in every case which pairs of S^1 a identifies depends
  only on im a.  The zero itself packs as the empty map, and is the only
  element of its quotient with that image and domain (p >= 1), so it is
  a group of its own.  Dually (s.a)(i) = a(s(i)) for s(i) in dom a, so
  s.a is a relabelled copy of s cut down to the points it sends into
  dom a; s.a = t.a, s.a = a (s fixes dom a pointwise) and the collapse
  |im s n dom a| < p are all decided by dom a alone.

This is composition in I_n, and it holds in every family, I_n included;
it is not the paper's claim that L* is equal image, which fails on
RQ'_n(p).  The work is one line of m compositions per distinct image or
domain: 512 of IC_9's 16,796 elements for L* and 512 for R*, against the
m |A| tree edges and m relabelled keys of a key per element.

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
g.x and of x.g for each x in C, read off the generator rows and
columns.  Tarjan's routine above finds them.  This reads O(m |A|)
entries; saturating each ideal as a set, as star_ideal does, reads whole
rows and columns per element reached.  star_ideal stays as the
definition-level oracle.  On every family table here J* equals D*, but
not on every finite semigroup: the tests hold a 33-element Rees quotient
of a semigroup of partial maps where J* merges two D*-classes.

The classical relations and L* and R* are computed once per table, and
later calls return the same IndexPartition; H*, D* and J* are built from
L* and R*, so they reuse it too.  The memo is keyed weakly by the table
object, so it needs no attribute on the table and goes away with it;
duck-typed tables work unchanged.  structure keeps each table's
idempotents in it as well.

Partitions index elements by table position; class ids are assigned by
least member, so all outputs are deterministic.
"""

from __future__ import annotations

import struct
import weakref
from collections import defaultdict
from itertools import count
from operator import itemgetter

from . import families
from .errors import ValidationError

GREEN_NAMES = ("L", "R", "H", "D", "J")

# Results already computed, per table: table -> {name: result}, the
# results being relation partitions and structure's idempotent indices.
# Keys are held weakly, so a table's entry goes when the table does.
_MEMO = weakref.WeakKeyDictionary()


def memoized(table, name, build, *args):
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
    and R.  D is computed as the join of L and R; D = J on a finite
    semigroup; the tests hold them equal.  Each relation is
    computed once per table; later calls return the same object.
    """
    if which not in GREEN_NAMES:
        raise ValidationError(f"unknown Green relation {which!r}")
    return memoized(table, which, _green, which)


def _green(table, which):
    if which in ("H", "D"):
        lpart = memoized(table, "L", _green, "L")
        rpart = memoized(table, "R", _green, "R")
        if which == "H":
            return _meet(lpart, rpart)
        return _join(lpart, rpart)
    # The successors of x are read across the generator rows or columns.
    # The columns are not held in a local, which would keep them alive
    # through Tarjan's pass (0.8 MB more battery peak RSS).
    if which == "L":
        return _components(list(zip(*table.generator_rows())))
    if which == "R":
        return _components(list(zip(*table.columns(table.generators))))
    # which == "J": the union of the two graphs
    return _components(list(zip(*table.generator_rows(), *table.columns(table.generators))))


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


def _meet(p1, p2):
    """The meet of two partitions of one table: a and b are related when
    they share a class in both."""
    return IndexPartition.from_keys(list(zip(p1.class_of, p2.class_of)))


def _join(p1, p2):
    """The join of two partitions of one table: the strongly connected
    components of the graph with a cycle through each class of both."""
    successors = [[] for _ in p1.class_of]
    for part in (p1, p2):
        for members in part.classes:
            for a, b in zip(members, members[1:] + members[:1]):
                successors[a].append(b)
    return _components(successors)


def _kernel_key(values):
    """First-occurrence labels of a line of values (a row a.x or a column
    x.a): each value is labelled 0, 1, ... in order of first occurrence.
    Returns the labels read back along the line, which is the line's kernel
    signature, and the dict from each distinct value to its label, in that
    order.  Two lines get equal signatures exactly when they induce the
    same kernel.  The signature is packed into bytes, one byte a label
    while there are at most 256 and two or four past that (struct formats
    "H" and "I", as product_rows packs indices).  Lines with equal kernels
    have equally many labels, so they are packed alike, and the lines of
    one table have one length, so keys of different widths differ in
    length.  The work is done by C builtins, with no Python-level loop.
    """
    labels = dict(zip(dict.fromkeys(values), count()))
    signature = map(labels.__getitem__, values)
    if len(labels) <= 256:
        return bytes(signature), labels
    code = families._index_typecode(len(labels))
    return struct.pack(f"{len(values)}{code}", *signature), labels


def _kernel_partition(table, left):
    """Elements a with equal kernels of line a (row for L*, column for
    R*), over the table with an identity adjoined when it has none.

    One line is composed and keyed per group the table proves to share a
    kernel (kernel_groups, by image for L* and by domain for R*), and the
    whole group takes its first member's key; see the module docstring for
    the proof.  Groups whose keys are equal merge.
    """
    groups = table.kernel_groups(left)
    firsts = [members[0] for members in groups]
    lines = table.rows(firsts) if left else table.columns(firsts)
    adjoin = table.identity_index is None
    buckets = defaultdict(list)
    for a, members, line in zip(firsts, groups, lines):
        signature, labels = _kernel_key(line)
        buckets[(signature, labels.get(a, -1)) if adjoin else signature].extend(members)
    return IndexPartition.from_groups(table.size, buckets.values())


def starred_L(table):
    """L*: equal kernels of x -> ax with x running over the table plus a
    formally adjoined identity when none is present."""
    return memoized(table, "Ls", _kernel_partition, True)


def starred_R(table):
    """R*: the dual of L*, with kernels of x -> xa."""
    return memoized(table, "Rs", _kernel_partition, False)


def starred_H(table):
    """H*: the meet of L* and R*."""
    return _meet(starred_L(table), starred_R(table))


def starred_D(table):
    """D*: the join (transitive closure) of L* and R*."""
    return _join(starred_L(table), starred_R(table))


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
    g in A, read from the generator rows and columns.
    """
    lefts = table.generator_rows()
    rights = table.columns(table.generators)
    dstar = starred_D(table)
    dclass = dstar.class_of
    class_id = dclass.__getitem__
    successors = [set() for _ in dstar.classes]
    # zip(*lines) gives, for each x, the tuple of g.x and x.g over A.
    for c, edges in zip(dclass, zip(*lefts, *rights)):
        successors[c].update(map(class_id, edges))
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
    elements = map(table.element, range(table.size))
    return IndexPartition.from_keys(
        [("zero",) if el is families.REES_ZERO else ("el", key_fn(el)) for el in elements]
    )


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

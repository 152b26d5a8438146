"""Green's relations and their starred refinements on a finite table.

The classical relations come from the Cayley graphs over the table's
generating set A: x -> xg is the right graph and x -> gx the left one
(g in A).  xS^1 is what x reaches in the right graph, so R is its
strongly connected components; L is those of the left graph and J those
of the union of both.  Tarjan's algorithm finds them in O(m |A|).  The
graphs are table.generator_lines(left): A's columns, composed as A is
chosen, and A's rows, composed when first asked for, so R composes no
row; each is composed once per semigroup on packed images and held in
the table's store, and the classical relations never build the m x m
product rows.
Joins are components too: D is the partition into the strongly connected
components of the graph with a cycle through each L-class and each
R-class (D* likewise over L* and R*), so one routine does all the
grouping.  H and H* are meets, read off pairs of class ids.

The starred relations are computed from their defining witnesses, not
from the paper's characterizations: a and b are L*-related exactly when
the maps x -> ax and x -> bx induce the same kernel on the table with an
identity formally adjoined (no adjunction when the table already has
one).  The only structure used is the lemma below, which lets elements
with one image (domain) share one computed kernel, and the Cayley graph,
along which each such group's line is gathered.  The characterizations
(same image, domain, height) are read off packed images by partition_by
and compared by the battery and the tests, as the independent check.

Kernel keys.  A line (a row a.x for L*, a column x.a for R*) is keyed
by labelling its values in order of first occurrence and reading the
labels back along it, packed into bytes: one byte a label while there
are at most 256, two bytes up to 65,536 and four past that.  All lines of
a table have m entries, so keys of different widths never collide.  The
adjoined identity is a second key component, the label of a in line a
(a.1 = a), or -1 when a does not occur in it.

One key per image and one per domain.  The table hands greens groups of
indices proven to share a kernel (SemigroupTable.kernel_groups: equal
image for L*, equal domain for R*).  One line per group is keyed, and
every member takes that key.  Keys still decide which groups merge, so
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
RQ'_n(p).

Lines from the Cayley graph.  No group's line is composed (Froidure and
Pin, 1997): families.gather reads every line off one it has, from the
generators' rows g.x for L* or their columns x.g for R*, with a node per
group, along the breadth-first tree over the groups.  Its steps are read
at one member of each group, as the group of a.g (g.a for R*) is fixed
by g and the group of a, and so it enters every group:

  Take L*.  A nonzero a.g has image (im a n dom g)g, and in a Rees
  quotient of height p, a.g is the zero exactly when |im a n dom g| < p;
  both depend only on im a, and the zero times g is the zero.  For R*,
  g.a has domain (im g n dom a)g^-1 and collapses exactly when
  |im g n dom a| < p, both fixed by dom a.

By the lemma every member of a group has the key of the element the
group was entered through.  The tests' random tables, which need not
associate, are generated by all their elements and gather nothing.  The
work is one gather of m entries per group past A's, 512 of IC_9's 16,796
elements for L* and 512 for R*, where a composed line takes m
compositions and m hash lookups; the steps are |A| lookups per group in
A's held columns (L*) or rows (R*), with no composition.  Keying each
line, m labels, remains.

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
g.x and of x.g for each x in C.  D* comes from the store, so a table
that was asked for D* joins L* and R* once.  Tarjan's routine above finds
the components.

Those edges are read once per kernel group, along the group steps that
L* and R* walk, which the store keeps one side each (one helper gives
both): x.g at the first member of each image group, g.x at the first
member of each domain group.

  Take x.g.  By "Lines from the Cayley graph" the image group of x.g
  depends only on g and the image group of x, so every x of a group
  steps to one group.  By the lemma an image group lies inside one
  L*-class, and so inside one D*-class; so the D*-class of x.g is that
  of the group stepped to, and of the group of x that of its first
  member.  The edges read at one member per group are all the edges.
  Dually for g.x, with domain groups inside R*-classes.

So J* composes nothing: it reads the groups and steps that L* and R*
left in the store, x.g off A's held columns and g.x off A's rows.  On
IC_9 that is 512 groups a side with 18 edges each, instead of 16,796
elements and 18 composed columns: once D* is known, 79 ms of CPU with an
edge per element, 21 ms with the steps composed again, 3 ms reading the
stored ones (Python 3.11, 2-core VM).  A duck-typed table's groups
are singletons, so there every element steps alone.  Saturating each
ideal as a set, as star_ideal does, reads whole rows and columns per
element reached; star_ideal stays as the definition-level oracle.  On
every family table here J* equals D*, but not on every finite
semigroup: the tests hold a 33-element Rees quotient of a semigroup of
partial maps where J* merges two D*-classes.

The classical relations, L*, R* and D* are computed once per table, and
later calls return the same IndexPartition; so are each side's kernel
groups and steps.  H* and J* are built from them afresh on each call.
They are kept in the table's store (families.memoized), which K(n,n)
shares with IC_n and M(n,n-1) with Q'_n while both are held, and which
goes when the table does.

Partitions index elements by table position; class ids are assigned by
least member, so all outputs are deterministic.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from itertools import chain, count
from operator import itemgetter

from . import families
from .errors import InvariantError, ValidationError

GREEN_NAMES = ("L", "R", "H", "D", "J")

class IndexPartition:
    """A partition of table indices with deterministic class ids."""

    __slots__ = ("class_of", "classes")

    def __init__(self, class_of, classes):
        self.class_of = tuple(class_of)
        self.classes = tuple(tuple(c) for c in classes)

    @classmethod
    def from_groups(cls, size, groups):
        """The partition of range(size) into the given groups, which must
        be nonempty, disjoint and cover range(size); ValidationError
        otherwise.  Each class is sorted, and the classes sort by least
        member, which for disjoint groups is tuple order: an empty group
        sorts first, and classes[0][0] is the least index of all.  Once
        the one pass over the members has written class_of, with every
        index in range and none left out, the groups overlap exactly when
        they hold more than size indices."""
        classes = sorted(map(tuple, map(sorted, groups)))
        if classes and (not classes[0] or classes[0][0] < 0):
            raise ValidationError("groups hold an empty group or a negative index")
        class_of = [None] * size
        try:
            for cid, members in enumerate(classes):
                for i in members:
                    class_of[i] = cid
        except IndexError:
            raise ValidationError(f"groups hold an index past {size - 1}") from None
        if None in class_of:
            raise ValidationError("groups do not cover every index")
        if sum(map(len, classes)) != size:
            raise ValidationError("groups overlap")
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
    return families.memoized(table, which, _green, which)


def _green(table, which):
    if which in ("H", "D"):
        lpart = families.memoized(table, "L", _green, "L")
        rpart = families.memoized(table, "R", _green, "R")
        if which == "H":
            return _meet(lpart, rpart)
        return _join(lpart, rpart)
    # The successors of x are read across A's rows (L), columns (R) or
    # both (J), held in the table's store.
    sides = {"L": (True,), "R": (False,), "J": (True, False)}[which]
    return _components(list(zip(*chain.from_iterable(map(table.generator_lines, sides)))))


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


def _group_steps(table, left):
    """The kernel groups (table.kernel_groups: by image when left, else by
    domain), the group of each index, and the steps between groups: for
    the k-th generator g, the group that each group's a.g (left) or g.a
    lies in, read at the group's first member off A's held lines, a.g =
    col_g[a] and g.a = row_g[a].  The module docstring ("Lines from the
    Cayley graph") proves that every member steps to that group.  Kept in
    the table's store, one entry a side, so J* reads what L* and R*
    walked."""
    return families.memoized(table, "Ls steps" if left else "Rs steps", _read_group_steps, left)


def _read_group_steps(table, left):
    groups = table.kernel_groups(left)
    group_of = [0] * table.size
    for gid, members in enumerate(groups):
        for a in members:
            group_of[a] = gid
    firsts = [members[0] for members in groups]
    lines = table.generator_lines(not left)
    steps = [list(map(group_of.__getitem__, map(line.__getitem__, firsts))) for line in lines]
    return groups, group_of, steps


def _kernel_partition(table, left):
    """Elements a with equal kernels of line a (row for L*, column for
    R*), over the table with an identity adjoined when it has none.

    One line is keyed per group the table proves to share a kernel
    (kernel_groups, by image for L* and by domain for R*), and the whole
    group takes that key; the lines come from families.gather along the
    group steps, and the module docstring proves both steps.  Groups
    whose keys are equal merge.
    """
    groups, group_of, steps = _group_steps(table, left)
    adjoin = table.identity_index is None
    buckets = defaultdict(list)
    for a, line in families.gather(table.generators, table.generator_lines(left), steps, group_of):
        signature, labels = _kernel_key(line)
        buckets[(signature, labels.get(a, -1)) if adjoin else signature].extend(
            groups[group_of[a]]
        )
    try:
        return IndexPartition.from_groups(table.size, buckets.values())
    except ValidationError as exc:
        # The groups come from the table, not the input: a gap is a defect.
        raise InvariantError(f"{'L*' if left else 'R*'} kernel {exc}") from exc


def starred_L(table):
    """L*: equal kernels of x -> ax with x running over the table plus a
    formally adjoined identity when none is present."""
    return families.memoized(table, "Ls", _kernel_partition, True)


def starred_R(table):
    """R*: the dual of L*, with kernels of x -> xa."""
    return families.memoized(table, "Rs", _kernel_partition, False)


def starred_H(table):
    """H*: the meet of L* and R*."""
    return _meet(starred_L(table), starred_R(table))


def starred_D(table):
    """D*: the join (transitive closure) of L* and R*, computed once per
    table, as J* reads it too."""
    return families.memoized(table, "Ds", _starred_join)


def _starred_join(table):
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
    C has an edge to the D*-class of x.g and of g.x for every x in C and
    g in A, read once per kernel group along the group steps L* and R*
    walk: x.g at one member of each image group, g.x at one member of
    each domain group.
    """
    dstar = starred_D(table)
    dclass = dstar.class_of
    successors = [set() for _ in dstar.classes]
    for left in (True, False):
        groups, _, steps = _group_steps(table, left)
        class_of_group = [dclass[members[0]] for members in groups]
        # zip(*steps) gives, for each group, the groups it steps to over A.
        for c, targets in zip(class_of_group, zip(*steps)):
            successors[c].update(map(class_of_group.__getitem__, targets))
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


def partition_by(table, key):
    """The partition of a table by key of each packed image, with no
    element made; a Rees zero forms a class of its own."""
    keys = list(map(key, table.images))
    if table.family.is_rees:
        keys[table.zero_index] = families.REES_ZERO
    return IndexPartition.from_keys(keys)


def related_sets(*partitions):
    """The composite relation P1 o P2 o ... o Pk of partitions of one table.

    Entry a of the returned tuple is the frozenset of every b with
    a (P1 o ... o Pk) b.  The work is done on class ids: a (P o Q) b holds
    exactly when the P-class of a meets the Q-class of b, that is when
    their pair of ids occurs in zip(P.class_of, Q.class_of).  So a's P1
    class id is expanded through that adjacency of each consecutive pair
    in turn, and the set for a is the members of the Pk-classes reached;
    it is shared by the whole P1-class, and classes that reach the same
    Pk-classes share one frozenset.  With one partition the entry is just
    a's class.
    """
    reach = [(c,) for c in range(len(partitions[0].classes))]
    for p, q in zip(partitions, partitions[1:]):
        adjacency = [[] for _ in p.classes]
        for c, d in set(zip(p.class_of, q.class_of)):
            adjacency[c].append(d)
        reach = [frozenset(chain.from_iterable(map(adjacency.__getitem__, ids))) for ids in reach]
    classes = partitions[-1].classes
    shared = {}
    for ids in reach:
        if ids not in shared:
            shared[ids] = frozenset(chain.from_iterable(map(classes.__getitem__, ids)))
    return tuple(shared[reach[c]] for c in partitions[0].class_of)

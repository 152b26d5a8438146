"""Element families and their multiplication tables.

Seven families over the chain {1, ..., n}:

    icn      all isotone, order-decreasing partial injections
    qprime   the icn elements whose domain omits 1
    syminv   all partial injections (no order constraints)
    k        icn elements of height at most p (an ideal)
    m        qprime elements of height at most p (an ideal)
    ric      Rees quotient of k by the next ideal down: the height-p
             elements plus a zero that absorbs every height drop
    rq       the same construction on the qprime side

Tables index elements by their sorted position (height first, then
canonical text) and expose the product as an index function.  A table
keeps its elements only as their images packed into bytes (0 outside the
domain), one tuple of them and one dict from packed image to index, and
composes every product on them.  Enumeration writes those bytes
directly, point by point, and sorts them by height and text; no element
object is built until element(i) wraps one's image.  Rees tables put
their zero, packed as the empty map, at index 0.  Tables are read-only:
the packed images and the Cayley-graph rows are tuples, and the full
product rows read-only memoryviews of 2-byte indices (4-byte past
65,536 elements).

A table is cached while it is held: enumerate_family keeps it in a weak
dictionary keyed by FamilySpec, so a request gets the table some caller
still holds, and a table nobody holds goes.  There is no size to set and
nothing to evict; a caller that wants a table kept holds it.

One store per table.  What a table computes once, its generators and
both Cayley graphs, product rows, relation partitions and idempotents, is
kept in one dict on the table (memoized), and goes when the table does.
A is chosen on the right graph, with its columns; A's rows are composed
only when a reader first asks, and both are read through one accessor,
generator_lines(left), so rank and maximal compose no row.
The ideal K(n,n) holds every element of IC_n, and M(n,n-1) every element
of Q'_n, enumerated in the same order; so while one of the two tables
is held, the other is it renamed (SemigroupTable.renamed): the same
image tuple, index and store, under its own FamilySpec and label, so
either table reads what the other built.  store_group names these
twins.  The lower heights K(n,p) and M(n,p) and the Rees quotients are
other semigroups, with tables and stores of their own.
"""

from __future__ import annotations

import struct
import weakref
from collections import defaultdict
from functools import partial
from itertools import compress, repeat
from operator import add, itemgetter

from . import pinj
from .errors import (
    CapExceededError,
    ChainMismatchError,
    FamilySpecError,
    InvariantError,
    ValidationError,
)

KIND_ICN = "icn"
KIND_QPRIME = "qprime"
KIND_SYMINV = "syminv"
KIND_K = "k"
KIND_M = "m"
KIND_RIC = "ric"
KIND_RQ = "rq"

KINDS = (KIND_ICN, KIND_QPRIME, KIND_SYMINV, KIND_K, KIND_M, KIND_RIC, KIND_RQ)
KINDS_WITH_P = frozenset((KIND_K, KIND_M, KIND_RIC, KIND_RQ))
REES_KINDS = frozenset((KIND_RIC, KIND_RQ))
QPRIME_SIDE = frozenset((KIND_QPRIME, KIND_M, KIND_RQ))

# The hard ceiling on the chain size: no cap, --max-n included, goes past it.
DEFAULT_ENUM_CAP = 12


class FamilySpec:
    """A family descriptor: kind, chain size, and height parameter.

    Immutable and validated on every route in: the constructor refuses a
    bad spec, and copies and pickles are rebuilt through it.  Equal specs
    hash alike, so they share one cached table while it is held.
    """

    __slots__ = ("kind", "n", "p")

    def __init__(self, kind, n, p=None):
        if kind not in KINDS:
            raise FamilySpecError(f"unknown family kind {kind!r}")
        if type(n) is bool or not isinstance(n, int) or n < 1:
            raise FamilySpecError(f"chain size must be a positive integer, got {n!r}")
        if kind in KINDS_WITH_P:
            heights = _valid_heights(kind, n)
            if not heights:
                raise FamilySpecError(f"family {kind!r} takes no valid p on the {n}-chain")
            if p is None:
                raise FamilySpecError(f"family {kind!r} needs a height parameter p")
            if type(p) is bool or not isinstance(p, int) or p not in heights:
                raise FamilySpecError(
                    f"family {kind!r} needs 1 <= p <= {len(heights)}, got p={p!r}"
                )
        elif p is not None:
            raise FamilySpecError(f"family {kind!r} takes no height parameter")
        _set_kind(self, kind)
        _set_n(self, n)
        _set_p(self, p)

    def __setattr__(self, name, value):
        raise AttributeError(f"FamilySpec is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"FamilySpec is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (FamilySpec, (self.kind, self.n, self.p))

    def __eq__(self, other):
        if type(other) is not FamilySpec:
            return NotImplemented
        return (self.kind, self.n, self.p) == (other.kind, other.n, other.p)

    def __hash__(self):
        return hash((self.kind, self.n, self.p))

    def __repr__(self):
        return f"FamilySpec(kind={self.kind!r}, n={self.n!r}, p={self.p!r})"

    @property
    def is_rees(self):
        return self.kind in REES_KINDS

    @property
    def qprime_side(self):
        return self.kind in QPRIME_SIDE

    def label(self):
        n, p = self.n, self.p
        return {
            KIND_ICN: f"IC_{n}",
            KIND_QPRIME: f"Q'_{n}",
            KIND_SYMINV: f"I_{n}",
            KIND_K: f"K({n},{p})",
            KIND_M: f"M({n},{p})",
            KIND_RIC: f"RIC_{n}({p})",
            KIND_RQ: f"RQ'_{n}({p})",
        }[self.kind]


# The slots are written through their descriptors, as __setattr__ refuses.
_set_kind = FamilySpec.kind.__set__
_set_n = FamilySpec.n.__set__
_set_p = FamilySpec.p.__set__


def _valid_heights(kind, n):
    """The heights p a family of this kind takes on the n-chain: 1 to n
    for k and ric, 1 to n - 1 for m and rq, and (None,) for the kinds
    that take none."""
    if kind not in KINDS_WITH_P:
        return (None,)
    return range(1, n + 1 if kind in (KIND_K, KIND_RIC) else n)


class ReesZero:
    """Distinguished absorbing sentinel of a Rees quotient table.

    Not the empty map: the quotient collapses the whole lower ideal,
    empty map included, into this one marker.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "0"


REES_ZERO = ReesZero()
ZERO_TEXT = "0"


class SemigroupTable:
    """A finite multiplication table over an enumerated element family."""

    def __init__(self, family, images):
        """The table of family over its elements' packed images, in index
        order: n bytes each, a at a point sent to a and 0 outside the
        domain, the Rees zero packed as the empty map.  The images are
        trusted, not checked, as element() wraps them unchecked; so the
        only callers are _enumerate_table, which enumerates them, and the
        tests, which pack validated elements."""
        self.family = family
        n = family.n
        self.images = tuple(images)
        self._index = dict(zip(self.images, range(len(self.images))))
        self.size = len(self.images)
        self.zero_index = self._index.get(bytes(n))
        if family.is_rees and self.zero_index is None:
            raise ValidationError("Rees table is missing its zero sentinel")
        # The index of the Rees zero, which is no map; None in a table
        # without one.
        self._rees_zero = self.zero_index if family.is_rees else None
        self.identity_index = self._find_identity()
        # What the table computes once (see memoized), shared by renamed.
        self._memo = {}

    def __len__(self):
        return self.size

    def _find_identity(self):
        # A two-sided identity must act as the identity on every domain
        # and image point that occurs, so it can only be the partial
        # identity on the union of all of them (the empty map when only
        # the empty map is present).  A position is a point of some domain
        # exactly when one of the distinct domains, as 0/1 bytes, holds it.
        points = set().union(*self.images)
        points.discard(0)
        domains = set(map(bytes.translate, self.images, repeat(_DOMAIN_BYTES)))
        points.update(compress(range(1, self.family.n + 1), map(any, zip(*domains))))
        return self.locate(bytes(x if x in points else 0 for x in range(1, self.family.n + 1)))

    def renamed(self, family):
        """This table under the spec of its twin in store_group (K(n,n)
        for IC_n, M(n,n-1) for Q'_n, and the other way round): a table
        of its own, with family as its spec and label, that holds this
        one's images, index and store, so whichever of the two is asked
        first builds a result for both."""
        twin = object.__new__(SemigroupTable)
        twin.__dict__.update(self.__dict__)
        twin.family = family
        return twin

    def element(self, i):
        """Element i, which holds its packed image, or REES_ZERO."""
        if i == self._rees_zero:
            return REES_ZERO
        return pinj._trusted(self.family.n, self.images[i])

    def index(self, el):
        """The index of el (a PartialInjection or REES_ZERO), or None when
        el is not an element of the table."""
        return self._rees_zero if el is REES_ZERO else self.locate(el.img)

    def locate(self, image):
        """The index of the element packed as image, or None.  The empty
        map of a Rees quotient is no element, though its zero packs as it,
        and neither is a composite that _collapse sent to the zero."""
        i = self._index.get(image)
        return None if i == self._rees_zero else i

    def text_of(self, i):
        if i == self._rees_zero:
            return ZERO_TEXT
        return pinj.text_of_images(self.family.n, self.images[i])

    def height_of(self, i):
        """Height of element i, or None for the Rees zero sentinel."""
        if i == self._rees_zero:
            return None
        return self.family.n - self.images[i].count(0)

    def product(self, i, j):
        """Index of the product of elements i and j: i's packed image sent
        on through j's, looked up in the image index.  A composite missing
        from it goes to _collapse."""
        composite = self.images[i].translate(pinj._translate_table(self.images[j]))
        found = self._index.get(composite)
        return self._collapse(composite, i, j) if found is None else found

    @property
    def generators(self):
        """The generating set A the Cayley graphs are built over, as a
        tuple of indices in the order chosen.  On a J-trivial table it is
        the unique minimum generating set (see _right_graph)."""
        return memoized(self, "A", SemigroupTable._right_graph)[0]

    def generator_lines(self, left):
        """A Cayley graph: for each g in A, in the order of
        self.generators, the row g.x (left) or the column x.g for every x.
        The columns are composed as A is chosen (_right_graph) and kept
        with it; the rows are composed when a reader first asks, in
        O(m |A|) compositions on packed images, and then kept in the store
        under "A rows", so rank and maximal compose no row."""
        if left:
            return memoized(self, "A rows", lambda t: tuple(t.lines(t.generators, True)))
        return memoized(self, "A", SemigroupTable._right_graph)[1]

    def lines(self, indices, left, at=None):
        """For each index a, the row a.x (left) or the column x.a, for every
        x or for the x in at (in that order) when at is given, as an
        iterator: one composer serves the pass, and each line is composed
        only when the iterator reaches it.  Nothing is kept, so a caller
        that reads each line once holds one line at a time; one that reads
        them again makes a tuple of them.  A's lines are held
        (generator_lines); the callers here ask for other lines."""
        return map(self._composer(left, at), indices)

    def kernel_groups(self, left):
        """The indices grouped by image (left) or by domain, each group in
        index order and the groups in order of their first members.  Members
        of a group induce one kernel of x -> a.x (left) or x -> x.a over
        S^1, which the greens module docstring proves; greens keys one line
        per group.  Read off the packed images: the sorted bytes
        of an image name the image, as zeros fill the points outside the
        domain, and the nonzero positions name the domain.  The Rees zero
        packs as the empty map, which no other element of a quotient is,
        so it is a group of its own."""
        if left:
            keys = map(bytes, map(sorted, self.images))
        else:
            keys = map(bytes.translate, self.images, repeat(_DOMAIN_BYTES))
        groups = defaultdict(list)
        for i, key in enumerate(keys):
            groups[key].append(i)
        return list(groups.values())

    def product_rows(self):
        """The full table as a tuple of m rows; built once, then cached.

        Row i is a read-only memoryview over its own bytes, of format "H"
        (2 bytes an entry) when m <= 65,536, so that every index fits, and
        "I" (4 bytes) above that (_index_typecode): row i's entry j is the
        index of i.j, as an int, and the row takes 2m bytes where a tuple
        takes 8m of pointers.  Derived from A's rows by gather, (a.g).j =
        a.(g.j), holding the rows on one tree path as tuples and packing
        each row once, as it is reached.  Only the callers that emit or
        test every product read this: `enum --products` (cli._product_text,
        for every format) and the greens.star_ideal oracle.
        The relations and property checks read the Cayley graphs and
        lines() instead, which hold O(m |A|) or O(m) entries
        instead of m^2.
        """
        return memoized(self, "rows", SemigroupTable._product_rows)

    def _product_rows(self):
        code = _index_typecode(self.size)
        pack = struct.Struct(f"{self.size}{code}").pack
        rows = [None] * self.size
        graphs = self.generator_lines(True), self.generator_lines(False)
        for a, row in gather(self.generators, *graphs):
            rows[a] = memoryview(pack(*row)).cast(code)
        return tuple(rows)

    def _right_graph(self):
        """A and its columns, chosen and composed (Froidure and Pin's
        Cayley-graph enumeration).  Each element is visited once: one
        outside <A>, the subsemigroup the generators chosen so far
        generate, joins A and has its column x.g composed.  A search over
        x -> x.g (g in A, reach) from the new generator and its products
        with everything reached then extends the reach to <A>, as in
        closure.  No row is composed.  Only an element outside <A> joins
        A, so A generates.

        Elements are visited in descending phi(x) = (height, sum im x -
        sum dom x), the Rees zero last and the higher index first on ties.
        For a nonzero product x = b.c, phi(b) > phi(x) unless b = x, and
        phi(c) > phi(x) unless c = x:

          Either the height drops, or dom x = dom b, and then x(i) =
          c(b(i)) <= b(i), with some inequality strict, so sum im falls.
          Either the height drops, or im x = im c, and then the preimage
          under x of each point is at least its preimage under c, as b is
          order-decreasing, with some inequality strict, so sum dom rises.

        So these tables are J-trivial.  Call x irreducible when it is no
        product b.c with b, c != x.  Every generating set holds every
        irreducible x: else a shortest word g_1 ... g_k for x over it has
        k >= 2, and x = g_1 . (g_2 ... g_k) with both factors != x.  Both
        factors of a reducible element come before it in the visit (the
        zero comes last, and its factors are nonzero), so by induction
        they lie in <A> when it is visited, and so does it.  A is thus
        exactly the irreducibles, the unique minimum generating set.

        I_n is visited in descending index order, height first, and is not
        J-trivial once n >= 2; there A generates but need not be minimum.
        A J-trivial I_n (n = 1) has one element per height, so that order
        visits both factors of a reducible element first, and A is again
        its irreducibles.
        """
        m, n, images = self.size, self.family.n, self.images
        column_of = self._composer(left=False)
        reached = bytearray(m)
        gens, gen_columns = [], []
        points = range(1, n + 1)

        def phi(i):
            if i == self._rees_zero:
                return -1, 0, i
            img = images[i]
            return n - img.count(0), sum(img) - sum(compress(points, img)), i

        if self.family.kind == KIND_SYMINV:
            order = range(m - 1, -1, -1)
        else:
            order = sorted(range(m), key=phi, reverse=True)
        for top in order:
            if reached[top]:
                continue
            col_g = column_of(top)
            gens.append(top)
            gen_columns.append(col_g)
            # The new generator and everything reached times it, then
            # each new element times every generator, level by level.
            reach(gen_columns, {top}.union(compress(col_g, reached)), reached)
        return tuple(gens), tuple(gen_columns)

    def _composer(self, left, at=None):
        """A function from an index a to the row a.x (left) or the column
        x.a, for every x in at (every x by default), composed on the
        table's packed images.  A composite missing from the image index
        is left to product."""
        images, index = self.images, self._index
        at = range(self.size) if at is None else tuple(at)
        others = list(map(images.__getitem__, at))
        maps = list(map(pinj._translate_table, others)) if left else None

        def compose(a):
            if left:
                composites = map(images[a].translate, maps)
            else:
                composites = map(bytes.translate, others, repeat(pinj._translate_table(images[a])))
            out = list(map(index.get, composites))
            if None in out:
                for k, found in enumerate(out):
                    if found is None:
                        out[k] = self.product(a, at[k]) if left else self.product(at[k], a)
            return tuple(out)

        return compose

    def _collapse(self, composite, i, j):
        """Index of a composite missing from the image index: the Rees zero
        when its height fell below p, remembered in the index so that each
        distinct one is checked once per table, else a closure failure.
        locate() refuses what is remembered here."""
        if self.family.is_rees and len(composite) - composite.count(0) < self.family.p:
            self._index[composite] = self.zero_index
            return self.zero_index
        raise InvariantError(
            f"{self.family.label()} is not closed: the product of"
            f" {self.text_of(i)} and {self.text_of(j)} is not in the table"
        )


def memoized(table, name, build, *args):
    """build(table, *args), computed once per semigroup and then kept
    under name in table._memo, the one store of what a table derives:
    its generators and both Cayley graphs, product rows, relation
    partitions and the steps between kernel groups (greens) and
    idempotents (structure).  A table renamed
    from another holds that one's store.  A result equal to one already
    stored is replaced by it, so equal relations share one object: on a
    J-trivial table all five classical relations are the identity.  A
    table without a store, a test double, computes afresh on each call.
    """
    memo = getattr(table, "_memo", None)
    if memo is None:
        return build(table, *args)
    found = memo.get(name)
    if found is None:
        found = build(table, *args)
        found = memo[name] = next((kept for kept in memo.values() if kept == found), found)
    return found


def gather(gens, lines, steps, node_of=None):
    """Yield (a, line a) once per node of a Cayley graph: the generators'
    own lines first, in A order, then the rest.  lines are A's rows g.x,
    walked along a -> a.g = row_a[g], or its columns x.g, along a -> g.a =
    col_a[g].  By associativity a successor's line is a's read at the
    entries of g's, one itemgetter call: row_{a.g}[x] = row_a[row_g[x]],
    col_{g.a}[x] = col_a[col_g[x]].  A node past A holds no generator, so
    m >= 2 and itemgetter gives a tuple.

    A node is an element when node_of is None, else node_of[a].  steps[k]
    maps each node to the node the k-th generator takes it to: A's columns
    (a.g = col_g[a]) or rows (g.a = row_g[a]) when the nodes are the
    elements.  The steps first give the breadth-first tree over the nodes
    from A; the lines are then gathered depth first along it, so only one
    tree path of lines is held, no longer than a shortest word over A.
    (Depth first along the lines alone, a path runs through whole
    J-classes: 1,052 rows on I_6.)

    Every node is entered, and every element yielded lies in the node its
    tree edge leads to, when the node of a.g (g.a) depends only on g and
    the node of a, so that a step read at one member holds for all.  Every
    element is a word g_1 ... g_k over A.  The node of g_1 is a root; if
    the search entered the node of g_1 ... g_(k-1), its step along g_k is
    the node of g_1 ... g_k, and the search takes every step from every
    node it enters, so it enters that node too.  Along the columns the
    induction reads the word from its end.
    """
    if node_of is None:
        node_of = range(len(lines[0]))
    reached = bytearray(len(steps[0]))
    nodes, via = [], []
    for k, g in enumerate(gens):
        if not reached[node_of[g]]:
            reached[node_of[g]] = 1
            nodes.append(node_of[g])
            via.append(k)
            yield g, lines[k]
    # Breadth first: nodes[j] for j in range(ends[i], ends[i + 1]) was
    # found from nodes[i] along generator via[j]; ends[0] counts the roots.
    ends = [len(nodes)]
    for v in nodes:
        for k, step in enumerate(steps):
            w = step[v]
            if not reached[w]:
                reached[w] = 1
                nodes.append(w)
                via.append(k)
        ends.append(len(nodes))
    stack = [(j, lines[via[i]]) for i in range(ends[0]) for j in range(ends[i], ends[i + 1])]
    while stack:
        j, line = stack.pop()
        k = via[j]
        a, line = line[gens[k]], itemgetter(*lines[k])(line)
        yield a, line
        stack.extend(zip(range(ends[j], ends[j + 1]), repeat(line)))


def reach(lines, found, reached):
    """Mark in reached, a bytearray over the elements, everything in found
    and everything it reaches along x -> line[x] for the lines given, level
    by level: each level marks what it found unmarked, and the next level
    is their successors.  lines is read once a level, so it must be a
    sequence."""
    while found:
        fresh = [y for y in found if not reached[y]]
        for y in fresh:
            reached[y] = 1
        found = set().union(*(map(line.__getitem__, fresh) for line in lines))


# A bytes.translate table that sends a packed image to its domain: 1 at
# each point in the domain, 0 elsewhere.
_DOMAIN_BYTES = b"\0" + b"\1" * 255


def _index_typecode(m):
    """The struct and memoryview format of a line of table indices below
    m: "H" (2 bytes) while every index fits, that is m <= 65,536, else
    "I" (4 bytes)."""
    return "H" if m <= 1 << 16 else "I"


def _layers(n, heights, values):
    """The packed images of n bytes written point by point, as one list for
    each height in heights (a range), in ascending height.

    A prefix's state is (height, memo), from (0, 0), and values(x, state)
    lists the values point x may take after it, each with the state that
    follows.  Each prefix gets 0 at x (x outside the domain) and each such
    value.  Prefixes are grouped by state, as all of a group grow alike.
    """
    groups = {(0, 0): [b""]}
    for x in range(1, n + 1):
        grown = defaultdict(list)
        for state, prefixes in groups.items():
            grown[state].extend(map(add, prefixes, repeat(b"\0")))
            for a, after in values(x, state):
                grown[after].extend(map(add, prefixes, repeat(bytes((a,)))))
        groups = grown
    layers = {h: [] for h in heights}
    for (h, _), images in groups.items():
        if h in layers:
            layers[h].extend(images)
    return layers.values()


def _isotone_decreasing_values(lowest_point, top, x, state):
    """The values of an isotone, order-decreasing map at x after a prefix
    of height h whose last value is `last`, state = (h, last): a with
    last < a <= x, once x >= lowest_point and while h < top.  So the
    values on the domain x_1 < ... < x_p are a_1 < ... < a_p with
    a_i <= x_i, distinct points of 1..n, and each image is valid."""
    h, last = state
    if x < lowest_point or h == top:
        return ()
    return [(a, (h + 1, a)) for a in range(last + 1, x + 1)]


def _partial_injection_values(n, x, state):
    """The values of a partial injection at x after a prefix of height h
    that wrote the values in the bit mask `used`, state = (h, used): each
    point of 1..n not yet written, so the values are distinct and each
    image is valid."""
    h, used = state
    return [(a, (h + 1, used | 1 << a)) for a in range(1, n + 1) if not used >> a & 1]


# The ideals that are the whole semigroup at their top height, K(n,n) of
# IC_n and M(n,n-1) of Q'_n, by kind, and the other way round.
_WHOLE_KINDS = {KIND_K: KIND_ICN, KIND_M: KIND_QPRIME}
_WHOLE_IDEALS = {whole: ideal for ideal, whole in _WHOLE_KINDS.items()}

# The tables some caller holds, by spec; an entry goes with its table.
_TABLES = weakref.WeakValueDictionary()


def store_group(spec):
    """The specs whose tables share one store with spec's, spec among
    them: a semigroup and the ideal that is all of it, (IC_n, K(n,n)) or
    (Q'_n, M(n,n-1)), in that order; any other spec alone.  The two
    enumerate the same elements in the same order, so one table serves
    both under two names (SemigroupTable.renamed)."""
    kind, n = spec.kind, spec.n
    if kind in _WHOLE_KINDS:
        if spec.p == _valid_heights(kind, n)[-1]:
            return FamilySpec(_WHOLE_KINDS[kind], n), spec
    elif kind in _WHOLE_IDEALS:
        heights = _valid_heights(_WHOLE_IDEALS[kind], n)
        if heights:  # Q'_1 has no ideal M(1,p)
            return spec, FamilySpec(_WHOLE_IDEALS[kind], n, heights[-1])
    return (spec,)


def _build_table(spec):
    """The table of spec: the one a caller still holds, else its store
    twin's renamed, else a new one (_enumerate_table).  Kept in _TABLES
    while some caller holds it."""
    table = _TABLES.get(spec)
    if table is None:
        twin = next((t for t in map(_TABLES.get, store_group(spec)) if t is not None), None)
        table = _TABLES[spec] = _enumerate_table(spec) if twin is None else twin.renamed(spec)
    return table


def _enumerate_table(spec):
    """The table of spec, enumerated as packed images and sorted by
    (height, canonical text), the Rees zero at index 0, with a store of
    its own.  Not cached."""
    n, p = spec.n, spec.p
    if spec.kind == KIND_SYMINV:
        layers = _layers(n, range(n + 1), partial(_partial_injection_values, n))
    else:
        # The identity-free side omits 1 from every domain; the ideals cap
        # the height at p and the Rees quotients keep height p only.
        lowest = 2 if spec.qprime_side else 1
        top = n - lowest + 1 if p is None else p
        values = partial(_isotone_decreasing_values, lowest, top)
        layers = _layers(n, range(p if spec.is_rees else 0, top + 1), values)
    # The layers ascend in height, so sorting each by text sorts the table
    # by (height, text).  The Rees zero packs as the empty map: the
    # quotient collapses the whole lower ideal, empty map included, into it.
    images = [bytes(n)] if spec.is_rees else []
    text = partial(pinj.text_of_images, n)
    for layer in layers:
        images.extend(sorted(layer, key=text))
    return SemigroupTable(spec, images)


def enumerate_family(spec):
    """Materialize the table for a family descriptor.

    Tables are cached while held: a request answers with the table some
    caller still holds for the descriptor, or for its twin in
    store_group, and builds one otherwise.  Tables must be treated as
    read-only.  No chain longer than DEFAULT_ENUM_CAP is enumerated.
    """
    if not isinstance(spec, FamilySpec):
        raise FamilySpecError(f"expected a FamilySpec, got {type(spec).__name__}")
    if spec.n > DEFAULT_ENUM_CAP:
        raise CapExceededError(
            f"enumeration of {spec.label()} needs n <= {DEFAULT_ENUM_CAP}; got n = {spec.n}"
        )
    return _build_table(spec)


def is_member(alpha, spec):
    """Membership of a single element, without enumerating the family."""
    if not isinstance(alpha, pinj.PartialInjection):
        raise ValidationError("membership is defined for PartialInjection values")
    if alpha.n != spec.n:
        raise ChainMismatchError(
            f"element lives on a {alpha.n}-chain, family on a {spec.n}-chain"
        )
    if spec.kind == KIND_SYMINV:
        return True
    if not pinj.is_isotone_decreasing(alpha):
        return False
    # The same window _enumerate_table enumerates: 1 outside the domain on
    # the identity-free side, height at most p in an ideal, exactly p in a
    # Rees quotient.
    if spec.qprime_side and alpha.img[0]:
        return False
    if spec.p is None:
        return True
    h = pinj.height(alpha)
    return h == spec.p if spec.is_rees else h <= spec.p


def table_json(table):
    """Plain dict form of a table: family, sizes, and element texts."""
    spec = table.family
    out = {"family": spec.kind, "n": spec.n}
    if spec.p is not None:
        out["p"] = spec.p
    out["order"] = table.size
    out["elements"] = [table.text_of(i) for i in range(table.size)]
    return out


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
domain), one tuple of them and, from the first lookup on, one dict from
packed image to index, and composes every product on them.  Enumeration
writes those bytes directly, point by point, and sorts them by height and
text; no element object is built until element(i) wraps one's image.
Rees tables put their zero, packed as the empty map, at index 0.  Tables
are read-only: the packed images and the Cayley-graph rows are tuples,
and the full product rows read-only memoryviews of 2-byte indices
(4-byte past 65,536 elements).

A table is cached while it is held: enumerate_family keeps it in a weak
dictionary keyed by FamilySpec, so a request gets the table some caller
still holds, and a table nobody holds goes.  There is no size to set and
nothing to evict; a caller that wants a table kept holds it.

One store per table.  What a table computes once, its image index and
identity, its generators and both Cayley graphs, product rows, theta,
relation partitions and idempotents, is kept in one dict on the table
(memoized), and goes when the table does; a table only walked element by
element builds none of it.
A is chosen on the right graph, with its columns and the spanning tree
its search grows; A's rows are gathered along that tree off the columns,
with no composition, only when a reader first asks, and both are read
through one accessor, generator_lines(left), so rank and maximal build
no row.  Every element's row and column at a few points, the
idempotents for the ample identities, are gathered off them along the
two trees (gathered_lines), with no composition either.  Any other
column is composed on the packed images by columns(), and no row is
composed.  One breadth-first search (_breadth_first) walks the Cayley
graphs past the choice of A: gather's, gathered_lines' and
genrank.closure's.
The ideal K(n,n) holds every element of IC_n, and M(n,n-1) every element
of Q'_n, enumerated in the same order; so while one of the two tables
is held, the other is it renamed (SemigroupTable.renamed): the same
image tuple and store, under its own FamilySpec and label, so
either table reads what the other built.  store_group names these
twins.  The lower heights K(n,p) and M(n,p) and the Rees quotients are
other semigroups, with tables and stores of their own.
"""

from __future__ import annotations

import struct
import weakref
from collections import defaultdict
from functools import partial
from itertools import chain, compress, repeat
from operator import add, getitem, itemgetter

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

    @property
    def self_dual(self):
        """Whether theta (SemigroupTable.theta, with the proof) is an
        anti-automorphism of the table: every kind off the Q' side.  It
        leaves each Q'-side table with n >= 2: the partial identity on
        {n-p+1, ..., n}, p = 1 off RQ'_p(n) and p <= n - 1 on it, omits 1,
        so it is in the table, and theta sends it to the one on
        {1, ..., p}, whose domain holds 1."""
        return not self.qprime_side

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
        tests, which pack validated elements.  Only the images, the size
        and the zero are found here: the image index and the identity are
        built on first read and kept in the store, so a table that is only
        walked builds neither."""
        self.family = family
        self.images = tuple(images)
        self.size = len(self.images)
        empty = bytes(family.n)
        self.zero_index = self.images.index(empty) if empty in self.images else None
        if family.is_rees and self.zero_index is None:
            raise ValidationError("Rees table is missing its zero sentinel")
        # The index of the Rees zero, which is no map; None in a table
        # without one.
        self._rees_zero = self.zero_index if family.is_rees else None
        # What the table computes once (see memoized), shared by renamed.
        self._memo = {}

    def __len__(self):
        return self.size

    @property
    def identity_index(self):
        """The index of the two-sided identity, or None when the table has
        none (Q'_n and every proper ideal): searched for on the first read
        and kept in the store, None included."""
        return memoized(self, "identity", SemigroupTable._find_identity)

    def _image_index(self):
        """The dict from each packed image to its index, built by the first
        lookup (locate, index, product, a composer) and kept in the store
        under "index", for a renamed twin too.  _collapse adds to it the
        composites it sends to the Rees zero."""
        return dict(zip(self.images, range(self.size)))

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
        one's images and store, so whichever of the two is asked first
        builds a result, the image index and identity included, for both."""
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
        """The index of the element packed as image, or None, read from the
        image index, which the first lookup builds and keeps in the store.
        The empty map of a Rees quotient is no element, though its zero
        packs as it, and neither is a composite that _collapse sent to the
        zero."""
        i = memoized(self, "index", SemigroupTable._image_index).get(image)
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
        found = memoized(self, "index", SemigroupTable._image_index).get(composite)
        return self._collapse(composite, i, j) if found is None else found

    @property
    def theta(self):
        """theta as an index map: theta[i] indexes theta(element i), where
        theta(a) = rho o a^-1 o rho and rho(x) = n + 1 - x; the Rees zero,
        packed as the empty map, goes to itself.  Built from the packed
        images, not the Cayley graphs, on the first read, and kept in the
        store in the index format (_index_typecode).  On a table that is
        not self-dual (FamilySpec.self_dual) it is an InvariantError.

        theta is an anti-automorphism of IC_n, K(n,p), RIC_p(n) and I_n.
        As (a.b)^-1 = b^-1.a^-1 and rho.rho = 1, theta(a.b) =
        theta(b).theta(a) and theta(theta(a)) = a in I_n.  It keeps the
        height (|dom theta(a)| = |im a|) and isotone maps isotone (rho
        reverses the order twice), and order-decreasing ones too: if
        y = rho(a(x)) then theta(a)(y) = rho(x) <= y, as a(x) <= x.  So it
        maps IC_n and each K(n,p) onto itself.  In RIC_p(n), with
        theta(0) = 0, a product a.b of height p is the one in IC_n, and so
        is theta(b).theta(a) = theta(a.b); one of lower height is the zero,
        and so is theta(b).theta(a), of that height too; the zero absorbs.
        So x.S^1 = y.S^1 exactly when S^1.theta(x) =
        S^1.theta(y), and a.x = a.y exactly when theta(x).theta(a) =
        theta(y).theta(a) (theta(1) = 1 on an adjoined identity): L =
        theta(R) and L* = theta(R*), class by class (Howie, Fundamentals of
        Semigroup Theory, 1995; Fountain, "Abundant semigroups", 1982).

        So g.a = theta(theta(a).theta(g)) = theta(col_theta(g)[theta(a)]),
        read off A's held columns when theta maps A into A, and so onto
        it (greens._mirrored_columns reads R*'s steps so).  On the
        J-trivial IC_n, K(n,p) and RIC_p(n) A is the set of irreducibles
        (_right_graph), and x = b.c with b, c != x exactly when theta(x) =
        theta(c).theta(b) with theta(c), theta(b) != theta(x): theta keeps
        irreducibility, so theta(A) = A.  On I_n A is the search's choice;
        theta maps it onto itself on I_1 to I_7, and where it would not,
        R*'s steps read A's rows.

        Each image takes three C calls: bytes.maketrans(image, shifted)
        sends a(x) to rho(x) + n, and reading it at rho(1), ..., rho(n)
        gives rho(x) + n where rho(y) = a(x), and rho(y) <= n, which no
        image point holds, elsewhere; unshift then keeps v - n of each
        v > n and writes 0 for the rest.  (ASCII here: one character past
        U+00FF makes Python hold a string at two bytes a character.)"""
        return memoized(self, "theta", SemigroupTable._theta)

    def _theta(self):
        n = self.family.n
        rho, shifted = bytes(range(n, 0, -1)), bytes(range(2 * n, n, -1))
        unshift = bytes(n + 1) + bytes(range(1, 256 - n))
        tables = map(bytes.maketrans, self.images, repeat(shifted))
        mirrored = map(bytes.translate, map(bytes.translate, repeat(rho), tables), repeat(unshift))
        found = list(map(memoized(self, "index", SemigroupTable._image_index).get, mirrored))
        if None in found:
            raise InvariantError(f"theta leaves {self.family.label()}")
        code = _index_typecode(self.size)
        return memoryview(struct.pack(f"{self.size}{code}", *found)).cast(code)

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
        with it; the rows are gathered off them when a reader first asks
        (_generator_rows), with no composition, and then kept in the store
        under "A rows", so rank and maximal build no row."""
        if left:
            return memoized(self, "A rows", SemigroupTable._generator_rows)
        return memoized(self, "A", SemigroupTable._right_graph)[1]

    def _generator_rows(self):
        """A's rows, gathered along the right graph's spanning tree, one
        row at a time and in tree order: g.a = col_a[g] for a in A, then
        g.x = col_h[g.p] for each edge x = p.h (proved in _right_graph).
        Each entry is one read of a held column, O(m) a row."""
        gens, columns, (child, parent, via) = memoized(self, "A", SemigroupTable._right_graph)
        child, parent = child.tolist(), parent.tolist()
        via_columns = list(map(columns.__getitem__, via))
        rows = []
        for g in gens:
            row = [0] * self.size
            for a, column in zip(gens, columns):
                row[a] = column[g]
            for x, p, column in zip(child, parent, via_columns):
                row[x] = column[row[p]]
            rows.append(tuple(row))
        return tuple(rows)

    def columns(self, indices, at=None):
        """For each index a, the column x.a, for every x or for the x in at
        (in that order) when at is given, as an iterator: one composer
        serves the pass, and each column is composed only when the iterator
        reaches it.  Nothing is kept, so a caller that reads each column
        once holds one at a time; one that reads them again makes a tuple
        of them.  A's lines are held (generator_lines), its rows gathered
        off its columns; no row is composed, and a reader of one other row
        reads it through product."""
        return map(self._composer(at), indices)

    def gathered_lines(self, at):
        """Yield (a, row, column) once for every element a, in the order of
        a walk: a.x and x.a for each x in at, in that order, as tuples.
        Read off A's held lines along the Cayley graphs, with no product
        composed.  The columns are gathered first and packed, each into
        bytes of |at| entries of the table's index format (_index_typecode),
        m |at| entries in all; then the rows are gathered depth first,
        holding the rows on one tree path.  (One buffer of all the columns
        was one large allocation on top of the memory the starred relations
        had freed: IC_10 `ample` peaked at 281 MB with it, 172 MB with
        bytes an element.)

        Columns, along the right graph's spanning tree (_right_graph).  For
        a in A, x.a = col_a[x].  For an edge c = p.h, x.c = (x.p).h =
        col_h[x.p] by associativity, so c's column is h's held column read
        at p's, one itemgetter call; p is in A or an earlier child, so its
        column is packed first.

        Rows, along a breadth-first tree of the left graph from A:
        c -> g.c = row_g[c] for g in A (_breadth_first, which holds indices
        only).  For g in A, g.x = row_g[x].  For an edge c = g.q, c.x =
        g.(q.x) = row_g[q.x], so c's row is g's held row read at q's.  Every
        element is a word g_1 ... g_k over A, and g_1 . (g_2 ... g_k) is an
        edge from an element the search reaches, by induction on k, so the
        tree reaches every element, each once.

        In a Rees quotient the table's product is the quotient's, which is
        associative too: when x.p (q.x) is the zero, col_h[0] = 0.h = 0 and
        row_g[0] = g.0 = 0, as the zero absorbs.
        """
        at = tuple(at)
        gens, columns, (child, parent, via) = memoized(self, "A", SemigroupTable._right_graph)
        rows = self.generator_lines(True)
        take = getter(len(at))
        line = struct.Struct(f"{len(at)}{_index_typecode(self.size)}")
        pack, unpack = line.pack, line.unpack
        packed = [None] * self.size
        for a, column in zip(gens, columns):
            packed[a] = pack(*take(*at)(column))
        for c, p, h in zip(child, parent, via):
            packed[c] = pack(*take(*unpack(packed[p]))(columns[h]))
        # Each tree node's row is its generator's read at its parent's, and
        # at stands in for the parent of a root: g.x = row_g[x].
        nodes, along, ends = _breadth_first(gens, rows)
        stack = list(zip(range(ends[0]), repeat(at)))
        while stack:
            j, row = stack.pop()
            c, row = nodes[j], take(*row)(rows[along[j]])
            yield c, row, unpack(packed[c])
            stack.extend(zip(range(ends[j], ends[j + 1]), repeat(row)))

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
        columns() instead, which hold O(m |A|) or O(m) entries
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
        """A, its columns and the spanning tree of the right Cayley graph
        that reaches every other element from A (Froidure and Pin's
        Cayley-graph enumeration).  Each element is visited once: one
        outside <A>, the subsemigroup the generators chosen so far
        generate, joins A and has its column x.g composed.  One search,
        the same for every family, then extends the reach to <A>: x.g for
        each x reached before, then the new generator and each element it
        finds times every generator, level by level, as in closure.  No
        row is composed.  Only an element outside <A> joins A, so A
        generates.

        The search keeps the spanning tree it grows, in the store entry
        "A" with A and its columns: three buffers in the order found,
        child[e] = parent[e].A[via[e]] for every edge e.  Each edge is a
        product, as child[e] is read off A[via[e]]'s column at parent[e].
        Each parent comes before its child: it is in A or the child of an
        earlier edge, as the search multiplies only what it has reached.
        Each element past A is taken once, when first reached, so it is
        the child of exactly one edge, and the roots are exactly A.  The
        buffers are memoryviews of the table's index format
        (_index_typecode), 6 or 12 bytes an element.

        A's rows follow from the tree and the columns with no product
        composed (_generator_rows).  For a in A, g.a = col_a[g].  For an
        edge x = p.h, g.x = (g.p).h = col_h[g.p] by associativity, and
        g.p is known first, as p is in A or an earlier child.  In a Rees
        quotient this holds when g.p is the zero too, as the zero absorbs:
        col_h[0] = 0.h = 0.

        Elements are visited in descending phi(x) = (height, sum im x -
        sum dom x), the higher index first on ties.  The Rees zero packs as
        the empty map, with phi = (0, 0), and every other element of a
        quotient has height p >= 1, so the zero comes last.
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

        I_n (n >= 2) holds maps that move points up and is not J-trivial;
        there A generates but need not be minimum.
        """
        m, n, images = self.size, self.family.n, self.images
        column_of = self._composer()
        # unseen[x] is 1 until the search reaches x.
        unseen = bytearray(b"\1") * m
        code = _index_typecode(m)
        child, parent, via = (memoryview(bytearray(m * struct.calcsize(code))).cast(code)
                              for _ in range(3))
        edges = 0
        gens, gen_columns = [], []
        points = range(1, n + 1)

        def phi(i):
            img = images[i]
            return n - img.count(0), sum(img) - sum(compress(points, img)), i

        def take(sources, first, columns):
            """Record a tree edge to y = x.A[h] for each h, from first on
            along the given columns, and each x in sources, a non-empty
            sequence, whose y is not yet reached, and return the new
            children.  Each column's products are read with one itemgetter
            call, and compress reads each mark only once the product
            before it is recorded, so each y is taken once, from its first
            parent."""
            nonlocal edges
            products = map(itemgetter(*sources), columns)
            if len(sources) > 1:
                products = chain.from_iterable(products)
            width, found = len(sources), []
            for i in compress(range(width * len(columns)), map(getitem, repeat(unseen), products)):
                h, j = divmod(i, width)
                x = sources[j]
                y = columns[h][x]
                unseen[y] = 0
                child[edges], parent[edges], via[edges] = y, x, first + h
                edges += 1
                found.append(y)
            return found

        # Every element reached, in the order found.
        reached = []
        for top in sorted(range(m), key=phi, reverse=True):
            if not unseen[top]:
                continue
            k = len(gens)
            gens.append(top)
            gen_columns.append(column_of(top))
            unseen[top] = 0
            # Everything reached before times the new generator, then the
            # new generator and each new element times every generator,
            # level by level.
            level = [top, *take(reached, k, gen_columns[k:])] if reached else [top]
            while level:
                reached += level
                level = take(level, 0, gen_columns)
        return tuple(gens), tuple(gen_columns), (child[:edges], parent[:edges], via[:edges])

    def _composer(self, at=None):
        """A function from an index a to the column x.a, for every x in at
        (every x by default), composed on the table's packed images: each
        x's image sent on through a's.  A composite missing from the image
        index is left to product."""
        images, index = self.images, memoized(self, "index", SemigroupTable._image_index)
        at = range(self.size) if at is None else tuple(at)
        others = list(map(images.__getitem__, at))

        def compose(a):
            composites = map(bytes.translate, others, repeat(pinj._translate_table(images[a])))
            out = list(map(index.get, composites))
            if None in out:
                for k, found in enumerate(out):
                    if found is None:
                        out[k] = self.product(at[k], a)
            return tuple(out)

        return compose

    def _collapse(self, composite, i, j):
        """Index of a composite missing from the image index: the Rees zero
        when its height fell below p, remembered in the index so that each
        distinct one is checked once per table, else a closure failure.
        locate() refuses what is remembered here."""
        if self.family.is_rees and len(composite) - composite.count(0) < self.family.p:
            self._memo["index"][composite] = self.zero_index
            return self.zero_index
        raise InvariantError(
            f"{self.family.label()} is not closed: the product of"
            f" {self.text_of(i)} and {self.text_of(j)} is not in the table"
        )


# What memoized finds under a name not yet built; None is a result it keeps.
_UNBUILT = object()


def memoized(table, name, build, *args):
    """build(table, *args), computed once per semigroup and then kept
    under name in table._memo, the one store of what a table derives:
    its image index and identity, its generators and both Cayley graphs,
    product rows, theta, relation partitions and the steps between kernel
    groups (greens), and the idempotents and the semilattice outcome
    (structure).
    A None result is kept too, so a table with no identity searches once.
    A table renamed from another holds that one's store.  Each result is
    kept as built, even when it equals one already stored.  Every table
    has a store, the tests' stand-in tables too.
    """
    memo = table._memo
    found = memo.get(name, _UNBUILT)
    if found is _UNBUILT:
        found = memo[name] = build(table, *args)
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
    nodes, via, ends = _breadth_first(gens, steps, node_of)
    for k in via[:ends[0]]:
        yield gens[k], lines[k]
    stack = [(j, lines[via[i]]) for i in range(ends[0]) for j in range(ends[i], ends[i + 1])]
    while stack:
        j, line = stack.pop()
        k = via[j]
        a, line = line[gens[k]], itemgetter(*lines[k])(line)
        yield a, line
        stack.extend(zip(range(ends[j], ends[j + 1]), repeat(line)))


def _breadth_first(gens, steps, node_of=None):
    """The breadth-first tree over the nodes from A along the steps (see
    gather), as three lists of indices: nodes in the order found, via[j]
    the generator along which nodes[j] was found, and ends, where
    nodes[j] for j in range(ends[i], ends[i + 1]) was found from
    nodes[i], and ends[0] counts the roots, the nodes of A's first
    members to reach them.  With no generator, as genrank.closure may
    pass, there is no step and no node."""
    size = len(steps[0]) if steps else 0
    if node_of is None:
        node_of = range(size)
    reached = bytearray(size)
    nodes, via = [], []
    for k, g in enumerate(gens):
        if not reached[node_of[g]]:
            reached[node_of[g]] = 1
            nodes.append(node_of[g])
            via.append(k)
    ends = [len(nodes)]
    for v in nodes:
        for k, step in enumerate(steps):
            w = step[v]
            if not reached[w]:
                reached[w] = 1
                nodes.append(w)
                via.append(k)
        ends.append(len(nodes))
    return nodes, via, ends


def getter(width):
    """A function from width indices to a function from a line to the
    tuple of its entries there: itemgetter when width > 1, as itemgetter
    gives one index's bare entry, and fails on no index."""
    return itemgetter if width > 1 else _entries


def _entries(*indices):
    return lambda line: tuple(map(line.__getitem__, indices))


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

"""Shared fixtures, test-only oracles, and the acceptance line reporter.

Acceptance tests record one human-readable line per criterion; the lines
are echoed in a dedicated section after the run so they stay visible
under default output capturing.

relation_pairs and relation_compose are the explicit pair-set form of
relation composition.  The library composes on class ids instead
(greens.related_sets); these stay here as the oracle it is checked
against.

direct_product is one product composed on the elements: pinj.compose,
a lookup with SemigroupTable.index, and the Rees rule that a composite of height
other than p is the zero.  The library composes on packed images
instead, and collapses a composite only when it is missing from the
table's image index; direct_product is the oracle for both.

direct_rows and green_by_ideals are the product table composed entry by
entry with direct_product and Green's relations read off principal
ideals as sets.  The library builds rows from a generating set and takes
L, R and J as strongly connected components of Cayley graphs; these are
the oracles for both, over DIFFERENTIAL_SPECS.

oracle_closure and oracle_indecomposables read every pair of the direct
table: a pairwise search and a scan of all m^2 products.  The library
reads only the Cayley graphs over the generating set; these are the
oracles it is checked against.

no_smaller_generating_set certifies a minimum generating set by brute
force: dropping any one indecomposable loses elements (C8).
idempotent_census counts the diagonal idempotents i.i = i per height,
composed directly; the battery's idempotent rows read
genrank.kind_census instead, and are checked against it.

oracle_left_graph is A and its rows as the library chose them before it
chose A on the right graph: in the same visit order, an element not yet
reached joins A, its row g.x is composed, and a breadth-first search over
x -> g.x (g in A) extends the reach to the subsemigroup generated so far.
The library composes A's columns instead and searches along them; its A,
in order, and A's rows and columns are checked against these.

kernel_key and kernel_key_starred key each line by the first position of
each value, over a copy of the line with a appended for an adjoined
identity: a signature apart from the library's first-occurrence labels,
which L* and R* are checked against.  line_kernel_partition is L* and R*
as the library computed them before they followed the Cayley graphs:
every row (column) of product_rows() keyed line by line with
first-occurrence labels.  tree_kernel_partition is L* and R* as the
library computed them before it keyed one line per image or domain: a key
for every element, each derived from its parent's by the kernel
recurrence along the breadth-first spanning tree from A (spanning_tree,
walked depth first by tree_walk), with no grouping; tree_starred builds
all five starred relations on it, and the library is checked against
both.
oracle_kernel_partition is L* and R* as the library computed them before
it walked the kernel groups along the Cayley graph: the first member of
each group has its row (column) composed by table.lines
and keyed by greens._kernel_key, and the whole group takes that key.
composed_group_steps is greens._group_steps as it was before the table
held A's columns: L*'s steps composed as the products of each image
group's first member with A (table.lines(firsts, True, at=A)), R*'s read off
A's rows.  The library reads L*'s steps off A's held columns and is
checked against it.
star_ideal_J groups elements by greens.star_ideal, the saturated
principal *-ideal, which is the oracle for J* as strongly connected
components.  per_element_J is J* as the library computed it before it
stepped between kernel groups: the components of the D*-class graph
with an edge for every element x and g in A, g.x off the generator rows
and x.g off the generator columns.

oracle_related_sets is greens.related_sets as it was before it expanded
class ids: each first class's members expanded through the classes of
each later partition as sets of elements, one frozenset per class.

oracle_chain, oracle_expand and oracle_essential_factorization are the
essential factorization by its earlier route: chain steps built from
pairs, an is_idempotent test on each step, and each quasi step expanded
after its moved point is found by search.  The library builds the same
factors straight from the element's pairs; these are the oracle it is
checked against.

chain_steps, with_pair and walk_down are the essential factorization
as the library built it before its one straight-line walk: a generator
of chain steps over one shared fixed list, a helper that copies it per
factor, and a helper per essential walk.  stepwise_chain,
stepwise_expand and stepwise_essential_factorization put them together
as genrank's three factorizations did; each factor passes the
validating constructor.  The library's factor walk is checked against
them.

loop_compose and loop_is_idempotent are the element kernel as it was
before elements were built unchecked: a loop over the points, each
composite passed through the validating constructor, and idempotence as
compose(a, a) == a.  The library's compose and is_idempotent are checked
against them, and assert_revalidates rebuilds an element that was built
unchecked through the validating constructor.  These oracles, pack and
the stepwise route read an element's points through points (image_of,
None outside the domain), never its packed storage.

scanner_parse_text is the element text parser as a scanner over one
position, character by character; pinj.parse_text cuts the text with str
methods and looks canonical pairs up in a table instead, and is checked
against it, exception by exception.

oracle_element_kind is genrank.element_kind as it was before it read
the essential/requisite overlap off one image: classify, then
pinj.is_requisite for an essential on the identity-free side.

oracle_idempotent_indices, oracle_regular_elements, oracle_semilattice,
oracle_ample and oracle_inverse_ideal are the property checks as they
were when they read the full product rows: the diagonal of every row, a
scan of every b for each a, the idempotent rows at the idempotents, the
ample legs down whole rows and columns with the legs' flags or-ed, and
uvu over the whole ambient table for each u.  The library reads only the
lines each predicate uses; its reports are checked against these field
by field.

row_builds makes enumerate_family return fresh, uncached tables and
counts the full product tables built, for the tests that check which
commands build none.

oracle_partition_by is the partition of a table by a key of each
element, as greens.partition_by took it before it read the packed images:
every element made and keyed by pinj.image, pinj.domain, pinj.height
or any other function of it.  The library's partition_by under the
battery's readings of packed bytes is checked against it.

oracle_elements and oracle_images are the enumeration as it was when
tables were built from elements: every candidate through the validating
constructor, kept when a member, sorted by (height, canonical text), then
packed.  The library writes the packed images directly and is checked
against them.  packed_table builds a table from elements, packed the
same way, for the tests that build a table other than the enumerated
one.
"""

from collections import defaultdict
from dataclasses import dataclass
from functools import partial, reduce
from itertools import combinations, compress, count, permutations
from operator import getitem, itemgetter, ne, or_

import pytest

from catalanlab import families, genrank, greens, pinj, structure
from catalanlab.errors import ChainMismatchError, ParseError, ValidationError
from catalanlab.families import FamilySpec, _valid_heights
from catalanlab.greens import IndexPartition


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


def points(alpha):
    """alpha's image of each point 1..n in turn, None outside the domain,
    read point by point through image_of rather than from its storage."""
    return [alpha.image_of(x) for x in range(1, alpha.n + 1)]


def pack(el, n):
    """el's images as n bytes, 0 outside the domain; the Rees zero packs
    as the empty map."""
    return bytes(n) if el is families.REES_ZERO else bytes(a or 0 for a in points(el))


def packed_table(spec, elements):
    """The table of spec over the given elements, in that order, each
    packed as SemigroupTable takes them."""
    return families.SemigroupTable(spec, [pack(el, spec.n) for el in elements])


def oracle_elements(spec):
    """The elements of spec's table by the object path: each candidate
    pairing of a domain with values (increasing values, or any
    arrangement on I_n) built by pinj.from_pairs, kept when
    families.is_member, and sorted by (height, canonical text); the Rees
    zero is not included."""
    n, points = spec.n, range(1, spec.n + 1)
    arrange = permutations if spec.kind == "syminv" else combinations
    sizes = range(n + 1 if spec.p is None else spec.p + 1)
    candidates = (
        pinj.from_pairs(n, zip(dom, vals))
        for size in sizes
        for dom in combinations(points, size)
        for vals in arrange(points, size)
    )
    members = [el for el in candidates if families.is_member(el, spec)]
    members.sort(key=lambda el: (pinj.height(el), pinj.canonical_text(el)))
    return members


def oracle_images(spec):
    """The packed images of spec's table by the object path: the packed
    oracle_elements, with the Rees zero first."""
    zero = [families.REES_ZERO] if spec.is_rees else []
    return tuple(pack(el, spec.n) for el in zero + oracle_elements(spec))


def elements_of(table):
    """Every element of a table in index order, the Rees zero included,
    each made by SemigroupTable.element."""
    return [table.element(i) for i in range(table.size)]


def oracle_partition_by(table, key_fn):
    """The partition of a table by key_fn of each element, made by
    SemigroupTable.element; a Rees zero forms a class of its own."""
    return IndexPartition.from_keys(
        [("zero",) if el is families.REES_ZERO else ("el", key_fn(el)) for el in elements_of(table)]
    )


def direct_product(table, i, j):
    """Index of the product of elements i and j, composed on the elements:
    in a Rees quotient the zero absorbs everything, and so does every
    composite whose height is not p."""
    if table.family.is_rees:
        z = table.zero_index
        if i == z or j == z:
            return z
        composite = pinj.compose(table.element(i), table.element(j))
        return table.index(composite) if pinj.height(composite) == table.family.p else z
    return table.index(pinj.compose(table.element(i), table.element(j)))


# direct_rows by spec and packed images, which fix every product: keyed
# by the table, the cache would hold every table a test composed.
_DIRECT_ROWS = {}


def direct_rows(table):
    """The product table with every entry composed directly, as tuples."""
    key = table.family, table.images
    rows = _DIRECT_ROWS.get(key)
    if rows is None:
        m = table.size
        rows = _DIRECT_ROWS[key] = tuple(
            tuple(direct_product(table, i, j) for j in range(m)) for i in range(m)
        )
    return rows


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


def oracle_left_graph(table):
    """A and A's rows, chosen by a reach along the left Cayley graph: in
    descending index on I_n, else descending (height, sum im - sum dom,
    index) with the Rees zero last, an element not yet reached joins A,
    its row is composed, and the reach grows level by level over x -> g.x
    to everything A generates."""
    m, n, images = table.size, table.family.n, table.images
    zero = table.zero_index if table.family.is_rees else None
    points = range(1, n + 1)

    def phi(i):
        if i == zero:
            return -1, 0, i
        img = images[i]
        return n - img.count(0), sum(img) - sum(compress(points, img)), i

    if table.family.kind == "syminv":
        order = range(m - 1, -1, -1)
    else:
        order = sorted(range(m), key=phi, reverse=True)
    reached = bytearray(m)
    gens, gen_rows = [], []
    for top in order:
        if reached[top]:
            continue
        row_g = next(iter(table.lines([top], True)))
        gens.append(top)
        gen_rows.append(row_g)
        found = {top}.union(compress(row_g, reached))
        while found:
            fresh = [y for y in found if not reached[y]]
            for y in fresh:
                reached[y] = 1
            found = {row[y] for row in gen_rows for y in fresh}
    return tuple(gens), tuple(gen_rows)


def no_smaller_generating_set(table):
    """Certificate that dropping any single minimum generator loses
    elements.  Exhaustive over the indecomposables, which every
    generating set must contain."""
    everything = frozenset(range(table.size))
    gens = sorted(genrank.indecomposables(table))
    for g in gens:
        rest = [x for x in gens if x != g]
        if genrank.closure(table, rest) == everything:
            return False
    return True


@dataclass
class IdempotentCensus:
    family: str
    per_height: dict
    total: int
    zero_is_idempotent: bool = False


def idempotent_census(table):
    """Idempotent counts by height, from the diagonal i.i = i composed
    directly; the Rees zero is flagged, not counted."""
    per_height = defaultdict(int)
    zero_idem = False
    for i in range(table.size):
        if direct_product(table, i, i) != i:
            continue
        h = table.height_of(i)
        if h is None:
            zero_idem = True
        else:
            per_height[h] += 1
    return IdempotentCensus(
        table.family.label(), dict(sorted(per_height.items())), sum(per_height.values()), zero_idem
    )


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


def line_kernel_key(values, adjoined=None):
    """First-occurrence labels read back along a line, packed into bytes
    when they fit; with adjoined, plus the label of adjoined, or -1."""
    labels = dict(zip(dict.fromkeys(values), count()))
    signature = map(labels.__getitem__, values)
    signature = bytes(signature) if len(labels) <= 256 else tuple(signature)
    if adjoined is None:
        return signature
    return signature, labels.get(adjoined, -1)


def line_kernel_partition(table, transpose):
    """L* (R* when transposed) by line_kernel_key of each row (column) of
    product_rows(), with a's label adjoined when the table has no identity."""
    rows = table.product_rows()
    lines = zip(*rows) if transpose else rows
    adjoin = table.identity_index is None
    buckets = defaultdict(list)
    for a, line in enumerate(lines):
        buckets[line_kernel_key(line, a if adjoin else None)].append(a)
    return IndexPartition.from_groups(table.size, buckets.values())


def oracle_kernel_partition(table, left):
    """L* (R* when not left) by one composed line per kernel group: the
    first member's row (column) keyed by greens._kernel_key, with its
    label adjoined when the table has no identity, for the whole group;
    groups whose keys are equal merge."""
    groups = table.kernel_groups(left)
    firsts = [members[0] for members in groups]
    lines = table.lines(firsts, left)
    adjoin = table.identity_index is None
    buckets = defaultdict(list)
    for a, members, line in zip(firsts, groups, lines):
        signature, labels = greens._kernel_key(line)
        buckets[(signature, labels.get(a, -1)) if adjoin else signature].extend(members)
    return IndexPartition.from_groups(table.size, buckets.values())


def composed_group_steps(table, left):
    """The kernel groups, the group of each index and, for the k-th
    generator g, the group of each group's a.g (left) or g.a, read at its
    first member: a.g composed by table.lines at A, g.a off A's rows."""
    groups = table.kernel_groups(left)
    group_of = [0] * table.size
    for gid, members in enumerate(groups):
        for a in members:
            group_of[a] = gid
    gens = table.generators
    firsts = [members[0] for members in groups]
    if left:
        steps = tuple(zip(*(map(group_of.__getitem__, r) for r in table.lines(firsts, True, gens))))
    else:
        steps = [[group_of[row[a]] for a in firsts] for row in table.generator_lines(True)]
    return groups, group_of, steps


def tree_kernel_key(values):
    """First-occurrence labels of a line and the dict from each distinct
    value to its label, the signature packed into bytes when there are at
    most 256 labels and a tuple past that."""
    labels = dict(zip(dict.fromkeys(values), count()))
    return tree_packed(map(labels.__getitem__, values), labels), labels


def tree_packed(signature, labels):
    return bytes(signature) if len(labels) <= 256 else tuple(signature)


def tree_relabel(key, line_g):
    """The key of y = g.x (x.g) from x's key.  row_y = row_g o row_x (and
    col_y = col_g o col_x), so y's line holds line_g[d] wherever x's holds
    d; its first-occurrence labels are x's sent through the labels that
    line_g gives x's distinct values, in their order."""
    signature, labels = key
    relabel, labels = tree_kernel_key(list(map(line_g.__getitem__, labels)))
    if type(signature) is bytes:
        return signature.translate(relabel.ljust(256, b"\0")), labels
    return tree_packed(itemgetter(*signature)(relabel), labels), labels


def spanning_tree(size, gens, lines):
    """The breadth-first spanning tree from A of the graph on range(size)
    with an edge x -> line[x] for each line of A (the rows g.x give the
    left Cayley graph, the columns x.g the right one).  Yields each tree
    edge (x, line, y), y first reached as line[x], in the order found, so
    x is a generator or the end of an earlier edge."""
    reached = bytearray(size)
    for g in gens:
        reached[g] = 1
    queue = list(gens)
    for x in queue:
        for line in lines:
            y = line[x]
            if not reached[y]:
                reached[y] = 1
                queue.append(y)
                yield x, line, y


def tree_walk(size, gens, lines, root, step):
    """Walk the spanning tree from A (spanning_tree) depth first and yield
    (y, value) once for every element y: root(line) at a generator, and
    step(value of x, line) at y = line[x] on a tree edge.  lines is read
    twice, so it must be a sequence."""
    children = defaultdict(list)
    for x, line, y in spanning_tree(size, gens, lines):
        children[x].append((line, y))
    for g, line in zip(gens, lines):
        stack = [(g, line, None)]
        while stack:
            y, line, parent = stack.pop()
            value = root(line) if parent is None else step(parent, line)
            yield y, value
            stack.extend((z, line_h, value) for line_h, z in children.get(y, ()))


def tree_kernel_partition(table, left):
    """L* (R* when not left) with a key for every element, each derived
    along the breadth-first spanning tree from A: a generator's line keyed
    directly, every other y = g.x (x.g) from its parent's key by
    tree_relabel, with a's label adjoined when the table has no identity."""
    gens = table.generators
    lines = tuple(table.lines(gens, left))
    adjoin = table.identity_index is None
    buckets = defaultdict(list)
    walk = tree_walk(table.size, gens, lines, tree_kernel_key, tree_relabel)
    for y, (signature, labels) in walk:
        buckets[(signature, labels.get(y, -1)) if adjoin else signature].append(y)
    return IndexPartition.from_groups(table.size, buckets.values())


def tree_starred(table):
    """Ls, Rs, Hs, Ds and Js by name, from tree_kernel_partition: H* is the
    meet of its L* and R* and D* their join (transitive_closure_join); J*
    is the strongly connected components of the *-graph on the elements,
    x -> g.x and x -> x.g for g in A plus a cycle through each L*- and
    R*-class, with no quotient by D*."""
    lstar = tree_kernel_partition(table, True)
    rstar = tree_kernel_partition(table, False)
    gens = table.generators
    successors = list(map(list, zip(*table.generator_lines(True), *table.lines(gens, False))))
    for part in (lstar, rstar):
        for members in part.classes:
            for a, b in zip(members, members[1:] + members[:1]):
                successors[a].append(b)
    return {
        "Ls": lstar,
        "Rs": rstar,
        "Hs": IndexPartition.from_keys(list(zip(lstar.class_of, rstar.class_of))),
        "Ds": transitive_closure_join(lstar, rstar, table.size),
        "Js": greens._components(successors),
    }


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


def per_element_J(table):
    """J* with one edge set per element: class C of D* has an edge to the
    D*-class of g.x and of x.g for every x in C and g in A."""
    dstar = greens.starred_D(table)
    dclass = dstar.class_of
    successors = [set() for _ in dstar.classes]
    edges = zip(*table.generator_lines(True), *table.lines(table.generators, False))
    for c, targets in zip(dclass, edges):
        successors[c].update(map(dclass.__getitem__, targets))
    components = greens._components(successors).class_of
    return IndexPartition.from_keys([components[c] for c in dclass])


def oracle_related_sets(*partitions):
    """P1 o ... o Pk as a tuple of frozensets, expanded member by member."""
    first, *rest = partitions
    per_class = []
    for members in first.classes:
        reach = set(members)
        for part in rest:
            ids = {part.class_of[b] for b in reach}
            reach = {b for c in ids for b in part.classes[c]}
        per_class.append(frozenset(reach))
    return tuple(per_class[c] for c in first.class_of)


def oracle_chain(alpha):
    """Step i fixes a_1, ..., a_{i-1} and x_{i+1}, ..., x_p and moves x_i
    to a_i, each step built from its list of pairs."""
    dom = pinj.domain(alpha)
    img = tuple(alpha.image_of(x) for x in dom)
    steps = []
    for i in range(len(dom)):
        pairs = [(img[j], img[j]) for j in range(i)]
        pairs.append((dom[i], img[i]))
        pairs.extend((dom[j], dom[j]) for j in range(i + 1, len(dom)))
        steps.append(pinj.from_pairs(alpha.n, pairs))
    return steps


def oracle_expand(eps):
    """The essentials that walk the one moved point y of eps down to its
    image a over the fixed points, largest step first."""
    (y, a), = ((x, eps.image_of(x)) for x in pinj.domain(eps) if eps.image_of(x) != x)
    fixed = [(f, f) for f in pinj.fixed_points(eps)]
    return [
        pinj.from_pairs(eps.n, fixed + [(a + j, a + j - 1)]) for j in range(y - a, 0, -1)
    ]


def oracle_essential_factorization(alpha, qprime_side=False):
    """Every chain step kept when idempotent and expanded otherwise, after
    genrank.factor_requisite splits off the requisite tail."""
    tail = []
    if qprime_side and 1 in pinj.image(alpha):
        alpha, requisite = genrank.factor_requisite(alpha)
        tail = [requisite]
    out = []
    for step in oracle_chain(alpha):
        out.extend([step] if pinj.is_idempotent(step) else oracle_expand(step))
    return out + tail


def chain_steps(alpha):
    """The steps of the chain split of alpha, as (fixed, x_i, a_i): step i
    fixes a_1, ..., a_{i-1} and x_{i+1}, ..., x_p and moves x_i to a_i.
    fixed is updated in place between steps, so with_pair copies it."""
    img = points(alpha)
    fixed = [None if a is None else x for x, a in enumerate(img, 1)]
    for x, a in enumerate(img, 1):
        if a is not None:
            fixed[x - 1] = None
            yield fixed, x, a
            fixed[a - 1] = a


def with_pair(fixed, x, a):
    """The fixed part, given as an image list, extended by x -> a."""
    img = fixed.copy()
    img[x - 1] = a
    return pinj.PartialInjection(len(img), img)


def walk_down(fixed, y, a):
    """The essentials b + 1 -> b over the fixed part, for b from y - 1
    down to a."""
    return [with_pair(fixed, b + 1, b) for b in range(y - 1, a - 1, -1)]


def stepwise_chain(alpha):
    return [with_pair(fixed, x, a) for fixed, x, a in chain_steps(alpha)]


def stepwise_expand(eps):
    img = points(eps)
    (y, a), = ((x, b) for x, b in enumerate(img, 1) if b is not None and b != x)
    fixed = [b if b == x else None for x, b in enumerate(img, 1)]
    return walk_down(fixed, y, a)


def stepwise_essential_factorization(alpha, qprime_side=False):
    tail = []
    if qprime_side and 1 in points(alpha):
        alpha, requisite = genrank.factor_requisite(alpha)
        tail = [requisite]
    out = []
    for fixed, x, a in chain_steps(alpha):
        if x == a:
            out.append(with_pair(fixed, x, a))
        else:
            out.extend(walk_down(fixed, x, a))
    return out + tail


def loop_compose(alpha, beta):
    """x -> (x alpha) beta, one point at a time, validated on construction."""
    if alpha.n != beta.n:
        raise ChainMismatchError(f"cannot compose maps on chains {alpha.n} and {beta.n}")
    bimg = points(beta)
    img = [None] * alpha.n
    for i, a in enumerate(points(alpha)):
        if a is not None:
            img[i] = bimg[a - 1]
    return pinj.PartialInjection(alpha.n, img)


def loop_is_idempotent(alpha):
    return loop_compose(alpha, alpha) == alpha


def assert_revalidates(alpha):
    """alpha has a packed image and equals its validated rebuild."""
    assert type(alpha.img) is bytes
    assert alpha == pinj.PartialInjection(alpha.n, points(alpha))


def oracle_element_kind(element, qprime_side):
    if not isinstance(element, pinj.PartialInjection):
        return "other"
    kind = pinj.classify(element)
    if qprime_side and kind == "essential" and pinj.is_requisite(element):
        return "requisite"
    return kind


def scanner_parse_text(text):
    """Parse the element text form one character at a time; raises
    ParseError with a position."""
    if not isinstance(text, str):
        raise ParseError("element text must be a string")
    pos = 0

    def read_int():
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise ParseError("expected a number", start)
        try:
            return int(text[start:pos])
        except ValueError:  # a non-ASCII digit, or more digits than int() takes
            raise ParseError("expected a decimal number", start) from None

    n = read_int()
    if n > pinj.MAX_TEXT_CHAIN:
        raise ParseError(f"chain size {n} exceeds the limit {pinj.MAX_TEXT_CHAIN}", 0)
    if pos >= len(text) or text[pos] != ":":
        raise ParseError("expected ':' after the chain size", pos)
    pos += 1
    pairs = []
    if pos < len(text):
        while True:
            pair_start = pos
            x = read_int()
            if pos >= len(text) or text[pos] != ">":
                raise ParseError("expected '>' inside a pair", pos)
            pos += 1
            a = read_int()
            pairs.append((x, a, pair_start))
            if pos == len(text):
                break
            if text[pos] != ",":
                raise ParseError("expected ',' between pairs", pos)
            pos += 1
    last_x = 0
    for x, a, at in pairs:
        if x <= last_x:
            raise ParseError(
                "pairs must be sorted by strictly increasing domain point", at
            )
        last_x = x
    try:
        return pinj.from_pairs(n, [(x, a) for x, a, _ in pairs])
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


def oracle_idempotent_indices(table):
    rows = table.product_rows()
    return [i for i in range(table.size) if rows[i][i] == i]


def oracle_regular_elements(table):
    """Indices of elements a with a b a = a for some b."""
    rows = table.product_rows()
    m = table.size
    return [a for a in range(m) if any(rows[rows[a][b]][a] == a for b in range(m))]


def oracle_semilattice(table):
    """is_semilattice_of_idempotents over the product rows."""
    rows = table.product_rows()
    idem = oracle_idempotent_indices(table)
    idem_set = set(idem)
    name, label = "semilattice-of-idempotents", structure._label(table)
    for e in idem:
        for f in idem:
            ef = rows[e][f]
            if ef != rows[f][e]:
                witness = f"{table.text_of(e)} and {table.text_of(f)} do not commute"
                return structure.PropertyReport(name, label, False, witness=witness)
            if ef not in idem_set:
                witness = f"product of {table.text_of(e)} and {table.text_of(f)} is not idempotent"
                return structure.PropertyReport(name, label, False, witness=witness)
    return structure.PropertyReport(name, label, True)


def _oracle_leg_plus(table, rows, rstar, plus_of, a, e):
    """Check ae = (ae)+ a; returns (ok, witness_or_None)."""
    ae = rows[a][e]
    plus = plus_of[rstar.class_of[ae]]
    if plus is None:
        return None, f"R*-class of {table.text_of(ae)} lacks a unique idempotent"
    if rows[plus][a] != ae:
        return False, f"ae != (ae)+a for a={table.text_of(a)}, e={table.text_of(e)}"
    return True, None


def _oracle_leg_star(table, rows, lstar, star_of, a, e):
    """Check ea = a (ea)*; returns (ok, witness_or_None)."""
    ea = rows[e][a]
    star = star_of[lstar.class_of[ea]]
    if star is None:
        return None, f"L*-class of {table.text_of(ea)} lacks a unique idempotent"
    if rows[a][star] != ea:
        return False, f"ea != a(ea)* for a={table.text_of(a)}, e={table.text_of(e)}"
    return True, None


def _oracle_per_element(part, per_class):
    found = [per_class[c] for c in part.class_of]
    return [i or 0 for i in found], [i is None for i in found]


def _oracle_plus_failures(rows, rstar, plus_of):
    """e -> flags over every a: whether ae = (ae)+ a fails at a, down the
    column of e."""
    plus, gap = _oracle_per_element(rstar, plus_of)
    plus_rows = list(map(rows.__getitem__, plus))
    everyone = range(len(rows))

    def failures(e):
        col = list(map(itemgetter(e), rows))
        got = map(getitem, map(plus_rows.__getitem__, col), everyone)
        return map(or_, map(gap.__getitem__, col), map(ne, got, col))

    return failures


def _oracle_star_failures(rows, lstar, star_of):
    """e -> flags over every a: whether ea = a (ea)* fails at a, along the
    row of e."""
    star, gap = _oracle_per_element(lstar, star_of)

    def failures(e):
        row = rows[e]
        got = map(getitem, rows, map(star.__getitem__, row))
        return map(or_, map(gap.__getitem__, row), map(ne, got, row))

    return failures


def oracle_ample(table, one_sided=False):
    """is_ample (is_right_ample when one_sided) over the product rows: the
    base check, then the first failure over a, then e in index order, of
    the legs' flags or-ed."""
    name, note = ("right-ample", "not right adequate") if one_sided else ("ample", "not adequate")
    base = structure.is_right_adequate if one_sided else structure.is_adequate
    report = base(table)
    if not report.holds:
        return structure.PropertyReport(
            name, structure._label(table), False, witness=report.witness, note=note
        )
    legs = [("starred_R", _oracle_plus_failures, _oracle_leg_plus)]
    if not one_sided:
        legs.insert(0, ("starred_L", _oracle_star_failures, _oracle_leg_star))
    rows = table.product_rows()
    idem = oracle_idempotent_indices(table)
    idem_set = set(idem)
    flags, witnesses = [], []
    for relation, failures, witness in legs:
        part = getattr(greens, relation)(table)
        per_class = structure._unique_idempotent_map(part, idem_set)
        flags.append(failures(rows, part, per_class))
        witnesses.append(partial(witness, table, rows, part, per_class))
    best, limit = None, table.size
    for e in idem:
        a = next(compress(range(limit), reduce(partial(map, or_), (f(e) for f in flags))), None)
        if a is not None:
            best, limit = (a, e), a
    if best is None:
        return structure.PropertyReport(name, structure._label(table), True)
    ok, witness = next(leg for leg in (w(*best) for w in witnesses) if leg[0] is not True)
    note = "precondition failure" if ok is None else None
    return structure.PropertyReport(name, structure._label(table), False, witness, note)


def oracle_inverse_ideal(sub, sup, require_left):
    """Every u in sub has v in sup with uvu = u, uv in sub and, when
    require_left, vu in sub; v runs over the whole product rows of sup."""
    rows = sup.product_rows()
    members = {sup.index(el) for el in elements_of(sub)}
    name = "inverse-ideal" if require_left else "right-inverse-ideal"
    label = f"{sub.family.label()} in {sup.family.label()}"
    for el in elements_of(sub):
        u = sup.index(el)
        if not any(
            rows[rows[u][v]][u] == u and rows[u][v] in members
            and (not require_left or rows[v][u] in members)
            for v in range(sup.size)
        ):
            witness = f"no admissible generalized inverse for {sup.text_of(u)}"
            return structure.PropertyReport(name, label, False, witness=witness)
    return structure.PropertyReport(name, label, True)


@pytest.fixture
def row_builds(monkeypatch):
    """A list of the tables whose full product rows get built, while
    enumerate_family returns a fresh table on every call."""
    built = []
    build = families.SemigroupTable._product_rows

    def counted(table):
        built.append(table)
        return build(table)

    monkeypatch.setattr(families.SemigroupTable, "_product_rows", counted)
    monkeypatch.setattr(families, "_build_table", families._enumerate_table)
    return built

"""Partial injective transformations of the chain {1, ..., n}.

An element is an injective partial map written on the right: x maps to
image_of(x).  Storage is the packed image the product tables use: n
bytes whose byte x-1 holds the image of x, or 0 when x is outside the
domain.  So an image value is at most MAX_IMAGE = 255, the largest a
byte holds; the chain itself may be longer (up to MAX_TEXT_CHAIN in the
text form), its points above 255 lying outside the image.  image_of
reads None outside the domain, and the constructors take None there.
Everything in the public interface is 1-based; the 0-based slot
arithmetic stays in here.

Elements are immutable and hashable.  Composition is left to right:
x (a * b) = (x a) b.

Text form, used by the CLI and by fixtures:

    <n> ":" [ <x> ">" <a> { "," <x> ">" <a> } ]

Pairs are sorted by x and carry no whitespace.  "3:2>1,3>3" is the map
2 -> 1, 3 -> 3 on the 3-chain; "4:" is the empty map on the 4-chain.

Validation happens once, where an element enters from outside: the
PartialInjection constructor, from_pairs, partial_identity, identity,
empty_map and parse_text refuse a chain size that is not a positive
integer, a point or image value that is not an integer in 1..n, an
image value above MAX_IMAGE (RangeError), and an image value used
twice; a bool counts as no integer here.  Every other element is built
by _trusted, which checks nothing, at a site whose validity is proven:

- compose: alpha's packed image sent through a translate table of
  beta's (_translate_table), which sends each point a in 1..255 to
  a beta and 0 to 0.  Each image of alpha is such a point, so each
  composite value is an image of beta, in 1..n and at most 255, or 0
  where x alpha beta is undefined; two points with one composite image
  have one image under alpha, as beta is injective, so they are one
  point, as alpha is.
- SemigroupTable.element: it wraps the table's packed image as it is,
  with no copy, so it is valid whenever the bytes are one: n bytes, 0
  outside the domain and distinct points of 1..n on it.  The
  enumerator writes exactly that into n <= 12 bytes: a_{i-1} < a_i <=
  x_i on the domain x_1 < ... < x_p of an isotone, order-decreasing
  map, and distinct values of 1..n on that of a partial injection.
  The tests pack validated elements the same way; the Rees zero is
  never wrapped.
- parse_text: its first pass writes each image only after checking that
  the pair's point follows the last one and lies in 1..n, and that its
  image lies in 1..n and was not written before; the bytearray it writes
  into refuses an image above MAX_IMAGE.
- genrank's factor walk (_factor_walk), which builds every chain step
  and essential, both factors of its requisite split, and both factors
  of lift_height: the proofs are in essential_factorization,
  _split_requisite and lift_height.  They take chains of at most
  MAX_IMAGE points, so every point they write fits in a byte.

The tests rebuild every enumerated element and every factor through the
validating constructor and compare, and hold the enumerated images to
the validated elements' packing.  Elements cannot be changed after
construction: assigning or deleting an attribute raises.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from operator import getitem

from .errors import (
    ChainMismatchError,
    InjectivityError,
    ParseError,
    RangeError,
    ValidationError,
)

# Largest chain size the text form accepts.  Far above anything that can
# be enumerated, and checked before any per-point storage is allocated.
MAX_TEXT_CHAIN = 1000

# Largest image value: an image is stored as one byte per point.
MAX_IMAGE = 255


class PartialInjection:
    """One injective partial self-map of {1, ..., n}."""

    __slots__ = ("n", "img")

    def __init__(self, n, img):
        """img lists the image of each point 1..n in turn, None outside
        the domain; it is stored packed."""
        _check_chain_size(n)
        img = tuple(img)
        if len(img) != n:
            raise ValidationError(f"image table has length {len(img)}, expected {n}")
        packed = bytearray(n)
        seen = bytearray(MAX_IMAGE + 1)
        for x, a in enumerate(img):
            if a is None:
                continue
            if type(a) is bool or not isinstance(a, int) or not 1 <= a <= n:
                raise RangeError(f"image value {a!r} outside 1..{n}")
            if a > MAX_IMAGE:
                raise RangeError(f"image value {a} above {MAX_IMAGE}, the largest one stored")
            if seen[a]:
                raise InjectivityError(f"image value {a} used twice")
            seen[a] = 1
            packed[x] = a
        _set_n(self, n)
        _set_img(self, bytes(packed))

    def __setattr__(self, name, value):
        raise AttributeError(f"PartialInjection is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PartialInjection is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (PartialInjection, (self.n, tuple(a or None for a in self.img)))

    def image_of(self, x):
        """Image of the point x, or None when x is outside the domain.

        x must be an integer in 1..n, as for every other entry point; the
        library's own hot paths read img directly instead."""
        if type(x) is bool or not isinstance(x, int) or not 1 <= x <= self.n:
            raise RangeError(f"point {x!r} outside 1..{self.n}")
        return self.img[x - 1] or None

    def __eq__(self, other):
        return (
            isinstance(other, PartialInjection)
            and self.n == other.n
            and self.img == other.img
        )

    def __hash__(self):
        return hash((self.n, self.img))

    def __mul__(self, other):
        return compose(self, other)

    def __repr__(self):
        return f"parse_text({canonical_text(self)!r})"


# The slots are written through their descriptors, as __setattr__ refuses.
_set_n = PartialInjection.n.__set__
_set_img = PartialInjection.img.__set__
_new = object.__new__


def _trusted(n, img):
    """The element with chain size n and packed image img, unchecked.

    Only for a site that proves img is bytes of length n whose values are
    0 or distinct points of 1..n; the module docstring lists them.
    """
    alpha = _new(PartialInjection)
    _set_n(alpha, n)
    _set_img(alpha, img)
    return alpha


def _check_chain_size(n):
    """Refuse a chain size that is not a positive integer, before any
    per-point storage is allocated.  A bool is an int to isinstance, so
    it is refused by type here and for every point and image value."""
    if type(n) is bool or not isinstance(n, int) or n < 1:
        raise ValidationError(f"chain size must be a positive integer, got {n!r}")


def from_pairs(n, pairs):
    """Build an element from (x, a) pairs; rejects duplicates, a None image
    and bad ranges."""
    _check_chain_size(n)
    img = [None] * n
    for x, a in pairs:
        if type(x) is bool or not isinstance(x, int) or not 1 <= x <= n:
            raise RangeError(f"domain point {x!r} outside 1..{n}")
        if img[x - 1] is not None:
            raise InjectivityError(f"domain point {x} used twice")
        if a is None:
            raise ValidationError(f"domain point {x} has no image")
        img[x - 1] = a
    return PartialInjection(n, img)


def identity(n):
    _check_chain_size(n)
    return PartialInjection(n, range(1, n + 1))


def empty_map(n):
    _check_chain_size(n)
    return PartialInjection(n, [None] * n)


def partial_identity(n, points):
    """The identity restricted to the given set of points."""
    _check_chain_size(n)
    img = [None] * n
    for x in points:
        if type(x) is bool or not isinstance(x, int) or not 1 <= x <= n:
            raise RangeError(f"point {x!r} outside 1..{n}")
        img[x - 1] = x
    return PartialInjection(n, img)


def compose(alpha, beta):
    """Left-to-right composite: x -> (x alpha) beta where both sides are defined."""
    n = alpha.n
    if n != beta.n:
        raise ChainMismatchError(f"cannot compose maps on chains {n} and {beta.n}")
    return _trusted(n, alpha.img.translate(_translate_table(beta.img)))


def _translate_table(image):
    """A packed image as a bytes.translate table: 0 goes to 0 and each
    point a in 1..255 to its image (0 outside the domain and past the
    chain), so a packed image sent through it is that map followed by
    this one.  Points above 255 are left out: no image value, so no byte
    sent through the table, exceeds 255."""
    return (b"\0" + image[:MAX_IMAGE]).ljust(256, b"\0")


def domain(alpha):
    return tuple(compress(range(1, alpha.n + 1), alpha.img))


def image(alpha):
    return tuple(sorted(filter(None, alpha.img)))


def height(alpha):
    """Size of the image (equivalently, of the domain)."""
    return alpha.n - alpha.img.count(0)


def fixed_points(alpha):
    return tuple(i + 1 for i, a in enumerate(alpha.img) if a == i + 1)


def shift(alpha):
    """Number of domain points the map moves."""
    return len(_moved(alpha.img))


def _moved(img):
    """The moved pairs (x, x alpha) of the packed image img, by increasing x."""
    return [(x, a) for x, a in enumerate(img, 1) if a and a != x]


def is_isotone(alpha):
    """Order preserving: x <= y implies x alpha <= y alpha on the domain."""
    prev = 0
    for a in filter(None, alpha.img):
        if a <= prev:
            return False
        prev = a
    return True


def is_decreasing(alpha):
    """Order decreasing: x alpha <= x for every domain point x (0, read
    outside the domain, is below every point)."""
    return all(a <= x for x, a in enumerate(alpha.img, 1))


def is_isotone_decreasing(alpha):
    """is_isotone and is_decreasing in one pass: a_{i-1} < a_i <= x_i on
    the domain x_1 < ... < x_p, with a_0 = 0."""
    prev = 0
    for x, a in enumerate(alpha.img, 1):
        if a:
            if not prev < a <= x:
                return False
            prev = a
    return True


def is_idempotent(alpha):
    """True when alpha is a partial identity.  That is idempotence: if
    x alpha = a, then a alpha = x alpha alpha = a, so x = a as alpha is
    injective; and a partial identity is its own square."""
    return all(a == x for x, a in enumerate(alpha.img, 1) if a)


def is_quasi_idempotent(alpha):
    """True when the square is idempotent, i.e. alpha^4 = alpha^2."""
    return is_idempotent(compose(alpha, alpha))


def is_essential(alpha):
    """Exactly one moved point, and it drops by exactly one.

    Meaningful for isotone, order-decreasing inputs, where this matches
    the shift-one quasi-idempotents whose moved point has gap one.
    """
    moved = _moved(alpha.img)
    return len(moved) == 1 and moved[0][1] == moved[0][0] - 1


def is_requisite(alpha):
    """Moved points form a block {2, ..., i} shifted down by one, with every
    fixed point above i.  The fixed part may be empty."""
    return _is_requisite_block(_moved(alpha.img))


def _is_requisite_block(moved):
    """is_requisite read off the moved pairs: they are 2 -> 1, ..., i -> i - 1.

    No fixed point f <= i is left to refuse: 2, ..., i are moved, and 1
    is no fixed point, as 1 alpha = 1 = 2 alpha would break injectivity.
    """
    return bool(moved) and moved == [(x, x - 1) for x in range(2, len(moved) + 2)]


def classify(alpha):
    """Name the structural kind of an isotone, order-decreasing element.

    Kinds are checked in priority order: idempotent, essential, requisite,
    quasi-idempotent-shift-1, other.  An element that is both essential and
    requisite (moved pair 2 -> 1 with a fixed tail) reports as essential.
    All are read off the moved pairs, found once.

    Every partial injection with exactly one moved pair y -> a is
    quasi-idempotent, so that kind needs no composite.  The point a is
    not y, and it is no fixed point, as f alpha = f = a = y alpha would
    put two points on one image; so a lies outside the domain.  Hence
    alpha^2 is undefined at y and fixes every fixed point, the rest being
    outside the domain: alpha^2 is a partial identity, so idempotent.
    One moved pair that is not essential is not requisite either, as the
    only one-pair requisite block is 2 -> 1.
    """
    moved = _moved(alpha.img)
    if not moved:
        return "idempotent"
    if len(moved) == 1:
        y, a = moved[0]
        return "essential" if a == y - 1 else "quasi-idempotent-shift-1"
    return "requisite" if _is_requisite_block(moved) else "other"


def canonical_text(alpha):
    return text_of_images(alpha.n, alpha.img)


# Chains up to this size get a table of their pair texts on first use.
# Above it, where no table can be enumerated anyway, the n(n + 1) texts
# would cost more than the few elements that are written.
_TABLED_TEXT_CHAIN = 64


def text_of_images(n, img):
    """The text form of the map on the n-chain whose images are img: a
    packed image, or any sequence with a false value (0 or None) outside
    the domain.

    The pair texts come from a table per n: compress keeps the rows of
    the domain points and filter their images, and the join runs in C.
    """
    texts = _pair_texts(n)
    if texts is None:
        pairs = ",".join(f"{x}>{a}" for x, a in enumerate(img, 1) if a)
        return f"{n}:{pairs}"
    head, rows, _ = texts
    return head + ",".join(map(getitem, compress(rows, img), filter(None, img)))


@lru_cache(maxsize=None)
def _pair_texts(n):
    """The head "n:", for each point x of the n-chain the texts "x>a"
    indexed by a in 0..n ("" at 0), and the inverse map from each text
    "x>a" to (x, a); None above _TABLED_TEXT_CHAIN.  Built on the first
    text written or read for each n."""
    if n > _TABLED_TEXT_CHAIN:
        return None
    rows = tuple(
        ("",) + tuple(f"{x}>{a}" for a in range(1, n + 1)) for x in range(1, n + 1)
    )
    pairs = {row[a]: (x, a) for x, row in enumerate(rows, 1) for a in range(1, n + 1)}
    return f"{n}:", rows, pairs


def parse_text(text):
    """Parse the element text form; raises ParseError with a position.

    The text is cut at its first ':', the rest at each ',' and each pair
    at its first '>'; every number is checked with str.isdigit and read
    with int().  Positions are counted only for a piece found bad, which
    _number_at then reads point by point to name the first error in it.
    Syntax errors come in reading order, an unsorted pair only after the
    whole text has been read, and from_pairs' errors last.

    A well-formed text is first read in one pass that checks each pair as
    it writes its image: sorted, in range, and no image used twice, which
    is what _trusted needs; the images are written into a bytearray and
    frozen.  A pair written canonically is looked up in the inverse
    table of _pair_texts, whose pairs are in range; any other
    is read as above.  That pass stops at the first pair it refuses, and
    the text is then read again by the checks in the order above, so the
    first error in that order is raised, whichever pair holds it.
    """
    if not isinstance(text, str):
        raise ParseError("element text must be a string")
    head, colon, body = text.partition(":")
    try:
        n = int(head) if colon and head.isdigit() else -1
    except ValueError:  # a non-ASCII digit, or more digits than int() takes
        n = -1
    end = None
    if n < 0:
        n, end = _number_at(text, 0)
    if n > MAX_TEXT_CHAIN:
        raise ParseError(f"chain size {n} exceeds the limit {MAX_TEXT_CHAIN}", 0)
    if end is not None:
        raise ParseError("expected ':' after the chain size", end)
    if n:
        img = bytearray(n)
        used = bytearray(n + 1)
        last_x = 0
        texts = _pair_texts(n)
        pair_of = texts[2] if texts else {}
        try:
            for chunk in body.split(",") if body else ():
                if chunk in pair_of:
                    x, a = pair_of[chunk]
                else:
                    x, gt, a = chunk.partition(">")
                    if not (gt and x.isdigit() and a.isdigit()):
                        break
                    x = int(x)
                    a = int(a)
                    if not (x <= n and 0 < a <= n):
                        break
                if x <= last_x or used[a]:
                    break
                img[x - 1] = a
                used[a] = 1
                last_x = x
            else:
                return _trusted(n, bytes(img))
        except ValueError:
            # A non-ASCII digit, more digits than int() takes, or an image
            # above MAX_IMAGE, which the bytearray refuses to store.
            pass
    pairs = []
    if body:
        chunks = body.split(",")
        for i, chunk in enumerate(chunks):
            x, gt, a = chunk.partition(">")
            try:
                if gt and x.isdigit() and a.isdigit():
                    pairs.append((int(x), int(a)))
                    continue
            except ValueError:
                pass
            _, end = _number_at(text, _chunk_start(head, chunks, i))
            if text[end:end + 1] != ">":
                raise ParseError("expected '>' inside a pair", end)
            _, end = _number_at(text, end + 1)
            raise ParseError("expected ',' between pairs", end)
        last_x = 0
        for i, (x, _) in enumerate(pairs):
            if x <= last_x:
                raise ParseError(
                    "pairs must be sorted by strictly increasing domain point",
                    _chunk_start(head, chunks, i),
                )
            last_x = x
    try:
        return from_pairs(n, pairs)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


def _chunk_start(head, chunks, i):
    """The position in the text of the i-th pair: head, ':', then the
    chunks before it, each followed by its ','."""
    return len(head) + 1 + sum(map(len, chunks[:i])) + i


def _number_at(text, start):
    """The number whose digits start at text[start], and the position
    after them; raises at start when there is none or int() refuses it."""
    end = start
    while end < len(text) and text[end].isdigit():
        end += 1
    if end == start:
        raise ParseError("expected a number", start)
    try:
        return int(text[start:end]), end
    except ValueError:  # a non-ASCII digit, or more digits than int() takes
        raise ParseError("expected a decimal number", start) from None

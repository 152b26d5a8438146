"""Closed-form counts and embedded integer sequence prefixes.

All arithmetic is exact (Python integers, math.comb), so overflow cannot
occur silently.  Where two published closed forms describe the same
quantity, one is evaluated and the tests hold the other to it.  Sequence
prefixes are baked in so nothing here touches the network.

Each closed form is evaluated in one function: catalan, t and
syminv_order give the orders; _per_height the height-p idempotents,
essentials and requisites of IC_n and Q'_n, which RIC_n(p) and RQ'_n(p)
read at their p, and the generators of RIC_n(p) and RQ'_n(p), also the
ranks of K, M, RIC and RQ'; rank_formula the ranks of IC_n and Q'_n;
count_formula the totals over all heights.  The embedded prefixes check
them independently.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ValidationError


def _comb(n, k):
    """Binomial coefficient that is 0 outside 0 <= k <= n instead of raising."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def catalan(n):
    """Catalan number c_n = binomial(2n, n-1) / n, defined for n >= 1.
    A bool counts as no integer."""
    if type(n) is bool or not isinstance(n, int) or n < 1:
        raise ValidationError(f"catalan(n) needs an integer n >= 1, got {n!r}")
    return math.comb(2 * n, n - 1) // n


def t(n):
    """Order of the identity-free part: t_n = c_(n+1) - c_n.

    It equals the closed form 3/(n+2) * binomial(2n, n-1); the tests hold
    the two equal.
    """
    if type(n) is bool or not isinstance(n, int) or n < 1:
        raise ValidationError(f"t(n) needs an integer n >= 1, got {n!r}")
    return catalan(n + 1) - catalan(n)


def syminv_order(n):
    """Order of the monoid of all partial injections of an n-chain:
    the sum over k of binomial(n, k)^2 k!."""
    n = _natural(n, "syminv_order's n")
    return sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))


def _integer(value, what):
    """value, or ValidationError when it is no integer (a bool is none)."""
    if type(value) is bool or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _natural(value, what):
    """value, or ValidationError when it is no integer >= 0: a height or
    a chain size, which is never negative."""
    if _integer(value, what) < 0:
        raise ValidationError(f"{what} must be >= 0, got {value!r}")
    return value


def _per_height(kind, qprime_side, n, p):
    """The published count of the height-p idempotents, essentials or
    requisites (kind) of IC_n, or of Q'_n on the identity-free side (None
    for requisites on the full side, which counts none), or of the
    generators of the height-p Rees quotient: binomial(n, p) plus the
    height-p essentials, also the rank of the quotient and of the ideal."""
    if kind == "idempotents":
        return _comb(n - 1, p) if qprime_side else _comb(n, p)
    if kind == "essentials":
        return (n - 2) * _comb(n - 3, p - 1) if qprime_side else (n - 1) * _comb(n - 2, p - 1)
    if kind == "generators":
        return _comb(n, p) + _per_height("essentials", qprime_side, n, p)
    return _comb(n - 1, p - 1) if qprime_side else None


def rank_formula(spec):
    """Published rank value for the family, or None where none is stated.

    Ranges follow the statements that are actually backed by proofs:
    the ideal/Rees formulas on the full side for 1 <= p <= n-1, on the
    identity-free side for 1 <= p <= n-2 (ideal) and every p FamilySpec
    takes, 1 <= p <= n-1 (Rees quotient, p = 1 the permitted extension).
    """
    n, p, kind = spec.n, spec.p, spec.kind
    if kind == "icn":
        return 2 * n
    if kind == "qprime":
        return n * n - 3 * n + 4 if n > 1 else None
    if p is None or p > (n - 2 if kind == "m" else n - 1):
        return None
    return _per_height("generators", spec.qprime_side, n, p)


def count_formula(kind, spec, p=None):
    """Published census value for a kind of element, or None when unstated.

    kind is one of "idempotents", "essentials", "requisites", "maximal",
    "generators".  With p=None the total over all heights is returned for
    the cases where a total is stated.  For the Rees families the zero is
    not counted and p, when given, must be the family's height.
    """
    if kind not in ("idempotents", "essentials", "requisites", "maximal", "generators"):
        raise ValidationError(f"unknown census kind {kind!r}")
    if p is not None:
        _natural(p, "the census height p")
    n, fam = spec.n, spec.kind
    if kind == "maximal":
        # On these J-trivial monoids the maximal subsemigroups are the
        # complements of the minimum generators, so the count is the rank.
        return rank_formula(spec) if fam in ("icn", "qprime") else None
    if fam in ("ric", "rq"):
        return _per_height(kind, spec.qprime_side, n, spec.p if p is None else p)
    if fam not in ("icn", "qprime") or kind == "generators":
        return None
    if p is not None:
        return _per_height(kind, fam == "qprime", n, p)
    # The totals over all heights that are stated.
    if kind == "idempotents":
        return 2 ** (n - 1) if fam == "qprime" else 2**n
    if kind == "essentials" and fam == "icn":
        return (n - 1) * 2 ** (n - 2) if n >= 2 else 0
    return None


class SequencePrefix(NamedTuple):
    """A named integer sequence prefix with its starting offset."""

    name: str
    offset: int
    terms: tuple

    def value(self, n):
        i = _integer(n, f"a {self.name} index") - self.offset
        if not 0 <= i < len(self.terms):
            raise ValidationError(f"{self.name} prefix holds no term for n={n}")
        return self.terms[i]


# Orders of the identity-free families: t_n for n = 1, 2, ...
A000245 = SequencePrefix(
    "A000245", 1, (1, 3, 9, 28, 90, 297, 1001, 3432, 11934, 41990)
)

# n * 2^(n-1); the total essential count at chain size n is the n-1 term.
A001787 = SequencePrefix("A001787", 0, (0, 1, 4, 12, 32, 80, 192, 448, 1024, 2304))

# Triangle T(r, c) = r * binomial(r-1, c-1), rows 1..6 flattened; the
# essential census at chain size n, height p, is T(n-1, p).
A003506 = SequencePrefix(
    "A003506",
    1,
    (
        1,
        2, 2,
        3, 6, 3,
        4, 12, 12, 4,
        5, 20, 30, 20, 5,
        6, 30, 60, 60, 30, 6,
    ),
)


# Triangle obtained by adding A003506 (padded with a zero at each end of
# the row) to Pascal's triangle: row n, entry p is
# binomial(n, p) + (n-1) * binomial(n-2, p-1), the non-zero generator
# count of the height-p Rees quotient on the full side.  Rows 1..6.
A103450 = SequencePrefix(
    "A103450",
    1,
    (
        1, 1,
        1, 3, 1,
        1, 5, 5, 1,
        1, 7, 12, 7, 1,
        1, 9, 22, 22, 9, 1,
        1, 11, 35, 50, 35, 11, 1,
    ),
)


def essential_triangle_row(r):
    """Row r (1-based) of the embedded A003506 prefix, as a tuple."""
    if not 1 <= _integer(r, "an A003506 row") <= 6:
        raise ValidationError(f"embedded A003506 prefix stops at row 6, asked for {r}")
    start = r * (r - 1) // 2
    return A003506.terms[start : start + r]


def generator_triangle_row(r):
    """Row r (1-based) of the embedded A103450 prefix, as a tuple."""
    if not 1 <= _integer(r, "an A103450 row") <= 6:
        raise ValidationError(f"embedded A103450 prefix stops at row 6, asked for {r}")
    start = (r - 1) * (r + 2) // 2
    return A103450.terms[start : start + r + 1]

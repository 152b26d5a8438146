"""End-to-end acceptance: every headline claim, checked by exact computation.

Each criterion records one summary line (see conftest).  Two published
claims are contradicted by the computations; the tests for those assert
the published value under strict xfail, print the witness, and a
companion test locks down the attainable remainder.  Nothing is gamed:
a regression in the honest parts fails the suite.
"""

import hashlib
import json
import math
from functools import reduce

import pytest
from conftest import no_smaller_generating_set, oracle_partition_by

from catalanlab import cli, families, formulas, genrank, greens, pinj, structure
from catalanlab.families import FamilySpec


def table(kind, n, p=None):
    return families.enumerate_family(FamilySpec(kind, n, p))


def all_specs(n_max, include_syminv=False):
    out = []
    for n in range(1, n_max + 1):
        out.append(FamilySpec("icn", n))
        out.append(FamilySpec("qprime", n))
        if include_syminv:
            out.append(FamilySpec("syminv", n))
        for p in range(1, n + 1):
            out.append(FamilySpec("k", n, p))
            out.append(FamilySpec("ric", n, p))
        for p in range(1, n):
            out.append(FamilySpec("m", n, p))
            out.append(FamilySpec("rq", n, p))
    return out


@pytest.fixture(scope="module")
def battery():
    return cli.verification_report(n_max=10)


def test_battery_full_run_is_clean(battery, announce):
    summary = battery["summary"]
    assert summary["fail"] == 0
    assert summary["pass"] == 889
    assert summary["paper-inconsistent"] == 24
    assert summary["skipped"] == 1
    assert len(battery["rows"]) == 914
    announce(
        "[battery] n <= 10: 889 pass, 0 fail, 24 paper-inconsistent, 1 skipped"
    )


# sha256 of the stdout of `verify --n-max 10 --format json`.  Any change to
# a row's id, claim text, values, status or order changes it.
BATTERY_10_SHA256 = "8bcf7ab53301485b0ca16dd7b24b2ac2a6fb55c4ae0b798735b8c2b0813684fc"


def test_battery_full_run_bytes_are_pinned(battery):
    stdout = json.dumps(battery, indent=2) + "\n"
    assert hashlib.sha256(stdout.encode()).hexdigest() == BATTERY_10_SHA256


def test_c1_orders(announce):
    for n in range(1, 11):
        assert table("icn", n).size == formulas.catalan(n + 1)
        q_order = table("qprime", n).size
        assert q_order == formulas.t(n)
        assert q_order == formulas.A000245.value(n)
    announce(
        "[C1] PASS orders: |IC_n| = c_(n+1) and |Q'_n| = c_(n+1) - c_n"
        " (A000245), n <= 10"
    )


def test_c2_idempotent_censuses(announce):
    for n in range(1, 9):
        census = genrank.kind_census(table("icn", n))["idempotent"]
        assert sum(census.values()) == 2**n
        assert census == {p: math.comb(n, p) for p in range(n + 1)}
        census = genrank.kind_census(table("qprime", n))["idempotent"]
        assert sum(census.values()) == 2 ** (n - 1)
        assert census == {p: math.comb(n - 1, p) for p in range(n)}
    announce(
        "[C2] PASS idempotents: 2^n / 2^(n-1) totals with binomial height"
        " profiles, n <= 8"
    )


def test_c3_essential_and_requisite_censuses(announce):
    for n in range(2, 9):
        census = genrank.kind_census(table("icn", n)).get("essential", {})
        assert sum(census.values()) == (n - 1) * 2 ** (n - 2)
        want = {
            p: (n - 1) * math.comb(n - 2, p - 1)
            for p in range(1, n)
            if math.comb(n - 2, p - 1)
        }
        assert census == want
    for n in range(2, 9):
        census = genrank.kind_census(table("qprime", n))
        want_ess = {
            p: (n - 2) * math.comb(n - 3, p - 1)
            for p in range(1, n - 1)
            if n > 2 and (n - 2) * math.comb(n - 3, p - 1)
        }
        assert census.get("essential", {}) == want_ess
        want_req = {p: math.comb(n - 1, p - 1) for p in range(1, n)}
        assert census["requisite"] == want_req
    announce(
        "[C3] PASS essentials (n-1)2^(n-2) by (n-1)C(n-2,p-1); identity-free"
        " essentials (n-2)C(n-3,p-1), requisites C(n-1,p-1), n <= 8"
    )


def test_c4_plain_relations_trivial(announce):
    for spec in all_specs(5):
        t = families.enumerate_family(spec)
        for which in ("L", "R", "H", "D", "J"):
            assert greens.green(t, which).is_identity, (spec, which)
    announce(
        "[C4] PASS classical relations: L, R, H, D, J all trivial across the"
        " six families, n <= 5, every height"
    )


def oracle_kernel(t, a):
    rows = t.product_rows()
    m = t.size
    vals = list(rows[a])
    if t.identity_index is None:
        vals.append(a)
    return frozenset(
        (x, y)
        for x in range(len(vals))
        for y in range(x + 1, len(vals))
        if vals[x] == vals[y]
    )


def test_c5_starred_characterizations_attainable_part(announce):
    uncollapsed = [
        s
        for s in all_specs(5)
        if s.kind != "rq" or s.p == 1
    ]
    for spec in uncollapsed:
        t = families.enumerate_family(spec)
        assert greens.starred_L(t) == oracle_partition_by(t, pinj.image), spec
        assert greens.starred_H(t).is_identity, spec
    for spec in all_specs(5):
        t = families.enumerate_family(spec)
        assert greens.starred_R(t) == oracle_partition_by(t, pinj.domain), spec
        by_height = oracle_partition_by(t, pinj.height)
        dstar = greens.starred_D(t)
        assert dstar == by_height, spec
        assert greens.starred_J(t) == by_height, spec
        l = greens.starred_L(t)
        r = greens.starred_R(t)
        d = greens.related_sets(dstar)
        assert d == greens.related_sets(r, l, r), spec
        assert d == greens.related_sets(l, r, l), spec
    announce(
        "[C5] PASS (attainable part): R* = equal domain, D* = J* = equal"
        " height, D* = R*L*R* = L*R*L* on all six families; L* = equal image"
        " and trivial H* everywhere except RQ'_n(p) with p >= 2"
    )


@pytest.mark.xfail(
    strict=True,
    reason="published L* description fails on the collapsed quotients",
)
def test_c5_starred_characterizations_as_published(announce):
    # first-principles witness: in RQ'_3(2) both movers send every
    # non-identity element to zero, so their kernels agree although
    # their images differ
    t = table("rq", 3, 2)
    a = t.index(pinj.parse_text("3:2>1,3>2"))
    b = t.index(pinj.parse_text("3:2>1,3>3"))
    assert oracle_kernel(t, a) == oracle_kernel(t, b)
    assert pinj.image(t.element(a)) != pinj.image(t.element(b))
    announce(
        "[C5] FAIL (as published): L* is not equal-image on RQ'_n(p) for"
        " p >= 2; witness 3:2>1,3>2 ~L* 3:2>1,3>3 in RQ'_3(2) despite"
        " different images, so H* is not trivial there either"
    )
    assert greens.starred_L(t) == oracle_partition_by(t, pinj.image)


def test_c6_composition_order_witnesses(announce):
    icn2 = table("icn", 2)
    a = icn2.index(pinj.parse_text("2:1>1"))
    b = icn2.index(pinj.parse_text("2:2>2"))
    lr = greens.related_sets(greens.starred_L(icn2), greens.starred_R(icn2))
    rl = greens.related_sets(greens.starred_R(icn2), greens.starred_L(icn2))
    assert b in lr[a] and b not in rl[a]

    q3 = table("qprime", 3)
    a = q3.index(pinj.parse_text("3:2>2"))
    b = q3.index(pinj.parse_text("3:3>3"))
    lr = greens.related_sets(greens.starred_L(q3), greens.starred_R(q3))
    rl = greens.related_sets(greens.starred_R(q3), greens.starred_L(q3))
    assert b in lr[a] and b not in rl[a]
    announce(
        "[C6] PASS L*R* vs R*L* gap witnesses: (1>1, 2>2) in IC_2 and"
        " (2>2, 3>3) in Q'_3"
    )


def test_c7_structural_battery(announce):
    for n in range(2, 6):
        assert structure.is_abundant(table("icn", n)).holds
        assert structure.is_adequate(table("icn", n)).holds
        assert structure.is_ample(table("icn", n)).holds
    for n in range(1, 6):
        q = table("qprime", n)
        assert structure.is_right_abundant(q).holds
        assert structure.is_right_adequate(q).holds
        assert structure.is_right_ample(q).holds
        if n >= 2:
            report = structure.is_left_abundant(q)
            assert not report.holds
            assert "starred class without idempotent" in report.witness
            # re-derive the failure from scratch: some L*-class of the
            # identity-free monoid really holds no idempotent
            idem = set(structure.idempotent_indices(q))
            assert any(
                idem.isdisjoint(members)
                for members in greens.starred_L(q).classes
            )
    for n in range(1, 6):
        for p in range(1, n + 1):
            assert structure.is_abundant(table("k", n, p)).holds
            assert structure.is_abundant(table("ric", n, p)).holds
        for p in range(1, n):
            for kind in ("m", "rq"):
                t = table(kind, n, p)
                assert structure.is_right_abundant(t).holds
                assert not structure.is_left_abundant(t).holds
    for spec in all_specs(5):
        t = families.enumerate_family(spec)
        assert structure.unique_idempotent_per_rstar_class(t).holds, spec
    for n in range(1, 5):
        assert structure.is_inverse_ideal(table("icn", n)).holds
        assert structure.is_right_inverse_ideal(table("qprime", n)).holds
        if n >= 2:
            assert not structure.is_inverse_ideal(table("qprime", n)).holds
    announce(
        "[C7] PASS structure: full side abundant/adequate/ample and an"
        " inverse ideal; identity-free side right-ample, right inverse"
        " ideal, never left abundant (witnesses exported); unique idempotent"
        " per R*-class everywhere"
    )


def comb0(a, b):
    return math.comb(a, b) if 0 <= b <= a else 0


def test_c8_ranks_where_self_consistent(announce):
    for n in range(2, 7):
        assert genrank.minimal_generating_set(table("icn", n)).rank == 2 * n
    for n in range(2, 7):
        for p in range(1, n):
            want = (n - 1) * comb0(n - 2, p - 1) + math.comb(n, p)
            assert genrank.minimal_generating_set(table("k", n, p)).rank == want
            assert genrank.minimal_generating_set(table("ric", n, p)).rank == want
    for n in range(3, 7):
        for p in range(1, n - 1):
            want = math.comb(n, p) + (n - 2) * comb0(n - 3, p - 1)
            assert genrank.minimal_generating_set(table("m", n, p)).rank == want
    for n in range(2, 7):
        for p in range(1, n):
            want = math.comb(n, p) + (n - 2) * comb0(n - 3, p - 1)
            assert genrank.minimal_generating_set(table("rq", n, p)).rank == want
    assert genrank.minimal_generating_set(table("qprime", 3)).rank == 4
    # the published identity-free rank breaks at n = 4: the claimed value
    # is 8 but three of the listed generators factor, leaving rank 7
    report = genrank.minimal_generating_set(table("qprime", 4))
    assert report.rank == 7
    assert report.formula == 8
    assert no_smaller_generating_set(table("qprime", 4))
    announce(
        "[C8] PASS ranks (asserted where self-consistent): IC_n = 2n"
        " (n <= 6), ideal and quotient formulas on both sides (n <= 6),"
        " Q'_3 = 4; Q'_4 is paper-inconsistent: computed 7 vs published 8"
    )


def test_c9_larger_identity_free_ranks_reported(battery, announce):
    # report-only: these rows must exist and carry an honest status,
    # whatever the numbers turn out to be
    rows = {r["id"]: r for r in battery["rows"]}
    findings = []
    for n in (5, 6):
        rank_row = rows[f"rank-qprime-{n}"]
        max_row = rows[f"maximal-qprime-{n}"]
        assert rank_row["status"] in ("pass", "paper-inconsistent")
        assert max_row["status"] in ("pass", "paper-inconsistent")
        computed = genrank.minimal_generating_set(table("qprime", n)).rank
        published = n * n - 3 * n + 4
        assert str(computed) in str(rank_row["computed"])
        findings.append(f"Q'_{n}: computed {computed}, published {published}")
        assert len(genrank.maximal_subsemigroups(table("qprime", n))) == computed
    announce(
        "[C9] REPORT larger identity-free ranks and maximal counts: "
        + "; ".join(findings)
        + " (status paper-inconsistent in the battery, suite does not fail)"
    )


def test_c10_maximal_subsemigroups_attainable_part(announce):
    for n in range(2, 7):
        t = table("icn", n)
        results = genrank.maximal_subsemigroups(t)
        assert len(results) == 2 * n
        assert results == sorted(genrank.indecomposables(t))
    assert len(genrank.maximal_subsemigroups(table("qprime", 3))) == 4
    results = genrank.maximal_subsemigroups(table("qprime", 4))
    assert len(results) == 7
    announce(
        "[C10] PASS (attainable part): IC_n has exactly 2n maximal"
        " subsemigroups (n <= 6), each the complement of an indecomposable;"
        " Q'_3 has 4, Q'_4 has 7"
    )


@pytest.mark.xfail(
    strict=True,
    reason="published maximal count for the n = 4 identity-free monoid is 8",
)
def test_c10_maximal_subsemigroups_as_published(announce):
    results = genrank.maximal_subsemigroups(table("qprime", 4))
    announce(
        "[C10] FAIL (as published): Q'_4 maximal subsemigroup count is"
        f" {len(results)}, published 8; J-triviality makes the count equal"
        " the rank, and the rank is 7"
    )
    assert len(results) == 8


def test_c11_factorizations_and_lifts(announce):
    for n in range(1, 6):
        t = table("icn", n)
        for i in range(t.size):
            alpha = t.element(i)
            factors = genrank.essential_factorization(alpha)
            if pinj.height(alpha) == 0:
                assert factors == []
                continue
            assert reduce(pinj.compose, factors) == alpha
            for f in factors:
                assert genrank.element_kind(f, False) in ("idempotent", "essential")
                assert pinj.height(f) == pinj.height(alpha)
    for n in range(2, 6):
        spec = FamilySpec("qprime", n)
        t = families.enumerate_family(spec)
        for i in range(t.size):
            alpha = t.element(i)
            factors = genrank.essential_factorization(alpha, qprime_side=True)
            if pinj.height(alpha) == 0:
                assert factors == []
                continue
            assert reduce(pinj.compose, factors) == alpha
            for f in factors:
                assert genrank.element_kind(f, True) in (
                    "idempotent",
                    "essential",
                    "requisite",
                )
                assert families.is_member(f, spec)
                assert pinj.height(f) == pinj.height(alpha)
    lifted = 0
    for n in range(2, 6):
        t = table("icn", n)
        for i in range(t.size):
            alpha = t.element(i)
            if genrank.element_kind(alpha, False) not in ("idempotent", "essential"):
                continue
            if pinj.height(alpha) > n - 2:
                continue
            left, right = genrank.lift_height(alpha, "icn")
            assert pinj.compose(left, right) == alpha
            assert pinj.height(left) == pinj.height(right) == pinj.height(alpha) + 1
            lifted += 1
    for n in range(3, 6):
        spec = FamilySpec("qprime", n)
        t = families.enumerate_family(spec)
        for i in range(t.size):
            alpha = t.element(i)
            if genrank.element_kind(alpha, True) not in (
                "idempotent",
                "essential",
                "requisite",
            ):
                continue
            if pinj.height(alpha) > n - 3:
                continue
            left, right = genrank.lift_height(alpha, "qprime")
            assert pinj.compose(left, right) == alpha
            assert families.is_member(left, spec)
            assert families.is_member(right, spec)
            assert pinj.height(left) == pinj.height(right) == pinj.height(alpha) + 1
            lifted += 1
    assert lifted > 0
    announce(
        "[C11] PASS factorizations: 100% of elements of IC_n and Q'_n"
        " (n <= 5) rebuild from height-preserving generator chains;"
        f" {lifted} eligible elements lift one height up"
    )


def test_c12_generation_boundary(announce):
    for n in (4, 5):
        spec = FamilySpec("qprime", n)
        t = families.enumerate_family(spec)
        top = [i for i in range(t.size) if t.height_of(i) == n - 1]
        below = [i for i in range(t.size) if t.height_of(i) == n - 2]
        from_top = genrank.closure(t, top)
        blocked = [
            i
            for i in below
            if genrank.element_kind(t.element(i), True) == "essential"
            and t.element(i).image_of(2) is not None
        ]
        assert blocked
        assert all(i not in from_top for i in blocked)
        alpha = pinj.from_pairs(
            n, [(3, 2)] + [(j, j) for j in range(4, n + 1)]
        )
        assert t.index(alpha) in from_top
        assert genrank.closure(t, top + below) == frozenset(range(t.size))
    announce(
        "[C12] PASS generation boundary: the top layer alone misses every"
        " second-layer essential whose domain holds 2 (n = 4, 5), while"
        " 3>2 with a fixed tail is reachable; two layers generate everything"
    )

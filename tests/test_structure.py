"""Abundance, adequacy, ample identities, and inverse-ideal embeddings."""

import random

import pytest

from catalanlab import families, greens, pinj, structure
from catalanlab.errors import ValidationError
from catalanlab.families import REES_ZERO, FamilySpec


class FakeTable:
    """Minimal stand-in table for hand-written product rows."""

    def __init__(self, rows, identity_index=None):
        self._rows = [list(r) for r in rows]
        self.size = len(rows)
        self.identity_index = identity_index
        self.label = "fake"

    def product_rows(self):
        return self._rows

    def text_of(self, i):
        return f"e{i}"


LEFT_ZERO = FakeTable([[0, 0], [1, 1]])   # xy = x
RIGHT_ZERO = FakeTable([[0, 1], [0, 1]])  # xy = y


def table(kind, n, p=None):
    return families.enumerate_family(FamilySpec(kind, n, p))


def brute_regular(t):
    rows = t.product_rows()
    m = t.size
    return [
        a
        for a in range(m)
        if any(rows[rows[a][b]][a] == a for b in range(m))
    ]


def test_idempotent_indices_match_elementwise_check():
    for spec in (FamilySpec("icn", 3), FamilySpec("qprime", 4), FamilySpec("rq", 4, 2)):
        t = families.enumerate_family(spec)
        got = structure.idempotent_indices(t)
        want = []
        for i in range(t.size):
            el = t.element(i)
            if el is REES_ZERO or (
                families.is_member(el, spec) and pinj.is_idempotent(el)
            ):
                want.append(i)
        assert got == want


def test_regular_elements_are_exactly_the_idempotents_in_ordered_families():
    for spec in (
        FamilySpec("icn", 4),
        FamilySpec("qprime", 4),
        FamilySpec("k", 4, 2),
        FamilySpec("m", 4, 2),
        FamilySpec("ric", 4, 2),
        FamilySpec("rq", 4, 2),
    ):
        t = families.enumerate_family(spec)
        regular = structure.regular_elements(t)
        assert regular == brute_regular(t)
        assert regular == structure.idempotent_indices(t)


def test_unrestricted_injections_form_a_regular_semigroup():
    t = table("syminv", 3)
    report = structure.is_regular_semigroup(t)
    assert report.holds
    assert len(structure.regular_elements(t)) == t.size
    bad = structure.is_regular_semigroup(table("icn", 3))
    assert not bad.holds
    assert "aba=a" in bad.witness


def test_full_side_families_are_abundant():
    for n in range(2, 6):
        assert structure.is_abundant(table("icn", n)).holds
    for n in range(2, 6):
        for p in range(1, n + 1):
            assert structure.is_abundant(table("k", n, p)).holds
            assert structure.is_abundant(table("ric", n, p)).holds


def test_identity_free_families_are_right_but_not_left_abundant():
    for n in range(2, 6):
        q = table("qprime", n)
        assert structure.is_right_abundant(q).holds
        left = structure.is_left_abundant(q)
        assert not left.holds
        assert "starred class without idempotent" in left.witness
        assert not structure.is_abundant(q).holds
        for p in range(1, n):
            for kind in ("m", "rq"):
                t = table(kind, n, p)
                assert structure.is_right_abundant(t).holds, (kind, n, p)
                assert not structure.is_left_abundant(t).holds, (kind, n, p)


def test_left_abundance_witness_class_really_lacks_idempotents():
    # the witness is a set of element texts; re-check it from scratch
    q = table("qprime", 3)
    report = structure.is_left_abundant(q)
    inner = report.witness.split("{", 1)[1].rsplit("}", 1)[0]
    members = [pinj.parse_text(s) for s in inner.split(",")]
    assert members
    assert all(not pinj.is_idempotent(alpha) for alpha in members)


def test_idempotents_form_a_semilattice_in_every_family():
    for spec in (
        FamilySpec("icn", 4),
        FamilySpec("qprime", 4),
        FamilySpec("k", 4, 2),
        FamilySpec("m", 4, 2),
        FamilySpec("ric", 4, 2),
        FamilySpec("rq", 4, 2),
        FamilySpec("syminv", 3),
    ):
        assert structure.is_semilattice_of_idempotents(
            families.enumerate_family(spec)
        ).holds


def test_left_zero_pair_breaks_the_semilattice_check():
    report = structure.is_semilattice_of_idempotents(LEFT_ZERO)
    assert not report.holds
    assert "do not commute" in report.witness
    assert not structure.is_adequate(LEFT_ZERO).holds
    # abundance alone is fine there; adequacy is what fails
    assert structure.is_left_abundant(LEFT_ZERO).holds
    assert structure.is_right_abundant(LEFT_ZERO).holds


def test_adequate_and_ample_on_the_full_side():
    for n in range(2, 6):
        t = table("icn", n)
        assert structure.is_adequate(t).holds
        assert structure.is_ample(t).holds


def test_right_adequate_and_right_ample_on_the_identity_free_side():
    for n in range(2, 6):
        q = table("qprime", n)
        assert structure.is_right_adequate(q).holds
        assert structure.is_right_ample(q).holds
        assert not structure.is_adequate(q).holds
        report = structure.is_ample(q)
        assert not report.holds
        assert report.note == "not adequate"


def test_right_ample_holds_on_the_collapsed_identity_free_quotient():
    # ae = (ae)+ a, checked by hand on the four-element instance: every
    # product with the top idempotent either stays put or hits zero, and
    # (zero)+ is zero
    assert structure.is_right_ample(table("rq", 3, 2)).holds
    assert structure.is_right_ample(table("m", 4, 2)).holds


def scalar_ample_failure(t, one_sided):
    """The first failing ample leg by the pairwise loop: a in order, then
    e in the order of the idempotent set, the ea leg before the ae leg.
    Returns (witness, note), or None when every identity holds."""
    rows = t.product_rows()
    idem_set = set(structure.idempotent_indices(t))
    lstar = greens.starred_L(t)
    rstar = greens.starred_R(t)
    star_of = structure._unique_idempotent_map(lstar, idem_set)
    plus_of = structure._unique_idempotent_map(rstar, idem_set)
    for a in range(t.size):
        for e in idem_set:
            legs = [structure._ample_leg_plus(t, rows, rstar, plus_of, a, e)]
            if not one_sided:
                legs.insert(0, structure._ample_leg_star(t, rows, lstar, star_of, a, e))
            for ok, witness in legs:
                if ok is not True:
                    return witness, "precondition failure" if ok is None else None
    return None


def perturbed_tables(seed, count):
    """Product tables of small families with a few entries overwritten at
    random, so that failures land at varied (a, e), then as many wholly
    random small tables, where precondition gaps abound."""
    rng = random.Random(seed)
    bases = [table("icn", 3), table("icn", 4), table("qprime", 4), table("rq", 4, 2)]
    for _ in range(count):
        rows = [list(r) for r in rng.choice(bases).product_rows()]
        m = len(rows)
        for _ in range(rng.randint(1, 3)):
            rows[rng.randrange(m)][rng.randrange(m)] = rng.randrange(m)
        yield FakeTable(rows)
    for _ in range(count):
        m = rng.randint(1, 5)
        yield FakeTable([[rng.randrange(m) for _ in range(m)] for _ in range(m)])


def pass_the_base_checks(monkeypatch):
    """Make adequacy and right adequacy hold by fiat, so the ample
    identities are checked on any table, precondition gaps included."""
    def holds(_t):
        return structure.PropertyReport("base", "fake", True)

    monkeypatch.setattr(structure, "is_adequate", holds)
    monkeypatch.setattr(structure, "is_right_adequate", holds)


def test_ample_witnesses_match_the_pairwise_loop(monkeypatch):
    pass_the_base_checks(monkeypatch)
    seen = set()
    for t in perturbed_tables(seed=7, count=300):
        for check, one_sided in ((structure.is_ample, False), (structure.is_right_ample, True)):
            report = check(t)
            want = scalar_ample_failure(t, one_sided)
            if want is None:
                assert report.holds
            else:
                assert (report.holds, report.witness, report.note) == (False, *want)
                seen.add(want[0].split(" ")[0])
    # every kind of failure turned up: both identities and both gaps
    assert seen == {"ea", "ae", "L*-class", "R*-class"}


def test_first_ample_witnesses_pinned(monkeypatch):
    # IC_3 with the product of e1 and e8 overwritten by e0.  Several
    # (a, e) then fail; the first, in the order of a and then e, is
    # reported, and it is the same as before the checks were vectorised.
    rows = [list(r) for r in table("icn", 3).product_rows()]
    rows[1][8] = 0
    t = FakeTable(rows)
    pass_the_base_checks(monkeypatch)
    report = structure.is_right_ample(t)
    assert (report.holds, report.witness, report.note) == (
        False, "ae != (ae)+a for a=e8, e=e1", None,
    )
    report = structure.is_ample(t)
    assert (report.holds, report.witness, report.note) == (
        False, "L*-class of e2 lacks a unique idempotent", "precondition failure",
    )


def test_unique_idempotent_per_rstar_class():
    for spec in (
        FamilySpec("icn", 4),
        FamilySpec("qprime", 4),
        FamilySpec("k", 4, 2),
        FamilySpec("m", 4, 2),
        FamilySpec("ric", 4, 2),
        FamilySpec("rq", 4, 2),
    ):
        report = structure.unique_idempotent_per_rstar_class(
            families.enumerate_family(spec)
        )
        assert report.holds, spec


def test_right_zero_pair_has_a_doubled_idempotent_class():
    report = structure.unique_idempotent_per_rstar_class(RIGHT_ZERO)
    assert not report.holds
    assert "2 idempotents" in report.witness


def test_full_side_is_an_inverse_ideal_of_the_unrestricted_monoid():
    for n in range(1, 5):
        sup = table("syminv", n)
        report = structure.is_inverse_ideal(table("icn", n), sup)
        assert report.holds, n


def test_identity_free_side_is_only_a_right_inverse_ideal():
    for n in range(2, 5):
        sub = table("qprime", n)
        sup = table("syminv", n)
        assert structure.is_right_inverse_ideal(sub, sup).holds, n
        full = structure.is_inverse_ideal(sub, sup)
        assert not full.holds, n
        assert "no admissible generalized inverse" in full.witness


def test_inverse_ideal_witness_is_genuine():
    # re-derive the obstruction: for u = (2 -> 1) any v with uvu = u must
    # send 1 back to 2, so vu keeps 1 in its domain and leaves the family
    sub = table("qprime", 2)
    sup = table("syminv", 2)
    u = pinj.from_pairs(2, [(2, 1)])
    rows = sup.product_rows()
    ui = sup.index_of[u]
    members = {sup.index_of[el] for el in sub.elements}
    for v in range(sup.size):
        if rows[rows[ui][v]][ui] != ui:
            continue
        assert not (rows[ui][v] in members and rows[v][ui] in members)


def test_inverse_ideal_validation():
    with pytest.raises(ValidationError):
        structure.is_inverse_ideal(table("ric", 3, 2), table("syminv", 3))
    with pytest.raises(ValidationError):
        structure.is_inverse_ideal(table("icn", 3), table("syminv", 4))
    with pytest.raises(ValidationError):
        structure.is_inverse_ideal(table("syminv", 3), table("icn", 3))


def test_idempotent_census_counts():
    census = structure.idempotent_census(table("icn", 4))
    assert census.total == 16
    assert census.per_height == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
    assert not census.zero_is_idempotent

    census = structure.idempotent_census(table("qprime", 4))
    assert census.total == 8
    assert census.per_height == {0: 1, 1: 3, 2: 3, 3: 1}

    census = structure.idempotent_census(table("rq", 4, 2))
    assert census.total == 3
    assert census.per_height == {2: 3}
    assert census.zero_is_idempotent
    assert census.family == "RQ'_4(2)"


def test_property_report_as_dict():
    report = structure.is_left_abundant(table("qprime", 3))
    data = report.as_dict()
    assert data["property"] == "left-abundant"
    assert data["family"] == "Q'_3"
    assert data["holds"] is False
    assert "witness" in data and "note" not in data
    clean = structure.is_abundant(table("icn", 3)).as_dict()
    assert "witness" not in clean

"""Abundance, adequacy, ample identities, and inverse-ideal embeddings."""

import copy
import random

import pytest
from conftest import (
    DIFFERENTIAL_SPECS,
    _oracle_leg_plus,
    _oracle_leg_star,
    elements_of,
    idempotent_census,
    oracle_ample,
    oracle_idempotent_indices,
    oracle_inverse_ideal,
    oracle_regular_elements,
    oracle_semilattice,
    oracle_unique_idempotents,
)

from catalanlab import battery, families, greens, pinj, structure
from catalanlab.errors import ValidationError
from catalanlab.families import REES_ZERO, FamilySpec


class FakeTable:
    """Minimal stand-in table for hand-written product rows, generated by
    every element unless a generating set is given, with a store of its
    own for families.memoized."""

    def __init__(self, rows, identity_index=None, generators=None):
        self._memo = {}
        self._rows = [list(r) for r in rows]
        self.size = len(rows)
        self.identity_index = identity_index
        self.generators = range(self.size) if generators is None else tuple(generators)
        self.label = "fake"

    def product_rows(self):
        return self._rows

    def product(self, i, j):
        return self._rows[i][j]

    def generator_lines(self, left):
        if left:
            return [tuple(self._rows[g]) for g in self.generators]
        return self.columns(self.generators)

    def columns(self, indices, at=None):
        at = range(self.size) if at is None else tuple(at)
        return [tuple(self._rows[x][a] for x in at) for a in indices]

    def gathered_lines(self, at):
        # Read off the rows directly: the hand-written products need not
        # associate, so nothing may be gathered along a Cayley graph.
        at = tuple(at)
        for a, row in enumerate(self._rows):
            yield a, tuple(row[x] for x in at), tuple(self._rows[x][a] for x in at)

    def kernel_groups(self, left):
        # No element is proven to share a kernel with another.
        return [(a,) for a in range(self.size)]

    def text_of(self, i):
        return f"e{i}"


class ReversedTable(FakeTable):
    """A stand-in whose walk yields its elements in reverse index order."""

    def gathered_lines(self, at):
        return reversed(list(super().gathered_lines(at)))


LEFT_ZERO = FakeTable([[0, 0], [1, 1]])   # xy = x
RIGHT_ZERO = FakeTable([[0, 1], [0, 1]])  # xy = y


def table(kind, n, p=None):
    return families.enumerate_family(FamilySpec(kind, n, p))


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
        assert regular == oracle_regular_elements(t)
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


def test_semilattice_outcome_is_kept_once_for_both_twins(monkeypatch):
    # IC_3 and K(3,3) share one store: the products of the idempotents are
    # composed once, as their columns at the idempotents, and each twin's
    # report carries its own label.
    composed = []
    composer = families.SemigroupTable._composer

    def counted(table, at=None):
        composed.append(tuple(at))
        return composer(table, at)

    monkeypatch.setattr(families.SemigroupTable, "_composer", counted)
    icn = families._enumerate_table(FamilySpec("icn", 3))
    ideal = icn.renamed(FamilySpec("k", 3, 3))
    reports = [structure.is_semilattice_of_idempotents(t) for t in (icn, ideal, icn, ideal)]
    assert [(r.family, r.holds) for r in reports] == [("IC_3", True), ("K(3,3)", True)] * 2
    assert composed == [tuple(structure.idempotent_indices(icn))]
    # A failing outcome is kept as the pair and its kind, and written
    # under each twin's label with the same witness.
    left_zero = FakeTable([[0, 0], [1, 1]])
    twin = copy.copy(left_zero)
    twin.label = "twin"
    first, second = map(structure.is_semilattice_of_idempotents, (left_zero, twin))
    assert twin._memo is left_zero._memo
    assert left_zero._memo["semilattice"] == (0, 1, True)
    assert (first.family, second.family) == ("fake", "twin")
    assert first.witness == second.witness == "e0 and e1 do not commute"


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
    e in index order, the ea leg before the ae leg, each read off the
    product rows.  Returns (witness, note), or None when every identity
    holds."""
    rows = t.product_rows()
    idem = structure.idempotent_indices(t)
    idem_set = set(idem)
    lstar = greens.starred_L(t)
    rstar = greens.starred_R(t)
    star_of = oracle_unique_idempotents(lstar, idem_set)
    plus_of = oracle_unique_idempotents(rstar, idem_set)
    for a in range(t.size):
        for e in idem:
            legs = [_oracle_leg_plus(t, rows, rstar, plus_of, a, e)]
            if not one_sided:
                legs.insert(0, _oracle_leg_star(t, rows, lstar, star_of, a, e))
            for ok, witness in legs:
                if ok is not True:
                    return witness, "precondition failure" if ok is None else None
    return None


def perturbed_tables(seed, count, stand_in=FakeTable):
    """Product tables of small families with a few entries overwritten at
    random, so that failures land at varied (a, e), then as many wholly
    random small tables, where precondition gaps abound, each as a
    stand_in."""
    rng = random.Random(seed)
    bases = [table("icn", 3), table("icn", 4), table("qprime", 4), table("rq", 4, 2)]
    for _ in range(count):
        rows = [list(r) for r in rng.choice(bases).product_rows()]
        m = len(rows)
        for _ in range(rng.randint(1, 3)):
            rows[rng.randrange(m)][rng.randrange(m)] = rng.randrange(m)
        yield stand_in(rows)
    for _ in range(count):
        m = rng.randint(1, 5)
        yield stand_in([[rng.randrange(m) for _ in range(m)] for _ in range(m)])


def pass_the_base_checks(monkeypatch):
    """Make adequacy and right adequacy hold by fiat, so the ample
    identities are checked on any table, precondition gaps included."""
    def holds(_t):
        return structure.PropertyReport("base", "fake", True)

    monkeypatch.setattr(structure, "is_adequate", holds)
    monkeypatch.setattr(structure, "is_right_adequate", holds)


def assert_ample_witnesses_match_the_pairwise_loop(tables):
    seen = set()
    for t in tables:
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


def test_ample_witnesses_match_the_pairwise_loop(monkeypatch):
    pass_the_base_checks(monkeypatch)
    assert_ample_witnesses_match_the_pairwise_loop(perturbed_tables(seed=7, count=300))


def test_ample_witnesses_do_not_depend_on_the_walk_order(monkeypatch):
    # The least failure over the whole walk is reported, so a walk that
    # meets the elements from the last index down reports the same.
    pass_the_base_checks(monkeypatch)
    tables = perturbed_tables(seed=7, count=300, stand_in=ReversedTable)
    assert_ample_witnesses_match_the_pairwise_loop(tables)


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
        report = structure.is_inverse_ideal(table("icn", n))
        assert report.holds, n


def test_identity_free_side_is_only_a_right_inverse_ideal():
    for n in range(2, 5):
        sub = table("qprime", n)
        assert structure.is_right_inverse_ideal(sub).holds, n
        full = structure.is_inverse_ideal(sub)
        assert not full.holds, n
        assert "no admissible generalized inverse" in full.witness


def test_inverse_ideal_witness_is_genuine():
    # re-derive the obstruction: for u = (2 -> 1) any v with uvu = u must
    # send 1 back to 2, so vu keeps 1 in its domain and leaves the family
    sub = table("qprime", 2)
    sup = table("syminv", 2)
    u = pinj.from_pairs(2, [(2, 1)])
    rows = sup.product_rows()
    ui = sup.index(u)
    members = {sup.index(el) for el in elements_of(sub)}
    for v in range(sup.size):
        if rows[rows[ui][v]][ui] != ui:
            continue
        assert not (rows[ui][v] in members and rows[v][ui] in members)


def test_inverse_ideal_validation():
    # a Rees quotient is no subset of I_n: its zero is no partial map
    for kind in ("ric", "rq"):
        with pytest.raises(ValidationError):
            structure.is_inverse_ideal(table(kind, 3, 2))
        with pytest.raises(ValidationError):
            structure.is_right_inverse_ideal(table(kind, 3, 2))


def test_idempotent_census_counts():
    census = idempotent_census(table("icn", 4))
    assert census.total == 16
    assert census.per_height == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
    assert not census.zero_is_idempotent

    census = idempotent_census(table("qprime", 4))
    assert census.total == 8
    assert census.per_height == {0: 1, 1: 3, 2: 3, 3: 1}

    census = idempotent_census(table("rq", 4, 2))
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


ORACLE_SPECS = DIFFERENTIAL_SPECS + [FamilySpec("icn", 7), FamilySpec("qprime", 7)]


def assert_checks_match_the_row_oracles(t):
    """Every check that reads lines instead of rows gives the report (or
    the indices) of its row-based oracle, field by field."""
    assert structure.idempotent_indices(t) == oracle_idempotent_indices(t)
    assert structure.regular_elements(t) == oracle_regular_elements(t)
    assert structure.is_semilattice_of_idempotents(t) == oracle_semilattice(t)
    assert structure.is_ample(t) == oracle_ample(t)
    assert structure.is_right_ample(t) == oracle_ample(t, one_sided=True)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label())
def test_property_checks_match_the_row_oracles(spec, monkeypatch):
    t = families.enumerate_family(spec)
    assert_checks_match_the_row_oracles(t)
    # with the base checks passed by fiat, the legs run on every table,
    # and fail on the identity-free side
    pass_the_base_checks(monkeypatch)
    assert structure.is_ample(t) == oracle_ample(t)
    assert structure.is_right_ample(t) == oracle_ample(t, one_sided=True)


def test_property_checks_on_stand_in_tables_match_the_row_oracles(monkeypatch):
    tables = [LEFT_ZERO, RIGHT_ZERO, *perturbed_tables(seed=11, count=150)]
    semilattice = set()
    for t in tables:
        assert_checks_match_the_row_oracles(t)
        witness = structure.is_semilattice_of_idempotents(t).witness
        semilattice.add(witness and witness.rsplit(" ", 1)[1])
    pass_the_base_checks(monkeypatch)
    for t in tables:
        assert structure.is_ample(t) == oracle_ample(t)
        assert structure.is_right_ample(t) == oracle_ample(t, one_sided=True)
    # the semilattice held on some tables and failed both ways on others
    assert semilattice == {None, "commute", "idempotent"}


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=lambda s: s.label())
def test_ample_composes_lines_only_at_the_idempotents(spec, monkeypatch):
    # The legs read each element's row and column at the idempotents
    # alone, gathered off A's held lines: no line is composed, not even
    # at the idempotents, once A's rows, L*, R*, the idempotents and the
    # base checks are in the table's store.
    t = families.enumerate_family(spec)
    t.generator_lines(True)
    greens.starred_L(t), greens.starred_R(t), structure.idempotent_indices(t)
    structure.is_adequate(t), structure.is_right_adequate(t)
    want = oracle_ample(t), oracle_ample(t, one_sided=True)

    def no_line(table, at=None):
        raise AssertionError("a line was composed")

    monkeypatch.setattr(families.SemigroupTable, "_composer", no_line)
    assert (structure.is_ample(t), structure.is_right_ample(t)) == want
    # the legs run on every table with the base checks passed by fiat
    pass_the_base_checks(monkeypatch)
    want = oracle_ample(t), oracle_ample(t, one_sided=True)
    assert (structure.is_ample(t), structure.is_right_ample(t)) == want


@pytest.mark.parametrize("n", range(1, 6))
def test_inverse_ideal_checks_match_the_row_oracle(n):
    # IC_n, Q'_n, I_n, K(n,p) at every p and M(n,p) at every p < n, each
    # against the search over every v in I_n
    sup = table("syminv", n)
    specs = [FamilySpec(kind, n) for kind in ("icn", "qprime", "syminv")]
    for kind in ("k", "m"):
        specs += [FamilySpec(kind, n, p) for p in families._valid_heights(kind, n)]
    for spec in specs:
        sub = families.enumerate_family(spec)
        assert structure.is_inverse_ideal(sub) == oracle_inverse_ideal(sub, sup, True), spec
        assert structure.is_right_inverse_ideal(sub) == oracle_inverse_ideal(
            sub, sup, False
        ), spec


def test_idempotents_are_read_once_per_table():
    # the diagonal is composed once; each call returns a list of its own
    calls = []

    class CountingTable(FakeTable):
        def product(self, i, j):
            calls.append((i, j))
            return super().product(i, j)

    t = CountingTable([[0, 0], [1, 1]])
    first = structure.idempotent_indices(t)
    first.append(99)
    assert structure.idempotent_indices(t) == [0, 1]
    assert calls == [(0, 0), (1, 1)]


def test_a_failing_property_shows_its_witness_in_a_battery_row():
    failed = structure.PropertyReport("regular", "IC_2", False, witness="2:2>1")
    assert battery._shown(failed) == "False (witness 2:2>1)"
    assert battery._shown(structure.PropertyReport("regular", "I_2", True)) is True

"""Closed forms, embedded sequence prefixes, and their cross-identities."""

import math
from types import SimpleNamespace

import pytest

from catalanlab import battery, formulas
from catalanlab.errors import ValidationError
from catalanlab.families import FamilySpec

CATALAN = (1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012, 742900)
T = (1, 3, 9, 28, 90, 297, 1001, 3432, 11934, 41990)


def test_catalan_pinned_values():
    for n, want in enumerate(CATALAN, start=1):
        assert formulas.catalan(n) == want


def test_catalan_closed_form_divides_exactly_far_out():
    for n in range(1, 41):
        assert formulas.catalan(n) * n == math.comb(2 * n, n - 1)


@pytest.mark.parametrize("bad", [0, -1, 2.0, "3", None, True])
def test_catalan_rejects_bad_input(bad):
    with pytest.raises(ValidationError):
        formulas.catalan(bad)


def test_t_pinned_values():
    for n, want in enumerate(T, start=1):
        assert formulas.t(n) == want


def test_t_two_closed_forms_agree():
    for n in range(1, 41):
        diff = formulas.catalan(n + 1) - formulas.catalan(n)
        assert formulas.t(n) == diff
        assert formulas.t(n) * (n + 2) == 3 * math.comb(2 * n, n - 1)


@pytest.mark.parametrize("bad", [0, -1, 2.0, "3", None, True])
def test_t_rejects_bad_input(bad):
    with pytest.raises(ValidationError):
        formulas.t(bad)


def test_t_matches_embedded_prefix():
    for n in range(1, 11):
        assert formulas.t(n) == formulas.A000245.value(n)


def test_sequence_prefix_offsets_and_bounds():
    assert formulas.A000245.value(1) == 1
    assert formulas.A001787.value(0) == 0
    with pytest.raises(ValidationError):
        formulas.A000245.value(0)
    with pytest.raises(ValidationError):
        formulas.A000245.value(11)


def test_a001787_is_n_times_two_to_n_minus_one():
    for n in range(10):
        assert formulas.A001787.value(n) == n * 2 ** max(n - 1, 0)


def test_essential_triangle_matches_its_closed_form():
    for r in range(1, 7):
        row = formulas.essential_triangle_row(r)
        assert row == tuple(r * math.comb(r - 1, c - 1) for c in range(1, r + 1))
    with pytest.raises(ValidationError):
        formulas.essential_triangle_row(7)


def test_generator_triangle_is_pascal_plus_padded_essentials():
    assert formulas.generator_triangle_row(1) == (1, 1)
    for r in range(2, 7):
        padded = (0, *formulas.essential_triangle_row(r - 1), 0)
        pascal = tuple(math.comb(r, k) for k in range(r + 1))
        want = tuple(a + b for a, b in zip(pascal, padded))
        assert formulas.generator_triangle_row(r) == want
    with pytest.raises(ValidationError):
        formulas.generator_triangle_row(0)


def test_generator_triangle_entry_closed_form():
    for r in range(1, 7):
        row = formulas.generator_triangle_row(r)
        for p, entry in enumerate(row):
            want = math.comb(r, p) + (r - 1) * formulas._comb(r - 2, p - 1)
            assert entry == want


def test_rank_formula_values_and_gaps():
    assert formulas.rank_formula(FamilySpec("icn", 5)) == 10
    assert formulas.rank_formula(FamilySpec("qprime", 3)) == 4
    assert formulas.rank_formula(FamilySpec("qprime", 1)) is None
    assert formulas.rank_formula(FamilySpec("k", 4, 2)) == 12
    assert formulas.rank_formula(FamilySpec("ric", 4, 2)) == 12
    # stated only below the top height on the full side
    assert formulas.rank_formula(FamilySpec("k", 4, 4)) is None
    assert formulas.rank_formula(FamilySpec("m", 4, 2)) == 8
    assert formulas.rank_formula(FamilySpec("m", 4, 3)) is None
    assert formulas.rank_formula(FamilySpec("rq", 4, 3)) == 4
    assert formulas.rank_formula(FamilySpec("syminv", 3)) is None


def test_rank_formula_rees_matches_generator_triangle():
    for n in range(2, 7):
        row = formulas.generator_triangle_row(n)
        for p in range(1, n):
            assert formulas.rank_formula(FamilySpec("ric", n, p)) == row[p]


def test_count_formula_idempotents():
    assert formulas.count_formula("idempotents", FamilySpec("icn", 4)) == 16
    assert formulas.count_formula("idempotents", FamilySpec("icn", 4), p=2) == 6
    assert formulas.count_formula("idempotents", FamilySpec("qprime", 4)) == 8
    assert formulas.count_formula("idempotents", FamilySpec("qprime", 4), p=2) == 3
    assert formulas.count_formula("idempotents", FamilySpec("ric", 4, 2)) == 6
    assert formulas.count_formula("idempotents", FamilySpec("rq", 4, 2)) == 3
    assert formulas.count_formula("idempotents", FamilySpec("syminv", 4)) is None


def test_count_formula_essentials():
    assert formulas.count_formula("essentials", FamilySpec("icn", 4)) == 12
    assert formulas.count_formula("essentials", FamilySpec("icn", 4), p=2) == 6
    assert formulas.count_formula("essentials", FamilySpec("qprime", 4)) is None
    assert formulas.count_formula("essentials", FamilySpec("qprime", 4), p=2) == 2
    assert formulas.count_formula("essentials", FamilySpec("ric", 4, 2)) == 6
    assert formulas.count_formula("essentials", FamilySpec("rq", 5, 2)) == 6


def test_count_formula_requisites():
    assert formulas.count_formula("requisites", FamilySpec("qprime", 4), p=2) == 3
    assert formulas.count_formula("requisites", FamilySpec("rq", 4, 2)) == 3
    assert formulas.count_formula("requisites", FamilySpec("qprime", 4)) is None
    assert formulas.count_formula("requisites", FamilySpec("icn", 4)) is None


def test_count_formula_generators_and_maximal():
    assert formulas.count_formula("generators", FamilySpec("ric", 4, 2)) == 12
    assert formulas.count_formula("generators", FamilySpec("rq", 4, 2)) == 8
    assert formulas.count_formula("generators", FamilySpec("icn", 4)) is None
    assert formulas.count_formula("maximal", FamilySpec("icn", 4)) == 8
    assert formulas.count_formula("maximal", FamilySpec("qprime", 4)) == 8
    assert formulas.count_formula("maximal", FamilySpec("qprime", 1)) is None
    assert formulas.count_formula("maximal", FamilySpec("k", 4, 2)) is None


def test_count_formula_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        formulas.count_formula("mystery", FamilySpec("icn", 3))


@pytest.mark.parametrize("bad", [True, 2.0, "2"], ids=repr)
def test_public_entry_points_refuse_a_non_integer(bad):
    # A bool counts as no integer, as in catalan and t.
    calls = [
        lambda: formulas.count_formula("idempotents", FamilySpec("icn", 4), p=bad),
        lambda: formulas.count_formula("generators", FamilySpec("rq", 4, 2), p=bad),
        lambda: formulas.syminv_order(bad),
        lambda: formulas.essential_triangle_row(bad),
        lambda: formulas.generator_triangle_row(bad),
        lambda: formulas.A000245.value(bad),
        lambda: battery.verification_report(bad),
        lambda: battery.verification_report(2, bad),
    ]
    for call in calls:
        with pytest.raises(ValidationError):
            call()


@pytest.mark.parametrize("bad", [-1, -5], ids=repr)
def test_a_negative_height_or_chain_size_is_refused(bad):
    # A height and a chain size are never negative, as catalan and t
    # refuse n < 1; height 0 and the empty chain stay valid.
    calls = [
        lambda: formulas.count_formula("idempotents", FamilySpec("icn", 4), p=bad),
        lambda: formulas.count_formula("essentials", FamilySpec("qprime", 4), p=bad),
        lambda: formulas.count_formula("generators", FamilySpec("rq", 4, 2), p=bad),
        lambda: formulas.syminv_order(bad),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=">= 0"):
            call()
    assert formulas.count_formula("idempotents", FamilySpec("icn", 4), p=0) == 1
    assert formulas.syminv_order(0) == 1


def test_a_count_off_its_embedded_prefix_fails_the_row():
    # t_3 = 9 is A000245's n = 3 term; a count equal to the expected value
    # but not to the prefix still fails.
    status = battery._and_prefix(formulas.A000245, 0)
    x = SimpleNamespace(n=3)
    assert status(x, 9, 9) == "pass"
    assert status(x, 10, 10) == "fail"


def test_comb_is_zero_outside_range():
    assert formulas._comb(-1, 0) == 0
    assert formulas._comb(3, -1) == 0
    assert formulas._comb(2, 3) == 0
    assert formulas._comb(4, 2) == 6

"""Generation, rank, factorizations, and maximal subsemigroups."""

import random
from functools import reduce

import pytest
from conftest import (
    DIFFERENTIAL_SPECS,
    oracle_closure,
    oracle_indecomposables,
)

from catalanlab import families, genrank, greens, pinj
from catalanlab.errors import (
    ContractError,
    UnsupportedTableError,
    ValidationError,
)
from catalanlab.families import FamilySpec

FAMILY_TABLES = [
    FamilySpec("icn", 2),
    FamilySpec("icn", 3),
    FamilySpec("icn", 4),
    FamilySpec("qprime", 3),
    FamilySpec("qprime", 4),
    FamilySpec("k", 4, 2),
    FamilySpec("m", 4, 2),
    FamilySpec("ric", 4, 2),
    FamilySpec("rq", 4, 2),
]


def table(kind, n, p=None):
    return families.enumerate_family(FamilySpec(kind, n, p))


def brute_force_maximal(t):
    """Maximal proper subsemigroups, found by testing every proper subset
    of the table for closure; subsets are bitmasks over the indices."""
    rows = t.product_rows()
    full = (1 << t.size) - 1
    closed = []
    for mask in range(full):
        members = [i for i in range(t.size) if mask >> i & 1]
        if all(mask >> rows[a][b] & 1 for a in members for b in members):
            closed.append(mask)
    # Largest first: a closed subset is maximal unless some closed proper
    # subset strictly contains it, and every such subset sits inside a
    # maximal one already found.
    closed.sort(key=lambda mask: -bin(mask).count("1"))
    maximal = []
    for mask in closed:
        if not any(mask & big == mask for big in maximal):
            maximal.append(mask)
    return maximal


def texts(t, indices):
    return {t.text_of(i) for i in indices}


def compose_all(factors, n):
    return reduce(pinj.compose, factors, pinj.identity(n))


# ------------------------------------------------------------------- closure


def test_closure_basics():
    t = table("icn", 3)
    assert genrank.closure(t, []) == frozenset()
    ident = t.identity_index
    assert genrank.closure(t, [ident]) == {ident}
    assert genrank.closure(t, range(t.size)) == frozenset(range(t.size))
    with pytest.raises(ValidationError):
        genrank.closure(t, [t.size])


def test_closure_is_product_closed_and_minimal():
    t = table("qprime", 4)
    rows = t.product_rows()
    gens = [1, 5, 9]
    got = genrank.closure(t, gens)
    for a in got:
        for b in got:
            assert rows[a][b] in got
    # nothing outside is reachable: rebuild by brute fixpoint
    acc = set(gens)
    changed = True
    while changed:
        changed = False
        for a in list(acc):
            for b in list(acc):
                if rows[a][b] not in acc:
                    acc.add(rows[a][b])
                    changed = True
    assert got == frozenset(acc)


# ----------------------------------------------------------- indecomposables


def test_indecomposables_match_triple_loop_oracle():
    for spec in FAMILY_TABLES:
        t = families.enumerate_family(spec)
        assert genrank.indecomposables(t) == oracle_indecomposables(t), spec


def test_indecomposables_pinned_small_cases():
    t = table("icn", 2)
    assert texts(t, genrank.indecomposables(t)) == {
        "2:1>1,2>2",
        "2:1>1",
        "2:2>2",
        "2:2>1",
    }
    q3 = table("qprime", 3)
    assert texts(q3, genrank.indecomposables(q3)) == {
        "3:2>2",
        "3:2>1,3>3",
        "3:2>1,3>2",
        "3:2>2,3>3",
    }


def test_identity_free_chain_four_has_exactly_seven_indecomposables():
    # the published count for this instance is 8; the seven below generate,
    # and each claimed eighth generator factors through them, e.g.
    # (2>1,3>3) = (2>2,3>3) . (2>1,3>3,4>4) restricted to the 4-chain
    q4 = table("qprime", 4)
    got = texts(q4, genrank.indecomposables(q4))
    assert got == {
        "4:2>2,3>3",
        "4:2>2,4>4",
        "4:2>2,4>3",
        "4:2>1,3>2,4>3",
        "4:2>1,3>2,4>4",
        "4:2>1,3>3,4>4",
        "4:2>2,3>3,4>4",
    }
    # the two claimed extras really do decompose
    a = pinj.parse_text("4:2>2,3>3")
    b = pinj.parse_text("4:2>1,3>3,4>4")
    assert pinj.compose(a, b) == pinj.parse_text("4:2>1,3>3")
    eps = pinj.parse_text("4:2>2,3>3,4>4")
    assert pinj.compose(b, eps) == pinj.parse_text("4:3>3,4>4")


def test_indecomposables_lie_in_every_generating_set():
    # remove one indecomposable from the full index set: the closure of
    # the rest can never produce it
    t = table("qprime", 4)
    for g in genrank.indecomposables(t):
        rest = [i for i in range(t.size) if i != g]
        assert g not in genrank.closure(t, rest)


# -------------------------------------------------------------- element kind


def test_element_kind_is_family_aware():
    overlap = pinj.from_pairs(3, [(2, 1), (3, 3)])
    assert genrank.element_kind(overlap, qprime_side=False) == "essential"
    assert genrank.element_kind(overlap, qprime_side=True) == "requisite"
    pure = pinj.from_pairs(3, [(3, 2)])
    assert genrank.element_kind(pure, qprime_side=True) == "essential"
    assert genrank.element_kind(families.REES_ZERO, qprime_side=False) == "other"


def test_kind_census_small_case():
    census = genrank.kind_census(table("icn", 3))
    assert census["idempotent"] == {0: 1, 1: 3, 2: 3, 3: 1}
    assert census["essential"] == {1: 2, 2: 2}
    assert census["quasi-idempotent-shift-1"] == {1: 1}
    assert census["requisite"] == {2: 1}
    total = sum(c for by_h in census.values() for c in by_h.values())
    assert total == 14


def test_kind_census_respects_the_identity_free_overlap_rule():
    census = genrank.kind_census(table("qprime", 4))
    assert census["requisite"] == {1: 1, 2: 3, 3: 3}
    assert census["essential"] == {1: 2, 2: 2}
    assert census["idempotent"] == {0: 1, 1: 3, 2: 3, 3: 1}


# ----------------------------------------------------------------- rank


def test_minimal_generating_set_pinned_ranks():
    assert genrank.minimal_generating_set(table("icn", 3)).rank == 6
    assert genrank.minimal_generating_set(table("qprime", 3)).rank == 4
    assert genrank.minimal_generating_set(table("k", 4, 2)).rank == 12
    assert genrank.minimal_generating_set(table("ric", 4, 2)).rank == 12
    assert genrank.minimal_generating_set(table("m", 4, 2)).rank == 8
    assert genrank.minimal_generating_set(table("rq", 4, 2)).rank == 8


def test_minimal_generating_set_report_shape():
    report = genrank.minimal_generating_set(table("icn", 2))
    assert report.family == "IC_2"
    assert report.rank == 4
    assert report.jtrivial
    assert report.generators == {
        "idempotents": ["2:1>1", "2:2>2"],
        "essentials": ["2:2>1"],
        "identity": "2:1>1,2>2",
    }
    data = report.as_dict()
    assert data["formula"] == 4 and data["agrees"] is True
    assert "greedy" not in data


def test_identity_free_chain_four_rank_disagrees_with_the_formula():
    report = genrank.minimal_generating_set(table("qprime", 4))
    assert report.rank == 7
    assert report.formula == 8
    assert report.agrees is False


def test_tables_that_are_not_jtrivial_are_refused():
    for n in (2, 4):
        t = table("syminv", n)
        for compute in (
            genrank.minimal_generating_set,
            genrank.indecomposables,
            genrank.maximal_subsemigroups,
            genrank.no_smaller_generating_set,
        ):
            with pytest.raises(UnsupportedTableError, match="needs? a J-trivial table"):
                compute(t)


def test_each_call_checks_j_triviality_once(monkeypatch):
    asked = []
    green = greens.green

    def counted(table, which):
        asked.append(which)
        return green(table, which)

    monkeypatch.setattr(greens, "green", counted)
    t = table("qprime", 4)
    for compute in (
        genrank.minimal_generating_set,
        genrank.maximal_subsemigroups,
        genrank.indecomposables,
    ):
        asked.clear()
        compute(t)
        assert asked == ["J"], compute.__name__
    # each refusal keeps its own message
    i3 = table("syminv", 3)
    for compute, message in (
        (genrank.minimal_generating_set, "rank computation needs"),
        (genrank.maximal_subsemigroups, "maximal subsemigroup search needs"),
        (genrank.indecomposables, "indecomposables need"),
    ):
        with pytest.raises(UnsupportedTableError, match=message):
            compute(i3)


def test_no_smaller_generating_set_certificates():
    assert genrank.no_smaller_generating_set(table("icn", 3))
    assert genrank.no_smaller_generating_set(table("qprime", 4))
    # no size cap: IC_5 has 132 elements
    assert genrank.no_smaller_generating_set(table("icn", 5))
    with pytest.raises(UnsupportedTableError):
        genrank.no_smaller_generating_set(table("syminv", 2))


def test_is_jtrivial():
    assert genrank.is_jtrivial(table("icn", 3))
    assert genrank.is_jtrivial(table("rq", 4, 2))
    assert not genrank.is_jtrivial(table("syminv", 2))


# -------------------------------------------------------------- chain factors


def test_chain_factorization_of_the_identity():
    for n in (2, 3, 4):
        chain = genrank.factor_idempotent_quasi_chain(pinj.identity(n))
        assert len(chain) == n
        assert all(step == pinj.identity(n) for step in chain)


def test_chain_factorization_round_trips_and_keeps_height():
    for n in (3, 4, 5):
        t = table("icn", n)
        for i in range(t.size):
            alpha = t.element(i)
            chain = genrank.factor_idempotent_quasi_chain(alpha)
            p = pinj.height(alpha)
            assert len(chain) == p
            if p == 0:
                continue
            assert compose_all(chain, n) == alpha
            for step in chain:
                assert pinj.height(step) == p
                assert pinj.is_idempotent(step) or (
                    pinj.shift(step) == 1 and pinj.is_quasi_idempotent(step)
                )


def test_expand_quasi_walks_one_step_at_a_time():
    got = genrank.expand_quasi_to_essentials(pinj.from_pairs(3, [(3, 1)]))
    assert got == [pinj.from_pairs(3, [(3, 2)]), pinj.from_pairs(3, [(2, 1)])]
    single = genrank.expand_quasi_to_essentials(pinj.from_pairs(3, [(3, 2)]))
    assert single == [pinj.from_pairs(3, [(3, 2)])]


def test_expand_quasi_rejects_other_shapes():
    with pytest.raises(ContractError):
        genrank.expand_quasi_to_essentials(pinj.from_pairs(3, [(2, 1), (3, 2)]))
    with pytest.raises(ContractError):
        genrank.expand_quasi_to_essentials(pinj.parse_text("3:1>2"))


def test_essential_factorization_full_side_exhaustive():
    for n in (2, 3, 4, 5):
        t = table("icn", n)
        for i in range(t.size):
            alpha = t.element(i)
            factors = genrank.essential_factorization(alpha)
            if pinj.height(alpha) == 0:
                assert factors == []
                continue
            assert compose_all(factors, n) == alpha
            for f in factors:
                assert genrank.element_kind(f, False) in ("idempotent", "essential")
                assert pinj.height(f) == pinj.height(alpha)


def test_essential_factorization_identity_free_side_exhaustive():
    for n in (3, 4, 5):
        spec = FamilySpec("qprime", n)
        t = families.enumerate_family(spec)
        for i in range(t.size):
            alpha = t.element(i)
            factors = genrank.essential_factorization(alpha, qprime_side=True)
            if pinj.height(alpha) == 0:
                assert factors == []
                continue
            assert compose_all(factors, n) == alpha
            kinds = [genrank.element_kind(f, True) for f in factors]
            assert all(
                k in ("idempotent", "essential", "requisite") for k in kinds
            )
            # at most one requisite factor, and only in the last position
            assert kinds[:-1].count("requisite") == 0
            for f in factors:
                assert families.is_member(f, spec)
                assert pinj.height(f) == pinj.height(alpha)


def test_essential_factorization_rejects_outsiders_on_the_identity_free_side():
    with pytest.raises(ContractError):
        genrank.essential_factorization(pinj.identity(3), qprime_side=True)


def test_factor_requisite_examples():
    beta, req = genrank.factor_requisite(pinj.from_pairs(3, [(2, 1), (3, 2)]))
    assert beta == pinj.partial_identity(3, (2, 3))
    assert req == pinj.from_pairs(3, [(2, 1), (3, 2)])
    beta, req = genrank.factor_requisite(pinj.from_pairs(4, [(2, 1), (4, 4)]))
    assert req == pinj.from_pairs(4, [(2, 1), (4, 4)])
    assert beta == pinj.partial_identity(4, (2, 4))
    beta, req = genrank.factor_requisite(pinj.from_pairs(5, [(3, 1), (5, 4)]))
    assert pinj.compose(beta, req) == pinj.from_pairs(5, [(3, 1), (5, 4)])
    assert pinj.is_requisite(req)


def test_factor_requisite_properties_exhaustive():
    for n in (3, 4, 5):
        spec = FamilySpec("qprime", n)
        t = families.enumerate_family(spec)
        for i in range(t.size):
            alpha = t.element(i)
            if 1 not in pinj.image(alpha):
                continue
            beta, req = genrank.factor_requisite(alpha)
            assert pinj.compose(beta, req) == alpha
            assert pinj.is_requisite(req)
            assert pinj.image(req) == pinj.image(alpha)
            assert pinj.domain(beta) == pinj.domain(alpha)
            assert 1 not in pinj.image(beta)
            assert families.is_member(beta, spec)


def test_factor_requisite_preconditions():
    with pytest.raises(ContractError):
        genrank.factor_requisite(pinj.from_pairs(3, [(1, 1), (2, 2)]))
    with pytest.raises(ContractError):
        genrank.factor_requisite(pinj.from_pairs(3, [(2, 2)]))


# -------------------------------------------------------------- height lifts


def test_lift_height_pinned_examples():
    left, right = genrank.lift_height(pinj.partial_identity(3, (1,)), "icn")
    assert left == pinj.partial_identity(3, (1, 2))
    assert right == pinj.partial_identity(3, (1, 3))

    left, right = genrank.lift_height(pinj.from_pairs(4, [(2, 1)]), "icn")
    assert left == pinj.from_pairs(4, [(2, 1), (3, 3)])
    assert right == pinj.partial_identity(4, (1, 2))

    left, right = genrank.lift_height(pinj.from_pairs(5, [(2, 1)]), "qprime")
    assert left == pinj.partial_identity(5, (2, 3))
    assert right == pinj.from_pairs(5, [(2, 1), (4, 4)])


def test_lift_height_exhaustive_over_eligible_elements():
    for n in (3, 4, 5):
        t = table("icn", n)
        for i in range(t.size):
            alpha = t.element(i)
            kind = genrank.element_kind(alpha, False)
            if kind not in ("idempotent", "essential"):
                continue
            if pinj.height(alpha) > n - 2:
                continue
            left, right = genrank.lift_height(alpha, "icn")
            assert pinj.compose(left, right) == alpha
            assert pinj.height(left) == pinj.height(alpha) + 1
            assert pinj.height(right) == pinj.height(alpha) + 1
            assert families.is_member(left, FamilySpec("icn", n))
            assert families.is_member(right, FamilySpec("icn", n))
    for n in (4, 5):
        spec = FamilySpec("qprime", n)
        t = families.enumerate_family(spec)
        for i in range(t.size):
            alpha = t.element(i)
            kind = genrank.element_kind(alpha, True)
            if kind not in ("idempotent", "essential", "requisite"):
                continue
            if pinj.height(alpha) > n - 3:
                continue
            left, right = genrank.lift_height(alpha, "qprime")
            assert pinj.compose(left, right) == alpha
            assert pinj.height(left) == pinj.height(alpha) + 1
            assert pinj.height(right) == pinj.height(alpha) + 1
            assert families.is_member(left, spec)
            assert families.is_member(right, spec)


def test_lift_height_preconditions():
    with pytest.raises(ContractError):
        genrank.lift_height(pinj.identity(3), "syminv")
    with pytest.raises(ContractError):
        genrank.lift_height(pinj.partial_identity(4, (1, 2, 3)), "icn")
    with pytest.raises(ContractError):
        genrank.lift_height(pinj.from_pairs(4, [(3, 1)]), "icn")
    with pytest.raises(ContractError):
        genrank.lift_height(pinj.partial_identity(4, (1,)), "qprime")
    with pytest.raises(ContractError):
        genrank.lift_height(pinj.partial_identity(4, (2, 3)), "qprime")


# ------------------------------------------------------ maximal subsemigroups


def test_maximal_subsemigroups_counts_and_verification():
    for n in range(2, 5):
        t = table("icn", n)
        results = genrank.maximal_subsemigroups(t)
        assert len(results) == 2 * n
        assert results == sorted(genrank.indecomposables(t))
    assert len(genrank.maximal_subsemigroups(table("qprime", 3))) == 4
    results = genrank.maximal_subsemigroups(table("qprime", 4))
    assert len(results) == 7


def test_maximal_subsemigroups_match_brute_force_subset_search():
    # independent of indecomposables: every subset is tested for closure
    for kind, n in (("icn", 2), ("icn", 3), ("qprime", 3)):
        t = table(kind, n)
        full = (1 << t.size) - 1
        want = sorted(brute_force_maximal(t))
        got = sorted(full ^ (1 << g) for g in genrank.maximal_subsemigroups(t))
        assert got == want, (kind, n)


def test_maximal_subsemigroups_really_are_closed_and_maximal():
    t = table("qprime", 3)
    rows = t.product_rows()
    everything = frozenset(range(t.size))
    for g in genrank.maximal_subsemigroups(t):
        rest = [i for i in range(t.size) if i != g]
        for a in rest:
            for b in rest:
                assert rows[a][b] != g
        # adding anything back on top of the complement regains the table
        assert genrank.closure(t, rest + [g]) == everything


def test_maximal_subsemigroups_needs_jtriviality():
    with pytest.raises(UnsupportedTableError):
        genrank.maximal_subsemigroups(table("syminv", 2))


# ------------------------------------------- differential against the oracles

JTRIVIAL_SPECS = [spec for spec in DIFFERENTIAL_SPECS if spec.kind != "syminv"]


@pytest.mark.parametrize("spec", JTRIVIAL_SPECS, ids=lambda s: s.label())
def test_rank_and_maximal_match_the_oracles(spec):
    t = families.enumerate_family(spec)
    want = oracle_indecomposables(t)
    assert genrank.indecomposables(t) == want
    assert genrank.maximal_subsemigroups(t) == sorted(want)
    assert genrank.minimal_generating_set(t).rank == len(want)
    assert oracle_closure(t, want) == frozenset(range(t.size))


@pytest.mark.parametrize("spec", JTRIVIAL_SPECS, ids=lambda s: s.label())
def test_closure_matches_the_oracle(spec):
    t = families.enumerate_family(spec)
    rng = random.Random(spec.n * 100 + (spec.p or 0))
    layers = {}
    for i in range(t.size):
        layers.setdefault(t.height_of(i), []).append(i)
    subsets = list(layers.values())
    subsets += [rng.sample(range(t.size), min(k, t.size)) for k in (1, 2, 3, 5)]
    for gens in subsets:
        assert genrank.closure(t, gens) == oracle_closure(t, gens), gens


def test_rank_maximal_generators_and_green_build_no_full_table(row_builds):
    for spec in (FamilySpec("qprime", 6), FamilySpec("icn", 5), FamilySpec("rq", 5, 2)):
        t = families.enumerate_family(spec)
        assert t.generators
        for which in greens.GREEN_NAMES:
            greens.green(t, which)
        genrank.minimal_generating_set(t)
        genrank.maximal_subsemigroups(t)
        genrank.no_smaller_generating_set(t)
        genrank.closure(t, range(t.size))
    assert row_builds == []

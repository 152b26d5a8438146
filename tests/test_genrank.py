"""Generation, rank, factorizations, and maximal subsemigroups."""

import random
from functools import reduce

import pytest
from conftest import (
    DIFFERENTIAL_SPECS,
    assert_revalidates,
    elements_of,
    idempotent_census,
    is_quasi_idempotent,
    no_smaller_generating_set,
    oracle_chain,
    oracle_closure,
    oracle_element_kind,
    oracle_essential_factorization,
    oracle_expand,
    oracle_indecomposables,
    points,
    stepwise_chain,
    stepwise_essential_factorization,
    stepwise_expand,
)

from catalanlab import battery, families, genrank, greens, pinj, structure
from catalanlab.errors import (
    ContractError,
    RangeError,
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
    # a generator given twice is walked once
    g = t.index(pinj.parse_text("3:2>1,3>2"))
    assert texts(t, genrank.closure(t, [g, g])) == {"3:2>1,3>2", "3:3>1", "3:"}
    ident = t.identity_index
    assert genrank.closure(t, [ident]) == {ident}
    assert genrank.closure(t, range(t.size)) == frozenset(range(t.size))
    with pytest.raises(ValidationError):
        genrank.closure(t, [t.size])
    # an index is an int, as a chain size is: no bool, no float
    for bad in ([True], [1, True], [1.0]):
        with pytest.raises(ValidationError, match="must be an integer"):
            genrank.closure(t, bad)


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


def test_element_kind_matches_the_classify_oracle():
    specs = [FamilySpec(kind, n) for kind in ("icn", "qprime") for n in range(1, 8)]
    specs.append(FamilySpec("syminv", 4))
    for spec in specs:
        for alpha in elements_of(families.enumerate_family(spec)):
            for qprime_side in (False, True):
                want = oracle_element_kind(alpha, qprime_side)
                assert genrank.element_kind(alpha, qprime_side) == want, alpha


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


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=lambda s: s.label())
def test_kind_census_idempotents_are_the_diagonal_idempotents(spec):
    # The battery's idem-* rows read the census's idempotent kind; here it
    # is held to the elements with i.i = i, per height, composed directly.
    t = families.enumerate_family(spec)
    census = idempotent_census(t)
    assert genrank.kind_census(t).get("idempotent", {}) == census.per_height
    assert census.zero_is_idempotent == t.family.is_rees
    assert census.total == len(structure.idempotent_indices(t)) - census.zero_is_idempotent


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
        ):
            with pytest.raises(UnsupportedTableError, match="needs? a J-trivial table"):
                compute(t)


def test_each_call_checks_j_triviality_once(monkeypatch):
    # at most once: a table outside I_n is J-trivial by the order its
    # generating set is chosen in, and only an I_n is asked for J
    asked = []
    green = greens.green

    def counted(table, which):
        asked.append(which)
        return green(table, which)

    monkeypatch.setattr(greens, "green", counted)
    computes = (
        genrank.minimal_generating_set,
        genrank.maximal_subsemigroups,
        genrank.indecomposables,
    )
    q4 = table("qprime", 4)
    for compute in computes:
        compute(q4)
    assert asked == []
    # the one J-trivial I_n, I_1, is read off its generating set too
    i1 = table("syminv", 1)
    for compute in computes:
        asked.clear()
        compute(i1)
        assert asked == ["J"], compute.__name__
    assert genrank.minimal_generating_set(i1).rank == 2
    # each refusal keeps its own message
    i3 = table("syminv", 3)
    for compute, message in zip(computes, (
        "rank computation needs",
        "maximal subsemigroup search needs",
        "indecomposables need",
    )):
        asked.clear()
        with pytest.raises(UnsupportedTableError, match=message):
            compute(i3)
        assert asked == ["J"], compute.__name__


def test_no_smaller_generating_set_certificates():
    assert no_smaller_generating_set(table("icn", 3))
    assert no_smaller_generating_set(table("qprime", 4))
    # no size cap: IC_5 has 132 elements
    assert no_smaller_generating_set(table("icn", 5))
    with pytest.raises(UnsupportedTableError):
        no_smaller_generating_set(table("syminv", 2))


def test_is_jtrivial():
    assert structure.is_jtrivial(table("icn", 3)).holds
    assert structure.is_jtrivial(table("rq", 4, 2)).holds
    # The witness is the first J-class of several: on I_2, height 1.
    assert structure.is_jtrivial(table("syminv", 2)) == structure.PropertyReport(
        "jtrivial", "I_2", False, "2:1>1, 2:1>2, 2:2>1, 2:2>2"
    )


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
                    pinj.shift(step) == 1 and is_quasi_idempotent(step)
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


def images(factors):
    return [points(f) for f in factors]


@pytest.mark.parametrize("kind", ["icn", "qprime"])
def test_factorizations_match_the_oracle_route(kind):
    # Every element of IC_n and Q'_n, n <= 7, each on its own side: the
    # same factors, in the same order, as the route through chain steps,
    # an idempotent test and quasi expansion.
    qprime_side = kind == "qprime"
    for n in range(1, 8):
        for alpha in elements_of(families.enumerate_family(FamilySpec(kind, n))):
            got = genrank.essential_factorization(alpha, qprime_side=qprime_side)
            assert images(got) == images(oracle_essential_factorization(alpha, qprime_side))
            chain = genrank.factor_idempotent_quasi_chain(alpha)
            assert images(chain) == images(oracle_chain(alpha))
            for step in chain:
                if not pinj.is_idempotent(step):
                    got = genrank.expand_quasi_to_essentials(step)
                    assert images(got) == images(oracle_expand(step))


@pytest.mark.parametrize("kind", ["icn", "qprime"])
def test_the_factor_walk_matches_the_stepwise_route(kind):
    # Every element of IC_n and Q'_n, n <= 7, each on its own side: the
    # straight-line walk gives the factors of the route through a step
    # generator and a helper per factor, in the same order.
    qprime_side = kind == "qprime"
    for n in range(1, 8):
        for alpha in elements_of(families.enumerate_family(FamilySpec(kind, n))):
            got = genrank.essential_factorization(alpha, qprime_side=qprime_side)
            assert images(got) == images(stepwise_essential_factorization(alpha, qprime_side))
            chain = genrank.factor_idempotent_quasi_chain(alpha)
            assert images(chain) == images(stepwise_chain(alpha))
            for step in chain:
                if pinj.shift(step) == 1:
                    got = genrank.expand_quasi_to_essentials(step)
                    assert images(got) == images(stepwise_expand(step))


def test_factoring_ic_n_builds_each_step_once(monkeypatch):
    # From an empty step table, IC_1, ..., IC_7 in turn in one process:
    # each chain size adds every nonempty partial identity and every
    # essential of its chain, once each, so no key repeats a step and no
    # two steps, on one chain or on two, share a key.
    monkeypatch.setattr(genrank, "_STEPS", {})
    total = 0
    for n in range(1, 8):
        for alpha in elements_of(families.enumerate_family(FamilySpec("icn", n))):
            genrank.essential_factorization(alpha)
        total += 2 ** n - 1 + (n - 1) * 2 ** n // 4
        assert len(genrank._STEPS) == total


def test_factorizations_keep_their_factors_when_no_step_is_kept(monkeypatch):
    # Past the keep bound a step is built and not kept: with a bound of 0
    # every factor is built afresh, and every factorization of IC_n and
    # Q'_n, n <= 6, gives the same images in the same order as with the
    # table.
    def factorizations():
        out = []
        for kind in ("icn", "qprime"):
            for n in range(1, 7):
                for alpha in elements_of(families.enumerate_family(FamilySpec(kind, n))):
                    chain = genrank.factor_idempotent_quasi_chain(alpha)
                    out += [genrank.essential_factorization(alpha, kind == "qprime"), chain]
                    out += [genrank.expand_quasi_to_essentials(step) for step in chain
                            if pinj.shift(step) == 1]
        return [[f.img for f in factors] for factors in out]

    monkeypatch.setattr(genrank, "_STEPS", {})
    kept = factorizations()
    monkeypatch.setattr(genrank, "_STEPS", {})
    monkeypatch.setattr(genrank, "_STEPS_KEPT", 0)
    assert factorizations() == kept
    assert genrank._STEPS == {}


def test_factorizations_share_their_steps(monkeypatch):
    # 3:2>1,3>3 ends with the partial identity on {1, 3}, with which
    # 3:1>1,3>3 starts: one object, still immutable.
    monkeypatch.setattr(genrank, "_STEPS", {})
    first = genrank.essential_factorization(pinj.parse_text("3:2>1,3>3"))
    second = genrank.essential_factorization(pinj.parse_text("3:1>1,3>3"))
    assert first[1] is second[0] is second[1]
    assert points(first[1]) == [1, None, 3]
    with pytest.raises(AttributeError):
        first[1].img = b"\1\2\3"
    assert points(second[0]) == [1, None, 3]


@pytest.mark.parametrize("kind", ["icn", "qprime"])
def test_every_factor_revalidates(kind):
    # The factor builders skip validation; every factor they return on
    # IC_n and Q'_n, n <= 7, lift factors included, must equal its
    # validated rebuild.
    qprime_side = kind == "qprime"
    for n in range(1, 8):
        bound = genrank.lift_bound(n, qprime_side)
        for alpha in elements_of(families.enumerate_family(FamilySpec(kind, n))):
            factors = genrank.essential_factorization(alpha, qprime_side=qprime_side)
            chain = genrank.factor_idempotent_quasi_chain(alpha)
            factors += chain
            for step in chain:
                if not pinj.is_idempotent(step):
                    factors += genrank.expand_quasi_to_essentials(step)
            if qprime_side and 1 in points(alpha):
                factors += genrank.factor_requisite(alpha)
            if (genrank.element_kind(alpha, qprime_side) in genrank.generator_kinds(qprime_side)
                    and pinj.height(alpha) <= bound):
                factors += genrank.lift_height(alpha, kind)
            for f in factors:
                assert_revalidates(f)


def test_factorizations_refuse_chains_past_255_points():
    # Their factors fix or move to points anywhere on the chain, which a
    # byte cannot hold past 255.
    alpha = pinj.parse_text("300:2>1")
    calls = [
        lambda: genrank.essential_factorization(alpha),
        lambda: genrank.essential_factorization(alpha, qprime_side=True),
        lambda: genrank.factor_idempotent_quasi_chain(alpha),
        lambda: genrank.expand_quasi_to_essentials(alpha),
        lambda: genrank.factor_requisite(alpha),
        lambda: genrank.lift_height(alpha, "icn"),
    ]
    for call in calls:
        with pytest.raises(RangeError, match="at most 255 points, got 300"):
            call()


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
    # factor_requisite does not recompose its split: this test and the
    # factor-requisite battery claim do, on every element of IC_n, which
    # holds every element of Q'_n.
    for n in range(1, 8):
        spec = FamilySpec("qprime", n)
        instance = battery.Instance(spec)
        for alpha in elements_of(families.enumerate_family(FamilySpec("icn", n))):
            if points(alpha)[0] is not None or 1 not in pinj.image(alpha):
                with pytest.raises(ContractError):
                    genrank.factor_requisite(alpha)
                continue
            beta, req = genrank.factor_requisite(alpha)
            assert pinj.compose(beta, req) == alpha
            assert pinj.is_requisite(req)
            assert pinj.image(req) == pinj.image(alpha)
            assert pinj.domain(beta) == pinj.domain(alpha)
            assert 1 not in pinj.image(beta)
            assert families.is_member(beta, spec)
            assert battery._requisite_split_ok(instance, alpha)


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
    # lift_height takes exactly the idempotents and essentials of height
    # at most n - 2, and on the identity-free side also the requisites,
    # up to n - 3: the rule genrank.generator_kinds and lift_bound state.
    # lift_height does not recompose its factors: this test and the lift
    # battery claim do, on every element of IC_n and Q'_n.
    full = ("idempotent", "essential")
    cases = [("icn", n, full, n - 2) for n in range(1, 8)]
    cases += [("qprime", n, full + ("requisite",), n - 3) for n in range(1, 8)]
    for kind, n, kinds, bound in cases:
        qprime_side = kind == "qprime"
        assert genrank.generator_kinds(qprime_side) == kinds
        assert genrank.lift_bound(n, qprime_side) == bound
        spec = FamilySpec(kind, n)
        instance = battery.Instance(spec)
        for alpha in elements_of(families.enumerate_family(spec)):
            ekind = genrank.element_kind(alpha, qprime_side)
            if ekind not in kinds or pinj.height(alpha) > bound:
                with pytest.raises(ContractError):
                    genrank.lift_height(alpha, kind)
                continue
            left, right = genrank.lift_height(alpha, kind)
            assert pinj.compose(left, right) == alpha
            assert pinj.height(left) == pinj.height(alpha) + 1
            assert pinj.height(right) == pinj.height(alpha) + 1
            assert families.is_member(left, spec)
            assert families.is_member(right, spec)
            assert battery._lift_ok(instance, alpha)


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
        genrank.closure(t, range(t.size))
    assert row_builds == []

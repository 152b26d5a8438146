"""Element-level behavior, cross-checked against dict-based oracles."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import (
    fixed_points,
    is_essential,
    is_quasi_idempotent,
    loop_compose,
    loop_is_idempotent,
    points,
)

from catalanlab import families, pinj
from catalanlab.errors import (
    ChainMismatchError,
    InjectivityError,
    ParseError,
    RangeError,
    ValidationError,
)


def as_dict(alpha):
    return {x: alpha.image_of(x) for x in pinj.domain(alpha)}


def oracle_compose(a, b):
    # left-to-right: x(ab) = (xa)b
    d = {x: b[a[x]] for x in a if a[x] in b}
    return d


def all_elements(kind, n):
    table = families.enumerate_family(families.FamilySpec(kind, n))
    return [table.element(i) for i in range(table.size)]


def test_compose_matches_pointwise_oracle_exhaustively():
    for n in (2, 3, 4):
        els = all_elements("icn", n)
        for a in els:
            for b in els:
                got = pinj.compose(a, b)
                assert as_dict(got) == oracle_compose(as_dict(a), as_dict(b))


@pytest.mark.parametrize("kind,n", [("syminv", 4), ("icn", 5), ("qprime", 5)])
def test_compose_matches_the_loop_oracle_on_every_pair(kind, n):
    els = all_elements(kind, n)
    for a in els:
        for b in els:
            got = pinj.compose(a, b)
            assert type(got.img) is bytes
            assert got == loop_compose(a, b)


@pytest.mark.parametrize("kind,n", [("syminv", 5), ("icn", 7), ("qprime", 7)])
def test_idempotence_and_classify_match_the_compose_oracle(kind, n, monkeypatch):
    els = all_elements(kind, n)
    direct = [(pinj.is_idempotent(a), pinj.classify(a)) for a in els]
    # classify as it was, with every idempotence test made by composing
    monkeypatch.setattr(pinj, "compose", loop_compose)
    monkeypatch.setattr(pinj, "is_idempotent", loop_is_idempotent)
    assert direct == [(loop_is_idempotent(a), pinj.classify(a)) for a in els]


def test_compose_is_associative_on_icn_3():
    els = all_elements("icn", 3)
    for a in els:
        for b in els:
            ab = pinj.compose(a, b)
            for c in els:
                assert pinj.compose(ab, c) == pinj.compose(a, pinj.compose(b, c))


def test_compose_order_is_left_to_right():
    a = pinj.from_pairs(3, [(3, 2)])
    b = pinj.from_pairs(3, [(2, 1)])
    # x(ab) = (xa)b: 3 -> 2 -> 1
    assert as_dict(pinj.compose(a, b)) == {3: 1}
    assert as_dict(pinj.compose(b, a)) == {}


def test_mul_operator_is_compose():
    a = pinj.from_pairs(3, [(3, 2)])
    b = pinj.from_pairs(3, [(2, 1)])
    assert a * b == pinj.compose(a, b)


def test_identity_and_empty_map():
    e = pinj.identity(4)
    z = pinj.empty_map(4)
    assert pinj.domain(e) == (1, 2, 3, 4)
    assert pinj.height(z) == 0
    for alpha in all_elements("icn", 4):
        assert pinj.compose(e, alpha) == alpha
        assert pinj.compose(alpha, e) == alpha
        assert pinj.compose(z, alpha) == z
        assert pinj.compose(alpha, z) == z


def test_partial_identity_fixes_exactly_its_points():
    eps = pinj.partial_identity(5, (2, 4))
    assert as_dict(eps) == {2: 2, 4: 4}
    assert pinj.is_idempotent(eps)


def test_idempotents_are_exactly_the_partial_identities():
    for n in (2, 3, 4):
        for alpha in all_elements("icn", n):
            direct = pinj.compose(alpha, alpha) == alpha
            assert pinj.is_idempotent(alpha) == direct
            assert direct == (alpha == pinj.partial_identity(n, pinj.domain(alpha)))


def test_every_shift_one_element_is_quasi_idempotent():
    # classify reads this kind off the moved pairs with no composite, on
    # the proof that it holds for every partial injection, so I_5 too.
    for alpha in all_elements("icn", 5) + all_elements("syminv", 5):
        if pinj.shift(alpha) == 1:
            assert is_quasi_idempotent(alpha)


def oracle_classify(alpha):
    """classify as the chain of public predicates, quasi-idempotence by
    composing."""
    if pinj.is_idempotent(alpha):
        return "idempotent"
    if is_essential(alpha):
        return "essential"
    if oracle_is_requisite(alpha):
        return "requisite"
    if pinj.shift(alpha) == 1 and is_quasi_idempotent(alpha):
        return "quasi-idempotent-shift-1"
    return "other"


def oracle_is_requisite(alpha):
    """The requisite shape as stated: a moved block {2, ..., i}, each point
    one down, and every fixed point above i."""
    moved = [(x, a) for x, a in enumerate(points(alpha), 1) if a is not None and a != x]
    if not moved:
        return False
    top = moved[-1][0]
    return (
        [x for x, _ in moved] == list(range(2, top + 1))
        and all(a == x - 1 for x, a in moved)
        and all(f > top for f in fixed_points(alpha))
    )


def test_classify_and_its_predicates_match_the_oracles_on_every_partial_injection():
    for n in range(1, 6):
        for alpha in all_elements("syminv", n):
            assert pinj.classify(alpha) == oracle_classify(alpha)
            assert pinj.is_requisite(alpha) == oracle_is_requisite(alpha)


def test_the_one_pass_member_test_matches_isotone_and_decreasing():
    for n in range(1, 6):
        for alpha in all_elements("syminv", n):
            d = as_dict(alpha)
            dom = sorted(d)
            isotone = all(d[x] < d[y] for x, y in zip(dom, dom[1:]))
            decreasing = all(d[x] <= x for x in dom)
            assert pinj.is_isotone_decreasing(alpha) == (isotone and decreasing)


def test_domain_image_height_shift_fixed_points():
    alpha = pinj.from_pairs(5, [(2, 1), (3, 3), (5, 4)])
    assert pinj.domain(alpha) == (2, 3, 5)
    assert pinj.image(alpha) == (1, 3, 4)
    assert pinj.height(alpha) == 3
    assert pinj.shift(alpha) == 2
    # the oracle that classify's requisite and factorization tests read
    assert fixed_points(alpha) == (3,)


def test_essential_means_one_moved_point_with_gap_one():
    def essential(alpha):
        return pinj.classify(alpha) == "essential"

    assert essential(pinj.from_pairs(3, [(3, 2)]))
    assert essential(pinj.from_pairs(3, [(2, 1), (3, 3)]))
    # gap two is quasi-idempotent but not essential
    assert not essential(pinj.from_pairs(3, [(3, 1)]))
    # two moved points
    assert not essential(pinj.from_pairs(3, [(2, 1), (3, 2)]))
    assert not essential(pinj.empty_map(3))


def test_requisite_block_shape():
    # block {2..i} shifted down, fixed tail above i
    assert pinj.is_requisite(pinj.from_pairs(3, [(2, 1), (3, 2)]))
    assert pinj.is_requisite(pinj.from_pairs(4, [(2, 1), (3, 2), (4, 4)]))
    # empty tail is allowed
    assert pinj.is_requisite(pinj.from_pairs(2, [(2, 1)]))
    # tail must be fixed and above the block
    assert not pinj.is_requisite(pinj.from_pairs(4, [(2, 1), (4, 3)]))
    # block must start at 2
    assert not pinj.is_requisite(pinj.from_pairs(3, [(3, 2)]))
    assert not pinj.is_requisite(pinj.empty_map(3))


def test_classify_priority_pinned_examples():
    assert pinj.classify(pinj.identity(3)) == "idempotent"
    assert pinj.classify(pinj.empty_map(3)) == "idempotent"
    # essential wins over requisite for the overlap shape
    assert pinj.classify(pinj.from_pairs(3, [(2, 1), (3, 3)])) == "essential"
    assert pinj.classify(pinj.from_pairs(2, [(2, 1)])) == "essential"
    assert pinj.classify(pinj.from_pairs(3, [(2, 1), (3, 2)])) == "requisite"
    assert pinj.classify(pinj.from_pairs(3, [(3, 1)])) == "quasi-idempotent-shift-1"
    assert pinj.classify(pinj.from_pairs(4, [(2, 1), (4, 3)])) == "other"


def test_canonical_text_examples():
    assert pinj.canonical_text(pinj.from_pairs(3, [(3, 3), (2, 1)])) == "3:2>1,3>3"
    assert pinj.canonical_text(pinj.empty_map(3)) == "3:"
    assert pinj.canonical_text(pinj.identity(2)) == "2:1>1,2>2"


def test_text_round_trip_exhaustive():
    for n in (1, 2, 3, 4, 5):
        for alpha in all_elements("icn", n):
            assert pinj.parse_text(pinj.canonical_text(alpha)) == alpha


def test_parse_text_accepts_non_catalan_members():
    alpha = pinj.parse_text("3:1>2")
    assert as_dict(alpha) == {1: 2}
    assert not pinj.is_isotone_decreasing(alpha)


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("x:", 0),
        ("3;2>1", 1),
        ("3:2-1", 3),
        ("3:2>1;3>3", 5),
        ("3:2>1,3", 7),
        pytest.param("\u00b2:", 0, id="non-ascii-digit"),
        pytest.param(f"{pinj.MAX_TEXT_CHAIN + 1}:", 0, id="chain-above-the-limit"),
    ],
)
def test_parse_text_error_positions(text, position):
    with pytest.raises(ParseError) as err:
        pinj.parse_text(text)
    assert err.value.position == position


def test_parse_text_accepts_the_largest_chain():
    assert pinj.parse_text(f"{pinj.MAX_TEXT_CHAIN}:").n == pinj.MAX_TEXT_CHAIN


def long_chain_elements(rng, n, count):
    """count random partial injections on the n-chain whose images fit in
    a byte, with their domain points anywhere on the chain."""
    out = []
    for _ in range(count):
        height = rng.randint(0, 6)
        dom = rng.sample(range(1, n + 1), height)
        out.append(pinj.from_pairs(n, zip(dom, rng.sample(range(1, pinj.MAX_IMAGE + 1), height))))
    return out


@pytest.mark.parametrize("n", [256, 300])
def test_compose_on_chains_past_255_points_matches_the_loop_oracle(n):
    # An image value fits in a byte, but the chain may be longer: its
    # points above 255 lie outside every image, and compose's translate
    # table reads none of them.
    rng = random.Random(n)
    edge = [
        pinj.from_pairs(n, [(n - 1, 1)]),
        pinj.from_pairs(n, [(1, 1)]),
        pinj.from_pairs(n, [(n, 255), (1, 2)]),
        pinj.from_pairs(n, [(255, 7), (2, 255)]),
        pinj.partial_identity(n, (1, 2, 255)),
        pinj.empty_map(n),
    ]
    els = edge + long_chain_elements(rng, n, 40)
    for a in els:
        for b in els:
            got = pinj.compose(a, b)
            assert type(got.img) is bytes
            assert got == loop_compose(a, b)
    got = pinj.compose(pinj.parse_text("300:299>1"), pinj.parse_text("300:1>1"))
    assert pinj.canonical_text(got) == "300:299>1"


def test_texts_on_chains_past_255_points_round_trip():
    for text in ("300:299>1", "256:1>255,256>1", f"{pinj.MAX_TEXT_CHAIN}:1000>255"):
        assert pinj.canonical_text(pinj.parse_text(text)) == text


@pytest.mark.parametrize(
    "build",
    [
        lambda: pinj.PartialInjection(256, [None] * 255 + [256]),
        lambda: pinj.from_pairs(300, [(1, 256)]),
        lambda: pinj.partial_identity(300, (2, 256)),
        lambda: pinj.identity(256),
    ],
    ids=["constructor", "from_pairs", "partial_identity", "identity"],
)
def test_every_validating_entry_point_refuses_an_image_above_255(build):
    with pytest.raises(RangeError, match="image value 256 above 255"):
        build()


def test_parse_text_refuses_an_image_above_255_as_a_range_error():
    # parse_text reports the constructor's refusal as a ParseError, as it
    # does every other one, caused by the RangeError.
    for text in ("300:1>256", "300:1>1,2>300", "256:256>256"):
        with pytest.raises(ParseError, match="above 255") as err:
            pinj.parse_text(text)
        assert isinstance(err.value.__cause__, RangeError)


def test_parse_text_rejects_unsorted_or_repeated_domain():
    with pytest.raises(ParseError):
        pinj.parse_text("3:3>3,2>1")
    with pytest.raises(ParseError):
        pinj.parse_text("3:2>1,2>2")


def test_parse_text_rejects_out_of_range_and_collisions():
    with pytest.raises(ParseError):
        pinj.parse_text("3:4>1")
    with pytest.raises(ParseError):
        pinj.parse_text("3:2>1,3>1")
    with pytest.raises(ParseError):  # more digits than int() converts
        pinj.parse_text("3:2>" + "9" * 5000)


def test_from_pairs_validation():
    with pytest.raises(RangeError):
        pinj.from_pairs(3, [(4, 1)])
    with pytest.raises(RangeError):
        pinj.from_pairs(3, [(2, 0)])
    with pytest.raises(InjectivityError):
        pinj.from_pairs(3, [(2, 1), (3, 1)])
    with pytest.raises(InjectivityError):
        pinj.from_pairs(3, [(2, 1), (2, 2)])
    with pytest.raises(ValidationError):
        pinj.from_pairs(0, [])
    # a None image would hide a repeated domain point or drop a pair
    for pairs in ([(1, None), (1, 2)], [(1, None)]):
        with pytest.raises(ValidationError, match="domain point 1 has no image"):
            pinj.from_pairs(3, pairs)


def test_an_image_table_of_the_wrong_length_is_refused():
    for img in ((1, 2), (1, 2, 3, None)):
        with pytest.raises(ValidationError, match=f"has length {len(img)}, expected 3"):
            pinj.PartialInjection(3, img)


def test_repr_is_the_parse_text_call_that_rebuilds_the_element():
    alpha = pinj.parse_text("3:2>1,3>3")
    assert repr(alpha) == "parse_text('3:2>1,3>3')"
    assert eval(repr(alpha), {"parse_text": pinj.parse_text}) == alpha


def test_chain_sizes_that_are_not_positive_integers_raise_validation_errors():
    # checked before any per-point list is built, so a string or a float
    # is refused with the library's error, not a bare TypeError
    for build in (
        lambda: pinj.from_pairs("3", []),
        lambda: pinj.from_pairs(2.0, [(1, 1)]),
        lambda: pinj.partial_identity(2.5, [1]),
        lambda: pinj.empty_map("3"),
        lambda: pinj.identity("3"),
        lambda: pinj.identity(0),
        lambda: pinj.PartialInjection("3", [None] * 3),
        lambda: pinj.PartialInjection(True, [1]),
        lambda: pinj.from_pairs(True, []),
        lambda: pinj.partial_identity(True, []),
        lambda: pinj.identity(True),
        lambda: pinj.empty_map(True),
    ):
        with pytest.raises(ValidationError, match="chain size must be a positive integer"):
            build()


def test_booleans_are_not_points_or_image_values():
    # True == 1 and False == 0 to int, but no element holds a bool
    with pytest.raises(RangeError, match="image value True outside 1..2"):
        pinj.from_pairs(2, [(1, True)])
    with pytest.raises(RangeError, match="image value False outside 1..2"):
        pinj.PartialInjection(2, [None, False])
    with pytest.raises(RangeError, match="domain point True outside 1..2"):
        pinj.from_pairs(2, [(True, 1)])
    with pytest.raises(RangeError, match="point True outside 1..2"):
        pinj.partial_identity(2, [True])


def test_image_of_refuses_what_is_no_point_of_the_chain():
    # True == 1 to a comparison, and 1.5 has no slot; both are refused
    # like any point outside 1..n, not answered or left to a TypeError.
    alpha = pinj.from_pairs(2, [(2, 1)])
    assert alpha.image_of(1) is None
    assert alpha.image_of(2) == 1
    for x in (True, False, 1.5, 2.0, "1", None, 0, 3):
        with pytest.raises(RangeError, match=re.escape(f"point {x!r} outside 1..2")):
            alpha.image_of(x)


def oracle_text(n, img):
    """The text form, one f-string per pair."""
    pairs = ",".join(f"{x}>{a}" for x, a in enumerate(img, 1) if a)
    return f"{n}:{pairs}"


def random_images(rng, n):
    """The image tuple of a random partial injection on the n-chain."""
    img = [None] * n
    dom = rng.sample(range(1, n + 1), rng.randint(0, n))
    for x, a in zip(dom, rng.sample(range(1, n + 1), len(dom))):
        img[x - 1] = a
    return tuple(img)


def test_text_of_images_matches_the_f_string_oracle():
    # Tuples and packed bytes, every partial injection up to n = 4 and
    # random ones up to n = 12, plus a chain too long for a pair table.
    rng = random.Random(20261018)
    cases = [points(alpha) for n in range(1, 5) for alpha in all_elements("syminv", n)]
    cases += [random_images(rng, n) for n in range(1, 13) for _ in range(300)]
    cases += [tuple(range(1, 13)), (None,) * 12, random_images(rng, 100)]
    for img in cases:
        n = len(img)
        want = oracle_text(n, img)
        assert pinj.text_of_images(n, img) == want
        assert pinj.text_of_images(n, bytes(a or 0 for a in img)) == want


def test_a_cold_import_builds_no_pair_text_table():
    # The tables are built per chain size on first use, so a command
    # pays only for the chains it writes.
    probe = (
        "import catalanlab, catalanlab.cli\n"
        "from catalanlab import pinj\n"
        "print(pinj._pair_texts.cache_info().currsize)\n"
        "pinj.canonical_text(pinj.identity(3))\n"
        "print(pinj._pair_texts.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pinj.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", probe], stdout=subprocess.PIPE,
                           env=env, timeout=60, check=True)
    assert child.stdout.decode().split() == ["0", "1"]


def test_compose_rejects_mismatched_chains():
    with pytest.raises(ChainMismatchError):
        pinj.compose(pinj.identity(2), pinj.identity(3))


def test_elements_hash_and_compare_by_value():
    a = pinj.from_pairs(3, [(2, 1)])
    b = pinj.parse_text("3:2>1")
    assert a == b
    assert hash(a) == hash(b)
    assert a != pinj.from_pairs(4, [(2, 1)])

"""Fixed-seed fuzz of the two places user input enters: the element text
form and the command line.

Malformed input must end in a library error, which the command line
turns into exit 2, or a size-cap refusal (exit 3); never in a traceback.
The seeds are fixed, so a failure names an input that reproduces it.
"""

import random

import pytest
from conftest import scanner_parse_text

from catalanlab import cli, families, greens, pinj
from catalanlab.errors import ValidationError

# Digits and the separators of the text form, a minus sign, a space, a
# non-ASCII decimal digit (int() accepts it) and a superscript digit
# (str.isdigit() accepts it, int() does not).
TEXT_ALPHABET = "0123456789:>,- ٣²"

COMMANDS = ("enum", "greens", "check", "rank", "decompose", "maximal", "verify")
FORMATS = ("human", "json", "csv")
RELATIONS = greens.GREEN_NAMES + cli._STARRED_RELATIONS
MODES = ("essentials", "requisite", "lift")


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("CATALAN_LAB_MAX_N", raising=False)


def random_text(rng):
    return "".join(rng.choice(TEXT_ALPHABET) for _ in range(rng.randint(0, 12)))


def random_element_text(rng, n):
    """The canonical text of a random partial injection on the n-chain,
    most often an isotone, order-decreasing one."""
    for _ in range(5):
        dom = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
        img = sorted(rng.sample(range(1, n + 1), len(dom)))
        if all(a <= x for x, a in zip(dom, img)):
            break
    if rng.random() < 0.2:
        rng.shuffle(img)
    return pinj.canonical_text(pinj.from_pairs(n, zip(dom, img)))


def test_parse_text_raises_only_validation_errors():
    rng = random.Random(20240611)
    parsed = 0
    for _ in range(20000):
        text = random_text(rng)
        try:
            alpha = pinj.parse_text(text)
        except ValidationError:
            continue
        parsed += 1
        assert pinj.parse_text(pinj.canonical_text(alpha)) == alpha, text
    assert parsed > 100  # the valid path is reached too


def parse_outcome(parse, text):
    """The element parsed, or the exception's type, message and position."""
    try:
        return parse(text)
    except ValidationError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def mutated_text(rng, text):
    """text with a few characters deleted, doubled or replaced by one of
    the fuzz alphabet."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(chars) + 1)
        edit = rng.randrange(3)
        if edit == 0 and at < len(chars):
            del chars[at]
        elif edit == 1 and at < len(chars):
            chars.insert(at, chars[at])
        else:
            chars[at:at + 1] = rng.choice(TEXT_ALPHABET)
    return "".join(chars)


def test_parse_text_matches_the_character_scanner():
    # parse_text reads a canonical pair by one lookup in the pair table of
    # its chain size (n <= 64) and any other chunk digit by digit: every
    # canonical text of I_n (n <= 5), IC_n and Q'_n (n <= 7), texts on
    # either side of the table's edge, and chunks that miss it.
    rng = random.Random(20261018)
    texts = [random_text(rng) for _ in range(20000)]
    texts += [mutated_text(rng, random_element_text(rng, rng.randint(1, 9)))
              for _ in range(10000)]
    for kind, n_max in (("syminv", 5), ("icn", 7), ("qprime", 7)):
        for n in range(1, n_max + 1):
            table = families.enumerate_family(families.FamilySpec(kind, n))
            texts += map(table.text_of, range(table.size))
    for n in (64, 65):
        texts += [f"{n}:{n}>1", f"{n}:1>{n}", f"{n}:{n}>{n + 1}", f"{n}:{n + 1}>1"]
        texts += [random_element_text(rng, n) for _ in range(50)]
    texts += [
        "", ":", "3", "3:", "3:,", "3:1>1,", "3:1>1,,2>2", "3:>1", "3:1>", "3:1>>1",
        "3:1>1:", "٣:1>1", "²:", "3:1>²", "3:0>1", "0:", "0:1>1", "3:2>1,1>1,x",
        f"{pinj.MAX_TEXT_CHAIN}:", f"{pinj.MAX_TEXT_CHAIN + 1}", f"{pinj.MAX_TEXT_CHAIN + 1}:",
        "1" * 5000 + ":", "3:2>" + "9" * 5000, "3:1>1,2>" + "9" * 5000 + "x",
        " 3:", "3 :", "3:1 >1", "1_0:", "3:1>1,2>3,3>2", "3:3>3,2>1", "3:2>1,3>1",
        "3:02>1", "3:2>01", "3:2>١", "3:4>1", "3:2>0", "3:3>1,2>1", "3:2>1,02>1",
        None, b"3:", 3,
        # images fit in a byte on a chain of any length
        "256:256>255", "256:256>256", "300:299>1", "300:1>255,2>256", "300:2>256,1>1",
    ]
    for text in texts:
        want = parse_outcome(scanner_parse_text, text)
        assert parse_outcome(pinj.parse_text, text) == want, text


def random_argv(rng):
    """One argument vector: every subcommand, n and p from -2 to 6, with
    --max-n, relations, properties, modes and formats drawn at random, and
    now and then a required flag dropped or a value that is not a number.

    Only requests whose tables build in well under a second are drawn:
    I_n with n at most 4 as the checked family.  I_5 takes seconds and I_6
    (13,327 elements) would not fit in memory, and no cap refuses them
    yet.  The inverse-ideal checks build no I_n, so every property is
    drawn for every family at any n."""
    command = rng.choice(COMMANDS)
    argv = [command]
    if command == "verify":
        argv += ["--n-max", str(rng.randint(-2, 6))]
        if rng.random() < 0.5:
            argv += ["--starred-n-max", str(rng.randint(-2, 6))]
    else:
        kind = rng.choice(families.KINDS)
        n = rng.randint(-2, 4 if kind == families.KIND_SYMINV else 6)
        argv += ["--family", kind, "--n", str(n)]
        if rng.random() < (0.9 if kind in families.KINDS_WITH_P else 0.1):
            argv += ["--p", str(rng.randint(-2, 6))]
        if rng.random() < 0.4:
            argv += ["--max-n", str(rng.randint(-2, 12))]
        if command == "enum":
            argv += rng.choice(([], ["--count-only"], ["--products"]))
        elif command == "greens":
            argv += ["--relation", rng.choice(RELATIONS)]
        elif command == "check":
            for name in rng.sample(list(cli._PROPERTIES), rng.randint(1, 3)):
                argv += ["--property", name]
            if rng.random() < 0.5:
                argv += ["--expect", rng.choice(("true", "false"))]
        elif command == "rank" and rng.random() < 0.5:
            argv.append("--show-generators")
        elif command == "decompose":
            chain = n if n >= 1 and rng.random() < 0.8 else rng.randint(1, 6)
            text = random_element_text(rng, chain) if rng.random() < 0.8 else random_text(rng)
            argv += ["--element", text, "--mode", rng.choice(MODES)]
    argv += ["--format", rng.choice(FORMATS)]
    roll = rng.random()
    if roll < 0.05:
        del argv[rng.randrange(1, len(argv))]  # a flag or a value goes missing
    elif roll < 0.1:
        argv[rng.randrange(1, len(argv))] = rng.choice(("x", "", "1.5", "--n"))
    return argv


def test_random_command_lines_exit_0_to_3_without_a_traceback(capsys):
    rng = random.Random(20240612)
    codes = set()
    for _ in range(300):
        argv = random_argv(rng)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the flags: exit 2
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        codes.add(code)
    assert codes == {0, 1, 2, 3}

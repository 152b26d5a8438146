"""Command line behavior: formats, exit codes, caps, and determinism."""

import csv
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from functools import lru_cache, reduce
from itertools import chain
from pathlib import Path

import pytest
from conftest import DIFFERENTIAL_SPECS, direct_rows, elements_of, packed_table

import catalanlab
from catalanlab import cli, families, genrank, pinj, structure
from catalanlab.errors import CapExceededError, ValidationError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def parse_csv(out):
    return list(csv.reader(io.StringIO(out)))


# ---------------------------------------------------------------------- enum


def test_enum_count_only_pinned_value(capsys):
    code, payload, _ = run_json(
        capsys, "enum", "--family", "icn", "--n", "5", "--count-only"
    )
    assert code == 0
    assert payload == {"family": "IC_5", "order": 132}


def test_enum_human_listing(capsys):
    code, out, _ = run_cli(capsys, "enum", "--family", "icn", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "IC_2: 5 elements"
    assert lines[1] == "0\t2:"
    assert len(lines) == 6


def test_enum_csv_blank_height_for_the_zero(capsys):
    code, out, _ = run_cli(
        capsys, "enum", "--family", "rq", "--n", "3", "--p", "2", "--format", "csv"
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["index", "text", "height"]
    assert rows[1] == ["0", "0", ""]
    assert rows[2] == ["1", "3:2>1,3>2", "2"]


def test_enum_products_csv(capsys):
    code, out, _ = run_cli(
        capsys, "enum", "--family", "icn", "--n", "2", "--products", "--format", "csv"
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["i", "j", "k"]
    assert len(rows) == 1 + 5 * 5


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=lambda s: s.label())
def test_enum_products_are_the_direct_products_in_every_format(capsys, spec):
    # One emitter writes all three formats; each must carry the m^2
    # triples (i, j, i.j), composed here on the elements.
    table = families.enumerate_family(spec)
    rows = direct_rows(table)
    triples = [[i, j, k] for i, row in enumerate(rows) for j, k in enumerate(row)]
    argv = ["enum", "--family", spec.kind, "--n", str(spec.n), "--products"]
    if spec.p is not None:
        argv += ["--p", str(spec.p)]
    out = {}
    for fmt in ("json", "csv", "human"):
        code, out[fmt], err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        # Streamed as the header, one chunk per row and the footer, so the
        # text of the whole table is never held at once.
        chunks = list(cli._product_text(table, fmt))
        assert len(chunks) == table.size + 2
        assert "".join(chunks) == out[fmt]
    doc = {"family": spec.label(), "order": table.size, "products": triples}
    assert out["json"] == json.dumps(doc, indent=2) + "\n"
    header, *csv_lines = parse_csv(out["csv"])
    assert header == ["i", "j", "k"]
    human_lines = [line.split(" ") for line in out["human"].splitlines()]
    for lines in (csv_lines, human_lines):
        assert len(lines) == len(triples) and {len(line) for line in lines} == {3}
        assert list(map(int, chain.from_iterable(lines))) == list(chain.from_iterable(triples))


@pytest.mark.parametrize("fmt", ["human", "csv", "json"])
def test_enum_products_into_a_closed_pipe_exits_zero(fmt):
    # IC_6 has 184,041 products, far more than a pipe buffer holds, so the
    # child is still writing when the reader closes after one line.
    env = dict(os.environ, PYTHONPATH=str(Path(catalanlab.__file__).parents[1]))
    argv = [sys.executable, "-m", "catalanlab.cli", "enum", "--family", "icn",
            "--n", "6", "--products", "--format", fmt]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as child:
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=60)
    assert first == {"human": b"0 0 0\n", "csv": b"i,j,k\n", "json": b"{\n"}[fmt]
    assert b"Traceback" not in err
    assert err == b""
    assert code == 0


# A failing verify, with the battery replaced by one failed row.
_FAILING_VERIFY = """
import sys
from catalanlab import cli
row = dict(id="X", claim="c", family="F", expected=1, computed=2, status="fail")
summary = {"pass": 0, "fail": 1, "paper-inconsistent": 0, "skipped": 0}
cli.verification_report = lambda *args: {"rows": [row], "summary": summary}
sys.exit(cli.main(["verify"]))
"""


@pytest.mark.parametrize("argv", [
    ["-m", "catalanlab.cli", "check", "--family", "qprime", "--n", "5",
     "--property", "inverse-ideal", "--property", "right-inverse-ideal"],
    ["-c", _FAILING_VERIFY],
], ids=["check", "verify"])
def test_a_closed_stdout_keeps_a_failing_exit_code(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(catalanlab.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run([sys.executable, *argv], stdout=write_end,
                               stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert b"Traceback" not in child.stderr
    assert child.returncode == 1


def test_enum_json_full_listing(capsys):
    code, payload, _ = run_json(capsys, "enum", "--family", "qprime", "--n", "3")
    assert code == 0
    assert payload["family"] == "qprime"
    assert payload["order"] == 9
    assert len(payload["elements"]) == 9


def test_table_json_shape(capsys):
    code, data, _ = run_json(capsys, "enum", "--family", "rq", "--n", "3", "--p", "1")
    table = families.enumerate_family(families.FamilySpec("rq", 3, 1))
    assert code == 0
    assert list(data) == ["family", "n", "p", "order", "elements"]
    assert data["family"] == "rq"
    assert data["n"] == 3 and data["p"] == 1
    assert data["order"] == table.size
    assert data["elements"] == [table.text_of(i) for i in range(table.size)]
    assert data["elements"][0] == "0"
    _, plain, _ = run_json(capsys, "enum", "--family", "icn", "--n", "2")
    assert list(plain) == ["family", "n", "order", "elements"]


# ---------------------------------------------------------------- size caps


def test_enum_default_cap_refuses_eleven(capsys):
    code, out, err = run_cli(capsys, "enum", "--family", "icn", "--n", "11", "--count-only")
    assert code == 3
    assert out == ""
    assert "capped" in err


def test_max_n_lowers_and_raises_the_soft_cap(capsys):
    argv = ("enum", "--family", "icn", "--n", "4", "--count-only")
    code, _, _ = run_cli(capsys, *argv, "--max-n", "3")
    assert code == 3
    code, out, _ = run_cli(capsys, *argv, "--max-n", "4")
    assert code == 0
    assert "42" in out


@pytest.mark.parametrize("value", ["-1", "0"])
def test_a_cap_below_one_is_refused_from_either_source(capsys, value):
    argv = ("enum", "--family", "icn", "--n", "3", "--count-only")
    code, out, err = run_cli(capsys, *argv, "--max-n", value)
    assert (code, out) == (2, "")
    assert err == f"error: --max-n must be at least 1, got {value}\n"


def test_only_the_starred_property_checks_take_the_starred_cap(capsys):
    # at n = 6 the starred cap (5) refuses exactly the checks that read L*
    # or R*
    starred = {
        "left-abundant", "right-abundant", "abundant", "adequate",
        "right-adequate", "ample", "right-ample",
    }
    unstarred = ("regular", "jtrivial", "semilattice", "inverse-ideal", "right-inverse-ideal")
    for name in (*unstarred, *sorted(starred)):
        code, _, err = run_cli(capsys, "check", "--family", "icn", "--n", "6", "--property", name)
        if name in starred:
            assert code == 3, name
            assert err.startswith("error: starred property check is capped at n = 5"), name
        else:
            assert code in (0, 1), name


def test_hard_ceiling_clamps_max_n(capsys):
    code, _, err = run_cli(
        capsys,
        "enum", "--family", "icn", "--n", "13", "--count-only", "--max-n", "20",
    )
    assert code == 3
    assert "12" in err


# -------------------------------------------------------------------- greens


def test_greens_plain_relation_is_trivial(capsys):
    code, payload, _ = run_json(
        capsys, "greens", "--family", "icn", "--n", "3", "--relation", "J"
    )
    assert code == 0
    assert payload["trivial"] is True
    assert payload["class_count"] == 14
    assert all(len(c) == 1 for c in payload["classes"])


def test_greens_starred_classes_listed_in_full(capsys):
    code, payload, _ = run_json(
        capsys,
        "greens", "--family", "rq", "--n", "3", "--p", "2", "--relation", "Ls",
    )
    assert code == 0
    assert payload["family"] == "RQ'_3(2)"
    assert payload["class_count"] == 3
    assert payload["max_class_size"] == 2
    assert payload["trivial"] is False
    assert payload["classes"] == [
        ["0"],
        ["3:2>1,3>2", "3:2>1,3>3"],
        ["3:2>2,3>3"],
    ]


def test_greens_csv_covers_every_element_once(capsys):
    code, out, _ = run_cli(
        capsys,
        "greens", "--family", "qprime", "--n", "3", "--relation", "Ds",
        "--format", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["class", "index", "text"]
    indices = sorted(int(r[1]) for r in rows[1:])
    assert indices == list(range(9))


def test_greens_starred_cap_is_overridable(capsys):
    code, _, err = run_cli(
        capsys, "greens", "--family", "qprime", "--n", "6", "--relation", "Js"
    )
    assert code == 3
    assert "--max-n" in err
    code, payload, _ = run_json(
        capsys,
        "greens", "--family", "qprime", "--n", "6", "--relation", "Js",
        "--max-n", "6",
    )
    assert code == 0
    assert payload["class_count"] == 6  # one class per height


# --------------------------------------------------------------------- check


def test_check_properties_expected_true(capsys):
    code, payload, _ = run_json(
        capsys,
        "check", "--family", "icn", "--n", "3",
        "--property", "abundant", "--property", "adequate", "--property", "ample",
    )
    assert code == 0
    assert [p["holds"] for p in payload["properties"]] == [True, True, True]


def test_check_expectation_mismatch_exits_one(capsys):
    code, _, _ = run_cli(
        capsys,
        "check", "--family", "icn", "--n", "3", "--property", "abundant",
        "--expect", "false",
    )
    assert code == 1


def test_check_negative_expectation_with_witness(capsys):
    code, out, _ = run_cli(
        capsys,
        "check", "--family", "qprime", "--n", "3", "--property", "left-abundant",
        "--expect", "false", "--format", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["property", "family", "holds", "witness"]
    assert rows[1][2] == "False"
    assert "starred class without idempotent" in rows[1][3]


def test_check_inverse_ideal_properties(capsys):
    code, payload, _ = run_json(
        capsys,
        "check", "--family", "icn", "--n", "3", "--property", "inverse-ideal",
    )
    assert code == 0
    assert payload["properties"][0]["family"] == "IC_3 in I_3"
    code, _, _ = run_cli(
        capsys,
        "check", "--family", "qprime", "--n", "3",
        "--property", "right-inverse-ideal",
    )
    assert code == 0
    code, _, _ = run_cli(
        capsys,
        "check", "--family", "qprime", "--n", "3", "--property", "inverse-ideal",
        "--expect", "false",
    )
    assert code == 0


def test_inverse_ideal_checks_enumerate_no_syminv_table(capsys, monkeypatch):
    # the same bytes and exit codes as when the checks searched all of I_6
    enumerate_family = families.enumerate_family

    def refuse_syminv(spec):
        assert spec.kind != families.KIND_SYMINV, spec
        return enumerate_family(spec)

    monkeypatch.setattr(families, "enumerate_family", refuse_syminv)
    argv = ("check", "--n", "6", "--property", "inverse-ideal", "--property", "right-inverse-ideal")
    assert run_cli(capsys, *argv, "--family", "icn") == (0, (
        "inverse-ideal on IC_6 in I_6: True [ok]\n"
        "right-inverse-ideal on IC_6 in I_6: True [ok]\n"
    ), "")
    assert run_cli(capsys, *argv, "--family", "qprime") == (1, (
        "inverse-ideal on Q'_6 in I_6: False [MISMATCH]"
        " witness: no admissible generalized inverse for 6:2>1\n"
        "right-inverse-ideal on Q'_6 in I_6: True [ok]\n"
    ), "")
    qprime = families.enumerate_family(families.FamilySpec("qprime", 6))
    assert structure.is_inverse_ideal(qprime) == structure.PropertyReport(
        "inverse-ideal", "Q'_6 in I_6", False,
        witness="no admissible generalized inverse for 6:2>1",
    )
    assert structure.is_right_inverse_ideal(qprime).holds


def test_check_jtrivial_both_ways(capsys):
    code, _, _ = run_cli(
        capsys, "check", "--family", "rq", "--n", "4", "--p", "2",
        "--property", "jtrivial",
    )
    assert code == 0
    code, payload, _ = run_json(
        capsys,
        "check", "--family", "syminv", "--n", "2", "--property", "jtrivial",
        "--expect", "false",
    )
    assert code == 0
    assert payload["properties"][0]["holds"] is False
    assert payload["properties"][0]["witness"]


# ---------------------------------------------------------------------- rank


def test_rank_pinned_value_from_contract(capsys):
    code, out, _ = run_cli(capsys, "rank", "--family", "qprime", "--n", "3")
    assert code == 0
    assert out.splitlines()[0] == "Q'_3: rank 4"
    assert "agrees" in out


def test_rank_json_hides_generators_by_default(capsys):
    code, payload, _ = run_json(capsys, "rank", "--family", "icn", "--n", "3")
    assert code == 0
    assert payload["rank"] == 6
    assert payload["formula"] == 6
    assert payload["agrees"] is True
    assert "generators" not in payload
    code, payload, _ = run_json(
        capsys, "rank", "--family", "icn", "--n", "3", "--show-generators"
    )
    assert code == 0
    assert payload["generators"]["identity"] == "3:1>1,2>2,3>3"
    assert len(payload["generators"]["essentials"]) == 2


def test_rank_reports_the_disagreement_without_failing(capsys):
    code, out, _ = run_cli(capsys, "rank", "--family", "qprime", "--n", "4")
    assert code == 0
    assert "rank 7" in out
    assert "DISAGREES" in out


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
def test_rank_refuses_a_table_that_is_not_jtrivial(capsys, fmt):
    code, out, err = run_cli(
        capsys, "rank", "--family", "syminv", "--n", "3", "--format", fmt
    )
    assert code == 2
    assert out == ""
    assert err == "error: rank computation needs a J-trivial table\n"


def test_rank_and_maximal_build_no_full_table(capsys, row_builds):
    for argv in (
        ("rank", "--family", "qprime", "--n", "6", "--show-generators"),
        ("maximal", "--family", "icn", "--n", "6"),
        ("greens", "--family", "rq", "--n", "6", "--p", "3", "--relation", "J"),
    ):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
    assert row_builds == []


@pytest.mark.parametrize("relation", ["Ls", "Rs", "Hs", "Ds", "Js"])
def test_starred_greens_build_no_full_table(capsys, row_builds, relation):
    for family in (("icn", "--n", "6"), ("qprime", "--n", "5"), ("rq", "--n", "5", "--p", "2")):
        code, out, _ = run_cli(
            capsys, "greens", "--family", *family, "--max-n", "6", "--relation", relation,
        )
        assert code == 0 and out
    assert row_builds == []


def test_verify_builds_no_full_table(capsys, row_builds):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "5")
    assert code == 0 and " 0 fail" in out.splitlines()[-1]
    assert row_builds == []


@pytest.mark.parametrize("prop", sorted(cli._PROPERTIES))
def test_property_checks_build_no_full_table(capsys, row_builds, prop):
    chosen = [("icn", "--n", "5"), ("qprime", "--n", "5")]
    if not prop.endswith("inverse-ideal"):  # those refuse Rees tables
        chosen.append(("rq", "--n", "5", "--p", "2"))
    for family in chosen:
        code, out, _ = run_cli(capsys, "check", "--family", *family, "--property", prop)
        assert code in (0, 1) and out
    assert row_builds == []


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
@pytest.mark.parametrize("spec, argv", [
    (families.FamilySpec("rq", 4, 2), ("enum", "--family", "rq", "--n", "4", "--p", "2")),
    (families.FamilySpec("qprime", 4),
     ("greens", "--family", "qprime", "--n", "4", "--relation", "Ls")),
], ids=["enum", "greens"])
def test_listings_make_each_text_once_in_the_chosen_format(capsys, monkeypatch, spec, argv, fmt):
    # The payload, the human lines and the csv rows are made only for the
    # format written, so each element's text is made once.
    made = []
    text_of = families.SemigroupTable.text_of

    def counted(table, i):
        made.append(i)
        return text_of(table, i)

    monkeypatch.setattr(families.SemigroupTable, "text_of", counted)
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0 and out
    assert sorted(made) == list(range(len(families.enumerate_family(spec))))


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
def test_enum_products_builds_the_table_once(capsys, row_builds, fmt):
    code, out, _ = run_cli(
        capsys, "enum", "--family", "qprime", "--n", "4", "--products", "--format", fmt
    )
    assert code == 0 and out
    assert len(row_builds) == 1


def test_rank_csv_with_generators(capsys):
    code, out, _ = run_cli(
        capsys,
        "rank", "--family", "qprime", "--n", "3", "--show-generators",
        "--format", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["family", "rank", "formula", "agrees", "kind", "text"]
    assert len(rows) == 5
    # the family-aware census: both movers count as requisites here
    kinds = [r[4] for r in rows[1:]]
    assert sorted(kinds) == [
        "idempotents",
        "idempotents",
        "requisites",
        "requisites",
    ]


# ----------------------------------------------------------------- decompose


def test_decompose_essentials_round_trip(capsys):
    code, payload, _ = run_json(
        capsys,
        "decompose", "--family", "icn", "--n", "4", "--element", "4:2>1,3>2",
        "--mode", "essentials",
    )
    assert code == 0
    assert payload["element"] == "4:2>1,3>2"
    assert payload["factors"]
    # recompose independently
    factors = [pinj.parse_text(t) for t in payload["factors"]]
    assert reduce(pinj.compose, factors) == pinj.parse_text("4:2>1,3>2")


def test_decompose_essentials_pinned_output(capsys):
    # The exact factor lists, not only their product: one IC_9 element,
    # and one Q'_9 element whose image holds 1, so a requisite ends it.
    code, out, _ = run_cli(
        capsys,
        "decompose", "--family", "icn", "--n", "9", "--element", "9:3>1,5>4,6>6,9>7",
        "--mode", "essentials",
    )
    assert code == 0
    assert out == (
        "9:3>1,5>4,6>6,9>7 in IC_9 (essentials):\n"
        "  1: 9:3>2,5>5,6>6,9>9\n"
        "  2: 9:2>1,5>5,6>6,9>9\n"
        "  3: 9:1>1,5>4,6>6,9>9\n"
        "  4: 9:1>1,4>4,6>6,9>9\n"
        "  5: 9:1>1,4>4,6>6,9>8\n"
        "  6: 9:1>1,4>4,6>6,8>7\n"
    )
    code, out, _ = run_cli(
        capsys,
        "decompose", "--family", "qprime", "--n", "9", "--element", "9:2>1,3>2,5>3,8>6,9>9",
        "--mode", "essentials",
    )
    assert code == 0
    assert out == (
        "9:2>1,3>2,5>3,8>6,9>9 in Q'_9 (essentials):\n"
        "  1: 9:2>2,3>3,5>5,8>8,9>9\n"
        "  2: 9:2>2,3>3,5>5,8>8,9>9\n"
        "  3: 9:2>2,3>3,5>4,8>8,9>9\n"
        "  4: 9:2>2,3>3,4>4,8>7,9>9\n"
        "  5: 9:2>2,3>3,4>4,7>6,9>9\n"
        "  6: 9:2>2,3>3,4>4,6>6,9>9\n"
        "  7: 9:2>1,3>2,4>3,6>6,9>9\n"
    )


def test_decompose_requisite_mode(capsys):
    code, payload, _ = run_json(
        capsys,
        "decompose", "--family", "qprime", "--n", "3", "--element", "3:2>1,3>2",
        "--mode", "requisite",
    )
    assert code == 0
    assert payload["factors"] == ["3:2>2,3>3", "3:2>1,3>2"]


def test_decompose_lift_mode(capsys):
    code, payload, _ = run_json(
        capsys,
        "decompose", "--family", "icn", "--n", "3", "--element", "3:1>1",
        "--mode", "lift",
    )
    assert code == 0
    assert payload["factors"] == ["3:1>1,2>2", "3:1>1,3>3"]


@pytest.mark.parametrize(
    "family,n,element", [("icn", 1, "1:"), ("qprime", 1, "1:"), ("qprime", 2, "2:2>1")]
)
def test_decompose_lift_refuses_a_chain_where_nothing_lifts(capsys, family, n, element):
    # IC_1, Q'_1 and Q'_2 have no room for the fixed points a lift adds.
    code, out, err = run_cli(
        capsys,
        "decompose", "--family", family, "--n", str(n), "--element", element,
        "--mode", "lift",
    )
    assert (code, out) == (2, "")
    assert err == f"error: no element lifts on the {n}-chain in this family\n"


def test_a_lift_with_no_room_left_exits_four(capsys, monkeypatch):
    # lift_bound leaves two free points for an idempotent's lift; one
    # raised to n - 1 lets IC_4's height-3 idempotent through with one
    # free point, and the shortfall is a defect, not bad input.
    monkeypatch.setattr(genrank, "lift_bound", lambda n, qprime_side: n - 1)
    code, out, err = run_cli(
        capsys,
        "decompose", "--family", "icn", "--n", "4", "--element", "4:1>1,2>2,3>3",
        "--mode", "lift",
    )
    assert (code, out) == (4, "")
    assert err == "error: internal invariant failed: no room left on the chain for the lift\n"


def test_decompose_empty_product(capsys):
    code, out, _ = run_cli(
        capsys,
        "decompose", "--family", "icn", "--n", "3", "--element", "3:",
        "--mode", "essentials",
    )
    assert code == 0
    assert "(empty product)" in out


def test_decompose_rejects_non_members_and_bad_text(capsys):
    code, _, err = run_cli(
        capsys,
        "decompose", "--family", "qprime", "--n", "3", "--element", "3:1>1",
        "--mode", "essentials",
    )
    assert code == 2
    assert "not a member" in err
    code, _, _ = run_cli(
        capsys,
        "decompose", "--family", "icn", "--n", "3", "--element", "junk",
        "--mode", "essentials",
    )
    assert code == 2


def test_decompose_rejects_an_oversized_chain_before_allocating(capsys):
    # One past the parser's limit: small enough that a missing check
    # would allocate harmlessly and fail on the message instead.
    element = f"{pinj.MAX_TEXT_CHAIN + 1}:"
    code, out, err = run_cli(
        capsys,
        "decompose", "--family", "icn", "--n", "3", "--element", element,
        "--mode", "lift",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "exceeds the limit" in err


def test_decompose_refuses_an_image_above_255(capsys):
    code, out, err = run_cli(
        capsys,
        "decompose", "--family", "icn", "--n", "3", "--element", "300:299>256",
        "--mode", "essentials",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "image value 256 above 255" in err


@pytest.mark.parametrize("kind,want_runs", [("icn", 837), ("qprime", 763)])
def test_decompose_output_recomposes_in_every_mode(capsys, monkeypatch, kind, want_runs):
    # decompose does not recompose its factors; this holds every factor
    # list it prints to the element, read back from the printed text.
    # Building the parser is most of a call, so it is built once.
    monkeypatch.setattr(cli, "build_parser", lru_cache(cli.build_parser))
    qprime_side = kind == "qprime"
    kinds = genrank.generator_kinds(qprime_side)
    runs = 0
    for n in range(1, 7):
        bound = genrank.lift_bound(n, qprime_side)
        empty = pinj.empty_map(n)
        for alpha in elements_of(families.enumerate_family(families.FamilySpec(kind, n))):
            modes = ["essentials"]
            if qprime_side and 1 in pinj.image(alpha):
                modes.append("requisite")
            if genrank.element_kind(alpha, qprime_side) in kinds and pinj.height(alpha) <= bound:
                modes.append("lift")
            text = pinj.canonical_text(alpha)
            for mode in modes:
                code, payload, _ = run_json(
                    capsys, "decompose", "--family", kind, "--n", str(n),
                    "--element", text, "--mode", mode,
                )
                assert code == 0, (text, mode)
                factors = [pinj.parse_text(f) for f in payload["factors"]]
                product = reduce(pinj.compose, factors) if factors else empty
                assert product == alpha, (text, mode)
                runs += 1
    assert runs == want_runs


def test_decompose_mode_family_pairing(capsys):
    code, _, _ = run_cli(
        capsys,
        "decompose", "--family", "ric", "--n", "3", "--p", "2",
        "--element", "3:2>1,3>2", "--mode", "essentials",
    )
    assert code == 2
    code, _, _ = run_cli(
        capsys,
        "decompose", "--family", "icn", "--n", "3", "--element", "3:2>1",
        "--mode", "requisite",
    )
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["--family", "k", "--n", "3", "--p", "2", "--element", "3:2>1", "--mode", "essentials"],
     "decompose --mode essentials supports the icn and qprime families"),
    (["--family", "icn", "--n", "3", "--element", "3:2>1", "--mode", "requisite"],
     "decompose --mode requisite supports the qprime family"),
    (["--family", "rq", "--n", "3", "--p", "2", "--element", "3:2>1,3>2", "--mode", "lift"],
     "decompose --mode lift supports the icn and qprime families"),
], ids=["essentials-k", "requisite-icn", "lift-rq"])
def test_decompose_refuses_a_mode_outside_its_families(capsys, argv, message):
    # Each element is a member, so the refusal is the mode's own.
    assert run_cli(capsys, "decompose", *argv) == (2, "", f"error: {message}\n")


# ------------------------------------------------------------------- maximal


def test_maximal_counts_agree_on_the_full_side(capsys):
    code, payload, _ = run_json(capsys, "maximal", "--family", "icn", "--n", "3")
    assert code == 0
    assert payload["count"] == 6
    assert payload["formula"] == 6
    assert payload["agrees"] is True
    assert all(m["verified"] for m in payload["maximal"])


def test_maximal_reports_the_disagreement_without_failing(capsys):
    code, payload, _ = run_json(capsys, "maximal", "--family", "qprime", "--n", "4")
    assert code == 0
    assert payload["count"] == 7
    assert payload["formula"] == 8
    assert payload["agrees"] is False


def test_maximal_cap_and_unsupported_table(capsys):
    code, _, _ = run_cli(capsys, "maximal", "--family", "icn", "--n", "7")
    assert code == 3
    code, _, err = run_cli(capsys, "maximal", "--family", "syminv", "--n", "2")
    assert code == 2
    assert "J-trivial" in err


# -------------------------------------------------------------------- verify


def test_verify_battery_at_the_default_bound(capsys):
    code, payload, _ = run_json(capsys, "verify", "--n-max", "4")
    assert code == 0
    summary = payload["summary"]
    assert summary["fail"] == 0
    assert summary["skipped"] == 1
    assert summary["paper-inconsistent"] == 11
    assert summary["pass"] > 500
    statuses = {r["status"] for r in payload["rows"]}
    assert statuses <= {"pass", "fail", "paper-inconsistent", "skipped"}


def test_verify_human_summary_line(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "3")
    assert code == 0
    last = out.splitlines()[-1]
    assert last.startswith("summary:")
    assert "0 fail" in last


def test_verify_csv_header(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "2", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["id", "claim", "family", "expected", "computed", "status"]
    assert len(rows) > 10


def test_verify_validation_and_caps(capsys):
    code, _, _ = run_cli(capsys, "verify", "--n-max", "0")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "--n-max", "4", "--starred-n-max", "8")
    assert code == 3


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_verify_refuses_a_starred_bound_below_one(capsys, bound):
    # Each starred section would be empty: refused, not a silent pass.
    code, out, err = run_cli(capsys, "verify", "--n-max", "2", "--starred-n-max", bound)
    assert code == 2
    assert err == f"error: the starred verification bound must be at least 1, got {bound}\n"
    assert out == ""


def test_verification_report_direct_api():
    report = cli.verification_report(n_max=2)
    assert set(report) == {"n_max", "starred_n_max", "rows", "summary"}
    for row in report["rows"]:
        assert set(row) == {"id", "claim", "family", "expected", "computed", "status"}
    with pytest.raises(ValidationError):
        cli.verification_report(n_max=0)
    with pytest.raises(ValidationError):
        cli.verification_report(n_max=2, starred_n_max=0)
    with pytest.raises(CapExceededError):
        cli.verification_report(n_max=4, starred_n_max=8)


def test_the_battery_holds_one_store_group_at_a_time():
    # Checked in a fresh interpreter, where nothing else holds a table:
    # before, during and after each row, and whenever a table is asked
    # for, every table alive is one of the row's store group, but for the
    # IC_n and Q'_n that the inverse-ideal rows read for the moment of
    # their claim.
    probe = (
        "import json\n"
        "from catalanlab import battery, families\n"
        "allowed, bad, most = set(), [], [0]\n"
        "def check(where):\n"
        "    live = set(families._TABLES.keys())\n"
        "    most[0] = max(most[0], len(live))\n"
        "    if not live <= allowed:\n"
        "        bad.append((where, sorted(s.label() for s in live - allowed)))\n"
        "row, enumerate_family = battery._row, families.enumerate_family\n"
        "def checked_row(x, claim):\n"
        "    allowed.clear()\n"
        "    allowed.update(families.store_group(x.spec))\n"
        "    if 'inverse-ideal' in claim.id:\n"
        "        allowed.update(families.FamilySpec(k, x.n) for k in ('icn', 'qprime'))\n"
        "    check(claim.id.format(tag=x.tag, n=x.n))\n"
        "    out = row(x, claim)\n"
        "    check(out['id'])\n"
        "    return out\n"
        "def checked_enumerate(spec):\n"
        "    table = enumerate_family(spec)\n"
        "    check(spec.label())\n"
        "    return table\n"
        "battery._row, families.enumerate_family = checked_row, checked_enumerate\n"
        "report = battery.verification_report(6, 6)\n"
        "print(json.dumps([len(report['rows']), bad[:5], most[0], len(families._TABLES)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(catalanlab.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", probe], stdout=subprocess.PIPE,
                           env=env, timeout=120, check=True)
    rows, bad, most, left = json.loads(child.stdout)
    assert rows == 1020 and bad == []
    # IC_n and K(n,n) are alive together, and nothing is left at the end.
    assert most == 2 and left == 0


# -------------------------------------------------------------- determinism


def test_output_is_deterministic(capsys):
    for argv in (
        ("verify", "--n-max", "3", "--format", "json"),
        ("enum", "--family", "icn", "--n", "4", "--format", "csv"),
        ("greens", "--family", "rq", "--n", "4", "--p", "2", "--relation", "Ls",
         "--format", "json"),
        ("rank", "--family", "qprime", "--n", "4", "--show-generators",
         "--format", "csv"),
    ):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


# ------------------------------------------------------------------- parsing


@pytest.mark.parametrize("argv,named", [
    ([], None), (["--help"], None), (["--help", "enum"], "enum"), (["bogus"], None),
    (["-1", "enum"], "enum"),
    *(([name, "--help"], name) for name in cli._COMMANDS),
    (["enum", "--family", "bogus", "--n", "3"], "enum"),
    (["--bogus", "rank", "--family", "icn", "--n", "2"], "rank"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_main_parses_as_the_full_parser(capsys, monkeypatch, argv, named):
    # main adds only the named subcommand's arguments; help, usage and
    # errors must still read as with every subcommand's arguments added.
    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return exc.value.code, *capsys.readouterr()

    full = outcome(cli.build_parser().parse_args)
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or build(command))
    assert outcome(cli.main) == full
    assert built == [named]


def test_a_named_subcommand_has_only_its_own_arguments():
    parser = cli.build_parser("rank")
    assert parser.parse_args(["rank", "--family", "icn", "--n", "2"]).handler is cli._cmd_rank
    with pytest.raises(SystemExit):
        parser.parse_args(["enum", "--family", "icn", "--n", "2"])


_FAMILY_ACTIONS = [
    (("--family",), True, None, families.KINDS),
    (("--n",), True, None, None),
    (("--p",), False, None, None),
    (("--max-n",), False, None, None),
]
_FORMAT_ACTION = (("--format",), False, "human", ("human", "json", "csv"))
_HELP_ACTION = (("-h", "--help"), False, "==SUPPRESS==", None)

# Every subcommand's actions in order: option strings, required, default
# and choices.  A --help digest would change with the argparse version.
SUBCOMMAND_ACTIONS = {
    "enum": [
        (("--count-only",), False, False, None),
        (("--products",), False, False, None),
    ],
    "greens": [
        (("--relation",), True, None,
         ("L", "R", "H", "D", "J", "Ls", "Rs", "Hs", "Ds", "Js")),
    ],
    "check": [
        (("--property",), True, None,
         ("regular", "jtrivial", "left-abundant", "right-abundant", "abundant",
          "semilattice", "adequate", "right-adequate", "ample", "right-ample",
          "inverse-ideal", "right-inverse-ideal")),
        (("--expect",), False, "true", ("true", "false")),
    ],
    "rank": [(("--show-generators",), False, False, None)],
    "decompose": [
        (("--element",), True, None, None),
        (("--mode",), True, None, ("essentials", "requisite", "lift")),
    ],
    "maximal": [],
}


def test_every_subcommand_keeps_its_arguments_in_order():
    subcommands = cli.build_parser()._subparsers._group_actions[0].choices
    got = {
        name: [
            (tuple(a.option_strings), a.required, a.default,
             None if a.choices is None else tuple(a.choices))
            for a in sub._actions
        ]
        for name, sub in subcommands.items()
    }
    want = {
        name: [_HELP_ACTION, *_FAMILY_ACTIONS, _FORMAT_ACTION, *own]
        for name, own in SUBCOMMAND_ACTIONS.items()
    }
    want["verify"] = [
        _HELP_ACTION, _FORMAT_ACTION,
        (("--n-max",), False, 4, None),
        (("--starred-n-max",), False, None, None),
    ]
    assert list(got) == list(cli._COMMANDS)
    assert got == want


def _readme_examples():
    """Each `$ catalanlab` command in the README's fenced blocks, with the
    lines shown after it up to the next command or the end of the block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples, shown, fenced = [], None, False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced, shown = not fenced, None
        elif fenced and line.startswith("$ catalanlab "):
            shown = []
            examples.append((line[len("$ catalanlab "):], shown))
        elif shown is not None:
            shown.append(line)
    return [(command, "\n".join(shown).strip("\n").split("\n")) for command, shown in examples]


def _matches(shown, got):
    """True when the lines got match shown, a "..." line in shown
    standing for any run of lines."""
    if not shown:
        return not got
    if shown[0] == "...":
        return any(_matches(shown[1:], got[k:]) for k in range(len(got) + 1))
    return bool(got) and shown[0] == got[0] and _matches(shown[1:], got[1:])


README_EXAMPLES = _readme_examples()


def test_the_readme_shows_its_examples():
    assert len(README_EXAMPLES) == 10


@pytest.mark.parametrize("command, shown", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES])
def test_readme_example_runs(capsys, command, shown):
    # The README shows the listing's tabs as spaces; an error line is
    # read from stderr.
    _, out, err = run_cli(capsys, *shlex.split(command))
    got = (err if shown[0].startswith("error:") else out).expandtabs().splitlines()
    assert _matches(shown, got)


def test_argparse_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["enum", "--family", "bogus", "--n", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_family_parameter_validation_maps_to_exit_two(capsys):
    code, _, err = run_cli(capsys, "enum", "--family", "k", "--n", "3", "--count-only")
    assert code == 2
    assert "needs a height parameter" in err
    code, _, _ = run_cli(
        capsys, "enum", "--family", "icn", "--n", "3", "--p", "2", "--count-only"
    )
    assert code == 2


@pytest.mark.parametrize("family", ["m", "rq"])
def test_no_height_on_the_one_chain_exits_two(capsys, family):
    code, out, err = run_cli(capsys, "enum", "--family", family, "--n", "1", "--p", "1")
    assert code == 2 and out == ""
    assert err == f"error: family '{family}' takes no valid p on the 1-chain\n"


def test_a_cold_import_loads_no_dataclasses_inspect_json_or_csv():
    # Every command is a fresh process, so what importing the package
    # loads is paid on every call.  The battery is loaded by verify alone.
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import catalanlab, catalanlab.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(catalanlab.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", probe], stdout=subprocess.PIPE,
                           env=env, timeout=60, check=True)
    loaded = set(child.stdout.decode().split())
    assert "catalanlab.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "json", "csv", "catalanlab.battery"}


def test_a_table_that_is_not_closed_exits_four(capsys, monkeypatch):
    full = families.enumerate_family(families.FamilySpec("icn", 2))
    corrupt = packed_table(full.family, elements_of(full)[1:])  # no empty map
    monkeypatch.setattr(families, "enumerate_family", lambda spec: corrupt)
    code, out, err = run_cli(capsys, "enum", "--family", "icn", "--n", "2", "--products")
    assert code == 4
    assert out == ""
    assert err.startswith("error: internal invariant failed: IC_2 is not closed")


@pytest.mark.parametrize("relation", ["Ls", "Rs"])
def test_a_gap_in_the_kernel_groups_exits_four(capsys, monkeypatch, relation):
    # The groups come from the table, so one missing is a defect, not bad input.
    # Q'_3 keys both sides' groups; IC_3 would read L* through θ off R*.
    kernel_groups = families.SemigroupTable.kernel_groups
    monkeypatch.setattr(
        families.SemigroupTable, "kernel_groups", lambda t, left: kernel_groups(t, left)[:-1]
    )
    monkeypatch.setattr(families, "_build_table", families._enumerate_table)
    args = ("greens", "--family", "qprime", "--n", "3", "--relation", relation)
    code, out, err = run_cli(capsys, *args)
    assert code == 4
    assert out == ""
    assert err == (
        f"error: internal invariant failed: {relation[0]}* kernel groups"
        " do not cover every index\n"
    )


@pytest.mark.parametrize("relation", ["Ls", "Rs"])
def test_an_overlap_in_the_kernel_groups_exits_four(capsys, monkeypatch, relation):
    # The first group also takes the last group's members.
    kernel_groups = families.SemigroupTable.kernel_groups

    def overlapping(table, left):
        groups = kernel_groups(table, left)
        return [groups[0] + groups[-1]] + groups[1:]

    monkeypatch.setattr(families.SemigroupTable, "kernel_groups", overlapping)
    monkeypatch.setattr(families, "_build_table", families._enumerate_table)
    args = ("greens", "--family", "qprime", "--n", "3", "--relation", relation)
    code, out, err = run_cli(capsys, *args)
    assert code == 4
    assert out == ""
    assert err == f"error: internal invariant failed: {relation[0]}* kernel groups overlap\n"


def test_a_generator_that_is_a_product_exits_four(capsys, monkeypatch):
    # One held column entry rewritten, y.h = a for generators a != h and
    # y != a, so that a generator is a product: maximal refuses to call
    # its complements maximal.
    table = families._enumerate_table(families.FamilySpec("qprime", 4))
    gens, columns = table.generators, table.generator_lines(False)
    a, h, y = gens[:3]
    column = list(columns[1])
    column[y] = a
    table._memo["A"] = gens, (columns[0], tuple(column), *columns[2:])
    monkeypatch.setattr(families, "_build_table", lambda spec: table)
    code, out, err = run_cli(capsys, "maximal", "--family", "qprime", "--n", "4")
    assert code == 4
    assert out == ""
    assert err == (
        f"error: internal invariant failed: Q'_4: generator {table.text_of(a)} is the"
        f" product of {table.text_of(y)} and {table.text_of(h)}\n"
    )


# stdout sha256 of rank, maximal, greens --relation Js and check (every
# property but the inverse ideals) on the two ideals that are the whole
# semigroup, in human format; recorded before K(n,n) and M(n,n-1) shared
# the tables of IC_n and Q'_n.
WHOLE_IDEAL_OUTPUTS = {
    ("k", "5", "rank"): "0d75671fb67aba4f04a3eb04854d12cc41d0d6d63513beebbd1cdb4667e6f915",
    ("k", "5", "maximal"): "c0c2d202386f2af48a873a4c3dacc41f3ddda6357a3c56bcf6708f61beb60083",
    ("k", "5", "greens"): "f95f50184e2adfc708d4c1cd95b10d7d2f60e6310f2a695afc01e84d38a80c14",
    ("k", "5", "check"): "2271774744d35a4a7923408d20b8f46b912dd59f5cd499c25972c799eed4b06b",
    ("m", "4", "rank"): "2d0d9cc53cab2de457eb3137581930d5be59dd0faa2d78885a3e7f9e5aacfa5f",
    ("m", "4", "maximal"): "c7cf9609e8e97ad28d7d9158981230c645943b077b3bda61f1f5f146e5947fa5",
    ("m", "4", "greens"): "c9d28d89598046789788fa4b61da11981647518b9d3ca7aab3c13b42273baf96",
    ("m", "4", "check"): "b699b2ef6a2ff8bb5e7bce12f352617ea279016ea2e9026d57b2ffc4cc990dda",
}
WHOLE_IDEAL_PROPERTIES = (
    "regular", "jtrivial", "left-abundant", "right-abundant", "abundant", "semilattice",
    "adequate", "right-adequate", "ample", "right-ample",
)


@pytest.mark.parametrize(
    "kind, p, command", list(WHOLE_IDEAL_OUTPUTS), ids=["-".join(k) for k in WHOLE_IDEAL_OUTPUTS]
)
def test_whole_ideals_print_their_own_labels(capsys, kind, p, command):
    # The semigroup's own table is asked first and held across both runs,
    # as the cache keeps a table only while it is held, so the ideal's run
    # reads the shared Cayley graphs and relations, and still prints its
    # label.
    whole = {"k": "icn", "m": "qprime"}[kind]
    args = {
        "rank": (),
        "maximal": (),
        "greens": ("--relation", "Js"),
        "check": tuple(x for prop in WHOLE_IDEAL_PROPERTIES for x in ("--property", prop)),
    }[command]
    semigroup = families.enumerate_family(families.FamilySpec(whole, 5))
    run_cli(capsys, command, "--family", whole, "--n", "5", *args)
    code, out, err = run_cli(capsys, command, "--family", kind, "--n", "5", "--p", p, *args)
    assert (code, err) == ((1, "") if command == "check" else (0, ""))
    label = f"K(5,{p})" if kind == "k" else f"M(5,{p})"
    assert label in out and "IC_5" not in out and "Q'_5" not in out
    assert hashlib.sha256(out.encode()).hexdigest() == WHOLE_IDEAL_OUTPUTS[kind, p, command]
    ideal = families.enumerate_family(families.FamilySpec(kind, 5, int(p)))
    assert ideal._memo is semigroup._memo and "A" in ideal._memo

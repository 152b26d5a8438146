"""Command line behavior: formats, exit codes, caps, and determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catalanlab
from catalanlab import cli, families, genrank, pinj
from catalanlab.errors import CapExceededError, ValidationError


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("CATALAN_LAB_MAX_N", raising=False)


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


@pytest.mark.parametrize("fmt", ["human", "csv"])
def test_enum_products_into_a_closed_pipe_exits_zero(fmt):
    # IC_6 has 17,424 products, far more than a pipe buffer holds, so the
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
    assert first == (b"0 0 0\n" if fmt == "human" else b"i,j,k\n")
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


# ---------------------------------------------------------------- size caps


def test_enum_default_cap_refuses_eleven(capsys):
    code, out, err = run_cli(capsys, "enum", "--family", "icn", "--n", "11", "--count-only")
    assert code == 3
    assert out == ""
    assert "capped" in err


def test_env_cap_then_flag_override(capsys, monkeypatch):
    monkeypatch.setenv("CATALAN_LAB_MAX_N", "3")
    code, _, _ = run_cli(capsys, "enum", "--family", "icn", "--n", "4", "--count-only")
    assert code == 3
    code, out, _ = run_cli(
        capsys,
        "enum", "--family", "icn", "--n", "4", "--count-only", "--max-n", "4",
    )
    assert code == 0
    assert "42" in out


def test_env_cap_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("CATALAN_LAB_MAX_N", "plenty")
    code, _, err = run_cli(capsys, "enum", "--family", "icn", "--n", "3", "--count-only")
    assert code == 2
    assert "CATALAN_LAB_MAX_N" in err


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
    from functools import reduce

    from catalanlab import pinj

    factors = [pinj.parse_text(t) for t in payload["factors"]]
    assert reduce(pinj.compose, factors) == pinj.parse_text("4:2>1,3>2")


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


def test_verification_report_direct_api():
    report = cli.verification_report(n_max=2)
    assert set(report) == {"n_max", "starred_n_max", "rows", "summary"}
    for row in report["rows"]:
        assert set(row) == {"id", "claim", "family", "expected", "computed", "status"}
    with pytest.raises(ValidationError):
        cli.verification_report(n_max=0)
    with pytest.raises(CapExceededError):
        cli.verification_report(n_max=4, starred_n_max=8)


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


def test_an_internal_invariant_failure_exits_four(capsys, monkeypatch):
    monkeypatch.setattr(genrank, "closure", lambda table, gens: frozenset())
    code, out, err = run_cli(capsys, "rank", "--family", "icn", "--n", "3")
    assert code == 4
    assert out == ""
    assert err == (
        "error: internal invariant failed: indecomposables fail to generate"
        " a J-trivial table; table is corrupt\n"
    )


def test_a_table_that_is_not_closed_exits_four(capsys, monkeypatch):
    full = families.enumerate_family(families.FamilySpec("icn", 2))
    corrupt = families.SemigroupTable(full.family, full.elements[1:])  # no empty map
    monkeypatch.setattr(families, "enumerate_family", lambda spec, cap: corrupt)
    code, out, err = run_cli(capsys, "enum", "--family", "icn", "--n", "2", "--products")
    assert code == 4
    assert out == ""
    assert err.startswith("error: internal invariant failed: IC_2 is not closed")

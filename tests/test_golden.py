"""Pinned bytes of the verification battery's output and of the
product table dump, and one digest over every closed-form value.

Each digest is the sha256 of the stdout of one `catalanlab verify` or
`catalanlab enum --products` run.  A change to any row's id, claim text,
values, status or order, to any product, or to the human, csv or json
rendering, changes a digest.  The n_max = 10 report is pinned in
test_acceptance.py, whose module fixture already builds it.
"""

import hashlib
import json

import pytest

from catalanlab import cli, families, formulas
from catalanlab.families import FamilySpec

GOLDEN = [
    ("json", 1, "d3702016d8c841229f051b4e362b493452d50e331179f8936f4ca804ea6abae3"),
    ("json", 2, "5092a8fbad62d5115b8ce813c43d3e4866f4373254840faa1c092f684cfc1a86"),
    ("json", 3, "8d63735b6a3bfdcd5a292b14cb3703e2dc649f340705c7a6bde8428aa1e1f430"),
    ("json", 4, "08ba67241efc82a7950dadadff6e99ba4a5ad12627d5ce2ed4c8b1d90e54f34b"),
    ("json", 5, "71b6e05d813baee861308228a36afa5f0798b54853f33eae56dd4726cd68f8ea"),
    ("human", 4, "bc6b96c2b59c00667e1c64278b1959401c74f850f3a73225c1c9e9d16c1e772c"),
    ("csv", 4, "91ccd4b531b51109a18b2434f98257cc26d9bf198510937773e60e230e5940f1"),
]


PRODUCTS_GOLDEN = [
    ("icn", "3", None, "human", "a870c34ec504fc09e46ca5d6732df68044e4b614a41b2d9cf5e9fa8862a49ea5"),
    ("icn", "3", None, "csv", "0ae65c973745518c39eca9d25ac9be3cdc3c516e042d5b705afd1411fdb8f09c"),
    ("icn", "3", None, "json", "c9f21488fc030aa7ad8e0b1360a2e5ad122049d809639559717377c0df8522cc"),
    ("rq", "4", "2", "human", "c6d0a8d7333cd5fbe7247fbd19889792533eda9c1a0d8d24e95afcd694570f48"),
    ("rq", "4", "2", "csv", "65db91968de0bcbc10029555191d8fe7b2eb1a8ecbd37cd342c25df08374fb1e"),
    ("rq", "4", "2", "json", "6641b8c81ef00e399619d1ef9c349434d112ff8c3fe7aa2cfab609e08739faa1"),
]


@pytest.mark.parametrize("fmt,n_max,digest", GOLDEN, ids=[f"{f}-{n}" for f, n, _ in GOLDEN])
def test_verify_output_bytes_are_pinned(capsys, fmt, n_max, digest):
    assert cli.main(["verify", "--n-max", str(n_max), "--format", fmt]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "kind,n,p,fmt,digest", PRODUCTS_GOLDEN, ids=[f"{k}{n}-{f}" for k, n, _, f, _ in PRODUCTS_GOLDEN]
)
def test_product_table_bytes_are_pinned(capsys, kind, n, p, fmt, digest):
    argv = ["enum", "--family", kind, "--n", n, "--products", "--format", fmt]
    if p is not None:
        argv += ["--p", p]
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest


FORMULA_DIGEST = "741086d173e946f2a53c57ff97b8de9330bb7e13ae2cf7a9ff9cd83477e5b96f"


def test_every_closed_form_value_is_pinned():
    # Every rank_formula and count_formula value, for every kind, n from 1
    # to 12 and every valid p, hashed in one digest: a change to any
    # closed form, its range or its None changes the digest.
    rows = []
    for kind in families.KINDS:
        for n in range(1, 13):
            for p in families._valid_heights(kind, n):
                spec = FamilySpec(kind, n, p)
                rows.append(["rank", kind, n, p, formulas.rank_formula(spec)])
                for name in ("idempotents", "essentials", "requisites", "maximal", "generators"):
                    for q in [None, *range(n + 2)]:
                        rows.append([name, kind, n, p, q, formulas.count_formula(name, spec, q)])
    assert len(rows) == 18_574
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == FORMULA_DIGEST

"""Pinned bytes of the verification battery's output.

Each digest is the sha256 of the stdout of one `catalanlab verify` run.
A change to any row's id, claim text, values, status or order, or to the
human or csv rendering, changes a digest.  The n_max = 10 report is
pinned in test_acceptance.py, whose module fixture already builds it.
"""

import hashlib

import pytest

from catalanlab import cli

GOLDEN = [
    ("json", 1, "d3702016d8c841229f051b4e362b493452d50e331179f8936f4ca804ea6abae3"),
    ("json", 2, "5092a8fbad62d5115b8ce813c43d3e4866f4373254840faa1c092f684cfc1a86"),
    ("json", 3, "8d63735b6a3bfdcd5a292b14cb3703e2dc649f340705c7a6bde8428aa1e1f430"),
    ("json", 4, "08ba67241efc82a7950dadadff6e99ba4a5ad12627d5ce2ed4c8b1d90e54f34b"),
    ("json", 5, "71b6e05d813baee861308228a36afa5f0798b54853f33eae56dd4726cd68f8ea"),
    ("human", 4, "bc6b96c2b59c00667e1c64278b1959401c74f850f3a73225c1c9e9d16c1e772c"),
    ("csv", 4, "91ccd4b531b51109a18b2434f98257cc26d9bf198510937773e60e230e5940f1"),
]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("CATALAN_LAB_MAX_N", raising=False)


@pytest.mark.parametrize("fmt,n_max,digest", GOLDEN, ids=[f"{f}-{n}" for f, n, _ in GOLDEN])
def test_verify_output_bytes_are_pinned(capsys, fmt, n_max, digest):
    assert cli.main(["verify", "--n-max", str(n_max), "--format", fmt]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest

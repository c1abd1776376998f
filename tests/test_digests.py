"""The output ledger: every argv of ``tests/golden/digests.json`` still
writes the CSV bytes and exit code recorded there.

The digests hold only in the numerical environment that wrote them (numpy,
scipy, BLAS and its kernel set), so a different one fails with the
difference named; it is never skipped.  A change that moves bits on purpose
regenerates the ledger with ``tests/golden/write_digests.py``.
"""

import json

import pytest

from golden import write_digests

LEDGER = json.loads(write_digests.LEDGER.read_text(encoding="utf-8"))


def test_ledger_covers_every_argv():
    assert {name: entry["argv"] for name, entry in LEDGER["argvs"].items()} == write_digests.ARGVS
    assert LEDGER["seed"] == write_digests.SEED


@pytest.mark.parametrize("name", sorted(LEDGER["argvs"]))
def test_csv_bytes_match_the_ledger(name):
    env = write_digests.environment()
    moved = {key: (LEDGER["environment"].get(key), value) for key, value in env.items()
             if LEDGER["environment"].get(key) != value}
    assert not moved, f"environment differs from the ledger's (ledger, here): {moved}"
    entry = LEDGER["argvs"][name]
    assert write_digests.run(entry["argv"]) == {"exit": entry["exit"], "sha256": entry["sha256"]}

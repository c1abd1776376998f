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


class TestCheckMode:
    """``write_digests.py --check`` names every moved argv and writes nothing;
    ``run`` is stubbed with the ledger's own entries, so no CLI runs."""

    @pytest.fixture
    def doctored(self, tmp_path, monkeypatch):
        ledger = json.loads(write_digests.LEDGER.read_text(encoding="utf-8"))
        recorded = {tuple(entry["argv"]): {"exit": entry["exit"], "sha256": entry["sha256"]}
                    for entry in ledger["argvs"].values()}
        monkeypatch.setattr(write_digests, "run", lambda argv: recorded[tuple(argv)])
        path = tmp_path / "digests.json"
        monkeypatch.setattr(write_digests, "LEDGER", path)

        def write(edit):
            doctored = json.loads(json.dumps(ledger))
            edit(doctored["argvs"])
            path.write_text(json.dumps(doctored), encoding="utf-8")
            return path.read_bytes()
        return write

    def test_reports_each_moved_argv_and_exits_1(self, doctored, capsys):
        def edit(argvs):
            argvs["validate_dist"]["sha256"] = "0" * 64
            argvs["cfar_check_mixed"]["exit"] = 1
            del argvs["mesa_interference"]
            argvs["retired"] = {"argv": ["identities"], "exit": 0, "sha256": "f" * 64}

        before = doctored(edit)
        assert write_digests.main(["--check"]) == 1
        new = {name: write_digests.run(argv) for name, argv in write_digests.ARGVS.items()}
        mixed, validate = new["cfar_check_mixed"]["sha256"], new["validate_dist"]["sha256"]
        assert capsys.readouterr().out.splitlines() == [
            f"cfar_check_mixed: exit 1 sha256 {mixed[:12]} -> exit 0 sha256 {mixed[:12]}",
            f"mesa_interference: absent -> exit 0 sha256 "
            f"{new['mesa_interference']['sha256'][:12]}",
            f"retired: exit 0 sha256 {'f' * 12} -> absent",
            f"validate_dist: exit 0 sha256 {'0' * 12} -> exit 0 sha256 {validate[:12]}",
        ]
        assert write_digests.LEDGER.read_bytes() == before

    def test_unmoved_ledger_exits_0_silently(self, doctored, capsys):
        before = doctored(lambda argvs: None)
        assert write_digests.main(["--check"]) == 0
        assert capsys.readouterr().out == ""
        assert write_digests.LEDGER.read_bytes() == before

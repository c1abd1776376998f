import argparse
import csv
import os
import stat
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import adaptivedet
import oracles
from adaptivedet import batcheval, cli, linalg, montecarlo as mc, registry, scenario as sc
from adaptivedet.distributions import pd_cells, resolve_law
from golden import write_digests


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _exit_status(argv):
    """``cli.main``'s exit status, whether returned or raised by argparse."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class TestEmitCsv:
    def test_header_only_for_zero_rows(self, tmp_path):
        out = tmp_path / "empty.csv"
        cli.emit_csv([], str(out), cli.GRID_COLUMNS)
        text = out.read_text()
        assert text == ",".join(cli.GRID_COLUMNS) + "\n"

    def test_round_trip_ten_digits(self, tmp_path):
        out = tmp_path / "rt.csv"
        value = 0.12345678912345
        cli.emit_csv([{"detector": "sglrt", "pd_analytic": value}], str(out),
                     cli.GRID_COLUMNS)
        row = _read(str(out))[0]
        assert float(row["pd_analytic"]) == pytest.approx(value, rel=1e-9)
        assert row["pd_mc"] == ""

    def test_numpy_and_python_values_format_alike(self, tmp_path):
        """A column mixing numpy floats, Python floats, ints, strings, None
        and "" writes each value as its one-by-one ``_fmt`` does."""
        values = [np.float64(0.1) / 3, 1 / 3, np.float64("nan"), np.float32(0.1), None, "",
                  7, np.int64(12), "x", 1e-300, np.float64(-2.5e17), np.float64(np.inf)]
        rows = [{"detector": str(i), "pd_mc": v, "threshold": values[-1 - i]}
                for i, v in enumerate(values)]
        out = tmp_path / "mix.csv"
        cli.emit_csv(rows, str(out), cli.GRID_COLUMNS)
        got = _read(str(out))
        assert [r["pd_mc"] for r in got] == [cli._fmt(v) for v in values]
        assert [r["threshold"] for r in got] == [cli._fmt(v) for v in values[::-1]]

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "lf.csv"
        cli.emit_csv([{"detector": "a"}], str(out), cli.GRID_COLUMNS)
        raw = out.read_bytes()
        assert b"\r" not in raw


    def test_fifo_is_written_in_place(self, tmp_path, capsys):
        """``--out`` naming a FIFO writes the CSV into it and leaves it a
        FIFO, where a rename over it would put a regular file in its place."""
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        # the read end first, so that opening the write end does not block
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert cli.main(["identities", "--trials", "1000", "--out", str(fifo)]) == 0
            chunks = []
            while chunk := os.read(reader, 1 << 16):
                chunks.append(chunk)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert cli.main(["identities", "--trials", "1000"]) == 0
        assert b"".join(chunks).decode() == capsys.readouterr().out
        assert sorted(os.listdir(tmp_path)) == ["out.fifo"]

    def test_symlink_is_written_through(self, tmp_path):
        """``--out`` naming a symlink to a regular file (``/dev/stdout``
        under a shell redirect) writes the file it names and keeps the link,
        where a rename would put a regular file in the link's place."""
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n", encoding="utf-8")
        link.symlink_to(target)
        assert cli.main(["identities", "--trials", "1000", "--out", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == target
        assert target.read_text(encoding="utf-8").startswith("identity,")
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]


class TestGridCommands:
    def test_pd_vs_snr_cardinality_and_schema(self, tmp_path):
        out = tmp_path / "snr.csv"
        rc = cli.main(["pd-vs-snr", "--snr", "6,12,18", "--detectors",
                       "sglrt,samf", "--mode", "analytic", "--out", str(out)])
        assert rc == 0
        rows = _read(str(out))
        assert len(rows) == 6  # |detectors| * |snr grid|
        assert list(rows[0]) == list(cli.GRID_COLUMNS)
        assert rows[0]["pd_mc"] == ""  # inapplicable in analytic mode

    def test_mesa_cardinality(self, tmp_path):
        out = tmp_path / "mesa.csv"
        rc = cli.main(["mesa", "--snr", "0,10,20", "--cos2phi", "0.0,0.5,1.0",
                       "--detectors", "samf", "--mode", "analytic",
                       "--out", str(out), "--N", "6", "--p", "2", "--L", "12"])
        assert rc == 0
        assert len(_read(str(out))) == 9

    def test_byte_identical_reruns_and_batch_invariance(self, tmp_path):
        args = ["pd-vs-snr", "--snr", "10,14", "--detectors", "kglrt,aed",
                "--mode", "both", "--trials", "400", "--seed", "7",
                "--N", "6", "--p", "1", "--L", "12"]
        out1, out2, out3 = (tmp_path / f"r{i}.csv" for i in range(3))
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert cli.main(args + ["--out", str(out3), "--batch-size", "97"]) == 0
        assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()

    @pytest.mark.parametrize("K", [1, 3])
    def test_grid_whitens_the_covariance_once(self, K, tmp_path, monkeypatch):
        """Every cell's signal mean comes from one whitening of R: one inverse
        Cholesky factor in the signal builder per grid, not one per cell."""
        calls = []

        def counting(A):
            calls.append(A.shape)
            return linalg.lower_inverse(A)

        # the builder's own view of linalg, so that only its whitening counts
        monkeypatch.setattr(sc, "linalg", SimpleNamespace(
            **{**vars(linalg), "lower_inverse": counting}))
        detectors = "kglrt" if K == 1 else "gkglrt"
        assert cli.main(["pd-vs-snr", "--snr", "0,5,10", "--cos2phi", "0.5", "--K", str(K),
                         "--detectors", detectors, "--mode", "montecarlo", "--trials", "200",
                         "--N", "6", "--p", "1", "--L", "12",
                         "--out", str(tmp_path / "g.csv")]) == 0
        assert calls == [(6, 6)]

    def test_config_file_with_cli_override(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "# golden run\n"
            "snr = 6,12\n"
            "detectors = sglrt\n"
            "mode = analytic\n"
            "N = 6\np = 2\nL = 12\n")
        out = tmp_path / "cfg.csv"
        rc = cli.main(["pd-vs-snr", "--config", str(cfgfile),
                       "--detectors", "sglrt,samf", "--out", str(out)])
        assert rc == 0
        rows = _read(str(out))
        dets = {r["detector"] for r in rows}
        assert dets == {"sglrt", "samf"}  # flag overrides file
        assert {r["snr_db"] for r in rows} == {"6", "12"}  # file value applies

    def test_invalid_config_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("nonsense = 1\n")
        rc = cli.main(["pd-vs-snr", "--config", str(cfgfile)])
        assert rc != 0
        assert "nonsense" in capsys.readouterr().err

    @pytest.mark.parametrize("line,named", [("N = abc", "--N"), ("mode = bogus", "--mode")])
    def test_config_value_error_names_its_flag(self, line, named, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(line + "\n")
        assert _exit_status(["pd-vs-snr", "--config", str(cfgfile)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("nested", [False, True])
    def test_config_files_do_not_nest(self, nested, tmp_path, capsys):
        """A ``config`` key in a file exits 2 rather than naming a file that
        is never read; without it, the file's other keys (``out`` too) apply."""
        out = tmp_path / "nest.csv"
        cfgfile = tmp_path / "outer.cfg"
        cfgfile.write_text(f"out = {out}\ndetectors = asd\nsnr = 6\n"
                           + (f"config = {tmp_path / 'nonexistent.cfg'}\n" if nested else ""))
        if nested:
            assert cli.main(["pd-vs-snr", "--config", str(cfgfile)]) == 2
            assert "error: config files do not nest" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert cli.main(["pd-vs-snr", "--config", str(cfgfile)]) == 0
            assert [r["detector"] for r in _read(str(out))] == ["asd"]

    def test_config_list_may_start_negative(self, tmp_path):
        """A config value is the flag's value even when it starts with '-'."""
        cfgfile = tmp_path / "neg.cfg"
        cfgfile.write_text("snr = -6,0\nbatch_size = 64\n")
        out = tmp_path / "neg.csv"
        assert cli.main(["pd-vs-snr", "--config", str(cfgfile), "--detectors", "asd",
                         "--out", str(out)]) == 0
        assert [r["snr_db"] for r in _read(str(out))] == ["-6", "0"]

    def test_unknown_detector_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = cli.main(["pd-vs-snr", "--detectors", "bogus", "--out", str(out)])
        assert rc != 0
        assert not out.exists()  # no partial output


class TestDefaults:
    """The axes and pfa a run gets for flags it leaves unset, read from its CSV."""

    SMALL = ["--N", "4", "--p", "1", "--L", "8"]

    @staticmethod
    def _csv(tmp_path, argv):
        out = tmp_path / f"{len(list(tmp_path.iterdir()))}.csv"
        assert cli.main(argv + ["--out", str(out)]) in (0, 1)
        return out.read_bytes()

    @pytest.mark.parametrize("command,snrs,cos2s", [
        ("pd-vs-snr", range(25), [1.0]),
        ("pd-vs-mismatch", [18.0], np.linspace(0.0, 1.0, 21)),
        ("mesa", range(41), np.linspace(0.0, 1.0, 21)),
    ])
    def test_grid_axes_and_pfa(self, command, snrs, cos2s, tmp_path):
        argv = [command, "--detectors", "samf", "--mode", "analytic", *self.SMALL]
        bare = self._csv(tmp_path, argv)
        rows = list(csv.DictReader(bare.decode().splitlines()))
        assert [(r["snr_db"], r["cos2phi"]) for r in rows] == [
            (cli._fmt(float(s)), cli._fmt(float(c))) for c in cos2s for s in snrs]
        assert bare == self._csv(tmp_path, argv + ["--pfa", "1e-3"])
        assert bare != self._csv(tmp_path, argv + ["--pfa", "1e-2"])

    def test_cfar_check_pfa(self, tmp_path):
        argv = ["cfar-check", "--detectors", "kglrt", "--trials", "1000", *self.SMALL]
        bare = self._csv(tmp_path, argv)
        assert bare == self._csv(tmp_path, argv + ["--pfa", "1e-2"])
        assert bare != self._csv(tmp_path, argv + ["--pfa", "1e-3"])


class TestDetectorList:
    @pytest.mark.parametrize("argv,named", [
        (["cfar-check", "--detectors", "gkglrt,gkglrt"], "gkglrt"),
        (["cfar-check", "--detectors", "kglrt,nope"], "nope"),
        (["pd-vs-snr", "--detectors", "samf,sglrt,samf", "--mode", "both"], "samf"),
        (["pd-vs-snr", "--detectors", "sglrt,bogus"], "bogus"),
    ])
    def test_unknown_or_repeated_names_exit_1(self, argv, named, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli.main(argv + ["--trials", "200", "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestArguments:
    def test_negative_batch_size_exits_1(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert cli.main(["cfar-check", "--N", "4", "--p", "1", "--L", "8", "--trials", "200",
                         "--detectors", "gkglrt,glrdd", "--batch-size", "-3", "--seed", "1",
                         "--out", str(out)]) == 1
        assert "batch size" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("env,environment,sigma2", [
        ("he", sc.HOMOGENEOUS, 1.0), ("phe", sc.PARTIALLY_HOMOGENEOUS, 1.0),
        (" PHE:4 ", sc.PARTIALLY_HOMOGENEOUS, 4.0)])
    def test_environments(self, env, environment, sigma2):
        args = cli.build_parser()[0].parse_args(["pd-vs-snr", "--env", env])
        cfg = cli._scenario_from_args(args)
        assert (cfg.environment, cfg.sigma2) == (environment, sigma2)

    @pytest.mark.parametrize("env", ["phenomenal", "phe2", "he:4", "hex", "phe:", ""])
    def test_unknown_environment_exits_1(self, env, tmp_path, capsys):
        out = tmp_path / "e.csv"
        assert cli.main(["pd-vs-snr", "--env", env, "--snr", "0", "--detectors", "asd",
                         "--out", str(out)]) == 1
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("covariances", [",", "", " , "])
    def test_empty_covariance_list_exits_1(self, covariances, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert cli.main(["cfar-check", "--covariances", covariances, "--trials", "200",
                         "--out", str(out)]) == 1
        assert "error: --covariances needs at least one" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["pd-vs-snr", "--mode", "analytic", "--snr", "inf,10"],
        ["pd-vs-snr", "--mode", "montecarlo", "--snr", "nan"],
        ["pd-vs-snr", "--mode", "montecarlo", "--snr", "inf"],
        ["pd-vs-mismatch", "--mode", "analytic", "--cos2phi", "0.5,nan"],
        ["mesa", "--mode", "both", "--q", "1", "--snr", "0", "--cos2phi", "1",
         "--jnr-db", "inf"],
        ["pd-vs-snr", "--mode", "montecarlo", "--snr", "0", "--env", "phe:inf"],
        ["pd-vs-snr", "--mode", "both", "--snr", "0", "--env", "phe:nan"],
        ["pd-vs-snr", "--mode", "both", "--snr", "0", "--covariance", "ar1w:0.9:nan"],
        ["cfar-check", "--covariances", "identity,ar1w:0.9:inf"],
        # finite in dB, but 10^(dB/10) overflows a float
        ["pd-vs-snr", "--mode", "analytic", "--snr", "4000"],
        ["pd-vs-snr", "--mode", "montecarlo", "--snr", "0,3090"],
        ["mesa", "--mode", "both", "--q", "1", "--snr", "0", "--cos2phi", "1",
         "--jnr-db", "4000"],
        ["cfar-check", "--covariances", "identity,ar1w:0.9:4000"],
    ])
    def test_non_finite_input_exits_1(self, argv, tmp_path, capsys):
        out = tmp_path / "n.csv"
        assert cli.main(argv + ["--N", "4", "--p", "1", "--L", "8", "--trials", "200",
                                "--pfa", "1e-2", "--detectors", "asd",
                                "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["analytic", "montecarlo"])
    def test_snr_past_100_db_exits_1(self, mode, tmp_path, capsys):
        # d = 1 + v - u errs by about eps * rho: at 160 dB it rounds to zero
        out = tmp_path / "s.csv"
        assert cli.main(["pd-vs-snr", "--mode", mode, "--snr", "0,160", "--N", "4", "--p", "1",
                         "--trials", "200", "--pfa", "1e-2", "--out", str(out)]) == 1
        assert "at most 100 dB" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["analytic", "montecarlo"])
    @pytest.mark.parametrize("snr, jnr, rc", [("100", "10", 1), ("0", "100", 1),
                                              ("90", "10", 0), ("0", "99", 0)])
    def test_signal_plus_jammer_past_100_db_exits_1_in_both_modes(self, mode, snr, jnr, rc,
                                                                  tmp_path, capsys):
        # the engine bounds the white energy of the whole mean, jammer included
        out = tmp_path / "j.csv"
        assert cli.main(["pd-vs-snr", "--mode", mode, "--snr", snr, "--jnr-db", jnr,
                         "--N", "6", "--p", "2", "--q", "1", "--L", "12", "--trials", "200",
                         "--pfa", "1e-2", "--detectors", "asd,glrt_he_i",
                         "--out", str(out)]) == rc
        assert ("--snr and --jnr-db together are at most 100 dB"
                in capsys.readouterr().err) == bool(rc)
        assert out.exists() == (not rc)

    @pytest.mark.parametrize("mode", ["analytic", "montecarlo", "both"])
    @pytest.mark.parametrize("flag", ["--snr=", "--cos2phi="])
    def test_empty_grid_axis_writes_the_header_in_every_mode(self, mode, flag, tmp_path,
                                                              monkeypatch):
        # an interference law once reached the geometry with no signal at all;
        # an empty grid now solves no threshold and draws no trial
        monkeypatch.setattr(cli, "_thresholds", None)
        out = tmp_path / "e.csv"
        assert cli.main(["pd-vs-snr", "--mode", mode, flag, "--N", "6", "--p", "2", "--q", "1",
                         "--L", "12", "--pfa", "1e-2", "--trials", "200",
                         "--detectors", "glrt_he_i,sglrt,smi", "--out", str(out)]) == 0
        assert out.read_text() == ",".join(cli.GRID_COLUMNS) + "\n"
        # the other flags are still checked
        assert cli.main(["pd-vs-snr", "--mode", mode, flag, "--covariance", "ar2:1",
                         "--out", str(out)]) == 1

    @pytest.mark.parametrize("mode", ["analytic", "both"])
    def test_gkglrt_and_gamf_give_no_pd_at_k1_off_p_one(self, mode, tmp_path):
        """At K = 1 the grid's signal lies in span(H), off s, so these two
        have no PD law at p = 2; their thresholds are those of p = 1."""
        out = tmp_path / "g.csv"
        argv = ["pd-vs-snr", "--mode", mode, "--N", "10", "--q", "2", "--L", "20",
                "--pfa", "1e-2", "--snr", "0,6", "--detectors", "gkglrt,gamf",
                "--trials", "200", "--out", str(out)]
        assert cli.main(argv + ["--p", "2"]) == 0
        rows = _read(out)
        assert len(rows) == 4 and all(row["pd_analytic"] == "" for row in rows)
        assert all(row["pd_mc"] != "" for row in rows) == (mode == "both")
        assert cli.main(argv + ["--p", "1"]) == 0
        assert [r["threshold"] for r in rows] == [r["threshold"] for r in _read(out)]
        # at p = 1 gkglrt has a PD at every mismatch, gamf at cos2phi = 1 only
        assert cli.main(argv + ["--p", "1", "--cos2phi", "0.5,1"]) == 0
        filled = {(r["detector"], r["cos2phi"]) for r in _read(out) if r["pd_analytic"] != ""}
        assert filled == {("gkglrt", "0.5"), ("gkglrt", "1"), ("gamf", "1")}

    def test_monte_carlo_at_100_db_resolves_every_point_bank(self, tmp_path):
        """At the SNR limit every point, rank-one and interference statistic
        is finite (tier-1 turns a RuntimeWarning into an error), and each
        analytic PD of 1 is met by the Monte Carlo count."""
        out = tmp_path / "h.csv"
        names = [n for n in registry.names(family="point") if n != "wald_phe_i"]
        assert cli.main(["pd-vs-snr", "--mode", "both", "--snr", "100", "--N", "6", "--p", "2",
                         "--q", "1", "--trials", "200", "--pfa", "1e-2",
                         "--detectors", ",".join(names), "--out", str(out)]) == 0
        rows = _read(out)
        assert [row["detector"] for row in rows] == names
        for row in rows:
            if row["pd_analytic"] == "1":
                assert row["pd_mc"] == "1", row["detector"]


class TestValidationCommands:
    def test_identities_pass(self, tmp_path):
        out = tmp_path / "ids.csv"
        rc = cli.main(["identities", "--trials", "200", "--out", str(out)])
        assert rc == 0
        rows = _read(str(out))
        assert len(rows) == 8
        assert all(float(r["max_rel_err"]) <= 1e-10 for r in rows)

    def test_validate_dist_small(self, tmp_path):
        out = tmp_path / "dist.csv"
        rc = cli.main(["validate-dist", "--trials", "20000", "--seed", "3",
                       "--out", str(out)])
        rows = _read(str(out))
        assert {r["suite"] for r in rows} == {"cchi2", "cf", "cbeta", "aed-law"}
        assert rc == 0
        assert all(r["status"] == "pass" for r in rows)

    def test_cfar_check_exit_codes(self, tmp_path):
        out = tmp_path / "cfar.csv"
        rc = cli.main(["cfar-check", "--detectors", "kglrt,smi",
                       "--covariances", "identity,ar1w:0.99:30",
                       "--trials", "20000", "--N", "6", "--p", "1",
                       "--L", "12", "--seed", "9", "--out", str(out)])
        rows = _read(str(out))
        by_det = {}
        for r in rows:
            by_det.setdefault(r["detector"], set()).add(r["status"])
        assert by_det["kglrt"] == {"pass"}
        assert by_det["smi"] == {"fail"}
        assert rc == 0  # smi is labeled non-CFAR; its failure is expected

    def test_cfar_check_batch_size_invariance(self, tmp_path):
        args = ["cfar-check", "--detectors", "kglrt,asd,smi", "--trials", "3000",
                "--N", "6", "--p", "1", "--L", "12", "--seed", "4"]
        blobs = []
        for extra in ([], ["--batch-size", "64"], ["--batch-size", "97"],
                      ["--batch-size", "577"]):
            out = tmp_path / f"cfar{len(blobs)}.csv"
            cli.main(args + extra + ["--out", str(out)])
            blobs.append(out.read_bytes())
        assert len(_read(str(tmp_path / "cfar0.csv"))) == 9
        assert blobs[0] == blobs[1] == blobs[2] == blobs[3]

    @pytest.mark.parametrize("argv", [
        ["pd-vs-snr", "--mode", "both", "--snr", "0,10", "--q", "1",
         "--detectors", "sglrt,kglrt,glrt_he_i,smf,mf,smi", "--trials", "700"],
        ["cfar-check", "--detectors", "kglrt,asd,smi", "--trials", "700"],
        ["pd-vs-snr", "--mode", "montecarlo", "--K", "3", "--snr", "5",
         "--detectors", "gkglrt,glrt_phe,snrdd", "--trials", "700"],
    ])
    def test_csv_ignores_batch_size_across_block_edges(self, argv, tmp_path):
        """Batch sizes below, at, just above and far from the 64-trial block
        give the same bytes."""
        blobs = []
        for size in (1, 63, 64, 65, 311, 4096):
            out = tmp_path / f"b{size}.csv"
            assert cli.main(argv + ["--N", "6", "--p", "1", "--L", "12", "--pfa", "1e-2",
                                    "--seed", "4", "--batch-size", str(size),
                                    "--out", str(out)]) in (0, 1)
            blobs.append(out.read_bytes())
        assert blobs[0].count(b"\n") > 3
        assert all(blob == blobs[0] for blob in blobs)

    def test_cfar_check_draws_each_stream_once(self, tmp_path, stream_draws):
        """All three covariances read one draw of each (key, block) stream:
        500 trials are 8 blocks of 64."""
        cli.main(["cfar-check", "--detectors", "kglrt,asd,smi", "--trials", "500",
                  "--N", "6", "--p", "1", "--L", "12", "--seed", "4", "--batch-size", "97",
                  "--out", str(tmp_path / "cfar.csv")])
        assert len(_read(str(tmp_path / "cfar.csv"))) == 9
        counts = Counter(stream_draws)
        assert sorted(counts) == [(4, b) for b in range(8)]
        assert set(counts.values()) == {1}


class TestDistributedBanks:
    # N K / (L + K) = 1 reaches the rank of the H1 data Gram, so the PHE
    # noise power has no root; only the PHE detectors need it
    @pytest.mark.parametrize("argv", [
        ["cfar-check", "--N", "2", "--p", "1", "--K", "4", "--L", "4",
         "--detectors", "gkglrt,glrdd", "--trials", "2000"],
        ["pd-vs-snr", "--N", "2", "--p", "1", "--K", "4", "--L", "4",
         "--detectors", "glrdd", "--mode", "montecarlo"],
    ])
    def test_runs_without_a_phe_root(self, argv, tmp_path):
        out = tmp_path / "x.csv"
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert _read(str(out))

    def test_rank_one_plan_never_enters_the_subspace_banks(self, monkeypatch, tmp_path):
        """``gkglrt`` and ``gasd`` read no subspace, so the noise pass
        prepares and evaluates no direction or DOS statistic."""
        def refuse(*args):
            raise AssertionError("entered the subspace banks")

        monkeypatch.setattr(batcheval, "_subspace_banks", refuse)
        out = tmp_path / "x.csv"
        cli.main(["cfar-check", "--N", "8", "--p", "2", "--K", "4", "--L", "16",
                  "--detectors", "gkglrt,gasd", "--trials", "1000", "--out", str(out)])
        assert {row["detector"] for row in _read(str(out))} == {"gkglrt", "gasd"}


def _assert_rows_match_analytic(rows):
    """The exact binomial test of every row's ``pd_mc`` count against its
    ``pd_analytic`` (:func:`oracles.assert_counts`, size below 6e-7)."""
    oracles.assert_counts([((r["detector"], r["snr_db"], r["cos2phi"]),
                            round(float(r["pd_mc"]) * int(r["n_trials"])),
                            int(r["n_trials"]), float(r["pd_analytic"])) for r in rows])


class TestSmfMismatch:
    def test_analytic_pd_matches_every_row(self, tmp_path):
        """The known-covariance SMF sees only the matched energy rho cos2phi.
        The trial count catches a row whose PD is off by 0.03 with
        probability 0.99; a law that ignores cos2phi is off by 0.4 to 0.95."""
        out = tmp_path / "smf.csv"
        n = oracles.trials_to_detect(0.03, rows=3)
        rc = cli.main(["pd-vs-mismatch", "--snr", "12", "--cos2phi", "0,0.5,1",
                       "--detectors", "smf", "--mode", "both", "--trials", str(n),
                       "--seed", "3", "--out", str(out)])
        rows = _read(str(out))
        assert rc == 0 and len(rows) == 3
        _assert_rows_match_analytic(rows)


class TestJammer:
    def test_no_jammer_at_q0(self, tmp_path, capsys):
        # q = 0 leaves no span(J) for the jammer to lie in: it is refused, not dropped
        out = tmp_path / "j.csv"
        assert cli.main(["pd-vs-snr", "--jnr-db", "30", "--detectors", "glrt_he_i",
                         "--snr", "10", "--out", str(out)]) == 1
        assert "--jnr-db" in capsys.readouterr().err and not out.exists()

    def test_only_interference_laws_give_pd(self, tmp_path):
        """H0 carries no jammer, so every threshold keeps its law; under H1
        only the laws that reject span(J) keep their PD.  The jammed
        ``glrt_he_i`` counts pass the exact binomial test against that PD
        (size below 6e-7); the trial count catches a jammer leak that moves a
        row's PD by 0.05 with probability 0.99."""
        n = oracles.trials_to_detect(0.05, rows=2)
        common = ["pd-vs-snr", "--mode", "both", "--q", "2", "--snr", "10,20",
                  "--trials", str(n), "--detectors", "sglrt,glrt_he_i,smf,gkglrt"]
        jammed, clean = tmp_path / "j.csv", tmp_path / "c.csv"
        assert cli.main(common + ["--jnr-db", "30", "--out", str(jammed)]) == 0
        assert cli.main(common + ["--out", str(clean)]) == 0
        for j, c in zip(_read(str(jammed)), _read(str(clean))):
            assert j["threshold"] == c["threshold"] != ""
            if j["detector"] == "glrt_he_i":
                assert j["pd_analytic"] == c["pd_analytic"] != ""
            else:
                assert j["pd_analytic"] == "", j
        _assert_rows_match_analytic([j for j in _read(str(jammed))
                                     if j["detector"] == "glrt_he_i"])

    @pytest.mark.parametrize("detector,kind", [("sglrt", "point"), ("smf", "point"),
                                               ("gamf", "distributed"), ("gkglrt", "distributed")])
    def test_resolver_drops_the_pd_of_other_laws(self, detector, kind):
        K = 4 if kind == "distributed" else 1
        law = resolve_law(detector, 8, 1, 16, q=2, K=K, jammer=True)
        assert law.params == resolve_law(detector, 8, 1, 16, q=2, K=K).params
        assert "jammer" in law.no_pd
        assert np.isnan(pd_cells(law, 1.0, [0.0, 10.0], [1.0, 1.0])).all()


class TestSubcommandFlags:
    @pytest.mark.parametrize("argv", [
        ["identities", "--N", "3"],
        ["identities", "--detectors", "nope"],
        ["validate-dist", "--mode", "both"],
        ["validate-dist", "--pfa", "1e-2"],
        ["cfar-check", "--mode", "both"],
        ["cfar-check", "--jnr-db", "10"],
        ["cfar-check", "--covariance", "identity"],
    ])
    def test_unread_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unread_config_key_is_refused(self, tmp_path, capsys):
        cfgfile = tmp_path / "ids.cfg"
        cfgfile.write_text("N = 3\n")
        assert cli.main(["identities", "--config", str(cfgfile)]) == 2
        assert "unknown config keys" in capsys.readouterr().err


class TestPerCommandParser:
    """``build_parser(command)`` builds only that command's subparser, which
    changes neither a parse nor a help text."""

    @pytest.mark.parametrize("name", sorted(write_digests.ARGVS))
    def test_parses_each_ledger_argv_as_the_full_parser(self, name):
        argv = write_digests.ARGVS[name]
        full, own = (cli.build_parser(command)[0].parse_args(argv) for command in (None, argv[0]))
        assert vars(own) == vars(full)

    def test_only_the_named_command_is_built(self):
        assert list(cli.build_parser("mesa")[1]) == ["mesa"]
        assert list(cli.build_parser("no-such-command")[1]) == list(cli.COMMANDS)

    @pytest.mark.parametrize("columns", ["80", "200"])
    @pytest.mark.parametrize("command", [None, *cli.COMMANDS])
    def test_help_matches_the_default_formatter(self, command, columns, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", columns)
        parser, sub_map = cli.build_parser()
        shown = sub_map[command] if command else parser
        shown.formatter_class = argparse.HelpFormatter
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == shown.format_help()


class TestIdentitySuite:
    def test_one_perturbed_instance_fails_its_row(self, tmp_path, monkeypatch):
        real = batcheval.evaluate
        calls = []

        def perturbed(prep, x, means=None):
            out = real(prep, x, means)
            if not calls:
                out["samf"] = out["samf"].copy()
                out["samf"][0] *= 1 + 1e-8
            calls.append(1)
            return out

        monkeypatch.setattr(batcheval, "evaluate", perturbed)
        out = tmp_path / "ids.csv"
        assert cli.main(["identities", "--trials", "1000", "--out", str(out)]) == 1
        rows = _read(str(out))
        assert [r["identity"] for r in rows] == [name for name, _, _ in cli.IDENTITIES]
        assert {r["identity"] for r in rows if r["status"] == "fail"} == {"samf=sglrt/beta"}

    @staticmethod
    def _record(monkeypatch):
        """Lists of the chunks the suite draws, (T, H, J, x) each, and of the
        (test vectors, statistics) of each evaluation, filled as it runs."""
        drawn, evaluated = [], []
        draw, evaluate = cli.identity_instances, batcheval.evaluate

        def drawing(rng, B, N, p):
            drawn.append(draw(rng, B, N, p))
            return drawn[-1]

        def evaluating(prep, x, means=None):
            evaluated.append((x, evaluate(prep, x, means)))
            return evaluated[-1][1]

        monkeypatch.setattr(cli, "identity_instances", drawing)
        monkeypatch.setattr(batcheval, "evaluate", evaluating)
        return drawn, evaluated

    @pytest.mark.parametrize("n", [1000, 2000, 5000])
    def test_chunks_cover_every_size_class(self, n, monkeypatch):
        drawn, evaluated = self._record(monkeypatch)
        cli.identity_suite(n, 0)
        # each class in turn, its instances in order, at most IDENTITY_CHUNK a call
        sizes, chunk = cli.IDENTITY_SIZES, cli.IDENTITY_CHUNK
        counts = [len(range(c, n, len(sizes))) for c in range(len(sizes))]
        expected = [(N, p, min(chunk, count - start)) for (N, p), count in zip(sizes, counts)
                    for start in range(0, count, chunk)]
        assert [(H.shape[1], H.shape[2], len(H)) for _, H, _, _ in drawn] == expected
        assert max(B for _, _, B in expected) <= chunk
        assert sum(B for _, _, B in expected) == n
        # every drawn chunk is evaluated once, in draw order
        assert len(evaluated) == len(drawn)
        assert all(x_eval is x for (x_eval, _), (_, _, _, x) in zip(evaluated, drawn))

    def test_stacked_statistics_match_the_per_instance_forms(self, monkeypatch):
        drawn, evaluated = self._record(monkeypatch)
        cli.identity_suite(1000, 3)
        assert {H.shape[1:] for _, H, _, _ in drawn} == set(cli.IDENTITY_SIZES)
        for (T, H, J, x), (_, stats) in zip(drawn, evaluated):
            for b in (0, 1, len(x) - 1):
                S = T[b] @ T[b].conj().T
                want = {**oracles.subspace_bank(x[b, :, 0], S, H[b]),
                        **oracles.interference_bank(x[b, :, 0], S, H[b], J[b])}
                assert set(stats) == set(cli.IDENTITY_STATS)
                for name in cli.IDENTITY_STATS:
                    np.testing.assert_allclose(stats[name][b], want[name], rtol=1e-10,
                                               err_msg=name)

    def test_csv_ignores_batch_size(self, tmp_path):
        blobs = []
        for extra in ([], ["--batch-size", "64"], ["--batch-size", "577"], []):
            out = tmp_path / f"ids{len(blobs)}.csv"
            assert cli.main(["identities", "--trials", "1000", "--seed", "5",
                             "--out", str(out)] + extra) == 0
            blobs.append(out.read_bytes())
        assert all(blob == blobs[0] for blob in blobs)


class TestAnalyticLaws:
    def test_p_equals_n_falls_back_to_monte_carlo(self, tmp_path):
        # sglrt has no loss factor at p = N; aed keeps its closed form
        out = tmp_path / "pn.csv"
        rc = cli.main(["pd-vs-snr", "--N", "4", "--p", "4", "--L", "8",
                       "--detectors", "sglrt,aed", "--snr", "0,10", "--trials", "2000",
                       "--mode", "both", "--out", str(out)])
        assert rc == 0
        cfg = sc.ScenarioConfig(N=4, p=4, L=8)
        assert cli.analytic_threshold("sglrt", cfg) is None
        rows = _read(str(out))
        assert len(rows) == 4
        for row in rows:
            assert row["threshold"] != "" and row["pd_mc"] != ""
            assert (row["pd_analytic"] == "") == (row["detector"] == "sglrt")

    def test_phe_keeps_only_scale_invariant_laws(self, tmp_path):
        """Only ``asd`` keeps its law under phe, and its counts pass the exact
        binomial test against it (size below 6e-7); the trial count catches
        a row whose PD is off by 0.05 (a law read at the wrong noise power)
        with probability 0.99."""
        out = tmp_path / "phe.csv"
        n = oracles.trials_to_detect(0.05, rows=2)
        rc = cli.main(["pd-vs-snr", "--env", "phe:4", "--mode", "both",
                       "--detectors", "sglrt,asd,aed", "--snr", "0,10",
                       "--trials", str(n), "--seed", "3", "--out", str(out)])
        assert rc == 0
        rows = _read(str(out))
        assert len(rows) == 6
        for row in rows:
            if row["detector"] != "asd":
                assert row["pd_analytic"] == "", row
        _assert_rows_match_analytic([row for row in rows if row["detector"] == "asd"])

    @pytest.mark.parametrize("det", ["gkglrt", "gamf"])
    def test_distributed_threshold_round_trip(self, det):
        cfg = sc.ScenarioConfig(N=8, p=1, K=4, L=16, pfa=1e-3)
        eta = cli.analytic_threshold(det, cfg)
        pfa = pd_cells(resolve_law(det, 8, 1, 16, K=4), eta, 0.0, 1.0)[0]
        assert abs(pfa - 1e-3) <= 1e-3 * 1e-3

    def test_calibration_streams_disjoint_from_scoring(self, monkeypatch, tmp_path,
                                                       stream_draws):
        draws = {}

        def tagged(name, fn):
            def wrapper(*args, **kwargs):
                start = len(stream_draws)
                try:
                    return fn(*args, **kwargs)
                finally:
                    draws[name] = set(stream_draws[start:])
            return wrapper

        monkeypatch.setattr(mc, "run_trials", tagged("calibration", mc.run_trials))
        monkeypatch.setattr(mc, "exceedance_counts", tagged("scoring", mc.exceedance_counts))
        rc = cli.main(["pd-vs-snr", "--mode", "montecarlo", "--snr=-40", "--N", "8",
                       "--p", "2", "--K", "4", "--L", "16",
                       "--detectors", "glrt_phe,rao_dos,snrdd", "--trials", "500",
                       "--pfa", "1e-2", "--seed", "2", "--out", str(tmp_path / "c.csv")])
        assert rc == 0
        # 500 trials are 8 blocks, each drawn once per pass on its own key
        assert draws["calibration"] == {(2 ^ cli.CALIBRATION_KEY_BIT, b) for b in range(8)}
        assert draws["scoring"] == {(2, b) for b in range(8)}


class TestAnalyticGrid:
    MESA = ["mesa", "--snr", "0,10,30", "--cos2phi", "0,0.5,1", "--N", "6", "--p", "2",
            "--q", "1", "--L", "12", "--trials", "400", "--pfa", "1e-2", "--seed", "5",
            "--detectors", "samf,sabort,ts_glrt_he_i,gamf,smi"]

    def _columns(self, tmp_path, mode, columns):
        out = tmp_path / f"{mode}.csv"
        assert cli.main(self.MESA + ["--mode", mode, "--out", str(out)]) == 0
        return [[row[c] for c in ("detector", "snr_db", "cos2phi", "threshold") + columns]
                for row in _read(str(out))]

    def test_both_mode_joins_the_single_modes(self, tmp_path):
        analytic = ("pd_analytic",)
        mc_cols = ("pd_mc", "ci_low", "ci_high")
        both_a = self._columns(tmp_path, "both", analytic)
        assert both_a == self._columns(tmp_path, "analytic", analytic)
        assert self._columns(tmp_path, "both", mc_cols) == self._columns(tmp_path, "montecarlo",
                                                                         mc_cols)
        filled = {(r[0], r[2]) for r in both_a if r[4] != ""}
        # gamf reads s alone: at K = 1 and p = 2 it has no PD law (its
        # matched-only PD at p = 1: test_gkglrt_and_gamf_give_no_pd_at_k1_off_p_one)
        assert {d for d, _ in filled} == {"samf", "sabort", "ts_glrt_he_i"}

    @pytest.mark.parametrize("detectors,built", [("samf,sabort", 0), ("samf,ts_glrt_he_i", 9)])
    def test_analytic_means_only_for_interference_laws(self, detectors, built, tmp_path,
                                                       monkeypatch):
        calls = []
        original = cli._build_signal

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, "_build_signal", counting)
        argv = self.MESA[:-1] + [detectors, "--mode", "analytic", "--out",
                                 str(tmp_path / "m.csv")]
        assert cli.main(argv) == 0
        assert len(calls) == built


class TestImportPath:
    # modules no benchmark command runs: each is imported only where it is used
    UNUSED = ("adaptivedet.detectors", "adaptivedet.distributions.laws", "numpy.polynomial",
              "fractions", "decimal")

    def test_cli_start_leaves_unused_modules_out(self, tmp_path):
        # scipy.special alone is half of the package's start-up: the integer-DOF
        # laws are finite numpy sums, and scipy is imported only inside the
        # functions without one (the noncentral chi-square, validate-dist)
        out = tmp_path / "dist.csv"
        run_out = tmp_path / "run.csv"
        argvs = [list(w.command) for _, w in sorted(write_digests.workloads.WORKLOADS.items())]
        argvs.append(["cfar-check", "--K", "4", "--trials", "1000", "--detectors",
                      "gkglrt,glrt_phe,snrdd,rao_dos"])
        code = textwrap.dedent(f"""
            import sys
            import adaptivedet, adaptivedet.cli as cli

            def unused():
                return [m for m in sys.modules if m.startswith("scipy") or m in {self.UNUSED!r}]

            cli.build_parser()
            assert not unused(), unused()
            for argv in {argvs!r}:
                assert cli.main(argv + ["--out", {str(run_out)!r}]) == 0, argv
                assert not unused(), (argv, unused())
            sys.exit(cli.main(["validate-dist", "--trials", "20000", "--seed", "3",
                               "--out", {str(out)!r}]))
        """)
        src = str(Path(adaptivedet.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        rows = _read(str(out))
        assert len(rows) == 7
        assert all(r["status"] == "pass" for r in rows)

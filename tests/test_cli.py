import csv
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import adaptivedet
from adaptivedet import batcheval, cli, montecarlo as mc, scenario as sc
from adaptivedet.distributions import pd_distributed


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "lf.csv"
        cli.emit_csv([{"detector": "a"}], str(out), cli.GRID_COLUMNS)
        raw = out.read_bytes()
        assert b"\r" not in raw


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

    def test_unknown_detector_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = cli.main(["pd-vs-snr", "--detectors", "bogus", "--out", str(out)])
        assert rc != 0
        assert not out.exists()  # no partial output


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
        for extra in ([], ["--batch-size", "64"], ["--batch-size", "577"]):
            out = tmp_path / f"cfar{len(blobs)}.csv"
            cli.main(args + extra + ["--out", str(out)])
            blobs.append(out.read_bytes())
        assert len(_read(str(tmp_path / "cfar0.csv"))) == 9
        assert blobs[0] == blobs[1] == blobs[2]


class TestIdentitySuite:
    def test_one_perturbed_instance_fails_its_row(self, tmp_path, monkeypatch):
        real = batcheval.point_family_stats
        calls = []

        def perturbed(x, S, H, J=None, s=None, R=None):
            out = real(x, S, H, J, s, R)
            if not calls:
                out["samf"] = out["samf"].copy()
                out["samf"][0] *= 1 + 1e-8
            calls.append(1)
            return out

        monkeypatch.setattr(batcheval, "point_family_stats", perturbed)
        out = tmp_path / "ids.csv"
        assert cli.main(["identities", "--trials", "1000", "--out", str(out)]) == 1
        rows = _read(str(out))
        assert [r["identity"] for r in rows] == [name for name, _, _ in cli.IDENTITIES]
        assert {r["identity"] for r in rows if r["status"] == "fail"} == {"samf=sglrt/beta"}

    @pytest.mark.parametrize("n", [1000, 1008, 2000])
    def test_blocks_cover_every_size_class(self, n, monkeypatch):
        real = batcheval.point_family_stats
        blocks = []

        def recording(x, S, H, J=None, s=None, R=None):
            B, N, p = H.shape
            blocks.append((N, p, B))
            return real(x, S, H, J, s, R)

        monkeypatch.setattr(batcheval, "point_family_stats", recording)
        cli.identity_suite(n, 0)
        per_class = {}
        for N, p, B in blocks:
            per_class[N, p] = per_class.get((N, p), 0) + B
        sizes = cli.IDENTITY_SIZES
        assert per_class == {size: len(range(c, n, len(sizes)))
                             for c, size in enumerate(sizes)}
        assert sum(B for _, _, B in blocks) == n
        assert max(B for _, _, B in blocks) <= 32

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
        out = tmp_path / "phe.csv"
        rc = cli.main(["pd-vs-snr", "--env", "phe:4", "--mode", "both",
                       "--detectors", "sglrt,asd,aed", "--snr", "0,10",
                       "--trials", "4000", "--seed", "3", "--out", str(out)])
        assert rc == 0
        rows = _read(str(out))
        assert len(rows) == 6
        for row in rows:
            if row["detector"] == "asd":
                pd = float(row["pd_analytic"])
                assert float(row["ci_low"]) <= pd <= float(row["ci_high"]), row
            else:
                assert row["pd_analytic"] == "", row

    @pytest.mark.parametrize("det", ["gkglrt", "gamf"])
    def test_distributed_threshold_round_trip(self, det):
        cfg = sc.ScenarioConfig(N=8, p=1, K=4, L=16, pfa=1e-3)
        eta = cli.analytic_threshold(det, cfg)
        assert abs(pd_distributed(det, 8, 4, 16, 0.0, 1.0, eta) - 1e-3) <= 1e-3 * 1e-3

    def test_calibration_streams_disjoint_from_scoring(self, monkeypatch, tmp_path):
        draws = {"calibration": set(), "scoring": set()}
        phase = []

        def tagged(name, fn):
            def wrapper(*args, **kwargs):
                phase.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    phase.pop()
            return wrapper

        original = mc.TrialStreams.standard_normal

        def recording(self, trial_index, out):
            key = tuple(int(k) for k in self._bitgen.state["state"]["key"])
            draws[phase[-1]].add((key, trial_index))
            return original(self, trial_index, out)

        monkeypatch.setattr(mc.TrialStreams, "standard_normal", recording)
        monkeypatch.setattr(mc, "run_trials", tagged("calibration", mc.run_trials))
        monkeypatch.setattr(mc, "exceedance_counts", tagged("scoring", mc.exceedance_counts))
        rc = cli.main(["pd-vs-snr", "--mode", "montecarlo", "--snr=-40", "--N", "8",
                       "--p", "2", "--K", "4", "--L", "16",
                       "--detectors", "glrt_phe,rao_dos,snrdd", "--trials", "500",
                       "--pfa", "1e-2", "--seed", "2", "--out", str(tmp_path / "c.csv")])
        assert rc == 0
        assert len(draws["calibration"]) == len(draws["scoring"]) == 500
        assert not draws["calibration"] & draws["scoring"]


class TestImportPath:
    def test_cli_start_leaves_heavy_scipy_modules_out(self, tmp_path):
        # scipy.stats and scipy.optimize (which pulls in scipy.linalg) cost
        # more start-up time than most CLI runs take; only validate-dist
        # needs scipy.stats, and it imports it when it runs
        out = tmp_path / "dist.csv"
        code = textwrap.dedent(f"""
            import sys
            import adaptivedet, adaptivedet.cli as cli
            cli.build_parser()
            heavy = ("scipy.stats", "scipy.optimize", "scipy.linalg")
            loaded = [m for m in heavy if m in sys.modules]
            assert not loaded, loaded
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

import gc
import json
import math
import warnings

import numpy as np
import pytest

from mlogsfbm import ModelParams, PairParams, msfbm_cross_cov
from mlogsfbm.cli import _read_any_panel, main
from mlogsfbm.simulate import read_panel_csv, write_panel_binary

T_SMALL = float(2**10)


@pytest.fixture
def params_file(tmp_path):
    params = ModelParams(T=T_SMALL, H=[[0.02, 0.15], [0.15, 0.02]],
                         xi=[[0.05, 0.025], [0.025, 0.05]])
    path = tmp_path / "params.json"
    path.write_text(params.to_json())
    return path


@pytest.fixture
def pair_file(tmp_path):
    doc = {"g": 0.5, "H_ij": 0.15, "lambda_i2": 0.05, "lambda_j2": 0.05,
           "H_i": 0.02, "H_j": 0.02, "T": T_SMALL}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    return path


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestSimulateCommand:
    def test_writes_panels_and_diagnostics(self, tmp_path, params_file):
        out = tmp_path / "run"
        code = main(["simulate", "--params", str(params_file),
                     "--n", "1024", "--seed", "7", "--agg", "16",
                     "--out", str(out)])
        assert code == 0
        assert (out / "field_p000.csv").is_file()
        assert (out / "logvol_measure_p000.csv").is_file()
        assert (out / "logvol_proxy_p000.csv").is_file()
        assert (out / "prices_p000.csv").is_file()
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["clipped_mass"] == 0.0
        assert diag["flag"] == "exact"
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["seed"] == 7

    def test_missing_params_file(self, tmp_path):
        code = main(["simulate", "--params", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_agg_must_divide(self, tmp_path, params_file):
        code = main(["simulate", "--params", str(params_file), "--n", "1000",
                     "--agg", "16", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_inadmissible_params(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "d": 2, "T": 100.0, "H": [[0.02, 0.01], [0.01, 0.02]],
            "xi": [[0.05, 0.02], [0.02, 0.05]]}))
        code = main(["simulate", "--params", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_malformed_value_names_the_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "d": 2, "T": None, "H": [[0.02, 0.15], [0.15, 0.02]],
            "xi": [[0.05, 0.025], [0.025, 0.05]]}))
        code = main(["simulate", "--params", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "key 'T' in parameter document must be a number" in (
            capsys.readouterr().err)

    def test_invalid_json_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"T": 1.0,')
        code = main(["simulate", "--params", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"params file {bad} is not valid JSON" in (
            capsys.readouterr().err)

    def test_byte_identical_reruns(self, tmp_path, params_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["simulate", "--params", str(params_file),
                         "--n", "512", "--seed", "3", "--agg", "8",
                         "--out", str(out)]) == 0
        for name in ("field_p000.csv", "logvol_measure_p000.csv",
                     "prices_p000.csv", "diagnostics.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        cfg1 = json.loads((out1 / "resolved_config.json").read_text())
        cfg2 = json.loads((out2 / "resolved_config.json").read_text())
        cfg1.pop("out"), cfg2.pop("out")
        assert cfg1 == cfg2

    def test_malformed_worker_count(self, tmp_path, params_file,
                                    monkeypatch, capsys):
        monkeypatch.setenv("MSFBM_WORKERS", "two")
        code = main(["simulate", "--params", str(params_file), "--n", "512",
                     "--agg", "8", "--out", str(tmp_path / "run")])
        assert code == 2
        assert "MSFBM_WORKERS='two' is not an integer" in (
            capsys.readouterr().err)

    def test_binary_format(self, tmp_path, params_file):
        out = tmp_path / "bin"
        assert main(["simulate", "--params", str(params_file), "--n", "512",
                     "--agg", "8", "--format", "binary",
                     "--out", str(out)]) == 0
        assert (out / "field_p000.bin").read_bytes().startswith(b"MSFB1")


class TestCovarianceCommand:
    def test_curves_written_with_domain_flags(self, tmp_path, pair_file):
        out = tmp_path / "cov"
        lags = "0,8,64," + repr(T_SMALL) + "," + repr(2 * T_SMALL)
        code = main(["covariance", "--pair", str(pair_file), "--delta", "1.0",
                     "--lags", lags, "--out", str(out)])
        assert code == 0
        header, rows = read_csv_rows(out / "cross_cov.csv")
        assert header == ["lag", "value", "in_domain"]
        pair = PairParams(g=0.5, H_ij=0.15, lambda_i2=0.05, lambda_j2=0.05,
                          H_i=0.02, H_j=0.02, T=T_SMALL)
        # beyond T the kernel is identically zero, still in-domain
        assert float(rows[3][1]) == 0.0 and rows[3][2] == "1"
        assert float(rows[4][1]) == 0.0 and rows[4][2] == "1"
        assert float(rows[1][1]) == pytest.approx(
            msfbm_cross_cov(8.0, pair), rel=1e-12)
        # block covariance is out of domain once tau + delta exceeds T
        _, block_rows = read_csv_rows(out / "block_cov.csv")
        assert block_rows[4][2] == "0" and block_rows[4][1] == ""
        for name in ("logvol_incr_cov", "logvol_incr_corr",
                     "measure_cross_moment_series", "measure_cross_moment_sia"):
            assert (out / f"{name}.csv").is_file()

    def test_diagonal_pair_matches_univariate_formula(self, tmp_path):
        doc = {"g": 1.0, "H_ij": 0.1, "lambda_i2": 0.05, "lambda_j2": 0.05,
               "H_i": 0.1, "H_j": 0.1, "T": 100.0}
        pair_path = tmp_path / "diag.json"
        pair_path.write_text(json.dumps(doc))
        out = tmp_path / "cov"
        assert main(["covariance", "--pair", str(pair_path),
                     "--lags", "10", "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / "cross_cov.csv")
        nu2 = 0.05 / (0.1 * 0.8)
        expected = 0.5 * nu2 * (1 - (10.0 / 100.0) ** 0.2)
        assert float(rows[0][1]) == pytest.approx(expected, rel=1e-12)

    def test_missing_pair_file(self, tmp_path):
        assert main(["covariance", "--pair", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_null_value_names_the_key(self, tmp_path, capsys):
        doc = {"g": None, "H_ij": 0.15, "lambda_i2": 0.05, "lambda_j2": 0.05,
               "H_i": 0.02, "H_j": 0.02, "T": T_SMALL}
        bad = tmp_path / "pair.json"
        bad.write_text(json.dumps(doc))
        assert main(["covariance", "--pair", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert "pair params key 'g' must be a number, got None" in (
            capsys.readouterr().err)

    def test_list_document_rejected(self, tmp_path, capsys):
        bad = tmp_path / "pair.json"
        bad.write_text(json.dumps([0.5, 0.15]))
        assert main(["covariance", "--pair", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"pair params file {bad} must hold a JSON object" in (
            capsys.readouterr().err)

    def test_invalid_json_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "pair.json"
        bad.write_text("{g: 0.5}")
        assert main(["covariance", "--pair", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"pair params file {bad} is not valid JSON" in (
            capsys.readouterr().err)


@pytest.fixture(scope="module")
def simulated_panel(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("panel")
    params = ModelParams(T=float(2**9), H=[[0.05, 0.2], [0.2, 0.1]],
                         xi=[[0.05, 0.02], [0.02, 0.06]])
    ppath = tmp / "params.json"
    ppath.write_text(params.to_json())
    out = tmp / "sim"
    assert main(["simulate", "--params", str(ppath), "--n", str(2**13),
                 "--seed", "11", "--agg", "16", "--out", str(out)]) == 0
    return out / "logvol_proxy_p000.csv", params


class TestCalibrateCommand:
    def test_two_asset_panel(self, tmp_path, simulated_panel):
        panel_path, params = simulated_panel
        out = tmp_path / "cal"
        code = main(["calibrate", "--panel", str(panel_path),
                     "--T", repr(params.T), "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "params_estimate.json").read_text())
        assert doc["T"] == params.T
        assert doc["failures"] == {}
        h = np.array(doc["H"], dtype=float)
        assert h.shape == (2, 2)
        assert np.all((h >= 0) & (h < 0.5))
        g = np.array(doc["g"], dtype=float)
        assert abs(g[0, 1]) <= 1.0
        header, rows = read_csv_rows(out / "scatter_hurst.csv")
        assert header == ["kind", "i", "j", "value"]
        assert len(rows) == 3  # two marginals + one pair
        assert (out / "scatter_intermittency.csv").is_file()
        assert (out / "scatter_correlation.csv").is_file()

    def test_missing_panel(self, tmp_path):
        assert main(["calibrate", "--panel", str(tmp_path / "no.csv"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_empty_panel(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        assert main(["calibrate", "--panel", str(bad),
                     "--out", str(tmp_path / "o")]) == 2

    def test_single_asset_panel(self, tmp_path, simulated_panel):
        panel_path, params = simulated_panel
        panel = read_panel_csv(panel_path.read_text())
        from mlogsfbm.simulate import FieldPanel, write_panel_csv
        solo = FieldPanel(data=panel.data[:1], delta=panel.delta, seed=0,
                          provenance=panel.provenance)
        solo_path = tmp_path / "solo.csv"
        solo_path.write_text(write_panel_csv(solo))
        out = tmp_path / "cal1"
        assert main(["calibrate", "--panel", str(solo_path),
                     "--T", repr(params.T), "--out", str(out)]) == 0
        doc = json.loads((out / "params_estimate.json").read_text())
        assert doc["g"][0][0] == 1.0
        _, rows = read_csv_rows(out / "scatter_correlation.csv")
        assert rows == []

    def test_reading_panels_leaks_no_file(self, tmp_path, simulated_panel):
        panel_path, _ = simulated_panel
        binary = tmp_path / "panel.bin"
        binary.write_bytes(write_panel_binary(read_panel_csv(
            panel_path.read_text())))
        market = tmp_path / "vol.csv"
        market.write_text("date,A\n2020-01-01,-9.1\n2020-01-02,-8.9\n")
        for path in (panel_path, binary, market):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                panel, mask = _read_any_panel(str(path))
                gc.collect()
            assert not [w for w in caught
                        if issubclass(w.category, ResourceWarning)]
            assert (mask is None) == (path != market)
        assert panel.delta == 1.0 and panel.provenance == "market"

    @pytest.mark.parametrize("t_arg", ["0", "-3", "nan", "inf", "1.5"])
    def test_bad_scale_exits_before_any_fit(self, tmp_path, simulated_panel,
                                            t_arg, capsys, monkeypatch):
        import mlogsfbm.estimate as est
        calls = []
        monkeypatch.setattr(est, "calibrate_univariate",
                            lambda *args, **kwargs: calls.append(args))
        panel_path, _ = simulated_panel
        out = tmp_path / "bad"
        assert main(["calibrate", "--panel", str(panel_path), "--delta", "1",
                     f"--T={t_arg}", "--out", str(out)]) == 2
        assert f"T={float(t_arg)!r}" in capsys.readouterr().err
        assert calls == []
        assert not (out / "params_estimate.json").exists()

    def test_market_panel_roundtrip(self, tmp_path):
        # VolPanel-style CSV goes through the market branch
        rng = np.random.default_rng(3)
        dates = [f"2020-01-{d:02d}" for d in range(1, 29)]
        lines = ["date,A,B"]
        for i, d in enumerate(dates):
            lines.append(f"{d},{-9 + 0.1 * rng.standard_normal():.6f},"
                         f"{-9 + 0.1 * rng.standard_normal():.6f}")
        path = tmp_path / "vol.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "mcal"
        code = main(["calibrate", "--panel", str(path), "--grid-q", "6",
                     "--out", str(out)])
        assert code in (0, 4)  # tiny panel may legitimately degrade
        assert (out / "params_estimate.json").is_file()


class TestMcValidateCommand:
    def test_report_and_replica_csv(self, tmp_path, params_file, monkeypatch):
        out = tmp_path / "mc"
        monkeypatch.setenv("MSFBM_WORKERS", "2")
        code = main(["mc-validate", "--params", str(params_file),
                     "--n-list", "256", "--replicas", "3", "--seed", "1",
                     "--agg", "4", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["replicas"] == 3
        assert len(doc["runs"]) == 1
        header, rows = read_csv_rows(out / "replicas.csv")
        assert header == ["n", "replica", "parameter", "value"]
        assert len(rows) == 3 * 7

    def test_failed_sweep_names_the_exception_types(self, tmp_path, params_file,
                                                    monkeypatch, capsys):
        import mlogsfbm.estimate as est
        from mlogsfbm.estimate import ZeroVarianceError

        def flat(config, factor, run_seed, replica):
            raise ZeroVarianceError("series has zero variance")

        monkeypatch.setattr(est, "_one_replica", flat)
        monkeypatch.setenv("MSFBM_WORKERS", "1")
        code = main(["mc-validate", "--params", str(params_file),
                     "--n-list", "256", "--replicas", "3", "--seed", "1",
                     "--agg", "4", "--out", str(tmp_path / "mc")])
        assert code == 2
        err = capsys.readouterr().err
        assert "3/3 replicas failed at n=256 (3 ZeroVarianceError)" in err
        assert "series has zero variance" in err


    def test_malformed_worker_count(self, tmp_path, params_file,
                                    monkeypatch, capsys):
        monkeypatch.setenv("MSFBM_WORKERS", "two")
        code = main(["mc-validate", "--params", str(params_file),
                     "--n-list", "256", "--replicas", "2", "--seed", "1",
                     "--agg", "4", "--out", str(tmp_path / "mc")])
        assert code == 2
        assert "MSFBM_WORKERS='two' is not an integer" in (
            capsys.readouterr().err)

    def test_three_marginals_rejected(self, tmp_path, capsys):
        params = ModelParams(T=2.0**10, H=np.full((3, 3), 0.2),
                             xi=np.full((3, 3), 0.02) + 0.03 * np.eye(3))
        params_file = tmp_path / "params3.json"
        params_file.write_text(params.to_json())
        code = main(["mc-validate", "--params", str(params_file),
                     "--n-list", "256", "--replicas", "2", "--seed", "1",
                     "--agg", "4", "--out", str(tmp_path / "mc")])
        assert code == 2
        assert "needs d = 2, got d = 3" in capsys.readouterr().err
        assert not (tmp_path / "mc").exists()


class TestAnalyzeIndexCommand:
    def test_homogeneous_bound_near_two_d(self, tmp_path):
        d = 10
        h = np.full((d, d), 0.15)
        np.fill_diagonal(h, 0.02)
        corr = np.full((d, d), 0.5)
        np.fill_diagonal(corr, 1.0)
        params = ModelParams(T=2**14, H=h, xi=0.05 * corr)
        ppath = tmp_path / "p.json"
        ppath.write_text(params.to_json())
        out = tmp_path / "idx"
        tau = 0.99 * 2**14
        code = main(["analyze-index", "--params", str(ppath),
                     "--taus", f"{tau!r},160.0", "--deltas", repr(tau / 5.0),
                     "--out", str(out)])
        assert code == 0
        header, rows = read_csv_rows(out / "index.csv")
        assert header[:5] == ["tau", "delta", "variance", "cross_term",
                              "diag_term"]
        # slow-decay row: bound defined, block variance out of window
        assert float(rows[0][6]) == pytest.approx(2 * d, rel=0.12)
        assert rows[0][2] == ""
        # in-window row: decomposition adds up
        assert float(rows[1][2]) == pytest.approx(
            float(rows[1][3]) + float(rows[1][4]), rel=1e-12)

    def test_single_asset(self, tmp_path):
        params = ModelParams(T=1000.0, H=[[0.1]], xi=[[0.05]])
        ppath = tmp_path / "p.json"
        ppath.write_text(params.to_json())
        out = tmp_path / "idx1"
        assert main(["analyze-index", "--params", str(ppath),
                     "--taus", "100", "--deltas", "10",
                     "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / "index.csv")
        assert rows[0][4] != ""   # diagonal term present
        assert rows[0][5] == ""   # no cross bound for d = 1


class TestConfigPrecedence:
    def test_flags_override_config_file(self, tmp_path, params_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 256, "seed": 1, "agg": 4,
                                   "params": str(params_file)}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--seed", "9",
                     "--out", str(out)]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["seed"] == 9      # flag wins
        assert resolved["n"] == 256       # file value kept

    def test_unknown_config_keys_rejected(self, tmp_path, params_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["simulate", "--config", str(cfg), "--params",
                     str(params_file), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command", ["calibrate", "mc-validate"])
    def test_worker_count_is_not_an_option(self, tmp_path, params_file,
                                           simulated_panel, command, capsys):
        # MSFBM_WORKERS is the one worker setting
        panel_path, _ = simulated_panel
        args = {"calibrate": ["--panel", str(panel_path)],
                "mc-validate": ["--params", str(params_file), "--n-list",
                                "256", "--replicas", "2", "--agg", "4"]}
        base = [command, *args[command], "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as info:
            main(base + ["--workers", "2"])
        assert info.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": 2}))
        assert main(base + ["--config", str(cfg)]) == 2
        assert "unknown config keys: ['workers']" in capsys.readouterr().err

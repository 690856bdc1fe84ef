import argparse
import gc
import json
import math
import warnings

import numpy as np
import pytest

from mlogsfbm import ModelParams, PairParams, kernels, msfbm_cross_cov
from mlogsfbm.cli import _build_parser, _read_any_panel, _resolve, main
from mlogsfbm.estimate import LagGrid
from mlogsfbm.kernels import index_variance_decomposition
from mlogsfbm.simulate import read_panel_csv, write_panel_binary
from conftest import random_admissible

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

    def test_zero_substeps_exits_before_any_output(self, tmp_path,
                                                   params_file, capsys):
        out = tmp_path / "o"
        code = main(["simulate", "--params", str(params_file), "--n", "512",
                     "--agg", "8", "--substeps", "0", "--out", str(out)])
        assert code == 2
        assert "substeps=0 must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_price_count_must_match_d(self, tmp_path, params_file, capsys):
        out = tmp_path / "o"
        assert main(["simulate", "--params", str(params_file), "--n", "512",
                     "--agg", "8", "--x0", "1,2,3", "--out", str(out)]) == 2
        assert "error: x0 needs 2 entries" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--paths", "0"], "n_paths must be >= 1"),
        (["--delta", "0"], "delta must be positive"),
        (["--delta", "-1"], "delta must be positive"),
        (["--n", "1", "--agg", "1"], "n must be >= 2"),
        (["--delta", "nan"], "delta must be positive and finite, got nan"),
        (["--delta", "inf"], "delta must be positive and finite, got inf"),
    ])
    def test_rejected_draw_exits_before_any_output(self, tmp_path,
                                                   params_file, flags,
                                                   message, capsys):
        # the output directory is made only once the field is drawn
        out = tmp_path / "o"
        assert main(["simulate", "--params", str(params_file), *flags,
                     "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_first_price_is_joined_to_its_flag(self, tmp_path,
                                                         params_file):
        # argparse reads "--x0 -1,2" as a flag; "--x0=-1,2" is the value
        out = tmp_path / "o"
        assert main(["simulate", "--params", str(params_file), "--n", "512",
                     "--agg", "8", "--x0=-1,2", "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / "prices_p000.csv")
        assert [float(v) for v in rows[0][1:]] == [-1.0, 2.0]

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
        assert not (tmp_path / "run").exists()

    def test_embedding_failure_exits_three(self, tmp_path, capsys):
        # a log (H_00 = 0) marginal next to power-law cross kernels that is
        # admissible but has no embedding at n = 64 (see test_simulate)
        drawn = random_admissible(np.random.default_rng(53), 3, T=32)
        h = np.array(drawn.H, dtype=float)
        h[0, 0] = 0.0
        bad = tmp_path / "params.json"
        bad.write_text(ModelParams(T=drawn.T, H=h, xi=drawn.xi).to_json())
        code = main(["simulate", "--params", str(bad), "--n", "64",
                     "--agg", "1", "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err.startswith("simulation error: ")
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("grid_flag, q",
                             [([], 19), (["--grid-q", "5"], 5),
                              (["--grid-q", "1"], 1), (["--grid-q", "0"], 0)])
    def test_default_lags_are_the_grid(self, tmp_path, pair_file, grid_flag,
                                       q):
        # q = 0 and q = 1 both give the one-lag grid (1,): one row a curve
        assert main(["covariance", "--pair", str(pair_file), *grid_flag,
                     "--out", str(tmp_path)]) == 0
        curves = sorted(tmp_path.glob("*.csv"))
        assert len(curves) == 6
        for path in curves:
            assert [row[0] for row in read_csv_rows(path)[1]] == [
                repr(float(t)) for t in LagGrid.default(q).taus]

    @pytest.mark.parametrize("delta", ["0", "-1", "nan", "inf"])
    def test_non_positive_delta_exits_before_any_output(self, tmp_path,
                                                        pair_file, delta,
                                                        capsys):
        out = tmp_path / "cov"
        assert main(["covariance", "--pair", str(pair_file), "--delta", delta,
                     "--lags", "8", "--out", str(out)]) == 2
        assert (f"delta must be positive and finite, got [{float(delta)!r}]"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_overflowing_measure_moment_has_no_value(self, tmp_path):
        # at H_ij = 1e-6, xi A is 12 500: exp(xi A) is not a float
        doc = {"g": 0.5, "H_ij": 1e-6, "lambda_i2": 0.05, "lambda_j2": 0.05,
               "H_i": 1e-6, "H_j": 1e-6, "T": T_SMALL}
        pair_path = tmp_path / "pair.json"
        pair_path.write_text(json.dumps(doc))
        out = tmp_path / "cov"
        assert main(["covariance", "--pair", str(pair_path), "--delta", "4",
                     "--lags", "8,64", "--out", str(out)]) == 0
        for name in ("measure_cross_moment_series",
                     "measure_cross_moment_sia"):
            rows = read_csv_rows(out / f"{name}.csv")[1]
            assert rows == [["8.0", "", "0"], ["64.0", "", "0"]], name
        rows = read_csv_rows(out / "block_cov.csv")[1]
        assert all(ok == "1" for _, _, ok in rows)

    def test_kernel_failure_leaves_no_output(self, tmp_path, pair_file,
                                             monkeypatch):
        # every curve is computed before the output directory is made
        def broken(tau, delta, pair):
            raise RuntimeError("kernel bug")

        monkeypatch.setattr(kernels, "mrm_cross_cov_sia", broken)
        out = tmp_path / "cov"
        with pytest.raises(RuntimeError, match="kernel bug"):
            main(["covariance", "--pair", str(pair_file), "--lags", "8",
                  "--out", str(out)])
        assert not out.exists()

    def test_zero_roughness_pair_has_block_curves(self, tmp_path):
        # H_ij = H_i = H_j = 0: the block kernels take the log kernel; the
        # pointwise kernel and the measure moments have no value there
        doc = {"g": 0.6, "H_ij": 0.0, "lambda_i2": 0.05, "lambda_j2": 0.03,
               "H_i": 0.0, "H_j": 0.0, "T": T_SMALL}
        pair_path = tmp_path / "zero.json"
        pair_path.write_text(json.dumps(doc))
        out = tmp_path / "cov"
        assert main(["covariance", "--pair", str(pair_path), "--delta", "2",
                     "--lags", "0,8,64", "--out", str(out)]) == 0
        for name, first in (("block_cov", 0), ("logvol_incr_cov", 1),
                            ("logvol_incr_corr", 1)):
            rows = read_csv_rows(out / f"{name}.csv")[1]
            assert all(math.isfinite(float(value)) and ok == "1"
                       for _, value, ok in rows[first:]), name
        for name in ("cross_cov", "measure_cross_moment_series",
                     "measure_cross_moment_sia"):
            rows = read_csv_rows(out / f"{name}.csv")[1]
            assert [row[1:] for row in rows] == [["", "0"]] * 3, name

    def test_negative_grid_q_names_q(self, tmp_path, pair_file, capsys):
        out = tmp_path / "cov"
        assert main(["covariance", "--pair", str(pair_file), "--grid-q", "-3",
                     "--out", str(out)]) == 2
        assert "grid q must be at least 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_pair_file(self, tmp_path):
        assert main(["covariance", "--pair", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_key_named(self, tmp_path, capsys):
        doc = {"g": 0.5, "H_ij": 0.15, "lambda_i2": 0.05, "lambda_j2": 0.05,
               "H_i": 0.02, "H_j": 0.02}
        bad = tmp_path / "pair.json"
        bad.write_text(json.dumps(doc))
        assert main(["covariance", "--pair", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert "error: pair params missing key 'T'" in capsys.readouterr().err

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


@pytest.fixture(scope="module")
def five_asset_panel(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("panel5")
    h = np.full((5, 5), 0.2)
    np.fill_diagonal(h, 0.05)
    xi = np.full((5, 5), 0.02)
    np.fill_diagonal(xi, 0.05)
    params = ModelParams(T=float(2**9), H=h, xi=xi)
    ppath = tmp / "params.json"
    ppath.write_text(params.to_json())
    out = tmp / "sim"
    assert main(["simulate", "--params", str(ppath), "--n", str(2**13),
                 "--seed", "13", "--agg", "16", "--out", str(out)]) == 0
    return out / "logvol_proxy_p000.csv", params


class TestCalibrateCommand:
    @pytest.mark.parametrize("dates", [0, 1, 2],
                             ids=["0-dates", "1-date", "2-dates"])
    def test_market_panel_needs_three_dates(self, tmp_path, dates, capsys):
        market = tmp_path / "vol.csv"
        market.write_text("date,A,B\n" + "".join(
            f"2020-01-0{day + 1},-9.{day},-8.{day}\n" for day in range(dates)))
        out = tmp_path / "cal"
        assert main(["calibrate", "--panel", str(market),
                     "--out", str(out)]) == 2
        assert "panel needs at least 3 dates" in capsys.readouterr().err
        assert not out.exists()

    def test_three_dates_pass_the_window_rule(self, tmp_path, capsys):
        # T defaults to N delta = 3 delta, the shortest window a fit takes
        market = tmp_path / "vol.csv"
        market.write_text("date,A,B\n2020-01-01,-9.1,-8.9\n"
                          "2020-01-02,-9.4,-8.7\n2020-01-03,-9.0,-9.2\n")
        out = tmp_path / "cal"
        assert main(["calibrate", "--panel", str(market),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((out / "params_estimate.json").read_text())["T"] == 3.0

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

    def test_binary_panel_fits_as_csv(self, tmp_path, simulated_panel):
        panel_path, params = simulated_panel
        binary = tmp_path / "panel.bin"
        binary.write_bytes(write_panel_binary(read_panel_csv(
            panel_path.read_text())))
        docs = []
        for path in (panel_path, binary):
            out = tmp_path / path.suffix[1:]
            assert main(["calibrate", "--panel", str(path),
                         "--T", repr(params.T), "--out", str(out)]) == 0
            docs.append((out / "params_estimate.json").read_text())
        assert docs[0] == docs[1]

    def test_unconverged_pairs_exit_four_after_writing(
            self, tmp_path, simulated_panel, monkeypatch, capsys):
        import dataclasses
        import mlogsfbm.estimate as est
        fit = est.calibrate_pair
        monkeypatch.setattr(est, "calibrate_pair", lambda *args, **kwargs:
                            dataclasses.replace(fit(*args, **kwargs),
                                                converged=False))
        panel_path, params = simulated_panel
        out = tmp_path / "cal"
        assert main(["calibrate", "--panel", str(panel_path),
                     "--T", repr(params.T), "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "calibration degraded: only 0% of pairs converged\n")
        doc = json.loads((out / "params_estimate.json").read_text())
        assert doc["converged_pair_fraction"] == 0.0
        assert json.loads((out / "pairs.json").read_text())["0-1"][
            "converged"] is False
        for name in ("marginals.json", "scatter_hurst.csv",
                     "scatter_intermittency.csv", "scatter_correlation.csv",
                     "resolved_config.json"):
            assert (out / name).is_file()

    def test_pair_failures_exit_four_after_writing(
            self, tmp_path, five_asset_panel, monkeypatch, capsys):
        # 3 of the 10 pairs fail and the other 7 converge: 7 fitted pairs
        # are below 80% of 10, the second exit-4 rule
        import dataclasses
        import mlogsfbm.estimate as est
        panel_path, params = five_asset_panel
        panel, _ = _read_any_panel(str(panel_path))
        rows = {row.tobytes(): i for i, row in enumerate(panel.data)}
        failing = {(0, 1), (1, 2), (3, 4)}
        fit = est.calibrate_pair

        def some_fail(x, y, *args, **kwargs):
            if (rows[x.tobytes()], rows[y.tobytes()]) in failing:
                raise est.CalibrationError("forced")
            return dataclasses.replace(fit(x, y, *args, **kwargs),
                                       converged=True)

        monkeypatch.setattr(est, "calibrate_pair", some_fail)
        out = tmp_path / "cal"
        assert main(["calibrate", "--panel", str(panel_path),
                     "--T", repr(params.T), "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "calibration degraded: pair failures\n")
        doc = json.loads((out / "params_estimate.json").read_text())
        assert doc["failures"] == {f"pair-{i}-{j}": "forced"
                                   for i, j in sorted(failing)}
        assert doc["converged_pair_fraction"] == 1.0
        assert len(json.loads((out / "pairs.json").read_text())) == 7

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
        market.write_text("date,A\n2020-01-01,-9.1\n2020-01-02,-8.9\n"
                          "2020-01-03,-9.0\n")
        for path in (panel_path, binary, market):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                panel, mask = _read_any_panel(str(path))
                gc.collect()
            assert not [w for w in caught
                        if issubclass(w.category, ResourceWarning)]
            assert (mask is None) == (path != market)
        assert panel.delta == 1.0 and panel.provenance == "market"

    @pytest.mark.parametrize("t_arg", ["0", "-3", "nan", "inf", "1", "1.5",
                                       "2", "2.5"])
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
        assert not out.exists()

    @pytest.mark.parametrize("delta", ["inf", "nan"])
    def test_non_finite_delta_exits_before_any_fit(self, tmp_path,
                                                   simulated_panel, delta,
                                                   capsys):
        panel_path, _ = simulated_panel
        out = tmp_path / "bad"
        assert main(["calibrate", "--panel", str(panel_path), "--delta",
                     delta, "--out", str(out)]) == 2
        assert (f"error: delta must be positive and finite, got {delta}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_one_lag_grid_exits_before_any_fit(self, tmp_path,
                                               simulated_panel, capsys,
                                               monkeypatch):
        import mlogsfbm.estimate as est
        calls = []
        monkeypatch.setattr(est, "calibrate_univariate",
                            lambda *args, **kwargs: calls.append(args))
        panel_path, _ = simulated_panel
        out = tmp_path / "one-lag"
        assert main(["calibrate", "--panel", str(panel_path), "--delta", "1",
                     "--grid-q", "1", "--out", str(out)]) == 2
        assert "fewer than 2 grid lags" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("\ndate,a\n2020-01-01,1.0\n",
         "expected a 'date' header column on line 1"),
        ("date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,1.0\n",
         "line 3 has 2 fields, expected 3 as in the header"),
        ("date,a\n2020-01-01,1.0\n2020-01-32,1.0\n", "line 3: "),
        ("date,a\n2020-01-01,1.0\n2020-01-02,n/a\n", "line 3: "),
    ])
    def test_malformed_market_panel(self, tmp_path, text, message, capsys):
        path = tmp_path / "vol.csv"
        path.write_text(text)
        out = tmp_path / "o"
        assert main(["calibrate", "--panel", str(path),
                     "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

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

    def test_single_replica_report_is_strict_json(self, tmp_path, params_file,
                                                  monkeypatch):
        # one replica leaves every std undefined: null, not a bare NaN
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        out = tmp_path / "mc"
        monkeypatch.setenv("MSFBM_WORKERS", "1")
        code = main(["mc-validate", "--params", str(params_file),
                     "--n-list", "256", "--replicas", "1", "--seed", "1",
                     "--agg", "4", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text(),
                         parse_constant=reject)
        (run,) = doc["runs"]
        assert len(run["stds"]) == 7
        assert set(run["stds"].values()) == {None}

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
        assert not (tmp_path / "mc").exists()

    def test_flat_parameter_slope_is_null(self, tmp_path, params_file,
                                          monkeypatch):
        # a parameter whose standard deviation is 0 has no log-std slope
        import mlogsfbm.estimate as est

        def fixed(config, factor, run_seed, replica):
            return {key: 0.1 + (0.01 * replica if key == "H_0" else 0.0)
                    for key in est._PARAM_KEYS}

        monkeypatch.setattr(est, "_one_replica", fixed)
        monkeypatch.setenv("MSFBM_WORKERS", "1")
        out = tmp_path / "mc"
        assert main(["mc-validate", "--params", str(params_file),
                     "--n-list", "64,128,256", "--replicas", "2",
                     "--agg", "4", "--out", str(out)]) == 0
        slopes = json.loads((out / "report.json").read_text())["slopes"]
        assert slopes.pop("H_0") == pytest.approx(0.0, abs=1e-12)
        assert set(slopes.values()) == {None}


    def test_malformed_worker_count(self, tmp_path, params_file,
                                    monkeypatch, capsys):
        monkeypatch.setenv("MSFBM_WORKERS", "two")
        code = main(["mc-validate", "--params", str(params_file),
                     "--n-list", "256", "--replicas", "2", "--seed", "1",
                     "--agg", "4", "--out", str(tmp_path / "mc")])
        assert code == 2
        assert "MSFBM_WORKERS='two' is not an integer" in (
            capsys.readouterr().err)
        assert not (tmp_path / "mc").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--n-list", "", "n_list must be a comma-separated list of int "
         "values, got ''"),
        ("--n-list", "256,1", "n_list must hold counts >= 2, got [256, 1]"),
        ("--agg", "0", "agg must be >= 1, got 0"),
    ])
    def test_sweep_bounds(self, tmp_path, params_file, flag, value, message,
                          capsys):
        # the last of two equal flags wins
        code = main(["mc-validate", "--params", str(params_file),
                     "--n-list", "256", "--replicas", "2", "--agg", "4",
                     flag, value, "--out", str(tmp_path / "mc")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "mc").exists()

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

    def test_weights(self, tmp_path, params_file, capsys):
        params = ModelParams.from_json(params_file.read_text())
        out = tmp_path / "idx"
        assert main(["analyze-index", "--params", str(params_file),
                     "--weights", "0.25,0.75", "--taus", "32",
                     "--deltas", "4", "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / "index.csv")
        cross, diag = index_variance_decomposition([0.25, 0.75], params,
                                                   32.0, 4.0)
        assert rows[0][2:5] == [repr(cross + diag), repr(cross), repr(diag)]
        assert main(["analyze-index", "--params", str(params_file),
                     "--weights", "0.2,0.3,0.5",
                     "--out", str(tmp_path / "bad")]) == 2
        assert "weights need 2 entries" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--deltas", "0,-1",
         "deltas must be positive and finite, got [0.0, -1.0]"),
        ("--deltas", "4,-0.5", "deltas must be positive and finite, got [-0.5]"),
        ("--taus", "0", "taus must be positive and finite, got [0.0]"),
        ("--weights=-1,2", None, "weights must be positive"),
    ])
    def test_non_positive_lengths_exit_before_any_output(
            self, tmp_path, params_file, flag, value, message, capsys):
        out = tmp_path / "idx"
        flags = [flag] if value is None else [flag, value]
        assert main(["analyze-index", "--params", str(params_file),
                     *flags, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_multifractal_marginal_has_variance_cells(self, tmp_path):
        # H_00 = 0 next to H_01 = 0.1: every row has its variance split
        params = ModelParams(T=T_SMALL, H=[[0.0, 0.1], [0.1, 0.02]],
                             xi=[[0.05, 0.025], [0.025, 0.05]])
        ppath = tmp_path / "p.json"
        ppath.write_text(params.to_json())
        out = tmp_path / "idx"
        assert main(["analyze-index", "--params", str(ppath),
                     "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / "index.csv")
        assert len(rows) == 9
        for row in rows:
            cross, diag = index_variance_decomposition(
                [0.5, 0.5], params, float(row[0]), float(row[1]))
            assert row[2:5] == [repr(cross + diag), repr(cross), repr(diag)]
            assert all(math.isfinite(float(cell)) for cell in row[2:5])

    def test_tau_at_T_is_an_out_of_domain_row(self, tmp_path, params_file):
        out = tmp_path / "idx"
        assert main(["analyze-index", "--params", str(params_file),
                     "--taus", f"32,{T_SMALL!r}", "--deltas", "4",
                     "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / "index.csv")
        assert rows[0][2] != "" and rows[1][2:5] == ["", "", ""]

    def test_vanishing_co_hurst_fills_every_cell(self, tmp_path):
        # 2^(2H) - 1 rounds to 0 at H_01 = 1e-300; C_H is 1/(4 ln 2) there
        params = ModelParams(T=T_SMALL, H=[[0.0, 1e-300], [1e-300, 0.0]],
                             xi=[[0.05, 0.02], [0.02, 0.05]])
        ppath = tmp_path / "p.json"
        ppath.write_text(params.to_json())
        out = tmp_path / "idx"
        assert main(["analyze-index", "--params", str(ppath),
                     "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / "index.csv")
        assert len(rows) == 9
        for row in rows:
            assert all(math.isfinite(float(cell)) for cell in row[2:]), row
            assert float(row[7]) == pytest.approx(1 / (4 * math.log(2)),
                                                  rel=1e-15)


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

    def test_config_must_be_an_object(self, tmp_path, params_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"seed": 1}]))
        assert main(["simulate", "--config", str(cfg), "--params",
                     str(params_file), "--out", str(tmp_path / "o")]) == 2
        assert "error: config file must hold a JSON object" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("command, message", [
        ("simulate", "a params file is required (--params)"),
        ("covariance", "a pair params file is required (--pair)"),
        ("calibrate", "a panel file is required (--panel)"),
        ("mc-validate", "a params file is required (--params)"),
        ("analyze-index", "a params file is required (--params)"),
    ])
    def test_input_file_is_required(self, tmp_path, command, message, capsys):
        out = tmp_path / "o"
        assert main([command, "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

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


class TestListSettings:
    """An entry of a comma-separated list setting that its type cannot read
    or that is not finite, or a list with no entry, exits 2 naming the
    setting and its value, whether it comes from a flag or from a config
    file, before any output is made."""

    @pytest.mark.parametrize("command, key, value, kind", [
        ("simulate", "x0", "1,b", "float"),
        ("covariance", "lags", "1,a", "float"),
        ("mc-validate", "n_list", "1e3", "int"),
        ("analyze-index", "weights", "0.5,x", "float"),
        ("analyze-index", "taus", "1,a", "float"),
        ("analyze-index", "deltas", "4,,y", "float"),
        ("covariance", "lags", ",", "float"),
        ("analyze-index", "taus", "", "float"),
        ("analyze-index", "deltas", " , ", "float"),
        ("simulate", "x0", "nan", "float"),
        ("covariance", "lags", "nan,2", "float"),
        ("covariance", "lags", "8,inf", "float"),
        ("analyze-index", "weights", "nan,1", "float"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_entry_names_the_setting(self, tmp_path, params_file,
                                         pair_file, command, key, value,
                                         kind, source, capsys):
        needs = (["--pair", str(pair_file)] if command == "covariance"
                 else ["--params", str(params_file)])
        if source == "flag":
            given = [f"--{key.replace('_', '-')}", value]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            given = ["--config", str(cfg)]
        out = tmp_path / "o"
        assert main([command, *needs, *given, "--out", str(out)]) == 2
        assert (f"error: {key} must be a comma-separated list of {kind} "
                f"values, got {value!r}") in capsys.readouterr().err
        assert not out.exists()


def _options(command):
    """(flag, dest, resolved default, choices, help) of each option."""
    parser = _build_parser()
    args = parser.parse_args([command])
    defaults = _resolve(args, command, args.table)
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    return [(a.option_strings[0], a.dest, defaults.get(a.dest),
             list(a.choices) if a.choices else None, a.help)
            for a in sub._actions if a.dest != "help"]


_CONFIG = ("--config", "config", None, None,
           "JSON config file; flags override it")
_PROXY = ["gaussian", "measure"]


class TestSettings:
    @pytest.mark.parametrize("command, options", [
        ("simulate", [
            ("--out", "out", "runs/simulate", None, "output directory"),
            ("--params", "params", None, None,
             "model parameters JSON (d, T, H, xi)"),
            ("--n", "n", 16384, None, "field samples per marginal"),
            ("--delta", "delta", 1.0, None, "field grid step"),
            ("--seed", "seed", 0, None, None),
            ("--paths", "paths", 1, None, "number of independent paths"),
            ("--agg", "agg", 16, None, "aggregation factor (must divide n)"),
            ("--proxy", "proxy", "gaussian", _PROXY, None),
            ("--format", "format", "csv", ["csv", "binary"], None),
            ("--x0", "x0", "0.0", None, "comma-separated initial prices; "
             "a list whose first entry is negative is written --x0=-1,2"),
            ("--substeps", "substeps", 1, None, "price sub-steps per block")]),
        ("covariance", [
            ("--out", "out", "runs/covariance", None, "output directory"),
            ("--pair", "pair", None, None, "pair params JSON "
             "(g, H_ij, lambda_i2, lambda_j2, H_i, H_j, T)"),
            ("--delta", "delta", 1.0, None, "block length"),
            ("--lags", "lags", None, None,
             "comma-separated lags (default: grid)"),
            ("--grid-q", "grid_q", 19, None, None)]),
        ("calibrate", [
            ("--out", "out", "runs/calibrate", None, "output directory"),
            ("--panel", "panel", None, None,
             "panel CSV/binary (simulated or market)"),
            ("--delta", "delta", None, None, "panel step override"),
            ("--T", "T", None, None,
             "correlation scale, finite and at least 3*delta (default "
             "N*delta); lambda^2 and xi are reported at this T, and when "
             "T >= N*delta a marginal fixes only lambda^2 T^(-2H)"),
            ("--grid-q", "grid_q", 19, None, None)]),
        ("mc-validate", [
            ("--out", "out", "runs/mc", None, "output directory"),
            ("--params", "params", None, None, None),
            ("--n-list", "n_list", "1024", None,
             "comma-separated observation counts"),
            ("--replicas", "replicas", 10, None, None),
            ("--seed", "seed", 0, None, None),
            ("--agg", "agg", 16, None, None),
            ("--proxy", "proxy", "gaussian", _PROXY, None)]),
        ("analyze-index", [
            ("--out", "out", "runs/index", None, "output directory"),
            ("--params", "params", None, None, None),
            ("--weights", "weights", None, None,
             "comma-separated index weights"),
            ("--taus", "taus", "32,64,128", None,
             "comma-separated increment lags"),
            ("--deltas", "deltas", "1,4,16", None,
             "comma-separated block lengths")]),
    ])
    def test_frozen_options(self, command, options):
        assert _options(command) == [_CONFIG, *options]

    @pytest.mark.parametrize("command, entry, key", [
        ("simulate", {"n": 256.9}, "n"),
        ("simulate", {"seed": 1.5}, "seed"),
        ("simulate", {"n": True}, "n"),
        ("simulate", {"paths": [2]}, "paths"),
        ("simulate", {"proxy": "Gaussian"}, "proxy"),
        ("simulate", {"command": "calibrate"}, "command"),
        ("mc-validate", {"replicas": [2]}, "replicas"),
        ("mc-validate", {"agg": "four"}, "agg"),
    ])
    def test_config_value_read_as_its_flag(self, tmp_path, params_file,
                                           command, entry, key, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": str(params_file), **entry}))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_null_takes_default_and_float_is_recorded_as_float(
            self, tmp_path, params_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": str(params_file), "n": None,
                                   "delta": 1, "agg": "16"}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "resolved_config.json").read_text()
        assert '"delta": 1.0' in text
        resolved = json.loads(text)
        assert (resolved["n"], resolved["agg"]) == (16384, 16)

    def test_simulate_reruns_from_resolved_config(self, tmp_path,
                                                  params_file):
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--params", str(params_file), "--n", "512",
                     "--agg", "8", "--seed", "3", "--x0", "1.0,2.0",
                     "--proxy", "gaussian", "--out", str(first)]) == 0
        assert main(["simulate", "--config",
                     str(first / "resolved_config.json"),
                     "--out", str(second)]) == 0
        self.assert_same_outputs(first, second, [
            "field_p000.csv", "logvol_measure_p000.csv",
            "logvol_proxy_p000.csv", "prices_p000.csv", "diagnostics.json"])

    def test_calibrate_reruns_from_resolved_config(self, tmp_path,
                                                   simulated_panel):
        panel_path, params = simulated_panel
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["calibrate", "--panel", str(panel_path),
                     "--T", repr(params.T), "--grid-q", "12",
                     "--out", str(first)]) == 0
        assert main(["calibrate", "--config",
                     str(first / "resolved_config.json"),
                     "--out", str(second)]) == 0
        self.assert_same_outputs(first, second, [
            "params_estimate.json", "marginals.json", "pairs.json",
            "scatter_hurst.csv"])

    @staticmethod
    def assert_same_outputs(first, second, names):
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()
        configs = [json.loads((out / "resolved_config.json").read_text())
                   for out in (first, second)]
        assert [c.pop("out") for c in configs] == [str(first), str(second)]
        assert configs[0] == configs[1]

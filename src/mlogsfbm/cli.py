"""Command-line surface: simulate, evaluate kernels, calibrate panels,
run Monte-Carlo validation sweeps, and analyze index aggregation.

Configuration comes from an optional JSON file (--config) overridden by
command-line flags; every run writes the fully resolved configuration next
to its outputs so runs are reproducible from the artifacts alone.  Primary
outputs are byte-identical given identical configuration and seed; wall
clock timestamps go to a separate run log.

Exit codes: 0 ok, 2 configuration/validation problem, 3 simulation or
embedding failure, 4 calibration degradation (fewer than 80% of pairs
converged).  MSFBM_WORKERS is the one worker setting; no output depends on it.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import kernels
from .estimate import (
    CalibrationError,
    LagGrid,
    McConfig,
    McValidationError,
    calibrate_panel,
    mc_validate,
)
from .marketdata import OhlcParseError, VolPanel
from .params import (
    InadmissibleParamsError,
    ModelParams,
    PairParams,
    StructuralError,
)
from .simulate import (
    EmbeddingError,
    FieldPanel,
    SimulationError,
    field_to_gaussian_proxy,
    field_to_measure,
    read_panel_binary,
    read_panel_csv,
    simulate_field,
    simulate_prices,
    write_panel_binary,
    write_panel_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_CALIBRATION = 4

PAIR_CONVERGENCE_FLOOR = 0.8


class ConfigError(ValueError):
    pass


def _read_json(path: str, what: str, parse=json.loads):
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} file not found: {path}")
    try:
        return parse(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    doc = _read_json(path, "config")
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return doc


def _resolve(args: argparse.Namespace, file_config: dict, defaults: dict) -> dict:
    """flags > config file > defaults; unknown config keys rejected."""
    unknown = set(file_config) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    resolved = dict(defaults)
    resolved.update(file_config)
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    return resolved


def _load_params(path: str) -> ModelParams:
    return _read_json(path, "params", ModelParams.from_json)


def _out_dir(resolved: dict) -> Path:
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_run_artifacts(out: Path, command: str, resolved: dict):
    (out / "resolved_config.json").write_text(
        json.dumps({"command": command, **resolved}, indent=2, sort_keys=True))
    with (out / "run_log.txt").open("a") as log:
        log.write(f"{dt.datetime.now().isoformat()} {command}\n")


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_SIM_DEFAULTS = {
    "params": None, "n": 16384, "delta": 1.0, "seed": 0, "paths": 1,
    "agg": 16, "proxy": "gaussian", "format": "csv", "out": "runs/simulate",
    "x0": "0.0", "substeps": 1,
}


def cmd_simulate(args) -> int:
    resolved = _resolve(args, _load_config(args.config), _SIM_DEFAULTS)
    if resolved["params"] is None:
        raise ConfigError("a params file is required (--params)")
    if resolved["proxy"] not in ("gaussian", "measure"):
        raise ConfigError("proxy mode must be 'gaussian' or 'measure'")
    if resolved["format"] not in ("csv", "binary"):
        raise ConfigError("format must be 'csv' or 'binary'")
    params = _load_params(resolved["params"])
    n, agg = int(resolved["n"]), int(resolved["agg"])
    if agg < 1 or n % agg != 0:
        raise ConfigError(f"agg={agg} must divide n={n}")
    x0 = _parse_float_list(str(resolved["x0"]))
    if len(x0) == 1:
        x0 = x0 * params.d
    if len(x0) != params.d:
        raise ConfigError(f"x0 needs {params.d} entries")
    out = _out_dir(resolved)
    panels, diagnostics = simulate_field(
        params, n, float(resolved["delta"]), int(resolved["seed"]),
        int(resolved["paths"]))

    def dump(panel: FieldPanel, stem: str):
        if resolved["format"] == "binary":
            (out / f"{stem}.bin").write_bytes(write_panel_binary(panel))
        else:
            (out / f"{stem}.csv").write_text(write_panel_csv(panel))

    for panel in panels:
        dump(panel, f"field_p{panel.path:03d}")
        measure = field_to_measure(panel, params, agg)
        dump(measure, f"logvol_measure_p{panel.path:03d}")
        if resolved["proxy"] == "gaussian":
            dump(field_to_gaussian_proxy(panel, params, agg),
                 f"logvol_proxy_p{panel.path:03d}")
        prices = simulate_prices(measure, x0, int(resolved["seed"]),
                                 int(resolved["substeps"]))
        rows = ["t," + ",".join(f"x{i}" for i in range(prices.shape[0]))]
        for k in range(prices.shape[1]):
            rows.append(f"{k}," + ",".join(repr(float(v))
                                           for v in prices[:, k]))
        (out / f"prices_p{panel.path:03d}.csv").write_text("\n".join(rows) + "\n")
    (out / "diagnostics.json").write_text(
        json.dumps(diagnostics.to_dict(), indent=2))
    _write_run_artifacts(out, "simulate", resolved)
    return EXIT_OK


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------

_COV_DEFAULTS = {
    "pair": None, "delta": 1.0, "lags": None, "grid_q": 19,
    "out": "runs/covariance",
}


def _load_pair(path: str) -> PairParams:
    doc = _read_json(path, "pair params")
    if not isinstance(doc, dict):
        raise ConfigError(f"pair params file {path} must hold a JSON object")
    values = {}
    for key in ("g", "H_ij", "lambda_i2", "lambda_j2", "H_i", "H_j", "T"):
        if key not in doc:
            raise ConfigError(f"pair params missing key {key!r}")
        try:
            values[key] = float(doc[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"pair params key {key!r} must be a number, "
                              f"got {doc[key]!r}") from exc
    return PairParams(**values)


def _curve_rows(lags, evaluator) -> list[tuple]:
    rows = []
    for lag in lags:
        try:
            rows.append((lag, evaluator(float(lag)), True))
        except kernels.KernelDomainError:
            rows.append((lag, float("nan"), False))
    return rows


def _write_curve(out: Path, name: str, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["lag", "value", "in_domain"])
    for lag, value, ok in rows:
        writer.writerow([repr(float(lag)),
                         "" if math.isnan(value) else repr(float(value)),
                         int(ok)])
    (out / f"{name}.csv").write_text(buf.getvalue())


def cmd_covariance(args) -> int:
    resolved = _resolve(args, _load_config(args.config), _COV_DEFAULTS)
    if resolved["pair"] is None:
        raise ConfigError("a pair params file is required (--pair)")
    pair = _load_pair(resolved["pair"])
    delta = float(resolved["delta"])
    if resolved["lags"] is not None:
        lags = _parse_float_list(str(resolved["lags"]))
    else:
        lags = [float(t) for t in LagGrid.default(int(resolved["grid_q"])).taus]
    out = _out_dir(resolved)

    _write_curve(out, "cross_cov",
                 _curve_rows(lags, lambda t: kernels.msfbm_cross_cov(t, pair)))
    _write_curve(out, "block_cov",
                 _curve_rows(lags, lambda t: kernels.integrated_cov(t, delta, pair)))
    _write_curve(out, "logvol_incr_cov",
                 _curve_rows(lags, lambda t: kernels.logvol_incr_cov(t, delta, pair)))
    _write_curve(out, "logvol_incr_corr",
                 _curve_rows(lags, lambda t: kernels.logvol_incr_corr(t, delta, pair)))
    _write_curve(out, "measure_cross_moment_series",
                 _curve_rows(lags, lambda t: kernels.mrm_cross_cov_series(
                     t, delta, pair).value))
    _write_curve(out, "measure_cross_moment_sia",
                 _curve_rows(lags, lambda t: kernels.mrm_cross_cov_sia(
                     t, delta, pair)))
    _write_run_artifacts(out, "covariance", resolved)
    return EXIT_OK


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

_CAL_DEFAULTS = {
    "panel": None, "delta": None, "T": None, "grid_q": 19,
    "out": "runs/calibrate",
}


def _read_any_panel(path: str) -> tuple[FieldPanel, np.ndarray | None]:
    """A binary or CSV field panel, or a market panel at delta 1 with its
    mask of observed (not imputed) entries."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"panel file not found: {path}")
    raw = p.read_bytes()
    if raw[:5] == b"MSFB1":
        return read_panel_binary(raw), None
    text = raw.decode()
    if text.startswith("#"):
        return read_panel_csv(text), None
    vol = VolPanel.from_csv(text)
    if vol.n < 2:
        raise ConfigError("panel needs at least 2 dates")
    panel = FieldPanel(data=vol.values, delta=1.0, seed=0,
                       provenance="market")
    mask = ~vol.imputed
    return panel, mask


def cmd_calibrate(args) -> int:
    resolved = _resolve(args, _load_config(args.config), _CAL_DEFAULTS)
    if resolved["panel"] is None:
        raise ConfigError("a panel file is required (--panel)")
    panel, mask = _read_any_panel(resolved["panel"])
    if resolved["delta"] is not None:
        panel = FieldPanel(data=panel.data, delta=float(resolved["delta"]),
                           seed=panel.seed, provenance=panel.provenance,
                           path=panel.path)
    grid = LagGrid.default(int(resolved["grid_q"]))
    t_val = float(resolved["T"]) if resolved["T"] is not None else None
    out = _out_dir(resolved)
    cal = calibrate_panel(panel, grid=grid, T=t_val, mask=mask)

    estimate_doc = {
        "T": cal.T,
        "H": [[None if math.isnan(v) else v for v in row] for row in cal.h_mat],
        "xi": [[None if math.isnan(v) else v for v in row] for row in cal.xi_mat],
        "g": [[None if math.isnan(v) else v for v in row] for row in cal.g_mat],
        "xi_eigenvalues": (None if cal.xi_eigenvalues is None
                           else list(cal.xi_eigenvalues)),
        "validation": (None if cal.validation is None else str(cal.validation)),
        "failures": cal.failures,
        "converged_pair_fraction": cal.converged_pair_fraction,
    }
    (out / "params_estimate.json").write_text(json.dumps(estimate_doc, indent=2))
    (out / "marginals.json").write_text(json.dumps(
        {str(i): res.to_dict() for i, res in sorted(cal.marginals.items())},
        indent=2))
    (out / "pairs.json").write_text(json.dumps(
        {f"{i}-{j}": res.to_dict() for (i, j), res in sorted(cal.pairs.items())},
        indent=2))

    def scatter(name: str, rows):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["kind", "i", "j", "value"])
        writer.writerows(rows)
        (out / f"{name}.csv").write_text(buf.getvalue())

    d = panel.d
    scatter("scatter_hurst",
            [("marginal", i, i, cal.h_mat[i, i]) for i in range(d)]
            + [("pair", i, j, cal.h_mat[i, j])
               for i in range(d) for j in range(i + 1, d)])
    scatter("scatter_intermittency",
            [("marginal", i, i, cal.xi_mat[i, i]) for i in range(d)]
            + [("pair", i, j, cal.xi_mat[i, j])
               for i in range(d) for j in range(i + 1, d)])
    scatter("scatter_correlation",
            [("pair", i, j, cal.g_mat[i, j])
             for i in range(d) for j in range(i + 1, d)])
    _write_run_artifacts(out, "calibrate", resolved)
    if cal.pairs and cal.converged_pair_fraction < PAIR_CONVERGENCE_FLOOR:
        print(f"calibration degraded: only "
              f"{cal.converged_pair_fraction:.0%} of pairs converged",
              file=sys.stderr)
        return EXIT_CALIBRATION
    n_pairs_expected = d * (d - 1) // 2
    if n_pairs_expected and len(cal.pairs) < PAIR_CONVERGENCE_FLOOR * n_pairs_expected:
        print("calibration degraded: pair failures", file=sys.stderr)
        return EXIT_CALIBRATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# mc-validate
# ---------------------------------------------------------------------------

_MC_DEFAULTS = {
    "params": None, "n_list": "1024", "replicas": 10, "seed": 0, "agg": 16,
    "proxy": "gaussian", "out": "runs/mc",
}


def cmd_mc_validate(args) -> int:
    resolved = _resolve(args, _load_config(args.config), _MC_DEFAULTS)
    if resolved["params"] is None:
        raise ConfigError("a params file is required (--params)")
    params = _load_params(resolved["params"])
    config = McConfig(
        params=params,
        n_list=tuple(_parse_int_list(str(resolved["n_list"]))),
        replicas=int(resolved["replicas"]),
        seed=int(resolved["seed"]),
        agg=int(resolved["agg"]),
        proxy=str(resolved["proxy"]),
    )
    out = _out_dir(resolved)
    report = mc_validate(config)
    (out / "report.json").write_text(json.dumps(report.to_dict(), indent=2))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "replica", "parameter", "value"])
    for row in report.replica_rows():
        writer.writerow([row[0], row[1], row[2], repr(row[3])])
    (out / "replicas.csv").write_text(buf.getvalue())
    _write_run_artifacts(out, "mc-validate", resolved)
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze-index
# ---------------------------------------------------------------------------

_IDX_DEFAULTS = {
    "params": None, "weights": None, "taus": "32,64,128", "deltas": "1,4,16",
    "out": "runs/index",
}


def cmd_analyze_index(args) -> int:
    resolved = _resolve(args, _load_config(args.config), _IDX_DEFAULTS)
    if resolved["params"] is None:
        raise ConfigError("a params file is required (--params)")
    params = _load_params(resolved["params"])
    if resolved["weights"] is not None:
        weights = _parse_float_list(str(resolved["weights"]))
    else:
        weights = [1.0 / params.d] * params.d
    if len(weights) != params.d:
        raise ConfigError(f"weights need {params.d} entries")
    taus = _parse_float_list(str(resolved["taus"]))
    deltas = _parse_float_list(str(resolved["deltas"]))
    out = _out_dir(resolved)

    # homogeneous proxies for the ratio bound
    d = params.d
    h_diag = float(np.mean(params.H_diag))
    off = params.H[~np.eye(d, dtype=bool)]
    h_cross = float(np.mean(off)) if off.size else float("nan")

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["tau", "delta", "variance", "cross_term", "diag_term",
                     "ratio_bound_finite", "ratio_bound_limit", "c_h"])
    for tau in taus:
        for delta in deltas:
            variance = ("", "", "")
            try:
                cross, diag = kernels.index_variance_decomposition(
                    weights, params, tau, delta)
                variance = (repr(cross + diag), repr(cross), repr(diag))
            except kernels.KernelDomainError:
                pass
            bound = ("", "", "")
            if d > 1 and not math.isnan(h_cross):
                try:
                    rb = kernels.index_ratio_bound(
                        h_cross, h_diag, delta, tau, params.T, d)
                    bound = (repr(rb.finite), repr(rb.limit), repr(rb.c_h))
                except kernels.KernelDomainError:
                    pass
            writer.writerow([tau, delta, *variance, *bound])
    (out / "index.csv").write_text(buf.getvalue())
    _write_run_artifacts(out, "analyze-index", resolved)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlogsfbm",
        description="coupled rough/multifractal log-volatility toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("simulate", help="draw field, measure and price panels")
    add_common(p)
    p.add_argument("--params", help="model parameters JSON (d, T, H, xi)")
    p.add_argument("--n", type=int, help="field samples per marginal")
    p.add_argument("--delta", type=float, help="field grid step")
    p.add_argument("--seed", type=int)
    p.add_argument("--paths", type=int, help="number of independent paths")
    p.add_argument("--agg", type=int, help="aggregation factor (must divide n)")
    p.add_argument("--proxy", choices=["gaussian", "measure"])
    p.add_argument("--format", choices=["csv", "binary"])
    p.add_argument("--x0", help="comma-separated initial prices")
    p.add_argument("--substeps", type=int, help="price sub-steps per block")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("covariance", help="evaluate theoretical curves")
    add_common(p)
    p.add_argument("--pair", help="pair params JSON "
                   "(g, H_ij, lambda_i2, lambda_j2, H_i, H_j, T)")
    p.add_argument("--delta", type=float, help="block length")
    p.add_argument("--lags", help="comma-separated lags (default: grid)")
    p.add_argument("--grid-q", dest="grid_q", type=int)
    p.set_defaults(func=cmd_covariance)

    p = sub.add_parser("calibrate", help="fit a panel of log-volatility series")
    add_common(p)
    p.add_argument("--panel", help="panel CSV/binary (simulated or market)")
    p.add_argument("--delta", type=float, help="panel step override")
    p.add_argument("--T", type=float, help=(
        "correlation scale, finite and at least 2*delta (default N*delta); "
        "lambda^2 and xi are reported at this T, and when T >= N*delta a "
        "marginal fixes only lambda^2 T^(-2H)"))
    p.add_argument("--grid-q", dest="grid_q", type=int)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("mc-validate", help="simulate/calibrate replication sweep")
    add_common(p)
    p.add_argument("--params")
    p.add_argument("--n-list", dest="n_list",
                   help="comma-separated observation counts")
    p.add_argument("--replicas", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--agg", type=int)
    p.add_argument("--proxy", choices=["gaussian", "measure"])
    p.set_defaults(func=cmd_mc_validate)

    p = sub.add_parser("analyze-index", help="index-aggregation variance study")
    add_common(p)
    p.add_argument("--params")
    p.add_argument("--weights", help="comma-separated index weights")
    p.add_argument("--taus", help="comma-separated increment lags")
    p.add_argument("--deltas", help="comma-separated block lengths")
    p.set_defaults(func=cmd_analyze_index)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, StructuralError, InadmissibleParamsError,
            OhlcParseError, CalibrationError, McValidationError,
            kernels.KernelDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EmbeddingError, SimulationError) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

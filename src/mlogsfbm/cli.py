"""Command-line surface: simulate, evaluate kernels, calibrate panels,
run Monte-Carlo validation sweeps, and analyze index aggregation.

Configuration comes from an optional JSON file (--config) overridden by
command-line flags; every run writes the fully resolved configuration next
to its outputs so runs are reproducible from the artifacts alone.  Primary
outputs are byte-identical given identical configuration and seed; wall
clock timestamps go to a separate run log.

Exit codes: 0 ok, 2 configuration/validation problem, 3 simulation or
embedding failure, 4 calibration degradation (fewer than 80% of the fitted
pairs converged, or fewer than 80% of the d(d-1)/2 pairs were fitted).
MSFBM_WORKERS is the one worker setting; no output depends on it.
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
from .marketdata import VolPanel
from .params import ModelParams, PairParams
from .simulate import (
    PANEL_MAGIC,
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
    write_table_csv,
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


def _setting(key: str, kind, value):
    """A config-file value, read as its flag reads the same text."""
    text = str(value)
    if isinstance(kind, tuple):
        if text not in kind:
            raise ConfigError(f"config key {key!r}: invalid choice {value!r} "
                              f"(choose from {', '.join(map(repr, kind))})")
        return text
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"config key {key!r}: invalid {kind.__name__} "
                          f"value {value!r}") from None


def _resolve(args: argparse.Namespace, command: str, table) -> dict:
    """flags > config file > defaults.  A null config value leaves the
    default; a ``command`` key must name this command, so a run's
    resolved_config.json reruns it; other unknown keys are rejected."""
    config = {} if args.config is None else _read_json(args.config, "config")
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(config) - {key for key, *_ in table} - {"command"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if config.get("command") not in (None, command):
        raise ConfigError(f"config key 'command' is {config['command']!r}, "
                          f"not {command!r}")
    resolved = {}
    for key, kind, default, _ in table:
        value = getattr(args, key)
        if value is None and config.get(key) is not None:
            value = _setting(key, kind, config[key])
        resolved[key] = default if value is None else value
    return resolved


def _load_params(path: str) -> ModelParams:
    return _read_json(path, "params", ModelParams.from_json)


def _out_dir(resolved: dict) -> Path:
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, doc):
    """``doc`` as strict JSON (RFC 8259), indented: NaN and the infinities,
    which JSON cannot hold, are written as null."""
    to_null = dict.fromkeys(("NaN", "Infinity", "-Infinity"))
    strict = json.loads(json.dumps(doc), parse_constant=to_null.get)
    path.write_text(json.dumps(strict, indent=2))


def _write_run_artifacts(out: Path, command: str, resolved: dict):
    _write_json(out / "resolved_config.json",
                dict(sorted({"command": command, **resolved}.items())))
    with (out / "run_log.txt").open("a") as log:
        log.write(f"{dt.datetime.now().isoformat()} {command}\n")


def _parse_list(key: str, text: str, kind) -> list:
    """A comma-separated list setting; an entry ``kind`` cannot read or that
    is not finite, or no entry at all, is a ConfigError naming the setting
    and its value."""
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values or (kind is float and not all(map(math.isfinite, values))):
        raise ConfigError(f"{key} must be a comma-separated list of "
                          f"{kind.__name__} values, got {text!r}")
    return values


def _require_positive(key: str, *values: float):
    bad = [v for v in values if not 0 < v < math.inf]
    if bad:
        raise ConfigError(f"{key} must be positive and finite, got {bad}")


def _write_rows(path: Path, header, rows):
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    path.write_text(buf.getvalue())


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

# Each command's settings, one (key, type or choices, default, help) each.
# The flag is --key with "_" written as "-"; a config-file value is read
# as the flag reads the same text.
_PROXIES = ("gaussian", "measure")
_SIMULATE = (
    ("out", str, "runs/simulate", "output directory"),
    ("params", str, None, "model parameters JSON (d, T, H, xi)"),
    ("n", int, 16384, "field samples per marginal"),
    ("delta", float, 1.0, "field grid step"),
    ("seed", int, 0, None),
    ("paths", int, 1, "number of independent paths"),
    ("agg", int, 16, "aggregation factor (must divide n)"),
    ("proxy", _PROXIES, "gaussian", None),
    ("format", ("csv", "binary"), "csv", None),
    ("x0", str, "0.0", "comma-separated initial prices; a list whose first "
     "entry is negative is written --x0=-1,2"),
    ("substeps", int, 1, "price sub-steps per block"),
)


def cmd_simulate(resolved: dict) -> int:
    if resolved["params"] is None:
        raise ConfigError("a params file is required (--params)")
    params = _load_params(resolved["params"])
    n, agg = resolved["n"], resolved["agg"]
    if agg < 1 or n % agg != 0:
        raise ConfigError(f"agg={agg} must divide n={n}")
    if resolved["substeps"] < 1:
        raise ConfigError(f"substeps={resolved['substeps']} must be >= 1")
    x0 = _parse_list("x0", resolved["x0"], float)
    if len(x0) == 1:
        x0 = x0 * params.d
    if len(x0) != params.d:
        raise ConfigError(f"x0 needs {params.d} entries")
    panels, diagnostics = simulate_field(
        params, n, resolved["delta"], resolved["seed"], resolved["paths"])
    out = _out_dir(resolved)

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
            dump(field_to_gaussian_proxy(panel, agg),
                 f"logvol_proxy_p{panel.path:03d}")
        prices = simulate_prices(measure, x0, resolved["seed"],
                                 resolved["substeps"])
        (out / f"prices_p{panel.path:03d}.csv").write_text(
            write_table_csv(prices, "x"))
    _write_json(out / "diagnostics.json", diagnostics.to_dict())
    _write_run_artifacts(out, "simulate", resolved)
    return EXIT_OK


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------

_COVARIANCE = (
    ("out", str, "runs/covariance", "output directory"),
    ("pair", str, None,
     "pair params JSON (g, H_ij, lambda_i2, lambda_j2, H_i, H_j, T)"),
    ("delta", float, 1.0, "block length"),
    ("lags", str, None, "comma-separated lags (default: grid)"),
    ("grid_q", int, 19, None),
)


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


def _curve_rows(lags, kernel) -> list[tuple]:
    """(lag, value, in_domain) rows; an out-of-domain lag has no value."""
    rows = []
    for lag in map(float, lags):
        try:
            value, ok = float(kernel(lag)), 1
        except kernels.KernelDomainError:
            value, ok = math.nan, 0
        rows.append((repr(lag), "" if math.isnan(value) else repr(value), ok))
    return rows


def cmd_covariance(resolved: dict) -> int:
    if resolved["pair"] is None:
        raise ConfigError("a pair params file is required (--pair)")
    pair = _load_pair(resolved["pair"])
    delta = resolved["delta"]
    _require_positive("delta", delta)
    lags = (LagGrid.default(resolved["grid_q"]).taus if resolved["lags"] is None
            else _parse_list("lags", resolved["lags"], float))
    tables = [(name, _curve_rows(lags, kernel)) for name, kernel in (
            ("cross_cov", lambda t: kernels.msfbm_cross_cov(t, pair)),
            ("block_cov", lambda t: kernels.integrated_cov(t, delta, pair)),
            ("logvol_incr_cov",
             lambda t: kernels.logvol_incr_cov(t, delta, pair)),
            ("logvol_incr_corr",
             lambda t: kernels.logvol_incr_corr(t, delta, pair)),
            ("measure_cross_moment_series",
             lambda t: kernels.mrm_cross_cov_series(t, delta, pair).value),
            ("measure_cross_moment_sia",
             lambda t: kernels.mrm_cross_cov_sia(t, delta, pair)))]
    out = _out_dir(resolved)
    for name, rows in tables:
        _write_rows(out / f"{name}.csv", ("lag", "value", "in_domain"), rows)
    _write_run_artifacts(out, "covariance", resolved)
    return EXIT_OK


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

_CALIBRATE = (
    ("out", str, "runs/calibrate", "output directory"),
    ("panel", str, None, "panel CSV/binary (simulated or market)"),
    ("delta", float, None, "panel step override"),
    ("T", float, None,
     "correlation scale, finite and at least 3*delta (default N*delta); "
     "lambda^2 and xi are reported at this T, and when T >= N*delta a "
     "marginal fixes only lambda^2 T^(-2H)"),
    ("grid_q", int, 19, None),
)


def _read_any_panel(path: str) -> tuple[FieldPanel, np.ndarray | None]:
    """A binary or CSV field panel, or a market panel at delta 1 with its
    mask of observed (not imputed) entries."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"panel file not found: {path}")
    raw = p.read_bytes()
    if raw.startswith(PANEL_MAGIC):
        return read_panel_binary(raw), None
    text = raw.decode()
    if text.startswith("#"):
        return read_panel_csv(text), None
    vol = VolPanel.from_csv(text)
    if vol.n < 3:  # a fit needs two lags below the support
        raise ConfigError("panel needs at least 3 dates")
    panel = FieldPanel(data=vol.values, delta=1.0, seed=0,
                       provenance="market")
    mask = ~vol.imputed
    return panel, mask


def cmd_calibrate(resolved: dict) -> int:
    if resolved["panel"] is None:
        raise ConfigError("a panel file is required (--panel)")
    panel, mask = _read_any_panel(resolved["panel"])
    if resolved["delta"] is not None:
        panel = FieldPanel(data=panel.data, delta=resolved["delta"],
                           seed=panel.seed, provenance=panel.provenance,
                           path=panel.path)
    grid = LagGrid.default(resolved["grid_q"])
    cal = calibrate_panel(panel, grid=grid, T=resolved["T"], mask=mask)

    estimate_doc = {
        "T": cal.T,
        "H": cal.h_mat.tolist(),
        "xi": cal.xi_mat.tolist(),
        "g": cal.g_mat.tolist(),
        "xi_eigenvalues": (None if cal.xi_eigenvalues is None
                           else list(cal.xi_eigenvalues)),
        "validation": (None if cal.validation is None else str(cal.validation)),
        "failures": cal.failures,
        "converged_pair_fraction": cal.converged_pair_fraction,
    }
    out = _out_dir(resolved)
    _write_json(out / "params_estimate.json", estimate_doc)
    _write_json(out / "marginals.json", {
        str(i): res.to_dict() for i, res in sorted(cal.marginals.items())})
    _write_json(out / "pairs.json", {
        f"{i}-{j}": res.to_dict() for (i, j), res in sorted(cal.pairs.items())})

    d = panel.d
    cells = [("marginal", i, i) for i in range(d)] + [
        ("pair", i, j) for i in range(d) for j in range(i + 1, d)]
    for name, mat, with_diagonal in (("hurst", cal.h_mat, True),
                                      ("intermittency", cal.xi_mat, True),
                                      ("correlation", cal.g_mat, False)):
        _write_rows(out / f"scatter_{name}.csv", ("kind", "i", "j", "value"),
                    [(kind, i, j, mat[i, j]) for kind, i, j in cells
                     if with_diagonal or kind == "pair"])
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

_MC_VALIDATE = (
    ("out", str, "runs/mc", "output directory"),
    ("params", str, None, None),
    ("n_list", str, "1024", "comma-separated observation counts"),
    ("replicas", int, 10, None),
    ("seed", int, 0, None),
    ("agg", int, 16, None),
    ("proxy", _PROXIES, "gaussian", None),
)


def cmd_mc_validate(resolved: dict) -> int:
    if resolved["params"] is None:
        raise ConfigError("a params file is required (--params)")
    config = McConfig(
        params=_load_params(resolved["params"]),
        n_list=tuple(_parse_list("n_list", resolved["n_list"], int)),
        replicas=resolved["replicas"],
        seed=resolved["seed"],
        agg=resolved["agg"],
        proxy=resolved["proxy"],
    )
    report = mc_validate(config)
    out = _out_dir(resolved)
    _write_json(out / "report.json", report.to_dict())
    _write_rows(out / "replicas.csv", ("n", "replica", "parameter", "value"),
                [(n, rep, name, repr(value))
                 for n, rep, name, value in report.replica_rows()])
    _write_run_artifacts(out, "mc-validate", resolved)
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze-index
# ---------------------------------------------------------------------------

_ANALYZE_INDEX = (
    ("out", str, "runs/index", "output directory"),
    ("params", str, None, None),
    ("weights", str, None, "comma-separated index weights"),
    ("taus", str, "32,64,128", "comma-separated increment lags"),
    ("deltas", str, "1,4,16", "comma-separated block lengths"),
)


def cmd_analyze_index(resolved: dict) -> int:
    if resolved["params"] is None:
        raise ConfigError("a params file is required (--params)")
    params = _load_params(resolved["params"])
    if resolved["weights"] is not None:
        weights = _parse_list("weights", resolved["weights"], float)
    else:
        weights = [1.0 / params.d] * params.d
    if len(weights) != params.d:
        raise ConfigError(f"weights need {params.d} entries")
    taus = _parse_list("taus", resolved["taus"], float)
    deltas = _parse_list("deltas", resolved["deltas"], float)
    _require_positive("taus", *taus)
    _require_positive("deltas", *deltas)

    # homogeneous proxies for the ratio bound
    d = params.d
    h_diag = float(np.mean(params.H_diag))
    off = params.H[~np.eye(d, dtype=bool)]
    h_cross = float(np.mean(off)) if off.size else float("nan")

    rows = []
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
            rows.append((tau, delta, *variance, *bound))
    out = _out_dir(resolved)
    _write_rows(out / "index.csv",
                ("tau", "delta", "variance", "cross_term", "diag_term",
                 "ratio_bound_finite", "ratio_bound_limit", "c_h"), rows)
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
    # built at each call, not at import, so that a cmd_* function replaced
    # by a wrapper after import is the one that runs
    for command, func, table, about in (
            ("simulate", cmd_simulate, _SIMULATE,
             "draw field, measure and price panels"),
            ("covariance", cmd_covariance, _COVARIANCE,
             "evaluate theoretical curves"),
            ("calibrate", cmd_calibrate, _CALIBRATE,
             "fit a panel of log-volatility series"),
            ("mc-validate", cmd_mc_validate, _MC_VALIDATE,
             "simulate/calibrate replication sweep"),
            ("analyze-index", cmd_analyze_index, _ANALYZE_INDEX,
             "index-aggregation variance study")):
        p = sub.add_parser(command, help=about)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key, kind, _, text in table:
            choices = kind if isinstance(kind, tuple) else None
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           type=None if choices else kind, choices=choices,
                           help=text)
        p.set_defaults(func=func, table=table)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_resolve(args, args.command, args.table))
    except (EmbeddingError, SimulationError) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    # ConfigError and the library's domain errors are ValueErrors
    except (ValueError, OSError, CalibrationError, McValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

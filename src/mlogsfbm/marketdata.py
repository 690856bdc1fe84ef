"""OHLC ingestion and daily log-volatility panel assembly.

Daily variance proxies come from the open/high/low/close range estimator
0.5 ln(High/Low)^2 - (2 ln 2 - 1) ln(Close/Open)^2, which is non-negative
for every bar whose range brackets its open and close.  Panels align assets
on the intersection of their trading dates (cross-covariance lags must mean
the same calendar gap for every asset) and weekends/holidays count as unit
lags, matching the daily-bar convention.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "OhlcBar",
    "VolPanel",
    "ParseReport",
    "OhlcParseError",
    "parse_ohlc_csv",
    "garman_klass",
    "build_panel",
]

GK_ZERO_FLOOR = 1e-12
_LOG_RANGE_COEF = 2.0 * math.log(2.0) - 1.0


class OhlcParseError(ValueError):
    pass


@dataclass(frozen=True)
class OhlcBar:
    date: dt.date
    open: float
    high: float
    low: float
    close: float

    def valid(self) -> bool:
        if min(self.open, self.high, self.low, self.close) <= 0:
            return False
        return (self.low <= min(self.open, self.close)
                and self.high >= max(self.open, self.close))


@dataclass(frozen=True)
class ParseReport:
    n_rows: int
    n_kept: int
    dropped: tuple  # (line_number, reason) pairs

    @property
    def n_dropped(self) -> int:
        return len(self.dropped)


@dataclass(frozen=True)
class VolPanel:
    """Aligned log variance-proxy panel: one row per asset, one column per
    common trading date; imputed entries (zero-range bars floored before the
    log) are flagged in ``imputed`` and excluded from moment estimation."""

    assets: tuple
    dates: tuple
    values: np.ndarray   # (d, n) of ln(variance proxy)
    imputed: np.ndarray  # (d, n) bool

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        imputed = np.asarray(self.imputed, dtype=bool)
        if values.shape != (len(self.assets), len(self.dates)):
            raise ValueError("values shape must be (assets, dates)")
        if imputed.shape != values.shape:
            raise ValueError("imputed mask shape must match values")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing")
        if not np.all(np.isfinite(values[~imputed])):
            raise ValueError("non-imputed entries must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "imputed", imputed)

    @property
    def d(self) -> int:
        return len(self.assets)

    @property
    def n(self) -> int:
        return len(self.dates)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["date"] + list(self.assets))
        for col, date in enumerate(self.dates):
            writer.writerow([date.isoformat()]
                            + [repr(float(v)) for v in self.values[:, col]])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "VolPanel":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0][0].lower() != "date":
            raise OhlcParseError("expected a 'date' header column")
        assets = tuple(rows[0][1:])
        dates = []
        values = []
        for row in rows[1:]:
            if not row:
                continue
            dates.append(dt.date.fromisoformat(row[0]))
            values.append([float(v) for v in row[1:]])
        data = np.array(values, dtype=float).T
        imputed = data <= math.log(GK_ZERO_FLOOR)
        return cls(assets=assets, dates=tuple(dates), values=data,
                   imputed=imputed)


def _header_index(header: list) -> dict:
    wanted = {"date", "open", "high", "low", "close"}
    idx = {}
    for pos, name in enumerate(header):
        key = name.strip().lower()
        if key in wanted:
            idx[key] = pos
    missing = wanted - set(idx)
    if missing:
        raise OhlcParseError(f"header missing columns: {sorted(missing)}")
    return idx


def parse_ohlc_csv(source) -> tuple[list, ParseReport]:
    """Parse one asset's bars from a CSV path, file object, or text.

    Extra columns are ignored; bars violating the range invariants are
    dropped and counted in the report; duplicate dates are an error.
    Bars come back sorted by date.
    """
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, Path):
        text = source.read_text()
    elif isinstance(source, str) and "\n" not in source and Path(source).is_file():
        text = Path(source).read_text()
    else:
        text = str(source)
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise OhlcParseError("empty file")
    idx = _header_index(rows[0])
    bars = []
    dropped = []
    seen = {}
    for line_no, row in enumerate(rows[1:], start=2):
        try:
            date = dt.date.fromisoformat(row[idx["date"]].strip())
            bar = OhlcBar(
                date=date,
                open=float(row[idx["open"]]),
                high=float(row[idx["high"]]),
                low=float(row[idx["low"]]),
                close=float(row[idx["close"]]),
            )
        except (ValueError, IndexError) as exc:
            dropped.append((line_no, f"unparseable row: {exc}"))
            continue
        if date in seen:
            raise OhlcParseError(
                f"duplicated date {date.isoformat()} at line {line_no}")
        seen[date] = True
        if not bar.valid():
            dropped.append((line_no, "range invariant violated"))
            continue
        bars.append(bar)
    bars.sort(key=lambda b: b.date)
    report = ParseReport(n_rows=len(rows) - 1, n_kept=len(bars),
                         dropped=tuple(dropped))
    return bars, report


def garman_klass(bar: OhlcBar) -> float:
    """Daily variance proxy 0.5 ln(H/L)^2 - (2 ln 2 - 1) ln(C/O)^2."""
    if min(bar.open, bar.high, bar.low, bar.close) <= 0:
        raise ValueError("prices must be strictly positive")
    if not bar.valid():
        raise ValueError("bar violates the range invariants")
    log_range = math.log(bar.high / bar.low)
    log_move = math.log(bar.close / bar.open)
    return 0.5 * log_range**2 - _LOG_RANGE_COEF * log_move**2


def build_panel(assets: dict) -> VolPanel:
    """Intersect dates across assets and assemble rows of ln(variance proxy).

    Dates missing for any asset are dropped for all (no forward fill); zero
    proxies (High = Low bars) are floored at ``GK_ZERO_FLOOR`` before the
    log and flagged as imputed, the value ``VolPanel.from_csv`` reads back
    as imputed.
    """
    if not assets:
        raise ValueError("need at least one asset")
    names = tuple(sorted(assets))
    common = None
    for name in names:
        dates = {bar.date for bar in assets[name]}
        common = dates if common is None else common & dates
    common = tuple(sorted(common))
    if not common:
        raise ValueError(f"assets {list(names)} have no overlapping dates")
    lookup = {name: {bar.date: bar for bar in assets[name]} for name in names}
    values = np.empty((len(names), len(common)))
    imputed = np.zeros_like(values, dtype=bool)
    for i, name in enumerate(names):
        for j, date in enumerate(common):
            gk = garman_klass(lookup[name][date])
            if gk <= 0.0:
                gk = GK_ZERO_FLOOR
                imputed[i, j] = True
            values[i, j] = math.log(gk)
    return VolPanel(assets=names, dates=common, values=values, imputed=imputed)

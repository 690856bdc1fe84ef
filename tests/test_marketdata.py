import datetime as dt
import io
import math

import numpy as np
import pytest

from mlogsfbm.marketdata import (
    GK_ZERO_FLOOR,
    OhlcBar,
    OhlcParseError,
    VolPanel,
    build_panel,
    garman_klass,
    parse_ohlc_csv,
)


def bar(date, o, h, l, c):
    return OhlcBar(date=dt.date.fromisoformat(date), open=o, high=h, low=l, close=c)


SAMPLE = """Date,Open,High,Low,Close,Volume
2020-01-02,100,104,99,103,12345
2020-01-03,103,105,101,102,23456
2020-01-06,102,102.5,100,101,34567
"""


class TestParse:
    def test_well_formed(self):
        bars, report = parse_ohlc_csv(io.StringIO(SAMPLE))
        assert len(bars) == 3
        assert report.n_kept == 3 and report.n_dropped == 0
        assert bars[0].date == dt.date(2020, 1, 2)
        assert bars[0].close == 103.0

    def test_sorted_by_date(self):
        shuffled = ("date,open,high,low,close\n"
                    "2020-01-06,1,2,0.5,1.5\n"
                    "2020-01-02,1,2,0.5,1.5\n")
        bars, _ = parse_ohlc_csv(shuffled)
        assert [b.date.day for b in bars] == [2, 6]

    def test_invariant_violations_dropped_and_counted(self):
        text = ("Date,Open,High,Low,Close\n"
                "2020-01-02,100,104,99,103\n"
                "2020-01-03,100,102,99,103\n")  # high < close
        bars, report = parse_ohlc_csv(text)
        assert len(bars) == 1
        assert report.n_dropped == 1
        assert "range invariant" in report.dropped[0][1]

    def test_duplicate_date_error_names_date(self):
        text = ("Date,Open,High,Low,Close\n"
                "2020-01-02,100,104,99,103\n"
                "2020-01-02,100,104,99,103\n")
        with pytest.raises(OhlcParseError, match="2020-01-02"):
            parse_ohlc_csv(text)

    def test_header_case_insensitive_extra_columns(self):
        text = ("sym,DATE,OPEN,high,Low,CLOSE\n"
                "X,2020-01-02,100,104,99,103\n")
        bars, _ = parse_ohlc_csv(text)
        assert len(bars) == 1

    def test_missing_header(self):
        with pytest.raises(OhlcParseError, match="header"):
            parse_ohlc_csv("a,b,c\n1,2,3\n")

    def test_empty_file(self):
        with pytest.raises(OhlcParseError, match="empty"):
            parse_ohlc_csv("")

    def test_path_is_read(self, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text(SAMPLE)
        assert parse_ohlc_csv(path) == parse_ohlc_csv(SAMPLE)

    def test_file_name_as_str_is_text(self, tmp_path):
        # a str is always CSV text: an existing file's name is a one-cell
        # header, not a path to read
        path = tmp_path / "bars.csv"
        path.write_text(SAMPLE)
        with pytest.raises(OhlcParseError, match="header missing columns"):
            parse_ohlc_csv(str(path))

    def test_unparseable_rows_counted(self):
        text = ("Date,Open,High,Low,Close\n"
                "2020-01-02,100,104,99,103\n"
                "not-a-date,1,2,0.5,1\n")
        bars, report = parse_ohlc_csv(text)
        assert len(bars) == 1
        assert report.n_dropped == 1


class TestGarmanKlass:
    def test_degenerate_bar_is_zero(self):
        assert garman_klass(bar("2020-01-02", 100, 100, 100, 100)) == 0.0

    def test_hand_computed_range_only(self):
        value = garman_klass(bar("2020-01-02", 100, 110, 90, 100))
        assert value == pytest.approx(0.5 * math.log(11 / 9) ** 2, rel=1e-12)
        assert value == pytest.approx(0.020135, abs=1e-6)

    def test_hand_computed_trending_bar(self):
        value = garman_klass(bar("2020-01-02", 100, 105, 100, 105))
        expected = (0.5 - (2 * math.log(2) - 1)) * math.log(1.05) ** 2
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(2.707e-4, abs=2e-7)

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            o, c = rng.uniform(50, 150, size=2)
            h = max(o, c) * rng.uniform(1.0, 1.1)
            l = min(o, c) * rng.uniform(0.9, 1.0)
            b1 = bar("2020-01-02", o, h, l, c)
            scale = rng.uniform(0.01, 100.0)
            b2 = bar("2020-01-02", o * scale, h * scale, l * scale, c * scale)
            v1, v2 = garman_klass(b1), garman_klass(b2)
            assert abs(v1 - v2) <= 1e-14 * max(1.0, abs(v1))

    def test_non_negative_on_random_valid_bars(self):
        rng = np.random.default_rng(13)
        for _ in range(10_000):
            o, c = rng.uniform(1, 200, size=2)
            h = max(o, c) * math.exp(rng.uniform(0, 0.2))
            l = min(o, c) * math.exp(-rng.uniform(0, 0.2))
            assert garman_klass(bar("2020-01-02", o, h, l, c)) >= 0.0

    def test_invalid_bar_rejected(self):
        with pytest.raises(ValueError):
            garman_klass(bar("2020-01-02", 100, 102, 99, 103))
        with pytest.raises(ValueError):
            garman_klass(OhlcBar(dt.date(2020, 1, 2), -1, 2, 0.5, 1))


class TestBuildPanel:
    def asset(self, dates, spread=1.05):
        return [bar(d, 100, 100 * spread, 100 / spread, 100) for d in dates]

    def test_identical_dates_full_intersection(self):
        dates = ("2020-01-02", "2020-01-03", "2020-01-06")
        panel = build_panel({"A": self.asset(dates), "B": self.asset(dates)})
        assert panel.d == 2 and panel.n == 3
        assert panel.assets == ("A", "B")

    def test_missing_date_dropped_for_all(self):
        a = self.asset(("2020-01-02", "2020-01-03", "2020-01-06"))
        b = self.asset(("2020-01-02", "2020-01-06"))
        panel = build_panel({"A": a, "B": b})
        assert panel.n == 2
        assert [d.isoformat() for d in panel.dates] == ["2020-01-02", "2020-01-06"]

    def test_dates_subset_of_inputs(self):
        a = self.asset(("2020-01-02", "2020-01-03"))
        b = self.asset(("2020-01-03", "2020-01-06"))
        panel = build_panel({"A": a, "B": b})
        assert set(panel.dates) <= {x.date for x in a}
        assert set(panel.dates) <= {x.date for x in b}

    def test_zero_range_bar_imputed_at_floor(self):
        flat = [bar("2020-01-02", 100, 100, 100, 100)]
        normal = self.asset(("2020-01-02",))
        panel = build_panel({"A": flat, "B": normal})
        i = panel.assets.index("A")
        assert panel.imputed[i, 0]
        assert panel.values[i, 0] == pytest.approx(math.log(GK_ZERO_FLOOR))
        assert not panel.imputed[1 - i, 0]

    def test_overlap_floor(self):
        a = self.asset(("2020-01-02",))
        b = self.asset(("2020-01-03",))
        with pytest.raises(ValueError,
                           match=r"assets \['A', 'B'\] have no overlapping"):
            build_panel({"A": a, "B": b})

    def test_csv_roundtrip(self):
        dates = ("2020-01-02", "2020-01-03")
        # B's first bar has zero range: the floored entry stays imputed
        panel = build_panel({"A": self.asset(dates),
                             "B": self.asset(dates[:1], 1.0)
                             + self.asset(dates[1:], 1.1)})
        assert panel.imputed.tolist() == [[False, False], [True, False]]
        back = VolPanel.from_csv(panel.to_csv())
        assert back.assets == panel.assets
        assert back.dates == panel.dates
        assert np.array_equal(back.values, panel.values)
        assert np.array_equal(back.imputed, panel.imputed)

    @pytest.mark.parametrize("text, message", [
        ("\ndate,A\n2020-01-01,1.0\n",
         "expected a 'date' header column on line 1"),
        ("date,A,B\n2020-01-01,1.0,2.0\n2020-01-02,1.0\n",
         "line 3 has 2 fields, expected 3 as in the header"),
        ("date,A\n2020-01-01,1.0\n2020-13-01,1.0\n", "line 3: "),
        ("date,A\n2020-01-01,x\n", "line 2: could not convert"),
    ])
    def test_malformed_csv_names_the_line(self, text, message):
        with pytest.raises(OhlcParseError) as info:
            VolPanel.from_csv(text)
        assert message in str(info.value)

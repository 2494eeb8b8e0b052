"""CSV round trips, formatting rules, and the SVG view."""

import xml.etree.ElementTree as ET

import pytest

from fasmon import (CSV_HEADER, DomainError, ResultRow, emit_csv, emit_svg,
                    format_rows, parse_csv)


def _row(**kw):
    base = dict(experiment="fig2", scheme="ProposedBisect", x_name="ratio_db",
                x_value=-18.0, r_star_bits=1.9128737138,
                pm_star_db=17.36955852, rate_analytic=1.495155219,
                rate_mc_mean=None, rate_mc_ci95=None, clamped=False)
    base.update(kw)
    return ResultRow(**base)


SAMPLE = [
    _row(),
    _row(scheme="Passive", x_value=-16.0, pm_star_db=float("-inf"),
         rate_analytic=0.714198513, clamped=True),
    _row(scheme="TrueGrid", x_value=-14.0, rate_mc_mean=1.494716,
         rate_mc_ci95=0.00243817, clamped=False),
]


class TestFormat:
    def test_header(self):
        text = format_rows(SAMPLE)
        assert text.splitlines()[0] == CSV_HEADER
        assert CSV_HEADER.startswith("experiment,scheme,x_name,x_value")

    def test_ten_significant_digits(self):
        line = format_rows([_row()]).splitlines()[1]
        cells = line.split(",")
        assert cells[3] == "-18"
        assert cells[4] == "1.912873714"
        assert cells[9] == "false"

    def test_neg_inf_sentinel(self):
        line = format_rows([SAMPLE[1]]).splitlines()[1]
        assert line.split(",")[5] == "-inf"
        assert line.split(",")[9] == "true"

    def test_empty_mc_cells(self):
        line = format_rows([_row()]).splitlines()[1]
        assert line.split(",")[7] == ""
        assert line.split(",")[8] == ""
        filled = format_rows([SAMPLE[2]]).splitlines()[1]
        assert filled.split(",")[7] == "1.494716"

    def test_trailing_newline(self):
        assert format_rows(SAMPLE).endswith("\n")

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            format_rows([])


class TestRoundTrip:
    def test_emit_parse_emit_fixed_point(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        emit_csv(SAMPLE, str(first))
        rows = parse_csv(str(first))
        emit_csv(rows, str(second))
        assert first.read_bytes() == second.read_bytes()
        assert [r.scheme for r in rows] == [r.scheme for r in SAMPLE]
        assert rows[1].pm_star_db == float("-inf")
        assert rows[1].clamped is True
        assert rows[0].rate_mc_mean is None
        assert rows[2].rate_mc_ci95 == pytest.approx(0.00243817)

    def test_emission_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(SAMPLE, str(a))
        emit_csv(SAMPLE, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_parse_rejects_wrong_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError):
            parse_csv(str(bad))

    def test_parse_rejects_short_row(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(CSV_HEADER + "\nfig2,Passive,ratio_db,-18\n",
                       encoding="utf-8")
        with pytest.raises(ValueError) as err:
            parse_csv(str(bad))
        assert ":2:" in str(err.value)

    @pytest.mark.parametrize("column", ["rate_analytic", "rate_mc_mean"])
    def test_parse_rejects_non_numeric_cell(self, tmp_path, column):
        names = CSV_HEADER.split(",")
        cells = format_rows([_row()]).splitlines()[1].split(",")
        cells[names.index(column)] = "abc"
        bad = tmp_path / "bad.csv"
        bad.write_text(CSV_HEADER + "\n" + ",".join(cells) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            parse_csv(str(bad))
        assert str(err.value) == f"{bad}:2: {column} is not a number: 'abc'"

    def test_parse_rejects_bad_flag(self, tmp_path):
        good = format_rows([_row()]).replace("false", "maybe")
        bad = tmp_path / "bad.csv"
        bad.write_text(good, encoding="utf-8")
        with pytest.raises(ValueError):
            parse_csv(str(bad))


class TestSvg:
    def test_well_formed_with_series_and_labels(self, tmp_path):
        rows = [
            _row(scheme=s, x_value=x, rate_analytic=1.0 + 0.01 * x + i * 0.1)
            for i, s in enumerate(("ProposedBisect", "Passive"))
            for x in (-20.0, -10.0, 0.0)
        ]
        path = tmp_path / "plot.svg"
        emit_svg(rows, str(path))
        root = ET.fromstring(path.read_text(encoding="utf-8"))
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f"{ns}polyline")
        assert len(polylines) == 2
        texts = [t.text for t in root.findall(f"{ns}text")]
        assert "ProposedBisect" in texts
        assert "Passive" in texts
        assert "ratio_db" in texts
        assert "average monitoring rate (bits/s/Hz)" in texts

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(DomainError):
            emit_svg([], str(tmp_path / "plot.svg"))

"""Tests for the static SVG plot writer and its exact CSV companion."""

import ast
import csv
import io
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import cmadof
from cmadof.svgplot import LinePlot, write_atomic, write_plot

SVG_NS = "{http://www.w3.org/2000/svg}"


def sample_plot():
    plot = LinePlot(title="spectrum", xlabel="index", ylabel="value")
    plot.add_series("alpha", [0, 1, 2, 3], [0.1, 0.4, 0.2, 0.9])
    plot.add_series("beta", [0, 1, 2], [1.5, -0.3, 0.7])
    plot.add_hline(0.5, "threshold")
    return plot


class TestSvg:
    def test_output_is_well_formed_xml(self):
        root = ET.fromstring(sample_plot().to_svg())
        assert root.tag == f"{SVG_NS}svg"
        assert root.get("width") == "640"
        assert root.get("height") == "420"

    def test_deterministic_bytes(self):
        assert sample_plot().to_svg() == sample_plot().to_svg()
        assert sample_plot().to_csv() == sample_plot().to_csv()

    def test_text_content_present(self):
        root = ET.fromstring(sample_plot().to_svg())
        texts = [t.text for t in root.iter(f"{SVG_NS}text")]
        for expected in ("spectrum", "index", "value", "alpha", "beta", "threshold"):
            assert expected in texts

    def test_polylines_and_markers(self):
        root = ET.fromstring(sample_plot().to_svg())
        polylines = root.findall(f"{SVG_NS}polyline")
        assert len(polylines) == 2
        pts = polylines[0].get("points").split()
        assert len(pts) == 4
        circles = root.findall(f"{SVG_NS}circle")
        assert len(circles) == 4 + 3  # every series marks every point

    def test_single_point_series_gets_marker_no_line(self):
        plot = LinePlot(title="t", xlabel="x", ylabel="y")
        plot.add_series("dot", [1.0], [2.0])
        root = ET.fromstring(plot.to_svg())
        assert len(root.findall(f"{SVG_NS}polyline")) == 0
        assert len(root.findall(f"{SVG_NS}circle")) == 1

    def test_hline_is_dashed(self):
        root = ET.fromstring(sample_plot().to_svg())
        dashed = [
            ln for ln in root.findall(f"{SVG_NS}line")
            if ln.get("stroke-dasharray")
        ]
        assert len(dashed) == 1

    def test_flat_data_still_renders(self):
        plot = LinePlot(title="t", xlabel="x", ylabel="y")
        plot.add_series("flat", [2.0, 2.0], [3.0, 3.0])
        ET.fromstring(plot.to_svg())

    def test_empty_plot_rejected(self):
        with pytest.raises(ValueError, match="no series"):
            LinePlot(title="t", xlabel="x", ylabel="y").to_svg()

    def test_bad_series_rejected(self):
        plot = LinePlot(title="t", xlabel="x", ylabel="y")
        with pytest.raises(ValueError, match="lengths differ"):
            plot.add_series("s", [1, 2], [1])
        with pytest.raises(ValueError, match="at least one"):
            plot.add_series("s", [], [])


class TestCsv:
    def test_rows_hold_exact_plotted_numbers(self):
        plot = LinePlot(title="t", xlabel="x", ylabel="y")
        x = np.array([0.1, 1.0 / 3.0, 7.25])
        y = np.array([np.pi, -1e-17, 2.5])
        plot.add_series("s", x, y)
        rows = list(csv.reader(io.StringIO(plot.to_csv())))
        assert rows[0] == ["series", "x", "y"]
        assert len(rows) == 4
        for (name, xs, ys), xv, yv in zip(rows[1:], x, y):
            assert name == "s"
            assert float(xs) == xv
            assert float(ys) == yv

    def test_hline_rows(self):
        plot = sample_plot()
        rows = list(csv.reader(io.StringIO(plot.to_csv())))
        hrows = [r for r in rows if r[0].startswith("hline:")]
        assert hrows == [["hline:threshold", "", "0.5"]]

    def test_long_form_covers_all_series(self):
        rows = list(csv.reader(io.StringIO(sample_plot().to_csv())))
        names = [r[0] for r in rows[1:]]
        assert names.count("alpha") == 4
        assert names.count("beta") == 3


class TestWritePlot:
    def test_writes_both_files(self, tmp_path):
        plot = sample_plot()
        base = tmp_path / "fig1"
        svg_path, csv_path = write_plot(str(base), plot)
        assert svg_path == str(base) + ".svg"
        assert csv_path == str(base) + ".csv"
        assert (tmp_path / "fig1.svg").read_text() == plot.to_svg()
        assert (tmp_path / "fig1.csv").read_text() == plot.to_csv()


class TestWriteAtomic:
    @pytest.mark.parametrize("text", ["caf\u00e9\nline\n", ""])
    def test_replaces_and_leaves_no_temporary(self, tmp_path, text):
        path = tmp_path / "a.txt"
        path.write_text("an older and longer file\n" * 10)
        write_atomic(path, text)
        assert path.read_bytes() == text.encode("utf-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]

    def test_package_writes_files_only_through_it(self):
        # a file opened for writing anywhere else would bring back the
        # delayed-allocation flush that write_atomic avoids
        offenders = []
        for src in sorted(Path(cmadof.__file__).parent.glob("*.py")):
            tree = ast.parse(src.read_text(encoding="utf-8"))
            allowed = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and \
                        node.name == "write_atomic":
                    allowed.update(id(n) for n in ast.walk(node))
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "open") or id(node) in allowed:
                    continue
                mode = node.args[1] if len(node.args) > 1 else next(
                    (kw.value for kw in node.keywords if kw.arg == "mode"),
                    ast.Constant("r"))
                if not isinstance(mode, ast.Constant) or \
                        set(str(mode.value)) & {"w", "x"}:
                    offenders.append(f"{src.name}:{node.lineno}")
        assert offenders == []

"""Phase-portrait SVG generation."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from bundleflow.errors import EmptyInput
from bundleflow.svgplot import phase_points, render_phase_portrait
from bundleflow.traces import FlowTrace


def tiny_trace(label="x"):
    return FlowTrace({"t": [0.0, 1.0], "u": [1.0, 0.5], "f": [0.0, 0.1]},
                     {"label": label})


class TestRender:
    def test_two_point_trace_single_segment(self):
        svg = render_phase_portrait([tiny_trace()])
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 1
        assert len(polylines[0].attrib["points"].split()) == 2

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            render_phase_portrait([])

    def test_missing_columns_rejected(self):
        bad = FlowTrace({"t": [0.0, 1.0]})
        with pytest.raises(EmptyInput):
            render_phase_portrait([bad])

    def test_forbidden_control_characters_replaced(self):
        # XML 1.0 has no C0 controls but tab, LF and CR, not even as references
        svg = render_phase_portrait([tiny_trace("l\x01m")], {"title": "a\u0001b\tc"})
        texts = [e.text for e in ET.fromstring(svg).iter() if e.tag.endswith("text")]
        assert "a\ufffdb\tc" in texts and "l\ufffdm" in texts

    def test_deterministic_bytes(self):
        svg1 = render_phase_portrait([tiny_trace(), tiny_trace("y")])
        svg2 = render_phase_portrait([tiny_trace(), tiny_trace("y")])
        assert svg1 == svg2

    def test_legend_uses_metadata(self):
        tr = FlowTrace({"t": [0.0, 1.0], "u": [1.0, 0.5], "f": [0.0, 0.1]},
                       {"lambda1": "1", "lambda2": "2"})
        svg = render_phase_portrait([tr])
        assert "λ1=1" in svg and "λ2=2" in svg

    def test_nan_rows_dropped(self):
        tr = FlowTrace({"t": [0.0, 1.0, 2.0], "u": [1.0, 0.8, 0.5],
                        "f": [0.0, np.nan, 0.2]})
        assert phase_points(tr).shape == (2, 2)
        svg = render_phase_portrait([tr])
        root = ET.fromstring(svg)
        polyline = next(e for e in root.iter() if e.tag.endswith("polyline"))
        assert len(polyline.attrib["points"].split()) == 2

    def test_style_labels(self):
        svg = render_phase_portrait([tiny_trace()], {"title": "portrait-title"})
        assert "portrait-title" in svg

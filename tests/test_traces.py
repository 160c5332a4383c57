"""CSV trace round-trips and validation."""

import numpy as np
import pytest

from bundleflow.errors import DomainError, TraceIoError, TraceParseError
from bundleflow.traces import FlowTrace, read_trace, write_trace


class TestFlowTrace:
    def test_column_lengths_must_match(self):
        with pytest.raises(DomainError):
            FlowTrace({"t": [0.0, 1.0], "u": [1.0]})

    def test_time_strictly_increasing(self):
        with pytest.raises(DomainError):
            FlowTrace({"t": [0.0, 1.0, 1.0]})

    def test_length_and_getitem(self):
        tr = FlowTrace({"t": [0.0, 0.5], "u": [1.0, 2.0]})
        assert len(tr) == 2
        assert tr["u"][1] == 2.0


class TestRoundTrip:
    def test_bit_identical_numerics(self, tmp_path):
        rng = np.random.default_rng(12)
        n = 1000
        t = np.sort(rng.uniform(0, 100, n))
        t += np.arange(n) * 1e-9           # enforce strict monotonicity
        values = {
            "t": t,
            "u": rng.uniform(1e-300, 1e3, n) * 10.0 ** rng.integers(-200, 200, n),
            "f": rng.normal(size=n),
        }
        trace = FlowTrace(values, {"label": "roundtrip", "n": "1"})
        path = tmp_path / "trace.csv"
        write_trace(trace, str(path))
        back = read_trace(str(path))
        for name in values:
            assert np.array_equal(back[name], trace[name])
        assert back.meta["label"] == "roundtrip"

    def test_special_values_cells(self, tmp_path):
        trace = FlowTrace({"x": [-0.0, np.inf, -np.inf, np.nan, 5e-324, 0.1]})
        path = tmp_path / "special.csv"
        write_trace(trace, str(path))
        assert path.read_text().split("\n")[1:-1] == [
            "-0", "inf", "-inf", "", "4.9406564584124654e-324", "0.10000000000000001"]

    def test_nan_serialized_as_empty_cell(self, tmp_path):
        trace = FlowTrace({"t": [0.0, 1.0], "psi": [np.nan, 2.0]})
        path = tmp_path / "nan.csv"
        write_trace(trace, str(path))
        text = path.read_text()
        assert ",2" in text and "nan" not in text.lower().replace("psi", "")
        back = read_trace(str(path))
        assert np.isnan(back["psi"][0])
        assert back["psi"][1] == 2.0

    def test_empty_trace_header_only(self, tmp_path):
        trace = FlowTrace({"t": np.zeros(0), "u": np.zeros(0)})
        path = tmp_path / "empty.csv"
        write_trace(trace, str(path))
        assert path.read_text().strip().splitlines()[-1] == "t,u"
        back = read_trace(str(path))
        assert len(back) == 0
        assert list(back.columns) == ["t", "u"]

    def test_deterministic_bytes(self, tmp_path):
        trace = FlowTrace({"t": [0.0, 0.1], "u": [1 / 3, 2 / 7]}, {"a": "b"})
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(trace, str(p1))
        write_trace(trace, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestParseErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceIoError):
            read_trace(str(tmp_path / "absent.csv"))

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,u\n0.0,1.0\n0.5\n")
        with pytest.raises(TraceParseError) as err:
            read_trace(str(path))
        assert err.value.line == 3

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("t,u\n0.0,apple\n")
        with pytest.raises(TraceParseError) as err:
            read_trace(str(path))
        assert err.value.line == 2

    def test_no_header(self, tmp_path):
        path = tmp_path / "bad3.csv"
        path.write_text("# only: metadata\n")
        with pytest.raises(TraceParseError):
            read_trace(str(path))

    @pytest.mark.parametrize("content, line, message", [
        ("t,u\n0.0,1.0\n# late: 1\n", 3, "metadata after the header"),
        ("# n: 1\n\n# no colon here\nt,u\n", 3, "malformed metadata line 'no colon here'"),
        ("# n: 1\nt,,u\n", 2, "empty column name"),
    ], ids=["metadata-after-header", "metadata-without-colon", "empty-column-name"])
    def test_header_and_metadata_errors_report_line(self, tmp_path, content, line, message):
        path = tmp_path / "bad4.csv"
        path.write_text(content)
        with pytest.raises(TraceParseError, match=message) as err:
            read_trace(str(path))
        assert err.value.line == line

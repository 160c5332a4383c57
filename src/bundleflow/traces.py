"""Flow traces and their CSV serialization.

A trace is an ordered set of equal-length named columns plus string
metadata.  Files are UTF-8 CSV: metadata as leading ``# key: value`` lines,
then a header row, then data rows with every float printed with 17
significant digits (lossless for binary64).  NaN serializes as an empty
cell and reads back as NaN.  Wall-clock time, when present on the object,
is never written, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, TraceIoError, TraceParseError

WALL_TIME_KEY = "wall_time_s"


@dataclass
class FlowTrace:
    columns: dict[str, np.ndarray]
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        cols = {str(k): np.asarray(v, dtype=float) for k, v in self.columns.items()}
        lengths = {v.size for v in cols.values()}
        if len(lengths) > 1:
            raise DomainError(f"column lengths differ: { {k: v.size for k, v in cols.items()} }")
        if "t" in cols and cols["t"].size > 1 and not np.all(np.diff(cols["t"]) > 0):
            raise DomainError("column 't' must be strictly increasing")
        self.columns = cols
        self.meta = {str(k): str(v) for k, v in self.meta.items()}

    def __len__(self) -> int:
        return next(iter(self.columns.values())).size if self.columns else 0

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]


def _format_cell(x: float) -> str:
    return "" if np.isnan(x) else format(float(x), ".17g")


def atomic_write_text(path: str, text: str) -> None:
    """Whole-file atomic write: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except (OSError, ValueError) as exc:       # ValueError: a NUL byte in the path
        raise TraceIoError(f"cannot write {path}: {exc}") from exc


def write_trace(trace: FlowTrace, path: str) -> None:
    """Serialize to CSV; the wall-time metadata entry is deliberately skipped."""
    lines = []
    for key, value in trace.meta.items():
        if key == WALL_TIME_KEY:
            continue
        lines.append(f"# {key}: {value}")
    names = list(trace.columns)
    lines.append(",".join(names))
    if names:
        data = np.column_stack([trace.columns[n] for n in names])
        for row in data:
            lines.append(",".join(_format_cell(x) for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_trace(path: str) -> FlowTrace:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = handle.read()
    except (OSError, ValueError) as exc:       # ValueError: NUL in the path, or not UTF-8
        raise TraceIoError(f"cannot read {path}: {exc}") from exc
    meta: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[list[float]] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if header is not None:
                raise TraceParseError("metadata after the header", line=lineno)
            body = line[1:].strip()
            if ":" not in body:
                raise TraceParseError(f"malformed metadata line {body!r}", line=lineno)
            key, _, value = body.partition(":")
            meta[key.strip()] = value.strip()
            continue
        if header is None:
            header = [c.strip() for c in line.split(",")]
            if any(not c for c in header):
                raise TraceParseError("empty column name in header", line=lineno)
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise TraceParseError(
                f"row has {len(cells)} cells, header has {len(header)}", line=lineno)
        try:
            rows.append([np.nan if c.strip() == "" else float(c) for c in cells])
        except ValueError as exc:
            raise TraceParseError(str(exc), line=lineno) from exc
    if header is None:
        raise TraceParseError("no header row found", line=len(raw.splitlines()))
    data = np.array(rows, dtype=float) if rows else np.zeros((0, len(header)))
    return FlowTrace({name: data[:, i] for i, name in enumerate(header)}, meta)


def reduced_flow_trace(trace, meta: dict | None = None) -> FlowTrace:
    """Tabulate a reduced-flow integration: state, conserved monitors and the
    homogeneous-space variables, plus an extinction flag on the final row."""
    lam = trace.params.lam
    a, b = trace.lauret_series()
    extinct = np.zeros_like(trace.t)
    if trace.stop_reason == "Extinct" and extinct.size:
        extinct[-1] = 1.0
    columns = {
        "t": trace.t,
        "u": trace.u,
        "f": trace.f,
        "psi": trace.psi_series(),
        "psi_cleared": trace.psi_cleared_series(),
        "lambda_inv": trace.lambda_invariant_series() if lam != 0 else np.full_like(trace.t, np.nan),
        "a": a,
        "b": b,
        "extinct": extinct,
    }
    info = {"n": str(trace.params.n), "lambda": format(lam, ".17g"),
            "stop_reason": trace.stop_reason}
    if meta:
        info.update({str(k): str(v) for k, v in meta.items()})
    return FlowTrace(columns, info)

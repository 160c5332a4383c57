"""Minimal hand-rolled SVG phase portraits.

One polyline per trace in the collapse-plane coordinates
x = exp(-2 f), y = u, with axes, tick labels and a legend built from trace
metadata.  No plotting library: output is a deterministic function of the
inputs (fixed palette, fixed float formatting), so identical traces yield
byte-identical documents.  Style strings and legend labels are
XML-escaped, so any text gives a well-formed document.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyInput
from .traces import FlowTrace

WIDTH, HEIGHT = 800.0, 600.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70.0, 30.0, 40.0, 60.0
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


_NON_XML = dict.fromkeys(set(range(0x20)) - {0x09, 0x0A, 0x0D}, "\ufffd")


def _escape(text: str) -> str:
    """XML text-node escaping (``xml.sax.saxutils.escape`` pulls in urllib and ssl);
    the C0 controls XML 1.0 forbids even as references (all but tab, LF and
    CR) become U+FFFD."""
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .translate(_NON_XML))


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round-numbered ticks over [lo, hi], about a fifth of its width apart."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(value) < 1e-12 * step else value)
        value += step
    return ticks


def _legend_label(trace: FlowTrace, index: int) -> str:
    meta = trace.meta
    if "lambda1" in meta and "lambda2" in meta:
        return f"λ1={meta['lambda1']}, λ2={meta['lambda2']}"
    return meta.get("label", f"trace {index + 1}")


def phase_points(trace: FlowTrace) -> np.ndarray:
    """(x, y) = (exp(-2 f), u) rows with any NaN rows dropped."""
    try:
        f = trace["f"]
        u = trace["u"]
    except KeyError as exc:
        raise EmptyInput(f"trace lacks required column {exc}") from exc
    x = np.exp(-2.0 * f)
    keep = np.isfinite(x) & np.isfinite(u)
    return np.column_stack([x[keep], u[keep]])


def render_phase_portrait(traces: list[FlowTrace], style: dict | None = None) -> str:
    """Standalone SVG document; raises EmptyInput without at least one usable trace."""
    if not traces:
        raise EmptyInput("no traces to plot")
    style = dict(style or {})
    title = _escape(style.get("title", "Collapse-plane flow portrait"))
    x_label = _escape(style.get("x_label", "exp(-2f)"))
    y_label = _escape(style.get("y_label", "u"))

    curves = [phase_points(t) for t in traces]
    if all(c.shape[0] == 0 for c in curves):
        raise EmptyInput("all traces are empty after dropping non-finite rows")
    allpts = np.vstack([c for c in curves if c.shape[0]])
    x_lo, x_hi = 0.0, float(np.max(allpts[:, 0]))
    y_lo, y_hi = 0.0, float(np.max(allpts[:, 1]))
    x_lo = min(x_lo, float(np.min(allpts[:, 0])))
    y_lo = min(y_lo, float(np.min(allpts[:, 1])))
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad_x = 0.03 * (x_hi - x_lo)
    pad_y = 0.03 * (y_hi - y_lo)
    x_hi += pad_x
    y_hi += pad_y

    inner_w = WIDTH - MARGIN_L - MARGIN_R
    inner_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * inner_w

    def sy(y: float) -> float:
        return HEIGHT - MARGIN_B - (y - y_lo) / (y_hi - y_lo) * inner_h

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(WIDTH)}" '
               f'height="{_fmt(HEIGHT)}" viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">')
    out.append(f'<rect x="0" y="0" width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" fill="white"/>')
    out.append(f'<text x="{_fmt(WIDTH / 2)}" y="24" text-anchor="middle" '
               f'font-family="sans-serif" font-size="16">{title}</text>')

    axis = (f'<line x1="{_fmt(MARGIN_L)}" y1="{_fmt(HEIGHT - MARGIN_B)}" '
            f'x2="{_fmt(WIDTH - MARGIN_R)}" y2="{_fmt(HEIGHT - MARGIN_B)}" '
            f'stroke="black" stroke-width="1"/>'
            f'<line x1="{_fmt(MARGIN_L)}" y1="{_fmt(MARGIN_T)}" '
            f'x2="{_fmt(MARGIN_L)}" y2="{_fmt(HEIGHT - MARGIN_B)}" '
            f'stroke="black" stroke-width="1"/>')
    out.append(axis)
    for tx in _nice_ticks(x_lo, x_hi):
        px = sx(tx)
        out.append(f'<line x1="{_fmt(px)}" y1="{_fmt(HEIGHT - MARGIN_B)}" '
                   f'x2="{_fmt(px)}" y2="{_fmt(HEIGHT - MARGIN_B + 5)}" stroke="black"/>')
        out.append(f'<text x="{_fmt(px)}" y="{_fmt(HEIGHT - MARGIN_B + 20)}" '
                   f'text-anchor="middle" font-family="sans-serif" font-size="11">{_fmt(tx)}</text>')
    for ty in _nice_ticks(y_lo, y_hi):
        py = sy(ty)
        out.append(f'<line x1="{_fmt(MARGIN_L - 5)}" y1="{_fmt(py)}" '
                   f'x2="{_fmt(MARGIN_L)}" y2="{_fmt(py)}" stroke="black"/>')
        out.append(f'<text x="{_fmt(MARGIN_L - 9)}" y="{_fmt(py + 4)}" '
                   f'text-anchor="end" font-family="sans-serif" font-size="11">{_fmt(ty)}</text>')
    out.append(f'<text x="{_fmt(MARGIN_L + inner_w / 2)}" y="{_fmt(HEIGHT - 15)}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="13">{x_label}</text>')
    out.append(f'<text x="20" y="{_fmt(MARGIN_T + inner_h / 2)}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 20 {_fmt(MARGIN_T + inner_h / 2)})">{y_label}</text>')

    for i, pts in enumerate(curves):
        if pts.shape[0] == 0:
            continue
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')

    legend_x = WIDTH - MARGIN_R - 180.0
    legend_y = MARGIN_T + 10.0
    for i, trace in enumerate(traces):
        color = PALETTE[i % len(PALETTE)]
        y = legend_y + 18.0 * i
        out.append(f'<line x1="{_fmt(legend_x)}" y1="{_fmt(y - 4)}" '
                   f'x2="{_fmt(legend_x + 24)}" y2="{_fmt(y - 4)}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_fmt(legend_x + 30)}" y="{_fmt(y)}" '
                   f'font-family="sans-serif" font-size="12">'
                   f'{_escape(_legend_label(trace, i))}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"

"""Minimal static SVG line plots with exact CSV co-emission, and the
package's one file writer.

Every figure the command-line tool writes comes from here: a handful of
series drawn as polylines with circle markers, labelled straight
reference lines, linear axes with rounded tick steps. No plotting library,
no fonts beyond the viewer's sans-serif, no randomness, so the same data
always produces byte-identical SVG. The companion CSV holds exactly the
plotted numbers in long form (series, x, y), one row per point.

Every file the package writes, the GA checkpoint included, goes through
`write_atomic`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

__all__ = ["LinePlot", "write_atomic", "write_plot"]

_COLORS = ["#1f6fb2", "#c44e52", "#2e8b57", "#8763a8", "#b08a00", "#444444"]

#: figure size in pixels
WIDTH, HEIGHT = 640, 420


def _nice_step(span: float, target: int = 5) -> float:
    """Rounded tick step (1/2/5 times a power of ten) for a span."""
    if span <= 0:
        return 1.0
    raw = span / max(target, 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = np.ceil(lo / step) * step
    vals = []
    t = first
    while t <= hi + 1e-9 * step:
        vals.append(0.0 if abs(t) < 1e-12 * step else float(t))
        t += step
    return vals


def _fmt(x: float) -> str:
    """Compact deterministic number label."""
    if x == int(x) and abs(x) < 1e7:
        return str(int(x))
    return f"{x:.4g}"


@dataclass
class _Series:
    name: str
    x: np.ndarray
    y: np.ndarray


@dataclass
class LinePlot:
    """One x/y chart with possibly several named series."""

    title: str
    xlabel: str
    ylabel: str
    series: list[_Series] = field(default_factory=list)
    hlines: list[tuple[float, str]] = field(default_factory=list)

    def add_series(self, name: str, x, y) -> None:
        """A polyline with a circle marker on every point."""
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        if x.size != y.size:
            raise ValueError("series x and y lengths differ")
        if x.size == 0:
            raise ValueError("series needs at least one point")
        self.series.append(_Series(name, x, y))

    def add_hline(self, y: float, label: str) -> None:
        self.hlines.append((float(y), label))

    def _limits(self) -> tuple[float, float, float, float]:
        xs = np.concatenate([s.x for s in self.series])
        y_arrays = [s.y for s in self.series]
        if self.hlines:
            y_arrays.append(np.array([h for h, _ in self.hlines]))
        ys = np.concatenate(y_arrays)
        x_lo, x_hi = float(xs.min()), float(xs.max())
        y_lo, y_hi = float(ys.min()), float(ys.max())
        if x_hi == x_lo:
            x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
        if y_hi == y_lo:
            y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
        pad = 0.05 * (y_hi - y_lo)
        return x_lo, x_hi, y_lo - pad, y_hi + pad

    def to_svg(self) -> str:
        if not self.series:
            raise ValueError("plot has no series")
        x_lo, x_hi, y_lo, y_hi = self._limits()
        ml, mr, mt, mb = 62, 16, 34, 46
        pw = WIDTH - ml - mr
        ph = HEIGHT - mt - mb

        def sx(x: float) -> float:
            return ml + (x - x_lo) / (x_hi - x_lo) * pw

        def sy(y: float) -> float:
            return mt + (y_hi - y) / (y_hi - y_lo) * ph

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{self.title}</text>',
        ]
        # axes box
        out.append(
            f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
            f'fill="none" stroke="#333" stroke-width="1"/>'
        )
        for t in _ticks(x_lo, x_hi):
            px = sx(t)
            out.append(f'<line x1="{px:.1f}" y1="{mt + ph}" x2="{px:.1f}" '
                       f'y2="{mt + ph + 4}" stroke="#333"/>')
            out.append(f'<text x="{px:.1f}" y="{mt + ph + 17}" '
                       f'text-anchor="middle" font-family="sans-serif" '
                       f'font-size="11">{_fmt(t)}</text>')
        for t in _ticks(y_lo, y_hi):
            py = sy(t)
            out.append(f'<line x1="{ml - 4}" y1="{py:.1f}" x2="{ml}" '
                       f'y2="{py:.1f}" stroke="#333"/>')
            out.append(f'<text x="{ml - 7}" y="{py + 4:.1f}" '
                       f'text-anchor="end" font-family="sans-serif" '
                       f'font-size="11">{_fmt(t)}</text>')
            out.append(f'<line x1="{ml}" y1="{py:.1f}" x2="{ml + pw}" '
                       f'y2="{py:.1f}" stroke="#ddd" stroke-width="0.7"/>')
        out.append(f'<text x="{ml + pw / 2:.1f}" y="{HEIGHT - 10}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="12">{self.xlabel}</text>')
        out.append(f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12" '
                   f'transform="rotate(-90 16 {mt + ph / 2:.1f})">'
                   f'{self.ylabel}</text>')
        for hy, label in self.hlines:
            py = sy(hy)
            out.append(f'<line x1="{ml}" y1="{py:.1f}" x2="{ml + pw}" '
                       f'y2="{py:.1f}" stroke="#888" stroke-width="1" '
                       f'stroke-dasharray="6 4"/>')
            out.append(f'<text x="{ml + pw - 4}" y="{py - 4:.1f}" '
                       f'text-anchor="end" font-family="sans-serif" '
                       f'font-size="10" fill="#666">{label}</text>')
        for k, s in enumerate(self.series):
            color = _COLORS[k % len(_COLORS)]
            pts = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}"
                           for x, y in zip(s.x, s.y))
            if s.x.size > 1:
                out.append(f'<polyline points="{pts}" fill="none" '
                           f'stroke="{color}" stroke-width="1.6"/>')
            for x, y in zip(s.x, s.y):
                out.append(f'<circle cx="{sx(float(x)):.2f}" '
                           f'cy="{sy(float(y)):.2f}" r="2.6" '
                           f'fill="{color}"/>')
            out.append(f'<line x1="{ml + 10}" y1="{mt + 14 + 16 * k}" '
                       f'x2="{ml + 34}" y2="{mt + 14 + 16 * k}" '
                       f'stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{ml + 39}" y="{mt + 18 + 16 * k}" '
                       f'font-family="sans-serif" font-size="11">'
                       f'{s.name}</text>')
        out.append("</svg>")
        return "\n".join(out) + "\n"

    def to_csv(self) -> str:
        """Exactly the plotted numbers, long form: series,x,y."""
        lines = ["series,x,y"]
        for s in self.series:
            for x, y in zip(s.x, s.y):
                lines.append(f"{s.name},{float(x)!r},{float(y)!r}")
        for hy, label in self.hlines:
            lines.append(f"hline:{label},,{float(hy)!r}")
        return "\n".join(lines) + "\n"


def write_atomic(path, text: str) -> None:
    """Write `text` (UTF-8) to `path` through a temporary renamed into place.

    The temporary `path + ".tmp"` gets all its blocks up front
    (`posix_fallocate`), so no delayed allocation is left for ext4 to
    flush at the rename or at the next truncation of the file, and the
    caller never waits on the disk. A failure anywhere, including in the
    preallocation, removes the temporary and leaves any previous `path`
    as it was. There is no fsync: the file survives a process crash, not
    a power cut.
    """
    data = text.encode("utf-8")
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            if data and hasattr(os, "posix_fallocate"):
                os.posix_fallocate(fh.fileno(), 0, len(data))
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_plot(base_path: str, plot: LinePlot) -> tuple[str, str]:
    """Write base_path.svg and base_path.csv; returns the two paths."""
    svg_path = f"{base_path}.svg"
    csv_path = f"{base_path}.csv"
    write_atomic(svg_path, plot.to_svg())
    write_atomic(csv_path, plot.to_csv())
    return svg_path, csv_path

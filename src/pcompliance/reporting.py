"""Deterministic CSV, field and SVG emission.

Every CSV starts with a `# schema=1` line plus the seed that produced it,
floats are written with repr (shortest round-trip form), and row order is
fixed by the caller.  Node fields go to binary .npy files.  So re-running
a command overwrites its outputs byte-identically.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .solver import ComplianceReport

SCHEMA = 1


def format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return repr(x)
    return str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence],
              seed: Optional[int] = None,
              comments: Sequence[str] = ()) -> Path:
    """The schema, seed and comment lines, the header, then one line per
    row; rows stream through the open file, so no whole-file string is
    built."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    head = [f"# schema={SCHEMA}"]
    if seed is not None:
        head.append(f"# seed={seed}")
    head.extend(f"# {c}" for c in comments)
    head.append(",".join(header))
    lines = (",".join(format_value(v) for v in row) for row in rows)
    with path.open("w") as out:
        out.writelines(line + "\n" for line in itertools.chain(head, lines))
    return path


COMPLIANCE_HEADER = (
    "p", "energy", "compliance_energy_form", "compliance_work_form",
    "flux_pnorm", "crack_length", "penalized_objective", "iterations",
    "residual", "regularization_eps", "method")


def compliance_row(report: ComplianceReport) -> tuple:
    return (report.p, report.energy, report.compliance_energy_form,
            report.compliance_work_form, report.flux_pnorm,
            report.crack_length, report.penalized_objective,
            report.iterations, report.residual, report.regularization_eps,
            report.method)


def write_compliance_report(path, report: ComplianceReport,
                            seed: Optional[int] = None) -> Path:
    return write_csv(path, COMPLIANCE_HEADER, [compliance_row(report)], seed=seed)


def write_field(path, values: np.ndarray) -> Path:
    """Node field to a NumPy .npy file, read back with `np.load`.

    The array is written C-ordered whatever its layout, so the file holds
    every value bit for bit (-0.0, nan and inf included) and rewriting a
    field gives identical bytes.  A 433^2 field takes 1.5 MB.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as out:
        np.save(out, np.ascontiguousarray(values), allow_pickle=False)
    return path


_VIRIDIS = (
    (0.267, 0.005, 0.329),
    (0.283, 0.141, 0.458),
    (0.254, 0.265, 0.530),
    (0.207, 0.372, 0.553),
    (0.164, 0.471, 0.558),
    (0.128, 0.567, 0.551),
    (0.135, 0.659, 0.518),
    (0.267, 0.749, 0.441),
    (0.478, 0.821, 0.318),
    (0.741, 0.873, 0.150),
    (0.993, 0.906, 0.144))
# heatmap cells are drawn this many pixels wide, at most this many a side
_CELL_PX = 4
_MAX_CELLS = 160


def _color(fraction: float) -> str:
    x = min(max(fraction, 0.0), 1.0) * (len(_VIRIDIS) - 1)
    low = int(x)
    high = min(low + 1, len(_VIRIDIS) - 1)
    w = x - low
    rgb = tuple(round(255 * ((1 - w) * _VIRIDIS[low][c] + w * _VIRIDIS[high][c]))
                for c in range(3))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def write_heatmap(path, values: np.ndarray) -> Path:
    """Minimal SVG heatmap of a 2d array (block-averaged when large)."""
    if values.ndim != 2:
        raise ValueError("heatmaps are 2d only")
    data = np.asarray(values, dtype=float)
    step = max(1, math.ceil(max(data.shape) / _MAX_CELLS))
    if step > 1:
        nx = data.shape[0] // step * step
        ny = data.shape[1] // step * step
        data = data[:nx, :ny].reshape(nx // step, step, ny // step, step).mean(axis=(1, 3))
    lo = float(data.min())
    hi = float(data.max())
    span = hi - lo if hi > lo else 1.0
    width = data.shape[0] * _CELL_PX
    height = data.shape[1] * _CELL_PX
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height + 16}" shape-rendering="crispEdges">']
    for i in range(data.shape[0]):
        for j in range(data.shape[1]):
            color = _color((data[i, j] - lo) / span)
            # array axis 0 runs right, axis 1 runs up
            parts.append(
                f'<rect x="{i * _CELL_PX}" y="{(data.shape[1] - 1 - j) * _CELL_PX}" '
                f'width="{_CELL_PX}" height="{_CELL_PX}" fill="{color}"/>')
    parts.append(
        f'<text x="0" y="{height + 12}" font-size="10" font-family="monospace">'
        f'min={format_value(lo)} max={format_value(hi)}</text>')
    parts.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n")
    return path

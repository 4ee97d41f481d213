"""Box domains, uniform node grids, and crack sets built from line segments.

Everything here is immutable after construction: problem descriptions, grids
and crack sets are frozen dataclasses, and constraint masks expose read-only
arrays, so all of it can be shared freely across worker processes.

Crack sets serialize to a plain text format, one segment per line::

    # comment lines start with a hash
    x1 y1 [...] x2 y2 [...]

with whitespace-separated coordinates (start point first, then end point) in
the same length units as the box.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionWarning

# Relative slack on the h/2 pinning rule so exact-alignment cases (a node
# sitting exactly half a cell from a segment) land on the pinned side despite
# floating point noise in node coordinates.
_PIN_SLACK = 1e-9


@dataclass(frozen=True)
class ProblemSpec:
    """Exponent and box data for one compliance problem.

    p is the energy exponent (> 1), dim the ambient dimension (>= 2),
    half_width the half side length R of the box (-R, R)^dim.  length_penalty
    is the weight on crack length in penalized objectives.
    """

    p: float
    dim: int = 2
    half_width: float = 1.0
    length_penalty: float = 0.0

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"exponent p must exceed 1, got {self.p}")
        if self.dim < 2:
            raise ValueError(f"dimension must be at least 2, got {self.dim}")
        if not self.half_width > 0.0:
            raise ValueError("box half width must be positive")
        if self.length_penalty < 0.0:
            raise ValueError("length penalty must be nonnegative")

    @property
    def dual_exponent(self) -> float:
        return self.p / (self.p - 1.0)


@dataclass(frozen=True)
class Segment:
    """Closed line segment with distinct, finite endpoints."""

    start: tuple[float, ...]
    end: tuple[float, ...]

    def __post_init__(self):
        start = tuple(float(c) for c in self.start)
        end = tuple(float(c) for c in self.end)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        if len(start) != len(end):
            raise ValueError("segment endpoints live in different dimensions")
        if len(start) < 1:
            raise ValueError("segment needs at least one coordinate")
        if not all(math.isfinite(c) for c in start + end):
            raise ValueError(f"segment coordinates must be finite, got {start} -> {end}")
        if start == end:
            raise ValueError("segment endpoints coincide")

    @property
    def dim(self) -> int:
        return len(self.start)

    @property
    def a(self) -> np.ndarray:
        return np.asarray(self.start, dtype=float)

    @property
    def b(self) -> np.ndarray:
        return np.asarray(self.end, dtype=float)

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.b - self.a))

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.a + self.b)


def axis_segment(start: tuple[float, ...], axis: int, length: float) -> Segment:
    """Segment of given length from start along a coordinate axis."""
    end = list(float(c) for c in start)
    end[axis] += float(length)
    return Segment(tuple(start), tuple(end))


@dataclass(frozen=True)
class CrackSet:
    """Finite union of line segments treated as a crack configuration."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if segs:
            d = segs[0].dim
            if any(s.dim != d for s in segs):
                raise ValueError("all segments must share one dimension")

    @classmethod
    def empty(cls) -> "CrackSet":
        return cls(())

    @classmethod
    def of(cls, *segments: Segment) -> "CrackSet":
        return cls(tuple(segments))

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    @property
    def dim(self) -> int | None:
        return self.segments[0].dim if self.segments else None

    @property
    def total_length(self) -> float:
        return total_length(self)


def _collinear_overlap_length(s1: Segment, s2: Segment) -> float:
    """Length of the common sub-segment of two collinear segments, else 0."""
    d1 = s1.b - s1.a
    d2 = s2.b - s2.a
    len1 = np.linalg.norm(d1)
    len2 = np.linalg.norm(d2)
    u = d1 / len1
    # parallel test via the Gram determinant, scale free
    cross_sq = float(len1 * len1 * len2 * len2 - np.dot(d1, d2) ** 2)
    if cross_sq > (1e-12 * len1 * len2) ** 2:
        return 0.0
    # offset of s2.a from the line through s1
    off = s2.a - s1.a
    perp = off - np.dot(off, u) * u
    if np.linalg.norm(perp) > 1e-12 * max(len1, len2, np.linalg.norm(off)):
        return 0.0
    t0 = float(np.dot(s2.a - s1.a, u))
    t1 = float(np.dot(s2.b - s1.a, u))
    lo, hi = min(t0, t1), max(t0, t1)
    return max(0.0, min(hi, len1) - max(lo, 0.0))


def total_length(cracks: CrackSet) -> float:
    """Total one-dimensional length of a crack set.

    Segments may touch or cross transversally (measure-zero intersections do
    not affect the length) but collinear overlaps of positive length are
    rejected because the plain sum would double count them.
    """
    segs = cracks.segments
    if not segs:
        return 0.0
    # a positive-length shared sub-segment lies inside both bounding boxes,
    # so only box-intersecting pairs need the exact collinearity test
    starts = np.array([s.start for s in segs])
    ends = np.array([s.end for s in segs])
    lo = np.minimum(starts, ends)
    hi = np.maximum(starts, ends)
    slack = 1e-12 * float(np.abs(hi - lo).max(initial=0.0) + 1.0)
    meets = np.all((lo[:, None] <= hi[None, :] + slack)
                   & (lo[None, :] <= hi[:, None] + slack), axis=-1)
    for i, j in zip(*np.nonzero(np.triu(meets, k=1))):
        overlap = _collinear_overlap_length(segs[i], segs[j])
        scale = min(segs[i].length, segs[j].length)
        if overlap > 1e-12 * scale:
            raise ValueError(
                f"segments {i} and {j} overlap along a common line "
                f"(shared length {overlap:.3g}); lengths would double count"
            )
    return math.fsum(s.length for s in segs)


@dataclass(frozen=True)
class GridDiscretization:
    """Uniform node-centered grid on a cube.

    nodes_per_side nodes along each axis cover [center - half_width,
    center + half_width] with spacing h = 2 * half_width / (nodes_per_side-1).
    Node (i_1, ..., i_dim) sits at center_k - half_width + i_k * h.
    """

    nodes_per_side: int
    half_width: float
    dim: int = 2
    center: tuple[float, ...] = ()

    def __post_init__(self):
        if self.nodes_per_side < 2:
            raise ValueError("grid needs at least two nodes per side")
        if not self.half_width > 0.0:
            raise ValueError("grid half width must be positive")
        if self.dim < 1:
            raise ValueError("grid dimension must be at least 1")
        center = tuple(float(c) for c in self.center) if self.center else (0.0,) * self.dim
        if len(center) != self.dim:
            raise ValueError("grid center has wrong dimension")
        object.__setattr__(self, "center", center)

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.nodes_per_side - 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.nodes_per_side,) * self.dim

    @property
    def cells_shape(self) -> tuple[int, ...]:
        return (self.nodes_per_side - 1,) * self.dim

    @property
    def n_nodes(self) -> int:
        return self.nodes_per_side**self.dim

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    @property
    def lower_corner(self) -> np.ndarray:
        return np.asarray(self.center) - self.half_width

    def axis(self, k: int = 0) -> np.ndarray:
        lo = self.center[k] - self.half_width
        hi = self.center[k] + self.half_width
        return np.linspace(lo, hi, self.nodes_per_side)

    def node_coordinates(self) -> np.ndarray:
        """Array of node positions, shape grid.shape + (dim,)."""
        axes = [self.axis(k) for k in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        for k in range(self.dim):
            idx_lo = [slice(None)] * self.dim
            idx_lo[k] = 0
            idx_hi = [slice(None)] * self.dim
            idx_hi[k] = self.nodes_per_side - 1
            mask[tuple(idx_lo)] = True
            mask[tuple(idx_hi)] = True
        return mask

    def contains(self, points: np.ndarray) -> bool:
        # a relative slack of 1e-9 half-widths admits points on the boundary
        slack = 1e-9 * self.half_width
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo = self.lower_corner - slack
        hi = np.asarray(self.center) + self.half_width + slack
        return bool(np.all(pts >= lo) and np.all(pts <= hi))


def build_grid(spec: ProblemSpec, nodes_per_side: int) -> GridDiscretization:
    """Grid on the centered box of a problem description."""
    return GridDiscretization(nodes_per_side, spec.half_width, spec.dim)


@dataclass(frozen=True, eq=False)
class ConstraintMask:
    """Boolean field marking nodes pinned to zero.

    With include_boundary rasterization this is the box boundary plus every
    node within h/2 of a crack segment; local problems use crack-only masks.
    """

    grid: GridDiscretization
    pinned: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.pinned, dtype=bool)
        if arr.shape != self.grid.shape:
            raise ValueError("mask shape does not match the grid")
        arr.setflags(write=False)
        object.__setattr__(self, "pinned", arr)

    @property
    def n_pinned(self) -> int:
        return int(self.pinned.sum())

    @property
    def n_free(self) -> int:
        return self.pinned.size - self.n_pinned

    def interior_pinned(self) -> int:
        return int((self.pinned & ~self.grid.boundary_mask()).sum())


def _segment_node_distances(coords: np.ndarray, seg: Segment) -> np.ndarray:
    """Euclidean distance from each point in coords (..., dim) to a segment."""
    a = seg.a
    d = seg.b - a
    denom = float(np.dot(d, d))
    rel = coords - a
    t = np.clip(np.tensordot(rel, d, axes=([-1], [0])) / denom, 0.0, 1.0)
    proj = rel - t[..., None] * d
    return np.sqrt(np.einsum("...k,...k->...", proj, proj))


def rasterize(cracks: CrackSet, grid: GridDiscretization, include_boundary: bool = True) -> ConstraintMask:
    """Pin every node within h/2 of a crack segment (plus the box boundary).

    A segment that captures no node at the current spacing is kept in the
    geometry but triggers a ResolutionWarning, since the discrete problem
    cannot see it.
    """
    if cracks.segments:
        if cracks.dim != grid.dim:
            raise ValueError("crack set and grid dimensions differ")
        endpoints = np.array([list(s.start) + list(s.end) for s in cracks.segments])
        endpoints = endpoints.reshape(-1, grid.dim)
        if not grid.contains(endpoints):
            raise ValueError("crack set is not contained in the closed box")
    pinned = grid.boundary_mask() if include_boundary else np.zeros(grid.shape, dtype=bool)
    if cracks.segments:
        coords = grid.node_coordinates()
        cutoff = 0.5 * grid.h * (1.0 + _PIN_SLACK)
        for seg in cracks.segments:
            captured = _segment_node_distances(coords, seg) <= cutoff
            if not captured.any():
                warnings.warn(
                    f"segment of length {seg.length:.4g} captures no node at "
                    f"spacing h={grid.h:.4g}; it is invisible to this grid",
                    ResolutionWarning,
                    stacklevel=2,
                )
            pinned |= captured
    return ConstraintMask(grid, pinned)


def save_segments(path, cracks: CrackSet) -> None:
    """Write a crack set in the one-segment-per-line text format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# crack segments: x1 y1 [...] x2 y2 [...]\n")
        for seg in cracks.segments:
            coords = list(seg.start) + list(seg.end)
            fh.write(" ".join(repr(c) for c in coords) + "\n")


def load_segments(path) -> CrackSet:
    """Read a crack set from the one-segment-per-line text format."""
    segments = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) % 2 != 0 or len(parts) < 4:
                raise ValueError(
                    f"{path}:{lineno}: expected an even number (>= 4) of "
                    f"coordinates, got {len(parts)}"
                )
            half = len(parts) // 2
            if segments and half != segments[0].dim:
                raise ValueError(
                    f"{path}:{lineno}: a {half}-d segment after "
                    f"{segments[0].dim}-d ones; all segments must share one dimension")
            try:
                values = [float(tok) for tok in parts]
                segments.append(Segment(tuple(values[:half]), tuple(values[half:])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return CrackSet(tuple(segments))

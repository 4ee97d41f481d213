"""Source terms: smooth picklable callables plus grid sampling helpers.

Sources are dataclasses with __call__ on coordinate arrays of shape
(..., dim), so they survive pickling into worker processes and serialize
their own parameters for reproducible experiment records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GridDiscretization


@dataclass(frozen=True)
class Constant:
    value: float = 1.0

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return np.full(points.shape[:-1], float(self.value))


@dataclass(frozen=True)
class GaussianBump:
    """value * exp(-|x - center|^2 / (2 width^2))."""

    center: tuple[float, ...]
    width: float
    value: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not (self.width > 0):
            raise ValueError("width must be positive")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        offset = points - np.asarray(self.center)
        sq = (offset * offset).sum(axis=-1)
        return self.value * np.exp(-sq / (2.0 * self.width ** 2))


@dataclass(frozen=True)
class GaussianSum:
    bumps: tuple[GaussianBump, ...]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        acc = np.zeros(points.shape[:-1])
        for bump in self.bumps:
            acc += bump(points)
        return acc


def random_smooth(rng: np.random.Generator, dim: int, half_width: float,
                  bumps: int = 3) -> GaussianSum:
    """A random superposition of Gaussian bumps inside the box centered at
    the origin, each of amplitude at most 1."""
    parts = []
    for _ in range(bumps):
        c = rng.uniform(-0.6 * half_width, 0.6 * half_width, size=dim)
        width = float(rng.uniform(0.15, 0.45)) * half_width
        value = float(rng.uniform(-1.0, 1.0))
        parts.append(GaussianBump(center=tuple(c), width=width, value=value))
    return GaussianSum(bumps=tuple(parts))


def sample_on_grid(source, grid: GridDiscretization) -> np.ndarray:
    """Node samples of a callable source (or pass-through for arrays)."""
    if callable(source):
        values = np.asarray(source(grid.node_coordinates()), dtype=float)
    else:
        values = np.asarray(source, dtype=float)
    if values.shape != grid.shape:
        raise ValueError(f"source samples {values.shape} do not match grid {grid.shape}")
    return values


# the names `named_source` accepts
SOURCE_NAMES = ("one", "zero", "bump")


def named_source(name: str, dim: int, half_width: float):
    """Sources addressable from config files: "one", "zero", or "bump"
    (centered at the origin)."""
    if name == "one":
        return Constant(1.0)
    if name == "zero":
        return Constant(0.0)
    if name == "bump":
        return GaussianBump(center=(0.0,) * dim, width=0.3 * half_width, value=1.0)
    raise ValueError(f"unknown source {name!r} (expected one of {', '.join(SOURCE_NAMES)})")
